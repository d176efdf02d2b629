"""Word enumeration: braid classes, normal forms, spheres, cosets."""

import pytest

from coxgrowth import (ENTRIES, OracleHorizonError, WordOracle,
                       coset_decomposition_check, cross_check_oracles, get)
from coxgrowth.coxeter import coxeter_matrix
from coxgrowth.oracle import coset_components
from coxgrowth.ratfunc import series_expand
from coxgrowth import growth_table


def test_braid_class_a2():
    o = WordOracle(get("a2").matrix)
    assert o.braid_class((0, 1, 0)) == frozenset({(0, 1, 0), (1, 0, 1)})
    assert o.canonical((1, 0, 1)) == (0, 1, 0)
    assert o.braid_class(()) == frozenset({()})


def test_braid_class_commutation():
    # a1xa1: 01 and 10 are the same element via the m=2 move
    o = WordOracle(get("a1xa1").matrix)
    assert o.canonical((1, 0)) == (0, 1)


def test_braid_class_no_move_for_infinity():
    o = WordOracle(get("inf-dihedral").matrix)
    assert o.braid_class((0, 1, 0)) == frozenset({(0, 1, 0)})


def test_braid_class_b2():
    o = WordOracle(get("b2").matrix)
    w0 = o.braid_class((0, 1, 0, 1))
    assert w0 == frozenset({(0, 1, 0, 1), (1, 0, 1, 0)})
    # length-3 words are rigid in B2
    assert o.braid_class((0, 1, 0)) == frozenset({(0, 1, 0)})


def test_braid_class_a3_longest():
    # w0 in A3 has 16 reduced words
    o = WordOracle(get("a3").matrix)
    assert len(o.braid_class((0, 1, 0, 2, 1, 0))) == 16


def test_descent_masks():
    o = WordOracle(get("a2").matrix)
    assert o.descent_mask(()) == 0
    assert o.descent_mask((0,)) == 0b01
    assert o.descent_mask((0, 1)) == 0b10
    assert o.descent_mask((0, 1, 0)) == 0b11


def test_right_multiply_both_directions():
    o = WordOracle(get("a2").matrix)
    assert o.right_multiply((0,), 1) == (0, 1)
    assert o.right_multiply((0, 1), 1) == (0,)
    assert o.right_multiply((0, 1, 0), 0) == (0, 1)
    # descending from w0 by generator 1: sts -> st... via class member tst
    assert o.right_multiply((0, 1, 0), 1) == (1, 0)
    assert o.right_multiply((), 0) == (0,)


@pytest.mark.parametrize("name,sizes", [
    ("a1", [1, 1, 0, 0]),
    ("a2", [1, 2, 2, 1, 0]),
    ("b2", [1, 2, 2, 2, 1]),
    ("inf-dihedral", [1, 2, 2, 2, 2, 2]),
    ("tilde-a2", [1, 3, 6, 9, 12, 15]),
    ("free-product-3", [1, 3, 6, 12, 24, 48]),
])
def test_sphere_sizes(name, sizes, oracle_for):
    assert oracle_for(name).sphere_sizes(len(sizes) - 1) == sizes


def test_full_histogram_h3(oracle_for):
    hist = oracle_for("h3").full_histogram()
    assert sum(hist) == 120
    assert len(hist) == 16
    assert hist == [1, 3, 5, 7, 9, 11, 12, 12, 12, 12, 11, 9, 7, 5, 3, 1]
    assert hist == hist[::-1]


def test_full_histogram_requires_exhaustion():
    o = WordOracle(get("inf-dihedral").matrix)
    with pytest.raises(RuntimeError, match="not exhausted"):
        o.full_histogram(limit=8)


def test_relabelling_invariance_of_spheres():
    base = coxeter_matrix(3, {(0, 1): 5, (1, 2): 3})
    flip = coxeter_matrix(3, {(0, 1): 3, (1, 2): 5})
    assert WordOracle(base).sphere_sizes(8) == WordOracle(flip).sphere_sizes(8)


def test_class_cap_raises():
    # H3's longest element has a huge braid class; a tiny cap must trip
    o = WordOracle(get("h3").matrix, class_cap=5)
    (w0,) = o.sphere(15)
    with pytest.raises(OracleHorizonError, match="cap 5"):
        o.braid_class(w0)


def test_canonical_of_non_reduced_word():
    o = WordOracle(get("a2").matrix)
    assert o.canonical((0, 0)) == ()
    assert o.canonical((1, 0, 1, 1)) == (1, 0)
    assert o.canonical((0, 1, 1, 0, 1)) == (1,)
    assert o.descent_mask((0, 1, 1, 0, 1)) == 0b10
    with pytest.raises(ValueError, match="out of range"):
        o.canonical((0, 2))
    with pytest.raises(ValueError, match="out of range"):
        o.right_multiply((0,), -1)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_table_against_braid_classes(entry):
    # every element of the ball against the closure of its canonical word
    o = WordOracle(entry.matrix)
    for w in o.ball(8):
        cls = o.braid_class(w)
        assert min(cls) == w
        assert all(o.canonical(u) == w for u in cls)
        last = 0
        for u in cls:
            if u:
                last |= 1 << u[-1]
        assert o.descent_mask(w) == last
        for s in range(entry.matrix.rank):
            v = o.right_multiply(w, s)
            if (last >> s) & 1:
                assert len(v) == len(w) - 1
                assert v + (s,) in cls
            else:
                assert w + (s,) in o.braid_class(v)


def test_subgroup_elements():
    o = WordOracle(get("tilde-a2").matrix)
    words = o.subgroup_elements(0b011)
    assert len(words) == 6
    assert all(set(w) <= {0, 1} for w in words)
    with pytest.raises(ValueError, match="infinite subgroup"):
        o.subgroup_elements(0b111)


def test_coset_components_partition(oracle_for):
    o = oracle_for("tilde-a2")
    ball = o.ball(5)
    comp = coset_components(o, ball, 0b011)
    assert set(comp) == set(ball)
    # cosets of W_{1,2} near the identity: the component of e has all 6 members
    identity_comp = {w for w, c in comp.items() if c == comp[()]}
    assert len(identity_comp) == 6
    assert identity_comp == set(o.subgroup_elements(0b011))


def test_coset_decomposition_tilde_a2():
    m = get("tilde-a2").matrix
    rep = coset_decomposition_check(m, 0b011, 7)
    assert rep.passed
    assert rep.complete_cosets >= 9
    assert rep.skipped_cosets > 0  # cosets cut by the horizon are not judged
    # lengths within a complete coset are u + {0,1,1,2,2,3}
    rep1 = coset_decomposition_check(m, 0b001, 6)
    assert rep1.passed


def test_coset_decomposition_rejects_nonspherical():
    m = get("inf-dihedral").matrix
    with pytest.raises(ValueError, match="spherical"):
        coset_decomposition_check(m, 0b11, 5)


def test_coset_decomposition_finite_group():
    rep = coset_decomposition_check(get("a3").matrix, 0b011, 6)
    assert rep.passed
    assert rep.complete_cosets == 4  # |A3| / |A2| = 24 / 6
    assert rep.skipped_cosets == 0


@pytest.mark.parametrize("name,horizon", [
    ("a2", 3), ("a3", 6), ("b3", 9), ("h3", 8),
    ("inf-dihedral", 8), ("tilde-a2", 6), ("triangle-244", 6),
    ("triangle-237", 6), ("free-product-3", 6), ("racg-4cycle", 6),
])
def test_two_oracle_agreement(name, horizon, oracle_for):
    rep = cross_check_oracles(get(name).matrix, horizon, oracle_for(name))
    assert rep.passed, rep.descent_mismatches[:3]


def test_spheres_match_growth_series(oracle_for):
    for name in ("a3", "b3", "tilde-a2", "triangle-237", "racg-4cycle"):
        series = series_expand(growth_table(get(name).matrix).series(), 7)
        assert oracle_for(name).sphere_sizes(7) == series, name
