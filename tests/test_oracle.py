"""Word enumeration: normal forms against braid classes, spheres, cosets; and
the exact Tits-cone oracle with its arithmetic."""

import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coxgrowth import (ENTRIES, INFINITY, GrowthTable, WordOracle,
                       coset_decomposition_check, cross_check_oracles, get,
                       parse_coxeter_file)
from coxgrowth import oracle as oracle_module
from coxgrowth.coxeter import coxeter_matrix
from coxgrowth.oracle import _CosineRing, _minimal_polynomial, coset_components
from coxgrowth.ratfunc import series_expand

SHIPPED = sorted((Path(__file__).resolve().parent.parent / "systems").glob("*.cox"))


def _alternating(s, t, m):
    return tuple(s if i % 2 == 0 else t for i in range(m))


def braid_class(matrix, word) -> frozenset:
    """All words braid-equivalent to the given one: for a reduced word, all
    reduced words of its element.  The closure under replacing an alternating
    factor ``stst...`` of length m(s, t) by ``tsts...``, built by brute force
    as the reference the ShortLex table is checked against."""
    patterns = {}
    for s in range(matrix.rank):
        for t in range(matrix.rank):
            m = matrix.orders[s][t]
            if t != s and m is not INFINITY:
                patterns[(s, t)] = (_alternating(s, t, m), _alternating(t, s, m))
    word = tuple(word)
    seen = {word}
    frontier = [word]
    while frontier:
        nxt = []
        for u in frontier:
            length = len(u)
            for i in range(length - 1):
                pat = patterns.get((u[i], u[i + 1]))
                if pat is None:
                    continue
                old, new = pat
                m = len(old)
                if i + m <= length and u[i:i + m] == old:
                    v = u[:i] + new + u[i + m:]
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
        frontier = nxt
    return frozenset(seen)


def test_braid_class_a2():
    o = WordOracle(get("a2").matrix)
    assert braid_class(o.matrix, (0, 1, 0)) == frozenset({(0, 1, 0), (1, 0, 1)})
    assert o.canonical((1, 0, 1)) == (0, 1, 0)
    assert braid_class(o.matrix, ()) == frozenset({()})


def test_braid_class_commutation():
    # a1xa1: 01 and 10 are the same element via the m=2 move
    o = WordOracle(get("a1xa1").matrix)
    assert o.canonical((1, 0)) == (0, 1)


def test_braid_class_no_move_for_infinity():
    o = WordOracle(get("inf-dihedral").matrix)
    assert braid_class(o.matrix, (0, 1, 0)) == frozenset({(0, 1, 0)})


def test_braid_class_b2():
    o = WordOracle(get("b2").matrix)
    w0 = braid_class(o.matrix, (0, 1, 0, 1))
    assert w0 == frozenset({(0, 1, 0, 1), (1, 0, 1, 0)})
    # length-3 words are rigid in B2
    assert braid_class(o.matrix, (0, 1, 0)) == frozenset({(0, 1, 0)})


def test_braid_class_a3_longest():
    # w0 in A3 has 16 reduced words
    o = WordOracle(get("a3").matrix)
    assert len(braid_class(o.matrix, (0, 1, 0, 2, 1, 0))) == 16


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


def test_negative_sphere_length_is_rejected():
    # a negative length once indexed the sphere starts from the end
    o = WordOracle(get("free-product-3").matrix)
    assert o.sphere_sizes(3) == [1, 3, 6, 12]
    for k in (-1, -2, -5):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            o.sphere(k)
        with pytest.raises(ValueError, match="length must be nonnegative"):
            o.sphere_ids(k)
    with pytest.raises(ValueError, match="length must be nonnegative"):
        WordOracle(get("a2").matrix).sphere(-1)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_descent_counts_match_per_id_descents(entry, oracle_for):
    o = oracle_for(entry.name)
    for k in range(11):
        assert o.descent_counts(k) == Counter(o.descents(i) for i in o.sphere_ids(k)), k
    longest = GrowthTable(entry.matrix).infos[entry.matrix.full_mask].longest_length
    if longest is not None:
        # past a finite group's longest element every sphere is empty
        assert sum(o.descent_counts(longest).values()) == 1
        for k in (longest + 1, longest + 5):
            assert o.descent_counts(k) == Counter()
    for k in (-1, -3):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            o.descent_counts(k)


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
        cls = braid_class(entry.matrix, w)
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
                assert w + (s,) in braid_class(entry.matrix, v)


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
        series = series_expand(GrowthTable(get(name).matrix).series(), 7)
        assert oracle_for(name).sphere_sizes(7) == series, name


# ---------------------------------------------------------------------------
# id-native storage against the word-tuple table it replaced
# ---------------------------------------------------------------------------

class _WordTupleOracle:
    """The table as first built: a canonical word tuple and an index entry
    per element.  Kept here as the reference for the id-native storage."""

    def __init__(self, matrix):
        self.rank = rank = matrix.rank
        self._partners = [[(t, matrix.orders[s][t]) for t in range(rank)
                           if t != s and matrix.orders[s][t] is not INFINITY]
                          for s in range(rank)]
        self._words, self._descents, self._table = [()], [0], [-1] * rank
        self._index = {(): 0}
        self._starts = [0, 1]

    def _extend(self):
        rank, table, descents = self.rank, self._table, self._descents
        for w in range(self._starts[-2], self._starts[-1]):
            for s in range(rank):
                if descents[w] >> s & 1:
                    continue
                v, mask = -1, 1 << s
                down = [-1] * rank
                down[s] = w
                for t, m in self._partners[s]:
                    x, a, b = w, t, s
                    for _ in range(m - 1):
                        if not descents[x] >> a & 1:
                            break
                        x = table[x * rank + a]
                        a, b = b, a
                    else:
                        for _ in range(m - 1):
                            x = table[x * rank + a]
                            a, b = b, a
                        if x < w:
                            v = table[x * rank + t]
                            break
                        mask |= 1 << t
                        down[t] = x
                if v < 0:
                    v = len(self._words)
                    self._words.append(self._words[w] + (s,))
                    self._index[self._words[v]] = v
                    descents.append(mask)
                    table += down
                table[w * rank + s] = v
        self._starts.append(len(self._words))

    def sphere(self, k):
        while len(self._starts) <= k + 1:
            self._extend()
        return self._words[self._starts[k]:self._starts[k + 1]]

    def ball(self, horizon):
        return {w: k for k in range(horizon + 1) for w in self.sphere(k)}

    def canonical(self, word):
        i = 0
        for s in word:
            j = self._table[i * self.rank + s]
            if j < 0:
                self._extend()
                j = self._table[i * self.rank + s]
            i = j
        return self._words[i]


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_id_storage_matches_word_tuple_table(entry):
    o, ref = WordOracle(entry.matrix), _WordTupleOracle(entry.matrix)
    for k in range(9):
        assert o.sphere(k) == ref.sphere(k)
        assert [o.word(i) for i in o.sphere_ids(k)] == ref.sphere(k)
    assert o.ball(8) == ref.ball(8)
    for w in ref.ball(8):
        assert o.canonical(w) == w
    # every word of length <= 4, reduced or not
    for n in range(5):
        for word in itertools.product(range(entry.matrix.rank), repeat=n):
            assert o.canonical(word) == ref.canonical(word), word


def test_word_oracle_memory_per_element():
    # last letter, descent mask and a rank-wide row per element: no word tuple
    # and no index entry (those came to about 300 bytes per element here)
    tracemalloc.start()
    try:
        o = WordOracle(get("free-product-3").matrix)
        elements = sum(o.sphere_sizes(14))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elements == 3 * 2 ** 14 - 2
    assert peak <= 128 * elements, peak / elements


def test_id_accessors():
    o = WordOracle(get("a2").matrix)
    assert o.sphere_ids(0) == range(0, 1)
    assert [o.word(i) for i in o.sphere_ids(2)] == [(0, 1), (1, 0)]
    assert [o.descents(i) for i in o.sphere_ids(2)] == [0b10, 0b01]
    assert o.sphere_ids(4) == range(0)


def test_id_accessors_reject_ids_outside_the_table():
    # a negative id once indexed from the end: word(-1) read (0, 1, 0)
    o = WordOracle(get("a2").matrix)
    assert o.sphere_sizes(3) == [1, 2, 2, 1]
    assert o.word(5) == (0, 1, 0) and o.descents(5) == 0b11
    for i in (-1, -6, 6, 100):
        with pytest.raises(ValueError, match=f"element id {i} is not in the table"):
            o.word(i)
        with pytest.raises(ValueError, match=f"element id {i} is not in the table"):
            o.descents(i)
    fresh = WordOracle(get("free-product-3").matrix)
    assert fresh.word(0) == () and fresh.descents(0) == 0
    with pytest.raises(ValueError, match="element id 1 is not in the table"):
        fresh.word(1)


# ---------------------------------------------------------------------------
# exact arithmetic of the Tits-cone oracle
# ---------------------------------------------------------------------------

def _totient(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _value(coeffs, x):
    return sum(a * x ** i for i, a in enumerate(coeffs))


@pytest.mark.parametrize("big_m", range(4, 31))
def test_bracket_isolates_the_cosine(big_m):
    ring = _CosineRing(big_m)
    assert ring.degree == len(ring.poly) - 1 == _totient(2 * big_m) // 2
    assert ring.poly[-1] == 1
    lo, hi, k = ring.bracket
    assert k >= _CosineRing.INITIAL_BITS and hi == lo + 1
    assert _value(ring.poly, Fraction(lo, 2 ** k)) < 0 < _value(ring.poly, Fraction(hi, 2 ** k))


def test_minimal_polynomial_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for big_m in range(4, 31):
        expected = sympy.Poly(sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / big_m), x), x)
        assert _minimal_polynomial(big_m) == [int(a) for a in expected.all_coeffs()[::-1]]


@pytest.mark.parametrize("big_m", [4, 5, 7, 12, 30])
def test_sign_refines_the_bracket_when_needed(big_m):
    # p - q*c for convergents p/q of c, far closer to c than the bracket's
    # width: interval evaluation must halve the bracket to decide the sign
    sympy = pytest.importorskip("sympy")
    exact = 2 * sympy.cos(sympy.pi / big_m)
    approx = Fraction(str(sympy.N(exact, 80)))
    convergents, (p0, q0, p1, q1) = [], (0, 1, 1, 0)
    while q1 < 2 ** 44:
        a = approx.numerator // approx.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        convergents.append((p1, q1))
        approx = 1 / (approx - a)
    ring = _CosineRing(big_m)
    start = ring.bracket[2]
    signs = set()
    for p, q in convergents[-2:]:
        assert q > 2 ** 36
        element = ring.reduce([p, -q])
        expected = 1 if sympy.sign(p - q * exact) > 0 else -1
        assert ring.sign(element) == expected
        signs.add(expected)
    assert signs == {1, -1}
    assert ring.bracket[2] > start
    with pytest.raises(ValueError, match="zero"):
        ring.sign((0,) * ring.degree)


def test_cosines_satisfy_their_minimal_polynomials():
    # 2cos(pi/m) in Z[2cos(pi/M)] is a root of the minimal polynomial for m
    ring = _CosineRing(60)
    for m in (4, 5, 6, 10, 12, 15, 20, 30, 60):
        c = ring.cosine(m)
        power, total = ring.reduce([1]), [0] * ring.degree
        for a in _minimal_polynomial(m):
            total = [t + a * v for t, v in zip(total, power)]
            power = ring.reduce(_poly_product(power, c))
        assert not any(total), m


def _poly_product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_cross_check_on_shipped_systems(path):
    matrix = parse_coxeter_file(path.read_text())
    rep = cross_check_oracles(matrix, 10)
    assert rep.passed and not rep.descent_mismatches
    assert rep.numeric_sizes == rep.symbolic_sizes


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_cross_check_on_catalog_systems(entry, oracle_for):
    rep = cross_check_oracles(entry.matrix, 10, oracle_for(entry.name))
    assert rep.passed and rep.descent_mismatches == []


@pytest.mark.parametrize("name,m", [("h3", 5), ("b3", 4), ("triangle-237", 7), ("i2-8", 8)])
def test_wrong_constant_fails_the_cross_check(monkeypatch, name, m):
    # replace 2cos(pi/m) by 1: the cross-check must be able to fail
    cosine = _CosineRing.cosine
    monkeypatch.setattr(_CosineRing, "cosine",
                        lambda self, k: self.reduce([1]) if k == m else cosine(self, k))
    rep = cross_check_oracles(get(name).matrix, 10)
    assert not rep.passed


def test_cross_check_descent_mismatch_is_reported(monkeypatch):
    # one geometric mask flipped after the search: a mismatch, sizes equal
    layers = oracle_module.GeometricOracle.layers

    def flipped(self, horizon):
        out = layers(self, horizon)
        parent, letter, mask = out[1][0]
        out[1][0] = (parent, letter, mask ^ 0b001)
        return out

    monkeypatch.setattr(oracle_module.GeometricOracle, "layers", flipped)
    rep = cross_check_oracles(get("a3").matrix, 6)
    assert rep.symbolic_sizes == rep.numeric_sizes
    assert rep.descent_mismatches == [((0,), 0b001, 0b000)]
    assert not rep.passed


@st.composite
def systems_up_to_rank_3(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    pairs = {(i, j): draw(st.sampled_from([2, 3, 4, 5, 6, 8, 12, INFINITY]))
             for i in range(rank) for j in range(i + 1, rank)}
    return coxeter_matrix(rank, pairs)


@settings(max_examples=25, deadline=None)
@given(systems_up_to_rank_3())
def test_cross_check_on_random_systems(matrix):
    assert cross_check_oracles(matrix, 7).passed
