"""Finite-type recognition, checked against independent enumeration.

The catalog stores one datum per family, its degrees.  The positive-root
counts and orders derived from them are checked against the classical
closed forms, and verified two ways: exhaustive exact word enumeration, and
the numeric reflection representation.  Every finite type of order up to
10^5 (A1-A7, B2-B6, D4-D6, E6, F4, H3, H4, I2(m)) is enumerated exactly,
and those beyond A4, B4 and D4 numerically as well.  E7/E8 orders are
asserted against the standard values only; see the README for this trust
boundary.
"""

import importlib
import itertools
import random
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from coxgrowth import (ENTRIES, GeometricOracle, GrowthTable, WordOracle, classify,
                       get, parse_coxeter_file, spherical_subsets)
from coxgrowth.classify import ComponentType, classify_all, degrees_of
from coxgrowth.coxeter import INFINITY, bits_of, coxeter_matrix, mask_of
from coxgrowth.ratfunc import series_expand

from conftest import full_histogram


def path(n, labels=None):
    """Coxeter matrix of a path diagram on n nodes with the given edge labels."""
    labels = labels or [3] * (n - 1)
    return coxeter_matrix(n, {(i, i + 1): labels[i] for i in range(n - 1)})


E6 = coxeter_matrix(6, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (2, 5): 3})
E7 = coxeter_matrix(7, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3, (2, 6): 3})
E8 = coxeter_matrix(8, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3,
                        (5, 6): 3, (2, 7): 3})
F4 = path(4, [3, 4, 3])
H4 = path(4, [5, 3, 3])
D5 = coxeter_matrix(5, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3})


@pytest.mark.parametrize("matrix,order,longest", [
    (path(1), 2, 1),
    (path(2), 6, 3),
    (path(3), 24, 6),
    (path(4), 120, 10),
    (path(2, [4]), 8, 4),
    (path(3, [3, 4]), 48, 9),
    (path(4, [3, 3, 4]), 384, 16),
    (path(3, [5, 3]), 120, 15),
    (coxeter_matrix(4, {(0, 2): 3, (1, 2): 3, (2, 3): 3}), 192, 12),
    (D5, 1920, 20),
    (F4, 1152, 24),
    (H4, 14400, 60),
    (E6, 51840, 36),
    (E7, 2903040, 63),
    (E8, 696729600, 120),
    (path(2, [7]), 14, 7),
])
def test_recognizes_finite_types(matrix, order, longest):
    info = classify(matrix, matrix.full_mask)
    assert info.finite
    assert info.order == order
    assert info.longest_length == longest


def _component(label, rank, parameter=0):
    return ComponentType(label, rank, parameter, degrees_of(label, rank, parameter))


@pytest.mark.parametrize("n", range(1, 17))
def test_degrees_give_classical_counts(n):
    # the closed forms the catalog carried before it stored degrees
    a, b, d = _component("A", n), _component("B", n), _component("D", n)
    assert (a.positive_roots, a.order) == (n * (n + 1) // 2, factorial(n + 1))
    assert (b.positive_roots, b.order) == (n * n, 2 ** n * factorial(n))
    assert (d.positive_roots, d.order) == (n * (n - 1), 2 ** (n - 1) * factorial(n))


@pytest.mark.parametrize("label,roots,order", [
    ("E6", 36, 51840), ("E7", 63, 2903040), ("E8", 120, 696729600),
    ("F4", 24, 1152), ("H3", 15, 120), ("H4", 60, 14400),
])
def test_exceptional_degrees_give_classical_counts(label, roots, order):
    c = _component(label, int(label[1]))
    assert (c.positive_roots, c.order) == (roots, order)
    assert len(c.degrees) == c.rank


def test_dihedral_degrees():
    for m in range(2, 13):
        c = _component("I2", 2, m)
        assert (c.positive_roots, c.order) == (m, 2 * m)


def test_reducible_degrees_are_merged():
    # A2 x B2 x A1: degrees {2, 3} + {2, 4} + {2}
    m = coxeter_matrix(5, {(0, 1): 3, (2, 3): 4})
    assert classify(m, m.full_mask).degrees == (2, 2, 2, 3, 4)
    assert classify(m, 0).degrees == ()
    assert classify(get("tilde-a2").matrix, 0b111).degrees is None


@pytest.mark.parametrize("matrix", [
    coxeter_matrix(2, {(0, 1): INFINITY}),
    path(3, [3, 6]),                                       # affine G2
    coxeter_matrix(3, {(0, 1): 3, (0, 2): 3, (1, 2): 3}),  # affine A2
    coxeter_matrix(4, {(0, 2): INFINITY, (1, 3): INFINITY}),
    path(5, [4, 3, 3, 4]),                                 # affine C4
    coxeter_matrix(9, {(i, i + 1): 3 for i in range(8)} | {(2, 8): 3}),  # affine E8
])
def test_recognizes_infinite_types(matrix):
    assert not classify(matrix, matrix.full_mask).finite


def test_relabelling_invariance():
    # D4 with the branch node placed at different indices
    for centre in range(4):
        others = [i for i in range(4) if i != centre]
        m = coxeter_matrix(4, {(min(centre, o), max(centre, o)): 3 for o in others})
        info = classify(m, m.full_mask)
        assert info.finite and info.order == 192


def test_reducible_product():
    # A2 x B2 x A1
    m = coxeter_matrix(5, {(0, 1): 3, (2, 3): 4})
    info = classify(m, m.full_mask)
    assert info.finite
    assert info.order == 6 * 8 * 2
    assert info.longest_length == 3 + 4 + 1
    assert sorted(c.label for c in info.components) == ["A", "A", "B"]


def test_subset_classification():
    m = get("tilde-a2").matrix
    assert not classify(m, m.full_mask).finite
    for sub in (0b011, 0b101, 0b110):
        info = classify(m, sub)
        assert info.finite and info.order == 6
    assert classify(m, 0).finite
    assert classify(m, 0).order == 1


def test_spherical_subsets_examples():
    m = get("tilde-a2").matrix
    assert spherical_subsets(m) == (0, 1, 2, 3, 4, 5, 6)
    m = get("inf-dihedral").matrix
    assert spherical_subsets(m) == (0, 1, 2)
    m = get("a2").matrix
    assert spherical_subsets(m) == (0, 1, 2, 3)
    assert classify(m, 3).finite


def test_spherical_subsets_downward_closed():
    for name in ("triangle-237", "racg-4cycle", "b3"):
        m = get(name).matrix
        sph = set(spherical_subsets(m))
        for t in sph:
            sub = t
            while True:
                assert sub in sph
                if sub == 0:
                    break
                sub = (sub - 1) & t


# ---------------------------------------------------------------------------
# the shape rules against written-out diagrams, matched by vertex permutation
# ---------------------------------------------------------------------------

# every connected finite type of rank <= 5 with labels in {3, 4, 5, 6}, as
# (label, dihedral parameter, edges)
REFERENCE = {
    1: [("A", 0, [])],
    2: [("A", 0, [(0, 1, 3)]), ("B", 0, [(0, 1, 4)]),
        ("I2", 5, [(0, 1, 5)]), ("I2", 6, [(0, 1, 6)])],
    3: [("A", 0, [(0, 1, 3), (1, 2, 3)]),
        ("B", 0, [(0, 1, 4), (1, 2, 3)]),
        ("H3", 0, [(0, 1, 5), (1, 2, 3)])],
    4: [("A", 0, [(0, 1, 3), (1, 2, 3), (2, 3, 3)]),
        ("B", 0, [(0, 1, 4), (1, 2, 3), (2, 3, 3)]),
        ("D", 0, [(0, 1, 3), (1, 2, 3), (1, 3, 3)]),
        ("F4", 0, [(0, 1, 3), (1, 2, 4), (2, 3, 3)]),
        ("H4", 0, [(0, 1, 5), (1, 2, 3), (2, 3, 3)])],
    5: [("A", 0, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3)]),
        ("B", 0, [(0, 1, 4), (1, 2, 3), (2, 3, 3), (3, 4, 3)]),
        ("D", 0, [(0, 1, 3), (1, 2, 3), (2, 3, 3), (2, 4, 3)])],
}


def _labelled_trees(n, labels):
    """Every labelled tree on the vertices 0..n-1 (from Pruefer sequences),
    with every labelling of its edges, as a frozenset of (a, b, label)."""
    for code in itertools.product(range(n), repeat=max(n - 2, 0)):
        degree = [1] * n
        for v in code:
            degree[v] += 1
        edges = []
        for v in code:
            leaf = degree.index(1)
            edges.append((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
        if n >= 2:
            a, b = [v for v in range(n) if degree[v] == 1]
            edges.append((a, b))
        for ms in itertools.product(labels, repeat=len(edges)):
            yield frozenset((a, b, m) for (a, b), m in zip(edges, ms))


def _images(n, edges):
    """The edge sets of every vertex permutation of a diagram."""
    return {frozenset((min(p[a], p[b]), max(p[a], p[b]), m) for a, b, m in edges)
            for p in itertools.permutations(range(n))}


def _found(matrix):
    info = classify(matrix, matrix.full_mask)
    if not info.finite:
        return None
    (component,) = info.components
    return component.label, component.parameter


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_trees_match_the_written_out_catalog(n):
    expected = {}
    for label, parameter, edges in REFERENCE[n]:
        for image in _images(n, edges):
            expected[image] = (label, parameter)
    trees = 0
    for tree in _labelled_trees(n, (3, 4, 5, 6)):
        matrix = coxeter_matrix(n, {(a, b): m for a, b, m in tree})
        assert _found(matrix) == expected.get(tree), sorted(tree)
        trees += 1
    assert trees == n ** max(n - 2, 0) * 4 ** (n - 1)


def _chain(labels):
    return [(i, i + 1, m) for i, m in enumerate(labels)]


def _star(*arms):
    """Every label 3: arms of the given numbers of nodes around node 0."""
    edges, nxt = [], 1
    for length in arms:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt, 3))
            prev, nxt = nxt, nxt + 1
    return edges


@pytest.mark.parametrize("name,edges,expected", [
    ("E6", _star(1, 2, 2), "E6"),
    ("E7", _star(1, 2, 3), "E7"),
    ("E8", _star(1, 2, 4), "E8"),
    ("D8", _star(1, 1, 5), "D"),
    ("affine E6", _star(2, 2, 2), None),
    ("affine E7", _star(1, 3, 3), None),
    ("affine E8", _star(1, 2, 5), None),
    ("affine D4", _star(1, 1, 1, 1), None),
    ("affine D5", [(0, 2, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)], None),
    ("affine D7", [(0, 2, 3), (1, 2, 3), (2, 3, 3), (3, 4, 3), (4, 5, 3), (5, 6, 3),
                   (5, 7, 3)], None),
    ("affine B3", [(0, 1, 4), (1, 2, 3), (1, 3, 3)], None),
    ("affine B5", [(0, 1, 4), (1, 2, 3), (2, 3, 3), (3, 4, 3), (3, 5, 3)], None),
    ("a 5 in a D4", [(0, 1, 5), (1, 2, 3), (1, 3, 3)], None),
    ("affine C3", _chain([4, 3, 4]), None),
    ("affine C5", _chain([4, 3, 3, 3, 4]), None),
    ("affine F4", _chain([3, 3, 4, 3]), None),
    ("affine G2", _chain([6, 3]), None),
    ("5 inside a path", _chain([3, 5, 3]), None),
    ("5 inside a longer path", _chain([3, 3, 5, 3]), None),
    ("(5, 3, 3, 3)", _chain([5, 3, 3, 3]), None),
    ("4 and 5", _chain([4, 3, 5]), None),
    ("two 4s", _chain([4, 4]), None),
    ("B7", _chain([4] + [3] * 5), "B"),
    ("A9", _chain([3] * 8), "A"),
])
def test_exceptional_types_and_near_misses_under_relabelling(name, edges, expected):
    n = 1 + max(max(a, b) for a, b, _ in edges)
    rng = random.Random(name)
    for _ in range(20):
        p = list(range(n))
        rng.shuffle(p)
        matrix = coxeter_matrix(n, {(min(p[a], p[b]), max(p[a], p[b])): m
                                    for a, b, m in edges})
        found = _found(matrix)
        assert (found and found[0]) == expected, (name, p)


# ---------------------------------------------------------------------------
# the incremental pass over all masks against the single-mask reference
# ---------------------------------------------------------------------------

SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
classify_module = importlib.import_module("coxgrowth.classify")


def _assert_pass_matches_classify(matrix):
    infos, spherical = classify_all(matrix)
    assert len(infos) == 1 << matrix.rank
    for t, info in enumerate(infos):
        assert info == classify(matrix, t), (matrix, t)
    assert spherical == tuple(t for t, info in enumerate(infos) if info.finite)


def test_classify_all_matches_classify_on_catalog_and_shipped_systems():
    for entry in ENTRIES:
        _assert_pass_matches_classify(entry.matrix)
    for path in sorted(SYSTEMS.glob("*.cox")):
        _assert_pass_matches_classify(parse_coxeter_file(path.read_text()))


@st.composite
def systems_up_to_rank_7(draw):
    rank = draw(st.integers(min_value=1, max_value=7))
    pairs = {(i, j): draw(st.sampled_from([2, 2, 2, 3, 3, 4, 5, 6, INFINITY]))
             for i in range(rank) for j in range(i + 1, rank)}
    return coxeter_matrix(rank, pairs)


@settings(max_examples=60, deadline=None)
@given(systems_up_to_rank_7())
def test_classify_all_matches_classify_on_random_systems(matrix):
    _assert_pass_matches_classify(matrix)


@pytest.mark.parametrize("matrix,connected", [
    (path(10), 55),                                         # the intervals of A_10
    (coxeter_matrix(10, {(i, j): INFINITY for i in range(10) for j in range(i + 1, 10)}),
     55),                                                   # free: points and pairs
])
def test_classify_all_matches_each_connected_subset_once(monkeypatch, matrix, connected):
    calls = []

    def counting(matrix, comp):
        calls.append(comp)
        return match(matrix, comp)

    match = classify_module._match_component
    monkeypatch.setattr(classify_module, "_match_component", counting)
    classify_all(matrix)
    assert len(calls) == len(set(calls)) == connected


@pytest.mark.parametrize("n,types", [(10, 56), (16, 297)])
def test_classify_all_shares_one_info_per_type(n, types):
    # A_n's subsets are all finite, of far fewer types: each type is one object
    infos, _ = classify_all(path(n))
    assert len({id(info) for info in infos}) == len(set(infos)) == types


@settings(max_examples=40, deadline=None)
@given(systems_up_to_rank_7(), st.randoms(use_true_random=False))
def test_classify_is_unchanged_by_relabelling_generators(matrix, rng):
    n = matrix.rank
    p = list(range(n))
    rng.shuffle(p)
    relabelled = coxeter_matrix(n, {(min(p[i], p[j]), max(p[i], p[j])): matrix.orders[i][j]
                                    for i in range(n) for j in range(i + 1, n)})
    for t in range(1 << n):
        image = mask_of(p[i] for i in bits_of(t))
        assert classify(relabelled, image) == classify(matrix, t), (matrix, p, t)


# ---------------------------------------------------------------------------
# catalog values against independent enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("matrix", [
    path(1), path(2), path(3), path(4),
    path(2, [4]), path(3, [3, 4]), path(4, [3, 3, 4]),
    coxeter_matrix(4, {(0, 2): 3, (1, 2): 3, (2, 3): 3}),
    path(3, [5, 3]),
    path(2, [5]), path(2, [6]), path(2, [12]),
    path(5), path(6), path(7),                              # A5, A6, A7
    path(5, [3, 3, 3, 4]), path(6, [3, 3, 3, 3, 4]),        # B5, B6
    D5,
    coxeter_matrix(6, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3}),
    F4, H4, E6,
])
def test_orders_against_word_enumeration(matrix):
    info = classify(matrix, matrix.full_mask)
    hist = full_histogram(WordOracle(matrix))
    assert sum(hist) == info.order
    assert len(hist) - 1 == info.longest_length
    assert hist == series_expand(GrowthTable(matrix).series(), info.longest_length)


# the larger finite types of order <= 10^5 once more, through the floating-
# point reflection representation: a second element-level enumeration that
# shares no code with the word oracle above
@pytest.mark.parametrize("matrix", [
    path(5), path(6), path(7),                              # A5, A6, A7
    path(5, [3, 3, 3, 4]), path(6, [3, 3, 3, 3, 4]),        # B5, B6
    D5,
    coxeter_matrix(6, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3}),
    F4, H4, E6,
])
def test_orders_against_numeric_enumeration(matrix):
    info = classify(matrix, matrix.full_mask)
    sizes = GeometricOracle(matrix).sphere_sizes(info.longest_length)
    assert sum(sizes) == info.order
    assert sizes == series_expand(GrowthTable(matrix).series(), info.longest_length)
