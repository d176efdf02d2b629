"""Word enumeration: normal forms against braid classes, spheres, cosets; and
the exact Tits-cone oracle with its arithmetic."""

import ast
import itertools
import time
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

from conftest import full_histogram

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
    assert o.word(o.id_of((1, 0, 1))) == (0, 1, 0)
    assert braid_class(o.matrix, ()) == frozenset({()})


def test_braid_class_commutation():
    # a1xa1: 01 and 10 are the same element via the m=2 move
    o = WordOracle(get("a1xa1").matrix)
    assert o.word(o.id_of((1, 0))) == (0, 1)


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
    assert o.descents(o.id_of(())) == 0
    assert o.descents(o.id_of((0,))) == 0b01
    assert o.descents(o.id_of((0, 1))) == 0b10
    assert o.descents(o.id_of((0, 1, 0))) == 0b11


def test_right_multiply_both_directions():
    o = WordOracle(get("a2").matrix)

    def right_multiply(w, s):
        return o.word(o.times(o.id_of(w), s))

    assert right_multiply((0,), 1) == (0, 1)
    assert right_multiply((0, 1), 1) == (0,)
    assert right_multiply((0, 1, 0), 0) == (0, 1)
    # descending from w0 by generator 1: sts -> st... via class member tst
    assert right_multiply((0, 1, 0), 1) == (1, 0)
    assert right_multiply((), 0) == (0,)


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
            o.sphere_ids(k)
    with pytest.raises(ValueError, match="length must be nonnegative"):
        WordOracle(get("a2").matrix).sphere_ids(-1)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_descent_counts_match_per_id_descents(entry, oracle_for):
    o = oracle_for(entry.name)
    for k in range(11):
        assert o.descent_counts(k) == Counter(o.descents(i) for i in o.sphere_ids(k)), k
        assert o.ball_masks(k) == {o.descents(i) for j in range(k + 1)
                                   for i in o.sphere_ids(j)}, k
    longest = GrowthTable(entry.matrix).infos[entry.matrix.full_mask].longest_length
    if longest is not None:
        # past a finite group's longest element every sphere is empty
        assert sum(o.descent_counts(longest).values()) == 1
        for k in (longest + 1, longest + 5):
            assert o.descent_counts(k) == Counter()
            assert o.ball_masks(k) == o.ball_masks(longest)
    for k in (-1, -3):
        with pytest.raises(ValueError, match="length must be nonnegative"):
            o.descent_counts(k)
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            o.ball_masks(k)


def test_full_histogram_h3(oracle_for):
    hist = full_histogram(oracle_for("h3"))
    assert sum(hist) == 120
    assert len(hist) == 16
    assert hist == [1, 3, 5, 7, 9, 11, 12, 12, 12, 12, 11, 9, 7, 5, 3, 1]
    assert hist == hist[::-1]


def test_relabelling_invariance_of_spheres():
    base = coxeter_matrix(3, {(0, 1): 5, (1, 2): 3})
    flip = coxeter_matrix(3, {(0, 1): 3, (1, 2): 5})
    assert WordOracle(base).sphere_sizes(8) == WordOracle(flip).sphere_sizes(8)


def test_canonical_of_non_reduced_word():
    o = WordOracle(get("a2").matrix)
    assert o.id_of((0, 0)) == 0
    assert o.word(o.id_of((1, 0, 1, 1))) == (1, 0)
    assert o.word(o.id_of((0, 1, 1, 0, 1))) == (1,)
    assert o.descents(o.id_of((0, 1, 1, 0, 1))) == 0b10
    with pytest.raises(ValueError, match="out of range"):
        o.id_of((0, 2))
    with pytest.raises(ValueError, match="out of range"):
        o.times(o.id_of((0,)), -1)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_table_against_braid_classes(entry):
    # every element of the ball against the closure of its canonical word
    o = WordOracle(entry.matrix)
    for i in (i for k in range(9) for i in o.sphere_ids(k)):
        w = o.word(i)
        cls = braid_class(entry.matrix, w)
        assert min(cls) == w
        assert all(o.id_of(u) == i for u in cls)
        last = 0
        for u in cls:
            if u:
                last |= 1 << u[-1]
        assert o.descents(i) == last
        for s in range(entry.matrix.rank):
            v = o.word(o.times(i, s))
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
    comp = coset_components(o, 5, 0b011)
    assert len(comp) == sum(o.sphere_sizes(5))
    # cosets of W_{1,2} near the identity: the component of e has all 6 members
    identity_comp = {o.word(i) for i, c in enumerate(comp) if c == comp[0]}
    assert len(identity_comp) == 6
    assert identity_comp == set(o.subgroup_elements(0b011))


def test_coset_components_rejects_a_subset_outside_the_generators(oracle_for):
    for horizon in (0, 1):
        with pytest.raises(ValueError, match="not within the generator set"):
            coset_components(oracle_for("a2"), horizon, 1 << 5)


def test_oracle_of_another_system_is_rejected(oracle_for):
    m, other = get("a3").matrix, oracle_for("a2")
    for call in (lambda: coset_decomposition_check(m, 0b1, 3, other),
                 lambda: cross_check_oracles(m, 3, other)):
        with pytest.raises(ValueError, match="another Coxeter system"):
            call()


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
        assert [o.word(i) for i in o.sphere_ids(k)] == ref.sphere(k)
        for i, w in zip(o.sphere_ids(k), ref.sphere(k)):
            assert o.id_of(w) == i
    # every word of length <= 4, reduced or not
    for n in range(5):
        for word in itertools.product(range(entry.matrix.rank), repeat=n):
            assert o.word(o.id_of(word)) == ref.canonical(word), word


def test_word_oracle_memory_per_element():
    # a descent mask and a rank-wide row per element: no word tuple and no
    # index entry (those came to about 300 bytes per element here)
    tracemalloc.start()
    try:
        o = WordOracle(get("free-product-3").matrix)
        o.sphere_ids(14)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    elements = len(o._descents)
    assert elements == 3 * 2 ** 14 - 2
    assert peak <= 128 * elements, peak / elements


# triangle-237 reaches id 256 at length 13, so it is built to length 20
@pytest.mark.parametrize("name,horizon", [("free-product-3", 12), ("triangle-237", 20)])
def test_each_table_id_is_one_int_object(name, horizon):
    # an id is held by the parent's row, the children's rows and the frontier
    # as one shared int (ints up to 256 are shared by the interpreter anyway)
    o = WordOracle(get(name).matrix)
    o.sphere_sizes(horizon)
    big = [x for x in o._table if x > 256]
    assert big
    assert len({id(x) for x in big}) == len(set(big))


def test_id_accessors():
    o = WordOracle(get("a2").matrix)
    assert o.sphere_ids(0) == range(0, 1)
    assert [o.word(i) for i in o.sphere_ids(2)] == [(0, 1), (1, 0)]
    assert [o.descents(i) for i in o.sphere_ids(2)] == [0b10, 0b01]
    assert o.sphere_ids(4) == range(0)


def test_id_accessors_reject_ids_outside_the_table():
    # a negative id once indexed from the end: word(-1) read (0, 1, 0)
    o = WordOracle(get("a2").matrix)
    o.sphere_ids(3)
    assert o.sphere_sizes(3) == [1, 2, 2, 1]
    assert o.word(5) == (0, 1, 0) and o.descents(5) == 0b11
    for i in (-1, -6, 6, 100):
        with pytest.raises(ValueError, match=f"element id {i} is not in the table"):
            o.word(i)
        with pytest.raises(ValueError, match=f"element id {i} is not in the table"):
            o.descents(i)
        # times(-1, 0) once read the last row of the table and returned 3
        with pytest.raises(ValueError, match=f"element id {i} is not in the table"):
            o.times(i, 0)
    fresh = WordOracle(get("free-product-3").matrix)
    assert fresh.word(0) == () and fresh.descents(0) == 0
    with pytest.raises(ValueError, match="element id 1 is not in the table"):
        fresh.word(1)


# ---------------------------------------------------------------------------
# the sphere kernel against the walk on every ascent
# ---------------------------------------------------------------------------

def _arrays(oracle, horizon):
    """The word oracle's three arrays, with the ball built to the horizon,
    and the last letter of every canonical word (0 for e), from ``word``."""
    oracle.sphere_ids(horizon)
    last = bytes(oracle.word(i)[-1] if i else 0 for i in range(len(oracle._descents)))
    return last, oracle._descents, oracle._table, oracle._starts


def _reference_arrays(matrix, horizon):
    """The same arrays from the walk on every ascent (``_WordTupleOracle``)."""
    ref = _WordTupleOracle(matrix)
    sizes = [len(ref.sphere(k)) for k in range(horizon + 1)]
    if 0 in sizes:
        # a finite group: the table stops after its first empty sphere
        sizes = sizes[:sizes.index(0) + 1]
    starts = [0] + list(itertools.accumulate(sizes))
    last = bytes(w[-1] if w else 0 for w in ref._words)
    return last, ref._descents, ref._table, starts


def _assert_same_tables(matrix, horizon):
    assert _arrays(WordOracle(matrix), horizon) == _reference_arrays(matrix, horizon)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_extend_matches_the_walk_on_catalog_systems(entry):
    _assert_same_tables(entry.matrix, 10)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_extend_matches_the_walk_on_shipped_systems(path):
    _assert_same_tables(parse_coxeter_file(path.read_text()), 10)


@st.composite
def systems_up_to_rank_5(draw, orders=(2, 3, 4, 5, 6, 7, 8, INFINITY)):
    rank = draw(st.integers(min_value=1, max_value=5))
    pairs = {(i, j): draw(st.sampled_from(orders))
             for i in range(rank) for j in range(i + 1, rank)}
    return coxeter_matrix(rank, pairs)


@settings(max_examples=40, deadline=None)
@given(systems_up_to_rank_5())
def test_extend_matches_the_walk_on_random_systems(matrix):
    _assert_same_tables(matrix, 7)


def test_free_ascent_needs_the_commuting_partners():
    # drop the m = 2 walks before the ball is built: an ascent s of w with a
    # commuting descent t counts as free, and v = w*s loses its descent t
    matrix = get("racg-4cycle").matrix
    broken = WordOracle(matrix)
    broken._walks = [[walk for walk in walks if matrix.orders[s][walk[0]] != 2]
                     for s, walks in enumerate(broken._walks)]
    assert broken._walks != WordOracle(matrix)._walks
    assert _arrays(broken, 10) != _reference_arrays(matrix, 10)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_one_plan_per_descent_mask_met(entry):
    oracle = WordOracle(entry.matrix)
    oracle.sphere_ids(10)
    extended = oracle._descents[:oracle._starts[-2]]   # the ids whose ascents were taken
    assert set(oracle._plans) == set(extended)
    rank, orders = oracle.rank, entry.matrix.orders
    for d, plan in oracle._plans.items():
        # the ascents of d, each with the walks of its partners in d
        assert [s for s, *_ in plan] == [s for s in range(rank) if not d >> s & 1]
        for s, _, _, walks in plan:
            assert [t for t, *_ in walks] == [t for t in range(rank) if d >> t & 1
                                              and orders[s][t] is not INFINITY]


# ---------------------------------------------------------------------------
# the outermost sphere counted, not built
# ---------------------------------------------------------------------------

def _assert_counted_spheres_match_built_ones(matrix, horizon):
    # asked for each k in turn, one oracle builds the spheres below k and
    # counts sphere k; a second one builds the whole ball first
    counted, built = WordOracle(matrix), WordOracle(matrix)
    built.sphere_ids(horizon)
    for k in range(horizon + 1):
        sizes, counts, masks = (counted.sphere_sizes(k), counted.descent_counts(k),
                                counted.ball_masks(k))
        # sphere k > 0 was counted, unless an empty sphere below it ended the group
        starts = counted._starts
        assert len(starts) == max(k + 1, 2) or starts[-1] == starts[-2], k
        assert sizes == built.sphere_sizes(k), k
        assert counts == built.descent_counts(k), k
        assert masks == built.ball_masks(k), k


def _longest(matrix):
    return GrowthTable(matrix).infos[matrix.full_mask].longest_length


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_counted_spheres_match_built_ones_on_catalog_systems(entry):
    _assert_counted_spheres_match_built_ones(entry.matrix, 10)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.stem)
def test_counted_spheres_match_built_ones_on_shipped_systems(path):
    _assert_counted_spheres_match_built_ones(parse_coxeter_file(path.read_text()), 10)


@settings(max_examples=40, deadline=None)
@given(systems_up_to_rank_5())
def test_counted_spheres_match_built_ones_on_random_systems(matrix):
    # a finite group is also asked for the two spheres past its end
    longest = _longest(matrix)
    _assert_counted_spheres_match_built_ones(
        matrix, 7 if longest is None else max(7, longest + 2))


def test_count_needs_the_commuting_partners():
    # the spheres below 10 built, then the m = 2 walks dropped: the count of
    # sphere 10 takes an ascent s of w with a commuting descent t as free
    matrix = get("racg-4cycle").matrix
    ref = _WordTupleOracle(matrix)
    ref.sphere(10)
    expected = Counter(ref._descents[ref._starts[10]:ref._starts[11]])
    oracle, broken = WordOracle(matrix), WordOracle(matrix)
    assert oracle.descent_counts(10) == expected
    broken.sphere_ids(9)
    broken._walks = [[walk for walk in walks if matrix.orders[s][walk[0]] != 2]
                     for s, walks in enumerate(broken._walks)]
    broken._plans.clear()
    assert broken.descent_counts(10) != expected


def test_count_is_kept_until_the_oracle_grows():
    o = WordOracle(get("tilde-a2").matrix)
    assert o.sphere_sizes(4) == [1, 3, 6, 9, 12]
    counted = o._counted
    assert o.ball_masks(4) and o._counted is counted
    # the copy a caller gets cannot change the kept count
    o.descent_counts(4).clear()
    assert sum(o.descent_counts(4).values()) == 12
    o.sphere_ids(4)
    assert o._counted is None
    assert o.sphere_sizes(4) == [1, 3, 6, 9, 12] and o._counted is None


@pytest.mark.parametrize("entry", [e for e in ENTRIES if _longest(e.matrix) is not None],
                         ids=lambda e: e.name)
def test_ball_masks_past_a_finite_groups_end(entry):
    # the cost follows the ball, not the horizon: 10**12 lengths are never listed
    longest = _longest(entry.matrix)
    o = WordOracle(entry.matrix)
    start = time.perf_counter()
    assert o.ball_masks(10 ** 12) == WordOracle(entry.matrix).ball_masks(longest)
    assert o.descent_counts(10 ** 12) == Counter()
    assert time.perf_counter() - start < 1


def test_counted_sphere_memory_per_element():
    # half the ball of the free product is its outermost sphere, which is
    # counted: no table row is written for it
    tracemalloc.start()
    try:
        o = WordOracle(get("free-product-3").matrix)
        elements = sum(o.sphere_sizes(14))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elements == 3 * 2 ** 14 - 2
    assert peak <= 48 * elements, peak / elements


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


def test_tits_cone_oracle_does_not_import_the_growth_module():
    # the cross-check must stay independent of the growth computation it checks
    tree = ast.parse(Path(oracle_module.__file__).read_text(encoding="utf-8"))
    imported = []       # dotted module and module.name paths of every import
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
    assert "ratfunc.cyclotomic" in imported
    assert not [name for name in imported if "growth" in name.split(".")]


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


def test_geometric_oracle_rejects_a_negative_horizon():
    # a negative horizon once gave the identity layer alone
    g = oracle_module.GeometricOracle(get("free-product-3").matrix)
    for horizon in (-1, -2):
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            g.layers(horizon)
        with pytest.raises(ValueError, match="horizon must be nonnegative"):
            g.sphere_sizes(horizon)
    assert g.layers(0) == [([-1], [-1], [0])]
    assert g.sphere_sizes(0) == [1]


def test_cross_check_descent_mismatch_is_reported(monkeypatch):
    # one geometric mask flipped after the search: a mismatch, sizes equal
    layers = oracle_module.GeometricOracle.layers

    def flipped(self, horizon):
        out = layers(self, horizon)
        out[1][2][0] ^= 0b001
        return out

    monkeypatch.setattr(oracle_module.GeometricOracle, "layers", flipped)
    rep = cross_check_oracles(get("a3").matrix, 6)
    assert rep.symbolic_sizes == rep.numeric_sizes
    assert rep.descent_mismatches == [((0,), 0b001, 0b000)]
    assert not rep.passed


def test_cross_check_compares_every_layer(monkeypatch):
    # the last geometric mask of every layer flipped, the horizon's included:
    # one mismatch per layer, in layer order, though each layer is first
    # compared as a whole
    layers = oracle_module.GeometricOracle.layers

    def flipped(self, horizon):
        out = layers(self, horizon)
        for _, _, masks in out:
            masks[-1] ^= 0b100
        return out

    monkeypatch.setattr(oracle_module.GeometricOracle, "layers", flipped)
    matrix = get("a3").matrix
    o = WordOracle(matrix)
    rep = cross_check_oracles(matrix, 6, o)
    assert rep.symbolic_sizes == rep.numeric_sizes == [1, 3, 5, 6, 5, 3, 1]
    assert [word for word, _, _ in rep.descent_mismatches] == [
        o.word(o.sphere_ids(k)[-1]) for k in range(7)]
    for word, symbolic, numeric in rep.descent_mismatches:
        assert symbolic == o.descents(o.id_of(word)) == numeric ^ 0b100
    assert not rep.passed


def test_cross_check_reports_a_word_oracle_descent_mismatch():
    # one word-oracle mask flipped after the ball is built: the table-level
    # walk reads it and reports exactly that element
    matrix = get("a3").matrix
    o = WordOracle(matrix)
    assert o.sphere_sizes(6)[1] == 3
    o._descents[1] ^= 0b010
    rep = cross_check_oracles(matrix, 6, o)
    assert rep.symbolic_sizes == rep.numeric_sizes
    assert rep.descent_mismatches == [((0,), 0b011, 0b001)]
    assert not rep.passed


def _step_and_mask_layers(geometric, horizon):
    """The breadth-first search with a separate step and a from-scratch
    descent mask per new element: the reference for the inlined search."""
    n, ring, couplings = geometric.rank, geometric.ring, geometric._couplings

    def step(y, s):
        out = list(y)
        if ring is None:
            v = y[s]
            for t, c in couplings[s]:
                out[t] += c * v
            out[s] = -v
            return tuple(out)
        d = ring.degree
        v = y[s * d:(s + 1) * d]
        for t, c in couplings[s]:
            base = t * d
            if c.__class__ is int:
                for i in range(d):
                    out[base + i] += c * v[i]
            else:
                for i, row in enumerate(c, base):
                    for j, e in row:
                        out[i] += e * v[j]
        out[s * d:(s + 1) * d] = [-x for x in v]
        return tuple(out)

    def mask(y):
        if ring is None:
            return sum(1 << t for t, v in enumerate(y) if v < 0)
        d = ring.degree
        return sum(1 << t for t in range(n)
                   if min(y[t * d:(t + 1) * d]) < 0 and ring.sign(y[t * d:(t + 1) * d]) < 0)

    frontier = [geometric._identity]
    out = [([-1], [-1], [0])]
    for _ in range(horizon):
        parents, letters, masks = [], [], []
        nxt, seen = [], set()
        for p, (y, dy) in enumerate(zip(frontier, out[-1][2])):
            for s in range(n):
                if dy >> s & 1:
                    continue
                child = step(y, s)
                if child not in seen:
                    seen.add(child)
                    nxt.append(child)
                    parents.append(p)
                    letters.append(s)
                    masks.append(mask(child))
        out.append((parents, letters, masks))
        frontier = nxt
        if not masks:
            break
    while len(out) <= horizon:
        out.append(([], [], []))
    return out


@pytest.mark.parametrize("name,horizon,integral", [
    ("free-product-3", 10, True), ("tilde-a2", 12, True), ("racg-4cycle", 10, True),
    ("a3", 8, True), ("h3", 16, False), ("b3", 10, False), ("triangle-237", 14, False),
    ("triangle-244", 12, False), ("i2-8", 10, False),
])
def test_layers_match_the_step_and_mask_search(name, horizon, integral):
    g = oracle_module.GeometricOracle(get(name).matrix)
    assert (g.ring is None) == integral
    assert g.layers(horizon) == _step_and_mask_layers(g, horizon)


# orders up to 6: the Tits-cone search grows steeply with the lcm of the
# orders (d = 192 coordinates for orders 5 to 8 together)
@settings(max_examples=20, deadline=None)
@given(systems_up_to_rank_5(orders=(2, 3, 4, 5, 6, INFINITY)))
def test_layers_match_the_step_and_mask_search_on_random_systems(matrix):
    g = oracle_module.GeometricOracle(matrix)
    assert g.layers(5) == _step_and_mask_layers(g, 5)


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
