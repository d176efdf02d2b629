"""Growth tables, nerve coefficients, and the four alternating-sum identities."""

import time
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from coxgrowth import (ENTRIES, INFINITY, InvariantViolation, WordOracle,
                       classify, get, growth_series, nerve_coefficients,
                       spherical_subsets, verify_identities, verify_identity)
from coxgrowth import growth
from coxgrowth.coxeter import coxeter_matrix
from coxgrowth.classify import classify_all
from coxgrowth.growth import GrowthTable
from coxgrowth.ratfunc import (Poly, RatFunc, cyclotomic, format_ratfunc, series_expand,
                               substitute_inverse)

INFINITE = [e.name for e in ENTRIES
            if not classify(e.matrix, e.matrix.full_mask).finite]
FINITE = [e.name for e in ENTRIES if e.name not in INFINITE]


def test_table_subset_entries(table_for):
    table = table_for("tilde-a2")
    assert format_ratfunc(table.series(0)) == "(1) / (1)"
    assert format_ratfunc(table.series(0b001)) == "(1 + t) / (1)"
    assert format_ratfunc(table.series(0b011)) == "(1 + 2*t + 2*t^2 + t^3) / (1)"
    assert format_ratfunc(table.series()) == "(1 + t + t^2) / (1 - 2*t + t^2)"


def test_finite_series_is_palindromic_polynomial(table_for):
    for name in FINITE:
        table = table_for(name)
        info = classify(table.matrix, table.matrix.full_mask)
        series = table.series()
        assert series.den == Poly((1,)), name
        coeffs = series.num.coeffs
        assert coeffs == tuple(reversed(coeffs)), name
        assert len(coeffs) - 1 == info.longest_length
        assert sum(coeffs) == info.order


def test_infinite_series_examples(table_for):
    assert format_ratfunc(table_for("inf-dihedral").series()) == "(1 + t) / (1 - t)"
    assert format_ratfunc(table_for("free-product-3").series()) == "(1 + t) / (1 - 2*t)"
    assert format_ratfunc(table_for("racg-4cycle").series()) == \
        "(1 + 2*t + t^2) / (1 - 2*t + t^2)"


def test_growth_series_convenience():
    m = get("b2").matrix
    assert growth_series(m) == growth_series(m, m.full_mask)
    assert growth_series(m, 0) == RatFunc(Poly((1,)), Poly((1,)))


def test_construction_order_is_irrelevant():
    # the same system built from scratch twice, and via a relabelling
    base = coxeter_matrix(3, {(0, 1): 4, (1, 2): 4})
    flip = coxeter_matrix(3, {(0, 1): 4, (1, 2): 4})
    assert GrowthTable(base).series() == GrowthTable(flip).series()
    relabel = coxeter_matrix(3, {(0, 2): 4, (1, 2): 4})
    assert GrowthTable(base).series() == GrowthTable(relabel).series()


# ---------------------------------------------------------------------------
# nerve coefficients and links
# ---------------------------------------------------------------------------

def test_nerve_coefficient_examples():
    chis = nerve_coefficients(get("inf-dihedral").matrix)
    # spherical supersets of {}: {}, {1}, {2}  ->  1 - 1 - 1 = -1
    assert chis[0] == -1
    assert chis[0b01] == -1  # supersets: {1} alone
    chis = nerve_coefficients(get("tilde-a2").matrix)
    assert chis[0] == 1  # 1 - 3 + 3
    assert chis[0b001] == 1  # -1 + 2, sign (-1)^1 applied... direct sum
    chis = nerve_coefficients(get("a2").matrix)
    assert chis[0b11] == 1
    assert chis[0] == 0  # finite group: chi of a simplex pair
    assert 0b11 not in nerve_coefficients(get("inf-dihedral").matrix)   # not spherical


def _nerve_coefficient_by_definition(spherical, subset):
    # the definitional sum over spherical supersets, O(|Sph|) per subset
    return sum(-1 if u.bit_count() & 1 else 1
               for u in spherical if u & subset == subset)


def _assert_nerve_coefficients_match(matrix):
    chis = nerve_coefficients(matrix)
    spherical = spherical_subsets(matrix)
    assert list(chis) == list(spherical)
    for t, chi in chis.items():
        assert chi == _nerve_coefficient_by_definition(spherical, t), (matrix, t)


def test_nerve_coefficients_match_definition_on_catalog():
    for entry in ENTRIES:
        _assert_nerve_coefficients_match(entry.matrix)


@st.composite
def systems_up_to_rank_6(draw):
    rank = draw(st.integers(min_value=1, max_value=6))
    pairs = {(i, j): draw(st.sampled_from([2, 2, 3, 3, 4, 5, 6, INFINITY]))
             for i in range(rank) for j in range(i + 1, rank)}
    return coxeter_matrix(rank, pairs)


@settings(max_examples=40, deadline=None)
@given(systems_up_to_rank_6())
def test_nerve_coefficients_match_definition_on_random_systems(matrix):
    _assert_nerve_coefficients_match(matrix)


@dataclass(frozen=True)
class NerveLink:
    """Link of a spherical simplex in the nerve: all strictly larger spherical
    subsets, with its Euler characteristic summed over those simplices.  The
    reference for the chain sums that ``coxgrowth chi`` reports."""

    base: int
    simplices: tuple   # spherical supersets U > base; dimension |U| - |base| - 1

    def euler_characteristic(self) -> int:
        base_size = self.base.bit_count()
        return sum(-1 if (u.bit_count() - base_size - 1) & 1 else 1
                   for u in self.simplices)


def nerve_link(spherical, subset):
    """The link of a spherical subset: its strict supersets among ``spherical``."""
    return NerveLink(subset, tuple(u for u in spherical
                                   if u & subset == subset and u != subset))


def test_nerve_link_euler():
    sph = spherical_subsets(get("tilde-a2").matrix)
    # link of {} is the full nerve: a 6-cycle (3 vertices + 3 edges... a circle)
    link = nerve_link(sph, 0)
    assert link.euler_characteristic() == 0
    # link of a vertex in the circle: two points
    assert nerve_link(sph, 0b001).euler_characteristic() == 2
    # link of an edge is empty
    assert nerve_link(sph, 0b011).euler_characteristic() == 0
    assert nerve_link(sph, 0b011).simplices == ()


def test_link_euler_relation_all_catalog():
    for entry in ENTRIES:
        chis = nerve_coefficients(entry.matrix)
        for t, chi in chis.items():
            link = nerve_link(tuple(chis), t)
            sign = -1 if t.bit_count() & 1 else 1
            assert 1 - link.euler_characteristic() == sign * chi, (entry.name, t)


# ---------------------------------------------------------------------------
# identities
# ---------------------------------------------------------------------------

def test_identity_reports_infinite(table_for):
    for name in INFINITE:
        reports = verify_identities(get(name).matrix)
        by_id = {r.identity: r for r in reports}
        assert by_id[1].applicable and by_id[1].holds and by_id[1].by_construction
        assert not by_id[2].applicable
        assert by_id[3].applicable and by_id[3].holds and not by_id[3].by_construction
        assert by_id[4].applicable and by_id[4].holds and not by_id[4].by_construction


def test_identity_reports_finite():
    for name in FINITE:
        reports = verify_identities(get(name).matrix)
        by_id = {r.identity: r for r in reports}
        assert not by_id[1].applicable
        assert by_id[2].applicable and by_id[2].holds and by_id[2].by_construction
        assert by_id[3].applicable and by_id[3].holds
        assert by_id[4].applicable and by_id[4].holds


def test_identity_values_infinite_dihedral(table_for):
    table = table_for("inf-dihedral")
    rep = verify_identity(table, 3)
    assert rep.lhs == RatFunc(Poly((1, -1)), Poly((1, 1)))
    rep4 = verify_identity(table, 4)
    # 1/W(1/t) = (t-1)/(t+1): differs from 1/W(t) by sign
    assert rep4.lhs == RatFunc(Poly((-1, 1)), Poly((1, 1)))
    assert rep4.lhs == -rep.lhs


def test_identity_two_matches_longest_length(table_for):
    m = get("h3").matrix
    rep = verify_identity(table_for("h3"), 2)
    # rhs = t^15 / W(t)
    assert rep.rhs == RatFunc.t_power(15) / growth_series(m)


def test_identity_describe_strings():
    m = get("a2").matrix
    descriptions = [r.describe() for r in verify_identities(m)]
    assert descriptions[0] == "identity 1: not applicable (the group is finite)"
    assert descriptions[1].startswith("identity 2: holds (by construction)")
    assert descriptions[2].startswith("identity 3: holds")


def test_identity_finite_palindromicity_connection(table_for):
    # for finite W both sides of (4) equal t^m / W(t); check the reversal
    for name in ("a3", "b3", "i2-7"):
        table = table_for(name)
        w = table.series()
        m = classify(table.matrix, table.matrix.full_mask).longest_length
        assert substitute_inverse(w) == w / RatFunc.t_power(m)


def _q(d):
    """The t-integer [d]_t = 1 + t + ... + t^(d-1)."""
    return Poly((1,) * d)


def _solomon(degrees):
    out = Poly((1,))
    for d in degrees:
        out = out * _q(d)
    return RatFunc(out)


def _path(n):
    return coxeter_matrix(n, {(i, i + 1): 3 for i in range(n - 1)})


def _cycle(n):
    return coxeter_matrix(n, {(i, (i + 1) % n): 3 for i in range(n)})


# finite types beyond the shipped catalog, for the Solomon-product check
E8 = coxeter_matrix(8, {(0, 1): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3, (4, 5): 3,
                        (5, 6): 3, (2, 7): 3})
EXTRA_FINITE = [_path(6), coxeter_matrix(5, {(0, 1): 3, (1, 2): 3, (2, 3): 4}),
                coxeter_matrix(5, {(0, 2): 3, (1, 2): 3, (2, 3): 3, (3, 4): 3}),
                coxeter_matrix(4, {(0, 1): 3, (1, 2): 4, (2, 3): 3}),
                coxeter_matrix(4, {(0, 1): 5, (1, 2): 3, (2, 3): 3}), E8]


def _assert_table_matches_solomon(matrix):
    """Every spherical entry is prod [d_i]_t over the classifier's degrees:
    independent of the construction, which never sets an entry from them."""
    table = GrowthTable(matrix)
    for t in spherical_subsets(matrix):
        assert table.series(t) == _solomon(classify(matrix, t).degrees), (matrix, t)


def test_table_matches_solomon_product():
    for matrix in [e.matrix for e in ENTRIES] + EXTRA_FINITE:
        _assert_table_matches_solomon(matrix)


def test_rank_ten_identities():
    for matrix in (_path(10), _cycle(10)):
        reports = verify_identities(matrix)
        assert all(r.holds for r in reports if r.applicable)
        assert sum(r.applicable for r in reports) == 3
    assert growth_series(_path(10)) == _solomon(range(2, 12))


def _seed_table(matrix):
    """The all-pairs RatFunc recursion the table replaced, kept as a reference."""
    series, inverse = {0: RatFunc(1)}, {0: RatFunc(1)}
    for subset in sorted(range(1, 1 << matrix.rank), key=lambda T: (T.bit_count(), T)):
        info = classify(matrix, subset)
        acc = RatFunc(0)
        for sub in range(subset):               # a proper subset is a smaller mask
            if sub & subset == sub:
                acc = acc + (-1) ** sub.bit_count() * inverse[sub]
        size = subset.bit_count()
        if info.finite:
            w = RatFunc(Poly.t_power(info.longest_length) - (-1) ** size) / acc
        else:
            w = ((-1) ** (size + 1) * acc).reciprocal()
        series[subset], inverse[subset] = w, w.reciprocal()
    return series


def _assert_matches_seed(matrix):
    # at the default packing width and at one byte per coefficient, where
    # most tables outgrow their digits and must be rebuilt wider
    seed = _seed_table(matrix)
    for width in (growth._DIGIT_BYTES, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(growth, "_DIGIT_BYTES", width)
            table = GrowthTable(matrix)
        for subset, w in seed.items():
            assert table.series(subset) == w, (matrix, width, subset)


def test_table_matches_seed_recursion_on_catalog():
    for entry in ENTRIES:
        _assert_matches_seed(entry.matrix)


@st.composite
def systems_up_to_rank_5(draw):
    rank = draw(st.integers(min_value=1, max_value=5))
    pairs = {(i, j): draw(st.sampled_from([2, 2, 3, 3, 4, 5, 6, INFINITY]))
             for i in range(rank) for j in range(i + 1, rank)}
    return coxeter_matrix(rank, pairs)


@settings(max_examples=40, deadline=None)
@given(systems_up_to_rank_5())
def test_table_matches_seed_recursion_on_random_systems(matrix):
    _assert_matches_seed(matrix)


@settings(max_examples=40, deadline=None)
@given(systems_up_to_rank_5())
def test_table_matches_solomon_product_on_random_systems(matrix):
    _assert_table_matches_solomon(matrix)


def _divides(a, b):
    try:
        b.exact_div(a)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("name", ["a3", "b3", "h3", "i2-7", "tilde-a2",
                                  "triangle-237", "racg-4cycle"])
def test_denominator_missing_a_factor_is_caught(monkeypatch, name):
    # any cyclotomic factor of L taken away leaves some finite entry whose
    # numerator is not a polynomial: the table must raise, not return a series
    matrix = get(name).matrix
    full = growth._common_denominator
    denominator = full(growth._cyclotomic_factors(
        {classify(matrix, t).degrees for t in spherical_subsets(matrix)}))
    factors = [k for k in range(2, 31)
               if _divides(cyclotomic(k), denominator)]
    assert factors
    for k in factors:
        monkeypatch.setattr(growth, "_common_denominator",
                            lambda factors, k=k: full(factors).exact_div(cyclotomic(k)))
        with pytest.raises(InvariantViolation):
            GrowthTable(matrix)


def test_invariant_violation_message():
    # verify InvariantViolation carries context when raised; build a healthy
    # table and confirm no violation is raised for every catalog system
    for entry in ENTRIES:
        GrowthTable(entry.matrix)  # must not raise
    assert issubclass(InvariantViolation, RuntimeError)


# ---------------------------------------------------------------------------
# packed numerators: width safety
# ---------------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(-(2 ** 140), 2 ** 140), min_size=1, max_size=8),
       st.integers(min_value=1, max_value=17))
def test_packing_round_trip_and_bound_check(coeffs, width):
    # widths of one to four limbs of every size (8 and 16 bytes are the
    # table's), and odd widths decoded byte by byte
    packing = growth._Packing(len(coeffs), width)
    bound = max(map(abs, coeffs))
    if bound >= packing.half:
        with pytest.raises(growth._Overflow, match=f"bound {bound} "):
            packing.pack(coeffs)
        return
    value, packed_bound = packing.pack(coeffs)
    assert packed_bound == bound
    assert packing.unpack(value, bound) == coeffs
    assert (value == 0) == (not any(coeffs))
    with pytest.raises(growth._Overflow, match=f"bound {packing.half} "):
        packing.unpack(value, packing.half)


def _assert_width_independent(matrix):
    """A table packed one byte per coefficient (rebuilt wider wherever a bound
    outgrows that) has the same entries, bounds and identity reports."""
    wide = GrowthTable(matrix)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(growth, "_DIGIT_BYTES", 1)
        narrow = GrowthTable(matrix)
    assert max(narrow._bounds) < narrow._packing.half
    assert narrow._bounds == wide._bounds, matrix
    for t in range(1 << matrix.rank):
        assert narrow._numerator(t) == wide._numerator(t), (matrix, t)
        assert narrow.series(t) == wide.series(t), (matrix, t)
    for k in (1, 2, 3, 4):
        assert verify_identity(narrow, k) == verify_identity(wide, k), (matrix, k)
    return narrow


def test_narrow_packing_gives_identical_tables_on_catalog():
    matrices = [e.matrix for e in ENTRIES] + EXTRA_FINITE
    widths = {_assert_width_independent(m)._packing.width for m in matrices}
    assert widths != {1}    # some table was rebuilt wider


@settings(max_examples=40, deadline=None)
@given(systems_up_to_rank_6())
def test_narrow_packing_gives_identical_tables_on_random_systems(matrix):
    _assert_width_independent(matrix)


def _h_path(n):
    # a path of 3s but for a 5 on its first edge: H_3 and H_4 at ranks 3 and 4
    return coxeter_matrix(n, {(0, 1): 5, **{(i, i + 1): 3 for i in range(1, n - 1)}})


@pytest.mark.parametrize("matrix", [_h_path(growth._LEAF_BITS), _path(growth._LEAF_BITS + 1)],
                         ids=["leaf-rank", "leaf-rank+1"])
def test_narrow_rebuild_inside_leaf_blocks(matrix):
    # one leaf block, then two: at one byte per coefficient both outgrow
    # their digits inside a leaf, and the rebuilt table is the seed's
    _assert_matches_seed(matrix)
    assert _assert_width_independent(matrix)._packing.width > 1


@pytest.mark.parametrize("rank", range(growth._LEAF_BITS - 1, growth._LEAF_BITS + 4))
def test_block_calls_stop_at_leaf_blocks(monkeypatch, rank):
    # blocks of 2^K masks are solved flat, so a rank-n build makes
    # 2^(n - K + 1) - 1 block calls (one below rank K), not 2^(n + 1) - 1
    calls = []
    block = GrowthTable._block

    def counting(self, base, k, *args):
        calls.append(k)
        return block(self, base, k, *args)

    monkeypatch.setattr(GrowthTable, "_block", counting)
    table = GrowthTable(_path(rank))
    assert table._packing.width == growth._DIGIT_BYTES     # built once
    leaf = growth._LEAF_BITS
    assert len(calls) == ((1 << (rank - leaf + 1)) - 1 if rank >= leaf else 1)
    assert min(calls) == min(rank, leaf)


def test_one_division_per_distinct_numerator(monkeypatch):
    # all 2^10 subsets of A_10 are finite, of far fewer types; one division
    # (acc, then L / N_T) per type besides the empty one, and one W_T object
    # per type, which the build's division memo does not outlive
    divisions = []
    divide = GrowthTable._divide

    def counting(self, *args):
        divisions.append(args)
        return divide(self, *args)

    monkeypatch.setattr(GrowthTable, "_divide", counting)
    matrix = _path(10)
    table = GrowthTable(matrix)
    types = {info.degrees for info in classify_all(matrix)[0]}
    assert len(divisions) == len(types) - 1 == 55
    assert len({id(table.series(t)) for t in range(1 << 10)}) == len(types) == 56
    assert not hasattr(table, "_checked")


# ---------------------------------------------------------------------------
# packed divisions: a zero remainder proves the polynomial identity only
# under the digit bounds
# ---------------------------------------------------------------------------

def _a2_table():
    # L = (1 + t)(1 + t + t^2) = W, so the full set's N_T is 1; m = 3, sign +1
    table = GrowthTable(get("a2").matrix)
    return table, 1 << (8 * table._packing.width)


def test_divide_accepts_the_true_entry():
    table, base = _a2_table()
    assert table._divide(base ** 3 - 1, 3, 1, 0b11) == (1, 1, table.series())


def test_divide_rejects_quotient_digits_outside_the_bound():
    # an exact integer multiple of B^m - sign, but 2 max|N| reaches half
    table, base = _a2_table()
    big = table._packing.half // 2
    with pytest.raises(growth._Overflow):
        table._divide(big * (base ** 2 - 1), 2, 1, 0b11)


def test_divide_rejects_series_digits_outside_the_bound():
    # L(B) = N(B) W(B) exactly, but ||N||_1 max|W| reaches half, so the
    # digits of N W need not be those of L: N = 1 + t, W = (half / 2) t^2
    table, base = _a2_table()
    numerator, series = 1 + base, table._packing.half // 2 * base ** 2
    table._signed[0] = numerator * series
    with pytest.raises(growth._Overflow):
        table._divide(numerator * (base ** 2 - 1), 2, 1, 0b11)


def test_divide_rejects_a_sum_not_divisible_by_the_binomial():
    # 1 + t^2 is not divisible by t - 1
    table, base = _a2_table()
    with pytest.raises(InvariantViolation):
        table._divide(1 + base ** 2, 1, 1, 0b11)


def test_divide_rejects_a_quotient_that_does_not_divide_the_denominator():
    # N = 2 passes the bound, but L(B) is odd, so 2 does not divide it
    table, base = _a2_table()
    assert table._signed[0] % 2
    with pytest.raises(InvariantViolation):
        table._divide(2 * (base ** 2 - 1), 2, 1, 0b11)


def test_divide_rejects_a_series_of_the_wrong_degree():
    # N = 1 divides L, but W = L has degree 3, not m = 2
    table, base = _a2_table()
    with pytest.raises(InvariantViolation):
        table._divide(base ** 2 - 1, 2, 1, 0b11)


def _assert_quotients(matrix):
    """Every quotient is the gcd-reduced W / W_T, one object per distinct W_T."""
    table = GrowthTable(matrix)
    w, shared = table.series(), {}
    for t in range(1 << matrix.rank):
        wt, quotient = table.series(t), table.quotient(t)
        assert quotient == RatFunc(w.num * wt.den, w.den * wt.num), (matrix, t)
        assert shared.setdefault(wt, quotient) is quotient, (matrix, t)


def test_quotients_match_gcd_reduction_on_catalog():
    for matrix in [e.matrix for e in ENTRIES] + EXTRA_FINITE:
        _assert_quotients(matrix)


@settings(max_examples=40, deadline=None)
@given(systems_up_to_rank_5())
def test_quotients_match_gcd_reduction_on_random_systems(matrix):
    _assert_quotients(matrix)


# ---------------------------------------------------------------------------
# gcd-free canonical forms against the gcd path
# ---------------------------------------------------------------------------

def _inverse_by_gcd(num, den):
    """(num / den)(1/t) with powers of t cleared, reduced by the gcd path."""
    num, den = num.reversed(), den.reversed()
    if den.degree >= num.degree:
        num = num.shifted(den.degree - num.degree)
    else:
        den = den.shifted(num.degree - den.degree)
    return RatFunc(num, den)


def test_gcd_free_forms_match_gcd_path_on_catalog():
    for entry in ENTRIES:
        matrix = entry.matrix
        table = GrowthTable(matrix)
        L = table.denominator
        full = matrix.full_mask
        signed = {t: table._numerator(t) * (-1) ** t.bit_count() for t in range(full + 1)}
        for t in signed:
            assert table.series(t) == RatFunc(L, table._numerator(t)), (entry.name, t)
        reciprocal = RatFunc(table._numerator(full), L)
        everything = RatFunc(sum(signed.values(), Poly()), L)
        m = classify(matrix, full).longest_length
        by_gcd = {
            1: lambda: (everything, RatFunc(0)),
            2: lambda: (everything, RatFunc(table._numerator(full).shifted(m), L)),
            3: lambda: (RatFunc(sum((signed[t] * chi for t, chi in
                                     nerve_coefficients(matrix).items()), Poly()), L),
                        reciprocal),
            4: lambda: (RatFunc(sum((signed[t] for t in spherical_subsets(matrix)), Poly()), L),
                        _inverse_by_gcd(table._numerator(full), L)),
        }
        for rep in (verify_identity(table, k) for k in (1, 2, 3, 4)):
            if rep.applicable:
                assert (rep.lhs, rep.rhs) == by_gcd[rep.identity](), (entry.name, rep.identity)


# ---------------------------------------------------------------------------
# the rank cap: rank 16 and large dihedral orders
# ---------------------------------------------------------------------------

def _free(n):
    return coxeter_matrix(n, {(i, j): INFINITY for i in range(n) for j in range(i + 1, n)})


def _right_angled_cycle(n):
    cycle = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    return coxeter_matrix(n, {(i, j): INFINITY for i in range(n) for j in range(i + 1, n)
                              if (i, j) not in cycle})


def test_rank_sixteen_identities():
    for matrix in (_free(16), _right_angled_cycle(16)):
        reports = verify_identities(matrix)
        assert all(r.holds for r in reports if r.applicable)
        assert sum(r.applicable for r in reports) == 3
    assert growth_series(_free(16)) == RatFunc(Poly((1, 1)), Poly((1, -15)))


def test_rank_twelve_series_is_solomon_product():
    assert growth_series(_path(12)) == _solomon(range(2, 14))


def test_large_dihedral_verifies_within_a_second():
    matrix = coxeter_matrix(2, {(0, 1): 4000})
    start = time.perf_counter()
    reports = verify_identities(matrix)
    elapsed = time.perf_counter() - start
    assert [r.holds for r in reports] == [None, True, True, True]
    series = growth_series(matrix)
    assert (series.num, series.den) == (_q(2) * _q(4000), Poly((1,)))
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# randomized systems against the brute-force oracle
# ---------------------------------------------------------------------------

@st.composite
def small_systems(draw):
    rank = draw(st.integers(min_value=1, max_value=3))
    pairs = {}
    for i in range(rank):
        for j in range(i + 1, rank):
            pairs[(i, j)] = draw(st.sampled_from([2, 2, 3, 3, 4, 5, INFINITY]))
    return coxeter_matrix(rank, pairs)


@settings(max_examples=40, deadline=None)
@given(small_systems())
def test_growth_series_matches_word_enumeration(matrix):
    series = series_expand(GrowthTable(matrix).series(), 7)
    assert WordOracle(matrix).sphere_sizes(7) == series


@settings(max_examples=25, deadline=None)
@given(small_systems())
def test_identities_hold_on_random_systems(matrix):
    for rep in verify_identities(matrix):
        assert not rep.applicable or rep.holds, rep.describe()
