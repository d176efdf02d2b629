"""Simplex censuses, Euler series, face-length drops, and panel unions; the
coset counts are held to an element-level reference walk written here."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from coxgrowth import (ENTRIES, GrowthTable, RatFunc, WordOracle, census, census_by_type,
                       classify, euler_series, get, nerve_coefficients,
                       panel_union_euler, parse_coxeter_file, series_expand,
                       spherical_subsets)
from coxgrowth import ratfunc
from coxgrowth.census import KINDS, _coset_counts, chain_sums, check_face_length_drop
from coxgrowth.ratfunc import poly_gcd
from test_classify import SYSTEMS
from test_growth import (_cycle, _free, _path, _right_angled_cycle, systems_up_to_rank_5,
                         systems_up_to_rank_6)


# ---------------------------------------------------------------------------
# the element-level reference
# ---------------------------------------------------------------------------

def spherical_chains(spherical):
    """All strict chains T0 < T1 < ... < Tk of the given spherical subsets
    (increasing mask order), as mask tuples grouped by T0 in that order."""
    chains_from = {}
    for i in range(len(spherical) - 1, -1, -1):    # a strict superset is a larger mask
        t = spherical[i]
        chains_from[t] = [(t,)] + [(t,) + c for u in spherical[i + 1:] if u & t == t
                                   for c in chains_from[u]]
    return [c for t in spherical for c in chains_from[t]]


def reference_faces(matrix, kind, oracle):
    """Type -> (length shift, the dimension of each of its faces), from the
    definitions: one face of dimension |S| - |T| - 1 per proper T (coxeter)
    or spherical proper T (tits, shifted to the coset's longest element),
    and the listed spherical chains from T (davis)."""
    rank, full = matrix.rank, matrix.full_mask
    spherical = spherical_subsets(matrix)
    if kind == "davis":
        faces = {t: (0, []) for t in spherical}
        for chain in spherical_chains(spherical):
            faces[chain[0]][1].append(len(chain) - 1)
        return faces
    if kind == "coxeter":
        return {t: (0, [rank - t.bit_count() - 1]) for t in range(full)}
    return {t: (len(oracle.subgroup_elements(t)[-1]), [rank - t.bit_count() - 1])
            for t in spherical if t != full}


def reference_records(matrix, kind, horizon, oracle):
    """Every census record as (chamber id, type, dim, length value), chamber
    by chamber: a coset u * W_T is recorded at u when u's descents miss T."""
    faces = reference_faces(matrix, kind, oracle)
    for k in range(horizon + 1):
        for i in oracle.sphere_ids(k):
            for t, (shift, dims) in faces.items():
                if not oracle.descents(i) & t and k + shift <= horizon:
                    yield from ((i, t, dim, k + shift) for dim in dims)


def test_a2_coxeter_full_records():
    # hexagon: 6 chambers (edges, T={}) at lengths [0, 1, 1, 2, 2, 3] and 6
    # vertices (3 cosets each of the two parabolic vertex types)
    slices = census_by_type(get("a2").matrix, "coxeter")
    assert [tc.records for tc in slices] == [6, 3, 3]
    assert slices[0].census == (-1, -2, -2, -1)
    assert slices[1].census == (1, 1, 1, 0)


def test_horizon_zero_counts_identity_faces():
    # only the identity chamber, which carries every proper face
    slices = census_by_type(get("tilde-a2").matrix, "coxeter", 0)
    assert sum(tc.records for tc in slices) == 2 ** 3 - 1
    assert all(tc.records == 1 and len(tc.census) == 1 for tc in slices)


def test_davis_rejects_finite_groups():
    with pytest.raises(ValueError, match="infinite"):
        census_by_type(get("a2").matrix, "davis", 3)


def test_infinite_needs_horizon():
    with pytest.raises(ValueError, match="horizon"):
        euler_series(get("inf-dihedral").matrix, "coxeter")


def test_census_rejects_an_oracle_of_another_system(oracle_for):
    for call in (euler_series, census_by_type, check_face_length_drop):
        with pytest.raises(ValueError, match="another Coxeter system"):
            call(get("a2").matrix, "coxeter", 3, oracle_for("tilde-a2"))


def test_spherical_chains_tilde_a2():
    spherical = spherical_subsets(get("tilde-a2").matrix)
    chains = spherical_chains(spherical)
    # spherical subsets: {}, 3 singletons, 3 pairs.  Singleton chains: 7.
    # Two-step chains: {}<single (3), {}<pair (3), single<pair (6) = 12.
    # Three-step chains: {}<single<pair = 6.
    assert Counter(map(len, chains)) == {1: 7, 2: 12, 3: 6}
    assert sum(c for _, c in chain_sums(spherical).values()) == len(chains) == 25
    for c in chains:
        for a, b in zip(c, c[1:]):
            assert a & b == a and a != b  # strictly increasing inclusions


def _assert_chain_sums_match_chains(matrix):
    faces = reference_faces(matrix, "davis", None)     # the listed chains from each T
    sums = chain_sums(spherical_subsets(matrix))
    assert list(sums) == list(faces)
    assert sums == {t: (sum((-1) ** d for d in dims), len(dims)) for t, (_, dims) in faces.items()}


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_chain_sums_match_listed_chains_on_catalog(entry):
    _assert_chain_sums_match_chains(entry.matrix)


@settings(max_examples=40, deadline=None)
@given(systems_up_to_rank_6())
def test_chain_sums_match_listed_chains_on_random_systems(matrix):
    _assert_chain_sums_match_chains(matrix)


def chain_sums_by_scan(spherical):
    """The recursion of :func:`chain_sums` with each T's strict supersets
    found by scanning the larger masks: O(|Sph|^2), the reference."""
    signed, counts = {}, {}
    for i in range(len(spherical) - 1, -1, -1):    # a strict superset is a larger mask
        t = spherical[i]
        above = [u for u in spherical[i + 1:] if u & t == t]
        signed[t] = 1 - sum(signed[u] for u in above)
        counts[t] = 1 + sum(counts[u] for u in above)
    return {t: (signed[t], counts[t]) for t in spherical}


def _assert_chain_sums_match_scan(matrix):
    spherical = spherical_subsets(matrix)
    assert list(chain_sums(spherical).items()) == list(chain_sums_by_scan(spherical).items())


@pytest.mark.parametrize("path", sorted(SYSTEMS.glob("*.cox")), ids=lambda p: p.stem)
def test_chain_sums_match_scan_on_shipped_systems(path):
    _assert_chain_sums_match_scan(parse_coxeter_file(path.read_text()))


@pytest.mark.parametrize("family", [_path, _cycle, _right_angled_cycle, _free],
                         ids=lambda f: f.__name__.strip("_"))
def test_chain_sums_match_scan_on_families_to_rank_ten(family):
    for n in range(3 if family in (_cycle, _right_angled_cycle) else 1, 11):
        _assert_chain_sums_match_scan(family(n))


def test_chain_sums_rank_zero():
    assert chain_sums((0,)) == {0: (1, 1)}


def test_valid_type_masks():
    def types(m, kind):
        return [tc.type_mask for tc in census_by_type(m, kind, 0)]

    m = get("inf-dihedral").matrix
    assert types(m, "coxeter") == [0, 1, 2]
    assert types(m, "davis") == [0, 1, 2]
    assert types(m, "tits") == [0, 1, 2]
    mt = get("tilde-a2").matrix
    assert types(mt, "coxeter") == list(range(7))
    assert types(mt, "tits") == list(range(7))
    ma = get("a2").matrix
    assert types(ma, "coxeter") == [0, 1, 2]
    # the full set of a finite group is spherical but still not a tits type
    assert types(ma, "tits") == [0, 1, 2]


# ---------------------------------------------------------------------------
# Euler series
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,expected", [
    ("a2", [1, 0, 0, -1]),
    ("a3", [1, 0, 0, 0, 0, 0, 1]),
    ("b3", [1, 0, 0, 0, 0, 0, 0, 0, 0, 1]),
])
def test_finite_coxeter_euler_series(name, expected):
    assert euler_series(get(name).matrix, "coxeter") == expected


@pytest.mark.parametrize("name", ["inf-dihedral", "tilde-a2", "triangle-244",
                                  "triangle-237", "free-product-3", "racg-4cycle"])
@pytest.mark.parametrize("kind", ["coxeter", "davis"])
def test_infinite_euler_series_is_one(name, kind, oracle_for):
    coeffs = euler_series(get(name).matrix, kind, 6, oracle_for(name))
    assert coeffs == [1] + [0] * 6


@pytest.mark.parametrize("name,constant", [
    ("inf-dihedral", -1),   # rank 2
    ("tilde-a2", 1),        # rank 3
    ("triangle-237", 1),
    ("racg-4cycle", -1),    # rank 4
])
def test_tits_euler_series_constant(name, constant, oracle_for):
    coeffs = euler_series(get(name).matrix, "tits", 6, oracle_for(name))
    assert coeffs == [constant] + [0] * 6


def test_by_type_census_matches_closed_forms(oracle_for):
    for name, horizon in (("inf-dihedral", 8), ("tilde-a2", 6),
                          ("triangle-244", 6), ("a3", None), ("b3", None)):
        m = get(name).matrix
        kinds = ("coxeter", "davis", "tits") if horizon is not None else ("coxeter", "tits")
        for kind in kinds:
            for tc in census_by_type(m, kind, horizon, oracle_for(name)):
                assert tc.matches, (name, kind, tc.type_mask, tc.census, tc.closed_series)


def test_census_by_type_counts_records_per_type(oracle_for):
    m, o = get("tilde-a2").matrix, oracle_for("tilde-a2")
    for kind in KINDS:     # at horizon 4 every type has a record
        counts = Counter(t for _, t, _, _ in reference_records(m, kind, 4, o))
        assert {tc.type_mask: tc.records for tc in census_by_type(m, kind, 4, o)} == counts


def test_unknown_kind_is_rejected():
    m = get("a2").matrix
    for call in (lambda: [tc.type_mask for tc in census_by_type(m, "cubical", 0)],
                 lambda: euler_series(m, "cubical"),
                 lambda: census_by_type(m, "cubical")):
        with pytest.raises(ValueError, match="kind must be one of"):
            call()


def test_euler_series_prefix_stability(oracle_for):
    # lengthening the horizon must not change earlier coefficients
    m = get("triangle-244").matrix
    o = oracle_for("triangle-244")
    short = euler_series(m, "coxeter", 4, o)
    longer = euler_series(m, "coxeter", 7, o)
    assert longer[:5] == short


# ---------------------------------------------------------------------------
# the coset counts against the record walk
# ---------------------------------------------------------------------------

def _kinds(matrix):
    if classify(matrix, matrix.full_mask).finite:
        return ("coxeter", "tits")
    return KINDS


def _record_totals(matrix, kind, horizon, oracle):
    """Per type, in the reference's type order, the signed slice and the
    record count summed from :func:`reference_records` one record at a time."""
    slices = {t: [0] * (horizon + 1) for t in reference_faces(matrix, kind, oracle)}
    counts = dict.fromkeys(slices, 0)
    for _, t, dim, length in reference_records(matrix, kind, horizon, oracle):
        slices[t][length] += -1 if dim & 1 else 1
        counts[t] += 1
    return slices, counts


def _assert_classes_match_records(matrix, kind, horizon, oracle):
    got = census_by_type(matrix, kind, horizon, oracle)
    if horizon is None:
        horizon = len(got[0].census) - 1
    slices, counts = _record_totals(matrix, kind, horizon, oracle)
    assert [tc.type_mask for tc in got] == list(slices)
    for tc in got:
        assert list(tc.census) == slices[tc.type_mask], (kind, horizon, tc.type_mask)
        assert tc.records == counts[tc.type_mask], (kind, horizon, tc.type_mask)
    total = [sum(column) for column in zip(*slices.values())]
    assert euler_series(matrix, kind, horizon, oracle) == total


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_census_by_type_matches_record_walk_on_catalog(entry, oracle_for):
    m = entry.matrix
    horizons = (0, 1, 5) + ((None,) if classify(m, m.full_mask).finite else ())
    for kind in _kinds(m):
        for horizon in horizons:
            _assert_classes_match_records(m, kind, horizon, oracle_for(entry.name))


@settings(max_examples=30, deadline=None)
@given(systems_up_to_rank_5().filter(lambda m: m.rank <= 4),
       st.integers(min_value=0, max_value=4))
def test_census_by_type_matches_record_walk_on_random_systems(matrix, horizon):
    oracle = WordOracle(matrix)
    for kind in _kinds(matrix):
        _assert_classes_match_records(matrix, kind, horizon, oracle)


def _assert_closed_forms_as_before(matrix, oracle):
    # the reference: each closed form as one general fraction with its own gcd
    table, chis = GrowthTable(matrix), nerve_coefficients(matrix)
    w = table.series()
    for kind in _kinds(matrix):
        for tc in census_by_type(matrix, kind, 2, oracle):
            t, size = tc.type_mask, tc.type_mask.bit_count()
            wt = table.series(t)
            coeff = chis[t] * (-1) ** size if kind == "davis" else (-1) ** (matrix.rank - size - 1)
            shift = wt.num.degree if kind == "tits" else 0
            old = RatFunc((coeff * w.num * wt.den).shifted(shift), w.den * wt.num)
            assert (tc.closed_form.num, tc.closed_form.den) == (old.num, old.den), (kind, t)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_closed_forms_as_before_on_catalog(entry, oracle_for):
    _assert_closed_forms_as_before(entry.matrix, oracle_for(entry.name))


@settings(max_examples=30, deadline=None)
@given(systems_up_to_rank_5())
def test_closed_forms_as_before_on_random_systems(matrix):
    _assert_closed_forms_as_before(matrix, WordOracle(matrix))


@pytest.mark.parametrize(
    "matrix", [_path(n) for n in range(1, 9)] + [_cycle(n) for n in range(3, 9)],
    ids=[f"a{n}" for n in range(1, 9)] + [f"cycle3-{n}" for n in range(3, 9)])
def test_closed_forms_as_before_on_paths_and_cycles(matrix):
    # every W / W_T of a spherical T comes from trial division by Solomon's factors
    _assert_closed_forms_as_before(matrix, WordOracle(matrix))


def test_census_by_type_takes_no_gcd_on_a_finite_group(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(ratfunc, "poly_gcd", counted)
    for kind in ("coxeter", "tits"):
        assert all(tc.matches for tc in census_by_type(get("h3").matrix, kind))
    assert calls == []


def _reference_coset_counts(matrix, horizon, oracle, types):
    return {t: [sum(1 for i in oracle.sphere_ids(k) if not oracle.descents(i) & t)
                for k in range(horizon + 1)] for t in types}


def _assert_coset_counts_match_elements(matrix, horizon, oracle):
    # at horizon 0 the ball is one chamber, so its digits are one bit wide
    for h in (0, horizon):
        for types in (range(matrix.full_mask + 1), spherical_subsets(matrix)):
            counts = _coset_counts(matrix, h, oracle, types)
            assert list(counts) == list(types)
            assert counts == _reference_coset_counts(matrix, h, oracle, types)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_coset_counts_match_elements_on_catalog(entry, oracle_for):
    _assert_coset_counts_match_elements(entry.matrix, 5, oracle_for(entry.name))


@settings(max_examples=30, deadline=None)
@given(systems_up_to_rank_5())
def test_coset_counts_match_elements_on_random_systems(matrix):
    _assert_coset_counts_match_elements(matrix, 5, WordOracle(matrix))


def test_series_expand_runs_once_per_subgroup_series(monkeypatch):
    # a3's seven proper subsets have four distinct W_T: 1, [2], [2]^2, [2][3]
    calls = []

    def counting(r, n):
        calls.append(r)
        return series_expand(r, n)

    monkeypatch.setattr(census, "series_expand", counting)
    slices = census_by_type(get("a3").matrix, "coxeter")
    assert len(slices) == 7 and all(tc.matches for tc in slices)
    assert len(calls) == 4


def test_types_of_one_subgroup_series_and_coefficient_share_their_closed_form():
    # a3 coxeter: {1}, {2}, {3} share ([2], -1) and {1,2}, {2,3} share ([2][3], 1)
    slices = census_by_type(get("a3").matrix, "coxeter")
    for a in slices:
        for b in slices:
            assert (a.closed_form is b.closed_form) == (a.closed_form == b.closed_form)
            assert (a.closed_series is b.closed_series) == (a.closed_form == b.closed_form)
    assert len({id(tc.closed_form) for tc in slices}) == 4


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_closed_series_expands_the_closed_form_on_catalog(entry, oracle_for):
    m = entry.matrix
    horizon = None if classify(m, m.full_mask).finite else 5
    for kind in _kinds(m):
        for tc in census_by_type(m, kind, horizon, oracle_for(entry.name)):
            assert series_expand(tc.closed_form, len(tc.census) - 1) == list(tc.closed_series)


def test_census_counters_read_no_element(monkeypatch):
    # the counters see the ball only through its (length, descent mask)
    # classes: no per-element descent set and no word
    m = get("tilde-a2").matrix
    oracle = WordOracle(m)
    expected = {}
    for kind in KINDS:
        slices, counts = _record_totals(m, kind, 5, oracle)
        expected[kind] = ([(t, tuple(c), counts[t]) for t, c in slices.items()],
                          [sum(column) for column in zip(*slices.values())])

    def refuse(self, *args):
        raise AssertionError("the census read a single element")

    monkeypatch.setattr(WordOracle, "descents", refuse)
    monkeypatch.setattr(WordOracle, "word", refuse)
    for kind in KINDS:
        per_type, total = expected[kind]
        for o in (oracle, WordOracle(m)):
            got = census_by_type(m, kind, 5, o)
            assert [(tc.type_mask, tc.census, tc.records) for tc in got] == per_type
            assert all(tc.matches for tc in got)
            assert euler_series(m, kind, 5, o) == total
    assert expected["coxeter"][1] == expected["davis"][1] == [1, 0, 0, 0, 0, 0]


# ---------------------------------------------------------------------------
# face-length drops and panel unions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,kind,horizon", [
    ("tilde-a2", "coxeter", 6),
    ("tilde-a2", "davis", 6),
    ("a2", "coxeter", None),
    ("a3", "coxeter", None),
    ("racg-4cycle", "davis", 5),
])
def test_face_length_drop(name, kind, horizon, oracle_for):
    rep = check_face_length_drop(get(name).matrix, kind, horizon, oracle_for(name))
    assert rep.passed, rep.counterexamples[:3]
    assert rep.simplices_checked > 0


def _assert_face_weights_as_before(matrix, oracle):
    # panel unions and face counts against the listed faces of the reference
    infos, spherical = classify(matrix, matrix.full_mask), spherical_subsets(matrix)
    for kind in ("coxeter",) if infos.finite else ("coxeter", "davis"):
        faces = reference_faces(matrix, kind, oracle)
        for subset in range(matrix.full_mask + 1) if kind == "coxeter" else spherical:
            assert panel_union_euler(matrix, kind, subset) == sum(
                (-1) ** dim for t, (_, dims) in faces.items() if t & subset for dim in dims)
        rep = check_face_length_drop(matrix, kind, 2, oracle)
        assert rep.passed, rep.counterexamples[:3]
        assert rep.simplices_checked == \
            rep.chambers_checked * sum(len(dims) for _, dims in faces.values())


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_face_weights_as_before_on_catalog(entry, oracle_for):
    _assert_face_weights_as_before(entry.matrix, oracle_for(entry.name))


@settings(max_examples=30, deadline=None)
@given(systems_up_to_rank_5())
def test_face_weights_as_before_on_random_systems(matrix):
    _assert_face_weights_as_before(matrix, WordOracle(matrix))


def test_face_length_rejects_tits():
    with pytest.raises(ValueError, match="coxeter.*davis"):
        check_face_length_drop(get("a2").matrix, "tits")


def test_panel_union_empty_set_is_zero():
    for name in ("a2", "a3", "tilde-a2"):
        assert panel_union_euler(get(name).matrix, "coxeter", 0) == 0
    assert panel_union_euler(get("tilde-a2").matrix, "davis", 0) == 0


def test_panel_union_proper_nonempty_is_one(oracle_for):
    m = get("tilde-a2").matrix
    o = oracle_for("tilde-a2")
    seen = set()
    for i in (i for k in range(9) for i in o.sphere_ids(k)):
        a = o.descents(i)
        if a and a != m.full_mask:
            seen.add(a)
    assert seen  # singletons and pairs both occur
    for a in seen:
        assert panel_union_euler(m, "coxeter", a) == 1, a
        assert panel_union_euler(m, "davis", a) == 1, a


@pytest.mark.parametrize("name,value", [
    ("a2", 2),   # rank 2: 1 - (-1)^1
    ("a3", 0),   # rank 3
    ("b3", 0),
    ("b2", 2),
])
def test_panel_union_full_set(name, value):
    m = get(name).matrix
    assert panel_union_euler(m, "coxeter", m.full_mask) == value


def test_davis_panel_union_needs_spherical_subset():
    m = get("inf-dihedral").matrix
    with pytest.raises(ValueError, match="spherical"):
        panel_union_euler(m, "davis", m.full_mask)
