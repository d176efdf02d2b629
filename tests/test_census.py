"""Simplex censuses, Euler series, face-length drops, and panel unions."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from coxgrowth import (ENTRIES, WordOracle, census_by_type, classify,
                       enumerate_simplices, euler_series, get,
                       panel_union_euler, spherical_subsets)
from coxgrowth.census import (KINDS, chain_sums, check_face_length_drop,
                              spherical_chains, valid_type_masks)
from test_growth import systems_up_to_rank_5, systems_up_to_rank_6


# ---------------------------------------------------------------------------
# record-level enumeration
# ---------------------------------------------------------------------------

def test_a2_coxeter_full_records():
    m = get("a2").matrix
    records = enumerate_simplices(m, "coxeter")
    # hexagon: 6 chambers (T={}) and 6 vertices (3 cosets each of the two
    # parabolic vertex types)
    assert len(records) == 12
    by_type = {}
    for rec in records:
        by_type.setdefault(rec.type_mask, []).append(rec)
    assert sorted(len(v) for v in by_type.values()) == [3, 3, 6]
    chambers = sorted(rec.length_value for rec in by_type[0])
    assert chambers == [0, 1, 1, 2, 2, 3]
    assert sorted(rec.length_value for rec in by_type[0b01]) == [0, 1, 2]


def test_horizon_zero_counts_identity_faces():
    m = get("tilde-a2").matrix
    records = enumerate_simplices(m, "coxeter", 0)
    # only the identity chamber, which carries every proper face
    assert len(records) == 2 ** 3 - 1
    assert all(rec.rep == () for rec in records)


def test_records_are_deterministic_and_sorted():
    m = get("inf-dihedral").matrix
    records = enumerate_simplices(m, "coxeter", 4)
    assert records == sorted(records, key=lambda r:
                             (r.length_value, r.type_mask, r.chain or (), r.rep))
    assert records == enumerate_simplices(m, "coxeter", 4)


def test_davis_record_shape():
    m = get("inf-dihedral").matrix
    records = enumerate_simplices(m, "davis", 2)
    # chains on spherical subsets {}, {1}, {2}: vertices {},{1},{2} and
    # edges ({},{1}), ({},{2}) per chamber, when the chamber is the coset
    # minimum for the chain's smallest subset
    by_dim = {}
    for rec in records:
        by_dim[rec.dim] = by_dim.get(rec.dim, 0) + 1
    # 5 chambers in the ball: vertices 5 (type {}) + 2+2 (types {1},{2} on
    # coset minima) + edges 2 per chamber counted at coset minima
    assert records
    assert all(rec.chain is not None for rec in records)
    assert all(rec.type_mask == rec.chain[0] for rec in records)


def test_davis_rejects_finite_groups():
    with pytest.raises(ValueError, match="infinite"):
        enumerate_simplices(get("a2").matrix, "davis", 3)


def test_infinite_needs_horizon():
    with pytest.raises(ValueError, match="horizon"):
        enumerate_simplices(get("inf-dihedral").matrix, "coxeter")


def test_spherical_chains_tilde_a2():
    chains = spherical_chains(spherical_subsets(get("tilde-a2").matrix))
    # spherical subsets: {}, 3 singletons, 3 pairs.  Singleton chains: 7.
    # Two-step chains: {}<single (3), {}<pair (3), single<pair (6) = 12.
    # Three-step chains: {}<single<pair = 6.
    assert len([c for c in chains if len(c) == 1]) == 7
    assert len([c for c in chains if len(c) == 2]) == 12
    assert len([c for c in chains if len(c) == 3]) == 6
    assert len(chains) == 25
    for c in chains:
        for a, b in zip(c, c[1:]):
            assert a & b == a and a != b  # strictly increasing inclusions


def _assert_chain_sums_match_chains(matrix):
    spherical = spherical_subsets(matrix)
    listed = {t: [0, 0] for t in spherical}
    for chain in spherical_chains(spherical):
        listed[chain[0]][0] += -1 if (len(chain) - 1) & 1 else 1
        listed[chain[0]][1] += 1
    sums = chain_sums(spherical)
    assert list(sums) == list(spherical)
    assert {t: list(ec) for t, ec in sums.items()} == listed


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.name)
def test_chain_sums_match_listed_chains_on_catalog(entry):
    _assert_chain_sums_match_chains(entry.matrix)


@settings(max_examples=40, deadline=None)
@given(systems_up_to_rank_6())
def test_chain_sums_match_listed_chains_on_random_systems(matrix):
    _assert_chain_sums_match_chains(matrix)


def test_valid_type_masks():
    m = get("inf-dihedral").matrix
    assert valid_type_masks(m, "coxeter") == [0, 1, 2]
    assert valid_type_masks(m, "davis") == [0, 1, 2]
    assert valid_type_masks(m, "tits") == [0, 1, 2]
    mt = get("tilde-a2").matrix
    assert valid_type_masks(mt, "coxeter") == list(range(7))
    assert valid_type_masks(mt, "tits") == list(range(7))
    ma = get("a2").matrix
    assert valid_type_masks(ma, "coxeter") == [0, 1, 2]
    # the full set of a finite group is spherical but still not a tits type
    assert valid_type_masks(ma, "tits") == [0, 1, 2]


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
    m = get("tilde-a2").matrix
    o = oracle_for("tilde-a2")
    for kind in KINDS:
        counts = Counter(r.type_mask for r in enumerate_simplices(m, kind, 4, o))
        slices = census_by_type(m, kind, 4, o)
        assert [tc.type_mask for tc in slices] == valid_type_masks(m, kind)
        assert {tc.type_mask: tc.records for tc in slices} == \
            {t: counts[t] for t in valid_type_masks(m, kind)}


def test_unknown_kind_is_rejected():
    m = get("a2").matrix
    for call in (lambda: valid_type_masks(m, "cubical"),
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
# the class walk against the record walk
# ---------------------------------------------------------------------------

def _kinds(matrix):
    if classify(matrix, matrix.full_mask).finite:
        return ("coxeter", "tits")
    return KINDS


def _record_totals(matrix, kind, horizon, oracle):
    """Per type, the signed slice and the record count summed from
    ``enumerate_simplices`` one record at a time."""
    slices = {t: [0] * (horizon + 1) for t in valid_type_masks(matrix, kind)}
    counts = dict.fromkeys(slices, 0)
    for rec in enumerate_simplices(matrix, kind, horizon, oracle):
        slices[rec.type_mask][rec.length_value] += -1 if rec.dim & 1 else 1
        counts[rec.type_mask] += 1
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
# face-length drops, panel unions, local sums
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
