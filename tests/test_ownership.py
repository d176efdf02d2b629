"""Ownership of derived objects: nothing outlives the call that built it.

A system's classification, growth table, nerve coefficients and chains
belong to one call.  Each public entry point classifies its system once,
builds at most one growth table and passes both down; the package keeps no
cache, so nothing it built stays alive after it returns.  A census entry
point checks its request before it builds any of them, so a refused request
builds no table, runs no ``classify_all`` and counts no chain.
"""

import gc
import re
import sys
import weakref
from pathlib import Path

import pytest

from coxgrowth import (GrowthTable, census, census_by_type, coxeter_matrix, euler_series, get,
                       growth, growth_series, panel_union_euler, serialize_coxeter,
                       verify_identities)
from coxgrowth.census import KINDS, check_face_length_drop
from coxgrowth.classify import classify_all
from coxgrowth.cli import main

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "coxgrowth"


def _path(n):
    return coxeter_matrix(n, {(i, i + 1): 3 for i in range(n - 1)})


@pytest.fixture
def tables_built(monkeypatch):
    """A weak reference to every GrowthTable built while the test runs."""
    refs = []
    init = GrowthTable.__init__

    def counting(self, matrix):
        refs.append(weakref.ref(self))
        init(self, matrix)

    monkeypatch.setattr(GrowthTable, "__init__", counting)
    return refs


@pytest.fixture
def classify_all_calls(monkeypatch):
    """The matrices of every classify_all call, wherever the package calls it from."""
    calls = []
    original = classify_all

    def counting(matrix):
        calls.append(matrix)
        return original(matrix)

    for name, module in list(sys.modules.items()):
        if name == "coxgrowth" or name.startswith("coxgrowth."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def test_no_table_outlives_its_call(tables_built, capsys):
    calls = [
        lambda: verify_identities(_path(5)),
        lambda: growth_series(get("tilde-a2").matrix),
        lambda: census_by_type(get("racg-4cycle").matrix, "tits", 4),
        lambda: main(["catalog", "--self-test"]),
    ]
    for call in calls:
        before = len(tables_built)
        call()
        assert len(tables_built) > before
    capsys.readouterr()
    gc.collect()
    assert [ref for ref in tables_built if ref() is not None] == []


def test_verify_identities_builds_one_table_from_one_classification(tables_built,
                                                                    classify_all_calls):
    reports = verify_identities(_path(6))
    assert [r.holds for r in reports] == [None, True, True, True]
    assert len(tables_built) == 1
    assert len(classify_all_calls) == 1


@pytest.mark.parametrize("kind", KINDS)
def test_census_by_type_builds_one_table_from_one_classification(kind, tables_built,
                                                                 classify_all_calls):
    slices = census_by_type(get("tilde-a2").matrix, kind, 4)
    assert all(tc.matches for tc in slices)
    assert len(tables_built) == 1
    assert len(classify_all_calls) == 1


@pytest.fixture
def no_chain_sums(monkeypatch):
    """Fail the test at any call of census.chain_sums."""
    def refuse(spherical):
        raise AssertionError("chain_sums ran")

    monkeypatch.setattr(census, "chain_sums", refuse)


ENTRY_POINTS = {   # name -> (call(matrix, kind, horizon), whether it takes a horizon)
    "census_by_type": (census_by_type, True),
    "euler_series": (euler_series, True),
    "check_face_length_drop": (check_face_length_drop, True),
    "panel_union_euler": (lambda m, kind, horizon: panel_union_euler(m, kind, 0b1), False),
}
REFUSED = [        # (request, matrix, kind, horizon, error)
    ("davis-on-A6", _path(6), "davis", 3, "only defined for infinite groups"),
    ("unknown-kind", get("tilde-a2").matrix, "cubical", 3, "kind must be one of"),
    ("negative-horizon", get("tilde-a2").matrix, "davis", -1, "horizon must be nonnegative"),
]


@pytest.mark.parametrize("entry,case", [
    pytest.param(entry, case, id=f"{entry}-{case[0]}")
    for entry, (_, takes_horizon) in ENTRY_POINTS.items()
    for case in REFUSED if takes_horizon or case[3] >= 0])
def test_a_refused_request_does_no_census_work(entry, case, tables_built,
                                               classify_all_calls, no_chain_sums):
    call = ENTRY_POINTS[entry][0]
    _, matrix, kind, horizon, error = case
    with pytest.raises(ValueError, match=error):
        call(matrix, kind, horizon)
    assert tables_built == []
    assert classify_all_calls == []


def test_an_unknown_kind_is_reported_before_a_horizon_error(tables_built, classify_all_calls,
                                                            no_chain_sums):
    m = get("tilde-a2").matrix
    for call, _ in ENTRY_POINTS.values():
        with pytest.raises(ValueError, match="kind must be one of"):
            call(m, "cubical", -1)
    for call in (check_face_length_drop, ENTRY_POINTS["panel_union_euler"][0]):
        with pytest.raises(ValueError, match="kind must be one of.*coxeter.*davis"):
            call(m, "tits", -1)
    assert tables_built == []
    assert classify_all_calls == []


@pytest.mark.parametrize("call", [
    lambda m: panel_union_euler(m, "coxeter", 0b011) == 1,
    lambda m: len(euler_series(m, "coxeter", 3)) == 4,
    lambda m: check_face_length_drop(m, "coxeter", 3).passed,
], ids=["panel_union_euler", "euler_series", "check_face_length_drop"])
def test_coxeter_panel_union_classifies_nothing(call, classify_all_calls):
    # the coxeter weights read no classification, so no coxeter request runs
    # classify_all
    assert call(get("tilde-a2").matrix)
    assert classify_all_calls == []


@pytest.mark.parametrize("call", [
    lambda m: len(euler_series(m, "tits", 3)) == 4,
    lambda m: len(euler_series(m, "davis", 3)) == 4,
    lambda m: check_face_length_drop(m, "davis", 3).passed,
    lambda m: panel_union_euler(m, "davis", 0b011) == 1,
], ids=["euler_series-tits", "euler_series-davis", "check_face_length_drop-davis",
        "panel_union_euler-davis"])
def test_tits_and_davis_requests_classify_once(call, classify_all_calls):
    assert call(get("tilde-a2").matrix)
    assert len(classify_all_calls) == 1


@pytest.mark.parametrize("matrix", [_path(6), get("h3").matrix], ids=["A6", "h3"])
def test_quotients_build_no_cyclotomic_polynomial(matrix, monkeypatch):
    # the table's own factors of L serve every finite W / W_T
    calls = []
    original = growth.cyclotomic

    def counting(k):
        calls.append(k)
        return original(k)

    monkeypatch.setattr(growth, "cyclotomic", counting)
    table = GrowthTable(matrix)
    assert calls
    calls.clear()
    for t in range(1 << matrix.rank):
        table.quotient(t)
    assert calls == []


def test_chi_classifies_once_not_per_subset(tmp_path, classify_all_calls, capsys):
    system = tmp_path / "a8.cox"
    system.write_text(serialize_coxeter(_path(8)), encoding="utf-8")
    assert main(["chi", str(system), "--json"]) == 0
    capsys.readouterr()
    assert len(classify_all_calls) == 1


def test_package_has_no_function_cache():
    pattern = re.compile(r"\blru_cache\b|\bfunctools\.cache\b|from functools import[^\n]*\bcache\b")
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    for source in sources:
        text = source.read_text(encoding="utf-8")
        assert not pattern.search(text), source.name
