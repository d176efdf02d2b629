"""Acceptance gate: the ten shipping criteria, one test (and one printed
pass/fail line) per criterion.

Run as ``pytest -v tests/test_acceptance.py`` for one status line per
criterion, or with ``-s`` to see the printed [PASS]/[FAIL] lines directly.
Every expected value here is frozen from an independent source: brute-force
word enumeration, the numeric reflection representation, or hand counts on
small complexes (the A2 hexagon, the infinite-dihedral line).
"""

from coxgrowth import (ENTRIES, classify, coset_decomposition_check,
                       cross_check_oracles, euler_series, get,
                       nerve_coefficients, panel_union_euler,
                       spherical_subsets, verify_identity)
from coxgrowth.census import check_face_length_drop
from coxgrowth.ratfunc import series_expand
from conftest import full_histogram
from test_growth import NerveLink

INFINITE_NAMES = ("inf-dihedral", "tilde-a2", "triangle-244", "triangle-237",
                  "free-product-3", "racg-4cycle")
FINITE_NAMES = ("a1", "a1xa1", "a2", "a3", "b2", "b3", "h3",
                "i2-5", "i2-6", "i2-7", "i2-8")


def report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] acceptance {number}: {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def test_acceptance_01_identity1_infinite_plus_independent(table_for):
    failures = []
    for name in INFINITE_NAMES:
        table = table_for(name)
        rep1 = verify_identity(table, 1)
        if not (rep1.applicable and rep1.holds):
            failures.append(f"{name}: identity 1 does not hold")
        independent = [verify_identity(table, which) for which in (3, 4)]
        if not any(r.holds and not r.by_construction for r in independent):
            failures.append(f"{name}: no independent identity verified")
    report(1, "identity (1) exact on all infinite systems, "
              "with an independent (3)/(4) check", failures)


def test_acceptance_02_identity2_finite_with_bfs_longest(oracle_for, table_for):
    failures = []
    for name in FINITE_NAMES:
        m = get(name).matrix
        rep2 = verify_identity(table_for(name), 2)
        if not (rep2.applicable and rep2.holds):
            failures.append(f"{name}: identity 2 does not hold")
        classifier_m = classify(m, m.full_mask).longest_length
        bfs_m = len(full_histogram(oracle_for(name))) - 1
        if classifier_m != bfs_m:
            failures.append(f"{name}: classifier m={classifier_m}, BFS max={bfs_m}")
    report(2, "identity (2) exact on all finite systems; "
              "classifier m equals BFS longest length", failures)


def test_acceptance_03_identities_3_and_4_all_catalog(table_for):
    failures = []
    for entry in ENTRIES:
        for which in (3, 4):
            rep = verify_identity(table_for(entry.name), which)
            if not rep.applicable:
                continue
            if not rep.holds:
                failures.append(f"{entry.name}: identity {which} fails")
    report(3, "identities (3) and (4) exact wherever applicable", failures)


def test_acceptance_04_series_match_bfs_spheres(oracle_for, table_for):
    failures = []
    for entry in ENTRIES:
        if entry.matrix.rank > 3:
            continue
        series = series_expand(table_for(entry.name).series(), 10)
        spheres = oracle_for(entry.name).sphere_sizes(10)
        if series != spheres:
            failures.append(f"{entry.name}: series {series} vs spheres {spheres}")
    report(4, "series coefficients equal BFS sphere sizes to length 10, "
              "rank <= 3", failures)


def test_acceptance_05_chamber_euler_series_truncation(oracle_for):
    failures = []
    for name in ("tilde-a2", "triangle-244"):
        m = get(name).matrix
        for kind in ("coxeter", "davis"):
            coeffs = euler_series(m, kind, 8, oracle_for(name))
            if coeffs != [1] + [0] * 8:
                failures.append(f"{name}/{kind}: {coeffs}")
    report(5, "coxeter and davis Euler series are [1, 0, ..., 0] "
              "to degree 8 on tilde-a2 and triangle-244", failures)


def test_acceptance_06_finite_coxeter_complex_closed_form(oracle_for):
    failures = []
    for name in ("a2", "a3", "b3"):
        m = get(name).matrix
        info = classify(m, m.full_mask)
        sign = -1 if (m.rank - 1) & 1 else 1
        expected = [1] + [0] * (info.longest_length - 1) + [sign]
        got = euler_series(m, "coxeter", oracle=oracle_for(name))
        if got != expected:
            failures.append(f"{name}: {got} != {expected}")
    report(6, "full finite Coxeter complex census equals "
              "1 + (-1)^(|S|-1) t^m on A2, A3, B3", failures)


def test_acceptance_07_tits_euler_constant(oracle_for):
    failures = []
    for name, rank in (("tilde-a2", 3), ("inf-dihedral", 2)):
        constant = -1 if (rank - 1) & 1 else 1
        got = euler_series(get(name).matrix, "tits", 8, oracle_for(name))
        if got != [constant] + [0] * 8:
            failures.append(f"{name}: {got}")
    report(7, "tits Euler series equals the constant (-1)^(|S|-1) "
              "to degree 8", failures)


def test_acceptance_08_face_length_criterion(oracle_for):
    failures = []
    for name, kind, horizon in (("tilde-a2", "coxeter", 6),
                                ("tilde-a2", "davis", 6),
                                ("a2", "coxeter", None),
                                ("a3", "coxeter", None)):
        rep = check_face_length_drop(get(name).matrix, kind, horizon,
                                     oracle_for(name))
        if not rep.passed:
            failures.append(f"{name}/{kind}: {rep.counterexamples[:2]}")
    report(8, "face length drops exactly when the face type meets the "
              "descent set (tilde-a2 both kinds; full A2/A3)", failures)


def test_acceptance_09_panel_union_euler(oracle_for):
    failures = []
    mt = get("tilde-a2").matrix
    if panel_union_euler(mt, "coxeter", 0) != 0:
        failures.append("empty set (coxeter)")
    if panel_union_euler(mt, "davis", 0) != 0:
        failures.append("empty set (davis)")
    oracle = oracle_for("tilde-a2")
    descent_sets = set()
    for i in (i for k in range(9) for i in oracle.sphere_ids(k)):
        a = oracle.descents(i)
        if a and a != mt.full_mask:
            descent_sets.add(a)
    if not descent_sets:
        failures.append("no nonempty proper descent sets found to length 8")
    for a in sorted(descent_sets):
        for kind in ("coxeter", "davis"):
            value = panel_union_euler(mt, kind, a)
            if value != 1:
                failures.append(f"A={a:#05b} ({kind}): chi = {value}")
    for name in ("a2", "a3", "b3"):
        m = get(name).matrix
        expected = 1 - (-1 if (m.rank - 1) & 1 else 1)
        value = panel_union_euler(m, "coxeter", m.full_mask)
        if value != expected:
            failures.append(f"{name} full set: {value} != {expected}")
    report(9, "panel-union Euler characteristics: 0 for empty A, 1 for "
              "descent-set A, 1-(-1)^(|S|-1) for A=S", failures)


def test_acceptance_10_property_suites(oracle_for):
    failures = []
    # (a) every enumerated descent set is spherical
    for entry in ENTRIES:
        oracle = oracle_for(entry.name)
        for i in (i for k in range(7) for i in oracle.sphere_ids(k)):
            if not classify(entry.matrix, oracle.descents(i)).finite:
                failures.append(f"{entry.name}: non-spherical descents at {oracle.word(i)}")
                break
    # (b) palindromic histograms for every finite system
    for name in FINITE_NAMES:
        hist = full_histogram(oracle_for(name))
        if hist != hist[::-1]:
            failures.append(f"{name}: histogram not palindromic")
    # (c) coset minima are unique, with exact length additivity
    for name in ("a2", "a3", "tilde-a2"):
        m = get(name).matrix
        for subset in spherical_subsets(m):
            if subset in (0, m.full_mask):
                continue
            rep = coset_decomposition_check(m, subset, 8, oracle_for(name))
            if not rep.passed:
                failures.append(f"{name} T={subset}: {rep.violations[:2]}")
    # (d) 1 - chi(link) = (-1)^|T| chi_T on every spherical subset
    for entry in ENTRIES:
        sph = spherical_subsets(entry.matrix)
        for t, chi in nerve_coefficients(entry.matrix).items():
            sign = -1 if t.bit_count() & 1 else 1
            link = NerveLink(t, tuple(u for u in sph if u & t == t and u != t))
            if 1 - link.euler_characteristic() != sign * chi:
                failures.append(f"{entry.name} T={t}: link relation fails")
    # (e) the two oracles agree to length 8
    for entry in ENTRIES:
        rep = cross_check_oracles(entry.matrix, 8, oracle_for(entry.name))
        if not rep.passed:
            failures.append(f"{entry.name}: oracle disagreement")
    report(10, "property suites: spherical descents, palindromes, coset "
               "decomposition, link relation, two-oracle agreement", failures)
