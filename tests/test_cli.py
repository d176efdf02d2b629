"""CLI behaviour: output text, exit codes, and the JSON report schema."""

import argparse
import calendar
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

import coxgrowth
from coxgrowth import (ENTRIES, WordOracle, cli, coxeter_matrix, euler_series, format_ratfunc,
                       get, serialize_coxeter)
from coxgrowth.cli import REPORT_SCHEMA, SUBCOMMANDS, _build_parser, _fast_parse, main
from test_census import reference_records

SYS = str(Path(__file__).resolve().parent.parent / "systems")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["exit_status"] == code
    return code, doc, err


def test_growth_text_output(capsys):
    code, out, _ = run(capsys, "growth", f"{SYS}/a2.cox")
    assert code == 0
    assert out.splitlines()[0] == "W(t) = (1 + 2*t + 2*t^2 + t^3) / (1)"
    assert "order 6" in out


def test_growth_series_flag(capsys):
    code, out, _ = run(capsys, "growth", f"{SYS}/tilde-a2.cox", "--series", "5")
    assert code == 0
    assert "series: [1, 3, 6, 9, 12, 15]" in out


def test_growth_json(capsys):
    code, doc, _ = run_json(capsys, "growth", f"{SYS}/b2.cox", "--series", "4")
    assert code == 0
    assert doc["command"] == "growth"
    assert doc["system"].endswith("b2.cox")
    assert doc["data"]["display"] == "(1 + 2*t + 2*t^2 + 2*t^3 + t^4) / (1)"
    assert doc["data"]["series"] == [1, 2, 2, 2, 1]
    assert doc["data"]["order"] == 8


def test_verify_all_pass(capsys):
    code, out, _ = run(capsys, "verify", f"{SYS}/triangle-237.cox")
    assert code == 0
    assert "identity 1: holds (by construction)" in out
    assert "identity 2: not applicable" in out
    assert out.rstrip().endswith("result: PASS")


def test_verify_single_identity_json(capsys):
    code, doc, _ = run_json(capsys, "verify", f"{SYS}/h3.cox", "--identity", "3")
    assert code == 0
    assert len(doc["checks"]) == 1
    check = doc["checks"][0]
    assert check["name"] == "identity 3"
    assert check["status"] == "pass"
    assert check["lhs"] == check["rhs"]


def test_chi_output(capsys):
    code, out, _ = run(capsys, "chi", f"{SYS}/inf-dihedral.cox")
    assert code == 0
    assert "chi_T =  -1" in out  # the empty set's coefficient


@pytest.mark.parametrize("name, wrong", [
    ("chain_sums", lambda sums: (sums[0] + 1, sums[1])),    # the link side, e_T
    ("nerve_coefficients", lambda chi: chi + 1),            # the nerve side, chi_T
])
def test_chi_hall_check_fails_on_one_wrong_value(capsys, monkeypatch, name, wrong):
    computed = getattr(cli, name)

    def one_wrong(arg):
        values = computed(arg)
        last = list(values)[-1]
        return {**values, last: wrong(values[last])}

    monkeypatch.setattr(cli, name, one_wrong)
    code, doc, _ = run_json(capsys, "chi", f"{SYS}/tilde-a2.cox")
    assert code == 1
    assert [c["status"] for c in doc["checks"]].count("fail") == 1
    assert len(doc["checks"]) == 7


def test_census_text(capsys):
    code, out, _ = run(capsys, "census", f"{SYS}/tilde-a2.cox",
                       "--complex", "davis", "--max-length", "5")
    assert code == 0
    assert "chi_t coefficients: [1, 0, 0, 0, 0, 0]" in out


def test_census_formats_each_distinct_closed_form_once(capsys, monkeypatch):
    # a3's seven proper subsets have four distinct closed forms
    formatted = []

    def recording(r):
        formatted.append(r)
        return format_ratfunc(r)

    monkeypatch.setattr(cli, "format_ratfunc", recording)
    code, doc, _ = run_json(capsys, "census", f"{SYS}/a3.cox", "--complex", "coxeter")
    assert code == 0 and len(doc["data"]["by_type"]) == 7
    assert len(formatted) == 4


@pytest.mark.parametrize("argv,count", [
    (("growth", f"{SYS}/tilde-a2.cox"), 1),
    (("verify", f"{SYS}/tilde-a2.cox"), 6),           # identities 1, 3, 4: lhs and rhs
    (("verify", f"{SYS}/a2.cox", "--json"), 6),       # identities 2, 3, 4
])
def test_growth_and_verify_format_each_string_once(capsys, monkeypatch, argv, count):
    formatted = []

    def recording(r):
        formatted.append(r)
        return format_ratfunc(r)

    monkeypatch.setattr(cli, "format_ratfunc", recording)
    monkeypatch.setattr(coxgrowth.growth, "format_ratfunc", recording)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(formatted) == count


def test_census_tits_json(capsys):
    code, doc, _ = run_json(capsys, "census", f"{SYS}/inf-dihedral.cox",
                            "--complex", "tits", "--max-length", "6")
    assert code == 0
    assert doc["data"]["coefficients"] == [-1, 0, 0, 0, 0, 0, 0]
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_census_finite_needs_no_horizon(capsys):
    code, out, _ = run(capsys, "census", f"{SYS}/a3.cox", "--complex", "coxeter")
    assert code == 0
    assert "[1, 0, 0, 0, 0, 0, 1]" in out


def test_census_infinite_without_horizon_fails(capsys):
    code, out, err = run(capsys, "census", f"{SYS}/inf-dihedral.cox",
                         "--complex", "coxeter")
    assert code == 1
    assert "error: a horizon is required for an infinite group" in err


def test_census_davis_on_finite_fails(capsys):
    code, _, err = run(capsys, "census", f"{SYS}/a2.cox",
                       "--complex", "davis", "--max-length", "4")
    assert code == 1
    assert "infinite" in err


def test_oracle_cross_check(capsys):
    code, doc, _ = run_json(capsys, "oracle", f"{SYS}/b3.cox",
                            "--max-length", "6", "--cross-check")
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert "descent sets are spherical" in names
    assert "numeric representation agreement" in names
    assert doc["data"]["sphere_sizes"] == [1, 3, 5, 7, 8, 8, 7]


def test_oracle_counts_non_spherical_descent_sets(capsys, monkeypatch):
    # masks overwritten once the ball is in place: on the free product of
    # three Z/2 no two generators span a finite subgroup, so the check fails
    # with three violations, ids 1 and 7 of the built spheres and one element
    # of the counted length-4 sphere (id 45, descent set {1}, once built)
    sphere_sizes, count = WordOracle.sphere_sizes, WordOracle._count

    def corrupted(self, horizon):
        sizes = sphere_sizes(self, horizon)
        for i, mask in ((1, 0b111), (7, 0b111)):
            self._descents[i] = mask
        return sizes

    def corrupted_count(self):
        counts = count(self)
        counts[0b010] -= 1
        counts[0b011] += 1
        return counts

    monkeypatch.setattr(WordOracle, "sphere_sizes", corrupted)
    monkeypatch.setattr(WordOracle, "_count", corrupted_count)
    code, doc, _ = run_json(capsys, "oracle", f"{SYS}/free-product-3.cox", "--max-length", "4")
    assert code == 1
    assert doc["data"]["sphere_sizes"] == [1, 3, 6, 12, 24]
    check, = [c for c in doc["checks"] if c["name"] == "descent sets are spherical"]
    assert check["status"] == "fail"
    assert check["detail"] == "3 violations"


@pytest.mark.parametrize("path", sorted(Path(SYS).glob("*.cox")), ids=lambda p: p.stem)
def test_oracle_counted_and_built_balls_report_the_same(capsys, path):
    # without --cross-check the outermost sphere is counted; with it the
    # whole ball is built first
    for horizon in range(11):
        argv = ["oracle", str(path), "--max-length", str(horizon)]
        _, counted, _ = run_json(capsys, *argv)
        _, built, _ = run_json(capsys, *argv, "--cross-check")
        assert counted["data"]["sphere_sizes"] == built["data"]["sphere_sizes"], horizon
        assert built["data"]["cross_check"]["numeric_sizes"] == built["data"]["sphere_sizes"]
        assert counted["checks"] == built["checks"][:1], horizon


@pytest.mark.parametrize("name,kind,horizon", [
    ("a3", "coxeter", None),
    ("a3", "tits", None),
    ("tilde-a2", "coxeter", 5),
    ("tilde-a2", "davis", 5),
    ("tilde-a2", "tits", 5),
])
def test_census_json_agrees_with_library(capsys, oracle_for, name, kind, horizon):
    argv = ["census", f"{SYS}/{name}.cox", "--complex", kind]
    if horizon is not None:
        argv += ["--max-length", str(horizon)]
    code, doc, _ = run_json(capsys, *argv)
    assert code == 0
    data = doc["data"]
    m, o = get(name).matrix, oracle_for(name)
    assert data["record_count"] == len(list(reference_records(m, kind, data["horizon"], o)))
    assert data["coefficients"] == euler_series(m, kind, horizon, o)
    columns = [sum(col) for col in zip(*(t["census"] for t in data["by_type"]))]
    assert columns == data["coefficients"]


@pytest.mark.parametrize("extra", [[], ["--cross-check"]])
def test_oracle_rejects_negative_horizon(capsys, extra):
    code, out, err = run(capsys, "oracle", f"{SYS}/b3.cox", "--max-length", "-1", *extra)
    assert code == 1
    assert out == ""
    assert "error: horizon must be nonnegative" in err


def test_catalog_listing(capsys):
    code, out, _ = run(capsys, "catalog")
    assert code == 0
    assert "tilde-a2" in out
    assert "triangle-237" in out


def test_catalog_self_test_passes(capsys):
    # the CLI's own end-to-end check: every catalog entry's growth series and
    # sphere sizes against their frozen values
    code, doc, _ = run_json(capsys, "catalog", "--self-test")
    assert code == 0
    assert len(doc["checks"]) >= 32
    assert [c for c in doc["checks"] if c["status"] != "pass"] == []


def test_catalog_and_shipped_files_agree():
    # the catalog and systems/*.cox are two hand-kept copies of one list
    stems = sorted(path.stem for path in Path(SYS).glob("*.cox"))
    assert sorted(entry.name for entry in ENTRIES) == stems
    for name in stems:
        assert cli._load(f"{SYS}/{name}.cox") == get(name).matrix, name


def test_parse_error_exit_code_and_message(capsys, tmp_path):
    bad = tmp_path / "bad.cox"
    bad.write_text("rank 2\nm 1 2 broken\n")
    code, out, err = run(capsys, "growth", str(bad))
    assert code == 1
    assert "line 2" in err
    assert out == ""


def test_missing_file_is_an_error(capsys):
    code, _, err = run(capsys, "growth", "no-such-file.cox")
    assert code == 1
    assert "error:" in err


def test_a_bug_is_not_reported_as_bad_input(monkeypatch):
    # a KeyError is no input error: it keeps its traceback
    def broken(*args):
        raise KeyError(5)

    monkeypatch.setattr("coxgrowth.cli.census_by_type", broken)
    with pytest.raises(KeyError):
        main(["census", f"{SYS}/a2.cox", "--complex", "coxeter"])


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", f"{SYS}/a2.cox"])  # missing required --complex
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _outcome(capsys, call, argv):
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("columns", ["60", "200"])
@pytest.mark.parametrize("argv", [
    ["--help"], ["--version"], *([command, "--help"] for command in SUBCOMMANDS),
    [], ["frobnicate"], ["verify", f"{SYS}/a2.cox", "extra"],
    ["verify", f"{SYS}/a2.cox", "--identity", "9"],
    ["census", f"{SYS}/a2.cox", "--complex", "davis", "--max-length", "x"],
    ["--json", "verify", f"{SYS}/a2.cox"],
    ["oracle", f"{SYS}/a2.cox", "--max-length", "\u00b2"],
    ["verify", f"{SYS}/a2.cox", "--identity=9"],
], ids=lambda argv: " ".join(argv).replace(f"{SYS}/", "") or "no command")
def test_main_parses_as_the_full_parser(argv, columns, capsys, monkeypatch):
    # every help text, version line and usage error is the full parser's,
    # byte for byte
    monkeypatch.setenv("COLUMNS", columns)
    full = _outcome(capsys, lambda a: _build_parser().parse_args(a), argv)
    assert _outcome(capsys, main, argv) == full
    assert full[0] in (0, 2)


def test_only_a_malformed_command_builds_parsers(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (["verify", f"{SYS}/a2.cox", "--json"],
                 ["census", "--max-length", "2", f"{SYS}/a3.cox", "--by-type", "--complex", "tits"],
                 ["growth", f"{SYS}/a2.cox", "--series", "3"],
                 ["oracle", f"{SYS}/a2.cox", "--max-length", "3", "--cross-check"],
                 ["chi", f"{SYS}/a2.cox"], ["catalog"]):
        assert main(argv) == 0
    assert built == []
    # an abbreviated option: argparse parses it, and its usage error is argparse's
    with pytest.raises(SystemExit) as exc:
        main(["verify", f"{SYS}/a2.cox", "--ident", "9"])
    assert exc.value.code == 2
    assert built == ["coxgrowth", *(f"coxgrowth {command}" for command in SUBCOMMANDS)]


# tokens the fast parse must leave to argparse, for any subcommand
# (int() takes the Arabic-Indic three and rejects the superscript two, and
# 5000 digits are more than it converts)
_ODD_TOKENS = ["--", "-h", "--help", "--version", "\u0663", "\u00b2", "-1", "-x", "", "0" * 5000,
               "extra", f"{SYS}/a2.cox", "frobnicate", "3", "all", "tits", "--json"]
_ODD_TOKENS += [token for _, _, arguments in SUBCOMMANDS.values() for arg, _ in arguments
                if arg[0] == "-" for token in (arg[:-1], arg + "=3")]


@st.composite
def command_lines(draw):
    """A command line from the option table: a required option is sometimes
    left out, a value is sometimes an odd token, and an option is sometimes
    given twice; then up to three tokens are inserted, deleted, repeated or
    replaced by odd ones."""
    command = draw(st.sampled_from(list(SUBCOMMANDS)))
    odd = st.sampled_from(_ODD_TOKENS)
    groups = []
    for arg, kwargs in (cli._JSON, *SUBCOMMANDS[command][2]):
        if arg[0] != "-":
            groups.append([draw(st.just(f"{SYS}/a2.cox") | odd)])
        elif kwargs.get("action") == "store_true":
            if draw(st.booleans()):
                groups.append([arg])
        elif draw(st.booleans()) or kwargs.get("required") and draw(st.booleans()):
            valid = (st.sampled_from(kwargs["choices"]) if "choices" in kwargs
                     else st.integers(0, 20).map(str))
            groups.append([arg, draw(valid | valid | odd)])
    if groups and draw(st.booleans()):
        groups.append(draw(st.sampled_from(groups)))
    argv = [command] + [token for group in draw(st.permutations(groups)) for token in group]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(argv)))
        how = draw(st.sampled_from(["insert", "delete", "repeat", "replace"]))
        if how == "insert":
            argv.insert(at, draw(odd))
        elif at < len(argv):
            argv[at:at + 1] = ([] if how == "delete" else [argv[at]] * 2 if how == "repeat"
                               else [draw(odd)])
    return argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_fast_parse_is_the_full_parse_or_none(argv):
    fast = _fast_parse(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            full = _build_parser().parse_args(argv)
    except SystemExit:
        assert fast is None
    else:
        assert fast is None or vars(fast) == vars(full)


def test_json_deterministic_modulo_timestamp(capsys):
    _, doc1, _ = run_json(capsys, "verify", f"{SYS}/a2.cox")
    _, doc2, _ = run_json(capsys, "verify", f"{SYS}/a2.cox")
    doc1.pop("timestamp")
    doc2.pop("timestamp")
    assert doc1 == doc2


def test_json_timestamp_is_utc_now_to_the_second(capsys):
    _, doc, _ = run_json(capsys, "verify", f"{SYS}/a2.cox")
    stamp = doc["timestamp"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\+00:00", stamp)
    assert abs(calendar.timegm(time.strptime(stamp, "%Y-%m-%dT%H:%M:%S+00:00"))
               - time.time()) <= 5


def test_schema_is_draft7_valid():
    jsonschema.Draft7Validator.check_schema(REPORT_SCHEMA)


def _subprocess_env():
    """This process's environment, with the package under test first on the path."""
    src = str(Path(coxgrowth.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


# modules that no well-formed command uses; numpy is no runtime dependency
_UNUSED_MODULES = ("fractions", "decimal", "argparse", "datetime", "numpy")


@pytest.mark.parametrize("argv, code, loaded", [
    (["verify", f"{SYS}/a2.cox", "--json"], 0, []),
    (["growth", f"{SYS}/tilde-a2.cox", "--series", "6"], 0, []),
    (["chi", f"{SYS}/tilde-a2.cox", "--json"], 0, []),
    (["census", f"{SYS}/tilde-a2.cox", "--complex", "davis", "--max-length", "4", "--json"], 0, []),
    (["oracle", f"{SYS}/b3.cox", "--max-length", "6", "--cross-check"], 0, []),
    (["catalog", "--self-test", "--json"], 0, []),
    # an abbreviated option: argparse parses the line and exits with a usage error
    (["verify", f"{SYS}/a2.cox", "--ident", "9"], 2, ["argparse"]),
], ids=["verify", "growth", "chi", "census", "oracle", "catalog", "malformed"])
def test_a_command_loads_only_what_it_runs(argv, code, loaded):
    # a fresh interpreter, so that nothing this test process imported counts;
    # a module loaded before the import (a site hook, say) is not counted either
    script = ("import contextlib, io, sys\n"
              f"unused = [m for m in {_UNUSED_MODULES!r} if m not in sys.modules]\n"
              "import coxgrowth.cli\n"
              "print([m for m in unused if m in sys.modules])\n"
              "with contextlib.redirect_stdout(io.StringIO()), \\\n"
              "        contextlib.redirect_stderr(io.StringIO()):\n"
              "    try:\n"
              f"        rc = coxgrowth.cli.main({argv!r})\n"
              "    except SystemExit as exc:\n"
              "        rc = exc.code\n"
              "print([m for m in unused if m in sys.modules], rc)")
    out = subprocess.run([sys.executable, "-c", script], env=_subprocess_env(), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines() == ["[]", f"{loaded!r} {code}"]


def _one_gib_address_space():
    resource = pytest.importorskip("resource")

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return cap


def test_davis_census_memory_is_bounded_by_the_answer(tmp_path):
    # the 10-cycle of 3s has 1023 spherical subsets and 204 495 125 chains of
    # them: the census counts the chains, so it fits in a 1 GiB address space
    cap = _one_gib_address_space()
    system = tmp_path / "cycle10.cox"
    system.write_text(serialize_coxeter(coxeter_matrix(
        10, {(i, (i + 1) % 10): 3 for i in range(10)})), encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "coxgrowth", "census", str(system),
                           "--complex", "davis", "--max-length", "3", "--json"],
                          env=_subprocess_env(), preexec_fn=cap, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    doc = json.loads(done.stdout)
    assert len(doc["data"]["by_type"]) == 1023
    assert all(row["matches"] for row in doc["data"]["by_type"])


def test_out_of_memory_is_an_error_not_a_traceback(tmp_path):
    # the word oracle spells each rank-2 walk of an order as a tuple: for an
    # order of 10^12 that allocation is refused at once under the 1 GiB cap
    cap = _one_gib_address_space()
    system = tmp_path / "huge-order.cox"
    system.write_text("rank 2\nm 1 2 1000000000000\n", encoding="utf-8")
    done = subprocess.run([sys.executable, "-m", "coxgrowth", "oracle", str(system),
                           "--max-length", "3", "--json"],
                          env=_subprocess_env(), preexec_fn=cap, capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == "error: out of memory while running 'oracle'\n"


def test_json_report_of_many_batches_is_json_dumps(capsys, tmp_path):
    # A_8 has 255 coxeter types, so its report is written in more than one batch
    system = tmp_path / "a8.cox"
    system.write_text(serialize_coxeter(coxeter_matrix(8, {(i, i + 1): 3 for i in range(7)})),
                      encoding="utf-8")
    code, out, _ = run(capsys, "census", str(system), "--complex", "coxeter",
                       "--max-length", "2", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["exit_status"] == 0
    assert sum(1 for _ in json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)) > 4096
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("mode", ["--json", "--by-type"])
def test_a_closed_pipe_ends_the_report_quietly(tmp_path, mode):
    # the A_8 coxeter census at length 2 is a 170 KB JSON report and 93 KB of
    # text: more than a pipe holds, so the reader's close meets the writer
    system = tmp_path / "a8.cox"
    system.write_text(serialize_coxeter(coxeter_matrix(8, {(i, i + 1): 3 for i in range(7)})),
                      encoding="utf-8")
    with subprocess.Popen([sys.executable, "-m", "coxgrowth", "census", str(system),
                           "--complex", "coxeter", "--max-length", "2", mode],
                          env=_subprocess_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        first = os.read(proc.stdout.fileno(), 4096)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    assert first
    assert (code, err) == (1, b"")
