"""Command-line interface.

Subcommands: growth, verify, chi, census, oracle, catalog.  Every subcommand
accepts ``--json`` for a structured report (schema in :data:`REPORT_SCHEMA`).
Exit codes: 0 all checks pass, 1 computational failure (running out of memory
included), a failed check or a reader that closed the pipe early, 2 usage
error.  Output is deterministic except for the timestamp field.

Each subcommand's options are spelled once, in :data:`SUBCOMMANDS`, and two
parsers read that table.  A plain command line skips argparse: the
subcommand first, then its file and options, each option by its full name,
at most once and with its value as the next argument, no file or value that
is empty or starts with ``-``, ASCII digits for a number, an exact choice
and every required option given.  Every other command line goes to argparse,
so help, the version line and every usage error are argparse's, unchanged;
``argparse`` is imported only for the command lines it parses.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import islice
from types import SimpleNamespace

from . import __version__
from .catalog import ENTRIES
from .census import KINDS, census_by_type, chain_sums
from .classify import classify
from .coxeter import format_subset, parse_coxeter_file
from .growth import GrowthTable, InvariantViolation, _sign, nerve_coefficients, verify_identity
from .oracle import WordOracle, cross_check_oracles
from .ratfunc import format_poly, format_ratfunc, series_expand

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["command", "system", "timestamp", "checks", "data", "exit_status"],
    "additionalProperties": False,
    "properties": {
        "command": {"type": "string"},
        "system": {"type": ["string", "null"]},
        "timestamp": {"type": "string"},
        "exit_status": {"type": "integer", "minimum": 0, "maximum": 2},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "status"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "status": {"enum": ["pass", "fail", "not-applicable"]},
                    "detail": {"type": ["string", "null"]},
                    "lhs": {"type": ["string", "null"]},
                    "rhs": {"type": ["string", "null"]},
                },
            },
        },
        "data": {"type": "object"},
    },
}


def _check(name, status, detail=None, lhs=None, rhs=None):
    return {"name": name, "status": status, "detail": detail, "lhs": lhs, "rhs": rhs}


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return parse_coxeter_file(handle.read())


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (lines, data, checks)
# ---------------------------------------------------------------------------

def _cmd_growth(args):
    matrix = _load(args.file)
    table = GrowthTable(matrix)
    series = table.series()
    info = table.infos[matrix.full_mask]
    display = format_ratfunc(series)
    lines = [f"W(t) = {display}"]
    if info.finite:
        lines.append(f"finite group of order {info.order}, "
                     f"longest element length {info.longest_length}")
    else:
        lines.append("infinite group")
    data = {
        "rank": matrix.rank,
        "numerator": format_poly(series.num),
        "denominator": format_poly(series.den),
        "display": display,
        "finite": info.finite,
        "longest_length": info.longest_length,
        "order": info.order,
        "series": None,
    }
    if args.series is not None:
        coeffs = series_expand(series, args.series)
        data["series"] = coeffs
        lines.append(f"series: {coeffs}")
    return lines, data, []


def _cmd_verify(args):
    matrix = _load(args.file)
    table = GrowthTable(matrix)
    which = (1, 2, 3, 4) if args.identity == "all" else (int(args.identity),)
    reports = [verify_identity(table, k) for k in which]
    lines = []
    checks = []
    for rep in reports:
        lines.append(rep.describe())
        if not rep.applicable:
            checks.append(_check(f"identity {rep.identity}", "not-applicable", rep.note))
        else:
            status = "pass" if rep.holds else "fail"
            detail = "holds by construction" if rep.by_construction else "independent check"
            checks.append(_check(f"identity {rep.identity}", status, detail, *rep.sides))
    data = {"rank": matrix.rank, "finite": table.infos[matrix.full_mask].finite}
    return lines, data, checks


def _cmd_chi(args):
    matrix = _load(args.file)
    lines = []
    checks = []
    rows = []
    chis = nerve_coefficients(matrix)
    # 1 - chi(link of T) as e_T, the signed sum over the spherical chains
    # from T (the link's barycentric subdivision); Hall's theorem equates it
    # with (-1)^{|T|} chi_T, a sum over the nerve's simplices instead
    for subset, (one_minus, _) in chain_sums(tuple(chis)).items():
        chi = chis[subset]
        sign = _sign(subset.bit_count())
        agree = one_minus == sign * chi
        rows.append({"subset": format_subset(subset), "mask": subset,
                     "chi": chi, "one_minus_link_euler": one_minus})
        lines.append(f"T = {format_subset(subset):<12} chi_T = {chi:>3}   "
                     f"1 - chi(link) = {one_minus:>3}   "
                     f"{'ok' if agree else 'MISMATCH'}")
        checks.append(_check(f"link euler identity at {format_subset(subset)}",
                             "pass" if agree else "fail",
                             lhs=str(one_minus), rhs=str(sign * chi)))
    return lines, {"rank": matrix.rank, "table": rows}, checks


def _cmd_census(args):
    slices = census_by_type(_load(args.file), args.complex, args.max_length)
    coeffs = [sum(column) for column in zip(*(tc.census for tc in slices))]
    record_count = sum(tc.records for tc in slices)
    label = "chi^t" if args.complex == "tits" else "chi_t"
    lines = [f"{label} coefficients: {coeffs}",
             f"records: {record_count}"]
    checks, by_type = [], []
    forms = {r: format_ratfunc(r) for r in {tc.closed_form for tc in slices}}
    for tc in slices:
        t, name, form = tc.type_mask, format_subset(tc.type_mask), forms[tc.closed_form]
        by_type.append({"type": name, "mask": t,
                        "census": list(tc.census),
                        "closed_form": form,
                        "matches": tc.matches})
        checks.append(_check(f"type {name} census vs closed form",
                             "pass" if tc.matches else "fail",
                             lhs=str(list(tc.census)),
                             rhs=str(list(tc.closed_series))))
        if args.by_type:
            lines.append(f"type {name:<12} census {list(tc.census)}  "
                         f"closed form {form}  "
                         f"{'ok' if tc.matches else 'MISMATCH'}")
    data = {"kind": args.complex, "horizon": len(coeffs) - 1,
            "coefficients": coeffs, "record_count": record_count,
            "by_type": by_type}
    return lines, data, checks


def _cmd_oracle(args):
    matrix = _load(args.file)
    oracle = WordOracle(matrix)
    # the cross-check builds the whole ball, so it runs before the sizes are
    # read: otherwise the outermost sphere would be counted and then built
    rep = cross_check_oracles(matrix, args.max_length, oracle) if args.cross_check else None
    sizes = oracle.sphere_sizes(args.max_length)
    lines = [f"sphere sizes: {sizes}"]
    checks = []
    # classify the ball's distinct masks; count elements only when one fails
    bad_masks = {mask for mask in oracle.ball_masks(args.max_length)
                 if not classify(matrix, mask).finite}
    bad = 0
    if bad_masks:
        bad = sum(count for k in range(args.max_length + 1)
                  for mask, count in oracle.descent_counts(k).items() if mask in bad_masks)
    checks.append(_check("descent sets are spherical",
                         "pass" if not bad else "fail",
                         detail=None if not bad else f"{bad} violations"))
    data = {"rank": matrix.rank, "horizon": args.max_length,
            "sphere_sizes": sizes, "cross_check": None}
    if rep is not None:
        checks.append(_check("numeric representation agreement",
                             "pass" if rep.passed else "fail",
                             lhs=str(rep.symbolic_sizes), rhs=str(rep.numeric_sizes),
                             detail=f"{len(rep.descent_mismatches)} descent mismatches"))
        data["cross_check"] = {"numeric_sizes": rep.numeric_sizes,
                               "descent_mismatches": len(rep.descent_mismatches)}
        lines.append(f"numeric representation sizes: {rep.numeric_sizes}")
    return lines, data, checks


def _cmd_catalog(args):
    lines = []
    checks = []
    entries_data = []
    for entry in ENTRIES:
        lines.append(f"{entry.name:<16} rank {entry.matrix.rank}  {entry.description}")
        entries_data.append({"name": entry.name, "rank": entry.matrix.rank,
                             "description": entry.description})
    if args.self_test:
        for entry in ENTRIES:
            series = GrowthTable(entry.matrix).series()
            if entry.growth is not None:
                got = format_ratfunc(series)
                checks.append(_check(f"{entry.name}: growth series",
                                     "pass" if got == entry.growth else "fail",
                                     lhs=got, rhs=entry.growth))
            if entry.spheres is not None:
                horizon = len(entry.spheres) - 1
                got_spheres = tuple(WordOracle(entry.matrix).sphere_sizes(horizon))
                expanded = tuple(series_expand(series, horizon))
                ok = got_spheres == entry.spheres and expanded == entry.spheres
                checks.append(_check(f"{entry.name}: sphere sizes",
                                     "pass" if ok else "fail",
                                     lhs=str(list(got_spheres)), rhs=str(list(entry.spheres))))
        lines.append(f"self-test: {sum(1 for c in checks if c['status'] == 'pass')}"
                     f"/{len(checks)} checks pass")
    return lines, {"entries": entries_data}, checks


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

# Each subcommand's handler, summary and arguments, in the order argparse adds
# them; an argument is its name and argparse's keyword arguments for it.
# Both parsers read this table: _build_parser passes it to argparse, and
# _fast_parse reads the kinds it holds (flags, int and choice options, one
# plain positional).
_JSON = ("--json", {"action": "store_true", "help": "emit a JSON report"})

SUBCOMMANDS = {
    "growth": (_cmd_growth, "growth series of a system as an exact rational function", (
        ("file", {"help": "path to a .cox system file"}),
        ("--series", {"type": int, "metavar": "N",
                      "help": "also print power-series coefficients up to degree N"}),
    )),
    "verify": (_cmd_verify, "check the alternating-sum identities exactly", (
        ("file", {}),
        ("--identity", {"choices": ("1", "2", "3", "4", "all"), "default": "all"}),
    )),
    "chi": (_cmd_chi, "nerve coefficients and link Euler characteristics", (
        ("file", {}),
    )),
    "census": (_cmd_census, "simplex census and Euler-series of a chamber system", (
        ("file", {}),
        ("--complex", {"choices": KINDS, "required": True}),
        ("--max-length", {"type": int, "metavar": "N",
                          "help": "census horizon (optional for finite groups)"}),
        ("--by-type", {"action": "store_true", "help": "also print the per-type census lines"}),
    )),
    "oracle": (_cmd_oracle, "brute-force sphere sizes by word enumeration", (
        ("file", {}),
        ("--max-length", {"type": int, "required": True, "metavar": "N"}),
        ("--cross-check", {"action": "store_true",
                           "help": "also run the exact Tits-cone representation"}),
    )),
    "catalog": (_cmd_catalog, "list built-in systems, optionally self-testing them", (
        ("--self-test", {"action": "store_true"}),
    )),
}


def _build_parser():
    """The command-line parser."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="coxgrowth",
        description="Exact growth series of Coxeter groups, with verification tooling.")
    parser.add_argument("--version", action="version", version=f"coxgrowth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, summary, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=summary)
        for arg, kwargs in (_JSON, *arguments):
            p.add_argument(arg, **kwargs)
        p.set_defaults(func=func)
    return parser


def _fast_parse(argv):
    """``_build_parser().parse_args(argv)``'s attributes for a plain command
    line (see the module docstring), in a ``SimpleNamespace`` built without
    argparse; ``None`` for any other argv."""
    if not argv or argv[0] not in SUBCOMMANDS:
        return None
    func, _, arguments = SUBCOMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    names, options = [], {}
    for arg, kwargs in (_JSON, *arguments):
        if arg[0] != "-":
            names.append(arg)
            continue
        dest = arg[2:].replace("-", "_")
        flag = kwargs.get("action") == "store_true"
        options[arg] = dest, flag, kwargs
        values[dest] = kwargs.get("default", False if flag else None)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            if not token or not names:
                return None
            values[names.pop(0)] = token
            continue
        if token not in options:  # -h, --, -1, an abbreviation, --opt=value, a repeat
            return None
        dest, flag, kwargs = options.pop(token)
        if flag:
            values[dest] = True
            continue
        value = next(tokens, "")
        if value[:1] in ("", "-"):
            return None
        if kwargs.get("type") is int:
            if not (value.isascii() and value.isdigit()):
                return None
            try:
                value = int(value)
            except ValueError:  # more digits than int() converts
                return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        values[dest] = value
    if names or any(kwargs.get("required") for _, _, kwargs in options.values()):
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _fast_parse(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    system = getattr(args, "file", None)
    try:
        lines, data, checks = args.func(args)
    except (ValueError, InvariantViolation, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory while running '{args.command}'", file=sys.stderr)
        return 1
    exit_status = 0 if all(c["status"] != "fail" for c in checks) else 1
    try:
        if args.json:
            doc = {
                "command": args.command,
                "system": system,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
                "checks": checks,
                "data": data,
                "exit_status": exit_status,
            }
            # the same bytes as json.dumps, without the report as one string; in
            # batches, since each write may be a system call (PYTHONUNBUFFERED)
            chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
            while batch := "".join(islice(chunks, 4096)):
                sys.stdout.write(batch)
            sys.stdout.write("\n")
        else:
            for line in lines:
                print(line)
            if checks:
                print(f"result: {'PASS' if exit_status == 0 else 'FAIL'}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`| head`): stdout goes to the null device, so
        # that the interpreter's last flush cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return exit_status

if __name__ == "__main__":
    sys.exit(main())
