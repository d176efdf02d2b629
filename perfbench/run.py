"""Benchmark of the coxgrowth command line: fixed job lists, each job a fresh process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --freeze --seed N    # rewrite reference.json

A job is one ``coxgrowth ... --json`` command, run by ``job.py`` in a new
interpreter with ``src/`` of the checkout on ``PYTHONPATH``, so it pays a
cold import and cold module caches as a user of the command does.  The seed
draws a random relabelling of the generators of every system, shipped or
synthetic; the program only sees the generated ``.cox`` files.  Each report
is reduced to a label-free form and compared with ``reference.json``; a job
that exits non-zero, raises, overruns its time budget (it is killed) or
differs from the reference is failed and named on standard error.

Without tracing the job list is run in passes, at least ``MIN_PASSES`` and as
many as fit in ``--seconds``, and each job counts with its best time over the
passes: on a shared host other tenants can slow one run of a job by half for
seconds at a time, and the minimum is the figure they disturb least.  The
last line of standard output is a JSON object with the end-to-end metrics.
With ``--trace 1`` each job runs once untraced and then once traced, and the
metrics are the per-layer self times and counters of the traced runs (see
``tracer.py``) plus the tracing overhead.  Without ``src/coxgrowth`` and
``systems/`` beside this directory the benchmark exits with status 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SYSTEMS = ROOT / "systems"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".bench_build" / "perfbench"

JOB_LIMIT_S = 60.0     # a job running longer is killed and failed
RUN_LIMIT_S = 150.0    # jobs are not started, and running ones are killed, after this
MIN_PASSES = 3         # every job runs at least this often in an untraced run

# Systems read from systems/; every other name is a synthetic family member.
SHIPPED = ("h3", "tilde-a2", "triangle-237", "triangle-244", "racg-4cycle", "free-product-3")


# A job is a command line; "@name" stands for the generated file of a system.
WORKLOADS = {
    "growth-ladder": [f"verify @{name} --identity all" for name in (
        "a5", "a6", "a7", "cycle3-5", "cycle3-6", "cycle3-7",
        "racycle-6", "racycle-7", "racycle-8", "free-6", "free-7", "free-8")],
    "oracle-deep": [
        "oracle @racg-4cycle --max-length 14",
        "oracle @tilde-a2 --max-length 24",
        "oracle @triangle-237 --max-length 22",
        "oracle @triangle-244 --max-length 22",
        "oracle @free-product-3 --max-length 16",
        "oracle @free-product-3 --max-length 13 --cross-check",
        "oracle @triangle-237 --max-length 20 --cross-check",
    ],
    "census-types": [
        "census @racycle-5 --complex coxeter --max-length 6",
        "census @cycle3-4 --complex davis --max-length 8",
        "census @free-4 --complex coxeter --max-length 6",
        "census @racycle-6 --complex tits --max-length 6",
        "census @h3 --complex coxeter",
    ],
}

E2E_UNITS = {"solve_s": "s", "solve_cpu_s": "s", "slowest_job_s": "s", "command_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
LAYER_UNITS = {
    "coxeter.self_s": "s", "coxeter.parse_calls": "count",
    "classify.self_s": "s", "classify.calls": "count", "classify.spherical": "count",
    "ratfunc.self_s": "s", "ratfunc.gcd_calls": "count", "ratfunc.ratfuncs_built": "count",
    "ratfunc.max_degree": "degree",
    "growth.self_s": "s", "growth.tables_built": "count", "growth.identity_s": "s",
    "oracle.self_s": "s", "oracle.elements": "count", "oracle.words_stored": "count",
    "oracle.words_per_element": "ratio", "oracle.geometric_s": "s",
    "oracle.horizon_errors": "count",
    "census.self_s": "s", "census.enumerations": "count", "census.records_emitted": "count",
    "census.emitted_per_reported": "ratio",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _family_pairs(name):
    """Non-default pairwise orders {(i, j): m} of a synthetic family member."""
    match = re.fullmatch(r"(a|cycle3-|racycle-|free-)(\d+)", name)
    if match is None:
        raise SetupError(f"unknown system {name!r}")
    family, n = match.group(1), int(match.group(2))
    path = {(i, i + 1) for i in range(n - 1)}
    if family == "a":                       # A_n: a path of 3s
        return {p: "3" for p in path}
    if family == "cycle3-":                 # affine A_{n-1}: an n-cycle of 3s
        return {p: "3" for p in path | {(0, n - 1)}}
    cycle = path | {(0, n - 1)}
    return {(i, j): "inf" for i in range(n) for j in range(i + 1, n)
            if family == "free-" or (i, j) not in cycle}


def _shipped_pairs(name):
    rank, pairs = None, {}
    try:
        text = (SYSTEMS / f"{name}.cox").read_text(encoding="utf-8")
    except OSError as exc:
        raise SetupError(f"cannot read shipped system {name}: {exc}") from None
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if tokens[:1] == ["rank"]:
            rank = int(tokens[1])
        elif tokens[:1] == ["m"]:
            pairs[(int(tokens[1]) - 1, int(tokens[2]) - 1)] = tokens[3]
    return rank, pairs


def system_text(name, seed):
    """The .cox text of a system with its generators relabelled by the seed."""
    if name in SHIPPED:
        rank, pairs = _shipped_pairs(name)
    else:
        pairs = _family_pairs(name)
        rank = 1 + max(j for _, j in pairs)
    perm = list(range(rank))
    random.Random(f"{seed}:{name}").shuffle(perm)
    moved = {tuple(sorted((perm[i], perm[j]))): m for (i, j), m in pairs.items()}
    lines = [f"rank {rank}"] + [f"m {i + 1} {j + 1} {m}" for (i, j), m in sorted(moved.items())]
    return "\n".join(lines) + "\n"


def write_inputs(jobs, seed, workdir):
    """Write the relabelled system of every job; return job -> argv."""
    argvs = {}
    for job in jobs:
        argv = []
        for token in job.split():
            if token.startswith("@"):
                path = workdir / f"{token[1:]}.cox"
                if not path.exists():
                    path.write_text(system_text(token[1:], seed), encoding="utf-8")
                token = str(path)
            argv.append(token)
        argvs[job] = argv + ["--json"]
    return argvs


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------

_SUBSET = re.compile(r"\{[\d,]*\}")


def _size_of(subset_text):
    return subset_text.count(",") + 1 if subset_text != "{}" else 0


def canonical(report):
    """The label-free content of a JSON report: what the reference pins down."""
    data = dict(report["data"])
    if report["command"] == "chi":
        data["table"] = sorted(
            [bin(row["mask"]).count("1"), row["chi"], row["one_minus_link_euler"]]
            for row in data["table"])
    elif report["command"] == "census":
        data["by_type"] = sorted(
            json.dumps([bin(t["mask"]).count("1"), t["census"], t["closed_form"], t["matches"]])
            for t in data["by_type"])
    checks = sorted(json.dumps({**c, "name": _SUBSET.sub(lambda m: f"|{_size_of(m.group())}|",
                                                         c["name"])}, sort_keys=True)
                    for c in report["checks"])
    return {"command": report["command"], "exit_status": report["exit_status"],
            "checks": checks, "data": data}


def load_reference(path=REFERENCE):
    if not path.exists():
        raise SetupError(f"missing reference {path}")
    return json.loads(path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def workspace(name):
    """Check the checkout, warm its bytecode cache, yield (child env, fresh work dir)."""
    if not (SRC / "coxgrowth" / "cli.py").is_file() or not SYSTEMS.is_dir():
        raise SetupError(f"no coxgrowth sources under {ROOT}: need src/coxgrowth and systems/")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    try:
        done = subprocess.run([sys.executable, "-c", "import coxgrowth.cli"], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=20)
    except subprocess.TimeoutExpired:
        raise SetupError("importing coxgrowth.cli took over 20 s") from None
    if done.returncode != 0:
        raise SetupError("cannot import coxgrowth.cli: " + done.stderr.decode(errors="replace"))
    workdir = WORK / f"{name}{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        yield env, workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_job(job, argv, trace, workdir, env, time_left):
    """Spawn one job, wait for it (killing it at its budget) and read what it left."""
    stem = workdir / f"job{time.monotonic_ns()}"
    record_path = Path(f"{stem}.record.json")
    out_path = Path(f"{stem}.out")
    budget = min(JOB_LIMIT_S, time_left)
    result = {"job": job, "ok": False}
    if budget <= 0:
        result["reason"] = "not started: the run's time limit was reached"
        return result
    cmd = [sys.executable, str(HERE / "job.py"), str(record_path), str(int(trace)), str(SRC), *argv]
    with open(out_path, "wb") as out, open(f"{stem}.err", "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=env)
        killed = threading.Event()

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(budget, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        result["exit"] = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result.update(spawn=spawn, maxrss_kb=usage.ru_maxrss)
    if killed.is_set():
        result["reason"] = f"killed after its budget of {budget:.0f} s"
        return result
    try:
        record = json.loads(record_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        record = {}
    result.update(record)
    if "error" in record:
        result["reason"] = record["error"].strip().splitlines()[-1]
    elif proc.returncode != 0:
        result["reason"] = f"exit status {proc.returncode}"
    else:
        try:
            result["report"] = json.loads(out_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            result["reason"] = f"unreadable report: {exc}"
            return result
        result["ok"] = True
    if trace and result["ok"]:
        result["layers"] = summarize(f"{record_path}.spans")
    return result


def run_pass(jobs, argvs, trace, reference, workdir, env, deadline):
    results = []
    for job in jobs:
        result = run_job(job, argvs[job], trace, workdir, env, deadline - time.monotonic())
        if result["ok"]:
            want = reference.get(job)
            if want is None:
                result.update(ok=False, reason="no reference for this job")
            elif canonical(result["report"]) != want:
                result.update(ok=False, reason="report differs from the reference")
        if not result["ok"]:
            print(f"job failed: {job}: {result['reason']}", file=sys.stderr)
        results.append(result)
    return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _best(passes, measure):
    """Per job, the smallest value of ``measure`` over the passes that produced one."""
    best = []
    for runs in zip(*passes):
        values = [measure(r) for r in runs if "end" in r]
        if values:
            best.append(min(values))
    return best


def end_to_end(passes):
    """Each job counts with its best time over the passes; see the module docstring."""
    in_main = _best(passes, lambda r: r["end"] - r["start"])
    jobs = [r for results in passes for r in results]
    return {
        "solve_s": sum(in_main),
        "solve_cpu_s": sum(_best(passes, lambda r: r["cpu"])),
        "slowest_job_s": max(in_main, default=0.0),
        "command_s": sum(_best(passes, lambda r: r["exit"] - r["spawn"])),
        "setup_s": statistics.median(_best(passes, lambda r: r["imported"] - r["spawn"]) or [0.0]),
        "peak_rss_mb": max((r.get("maxrss_kb", 0) for r in jobs), default=0) / 1024,
        "ok_frac": sum(r["ok"] for r in jobs) / len(jobs),
    }


def per_layer(untraced, traced):
    values = dict.fromkeys(LAYER_UNITS, 0.0)
    reported_records = 0
    for r in traced:
        for name, value in {**r.get("layers", {}), **r.get("counters", {})}.items():
            if name == "ratfunc.max_degree":
                values[name] = max(values[name], value)
            else:
                values[name] += value
        if r.get("report", {}).get("command") == "census":
            reported_records += r["report"]["data"]["record_count"]
    elements = values["oracle.elements"]
    values["oracle.words_per_element"] = values["oracle.words_stored"] / elements if elements else 0.0
    values["census.emitted_per_reported"] = (values["census.records_emitted"] / reported_records
                                             if reported_records else 0.0)
    in_main = [sum(r["end"] - r["start"] for r in runs if "end" in r) for runs in (traced, untraced)]
    values["trace.overhead_s"] = in_main[0] - in_main[1]
    return values


def run_workload(jobs, seed, seconds, trace, reference):
    """Run a job list; return the result object printed as the last line."""
    with workspace("run") as (env, workdir):
        argvs = write_inputs(jobs, seed, workdir)
        deadline = time.monotonic() + RUN_LIMIT_S
        ctx = (reference, workdir, env, deadline)
        if trace:
            untraced, traced = [], []
            for job in jobs:    # back to back, so that both runs of a job see one host load
                untraced += run_pass([job], argvs, False, *ctx)
                traced += run_pass([job], argvs, True, *ctx)
            passes = [untraced, traced]
            metrics = per_layer(untraced, traced)
            units = LAYER_UNITS
        else:
            passes = []
            start = time.monotonic()
            while True:
                passes.append(run_pass(jobs, argvs, False, *ctx))
                elapsed = time.monotonic() - start
                next_end = elapsed + elapsed / len(passes)
                if len(passes) >= MIN_PASSES and (next_end > seconds or next_end > RUN_LIMIT_S):
                    break
            metrics = end_to_end(passes)
            units = E2E_UNITS
    jobs_run = [r for results in passes for r in results]
    failed = sum(not r["ok"] for r in jobs_run)
    return {"correct": failed == 0, "attempted": len(jobs_run), "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def freeze(seed):
    """Write the reference from one pass of every workload at this commit."""
    reference = {}
    with workspace("freeze") as (env, workdir):
        for jobs in WORKLOADS.values():
            argvs = write_inputs(jobs, seed, workdir)
            for job in jobs:
                result = run_job(job, argvs[job], False, workdir, env, JOB_LIMIT_S)
                if not result["ok"]:
                    raise SetupError(f"{job}: {result['reason']}")
                reference[job] = canonical(result["report"])
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} reference entries to {REFERENCE}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--freeze", action="store_true",
                        help="rewrite reference.json from this checkout")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))   # clean up as on Ctrl-C
    try:
        if args.freeze:
            freeze(args.seed)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace), load_reference())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
