"""Self-test of the benchmark harness at tiny scale.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Checks that a tiny untraced run passes the gate and prints every end-to-end
metric of BENCHMARK.json with its unit, that a traced run prints every
per-layer metric with its unit, that a corrupted reference entry fails (and
names) its job, and that in a directory holding only BENCHMARK.json and this
directory the benchmark exits non-zero without printing a result.  Exits 0
when every check holds.
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys

import run

TINY = ["verify @a5 --identity all", "census @h3 --complex coxeter"]


def _declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _printed(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()
            if isinstance(metric["value"], (int, float))}


def main() -> int:
    failures = []

    def check(holds, what):
        print(("ok    " if holds else "FAIL  ") + what)
        if not holds:
            failures.append(what)

    reference = run.load_reference()
    plain = run.run_workload(TINY, 1, 0, False, reference)
    check(plain["correct"] and plain["attempted"] == run.MIN_PASSES * len(TINY),
          "an untraced run of the tiny job list passes the gate")
    check(_printed(plain) == _declared("end_to_end"),
          "it prints every end-to-end metric with its declared unit")

    traced = run.run_workload(TINY, 1, 0, True, reference)
    check(traced["correct"], "a traced run passes the gate")
    check(_printed(traced) == _declared("per_layer"),
          "it prints every per-layer metric with its declared unit")

    corrupted = copy.deepcopy(reference)
    corrupted[TINY[0]]["data"]["rank"] += 1
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        bad = run.run_workload(TINY, 1, 0, False, corrupted)
    check(not bad["correct"] and bad["failed"] == run.MIN_PASSES
          and bad["metrics"]["ok_frac"]["value"] < 1,
          "a corrupted reference entry fails its job in every pass")
    check(f"job failed: {TINY[0]}: report differs from the reference" in stderr.getvalue(),
          "the failed job is named on standard error")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "growth-ladder",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and not done.stdout.strip(),
          "without the program the benchmark exits non-zero and prints no result")

    print(f"{len(failures)} of 7 checks failed" if failures else "all 7 checks hold")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
