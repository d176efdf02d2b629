"""The golden report corpus: a fixed list of command lines and their output.

Each system has one file ``tests/golden/<system>.txt`` holding, for every
command line of :func:`command_lines`, the line itself, its stdout, its
stderr (when there is any) and its exit status, with the JSON reports'
``timestamp`` masked; ``tests/golden/catalog.txt`` holds the command lines
that read no system file, and ``tests/golden/argparse.txt`` those that only
argparse parses (an abbreviated option, ``--option=value``, options before
the file), help and usage text excepted, since its wording changes between
Python versions.  ``tests/test_golden.py`` runs the list in process
and compares the result with the files, so an unintended change of any
report shows as a failing test and a declared one as a diff of these files.

Regenerate the files (from the repository root) after a declared report
change, and say why in CHANGES.md:

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

# The 17 shipped systems, and four rank-8 families whose censuses take the
# packed paths: A_8, the 8-cycle of 3s, the right-angled 8-cycle and the
# free product of 8 copies of Z/2.
SHIPPED = sorted(p.stem for p in (ROOT / "systems").glob("*.cox"))
SYNTHETIC = ("a8", "cycle8", "racycle8", "free8")
CATALOG = "catalog"     # the file of the command lines that read no system
ARGPARSE = "argparse"   # the file of the command lines that skip the fast parser
NAMES = SHIPPED + list(SYNTHETIC) + [CATALOG, ARGPARSE]

# Reports reached only through argparse: each line is one that the fast
# parser hands over, and each prints a report rather than usage.
_ARGPARSE_FORMS = (
    ["verify", "systems/b3.cox", "--identity=3"],
    ["verify", "--identity=1", "systems/tilde-a2.cox"],
    ["growth", "--series=6", "systems/triangle-244.cox"],
    ["growth", "--ser", "4", "systems/i2-7.cox"],
    ["oracle", "systems/b3.cox", "--max", "4", "--cross"],
    ["oracle", "--max-length=5", "systems/triangle-237.cox"],
    ["census", "systems/tilde-a2.cox", "--complex=tits", "--max-length=4", "--by-type"],
    ["census", "--complex", "davis", "--max-length", "4", "--by", "systems/racg-4cycle.cox"],
    ["census", "systems/i2-5.cox", "--compl", "coxeter", "--by-type"],
    ["catalog", "--self"],
)

_MASK = re.compile(r'^(\s*"timestamp": )".*"(,?)$', re.MULTILINE)


def system_path(name: str) -> str:
    """The system's file, relative to the repository root."""
    folder = "tests/golden/systems" if name in SYNTHETIC else "systems"
    return f"{folder}/{name}.cox"


def command_lines(name: str) -> list:
    """The argv lists run on one system: growth, verify, chi, the census of
    each kind by type and the cross-checked oracle, each in text and with
    ``--json``; for :data:`CATALOG`, the catalog's self-test, and for
    :data:`ARGPARSE`, the command lines that only argparse parses."""
    if name == CATALOG:
        forms = [["catalog", "--self-test"]]
    elif name == ARGPARSE:
        forms = [list(argv) for argv in _ARGPARSE_FORMS]
    else:
        path = system_path(name)
        horizon = "3" if name in SYNTHETIC else "6"
        forms = [["growth", path, "--series", "10"], ["verify", path], ["chi", path]]
        forms += [["census", path, "--complex", kind, "--max-length", horizon, "--by-type"]
                  for kind in ("coxeter", "davis", "tits")]
        forms.append(["oracle", path, "--max-length", "6", "--cross-check"])
    return [argv + extra for argv in forms for extra in ([], ["--json"])]


def render(name: str) -> str:
    """The golden text of one system, from the ``coxgrowth`` on ``sys.path``;
    paths are relative to the working directory, which must be the root."""
    from coxgrowth.cli import main

    parts = []
    for argv in command_lines(name):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        parts.append(f"$ coxgrowth {' '.join(argv)}\n")
        parts.append(_MASK.sub(r'\1"<masked>"\2', out.getvalue()))
        if err.getvalue():
            parts.append(f"[stderr]\n{err.getvalue()}")
        parts.append(f"[exit {status}]\n\n")
    return "".join(parts)


def golden_file(name: str) -> Path:
    return GOLDEN / f"{name}.txt"


def regenerate():
    os.chdir(ROOT)
    for name in NAMES:
        golden_file(name).write_text(render(name), encoding="utf-8")
        print(golden_file(name).relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(regenerate())
