"""Reports unchanged: every golden command line gives its recorded output.

See ``tests/golden_corpus.py`` for the command lines, the file format and
how to regenerate the files after a declared report change.
"""

import difflib

from golden_corpus import NAMES, ROOT, golden_file, render


def test_reports_match_the_golden_files(monkeypatch):
    monkeypatch.chdir(ROOT)
    changed = []
    for name in NAMES:
        want = golden_file(name).read_text(encoding="utf-8")
        got = render(name)
        if got != want:
            diff = difflib.unified_diff(want.splitlines(), got.splitlines(),
                                        str(golden_file(name)), "now", lineterm="", n=2)
            changed.append("\n".join(list(diff)[:40]))
    assert not changed, "\n\n".join(changed)
