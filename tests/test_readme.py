"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs():
    # a renamed or removed public name then fails here instead of leaving
    # the README stale
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None, "no python block under '## Library use'"
    exec(compile(block.group(1), f"{README}:Library use", "exec"), {"__name__": "readme"})
