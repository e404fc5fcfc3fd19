"""The README's library examples run as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(monkeypatch):
    # the blocks continue one another and read fans/ relative to the root
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(
        encoding="utf-8"), re.S | re.M)
    assert blocks
    monkeypatch.chdir(ROOT)
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
