"""The library quickstart in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quickstart_runs():
    # the first python code block; its own asserts check the results
    block = re.search(r"^```python\n(.*?)^```", README.read_text(),
                      re.DOTALL | re.MULTILINE)
    assert block is not None
    exec(compile(block.group(1), f"{README}:quickstart", "exec"), {})
