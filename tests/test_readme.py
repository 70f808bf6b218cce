"""The python blocks of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text("utf-8"),
                        flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # in order, sharing names, as in one session
        exec(compile(block, str(README), "exec"), namespace)
