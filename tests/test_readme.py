"""Every python block of README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks, "no python block in README.md"
    for k, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {k}", "exec"), {"__name__": "__main__"})
