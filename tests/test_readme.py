"""README.md's `## Library` example runs as written and its assert holds."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    scope = {}
    exec(compile(blocks[0], f"{README}:Library", "exec"), scope)
    assert scope["res"].status == "solved"
