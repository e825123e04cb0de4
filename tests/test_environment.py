"""No module of the package reads the environment: a run is set by its
arguments alone, so no knob can change results unseen."""

import ast
from pathlib import Path

import mrastar

_READERS = {"environ", "environb", "getenv", "getenvb"}


def _environment_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _READERS:
            found.append(f"{path.name}:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"{path.name}:{node.lineno}: from os import {alias.name}"
                      for alias in node.names if alias.name in _READERS]
    return found


def test_no_module_reads_the_environment(tmp_path):
    probe = tmp_path / "probe.py"  # the guard finds both spellings
    probe.write_text("import os\nfrom os import getenv\nn = os.environ.get('N')\n")
    assert _environment_reads(probe) == [
        "probe.py:2: from os import getenv", "probe.py:3: .environ"]
    modules = sorted(Path(mrastar.__file__).parent.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in _environment_reads(path)] == []
