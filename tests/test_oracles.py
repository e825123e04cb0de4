"""tests/oracles.py holds no dead reference: every name it defines at
top level is reached from a test, as oracles.NAME in some
tests/test_*.py or from inside the definition of another reached
name.  A retired reference therefore leaves with its tests."""

import ast
from pathlib import Path

HERE = Path(__file__).parent


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def test_every_oracle_is_reached_from_a_test():
    defs = {}
    for node in ast.parse((HERE / "oracles.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                defs.update((name, node) for name in _names(target))
    todo = [
        n.attr
        for path in sorted(HERE.glob("test_*.py"))
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
        and n.value.id == "oracles"
    ]
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo.extend(_names(defs[name]))
    assert sorted(set(defs) - reached) == []
