"""The names perfbench looks up and patches survive refactors, and
patching them on the class still intercepts the calls a plan makes.

The names are read from their one list, in ROADMAP.md, which must hold
every name that perfbench/tracing.py patches."""

import functools
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

import mrastar
from mrastar import grid as G
from mrastar import search as S

ROOT = Path(__file__).resolve().parents[1]
HEADER = "- perfbench looks up these names"


def roadmap_names() -> list[str]:
    """The backquoted names of the bullets under HEADER in ROADMAP.md."""
    lines = (ROOT / "ROADMAP.md").read_text(encoding="utf-8").splitlines()
    at = next(n for n, line in enumerate(lines) if line.startswith(HEADER))
    names = []
    for line in lines[at + 1:]:
        if line.startswith("  - "):
            names += re.findall(r"`([^`]+)`", line)
        elif not line.startswith("  "):
            break
    return names


def tracing_names() -> set[str]:
    """module[.Class].attr of every target perfbench/tracing.py patches."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for sub in ("baselines", "bench", "grid", "kernels", "maps_io", "policies", "search"):
        importlib.import_module(f"mrastar.{sub}")
    out = set()
    for targets in (tracing.setup_targets, tracing.plan_targets, tracing.oracle_targets):
        for owner, attr, *_ in targets(mrastar):
            if isinstance(owner, types.ModuleType):
                where = owner.__name__
            else:
                where = f"{owner.__module__}.{owner.__qualname__}"
            out.add(f"{where.removeprefix('mrastar.')}.{attr}")
    return out


NAMES = roadmap_names()


def test_roadmap_lists_every_traced_name():
    assert len(NAMES) > 30
    assert tracing_names() <= set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    module, *attrs = name.split(".")
    functools.reduce(getattr, attrs, importlib.import_module(f"mrastar.{module}"))


def test_class_patches_intercept_a_plan(monkeypatch):
    calls = {"run": 0, "pop": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(S.MraSearch, "run", counting("run", S.MraSearch.run))
    monkeypatch.setattr(S.OpenList, "pop", counting("pop", S.OpenList.pop))
    res = S.plan(S.Problem(G.GridMap.empty((16, 16)), (0, 0), (15, 9), ladder=(1, 3)))
    assert res.status == S.STATUS_SOLVED
    assert calls == {"run": 1, "pop": sum(res.expansions)}
    assert calls["pop"] > 0
