"""Time each layer of a map's set-up, for one or more source trees.

    python3 scripts/bench_setup.py [TREE ...] [--repeats N] [--out FILE]

A TREE is a checkout with the package under src/mrastar; the default is
this repository.  Each tree is imported under its own module name, so
that all of them run in one process, and the trees take turns map by
map within every repeat, in an order that alternates from repeat to
repeat: host drift then reaches every tree alike.

The maps are shaped like perfbench's workloads and are made by the first
tree's synthetic.random_grid and serializers, so every tree parses the
same text: 24^3 vox3 maps of density 0.25 (ladder 1,9,27, 2000 scenarios
from gen_scenarios, first query one dts mra plan) and 64-80 wide
movingai maps of density 0.30 (ladder 1,7,21, 300 scenarios through
bench.make_tasks, first query every bench algo, round robin).  Each
repeat parses each map afresh, so nothing is cached, and then times, in
turn:

- parse: parse_vox3 or parse_movingai_map of the text;
- labels: maps_io.fine_components;
- scenarios: gen_scenarios or make_tasks, which label the map again;
- move_table k=K: GridMap.move_table(K) for each scale, smallest first,
  so that k = 1 is the unit-move builder and each coarse table reads it;
- space_masks: GridMap.space_masks(ladder);
- first_query: the first plan(s), over the tables built above.

setup, with no work of its own, is the sum of every layer but labels:
the work of perfbench's setup_s.  Each layer reports, per tree, the mean time per map of each
repeat, as the minimum and quartiles over the repeats, beside its
deterministic work (cells, components, scenarios, digests of mask bytes
and of plan results).  A tree whose work differs from one repeat to the
next stops the run.  The run is appended to FILE (default
BENCH_setup.json at the root of this repository), with each tree's git
commit and whether it had uncommitted changes.
"""

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "bench_setup/1"
BENCH_ALGOS = ("mra", "wa-high", "wa-low", "wa-mr", "astar")


class Family(NamedTuple):
    name: str
    dim: int
    sizes: tuple[int, int]  # each extent drawn uniformly from [lo, hi]
    density: float
    maps: int
    ladder: tuple[int, ...]
    scenarios: int
    sampler: str  # "program": gen_scenarios; "bench": bench.make_tasks
    algos: tuple[str, ...]
    policy: str


FAMILIES = (
    Family("plan3d", 3, (24, 24), 0.25, 5, (1, 9, 27), 2000, "program", ("mra",), "dts"),
    Family("bench2d", 2, (64, 80), 0.30, 10, (1, 7, 21), 300, "bench", BENCH_ALGOS, "round_robin"),
)


def load_tree(root: Path, name: str):
    """The package under root/src/mrastar, imported as `name`, afresh
    when a package of that name was imported before."""
    for loaded in [n for n in sys.modules if n == name or n.startswith(name + ".")]:
        del sys.modules[loaded]
    pkg = root / "src" / "mrastar"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("bench", "grid", "maps_io", "search", "synthetic"):
        importlib.import_module(f"{name}.{sub}")
    return module


def git_state(root: Path) -> dict:
    def git(*args):
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": commit, "dirty": None if commit is None else bool(status)}


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(bytes(p) if isinstance(p, memoryview) else repr(p).encode())
    return h.hexdigest()[:16]


def map_texts(m, family: Family, seed: int) -> list[tuple[str, str]]:
    """(map id, text) per map of family, drawn from seed with tree m."""
    rng = np.random.default_rng([seed, family.dim])
    serialize = m.maps_io.serialize_vox3 if family.dim == 3 else m.maps_io.serialize_movingai
    out = []
    for i in range(family.maps):
        extents = tuple(int(rng.integers(family.sizes[0], family.sizes[1] + 1))
                        for _ in range(family.dim))
        grid = m.synthetic.random_grid(extents, family.density, int(rng.integers(1 << 30)))
        out.append((f"{family.name}-{i}", serialize(grid)))
    return out


def set_up(m, family: Family, map_id: str, text: str, seed: int) -> tuple[dict, dict]:
    """One map's set-up with tree m, layer by layer: (seconds, work)."""
    clock = time.perf_counter
    times, work = {}, {}
    parse = m.maps_io.parse_vox3 if family.dim == 3 else m.maps_io.parse_movingai_map
    t = clock()
    grid = parse(text)
    times["parse"] = clock() - t
    work["parse"] = {"cells": grid.size, "blocked": int(grid.blocked.sum())}

    t = clock()
    labels = m.maps_io.fine_components(grid)
    times["labels"] = clock() - t
    work["labels"] = {"components": int(labels.max()) + 1}

    t = clock()
    if family.sampler == "bench":
        pairs = [(s.start, s.goal) for s in m.bench.make_tasks([(map_id, grid)], family.scenarios, seed)]
    else:
        pairs = [(s.start, s.goal) for s in m.maps_io.gen_scenarios(grid, family.scenarios, seed)]
    times["scenarios"] = clock() - t
    work["scenarios"] = {"count": len(pairs), "digest": digest(pairs)}

    for k in sorted(family.ladder):
        t = clock()
        table = grid.move_table(k)
        times[f"move_table k={k}"] = clock() - t
        work[f"move_table k={k}"] = {
            "digest": digest(table.masks, table.offsets, [c.hex() for c in table.costs])
        }

    t = clock()
    spaces = grid.space_masks(family.ladder)
    times["space_masks"] = clock() - t
    work["space_masks"] = {"digest": digest(spaces)}

    ladder = m.grid.ResolutionLadder(family.ladder)
    config = m.search.PlannerConfig(w1=3.0, w2=3.0, policy=family.policy, seed=seed)
    start, goal = pairs[0]
    results = []
    t = clock()
    for algo in family.algos:
        try:
            results.append(m.bench.run_algo(algo, grid, start, goal, ladder, config))
        except m.InvalidProblemError:
            results.append(None)
    times["first_query"] = clock() - t
    work["first_query"] = {
        "expansions": sum(sum(r.expansions) for r in results if r is not None),
        "digest": digest([None if r is None else (r.status, r.path, float(r.cost).hex(),
                                                  list(r.expansions), r.generated)
                          for r in results]),
    }
    times["setup"] = sum(s for layer, s in times.items() if layer != "labels")
    return times, work


def measure(trees: list[Path], families=FAMILIES, repeats: int = 15, seed: int = 1) -> dict:
    """One run: every family's layers for every tree, as a JSON record."""
    mods = [load_tree(root, f"_setup_tree{i}") for i, root in enumerate(trees)]
    results = []
    for family in families:
        texts = map_texts(mods[0], family, seed)
        per_rep = [[] for _ in mods]  # per tree: each repeat's mean seconds per map, per layer
        work = [[None] * len(texts) for _ in mods]  # per tree, per map: per layer
        for rep in range(repeats):
            order = list(range(len(mods)))[::(-1) ** rep]
            sums = [{} for _ in mods]
            for idx, (map_id, text) in enumerate(texts):
                for i in order:
                    gc.collect()
                    times, w = set_up(mods[i], family, map_id, text, seed + idx)
                    if work[i][idx] is None:
                        work[i][idx] = w
                    elif work[i][idx] != w:
                        raise RuntimeError(f"tree {i}: {map_id} did different work on repeat {rep}")
                    for layer, s in times.items():
                        sums[i][layer] = sums[i].get(layer, 0.0) + s
            for i in range(len(mods)):
                per_rep[i].append({layer: s / len(texts) for layer, s in sums[i].items()})
        for layer in per_rep[0][0]:
            for i in range(len(mods)):
                ms = [rep[layer] * 1e3 for rep in per_rep[i]]
                q1, median, q3 = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
                results.append({
                    "family": family.name, "layer": layer, "tree": i,
                    "min_ms": round(min(ms), 4), "q1_ms": round(q1, 4),
                    "median_ms": round(median, 4), "q3_ms": round(q3, 4),
                    "work": [w[layer] for w in work[i]] if layer in work[i][0] else None,
                })
    works = [[r["work"] for r in results if r["tree"] == i] for i in range(len(mods))]
    return {
        "trees": [git_state(root) for root in trees],
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cores": len(os.sched_getaffinity(0))},
        "repeats": repeats,
        "seed": seed,
        "families": [family._asdict() for family in families],
        "same_work": all(w == works[0] for w in works),
        "results": results,
    }


def append_run(path: Path, run: dict, schema: str = SCHEMA) -> None:
    doc = {"schema": schema, "runs": []}
    if path.exists():
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("schema") != schema:
            raise SystemExit(f"{path}: schema is not {schema}")
    doc["runs"].append(run)
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="*", type=Path, default=[ROOT])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_setup.json")
    args = parser.parse_args(argv)
    run = measure([t.resolve() for t in args.trees], repeats=args.repeats)
    append_run(args.out, run)
    for r in run["results"]:
        print(f"{r['family']:8s} {r['layer']:18s} tree {r['tree']}: "
              f"min {r['min_ms']:.3f} ms, median {r['median_ms']:.3f} [{r['q1_ms']:.3f}, {r['q3_ms']:.3f}]")
    print(f"same work in every tree: {run['same_work']}; appended to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
