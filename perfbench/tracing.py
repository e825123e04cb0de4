"""Spans around the program's layers, recorded from outside.

The tracer swaps module and class attributes for timing wrappers, as
the consuming modules see them (``mrastar.search.successors_at_scale``
is the name the search loop looks up, so that is the one replaced), and
puts the originals back when the phase ends.  Wrappers are installed per
phase so that, for instance, the successor kernel is not traced while
the oracle Dijkstra calls it millions of times internally.

Each span has a name, start, end, parent span and query id.  Aggregates
(calls, total and self time, returned items) are kept for every span;
full span records only for the first KEEP_QUERIES queries, to bound
memory.
"""

import contextlib
import json
import time
from collections import defaultdict

KEEP_QUERIES = 4


class Tracer:
    def __init__(self):
        # name -> [calls, total_s, self_s, items]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.spans: list[tuple] = []
        self.qid = -1
        self._stack: list[list] = []  # [child_s, span_id] per open span
        self._next_id = 0

    def wrap(self, fn, name, key=None, items=None):
        """fn wrapped so every call records a span named name (plus
        key(args) when given); items(result) is added to the span's
        item count, e.g. the moves a successor call returned."""
        stats, stack, spans, clock = self.stats, self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            label = name if key is None else name + key(args)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                rec = stats[label]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                if self.qid < KEEP_QUERIES:
                    spans.append((sid, label, t0, t1, parent, self.qid))
            if items is not None:
                rec[3] += items(out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Install wrappers for (owner, attr, name, key, items) targets;
        restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, key, items in targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self.wrap(orig, name, key, items))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def total(self, name: str) -> float:
        return self.stats[name][1] if name in self.stats else 0.0

    def per_call(self, name: str, scale: float) -> float:
        """Mean span time in 1/scale seconds (scale 1e6 gives µs); 0 when
        the layer was never called."""
        n = self.calls(name)
        return self.total(name) / n * scale if n else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, label, t0, t1, parent, qid in self.spans:
                fh.write(json.dumps({"id": sid, "name": label, "start": t0, "end": t1,
                                     "parent": parent, "query": qid}) + "\n")


def setup_targets(mrastar):
    m = mrastar
    return [
        (m.maps_io, "parse_movingai_map", "maps_io.parse", None, None),
        (m.maps_io, "parse_vox3", "maps_io.parse", None, None),
        (m.maps_io, "gen_scenarios", "maps_io.gen_scenarios", None, None),
        (m.bench, "gen_scenarios", "maps_io.gen_scenarios", None, None),
        (m.maps_io, "fine_components", "grid.fine_components", None, None),
        (m.kernels, "component_labels_2d", "kernels.component_labels_2d", None, None),
        (m.kernels, "component_labels_3d", "kernels.component_labels_3d", None, None),
    ]


def _k_suffix(args):
    return f".k{args[1]}"


def plan_targets(mrastar):
    m = mrastar
    out = []
    for mod in (m.search, m.baselines):
        out += [
            (mod, "successors_at_scale", "grid.successors_at_scale", _k_suffix, len),
            (mod, "get_space_indices", "grid.get_space_indices", None, None),
            (mod, "heuristic", "grid.heuristic", None, None),
            (mod, "path_cost", "grid.path_cost", None, None),
        ]
    out += [
        (m.kernels, "successors_2d", "kernels.successors_2d", None, None),
        (m.kernels, "successors_3d", "kernels.successors_3d", None, None),
        (m.search.Problem, "__init__", "search.Problem", None, None),
        (m.search.MraSearch, "__init__", "search.MraSearch.init", None, None),
        (m.search.MraSearch, "run", "search.MraSearch.run", None, None),
    ]
    for op in ("pop", "insert_or_update", "min_key"):
        out.append((m.search.OpenList, op, f"search.OpenList.{op}", None, None))
    for cls in (m.policies.RoundRobin, m.policies.DynamicThompson):
        out += [
            (cls, "choose_queue", "policies.choose_queue", None, None),
            (cls, "update", "policies.update", None, None),
        ]
    return out


def oracle_targets(mrastar):
    m = mrastar
    return [
        (m.baselines, "dijkstra_optimal", "baselines.dijkstra_optimal", None, None),
        (m.kernels, "dijkstra_2d", "kernels.dijkstra_2d", None, None),
        (m.kernels, "dijkstra_3d", "kernels.dijkstra_3d", None, None),
    ]
