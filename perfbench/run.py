#!/usr/bin/env python3
"""Benchmark of the multi-resolution planner on the pure-Python backend.

    python3 perfbench/run.py --workload plan3d --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` next to this directory.  One run builds the workload's maps and
queries from the seed, sets every map up (parse, scenario sampling,
first query), then runs rounds -- a pass over the queries by one
closed-loop client, then a round of oracle calls -- until --seconds have
passed (at least three rounds), checks every answer and prints one JSON
line of results last.  With --trace 1 the run also replays one pass and
one oracle round with every layer wrapped in spans and prints the
per-layer metrics instead of the end-to-end ones.  See README.md.

Exit status: 0 when every check passed, 1 when a check failed (the
result line is still printed, with "correct": false), 2 when the program
cannot be imported or the arguments are bad.
"""

import argparse
import hashlib
import importlib.util
import itertools
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from hostspeed import HostSpeed
from tracing import Tracer, oracle_targets, plan_targets, setup_targets
from workloads import ALGOS, SPECS, W, Spec, choose_pairs, make_maps, reference_labels, rng_for

ROOT = Path(__file__).resolve().parent.parent
COST_EPS = 1e-9  # relative slack on the float bound check cost <= bound * optimum
ERROR = object()  # outcome of a call that raised something other than a refusal
MIN_ROUNDS = 3  # every query runs at least this often; its latency is the median run


def load_program():
    """Import mrastar from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mrastar" / "__init__.py").is_file():
        raise ImportError(f"no mrastar package under {src}")
    sys.path.insert(0, str(src))
    import mrastar

    for sub in ("baselines", "bench", "grid", "kernels", "maps_io", "policies", "search"):
        importlib.import_module(f"mrastar.{sub}")
    if Path(mrastar.__file__).resolve().parent != (src / "mrastar").resolve():
        raise ImportError(f"mrastar imported from {mrastar.__file__}, not {src}")
    return mrastar


def environment(mrastar) -> dict:
    numba_enabled = bool(mrastar.kernels.NUMBA_ENABLED)
    return {
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "NUMBA_ENABLED": numba_enabled,
        "MRA_NO_NUMBA": os.environ.get("MRA_NO_NUMBA"),
        "MRA_THREADS": os.environ.get("MRA_THREADS"),
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        # The baseline is the pure-Python fallback; JIT numbers are another system.
        "comparable_with_fallback_baseline": not numba_enabled,
    }


@dataclass
class Query:
    qid: int
    map_idx: int
    task: int  # queries sharing start/goal on one map share a task id
    start: tuple
    goal: tuple
    algo: str
    config: object  # PlannerConfig; each task has its own planner seed


def answered(res) -> bool:
    return res is not None and res is not ERROR


def fingerprint(res) -> str | None:
    """Digest of every deterministic PlanResult field (all but
    wall_time); None for a refusal or an error."""
    if not answered(res):
        return None
    key = (res.status, [tuple(c) for c in res.path], float(res.cost).hex(),
           list(res.expansions), res.generated, res.winning_queue, res.bound)
    return hashlib.sha256(repr(key).encode()).hexdigest()[:16]


class Run:
    def __init__(self, mrastar, spec: Spec, seed: int, tracer: Tracer | None):
        self.m = mrastar
        self.spec = spec
        self.seed = seed
        self.tracer = tracer
        self.ladder = mrastar.ResolutionLadder(spec.ladder)
        self.config = mrastar.PlannerConfig(w1=W, w2=W, policy=spec.policy)
        self.failures: list[str] = []
        self.grids = []
        self.queries: list[Query] = []
        self.speed = HostSpeed()
        self.setup_times: list[tuple[float, float]] = []  # (raw seconds, block slowdown)
        self.slowdowns: list[float] = []  # host slowdown per round of the timed phase
        self.chosen: list[list] = []  # start/goal pairs per map
        self.reference: list[tuple] = []  # per task: (optimal cost, oracle work) from scipy
        self.unstable: set[int] = set()  # queries whose repeated results differ
        self.pass_seconds: list[float] = []  # wall time of each pass, for diagnosis

    def fail(self, msg: str) -> None:
        if len(self.failures) < 20:
            print(f"check failed: {msg}", file=sys.stderr)
        self.failures.append(msg)

    # -- set-up ---------------------------------------------------------

    def call(self, q: Query, grid):
        """One planner call as a user makes it."""
        return self.m.bench.run_algo(q.algo, grid, q.start, q.goal, self.ladder, q.config)

    def sample(self, idx: int):
        """Parse map idx and sample its scenarios with the program;
        returns (grid, [(start, goal)])."""
        spec = self.spec
        mp = self.maps[idx]
        parse = {"movingai": "parse_movingai_map", "vox3": "parse_vox3"}[mp.fmt]
        grid = getattr(self.m.maps_io, parse)(mp.text)
        if spec.sampler == "bench":
            tasks = self.m.bench.make_tasks([(mp.map_id, grid)], spec.pool, mp.seed)
            return grid, [(t.start, t.goal) for t in tasks]
        scens = self.m.maps_io.gen_scenarios(grid, spec.pool, mp.seed, map_id=mp.map_id)
        return grid, [(s.start, s.goal) for s in scens]

    def first_use(self, idx: int, grid) -> None:
        """The map's first query once for every algo, so that any lazy
        per-map work is paid in set-up."""
        for algo in self.spec.algos:
            try:
                self.call(Query(-1, idx, -1, *self.chosen[idx][0], algo, self.config), grid)
            except self.m.InvalidProblemError:
                pass

    def setup(self, maps) -> None:
        """Set every map up once and build the query list.  A map's
        set-up time is its parse, its scenario sampling and its first
        use; choosing the queries from the sampled pairs is the
        benchmark's own work and is not timed.  Further set-ups run after
        every round (see timed_phase)."""
        spec = self.spec
        self.maps = maps
        clock = time.perf_counter
        mark = self.speed.mark()
        sample_s, setup_s = [], []
        self.candidates = []  # sampled pairs per map
        for idx in range(len(maps)):
            self.speed.maybe_tick()
            t0 = clock()
            grid, candidates = self.sample(idx)
            sample_s.append(clock() - t0)
            self.grids.append(grid)
            self.candidates.append(candidates)
        # One child process, so that the reference's graphs (and
        # scipy.sparse) stay out of this process's peak_rss_mb.
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            chosen = list(pool.map(choose_pairs, [mp.blocked for mp in maps], self.candidates,
                                   itertools.repeat(spec.band), itertools.repeat(spec.queries)))
        # Planner seeds drawn per task: with one seed for all, the dts
        # policy's random stream would tilt every query of a run alike.
        seeds = rng_for(spec.name, self.seed, 2).integers(0, 2**31, spec.maps * spec.queries)
        task = 0
        for idx, mp in enumerate(maps):
            if len(chosen[idx]) < spec.queries:
                raise RuntimeError(f"{mp.map_id}: only {len(chosen[idx])} queries in band")
            self.chosen.append([pair for pair, _ in chosen[idx]])
            self.reference += [ref for _, ref in chosen[idx]]
            self.speed.maybe_tick()
            t0 = clock()
            self.first_use(idx, self.grids[idx])
            setup_s.append(sample_s[idx] + clock() - t0)
            self.check_inputs(mp, self.grids[idx], self.candidates[idx])
            for start, goal in self.chosen[idx]:
                config = replace(self.config, seed=int(seeds[task]))
                for algo in spec.algos:
                    self.queries.append(Query(0, idx, task, start, goal, algo, config))
                task += 1
        slowdown = self.speed.slowdown(mark)
        self.setup_times += [(t, slowdown) for t in setup_s]

    def resetup(self, first: int) -> list[float]:
        """Set the `resetups` maps from index `first` on (cyclically) up
        again, timed as in setup; returns the times."""
        out = []
        for i in range(first, first + self.spec.resetups):
            idx = i % len(self.maps)
            mp = self.maps[idx]
            self.speed.maybe_tick()
            t0 = time.perf_counter()
            grid, candidates = self.sample(idx)
            self.first_use(idx, grid)
            out.append(time.perf_counter() - t0)
            if candidates != self.candidates[idx]:
                self.fail(f"{mp.map_id}: scenario sampling differs between set-ups")
        return out

    def check_inputs(self, mp, grid, pairs) -> None:
        """Every sampled pair joins two distinct free cells of one reference
        component, and the parsed map equals the generated one."""
        if not np.array_equal(grid.blocked, mp.blocked):
            self.fail(f"{mp.map_id}: parsed map differs from the generated one")
        labels = reference_labels(mp.blocked)
        for start, goal in pairs:
            a, b = labels[tuple(reversed(start))], labels[tuple(reversed(goal))]
            if start == goal or a == 0 or a != b:
                self.fail(f"{mp.map_id}: {start}->{goal} is not a connected pair")

    # -- checks ---------------------------------------------------------

    def verify(self, q: Query, res) -> str:
        """Outcome of a first execution: solved, refused or failed."""
        if res is None:
            return "refused"
        if res.status != "solved":
            if q.algo == "wa-low" and res.status == "exhausted":
                return "refused"  # the coarse lattice alone may not connect the pair
            self.fail(f"query {q.qid} {q.algo}: status {res.status}")
            return "failed"
        grid = self.grids[q.map_idx]
        path = [tuple(c) for c in res.path]
        if not path or path[0] != q.start or path[-1] != q.goal:
            self.fail(f"query {q.qid} {q.algo}: path does not join start and goal")
            return "failed"
        try:
            for a, b in zip(path, path[1:]):
                if not self.m.grid.edge_valid(a, b, grid):
                    self.fail(f"query {q.qid} {q.algo}: invalid edge {a}->{b}")
                    return "failed"
            cost = self.m.grid.path_cost(path)
        except (ValueError, self.m.MrastarError) as exc:
            self.fail(f"query {q.qid} {q.algo}: bad path: {exc}")
            return "failed"
        if cost != res.cost:
            self.fail(f"query {q.qid} {q.algo}: cost {res.cost} != path cost {cost}")
            return "failed"
        return "solved"

    # -- timed phase ----------------------------------------------------

    def timed_phase(self, order: list[Query], seconds: float):
        """Closed loop, one client, in rounds: a full pass over `order`,
        one oracle round, then the set-up of the next maps.  Rounds
        repeat until `seconds` have passed, and at least MIN_ROUNDS
        times, so every query and timed oracle call runs in several
        windows of the run.  A repeated execution
        whose result differs from the first is a failure.  Each round
        records the host's slowdown over it (hostspeed.py); the times
        returned are raw."""
        times = {q.qid: [] for q in order}
        first = {}
        oracle = Oracle(self, order)
        clock = time.perf_counter
        t_start = clock()
        rounds = 0
        while rounds < MIN_ROUNDS or clock() - t_start < seconds:
            mark = self.speed.mark()
            t_pass = clock()
            for q in order:
                self.speed.maybe_tick()
                t0 = clock()
                res = self.execute(q)
                times[q.qid].append(clock() - t0)
                fp = fingerprint(res)
                if rounds == 0:
                    first[q.qid] = (res, fp)
                elif first[q.qid][1] != fp:
                    self.fail(f"query {q.qid} {q.algo}: result differs between executions")
                    self.unstable.add(q.qid)
            self.pass_seconds.append(clock() - t_pass)
            oracle.round(oracle.checked if rounds == 0 else oracle.timed)
            again = self.resetup(rounds * self.spec.resetups)
            rounds += 1
            slowdown = self.speed.slowdown(mark)
            self.slowdowns.append(slowdown)
            self.setup_times += [(t, slowdown) for t in again]
        return times, first, oracle

    def execute(self, q: Query):
        """The planner's result, None for an expected refusal (wa-low
        endpoints off its sublattice), ERROR for anything else raised."""
        try:
            return self.call(q, self.grids[q.map_idx])
        except Exception as exc:
            if q.algo == "wa-low" and isinstance(exc, self.m.InvalidProblemError):
                return None
            self.fail(f"query {q.qid} {q.algo}: raised {type(exc).__name__}: {exc}")
            return ERROR

    def traced_pass(self, order: list[Query]):
        """One pass with every plan layer wrapped; returns results and
        per-query traced seconds."""
        tr = self.tracer
        results, times = {}, {}
        query_span = {}
        with tr.patched(plan_targets(self.m)):
            for q in order:
                tr.qid = q.qid
                fn = query_span.setdefault(q.algo, tr.wrap(self.execute, f"query.{q.algo}"))
                t0 = time.perf_counter()
                results[q.qid] = fn(q)
                times[q.qid] = time.perf_counter() - t0
        tr.qid = -1
        return results, times


class Oracle:
    """dijkstra_optimal over a workload's tasks.

    The timed sample is the `oracle_sample` tasks whose reference work
    (cells settled before the goal) is nearest `oracle_target`; `checked`
    (the tasks the oracle answers in the first round) is every task or
    that sample.  Every answer must match the reference optimum."""

    def __init__(self, run: Run, order: list[Query]):
        self.run = run
        spec = run.spec
        self.rep = {}
        for q in order:
            self.rep.setdefault(q.task, q)
        tasks = list(self.rep)
        self.timed = sorted(tasks, key=lambda t: abs(run.reference[t][1] - spec.oracle_target))[
            : spec.oracle_sample]
        self.checked = tasks if spec.check_all else self.timed
        self.optimum = {}  # first answer per task
        self.seconds = {}  # call times per timed task

    def round(self, tasks) -> None:
        run = self.run
        for t in tasks:
            q = self.rep[t]
            run.speed.maybe_tick()
            if run.tracer is not None:
                run.tracer.qid = q.qid
            t0 = time.perf_counter()
            opt = run.m.baselines.dijkstra_optimal(run.grids[q.map_idx], q.start, q.goal)
            dt = time.perf_counter() - t0
            if t in self.timed:
                self.seconds.setdefault(t, []).append(dt)
            ref = run.reference[t][0]
            if not math.isclose(opt, ref, rel_tol=COST_EPS):
                run.fail(f"task {t}: oracle cost {opt} != reference optimum {ref}")
            elif self.optimum.setdefault(t, opt) != opt:
                run.fail(f"task {t}: oracle result differs between calls")
        if run.tracer is not None:
            run.tracer.qid = -1

    def times(self, slowdowns) -> list[float]:
        """Median call time per timed task, each call's time divided by
        the slowdown of its round."""
        return [statistics.median(dt / f for dt, f in zip(self.seconds[t], slowdowns))
                for t in self.timed]


def quantile(values, p: float) -> float:
    return float(np.percentile(values, p)) if values else 0.0


def run_workload(mrastar, spec: Spec, seed: int, seconds: float, trace: bool):
    """Run one workload; returns (result line dict, detail dict)."""
    tracer = Tracer() if trace else None
    run = Run(mrastar, spec, seed, tracer)
    maps = make_maps(spec, seed)
    if tracer is not None:
        with tracer.patched(setup_targets(mrastar)):
            run.setup(maps)
    else:
        run.setup(maps)

    # Shuffle tasks, keeping a task's algos together, so maps interleave.
    rng = rng_for(spec.name, seed, 0x5EED)
    n_tasks = max(q.task for q in run.queries) + 1
    rank = {t: r for r, t in enumerate(rng.permutation(n_tasks).tolist())}
    order = sorted(run.queries, key=lambda q: (rank[q.task], spec.algos.index(q.algo)))
    for qid, q in enumerate(order):
        q.qid = qid

    times, first, oracle = run.timed_phase(order, seconds)
    oracle_times = oracle.times(run.slowdowns)
    verdict = {}
    for q in order:
        res, _ = first[q.qid]
        verdict[q.qid] = "failed" if res is ERROR or q.qid in run.unstable else run.verify(q, res)

    traced = None
    if tracer is not None:
        traced = run.traced_pass(order)
        for q in order:
            res = traced[0][q.qid]
            if fingerprint(res) != first[q.qid][1]:
                run.fail(f"query {q.qid} {q.algo}: traced result differs")
                verdict[q.qid] = "failed"
        with tracer.patched(oracle_targets(mrastar)):
            oracle.round(oracle.timed)

    # Every answer is bound-checked against the reference optimum, which
    # every oracle answer matched.
    ratios = []
    for q in order:
        if verdict[q.qid] != "solved" or q.algo == "wa-low":
            continue  # wa-low's bound is relative to its own coarse lattice
        res = first[q.qid][0]
        opt = run.reference[q.task][0]
        if not res.cost <= res.bound * opt * (1 + COST_EPS):
            run.fail(f"query {q.qid} {q.algo}: cost {res.cost} > {res.bound} x {opt}")
            verdict[q.qid] = "failed"
        elif q.algo == "mra":
            ratios.append(res.cost / opt)

    # A call's latency is the median of its executions, which are spread
    # over the run's rounds, each divided by its round's host slowdown;
    # on a host whose speed drifts, the median of several rounds moves
    # less from run to run than the fastest one does.  Every call ran
    # the same number of times.  Latency is per
    # task (a start/goal pair): its one mra call, or on bench2d its five
    # run_algo calls, whose mixed speeds would put a per-call median in
    # the gap between fast and slow algos.
    passes = len(times[order[0].qid])
    task_s, task_ok = {}, {}
    for q in order:
        task_s[q.task] = task_s.get(q.task, 0.0) + statistics.median(
            dt / f for dt, f in zip(times[q.qid], run.slowdowns))
        task_ok[q.task] = task_ok.get(q.task, True) and verdict[q.qid] != "failed"
    latencies = list(task_s.values())
    n_solved = sum(1 for v in verdict.values() if v == "solved")
    n_failed = sum(1 for v in verdict.values() if v == "failed")
    attempted = passes * len(order)
    failed = passes * n_failed
    correct = not run.failures
    if not correct and not failed:
        failed = len(run.failures)  # input-level failures not tied to one query

    counters = work_counters(order, first, verdict)
    digests = {
        "scenarios": digest([m.text for m in maps] + [
            (q.map_idx, q.start, q.goal, q.algo) for q in order]),
        "results": digest([first[q.qid][1] for q in order]),
    }
    detail = {
        "workload": spec.name,
        "seed": seed,
        "spec": asdict(spec),
        "environment": environment(mrastar),
        "queries": len(order),
        "passes": passes,
        "pass_seconds": run.pass_seconds,
        "setup_seconds": [t for t, _ in run.setup_times],
        "slowdowns": run.slowdowns,
        "setup_slowdown": run.setup_times[0][1],
        "latency_samples": len(latencies),
        "oracle_samples": len(oracle_times),
        "cost_ratio_samples": len(ratios),
        "failures": run.failures[:20],
        "counters": counters,
        "digests": digests,
    }

    if tracer is None:
        metrics = {
            "queries_per_s": (sum(task_ok.values()) / sum(latencies), "1/s"),
            "plan_ms_p50": (quantile(latencies, 50) * 1e3, "ms"),
            "plan_ms_p90": (quantile(latencies, 90) * 1e3, "ms"),
            "setup_s": (statistics.median(t / f for t, f in run.setup_times), "s"),
            "oracle_ms_p50": (statistics.median(oracle_times) * 1e3, "ms"),
            "cost_ratio_mean": (statistics.fmean(ratios) if ratios else 0.0, "ratio"),
            "solved_frac": (n_solved / len(order), "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = per_layer(tracer, spec, order, traced, times)
        detail["span_calls"] = {k: v[0] for k, v in sorted(tracer.stats.items())}
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{spec.name}-{seed}.jsonl"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def digest(items) -> str:
    h = hashlib.sha256()
    for it in items:
        h.update(repr(it).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def work_counters(order, first, verdict) -> dict:
    """Deterministic work over one pass of the distinct queries."""
    per_algo = {}
    for q in order:
        res = first[q.qid][0]
        c = per_algo.setdefault(q.algo, {"queries": 0, "solved": 0, "refused": 0,
                                         "expansions": [], "generated": 0})
        c["queries"] += 1
        if verdict[q.qid] == "solved":
            c["solved"] += 1
        if not answered(res):
            c["refused"] += res is None
            continue
        exp = c["expansions"]
        exp.extend([0] * (len(res.expansions) - len(exp)))
        for i, e in enumerate(res.expansions):
            exp[i] += e
        c["generated"] += res.generated
    return per_algo


def per_layer(tr: Tracer, spec: Spec, order, traced, untraced) -> dict:
    """Per-layer metrics from the traced set-up, pass and oracle calls;
    untraced maps each query to its untraced execution times."""
    results, times = traced
    m = {}
    n_maps = spec.maps  # only the first set-up of each map is traced

    def ms_per_map(name):
        return tr.total(name) / n_maps * 1e3

    m["maps_io.parse.ms_per_map"] = (ms_per_map("maps_io.parse"), "ms")
    m["maps_io.gen_scenarios.ms_per_map"] = (ms_per_map("maps_io.gen_scenarios"), "ms")
    m["grid.fine_components.ms_per_map"] = (ms_per_map("grid.fine_components"), "ms")
    for k in (1, 7, 21, 9, 27):
        name = f"grid.successors_at_scale.k{k}"
        calls = tr.calls(name)
        m[f"grid.successors_at_scale.calls.k{k}"] = (calls, "count")
        m[f"grid.successors_at_scale.us_per_call.k{k}"] = (tr.per_call(name, 1e6), "us")
        moves = tr.stats[name][3] / calls if calls else 0.0
        m[f"grid.successors_at_scale.moves_per_call.k{k}"] = (moves, "count")
    for name in ("grid.get_space_indices", "grid.heuristic"):
        m[f"{name}.calls"] = (tr.calls(name), "count")
        m[f"{name}.us_per_call"] = (tr.per_call(name, 1e6), "us")
    m["grid.path_cost.us_per_call"] = (tr.per_call("grid.path_cost", 1e6), "us")
    for d in ("2d", "3d"):
        m[f"kernels.successors_{d}.us_per_call"] = (
            tr.per_call(f"kernels.successors_{d}", 1e6), "us")
        m[f"kernels.component_labels_{d}.ms_per_map"] = (
            ms_per_map(f"kernels.component_labels_{d}"), "ms")
        m[f"kernels.dijkstra_{d}.ms_per_call"] = (tr.per_call(f"kernels.dijkstra_{d}", 1e3), "ms")

    mra = [q for q in order if q.algo == "mra" and answered(results[q.qid])]
    n_mra = len(mra)
    exp_q = [0, 0, 0]
    generated = 0
    for q in mra:
        res = results[q.qid]
        for i, e in enumerate(res.expansions):
            exp_q[i] += e
        generated += res.generated
    total_exp = sum(exp_q)
    for i in range(3):
        m[f"search.expansions.q{i}"] = (exp_q[i] / n_mra if n_mra else 0.0, "count")
    m["search.generated"] = (generated / n_mra if n_mra else 0.0, "count")
    m["search.anchor_share"] = (exp_q[0] / total_exp if total_exp else 0.0, "ratio")
    m["search.us_per_expansion"] = (
        tr.total("query.mra") / total_exp * 1e6 if total_exp else 0.0, "us")
    m["search.self_us_per_expansion"] = (
        tr.stats["search.MraSearch.run"][2] / total_exp * 1e6 if total_exp else 0.0, "us")
    m["search.construct_us_per_query"] = (
        (tr.total("search.Problem") + tr.total("search.MraSearch.init")) / n_mra * 1e6
        if n_mra else 0.0, "us")
    for op in ("pop", "insert_or_update", "min_key"):
        name = f"search.OpenList.{op}"
        m[f"{name}.calls"] = (tr.calls(name), "count")
        m[f"{name}.us_per_call"] = (tr.per_call(name, 1e6), "us")
    moves = sum(tr.stats[f"grid.successors_at_scale.k{k}"][3] for k in (1, 7, 21, 9, 27))
    m["search.relax_ratio"] = (
        tr.calls("search.OpenList.insert_or_update") / moves if moves else 0.0, "ratio")
    m["policies.choose_queue.calls"] = (tr.calls("policies.choose_queue"), "count")
    m["policies.choose_queue.us_per_call"] = (tr.per_call("policies.choose_queue", 1e6), "us")
    m["policies.update.calls"] = (tr.calls("policies.update"), "count")

    for algo in ("wa-high", "wa-mr", "astar"):
        exps = sum(sum(results[q.qid].expansions) for q in order
                   if q.algo == algo and answered(results[q.qid]))
        m[f"baselines.{algo}.expansions"] = (exps, "count")
        m[f"baselines.{algo}.us_per_expansion"] = (
            tr.total(f"query.{algo}") / exps * 1e6 if exps else 0.0, "us")
    m["baselines.dijkstra_optimal.ms_per_call"] = (
        tr.per_call("baselines.dijkstra_optimal", 1e3), "ms")

    per_algo = {}
    for q in order:
        per_algo.setdefault(q.algo, []).append(statistics.median(untraced[q.qid]))
    for algo in ALGOS:
        m[f"bench.run_algo.ms_p50.{algo}"] = (
            quantile(per_algo.get(algo, []), 50) * 1e3 if spec.sampler == "bench" else 0.0,
            "ms")
    m["bench.refused"] = (sum(1 for q in order if results[q.qid] is None), "count")
    base = sum(statistics.median(v) for v in untraced.values())
    m["trace.overhead_frac"] = (sum(times.values()) / base - 1.0, "ratio")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        mrastar = load_program()
    except ImportError as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    result, detail = run_workload(mrastar, SPECS[args.workload], args.seed,
                                  args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
