"""Command-line interface: plan one query, benchmark, or sweep a knob.

Exit codes for `plan`: 0 solved, 2 exhausted, 3 timeout, 1 usage or
input error.  `bench` and `sweep` exit 0 on success, 1 on usage/input
errors.
"""

import argparse
import glob
import math
import os
import re
import sys

from .bench import (
    ALGOS,
    make_tasks,
    run_algo,
    run_bench,
    run_sweep,
    summarize,
    write_summary_csv,
    write_sweep_csv,
)
from .errors import MrastarError
from .grid import ResolutionLadder
from .maps_io import load_map, write_results_csv
from .search import PlannerConfig
from .svg import save_svg

_POLICY_ALIASES = {"rr": "round_robin", "round_robin": "round_robin", "dts": "dts"}

# Negative values argparse would read as options: -inf, -nan, -1,0, -1e3.
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")

    def _parse_optional(self, arg_string):
        # No option starts with "-<digit>", "-inf" or "-nan", so such a token
        # is a value and reaches the value checks.
        if _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _parse_cell(text: str) -> tuple[int, ...]:
    try:
        cell = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"bad cell {text!r}; expected x,y or x,y,z") from None
    if len(cell) not in (2, 3):
        raise ValueError(f"bad cell {text!r}; expected 2 or 3 coordinates")
    return cell


def _parse_ladder(text: str) -> ResolutionLadder:
    return ResolutionLadder(tuple(int(p) for p in text.split(",")))


def _parse_values(text: str) -> list[float]:
    return [float(p) for p in text.split(",")]


def _add_common(p: argparse.ArgumentParser, weights: bool = True) -> None:
    p.add_argument("--format", choices=("movingai", "vox3"), required=True)
    p.add_argument("--res", default="1,7,21", help="resolution ladder, e.g. 1,7,21")
    if weights:  # sweep sets both weights itself (--vary, --values, --fix)
        p.add_argument("--w1", type=float, default=3.0)
        p.add_argument("--w2", type=float, default=3.0)
    p.add_argument("--policy", choices=sorted(_POLICY_ALIASES), default="rr")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--timeout", type=float, default=math.inf, help="seconds")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mrastar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan a single start/goal query")
    p.add_argument("--map", required=True)
    _add_common(p)
    p.add_argument("--start", required=True, help="x,y or x,y,z")
    p.add_argument("--goal", required=True, help="x,y or x,y,z")
    p.add_argument("--algo", choices=tuple(ALGOS), default="mra")
    p.add_argument("--emit-path", metavar="FILE", default=None)
    p.add_argument("--emit-svg", metavar="FILE", default=None)

    b = sub.add_parser("bench", help="run planners over sampled scenarios")
    b.add_argument("--maps", required=True, help="glob of map files")
    _add_common(b)
    b.add_argument("--scenarios", type=int, default=10)
    b.add_argument("--algos", default="mra,wa-high,wa-low,wa-mr,astar",
                   help=f"comma list from {','.join(ALGOS)}")
    b.add_argument("--out", required=True, help="results CSV path")
    b.add_argument("--summary", default=None, help="summary CSV path")

    s = sub.add_parser("sweep", help="vary w1 or w2 and record mean time/cost")
    s.add_argument("--maps", required=True, help="glob of map files")
    _add_common(s, weights=False)
    s.add_argument("--scenarios", type=int, default=1)
    s.add_argument("--vary", choices=("w1", "w2"), required=True)
    s.add_argument("--values", required=True, help="comma list, e.g. 1,2,3,5,10")
    s.add_argument("--fix", type=float, default=3.0,
                   help="value of the non-varied weight")
    s.add_argument("--repeats", type=int, default=1,
                   help="timing repeats per instance (min is kept)")
    s.add_argument("--out", required=True, help="sweep CSV path")
    return parser


def _config(args, w1: float, w2: float) -> PlannerConfig:
    return PlannerConfig(
        w1=w1,
        w2=w2,
        policy=_POLICY_ALIASES[args.policy],
        timeout=args.timeout,
        seed=args.seed,
    )


def _load_maps(pattern: str, fmt: str) -> list[tuple[str, object]]:
    paths = sorted(glob.glob(pattern))
    if not paths:
        raise MrastarError(f"no maps matched {pattern!r}")
    return [(os.path.basename(p), load_map(p, fmt)) for p in paths]


def cmd_plan(args) -> int:
    grid = load_map(args.map, args.format)
    ladder = _parse_ladder(args.res)
    start = _parse_cell(args.start)
    goal = _parse_cell(args.goal)
    want_svg = args.emit_svg is not None
    config = _config(args, args.w1, args.w2)
    result = run_algo(args.algo, grid, start, goal, ladder, config, log_expansions=want_svg)
    cost = f"{result.cost:.6f}" if result.status == "solved" else "-"
    expansions = "|".join(str(e) for e in result.expansions)
    print(
        f"status={result.status} cost={cost} expansions={expansions} "
        f"generated={result.generated} time_s={result.wall_time:.6f}"
    )
    if args.emit_path:
        with open(args.emit_path, "w", encoding="utf-8") as fh:
            for cell in result.path:
                fh.write(",".join(str(c) for c in cell) + "\n")
    if want_svg:
        expanded = [cell for _, cell in (result.expansion_log or [])]
        save_svg(args.emit_svg, grid, path=result.path, expanded=expanded,
                 start=start, goal=goal)
    return {"solved": 0, "exhausted": 2, "timeout": 3}[result.status]


def cmd_bench(args) -> int:
    maps = _load_maps(args.maps, args.format)
    ladder = _parse_ladder(args.res)
    config = _config(args, args.w1, args.w2)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for a in algos:
        if a not in ALGOS:
            raise MrastarError(f"unknown algo {a!r}; choose from {','.join(ALGOS)}")
    tasks = make_tasks(maps, args.scenarios, args.seed)
    rows = run_bench(tasks, algos, ladder, config)
    write_results_csv(rows, args.out)
    if args.summary:
        write_summary_csv(summarize(rows), args.summary)
    solved = sum(1 for r in rows if r.status == "solved")
    print(f"wrote {len(rows)} rows to {args.out} ({solved} solved)")
    return 0


def cmd_sweep(args) -> int:
    maps = _load_maps(args.maps, args.format)
    ladder = _parse_ladder(args.res)
    # run_sweep sets the varied weight per value
    config = _config(args, args.fix, args.fix)
    values = _parse_values(args.values)
    tasks = make_tasks(maps, args.scenarios, args.seed)
    rows = run_sweep(tasks, args.vary, values, config, ladder, repeats=args.repeats)
    write_sweep_csv(rows, args.out)
    for r in rows:
        print(
            f"{r['param']}={r['value']:g} mean_time_s={r['mean_time_s']:.6f} "
            f"solved={r['solved']}/{r['instances']}"
        )
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):
            return 0
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
        return 1
    try:
        if args.command == "plan":
            return cmd_plan(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_sweep(args)
    except (MrastarError, ValueError, OSError) as exc:
        print(f"mrastar: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
