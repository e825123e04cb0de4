"""Multi-resolution grid planning with a bounded-suboptimal anchor.

Plan over several grid discretizations at once: a set of weighted
best-first searches, one per resolution, share coincident states while
an exact anchor search on the unit lattice gates their expansions and
guarantees the returned cost is within a chosen factor of the
unit-lattice optimum.
"""

from .baselines import (
    dijkstra_optimal,
    wa_union,
    weighted_astar,
)
from .bench import BenchRow, write_results_csv
from .errors import (
    InvalidProblemError,
    MapParseError,
    MrastarError,
    ScenarioGenerationError,
    SearchCorruptionError,
)
from .grid import (
    Cell,
    GridMap,
    ResolutionLadder,
    coincides,
    edge_valid,
    fine_components,
    get_space_indices,
    heuristic,
    path_cost,
    successors_at_scale,
)
from .maps_io import (
    Scenario,
    gen_scenarios,
    load_map,
    parse_movingai_map,
    parse_vox3,
    serialize_movingai,
    serialize_vox3,
)
from .search import (
    MraSearch,
    OpenList,
    PlannerConfig,
    PlanResult,
    Problem,
    plan,
)
from .svg import render_svg, save_svg
from .synthetic import corridor_instance, cul_de_sac_instance, random_grid

__version__ = "0.1.0"

__all__ = [
    "BenchRow",
    "Cell",
    "GridMap",
    "InvalidProblemError",
    "MapParseError",
    "MraSearch",
    "MrastarError",
    "OpenList",
    "PlanResult",
    "PlannerConfig",
    "Problem",
    "ResolutionLadder",
    "Scenario",
    "ScenarioGenerationError",
    "SearchCorruptionError",
    "coincides",
    "corridor_instance",
    "cul_de_sac_instance",
    "dijkstra_optimal",
    "edge_valid",
    "fine_components",
    "gen_scenarios",
    "get_space_indices",
    "heuristic",
    "load_map",
    "parse_movingai_map",
    "parse_vox3",
    "path_cost",
    "plan",
    "random_grid",
    "render_svg",
    "save_svg",
    "serialize_movingai",
    "serialize_vox3",
    "successors_at_scale",
    "wa_union",
    "weighted_astar",
    "write_results_csv",
]
