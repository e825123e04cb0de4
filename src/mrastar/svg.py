"""Static SVG rendering of a 2D map with search overlays.

Blocked cells are dark, expanded states are red dots, the solution is a
blue polyline; start and goal get green/orange markers.  3D maps render
as their z-slice stack is out of scope; callers pass a 2D grid.
"""

from .grid import Cell, GridMap


def render_svg(
    grid: GridMap,
    path: list[Cell] | None = None,
    expanded: list[Cell] | None = None,
    start: Cell | None = None,
    goal: Cell | None = None,
) -> str:
    """Render to an SVG string, one unit per cell, y growing downward."""
    if grid.dim != 2:
        raise ValueError("SVG rendering expects a 2D map")
    w, h = grid.extents
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="-0.5 -0.5 {w + 1} {h + 1}" '
        f'width="{8 * w}" height="{8 * h}">',
        f'<rect x="-0.5" y="-0.5" width="{w + 1}" height="{h + 1}" fill="#f8f8f5"/>',
    ]
    blocked = grid.blocked
    for y in range(h):
        x = 0
        while x < w:
            if not blocked[y, x]:
                x += 1
                continue
            run = x
            while run < w and blocked[y, run]:
                run += 1
            parts.append(
                f'<rect x="{x - 0.5}" y="{y - 0.5}" width="{run - x}" height="1" '
                'fill="#3a3a3a"/>'
            )
            x = run
    if expanded:
        dots = " ".join(f"M{c[0]},{c[1]} h0" for c in expanded)
        parts.append(
            f'<path d="{dots}" stroke="#d33" stroke-width="0.55" '
            'stroke-linecap="round" fill="none"/>'
        )
    if path and len(path) >= 2:
        points = " ".join(f"{c[0]},{c[1]}" for c in path)
        parts.append(
            f'<polyline points="{points}" stroke="#1560bd" stroke-width="0.35" '
            'fill="none" stroke-linejoin="round"/>'
        )
    if start is not None:
        parts.append(
            f'<rect x="{start[0] - 0.45}" y="{start[1] - 0.45}" width="0.9" '
            'height="0.9" fill="#1a7f37"/>'
        )
    if goal is not None:
        parts.append(
            f'<circle cx="{goal[0]}" cy="{goal[1]}" r="0.45" fill="#e07b00"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def save_svg(path_out: str, *args, **kwargs) -> None:
    """render_svg(*args, **kwargs) written to path_out; the file is
    opened only once rendering has succeeded."""
    svg = render_svg(*args, **kwargs)
    with open(path_out, "w", encoding="utf-8") as fh:
        fh.write(svg)
