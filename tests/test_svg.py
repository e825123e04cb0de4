"""SVG rendering: structure checks, no pixel-level golden files."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest

from mrastar import grid as G
from mrastar import search as S
from mrastar import svg
from mrastar import synthetic as syn


def test_render_is_wellformed_xml():
    g = syn.random_grid((12, 10), 0.3, seed=2)
    text = svg.render_svg(g)
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert "viewBox" in root.attrib


def test_render_overlays_present():
    grid, start, goal = syn.corridor_instance(0)
    res = S.plan(S.Problem(grid, start, goal, ladder=[1, 7]), log_expansions=True)
    expanded = [cell for _, cell in res.expansion_log]
    text = svg.render_svg(grid, path=res.path, expanded=expanded,
                          start=start, goal=goal)
    root = ET.fromstring(text)
    tags = [child.tag.split("}")[-1] for child in root.iter()]
    assert "polyline" in tags  # solution line
    assert "circle" in tags  # goal marker
    points = next(el for el in root.iter() if el.tag.endswith("polyline")).get("points")
    assert points.split()[0] == f"{start[0]},{start[1]}"
    assert points.split()[-1] == f"{goal[0]},{goal[1]}"


def test_render_rejects_3d():
    g = G.GridMap.empty((4, 4, 4))
    with pytest.raises(ValueError):
        svg.render_svg(g)


def test_blocked_cells_covered():
    blocked = np.zeros((6, 6), bool)
    blocked[2, 1:4] = True
    g = G.GridMap((6, 6), blocked)
    root = ET.fromstring(svg.render_svg(g))
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    # background plus at least one run-length-merged obstacle rect
    assert len(rects) >= 2
    obstacle = [r for r in rects if float(r.get("width")) == 3.0]
    assert len(obstacle) == 1  # the three-cell run merged into one rect


def test_save_svg(tmp_path):
    g = syn.random_grid((8, 8), 0.2, seed=1)
    out = tmp_path / "map.svg"
    svg.save_svg(out, g)
    assert out.read_text().startswith("<svg")


def test_save_svg_writes_no_file_when_rendering_fails(tmp_path):
    out = tmp_path / "cube.svg"
    with pytest.raises(ValueError, match="2D map"):
        svg.save_svg(out, G.GridMap.empty((4, 4, 4)))
    assert not out.exists()
