"""Map file formats and scenario sampling.

Supported formats:

* movingai: the 2D benchmark format with a four-line header (``type
  octile`` / ``height H`` / ``width W`` / ``map``) followed by H rows of
  W glyphs.  ``.``, ``G`` and ``S`` are passable; ``@``, ``O``, ``T``
  and ``W`` are blocked.
* vox3: a 3D text format with header ``vox3 W H D`` followed by D
  slices of H rows of W glyphs (``.`` free, ``#`` blocked), slices
  separated by one blank line.

Serializers emit a canonical form (``.``/``@`` for movingai); parsing a
serialized map always round-trips.
"""

from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import MapParseError, ScenarioGenerationError
from .grid import Cell, GridMap, check_int, fine_components

MOVINGAI_FREE = frozenset(".GS")
MOVINGAI_BLOCKED = frozenset("@OTW")


def _glyph_tables(free, blocked) -> tuple[dict, bytes]:
    """Per format: a str.translate table deleting every valid glyph, so
    that a row holds an unknown glyph iff something is left of it, and a
    bytes.translate table mapping free glyphs to 0 and blocked ones to 1."""
    glyphs = "".join(free) + "".join(blocked)
    valid = str.maketrans("", "", glyphs)
    bits = bytes.maketrans(glyphs.encode("ascii"), bytes(len(free)) + b"\1" * len(blocked))
    return valid, bits


_MOVINGAI_VALID, _MOVINGAI_BITS = _glyph_tables(MOVINGAI_FREE, MOVINGAI_BLOCKED)
_VOX3_VALID, _VOX3_BITS = _glyph_tables(".", "#")


def _check_row(row: str, width: int, valid: dict, line: int) -> None:
    """Raise MapParseError unless row is `width` valid glyphs (those the
    translate table `valid` deletes); names the first bad glyph."""
    if len(row) != width:
        raise MapParseError(
            f"row has {len(row)} glyphs, expected {width}", line, min(len(row), width) + 1
        )
    if row.translate(valid):
        x = next(x for x, ch in enumerate(row) if ch.translate(valid))
        raise MapParseError(f"unknown glyph {row[x]!r}", line, x + 1)


def _checked_body(rows: list[str], count: int, width: int, valid: dict) -> str | None:
    """The rows joined into one string if there are count >= 1 of them
    and each is `width` valid glyphs (those the translate table `valid`
    deletes), else None: one str.translate over the whole body.  With
    count * width glyphs in all, a longest row of width means every row
    has width."""
    body = "".join(rows)
    if (len(rows) == count and len(body) == count * width
            and max(map(len, rows)) == width and not body.translate(valid)):
        return body
    return None


def _blocked(body: str, bits: bytes, shape) -> np.ndarray:
    """The occupancy array of a checked body of rows, by the
    bytes.translate table bits (glyph to 0 or 1)."""
    data = body.encode("ascii").translate(bits)
    return np.frombuffer(data, bool).reshape(shape)


def parse_movingai_map(text: str) -> GridMap:
    """Parse the 2D benchmark map format; raises MapParseError with a
    1-based line (and column, for glyph errors) on malformed input.

    The rows are checked as one body (_checked_body); only when that
    check fails are they checked row by row, to name the first bad one."""
    lines = text.splitlines()

    def want(idx: int, what: str) -> str:
        if idx >= len(lines):
            raise MapParseError(f"missing {what}", idx + 1)
        return lines[idx].rstrip("\r")

    header = want(0, "'type octile' header")
    if header.split() != ["type", "octile"]:
        raise MapParseError(f"expected 'type octile', got {header!r}", 1)

    def dim_line(idx: int, name: str) -> int:
        raw = want(idx, f"'{name} N' header")
        parts = raw.split()
        if len(parts) != 2 or parts[0] != name:
            raise MapParseError(f"expected '{name} N', got {raw!r}", idx + 1)
        try:
            value = int(parts[1])
        except ValueError:
            raise MapParseError(f"bad {name} value {parts[1]!r}", idx + 1) from None
        if value < 1:
            raise MapParseError(f"{name} must be positive, got {value}", idx + 1)
        return value

    height = dim_line(1, "height")
    width = dim_line(2, "width")
    if want(3, "'map' header") != "map":
        raise MapParseError(f"expected 'map', got {lines[3]!r}", 4)

    body = _checked_body(lines[4:4 + height], height, width, _MOVINGAI_VALID)
    if body is None:  # raises at the first missing or bad row
        for y in range(height):
            row = want(4 + y, f"map row {y + 1} of {height}")
            _check_row(row, width, _MOVINGAI_VALID, 5 + y)
    for extra in range(4 + height, len(lines)):
        if lines[extra].strip():
            raise MapParseError("unexpected content after map rows", extra + 1)
    return GridMap((width, height), _blocked(body, _MOVINGAI_BITS, (height, width)))


def serialize_movingai(grid: GridMap) -> str:
    if grid.dim != 2:
        raise ValueError("movingai maps are 2D")
    w, h = grid.extents
    rows = _glyph_rows(grid.blocked, b"@")
    return "\n".join(["type octile", f"height {h}", f"width {w}", "map", *rows]) + "\n"


def _glyph_rows(blocked: np.ndarray, glyph: bytes) -> list[str]:
    """One string per row (last axis) of blocked: glyph where blocked,
    "." where free."""
    text = np.where(blocked, glyph, b".").tobytes().decode("ascii")
    w = blocked.shape[-1]
    return [text[i:i + w] for i in range(0, len(text), w)]


def parse_vox3(text: str) -> GridMap:
    """Parse the 3D slice format; raises MapParseError on malformed input.

    The rows are checked as one body (_checked_body) when every slice
    separator is empty or whitespace only; only when that check fails
    are they walked slice by slice and row by row, to name the first bad
    line."""
    lines = text.splitlines()  # no line keeps a "\r": it ends a line
    if not lines:
        raise MapParseError("missing 'vox3 W H D' header", 1)
    parts = lines[0].split()
    if len(parts) != 4 or parts[0] != "vox3":
        raise MapParseError(f"expected 'vox3 W H D', got {lines[0]!r}", 1)
    try:
        w, h, d = (int(p) for p in parts[1:])
    except ValueError:
        raise MapParseError(f"bad dimensions in {lines[0]!r}", 1) from None
    if min(w, h, d) < 1:
        raise MapParseError(f"dimensions must be positive, got {w}x{h}x{d}", 1)

    end = d * (h + 1)  # the header, then d slices of h rows with a separator between
    rows = lines[1:end]
    del rows[h::h + 1]  # the separators
    body = None
    if not any(map(str.strip, lines[h + 1:end:h + 1])):
        body = _checked_body(rows, d * h, w, _VOX3_VALID)
    if body is None:  # raises at the first missing or bad line
        idx = 1
        for z in range(d):
            if z > 0:
                if idx >= len(lines) or lines[idx].strip():
                    raise MapParseError(f"expected blank line before slice {z + 1}", idx + 1)
                idx += 1
            for y in range(h):
                if idx >= len(lines):
                    raise MapParseError(
                        f"missing row {y + 1} of slice {z + 1}", len(lines) + 1
                    )
                _check_row(lines[idx], w, _VOX3_VALID, idx + 1)
                idx += 1
    for extra in range(end, len(lines)):
        if lines[extra].strip():
            raise MapParseError("unexpected content after last slice", extra + 1)
    return GridMap((w, h, d), _blocked(body, _VOX3_BITS, (d, h, w)))


def serialize_vox3(grid: GridMap) -> str:
    if grid.dim != 3:
        raise ValueError("vox3 maps are 3D")
    w, h, d = grid.extents
    rows = _glyph_rows(grid.blocked, b"#")
    slices = ["\n".join(rows[z * h:(z + 1) * h]) for z in range(d)]
    return f"vox3 {w} {h} {d}\n" + "\n\n".join(slices) + "\n"


def load_map(path: str, fmt: str) -> GridMap:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "movingai":
        return parse_movingai_map(text)
    if fmt == "vox3":
        return parse_vox3(text)
    raise ValueError(f"unknown map format {fmt!r}")


class Scenario(NamedTuple):
    """One sampled query: map_id, index, start and goal (cells) and the
    sampler's seed, in that order."""

    map_id: str
    index: int
    start: Cell
    goal: Cell
    seed: int


# gen_scenarios' attempt budget: the draws it makes before it gives up
MAX_ATTEMPTS = 10**6


def gen_scenarios(grid: GridMap, count: int, seed: int, map_id: str = "map") -> list[Scenario]:
    """Sample `count` start/goal pairs of free cells in the same fine
    connected component, by rejection from a seeded generator.

    The pairs live on the unit lattice; planners that need sublattice
    endpoints reject unsuitable pairs themselves.  count and seed go
    through grid.check_int; ScenarioGenerationError is raised once
    MAX_ATTEMPTS draws are spent.
    """
    count, seed = check_int("count", count), check_int("seed", seed)
    free = np.flatnonzero(~grid.flat_blocked)
    if len(free) < 2:
        raise ScenarioGenerationError(
            f"map has {len(free)} free cells; need at least 2"
        )
    labels = fine_components(grid).ravel()
    rng = np.random.default_rng(seed)
    starts, goals = [free[:0]], [free[:0]]  # accepted flat ids, per chunk
    found = attempts = 0
    chunk = 1024  # draws are batched; the accept/reject order is fixed
    while found < count:
        if attempts >= MAX_ATTEMPTS:
            raise ScenarioGenerationError(
                f"found {found}/{count} connected pairs in {attempts} attempts"
            )
        n = min(chunk, MAX_ATTEMPTS - attempts)
        pairs = free[rng.integers(0, len(free), size=(n, 2))]
        a, b = pairs[:, 0], pairs[:, 1]
        hits = np.flatnonzero((a != b) & (labels[a] == labels[b]))[:count - found]
        starts.append(a[hits])
        goals.append(b[hits])
        found += len(hits)
        attempts += n

    def cells(ids):  # only the accepted draws become cells: int tuples, x first
        coords = np.unravel_index(np.concatenate(ids), grid.blocked.shape)
        return zip(*(axis.tolist() for axis in reversed(coords)))

    # each record is tuple.__new__(Scenario, its fields), which skips the
    # call to Scenario.__new__
    fields = zip(repeat(map_id), range(count), cells(starts), cells(goals), repeat(seed))
    return list(map(tuple.__new__, repeat(Scenario), fields))
