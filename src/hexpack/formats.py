"""Text formats: mesh and pattern documents, VTK/OBJ export, witnesses.

All formats are line oriented, whitespace tolerant and comment friendly
('#' starts a comment).  Headers are a format word plus integer counts;
see docs/formats.md for the byte-exact grammar.
"""

from __future__ import annotations

import math

from .errors import MissingCoordinates, ParseError
from .hexmodel import build_complex
from .moves import Placement
from .surface import build_pattern


def _data_lines(text):
    """(1-based line number, token list) for non-comment non-blank lines."""
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((no, body.split()))
    return out


def _fmt(x):
    """Shortest round-trip decimal for a float, integers without dot."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite coordinate {x}")
    return repr(x)


def _document(text, header, body_sizes=lambda n: (n,)):
    """(counts, body) of a text document.

    The first data line is the header: the word and integer counts that
    header spells, as in 'coords N'.  body holds the other data lines
    as (line number, tokens); body_sizes maps the counts to the numbers
    of them allowed.
    """
    word, *names = header.split()
    lines = _data_lines(text)
    if not lines:
        raise ParseError("empty document")
    no, (got, *counts) = lines[0]
    try:
        counts = [int(t) for t in counts]
    except ValueError:
        counts = None
    if got != word or counts is None or len(counts) != len(names):
        raise ParseError(f"expected header '{header}'", no)
    if min(counts) < 0:
        raise ParseError("negative count in header", no)
    body = lines[1:]
    sizes = sorted(set(body_sizes(*counts)))
    if len(body) not in sizes:
        raise ParseError(
            f"expected {' or '.join(map(str, sizes))} data lines, "
            f"found {len(body)}"
        )
    return counts, body


def _row(no, toks, types, what):
    """A data line's tokens converted by types, one type per token.

    Numbers must be finite.  Any fault raises ParseError at line no,
    naming what the line should hold.
    """
    if len(toks) != len(types):
        raise ParseError(f"expected {what}, got {len(toks)} tokens", no)
    try:
        row = tuple(t(x) for t, x in zip(types, toks))
    except ValueError:
        raise ParseError(f"bad value in {what}", no) from None
    if not all(math.isfinite(x) for t, x in zip(types, row) if t is float):
        raise ParseError(f"non-finite value in {what}", no)
    return row


def parse_mesh(text):
    """Parse a hexmesh document -> (HexComplex, coords-or-None).

    Layout: header `hexmesh V H`, then V coordinate lines (optional,
    detected by line count), then H hex lines of 8 vertex ids.
    """
    (nv, nh), body = _document(text, "hexmesh V H", lambda nv, nh: (nh, nv + nh))
    ncoords = len(body) - nh
    coords = [
        _row(no, toks, (float,) * 3, "3 coordinates")
        for no, toks in body[:ncoords]
    ]
    hexes = [
        _row(no, toks, (int,) * 8, "8 vertex ids") for no, toks in body[ncoords:]
    ]
    return build_complex(hexes, nv), coords or None


def write_mesh(c, coords=None):
    """Serialize a complex (and optional coordinates) as a hexmesh document."""
    out = [f"hexmesh {c.vertex_count} {len(c.hexes)}"]
    if coords is not None:
        if len(coords) != c.vertex_count:
            raise MissingCoordinates(
                f"{len(coords)} coordinate rows for {c.vertex_count} vertices"
            )
        for row in coords:
            out.append(" ".join(_fmt(x) for x in row))
    for h in c.hexes:
        out.append(" ".join(str(v) for v in h))
    return "\n".join(out) + "\n"


def parse_pattern(text):
    """Parse a quadpattern document -> SurfacePattern."""
    _, body = _document(text, "quadpattern F")
    return build_pattern(
        _row(no, toks, (int,) * 4, "4 vertex ids") for no, toks in body
    )


def write_pattern(p):
    out = [f"quadpattern {len(p.quads)}"]
    for q in p.quads:
        out.append(" ".join(str(v) for v in q))
    return "\n".join(out) + "\n"


def parse_coords(text):
    """Parse a coords document -> dict of vertex id to (x, y, z)."""
    _, body = _document(text, "coords N")
    out = {}
    for no, toks in body:
        vid, *xyz = _row(no, toks, (int, float, float, float), "'id x y z'")
        if vid in out:
            raise ParseError(f"vertex {vid} listed twice", no)
        out[vid] = tuple(xyz)
    return out


def write_coords(mapping):
    out = [f"coords {len(mapping)}"]
    for vid in sorted(mapping):
        out.append(f"{vid} " + " ".join(_fmt(x) for x in mapping[vid]))
    return "\n".join(out) + "\n"


def parse_witness(text):
    """Parse a witness document -> tuple of Placements."""
    _, body = _document(text, "witness N")
    return tuple(
        _row(no, toks, (Placement.from_token,), "one placement token")[0]
        for no, toks in body
    )


def write_witness(witness):
    out = [f"witness {len(witness)}"]
    out.extend(pl.token() for pl in witness)
    return "\n".join(out) + "\n"


def _require_coords(coords, needed, what):
    if coords is None:
        raise MissingCoordinates(f"{what} requires vertex coordinates")
    if isinstance(coords, dict):
        missing = [v for v in needed if v not in coords]
    else:
        missing = [v for v in needed if not 0 <= v < len(coords)]
    if missing:
        raise MissingCoordinates(
            f"no coordinates for vertices {missing[:8]}{'...' if len(missing) > 8 else ''}"
        )


def export_vtk(c, coords, title="hexpack mesh"):
    """Legacy ASCII VTK unstructured grid with hexahedron cells.

    The viewer's hexahedron node order coincides with the cube corner
    order used throughout this package (bottom cycle 0..3 under top
    cycle 4..7), so connectivity is emitted unchanged.
    """
    _require_coords(coords, range(c.vertex_count), "VTK export")
    out = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {c.vertex_count} double",
    ]
    for v in range(c.vertex_count):
        out.append(" ".join(_fmt(x) for x in coords[v]))
    out.append(f"CELLS {len(c.hexes)} {9 * len(c.hexes)}")
    for h in c.hexes:
        out.append("8 " + " ".join(str(v) for v in h))
    out.append(f"CELL_TYPES {len(c.hexes)}")
    out.extend("12" for _ in c.hexes)
    return "\n".join(out) + "\n"


def parse_vtk(text):
    """Read back a legacy ASCII VTK hexahedron grid -> (HexComplex, coords)."""
    lines = text.splitlines()
    if len(lines) < 3:
        raise ParseError("truncated VTK document")
    toks = []
    for raw in lines[2:]:  # skip the version banner and the title line
        toks.extend(raw.split())
    def expect(word, got):
        if got != word:
            raise ParseError(f"expected {word!r}, found {got!r}")
    it = iter(toks)
    try:
        expect("ASCII", next(it))
        expect("DATASET", next(it))
        expect("UNSTRUCTURED_GRID", next(it))
        expect("POINTS", next(it))
        nv = int(next(it))
        next(it)  # dtype
        coords = [
            (float(next(it)), float(next(it)), float(next(it)))
            for _ in range(nv)
        ]
        expect("CELLS", next(it))
        nh = int(next(it))
        int(next(it))
        hexes = []
        for _ in range(nh):
            n = int(next(it))
            if n != 8:
                raise ParseError(f"cell with {n} nodes is not a hexahedron")
            hexes.append(tuple(int(next(it)) for _ in range(8)))
        expect("CELL_TYPES", next(it))
        int(next(it))
        for _ in range(nh):
            if int(next(it)) != 12:
                raise ParseError("non-hexahedron cell type")
    except StopIteration:
        raise ParseError("truncated VTK document") from None
    except ValueError as err:
        raise ParseError(f"bad VTK token: {err}") from None
    if not all(math.isfinite(x) for row in coords for x in row):
        raise ParseError("non-finite VTK point coordinate")
    return build_complex(hexes, nv), coords


def export_obj_surface(p, coords):
    """Wavefront OBJ with one quad face per pattern quad, outward, 1-based."""
    verts = p.vertices
    _require_coords(coords, verts, "OBJ export")
    number = {v: i + 1 for i, v in enumerate(verts)}
    out = []
    for v in verts:
        out.append("v " + " ".join(_fmt(x) for x in coords[v]))
    for q in p.quads:
        out.append("f " + " ".join(str(number[v]) for v in q))
    return "\n".join(out) + "\n"
