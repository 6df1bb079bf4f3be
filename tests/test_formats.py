import numpy as np
import pytest
from conftest import UNIT_CUBE_COORDS

from hexpack.errors import MissingCoordinates, ParseError
from hexpack.fixtures import FIXTURE_NAMES, fixture_text, load_fixture
from hexpack.formats import (
    export_obj_surface,
    export_vtk,
    parse_coords,
    parse_mesh,
    parse_pattern,
    parse_vtk,
    parse_witness,
    write_coords,
    write_mesh,
    write_pattern,
    write_witness,
)
from hexpack.hexmodel import extract_boundary
from hexpack.moves import Placement
from hexpack.surface import SurfacePattern, canonical_code

CUBE_DOC = """\
# a single unit cell, coordinates first
hexmesh 8 1

0 0 0
1 0 0
1 1 0
0 1 0
0 0 1
1 0 1
1 1 1
0 1 1
0 1 2 3 4 5 6 7   # the one hex
"""


def test_mesh_document_round_trip_with_coords():
    c, coords = parse_mesh(CUBE_DOC)
    assert c.vertex_count == 8
    assert c.hexes == ((0, 1, 2, 3, 4, 5, 6, 7),)
    assert coords == [tuple(row) for row in UNIT_CUBE_COORDS]
    text = write_mesh(c, coords)
    assert parse_mesh(text) == (c, coords)
    # normalization is idempotent
    assert write_mesh(*parse_mesh(text)) == text


def test_mesh_document_without_coordinates():
    c, coords = parse_mesh("hexmesh 8 1\n0 1 2 3 4 5 6 7\n")
    assert coords is None
    text = write_mesh(c)
    assert "\n0 1 2 3 4 5 6 7\n" in text
    assert parse_mesh(text) == (c, None)


def test_bundled_fixtures_parse_and_normalize():
    assert set(FIXTURE_NAMES) == {"pyramid36", "parity_odd17", "parity_even18"}
    for name in FIXTURE_NAMES:
        c, coords = parse_mesh(fixture_text(name))
        assert load_fixture(name) == (c, coords)
        normalized = write_mesh(c, coords)
        assert write_mesh(*parse_mesh(normalized)) == normalized
    assert parse_mesh(fixture_text("pyramid36"))[1] is not None
    assert parse_mesh(fixture_text("parity_odd17"))[1] is None


@pytest.mark.parametrize(
    "doc,lineno",
    [
        ("", None),
        ("hexmesh 8\n", 1),
        ("quadmesh 8 1\n", 1),
        ("hexmesh a b\n", 1),
        ("hexmesh -1 0\n", 1),
        ("hexmesh 8 1\n0 1 2 3 4 5 6\n", 2),
        ("hexmesh 8 1\n0 1 2 3 4 5 six 7\n", 2),
        ("hexmesh 8 2\n0 1 2 3 4 5 6 7\n", None),  # wrong line count
        ("hexmesh 1 0\n0 nan 0\n", 2),
        ("hexmesh 1 0\n# a comment\n0 0 -inf\n", 3),
    ],
)
def test_mesh_parse_errors_carry_line_numbers(doc, lineno):
    with pytest.raises(ParseError) as err:
        parse_mesh(doc)
    assert err.value.line == lineno
    if lineno is not None:
        assert f"line {lineno}:" in str(err.value)


def test_pattern_document_round_trip(cube):
    p = extract_boundary(cube)
    text = write_pattern(p)
    assert text.startswith("quadpattern 6\n")
    back = parse_pattern(text)
    assert back == p
    assert canonical_code(back) == canonical_code(p)


@pytest.mark.parametrize(
    "doc",
    [
        "quadpattern x\n",
        "quadpattern 1\n0 1 2\n",
        "quadpattern 2\n0 1 2 3\n",
        "witness 1\n0 1 2 3\n",
        "quadpattern 1\n0 1 2 nan\n",
    ],
)
def test_pattern_parse_errors(doc):
    with pytest.raises(ParseError):
        parse_pattern(doc)


def test_coords_round_trip_is_repr_exact():
    mapping = {
        0: (0.1, -1.0 / 3.0, 2.5e-17),
        7: (1.41421, 0.0, -0.66667),
        3: (1e300, -1e-300, 123456789.123456789),
    }
    back = parse_coords(write_coords(mapping))
    assert back == mapping  # shortest-repr floats survive exactly
    # rows come out sorted by vertex id
    assert write_coords(mapping).splitlines()[1].startswith("0 ")


def test_coords_parse_errors():
    with pytest.raises(ParseError):
        parse_coords("coords 1\n0 1 2\n")
    with pytest.raises(ParseError) as err:
        parse_coords("coords 2\n0 1 2 3\n0 4 5 6\n")
    assert "twice" in str(err.value)
    for doc in ("coords 1\n0 inf nan 1\n", "coords 1\n0 1 2 1e999\n"):
        with pytest.raises(ParseError) as err:
            parse_coords(doc)
        assert err.value.line == 2
    with pytest.raises(ValueError):
        write_coords({0: (float("inf"), 0.0, 0.0)})


def test_witness_round_trip():
    witness = tuple(
        Placement.from_token(t) for t in ("1:0:0", "1:0:1", "2:9:3,5")
    )
    text = write_witness(witness)
    assert text.splitlines()[0] == "witness 3"
    assert parse_witness(text) == witness


def test_witness_parse_errors():
    with pytest.raises(ParseError):
        parse_witness("witness 1\n1:0\n")  # token too short
    with pytest.raises(ParseError):
        parse_witness("witness 1\nx:0:0\n")
    with pytest.raises(ParseError):
        parse_witness("witness 2\n1:0:0\n")
    with pytest.raises(ParseError):
        parse_witness("coords 1\n1:0:0\n")


def test_vtk_export_and_rereading(cube, cube_coords):
    text = export_vtk(cube, cube_coords, title="one cell")
    lines = text.splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[1] == "one cell"
    assert "POINTS 8 double" in lines
    assert "CELLS 1 9" in lines
    assert lines[-1] == "12"
    c2, coords2 = parse_vtk(text)
    assert c2 == cube
    assert np.array(coords2) == pytest.approx(cube_coords)


def test_vtk_round_trip_on_bundled_mesh():
    c, coords = load_fixture("pyramid36")
    c2, coords2 = parse_vtk(export_vtk(c, coords))
    assert c2 == c
    assert coords2 == coords


@pytest.mark.parametrize(
    "mangle",
    [
        lambda t: t.replace("ASCII", "BINARY"),
        lambda t: t.replace("CELL_TYPES 1\n12", "CELL_TYPES 1\n10"),
        lambda t: t.replace("8 0 1 2 3 4 5 6 7", "4 0 1 2 3"),
        lambda t: t[: t.index("CELLS")],
        lambda t: t.replace("POINTS 8 double\n0.0", "POINTS 8 double\nnan"),
    ],
)
def test_vtk_parse_errors(cube, cube_coords, mangle):
    with pytest.raises(ParseError):
        parse_vtk(mangle(export_vtk(cube, cube_coords)))


def test_obj_surface_export(cube, cube_coords):
    p = extract_boundary(cube)
    text = export_obj_surface(p, cube_coords)
    lines = text.splitlines()
    vlines = [l for l in lines if l.startswith("v ")]
    flines = [l for l in lines if l.startswith("f ")]
    assert len(vlines) == 8
    assert len(flines) == 6
    used = {int(t) for l in flines for t in l.split()[1:]}
    assert used == set(range(1, 9))  # 1-based, every vertex referenced


def test_obj_counts_for_the_pyramid_surface():
    c, coords = load_fixture("pyramid36")
    p = extract_boundary(c)
    flines = [
        l
        for l in export_obj_surface(p, coords).splitlines()
        if l.startswith("f ")
    ]
    assert len(flines) == 16


def test_exports_demand_coordinates(cube, cube_coords):
    with pytest.raises(MissingCoordinates):
        export_vtk(cube, None)
    with pytest.raises(MissingCoordinates):
        export_obj_surface(extract_boundary(cube), None)
    with pytest.raises(MissingCoordinates):
        export_vtk(cube, cube_coords[:5])
    with pytest.raises(MissingCoordinates):
        write_mesh(cube, cube_coords[:5])
    # a sequence has no coordinates for -1, though coords[-1] would index
    shifted = SurfacePattern(
        [tuple(v - 1 for v in q) for q in extract_boundary(cube).quads]
    )
    with pytest.raises(MissingCoordinates, match=r"\[-1\]"):
        export_obj_surface(shifted, cube_coords)
