"""End-to-end command tests driving main() in process."""

import json

from conftest import grid_complex

from hexpack.cli import main
from hexpack.fixtures import pyramid36
from hexpack.formats import (
    parse_mesh,
    parse_vtk,
    parse_witness,
    write_coords,
    write_mesh,
    write_pattern,
)
from hexpack.hexmodel import classify_vertices, extract_boundary
from hexpack.search import replay_witness
from hexpack.surface import canonical_code, cube_pattern


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -------------------------------------------------------------------- verify


def test_verify_bundled_meshes(capsys):
    for name in ("pyramid36", "parity_odd17", "parity_even18"):
        rc, out, _ = run(capsys, "verify", f"builtin:{name}")
        assert rc == 0
        assert "verified" in out
    rc, out, _ = run(capsys, "verify", "builtin:pyramid36")
    assert "hexes: 36" in out
    assert "vertices: 51" in out
    assert "boundary quads: 16" in out
    assert "interior vertices: 33" in out
    assert "parity: even" in out


def test_verify_against_matching_target(capsys):
    rc, out, _ = run(
        capsys, "verify", "builtin:pyramid36", "--target", "builtin:pyramid16"
    )
    assert rc == 0
    assert "target: match" in out


def test_verify_against_wrong_target(capsys):
    rc, out, _ = run(
        capsys, "verify", "builtin:pyramid36", "--target", "builtin:cube"
    )
    assert rc == 1
    assert "MISMATCH" in out
    assert "FAILED" in out


def test_verify_prints_equal_codes_for_the_template_pair(capsys):
    lines = {}
    for name in ("parity_odd17", "parity_even18"):
        rc, out, _ = run(capsys, "verify", f"builtin:{name}")
        assert rc == 0
        lines[name] = next(
            ln for ln in out.splitlines() if ln.startswith("boundary code:")
        )
    assert lines["parity_odd17"] == lines["parity_even18"]


def test_verify_reports_embedding_quality(capsys):
    rc, out, _ = run(capsys, "verify", "builtin:pyramid36", "--coords")
    assert rc == 0
    assert "min scaled jacobian: 0.089998" in out
    assert "nonpositive corners: 0" in out


def test_verify_coords_needs_a_coordinate_block(capsys):
    rc, _, err = run(capsys, "verify", "builtin:parity_odd17", "--coords")
    assert rc == 2
    assert "coordinate block" in err


def test_verify_rejects_nonconforming_mesh(tmp_path, capsys):
    bad = tmp_path / "bad.hexmesh"
    # three hexes stacked on one shared face
    bad.write_text(
        "hexmesh 16 3\n"
        "0 1 2 3 4 5 6 7\n"
        "0 1 2 3 8 9 10 11\n"
        "0 1 2 3 12 13 14 15\n"
    )
    rc, _, err = run(capsys, "verify", str(bad))
    assert rc == 1
    assert "invalid:" in err


def test_verify_counts_no_unused_vertex_as_interior(tmp_path, capsys):
    doc = tmp_path / "cube9.hexmesh"
    doc.write_text("hexmesh 9 1\n0 1 2 3 4 5 6 7\n")
    rc, out, _ = run(capsys, "verify", str(doc))
    assert rc == 0
    assert "vertices: 9" in out
    assert "boundary vertices: 8" in out
    assert "interior vertices: 0" in out


def test_verify_parse_error(tmp_path, capsys):
    doc = tmp_path / "broken.hexmesh"
    doc.write_text("hexmesh 8 1\n0 1 2 3 4 5 6\n")
    rc, _, err = run(capsys, "verify", str(doc))
    assert rc == 2
    assert "line 2" in err


def test_verify_unknown_builtin(capsys):
    rc, _, err = run(capsys, "verify", "builtin:banana")
    assert rc == 2
    assert "unknown builtin mesh" in err


def test_verify_missing_file(capsys):
    rc, _, err = run(capsys, "verify", "no/such/file.hexmesh")
    assert rc == 2
    assert "error:" in err


# -------------------------------------------------------------------- search


def test_search_finds_the_single_cube(tmp_path, capsys):
    out_path = tmp_path / "cube.witness"
    rc, out, _ = run(
        capsys,
        "search",
        "--target",
        "builtin:cube",
        "--max-hexes",
        "2",
        "-o",
        str(out_path),
    )
    assert rc == 0
    assert "found: 1 hexes" in out
    assert parse_witness(out_path.read_text()) == ()


def test_search_reads_a_target_pattern_file(tmp_path, capsys):
    target = tmp_path / "cube.quadpattern"
    target.write_text(write_pattern(cube_pattern()))
    rc, out, _ = run(
        capsys, "search", "--target", str(target), "--max-hexes", "1"
    )
    assert rc == 0
    assert "found: 1 hexes" in out
    target.write_text("quadpattern 6\n3 2 1\n")
    rc, _, err = run(
        capsys, "search", "--target", str(target), "--max-hexes", "1"
    )
    assert rc == 2
    assert "error: expected 6 data lines" in err


def test_search_exhausts_small_budget(capsys):
    rc, out, _ = run(
        capsys, "search", "--target", "builtin:pyramid16", "--max-hexes", "3"
    )
    assert rc == 3
    assert "exhausted" in out


def test_search_refuses_pruned_checkpoint_for_other_budget(capsys, tmp_path):
    ck = str(tmp_path / "ck")
    args = ("--target", "builtin:pyramid16", "--checkpoint", ck)
    rc, _, _ = run(capsys, "search", *args, "--max-hexes", "3")
    assert rc == 3
    rc, _, err = run(capsys, "search", *args, "--max-hexes", "6")
    assert rc == 2
    assert "max_hexes" in err
    rc, _, _ = run(capsys, "templates", "--checkpoint", ck, "--max-hexes", "4")
    assert rc == 2


def test_search_refuses_a_checkpoint_with_a_malformed_manifest(capsys, tmp_path):
    ck = tmp_path / "ck"
    args = ("search", "--target", "builtin:cube", "--max-hexes", "2")
    rc, _, _ = run(capsys, *args, "--checkpoint", str(ck))
    assert rc == 0
    manifest = json.loads((ck / "manifest.json").read_text())
    manifest["files"] = [1]
    for text in (json.dumps(manifest), "[]"):
        (ck / "manifest.json").write_text(text)
        rc, _, err = run(capsys, *args, "--checkpoint", str(ck))
        assert rc == 2
        assert "manifest" in err


def test_search_rejects_bad_config_lists(capsys):
    for bad in ("0", "1,9", "x", ""):
        rc, _, _ = run(
            capsys,
            "search",
            "--target",
            "builtin:cube",
            "--max-hexes",
            "1",
            "--configs",
            bad,
        )
        assert rc == 2


def test_search_writes_configs_as_a_set(capsys, tmp_path):
    ck = tmp_path / "ck"
    rc, _, _ = run(
        capsys, "search", "--target", "builtin:cube", "--max-hexes", "1",
        "--configs", "1,1", "--checkpoint", str(ck),
    )
    assert rc == 0
    manifest = json.loads((ck / "manifest.json").read_text())
    assert manifest["options"]["allowed_configs"] == [1]


def test_search_unknown_builtin_target(capsys):
    rc, _, err = run(
        capsys, "search", "--target", "builtin:banana", "--max-hexes", "1"
    )
    assert rc == 2
    assert "unknown builtin target" in err


# ----------------------------------------------------------------- templates


def test_templates_exhaust_small_budget(capsys):
    rc, out, _ = run(capsys, "templates", "--max-hexes", "3")
    assert rc == 3
    assert "no parity pair" in out


def test_templates_write_the_first_pair(tmp_path, capsys):
    # without sphere mode two codes reach both parities within 4 hexes
    prefix = str(tmp_path / "pair")
    rc, out, _ = run(
        capsys, "templates", "--max-hexes", "4", "--no-sphere-mode", "-o", prefix
    )
    assert rc == 0
    lines = out.splitlines()
    heads = [i for i, line in enumerate(lines) if line.startswith("template:")]
    assert len(heads) == 2
    codes = []
    for i in heads:
        _, _, code_hex, _, counts = lines[i].split()
        assert counts == "3/4"
        codes.append(bytes.fromhex(code_hex))
    # tied on their larger count, the pairs come in code order
    assert codes[0] < codes[1]
    first = lines[heads[0]:heads[1]]
    for parity, n in (("odd", 3), ("even", 4)):
        path = tmp_path / f"pair_{parity}.witness"
        assert f"wrote {path}" in lines
        witness = parse_witness(path.read_text())
        assert f"  {parity} witness: " + ";".join(
            pl.token() for pl in witness
        ) in first
        packing = replay_witness(witness)
        assert len(packing.hexes) == n
        assert canonical_code(extract_boundary(packing)) == codes[0]


# ---------------------------------------------------------------- grow-order


def test_grow_order_emits_a_replayable_witness(tmp_path, capsys):
    out_path = tmp_path / "odd17.witness"
    rc, out, _ = run(
        capsys, "grow-order", "builtin:parity_odd17", "-o", str(out_path)
    )
    assert rc == 0
    assert "order:" in out
    witness = parse_witness(out_path.read_text())
    assert len(witness) == 16  # one initial hex plus sixteen moves
    from hexpack.fixtures import parity_odd17

    packing = replay_witness(witness)
    assert canonical_code(extract_boundary(packing)) == canonical_code(
        extract_boundary(parity_odd17())
    )


def test_grow_order_reports_impossible_meshes(tmp_path, capsys):
    cells = [(x, y, 0) for x in range(3) for y in range(3) if (x, y) != (1, 1)]
    ring, _ = grid_complex(cells)
    path = tmp_path / "ring.hexmesh"
    path.write_text(write_mesh(ring))
    rc, out, _ = run(capsys, "grow-order", str(path))
    assert rc == 1
    assert "NoOrderFound" in out
    rc, out, _ = run(capsys, "grow-order", str(path), "--no-sphere-mode")
    assert rc == 0


# --------------------------------------------------------------------- embed


def test_embed_writes_an_untangled_vtk(tmp_path, capsys):
    out_path = tmp_path / "pyramid.vtk"
    rc, out, _ = run(
        capsys,
        "embed",
        "builtin:pyramid36",
        "--boundary",
        "builtin:pyramid",
        "-o",
        str(out_path),
    )
    assert rc == 0
    assert "nonpositive corners: 0" in out
    c, coords = parse_vtk(out_path.read_text())
    assert len(c.hexes) == 36
    assert len(coords) == 51


def test_embed_unknown_builtin_boundary(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "embed",
        "builtin:pyramid36",
        "--boundary",
        "builtin:sphere",
        "-o",
        str(tmp_path / "x.vtk"),
    )
    assert rc == 2
    assert "unknown builtin boundary" in err


def test_embed_collapsed_boundary_is_a_usage_error(tmp_path, capsys):
    boundary, _ = classify_vertices(pyramid36()[0])
    coords = tmp_path / "origin.coords"
    coords.write_text(write_coords({vid: (0.0, 0.0, 0.0) for vid in boundary}))
    out_path = tmp_path / "x.vtk"
    rc, _, err = run(
        capsys,
        "embed",
        "builtin:pyramid36",
        "--boundary",
        str(coords),
        "-o",
        str(out_path),
    )
    assert rc == 2
    assert err.startswith("error:") and "zero-length hex edge" in err
    assert not out_path.exists()


# --------------------------------------------------------- subdivide, export


def test_subdivide_multiplies_hexes_by_eight(tmp_path, capsys):
    out_path = tmp_path / "fine.hexmesh"
    rc, out, _ = run(
        capsys, "subdivide", "builtin:pyramid36", "-o", str(out_path)
    )
    assert rc == 0
    assert "hexes: 36 -> 288" in out
    fine, fine_coords = parse_mesh(out_path.read_text())
    assert len(fine.hexes) == 288
    assert fine_coords is not None


def test_subdivide_a_mesh_without_coordinates(tmp_path, capsys):
    out_path = tmp_path / "fine.hexmesh"
    rc, out, _ = run(
        capsys, "subdivide", "builtin:parity_odd17", "-o", str(out_path)
    )
    assert rc == 0
    assert "hexes: 17 -> 136" in out
    fine, fine_coords = parse_mesh(out_path.read_text())
    assert len(fine.hexes) == 136
    assert fine_coords is None


def test_export_vtk_and_obj(tmp_path, capsys):
    vtk_path = tmp_path / "mesh.vtk"
    rc, _, _ = run(
        capsys,
        "export",
        "builtin:pyramid36",
        "--format",
        "vtk",
        "-o",
        str(vtk_path),
    )
    assert rc == 0
    assert parse_vtk(vtk_path.read_text())[0].vertex_count == 51
    obj_path = tmp_path / "surface.obj"
    rc, _, _ = run(
        capsys,
        "export",
        "builtin:pyramid36",
        "--format",
        "obj",
        "-o",
        str(obj_path),
    )
    assert rc == 0
    faces = [
        l for l in obj_path.read_text().splitlines() if l.startswith("f ")
    ]
    assert len(faces) == 16


def test_export_needs_coordinates(tmp_path, capsys):
    rc, _, err = run(
        capsys,
        "export",
        "builtin:parity_odd17",
        "--format",
        "vtk",
        "-o",
        str(tmp_path / "x.vtk"),
    )
    assert rc == 2
    assert "coordinate block" in err


# --------------------------------------------------------------------- usage


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "search")[0] == 2  # --target and --max-hexes required
    assert run(capsys, "export", "builtin:pyramid36", "-o", "x")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    # a grow order computes no code, so it takes no --no-reflection
    assert run(capsys, "grow-order", "builtin:parity_odd17", "--no-reflection")[0] == 2
