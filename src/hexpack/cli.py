"""Command-line driver.

Exit codes: 0 success/verified, 1 verification violations (including
no grow order), 2 usage or parse errors, 3 search budget exhausted.
Mesh arguments accept file paths or builtin:pyramid36,
builtin:parity_odd17, builtin:parity_even18; target patterns accept
builtin:pyramid16 and builtin:cube.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import (
    CheckpointError,
    DegenerateEdge,
    InvalidPlacement,
    MissingCoordinates,
    ParseError,
    ValidationError,
)
from .fixtures import FIXTURE_NAMES, load_fixture
from .formats import (
    export_obj_surface,
    export_vtk,
    parse_coords,
    parse_mesh,
    parse_pattern,
    write_mesh,
    write_witness,
)
from .geometry import (
    init_interior,
    optimize_embedding,
    pyramid_boundary_coords,
    quality_report,
)
from .hexmodel import (
    classify_vertices,
    extract_boundary,
    hex_parity,
    subdivide_hex,
)
from .search import (
    SearchOptions,
    find_grow_order,
    find_templates,
    search_min_packing,
)
from .surface import canonical_code, cube_pattern, pyramid16_pattern

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_EXHAUSTED = 3


def _read(path):
    with open(path) as fh:
        return fh.read()


def _load_mesh(arg):
    if arg.startswith("builtin:"):
        name = arg[len("builtin:"):]
        if name not in FIXTURE_NAMES:
            raise ParseError(
                f"unknown builtin mesh {name!r}; "
                f"choose from {', '.join(FIXTURE_NAMES)}"
            )
        return load_fixture(name)
    return parse_mesh(_read(arg))


def _load_target_code(arg, reflection_invariant):
    if arg == "builtin:pyramid16":
        pattern = pyramid16_pattern()
    elif arg == "builtin:cube":
        pattern = cube_pattern()
    elif arg.startswith("builtin:"):
        raise ParseError(
            f"unknown builtin target {arg!r}; "
            "choose builtin:pyramid16 or builtin:cube"
        )
    else:
        pattern = parse_pattern(_read(arg))
    return canonical_code(pattern, reflection_invariant)


def _options_from_args(args):
    return SearchOptions(
        sphere_mode=not args.no_sphere_mode,
        reflection_invariant=not getattr(args, "no_reflection", False),
        allowed_configs=tuple(args.configs),
        checkpoint_dir=getattr(args, "checkpoint", None),
    )


def _add_search_flags(sub, with_checkpoint=True):
    """The move-rule flags, and with_checkpoint those only a ledger
    search reads: --no-reflection (codes) and --checkpoint."""
    sub.add_argument("--no-sphere-mode", action="store_true",
                     help="allow non-sphere boundary topology")
    sub.add_argument("--configs", type=_config_list,
                     default=SearchOptions.allowed_configs,
                     help="comma-separated glue config ids (default all)")
    if with_checkpoint:
        sub.add_argument("--no-reflection", action="store_true",
                         help="treat mirror-image patterns as distinct")
        sub.add_argument("--checkpoint", metavar="DIR",
                         help="checkpoint directory (resumes if present)")


def _config_list(text):
    try:
        ids = [int(t) for t in text.split(",")]
        return SearchOptions(allowed_configs=ids).allowed_configs
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad config list {text!r}: {err}")


def cmd_verify(args):
    c, coords = _load_mesh(args.mesh)  # build_complex has checked it
    boundary = extract_boundary(c)
    bverts, iverts = classify_vertices(c)
    code = canonical_code(boundary, not args.no_reflection)
    print(f"hexes: {len(c.hexes)}")
    print(f"vertices: {c.vertex_count}")
    print(f"parity: {hex_parity(c)}")
    print(f"boundary quads: {len(boundary.quads)}")
    print(f"boundary vertices: {len(bverts)}")
    print(f"interior vertices: {len(iverts)}")
    print(f"boundary code: {code.hex()}")
    rc = EXIT_OK
    if args.target:
        want = _load_target_code(args.target, not args.no_reflection)
        if want == code:
            print("target: match")
        else:
            print(f"target: MISMATCH (target code {want.hex()})")
            rc = EXIT_VIOLATIONS
    if args.coords:
        if coords is None:
            raise MissingCoordinates("mesh file has no coordinate block")
        q = quality_report(c, np.array(coords))
        print(f"min scaled jacobian: {q.global_min:.6f}")
        print(f"nonpositive corners: {q.nonpositive_count}")
        if q.nonpositive_count:
            rc = EXIT_VIOLATIONS
    print("verified" if rc == EXIT_OK else "FAILED")
    return rc


def cmd_search(args):
    options = _options_from_args(args)
    target = _load_target_code(args.target, options.reflection_invariant)
    result = search_min_packing(target, args.max_hexes, options)
    stats = result.ledger.stats
    print(f"patterns seen: {len(result.ledger.records)}")
    print(f"states expanded: {stats.states_expanded}")
    if result.found:
        print(f"found: {result.count} hexes")
        print("witness: " + ";".join(pl.token() for pl in result.witness))
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(write_witness(result.witness))
            print(f"wrote {args.out}")
        return EXIT_OK
    print(f"exhausted: no packing within {args.max_hexes} hexes")
    return EXIT_EXHAUSTED


def cmd_templates(args):
    options = _options_from_args(args)
    records = find_templates(args.max_hexes, options)
    for rec in records:
        print(
            f"template: code {rec.code.hex()} "
            f"counts {rec.slot('odd')}/{rec.slot('even')}"
        )
        for parity in ("odd", "even"):
            tokens = ";".join(p.token() for p in rec.witness(parity))
            print(f"  {parity} witness: {tokens}")
    if not records:
        print(f"exhausted: no parity pair within {args.max_hexes} hexes")
        return EXIT_EXHAUSTED
    if args.out:
        for parity in ("odd", "even"):
            path = f"{args.out}_{parity}.witness"
            with open(path, "w") as fh:
                fh.write(write_witness(records[0].witness(parity)))
            print(f"wrote {path}")
    return EXIT_OK


def cmd_grow_order(args):
    c, _ = _load_mesh(args.mesh)
    result = find_grow_order(c, _options_from_args(args))
    if not result.found:
        print(f"NoOrderFound: {result.reason}")
        return EXIT_VIOLATIONS
    print("order: " + " ".join(str(h) for h in result.order))
    print("witness: " + ";".join(pl.token() for pl in result.witness))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(write_witness(result.witness))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_embed(args):
    c, _ = _load_mesh(args.mesh)
    if args.boundary == "builtin:pyramid":
        fixed = pyramid_boundary_coords()
    elif args.boundary.startswith("builtin:"):
        raise ParseError(f"unknown builtin boundary {args.boundary!r}")
    else:
        fixed = parse_coords(_read(args.boundary))
    start = init_interior(c, fixed)
    result = optimize_embedding(c, start, set(fixed))
    print(f"iterations: {result.iterations}")
    print(f"energy: {result.energy:.6e}")
    print(f"stop: {result.stop_reason}")
    print(f"min scaled jacobian: {result.report.global_min:.6f}")
    print(f"nonpositive corners: {result.report.nonpositive_count}")
    with open(args.out, "w") as fh:
        fh.write(export_vtk(c, result.embedding))
    print(f"wrote {args.out}")
    return EXIT_OK if result.report.nonpositive_count == 0 else EXIT_VIOLATIONS


def cmd_subdivide(args):
    c, coords = _load_mesh(args.mesh)
    if coords is None:
        fine = subdivide_hex(c)
        text = write_mesh(fine)
    else:
        fine, fine_coords = subdivide_hex(c, coords)
        text = write_mesh(fine, fine_coords)
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"hexes: {len(c.hexes)} -> {len(fine.hexes)}")
    print(f"vertices: {c.vertex_count} -> {fine.vertex_count}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_export(args):
    c, coords = _load_mesh(args.mesh)
    if coords is None:
        raise MissingCoordinates("mesh file has no coordinate block")
    if args.format == "vtk":
        text = export_vtk(c, np.array(coords))
    else:
        text = export_obj_surface(extract_boundary(c), np.array(coords))
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hexpack",
        description="hex packing search, verification, and embedding",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="validate a mesh and report its boundary")
    p.add_argument("mesh")
    p.add_argument("--target", help="pattern file or builtin:pyramid16/builtin:cube")
    p.add_argument("--coords", action="store_true",
                   help="also report embedding quality")
    p.add_argument("--no-reflection", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="minimum-hex packing for a target pattern")
    p.add_argument("--target", required=True)
    p.add_argument("--max-hexes", type=int, required=True)
    p.add_argument("-o", "--out", help="write the witness to a file")
    _add_search_flags(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("templates", help="find equal-boundary parity pairs")
    p.add_argument("--max-hexes", type=int, required=True)
    p.add_argument("-o", "--out", metavar="PREFIX",
                   help="write witnesses of the first pair to PREFIX_*.witness")
    _add_search_flags(p)
    p.set_defaults(func=cmd_templates)

    p = sub.add_parser("grow-order", help="find a move sequence building a mesh")
    p.add_argument("mesh")
    p.add_argument("-o", "--out", help="write the witness to a file")
    _add_search_flags(p, with_checkpoint=False)
    p.set_defaults(func=cmd_grow_order)

    p = sub.add_parser("embed", help="embed a mesh from prescribed boundary coords")
    p.add_argument("mesh")
    p.add_argument("--boundary", required=True,
                   help="coords file or builtin:pyramid")
    p.add_argument("-o", "--out", required=True, help="output VTK path")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("subdivide", help="split every hex into 8")
    p.add_argument("mesh")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_subdivide)

    p = sub.add_parser("export", help="write VTK or OBJ")
    p.add_argument("mesh")
    p.add_argument("--format", choices=("vtk", "obj"), required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_export)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if isinstance(err.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ValidationError as err:
        print(f"invalid: {err}", file=sys.stderr)
        for v in err.violations:
            print(f"  - {v.kind}: {v.message}", file=sys.stderr)
        return EXIT_VIOLATIONS
    except (ParseError, MissingCoordinates, CheckpointError, InvalidPlacement,
            DegenerateEdge) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
