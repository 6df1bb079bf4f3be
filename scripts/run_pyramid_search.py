#!/usr/bin/env python3
"""Long-running search for a minimum hex packing of the subdivided pyramid.

Runs the layered pattern search toward the 16-quad pyramid boundary,
checkpointing every layer so the run can be stopped and resumed at will.
Progress is printed per layer, and the witness plus the reconstructed
mesh are written on success.  The default budget of 10 hexes ends: on
one CPU (Python 3.11) layers 8, 9 and 10 took 60, 95 and 47 s, and the
search was exhausted in 211 s at a peak of 300 MB.  Each layer that
pruning does not cut takes about eight times as long as the last.

    python3 scripts/run_pyramid_search.py --checkpoint runs/pyramid
"""

import argparse
import sys
import time

from hexpack.cli import EXIT_EXHAUSTED, EXIT_OK, _add_search_flags, _options_from_args
from hexpack.formats import write_mesh, write_witness
from hexpack.search import build_ledger, replay_witness
from hexpack.surface import canonical_code, pyramid16_pattern


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-hexes", type=int, default=10,
                    help="hex budget (default 10)")
    _add_search_flags(ap)
    ap.add_argument("--out", default="pyramid.witness",
                    help="witness output path (default pyramid.witness)")
    ap.add_argument("--mesh-out", default="pyramid.hexmesh",
                    help="mesh output path (default pyramid.hexmesh)")
    args = ap.parse_args(argv)
    if args.max_hexes < 1:
        ap.error("--max-hexes must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    options = _options_from_args(args)
    target = canonical_code(pyramid16_pattern(), options.reflection_invariant)

    t0 = time.perf_counter()

    def report(ledger):
        stats = ledger.stats
        print(
            f"layer {ledger.layer:3d}: {len(ledger.records):9d} patterns, "
            f"{stats.states_expanded} expanded, {stats.moves_valid} moves, "
            f"{stats.pruned} pruned, {time.perf_counter() - t0:.1f}s",
            flush=True,
        )

    ledger = build_ledger(
        args.max_hexes, options, target=target, progress=report
    )
    rec = ledger.records.get(target)
    if rec is None:
        print(f"exhausted: no packing within {args.max_hexes} hexes")
        return EXIT_EXHAUSTED

    count, witness = rec.best()
    print(f"found: {count} hexes")
    with open(args.out, "w") as fh:
        fh.write(write_witness(witness))
    print(f"wrote {args.out}")
    packing = replay_witness(witness)
    with open(args.mesh_out, "w") as fh:
        fh.write(write_mesh(packing))
    print(f"wrote {args.mesh_out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
