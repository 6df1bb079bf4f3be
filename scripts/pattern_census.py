#!/usr/bin/env python3
"""Census of distinct boundary patterns reachable per hex count.

Prints, for each layer up to the budget, how many new canonical
patterns first appear there and the distribution of their quad counts.
Also lists any parity pairs (same boundary reached with both an odd and
an even number of hexes) seen within the budget.

    python3 scripts/pattern_census.py --max-hexes 8
"""

import argparse
import sys
import time
from collections import Counter

from hexpack.search import SearchOptions, build_ledger


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-hexes", type=int, default=6)
    ap.add_argument("--checkpoint", metavar="DIR", default=None)
    ap.add_argument("--no-reflection", action="store_true")
    ap.add_argument("--no-sphere-mode", action="store_true")
    args = ap.parse_args(argv)

    options = SearchOptions(
        sphere_mode=not args.no_sphere_mode,
        reflection_invariant=not args.no_reflection,
        checkpoint_dir=args.checkpoint,
    )
    t0 = time.perf_counter()
    ledger = build_ledger(args.max_hexes, options)

    first_seen = {}
    for code, rec in ledger.records.items():
        layers = [rec.slot(p) for p in ("odd", "even") if rec.slot(p)]
        first_seen.setdefault(min(layers), []).append(rec)

    print("layer  new patterns  quad counts")
    for layer in sorted(first_seen):
        quads = Counter(rec.quad_count for rec in first_seen[layer])
        dist = " ".join(f"{q}x{n}" for q, n in sorted(quads.items()))
        print(f"{layer:5d}  {len(first_seen[layer]):12d}  {dist}")

    pairs = [
        rec
        for rec in ledger.records.values()
        if rec.min_odd is not None and rec.min_even is not None
    ]
    print(f"parity pairs within {args.max_hexes} hexes: {len(pairs)}")
    for rec in sorted(pairs, key=lambda r: (max(r.min_odd, r.min_even))):
        print(
            f"  quads {rec.quad_count}: odd at {rec.min_odd} hexes, "
            f"even at {rec.min_even} hexes"
        )
    print(f"total {len(ledger.records)} patterns, "
          f"{time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
