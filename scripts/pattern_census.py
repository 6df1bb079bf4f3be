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

from hexpack.cli import _add_search_flags, _options_from_args
from hexpack.search import build_ledger


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-hexes", type=int, default=6)
    _add_search_flags(ap)
    args = ap.parse_args(argv)
    if args.max_hexes < 1:
        ap.error("--max-hexes must be at least 1")

    options = _options_from_args(args)
    t0 = time.perf_counter()
    ledger = build_ledger(args.max_hexes, options)

    first_seen = {}
    for rec in ledger.records.values():
        first_seen.setdefault(rec.best()[0], []).append(rec)

    print("layer  new patterns  quad counts")
    for layer in sorted(first_seen):
        quads = Counter(rec.quad_count for rec in first_seen[layer])
        dist = " ".join(f"{q}x{n}" for q, n in sorted(quads.items()))
        print(f"{layer:5d}  {len(first_seen[layer]):12d}  {dist}")

    pairs = [
        (rec.slot("odd"), rec.slot("even"), rec)
        for rec in ledger.records.values()
        if rec.witness_odd is not None and rec.witness_even is not None
    ]
    print(f"parity pairs within {args.max_hexes} hexes: {len(pairs)}")
    # fresh and resumed ledgers hold their records in different orders
    for odd, even, rec in sorted(
        pairs, key=lambda t: (max(t[:2]), min(t[:2]), t[2].code)
    ):
        print(f"  quads {rec.quad_count}: odd at {odd} hexes, even at {even} hexes")
    print(f"total {len(ledger.records)} patterns, "
          f"{time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
