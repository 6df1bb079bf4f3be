#!/usr/bin/env python3
"""Time canonical codes, the searches built on them and the embeddings in
one checkout of hexpack; print one JSON object.

    python3 scripts/bench_canonical_code.py [CHECKOUT]

CHECKOUT (default: the one holding this script) is the root of a hexpack
checkout; its ``src/`` is imported, never an installed copy, so the same
script measures any two commits.  The process pins itself, and the test
suite it starts, to one CPU.  It reports:

- ``build_ledger_6_s`` and ``build_ledger_7_s``: ``build_ledger(6)`` and
  ``build_ledger(7)`` in process, each ledger held to its pinned digest
  (``CENSUS_SHA256`` in ``perfbench/workloads.py``, ``LEDGER_7_SHA256``
  here);
- ``ns_ledger_5_s``: ``build_ledger(5)`` without sphere mode (default
  reflection), its ledger held to ``NS_LEDGER_5_SHA256``;
- ``full_codes_6``: the ``canonical_code`` calls ``build_ledger(6)``
  makes, through whichever module's binding;
- ``memo_calls_6``: the ``CodeMemo.code`` calls ``build_ledger(6)``
  makes;
- ``codes``: every successor pattern ``build_ledger(6)`` realizes (each
  candidate ``enumerate_moves`` accepts, before deduplication), coded
  again with and without reflection (fresh ``SurfacePattern`` objects
  each pass, best of three passes), with the per-call time and a digest
  of the codes;
- ``replay_6_s``: ``_replay`` of every slot of ``build_ledger(6)``, each
  replayed boundary's code held to its record's (best of three passes);
- ``grow_orders_s``: ``find_grow_order`` on the three bundled meshes and
  their ``/8`` subdivisions, each witness replayed and its boundary
  code held to the mesh's, as the certify-embed workload does (best of
  three passes);
- ``embed_s``: ``init_interior`` then ``optimize_embedding`` on
  ``pyramid36`` and ``pyramid36/8`` from their shipped boundary
  coordinates, as the certify-embed workload runs them (best of three
  passes);
- ``init_interior_s``: ``init_interior`` on ``pyramid36/8`` alone (best
  of three passes);
- ``embed_iterations``: the optimizer's accepted steps on each mesh;
- ``embed_sha256``: a digest of both meshes' start and final embedding
  bytes, iteration counts and stop reasons, the same in every pass;
- ``pyramid_9_s``, ``pyramid_9_records`` and ``pyramid_9_peak_rss_mb``:
  the pruned search toward ``pyramid16`` to 9 hexes
  (``search_min_packing``, default options), run alone in a child
  process that reads its own peak RSS, its ledger held to
  ``PYRAMID_9_SHA256``;
- ``criterion_4_s``, ``local_move_false_s`` and ``suite_s``: acceptance
  criterion 4, the ``[False]`` case of
  ``test_local_move_check_matches_whole_complex_check`` and the whole
  tier-1 suite, from one ``pytest`` run in the checkout.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from time import perf_counter

PASSES = 3
# build_ledger(7) in checkpoint layer-file form, as ledger_sha256 digests
# it: 6 138 records.
LEDGER_7_SHA256 = "fe3d740524672d0d573ecab99373a391d27c0521cdf66c7a6c614746fcb09099"
# build_ledger(5, SearchOptions(sphere_mode=False)), digested the same
# way: 4 789 records.
NS_LEDGER_5_SHA256 = "17a07406b2b707676bfc72bf050853847c8214a709437fb4c7a8f3682b59bc41"
# The pruned search toward pyramid16 to 9 hexes, digested the same way:
# 64 577 records, none of them the target.
PYRAMID_9_SHA256 = "6515bf59d65735449c038b275add5a69afd93a751ede6ae1cafe4514c7849243"

# Run as `python -c PYRAMID_9 CHECKOUT`: a fresh process, so the peak RSS
# it reads is the search's alone.
PYRAMID_9 = """
import json, resource, sys
from time import perf_counter
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
import hexpack as hp
from perfbench.workloads import ledger_sha256
t = perf_counter()
result = hp.search_min_packing(hp.pyramid16_pattern(), 9)
s = perf_counter() - t
# read before the digest, which builds every layer-file line at once
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({
    "s": s,
    "found": result.found,
    "records": len(result.ledger.records),
    "sha256": ledger_sha256(result.ledger),
    "peak_rss_mb": peak_rss_mb,
}))
"""


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path[:0] = [str(root / "src"), str(root)]
    import hexpack as hp
    import hexpack.moves as moves
    from hexpack.search import SearchOptions, _replay, build_ledger
    from hexpack.surface import CodeMemo, SurfacePattern, canonical_code
    from perfbench.workloads import CENSUS_SHA256, ledger_sha256

    timed = {}
    for depth, want in ((6, CENSUS_SHA256), (7, LEDGER_7_SHA256)):
        t = perf_counter()
        ledger = build_ledger(depth)
        timed[depth] = perf_counter() - t
        if ledger_sha256(ledger) != want:
            raise SystemExit(f"build_ledger({depth}) differs from its pinned digest")
        if depth == 6:
            slots = [
                (rec.code, rec.witness(parity))
                for rec in ledger.records.values()
                for parity in ("odd", "even")
                if rec.slot(parity) is not None
            ]
        del ledger
    t = perf_counter()
    ledger = build_ledger(5, SearchOptions(sphere_mode=False))
    timed["ns_5"] = perf_counter() - t
    if ledger_sha256(ledger) != NS_LEDGER_5_SHA256:
        raise SystemExit("non-sphere build_ledger(5) differs from its pinned digest")
    del ledger

    def replay_slots():
        for code, witness in slots:
            if hp.canonical_code(_replay(witness)[1]) != code:
                raise SystemExit("a build_ledger(6) witness does not replay to its code")

    bundled = [hp.pyramid36()[0], hp.parity_odd17(), hp.parity_even18()]
    meshes = bundled + [hp.subdivide_hex(c) for c in bundled]

    def grow_orders():
        for c in meshes:
            res = hp.find_grow_order(c)
            code = hp.canonical_code(hp.extract_boundary(c))
            if not res.found or hp.canonical_code(
                hp.extract_boundary(hp.replay_witness(res.witness))
            ) != code:
                raise SystemExit(f"no valid grow order for a {len(c)}-hex mesh")

    pyramid, coords = hp.pyramid36()
    fine, fine_coords = hp.subdivide_hex(pyramid, coords)
    embed_inputs = []
    for name, c, xyz in (("pyramid36", pyramid, coords), ("pyramid36/8", fine, fine_coords)):
        boundary, _ = hp.classify_vertices(c)
        embed_inputs.append((name, c, {v: xyz[v] for v in boundary}))
    embedded = {}

    def embed():
        digest = hashlib.sha256()
        iterations = {}
        for name, c, fixed in embed_inputs:
            start = hp.init_interior(c, fixed)
            res = hp.optimize_embedding(c, start, fixed)
            digest.update(start.tobytes())
            digest.update(res.embedding.tobytes())
            digest.update(f"{res.iterations} {res.stop_reason};".encode())
            iterations[name] = res.iterations
        if embedded.setdefault("sha256", digest.hexdigest()) != digest.hexdigest():
            raise SystemExit("two embedding passes gave different results")
        embedded["iterations"] = iterations

    fine_fixed = embed_inputs[1][2]
    for name, work in (
        ("replay_6", replay_slots),
        ("grow_orders", grow_orders),
        ("embed", embed),
        ("init_interior", lambda: hp.init_interior(fine, fine_fixed)),
    ):
        times = []
        for _ in range(PASSES):
            t = perf_counter()
            work()
            times.append(perf_counter() - t)
        timed[name] = min(times)

    coded = []
    full = [0]
    memo_calls = [0]
    plain_realize = moves._realize

    def recording_realize(*args, **kwargs):
        cand = plain_realize(*args, **kwargs)
        if cand is not None and sys._getframe(1).f_code.co_name == "enumerate_moves":
            coded.append(cand.pattern.quads)
        return cand

    def counting_code(pattern, reflection_invariant=True, **table):
        full[0] += 1
        return canonical_code(pattern, reflection_invariant, **table)

    plain_memo_code = CodeMemo.code

    def counting_memo_code(self, pattern):
        memo_calls[0] += 1
        return plain_memo_code(self, pattern)

    bindings = [
        mod for name, mod in list(sys.modules.items())
        if name.startswith("hexpack") and getattr(mod, "canonical_code", None) is canonical_code
    ]
    moves._realize = recording_realize
    CodeMemo.code = counting_memo_code
    for mod in bindings:
        mod.canonical_code = counting_code
    try:
        build_ledger(6)
    finally:
        moves._realize = plain_realize
        CodeMemo.code = plain_memo_code
        for mod in bindings:
            mod.canonical_code = canonical_code

    codes = {"patterns": len(coded)}
    for reflection in (True, False):
        times = []
        for _ in range(PASSES):
            patterns = [SurfacePattern(q) for q in coded]
            t = perf_counter()
            got = [canonical_code(p, reflection) for p in patterns]
            times.append(perf_counter() - t)
        codes["reflection" if reflection else "plain"] = {
            "total_s": round(min(times), 3),
            "per_call_us": round(min(times) / len(coded) * 1e6, 1),
            "sha256": hashlib.sha256(b"|".join(got)).hexdigest(),
        }

    child = subprocess.run(
        [sys.executable, "-c", PYRAMID_9, str(root)],
        capture_output=True, text=True, check=True,
    )
    pyramid_9 = json.loads(child.stdout)
    if pyramid_9["found"] or pyramid_9["sha256"] != PYRAMID_9_SHA256:
        raise SystemExit("the 9-hex pyramid16 search differs from its pinned digest")

    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--durations=3"],
        cwd=root, env=env, capture_output=True, text=True,
    )
    out = run.stdout
    crit = re.search(r"ACCEPTANCE 4 [^\n]*: PASS \(([\d.]+)s\)", out)
    false_case = re.search(
        r"([\d.]+)s call +\S+::test_local_move_check_matches_whole_complex_check\[False\]",
        out,
    )
    summary = re.search(r"(\d+) passed[^\n]* in ([\d.]+)s", out)
    print(json.dumps({
        "checkout": str(root),
        "python": sys.version.split()[0],
        "build_ledger_6_s": round(timed[6], 2),
        "build_ledger_7_s": round(timed[7], 2),
        "ns_ledger_5_s": round(timed["ns_5"], 2),
        "replay_6_slots": len(slots),
        "replay_6_s": round(timed["replay_6"], 2),
        "grow_orders_s": round(timed["grow_orders"], 2),
        "embed_s": round(timed["embed"], 3),
        "init_interior_s": round(timed["init_interior"], 3),
        "embed_iterations": embedded["iterations"],
        "embed_sha256": embedded["sha256"],
        "full_codes_6": full[0],
        "memo_calls_6": memo_calls[0],
        "codes": codes,
        "pyramid_9_s": round(pyramid_9["s"], 2),
        "pyramid_9_records": pyramid_9["records"],
        "pyramid_9_peak_rss_mb": round(pyramid_9["peak_rss_mb"], 1),
        "criterion_4_s": float(crit.group(1)) if crit else None,
        "local_move_false_s": float(false_case.group(1)) if false_case else None,
        "suite_s": float(summary.group(2)) if summary else None,
        "suite_passed": int(summary.group(1)) if summary else None,
        "suite_exit": run.returncode,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
