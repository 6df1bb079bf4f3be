#!/usr/bin/env python3
"""Benchmark for hexpack: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload census-d6 --seed 1 --seconds 35 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  With ``--trace 0`` the run
measures for ``--seconds`` seconds (at least one pass) and reports the
end-to-end metrics.  With ``--trace 1`` it makes one untraced and one
traced pass and reports the per-layer metrics.  The last line of
standard output is the result; the full record, with the environment
and the per-span table, goes to ``perfbench/results/``.
"""

import os

# numpy's BLAS must not start a thread pool of its own; set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("census-d6", "pyramid-ckpt", "certify-embed")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and prepare the inputs, then exit; timed for setup_s")
    return ap.parse_args(argv)


def pin_to_one_cpu():
    """Keep this process and every thread it starts on one CPU.

    Returns how many CPUs the process had before.  Two threads that
    take turns on the interpreter lock run 20-30% slower when they sit
    on different CPUs, and on a shared host whether they do depends on
    the neighbours' load; on one CPU the pool's time stays steady.
    """
    if not hasattr(os, "sched_setaffinity"):
        return os.cpu_count() or 1
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    return len(cpus)


def import_hexpack():
    """The hexpack package from SRC, or None when it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import hexpack
    except ImportError as err:
        print(f"perfbench: cannot import hexpack from {SRC}: {err}", file=sys.stderr)
        return None
    if Path(hexpack.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: hexpack came from {hexpack.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return hexpack


def time_setup(args, checks):
    """Wall times of SETUP_REPEATS fresh processes that only set up.

    Each one starts Python, imports hexpack (numpy with it) and prepares
    the workload's inputs, one after the other.  A fresh process per
    sample, because import times differ by up to a third from one
    process to the next and stay put within one.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    times = []
    for _ in range(SETUP_REPEATS):
        t = perf_counter()
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL, check=False)
        times.append(perf_counter() - t)
        checks.check(
            done.returncode == 0, f"set-up in a fresh process exited {done.returncode}"
        )
    return times


def commit():
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_pass(hp, workload, inputs, phases, checks):
    try:
        return workload.run(hp, inputs, phases, checks) or {}
    except Exception:  # a crashed pass is a failed operation, not a crashed run
        checks.check(False, f"{workload.name}: pass raised\n{traceback.format_exc()}")
        return {}


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def end_to_end(setup_s, phases):
    return {
        "setup_s": (setup_s, "s"),
        "main_s": (median_or_zero(phases.samples["main"]), "s"),
        "second_s": (median_or_zero(phases.samples["second"]), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(summary, info, overhead_s):
    calls, total, own, notes = (
        summary.calls, summary.total_s, summary.self_s, summary.notes
    )
    iterations = notes.get("geometry.optimize_embedding", 0)
    optimize_s = total.get("geometry.optimize_embedding", 0.0)
    return {
        "search.self_s": (own.get("search.build_ledger", 0.0), "s"),
        "search.states_expanded": (summary.expanded, "count"),
        "search.pruned": (info.get("pruned") or 0, "count"),
        "search.moves_tried": (info.get("moves_tried") or 0, "count"),
        "search.successors_proposed": (summary.successors, "count"),
        "search.records": (info.get("records", 0), "count"),
        "search.replay_calls": (calls.get("search.replay_witness", 0), "count"),
        "search.replay_s": (total.get("search.replay_witness", 0.0), "s"),
        "search.checkpoint_writes": (calls.get("search.save_checkpoint", 0), "count"),
        "search.checkpoint_write_s": (total.get("search.save_checkpoint", 0.0), "s"),
        "search.checkpoint_bytes": (info.get("checkpoint_bytes", 0), "bytes"),
        "search.checkpoint_load_s": (total.get("search.load_checkpoint", 0.0), "s"),
        "search.grow_order_nodes": (notes.get("search.find_grow_order", 0), "count"),
        "search.grow_order_self_s": (own.get("search.find_grow_order", 0.0), "s"),
        "moves.enumerate_calls": (calls.get("moves.enumerate_moves", 0), "count"),
        "moves.enumerate_self_s": (own.get("moves.enumerate_moves", 0.0), "s"),
        "moves.candidates_tried": (summary.tried, "count"),
        "moves.realized": (summary.realized, "count"),
        "moves.accept_ratio": (ratio(summary.realized, summary.tried), "ratio"),
        "moves.apply_move_calls": (calls.get("moves.apply_move", 0), "count"),
        "moves.apply_move_s": (total.get("moves.apply_move", 0.0), "s"),
        "hexmodel.check_conformity_calls": (
            calls.get("hexmodel.check_conformity", 0), "count"
        ),
        "hexmodel.check_conformity_s": (
            total.get("hexmodel.check_conformity", 0.0), "s"
        ),
        "hexmodel.check_conformity_fail_ratio": (
            ratio(
                notes.get("hexmodel.check_conformity", 0),
                calls.get("hexmodel.check_conformity", 0),
            ),
            "ratio",
        ),
        "hexmodel.extract_boundary_calls": (
            calls.get("hexmodel.extract_boundary", 0), "count"
        ),
        "hexmodel.extract_boundary_s": (
            total.get("hexmodel.extract_boundary", 0.0), "s"
        ),
        "surface.canonical_code_calls": (
            calls.get("surface.canonical_code", 0), "count"
        ),
        "surface.canonical_code_s": (total.get("surface.canonical_code", 0.0), "s"),
        "surface.code_yield": (
            ratio(summary.successors, summary.codes_in_enumerate), "ratio"
        ),
        "surface.build_pattern_calls": (calls.get("surface.build_pattern", 0), "count"),
        "surface.build_pattern_s": (total.get("surface.build_pattern", 0.0), "s"),
        "geometry.init_interior_s": (total.get("geometry.init_interior", 0.0), "s"),
        "geometry.optimize_s": (optimize_s, "s"),
        "geometry.iterations": (iterations, "count"),
        "geometry.ms_per_iteration": (1000.0 * ratio(optimize_s, iterations), "ms"),
        "geometry.min_sj": (info.get("min_sj") or 0.0, "1"),
        "formats.parse_mesh_s": (total.get("formats.parse_mesh", 0.0), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def check_trace_counts(summary, info, checks, name):
    """The traced counts must reproduce the search's own statistics."""
    pairs = (
        ("states_expanded", summary.expanded),
        ("moves_tried", summary.tried),
        ("moves_valid", summary.successors),
    )
    for key, traced in pairs:
        if info.get(key) is not None:
            checks.check(
                info[key] == traced,
                f"{name}: traced {key} {traced} != search stats {info[key]}",
            )


def main(argv=None):
    args = parse_args(argv)
    cpus = pin_to_one_cpu()
    t0 = perf_counter()
    hp = import_hexpack()
    if hp is None:
        return 2
    import numpy

    from tracer import Summary, Tracer
    from workloads import Checks, Phases, workloads

    first_import_s = perf_counter() - t0

    workload = workloads(str(HERE / "work"), cpus)[args.workload]
    if args.setup_only:
        workload.prepare(hp, args.seed)
        return 0
    inputs = workload.prepare(hp, args.seed)
    checks = Checks()
    setups = time_setup(args, checks)
    setup_s = statistics.median(setups)

    record = {}
    if args.trace == 0:
        phases = Phases(workload.second_repeats, perf_counter() + args.seconds)
        passes = 0
        while passes == 0 or perf_counter() < phases.deadline:
            info = run_pass(hp, workload, inputs, phases, checks)
            passes += 1
        e2e = metrics = end_to_end(setup_s, phases)
    else:
        phases = Phases(1, 0.0)
        t = perf_counter()
        run_pass(hp, workload, inputs, phases, checks)
        untraced = perf_counter() - t
        e2e = end_to_end(setup_s, phases)
        tracer = Tracer()
        tracer.install()
        try:
            traced_inputs = workload.prepare(hp, args.seed)
            t = perf_counter()
            info = run_pass(hp, workload, traced_inputs, Phases(1, 0.0), checks)
            traced = perf_counter() - t
        finally:
            tracer.uninstall()
        passes = 2
        summary = Summary(tracer.spans)
        if summary.expanded:
            check_trace_counts(summary, info, checks, workload.name)
        metrics = per_layer(summary, info, traced - untraced)
        record["spans"] = summary.table()
    failed_frac = ratio(checks.failed, checks.attempted)

    # Human-readable report; each phase's own name is shown beside
    # main_s and second_s.  The last line stays the JSON result.
    aliases = dict(zip(("main_s", "second_s"), workload.phase_names))
    print(f"{workload.name} seed {args.seed}, {passes} pass(es)")
    for name, (value, unit) in list(e2e.items()) + [("failed_frac", (failed_frac, "ratio"))]:
        label = f"{name} ({aliases[name]})" if name in aliases else name
        print(f"  {label:<42} {value:>14.6g} {unit}")
    if info.get("min_sj") is not None:
        print(f"  {'embed_min_sj':<42} {info['min_sj']:>14.6g} 1")
    if metrics is not e2e:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<42} {value:>14.6g} {unit}")

    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(
        workload=workload.name,
        seed=args.seed,
        trace=args.trace,
        seconds=args.seconds,
        passes=passes,
        nproc=cpus,
        python=platform.python_version(),
        numpy=numpy.__version__,
        commit=commit(),
        first_import_s=first_import_s,
        setup_samples=setups,
        phase_names=aliases,
        phase_samples=phases.samples,
        program_counters=info,
        failed_frac=failed_frac,
        failures=checks.messages,
        result=result,
    )
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    name = f"{workload.name}_seed{args.seed}_trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    for line in checks.messages:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
