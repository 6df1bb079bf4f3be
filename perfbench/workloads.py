"""The three benchmark workloads, their inputs and their correctness gates.

Each workload has two timed phases, ``main`` and ``second``; see
README.md for what each phase is on each workload and why the workload
exists.  ``prepare`` builds the inputs from the seed (it is the timed
set-up), ``run`` performs one pass and records every check in a
:class:`Checks`, and returns the program counters the per-layer report
reads.  A check that fails, or a call that raises, is a failed operation;
it never stops the pass loop.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import random
import shutil
import tempfile
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Pinned from the seed commit.  The digests cover the ledger in
# checkpoint layer-file form (code, parity, count, witness tokens), the
# byte-identical rule every optimisation must keep.
CENSUS_RECORDS = 629
CENSUS_SHA256 = "dce4c2b4fe8819b1b4394da8f6dbe7c5f94fc9692b6b0771d75b603bdd398f73"
PYRAMID_RECORDS = 461
PYRAMID_PRUNED = 28
PYRAMID_SHA256 = "a43a607013fee78926386cd1ce8a402b01575f50686a5461add935dfaeea78c1"
# Lowest corner scaled Jacobian reached from each embedding input.  An
# optimiser that stops early falls below the floor and fails the gate.
EMBED_MIN_SJ = {"pyramid36": 0.18507121067682816, "pyramid36/8": 0.01682564085033164}
EMBED_SJ_FLOOR = 0.95


class Checks:
    """Operations attempted and failed, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


class Phases:
    """Wall time of each named phase, one sample per pass or repetition.

    A pass runs the main phase once and then the second phase, which is
    short, at least ``repeats`` times.  Once a pass has done that, it
    checks whether another pass of the same length would end by
    ``deadline``.  If not, it is the run's last pass, and it goes on
    repeating the second phase until the deadline.  So a run ends close
    to its deadline, and the second phase's samples fill the time.
    """

    def __init__(self, repeats, deadline):
        self.repeats = repeats
        self.deadline = deadline
        self.samples = {"main": [], "second": []}
        self._pass_start = perf_counter()

    @contextmanager
    def __call__(self, name):
        gc.collect()
        t0 = perf_counter()
        if name == "main":
            self._pass_start = t0
        try:
            yield
        finally:
            self.samples[name].append(perf_counter() - t0)

    def second_samples(self):
        """Yield once before each sample of the second phase in this pass."""
        n = 0
        while True:
            yield n
            n += 1
            if n < self.repeats:
                continue
            now = perf_counter()
            if now >= self.deadline or now + (now - self._pass_start) <= self.deadline:
                return


def ledger_lines(ledger):
    """The ledger's record lines in checkpoint layer-file order."""
    by_layer = {}
    for code, rec in sorted(ledger.records.items()):
        for parity in ("odd", "even"):
            count = rec.slot(parity)
            if count is not None:
                wit = rec.witness(parity)
                tokens = ";".join(pl.token() for pl in wit) if wit else "-"
                by_layer.setdefault(count, []).append(
                    f"{code.hex()} {parity} {count} {tokens}\n"
                )
    return [line for n in sorted(by_layer) for line in by_layer[n]]


def ledger_sha256(ledger):
    return hashlib.sha256("".join(ledger_lines(ledger)).encode()).hexdigest()


def replay_verify(hp, ledger, checks, what):
    """Replay every slot's witness and compare the code it reproduces."""
    reflection = ledger.options.reflection_invariant
    for code, rec in sorted(ledger.records.items()):
        for parity in ("odd", "even"):
            count = rec.slot(parity)
            if count is None:
                continue
            try:
                packing = hp.replay_witness(rec.witness(parity))
                got = hp.canonical_code(hp.extract_boundary(packing), reflection)
                ok = got == code and len(packing.hexes) == count
            except hp.HexpackError:
                ok = False
            checks.check(ok, f"{what}: {parity} slot of {code.hex()[:16]} does not replay")


def search_stats(ledger):
    return {
        "states_expanded": getattr(ledger.stats, "states_expanded", None),
        "moves_tried": getattr(ledger.stats, "moves_tried", None),
        "moves_valid": getattr(ledger.stats, "moves_valid", None),
        "pruned": getattr(ledger.stats, "pruned", None),
        "records": len(ledger.records),
    }


class CensusD6:
    """build_ledger(6) with default options; then replay-verify the ledger."""

    name = "census-d6"
    phase_names = ("search_s", "verify_s")
    second_repeats = 4

    def prepare(self, hp, seed):
        return None  # no external input, so the seed is not used

    def run(self, hp, inputs, phase, checks):
        with phase("main"):
            ledger = hp.build_ledger(6)
        checks.check(
            len(ledger.records) == CENSUS_RECORDS
            and ledger_sha256(ledger) == CENSUS_SHA256,
            "census-d6: ledger differs from the pinned one",
        )
        for _ in phase.second_samples():
            with phase("second"):
                replay_verify(hp, ledger, checks, "census-d6")
        return search_stats(ledger)


class PyramidCkpt:
    """Checkpointed targeted search, then checkpoint load and full replay."""

    name = "pyramid-ckpt"
    phase_names = ("search_s", "verify_s")
    second_repeats = 1

    def __init__(self, workdir, cpus):
        self.workdir = workdir
        self.cpus = cpus

    def prepare(self, hp, seed):
        pattern = hp.pyramid16_pattern()
        rng = random.Random(seed)
        ids = rng.sample(range(16 * len(pattern.vertices)), len(pattern.vertices))
        target = hp.relabel(pattern, dict(zip(pattern.vertices, ids)))
        return hp.canonical_code(target)

    def options(self, hp, checkpoint_dir):
        kwargs = {"checkpoint_dir": checkpoint_dir}
        # the knob may be removed by a later change; then run on defaults
        if "thread_count" in {f.name for f in dataclasses.fields(hp.SearchOptions)}:
            kwargs["thread_count"] = min(2, self.cpus)
        return hp.SearchOptions(**kwargs)

    def run(self, hp, target, phase, checks):
        os.makedirs(self.workdir, exist_ok=True)
        scratch = tempfile.mkdtemp(prefix="ckpt-", dir=self.workdir)
        try:
            ckpt = os.path.join(scratch, "ckpt")
            options = self.options(hp, ckpt)
            with phase("main"):
                result = hp.search_min_packing(target, 6, options)
            written = result.ledger
            checks.check(
                result.exhausted
                and not result.found
                and len(written.records) == PYRAMID_RECORDS
                and getattr(written.stats, "pruned", None) == PYRAMID_PRUNED
                and ledger_sha256(written) == PYRAMID_SHA256,
                "pyramid-ckpt: search result differs from the pinned one",
            )
            for _ in phase.second_samples():
                with phase("second"):
                    loaded = hp.load_checkpoint(ckpt)
                    replay_verify(hp, loaded, checks, "pyramid-ckpt")
                checks.check(
                    ledger_sha256(loaded) == PYRAMID_SHA256,
                    "pyramid-ckpt: loaded checkpoint differs from the written ledger",
                )
            info = search_stats(written)
            info["checkpoint_bytes"] = sum(
                os.path.getsize(os.path.join(ckpt, name)) for name in os.listdir(ckpt)
            )
            return info
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


def relabel_complex(hp, c, rng):
    perm = list(range(c.vertex_count))
    rng.shuffle(perm)
    return hp.build_complex(
        [tuple(perm[v] for v in h) for h in c.hexes], c.vertex_count
    )


class CertifyEmbed:
    """Grow-order certificates for six meshes, then two embeddings."""

    name = "certify-embed"
    phase_names = ("certify_s", "embed_s")
    second_repeats = 3

    def prepare(self, hp, seed):
        rng = random.Random(seed)
        pyramid, coords = hp.pyramid36()
        bundled = {
            "pyramid36": pyramid,
            "parity_odd17": hp.parity_odd17(),
            "parity_even18": hp.parity_even18(),
        }
        grow = []
        for name, c in list(bundled.items()) + [
            (name + "/8", hp.subdivide_hex(c)) for name, c in bundled.items()
        ]:
            c = relabel_complex(hp, c, rng)
            grow.append((name, c, hp.canonical_code(hp.extract_boundary(c))))
        # The optimiser's path depends on vertex labels, so the embedding
        # inputs keep their shipped labels (see README.md).
        fine, fine_coords = hp.subdivide_hex(pyramid, coords)
        embed = []
        for name, c, xyz in (
            ("pyramid36", pyramid, coords),
            ("pyramid36/8", fine, fine_coords),
        ):
            boundary, _ = hp.classify_vertices(c)
            embed.append((name, c, {v: xyz[v] for v in boundary}))
        return grow, embed

    def run(self, hp, inputs, phase, checks):
        grow, embed = inputs
        with phase("main"):
            for name, c, code in grow:
                try:
                    res = hp.find_grow_order(c)
                    ok = res.found and len(res.order) == len(c.hexes)
                    if ok:
                        packing = hp.replay_witness(res.witness)
                        ok = len(packing.hexes) == len(c.hexes) and (
                            hp.canonical_code(hp.extract_boundary(packing)) == code
                        )
                except hp.HexpackError:
                    ok = False
                checks.check(ok, f"certify-embed: no valid grow order for {name}")
        results = []
        for _ in phase.second_samples():
            with phase("second"):
                for name, c, fixed in embed:
                    start = hp.init_interior(c, fixed)
                    results.append((name, fixed, hp.optimize_embedding(c, start, fixed)))
        min_sj = None
        for name, fixed, res in results:
            sj = res.report.global_min
            min_sj = sj if min_sj is None else min(min_sj, sj)
            pinned = all(
                res.embedding[v].tobytes() == np.asarray(xyz, dtype=float).tobytes()
                for v, xyz in fixed.items()
            )
            checks.check(
                res.report.nonpositive_count == 0
                and pinned
                and sj >= EMBED_SJ_FLOOR * EMBED_MIN_SJ[name],
                f"certify-embed: embedding of {name} is inverted, moved a fixed "
                f"vertex or fell to min scaled Jacobian {sj}",
            )
        return {"min_sj": min_sj}


def workloads(workdir, cpus):
    """Workload objects by name.

    workdir holds scratch checkpoints; cpus is the number of CPUs the
    process could use before it was pinned, which sets the thread count.
    """
    return {
        w.name: w
        for w in (CensusD6(), PyramidCkpt(workdir, cpus), CertifyEmbed())
    }
