"""Headline acceptance checks.

One test per criterion; each prints a single
`ACCEPTANCE <n> <name>: PASS/FAIL (<elapsed>s)` line straight to the
terminal (bypassing capture) and fails if the check or its time budget
fails.  Budgets are wall-clock seconds on ordinary desktop hardware.
"""

import time
from contextlib import contextmanager
from pathlib import Path

from hexpack.fixtures import parity_even18, parity_odd17, pyramid36
from hexpack.geometry import (
    MAX_ITERATIONS,
    init_interior,
    optimize_embedding,
    pyramid_boundary_coords,
    quality_report,
)
from hexpack.hexmodel import (
    check_conformity,
    classify_vertices,
    extract_boundary,
)
from hexpack.moves import enumerate_moves, initial_packing
from hexpack.search import (
    build_ledger,
    find_grow_order,
    replay_witness,
    verify_template,
)
from hexpack.surface import canonical_code, pyramid16_pattern

from conftest import all_moves

REPO = Path(__file__).resolve().parent.parent


def _line(capsys, number, name, verdict, elapsed):
    with capsys.disabled():
        print(
            f"\nACCEPTANCE {number} {name}: {verdict} ({elapsed:.1f}s)",
            flush=True,
        )


@contextmanager
def criterion(capsys, number, name, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _line(capsys, number, name, "FAIL", time.perf_counter() - t0)
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed <= budget
    _line(capsys, number, name, "PASS" if ok else "FAIL", elapsed)
    assert ok, f"finished correctly but blew the {budget}s budget"


def _codes_by_layer(ledger):
    out = {}
    for code, rec in ledger.records.items():
        for parity in ("odd", "even"):
            n = rec.slot(parity)
            if n is not None:
                out.setdefault(n, set()).add(code)
    return out


def test_criterion_1_ground_truth_verification(capsys):
    with criterion(capsys, 1, "ground truth verification", 1.0):
        c, coords = pyramid36()
        assert check_conformity(c).ok
        assert len(c.hexes) == 36
        assert c.vertex_count == 51
        boundary = extract_boundary(c)
        assert len(boundary.quads) == 16
        assert canonical_code(boundary) == canonical_code(pyramid16_pattern())
        bverts, iverts = classify_vertices(c)
        assert len(bverts) == 18
        assert len(iverts) == 33
        assert coords is not None and len(coords) == 51


def test_criterion_2_parity_template_pair(capsys):
    with criterion(capsys, 2, "parity template pair", 1.0):
        odd, even = parity_odd17(), parity_even18()
        assert check_conformity(odd).ok
        assert check_conformity(even).ok
        assert len(odd.hexes) == 17
        assert len(even.hexes) == 18
        b_odd = extract_boundary(odd)
        b_even = extract_boundary(even)
        assert len(b_odd.quads) == len(b_even.quads) == 34
        assert canonical_code(b_odd) == canonical_code(b_even)
        report = verify_template(odd, even)
        assert report.codes_equal and report.parity_changing


def test_criterion_3_small_pattern_regression(capsys):
    with criterion(capsys, 3, "small pattern regression", 60.0):
        ledger = build_ledger(3)
        layers = _codes_by_layer(ledger)
        assert {n: len(codes) for n, codes in layers.items()} == {
            1: 1,
            2: 1,
            3: 3,
        }
        quad_counts = {
            n: sorted(len(code) // 8 for code in codes)
            for n, codes in layers.items()
        }
        assert quad_counts[1] == [6]
        assert quad_counts[2] == [10]
        assert quad_counts[3] == [12, 14, 14]
        successor_counts = []
        for rec in ledger.records.values():
            if rec.slot("odd") == 3 and rec.quad_count == 14:
                packing = replay_witness(rec.witness("odd"))
                successor_counts.append(len(enumerate_moves(packing)))
        assert 5 in successor_counts


def test_criterion_4_oracle_equivalence(capsys):
    with criterion(capsys, 4, "oracle equivalence", 300.0):
        depth = 4
        ledger_layers = _codes_by_layer(build_ledger(depth))

        # brute force every move sequence with no dedup at all, then
        # collapse states up to isomorphism afterwards
        naive = {}

        def walk(packing, pattern, hexes):
            naive.setdefault(hexes, set()).add(canonical_code(pattern))
            if hexes == depth:
                return
            for m in all_moves(packing, pattern):
                walk(packing.glued(m.new_hex), m.pattern, hexes + 1)

        start = initial_packing()
        walk(start, extract_boundary(start), 1)

        assert set(naive) == set(ledger_layers) == set(range(1, depth + 1))
        for layer in range(1, depth + 1):
            assert naive[layer] == ledger_layers[layer], layer


def test_criterion_5_reachability_certificates(capsys):
    with criterion(capsys, 5, "reachability certificates", 600.0):
        for complex_ in (pyramid36()[0], parity_odd17(), parity_even18()):
            result = find_grow_order(complex_)
            assert result.found
            assert len(result.order) == len(complex_.hexes)
            packing = replay_witness(result.witness)
            assert len(packing.hexes) == len(complex_.hexes)
            assert canonical_code(extract_boundary(packing)) == canonical_code(
                extract_boundary(complex_)
            )


def test_criterion_6_embedding_quality(capsys):
    with criterion(capsys, 6, "embedding quality", 60.0):
        c, coords = pyramid36()
        prescribed = quality_report(c, coords)
        assert prescribed.nonpositive_count == 0
        assert prescribed.global_min > 0.0

        # from the boundary alone: harmonic init, then untangle
        fixed = pyramid_boundary_coords()
        result = optimize_embedding(c, init_interior(c, fixed), fixed=fixed)
        assert result.iterations <= MAX_ITERATIONS
        assert result.report.nonpositive_count == 0
        assert result.report.global_min > 0.0


def test_criterion_7_long_run_mode_and_invariant_suites(capsys):
    with criterion(capsys, 7, "long run mode and invariant suites", 5.0):
        script = REPO / "scripts" / "run_pyramid_search.py"
        assert script.exists()
        text = script.read_text()
        assert "--checkpoint" in text and "--max-hexes" in text
        readme = (REPO / "README.md").read_text()
        assert "run_pyramid_search.py" in readme
        assert "checkpoint" in readme.lower()

        suite = "\n".join(
            p.read_text() for p in sorted(REPO.glob("tests/test_*.py"))
        )
        for name in (
            # quad-count delta and topology preservation along walks
            "test_quad_count_change_tracks_glued_faces",
            "test_random_walks_preserve_invariants",
            # canonical code survives >= 1000 random relabelings
            "test_code_is_invariant_under_thousand_relabelings",
            # checkpoint resume reproduces the fresh run exactly
            "test_checkpoint_resume_is_deterministic",
            # analytic gradients agree with finite differences at 1e-5
            "test_penalty_gradient_matches_finite_differences",
            "test_det_penalty_gradient_matches_finite_differences",
        ):
            assert f"def {name}(" in suite, name
