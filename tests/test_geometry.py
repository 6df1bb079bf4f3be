import math

import numpy as np
import pytest
from conftest import grid_complex

from hexpack.errors import DegenerateEdge, MissingCoordinates
from hexpack.geometry import (
    CORNER_NEIGHBORS,
    BARRIER_STRENGTH,
    MAX_ITERATIONS,
    as_positions,
    corner_scaled_jacobians,
    det_penalty_energy,
    det_penalty_gradient,
    init_interior,
    optimize_embedding,
    penalty_energy,
    penalty_gradient,
    pyramid_boundary_coords,
    quality_report,
)
from hexpack.hexmodel import build_complex, classify_vertices, subdivide_hex

# ---------------------------------------------------------------- measurement


def test_corner_neighbor_tuples():
    # each corner pairs with its three axis neighbors, ordered so the
    # reference cube scores +1 at every corner
    assert CORNER_NEIGHBORS == (
        (1, 3, 4),
        (0, 5, 2),
        (1, 6, 3),
        (0, 2, 7),
        (0, 7, 5),
        (1, 4, 6),
        (2, 5, 7),
        (3, 6, 4),
    )


def test_unit_cube_scores_one_everywhere(cube, cube_coords):
    s = corner_scaled_jacobians(cube, cube_coords)
    assert s.shape == (1, 8)
    assert (s == 1.0).all()
    rep = quality_report(cube, cube_coords)
    assert rep.global_min == 1.0
    assert rep.nonpositive_count == 0
    assert rep.per_hex_min == (1.0,)


def test_pushed_through_corner_goes_nonpositive(cube, cube_coords):
    bad = cube_coords.copy()
    bad[6] = (0.2, 0.2, 0.2)  # drag corner 6 inside the cell
    rep = quality_report(cube, bad)
    assert rep.global_min < 0.0
    assert rep.nonpositive_count > 0


def test_mirrored_cube_scores_minus_one(cube, cube_coords):
    mirrored = cube_coords.copy()
    mirrored[:, 0] *= -1.0
    s = corner_scaled_jacobians(cube, mirrored)
    assert (s == -1.0).all()


def test_scores_are_rigid_and_scale_invariant(cube, cube_coords):
    rng = np.random.default_rng(7)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    moved = 2.75 * cube_coords @ q.T + np.array([3.0, -1.0, 2.0])
    base = corner_scaled_jacobians(cube, cube_coords)
    assert corner_scaled_jacobians(cube, moved) == pytest.approx(
        base, abs=1e-12
    )


def test_scores_stay_clipped_to_unit_interval():
    c, coords = grid_complex([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    rng = np.random.default_rng(11)
    jittered = coords + 0.35 * rng.standard_normal(coords.shape)
    s = corner_scaled_jacobians(c, jittered)
    assert (s <= 1.0).all() and (s >= -1.0).all()


def test_coincident_vertices_raise(cube, cube_coords):
    flat = cube_coords.copy()
    flat[1] = flat[0]
    with pytest.raises(DegenerateEdge):
        corner_scaled_jacobians(cube, flat)


def test_quality_report_of_empty_complex():
    rep = quality_report(build_complex([], 0), np.zeros((0, 3)))
    assert rep.per_hex_min == ()
    assert math.isnan(rep.global_min)
    assert rep.nonpositive_count == 0


def test_as_positions_accepts_dict_and_array(cube_coords):
    from_dict = as_positions(
        {i: tuple(cube_coords[i]) for i in range(8)}, 8
    )
    assert (from_dict == cube_coords).all()
    assert (as_positions(cube_coords, 8) == cube_coords).all()
    with pytest.raises(MissingCoordinates):
        as_positions({0: (0, 0, 0)}, 8)
    with pytest.raises(MissingCoordinates):
        as_positions(cube_coords[:5], 8)
    nan_coords = cube_coords.copy()
    nan_coords[3, 1] = float("nan")
    with pytest.raises(ValueError):
        as_positions(nan_coords, 8)


def test_prescribed_pyramid_embedding_is_positive(pyramid):
    c, coords = pyramid
    rep = quality_report(c, coords)
    assert len(rep.per_hex_min) == 36
    assert rep.nonpositive_count == 0
    assert rep.global_min == pytest.approx(0.0899982392315368, rel=1e-9)


def test_pyramid_boundary_coordinate_values(pyramid):
    fixed = pyramid_boundary_coords()
    boundary, _ = classify_vertices(pyramid[0])
    assert set(fixed) == set(boundary) == set(range(18))
    assert fixed[1] == pytest.approx((-1.0, 0.0, 1.0))
    assert fixed[9] == pytest.approx((0.0, 1.41421, 0.0))
    assert fixed[16] == pytest.approx((0.0, 0.471405, -0.66667))


# ------------------------------------------------------------------ penalties


def test_penalty_energies_on_the_unit_cube(cube, cube_coords):
    # every corner scores exactly 1, so both objectives are closed form
    assert penalty_energy(cube, cube_coords) == 0.0
    assert penalty_energy(cube, cube_coords, sigma=1.5) == pytest.approx(2.0)
    assert det_penalty_energy(cube, cube_coords, delta=0.5) == 0.0
    assert det_penalty_energy(cube, cube_coords, delta=2.0) == pytest.approx(
        8.0
    )


def _central_difference(fn, positions, h=1e-6):
    grad = np.zeros_like(positions)
    for idx in np.ndindex(positions.shape):
        bumped = positions.copy()
        bumped[idx] += h
        hi = fn(bumped)
        bumped[idx] -= 2 * h
        lo = fn(bumped)
        grad[idx] = (hi - lo) / (2 * h)
    return grad


def test_penalty_gradient_matches_finite_differences():
    c, coords = grid_complex([(0, 0, 0), (1, 0, 0)])
    rng = np.random.default_rng(3)
    pts = coords + 0.15 * rng.standard_normal(coords.shape)
    analytic = penalty_gradient(c, pts, sigma=0.9)
    numeric = _central_difference(
        lambda p: penalty_energy(c, p, sigma=0.9), pts
    )
    scale = max(1.0, float(np.abs(analytic).max()))
    assert np.abs(analytic - numeric).max() / scale < 1e-5


def test_det_penalty_gradient_matches_finite_differences():
    c, coords = grid_complex([(0, 0, 0), (0, 0, 1)])
    rng = np.random.default_rng(5)
    pts = coords + 0.2 * rng.standard_normal(coords.shape)
    analytic = det_penalty_gradient(c, pts, delta=0.4)
    numeric = _central_difference(
        lambda p: det_penalty_energy(c, p, delta=0.4), pts
    )
    scale = max(1.0, float(np.abs(analytic).max()))
    assert np.abs(analytic - numeric).max() / scale < 1e-5


# ------------------------------------------------------------ initialization


def test_init_interior_reproduces_a_lattice():
    cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
    c, coords = grid_complex(cells)
    boundary, interior = classify_vertices(c)
    assert len(interior) == 8
    fixed = {vid: tuple(coords[vid]) for vid in boundary}
    positions = init_interior(c, fixed, tolerance=1e-12)
    # harmonic fill of a linear boundary is the lattice itself
    assert positions == pytest.approx(coords, abs=1e-6)
    for vid in boundary:
        assert (positions[vid] == np.array(fixed[vid])).all()


def test_init_interior_centers_a_subdivided_cube(cube, cube_coords):
    fine, coords = subdivide_hex(cube, cube_coords)
    boundary, interior = classify_vertices(fine)
    assert len(interior) == 1  # the body center is the only free vertex
    fixed = {vid: tuple(coords[vid]) for vid in boundary}
    positions = init_interior(fine, fixed)
    assert positions[interior[0]] == pytest.approx((0.5, 0.5, 0.5), abs=1e-9)


def test_init_interior_validates_the_fixed_set():
    cells = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
    c, coords = grid_complex(cells)
    boundary, interior = classify_vertices(c)
    fixed = {vid: tuple(coords[vid]) for vid in boundary}
    missing = dict(fixed)
    del missing[boundary[0]]
    with pytest.raises(MissingCoordinates):
        init_interior(c, missing)
    extra = dict(fixed)
    extra[interior[0]] = (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        init_interior(c, extra)


# -------------------------------------------------------------- optimization


def test_perfect_lattice_is_a_fixed_point(cube, cube_coords):
    res = optimize_embedding(cube, cube_coords, fixed=range(4))
    assert res.stop_reason == "zero_energy"
    assert res.iterations == 0
    assert res.energy == 0.0
    assert not res.non_improvable
    assert (res.embedding == cube_coords).all()


def test_jittered_lattice_recovers():
    cells = [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
    c, coords = grid_complex(cells)
    boundary, interior = classify_vertices(c)
    assert interior == (13,) or len(interior) == 1
    start = coords.copy()
    start[interior[0]] += (0.38, -0.27, 0.24)
    before = quality_report(c, start).global_min
    assert 0.0 < before < BARRIER_STRENGTH
    res = optimize_embedding(c, start, fixed=boundary)
    assert res.stop_reason == "zero_energy"
    assert res.report.global_min >= BARRIER_STRENGTH
    assert res.report.global_min > before  # monotone line search never loses
    for vid in boundary:
        assert (res.embedding[vid] == coords[vid]).all()


def test_all_fixed_inverted_embedding_is_non_improvable(cube, cube_coords):
    upside_down = cube_coords.copy()
    upside_down[:, 2] *= -1.0
    res = optimize_embedding(cube, upside_down, fixed=range(8))
    assert res.report.nonpositive_count == 8
    assert res.non_improvable
    assert res.iterations == 0
    assert (res.embedding == upside_down).all()


def test_optimizer_rejects_out_of_range_fixed_ids(cube, cube_coords):
    with pytest.raises(IndexError):
        optimize_embedding(cube, cube_coords, fixed=[12])


def test_pyramid_untangles_from_harmonic_start(pyramid):
    c, _ = pyramid
    fixed = pyramid_boundary_coords()
    start = init_interior(c, fixed)
    # averaging keeps all 33 free vertices strictly inside the hull box
    lo = np.min([fixed[v] for v in fixed], axis=0)
    hi = np.max([fixed[v] for v in fixed], axis=0)
    free = [v for v in range(c.vertex_count) if v not in fixed]
    assert len(free) == 33
    assert (start[free] > lo).all() and (start[free] < hi).all()
    assert quality_report(c, start).nonpositive_count > 0  # starts tangled
    res = optimize_embedding(c, start, fixed=fixed)
    assert res.report.nonpositive_count == 0
    assert res.report.global_min > 0.05
    assert res.iterations <= MAX_ITERATIONS
    assert not res.non_improvable
    for vid in fixed:
        assert (res.embedding[vid] == np.array(fixed[vid])).all()
    # the whole pipeline is deterministic: rerun and compare bit for bit
    again = optimize_embedding(c, init_interior(c, fixed), fixed=fixed)
    assert (again.embedding == res.embedding).all()
    assert again.iterations == res.iterations


def test_optimizer_keeps_prescribed_pyramid_positive(pyramid):
    c, coords = pyramid
    boundary, _ = classify_vertices(c)
    start = as_positions(coords, c.vertex_count)
    before = penalty_energy(c, start)
    res = optimize_embedding(c, start, fixed=boundary)
    assert res.report.nonpositive_count == 0
    assert res.report.global_min > 0.0
    assert res.energy <= before
