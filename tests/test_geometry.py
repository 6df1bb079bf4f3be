import math

import numpy as np
import pytest
from conftest import grid_complex

from hexpack.errors import DegenerateEdge, MissingCoordinates
from hexpack.fixtures import pyramid36
from hexpack.geometry import (
    _NA,
    _NB,
    _NC,
    CORNER_NEIGHBORS,
    BARRIER_STRENGTH,
    INIT_MAX_SWEEPS,
    MAX_ITERATIONS,
    _corner_dets,
    _corner_slots,
    _cross,
    _det_energy,
    _frames,
    _quality_energy,
    _scatter_corner_grads,
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
from hexpack.hexmodel import (
    HEX_EDGES,
    build_complex,
    classify_vertices,
    subdivide_hex,
)

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


def test_all_coincident_points_raise_degenerate_edge(cube, pyramid):
    # every corner determinant is 0, so untangling is skipped, and the
    # quality phase cannot start from zero-length edges
    with pytest.raises(DegenerateEdge):
        optimize_embedding(cube, np.zeros((8, 3)), fixed=range(4))
    c, _ = pyramid
    boundary, _ = classify_vertices(c)
    start = init_interior(c, {vid: (0.0, 0.0, 0.0) for vid in boundary})
    with pytest.raises(DegenerateEdge):
        optimize_embedding(c, start, fixed=boundary)


def test_bundled_embeddings_keep_their_results(pyramid):
    # the two embeddings perfbench times: harmonic starts of pyramid36
    # and of its subdivision, boundaries at their shipped coordinates
    c, coords = pyramid
    fine, fine_coords = subdivide_hex(c, coords)
    want = {36: (401, 0.18507121067682816), 288: (67, 0.01682564085033164)}
    for mesh, xyz in ((c, coords), (fine, fine_coords)):
        boundary, _ = classify_vertices(mesh)
        fixed = {vid: xyz[vid] for vid in boundary}
        res = optimize_embedding(mesh, init_interior(mesh, fixed), fixed)
        assert (res.iterations, res.report.global_min) == want[len(mesh.hexes)]
        assert res.stop_reason == "stall"
        assert res.report.nonpositive_count == 0


# ---------------------------------------------- kernels against references
# The embedding kernels as they were before one gather served each
# evaluation, kept verbatim (the quality phase's inversion test as
# _ref_forbidding): the current kernels must match them bit for bit.


def _ref_frames(hexes, positions):
    """The three edge vectors leaving every hex corner, each (H, 8, 3)."""
    corners = positions[hexes]
    return (
        corners[:, _NA] - corners,
        corners[:, _NB] - corners,
        corners[:, _NC] - corners,
    )


def _ref_corner_dets(hexes, positions):
    u, v, w = _ref_frames(hexes, positions)
    return np.einsum("hci,hci->hc", u, np.cross(v, w))


def _ref_scatter_corner_grads(hexes, positions, gu, gv, gw):
    grad = np.zeros_like(positions)
    np.add.at(grad, hexes[:, _NA], gu)
    np.add.at(grad, hexes[:, _NB], gv)
    np.add.at(grad, hexes[:, _NC], gw)
    np.add.at(grad, hexes, -(gu + gv + gw))
    return grad


def _ref_quality_energy(hexes, positions, sigma, want_grad):
    u, v, w = _ref_frames(hexes, positions)
    a2 = np.einsum("hci,hci->hc", u, u)
    b2 = np.einsum("hci,hci->hc", v, v)
    c2 = np.einsum("hci,hci->hc", w, w)
    vw = np.cross(v, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.sqrt(a2 * b2 * c2)
        s = np.einsum("hci,hci->hc", u, vw) / norm
    if not np.isfinite(s).all():
        return float("inf"), None
    gap = np.maximum(sigma - s, 0.0)
    energy = float((gap * gap).sum())
    if not want_grad:
        return energy, None
    coef = (-2.0 * gap / norm)[:, :, None]
    sn = (2.0 * gap * s)[:, :, None]
    gu = coef * vw + sn * u / a2[:, :, None]
    gv = coef * np.cross(w, u) + sn * v / b2[:, :, None]
    gw = coef * np.cross(u, v) + sn * w / c2[:, :, None]
    return energy, _ref_scatter_corner_grads(hexes, positions, gu, gv, gw)


def _ref_forbidding(hexes, pts, sigma, want_grad):
    if _ref_corner_dets(hexes, pts).min() <= 0.0:
        return float("inf"), None
    return _ref_quality_energy(hexes, pts, sigma, want_grad)


def _ref_det_energy(hexes, positions, delta, want_grad):
    u, v, w = _ref_frames(hexes, positions)
    vw = np.cross(v, w)
    det = np.einsum("hci,hci->hc", u, vw)
    gap = np.maximum(delta - det, 0.0)
    energy = float((gap * gap).sum())
    if not want_grad:
        return energy, None
    co = (-2.0 * gap)[:, :, None]
    gu = co * vw
    gv = co * np.cross(w, u)
    gw = co * np.cross(u, v)
    return energy, _ref_scatter_corner_grads(hexes, positions, gu, gv, gw)


def _ref_init_interior(c, fixed, tolerance=1e-9):
    boundary, interior = classify_vertices(c)
    bset = set(boundary)
    missing = [vid for vid in boundary if vid not in fixed]
    if missing:
        raise MissingCoordinates(f"no coordinates for boundary vertex {missing[0]}")
    extra = sorted(set(fixed) - bset)
    if extra:
        raise ValueError(f"fixed contains non-boundary vertex {extra[0]}")

    positions = np.zeros((c.vertex_count, 3), dtype=float)
    banchor = np.array([fixed[vid] for vid in boundary], dtype=float)
    positions[list(boundary)] = banchor
    if not interior:
        return positions
    positions[list(interior)] = banchor.mean(axis=0)

    pairs = set()
    for corners in c.hexes:
        for a, b in HEX_EDGES:
            va, vb = corners[a], corners[b]
            pairs.add((va, vb))
            pairs.add((vb, va))
    rows = np.array(sorted(pairs))
    counts = np.bincount(rows[:, 0], minlength=c.vertex_count).reshape(-1, 1)
    ilist = list(interior)
    for _ in range(INIT_MAX_SWEEPS):
        sums = np.zeros_like(positions)
        np.add.at(sums, rows[:, 0], positions[rows[:, 1]])
        new = sums / np.maximum(counts, 1)
        delta = np.abs(new[ilist] - positions[ilist]).max()
        positions[ilist] = new[ilist]
        if delta < tolerance:
            break
    return positions


def _kernel_meshes():
    """(name, complex, fixed boundary coords) for the reference checks."""
    pyr, coords = pyramid36()
    fine, fine_coords = subdivide_hex(pyr, coords)
    grid, grid_coords = grid_complex(
        [(x, y, z) for x in range(3) for y in range(3) for z in range(2)]
    )
    rng = np.random.default_rng(29)
    jittered = grid_coords + 0.45 * rng.standard_normal(grid_coords.shape)
    out = []
    for name, c, xyz in (
        ("pyramid36", pyr, np.asarray(coords, dtype=float)),
        ("pyramid36/8", fine, np.asarray(fine_coords, dtype=float)),
        ("jittered grid", grid, jittered),
    ):
        boundary, _ = classify_vertices(c)
        out.append((name, c, xyz, {vid: xyz[vid] for vid in boundary}))
    return out


KERNEL_MESHES = _kernel_meshes()


def _kernel_embeddings():
    """(name, hexes, embedding): each mesh's coordinates, its harmonic
    start, and all points at the origin."""
    for name, c, xyz, fixed in KERNEL_MESHES:
        hexes = np.asarray(c.hexes)
        yield name, hexes, xyz
        yield name + " harmonic start", hexes, _ref_init_interior(c, fixed)
        yield name + " collapsed", hexes, np.zeros_like(xyz)


def test_kernel_inputs_cover_inverted_corners():
    inverted = {
        name
        for name, hexes, pts in _kernel_embeddings()
        if (_ref_corner_dets(hexes, pts) < 0.0).any()
    }
    assert {"jittered grid", "pyramid36 harmonic start"} <= inverted
    assert "pyramid36" not in inverted


def test_frames_and_corner_dets_match_the_reference():
    for name, hexes, pts in _kernel_embeddings():
        slots = _corner_slots(hexes)
        u, v, w = _frames(slots, pts)
        for got, want in zip((u, v, w), _ref_frames(hexes, pts)):
            assert np.array_equal(got, want), name
        for a, b in ((v, w), (w, u), (u, v)):
            assert np.array_equal(_cross(a, b), np.cross(a, b)), name
        assert np.array_equal(
            _corner_dets(slots, pts), _ref_corner_dets(hexes, pts)
        ), name


def _same_result(got, want):
    (e1, g1), (e2, g2) = got, want
    if g1 is None or g2 is None:
        return e1 == e2 and g1 is None and g2 is None
    return e1 == e2 and np.array_equal(g1, g2)


@pytest.mark.parametrize("want_grad", [False, True])
def test_quality_energy_matches_the_reference(want_grad):
    returns = set()
    for name, hexes, pts in _kernel_embeddings():
        slots = _corner_slots(hexes)
        for sigma in (BARRIER_STRENGTH, 0.9):
            for forbid, ref in (
                (False, _ref_quality_energy),
                (True, _ref_forbidding),
            ):
                got = _quality_energy(slots, pts, sigma, want_grad, forbid)
                want = ref(hexes, pts, sigma, want_grad)
                assert _same_result(got, want), (name, sigma, forbid)
                returns.add((forbid, math.isinf(got[0])))
    # both the inversion test and the zero-length-edge test returned inf
    assert returns == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("want_grad", [False, True])
def test_det_energy_matches_the_reference(want_grad):
    for name, hexes, pts in _kernel_embeddings():
        slots = _corner_slots(hexes)
        mean = float(np.abs(_ref_corner_dets(hexes, pts)).mean())
        for delta in (0.0, 0.05 * mean, 2.0 * mean):
            got = _det_energy(slots, pts, delta, want_grad)
            want = _ref_det_energy(hexes, pts, delta, want_grad)
            assert _same_result(got, want), (name, delta)


def test_gradient_scatter_matches_the_reference():
    rng = np.random.default_rng(41)
    for name, c, xyz, _ in KERNEL_MESHES:
        hexes = np.asarray(c.hexes)
        gu, gv, gw = rng.standard_normal((3, len(hexes), 8, 3))
        assert np.array_equal(
            _scatter_corner_grads(_corner_slots(hexes), xyz, gu, gv, gw),
            _ref_scatter_corner_grads(hexes, xyz, gu, gv, gw),
        ), name


def test_init_interior_matches_the_reference():
    for name, c, xyz, fixed in KERNEL_MESHES:
        assert np.array_equal(
            init_interior(c, fixed), _ref_init_interior(c, fixed)
        ), name
        moved = {vid: xyz[vid] * 1.5 + 0.25 for vid in fixed}
        assert np.array_equal(
            init_interior(c, moved, tolerance=1e-4),
            _ref_init_interior(c, moved, tolerance=1e-4),
        ), name
