"""Coordinates for hex complexes: quality metric, init, untangling.

The corner scaled Jacobian of a hex corner is the determinant of the
three unit-normalized edge vectors leaving it, ordered so that every
corner of the reference cube scores +1.  Embeddings are arrays of shape
(vertex_count, 3); partial embeddings (prescribed boundaries) are dicts
mapping vertex id to a coordinate triple.

The optimizer is a two-phase penalty method.  Scaled Jacobians are
useless for untangling (they are scale invariant, so collapsing
elements see vanishing gradients), so phase one drives the raw corner
determinants above a small volume-relative margin; once nothing is
inverted, phase two pushes the scaled Jacobians above BARRIER_STRENGTH,
rejecting any step that would re-invert a corner.  Both
phases run monotone line-searched L-BFGS descent on the free vertices.
A deliberately simple substitute for published untangling schemes,
good enough to embed the packings produced here.

One evaluation of either objective gathers every corner frame at once:
_corner_slots, built once per optimize_embedding or public call, holds
the flat coordinate indices of each corner's three neighbours and of
the corner, so one np.take fetches them and one np.bincount over the
same indices sums the gradient, each vertex's terms in a fixed order.
In the quality phase the inversion test comes first, on the corner
determinants the energy needs anyway, so a trial step that inverts a
corner is refused before any edge length is computed.  Cross products
use _cross, numpy's products in numpy's order without its axis
handling.  Dot products stay np.einsum: numpy 2.4 sums its three terms
as (p0 + p2) + p1, so a hand-written p0 + p1 + p2 rounds differently
and would move every embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEdge, MissingCoordinates
from .fixtures import pyramid36
from .hexmodel import HEX_EDGES, REF_CORNERS, classify_vertices


def _corner_neighbors():
    table = []
    for ci, p in enumerate(REF_CORNERS):
        adj = sorted(
            cj
            for cj, q in enumerate(REF_CORNERS)
            if sum(a != b for a, b in zip(p, q)) == 1
        )
        frame = np.array(
            [np.subtract(REF_CORNERS[cj], p) for cj in adj], dtype=float
        )
        if np.linalg.det(frame) < 0:
            adj[1], adj[2] = adj[2], adj[1]
        table.append(tuple(adj))
    return tuple(table)


# CORNER_NEIGHBORS[ci] lists the three corners adjacent to ci, ordered
# so the reference cube's determinant at every corner is +1.
CORNER_NEIGHBORS = _corner_neighbors()

_NA = np.array([n[0] for n in CORNER_NEIGHBORS])
_NB = np.array([n[1] for n in CORNER_NEIGHBORS])
_NC = np.array([n[2] for n in CORNER_NEIGHBORS])


@dataclass(frozen=True)
class QualityReport:
    per_hex_min: tuple
    global_min: float
    nonpositive_count: int


# optimize_embedding's settings: the iteration budget both phases share,
# the first trial step of each line search, the scaled Jacobian the
# quality phase pushes every corner above, and the stall tolerance
MAX_ITERATIONS = 10000
STEP_CONTROL = 1.0
BARRIER_STRENGTH = 0.5
TOLERANCE = 1e-10


@dataclass(frozen=True)
class OptimizeResult:
    embedding: np.ndarray
    report: QualityReport
    iterations: int
    energy: float
    stop_reason: str
    non_improvable: bool


def as_positions(e, vertex_count):
    """Coerce an embedding (dict or array-like) to a (V, 3) float array."""
    if isinstance(e, dict):
        out = np.empty((vertex_count, 3), dtype=float)
        for vid in range(vertex_count):
            if vid not in e:
                raise MissingCoordinates(f"no coordinates for vertex {vid}")
            out[vid] = e[vid]
    else:
        out = np.array(e, dtype=float)
        if out.shape != (vertex_count, 3):
            raise MissingCoordinates(
                f"embedding has shape {out.shape}, "
                f"expected ({vertex_count}, 3)"
            )
    if not np.isfinite(out).all():
        raise ValueError("embedding contains non-finite coordinates")
    return out


def _corner_slots(hexes):
    """(4, H, 8, 3) indices into a flattened (V, 3) coordinate array.

    Row k < 3 holds the coordinates of each corner's _NA, _NB or _NC
    neighbour, row 3 those of the corner itself.  One np.take gathers
    every frame, and one np.bincount over the same indices sums the
    corner gradients, each slot's terms in row, hex, corner order.
    """
    hexes = np.asarray(hexes, dtype=np.intp).reshape(-1, 8)
    ids = np.stack((hexes[:, _NA], hexes[:, _NB], hexes[:, _NC], hexes))
    return ids[..., None] * 3 + np.arange(3)


def _frames(slots, positions):
    """The three edge vectors leaving every hex corner, each (H, 8, 3)."""
    na, nb, nc, corner = np.take(positions, slots)
    return na - corner, nb - corner, nc - corner


def _cross(a, b):
    """Cross product of (..., 3) arrays over the last axis: numpy's own
    products, subtracted in the same order, without its axis handling."""
    out = np.empty_like(a)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def corner_scaled_jacobians(c, e):
    """(H, 8) array of corner scaled Jacobians; values lie in [-1, 1]."""
    positions = as_positions(e, c.vertex_count)
    if len(c.hexes) == 0:
        return np.empty((0, 8), dtype=float)
    u, v, w = _frames(_corner_slots(c.hexes), positions)
    a = np.linalg.norm(u, axis=2)
    b = np.linalg.norm(v, axis=2)
    d = np.linalg.norm(w, axis=2)
    if not (a.all() and b.all() and d.all()):
        raise DegenerateEdge("zero-length hex edge in embedding")
    det = np.einsum("hci,hci->hc", u, _cross(v, w))
    return np.clip(det / (a * b * d), -1.0, 1.0)


def quality_report(c, e):
    s = corner_scaled_jacobians(c, e)
    if s.size == 0:
        return QualityReport((), float("nan"), 0)
    return QualityReport(
        per_hex_min=tuple(float(x) for x in s.min(axis=1)),
        global_min=float(s.min()),
        nonpositive_count=int((s <= 0.0).sum()),
    )


def pyramid_boundary_coords():
    """Prescribed positions for the 18 boundary vertices of the pyramid."""
    c, coords = pyramid36()
    boundary, _ = classify_vertices(c)
    return {vid: coords[vid] for vid in boundary}


# the most Jacobi sweeps init_interior runs
INIT_MAX_SWEEPS = 100000


def init_interior(c, fixed, tolerance=1e-9):
    """Average interior vertices over their edge neighbors until settled.

    fixed maps exactly the boundary vertices to coordinates; those rows
    are returned untouched.  Jacobi sweeps run until the largest
    coordinate change drops below tolerance, or INIT_MAX_SWEEPS times.
    """
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
    # coordinate slots of each edge's two ends in the flattened positions;
    # bincount sums the terms of every slot in row order
    to_slots, from_slots = (rows.T[:, :, None] * 3 + np.arange(3)).reshape(2, -1)
    inner = np.array(interior)
    for _ in range(INIT_MAX_SWEEPS):
        sums = np.bincount(
            to_slots, np.take(positions, from_slots), positions.size
        ).reshape(-1, 3)
        new = sums / np.maximum(counts, 1)
        delta = np.abs(new[inner] - positions[inner]).max()
        positions[inner] = new[inner]
        if delta < tolerance:
            break
    return positions


def _corner_dets(slots, positions):
    u, v, w = _frames(slots, positions)
    return np.einsum("hci,hci->hc", u, _cross(v, w))


def _scatter_corner_grads(slots, positions, gu, gv, gw):
    """Sum the gradients of every corner's three edge vectors onto the
    vertices: + on each neighbour, - on the corner."""
    terms = np.stack((gu, gv, gw, -(gu + gv + gw)))
    return np.bincount(slots.ravel(), terms.ravel(), positions.size).reshape(-1, 3)


def _quality_energy(slots, positions, sigma, want_grad, forbid_inverted):
    """The quality penalty and its gradient (or None).

    With forbid_inverted, an embedding with a non-positive corner
    determinant is a forbidden state: infinite energy, decided before
    any edge length is computed.
    """
    u, v, w = _frames(slots, positions)
    vw = _cross(v, w)
    det = np.einsum("hci,hci->hc", u, vw)
    if forbid_inverted and det.min() <= 0.0:
        return float("inf"), None
    a2 = np.einsum("hci,hci->hc", u, u)
    b2 = np.einsum("hci,hci->hc", v, v)
    c2 = np.einsum("hci,hci->hc", w, w)
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = np.sqrt(a2 * b2 * c2)
        s = det / norm
    if not np.isfinite(s).all():
        return float("inf"), None
    gap = np.maximum(sigma - s, 0.0)
    energy = float((gap * gap).sum())
    if not want_grad:
        return energy, None
    coef = (-2.0 * gap / norm)[:, :, None]
    sn = (2.0 * gap * s)[:, :, None]
    gu = coef * vw + sn * u / a2[:, :, None]
    gv = coef * _cross(w, u) + sn * v / b2[:, :, None]
    gw = coef * _cross(u, v) + sn * w / c2[:, :, None]
    return energy, _scatter_corner_grads(slots, positions, gu, gv, gw)


def _det_energy(slots, positions, delta, want_grad):
    u, v, w = _frames(slots, positions)
    vw = _cross(v, w)
    det = np.einsum("hci,hci->hc", u, vw)
    gap = np.maximum(delta - det, 0.0)
    energy = float((gap * gap).sum())
    if not want_grad:
        return energy, None
    co = (-2.0 * gap)[:, :, None]
    gu = co * vw
    gv = co * _cross(w, u)
    gw = co * _cross(u, v)
    return energy, _scatter_corner_grads(slots, positions, gu, gv, gw)


def penalty_energy(c, e, sigma=BARRIER_STRENGTH):
    """Quality objective: sum over corners of max(0, sigma - s)^2."""
    positions = as_positions(e, c.vertex_count)
    energy, _ = _quality_energy(
        _corner_slots(c.hexes), positions, sigma, False, False
    )
    return energy


def penalty_gradient(c, e, sigma=BARRIER_STRENGTH):
    """Analytic gradient of penalty_energy with respect to every vertex."""
    positions = as_positions(e, c.vertex_count)
    _, grad = _quality_energy(
        _corner_slots(c.hexes), positions, sigma, True, False
    )
    if grad is None:
        raise DegenerateEdge("zero-length hex edge in embedding")
    return grad


def det_penalty_energy(c, e, delta):
    """Untangling objective: sum over corners of max(0, delta - det)^2."""
    positions = as_positions(e, c.vertex_count)
    energy, _ = _det_energy(_corner_slots(c.hexes), positions, delta, False)
    return energy


def det_penalty_gradient(c, e, delta):
    """Analytic gradient of det_penalty_energy."""
    positions = as_positions(e, c.vertex_count)
    _, grad = _det_energy(_corner_slots(c.hexes), positions, delta, True)
    return grad


# untangling margin: corner determinants are pushed above this fraction
# of the mean absolute corner determinant of the starting embedding
_UNTANGLE_MARGIN = 0.05

_STALL_WINDOW = 10


def _descend(fg, positions, free, budget, step0, tolerance):
    """Monotone L-BFGS descent of fg over the free rows of positions.

    fg(positions, want_grad) -> (energy, grad or None); an infinite
    energy marks a forbidden state, which the line search backs away
    from.  Returns (positions, energy, accepted_steps, reason); every
    accepted step strictly decreases the energy.  A start without a
    gradient (zero-length edges under the quality energy) raises
    DegenerateEdge.
    """
    energy, grad = fg(positions, True)
    if grad is None:
        raise DegenerateEdge("zero-length hex edge in embedding")
    if energy == 0.0 or free.size == 0:
        return positions, energy, 0, "zero_energy" if energy == 0.0 else "stall"
    x = positions[free].ravel()
    g = grad[free].ravel()
    mem_s, mem_y, mem_rho = [], [], []
    history = [energy]
    accepted = 0

    def at(xv, want_grad):
        pts = positions.copy()
        pts[free] = xv.reshape(-1, 3)
        e, gr = fg(pts, want_grad)
        return pts, e, gr

    for _ in range(budget):
        q = g.copy()
        alpha = [0.0] * len(mem_s)
        for i in range(len(mem_s) - 1, -1, -1):
            alpha[i] = mem_rho[i] * float(mem_s[i] @ q)
            q -= alpha[i] * mem_y[i]
        if mem_y:
            q *= float(mem_s[-1] @ mem_y[-1]) / float(mem_y[-1] @ mem_y[-1])
        else:
            q /= max(1.0, float(np.linalg.norm(g)))
        for i in range(len(mem_s)):
            beta = mem_rho[i] * float(mem_y[i] @ q)
            q += (alpha[i] - beta) * mem_s[i]
        d = -q
        slope = float(g @ d)
        if slope >= 0.0:  # bad curvature model: fall back to steepest descent
            d = -g
            slope = -float(g @ g)
            if slope == 0.0:
                return positions, energy, accepted, "stall"
        trial = step0
        while True:
            _, cand, _ = at(x + trial * d, False)
            if cand <= energy + 1e-4 * trial * slope:
                break
            trial *= 0.5
            if trial < 1e-18 * step0:
                return positions, energy, accepted, "no_step"
        xn = x + trial * d
        positions, energy_n, grad_n = at(xn, True)
        gn = grad_n[free].ravel()
        s, y = xn - x, gn - g
        ys = float(y @ s)
        if ys > 1e-14 * float(np.linalg.norm(y)) * float(np.linalg.norm(s)):
            mem_s.append(s)
            mem_y.append(y)
            mem_rho.append(1.0 / ys)
            if len(mem_s) > 8:
                mem_s.pop(0)
                mem_y.pop(0)
                mem_rho.pop(0)
        x, g, energy = xn, gn, energy_n
        accepted += 1
        history.append(energy)
        if energy == 0.0:
            return positions, energy, accepted, "zero_energy"
        if (
            len(history) > _STALL_WINDOW
            and history[-_STALL_WINDOW - 1] - energy < tolerance
        ):
            return positions, energy, accepted, "stall"
    return positions, energy, accepted, "max_iterations"


def optimize_embedding(c, e, fixed):
    """Untangle, then raise low scaled Jacobians; fixed vertices pinned.

    Phase one pushes raw corner determinants above a small margin so
    nothing stays inverted; phase two minimizes the scaled-Jacobian
    penalty at BARRIER_STRENGTH and refuses steps that would
    re-invert a corner.  Accepted steps always decrease the phase
    objective.  Each phase ends at zero energy, on a stall (< tolerance
    improvement over 10 iterations), when no step length helps, or when
    the shared iteration budget runs out.  non_improvable is set when
    the result still has a non-positive corner but the optimizer
    stopped for lack of progress rather than budget.  Fixed rows of the
    result are bit-identical to the input.  An embedding whose quality
    phase would start on a zero-length edge (say, every point at one
    place) raises DegenerateEdge.
    """
    positions = as_positions(e, c.vertex_count).copy()
    fixed = set(fixed)
    for vid in fixed:
        if not 0 <= vid < c.vertex_count:
            raise IndexError(f"fixed vertex {vid} out of range")
    free = np.array(
        [vid for vid in range(c.vertex_count) if vid not in fixed], dtype=int
    )
    slots = _corner_slots(c.hexes)

    def finish(iters, energy, reason):
        rep = quality_report(c, positions)
        bad = (
            rep.nonpositive_count > 0
            and reason in ("stall", "no_step")
        )
        return OptimizeResult(positions, rep, iters, energy, reason, bad)

    if len(c.hexes) == 0:
        return finish(0, 0.0, "zero_energy")
    if free.size == 0:
        energy, _ = _quality_energy(
            slots, positions, BARRIER_STRENGTH, False, False
        )
        return finish(0, energy, "zero_energy" if energy == 0.0 else "stall")

    dets = _corner_dets(slots, positions)
    if not np.isfinite(dets).all():
        raise ValueError("embedding produces non-finite corner determinants")
    delta = _UNTANGLE_MARGIN * float(np.abs(dets).mean())
    used = 0
    if dets.min() < delta:
        positions, energy, steps, reason = _descend(
            lambda p, wg: _det_energy(slots, p, delta, wg),
            positions,
            free,
            MAX_ITERATIONS,
            STEP_CONTROL,
            TOLERANCE,
        )
        used += steps
        if reason not in ("zero_energy",) and energy > 0.0:
            return finish(used, energy, reason)

    feasible = _corner_dets(slots, positions).min() > 0.0
    positions, energy, steps, reason = _descend(
        lambda p, wg: _quality_energy(slots, p, BARRIER_STRENGTH, wg, feasible),
        positions,
        free,
        MAX_ITERATIONS - used,
        STEP_CONTROL,
        TOLERANCE,
    )
    if MAX_ITERATIONS - used == 0:
        reason = "max_iterations"
    return finish(used + steps, energy, reason)
