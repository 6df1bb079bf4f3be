import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexpack.errors import (
    DegenerateHex,
    DuplicateHex,
    IndexOutOfRange,
    NonConformingFace,
    NonConformingInput,
    SharedFaceCountExceeded,
    Violation,
)
from hexpack.hexmodel import (
    HEX_EDGES,
    HEX_FACES,
    OPPOSITE_FACE,
    REF_CORNERS,
    boundary_violations,
    build_complex,
    check_conformity,
    classify_vertices,
    extract_boundary,
    face_key,
    hex_face_cycle,
    hex_parity,
    oriented_key,
    subdivide_hex,
    subdivide_tet,
)
from hexpack.search import build_ledger, replay_witness
from hexpack.surface import cube_pattern

from conftest import grid_complex


def test_face_cycles_form_a_closed_oriented_cube():
    # every cube edge appears exactly once per direction across the six cycles
    directed = [
        (cyc[i], cyc[(i + 1) % 4]) for cyc in HEX_FACES for i in range(4)
    ]
    assert len(directed) == 24
    assert len(set(directed)) == 24
    assert {tuple(sorted(e)) for e in directed} == set(HEX_EDGES)
    assert len(HEX_EDGES) == 12
    for f, g in enumerate(OPPOSITE_FACE):
        assert not set(HEX_FACES[f]) & set(HEX_FACES[g])


def test_face_cycles_wind_against_outward_normals():
    # on the reference cube each face cycle is clockwise seen from outside,
    # so the boundary extraction reverses it; check via the divergence sum
    pts = np.array(REF_CORNERS, dtype=float)
    total = 0.0
    for cyc in HEX_FACES:
        q = pts[list(reversed(cyc))]
        center = q.mean(axis=0)
        for i in range(4):
            a, b = q[i], q[(i + 1) % 4]
            total += np.dot(center, np.cross(a, b)) / 2.0
    assert total / 3.0 == pytest.approx(1.0)


def test_face_key_identifies_rotations_and_reversals():
    assert face_key((3, 7, 11, 2)) == face_key((11, 2, 3, 7))
    assert face_key((3, 7, 11, 2)) == face_key((2, 11, 7, 3))
    assert oriented_key((3, 7, 11, 2)) == oriented_key((11, 2, 3, 7))
    assert oriented_key((3, 7, 11, 2)) != oriented_key((2, 11, 7, 3))


def test_build_complex_rejects_bad_indices():
    with pytest.raises(IndexOutOfRange):
        build_complex([(0, 1, 2, 3, 4, 5, 6, 8)], 8)
    with pytest.raises(IndexOutOfRange):
        build_complex([(0, 1, 2, 3, 4, 5, 6, -1)], 8)


def test_build_complex_rejects_degenerate_and_duplicate_hexes():
    with pytest.raises(DegenerateHex):
        build_complex([(0, 1, 2, 3, 4, 5, 6, 6)], 8)
    h = (0, 1, 2, 3, 4, 5, 6, 7)
    with pytest.raises(DuplicateHex):
        build_complex([h, (4, 5, 6, 7, 0, 1, 2, 3)], 8)  # same corner set


def test_build_complex_rejects_partial_face_overlap():
    c, _ = grid_complex([(0, 0, 0), (1, 0, 0)])
    assert check_conformity(c).ok
    # three hexes stacked through one face key the face three times
    bad = [
        (0, 1, 2, 3, 4, 5, 6, 7),
        (4, 5, 6, 7, 8, 9, 10, 11),
        (4, 5, 6, 7, 12, 13, 14, 15),
    ]
    with pytest.raises(NonConformingFace):
        build_complex(bad, 16)


def test_build_complex_rejects_same_winding_pair():
    # second hex traverses the shared face in the same direction: the two
    # cells lie on the same side, geometrically an overlap
    a = (0, 1, 2, 3, 4, 5, 6, 7)
    b = (0, 1, 2, 3, 8, 9, 10, 11)
    with pytest.raises(NonConformingFace):
        build_complex([a, b], 12)


def test_build_complex_rejects_two_shared_faces():
    # doublet: one hex welded onto two adjacent faces of another
    a = (0, 1, 2, 3, 4, 5, 6, 7)
    b = (3, 2, 1, 0, 8, 6, 5, 9)
    with pytest.raises(SharedFaceCountExceeded):
        build_complex([a, b], 10)


def test_conformity_report_of_ground_truth(pyramid):
    c, _ = pyramid
    report = check_conformity(c)
    assert report.ok
    # 100 interior faces shared by two hexes, 16 boundary faces
    assert report.face_incidence == {2: 100, 1: 16}


def test_boundary_and_classification_of_ground_truth(pyramid):
    c, _ = pyramid
    boundary = extract_boundary(c)
    assert len(boundary.quads) == 16
    bverts, iverts = classify_vertices(c)
    assert len(bverts) == 18
    assert len(iverts) == 33
    assert bverts == tuple(range(18))
    assert hex_parity(c) == "even"


def test_an_unused_vertex_id_is_neither_boundary_nor_interior():
    c = build_complex([tuple(range(8))], vertex_count=9)
    assert classify_vertices(c) == (tuple(range(8)), ())


def test_parity_fixtures_shapes(odd17, even18):
    assert len(odd17.hexes) == 17 and hex_parity(odd17) == "odd"
    assert len(even18.hexes) == 18 and hex_parity(even18) == "even"
    assert len(extract_boundary(odd17).quads) == 34
    assert len(extract_boundary(even18).quads) == 34


def test_boundary_quads_wind_outward(pyramid):
    c, coords = pyramid
    pts = np.array(coords)
    total = 0.0
    for q in c.boundary_quads():
        quad = pts[list(q)]
        for i in range(4):
            a, b = quad[i], quad[(i + 1) % 4]
            total += np.dot(quad.mean(axis=0), np.cross(a, b)) / 2.0
    # near the ideal pyramid volume (base 2x2, apex height sqrt(2));
    # a few published base coordinates are slightly perturbed, so only
    # the leading digits are meaningful
    assert total / 3.0 == pytest.approx(1.878, abs=0.01)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_relabeling_preserves_conformity(pyramid, rnd):
    c, _ = pyramid
    perm = list(range(c.vertex_count))
    rnd.shuffle(perm)
    relabeled = build_complex(
        [tuple(perm[v] for v in h) for h in c.hexes], c.vertex_count
    )
    report = check_conformity(relabeled)
    assert report.ok
    assert sorted(report.face_incidence.values()) == sorted(
        check_conformity(c).face_incidence.values()
    )


def test_subdivide_cube_with_coords(cube, cube_coords):
    fine, coords = subdivide_hex(cube, cube_coords)
    assert len(fine.hexes) == 8
    assert fine.vertex_count == 27
    assert check_conformity(fine).ok
    pts = np.array(coords)
    # one body vertex at the center, shared face/edge points averaged
    assert any((p == (0.5, 0.5, 0.5)).all() for p in pts)
    assert len(extract_boundary(fine).quads) == 24


def test_subdivide_scales_counts(pyramid):
    c, coords = pyramid
    fine, fcoords = subdivide_hex(c, coords)
    assert len(fine.hexes) == 8 * 36
    assert check_conformity(fine).ok
    assert len(extract_boundary(fine).quads) == 4 * 16
    assert len(fcoords) == fine.vertex_count
    # subdividing without coordinates gives the same complex
    assert subdivide_hex(c) == fine


def test_subdivide_rejects_nothing_but_preserves_parity(cube):
    fine = subdivide_hex(cube)
    assert hex_parity(fine) == "even"
    finer = subdivide_hex(fine)
    assert len(finer.hexes) == 64


def test_subdivide_tet_single():
    c = subdivide_tet([(0, 1, 2, 3)], 4)
    assert len(c.hexes) == 4
    assert check_conformity(c).ok
    assert len(extract_boundary(c).quads) == 12


def test_subdivide_tet_pair_conforms():
    c = subdivide_tet([(0, 1, 2, 3), (1, 2, 3, 4)], 5)
    assert len(c.hexes) == 8
    assert check_conformity(c).ok


def test_subdivide_tet_rejects_bad_input():
    with pytest.raises(NonConformingInput):
        subdivide_tet([(0, 1, 2, 2)], 3)
    with pytest.raises(NonConformingInput):
        subdivide_tet([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)], 6)


def test_hex_face_matches_the_face_constants(cube):
    for f in range(6):
        assert cube.hex_face(0, f) == hex_face_cycle(cube.hexes[0], f)
        assert cube.hex_face(0, f) == HEX_FACES[f]


def reference_boundary_violations(quads):
    """Closed-orientable-manifold violations for a list of quad cycles.

    The map-per-question definition boundary_violations was first written
    as; the rewrite on one half-edge table must return the same lists.

    Checks undirected edge incidence 2 with opposite directions, a single
    disk of quads around every vertex, and connectivity.  Shared with the
    surface pattern validator.
    """
    violations = []
    for qi, q in enumerate(quads):
        if len(q) != 4 or len(set(q)) != 4:
            violations.append(
                Violation("DegenerateQuad", f"quad {qi} = {q} is not a 4-cycle", (qi,))
            )
    if violations:
        return violations

    directed = {}
    for qi, q in enumerate(quads):
        for i in range(4):
            e = (q[i], q[(i + 1) % 4])
            directed.setdefault(e, []).append((qi, i))

    edges_ok = True
    reported = set()
    for (u, v), occ in directed.items():
        if (v, u) in reported or (u, v) in reported:
            continue
        rev = directed.get((v, u), [])
        if len(occ) + len(rev) != 2:
            violations.append(
                Violation(
                    "NonManifoldEdge",
                    f"edge ({u},{v}) lies in {len(occ) + len(rev)} quads",
                    (u, v),
                )
            )
            edges_ok = False
        elif len(occ) == 2:
            violations.append(
                Violation(
                    "InconsistentOrientation",
                    f"edge ({u},{v}) is traversed twice in the same direction",
                    (u, v),
                )
            )
            edges_ok = False
        reported.add((u, v))
        reported.add((v, u))
    if not edges_ok or not quads:
        return violations

    # Now every directed edge occurs exactly once; umbrella and
    # connectivity walks below rely on that.
    edge_quad = {e: occ[0] for e, occ in directed.items()}

    incident = {}
    for qi, q in enumerate(quads):
        for i, v in enumerate(q):
            incident.setdefault(v, []).append((qi, i))
    for v, occ in sorted(incident.items()):
        qi, i = occ[0]
        count = 0
        start = (qi, i)
        while True:
            count += 1
            q = quads[qi]
            nxt = q[(i + 1) % 4]
            qi, j = edge_quad[(nxt, v)]
            i = quads[qi].index(v)
            if (qi, i) == start or count > len(occ):
                break
        if count != len(occ):
            violations.append(
                Violation(
                    "PinchedVertex",
                    f"vertex {v} has {len(occ)} incident quads in more than one disk",
                    (v,),
                )
            )

    seen = {0}
    stack = [0]
    while stack:
        qi = stack.pop()
        q = quads[qi]
        for i in range(4):
            nq, _ = edge_quad[(q[(i + 1) % 4], q[i])]
            if nq not in seen:
                seen.add(nq)
                stack.append(nq)
    if len(seen) != len(quads):
        violations.append(
            Violation(
                "Disconnected",
                f"boundary has more than one component ({len(seen)} of {len(quads)} quads reached)",
                (),
            )
        )
    return violations



def _mutations(quads, rnd):
    """Seeded breakages of a closed surface, one per kind of damage."""
    quads = list(quads)
    n = len(quads)
    j, k = rnd.sample(range(n), 2)
    top = 1 + max(v for q in quads for v in q)
    copy = [tuple(v + top for v in q) for q in quads]
    quad = quads[j]
    i = rnd.randrange(4)
    a, b, c, d = rnd.sample(sorted({v for q in quads for v in q}), 4)
    yield quads[:j] + quads[j + 1:]  # dropped
    yield quads[:j] + [quad[::-1]] + quads[j + 1:]  # reversed
    yield quads + [quad]  # duplicated
    r = rnd.randrange(4)
    yield quads[:j] + [quads[k][r:] + quads[k][:r]] + quads[j + 1:]  # onto another
    yield quads + copy  # disjoint copy
    pinch = {a + top: b, c + top: d}
    yield quads + [tuple(pinch.get(v, v) for v in q) for q in copy]  # pinched twice
    del pinch[c + top]
    yield quads + [tuple(pinch.get(v, v) for v in q) for q in copy]  # pinched
    collapsed = quad[:i] + (quad[(i + 1) % 4],) + quad[i + 1:]
    yield quads[:j] + [collapsed] + quads[j + 1:]
    yield [tuple(b if v == a else v for v in q) for q in quads]  # two vertices welded


def test_boundary_violations_match_the_reference():
    cube = list(cube_pattern().quads)
    reversed_first = [cube[0][::-1]] + cube[1:]
    shifted = [tuple(v + 8 for v in q) for q in cube]
    weld = {v: v + 7 for v in range(8)}
    weld[0] = 7
    pinched = cube + [tuple(weld[v] for v in q) for q in cube]
    inputs = [[], [(0, 1, 2, 3)], [(0, 1, 2)], reversed_first, cube + shifted, pinched]
    ledger = build_ledger(5)
    rnd = random.Random(4011)
    for rec in ledger.records.values():
        for parity in ("odd", "even"):
            if rec.slot(parity) is None:
                continue
            quads = list(extract_boundary(replay_witness(rec.witness(parity))).quads)
            rnd.shuffle(quads)
            inputs.append(quads)
            broken = list(_mutations(quads, rnd))
            inputs.extend(broken)
            inputs.extend(_mutations(rnd.choice(broken[:4]), rnd))
    kinds = set()
    for quads in inputs:
        want = reference_boundary_violations(quads)
        assert boundary_violations(quads) == want, quads
        kinds.update(v.kind for v in want)
    assert kinds == {
        "DegenerateQuad",
        "NonManifoldEdge",
        "InconsistentOrientation",
        "PinchedVertex",
        "Disconnected",
    }
