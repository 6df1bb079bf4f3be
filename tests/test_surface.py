import random
import struct
import time
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexpack import surface
from hexpack.errors import (
    Disconnected,
    InconsistentOrientation,
    NonManifoldEdge,
    PinchedVertex,
)
from hexpack.hexmodel import build_complex, extract_boundary
from hexpack.moves import Placement
from hexpack.search import SearchOptions, build_ledger, replay_witness
from hexpack.surface import (
    CodeMemo,
    SurfacePattern,
    build_pattern,
    canonical_code,
    code_quad_count,
    cube_pattern,
    euler_characteristic,
    isomorphic,
    pyramid16_pattern,
    relabel,
)

from conftest import all_moves, grid_complex


def reference_best_emission(quads, directed, degree):
    """The dict-and-deque traversal canonical codes were first defined by."""
    best_pair = min((degree[u], degree[v]) for (u, v) in directed)
    roots = [e for e in directed if (degree[e[0]], degree[e[1]]) == best_pair]
    nq = len(quads)
    best = None
    for root in roots:
        labels = {}
        emission = []
        seen = [False] * nq
        qi, i = directed[root]
        seen[qi] = True
        queue = deque(((qi, i),))
        nxt = 0
        undecided = best is None  # still tied with best on the shared prefix
        alive = True
        pos = 0
        while queue:
            qi, i = queue.popleft()
            q = quads[qi]
            cyc = (q[i], q[(i + 1) % 4], q[(i + 2) % 4], q[(i + 3) % 4])
            for v in cyc:
                if v not in labels:
                    labels[v] = nxt
                    nxt += 1
            emission.extend(labels[v] for v in cyc)
            if not undecided:
                chunk = emission[pos : pos + 4]
                ref = best[pos : pos + 4]
                if chunk > ref:
                    alive = False
                    break
                if chunk < ref:
                    undecided = True  # strictly better, stop comparing
            pos += 4
            for k in range(4):
                nqi, _ = directed[(cyc[(k + 1) % 4], cyc[k])]
                if not seen[nqi]:
                    seen[nqi] = True
                    queue.append(directed[(cyc[(k + 1) % 4], cyc[k])])
        if alive and (best is None or emission < best):
            best = emission
    return best


def reference_code(p, reflection_invariant):
    em = reference_best_emission(p.quads, p.directed_edges, p.degree)
    if reflection_invariant:
        rquads = tuple(q[::-1] for q in p.quads)
        rdirected = {}
        for qi, q in enumerate(rquads):
            for i in range(4):
                rdirected[(q[i], q[(i + 1) % 4])] = (qi, i)
        em = min(em, reference_best_emission(rquads, rdirected, p.degree))
    return struct.pack(f">{len(em)}H", *em)


def subdivided_cube(m):
    """The boundary of an m x m x m block of cubes: 6 m^2 quads."""

    def vid(x):
        return x[0] + (m + 1) * (x[1] + (m + 1) * x[2])

    quads = []
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        for side in (0, m):
            for i in range(m):
                for j in range(m):
                    cyc = []
                    for di, dj in ((0, 0), (1, 0), (1, 1), (0, 1)):
                        x = [0, 0, 0]
                        x[a], x[b], x[c] = side, i + di, j + dj
                        cyc.append(vid(x))
                    # counterclockwise around +e_a; reversed on the low side
                    quads.append(tuple(cyc) if side else tuple(cyc[::-1]))
    return quads


def mirrored(p):
    return SurfacePattern(tuple(tuple(reversed(q)) for q in p.quads))


def shuffled_relabel(p, rnd):
    ids = sorted(p.vertices)
    perm = ids[:]
    rnd.shuffle(perm)
    mapping = dict(zip(ids, perm))
    quads = list(relabel(p, mapping).quads)
    rnd.shuffle(quads)
    # also rotate each quad cycle to a random start
    quads = [tuple(q[(i + k) % 4] for i in range(4)) for q, k in
             ((q, rnd.randrange(4)) for q in quads)]
    return SurfacePattern(tuple(quads))


def test_cube_pattern_shape():
    p = cube_pattern()
    assert len(p.quads) == 6
    assert euler_characteristic(p) == 2
    assert set(p.degree.values()) == {3}
    assert code_quad_count(canonical_code(p)) == 6


def test_pyramid_pattern_shape():
    p = pyramid16_pattern()
    assert len(p.quads) == 16
    assert euler_characteristic(p) == 2
    assert len(p.vertices) == 18
    degs = sorted(p.degree.values())
    assert degs.count(3) == 8 and degs.count(4) == 10


def test_pyramid_pattern_matches_ground_truth_boundary(pyramid):
    c, _ = pyramid
    boundary = extract_boundary(c)
    assert canonical_code(boundary) == canonical_code(pyramid16_pattern())
    ok, bij = isomorphic(boundary, pyramid16_pattern())
    assert ok
    # the bijection really maps quads onto quads
    image = {
        tuple(sorted((bij[q[0]], bij[q[1]], bij[q[2]], bij[q[3]])))
        for q in boundary.quads
    }
    target = {tuple(sorted(q)) for q in pyramid16_pattern().quads}
    assert image == target


def test_nonisomorphic_patterns_get_distinct_codes():
    assert canonical_code(cube_pattern()) != canonical_code(pyramid16_pattern())
    ok, bij = isomorphic(cube_pattern(), pyramid16_pattern())
    assert not ok and bij is None


def test_code_is_invariant_under_thousand_relabelings():
    # bulk determinism check across several base patterns
    sources = [
        cube_pattern(),
        pyramid16_pattern(),
        extract_boundary(
            replay_witness((Placement(1, (0,), 0), Placement(1, (0,), 1)))
        ),
    ]
    rnd = random.Random(20260819)
    for p in sources:
        want_plain = canonical_code(p, False)
        want_refl = canonical_code(p, True)
        for _ in range(334):
            q = shuffled_relabel(p, rnd)
            assert canonical_code(q, False) == want_plain
            assert canonical_code(q, True) == want_refl


def test_codes_equal_the_reference_traversal():
    ledger = build_ledger(5)
    patterns = []
    for rec in ledger.records.values():
        for parity in ("odd", "even"):
            count = rec.slot(parity)
            if count is None:
                continue
            packing = replay_witness(rec.witness(parity))
            patterns.append(extract_boundary(packing))
            if count <= 4:
                patterns.extend(
                    m.pattern
                    for m in all_moves(packing)
                )
    assert len(patterns) > 1500
    for p in patterns:
        for reflection in (True, False):
            assert canonical_code(p, reflection) == reference_code(p, reflection)


def test_code_refuses_too_many_vertices_before_the_traversal():
    small = build_pattern(subdivided_cube(3))
    assert euler_characteristic(small) == 2
    assert canonical_code(small) == reference_code(small, True)
    big = SurfacePattern(subdivided_cube(105))
    assert len(big.vertices) == 6 * 105**2 + 2 > 0xFFFF
    t = time.perf_counter()
    with pytest.raises(ValueError, match="16-bit"):
        canonical_code(big)
    assert time.perf_counter() - t < 1.0


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_isomorphic_recovers_random_relabelings(rnd):
    p = pyramid16_pattern()
    q = shuffled_relabel(p, rnd)
    ok, bij = isomorphic(p, q)
    assert ok
    image = {tuple(sorted(bij[v] for v in quad)) for quad in p.quads}
    assert image == {tuple(sorted(quad)) for quad in q.quads}


def test_codes_and_bijections_ignore_how_the_ids_are_numbered():
    # the boundary of a 2x2x2 block leaves its center's id unused
    block, _ = grid_complex(
        [(x, y, z) for x in range(2) for y in range(2) for z in range(2)]
    )
    p = extract_boundary(block)
    _, _, deg, ids = surface._half_edge_table(p.quads)
    assert ids == range(27) and deg.count(0) == 1  # the pattern's own ids
    want = [canonical_code(p, r) for r in (True, False)]
    for rename in (
        lambda v: 1000 * v + 7,  # sparse
        lambda v: -v - 1,
        lambda v: f"v{v}",
        lambda v: v + 0.5,
    ):
        q = relabel(p, {v: rename(v) for v in p.vertices})
        assert not isinstance(surface._half_edge_table(q.quads)[3], range)
        assert [canonical_code(q, r) for r in (True, False)] == want
        assert [CodeMemo(r).code(q) for r in (True, False)] == want
        for a, b in ((p, q), (q, p)):
            ok, bij = isomorphic(a, b)
            assert ok
            assert set(bij) == set(a.vertices)
            assert set(bij.values()) == set(b.vertices)


def test_reflection_flag_controls_mirror_identification():
    # this 4-hex packing has a chiral boundary: the mirror image is a
    # genuinely different labeled structure
    witness = tuple(
        Placement.from_token(t) for t in "1:0:0;1:0:1;1:0:6".split(";")
    )
    p = extract_boundary(replay_witness(witness))
    m = mirrored(p)
    assert canonical_code(p, True) == canonical_code(m, True)
    assert canonical_code(p, False) != canonical_code(m, False)
    assert isomorphic(p, m)[0] and isomorphic(p, m, False) == (False, None)
    # achiral case for contrast
    c = cube_pattern()
    assert canonical_code(c, False) == canonical_code(mirrored(c), False)


def counting_full_codes(monkeypatch):
    """The patterns the memo codes in full, as it calls canonical_code."""
    full = []
    plain = surface.canonical_code

    def counted(p, reflection_invariant=True, **table):
        full.append(p)
        return plain(p, reflection_invariant, **table)

    monkeypatch.setattr(surface, "canonical_code", counted)
    return full


def test_memo_joins_a_chiral_class_and_its_mirror_only_with_reflection(monkeypatch):
    witness = tuple(
        Placement.from_token(t) for t in "1:0:0;1:0:1;1:0:6".split(";")
    )
    p = extract_boundary(replay_witness(witness))
    m = mirrored(p)
    want = {r: (canonical_code(p, r), canonical_code(m, r)) for r in (True, False)}
    full = counting_full_codes(monkeypatch)
    memo = CodeMemo(True)
    assert (memo.code(p), memo.code(m), memo.code(p)) == want[True] + want[True][:1]
    assert full == [p]
    full.clear()
    memo = CodeMemo(False)
    assert (memo.code(p), memo.code(m), memo.code(m)) == want[False] + want[False][1:]
    assert want[False][0] != want[False][1]
    assert full == [p, m]


def test_memo_tells_apart_patterns_forced_into_one_bucket(monkeypatch):
    ledger = build_ledger(4)
    patterns = []
    for rec in ledger.records.values():
        packing = replay_witness(rec.best()[1])
        patterns.append(extract_boundary(packing))
        patterns.append(mirrored(patterns[-1]))
    rnd = random.Random(8)
    patterns += [shuffled_relabel(p, rnd) for p in patterns]
    monkeypatch.setattr(surface, "_bucket_key", lambda dq, roots: 0)
    full = counting_full_codes(monkeypatch)
    for reflection in (True, False):
        want = [canonical_code(p, reflection) for p in patterns]
        full.clear()
        memo = CodeMemo(reflection)
        assert [memo.code(p) for p in patterns] == want
        assert len(full) == len(set(want))
        # some bucket-mates have one quad count and still differ
        assert len(set(want)) > len({len(code) for code in want})


def plain_match(codes, tables, nv, ring):
    """(code, table index) of the first code a root of the tables emits
    by plain label walks (surface._walk), or (None, None)."""
    n = len(ring)
    for k, (Q, opp, _, roots) in enumerate(tables):
        for code in codes:
            if len(code) != 2 * n:
                continue
            em = struct.unpack(f">{n}H", code)
            for r in roots:
                if surface._walk(r, Q, opp, ring, nv, em)[0] is em:
                    return code, k
    return None, None


@pytest.mark.parametrize("reflection", [True, False])
def test_degree_guided_match_returns_what_plain_walks_return(monkeypatch, reflection):
    # every memo match of build_ledger(6), against plain label walks
    real = surface._match
    seen = {"calls": 0, "hits": 0, "mirror_hits": 0}

    def checked(codes, tables, deg, ring):
        tables = list(tables)
        got = real(codes, iter(tables), deg, ring)
        want, k = plain_match(codes, tables, len(deg), ring)
        assert got == want
        seen["calls"] += 1
        seen["hits"] += want is not None
        seen["mirror_hits"] += k == 1
        return got

    monkeypatch.setattr(surface, "_match", checked)
    build_ledger(6, SearchOptions(reflection_invariant=reflection))
    assert seen["calls"] > seen["hits"] > 0
    assert (seen["mirror_hits"] > 0) == reflection


def test_mirroring_is_invisible_with_reflection_invariance(pyramid):
    c, _ = pyramid
    for p in (cube_pattern(), pyramid16_pattern(), extract_boundary(c)):
        assert canonical_code(p, True) == canonical_code(mirrored(p), True)


def test_build_pattern_rejects_open_surface():
    with pytest.raises(NonManifoldEdge):
        build_pattern([(0, 1, 2, 3)])


def test_build_pattern_rejects_inconsistent_orientation():
    quads = list(cube_pattern().quads)
    quads[0] = tuple(reversed(quads[0]))
    with pytest.raises((InconsistentOrientation, NonManifoldEdge)):
        build_pattern(quads)


def test_build_pattern_rejects_disconnected_surface():
    a = cube_pattern().quads
    b = tuple(tuple(v + 8 for v in q) for q in a)
    with pytest.raises(Disconnected):
        build_pattern(a + b)


def test_build_pattern_rejects_pinched_vertex():
    # two cubes joined only at a single shared vertex
    a = cube_pattern().quads
    mapping = {v: v + 7 for v in range(8)}
    mapping[0] = 7  # weld vertex 0 of the second onto vertex 7 of the first
    b = tuple(tuple(mapping[v] for v in q) for q in a)
    with pytest.raises(PinchedVertex):
        build_pattern(a + b)


def test_euler_characteristic_values(pyramid):
    c, _ = pyramid
    assert euler_characteristic(cube_pattern()) == 2
    assert euler_characteristic(extract_boundary(c)) == 2
    # two stacked hexes: 12 boundary vertices, 20 edges, 10 quads
    stack = build_complex(
        [(0, 1, 2, 3, 4, 5, 6, 7), (4, 5, 6, 7, 8, 9, 10, 11)], 12
    )
    p = extract_boundary(stack)
    edges = {frozenset((q[i], q[(i + 1) % 4])) for q in p.quads for i in range(4)}
    assert (len(p.vertices), len(edges), len(p.quads)) == (12, 20, 10)
    assert euler_characteristic(p) == 2


def test_pattern_equality_ignores_quad_order_and_rotation():
    p = cube_pattern()
    rotated = SurfacePattern(
        tuple(tuple(q[(i + 1) % 4] for i in range(4)) for q in reversed(p.quads))
    )
    assert p == rotated
    assert hash(p) == hash(rotated)
    assert p != mirrored(p)
