"""Topological hexahedral complexes.

A hexahedron is an 8-tuple of vertex ids in the reference cube order:
corners 0..3 run around the bottom face, corners 4..7 around the top,
with corner k directly below corner k+4.  Everything here is purely
combinatorial; coordinates live in :mod:`hexpack.geometry`.

Values are immutable after construction (a complex builds its face
index on first use and then keeps it) and all operations are pure
functions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    IndexOutOfRange,
    NonConformingInput,
    Violation,
    raise_violations,
)

# Corner positions of the reference cube, indexed by corner id.
REF_CORNERS = (
    (0, 0, 0),
    (1, 0, 0),
    (1, 1, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, 0, 1),
    (1, 1, 1),
    (0, 1, 1),
)

# The six quad faces of the cube as corner cycles.  The cycles are chosen
# so that across all six faces every cube edge is traversed exactly once
# in each direction; seen from outside the cube each cycle runs clockwise.
# Boundary extraction therefore reverses these cycles to obtain outward
# counterclockwise quads.
HEX_FACES = (
    (0, 1, 2, 3),
    (4, 7, 6, 5),
    (0, 4, 5, 1),
    (1, 5, 6, 2),
    (2, 6, 7, 3),
    (3, 7, 4, 0),
)

# OPPOSITE_FACE[f] is the face sharing no corner with f.
OPPOSITE_FACE = (1, 0, 4, 5, 2, 3)

# The 12 cube edges as sorted corner pairs.
HEX_EDGES = tuple(
    sorted(
        {
            tuple(sorted((cyc[i], cyc[(i + 1) % 4])))
            for cyc in HEX_FACES
            for i in range(4)
        }
    )
)


def face_key(cycle):
    """Canonical form of a quad cycle up to rotation and reversal.

    Two faces are the same undirected face iff their keys are equal.
    """
    i = cycle.index(min(cycle))
    fwd = (cycle[i], cycle[(i + 1) % 4], cycle[(i + 2) % 4], cycle[(i + 3) % 4])
    bwd = (cycle[i], cycle[(i - 1) % 4], cycle[(i - 2) % 4], cycle[(i - 3) % 4])
    return fwd if fwd <= bwd else bwd


def oriented_key(cycle):
    """Canonical rotation of a quad cycle, preserving direction."""
    i = cycle.index(min(cycle))
    return (cycle[i], cycle[(i + 1) % 4], cycle[(i + 2) % 4], cycle[(i + 3) % 4])


def hex_face_cycle(corners, f):
    """The cycle of face f of a hex given by its 8 corner ids."""
    a, b, c, d = HEX_FACES[f]
    return (corners[a], corners[b], corners[c], corners[d])


class HexComplex:
    """An immutable ordered collection of hexahedra over dense vertex ids.

    Construct through :func:`build_complex`, which validates all the
    conformity invariants.  Instances built directly are not checked.
    """

    __slots__ = ("vertex_count", "hexes", "_face_index", "_grown_from")

    def __init__(self, vertex_count, hexes):
        self.vertex_count = int(vertex_count)
        self.hexes = tuple(tuple(h) for h in hexes)
        self._face_index = None
        # (predecessor's face index, last hex) of a complex made by glued()
        self._grown_from = None

    @property
    def face_index(self):
        """Map from face key to the (hex index, face index) incidences.

        Keys come in (hex, face) order of their first incidence.  A
        complex made by glued() takes a copy of its predecessor's index
        and adds its last hex's 6 incidences: a key that hex shares
        keeps its place, a new key goes last, in face order.  That is
        the dict a rebuild makes, so boundary_items keeps its order.
        Any other complex builds the index from all its hexes.  Either
        way it is built on first use.
        """
        if self._face_index is None:
            if self._grown_from is not None:
                index, new_hex = self._grown_from
                index = dict(index)
                hi = len(self.hexes) - 1
                for f in range(6):
                    key = face_key(hex_face_cycle(new_hex, f))
                    index[key] = index.get(key, ()) + ((hi, f),)
                self._grown_from = None  # let the predecessor's index go
            else:
                index = {}
                for hi, corners in enumerate(self.hexes):
                    for f in range(6):
                        key = face_key(hex_face_cycle(corners, f))
                        index.setdefault(key, []).append((hi, f))
                index = {k: tuple(v) for k, v in index.items()}
            self._face_index = index
        return self._face_index

    def glued(self, new_hex):
        """This complex with new_hex appended; its face index carries on.

        The new complex holds this one's index and copies it on its own
        first face_index call, so the two never share a mutable dict,
        and a candidate whose index is never read costs no copy.
        new_hex is not checked (glue_hex does that).
        """
        grown = HexComplex(max(self.vertex_count, max(new_hex) + 1),
                           self.hexes + (new_hex,))
        grown._grown_from = (self.face_index, new_hex)
        return grown

    def hex_face(self, hi, f):
        return hex_face_cycle(self.hexes[hi], f)

    def boundary_items(self):
        """(hex index, face index) pairs of incidence-1 faces, in hex order.

        face_index inserts its keys in (hex, face) order, so its
        single incidences come out in that order too.
        """
        return [inc[0] for inc in self.face_index.values() if len(inc) == 1]

    def boundary_quads(self):
        """Outward-oriented boundary quad cycles, in (hex, face) order."""
        return [
            tuple(reversed(self.hex_face(hi, f))) for hi, f in self.boundary_items()
        ]

    def __len__(self):
        return len(self.hexes)

    def __eq__(self, other):
        if not isinstance(other, HexComplex):
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.hexes == other.hexes

    def __hash__(self):
        return hash((self.vertex_count, self.hexes))

    def __repr__(self):
        return f"HexComplex({len(self.hexes)} hexes, {self.vertex_count} vertices)"


@dataclass(frozen=True)
class ConformityReport:
    """Result of :func:`check_conformity`.

    face_incidence maps an incidence count (1 = boundary, 2 = interior)
    to the number of faces with that count.
    """

    face_incidence: dict
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def build_complex(hexes, vertex_count=None):
    """Build a validated HexComplex from 8-tuples of vertex ids.

    vertex_count defaults to one past the largest id used.  Raises a
    :class:`ValidationError` subclass on the first class of violation
    found; the exception carries the full violation list.
    """
    hexes = [tuple(h) for h in hexes]
    violations = []
    max_id = -1
    for hi, h in enumerate(hexes):
        if len(h) != 8:
            violations.append(
                Violation("DegenerateHex", f"hex {hi} has {len(h)} corners", (hi,))
            )
            continue
        if any(not isinstance(v, int) or v < 0 for v in h):
            violations.append(
                Violation("IndexOutOfRange", f"hex {hi} has a bad vertex id", (hi,))
            )
            continue
        if len(set(h)) != 8:
            violations.append(
                Violation("DegenerateHex", f"hex {hi} repeats a vertex id", (hi,))
            )
        max_id = max(max_id, *h)
    if violations:
        raise_violations(violations)
    if vertex_count is None:
        vertex_count = max_id + 1
    elif max_id >= vertex_count:
        raise IndexOutOfRange(
            f"vertex id {max_id} outside 0..{vertex_count - 1}",
            (Violation("IndexOutOfRange", f"vertex id {max_id} out of range"),),
        )
    c = HexComplex(vertex_count, hexes)
    report = check_conformity(c)
    if not report.ok:
        raise_violations(report.violations)
    return c


def check_conformity(c):
    """Check every HexComplex invariant; returns a report, never raises."""
    violations = []

    seen = {}
    for hi, h in enumerate(c.hexes):
        key = frozenset(h)
        if key in seen:
            violations.append(
                Violation(
                    "DuplicateHex",
                    f"hexes {seen[key]} and {hi} have identical vertex sets",
                    (seen[key], hi),
                )
            )
        else:
            seen[key] = hi

    hist = {}
    pair_shares = {}
    for key, inc in c.face_index.items():
        n = len(inc)
        hist[n] = hist.get(n, 0) + 1
        if n > 2:
            violations.append(
                Violation(
                    "NonConformingFace",
                    f"face {key} belongs to {n} hexes",
                    (key, inc),
                )
            )
        elif n == 2:
            (h1, f1), (h2, f2) = inc
            if oriented_key(c.hex_face(h1, f1)) == oriented_key(c.hex_face(h2, f2)):
                violations.append(
                    Violation(
                        "NonConformingFace",
                        f"face {key} is traversed the same way by hexes {h1} and {h2}",
                        (key, inc),
                    )
                )
            pair = (h1, h2) if h1 < h2 else (h2, h1)
            pair_shares[pair] = pair_shares.get(pair, 0) + 1

    for pair, n in sorted(pair_shares.items()):
        if n > 1:
            violations.append(
                Violation(
                    "SharedFaceCountExceeded",
                    f"hexes {pair[0]} and {pair[1]} share {n} faces",
                    pair,
                )
            )

    violations.extend(boundary_violations(c.boundary_quads()))
    return ConformityReport(face_incidence=hist, violations=tuple(violations))


def boundary_violations(quads):
    """Closed-orientable-manifold violations for a list of quad cycles.

    Every check runs on one flat half-edge numbering: half-edge
    h = 4*qi + i runs from quads[qi][i] to the next corner of quad qi.
    Quads that are not 4-cycles are reported alone.  Otherwise each
    undirected edge not traversed once each way is reported under the
    direction seen first; when every edge passes, each vertex whose
    quads form more than one disk follows by id, then Disconnected.
    Shared with the surface pattern validator.
    """
    violations = [
        Violation("DegenerateQuad", f"quad {qi} = {q} is not a 4-cycle", (qi,))
        for qi, q in enumerate(quads)
        if len(q) != 4 or len(set(q)) != 4
    ]
    if violations:
        return violations

    tail = [v for q in quads for v in q]
    head = tail[1:] + tail[:1]
    head[3::4] = tail[::4]
    half = {}  # directed edge -> its half-edges, in increasing order
    for h, e in enumerate(zip(tail, head)):
        half.setdefault(e, []).append(h)
    for (u, v), hs in half.items():
        rev = half.get((v, u), ())
        if rev and rev[0] < hs[0]:
            continue  # reported under (v, u)
        n = len(hs) + len(rev)
        if n != 2:
            what = f"edge ({u},{v}) lies in {n} quads"
            violations.append(Violation("NonManifoldEdge", what, (u, v)))
        elif len(hs) == 2:
            what = f"edge ({u},{v}) is traversed twice in the same direction"
            violations.append(Violation("InconsistentOrientation", what, (u, v)))
    if violations or not quads:
        return violations

    # Every directed edge now occurs once, so opp[h] is h's reverse, and
    # h -> opp[prev(h)] turns about tail[h]: its cycles are the disks.
    opp = [half[e][0] for e in zip(head, tail)]
    disks = {}
    done = [False] * len(tail)
    for h, v in enumerate(tail):
        if not done[h]:
            disks[v] = disks.get(v, 0) + 1
            g = h
            while not done[g]:
                done[g] = True
                g = opp[g - 1 if g & 3 else g + 3]
    for v in sorted(v for v in disks if disks[v] > 1):
        n = tail.count(v)
        what = f"vertex {v} has {n} incident quads in more than one disk"
        violations.append(Violation("PinchedVertex", what, (v,)))

    seen = {0}
    stack = [0]
    while stack:
        qi = stack.pop()
        for h in opp[4 * qi : 4 * qi + 4]:
            if h >> 2 not in seen:
                seen.add(h >> 2)
                stack.append(h >> 2)
    if len(seen) != len(quads):
        reached = f"{len(seen)} of {len(quads)} quads reached"
        what = f"boundary has more than one component ({reached})"
        violations.append(Violation("Disconnected", what, ()))
    return violations


def extract_boundary(c):
    """The outward-oriented boundary of a complex as a SurfacePattern.

    Raises a NonManifoldBoundary subclass when it is not a closed
    orientable surface.
    """
    from . import surface

    return surface.build_pattern(c.boundary_quads())


def classify_vertices(c):
    """Split the vertex ids the hexes use into (boundary, interior),
    both sorted tuples; an id no hex uses is in neither."""
    on_boundary = set()
    for q in c.boundary_quads():
        on_boundary.update(q)
    used = {v for h in c.hexes for v in h}
    boundary = tuple(sorted(on_boundary))
    interior = tuple(sorted(used - on_boundary))
    return boundary, interior


def parity_word(n):
    """'odd' or 'even' according to a hex count."""
    return "odd" if n % 2 else "even"


def hex_parity(c):
    """'odd' or 'even' according to the number of hexes."""
    return parity_word(len(c.hexes))


# Lattice positions used by subdivide_hex: each point of the 3x3x3 grid
# on the reference cube, with the set of corners it interpolates.
def _build_lattice():
    entries = []
    for p in itertools.product((0, 1, 2), repeat=3):
        support = tuple(
            ci
            for ci, cc in enumerate(REF_CORNERS)
            if all(p[a] == 2 * cc[a] for a in range(3) if p[a] != 1)
        )
        kind = {1: "corner", 2: "edge", 4: "face", 8: "body"}[len(support)]
        face = None
        if kind == "face":
            face = next(
                f for f in range(6) if set(HEX_FACES[f]) == set(support)
            )
        entries.append((p, kind, support, face))
    return tuple(entries)


_LATTICE = _build_lattice()


class _Minter:
    """Ids, and with coords positions, of the points a subdivision adds.

    mint(key, support) returns the id of the point named key: the next
    id from vertex_count on, at the key's first use.  When the old
    vertices' (x, y, z) rows are given, coords lists every vertex's
    position, a new point at the centroid of its support vertices.
    count is the vertex count so far.
    """

    def __init__(self, vertex_count, coords):
        self.count = vertex_count
        self.ids = {}
        self.coords = None
        if coords is not None:
            self.coords = [tuple(map(float, coords[v])) for v in range(vertex_count)]

    def __call__(self, key, support):
        v = self.ids.get(key)
        if v is None:
            v = self.ids[key] = self.count
            self.count += 1
            if self.coords is not None:
                pts = [self.coords[s] for s in support]
                self.coords.append(tuple(sum(x) / len(pts) for x in zip(*pts)))
        return v


def subdivide_hex(c, coords=None):
    """Split every hex into 8 via edge midpoints, face and body centers.

    New vertices are shared across hexes through their supporting corner
    sets, so the result is conforming.  With coords (an array-like of
    (x, y, z) rows) the interpolated coordinates are returned as well:
    returns HexComplex, or (HexComplex, list of coords) when coords is
    given.
    """
    mint = _Minter(c.vertex_count, coords)
    new_hexes = []
    for hi, corners in enumerate(c.hexes):
        local = {}
        for p, kind, support, face in _LATTICE:
            if kind == "corner":
                local[p] = corners[support[0]]
                continue
            if kind == "edge":
                key = ("e",) + tuple(sorted(corners[s] for s in support))
            elif kind == "face":
                key = ("f",) + face_key(hex_face_cycle(corners, face))
            else:
                key = ("b", hi)
            local[p] = mint(key, [corners[s] for s in support])
        for octant in REF_CORNERS:
            new_hexes.append(
                tuple(
                    local[
                        (
                            octant[0] + rc[0],
                            octant[1] + rc[1],
                            octant[2] + rc[2],
                        )
                    ]
                    for rc in REF_CORNERS
                )
            )
    refined = build_complex(new_hexes, mint.count)
    if coords is None:
        return refined
    return refined, mint.coords


# For tet corner v the remaining corners in the order (a, b, c) that makes
# the derived hex (v, m_va, f_vab, m_vb, m_vc, f_vac, body, f_vbc)
# positively oriented when the tet (t0,t1,t2,t3) is positively oriented.
_TET_REST = ((1, 2, 3), (0, 3, 2), (3, 0, 1), (2, 1, 0))


def subdivide_tet(tets, vertex_count=None, coords=None):
    """Split each tetrahedron into 4 hexes (corner, midpoints, centers).

    The tets must form a conforming tetrahedral mesh: 4 distinct corner
    ids each, no repeated tet, every triangle face in at most 2 tets.
    Returns HexComplex, or (HexComplex, coords list) when coords is given.
    """
    tets = [tuple(t) for t in tets]
    violations = []
    max_id = -1
    seen = {}
    tri_count = {}
    for ti, t in enumerate(tets):
        if len(t) != 4 or len(set(t)) != 4 or any(
            not isinstance(v, int) or v < 0 for v in t
        ):
            violations.append(
                Violation("NonConformingInput", f"tet {ti} = {t} is malformed", (ti,))
            )
            continue
        max_id = max(max_id, *t)
        key = frozenset(t)
        if key in seen:
            violations.append(
                Violation(
                    "NonConformingInput",
                    f"tets {seen[key]} and {ti} have identical vertex sets",
                    (seen[key], ti),
                )
            )
        seen[key] = ti
        for tri in itertools.combinations(sorted(t), 3):
            tri_count[tri] = tri_count.get(tri, 0) + 1
    for tri, n in sorted(tri_count.items()):
        if n > 2:
            violations.append(
                Violation(
                    "NonConformingInput", f"triangle {tri} lies in {n} tets", tri
                )
            )
    if violations:
        raise NonConformingInput(str(violations[0]), violations)
    if vertex_count is None:
        vertex_count = max_id + 1
    elif max_id >= vertex_count:
        raise NonConformingInput(f"vertex id {max_id} outside 0..{vertex_count - 1}")

    mint = _Minter(vertex_count, coords)
    hexes = []
    for ti, t in enumerate(tets):
        body = mint(("b", ti), t)
        for v in range(4):
            a, b, cc = (t[i] for i in _TET_REST[v])
            o = t[v]
            m_va = mint(("e",) + tuple(sorted((o, a))), (o, a))
            m_vb = mint(("e",) + tuple(sorted((o, b))), (o, b))
            m_vc = mint(("e",) + tuple(sorted((o, cc))), (o, cc))
            f_vab = mint(("f",) + tuple(sorted((o, a, b))), (o, a, b))
            f_vac = mint(("f",) + tuple(sorted((o, a, cc))), (o, a, cc))
            f_vbc = mint(("f",) + tuple(sorted((o, b, cc))), (o, b, cc))
            hexes.append((o, m_va, f_vab, m_vb, m_vc, f_vac, body, f_vbc))
    refined = build_complex(hexes, mint.count)
    if coords is None:
        return refined
    return refined, mint.coords
