"""Closed quad surface patterns and their canonical codes.

A pattern is a finite set of oriented quads forming a closed orientable
2-manifold: every undirected edge lies in exactly two quads, traversed
once in each direction, every vertex carries a single disk of quads, and
the whole thing is connected.  Patterns produced by boundary extraction
store their quads counterclockwise as seen from outside.

The canonical code is the dedup key of the search: a byte string equal
for two patterns exactly when they are isomorphic as combinatorial maps
(by default also identifying mirror images).
"""

from __future__ import annotations

import struct
from collections import deque
from functools import cached_property

from .errors import Disconnected, raise_violations
from .hexmodel import boundary_violations, face_key, oriented_key


class SurfacePattern:
    """A validated closed quad surface; build through :func:`build_pattern`.

    Quad order is preserved from construction (placements address quads
    by index), but equality and hashing treat the pattern as a set of
    oriented cycles.
    """

    def __init__(self, quads):
        self.quads = tuple(tuple(q) for q in quads)

    @cached_property
    def _oriented_keys(self):
        return tuple(sorted(oriented_key(q) for q in self.quads))

    @cached_property
    def vertices(self):
        return tuple(sorted({v for q in self.quads for v in q}))

    @cached_property
    def edge_count(self):
        return len({tuple(sorted((q[i], q[(i + 1) % 4]))) for q in self.quads for i in range(4)})

    @cached_property
    def degree(self):
        """Vertex id -> number of incident quads."""
        deg = {}
        for q in self.quads:
            for v in q:
                deg[v] = deg.get(v, 0) + 1
        return deg

    @cached_property
    def directed_edges(self):
        """Directed edge (u, v) -> (quad index, position of u)."""
        out = {}
        for qi, q in enumerate(self.quads):
            for i in range(4):
                out[(q[i], q[(i + 1) % 4])] = (qi, i)
        return out

    @cached_property
    def _by_key(self):
        out = {}
        for qi, q in enumerate(self.quads):
            out.setdefault(face_key(q), []).append(qi)
        return out

    def quads_with_key(self, key):
        """Indices of quads whose undirected key equals the given key."""
        return tuple(self._by_key.get(key, ()))

    @property
    def quad_count(self):
        return len(self.quads)

    def __len__(self):
        return len(self.quads)

    def __eq__(self, other):
        if not isinstance(other, SurfacePattern):
            return NotImplemented
        return self._oriented_keys == other._oriented_keys

    def __hash__(self):
        return hash(self._oriented_keys)

    def __repr__(self):
        return f"SurfacePattern({len(self.quads)} quads, {len(self.vertices)} vertices)"


def build_pattern(quads):
    """Validate quad cycles as a closed connected quad 2-manifold."""
    quads = [tuple(q) for q in quads]
    if not quads:
        raise Disconnected("empty pattern")
    violations = boundary_violations(quads)
    if violations:
        raise_violations(violations)
    return SurfacePattern(quads)


def euler_characteristic(p):
    """V - E + F; equals 2 exactly for sphere topology."""
    return len(p.vertices) - p.edge_count + len(p.quads)


def _best_emission(quads, directed, degree):
    """Lexicographically smallest BFS emission over all root half-edges.

    Roots are restricted to half-edges whose (deg(u), deg(v)) pair is
    minimal; the minimum is isomorphism-invariant, so the restriction
    never changes the resulting code.  Returns (emission, labels).
    """
    best_pair = min((degree[u], degree[v]) for (u, v) in directed)
    roots = [e for e in directed if (degree[e[0]], degree[e[1]]) == best_pair]
    nq = len(quads)
    best = None
    best_labels = None
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
            best_labels = labels
    return best, best_labels


def _canonical(p, reflection_invariant):
    """(emission, labels, mirrored) of the winning traversal."""
    quads = p.quads
    em, labels = _best_emission(quads, p.directed_edges, p.degree)
    mirrored = False
    if reflection_invariant:
        rquads = tuple(q[::-1] for q in quads)
        rdirected = {}
        for qi, q in enumerate(rquads):
            for i in range(4):
                rdirected[(q[i], q[(i + 1) % 4])] = (qi, i)
        rem, rlabels = _best_emission(rquads, rdirected, p.degree)
        if rem < em:
            em, labels, mirrored = rem, rlabels, True
    return em, labels, mirrored


def canonical_code(p, reflection_invariant=True):
    """Relabeling-invariant byte code of a pattern.

    With reflection_invariant (the default) mirror-image patterns get the
    same code.  Layout: the winning BFS emission, one 16-bit big-endian
    word per discovery label, four words per quad in discovery order.
    """
    em, _, _ = _canonical(p, reflection_invariant)
    if len(p.vertices) > 0xFFFF:
        raise ValueError("pattern too large for 16-bit label encoding")
    return struct.pack(f">{len(em)}H", *em)


def code_quad_count(code):
    """Number of quads of the pattern a code was computed from."""
    return len(code) // 8


def isomorphic(p1, p2, reflection_invariant=True):
    """(True, vertex bijection p1 -> p2) if isomorphic, else (False, None).

    The bijection maps quads of p1 onto quads of p2 (up to reversal when
    the match is through a mirror image and reflection is allowed).
    """
    em1, labels1, _ = _canonical(p1, reflection_invariant)
    em2, labels2, _ = _canonical(p2, reflection_invariant)
    if em1 != em2:
        return False, None
    inv2 = {lab: v for v, lab in labels2.items()}
    mapping = {v: inv2[lab] for v, lab in labels1.items()}
    remapped = sorted(face_key(tuple(mapping[v] for v in q)) for q in p1.quads)
    if remapped != sorted(face_key(q) for q in p2.quads):
        raise AssertionError("canonical traversal produced an invalid bijection")
    return True, mapping


def relabel(p, mapping):
    """Apply a vertex id mapping to every quad; revalidates."""
    return build_pattern([tuple(mapping[v] for v in q) for q in p.quads])


def cube_pattern():
    """The 6-quad boundary of a single hex on vertex ids 0..7."""
    from .hexmodel import HexComplex, extract_boundary

    return extract_boundary(HexComplex(8, [(0, 1, 2, 3, 4, 5, 6, 7)]))


def pyramid16_pattern():
    """The 16-quad subdivided pyramid boundary (the search target).

    The base square is split into 4 quads around the base center; each
    triangular side is split into 3 quads around its face center using
    the midpoints of the apex edges and of the base edges.  Vertex ids:

      0        apex
      1..4     base corners, in cyclic order
      5        base center
      6..9     base edge midpoints (6+i between corners 1+i and 1+(i+1)%4)
      10..13   apex edge midpoints (10+i on the edge apex..1+i)
      14..17   side face centers (14+i on the side over base edge 6+i)

    All quads wind counterclockwise seen from outside the pyramid.
    """
    quads = []
    for i in range(4):
        j = (i + 1) % 4
        b, bn = 1 + i, 1 + j
        m, mp = 6 + i, 6 + (i - 1) % 4
        e, en = 10 + i, 10 + j
        s = 14 + i
        quads.append((b, m, 5, mp))  # base quarter under corner b
        quads.append((0, en, s, e))  # tip piece of side i
        quads.append((b, e, s, m))  # side piece at corner b
        quads.append((bn, m, s, en))  # side piece at corner bn
    return build_pattern(quads)
