"""Closed quad surface patterns and their canonical codes.

A pattern is a finite set of oriented quads forming a closed orientable
2-manifold: every undirected edge lies in exactly two quads, traversed
once in each direction, every vertex carries a single disk of quads, and
the whole thing is connected.  Patterns produced by boundary extraction
store their quads counterclockwise as seen from outside.

The canonical code is the dedup key of the search: a byte string equal
for two patterns exactly when they are isomorphic as combinatorial maps
(by default also identifying mirror images).  Each code is computed on a
flat half-edge table built for that call (see _half_edge_table): quad i
holds half-edges 4*i .. 4*i + 3, so the traversal runs on list indexing
alone.  A CodeMemo, made for one reflection mode, hands out the same
codes but codes each isomorphism class in full once; it tests a pattern
against a known code with the same walk (_walk) that computes codes,
and hands its table to canonical_code when it codes one in full.  The
table is not kept on the pattern, because the search holds many
patterns at once.
"""

from __future__ import annotations

import struct
from collections import Counter
from functools import cache, cached_property
from itertools import chain, compress, product

from .errors import Disconnected, raise_violations
from .hexmodel import boundary_violations, face_key, oriented_key


class SurfacePattern:
    """A validated closed quad surface; build through :func:`build_pattern`.

    Quad order is preserved from construction (placements address quads
    by index), but equality and hashing treat the pattern as a set of
    oriented cycles.  The vertex and edge tables (degree,
    directed_edges) are built on first use, each by one pass of C-level
    iterators over the flat corner list, so a glue, which asks for both
    on every new pattern, pays no Python-level loop over its quads.
    A pattern holds no table it has not been asked for.
    """

    def __init__(self, quads):
        self.quads = tuple(tuple(q) for q in quads)

    @classmethod
    def _of_tuples(cls, quads):
        """A pattern on quads, a tuple of 4-tuples taken as it is."""
        p = cls.__new__(cls)
        p.quads = quads
        return p

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
        """Vertex id -> number of incident quads (a Counter), in
        first-seen order."""
        return Counter(chain.from_iterable(self.quads))

    @cached_property
    def directed_edges(self):
        """Directed edge (u, v) -> (quad index, position of u)."""
        Q = list(chain.from_iterable(self.quads))
        head = Q[1:] + Q[:1]  # head[h] = Q[h + 1], except at each quad's end
        head[3::4] = Q[::4]
        return dict(zip(zip(Q, head), product(range(len(self.quads)), range(4))))

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


def _half_edge_table(quads):
    """(Q, opp, deg, ids): the flat half-edge table of a quad surface.

    Q lists the quads' corners back to back as vertex numbers, so
    half-edge h = 4*qi + i runs from Q[h] to Q[(h & ~3) | ((h + 1) & 3)].
    The numbers are the pattern's own ids when those are non-negative
    integers below the half-edge count, as the ids of every pattern
    glue_hex makes are; then a number no quad uses has degree 0.  Other
    ids are numbered 0, 1, ... in first-seen order.  ids[d] is the
    pattern's id of number d, opp[h] the half-edge running the other way
    along the same edge, and deg[d] the number of quads at d.
    """
    Q = list(chain.from_iterable(quads))
    try:
        own = min(Q) >= 0 and max(Q) < len(Q)
        if own:
            deg = [0] * (max(Q) + 1)
            for d in Q:
                deg[d] += 1
            ids = range(len(deg))
    except TypeError:  # ids that cannot index a list
        own = False
    if not own:
        dense = {}
        Q = [dense.setdefault(v, len(dense)) for v in Q]
        deg = [0] * len(dense)
        for d in Q:
            deg[d] += 1
        ids = list(dense)
    head = Q[1:] + Q[:1]  # head[h] = Q[h + 1], except at each quad's end
    head[3::4] = Q[::4]
    at = dict(zip(zip(Q, head), range(len(Q))))
    opp = list(map(at.__getitem__, zip(head, Q)))
    return Q, opp, deg, ids


def _reversed_quads(Q):
    """A copy of Q with each quad's four entries reversed."""
    rQ = Q[:]
    rQ[0::4], rQ[1::4], rQ[2::4], rQ[3::4] = Q[3::4], Q[2::4], Q[1::4], Q[0::4]
    return rQ


def _mirror_table(Q, opp):
    """(rQ, ropp): the table of the reversed quads, from the direct one.

    Reversed quad qi holds Q[4*qi + 3 - j] at corner j, so its half-edge
    h = 4*qi + j runs along direct half-edge m(h) = 4*qi + ((2 - j) & 3)
    the other way, and ropp[h] = m(opp[m(h)]).  Dense ids and deg are
    those of the direct table.
    """
    rQ = _reversed_quads(Q)
    mopp = opp[:]  # mopp[h] = opp[m(h)]
    mopp[0::4], mopp[2::4] = opp[2::4], opp[0::4]
    return rQ, [o if o & 1 else o ^ 2 for o in mopp]


@cache
def _rings(n):
    """ring[h] for tables of n half-edges: h's quad in cyclic order from h.

    It depends on n alone, so it is built once per size and shared by
    every table of that size, mirrors included.  Callers must not change
    it.
    """
    return [
        r
        for b in range(0, n, 4)
        for r in (
            (b, b + 1, b + 2, b + 3),
            (b + 1, b + 2, b + 3, b),
            (b + 2, b + 3, b, b + 1),
            (b + 3, b, b + 1, b + 2),
        )
    ]


def _roots(dq, opp):
    """The half-edges whose (deg tail, deg head) pair is minimal, in order.

    dq[h] is the degree of h's tail, so opp[h]'s is that of h's head.
    One pass builds dq per pattern (see _canonical); its mirror's and
    its memo bucket's are read from it.  The minimal pair is
    isomorphism-invariant, so an isomorphism maps roots onto roots, and
    a pattern and its mirror have the same number.
    """
    least = min(dq)
    tails = list(compress(range(len(dq)), map(least.__eq__, dq)))
    heads = [dq[opp[h]] for h in tails]
    least = min(heads)
    return [h for h, d in zip(tails, heads) if d == least]


def _tables(Q, opp, dq, roots, reflection_invariant):
    """Yield (Q, opp, roots) of the direct table, then, with reflection,
    those of the mirror table, which is built only when reached.  dq is
    the direct table's (see _roots)."""
    yield Q, opp, roots
    if reflection_invariant:
        rQ, ropp = _mirror_table(Q, opp)
        yield rQ, ropp, _roots(_reversed_quads(dq), ropp)


def _walk(root, Q, opp, ring, nv, best):
    """The BFS from root, compared with best label by label.

    Quads are visited breadth first across edges, each read starting at
    the half-edge it was entered by; a vertex gets the next label when
    first met, and labels[d] is the label of dense vertex d.  Returns
    (emission, labels) when the emission is smaller than best (or best
    is None), (best, None) when it equals best, and (None, None) as soon
    as it is larger.  The emission list is started only when the walk
    first drops below best, so a walk that follows best builds none.
    """
    labels = [-1] * nv
    seen = [False] * (len(Q) >> 2)
    seen[root >> 2] = True
    queue = [root]
    emission = None if best is not None else []
    pos = nxt = 0
    for h in queue:  # the loop also reads the half-edges appended below
        for e in ring[h]:
            v = Q[e]
            lab = labels[v]
            if lab < 0:
                labels[v] = lab = nxt
                nxt += 1
            if emission is not None:
                emission.append(lab)
            elif lab != best[pos]:
                if lab > best[pos]:
                    return None, None
                emission = list(best[:pos])
                emission.append(lab)
            pos += 1
            o = opp[e]
            if not seen[o >> 2]:
                seen[o >> 2] = True
                queue.append(o)
    if emission is None:
        return best, None
    return emission, labels


def _best_emission(tables, ring, nv):
    """(emission, labels) of the lexicographically smallest BFS emission.

    The roots of each table (see _roots) are tried in half-edge order;
    the first smallest emission wins, so the direct table wins a tie
    with its mirror.  The code is canonical because the roots are, but
    it is not the minimum over all half-edges.
    """
    best = best_labels = None
    for Q, opp, roots in tables:
        for root in roots:
            emission, labels = _walk(root, Q, opp, ring, nv, best)
            if labels is not None:
                best, best_labels = emission, labels
    return best, best_labels


def _canonical(p, reflection_invariant, table=None):
    """(emission, labels, ids) of the winning traversal.

    labels[d] is the discovery label of vertex number d (-1 for a
    number no quad uses) and ids[d] its id in p.  With reflection the
    roots of the mirror table (the reversed quads) compete too.  table,
    when given, is p's (Q, opp, deg, ids, dq, roots), as CodeMemo built
    it.
    """
    if table is None:
        Q, opp, deg, ids = _half_edge_table(p.quads)
        dq = list(map(deg.__getitem__, Q))
        roots = _roots(dq, opp)
    else:
        Q, opp, deg, ids, dq, roots = table
    tables = _tables(Q, opp, dq, roots, reflection_invariant)
    em, labels = _best_emission(tables, _rings(len(Q)), len(deg))
    return em, labels, ids


def canonical_code(p, reflection_invariant=True, *, _table=None):
    """Relabeling-invariant byte code of a pattern.

    With reflection_invariant (the default) mirror-image patterns get the
    same code.  Layout: the winning BFS emission, one 16-bit big-endian
    word per discovery label, four words per quad in discovery order.
    A pattern with more than 65535 vertices raises ValueError.  _table
    is the pattern's half-edge table and roots, when CodeMemo has them.
    """
    if len(p.vertices) > 0xFFFF:
        raise ValueError("pattern too large for 16-bit label encoding")
    em, _, _ = _canonical(p, reflection_invariant, _table)
    return struct.pack(f">{len(em)}H", *em)


def _bucket_key(Q, dq, roots):
    """A hash of the root count and the multiset of the quads' sorted
    corner degrees, read from the table Q's dq (see _roots): equal for
    isomorphic and mirrored patterns."""
    corners = sorted(map(tuple, map(sorted, zip(dq[::4], dq[1::4], dq[2::4], dq[3::4]))))
    return hash((len(roots), *corners))


class CodeMemo:
    """Canonical codes that code each isomorphism class in full once.

    code(p) returns canonical_code(p, reflection_invariant).  The memo
    keeps every code it returned, bucketed by an invariant of the pattern
    (see _bucket_key).  A pattern is matched exactly against each code in
    its bucket (see _match) and coded in full only when it matches none;
    a shared bucket costs time, never a wrong code.  The search
    shares one memo across a layer's expansions; it holds only code
    bytes and bucket hashes.
    """

    def __init__(self, reflection_invariant=True):
        self.reflection_invariant = reflection_invariant
        self._buckets = {}

    def code(self, p):
        Q, opp, deg, ids = _half_edge_table(p.quads)
        dq = list(map(deg.__getitem__, Q))
        roots = _roots(dq, opp)
        bucket = self._buckets.setdefault(_bucket_key(Q, dq, roots), [])
        if bucket:
            tables = _tables(Q, opp, dq, roots, self.reflection_invariant)
            code = _match(bucket, tables, deg, _rings(len(Q)))
            if code is not None:
                return code
        # a module global, so every full code passes through canonical_code
        code = canonical_code(
            p, self.reflection_invariant, _table=(Q, opp, deg, ids, dq, roots)
        )
        bucket.append(code)
        return code


def _match(codes, tables, deg, ring):
    """The first of codes whose emission a root of the tables emits, or None.

    A rooted emission describes the labelled map completely, so a match
    proves the pattern isomorphic to the code's pattern.  Conversely the
    winning root of an isomorphic class maps onto a root of one of the
    tables: the direct one, or with reflection the mirror, which is
    built only when the direct roots match no code.  Only roots whose
    quad shows the degrees of labels 1, 2, 3 of the code are walked.
    """
    n = len(ring)
    ems = []
    for code in codes:
        if len(code) == 2 * n:
            em = struct.unpack(f">{n}H", code)
            ems.append((code, em, (em.count(1), em.count(2), em.count(3))))
    for Q, opp, roots in tables:
        for code, em, triple in ems:
            for r in roots:
                _, a, b, c = ring[r]
                if (deg[Q[a]], deg[Q[b]], deg[Q[c]]) == triple and _walk(
                    r, Q, opp, ring, len(deg), em
                )[0] is em:
                    return code
    return None


def code_quad_count(code):
    """Number of quads of the pattern a code was computed from."""
    return len(code) // 8


def isomorphic(p1, p2, reflection_invariant=True):
    """(True, vertex bijection p1 -> p2) if isomorphic, else (False, None).

    The bijection maps quads of p1 onto quads of p2 (up to reversal when
    the match is through a mirror image and reflection is allowed).
    """
    em1, labels1, ids1 = _canonical(p1, reflection_invariant)
    em2, labels2, ids2 = _canonical(p2, reflection_invariant)
    if em1 != em2:
        return False, None
    by_label = [None] * len(labels2)
    for v, lab in zip(ids2, labels2):
        if lab >= 0:
            by_label[lab] = v
    mapping = {v: by_label[lab] for v, lab in zip(ids1, labels1) if lab >= 0}
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
