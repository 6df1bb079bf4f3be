"""Local growth moves: gluing one new hex onto the packing surface.

A move glues some nonempty proper subset of the new cube's 6 faces onto
existing surface quads.  Up to cube symmetry there are exactly 8 such
subsets, enumerated here by brute force over the 48 cube isometries.
Every concrete attachment is reachable from the class representative
subset composed with a rotation, so placements only ever mention the
representative: a placement is (config id, glued quad indices, seed
rotation), with quad indices referring to extract_boundary order of the
predecessor packing.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .errors import InvalidPlacement
from .hexmodel import (
    HEX_EDGES,
    HEX_FACES,
    HexComplex,
    REF_CORNERS,
    boundary_violations,
    extract_boundary,
    face_key,
    hex_face_cycle,
)
from .surface import CodeMemo, SurfacePattern, _half_edge_table, _rings

# Why _realize turned a candidate down, in the order it checks; each is
# a key of the counters dict that enumerate_moves fills.
REJECT_REASONS = ("propagate", "identification", "euler", "conformity")


def _isometries():
    """All 48 corner permutations of the reference cube, with det sign."""
    index = {c: i for i, c in enumerate(REF_CORNERS)}
    out = []
    for axes in itertools.permutations((0, 1, 2)):
        par = 1
        ax = list(axes)
        for i in range(3):
            for j in range(i + 1, 3):
                if ax[i] > ax[j]:
                    par = -par
        for flips in itertools.product((0, 1), repeat=3):
            perm = tuple(
                index[
                    tuple(
                        (1 - c[axes[k]]) if flips[k] else c[axes[k]]
                        for k in range(3)
                    )
                ]
                for c in REF_CORNERS
            )
            out.append((perm, par * (-1) ** sum(flips)))
    return out


def _face_perm(vperm):
    sets = [set(HEX_FACES[f]) for f in range(6)]
    out = []
    for f in range(6):
        img = {vperm[v] for v in HEX_FACES[f]}
        out.append(sets.index(img))
    return tuple(out)


_ISOMETRIES = _isometries()
_FACE_PERMS = tuple(_face_perm(p) for p, _ in _ISOMETRIES)

# Orientation-preserving half, used to align class representatives with
# concrete face subsets.
ROTATIONS = tuple(p for p, d in _ISOMETRIES if d > 0)
ROTATION_FACE_PERMS = tuple(
    _face_perm(p) for p, d in _ISOMETRIES if d > 0
)

_FACE_ADJ = tuple(
    tuple(
        len(set(HEX_FACES[f]) & set(HEX_FACES[g])) == 2 for g in range(6)
    )
    for f in range(6)
)

# _SHARED_EDGE[f][g]: index j such that face g traverses the edge shared
# with face f as (HEX_FACES[g][j], HEX_FACES[g][j+1]).
def _shared_edges():
    table = {}
    for f in range(6):
        for g in range(6):
            if not _FACE_ADJ[f][g]:
                continue
            shared = set(HEX_FACES[f]) & set(HEX_FACES[g])
            gc = HEX_FACES[g]
            for j in range(4):
                if gc[j] in shared and gc[(j + 1) % 4] in shared:
                    table[(f, g)] = j
                    break
    return table


_SHARED_EDGE = _shared_edges()


@dataclass(frozen=True)
class GlueConfig:
    """One symmetry class of glue-face subsets, by representative."""

    id: int
    faces: tuple
    name: str

    @property
    def size(self):
        return len(self.faces)


def _config_name(faces):
    k = len(faces)
    if k == 1:
        return "one"
    if k == 2:
        return "two-adjacent" if _FACE_ADJ[faces[0]][faces[1]] else "two-opposite"
    if k == 3:
        corner = all(
            _FACE_ADJ[a][b] for a, b in itertools.combinations(faces, 2)
        )
        return "three-corner" if corner else "three-row"
    if k == 4:
        comp = tuple(f for f in range(6) if f not in faces)
        return "four-notch" if _FACE_ADJ[comp[0]][comp[1]] else "four-ring"
    return "five"


def _components(faces):
    comps = []
    left = set(faces)
    while left:
        seed = min(left)
        comp = {seed}
        stack = [seed]
        while stack:
            f = stack.pop()
            for g in list(left - comp):
                if _FACE_ADJ[f][g]:
                    comp.add(g)
                    stack.append(g)
        comps.append(tuple(sorted(comp)))
        left -= comp
    return tuple(sorted(comps))


def _build_configs():
    seen = set()
    configs = []
    subsets = sorted(
        (
            tuple(s)
            for k in range(1, 6)
            for s in itertools.combinations(range(6), k)
        ),
        key=lambda s: (len(s), s),
    )
    for s in subsets:
        if s in seen:
            continue
        orbit = {tuple(sorted(fp[f] for f in s)) for fp in _FACE_PERMS}
        seen |= orbit
        configs.append(GlueConfig(len(configs) + 1, s, _config_name(s)))
    return tuple(configs)


_CONFIGS = _build_configs()
_COMPONENTS = {cfg.id: _components(cfg.faces) for cfg in _CONFIGS}
# The rotations other than the identity that map a config's face set
# onto itself, as (corner permutation, face permutation) pairs.  With the
# identity there are 4, 8, 2, 2, 3, 2, 8 and 4 of them for configs 1..8.
_STABILIZERS = {
    cfg.id: tuple(
        (vperm, fperm)
        for vperm, fperm in zip(ROTATIONS, ROTATION_FACE_PERMS)
        if vperm != tuple(range(8))
        and sorted(fperm[f] for f in cfg.faces) == list(cfg.faces)
    )
    for cfg in _CONFIGS
}


def _orbit_tables(cfg):
    """(rotations, mates, increasing): how enumerate_moves realizes one
    seeding per orbit of cfg's stabilizer.

    A stabilizer element sigma turns a seeding into its mate, which
    builds the same hex with corner c where the seeding puts sigma(c),
    so face f on the quad of face sigma(f).  An element that fixes every
    face of cfg only turns each component's first face by a fixed step,
    whatever the surface: rotations lists the seed rotation tuples that
    no such turn makes smaller (by encode_rotation).  Every other element
    moves some face to another quad, so its mate has other quads: mates
    holds its face images, sigma(f) for f in cfg.faces.  A seeding is
    the smallest placement of its orbit when its rotations are listed
    and no mate's quads are smaller; _surface_seedings yields no other,
    deciding the mates from the surface before anything is propagated.
    When cfg is two one-face components and every mate swaps them
    (two-opposite), a mate is smaller exactly when the second seed's
    quad is below the first's, which needs no surface: then increasing
    is True, the seed quads are taken in increasing order only (see
    _seed_choices), and no mate is left to check.
    """
    firsts = [comp[0] for comp in _COMPONENTS[cfg.id]]
    turns, mates = [], []
    for vperm, fperm in _STABILIZERS[cfg.id]:
        img = tuple(fperm[f] for f in cfg.faces)
        if img == cfg.faces:
            turns.append(
                [HEX_FACES[f0].index(vperm[HEX_FACES[f0][0]]) for f0 in firsts]
            )
        else:
            mates.append(img)
    rotations = tuple(
        rots
        for rots in itertools.product(range(4), repeat=len(firsts))
        if all(
            encode_rotation((r + k) % 4 for r, k in zip(rots, ks))
            > encode_rotation(rots)
            for ks in turns
        )
    )
    if mates and len(firsts) == len(cfg.faces) == 2 and all(
        img == cfg.faces[::-1] for img in mates
    ):
        return rotations, (), True
    return rotations, tuple(mates), False


@functools.cache
def _glue_table(mask):
    """For a glued face set, as a bit mask over the 6 faces: the number
    of glued faces at each corner, every cube edge with the number of its
    two faces that are glued, the unglued faces, and whether those fall
    into more than one piece."""
    glued = [f for f in range(6) if mask >> f & 1]
    unglued = tuple(f for f in range(6) if not mask >> f & 1)
    at_corner = tuple(sum(c in HEX_FACES[f] for f in glued) for c in range(8))
    edges = tuple(
        (a, b, sum(a in HEX_FACES[f] and b in HEX_FACES[f] for f in glued))
        for a, b in HEX_EDGES
    )
    return at_corner, edges, unglued, len(_components(unglued)) > 1


def glue_configs():
    """The 8 glue classes, ordered by (subset size, representative)."""
    return _CONFIGS


def config_by_id(cid):
    if not 1 <= cid <= len(_CONFIGS):
        raise InvalidPlacement(f"no glue config with id {cid}")
    return _CONFIGS[cid - 1]


def config_components(cfg):
    """Face-adjacency components of a config's face set."""
    return _COMPONENTS[cfg.id]


def config_for_subset(subset):
    """Classify a concrete face subset: (config, rotation aligning to it).

    The returned rotation sigma (a corner permutation) maps the config's
    representative faces onto the given subset:
    {sigma_face(f) for f in cfg.faces} == set(subset).
    """
    target = set(subset)
    if not 0 < len(target) < 6:
        raise ValueError(f"not a proper nonempty face subset: {subset}")
    for cfg in _CONFIGS:
        if len(cfg.faces) != len(target):
            continue
        for vperm, fperm in zip(ROTATIONS, ROTATION_FACE_PERMS):
            if {fperm[f] for f in cfg.faces} == target:
                return cfg, vperm
    raise AssertionError(f"face subset {subset} matched no class")


@dataclass(frozen=True, order=True, slots=True)
class Placement:
    """A concrete move: config, glued surface quads, seed rotation.

    quads lists the target quad index for each representative face in
    sorted face order; indices refer to extract_boundary order of the
    packing the placement applies to.  rotation packs one seed rotation
    0..3 per face component of the config (see encode_rotation).
    Placements compare as (config_id, quads, rotation) tuples, the order
    in which enumerate_moves keeps a code's first placement.
    """

    config_id: int
    quads: tuple
    rotation: int

    def token(self):
        return f"{self.config_id}:{self.rotation}:" + ",".join(map(str, self.quads))

    @classmethod
    def from_token(cls, text):
        """The placement whose token() is text; ValueError for any other
        text, such as '+1:0:03', which int() would read as '1:0:3'."""
        cid, rot, quads = text.split(":")
        pl = cls(int(cid), tuple(map(int, quads.split(","))), int(rot))
        if pl.token() != text:
            raise ValueError(f"placement token {text!r} is not as written")
        return pl


def encode_rotation(rots):
    """Placement.rotation from the seed rotations of a config's face
    components, first component first: r0, or r0 + 4*r1 for the
    two-opposite config."""
    return sum(r << 2 * i for i, r in enumerate(rots))


def decode_rotation(cfg, rotation):
    """The per-component seed rotations packed in a placement's rotation."""
    n = len(_COMPONENTS[cfg.id])
    if not 0 <= rotation < 4**n:
        raise InvalidPlacement(f"rotation {rotation} out of range")
    return tuple(rotation >> 2 * i & 3 for i in range(n))


@dataclass(frozen=True)
class MoveResult:
    """A realized candidate: the placement plus its effect.

    new_hex is the glued hex's 8 vertex ids; the grown complex is
    packing.glued(new_hex), which only a caller that keeps it builds.
    pattern is the successor's boundary.  code is its canonical code as
    enumerate_moves hands it out; it is b"" on the uncoded candidates
    _realize builds for apply_move and grow orders.
    """

    placement: Placement
    new_hex: tuple
    pattern: SurfacePattern
    code: bytes


def _propagate(pattern, faces, seeds):
    """Extend seed correspondences across shared cube edges.

    Returns (corner map, face -> quad index) or None on any mismatch.
    Every face of a config's face component is reached from the
    component's seed face, so each face gets a quad.
    """
    m = {}
    targets = {}
    quads = pattern.quads
    directed = pattern.directed_edges
    for f0, t, r in seeds:
        q = quads[t]
        cyc = HEX_FACES[f0]
        for i in range(4):
            c = cyc[i]
            v = q[(r + i) % 4]
            old = m.get(c)
            if old is None:
                m[c] = v
            elif old != v:
                return None
        targets[f0] = t
        stack = [f0]
        while stack:
            f = stack.pop()
            for g in faces:
                if g in targets or not _FACE_ADJ[f][g]:
                    continue
                j = _SHARED_EDGE[(f, g)]
                gc = HEX_FACES[g]
                # face g traverses the shared edge opposite to f, so its
                # target is the unique quad with the reversed directed edge
                hit = directed.get((m[gc[j]], m[gc[(j + 1) % 4]]))
                if hit is None:
                    return None
                qi, pos = hit
                qq = quads[qi]
                for k in range(4):
                    c = gc[(j + k) % 4]
                    v = qq[(pos + k) % 4]
                    old = m.get(c)
                    if old is None:
                        m[c] = v
                    elif old != v:
                        return None
                targets[g] = qi
                stack.append(g)
    return m, targets


def _reject(counters, reason):
    if counters is not None:
        counters[reason] = counters.get(reason, 0) + 1
    return None


def glue_hex(packing, pattern, new_hex, targets, *, sphere_mode, counters=None):
    """Glue new_hex onto the packing: the grown boundary pattern, or None.

    This is the one definition of a legal move, and _realize its one
    caller.  targets maps each glued face of new_hex to the index of the
    pattern quad it covers, and each face's cycle is a rotation of its
    quad.  The quads are distinct because new_hex has 8 distinct
    corners, as _realize's identification check makes sure: two cube
    faces share at most two corners, so two faces on one quad would put
    two corners on one vertex.  The packing must be conforming and
    pattern must be its boundary.

    Only what the new hex changes is looked at: its faces against the
    packing's face index, and its 12 edges and 8 corners against the
    pattern.  The verdict is the one check_conformity on the grown
    complex and build_pattern on its boundary give (and, in sphere
    mode, Euler characteristic 2); the tests hold the two to each other.
    So an unglued face that lands on a surface quad is rejected here,
    in either orientation: that attachment belongs to a larger config.
    The returned pattern lists the unglued old quads, then the new ones.
    No complex is built: packing.glued(new_hex) is the grown one, for
    the callers that keep it.  A repeated vertex set is one lookup in
    the packing's vertex sets.  Only the connectivity test of a
    four-ring glue walks the whole new surface; otherwise the quads are
    copied with C-level calls, and no check loops over the packing's
    hexes or the pattern's quads.  A rejection is counted in counters
    under "euler" or "conformity".  enumerate_moves reads the first
    conformity rule, one old hex per glued quad, off the surface before
    it seeds a one-component config (see _surface_seedings); replays
    and grow orders still reach it here.
    """
    mask = 0
    for f in targets:
        mask |= 1 << f
    at_corner, edges, unglued, splits = _glue_table(mask)
    quads = pattern.quads
    degree = pattern.degree
    directed = pattern.directed_edges
    if sphere_mode:
        # V - E + F of the new surface from the old one.  A closed quad
        # surface has E = 2F, so V - E + F = V - F: count the corners the
        # new hex adds or removes, and the 6 - 2k faces it adds net.  The
        # new surface breaks E = 2F only where an edge of two unglued
        # faces already lies on the surface, and the "edge in four
        # boundary quads" check below rejects that move anyway.
        dv = 0
        for c in range(8):
            # a corner leaves the surface only when its 3 faces are glued
            # and no other quad holds it
            d = degree.get(new_hex[c], 0)
            j = at_corner[c]
            dv += (j < 3 or d > j) - (d > 0)
        if len(degree) - len(quads) + dv - (6 - 2 * len(targets)) != 2:
            return _reject(counters, "euler")

    index = packing.face_index
    nv = packing.vertex_count
    if len(targets) > 1:
        owners = {index[face_key(quads[t])][0][0] for t in targets.values()}
        if len(owners) < len(targets):
            return _reject(counters, "conformity")  # two faces shared with one hex
    for a, b, n in edges:
        if n == 0 and (new_hex[a], new_hex[b]) in directed:
            return _reject(counters, "conformity")  # edge in four boundary quads
    for c in range(8):
        if not at_corner[c] and new_hex[c] in degree:
            return _reject(counters, "conformity")  # two disks at one vertex
    new_faces = [hex_face_cycle(new_hex, g) for g in unglued]
    for cyc in new_faces:
        if all(v < nv for v in cyc) and face_key(cyc) in index:
            return _reject(counters, "conformity")  # meets an old face unglued
    # an old hex has 8 distinct corners, so new_hex repeats its vertex
    # set exactly when their sets are equal
    if all(v < nv for v in new_hex) and frozenset(new_hex) in packing.vertex_sets:
        return _reject(counters, "conformity")  # repeats a hex's vertex set
    succ_quads = list(quads)
    for t in sorted(targets.values(), reverse=True):
        del succ_quads[t]
    succ_quads.extend(cyc[::-1] for cyc in new_faces)
    # Given the checks above every edge and vertex of the new surface is
    # manifold, and it stays connected when the glued faces leave the
    # rest of the cube in one piece.  A ring of four glued faces may cut
    # the old surface in two, which only the whole surface can tell.
    if splits and boundary_violations(succ_quads):
        return _reject(counters, "conformity")
    return SurfacePattern._of_tuples(tuple(succ_quads))


def _realize(packing, pattern, cfg, seeds, *, sphere_mode, counters=None,
             ids=None):
    """Validate one candidate attachment: a MoveResult without a code,
    or None when it is not a legal move.  No complex is built.

    This is the one path from a seeding to a placement: search, witness
    replay and grow orders all reach glue_hex through it.  seeds holds
    one (face, quad index, rotation) per face component of cfg, first
    component first; the placement packs their rotations
    (encode_rotation).  The seeds fix the new hex's corners on the
    surface (propagate) and must put them on distinct vertices
    (identification); every other rule is glue_hex's.  Corners off the
    glued faces get new ids, or ids[c] when ids is given (a grow order
    keeps the ids of the complex it certifies).  enumerate_moves hands
    it only seedings that propagate and are the smallest placement of
    their orbit (see _surface_seedings); replays and grow orders place
    what they are given.  counters, when given, counts the rejection
    under its reason (one of REJECT_REASONS).
    """
    res = _propagate(pattern, cfg.faces, seeds)
    if res is None:
        return _reject(counters, "propagate")
    m, targets = res
    quads = tuple(targets[f] for f in cfg.faces)
    if len(set(m.values())) != len(m):
        # two cube corners forced onto one surface vertex
        return _reject(counters, "identification")

    new_hex = []
    nxt = packing.vertex_count
    for c in range(8):
        v = m.get(c)
        if v is None:
            v = nxt if ids is None else ids[c]
            nxt += 1
        new_hex.append(v)
    new_hex = tuple(new_hex)
    succ = glue_hex(
        packing, pattern, new_hex, targets,
        sphere_mode=sphere_mode, counters=counters,
    )
    if succ is None:
        return None
    rotation = encode_rotation(r for _, _, r in seeds)
    return MoveResult(Placement(cfg.id, quads, rotation), new_hex, succ, b"")


_ORBITS = {cfg.id: _orbit_tables(cfg) for cfg in _CONFIGS}


def _seeding_plan(cfg):
    """(rotations, corners, steps, mates): how _surface_seedings finds
    the seedings of one-component cfg that propagate and are the
    smallest of their orbit, read from cfg's _glue_table and
    _orbit_tables.

    On the surface's flat half-edge table (see surface._half_edge_table)
    a seeding is one half-edge h: face f's corner HEX_FACES[f][i] goes
    on the tail of ring[h][i], so on quad h >> 2 at rotation h & 3;
    rotations holds the allowed h & 3.  corners holds the positions on
    the first face of the corners with three glued faces: the three
    quads there share an edge pairwise, so the corner's vertex has
    degree 3.  Each step (f, i, g, j, new) reads the twin of face f's
    half-edge at position i, which runs along the edge f shares with
    face g.  When new, g's half-edge is ring[twin][j] (the twin is g's
    half-edge at position -j); otherwise g is placed already and the
    twin must be its half-edge at position j.  Every pair of adjacent
    glued faces is one step, and faces meet only there, so the steps
    accept exactly the seedings _propagate does.  mates holds, per mate
    (see _orbit_tables), a getter of its quads from the quads of
    cfg.faces.
    """
    rotations, mates, _ = _ORBITS[cfg.id]
    at_corner = _glue_table(sum(1 << f for f in cfg.faces))[0]
    f0 = cfg.faces[0]
    corners = tuple(i for i, c in enumerate(HEX_FACES[f0]) if at_corner[c] == 3)
    steps = []
    placed = [f0]
    for f in placed:  # breadth first; the loop also reads faces placed below
        for g in cfg.faces:
            if g in placed or not _FACE_ADJ[f][g]:
                continue
            steps.append((f, _SHARED_EDGE[(g, f)], g, -_SHARED_EDGE[(f, g)] & 3, True))
            steps.extend(
                (e, _SHARED_EDGE[(g, e)], g, _SHARED_EDGE[(e, g)], False)
                for e in placed
                if e != f and _FACE_ADJ[e][g]
            )
            placed.append(g)
    getters = tuple(
        operator.itemgetter(*(cfg.faces.index(f) for f in img)) for img in mates
    )
    return frozenset(r for r, in rotations), corners, tuple(steps), getters


_SEEDING_PLANS = {
    cfg.id: _seeding_plan(cfg) for cfg in _CONFIGS if len(_COMPONENTS[cfg.id]) == 1
}


def _seed_choices(cfg, nquads, rotations=None, increasing=False):
    """Every seeding of a config, as _realize's seeds: the first face of
    each face component on a quad of its own, at a rotation (each tuple
    of rotations, per component, unless rotations lists some).  With
    increasing, only the seedings whose quads increase from component to
    component.  _realize packs the placement's rotation from the seeds
    themselves."""
    firsts = [comp[0] for comp in _COMPONENTS[cfg.id]]
    if rotations is None:
        rotations = list(itertools.product(range(4), repeat=len(firsts)))
    pick = itertools.combinations if increasing else itertools.permutations
    for quads in pick(range(nquads), len(firsts)):
        for rots in rotations:
            yield tuple(zip(firsts, quads, rots))


def _seeding_table(packing, pattern):
    """(opp, dq, owner) of pattern, the boundary of packing: each
    half-edge's twin and the degree of its tail vertex, from the flat
    half-edge table (see surface._half_edge_table), and the hex that
    owns each quad."""
    Q, opp, deg, _ = _half_edge_table(pattern.quads)
    index = packing.face_index
    owner = [index[face_key(q)][0][0] for q in pattern.quads]
    return opp, list(map(deg.__getitem__, Q)), owner


def _surface_seedings(cfg, opp, dq, owner):
    """The seedings of cfg that enumerate_moves realizes, as _realize's
    seeds, on a surface with the _seeding_table (opp, dq, owner): of the
    seedings of _seed_choices, those that _propagate accepts and that
    are the smallest placement of their orbit (see _orbit_tables), less
    the one-component ones that glue two faces onto quads of one old
    hex, which glue_hex would turn down.

    A one-component config follows its _seeding_plan on every seed
    half-edge at once: the candidates are the half-edges at an allowed
    rotation, or only those whose corners with three glued faces sit on
    vertices of degree 3; each step finds a face's half-edges or drops
    the candidates whose faces do not meet across an edge; the owners
    of the glued quads, then a mate's quads, are compared last.  The
    two-opposite config takes its increasing seed quads (see
    _seed_choices).
    """
    rotations, _, increasing = _ORBITS[cfg.id]
    if increasing:
        yield from _seed_choices(cfg, len(opp) >> 2, rotations, True)
        return
    rots, corners, steps, mates = _SEEDING_PLANS[cfg.id]
    ring = _rings(len(opp))
    if corners:
        back = -corners[0] & 3
        threes = itertools.compress(range(len(dq)), map((3).__eq__, dq))
        hs = [ring[k][back] for k in threes]
        for i in corners[1:]:
            hs = [h for h in hs if dq[ring[h][i]] == 3]
    else:
        hs = range(len(opp))
    if len(rots) < 4:
        hs = [h for h in hs if h & 3 in rots]
    f0 = cfg.faces[0]
    cols = {f0: hs}  # face -> its half-edge, per candidate
    for f, i, g, j, new in steps:
        if new:
            cols[g] = [ring[opp[ring[h][i]]][j] for h in cols[f]]
        else:
            keep = [opp[ring[a][i]] == ring[b][j] for a, b in zip(cols[f], cols[g])]
            cols = {e: list(itertools.compress(c, keep)) for e, c in cols.items()}
    hs = cols[f0]
    quads = list(zip(*[[h >> 2 for h in cols[f]] for f in cfg.faces]))
    keep = [len(set(map(owner.__getitem__, q))) == len(q) for q in quads]
    for mate in mates:
        hs = list(itertools.compress(hs, keep))
        quads = list(itertools.compress(quads, keep))
        keep = [mate(q) >= q for q in quads]
    for h, q in itertools.compress(zip(hs, quads), keep):
        yield ((f0, q[0], h & 3),)


def enumerate_moves(packing, pattern=None, allowed=None, *, sphere_mode=True,
                    counters=None, memo=None):
    """The legal attachments of one new hex, one per successor, as
    MoveResults; none builds its grown complex.

    Each result carries its successor's canonical code, and of the
    placements that reach one code only the smallest (see Placement)
    is kept; the results are sorted by code.  So
    build_ledger, expanding states in code order, writes each slot's
    smallest (predecessor, placement) first and keeps that write.  The
    pattern argument must be extract_boundary(packing) (it is computed
    when omitted).  The codes come from memo, a surface.CodeMemo (a
    fresh CodeMemo() when omitted), whose reflection mode decides
    whether mirror images share a code: only the first successor of
    each isomorphism class the memo meets is coded in full, so callers
    share one memo across the states of a layer.

    Seedings that differ by a rotation of the cube mapping the config's
    face set to itself build one hex, and a seeding whose glued faces
    do not follow the surface, or lie on quads of one old hex, builds
    none.  So only the seedings that propagate and are the smallest
    placement of their orbit are realized and coded, and none of one
    component on two quads of one old hex, read off the surface (see
    _surface_seedings).
    A code's smallest placement is the smallest of its orbit, so it is
    kept as before.  counters, if given, is a dict whose "tried" entry
    is incremented per seeding handed to _realize; each rejected
    seeding also counts under its reason (see REJECT_REASONS; never
    "propagate" here) and each realized one, which asks the memo once,
    under "codes".
    """
    if pattern is None:
        pattern = extract_boundary(packing)
    if memo is None:
        memo = CodeMemo()
    table = _seeding_table(packing, pattern)
    kept = {}  # successor code -> its first candidate
    for cfg in _CONFIGS:
        if allowed is not None and cfg.id not in allowed:
            continue
        if sphere_mode and len(_COMPONENTS[cfg.id]) > 1:
            # gluing two disjoint quads of one sphere always adds a handle
            continue
        for seeds in _surface_seedings(cfg, *table):
            if counters is not None:
                counters["tried"] = counters.get("tried", 0) + 1
            cand = _realize(
                packing, pattern, cfg, seeds,
                sphere_mode=sphere_mode, counters=counters,
            )
            if cand is None:
                continue
            code = memo.code(cand.pattern)
            if counters is not None:
                counters["codes"] = counters.get("codes", 0) + 1
            pl = cand.placement
            first = kept.get(code)
            if first is None or pl < first.placement:
                kept[code] = MoveResult(pl, cand.new_hex, cand.pattern, code)
    return [kept[code] for code in sorted(kept)]


def apply_move(packing, placement, pattern=None):
    """Apply a placement; returns (new complex, new surface pattern).

    Raises InvalidPlacement when the placement does not decode against
    the packing (stale indices, failed identification, nonconforming
    result).  The packing must be conforming, as build_complex and every
    move make it.  The returned pattern is the boundary of the returned
    complex: the unglued old quads in their order, then the new hex's
    unglued faces in face order.  So when the given pattern is in
    extract_boundary order, the returned one is too, quad for quad.
    """
    if pattern is None:
        pattern = extract_boundary(packing)
    cfg = config_by_id(placement.config_id)
    if len(placement.quads) != len(cfg.faces):
        raise InvalidPlacement(
            f"expected {len(cfg.faces)} glued quads, got {len(placement.quads)}"
        )
    nquads = len(pattern.quads)
    if any(not 0 <= q < nquads for q in placement.quads):
        raise InvalidPlacement("glued quad index out of range")
    rots = decode_rotation(cfg, placement.rotation)
    by_face = dict(zip(cfg.faces, placement.quads))
    seeds = tuple(
        (comp[0], by_face[comp[0]], r)
        for comp, r in zip(_COMPONENTS[cfg.id], rots)
    )
    cand = _realize(packing, pattern, cfg, seeds, sphere_mode=False)
    if cand is None or cand.placement != placement:
        raise InvalidPlacement(
            f"placement {placement.token()} does not fit this packing"
        )
    return packing.glued(cand.new_hex), cand.pattern


def initial_packing():
    """The single-hex start state of every search."""
    return HexComplex(8, [tuple(range(8))])  # one hex always conforms
