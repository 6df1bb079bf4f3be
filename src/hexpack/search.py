"""Layered minimum-count search over canonical surface patterns.

Packings grow one hex at a time from the single-hex start.  States are
deduplicated by the canonical code of their boundary pattern; for each
code the ledger keeps, per parity of the hex count, one witness (the
move sequence) of the smallest count reaching it, and the count is the
witness length plus one.  Expansion is layer synchronous: a layer's
states expand in code order, and a successor's slot is written once,
by the first state to reach it, with that state's smallest placement
for it.  So each slot's witness is its smallest (predecessor code,
placement), the ledger is deterministic, and it can be checkpointed at
layer boundaries and resumed losslessly.

A record's packing is reconstructed from its witness when the record's
layer is expanded; packings other than the retained witness are not
re-expanded, matching the keep-one-optimal-packing-per-pattern policy.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
from dataclasses import dataclass, field

from .errors import CheckpointCorrupt, InvalidPlacement, VersionMismatch
from .hexmodel import (
    HEX_FACES,
    HexComplex,
    check_conformity,
    extract_boundary,
    hex_parity,
    parity_word,
)
from .moves import (
    REJECT_REASONS,
    Placement,
    _realize,
    apply_move,
    config_components,
    config_for_subset,
    enumerate_moves,
    glue_configs,
    initial_packing,
)
from .surface import CodeMemo, canonical_code, code_quad_count

FORMAT_VERSION = 2
CODE_LAYOUT_VERSION = 1

MANIFEST_NAME = "manifest.json"

_NO_ORDER = "no grow order under the move rules"

_CONFIG_IDS = tuple(cfg.id for cfg in glue_configs())


@dataclass(frozen=True)
class SearchOptions:
    """Knobs of the layered search.

    allowed_configs is a nonempty set of glue config ids (see
    moves.glue_configs); anything else raises ValueError.
    """

    sphere_mode: bool = True
    reflection_invariant: bool = True
    allowed_configs: tuple = _CONFIG_IDS
    checkpoint_dir: str = None

    def __post_init__(self):
        ids = set(self.allowed_configs)
        if not ids or not ids.issubset(_CONFIG_IDS):
            raise ValueError(
                f"allowed_configs {tuple(self.allowed_configs)!r} is not a "
                f"nonempty set of config ids {_CONFIG_IDS[0]}..{_CONFIG_IDS[-1]}"
            )
        # a set of config ids: one order, no repeats
        object.__setattr__(self, "allowed_configs", tuple(sorted(ids)))


@dataclass
class SearchStats:
    """Search totals.  Every candidate tried either is rejected, counted
    under its reason (rejected_<reason>, see moves.REJECT_REASONS), or
    gets its successor code, so moves_tried equals codes_computed plus
    every rejected_* count; moves_valid counts the distinct successors
    each expansion proposed.  Only one seeding per orbit of a config's
    stabilizer is realized (see moves.enumerate_moves): the seed
    rotations that a turn of the glued faces makes smaller are not
    tried, nor the two-opposite seedings whose swap is smaller, and the
    other seedings whose orbit holds a smaller placement count under
    rejected_orbit.  codes_computed counts the memo lookups,
    one per realized seeding; only the first successor of each
    isomorphism class in a layer is coded in full (see
    surface.CodeMemo)."""

    states_expanded: int = 0
    moves_tried: int = 0
    moves_valid: int = 0
    pruned: int = 0
    codes_computed: int = 0
    rejected_propagate: int = 0
    rejected_orbit: int = 0
    rejected_identification: int = 0
    rejected_euler: int = 0
    rejected_conformity: int = 0

    def add_counters(self, counters):
        """Add one enumerate_moves counters dict."""
        self.moves_tried += counters.get("tried", 0)
        self.codes_computed += counters.get("codes", 0)
        for reason in REJECT_REASONS:
            name = "rejected_" + reason
            setattr(self, name, getattr(self, name) + counters.get(reason, 0))

    def as_dict(self):
        return dataclasses.asdict(self)


@dataclass(slots=True)
class PatternRecord:
    """The minimal packings of one canonical code, one per parity.

    A slot is its witness, the move sequence from the single-hex start;
    a witness of length L builds L + 1 hexes, so the slot's hex count is
    derived from it, never stored beside it.  None marks an empty slot.
    """

    code: bytes
    witness_odd: tuple = None
    witness_even: tuple = None

    def slot(self, parity):
        """The slot's hex count, or None if it is empty."""
        witness = self.witness(parity)
        return None if witness is None else len(witness) + 1

    def witness(self, parity):
        return self.witness_odd if parity == "odd" else self.witness_even

    def best(self):
        """(count, witness) of the fewest-hex slot, or None if both are empty."""
        slots = [
            (self.slot(p), self.witness(p))
            for p in ("odd", "even")
            if self.slot(p) is not None
        ]
        return min(slots) if slots else None

    def set_slot(self, parity, witness):
        if parity == "odd":
            self.witness_odd = witness
        else:
            self.witness_even = witness

    @property
    def quad_count(self):
        return code_quad_count(self.code)


@dataclass
class SearchLedger:
    """The records up to layer, and the run that wrote them.

    target and max_hexes are those of the last build_ledger call; they
    decide which states admissible pruning left unexpanded.
    """

    records: dict
    layer: int
    options: SearchOptions
    stats: SearchStats = field(default_factory=SearchStats)
    target: bytes = None
    max_hexes: int = None


@dataclass(frozen=True)
class SearchResult:
    """The answer of search_min_packing: the target's fewest-hex count
    and witness when found, else None for both, and the ledger that
    decided it.  Not found means exhausted: no packing within the
    budget."""

    found: bool
    count: int
    witness: tuple
    ledger: SearchLedger

    @property
    def exhausted(self):
        return not self.found


@dataclass(frozen=True)
class TemplateReport:
    report_a: object
    report_b: object
    code_a: bytes
    code_b: bytes
    codes_equal: bool
    count_a: int
    count_b: int
    parity_a: str
    parity_b: str
    parity_changing: bool


@dataclass(frozen=True)
class GrowOrderResult:
    found: bool
    order: tuple
    witness: tuple
    nodes: int
    reason: str = None


def _replay(witness):
    """(packing, boundary pattern) rebuilt from the single-hex start.

    Every step is validated.  The boundary is extracted once, for the
    start; each move's pattern keeps extract_boundary's quad order, so
    it addresses the next placement's quads as the search did.  Each
    grown complex carries its predecessor's face index forward, so a
    witness of length L keys its 6 L faces once, not at every step.
    """
    packing = initial_packing()
    pattern = extract_boundary(packing)
    for pl in witness:
        packing, pattern = apply_move(packing, pl, pattern)
    return packing, pattern


def replay_witness(witness):
    """Rebuild a packing from the single-hex start; validates every step."""
    return _replay(witness)[0]


def _slot_mismatch(rec, parity, reflection_invariant):
    """Why a record slot's witness does not rebuild it, or None if it does."""
    try:
        packing, pattern = _replay(rec.witness(parity))
    except InvalidPlacement as err:
        return f"witness does not decode: {err}"
    if canonical_code(pattern, reflection_invariant) != rec.code:
        return "witness does not replay to its code"
    return None


def _fresh_ledger(options):
    start = initial_packing()
    code = canonical_code(
        extract_boundary(start), options.reflection_invariant
    )
    rec = PatternRecord(code, witness_odd=())
    return SearchLedger(records={code: rec}, layer=1, options=options)


def build_ledger(max_hexes, options=None, target=None, progress=None):
    """Run the layered search up to max_hexes; returns the ledger.

    Each layer is one pass over the records in code order: a state of
    the layer is pruned, or replayed from its witness and expanded with
    enumerate_moves, and each successor's next-parity slot is written
    only while it is empty.

    With a target code the loop additionally stops at the first layer
    containing the target, and admissible pruning skips states that
    cannot reach the target's quad count in the remaining budget of
    moves (|dF| <= 4 per move).  A checkpoint directory in the options
    makes the run resumable: an existing checkpoint is loaded and
    continued.  A checkpoint in which pruning skipped states only
    resumes with the same target and max_hexes; any other resume raises
    CheckpointCorrupt.  One deeper than max_hexes is cut to it: only
    slots up to max_hexes are kept, as a fresh run writes them, and the
    checkpoint on disk keeps its deeper layers.
    """
    if options is None:
        options = SearchOptions()
    if max_hexes < 1:
        raise ValueError("max_hexes must be at least 1")

    ledger = None
    if options.checkpoint_dir and os.path.exists(
        os.path.join(options.checkpoint_dir, MANIFEST_NAME)
    ):
        ledger = load_checkpoint(options.checkpoint_dir)
        written, wanted = _options_to_json(ledger.options), _options_to_json(options)
        for name in written:
            if written[name] != wanted[name]:
                raise CheckpointCorrupt(
                    f"checkpoint was written with different {name}"
                )
        # pruned states were never expanded, so the records are complete
        # only for the target and budget that decided the pruning
        if ledger.stats.pruned and (
            (ledger.target, ledger.max_hexes) != (target, max_hexes)
        ):
            raise CheckpointCorrupt(
                "checkpoint pruned states for another target or max_hexes"
            )
        ledger.options = options
        if ledger.layer > max_hexes:
            for code, rec in list(ledger.records.items()):
                for parity in ("odd", "even"):
                    count = rec.slot(parity)
                    if count is not None and count > max_hexes:
                        rec.set_slot(parity, None)
                if rec.best() is None:
                    del ledger.records[code]
            ledger.layer = max_hexes
    fresh = ledger is None
    if fresh:
        ledger = _fresh_ledger(options)
    ledger.target, ledger.max_hexes = target, max_hexes
    if fresh and options.checkpoint_dir:
        save_checkpoint(ledger, options.checkpoint_dir)

    target_quads = code_quad_count(target) if target is not None else None
    allowed = set(options.allowed_configs)

    while ledger.layer < max_hexes:
        layer = ledger.layer
        if target in ledger.records:  # a record always holds a slot
            break
        parity, next_parity = parity_word(layer), parity_word(layer + 1)
        memo = CodeMemo(options.reflection_invariant)
        # States expand in code order, and enumerate_moves hands out each
        # successor once, with its smallest placement; so the first write
        # of a successor's slot is its smallest (predecessor code,
        # placement), the one witness the slot keeps.
        for code, rec in sorted(ledger.records.items()):
            if rec.slot(parity) != layer:
                continue
            if (
                target is not None
                and -(-abs(target_quads - rec.quad_count) // 4)
                > max_hexes - layer
            ):
                ledger.stats.pruned += 1
                continue
            witness = rec.witness(parity)
            counters = {}
            cands = enumerate_moves(
                *_replay(witness), allowed, sphere_mode=options.sphere_mode,
                counters=counters, memo=memo,
            )
            ledger.stats.states_expanded += 1
            ledger.stats.add_counters(counters)
            ledger.stats.moves_valid += len(cands)
            for cand in cands:
                succ = ledger.records.get(cand.code)
                if succ is None:
                    succ = ledger.records[cand.code] = PatternRecord(cand.code)
                if succ.slot(next_parity) is None:
                    succ.set_slot(next_parity, witness + (cand.placement,))
        ledger.layer = layer + 1
        if options.checkpoint_dir:
            save_checkpoint(ledger, options.checkpoint_dir)
        if progress is not None:
            progress(ledger)
    return ledger


def search_min_packing(target, max_hexes, options=None):
    """Minimum-hex packing whose boundary has the target canonical code.

    target may be a SurfacePattern or a code (bytes).  Returns a
    SearchResult; exhausted (not found) means max_hexes was reached
    without finding the target.
    """
    if options is None:
        options = SearchOptions()
    if not isinstance(target, (bytes, bytearray)):
        target = canonical_code(target, options.reflection_invariant)
    target = bytes(target)
    ledger = build_ledger(max_hexes, options, target=target)
    rec = ledger.records.get(target)
    if rec is None:
        return SearchResult(False, None, None, ledger)
    return SearchResult(True, *rec.best(), ledger)


def find_templates(max_hexes, options=None):
    """The ledger's records that hold both parities within max_hexes.

    Records come fewest hexes first (by their larger slot), then in code
    order.  Each is verified by replaying both witnesses and
    re-extracting the boundary codes.
    """
    if options is None:
        options = SearchOptions()
    ledger = build_ledger(max_hexes, options)
    hits = []
    for _, rec in sorted(ledger.records.items()):
        if rec.witness_odd is None or rec.witness_even is None:
            continue
        for parity in ("odd", "even"):
            why = _slot_mismatch(rec, parity, options.reflection_invariant)
            if why is not None:
                raise AssertionError(why)
        hits.append(rec)
    hits.sort(key=lambda rec: max(rec.slot("odd"), rec.slot("even")))
    return tuple(hits)


def verify_template(a, b, reflection_invariant=True):
    """Compare two complexes as a candidate template pair."""
    rep_a = check_conformity(a)
    rep_b = check_conformity(b)
    code_a = code_b = None
    if rep_a.ok:
        code_a = canonical_code(extract_boundary(a), reflection_invariant)
    if rep_b.ok:
        code_b = canonical_code(extract_boundary(b), reflection_invariant)
    codes_equal = code_a is not None and code_a == code_b
    pa, pb = hex_parity(a), hex_parity(b)
    return TemplateReport(
        report_a=rep_a,
        report_b=rep_b,
        code_a=code_a,
        code_b=code_b,
        codes_equal=codes_equal,
        count_a=len(a.hexes),
        count_b=len(b.hexes),
        parity_a=pa,
        parity_b=pb,
        parity_changing=bool(codes_equal and pa != pb),
    )


@functools.cache
def _config_for_mask(mask):
    """config_for_subset of a face set given as a bit mask over 6 faces."""
    return config_for_subset(tuple(f for f in range(6) if mask >> f & 1))


def find_grow_order(c, options=None):
    """Find an order of c's hexes that is a legal move sequence.

    A complex whose interior face count no n - 1 allowed glues can
    cover is refused at once, with nodes 0.  Otherwise this backtracks
    over prefixes, memoizing failed hex sets.  A hex's glued faces are
    those across which c holds a hex of the prefix.  At each node the
    unplaced hexes with 1 to 5 glued faces are tried, most glued faces
    first, then by index.  Each hex is turned to its config's
    representative and takes the move pipeline, as a move does: each
    face component is seeded on the quad its first face runs along, and
    _realize glues it with c's vertex ids and yields its placement, so
    the prefix's boundary keeps the quad order a replay of the witness
    has.  The finished witness is replayed once and must rebuild c hex
    for hex.  Returns GrowOrderResult with found=False and a reason when
    no order exists under the configured move rules.

    A step costs the same however many hexes the prefix holds, apart
    from the C-level copies a glue makes (see moves.glue_hex): each hex
    keeps a bit mask of its faces glued to the prefix, the unplaced
    hexes sit in one frontier set per number of glued faces, and both
    are updated when a hex is placed and undone when it is taken back.
    A node sorts one frontier set at a time, the next only when the last
    is used up; by then every deeper placement is taken back, so it sees
    the sets as they were when the node was reached.  A failed hex set
    is found by an order-free hash of the prefix, updated the same way;
    the set itself is built only when a node fails or its hash is a
    known failure's.  The search runs on an explicit stack of frames, so
    it needs no recursion, however many hexes c holds.
    """
    if options is None:
        options = SearchOptions()
    n = len(c.hexes)
    if n == 0:
        return GrowOrderResult(False, None, None, 0, "empty complex")
    report = check_conformity(c)
    if not report.ok:
        return GrowOrderResult(False, None, None, 0, "input complex not conforming")
    allowed = set(options.allowed_configs)
    # each of the n - 1 glues covers its config's size of interior
    # faces, and every interior face is glued exactly once
    sizes = [cfg.size for cfg in glue_configs() if cfg.id in allowed]
    interior = report.face_incidence.get(2, 0)
    if not min(sizes) * (n - 1) <= interior <= max(sizes) * (n - 1):
        return GrowOrderResult(False, None, None, 0, _NO_ORDER)

    # across[h]: (hex, face) on the other side of each face of hex h; a
    # face of a conforming complex belongs to at most two hexes
    across = [[] for _ in range(n)]
    for inc in c.face_index.values():
        if len(inc) == 2:
            (h1, f1), (h2, f2) = inc
            across[h1].append((h2, f2))
            across[h2].append((h1, f1))
    glued = [0] * n  # glued[h]: h's faces glued to the prefix, a bit mask
    # frontier[k]: the unplaced hexes with k glued faces, for k = 0..6
    frontier = [set(range(n))] + [set() for _ in range(6)]
    in_prefix = bytearray(n)
    rng = random.Random(0)
    tags = [rng.getrandbits(64) for _ in range(n)]
    key = 0  # the xor of the prefix's tags
    failed = {}  # key -> the failed hex sets with that key
    order = []  # the prefix's hexes
    placed = []  # the prefix's hexes, turned as they were glued
    witness = []  # the placements of order[1:]

    def place(h, corners):
        nonlocal key
        in_prefix[h] = 1
        key ^= tags[h]
        frontier[glued[h].bit_count()].discard(h)
        for g, f in across[h]:
            k = glued[g].bit_count()
            glued[g] |= 1 << f
            if not in_prefix[g]:
                frontier[k].discard(g)
                frontier[k + 1].add(g)
        order.append(h)
        placed.append(corners)

    def take_back():
        nonlocal key
        h = order.pop()
        placed.pop()
        if order:
            witness.pop()
        in_prefix[h] = 0
        key ^= tags[h]
        for g, f in across[h]:
            k = glued[g].bit_count()
            glued[g] &= ~(1 << f)
            if not in_prefix[g]:
                frontier[k].discard(g)
                frontier[k - 1].add(g)
        frontier[glued[h].bit_count()].add(h)

    nodes = 0
    # (complex, boundary pattern) of the prefix, or None when it is to
    # be built from placed.  It is the one prefix state held: the frames
    # hold none, or memory grows with the square of the hex count.
    state = None
    # per node of the prefix: [glued face count, the frontier set of that
    # count in index order, next position]
    stack = []
    for h0 in range(n):
        place(h0, c.hexes[h0])
        while stack or order:
            if len(order) > len(stack):  # the prefix's node is new
                nodes += 1
                if len(order) == n:
                    break
                sets = failed.get(key)
                if sets is not None and frozenset(order) in sets:
                    take_back()
                    state = None
                    continue
                # from five glued faces down: six leave no config
                stack.append([6, (), 0])
            frame = stack[-1]
            move = None
            while move is None:
                k, cands, i = frame
                if i == len(cands):
                    if k == 1:
                        break
                    frame[:] = k - 1, sorted(frontier[k - 1]), 0
                    continue
                h = cands[i]
                frame[2] = i + 1
                cfg, sigma = _config_for_mask(glued[h])
                if cfg.id not in allowed:
                    continue
                if state is None:  # a new or backtracked prefix: build it
                    sub = HexComplex(c.vertex_count, tuple(placed))
                    state = (sub, extract_boundary(sub))
                sub, pattern = state
                corners = tuple(c.hexes[h][s] for s in sigma)
                # a glued face runs along its quad in the same direction,
                # so the first edge of each component's first face finds
                # its quad and seed rotation
                seeds = []
                for f0, *_ in config_components(cfg):
                    a, b = HEX_FACES[f0][:2]
                    seeds.append((f0, *pattern.directed_edges[corners[a], corners[b]]))
                move = _realize(
                    sub, pattern, cfg, seeds,
                    sphere_mode=options.sphere_mode, ids=corners,
                )
            sub = pattern = None
            if move is None:
                # the node fails; its parent goes on from a rebuilt prefix
                stack.pop()
                failed.setdefault(key, []).append(frozenset(order))
                take_back()
                state = None
            else:
                state = (move.complex, move.pattern)
                place(h, corners)
                witness.append(move.placement)
        if len(order) == n:
            break
    else:
        return GrowOrderResult(False, None, None, nodes, _NO_ORDER)
    witness = tuple(witness)
    try:
        rebuilt = _replay(witness)[0].hexes
    except InvalidPlacement as err:
        raise AssertionError(f"grow order witness does not decode: {err}") from None
    pairs = {(u, v) for ph, rh in zip(placed, rebuilt) for u, v in zip(ph, rh)}
    if len(dict(pairs)) != len(pairs) or len({v for _, v in pairs}) != len(pairs):
        raise AssertionError("grow order witness does not rebuild the complex")
    return GrowOrderResult(True, tuple(order), witness, nodes)


def _options_to_json(options):
    return {
        "sphere_mode": options.sphere_mode,
        "reflection_invariant": options.reflection_invariant,
        "allowed_configs": list(options.allowed_configs),
    }


def _options_from_json(data, checkpoint_dir):
    try:
        return SearchOptions(
            sphere_mode=bool(data["sphere_mode"]),
            reflection_invariant=bool(data["reflection_invariant"]),
            allowed_configs=tuple(int(x) for x in data["allowed_configs"]),
            checkpoint_dir=checkpoint_dir,
        )
    except (KeyError, TypeError, ValueError) as err:
        raise CheckpointCorrupt(f"bad options in manifest: {err}") from None


def _layer_file(n):
    return f"layer_{n:03d}.records"


def _write_atomic(path, text):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def save_checkpoint(ledger, directory):
    """Write the ledger as manifest + per-layer record files.

    Layer file n holds every record slot first written at layer n, one
    line each: code hex, parity word, count, semicolon-joined placement
    tokens ('-' when empty).  The manifest is written last, so a
    checkpoint is valid iff its manifest is.
    """
    os.makedirs(directory, exist_ok=True)
    by_layer = {}
    for code, rec in sorted(ledger.records.items()):
        for parity in ("odd", "even"):
            count = rec.slot(parity)
            if count is not None:
                by_layer.setdefault(count, []).append((code, parity, rec))
    files = []
    for n in range(1, ledger.layer + 1):
        name = _layer_file(n)
        files.append(name)
        path = os.path.join(directory, name)
        if os.path.exists(path) and n < ledger.layer:
            continue  # layer files are immutable once their layer is done
        lines = []
        for code, parity, rec in by_layer.get(n, ()):
            wit = rec.witness(parity)
            tokens = ";".join(pl.token() for pl in wit) if wit else "-"
            lines.append(f"{code.hex()} {parity} {n} {tokens}")
        _write_atomic(path, "\n".join(lines) + ("\n" if lines else ""))
    manifest = {
        "format_version": FORMAT_VERSION,
        "code_layout_version": CODE_LAYOUT_VERSION,
        "layer": ledger.layer,
        "max_hexes": ledger.max_hexes,
        "target": None if ledger.target is None else ledger.target.hex(),
        "options": _options_to_json(ledger.options),
        "stats": ledger.stats.as_dict(),
        "files": files,
    }
    _write_atomic(
        os.path.join(directory, MANIFEST_NAME),
        json.dumps(manifest, indent=1, sort_keys=True) + "\n",
    )


def _load_record(records, n, where, line):
    """Add one layer-n file line's slot to records, after checking it.

    The line's count is stored nowhere: it must be the layer number,
    agree with the parity word and be the witness length plus one.
    """
    parts = line.split()
    if len(parts) != 4:
        raise CheckpointCorrupt(f"{where}: malformed record line")
    code_hex, parity, count_s, tokens = parts
    try:
        code = bytes.fromhex(code_hex)
        count = int(count_s)
    except ValueError:
        raise CheckpointCorrupt(f"{where}: bad code or count") from None
    if parity not in ("odd", "even") or parity_word(count) != parity:
        raise CheckpointCorrupt(f"{where}: parity does not match count")
    if count != n:
        raise CheckpointCorrupt(f"{where}: count {count} in layer-{n} file")
    if tokens == "-":
        witness = ()
    else:
        try:
            witness = tuple(Placement.from_token(t) for t in tokens.split(";"))
        except ValueError:
            raise CheckpointCorrupt(f"{where}: bad placement token") from None
    if len(witness) != count - 1:
        raise CheckpointCorrupt(
            f"{where}: witness length {len(witness)} for count {count}"
        )
    rec = records.get(code)
    if rec is None:
        rec = records[code] = PatternRecord(code)
    if rec.witness(parity) is not None:
        raise CheckpointCorrupt(f"{where}: duplicate {parity} slot for {code_hex}")
    rec.set_slot(parity, witness)


def load_checkpoint(directory):
    """Read a checkpoint back into a SearchLedger; validates a sample."""
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except FileNotFoundError:
        raise CheckpointCorrupt(f"no manifest in {directory}") from None
    except json.JSONDecodeError as err:
        raise CheckpointCorrupt(f"manifest is not valid JSON: {err}") from None
    if not isinstance(manifest, dict):
        raise CheckpointCorrupt("manifest is not a JSON object")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise VersionMismatch(
            f"checkpoint format {manifest.get('format_version')!r}, "
            f"expected {FORMAT_VERSION}"
        )
    if manifest.get("code_layout_version") != CODE_LAYOUT_VERSION:
        raise VersionMismatch(
            f"code layout {manifest.get('code_layout_version')!r}, "
            f"expected {CODE_LAYOUT_VERSION}"
        )
    options = _options_from_json(manifest.get("options", {}), directory)
    try:
        layer = int(manifest["layer"])
        files = list(manifest["files"])
        max_hexes = manifest["max_hexes"]
        max_hexes = None if max_hexes is None else int(max_hexes)
        target = manifest["target"]
        target = None if target is None else bytes.fromhex(target)
        stats_d = dict(manifest.get("stats", {}))
        # older manifests count double-glue and maximality rejections
        # apart; glue_hex now rejects those candidates for conformity
        stats_d["rejected_conformity"] = sum(
            int(stats_d.get(k, 0))
            for k in (
                "rejected_conformity",
                "rejected_double_glue",
                "rejected_maximality",
            )
        )
        stats = SearchStats(
            **{
                f.name: int(stats_d.get(f.name, 0))
                for f in dataclasses.fields(SearchStats)
            }
        )
    except (KeyError, TypeError, ValueError, AttributeError) as err:
        raise CheckpointCorrupt(f"bad manifest: {err}") from None
    # the files save_checkpoint names for layers 1..layer, and no others;
    # every ledger holds layer 1, the start state
    names = [_layer_file(n) for n in range(1, len(files) + 1)]
    if layer < 1 or len(files) != layer or files != names:
        raise CheckpointCorrupt(
            f"manifest lists layer files {files!r} for layer {layer}"
        )
    records = {}
    for n, name in enumerate(names, start=1):
        try:
            fh = open(os.path.join(directory, name))
        except FileNotFoundError:
            raise CheckpointCorrupt(f"missing layer file {name}") from None
        with fh:
            for lineno, line in enumerate(fh, start=1):
                _load_record(records, n, f"{name}:{lineno}", line)
        if n == 1 and records != _fresh_ledger(options).records:
            raise CheckpointCorrupt(f"{name} does not hold just the start state")
    ledger = SearchLedger(
        records=records,
        layer=layer,
        options=options,
        stats=stats,
        target=target,
        max_hexes=max_hexes,
    )

    sample = [rec for _, rec in sorted(records.items())][:3]
    for rec in sample:
        for parity in ("odd", "even"):
            if rec.slot(parity) is None:
                continue
            why = _slot_mismatch(rec, parity, options.reflection_invariant)
            if why is not None:
                raise CheckpointCorrupt(f"{parity} record {rec.code.hex()}: {why}")
    return ledger
