import random
from collections import Counter

import pytest
from conftest import all_moves, grid_complex, seedings
from hypothesis import given, settings
from hypothesis import strategies as st

import hexpack.moves as moves
from hexpack.errors import InvalidPlacement, ValidationError
from hexpack.fixtures import parity_odd17
from hexpack.hexmodel import (
    HEX_FACES,
    HexComplex,
    check_conformity,
    extract_boundary,
    hex_parity,
    oriented_key,
    subdivide_hex,
)
from hexpack.moves import (
    REJECT_REASONS,
    Placement,
    _propagate,
    _realize,
    apply_move,
    config_by_id,
    config_components,
    config_for_subset,
    enumerate_moves,
    glue_configs,
    initial_packing,
)
from hexpack.search import (
    SearchOptions,
    build_ledger,
    find_grow_order,
    replay_witness,
)
from hexpack.surface import (
    CodeMemo,
    SurfacePattern,
    build_pattern,
    canonical_code,
    euler_characteristic,
)


def test_glue_configs_census():
    configs = glue_configs()
    assert len(configs) == 8
    assert [cfg.id for cfg in configs] == list(range(1, 9))
    assert [cfg.size for cfg in configs] == [1, 2, 2, 3, 3, 4, 4, 5]
    names = {cfg.name for cfg in configs}
    assert names == {
        "one",
        "two-adjacent",
        "two-opposite",
        "three-row",
        "three-corner",
        "four-notch",
        "four-ring",
        "five",
    }
    # exactly one config has a disconnected face set
    split = [cfg.id for cfg in configs if len(config_components(cfg)) == 2]
    assert len(split) == 1
    assert config_by_id(split[0]).name == "two-opposite"


def test_config_by_id_rejects_unknown():
    with pytest.raises(InvalidPlacement):
        config_by_id(0)
    with pytest.raises(InvalidPlacement):
        config_by_id(9)


def test_every_proper_subset_classifies():
    import itertools

    sizes = {}
    for k in range(1, 6):
        for subset in itertools.combinations(range(6), k):
            cfg, rot = config_for_subset(subset)
            assert cfg.size == k
            # the rotation really carries the representative onto the subset
            assert len(rot) == 8
            sizes[cfg.id] = sizes.get(cfg.id, 0) + 1
    # orbit sizes under the 24 rotations add up to all 62 proper subsets
    assert sum(sizes.values()) == 62
    assert sizes == {1: 6, 2: 3, 3: 12, 4: 12, 5: 8, 6: 12, 7: 3, 8: 6}


def test_first_layer_moves_from_single_hex():
    start = initial_packing()
    raw = [m.placement for m in all_moves(start)]
    assert len(raw) == 24  # 6 quads x 4 rotations, all equivalent
    assert {pl.config_id for pl in raw} == {1}
    dedup = [m.placement for m in enumerate_moves(start)]
    assert len(dedup) == 1


def test_dedup_keeps_the_first_placement_per_successor_code():
    start = initial_packing()
    second, _ = apply_move(start, enumerate_moves(start)[0].placement)
    bare = {}
    raw = all_moves(second, counters=bare)
    # the full product computes no code and is ordered by placement
    assert "codes" not in bare
    assert all(m.code == b"" for m in raw)
    keys = [m.placement for m in raw]
    assert keys == sorted(keys)
    coded = {}
    dedup = enumerate_moves(second, counters=coded)
    # one seeding per orbit of its config's stabilizer is tried and coded
    assert coded["tried"] < bare["tried"]
    assert coded["tried"] == coded["codes"] + sum(
        coded.get(reason, 0) for reason in REJECT_REASONS
    )
    per_config = Counter(m.placement.config_id for m in raw)
    orders = {cid: len(moves._STABILIZERS[cid]) + 1 for cid in per_config}
    assert all(n % orders[cid] == 0 for cid, n in per_config.items())
    assert coded["codes"] == sum(n // orders[cid] for cid, n in per_config.items())
    firsts = {}
    for m in raw:
        firsts.setdefault(canonical_code(m.pattern), m.placement)
    assert [(m.code, m.placement) for m in dedup] == sorted(firsts.items())


def ledger_states(depth, options):
    """The packing of every slot of build_ledger(depth, options), by code."""
    return [
        replay_witness(rec.witness(parity))
        for _, rec in sorted(build_ledger(depth, options).records.items())
        for parity in ("odd", "even")
        if rec.slot(parity) is not None
    ]


def reference_dedup(packing, reflection_invariant, sphere_mode=True):
    """enumerate_moves' kept results, from the full product and a full
    canonical code of each successor: the first placement per code, by
    code, as (code, placement, hexes, quads).  Equal successor patterns
    have one code, so each distinct one is coded once."""
    codes = {}
    firsts = {}
    for m in all_moves(packing, sphere_mode=sphere_mode):
        code = codes.get(m.pattern)
        if code is None:
            code = codes[m.pattern] = canonical_code(m.pattern, reflection_invariant)
        firsts.setdefault(code, m)
    return [
        (code, m.placement, m.complex.hexes, m.pattern.quads)
        for code, m in sorted(firsts.items())
    ]


def kept_results(results):
    return [(m.code, m.placement, m.complex.hexes, m.pattern.quads) for m in results]


@pytest.mark.parametrize("reflection", [True, False])
def test_layer_memo_keeps_the_pairs_of_a_full_code_per_candidate(reflection):
    # every state build_ledger(6) expands, each layer sharing one memo as
    # build_ledger does
    ledger = build_ledger(5, SearchOptions(reflection_invariant=reflection))
    layers = {}
    for _, rec in sorted(ledger.records.items()):
        for parity in ("odd", "even"):
            if rec.slot(parity) is not None:
                layers.setdefault(rec.slot(parity), []).append(rec.witness(parity))
    assert sum(map(len, layers.values())) == (84 if reflection else 105)
    for witnesses in layers.values():
        memo = CodeMemo(reflection)
        for witness in witnesses:
            packing = replay_witness(witness)
            got = enumerate_moves(packing, memo=memo)
            assert kept_results(got) == reference_dedup(packing, reflection)


def test_seedings_on_one_glued_quad_set_build_one_successor():
    # The legal seedings of a one-component config on one quad set are
    # one orbit of its stabilizer, so they build one successor; two
    # opposite faces can also turn apart, into another orbit.  The former
    # take the finer plain code, so the premise holds in both reflection
    # modes; the latter the default code, so that even with reflection
    # their successors on one quad set can differ.
    split = 0
    for options in (SearchOptions(), SearchOptions(sphere_mode=False)):
        depth = 5 if options.sphere_mode else 3
        for rec in build_ledger(depth, options).records.values():
            for parity in ("odd", "even"):
                if rec.slot(parity) is None:
                    continue
                groups = {}
                for m in all_moves(
                    replay_witness(rec.witness(parity)),
                    sphere_mode=options.sphere_mode,
                ):
                    pl = m.placement
                    cfg = config_by_id(pl.config_id)
                    one_piece = len(config_components(cfg)) == 1
                    groups.setdefault(
                        (one_piece, cfg.id, frozenset(pl.quads)), set()
                    ).add(canonical_code(m.pattern, not one_piece))
                for (one_piece, *_), codes in groups.items():
                    if one_piece:
                        assert len(codes) == 1
                    else:
                        split += len(codes) > 1
    assert split > 0


def test_a_state_asks_the_memo_once_per_orbit():
    class CountingMemo(CodeMemo):
        calls = 0

        def code(self, p):
            self.calls += 1
            return super().code(p)

    memo, counters = CountingMemo(), {}
    kept = enumerate_moves(initial_packing(), counters=counters, memo=memo)
    assert len(kept) == 1
    assert counters["codes"] == 6  # every realized candidate is counted
    assert memo.calls == 6  # one per quad of the cube, not per rotation
    # config one is tried on each quad of the cube at rotation 0 only: the
    # other rotations are turns of the glued face
    counters = {}
    enumerate_moves(initial_packing(), allowed={1}, counters=counters)
    assert counters == {"tried": 6, "codes": 6}


def test_layer_three_pattern_census():
    start = initial_packing()
    second, _ = apply_move(start, enumerate_moves(start)[0].placement)
    moves = enumerate_moves(second)
    quads = sorted(len(m.pattern.quads) for m in moves)
    assert quads == [12, 14, 14]
    # one of the 14-quad patterns has exactly five distinct successors
    succ_counts = {}
    for m in moves:
        packing = m.complex
        succ_counts.setdefault(len(m.pattern.quads), []).append(
            len(enumerate_moves(packing))
        )
    assert sorted(succ_counts[14]) == [5, 9]
    assert succ_counts[12] == [5]


def test_apply_move_matches_enumerated_successor():
    start = initial_packing()
    for m in all_moves(start):
        c2, p2 = apply_move(start, m.placement)
        assert c2 == m.complex
        assert p2 == m.pattern
        assert p2 == extract_boundary(c2)  # same set of oriented quads


def test_quad_count_change_tracks_glued_faces():
    # each move removes k quads and adds 6 - k: dF = 6 - 2k
    rnd = random.Random(11)
    packing = initial_packing()
    for _ in range(6):
        pattern = extract_boundary(packing)
        moves = all_moves(packing, pattern)
        m = rnd.choice(moves)
        k = config_by_id(m.placement.config_id).size
        assert len(m.pattern.quads) - len(pattern.quads) == 6 - 2 * k
        assert euler_characteristic(m.pattern) == 2
        assert check_conformity(m.complex).ok
        packing = m.complex


def pocket_complex():
    """3x3x2 block with one interior-top cell removed, and its coords."""
    cells = [(x, y, z) for x in range(3) for y in range(3) for z in range(2)]
    cells.remove((1, 1, 1))
    return grid_complex(cells)


def test_pocket_fill_uses_only_the_maximal_config():
    # A cavity with four walls and a floor.  The hex filling the cavity
    # must glue all five of its quads; a three-row or four-ring glue there
    # would leave a new face canceling a wall or the floor and is not a
    # legal move.
    pocket, coords = pocket_complex()
    cavity = {
        i for i, p in enumerate(coords) if all(1 <= c <= 2 for c in p)
    }
    assert len(cavity) == 8
    moves = all_moves(pocket)
    fills = [m for m in moves if set(m.complex.hexes[-1]) == cavity]
    assert len(fills) == 4  # one five-face glue, seen in 4 orientations
    assert {config_by_id(m.placement.config_id).size for m in fills} == {5}
    # without the sphere restriction, twisted bridges between facing walls
    # join in (handle-adding two-opposite glues), but the aligned bridge
    # and the partial three-row and four-ring glues never do: each is the
    # five-face fill in disguise
    free = all_moves(pocket, sphere_mode=False)
    sizes = {}
    for m in free:
        if set(m.complex.hexes[-1]) == cavity:
            k = config_by_id(m.placement.config_id).size
            sizes[k] = sizes.get(k, 0) + 1
    # 4 ordered wall pairs x 16 relative rotations, minus 4 aligned each
    assert sizes == {5: 4, 2: 48}


def test_parity_alternates_along_any_witness():
    packing = initial_packing()
    assert hex_parity(packing) == "odd"
    pl = enumerate_moves(packing)[0].placement
    packing, _ = apply_move(packing, pl)
    assert hex_parity(packing) == "even"


def test_sphere_mode_excludes_the_disconnected_config():
    start = initial_packing()
    col, _ = apply_move(start, enumerate_moves(start)[0].placement)
    sphere = all_moves(col)
    assert all(m.placement.config_id != 2 for m in sphere)
    free = all_moves(col, sphere_mode=False)
    ring = [m.placement for m in free if m.placement.config_id == 2]
    assert ring
    # closing both ends of a bent column produces a solid torus
    for pl in ring[:4]:
        _, pattern = apply_move(col, pl)
        assert euler_characteristic(pattern) == 0


def test_torus_states_stay_legal_without_sphere_mode():
    start = initial_packing()
    col, _ = apply_move(start, enumerate_moves(start)[0].placement)
    pl = next(
        m.placement
        for m in all_moves(col, sphere_mode=False)
        if m.placement.config_id == 2
    )
    torus, pattern = apply_move(col, pl)
    assert check_conformity(torus).ok
    assert euler_characteristic(pattern) == 0
    assert len(torus.hexes) == 3


def test_apply_move_validates_placements():
    start = initial_packing()
    with pytest.raises(InvalidPlacement):
        apply_move(start, Placement(9, (0,), 0))
    with pytest.raises(InvalidPlacement):
        apply_move(start, Placement(1, (6,), 0))  # quad index out of range
    with pytest.raises(InvalidPlacement):
        apply_move(start, Placement(1, (0,), 4))  # rotation out of range
    with pytest.raises(InvalidPlacement):
        apply_move(start, Placement(3, (0,), 0))  # wrong quad tuple arity
    with pytest.raises(InvalidPlacement):
        apply_move(start, Placement(3, (0, 1), 0))  # not an adjacent pair here
    with pytest.raises(InvalidPlacement):
        apply_move(start, Placement(2, (0, 0), 0))  # two faces on one quad


def test_placement_token_round_trip():
    for token in ("1:0:0", "3:3:2,6", "4:1:19,24,21", "2:7:0,5"):
        pl = Placement.from_token(token)
        assert pl.token() == token
    with pytest.raises(ValueError):
        Placement.from_token("nonsense")
    with pytest.raises(ValueError):
        Placement.from_token("1:0")


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_random_walks_preserve_invariants(seed):
    rnd = random.Random(seed)
    packing = initial_packing()
    for step in range(4):
        pattern = extract_boundary(packing)
        moves = all_moves(packing, pattern)
        assert moves, "sphere-mode growth can always continue"
        m = rnd.choice(moves)
        # enumerated successor pattern agrees with an independent replay
        replayed, incremental = apply_move(packing, m.placement, pattern)
        assert incremental == m.pattern
        # quad for quad, which lets a replay carry the pattern forward
        assert incremental.quads == extract_boundary(replayed).quads
        assert canonical_code(extract_boundary(replayed)) == canonical_code(
            m.pattern
        )
        assert euler_characteristic(m.pattern) == 2
        packing = replayed
    assert len(packing.hexes) == 5


def test_two_opposite_rotation_encoding():
    # rotations for the disconnected config pack two two-bit fields
    pl = Placement(2, (0, 1), 13)
    assert pl.rotation == 13
    token = pl.token()
    assert Placement.from_token(token) == pl


def test_grown_complexes_carry_the_rebuilt_face_index(monkeypatch):
    grown = []
    plain = moves.glue_hex

    def recording_glue(*args, **kwargs):
        res = plain(*args, **kwargs)
        if res is not None:
            grown.append(res[0])
        return res

    monkeypatch.setattr(moves, "glue_hex", recording_glue)
    build_ledger(4)
    build_ledger(4, SearchOptions(sphere_mode=False))
    assert find_grow_order(subdivide_hex(parity_odd17())).found
    assert len(grown) > 900 and max(map(len, grown)) == 136
    for c in grown:
        # items and their order: boundary_items reads the dict in order
        want = HexComplex(c.vertex_count, c.hexes).face_index
        assert list(c.face_index.items()) == list(want.items())
        assert c.vertex_sets == set(map(frozenset, c.hexes))


def test_a_glue_leaves_the_predecessor_index_alone():
    states = ledger_states(3, SearchOptions(sphere_mode=False))
    for packing in states + [pocket_complex()[0]]:
        before = list(packing.face_index.items())
        sets_before = set(packing.vertex_sets)
        moves_seen = all_moves(packing, sphere_mode=False)
        assert moves_seen
        for cand in moves_seen:
            assert cand.complex.face_index is not packing.face_index
            assert cand.complex.vertex_sets is not packing.vertex_sets
        assert list(packing.face_index.items()) == before
        assert packing.vertex_sets == sets_before


def whole_complex_rule(packing, pattern, cfg, seeds, sphere_mode):
    """The reference rule: identify the new hex, then check everything.

    Returns (grown complex, successor quads) or None.  After the
    identification steps it runs check_conformity on the whole grown
    complex, build_pattern on the whole successor surface and, in sphere
    mode, demands Euler characteristic 2.
    """
    res = _propagate(pattern, cfg.faces, seeds)
    if res is None:
        return None
    m, targets = res
    tvals = set(targets.values())
    if len(set(m.values())) != len(m) or len(tvals) != len(targets):
        return None
    by_oriented = {}
    for qi, q in enumerate(pattern.quads):
        by_oriented.setdefault(oriented_key(q), []).append(qi)
    for g in range(6):
        gc = HEX_FACES[g]
        if g in targets or not all(c in m for c in gc):
            continue
        img = tuple(m[c] for c in gc)
        if any(qi not in tvals for qi in by_oriented.get(oriented_key(img), ())):
            return None
    new_hex = []
    nxt = packing.vertex_count
    for c in range(8):
        if c not in m:
            m[c] = nxt
            nxt += 1
        new_hex.append(m[c])
    succ = [q for qi, q in enumerate(pattern.quads) if qi not in tvals]
    succ += [
        tuple(new_hex[i] for i in reversed(HEX_FACES[g]))
        for g in range(6)
        if g not in targets
    ]
    if sphere_mode and euler_characteristic(SurfacePattern(succ)) != 2:
        return None
    grown = HexComplex(nxt, packing.hexes + (tuple(new_hex),))
    if not check_conformity(grown).ok:
        return None
    try:
        build_pattern(succ)
    except ValidationError:
        return None
    return grown, succ


def assert_local_rule_matches_whole_complex_rule(packing, sphere_mode):
    pattern = extract_boundary(packing)
    for cfg, seeds in seedings(pattern, sphere_mode):
        got = _realize(packing, pattern, cfg, seeds, sphere_mode=sphere_mode)
        want = whole_complex_rule(packing, pattern, cfg, seeds, sphere_mode)
        assert (got is None) == (want is None), (cfg.name, seeds, sphere_mode)
        if got is not None:
            assert got.complex == want[0]
            assert got.pattern.quads == tuple(want[1])
            assert got.pattern == extract_boundary(got.complex)


@pytest.mark.parametrize("sphere_mode", [True, False])
def test_local_move_check_matches_whole_complex_check(sphere_mode):
    states = ledger_states(4, SearchOptions())
    assert len(states) == 18
    for packing in states + [pocket_complex()[0]]:
        assert_local_rule_matches_whole_complex_rule(packing, sphere_mode)


def test_stabilizers_have_the_orders_of_the_face_sets():
    orders = [len(moves._STABILIZERS[cfg.id]) + 1 for cfg in glue_configs()]
    assert orders == [4, 8, 2, 2, 3, 2, 8, 4]
    for cfg in glue_configs():
        for vperm, fperm in moves._STABILIZERS[cfg.id]:
            assert vperm in moves.ROTATIONS and vperm != tuple(range(8))
            assert {fperm[f] for f in cfg.faces} == set(cfg.faces)
    # orbit times stabilizer: each class holds 24 / order face subsets
    assert [24 // n for n in orders] == [6, 3, 12, 12, 8, 12, 3, 6]


@pytest.mark.parametrize("reflection", [True, False])
def test_one_seeding_per_orbit_keeps_the_full_products_first_placements(
    reflection,
):
    # sphere mode is held so by the layer memo test above
    options = SearchOptions(sphere_mode=False, reflection_invariant=reflection)
    states = ledger_states(4, options)
    assert len(states) == (139 if reflection else 201)
    for packing in states:
        got = enumerate_moves(
            packing, sphere_mode=False, memo=CodeMemo(reflection)
        )
        assert kept_results(got) == reference_dedup(
            packing, reflection, sphere_mode=False
        )


def test_two_opposite_seedings_are_tried_on_increasing_quads():
    # swapping the two glued faces makes a seeding smaller exactly when
    # its second quad is below its first: those seedings are never tried,
    # and no two-opposite seeding is left for the orbit check
    cfg = next(cfg for cfg in glue_configs() if cfg.name == "two-opposite")
    rotations, mates, increasing = moves._ORBITS[cfg.id]
    assert increasing and not mates
    assert len(rotations) == 4  # of 16: four turns share the axis
    for packing in ledger_states(3, SearchOptions(sphere_mode=False)):
        counters = {}
        enumerate_moves(packing, allowed={cfg.id}, sphere_mode=False, counters=counters)
        n = len(extract_boundary(packing).quads)
        assert counters["tried"] == n * (n - 1) // 2 * len(rotations)
        assert "orbit" not in counters


def mate_seeds(pattern, cfg, m, targets, vperm, fperm):
    """The seeds of the hex whose corner c is corner vperm[c] of the hex
    that m and targets place: each component's first face goes on the
    quad of its image face, turned to where its first corner lands."""
    seeds = []
    for comp in config_components(cfg):
        f0 = comp[0]
        t = targets[fperm[f0]]
        seeds.append((f0, t, pattern.quads[t].index(m[vperm[HEX_FACES[f0][0]]])))
    return tuple(seeds)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**31 - 1), st.booleans())
def test_every_mate_of_a_seeding_builds_the_same_successor(seed, sphere_mode):
    rnd = random.Random(seed)
    packing = initial_packing()
    for _ in range(rnd.randrange(4)):
        packing = rnd.choice(
            enumerate_moves(packing, sphere_mode=sphere_mode)
        ).complex
    pattern = extract_boundary(packing)
    realized = 0
    for cfg, seeds in seedings(pattern, sphere_mode):
        res = _propagate(pattern, cfg.faces, seeds)
        if res is None:
            continue
        cand = _realize(packing, pattern, cfg, seeds, sphere_mode=sphere_mode)
        realized += cand is not None
        placements = {None if cand is None else cand.placement}
        for vperm, fperm in moves._STABILIZERS[cfg.id]:
            mate = _realize(
                packing, pattern, cfg, mate_seeds(pattern, cfg, *res, vperm, fperm),
                sphere_mode=sphere_mode,
            )
            assert (mate is None) == (cand is None), (cfg.name, seeds, vperm)
            if cand is not None:
                assert canonical_code(mate.pattern, False) == canonical_code(
                    cand.pattern, False
                )
                assert set(mate.complex.hexes[-1]) == set(cand.complex.hexes[-1])
                placements.add(mate.placement)
        if cand is not None:
            # a legal seeding has as many mates as its stabilizer
            assert len(placements) == len(moves._STABILIZERS[cfg.id]) + 1
    assert realized > 0


def test_no_minimal_packing_one_move_past_a_witness_reaches_a_smaller_slot():
    # The ledger keeps one packing per code and parity.  Expand every
    # other minimal packing one move past a kept witness, up to 4 hexes:
    # none may reach a code before the ledger's slot for it.
    ledger = build_ledger(5)

    def slot(code, hexes):
        return ledger.records[code].slot("odd" if hexes % 2 else "even")

    expanded = 0
    memos = {}
    for rec in ledger.records.values():
        for parity in ("odd", "even"):
            layer = rec.slot(parity)
            if layer is None or layer > 3:
                continue
            for m in all_moves(replay_witness(rec.witness(parity))):
                if slot(canonical_code(m.pattern), layer + 1) != layer + 1:
                    continue
                expanded += 1
                memo = memos.setdefault(layer + 2, CodeMemo())
                for succ in enumerate_moves(m.complex, m.pattern, memo=memo):
                    assert slot(succ.code, layer + 2) <= layer + 2
    assert expanded == 294
