import hashlib
import os
import random
import shutil
import sys
from pathlib import Path

import pytest

from hexpack.errors import (
    CheckpointCorrupt,
    HexpackError,
    InvalidPlacement,
    VersionMismatch,
)
from hexpack.hexmodel import (
    HEX_FACES,
    HexComplex,
    build_complex,
    check_conformity,
    extract_boundary,
    hex_parity,
    parity_word,
    subdivide_hex,
)
from hexpack.moves import (
    REJECT_REASONS,
    _realize,
    apply_move,
    config_components,
    config_for_subset,
    enumerate_moves,
    glue_configs,
    initial_packing,
)
from hexpack.search import (
    _NO_ORDER,
    FORMAT_VERSION,
    GrowOrderResult,
    PatternRecord,
    SearchOptions,
    build_ledger,
    find_grow_order,
    find_templates,
    load_checkpoint,
    replay_witness,
    _replay,
    search_min_packing,
    verify_template,
)
from hexpack.surface import (
    CodeMemo,
    canonical_code,
    code_quad_count,
    cube_pattern,
    pyramid16_pattern,
)

from conftest import grid_complex


def ledger_layer_codes(ledger):
    per = {}
    for code, rec in ledger.records.items():
        for parity in ("odd", "even"):
            if rec.slot(parity) is not None:
                per.setdefault(rec.slot(parity), set()).add(code)
    return per


def test_ledger_layer_sizes():
    ledger = build_ledger(3)
    per = ledger_layer_codes(ledger)
    assert {k: len(v) for k, v in per.items()} == {1: 1, 2: 1, 3: 3}
    quads = sorted(code_quad_count(c) for c in per[3])
    assert quads == [12, 14, 14]


def test_ledger_records_replay_to_their_codes():
    ledger = build_ledger(3)
    for code, rec in ledger.records.items():
        for parity in ("odd", "even"):
            if rec.slot(parity) is None:
                continue
            packing = replay_witness(rec.witness(parity))
            assert len(packing.hexes) == rec.slot(parity)
            assert hex_parity(packing) == parity
            assert canonical_code(extract_boundary(packing)) == code


def test_replay_witness_endpoints():
    assert len(replay_witness(()).hexes) == 1
    ledger = build_ledger(3)
    twelve = next(
        c for c in ledger_layer_codes(ledger)[3] if code_quad_count(c) == 12
    )
    wit = ledger.records[twelve].witness("odd")
    assert len(wit) == 2
    packing = replay_witness(wit)
    assert len(packing.hexes) == 3
    assert len(extract_boundary(packing).quads) == 12


def test_search_finds_start_state_immediately():
    res = search_min_packing(cube_pattern(), 1)
    assert res.found and res.count == 1 and res.witness == ()


def test_search_finds_two_hex_pattern():
    start = initial_packing()
    packing, _ = apply_move(start, enumerate_moves(start)[0].placement)
    target = canonical_code(extract_boundary(packing))
    res = search_min_packing(target, 5)
    assert res.found and res.count == 2
    assert len(res.witness) == 1
    assert canonical_code(extract_boundary(replay_witness(res.witness))) == target


def test_search_exhausts_honestly():
    from hexpack.surface import pyramid16_pattern

    res = search_min_packing(pyramid16_pattern(), 4)
    assert not res.found
    assert res.exhausted
    assert res.count is None and res.witness is None


def test_admissible_pruning_never_changes_the_answer():
    # a straight column of four cells has 18 boundary quads; at layer 3
    # the 12-quad state cannot gain 6 quads in the one move left
    column, _ = grid_complex([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
    target = canonical_code(extract_boundary(column))
    assert code_quad_count(target) == 18
    pruned = search_min_packing(target, 4)
    assert pruned.ledger.stats.pruned == 1
    plain = build_ledger(4).records[target]
    assert pruned.found
    assert pruned.count == plain.slot("even")
    assert pruned.witness == plain.witness_even


def test_checkpoint_round_trip(tmp_path):
    d = str(tmp_path / "ck")
    options = SearchOptions(checkpoint_dir=d)
    ledger = build_ledger(3, options)
    loaded = load_checkpoint(d)
    assert loaded.layer == ledger.layer
    assert set(loaded.records) == set(ledger.records)
    for code in ledger.records:
        ra, rb = ledger.records[code], loaded.records[code]
        assert (ra.slot("odd"), ra.slot("even")) == (rb.slot("odd"), rb.slot("even"))
        assert (ra.witness_odd, ra.witness_even) == (rb.witness_odd, rb.witness_even)
    assert os.path.exists(os.path.join(d, "manifest.json"))
    assert os.path.exists(os.path.join(d, "layer_003.records"))


def test_checkpoint_resume_is_deterministic(tmp_path):
    d = str(tmp_path / "ck")
    options = SearchOptions(checkpoint_dir=d)
    build_ledger(2, options)
    resumed = build_ledger(3, options)
    fresh = build_ledger(3)
    assert set(resumed.records) == set(fresh.records)
    for code in fresh.records:
        ra, rb = resumed.records[code], fresh.records[code]
        assert (ra.witness_odd, ra.witness_even) == (rb.witness_odd, rb.witness_even)


def test_checkpoint_with_an_old_thread_count_resumes(tmp_path):
    # manifests written before the search went serial carry thread_count,
    # and older ones count double-glue and maximality rejections apart
    import json

    d = str(tmp_path / "ck")
    # the smallest depth whose expansions reject a seeding for conformity
    build_ledger(5, SearchOptions(checkpoint_dir=d))
    manifest_path = os.path.join(d, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["options"]["thread_count"] = 2
    stats = manifest["stats"]
    stats["rejected_maximality"] = stats["rejected_conformity"] // 2
    stats["rejected_double_glue"] = 0
    stats["rejected_conformity"] -= stats["rejected_maximality"]
    assert stats["rejected_maximality"] > 0
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    resumed = build_ledger(6, SearchOptions(checkpoint_dir=d))
    fresh = build_ledger(6)
    assert set(resumed.records) == set(fresh.records)
    for code in fresh.records:
        ra, rb = resumed.records[code], fresh.records[code]
        assert (ra.slot("odd"), ra.slot("even")) == (rb.slot("odd"), rb.slot("even"))
        assert (ra.witness_odd, ra.witness_even) == (rb.witness_odd, rb.witness_even)
    rs = resumed.stats
    rejected = [getattr(rs, "rejected_" + r) for r in REJECT_REASONS]
    assert rs.moves_tried == rs.codes_computed + sum(rejected)
    assert rs == fresh.stats


def test_checkpoint_rejects_other_options(tmp_path):
    d = str(tmp_path / "ck")
    build_ledger(2, SearchOptions(checkpoint_dir=d))
    with pytest.raises(CheckpointCorrupt):
        build_ledger(
            3, SearchOptions(checkpoint_dir=d, reflection_invariant=False)
        )


def test_checkpoint_with_reordered_configs_resumes(tmp_path):
    # allowed_configs is a set of ids: a manifest that lists them in
    # another order or with repeats describes the same search
    import json

    assert SearchOptions(allowed_configs=(2, 1, 2)).allowed_configs == (1, 2)
    d = str(tmp_path / "ck")
    build_ledger(2, SearchOptions(checkpoint_dir=d))
    manifest_path = os.path.join(d, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["options"]["allowed_configs"] = [2, 1, 3, 4, 5, 6, 7, 8, 1]
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    resumed = build_ledger(3, SearchOptions(checkpoint_dir=d))
    fresh = build_ledger(3)
    assert set(resumed.records) == set(fresh.records)
    assert resumed.stats == fresh.stats


@pytest.mark.parametrize("configs", [(9,), (), (0, 1)])
def test_search_options_refuse_unknown_or_no_configs(configs):
    # such a search would try no move and still report its start state
    with pytest.raises(ValueError):
        SearchOptions(allowed_configs=configs)


def test_checkpoint_rejects_version_and_garbage(tmp_path):
    import json

    d = str(tmp_path / "ck")
    build_ledger(2, SearchOptions(checkpoint_dir=d))
    manifest_path = os.path.join(d, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    configs = manifest["options"]["allowed_configs"]
    manifest["options"]["allowed_configs"] = [9]  # no such glue config
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(d)
    with pytest.raises(CheckpointCorrupt):
        build_ledger(3, SearchOptions(checkpoint_dir=d))

    manifest["options"]["allowed_configs"] = configs
    manifest["format_version"] = 99
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(VersionMismatch):
        load_checkpoint(d)

    manifest["format_version"] = FORMAT_VERSION
    files = manifest["files"]
    shutil.copy(os.path.join(d, files[1]), os.path.join(d, "other.records"))
    for bad in ([files[0], 2], [files[0], "other.records"]):
        manifest["files"] = bad  # only layer_001.records, layer_002.records
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh)
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(d)

    manifest["files"] = files
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with open(os.path.join(d, "layer_002.records"), "a") as fh:
        fh.write("zzzz odd\n")
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(d)

    with open(manifest_path, "w") as fh:
        fh.write("[]\n")  # valid JSON, not an object
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(d)


def test_checkpoint_pruned_for_a_target_resumes_only_for_it(tmp_path):
    # at max_hexes 3 the single-hex start cannot reach the 16-quad target,
    # so it is pruned and the checkpoint holds one record
    d = str(tmp_path / "ck")
    target = canonical_code(pyramid16_pattern())
    first = build_ledger(3, SearchOptions(checkpoint_dir=d), target=target)
    assert first.stats.pruned == 1 and len(first.records) == 1
    assert load_checkpoint(d).target == target
    with pytest.raises(CheckpointCorrupt):
        build_ledger(6, SearchOptions(checkpoint_dir=d), target=target)
    with pytest.raises(CheckpointCorrupt):
        find_templates(4, SearchOptions(checkpoint_dir=d))
    again = build_ledger(3, SearchOptions(checkpoint_dir=d), target=target)
    assert set(again.records) == set(first.records)


def test_checkpoint_without_pruning_resumes_for_any_target(tmp_path):
    d = str(tmp_path / "ck")
    build_ledger(2, SearchOptions(checkpoint_dir=d))
    target = canonical_code(pyramid16_pattern())
    resumed = build_ledger(3, SearchOptions(checkpoint_dir=d), target=target)
    assert resumed.stats.pruned == 1  # the 10-quad state is two moves short
    assert len(resumed.records) == 2
    with pytest.raises(CheckpointCorrupt):
        build_ledger(4, SearchOptions(checkpoint_dir=d))


def _manifest(edit):
    """Damage that rewrites the manifest as edit(manifest) leaves it."""
    import json

    def damage(d):
        path = os.path.join(d, "manifest.json")
        with open(path) as fh:
            manifest = json.load(fh)
        edit(manifest)
        with open(path, "w") as fh:
            json.dump(manifest, fh)

    return damage


def _first_record(edit):
    """Damage that replaces layer 3's first record line by the lines
    edit(code, parity, count, tokens) returns."""

    def damage(d):
        path = os.path.join(d, "layer_003.records")
        with open(path) as fh:
            first, *rest = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(edit(*first.split()) + rest) + "\n")

    return damage


@pytest.mark.parametrize("damage, error, match", [
    pytest.param(
        lambda d: Path(d, "manifest.json").unlink(),
        CheckpointCorrupt, "no manifest", id="no-manifest",
    ),
    pytest.param(
        lambda d: Path(d, "manifest.json").write_text("{layer"),
        CheckpointCorrupt, "not valid JSON", id="manifest-not-json",
    ),
    pytest.param(
        _manifest(lambda m: m.update(code_layout_version=99)),
        VersionMismatch, "code layout 99", id="code-layout-version",
    ),
    pytest.param(
        _manifest(lambda m: m.pop("layer")),
        CheckpointCorrupt, "bad manifest", id="no-layer",
    ),
    pytest.param(
        _manifest(lambda m: m["options"].update(sphere_mode="false")),
        CheckpointCorrupt, "sphere_mode is 'false', not a JSON boolean",
        id="mode-not-a-boolean",
    ),
    pytest.param(
        _manifest(lambda m: m["options"].update(allowed_configs=[2.7])),
        CheckpointCorrupt, "config id is 2.7, not a JSON integer",
        id="config-id-not-an-integer",
    ),
    pytest.param(
        _manifest(lambda m: m.update(max_hexes=3.9)),
        CheckpointCorrupt, "max_hexes is 3.9, not a JSON integer",
        id="budget-not-an-integer",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"zz{c} {p} {n} {t}"]),
        CheckpointCorrupt, "bad code", id="bad-code",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c.upper()} {p} {n} {t}"]),
        CheckpointCorrupt, "bad code", id="uppercase-code",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c} {p} +0{n} {t}"]),
        CheckpointCorrupt, "bad code or count", id="signed-count",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c} {p} {n}_0 {t}"]),
        CheckpointCorrupt, "bad code or count", id="underscored-count",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c} {p} \u0663 {t}"]),
        CheckpointCorrupt, "bad code or count", id="non-ascii-digit-count",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c}\t{p} {n} {t}"]),
        CheckpointCorrupt, "malformed record line", id="tab-separated",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c} {p} {n} +{t}"]),
        CheckpointCorrupt, "bad placement token", id="signed-placement-token",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c} {p} {n} {t.replace(':', ':0', 1)}"]),
        CheckpointCorrupt, "bad placement token", id="zero-padded-placement-token",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c} even {n} {t}"]),
        CheckpointCorrupt, "parity does not match", id="parity-against-count",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c} {p} 5 {t}"]),
        CheckpointCorrupt, "count 5 in layer-3 file", id="count-in-another-layer",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c} {p} {n} 1:0;{t}"]),
        CheckpointCorrupt, "bad placement token", id="bad-placement-token",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c} {p} {n} {t.split(';')[0]}"]),
        CheckpointCorrupt, "witness length 1 for count 3", id="short-witness",
    ),
    pytest.param(
        _first_record(lambda c, p, n, t: [f"{c} {p} {n} {t}"] * 2),
        CheckpointCorrupt, "duplicate odd slot", id="duplicate-slot",
    ),
])
def test_checkpoint_refuses_damage(tmp_path, damage, error, match):
    d = str(tmp_path / "ck")
    fresh = build_ledger(3, SearchOptions(checkpoint_dir=d))
    damage(d)
    with pytest.raises(error, match=match):
        load_checkpoint(d)
    if os.path.exists(os.path.join(d, "manifest.json")):
        with pytest.raises(error, match=match):
            build_ledger(4, SearchOptions(checkpoint_dir=d))
    else:  # no manifest, no checkpoint: the run starts afresh
        resumed = build_ledger(3, SearchOptions(checkpoint_dir=d))
        assert resumed.records == fresh.records


def test_checkpoint_missing_layer_file(tmp_path):
    d = str(tmp_path / "ck")
    build_ledger(2, SearchOptions(checkpoint_dir=d))
    os.remove(os.path.join(d, "layer_002.records"))
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(d)


def test_checkpoint_detects_witness_tampering(tmp_path):
    d = str(tmp_path / "ck")
    build_ledger(2, SearchOptions(checkpoint_dir=d))
    path = os.path.join(d, "layer_002.records")
    with open(path) as fh:
        line = fh.read().strip()
    code_hex, parity, count, wit = line.split()
    other = "00" * (len(code_hex) // 2)
    with open(path, "w") as fh:
        fh.write(f"{other} {parity} {count} {wit}\n")
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(d)


def test_checkpoint_rejects_a_witness_that_does_not_decode(tmp_path):
    d = str(tmp_path / "ck")
    build_ledger(2, SearchOptions(checkpoint_dir=d))
    path = os.path.join(d, "layer_002.records")
    with open(path) as fh:
        code_hex, parity, count, _ = fh.read().split()
    with open(path, "w") as fh:
        fh.write(f"{code_hex} {parity} {count} 1:0:99\n")
    with pytest.raises(CheckpointCorrupt, match=code_hex):
        load_checkpoint(d)


def test_checkpoint_without_the_start_state_is_refused(tmp_path):
    # a ledger with no start record expands nothing: resumed, it would
    # call a 2-hex target out of reach
    import json

    d = str(tmp_path / "ck")
    ledger = build_ledger(2, SearchOptions(checkpoint_dir=d))
    two = next(c for c, rec in ledger.records.items() if rec.slot("even") == 2)
    manifest_path = os.path.join(d, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    with open(manifest_path, "w") as fh:
        json.dump(dict(manifest, layer=0, files=[]), fh)
    with pytest.raises(CheckpointCorrupt):
        load_checkpoint(d)
    with pytest.raises(CheckpointCorrupt):
        search_min_packing(two, 3, SearchOptions(checkpoint_dir=d))

    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    load_checkpoint(d)
    open(os.path.join(d, "layer_001.records"), "w").close()
    with pytest.raises(CheckpointCorrupt, match="start state"):
        load_checkpoint(d)


def test_checkpoint_deeper_than_the_budget_answers_as_a_fresh_run(tmp_path):
    d = str(tmp_path / "ck")
    ledger = build_ledger(5, SearchOptions(checkpoint_dir=d))
    five = next(c for c, rec in sorted(ledger.records.items()) if rec.best()[0] == 5)
    resumed = search_min_packing(five, 3, SearchOptions(checkpoint_dir=d))
    fresh = search_min_packing(five, 3)
    assert (fresh.found, fresh.count, fresh.exhausted) == (False, None, True)
    assert (resumed.found, resumed.count, resumed.exhausted) == (False, None, True)

    # without sphere mode two states reach both parities within 4 hexes
    torus = str(tmp_path / "torus")
    build_ledger(4, SearchOptions(sphere_mode=False, checkpoint_dir=torus))
    for budget in (3, 4):
        resumed = find_templates(
            budget, SearchOptions(sphere_mode=False, checkpoint_dir=torus)
        )
        assert resumed == find_templates(budget, SearchOptions(sphere_mode=False))
    assert len(resumed) == 2

    # the ledger itself is the fresh run's: the same layer and records,
    # slot for slot and witness for witness; the checkpoint keeps its
    # deeper layers
    for directory, depth, sphere_mode in ((d, 5, True), (torus, 4, False)):
        for budget in range(1, depth):
            resumed = build_ledger(
                budget,
                SearchOptions(sphere_mode=sphere_mode, checkpoint_dir=directory),
            )
            fresh = build_ledger(budget, SearchOptions(sphere_mode=sphere_mode))
            assert resumed.layer == fresh.layer == budget
            assert resumed.records == fresh.records
        assert load_checkpoint(directory).layer == depth


# Grow orders of the bundled meshes as the whole-complex move check found
# them; the local check must pick the same order and witness.
PINNED_GROW_ORDERS = (
    (
        (0, 1, 2, 8, 9, 10, 13, 3, 4, 5, 7, 6, 11, 12, 14, 15, 18, 19, 17, 20,
         22, 24, 25, 26, 27, 16, 21, 23, 28, 29, 30, 31, 32, 33, 35, 34),
        "ae07a09a7ca16ca521d20f55360364e4d3f82a0cd3059a47a083b9954ed5a34d",
    ),
    (
        (0, 1, 2, 4, 3) + tuple(range(5, 17)),
        "4bc0ec7848a8122e7dd4305518e79d71888b6c7cd3555701f98a3c0a89748b29",
    ),
    (
        (0, 1, 2, 4, 3) + tuple(range(5, 18)),
        "b5457ffdfc9a8cfe2aa04dabbba3acd359a4a6f5f314dfef5406d917603374ee",
    ),
)


def test_grow_order_on_bundled_meshes(pyramid, odd17, even18):
    for c, (order, witness_sha) in zip(
        (pyramid[0], odd17, even18), PINNED_GROW_ORDERS
    ):
        res = find_grow_order(c)
        assert res.found
        assert res.order == order
        assert res.nodes == len(c.hexes)  # no backtracking
        tokens = ";".join(pl.token() for pl in res.witness)
        assert hashlib.sha256(tokens.encode()).hexdigest() == witness_sha
        packing = replay_witness(res.witness)
        assert len(packing.hexes) == len(c.hexes)
        assert canonical_code(extract_boundary(packing)) == canonical_code(
            extract_boundary(c)
        )


# Grow orders under configs 1, 2 and 4 that are found only after the
# search backs out of a dead end and rebuilds a prefix's state.  In the
# second, the order found goes on from a rebuilt prefix of turned hexes.
BACKTRACKING_GROW_ORDERS = (
    (
        [(1, 0, 0), (0, 1, 0), (0, 0, 0), (-1, 0, 0), (3, 0, 0),
         (1, 1, 0), (1, -1, 0), (2, 0, 0), (0, -1, 0)],
        (0, 5, 1, 6, 7, 4, 8, 2, 3),
        145,
        "633b37ee2055139a8896fa44995cf9c7574b8bd8ede76b4f38d64f785e88d736",
    ),
    (
        [(0, 0, -1), (0, -2, -1), (0, -1, -1), (0, 0, 1), (0, -1, 0),
         (0, -2, 0), (0, 0, 0)],
        (0, 2, 1, 5, 6, 4, 3),
        8,
        "bcdabb5e46976e1abbd92b9df07cb45fe53d4b576f50b0ae044e134aa24a58e0",
    ),
)


@pytest.mark.parametrize(
    "cells, order, nodes, witness_sha",
    BACKTRACKING_GROW_ORDERS,
    ids=("nine-cells", "seven-cells"),
)
def test_grow_order_found_after_backtracking(cells, order, nodes, witness_sha):
    c, _ = grid_complex(cells)
    res = find_grow_order(c, SearchOptions(allowed_configs=(1, 2, 4)))
    assert res.found
    assert res.order == order
    assert res.nodes == nodes
    tokens = ";".join(pl.token() for pl in res.witness)
    assert hashlib.sha256(tokens.encode()).hexdigest() == witness_sha
    packing = replay_witness(res.witness)
    assert canonical_code(extract_boundary(packing)) == canonical_code(
        extract_boundary(c)
    )


def test_grow_order_respects_sphere_mode():
    # a ring of eight cells around a hole is a solid torus: every build
    # order must close the ring, which sphere mode forbids
    cells = [
        (x, y, 0)
        for x in range(3)
        for y in range(3)
        if (x, y) != (1, 1)
    ]
    ring, _ = grid_complex(cells)
    res = find_grow_order(ring)
    assert not res.found
    assert res.reason
    allowed = find_grow_order(ring, SearchOptions(sphere_mode=False))
    assert allowed.found
    packing = replay_witness(allowed.witness)
    assert canonical_code(extract_boundary(packing)) == canonical_code(
        extract_boundary(ring)
    )


def test_grow_order_respects_config_restrictions(odd17, pyramid):
    # single-face gluing alone cannot rebuild a mesh that needs wrapping.
    # Every interior face is glued once, by one of n - 1 glues, so too
    # many interior faces (34 against 16 or 32; 100 against 35) refuse
    # before any backtracking.  No allowed config at all is refused by
    # SearchOptions itself.
    for c, configs in (
        (odd17, (1,)),
        (odd17, (1, 2)),
        (pyramid[0], (1,)),
    ):
        res = find_grow_order(c, SearchOptions(allowed_configs=configs))
        assert not res.found
        assert res.nodes == 0, configs


def reference_find_grow_order(c, options=None):
    """Find an order of c's hexes that is a legal move sequence.

    A complex whose interior face count no n - 1 allowed glues can
    cover is refused at once, with nodes 0.  Otherwise this backtracks
    over prefixes, memoizing failed hex sets.  A hex's glued faces are
    those across which c holds a hex of the prefix.  Each hex is turned
    to its config's representative and takes the move pipeline, as a
    move does: each face component is seeded on the quad its first face
    runs along, and _realize glues it with c's vertex ids and yields its
    placement, so the prefix's boundary keeps the quad order a replay of
    the witness has.  The finished witness is replayed once and must
    rebuild c hex for hex.  Returns GrowOrderResult with found=False and
    a reason when no order exists under the configured move rules.

    The recursive definition find_grow_order was first written as, with
    its whole-prefix scan for candidates at every node; the iterative
    search on glued-face masks must return the same results.
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

    # across[h][f]: the hex on the other side of face f of hex h; a face
    # of a conforming complex belongs to at most two hexes
    across = [[None] * 6 for _ in range(n)]
    for inc in c.face_index.values():
        if len(inc) == 2:
            (h1, f1), (h2, f2) = inc
            across[h1][f1], across[h2][f2] = h2, h1
    failed = set()
    nodes = 0
    # (complex, boundary pattern) of the prefix being extended, or
    # (None, None) when it is to be built from placed
    state = None
    placed = []  # the prefix's hexes, turned as they were glued
    witness = []  # the prefix's placements

    def extend(prefix, chosen):
        nonlocal nodes, state
        nodes += 1
        if len(prefix) == n:
            return prefix
        if chosen in failed:
            return None
        sub, pattern = state
        cands = []
        for h in range(n):
            if h in chosen:
                continue
            glued = tuple(f for f in range(6) if across[h][f] in chosen)
            if 1 <= len(glued) <= 5:
                cands.append((-len(glued), h, glued))
        for _, h, glued in sorted(cands):
            cfg, sigma = config_for_subset(glued)
            if cfg.id not in allowed:
                continue
            if sub is None:  # a new or backtracked prefix: build its state
                sub = HexComplex(c.vertex_count, tuple(placed))
                pattern = extract_boundary(sub)
            corners = tuple(c.hexes[h][s] for s in sigma)
            # a glued face runs along its quad in the same direction, so
            # the first edge of each component's first face finds its
            # quad and seed rotation
            seeds = []
            for f0, *_ in config_components(cfg):
                a, b = HEX_FACES[f0][:2]
                seeds.append((f0, *pattern.directed_edges[corners[a], corners[b]]))
            move = _realize(
                sub, pattern, cfg, seeds,
                sphere_mode=options.sphere_mode, ids=corners,
            )
            if move is None:
                continue
            state = (sub.glued(move.new_hex), move.pattern)
            placed.append(corners)
            witness.append(move.placement)
            # hold no prefix state while deeper levels run, or memory
            # grows with the square of the hex count
            sub = pattern = move = None
            res = extend(prefix + (h,), chosen | {h})
            if res is not None:
                return res
            placed.pop()
            witness.pop()
        failed.add(chosen)
        return None

    order = None
    for h0 in range(n):
        placed[:] = [c.hexes[h0]]
        state = (None, None)
        order = extend((h0,), frozenset((h0,)))
        if order is not None:
            break
    if order is None:
        return GrowOrderResult(False, None, None, nodes, _NO_ORDER)
    witness = tuple(witness)
    try:
        rebuilt = _replay(witness)[0].hexes
    except InvalidPlacement as err:
        raise AssertionError(f"grow order witness does not decode: {err}") from None
    pairs = {(u, v) for ph, rh in zip(placed, rebuilt) for u, v in zip(ph, rh)}
    if len(dict(pairs)) != len(pairs) or len({v for _, v in pairs}) != len(pairs):
        raise AssertionError("grow order witness does not rebuild the complex")
    return GrowOrderResult(True, order, witness, nodes)


def relabelled(c, rnd):
    perm = list(range(c.vertex_count))
    rnd.shuffle(perm)
    return build_complex([tuple(perm[v] for v in h) for h in c.hexes], c.vertex_count)


def random_lattice_complexes(rnd, count):
    """count face-connected lattice complexes of 1 to 9 cells, relabelled;
    cell sets whose boundary is not a closed surface are skipped."""
    out = []
    steps = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    while len(out) < count:
        cells = [(0, 0, 0)]
        size = rnd.randint(1, 9)
        while len(cells) < size:
            cell = tuple(map(sum, zip(rnd.choice(cells), rnd.choice(steps))))
            if cell not in cells:
                cells.append(cell)
        try:
            c, _ = grid_complex(cells)
        except HexpackError:
            continue
        out.append(relabelled(c, rnd))
    return out


def grow_order_fields(res):
    tokens = None if res.witness is None else [pl.token() for pl in res.witness]
    return res.found, res.order, res.nodes, res.reason, tokens


def test_grow_orders_match_the_recursive_reference(pyramid, odd17, even18):
    rnd = random.Random(20)
    cases = [
        (relabelled(c, rnd), SearchOptions())
        for m in (pyramid[0], odd17, even18)
        for c in (m, subdivide_hex(m))
    ]
    for c in random_lattice_complexes(rnd, 60):
        cases.extend((c, options) for options in (
            SearchOptions(),
            SearchOptions(sphere_mode=False),
            SearchOptions(allowed_configs=(1, 2, 4)),
            SearchOptions(allowed_configs=(1, 2)),
        ))
    found = backtracked = 0
    for c, options in cases:
        got = grow_order_fields(find_grow_order(c, options))
        assert got == grow_order_fields(reference_find_grow_order(c, options))
        found += got[0]
        backtracked += got[0] and got[2] > len(c.hexes)
    assert found > len(cases) // 2 and backtracked > 0


def test_grow_order_needs_no_recursion(odd17):
    c = subdivide_hex(odd17)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(c.hexes) - 36)  # 100 frames
    try:
        res = find_grow_order(c)
    finally:
        sys.setrecursionlimit(limit)
    assert res.found and len(res.order) == len(c.hexes) == res.nodes


def test_verify_template_on_bundled_pair(odd17, even18):
    report = verify_template(odd17, even18)
    assert report.report_a.ok and report.report_b.ok
    assert report.codes_equal
    assert report.count_a == 17 and report.count_b == 18
    assert report.parity_a == "odd" and report.parity_b == "even"
    assert report.parity_changing


def test_verify_template_negative(pyramid, odd17):
    report = verify_template(pyramid[0], odd17)
    assert not report.codes_equal
    assert not report.parity_changing


def test_verify_template_same_parity(pyramid):
    report = verify_template(pyramid[0], pyramid[0])
    assert report.codes_equal
    assert not report.parity_changing  # equal parities


def test_find_templates_empty_at_small_budget():
    assert find_templates(3) == ()


def test_find_templates_refuses_a_hit_that_does_not_replay(monkeypatch):
    # no parity pair exists within 6 hexes, so forge one: the cube's
    # record with an even witness that builds another boundary
    import hexpack.search as search

    ledger = build_ledger(2)
    two = next(rec for rec in ledger.records.values() if rec.slot("even") == 2)
    cube = canonical_code(cube_pattern())
    ledger.records = {
        cube: PatternRecord(cube, (), two.witness_even),
    }
    monkeypatch.setattr(search, "build_ledger", lambda *args: ledger)
    with pytest.raises(AssertionError, match="does not replay to its code"):
        find_templates(2)


def test_stats_are_consistent():
    ledger = build_ledger(3)
    assert ledger.stats.states_expanded == 2  # one expansion per layer 1, 2
    assert ledger.stats.moves_valid <= ledger.stats.moves_tried
    assert ledger.stats.moves_valid > 0


@pytest.mark.parametrize("options, depth", [
    pytest.param(SearchOptions(), 5, id="sphere"),
    pytest.param(
        SearchOptions(sphere_mode=False, reflection_invariant=False), 4,
        id="non-sphere-plain",
    ),
])
def test_each_slot_keeps_its_smallest_predecessor_and_placement(options, depth):
    # the reference merge: sort every (successor, predecessor, placement)
    # a layer proposes and keep the first per successor slot the layer fills
    ledger = build_ledger(depth, options)
    want = {}
    for n in range(1, depth):
        parity, proposals = parity_word(n), []
        for code, rec in ledger.records.items():
            if rec.slot(parity) != n:
                continue
            for m in enumerate_moves(
                replay_witness(rec.witness(parity)),
                sphere_mode=options.sphere_mode,
                memo=CodeMemo(options.reflection_invariant),
            ):
                witness = rec.witness(parity) + (m.placement,)
                proposals.append((m.code, code, m.placement, witness))
        for succ, _, _, witness in sorted(proposals, key=lambda t: t[:3]):
            if ledger.records[succ].slot(parity_word(n + 1)) == n + 1:
                want.setdefault((succ, n + 1), witness)
    got = {
        (code, rec.slot(p)): rec.witness(p)
        for code, rec in ledger.records.items()
        for p in ("odd", "even")
        if rec.slot(p) not in (None, 1)
    }
    assert got == want


def test_census_counts_of_build_ledger_6():
    # enumerate_moves realizes only seedings that propagate, are the
    # smallest of their orbit and glue no two faces onto one old hex
    stats = build_ledger(6).stats
    assert stats.as_dict() == {
        "states_expanded": 84,
        "moves_tried": 3049,
        "moves_valid": 1748,
        "pruned": 0,
        "codes_computed": 2997,
        "rejected_propagate": 0,
        "rejected_orbit": 0,
        "rejected_identification": 24,
        "rejected_euler": 0,
        "rejected_conformity": 28,
    }
    rejected = [getattr(stats, "rejected_" + r) for r in REJECT_REASONS]
    assert stats.moves_tried == stats.codes_computed + sum(rejected)


def test_every_candidate_is_rejected_for_a_reason_or_coded(tmp_path):
    d = str(tmp_path / "ck")
    stats = build_ledger(4, SearchOptions(checkpoint_dir=d)).stats
    rejected = [getattr(stats, "rejected_" + r) for r in REJECT_REASONS]
    assert stats.moves_tried == stats.codes_computed + sum(rejected)
    assert stats.codes_computed >= stats.moves_valid > 0
    assert load_checkpoint(d).stats == stats


def test_grow_order_rejects_unbuildable_input():
    res = find_grow_order(build_complex([], 0))
    assert not res.found
