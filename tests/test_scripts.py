"""Smoke tests of the scripts in scripts/, loaded by path and run in process."""

import importlib.util
import os
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pattern_census_prints_the_layers(tmp_path, capsys):
    census = load_script("pattern_census")

    def printed(*argv):
        assert census.main(["--max-hexes", "3", *argv]) == 0
        # all but the run time that ends the last line
        return capsys.readouterr().out.rsplit(",", 1)[0]

    out = printed()
    assert "layer  new patterns" in out
    assert "parity pairs within 3 hexes: 0" in out
    assert out.endswith("total 5 patterns")
    # a deeper checkpoint prints the fresh census of the budget
    census.main(["--max-hexes", "5", "--checkpoint", str(tmp_path / "ck")])
    assert "total 84 patterns" in capsys.readouterr().out
    assert printed("--checkpoint", str(tmp_path / "ck")) == out


def test_pattern_census_lists_tied_parity_pairs_in_code_order(monkeypatch, capsys):
    # no parity pair exists within 6 hexes, so forge three on real codes
    # of distinct quad counts; a resumed ledger keeps its layer files'
    # record order, so the listing must not follow the insertion order
    from hexpack.moves import Placement
    from hexpack.search import PatternRecord, SearchLedger, SearchOptions, build_ledger

    census = load_script("pattern_census")
    by_quads = {rec.quad_count: code for code, rec in build_ledger(3).records.items()}
    codes = sorted(by_quads.values())[:3]
    slots = {codes[0]: (5, 6), codes[1]: (3, 6), codes[2]: (5, 6)}
    quads = [PatternRecord(code).quad_count for code in codes]
    want = [
        f"  quads {quads[1]}: odd at 3 hexes, even at 6 hexes",
        f"  quads {quads[0]}: odd at 5 hexes, even at 6 hexes",
        f"  quads {quads[2]}: odd at 5 hexes, even at 6 hexes",
    ]
    # a slot's count is its witness length plus one; the census replays none
    pl = Placement(1, (0,), 0)
    for order in ((2, 0, 1), (1, 2, 0)):
        records = {
            codes[i]: PatternRecord(codes[i], *((pl,) * (n - 1) for n in slots[codes[i]]))
            for i in order
        }
        ledger = SearchLedger(records=records, layer=6, options=SearchOptions())
        monkeypatch.setattr(census, "build_ledger", lambda *args: ledger)
        assert census.main(["--max-hexes", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("parity pairs within 6 hexes: 3") + 1
        assert lines[start:start + 3] == want


def test_run_pyramid_search_exhausts_a_small_budget(tmp_path, capsys):
    witness, mesh = tmp_path / "p.witness", tmp_path / "p.hexmesh"
    rc = load_script("run_pyramid_search").main([
        "--max-hexes", "3",
        "--checkpoint", str(tmp_path / "ck"),
        "--out", str(witness),
        "--mesh-out", str(mesh),
    ])
    out = capsys.readouterr().out
    assert rc == 3
    assert "exhausted: no packing within 3 hexes" in out
    assert os.path.exists(tmp_path / "ck" / "manifest.json")
    assert not witness.exists() and not mesh.exists()


@pytest.mark.parametrize("bad", [
    pytest.param(["--configs", "9"], id="9"),
    pytest.param(["--configs", "x"], id="x"),
    pytest.param(["--max-hexes", "0"], id="max-hexes-0"),
])
@pytest.mark.parametrize("script", ["run_pyramid_search", "pattern_census"])
def test_run_pyramid_search_rejects_bad_configs(tmp_path, capsys, script, bad):
    with pytest.raises(SystemExit) as err:
        load_script(script).main([
            "--max-hexes", "3",
            *bad,
            "--checkpoint", str(tmp_path / "ck"),
        ])
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "ck").exists()
