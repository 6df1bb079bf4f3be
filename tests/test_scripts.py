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
