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


def test_pattern_census_prints_the_layers(capsys):
    rc = load_script("pattern_census").main(["--max-hexes", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "layer  new patterns" in out
    assert "parity pairs within 3 hexes: 0" in out


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


@pytest.mark.parametrize("configs", ["9", "x"])
@pytest.mark.parametrize("script", ["run_pyramid_search", "pattern_census"])
def test_run_pyramid_search_rejects_bad_configs(tmp_path, script, configs):
    with pytest.raises(SystemExit) as err:
        load_script(script).main([
            "--max-hexes", "3",
            "--configs", configs,
            "--checkpoint", str(tmp_path / "ck"),
        ])
    assert err.value.code == 2
    assert not (tmp_path / "ck").exists()
