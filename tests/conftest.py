import numpy as np
import pytest

from hexpack.fixtures import parity_even18, parity_odd17, pyramid36
from hexpack.hexmodel import build_complex, extract_boundary
from hexpack.moves import _realize, _seed_choices, config_components, glue_configs

UNIT_CUBE_COORDS = np.array(
    [
        (0, 0, 0),
        (1, 0, 0),
        (1, 1, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 0, 1),
        (1, 1, 1),
        (0, 1, 1),
    ],
    dtype=float,
)


@pytest.fixture
def cube():
    return build_complex([(0, 1, 2, 3, 4, 5, 6, 7)], 8)


@pytest.fixture
def cube_coords():
    return UNIT_CUBE_COORDS.copy()


@pytest.fixture(scope="session")
def pyramid():
    return pyramid36()


@pytest.fixture(scope="session")
def odd17():
    return parity_odd17()


@pytest.fixture(scope="session")
def even18():
    return parity_even18()


def grid_complex(cells):
    """Build a complex from unit lattice cells given as (x, y, z) triples.

    Shared lattice corners get shared vertex ids, so face-adjacent cells
    conform by construction.  Returns (complex, coords array).
    """
    ids = {}
    hexes = []
    from hexpack.hexmodel import REF_CORNERS

    for cell in cells:
        corners = []
        for ref in REF_CORNERS:
            p = tuple(c + r for c, r in zip(cell, ref))
            corners.append(ids.setdefault(p, len(ids)))
        hexes.append(tuple(corners))
    coords = np.array(
        [p for p, _ in sorted(ids.items(), key=lambda kv: kv[1])], dtype=float
    )
    return build_complex(hexes, len(ids)), coords


def seedings(pattern, sphere_mode):
    """Every (config, seeds) enumerate_moves tries on pattern."""
    for cfg in glue_configs():
        if sphere_mode and len(config_components(cfg)) > 1:
            continue  # enumerate_moves never tries these in sphere mode
        for seeds in _seed_choices(cfg, len(pattern.quads)):
            yield cfg, seeds


def all_moves(packing, pattern=None, *, sphere_mode=True, counters=None):
    """Every legal placement on packing, uncoded, sorted by placement: the
    full product that enumerate_moves keeps one placement per successor
    code of.  counters counts as enumerate_moves' does, less "codes".
    """
    if pattern is None:
        pattern = extract_boundary(packing)
    out = []
    for cfg, seeds in seedings(pattern, sphere_mode):
        if counters is not None:
            counters["tried"] = counters.get("tried", 0) + 1
        cand = _realize(
            packing, pattern, cfg, seeds,
            sphere_mode=sphere_mode, counters=counters,
        )
        if cand is not None:
            out.append(cand)
    return sorted(out, key=lambda m: m.placement)
