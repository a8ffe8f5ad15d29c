"""Inflation on a shared -log|z - zeta| field, pinned by golden digests.

`disc.inflate` evaluates j^{1/2} w(L/j) on the field L = -log|z - zeta| of
`disc._log_distance`; at the origin that field is one ring column.  The
golden file holds the sha256 of the ring and center bytes of inflations and
of superposition members, recorded with the code before the field was
shared: every byte must be unchanged.  Regenerate it (only for a deliberate
behaviour change, named in CHANGES.md) with

    PYTHONPATH=src:tests python tests/test_inflate_geometry.py > tests/golden/inflate.json
"""

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, profiles, seqgen
from conftest import smooth_plateau_profile

GOLDEN = Path(__file__).parent / "golden" / "inflate.json"
GRIDS = {
    "48x64": disc.PolarGrid(n_r=48, n_theta=64, s_max=4.5),
    "40x96": disc.PolarGrid(n_r=40, n_theta=96, s_max=6.0),
}
ZETAS = {"0": 0j, "0.15+0.06i": 0.15 + 0.06j, "-0.2": -0.2 + 0j, "0.3i": 0.3j}
JS = (1, 2, 5)


def _sha(members) -> str:
    h = hashlib.sha256()
    for u in members:
        h.update(u.rings.tobytes())
        h.update(struct.pack("<dd", u.center, u.support_radius))
    return h.hexdigest()


def _inflations():
    """{key: (profile, d, grid, order)} of every golden inflation."""
    w = smooth_plateau_profile(0.69, 1.0)
    cases = {}
    for gname, grid in GRIDS.items():
        for zname, zeta in ZETAS.items():
            for j in JS:
                for order in (1, 4) if zeta == 0 else (1,):
                    key = f"inflate/{gname}/zeta={zname}/j={j}/order={order}"
                    cases[key] = (w, disc.DislocationParam(j, zeta), grid, order)
    return cases


def _superpositions():
    """{key: (terms, noise energy, seed, grid)} of every golden superposition."""
    w = smooth_plateau_profile(0.69, 1.0)
    one = [profiles.ProfileTerm(w, [1, 2, 2, 3, 3, 3], [0.15 + 0.06j] * 6)]
    two = [profiles.ProfileTerm(w, [1, 2, 2, 2, 3, 3], [z] * 6) for z in (0.2, -0.2)]
    return {
        "superposition/one-term-repeated-j+noise": (one, 0.01, 3, GRIDS["48x64"]),
        "superposition/two-terms-plus-minus-0.2": (two, 0.01, 11, GRIDS["40x96"]),
    }


def _digests() -> dict:
    out = {key: _sha([disc.inflate(w, d, grid, order)])
           for key, (w, d, grid, order) in _inflations().items()}
    for key, (terms, noise, seed, grid) in _superpositions().items():
        seq, _ = seqgen.synthetic_superposition(terms, noise, seed, grid)
        out[key] = _sha(seq.members)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_case(golden):
    assert set(golden) == set(_inflations()) | set(_superpositions())


@pytest.mark.parametrize("key", sorted(_inflations()))
def test_inflate_bytes_match_golden(golden, key):
    w, d, grid, order = _inflations()[key]
    assert _sha([disc.inflate(w, d, grid, order)]) == golden[key]


@pytest.mark.parametrize("key", sorted(_superpositions()))
def test_superposition_members_match_golden(golden, key):
    terms, noise, seed, grid = _superpositions()[key]
    seq, _ = seqgen.synthetic_superposition(terms, noise, seed, grid)
    assert _sha(seq.members) == golden[key]


# -- the origin: one ring column ------------------------------------------------------

def _full_field(grid, zeta):
    """-log|z - zeta| on every column: the expression of `_log_distance` unsliced."""
    radii = disc._ring_radii(grid)[:, None]
    thetas = disc._thetas(grid)
    zx, zy = zeta.real, zeta.imag
    d2 = radii ** 2 + (zx * zx + zy * zy) - 2.0 * radii * (zx * np.cos(thetas) + zy * np.sin(thetas))
    with np.errstate(divide="ignore"):
        return -np.log(np.sqrt(np.maximum(d2, 0.0)))


@settings(max_examples=40, deadline=None)
@given(
    n_r=st.integers(16, 80),
    n_theta=st.sampled_from([32, 48, 64, 96, 120]),
    s_max=st.floats(1.0, 9.0),
    j=st.integers(1, 12),
    order=st.sampled_from([1, 2, 4, 8]),
    t_start=st.floats(0.05, 2.0),
)
def test_origin_column_equals_the_full_grid_expression(n_r, n_theta, s_max, j, order, t_start):
    grid = disc.PolarGrid(n_r=n_r, n_theta=n_theta, s_max=s_max)
    w = smooth_plateau_profile(t_start, 1.0)
    d = disc.DislocationParam(j, 0.0)
    column = disc._log_distance(grid, 0j, order)
    assert column.shape == (n_r, 1)
    full = _full_field(grid, 0j)
    assert np.array_equal(np.repeat(column, n_theta, axis=1), full)
    u1 = disc.inflate(w, d, grid)
    expected = np.sqrt(j) * w.value_at(full / j)
    expected[-1] = 0.0
    assert u1.rings.tobytes() == expected.tobytes()
    # an order-k block is the first n_theta/k columns of the order-1 result
    uk = disc.inflate(w, d, grid, order)
    assert uk.order == order and uk.center == u1.center
    assert uk.rings.tobytes() == np.ascontiguousarray(u1.rings[:, : n_theta // order]).tobytes()


def test_off_origin_field_is_the_full_grid_expression():
    for grid in GRIDS.values():
        for zeta in ZETAS.values():
            if zeta != 0:
                assert np.array_equal(disc._log_distance(grid, zeta), _full_field(grid, zeta))


if __name__ == "__main__":
    print(json.dumps(_digests(), indent=1, sort_keys=True))
