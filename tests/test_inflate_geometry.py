"""Inflation on a shared -log|z - zeta| field, checked against the full grid.

`disc.inflate` evaluates j^{1/2} w(L/j) on the field L = -log|z - zeta| of
`disc._log_distance`, built in blocks of rings short of the boundary ring;
at the origin that field is one ring column.  Each
check builds the same expression on every node of the grid, in the test,
and compares the rings and the center bit for bit, in the same process.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc
from conftest import smooth_plateau_profile

GRIDS = {
    "48x64": disc.PolarGrid(n_r=48, n_theta=64, s_max=4.5),
    "40x96": disc.PolarGrid(n_r=40, n_theta=96, s_max=6.0),
}
ZETAS = {"0": 0j, "0.15+0.06i": 0.15 + 0.06j, "-0.2": -0.2 + 0j, "0.3i": 0.3j}
JS = (1, 2, 5)


def _full_field(grid, zeta):
    """-log|z - zeta| on every column: the expression of `_log_distance` unsliced."""
    radii = disc._ring_radii(grid)[:, None]
    thetas = disc._thetas(grid)
    zx, zy = zeta.real, zeta.imag
    d2 = radii ** 2 + (zx * zx + zy * zy) - 2.0 * radii * (zx * np.cos(thetas) + zy * np.sin(thetas))
    with np.errstate(divide="ignore"):
        return -np.log(np.sqrt(np.maximum(d2, 0.0)))


def _blocks(grid, zeta):
    """The field of `_log_distance`, rings 0 .. n_r - 2, gathered from its blocks."""
    return np.concatenate([field.copy() for _, _, field in disc._log_distance(grid, zeta)])


# -- the origin: one ring column ------------------------------------------------------

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
    column = _blocks(grid, 0j)
    assert column.shape == (n_r - 1, 1)
    full = _full_field(grid, 0j)
    assert np.array_equal(np.repeat(column, n_theta, axis=1), full[:-1])
    u1 = disc.inflate(w, d, grid)
    expected = np.sqrt(j) * w.value_at(full / j)
    expected[-1] = 0.0
    assert u1.rings.tobytes() == expected.tobytes()
    # an order-k block is the first n_theta/k columns of the order-1 result
    uk = disc.inflate(w, d, grid, order)
    assert uk.order == order and uk.center == u1.center
    assert uk.rings.tobytes() == np.ascontiguousarray(u1.rings[:, : n_theta // order]).tobytes()


def test_off_origin_field_is_the_full_grid_expression():
    w = smooth_plateau_profile(0.69, 1.0)
    for grid in GRIDS.values():
        for zeta in ZETAS.values():
            full = _full_field(grid, zeta)
            if zeta != 0:
                assert np.array_equal(_blocks(grid, zeta), full[:-1])
            # the inflation: rings, center and support, as j^{1/2} w(-log|z - zeta| / j)
            for j in JS:
                u = disc.inflate(w, disc.DislocationParam(j, zeta), grid)
                rings = math.sqrt(j) * w.value_at(full / j)
                rings[-1] = 0.0
                assert u.rings.tobytes() == rings.tobytes()
                t_c = math.inf if zeta == 0 else -math.log(abs(zeta)) / j
                assert u.center == math.sqrt(j) * float(w.value_at(t_c))
                R_inf = math.exp(-w.support_log_radius()) ** j
                assert u.support_radius == min(1.0, abs(zeta) + R_inf)
