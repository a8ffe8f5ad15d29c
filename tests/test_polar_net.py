"""The polar-net sampler against the sampling code it replaced, plus properties.

Deflation, the angular profile and the ball means each used to build and
interpolate their own polar net zeta + rho e^{i phi}; now all of them sample
through one polar-net sampler.  The references are the previous code, kept
verbatim: `deflate`, `angular_profile_around` and `average` below, the ball
means and detector scans in conftest.  The same points are evaluated with the
same arithmetic, so every sample and ball mean is bit-equal; only the refine
and scale-scan scores, whose j^{-1/2} is now the detector's product with
1/sqrt(j), may move, by at most one ulp.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moserlab import disc
from moserlab.radial import RadialProfile
from conftest import old_average_many, old_ball_offsets, old_interpolate, old_scan_scales
from test_placement import old_concentration_detect


# -- references: the replaced code -----------------------------------------------

def old_deflate(u, d):
    j, zeta = d.j, d.zeta
    grid = u.grid
    out_grid = disc.PolarGrid(
        n_r=grid.n_r,
        n_theta=grid.n_theta * j,
        s_max=grid.s_max / j,
    )
    sigma = disc._ring_s(out_grid) * j
    phis = disc._thetas(grid)
    pts = zeta + np.exp(-sigma)[:, None] * np.exp(1j * phis)[None, :]
    block = old_interpolate(u, pts.ravel()).reshape(grid.n_r, grid.n_theta)
    block = block / math.sqrt(j)
    block[-1, :] = 0.0
    center = float(old_interpolate(u, zeta)) / math.sqrt(j)
    sup = min(1.0, (min(1.0, u.support_radius + abs(zeta))) ** (1.0 / j))
    return disc.DiscFunction._owned(out_grid, center, block, support_radius=sup, order=j)


def old_angular_profile_around(u, zeta, n_phi=None):
    grid = u.grid
    n_phi = grid.n_theta if n_phi is None else min(n_phi, grid.n_theta)
    s_in = grid.s_max
    sigma = s_in * (grid.n_r - 1 - np.arange(grid.n_r)) / (grid.n_r - 1)
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    pts = zeta + np.exp(-sigma)[:, None] * np.exp(1j * phis)[None, :]
    vals = old_interpolate(u, pts.ravel()).reshape(grid.n_r, n_phi).mean(axis=1)
    nodes = sigma[::-1].copy()
    out = vals[::-1].copy()
    out[0] = 0.0
    return RadialProfile.from_arrays(nodes, out, 2)


def old_local_cell_scale(grid, r):
    radii = disc._ring_radii(grid)
    if r < radii[0]:
        return float(radii[0])
    dr = r * grid.s_max / (grid.n_r - 1)
    return min(dr, max(r, radii[0]) * grid.dtheta)


def old_average(u, radius, z, strict=True):
    if radius <= 0:
        raise ValueError("averaging radius must be positive")
    if strict and radius < 0.5 * old_local_cell_scale(u.grid, abs(z)):
        raise disc.GridResolutionError(
            f"ball of radius {radius:.3g} at {z} is below grid resolution; "
            "a finer grid is required"
        )
    offsets, weights = old_ball_offsets(radius)
    vals = old_interpolate(u, z + offsets)
    return float(np.dot(weights, np.asarray(vals).ravel()))


# -- inputs ------------------------------------------------------------------------

@st.composite
def grids(draw):
    return disc.PolarGrid(
        n_r=draw(st.integers(16, 72)),
        n_theta=draw(st.sampled_from([32, 48, 64, 96])),
        s_max=draw(st.floats(2.0, 9.0)),
    )


def points(max_radius: float):
    return st.builds(
        lambda r, a: complex(r * math.cos(a), r * math.sin(a)),
        st.floats(0.0, max_radius), st.floats(0.0, 2.0 * math.pi),
    )


seeds = st.integers(0, 2**32 - 1)


def rough_disc(grid, seed: int, order: int = 1) -> disc.DiscFunction:
    """Rough zero-trace samples, one block of a function of the given order."""
    rng = np.random.default_rng(seed)
    rings = rng.normal(size=(grid.n_r, grid.n_theta // order))
    rings[-1] = 0.0
    return disc.DiscFunction(grid, float(rng.normal()), rings, order=order)


def same_disc(a, b) -> bool:
    return (
        a.grid == b.grid and a.order == b.order and a.center == b.center
        and a.support_radius == b.support_radius and np.array_equal(a.rings, b.rings)
    )


# -- bit-equality with the replaced code ----------------------------------------------

@settings(max_examples=40, deadline=None)
@given(grids(), seeds, points(0.95), st.sampled_from([1, 2, 3, 8]), st.sampled_from([1, 2]))
def test_deflate_is_bit_equal(grid, seed, zeta, j, order):
    u = rough_disc(grid, seed, order)
    d = disc.DislocationParam(j, zeta)
    assert same_disc(disc.deflate(u, d), old_deflate(u, d))


@settings(max_examples=40, deadline=None)
@given(grids(), seeds, points(0.95), st.sampled_from([None, 16, 64]))
def test_angular_profile_is_bit_equal(grid, seed, zeta, n_phi):
    u = rough_disc(grid, seed)
    new = disc.angular_profile_around(u, zeta, n_phi)
    old = old_angular_profile_around(u, zeta, n_phi)
    assert np.array_equal(new.nodes, old.nodes) and np.array_equal(new.values, old.values)


@settings(max_examples=60, deadline=None)
@given(grids(), seeds, points(1.2), st.floats(1e-4, 0.6))
def test_average_is_bit_equal_and_shares_the_guard(grid, seed, z, radius):
    u = rough_disc(grid, seed)
    assert float(disc.average_many(u, radius, z)) == old_average(u, radius, z, strict=False)
    try:
        old = old_average(u, radius, z)
    except disc.GridResolutionError as exc:
        with pytest.raises(disc.GridResolutionError, match="below grid resolution") as got:
            disc.average(u, radius, z)
        assert str(got.value) == str(exc)
        return
    assert disc.average(u, radius, z) == old


@settings(max_examples=40, deadline=None)
@given(grids(), seeds, st.floats(1e-3, 0.6), st.lists(points(1.2), min_size=1, max_size=300))
def test_average_many_one_radius_many_centers(grid, seed, radius, zs):
    u = rough_disc(grid, seed)
    zs = np.asarray(zs, dtype=complex)
    assert np.array_equal(disc.average_many(u, radius, zs), old_average_many(u, radius, zs))


@settings(max_examples=40, deadline=None)
@given(grids(), seeds, points(0.9), st.lists(st.integers(1, 64), min_size=1, max_size=64))
def test_average_many_many_radii_one_center(grid, seed, zeta, js):
    """Radii against one center: the old batched scale scan's ball means."""
    u = rough_disc(grid, seed)
    js = np.asarray(js)
    radii = [disc.RHO ** int(j) for j in js]
    offsets = np.stack([old_ball_offsets(r)[0] for r in radii])
    weights = old_ball_offsets(1.0)[1]
    old = old_interpolate(u, (zeta + offsets).ravel()).reshape(offsets.shape) @ weights
    assert np.array_equal(disc.average_many(u, np.asarray(radii), zeta), old)
    ref = old_scan_scales(u, zeta, js)
    assert np.all(np.abs(disc._scores([u], js, zeta)[0] - ref) <= 1e-15 * np.abs(ref))


# -- the detector ----------------------------------------------------------------------

def bumps(grid, seed: int, centers, js, noise: float) -> disc.DiscFunction:
    """Inflated Moser-type ramps at the given scales and centers, plus noise."""
    prof = RadialProfile.from_arrays([0.0, 1.0, 2.0], [0.0, 0.0, 1.0], 2)
    rings = np.zeros((grid.n_r, grid.n_theta))
    center = 0.0
    for zeta, j in zip(centers, js):
        b = disc.inflate(prof, disc.DislocationParam(j, zeta), grid)
        rings += b.rings
        center += b.center
    rng = np.random.default_rng(seed)
    rings += noise * rng.normal(size=rings.shape)
    rings[-1] = 0.0
    return disc.DiscFunction(grid, center, rings)


detector_cases = st.tuples(
    grids(), seeds,
    st.lists(points(0.35), min_size=1, max_size=3),
    st.lists(st.integers(1, 4), min_size=3, max_size=3),
    st.sampled_from([0.0, 0.02, 0.1]),
)


@settings(max_examples=15, deadline=None)
@given(detector_cases, st.sampled_from([0.005, 0.02, 0.1]))
def test_detector_scan_is_bit_equal(case, eps):
    grid, seed, centers, js, noise = case
    u = bumps(grid, seed, centers, js, noise)
    kw = dict(eps=eps, j_max=16, refine=False, top_k=6)
    assert disc.concentration_detect(u, **kw) == old_concentration_detect(u, **kw)


@settings(max_examples=15, deadline=None)
@given(detector_cases, st.sampled_from([0.005, 0.02, 0.1]))
@example((disc.PolarGrid(16, 32, 2.0), 0, [0j, 0j, 0j], [1, 1, 1], 0.0), 0.005)
def test_refined_detections_keep_j_and_zeta(case, eps):
    """Bit-equal to the old detector scoring with a product by 1/sqrt(j).

    Against the old division the scores move by an ulp.  On exactly
    symmetric inputs (radial bumps at the origin) the refine stencil then
    holds tied points whose argmax differs, and the local search may climb
    to another maximum: the example gives a fifth detection at
    0.074 + 0.024i (score 1.9606) for the division's 0.05 (score 2.0529).
    """
    grid, seed, centers, js, noise = case
    u = bumps(grid, seed, centers, js, noise)
    kw = dict(eps=eps, j_max=16, top_k=6)
    assert disc.concentration_detect(u, **kw) == old_concentration_detect(u, reciprocal=True, **kw)


# -- properties of the sampler and the ball means ---------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    st.integers(16, 96), st.sampled_from([32, 48, 64, 96]), st.floats(0.5, 12.0), seeds
)
@example(76, 64, 3.8154781002960534, 0)
def test_identity_deflation_keeps_the_grid(n_r, n_theta, s_max, seed):
    """deflate(u, (1, 0)) is u on u's own grid: its s_max is read, not recomputed."""
    u = rough_disc(disc.PolarGrid(n_r=n_r, n_theta=n_theta, s_max=s_max), seed)
    v = disc.deflate(u, disc.DislocationParam(1, 0))
    assert v.grid == u.grid
    scale = max(abs(u.center), float(np.max(np.abs(u.rings))))
    assert np.max(np.abs(v.rings - u.rings)) <= 1e-12 * scale
    assert abs(v.center - u.center) <= 1e-12 * scale
    disc.subtract_disc(u, v)


@settings(max_examples=30, deadline=None)
@given(grids(), seeds, st.lists(points(0.9), min_size=1, max_size=5),
       st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4), st.integers(1, 24))
def test_polar_samples_are_pointwise_interpolation(grid, seed, centers, radii, n_phi):
    u = rough_disc(grid, seed)
    c = np.asarray(centers)[:, None]
    r = np.asarray(radii)[None, :]
    phis = 2.0 * math.pi * np.arange(n_phi) / n_phi
    got = u.interpolate(disc._polar_points(c, r, phis))
    assert got.shape == (len(centers), len(radii), n_phi)
    for a, zeta in enumerate(centers):
        for b, rho in enumerate(radii):
            pts = zeta + rho * np.exp(1j * phis)
            assert np.array_equal(got[a, b], np.atleast_1d(u.interpolate(pts)))


@settings(max_examples=30, deadline=None)
@given(grids(), st.floats(-3.0, 3.0), points(0.5), st.floats(1e-3, 0.45))
def test_ball_mean_of_a_constant(grid, c, z, radius):
    """The weights sum to 1: a constant is its own mean on balls inside the disc."""
    u = disc.DiscFunction(
        grid, c, np.full((grid.n_r, grid.n_theta), c), zero_trace=False
    )
    assert float(disc.average_many(u, radius, z)) == pytest.approx(c, rel=1e-14, abs=1e-14)


@settings(max_examples=20, deadline=None)
@given(grids(), seeds, st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=6),
       st.lists(points(0.9), min_size=1, max_size=40))
def test_radii_broadcast_against_centers(grid, seed, radii, zs):
    u = rough_disc(grid, seed)
    zs = np.asarray(zs, dtype=complex)
    table = disc.average_many(u, np.asarray(radii)[:, None], zs[None, :])
    assert table.shape == (len(radii), len(zs))
    scale = float(np.max(np.abs(u.rings)))
    for row, r in zip(table, radii):
        assert np.allclose(row, disc.average_many(u, r, zs), rtol=0.0, atol=1e-14 * scale)
