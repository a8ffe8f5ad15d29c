"""The polar-net sampler against the direct sampler it replaced, plus properties.

Deflation, the angular profile and the ball means each used to build and
interpolate their own polar net zeta + rho e^{i phi}; now all of them sample
through one polar-net sampler.  The references are the oracles in conftest:
the direct bilinear sampler, the one-block deflation, the ball means and the
detector.  The same points are evaluated with the same arithmetic, so every
sample, ball mean, score and detection is bit-equal.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moserlab import disc
from conftest import (
    bumps, detections, detector_cases, grids, old_average_many, old_concentration_detect,
    old_deflate, old_interpolate, old_scores, points, rough_disc, same_disc, seeds,
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
    """The mean over n_phi angles (at most n_theta; None: n_theta) at each
    ring's log radius, pinned to 0 at t = 0."""
    u = rough_disc(grid, seed)
    n_phi = grid.n_theta if n_phi is None else n_phi
    new = disc._angular_profiles([u], [zeta], n_phi)[0]
    n = min(n_phi, grid.n_theta)
    sigma = grid.s_max * np.arange(grid.n_r) / (grid.n_r - 1)
    phis = 2.0 * math.pi * np.arange(n) / n
    pts = zeta + np.exp(-sigma)[:, None] * np.exp(1j * phis)[None, :]
    values = old_interpolate(u, pts.ravel()).reshape(pts.shape).mean(axis=1)
    values[0] = 0.0
    assert np.array_equal(new.nodes, sigma) and np.array_equal(new.values, values)


@settings(max_examples=60, deadline=None)
@given(grids(), seeds, points(1.2), st.floats(1e-4, 0.6))
def test_average_is_bit_equal_and_shares_the_guard(grid, seed, z, radius):
    """The direct sampler's ball mean; below half the grid cell at z (the cap
    radius in the cap, else the smaller node spacing) `average` raises."""
    u = rough_disc(grid, seed)
    mean = float(old_average_many(u, radius, z))
    assert float(disc.average_many(u, radius, z)) == mean
    r, r0 = abs(z), float(disc._ring_radii(grid)[0])
    cell = r0 if r < r0 else min(r * grid.s_max / (grid.n_r - 1), r * grid.dtheta)
    if radius < 0.5 * cell:
        with pytest.raises(disc.GridResolutionError, match="below grid resolution"):
            disc.average(u, radius, z)
    else:
        assert disc.average(u, radius, z) == mean


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
    radii = np.asarray([disc.RHO ** int(j) for j in js])
    assert np.array_equal(disc.average_many(u, radii, zeta), old_average_many(u, radii, zeta))
    assert np.array_equal(disc._scores([u], js, zeta)[0], old_scores(u, js, zeta))


# -- the detector ----------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(detector_cases, st.sampled_from([0.005, 0.02, 0.1]))
def test_detector_scan_is_bit_equal(case, eps):
    grid, seed, centers, js, noise = case
    u = bumps(grid, seed, centers, js, noise)
    kw = dict(eps=eps, j_max=16, top_k=6)
    assert detections([u], refine=False, **kw)[0] == old_concentration_detect(u, refine=False, **kw)


@settings(max_examples=15, deadline=None)
@given(detector_cases, st.sampled_from([0.005, 0.02, 0.1]))
@example((disc.PolarGrid(16, 32, 2.0), 0, [0j, 0j, 0j], [1, 1, 1], 0.0), 0.005)
def test_refined_detections_keep_j_and_zeta(case, eps):
    """Bit-equal to the reference, which scores j^{-1/2} as a product with 1/sqrt(j).

    A division would move the scores by an ulp.  On exactly symmetric inputs
    (radial bumps at the origin, the example) the refine stencil then holds
    tied points whose argmax differs, and the local search may climb to
    another maximum.
    """
    grid, seed, centers, js, noise = case
    u = bumps(grid, seed, centers, js, noise)
    kw = dict(eps=eps, j_max=16, top_k=6)
    assert disc.concentration_detect(u, **kw) == old_concentration_detect(u, **kw)


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
