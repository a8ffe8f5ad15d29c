"""j-fold functions stored as one block against their tiled order-1 twins.

A function of symmetry order j keeps one block of n_theta/j columns.  Every
kernel must give what the tiled array gives: the forms to 1e-12 relative,
evaluation and serialization exactly.  The deflation and probe paths are
pinned to the tiled code they replaced (`old_deflate`, `old_make_probes`).
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, profiles, radial, seqgen
from test_acceptance import _nonradial_test_function
from test_experiment_layer import old_deflate, old_dweak_test, old_make_probes

REL = 1e-12
GRID = disc.PolarGrid(n_r=20, n_theta=96, s_max=4.0)
ORDERS = (1, 2, 3, 8, 32)  # all divide GRID.n_theta


def _twin(u):
    """The order-1 function with u's rings tiled."""
    return disc.DiscFunction(
        u.grid, u.center, u.tiled_rings(), u.support_radius, u.zero_trace
    )


def _block(order, seed):
    rng = np.random.default_rng(seed)
    rings = rng.normal(size=(GRID.n_r, GRID.n_theta // order))
    rings[-1] = 0.0
    return disc.DiscFunction(GRID, float(rng.normal()), rings, order=order)


seeds = st.integers(0, 2**32 - 1)
blocks = st.builds(_block, st.sampled_from(ORDERS), seeds)


def _close(a, b, scale):
    return abs(a - b) <= REL * scale


# -- the forms -------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ORDERS), seeds, seeds)
def test_forms_equal_the_tiled_forms(order, seed_u, seed_v):
    u, v = _block(order, seed_u), _block(order, seed_v)
    eu, ev = disc.energy(u), disc.energy(v)
    assert _close(eu, disc.energy(_twin(u)), eu)
    assert _close(disc.grad_inner(u, v), disc.grad_inner(_twin(u), _twin(v)),
                  math.sqrt(eu * ev))


@settings(max_examples=40, deadline=None)
@given(blocks, blocks)
def test_mixed_order_pairing_equals_the_tiled_pairing(u, v):
    scale = math.sqrt(disc.energy(u) * disc.energy(v))
    tiled = disc.grad_inner(_twin(u), _twin(v))
    assert _close(disc.grad_inner(u, v), tiled, scale)
    assert _close(disc.grad_inner(v, u), tiled, scale)


def test_odd_modes_pair_to_zero_with_a_2_fold_function(rng):
    # why make_probes leaves out the entries whose mode j does not divide
    th = disc._thetas(GRID)
    prof = rng.normal(size=GRID.n_r)
    prof[-1] = 0.0
    u = _block(2, 7)
    for mode in (1, 3):
        odd = disc.DiscFunction(GRID, 0.0, prof[:, None] * np.cos(mode * th)[None, :])
        assert abs(disc.grad_inner(u, odd)) <= REL * math.sqrt(disc.energy(u) * disc.energy(odd))


# -- evaluation, arithmetic and serialization -------------------------------------------

@settings(max_examples=40, deadline=None)
@given(blocks, seeds)
def test_interpolate_is_bit_equal_to_the_tiled_twin(u, seed):
    rng = np.random.default_rng(seed)
    r = np.concatenate((rng.uniform(0.0, 1.05, 300), [0.0, 1.0, 1e-9]))
    z = r * np.exp(1j * rng.uniform(-7.0, 7.0, r.size))
    assert np.array_equal(u.interpolate(z), _twin(u).interpolate(z))


@settings(max_examples=30, deadline=None)
@given(blocks)
def test_disc_record_is_the_tiled_twin(u):
    twin = _twin(u)
    d = disc.disc_to_dict(u)
    assert d == disc.disc_to_dict(twin)
    back = disc.disc_from_dict(d)
    assert back.order == 1 and back.grid == twin.grid and back.center == twin.center
    assert back.rings.tobytes() == twin.rings.tobytes()


@settings(max_examples=30, deadline=None)
@given(blocks, blocks)
def test_add_and_subtract_equal_the_tiled_results(u, v):
    for op in (disc.add, disc.subtract_disc):
        out, tiled = op(u, v), op(_twin(u), _twin(v))
        assert out.order == (u.order if u.order == v.order else 1)
        assert out.center == tiled.center
        assert out.tiled_rings().tobytes() == tiled.rings.tobytes()


@settings(max_examples=20, deadline=None)
@given(blocks)
def test_masses_and_scaling_equal_the_tiled_ones(u):
    twin = _twin(u)
    assert disc.l2_mass(u) == disc.l2_mass(twin)
    for a, b in zip(u.cell_values_and_areas(), twin.cell_values_and_areas()):
        assert np.array_equal(a, b)
    scaled = disc.scale_disc(u, -1.5)
    assert scaled.order == u.order
    assert scaled.tiled_rings().tobytes() == disc.scale_disc(twin, -1.5).rings.tobytes()


def test_order_must_divide_the_angular_count():
    with pytest.raises(ValueError, match="order"):
        disc.DiscFunction(GRID, 0.0, np.zeros((GRID.n_r, 19)), order=5)
    with pytest.raises(ValueError, match="shape"):
        disc.DiscFunction(GRID, 0.0, np.zeros((GRID.n_r, GRID.n_theta)), order=2)
    with pytest.raises(ValueError, match="mode"):
        disc.angular_mode(radial.moser_annular(1.0), GRID, 1, order=2)


def test_a_bubble_at_the_origin_samples_one_block():
    w = radial.moser_annular(1.0)
    d = disc.DislocationParam(2, 0.0)
    full = disc.inflate(w, d, GRID)
    for order in ORDERS:
        block = disc.inflate(w, d, GRID, order)
        assert block.order == order and block.center == full.center
        assert block.tiled_rings().tobytes() == full.rings.tobytes()
    with pytest.raises(ValueError, match="origin"):
        disc.inflate(w, disc.DislocationParam(1, 0.1), GRID, 2)


# -- deflation and the probes against the tiled code ---------------------------------------

def _test_06_centers():
    rng = np.random.default_rng(6)
    return {j: complex(*rng.uniform(-0.25, 0.25, 2)) for j in (1, 2, 4, 8, 16, 32)}


@pytest.fixture(scope="module")
def test_06_input():
    return _nonradial_test_function(disc.PolarGrid(n_r=512, n_theta=192, s_max=8.0))


@pytest.mark.parametrize("j", [1, 2, 8, 32])
def test_test_06_ratios_match_the_tiled_path(test_06_input, j):
    u = test_06_input
    d = disc.DislocationParam(j, _test_06_centers()[j])
    w, old = disc.deflate(u, d), old_deflate(u, d)
    assert w.order == j and w.rings.shape == (u.grid.n_r, u.grid.n_theta)
    assert w.grid == old.grid and w.center == old.center
    assert w.support_radius == old.support_radius
    assert w.tiled_rings().tobytes() == old.rings.tobytes()
    e0 = disc.energy(u)
    assert disc.energy(w) / e0 == pytest.approx(disc.energy(old) / e0, rel=REL, abs=0.0)


MOSER_GRID = disc.PolarGrid(n_r=192, n_theta=96, s_max=7.0)


@pytest.mark.parametrize("j", [1, 2, 8, 32])
def test_dweak_pairings_match_the_tiled_path(j):
    seq = seqgen.moser_sequence([math.exp(-2.0)], [0.1 + 0.05j], grid=MOSER_GRID)
    u = seq.members[0]
    for zeta in (0.1 + 0.05j, 0.0, -0.2 + 0.1j):
        d = disc.DislocationParam(j, zeta)
        w, old = disc.deflate(u, d), old_deflate(u, d)
        new_val = disc.max_pairing(w, disc.make_probes(w.grid, 8, w.order))
        old_val = max(abs(disc.grad_inner(old, phi)) for phi in old_make_probes(old.grid, 8))
        assert new_val == pytest.approx(old_val, rel=REL, abs=0.0)


@pytest.mark.parametrize("j", [2, 3, 8, 32])
def test_order_j_probes_are_the_blocks_of_the_old_probes(j):
    grid = disc.PolarGrid(n_r=48, n_theta=96 * j, s_max=3.0)
    old = old_make_probes(grid, 11)
    kept = [phi for phi, spec in zip(old, _layout_modes(11)) if spec % j == 0]
    new = disc.make_probes(grid, 11, j)
    assert len(new) == len(kept)
    for a, b in zip(new, kept):
        assert a.order == j and a.center == pytest.approx(b.center, rel=REL, abs=0.0)
        assert np.max(np.abs(a.tiled_rings() - b.rings)) <= REL * np.max(np.abs(b.rings))


def _layout_modes(count):
    modes = (0, 0, 0, 1, 2, 1, 0, 3)
    return [modes[k % len(modes)] for k in range(count)]


def test_dweak_test_to_scale_32_matches_the_tiled_path():
    seq = seqgen.moser_sequence(
        [math.exp(-k) for k in (1, 2, 3)], [0.1 + 0.05j] * 3, grid=MOSER_GRID
    )
    kw = dict(probe_count=6, n_random_tracks=4, j_max=32, seed=1)
    new, old = profiles.dweak_test(seq, **kw), old_dweak_test(seq, **kw)
    assert new.per_member == pytest.approx(old.per_member, rel=REL, abs=0.0)
    assert new.witness == old.witness and new.verdict == old.verdict


# -- memory is bounded in j ------------------------------------------------------------------

def _deflate_energy_peak(u, j):
    d = disc.DislocationParam(j, 0.1 + 0.05j)
    disc.energy(disc.deflate(u, d))  # warm the grid caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        disc.energy(disc.deflate(u, d))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deflate_and_energy_memory_does_not_grow_with_j(test_06_input):
    assert _deflate_energy_peak(test_06_input, 32) <= 2 * _deflate_energy_peak(test_06_input, 1)
