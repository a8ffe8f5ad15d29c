"""j-fold functions stored as one block against their tiled order-1 twins.

A function of symmetry order j keeps one block of n_theta/j columns.  Every
kernel must give what the tiled array gives: the forms, the rearrangement and
its quasinorms to 1e-12 relative, evaluation and serialization exactly.  Forms
and sums take operands of one order only.  The deflations are pinned to the
one-block reference in conftest, and their pairings and the order-j probes to
the tiled twins with the order-1 probes.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, profiles, radial, rearrange, seqgen
from conftest import (
    assert_same_dweak, dweak_test_at, nonradial_test_function, old_deflate, old_dweak_test,
    pairing, rough_disc, same_disc, seeds,
)

REL = 1e-12
GRID = disc.PolarGrid(n_r=20, n_theta=96, s_max=4.0)
ORDERS = (1, 2, 3, 8, 32)  # all divide GRID.n_theta


def _tiled(u):
    """The full (n_r, n_theta) ring array of u."""
    return np.tile(u.rings, (1, u.order))


def _twin(u):
    """The order-1 function with u's rings tiled."""
    return disc.DiscFunction(u.grid, u.center, _tiled(u), u.support_radius, u.zero_trace)


def _block(order, seed):
    return rough_disc(GRID, seed, order)


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
    assert _close(pairing(u, v), pairing(_twin(u), _twin(v)),
                  math.sqrt(eu * ev))


@pytest.mark.parametrize("a, b", [(1, 2), (2, 1), (2, 8), (32, 3)])
def test_mixed_orders_are_rejected(a, b):
    u, v = _block(a, 1), _block(b, 2)
    for op in (pairing, disc.add, disc.subtract_disc):
        with pytest.raises(ValueError, match="different symmetry orders"):
            op(u, v)


def test_extract_rejects_members_of_order_above_1():
    w = radial.moser_annular(1.0)
    members = [disc.inflate(w, disc.DislocationParam(j, 0.0), GRID, 2) for j in (1, 2)]
    with pytest.raises(ValueError, match="symmetry order 1"):
        profiles.extract(profiles.FunctionSequence(members, [1, 2]))


def test_odd_modes_pair_to_zero_with_a_2_fold_function(rng):
    # why make_probes leaves out the entries whose mode j does not divide
    th = disc._thetas(GRID)
    prof = rng.normal(size=GRID.n_r)
    prof[-1] = 0.0
    u = _twin(_block(2, 7))
    for mode in (1, 3):
        odd = disc.DiscFunction(GRID, 0.0, prof[:, None] * np.cos(mode * th)[None, :])
        assert abs(pairing(u, odd)) <= REL * math.sqrt(disc.energy(u) * disc.energy(odd))


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
@given(st.sampled_from(ORDERS), seeds, seeds)
def test_add_and_subtract_equal_the_tiled_results(order, seed_u, seed_v):
    u, v = _block(order, seed_u), _block(order, seed_v)
    for op in (disc.add, disc.subtract_disc):
        out, tiled = op(u, v), op(_twin(u), _twin(v))
        assert out.order == order
        assert out.center == tiled.center
        assert _tiled(out).tobytes() == tiled.rings.tobytes()


def _steps(f):
    """(right ends, values) of the distinct steps of a step rearrangement."""
    last = np.append(f.values[1:] != f.values[:-1], True)
    return f.breakpoints[last], f.values[last]


@settings(max_examples=20, deadline=None)
@given(seeds)
def test_masses_and_scaling_equal_the_tiled_ones(seed):
    # a block's cells with j-fold areas have the distribution of the tiled grid's
    lz = rearrange.LZIndex(math.inf, 2, -1.0)
    for order in ORDERS:
        u = _block(order, seed)
        twin = _twin(u)
        f, g = rearrange.rearrange_disc(u), rearrange.rearrange_disc(twin)
        (fb, fv), (gb, gv) = _steps(f), _steps(g)  # a cell's tiled copies are one step
        assert fb.shape == gb.shape
        assert np.max(np.abs(fb - gb)) <= REL and np.max(np.abs(fv - gv)) <= REL * gv[0]
        for a, b in ((rearrange.expl2_disc(u), rearrange.expl2_disc(twin)),
                     (rearrange.lz_quasinorm(f, lz), rearrange.lz_quasinorm(g, lz))):
            assert _close(a, b, b)
        scaled = disc.scale_disc(u, -1.5)
        assert scaled.order == u.order
        assert _tiled(scaled).tobytes() == disc.scale_disc(twin, -1.5).rings.tobytes()


def test_order_must_divide_the_angular_count():
    with pytest.raises(ValueError, match="order"):
        disc.DiscFunction(GRID, 0.0, np.zeros((GRID.n_r, 19)), order=5)
    with pytest.raises(ValueError, match="shape"):
        disc.DiscFunction(GRID, 0.0, np.zeros((GRID.n_r, GRID.n_theta)), order=2)


def test_a_bubble_at_the_origin_samples_one_block():
    w = radial.moser_annular(1.0)
    d = disc.DislocationParam(2, 0.0)
    full = disc.inflate(w, d, GRID)
    for order in ORDERS:
        block = disc.inflate(w, d, GRID, order)
        assert block.order == order and block.center == full.center
        assert _tiled(block).tobytes() == full.rings.tobytes()
    with pytest.raises(ValueError, match="origin"):
        disc.inflate(w, disc.DislocationParam(1, 0.1), GRID, 2)


# -- deflation and the probes against the tiled code ---------------------------------------

def _test_06_centers():
    rng = np.random.default_rng(6)
    return {j: complex(*rng.uniform(-0.25, 0.25, 2)) for j in (1, 2, 4, 8, 16, 32)}


@pytest.fixture(scope="module")
def test_06_input():
    return nonradial_test_function(disc.PolarGrid(n_r=512, n_theta=192, s_max=8.0))


@pytest.mark.parametrize("j", [1, 2, 8, 32])
def test_test_06_ratios_match_the_tiled_path(test_06_input, j):
    u = test_06_input
    d = disc.DislocationParam(j, _test_06_centers()[j])
    w = disc.deflate(u, d)
    assert w.order == j and w.rings.shape == (u.grid.n_r, u.grid.n_theta)
    assert same_disc(w, old_deflate(u, d))
    e0 = disc.energy(u)
    assert disc.energy(w) / e0 == pytest.approx(disc.energy(_twin(w)) / e0, rel=REL, abs=0.0)


MOSER_GRID = disc.PolarGrid(n_r=192, n_theta=96, s_max=7.0)


@pytest.mark.parametrize("j", [1, 2, 8, 32])
def test_dweak_pairings_match_the_tiled_path(j):
    seq = seqgen.moser_sequence([math.exp(-2.0)], [0.1 + 0.05j], grid=MOSER_GRID)
    u = seq.members[0]
    for zeta in (0.1 + 0.05j, 0.0, -0.2 + 0.1j):
        w = disc.deflate(u, disc.DislocationParam(j, zeta))
        new_val = disc.max_pairing(w, disc.make_probes(w.grid, 8, w.order))
        twin = _twin(w)
        tiled_val = max(abs(pairing(twin, phi)) for phi in disc.make_probes(w.grid, 8))
        assert new_val == pytest.approx(tiled_val, rel=REL, abs=0.0)


def _layout_modes(count):
    modes = (0, 0, 0, 1, 2, 1, 0, 3)
    return [modes[k % len(modes)] for k in range(count)]


@pytest.mark.parametrize("grid", [
    disc.PolarGrid(n_r=96, n_theta=64, s_max=9.0),
    disc.PolarGrid(n_r=64, n_theta=96, s_max=4.0),
], ids=["geometric", "shallow"])
def test_make_probes_are_unit_energy_angular_modes(grid):
    """Each probe has unit energy and is its radial part times cos(mode theta),
    the modes cycling through the layout's."""
    th = disc._thetas(grid)
    probes = disc.make_probes(grid, 11)
    assert len(probes) == 11
    for phi, mode in zip(probes, _layout_modes(11)):
        assert disc.energy(phi) == pytest.approx(1.0, rel=REL, abs=0.0)
        modulated = phi.rings[:, :1] * np.cos(mode * th)[None, :]  # column 0 is at theta = 0
        assert np.max(np.abs(phi.rings - modulated)) <= REL * np.max(np.abs(phi.rings))


@pytest.mark.parametrize("j", [2, 3, 8, 32])
def test_order_j_probes_are_the_blocks_of_the_old_probes(j):
    """The order-j set is the order-1 set less the entries whose mode j does
    not divide, each entry as its first block."""
    grid = disc.PolarGrid(n_r=48, n_theta=96 * j, s_max=3.0)
    full = disc.make_probes(grid, 11)
    kept = [phi for phi, mode in zip(full, _layout_modes(11)) if mode % j == 0]
    new = disc.make_probes(grid, 11, j)
    assert len(new) == len(kept)
    for a, b in zip(new, kept):
        assert a.order == j and a.center == pytest.approx(b.center, rel=REL, abs=0.0)
        assert np.max(np.abs(_tiled(a) - b.rings)) <= REL * np.max(np.abs(b.rings))


def test_dweak_test_to_scale_32_matches_the_tiled_path():
    seq = seqgen.moser_sequence(
        [math.exp(-k) for k in (1, 2, 3)], [0.1 + 0.05j] * 3, grid=MOSER_GRID
    )
    kw = dict(probe_count=6, n_random_tracks=4, j_max=32, seed=1)
    assert_same_dweak(dweak_test_at(seq, **kw), old_dweak_test(seq, **kw))


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
