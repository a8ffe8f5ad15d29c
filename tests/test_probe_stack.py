"""The separable probe stack against the probes it materializes.

`disc._ProbeStack` holds each probe as a radial column times cos(m theta) and
pairs by projecting u's rings on the probes' angular vectors.  Its pairings
must equal the list pairing with `make_probes`, the same probes written out
on the grid, to rounding: the projection is a matrix product and sums in
another order.  The stack keeps no grid-sized array.
"""

import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc
from conftest import close_pairings, rough_disc, seeds


@st.composite
def grids_of_order(draw):
    """(grid, order): an order of 1 to 6 and a grid whose n_theta it divides."""
    order = draw(st.integers(1, 6))
    n_theta = order * draw(st.integers(-(-32 // order), 120 // order))
    grid = disc.PolarGrid(n_r=draw(st.integers(16, 72)), n_theta=n_theta,
                          s_max=draw(st.floats(2.0, 9.0)))
    return grid, order


@settings(max_examples=60, deadline=None)
@given(grids_of_order(), seeds, st.integers(1, 11))
def test_a_probe_stack_pairs_as_its_materialized_probes(grid_order, seed, count):
    """The separable pairing of a stack equals the list pairing with the probes
    it materializes, `make_probes`, to 1e-12 of the Cauchy-Schwarz bound
    |u| |phi| = |u| of every pairing: both paths round at the scale of their
    terms, which a cancelling pairing can sit far below."""
    grid, order = grid_order
    u = rough_disc(grid, seed, order)
    stack = disc._ProbeStack(grid, count, order)
    probes = disc.make_probes(grid, count, order)
    assert len(stack) == len(probes)
    bound = math.sqrt(disc.energy(u))
    assert close_pairings(disc._pair(u, stack), disc._pair(u, probes), bound)
    assert close_pairings(disc.max_pairing(u, stack), disc.max_pairing(u, probes), bound)


@pytest.mark.parametrize("n_theta, order, match", [
    (32, 1, "different grids"),
    (64, 2, "different symmetry orders"),
])
def test_a_probe_stack_rejects_a_function_of_another_grid_or_order(n_theta, order, match):
    u = rough_disc(disc.PolarGrid(n_r=40, n_theta=64, s_max=5.0), 0)
    stack = disc._ProbeStack(disc.PolarGrid(n_r=40, n_theta=n_theta, s_max=5.0), 6, order)
    with pytest.raises(ValueError, match=match):
        disc.max_pairing(u, stack)


def test_a_probe_stack_of_a_megacell_grid_allocates_under_a_mebibyte():
    """A stack holds columns and angular vectors, no grid-sized array: built
    and paired with a member of a 1024 x 1024 grid, it allocates under 1 MiB
    (one member's rings are 8 MiB)."""
    grid = disc.PolarGrid(n_r=1024, n_theta=1024, s_max=5.5)
    u = rough_disc(grid, 1)
    disc._ProbeStack(grid, disc._PROBE_COUNT).pair(u)  # warm the grid caches
    tracemalloc.start()
    try:
        stack = disc._ProbeStack(grid, disc._PROBE_COUNT)
        built = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        stack.pair(u)
        paired = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stack) == disc._PROBE_COUNT
    assert built < 2**20 and paired < 2**20
