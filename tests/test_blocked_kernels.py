"""The extractor's lean kernels against the whole-array code they replaced.

The pairing takes its differences in blocks of rings, the in-place bubble
update builds and applies its bubbles in blocks of rings and validates each
member as it writes it, the inflation runs in blocks, the remainder norm
sorts one run of buckets with the default sort unless it holds equal values
and the net plans index with intp.  Each is checked bit for bit against its
oracle in conftest (the remainder norm up to the area above its run, which
it sums by bucket), with the block size of the blocked kernels forced down
so that they cross block boundaries, on ring arrays down to one and two
columns wide.
"""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moserlab import disc, profiles, radial, rearrange
from conftest import (
    old_add, old_apply_bubbles, old_expl2_disc, old_expl2_prefix, old_inflated, old_interpolate,
    old_net_plan, old_pair, old_stack, old_subtract, points, same_disc, seeds,
    smooth_plateau_profile,
)

NB = rearrange._EXPL2_BUCKETS
# nodes per block: a few rings of a small grid, a fraction of a ring, and the default
BLOCKS = st.sampled_from([7, 96, disc._BLOCK])
# ring arrays of full width, a quarter, two columns and one
WIDTHS = st.sampled_from(["full", "quarter", "two", "one"])


@contextlib.contextmanager
def blocked(block):
    """A context in which the blocked kernels work in blocks of `block` nodes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disc, "_BLOCK", block)
        yield


def order_of(n_theta: int, width: str) -> int:
    return {"full": 1, "quarter": 4, "two": n_theta // 2, "one": n_theta}[width]


def rough(grid, seed: int, order: int) -> disc.DiscFunction:
    """Zero-trace samples over twelve decades, one block of a function of the order."""
    rng = np.random.default_rng(seed)
    shape = (grid.n_r, grid.n_theta // order)
    rings = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, shape)
    rings[-1] = 0.0
    return disc.DiscFunction(grid, float(rng.normal()), rings, order=order)


def as_bytes(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


# -- the pairing -----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(16, 48), st.sampled_from([32, 48, 64]), WIDTHS, seeds,
       st.integers(1, 4), BLOCKS)
def test_pair_matches_the_materialized_differences(n_r, n_theta, width, seed, count, block):
    grid = disc.PolarGrid(n_r=n_r, n_theta=n_theta, s_max=5.0)
    order = order_of(n_theta, width)
    u, *vs = [rough(grid, seed + k, order) for k in range(count + 1)]
    with blocked(block):
        listed = disc._pair(u, vs)
        tupled = disc._pair(u, tuple(vs))
        own = disc._pair(u, [u])  # the differences taken once for both operands
        # the fit's pairing of its bubble with (bubble, tail): <s, s> and <s, m> in one pass
        fit = disc._pair(vs[0], [vs[0], u])
    fo = old_stack([u])
    assert as_bytes(listed) == as_bytes(tupled) == as_bytes(old_pair(fo, old_stack(vs)))
    assert as_bytes(own) == as_bytes(old_pair(fo, fo))
    fs = old_stack(vs[:1])
    assert as_bytes(fit) == as_bytes([old_pair(fs, fs)[0], old_pair(fo, fs)[0]])


# -- the in-place member update ------------------------------------------------------------

def bubble_track(zeta):
    """Four members' (j, zeta): through the origin (a one-column field) and off it."""
    return [1, 2, 2, 3], [0j, zeta, zeta, 0j]


@settings(max_examples=40, deadline=None)
@given(st.integers(16, 48), st.sampled_from([32, 48, 64]), seeds, BLOCKS, points(0.2),
       st.floats(0.3, 1.5), st.sampled_from([(np.add, old_add), (np.subtract, old_subtract)]))
def test_in_place_update_matches_the_fresh_sum(n_r, n_theta, seed, block, zeta, t_start, ops):
    grid = disc.PolarGrid(n_r=n_r, n_theta=n_theta, s_max=4.0)
    term = profiles.ProfileTerm(smooth_plateau_profile(t_start, 1.0), *bubble_track(zeta))
    members = [rough(grid, seed + k, 1) for k in range(4)]
    live = [disc._owned_copy(u) for u in members]
    with blocked(block):
        profiles._apply_bubbles(ops[0], live, term, grid)
    old_apply_bubbles(ops[1], members, term, grid)
    assert all(same_disc(u, v) for u, v in zip(live, members))


def test_in_place_update_rejects_a_nan_in_any_block():
    grid = disc.PolarGrid(n_r=40, n_theta=32, s_max=4.0)
    term = profiles.ProfileTerm(smooth_plateau_profile(0.5, 1.0), *bubble_track(0.1j))
    members = [disc._owned_copy(rough(grid, k, 1)) for k in range(4)]
    members[2].rings.base[23, 5] = math.nan  # past the first blocks, behind the checks
    with blocked(96), pytest.raises(ValueError, match="finite"):
        profiles._apply_bubbles(np.add, members, term, grid)


# -- the inflation ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(16, 48), st.sampled_from([32, 48, 64]), points(0.4),
       st.integers(1, 6), st.sampled_from([1, 2, 4]), st.floats(0.05, 1.5), BLOCKS)
def test_inflation_matches_the_whole_grid(n_r, n_theta, zeta, j, order, t_start, block):
    grid = disc.PolarGrid(n_r=n_r, n_theta=n_theta, s_max=5.0)
    w = smooth_plateau_profile(t_start, 1.0)
    d = disc.DislocationParam(j, zeta)
    order = order if zeta == 0 else 1
    with blocked(block):
        try:
            u = disc.inflate(w, d, grid, order)
        except disc.SupportError:
            return
        # the scales of one center on one field: j + 1 fits where j does
        shared = disc._inflated(w, zeta, [j, j + 1], grid, order)
    rings, center = old_inflated(w, d, grid, order)
    assert u.rings.tobytes() == rings.tobytes() and u.center == center
    assert same_disc(shared[0], u)
    rings, center = old_inflated(w, disc.DislocationParam(j + 1, zeta), grid, order)
    assert shared[1].rings.tobytes() == rings.tobytes() and shared[1].center == center


# -- the remainder norm ----------------------------------------------------------------------

class Cells:
    """Stand-in for a disc sample: the norm reads only its cell values and areas."""

    def __init__(self, values, areas):
        self.values = np.asarray(values, dtype=float)
        self.areas = np.asarray(areas, dtype=float)

    def cell_values_and_areas(self):
        return self.values.copy(), self.areas.copy()


@st.composite
def cells(draw):
    n = draw(st.integers(1, 400))
    kind = draw(st.sampled_from(["signed", "plateau", "subnormal", "edge"]))
    if kind == "signed":
        values = draw(st.lists(st.floats(-50.0, 50.0, allow_subnormal=False),
                               min_size=n, max_size=n))
    elif kind == "plateau":
        # exact ties, so that the stable sort decides the order of their cells
        levels = draw(st.lists(st.floats(-5.0, 5.0, allow_subnormal=False),
                               min_size=1, max_size=4))
        values = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    elif kind == "subnormal":
        # a subnormal sup: small multiples of the least subnormal, ties among them
        values = [k * 5e-324 for k in draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))]
    else:
        # next to the bucket edges k vmax / NB: one ulp above or below each
        vmax = draw(st.floats(0.1, 10.0))
        ks = draw(st.lists(st.integers(0, NB), min_size=n, max_size=n))
        ups = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        values = [vmax] + [float(np.nextafter(k * (vmax / NB), math.inf if up else -math.inf))
                           for k, up in zip(ks[1:], ups[1:])]
    # equal areas as on one ring, or drawn per cell
    area = draw(st.floats(0.05, 3.0))
    areas = [area] * n if draw(st.booleans()) else draw(
        st.lists(st.floats(0.05, 3.0), min_size=n, max_size=n))
    return Cells(values, areas)


def norm_and_prefixes(c):
    """expl2_disc(c) and the arguments of each prefix it sorts."""
    calls, prefix = [], rearrange._expl2_prefix

    def recorded(*args):
        calls.append(args)
        return prefix(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rearrange, "_expl2_prefix", recorded)
        return rearrange.expl2_disc(c), calls


@settings(max_examples=200, deadline=None)
@given(cells())
@example(Cells([1.0, 1.0, 0.5, 1.0, 0.25], [0.1, 0.2, 0.3, 0.4, 0.5]))
@example(Cells([2e-323, 0.0, 1e-323, 2e-323], [1.0, 2.0, 3.0, 4.0]))
@example(Cells([2.0] + [1.0] * 99, [1e-6] + [1.0] * 99))  # the cell of 2 cannot win
def test_remainder_norm_matches_the_stable_sort(c):
    # the cells above the sorted run enter as one area, added in sorted order
    assert as_bytes(rearrange.expl2_disc(c)) == as_bytes(old_expl2_disc(c))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.booleans(), st.sampled_from([0, 0, 1, -1, 4096]),
                          st.sampled_from([0.25, 0.5, 1.0, 3.0]), st.booleans()),
                min_size=1, max_size=80).filter(lambda cs: any(m for *_, m in cs)),
       st.floats(0.1, 1e300))
def test_cells_in_order_are_the_stable_sorts(cs, scale):
    # values on a few levels, some subnormal, shifted by 0, 1 or 4096 ulps:
    # exact ties, values one ulp apart, and a span that leaves no room for the
    # group number (a stable sort then); areas in runs, as on the rings of a disc
    levels, tiny, shifts, areas, mask = (np.array(col) for col in zip(*cs))
    mags = np.where(tiny, 5e-324, scale) * (1.0 + levels)
    mags = (mags.view(np.int64) + shifts).view(np.float64)
    cells = np.flatnonzero(mask)
    order = cells[np.argsort(mags[cells], kind="stable")[::-1]]
    vals, got = rearrange._in_order(mags, areas, mask)
    assert as_bytes(vals) == as_bytes(mags[order]) and as_bytes(got) == as_bytes(areas[order])


def test_remainder_norm_sorts_only_the_run_that_can_hold_the_sup():
    # a plateau of 1 on the outer rings, 0.02 < t < 0.2, carries the sup at its large-tau
    # end; the interior above it rises to 1.5 and holds most cells of the log-polar grid
    # on little area, so none of them can win
    grid = disc.PolarGrid(n_r=256, n_theta=256, s_max=5.5)
    p = radial.RadialProfile(np.array([0.0, 0.02, 0.2, 5.5]), np.array([0.0, 1.0, 1.0, 1.5]))
    u = disc.inflate(p, disc.DislocationParam(1, 0j), grid)
    got, ((mags, _, _, mask, above),) = norm_and_prefixes(u)
    assert np.count_nonzero(mask) <= 0.05 * mags.size and above > 0.0
    assert got == pytest.approx(rearrange.expl2_quasinorm(rearrange.rearrange_disc(u)),
                                rel=1e-12, abs=0.0)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0]), min_size=2, max_size=60),
       st.lists(st.floats(0.05, 3.0), min_size=60, max_size=60))
def test_prefix_with_ties_is_the_stable_sorts(vals, areas):
    # equal values with distinct areas: their order changes the areas summed,
    # and only the stable sort gives the full sort's
    mags, areas = np.asarray(vals), np.asarray(areas[:len(vals)])
    mask = mags > 0.0
    if not mask.any():
        return
    total = float(areas.sum())
    got = rearrange._expl2_prefix(mags, areas, total, mask, 0.0)
    assert as_bytes(got) == as_bytes(old_expl2_prefix(mags, areas, total, mask, 0.0)[0])


@settings(max_examples=60, deadline=None)
@given(cells())
def test_remainder_norm_sorts_one_prefix(c):
    calls = []
    prefix = rearrange._expl2_prefix

    def counted(*args):
        calls.append(args)
        return prefix(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rearrange, "_expl2_prefix", counted)
        rearrange.expl2_disc(c)
    assert len(calls) == (0 if not c.values.any() else 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(16, 48), st.sampled_from([32, 64]), WIDTHS, seeds)
# the histogram's sum of the area above the sorted run was an ulp off the full sort's
@example(47, 32, "full", 118082)
@example(44, 32, "quarter", 238104254)
def test_remainder_norm_of_disc_samples(n_r, n_theta, width, seed):
    grid = disc.PolarGrid(n_r=n_r, n_theta=n_theta, s_max=5.0)
    u = rough(grid, seed, order_of(n_theta, width))
    assert as_bytes(rearrange.expl2_disc(u)) == as_bytes(old_expl2_disc(u))


# -- the net plan -------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(16, 48), st.sampled_from([32, 48, 64]), WIDTHS, seeds)
def test_net_plan_is_the_int32_plan_in_intp(n_r, n_theta, width, seed):
    grid = disc.PolarGrid(n_r=n_r, n_theta=n_theta, s_max=5.0)
    order = order_of(n_theta, width)
    rng = np.random.default_rng(seed)
    # inside, in the cap, on the boundary, outside and NaN
    r = np.concatenate((rng.uniform(0.0, 1.1, 200), [0.0, 1e-300, 1.0, 2.0, math.nan]))
    z = r * np.exp(1j * rng.uniform(-math.pi, 3.0 * math.pi, r.size))
    net = disc._Net(grid, n_theta // order, z)
    (k00, k10, k01, k11, *weights), cap, outside = old_net_plan(grid, n_theta // order, z)
    # the outer corners are the inner ones a ring further: one width on
    assert np.array_equal(k10, k00 + net.width) and np.array_equal(k11, k01 + net.width)
    old = (k00, k01, *weights) + cap + (outside,)
    for new, ref in zip(net.plan + net.cap + (net.outside,), old, strict=True):
        if ref.dtype.kind == "i":
            assert new.dtype == np.intp and np.array_equal(new, ref)
        else:
            assert new.tobytes() == ref.tobytes()
    u = rough(grid, seed, order)
    assert net.sample(u).tobytes() == old_interpolate(u, z).tobytes()

