"""The extractor's remainder path against the code it replaced, plus properties.

The references below are the previous implementations, kept verbatim: the
working quasinorm of a disc sample by a full stable sort and the general
stationary-point search, the per-cell values and areas built afresh on every
call, and the residuals rebuilt from the original members.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, profiles, radial, rearrange, seqgen
from conftest import smooth_plateau_profile

REL = 1e-12
NB = rearrange._EXPL2_BUCKETS


# -- references: the replaced code -----------------------------------------------

def old_rearrange_disc(u):
    values, areas = u.cell_values_and_areas()
    order = np.argsort(np.abs(values), kind="stable")[::-1]
    vals = np.abs(values[order])
    taus = np.cumsum(areas[order])
    taus /= taus[-1]
    vals = np.minimum.accumulate(vals)  # guard rounding of nearly equal values
    return rearrange.RearrangedFunction(taus, vals, "step")


def old_expl2_quasinorm(f):
    return rearrange.lz_quasinorm(f, rearrange.LZIndex(math.inf, math.inf, -0.5))


def old_expl2_of_disc(u):
    return old_expl2_quasinorm(old_rearrange_disc(u))


def old_cell_values_and_areas(u):
    grid = u.grid
    V = u.rings
    Vn = np.roll(V, -1, axis=1)
    cell_vals = 0.25 * (V[:-1] + V[1:] + Vn[:-1] + Vn[1:])
    cap_area, ann = disc.cell_areas(grid)
    cap_val = 0.5 * (u.center + float(np.mean(V[0])))
    values = np.concatenate(([cap_val], cell_vals.ravel()))
    areas = np.concatenate(
        ([cap_area], np.repeat(ann, grid.n_theta))
    )
    return values, areas


def old_residuals(originals, terms, grid):
    out = []
    for idx, u in enumerate(originals):
        for t in terms:
            d = disc.DislocationParam(t.j_track[idx], t.zeta_track[idx])
            u = disc.subtract_disc(u, disc.inflate(t.w, d, grid))
        out.append(u)
    return out


class Cells:
    """Stand-in for a disc sample: both paths read only its cell values and areas."""

    def __init__(self, values, areas):
        self.values = np.asarray(values, dtype=float)
        self.areas = np.asarray(areas, dtype=float)

    def cell_values_and_areas(self):
        return self.values.copy(), self.areas.copy()


def assert_matches_full_sort(cells):
    new = rearrange.expl2_disc(cells)
    old = old_expl2_of_disc(cells)
    assert new == pytest.approx(old, rel=REL, abs=0.0)


# -- the step closed form -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(0, 39))
def test_step_closed_form_matches_sup_pieces(seed, pieces, split):
    # the closed form in expl2_disc, on the steps of a rearranged function:
    # in one prefix, and as a prefix plus its continuation
    f = rearrange.random_rearranged(np.random.default_rng(seed), pieces=pieces)
    vals = f.values
    areas = np.diff(f.breakpoints, prepend=0.0)
    expect = old_expl2_quasinorm(f)
    whole = rearrange._expl2_prefix(vals, areas, 1.0, vals >= 0.0, 0.0)[0]
    assert whole == pytest.approx(expect, rel=REL, abs=0.0)
    head = vals >= vals[min(split, vals.size - 1)]
    best, _, s_last = rearrange._expl2_prefix(vals, areas, 1.0, head, 0.0)
    if not head.all():
        rest = rearrange._expl2_prefix(vals, areas, 1.0, ~head, s_last)[0]
        best = max(best, rest)
    assert best == pytest.approx(expect, rel=REL, abs=0.0)


# -- per-cell values and areas ----------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(16, 80), st.integers(32, 96),
       st.sampled_from([5.0, 2.0]))
def test_cell_values_and_areas_match_old(seed, n_r, n_theta, s_max):
    grid = disc.PolarGrid(n_r=n_r, n_theta=n_theta, s_max=s_max)
    rng = np.random.default_rng(seed)
    rings = rng.normal(size=(n_r, n_theta)) * 10.0 ** rng.uniform(-6, 6, (n_r, n_theta))
    rings[-1] = 0.0
    u = disc.DiscFunction(grid, float(rng.normal()), rings)
    values, areas = u.cell_values_and_areas()
    old_values, old_areas = old_cell_values_and_areas(u)
    assert np.array_equal(values, old_values)
    assert np.array_equal(areas, old_areas)
    # the areas are built once per grid and shared read-only
    assert not areas.flags.writeable
    assert u.cell_values_and_areas()[1] is areas


# -- expl2_disc against the full sort -------------------------------------------------

areas_st = st.floats(0.05, 3.0)


@st.composite
def signed_cells(draw):
    n = draw(st.integers(1, 300))
    values = draw(st.lists(
        st.floats(-50.0, 50.0, allow_subnormal=False), min_size=n, max_size=n
    ))
    areas = draw(st.lists(areas_st, min_size=n, max_size=n))
    return Cells(values, areas)


@st.composite
def plateau_cells(draw):
    levels = draw(st.lists(
        st.floats(-5.0, 5.0, allow_subnormal=False), min_size=1, max_size=4
    ))
    n = draw(st.integers(1, 400))
    values = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    area = draw(areas_st)
    # equal areas as on one ring, or drawn per cell
    areas = [area] * n if draw(st.booleans()) else draw(
        st.lists(areas_st, min_size=n, max_size=n)
    )
    return Cells(values, areas)


@st.composite
def single_cell(draw):
    n = draw(st.integers(1, 200))
    k = draw(st.integers(0, n - 1))
    values = np.zeros(n)
    values[k] = draw(
        st.floats(-20.0, 20.0, allow_subnormal=False).filter(lambda v: v != 0.0)
    )
    return Cells(values, draw(st.lists(areas_st, min_size=n, max_size=n)))


@st.composite
def bucket_edge_cells(draw):
    # values exactly on the nominal bucket edges k * vmax / NB, for a vmax
    # that makes the scaled index round
    vmax = draw(st.floats(0.1, 10.0))
    n = draw(st.integers(2, 300))
    ks = draw(st.lists(st.integers(0, NB), min_size=n - 1, max_size=n - 1))
    values = np.array([vmax] + [k * (vmax / NB) for k in ks])
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    areas = draw(st.lists(areas_st, min_size=n, max_size=n))
    return Cells(values * np.array(signs), areas)


@settings(max_examples=150, deadline=None)
@given(st.one_of(signed_cells(), plateau_cells(), single_cell(), bucket_edge_cells()))
def test_expl2_disc_matches_full_sort(cells):
    assert_matches_full_sort(cells)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 300), st.lists(areas_st, min_size=1, max_size=1))
def test_expl2_disc_of_zero_is_exactly_zero(n, area):
    cells = Cells(np.zeros(n), np.full(n, area[0]))
    assert rearrange.expl2_disc(cells) == 0.0
    assert old_expl2_of_disc(cells) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expl2_disc_on_disc_samples(seed):
    grid = disc.PolarGrid(n_r=128, n_theta=96, s_max=5.0)
    rng = np.random.default_rng(seed)
    w = smooth_plateau_profile(0.3, 1.0)
    bub = disc.inflate(w, disc.DislocationParam(2, 0.1 - 0.05j), grid)
    noise = rng.normal(scale=0.02, size=(grid.n_r, grid.n_theta))
    noise[-1] = 0.0
    noisy = disc.DiscFunction(grid, bub.center, bub.rings + noise)
    # a remainder: the bubble mostly cancelled, noise left over
    resid = disc.subtract_disc(noisy, disc.scale_disc(bub, 0.98))
    zero = disc.DiscFunction(grid, 0.0, np.zeros((grid.n_r, grid.n_theta)))
    for u in (bub, noisy, resid):
        assert_matches_full_sort(u)
    assert rearrange.expl2_disc(zero) == 0.0


# -- one running residual --------------------------------------------------------------

@pytest.fixture(scope="module")
def two_term_run():
    grid = disc.PolarGrid(n_r=192, n_theta=192, s_max=4.5)
    w = smooth_plateau_profile(0.69, 1.0)
    jt = [1, 2, 2, 2, 3, 3]
    seq, _ = seqgen.synthetic_superposition(
        [
            profiles.ProfileTerm(w, jt, [0.2 + 0.0j] * 6),
            profiles.ProfileTerm(w, jt, [-0.2 + 0.0j] * 6),
        ],
        0.01, seed=11, grid=grid, k_list=list(range(1, 7)),
    )
    kw = dict(eps_stop=0.05, max_terms=4, j_max=8)
    refined = profiles.extract(seq, refine_sweeps=2, **kw)
    greedy = profiles.extract(seq, refine_sweeps=0, **kw)
    return seq, grid, refined, greedy


def test_running_residual_matches_rebuild_from_originals(two_term_run):
    seq, grid, dec, greedy = two_term_run
    assert len(dec.terms) == 2
    # the refine sweeps accepted refits, so the running residual was updated
    assert any(
        not np.array_equal(a.w.values, b.w.values)
        for a, b in zip(dec.terms, greedy.terms)
    )
    for d in (dec, greedy):
        rebuilt = old_residuals(seq.members, d.terms, grid)
        expect = [old_expl2_of_disc(u) for u in rebuilt]
        assert d.remainder_expl2 == pytest.approx(expect, rel=REL, abs=0.0)


# -- the energy budget guard -------------------------------------------------------------

def test_within_budget_boundary():
    w = smooth_plateau_profile(0.3, 1.0)  # unit gradient energy
    term = profiles.ProfileTerm(w, [1, 2], [0.0] * 2)
    e = term.energy()
    assert profiles._within_budget([], 0.0)
    assert profiles._within_budget([term, term], 2.0 * e)
    assert profiles._within_budget([term, term], 2.0 * e - 0.9e-6)
    assert not profiles._within_budget([term, term], 2.0 * e - 1.1e-6)


def test_greedy_pass_skips_over_budget_candidates(two_term_run, monkeypatch):
    seq = two_term_run[0]
    fit = profiles._fit_term

    def overshooting_fit(*args, **kwargs):
        # every candidate comes back with twice the amplitude: four times the
        # energy, beyond the input budget
        got = fit(*args, **kwargs)
        if got is None:
            return None
        t, bubble = got
        w = radial.RadialProfile.from_arrays(t.w.nodes, 2.0 * t.w.values, 2)
        term = profiles.ProfileTerm(w, t.j_track, t.zeta_track)
        return term, disc.scale_disc(bubble, 2.0)

    monkeypatch.setattr(profiles, "_fit_term", overshooting_fit)
    dec = profiles.extract(seq, eps_stop=0.05, max_terms=4, j_max=8)
    assert dec.terms == ()
    assert dec.status == "no-candidates"
    assert max(dec.remainder_expl2) > 0.05
