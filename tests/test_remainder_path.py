"""The extractor's remainder path against the full sort, plus properties.

The working quasinorm of a disc sample is checked against
`expl2_quasinorm(rearrange_disc(u))`, the full stable sort and the general
stationary-point search; the running residual against the residuals rebuilt
from the original members.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, profiles, radial, rearrange, seqgen
from moserlab.rearrange import expl2_quasinorm, rearrange_disc
from conftest import greedy_extract, old_cell_values_and_areas, smooth_plateau_profile

REL = 1e-12
NB = rearrange._EXPL2_BUCKETS


class Cells:
    """Stand-in for a disc sample: both paths read only its cell values and areas."""

    def __init__(self, values, areas):
        self.values = np.asarray(values, dtype=float)
        self.areas = np.asarray(areas, dtype=float)

    def cell_values_and_areas(self):
        return self.values.copy(), self.areas.copy()


def assert_matches_full_sort(cells):
    new = rearrange.expl2_disc(cells)
    assert new == pytest.approx(expl2_quasinorm(rearrange_disc(cells)), rel=REL, abs=0.0)


# -- the step closed form -----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_step_closed_form_matches_sup_pieces(seed, pieces):
    # the closed form in expl2_disc, on the steps of a rearranged function in one prefix
    f = rearrange.random_rearranged(np.random.default_rng(seed), pieces=pieces)
    vals = f.values
    areas = np.diff(f.breakpoints, prepend=0.0)
    whole = rearrange._expl2_prefix(vals, areas, 1.0, vals >= 0.0, 0.0)
    assert whole == pytest.approx(expl2_quasinorm(f), rel=REL, abs=0.0)


# -- per-cell values and areas ----------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(16, 80), st.sampled_from([32, 48, 64, 96]),
       st.sampled_from([5.0, 2.0]), st.sampled_from([1, 2, 3, 4, 8, 16, 32]))
def test_cell_values_and_areas_match_old(seed, n_r, n_theta, s_max, order):
    # order-1 and order-j functions, down to a block one column wide
    order = order if n_theta % order == 0 else 1
    grid = disc.PolarGrid(n_r=n_r, n_theta=n_theta, s_max=s_max)
    rng = np.random.default_rng(seed)
    shape = (n_r, n_theta // order)
    rings = rng.normal(size=shape) * 10.0 ** rng.uniform(-6, 6, shape)
    rings[-1] = 0.0
    u = disc.DiscFunction(grid, float(rng.normal()), rings, order=order)
    values, areas = u.cell_values_and_areas()
    # the cap's value is the mean of center and first ring; a cell's, of its corners,
    # summed into the output in the order of the rolled-copy formula: bit for bit
    ref_values, ref_areas = old_cell_values_and_areas(u)
    assert values.tobytes() == ref_values.tobytes()
    assert areas is ref_areas
    cap, ann = disc.cell_areas(grid)
    assert np.array_equal(areas, np.concatenate(([cap], np.repeat(ann * order, n_theta // order))))
    assert math.fsum(areas) == pytest.approx(math.pi, rel=REL)
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
    assert expl2_quasinorm(rearrange_disc(cells)) == 0.0


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
    refined = profiles.extract(seq, **kw)
    greedy = greedy_extract(seq, **kw)
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
        # each term's bubbles subtracted from copies of the originals, by the extractor's bubble rule
        rebuilt = [disc._owned_copy(u) for u in seq.members]
        for t in d.terms:
            profiles._apply_bubbles(np.subtract, rebuilt, t, grid)
        expect = [expl2_quasinorm(rearrange_disc(u)) for u in rebuilt]
        assert d.remainder_expl2 == pytest.approx(expect, rel=REL, abs=0.0)


# -- one bubble rule for every member -----------------------------------------------------

def test_placement_subtracts_by_the_bubble_rule_alone(two_term_run, monkeypatch):
    seq, grid = two_term_run[:2]
    residuals, placed = [], []
    apply, place = profiles._apply_bubbles, profiles._place_term

    def recorded_apply(op, members, term, grid):
        residuals.append(members)
        apply(op, members, term, grid)

    def recorded_place(*args):
        placed.append(place(*args))
        return placed[-1]

    monkeypatch.setattr(profiles, "_apply_bubbles", recorded_apply)
    monkeypatch.setattr(profiles, "_place_term", recorded_place)
    greedy = greedy_extract(seq, eps_stop=0.05, max_terms=4, j_max=8)
    assert greedy.status == "converged" and len(greedy.terms) == 2
    # `extract` subtracts each placed term from its one running residual
    assert len(residuals) == 2 and residuals[0] is residuals[1]
    rebuilt = [disc._owned_copy(u) for u in seq.members]
    for t in greedy.terms:
        apply(np.subtract, rebuilt, t, grid)
    # every member, the tail included, bit for bit
    for u, v in zip(residuals[0], rebuilt):
        assert u.center == v.center and np.array_equal(u.rings, v.rings)
    assert len(placed) == 2 and all(p[1] is t for p, t in zip(placed, greedy.terms))
    assert placed[-1][0] == pytest.approx(disc.energy(rebuilt[-1]), rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    j=st.integers(1, 4),
    r=st.floats(0.0, 0.3),
    theta=st.floats(0.0, 2.0 * math.pi),
    t_start=st.floats(0.4, 1.2),
    log_c=st.floats(-2.0, 1.5),
)
def test_fit_energy_is_the_energy_the_bubble_rule_leaves(
    two_term_run, j, r, theta, t_start, log_c
):
    seq, grid = two_term_run[:2]
    m = seq.members[-1]
    em = disc.energy(m)
    zeta = complex(r * math.cos(theta), r * math.sin(theta))
    w = radial.scale(smooth_plateau_profile(t_start, 1.0), math.exp(log_c))
    term, tail_energy = profiles._fit_term((m, em), [(j, zeta)], w)
    left = [disc._owned_copy(m)]
    profiles._apply_bubbles(np.subtract, left, term, grid)
    assert abs(tail_energy - disc.energy(left[0])) <= 1e-12 * em


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
        t, tail_energy = got
        w = radial.RadialProfile.from_arrays(t.w.nodes, 2.0 * t.w.values, 2)
        term = profiles.ProfileTerm(w, t.j_track, t.zeta_track)
        return term, tail_energy

    monkeypatch.setattr(profiles, "_fit_term", overshooting_fit)
    dec = profiles.extract(seq, eps_stop=0.05, max_terms=4, j_max=8)
    assert dec.terms == ()
    assert dec.status == "no-candidates"
    assert max(dec.remainder_expl2) > 0.05
