"""The detector against its reference, and the extractor's one placement step.

The detector reference is the oracle in conftest: the per-scale scan over
every center, the greedy merge, the stencil refine and the scale scan.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, profiles, seqgen
from conftest import detections, old_concentration_detect, same_disc, smooth_plateau_profile


def superposition(grid, zetas, jt, seed):
    w = smooth_plateau_profile(0.69, 1.0)
    n = len(jt)
    seq, _ = seqgen.synthetic_superposition(
        [profiles.ProfileTerm(w, jt, [z] * n) for z in zetas],
        0.01, seed=seed, grid=grid, k_list=list(range(1, n + 1)),
    )
    return seq


# -- the detector without its never-set parameters -------------------------------------

def bubble(grid, j, zeta):
    return disc.inflate(
        smooth_plateau_profile(0.3, 1.0), disc.DislocationParam(j, zeta), grid
    )


def detector_inputs():
    grid = disc.PolarGrid(n_r=256, n_theta=128, s_max=8.0)
    two = disc.add(bubble(grid, 4, 0.1 + 0.05j), bubble(grid, 2, -0.25 + 0.1j))
    rng = np.random.default_rng(5)
    noise = rng.normal(scale=0.05, size=(grid.n_r, grid.n_theta))
    noise[-1] = 0.0
    noisy = disc.DiscFunction(grid, 0.0, two.rings + noise)
    zero = disc.DiscFunction(grid, 0.0, np.zeros((grid.n_r, grid.n_theta)))
    return {"two": two, "noisy": noisy, "zero": zero}


@pytest.mark.parametrize("kw, refine", [
    (dict(eps=0.01, j_max=16, top_k=4), True),
    (dict(eps=0.01, j_max=16, top_k=4), False),
    (dict(eps=1e-4, j_max=12, top_k=2), False),
    (dict(eps=0.05), True),
], ids=["refine", "raw", "dweak", "defaults"])
def test_detector_matches_old_exactly(kw, refine):
    for name, u in detector_inputs().items():
        new = (disc.concentration_detect(u, **kw) if refine
               else detections([u], refine=False, **kw)[0])
        assert new == old_concentration_detect(u, refine=refine, **kw)
        assert bool(new) == (name != "zero")


# -- the placement step: the choice does not depend on the order of the starts ---------

@pytest.fixture(scope="module")
def placement_setup():
    grid = disc.PolarGrid(n_r=96, n_theta=96, s_max=4.5)
    seq = superposition(grid, [0.2 + 0.0j, -0.15 + 0.1j], [1, 2, 2, 3], 3)
    members = list(seq.members)
    cands = disc.concentration_detect(members[-1], eps=0.0125, j_max=8, top_k=4)
    # the detections (two of them refine to the same tail center, with
    # different early centers: an exact tie of the tail key) and two weak starts
    starts = [d for d, _ in cands] + [
        disc.DislocationParam(1, 0.0), disc.DislocationParam(3, 0.05 - 0.3j)
    ]
    tail = (members[-1], disc.energy(members[-1]))
    energies = sorted(
        profiles._fit_term(tail, *profiles._track_candidate(members, d, 8, {}))[0]
        .energy()
        for d in starts
    )
    limits = [math.inf] + energies + [0.0]  # 0.0 rejects every start
    return members, starts, limits, {}


def place(members, starts, limit):
    """The placement and the members less its term, as `extract` subtracts it."""
    members = [disc._owned_copy(u) for u in members]
    placed = profiles._place_term(members, starts, 8, lambda t: t.energy() <= limit)
    if placed is not None:
        profiles._apply_bubbles(np.subtract, members, placed[1], members[0].grid)
    return placed, members


def test_placement_only_reads_the_members(placement_setup):
    members, starts = placement_setup[:2]
    owned = [disc._owned_copy(u) for u in members]
    assert profiles._place_term(owned, starts, 8, lambda t: True) is not None
    for u, v in zip(owned, members):
        assert u.center == v.center and np.array_equal(u.rings, v.rings)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_placement_ignores_the_order_of_starts(placement_setup, data):
    members, starts, limits, cache = placement_setup
    limit = data.draw(st.sampled_from(limits))
    order = data.draw(st.permutations(range(len(starts))))
    if limit not in cache:
        cache[limit] = place(members, starts, limit)
    ref, ref_members = cache[limit]
    got, got_members = place(members, [starts[k] for k in order], limit)
    if ref is None:
        assert got is None
        assert all(same_disc(a, b) for a, b in zip(got_members, members))
        return
    assert got[0] == ref[0]
    a, b = got[1], ref[1]
    assert a.j_track == b.j_track and a.zeta_track == b.zeta_track
    assert np.array_equal(a.w.nodes, b.w.nodes)
    assert np.array_equal(a.w.values, b.w.values)
    for u, v in zip(got_members, ref_members):
        assert u.center == v.center and np.array_equal(u.rings, v.rings)
