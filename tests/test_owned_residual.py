"""The extractor's running residual: one owned copy of the inputs, updated in place.

`extract` copies each input member once (`disc._owned_copy`) and
`_apply_bubbles` adds or subtracts every bubble into those copies; the
inputs are never written.  The in-place updates are checked bit for bit
against the sums on fresh arrays of the reference module, a rejected refit
against the greedy run, and the peak memory of an extraction against a bound
in member-sized arrays.
"""

import tracemalloc

import numpy as np
import pytest

from moserlab import disc, profiles, radial, seqgen
from conftest import (
    greedy_extract, old_add, old_apply_bubbles, old_subtract, rough_disc, same_disc,
    smooth_plateau_profile,
)

REL = 1e-12
GRID = disc.PolarGrid(n_r=64, n_theta=96, s_max=4.5)


def two_terms():
    """Two tracks, each through the origin (a one-column field) and off it."""
    w = smooth_plateau_profile(0.69, 1.0)
    return (
        profiles.ProfileTerm(w, [1, 1, 2, 2, 3], [0j, 0j, 0.15 + 0.06j, 0.15 + 0.06j, 0j]),
        profiles.ProfileTerm(w, [1, 2, 2, 3, 3], [-0.2 + 0j, -0.2 + 0j, 0j, 0j, 0.1j]),
    )


def inputs():
    return [rough_disc(GRID, seed) for seed in range(5)]


def snapshot(members):
    return [(u.rings, u.rings.tobytes(), u.center, u.support_radius) for u in members]


def unchanged(members, snap) -> bool:
    """Each member holds the same read-only array, with the same bytes and center."""
    return all(
        u.rings is a and not a.flags.writeable and a.tobytes() == b and u.center == c
        and u.support_radius == r
        for u, (a, b, c, r) in zip(members, snap)
    )


# -- the in-place updates against the sums on fresh arrays --------------------------------

def test_in_place_bubbles_equal_the_fresh_array_path():
    a, b = two_terms()
    originals = inputs()
    snap = snapshot(originals)
    owned = [disc._owned_copy(u) for u in originals]
    ids = [id(u) for u in owned]
    ref = list(originals)
    # subtract, add, subtract: the greedy step and a refine sweep's add-back and refit
    for live, old, term in ((np.subtract, old_subtract, a),
                            (np.add, old_add, b),
                            (np.subtract, old_subtract, b)):
        profiles._apply_bubbles(live, owned, term, GRID)
        old_apply_bubbles(old, ref, term, GRID)
        assert all(same_disc(u, v) for u, v in zip(owned, ref))
    # the same objects, read-only to every kernel; the inputs untouched
    assert [id(u) for u in owned] == ids
    assert not any(u.rings.flags.writeable for u in owned)
    assert unchanged(originals, snap)


def test_in_place_update_writes_only_an_owned_copy():
    members = inputs()
    snap = snapshot(members)
    with pytest.raises(TypeError):
        profiles._apply_bubbles(np.subtract, members, two_terms()[0], GRID)
    assert unchanged(members, snap)


def test_in_place_update_keeps_the_checks_of_a_fresh_result():
    # finite samples: the sum overflows
    big = np.full((GRID.n_r, GRID.n_theta), 1e308)
    big[-1] = 0.0
    u = disc.DiscFunction(GRID, 0.0, big)
    huge = radial.RadialProfile(np.array([0.0, 1.0, 2.0]), np.array([0.0, 0.0, 1e308]))
    term = profiles.ProfileTerm(huge, [1], [0j])
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            old_apply_bubbles(old_add, [u], term, GRID)
        with pytest.raises(ValueError, match="finite"):
            profiles._apply_bubbles(np.add, [disc._owned_copy(u)], term, GRID)
    # zero trace: a boundary ring within 1e-9 of a large peak is not within 1e-9 of the
    # small difference
    term = profiles.ProfileTerm(radial.scale(smooth_plateau_profile(0.69, 1.0), 1e6), [1], [0j])
    bubble = disc.inflate(term.w, disc.DislocationParam(1, 0j), GRID)
    rings = np.array(bubble.rings)
    rings[-1] = 1e-4
    peak = disc.DiscFunction(GRID, bubble.center, rings)
    with pytest.raises(ValueError, match="zero trace"):
        old_apply_bubbles(old_subtract, [peak], term, GRID)
    with pytest.raises(ValueError, match="zero trace"):
        profiles._apply_bubbles(np.subtract, [disc._owned_copy(peak)], term, GRID)


# -- extract on its own copy ----------------------------------------------------------------

@pytest.fixture(scope="module")
def two_term_seq():
    # the two-term refine fixture of test_remainder_path.py: its refits are accepted
    grid = disc.PolarGrid(n_r=192, n_theta=192, s_max=4.5)
    w = smooth_plateau_profile(0.69, 1.0)
    jt = [1, 2, 2, 2, 3, 3]
    seq, _ = seqgen.synthetic_superposition(
        [profiles.ProfileTerm(w, jt, [z] * 6) for z in (0.2 + 0.0j, -0.2 + 0.0j)],
        0.01, seed=11, grid=grid, k_list=list(range(1, 7)),
    )
    kw = dict(eps_stop=0.05, max_terms=4, j_max=8)
    return seq, kw, greedy_extract(seq, **kw)


def test_extract_never_writes_its_inputs(two_term_seq):
    seq, kw, greedy = two_term_seq
    snap = snapshot(seq.members)
    dec = profiles.extract(seq, **kw)
    # refits were accepted: the residual was updated
    assert len(dec.terms) == 2 and [t.to_dict() for t in dec.terms] != [
        t.to_dict() for t in greedy.terms]
    assert unchanged(seq.members, snap)


def test_a_rejected_refit_leaves_the_greedy_residual(two_term_seq, monkeypatch):
    seq, kw, greedy = two_term_seq
    assert greedy.status == "converged" and len(greedy.terms) == 2
    place, calls, rejected = profiles._place_term, [], []

    def rejecting(members, starts, *args):
        # the greedy pass places two terms; every later call is a refine sweep's refit
        calls.append(None)
        if len(calls) <= len(greedy.terms):
            return place(members, starts, *args)
        rejected.append(None)
        return None

    monkeypatch.setattr(profiles, "_place_term", rejecting)
    snap = snapshot(seq.members)
    dec = profiles.extract(seq, **kw)
    assert len(rejected) == 2 * len(greedy.terms)
    # the terms are the greedy ones exactly; each residual is back up to rounding
    assert [t.to_dict() for t in dec.terms] == [t.to_dict() for t in greedy.terms]
    assert dec.remainder_expl2 == pytest.approx(greedy.remainder_expl2, rel=REL, abs=0.0)
    assert dec.status == greedy.status
    assert unchanged(seq.members, snap)


def test_a_refit_that_leaves_more_tail_energy_keeps_the_old_term(two_term_seq, monkeypatch):
    seq, kw, greedy = two_term_seq
    place, calls, worse = profiles._place_term, [], []

    def worsening(members, starts, *args):
        # the greedy pass places two terms; every later call is a refine sweep's refit,
        # replaced by the refit at a thousandth of its amplitude and the tail energy it leaves
        calls.append(None)
        placed = place(members, starts, *args)
        if len(calls) <= len(greedy.terms) or placed is None:
            return placed
        m, term = members[-1], placed[1]
        small, energy = profiles._fit_term((m, disc.energy(m)), list(zip(
            term.j_track, term.zeta_track)), radial.scale(term.w, 1e-3))
        worse.append(energy)
        return energy, small

    monkeypatch.setattr(profiles, "_place_term", worsening)
    dec = profiles.extract(seq, **kw)
    assert len(worse) == 2 * len(greedy.terms)
    # every refit is rejected: the greedy terms, and each residual back up to rounding
    assert [t.to_dict() for t in dec.terms] == [t.to_dict() for t in greedy.terms]
    assert dec.remainder_expl2 == pytest.approx(greedy.remainder_expl2, rel=REL, abs=0.0)
    assert dec.status == greedy.status == "converged"


# -- peak memory -------------------------------------------------------------------------

# Peak traced allocation of a warm extraction, in member-sized arrays (256 x 256,
# ten members; the detector's nets count as well).  With the residual one owned copy
# of the ten inputs it is 19.6; with a fresh array per sum and a copy of every member
# in each refine step it was 25.5.
_PEAK_MEMBERS = 22.5


def test_extract_peak_memory_is_bounded():
    grid = disc.PolarGrid(n_r=256, n_theta=256, s_max=5.5)
    w = smooth_plateau_profile(0.69, 1.0)
    jt = [2, 2, 2, 2, 3, 3, 3, 3, 3, 3]
    seq, _ = seqgen.synthetic_superposition(
        [profiles.ProfileTerm(w, jt, [z] * 10) for z in (0.2 + 0.0j, -0.2 + 0.0j)],
        0.01, seed=11, grid=grid, k_list=list(range(1, 11)),
    )
    kw = dict(eps_stop=0.05, max_terms=4, j_max=12)
    profiles.extract(seq, **kw)  # the grid's cached arrays are built outside the trace
    tracemalloc.start()
    try:
        dec = profiles.extract(seq, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dec.terms) == 2 and dec.status == "converged"
    assert peak / seq.members[0].rings.nbytes <= _PEAK_MEMBERS
