"""The extractor's one placement step against the code it replaced, plus a property.

The references below are the previous implementations, kept verbatim: the
extraction with its greedy pass and refine sweep written out separately, and
the concentration detector with its rho grid, center and merge-radius
parameters.  Their ball means, center refinement and scale scan are the
frozen copies in conftest.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, profiles, seqgen
from moserlab.radial import RadialProfile, gauge_apply, grad_norm, h1_inner
from moserlab.rearrange import expl2_disc
from conftest import (
    old_average_many, old_refine_center, old_scan_scales, smooth_plateau_profile,
)

REL = 1e-12


# -- references: the replaced code -----------------------------------------------

def old_default_centers(max_radius: float = 0.5) -> np.ndarray:
    pts = [0.0 + 0.0j]
    for rad in np.linspace(0.05, max_radius, 10):
        n_ang = max(8, int(round(2.0 * math.pi * rad / 0.045)))
        ang = 2.0 * math.pi * np.arange(n_ang) / n_ang
        pts.extend(rad * np.exp(1j * ang))
    return np.asarray(pts, dtype=complex)


def old_concentration_detect(
    u,
    eps: float,
    rho_grid=None,
    j_max: int = 64,
    centers=None,
    merge_radius: float = 0.05,
    refine: bool = True,
    top_k: int = 8,
    reciprocal: bool = False,
):
    """The detector as it was.  With `reciprocal` the refine and scale scans
    score as the live detector does, with a product by 1/sqrt(j)."""
    if eps <= 0:
        raise ValueError("detection threshold must be positive")
    if rho_grid is None:
        rho_grid = (math.exp(-1.0),)
    if centers is None:
        centers = old_default_centers()
    centers = np.asarray(centers, dtype=complex)

    raw = []
    for j in range(1, j_max + 1):
        pref = 1.0 / math.sqrt(j)
        for rho in rho_grid:
            rad = rho**j
            scores = pref * np.abs(old_average_many(u, rad, centers))
            for idx in np.nonzero(scores >= eps)[0]:
                raw.append((float(scores[idx]), j, float(rho), centers[idx]))
    raw.sort(key=lambda c: (-c[0], c[1], c[3].real, c[3].imag))

    kept = []
    for cand in raw:
        merged = False
        for k in kept:
            dist_tol = max(cand[2] ** cand[1], merge_radius)
            if (
                abs(cand[3] - k[3]) < dist_tol
                and abs(math.log(cand[1]) - math.log(k[1])) < math.log(2.0)
            ):
                merged = True
                break
        if not merged:
            kept.append(cand)
        if len(kept) >= top_k:
            break

    results = []
    for score, j, rho, zeta in kept:
        if refine:
            score, zeta = old_refine_center(u, zeta, j, score, reciprocal)
            js = np.arange(max(1, j // 2), min(j_max, 2 * j) + 1)
            scores = old_scan_scales(u, zeta, js, reciprocal)
            k = int(np.argmax(scores))
            if scores[k] > score:
                score, j = float(scores[k]), int(js[k])
        results.append((disc.DislocationParam(j, zeta), float(score)))
    results.sort(key=lambda c: (-c[1], c[0].j, c[0].zeta.real, c[0].zeta.imag))
    return results


def old_within_budget(terms, limit: float) -> bool:
    return sum(t.energy() for t in terms) <= limit + 1e-6


def old_trim_profile_support(w, t_min: float):
    if t_min <= 0.0:
        return w
    nodes = np.union1d(w.nodes, [t_min])
    vals = w.value_at(nodes)
    vals[nodes <= t_min] = 0.0
    return RadialProfile.from_arrays(nodes, vals, 2)


def old_tail_average(base_profiles, js, k_tail: int):
    tail = range(max(0, len(base_profiles) - k_tail), len(base_profiles))
    profs = [gauge_apply(base_profiles[i], float(js[i])) for i in tail]
    ref = profs[-1]
    acc = np.zeros_like(ref.values)
    for p in profs:
        acc += p.value_at(ref.nodes)
    acc /= len(profs)
    acc[0] = 0.0
    return RadialProfile.from_arrays(ref.nodes, acc, 2)


def old_track_candidate(members, d0, rho: float, j_max: int, k_tail: int):
    zetas, base_profiles, js = [], [], []
    j_all = np.arange(1, j_max + 1)
    for u in members:
        j0 = int(j_all[np.argmax(old_scan_scales(u, d0.zeta, j_all))])
        _, zeta = old_refine_center(u, d0.zeta, j0)
        zetas.append(zeta)
        base_profiles.append(disc.angular_profile_around(u, zeta, n_phi=64))
        js.append(j0)
    for _ in range(2):
        ref = old_tail_average(base_profiles, js, k_tail)
        nrm = grad_norm(ref, 2)
        if nrm < 1e-12:
            break
        ref = RadialProfile.from_arrays(ref.nodes, ref.values / nrm, 2)
        for i, base in enumerate(base_profiles):
            pairings = [
                h1_inner(gauge_apply(base, float(j)), ref)
                for j in range(1, j_max + 1)
            ]
            js[i] = 1 + int(np.argmax(pairings))
    js = [int(j) for j in np.maximum.accumulate(js)]
    track = list(zip(js, zetas))
    w = old_tail_average(base_profiles, js, k_tail)
    return track, w


def old_synthesize(term, idx: int, grid):
    return disc.inflate(
        term.w, disc.DislocationParam(term.j_track[idx], term.zeta_track[idx]), grid
    )


def old_fit_term(members, d0, rho, j_max, k_tail, grid):
    track, w = old_track_candidate(members, d0, rho, j_max, k_tail)
    t_min = max(-math.log1p(-abs(z)) / j for j, z in track)
    w = old_trim_profile_support(w, t_min * (1.0 + 1e-9))
    try:
        synth = disc.inflate(w, disc.DislocationParam(*track[-1]), grid)
    except disc.SupportError:
        return None
    denom = disc.energy(synth)
    if denom > 0:
        beta = disc.grad_inner(members[-1], synth) / denom
        beta = min(1.25, max(0.5, beta))
        if beta != 1.0:
            w = RadialProfile.from_arrays(w.nodes, beta * w.values, 2)
    return profiles.ProfileTerm(w, [j for j, _ in track], [z for _, z in track])


def old_extract(
    seq,
    eps_stop: float = 0.05,
    max_terms: int = 4,
    j_max: int = 24,
    rho: float = math.exp(-1.0),
    k_tail: int = 3,
    eps_detect=None,
    refine_sweeps: int = 2,
):
    if not seq.is_disc():
        raise ValueError("extraction operates on disc-sampled sequences")
    if eps_stop <= 0:
        raise ValueError("stop threshold must be positive")
    members = list(seq.members)
    grid = members[0].grid
    tail = len(members) - 1
    input_limsup = max(disc.energy(u) for u in members)
    eps_detect = eps_detect if eps_detect is not None else eps_stop / 4.0

    terms = []
    status = "converged"
    prev_tail_energy = disc.energy(members[-1])
    increases = 0

    for _ in range(max_terms):
        rem = expl2_disc(members[-1])
        if rem < eps_stop:
            break
        cands = old_concentration_detect(
            members[-1], eps=eps_detect, rho_grid=(rho,), j_max=j_max, top_k=4
        )
        if not cands:
            status = "no-candidates"
            break
        best_score = cands[0][1]
        shortlist = [c for c in cands if c[1] >= 0.5 * best_score]

        chosen = None
        for d0, _score in shortlist:
            cand_term = old_fit_term(members, d0, rho, j_max, k_tail, grid)
            if cand_term is None:
                continue
            if not old_within_budget(terms + [cand_term], input_limsup):
                continue
            resid = disc.subtract_disc(
                members[tail], old_synthesize(cand_term, tail, grid)
            )
            zl = cand_term.zeta_track[-1]
            key = (disc.energy(resid), cand_term.j_track[-1], zl.real, zl.imag)
            if chosen is None or key < chosen[0]:
                chosen = (key, cand_term, resid)
            del resid
        if chosen is None:
            status = "no-candidates"
            break
        key, term, members[tail] = chosen
        tail_energy = key[0]
        for idx in range(tail):
            members[idx] = disc.subtract_disc(
                members[idx], old_synthesize(term, idx, grid)
            )
        terms.append(term)
        if tail_energy > prev_tail_energy + 1e-12:
            increases += 1
            if increases >= 2:
                status = "diverged"
                break
        else:
            increases = 0
        prev_tail_energy = tail_energy

    if len(terms) > 1 and status != "diverged":
        for _ in range(max(0, refine_sweeps)):
            for i in range(len(terms)):
                old = terms[i]
                cleaned = [
                    disc.add(u, old_synthesize(old, idx, grid))
                    for idx, u in enumerate(members)
                ]
                d0 = disc.DislocationParam(old.j_track[-1], old.zeta_track[-1])
                refit = old_fit_term(cleaned, d0, rho, j_max, k_tail, grid)
                if refit is not None and old_within_budget(
                    terms[:i] + [refit] + terms[i + 1:], input_limsup
                ):
                    terms[i] = refit
                    for idx in range(len(members)):
                        members[idx] = disc.subtract_disc(
                            cleaned[idx], old_synthesize(refit, idx, grid)
                        )
                        cleaned[idx] = None
                del cleaned

    remainder = tuple(expl2_disc(u) for u in members)
    return profiles.Decomposition(
        terms=tuple(terms),
        remainder_expl2=remainder,
        input_energy_limsup=input_limsup,
        status=status,
    )


# -- helpers ---------------------------------------------------------------------

def assert_rel(new, old):
    new, old = np.asarray(new, dtype=complex), np.asarray(old, dtype=complex)
    assert new.shape == old.shape
    assert np.all(np.abs(new - old) <= REL * np.abs(old))


def assert_same_detections(new, old, exact: bool):
    """The same (j, zeta) in the same order; the scores equal, or within one ulp
    where the refine and scale scans write j^{-1/2} as a product with 1/sqrt(j)."""
    assert [d for d, _ in new] == [d for d, _ in old]
    for (_, a), (_, b) in zip(new, old):
        assert a == b if exact else abs(a - b) <= 1e-15 * abs(b)


def assert_same_decomposition(new, old):
    assert new.status == old.status
    assert len(new.terms) == len(old.terms)
    for a, b in zip(new.terms, old.terms):
        assert a.j_track == b.j_track
        assert_rel(a.zeta_track, b.zeta_track)
        assert_rel(a.w.nodes, b.w.nodes)
        # profile values relative to the profile's peak: the values run to 0
        scale = np.max(np.abs(b.w.values))
        assert np.all(np.abs(a.w.values - b.w.values) <= REL * scale)
    assert_rel(new.remainder_expl2, old.remainder_expl2)


def superposition(grid, zetas, jt, seed):
    w = smooth_plateau_profile(0.69, 1.0)
    n = len(jt)
    seq, _ = seqgen.synthetic_superposition(
        [profiles.ProfileTerm(w, jt, [z] * n) for z in zetas],
        0.01, seed=seed, grid=grid, k_list=list(range(1, n + 1)),
    )
    return seq


# -- extraction against the two written-out passes ----------------------------------

def test_two_term_extraction_matches_old():
    grid = disc.PolarGrid(n_r=192, n_theta=192, s_max=4.5)
    two_term_seq = superposition(
        grid, [0.2 + 0.0j, -0.2 + 0.0j], [1, 2, 2, 2, 3, 3], 11
    )
    kw = dict(eps_stop=0.05, max_terms=4, j_max=8)
    runs = {}
    for sweeps in (2, 0):
        new = profiles.extract(two_term_seq, refine_sweeps=sweeps, **kw)
        old = old_extract(two_term_seq, refine_sweeps=sweeps, **kw)
        assert len(new.terms) == 2
        assert_same_decomposition(new, old)
        runs[sweeps] = new
    # the refine sweep replaced the greedy terms: refits were accepted
    assert any(
        not np.array_equal(a.w.values, b.w.values)
        for a, b in zip(runs[2].terms, runs[0].terms)
    )


def test_one_term_extraction_matches_old():
    grid = disc.PolarGrid(n_r=160, n_theta=160, s_max=4.5)
    seq = superposition(grid, [0.1 + 0.05j], [1, 1, 2, 2, 2, 3], 7)
    kw = dict(eps_stop=0.05, max_terms=3, j_max=8)
    new = profiles.extract(seq, **kw)
    old = old_extract(seq, **kw)
    assert len(new.terms) == 1
    assert_same_decomposition(new, old)


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


@pytest.mark.parametrize("kw", [
    dict(eps=0.01, j_max=16, top_k=4),
    dict(eps=0.01, j_max=16, top_k=4, refine=False),
    dict(eps=1e-4, j_max=12, top_k=2, refine=False),
    dict(eps=0.05),
], ids=["refine", "raw", "dweak", "defaults"])
def test_detector_matches_old_exactly(kw):
    for name, u in detector_inputs().items():
        new = disc.concentration_detect(u, **kw)
        old = old_concentration_detect(u, **kw)
        assert_same_detections(new, old, exact=not kw.get("refine", True))
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
    energies = sorted(
        profiles._fit_term(members, *profiles._track_candidate(members, d, 8), grid)[0]
        .energy()
        for d in starts
    )
    limits = [math.inf] + energies + [0.0]  # 0.0 rejects every start
    return members, starts, grid, limits, {}


def place(members, starts, grid, limit):
    members = list(members)
    placed = profiles._place_term(
        members, starts, 8, grid, lambda t: t.energy() <= limit
    )
    return placed, members


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_placement_ignores_the_order_of_starts(placement_setup, data):
    members, starts, grid, limits, cache = placement_setup
    limit = data.draw(st.sampled_from(limits))
    order = data.draw(st.permutations(range(len(starts))))
    if limit not in cache:
        cache[limit] = place(members, starts, grid, limit)
    ref, ref_members = cache[limit]
    got, got_members = place(members, [starts[k] for k in order], grid, limit)
    if ref is None:
        assert got is None
        assert all(a is b for a, b in zip(got_members, members))
        return
    assert got[0] == ref[0]
    a, b = got[1], ref[1]
    assert a.j_track == b.j_track and a.zeta_track == b.zeta_track
    assert np.array_equal(a.w.nodes, b.w.nodes)
    assert np.array_equal(a.w.values, b.w.values)
    for u, v in zip(got_members, ref_members):
        assert u.center == v.center and np.array_equal(u.rings, v.rings)
