"""The extractor's hot path: the batched matched filter, one bubble per fit and
one bubble block per (j, zeta) group and ring block in an application, one tail
energy per placement, one bubble per (term, j, zeta) and one -log|z - zeta|
field per term and center in the superposition generator, and disc results
built on fresh arrays without a copy.

The matched filter is checked against the `h1_inner(gauge_apply(...))` loop it
replaces; the members after a placement are checked bit for bit against the
one bubble rule in test_remainder_path.py.
"""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, profiles, radial, seqgen
from conftest import old_add, old_apply_bubbles, same_disc, smooth_plateau_profile

REL = 1e-12


# -- the matched filter ------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    j_max=st.integers(1, 24),
    base_segments=st.integers(1, 8),
    ref_segments=st.integers(1, 8),
    # up to 8: the reference nodes run past the end of the base profile
    # (which stops by t = 3) even before it is dilated
    ref_reach=st.floats(0.1, 8.0),
)
def test_dilation_pairings_match_the_h1_loop(
    seed, j_max, base_segments, ref_segments, ref_reach
):
    rng = np.random.default_rng(seed)
    base = radial.random_profile(rng, segments=base_segments, t_max=3.0)
    ref = radial.random_profile(
        rng, segments=ref_segments, t_max=max(ref_reach, 0.06 + 1e-3 * ref_segments)
    )
    loop = np.array([
        radial.h1_inner(radial.gauge_apply(base, float(j)), ref)
        for j in range(1, j_max + 1)
    ])
    batched = profiles._dilation_pairings(base, ref, j_max)
    assert batched.shape == loop.shape
    # relative to the Cauchy-Schwarz bound |<g_j base, ref>| <= |base| |ref|
    # (dilation is an isometry): a pairing can be small by cancellation
    scale = radial.grad_norm(base) * radial.grad_norm(ref)
    assert np.max(np.abs(batched - loop)) <= REL * scale
    assert int(np.argmax(batched)) == int(np.argmax(loop))


def test_extractor_makes_no_h1_pairings(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the tracker pairs through _dilation_pairings")

    monkeypatch.setattr(radial, "h1_inner", forbidden)
    monkeypatch.setattr(profiles, "h1_inner", forbidden, raising=False)
    grid = disc.PolarGrid(n_r=96, n_theta=64, s_max=4.5)
    w = smooth_plateau_profile(0.69, 1.0)
    seq, _ = seqgen.synthetic_superposition(
        [profiles.ProfileTerm(w, [1, 2, 2, 3], [0.2 + 0.0j] * 4)], 0.01, seed=3, grid=grid
    )
    assert len(profiles.extract(seq, eps_stop=0.05, max_terms=2, j_max=8).terms) == 1


# -- one bubble per fit, one bubble block per (j, zeta) group and ring block ----------

def test_extract_inflates_once_per_fit_and_per_group(monkeypatch):
    grid = disc.PolarGrid(n_r=192, n_theta=128, s_max=4.5)
    w = smooth_plateau_profile(0.69, 1.0)
    jt = [1, 2, 2, 2, 3, 3]
    seq, _ = seqgen.synthetic_superposition(
        [profiles.ProfileTerm(w, jt, [z] * 6) for z in (0.2 + 0.0j, -0.2 + 0.0j)],
        0.01, seed=11, grid=grid, k_list=list(range(1, 7)),
    )
    count = {"inflate": 0, "fit": 0}
    built = []  # weak references to the fits' bubbles
    field = []  # the (zeta, a, b) of the field block last read
    rows = []  # the (j, zeta, a, b) of every bubble block built
    groups = []  # (distinct (j, zeta) pairs, distinct zeta, members touched) per application
    tail_energies = []  # per placement, the pairings of its tail member with itself
    inflated, log_distance, bubble_rows, pair = (
        disc._inflated, disc._log_distance, disc._bubble_rows, disc._pair)
    fit_term, apply_bubbles = profiles._fit_term, profiles._apply_bubbles
    place_term = profiles._place_term

    # every whole-grid bubble, `disc.inflate`'s included, is built by `_inflated`
    def counted_inflated(*args, **kwargs):
        # one bubble alive at a time: every earlier one is freed
        assert all(ref() is None for ref in built)
        count["inflate"] += 1
        us = inflated(*args, **kwargs)
        built.extend(weakref.ref(u) for u in us)
        return us

    def counted_field(grid, zeta):
        for a, b, block in log_distance(grid, zeta):
            field[:] = [(zeta, a, b)]
            yield a, b, block

    def counted_rows(w, j, block, out):
        rows.append((j, *field[0]))
        return bubble_rows(w, j, block, out)

    def counted_fit(*args, **kwargs):
        count["fit"] += 1
        return fit_term(*args, **kwargs)

    def counted_apply(op, members, term, grid):
        indices = range(len(members))
        before, inflates = len(rows), count["inflate"]
        apply_bubbles(op, members, term, grid)
        pairs = {(term.j_track[i], term.zeta_track[i]) for i in indices}
        centers = {term.zeta_track[i] for i in indices}
        # no whole-grid bubble: each (j, zeta) is built once per ring block, and
        # its blocks tile rings 0 .. n_r - 2 (the boundary ring is 0)
        assert count["inflate"] == inflates
        built_rows = rows[before:]
        assert len(set(built_rows)) == len(built_rows)
        assert {(j, z) for j, z, _, _ in built_rows} == pairs
        for j, z in pairs:
            spans = sorted((a, b) for jj, zz, a, b in built_rows if (jj, zz) == (j, z))
            assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]]
            assert spans[-1][1] == grid.n_r - 1
        groups.append((len(pairs), len(centers), len(indices)))

    def counted_place(members, *args):
        tail_energies.append(0)

        def counted_pair(u, vs):
            tail_energies[-1] += u is members[-1] and len(vs) == 1 and vs[0] is u
            return pair(u, vs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(disc, "_pair", counted_pair)
            return place_term(members, *args)

    # blocks of a few rings, so that each group spans several
    monkeypatch.setattr(disc, "_BLOCK", 16 * grid.n_theta)
    monkeypatch.setattr(disc, "_inflated", counted_inflated)
    monkeypatch.setattr(disc, "_log_distance", counted_field)
    monkeypatch.setattr(disc, "_bubble_rows", counted_rows)
    monkeypatch.setattr(profiles, "_fit_term", counted_fit)
    monkeypatch.setattr(profiles, "_apply_bubbles", counted_apply)
    monkeypatch.setattr(profiles, "_place_term", counted_place)
    dec = profiles.extract(seq, eps_stop=0.05, max_terms=4, j_max=8)

    assert len(dec.terms) == 2
    # the greedy placements and the refits: one tail energy each, for all of its fits
    assert len(tail_energies) > 2 and tail_energies == [1] * len(tail_energies)
    # two greedy subtractions, then add-backs (and accepted refits) per sweep
    assert len(groups) > 2
    assert count["inflate"] == count["fit"]
    # the tracks repeat (j, zeta): fewer bubbles than members touched, and
    # fewer centers than bubbles
    assert sum(c for _, c, _ in groups) < sum(n for n, _, _ in groups)
    assert sum(n for n, _, _ in groups) < sum(m for _, _, m in groups)


def test_superposition_builds_one_bubble_per_term_j_and_zeta(monkeypatch):
    grid = disc.PolarGrid(n_r=96, n_theta=64, s_max=4.5)
    w = smooth_plateau_profile(0.69, 1.0)
    terms = [profiles.ProfileTerm(w, [1, 2, 2, 2, 3, 3], [z] * 6) for z in (0.2, -0.2)]
    built, fields = [], []  # bubble (j, zeta, weakref); fields
    inflated, log_distance = disc._inflated, disc._log_distance

    def counted_inflated(w, zeta, js, *args, **kwargs):
        us = inflated(w, zeta, js, *args, **kwargs)
        built.extend((j, zeta, weakref.ref(u)) for j, u in zip(js, us))
        return us

    def counted_field(grid, zeta):
        fields.append(zeta)
        return log_distance(grid, zeta)

    monkeypatch.setattr(disc, "_inflated", counted_inflated)
    monkeypatch.setattr(disc, "_log_distance", counted_field)
    seq, _ = seqgen.synthetic_superposition(terms, 0.0, seed=3, grid=grid)

    # each term's track has its own center, so (j, zeta) names the term
    distinct = {(j, z) for t in terms for j, z in zip(t.j_track, t.zeta_track)}
    assert len(built) == len(distinct) == 6
    assert {(j, z) for j, z, _ in built} == distinct
    assert fields == [0.2, -0.2]  # one field per term and center
    assert all(ref() is None for *_, ref in built)  # every member is a sum
    assert len(seq.members) == 6
    # each member is the sum, in term order, of its whole-grid bubbles
    expect = [None] * 6
    for t in terms:
        old_apply_bubbles(lambda acc, b: b if acc is None else old_add(acc, b), expect, t, grid)
    assert all(same_disc(u, v) for u, v in zip(seq.members, expect))


# -- disc results own fresh arrays -----------------------------------------------------

GRID = disc.PolarGrid(n_r=32, n_theta=32, s_max=4.0)


def sample(seed, boundary=0.0, peak=1.0):
    rings = np.random.default_rng(seed).normal(size=(GRID.n_r, GRID.n_theta))
    rings *= peak / np.max(np.abs(rings[:-1]))
    rings[-1] = boundary
    return disc.DiscFunction(GRID, 0.5, rings, support_radius=0.9)


def test_results_are_read_only_and_share_no_memory():
    u, v = sample(1), sample(2)
    w = smooth_plateau_profile(0.3, 1.0)
    bubble = disc.inflate(w, disc.DislocationParam(2, 0.1j), GRID)
    results = {
        "add": (disc.add(u, v), [u, v]),
        "subtract": (disc.subtract_disc(u, v), [u, v]),
        "scale": (disc.scale_disc(u, 1.5), [u]),
        "scale_by_1": (disc.scale_disc(u, 1.0), [u]),
        "inflate": (bubble, []),
        "deflate": (disc.deflate(u, disc.DislocationParam(1, 0.0)), [u]),
        "deflate_j3": (disc.deflate(bubble, disc.DislocationParam(3, 0.1j)), [bubble]),
    }
    for name, (out, inputs) in results.items():
        assert not out.rings.flags.writeable, name
        with pytest.raises(ValueError):
            out.rings[0, 0] = 1.0
        for x in inputs:
            assert not np.shares_memory(out.rings, x.rings), name
        assert not np.shares_memory(out.rings, w.values) and not np.shares_memory(
            out.rings, w.nodes
        ), name
    assert np.array_equal(results["add"][0].rings, u.rings + v.rings)
    assert np.array_equal(results["scale_by_1"][0].rings, u.rings)


def test_fresh_results_are_still_validated():
    u = sample(1)
    huge = sample(2, peak=1e308)
    with np.errstate(over="ignore"):  # the sums overflow to inf: not finite
        with pytest.raises(ValueError, match="finite"):
            disc.add(huge, huge)
        with pytest.raises(ValueError, match="finite"):
            disc.scale_disc(huge, 10.0)
    with pytest.raises(ValueError, match="finite"):
        disc.scale_disc(u, math.nan)
    # each boundary ring is within the zero-trace tolerance of its input, but
    # the combination's is not
    a = sample(3, boundary=0.9e-9)
    rings = -a.rings
    rings[-1] = 0.9e-9
    b = disc.DiscFunction(GRID, 0.5, rings)
    with pytest.raises(ValueError, match="boundary"):
        disc.add(a, b)
    small = sample(4, boundary=0.9e-9, peak=0.5)
    with pytest.raises(ValueError, match="boundary"):
        disc.scale_disc(small, 1.5)
    assert disc.scale_disc(small, 1.0).rings[-1, 0] == 0.9e-9
