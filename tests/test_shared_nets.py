"""Polar nets built once and sampled for every function that shares them.

`disc._Net` splits bilinear sampling in two: a gather plan, built once from
(grid, block width, points), and `sample(u)`, which only gathers and
combines.  The detector scan builds one net per scale, the grouped deflation
one per (j, zeta) and the angular profiles one per center, and each samples
every member that shares it.  The references are the oracles in conftest
(the direct sampler, the detector scores and detector, the one-block
deflation and the dislocation-weak test one member at a time) and the live
one-member calls.  Every output must equal theirs bit for bit.
"""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, profiles, radial, seqgen
from conftest import (
    assert_same_dweak, bumps, detections, detector_cases, dweak_test_at, grids,
    old_concentration_detect, old_deflate, old_dweak_test, old_interpolate, old_scores, points,
    rough_disc, same_disc, seeds, smooth_plateau_profile, zero_member,
)


# -- one net, sampled bit-equal to the old interpolation ------------------------------

orders = st.sampled_from([1, 2, 4, 8])


def edge_points(grid, a: float) -> np.ndarray:
    """Points on every branch and boundary of the sampler, at angle a."""
    r0 = float(disc._ring_radii(grid)[0])
    e = complex(math.cos(a), math.sin(a))
    mid = math.sqrt(r0)  # a radius inside the ring region
    node = grid.dtheta * np.arange(0, grid.n_theta, 7)
    below = math.nextafter(2.0 * math.pi, 0.0)
    return np.concatenate([
        [0.0, -0.0 + 0.0j, complex(0.0, -0.0)],  # the origin
        [0.5 * r0 * e, math.nextafter(r0, 0.0) * e],  # inside the cap
        [r0 * e, r0 + 0j, math.nextafter(r0, 1.0) * e],  # on r = r0
        [e, 1.0 + 0j, -1.0 + 0j, 1j, math.nextafter(1.0, 0.0) * e],  # on |z| = 1
        [1.2 * e, 3.0 + 4.0j],  # outside the disc
        mid * np.exp(1j * node),  # on angular nodes
        [mid * complex(math.cos(below), math.sin(below)),  # theta just below 2 pi
         complex(mid, -1e-17), complex(mid, -1e-300), complex(mid, -0.0),
         complex(r0, -1e-300)],
        # not finite: outside the disc, so they read 0, and without a warning
        [complex("nan"), complex(0.0, math.nan), complex("inf"), -complex("inf"),
         complex(math.inf, math.inf)],
    ])


@settings(max_examples=60, deadline=None)
@given(grids(), seeds, seeds, orders, st.floats(0.0, 2.0 * math.pi),
       st.lists(points(1.3), max_size=200))
def test_net_samples_are_bit_equal_to_the_old_interpolation(grid, seed_u, seed_v, order, a, zs):
    u, v = rough_disc(grid, seed_u, order), rough_disc(grid, seed_v, order)
    z = np.concatenate([edge_points(grid, a), np.asarray(zs, dtype=complex)])
    net = disc._Net(grid, u.rings.shape[1], z)
    # one net serves every function of its grid and block width
    for w in (u, v):
        assert np.array_equal(net.sample(w), old_interpolate(w, z))
        assert np.array_equal(w.interpolate(z), old_interpolate(w, z))
    # in the shape of the points
    assert np.array_equal(net.sample(u), disc._Net(grid, u.rings.shape[1], z[:, None]).sample(u)[:, 0])


@settings(max_examples=30, deadline=None)
@given(grids(), seeds, orders, st.lists(points(0.99), min_size=2, max_size=50))
def test_nets_of_ring_points_only_are_bit_equal(grid, seed, order, zs):
    """Every point in the ring region: no cap point and none outside."""
    u = rough_disc(grid, seed, order)
    r0 = float(disc._ring_radii(grid)[0])
    z = np.asarray([x if abs(x) >= r0 else r0 + 0j for x in zs])
    net = disc._Net(grid, u.rings.shape[1], z)
    assert np.array_equal(net.sample(u), old_interpolate(u, z))


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (0,), (0, 3), (2, 3), (3, 1, 2)])
def test_interpolate_keeps_the_shape_of_z(shape):
    grid = disc.PolarGrid(n_r=24, n_theta=32, s_max=3.0)
    u = rough_disc(grid, 5)
    rng = np.random.default_rng(0)
    z = rng.uniform(-0.8, 0.8, size=shape) + 1j * rng.uniform(-0.8, 0.8, size=shape)
    got = u.interpolate(z)
    assert got.shape == shape and got.dtype == float
    assert np.array_equal(got.ravel(), np.atleast_1d(old_interpolate(u, z.ravel())).ravel()
                          if z.size else np.zeros(0))


# -- the members that share a net ----------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(grids(), st.lists(st.tuples(seeds, st.sampled_from([1, 1, 2, 4])), min_size=1, max_size=4),
       st.integers(1, 8))
def test_scan_rows_are_the_per_member_scores(grid, members, j_max):
    us = [rough_disc(grid, seed, order) for seed, order in members]
    rows = disc._scan(us, j_max)
    assert rows.shape == (len(us), j_max, disc._CENTERS.size)
    for u, row in zip(us, rows):
        for j in range(1, j_max + 1):
            assert np.array_equal(row[j - 1], old_scores(u, j, disc._CENTERS))


@settings(max_examples=15, deadline=None)
@given(detector_cases, seeds, st.sampled_from([1e-4, 0.005, 0.05]), st.integers(1, 6))
def test_detections_of_many_members_are_the_old_ones(case, seed, eps, top_k):
    """The vectorized ranking keeps the old sort: at eps 1e-4 most (j, zeta) qualify."""
    grid, seed0, centers, js, noise = case
    us = [bumps(grid, seed0, centers, js, noise), rough_disc(grid, seed),
          bumps(grid, seed0 + 1, centers[::-1], js, noise)]
    kw = dict(eps=eps, j_max=10, top_k=top_k)
    assert detections(us, refine=False, **kw) == [
        old_concentration_detect(u, refine=False, **kw) for u in us]
    # refined, every member's detections are its one-member ones
    assert detections(us, refine=True, **kw) == [disc.concentration_detect(u, **kw) for u in us]


@settings(max_examples=30, deadline=None)
@given(grids(), st.lists(st.tuples(seeds, st.sampled_from([1, 2])), min_size=1, max_size=4),
       points(0.95), st.sampled_from([1, 2, 3, 8]))
def test_grouped_deflations_are_the_one_member_ones(grid, members, zeta, j):
    """Members of mixed block widths: each is deflated once, bit-equal to the old deflate."""
    us = [rough_disc(grid, seed, order) for seed, order in members]
    d = disc.DislocationParam(j, zeta)
    seen = []
    for k, vals in disc._deflation_samples(us, d):
        seen.append(k)
        assert same_disc(disc._deflated(us[k], d, vals), old_deflate(us[k], d))
    assert sorted(seen) == list(range(len(us)))
    for u in us:
        assert same_disc(disc.deflate(u, d), old_deflate(u, d))


@settings(max_examples=25, deadline=None)
@given(grids(), st.lists(st.tuples(seeds, st.integers(0, 2)), min_size=1, max_size=6),
       st.lists(points(0.95), min_size=3, max_size=3), st.sampled_from([None, 16, 64]))
def test_grouped_angular_profiles_are_the_one_member_ones(grid, members, centers, n_phi):
    us = [rough_disc(grid, seed) for seed, _ in members]
    zetas = [centers[c] for _, c in members]  # centers repeat across members
    n_phi = grid.n_theta if n_phi is None else n_phi
    got = disc._angular_profiles(us, zetas, n_phi)
    for u, zeta, prof in zip(us, zetas, got):
        one = disc._angular_profiles([u], [zeta], n_phi)[0]
        assert np.array_equal(prof.nodes, one.nodes) and np.array_equal(prof.values, one.values)


# -- the dislocation-weak test -----------------------------------------------------------

MIXED_GRID = disc.PolarGrid(n_r=48, n_theta=64, s_max=4.0)


def first_block(u, order):
    """The j-fold function u as an order-j function: its first block of columns."""
    width = u.grid.n_theta // order
    return disc.DiscFunction(u.grid, u.center, u.rings[:, :width], u.support_radius, order=order)


DWEAK_CASES = [
    (lambda: seqgen.counterexample_sequence(8),
     dict(probe_count=4, n_random_tracks=4, j_max=10)),
    (lambda: seqgen.moser_sequence(
        [math.exp(-k) for k in (1, 2, 3, 4)], [0.1 + 0.05j] * 4,
        grid=disc.PolarGrid(n_r=192, n_theta=96, s_max=7.0)),
     dict(probe_count=5, n_random_tracks=2, j_max=8, seed=3)),
    (lambda: profiles.FunctionSequence(
        [zero_member(), seqgen.moser_sequence(
            [0.3], [0.0], grid=disc.PolarGrid(n_r=96, n_theta=64, s_max=5.0)
        ).members[0], zero_member()], [1, 2, 3]),
     dict(probe_count=3, n_random_tracks=2, j_max=4)),
    # members of three symmetry orders on one grid: one net per block width
    (lambda: profiles.FunctionSequence(
        [disc.inflate(radial.moser_annular(0.8, 0.4), disc.DislocationParam(1, 0.2), MIXED_GRID),
         first_block(disc.angular_mode(radial.moser_annular(0.8, 0.4), MIXED_GRID, 2), 2),
         first_block(disc.angular_mode(radial.moser_annular(1.2, 0.3), MIXED_GRID, 4), 4),
         disc.inflate(radial.moser_annular(1.5, 0.2), disc.DislocationParam(2, 0.0), MIXED_GRID)],
        [1, 2, 3, 4]),
     dict(probe_count=4, n_random_tracks=3, j_max=5, seed=7)),
    # radial profiles: the members are inflated onto one grid first
    (lambda: profiles.FunctionSequence(
        [radial.moser_annular(0.8, 0.4), radial.moser_annular(0.5, 0.3)], [1, 2]),
     dict(probe_count=3, n_random_tracks=3, j_max=6, seed=2)),
]


@pytest.mark.parametrize("make_seq, kw", DWEAK_CASES,
                         ids=["counterexample", "moser", "zero-members", "mixed-orders", "radial"])
def test_dweak_test_is_exactly_the_old_one(make_seq, kw):
    """The old verdict and witness; per-member pairings to 1e-12 relative."""
    seq = make_seq()
    assert_same_dweak(dweak_test_at(seq, **kw), old_dweak_test(seq, **kw))


def test_tracks_tied_in_exact_arithmetic_give_the_first_as_witness():
    """A radial member deflated at its center pairs equally at j = 1 and 3 in
    exact arithmetic.  However rounding orders their stack pairings, within
    1e-13 (relative) either way, the witness is the first of the tied tracks;
    a track well below the largest is never the witness."""
    u = disc.inflate(radial.moser_annular(1.5, 0.2), disc.DislocationParam(2, 0.0), MIXED_GRID)
    tracks = [(1, 0j, "identity"), (3, 0j, "detector"), (1, 0j, "detector")]
    stack = []
    for j, zeta, _ in tracks:
        w = disc.deflate(u, disc.DislocationParam(j, zeta))
        stack.append(disc.max_pairing(w, disc._ProbeStack(w.grid, disc._PROBE_COUNT, w.order)))
    best = max(stack)
    assert stack[0] == stack[2] and stack[1] == pytest.approx(best, rel=1e-14)
    assert profiles._witness_track(tracks, stack) == tracks[0]
    for eps in (1e-13, -1e-13):
        for vals in ([best, best * (1 + eps), best], [best * (1 + eps), best, best * (1 + eps)]):
            assert profiles._witness_track(tracks, vals) == tracks[0]
    assert profiles._witness_track(tracks, [0.5 * best, best, best * (1 - 1e-13)]) == tracks[1]
    assert profiles._witness_track(tracks, [0.0, 0.5 * best, best]) == tracks[2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.floats(0.0, 0.999), st.floats(-1e-13, 1e-13)),
                min_size=1, max_size=12).filter(lambda es: any(tied for tied, _, _ in es)),
       st.floats(1e-300, 1e300))
def test_the_witness_is_the_first_of_the_tied_tracks(entries, top):
    """Tracks tied at the top to 1e-13 (relative), the others at least 1e-3
    below: the witness is the first tied track, in whatever order rounding
    left their pairings."""
    vals = [top * (1.0 + e) if tied else top * x for tied, x, e in entries]
    tracks = [(i, 0j, "random") for i in range(len(vals))]
    first = next(i for i, (tied, _, _) in enumerate(entries) if tied)
    assert profiles._witness_track(tracks, vals) == tracks[first]


def test_a_deflation_failing_for_one_member_skips_only_that_pair(monkeypatch):
    """The first member's deflation on one random track raises; its group goes on."""
    seq = seqgen.counterexample_sequence(6)
    kw = dict(probe_count=4, n_random_tracks=3, j_max=8, seed=4)
    rng = np.random.default_rng(kw["seed"])
    j = int(rng.integers(1, kw["j_max"] + 1))
    zeta = complex(*(rng.uniform(-0.35, 0.35, size=2)))
    first = profiles._as_disc_members(seq)[0]
    target = old_deflate(first, disc.DislocationParam(j, zeta)).rings
    owned = disc.DiscFunction._owned
    hits = []

    def failing(grid, center, rings, *args, **kwargs):
        if rings.shape == target.shape and np.array_equal(rings, target):
            hits.append(center)
            raise ValueError("this deflation fails")
        return owned(grid, center, rings, *args, **kwargs)

    clean = dweak_test_at(seq, **kw)
    monkeypatch.setattr(disc.DiscFunction, "_owned", staticmethod(failing))
    new = dweak_test_at(seq, **kw)
    old = old_dweak_test(seq, **kw)
    assert len(hits) == 2  # one (member, track) pair, once in each test
    assert_same_dweak(new, old)
    assert new.per_member[1:] == clean.per_member[1:]


# -- memory: one net alive at a time ----------------------------------------------------

@pytest.fixture
def nets(monkeypatch):
    """Weak references to every net built; building one asserts the earlier ones are freed."""
    built = []

    class Recorded(disc._Net):
        def __init__(self, *args):
            assert all(ref() is None for ref in built), "a net outlived the next build"
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(disc, "_Net", Recorded)
    return built


def test_the_scan_builds_one_net_per_scale_and_width_and_frees_it(nets):
    grid = disc.PolarGrid(n_r=48, n_theta=64, s_max=4.0)
    # two block widths: one net per scale and width
    us = [rough_disc(grid, s, order) for s, order in enumerate([1, 2, 1, 2])]
    detections(us, 1e-3, 6, refine=False, top_k=2)
    assert len(nets) == 2 * 6
    assert all(ref() is None for ref in nets)


def test_dweak_builds_one_net_per_scale_and_per_track_and_frees_them(nets):
    seq = seqgen.counterexample_sequence(5)
    j_max = 6
    rep = profiles.dweak_test(seq, j_max=j_max)
    assert all(ref() is None for ref in nets)
    built = len(nets)
    members = profiles._as_disc_members(seq)
    dets = detections(members, 1e-4, j_max, refine=False, top_k=2)
    rng = np.random.default_rng(profiles._DWEAK_SEED)
    tracks = {(1, 0j)}
    for _ in range(profiles._DWEAK_TRACKS):
        j = int(rng.integers(1, j_max + 1))
        tracks.add((j, complex(*(rng.uniform(-0.35, 0.35, size=2)))))
    tracks |= {(c[0].j, c[0].zeta) for cands in dets for c in cands}
    assert built == j_max + len(tracks)
    assert rep.per_member


def test_angular_profiles_build_one_net_per_center_and_free_it(nets):
    grid = disc.PolarGrid(n_r=48, n_theta=64, s_max=4.0)
    us = [rough_disc(grid, s) for s in range(5)]
    zetas = [0.1j, 0.2, 0.1j, 0.1j, 0.2]
    disc._angular_profiles(us, zetas, 32)
    assert len(nets) == 2
    assert all(ref() is None for ref in nets)


def test_one_member_calls_free_their_nets(nets):
    grid = disc.PolarGrid(n_r=48, n_theta=64, s_max=4.0)
    u = rough_disc(grid, 3)
    disc.deflate(u, disc.DislocationParam(3, 0.1 + 0.1j))
    disc._angular_profiles([u], [0.05], 16)
    disc.concentration_detect(u, 1e-3, j_max=4, top_k=2)
    u.interpolate(np.linspace(0, 1, 9))
    assert nets and all(ref() is None for ref in nets)


def test_a_repeated_start_builds_no_angular_profile_net(nets, monkeypatch):
    """Within one placement each (member, center) angular profile is sampled
    once: a start that repeats an earlier one builds no angular-profile net."""
    grid = disc.PolarGrid(n_r=96, n_theta=96, s_max=4.5)
    terms = [profiles.ProfileTerm(smooth_plateau_profile(0.69, 1.0), [1, 2, 2, 3], [0.2] * 4)]
    members = list(seqgen.synthetic_superposition(terms, 0.01, seed=3, grid=grid)[0].members)
    d0 = disc.concentration_detect(members[-1], eps=0.0125, j_max=8, top_k=1)[0][0]
    angular_profiles, built = disc._angular_profiles, []

    def recorded(us, zetas, n_phi):
        before = len(nets)
        out = angular_profiles(us, zetas, n_phi)
        built.append(len(nets) - before)
        return out

    monkeypatch.setattr(disc, "_angular_profiles", recorded)
    once = profiles._place_term([disc._owned_copy(u) for u in members], [d0], 8,
                                lambda t: True)
    assert sum(built) > 0
    first = built.copy()
    twice = profiles._place_term([disc._owned_copy(u) for u in members], [d0, d0], 8,
                                 lambda t: True)
    assert built[len(first):] == first + [0]
    assert once[0] == twice[0] and once[1].zeta_track == twice[1].zeta_track
    assert once[1].w.values.tobytes() == twice[1].w.values.tobytes()
    assert all(ref() is None for ref in nets)


def test_dweak_builds_each_probe_set_once_in_increasing_j_and_frees_it(monkeypatch):
    """One probe stack per output (grid, order), built in nondecreasing j; when
    a stack is built, the one before it is freed."""
    built, refs = [], []

    class Recorded(disc._ProbeStack):
        def __init__(self, grid, count, order):
            assert all(ref() is None for ref in refs), "a probe stack outlived the next build"
            super().__init__(grid, count, order)
            built.append((grid, order))
            refs.append(weakref.ref(self))

    monkeypatch.setattr(disc, "_ProbeStack", Recorded)
    seq = seqgen.moser_sequence([math.exp(-k) for k in range(1, 5)], [0.1 + 0.05j] * 4)
    rep = profiles.dweak_test(seq, j_max=8)
    assert rep.per_member
    assert len(built) == len(set(built)) > 2
    orders = [order for _, order in built]  # a scale-j deflation has order j
    assert orders == sorted(orders)
    assert all(ref() is None for ref in refs)
