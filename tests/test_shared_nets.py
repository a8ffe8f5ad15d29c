"""Polar nets built once and sampled for every function that shares them.

`disc._Net` splits bilinear sampling in two: a gather plan, built once from
(grid, block width, points), and `sample(u)`, which only gathers and
combines.  The detector scan builds one net per scale, the grouped deflation
one per (j, zeta) and the angular profiles one per center, and each samples
every member that shares it.  The references are the code before the nets,
kept verbatim: `old_interpolate` (conftest), the per-member scores below, the
one-member deflation and angular profile (test_polar_net), the detector
(test_placement) and `dweak_test` below.  Every output must equal theirs bit
for bit.
"""

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, functional, profiles, radial, seqgen
from conftest import old_interpolate
from test_experiment_layer import zero_member
from test_placement import old_concentration_detect
from test_polar_net import (
    bumps, detector_cases, grids, old_angular_profile_around, old_deflate, points,
    rough_disc, same_disc, seeds,
)


def detections(us, eps, j_max, refine, top_k):
    """concentration_detect of every member, from one scan of them all."""
    return [disc._detect(u, rows, eps, j_max, refine, top_k)
            for u, rows in zip(us, disc._scan(us, j_max))]


# -- references: the replaced code -----------------------------------------------

_OLD_GL8_X, _OLD_GL8_W = np.polynomial.legendre.leggauss(8)
_OLD_BALL_RHO = np.sqrt(0.5 * (_OLD_GL8_X + 1.0))
_OLD_BALL_PHI = 2.0 * math.pi * np.arange(16) / 16
_OLD_BALL_W = np.repeat(0.5 * _OLD_GL8_W / 16, 16)


def old_polar_samples(u, centers, radii, phis):
    pts = np.asarray(centers)[..., None] + np.asarray(radii)[..., None] * np.exp(1j * phis)
    return old_interpolate(u, pts.ravel()).reshape(pts.shape)


def old_average_many(u, radius, zs):
    radius, zs = np.asarray(radius, dtype=float), np.asarray(zs)
    vals = old_polar_samples(u, zs[..., None], radius[..., None] * _OLD_BALL_RHO, _OLD_BALL_PHI)
    return vals.reshape(np.broadcast_shapes(radius.shape, zs.shape) + (-1,)) @ _OLD_BALL_W


def old_scores(u, js, zs):
    js = np.asarray(js)
    radii = np.reshape([disc.RHO ** int(j) for j in js.flat], js.shape)
    return np.abs(old_average_many(u, radii, zs)) * (1.0 / np.sqrt(js))


def old_dweak_test(seq, probe_count=6, seed=0, n_random_tracks=6, j_max=24):
    """`profiles.dweak_test` as it was: one detection and one deflation per member."""
    members = profiles._as_disc_members(seq)
    rng = np.random.default_rng(seed)
    probes: dict = {}

    tracks = [(1, 0.0 + 0.0j, "identity")]
    for _ in range(n_random_tracks):
        j = int(rng.integers(1, j_max + 1))
        zeta = complex(*(rng.uniform(-0.35, 0.35, size=2)))
        tracks.append((j, zeta, "random"))

    per_member = []
    witness = None
    for u in members:
        cands = old_concentration_detect(
            u, eps=1e-4, j_max=j_max, top_k=2, refine=False
        )
        local = tracks + [(c[0].j, c[0].zeta, "detector") for c in cands]
        best = 0.0
        best_track = None
        for j, zeta, kind in local:
            try:
                w = old_deflate(u, disc.DislocationParam(j, zeta))
            except ValueError:
                continue
            key = (w.grid, w.order)
            if key not in probes:
                probes[key] = disc.make_probes(w.grid, probe_count, w.order)
            val = disc.max_pairing(w, probes[key])
            if val > best:
                best = val
                best_track = {"j": j, "zeta": [zeta.real, zeta.imag], "kind": kind}
        per_member.append(best)
        witness = best_track if best_track is not None else witness
    if functional.tail_decayed(per_member, 0.5, 0.05):
        verdict = "dweak-null-evidence"
    else:
        verdict = "non-vanishing"
    return profiles.DWeakReport(tuple(per_member), witness, verdict)


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
    kw = dict(eps=eps, j_max=10, refine=False, top_k=top_k)
    assert detections(us, **kw) == [old_concentration_detect(u, **kw) for u in us]
    # refined, every member's detections are its one-member ones
    kw["refine"] = True
    assert detections(us, **kw) == [disc.concentration_detect(u, **kw) for u in us]


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
    got = disc._angular_profiles(us, zetas, n_phi)
    for u, zeta, prof in zip(us, zetas, got):
        old = old_angular_profile_around(u, zeta, n_phi)
        assert np.array_equal(prof.nodes, old.nodes) and np.array_equal(prof.values, old.values)


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
    seq = make_seq()
    new, old = profiles.dweak_test(seq, **kw), old_dweak_test(seq, **kw)
    assert new == old


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

    clean = profiles.dweak_test(seq, **kw)
    monkeypatch.setattr(disc.DiscFunction, "_owned", staticmethod(failing))
    new = profiles.dweak_test(seq, **kw)
    old = old_dweak_test(seq, **kw)
    assert len(hits) == 2  # one (member, track) pair, once in each test
    assert new == old
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
    kw = dict(probe_count=3, n_random_tracks=3, j_max=6, seed=1)
    rep = profiles.dweak_test(seq, **kw)
    assert all(ref() is None for ref in nets)
    built = len(nets)
    members = profiles._as_disc_members(seq)
    dets = detections(members, 1e-4, kw["j_max"], refine=False, top_k=2)
    rng = np.random.default_rng(kw["seed"])
    tracks = {(1, 0j)}
    for _ in range(kw["n_random_tracks"]):
        j = int(rng.integers(1, kw["j_max"] + 1))
        tracks.add((j, complex(*(rng.uniform(-0.35, 0.35, size=2)))))
    tracks |= {(c[0].j, c[0].zeta) for cands in dets for c in cands}
    assert built == kw["j_max"] + len(tracks)
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
    disc.angular_profile_around(u, 0.05, 16)
    disc.concentration_detect(u, 1e-3, j_max=4, top_k=2)
    u.interpolate(np.linspace(0, 1, 9))
    assert nets and all(ref() is None for ref in nets)
