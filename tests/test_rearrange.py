import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import old_rearrange_radial
from moserlab import disc, radial, rearrange, seqgen

INF = math.inf


def disc_mass_oracle(u: radial.RadialProfile, p: int = 2, n: int = 200_000) -> float:
    """(1/pi) int_B |u|^p dx by direct quadrature in the radius variable."""
    r_edges = np.linspace(0.0, 1.0, n + 1)
    r_mid = 0.5 * (r_edges[:-1] + r_edges[1:])
    with np.errstate(divide="ignore"):
        t_mid = -np.log(r_mid)
    vals = np.abs(u.value_at(t_mid)) ** p
    return float(np.sum(vals * 2.0 * r_mid * np.diff(r_edges)))


class TestRearrangeRadial:
    def test_moser_rearrangement_exact(self):
        L = 5.0
        m = radial.moser_from_exponent(L)
        f = rearrange.rearrange_radial(m)
        assert f.kind == "loglin"
        # plateau occupies measure e^{-2L}, values nonincreasing from the sup
        assert f.breakpoints[0] == pytest.approx(math.exp(-2 * L), rel=1e-12)
        assert f.values[0] == pytest.approx(m.plateau, rel=1e-14)
        # already decreasing in r: f*(tau) = u at r = sqrt(tau)
        taus = np.geomspace(1e-6, 1.0, 500)
        expect = m.value_at(-0.5 * np.log(taus))
        assert np.allclose(f.value_at(taus), expect, atol=1e-12)

    def test_equimeasurability_monotone_profiles(self, rng):
        # nondecreasing profiles are represented with zero error
        for _ in range(20):
            steps = np.abs(rng.normal(size=6))
            nodes = np.concatenate(([0.0], np.cumsum(rng.uniform(0.2, 0.8, 6))))
            vals = np.concatenate(([0.0], np.cumsum(steps)))
            u = radial.RadialProfile.from_arrays(nodes, vals, 2)
            f = rearrange.rearrange_radial(u)
            for p in (1, 2, 4):
                assert rearrange.lp_mass_rearranged(f, p) == pytest.approx(
                    radial.lp_mass(u, p), abs=1e-9, rel=1e-11
                )

    def test_equimeasurability_against_disc_quadrature(self):
        m = radial.moser_from_exponent(3.0)
        f = rearrange.rearrange_radial(m)
        assert rearrange.lp_mass_rearranged(f, 2) == pytest.approx(
            disc_mass_oracle(m, 2), rel=1e-6
        )

    def test_equimeasurability_multimodal(self, rng):
        for _ in range(10):
            u = radial.random_profile(rng, segments=8)
            f = rearrange.rearrange_radial(u)
            for p in (1, 2, 4):
                assert rearrange.lp_mass_rearranged(f, p) == pytest.approx(
                    radial.lp_mass(u, p), rel=2e-5, abs=1e-9
                )

    def test_annulus_trapezoid_hand_areas(self):
        h = 0.8
        u = radial.RadialProfile.from_arrays(
            [0.0, 1.0, 1.2, 1.8, 2.0], [0.0, 0.0, h, h, 0.0], 2
        )
        f = rearrange.rearrange_radial(u)
        top_measure = math.exp(-2.4) - math.exp(-3.6)  # plateau annulus
        supp_measure = math.exp(-2.0) - math.exp(-4.0)  # full annulus
        assert f.values[0] == pytest.approx(h)
        assert np.all(f.value_at(np.linspace(1e-9, top_measure, 50)) >= h - 1e-12)
        assert f.value_at(supp_measure * 1.0000001) <= 1e-12
        assert f.value_at(supp_measure * 0.999) > 0.0

    def test_pointwise_monotonicity(self, rng):
        for _ in range(10):
            u = radial.random_profile(rng)
            bigger = radial.RadialProfile.from_arrays(
                u.nodes, np.abs(u.values) * 1.3 + 0.05 * u.nodes / u.nodes[-1], 2
            )
            fu = rearrange.rearrange_radial(u)
            fv = rearrange.rearrange_radial(bigger)
            taus = np.geomspace(1e-9, 1.0, 200)
            assert np.all(fu.value_at(taus) <= fv.value_at(taus) + 1e-9)

    def test_zero_profile(self):
        z = radial.RadialProfile.from_arrays([0.0, 1.0], [0.0, 0.0], 2)
        f = rearrange.rearrange_radial(z)
        assert f.values[0] == 0.0
        assert rearrange.expl2_quasinorm(f) == 0.0


@st.composite
def pl_profiles(draw):
    """PL profiles with sign changes, flat pieces and a plateau, some ending in
    a ramp of length L >= 400, whose top levels have measure below 1e-280."""
    n = draw(st.integers(1, 9))
    widths = draw(st.lists(st.floats(1e-3, 3.0), min_size=n, max_size=n))
    level = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))
    values = [0.0] + draw(st.lists(level, min_size=n, max_size=n))
    for i in draw(st.lists(st.integers(1, n), max_size=3)):
        values[i] = values[i - 1]
    nodes = np.concatenate(([0.0], np.cumsum(widths)))
    ramp = draw(st.sampled_from([None, 400.0, 3e3, 1e5]))
    if ramp is not None:
        nodes = np.append(nodes, nodes[-1] + ramp)
        values.append(values[-1] + draw(st.floats(0.5, 100.0)))
    return radial.RadialProfile(nodes, values)


# every value subnormal: 1e-14 sup|u| and the chord bound underflow to 0
SUBNORMAL_PROFILE = radial.RadialProfile([0.0, 1e-20, 30.0], [0.0, 2e-323, 2e-323])


def same_rearrangement(f, g) -> bool:
    return (
        f.kind == g.kind
        and f.breakpoints.tobytes() == g.breakpoints.tobytes()
        and f.values.tobytes() == g.values.tobytes()
    )


class TestRearrangeRadialEquivalence:
    """The array bisection gives the worklist's breakpoints and values bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(pl_profiles())
    @example(radial.RadialProfile([0.0, 1.0, 2.0], [0.0, 5e-324, -3.0]))
    @example(SUBNORMAL_PROFILE)
    def test_drawn_profiles(self, u):
        # the worklist's kernel warns on a subnormal slope; the live one must not
        with np.errstate(over="ignore", invalid="ignore"):
            want = old_rearrange_radial(u)
        assert same_rearrangement(rearrange.rearrange_radial(u), want)

    def test_counterexample_members(self):
        for u in seqgen.counterexample_sequence(64).members:
            assert same_rearrangement(rearrange.rearrange_radial(u), old_rearrange_radial(u))

    @pytest.mark.parametrize("L", [400.0, 1e3, 1e5])
    def test_moser_ramps(self, L):
        for u in (radial.moser_from_exponent(L), radial.moser_annular(L, 0.3)):
            assert same_rearrangement(rearrange.rearrange_radial(u), old_rearrange_radial(u))


@settings(max_examples=100, deadline=None)
@given(pl_profiles())
@example(SUBNORMAL_PROFILE)
def test_bisection_rounds_are_bounded(u):
    # two anchor calls, then one call per round: every round halves each
    # value gap, and a gap of at most 1e-14 sup|u| is never split; when that
    # bound underflows to 0, one-ulp intervals split into themselves until
    # the cap of 60 rounds
    calls = []
    measure = rearrange._Distribution.measure_above

    def counted(self, lams, strict=True):
        calls.append(np.size(lams))
        return measure(self, lams, strict)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rearrange._Distribution, "measure_above", counted)
        vmax = rearrange.rearrange_radial(u).values[0]
    assert len(calls) <= 2 + (47 if vmax >= sys.float_info.min else 60)


@pytest.mark.parametrize("kind, breakpoints, values", [
    ("step", [0.5, 1.0], [math.nan, 0.0]),
    ("step", [0.5, 1.0], [1.0, math.nan]),
    ("step", [0.5, 1.0], [INF, 1.0]),
    ("step", [math.nan, 1.0], [1.0, 0.5]),
    ("step", [0.2, math.nan, 1.0], [1.0, 0.5, 0.25]),
    ("loglin", [0.5, 1.0], [INF, 1.0, 0.0]),
    ("loglin", [0.5, 1.0], [1.0, math.nan, 0.0]),
])
def test_nonfinite_rearrangements_rejected(kind, breakpoints, values):
    with pytest.raises(ValueError, match="must be finite"):
        rearrange.RearrangedFunction(breakpoints, values, kind)


@pytest.mark.parametrize("p, q, alpha, reason", [
    (math.nan, INF, -0.5, "first index must exceed 1"),
    (INF, math.nan, -0.5, "second index must be positive"),
    (INF, INF, math.nan, "third index must be finite"),
    (INF, 2.0, math.nan, "third index must be finite"),
    (INF, 2.0, INF, "third index must be finite"),
    (2.0, 2.0, -INF, "third index must be finite"),
])
def test_nan_and_infinite_indices_rejected(p, q, alpha, reason):
    with pytest.raises(ValueError, match=reason):
        rearrange.LZIndex(p, q, alpha)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["step", "loglin"]),
       st.lists(st.floats(1e-300, 1.0, exclude_max=True), max_size=30, unique=True), st.data())
def test_pieces_have_one_cap_at_index_0(kind, inner, data):
    # the quasinorm integrators read piece 0 as the cap and the rest as finite pieces
    bp = sorted(inner) + [1.0]
    n = len(bp) + (kind == "loglin")
    values = sorted(data.draw(st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)), reverse=True)
    lo, hi, f_lo, f_hi = rearrange.RearrangedFunction(bp, values, kind).pieces()
    assert np.isinf(hi).tolist() == [True] + [False] * (len(bp) - 1)
    assert np.isfinite(lo).all() and f_lo[0] == f_hi[0] == values[0]


@pytest.mark.parametrize("kind, values", [
    ("step", [3.0, 2.0, 0.5]),
    ("loglin", [3.0, 2.5, 1.0, 0.0]),
])
@pytest.mark.parametrize("shape", [(), (1,), (0,), (2, 3)])
def test_value_at_keeps_the_shape_of_its_input(kind, values, shape):
    f = rearrange.RearrangedFunction([0.1, 0.4, 1.0], values, kind)
    tau = np.linspace(0.05, 1.0, math.prod(shape)).reshape(shape)
    got = f.value_at(tau)
    if shape == ():
        assert isinstance(got, float)
    else:
        assert isinstance(got, np.ndarray) and got.shape == shape
    flat = np.atleast_1d(tau).ravel()
    want = [f.value_at(float(t)) for t in flat]
    assert np.array_equal(np.ravel(got), np.asarray(want, dtype=float))


class TestRearrangeDisc:
    def test_constant_on_support(self):
        grid = disc.PolarGrid(n_r=64, n_theta=32, s_max=6.0)
        prof = radial.RadialProfile.from_arrays([0.0, 1e-6, 20.0], [0.0, 2.0, 2.0], 2)
        u = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
        f = rearrange.rearrange_disc(u)
        # constant except the boundary sliver
        assert f.value_at(0.5) == pytest.approx(2.0, rel=1e-3)

    def test_matches_radial_rearrangement(self):
        grid = disc.PolarGrid(n_r=1024, n_theta=64, s_max=6.0)
        m = radial.moser_from_exponent(2.0)
        u = disc.inflate(m, disc.DislocationParam(1, 0.0), grid)
        f_disc = rearrange.rearrange_disc(u)
        f_rad = rearrange.rearrange_radial(m)
        taus = np.geomspace(2e-5, 1.0, 400)
        gap = np.max(np.abs(f_disc.value_at(taus) - f_rad.value_at(taus)))
        # cell-mean sampling carries a half-cell bias, first order in spacing
        assert gap <= 1e-3

    def test_rotation_invariance(self, rng):
        grid = disc.PolarGrid(n_r=64, n_theta=48, s_max=6.0)
        prof = radial.RadialProfile.from_arrays([0.0, 0.5, 1.5, 3.0], [0.0, 1.0, 0.6, 0.0], 2)
        base = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
        rings = base.rings * (1.0 + 0.5 * np.cos(3 * disc._thetas(grid)))[None, :]
        u = disc.DiscFunction(grid, base.center, rings, base.support_radius)
        rot = disc.DiscFunction(
            grid, base.center, np.roll(rings, 7, axis=1), base.support_radius
        )
        fu, fr = rearrange.rearrange_disc(u), rearrange.rearrange_disc(rot)
        assert np.array_equal(fu.values, fr.values)
        assert np.allclose(fu.breakpoints, fr.breakpoints, rtol=1e-12)


class TestQuasinorms:
    def test_constant_sup_form(self):
        c = rearrange.RearrangedFunction([1.0], [2.5], "step")
        idx = rearrange.LZIndex(INF, INF, -0.5)
        # weight (log e/tau)^{-1/2} <= 1 with equality at tau = 1
        assert rearrange.lz_quasinorm(c, idx) == pytest.approx(2.5, rel=1e-14)

    def test_moser_family_lower_bound_and_limit(self):
        for L in (2.0, 10.0, 30.0):
            f = rearrange.rearrange_radial(radial.moser_from_exponent(L))
            val = rearrange.expl2_quasinorm(f)
            bound = (2 * math.pi) ** -0.5 * math.sqrt(L / (1 + 2 * L))
            assert val >= bound - 1e-12
        f = rearrange.rearrange_radial(radial.moser_from_exponent(300.0))
        assert rearrange.expl2_quasinorm(f) == pytest.approx(
            (4 * math.pi) ** -0.5, rel=2e-3
        )

    def test_moser_bound_below_quarter_for_l_ge_10(self):
        for L in (10.0, 20.0, 40.0):
            f = rearrange.rearrange_radial(radial.moser_from_exponent(L))
            assert rearrange.expl2_quasinorm(f) >= 0.25

    def test_holder_interpolation_on_random_functions(self, rng):
        # ||.||_{inf,q;-1/q-1/2} <= ||.||_{inf,2;-1}^{2/q} ||.||_{inf,inf;-1/2}^{1-2/q}
        for _ in range(100):
            f = rearrange.random_rearranged(rng)
            q = float(rng.choice([3.0, 4.0, 6.0, 8.0]))
            lhs = rearrange.lz_quasinorm(
                f, rearrange.LZIndex(INF, q, -1.0 / q - 0.5)
            )
            rhs = rearrange.lz_quasinorm(f, rearrange.LZIndex(INF, 2, -1.0)) ** (
                2.0 / q
            ) * rearrange.expl2_quasinorm(f) ** (1.0 - 2.0 / q)
            assert lhs <= rhs * (1.0 + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(0.01, 50.0))
    def test_scaling(self, c):
        f = rearrange.random_rearranged(np.random.default_rng(42))
        idx = rearrange.LZIndex(INF, 2, -1.0)
        assert rearrange.lz_quasinorm(
            rearrange.scale_rearranged(f, c), idx
        ) == pytest.approx(c * rearrange.lz_quasinorm(f, idx), rel=1e-10)

    def test_divergence_is_a_value_not_an_error(self):
        c = rearrange.RearrangedFunction([1.0], [1.0], "step")
        val = rearrange.lz_quasinorm(c, rearrange.LZIndex(INF, 2, -0.5))
        assert math.isinf(val)
        assert math.isfinite(
            rearrange.lz_quasinorm(c, rearrange.LZIndex(INF, 2, -1.0))
        )

    def test_finite_p_indices(self):
        # Lorentz (p, p) of a constant equals the L^p norm: here c * 1
        c = rearrange.RearrangedFunction([1.0], [3.0], "step")
        val = rearrange.lz_quasinorm(c, rearrange.LZIndex(2.0, 2.0, 0.0))
        assert val == pytest.approx(3.0 * math.sqrt(2.0) / math.sqrt(2.0), rel=1e-8)

    def test_sup_form_with_finite_p(self):
        f = rearrange.RearrangedFunction([0.25, 1.0], [1.0, 1.0, 0.0], "loglin")
        idx = rearrange.LZIndex(4.0, INF, 0.0)
        # sup of tau^{1/4} f*(tau): f = 1 up to 0.25, then decays
        val = rearrange.lz_quasinorm(f, idx)
        taus = np.geomspace(1e-12, 1.0, 20001)
        brute = float(np.max(taus**0.25 * f.value_at(taus)))
        assert val == pytest.approx(brute, rel=1e-3)
        assert val >= brute - 1e-12  # the exact sup dominates any sample

    @pytest.mark.parametrize("kind, values", [
        ("loglin", [3.0, 2.5, 1.0, 0.25]), ("step", [2.0, 1.0, 0.5]),
    ])
    @pytest.mark.parametrize("p, q, alpha", [
        (2.0, 1.5, 0.5), (4.0, 3.0, -0.5), (1.5, 1.0, 0.0), (INF, 2.0, -1.25), (INF, 1.0, -3.0),
    ])
    def test_integral_form_matches_quadrature_in_tau(self, kind, values, p, q, alpha):
        # pieces 9.2 and 4.6 wide in ell, split into unit panels; finite p weights them
        f = rearrange.RearrangedFunction([1e-6, 1e-2, 1.0], values, kind)
        invp = 0.0 if p == INF else 1.0 / p

        def integrand(s):  # [tau^{1/p} ell^alpha f*(tau)]^q at tau = e^s, dtau/tau = ds
            return (math.exp(s * invp) * (1.0 - s) ** alpha * f.value_at(math.exp(s))) ** q

        # with p = inf the cap's integral runs out to ell = inf; with finite p
        # tau^{q/p} makes what lies below tau = 1e-300 negligible
        edges = [-INF if p == INF else math.log(1e-300)] + [math.log(b) for b in f.breakpoints]
        ref = sum(integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-12, limit=400)[0]
                  for a, b in zip(edges, edges[1:])) ** (1.0 / q)
        got = rearrange.lz_quasinorm(f, rearrange.LZIndex(p, q, alpha))
        assert got == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("p, alpha", [(8.0, 2.5), (2.0, 10.0)])
    def test_sup_form_peaks_inside_the_cap(self, p, alpha):
        # the cap's weight ell^alpha e^{(1-ell)/p} peaks at ell = alpha p = 20 > ell0
        f = rearrange.RearrangedFunction([1e-6, 1e-2, 1.0], [3.0, 2.5, 1.0, 0.25], "loglin")
        val = rearrange.lz_quasinorm(f, rearrange.LZIndex(p, INF, alpha))
        ells = np.linspace(1.0, 200.0, 2_000_001)
        taus = np.exp(1.0 - ells)
        dense = float(np.max(taus ** (1.0 / p) * ells ** alpha * f.value_at(taus)))
        ell0 = 1.0 - math.log(1e-6)
        assert val >= 1.1 * 3.0 * math.exp((1.0 - ell0) / p) * ell0 ** alpha
        assert dense <= val * (1.0 + 1e-12)
        assert val == pytest.approx(dense, rel=1e-9)

    @pytest.mark.parametrize("breakpoints, values, message", [
        (["0.5", 1.0], [1.0, 0.5], "breakpoints: entries of type str are not real numbers"),
        ([True, 1.0], [1.0, 0.5], "breakpoints: entries of type bool are not real numbers"),
        ([0.5, 1.0], [1.0, None], "values: entries of type NoneType are not real numbers"),
    ], ids=["string-breakpoint", "bool-breakpoint", "null-value"])
    def test_loader_rejects_non_numbers(self, breakpoints, values, message):
        record = {"breakpoints": breakpoints, "values": values, "kind": "step"}
        with pytest.raises(ValueError, match=f"^{message}$"):
            rearrange.rearranged_from_dict(record)

    def test_serialization_round_trip(self, rng):
        f = rearrange.random_rearranged(rng)
        g = rearrange.rearranged_from_dict(rearrange.rearranged_to_dict(f))
        assert np.array_equal(f.values, g.values)
        assert np.array_equal(f.breakpoints, g.breakpoints)
        assert f.kind == g.kind
