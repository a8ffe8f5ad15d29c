import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, radial, rearrange

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
            f = rearrange.rearrange_radial(u, tol=1e-8)
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

    def test_serialization_round_trip(self, rng):
        f = rearrange.random_rearranged(rng)
        g = rearrange.rearranged_from_dict(rearrange.rearranged_to_dict(f))
        assert np.array_equal(f.values, g.values)
        assert np.array_equal(f.breakpoints, g.breakpoints)
        assert f.kind == g.kind
