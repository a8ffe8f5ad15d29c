import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import radial
from conftest import riemann_grad_sq

OMEGA = 2.0 * math.pi


class TestMoser:
    def test_plateau_value_at_e_inv(self):
        m = radial.make_moser(math.exp(-1.0))
        assert m.plateau == pytest.approx((2 * math.pi) ** -0.5, abs=1e-15)
        assert np.allclose(m.nodes, [0.0, 1.0])

    @pytest.mark.parametrize("s", [math.exp(-1), math.exp(-5), math.exp(-20), 0.5])
    def test_unit_gradient_norm(self, s):
        m = radial.make_moser(s)
        assert abs(radial.grad_norm(m, 2) - 1.0) <= 1e-12
        # independent finite-difference oracle
        assert radial.grad_norm(m, 2) ** 2 == pytest.approx(
            riemann_grad_sq(m), abs=1e-10
        )

    def test_concentration_parameter_near_one(self):
        m = radial.make_moser(1.0 - 1e-6)
        assert m.plateau < 1.5e-3
        assert abs(radial.grad_norm(m, 2) - 1.0) <= 1e-10

    @pytest.mark.parametrize("s", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_bad_parameter(self, s):
        with pytest.raises(ValueError):
            radial.make_moser(s)


class TestGradNorm:
    def test_zero_profile(self):
        z = radial.RadialProfile.from_arrays([0.0, 1.0], [0.0, 0.0], 2)
        assert radial.grad_norm(z, 2) == 0.0

    def test_single_ramp_closed_form(self):
        a, T = 0.7, 2.5
        u = radial.RadialProfile.from_arrays([0.0, T], [0.0, a], 2)
        assert radial.grad_norm(u, 2) == pytest.approx(
            math.sqrt(2 * math.pi * a * a / T), rel=1e-14
        )

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-5.0, 5.0))
    def test_absolute_homogeneity(self, c):
        u = radial.random_profile(np.random.default_rng(7))
        lhs = radial.grad_norm(radial.scale(u, c), 2)
        rhs = abs(c) * radial.grad_norm(u, 2)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)


class TestGauge:
    def test_identity_element(self):
        u = radial.random_profile(np.random.default_rng(3))
        g = radial.gauge_apply(u, 1.0)
        assert np.array_equal(g.nodes, u.nodes)
        assert np.array_equal(g.values, u.values)

    def test_moser_dilation_identity(self):
        # h_s m_t = m_{t^{1/s}}, node for node
        rng = np.random.default_rng(11)
        for _ in range(20):
            s = rng.uniform(0.2, 4.0)
            t = rng.uniform(0.02, 0.95)
            g = radial.gauge_apply(radial.make_moser(t), s)
            m = radial.make_moser(t ** (1.0 / s))
            assert np.allclose(g.nodes, m.nodes, rtol=1e-13, atol=1e-300)
            assert np.allclose(g.values, m.values, rtol=1e-13)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.1, 8.0), st.floats(0.1, 8.0))
    def test_group_law(self, s, sp):
        u = radial.random_profile(np.random.default_rng(5))
        a = radial.gauge_apply(radial.gauge_apply(u, s), sp)
        b = radial.gauge_apply(u, s * sp)
        assert np.allclose(a.nodes, b.nodes, rtol=1e-12)
        assert np.allclose(a.values, b.values, rtol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(0.05, 20.0))
    def test_isometry(self, s):
        u = radial.random_profile(np.random.default_rng(9))
        assert radial.grad_norm(radial.gauge_apply(u, s), 2) == pytest.approx(
            radial.grad_norm(u, 2), rel=1e-13
        )

    def test_rejects_nonpositive(self):
        u = radial.random_profile(np.random.default_rng(2))
        with pytest.raises(ValueError):
            radial.gauge_apply(u, 0.0)


class TestPairing:
    def test_moser_self_pairing_is_one(self):
        for t in (0.3, 1.0, 5.0, 20.0):
            m = radial.moser_from_exponent(t)
            assert radial.pairing_mstar(m, t) == pytest.approx(1.0, abs=1e-12)

    def test_zero_profile(self):
        z = radial.RadialProfile.from_arrays([0.0, 1.0], [0.0, 0.0], 2)
        assert radial.pairing_mstar(z, 0.7) == 0.0

    def test_two_forms_agree_on_random_profiles(self, rng):
        for _ in range(100):
            u = radial.random_profile(rng)
            t = rng.uniform(0.05, 4.5)
            closed = radial.pairing_mstar(u, t, check_tol=1e-10)
            integral = radial.pairing_mstar_integral(u, t)
            assert abs(closed - integral) <= 1e-10 * max(1.0, abs(closed))

    def test_cauchy_schwarz_bound(self, rng):
        for _ in range(200):
            u = radial.random_profile(rng)
            t = rng.uniform(0.05, 5.0)
            assert radial.pairing_mstar(u, t) ** 2 <= radial.grad_norm(
                u, 2
            ) ** 2 * (1 + 1e-12)

    def test_rejects_nonpositive_parameter(self):
        u = radial.random_profile(np.random.default_rng(0))
        with pytest.raises(ValueError):
            radial.pairing_mstar(u, 0.0)


class TestPointwiseBound:
    def test_moser_equality_case(self):
        # the bound is attained at the plateau corner
        for L in (0.5, 1.0, 7.0):
            m = radial.moser_from_exponent(L)
            assert abs(radial.pointwise_bound_margin(m)) <= 1e-12

    def test_zero_convention(self):
        z = radial.RadialProfile.from_arrays([0.0, 1.0], [0.0, 0.0], 2)
        assert radial.pointwise_bound_margin(z) == 0.0

    def test_margin_nonnegative_random(self, rng):
        margins = [
            radial.pointwise_bound_margin(radial.random_profile(rng))
            for _ in range(300)
        ]
        assert min(margins) >= -1e-12

    def test_sup_matches_dense_scan(self, rng):
        # the per-segment analytic scan against a brute t-grid
        for _ in range(20):
            u = radial.random_profile(rng, normalized=True)
            t = np.linspace(1e-9, float(u.nodes[-1]) + 3.0, 200_001)
            brute = float(np.max(np.abs(u.value_at(t)) / np.sqrt(t)))
            margin = radial.pointwise_bound_margin(u)
            exact_sup = (2 * math.pi) ** -0.5 * radial.grad_norm(u, 2) - margin
            assert brute <= exact_sup + 1e-9
            assert exact_sup - brute <= 1e-4


class TestHardy:
    def test_moser_ratio(self):
        # ramp and plateau each contribute 1/(2 pi) to the weighted integral
        m = radial.moser_from_exponent(5.0)
        assert radial.hardy_ratio(m) == pytest.approx(0.5, rel=1e-12)
        assert radial.hardy_ratio(m) >= 0.25 - 1e-9

    def test_truncated_ramp_closed_form(self):
        u = radial.RadialProfile.from_arrays([0.0, 1.0], [0.0, 1.0], 2)
        # num = 1, den = 1 (ramp) + 1 (plateau tail of 1/t^2)
        assert radial.hardy_ratio(u) == pytest.approx(0.5, rel=1e-12)

    def test_riemann_oracle(self, rng):
        for _ in range(10):
            u = radial.random_profile(rng)
            t_hi = float(u.nodes[-1])
            mids, dt = [], []
            for a, b in zip(u.nodes[:-1], u.nodes[1:]):
                grid = np.linspace(a, b, 4001)
                mids.append(0.5 * (grid[:-1] + grid[1:]))
                dt.append(np.diff(grid))
            mids, dt = np.concatenate(mids), np.concatenate(dt)
            den = float(np.sum((u.value_at(mids) / mids) ** 2 * dt))
            den += u.plateau**2 / t_hi
            ratio = radial.hardy_ratio(u)
            num = float(np.sum(u.slopes**2 * np.diff(u.nodes)))
            assert ratio == pytest.approx(num / den, rel=1e-6)

    def test_near_extremal_family_trend(self):
        # t^{1/2+eps} truncated at 1: ratio (1/2+eps)^2 / (1+2 eps) -> 1/4
        ratios = []
        for eps in (0.2, 0.1, 0.05):
            grid = np.linspace(0.0, 1.0, 4001) ** 2  # graded toward 0
            grid = np.unique(grid)
            vals = grid ** (0.5 + eps)
            u = radial.RadialProfile.from_arrays(grid, vals, 2)
            r = radial.hardy_ratio(u)
            closed = (0.5 + eps) ** 2 / (1.0 + 2.0 * eps)
            assert r == pytest.approx(closed, abs=2e-2)
            assert r >= 0.25 - 1e-9
            ratios.append(r)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_rejects_zero(self):
        z = radial.RadialProfile.from_arrays([0.0, 1.0], [0.0, 0.0], 2)
        with pytest.raises(ValueError):
            radial.hardy_ratio(z)


class TestSerialization:
    def test_round_trip(self, tmp_path, rng):
        u = radial.random_profile(rng)
        path = tmp_path / "profile.json"
        radial.save_profile(u, path)
        v = radial.load_profile(path)
        assert np.array_equal(u.nodes, v.nodes)
        assert np.array_equal(u.values, v.values)
        assert json.loads(path.read_text())["n"] == 2

    @pytest.mark.parametrize("n", [3, 2.5, "2", None])
    def test_loader_rejects_non_planar_record(self, n):
        with pytest.raises(ValueError, match="radial profiles are planar"):
            radial.profile_from_dict({"n": n, "nodes": [0.0, 1.0], "values": [0.0, 1.0]})

    def test_loader_rejects_nonmonotone_grid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"n": 2, "nodes": [0.0, 2.0, 1.0], "values": [0.0, 1.0, 1.0]})
        )
        with pytest.raises(ValueError, match="strictly increasing"):
            radial.load_profile(path)

    @pytest.mark.parametrize("nodes, values, message", [
        ([0.0], [0.0], "at least two nodes"),
        ([[0.0, 1.0]], [[0.0, 1.0]], "at least two nodes"),
        ([0.0, math.inf], [0.0, 1.0], "nodes must be finite"),
        ([0.0, math.nan], [0.0, 1.0], "nodes must be finite"),
        ([0.5, 1.0], [0.0, 1.0], "first grid node must be t = 0"),
        ([0.0, 1.0, 1.0], [0.0, 1.0, 1.0], "strictly increasing"),
        ([0.0, 2.0, 1.0], [0.0, 1.0, 1.0], "strictly increasing"),
        ([0.0, 1.0], [0.0, 1.0, 1.0], "values and grid nodes must align"),
        # the node checks run before the value checks
        ([0.5, 1.0], [1.0, math.nan, 0.0], "first grid node must be t = 0"),
    ])
    def test_profile_rejects_malformed_nodes_and_values(self, nodes, values, message):
        with pytest.raises(ValueError, match=message):
            radial.RadialProfile.from_arrays(nodes, values, 2)

    def test_saved_bytes_equal_json_dump(self, tmp_path):
        u = radial.random_profile(np.random.default_rng(3))
        path = tmp_path / "p.json"
        radial.save_profile(u, path)
        with open(tmp_path / "ref.json", "w", encoding="utf-8") as fh:
            json.dump(radial.profile_to_dict(u), fh)
        assert path.read_bytes() == (tmp_path / "ref.json").read_bytes()

    def test_loader_rejects_nonzero_trace(self, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text(json.dumps({"n": 2, "nodes": [0.0, 1.0], "values": [0.5, 1.0]}))
        with pytest.raises(ValueError, match="vanish"):
            radial.load_profile(path)


class TestMassIntegrals:
    def test_lp_mass_against_riemann(self, rng):
        for p in (1, 2, 4):
            u = radial.random_profile(rng)
            grid = np.linspace(0.0, float(u.nodes[-1]), 400_001)
            mids = 0.5 * (grid[:-1] + grid[1:])
            dt = np.diff(grid)
            brute = 2.0 * float(np.sum(np.abs(u.value_at(mids)) ** p * np.exp(-2 * mids) * dt))
            brute += abs(u.plateau) ** p * math.exp(-2 * grid[-1])
            assert radial.lp_mass(u, p) == pytest.approx(brute, rel=1e-7)

    def test_hardy_weight_dilation_invariance(self, rng):
        u = radial.random_profile(rng)
        base = radial.hardy_weight_integral(u)
        for s in (0.5, 2.0, 8.0):
            assert radial.hardy_weight_integral(
                radial.gauge_apply(u, s)
            ) == pytest.approx(base, rel=1e-12)
