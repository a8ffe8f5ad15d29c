import math

import numpy as np
import pytest
from scipy.special import dawsn

from moserlab import functional, radial

TWO_PI = 2.0 * math.pi


def moser_value_oracle(L: float) -> float:
    """Closed form for the functional on the concentrating ramp family.

    Completing the square in the ramp integral gives
    J = 4 pi X D(X) with X = sqrt(L/2) and D the Dawson function; the
    plateau's exponential part exactly cancels the -1 of the integrand's
    tail.  The large-L expansion is 2 pi (1 + 1/L + O(L^-2)), so the value
    approaches 2 pi from above and the gap shrinks like 2 pi / L.
    """
    X = math.sqrt(L / 2.0)
    return 4.0 * math.pi * X * float(dawsn(X))


class TestEvaluators:
    def test_zero_profile(self):
        z = radial.RadialProfile.from_arrays([0.0, 1.0], [0.0, 0.0], 2)
        assert functional.j_direct(z) == 0.0
        assert functional.j_representation(z) == 0.0

    # on the plateau 4 pi c^2 = 2L, so exp(4 pi c^2) alone overflows from L ~ 355
    @pytest.mark.parametrize("L", [0.5, 1.0, 5.0, 10.0, 20.0, 40.0, 400.0, 1000.0])
    def test_moser_values_match_dawson_oracle(self, L):
        u = radial.moser_from_exponent(L)
        oracle = moser_value_oracle(L)
        assert functional.j_direct(u) == pytest.approx(oracle, abs=1e-8)
        assert functional.j_representation(u) == pytest.approx(oracle, abs=1e-8)

    def test_cross_agreement_on_random_normalized(self, rng):
        for _ in range(30):
            u = radial.random_profile(rng, normalized=True)
            rep = functional.evaluate_functional(u)
            assert rep.rel_gap <= 1e-6
            assert rep.normalized

    def test_pairing_coefficient_subcritical_for_normalized(self, rng):
        from moserlab.radial import _pairing_closed

        for _ in range(50):
            u = radial.random_profile(rng, normalized=True)
            ts = np.linspace(1e-3, float(u.nodes[-1]) + 2.0, 300)
            c = np.array([_pairing_closed(u, t) for t in ts])
            assert np.all(c**2 <= 1.0 + 1e-10)

    def test_monotone_in_pointwise_domination(self, rng):
        for _ in range(20):
            u = radial.random_profile(rng, normalized=True)
            v = radial.scale(
                radial.RadialProfile.from_arrays(u.nodes, np.abs(u.values), 2), 1.05
            )
            assert functional.j_direct(u) <= functional.j_direct(v) + 1e-12

    def test_nonnegative_and_zero_iff_zero(self, rng):
        u = radial.random_profile(rng, normalized=True)
        assert functional.j_direct(u) > 0.0

    def test_overflow_guard_names_interval(self):
        u = radial.RadialProfile.from_arrays([0.0, 1.0], [0.0, 8.0], 2)
        with pytest.raises(functional.OverflowGuardError) as err:
            functional.j_direct(u)
        assert err.value.t_lo >= 0.0
        assert err.value.exponent > 700.0

    def test_cross_check_stops_the_unresolved_long_ramp(self):
        # known defect, pinned: on the single ramp segment [0, 1e5] quad
        # samples only the flat middle of the integrand, so j_direct returns
        # about pi against the Dawson value 6.28325; the two evaluators then
        # disagree and evaluate_functional must refuse the value
        with pytest.raises(ArithmeticError, match="evaluators disagree"):
            functional.evaluate_functional(radial.moser_from_exponent(1e5))


class TestMoserLimit:
    def test_gap_to_limit_shrinks(self):
        rows = functional.moser_limit_experiment([5.0, 10.0, 20.0, 40.0])
        gaps = [abs(r.j_direct - TWO_PI) for r in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        # the family approaches the limit from above: liminf J > 0 = J(0)
        assert all(r.j_direct > TWO_PI for r in rows)

    def test_plateau_contribution_closed_form(self):
        rows = functional.moser_limit_experiment([1.0, 3.0, 8.0])
        for r in rows:
            assert r.plateau == pytest.approx(
                math.pi * (1.0 - math.exp(-2.0 * r.L)), rel=1e-12
            )
            assert r.ramp == pytest.approx(r.j_direct - r.plateau, rel=1e-12)
            assert r.j_direct > 0.0

    def test_row_one_positive(self):
        rows = functional.moser_limit_experiment([1.0])
        assert rows[0].j_direct == pytest.approx(moser_value_oracle(1.0), abs=1e-9)
        assert rows[0].j_direct > 0.0

    def test_requires_increasing_exponents(self):
        with pytest.raises(ValueError):
            functional.moser_limit_experiment([5.0, 3.0])


class TestConcentrationDemos:
    def test_translated_sequence_is_concentrating(self):
        s_list = [math.exp(-k) for k in range(1, 9)]
        rep = functional.weak_discontinuity_demo(s_list, [0.15 + 0.08j] * 8)
        assert rep.classification == "moser-concentrating"
        assert rep.max_discrete_grad_norm <= 1.0 + 1e-6
        j_vals = [r["J"] for r in rep.rows]
        assert all(j >= math.pi for j in j_vals[4:])
        pair = [r["pairing"] for r in rep.rows]
        assert pair[-1] < max(pair)

    def test_constant_sequence_not_concentrating(self):
        rep = functional.weak_discontinuity_demo([0.25] * 5, [0.1] * 5)
        assert rep.classification == "non-concentrating"

    def test_subcritical_budget_vanishes(self):
        base = radial.scale(radial.moser_from_exponent(6.0), 0.9)
        rep = functional.dilation_concentration_demo(base, list(range(1, 11)))
        assert rep.classification == "subcritical-vanishing"
        j_vals = [r["J"] for r in rep.rows]
        # J of each member is J of its dilated profile, exactly
        assert j_vals == [functional.j_direct(radial.gauge_apply(base, 1.0 / j)) for j in range(1, 11)]
        assert all(b < a for a, b in zip(j_vals, j_vals[1:]))
        assert j_vals[-1] < 0.05

    def test_center_near_boundary_rejected(self):
        with pytest.raises(ValueError, match="half-disc"):
            functional.weak_discontinuity_demo([0.2], [0.7 + 0.0j])

    def test_nan_center_rejected(self):
        for center in (complex(math.nan, 0.0), (0.1, math.nan)):
            with pytest.raises(ValueError, match="^centers must stay in the closed half-disc$"):
                functional.weak_discontinuity_demo([0.2], [center])
