"""Exponential-growth functional on normalized radial profiles.

Two independent evaluators are provided for

    J(u) = integral_B (exp(4 pi u^2) - 1) dx   on the unit disc B,

both exact in the plateau tail.  `j_direct` integrates the radial integrand
2 pi (exp(4 pi u(t)^2) - 1) exp(-2t) segment by segment; `j_representation`
goes through the ramp-pairing coefficient c(t) and integrates
2 pi exp(-2t (1 - c(t)^2)) minus the constant part.  The two expressions are
algebraically equal but share no integrand code, so their agreement is a
genuine cross-check of the pairing identity and of the quadrature.  What
they share is the loop `_segment_quad`: the overflow guard, then one
adaptive quadrature per segment of `RadialProfile.segments()`.  scipy's
`integrate` is imported inside `_segment_quad`, so importing this module loads
numpy only and scipy is loaded by the first evaluation of J.

Concentration experiments: `moser_limit_experiment` tabulates J along the
concentrating ramp family (the limit value is 2 pi, approached from above
like 2 pi (1 + 1/L)).  `weak_discontinuity_demo` (translated ramps) and
`dilation_concentration_demo` (dilations) share one pipeline: the probe pairing
`disc.max_pairing` of each disc member decays while the exact J of its radial
profile stays away from J(0) = 0 exactly when the gradient budget is critical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import disc
from .radial import (
    RadialProfile,
    _pairing_closed,
    gauge_apply,
    grad_norm,
    moser_annular,
    moser_from_exponent,
)

__all__ = [
    "QuadratureSpec",
    "FunctionalReport",
    "OverflowGuardError",
    "j_direct",
    "j_representation",
    "evaluate_functional",
    "MoserLimitRow",
    "moser_limit_experiment",
    "WeakDiscontinuityReport",
    "weak_discontinuity_demo",
    "dilation_concentration_demo",
    "tail_decayed",
]

ALPHA_2 = 4.0 * math.pi  # the critical exponent of the plane
_EXP_CAP = 700.0  # natural-log overflow guard
_MAX_SUBDIVISIONS = 200  # per segment, for scipy's quad


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise ValueError("quadrature tolerances must be positive")


class OverflowGuardError(ArithmeticError):
    """Raised when exp(4 pi u^2 - 2t) would overflow; identifies the bad interval."""

    def __init__(self, t_lo: float, t_hi: float, exponent: float):
        self.t_lo, self.t_hi, self.exponent = t_lo, t_hi, exponent
        super().__init__(
            f"exponent {exponent:.1f} exceeds the cap on t in "
            f"[{t_lo:.6g}, {t_hi:.6g}]; the profile is outside the "
            "subcritical regime this evaluator supports"
        )


def _guard(u: RadialProfile) -> None:
    """Raise if 4 pi u(t)^2 - 2t can exceed the cap; the error names the interval.

    On a segment the exponent is a convex quadratic in t, so its maximum sits
    at an end.
    """
    worst = (-math.inf, 0.0, 0.0)
    for t0, t1, a, b in u.segments():
        for t in (t0, t1):
            g = ALPHA_2 * (a + b * t) ** 2 - 2.0 * t
            if g > worst[0]:
                worst = (g, t0, t1)
    T = u.nodes[-1]
    g_plateau = ALPHA_2 * u.values[-1] ** 2 - 2.0 * T
    if g_plateau > worst[0]:
        worst = (g_plateau, T, math.inf)
    if worst[0] > _EXP_CAP:
        raise OverflowGuardError(worst[1], worst[2], worst[0])


def _segment_quad(u: RadialProfile, integrand, spec: QuadratureSpec | None) -> float:
    """Sum over the segments u = a + b t of the quad of integrand(t, a, b),
    after the overflow guard; both evaluators use it."""
    spec = spec or QuadratureSpec()
    _guard(u)
    from scipy import integrate

    total = 0.0
    for t0, t1, a, b in u.segments():
        val, _err = integrate.quad(
            integrand, t0, t1, args=(a, b), epsabs=spec.abs_tol,
            epsrel=spec.rel_tol, limit=_MAX_SUBDIVISIONS,
        )
        total += val
    return total


def _direct_integrand(t, a, b):
    w = a + b * t
    return math.exp(ALPHA_2 * w * w - 2.0 * t) - math.exp(-2.0 * t)


def j_direct(u: RadialProfile, spec: QuadratureSpec | None = None) -> float:
    """Adaptive segment quadrature of 2 pi (e^{4 pi u^2} - 1) e^{-2t} plus exact tail."""
    total = _segment_quad(u, _direct_integrand, spec)
    # plateau: integral_T^inf (exp(4 pi c^2) - 1) exp(-2t) dt, closed form, in
    # exponent space: exp(4 pi c^2) overflows on long ramps, _guard caps 4 pi c^2 - 2T
    c, T = float(u.values[-1]), float(u.nodes[-1])
    total += 0.5 * (math.exp(ALPHA_2 * c * c - 2.0 * T) - math.exp(-2.0 * T))
    return max(0.0, 2.0 * math.pi * total)


def j_representation(u: RadialProfile, spec: QuadratureSpec | None = None) -> float:
    """Evaluate J through the pairing coefficient c(t); independent of j_direct.

    Uses 2 pi ( integral_0^inf exp(-2t (1 - c(t)^2)) dt - 1/2 ) with
    c(t) the closed-form ramp pairing of the profile.  The pointwise identity
    behind it holds without a normalization hypothesis, so no unit-norm
    requirement is imposed here; callers who care record the flag in
    FunctionalReport.
    """

    def f(t, *_segment):
        if t <= 0.0:
            return 1.0
        cpair = _pairing_closed(u, t)
        return math.exp(-2.0 * t * (1.0 - cpair * cpair))

    total = _segment_quad(u, f, spec)
    T_last = float(u.nodes[-1])
    c = float(u.values[-1])
    # on the plateau the exponent is 4 pi c^2 - 2t, integrable in closed form
    total += 0.5 * math.exp(ALPHA_2 * c * c - 2.0 * T_last)
    return max(0.0, 2.0 * math.pi * (total - 0.5))


@dataclass(frozen=True)
class FunctionalReport:
    j_direct: float
    j_repr: float
    alpha: float
    normalized: bool
    rel_gap: float

    def __post_init__(self):
        if self.j_direct < 0 or self.j_repr < 0:
            raise ValueError("functional values must be nonnegative")


def evaluate_functional(
    u: RadialProfile, spec: QuadratureSpec | None = None, cross_tol: float = 1e-6
) -> FunctionalReport:
    """Run both evaluators and enforce their agreement to cross_tol (relative)."""
    jd = j_direct(u, spec)
    jr = j_representation(u, spec)
    ref = max(jd, jr, 1e-12)
    gap = abs(jd - jr) / ref
    if gap > cross_tol:
        raise ArithmeticError(
            f"functional evaluators disagree: direct={jd!r} repr={jr!r}"
        )
    return FunctionalReport(
        j_direct=jd,
        j_repr=jr,
        alpha=ALPHA_2,
        normalized=bool(grad_norm(u) <= 1.0 + 1e-9),
        rel_gap=gap,
    )


@dataclass(frozen=True)
class MoserLimitRow:
    L: float
    s: float
    j_direct: float
    j_repr: float
    plateau: float
    ramp: float


def moser_limit_experiment(
    L_list, spec: QuadratureSpec | None = None
) -> list[MoserLimitRow]:
    """Tabulate J along the concentrating ramp family m_{e^-L}.

    The plateau region contributes pi (1 - e^{-2L}) in closed form; the ramp
    carries the rest.  J(0) = 0 while the values here stay above pi for
    L >= 1, which is the whole weak-discontinuity mechanism in one table.
    """
    L_arr = [float(L) for L in L_list]
    if any(L <= 0 for L in L_arr) or any(b <= a for a, b in zip(L_arr, L_arr[1:])):
        raise ValueError("exponents must be positive and increasing")
    rows = []
    for L in L_arr:
        u = moser_from_exponent(L)
        rep = evaluate_functional(u, spec)
        plateau = math.pi * (-math.expm1(-2.0 * L))
        rows.append(
            MoserLimitRow(
                L=L,
                s=math.exp(-L),
                j_direct=rep.j_direct,
                j_repr=rep.j_repr,
                plateau=plateau,
                ramp=rep.j_direct - plateau,
            )
        )
    return rows


# -- disc-level concentration demos -----------------------------------------

@dataclass(frozen=True)
class WeakDiscontinuityReport:
    rows: list
    classification: str
    max_discrete_grad_norm: float
    notes: dict = field(default_factory=dict)


def tail_decayed(pairings, slow_ratio: float, floor: float) -> bool:
    """Whether the last pairing has decayed against the peak of the sequence.

    Decay is strong when the tail is at most 5% of the peak (or at most
    `floor`), and slow when it is at most `slow_ratio` of the peak while the
    last three pairings still fall strictly.
    """
    peak = max(pairings)
    tail = pairings[-1]
    tail_monotone = all(b < a for a, b in zip(pairings[-3:], pairings[-2:]))
    return tail <= max(0.05 * peak, floor) or (
        tail <= max(slow_ratio * peak, 1e-12) and tail_monotone
    )


# decay is judged against the peak pairing: for slowly spreading ramps the
# probe overlap saturates after a few members before the decay law sets in
_DECAY_SLOW_RATIO = 0.7
_DECAY_FLOOR = 0.0
# a last J at least this large marks the decayed sequence as concentrating
_J_FLOOR = 0.1


def _classify(pairings, j_values) -> str:
    if not tail_decayed(pairings, _DECAY_SLOW_RATIO, _DECAY_FLOOR):
        return "non-concentrating"
    if j_values[-1] >= _J_FLOOR:
        return "moser-concentrating"
    return "subcritical-vanishing"


def _moser_family(s_list, centers):
    """The translated Moser family: one (s, center, L, profile) row per member,
    L = log(1/s) and the annular profile whose translate by the center fits in
    the disc; also the extent max L + max pad that the rows reach in s."""
    s_arr = [float(s) for s in s_list]
    zetas = [complex(z[0], z[1]) if isinstance(z, (tuple, list)) else complex(z) for z in centers]
    if len(s_arr) != len(zetas):
        raise ValueError("need one center per concentration parameter")
    if any(not (0.0 < s < 1.0) for s in s_arr):
        raise ValueError("concentration parameters must lie in (0,1)")
    if not all(abs(z) <= 0.5 for z in zetas):  # NaN fails it too
        raise ValueError("centers must stay in the closed half-disc")
    L_arr = [-math.log(s) for s in s_arr]
    pads = [-math.log1p(-abs(z)) for z in zetas]
    rows = [(s, z, L, moser_annular(L, pad)) for s, z, L, pad in zip(s_arr, zetas, L_arr, pads)]
    return rows, max(L_arr, default=0.0) + max(pads, default=0.0)


def _default_grid(n_theta: int, extent: float) -> "disc.PolarGrid":
    """The concentration experiments' grid: 512 rings, padded by 2 past `extent`."""
    return disc.PolarGrid(n_r=512, n_theta=n_theta, s_max=extent + 2.0)


def _demo_report(grid, cases, notes) -> WeakDiscontinuityReport:
    """Both demos: each case (row labels, w, dislocation d, profile for J) gives
    the member inflate(w, d), paired against the probes, and an exact J."""
    probes = disc._ProbeStack(grid, disc._PROBE_COUNT)
    rows, pairings, j_values = [], [], []
    max_energy = 0.0
    for labels, w, d, j_profile in cases:
        member = disc.inflate(w, d, grid)
        pairings.append(disc.max_pairing(member, probes))
        j_values.append(j_direct(j_profile))
        max_energy = max(max_energy, disc.energy(member))
        rows.append({**labels, "pairing": pairings[-1], "J": j_values[-1]})
    return WeakDiscontinuityReport(
        rows=rows,
        classification=_classify(pairings, j_values),
        max_discrete_grad_norm=math.sqrt(max_energy),
        notes=notes,
    )


def weak_discontinuity_demo(
    s_list,
    centers,
    grid: "disc.PolarGrid | None" = None,
) -> WeakDiscontinuityReport:
    """Translated concentrating sequence: weak-limit proxies vs. J values.

    Members are the translated Moser family of `_moser_family` (s may
    repeat) on a polar grid, 512 x 256 by default.  Each row holds a member's
    largest pairing against a fixed probe set and the exact J of its radial
    profile (J is translation invariant for supports inside the disc).
    """
    rows, extent = _moser_family(s_list, centers)
    grid = grid or _default_grid(256, extent)
    cases = [({"s": s, "center": [z.real, z.imag]}, prof, disc.DislocationParam(1, z), prof)
             for s, z, _L, prof in rows]
    return _demo_report(grid, cases, {})


def dilation_concentration_demo(
    base: RadialProfile,
    j_list,
) -> WeakDiscontinuityReport:
    """Radial concentration by integer dilations of a fixed profile.

    For a base profile with gradient norm strictly below 1 the J values decay
    to zero along the schedule; at the critical budget they stay bounded away
    from zero.  Members are exact radial dilations, so J is evaluated on the
    dilated profiles directly; pairings use the sampled disc functions.
    """
    js = [disc._integer(j, "j_list") for j in j_list]
    if any(j < 1 for j in js) or any(b < a for a, b in zip(js, js[1:])):
        raise ValueError("dilation schedule must be nondecreasing positive integers")
    grid = _default_grid(128, float(base.nodes[-1]) * max(js))
    cases = [
        ({"j": j}, base, disc.DislocationParam(j, 0.0), gauge_apply(base, 1.0 / j))
        for j in js
    ]
    return _demo_report(grid, cases, {"base_grad_norm": grad_norm(base)})
