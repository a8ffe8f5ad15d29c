"""Exact piecewise-linear calculus for radial functions on the unit disc.

Radial functions live in the logarithmic coordinate t = log(1/r), which maps
the radius r in (0, 1] to t in [0, inf).  A profile is piecewise linear
between its nodes and constant beyond the last node; the constant tail is the
value at r = 0.  In this coordinate the Dirichlet seminorm of a radial
function u on the planar disc is

    ||grad u||_2^2 = omega * integral |du/dt|^2 dt,   omega = 2 pi,

so norms, the dilation group h_s u(t) = s^{-1/2} u(s t) and the ramp
pairing all reduce to finite segment sums.  That makes the isometry
identities checked by the test suite exact up to rounding, with no
quadrature error in the core calculus.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialProfile",
    "OMEGA",
    "make_moser",
    "moser_from_exponent",
    "moser_annular",
    "grad_norm",
    "gauge_apply",
    "pairing_mstar",
    "pairing_mstar_integral",
    "pointwise_bound_margin",
    "hardy_ratio",
    "hardy_weight_integral",
    "lp_mass",
    "scale",
    "subtract",
    "h1_inner",
    "h1_distance",
    "random_profile",
    "profile_to_dict",
    "profile_from_dict",
    "save_profile",
    "load_profile",
]

OMEGA = 2.0 * math.pi  # length of the unit circle


def _check_planar(n) -> None:
    if n != 2:
        raise ValueError(f"radial profiles are planar: the dimension must be 2, got {n!r}")


def _readonly(a) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise-linear radial function in t = log(1/r).

    The t-nodes are strictly increasing with nodes[0] = 0.  Zero trace on
    the boundary (values[0] = 0) and a constant plateau beyond the last
    node.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nodes", _readonly(self.nodes))
        t = self.nodes
        if t.ndim != 1 or t.size < 2:
            raise ValueError("grid needs at least two nodes")
        if not np.all(np.isfinite(t)):
            raise ValueError("grid nodes must be finite")
        if t[0] != 0.0:
            raise ValueError("first grid node must be t = 0")
        if np.any(np.diff(t) <= 0):
            raise ValueError("grid nodes must be strictly increasing")
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.shape != t.shape:
            raise ValueError("values and grid nodes must align")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("profile values must be finite")
        if self.values[0] != 0.0:
            raise ValueError("profile must vanish at r = 1 (values[0] = 0)")

    @staticmethod
    def from_arrays(nodes, values, n: int = 2) -> "RadialProfile":
        """The profile of a record whose dimension field `n` must be 2."""
        _check_planar(n)
        return RadialProfile(nodes, values)

    @property
    def plateau(self) -> float:
        """Value at r = 0 (constant tail)."""
        return float(self.values[-1])

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.nodes)

    def segments(self):
        """(t0, t1, a, b) per segment, with u(t) = a + b t on [t0, t1]."""
        t, b = self.nodes, self.slopes
        return zip(t[:-1], t[1:], self.values[:-1] - b * t[:-1], b)

    def value_at(self, t):
        """Evaluate at t >= 0 (scalar or array); constant beyond the last node."""
        return np.interp(t, self.nodes, self.values, left=self.values[0], right=self.values[-1])

    def support_log_radius(self) -> float:
        """Largest t0 with u identically 0 on [0, t0]; exp(-t0) is the support radius."""
        nz = np.nonzero(self.values)[0]
        if nz.size == 0:
            return float(self.nodes[-1])
        first = nz[0]
        return float(self.nodes[first - 1]) if first > 0 else 0.0

    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))


def make_moser(s: float) -> RadialProfile:
    """Two-segment ramp/plateau profile concentrating at the origin as s -> 0.

    Linear ramp of slope omega^{-1/2} L^{-1/2} on t in [0, L], then the
    plateau omega^{-1/2} L^{1/2}, where L = log(1/s).  Normalized so the
    gradient norm is exactly 1.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"concentration parameter must lie in (0,1), got {s}")
    return moser_from_exponent(-math.log(s))


def moser_from_exponent(L: float) -> RadialProfile:
    """Same as make_moser with L = log(1/s) given directly (exact for tiny s)."""
    if not (L > 0.0) or not math.isfinite(L):
        raise ValueError(f"exponent must be positive and finite, got {L}")
    plateau = OMEGA ** -0.5 * L ** 0.5
    return RadialProfile([0.0, L], [0.0, plateau])


def moser_annular(L: float, t_start: float = 0.0) -> RadialProfile:
    """Unit-norm ramp/plateau profile vanishing for t < t_start.

    The support radius is exp(-t_start), so translates by centers with
    |center| <= 1 - exp(-t_start) fit inside the disc; t_start = 0 recovers
    the plain concentrating profile.  The ramp slope is the same as for
    moser_from_exponent, so the gradient norm is exactly 1.
    """
    if t_start < 0.0:
        raise ValueError("support shift must be nonnegative")
    base = moser_from_exponent(L)
    if t_start == 0.0:
        return base
    return RadialProfile([0.0, t_start, t_start + L], [0.0, 0.0, base.plateau])


def grad_norm(u: RadialProfile, n: int = 2) -> float:
    """Gradient norm (omega * sum slope^2 dt)^(1/2); exact for the PL class.

    The optional dimension `n` must be 2.
    """
    _check_planar(n)
    total = OMEGA * float(np.sum(u.slopes ** 2 * np.diff(u.nodes)))
    return total ** 0.5


def gauge_apply(u: RadialProfile, s: float) -> RadialProfile:
    """Dilation isometry u(t) -> s^{-1/2} u(s t), exact on nodes.

    For s > 1 this compresses the profile toward r = 1... in t toward 0;
    repeated application composes multiplicatively.
    """
    if not (s > 0.0) or not math.isfinite(s):
        raise ValueError(f"dilation parameter must be positive, got {s}")
    return RadialProfile(u.nodes / s, u.values * s ** -0.5)


def _pairing_closed(u: RadialProfile, t: float) -> float:
    return OMEGA ** 0.5 * t ** -0.5 * float(u.value_at(t))


def pairing_mstar_integral(u: RadialProfile, t: float) -> float:
    """Pairing against the unit ramp by explicit segment integration.

    omega * slope_m * integral_0^t u'(tau) dtau, with the unit ramp slope
    slope_m = omega^{-1/2} t^{-1/2}, accumulated segment by segment;
    independent of the closed form used elsewhere.
    """
    if not (t > 0.0):
        raise ValueError("pairing parameter must be positive")
    ramp = OMEGA ** -0.5 * t ** -0.5
    acc = 0.0
    for t0, t1, _, b in u.segments():
        if t0 >= t:
            break
        acc += b * (min(t1, t) - t0)
    return OMEGA * ramp * acc


def pairing_mstar(u: RadialProfile, t: float, check_tol: float = 1e-10) -> float:
    """Evaluate the ramp pairing omega^{1/2} t^{-1/2} u(t).

    Both the closed form and the segment-integral form are computed; they must
    agree to `check_tol` (scaled), and the closed-form value is returned.
    """
    if not (t > 0.0):
        raise ValueError(f"pairing parameter must be positive, got {t}")
    closed = _pairing_closed(u, t)
    integral = pairing_mstar_integral(u, t)
    scale_ref = max(1.0, abs(closed))
    if abs(closed - integral) > check_tol * scale_ref:
        raise ArithmeticError(
            f"pairing forms disagree: closed={closed!r} integral={integral!r}"
        )
    return closed


def pointwise_bound_margin(u: RadialProfile) -> float:
    """Slack omega^{-1/2} ||grad u|| - sup_t |u(t)| t^{-1/2} of the radial bound.

    The supremum sits at a node: on a segment the ratio |a + b t| t^{-1/2}
    has no interior maximum (its one critical point, t = a / b, is a minimum
    or lies at t < 0), and on the plateau it decays.  Zero profiles return 0
    by convention.
    """
    if u.is_zero():
        return 0.0
    best = max(abs(v) * t ** -0.5 for t, v in zip(u.nodes[1:], u.values[1:]))
    return OMEGA ** -0.5 * grad_norm(u) - best


def hardy_weight_integral(u: RadialProfile) -> float:
    """integral_0^inf (u(t)/t)^2 dt, segment-exact."""
    total = 0.0
    for t0, t1, a, b in u.segments():
        if t0 == 0.0:
            # zero trace forces a = 0, the integrand is just b^2
            total += b * b * t1
        else:
            total += (
                b * b * (t1 - t0)
                + 2.0 * a * b * math.log(t1 / t0)
                + a * a * (1.0 / t0 - 1.0 / t1)
            )
    c = u.values[-1]
    if c != 0.0:
        total += c * c / u.nodes[-1]
    return total


def hardy_ratio(u: RadialProfile) -> float:
    """[int (du/dt)^2 dt] / [int (u/t)^2 dt]; >= 1/4 for zero-trace profiles."""
    if u.is_zero():
        raise ValueError("ratio undefined for the zero profile")
    num = float(np.sum(u.slopes**2 * np.diff(u.nodes)))
    den = hardy_weight_integral(u)
    return num / den


def _exp_moment(a, b, t0, t1, p: int, k: float = 2.0, c: float = 0.0) -> float:
    """integral_{t0}^{t1} (a + b t)^p e^{c - k t} dt for integer p >= 0, k > 0."""
    lo = math.exp(c - k * t0)
    hi = math.exp(c - k * t1)
    if p == 0:
        return (lo - hi) / k
    lo *= (a + b * t0) ** p
    hi *= (a + b * t1) ** p
    return (lo - hi) / k + p * b / k * _exp_moment(a, b, t0, t1, p - 1, k, c)


def _abs_segments(u: RadialProfile):
    """Segments (t0, t1, v0, v1) of |u|, split at sign changes; plus plateau (T, |c|)."""
    nodes, vals = u.nodes, u.values
    segs = []
    for i in range(len(nodes) - 1):
        t0, t1 = float(nodes[i]), float(nodes[i + 1])
        v0, v1 = float(vals[i]), float(vals[i + 1])
        if v0 * v1 < 0.0:
            tc = t0 + (0.0 - v0) / (v1 - v0) * (t1 - t0)
            segs.append((t0, tc, abs(v0), 0.0))
            segs.append((tc, t1, 0.0, abs(v1)))
        else:
            segs.append((t0, t1, abs(v0), abs(v1)))
    return segs, float(nodes[-1]), abs(float(vals[-1]))


def lp_mass(u: RadialProfile, p: int) -> float:
    """Relative p-mass (1/pi) * int_B |u|^p dx = 2 int |u(t)|^p e^{-2t} dt, exact."""
    segs, T, c = _abs_segments(u)
    total = 0.0
    for t0, t1, v0, v1 in segs:
        b = (v1 - v0) / (t1 - t0)
        a = v0 - b * t0
        total += 2.0 * _exp_moment(a, b, t0, t1, p)
    total += c**p * math.exp(-2.0 * T)
    return total


def scale(u: RadialProfile, c: float) -> RadialProfile:
    return RadialProfile(u.nodes, c * u.values)


def subtract(u: RadialProfile, v: RadialProfile) -> RadialProfile:
    """u - v as an exact PL profile on the union of the two node sets."""
    nodes = np.union1d(u.nodes, v.nodes)
    return RadialProfile(nodes, u.value_at(nodes) - v.value_at(nodes))


def h1_inner(u: RadialProfile, v: RadialProfile) -> float:
    """Dirichlet pairing omega * int u'(t) v'(t) dt, exact on the node union."""
    nodes = np.union1d(u.nodes, v.nodes)
    du = np.diff(u.value_at(nodes))
    dv = np.diff(v.value_at(nodes))
    dt = np.diff(nodes)
    return OMEGA * float(np.sum(du * dv / dt))


def h1_distance(u: RadialProfile, v: RadialProfile) -> float:
    return grad_norm(subtract(u, v))


def random_profile(
    rng: np.random.Generator,
    segments: int = 6,
    t_max: float = 3.0,
    normalized: bool = False,
    nonnegative: bool = False,
) -> RadialProfile:
    """Random zero-trace PL profile; a normalized one has unit gradient norm."""
    while True:
        interior = np.sort(rng.uniform(0.05, t_max, size=segments))
        if np.min(np.diff(interior, prepend=0.0)) > 1e-3:
            break
    nodes = np.concatenate(([0.0], interior))
    steps = rng.normal(size=segments) * np.sqrt(np.diff(nodes))
    values = np.concatenate(([0.0], np.cumsum(steps)))
    if nonnegative:
        values = np.abs(values)
        values[0] = 0.0
    prof = RadialProfile(nodes, values)
    if prof.is_zero():
        return random_profile(rng, segments, t_max, normalized, nonnegative)
    if normalized:
        prof = scale(prof, 1.0 / grad_norm(prof))
    return prof


# -- serialization -----------------------------------------------------------

def profile_to_dict(u: RadialProfile) -> dict:
    return {"n": 2, "nodes": u.nodes.tolist(), "values": u.values.tolist()}


def profile_from_dict(d: dict) -> RadialProfile:
    from .disc import _reals  # disc imports this module

    try:
        n = d["n"]
        nodes = _reals(d["nodes"], "nodes")
        values = _reals(d["values"], "values")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed radial profile record: {exc}") from exc
    return RadialProfile.from_arrays(nodes, values, n)


def save_profile(u: RadialProfile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        # one-shot dumps runs the C encoder; the bytes equal json.dump's
        fh.write(json.dumps(profile_to_dict(u)))


def load_profile(path) -> RadialProfile:
    with open(path, encoding="utf-8") as fh:
        return profile_from_dict(json.load(fh))
