"""Exact piecewise-linear calculus for radial functions on the unit ball.

Radial functions live in the logarithmic coordinate t = log(1/r), which maps
the radius r in (0, 1] to t in [0, inf).  A profile is piecewise linear
between its nodes and constant beyond the last node; the constant tail is the
value at r = 0.  In this coordinate the W^{1,N} gradient seminorm of a radial
function u is

    ||grad u||_N^N = omega(N) * integral |du/dt|^N dt,

with omega(N) the area of the unit (N-1)-sphere, so norms, the dilation
group h_s u(t) = s^{-1/N'} u(s t) and the ramp pairing all reduce to finite
segment sums.  That makes the isometry identities checked by the test suite
exact up to rounding, with no quadrature error in the core calculus.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RadialProfile",
    "sphere_area",
    "critical_exponent",
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

_NODE_EPS = 1e-14


def sphere_area(n: int) -> float:
    """Area of the unit (n-1)-sphere; 2*pi for n = 2."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def critical_exponent(n: int) -> float:
    """Critical exponential-growth constant n * omega^{1/(n-1)}; 4*pi for n = 2."""
    return n * sphere_area(n) ** (1.0 / (n - 1))


def _readonly(a) -> np.ndarray:
    out = np.asarray(a, dtype=float).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise-linear radial function in t = log(1/r).

    The t-nodes are strictly increasing with nodes[0] = 0.  Zero trace on
    the boundary (values[0] = 0) and a constant plateau beyond the last
    node.  `n` is the dimension parameter; everything outside this module
    assumes n = 2.
    """

    nodes: np.ndarray
    values: np.ndarray
    n: int = 2

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
        if self.n < 2:
            raise ValueError("dimension parameter must be >= 2")

    @staticmethod
    def from_arrays(nodes, values, n: int = 2) -> "RadialProfile":
        return RadialProfile(nodes, values, n)

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


def make_moser(s: float, n: int = 2) -> RadialProfile:
    """Two-segment ramp/plateau profile concentrating at the origin as s -> 0.

    Linear ramp of slope omega^{-1/n} L^{1/n'-1} on t in [0, L], then the
    plateau omega^{-1/n} L^{1/n'}, where L = log(1/s) and n' = n/(n-1).
    Normalized so the gradient norm is exactly 1.
    """
    if not (0.0 < s < 1.0):
        raise ValueError(f"concentration parameter must lie in (0,1), got {s}")
    return moser_from_exponent(-math.log(s), n)


def moser_from_exponent(L: float, n: int = 2) -> RadialProfile:
    """Same as make_moser with L = log(1/s) given directly (exact for tiny s)."""
    if not (L > 0.0) or not math.isfinite(L):
        raise ValueError(f"exponent must be positive and finite, got {L}")
    nprime = n / (n - 1)
    plateau = sphere_area(n) ** (-1.0 / n) * L ** (1.0 / nprime)
    return RadialProfile.from_arrays([0.0, L], [0.0, plateau], n)


def moser_annular(L: float, t_start: float = 0.0, n: int = 2) -> RadialProfile:
    """Unit-norm ramp/plateau profile vanishing for t < t_start.

    The support radius is exp(-t_start), so translates by centers with
    |center| <= 1 - exp(-t_start) fit inside the disc; t_start = 0 recovers
    the plain concentrating profile.  The ramp slope is the same as for
    moser_from_exponent, so the gradient norm is exactly 1.
    """
    if t_start < 0.0:
        raise ValueError("support shift must be nonnegative")
    base = moser_from_exponent(L, n)
    if t_start == 0.0:
        return base
    return RadialProfile.from_arrays(
        [0.0, t_start, t_start + L], [0.0, 0.0, base.plateau], n
    )


def grad_norm(u: RadialProfile, n: int | None = None) -> float:
    """Gradient norm (omega(n) * sum |slope|^n dt)^(1/n); exact for the PL class."""
    if n is None:
        n = u.n
    dt = np.diff(u.nodes)
    s = u.slopes
    total = sphere_area(n) * float(np.sum(np.abs(s) ** n * dt))
    return total ** (1.0 / n)


def gauge_apply(u: RadialProfile, s: float) -> RadialProfile:
    """Dilation isometry u(t) -> s^{-1/n'} u(s t), exact on nodes.

    For s > 1 this compresses the profile toward r = 1... in t toward 0;
    repeated application composes multiplicatively.
    """
    if not (s > 0.0) or not math.isfinite(s):
        raise ValueError(f"dilation parameter must be positive, got {s}")
    nprime = u.n / (u.n - 1)
    return RadialProfile.from_arrays(u.nodes / s, u.values * s ** (-1.0 / nprime), u.n)


def _moser_ramp_slope(t: float, n: int) -> float:
    nprime = n / (n - 1)
    return sphere_area(n) ** (-1.0 / n) * t ** (1.0 / nprime - 1.0)


def _pairing_closed(u: RadialProfile, t: float) -> float:
    nprime = u.n / (u.n - 1)
    return sphere_area(u.n) ** (1.0 / u.n) * t ** (-1.0 / nprime) * float(u.value_at(t))


def pairing_mstar_integral(u: RadialProfile, t: float) -> float:
    """Pairing against the unit ramp by explicit segment integration.

    omega * slope_m^{n-1} * integral_0^t u'(tau) dtau, accumulated segment by
    segment; independent of the closed form used elsewhere.
    """
    if not (t > 0.0):
        raise ValueError("pairing parameter must be positive")
    n = u.n
    ramp = _moser_ramp_slope(t, n) ** (n - 1)
    acc = 0.0
    for t0, t1, _, b in u.segments():
        if t0 >= t:
            break
        acc += b * (min(t1, t) - t0)
    return sphere_area(n) * ramp * acc


def pairing_mstar(u: RadialProfile, t: float, check_tol: float = 1e-10) -> float:
    """Evaluate the ramp pairing omega^{1/n} t^{-1/n'} u(t).

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
    """Slack omega^{-1/n} ||grad u||_n - sup_t |u(t)| t^{-1/n'} of the radial bound.

    The supremum sits at a node: on a segment the ratio |a + b t| t^{-1/n'}
    has no interior maximum (its one critical point, t = a / ((n' - 1) b),
    is a minimum or lies at t < 0), and on the plateau it decays.  Zero
    profiles return 0 by convention.
    """
    if u.is_zero():
        return 0.0
    n = u.n
    gamma = (n - 1.0) / n  # 1/n'
    best = max(abs(v) * t ** (-gamma) for t, v in zip(u.nodes[1:], u.values[1:]))
    return sphere_area(n) ** (-1.0 / n) * grad_norm(u, n) - best


def hardy_weight_integral(u: RadialProfile) -> float:
    """integral_0^inf (u(t)/t)^2 dt, segment-exact (n = 2 weight)."""
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
    if u.n != 2:
        raise ValueError("the weighted-ratio check is implemented for n = 2 only")
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
    if u.n != 2:
        raise ValueError("mass integrals are implemented for n = 2 only")
    segs, T, c = _abs_segments(u)
    total = 0.0
    for t0, t1, v0, v1 in segs:
        b = (v1 - v0) / (t1 - t0)
        a = v0 - b * t0
        total += 2.0 * _exp_moment(a, b, t0, t1, p)
    total += c**p * math.exp(-2.0 * T)
    return total


def scale(u: RadialProfile, c: float) -> RadialProfile:
    return RadialProfile.from_arrays(u.nodes, c * u.values, u.n)


def subtract(u: RadialProfile, v: RadialProfile) -> RadialProfile:
    """u - v as an exact PL profile on the union of the two node sets."""
    if u.n != v.n:
        raise ValueError("dimension parameters differ")
    nodes = np.union1d(u.nodes, v.nodes)
    return RadialProfile.from_arrays(nodes, u.value_at(nodes) - v.value_at(nodes), u.n)


def h1_inner(u: RadialProfile, v: RadialProfile) -> float:
    """Dirichlet pairing omega * int u'(t) v'(t) dt, exact on the node union."""
    if u.n != v.n:
        raise ValueError("dimension parameters differ")
    nodes = np.union1d(u.nodes, v.nodes)
    du = np.diff(u.value_at(nodes))
    dv = np.diff(v.value_at(nodes))
    dt = np.diff(nodes)
    return sphere_area(u.n) * float(np.sum(du * dv / dt))


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
    prof = RadialProfile.from_arrays(nodes, values, 2)
    if prof.is_zero():
        return random_profile(rng, segments, t_max, normalized, nonnegative)
    if normalized:
        prof = scale(prof, 1.0 / grad_norm(prof))
    return prof


# -- serialization -----------------------------------------------------------

def profile_to_dict(u: RadialProfile) -> dict:
    return {"n": u.n, "nodes": u.nodes.tolist(), "values": u.values.tolist()}


def profile_from_dict(d: dict) -> RadialProfile:
    try:
        n = int(d["n"])
        nodes = np.asarray(d["nodes"], dtype=float)
        values = np.asarray(d["values"], dtype=float)
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
