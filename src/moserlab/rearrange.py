"""Decreasing rearrangements and Lorentz-Zygmund quasinorms.

Rearrangements are parameterized over relative measure tau in (0, 1] (the
disc area is normalized away), so the quasinorm

    ||f||_{p,q;alpha} = ( int_0^1 [ tau^{1/p} (log(e/tau))^alpha f*(tau) ]^q
                          dtau/tau )^{1/q}

is computed verbatim on (0,1), with the sup form for q = inf.  Internally a
rearranged function is a list of pieces in the coordinate ell = log(e/tau):

  * kind "step":   f* is constant on each measure interval;
  * kind "loglin": f* is affine in ell between breakpoints, plus a constant
    cap on (0, breakpoints[0]] holding the essential sup.

For a radial profile that is monotone in t the exact rearrangement is affine
in ell piece by piece, so "loglin" represents it with zero error; multimodal
profiles are refined against the exact distribution function until the
interpolation error drops below a set tolerance.

A divergent quasinorm is a value, not an error: any nonzero function with
p = inf, q < inf and alpha >= -1/q makes the cap piece alone blow up, and the
evaluator returns +inf so callers can branch on it.

The working norm (inf, inf; -1/2) has a closed form on step data: its weight
ell^{-1/2} is at most 1 and falls as ell grows, so on each step it peaks at
the large-tau end and the norm is max_i v_i ell(tau_i)^{-1/2}.  `expl2_disc`
evaluates that closed form on a disc sample without sorting every cell: an
area-weighted histogram of |v| bounds what each bucket of values can
contribute, and only the prefix of the descending order that can still reach
the sup is sorted.  `expl2_quasinorm` keeps the general stationary-point
search for every rearranged function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .radial import RadialProfile, _abs_segments, _exp_moment

__all__ = [
    "RearrangedFunction",
    "LZIndex",
    "rearrange_radial",
    "rearrange_disc",
    "lz_quasinorm",
    "expl2_quasinorm",
    "expl2_disc",
    "lp_mass_rearranged",
    "scale_rearranged",
    "random_rearranged",
    "rearranged_to_dict",
    "rearranged_from_dict",
]

# smallest representable relative measure: breakpoints live in double
# precision, so super-level sets thinner than this are absorbed into the
# constant cap at the essential sup (conservative for sup-type norms)
_TAU_FLOOR = 1e-280


def _ell(tau):
    return 1.0 - np.log(np.maximum(tau, 1e-300))


def _expl2_weight(tau):
    """Weight ell^{-1/2} of the working norm: at most 1, increasing in tau."""
    return np.power(_ell(tau), -0.5)


@dataclass(frozen=True)
class RearrangedFunction:
    """Nonincreasing representation of a decreasing rearrangement on (0, 1].

    breakpoints: strictly increasing, last exactly 1.
    values: for kind "step", one value per interval (prev, b]; for kind
    "loglin", len(breakpoints) + 1 values, values[0] being the constant cap
    on (0, breakpoints[0]] and values[i+1] the value at breakpoints[i].
    """

    breakpoints: np.ndarray
    values: np.ndarray
    kind: str

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float).copy()
        va = np.asarray(self.values, dtype=float).copy()
        bp.setflags(write=False)
        va.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", va)
        if self.kind not in ("step", "loglin"):
            raise ValueError(f"unknown representation kind {self.kind!r}")
        if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(va))):
            raise ValueError("breakpoints and values must be finite")
        if bp.ndim != 1 or bp.size == 0 or np.any(np.diff(bp) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
        if not (0.0 < bp[0] <= 1.0) or bp[-1] != 1.0:
            raise ValueError("breakpoints must lie in (0,1] and end at 1")
        want = bp.size if self.kind == "step" else bp.size + 1
        if va.size != want:
            raise ValueError("values length does not match the representation")
        if np.any(va < 0):
            raise ValueError("rearranged values must be nonnegative")
        if np.any(np.diff(va) > 1e-12 * max(1.0, float(va[0]))):
            raise ValueError("rearranged values must be nonincreasing")

    def value_at(self, tau):
        """Evaluate f*(tau) for tau in (0, 1]: a float for a scalar tau, else
        an array of tau's shape."""
        shape = np.shape(tau)
        tau = np.asarray(tau, dtype=float).ravel()
        bp, va = self.breakpoints, self.values
        idx = np.searchsorted(bp, tau, side="left")
        if self.kind == "step":
            out = va[np.clip(idx, 0, va.size - 1)]
        else:
            out = np.empty(tau.shape, dtype=float)
            cap = idx == 0
            out[cap] = va[0]
            inner = ~cap
            if np.any(inner):
                i = np.clip(idx[inner], 1, bp.size - 1)
                l0, l1 = _ell(bp[i - 1]), _ell(bp[i])
                f0, f1 = va[i], va[i + 1]
                lam = (_ell(tau[inner]) - l0) / (l1 - l0)
                out[inner] = f0 + lam * (f1 - f0)
        return float(out[0]) if shape == () else out.reshape(shape)

    def pieces(self):
        """(ell_lo, ell_hi, f_lo, f_hi) arrays; ell_hi = inf marks the cap piece.

        Each piece is affine in ell with value f_lo at ell_lo (large-tau side)
        and f_hi at ell_hi; the cap piece is constant equal to the ess sup.
        """
        va = self.values
        lo = _ell(self.breakpoints)
        hi = np.concatenate(([np.inf], lo[:-1]))
        if self.kind == "step":
            return lo, hi, va, va
        return lo, hi, np.concatenate((va[:1], va[2:])), va[:-1]


@dataclass(frozen=True)
class LZIndex:
    """Triple (p, q, alpha); p in (1, inf], q in (0, inf].

    For p = inf, finiteness on functions with a nonzero essential sup
    requires alpha < -1/q (alpha <= 0 for q = inf).  Nothing is enforced:
    lz_quasinorm returns inf there, since divergence is itself a computable
    outcome.
    """

    p: float
    q: float
    alpha: float

    def __post_init__(self):
        if not (self.p > 1.0):
            raise ValueError("first index must exceed 1")
        if not (self.q > 0.0):
            raise ValueError("second index must be positive")


# -- exact distribution function of piecewise-linear radial data -------------

class _Distribution:
    """Relative measure of super-level sets of |u| for a PL radial profile."""

    def __init__(self, u: RadialProfile):
        segs, T, c = _abs_segments(u)
        arr = np.asarray(segs, dtype=float).reshape(-1, 4)
        self.t0, self.t1 = arr[:, 0], arr[:, 1]
        self.v0, self.v1 = arr[:, 2], arr[:, 3]
        self.e0 = np.exp(-2.0 * self.t0)
        self.e1 = np.exp(-2.0 * self.t1)
        self.full = self.e0 - self.e1
        self.flat = self.v0 == self.v1
        self.lo = np.minimum(self.v0, self.v1)
        self.hi = np.maximum(self.v0, self.v1)
        self.dv = np.where(self.flat, 1.0, self.v1 - self.v0)
        self.T, self.c = T, c
        self.vmax = float(max(self.hi.max(initial=0.0), c))

    def measure_above(self, lams, strict: bool = True):
        """mu(lam) = |{ |u| > lam }| (or >=), vectorized over lam, chunked."""
        lams = np.atleast_1d(np.asarray(lams, dtype=float))
        out = np.empty(lams.shape, dtype=float)
        chunk = max(1, int(4e6 // max(1, self.t0.size)))
        for start in range(0, lams.size, chunk):
            sl = slice(start, min(start + chunk, lams.size))
            out[sl] = self._measure_chunk(lams[sl], strict)
        return out

    def _measure_chunk(self, lams, strict):
        above = np.greater if strict else np.greater_equal
        lam = lams[:, None]
        above_flat = above(self.v0[None, :], lam)
        all_above = above(self.lo[None, :], lam)
        crossing = above(self.hi[None, :], lam) & ~all_above
        tc = self.t0[None, :] + (lam - self.v0[None, :]) / self.dv[None, :] * (
            self.t1[None, :] - self.t0[None, :]
        )
        ec = np.exp(-2.0 * np.clip(tc, 0.0, 400.0))
        inc = (self.v1 > self.v0)[None, :]
        cross_part = np.where(inc, ec - self.e1[None, :], self.e0[None, :] - ec)
        seg = np.where(
            self.flat[None, :],
            np.where(above_flat, self.full[None, :], 0.0),
            np.where(
                all_above,
                self.full[None, :],
                np.where(crossing, cross_part, 0.0),
            ),
        )
        total = seg.sum(axis=1)
        plateau = above(self.c, lams)
        return total + np.where(plateau, math.exp(-2.0 * self.T), 0.0)


def rearrange_radial(u: RadialProfile, tol: float = 1e-6) -> RearrangedFunction:
    """Exact decreasing rearrangement of a radial profile over relative measure.

    Level breakpoints of the PL data anchor the representation; flat levels
    (the plateau) become exact constant pieces.  Between anchors the curve is
    refined in the (ell, value) plane until the chord error is below
    tol * sup|u|.  For profiles monotone in t the curve is exactly affine
    there, so the anchors alone represent the rearrangement with zero error
    regardless of tol; the tolerance only matters for multimodal data.
    """
    dist = _Distribution(u)
    vmax = dist.vmax
    if vmax == 0.0:
        return RearrangedFunction(np.array([1.0]), np.array([0.0, 0.0]), "loglin")
    abs_tol = tol * vmax

    levels = np.unique(
        np.concatenate((dist.v0, dist.v1, [dist.c, 0.0]))
    )[::-1]
    ms = dist.measure_above(levels, strict=True)
    mw = dist.measure_above(levels, strict=False)

    taus, lams = [], []
    for lev, a, b in zip(levels, ms, mw):
        taus.append(float(a))
        lams.append(float(lev))
        if b > a:
            taus.append(float(b))
            lams.append(float(lev))

    # refine between anchors with a worklist: converged chords are final
    work = [
        (taus[i], lams[i], taus[i + 1], lams[i + 1])
        for i in range(len(taus) - 1)
        if lams[i] - lams[i + 1] > 1e-14 * vmax
    ]
    for _ in range(60):
        if not work:
            break
        arr = np.asarray(work)
        tau_a, lam_a, tau_b, lam_b = arr.T
        lam_mid = 0.5 * (lam_a + lam_b)
        tau_mid = dist.measure_above(lam_mid, strict=True)
        la, lb, lm = _ell(tau_a), _ell(tau_b), _ell(tau_mid)
        denom = np.where(lb == la, 1.0, lb - la)
        lam_chord = lam_a + (lm - la) / denom * (lam_b - lam_a)
        bad = (
            (np.abs(lam_chord - lam_mid) > abs_tol)
            & (lam_a - lam_b > 1e-14 * vmax)
            & (tau_b >= _TAU_FLOOR)
        )
        next_work = []
        for i in np.nonzero(bad)[0]:
            taus.append(float(tau_mid[i]))
            lams.append(float(lam_mid[i]))
            next_work.append((tau_a[i], lam_a[i], tau_mid[i], lam_mid[i]))
            next_work.append((tau_mid[i], lam_mid[i], tau_b[i], lam_b[i]))
        work = next_work

    order = np.lexsort((-np.asarray(lams), np.asarray(taus)))
    taus = np.asarray(taus)[order]
    lams = np.asarray(lams)[order]
    keep = taus >= _TAU_FLOOR
    lam_floor = float(np.min(lams[~keep])) if not np.all(keep) else vmax
    taus, lams = taus[keep], lams[keep]
    if lam_floor < vmax * (1.0 - 1e-12):
        # sub-floor points carried real curve information: collapse them
        # into a breakpoint at the floor; the cap above holds the ess sup
        taus = np.concatenate(([_TAU_FLOOR], taus))
        lams = np.concatenate(([lam_floor], lams))
    strictly = np.concatenate(([True], np.diff(taus) > 0.0))
    taus, lams = taus[strictly], lams[strictly]
    taus[-1] = 1.0
    values = np.concatenate(([vmax], np.minimum.accumulate(lams)))
    return RearrangedFunction(taus, values, "loglin")


def rearrange_disc(u) -> RearrangedFunction:
    """Step rearrangement of a sampled disc function by cell-value sorting."""
    values, areas = u.cell_values_and_areas()
    order = np.argsort(np.abs(values), kind="stable")[::-1]
    vals = np.abs(values[order])
    taus = np.cumsum(areas[order])
    taus /= taus[-1]
    vals = np.minimum.accumulate(vals)  # guard rounding of nearly equal values
    return RearrangedFunction(taus, vals, "step")


# -- quasinorms ---------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(24)


def _power_integral(lo, hi, m: float):
    """int_lo^hi ell^m d ell, elementwise."""
    if m == -1.0:
        return np.log(hi / lo)
    return (hi ** (m + 1.0) - lo ** (m + 1.0)) / (m + 1.0)


def _cap_integral(ell0: float, w0: float, p: float, q: float, alpha: float) -> float:
    """Contribution of the constant cap on ell in [ell0, inf)."""
    if w0 == 0.0:
        return 0.0
    aq = alpha * q
    if p == math.inf:
        if aq >= -1.0:
            return math.inf
        return w0**q * ell0 ** (aq + 1.0) / (-(aq + 1.0))
    from scipy import integrate

    val, _ = integrate.quad(
        lambda l: (math.exp((1.0 - l) / p) * l**alpha * w0) ** q,
        ell0,
        np.inf,
        epsabs=1e-15,
        epsrel=1e-11,
        limit=200,
    )
    return val


def _gl_panel(lo, hi, f_lo, f_hi, p, q, alpha):
    """Vectorized Gauss-Legendre on pieces with width <= 1 (analytic integrand)."""
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    ells = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    lam = (ells - lo[:, None]) / (hi - lo)[:, None]
    f = f_lo[:, None] + lam * (f_hi - f_lo)[:, None]
    g = np.power(ells, alpha) * np.maximum(f, 0.0)
    if p != math.inf:
        g = g * np.exp((1.0 - ells) / p)
    return float((half[:, None] * _GL_WEIGHTS[None, :] * np.power(g, q)).sum())


def _integrate_pieces(lo, hi, f_lo, f_hi, p, q, alpha) -> float:
    total = 0.0
    cap = np.isinf(hi)
    for k in np.nonzero(cap)[0]:
        part = _cap_integral(lo[k], f_lo[k], p, q, alpha)
        if math.isinf(part):
            return math.inf
        total += part
    fin = ~cap
    lo_f, hi_f, a_f, b_f = lo[fin], hi[fin], f_lo[fin], f_hi[fin]
    if lo_f.size == 0:
        return total
    if p == math.inf:
        const = a_f == b_f
        if np.any(const):
            aq = alpha * q
            vals = np.where(a_f[const] > 0, a_f[const], 0.0) ** q
            total += float(
                np.sum(vals * _power_integral(lo_f[const], hi_f[const], aq))
            )
        lo_f, hi_f, a_f, b_f = (
            lo_f[~const],
            hi_f[~const],
            a_f[~const],
            b_f[~const],
        )
        if lo_f.size == 0:
            return total
    widths = hi_f - lo_f
    easy = widths <= 1.0
    if np.any(easy):
        total += _gl_panel(lo_f[easy], hi_f[easy], a_f[easy], b_f[easy], p, q, alpha)
    for k in np.nonzero(~easy)[0]:
        n = int(math.ceil(widths[k]))
        edges = np.linspace(lo_f[k], hi_f[k], n + 1)
        fvals = a_f[k] + (edges - lo_f[k]) / widths[k] * (b_f[k] - a_f[k])
        total += _gl_panel(edges[:-1], edges[1:], fvals[:-1], fvals[1:], p, q, alpha)
    return total


def _sup_pieces(lo, hi, f_lo, f_hi, p, alpha) -> float:
    invp = 0.0 if p == math.inf else 1.0 / p

    def weight(ell):
        w = np.power(ell, alpha)
        if invp:
            w = w * np.exp((1.0 - ell) * invp)
        return w

    best = 0.0
    cap = np.isinf(hi)
    for k in np.nonzero(cap)[0]:
        w0 = f_lo[k]
        if w0 <= 0.0:
            continue
        if invp == 0.0:
            if alpha > 0.0:
                return math.inf
            best = max(best, w0 * float(weight(lo[k])))
        else:
            cands = [lo[k]]
            crit = alpha / invp
            if crit > lo[k]:
                cands.append(crit)
            best = max(best, w0 * float(np.max(weight(np.array(cands)))))
    fin = ~cap
    la, lb, fa, fb = lo[fin], hi[fin], f_lo[fin], f_hi[fin]
    if la.size == 0:
        return best
    B = (fb - fa) / (lb - la)
    A = fa - B * la
    # stationary points of (A + B ell) ell^alpha e^{(1-ell)/p}: quadratic in ell
    c2 = -B * invp
    c1 = B * (1.0 + alpha) - A * invp
    c0 = alpha * A
    cands = [la, lb]
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = c1 * c1 - 4.0 * c2 * c0
        sq = np.sqrt(np.maximum(disc, 0.0))
        for sign in (1.0, -1.0):
            r_quad = (-c1 + sign * sq) / (2.0 * c2)
            r_lin = -c0 / c1
            root = np.where(c2 != 0.0, r_quad, np.where(c1 != 0.0, r_lin, la))
            root = np.where((disc >= 0.0) | (c2 == 0.0), root, la)
            cands.append(np.clip(root, la, lb))
    for ell in cands:
        val = (A + B * ell) * weight(ell)
        m = float(np.max(np.where(np.isfinite(val), val, 0.0), initial=0.0))
        best = max(best, m)
    return best


def lz_quasinorm(f: RearrangedFunction, idx: LZIndex) -> float:
    """Quasinorm with indices (p, q, alpha); +inf signals divergence."""
    lo, hi, f_lo, f_hi = f.pieces()
    if idx.q == math.inf:
        return _sup_pieces(lo, hi, f_lo, f_hi, idx.p, idx.alpha)
    total = _integrate_pieces(lo, hi, f_lo, f_hi, idx.p, idx.q, idx.alpha)
    if math.isinf(total):
        return math.inf
    return total ** (1.0 / idx.q)


def expl2_quasinorm(f: RearrangedFunction) -> float:
    """The working exponential-class norm: indices (inf, inf; -1/2)."""
    return lz_quasinorm(f, LZIndex(math.inf, math.inf, -0.5))


# buckets of the |v| histogram that bounds which disc cells can carry the sup
_EXPL2_BUCKETS = 4096


def _expl2_prefix(mags, areas, total, mask, start):
    """Sup over the masked cells taken in rearrange_disc's order.

    The mask must select a run of that order whose predecessors have total
    area `start`.  Returns the sup, the last value and its cumulative area.
    """
    sel = np.flatnonzero(mask)
    order = sel[np.argsort(mags[sel], kind="stable")[::-1]]
    vals = mags[order]
    taus = np.cumsum(np.concatenate(([start], areas[order])))[1:]
    best = float(np.max(vals * _expl2_weight(taus / total)))
    return best, float(vals[-1]), float(taus[-1])


def expl2_disc(u) -> float:
    """expl2_quasinorm(rearrange_disc(u)), sorting only the cells that can win.

    The bucket index of |v| is nondecreasing in |v|, so the cells of buckets
    >= b are a prefix of the descending order, and an area-weighted histogram
    gives the area of that prefix: no cell of bucket b sorts past it, so none
    carries a larger weight.  The bucket with the best (lower edge) x
    (weight) is the guess for the sup; the cells from there up are sorted and
    their exact sup taken.  Every cell below has |v| under the last value
    sorted, whatever the rounding of the index, so each lower bucket is
    bounded by min(top edge, last value) x weight; those whose bound beats
    the sup are sorted as a continuation of the same prefix.  The cumulative
    areas are those of the full sort: the result differs from it only through
    the summation order of the total area.
    """
    values, areas = u.cell_values_and_areas()
    mags = np.abs(values)
    vmax = float(mags.max())
    if vmax == 0.0:
        return 0.0
    nb = _EXPL2_BUCKETS
    # mags / vmax lies in [0, 1]: no overflow, however small vmax is
    bucket = np.minimum((mags / vmax * nb).astype(np.intp), nb - 1)
    hist = np.bincount(bucket, weights=areas, minlength=nb)
    total = float(areas.sum())
    w_reach = _expl2_weight(np.cumsum(hist[::-1])[::-1] / total)
    edges = np.arange(nb + 1) * (vmax / nb)
    first = int(np.argmax(edges[:-1] * w_reach))
    best, v_last, s_last = _expl2_prefix(mags, areas, total, bucket >= first, 0.0)
    # every cell below `first` has |v| < v_last (the index is monotone in |v|)
    bound = np.minimum(edges[1:first + 1], v_last) * w_reach[:first]
    can_win = np.flatnonzero((bound > best) & (hist[:first] > 0))
    if can_win.size:
        run = (bucket >= can_win[0]) & (bucket < first)
        best = max(best, _expl2_prefix(mags, areas, total, run, s_last)[0])
    return best


def lp_mass_rearranged(f: RearrangedFunction, p: int) -> float:
    """int_0^1 f*(tau)^p d tau via closed forms (integer p >= 1)."""
    total = 0.0
    for la, lb, fa, fb in zip(*f.pieces()):
        if math.isinf(lb):
            total += fa**p * math.exp(1.0 - la)
            continue
        B = (fb - fa) / (lb - la)
        total += _exp_moment(fa - B * la, B, la, lb, p, k=1.0, c=1.0)
    return total


def scale_rearranged(f: RearrangedFunction, c: float) -> RearrangedFunction:
    return RearrangedFunction(f.breakpoints, abs(c) * f.values, f.kind)


def random_rearranged(rng: np.random.Generator, pieces: int = 12) -> RearrangedFunction:
    """Random nonincreasing step function on (0,1] for property tests."""
    bp = np.sort(rng.uniform(0.01, 0.99, size=pieces - 1))
    bp = np.concatenate((np.unique(bp), [1.0]))
    vals = np.sort(np.abs(rng.normal(size=bp.size)))[::-1]
    return RearrangedFunction(bp, vals, "step")


def rearranged_to_dict(f: RearrangedFunction) -> dict:
    return {
        "breakpoints": f.breakpoints.tolist(),
        "values": f.values.tolist(),
        "kind": f.kind,
    }


def rearranged_from_dict(d: dict) -> RearrangedFunction:
    try:
        return RearrangedFunction(
            np.asarray(d["breakpoints"], dtype=float),
            np.asarray(d["values"], dtype=float),
            str(d["kind"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed rearranged-function record: {exc}") from exc
