"""Sampled functions on the unit disc and the dislocation operators.

Grids are log-polar, and this is their only geometry: ring i sits at
s = log(1/r) uniformly spaced between s_max and 0, plus a single center node.
In the coordinates (s, theta) the Dirichlet integrand is conformally flat,

    int |grad u|^2 dx = int int (u_s^2 + u_theta^2) ds dtheta  (+ center cap),

so the discrete energy is the exact Dirichlet energy of the bilinear
interpolant in (s, theta), cap included.  `_pair(u, vs)` pairs u with each
function of a list, their differences taken in blocks of rings, or with each
probe of a `_ProbeStack`: a probe is a radial column times cos(m theta), and
the form is circulant in theta, so u's rings are projected on the probes'
angular vectors in one matrix product and the rest is one pass over rings.

Deflation, the angular profile around a center and the ball means A_r u(z)
that the detector scores as j^{-1/2} |A_{RHO^j} u(z)| all sample u on polar
nets zeta + rho e^{i phi}.  A net is built once, as a gather plan, and sampled
for every member that shares it: one per scale in the detector scan, one per
(j, zeta) in deflation, one per center for angular profiles.

Dislocations: deflation sends u to j^{-1/2} u(zeta + z^j); the image of the
grid under the power map is again log-uniform, so the deflated function is
returned on its own adapted grid (extent exactly s_max/j, angular count scaled
by j).  The image is j-fold symmetric, and it is stored as such: a function
of symmetry order j keeps the full grid but only one block of n_theta/j
columns, and the forms, interpolation and rearrangement work on that
block.  With that convention the deflation of a function sampled around its
own center is energy-exact, and off-center deflations lose only bilinear
interpolation error.  The operands of a form (energy, max_pairing) or a sum
(add, subtract_disc) share one grid and one symmetry order: a deflation w is
paired with _ProbeStack(w.grid, count, w.order), make_probes held separably.
Powers z^j are computed as (|z|^j, j*theta), never by repeated complex
multiplication.  Inflation j^{1/2} w(|z - zeta|^{1/j}) of a radial profile
is its closed form on the field -log|z - zeta|, built one block of rings at
a time, once per center, and shared over the scales j; at the origin the
field is one ring column.
Out-of-domain reads are zero everywhere (extension by zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .radial import RadialProfile

__all__ = [
    "PolarGrid",
    "DiscFunction",
    "DislocationParam",
    "SupportError",
    "GridResolutionError",
    "inflate",
    "deflate",
    "energy",
    "grad_norm_disc",
    "add",
    "subtract_disc",
    "scale_disc",
    "average",
    "concentration_detect",
    "angular_mode",
    "make_probes",
    "max_pairing",
    "disc_to_dict",
    "disc_from_dict",
]


class SupportError(ValueError):
    """Inflated support does not fit inside the disc."""


class GridResolutionError(ValueError):
    """An operation needs finer grid resolution than available."""


def _integer(x, what: str) -> int:
    """x as an int if a finite integral real, not a bool; else a ValueError."""
    try:
        ok = not isinstance(x, bool) and int(x) == x
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{what}: {x!r} is not an integer")
    return int(x)


def _boolean(x, what: str) -> bool:
    """x if a bool (JSON true or false); else a ValueError."""
    if not isinstance(x, bool):
        raise ValueError(f"{what}: {x!r} is not a boolean")
    return x


def _real(x, what: str) -> float:
    """x as a float if an int or float, not a bool; else a ValueError.

    Finiteness is left to the checks of the object that x goes into."""
    try:
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return float(x)
    except OverflowError:
        pass
    raise ValueError(f"{what}: {x!r} is not a real number")


def _point(z, what: str) -> complex:
    """z as a complex number if a pair of reals (see `_real`); else a ValueError."""
    if not isinstance(z, (list, tuple)) or len(z) != 2:
        raise ValueError(f"{what}: {z!r} is not a pair of real numbers")
    return complex(_real(z[0], what), _real(z[1], what))


def _reals(x, what: str) -> np.ndarray:
    """x as a float array if a flat list of ints and floats (no bool, string
    or null); a ValueError names a wrong entry type, and anything else is a
    TypeError.  Each entry is checked, since numpy reads a bool among
    numbers as 0 or 1."""
    if not isinstance(x, list):
        raise TypeError(f"{what}: {type(x).__name__} is not a list")
    bad = set(map(type, x)) - {int, float}
    if bad:
        names = ", ".join(sorted(t.__name__ for t in bad))
        raise ValueError(f"{what}: entries of type {names} are not real numbers")
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class PolarGrid:
    n_r: int
    n_theta: int
    s_max: float = 12.0

    def __post_init__(self):
        object.__setattr__(self, "n_r", _integer(self.n_r, "n_r"))
        object.__setattr__(self, "n_theta", _integer(self.n_theta, "n_theta"))
        if self.n_r < 16:
            raise ValueError("need at least 16 radial cells")
        if self.n_theta < 32:
            raise ValueError("need at least 32 angular cells")
        if not (0.0 < self.s_max < math.inf):
            raise ValueError("need a finite s_max > 0")

    @property
    def dtheta(self) -> float:
        return 2.0 * math.pi / self.n_theta


@lru_cache(maxsize=256)
def _ring_radii(grid: PolarGrid) -> np.ndarray:
    s = grid.s_max * (grid.n_r - 1 - np.arange(grid.n_r)) / (grid.n_r - 1)
    r = np.exp(-s)
    r[-1] = 1.0
    r.setflags(write=False)
    return r


@lru_cache(maxsize=256)
def _ring_s(grid: PolarGrid) -> np.ndarray:
    s = -np.log(_ring_radii(grid))
    s[-1] = 0.0
    s.setflags(write=False)
    return s


@lru_cache(maxsize=256)
def _thetas(grid: PolarGrid) -> np.ndarray:
    th = grid.dtheta * np.arange(grid.n_theta)
    th.setflags(write=False)
    return th


def _angular_index(grid: PolarGrid, theta: np.ndarray, width: int):
    """(m, m + 1 mod width, eta): the angular nodes around theta in [0, 2 pi],
    as intp columns of a ring array `width` wide (n_theta, or the block width
    of a j-fold function), and the weight eta of the second one, written over
    theta."""
    y = np.divide(theta, grid.dtheta, out=theta)
    floor = np.floor(y)
    m = floor.astype(np.intp)
    m[m >= width] %= width  # theta = 2 pi (an angle just below 0 rounds up), or a j-fold block
    m1 = m + 1
    m1[m1 == width] = 0
    return m, m1, np.subtract(y, floor, out=y)


def cell_areas(grid: PolarGrid) -> tuple[float, np.ndarray]:
    """(cap area, per-annulus cell areas), absolute; they sum to pi."""
    r = _ring_radii(grid)
    cap = math.pi * r[0] ** 2
    ann = math.pi * (r[1:] ** 2 - r[:-1] ** 2) / grid.n_theta
    return cap, ann


# a 1024^2 grid's array is 8 MiB: keep only a few grids
@lru_cache(maxsize=4)
def _cell_area_array(grid: PolarGrid, order: int) -> np.ndarray:
    """Per-cell absolute areas, cap first, in the order of an order-j block's
    cell values: each block cell stands for its j rotated copies."""
    cap, ann = cell_areas(grid)
    areas = np.concatenate(([cap], np.repeat(ann * order, grid.n_theta // order)))
    areas.setflags(write=False)
    return areas


@dataclass(frozen=True)
class DiscFunction:
    """Node samples on a polar grid: ring values (n_r, n_theta) plus a center.

    Zero trace on the boundary ring is the default contract; zero_trace=False
    marks a function whose boundary ring need not vanish.  A function of
    symmetry order j (invariant under rotation by 2 pi / j, j dividing
    n_theta) stores one block of rings, shape (n_r, n_theta / j), and every
    kernel works on that block; only `disc_to_dict` writes the full array.
    """

    grid: PolarGrid
    center: float
    rings: np.ndarray
    support_radius: float = 1.0
    zero_trace: bool = True
    order: int = 1

    def __post_init__(self):
        # the caller may still hold the array: keep a private copy
        self._own(np.array(self.rings, dtype=float, order="C"))

    @classmethod
    def _owned(cls, grid, center, rings, support_radius=1.0, zero_trace=True, order=1, peak=None):
        """The constructor for a fresh float array that no caller holds.

        Same checks as the public constructor (on `peak`, see `_own`); no copy.
        """
        u = object.__new__(cls)
        for name, value in (("grid", grid), ("center", center),
                            ("support_radius", support_radius),
                            ("zero_trace", zero_trace), ("order", order)):
            object.__setattr__(u, name, value)
        u._own(rings, peak)
        return u

    def _own(self, rings: np.ndarray, peak=None) -> None:
        """Validate the samples and store `rings`, read-only, as this function's;
        `peak`, if given, is max(rings.max(), -rings.min()), taken by the caller."""
        if self.order < 1 or self.grid.n_theta % self.order:
            raise ValueError("symmetry order must divide n_theta")
        if rings.shape != (self.grid.n_r, self.grid.n_theta // self.order):
            raise ValueError("ring values must have shape (n_r, n_theta / order)")
        # NaN and inf propagate into the extremes, so the largest magnitude
        # both validates the samples and gives the zero-trace scale
        if peak is None:
            peak = max(float(rings.max()), -float(rings.min()))
        if not math.isfinite(peak) or not math.isfinite(self.center):
            raise ValueError("disc samples must be finite")
        if not (0.0 < self.support_radius <= 1.0):
            raise ValueError("support radius must lie in (0, 1]")
        if self.zero_trace:
            if np.max(np.abs(rings[-1])) > 1e-9 * max(1.0, peak):
                raise ValueError("boundary ring must vanish (zero trace)")
        rings.setflags(write=False)
        object.__setattr__(self, "rings", rings)

    def interpolate(self, z) -> np.ndarray:
        """Bilinear-in-(s, theta) evaluation at complex points, in the shape of z; 0 outside."""
        return _Net(self.grid, self.rings.shape[1], z).sample(self)

    def cell_values_and_areas(self):
        """Per-cell representative values and absolute areas (cap first).

        A j-fold function gives its block's cells (cyclic in the block) with
        j-fold areas, the distribution of the full grid's.  The areas are a
        shared read-only array per grid and order.
        """
        V = self.rings
        values = np.empty(1 + V[1:].size)
        values[0] = 0.5 * (self.center + float(np.mean(V[0])))
        cells = values[1:]  # ((a + b) + c) + d, c and d of the next column, cyclic
        np.add(V[:-1].ravel(), V[1:].ravel(), out=cells)
        # on flat views the last column adds the next ring's first node: it is redone on its own
        for row in (V[:-1].ravel(), V[1:].ravel()):
            cells[:-1] += row[1:]
        last = cells.reshape(V[1:].shape)[:, -1]
        np.add(V[:-1, -1], V[1:, -1], out=last)
        last += V[:-1, 0]
        last += V[1:, 0]
        cells *= 0.25
        return values, _cell_area_array(self.grid, self.order)


@dataclass(frozen=True)
class DislocationParam:
    """Scale exponent j >= 1 and center in the closed disc."""

    j: int
    zeta: complex

    def __post_init__(self):
        object.__setattr__(self, "j", _integer(self.j, "j"))
        object.__setattr__(self, "zeta", complex(self.zeta))
        if self.j < 1:
            raise ValueError("scale exponent must be a positive integer")
        if not abs(self.zeta) <= 1.0 + 1e-12:  # NaN fails it too
            raise ValueError("center must lie in the closed disc")


# -- energy and inner products ------------------------------------------------

# nodes per block of a blocked pass (`_pair`, `_log_distance`, `expl2_disc`): scratch stays in L2
_BLOCK = 1 << 15


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row of a, its dot product with that row of each array stacked in b."""
    return np.einsum("ij,pij->pi", a, b)


def _check_operands(u: DiscFunction, v: DiscFunction) -> None:
    """ValueError unless u and v share one grid and one symmetry order."""
    if u.grid != v.grid:
        raise ValueError("disc functions live on different grids")
    if u.order != v.order:
        raise ValueError("disc functions have different symmetry orders")


def _differences(Vs, a: int, b: int, A: np.ndarray, G: np.ndarray) -> tuple:
    """The radial differences of rings a .. b - 1 and the cyclic angular
    differences of rings a .. b of each ring array in Vs, written into the
    first rows of the buffers A and G, one slot per array."""
    A, G = A[:, :b - a], G[:, :b + 1 - a]
    for p, V in enumerate(Vs):
        np.subtract(V[a + 1:b + 1], V[a:b], out=A[p])
        # on flat views the last column takes the next ring's first node: it is redone on its own
        Vf = V[a:b + 1].reshape(-1)
        np.subtract(Vf[1:], Vf[:-1], out=G[p].reshape(-1)[:-1])
        np.subtract(V[a:b + 1, 0], V[a:b + 1, -1], out=G[p, :, -1])
    return A, G


def _cap_terms(a0u: np.ndarray, a0v: np.ndarray, dth: float) -> np.ndarray:
    """The cap's radial term of the form, for u's cap row a0u = rings[0] - center
    and each stacked cap row of a0v, unshifted and shifted by a column."""
    a1u, a1v = np.roll(a0u, -1), np.roll(a0v, -1, axis=1)
    return dth * np.sum(a0u * a0v + 0.5 * (a0u * a1v + a1u * a0v) + a1u * a1v, axis=1) / 6.0


def _pair(u: DiscFunction, vs) -> np.ndarray:
    """Dirichlet bilinear form of u with each function of vs, exact cap
    included: one value per function of a sequence (their differences taken
    in blocks of rings, once for u if it is vs[0]) or per probe of a
    `_ProbeStack` (see `_ProbeStack.pair`).

    A cell's edge differences (A, B radial; C, D angular) enter as
    (A_u A_v + (A_u B_v + B_u A_v)/2 + B_u B_v)/3, with B the A of the next
    column and C, D rows i, i+1 of the angular difference G: each term is a
    row dot product, summed per row as over the whole arrays but taken in
    blocks of rings that stay in cache.  Of j-fold functions each cyclic row
    sum is j times the sum over one block: the form is j times the block's.
    """
    if not vs:
        raise ValueError("no probes to pair with")
    if isinstance(vs, _ProbeStack):
        _check_operands(u, vs)
        return vs.pair(u)
    for v in vs:
        _check_operands(u, v)
    Vu, shared, count = u.rings, vs[0] is u, len(vs)
    n, w = Vu.shape
    s, dth = _ring_s(u.grid), u.grid.dtheta
    ds = s[:-1] - s[1:]  # positive
    radial, Q, P = np.empty((count, n - 1)), np.empty((count, n - 1)), np.empty((count, n))
    step = max(1, _BLOCK // (w * count))
    # block buffers for the differences of vs, and of u unless shared
    bufs = [(np.empty((k, step, w)), np.empty((k, step + 1, w))) for k in (count, 1 - shared)]
    for a in range(0, n - 1, step):
        b = min(a + step, n - 1)
        Av, Gv = _differences([v.rings for v in vs], a, b, *bufs[0])
        Au, Gu = (x[0] for x in ((Av, Gv) if shared else _differences([Vu], a, b, *bufs[1])))
        cross = ((_rowdot(Au[:, :-1], Av[:, :, 1:]) + Au[:, -1] * Av[:, :, 0])  # A_u B_v, cyclic
                 + (_rowdot(Au[:, 1:], Av[:, :, :-1]) + Av[:, :, -1] * Au[:, 0]))  # B_u A_v
        radial[:, a:b] = 2.0 * _rowdot(Au, Av) + 0.5 * cross
        P[:, a:b + 1] = _rowdot(Gu, Gv)
        Q[:, a:b] = _rowdot(Gu[:-1], Gv[:, 1:]) + _rowdot(Gu[1:], Gv[:, :-1])
    # one np.dot per function, as for one: a matrix product sums in another order
    e_s = np.array([np.dot(dth / ds, row) for row in radial]) / 3.0
    e_t = np.array([np.dot(ds / dth, row) for row in P[:, :-1] + P[:, 1:] + 0.5 * Q]) / 3.0
    a0v = np.array([v.rings[0] for v in vs]) - np.array([[v.center] for v in vs], dtype=float)
    cap_r = _cap_terms(Vu[0] - u.center, a0v, dth)
    cap_t = 0.5 * P[:, 0] / dth
    return u.order * (e_s + e_t + cap_r + cap_t)


def energy(u: DiscFunction) -> float:
    """Dirichlet energy of the bilinear interpolant, exact cap included."""
    return float(_pair(u, [u])[0])


def grad_norm_disc(u: DiscFunction) -> float:
    return math.sqrt(energy(u))


def _peak(x: np.ndarray):
    """max(x.max(), -x.min()), NaN if x holds one: the largest magnitude."""
    return np.maximum(x.max(), -x.min())


def _owned_copy(u: DiscFunction) -> DiscFunction:
    """u's copy for an in-place update: its rings view, read-only, a
    writable array that no caller holds."""
    rings = np.array(u.rings)[...]
    return DiscFunction._owned(u.grid, u.center, rings, u.support_radius, u.zero_trace, u.order)


def _combine(u: DiscFunction, v: DiscFunction, op) -> DiscFunction:
    """op of two functions of one grid and one symmetry order."""
    _check_operands(u, v)
    return DiscFunction._owned(u.grid, float(op(u.center, v.center)), op(u.rings, v.rings),
                               max(u.support_radius, v.support_radius),
                               u.zero_trace and v.zero_trace, u.order)


def add(u: DiscFunction, v: DiscFunction) -> DiscFunction:
    return _combine(u, v, np.add)


def subtract_disc(u: DiscFunction, v: DiscFunction) -> DiscFunction:
    return _combine(u, v, np.subtract)


def scale_disc(u: DiscFunction, c: float) -> DiscFunction:
    return DiscFunction._owned(
        u.grid, c * u.center, c * u.rings, u.support_radius, u.zero_trace, u.order
    )


# -- dislocations --------------------------------------------------------------

def inflate(
    w: RadialProfile, d: DislocationParam, grid: PolarGrid, order: int = 1
) -> DiscFunction:
    """Sample j^{1/2} w(|z - zeta|^{1/j}) on the grid.

    Requires the inflated support B(zeta, R^j) to stay inside the disc, where
    R is the support radius of the profile; otherwise raises SupportError
    with the violating radius.  A bubble at the origin is radial: with
    order k it is sampled as an order-k function, on one block only.
    """
    if order > 1 and d.zeta != 0:
        raise ValueError("only a bubble at the origin has angular symmetry")
    return _inflated(w, d.zeta, [d.j], grid, order)[0]


def _log_distance(grid: PolarGrid, zeta: complex):
    """-log|z - zeta| at rings 0 .. n_r - 2 in blocks (a, b, rings a .. b - 1) of at most
    n_r rows, each written over the one before, cos and sin taken once: n_theta columns
    wide, or at the origin, where 0 cos theta and 0 sin theta are +-0, one."""
    radii, n = _ring_radii(grid), grid.n_r - 1
    thetas = _thetas(grid)[: 1 if zeta == 0 else None]
    zx, zy = zeta.real, zeta.imag
    proj, zz = (zx * np.cos(thetas) + zy * np.sin(thetas))[None, :], zx * zx + zy * zy
    buf = np.empty((min(n, max(1, _BLOCK // thetas.size)), thetas.size))
    for a in range(0, n, len(buf)):
        r = radii[a:min(a + len(buf), n), None]
        d2 = np.multiply(2.0 * r, proj, out=buf[:len(r)])
        np.subtract(r ** 2 + zz, d2, out=d2)
        np.sqrt(np.maximum(d2, 0.0, out=d2), out=d2)
        with np.errstate(divide="ignore"):
            np.negative(np.log(d2, out=d2), out=d2)
        yield a, a + len(r), d2


def _bubble(w: RadialProfile, d: DislocationParam) -> tuple:
    """(center value, support radius) of w inflated at d; a SupportError unless
    that support B(zeta, R^j) fits in the disc."""
    j, zeta = d.j, d.zeta
    R_inf = math.exp(-w.support_log_radius()) ** j
    if R_inf > 1.0 - abs(zeta) + 1e-12:
        raise SupportError(f"inflated support radius {R_inf:.6g} around {zeta} leaves the "
                           f"disc (available {1.0 - abs(zeta):.6g})")
    t_c = math.inf if zeta == 0 else -math.log(abs(zeta)) / j
    return math.sqrt(j) * float(w.value_at(t_c)), min(1.0, abs(zeta) + R_inf)


def _bubble_rows(w: RadialProfile, j: int, field: np.ndarray, out: np.ndarray) -> np.ndarray:
    """j^{1/2} w(field / j) into out: field / j is written there, then read by the profile."""
    return np.multiply(w.value_at(np.divide(field, j, out=out)), math.sqrt(j), out=out)


def _inflated(w: RadialProfile, zeta: complex, js, grid: PolarGrid, order=1) -> list:
    """`inflate` at (j, zeta) for each j of js, each block of the field -log|z - zeta|
    evaluated for every j; at the origin a bubble is one column, repeated after, and
    the boundary ring, which the blocks skip, is 0."""
    frames = [_bubble(w, DislocationParam(j, zeta)) for j in js]
    rings = [np.empty((grid.n_r, 1 if zeta == 0 else grid.n_theta)) for _ in js]
    for r in rings:
        r[-1] = 0.0
    peaks = [np.float64(0.0)] * len(js)
    for a, b, field in _log_distance(grid, zeta):
        for k, j in enumerate(js):
            peaks[k] = np.maximum(peaks[k], _peak(_bubble_rows(w, j, field, rings[k][a:b])))
    if zeta == 0:
        rings = [np.repeat(r, grid.n_theta // order, axis=1) for r in rings]
    return [DiscFunction._owned(grid, center, r, support, order=order, peak=float(peak))
            for r, (center, support), peak in zip(rings, frames, peaks)]


def deflate(u: DiscFunction, d: DislocationParam) -> DiscFunction:
    """(g u)(z) = j^{-1/2} u(zeta + z^j) on the adapted output grid.

    Out-of-domain reads are zero by extension.  The output grid keeps n_r,
    shrinks the radial extent to s_max/j and has n_theta * j angular nodes.
    The result is j-fold symmetric and is returned with order j: one block
    of n_theta columns, the source resampled once.  Its discrete energy
    equals the bilinear energy of the resampled source and converges to the
    input energy under grid refinement (the continuum operator is an
    isometry).
    """
    ((_, vals),) = _deflation_samples([u], d)
    return _deflated(u, d, vals)


def _deflation_samples(us, d: DislocationParam):
    """(k, us[k] at the points zeta + z^j of the output grid's nodes, center last)
    for every k, on one net per block width: the members share one grid."""
    grid = us[0].grid
    sigma = _ring_s(_deflated_grid(grid, d.j)) * d.j
    # the polar points zeta + r e^{i theta}, written in place, and zeta
    pts = np.empty(grid.n_r * grid.n_theta + 1, dtype=complex)
    ring = np.multiply(np.exp(-sigma)[:, None], np.exp(1j * _thetas(grid)),
                       out=pts[:-1].reshape(grid.n_r, grid.n_theta))
    ring += d.zeta
    pts[-1] = d.zeta
    return _each_sample(us, pts)


def _deflated_grid(grid: PolarGrid, j: int) -> PolarGrid:
    return PolarGrid(grid.n_r, grid.n_theta * j, grid.s_max / j)


def _deflated(u: DiscFunction, d: DislocationParam, vals: np.ndarray) -> DiscFunction:
    """deflate(u, d) from u's deflation samples, which it takes over."""
    j, grid = d.j, u.grid
    vals /= math.sqrt(j)
    block = vals[:-1].reshape(grid.n_r, grid.n_theta)
    block[-1, :] = 0.0
    sup = min(1.0, (min(1.0, u.support_radius + abs(d.zeta))) ** (1.0 / j))
    return DiscFunction._owned(
        _deflated_grid(grid, j), float(vals[-1]), block, support_radius=sup, order=j
    )


def _angular_profiles(us, zetas, n_phi: int) -> list[RadialProfile]:
    """The angular mean of each us[k] around zetas[k], over min(n_phi, n_theta)
    angles in log-polar coordinates: one net per distinct center.

    This is the scale-1 deflation profile; the profile of any integer scale j
    follows from it by the exact radial dilation, since the angular mean of
    u(zeta + e^{-j s} e^{i j theta}) over theta runs through full periods.
    """
    groups: dict = {}
    for k, (u, zeta) in enumerate(zip(us, zetas)):
        groups.setdefault((complex(zeta), u.grid), []).append(k)
    profiles = [None] * len(us)
    for (zeta, grid), ks in groups.items():
        n = min(n_phi, grid.n_theta)
        sigma = grid.s_max * (grid.n_r - 1 - np.arange(grid.n_r)) / (grid.n_r - 1)
        pts = _polar_points(zeta, np.exp(-sigma), 2.0 * math.pi * np.arange(n) / n)
        for i, vals in _each_sample([us[k] for k in ks], pts):
            out = vals.mean(axis=1)[::-1].copy()
            out[0] = 0.0
            profiles[ks[i]] = RadialProfile(sigma[::-1].copy(), out)
    return profiles


# -- the polar net and the averaging operator -----------------------------------------

class _Net:
    """Where points z fall on a grid whose functions store blocks `width` wide.

    Every point keeps the intp flat indices of its two inner ring corners (the
    outer two are read through the rings shifted by one ring) and the weights
    1 - xi, xi, 1 - eta, eta at r clamped to [r0, 1]; cap points also their two
    first-ring nodes, 1 - eta, eta and r / r0; points outside (not r < 1, NaN
    included) read 0.  `sample(u)` only gathers and combines, in the arithmetic
    of the bilinear interpolant, for every function the net fits.
    """

    def __init__(self, grid: PolarGrid, width: int, z):
        z = np.asarray(z, dtype=complex)
        self.shape = z.shape
        r, theta = np.abs(z.ravel()), np.angle(z.ravel())
        theta[theta < 0.0] += 2.0 * math.pi
        r0 = _ring_radii(grid)[0]
        cap = np.flatnonzero(r < r0)  # r0 < 1
        m, m1, eta = _angular_index(grid, theta[cap], width)
        self.cap = (cap, m, m1, 1 - eta, eta, r[cap] / r0)
        self.outside = np.flatnonzero(~(r < 1.0))
        r[cap], r[self.outside], theta[self.outside] = r0, 1.0, 0.0
        # x = (s_max + log r) / ds, clipped to [0, n_r - 1], and its floor i, each
        # taken in place: r becomes x, then xi = x - i
        x = np.log(r, out=r)
        x += grid.s_max
        x /= grid.s_max / (grid.n_r - 1)
        np.clip(x, 0, grid.n_r - 1, out=x)
        i = x.astype(np.intp)
        np.minimum(i, grid.n_r - 2, out=i)
        xi = np.subtract(x, i, out=x)
        m, m1, eta = _angular_index(grid, theta, width)
        i *= width
        m += i  # the flat indices, in place
        m1 += i
        self.width, self.plan = width, (m, m1, 1 - xi, xi, 1 - eta, eta)

    def sample(self, u: DiscFunction) -> np.ndarray:
        """u at the points, in their shape."""
        V = u.rings.ravel()
        outer = V[self.width:]  # flat index k here is k + width in V
        k0, k1, xi1, xi, eta1, eta = self.plan
        out, buf = np.empty(xi.size), np.empty(xi.size)
        # the indices are in range: "clip" skips the bounds check and a buffered copy to out
        V.take(k0, out=out, mode="clip")
        out *= xi1
        out *= eta1
        for W, k, a, b in ((outer, k0, xi, eta1), (V, k1, xi1, eta), (outer, k1, xi, eta)):
            W.take(k, out=buf, mode="clip")
            buf *= a
            buf *= b
            out += buf
        idx, m, m1, ceta1, ceta, t = self.cap
        out[idx] = u.center + t * ((V.take(m) * ceta1 + V.take(m1) * ceta) - u.center)
        out[self.outside] = 0.0
        return out.reshape(self.shape)


def _polar_points(centers, radii, phis) -> np.ndarray:
    """The net centers + radii e^{i phi}: centers broadcast against radii, angles last."""
    return np.asarray(centers)[..., None] + np.asarray(radii)[..., None] * np.exp(1j * phis)


def _each_sample(us, z):
    """(k, us[k] at z) for every k: one net per (grid, width), freed before the next."""
    groups: dict = {}
    for k, u in enumerate(us):
        groups.setdefault((u.grid, u.rings.shape[1]), []).append(k)
    for (grid, width), ks in groups.items():
        net = _Net(grid, width, z)
        for k in ks:
            yield k, net.sample(us[k])
        del net


# the ball quadrature: 8 Gauss nodes in rho^2 times 16 angles, weights summing to 1
_GL8_X, _GL8_W = np.polynomial.legendre.leggauss(8)
_BALL_RHO = np.sqrt(0.5 * (_GL8_X + 1.0))
_BALL_PHI = 2.0 * math.pi * np.arange(16) / 16
_BALL_W = np.repeat(0.5 * _GL8_W / 16, 16)


def average(u: DiscFunction, radius: float, z: complex) -> float:
    """Mean of u over the ball B(z, radius), with extension by zero; a ball
    below half the grid cell at z raises GridResolutionError."""
    if radius <= 0:
        raise ValueError("averaging radius must be positive")
    grid, r, r0 = u.grid, abs(z), float(_ring_radii(u.grid)[0])
    dr = r * grid.s_max / (grid.n_r - 1)
    if radius < 0.5 * (r0 if r < r0 else min(dr, r * grid.dtheta)):
        raise GridResolutionError(
            f"ball of radius {radius:.3g} at {z} is below grid resolution; "
            "a finer grid is required"
        )
    return float(average_many(u, radius, z))


def average_many(u: DiscFunction, radius, zs) -> np.ndarray:
    """Ball means A_r u(z) at many centers (no resolution guard).

    `radius` is one radius or an array of radii broadcast against the
    centers `zs`; the means have the broadcast shape.
    """
    return _ball_means([u], radius, zs)[0]


def _ball_means(us, radius, zs) -> np.ndarray:
    """average_many of every u in us, stacked on a first axis: one net per block width."""
    radius, zs = np.asarray(radius, dtype=float), np.asarray(zs)
    shape = np.broadcast_shapes(radius.shape, zs.shape)
    # offsets are built once per radius and broadcast to the centers
    pts = _polar_points(zs[..., None], radius[..., None] * _BALL_RHO, _BALL_PHI)
    means = np.empty((len(us),) + shape)
    for k, vals in _each_sample(us, pts):
        means[k] = vals.reshape(shape + (-1,)) @ _BALL_W
    return means


# -- concentration detection ----------------------------------------------------

# the ball radii of the detector and the extractor's tracker are RHO^j
RHO = math.exp(-1.0)
_MERGE_RADIUS = 0.05


def _scan_centers() -> np.ndarray:
    """The origin and ten rings of centers out to |zeta| = 1/2."""
    pts = [0.0 + 0.0j]
    for rad in np.linspace(0.05, 0.5, 10):
        n_ang = max(8, int(round(2.0 * math.pi * rad / 0.045)))
        ang = 2.0 * math.pi * np.arange(n_ang) / n_ang
        pts.extend(rad * np.exp(1j * ang))
    centers = np.asarray(pts, dtype=complex)
    centers.setflags(write=False)
    return centers


_CENTERS = _scan_centers()


def concentration_detect(
    u: DiscFunction,
    eps: float,
    j_max: int = 64,
    top_k: int = 8,
) -> list[tuple[DislocationParam, float]]:
    """Scan (j, zeta) for scores j^{-1/2} |A_{RHO^j} u(zeta)| >= eps.

    Balls below grid resolution degrade continuously to interpolated point
    values (the scan intentionally runs past the resolving exponent; planted
    scales beyond j_max would be reported at the cap).  Candidates closer
    than max(RHO^j, _MERGE_RADIUS) with log-scale gap below log 2 are merged,
    keeping the higher score.  Each kept candidate is refined: a stencil
    search of its center, then a scan of j/2 .. 2j at that center.  An empty
    list is a valid outcome.
    """
    if not eps > 0:
        raise ValueError("detection threshold must be positive")
    if top_k < 1:
        raise ValueError("at least one detection must be requested")
    if j_max < 1:
        raise ValueError("the scan needs at least one scale exponent (j_max >= 1)")
    return _detect(u, _scan([u], j_max)[0], eps, j_max, refine=True, top_k=top_k)


def _scan(us, j_max) -> np.ndarray:
    """`_scores` of every u at every j and scan center, (len(us), j_max, centers): one net per j."""
    rows = np.empty((len(us), j_max, _CENTERS.size))
    for j in range(1, j_max + 1):
        rows[:, j - 1] = _scores(us, j, _CENTERS)
    return rows


def _detect(u, rows, eps, j_max, refine, top_k):
    """concentration_detect of u from its `_scan` rows: ranked, merged, then
    refined unless `refine` is false (`dweak_test` takes the raw candidates)."""
    jj, cc = np.nonzero(rows >= eps)
    score, zeta = rows[jj, cc], _CENTERS[cc]
    kept: list[tuple[float, int, complex]] = []
    for n in np.lexsort((zeta.imag, zeta.real, jj, -score)):
        j, z = int(jj[n]) + 1, zeta[n]
        if not any(
            abs(z - k[2]) < max(RHO**j, _MERGE_RADIUS)
            and abs(math.log(j) - math.log(k[1])) < math.log(2.0)
            for k in kept
        ):
            kept.append((float(score[n]), j, z))
            if len(kept) >= top_k:
                break

    results = []
    for score, j, zeta in kept:
        if refine:
            score, zeta = _refine_center(u, zeta, j, score)
            js = np.arange(max(1, j // 2), min(j_max, 2 * j) + 1)
            scores = _scores([u], js, zeta)[0]
            k = int(np.argmax(scores))
            if scores[k] > score:
                score, j = float(scores[k]), int(js[k])
        results.append((DislocationParam(j, zeta), float(score)))
    results.sort(key=lambda c: (-c[1], c[0].j, c[0].zeta.real, c[0].zeta.imag))
    return results


# 5x5 center stencil, searched at a coarse then a fine spacing
_STENCIL = np.array([dx + 1j * dy for dx in range(-2, 3) for dy in range(-2, 3)])
_REFINE_SPACINGS = (0.012, 0.003)


def _scores(us, js, zs) -> np.ndarray:
    """Detector scores j^{-1/2} |A_{RHO^j} u(z)| of every u in us, stacked on a
    first axis; the exponents js broadcast against zs.

    Each radius is the float RHO ** j: numpy's power differs in the last bit.
    """
    js = np.asarray(js)
    radii = np.reshape([RHO ** int(j) for j in js.flat], js.shape)
    return np.abs(_ball_means(us, radii, zs)) * (1.0 / np.sqrt(js))


def _refine_center(u, zeta, j, score=-math.inf) -> tuple[float, complex]:
    """Local maximum of j^{-1/2} |A_{RHO^j} u| over stencils inside |z| <= 1/2.

    A stencil point replaces the current center only if it beats `score`.
    """
    best = (score, complex(zeta))
    for spacing in _REFINE_SPACINGS:
        zs = best[1] + spacing * _STENCIL
        zs = zs[np.abs(zs) <= 0.5]
        if zs.size == 0:
            break
        scores = _scores([u], j, zs)[0]
        k = int(np.argmax(scores))
        if scores[k] > best[0]:
            best = (float(scores[k]), complex(zs[k]))
    return best


# -- angular modes and the probe set ------------------------------------------------

_PROBE_T_CAP = 6.0  # the largest log-radial extent of the probe layout
_PROBE_COUNT = 6  # the probe set size of the concentration demos and of `dweak_test`
# the probe layout, cycled through: (kind, knee or support as fractions of the
# log-radial extent, angular mode)
_PROBE_LAYOUT = (
    ("ramp", 0.35, 0),
    ("tent", (0.08, 0.45), 0),
    ("ramp", 0.7, 0),
    ("tent", (0.3, 0.85), 1),
    ("tent", (0.1, 0.6), 2),
    ("tent", (0.45, 0.95), 1),
    ("ramp", 0.15, 0),
    ("tent", (0.2, 0.75), 3),
)


def angular_mode(w: RadialProfile, grid: PolarGrid, mode: int, phase: float = 0.0):
    """w inflated at the origin times cos(mode theta + phase); center: angular mean."""
    base = inflate(w, DislocationParam(1, 0.0), grid, grid.n_theta)  # one ring column
    rings = np.multiply.outer(base.rings[:, 0], np.cos(mode * _thetas(grid) + phase))
    center = base.center * math.cos(phase) if mode == 0 else 0.0
    return DiscFunction._owned(grid, center, rings, base.support_radius)


def _angular_columns(c: np.ndarray) -> list:
    """c, c rolled by -1 and by +1, and h = roll(g, 1) - g for g = roll(c, -1) - c."""
    g = np.roll(c, -1) - c
    return [c, np.roll(c, -1), np.roll(c, 1), np.roll(g, 1) - g]


class _ProbeStack:
    """The probes of `make_probes(grid, count, order)`, held separably: probe i
    is scale[i] * (p[i] outer c[i]) with center scale[i] * centers[i].

    p[i] is the radial column of a layout entry inflated at the origin, c[i]
    = cos(mode theta) on the block and scale[i] makes the probe's energy 1.
    `basis` holds the angular vectors of each mode once, as columns: c, c
    rolled by -1 and by +1 and h (see `_form`; for mode 0, c = 1 and h = 0).
    `columns` gives each probe's four columns.  No array of the stack is as
    large as a grid.
    """

    def __init__(self, grid: PolarGrid, count: int = _PROBE_COUNT, order: int = 1):
        self.grid, self.order = grid, order
        s_ext = min(grid.s_max, _PROBE_T_CAP)
        thetas = _thetas(grid)[: grid.n_theta // order]
        bases, modes, first = [], [], {}  # first: a mode's first basis column
        placed = k = 0
        while placed < count:
            kind, pos, mode = _PROBE_LAYOUT[k % len(_PROBE_LAYOUT)]
            k += 1
            if kind == "ramp":
                prof = RadialProfile([0.0, pos * s_ext], [0.0, 1.0])
            else:
                lo, hi = pos[0] * s_ext, pos[1] * s_ext
                prof = RadialProfile([0.0, lo, 0.5 * (lo + hi), hi], [0.0, 0.0, 1.0, 0.0])
            # a radial bubble is one column: a block of order n_theta
            base = inflate(prof, DislocationParam(1, 0.0), grid, grid.n_theta)
            if not np.any(base.rings):
                continue
            placed += 1
            if mode % order:
                continue  # it pairs to 0 with every j-fold function
            bases.append(base)
            modes.append(mode)
            first.setdefault(mode, 4 * len(first))
        self.p = np.array([b.rings[:, 0] for b in bases])
        self.centers = np.array([b.center if m == 0 else 0.0 for b, m in zip(bases, modes)])
        self.supports = [b.support_radius for b in bases]
        self.basis = np.reshape([v for m in first for v in _angular_columns(np.cos(m * thetas))],
                                (4 * len(first), len(thetas))).T
        self.columns = np.array([[first[m] + r for m in modes] for r in range(4)], dtype=np.intp)
        # each probe's energy, from its own projections and cap row
        self.scale = np.array([
            1.0 / math.sqrt(self._form(np.outer(self.basis.T @ c, p), p[0] * c - center)[i])
            for i, (p, c, center) in enumerate(zip(self.p, self._angular(), self.centers))])

    def __len__(self) -> int:
        return len(self.p)

    def _angular(self) -> np.ndarray:
        """Each probe's angular vector c, one row per probe."""
        return self.basis[:, self.columns[0]].T

    def _form(self, S: np.ndarray, a0u: np.ndarray) -> np.ndarray:
        """The form of u with each unscaled probe, from S, the projections of
        u's rings on the basis columns (one row per column), and u's cap row
        a0u = rings[0] - center.

        For v = p outer c and u's rings U, `_pair`'s row sums are sums of U
        against c and its rolls: with S_c = U c, S_+ and S_- for the rolls by
        -1 and +1, g = roll(c, -1) - c and S_h = U h for h = roll(g, 1) - g,
        radial_i = (p_{i+1} - p_i) (2 dS_c + (dS_+ + dS_-) / 2), each dS the
        difference of rings i + 1 and i, P_i = p_i S_h(i) and
        Q_i = p_{i+1} S_h(i) + p_i S_h(i + 1).  The rest is `_pair`'s.
        """
        p, (ic, ip, im, ih) = self.p, self.columns
        s, dth = _ring_s(self.grid), self.grid.dtheta
        ds = s[:-1] - s[1:]  # positive
        dS = S[:, 1:] - S[:, :-1]
        radial = (p[:, 1:] - p[:, :-1]) * (2.0 * dS[ic] + 0.5 * (dS[ip] + dS[im]))
        Sh = S[ih]
        P = p * Sh
        Q = p[:, 1:] * Sh[:, :-1] + p[:, :-1] * Sh[:, 1:]
        e_s = radial @ (dth / ds) / 3.0
        e_t = (P[:, :-1] + P[:, 1:] + 0.5 * Q) @ (ds / dth) / 3.0
        cap_r = _cap_terms(a0u, p[:, :1] * self._angular() - self.centers[:, None], dth)
        cap_t = 0.5 * P[:, 0] / dth
        return self.order * (e_s + e_t + cap_r + cap_t)

    def pair(self, u: DiscFunction) -> np.ndarray:
        """The form of u with each probe: u's rings projected on the basis in one product."""
        return self.scale * self._form((u.rings @ self.basis).T, u.rings[0] - u.center)

    def probes(self) -> list[DiscFunction]:
        """The stack materialized: probe i's rings scale[i] * (p[i] outer c[i])."""
        return [DiscFunction._owned(self.grid, scale * center, np.multiply.outer(p, c) * scale,
                                    support, order=self.order)
                for p, c, center, scale, support
                in zip(self.p, self._angular(), self.centers.tolist(), self.scale.tolist(),
                       self.supports)]


def make_probes(grid: PolarGrid, count: int = _PROBE_COUNT, order: int = 1) -> list[DiscFunction]:
    """Deterministic unit-energy probes on a fixed log-radial layout: the
    materialized `_ProbeStack(grid, count, order)`.

    Ramp-to-plateau probes carry net elevation (they pair against long
    concentrating ramps), tents with low angular modes probe localized and
    non-radial structure.  Layout positions are fractions of the grid's
    log-radial extent, capped at `_PROBE_T_CAP`: a weak-convergence proxy
    needs test functions whose features do not follow the sequence to depth,
    while on strongly deflated (shrunken) grids the layout scales down so
    probes are never trivially zero.

    With order j the probes are order-j blocks, for pairing with j-fold
    functions.  A layout entry takes a place among the `count` when its
    radial base is nonzero on the grid; it is built only when j divides its
    angular mode, since otherwise it pairs to 0 with every j-fold function.
    So the set is the order-1 set less the entries of the other modes.
    """
    return _ProbeStack(grid, count, order).probes()


def max_pairing(u: DiscFunction, probes) -> float:
    """max |<u, phi>| over the probes, disc functions or a `_ProbeStack`: the proxy."""
    return float(np.max(np.abs(_pair(u, probes))))


# -- serialization ----------------------------------------------------------------

def disc_to_dict(u: DiscFunction) -> dict:
    """The disc-sample record; a j-fold function is written with its rings tiled."""
    return {
        "n_r": u.grid.n_r,
        "n_theta": u.grid.n_theta,
        "spacing": {"kind": "geometric", "s_max": u.grid.s_max},
        "support_radius": u.support_radius,
        "zero_trace": u.zero_trace,
        "center": u.center,
        "rings": np.tile(u.rings, (1, u.order)).ravel().tolist(),
    }


def _parse_grid(n_r, n_theta, s_max, kind) -> PolarGrid:
    """The grid of a record's fields; a spacing kind other than geometric is
    rejected, and PolarGrid checks the sizes and s_max."""
    if kind != "geometric":
        raise ValueError(f"unknown grid spacing {kind!r}: grids are geometric")
    return PolarGrid(n_r, n_theta, _real(s_max, "s_max"))


def disc_from_dict(d: dict) -> DiscFunction:
    try:
        spacing = d["spacing"]
        grid = _parse_grid(
            d["n_r"], d["n_theta"], spacing["s_max"], spacing.get("kind", "geometric")
        )
        rings = _reals(d["rings"], "rings").reshape(grid.n_r, grid.n_theta)
        return DiscFunction(
            grid,
            _real(d["center"], "center"),
            rings,
            support_radius=_real(d.get("support_radius", 1.0), "support_radius"),
            zero_trace=_boolean(d.get("zero_trace", True), "zero_trace"),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed disc-function record: {exc}") from exc
