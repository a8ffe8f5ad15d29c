"""Sampled functions on the unit disc and the dislocation operators.

Grids are log-polar, and this is their only geometry: ring i sits at
s = log(1/r) uniformly spaced between s_max and 0, plus a single center node.
In the coordinates (s, theta) the Dirichlet integrand is conformally flat,

    int |grad u|^2 dx = int int (u_s^2 + u_theta^2) ds dtheta  (+ center cap),

so the discrete energy is the exact Dirichlet energy of the bilinear
interpolant in (s, theta), cap included.  One bilinear form computes it:
`energy(u)` is the form on the diagonal and `grad_inner(u, v)`, the Dirichlet
inner product, is the same form off it.

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
columns, and the energy, the inner product and interpolation work on that
block.  With that convention the deflation of a function sampled around its
own center is energy-exact, and off-center deflations lose only bilinear
interpolation error.  The operands of a form (energy, grad_inner) or a sum
(add, subtract_disc) share one grid and one symmetry order: a deflation w is
paired with make_probes(w.grid, count, w.order).  Powers z^j are computed as
(|z|^j, j*theta), never by repeated complex multiplication.  Inflation
j^{1/2} w(|z - zeta|^{1/j}) of a radial profile is sampled from its closed
form.  Out-of-domain reads are zero everywhere (extension by zero).
"""

from __future__ import annotations

import math
import numbers
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
    "angular_profile_around",
    "energy",
    "grad_norm_disc",
    "grad_inner",
    "l2_norm",
    "add",
    "subtract_disc",
    "scale_disc",
    "average",
    "average_field",
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


@dataclass(frozen=True)
class PolarGrid:
    n_r: int
    n_theta: int
    s_max: float = 12.0

    def __post_init__(self):
        if not all(isinstance(n, numbers.Integral) for n in (self.n_r, self.n_theta)):
            raise ValueError("grid sizes must be integers")
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
    """(m, m + 1 mod width, eta): the angular nodes around theta in [0, 2 pi),
    as columns of a ring array `width` wide (n_theta, or the block width of a
    j-fold function), and the weight eta of the second one."""
    y = theta / grid.dtheta
    m = np.floor(y).astype(int) % width
    return m, (m + 1) % width, y - np.floor(y)


def cell_areas(grid: PolarGrid) -> tuple[float, np.ndarray]:
    """(cap area, per-annulus cell areas), absolute; they sum to pi."""
    r = _ring_radii(grid)
    cap = math.pi * r[0] ** 2
    ann = math.pi * (r[1:] ** 2 - r[:-1] ** 2) / grid.n_theta
    return cap, ann


# a 1024^2 grid's array is 8 MiB: keep only a few grids
@lru_cache(maxsize=4)
def _cell_area_array(grid: PolarGrid) -> np.ndarray:
    """Per-cell absolute areas, cap first, in the order of cell values."""
    cap, ann = cell_areas(grid)
    areas = np.concatenate(([cap], np.repeat(ann, grid.n_theta)))
    areas.setflags(write=False)
    return areas


@dataclass(frozen=True)
class DiscFunction:
    """Node samples on a polar grid: ring values (n_r, n_theta) plus a center.

    Zero trace on the boundary ring is the default contract; evaluation
    fields such as ball averages opt out via zero_trace=False.  A function of
    symmetry order j (invariant under rotation by 2 pi / j, j dividing
    n_theta) stores one block of rings, shape (n_r, n_theta / j);
    `tiled_rings` gives the full array.
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
    def _owned(cls, grid, center, rings, support_radius=1.0, zero_trace=True, order=1):
        """The constructor for a fresh float array that no caller holds.

        Same checks as the public constructor; only the copy is skipped.
        """
        u = object.__new__(cls)
        for name, value in (("grid", grid), ("center", center),
                            ("support_radius", support_radius),
                            ("zero_trace", zero_trace), ("order", order)):
            object.__setattr__(u, name, value)
        u._own(rings)
        return u

    def _own(self, rings: np.ndarray) -> None:
        """Validate the samples and store `rings`, read-only, as this function's."""
        if self.order < 1 or self.grid.n_theta % self.order:
            raise ValueError("symmetry order must divide n_theta")
        if rings.shape != (self.grid.n_r, self.grid.n_theta // self.order):
            raise ValueError("ring values must have shape (n_r, n_theta / order)")
        # NaN and inf propagate into the extremes, so the largest magnitude
        # both validates the samples and gives the zero-trace scale
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

    def tiled_rings(self) -> np.ndarray:
        """The full (n_r, n_theta) ring array: `rings` itself at order 1."""
        return self.rings if self.order == 1 else np.tile(self.rings, (1, self.order))

    def interpolate(self, z) -> np.ndarray:
        """Bilinear-in-(s, theta) evaluation at complex points, in the shape of z; 0 outside."""
        return _Net(self.grid, self.rings.shape[1], z).sample(self)

    def cell_values_and_areas(self):
        """Per-cell representative values and absolute areas (cap first).

        The areas depend only on the grid and are a shared read-only array.
        """
        V = self.tiled_rings()
        Vn = np.roll(V, -1, axis=1)
        cell_vals = 0.25 * (V[:-1] + V[1:] + Vn[:-1] + Vn[1:])
        cap_val = 0.5 * (self.center + float(np.mean(V[0])))
        values = np.concatenate(([cap_val], cell_vals.ravel()))
        return values, _cell_area_array(self.grid)


@dataclass(frozen=True)
class DislocationParam:
    """Scale exponent j >= 1 and center in the closed disc."""

    j: int
    zeta: complex

    def __post_init__(self):
        object.__setattr__(self, "j", int(self.j))
        object.__setattr__(self, "zeta", complex(self.zeta))
        if self.j < 1:
            raise ValueError("scale exponent must be a positive integer")
        if abs(self.zeta) > 1.0 + 1e-12:
            raise ValueError("center must lie in the closed disc")


# -- energy and inner products ------------------------------------------------

def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def _next_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per row, sum over m of a[m] b[m + 1], cyclic in m."""
    return _rowdot(a[:, :-1], b[:, 1:]) + a[:, -1] * b[:, 0]


def _check_operands(u: DiscFunction, v: DiscFunction) -> None:
    """ValueError unless u and v share one grid and one symmetry order."""
    if u.grid != v.grid:
        raise ValueError("disc functions live on different grids")
    if u.order != v.order:
        raise ValueError("disc functions have different symmetry orders")


def _form(u: DiscFunction, v: DiscFunction) -> float:
    """Dirichlet bilinear form of the bilinear interpolants, exact cap included.

    A cell's edge differences (A, B radial; C, D angular) enter as
    (A_u A_v + (A_u B_v + B_u A_v)/2 + B_u B_v)/3.  B is A shifted by one
    column and C, D are rows i, i+1 of one angular difference G, so every
    term is a row dot product of two shared difference arrays.

    Of j-fold functions every cyclic row sum is j times the sum over one
    block, wrapped inside the block, so the form is j times the block form.
    """
    _check_operands(u, v)
    s = _ring_s(u.grid)
    dth = u.grid.dtheta
    ds = s[:-1] - s[1:]  # positive
    Au = np.diff(u.rings, axis=0)
    Av = Au if v is u else np.diff(v.rings, axis=0)
    cross = _next_dot(Au, Av) + _next_dot(Av, Au)
    e_s = np.dot(dth / ds, 2.0 * _rowdot(Au, Av) + 0.5 * cross) / 3.0
    del Au, Av
    Gu = np.roll(u.rings, -1, axis=1) - u.rings
    Gv = Gu if v is u else np.roll(v.rings, -1, axis=1) - v.rings
    P = _rowdot(Gu, Gv)
    Q = _rowdot(Gu[:-1], Gv[1:]) + _rowdot(Gu[1:], Gv[:-1])
    e_t = np.dot(ds / dth, P[:-1] + P[1:] + 0.5 * Q) / 3.0
    a0u, a0v = u.rings[0] - u.center, v.rings[0] - v.center
    a1u, a1v = np.roll(a0u, -1), np.roll(a0v, -1)
    cap_r = dth * np.sum(a0u * a0v + 0.5 * (a0u * a1v + a1u * a0v) + a1u * a1v) / 6.0
    cap_t = 0.5 * P[0] / dth
    return float(u.order * (e_s + e_t + cap_r + cap_t))


def energy(u: DiscFunction) -> float:
    """Dirichlet energy of the bilinear interpolant, exact cap included."""
    return _form(u, u)


def grad_norm_disc(u: DiscFunction) -> float:
    return math.sqrt(energy(u))


def _combine(u: DiscFunction, v: DiscFunction, op) -> DiscFunction:
    """op of two functions of one grid and one symmetry order, blockwise."""
    _check_operands(u, v)
    return DiscFunction._owned(
        u.grid,
        float(op(u.center, v.center)),
        op(u.rings, v.rings),
        support_radius=max(u.support_radius, v.support_radius),
        zero_trace=u.zero_trace and v.zero_trace,
        order=u.order,
    )


def add(u: DiscFunction, v: DiscFunction) -> DiscFunction:
    return _combine(u, v, np.add)


def subtract_disc(u: DiscFunction, v: DiscFunction) -> DiscFunction:
    return _combine(u, v, np.subtract)


def scale_disc(u: DiscFunction, c: float) -> DiscFunction:
    return DiscFunction._owned(
        u.grid, c * u.center, c * u.rings, u.support_radius, u.zero_trace, u.order
    )


def grad_inner(u: DiscFunction, v: DiscFunction) -> float:
    """Dirichlet inner product: the bilinear form of the discrete energy."""
    return _form(u, v)


_GL4_X, _GL4_W = np.polynomial.legendre.leggauss(4)
_GL4_X = 0.5 * (_GL4_X + 1.0)
_GL4_W = 0.5 * _GL4_W


def l2_mass(u: DiscFunction) -> float:
    """int_B u^2 dx by per-cell Gauss quadrature of the bilinear interpolant."""
    grid = u.grid
    s = _ring_s(grid)
    V = u.tiled_rings()
    Vn = np.roll(V, -1, axis=1)
    ds = s[:-1] - s[1:]
    dth = grid.dtheta
    total = 0.0
    for a, wa in zip(_GL4_X, _GL4_W):
        s_a = s[:-1] - a * ds
        w_row = np.exp(-2.0 * s_a) * ds * wa
        lo = V[:-1] * (1 - a) + V[1:] * a
        hi = Vn[:-1] * (1 - a) + Vn[1:] * a
        for b, wb in zip(_GL4_X, _GL4_W):
            vals = lo * (1 - b) + hi * b
            total += wb * dth * float(np.sum(w_row[:, None] * vals * vals))
    r0 = _ring_radii(grid)[0]
    row = V[0]
    row_n = np.roll(row, -1)
    for a, wa in zip(_GL4_X, _GL4_W):
        for b, wb in zip(_GL4_X, _GL4_W):
            ring_val = row * (1 - b) + row_n * b
            vals = u.center + a * (ring_val - u.center)
            total += r0 * r0 * a * wa * wb * dth * float(np.sum(vals * vals))
    return total


def l2_norm(u: DiscFunction) -> float:
    return math.sqrt(max(0.0, l2_mass(u)))


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
    j, zeta = d.j, d.zeta
    if order > 1 and zeta != 0:
        raise ValueError("only a bubble at the origin has angular symmetry")
    t0 = w.support_log_radius()
    R = math.exp(-t0)
    R_inf = R**j
    if R_inf > 1.0 - abs(zeta) + 1e-12:
        raise SupportError(
            f"inflated support radius {R_inf:.6g} around {zeta} leaves the disc "
            f"(available {1.0 - abs(zeta):.6g})"
        )
    radii = _ring_radii(grid)
    thetas = _thetas(grid)[: grid.n_theta // order]
    zx, zy = zeta.real, zeta.imag
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)
    d2 = (
        radii[:, None] ** 2
        + (zx * zx + zy * zy)
        - 2.0 * radii[:, None] * (zx * cos_t + zy * sin_t)[None, :]
    )
    dist = np.sqrt(np.maximum(d2, 0.0))
    with np.errstate(divide="ignore"):
        t_eval = -np.log(dist) / j
    rings = math.sqrt(j) * w.value_at(t_eval)
    rings[-1, :] = 0.0
    dist_c = abs(zeta)
    with np.errstate(divide="ignore"):
        t_c = math.inf if dist_c == 0.0 else -math.log(dist_c) / j
    center = math.sqrt(j) * float(w.value_at(t_c))
    return DiscFunction._owned(
        grid, center, rings, support_radius=min(1.0, abs(zeta) + R_inf), order=order
    )


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
    pts = _polar_points(d.zeta, np.exp(-sigma), _thetas(grid))
    return _each_sample(us, np.append(pts, d.zeta))


def _deflated_grid(grid: PolarGrid, j: int) -> PolarGrid:
    return PolarGrid(grid.n_r, grid.n_theta * j, grid.s_max / j)


def _deflated(u: DiscFunction, d: DislocationParam, vals: np.ndarray) -> DiscFunction:
    """deflate(u, d) from u's deflation samples."""
    j, grid = d.j, u.grid
    vals = vals / math.sqrt(j)
    block = vals[:-1].reshape(grid.n_r, grid.n_theta)
    block[-1, :] = 0.0
    sup = min(1.0, (min(1.0, u.support_radius + abs(d.zeta))) ** (1.0 / j))
    return DiscFunction._owned(
        _deflated_grid(grid, j), float(vals[-1]), block, support_radius=sup, order=j
    )


def angular_profile_around(
    u: DiscFunction, zeta: complex, n_phi: int | None = None
) -> RadialProfile:
    """Angular mean of u in log-polar coordinates centered at zeta.

    This is the scale-1 deflation profile; the profile of any integer scale j
    follows from it by the exact radial dilation, since the angular mean of
    u(zeta + e^{-j s} e^{i j theta}) over theta runs through full periods.
    """
    return _angular_profiles([u], [zeta], n_phi)[0]


def _angular_profiles(us, zetas, n_phi: int | None = None) -> list[RadialProfile]:
    """angular_profile_around(us[k], zetas[k], n_phi) for every k: one net per distinct center."""
    groups: dict = {}
    for k, (u, zeta) in enumerate(zip(us, zetas)):
        groups.setdefault((complex(zeta), u.grid), []).append(k)
    profiles = [None] * len(us)
    for (zeta, grid), ks in groups.items():
        n = grid.n_theta if n_phi is None else min(n_phi, grid.n_theta)
        sigma = grid.s_max * (grid.n_r - 1 - np.arange(grid.n_r)) / (grid.n_r - 1)
        pts = _polar_points(zeta, np.exp(-sigma), 2.0 * math.pi * np.arange(n) / n)
        for i, vals in _each_sample([us[k] for k in ks], pts):
            out = vals.mean(axis=1)[::-1].copy()
            out[0] = 0.0
            profiles[ks[i]] = RadialProfile.from_arrays(sigma[::-1].copy(), out, 2)
    return profiles


# -- the polar net and the averaging operator -----------------------------------------

class _Net:
    """Where points z fall on a grid whose functions store blocks `width` wide.

    Ring points keep the int32 flat indices of their four corners and the
    weights xi, eta; cap points their two first-ring nodes, eta and r / r0;
    points outside read 0.  `sample(u)` only gathers and combines, in the
    arithmetic of the bilinear interpolant, for every function the net fits.
    """

    def __init__(self, grid: PolarGrid, width: int, z):
        z = np.asarray(z, dtype=complex)
        self.shape = z.shape
        r = np.abs(z.ravel())
        theta = np.mod(np.angle(z.ravel()), 2.0 * math.pi)
        radii = _ring_radii(grid)
        cap = r < radii[0]  # r0 < 1
        ring = (r < 1.0) & ~cap
        m, m1, eta = _angular_index(grid, theta[cap], width)
        self.cap = (np.flatnonzero(cap).astype(np.int32), m.astype(np.int32),
                    m1.astype(np.int32), eta, r[cap] / radii[0])
        self.ring = np.flatnonzero(ring).astype(np.int32)
        r, theta = r[ring], theta[ring]
        x = (grid.s_max + np.log(r)) / (grid.s_max / (grid.n_r - 1))
        i = np.clip(np.floor(x).astype(int), 0, grid.n_r - 2)
        m, m1, eta = _angular_index(grid, theta, width)
        k, k1 = i * width + m, i * width + m1
        corners = (c.astype(np.int32) for c in (k, k + width, k1, k1 + width))
        self.plan = (*corners, np.clip(x - i, 0.0, 1.0), eta)

    def sample(self, u: DiscFunction) -> np.ndarray:
        """u at the points, in their shape."""
        V = u.rings.ravel()
        k00, k10, k01, k11, xi, eta = self.plan
        # take: indexing by int32 would first cast the indices to intp
        vals = (
            V.take(k00) * (1 - xi) * (1 - eta)
            + V.take(k10) * xi * (1 - eta)
            + V.take(k01) * (1 - xi) * eta
            + V.take(k11) * xi * eta
        )
        out = np.zeros(math.prod(self.shape))
        out[self.ring] = vals
        idx, m, m1, eta, t = self.cap
        g = V.take(m) * (1 - eta) + V.take(m1) * eta
        out[idx] = u.center + t * (g - u.center)
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


def _check_resolution(grid: PolarGrid, radius: float, r: float, where: str = "") -> None:
    """ValueError if the radius is not positive, GridResolutionError if the
    ball is below half the grid cell at |z| = r."""
    if radius <= 0:
        raise ValueError("averaging radius must be positive")
    r0 = float(_ring_radii(grid)[0])
    dr = r * grid.s_max / (grid.n_r - 1)
    if radius < 0.5 * (r0 if r < r0 else min(dr, r * grid.dtheta)):
        raise GridResolutionError(
            f"ball of radius {radius:.3g}{where} is below grid resolution; "
            "a finer grid is required"
        )


def average(u: DiscFunction, radius: float, z: complex) -> float:
    """Mean of u over the ball B(z, radius), with extension by zero."""
    _check_resolution(u.grid, radius, abs(z), f" at {z}")
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


def average_field(u: DiscFunction, radius: float) -> DiscFunction:
    """A_r u evaluated at every grid node (an evaluation field, not zero-trace)."""
    _check_resolution(u.grid, radius, 1.0)
    grid = u.grid
    nodes = (_ring_radii(grid)[:, None] * np.exp(1j * _thetas(grid))[None, :]).ravel()
    vals = average_many(u, radius, nodes).reshape(grid.n_r, grid.n_theta)
    center = float(average_many(u, radius, 0.0))  # as one more row its last bit moves
    return DiscFunction._owned(grid, center, vals, zero_trace=False)


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
    refine: bool = True,
    top_k: int = 8,
) -> list[tuple[DislocationParam, float]]:
    """Scan (j, zeta) for scores j^{-1/2} |A_{RHO^j} u(zeta)| >= eps.

    Balls below grid resolution degrade continuously to interpolated point
    values (the scan intentionally runs past the resolving exponent; planted
    scales beyond j_max would be reported at the cap).  Candidates closer
    than max(RHO^j, _MERGE_RADIUS) with log-scale gap below log 2 are merged,
    keeping the higher score.  An empty list is a valid outcome.
    """
    if eps <= 0:
        raise ValueError("detection threshold must be positive")
    if top_k < 1:
        raise ValueError("at least one detection must be requested")
    if j_max < 1:
        raise ValueError("the scan needs at least one scale exponent (j_max >= 1)")
    return _detect(u, _scan([u], j_max)[0], eps, j_max, refine, top_k)


def _scan(us, j_max) -> np.ndarray:
    """`_scores` of every u at every j and scan center, (len(us), j_max, centers): one net per j."""
    rows = np.empty((len(us), j_max, _CENTERS.size))
    for j in range(1, j_max + 1):
        rows[:, j - 1] = _scores(us, j, _CENTERS)
    return rows


def _detect(u, rows, eps, j_max, refine, top_k):
    """concentration_detect of u from its `_scan` rows: ranked, merged, then refined."""
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


def _modulated(base: DiscFunction, mode: int, phase: float = 0.0) -> DiscFunction:
    """A radial base times cos(mode theta + phase) on its block; center: angular mean."""
    thetas = _thetas(base.grid)[: base.rings.shape[1]]
    rings = base.rings * np.cos(mode * thetas + phase)[None, :]
    center = base.center * math.cos(phase) if mode == 0 else 0.0
    return DiscFunction._owned(base.grid, center, rings, base.support_radius, order=base.order)


def angular_mode(w: RadialProfile, grid: PolarGrid, mode: int, phase: float = 0.0):
    """w inflated at the origin times cos(mode theta + phase); center: angular mean."""
    return _modulated(inflate(w, DislocationParam(1, 0.0), grid), mode, phase)


def make_probes(grid: PolarGrid, count: int = 6, order: int = 1) -> list[DiscFunction]:
    """Deterministic unit-energy probes on a fixed log-radial layout.

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
    s_ext = min(grid.s_max, _PROBE_T_CAP)
    layouts = [  # (kind, knee or support, angular mode)
        ("ramp", 0.35, 0),
        ("tent", (0.08, 0.45), 0),
        ("ramp", 0.7, 0),
        ("tent", (0.3, 0.85), 1),
        ("tent", (0.1, 0.6), 2),
        ("tent", (0.45, 0.95), 1),
        ("ramp", 0.15, 0),
        ("tent", (0.2, 0.75), 3),
    ]
    probes: list[DiscFunction] = []
    placed = k = 0
    while placed < count:
        kind, pos, mode = layouts[k % len(layouts)]
        k += 1
        if kind == "ramp":
            prof = RadialProfile.from_arrays([0.0, pos * s_ext], [0.0, 1.0], 2)
        else:
            lo, hi = pos[0] * s_ext, pos[1] * s_ext
            mid = 0.5 * (lo + hi)
            prof = RadialProfile.from_arrays(
                [0.0, lo, mid, hi], [0.0, 0.0, 1.0, 0.0], 2
            )
        base = inflate(prof, DislocationParam(1, 0.0), grid, order)
        if not np.any(base.rings):
            continue
        placed += 1
        if mode % order == 0:
            cand = _modulated(base, mode)
            probes.append(scale_disc(cand, 1.0 / math.sqrt(energy(cand))))
    return probes


def max_pairing(u: DiscFunction, probes) -> float:
    """max |<u, phi>| over the probes: the weak-convergence proxy (Dirichlet form)."""
    return max(abs(grad_inner(u, phi)) for phi in probes)


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
        "rings": u.tiled_rings().ravel().tolist(),
    }


def _parse_grid(n_r, n_theta, s_max, kind) -> PolarGrid:
    """The grid of a record's fields; a spacing kind other than geometric is
    rejected, and PolarGrid checks the sizes and s_max."""
    if kind != "geometric":
        raise ValueError(f"unknown grid spacing {kind!r}: grids are geometric")
    return PolarGrid(n_r, n_theta, float(s_max))


def disc_from_dict(d: dict) -> DiscFunction:
    try:
        spacing = d["spacing"]
        grid = _parse_grid(
            d["n_r"], d["n_theta"], spacing["s_max"], spacing.get("kind", "geometric")
        )
        rings = np.asarray(d["rings"], dtype=float).reshape(grid.n_r, grid.n_theta)
        return DiscFunction(
            grid,
            float(d["center"]),
            rings,
            support_radius=float(d.get("support_radius", 1.0)),
            zero_trace=bool(d.get("zero_trace", True)),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed disc-function record: {exc}") from exc
