import math

import numpy as np
import pytest

from moserlab import disc, radial


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def smooth_plateau_profile(t_start: float, ramp: float, knots: int = 41):
    """Smoothstep ramp to a plateau, normalized to unit gradient norm."""
    xs = np.linspace(0.0, 1.0, knots)
    nodes = np.concatenate(([0.0], t_start + ramp * xs))
    vals = np.concatenate(([0.0], xs * xs * (3.0 - 2.0 * xs)))
    prof = radial.RadialProfile.from_arrays(nodes, vals, 2)
    return radial.scale(prof, 1.0 / radial.grad_norm(prof, 2))


def synthesized_term_error(rec_term, w_true, j_true_last: int) -> float:
    """H1 distance between recovered and planted term at the last index.

    The pair (profile, integer scale) is identifiable only up to the radial
    dilation group, so the comparison is made between the synthesized bubbles
    j^{1/2} w(t/j), which are gauge-free.
    """
    ws = radial.gauge_apply(rec_term.w, 1.0 / rec_term.j_track[-1])
    wt = radial.gauge_apply(w_true, 1.0 / j_true_last)
    return radial.h1_distance(ws, wt)


def riemann_grad_sq(profile, n_cells: int = 200_000) -> float:
    """Independent gradient-energy oracle: finite differences of pointwise values.

    Cells are aligned to the profile's nodes, so chord slopes equal true
    slopes everywhere and the sum is exact up to rounding; only profile
    evaluation is shared with the implementation under test.
    """
    edges = [profile.nodes[0]]
    for a, b in zip(profile.nodes[:-1], profile.nodes[1:]):
        m = max(2, int(n_cells * (b - a) / profile.nodes[-1]))
        edges.extend(np.linspace(a, b, m + 1)[1:])
    edges = np.asarray(edges)
    vals = profile.value_at(edges)
    dt = np.diff(edges)
    slopes = np.diff(vals) / dt
    return 2.0 * math.pi * float(np.sum(slopes**2 * dt))


# -- bilinear interpolation before the polar nets ---------------------------------------
#
# `DiscFunction.interpolate` and `disc._angular_index` as they were when each
# call located its points on the grid itself, kept verbatim (`self` is `u`) as
# the sampler that every frozen reference below and in the test modules calls.

def old_angular_index(grid, theta: np.ndarray, width: int):
    """(m, m + 1 mod width, eta): the angular nodes around theta in [0, 2 pi),
    as columns of a ring array `width` wide (n_theta, or the block width of a
    j-fold function), and the weight eta of the second one."""
    y = theta / grid.dtheta
    m = np.floor(y).astype(int) % width
    return m, (m + 1) % width, y - np.floor(y)


def old_interpolate(u, z) -> np.ndarray:
    """Bilinear-in-(s, theta) evaluation at complex points; 0 outside."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    r = np.abs(z)
    theta = np.mod(np.angle(z), 2.0 * math.pi)
    out = np.zeros(z.shape, dtype=float)
    grid = u.grid
    radii = disc._ring_radii(grid)
    svals = disc._ring_s(grid)
    V = u.rings

    inside = r < 1.0
    cap = inside & (r < radii[0])
    ring = inside & ~cap

    if np.any(cap):
        m, m1, eta = old_angular_index(grid, theta[cap], V.shape[1])
        g = V[0, m] * (1 - eta) + V[0, m1] * eta
        out[cap] = u.center + (r[cap] / radii[0]) * (g - u.center)
    if np.any(ring):
        s = -np.log(r[ring])
        h = grid.s_max / (grid.n_r - 1)
        x = (grid.s_max - s) / h
        i = np.clip(np.floor(x).astype(int), 0, grid.n_r - 2)
        xi = np.clip(x - i, 0.0, 1.0)
        m, m1, eta = old_angular_index(grid, theta[ring], V.shape[1])
        out[ring] = (
            V[i, m] * (1 - xi) * (1 - eta)
            + V[i + 1, m] * xi * (1 - eta)
            + V[i, m1] * (1 - xi) * eta
            + V[i + 1, m1] * xi * eta
        )
    return out if out.size > 1 else out.reshape(())


# -- the disc ball means and detector scores before the polar-net sampler -------------
#
# Kept verbatim (module constants renamed) as the references of the detector
# and tracker tests: the live code computes the same ball means bit for bit,
# and its scores j^{-1/2} |A| differ from these by at most one ulp.

OLD_RHO = math.exp(-1.0)
_OLD_AVG_RHO_X, _OLD_AVG_RHO_W = np.polynomial.legendre.leggauss(8)
_OLD_AVG_RHO_X = 0.5 * (_OLD_AVG_RHO_X + 1.0)
_OLD_AVG_RHO_W = 0.5 * _OLD_AVG_RHO_W
_OLD_AVG_NPHI = 16
_OLD_STENCIL = np.array([dx + 1j * dy for dx in range(-2, 3) for dy in range(-2, 3)])
_OLD_REFINE_SPACINGS = (0.012, 0.003)


def old_ball_offsets(radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature offsets and weights for the mean over a ball of given radius."""
    phis = 2.0 * math.pi * np.arange(_OLD_AVG_NPHI) / _OLD_AVG_NPHI
    rho = radius * np.sqrt(_OLD_AVG_RHO_X)
    offsets = (rho[:, None] * np.exp(1j * phis)[None, :]).ravel()
    weights = np.repeat(_OLD_AVG_RHO_W / _OLD_AVG_NPHI, _OLD_AVG_NPHI)
    return offsets, weights


def old_average_many(u, radius: float, zs: np.ndarray) -> np.ndarray:
    """Vectorized ball means at many centers (no resolution guard)."""
    offsets, weights = old_ball_offsets(radius)
    pts = zs[:, None] + offsets[None, :]
    vals = old_interpolate(u, pts.ravel()).reshape(len(zs), -1)
    return vals @ weights


def old_refine_center(u, zeta, j, score=-math.inf, reciprocal=False) -> tuple[float, complex]:
    """Local maximum of j^{-1/2} |A_{RHO^j} u| over stencils inside |z| <= 1/2.

    A stencil point replaces the current center only if it beats `score`.
    With `reciprocal` the score is the live detector's product with 1/sqrt(j).
    """
    best = (score, complex(zeta))
    for spacing in _OLD_REFINE_SPACINGS:
        zs = best[1] + spacing * _OLD_STENCIL
        zs = zs[np.abs(zs) <= 0.5]
        if zs.size == 0:
            break
        means = np.abs(old_average_many(u, OLD_RHO**j, zs))
        scores = means * (1.0 / math.sqrt(j)) if reciprocal else means / math.sqrt(j)
        k = int(np.argmax(scores))
        if scores[k] > best[0]:
            best = (float(scores[k]), complex(zs[k]))
    return best


def old_scan_scales(u, zeta, js, reciprocal=False) -> np.ndarray:
    """Scores j^{-1/2} |A_{RHO^j} u(zeta)| for every j in js, in one interpolation.

    With `reciprocal` the score is the live detector's product with 1/sqrt(j).
    """
    offsets = np.stack([old_ball_offsets(OLD_RHO ** int(j))[0] for j in js])
    weights = old_ball_offsets(1.0)[1]
    vals = old_interpolate(u, (zeta + offsets).ravel()).reshape(offsets.shape)
    means = np.abs(vals @ weights)
    return means * (1.0 / np.sqrt(js)) if reciprocal else means / np.sqrt(js)
