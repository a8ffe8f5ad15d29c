"""Shared inputs, helpers and the one reference module of the test suite.

The second half of this module holds the independent oracles that the live
kernels are checked against, each once: the direct bilinear sampler, the
per-scale ball means with the detector scores, the stencil refine and the
detector built on them, the closed energy formula with the polarization
identity, the one-block deflation, the dislocation-weak test written out
one member at a time, the member sums on fresh arrays with the bubble rule
that applies them, the cell values by a rolled copy, the translated
Moser family as the generator and each demo built it on its own, the
radial rearrangement with its point-by-point worklist, and the whole-array
kernels that the blocked ones replaced: the pairing on materialized
differences, the remainder norm with its stable prefix sort, the int32 net
plan and the inflation.  Test modules import from here and never
from each other.
"""

import math

import numpy as np
import pytest
from hypothesis import strategies as st

from moserlab import disc, functional, profiles, radial, rearrange


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


# -- disc inputs ------------------------------------------------------------------------

def rough_disc(grid, seed: int, order: int = 1) -> disc.DiscFunction:
    """Rough zero-trace samples, one block of a function of the given order:
    every difference of the form is exercised."""
    rng = np.random.default_rng(seed)
    rings = rng.normal(size=(grid.n_r, grid.n_theta // order))
    rings[-1] = 0.0
    return disc.DiscFunction(grid, float(rng.normal()), rings, order=order)


def bumps(grid, seed: int, centers, js, noise: float) -> disc.DiscFunction:
    """Inflated Moser-type ramps at the given scales and centers, plus noise."""
    prof = radial.RadialProfile.from_arrays([0.0, 1.0, 2.0], [0.0, 0.0, 1.0], 2)
    rings = np.zeros((grid.n_r, grid.n_theta))
    center = 0.0
    for zeta, j in zip(centers, js):
        b = disc.inflate(prof, disc.DislocationParam(j, zeta), grid)
        rings += b.rings
        center += b.center
    rng = np.random.default_rng(seed)
    rings += noise * rng.normal(size=rings.shape)
    rings[-1] = 0.0
    return disc.DiscFunction(grid, center, rings)


def zero_member():
    grid = disc.PolarGrid(n_r=96, n_theta=64, s_max=5.0)
    return disc.DiscFunction(grid, 0.0, np.zeros((grid.n_r, grid.n_theta)))


def nonradial_test_function(grid):
    """The test_06 input: a unit-energy radial bump with modes 2 and 3."""
    prof = radial.RadialProfile.from_arrays(
        [0.0, 0.72, 1.1, 1.7, 2.4, 3.2], [0.0, 0.0, 0.7, 1.0, 0.35, 0.0], 2
    )
    prof = radial.scale(prof, 1.0 / radial.grad_norm(prof, 2))
    base = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
    rings = base.rings * (
        1.0 + 0.35 * np.cos(2 * disc._thetas(grid))
        + 0.2 * np.sin(3 * disc._thetas(grid))
    )[None, :]
    return disc.DiscFunction(grid, base.center, rings, base.support_radius)


def same_disc(a, b) -> bool:
    """Equal grids, orders, flags and support radii; samples equal bit for bit
    (signed zeros included)."""
    return (
        a.grid == b.grid and a.order == b.order and a.zero_trace == b.zero_trace
        and a.support_radius == b.support_radius
        and np.float64(a.center).tobytes() == np.float64(b.center).tobytes()
        and a.rings.tobytes() == b.rings.tobytes()
    )


def pairing(u, v) -> float:
    """The Dirichlet inner product <u, v>: the form of the discrete energy."""
    return float(disc._pair(u, [v])[0])


def detections(us, eps, j_max, refine, top_k):
    """concentration_detect of every member, from one scan of them all;
    with `refine` false, the ranked and merged candidates before the refine step."""
    return [disc._detect(u, rows, eps, j_max, refine, top_k)
            for u, rows in zip(us, disc._scan(us, j_max))]


def greedy_extract(seq, **kw):
    """`profiles.extract` with no refine sweep: its greedy pass alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiles, "_REFINE_SWEEPS", 0)
        return profiles.extract(seq, **kw)


def dweak_test_at(seq, probe_count=6, seed=0, n_random_tracks=6, j_max=24):
    """`profiles.dweak_test` with its probe count, random track count and seed
    set to the given values: the settings that `old_dweak_test` takes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disc, "_PROBE_COUNT", probe_count)
        mp.setattr(profiles, "_DWEAK_SEED", seed)
        mp.setattr(profiles, "_DWEAK_TRACKS", n_random_tracks)
        return profiles.dweak_test(seq, j_max=j_max)


def assert_same_dweak(new, old) -> None:
    """A dislocation-weak report is the oracle's (`old_dweak_test`): the same
    verdict and witness, per-member pairings within 1e-12 relative.  The live
    test pairs with the separable probe stack, the oracle with the
    materialized probes, and they differ by rounding."""
    assert new.verdict == old.verdict
    assert new.witness == old.witness
    assert len(new.per_member) == len(old.per_member)
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(new.per_member, old.per_member))


def close_pairings(got, want, bound=0.0) -> bool:
    """Pairings of one function with one probe set agree to 1e-12 of the
    largest, or of `bound` if that is larger."""
    got, want = np.asarray(got), np.asarray(want)
    scale = max(float(np.max(np.abs(want))), bound)
    return got.shape == want.shape and np.max(np.abs(got - want)) <= 1e-12 * scale


@st.composite
def grids(draw):
    return disc.PolarGrid(
        n_r=draw(st.integers(16, 72)),
        n_theta=draw(st.sampled_from([32, 48, 64, 96])),
        s_max=draw(st.floats(2.0, 9.0)),
    )


def points(max_radius: float):
    return st.builds(
        lambda r, a: complex(r * math.cos(a), r * math.sin(a)),
        st.floats(0.0, max_radius), st.floats(0.0, 2.0 * math.pi),
    )


seeds = st.integers(0, 2**32 - 1)

detector_cases = st.tuples(
    grids(), seeds,
    st.lists(points(0.35), min_size=1, max_size=3),
    st.lists(st.integers(1, 4), min_size=3, max_size=3),
    st.sampled_from([0.0, 0.02, 0.1]),
)


# == the reference module: independent oracles ============================================
#
# Each is the code a live kernel replaced, kept verbatim apart from names.
# The live kernels reproduce them bit for bit unless a test says otherwise.

# -- the direct bilinear sampler: each call locates its points on the grid itself ----------

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


# -- ball means, detector scores and the stencil refine ------------------------------------

OLD_RHO = math.exp(-1.0)
_OLD_GL8_X, _OLD_GL8_W = np.polynomial.legendre.leggauss(8)
_OLD_BALL_RHO = np.sqrt(0.5 * (_OLD_GL8_X + 1.0))  # Gauss radii in rho^2
_OLD_BALL_PHI = 2.0 * math.pi * np.arange(16) / 16
_OLD_BALL_W = np.repeat(0.5 * _OLD_GL8_W / 16, 16)
_OLD_STENCIL = np.array([dx + 1j * dy for dx in range(-2, 3) for dy in range(-2, 3)])
# the scan centers: the origin and rings of radius 0.05 .. 0.5, about 0.045 apart
OLD_CENTERS = np.concatenate([[0.0 + 0.0j]] + [
    rad * np.exp(1j * (2.0 * math.pi * np.arange(n) / n))
    for rad in np.linspace(0.05, 0.5, 10)
    for n in [max(8, int(round(2.0 * math.pi * rad / 0.045)))]
])


def old_average_many(u, radius, zs) -> np.ndarray:
    """Ball means A_r u(z), one radius or an array of radii broadcast against
    the centers zs, by one direct interpolation (no resolution guard)."""
    radius, zs = np.asarray(radius, dtype=float), np.asarray(zs, dtype=complex)
    pts = zs[..., None, None] + (radius[..., None] * _OLD_BALL_RHO)[..., None] * np.exp(
        1j * _OLD_BALL_PHI
    )
    vals = old_interpolate(u, pts.ravel()).reshape(pts.shape[:-2] + (-1,))
    return vals @ _OLD_BALL_W


def old_scores(u, js, zs) -> np.ndarray:
    """Detector scores j^{-1/2} |A_{RHO^j} u(z)| (a product with 1/sqrt(j)),
    the scale exponents js broadcast against the centers zs."""
    js = np.asarray(js)
    radii = np.reshape([OLD_RHO ** int(j) for j in js.flat], js.shape)
    return np.abs(old_average_many(u, radii, zs)) * (1.0 / np.sqrt(js))


def old_refine_center(u, zeta, j, score=-math.inf) -> tuple[float, complex]:
    """Local maximum of the scale-j score over stencils inside |z| <= 1/2.

    A stencil point replaces the current center only if it beats `score`.
    """
    best = (score, complex(zeta))
    for spacing in (0.012, 0.003):
        zs = best[1] + spacing * _OLD_STENCIL
        zs = zs[np.abs(zs) <= 0.5]
        if zs.size == 0:
            break
        scores = old_scores(u, j, zs)
        k = int(np.argmax(scores))
        if scores[k] > best[0]:
            best = (float(scores[k]), complex(zs[k]))
    return best


def old_concentration_detect(u, eps: float, j_max: int = 64, refine: bool = True, top_k: int = 8):
    """The detector as it was: a per-scale scan over every center, a greedy
    merge, then the stencil refine and a scale scan at the refined center."""
    if eps <= 0:
        raise ValueError("detection threshold must be positive")
    raw = []
    for j in range(1, j_max + 1):
        scores = old_scores(u, j, OLD_CENTERS)
        for idx in np.nonzero(scores >= eps)[0]:
            raw.append((float(scores[idx]), j, OLD_CENTERS[idx]))
    raw.sort(key=lambda c: (-c[0], c[1], c[2].real, c[2].imag))

    kept = []
    for cand in raw:
        if not any(
            abs(cand[2] - k[2]) < max(OLD_RHO ** cand[1], 0.05)
            and abs(math.log(cand[1]) - math.log(k[1])) < math.log(2.0)
            for k in kept
        ):
            kept.append(cand)
        if len(kept) >= top_k:
            break

    results = []
    for score, j, zeta in kept:
        if refine:
            score, zeta = old_refine_center(u, zeta, j, score)
            js = np.arange(max(1, j // 2), min(j_max, 2 * j) + 1)
            scores = old_scores(u, js, zeta)
            k = int(np.argmax(scores))
            if scores[k] > score:
                score, j = float(scores[k]), int(js[k])
        results.append((disc.DislocationParam(j, zeta), float(score)))
    results.sort(key=lambda c: (-c[1], c[0].j, c[0].zeta.real, c[0].zeta.imag))
    return results


# -- the Dirichlet energy in closed form, and the form by polarization -----------------------

def old_energy(u):
    grid = u.grid
    s = disc._ring_s(grid)
    V = u.rings
    dth = grid.dtheta
    ds = s[:-1] - s[1:]  # positive
    Vn = np.roll(V, -1, axis=1)
    A = V[1:] - V[:-1]
    B = Vn[1:] - Vn[:-1]
    e_s = np.sum((dth / ds)[:, None] * (A * A + A * B + B * B) / 3.0)
    C = Vn[:-1] - V[:-1]
    D = Vn[1:] - V[1:]
    e_t = np.sum((ds / dth)[:, None] * (C * C + C * D + D * D) / 3.0)
    a0 = V[0] - u.center
    a1 = np.roll(a0, -1)
    cap_r = 0.5 * dth * np.sum(a0 * a0 + a0 * a1 + a1 * a1) / 3.0
    dv = np.roll(V[0], -1) - V[0]
    cap_t = 0.5 * np.sum(dv * dv) / dth
    return float(e_s + e_t + cap_r + cap_t)


def old_grad_inner(u, v):
    return 0.25 * (old_energy(disc.add(u, v)) - old_energy(disc.subtract_disc(u, v)))


# -- deflation to one block, and the dislocation-weak test one member at a time --------------

def old_deflate(u, d):
    """The scale-j deflation sampled point by point: one block of order j."""
    j, zeta = d.j, d.zeta
    grid = u.grid
    out_grid = disc.PolarGrid(n_r=grid.n_r, n_theta=grid.n_theta * j, s_max=grid.s_max / j)
    sigma = disc._ring_s(out_grid) * j
    phis = disc._thetas(grid)
    pts = zeta + np.exp(-sigma)[:, None] * np.exp(1j * phis)[None, :]
    block = old_interpolate(u, pts.ravel()).reshape(grid.n_r, grid.n_theta)
    block = block / math.sqrt(j)
    block[-1, :] = 0.0
    center = float(old_interpolate(u, zeta)) / math.sqrt(j)
    sup = min(1.0, (min(1.0, u.support_radius + abs(zeta))) ** (1.0 / j))
    return disc.DiscFunction._owned(out_grid, center, block, support_radius=sup, order=j)


def old_dweak_test(seq, probe_count=6, seed=0, n_random_tracks=6, j_max=24):
    """`profiles.dweak_test` as it was: one detection and one deflation per
    member, pairings in the list form with `disc.make_probes`.  The witness is
    the last member's first track within 1e-12 (relative) of its largest
    pairing: tracks tied in exact arithmetic are not ordered by rounding."""
    members = profiles._as_disc_members(seq)
    rng = np.random.default_rng(seed)
    probes: dict = {}

    tracks = [(1, 0.0 + 0.0j, "identity")]
    for _ in range(n_random_tracks):
        j = int(rng.integers(1, j_max + 1))
        zeta = complex(*(rng.uniform(-0.35, 0.35, size=2)))
        tracks.append((j, zeta, "random"))

    per_member = []
    witness = None
    for u in members:
        cands = old_concentration_detect(u, eps=1e-4, j_max=j_max, top_k=2, refine=False)
        local = tracks + [(c[0].j, c[0].zeta, "detector") for c in cands]
        vals = []
        for j, zeta, kind in local:
            try:
                w = old_deflate(u, disc.DislocationParam(j, zeta))
            except ValueError:
                vals.append(0.0)
                continue
            key = (w.grid, w.order)
            if key not in probes:
                probes[key] = disc.make_probes(w.grid, probe_count, w.order)
            vals.append(disc.max_pairing(w, probes[key]))
        best = max([0.0, *vals])
        per_member.append(best)
        if best > 0.0:
            j, zeta, kind = next(tr for tr, v in zip(local, vals) if v >= best * (1.0 - 1e-12))
            witness = {"j": j, "zeta": [zeta.real, zeta.imag], "kind": kind}
    if functional.tail_decayed(per_member, 0.5, 0.05):
        verdict = "dweak-null-evidence"
    else:
        verdict = "non-vanishing"
    return profiles.DWeakReport(tuple(per_member), witness, verdict)


# -- member sums on fresh arrays, and the cell values by a rolled copy -----------------------

def old_combine(u, v, op):
    """op of two functions of one grid and one symmetry order, blockwise, on a fresh array."""
    disc._check_operands(u, v)
    return disc.DiscFunction._owned(
        u.grid,
        float(op(u.center, v.center)),
        op(u.rings, v.rings),
        support_radius=max(u.support_radius, v.support_radius),
        zero_trace=u.zero_trace and v.zero_trace,
        order=u.order,
    )


def old_subtract(u, v):
    return old_combine(u, v, np.subtract)


def old_add(u, v):
    return old_combine(u, v, np.add)


def old_apply_bubbles(op, members, term, grid) -> None:
    """members[idx] = op(members[idx], bubble of term at idx), for every idx: each
    bubble inflated on the whole grid, once per index."""
    for idx, (j, zeta) in enumerate(zip(term.j_track, term.zeta_track)):
        rings, center = old_inflated(term.w, disc.DislocationParam(j, zeta), grid)
        support = min(1.0, abs(zeta) + math.exp(-term.w.support_log_radius()) ** j)
        members[idx] = op(members[idx], disc.DiscFunction(grid, center, rings, support))


def old_cell_values_and_areas(u):
    """Per-cell values (cap first) from the rings and a copy rolled by one column."""
    V = u.rings
    Vn = np.roll(V, -1, axis=1)
    cell_vals = 0.25 * (V[:-1] + V[1:] + Vn[:-1] + Vn[1:])
    cap_val = 0.5 * (u.center + float(np.mean(V[0])))
    values = np.concatenate(([cap_val], cell_vals.ravel()))
    return values, disc._cell_area_array(u.grid, u.order)


# -- the translated Moser family, as each caller built it on its own ------------------------

def old_moser_sequence(s_list, centers, grid=None, form="translate"):
    """The generator's own checks, annular profiles and 512 x 128 default grid."""
    s_arr = [float(s) for s in s_list]
    zetas = [complex(z[0], z[1]) if isinstance(z, (tuple, list)) else complex(z) for z in centers]
    L_arr = [-math.log(s) for s in s_arr]
    if grid is None:
        pad = max(-math.log1p(-abs(z)) for z in zetas)
        grid = disc.PolarGrid(n_r=512, n_theta=128, s_max=max(L_arr) + pad + 2.0)
    members = []
    for L, z in zip(L_arr, zetas):
        if form == "translate":
            prof = radial.moser_annular(L, -math.log1p(-abs(z)))
            members.append(disc.inflate(prof, disc.DislocationParam(1, z), grid))
        else:
            prof = radial.moser_annular(1.0)
            members.append(disc.inflate(prof, disc.DislocationParam(max(1, round(L)), 0.0), grid))
    return profiles.FunctionSequence(members, range(1, len(members) + 1))


def old_weak_discontinuity_demo(s_list, centers, grid=None):
    """The translate demo's cases on its own 512 x 256 default grid, each
    profile scaled by the gradient budget 1, through the shared pipeline."""
    s_arr = [float(s) for s in s_list]
    zetas = [complex(z) for z in centers]
    L_arr = [-math.log(s) for s in s_arr]
    if grid is None:
        grid = disc.PolarGrid(
            n_r=512, n_theta=256,
            s_max=max(L_arr) + max(-math.log1p(-abs(z)) for z in zetas) + 2.0,
        )
    cases = []
    for s, L, z in zip(s_arr, L_arr, zetas):
        prof = radial.scale(radial.moser_annular(L, -math.log1p(-abs(z))), 1.0)
        cases.append(({"s": s, "center": [z.real, z.imag]}, prof, disc.DislocationParam(1, z), prof))
    return functional._demo_report(grid, cases, {"gradient_budget": 1.0})


def old_dilation_concentration_demo(base, j_list):
    """The dilation demo's cases on its own 512 x 128 grid, through the shared pipeline."""
    js = [int(j) for j in j_list]
    grid = disc.PolarGrid(n_r=512, n_theta=128, s_max=float(base.nodes[-1]) * max(js) + 2.0)
    cases = [({"j": j}, base, disc.DislocationParam(j, 0.0), radial.gauge_apply(base, 1.0 / j))
             for j in js]
    return functional._demo_report(grid, cases, {"base_grad_norm": radial.grad_norm(base)})


# -- the radial rearrangement with a Python worklist and a two-branch measure kernel ---------

class OldDistribution:
    """Relative measure of super-level sets of |u| for a PL radial profile."""

    def __init__(self, u: radial.RadialProfile):
        segs, T, c = radial._abs_segments(u)
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


def old_rearrange_radial(u: radial.RadialProfile, tol: float = 1e-6):
    """Exact decreasing rearrangement of a radial profile over relative measure.

    Level breakpoints of the PL data anchor the representation; flat levels
    (the plateau) become exact constant pieces.  Between anchors the curve is
    refined in the (ell, value) plane until the chord error is below
    tol * sup|u|.  For profiles monotone in t the curve is exactly affine
    there, so the anchors alone represent the rearrangement with zero error
    regardless of tol; the tolerance only matters for multimodal data.
    """
    dist = OldDistribution(u)
    vmax = dist.vmax
    if vmax == 0.0:
        return rearrange.RearrangedFunction(np.array([1.0]), np.array([0.0, 0.0]), "loglin")
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
        la, lb, lm = rearrange._ell(tau_a), rearrange._ell(tau_b), rearrange._ell(tau_mid)
        denom = np.where(lb == la, 1.0, lb - la)
        lam_chord = lam_a + (lm - la) / denom * (lam_b - lam_a)
        bad = (
            (np.abs(lam_chord - lam_mid) > abs_tol)
            & (lam_a - lam_b > 1e-14 * vmax)
            & (tau_b >= rearrange._TAU_FLOOR)
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
    keep = taus >= rearrange._TAU_FLOOR
    lam_floor = float(np.min(lams[~keep])) if not np.all(keep) else vmax
    taus, lams = taus[keep], lams[keep]
    if lam_floor < vmax * (1.0 - 1e-12):
        # sub-floor points carried real curve information: collapse them
        # into a breakpoint at the floor; the cap above holds the ess sup
        taus = np.concatenate(([rearrange._TAU_FLOOR], taus))
        lams = np.concatenate(([lam_floor], lams))
    strictly = np.concatenate(([True], np.diff(taus) > 0.0))
    taus, lams = taus[strictly], lams[strictly]
    taus[-1] = 1.0
    values = np.concatenate(([vmax], np.minimum.accumulate(lams)))
    return rearrange.RearrangedFunction(taus, values, "loglin")


# -- whole-array kernels: the pairing on materialized differences, the remainder norm ------
# -- with a stable prefix sort, the int32 net plan and the inflation ----------------------

def old_stack(us) -> tuple:
    """The factors of functions of one grid and order, stacked: us[0], then
    their radial and cyclic angular differences and cap rows rings[0] - center,
    unshifted and shifted by a column, on a leading axis; a stack as is."""
    if isinstance(us, tuple):
        return us
    if not us:
        raise ValueError("no probes to pair with")
    V = us[0].rings
    A, G, a0, a1 = (np.empty((len(us),) + x.shape) for x in (V[1:], V, V[0], V[0]))
    for p, u in enumerate(us):
        disc._check_operands(us[0], u)  # before its arrays are written
        V = u.rings
        np.subtract(V[1:], V[:-1], out=A[p])
        np.subtract(V[:, 1:], V[:, :-1], out=G[p, :, :-1])
        np.subtract(V[:, 0], V[:, -1], out=G[p, :, -1])
        np.subtract(V[0], u.center, out=a0[p])
    a1[:, :-1], a1[:, -1] = a0[:, 1:], a0[:, 0]
    return us[0], A, G, a0, a1


def old_pair(fu: tuple, fvs: tuple) -> np.ndarray:
    """Dirichlet bilinear form of a factored bilinear interpolant with each
    factor of a stack, exact cap included: one value per stacked factor."""
    (u, *one), (v, Av, Gv, a0v, a1v) = fu, fvs
    Au, Gu, a0u, a1u = (x[0] for x in one)
    disc._check_operands(u, v)
    s, dth = disc._ring_s(u.grid), u.grid.dtheta
    ds = s[:-1] - s[1:]  # positive
    rowdot = disc._rowdot
    cross = ((rowdot(Au[:, :-1], Av[:, :, 1:]) + Au[:, -1] * Av[:, :, 0])  # A_u B_v, cyclic
             + (rowdot(Au[:, 1:], Av[:, :, :-1]) + Av[:, :, -1] * Au[:, 0]))  # B_u A_v
    radial_ = 2.0 * rowdot(Au, Av) + 0.5 * cross
    e_s = np.array([np.dot(dth / ds, row) for row in radial_]) / 3.0
    P = rowdot(Gu, Gv)
    Q = rowdot(Gu[:-1], Gv[:, 1:]) + rowdot(Gu[1:], Gv[:, :-1])
    e_t = np.array([np.dot(ds / dth, row) for row in P[:, :-1] + P[:, 1:] + 0.5 * Q]) / 3.0
    cap_r = dth * np.sum(a0u * a0v + 0.5 * (a0u * a1v + a1u * a0v) + a1u * a1v, axis=1) / 6.0
    cap_t = 0.5 * P[:, 0] / dth
    return u.order * (e_s + e_t + cap_r + cap_t)


def old_expl2_prefix(mags, areas, total, mask, start):
    """Sup over the masked cells taken in rearrange_disc's order, by a stable sort."""
    sel = np.flatnonzero(mask)
    order = sel[np.argsort(mags[sel], kind="stable")[::-1]]
    vals = mags[order]
    taus = np.cumsum(np.concatenate(([start], areas[order])))[1:]
    best = float(np.max(vals * rearrange._expl2_weight(taus / total)))
    return best, float(vals[-1]), float(taus[-1])


def old_expl2_disc(u) -> float:
    """expl2_quasinorm(rearrange_disc(u)), sorting only the cells that can win."""
    values, areas = u.cell_values_and_areas()
    mags = np.abs(values, out=values)
    vmax = float(mags.max())
    if vmax == 0.0:
        return 0.0
    nb = rearrange._EXPL2_BUCKETS
    bucket = np.minimum((mags / vmax * nb).astype(np.intp), nb - 1)
    hist = np.bincount(bucket, weights=areas, minlength=nb)
    total = float(areas.sum())
    w_reach = rearrange._expl2_weight(np.cumsum(hist[::-1])[::-1] / total)
    edges = np.arange(nb + 1) * (vmax / nb)
    first = int(np.argmax(edges[:-1] * w_reach))
    best, v_last, s_last = old_expl2_prefix(mags, areas, total, bucket >= first, 0.0)
    bound = np.minimum(edges[1:first + 1], v_last) * w_reach[:first]
    can_win = np.flatnonzero((bound > best) & (hist[:first] > 0))
    if can_win.size:
        run = (bucket >= can_win[0]) & (bucket < first)
        best = max(best, old_expl2_prefix(mags, areas, total, run, s_last)[0])
    return best


def old_net_plan(grid, width: int, z) -> tuple:
    """(plan, cap, outside) of a net with int32 indices: four corner indices and the
    weights 1 - xi, xi, 1 - eta, eta; the cap points' indices and weights."""
    def angular_index(theta):
        y = theta / grid.dtheta
        floor = np.floor(y)
        m = floor.astype(np.int32)
        m[m >= width] %= width
        return m, np.where(m == width - 1, 0, m + 1), y - floor

    z = np.asarray(z, dtype=complex)
    r, theta = np.abs(z.ravel()), np.angle(z.ravel())
    theta[theta < 0.0] += 2.0 * math.pi
    r0 = disc._ring_radii(grid)[0]
    cap = np.flatnonzero(r < r0)
    m, m1, eta = angular_index(theta[cap])
    cap_plan = (cap, m, m1, 1 - eta, eta, r[cap] / r0)
    outside = np.flatnonzero(~(r < 1.0))
    r[cap], r[outside], theta[outside] = r0, 1.0, 0.0
    x = np.clip((grid.s_max + np.log(r)) / (grid.s_max / (grid.n_r - 1)), 0, grid.n_r - 1)
    i = np.minimum(x.astype(np.int32), grid.n_r - 2)
    xi = x - i
    m, m1, eta = angular_index(theta)
    k, k1 = i * width + m, i * width + m1
    return (k, k + width, k1, k1 + width, 1 - xi, xi, 1 - eta, eta), cap_plan, outside


def old_field(grid, zeta):
    """-log|z - zeta| at every ring node at once, n_theta columns wide; at the
    origin, where 0 cos theta and 0 sin theta are +-0, one column."""
    radii = disc._ring_radii(grid)[:, None]
    thetas = disc._thetas(grid)[: 1 if zeta == 0 else None]
    zx, zy = zeta.real, zeta.imag
    proj = zx * np.cos(thetas) + zy * np.sin(thetas)
    d2 = radii ** 2 + (zx * zx + zy * zy) - 2.0 * radii * proj
    with np.errstate(divide="ignore"):
        return -np.log(np.sqrt(np.maximum(d2, 0.0)))


def old_inflated(w, d, grid, order: int = 1):
    """j^{1/2} w(-log|z - zeta| / j) on the whole grid at once: (rings, center)."""
    j, zeta = d.j, d.zeta
    rings = w.value_at(old_field(grid, zeta) / j)
    rings *= math.sqrt(j)
    if rings.shape[1] == 1:
        rings = np.repeat(rings, grid.n_theta // order, axis=1)
    rings[-1, :] = 0.0
    with np.errstate(divide="ignore"):
        t_c = math.inf if zeta == 0 else -math.log(abs(zeta)) / j
    return rings, math.sqrt(j) * float(w.value_at(t_c))
