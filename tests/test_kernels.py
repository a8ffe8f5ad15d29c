"""The disc-layer kernels against the formulas they replaced, plus properties.

Each reference below is the previous implementation, kept verbatim so the
merged kernels stay pinned to the numbers they used to give.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, functional, radial
from conftest import old_average_many


# -- references: the replaced code -----------------------------------------------

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


def old_scan_scores(u, zeta, rho, js):
    scores = np.empty(len(js))
    for i, j in enumerate(js):
        val = old_average_many(u, rho ** int(j), np.array([zeta]))[0]
        scores[i] = abs(val) / math.sqrt(j)
    return scores


def old_refine_candidate(u, score, j, rho, zeta, j_max):
    best = (score, j, zeta)
    for spacing in (0.012, 0.003):
        grid_pts = [
            best[2] + spacing * (dx + 1j * dy)
            for dx in range(-2, 3)
            for dy in range(-2, 3)
        ]
        grid_pts = [z for z in grid_pts if abs(z) <= 0.5]
        zs = np.asarray(grid_pts, dtype=complex)
        if zs.size == 0:
            break
        scores = np.abs(old_average_many(u, rho ** best[1], zs)) / math.sqrt(best[1])
        k = int(np.argmax(scores))
        if scores[k] > best[0]:
            best = (float(scores[k]), best[1], zs[k])
    j_lo = max(1, best[1] // 2)
    j_hi = min(j_max, 2 * best[1])
    for jj in range(j_lo, j_hi + 1):
        sc = abs(old_average_many(u, rho**jj, np.array([best[2]]))[0]) / math.sqrt(jj)
        if sc > best[0]:
            best = (float(sc), jj, best[2])
    return best


def old_classify(pairings, j_values, decay_factor=0.7, j_floor=0.1) -> str:
    peak = max(pairings)
    tail_monotone = all(b < a for a, b in zip(pairings[-3:], pairings[-2:]))
    strong_decay = pairings[-1] <= 0.05 * peak
    decayed = strong_decay or (
        pairings[-1] <= max(decay_factor * peak, 1e-12) and tail_monotone
    )
    if not decayed:
        return "non-concentrating"
    if j_values[-1] >= j_floor:
        return "moser-concentrating"
    return "subcritical-vanishing"


def old_dweak_verdict(per_member) -> str:
    tail = per_member[-1]
    peak = max(per_member)
    tail_monotone = all(
        b < a for a, b in zip(per_member[-3:], per_member[-2:])
    )
    if tail <= max(0.05 * peak, 0.05) or (tail <= 0.5 * peak and tail_monotone):
        return "dweak-null-evidence"
    return "non-vanishing"


# -- inputs ------------------------------------------------------------------------

GRIDS = {
    "geometric": disc.PolarGrid(n_r=96, n_theta=64, s_max=7.0),
    "shallow": disc.PolarGrid(n_r=96, n_theta=64, s_max=3.0),
}


def random_disc(grid, seed: int) -> disc.DiscFunction:
    """Rough zero-trace samples: every difference of the form is exercised."""
    rng = np.random.default_rng(seed)
    rings = rng.normal(size=(grid.n_r, grid.n_theta))
    rings[-1] = 0.0
    return disc.DiscFunction(grid, float(rng.normal()), rings)


def bubble(grid, j: int, zeta: complex) -> disc.DiscFunction:
    prof = radial.moser_annular(2.0, -math.log1p(-abs(zeta)))
    u = disc.inflate(prof, disc.DislocationParam(j, zeta), grid)
    rings = u.rings * (1.0 + 0.3 * np.cos(3 * disc._thetas(grid)))[None, :]
    return disc.DiscFunction(grid, u.center, rings, u.support_radius)


# -- equivalence with the replaced code ----------------------------------------------

@pytest.mark.parametrize("name", sorted(GRIDS))
def test_energy_matches_old_formula(name):
    grid = GRIDS[name]
    for u in (random_disc(grid, 1), random_disc(grid, 2), bubble(grid, 2, 0.1 - 0.2j)):
        ref = old_energy(u)
        assert abs(disc.energy(u) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grad_inner_matches_polarization(name):
    grid = GRIDS[name]
    funcs = [random_disc(grid, 3), random_disc(grid, 4), bubble(grid, 1, 0.2j),
             bubble(grid, 3, -0.15)]
    for u in funcs:
        for v in funcs:
            scale = old_energy(u) + old_energy(v)
            assert abs(disc.grad_inner(u, v) - old_grad_inner(u, v)) <= 1e-12 * scale


def test_batched_scale_scan_matches_per_scale_loop():
    grid = disc.PolarGrid(n_r=256, n_theta=128, s_max=8.0)
    u = bubble(grid, 5, 0.12 + 0.05j)
    js = np.arange(1, 25)
    rho = math.exp(-1.0)
    for zeta in (0.12 + 0.05j, 0.0j, -0.3 + 0.1j):
        new = disc._scores([u], js, zeta)[0]
        ref = old_scan_scores(u, zeta, rho, js)
        assert np.all(np.abs(new - ref) <= 1e-12 * np.abs(ref))


def test_detector_refinement_matches_old_search():
    grid = disc.PolarGrid(n_r=256, n_theta=128, s_max=8.0)
    u = disc.add(bubble(grid, 4, 0.1 + 0.05j), bubble(grid, 2, -0.25 + 0.1j))
    rho = math.exp(-1.0)
    kw = dict(eps=0.01, j_max=16, top_k=4)
    raw = disc.concentration_detect(u, refine=False, **kw)
    ref = [old_refine_candidate(u, s, d.j, rho, d.zeta, 16) for d, s in raw]
    ref.sort(key=lambda c: (-c[0], c[1], c[2].real, c[2].imag))
    new = disc.concentration_detect(u, refine=True, **kw)
    assert len(new) == len(ref) > 0
    for (d, score), (s_ref, j_ref, z_ref) in zip(new, ref):
        assert d.j == j_ref and d.zeta == complex(z_ref)
        assert abs(score - s_ref) <= 1e-12 * s_ref


pairing_lists = st.lists(
    st.one_of(
        st.floats(0.0, 10.0, allow_nan=False),
        st.sampled_from([0.0, 1e-13, 0.05, 0.1, 0.5, 1.0]),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(pairing_lists, st.floats(0.0, 2.0))
def test_tail_decayed_reproduces_both_old_rules(pairings, j_last):
    j_values = [0.0] * (len(pairings) - 1) + [j_last]
    assert functional._classify(pairings, j_values) == old_classify(pairings, j_values)
    new_verdict = (
        "dweak-null-evidence"
        if functional.tail_decayed(pairings, 0.5, 0.05)
        else "non-vanishing"
    )
    assert new_verdict == old_dweak_verdict(pairings)


# -- properties of the bilinear form -------------------------------------------------

seeds = st.integers(0, 2**32 - 1)
coeffs = st.floats(-4.0, 4.0, allow_nan=False)
grid_names = st.sampled_from(sorted(GRIDS))


@settings(max_examples=30, deadline=None)
@given(grid_names, seeds, seeds)
def test_form_is_symmetric(name, a, b):
    u, v = random_disc(GRIDS[name], a), random_disc(GRIDS[name], b)
    assert disc._form(u, v) == disc._form(v, u)


@settings(max_examples=30, deadline=None)
@given(grid_names, seeds, seeds, seeds, coeffs, coeffs)
def test_form_is_bilinear(name, a, b, c, x, y):
    grid = GRIDS[name]
    u, w, v = random_disc(grid, a), random_disc(grid, b), random_disc(grid, c)
    lhs = disc._form(disc.add(disc.scale_disc(u, x), disc.scale_disc(w, y)), v)
    rhs = x * disc._form(u, v) + y * disc._form(w, v)
    bound = (abs(x) * math.sqrt(disc.energy(u)) + abs(y) * math.sqrt(disc.energy(w)))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + bound * math.sqrt(disc.energy(v)))


@settings(max_examples=30, deadline=None)
@given(grid_names, seeds)
def test_form_on_diagonal_is_the_energy(name, a):
    u = random_disc(GRIDS[name], a)
    twin = disc.DiscFunction(u.grid, u.center, u.rings.copy())
    e = disc.energy(u)
    assert disc._form(u, u) == e >= 0.0
    # the general (two-argument) path is the shared-factor one, bit for bit
    assert disc._form(u, twin) == e


def test_form_rejects_grid_mismatch():
    u = random_disc(GRIDS["geometric"], 0)
    v = random_disc(GRIDS["shallow"], 0)
    with pytest.raises(ValueError, match="different grids"):
        disc._form(u, v)
    with pytest.raises(ValueError, match="different grids"):
        disc.grad_inner(u, v)


@pytest.mark.parametrize("other, order, match", [
    ("shallow", 1, "different grids"),
    ("geometric", 2, "different symmetry orders"),
])
def test_max_pairing_rejects_a_probe_of_another_grid_or_order(other, order, match):
    grid = GRIDS["geometric"]
    u = random_disc(grid, 0)
    # the mismatched probe comes after a matching one, plain and factored
    probes = disc.make_probes(grid, 2) + disc.make_probes(GRIDS[other], 2, order)
    for ps in (probes, [disc._factor(p) for p in probes]):
        with pytest.raises(ValueError, match=match):
            disc.max_pairing(u, ps)
