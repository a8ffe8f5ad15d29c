"""The experiment layer against the code it replaced: exact equality.

The references below are the previous implementations, kept verbatim: the two
concentration demos with their pairing table, the probe set, the noise member
and the zero member of the superposition generator, the coefficient form of
add / subtract, the placement step that fitted every start, the per-probe loop
of the dislocation-weak test, `j_direct` with its two-piece plateau, and the
three CLI table commands.  Every output of the new code must equal theirs bit
for bit.
"""

import argparse
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import cli, disc, functional, profiles, radial, rearrange, seqgen
from moserlab.radial import RadialProfile, gauge_apply, grad_norm, moser_annular, scale
from conftest import old_interpolate, smooth_plateau_profile


# -- references: the replaced code -----------------------------------------------

def old_const_piece(c: float, a: float, b: float) -> float:
    # integral_a^b (exp(4 pi c^2) - 1) exp(-2t) dt, closed form
    return (math.expm1(functional.ALPHA_2 * c * c)) * 0.5 * (math.exp(-2.0 * a) - math.exp(-2.0 * b))


def old_j_direct(u, spec=None) -> float:
    """`j_direct` with the default tail cutoff (none): the plateau from the last node."""
    from scipy import integrate

    spec = spec or functional.QuadratureSpec()
    functional._guard(u)
    nodes, vals = u.nodes, u.values
    total = 0.0
    for i in range(len(nodes) - 1):
        t0, t1 = float(nodes[i]), float(nodes[i + 1])
        b = (vals[i + 1] - vals[i]) / (t1 - t0)
        a = vals[i] - b * t0

        def f(t, a=a, b=b):
            w = a + b * t
            return math.exp(functional.ALPHA_2 * w * w - 2.0 * t) - math.exp(-2.0 * t)

        val, _err = integrate.quad(
            f, t0, t1, epsabs=spec.abs_tol, epsrel=spec.rel_tol, limit=200,
        )
        total += val
    T = float(nodes[-1])
    c = float(vals[-1])
    total += old_const_piece(c, float(nodes[-1]), T)  # constant stretch before the cutoff
    total += old_const_piece(c, T, math.inf)
    return max(0.0, 2.0 * math.pi * total)


def old_make_probes(grid, count: int = 6, t_cap: float = 6.0):
    s_ext = min(grid.s_max, t_cap)
    layouts = [
        ("ramp", 0.35),
        ("tent", (0.08, 0.45), 0),
        ("ramp", 0.7),
        ("tent", (0.3, 0.85), 1),
        ("tent", (0.1, 0.6), 2),
        ("tent", (0.45, 0.95), 1),
        ("ramp", 0.15),
        ("tent", (0.2, 0.75), 3),
    ]
    probes = []
    k = 0
    while len(probes) < count:
        spec = layouts[k % len(layouts)]
        k += 1
        if spec[0] == "ramp":
            knee = spec[1] * s_ext
            prof = RadialProfile.from_arrays([0.0, knee], [0.0, 1.0], 2)
            cand = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
        else:
            (lo_f, hi_f), mode = spec[1], spec[2]
            lo, hi = lo_f * s_ext, hi_f * s_ext
            mid = 0.5 * (lo + hi)
            prof = RadialProfile.from_arrays(
                [0.0, lo, mid, hi], [0.0, 0.0, 1.0, 0.0], 2
            )
            base = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
            if mode == 0:
                cand = base
            else:
                rings = base.rings * np.cos(mode * disc._thetas(grid))[None, :]
                cand = disc.DiscFunction(grid, 0.0, rings, base.support_radius)
        e = disc.energy(cand)
        if e <= 0.0:
            continue
        probes.append(disc.scale_disc(cand, 1.0 / math.sqrt(e)))
    return probes


def old_pairing_table(members, probes):
    table = []
    for u in members:
        table.append(max(abs(disc.grad_inner(u, phi)) for phi in probes))
    return table


def old_classify(pairings, j_values, j_floor=0.1) -> str:
    if not functional.tail_decayed(pairings, 0.7, 0.0):
        return "non-concentrating"
    if j_values[-1] >= j_floor:
        return "moser-concentrating"
    return "subcritical-vanishing"


def old_weak_discontinuity_demo(
    s_list, centers, grid=None, gradient_budget=1.0, probe_count=6, spec=None
):
    s_arr = [float(s) for s in s_list]
    zetas = [complex(z) for z in centers]
    L_arr = [-math.log(s) for s in s_arr]
    if grid is None:
        grid = disc.PolarGrid(
            n_r=512, n_theta=256,
            s_max=max(L_arr) + max(-math.log1p(-abs(z)) for z in zetas) + 2.0,
        )
    probes = old_make_probes(grid, probe_count)

    members, j_values, rows = [], [], []
    max_energy = 0.0
    for s, L, z in zip(s_arr, L_arr, zetas):
        inner = -math.log1p(-abs(z)) if abs(z) > 0 else 0.0
        prof = scale(moser_annular(L, inner), gradient_budget)
        member = disc.inflate(prof, disc.DislocationParam(1, z), grid)
        members.append(member)
        j_values.append(functional.j_direct(prof, spec))
        max_energy = max(max_energy, disc.energy(member))
    pairings = old_pairing_table(members, probes)
    for s, z, p, jv in zip(s_arr, zetas, pairings, j_values):
        rows.append({"s": s, "center": [z.real, z.imag], "pairing": p, "J": jv})
    return functional.WeakDiscontinuityReport(
        rows=rows,
        classification=old_classify(pairings, j_values),
        max_discrete_grad_norm=math.sqrt(max_energy),
        notes={"gradient_budget": gradient_budget},
    )


def old_dilation_concentration_demo(base, j_list, grid=None, probe_count=6, spec=None):
    js = [int(j) for j in j_list]
    if grid is None:
        grid = disc.PolarGrid(
            n_r=512, n_theta=128,
            s_max=float(base.nodes[-1]) * max(js) + 2.0,
        )
    probes = old_make_probes(grid, probe_count)
    members, j_values, rows = [], [], []
    max_energy = 0.0
    for j in js:
        prof = gauge_apply(base, 1.0 / j)
        member = disc.inflate(base, disc.DislocationParam(j, 0.0), grid)
        members.append(member)
        j_values.append(functional.j_direct(prof, spec))
        max_energy = max(max_energy, disc.energy(member))
    pairings = old_pairing_table(members, probes)
    for j, p, jv in zip(js, pairings, j_values):
        rows.append({"j": j, "pairing": p, "J": jv})
    return functional.WeakDiscontinuityReport(
        rows=rows,
        classification=old_classify(pairings, j_values),
        max_discrete_grad_norm=math.sqrt(max_energy),
        notes={"base_grad_norm": grad_norm(base, 2)},
    )


def old_deflate(u, d):
    """`disc.deflate` as it was, with the j-fold symmetry tiled into the rings."""
    j, zeta = d.j, d.zeta
    grid = u.grid
    out_grid = disc.PolarGrid(
        n_r=grid.n_r,
        n_theta=grid.n_theta * j,
        s_max=grid.s_max / j,
    )
    sigma = disc._ring_s(out_grid) * j
    phis = disc._thetas(grid)
    pts = zeta + np.exp(-sigma)[:, None] * np.exp(1j * phis)[None, :]
    block = old_interpolate(u, pts.ravel()).reshape(grid.n_r, grid.n_theta)
    block = block / math.sqrt(j)
    block[-1, :] = 0.0
    rings = np.tile(block, (1, j))
    center = float(old_interpolate(u, zeta)) / math.sqrt(j)
    sup = min(1.0, (min(1.0, u.support_radius + abs(zeta))) ** (1.0 / j))
    return disc.DiscFunction._owned(out_grid, center, rings, support_radius=sup)


def old_dweak_test(seq, probe_count=6, seed=0, n_random_tracks=6, j_max=24):
    members = profiles._as_disc_members(seq)
    rng = np.random.default_rng(seed)
    probe_cache = {}

    def probes_for(grid):
        if grid not in probe_cache:
            probe_cache[grid] = old_make_probes(grid, probe_count)
        return probe_cache[grid]

    tracks = [(1, 0.0 + 0.0j, "identity")]
    for _ in range(n_random_tracks):
        j = int(rng.integers(1, j_max + 1))
        zeta = complex(*(rng.uniform(-0.35, 0.35, size=2)))
        tracks.append((j, zeta, "random"))

    per_member = []
    witness = None
    for u in members:
        cands = disc.concentration_detect(
            u, eps=1e-4, j_max=j_max, top_k=2, refine=False
        )
        local = tracks + [(c[0].j, c[0].zeta, "detector") for c in cands]
        best = 0.0
        best_track = None
        for j, zeta, kind in local:
            try:
                w = old_deflate(u, disc.DislocationParam(j, zeta))
            except ValueError:
                continue
            for phi in probes_for(w.grid):
                val = abs(disc.grad_inner(w, phi))
                if val > best:
                    best = val
                    best_track = {"j": j, "zeta": [zeta.real, zeta.imag], "kind": kind}
        per_member.append(best)
        witness = best_track if best_track is not None else witness
    if functional.tail_decayed(per_member, 0.5, 0.05):
        verdict = "dweak-null-evidence"
    else:
        verdict = "non-vanishing"
    return profiles.DWeakReport(tuple(per_member), witness, verdict)


def old_noise_member(grid, rng, k: int, noise_energy: float):
    prof = RadialProfile.from_arrays(
        [0.0, 0.8, 1.3, 2.1, 2.6], [0.0, 0.0, 1.0, 0.0, 0.0], 2
    )
    base = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
    mode = min(grid.n_theta // 3, 24 + 6 * k)
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    rings = base.rings * np.cos(mode * disc._thetas(grid) + phase)[None, :]
    noisy = disc.DiscFunction(grid, 0.0, rings, base.support_radius)
    e = disc.energy(noisy)
    return disc.scale_disc(noisy, math.sqrt(noise_energy / e))


def old_superposition_members(terms, noise_energy, seed, grid, ks):
    """The member loop of the old `synthetic_superposition`."""
    rng = np.random.default_rng(seed)
    members = []
    for idx, k in enumerate(ks):
        acc = None
        for t in terms:
            piece = disc.inflate(
                t.w, disc.DislocationParam(t.j_track[idx], t.zeta_track[idx]), grid
            )
            acc = piece if acc is None else old_add(acc, piece)
        if noise_energy > 0:
            noise = old_noise_member(grid, rng, k, noise_energy)
            acc = noise if acc is None else old_add(acc, noise)
        if acc is None:
            acc = disc.scale_disc(
                disc.inflate(
                    moser_annular(1.0), disc.DislocationParam(1, 0.0), grid
                ),
                0.0,
            )
        members.append(acc)
    return members


def old_combine(u, v, cu: float, cv: float):
    if u.grid != v.grid:
        raise ValueError("disc functions live on different grids")
    return disc.DiscFunction(
        u.grid,
        cu * u.center + cv * v.center,
        cu * u.rings + cv * v.rings,
        support_radius=max(u.support_radius, v.support_radius),
        zero_trace=u.zero_trace and v.zero_trace,
    )


def old_add(u, v):
    return old_combine(u, v, 1.0, 1.0)


def old_subtract_disc(u, v):
    return old_combine(u, v, 1.0, -1.0)


def old_fit_term(members, d0, j_max, grid):
    track, w = profiles._track_candidate(members, d0, j_max)
    t_min = max(-math.log1p(-abs(z)) / j for j, z in track)
    w = profiles._trim_profile_support(w, t_min * (1.0 + 1e-9))
    try:
        synth = disc.inflate(w, disc.DislocationParam(*track[-1]), grid)
    except disc.SupportError:
        return None
    denom = disc.energy(synth)
    if denom > 0:
        beta = disc.grad_inner(members[-1], synth) / denom
        beta = min(1.25, max(0.5, beta))
        if beta != 1.0:
            w = RadialProfile.from_arrays(w.nodes, beta * w.values, 2)
            synth = disc.scale_disc(synth, beta)
    return profiles.ProfileTerm(w, [j for j, _ in track], [z for _, z in track]), synth


def old_place_term(members, starts, j_max, grid, fits_budget):
    tail = len(members) - 1
    chosen = None
    for d0 in starts:
        fit = old_fit_term(members, d0, j_max, grid)
        if fit is None or not fits_budget(fit[0]):
            del fit
            continue
        term = fit[0]
        resid = disc.subtract_disc(members[tail], fit[1])
        del fit
        zl = term.zeta_track[-1]
        key = (disc.energy(resid), term.j_track[-1], zl.real, zl.imag,
               term.j_track, [(z.real, z.imag) for z in term.zeta_track])
        if chosen is None or key < chosen[0]:
            chosen = (key, term, resid)
        del resid
    if chosen is None:
        return None
    key, term, members[tail] = chosen
    for idx in range(tail):
        d = disc.DislocationParam(term.j_track[idx], term.zeta_track[idx])
        members[idx] = disc.subtract_disc(members[idx], disc.inflate(term.w, d, grid))
    return key[0], term


def old_cmd_moser_limit(args) -> int:
    out = args.out
    os.makedirs(out, exist_ok=True)
    l_values = [float(x) for x in args.l_values.split(",")]
    spec = functional.QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    rows = functional.moser_limit_experiment(l_values, spec)
    header = ["L", "s", "J_direct", "J_repr", "plateau", "ramp"]
    table = [
        [r.L, r.s, r.j_direct, r.j_repr, r.plateau, r.ramp] for r in rows
    ]
    cli.write_csv(os.path.join(out, "moser_limit.csv"), header, table)
    cli.write_json(
        os.path.join(out, "moser_limit.json"),
        [r.__dict__ for r in rows],
    )
    print(os.path.join(out, "moser_limit.csv"))
    return 0


def old_cmd_counterexample(args) -> int:
    out = args.out
    os.makedirs(out, exist_ok=True)
    seq = seqgen.counterexample_sequence(args.k_max)
    rows = []
    for k, m in zip(seq.k_list, seq.members):
        f = rearrange.rearrange_radial(m)
        rows.append(
            [
                k,
                radial.grad_norm(m, 2),
                radial.hardy_weight_integral(m),
                rearrange.expl2_quasinorm(f),
                rearrange.lz_quasinorm(f, rearrange.LZIndex(math.inf, 2, -1.0)),
                rearrange.lz_quasinorm(f, rearrange.LZIndex(math.inf, 2, -0.5)),
            ]
        )
    header = [
        "k", "grad_norm", "hardy_weight", "expl2",
        "lz_inf_2_-1", "lz_inf_2_-0.5",
    ]
    cli.write_csv(os.path.join(out, "counterexample.csv"), header, rows)
    cli.write_json(
        os.path.join(out, "counterexample.json"),
        [dict(zip(header, r)) for r in rows],
    )
    print(os.path.join(out, "counterexample.csv"))
    return 0


def old_cmd_norms(args) -> int:
    out = args.out
    os.makedirs(out, exist_ok=True)
    f = cli._load_rearranged(args.input)
    rows = []
    for idx in cli._parse_indices(args.indices):
        val = rearrange.lz_quasinorm(f, idx)
        rows.append([idx.p, idx.q, idx.alpha, val, math.isinf(val)])
    header = ["p", "q", "alpha", "value", "diverged"]
    cli.write_csv(os.path.join(out, "norms.csv"), header, rows)
    cli.write_json(
        os.path.join(out, "norms.json"), [dict(zip(header, r)) for r in rows]
    )
    print(os.path.join(out, "norms.csv"))
    return 0


# -- helpers -----------------------------------------------------------------------

def assert_same_disc(a, b):
    assert a.grid == b.grid
    assert a.center == b.center
    assert a.support_radius == b.support_radius
    assert a.zero_trace == b.zero_trace
    assert a.rings.tobytes() == b.rings.tobytes()


def assert_same_report(new, old):
    assert new.rows == old.rows
    assert new.classification == old.classification
    assert new.max_discrete_grad_norm == old.max_discrete_grad_norm
    assert new.notes == old.notes


# -- the demos: one pipeline, one pairing proxy ------------------------------------------

def test_j_direct_plateau_tail_matches_old(rng):
    profs = [radial.moser_from_exponent(L) for L in (0.5, 2.0, 7.0, 40.0)]
    profs += [radial.random_profile(rng, normalized=True) for _ in range(6)]
    profs += [radial.scale(radial.moser_from_exponent(6.0), 0.9)]
    for u in profs:
        assert functional.j_direct(u) == old_j_direct(u)


def test_translated_demo_matches_old_on_test_10_inputs():
    s_list = [math.exp(-k) for k in range(1, 13)]
    centers = [0.18 + 0.09j] * 12
    new = functional.weak_discontinuity_demo(s_list, centers)
    assert_same_report(new, old_weak_discontinuity_demo(s_list, centers))
    assert new.classification == "moser-concentrating"


def test_dilation_demo_matches_old_on_test_10_inputs():
    base = radial.scale(radial.moser_from_exponent(6.0), 0.9)
    new = functional.dilation_concentration_demo(base, list(range(1, 11)))
    assert_same_report(new, old_dilation_concentration_demo(base, list(range(1, 11))))
    assert new.classification == "subcritical-vanishing"


def test_constant_sequence_demo_matches_old():
    grid = disc.PolarGrid(n_r=192, n_theta=96, s_max=5.0)
    args = ([0.25] * 5, [0.1] * 5)
    new = functional.weak_discontinuity_demo(*args, grid=grid, probe_count=8)
    assert_same_report(
        new, old_weak_discontinuity_demo(*args, grid=grid, probe_count=8)
    )
    assert new.classification == "non-concentrating"


@pytest.mark.parametrize("grid", [
    disc.PolarGrid(n_r=96, n_theta=64, s_max=9.0),
    disc.PolarGrid(n_r=64, n_theta=96, s_max=4.0),
], ids=["geometric", "shallow"])
def test_make_probes_matches_old(grid):
    new, old = disc.make_probes(grid, 11), old_make_probes(grid, 11)
    assert len(new) == len(old) == 11
    for a, b in zip(new, old):
        assert_same_disc(a, b)


def test_pairing_over_no_probes_is_an_error():
    # the demos raised here before; the dislocation-weak test reported zeros
    grid = disc.PolarGrid(n_r=32, n_theta=32)
    u = disc.inflate(radial.moser_annular(1.0), disc.DislocationParam(1, 0.0), grid)
    with pytest.raises(ValueError):
        disc.max_pairing(u, disc.make_probes(grid, 0))
    with pytest.raises(ValueError):
        profiles.dweak_test(
            seqgen.counterexample_sequence(2), probe_count=0, n_random_tracks=0, j_max=2
        )


def test_angular_mode_zero_is_the_inflated_profile():
    grid = disc.PolarGrid(n_r=64, n_theta=48, s_max=5.0)
    w = radial.moser_annular(2.0, 0.1)
    assert_same_disc(
        disc.angular_mode(w, grid, 0),
        disc.inflate(w, disc.DislocationParam(1, 0.0), grid),
    )


# -- the dislocation-weak test -----------------------------------------------------------

def zero_member():
    grid = disc.PolarGrid(n_r=96, n_theta=64, s_max=5.0)
    return disc.DiscFunction(grid, 0.0, np.zeros((grid.n_r, grid.n_theta)))


@pytest.mark.parametrize("make_seq, kw", [
    (lambda: seqgen.counterexample_sequence(8),
     dict(probe_count=4, n_random_tracks=4, j_max=10)),
    (lambda: seqgen.moser_sequence(
        [math.exp(-k) for k in (1, 2, 3, 4)], [0.1 + 0.05j] * 4,
        grid=disc.PolarGrid(n_r=192, n_theta=96, s_max=7.0)),
     dict(probe_count=5, n_random_tracks=2, j_max=8, seed=3)),
    # a zero member pairs to 0 on every track: exact ties with the start value
    (lambda: profiles.FunctionSequence(
        [zero_member(), seqgen.moser_sequence(
            [0.3], [0.0], grid=disc.PolarGrid(n_r=96, n_theta=64, s_max=5.0)
        ).members[0], zero_member()], [1, 2, 3]),
     dict(probe_count=3, n_random_tracks=2, j_max=4)),
], ids=["counterexample", "moser", "zero-members"])
def test_dweak_matches_old(make_seq, kw):
    # deflations are stored as one block of order j: the form sums it once
    # and multiplies by j, so the pairings agree to rounding, not bit for bit,
    # and a near-tie between tracks may pick another witness; the witness is
    # pinned exactly by test_shared_nets.py::test_dweak_test_is_exactly_the_old_one
    seq = make_seq()
    new, old = profiles.dweak_test(seq, **kw), old_dweak_test(seq, **kw)
    assert new.per_member == pytest.approx(old.per_member, rel=1e-12, abs=0.0)
    assert new.verdict == old.verdict


# -- the generators ---------------------------------------------------------------------

@pytest.mark.parametrize("n_terms, noise_energy, seed", [
    (1, 0.01, 4), (2, 0.02, 9), (0, 0.03, 1), (0, 0.0, 0), (1, 0.0, 2),
], ids=["one-term", "two-term", "noise-only", "empty", "no-noise"])
def test_superposition_members_match_old(n_terms, noise_energy, seed):
    grid = disc.PolarGrid(n_r=128, n_theta=96, s_max=4.0)
    w = radial.moser_annular(0.8, 0.4)
    zetas = [0.2 + 0.0j, -0.2 + 0.05j][:n_terms]
    ks = [1, 2, 3]
    terms = [profiles.ProfileTerm(w, [1, 2, 2], [z] * 3) for z in zetas]
    seq, _ = seqgen.synthetic_superposition(
        terms, noise_energy, seed, grid, k_list=ks
    )
    old = old_superposition_members(terms, noise_energy, seed, grid, ks)
    assert len(seq.members) == len(old)
    for a, b in zip(seq.members, old):
        assert_same_disc(a, b)


# -- add and subtract ----------------------------------------------------------------------

GRID = disc.PolarGrid(n_r=24, n_theta=32, s_max=3.0)
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def disc_samples(draw, zero_trace=True):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rings = rng.normal(size=(GRID.n_r, GRID.n_theta)) * draw(finite)
    # exact zeros and negative zeros exercise the signed-zero cases
    rings[rng.random(rings.shape) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    if zero_trace:
        rings[-1] = draw(st.sampled_from([0.0, -0.0]))
    return disc.DiscFunction(
        GRID, draw(st.one_of(finite, st.sampled_from([0.0, -0.0]))), rings,
        support_radius=draw(st.floats(0.01, 1.0)), zero_trace=zero_trace,
    )


@settings(max_examples=200, deadline=None)
@given(disc_samples(), st.one_of(disc_samples(), disc_samples(zero_trace=False)))
def test_add_and_subtract_match_old(u, v):
    for new, old in ((disc.add, old_add), (disc.subtract_disc, old_subtract_disc)):
        a, b = new(u, v), old(u, v)
        assert_same_disc(a, b)
        assert math.copysign(1.0, a.center) == math.copysign(1.0, b.center)


def test_add_rejects_other_grids():
    u = disc.DiscFunction(GRID, 0.0, np.zeros((GRID.n_r, GRID.n_theta)))
    other = disc.PolarGrid(n_r=24, n_theta=32, s_max=4.0)
    v = disc.DiscFunction(other, 0.0, np.zeros((other.n_r, other.n_theta)))
    for op in (disc.add, disc.subtract_disc):
        with pytest.raises(ValueError, match="different grids"):
            op(u, v)


# -- the extractor's inputs: member energies once, one fit per distinct track ---------------

@pytest.fixture(scope="module")
def superposed():
    grid = disc.PolarGrid(n_r=96, n_theta=96, s_max=4.5)
    w = smooth_plateau_profile(0.69, 1.0)
    terms = [profiles.ProfileTerm(w, [1, 2, 2, 3], [z] * 4)
             for z in (0.2 + 0.0j, -0.15 + 0.1j)]
    seq, _ = seqgen.synthetic_superposition(terms, 0.01, seed=3, grid=grid)
    return seq, grid


def test_sequence_keeps_member_energies(superposed):
    seq = superposed[0]
    assert seq.energies == tuple(disc.energy(u) for u in seq.members)
    ce = seqgen.counterexample_sequence(3)
    assert ce.energies == tuple(grad_norm(m, 2) ** 2 for m in ce.members)


def test_sequence_bound_is_on_the_gradient_norm(superposed):
    u = superposed[0].members[0]
    big = disc.scale_disc(u, 10.0 / math.sqrt(disc.energy(u)) * 1.001)
    with pytest.raises(ValueError, match="uniformly bounded"):
        profiles.FunctionSequence([big], [1])
    ok = disc.scale_disc(u, 9.99 / math.sqrt(disc.energy(u)))
    assert profiles.FunctionSequence([ok], [1]).energies[0] < 100.0


def test_placement_with_repeated_tracks_matches_old(superposed, monkeypatch):
    seq, grid = superposed
    members = list(seq.members)
    cands = disc.concentration_detect(members[-1], eps=0.0125, j_max=8, top_k=4)
    starts = [d for d, _ in cands]
    starts = starts + starts[:2] + [disc.DislocationParam(1, 0.0)]
    fits = []
    fit = profiles._fit_term

    def counted_fit(members, track, w, grid):
        fits.append(track)
        return fit(members, track, w, grid)

    monkeypatch.setattr(profiles, "_fit_term", counted_fit)
    new_members, old_members = list(members), list(members)
    new = profiles._place_term(new_members, starts, 8, grid, lambda t: True)
    old = old_place_term(old_members, starts, 8, grid, lambda t: True)
    # every start is tracked, but each distinct track is fitted once
    assert len(fits) == len(set(map(tuple, fits))) < len(starts)
    assert new[0] == old[0]
    a, b = new[1], old[1]
    assert a.j_track == b.j_track and a.zeta_track == b.zeta_track
    assert a.w.nodes.tobytes() == b.w.nodes.tobytes()
    assert a.w.values.tobytes() == b.w.values.tobytes()
    for u, v in zip(new_members, old_members):
        assert_same_disc(u, v)


# -- the CLI table writer --------------------------------------------------------------------

def _body(path) -> bytes:
    # the timestamped comment line is excluded from determinism comparisons
    return b"\n".join(
        l for l in path.read_bytes().split(b"\n") if not l.startswith(b"#")
    )


@pytest.fixture(scope="module")
def disc_member(tmp_path_factory):
    grid = disc.PolarGrid(n_r=64, n_theta=48, s_max=4.0)
    u = disc.inflate(radial.moser_annular(1.5), disc.DislocationParam(1, 0.0), grid)
    path = tmp_path_factory.mktemp("member") / "member.json"
    cli.write_json(str(path), disc.disc_to_dict(u))
    return str(path)


@pytest.mark.parametrize("argv, old_cmd, name", [
    (["moser-limit", "--l-values", "2,5,10.5"], old_cmd_moser_limit, "moser_limit"),
    (["counterexample", "--k-max", "6"], old_cmd_counterexample, "counterexample"),
    (["norms", "--input", None], old_cmd_norms, "norms"),
], ids=["moser-limit", "counterexample", "norms"])
def test_cli_tables_match_old(tmp_path, capsys, disc_member, argv, old_cmd, name):
    argv = [disc_member if a is None else a for a in argv]
    new_dir, old_dir = tmp_path / "new", tmp_path / "old"
    assert cli.main(argv + ["--out", str(new_dir)]) == 0
    new_out = capsys.readouterr().out
    args = cli.build_parser().parse_args(argv + ["--out", str(old_dir)])
    assert isinstance(args, argparse.Namespace)
    assert old_cmd(args) == 0
    old_out = capsys.readouterr().out
    assert new_out.replace(str(new_dir), "") == old_out.replace(str(old_dir), "")
    assert sorted(os.listdir(new_dir)) == sorted(os.listdir(old_dir))
    assert (new_dir / f"{name}.json").read_bytes() == (old_dir / f"{name}.json").read_bytes()
    assert _body(new_dir / f"{name}.csv") == _body(old_dir / f"{name}.csv")
