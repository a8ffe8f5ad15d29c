"""End-to-end acceptance criteria, one test per criterion.

Each test prints a PASS line with its measured figures (run with -s to see
them on success).  Tolerances are fixed here and derive from oracles that are
independent of the code paths under test: closed forms via the Dawson
function for the concentrating family, finite-difference Riemann sums for
norms, hand-computed measure geometry and planted ground truth elsewhere.
"""

import json
import math

import numpy as np
from scipy.special import dawsn

from moserlab import cli, disc, functional, profiles, radial, rearrange, seqgen
from conftest import nonradial_test_function, smooth_plateau_profile, synthesized_term_error

TWO_PI = 2.0 * math.pi


def report(num: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_01_moser_normalization():
    worst = 0.0
    for s in (math.exp(-1), math.exp(-5), math.exp(-20), 1 - 1e-6):
        worst = max(worst, abs(radial.grad_norm(radial.make_moser(s), 2) - 1.0))
    report(1, worst <= 1e-10, f"max |grad norm - 1| = {worst:.2e} (tol 1e-10)")


def test_02_gauge_identities():
    rng = np.random.default_rng(2024)
    worst_node, worst_norm = 0.0, 0.0
    for _ in range(50):
        s = rng.uniform(0.15, 5.0)
        t = rng.uniform(0.01, 0.95)
        g = radial.gauge_apply(radial.make_moser(t), s)
        m = radial.make_moser(t ** (1.0 / s))
        worst_node = max(
            worst_node,
            float(np.max(np.abs(g.nodes - m.nodes) / np.maximum(m.nodes, 1e-300))),
            float(np.max(np.abs(g.values - m.values) / np.maximum(np.abs(m.values), 1e-300))),
        )
        worst_norm = max(worst_norm, abs(radial.grad_norm(g, 2) - 1.0))
    ok = worst_node <= 1e-12 and worst_norm <= 1e-12
    report(2, ok, f"50 pairs: node gap {worst_node:.2e}, norm gap {worst_norm:.2e} (tol 1e-12)")


def test_03_pairing_identity():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(100):
        u = radial.random_profile(rng)
        t = rng.uniform(0.05, 4.0)
        closed = radial.pairing_mstar(u, t, check_tol=1e-10)
        integral = radial.pairing_mstar_integral(u, t)
        worst = max(worst, abs(closed - integral) / max(1.0, abs(closed)))
    worst_self = max(
        abs(radial.pairing_mstar(radial.moser_from_exponent(t), t) - 1.0)
        for t in (0.2, 1.0, 3.0, 10.0, 30.0)
    )
    ok = worst <= 1e-10 and worst_self <= 1e-10
    report(3, ok, f"forms gap {worst:.2e}, self-pairing gap {worst_self:.2e} (tol 1e-10)")


def test_04_functional_cross_check():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        u = radial.random_profile(rng, normalized=True)
        rep = functional.evaluate_functional(u, cross_tol=1e-6)
        worst = max(worst, rep.rel_gap)
    report(4, worst <= 1e-6, f"100 profiles: max relative gap {worst:.2e} (tol 1e-6)")


def test_05_concentration_limit():
    # oracle: J(L) = 4 pi X D(X), X = sqrt(L/2) -> 2 pi from above, gap ~ 2 pi / L
    Ls = [5.0, 10.0, 20.0, 25.0, 40.0, 50.0]
    rows = functional.moser_limit_experiment(Ls)
    gaps = {r.L: abs(r.j_direct - TWO_PI) for r in rows}
    oracle_dev = max(
        abs(r.j_direct - 4.0 * math.pi * math.sqrt(r.L / 2) * float(dawsn(math.sqrt(r.L / 2))))
        for r in rows
    )
    gap80 = abs(
        functional.j_direct(radial.moser_from_exponent(80.0)) - TWO_PI
    )
    seq_gaps = [gaps[L] for L in Ls]
    ok = (
        all(b < a for a, b in zip(seq_gaps, seq_gaps[1:]))
        and gaps[50.0] <= 0.05 * TWO_PI
        and gaps[25.0] > gaps[50.0]
        and gap80 < gaps[50.0]
        and oracle_dev <= 1e-7
    )
    report(
        5, ok,
        f"|J(50)-2pi| = {gaps[50.0]:.4f} <= {0.05*TWO_PI:.4f}, gap shrinks "
        f"{gaps[25.0]:.4f} -> {gaps[50.0]:.4f} -> {gap80:.4f} (L=80), "
        f"oracle dev {oracle_dev:.1e}",
    )


def test_06_dislocation_isometry():
    rng = np.random.default_rng(6)
    grid = disc.PolarGrid(n_r=512, n_theta=192, s_max=8.0)
    u = nonradial_test_function(grid)
    e0 = disc.energy(u)
    ratios = []
    for j in (1, 2, 4, 8, 16, 32):
        zeta = complex(*rng.uniform(-0.25, 0.25, 2))
        w = disc.deflate(u, disc.DislocationParam(j, zeta))
        ratios.append(disc.energy(w) / e0)
    within = all(0.98 <= r <= 1.02 for r in ratios)
    devs = []
    for n_r, n_th in ((128, 96), (256, 128), (512, 192)):
        g = disc.PolarGrid(n_r=n_r, n_theta=n_th, s_max=8.0)
        v = nonradial_test_function(g)
        w = disc.deflate(v, disc.DislocationParam(8, 0.13 + 0.08j))
        devs.append(abs(disc.energy(w) / disc.energy(v) - 1.0))
    improving = devs[2] < devs[1] < devs[0]
    report(
        6, within and improving,
        f"ratios at n_r=512, j<=32: [{min(ratios):.4f}, {max(ratios):.4f}] in [0.98, 1.02]; "
        f"refinement deviations {devs[0]:.4f} > {devs[1]:.4f} > {devs[2]:.4f}",
    )


def test_07_hardy_and_pointwise():
    rng = np.random.default_rng(7)
    min_ratio, min_margin = math.inf, math.inf
    for _ in range(1000):
        u = radial.random_profile(rng)
        min_ratio = min(min_ratio, radial.hardy_ratio(u))
        min_margin = min(min_margin, radial.pointwise_bound_margin(u))
    eq_dev = max(
        abs(radial.pointwise_bound_margin(radial.moser_from_exponent(L)))
        for L in (0.5, 1.0, 5.0, 25.0)
    )
    ok = min_ratio >= 0.25 - 1e-9 and min_margin >= -1e-12 and eq_dev <= 1e-9
    report(
        7, ok,
        f"1000 profiles: min weighted ratio {min_ratio:.4f} >= 1/4, "
        f"min margin {min_margin:.2e} >= -1e-12, equality dev {eq_dev:.1e}",
    )


def test_08_counterexample_triple():
    seq = seqgen.counterexample_sequence(64)
    energies = np.array([radial.grad_norm(m, 2) for m in seq.members])
    hardyw = np.array([radial.hardy_weight_integral(m) for m in seq.members])
    rearranged = [rearrange.rearrange_radial(m) for m in seq.members]
    expl2 = np.array([rearrange.expl2_quasinorm(f) for f in rearranged])
    scaled = expl2 * np.sqrt(np.arange(1, 65))
    idx_half = rearrange.LZIndex(math.inf, 2, -0.5)
    idx_one = rearrange.LZIndex(math.inf, 2, -1.0)
    q_half = np.array([rearrange.lz_quasinorm(f, idx_half) for f in rearranged])
    q_one = np.array([rearrange.lz_quasinorm(f, idx_one) for f in rearranged])
    e_const = energies.max() - energies.min() <= 1e-10
    h_const = hardyw.max() - hardyw.min() <= 1e-10
    scale_stable = (scaled.max() <= 1.5 * scaled[-1]) and (
        scaled.min() >= scaled[-1] / 1.5
    )
    # the boundary-index quasinorm diverges for every nonzero function, so
    # the lower bound holds in the extended reals (recorded in the notes)
    if math.isinf(q_half[0]):
        endpoint_lower = bool(np.all(np.isinf(q_half)))
        endpoint_txt = "(inf,2;-1/2) = +inf for all k"
    else:
        endpoint_lower = bool(np.all(q_half >= 0.5 * q_half[0]))
        endpoint_txt = f"(inf,2;-1/2) >= {0.5*q_half[0]:.3f}"
    ok = e_const and h_const and scale_stable and endpoint_lower
    report(
        8, ok,
        f"energy const to {energies.max()-energies.min():.1e}, weighted integral "
        f"const to {hardyw.max()-hardyw.min():.1e}, expl2*sqrt(k) in "
        f"[{scaled.min():.4f}, {scaled.max():.4f}] (x1.5 of {scaled[-1]:.4f}); "
        f"{endpoint_txt}; (inf,2;-1) at k=1,64: {q_one[0]:.4f}, {q_one[-1]:.4f}",
    )


def test_09_extractor_recovery():
    ks = list(range(1, 11))
    # one planted term
    grid = disc.PolarGrid(n_r=1024, n_theta=1024, s_max=5.5)
    w1 = smooth_plateau_profile(0.3, 1.0)
    jt1 = [2, 2, 2, 3, 3, 3, 3, 4, 4, 4]
    seq1, _ = seqgen.synthetic_superposition(
        [profiles.ProfileTerm(w1, jt1, [0.15 + 0.06j] * 10)],
        0.01, seed=7, grid=grid, k_list=ks,
    )
    dec1 = profiles.extract(seq1, eps_stop=0.05, max_terms=3, j_max=12)
    err1 = synthesized_term_error(dec1.terms[0], w1, jt1[-1]) if dec1.terms else 9.9
    slack1 = profiles.energy_ledger(dec1).slack

    # two planted terms with disjoint supports and separated centers
    w2 = smooth_plateau_profile(0.69, 1.0)
    jt2 = [2, 2, 2, 2, 3, 3, 3, 3, 3, 3]
    seq2, _ = seqgen.synthetic_superposition(
        [
            profiles.ProfileTerm(w2, jt2, [0.2 + 0.0j] * 10),
            profiles.ProfileTerm(w2, jt2, [-0.2 + 0.0j] * 10),
        ],
        0.01, seed=11, grid=grid, k_list=ks,
    )
    dec2 = profiles.extract(seq2, eps_stop=0.05, max_terms=4, j_max=12)
    errs2 = [synthesized_term_error(t, w2, jt2[-1]) for t in dec2.terms]
    slack2 = profiles.energy_ledger(dec2).slack
    pair_ok = len(dec2.terms) == 2 and profiles.orthogonality_check(*dec2.terms)
    energies_ok = all(abs(t.energy() - 1.0) <= 0.1 for t in dec1.terms + dec2.terms)

    ok = (
        len(dec1.terms) == 1
        and err1 <= 0.05
        and 0.0 <= slack1 <= 0.02
        and pair_ok
        and max(errs2, default=9.9) <= 0.05
        and 0.0 <= slack2 <= 0.02
        and energies_ok
        and dec1.remainder_expl2[-1] <= 0.05
        and dec2.remainder_expl2[-1] <= 0.05
    )
    report(
        9, ok,
        f"1-term: err {err1:.4f} <= 0.05, slack {slack1:.4f}; "
        f"2-term: count {len(dec2.terms)}, errs {[round(e,4) for e in errs2]}, "
        f"slack {slack2:.4f} in [0, 0.02]",
    )


def test_10_weak_discontinuity():
    s_list = [math.exp(-k) for k in range(1, 13)]
    rep = functional.weak_discontinuity_demo(s_list, [0.18 + 0.09j] * 12)
    pair = [r["pairing"] for r in rep.rows]
    jv = [r["J"] for r in rep.rows]
    peak = max(pair)
    decay_ok = pair[-1] <= 0.55 * peak and all(
        b <= a + 1e-9 for a, b in zip(pair[3:], pair[4:])
    )
    j_ok = all(j >= math.pi for j in jv[4:])

    base = radial.scale(radial.moser_from_exponent(6.0), 0.9)
    sub = functional.dilation_concentration_demo(base, list(range(1, 11)))
    j_sub = [r["J"] for r in sub.rows]
    sub_ok = j_sub[-1] < 0.05 and all(b < a for a, b in zip(j_sub, j_sub[1:]))

    ok = (
        decay_ok
        and j_ok
        and rep.classification == "moser-concentrating"
        and sub_ok
        and sub.classification == "subcritical-vanishing"
    )
    report(
        10, ok,
        f"pairings {pair[0]:.3f} (peak {peak:.3f}) -> {pair[-1]:.3f} "
        f"(<= 0.55 peak), J>=pi for k>=5 ({min(jv[4:]):.3f}); "
        f"subcritical J(k=10) = {j_sub[-1]:.4f} < 0.05",
    )


def test_11_determinism(tmp_path):
    outs = []
    for tag in ("a", "b"):
        seq_dir = tmp_path / f"seq_{tag}"
        dec_dir = tmp_path / f"dec_{tag}"
        assert cli.main([
            "generate", "--kind", "superposition", "--seed", "5",
            "--out", str(seq_dir),
        ]) == 0
        assert cli.main([
            "decompose", "--manifest", str(seq_dir / "manifest.json"),
            "--out", str(dec_dir), "--j-max", "8",
        ]) == 0
        outs.append((seq_dir, dec_dir))

    (sa, da), (sb, db) = outs
    gen_same = all(
        (sa / p.name).read_bytes() == (sb / p.name).read_bytes()
        for p in sorted(sa.iterdir())
    )

    def body(path):
        return "\n".join(
            l for l in path.read_text().splitlines() if not l.startswith("#")
        )

    dec_same = (
        (da / "decomposition.json").read_bytes() == (db / "decomposition.json").read_bytes()
        and (da / "term_00.json").read_bytes() == (db / "term_00.json").read_bytes()
        and body(da / "decomposition.csv") == body(db / "decomposition.csv")
        and body(da / "remainder.csv") == body(db / "remainder.csv")
    )
    report(
        11, gen_same and dec_same,
        f"generator bytes identical: {gen_same}; decomposition outputs identical: {dec_same}",
    )
