"""Fast invariant suites behind the `verify` command.

Each suite re-checks the structural identities its module is built on, at
small sizes so a full run stays under a minute.  The exhaustive versions
live in the test suite; this is the smoke check a fresh checkout (or a
downstream consumer) runs first.
"""

from __future__ import annotations

import math

import numpy as np

from . import disc, functional, profiles, rearrange, seqgen
from . import radial


def _check(checks, name, ok, detail=""):
    checks.append({"check": name, "ok": bool(ok), "detail": str(detail)})


def suite_radial() -> list:
    checks = []
    rng = np.random.default_rng(1)
    worst = max(
        abs(radial.grad_norm(radial.make_moser(s)) - 1.0)
        for s in (math.exp(-1), math.exp(-5), 1 - 1e-6)
    )
    _check(checks, "moser-normalization", worst < 1e-10, f"max|.|-1 = {worst:.2e}")

    ok = True
    for _ in range(10):
        s, t = rng.uniform(0.2, 3.0), rng.uniform(0.05, 0.9)
        g = radial.gauge_apply(radial.make_moser(t), s)
        m = radial.make_moser(t ** (1.0 / s))
        ok &= np.allclose(g.nodes, m.nodes, rtol=1e-12)
        ok &= np.allclose(g.values, m.values, rtol=1e-12)
        ok &= abs(radial.grad_norm(g) - 1.0) < 1e-12
    _check(checks, "gauge-identities", ok)

    ok = True
    for _ in range(20):
        u = radial.random_profile(rng)
        t = rng.uniform(0.1, 4.0)
        try:
            radial.pairing_mstar(u, t)
        except ArithmeticError:
            ok = False
    _check(checks, "pairing-two-forms", ok)

    margins = [
        radial.pointwise_bound_margin(radial.random_profile(rng)) for _ in range(100)
    ]
    _check(checks, "pointwise-bound", min(margins) >= -1e-12, f"min {min(margins):.2e}")

    ratios = [radial.hardy_ratio(radial.random_profile(rng)) for _ in range(100)]
    _check(checks, "hardy-ratio", min(ratios) >= 0.25 - 1e-9, f"min {min(ratios):.4f}")
    return checks


def suite_functional() -> list:
    checks = []
    rng = np.random.default_rng(2)
    zero = radial.RadialProfile([0.0, 1.0], [0.0, 0.0])
    _check(checks, "zero-value", functional.j_direct(zero) == 0.0)

    ok = True
    for _ in range(10):
        u = radial.random_profile(rng, normalized=True)
        rep = functional.evaluate_functional(u)
        ok &= rep.rel_gap <= 1e-6
    _check(checks, "direct-vs-representation", ok)

    from scipy.special import dawsn

    worst = 0.0
    for L in (1.0, 5.0, 20.0):
        X = math.sqrt(L / 2.0)
        oracle = 4.0 * math.pi * X * float(dawsn(X))
        worst = max(worst, abs(functional.j_direct(radial.moser_from_exponent(L)) - oracle))
    _check(checks, "moser-family-values", worst < 1e-8, f"max dev {worst:.2e}")

    rows = functional.moser_limit_experiment([5.0, 10.0, 20.0])
    gaps = [abs(r.j_direct - 2 * math.pi) for r in rows]
    _check(checks, "gap-shrinks", gaps[0] > gaps[1] > gaps[2])
    return checks


def suite_rearrangement() -> list:
    checks = []
    rng = np.random.default_rng(3)
    m = radial.moser_from_exponent(5.0)
    f = rearrange.rearrange_radial(m)
    dev = abs(rearrange.lp_mass_rearranged(f, 2) - radial.lp_mass(m, 2))
    _check(checks, "equimeasurability", dev < 1e-9, f"dev {dev:.2e}")

    c = rearrange.RearrangedFunction([1.0], [2.5], "step")
    _check(
        checks, "constant-sup-norm",
        abs(rearrange.expl2_quasinorm(c) - 2.5) < 1e-12,
    )

    ok = True
    for _ in range(20):
        f = rearrange.random_rearranged(rng)
        lhs = rearrange.lz_quasinorm(f, rearrange.LZIndex(math.inf, 4, -0.75))
        rhs = rearrange.lz_quasinorm(f, rearrange.LZIndex(math.inf, 2, -1.0)) ** 0.5
        rhs *= rearrange.expl2_quasinorm(f) ** 0.5
        ok &= lhs <= rhs * (1 + 1e-9)
    _check(checks, "holder-interpolation", ok)

    ok = True
    for _ in range(10):
        f = rearrange.random_rearranged(rng)
        a = rearrange.lz_quasinorm(
            rearrange.scale_rearranged(f, 3.0), rearrange.LZIndex(math.inf, 2, -1.0)
        )
        b = 3.0 * rearrange.lz_quasinorm(f, rearrange.LZIndex(math.inf, 2, -1.0))
        ok &= abs(a - b) <= 1e-9 * max(1.0, b)
    _check(checks, "scaling", ok)
    return checks


def suite_disc2d() -> list:
    checks = []
    grid = disc.PolarGrid(n_r=128, n_theta=64, s_max=8.0)
    cap, ann = disc.cell_areas(grid)
    total = cap + float(ann.sum()) * grid.n_theta
    _check(checks, "areas-sum-pi", abs(total - math.pi) < 1e-12, f"{total!r}")

    m = radial.make_moser(math.exp(-1.0))
    u = disc.inflate(m, disc.DislocationParam(1, 0.0), grid)
    e = disc.energy(u)
    _check(checks, "inflate-energy", abs(e - 1.0) < 0.05, f"E {e:.4f}")

    w = disc.deflate(u, disc.DislocationParam(1, 0.0))
    dev = float(np.max(np.abs(w.rings - u.rings)))
    _check(checks, "deflate-identity", dev < 1e-10, f"max dev {dev:.2e}")

    prof = radial.RadialProfile([0.0, 0.72, 1.2, 2.0, 3.0], [0.0, 0.0, 1.0, 0.4, 0.0])
    prof = radial.scale(prof, 1.0 / radial.grad_norm(prof))
    grid2 = disc.PolarGrid(n_r=256, n_theta=96, s_max=8.0)
    v = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid2)
    rings = v.rings * (1.0 + 0.3 * np.cos(2 * disc._thetas(grid2)))[None, :]
    v2 = disc.DiscFunction(grid2, v.center, rings, v.support_radius)
    ratio = disc.energy(disc.deflate(v2, disc.DislocationParam(6, 0.1 + 0.05j)))
    ratio /= disc.energy(v2)
    _check(checks, "deflate-isometry", 0.96 < ratio < 1.04, f"ratio {ratio:.4f}")

    got = disc.average(v2, 0.03, 0.0 + 0.0j)
    want = float(v2.interpolate(0.0 + 0.0j))
    _check(checks, "average-local", abs(got - want) < 0.05, f"{got:.4f} vs {want:.4f}")
    return checks


def suite_profiles() -> list:
    checks = []
    grid = disc.PolarGrid(n_r=384, n_theta=384, s_max=4.5)
    xs = np.linspace(0.0, 1.0, 9)
    prof = radial.RadialProfile(
        np.concatenate(([0.0], 0.3 + 0.9 * xs)),
        np.concatenate(([0.0], xs * xs * (3 - 2 * xs))),
    )
    prof = radial.scale(prof, 1.0 / radial.grad_norm(prof))
    jt = [1, 1, 2, 2, 2, 3]
    term = profiles.ProfileTerm(prof, jt, [0.1 + 0.05j] * 6)
    seq, _ = seqgen.synthetic_superposition([term], 0.01, seed=5, grid=grid)
    dec = profiles.extract(seq, eps_stop=0.05, max_terms=2, j_max=8)
    _check(
        checks, "planted-recovery",
        len(dec.terms) == 1 and dec.remainder_expl2[-1] < 0.05,
        f"terms {len(dec.terms)}, rem {dec.remainder_expl2[-1]:.4f}",
    )
    led = profiles.energy_ledger(dec)
    _check(checks, "energy-ledger", -1e-6 <= led.slack < 0.1, f"slack {led.slack:.4f}")

    zero = disc.scale_disc(seq.members[0], 0.0)
    decz = profiles.extract(
        profiles.FunctionSequence([zero] * 4, range(1, 5)), eps_stop=0.05
    )
    _check(checks, "zero-sequence", len(decz.terms) == 0)

    a = profiles.ProfileTerm(prof, [1, 2, 3], [0.0] * 3)
    b = profiles.ProfileTerm(prof, [1, 4, 9], [0.0] * 3)
    c = profiles.ProfileTerm(prof, [1, 2, 3], [0.3] * 3)
    _check(
        checks, "orthogonality-cases",
        (not profiles.orthogonality_check(a, a))
        and profiles.orthogonality_check(a, b)
        and profiles.orthogonality_check(a, c),
    )
    return checks


def suite_seqgen() -> list:
    checks = []
    seq = seqgen.counterexample_sequence(8)
    energies = [radial.grad_norm(m) for m in seq.members]
    hardy = [radial.hardy_weight_integral(m) for m in seq.members]
    _check(
        checks, "counterexample-constancy",
        max(energies) - min(energies) < 1e-10
        and max(hardy) - min(hardy) < 1e-10,
    )
    q = [
        rearrange.expl2_quasinorm(rearrange.rearrange_radial(m))
        for m in seq.members
    ]
    scaled = [v * math.sqrt(k) for k, v in zip(seq.k_list, q)]
    _check(
        checks, "counterexample-decay",
        q[-1] < q[0] and max(scaled) <= 1.5 * scaled[-1],
    )

    ms = seqgen.moser_sequence(
        [math.exp(-k) for k in (1, 2, 3)], [0.0, 0.0, 0.0],
        grid=disc.PolarGrid(n_r=256, n_theta=64, s_max=5.0),
    )
    worst = max(abs(disc.grad_norm_disc(m) - 1.0) for m in ms.members)
    _check(checks, "moser-members-normalized", worst < 0.02, f"max dev {worst:.4f}")

    spec = seqgen.GeneratorSpec("counterexample", {"k_max": 4}, seed=0)
    import json as _json

    m1 = _json.dumps(seqgen.build_sequence(spec)[1], sort_keys=True)
    m2 = _json.dumps(seqgen.build_sequence(spec)[1], sort_keys=True)
    _check(checks, "deterministic-manifests", m1 == m2)
    return checks


SUITES = {
    "radial": suite_radial,
    "functional": suite_functional,
    "rearrangement": suite_rearrangement,
    "disc2d": suite_disc2d,
    "profiles": suite_profiles,
    "seqgen": suite_seqgen,
}


def run_suite(name: str) -> dict:
    checks = SUITES[name]()
    return {"ok": all(c["ok"] for c in checks), "checks": checks}


def run_all() -> dict:
    suites = {name: run_suite(name) for name in SUITES}
    return {"ok": all(s["ok"] for s in suites.values()), "suites": suites}
