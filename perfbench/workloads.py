"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

Each workload is a pair of functions.  ``setup(seed)`` builds the inputs
(this is the set-up the benchmark times as part of ``setup_s``); ``run(inputs,
scratch)`` does one pass and returns a ``PassResult`` with the named output
checks, the worst deviation from the workload's independent oracle and a
digest of the deterministic outputs.  Seed 0 reproduces the inputs of the
acceptance tests; seed n shifts every generator seed by n.

The tolerances are those of ``tests/test_acceptance.py`` and are never
loosened here.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import dawsn

from moserlab import cli, disc, profiles, radial, seqgen

# acceptance-test seeds that seed 0 reproduces
EXTRACT_SEEDS = (7, 11)  # test_09: one-term and two-term superpositions
DISLOCATION_SEED = 6  # test_06: deflation centers
CLI_SEED = 5  # test_11: generated superposition


@dataclass
class PassResult:
    checks: list = field(default_factory=list)  # (name, ok, detail)
    accuracy_err: float = math.nan
    digest: str = ""

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def _digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


# -- oracles shared with the acceptance tests -------------------------------------

def smooth_plateau_profile(t_start: float, ramp: float, knots: int = 41):
    """Smoothstep ramp to a plateau, normalized to unit gradient norm."""
    xs = np.linspace(0.0, 1.0, knots)
    nodes = np.concatenate(([0.0], t_start + ramp * xs))
    vals = np.concatenate(([0.0], xs * xs * (3.0 - 2.0 * xs)))
    prof = radial.RadialProfile.from_arrays(nodes, vals, 2)
    return radial.scale(prof, 1.0 / radial.grad_norm(prof, 2))


def synthesized_term_error(rec_term, w_true, j_true_last: int) -> float:
    """H1 distance between the synthesized bubbles j^{1/2} w(t/j) of the
    recovered and the planted term at the last index (gauge-free)."""
    ws = radial.gauge_apply(rec_term.w, 1.0 / rec_term.j_track[-1])
    wt = radial.gauge_apply(w_true, 1.0 / j_true_last)
    return radial.h1_distance(ws, wt)


def moser_oracle(L: float) -> float:
    """J(m_{e^-L}) = 4 pi X D(X), X = sqrt(L/2), with Dawson's D."""
    x = math.sqrt(L / 2.0)
    return 4.0 * math.pi * x * float(dawsn(x))


# -- extract: the test_09 acceptance-size extraction --------------------------------

_K_LIST = list(range(1, 11))
_JT1 = [2, 2, 2, 3, 3, 3, 3, 4, 4, 4]
_JT2 = [2, 2, 2, 2, 3, 3, 3, 3, 3, 3]


def extract_setup(seed: int) -> dict:
    grid = disc.PolarGrid(n_r=1024, n_theta=1024, s_max=5.5)
    w1 = smooth_plateau_profile(0.3, 1.0)
    w2 = smooth_plateau_profile(0.69, 1.0)
    seq1, _ = seqgen.synthetic_superposition(
        [profiles.ProfileTerm(w1, _JT1, [0.15 + 0.06j] * 10)],
        0.01, seed=EXTRACT_SEEDS[0] + seed, grid=grid, k_list=_K_LIST,
    )
    seq2, _ = seqgen.synthetic_superposition(
        [
            profiles.ProfileTerm(w2, _JT2, [0.2 + 0.0j] * 10),
            profiles.ProfileTerm(w2, _JT2, [-0.2 + 0.0j] * 10),
        ],
        0.01, seed=EXTRACT_SEEDS[1] + seed, grid=grid, k_list=_K_LIST,
    )
    return {"w1": w1, "w2": w2, "seq1": seq1, "seq2": seq2,
            "seeds": [EXTRACT_SEEDS[0] + seed, EXTRACT_SEEDS[1] + seed],
            "state_array_bytes": seq1.members[0].rings.nbytes}


def _decomposition_parts(dec) -> list:
    parts = [dec.status, dec.remainder_expl2]
    for t in dec.terms:
        parts += [t.w.nodes.tobytes(), t.w.values.tobytes(), t.j_track, t.zeta_track]
    return parts


def extract_run(inp: dict, scratch: str) -> PassResult:
    res = PassResult()
    dec1 = profiles.extract(inp["seq1"], eps_stop=0.05, max_terms=3, j_max=12)
    dec2 = profiles.extract(inp["seq2"], eps_stop=0.05, max_terms=4, j_max=12)

    err1 = synthesized_term_error(dec1.terms[0], inp["w1"], _JT1[-1]) if dec1.terms else 9.9
    errs2 = [synthesized_term_error(t, inp["w2"], _JT2[-1]) for t in dec2.terms]
    slack1 = profiles.energy_ledger(dec1).slack
    slack2 = profiles.energy_ledger(dec2).slack
    res.check("1term.count", len(dec1.terms) == 1, f"{len(dec1.terms)} terms")
    res.check("1term.h1_err", err1 <= 0.05, f"{err1:.4f} <= 0.05")
    res.check("1term.slack", 0.0 <= slack1 <= 0.02, f"{slack1:.4f} in [0, 0.02]")
    res.check("1term.remainder", dec1.remainder_expl2[-1] <= 0.05,
              f"{dec1.remainder_expl2[-1]:.4f} <= 0.05")
    res.check("2term.count", len(dec2.terms) == 2, f"{len(dec2.terms)} terms")
    res.check("2term.orthogonal",
              len(dec2.terms) == 2 and profiles.orthogonality_check(*dec2.terms))
    res.check("2term.h1_err", max(errs2, default=9.9) <= 0.05,
              f"{[round(e, 4) for e in errs2]} <= 0.05")
    res.check("2term.slack", 0.0 <= slack2 <= 0.02, f"{slack2:.4f} in [0, 0.02]")
    res.check("2term.remainder", dec2.remainder_expl2[-1] <= 0.05,
              f"{dec2.remainder_expl2[-1]:.4f} <= 0.05")
    res.check("term_energies",
              all(abs(t.energy() - 1.0) <= 0.1 for t in dec1.terms + dec2.terms))
    res.accuracy_err = max([err1] + errs2)
    res.digest = _digest(_decomposition_parts(dec1) + _decomposition_parts(dec2))
    return res


# -- dislocation: test_06 deflation sweep and two dweak_test calls -----------------

_JS = (1, 2, 4, 8, 16, 32)


def _nonradial_test_function(grid):
    prof = radial.RadialProfile.from_arrays(
        [0.0, 0.72, 1.1, 1.7, 2.4, 3.2], [0.0, 0.0, 0.7, 1.0, 0.35, 0.0], 2
    )
    prof = radial.scale(prof, 1.0 / radial.grad_norm(prof, 2))
    base = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
    thetas = disc._thetas(grid)
    rings = base.rings * (1.0 + 0.35 * np.cos(2 * thetas) + 0.2 * np.sin(3 * thetas))[None, :]
    return disc.DiscFunction(grid, base.center, rings, base.support_radius)


def dislocation_setup(seed: int) -> dict:
    grid = disc.PolarGrid(n_r=512, n_theta=192, s_max=8.0)
    rng = np.random.default_rng(DISLOCATION_SEED + seed)
    centers = [complex(*rng.uniform(-0.25, 0.25, 2)) for _ in _JS]
    moser = seqgen.moser_sequence(
        [math.exp(-k) for k in range(1, 7)], [0.1 + 0.05j] * 6
    )
    return {"u": _nonradial_test_function(grid), "centers": centers,
            "moser": moser, "counterexample": seqgen.counterexample_sequence(12),
            "seeds": [DISLOCATION_SEED + seed],
            # the largest deflated array of the sweep: n_r x (n_theta * 32)
            "state_array_bytes": grid.n_r * grid.n_theta * max(_JS) * 8}


def dislocation_run(inp: dict, scratch: str) -> PassResult:
    res = PassResult()
    u = inp["u"]
    e0 = disc.energy(u)
    ratios = []
    for j, zeta in zip(_JS, inp["centers"]):
        w = disc.deflate(u, disc.DislocationParam(j, zeta))
        ratios.append(disc.energy(w) / e0)
        res.check(f"isometry.j{j}", 0.98 <= ratios[-1] <= 1.02,
                  f"{ratios[-1]:.4f} in [0.98, 1.02]")
    rep_m = profiles.dweak_test(inp["moser"], j_max=12)
    rep_c = profiles.dweak_test(inp["counterexample"], j_max=12)
    res.check("dweak.moser", rep_m.verdict == "non-vanishing", rep_m.verdict)
    res.check("dweak.counterexample", rep_c.verdict == "dweak-null-evidence", rep_c.verdict)
    res.accuracy_err = max(abs(r - 1.0) for r in ratios)
    res.digest = _digest([ratios, rep_m.per_member, rep_m.witness, rep_m.verdict,
                          rep_c.per_member, rep_c.witness, rep_c.verdict])
    return res


# -- cli: six commands in process, output in a fresh directory ---------------------

CLI_L_VALUES = (5.0, 10.0, 20.0, 25.0, 40.0, 50.0, 80.0)


def cli_setup(seed: int) -> dict:
    # the superposition cli default grid: 384 x 384
    return {"seed": CLI_SEED + seed, "seeds": [CLI_SEED + seed],
            "state_array_bytes": 384 * 384 * 8}


def cli_commands(seed: int, out: str) -> list:
    seq = os.path.join(out, "seq")
    return [
        ["generate", "--kind", "superposition", "--seed", str(seed), "--out", seq],
        ["decompose", "--manifest", os.path.join(seq, "manifest.json"),
         "--out", os.path.join(out, "dec")],
        ["norms", "--input", os.path.join(seq, "member_0006.json"),
         "--out", os.path.join(out, "norms")],
        ["counterexample", "--k-max", "64", "--out", os.path.join(out, "ce")],
        ["moser-limit", "--l-values", ",".join(f"{L:g}" for L in CLI_L_VALUES),
         "--out", os.path.join(out, "ml")],
        ["verify", "--out", os.path.join(out, "verify")],
    ]


def _output_digest(out: str) -> str:
    """Digest of every output file; CSV timestamp comments are left out."""
    parts = []
    for root, dirs, files in os.walk(out):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                data = fh.read()
            if name.endswith(".csv"):
                data = b"\n".join(l for l in data.split(b"\n") if not l.startswith(b"#"))
            parts += [os.path.relpath(path, out), data]
    return _digest(parts)


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cli_run(inp: dict, scratch: str) -> PassResult:
    res = PassResult()
    for argv in cli_commands(inp["seed"], scratch):
        code = cli.main(argv)
        res.check(f"exit.{argv[0]}", code == 0, f"exit code {code}")
    two_pi = 2.0 * math.pi

    rows = {r["L"]: r["j_direct"] for r in _load(os.path.join(scratch, "ml", "moser_limit.json"))}
    res.accuracy_err = max(abs(j - moser_oracle(L)) for L, j in rows.items())
    res.check("moser_limit.dawson", res.accuracy_err <= 1e-7, f"{res.accuracy_err:.1e} <= 1e-7")
    gaps = [abs(rows[L] - two_pi) for L in CLI_L_VALUES]
    res.check("moser_limit.gap_shrinks",
              all(b < a for a, b in zip(gaps, gaps[1:])) and gaps[5] <= 0.05 * two_pi)

    ce = _load(os.path.join(scratch, "ce", "counterexample.json"))
    energies = [r["grad_norm"] for r in ce]
    hardy = [r["hardy_weight"] for r in ce]
    scaled = [r["expl2"] * math.sqrt(r["k"]) for r in ce]
    half = [r["lz_inf_2_-0.5"] for r in ce]
    res.check("counterexample.energy_const", max(energies) - min(energies) <= 1e-10,
              f"{max(energies) - min(energies):.1e} <= 1e-10")
    res.check("counterexample.hardy_const", max(hardy) - min(hardy) <= 1e-10,
              f"{max(hardy) - min(hardy):.1e} <= 1e-10")
    res.check("counterexample.scale_stable",
              max(scaled) <= 1.5 * scaled[-1] and min(scaled) >= scaled[-1] / 1.5)
    res.check("counterexample.endpoint",
              all(math.isinf(q) for q in half) if math.isinf(half[0])
              else all(q >= 0.5 * half[0] for q in half))
    res.check("verify.report_ok", _load(os.path.join(scratch, "verify", "verify_report.json"))["ok"])
    res.digest = _output_digest(scratch)
    return res


WORKLOADS = {
    "extract": (extract_setup, extract_run),
    "dislocation": (dislocation_setup, dislocation_run),
    "cli": (cli_setup, cli_run),
}
