"""Batch experiment runner: every headline table is one command away.

Commands write both a CSV (human-diffable; first line is a timestamp comment
excluded from determinism comparisons) and a JSON document (structured, no
timestamps) into the output directory.  The options shared by every command
take their defaults from the packaged defaults.json; the generator parameters
(`_DEFAULT_PARAMS`) and the per-command defaults (`--l-values`, `--k-max`,
`--indices`, `--max-terms`) live in this module.  Flags override them;
`--grid-nr` and `--grid-ntheta`, when given, override the sizes of any
generator grid, a kind's default grid included; the counterexample, whose
members are radial profiles, rejects them.  Environment variables are never
read.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys
from importlib import resources

import numpy as np

from . import disc, functional, profiles, radial, rearrange, seqgen
from . import verify as verify_mod


def load_defaults() -> dict:
    with resources.files("moserlab").joinpath("defaults.json").open(
        encoding="utf-8"
    ) as fh:
        return json.load(fh)


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: str, header: list[str], rows: list) -> None:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    lines = [f"# generated: {stamp}", ",".join(header)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_table(out: str, name: str, header: list, rows: list, keys=None) -> None:
    """name.csv, and name.json with records keyed by `keys` or the header."""
    path = os.path.join(out, f"{name}.csv")
    write_csv(path, header, rows)
    write_json(
        os.path.join(out, f"{name}.json"),
        [dict(zip(keys or header, r)) for r in rows],
    )
    print(path)


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# -- commands -----------------------------------------------------------------

def cmd_verify(args) -> int:
    out = _outdir(args)
    if args.profile is not None:
        try:
            radial.load_profile(args.profile)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"profile validation failed: {exc}", file=sys.stderr)
            return 2
    report = verify_mod.run_all()
    write_json(os.path.join(out, "verify_report.json"), report)
    for name, suite in report["suites"].items():
        flag = "ok" if suite["ok"] else "FAIL"
        print(f"[{flag}] {name}")
        if not suite["ok"]:
            for c in suite["checks"]:
                if not c["ok"]:
                    print(f"    failing: {c['check']} {c['detail']}", file=sys.stderr)
    if not report["ok"]:
        first = next(
            c["check"]
            for s in report["suites"].values()
            for c in s["checks"]
            if not c["ok"]
        )
        print(f"verification failed at: {first}", file=sys.stderr)
        return 1
    return 0


def cmd_moser_limit(args) -> int:
    out = _outdir(args)
    l_values = [float(x) for x in args.l_values.split(",")]
    spec = functional.QuadratureSpec(rel_tol=args.rel_tol, abs_tol=args.abs_tol)
    rows = functional.moser_limit_experiment(l_values, spec)
    header = ["L", "s", "J_direct", "J_repr", "plateau", "ramp"]
    keys = ["L", "s", "j_direct", "j_repr", "plateau", "ramp"]
    table = [[getattr(r, k) for k in keys] for r in rows]
    _write_table(out, "moser_limit", header, table, keys)
    return 0


def cmd_counterexample(args) -> int:
    out = _outdir(args)
    seq = seqgen.counterexample_sequence(args.k_max)
    rows = []
    for k, m in zip(seq.k_list, seq.members):
        f = rearrange.rearrange_radial(m)
        rows.append(
            [
                k,
                radial.grad_norm(m),
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
    _write_table(out, "counterexample", header, rows)
    return 0


def _load_rearranged(path: str) -> rearrange.RearrangedFunction:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("unrecognized input file: not a JSON object")
    if "breakpoints" in doc:
        return rearrange.rearranged_from_dict(doc)
    if "rings" in doc:
        return rearrange.rearrange_disc(disc.disc_from_dict(doc))
    if "nodes" in doc:
        return rearrange.rearrange_radial(radial.profile_from_dict(doc))
    raise ValueError("unrecognized input file: expected a profile, disc sample or rearrangement")


def _parse_indices(spec: str) -> list[rearrange.LZIndex]:
    out = []
    for chunk in spec.split(";"):
        p, q, alpha = (x.strip() for x in chunk.split(","))
        out.append(
            rearrange.LZIndex(float(p), float(q), float(alpha))
        )
    return out


def cmd_norms(args) -> int:
    out = _outdir(args)
    f = _load_rearranged(args.input)
    rows = []
    for idx in _parse_indices(args.indices):
        val = rearrange.lz_quasinorm(f, idx)
        rows.append([idx.p, idx.q, idx.alpha, val, math.isinf(val)])
    header = ["p", "q", "alpha", "value", "diverged"]
    _write_table(out, "norms", header, rows)
    return 0


_DEFAULT_PARAMS = {
    "moser": {
        "s_values": [math.exp(-k) for k in range(1, 7)],
        "centers": [[0.0, 0.0]] * 6,
        "form": "translate",
    },
    "counterexample": {"k_max": 16},
    "vanishing": {
        "k_values": [1, 2, 4, 8],
        "bump_profile": {
            "n": 2,
            "nodes": [0.0, 0.8, 1.6, 2.4],
            "values": [0.0, 0.0, 1.0, 0.0],
        },
    },
    "superposition": {
        "noise_energy": 0.01,
        "terms": [
            {
                "profile": {
                    "n": 2,
                    "nodes": [0.0, 0.3, 0.525, 0.75, 0.975, 1.2],
                    "values": [0.0, 0.0, 0.3704, 0.7407, 0.9630, 1.0],
                },
                "j_track": [1, 1, 2, 2, 2, 3],
                "zeta_track": [[0.1, 0.05]] * 6,
            }
        ],
        "grid": {"n_r": 384, "n_theta": 384, "s_max": 4.5},
    },
}


def cmd_generate(args) -> int:
    out = _outdir(args)
    if args.params is not None:
        with open(args.params, encoding="utf-8") as fh:
            params = json.load(fh)
        if not isinstance(params, dict):
            raise ValueError(f"malformed {args.kind} parameters: not a JSON object")
    else:
        params = json.loads(json.dumps(_DEFAULT_PARAMS[args.kind]))
    if args.kind == "counterexample":
        if "grid" in params or args.grid_nr is not None or args.grid_ntheta is not None:
            raise ValueError("counterexample members are radial profiles and take no grid")
    else:
        d = load_defaults()
        grid = params.setdefault(
            "grid", {"n_r": d["grid_nr"], "n_theta": d["grid_ntheta"], "s_max": d["s_max"]}
        )
        # explicit grid flags override the sizes of any grid
        given = {k: v for k, v in (("n_r", args.grid_nr), ("n_theta", args.grid_ntheta))
                 if v is not None}
        if given:
            if not isinstance(grid, dict):
                raise ValueError(f"malformed {args.kind} parameters: 'grid' is not an object")
            grid.update(given)
    if args.kind == "superposition":
        terms = params.get("terms", [])
        if not isinstance(terms, list) or not all(isinstance(t, dict) for t in terms):
            raise ValueError(
                "malformed superposition parameters: 'terms' is not a list of objects"
            )
        for t in terms:
            if "profile" not in t:
                raise ValueError("malformed superposition parameters: 'profile'")
            prof = radial.profile_from_dict(t["profile"])
            prof = radial.scale(prof, 1.0 / radial.grad_norm(prof))
            t["profile"] = radial.profile_to_dict(prof)
    spec = seqgen.GeneratorSpec(args.kind, params, seed=args.seed)
    seq, manifest = seqgen.build_sequence(spec)
    path = seqgen.save_sequence(seq, out, manifest)
    print(path)
    return 0


def cmd_decompose(args) -> int:
    out = _outdir(args)
    seq = seqgen.load_sequence(args.manifest)
    if not seq.is_disc():
        print("decompose expects disc-sampled members", file=sys.stderr)
        return 2
    dec = profiles.extract(
        seq, eps_stop=args.eps_stop, max_terms=args.max_terms, j_max=args.j_max
    )
    term_docs = []
    for i, t in enumerate(dec.terms):
        ref = f"term_{i:02d}.json"
        radial.save_profile(t.w, os.path.join(out, ref))
        term_docs.append(t.to_dict(profile=ref))
    doc = {
        "status": dec.status,
        "terms": term_docs,
        "remainder_expl2": list(dec.remainder_expl2),
        "energy_ledger": dataclasses.asdict(profiles.energy_ledger(dec)),
    }
    write_json(os.path.join(out, "decomposition.json"), doc)
    rows = [
        [i, t["energy"], t["j_track"][-1], t["zeta_track"][-1][0], t["zeta_track"][-1][1]]
        for i, t in enumerate(term_docs)
    ]
    write_csv(
        os.path.join(out, "decomposition.csv"),
        ["term", "energy", "j_last", "zeta_re", "zeta_im"],
        rows,
    )
    write_csv(
        os.path.join(out, "remainder.csv"),
        ["k", "expl2"],
        [[k, r] for k, r in zip(seq.k_list, dec.remainder_expl2)],
    )
    print(os.path.join(out, "decomposition.json"))
    return 0


# -- argument wiring -------------------------------------------------------------

def build_parser(defaults: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moserlab",
        description="numerical experiments around concentration in the planar "
        "exponential-growth functional",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--seed", type=int, default=defaults["seed"])
    # None: the kind's grid, or the defaults.json sizes for a kind without one
    common.add_argument("--grid-nr", type=int, default=None)
    common.add_argument("--grid-ntheta", type=int, default=None)
    common.add_argument("--rel-tol", type=float, default=defaults["rel_tol"])
    common.add_argument("--abs-tol", type=float, default=defaults["abs_tol"])
    common.add_argument("--eps-stop", type=float, default=defaults["eps_stop"])
    common.add_argument("--j-max", type=int, default=defaults["j_max"])

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common], help="run all invariant suites")
    p.add_argument("--profile", default=None, help="also validate a profile file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("moser-limit", parents=[common])
    p.add_argument("--l-values", default="5,10,20,40")
    p.set_defaults(fn=cmd_moser_limit)

    p = sub.add_parser("counterexample", parents=[common])
    p.add_argument("--k-max", type=int, default=32)
    p.set_defaults(fn=cmd_counterexample)

    p = sub.add_parser("norms", parents=[common])
    p.add_argument("--input", required=True)
    p.add_argument("--indices", default="inf,inf,-0.5;inf,2,-1;inf,2,-0.5")
    p.set_defaults(fn=cmd_norms)

    p = sub.add_parser("generate", parents=[common])
    p.add_argument("--kind", required=True, choices=sorted(_DEFAULT_PARAMS))
    p.add_argument("--params", default=None, help="JSON file with generator params")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("decompose", parents=[common])
    p.add_argument("--manifest", required=True)
    p.add_argument("--max-terms", type=int, default=4)
    p.set_defaults(fn=cmd_decompose)
    return parser


def main(argv=None) -> int:
    defaults = load_defaults()
    parser = build_parser(defaults)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, ArithmeticError, RuntimeError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
