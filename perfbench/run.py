"""Benchmark of the moserlab package: one workload per invocation.

    python3 perfbench/run.py --workload extract --seed 0 --seconds 12 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a source checkout (the directory holding ``src/``).
Each workload runs in a fresh interpreter (worker.py) with BLAS and OpenMP
pinned to one thread.  With --trace 0 the last line of standard output is a
JSON object with the end-to-end metrics; with --trace 1 it carries the
per-layer metrics of a traced run.  The full record of the run (environment,
seeds, every sample, the checks and the output digest) is written under
perfbench/results/, and the spans of a traced run beside it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
RESULTS = HERE / "results"
WORKLOADS = ("extract", "dislocation", "cli")
SETUP_PROBES = 2  # set-up-only processes; the measuring process adds one sample
TIME_LIMIT_S = 170.0  # the whole invocation must end within 180 s


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], result: Path, deadline: float) -> dict:
    """Run worker.py to completion (killed at the deadline) and load its record."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--result", str(result), "--scratch", str(RESULTS)]
    subprocess.run(cmd, env=_child_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                   check=True, timeout=max(1.0, deadline - time.monotonic()))
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _setup_probe(args: list[str], result: Path, deadline: float) -> float:
    try:
        return _worker(args + ["--setup-only"], result, deadline)["setup_s"]
    finally:
        result.unlink(missing_ok=True)


def high_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11], "samples": n}


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def measure(workload: str, seed: int, seconds: float, trace: int, tag: str) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    setup_samples = []
    if not trace:
        for i in range(SETUP_PROBES):
            setup_samples.append(_setup_probe(common, RESULTS / f"{tag}-setup{i}.json", deadline))
    args = common + ["--trace", str(trace)]
    if trace:
        args += ["--spans", str(RESULTS / f"{tag}-spans.jsonl")]
    rec = _worker(args, RESULTS / f"{tag}.json", deadline)
    setup_samples.append(rec["setup_s"])
    rec["setup_samples"] = setup_samples
    rec["commit"] = _commit()
    caches = rec["environment"]["cache_bytes"]
    rec["working_set"] = {"state_array_bytes": rec["state_array_bytes"]}
    for level in ("L2", "L3"):
        if caches.get(level):
            rec["working_set"][f"state_over_{level}"] = rec["state_array_bytes"] / caches[level]
    rec["wall_s_high"] = high_percentile(rec["wall_s"])
    return rec


def result_line(rec: dict, trace: int) -> dict:
    if trace:
        values = rec["layers"]
        units = {k: u for k, (u, _) in metrics.PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(rec["wall_s"]),
            "setup_s": statistics.median(rec["setup_samples"]),
            "peak_rss_mb": rec["peak_rss_mb"],
            "accuracy_err": rec["accuracy_err"],
        }
        units = {k: u for k, (u, _, _) in metrics.END_TO_END.items()}
    out = {}
    for name, unit in units.items():
        v = values.get(name)
        if v is None or not math.isfinite(v):
            v = 0.0
        out[name] = {"value": v, "unit": unit}
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": out}


def self_test(workload: str) -> int:
    """The metric tables agree with BENCHMARK.json; two traced runs of one seed give
    identical work counts and output digests."""
    ok = True
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
            listed = [(m.pop("name"), tuple(m.values())) for m in spec[key]]
            same = listed == list(table.items())
            print(f"{'ok' if same else 'FAIL'}: BENCHMARK.json {key} matches metrics.py")
            ok &= same
    recs = [measure(workload, 0, 0, 1, f"selftest-{workload}-{i}") for i in range(2)]
    counts = [
        {k: v for k, v in r["layers"].items()
         if metrics.PER_LAYER[k][0] != "s"}
        for r in recs
    ]
    same = counts[0] == counts[1]
    print(f"{'ok' if same else 'FAIL'}: {len(counts[0])} work counts repeat between two runs")
    ok &= same
    same = recs[0]["digest"] == recs[1]["digest"] and recs[0]["digest"] is not None
    print(f"{'ok' if same else 'FAIL'}: output digest repeats ({recs[0]['digest']})")
    ok &= same
    checks = all(r["failed"] == 0 for r in recs)
    print(f"{'ok' if checks else 'FAIL'}: every output check passes")
    return 0 if ok and checks else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, default="cli")
    p.add_argument("--seed", type=int, default=0,
                   help="0 reproduces the acceptance-test inputs; n shifts every generator seed by n")
    p.add_argument("--seconds", type=float, default=12.0,
                   help="time spent in timed passes (two passes at least)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "moserlab" / "__init__.py").is_file():
        print(f"run.py: no moserlab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    # compile once, so that no timed import pays for byte-compilation
    compileall.compile_dir(str(ROOT / "src" / "moserlab"), quiet=1)
    if args.self_test:
        return self_test(args.workload)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    try:
        rec = measure(args.workload, args.seed, args.seconds, args.trace, tag)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"run.py: workload {args.workload} did not complete: {exc}", file=sys.stderr)
        return 1
    line = result_line(rec, args.trace)
    rec["result"] = line
    with open(RESULTS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)

    walls = rec["wall_s"]
    print(f"{args.workload} seed {args.seed} (inputs {rec['inputs_seeds']}), commit {rec['commit']}")
    print(f"  wall_s median {statistics.median(walls):.3f} s over {len(walls)} untraced passes; "
          f"high percentile: {rec['wall_s_high'] or 'none (fewer than 11 samples)'}")
    print(f"  checks {rec['attempted'] - rec['failed']}/{rec['attempted']} passed; digest {rec['digest']}")
    ws, env = rec["working_set"], rec["environment"]
    ratios = ", ".join(f"{v:.3g} x {k[-2:]}" for k, v in ws.items() if k.startswith("state_over"))
    print(f"  state array {ws['state_array_bytes']} B ({ratios}); {env['cpu_model']}, "
          f"nproc {env['nproc']}, {env['process_threads']} threads, caches {env['cache_bytes']}")
    for name, ok, detail in rec["failures"]:
        print(f"  FAILED {name}: {detail}")
    print(f"  record: {RESULTS / (tag + '.json')}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
