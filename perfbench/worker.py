"""One workload in a fresh interpreter; started by run.py, not by hand.

Times the set-up (import of moserlab plus input construction), then runs
timed passes until --seconds have been spent, checks every pass and writes
one JSON record to --result.  With --trace 1 the passes alternate untraced
and traced, so the record holds both the per-layer totals and the tracing
overhead.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

MIN_PASSES = 2


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cache_bytes(text: str) -> int:
    units = {"K": 1024, "M": 1024**2, "G": 1024**3}
    return int(text[:-1]) * units[text[-1]] if text and text[-1] in units else int(text or 0)


def environment() -> dict:
    import numpy
    import scipy

    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level, kind = _read(f"{base}/{idx}/level"), _read(f"{base}/{idx}/type")
        if level and kind != "Instruction":
            caches[f"L{level}"] = _cache_bytes(_read(f"{base}/{idx}/size"))
    model = next(
        (l.split(":", 1)[1].strip() for l in _read("/proc/cpuinfo").splitlines()
         if l.startswith("model name")),
        platform.processor(),
    )
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = next(
        (int(l.split()[1]) for l in _read("/proc/self/status").splitlines()
         if l.startswith("Threads:")),
        None,
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "cache_bytes": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": threads,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--result", required=True)
    p.add_argument("--scratch", required=True)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    import workloads
    from tracing import Tracer

    setup, run = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    inputs = setup(args.seed)
    setup_s = time.perf_counter() - _T0
    if tracer:
        tracer.uninstall()
    record = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if args.setup_only:
        _write(args.result, record)
        return 0

    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and len(passes) % 2 == 1
        if traced:
            tracer.run_id = f"pass{len(passes)}"
            tracer.install()
        scratch = tempfile.mkdtemp(dir=args.scratch)
        t, cpu = time.perf_counter(), time.process_time()
        try:
            res, error = run(inputs, scratch), None
        except Exception:  # a failing pass is reported, not fatal
            res, error = None, traceback.format_exc()
        wall, cpu = time.perf_counter() - t, time.process_time() - cpu
        if traced:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)
        passes.append({"traced": traced, "wall_s": wall, "cpu_s": cpu, "error": error,
                       "checks": res.checks if res else [],
                       "accuracy_err": res.accuracy_err if res else None,
                       "digest": res.digest if res else None})
        if error:
            break
        # at least two passes, so that a median is never a single sample
        if time.perf_counter() - start >= args.seconds and len(passes) >= MIN_PASSES:
            break

    checks = [c for ps in passes for c in ps["checks"]]
    checks += [("exception", False, ps["error"]) for ps in passes if ps["error"]]
    digests = [ps["digest"] for ps in passes if ps["digest"]]
    checks += [("digest.repeat", d == digests[0], d) for d in digests[1:]]
    untraced = [ps["wall_s"] for ps in passes if not ps["traced"]]
    record.update({
        "inputs_seeds": inputs["seeds"],
        "passes": passes,
        "attempted": len(checks),
        "failed": sum(1 for c in checks if not c[1]),
        "failures": [c for c in checks if not c[1]],
        "wall_s": untraced,
        "accuracy_err": max((ps["accuracy_err"] for ps in passes if ps["accuracy_err"] is not None),
                            default=None),
        "digest": digests[0] if digests else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "state_array_bytes": inputs["state_array_bytes"],
        "environment": environment(),
    })
    if tracer:
        import metrics

        traced_walls = [ps["wall_s"] for ps in passes if ps["traced"]]
        traced_runs = [tracer.run_totals(f"pass{i}") for i, ps in enumerate(passes) if ps["traced"]]
        # a run that failed before its first traced pass reports set-up spans only
        layers = metrics.layer_values(tracer.run_totals("setup"), traced_runs or [{}])
        layers["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(untraced) if traced_walls else 0.0
        )
        record["layers"] = layers
        record["count_labels"] = metrics.COUNT_LABELS
        record["span_count"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)
    _write(args.result, record)
    return 0


def _write(path: str, record: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


if __name__ == "__main__":
    sys.exit(main())
