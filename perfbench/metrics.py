"""Names, units and sources of the metrics the benchmark prints.

BENCHMARK.json repeats these lists; ``run.py --self-test`` checks that the
two agree.  Per-layer figures cover one set-up plus one traced pass: counts
are those of the set-up and of the first traced pass, self times those of
the set-up plus the median over the traced passes.
"""

from __future__ import annotations

import statistics

# name -> (unit, better, bound)
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
    "accuracy_err": ("1", "lower", 0.25),
}

COMBINE = ("disc.add", "disc.subtract_disc", "disc.scale_disc")
CLI_COMMANDS = ("generate", "decompose", "norms", "counterexample", "moser_limit", "verify")

# metric -> (spans summed, field); field "calls", "self_s" or a count name
LAYERS: dict = {}


def _layer(label: str, *fields: str, spans=None) -> None:
    for f in fields:
        LAYERS[f"{label}.{f}"] = (spans or (label,), "calls" if f == "constructions" else f)


_layer("disc.energy", "calls", "self_s", "cells")
_layer("disc.grad_inner", "calls", "self_s")
_layer("disc.deflate", "calls", "self_s", "out_cells", "errors")
_layer("disc.inflate", "calls", "self_s", "cells", "errors")
_layer("disc.interpolate", "calls", "self_s", "points")
_layer("disc.average_many", "calls", "self_s", "points")
_layer("disc.concentration_detect", "calls", "self_s", "candidates")
_layer("disc.angular_profile_around", "calls", "self_s")
_layer("disc.make_probes", "calls", "self_s")
_layer("disc.combine", "calls", "self_s", spans=COMBINE)
_layer("disc.DiscFunction", "constructions", "self_s")
_layer("rearrange.rearrange_disc", "calls", "self_s", "cells")
_layer("rearrange.expl2_quasinorm", "calls", "self_s")
_layer("rearrange.rearrange_radial", "calls", "self_s", "breakpoints")
_layer("rearrange.lz_quasinorm", "calls", "self_s", "pieces")
_layer("radial.h1_inner", "calls", "self_s")
_layer("radial.gauge_apply", "calls", "self_s")
_layer("radial.value_at", "calls", "self_s")
_layer("functional.j_direct", "calls", "self_s")
_layer("functional.j_representation", "calls", "self_s")
_layer("profiles.extract", "self_s")
LAYERS["profiles.terms"] = (("profiles.extract",), "terms")
_layer("profiles.dweak_test", "self_s")
_layer("seqgen.synthetic_superposition", "self_s")
_layer("seqgen.moser_sequence", "self_s")
_layer("seqgen.save_sequence", "self_s", "bytes")
_layer("seqgen.load_sequence", "self_s", "bytes")
for _cmd in CLI_COMMANDS:
    LAYERS[f"cli.{_cmd}.self_s"] = ((f"cli.cmd_{_cmd}",), "self_s")
_layer("cli.write_json", "calls", "self_s", "bytes")

# how each count is obtained, recorded with every traced result
COUNT_LABELS = {
    "calls": "counted at the span",
    "cells": "computed: size of the sample array",
    "out_cells": "computed: size of the returned sample array",
    "points": "computed: number of evaluation points (interpolate) or ball centers (average_many)",
    "candidates": "counted: length of the returned candidate list",
    "breakpoints": "computed: breakpoints of the returned rearrangement",
    "pieces": "computed: breakpoints of the input rearrangement",
    "terms": "counted: terms of the returned decomposition",
    "errors": "counted: exceptions leaving the span",
    "bytes": "computed: 8 bytes per disc sample (sequences); size of the file written (write_json)",
}


def _unit(field: str) -> tuple[str, str]:
    if field == "self_s":
        return "s", "lower"
    if field == "bytes":
        return "bytes", "lower"
    if field == "terms":
        return "count", "higher"
    return "count", "lower"


PER_LAYER = {name: _unit(field) for name, (_, field) in LAYERS.items()}
PER_LAYER["profiles.candidate_yield"] = ("ratio", "higher")
PER_LAYER["trace.overhead_s"] = ("s", "lower")


def layer_values(setup: dict, passes: list[dict]) -> dict:
    """Per-layer metrics from the span totals ({span: {field: value}}) of the
    set-up and of each traced pass; trace.overhead_s is added by the caller."""

    def total(run: dict, spans, field) -> float:
        return sum(run.get(s, {}).get(field, 0) for s in spans)

    out = {}
    for name, (spans, field) in LAYERS.items():
        rest = (
            statistics.median(total(p, spans, field) for p in passes)
            if field == "self_s"
            else total(passes[0], spans, field)
        )
        out[name] = total(setup, spans, field) + rest
    cands = sum(total(run, ("profiles.extract",), "candidates") for run in (setup, passes[0]))
    out["profiles.candidate_yield"] = out["profiles.terms"] / cands if cands else 0.0
    return out
