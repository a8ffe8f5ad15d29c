"""Spans around the public functions of every moserlab module.

The tracer wraps functions from outside the package, so no file under
``src/`` changes.  A name bound into another module by ``from .x import f``
is a second reference to the same function; every module attribute that is
the original function is replaced by its wrapper, or spans would miss the
hot path (``profiles`` calls ``expl2_quasinorm`` and ``rearrange_disc`` that
way).  Methods are patched on their class, and ``cli.build_parser`` reads the
``cmd_*`` globals at call time, so the patched commands are the ones run.

Spans are kept in memory as (name, start, end, parent index, run id) and
written out by ``write_spans``.  Self time is a span's duration minus the
durations of its direct children.  Work counts are computed from the shapes
of arguments and results, never from timing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("radial", "functional", "rearrange", "disc", "profiles", "seqgen", "verify", "cli")

# (module, class, method) -> span name
METHODS = {
    ("disc", "DiscFunction", "interpolate"): "disc.interpolate",
    ("disc", "DiscFunction", "__post_init__"): "disc.DiscFunction",
    ("radial", "RadialProfile", "value_at"): "radial.value_at",
}


def _rings_size(u) -> int:
    return int(u.rings.size)


def _member_bytes(seq) -> int:
    # float64 payload of the disc members, computed from their shapes
    return sum(int(m.rings.size) * 8 for m in seq.members if hasattr(m, "rings"))


# span name -> function(args, kwargs, result) -> {count name: value}
COUNTERS = {
    "disc.energy": lambda a, k, r: {"cells": _rings_size(a[0])},
    "disc.deflate": lambda a, k, r: {"out_cells": _rings_size(r)},
    "disc.inflate": lambda a, k, r: {"cells": _rings_size(r)},
    "disc.interpolate": lambda a, k, r: {"points": int(np.size(a[1] if len(a) > 1 else k["z"]))},
    "disc.average_many": lambda a, k, r: {"points": int(np.size(a[2] if len(a) > 2 else k["zs"]))},
    "disc.concentration_detect": lambda a, k, r: {"candidates": len(r)},
    "rearrange.rearrange_disc": lambda a, k, r: {"cells": _rings_size(a[0])},
    "rearrange.rearrange_radial": lambda a, k, r: {"breakpoints": int(r.breakpoints.size)},
    "rearrange.lz_quasinorm": lambda a, k, r: {"pieces": int(a[0].breakpoints.size)},
    "profiles.extract": lambda a, k, r: {"terms": len(r.terms)},
    "seqgen.save_sequence": lambda a, k, r: {"bytes": _member_bytes(a[0])},
    "seqgen.load_sequence": lambda a, k, r: {"bytes": _member_bytes(r)},
    "cli.write_json": lambda a, k, r: {"bytes": os.path.getsize(a[0] if a else k["path"])},
}


class Tracer:
    """Installs span wrappers on the moserlab package and collects spans."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, run id]
        self.stack: list = []  # [span index, child time, name]
        self.run_id = "setup"
        self.calls = defaultdict(int)  # (run, name) -> calls
        self.self_s = defaultdict(float)  # (run, name) -> self time
        self.counts = defaultdict(int)  # (run, name, count) -> value
        self._patches: list = []  # (owner, attribute, original)

    # -- spans -------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.spans)
            rec = [name, 0.0, 0.0, stack[-1][0] if stack else -1, tracer.run_id]
            tracer.spans.append(rec)
            frame = [idx, 0.0, name]
            stack.append(frame)
            failed = True
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = perf_counter()
                rec[2] = end
                stack.pop()
                dur = end - rec[1]
                if stack:
                    stack[-1][1] += dur
                key = (rec[4], name)
                tracer.calls[key] += 1
                tracer.self_s[key] += dur - frame[1]
                if failed:
                    tracer.counts[(rec[4], name, "errors")] += 1
            if counter is not None:
                for cname, val in counter(args, kwargs, result).items():
                    tracer.counts[(rec[4], name, cname)] += val
            if name == "disc.concentration_detect" and any(
                f[2] == "profiles.extract" for f in stack
            ):
                tracer.counts[(rec[4], "profiles.extract", "candidates")] += len(result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"moserlab.{m}") for m in MODULES}
        package = importlib.import_module("moserlab")
        wrappers = {}  # id(original) -> wrapper
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{mname}.{attr}", obj))
        # every binding of an original, in any module, is replaced
        for mod in [package, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        for (mname, cname, meth), span in METHODS.items():
            cls = getattr(mods[mname], cname)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(span, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------------

    def run_totals(self, run: str) -> dict:
        """{name: {"calls", "self_s", <counts>}} for one run id."""
        out: dict = defaultdict(dict)
        for (r, name), n in self.calls.items():
            if r == run:
                out[name]["calls"] = n
                out[name]["self_s"] = self.self_s[(r, name)]
        for (r, name, cname), val in self.counts.items():
            if r == run:
                out[name][cname] = val
        return dict(out)

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
