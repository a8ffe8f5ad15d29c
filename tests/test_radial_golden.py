"""The planar radial calculus, pinned bit for bit by golden values.

The golden file holds `float.hex` of every float that the radial formulas
return on fixed inputs: seeded `random_profile`s and the Moser family.  The
values were recorded with the dimension-generic code, before the formulas
were written for the plane only; every bit must be unchanged.  A golden
value must not depend on the CPU: these also hold with numpy's dispatch
limited to AVX2 (`NPY_ENABLE_CPU_FEATURES=X86_V3`, as in CI) and with
OpenBLAS's Sandybridge or Haswell kernel.  A BLAS product such as
`profiles._dilation_pairings` does not, so it is checked by an in-process
comparison instead (`test_hot_path.py`).  Regenerate the file (only for a
deliberate behaviour change, named in CHANGES.md) with

    PYTHONPATH=src:tests python tests/test_radial_golden.py > tests/golden/radial.json
"""

import json
from pathlib import Path

import numpy as np
import pytest

from moserlab import functional, radial

GOLDEN = Path(__file__).parent / "golden" / "radial.json"
MOSER_L = (0.5, 1.0, 2.5, 5.0, 25.0)
ANNULAR = ((1.0, 0.3), (2.5, 0.7), (5.0, 1.9))
DILATIONS = (0.37, 2.0, 7.5)
PAIRING_T = (0.3, 1.1, 2.9, 4.5)
FUNCTIONS = (
    "moser_from_exponent", "moser_annular", "grad_norm", "gauge_apply", "pairing_mstar",
    "pairing_mstar_integral", "pointwise_bound_margin", "h1_inner", "j_direct",
    "j_representation",
)


def _random_profiles() -> dict:
    out = {}
    for seed in range(6):
        rng = np.random.default_rng(seed)
        out[f"random/seed={seed}"] = radial.random_profile(rng)
        out[f"random/seed={seed}/normalized"] = radial.random_profile(rng, normalized=True)
        out[f"random/seed={seed}/nonnegative"] = radial.random_profile(
            rng, segments=9, t_max=4.0, nonnegative=True
        )
    return out


def _inputs() -> dict:
    """{name: profile}: the random profiles and the Moser family."""
    out = _random_profiles()
    out.update({f"moser/L={L}": radial.moser_from_exponent(L) for L in MOSER_L})
    out.update({f"annular/L={L}/t={t}": radial.moser_annular(L, t) for L, t in ANNULAR})
    return out


def _floats(x) -> list:
    return [float(v) for v in np.ravel(x)]


def _pl(u) -> list:
    return _floats(np.concatenate([u.nodes, u.values]))


def _values() -> dict:
    """{function: {input: list of floats}} of every golden value."""
    inputs = _inputs()
    names = sorted(inputs)
    pairs = list(zip(names, names[1:] + names[:1]))
    # J needs the subcritical regime: unit-norm random profiles and the ramps
    subcritical = [k for k in names if k.endswith("/normalized") or not k.startswith("random/")]
    return {
        "moser_from_exponent": {
            f"L={L}": _pl(radial.moser_from_exponent(L)) for L in MOSER_L
        },
        "moser_annular": {
            f"L={L}/t={t}": _pl(radial.moser_annular(L, t)) for L, t in ANNULAR
        },
        "grad_norm": {k: [radial.grad_norm(inputs[k])] for k in names},
        "gauge_apply": {
            k: sum((_pl(radial.gauge_apply(inputs[k], s)) for s in DILATIONS), [])
            for k in names
        },
        "pairing_mstar": {
            k: [radial.pairing_mstar(inputs[k], t) for t in PAIRING_T] for k in names
        },
        "pairing_mstar_integral": {
            k: [radial.pairing_mstar_integral(inputs[k], t) for t in PAIRING_T] for k in names
        },
        "pointwise_bound_margin": {
            k: [radial.pointwise_bound_margin(inputs[k])] for k in names
        },
        "h1_inner": {f"{a}|{b}": [radial.h1_inner(inputs[a], inputs[b])] for a, b in pairs},
        "j_direct": {k: [functional.j_direct(inputs[k])] for k in subcritical},
        "j_representation": {k: [functional.j_representation(inputs[k])] for k in subcritical},
    }


def _hexed() -> dict:
    return {
        func: {k: [float.hex(v) for v in vals] for k, vals in table.items()}
        for func, table in _values().items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def hexed():
    return _hexed()


def test_golden_file_covers_every_function(golden, hexed):
    assert set(golden) == set(hexed) == set(FUNCTIONS)


@pytest.mark.parametrize("func", FUNCTIONS)
def test_radial_values_match_golden(golden, hexed, func):
    assert hexed[func] == golden[func]


if __name__ == "__main__":
    print(json.dumps(_hexed(), indent=1, sort_keys=True))
