"""The Dirichlet form of disc functions, pinned bit for bit by golden values.

The golden file holds `float.hex` of `energy`, `grad_inner` in both argument
orders and `max_pairing` against `make_probes` sets, on seeded `random_disc`
functions of symmetry orders 1, 2 and 4 and on deflations of them.  The
values were recorded with the form that differenced both operands on every
call, before each operand was factored once; every bit must be unchanged.
Regenerate it (only for a deliberate behaviour change, named in CHANGES.md)
with

    PYTHONPATH=src:tests python tests/test_disc_golden.py > tests/golden/disc_form.json
"""

import json
from pathlib import Path

import pytest

from moserlab import disc
from test_kernels import GRIDS, random_disc

GOLDEN = Path(__file__).parent / "golden" / "disc_form.json"
ORDERS = (1, 2, 4)  # all divide the n_theta of GRIDS
SEEDS = (0, 1, 2)
PROBE_COUNTS = (6, 8)
DEFLATIONS = ((1, 0.1 - 0.05j), (2, 0.0), (2, -0.2 + 0.1j), (4, 0.15j))
FUNCTIONS = ("energy", "grad_inner", "max_pairing")


def _block(grid, seed: int, order: int) -> disc.DiscFunction:
    """The first n_theta/order columns of random_disc(grid, seed), as an order-`order` block."""
    u = random_disc(grid, seed)
    return disc.DiscFunction(grid, u.center, u.rings[:, : grid.n_theta // order], order=order)


def _inputs() -> dict:
    """{name: disc function}: the blocks and their deflations."""
    out = {}
    for name, grid in sorted(GRIDS.items()):
        for order in ORDERS:
            for seed in SEEDS:
                out[f"{name}/order={order}/seed={seed}"] = _block(grid, seed, order)
        for seed in SEEDS:
            for j, zeta in DEFLATIONS:
                w = disc.deflate(random_disc(grid, seed), disc.DislocationParam(j, zeta))
                out[f"{name}/deflate/j={j}/zeta={zeta}/seed={seed}"] = w
    return out


def _values() -> dict:
    """{function: {input: list of floats}} of every golden value."""
    inputs = _inputs()
    names = sorted(inputs)
    # pairs of one grid and one order: the seeds of each family taken cyclically
    pairs = []
    for a in names:
        family = a.rsplit("/seed=", 1)[0]
        mates = [b for b in names if b.rsplit("/seed=", 1)[0] == family]
        pairs.append((a, mates[(mates.index(a) + 1) % len(mates)]))
    probes = {}
    for u in inputs.values():
        for count in PROBE_COUNTS:
            key = (u.grid, u.order, count)
            if key not in probes:
                probes[key] = disc.make_probes(u.grid, count, u.order)
    return {
        "energy": {k: [disc.energy(inputs[k])] for k in names},
        "grad_inner": {
            f"{a}|{b}": [disc.grad_inner(inputs[a], inputs[b]),
                         disc.grad_inner(inputs[b], inputs[a])]
            for a, b in pairs
        },
        "max_pairing": {
            k: [disc.max_pairing(inputs[k], probes[inputs[k].grid, inputs[k].order, count])
                for count in PROBE_COUNTS]
            for k in names
        },
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
def test_form_values_match_golden(golden, hexed, func):
    assert hexed[func] == golden[func]


if __name__ == "__main__":
    print(json.dumps(_hexed(), indent=1, sort_keys=True))
