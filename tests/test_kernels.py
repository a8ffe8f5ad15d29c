"""The disc-layer kernels against the formulas they replaced, plus properties.

The Dirichlet form is pinned to the closed energy formula and the
polarization identity, the reference oracles in conftest; the decay rules
to their statement in the test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import disc, functional, profiles, radial
from conftest import close_pairings, old_energy, old_grad_inner, pairing, rough_disc, seeds


# -- inputs ------------------------------------------------------------------------

GRIDS = {
    "geometric": disc.PolarGrid(n_r=96, n_theta=64, s_max=7.0),
    "shallow": disc.PolarGrid(n_r=96, n_theta=64, s_max=3.0),
}


def bubble(grid, j: int, zeta: complex) -> disc.DiscFunction:
    prof = radial.moser_annular(2.0, -math.log1p(-abs(zeta)))
    u = disc.inflate(prof, disc.DislocationParam(j, zeta), grid)
    rings = u.rings * (1.0 + 0.3 * np.cos(3 * disc._thetas(grid)))[None, :]
    return disc.DiscFunction(grid, u.center, rings, u.support_radius)


# -- equivalence with the replaced code ----------------------------------------------

@pytest.mark.parametrize("name", sorted(GRIDS))
def test_energy_matches_old_formula(name):
    grid = GRIDS[name]
    for u in (rough_disc(grid, 1), rough_disc(grid, 2), bubble(grid, 2, 0.1 - 0.2j)):
        ref = old_energy(u)
        assert abs(disc.energy(u) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grad_inner_matches_polarization(name):
    grid = GRIDS[name]
    funcs = [rough_disc(grid, 3), rough_disc(grid, 4), bubble(grid, 1, 0.2j),
             bubble(grid, 3, -0.15)]
    for u in funcs:
        for v in funcs:
            scale = old_energy(u) + old_energy(v)
            assert abs(pairing(u, v) - old_grad_inner(u, v)) <= 1e-12 * scale


pairing_lists = st.lists(
    st.one_of(
        st.floats(0.0, 10.0, allow_nan=False),
        st.sampled_from([0.0, 1e-13, 0.05, 0.1, 0.5, 1.0]),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(pairing_lists, st.floats(0.0, 2.0))
def test_tail_decayed_reproduces_both_old_rules(pairings, j_last):
    """The demos' rule (ratio 0.7, no floor, then J >= 0.1) and the
    dislocation-weak verdict (ratio 0.5, floor 0.05): the tail against the peak."""
    peak, tail = max(pairings), pairings[-1]
    falling = all(b < a for a, b in zip(pairings[-3:], pairings[-2:]))
    demo = tail <= 0.05 * peak or (tail <= max(0.7 * peak, 1e-12) and falling)
    dweak = tail <= max(0.05 * peak, 0.05) or (tail <= 0.5 * peak and falling)
    j_values = [0.0] * (len(pairings) - 1) + [j_last]
    expect = ("non-concentrating" if not demo
              else "moser-concentrating" if j_last >= 0.1 else "subcritical-vanishing")
    assert functional._classify(pairings, j_values) == expect
    assert functional.tail_decayed(pairings, 0.5, 0.05) == dweak


# -- properties of the bilinear form -------------------------------------------------

coeffs = st.floats(-4.0, 4.0, allow_nan=False)
grid_names = st.sampled_from(sorted(GRIDS))


@settings(max_examples=30, deadline=None)
@given(grid_names, seeds, seeds)
def test_form_is_symmetric(name, a, b):
    u, v = rough_disc(GRIDS[name], a), rough_disc(GRIDS[name], b)
    assert pairing(u, v) == pairing(v, u)


@settings(max_examples=30, deadline=None)
@given(grid_names, seeds, seeds, seeds, coeffs, coeffs)
def test_form_is_bilinear(name, a, b, c, x, y):
    grid = GRIDS[name]
    u, w, v = rough_disc(grid, a), rough_disc(grid, b), rough_disc(grid, c)
    lhs = pairing(disc.add(disc.scale_disc(u, x), disc.scale_disc(w, y)), v)
    rhs = x * pairing(u, v) + y * pairing(w, v)
    bound = (abs(x) * math.sqrt(disc.energy(u)) + abs(y) * math.sqrt(disc.energy(w)))
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + bound * math.sqrt(disc.energy(v)))


@settings(max_examples=30, deadline=None)
@given(grid_names, seeds)
def test_form_on_diagonal_is_the_energy(name, a):
    u = rough_disc(GRIDS[name], a)
    twin = disc.DiscFunction(u.grid, u.center, u.rings.copy())
    e = disc.energy(u)
    assert pairing(u, u) == e >= 0.0
    # each operand's differences taken on their own give the shared-operand energy, bit for bit
    assert pairing(u, twin) == e


@settings(max_examples=40, deadline=None)
@given(grid_names, st.sampled_from([1, 2, 4]), seeds, st.lists(seeds, min_size=1, max_size=8))
def test_a_probe_stack_pairs_as_stacks_of_one(name, order, a, bs):
    """P probes paired at once give, bit for bit, the values of P pairings with one."""
    u = rough_disc(GRIDS[name], a, order)
    probes = [rough_disc(GRIDS[name], b, order) for b in bs]
    stacked = disc._pair(u, probes)
    ones = np.concatenate([disc._pair(u, [phi]) for phi in probes])
    assert stacked.shape == (len(probes),)
    assert stacked.tobytes() == ones.tobytes()
    # the proxy pairs as the list
    assert disc.max_pairing(u, probes) == max(abs(x) for x in ones.tolist())


@pytest.mark.parametrize("count", [1, 3, 4, 6])
def test_a_tuple_of_probes_pairs_as_a_list(count):
    """A list, a tuple and a sequence's members give the same bits; the probe
    stack they materialize pairs within 1e-12 of the largest pairing."""
    grid = GRIDS["geometric"]
    u = rough_disc(grid, 5)
    probes = disc.make_probes(grid, count)
    members = profiles.FunctionSequence(probes, range(1, count + 1)).members
    assert isinstance(members, tuple)
    want = disc._pair(u, probes).tobytes()
    for vs in (tuple(probes), members):
        assert disc._pair(u, vs).tobytes() == want
        assert disc.max_pairing(u, vs) == disc.max_pairing(u, probes)
    stack = disc._ProbeStack(grid, count)
    assert close_pairings(disc._pair(u, stack), disc._pair(u, probes))
    assert close_pairings(disc.max_pairing(u, stack), disc.max_pairing(u, probes))


def test_form_rejects_grid_mismatch():
    u = rough_disc(GRIDS["geometric"], 0)
    v = rough_disc(GRIDS["shallow"], 0)
    with pytest.raises(ValueError, match="different grids"):
        pairing(u, v)
    with pytest.raises(ValueError, match="different grids"):
        pairing(v, u)


@pytest.mark.parametrize("other, order, match", [
    ("shallow", 1, "different grids"),
    ("geometric", 2, "different symmetry orders"),
])
def test_max_pairing_rejects_a_probe_of_another_grid_or_order(other, order, match):
    grid = GRIDS["geometric"]
    u = rough_disc(grid, 0)
    # the mismatched probe comes after a matching one
    probes = disc.make_probes(grid, 2) + disc.make_probes(GRIDS[other], 2, order)
    with pytest.raises(ValueError, match=match):
        disc.max_pairing(u, probes)
