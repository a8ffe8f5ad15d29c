"""The radial layer's shared pieces: the segment table, the J quadrature
loop, the moment recursion and the profile-term record.

GOLDEN holds values of the functions built on them, recorded with repr
before the pieces were shared; each must still agree within 1e-12
relative (they agreed exactly when recorded).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from moserlab import functional, radial, rearrange, seqgen
from moserlab.profiles import ProfileTerm
from moserlab.radial import RadialProfile

PROFILES = {
    "moser": radial.moser_from_exponent(3.0),
    "annular": radial.moser_annular(2.5, 0.4),
    "multimodal": RadialProfile.from_arrays(
        [0.0, 0.3, 0.8, 1.4, 2.0, 2.7], [0.0, 0.25, -0.15, 0.3, -0.1, 0.05]
    ),
    "flat": RadialProfile.from_arrays([0.0, 0.5, 1.2, 2.0], [0.0, 0.3, 0.3, 0.1]),
    "tent": RadialProfile.from_arrays([0.0, 2.0, 2.5, 3.0], [0.0, 0.0, 0.4, 0.0]),
    "negative": RadialProfile.from_arrays(
        [0.0, 0.2, 0.9, 1.5], [0.0, -0.2, -0.35, -0.3]
    ),
}
STEP = rearrange.RearrangedFunction(
    [0.05, 0.2, 0.6, 1.0], [2.0, 1.1, 0.4, 0.1], "step"
)

GOLDEN = {
    "moser/j_direct": 7.72218464988509,
    "moser/j_representation": 7.722184649885088,
    "moser/pointwise_bound_margin": 0.0,
    "moser/hardy_weight_integral": 0.31830988618379075,
    "moser/pairing_mstar_integral/0.5": 0.40824829046386313,
    "moser/pairing_mstar_integral/1.7": 0.752772652709081,
    "moser/pairing_mstar_integral/5.0": 0.7745966692414834,
    "moser/lp_mass/1": 0.11487925169876931,
    "moser/lp_mass/2": 0.026065567243430274,
    "moser/lp_mass/4": 0.0035833761361704396,
    "moser/lp_mass_rearranged/1": 0.11487925169876931,
    "moser/lp_mass_rearranged/2": 0.026065567243430267,
    "moser/lp_mass_rearranged/3": 0.008596602791191649,
    "annular/j_direct": 3.303233668489264,
    "annular/j_representation": 3.3032336684892627,
    "annular/pointwise_bound_margin": 0.02853367204009133,
    "annular/hardy_weight_integral": 0.21741830985021565,
    "annular/pairing_mstar_integral/0.5": 0.0894427190999916,
    "annular/pairing_mstar_integral/1.7": 0.6305926250944658,
    "annular/pairing_mstar_integral/5.0": 0.7071067811865478,
    "annular/lp_mass/1": 0.056303880030476865,
    "annular/lp_mass/2": 0.013724364778873878,
    "annular/lp_mass/4": 0.002007649733737994,
    "annular/lp_mass_rearranged/1": 0.056303880030476865,
    "annular/lp_mass_rearranged/2": 0.013724364778873878,
    "annular/lp_mass_rearranged/3": 0.0047383441036082975,
    "multimodal/j_direct": 0.95275355130984,
    "multimodal/j_representation": 0.9527535513098396,
    "multimodal/pointwise_bound_margin": 0.6227507367431873,
    "multimodal/hardy_weight_integral": 0.2762328113993078,
    "multimodal/pairing_mstar_integral/0.5": 0.3190416931629928,
    "multimodal/pairing_mstar_integral/1.7": 0.19224961266968674,
    "multimodal/pairing_mstar_integral/5.0": 0.05604991216397921,
    "multimodal/lp_mass/1": 0.11490873604325633,
    "multimodal/lp_mass/2": 0.018570835806064435,
    "multimodal/lp_mass/4": 0.0007115563085675678,
    "multimodal/lp_mass_rearranged/1": 0.11490863451225436,
    "multimodal/lp_mass_rearranged/2": 0.018570810749164765,
    "multimodal/lp_mass_rearranged/3": 0.0034841395215435477,
    "flat/j_direct": 2.877997578330364,
    "flat/j_representation": 2.877997578330365,
    "flat/pointwise_bound_margin": 0.0553190836193434,
    "flat/hardy_weight_integral": 0.30675231287020277,
    "flat/pairing_mstar_integral/0.5": 1.0634723105433097,
    "flat/pairing_mstar_integral/1.7": 0.33643682217195203,
    "flat/pairing_mstar_integral/5.0": 0.11209982432795858,
    "flat/lp_mass/1": 0.18058587834848253,
    "flat/lp_mass/2": 0.04348001797881438,
    "flat/lp_mass/4": 0.0032066524357041086,
    "flat/lp_mass_rearranged/1": 0.18058583740070838,
    "flat/lp_mass_rearranged/2": 0.04348000178677584,
    "flat/lp_mass_rearranged/3": 0.011547042596269347,
    "tent/j_direct": 0.060350935595114966,
    "tent/j_representation": 0.06035093559511466,
    "tent/pointwise_bound_margin": 0.5470177871865296,
    "tent/hardy_weight_integral": 0.008637730546837585,
    "tent/pairing_mstar_integral/0.5": 0.0,
    "tent/pairing_mstar_integral/1.7": 0.0,
    "tent/pairing_mstar_integral/5.0": 0.0,
    "tent/lp_mass/1": 0.0029273988268918427,
    "tent/lp_mass/2": 0.000755517668447004,
    "tent/lp_mass/4": 7.066237800554517e-05,
    "tent/lp_mass_rearranged/1": 0.0029273967276337615,
    "tent/lp_mass_rearranged/2": 0.0007555168248345634,
    "tent/lp_mass_rearranged/3": 0.00022293089770420005,
    "negative/j_direct": 3.8980630503716123,
    "negative/j_representation": 3.89806305037161,
    "negative/pointwise_bound_margin": 0.03890318451233887,
    "negative/hardy_weight_integral": 0.5377305742899439,
    "negative/pairing_mstar_integral/0.5": -0.9368684640500586,
    "negative/pairing_mstar_integral/1.7": -0.5767488380090606,
    "negative/pairing_mstar_integral/5.0": -0.3362994729838757,
    "negative/lp_mass/1": 0.21413639425406655,
    "negative/lp_mass/2": 0.05552596849652285,
    "negative/lp_mass/4": 0.004481500011664578,
    "negative/lp_mass_rearranged/1": 0.2141363695909848,
    "negative/lp_mass_rearranged/2": 0.055525952261492754,
    "negative/lp_mass_rearranged/3": 0.015456435656810274,
    "step/lp_mass_rearranged/1": 0.46499999999999997,
    "step/lp_mass_rearranged/2": 0.44950000000000007,
    "step/lp_mass_rearranged/3": 0.6256499999999999,
}


def _evaluate(key: str) -> float:
    name, fn, *arg = key.split("/")
    if name == "step":
        return rearrange.lp_mass_rearranged(STEP, int(arg[0]))
    u = PROFILES[name]
    if fn == "j_direct":
        return functional.j_direct(u)
    if fn == "j_representation":
        return functional.j_representation(u)
    if fn == "pairing_mstar_integral":
        return radial.pairing_mstar_integral(u, float(arg[0]))
    if fn == "lp_mass":
        return radial.lp_mass(u, int(arg[0]))
    if fn == "lp_mass_rearranged":
        return rearrange.lp_mass_rearranged(rearrange.rearrange_radial(u), int(arg[0]))
    return getattr(radial, fn)(u)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_values(key):
    assert _evaluate(key) == pytest.approx(GOLDEN[key], rel=1e-12, abs=1e-15)


def test_golden_covers_every_profile_and_function():
    fns = {k.split("/")[1] for k in GOLDEN}
    assert fns == {
        "j_direct", "j_representation", "pointwise_bound_margin",
        "hardy_weight_integral", "pairing_mstar_integral", "lp_mass",
        "lp_mass_rearranged",
    }
    assert {k.split("/")[0] for k in GOLDEN} == {*PROFILES, "step"}


node_gaps = st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=12)
node_values = st.lists(st.floats(-5.0, 5.0), min_size=12, max_size=12)


# the spacing of doubles below the normal range: no relative tolerance reaches it
SUBNORMAL = np.finfo(float).smallest_subnormal
TINY_VALUES = [5e-324] + [0.0] * 11


@settings(max_examples=300, deadline=None)
@given(node_gaps, node_values)
@example([2.0], TINY_VALUES)
def test_segments_reproduce_nodes_and_tile(gaps, values):
    nodes = np.concatenate(([0.0], np.cumsum(gaps)))
    vals = np.concatenate(([0.0], values[: len(gaps)]))
    u = RadialProfile.from_arrays(nodes, vals)
    segs = list(u.segments())
    assert len(segs) == len(gaps)
    # a = v0 - b t0 cancels when |b t0| >> |v|: rounding scales with |a|
    tol = 1e-12 * max(float(np.max(np.abs(vals))), max(abs(s[2]) for s in segs)) + SUBNORMAL
    for i, (t0, t1, a, b) in enumerate(segs):
        assert t0 == nodes[i] and t1 == nodes[i + 1]
        assert abs(a + b * t0 - vals[i]) <= tol
        assert abs(a + b * t1 - vals[i + 1]) <= tol
    assert segs[0][0] == 0.0 and segs[-1][1] == nodes[-1]
    assert all(s[1] == n[0] for s, n in zip(segs, segs[1:]))


@settings(max_examples=200, deadline=None)
@given(node_gaps, node_values)
@example([0.5], TINY_VALUES)
@example([0.0625], TINY_VALUES)
def test_pointwise_bound_sup_sits_at_a_node(gaps, values):
    """The sup in `pointwise_bound_margin` is the node maximum: dense
    sampling of |u(t)| t^{-1/2} (nodes included) finds the same sup.

    Off the nodes u(t) may round up to the nearest subnormal, and the weight
    multiplies that rounding: the absolute floor is SUBNORMAL times the
    largest weight sampled."""
    nodes = np.concatenate(([0.0], np.cumsum(gaps)))
    vals = np.concatenate(([0.0], values[: len(gaps)]))
    u = RadialProfile.from_arrays(nodes, vals)
    if u.is_zero():
        return
    t = np.concatenate([np.linspace(t0, t1, 65)[1:] for t0, t1 in zip(nodes, nodes[1:])])
    t = np.concatenate((t, nodes[-1] * np.array([1.5, 3.0, 10.0])))
    weight = t ** -0.5
    dense = float(np.max(np.abs(u.value_at(t)) * weight))
    bound = radial.OMEGA ** -0.5 * radial.grad_norm(u)
    sup = bound - radial.pointwise_bound_margin(u)
    floor = SUBNORMAL * (1.0 + float(np.max(weight)))
    assert abs(sup - dense) <= 1e-12 * max(bound, dense) + floor


def test_exp_moment_matches_quadrature():
    for k, c in ((2.0, 0.0), (1.0, 1.0), (3.0, -0.5)):
        for p in range(5):
            got = radial._exp_moment(0.3, -0.7, 0.2, 1.9, p, k, c)
            ref = integrate.quad(
                lambda t: (0.3 - 0.7 * t) ** p * math.exp(c - k * t), 0.2, 1.9,
                epsabs=0.0, epsrel=1e-13,
            )[0]
            assert got == pytest.approx(ref, rel=1e-11, abs=1e-15)


TERM = ProfileTerm(
    PROFILES["annular"], [1, 2, 2, 3], [0.1 + 0.05j, 0.1 + 0.05j, -0.2j, 0.3]
)


def test_term_record_round_trip_is_exact():
    back = ProfileTerm.from_dict(TERM.to_dict())
    assert np.array_equal(back.w.nodes, TERM.w.nodes)
    assert np.array_equal(back.w.values, TERM.w.values)
    assert TERM.to_dict()["profile"]["n"] == 2
    assert back.j_track == TERM.j_track
    assert back.zeta_track == TERM.zeta_track


def test_term_record_with_profile_file_name():
    doc = TERM.to_dict(profile="term_00.json")
    assert doc == {
        "profile": "term_00.json",
        "j_track": [1, 2, 2, 3],
        "zeta_track": [[0.1, 0.05], [0.1, 0.05], [0.0, -0.2], [0.3, 0.0]],
        "energy": TERM.energy(),
    }
    assert TERM.to_dict()["profile"] == radial.profile_to_dict(TERM.w)


def test_generator_term_missing_key_is_a_value_error():
    doc = TERM.to_dict()
    del doc["zeta_track"]
    spec = seqgen.GeneratorSpec("superposition", {"terms": [doc]})
    with pytest.raises(ValueError, match="malformed superposition parameters: 'zeta_track'"):
        seqgen.build_sequence(spec)

