"""The experiment layer: the demos, the generator, sums, placement and the CLI tables.

Each check compares the live code with the computation it stands for,
written in the test from public parts (the demo's pipeline, the generator's
member loop, the coefficient form of add / subtract, each CLI table), or
states an invariant of it (a repeated start places nothing new).
"""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moserlab import cli, disc, functional, profiles, radial, rearrange, seqgen
from moserlab.radial import grad_norm
from conftest import (
    old_dilation_concentration_demo,
    old_moser_sequence,
    old_weak_discontinuity_demo,
    pairing,
    same_disc,
    smooth_plateau_profile,
)


# -- the demos: one pipeline, one pairing proxy ------------------------------------------

def test_constant_sequence_demo_matches_old():
    """The demo's pipeline written out: each member inflated at its center,
    paired with every probe by the two-argument form, J of its profile, and
    the decay rule on the pairings.  The demo pairs with the separable probe
    stack: its pairings agree to 1e-12 relative, everything else exactly."""
    grid = disc.PolarGrid(n_r=192, n_theta=96, s_max=5.0)
    s, z = 0.25, 0.1
    rep = functional.weak_discontinuity_demo([s] * 5, [z] * 5, grid=grid)
    prof = radial.moser_annular(-math.log(s), -math.log1p(-z))
    member = disc.inflate(prof, disc.DislocationParam(1, z), grid)
    best = max(abs(pairing(member, phi)) for phi in disc.make_probes(grid, 6))
    row = {"s": s, "center": [z, 0.0], "J": functional.j_direct(prof)}
    assert [{k: v for k, v in r.items() if k != "pairing"} for r in rep.rows] == [row] * 5
    assert all(r["pairing"] == pytest.approx(best, rel=1e-12, abs=0.0) for r in rep.rows)
    assert rep.classification == functional._classify([best] * 5, [row["J"]] * 5)
    assert rep.classification == "non-concentrating"
    assert rep.max_discrete_grad_norm == math.sqrt(disc.energy(member))
    assert rep.notes == {}


# -- one builder for the translated Moser family: the separate builders' numbers, bit for bit

def _same_report(rep, old):
    # repr tells every float's bits apart, signed zeros included
    assert repr(rep.rows) == repr(old.rows)
    assert rep.classification == old.classification
    assert rep.max_discrete_grad_norm.hex() == old.max_discrete_grad_norm.hex()


@pytest.mark.parametrize("s_list, centers", [
    ([math.exp(-k) for k in (1, 2, 3)], [0.15 + 0.08j] * 3),
    ([0.25] * 3, [0.1] * 3),
], ids=["off-origin-decreasing", "constant"])
def test_translate_demo_matches_its_own_builder(s_list, centers):
    # the default 512 x 256 grid included
    _same_report(functional.weak_discontinuity_demo(s_list, centers),
                 old_weak_discontinuity_demo(s_list, centers))


def test_dilation_demo_matches_its_own_builder():
    base = radial.scale(radial.moser_from_exponent(3.0), 0.9)
    _same_report(functional.dilation_concentration_demo(base, [1, 2, 2, 4]),
                 old_dilation_concentration_demo(base, [1, 2, 2, 4]))


@pytest.mark.parametrize("centers, form, grid", [
    ([0.1 + 0.05j] * 3, "translate", None),
    ([(0.15, -0.08), (0.0, 0.3), 0.5j], "translate", None),
    ([0.1 + 0.05j] * 3, "translate", disc.PolarGrid(n_r=96, n_theta=64, s_max=6.0)),
    ([0.0] * 3, "dilate", None),
    ([(0.0, 0.0)] * 3, "dilate", disc.PolarGrid(n_r=96, n_theta=64, s_max=6.0)),
], ids=["translate-default-grid", "translate-pairs", "translate-grid", "dilate-default-grid",
        "dilate-grid"])
def test_moser_sequence_matches_its_own_builder(centers, form, grid):
    s_list = [math.exp(-k) for k in (1, 1.6, 2.5)]
    seq = seqgen.moser_sequence(s_list, centers, grid=grid, form=form)
    old = old_moser_sequence(s_list, centers, grid=grid, form=form)
    assert seq.k_list == old.k_list
    assert all(same_disc(a, b) for a, b in zip(seq.members, old.members, strict=True))


def test_the_generator_keeps_its_own_decrease_check():
    # the demo takes constant s (the "constant" case above); the generator does not
    with pytest.raises(ValueError, match="must decrease"):
        seqgen.moser_sequence([0.25] * 2, [0.1] * 2)


def test_pairing_over_no_probes_is_an_error():
    grid = disc.PolarGrid(n_r=32, n_theta=32)
    u = disc.inflate(radial.moser_annular(1.0), disc.DislocationParam(1, 0.0), grid)
    with pytest.raises(ValueError):
        disc.max_pairing(u, disc.make_probes(grid, 0))


def test_angular_mode_zero_is_the_inflated_profile():
    grid = disc.PolarGrid(n_r=64, n_theta=48, s_max=5.0)
    w = radial.moser_annular(2.0, 0.1)
    assert same_disc(
        disc.angular_mode(w, grid, 0),
        disc.inflate(w, disc.DislocationParam(1, 0.0), grid),
    )


# -- the generators ---------------------------------------------------------------------

@pytest.mark.parametrize("n_terms, noise_energy, seed", [
    (1, 0.01, 4), (2, 0.02, 9), (0, 0.03, 1), (0, 0.0, 0), (1, 0.0, 2),
], ids=["one-term", "two-term", "noise-only", "empty", "no-noise"])
def test_superposition_members_match_old(n_terms, noise_energy, seed):
    """The member loop written out: each member is its terms' bubbles added in
    term order, then its noise member of the given energy, or else zero."""
    grid = disc.PolarGrid(n_r=128, n_theta=96, s_max=4.0)
    w = radial.moser_annular(0.8, 0.4)
    zetas = [0.2 + 0.0j, -0.2 + 0.05j][:n_terms]
    ks = [1, 2, 3]
    terms = [profiles.ProfileTerm(w, [1, 2, 2], [z] * 3) for z in zetas]
    seq, _ = seqgen.synthetic_superposition(
        terms, noise_energy, seed, grid, k_list=ks
    )
    rng = np.random.default_rng(seed)
    assert len(seq.members) == len(ks)
    for idx, (k, u) in enumerate(zip(ks, seq.members)):
        pieces = [disc.inflate(t.w, disc.DislocationParam(t.j_track[idx], t.zeta_track[idx]), grid)
                  for t in terms]
        if noise_energy > 0:
            pieces.append(seqgen._noise_member(grid, rng, k, noise_energy))
            assert disc.energy(pieces[-1]) == pytest.approx(noise_energy, rel=1e-12)
        zero = disc.DiscFunction(grid, 0.0, np.zeros((grid.n_r, grid.n_theta)))
        assert same_disc(u, functools.reduce(disc.add, pieces) if pieces else zero)


# -- add and subtract ----------------------------------------------------------------------

GRID = disc.PolarGrid(n_r=24, n_theta=32, s_max=3.0)
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def disc_samples(draw, zero_trace=True):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rings = rng.normal(size=(GRID.n_r, GRID.n_theta)) * draw(finite)
    # exact zeros and negative zeros exercise the signed-zero cases
    rings[rng.random(rings.shape) < 0.2] = draw(st.sampled_from([0.0, -0.0]))
    if zero_trace:
        rings[-1] = draw(st.sampled_from([0.0, -0.0]))
    return disc.DiscFunction(
        GRID, draw(st.one_of(finite, st.sampled_from([0.0, -0.0]))), rings,
        support_radius=draw(st.floats(0.01, 1.0)), zero_trace=zero_trace,
    )


@settings(max_examples=200, deadline=None)
@given(disc_samples(), st.one_of(disc_samples(), disc_samples(zero_trace=False)))
def test_add_and_subtract_match_old(u, v):
    """Centers and rings summed (or subtracted) elementwise, signed zeros
    included; the larger support radius; zero_trace and-ed."""
    for op, f in ((disc.add, np.add), (disc.subtract_disc, np.subtract)):
        expect = disc.DiscFunction(
            GRID, float(f(u.center, v.center)), f(u.rings, v.rings),
            support_radius=max(u.support_radius, v.support_radius),
            zero_trace=u.zero_trace and v.zero_trace,
        )
        assert same_disc(op(u, v), expect)


def test_add_rejects_other_grids():
    u = disc.DiscFunction(GRID, 0.0, np.zeros((GRID.n_r, GRID.n_theta)))
    other = disc.PolarGrid(n_r=24, n_theta=32, s_max=4.0)
    v = disc.DiscFunction(other, 0.0, np.zeros((other.n_r, other.n_theta)))
    for op in (disc.add, disc.subtract_disc):
        with pytest.raises(ValueError, match="different grids"):
            op(u, v)


# -- the extractor's inputs: member energies once, one fit per distinct track ---------------

@pytest.fixture(scope="module")
def superposed():
    grid = disc.PolarGrid(n_r=96, n_theta=96, s_max=4.5)
    w = smooth_plateau_profile(0.69, 1.0)
    terms = [profiles.ProfileTerm(w, [1, 2, 2, 3], [z] * 4)
             for z in (0.2 + 0.0j, -0.15 + 0.1j)]
    return seqgen.synthetic_superposition(terms, 0.01, seed=3, grid=grid)[0]


def test_sequence_keeps_member_energies(superposed):
    assert superposed.energies == tuple(disc.energy(u) for u in superposed.members)
    ce = seqgen.counterexample_sequence(3)
    assert ce.energies == tuple(grad_norm(m) ** 2 for m in ce.members)


def test_sequence_bound_is_on_the_gradient_norm(superposed):
    u = superposed.members[0]
    big = disc.scale_disc(u, 10.0 / math.sqrt(disc.energy(u)) * 1.001)
    with pytest.raises(ValueError, match="uniformly bounded"):
        profiles.FunctionSequence([big], [1])
    ok = disc.scale_disc(u, 9.99 / math.sqrt(disc.energy(u)))
    assert profiles.FunctionSequence([ok], [1]).energies[0] < 100.0


def _place_counting_fits(members, starts):
    """(placement, members less its term, the tracks fitted), from owned copies of the members."""
    fits, fit = [], profiles._fit_term

    def counted_fit(tail, track, *args):
        fits.append(track)
        return fit(tail, track, *args)

    members = [disc._owned_copy(u) for u in members]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(profiles, "_fit_term", counted_fit)
        placed = profiles._place_term(members, starts, 8, lambda t: True)
    profiles._apply_bubbles(np.subtract, members, placed[1], members[0].grid)
    return placed, members, fits


@pytest.fixture(scope="module")
def distinct_placement(superposed):
    cands = disc.concentration_detect(superposed.members[-1], eps=0.0125, j_max=8, top_k=4)
    starts = [d for d, _ in cands] + [disc.DislocationParam(1, 0.0)]
    return starts, _place_counting_fits(superposed.members, starts)


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_repeated_starts_place_as_the_distinct_ones(superposed, distinct_placement, data):
    """Placing S plus repeats of its starts gives S's result, bit for bit, and
    fits each distinct track once."""
    starts, (ref, ref_members, ref_fits) = distinct_placement
    repeats = data.draw(st.lists(st.sampled_from(starts), min_size=1, max_size=3))
    got, got_members, fits = _place_counting_fits(superposed.members, starts + repeats)
    assert len(fits) == len(set(map(tuple, fits))) < len(starts + repeats)
    assert fits == ref_fits
    assert got[0] == ref[0]
    a, b = got[1], ref[1]
    assert a.j_track == b.j_track and a.zeta_track == b.zeta_track
    assert a.w.nodes.tobytes() == b.w.nodes.tobytes()
    assert a.w.values.tobytes() == b.w.values.tobytes()
    for u, v in zip(got_members, ref_members):
        assert same_disc(u, v)


# -- the CLI tables ----------------------------------------------------------------------------

@pytest.fixture(scope="module")
def disc_member(tmp_path_factory):
    grid = disc.PolarGrid(n_r=64, n_theta=48, s_max=4.0)
    u = disc.inflate(radial.moser_annular(1.5), disc.DislocationParam(1, 0.0), grid)
    path = tmp_path_factory.mktemp("member") / "member.json"
    cli.write_json(str(path), disc.disc_to_dict(u))
    return str(path)


def _moser_limit_table(_):
    keys = ["L", "s", "j_direct", "j_repr", "plateau", "ramp"]
    rows = functional.moser_limit_experiment([2.0, 5.0, 10.5])
    return ["L", "s", "J_direct", "J_repr", "plateau", "ramp"], keys, [
        [getattr(r, k) for k in keys] for r in rows
    ]


def _counterexample_table(_):
    header = ["k", "grad_norm", "hardy_weight", "expl2", "lz_inf_2_-1", "lz_inf_2_-0.5"]
    seq = seqgen.counterexample_sequence(6)
    rows = []
    for k, m in zip(seq.k_list, seq.members):
        f = rearrange.rearrange_radial(m)
        rows.append([k, grad_norm(m), radial.hardy_weight_integral(m), rearrange.expl2_quasinorm(f)]
                    + [rearrange.lz_quasinorm(f, rearrange.LZIndex(math.inf, 2, a)) for a in (-1.0, -0.5)])
    return header, header, rows


def _norms_table(member):
    with open(member, encoding="utf-8") as fh:
        f = rearrange.rearrange_disc(disc.disc_from_dict(json.load(fh)))
    header = ["p", "q", "alpha", "value", "diverged"]
    rows = []
    for p, q, alpha in ((math.inf, math.inf, -0.5), (math.inf, 2.0, -1.0), (math.inf, 2.0, -0.5)):
        val = rearrange.lz_quasinorm(f, rearrange.LZIndex(p, q, alpha))
        rows.append([p, q, alpha, val, math.isinf(val)])
    return header, header, rows


@pytest.mark.parametrize("argv, table, name", [
    (["moser-limit", "--l-values", "2,5,10.5"], _moser_limit_table, "moser_limit"),
    (["counterexample", "--k-max", "6"], _counterexample_table, "counterexample"),
    (["norms", "--input", None], _norms_table, "norms"),
], ids=["moser-limit", "counterexample", "norms"])
def test_cli_tables_match_old(tmp_path, capsys, disc_member, argv, table, name):
    """Each table is its library values: the JSON records keyed as the command
    keys them, the CSV rows as reprs under the header, the CSV path printed."""
    argv = [disc_member if a is None else a for a in argv]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path / name}.csv\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{name}.csv", f"{name}.json"]
    header, keys, rows = table(disc_member)
    records = json.loads((tmp_path / f"{name}.json").read_text())
    assert records == json.loads(json.dumps([dict(zip(keys, r)) for r in rows]))
    lines = (tmp_path / f"{name}.csv").read_text().splitlines()
    assert lines[0].startswith("# generated: ")
    assert lines[1:] == [",".join(header)] + [
        ",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in r) for r in rows
    ]
