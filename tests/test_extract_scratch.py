"""What one `extract` call owns, and how often it builds and evaluates.

The call owns its running residual: nothing outlives it, and a second call
on the same input gives the same decomposition.  Each fit reads one
-log|z - zeta| field, each bubble application one per center of its term,
each taken a block of rings at a time.  The remainder norm, a
bubble application and a fit's inflation each need at most block scratch
beside their inputs and results, and the tail's remainder norm is computed
once while no bubble changes the members.
"""

import json
import tracemalloc

import numpy as np
import pytest

from moserlab import disc, profiles, seqgen
from conftest import smooth_plateau_profile


@pytest.fixture(scope="module")
def one_term_seq():
    """The test_09 one-term superposition on a 128 x 128 grid: one placement converges."""
    grid = disc.PolarGrid(n_r=128, n_theta=128, s_max=5.5)
    w = smooth_plateau_profile(0.3, 1.0)
    term = profiles.ProfileTerm(w, [2, 2, 2, 3, 3, 3, 3, 4, 4, 4], [0.15 + 0.06j] * 10)
    seq, _ = seqgen.synthetic_superposition([term], 0.01, seed=7, grid=grid, k_list=range(1, 11))
    return seq


@pytest.fixture(scope="module")
def two_term_seq():
    """Two terms on a 192 x 192 grid, whose refine sweeps accept their refits."""
    grid = disc.PolarGrid(n_r=192, n_theta=192, s_max=4.5)
    w = smooth_plateau_profile(0.69, 1.0)
    jt = [1, 2, 2, 2, 3, 3]
    seq, _ = seqgen.synthetic_superposition(
        [profiles.ProfileTerm(w, jt, [z] * 6) for z in (0.2 + 0.0j, -0.2 + 0.0j)],
        0.01, seed=11, grid=grid, k_list=list(range(1, 7)),
    )
    return seq


KW = dict(eps_stop=0.05, max_terms=4, j_max=8)


def record(dec) -> str:
    """The decomposition's bytes: terms, remainder norms to the last bit, status."""
    return json.dumps([[t.to_dict() for t in dec.terms], [r.hex() for r in dec.remainder_expl2],
                       dec.status, dec.input_energy_limsup])


def test_two_calls_on_one_input_give_one_decomposition(two_term_seq):
    first = profiles.extract(two_term_seq, **KW)
    assert len(first.terms) == 2
    assert record(profiles.extract(two_term_seq, **KW)) == record(first)


def test_nothing_outlives_the_call(two_term_seq):
    profiles.extract(two_term_seq, **KW)  # the grid's cached arrays are built outside the trace
    member = two_term_seq.members[0].rings.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        dec = profiles.extract(two_term_seq, **KW)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(dec.terms) == 2
    # the residual and the fields are freed with the call
    assert after - before <= member


def test_each_fit_and_each_application_builds_its_own_fields(two_term_seq, monkeypatch):
    built, calls = [], []  # centers of the fields built; (function, built, expected) per call
    log_distance, fit, apply = disc._log_distance, profiles._fit_term, profiles._apply_bubbles

    def counted_field(grid, zeta):
        built.append(zeta)
        return log_distance(grid, zeta)

    def counted(f, centers):
        def call(*args):
            b = len(built)
            got = f(*args)
            calls.append((f, built[b:], centers(*args)))
            return got
        return call

    monkeypatch.setattr(disc, "_log_distance", counted_field)
    # a fit inflates at its track's tail; an application once per distinct center, in track order
    monkeypatch.setattr(profiles, "_fit_term", counted(fit, lambda tail, track, w: [track[-1][1]]))
    monkeypatch.setattr(profiles, "_apply_bubbles", counted(
        apply, lambda op, members, term, grid: list(dict.fromkeys(term.zeta_track))))
    dec = profiles.extract(two_term_seq, **KW)
    assert len(dec.terms) == 2
    # two greedy subtractions, then add-backs and refits per sweep
    assert sum(f is apply for f, _, _ in calls) > 2 and sum(f is fit for f, _, _ in calls) > 2
    for _, fields, centers in calls:
        assert fields == centers
    assert len(built) == sum(len(fields) for _, fields, _ in calls)


# Peak traced allocation of one call at 1024 x 1024, in member-sized arrays (8 MiB).
# Measured: the remainder norm 1.55 (its cell values, 16-bit bucket index and
# mask), a bubble application 0.10, the fit's inflation 1.06 (its bubble); with
# whole-grid scratch they were 2.25, 2.03 and 2.03.
_CALL_MEMBERS = {"norm": 1.75, "apply": 0.25, "inflate": 1.25}


def test_one_call_of_each_kernel_needs_at_most_block_scratch():
    grid = disc.PolarGrid(n_r=1024, n_theta=1024, s_max=5.5)
    term = profiles.ProfileTerm(smooth_plateau_profile(0.3, 1.0), [2, 2, 3, 4],
                                [0.15 + 0.06j] * 4)
    seq, _ = seqgen.synthetic_superposition([term], 0.01, seed=7, grid=grid, k_list=range(1, 5))
    members = [disc._owned_copy(u) for u in seq.members]
    calls = {
        "norm": lambda: profiles.expl2_disc(members[-1]),
        # subtract, then add back: the members end as they began
        "apply": lambda: [profiles._apply_bubbles(op, members, term, grid)
                          for op in (np.subtract, np.add)],
        "inflate": lambda: disc.inflate(term.w, disc.DislocationParam(4, 0.15 + 0.06j), grid),
    }
    for name, call in calls.items():
        call()  # the grid's cached arrays are built outside the trace
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / members[0].rings.nbytes <= _CALL_MEMBERS[name], name


def test_the_tail_norm_is_computed_once_while_the_members_stand(one_term_seq, monkeypatch):
    calls = []
    norm = profiles.expl2_disc

    def counted(u):
        calls.append(u)
        return norm(u)

    monkeypatch.setattr(profiles, "expl2_disc", counted)
    dec = profiles.extract(one_term_seq, eps_stop=0.05, max_terms=3, j_max=12)
    assert dec.status == "converged" and len(dec.terms) == 1
    # two loop checks of the tail, then the other nine members: 11, not 12
    tail = calls[0]
    assert len(calls) == 11 and len({id(u) for u in calls}) == 10
    assert [k for k, u in enumerate(calls) if u is tail] == [0, 1]
