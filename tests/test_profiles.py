import itertools
import json
import math

import numpy as np
import pytest

from moserlab import cli, disc, profiles, radial, rearrange, seqgen
from conftest import greedy_extract, smooth_plateau_profile, synthesized_term_error


@pytest.fixture(scope="module")
def small_grid():
    return disc.PolarGrid(n_r=384, n_theta=384, s_max=4.5)


@pytest.fixture(scope="module")
def planted(small_grid):
    w = smooth_plateau_profile(0.3, 0.9)
    jt = [1, 1, 2, 2, 2, 3]
    term = profiles.ProfileTerm(w, jt, [0.1 + 0.05j] * 6)
    seq, manifest = seqgen.synthetic_superposition(
        [term], 0.01, seed=5, grid=small_grid
    )
    return seq, term, w, jt


@pytest.fixture(scope="module")
def two_planted():
    w = smooth_plateau_profile(0.69, 1.0)
    jt = [2, 2, 2, 2, 3, 3, 3, 3, 3, 3]
    seq, _ = seqgen.synthetic_superposition(
        [profiles.ProfileTerm(w, jt, [z] * 10) for z in (0.2, -0.2)], 0.01, seed=11,
        grid=disc.PolarGrid(n_r=256, n_theta=256, s_max=5.5), k_list=range(1, 11),
    )
    return seq


class TestTypes:
    def test_sequence_requires_homogeneous_members(self, small_grid):
        u = disc.DiscFunction(
            small_grid, 0.0, np.zeros((small_grid.n_r, small_grid.n_theta))
        )
        prof = radial.RadialProfile.from_arrays([0.0, 1.0], [0.0, 0.0], 2)
        with pytest.raises(ValueError, match="homogeneous"):
            profiles.FunctionSequence([u, prof], [1, 2])

    def test_sequence_requires_increasing_indices(self, small_grid):
        u = disc.DiscFunction(
            small_grid, 0.0, np.zeros((small_grid.n_r, small_grid.n_theta))
        )
        with pytest.raises(ValueError, match="increasing"):
            profiles.FunctionSequence([u, u], [2, 2])

    def test_sequence_requires_a_member(self):
        with pytest.raises(ValueError, match="at least one member"):
            profiles.FunctionSequence([], [])

    def test_sequence_bounded_check(self, small_grid):
        prof = radial.moser_annular(1.0)
        big = disc.scale_disc(
            disc.inflate(prof, disc.DislocationParam(1, 0.0), small_grid), 100.0
        )
        with pytest.raises(ValueError, match="bounded"):
            profiles.FunctionSequence([big], [1])

    def test_profile_term_invariants(self):
        w = radial.moser_annular(1.0, 0.5)
        with pytest.raises(ValueError, match="nondecreasing"):
            profiles.ProfileTerm(w, [3, 2, 1], [0.0] * 3)
        with pytest.raises(ValueError, match="half-disc"):
            profiles.ProfileTerm(w, [1, 2, 3], [0.9] * 3)

    @pytest.mark.parametrize("zeta", [complex(math.nan, 0.0), complex(0.1, math.nan),
                                      complex(math.inf, 0.0)], ids=["nan", "nan-imag", "inf"])
    def test_profile_term_rejects_a_nonfinite_center(self, zeta):
        w = radial.moser_annular(1.0, 0.5)
        with pytest.raises(ValueError, match="^centers must stay in the closed half-disc$"):
            profiles.ProfileTerm(w, [1, 2], [0.1, zeta])

    def test_fractional_indices_are_rejected_not_truncated(self, small_grid):
        w = radial.moser_annular(1.0, 0.5)
        with pytest.raises(ValueError, match=r"^j_track: 1\.5 is not an integer$"):
            profiles.ProfileTerm(w, [1, 1.5, 2.9], [0.0] * 3)
        u = disc.DiscFunction(small_grid, 0.0, np.zeros((small_grid.n_r, small_grid.n_theta)))
        with pytest.raises(ValueError, match=r"^k_list: 1\.9 is not an integer$"):
            profiles.FunctionSequence([u, u], [1.9, 2.5])
        # integral values of any type are taken as they are
        assert profiles.ProfileTerm(w, [1.0, np.int64(2)], [0.0] * 2).j_track == (1, 2)
        assert profiles.FunctionSequence([u, u], [1.0, 3]).k_list == (1, 3)

    @pytest.mark.parametrize("track, reason", [
        ([[False, False]], r"^zeta_track\[0\]: False is not a real number$"),
        ([[0.1, 0.0], [0.1, 0.0, "x"]], r"^zeta_track\[1\]: \[0\.1, 0\.0, 'x'\] is not a pair"),
        ([[0.1, 0.0], [0.1]], r"^zeta_track\[1\]: \[0\.1\] is not a pair of real numbers$"),
        ([[0.0, None]], r"^zeta_track\[0\]: None is not a real number$"),
        ([["0.1", 0.0]], r"^zeta_track\[0\]: '0\.1' is not a real number$"),
        (["01"], r"^zeta_track\[0\]: '01' is not a pair of real numbers$"),
    ], ids=["bools", "three", "one", "null", "string", "text"])
    def test_profile_term_record_reads_each_center_as_two_reals(self, track, reason):
        w = radial.moser_annular(1.0, 0.5)
        record = profiles.ProfileTerm(w, [1] * len(track), [0j] * len(track)).to_dict()
        record["zeta_track"] = track
        with pytest.raises(ValueError, match=reason):
            profiles.ProfileTerm.from_dict(record)
        # ints and floats are centers, and a term's own record reads back as the term
        record["zeta_track"] = [[0, 0.5], [0.25, -0.125]][:len(track)]
        term = profiles.ProfileTerm.from_dict(record)
        assert term.zeta_track == (0.5j, 0.25 - 0.125j)[:len(track)]
        again = profiles.ProfileTerm.from_dict(term.to_dict())
        assert again.zeta_track == term.zeta_track and again.j_track == term.j_track

    def test_decomposition_energy_budget(self):
        w = radial.moser_annular(1.0, 0.5)
        term = profiles.ProfileTerm(w, [1, 2], [0.0] * 2)
        with pytest.raises(ValueError, match="budget"):
            profiles.Decomposition((term,), (0.0, 0.0), input_energy_limsup=0.5)


class TestOrthogonality:
    def test_identical_tracks_fail(self):
        w = radial.moser_annular(1.0, 0.5)
        a = profiles.ProfileTerm(w, [1, 2, 4], [0.1] * 3)
        assert not profiles.orthogonality_check(a, a)

    def test_log_scale_gap_passes(self):
        w = radial.moser_annular(1.0, 0.5)
        a = profiles.ProfileTerm(w, [1, 2, 3, 4], [0.1] * 4)
        b = profiles.ProfileTerm(w, [1, 4, 9, 16], [0.1] * 4)
        assert profiles.orthogonality_check(a, b)

    def test_separated_centers_pass(self):
        w = radial.moser_annular(1.0, 0.5)
        a = profiles.ProfileTerm(w, [1, 2, 3], [0.0] * 3)
        b = profiles.ProfileTerm(w, [1, 2, 3], [0.4] * 3)
        assert profiles.orthogonality_check(a, b)


class TestExtract:
    def test_zero_sequence(self, small_grid):
        z = disc.DiscFunction(
            small_grid, 0.0, np.zeros((small_grid.n_r, small_grid.n_theta))
        )
        dec = profiles.extract(profiles.FunctionSequence([z] * 4, range(1, 5)))
        assert dec.terms == ()
        assert max(dec.remainder_expl2) == 0.0

    @pytest.mark.parametrize("kw, reason", [
        ({"eps_stop": math.nan}, "stop threshold"),
        ({"max_terms": -1}, "term cap"),
        ({"j_max": 0}, "scale cap"),
    ])
    def test_options_are_checked_before_the_sequence(self, kw, reason):
        # None in place of a sequence: the options are checked before it is read
        with pytest.raises(ValueError, match=reason):
            profiles.extract(None, **kw)

    def test_radial_members_rejected(self):
        prof = radial.moser_annular(1.0)
        seq = profiles.FunctionSequence([prof, prof], [1, 2])
        with pytest.raises(ValueError, match="disc"):
            profiles.extract(seq)

    def test_planted_single_term(self, planted, small_grid):
        seq, term, w, jt = planted
        dec = profiles.extract(seq, eps_stop=0.05, max_terms=3, j_max=8)
        assert dec.status == "converged"
        assert len(dec.terms) == 1
        rec = dec.terms[0]
        assert abs(rec.zeta_track[-1] - (0.1 + 0.05j)) <= 0.05
        assert synthesized_term_error(rec, w, jt[-1]) <= 0.08
        assert dec.remainder_expl2[-1] <= 0.05
        led = profiles.energy_ledger(dec)
        assert -1e-6 <= led.slack <= 0.05

    def test_idempotence_on_remainder(self, planted, small_grid):
        seq, term, w, jt = planted
        dec = profiles.extract(seq, eps_stop=0.05, max_terms=3, j_max=8)
        resid_members = []
        for idx, u in enumerate(seq.members):
            for t in dec.terms:
                u = disc.subtract_disc(
                    u,
                    disc.inflate(
                        t.w,
                        disc.DislocationParam(t.j_track[idx], t.zeta_track[idx]),
                        small_grid,
                    ),
                )
            resid_members.append(u)
        resid_seq = profiles.FunctionSequence(resid_members, seq.k_list)
        dec2 = profiles.extract(resid_seq, eps_stop=0.05, max_terms=3, j_max=8)
        assert len(dec2.terms) == 0

    def test_noise_only_returns_empty(self, small_grid):
        seq, _ = seqgen.synthetic_superposition(
            [], 0.01, seed=3, grid=small_grid, k_list=range(1, 6)
        )
        noise_q = rearrange.expl2_quasinorm(rearrange.rearrange_disc(seq.members[-1]))
        dec = profiles.extract(seq, eps_stop=2 * noise_q, max_terms=3, j_max=8)
        assert len(dec.terms) == 0

    @pytest.mark.parametrize("max_terms, status", [(0, "max-terms"), (1, "max-terms"),
                                                   (2, "converged")])
    def test_the_term_cap_is_a_status(self, two_planted, max_terms, status):
        # test_09's two terms, on a coarser grid: the cap stops the loop above eps_stop
        dec = profiles.extract(two_planted, eps_stop=0.05, max_terms=max_terms, j_max=12)
        assert dec.status == status and len(dec.terms) == max_terms
        assert (dec.remainder_expl2[-1] >= 0.05) == (status == "max-terms")

    def test_two_rises_of_the_tail_energy_are_a_status(self, two_planted, tmp_path,
                                                       monkeypatch):
        greedy = greedy_extract(two_planted, eps_stop=0.05, max_terms=2, j_max=12)
        place, rises = profiles._place_term, itertools.count(1)

        def rising(*args):  # every placement reports a higher tail energy
            placed = place(*args)
            return None if placed is None else (1e3 * next(rises), placed[1])

        monkeypatch.setattr(profiles, "_place_term", rising)
        dec = profiles.extract(two_planted, eps_stop=0.05, j_max=12)
        # the two placed terms are kept, unrefined, with the members' remainder
        assert dec.status == "diverged"
        assert [t.to_dict() for t in dec.terms] == [t.to_dict() for t in greedy.terms]
        assert len(dec.terms) == 2 and dec.remainder_expl2 == greedy.remainder_expl2
        # decompose writes it like any other status and exits 0
        manifest = seqgen.save_sequence(two_planted, str(tmp_path / "seq"), {})
        out = tmp_path / "dec"
        assert cli.main(["decompose", "--manifest", manifest, "--j-max", "12",
                         "--out", str(out)]) == 0
        doc = json.loads((out / "decomposition.json").read_text())
        assert doc["status"] == "diverged"
        assert [t["j_track"] for t in doc["terms"]] == [list(t.j_track) for t in greedy.terms]
        assert doc["remainder_expl2"] == list(greedy.remainder_expl2)
        assert sorted(p.name for p in out.glob("term_*.json")) == ["term_00.json", "term_01.json"]


    @pytest.mark.parametrize("steps, status, n_terms", [
        ([1.0, -0.5, 1.0], "no-candidates", 3),  # rise, fall, rise
        ([1.0, 1.0, -1.0], "diverged", 2),  # two rises in a row: it stops after the second
        ([-1.0, 1.0, 1.0, -1.0], "diverged", 3),
        ([1e-12, 1e-12, 1e-12], "no-candidates", 3),  # a step of 1e-12 is no rise
    ])
    def test_the_stop_rule_reads_the_last_two_steps_of_the_tail_energy(
            self, steps, status, n_terms, monkeypatch):
        grid = disc.PolarGrid(n_r=64, n_theta=64, s_max=4.5)
        w, jt, zt = smooth_plateau_profile(0.69, 1.0), [1, 2, 2, 3], [0.2] * 4
        seq, _ = seqgen.synthetic_superposition([profiles.ProfileTerm(w, jt, zt)], 0.0,
                                                seed=0, grid=grid)
        tiny = profiles.ProfileTerm(radial.scale(w, 1e-3), jt, zt)  # the tail norm stays up
        # the tail energies the placements report, one step after another
        energies = list(itertools.accumulate(steps, initial=seq.energies[-1]))[1:]
        calls = []

        def place(*args):  # one report per placement; none once they run out
            calls.append(None)
            return (energies.pop(0), tiny) if energies else None

        monkeypatch.setattr(profiles, "_place_term", place)
        dec = greedy_extract(seq, eps_stop=0.05, max_terms=10, j_max=8)
        assert dec.status == status and len(dec.terms) == n_terms
        assert len(calls) == n_terms + (status == "no-candidates")

class TestLedger:
    def test_empty_decomposition(self):
        dec = profiles.Decomposition((), (0.0,), input_energy_limsup=1.0)
        led = profiles.energy_ledger(dec)
        assert led.total == 0.0
        assert led.slack == 1.0

    def test_planted_slack_near_noise_energy(self, planted):
        seq, term, w, jt = planted
        dec = profiles.extract(seq, eps_stop=0.05, max_terms=3, j_max=8)
        led = profiles.energy_ledger(dec)
        # planted noise energy is 0.01; recovery error adds a little
        assert 0.0 <= led.slack <= 0.04


class TestDWeak:
    def test_counterexample_is_dweak_null(self):
        seq = seqgen.counterexample_sequence(12)
        rep = profiles.dweak_test(seq, j_max=12)
        assert rep.verdict == "dweak-null-evidence"
        assert rep.per_member[-1] < rep.per_member[0]

    def test_concentrating_sequence_has_witness(self):
        seq = seqgen.moser_sequence(
            [math.exp(-k) for k in (1, 2, 3, 4, 5)], [0.0] * 5
        )
        rep = profiles.dweak_test(seq, j_max=8)
        assert rep.verdict == "non-vanishing"
        assert rep.per_member[-1] >= 0.8  # self-pairing of the profile
        assert rep.witness is not None

    def test_fixed_member_witnessed_at_identity(self, small_grid):
        prof = radial.moser_annular(1.0, 0.3)
        u = disc.inflate(prof, disc.DislocationParam(1, 0.1), small_grid)
        seq = profiles.FunctionSequence([u] * 4, range(1, 5))
        rep = profiles.dweak_test(seq, j_max=8)
        assert rep.verdict == "non-vanishing"
        assert rep.witness["kind"] in ("identity", "detector")

    @pytest.mark.parametrize("kw, message", [
        (dict(j_max=0), r"scale cap must be at least 1 \(j_max >= 1\)"),
    ])
    def test_options_are_checked_before_the_scan(self, kw, message, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("the scan ran")

        monkeypatch.setattr(disc, "_scan", no_scan)
        seq = seqgen.counterexample_sequence(4)
        with pytest.raises(ValueError, match=message):
            profiles.dweak_test(seq, **kw)
