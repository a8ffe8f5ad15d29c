import math

import numpy as np
import pytest

from moserlab import disc, profiles, radial, rearrange, seqgen
from conftest import smooth_plateau_profile, synthesized_term_error


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

    def test_extraction_diverged_carries_diagnostics(self):
        err = profiles.ExtractionDiverged("boom", {"terms_so_far": 1})
        assert err.diagnostics["terms_so_far"] == 1


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
        rep = profiles.dweak_test(seq, probe_count=4, n_random_tracks=4, j_max=12)
        assert rep.verdict == "dweak-null-evidence"
        assert rep.per_member[-1] < rep.per_member[0]

    def test_concentrating_sequence_has_witness(self):
        seq = seqgen.moser_sequence(
            [math.exp(-k) for k in (1, 2, 3, 4, 5)], [0.0] * 5
        )
        rep = profiles.dweak_test(seq, probe_count=4, n_random_tracks=2, j_max=8)
        assert rep.verdict == "non-vanishing"
        assert rep.per_member[-1] >= 0.8  # self-pairing of the profile
        assert rep.witness is not None

    def test_fixed_member_witnessed_at_identity(self, small_grid):
        prof = radial.moser_annular(1.0, 0.3)
        u = disc.inflate(prof, disc.DislocationParam(1, 0.1), small_grid)
        seq = profiles.FunctionSequence([u] * 4, range(1, 5))
        rep = profiles.dweak_test(seq, probe_count=4, n_random_tracks=2, j_max=8)
        assert rep.verdict == "non-vanishing"
        assert rep.witness["kind"] in ("identity", "detector")
