import json
import math

import numpy as np
import pytest

from moserlab import disc, profiles, radial, rearrange, seqgen


class TestMoserSequence:
    def test_radial_members_normalized(self):
        seq = seqgen.moser_sequence(
            [math.exp(-k) for k in (1, 2, 3, 4)], [0.0] * 4,
            grid=disc.PolarGrid(n_r=512, n_theta=64, s_max=6.0),
        )
        for m in seq.members:
            assert disc.grad_norm_disc(m) == pytest.approx(1.0, abs=0.02)

    def test_first_member_matches_direct_inflation(self):
        grid = disc.PolarGrid(n_r=256, n_theta=64, s_max=5.0)
        seq = seqgen.moser_sequence([math.exp(-1.0)], [0.1 + 0.1j], grid=grid)
        inner = -math.log1p(-abs(0.1 + 0.1j))
        direct = disc.inflate(
            radial.moser_annular(1.0, inner), disc.DislocationParam(1, 0.1 + 0.1j), grid
        )
        assert np.array_equal(seq.members[0].rings, direct.rings)

    def test_dilation_form_matches_dilated_profile(self):
        grid = disc.PolarGrid(n_r=512, n_theta=64, s_max=7.0)
        seq = seqgen.moser_sequence(
            [math.exp(-k) for k in (1, 2, 3)], [0.0] * 3, grid=grid, form="dilate"
        )
        direct = disc.inflate(
            radial.make_moser(math.exp(-3.0)), disc.DislocationParam(1, 0.0), grid
        )
        assert np.max(np.abs(seq.members[2].rings - direct.rings)) <= 1e-12

    def test_dilation_form_requires_origin(self):
        with pytest.raises(ValueError, match="origin"):
            seqgen.moser_sequence([0.3, 0.2], [0.1, 0.1], form="dilate")

    def test_translated_concentration_preserves_functional_values(self):
        # J grows along the schedule: the weak-discontinuity mechanism
        from moserlab import functional

        Ls = [1.0, 2.0, 4.0]
        js = []
        for L in Ls:
            prof = radial.moser_annular(L, 0.2)
            js.append(functional.j_direct(prof))
        assert js[0] < js[1] < js[2]


class TestCounterexample:
    def test_energy_exactly_constant(self):
        seq = seqgen.counterexample_sequence(16)
        norms = [radial.grad_norm(m, 2) for m in seq.members]
        assert max(norms) - min(norms) <= 1e-10

    def test_hardy_weight_exactly_constant(self):
        seq = seqgen.counterexample_sequence(16)
        vals = [radial.hardy_weight_integral(m) for m in seq.members]
        assert max(vals) - min(vals) <= 1e-10

    def test_supports_disjoint_scaled_bands(self):
        seq = seqgen.counterexample_sequence(5)
        w5 = seq.members[-1]
        t = w5.nodes
        v = w5.values
        for i in range(len(t)):
            if v[i] != 0.0:
                inside = any(
                    2.0 * 2.0**-j <= t[i] <= 3.0 * 2.0**-j for j in range(1, 6)
                )
                assert inside, f"value at t={t[i]} outside every band"

    def test_expl2_decay_rate(self):
        seq = seqgen.counterexample_sequence(16)
        q = [
            rearrange.expl2_quasinorm(rearrange.rearrange_radial(m))
            for m in seq.members
        ]
        scaled = [v * math.sqrt(k) for k, v in zip(seq.k_list, q)]
        # fitted constant k^{1/2} * quasinorm is stable across the range
        assert max(scaled) <= 1.5 * min(scaled)
        assert q[-1] < q[0]

    def test_custom_bump_support_validated(self):
        bad = radial.RadialProfile.from_arrays([0.0, 1.0, 2.5], [0.0, 1.0, 0.0], 2)
        with pytest.raises(ValueError, match="support"):
            seqgen.counterexample_sequence(4, bump=bad)

    def test_dweak_pairings_vanish(self):
        seq = seqgen.counterexample_sequence(10)
        rep = profiles.dweak_test(seq, probe_count=3, n_random_tracks=3, j_max=10)
        assert rep.verdict == "dweak-null-evidence"


@pytest.fixture(scope="module")
def bump2d():
    grid = disc.PolarGrid(n_r=384, n_theta=64, s_max=7.0)
    prof = radial.RadialProfile.from_arrays(
        [0.0, 0.8, 1.6, 2.4], [0.0, 0.0, 1.0, 0.0], 2
    )
    prof = radial.scale(prof, 1.0 / radial.grad_norm(prof, 2))
    return disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)


class TestVanishing:
    def test_first_member_is_the_bump(self, bump2d):
        seq = seqgen.vanishing_sequence([1, 2, 4], bump2d)
        assert np.allclose(seq.members[0].rings, bump2d.rings, atol=1e-12)

    def test_energies_constant_within_grid_tolerance(self, bump2d):
        seq = seqgen.vanishing_sequence([1, 2, 4, 8], bump2d)
        energies = [disc.energy(m) for m in seq.members]
        assert max(energies) / min(energies) <= 1.02

    def test_expl2_decreasing(self, bump2d):
        seq = seqgen.vanishing_sequence([1, 2, 4, 8], bump2d)
        q = [
            rearrange.expl2_quasinorm(rearrange.rearrange_disc(m))
            for m in seq.members
        ]
        assert all(b < a for a, b in zip(q, q[1:]))

    def test_requires_compact_support(self):
        grid = disc.PolarGrid(n_r=64, n_theta=32, s_max=4.0)
        prof = radial.moser_annular(1.0)  # support radius 1
        u = disc.inflate(prof, disc.DislocationParam(1, 0.0), grid)
        with pytest.raises(ValueError, match="compact"):
            seqgen.vanishing_sequence([1, 2], u)


class TestSuperposition:
    def test_no_noise_single_term_members_exact(self):
        grid = disc.PolarGrid(n_r=128, n_theta=64, s_max=4.0)
        w = radial.moser_annular(0.8, 0.4)
        term = profiles.ProfileTerm(w, [1, 2, 3], [0.05 + 0.0j] * 3)
        seq, manifest = seqgen.synthetic_superposition([term], 0.0, 0, grid)
        direct = disc.inflate(w, disc.DislocationParam(2, 0.05), grid)
        assert np.array_equal(seq.members[1].rings, direct.rings)
        assert manifest["planted_terms"][0]["j_track"] == [1, 2, 3]

    def test_colliding_terms_rejected(self):
        grid = disc.PolarGrid(n_r=128, n_theta=64, s_max=4.0)
        w = radial.moser_annular(0.8, 0.4)
        t1 = profiles.ProfileTerm(w, [1, 2, 3], [0.05] * 3)
        t2 = profiles.ProfileTerm(w, [1, 2, 3], [0.06] * 3)
        with pytest.raises(ValueError, match="collide"):
            seqgen.synthetic_superposition([t1, t2], 0.0, 0, grid)

    def test_noise_energy_exact(self):
        grid = disc.PolarGrid(n_r=192, n_theta=96, s_max=4.0)
        seq, _ = seqgen.synthetic_superposition(
            [], 0.02, seed=9, grid=grid, k_list=[1, 2]
        )
        for m in seq.members:
            assert disc.energy(m) == pytest.approx(0.02, rel=1e-9)

    def test_determinism_byte_identical(self, tmp_path):
        spec = seqgen.GeneratorSpec(
            "superposition",
            {
                "noise_energy": 0.01,
                "terms": [
                    {
                        "profile": radial.profile_to_dict(radial.moser_annular(0.8, 0.4)),
                        "j_track": [1, 2],
                        "zeta_track": [[0.05, 0.0]] * 2,
                    }
                ],
                "grid": {"n_r": 128, "n_theta": 64, "s_max": 4.0},
            },
            seed=12,
        )
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            seq, manifest = seqgen.build_sequence(spec)
            seqgen.save_sequence(seq, str(out), manifest)
        for name in sorted(p.name for p in out_a.iterdir()):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_save_load_round_trip(self, tmp_path):
        grid = disc.PolarGrid(n_r=128, n_theta=64, s_max=4.0)
        w = radial.moser_annular(0.8, 0.4)
        term = profiles.ProfileTerm(w, [1, 2], [0.05] * 2)
        seq, manifest = seqgen.synthetic_superposition([term], 0.01, 4, grid)
        path = seqgen.save_sequence(seq, str(tmp_path / "seq"), manifest)
        loaded = seqgen.load_sequence(path)
        assert loaded.k_list == seq.k_list
        assert np.array_equal(loaded.members[0].rings, seq.members[0].rings)

    def test_member_bytes_equal_json_dump(self, tmp_path):
        grid = disc.PolarGrid(n_r=64, n_theta=32, s_max=4.0)
        term = profiles.ProfileTerm(radial.moser_annular(0.8, 0.4), [1, 2], [0.05] * 2)
        seq, manifest = seqgen.synthetic_superposition([term], 0.01, 4, grid)
        seqgen.save_sequence(seq, str(tmp_path / "seq"), manifest)
        ref = tmp_path / "ref.json"
        with open(ref, "w", encoding="utf-8") as fh:
            json.dump(disc.disc_to_dict(seq.members[1]), fh, sort_keys=True)
        assert (tmp_path / "seq" / "member_0002.json").read_bytes() == ref.read_bytes()

    def test_counterexample_spec_round_trip(self, tmp_path):
        spec = seqgen.GeneratorSpec("counterexample", {"k_max": 4})
        seq, manifest = seqgen.build_sequence(spec)
        path = seqgen.save_sequence(seq, str(tmp_path / "ce"), manifest)
        loaded = seqgen.load_sequence(path)
        assert not loaded.is_disc()
        assert np.array_equal(loaded.members[2].values, seq.members[2].values)
