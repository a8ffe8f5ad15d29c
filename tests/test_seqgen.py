import json
import math

import numpy as np
import pytest

from moserlab import cli, disc, profiles, radial, rearrange, seqgen


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
        rep = profiles.dweak_test(seq, j_max=10)
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

    def test_fractional_indices_rejected(self, bump2d):
        with pytest.raises(ValueError, match=r"^k_values: 2\.5 is not an integer$"):
            seqgen.vanishing_sequence([1, 2.5, 4.9], bump2d)
        bump = {"n": 2, "nodes": [0.0, 0.8, 1.6, 2.4], "values": [0.0, 0.0, 1.0, 0.0]}
        grid = {"n_r": 16, "n_theta": 32, "s_max": 4.0}
        spec = seqgen.GeneratorSpec(
            "vanishing", {"k_values": [1, 2.0], "bump_profile": bump, "grid": grid}
        )
        # the manifest records the indices the members were built with
        assert json.dumps(seqgen.build_sequence(spec)[1]["k_values"]) == "[1, 2]"

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

    def test_noise_that_vanishes_on_the_grid_is_an_error(self):
        # the noise tent lives on 0.8 < t < 2.6, past this grid's last ring
        grid = disc.PolarGrid(n_r=64, n_theta=64, s_max=0.5)
        with pytest.raises(ValueError, match=r"^the noise profile lives on 0\.8 < t < 2\.6 and "
                                             r"vanishes on a grid with s_max 0\.5$"):
            seqgen.synthetic_superposition([], 0.01, seed=0, grid=grid, k_list=[1, 2])
        seq, manifest = seqgen.synthetic_superposition([], 0.0, seed=0, grid=grid, k_list=[1, 2])
        assert [disc.energy(m) for m in seq.members] == [0.0, 0.0]
        assert manifest["noise_energy"] == 0.0

    def test_noise_energy_is_read_as_a_real_number(self):
        grid = disc.PolarGrid(n_r=16, n_theta=32)
        with pytest.raises(ValueError, match="^noise_energy: True is not a real number$"):
            seqgen.synthetic_superposition([], True, seed=0, grid=grid, k_list=[1])

    @pytest.mark.parametrize("seed, reason", [
        (True, "^seed: True is not an integer$"),
        (-1, "^seed: -1 is negative$"),
        (1.5, r"^seed: 1\.5 is not an integer$"),
    ], ids=["bool", "negative", "fraction"])
    def test_the_library_reads_the_seed_as_the_spec_does(self, seed, reason):
        grid = disc.PolarGrid(n_r=16, n_theta=32)
        with pytest.raises(ValueError, match=reason):
            seqgen.synthetic_superposition([], 0.0, seed=seed, grid=grid, k_list=[1])

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

    def test_fractional_indices_rejected(self):
        grid = disc.PolarGrid(n_r=16, n_theta=32, s_max=4.0)
        with pytest.raises(ValueError, match=r"^k_list: 1\.9 is not an integer$"):
            seqgen.synthetic_superposition([], 0.0, 0, grid, k_list=[1.9, 2.5, 3.7])
        spec = seqgen.GeneratorSpec("counterexample", {"k_max": 2.5})
        with pytest.raises(ValueError, match=r"^k_max: 2\.5 is not an integer$"):
            seqgen.build_sequence(spec)
        _, manifest = seqgen.build_sequence(seqgen.GeneratorSpec("counterexample", {"k_max": 2.0}))
        assert json.dumps(manifest["k_max"]) == "2"

    def test_counterexample_spec_round_trip(self, tmp_path):
        spec = seqgen.GeneratorSpec("counterexample", {"k_max": 4})
        seq, manifest = seqgen.build_sequence(spec)
        path = seqgen.save_sequence(seq, str(tmp_path / "ce"), manifest)
        loaded = seqgen.load_sequence(path)
        assert not loaded.is_disc()
        assert np.array_equal(loaded.members[2].values, seq.members[2].values)


SMALL_GRID = {"n_r": 16, "n_theta": 32}


class TestGeneratorContract:
    """build_sequence alone decides what valid generator input is."""

    def test_library_and_cli_build_the_same_sequence(self, tmp_path):
        # a planted profile of energy about 25: both paths scale it to unit energy
        prof = radial.scale(radial.moser_annular(0.8, 0.4), 5.0)
        params = {
            "noise_energy": 0.01,
            "terms": [{"profile": radial.profile_to_dict(prof), "j_track": [1, 2],
                       "zeta_track": [[0.05, 0.0]] * 2}],
            "grid": {"n_r": 64, "n_theta": 32, "s_max": 4.0},
        }
        (tmp_path / "p.json").write_text(json.dumps(params))
        assert cli.main(["generate", "--kind", "superposition", "--params",
                         str(tmp_path / "p.json"), "--seed", "3",
                         "--out", str(tmp_path / "g")]) == 0
        loaded = seqgen.load_sequence(str(tmp_path / "g" / "manifest.json"))
        seq, _ = seqgen.build_sequence(seqgen.GeneratorSpec("superposition", params, seed=3))
        for a, b in zip(seq.members, loaded.members):
            assert np.array_equal(a.rings, b.rings)
        assert seq.energies[0] == pytest.approx(1.0 + 0.01, abs=0.05)

    @pytest.mark.parametrize("kind, params, reason", [
        ("counterexample", {"k_max": 3, "grid": {"n_r": 64, "n_theta": 64}},
         "^counterexample members are radial profiles and take no grid$"),
        ("moser", {"s_values": [0.3], "centers": [[0.0, 0.0]]},
         "^malformed moser parameters: 'grid'$"),
        ("moser", {"s_values": [0.3, "0.2"], "centers": [[0.0, 0.0]] * 2, "grid": {"n_r": 16, "n_theta": 32}},
         r"^malformed moser parameters: s_values\[1\]: '0\.2' is not a real number$"),
        ("moser", {"s_values": [0.3], "centers": ["0.1"], "grid": {"n_r": 16, "n_theta": 32}},
         r"^malformed moser parameters: centers\[0\]: '0\.1' is not a pair of real numbers$"),
        ("moser", {"s_values": [0.3], "centers": [[0.1, 0.0, "x"]], "grid": {"n_r": 16, "n_theta": 32}},
         r"^malformed moser parameters: centers\[0\]: \[0\.1, 0\.0, 'x'\] is not a pair"),
        ("moser", {"s_values": [0.3], "centers": [[0.1, None]], "grid": {"n_r": 16, "n_theta": 32}},
         r"^malformed moser parameters: centers\[0\]: None is not a real number$"),
        ("vanishing", {"k_values": [1], "bump_profile": {}},
         "^malformed vanishing parameters: 'grid'$"),
        ("superposition", [1, 2], "^malformed superposition parameters: not a JSON object$"),
        ("superposition", {"terms": {}, "grid": {"n_r": 16, "n_theta": 32}},
         "^malformed superposition parameters: 'terms' is not a list$"),
        # the second planted profile is zero: no energy to scale to 1
        ("superposition", {"terms": [
            {"profile": {"n": 2, "nodes": [0.0, 1.0, 2.0], "values": v},
             "j_track": [1], "zeta_track": [[0.0, 0.0]]}
            for v in ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        ], "grid": {"n_r": 16, "n_theta": 32}},
         "^superposition term 1: the profile has zero energy$"),
        ("moser", {"s_values": [0.3], "centers": [[math.nan, 0.0]], "grid": SMALL_GRID},
         "^centers must stay in the closed half-disc$"),
        ("superposition", {"terms": [
            {"profile": {"n": 2, "nodes": [0.0, 1.0, 2.0], "values": [0.0, 0.0, 1.0]},
             "j_track": [1], "zeta_track": [[math.nan, 0.0]]}], "grid": SMALL_GRID},
         "^centers must stay in the closed half-disc$"),
        ("superposition", {"noise_energy": "0.01", "k_list": [1], "grid": SMALL_GRID},
         r"^malformed superposition parameters: noise_energy: '0\.01' is not a real number$"),
        ("superposition", {"noise_energy": True, "k_list": [1], "grid": SMALL_GRID},
         "^malformed superposition parameters: noise_energy: True is not a real number$"),
        ("superposition", {"noise_energy": math.nan, "k_list": [1], "grid": SMALL_GRID},
         "^noise energy must be finite and nonnegative, got nan$"),
        ("superposition", {"noise_energy": math.inf, "k_list": [1], "grid": SMALL_GRID},
         "^noise energy must be finite and nonnegative, got inf$"),
        ("superposition", {"noise_energy": -0.01, "k_list": [1], "grid": SMALL_GRID},
         r"^noise energy must be finite and nonnegative, got -0\.01$"),
    ], ids=["counterexample-grid", "moser-no-grid", "moser-string-s", "moser-string-center",
            "moser-three-coordinates", "moser-null-coordinate", "vanishing-no-grid", "not-a-dict",
            "terms-object", "zero-profile", "moser-nan-center", "nan-zeta-track", "string-noise",
            "bool-noise", "nan-noise", "infinite-noise", "negative-noise"])
    def test_spec_rejections(self, kind, params, reason):
        with pytest.raises(ValueError, match=reason):
            seqgen.build_sequence(seqgen.GeneratorSpec(kind, params))

    @pytest.mark.parametrize("seed, reason", [
        (True, "^seed: True is not an integer$"),
        (1.5, r"^seed: 1\.5 is not an integer$"),
        (-1, "^seed: -1 is negative$"),
        ("0", "^seed: '0' is not an integer$"),
    ], ids=["bool", "fraction", "negative", "string"])
    def test_the_seed_is_a_nonnegative_integer(self, seed, reason):
        with pytest.raises(ValueError, match=reason):
            seqgen.GeneratorSpec("superposition", {"k_list": [1], "grid": SMALL_GRID}, seed=seed)
