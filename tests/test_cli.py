import json
import math

import numpy as np
import pytest

from moserlab import cli, disc


def run(args) -> int:
    return cli.main(args)


def csv_body(path) -> str:
    # the timestamped comment line is excluded from determinism comparisons
    lines = path.read_text().splitlines()
    return "\n".join(l for l in lines if not l.startswith("#"))


class TestVerifyCommand:
    def test_fresh_checkout_passes(self, tmp_path):
        assert run(["verify", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["ok"] is True
        assert sorted(report["suites"]) == [
            "disc2d", "functional", "profiles", "radial", "rearrangement", "seqgen",
        ]

    def test_corrupted_profile_file_fails_with_named_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"n": 2, "nodes": [0.0, 2.0, 1.0], "values": [0.0, 1.0, 0.5]})
        )
        code = run(["verify", "--profile", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err


class TestMoserLimitCommand:
    def test_table_shape_and_gap_trend(self, tmp_path):
        assert run([
            "moser-limit", "--l-values", "5,10,20,40", "--out", str(tmp_path),
        ]) == 0
        rows = json.loads((tmp_path / "moser_limit.json").read_text())
        assert len(rows) == 4
        gaps = [abs(r["j_direct"] - 2 * math.pi) for r in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_long_ramp_does_not_overflow(self, tmp_path):
        assert run(["moser-limit", "--l-values", "400", "--out", str(tmp_path)]) == 0
        (row,) = json.loads((tmp_path / "moser_limit.json").read_text())
        assert row["j_direct"] == pytest.approx(6.2990, abs=1e-4)

    def test_unresolved_long_ramp_writes_no_row(self, tmp_path, capsys):
        assert run(["moser-limit", "--l-values", "1e5", "--out", str(tmp_path)]) == 1
        assert "functional evaluators disagree" in capsys.readouterr().err
        assert not (tmp_path / "moser_limit.json").exists()

    def test_csv_deterministic_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["moser-limit", "--l-values", "2,4", "--out", str(out)]) == 0
        assert csv_body(a / "moser_limit.csv") == csv_body(b / "moser_limit.csv")
        assert (a / "moser_limit.json").read_bytes() == (b / "moser_limit.json").read_bytes()


class TestCounterexampleCommand:
    def test_constant_energy_and_decaying_quasinorm(self, tmp_path):
        assert run(["counterexample", "--k-max", "12", "--out", str(tmp_path)]) == 0
        rows = json.loads((tmp_path / "counterexample.json").read_text())
        assert len(rows) == 12
        energies = [r["grad_norm"] for r in rows]
        assert max(energies) - min(energies) <= 1e-10
        expl2 = [r["expl2"] for r in rows]
        assert expl2[-1] < expl2[0]
        # the boundary-index quasinorm diverges for every member
        assert all(math.isinf(r["lz_inf_2_-0.5"]) for r in rows)


class TestNormsCommand:
    def test_zero_profile_all_zero(self, tmp_path):
        prof = tmp_path / "zero.json"
        prof.write_text(json.dumps({"n": 2, "nodes": [0.0, 1.0], "values": [0.0, 0.0]}))
        assert run([
            "norms", "--input", str(prof),
            "--indices", "inf,inf,-0.5;inf,2,-1",
            "--out", str(tmp_path),
        ]) == 0
        rows = json.loads((tmp_path / "norms.json").read_text())
        assert all(r["value"] == 0.0 for r in rows)

    def test_unknown_input_rejected(self, tmp_path, capsys):
        bad = tmp_path / "what.json"
        bad.write_text(json.dumps({"stuff": 1}))
        assert run(["norms", "--input", str(bad), "--out", str(tmp_path)]) == 1
        assert "unrecognized" in capsys.readouterr().err


class TestGenerateDecompose:
    def test_round_trip_with_recovery(self, tmp_path):
        seq_dir = tmp_path / "seq"
        assert run([
            "generate", "--kind", "superposition", "--seed", "3",
            "--out", str(seq_dir),
        ]) == 0
        dec_dir = tmp_path / "dec"
        assert run([
            "decompose", "--manifest", str(seq_dir / "manifest.json"),
            "--out", str(dec_dir), "--j-max", "8",
        ]) == 0
        doc = json.loads((dec_dir / "decomposition.json").read_text())
        assert len(doc["terms"]) == 1
        assert doc["energy_ledger"]["slack"] >= -1e-6
        assert (dec_dir / "term_00.json").exists()

    def test_generate_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run([
                "generate", "--kind", "counterexample", "--seed", "7",
                "--out", str(out),
            ]) == 0
        for name in sorted(p.name for p in a.iterdir()):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("kind, params", [
        ("superposition", None),
        ("moser", {"s_values": [0.3], "centers": [[0.0, 0.0]],
                   "grid": {"n_r": 96, "n_theta": 96, "s_max": 6.0}}),
    ], ids=["default-grid", "params-grid"])
    def test_grid_flags_override_the_kind_grid(self, tmp_path, kind, params):
        argv = ["generate", "--kind", kind, "--grid-nr", "64", "--grid-ntheta", "32",
                "--out", str(tmp_path / "g")]
        if params is not None:
            (tmp_path / "p.json").write_text(json.dumps(params))
            argv += ["--params", str(tmp_path / "p.json")]
        assert run(argv) == 0
        manifest = json.loads((tmp_path / "g" / "manifest.json").read_text())
        for name in manifest["members"]:
            rec = json.loads((tmp_path / "g" / name).read_text())
            assert (rec["n_r"], rec["n_theta"]) == (64, 32)

    def test_radial_manifest_rejected_by_decompose(self, tmp_path, capsys):
        seq_dir = tmp_path / "ce"
        assert run([
            "generate", "--kind", "counterexample", "--out", str(seq_dir),
        ]) == 0
        code = run([
            "decompose", "--manifest", str(seq_dir / "manifest.json"),
            "--out", str(tmp_path / "d"),
        ])
        assert code == 2
        assert "disc" in capsys.readouterr().err


class TestMalformedInput:
    """Malformed outside input exits 1 with a one-line reason, no traceback."""

    def _fails_soft(self, argv, command, reason, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"{command}: ") and reason in err
        assert "Traceback" not in err and err.count("\n") == 1

    def test_manifest_without_members(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"k_list": [1], "member_kind": "disc"}))
        self._fails_soft(
            ["decompose", "--manifest", str(manifest), "--out", str(tmp_path / "d")],
            "decompose", "malformed sequence manifest: 'members'", capsys,
        )

    @pytest.mark.parametrize("fields, reason", [
        ({"members": "m.json", "k_list": [1]}, "'members' is not a list of file names"),
        ({"members": ["m.json", 3], "k_list": [1, 2]}, "'members' is not a list of file names"),
        ({"members": ["m.json"], "k_list": "1"}, "'k_list' is not a list of integers"),
        ({"members": ["m.json"], "k_list": [1.5]}, "'k_list' is not a list of integers"),
        ({"members": ["m.json"], "k_list": [True]}, "'k_list' is not a list of integers"),
    ], ids=["members-string", "members-number", "k-list-string", "k-list-float", "k-list-bool"])
    def test_manifest_with_wrong_types(self, tmp_path, capsys, fields, reason):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({**fields, "member_kind": "disc"}))
        self._fails_soft(
            ["decompose", "--manifest", str(manifest), "--out", str(tmp_path / "d")],
            "decompose", f"malformed sequence manifest: {reason}", capsys,
        )

    def test_manifest_that_is_not_an_object(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(["m.json"]))
        self._fails_soft(
            ["decompose", "--manifest", str(manifest), "--out", str(tmp_path / "d")],
            "decompose", "malformed sequence manifest", capsys,
        )

    def test_manifest_with_empty_members(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps({"k_list": [], "members": [], "member_kind": "disc"})
        )
        self._fails_soft(
            ["decompose", "--manifest", str(manifest), "--out", str(tmp_path / "d")],
            "decompose", "at least one member", capsys,
        )

    def test_moser_params_without_s_values(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"centers": [[0.0, 0.0]]}))
        self._fails_soft(
            ["generate", "--kind", "moser", "--params", str(params),
             "--out", str(tmp_path / "g")],
            "generate", "malformed moser parameters: 's_values'", capsys,
        )

    def test_superposition_term_without_profile(self, tmp_path, capsys):
        params = tmp_path / "p.json"
        params.write_text(
            json.dumps({"terms": [{"j_track": [1], "zeta_track": [[0.0, 0.0]]}]})
        )
        self._fails_soft(
            ["generate", "--kind", "superposition", "--params", str(params),
             "--out", str(tmp_path / "g")],
            "generate", "malformed superposition parameters: 'profile'", capsys,
        )

    @pytest.mark.parametrize("kind, params", [
        ("moser", {"s_values": 0.5, "centers": [0]}),
        ("moser", {"s_values": [0.5], "centers": [[0.1]]}),
        ("vanishing", {
            "k_values": 3,
            "bump_profile": {"n": 2, "nodes": [0.0, 1.0], "values": [0.0, 1.0]},
        }),
        ("superposition", {"terms": [{
            "profile": {"n": 2, "nodes": [0.0, 1.0], "values": [0.0, 1.0]},
            "j_track": 3, "zeta_track": [[0.0, 0.0]],
        }]}),
        ("superposition", {"terms": 3}),
        ("superposition", {"terms": [3]}),
        ("moser", [1, 2]),
    ], ids=["s-values-number", "center-one-coordinate", "k-values-number",
            "j-track-number", "terms-number", "term-number", "not-an-object"])
    def test_generator_params_with_wrong_types(self, tmp_path, capsys, kind, params):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        self._fails_soft(
            ["generate", "--kind", kind, "--params", str(path),
             "--out", str(tmp_path / "g")],
            "generate", f"malformed {kind} parameters: ", capsys,
        )

    @pytest.mark.parametrize("extra, params", [
        (["--grid-nr", "64"], None),
        ([], {"k_max": 3, "grid": {"n_r": 64, "n_theta": 64}}),
    ], ids=["counterexample-grid-flag", "counterexample-params-grid"])
    def test_counterexample_takes_no_grid(self, tmp_path, capsys, extra, params):
        if params is not None:
            path = tmp_path / "p.json"
            path.write_text(json.dumps(params))
            extra = extra + ["--params", str(path)]
        self._fails_soft(
            ["generate", "--kind", "counterexample", "--out", str(tmp_path / "g"), *extra],
            "generate", "counterexample members are radial profiles and take no grid", capsys,
        )
        assert not (tmp_path / "g" / "manifest.json").exists()

    def test_norms_input_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text("3")
        self._fails_soft(
            ["norms", "--input", str(path), "--out", str(tmp_path / "n")],
            "norms", "unrecognized input file: not a JSON object", capsys,
        )

    def test_disc_record_of_a_foreign_spacing_kind(self, tmp_path, capsys):
        grid = disc.PolarGrid(n_r=16, n_theta=32, s_max=3.0)
        rings = np.zeros((grid.n_r, grid.n_theta))
        doc = disc.disc_to_dict(disc.DiscFunction(grid, 1.0, rings))
        doc["spacing"]["kind"] = "uniform"
        path = tmp_path / "u.json"
        path.write_text(json.dumps(doc))
        self._fails_soft(
            ["norms", "--input", str(path), "--out", str(tmp_path / "n")],
            "norms", "unknown grid spacing 'uniform'", capsys,
        )

    @pytest.mark.parametrize("field, value, reason", [
        ("n_r", 16.5, "grid sizes must be integers"),
        ("n_theta", 32.5, "grid sizes must be integers"),
        ("s_max", math.inf, "finite s_max > 0"),
        ("s_max", math.nan, "finite s_max > 0"),
    ], ids=["fractional-n_r", "fractional-n_theta", "infinite-s_max", "nan-s_max"])
    def test_disc_record_of_a_malformed_grid(self, tmp_path, capsys, field, value, reason):
        grid = disc.PolarGrid(n_r=16, n_theta=32, s_max=3.0)
        doc = disc.disc_to_dict(disc.DiscFunction(grid, 1.0, np.zeros((16, 32))))
        if field == "s_max":
            doc["spacing"]["s_max"] = value
        else:
            doc[field] = value
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        self._fails_soft(
            ["norms", "--input", str(path), "--out", str(tmp_path / "n")],
            "norms", reason, capsys,
        )

    @pytest.mark.parametrize("field, value, reason", [
        ("n_r", 64.5, "grid sizes must be integers"),
        ("s_max", math.inf, "finite s_max > 0"),
    ], ids=["fractional-n_r", "infinite-s_max"])
    def test_generator_grid_malformed(self, tmp_path, capsys, field, value, reason):
        params = json.loads(json.dumps(cli._DEFAULT_PARAMS["moser"]))
        params["grid"] = {"n_r": 64, "n_theta": 32, "s_max": 6.0, field: value}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        self._fails_soft(
            ["generate", "--kind", "moser", "--params", str(path),
             "--out", str(tmp_path / "g")],
            "generate", reason, capsys,
        )

    @pytest.mark.parametrize("breakpoints, values, reason", [
        ([0.5, 1.0], [math.nan, 0.0], "must be finite"),
        ([0.5, 1.0], [math.inf, 1.0], "must be finite"),
        ([math.nan, 1.0], [1.0, 0.5], "must be finite"),
        ({"a": 1.0}, [1.0], "malformed rearranged-function record"),
    ], ids=["nan-value", "inf-value", "nan-breakpoint", "breakpoints-object"])
    def test_malformed_rearrangement(self, tmp_path, capsys, breakpoints, values, reason):
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"breakpoints": breakpoints, "values": values, "kind": "step"}))
        self._fails_soft(
            ["norms", "--input", str(path), "--out", str(tmp_path / "n")],
            "norms", reason, capsys,
        )

    def test_generator_grid_of_a_foreign_spacing_kind(self, tmp_path, capsys):
        params = json.loads(json.dumps(cli._DEFAULT_PARAMS["moser"]))
        params["grid"] = {"n_r": 64, "n_theta": 32, "spacing": "uniform", "s_max": 6.0}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(params))
        self._fails_soft(
            ["generate", "--kind", "moser", "--params", str(path),
             "--out", str(tmp_path / "g")],
            "generate", "unknown grid spacing 'uniform'", capsys,
        )

    @pytest.mark.parametrize("command, code, prefix", [
        ("verify", 2, "profile validation failed: "),
        ("generate", 1, "generate: "),
        ("norms", 1, "norms: "),
    ], ids=["verify", "generate", "norms"])
    def test_non_planar_profile_record(self, tmp_path, capsys, command, code, prefix):
        record = {"n": 3, "nodes": [0.0, 1.0], "values": [0.0, 1.0]}
        path = tmp_path / "p.json"
        out = tmp_path / "o"
        if command == "generate":
            path.write_text(json.dumps({"terms": [
                {"profile": record, "j_track": [1], "zeta_track": [[0.0, 0.0]]}
            ]}))
            argv = ["generate", "--kind", "superposition", "--params", str(path)]
        else:
            path.write_text(json.dumps(record))
            argv = [command, "--profile" if command == "verify" else "--input", str(path)]
        assert run([*argv, "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err == prefix + "radial profiles are planar: the dimension must be 2, got 3\n"
        assert not (out / "manifest.json").exists()
