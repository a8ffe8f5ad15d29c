import argparse
import inspect
import json
import math
import re

import numpy as np
import pytest

from moserlab import cli, disc, functional, profiles, radial, seqgen, verify


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

    def test_a_failing_check_is_reported(self, tmp_path, capsys, monkeypatch):
        failing = {"check": "planted-failure", "ok": False, "detail": "by design"}
        monkeypatch.setitem(verify.SUITES, "seqgen", lambda: [failing])
        assert run(["verify", "--out", str(tmp_path)]) == 1
        out, err = capsys.readouterr()
        assert "[FAIL] seqgen" in out.splitlines() and "[ok] radial" in out.splitlines()
        assert err.splitlines() == [
            "    failing: planted-failure by design", "verification failed at: planted-failure",
        ]
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert report["ok"] is False
        assert report["suites"]["seqgen"] == {"ok": False, "checks": [failing]}


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
        ({"members": ["m.json"], "k_list": "1"}, "'k_list' is not a list"),
        ({"members": ["m.json"], "k_list": [1.5]}, "k_list: 1.5 is not an integer"),
        ({"members": ["m.json"], "k_list": [True]}, "k_list: True is not an integer"),
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
        ("moser", {"s_values": ["0.3"], "centers": [[0.1, 0.0]]}),
        ("moser", {"s_values": [0.3], "centers": ["0.1"]}),
        ("moser", {"s_values": [0.3], "centers": [[0.1, 0.0, "x"]]}),
        ("moser", {"s_values": [0.3], "centers": [[0.1, True]]}),
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
    ], ids=["s-values-number", "center-one-coordinate", "s-value-string", "center-string",
            "center-three-coordinates", "center-bool", "k-values-number",
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

    @pytest.mark.parametrize("indices", ["inf,inf,nan", "inf,2,nan", "inf,2,-1;inf,2,inf"])
    def test_norms_index_of_a_non_finite_alpha(self, tmp_path, capsys, indices):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "nodes": [0.0, 1.0], "values": [0.0, 1.0]}))
        self._fails_soft(
            ["norms", "--input", str(path), "--indices", indices,
             "--out", str(tmp_path / "n")],
            "norms", "third index must be finite", capsys,
        )
        assert not (tmp_path / "n" / "norms.json").exists()

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
        ("n_r", 16.5, "n_r: 16.5 is not an integer"),
        ("n_theta", 32.5, "n_theta: 32.5 is not an integer"),
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
        ("center", "0.5", "center: '0.5' is not a real number"),
        ("support_radius", True, "support_radius: True is not a real number"),
        ("s_max", "3.0", "s_max: '3.0' is not a real number"),
        ("rings", "0.0", "rings: entries of type str are not real numbers"),
    ], ids=["string-center", "bool-support", "string-s_max", "string-ring"])
    def test_disc_record_with_a_non_number(self, tmp_path, capsys, field, value, reason):
        grid = disc.PolarGrid(n_r=16, n_theta=32, s_max=3.0)
        doc = disc.disc_to_dict(disc.DiscFunction(grid, 1.0, np.zeros((16, 32))))
        if field == "s_max":
            doc["spacing"]["s_max"] = value
        elif field == "rings":
            doc["rings"][5] = value
        else:
            doc[field] = value
        path = tmp_path / "u.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "n"
        self._fails_soft(["norms", "--input", str(path), "--out", str(out)], "norms", reason, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("nodes, values, reason", [
        (["0", "1"], [0.0, 1.0], "nodes: entries of type str are not real numbers"),
        ([0.0, 1.0], [0.0, True], "values: entries of type bool are not real numbers"),
    ], ids=["string-nodes", "bool-value"])
    def test_profile_record_with_a_non_number(self, tmp_path, capsys, nodes, values, reason):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"n": 2, "nodes": nodes, "values": values}))
        out = tmp_path / "n"
        self._fails_soft(["norms", "--input", str(path), "--out", str(out)], "norms", reason, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("field, value, reason", [
        ("n_r", 64.5, "n_r: 64.5 is not an integer"),
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
        (["0.5", 1.0], [1.0, 0.5], "breakpoints: entries of type str are not real numbers"),
        ([True, 1.0], [1.0, 0.5], "breakpoints: entries of type bool are not real numbers"),
    ], ids=["nan-value", "inf-value", "nan-breakpoint", "breakpoints-object",
            "string-breakpoint", "bool-breakpoint"])
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


def test_cli_defaults_are_the_library_defaults():
    parser = cli.build_parser()
    dec = parser.parse_args(["decompose", "--manifest", "m"])
    gen = parser.parse_args(["generate", "--kind", "moser"])
    ml = parser.parse_args(["moser-limit"])
    spec = functional.QuadratureSpec()
    extract = inspect.signature(profiles.extract).parameters
    seed = inspect.signature(seqgen.GeneratorSpec).parameters["seed"].default
    assert (ml.rel_tol, ml.abs_tol) == (spec.rel_tol, spec.abs_tol)
    assert [getattr(dec, k) for k in ("eps_stop", "max_terms", "j_max")] == [
        extract[k].default for k in ("eps_stop", "max_terms", "j_max")
    ]
    assert gen.seed == seed


def test_each_command_takes_only_the_flags_it_reads():
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(commands.choices) == [
        "counterexample", "decompose", "generate", "moser-limit", "norms", "verify",
    ]
    for name, p in commands.choices.items():
        dests = {a.dest for a in p._actions if a.option_strings and a.dest != "help"}
        reads = set(re.findall(r"\bargs\.(\w+)", inspect.getsource(p.get_default("fn"))))
        assert dests == reads, name


@pytest.mark.parametrize("argv", [
    ["verify", "--seed", "3"],
    ["moser-limit", "--j-max", "8"],
    ["counterexample", "--seed", "3"],
    ["norms", "--input", "planar.json", "--rel-tol", "1e-3"],
    ["generate", "--kind", "moser", "--eps-stop", "0.1"],
    ["decompose", "--manifest", "manifest.json", "--grid-nr", "64"],
], ids=lambda argv: argv[0])
def test_an_unread_flag_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", str(out)])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, code, reason", [
    (["norms", "--input", "planar.json", "--indices", "inf,inf,nan"], 1, "finite"),
    (["norms", "--input", "planar.json", "--indices", "inf,inf"], 1,
     "index 'inf,inf' needs three fields p,q,alpha"),
    (["norms", "--input", "zero_trace.json"], 1, "zero_trace: 'false' is not a boolean"),
    (["generate", "--kind", "moser", "--params", "n3.json"], 1, "malformed moser parameters"),
    (["decompose", "--manifest", "missing.json"], 1, "missing.json"),
    (["decompose", "--manifest", "manifest.json", "--max-terms", "-1"], 1, "term cap"),
    (["decompose", "--manifest", "manifest.json", "--eps-stop", "nan"], 1, "stop threshold"),
    (["decompose", "--manifest", "missing.json", "--max-terms", "-1"], 1, "term cap"),
    (["decompose", "--manifest", "missing.json", "--j-max", "0"], 1, "scale cap"),
    (["generate", "--kind", "superposition", "--params", "j_track.json"], 1,
     "j_track: 1.5 is not an integer"),
    (["generate", "--kind", "superposition", "--params", "k_list.json"], 1,
     "k_list: 1.9 is not an integer"),
    (["generate", "--kind", "counterexample", "--params", "k_max.json"], 1,
     "k_max: 2.5 is not an integer"),
    (["generate", "--kind", "vanishing", "--params", "k_values.json"], 1,
     "k_values: 2.5 is not an integer"),
    (["generate", "--kind", "superposition", "--params", "zero.json"], 1,
     "superposition term 0: the profile has zero energy"),
    (["verify", "--profile", "n3.json"], 2, "planar"),
    (["moser-limit", "--l-values", "5,3"], 1, "increasing"),
    (["moser-limit", "--rel-tol", "nan"], 1, "tolerances"),
    (["moser-limit", "--abs-tol", "nan"], 1, "tolerances"),
    (["counterexample", "--k-max", "0"], 1, ""),
], ids=["norms", "norms-two-fields", "norms-zero-trace", "generate", "decompose",
        "decompose-max-terms", "decompose-eps-stop", "decompose-max-terms-unread", "decompose-j-max-unread",
        "generate-j-track", "generate-k-list", "generate-k-max", "generate-k-values",
        "generate-zero-profile", "verify", "moser-limit", "moser-limit-rel-tol",
        "moser-limit-abs-tol", "counterexample"])
def test_a_rejected_command_writes_nothing(tmp_path, capsys, argv, code, reason):
    record = {"n": 2, "nodes": [0.0, 1.0], "values": [0.0, 1.0]}
    (tmp_path / "planar.json").write_text(json.dumps(record))
    (tmp_path / "n3.json").write_text(json.dumps({**record, "n": 3}))
    # generator parameters with fractional indices, on grids too small to matter
    small = {"n_r": 16, "n_theta": 32, "s_max": 4.5}
    term = {"profile": record, "j_track": [1, 1.5, 2.9], "zeta_track": [[0.1, 0.05]] * 3}
    for name, params in {
        "j_track.json": {"terms": [term], "grid": small},
        "k_list.json": {"k_list": [1.9, 2.5, 3.7], "terms": [], "grid": small},
        "k_max.json": {"k_max": 2.5},
        "k_values.json": {"k_values": [1, 2.5, 4.9], "bump_profile": record, "grid": small},
        "zero.json": {"terms": [{**term, "profile": {**record, "values": [0.0, 0.0]},
                                 "j_track": [1, 1, 2]}], "grid": small},
        # a string where a JSON boolean belongs, on a record with a live boundary ring
        "zero_trace.json": {**disc.disc_to_dict(disc.DiscFunction(
            disc.PolarGrid(16, 32), 1.0, np.ones((16, 32)), zero_trace=False)),
            "zero_trace": "false"},
    }.items():
        (tmp_path / name).write_text(json.dumps(params))
    if "manifest.json" in argv:
        grid = disc.PolarGrid(n_r=16, n_theta=32, s_max=2.0)
        seq = profiles.FunctionSequence([disc.angular_mode(radial.moser_annular(1.0), grid, 1)], [1])
        seqgen.save_sequence(seq, str(tmp_path), {})
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and reason in err
    assert not out.exists()


# one integer rule for every outside input: an integral float is read as its int;
# a fractional float, a bool, null, a string and Infinity are rejected by name
_BUMP = {"n": 2, "nodes": [0.0, 0.8, 1.6, 2.4], "values": [0.0, 0.0, 1.0, 0.0]}
_SMALL = {"n_r": 16, "n_theta": 32, "s_max": 4.5}


def _integer_input(tmp_path, name, v):
    """The argv that carries v as the input `name`, and a check of the output."""
    small, term = dict(_SMALL), {"profile": _BUMP, "j_track": [1, 1], "zeta_track": [[0, 0]] * 2}
    if name in ("n_r", "n_theta"):
        small[name] = v
    if name == "j_track":
        term["j_track"] = [1, v]
    kind, params = {
        "k_list": ("superposition", {"k_list": [1, v], "terms": [], "grid": small}),
        "k_max": ("counterexample", {"k_max": v}),
        "k_values": ("vanishing", {"k_values": [1, v], "bump_profile": _BUMP, "grid": small}),
        "j_track": ("superposition", {"terms": [term], "grid": small}),
        "n_r": ("superposition", {"k_list": [1], "terms": [], "grid": small}),
        "n_theta": ("superposition", {"k_list": [1], "terms": [], "grid": small}),
    }[name]
    (tmp_path / "p.json").write_text(json.dumps(params))
    argv = ["generate", "--kind", kind, "--params", str(tmp_path / "p.json")]

    def check(out):
        # the JSON text tells 2 from 2.0
        manifest = json.loads((out / "manifest.json").read_text())
        if name in ("n_r", "n_theta"):
            assert f'"{name}": {int(v)},' in (out / manifest["members"][0]).read_text()
        elif name == "j_track":
            assert json.dumps(manifest["planted_terms"][0]["j_track"]) == "[1, 2]"
        else:
            assert json.dumps(manifest[name]) == ("2" if name == "k_max" else "[1, 2]")
    return argv, check


@pytest.mark.parametrize("value", ["integral", 2.5, True, None, "2", math.inf],
                         ids=["integral-float", "fractional", "true", "null", "string",
                              "infinity"])
@pytest.mark.parametrize("name", ["k_list", "k_max", "k_values", "j_track", "n_r", "n_theta",
                                  "manifest-k_list", "DislocationParam.j"])
def test_one_integer_rule_for_every_outside_input(tmp_path, capsys, name, value):
    v = {"n_r": 16.0, "n_theta": 32.0}.get(name, 2.0) if value == "integral" else value
    if name == "DislocationParam.j":
        if value == "integral":
            assert type(disc.DislocationParam(v, 0.0).j) is int
        else:
            with pytest.raises(ValueError, match=r"^j: .* is not an integer$"):
                disc.DislocationParam(v, 0.0)
        return
    if name == "manifest-k_list":
        grid = disc.PolarGrid(n_r=16, n_theta=32, s_max=2.0)
        seq = profiles.FunctionSequence([disc.angular_mode(radial.moser_annular(1.0), grid, 1)], [1])
        path = seqgen.save_sequence(seq, str(tmp_path), {})
        doc = json.loads((tmp_path / "manifest.json").read_text())
        (tmp_path / "manifest.json").write_text(json.dumps({**doc, "k_list": [v]}))
        argv, name = ["decompose", "--manifest", path, "--j-max", "4"], "k_list"

        def check(out):
            rows = (out / "remainder.csv").read_text().splitlines()
            assert rows[2].startswith("2,")
    else:
        argv, check = _integer_input(tmp_path, name, v)
    out = tmp_path / "out"
    code = run([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    if value == "integral":
        assert code == 0, err
        check(out)
    else:
        assert code == 1
        assert err.count("\n") == 1 and f"{name}: {v!r} is not an integer" in err
        assert "Traceback" not in err and not out.exists()
