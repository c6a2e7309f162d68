"""CLI harness: exit codes, determinism, serialization round trips."""

import csv
import io
import json
import math

import pytest
from click.testing import CliRunner

from qgamble import analysis
from qgamble.analysis import all_thetas_peak_in_plane
from qgamble.cli import ResultDocument, main, serialize
from qgamble.protocol import StateLabel

runner = CliRunner()


def run_cli(*args):
    return runner.invoke(main, list(args))


class TestVerifyCommand:
    def test_all_checks_pass(self):
        result = run_cli("verify", "-R", "10000")
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        assert doc["passed"] is True
        assert doc["version"]
        assert all(row["passed"] for row in doc["rows"])

    @pytest.mark.parametrize("args", [("-R", "10"), ("-R", "19"), ("-r", "0.05", "-R", "100")])
    def test_optimizer_rows_pass_when_theta_star_leaves_the_bracket(self, args):
        # theta* = 2(1+sqrt 2)/(rR) lies past the searched pi/4 here, so the
        # optimizer is held to the edge pi/4 and the bound's value there.
        result = run_cli("verify", *args)
        rows = {r["name"]: r for r in json.loads(result.output)["rows"]}
        theta = rows["optimizer_matches_theta_star"]
        assert theta["passed"] is True
        assert theta["expected"] == math.pi / 4.0
        assert rows["optimizer_matches_gain_max"]["passed"] is True

    def test_small_penalty_passes(self):
        result = run_cli("verify", "-R", "10")
        assert result.exit_code == 0, result.output

    def test_rows_carry_comparisons(self):
        result = run_cli("verify")
        doc = json.loads(result.output)
        for row in doc["rows"]:
            assert {"name", "value", "expected", "tolerance", "passed"} <= set(row)

    def test_check_failure_exits_one(self, monkeypatch):
        from qgamble import cli as cli_mod

        def broken(alice, params):
            g = analysis.oracle_expected_gain(alice, params)
            return analysis.GainBreakdown.from_terms(
                g.normal_term + 0.5, g.detect_term, g.pass_term
            )

        monkeypatch.setattr(cli_mod.analysis, "oracle_expected_gain", broken)
        result = run_cli("verify")
        assert result.exit_code == 1


class TestHonestCommand:
    def test_reports_win_rate(self):
        result = run_cli("honest", "--rounds", "100000", "--seed", "1")
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        rows = {r["name"]: r for r in doc["rows"]}
        p = analysis.protocol_constants().guess_prob
        assert abs(rows["bob_win_rate"]["value"] - p) < 0.01
        assert rows["alice_gain_per_round"]["std_error"] > 0.0

    def test_reproducible_byte_identical(self):
        a = run_cli("honest", "--rounds", "20000", "--seed", "5")
        b = run_cli("honest", "--rounds", "20000", "--seed", "5")
        assert a.output == b.output

    def test_transcript_export(self, tmp_path):
        path = tmp_path / "transcript.csv"
        result = run_cli(
            "honest", "--rounds", "5000", "--seed", "2", "--format", "csv",
            "--transcript", str(path), "--transcript-rounds", "50",
        )
        assert result.exit_code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "round_type,bob_guess,alice_claim,check_result,transfer"
        assert len(lines) == 51

    def test_output_file(self, tmp_path):
        out = tmp_path / "result.json"
        result = run_cli(
            "honest", "--rounds", "10000", "--seed", "3", "--output", str(out)
        )
        assert result.exit_code == 0
        assert result.output == ""
        doc = json.loads(out.read_text())
        assert doc["command"] == "honest"
        assert doc["config"]["seed"] == 3


class TestCheatCommand:
    def test_oracle_and_monte_carlo(self):
        result = run_cli(
            "cheat", "--theta", "0.0346409", "--claim", "zero",
            "--rounds", "200000", "--seed", "4",
            "-r", "0.0139385", "-R", "10000",
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        rows = {r["name"]: r for r in doc["rows"]}
        assert rows["closed_form_matches_oracle"]["passed"]
        assert rows["monte_carlo_matches_oracle"]["passed"]
        assert rows["oracle_gain_per_round"]["value"] == pytest.approx(0.0757, abs=2e-3)

    @pytest.mark.parametrize("theta, nearest", [("0.3", "zero"), ("1.3", "plus")])
    def test_default_claim_is_the_nearest_label(self, theta, nearest):
        args = ("cheat", "--seed", "2", "--rounds", "20000", "-r", "0.05", "-R", "100",
                "--theta", theta)
        default, explicit = run_cli(*args), run_cli(*args, "--claim", nearest)
        assert default.exit_code == explicit.exit_code == 0, default.output
        rows = json.loads(default.output)["rows"]
        assert rows[0] == {"section": "metric", "name": "claim_label", "value": nearest}
        assert rows == json.loads(explicit.output)["rows"]

    def test_theta_out_of_range_is_config_error(self):
        result = run_cli("cheat", "--theta", "9")
        assert result.exit_code == 2
        assert "theta" in result.output

    def test_theta_required(self):
        result = run_cli("cheat")
        assert result.exit_code == 2
        assert "theta" in result.output

    def test_bad_claim_named(self):
        result = run_cli("cheat", "--theta", "0.1", "--claim", "maybe")
        assert result.exit_code == 2
        assert "claim" in result.output

    @pytest.mark.parametrize(
        "args",
        [("-r", "0.1", "-R", "nan"), ("-R", "nan"), ("-R", "inf"), ("-r", "0.1", "-R", "inf")],
    )
    def test_non_finite_penalty_names_penalty(self, args):
        result = run_cli("cheat", "--theta", "0.1", "--rounds", "1000", *args)
        assert result.exit_code == 2
        assert "--penalty" in result.output
        assert "--check-rate" not in result.output


class TestSweepCommand:
    def test_grid_and_cap(self):
        result = run_cli(
            "sweep", "--theta-points", "40", "-R", "100"
        )
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        grid = [r for r in doc["rows"] if r["section"] == "grid"]
        assert len(grid) == 40 * 3 * 2
        checks = {r["name"] for r in doc["rows"] if r["section"] == "check"}
        assert "max_in_zx_plane" in checks
        assert "max_gain_within_cap" in checks

    def test_in_plane_check_uses_better_in_plane_azimuth(self):
        # Here azimuth pi (polar -theta) often beats azimuth 0, so off-plane
        # azimuths between them beat azimuth 0 too; the check must compare
        # against the better of the two in-plane azimuths.
        result = run_cli("sweep", "-r", "0.02", "-R", "100", "--theta-max", "1.5")
        assert result.exit_code == 0, result.output
        rows = {r["name"]: r for r in json.loads(result.output)["rows"]
                if r["section"] == "check"}
        assert rows["max_in_zx_plane"]["passed"] is True

    def test_in_plane_check_runs_without_azimuth_zero(self):
        result = run_cli("sweep", "-R", "100", "--theta-points", "10",
                         "--phi-grid", "0.5,1.0")
        assert result.exit_code == 0, result.output
        rows = {r["name"]: r for r in json.loads(result.output)["rows"]
                if r["section"] == "check"}
        assert rows["max_in_zx_plane"]["passed"] is True

    def test_in_plane_check_flags_off_plane_peak(self):
        rate, penalty = 0.02, 100.0
        result = analysis.sweep_cheat_gain(rate, penalty, [0.3, 1.2], [0.0, 1.0])
        assert all_thetas_peak_in_plane(result, rate, penalty)
        # Lift the last (off-plane) row 1e-9 above the best in-plane gain at
        # its theta, found over azimuths 0 and pi (polar +theta and -theta).
        row = result.rows[-1]
        in_plane = max(
            analysis.cheat_gain_exact(polar, rate, penalty, claim).total
            for polar in (row.theta, -row.theta)
            for claim in StateLabel
        )
        raised = row._replace(gain=analysis.GainBreakdown.from_terms(
            row.gain.normal_term + in_plane + 1e-9 - row.gain.total,
            row.gain.detect_term, row.gain.pass_term))
        tampered = result._replace(rows=result.rows[:-1] + (raised,))
        assert not all_thetas_peak_in_plane(tampered, rate, penalty)

    @pytest.mark.parametrize(
        "args",
        [("--theta-max", "nan"), ("--theta-max", "inf"), ("--theta-max", "-inf"),
         ("--phi-grid", "nan"), ("--phi-grid", "0,inf")],
    )
    def test_non_finite_grid_names_option(self, args):
        result = run_cli("sweep", "--theta-points", "5", *args)
        assert result.exit_code == 2
        assert args[0] in result.output
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("value", ["-1", "0", "100"])
    def test_theta_max_out_of_range_names_option(self, value):
        result = run_cli("sweep", "--theta-points", "5", "--theta-max", value)
        assert result.exit_code == 2
        assert "--theta-max" in result.output
        assert "(0, pi]" in result.output

    def test_explicit_rate_skips_cap_check(self):
        result = run_cli(
            "sweep", "--theta-points", "10", "-r", "0.25", "-R", "100",
            "--phi-grid", "0",
        )
        doc = json.loads(result.output)
        names = {r["name"] for r in doc["rows"] if r["section"] == "check"}
        assert "max_gain_within_cap" not in names


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "-R", "1e8"),
        ("sweep", "-r", "0.3", "-R", "1e5", "--theta-max", "3.1"),
        ("entangle", "-r", "0.5", "-R", "1e6"),
    ],
)
def test_large_penalty_reports_check_rows(args):
    # Gains of order r*R pass 4096, where one ulp exceeds 1e-12: the
    # breakdown's sum check must scale with them instead of raising.
    result = run_cli(*args)
    assert result.exit_code in (0, 1), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    doc = json.loads(result.output)
    assert any(r["section"] == "check" for r in doc["rows"])


def _shift_closed_form(monkeypatch, relative):
    """Move every closed-form gain by `relative` times max(1, |gain|)."""
    real = analysis.cheat_gain_exact

    def shifted(theta, check_rate, penalty, claim):
        g = real(theta, check_rate, penalty, claim)
        return analysis.GainBreakdown.from_terms(
            g.normal_term + relative * max(1.0, abs(g.total)), g.detect_term, g.pass_term
        )

    monkeypatch.setattr(analysis, "cheat_gain_exact", shifted)


class TestExactTolerance:
    """Rows comparing two exact routes allow 1e-12 times the compared
    magnitude, and never less than 1e-12: an ulp at gains of order r*R is no
    failure, a real gap still is."""

    CASES = [
        (("cheat", "-r", "0.5", "-R", "1e6", "--theta", "1.0"), "closed_form_matches_oracle", 1e-9),
        (("verify", "-R", "1e8"), "closed_form_matches_oracle_grid", 1e-9),
        (("sweep", "-r", "0.3", "-R", "1e5", "--theta-max", "3.1"), "max_in_zx_plane", -1e-9),
    ]

    @pytest.mark.parametrize("args, name, _", CASES)
    def test_large_magnitude_rows_pass(self, args, name, _):
        result = run_cli(*args)
        assert result.exit_code == 0, result.output
        rows = {r["name"]: r for r in json.loads(result.output)["rows"]
                if r["section"] == "check"}
        assert rows[name]["passed"] is True

    @pytest.mark.parametrize("args, name, shift", CASES)
    def test_tampered_gap_fails(self, monkeypatch, args, name, shift):
        _shift_closed_form(monkeypatch, shift)
        result = run_cli(*args)
        assert result.exit_code == 1, result.output
        rows = {r["name"]: r for r in json.loads(result.output)["rows"]
                if r["section"] == "check"}
        assert rows[name]["passed"] is False

    @pytest.mark.parametrize("relative, failing", [(1e-13, 0), (1e-9, 50)])
    def test_gain_ceiling_slack_scales(self, monkeypatch, relative, failing):
        # A ceiling just under the closed-form gain (which the oracle matches
        # to an ulp) by `relative` times the magnitude.
        def ceiling(theta, check_rate, penalty, claim):
            total = analysis.cheat_gain_exact(theta, check_rate, penalty, claim).total
            return total - relative * max(1.0, abs(total))

        monkeypatch.setattr(analysis, "claim_gain_upper_bound", ceiling)
        result = run_cli("verify", "-R", "1e8")
        names = [r["name"] for r in json.loads(result.output)["rows"]
                 if r["section"] == "check"]
        assert sum(n.startswith("gain_ceiling[") for n in names) == failing

    def test_slack_is_absolute_up_to_magnitude_one(self):
        assert analysis.exact_tolerance(0.5, -1.0) == 1e-12
        assert analysis.exact_tolerance(-4096.0, 2.0) == 4096.0 * 1e-12

    def test_in_plane_check_flags_large_magnitude_gap(self):
        rate, penalty = 0.3, 1e5
        result = analysis.sweep_cheat_gain(rate, penalty, [0.3, 2.5], [0.0, 1.0])
        assert all_thetas_peak_in_plane(result, rate, penalty)
        row = result.rows[-1]
        in_plane = max(
            analysis.cheat_gain_exact(polar, rate, penalty, claim).total
            for polar in (row.theta, -row.theta)
            for claim in StateLabel
        )
        assert abs(in_plane) > 1e3
        lift = in_plane + 1e-9 * abs(in_plane) - row.gain.total
        raised = row._replace(gain=analysis.GainBreakdown.from_terms(
            row.gain.normal_term + lift, row.gain.detect_term, row.gain.pass_term))
        tampered = result._replace(rows=result.rows[:-1] + (raised,))
        assert not all_thetas_peak_in_plane(tampered, rate, penalty)


class TestEntangleCommand:
    def test_reductions_and_weights(self):
        result = run_cli("entangle", "-R", "10000")
        assert result.exit_code == 0, result.output
        doc = json.loads(result.output)
        rows = {r["name"]: r for r in doc["rows"]}
        assert rows["constant_z_equals_honest"]["passed"]
        assert rows["steered_state_weight"]["value"] == pytest.approx(
            (2.0 + math.sqrt(2.0)) / 4.0, abs=1e-12
        )
        assert rows["constant_x_gain_negative"]["value"] < 0.0

    @pytest.mark.parametrize(
        "args",
        [("entangle", "-R", "100", "-r", "0.05"), ("verify", "-r", "0.05", "-R", "100")],
        ids=["entangle", "verify"],
    )
    def test_winning_constant_x_is_not_held_to_a_loss(self, args):
        # r*R = 5 lies below (1+sqrt 2)(4-r) = 9.54: the constant-x attack
        # earns +1.134 per round here, and no row may claim it loses.
        result = run_cli(*args)
        assert result.exit_code == 0, result.output
        rows = {r["name"]: r for r in json.loads(result.output)["rows"]}
        assert "constant_x_gain_negative" not in rows
        if args[0] == "entangle":
            x_gain = rows["policy_gain[zero->x,plus->x]"]["value"]
            assert x_gain == pytest.approx(1.1340358928434298, abs=1e-12)

    @pytest.mark.parametrize(
        "args, x_gain",
        [(("-R", "100", "-r", "0.1"), -0.14614177668623324), (("-R", "50", "-r", "0.3"), None)],
        ids=["R100", "R50"],
    )
    def test_losing_constant_x_is_checked(self, args, x_gain):
        result = run_cli("entangle", *args)
        assert result.exit_code == 0, result.output
        rows = {r["name"]: r for r in json.loads(result.output)["rows"]}
        row = rows["constant_x_gain_negative"]
        assert row["passed"] and row["value"] < 0.0
        assert row["value"] == rows["policy_gain[zero->x,plus->x]"]["value"]
        if x_gain is not None:
            assert row["value"] == pytest.approx(x_gain, abs=1e-12)

    @pytest.mark.parametrize("noise", [0.0, 0.05, 0.3])
    def test_constant_x_row_exactly_where_the_attack_loses(self, noise):
        # The noiseless gain (1-r)(1+sqrt 2) + r(3(1+sqrt 2)/4 - R/4) is
        # negative exactly when r*R > (1+sqrt 2)(4-r); noise only adds
        # check fails, so the row passes wherever it appears.
        from qgamble import cli as cli_mod
        from qgamble.protocol import ProtocolParams

        a = 1.0 + math.sqrt(2.0)
        for rate in (0.01, 0.05, 0.1, 0.3, 0.6, 0.9):
            for penalty in (5.0, 20.0, 50.0, 100.0, 1000.0):
                params = ProtocolParams(rate, penalty, noise=noise)
                rows = {r["name"]: r for r in cli_mod._entanglement_checks(params)}
                hand = (1.0 - rate) * a + rate * (0.75 * a - 0.25 * penalty)
                assert ("constant_x_gain_negative" in rows) == (hand < 0.0), params
                assert all(r["passed"] for r in rows.values()), params


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rounds = 5000\nseed = 9\npenalty = 100\n# comment\n")
        base = run_cli("honest", "--config", str(cfg))
        doc = json.loads(base.output)
        assert doc["config"]["rounds"] == 5000
        assert doc["config"]["seed"] == 9
        assert doc["config"]["penalty"] == 100.0
        override = run_cli("honest", "--config", str(cfg), "--seed", "11")
        doc2 = json.loads(override.output)
        assert doc2["config"]["seed"] == 11
        assert doc2["config"]["rounds"] == 5000

    def test_malformed_file_is_config_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rounds 5000\n")
        result = run_cli("honest", "--config", str(cfg))
        assert result.exit_code == 2

    def test_bad_value_names_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rounds = soon\n")
        result = run_cli("honest", "--config", str(cfg))
        assert result.exit_code == 2
        assert "rounds" in result.output


def _config_of(output: str, fmt: str) -> dict:
    if fmt == "json":
        return json.loads(output)["config"]
    rows = csv.DictReader(io.StringIO(output))
    return {r["name"]: r["value"] for r in rows if r["section"] == "config"}


class TestOptionContract:
    """Each command takes only the options it reads, and the `config` of
    its result document, fed back through --config, replays the run."""

    @pytest.mark.parametrize(
        "args",
        [
            ("verify", "-R", "10000"),
            ("sweep", "-R", "100", "--theta-points", "5"),
            ("sweep", "-r", "0.25", "-R", "100", "--theta-points", "5",
             "--phi-grid", "0.5,1", "--format", "csv"),
            ("entangle", "-R", "1000", "--noise", "0.01"),
            ("honest", "--seed", "3", "--rounds", "5000", "-R", "100",
             "--transcript-rounds", "20", "--transcript"),
            ("cheat", "--theta", "0.2", "--phi", "0.3", "--claim", "zero",
             "--rounds", "5000", "--seed", "4", "--noise", "0.01"),
        ],
        ids=["verify", "sweep_default_rate", "sweep_csv", "entangle", "honest_transcript",
             "cheat"],
    )
    def test_echoed_config_replays_run(self, tmp_path, args):
        transcript = tmp_path / "transcript.json"
        if args[-1] == "--transcript":
            args += (str(transcript),)
        fmt = "csv" if "csv" in args else "json"
        first = run_cli(*args)
        assert first.exit_code == 0, first.output
        first_transcript = transcript.read_bytes() if transcript.exists() else None
        cfg = tmp_path / "replay.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in _config_of(first.output, fmt).items()))
        replay = run_cli(args[0], "--config", str(cfg))
        assert replay.exit_code == 0, replay.output
        assert replay.stdout_bytes == first.stdout_bytes
        if first_transcript is not None:
            assert transcript.read_bytes() == first_transcript

    @pytest.mark.parametrize(
        "command,key", [("honest", "penatly"), ("honest", "check-rate"), ("honest", "theta"),
                        ("verify", "seed"), ("sweep", "noise")],
    )
    def test_key_the_command_does_not_read_is_config_error(self, tmp_path, command, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = 5\n")
        result = run_cli(command, "--config", str(cfg))
        assert result.exit_code == 2
        assert repr(key) in result.output

    def test_non_finite_config_value_names_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("penalty = nan\n")
        result = run_cli("entangle", "--config", str(cfg))
        assert result.exit_code == 2
        assert "'penalty'" in result.output

    @pytest.mark.parametrize(
        "args",
        [("verify", "--seed", "1"), ("verify", "--rounds", "7"), ("verify", "--noise", "0.3"),
         ("sweep", "--noise", "0.1"), ("sweep", "--seed", "0"), ("sweep", "--rounds", "7"),
         ("entangle", "--rounds", "10"), ("entangle", "--seed", "1")],
    )
    def test_option_the_command_ignores_is_rejected(self, args):
        result = run_cli(*args)
        assert result.exit_code == 2
        assert args[1] in result.output

    def test_each_command_takes_only_its_options(self):
        shared = {"check_rate", "penalty", "format", "output", "config_path"}
        sampled = shared | {"seed", "rounds", "noise"}
        expected = {
            "verify": shared,
            "sweep": shared | {"theta_points", "theta_max", "phi_grid"},
            "entangle": shared | {"noise"},
            "honest": sampled | {"transcript", "transcript_rounds"},
            "cheat": sampled | {"theta", "phi", "claim"},
        }
        taken = {name: {p.name for p in cmd.params} for name, cmd in main.commands.items()}
        assert taken == expected
        assert sum(map(len, taken.values())) == 40

    @pytest.mark.parametrize("command", ["verify", "honest", "sweep", "entangle"])
    def test_derived_rate_out_of_range_names_penalty(self, command):
        result = run_cli(command, "-R", "1")
        assert result.exit_code == 2
        assert "Invalid value for --penalty: the default check_rate derived from " \
            "penalty 1.0 is 1.39" in result.output
        assert "Invalid value for --check-rate" not in result.output

    def test_derived_rate_out_of_range_names_config_key(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("penalty = 1.5\n")
        result = run_cli("verify", "--config", str(cfg))
        assert result.exit_code == 2
        assert "Invalid value for config key 'penalty': the default check_rate" in result.output

    @pytest.mark.parametrize("args", [("honest", "--seed", "-1"),
                                      ("honest", "--transcript-rounds", "0")])
    def test_out_of_range_integer_names_option(self, args):
        result = run_cli(*args, "--rounds", "1000")
        assert result.exit_code == 2
        assert args[1] in result.output


class TestSerialization:
    def doc(self):
        return ResultDocument(
            "demo",
            {"seed": 0, "penalty": 100.0},
            [
                {"section": "metric", "name": "x", "value": 0.1 + 0.2},
                {"section": "check", "name": "y", "value": 1.0, "expected": 1.0,
                 "tolerance": 1e-12, "comparison": "within", "passed": True},
            ],
        )

    def test_json_round_trips_floats(self):
        doc = self.doc()
        parsed = json.loads(serialize(doc, "json"))
        assert parsed["rows"][0]["value"] == 0.1 + 0.2

    def test_csv_17_digit_rendering(self):
        text = serialize(self.doc(), "csv").decode()
        assert format(0.1 + 0.2, ".17g") in text
        assert text.splitlines()[0].startswith("section,name")

    def test_deterministic_bytes(self):
        assert serialize(self.doc(), "json") == serialize(self.doc(), "json")
        assert serialize(self.doc(), "csv") == serialize(self.doc(), "csv")

    def test_empty_rows_still_has_header(self):
        doc = ResultDocument("demo", {"seed": 0}, [])
        lines = serialize(doc, "csv").decode().splitlines()
        assert lines[0].startswith("section,name")
        # meta and config rows remain even with no data rows
        assert len(lines) >= 4

    def test_csv_quotes_cells_with_commas(self):
        doc = ResultDocument("demo", {"phi_grid": "0,0.5", "note": 'say "hi"'}, [])
        rows = list(csv.reader(io.StringIO(serialize(doc, "csv").decode())))
        assert {len(r) for r in rows} == {len(rows[0])}
        cells = {r[1]: r[rows[0].index("value")] for r in rows[1:]}
        assert cells["phi_grid"] == "0,0.5"
        assert cells["note"] == 'say "hi"'

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            serialize(self.doc(), "xml")

    def test_csv_via_cli(self):
        result = run_cli("verify", "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("section,name")
        assert any(line.startswith("config,penalty") for line in lines)
