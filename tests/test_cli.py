import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from retrolind import ProbabilityTable, cli
from retrolind.cli import (
    EXIT_CONSISTENCY,
    EXIT_INTEGRATION,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    main,
)

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"
DEMO = str(SCENARIOS_DIR / "atom_demo.json")
HALF_LIFE_WINDOW = 2.0 * math.log(2.0)


def _stiff(tmp_path) -> str:
    """atom_demo.json with a jump amplitude of 300, which puts h * lambda near
    -180, far outside RK4's stability region."""
    path = tmp_path / "stiff.json"
    path.write_text((SCENARIOS_DIR / "atom_demo.json").read_text().replace("0.7071067811865476", "300.0"))
    return str(path)


def _run_cli(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in its own process, so an uncaught exception shows as a traceback."""
    return subprocess.run(
        [sys.executable, "-m", "retrolind.cli", *argv], capture_output=True, text=True, timeout=120
    )


class TestExitCodeValues:
    def test_documented_mapping(self):
        assert (EXIT_OK, EXIT_PARSE, EXIT_USAGE, EXIT_CONSISTENCY, EXIT_INTEGRATION) == (
            0, 1, 2, 3, 4,
        )


class TestValidate:
    def test_good_file(self, capsys):
        assert main(["validate", DEMO]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "OK"

    def test_invalid_priors_file(self, capsys):
        code = main(["validate", str(SCENARIOS_DIR / "invalid_priors.json")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "scenario is invalid" in err
        assert "priors" in err

    def test_malformed_file(self, capsys):
        code = main(["validate", str(SCENARIOS_DIR / "malformed.json")])
        assert code == EXIT_PARSE
        assert "parse error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "/no/such/file.json"]) == EXIT_PARSE

    def test_integer_too_large_for_float(self, tmp_path, capsys):
        text = (SCENARIOS_DIR / "atom_demo.json").read_text()
        path = tmp_path / "huge_t_m.json"
        path.write_text(text.replace('"t_m": 1.3862943611198906', f'"t_m": {10**400}'))
        assert main(["validate", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: t_m:")
        assert err.count("\n") == 1

    def test_step_count_too_large_for_a_float(self, tmp_path):
        doc = json.loads((SCENARIOS_DIR / "atom_demo.json").read_text())
        doc["integrator"]["steps_per_unit_time"] = 10**400
        path = tmp_path / "huge_steps.json"
        path.write_text(json.dumps(doc))
        proc = _run_cli("validate", str(path))
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == (
            "scenario is invalid:\n  integrator.steps_per_unit_time: "
            "step count over the window is not a finite float (deviation nan)\n"
        )

    def test_step_count_over_the_work_budget(self, tmp_path):
        doc = json.loads((SCENARIOS_DIR / "atom_demo.json").read_text())
        doc["t_m"] = 1e7
        doc["integrator"]["record_every"] = 1
        path = tmp_path / "long_window.json"
        path.write_text(json.dumps(doc))
        proc = _run_cli("validate", str(path))
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == (
            "scenario is invalid:\n  integrator.steps_per_unit_time: 1.000e+10 RK4 steps over the window "
            "exceed the budget of 1e+07; lower steps_per_unit_time or shorten the window (deviation 9.990000e+09)\n"
        )

    @staticmethod
    def _closed_system(dim: int) -> dict:
        """A valid scenario of one state and one outcome on a closed system."""
        zero = [[[0.0, 0.0]] * dim for _ in range(dim)]
        ground = [[[float(r == c == 0), 0.0] for c in range(dim)] for r in range(dim)]
        eye = [[[float(r == c), 0.0] for c in range(dim)] for r in range(dim)]
        return {
            "dim": dim,
            "hamiltonian": zero,
            "jump_ops": [],
            "ensemble": [{"label": "0", "prior": 1.0, "state": ground}],
            "pom": [{"label": "any", "element": eye}],
            "t_p": 0.0,
            "t_m": 1.0,
        }

    def test_generator_budget_admits_dim_64(self, tmp_path, capsys):
        path = tmp_path / "dim64.json"
        path.write_text(json.dumps(self._closed_system(64)))
        assert main(["validate", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "OK\n"

    def test_generator_over_the_budget(self, tmp_path, capsys):
        path = tmp_path / "dim65.json"
        path.write_text(json.dumps(self._closed_system(65)))
        assert main(["validate", str(path)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "scenario is invalid:\n  model.dim: dimension 65 needs a 4225x4225 generator of 2.856e+08 bytes, "
            "over the budget of 268435456; reduce the dimension (deviation 1.717454e+07)\n"
        )

    def test_dimension_too_large_for_a_float(self, tmp_path, capsys):
        doc = json.loads((SCENARIOS_DIR / "atom_demo.json").read_text())
        doc["dim"] = 10**400
        path = tmp_path / "huge_dim.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("scenario is invalid:\n  model.hamiltonian: dimension 2 does not match")
        assert "budget" not in err

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        proc = _run_cli("validate", str(path))
        assert proc.returncode == EXIT_PARSE
        assert proc.stderr == f"parse error: {path}: JSON nested too deeply to parse\n"

    def test_overflowing_trace_is_reported_without_a_warning(self, tmp_path):
        doc = json.loads((SCENARIOS_DIR / "atom_demo.json").read_text())
        doc["ensemble"][0]["state"] = [[[1e308, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e308, 0.0]]]
        path = tmp_path / "huge_trace.json"
        path.write_text(json.dumps(doc))
        proc = _run_cli("validate", str(path))
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "scenario is invalid:\n  ensemble.states[0]: trace is not 1 within tolerance (deviation inf)\n"

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"dim": 2, "label": "caf\u00e9"}'.encode("latin-1"))
        assert main(["validate", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: {path}: not UTF-8 text:")
        assert err.count("\n") == 1


class TestRetrodict:
    def test_csv_output(self, capsys):
        assert main(["retrodict", DEMO, "--outcome", "+"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# outcome: +"
        assert out[1].startswith("# max_abs_difference:")
        assert out[2] == "label,p_retrodict,p_bayes"
        label, p_retro, p_bayes = out[3].split(",")
        assert label == "+"
        assert float(p_retro) == pytest.approx(0.75, abs=1e-6)
        assert float(p_bayes) == pytest.approx(0.75, abs=1e-6)

    def test_json_output(self, capsys):
        assert main(["retrodict", DEMO, "--outcome", "-", "--format", "json"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["outcome"] == "-"
        assert doc["labels"] == ["+", "-"]
        assert doc["posterior"][1] == pytest.approx(0.75, abs=1e-6)
        assert doc["max_abs_difference"] < 1e-6
        assert sum(doc["posterior"]) == pytest.approx(1.0, abs=1e-12)

    def test_unknown_outcome(self, capsys):
        assert main(["retrodict", DEMO, "--outcome", "sideways"]) == EXIT_USAGE
        assert "known labels" in capsys.readouterr().err

    def test_non_finite_state_is_one_line(self, tmp_path):
        proc = _run_cli("retrodict", _stiff(tmp_path), "--outcome", "+")
        assert proc.returncode == EXIT_INTEGRATION
        # The record at step 10 fails the guard before step 49 overflows: the earliest failure wins.
        assert proc.stderr.splitlines() == [
            "integration failure: eigenvalue -7.358e+63 below -1.0e-07 at time 0.00999491; step size too coarse"
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_route_disagreement_is_a_consistency_failure(self, fmt, monkeypatch, capsys):
        monkeypatch.setattr(cli, "bayes_from_predictive", lambda scenario, outcome: ProbabilityTable(("+", "-"), (0.5, 0.5)))
        assert main(["retrodict", DEMO, "--outcome", "+", "--format", fmt]) == EXIT_CONSISTENCY
        captured = capsys.readouterr()
        assert "max_abs_difference" in captured.out  # the report is still printed
        assert captured.err == "consistency failure: inference routes disagree by 2.500e-01 (tolerance 1.0e-06)\n"


class TestPredict:
    def test_csv_output(self, capsys):
        assert main(["predict", DEMO, "--preparation", "+"]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# preparation: +"
        assert out[1] == "label,probability"
        probs = {line.split(",")[0]: float(line.split(",")[1]) for line in out[2:]}
        assert probs["+"] == pytest.approx(0.75, abs=1e-6)
        assert probs["+"] + probs["-"] == pytest.approx(1.0, abs=1e-12)

    def test_unknown_preparation(self, capsys):
        assert main(["predict", DEMO, "--preparation", "zz"]) == EXIT_USAGE


class TestEvolve:
    def test_predictive_by_label(self, tmp_path, capsys):
        out_path = tmp_path / "fwd.csv"
        code = main(["evolve", DEMO, "--mode", "predictive", "--initial", "+",
                     "--out", str(out_path)])
        assert code == EXIT_OK
        assert "wrote" in capsys.readouterr().out
        lines = out_path.read_text().splitlines()
        assert lines[0] == "# time column: t - t_p (laboratory time since preparation)"
        assert len(lines) > 10
        assert float(lines[2].split(",")[0]) == 0.0

    def test_pom_backward_by_label(self, tmp_path):
        out_path = tmp_path / "back.csv"
        code = main(["evolve", DEMO, "--mode", "pom-backward", "--initial", "-",
                     "--out", str(out_path)])
        assert code == EXIT_OK
        first = out_path.read_text().splitlines()[0]
        assert first == "# time column: tau = t_m - t (premeasurement time)"

    def test_retrodictive_with_inline_matrix(self, tmp_path):
        identity = "[[[1.0,0.0],[0.0,0.0]],[[0.0,0.0],[1.0,0.0]]]"
        out_path = tmp_path / "retro.csv"
        code = main(["evolve", DEMO, "--mode", "retrodictive", "--initial", identity,
                     "--out", str(out_path)])
        assert code == EXIT_OK
        last = out_path.read_text().splitlines()[-1].split(",")
        assert float(last[1]) == pytest.approx(0.5, abs=1e-8)

    def test_unwritable_out_is_a_usage_error(self, tmp_path):
        out_path = tmp_path / "no_such_dir" / "x.csv"
        proc = _run_cli("evolve", DEMO, "--mode", "predictive", "--initial", "+", "--out", str(out_path))
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == f"error: cannot write {out_path}: No such file or directory\n"
        assert "Traceback" not in proc.stderr
        assert not out_path.parent.exists()

    def test_initial_operator_failing_the_guard_is_a_usage_error(self, tmp_path, capsys):
        # Normalizes within RETRODICTIVE_EIG_TOL, then fails the evolution's
        # positivity guard before any step is taken.
        out_path = tmp_path / "x.csv"
        code = main(["evolve", DEMO, "--mode", "retrodictive", "--initial",
                     "[[[1e-3,0],[0,0]],[[0,0],[-5e-10,0]]]", "--out", str(out_path)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "error: initial operator: eigenvalue -5.000e-07 below -1.0e-07\n"
        assert "step size" not in err
        assert not out_path.exists()

    def test_failing_initial_operator_wins_over_an_integration_failure(self, tmp_path):
        # The run would also stop being finite at step 3; the initial operator is reported.
        proc = _run_cli("evolve", _stiff(tmp_path), "--mode", "retrodictive", "--initial",
                        "[[[1e-3,0],[0,0]],[[0,0],[-5e-10,0]]]", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: initial operator: eigenvalue -5.000e-07 below -1.0e-07\n"
        assert not (tmp_path / "x.csv").exists()

    def test_non_finite_initial_is_one_line(self, tmp_path):
        out_path = tmp_path / "x.csv"
        proc = _run_cli("evolve", DEMO, "--mode", "retrodictive", "--initial",
                        "[[[Infinity,0],[0,0]],[[0,0],[1,0]]]", "--out", str(out_path))
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == "error: operator entries must be finite\n"

    def test_garbage_initial(self, tmp_path, capsys):
        code = main(["evolve", DEMO, "--mode", "predictive", "--initial", "nonsense",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_USAGE
        assert "neither a known label nor inline JSON" in capsys.readouterr().err


class TestSweep:
    def test_flat_across_collapse_times(self, capsys):
        code = main(["sweep", DEMO, "--preparation", "+", "--outcome", "+",
                     "--points", "5"])
        assert code == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[2] == "collapse_time,probability"
        assert len(out) == 3 + 5
        spread = float(out[1].split(":")[1])
        assert spread < 1e-6

    def test_too_few_points(self, capsys):
        code = main(["sweep", DEMO, "--preparation", "+", "--outcome", "+",
                     "--points", "1"])
        assert code == EXIT_USAGE
        assert "at least 2" in capsys.readouterr().err

    def test_too_few_points_on_a_malformed_file_is_a_parse_failure(self, capsys):
        # The one point-count check runs after the scenario is loaded.
        code = main(["sweep", str(SCENARIOS_DIR / "malformed.json"), "--preparation", "+", "--outcome", "+", "--points", "1"])
        assert code == EXIT_PARSE
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_unknown_labels(self, capsys):
        code = main(["sweep", DEMO, "--preparation", "q", "--outcome", "+",
                     "--points", "3"])
        assert code == EXIT_USAGE

    def test_points_over_the_work_budget(self):
        proc = _run_cli("sweep", DEMO, "--preparation", "+", "--outcome", "+", "--points", str(10**13))
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: 10000000000000 collapse times exceed the work budget of 1e+07 RK4 steps "
            "and 1073741824 recorded bytes per direction\n"
        )

    def test_spread_is_a_consistency_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "collapse_time_sweep", lambda *args: [(0.0, 0.5), (1.0, 0.5 + 2e-6)])
        code = main(["sweep", DEMO, "--preparation", "+", "--outcome", "+", "--points", "2"])
        assert code == EXIT_CONSISTENCY
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1].startswith("# max_spread: 1.99999")
        assert captured.err == "consistency failure: collapse-time spread 2.000e-06 exceeds 1.0e-06\n"


class TestDemoAtom:
    def test_passes_against_closed_forms(self, capsys):
        code = main(["demo-atom", "--gamma", "1.0", "--duration", str(HALF_LIFE_WINDOW)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "posterior P(+|+)" in out
        numeric = float(out.splitlines()[0].split("numerical ")[1].split(",")[0])
        assert numeric == pytest.approx(0.75, abs=1e-6)

    def test_zero_window(self, capsys):
        assert main(["demo-atom", "--gamma", "2.0", "--duration", "0.0"]) == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_rejects_nonpositive_gamma(self, capsys):
        assert main(["demo-atom", "--gamma", "0.0", "--duration", "1.0"]) == EXIT_USAGE
        assert "--gamma" in capsys.readouterr().err

    def test_rejects_negative_duration(self, capsys):
        assert main(["demo-atom", "--gamma", "1.0", "--duration", "-1.0"]) == EXIT_USAGE

    @pytest.mark.parametrize("gamma", ["-1e3", "-inf"])
    def test_a_negative_float_reaches_the_gamma_check(self, gamma):
        proc = _run_cli("demo-atom", "--gamma", gamma, "--duration", "1")
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == "error: --gamma must be positive\n"

    @pytest.mark.parametrize(
        "gamma, duration, reason",
        [("inf", "1", "decay rate must be finite and positive, got inf"), ("1", "inf", "window must be finite and >= 0, got inf")],
    )
    def test_an_infinite_rate_or_window_is_named_not_finite(self, gamma, duration, reason, capsys):
        assert main(["demo-atom", "--gamma", gamma, "--duration", duration]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: {reason}\n"

    def test_fail_is_a_consistency_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "analytic_preparation_probability", lambda gamma, window: 0.5)
        code = main(["demo-atom", "--gamma", "1.0", "--duration", str(HALF_LIFE_WINDOW)])
        assert code == EXIT_CONSISTENCY
        captured = capsys.readouterr()
        assert captured.out.splitlines()[-1] == "FAIL (worst deviation 2.500e-01 > 1.0e-06)"
        assert captured.err == "consistency failure: demo deviates from the closed forms by 2.500e-01 (tolerance 1.0e-06)\n"

    def test_step_count_too_large_for_a_float(self):
        proc = _run_cli("demo-atom", "--gamma", "1", "--duration", "1e308")
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: integrator.steps_per_unit_time: "
            "step count over the window is not a finite float (deviation nan)\n"
        )

    def test_step_count_over_the_work_budget(self):
        proc = _run_cli("demo-atom", "--gamma", "1", "--duration", "1e300")
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: integrator.steps_per_unit_time: 1.000e+303 RK4 steps over the window exceed the budget "
            "of 1e+07; lower steps_per_unit_time or shorten the window (deviation 1.000000e+303)\n"
        )


class TestArgumentParsing:
    def test_no_command_is_a_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_bad_mode_choice(self):
        with pytest.raises(SystemExit) as err:
            main(["evolve", DEMO, "--mode", "sideways", "--initial", "+", "--out", "x"])
        assert err.value.code == 2

    def test_a_rejected_command_line_is_one_line(self):
        proc = _run_cli("retrodict", DEMO, "--outcome", "+", "--format", "xml")
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr == (
            "retrolind retrodict: error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')\n"
        )


class TestConsoleEntry:
    def test_module_invocation_round_trip(self):
        proc = _run_cli("validate", DEMO)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "OK"
