import json
import math
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrolind import (
    IntegratorConfig,
    ScenarioFormatError,
    ScenarioValidationError,
    dump_scenario,
    evolve_pom_backward,
    evolve_predictive,
    load_scenario,
    write_trajectory_csv,
)
from retrolind.cli import main
from retrolind.scenario_io import (
    _CSV_BLOCK,
    _e12_bytes,
    matrix_from_pairs,
    matrix_to_pairs,
    parse_scenario,
    scenario_to_jsonable,
)
from retrolind import model, scenario_io
from retrolind.atom import demo_scenario
from retrolind.operators import min_eigenvalue

from scenario_factory import random_density, random_model


SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _demo_doc():
    return scenario_to_jsonable(demo_scenario(1.0, 1.0))


class TestMatrixPairs:
    def test_round_trip_is_exact(self):
        rng = np.random.default_rng(41)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        back = matrix_from_pairs(matrix_to_pairs(m), "m")
        np.testing.assert_array_equal(back, m)

    def test_rejects_non_list(self):
        with pytest.raises(ScenarioFormatError, match="list of rows"):
            matrix_from_pairs({"not": "a matrix"}, "m")

    def test_rejects_ragged_rows(self):
        with pytest.raises(ScenarioFormatError, match="row 1"):
            matrix_from_pairs([[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]], "m")

    def test_rejects_bare_number_entry(self):
        with pytest.raises(ScenarioFormatError, match=r"\[re, im\] pair"):
            matrix_from_pairs([[1.0]], "m")

    def test_rejects_boolean_components(self):
        with pytest.raises(ScenarioFormatError, match=r"\[re, im\] pair"):
            matrix_from_pairs([[[True, 0.0]]], "m")


class TestScenarioRoundTrip:
    def test_dump_then_load_preserves_everything(self, tmp_path):
        scenario = demo_scenario(1.5, 2.25, IntegratorConfig(700, 7))
        path = tmp_path / "scenario.json"
        dump_scenario(scenario, path)
        loaded = load_scenario(path)
        np.testing.assert_array_equal(loaded.model.hamiltonian, scenario.model.hamiltonian)
        for a, b in zip(loaded.model.jump_ops, scenario.model.jump_ops):
            np.testing.assert_array_equal(a, b)
        assert loaded.ensemble.priors == scenario.ensemble.priors
        assert loaded.ensemble.labels == scenario.ensemble.labels
        for a, b in zip(loaded.ensemble.states, scenario.ensemble.states):
            np.testing.assert_array_equal(a.op, b.op)
        assert loaded.pom.labels == scenario.pom.labels
        for a, b in zip(loaded.pom.elements, scenario.pom.elements):
            np.testing.assert_array_equal(a, b)
        assert (loaded.t_p, loaded.t_m) == (scenario.t_p, scenario.t_m)
        assert loaded.integrator == scenario.integrator

    def test_file_is_plain_json_with_compact_matrices(self, tmp_path):
        path = tmp_path / "scenario.json"
        dump_scenario(demo_scenario(1.0, 1.0), path)
        text = path.read_text()
        json.loads(text)
        for line in text.splitlines():
            if line.strip().startswith('"hamiltonian"'):
                assert line.rstrip().endswith("],")

    def test_jsonable_has_documented_keys(self):
        doc = _demo_doc()
        assert set(doc) == {
            "dim", "hamiltonian", "jump_ops", "ensemble", "pom", "t_p", "t_m", "integrator",
        }


class TestParseScenario:
    def test_missing_key_reported(self):
        doc = _demo_doc()
        del doc["pom"]
        with pytest.raises(ScenarioFormatError, match="missing required keys: pom"):
            parse_scenario(doc)

    def test_unknown_key_reported(self):
        doc = _demo_doc()
        doc["note"] = "hi"
        with pytest.raises(ScenarioFormatError, match="unknown keys: note"):
            parse_scenario(doc)

    def test_non_integer_dim_rejected(self):
        doc = _demo_doc()
        doc["dim"] = "2"
        with pytest.raises(ScenarioFormatError, match="dim"):
            parse_scenario(doc)

    def test_boolean_time_rejected(self):
        doc = _demo_doc()
        doc["t_m"] = True
        with pytest.raises(ScenarioFormatError, match="t_m"):
            parse_scenario(doc)

    def test_ensemble_entry_key_set_enforced(self):
        doc = _demo_doc()
        doc["ensemble"][0]["weight"] = 0.5
        with pytest.raises(ScenarioFormatError, match=r"ensemble\[0\]"):
            parse_scenario(doc)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("jump_ops", {}, "jump_ops: expected a list of matrices"),
            ("ensemble", [], "ensemble: expected a non-empty list"),
            ("pom", [], "pom: expected a non-empty list"),
            ("pom", [{"label": "+", "element": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]], "prior": 1.0}],
             "pom[0]: expected keys label, element"),
            ("integrator", [1000, 10], "integrator: expected an object"),
        ],
        ids=["jump_ops-not-a-list", "ensemble-empty", "pom-empty", "pom-entry-keys", "integrator-not-an-object"],
    )
    def test_a_malformed_block_is_a_format_error(self, key, value, message):
        doc = _demo_doc()
        doc[key] = value
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario(doc)
        assert type(err.value) is ScenarioFormatError and str(err.value) == message

    @pytest.mark.parametrize("doc, kind", [([], "list"), ("{}", "str"), (None, "NoneType")])
    def test_a_top_level_that_is_not_an_object_is_a_format_error(self, doc, kind):
        with pytest.raises(ScenarioFormatError) as err:
            parse_scenario(doc)
        assert type(err.value) is ScenarioFormatError and str(err.value) == f"top level must be an object, got {kind}"

    def test_integrator_block_is_optional(self):
        doc = _demo_doc()
        del doc["integrator"]
        scenario = parse_scenario(doc)
        assert scenario.integrator == IntegratorConfig(1000, 10)

    def test_integrator_unknown_key_rejected(self):
        doc = _demo_doc()
        doc["integrator"]["dt"] = 0.1
        with pytest.raises(ScenarioFormatError, match="integrator"):
            parse_scenario(doc)

    def test_integer_too_large_for_float_time(self):
        doc = _demo_doc()
        doc["t_m"] = 10**400
        with pytest.raises(ScenarioFormatError, match="t_m: integer is too large"):
            parse_scenario(doc)

    def test_integer_too_large_for_float_prior(self):
        doc = _demo_doc()
        doc["ensemble"][1]["prior"] = -(10**400)
        with pytest.raises(ScenarioFormatError, match=r"ensemble\[1\]\.prior: integer is too large"):
            parse_scenario(doc)

    def test_integer_too_large_for_float_matrix_entry(self):
        doc = _demo_doc()
        doc["hamiltonian"][0][1] = [0.0, 10**400]
        with pytest.raises(ScenarioFormatError, match=r"hamiltonian\[0\]\[1\]: integer is too large"):
            parse_scenario(doc)

    def test_physics_violation_carries_report(self):
        doc = _demo_doc()
        for entry in doc["ensemble"]:
            entry["prior"] = 0.6
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(doc)
        assert any(issue.field == "ensemble.priors" for issue in err.value.report.issues)

    def test_collects_every_violation_not_just_first(self):
        doc = _demo_doc()
        for entry in doc["ensemble"]:
            entry["prior"] = 0.6
        doc["t_m"] = -1.0
        with pytest.raises(ScenarioValidationError) as err:
            parse_scenario(doc)
        assert len(err.value.report.issues) >= 2


class TestLoadScenario:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioFormatError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json_names_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,\n  "hamiltonian": [[\n')
        with pytest.raises(ScenarioFormatError, match=r"line \d+, column \d+"):
            load_scenario(path)

    def test_integer_beyond_digit_limit_is_a_parse_error(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(_demo_doc()).replace('"t_p": 0.0', '"t_p": ' + "9" * 5000))
        with pytest.raises(ScenarioFormatError, match="huge.json"):
            load_scenario(path)

    def test_shipped_demo_loads(self):
        scenario = load_scenario(SCENARIOS_DIR / "atom_demo.json")
        assert scenario.duration == pytest.approx(2.0 * math.log(2.0))
        assert scenario.pom.labels == ("+", "-")

    def test_load_eigen_solves_each_operator_once(self, monkeypatch):
        calls = []

        def counting(a):
            calls.append(a)
            return min_eigenvalue(a)

        monkeypatch.setattr(model, "min_eigenvalue", counting)
        load_scenario(SCENARIOS_DIR / "atom_demo.json")
        assert len(calls) == 4  # two states and two outcome operators

    def test_shipped_invalid_priors_rejected(self):
        with pytest.raises(ScenarioValidationError):
            load_scenario(SCENARIOS_DIR / "invalid_priors.json")

    def test_shipped_malformed_rejected(self):
        with pytest.raises(ScenarioFormatError):
            load_scenario(SCENARIOS_DIR / "malformed.json")


class TestWriteTrajectoryCsv:
    def test_layout_and_values_round_trip(self, tmp_path):
        rng = np.random.default_rng(42)
        model = random_model(rng, dim=3)
        from retrolind import DensityOperator

        traj = evolve_predictive(
            model, DensityOperator(random_density(rng, 3)), 0.5, IntegratorConfig(100, 20)
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, "t - t_p (laboratory time since preparation)")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# time column: t - t_p")
        header = lines[1].split(",")
        assert header[0] == "time"
        assert len(header) == 1 + 2 * 9
        assert header[1:3] == ["re_00", "im_00"]
        assert len(lines) - 2 == len(traj)
        for line, t, state in zip(lines[2:], traj.times, traj.states):
            values = [float(x) for x in line.split(",")]
            assert values[0] == pytest.approx(t, rel=1e-11)
            flat = state.reshape(-1)
            for k, z in enumerate(flat):
                assert values[1 + 2 * k] == pytest.approx(z.real, rel=1e-11, abs=1e-14)
                assert values[2 + 2 * k] == pytest.approx(z.imag, rel=1e-11, abs=1e-14)

    def test_single_point_trajectory(self, tmp_path):
        from retrolind import Trajectory

        traj = Trajectory(np.array([0.0]), (np.eye(2, dtype=complex),))
        path = tmp_path / "point.csv"
        write_trajectory_csv(path, traj, "tau = t_m - t (premeasurement time)")
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[0] == "# time column: tau = t_m - t (premeasurement time)"


def _per_entry_csv(traj, time_description: str) -> str:
    """The trajectory CSV as formatted one entry at a time, with the unpadded
    header names that the writer keeps for dim <= 10."""
    dim = traj.states[0].shape[0]
    header = ["time"]
    for r in range(dim):
        for c in range(dim):
            header += [f"re_{r}{c}", f"im_{r}{c}"]
    lines = [f"# time column: {time_description}", ",".join(header)]
    for t, state in zip(traj.times, traj.states):
        row = [f"{t:.12e}"]
        for z in state.reshape(-1):
            row += [f"{z.real:.12e}", f"{z.imag:.12e}"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestTrajectoryCsvBytes:
    def test_awkward_values_match_per_entry_formatting(self, tmp_path):
        from retrolind import Trajectory

        awkward = [-0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 1.2345678901235, 1.2345678901245]
        awkward += [0.99999999999995, 9.9999999999999995e-1, -9.9999999999999995e-1, 1.0 / 3.0, -2.0 / 3.0]
        rng = np.random.default_rng(51)
        values = np.concatenate([awkward, rng.standard_normal(10) * 10.0 ** rng.integers(-8, 8, 10)])
        traj = Trajectory(np.array([0.0, 1.0 / 3.0, 1.0]), values.view(complex).reshape(3, 2, 2))
        path = tmp_path / "awkward.csv"
        write_trajectory_csv(path, traj, "tau = t_m - t (premeasurement time)")
        assert path.read_bytes() == _per_entry_csv(traj, "tau = t_m - t (premeasurement time)").encode()

    def test_evolved_trajectory_matches_per_entry_formatting(self, tmp_path):
        from retrolind import DensityOperator

        rng = np.random.default_rng(52)
        model = random_model(rng, dim=3)
        traj = evolve_predictive(model, DensityOperator(random_density(rng, 3)), 0.5, IntegratorConfig(100, 20))
        path = tmp_path / "evolved.csv"
        write_trajectory_csv(path, traj, "t - t_p (laboratory time since preparation)")
        assert path.read_bytes() == _per_entry_csv(traj, "t - t_p (laboratory time since preparation)").encode()

    def test_dim12_header_names_are_distinct(self, tmp_path):
        from retrolind import Trajectory

        path = tmp_path / "dim12.csv"
        write_trajectory_csv(path, Trajectory(np.array([0.0]), (np.eye(12, dtype=complex),)), "t")
        header = path.read_text().splitlines()[1].split(",")
        assert len(set(header)) == len(header) == 1 + 2 * 144
        assert {"re_0000", "re_0110", "im_0110", "re_1100", "im_1111"} <= set(header)

    def test_dim3_header_is_unpadded(self, tmp_path):
        from retrolind import Trajectory

        traj = Trajectory(np.array([0.0]), (np.eye(3, dtype=complex),))
        path = tmp_path / "dim3.csv"
        write_trajectory_csv(path, traj, "t")
        header = path.read_text().splitlines()[1]
        assert header == _per_entry_csv(traj, "t").splitlines()[1]
        assert header.endswith(",re_21,im_21,re_22,im_22")


def _awkward_states(rng: np.random.Generator, records: int, dim: int) -> np.ndarray:
    """Random states whose entries span |exponent| up to 300, with signed
    zeros, infinities and NaNs sprinkled in."""
    parts = rng.standard_normal((records, dim, dim, 2)) * 10.0 ** rng.integers(-300, 300, (records, dim, dim, 2))
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    where = rng.random(parts.shape) < 0.05
    parts[where] = rng.choice(special, size=int(where.sum()))
    return parts.view(complex)[..., 0]


class TestTrajectoryCsvBlocks:
    """The writer formats and writes the table a block of rows at a time."""

    @pytest.mark.parametrize("dim, records", [(2, 4000), (3, 1), (8, 300)])
    def test_blocks_write_the_per_entry_bytes(self, dim, records, tmp_path):
        from retrolind import Trajectory

        rng = np.random.default_rng(54 + dim)
        for _ in range(3):
            traj = Trajectory(np.arange(records) * 10.0 ** rng.uniform(-200, 200), _awkward_states(rng, records, dim))
            path = tmp_path / "blocks.csv"
            write_trajectory_csv(path, traj, "t")
            assert path.read_bytes() == _per_entry_csv(traj, "t").encode()

    def test_memory_does_not_grow_with_the_records(self, tmp_path):
        from retrolind import Trajectory

        def traced_peak(records: int) -> int:
            states = _awkward_states(np.random.default_rng(56), records, 2)
            traj = Trajectory(np.arange(records, dtype=float), states)
            write_trajectory_csv(tmp_path / "warm.csv", Trajectory(traj.times[:2], states[:2]), "t")
            tracemalloc.start()
            try:
                write_trajectory_csv(tmp_path / "big.csv", traj, "t")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # One block's table of doubles is 128 KB; 200 000 dim-2 records are 12.8 MB of states.
        assert traced_peak(200_000) <= traced_peak(20_000) + 8 * _CSV_BLOCK


def _seq(n: int) -> bytes:
    """What `seq 1 n` prints: a file far longer than any trajectory below."""
    return "".join(f"{i}\n" for i in range(1, n + 1)).encode()


class TestTrajectoryCsvInPlace:
    """The writer overwrites a file in place and cuts it to the bytes written."""

    @pytest.fixture
    def traj(self):
        from retrolind import Trajectory

        rng = np.random.default_rng(57)
        return Trajectory(np.arange(40) * 0.1, _awkward_states(rng, 40, 3))

    def _fresh(self, tmp_path, traj) -> bytes:
        write_trajectory_csv(tmp_path / "fresh.csv", traj, "t")
        return (tmp_path / "fresh.csv").read_bytes()

    def test_a_rewrite_over_a_longer_file_leaves_the_bytes_of_a_fresh_write(self, traj, tmp_path):
        path = tmp_path / "old.csv"
        path.write_bytes(_seq(200_000))
        write_trajectory_csv(path, traj, "t")
        assert path.read_bytes() == self._fresh(tmp_path, traj)

    def test_a_symlink_is_written_through_and_the_target_inode_kept(self, traj, tmp_path):
        target, link, twin = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "twin.csv"
        target.write_bytes(_seq(20_000))
        link.symlink_to(target)
        twin.hardlink_to(target)
        inode = target.stat().st_ino
        write_trajectory_csv(link, traj, "t")
        assert link.is_symlink() and link.readlink() == target
        assert target.stat().st_ino == inode and target.stat().st_nlink == 2
        assert target.read_bytes() == twin.read_bytes() == self._fresh(tmp_path, traj)

    def test_dev_null_is_written(self, traj):
        write_trajectory_csv("/dev/null", traj, "t")

    def test_a_write_that_raises_leaves_the_bytes_written_and_no_old_tail(self, traj, tmp_path, monkeypatch):
        monkeypatch.setattr(scenario_io, "_CSV_BLOCK", 4 * 19)  # 4 rows a block at dim 3
        fresh = self._fresh(tmp_path, traj)
        blocks, formatter = [], scenario_io._e12_bytes

        def second_block_raises(table):
            blocks.append(table)
            if len(blocks) == 2:
                raise MemoryError("second block")
            return formatter(table)

        monkeypatch.setattr(scenario_io, "_e12_bytes", second_block_raises)
        path = tmp_path / "old.csv"
        path.write_bytes(_seq(20_000))
        with pytest.raises(MemoryError, match="second block"):
            write_trajectory_csv(path, traj, "t")
        assert path.read_bytes() == b"".join(fresh.splitlines(keepends=True)[: 2 + 4])

    def test_the_file_is_opened_without_truncation(self, traj, tmp_path, monkeypatch):
        opened, real_open = [], os.open

        def spy(path, flags, *args, **kwargs):
            opened.append((path, flags))
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        path = tmp_path / "spied.csv"
        write_trajectory_csv(path, traj, "t")
        assert [p for p, _ in opened] == [path]
        assert not any(flags & os.O_TRUNC for _, flags in opened)


def _printf_rows(table: np.ndarray) -> str:
    return "".join(",".join("%.12e" % x for x in row) + "\n" for row in table.tolist())


def _assert_rows_match_printf(values) -> None:
    values = np.asarray(values, dtype=float)
    for table in (values.reshape(-1, 1), values.reshape(1, -1), np.column_stack([values, -values])):
        assert _e12_bytes(table).tobytes().decode() == _printf_rows(table)


class TestVectorisedE12Formatting:
    """The writer's array formatter prints every double as "%.12e" does."""

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=40))
    def test_floats_match_printf(self, values):
        _assert_rows_match_printf(values)

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_bit_patterns_match_printf(self, bits):
        _assert_rows_match_printf(np.array(bits, dtype=np.uint64).view(np.float64))

    @pytest.mark.parametrize(
        "value",
        [
            12345678901235.0,  # a tie at the 13th digit, exact in binary
            1.2345678901235,  # a near tie
            1.2345678901245,
            7.4729779554405e-17,  # near ties that the scaled value rounds the wrong way
            7.0471252312995e-13,
            1.0017100144665e17,
            8.5969987141515e27,
            9.999999999999496e256,  # log10 rounds up to the next power of ten
            9.999999999999347e278,
            9.999999999999498e-257,
            9.9999999999999995e-1,  # carries into the exponent
            9.9999999999995e99,
            9.99999999999995e99,
            9.99999999999949e99,
            9.999999999999e99,  # exponents crossing +-99 / +-100
            1e99,
            1e100,
            1.5e100,
            9.99999999999995e-100,
            1e-99,
            1e-100,
            1.5e-100,
            0.0,
            5e-324,  # the smallest subnormal
            2.2250738585072014e-308,
            1.7976931348623157e308,
            1e280,
            1e-280,
            float("inf"),
            float("nan"),
        ],
    )
    def test_fixed_cases_match_printf(self, value):
        _assert_rows_match_printf([value, -value])

    def test_powers_of_ten_and_their_neighbours_match_printf(self):
        powers = np.array([float(f"1e{k}") for k in range(-330, 310)])
        _assert_rows_match_printf(np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]))

    def test_signed_zeros_keep_their_sign(self):
        assert _e12_bytes(np.array([[0.0, -0.0]])).tobytes() == b"0.000000000000e+00,-0.000000000000e+00\n"

    @pytest.mark.parametrize("mode, initial", [("predictive", "+"), ("predictive", "-"), ("pom-backward", "+")])
    def test_evolve_on_the_demo_writes_the_per_entry_bytes(self, mode, initial, tmp_path, capsys):
        path = tmp_path / "evolve.csv"
        demo = SCENARIOS_DIR / "atom_demo.json"
        assert main(["evolve", str(demo), "--mode", mode, "--initial", initial, "--out", str(path)]) == 0
        scenario = load_scenario(demo)
        if mode == "predictive":
            state = scenario.ensemble.states[scenario.ensemble.labels.index(initial)]
            traj = evolve_predictive(scenario.model, state, scenario.duration, scenario.integrator)
            description = "t - t_p (laboratory time since preparation)"
        else:
            element = scenario.pom.elements[scenario.pom.labels.index(initial)]
            traj = evolve_pom_backward(scenario.model, element, scenario.duration, scenario.integrator)
            description = "tau = t_m - t (premeasurement time)"
        assert path.read_bytes() == _per_entry_csv(traj, description).encode()
