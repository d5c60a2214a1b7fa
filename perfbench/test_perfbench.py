"""Smoke test of the benchmark's own code: statistics, span arithmetic, tiny runs.

Run with ``python -m pytest perfbench``.  The tiny runs cut each
workload's cycle to its first operations, so they exercise the whole
pipeline (input generation, loop, output checks, metrics) in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import measure
import run
import spans

TINY_OPS = {"cli-mix": 3, "infer-random": 2, "trajectory-dim8": 3}
SEED = 7


class ScriptedClock:
    def __init__(self, *times: float):
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


def test_self_time_subtracts_child_spans():
    # outer [0, 10] holds inner [1, 3] and inner [4, 5]; the second inner holds leaf [4.2, 4.7]
    tracer = spans.Tracer(clock=ScriptedClock(0.0, 1.0, 3.0, 4.0, 4.2, 4.7, 5.0, 10.0))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            with tracer.span("leaf"):
                pass
    table = {(name, parent): rec for name, parent, _site, _load, *rec in tracer.export()["table"]}
    assert table[("outer", None)] == [1, 10.0, 7.0]
    assert table[("inner", "outer")] == [2, 3.0, pytest.approx(2.5)]
    assert table[("leaf", "inner")] == [1, pytest.approx(0.5), pytest.approx(0.5)]


def test_merge_sums_exports():
    tracer = spans.Tracer(clock=ScriptedClock(0.0, 2.0))
    with tracer.span("cli.validate"):
        pass
    merged = spans.merge([tracer.export(), tracer.export()])
    assert merged["table"] == [["cli.validate", None, None, False, 2, 4.0, 4.0]]
    assert spans.cli_command_ms(merged) == {"validate": 2000.0}


@pytest.mark.parametrize(
    "n, level",
    [(0, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_level_leaves_ten_samples_beyond(n, level):
    assert measure.tail_level(n) == level


def test_percentile_interpolates_between_ranks():
    assert measure.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert measure.percentile(range(1, 101), 90.0) == pytest.approx(90.1)
    assert measure.percentile([5.0], 99.0) == 5.0


def test_parse_importtime():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       900 |      80000 |     numpy",
            "import time:       100 |     100000 | retrolind",
            "import time:        50 |       7000 | retrolind.cli",
        ]
    )
    assert run.parse_importtime(stderr) == (107.0, 80.0)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _counts(layers: dict) -> dict:
    return {name: value for name, (value, unit) in layers.items() if unit in ("count", "bytes", "ratio")}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run(workload, tmp_path):
    env = run.workload_env(os.environ)
    deadline = run.Deadline(run.DEADLINE_S)
    inputs = tmp_path / "inputs"
    run.child(["gen", workload, str(SEED), str(inputs)], env, deadline)
    manifest_path = inputs / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["ops"] = manifest["ops"][: TINY_OPS[workload]]
    manifest_path.write_text(json.dumps(manifest))

    def loop(mode: str) -> dict:
        return run.child(["run", workload, str(inputs), str(tmp_path), "0", mode], env, deadline)

    plain, traced, again = loop("fixed"), loop("traced"), loop("traced")
    for result in (plain, traced, again):
        assert result["failures"] == [] and result["check_failures"] == []
        assert len(result["samples"]) == TINY_OPS[workload]

    setup = run.setup_seconds(workload, inputs, env, deadline)
    metrics = run.end_to_end(plain, setup)
    assert set(metrics) == {"setup_s", "ops_per_s", "op_ms.p50", "op_ms.tail", "peak_rss_mb"}
    assert all(value > 0 for value, _unit in metrics.values())

    assert _counts(traced["layers"]) == _counts(again["layers"])
    assert traced["layers"]["dynamics.rk4_integrate.steps"][0] > 0
    assert traced["layers"]["scenario_io.load_scenario.calls"][0] > 0


def test_per_layer_names_match_benchmark_json(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    env = run.workload_env(os.environ)
    deadline = run.Deadline(run.DEADLINE_S)
    inputs = tmp_path / "inputs"
    run.child(["gen", "trajectory-dim8", str(SEED), str(inputs)], env, deadline)
    manifest = json.loads((inputs / "manifest.json").read_text())
    manifest["ops"] = manifest["ops"][:1]
    (inputs / "manifest.json").write_text(json.dumps(manifest))
    plain, traced = (
        run.child(["run", "trajectory-dim8", str(inputs), str(tmp_path), "0", mode], env, deadline)
        for mode in ("fixed", "traced")
    )
    metrics = run.per_layer(plain, traced, env, SEED, deadline)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {name: unit for name, (_value, unit) in metrics.items()} == declared
