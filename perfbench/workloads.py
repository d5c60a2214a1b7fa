"""Operations, output checks and the closed loop of each workload.

One client issues one operation at a time and the next only after the
previous one returned (a closed loop).  The loop runs whole cycles of the
manifest's operations, so every run does the same mix of work; it stops
after the first whole cycle that ends past the time budget, and never
before the workload's minimum number of cycles.  That minimum fixes the
sample count the tail percentile is chosen from.

Every operation's output is checked outside its timed region; an operation
that raises or fails a check counts as failed.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import retrolind
from retrolind.cli import PIPELINE_TOL

import measure

MIN_CYCLES = {"cli-mix": 5, "infer-random": 4, "trajectory-dim8": 7}
TRACE_CYCLES = 1
HARD_LIMIT_S = 120.0  # give up mid-cycle rather than overrun the run deadline
CLI_TIMEOUT_S = 60.0


@dataclass
class Margins:
    """Largest accuracy deviations seen, each compared against PIPELINE_TOL."""

    route_disagreement: float = 0.0
    sweep_spread: float = 0.0
    closed_form_err: float = 0.0

    def note(self, name: str, value: float) -> None:
        setattr(self, name, max(getattr(self, name), value))


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]  # error message, or None when the output is right


@dataclass
class LoopResult:
    samples: list = field(default_factory=list)  # (kind, milliseconds)
    failures: list = field(default_factory=list)  # error messages
    elapsed_s: float = 0.0
    cycles: int = 0


def closed_loop(ops, seconds: float, min_cycles: int, max_cycles: int, tracer=None) -> LoopResult:
    result = LoopResult()
    start = time.perf_counter()
    while result.cycles < max_cycles:
        for op in ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span("bench.op"):
                        out = op.run()
            except Exception as exc:  # the loop records the failure and carries on
                out, error = None, f"{op.kind}: {type(exc).__name__}: {exc}"
            else:
                error = None
            result.samples.append((op.kind, (time.perf_counter() - t0) * 1e3))
            if error is None:
                error = op.check(out)
            if error is not None:
                result.failures.append(error)
        result.cycles += 1
        result.elapsed_s = time.perf_counter() - start
        if result.cycles >= min_cycles and result.elapsed_s >= seconds:
            break
        if result.elapsed_s > HARD_LIMIT_S:
            break
    return result


def tail_level(workload: str, ops_per_cycle: int) -> float:
    """Tail percentile fixed by the guaranteed sample count of an untraced run."""
    return measure.tail_level(MIN_CYCLES[workload] * ops_per_cycle)


def closed_form_plus(gamma: float, window: float) -> float:
    """P(+ | +) for the decaying atom measured in the superposition basis."""
    return 0.5 * (1.0 + math.exp(-gamma * window / 2.0))


def expected_records(scenario) -> int:
    """Recorded states of one full-window integration, by rk4_integrate's documented rule."""
    if scenario.duration == 0.0:
        return 1
    steps = math.ceil(scenario.duration * scenario.integrator.steps_per_unit_time)
    every = scenario.integrator.record_every
    return 1 + steps // every + (1 if steps % every else 0)


def check_csv(path: Path, dim: int, rows: int) -> str | None:
    lines = Path(path).read_text().splitlines()
    columns = 1 + 2 * dim * dim
    if not lines[0].startswith("#") or len(lines[1].split(",")) != columns:
        return f"{path.name}: header does not have {columns} columns"
    data = lines[2:]
    if len(data) != rows:
        return f"{path.name}: {len(data)} rows, expected {rows}"
    if any(len(line.split(",")) != columns for line in (data[0], data[-1])):
        return f"{path.name}: data rows do not have {columns} columns"
    return None


def atom_check(atom, gamma: float, margins: Margins) -> str | None:
    """The retrodictive route on the atom file against the closed form."""
    p = retrolind.retrodict_preparation_probs(atom, "+")["+"]
    err = abs(p - closed_form_plus(gamma, atom.duration))
    margins.note("closed_form_err", err)
    return None if err <= PIPELINE_TOL else f"atom P(+|+) off the closed form by {err:.3e}"


# ---- infer-random -------------------------------------------------------


def _query(scenario, outcome):
    return (
        retrolind.retrodict_preparation_probs(scenario, outcome),
        retrolind.bayes_from_predictive(scenario, outcome),
    )


def _check_query(margins: Margins, out) -> str | None:
    posterior, crosscheck = out
    diff = max(abs(a - b) for a, b in zip(posterior.probs, crosscheck.probs))
    margins.note("route_disagreement", diff)
    return None if diff <= PIPELINE_TOL else f"query: routes disagree by {diff:.3e}"


def _sweep(scenario, preparation, outcome, points):
    return retrolind.collapse_time_sweep(scenario, preparation, outcome, points)


def _check_sweep(margins: Margins, points) -> str | None:
    values = [p for _, p in points]
    spread = max(values) - min(values)
    margins.note("sweep_spread", spread)
    return None if spread <= PIPELINE_TOL else f"sweep: spread {spread:.3e}"


def infer_ops(manifest: dict, scenarios: dict, margins: Margins) -> list[Op]:
    from inputgen import SWEEP_POINTS

    ops = []
    for spec in manifest["ops"]:
        sc = scenarios[spec["file"]]
        if spec["kind"] == "query":
            run = functools.partial(_query, sc, spec["outcome"])
            check = functools.partial(_check_query, margins)
        else:
            run = functools.partial(_sweep, sc, spec["preparation"], spec["outcome"], SWEEP_POINTS)
            check = functools.partial(_check_sweep, margins)
        ops.append(Op(spec["kind"], run, check))
    return ops


# ---- trajectory-dim8 ----------------------------------------------------


def _trajectory(scenario, mode: str, label: str, path: Path) -> int:
    model, duration, config = scenario.model, scenario.duration, scenario.integrator
    if mode == "predictive":
        state = scenario.ensemble.states[scenario.ensemble.labels.index(label)]
        traj = retrolind.evolve_predictive(model, state, duration, config)
        description = "t - t_p (laboratory time since preparation)"
    else:
        element = scenario.pom.elements[scenario.pom.labels.index(label)]
        if mode == "pom-backward":
            traj = retrolind.evolve_pom_backward(model, element, duration, config)
        else:
            initial = retrolind.normalize_to_retrodictive(element)
            traj = retrolind.evolve_retrodictive(model, initial, duration, config)
        description = "tau = t_m - t (premeasurement time)"
    retrolind.write_trajectory_csv(path, traj, description)
    return len(traj)


def _check_trajectory(scenario, path: Path, recorded: int) -> str | None:
    expected = expected_records(scenario)
    if recorded != expected:
        return f"{path.name}: {recorded} recorded states, expected {expected}"
    return check_csv(path, scenario.model.dim, expected)


def trajectory_ops(manifest: dict, scenarios: dict, workdir: Path) -> list[Op]:
    ops = []
    for k, spec in enumerate(manifest["ops"]):
        sc = scenarios[spec["file"]]
        path = workdir / f"trajectory-{k:02d}.csv"
        run = functools.partial(_trajectory, sc, spec["kind"], spec["initial"], path)
        ops.append(Op(spec["kind"], run, functools.partial(_check_trajectory, sc, path)))
    return ops


# ---- cli-mix ------------------------------------------------------------


def _table(stdout: str, header: str) -> list[list[str]]:
    lines = stdout.splitlines()
    start = lines.index(header) + 1
    return [line.split(",") for line in lines[start:] if line]


def _prefixed_float(stdout: str, prefix: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    raise ValueError(f"no line starting with {prefix!r}")


def _check_cli(spec: dict, atom, gamma: float, margins: Margins, proc) -> str | None:
    kind, argv = spec["kind"], spec["argv"]
    if proc.returncode != spec["rc"]:
        return f"{kind}: exit {proc.returncode}, expected {spec['rc']}: {proc.stderr.strip()[-200:]}"
    out = proc.stdout
    closed = closed_form_plus(gamma, atom.duration)
    try:
        if kind == "validate-ok" and out.strip() != "OK":
            return f"{kind}: printed {out.strip()!r}"
        if kind == "retrodict":
            rows = {r[0]: (float(r[1]), float(r[2])) for r in _table(out, "label,p_retrodict,p_bayes")}
            diff = max(abs(a - b) for a, b in rows.values())
            err = abs(rows["+"][0] - closed)
            margins.note("route_disagreement", diff)
            margins.note("closed_form_err", err)
            if diff > PIPELINE_TOL or err > PIPELINE_TOL:
                return f"{kind}: routes differ by {diff:.3e}, closed form missed by {err:.3e}"
        elif kind == "predict":
            label = argv[argv.index("--preparation") + 1]
            rows = {r[0]: float(r[1]) for r in _table(out, "label,probability")}
            err = abs(rows[label] - closed)
            margins.note("closed_form_err", err)
            if err > PIPELINE_TOL:
                return f"{kind}: closed form missed by {err:.3e}"
        elif kind == "sweep":
            prep = argv[argv.index("--preparation") + 1]
            outcome = argv[argv.index("--outcome") + 1]
            values = [float(r[1]) for r in _table(out, "collapse_time,probability")]
            spread = max(values) - min(values)
            expected = closed if prep == outcome else 1.0 - closed
            margins.note("sweep_spread", spread)
            margins.note("closed_form_err", max(abs(v - expected) for v in values))
            if spread > PIPELINE_TOL or len(values) != int(argv[-1]):
                return f"{kind}: {len(values)} points with spread {spread:.3e}"
        elif kind == "demo-atom":
            margins.note("closed_form_err", _prefixed_float(out, "posterior error:"))
            margins.note("route_disagreement", _prefixed_float(out, "pipeline cross-check max difference:"))
            if not any(line.startswith("PASS") for line in out.splitlines()):
                return f"{kind}: no PASS line"
        elif kind == "evolve":
            path = Path(argv[argv.index("--out") + 1])
            return check_csv(path, atom.model.dim, expected_records(atom))
    except (ValueError, KeyError, IndexError) as exc:
        return f"{kind}: unreadable output ({exc})"
    return None


def _run_cli(cmd: list[str], env: dict):
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)


def _run_traced_cli(cmd: list[str], env: dict, trace_file: Path, exports: list):
    proc = _run_cli(cmd, env)
    exports.append(json.loads(trace_file.read_text()))
    trace_file.unlink()
    return proc


def cli_ops(manifest: dict, atom, env: dict, margins: Margins, exports: list | None, workdir: Path) -> list[Op]:
    """One CLI process per operation; traced commands append their span export to exports."""
    child = str(Path(__file__).resolve().parent / "child.py")
    gamma = manifest["atom"]["gamma"]
    ops = []
    for spec in manifest["ops"]:
        if exports is None:
            run = functools.partial(_run_cli, [sys.executable, "-m", "retrolind.cli", *spec["argv"]], env)
        else:
            trace_file = workdir / "trace.json"
            cmd = [sys.executable, child, "cli", str(trace_file), *spec["argv"]]
            run = functools.partial(_run_traced_cli, cmd, env, trace_file, exports)
        ops.append(Op(spec["kind"], run, functools.partial(_check_cli, spec, atom, gamma, margins)))
    return ops
