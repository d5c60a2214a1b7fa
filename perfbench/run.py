"""retrolind benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload infer-random --seed 1 --seconds 30 --trace 0

Run it from a checkout of the repository; it needs ``src/retrolind`` and
numpy, and writes only under ``.bench_build/`` (plus the byte-code caches
of ``src``).  It prints a readable summary and then, as its last stdout
line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  See perfbench/README.md for the workloads and metrics.

This file uses only the standard library.  Every measurement runs in a
child process (perfbench/child.py) with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-mix", "infer-random", "trajectory-dim8")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
DEADLINE_S = 170.0
CLI_SUBCOMMANDS = ("validate", "retrodict", "predict", "sweep", "demo-atom", "evolve")
MARGINS = (
    ("inference.route_disagreement", "route_disagreement"),
    ("inference.sweep_spread", "sweep_spread"),
    ("atom.closed_form_err", "closed_form_err"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a measurement."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0.0:
            raise BenchError(f"run exceeded {DEADLINE_S:.0f} s")
        return left


def workload_env(inherited: dict) -> dict:
    """Environment of every measured process: the sources under test, one BLAS thread."""
    env = dict(inherited, PYTHONPATH=str(ROOT / "src"))
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_process(cmd: list[str], env: dict, deadline: Deadline) -> subprocess.CompletedProcess:
    """Run cmd in its own process group; on timeout kill the whole group and reap it."""
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=deadline.left())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])} did not finish in time") from None
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def child(args: list[str], env: dict, deadline: Deadline) -> dict:
    proc = run_process([sys.executable, str(HERE / "child.py"), *args], env, deadline)
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def build(env: dict, deadline: Deadline) -> None:
    """Byte-compile the sources, so the first run's set-up time is not a compile time."""
    cmd = [sys.executable, "-m", "compileall", "-q", str(ROOT / "src" / "retrolind"), str(HERE)]
    proc = run_process(cmd, env, deadline)
    if proc.returncode != 0:
        raise BenchError(f"compileall failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")


def setup_seconds(workload: str, inputs: Path, env: dict, deadline: Deadline) -> list[float]:
    """Set-up time of fresh processes, SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        if workload == "cli-mix":
            start = time.perf_counter()
            proc = run_process([sys.executable, "-c", "import retrolind.cli"], env, deadline)
            times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise BenchError(f"import retrolind.cli failed:\n{proc.stderr[-2000:]}")
        else:
            times.append(child(["setup", str(inputs)], env, deadline)["setup_s"])
    return times


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(retrolind.cli import, numpy import) in ms from ``python -X importtime`` output."""
    package_us = numpy_us = 0
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cumulative = int(fields[1])
        name = fields[2].rstrip()
        if name.strip() in ("retrolind", "retrolind.cli") and name.startswith(" ") and not name.startswith("  "):
            package_us += cumulative
        elif name.strip() == "numpy" and not numpy_us:
            numpy_us = cumulative
    return package_us / 1e3, numpy_us / 1e3


def import_probe(env: dict, deadline: Deadline) -> tuple[float, float]:
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = run_process([sys.executable, "-X", "importtime", "-c", "import retrolind.cli"], env, deadline)
        runs.append(parse_importtime(proc.stderr))
    return statistics.median(r[0] for r in runs), statistics.median(r[1] for r in runs)


def environment(versions: dict, env: dict) -> dict:
    return {
        **versions,
        "threads_inherited": {var: os.environ.get(var, "unset") for var in THREAD_VARS},
        "threads_workload": {var: env[var] for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def end_to_end(run: dict, setup: list[float]) -> dict[str, tuple[float, str]]:
    latencies = [ms for _, ms in run["samples"]]
    completed = len(latencies) - len(run["failures"])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (completed / run["elapsed_s"], "1/s"),
        "op_ms.p50": (measure.percentile(latencies, 50.0), "ms"),
        "op_ms.tail": (measure.percentile(latencies, run["tail_level"]), "ms"),
        "peak_rss_mb": (run["rss_mb"], "MB"),
    }


def per_layer(plain: dict, traced: dict, env: dict, seed: int, deadline: Deadline) -> dict:
    metrics = dict(traced["layers"])
    plain_rate = len(plain["samples"]) / plain["elapsed_s"]
    traced_rate = len(traced["samples"]) / traced["elapsed_s"]
    metrics["trace.overhead_ratio"] = (traced_rate / plain_rate, "ratio")
    import_ms, numpy_ms = import_probe(env, deadline)
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.import_numpy_ms"] = (numpy_ms, "ms")
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.{sub}.ms"] = (traced["cli_ms"].get(sub, 0.0), "ms")
    inherited = dict(os.environ, PYTHONPATH=env["PYTHONPATH"])
    for label, gemv_env in (("default_threads", inherited), ("one_thread", env)):
        metrics[f"dynamics.gemv64_us.{label}"] = (child(["gemv", str(seed)], gemv_env, deadline)["us"], "us")
    for name, key in MARGINS:
        worst = max(plain["margins"][key], traced["margins"][key])
        metrics[f"{name}.max"] = (worst, "prob")
        metrics[f"{name}.tol"] = (traced["pipeline_tol"], "prob")
    return metrics


def summary_lines(args, env_record: dict, runs: list[dict], metrics: dict) -> list[str]:
    first = runs[0]
    attempted = sum(len(r["samples"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    lines = [
        f"# retrolind benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace}",
        f"# env: {json.dumps(env_record, sort_keys=True)}",
        f"# operations: attempted={attempted} failed={failed} "
        f"ops_failed_ratio={failed / attempted:.6g} (ratio) cycles={first['cycles']}",
        f"# op_ms.tail is p{first['tail_level']:g} over {len(first['samples'])} samples",
    ]
    kinds = sorted({kind for kind, _ in first["samples"]})
    per_kind = ", ".join(
        f"{kind} {statistics.median(ms for k, ms in first['samples'] if k == kind):.1f}" for kind in kinds
    )
    lines.append(f"# op_ms.p50 by operation: {per_kind}")
    for error in [e for r in runs for e in r["check_failures"] + r["failures"]][:10]:
        lines.append(f"# FAILED: {error}")
    for name, (value, unit) in metrics.items():
        lines.append(f"# {name} = {value:.6g} {unit}")
    return lines


def measure_run(args, env: dict, workdir: Path, deadline: Deadline) -> dict:
    inputs = workdir / "inputs"
    versions = child(["gen", args.workload, str(args.seed), str(inputs)], env, deadline)
    env_record = environment(versions, env)

    def loop(seconds: float, mode: str) -> dict:
        return child(["run", args.workload, str(inputs), str(workdir), str(seconds), mode], env, deadline)

    if args.trace == 0:
        setup = setup_seconds(args.workload, inputs, env, deadline)
        runs = [loop(args.seconds, "timed")]
        metrics = end_to_end(runs[0], setup)
    else:
        runs = [loop(0, "fixed"), loop(0, "traced")]
        metrics = per_layer(runs[0], runs[1], env, args.seed, deadline)
    for line in summary_lines(args, env_record, runs, metrics):
        print(line)
    attempted = sum(len(r["samples"]) for r in runs)
    failed = sum(len(r["failures"]) for r in runs)
    correct = failed == 0 and not any(r["check_failures"] for r in runs)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "retrolind" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'retrolind'} not found; run from a repository checkout", file=sys.stderr)
        return 2
    deadline = Deadline(DEADLINE_S)
    env = workload_env(os.environ)
    base = ROOT / ".bench_build" / "perfbench"
    base.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=base))
    try:
        build(env, deadline)
        result = measure_run(args, env, workdir, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
