"""Entry point of the benchmark's child processes.

    child.py gen WORKLOAD SEED OUTDIR        write inputs; print the library versions
    child.py setup INPUTDIR                  time import retrolind + load_scenario of every input
    child.py run WORKLOAD INPUTDIR WORKDIR SECONDS MODE
                                             run the closed loop; print its samples and checks.
                                             MODE "timed": at least SECONDS and the workload's
                                             minimum cycles; "fixed": a fixed number of cycles;
                                             "traced": the same fixed cycles with spans
    child.py cli TRACE_FILE ARGV...          one traced CLI command; spans go to TRACE_FILE
    child.py gemv SEED                       time the dim-8 generator matvec

Each mode prints one JSON object as its last stdout line.  Heavy imports
happen inside the modes so that ``setup`` times them.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

GEMV_CALLS = 500


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def gen(workload: str, seed: str, outdir: str) -> None:
    import platform

    import numpy as np

    import inputgen

    inputgen.generate(workload, int(seed), Path(outdir))
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    _emit(
        {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
        }
    )


def setup(inputdir: str) -> None:
    manifest = json.loads((Path(inputdir) / "manifest.json").read_text())
    paths = [Path(inputdir) / name for name in manifest["files"]]
    start = time.perf_counter()
    import retrolind

    for path in paths:
        retrolind.load_scenario(path)
    _emit({"setup_s": time.perf_counter() - start})


def run(workload: str, inputdir: str, workdir: str, seconds: str, mode: str) -> None:
    import retrolind

    import spans
    import workloads

    inputdir, workdir = Path(inputdir), Path(workdir)
    manifest = json.loads((inputdir / "manifest.json").read_text())
    traced = mode == "traced"
    margins = workloads.Margins()
    gamma = manifest["atom"]["gamma"]
    atom = retrolind.load_scenario(inputdir / manifest["atom"]["file"])
    check_failures = []
    tracer = exports = None
    if workload == "cli-mix":
        exports = [] if traced else None
        ops = workloads.cli_ops(manifest, atom, dict(os.environ), margins, exports, workdir)
    else:
        error = workloads.atom_check(atom, gamma, margins)
        if error is not None:
            check_failures.append(error)
        if traced:
            tracer = spans.Tracer()
            spans.install(tracer)
        with tracer.span("bench.setup") if traced else contextlib.nullcontext():
            scenarios = {name: retrolind.load_scenario(inputdir / name) for name in manifest["files"]}
        if workload == "infer-random":
            ops = workloads.infer_ops(manifest, scenarios, margins)
        else:
            ops = workloads.trajectory_ops(manifest, scenarios, workdir)
    if mode == "timed":
        min_cycles, max_cycles = workloads.MIN_CYCLES[workload], sys.maxsize
    else:
        min_cycles = max_cycles = workloads.TRACE_CYCLES
    loop = workloads.closed_loop(ops, float(seconds), min_cycles, max_cycles, tracer)
    who = resource.RUSAGE_CHILDREN if workload == "cli-mix" else resource.RUSAGE_SELF
    result = {
        "samples": loop.samples,
        "failures": loop.failures,
        "check_failures": check_failures,
        "elapsed_s": loop.elapsed_s,
        "cycles": loop.cycles,
        "tail_level": workloads.tail_level(workload, len(ops)),
        "rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "margins": asdict(margins),
        "pipeline_tol": workloads.PIPELINE_TOL,
    }
    if traced:
        export = tracer.export() if tracer is not None else spans.merge(exports)
        result["layers"] = spans.layer_metrics(export, len(loop.samples))
        result["cli_ms"] = spans.cli_command_ms(export)
    _emit(result)


def cli(trace_file: str, *argv: str) -> None:
    import retrolind.cli

    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        with tracer.span(f"cli.{argv[0]}"):
            code = retrolind.cli.main(list(argv))
    finally:
        Path(trace_file).write_text(json.dumps(tracer.export()))
    sys.exit(code)


def gemv(seed: str) -> None:
    import numpy as np
    import retrolind

    import inputgen

    rng = np.random.default_rng(int(seed))
    gen = retrolind.predictive_generator(inputgen.random_model(rng, 8, 2))
    v = rng.normal(size=64) + 1j * rng.normal(size=64)
    start = time.perf_counter()
    for _ in range(GEMV_CALLS):
        gen @ v
    _emit({"us": (time.perf_counter() - start) / GEMV_CALLS * 1e6})


MODES = {"gen": gen, "setup": setup, "run": run, "cli": cli, "gemv": gemv}

if __name__ == "__main__":
    MODES[sys.argv[1]](*sys.argv[2:])
