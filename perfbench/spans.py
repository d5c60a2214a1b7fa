"""Span tracing of retrolind's public functions, installed from outside the package.

``install`` replaces each traced function in the namespace of every
``retrolind`` module that imported it (its import sites), so calls between
the package's own modules are seen as well.  Nothing under ``src/`` changes.

Spans nest on one thread.  A span's self time is its duration minus the
time its child spans cover.  Spans are aggregated as they close, keyed by
(name, parent name, import site, inside a scenario load), because the RK4
right-hand side alone closes millions of spans per run.  Spans below one
top-level span (one benchmark operation, or one CLI command) share its root
identifier, which groups RK4 integrations per operation.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED = {
    "scenario_io": ("load_scenario", "write_trajectory_csv"),
    "model": ("validate_scenario_data",),
    "operators": ("min_eigenvalue",),
    "dynamics": (
        "predictive_generator",
        "pom_backward_generator",
        "rk4_integrate",
        "evolve_predictive",
        "evolve_pom_backward",
        "evolve_retrodictive",
    ),
    "inference": (
        "retrodict_preparation_probs",
        "bayes_from_predictive",
        "collapse_time_sweep",
        "normalize_to_retrodictive",
    ),
}
LOAD = "scenario_io.load_scenario"
RK4 = "dynamics.rk4_integrate"
RHS = "dynamics.rk4_integrate.rhs"
POST = "dynamics.rk4_integrate.post_step"
CSV = "scenario_io.write_trajectory_csv"
SWEEP = "inference.collapse_time_sweep"
QUERY = ("inference.retrodict_preparation_probs", "inference.bayes_from_predictive")
MIN_EIG = "operators.min_eigenvalue"
EIG_CALLERS = ("model", "dynamics", "inference")


class _Frame:
    __slots__ = ("name", "child", "root", "in_load")

    def __init__(self, name: str, root: int, in_load: bool):
        self.name = name
        self.child = 0.0
        self.root = root
        self.in_load = in_load


class Tracer:
    """Aggregated spans, counters and RK4 integration records for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[_Frame] = []
        # (name, parent, site, in_load) -> [calls, total seconds, self seconds]
        self.table: dict[tuple, list] = {}
        self.counters: dict[str, float] = defaultdict(float)
        # (root, kind, trajectory identity, steps); kind is "query", "sweep" or None
        self.integrations: list[tuple] = []
        self._roots = 0

    def _open(self, name: str) -> _Frame:
        if self.stack:
            parent = self.stack[-1]
            frame = _Frame(name, parent.root, parent.in_load or name == LOAD)
        else:
            self._roots += 1
            frame = _Frame(name, self._roots, name == LOAD)
        self.stack.append(frame)
        return frame

    def _close(self, frame: _Frame, site: str | None, duration: float) -> None:
        self.stack.pop()
        parent = self.stack[-1].name if self.stack else None
        key = (frame.name, parent, site, frame.in_load)
        rec = self.table.get(key)
        if rec is None:
            rec = self.table[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - frame.child
        if self.stack:
            self.stack[-1].child += duration

    def call(self, name: str, site: str | None, fn, args, kwargs):
        frame = self._open(name)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, site, self.clock() - start)

    @contextmanager
    def span(self, name: str):
        frame = self._open(name)
        start = self.clock()
        try:
            yield
        finally:
            self._close(frame, None, self.clock() - start)

    def _inference_kind(self) -> str | None:
        names = {f.name for f in self.stack}
        if SWEEP in names:
            return "sweep"
        if names.intersection(QUERY):
            return "query"
        return None

    def _innermost_evolve(self) -> str | None:
        for frame in reversed(self.stack):
            if frame.name.startswith("dynamics.evolve_"):
                return frame.name
        return None

    def export(self) -> dict:
        """Plain-data summary, mergeable across processes."""
        redundancy: dict[str, list[float]] = {}
        longest: dict[tuple, int] = {}
        for root, kind, ident, steps in self.integrations:
            if kind is None:
                continue
            acc = redundancy.setdefault(kind, [0, 0])
            acc[0] += steps
            key = (root, kind, ident)
            longest[key] = max(longest.get(key, 0), steps)
        for (_, kind, _), steps in longest.items():
            redundancy[kind][1] += steps
        return {
            "table": [[*key, *rec] for key, rec in self.table.items()],
            "counters": dict(self.counters),
            "redundancy": redundancy,
        }


def _plain_wrapper(tracer: Tracer, name: str, site: str, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, site, fn, args, kwargs)

    return traced


def _csv_wrapper(tracer: Tracer, name: str, site: str, fn):
    def traced(path, *args, **kwargs):
        result = tracer.call(name, site, fn, (path, *args), kwargs)
        tracer.counters[CSV + ".bytes"] += os.path.getsize(path)
        return result

    return traced


def _rk4_wrapper(tracer: Tracer, name: str, site: str, fn):
    signature = inspect.signature(fn)

    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        rhs = bound.arguments["rhs"]
        post = bound.arguments.get("post_step")
        rhs_calls = [0]

        def traced_rhs(v):
            rhs_calls[0] += 1
            return tracer.call(RHS, None, rhs, (v,), {})

        bound.arguments["rhs"] = traced_rhs
        if post is not None:
            bound.arguments["post_step"] = lambda v, k: tracer.call(POST, None, post, (v, k), {})
        x0 = bound.arguments["x0"]
        kind = tracer._inference_kind()
        ident = (tracer._innermost_evolve(), hash(x0.tobytes()))
        root = tracer.stack[-1].root if tracer.stack else 0
        result = tracer.call(name, site, fn, bound.args, bound.kwargs)
        steps = rhs_calls[0] // 4
        tracer.counters[RK4 + ".steps"] += steps
        tracer.counters[RK4 + ".recorded_states"] += len(result)
        tracer.integrations.append((root, kind, ident, steps))
        return result

    return traced


_WRAPPERS = {CSV: _csv_wrapper, RK4: _rk4_wrapper}


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each of its import sites."""
    import retrolind  # noqa: F401  (the package must be loaded before patching)

    originals = {}
    for module, names in TRACED.items():
        defining = sys.modules[f"retrolind.{module}"]
        for fname in names:
            originals[id(getattr(defining, fname))] = (f"{module}.{fname}", getattr(defining, fname))
    for modname, module in list(sys.modules.items()):
        if modname != "retrolind" and not modname.startswith("retrolind."):
            continue
        site = modname.rpartition(".")[2]
        patches = {}
        for attr, value in vars(module).items():
            hit = originals.get(id(value))
            if hit is not None and hit[1] is value:
                name, fn = hit
                patches[attr] = _WRAPPERS.get(name, _plain_wrapper)(tracer, name, site, fn)
        for attr, wrapper in patches.items():
            setattr(module, attr, wrapper)


def merge(exports) -> dict:
    """Sum exports from several processes (one per traced CLI command)."""
    table: dict[tuple, list] = {}
    counters: dict[str, float] = defaultdict(float)
    redundancy: dict[str, list] = {}
    for export in exports:
        for *key, calls, total, self_s in export["table"]:
            rec = table.setdefault(tuple(key), [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, value in export["counters"].items():
            counters[name] += value
        for kind, (steps, base) in export["redundancy"].items():
            acc = redundancy.setdefault(kind, [0, 0])
            acc[0] += steps
            acc[1] += base
    return {
        "table": [[*key, *rec] for key, rec in table.items()],
        "counters": dict(counters),
        "redundancy": redundancy,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(export: dict, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a (merged) export; zero where a layer was not used."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    eig = {c: [0, 0.0, 0.0] for c in EIG_CALLERS}
    eig_in_load = 0
    for name, parent, site, in_load, n, tot, own in export["table"]:
        calls[name] += n
        total[name] += tot
        self_s[name] += own
        if name == MIN_EIG:
            caller = "inference" if parent and parent.startswith("inference.") else site
            if caller in eig:
                eig[caller][0] += n
                eig[caller][1] += tot
                eig[caller][2] += own
            if in_load:
                eig_in_load += n
    counters = export["counters"]
    out: dict[str, tuple[float, str]] = {}

    def calls_and_self(name: str) -> None:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (self_s[name] * 1e3, "ms")

    calls_and_self(LOAD)
    calls_and_self("model.validate_scenario_data")
    out["model.eigensolves_per_load"] = (_ratio(eig_in_load, calls[LOAD]), "count")
    calls_and_self(CSV)
    out[CSV + ".bytes"] = (counters.get(CSV + ".bytes", 0.0), "bytes")
    for gen in ("predictive", "pom_backward"):
        calls_and_self(f"dynamics.{gen}_generator")
    steps = counters.get(RK4 + ".steps", 0.0)
    calls_and_self(RK4)
    out[RK4 + ".steps"] = (steps, "count")
    out[RK4 + ".rhs_calls"] = (calls[RHS], "count")
    out[RK4 + ".rhs_ms"] = (total[RHS] * 1e3, "ms")
    out[RK4 + ".post_step_calls"] = (calls[POST], "count")
    out[RK4 + ".post_step_ms"] = (total[POST] * 1e3, "ms")
    out[RK4 + ".recorded_states"] = (counters.get(RK4 + ".recorded_states", 0.0), "count")
    out["dynamics.us_per_step"] = (_ratio(total[RK4] * 1e6, steps), "us")
    for mode in ("predictive", "pom_backward", "retrodictive"):
        calls_and_self(f"dynamics.evolve_{mode}")
    for caller, (n, tot, own) in eig.items():
        out[f"{MIN_EIG}.{caller}.calls"] = (n, "count")
        out[f"{MIN_EIG}.{caller}.self_ms"] = (own * 1e3, "ms")
        out[f"{MIN_EIG}.{caller}.us_per_call"] = (_ratio(tot * 1e6, n), "us")
    for fn in ("retrodict_preparation_probs", "bayes_from_predictive", "collapse_time_sweep"):
        calls_and_self(f"inference.{fn}")
    out["inference.integrations_per_op"] = (_ratio(calls[RK4], ops), "count")
    red = export["redundancy"]
    both = [sum(v[0] for v in red.values()), sum(v[1] for v in red.values())]
    out["inference.step_redundancy"] = (_ratio(*both), "ratio")
    for kind in ("query", "sweep"):
        out[f"inference.step_redundancy.{kind}"] = (_ratio(*red.get(kind, (0, 0))), "ratio")
    return out


def cli_command_ms(export: dict) -> dict[str, float]:
    """Mean in-process time of each CLI subcommand, from the ``cli.<name>`` root spans."""
    per: dict[str, list] = {}
    for name, parent, _site, _in_load, n, tot, _own in export["table"]:
        if parent is None and name.startswith("cli."):
            acc = per.setdefault(name[4:], [0, 0.0])
            acc[0] += n
            acc[1] += tot
    return {sub: tot * 1e3 / n for sub, (n, tot) in per.items() if n}

