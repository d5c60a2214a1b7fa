"""Command-line interface.

Exit codes: 0 success, 1 parse failure, 2 usage or validation error,
3 internal consistency failure (pipeline disagreement, demo FAIL),
4 integration failure.  Commands fail by raising, and main alone maps each
exception to its exit code and one stderr line (an invalid scenario lists
every issue); a command line argparse rejects also exits 2 on one line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .atom import analytic_preparation_probability, analytic_retrodictive_state, demo_scenario
from .dynamics import (
    IntegrationError,
    evolve_pom_backward,
    evolve_predictive,
    evolve_retrodictive,
)
from .inference import (
    bayes_from_predictive,
    collapse_time_sweep,
    normalize_to_retrodictive,
    predict_outcome_probs,
    retrodict_preparation_probs,
)
from .model import DensityOperator
from .operators import frobenius_distance
from .scenario_io import (
    ScenarioFormatError,
    ScenarioValidationError,
    load_scenario,
    matrix_from_pairs,
    write_trajectory_csv,
)
from .tolerances import PIPELINE_TOL

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_USAGE = 2
EXIT_CONSISTENCY = 3
EXIT_INTEGRATION = 4


class _ConsistencyFailure(Exception):
    """Route disagreement, sweep spread or demo deviation beyond PIPELINE_TOL."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A command line argparse rejects is a usage error, on one line."""
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _fmt(x: float) -> str:
    return f"{x:.12e}"


def _routes(scenario, outcome: str):
    """The posterior by the retrodictive route, its Bayes cross-check by the
    predictive route, and their largest difference."""
    posterior = retrodict_preparation_probs(scenario, outcome)
    crosscheck = bayes_from_predictive(scenario, outcome)
    return posterior, crosscheck, float(np.max(np.abs(posterior.probs - crosscheck.probs)))


def cmd_validate(args: argparse.Namespace) -> int:
    load_scenario(args.scenario)
    print("OK")
    return EXIT_OK


def cmd_retrodict(args: argparse.Namespace) -> int:
    posterior, crosscheck, max_diff = _routes(load_scenario(args.scenario), args.outcome)
    if args.format == "json":
        report = {
            "outcome": args.outcome,
            "labels": list(posterior.labels),
            "posterior": [float(p) for p in posterior.probs],
            "bayes_crosscheck": [float(p) for p in crosscheck.probs],
            "max_abs_difference": max_diff,
        }
        print(json.dumps(report, indent=2))
    else:
        print(f"# outcome: {args.outcome}")
        print(f"# max_abs_difference: {_fmt(max_diff)}")
        print("label,p_retrodict,p_bayes")
        for label, p_retro in posterior.items():
            print(f"{label},{_fmt(p_retro)},{_fmt(crosscheck[label])}")
    if max_diff > PIPELINE_TOL:
        raise _ConsistencyFailure(f"inference routes disagree by {max_diff:.3e} (tolerance {PIPELINE_TOL:.1e})")
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    table = predict_outcome_probs(scenario, args.preparation)
    print(f"# preparation: {args.preparation}")
    print("label,probability")
    for label, p in table.items():
        print(f"{label},{_fmt(p)}")
    return EXIT_OK


def _resolve_initial(scenario, mode: str, text: str):
    """Label in the mode's namespace, or an inline [re, im] matrix."""
    if mode == "predictive":
        if text in scenario.ensemble.labels:
            return scenario.ensemble.states[scenario.ensemble.labels.index(text)]
        return DensityOperator(_parse_inline_matrix(text))
    if text in scenario.pom.labels:
        element = scenario.pom.elements[scenario.pom.labels.index(text)]
    else:
        element = _parse_inline_matrix(text)
    if mode == "retrodictive":
        return normalize_to_retrodictive(element)
    return element


def _parse_inline_matrix(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        raise ValueError(
            f"initial {text!r} is neither a known label nor inline JSON for a [re, im] matrix"
        ) from None
    try:
        return matrix_from_pairs(doc, "initial")
    except ScenarioFormatError as exc:
        raise ValueError(str(exc)) from None


def cmd_evolve(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    initial = _resolve_initial(scenario, args.mode, args.initial)
    evolve, description = {
        "predictive": (evolve_predictive, "t - t_p (laboratory time since preparation)"),
        "pom-backward": (evolve_pom_backward, "tau = t_m - t (premeasurement time)"),
        "retrodictive": (evolve_retrodictive, "tau = t_m - t (premeasurement time)"),
    }[args.mode]
    trajectory = evolve(scenario.model, initial, scenario.duration, scenario.integrator)
    try:
        write_trajectory_csv(args.out, trajectory, description)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    print(f"wrote {len(trajectory)} states to {args.out}")
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    scenario = load_scenario(args.scenario)
    points = collapse_time_sweep(scenario, args.preparation, args.outcome, args.points)
    values = [p for _, p in points]
    spread = max(values) - min(values)
    print(f"# preparation: {args.preparation}, outcome: {args.outcome}")
    print(f"# max_spread: {_fmt(spread)}")
    print("collapse_time,probability")
    for t, p in points:
        print(f"{_fmt(t)},{_fmt(p)}")
    if spread > PIPELINE_TOL:
        raise _ConsistencyFailure(f"collapse-time spread {spread:.3e} exceeds {PIPELINE_TOL:.1e}")
    return EXIT_OK


def cmd_demo_atom(args: argparse.Namespace) -> int:
    if args.gamma <= 0.0:
        raise ValueError("--gamma must be positive")
    if args.duration < 0.0:
        raise ValueError("--duration must be >= 0")
    scenario = demo_scenario(args.gamma, args.duration)
    posterior, _, pipeline_diff = _routes(scenario, "+")
    expected = analytic_preparation_probability(args.gamma, args.duration)
    posterior_err = abs(posterior["+"] - expected)

    reference = analytic_retrodictive_state(args.gamma, args.duration)
    evolved = evolve_retrodictive(
        scenario.model,
        normalize_to_retrodictive(scenario.pom.elements[0]),
        args.duration,
        scenario.integrator,
    )
    state_err = frobenius_distance(evolved.final, reference.op)

    print(f"posterior P(+|+): numerical {_fmt(posterior['+'])}, closed form {_fmt(expected)}")
    print(f"posterior P(-|+): numerical {_fmt(posterior['-'])}")
    print(f"posterior error: {posterior_err:.3e}")
    print(f"pipeline cross-check max difference: {pipeline_diff:.3e}")
    print(f"retrodictive state error (Frobenius): {state_err:.3e}")
    worst = max(posterior_err, pipeline_diff, state_err)
    if worst > PIPELINE_TOL:
        print(f"FAIL (worst deviation {worst:.3e} > {PIPELINE_TOL:.1e})")
        raise _ConsistencyFailure(f"demo deviates from the closed forms by {worst:.3e} (tolerance {PIPELINE_TOL:.1e})")
    print(f"PASS (worst deviation {worst:.3e} <= {PIPELINE_TOL:.1e})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="retrolind",
        description="Retrodictive master-equation toolkit: evolve outcome operators "
        "backward from a measurement and infer what was prepared.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file against every invariant")
    p.add_argument("scenario", help="scenario JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("retrodict", help="posterior preparation probabilities for an outcome")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--outcome", required=True, help="measured outcome label")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_retrodict)

    p = sub.add_parser("predict", help="outcome probabilities for a preparation")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--preparation", required=True, help="preparation label")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evolve", help="write a recorded trajectory as CSV")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument(
        "--mode", required=True, choices=("predictive", "pom-backward", "retrodictive")
    )
    p.add_argument(
        "--initial",
        required=True,
        help="ensemble label (predictive), outcome label (backward modes), "
        "or an inline JSON matrix of [re, im] pairs",
    )
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sweep", help="collapse-time invariance check for one pairing")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--preparation", required=True, help="preparation label")
    p.add_argument("--outcome", required=True, help="outcome label")
    p.add_argument("--points", type=int, required=True, help="number of collapse times (>= 2)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demo-atom", help="decaying-atom self-test against closed forms")
    p.add_argument("--gamma", type=float, required=True, help="decay rate (> 0)")
    p.add_argument("--duration", type=float, required=True, help="window t_m - t_p (>= 0)")
    p.set_defaults(func=cmd_demo_atom)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScenarioValidationError as exc:
        print("scenario is invalid:", *(f"  {line}" for line in exc.report.lines()), sep="\n", file=sys.stderr)
        return EXIT_USAGE
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except _ConsistencyFailure as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
