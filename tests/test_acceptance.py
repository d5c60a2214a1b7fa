"""Acceptance gate: every shipped guarantee, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines.  The random sweep is seeded, so the reported worst-case numbers are
reproducible.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from retrolind import (
    DensityOperator,
    IntegratorConfig,
    bayes_from_predictive,
    collapse_time_sweep,
    evolve_pom_backward,
    evolve_predictive,
    evolve_retrodictive,
    frobenius_distance,
    min_eigenvalue,
    normalize_to_retrodictive,
    retrodict_preparation_probs,
    trace,
    two_level_decay_model,
)
from retrolind.atom import (
    analytic_preparation_probability,
    analytic_retrodictive_state,
    demo_scenario,
)
from retrolind.cli import main as cli_main

from scenario_factory import random_scenario

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SWEEP_SEED = 20240815
SWEEP_SIZE = 200
PLUS = np.full((2, 2), 0.5, dtype=complex)


def _report(num: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:2d} [{status}] {description}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def random_sweep():
    """Evolve 200 random scenarios once; criteria 3, 4, 5, 7, 8 read the results.

    Models span dim 2..4 with 1..3 jump operators, Hamiltonian spectral
    radius <= 2, jump norms <= 1, windows up to 5 time units.
    """
    rng = np.random.default_rng(SWEEP_SEED)
    worst = {
        "trace": 0.0,
        "eig": 0.0,
        "completeness": 0.0,
        "routes": 0.0,
        "equivalence": 0.0,
    }
    for _ in range(SWEEP_SIZE):
        scenario = random_scenario(rng)
        model, window, config = scenario.model, scenario.duration, scenario.integrator
        eye = np.eye(model.dim)

        backward = [
            evolve_pom_backward(model, el, window, config) for el in scenario.pom.elements
        ]
        forward = [
            evolve_predictive(model, st, window, config) for st in scenario.ensemble.states
        ]
        retro = evolve_retrodictive(
            model, normalize_to_retrodictive(scenario.pom.elements[0]), window, config
        )

        # One call per trajectory's stack; a norm over axes (-2, -1) is one
        # Frobenius norm per recorded matrix.
        worst["trace"] = max(worst["trace"], float(np.max(np.abs(trace(retro.states).real - 1.0))))
        for traj in (retro, *backward, *forward):
            worst["eig"] = min(worst["eig"], float(np.min(min_eigenvalue(traj.states))))
        total = sum(traj.states for traj in backward)
        worst["completeness"] = max(
            worst["completeness"], float(np.max(np.linalg.norm(total - eye, axis=(-2, -1))))
        )
        linear = backward[0].states
        normalized = linear / trace(linear).real[:, None, None]
        worst["equivalence"] = max(
            worst["equivalence"], float(np.max(np.linalg.norm(retro.states - normalized, axis=(-2, -1))))
        )

        direct = retrodict_preparation_probs(scenario, 0)
        via_bayes = bayes_from_predictive(scenario, 0)
        worst["routes"] = max(
            worst["routes"], float(np.max(np.abs(direct.probs - via_bayes.probs)))
        )
    return worst


def test_criterion_01_backward_atom_matches_closed_form():
    gamma = 1.0
    model = two_level_decay_model(gamma)
    start = time.perf_counter()
    traj = evolve_pom_backward(model, PLUS, 5.0)
    worst = 0.0
    for tau, element in zip(traj.times, traj.states):
        normalized = element / trace(element).real
        reference = analytic_retrodictive_state(gamma, float(tau)).op
        worst = max(worst, frobenius_distance(normalized, reference))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "normalized backward evolution reproduces the closed-form atom state",
        worst <= 1e-8 and elapsed < 1.0,
        f"worst Frobenius distance {worst:.3e} <= 1e-8 over tau in [0, 5], "
        f"elapsed {elapsed:.2f}s < 1s",
    )


def test_criterion_02_posterior_matches_closed_form():
    gamma = 1.0
    windows = (0.0, 0.5, 1.0, 2.0 * math.log(2.0), 5.0, 20.0)
    worst = 0.0
    endpoints_ok = True
    for window in windows:
        posterior = retrodict_preparation_probs(demo_scenario(gamma, window), "+")["+"]
        worst = max(worst, abs(posterior - analytic_preparation_probability(gamma, window)))
        if window == 0.0:
            endpoints_ok &= abs(posterior - 1.0) <= 1e-7
        if window == 20.0:
            endpoints_ok &= abs(posterior - 0.5) <= 1e-4
    _report(
        2,
        "posterior equals (1 + exp(-gamma T / 2)) / 2 across windows",
        worst <= 1e-7 and endpoints_ok,
        f"worst deviation {worst:.3e} <= 1e-7 at T in {{0, 0.5, 1, 2 ln 2, 5, 20}}, "
        "limits 1 and 1/2 confirmed",
    )


def test_criterion_03_retrodictive_trace_preserved(random_sweep):
    worst = random_sweep["trace"]
    _report(
        3,
        "retrodictive evolution keeps unit trace over 200 random scenarios",
        worst <= 1e-8,
        f"max |trace - 1| = {worst:.3e} <= 1e-8 on every recorded state",
    )


def test_criterion_04_recorded_states_stay_positive(random_sweep):
    lowest = random_sweep["eig"]
    _report(
        4,
        "predictive, backward, and retrodictive states stay positive",
        lowest >= -1e-7,
        f"most negative recorded eigenvalue {lowest:.3e} >= -1e-7",
    )


def test_criterion_05_pom_completeness_preserved(random_sweep):
    worst = random_sweep["completeness"]
    _report(
        5,
        "backward-evolved outcome operators keep summing to the identity",
        worst <= 1e-7,
        f"max Frobenius deviation from identity {worst:.3e} <= 1e-7 at every recorded tau",
    )


def test_criterion_06_collapse_time_invariance():
    rng = np.random.default_rng(SWEEP_SEED + 1)
    worst = 0.0
    for _ in range(50):
        scenario = random_scenario(rng)
        i = int(rng.integers(0, len(scenario.ensemble)))
        j = int(rng.integers(0, len(scenario.pom)))
        values = [p for _, p in collapse_time_sweep(scenario, i, j, 5)]
        worst = max(worst, max(values) - min(values))
    _report(
        6,
        "outcome probability is independent of the collapse time",
        worst <= 1e-6,
        f"max 5-point spread {worst:.3e} <= 1e-6 over 50 random scenarios",
    )


def test_criterion_07_inference_routes_agree(random_sweep):
    worst = random_sweep["routes"]
    _report(
        7,
        "retrodictive posterior equals the Bayes-from-predictive posterior",
        worst <= 1e-7,
        f"max entrywise difference {worst:.3e} <= 1e-7 across the sweep",
    )


def test_criterion_08_nonlinear_matches_normalized_linear(random_sweep):
    worst = random_sweep["equivalence"]
    _report(
        8,
        "retrodictive evolution equals the normalized backward evolution",
        worst <= 1e-6,
        f"max Frobenius distance {worst:.3e} <= 1e-6 at every recorded state",
    )


def test_criterion_09_integrator_is_fourth_order():
    gamma, tau = 1.0, 2.0
    model = two_level_decay_model(gamma)
    reference = analytic_retrodictive_state(gamma, tau).op
    errors = []
    for steps in (20, 40, 80, 160):
        config = IntegratorConfig(steps_per_unit_time=steps, record_every=10**6)
        traj = evolve_retrodictive(model, DensityOperator(PLUS), tau, config)
        errors.append(frobenius_distance(traj.final, reference))
    ratios = [errors[k] / errors[k + 1] for k in range(len(errors) - 1)]
    _report(
        9,
        "halving the step size cuts the error at least eightfold, three times",
        all(r >= 8.0 for r in ratios),
        "ratios " + ", ".join(f"{r:.1f}" for r in ratios) + " >= 8",
    )


def test_criterion_10_cli_contract(capsys):
    ok = True
    details = []
    for window in (0.0, 1.0, 5.0):
        code = cli_main(["demo-atom", "--gamma", "1.0", "--duration", str(window)])
        passed = code == 0 and "PASS" in capsys.readouterr().out
        ok &= passed
        details.append(f"demo T={window:g} exit {code}")
    for name, expected in (
        ("atom_demo.json", 0),
        ("invalid_priors.json", 2),
        ("malformed.json", 1),
    ):
        code = cli_main(["validate", str(SCENARIOS_DIR / name)])
        capsys.readouterr()
        ok &= code == expected
        details.append(f"validate {name} exit {code} (want {expected})")
    with capsys.disabled():
        _report(
            10,
            "CLI self-test passes and validate maps files to the exit-code contract",
            ok,
            "; ".join(details),
        )
