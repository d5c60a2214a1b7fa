"""Closed-form reference results for the decaying two-level atom.

Everything here is written straight from the analytic solution of the
backward equations for a single decay channel; none of it calls the
numerical dynamics, so these functions serve as an independent oracle for
the integrator and the inference pipeline.

Basis order is (|e>, |g>).  For an atom measured in the superposition basis
the retrodictive state a premeasurement time tau before an observed "+"
outcome is

    rho(tau) = [ I + (|e><g| + |g><e|) exp(-gamma tau / 2) ] / 2

and the probability that the matching superposition was prepared, given
equal priors, is (1 + exp(-gamma T / 2)) / 2 for a window of length T.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (
    DensityOperator,
    IntegratorConfig,
    Pom,
    Scenario,
    _is_finite,
    plus_minus_ensemble,
    two_level_decay_model,
)

__all__ = [
    "analytic_retrodictive_state",
    "analytic_preparation_probability",
    "demo_scenario",
]


def _check_rates(gamma: float, elapsed: float, elapsed_name: str) -> None:
    if not (_is_finite(gamma) and gamma > 0.0):
        raise ValueError(f"decay rate must be finite and positive, got {gamma!r}")
    if not (_is_finite(elapsed) and elapsed >= 0.0):
        raise ValueError(f"{elapsed_name} must be finite and >= 0, got {elapsed!r}")


def analytic_retrodictive_state(gamma: float, tau: float) -> DensityOperator:
    """Retrodictive state tau before a "+" outcome on the decaying atom."""
    _check_rates(gamma, tau, "tau")
    coherence = 0.5 * math.exp(-gamma * tau / 2.0)
    op = np.array([[0.5, coherence], [coherence, 0.5]], dtype=np.complex128)
    return DensityOperator(op)


def analytic_preparation_probability(gamma: float, window: float) -> float:
    """P(prepared "+" | measured "+") for equal priors over a window t_m - t_p."""
    _check_rates(gamma, window, "window")
    return 0.5 * (1.0 + math.exp(-gamma * window / 2.0))


def demo_scenario(
    gamma: float,
    window: float,
    integrator: IntegratorConfig | None = None,
) -> Scenario:
    """Decaying atom prepared and measured in the superposition basis.

    Preparation at t_p = 0, measurement at t_m = window, outcomes "+"/"-"
    projecting onto (|e> +/- |g>)/sqrt(2).
    """
    _check_rates(gamma, window, "window")
    ensemble = plus_minus_ensemble()
    return Scenario(
        model=two_level_decay_model(gamma),
        ensemble=ensemble,
        pom=Pom(tuple(state.op for state in ensemble.states), ensemble.labels),
        t_p=0.0,
        t_m=window,
        integrator=integrator if integrator is not None else IntegratorConfig(),
    )
