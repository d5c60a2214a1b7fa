"""Preparation and outcome probabilities from the two inference routes.

The predictive route carries the prepared state forward and pairs it with
backward-evolved outcome operators; the probability of outcome j given
preparation i is Tr[rho_i(t) Pi_j(t)] at any collapse time t in
[t_p, t_m] (the pairing is independent of t, which collapse_time_sweep
checks numerically).

The retrodictive route carries the observed outcome operator backward to
the preparation time, normalizes it into a retrodictive state, and pairs
it with the preparation-device operators Lambda_i = P(i) rho_i.  Both
routes must give the same posterior; the CLI refuses to report when they
disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import IntegrationError, _run
from .model import (
    DensityOperator,
    IntegratorConfig,
    LindbladModel,
    PreparationEnsemble,
    Scenario,
)
from .operators import as_operator, symmetrize, trace
from .tolerances import NEGATIVE_PROB_TOL, NORMALIZE_TRACE_FLOOR, PREPARATION_TRACE_TOL, PROBABILITY_SUM_TOL
from .tolerances import MAX_RECORDED_BYTES, MAX_RK4_STEPS, RAW_SUM_TOL, RETRODICTIVE_EIG_TOL

__all__ = [
    "NEGATIVE_PROB_TOL",
    "ProbabilityTable",
    "normalize_to_retrodictive",
    "preparation_operators",
    "predict_outcome_probs",
    "retrodict_preparation_probs",
    "bayes_from_predictive",
    "collapse_time_sweep",
]

@dataclass(frozen=True, eq=False)
class ProbabilityTable:
    """Labeled probabilities: entrywise >= 0 and summing to 1 within 1e-9."""

    labels: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        probs = np.array(self.probs, dtype=float)
        if probs.ndim != 1 or len(labels) != probs.size:
            raise ValueError("labels and probabilities must align one-to-one")
        if np.any(probs < 0.0):
            raise ValueError(f"negative probability {probs.min():.3e}")
        if abs(probs.sum() - 1.0) > PROBABILITY_SUM_TOL:
            raise ValueError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    def __getitem__(self, key: str | int) -> float:
        if isinstance(key, str):
            return float(self.probs[self.labels.index(key)])
        return float(self.probs[key])

    def items(self) -> list[tuple[str, float]]:
        return [(label, float(p)) for label, p in zip(self.labels, self.probs)]


def _label_index(labels: tuple[str, ...], key: str | int, what: str) -> int:
    if isinstance(key, str):
        if key not in labels:
            raise ValueError(f"unknown {what} label {key!r}; known labels: {', '.join(labels)}")
        return labels.index(key)
    if not 0 <= key < len(labels):
        raise ValueError(f"{what} index {key} out of range for {len(labels)} entries")
    return int(key)


def _clamp_raw(raw: np.ndarray, what: str) -> np.ndarray:
    low = float(raw.min())
    if low < -NEGATIVE_PROB_TOL:
        raise IntegrationError(f"{what} {low:.3e} is more negative than round-off allows")
    return np.clip(raw, 0.0, None)


def normalize_to_retrodictive(pi) -> DensityOperator:
    """Outcome operator divided by its trace: the retrodictive state.

    The operator must be square and finite, and its trace real and positive;
    RETRODICTIVE_EIG_TOL admits the slight negativity a backward-evolved
    element can carry after division by a sub-unit trace.  The
    DensityOperator constructor checks Hermiticity.
    """
    pi = as_operator(pi)
    tr = trace(pi).real
    if tr <= NORMALIZE_TRACE_FLOOR:
        raise ValueError(f"outcome operator trace {tr:.3e} is too small to normalize")
    return DensityOperator(pi / tr, eig_tol=RETRODICTIVE_EIG_TOL)


def preparation_operators(
    ensemble: PreparationEnsemble,
    model: LindbladModel,
    t_minus_tp: float,
    config: IntegratorConfig = IntegratorConfig(),
) -> list[np.ndarray]:
    """Prior-weighted predictive states Lambda_i at time t_p + t_minus_tp."""
    if t_minus_tp < 0.0:
        raise ValueError(f"time offset must be >= 0, got {t_minus_tp}")
    if ensemble.dim != model.dim:  # the ensemble's states share one shape
        raise ValueError(f"operator shape {ensemble.states[0].op.shape} does not match model dimension {model.dim}")
    finals = _finals(model, [st.op for st in ensemble.states], t_minus_tp, config, backward=False)
    ops = [prior * final for prior, final in zip(ensemble.priors, finals)]
    total_trace = math.fsum(trace(op).real for op in ops)
    if abs(total_trace - 1.0) > PREPARATION_TRACE_TOL:
        raise IntegrationError(
            f"preparation operators sum to trace {total_trace!r}, off beyond {PREPARATION_TRACE_TOL:.1e}"
        )
    return ops


def _finals(model: LindbladModel, ops, duration: float, config, backward: bool) -> np.ndarray:
    """Final states, one per operator of ops, of one batched run over duration, by
    the backward (outcome-operator) equation or the predictive one, whose states keep unit trace.
    A zero-length run returns ops symmetrized, unguarded: their constructors checked them at least
    as strictly (but a DensityOperator given eig_tol above POSITIVITY_DRIFT_TOL escapes positivity)."""
    if duration == 0.0:
        return symmetrize(np.asarray(ops, dtype=np.complex128))
    return _run(model, "pom-backward" if backward else "predictive", ops, [duration], config)[1][-1]


# The helpers below take Scenario-owned operators, validated when the
# scenario was built, so they skip the input checks of the public evolve_*.


def _forward_states(scenario: Scenario, prep_indices, collapse_time: float) -> np.ndarray:
    """Prepared states carried forward from t_p to the collapse time in one batched run."""
    ops = [scenario.ensemble.states[i].op for i in prep_indices]
    return _finals(scenario.model, ops, collapse_time - scenario.t_p, scenario.integrator, backward=False)


def _backward_elements(scenario: Scenario, outcome_indices, collapse_time: float) -> np.ndarray:
    """Outcome operators carried backward from t_m to the collapse time in one batched run."""
    ops = [scenario.pom.elements[j] for j in outcome_indices]
    return _finals(scenario.model, ops, scenario.t_m - collapse_time, scenario.integrator, backward=True)


def _check_collapse_time(scenario: Scenario, collapse_time: float | None) -> float:
    if collapse_time is None:
        return scenario.t_m
    if not scenario.t_p <= collapse_time <= scenario.t_m:
        raise ValueError(
            f"collapse time {collapse_time} outside [{scenario.t_p}, {scenario.t_m}]"
        )
    return collapse_time


def _outcome_probs(states: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Pairings Tr[rho_i Pi_j], one row per state of the stack, each of which
    must already sum to 1 within 1e-7, normalized exactly.  The first failing
    row raises, a negative pairing before a sum off 1."""
    raw = trace(states[:, None] @ elements).real
    probs = np.clip(raw, 0.0, None)
    total = probs.sum(axis=1)
    failed = (raw.min(axis=1) < -NEGATIVE_PROB_TOL) | (np.abs(total - 1.0) > RAW_SUM_TOL)
    if failed.any():
        r = np.argmax(failed)
        _clamp_raw(raw[r], "outcome probability")
        raise IntegrationError(f"raw outcome probabilities sum to {float(total[r])!r}, off beyond {RAW_SUM_TOL:.1e}")
    return probs / total[:, None]


def predict_outcome_probs(
    scenario: Scenario,
    preparation: str | int,
    collapse_time: float | None = None,
) -> ProbabilityTable:
    """P(outcome j | preparation i), evaluated at the given collapse time.

    Defaults to collapse at the measurement time t_m.  The raw pairings must
    already sum to 1 within 1e-7 (they are then normalized exactly).
    """
    i = _label_index(scenario.ensemble.labels, preparation, "preparation")
    t = _check_collapse_time(scenario, collapse_time)
    states = _forward_states(scenario, [i], t)
    elements = _backward_elements(scenario, range(len(scenario.pom)), t)
    return ProbabilityTable(scenario.pom.labels, _outcome_probs(states, elements)[0])


def retrodict_preparation_probs(scenario: Scenario, outcome: str | int) -> ProbabilityTable:
    """P(preparation i | outcome j) by the retrodictive route.

    The observed outcome operator is carried backward over the full window,
    normalized into the retrodictive state at t_p, and paired with the
    prior-weighted preparations.
    """
    j = _label_index(scenario.pom.labels, outcome, "outcome")
    (element,) = _backward_elements(scenario, [j], scenario.t_p)
    rho_retr = normalize_to_retrodictive(element)
    lambdas = preparation_operators(scenario.ensemble, scenario.model, 0.0, scenario.integrator)
    raw = _clamp_raw(trace(rho_retr.op @ np.array(lambdas)).real, "preparation weight")
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("outcome is impossible under every preparation in the ensemble")
    return ProbabilityTable(scenario.ensemble.labels, raw / total)


def bayes_from_predictive(
    scenario: Scenario,
    outcome: str | int,
    collapse_time: float | None = None,
) -> ProbabilityTable:
    """P(preparation i | outcome j) from predictive likelihoods and priors."""
    j = _label_index(scenario.pom.labels, outcome, "outcome")
    t = _check_collapse_time(scenario, collapse_time)
    states = _forward_states(scenario, range(len(scenario.ensemble)), t)
    elements = _backward_elements(scenario, range(len(scenario.pom)), t)
    raw = _outcome_probs(states, elements)[:, j] * np.asarray(scenario.ensemble.priors)
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("outcome is impossible under every preparation in the ensemble")
    return ProbabilityTable(scenario.ensemble.labels, raw / total)


def collapse_time_sweep(
    scenario: Scenario,
    preparation: str | int,
    outcome: str | int,
    n_times: int,
) -> list[tuple[float, float]]:
    """The raw pairing Tr[rho_i(t) Pi_j(t)] at n_times points across [t_p, t_m].

    The continuous equations make this constant in t; the spread across the
    returned points measures integration error.  The state is carried
    forward from t_p and the outcome operator backward from t_m, each from
    one collapse time to the next, in one guarded run (dynamics._run).  Such
    a run takes at least n_times - 1 RK4 steps and records n_times or more
    (d, d) operators, so n_times is held within MAX_RK4_STEPS and
    MAX_RECORDED_BYTES before anything is allocated.
    """
    if n_times < 2:
        raise ValueError(f"need at least 2 collapse times, got {n_times}")
    if n_times > MAX_RK4_STEPS or n_times * scenario.model.dim**2 * 16 > MAX_RECORDED_BYTES:
        raise ValueError(
            f"{n_times} collapse times exceed the work budget of {MAX_RK4_STEPS:.0e} RK4 steps and "
            f"{MAX_RECORDED_BYTES:.0f} recorded bytes per direction"
        )
    i = _label_index(scenario.ensemble.labels, preparation, "preparation")
    j = _label_index(scenario.pom.labels, outcome, "outcome")
    times = np.linspace(scenario.t_p, scenario.t_m, n_times)
    segments = np.diff(times)
    _, forward, ahead = _run(scenario.model, "predictive", scenario.ensemble.states[i].op, segments, scenario.integrator)
    _, backward, back = _run(scenario.model, "pom-backward", scenario.pom.elements[j], segments[::-1], scenario.integrator)
    return list(zip(times.tolist(), trace(forward[ahead] @ backward[back[::-1]]).real.tolist()))
