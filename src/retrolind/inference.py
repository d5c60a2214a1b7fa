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

from .dynamics import IntegrationError, _check_model_operator, _run
from .model import (
    DensityOperator,
    IntegratorConfig,
    LindbladModel,
    PreparationEnsemble,
    Scenario,
    _brief,
    _is_int,
    _is_real,
)
from .operators import as_operator, symmetrize, trace
from .tolerances import NEGATIVE_PROB_TOL, NORMALIZE_TRACE_FLOOR, PREPARATION_TRACE_TOL, PROBABILITY_SUM_TOL
from .tolerances import MAX_RECORDED_BYTES, MAX_RK4_STEPS, POSITIVITY_DRIFT_TOL, RAW_SUM_TOL, RETRODICTIVE_EIG_TOL

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
        if not np.all(probs >= 0.0):  # a NaN fails too
            raise ValueError(f"negative probability {probs.min():.3e}")
        if not abs(probs.sum() - 1.0) <= PROBABILITY_SUM_TOL:
            raise ValueError(f"probabilities sum to {float(probs.sum())!r}, not 1")
        probs.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "probs", probs)

    def __getitem__(self, key: str | int) -> float:
        return float(self.probs[_label_index(self.labels, key, "table")])

    def items(self) -> list[tuple[str, float]]:
        return [(label, float(p)) for label, p in zip(self.labels, self.probs)]


def _is_index(x) -> bool:
    """An int or a numpy integer, never a bool (numpy's bool is no integer)."""
    return _is_int(x) or isinstance(x, np.integer)


def _label_index(labels: tuple[str, ...], key: str | int, what: str) -> int:
    """The position of key in labels: a str label, or an int or numpy integer index in
    [0, len(labels)); a bool, a float or any other key is refused."""
    if isinstance(key, str):
        if key not in labels:
            raise ValueError(f"unknown {what} label {key!r}; known labels: {', '.join(labels)}")
        return labels.index(key)
    if not _is_index(key):
        raise ValueError(f"{what} key {key!r} is neither a label nor an integer index")
    if not 0 <= key < len(labels):
        raise ValueError(f"{what} index {key} out of range for {len(labels)} entries")
    return int(key)


def _posterior(scenario: Scenario, raw: np.ndarray) -> ProbabilityTable:
    """The preparation weights raw normalized into P(i|j); refused if they sum to 0."""
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("outcome is impossible under every preparation in the ensemble")
    return ProbabilityTable(scenario.ensemble.labels, raw / total)


def _clamp_raw(raw: np.ndarray, what: str) -> np.ndarray:
    low = float(raw.min())
    if not low >= -NEGATIVE_PROB_TOL:  # a NaN fails too
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


def _retrodictive_op(element: np.ndarray) -> np.ndarray:
    """normalize_to_retrodictive(element).op, byte for byte, for an exactly Hermitian, finite element with no
    eigenvalue below -POSITIVITY_DRIFT_TOL (_finals'): above twice the trace that takes that bound
    to -RETRODICTIVE_EIG_TOL (twice, for its round-off), none of that function's checks can fail."""
    tr = trace(element).real
    return element / tr if tr > 2.0 * POSITIVITY_DRIFT_TOL / RETRODICTIVE_EIG_TOL else normalize_to_retrodictive(element).op


def preparation_operators(
    ensemble: PreparationEnsemble,
    model: LindbladModel,
    t_minus_tp: float,
    config: IntegratorConfig = IntegratorConfig(),
) -> list[np.ndarray]:
    """Prior-weighted predictive states Lambda_i at time t_p + t_minus_tp."""
    if not (_is_real(t_minus_tp) and t_minus_tp >= 0.0):
        raise ValueError(f"time offset t_minus_tp must be a real number >= 0, got {_brief(t_minus_tp, repr)}")
    _check_model_operator(model, ensemble.states[0].op)  # the ensemble's states share one shape
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


def _outcome_probs(states: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Pairings Tr[rho_i Pi_j], one row per state of the stack, each of which
    must already sum to 1 within 1e-7, normalized exactly.  The first failing
    row raises, a negative pairing before a sum off 1."""
    raw = trace(states[:, None] @ elements).real
    probs = np.clip(raw, 0.0, None)
    total = probs.sum(axis=1)
    failed = ~(raw.min(axis=1) >= -NEGATIVE_PROB_TOL) | ~(np.abs(total - 1.0) <= RAW_SUM_TOL)  # a NaN fails
    if failed.any():
        r = np.argmax(failed)
        _clamp_raw(raw[r], "outcome probability")
        raise IntegrationError(f"raw outcome probabilities sum to {float(total[r])!r}, off beyond {RAW_SUM_TOL:.1e}")
    return probs / total[:, None]


def _likelihoods(scenario: Scenario, prep_indices, collapse_time: float | None) -> np.ndarray:
    """P(j|i) at the collapse time (t_m when None), one row per chosen preparation i and one
    column per outcome j: the states carried forward from t_p and every outcome operator
    backward from t_m, each in one batched run of the Scenario's validated operators."""
    if not (collapse_time is None or _is_real(collapse_time)):
        raise ValueError(f"collapse time {collapse_time!r} is not a real number")
    t = scenario.t_m if collapse_time is None else collapse_time
    if not scenario.t_p <= t <= scenario.t_m:
        raise ValueError(f"collapse time {_brief(t)} outside [{scenario.t_p}, {scenario.t_m}]")
    model, config = scenario.model, scenario.integrator
    states = _finals(model, [scenario.ensemble.states[i].op for i in prep_indices], t - scenario.t_p, config, backward=False)
    return _outcome_probs(states, _finals(model, scenario.pom.elements, scenario.t_m - t, config, backward=True))


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
    return ProbabilityTable(scenario.pom.labels, _likelihoods(scenario, [i], collapse_time)[0])


def retrodict_preparation_probs(scenario: Scenario, outcome: str | int) -> ProbabilityTable:
    """P(preparation i | outcome j) by the retrodictive route.

    The observed outcome operator is carried backward over the full window,
    normalized into the retrodictive state at t_p, and paired with the
    prior-weighted preparations.
    """
    j = _label_index(scenario.pom.labels, outcome, "outcome")
    (element,) = _finals(scenario.model, [scenario.pom.elements[j]], scenario.duration, scenario.integrator, backward=True)
    rho_retr = _retrodictive_op(element)
    lambdas = preparation_operators(scenario.ensemble, scenario.model, 0.0, scenario.integrator)
    return _posterior(scenario, _clamp_raw(trace(rho_retr @ np.array(lambdas)).real, "preparation weight"))


def bayes_from_predictive(
    scenario: Scenario,
    outcome: str | int,
    collapse_time: float | None = None,
) -> ProbabilityTable:
    """P(preparation i | outcome j) from predictive likelihoods and priors."""
    j = _label_index(scenario.pom.labels, outcome, "outcome")
    likelihoods = _likelihoods(scenario, range(len(scenario.ensemble)), collapse_time)
    return _posterior(scenario, likelihoods[:, j] * np.asarray(scenario.ensemble.priors))


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
    if not _is_index(n_times):
        raise ValueError(f"number of collapse times n_times must be an integer, got {n_times!r}")
    if n_times < 2:
        raise ValueError(f"need at least 2 collapse times, got {_brief(n_times)}")
    if n_times > MAX_RK4_STEPS or n_times * scenario.model.dim**2 * 16 > MAX_RECORDED_BYTES:
        raise ValueError(
            f"{_brief(n_times)} collapse times exceed the work budget of {MAX_RK4_STEPS:.0e} RK4 steps and "
            f"{MAX_RECORDED_BYTES:.0f} recorded bytes per direction"
        )
    i = _label_index(scenario.ensemble.labels, preparation, "preparation")
    j = _label_index(scenario.pom.labels, outcome, "outcome")
    times = np.linspace(scenario.t_p, scenario.t_m, n_times)
    segments = np.diff(times)
    _, forward, ahead = _run(scenario.model, "predictive", scenario.ensemble.states[i].op, segments, scenario.integrator)
    _, backward, back = _run(scenario.model, "pom-backward", scenario.pom.elements[j], segments[::-1], scenario.integrator)
    return list(zip(times.tolist(), trace(forward[ahead] @ backward[back[::-1]]).real.tolist()))
