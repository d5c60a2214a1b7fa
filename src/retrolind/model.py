"""Problem descriptions: dissipative models, measurements, priors, scenarios.

A scenario bundles everything one run needs: the open-system model (a
Hamiltonian plus jump operators), the preparation ensemble with its prior
probabilities, the measurement (a complete set of positive outcome
operators), the preparation and measurement times, and integrator settings.

Constructors validate their invariants and raise ValueError listing every
violation; they are the one validation pass of a scenario load.  The same
predicates are available as data via :func:`validate_scenario_data` (which
the loader calls only to report every issue of an input a constructor
rejected) and :func:`validate_scenario`.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .operators import _hermitian_excess, identity, min_eigenvalue, trace
from .tolerances import EIGENVALUE_TOL, HERMITICITY_TOL, MAX_GENERATOR_BYTES, MAX_RECORDED_BYTES, MAX_RK4_STEPS
from .tolerances import POM_SUM_TOL, PRIOR_SUM_TOL, TRACE_TOL

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "EIGENVALUE_TOL",
    "POM_SUM_TOL",
    "PRIOR_SUM_TOL",
    "ValidationIssue",
    "ValidationReport",
    "IntegratorConfig",
    "LindbladModel",
    "DensityOperator",
    "Pom",
    "PreparationEnsemble",
    "Scenario",
    "validate_scenario",
    "validate_scenario_data",
    "two_level_decay_model",
    "plus_minus_ensemble",
]


@dataclass(frozen=True)
class ValidationIssue:
    """One violated invariant with where it was found and how far off it is."""

    field: str
    message: str
    deviation: float

    def __str__(self) -> str:
        return f"{self.field}: {self.message} (deviation {self.deviation:.6e})"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def lines(self) -> list[str]:
        return [str(issue) for issue in self.issues]


def _raise_if_issues(issues: list[ValidationIssue]) -> None:
    if issues:
        raise ValueError("; ".join(str(issue) for issue in issues))


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


def _shape_issues(field: str, a, dim: int | None) -> list[ValidationIssue]:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        return [ValidationIssue(field, f"not a square matrix (shape {a.shape})", math.nan)]
    if dim is not None and a.shape[0] != dim:
        return [
            ValidationIssue(field, f"dimension {a.shape[0]} does not match scenario dimension {dim}", math.nan)
        ]
    if not np.all(np.isfinite(a)):
        return [ValidationIssue(field, "entries are not all finite", math.nan)]
    return []


def _hermitian_issues(field: str, a) -> list[ValidationIssue]:
    dev = _hermitian_excess(a, HERMITICITY_TOL)
    return [ValidationIssue(field, "not Hermitian within tolerance", dev)] if dev else []


def _positive_issues(field: str, a, eig_tol: float) -> list[ValidationIssue]:
    """No eigenvalue below -eig_tol; a NaN lowest eigenvalue fails too."""
    low = min_eigenvalue(a)
    return [] if low >= -eig_tol else [ValidationIssue(field, "not positive within tolerance", -low)]


def _hermitian_positive_issues(field: str, a) -> list[ValidationIssue]:
    """Hermitian within HERMITICITY_TOL and no eigenvalue below -EIGENVALUE_TOL."""
    return _hermitian_issues(field, a) or _positive_issues(field, a, EIGENVALUE_TOL)


def _is_int(x) -> bool:
    """A scenario's integer rule (dim, the integrator fields): a Python int, not a bool. Not a numpy integer
    either: _step_count_issues sizes the generator as dim**4 * 16, which overflows silently at fixed width."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """A number (a time, a rate, a JSON number): a Python or numpy integer or real, never a bool or a str."""
    return isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)


def _is_finite(x) -> bool:
    """A finite number by _is_real; an int too large for a float counts as not finite."""
    try:
        return _is_real(x) and math.isfinite(x)
    except OverflowError:
        return False


def _brief(n: int) -> str:
    """An integer as printed up to 20 digits, else as 1.235e+400, which f"{n:.3e}" cannot give past a float."""
    from decimal import Decimal  # only on the refusal paths: not worth its import time

    return str(n) if abs(n) < 10**20 else f"{Decimal(n):.3e}"


def _model_issues(dim: int, hamiltonian, jump_ops) -> list[ValidationIssue]:
    if not _is_int(dim) or dim < 1:
        return [ValidationIssue("model.dim", f"dimension must be a positive integer, got {dim!r}", math.nan)]
    issues = _shape_issues("model.hamiltonian", hamiltonian, dim)
    if not issues:
        issues += _hermitian_issues("model.hamiltonian", hamiltonian)
    for q, a in enumerate(jump_ops):
        issues += _shape_issues(f"model.jump_ops[{q}]", a, dim)
    return issues


def _density_issues(field: str, op, dim: int | None, eig_tol: float = EIGENVALUE_TOL) -> list[ValidationIssue]:
    issues = _shape_issues(field, op, dim) or _hermitian_issues(field, op)
    if issues:
        return issues
    with np.errstate(over="ignore"):  # an overflowing trace is inf, which fails the trace test
        trace_dev = abs(trace(op) - 1.0)
    if trace_dev > TRACE_TOL:
        issues.append(ValidationIssue(field, "trace is not 1 within tolerance", trace_dev))
    return issues + _positive_issues(field, op, eig_tol)


def _label_issues(field: str, labels, n: int, noun: str) -> list[ValidationIssue]:
    """One label per one of n nouns, each label once."""
    if len(labels) != n:
        return [ValidationIssue(field, f"{len(labels)} labels for {n} {noun}", math.nan)]
    if len(set(labels)) != len(labels):
        return [ValidationIssue(field, "labels are not unique", math.nan)]
    return []


def _pom_issues(elements, labels, dim: int | None) -> list[ValidationIssue]:
    if len(elements) < 1:
        return [ValidationIssue("pom", "at least one outcome operator is required", math.nan)]
    issues = _label_issues("pom.labels", labels, len(elements), "elements")
    shapes_ok = True
    for j, el in enumerate(elements):
        el_issues = _shape_issues(f"pom.elements[{j}]", el, dim)
        if el_issues:
            issues += el_issues
            shapes_ok = False
            continue
        issues += _hermitian_positive_issues(f"pom.elements[{j}]", el)
    if shapes_ok:
        total = np.sum(np.asarray(elements, dtype=np.complex128), axis=0)
        dev = float(np.max(np.abs(total - identity(total.shape[0]))))
        if dev > POM_SUM_TOL:
            issues.append(ValidationIssue("pom", "outcome operators do not sum to the identity", dev))
    return issues


def _prior_issues(priors, labels, n_states: int) -> list[ValidationIssue]:
    if n_states < 1:
        return [ValidationIssue("ensemble", "at least one preparation is required", math.nan)]
    if len(priors) != n_states:
        return [ValidationIssue("ensemble.priors", f"{len(priors)} priors for {n_states} states", math.nan)]
    issues = _label_issues("ensemble.labels", labels, n_states, "states")
    for i, p in enumerate(priors):
        if not (_is_finite(p) and p >= 0.0):
            issues.append(ValidationIssue(f"ensemble.priors[{i}]", f"prior must be >= 0, got {p}", math.nan))
            return issues
    total_dev = abs(math.fsum(priors) - 1.0)
    if total_dev > PRIOR_SUM_TOL:
        issues.append(ValidationIssue("ensemble.priors", "priors do not sum to 1", total_dev))
    return issues


def _times_issues(t_p: float, t_m: float) -> list[ValidationIssue]:
    for name, t in (("t_p", t_p), ("t_m", t_m)):
        if not _is_finite(t):
            return [ValidationIssue("scenario", f"{name} must be a finite real number, got {t!r}", math.nan)]
    if t_m < t_p:
        return [ValidationIssue("scenario", "measurement time t_m precedes preparation time t_p", t_p - t_m)]
    return []


def _config_issues(steps_per_unit_time: int, record_every: int) -> list[ValidationIssue]:
    return [
        ValidationIssue(f"integrator.{name}", f"must be a positive integer, got {value!r}", math.nan)
        for name, value in (("steps_per_unit_time", steps_per_unit_time), ("record_every", record_every))
        if not _is_int(value) or value < 1
    ]


def _step_count_issues(
    t_p: float, t_m: float, steps_per_unit_time: int, record_every: int, dim: int
) -> list[ValidationIssue]:
    """The work of one integration over the window must fit the budget: its
    d^2 x d^2 generator must take at most MAX_GENERATOR_BYTES, its RK4 step
    count ceil((t_m - t_p) * steps_per_unit_time) must be a finite float of
    at most MAX_RK4_STEPS, and its recorded states at most
    MAX_RECORDED_BYTES.  Callers pass arguments that are each valid."""
    generator_bytes = dim**4 * 16
    if generator_bytes > MAX_GENERATOR_BYTES:
        return [
            ValidationIssue(
                "model.dim",
                f"dimension {dim} needs a {dim * dim}x{dim * dim} generator of {generator_bytes:.3e} bytes, "
                f"over the budget of {MAX_GENERATOR_BYTES:.0f}; reduce the dimension",
                generator_bytes - MAX_GENERATOR_BYTES,
            )
        ]
    try:
        steps = (t_m - t_p) * steps_per_unit_time
    except OverflowError:  # a float times an int too large to convert to float
        steps = math.inf
    if not _is_finite(steps):
        return [
            ValidationIssue(
                "integrator.steps_per_unit_time", "step count over the window is not a finite float", math.nan
            )
        ]
    n_steps = math.ceil(steps)
    if n_steps > MAX_RK4_STEPS:
        return [
            ValidationIssue(
                "integrator.steps_per_unit_time",
                f"{n_steps:.3e} RK4 steps over the window exceed the budget of {MAX_RK4_STEPS:.0e}; "
                "lower steps_per_unit_time or shorten the window",
                n_steps - MAX_RK4_STEPS,
            )
        ]
    records = 1 + -(-n_steps // record_every)
    recorded_bytes = records * dim * dim * 16
    if recorded_bytes > MAX_RECORDED_BYTES:
        return [
            ValidationIssue(
                "integrator.record_every",
                f"{records} recorded states take {recorded_bytes:.3e} bytes, over the budget of "
                f"{MAX_RECORDED_BYTES:.0f}; raise record_every",
                recorded_bytes - MAX_RECORDED_BYTES,
            )
        ]
    return []


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 settings: step density and recording cadence."""

    steps_per_unit_time: int = 1000
    record_every: int = 10

    def __post_init__(self) -> None:
        _raise_if_issues(_config_issues(self.steps_per_unit_time, self.record_every))


@dataclass(frozen=True, eq=False)
class LindbladModel:
    """Open-system model: Hermitian Hamiltonian plus jump operators.

    Rates are carried inside the jump operators: an operator sqrt(rate/2) * A
    makes the dissipator contribute 2 A rho A^dagger - ... with overall
    prefactor rate.  An empty jump_ops tuple describes a closed system.
    """

    dim: int
    hamiltonian: np.ndarray
    jump_ops: tuple[np.ndarray, ...] = ()

    def __post_init__(self) -> None:
        jump_ops = tuple(self.jump_ops)
        _raise_if_issues(_model_issues(self.dim, self.hamiltonian, jump_ops))
        object.__setattr__(self, "hamiltonian", _frozen(self.hamiltonian))
        object.__setattr__(self, "jump_ops", tuple(_frozen(a) for a in jump_ops))


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Unit-trace positive Hermitian operator describing a prepared state."""

    op: np.ndarray
    eig_tol: InitVar[float] = EIGENVALUE_TOL

    def __post_init__(self, eig_tol: float) -> None:
        _raise_if_issues(_density_issues("density", self.op, None, eig_tol))
        object.__setattr__(self, "op", _frozen(self.op))

    @property
    def dim(self) -> int:
        return self.op.shape[0]


@dataclass(frozen=True, eq=False)
class Pom:
    """Probability operator measure: positive elements summing to identity."""

    elements: tuple[np.ndarray, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        labels = tuple(self.labels)
        _raise_if_issues(_pom_issues(elements, labels, None))
        object.__setattr__(self, "elements", tuple(_frozen(el) for el in elements))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True, eq=False)
class PreparationEnsemble:
    """Candidate preparations with their prior probabilities.

    Priors are stored exactly as given, never renormalized.
    """

    priors: tuple[float, ...]
    states: tuple[DensityOperator, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        priors = tuple(self.priors)
        states = tuple(self.states)
        labels = tuple(self.labels)
        _raise_if_issues(_prior_issues(priors, labels, len(states)))
        dims = {st.dim for st in states}
        if len(dims) > 1:
            raise ValueError(f"ensemble states have mixed dimensions {sorted(dims)}")
        object.__setattr__(self, "priors", tuple(map(float, priors)))
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.states[0].dim

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True, eq=False)
class Scenario:
    """A complete retrodiction problem over the window [t_p, t_m]."""

    model: LindbladModel
    ensemble: PreparationEnsemble
    pom: Pom
    t_p: float
    t_m: float
    integrator: IntegratorConfig = IntegratorConfig()

    def __post_init__(self) -> None:
        config = self.integrator
        issues = _times_issues(self.t_p, self.t_m) or _step_count_issues(
            self.t_p, self.t_m, config.steps_per_unit_time, config.record_every, self.model.dim
        )
        for part, name in ((self.ensemble.dim, "ensemble"), (self.pom.dim, "pom")):
            if part != self.model.dim:
                issues.append(
                    ValidationIssue(name, f"dimension {part} does not match model dimension {self.model.dim}", math.nan)
                )
        _raise_if_issues(issues)

    @property
    def duration(self) -> float:
        return self.t_m - self.t_p


def validate_scenario_data(
    dim: int,
    hamiltonian,
    jump_ops,
    priors,
    states,
    state_labels,
    pom_elements,
    pom_labels,
    t_p: float,
    t_m: float,
    steps_per_unit_time: int = IntegratorConfig.steps_per_unit_time,
    record_every: int = IntegratorConfig.record_every,
) -> ValidationReport:
    """Check every scenario invariant on raw arrays; violations are data.

    Returns an empty report iff a Scenario built from the same pieces would
    construct successfully.
    """
    issues = _model_issues(dim, hamiltonian, jump_ops)
    model_ok = not issues
    issues += _prior_issues(tuple(priors), tuple(state_labels), len(states))
    for i, st in enumerate(states):
        issues += _density_issues(f"ensemble.states[{i}]", st, dim)
    issues += _pom_issues(tuple(pom_elements), tuple(pom_labels), dim)
    timing = _times_issues(t_p, t_m) + _config_issues(steps_per_unit_time, record_every)
    if not timing and model_ok:
        timing = _step_count_issues(t_p, t_m, steps_per_unit_time, record_every, dim)
    issues += timing
    return ValidationReport(tuple(issues))


def validate_scenario(scenario: Scenario) -> ValidationReport:
    """Re-run every invariant predicate on a constructed scenario."""
    return validate_scenario_data(
        scenario.model.dim,
        scenario.model.hamiltonian,
        scenario.model.jump_ops,
        scenario.ensemble.priors,
        [st.op for st in scenario.ensemble.states],
        scenario.ensemble.labels,
        scenario.pom.elements,
        scenario.pom.labels,
        scenario.t_p,
        scenario.t_m,
        scenario.integrator.steps_per_unit_time,
        scenario.integrator.record_every,
    )


def two_level_decay_model(gamma: float) -> LindbladModel:
    """Two-level atom decaying |e> -> |g| at rate gamma, basis order (|e>, |g>).

    The single jump operator is sqrt(gamma/2) |g><e|, so the excited
    population obeys d(rho_ee)/dt = -gamma rho_ee.
    """
    if not (_is_finite(gamma) and gamma > 0.0):
        raise ValueError(f"decay rate must be finite and positive, got {gamma!r}")
    lower = np.zeros((2, 2), dtype=np.complex128)
    lower[1, 0] = math.sqrt(gamma / 2.0)
    return LindbladModel(2, np.zeros((2, 2), dtype=np.complex128), (lower,))


def plus_minus_ensemble() -> PreparationEnsemble:
    """Equal-prior superposition states (|e> +/- |g>)/sqrt(2)."""
    plus = np.full((2, 2), 0.5, dtype=np.complex128)
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=np.complex128)
    return PreparationEnsemble(
        (0.5, 0.5),
        (DensityOperator(plus), DensityOperator(minus)),
        ("+", "-"),
    )
