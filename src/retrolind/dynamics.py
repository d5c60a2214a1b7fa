"""Master-equation right-hand sides and a fixed-step RK4 integrator.

Sign conventions (hbar = 1).  The predictive equation evolves a prepared
state forward in laboratory time t:

    d(rho)/dt = -i [H, rho] + sum_q (2 A_q rho A_q^dag
                                     - A_q^dag A_q rho - rho A_q^dag A_q).

Outcome operators and retrodictive states evolve backward from the
measurement.  Both are parameterized here by the premeasurement time
tau = t_m - t and integrated forward in tau, so their right-hand sides are
the negatives of the corresponding d/dt forms:

    d(Pi)/d(tau)  = L* Pi = +i [H, Pi] + sum_q (2 A_q^dag Pi A_q
                                             - Pi A_q^dag A_q - A_q^dag A_q Pi)

    d(rho)/d(tau) = L* rho - Tr(L* rho) rho = L* rho + 2 rho Tr{rho sum_q [A_q^dag, A_q]}.

L* is the adjoint of the predictive equation (see _lindblad); the identity is its fixed point.
A retrodictive state is an evolved outcome operator divided by its trace, so its nonlinear
term -Tr(L* rho) rho keeps it normalized.  The evolutions carry Hermitian operators in real
coordinates (see _to_real), where the linear parts are a real matrix L and its adjoint (see
_model_generator); predictive_generator and pom_backward_generator are the complex references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .model import DensityOperator, IntegratorConfig, LindbladModel, _hermitian_positive_issues, _raise_if_issues
from .model import _brief, _is_finite
from .operators import as_operator, dagger, trace
from .tolerances import MAX_GENERATOR_BYTES, MAX_HELD_PLANS, POSITIVITY_DRIFT_TOL, RETRODICTIVE_RHS_TRACE_TOL, TRACE_DRIFT_TOL

__all__ = [
    "TRACE_DRIFT_TOL",
    "POSITIVITY_DRIFT_TOL",
    "IntegrationError",
    "Trajectory",
    "predictive_rhs",
    "pom_premeasurement_rhs",
    "retrodictive_rhs",
    "predictive_generator",
    "pom_backward_generator",
    "rk4_integrate",
    "evolve_predictive",
    "evolve_pom_backward",
    "evolve_retrodictive",
]

_Rhs = Callable[[np.ndarray], np.ndarray]
_Advance = Callable[[np.ndarray, int], np.ndarray]  # x, m -> the state m RK4 steps on


class IntegrationError(RuntimeError):
    """Numerical integration produced an unusable state.  One raised by rk4_integrate names the first
    non-finite RK4 step of its segment as step and carries the run's finite records before it as trajectory."""

    def __init__(self, message: str, step: int | None = None, trajectory: Trajectory | None = None):
        super().__init__(message)
        self.step = step
        self.trajectory = trajectory


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Recorded states over the evolution's own time variable.

    times start at 0 and increase strictly.  states is one array, one
    record per time along its first axis: states[0] is the initial operator
    (or stack) and states[-1] the solution at the full duration.  Both are
    read-only.  A sequence is stacked; an array is frozen through a view,
    so the caller's own array stays writable.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        for name in ("times", "states"):
            frozen = np.asarray(getattr(self, name)).view()
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)
        times = self.times
        if len(times) != len(self.states):
            raise ValueError("times and states must have equal length")
        if len(times) == 0 or times[0] != 0.0:
            raise ValueError("trajectory must start at time 0")
        if not (times[1:] > times[:-1]).all():
            raise ValueError("trajectory times must increase strictly")

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]

    def __len__(self) -> int:
        return len(self.states)


def _check_model_operator(model: LindbladModel, op) -> np.ndarray:
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (model.dim, model.dim):
        raise ValueError(f"operator shape {op.shape} does not match model dimension {model.dim}")
    return op


def _lindblad(model: LindbladModel, x: np.ndarray, backward: bool = False) -> np.ndarray:
    """The linear right-hand side, unchecked, on an operator or a (..., d, d) stack of them:
    the predictive equation's in t or, if backward, its adjoint, the outcome operator's in tau."""
    h = model.hamiltonian
    out = (1j if backward else -1j) * (h @ x - x @ h)
    for a in model.jump_ops:
        ad = dagger(a)
        ada = ad @ a
        left, right = (ad, a) if backward else (a, ad)
        out = out + 2.0 * (left @ x @ right) - ada @ x - x @ ada
    return out


def predictive_rhs(model: LindbladModel, rho) -> np.ndarray:
    """Forward-in-t derivative of a predictive state."""
    return _lindblad(model, _check_model_operator(model, rho))


def pom_premeasurement_rhs(model: LindbladModel, pi) -> np.ndarray:
    """Derivative of an outcome operator in premeasurement time tau = t_m - t."""
    return _lindblad(model, _check_model_operator(model, pi), backward=True)


def retrodictive_rhs(model: LindbladModel, rho) -> np.ndarray:
    """Derivative of a retrodictive state in premeasurement time tau: L* rho - Tr(L* rho) rho.

    The input must be normalized: the trace-preserving nonlinear term
    presumes Tr(rho) = 1 (checked to 1e-8).
    """
    rho = _check_model_operator(model, rho)
    trace_dev = abs(trace(rho) - 1.0)
    if trace_dev > RETRODICTIVE_RHS_TRACE_TOL:
        raise ValueError(f"retrodictive state must have unit trace, off by {trace_dev:.3e}")
    g = _lindblad(model, rho, backward=True)
    return g - trace(g) * rho


def predictive_generator(model: LindbladModel) -> np.ndarray:
    """Matrix form of predictive_rhs on row-major-flattened operators."""
    dim = model.dim
    eye = np.eye(dim, dtype=np.complex128)
    h = model.hamiltonian
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for a in model.jump_ops:
        ada = dagger(a) @ a
        gen += 2.0 * np.kron(a, a.conj()) - np.kron(ada, eye) - np.kron(eye, ada.T)
    return gen


def pom_backward_generator(model: LindbladModel) -> np.ndarray:
    """Matrix form of pom_premeasurement_rhs: the adjoint (conjugate transpose)
    of the predictive generator under the Hilbert-Schmidt inner product."""
    return predictive_generator(model).conj().T


@cache
def _coordinates(dim: int) -> SimpleNamespace:
    """Index tables for dim x dim operators: on a flat operator's (re, im) float view, the
    coordinates (pick: the diagonal, then the real and the imaginary parts of the upper
    triangle), their mirror images and signs; weights, so Tr(A B) = sum_k w_k a_k b_k."""
    i, j = np.triu_indices(dim, 1)
    diagonal, upper, lower = np.arange(dim) * (dim + 1), i * dim + j, j * dim + i
    pick, mirror = (np.concatenate([2 * diagonal, 2 * part, 2 * part + 1]) for part in (upper, lower))
    sign, weights = (np.repeat(values, [dim, len(i), len(i)]) for values in ([1.0, 1.0, -1.0], [1.0, 2.0, 2.0]))
    return SimpleNamespace(pick=pick, mirror=mirror, sign=sign, weights=weights)


def _to_real(a: np.ndarray) -> np.ndarray:
    """The real coordinates (..., d^2) of the Hermitian parts A/2 + A^dag/2 of a complex
    (..., d, d) stack, halved on the float view; _from_real inverts it exactly for Hermitian operators."""
    c = _coordinates(a.shape[-1])
    half = 0.5 * a.reshape(*a.shape[:-2], -1).view(np.float64)
    return half[..., c.pick] + c.sign * half[..., c.mirror]


def _from_real(x: np.ndarray) -> np.ndarray:
    """The Hermitian operators, (..., d, d), of (..., d^2) coordinates, every zero +0.0, which symmetrize keeps."""
    dim = math.isqrt(x.shape[-1])
    c = _coordinates(dim)
    flat = np.zeros((*x.shape[:-1], 2 * dim * dim))
    flat[..., c.pick] = x
    flat[..., c.mirror] = c.sign * x
    flat += 0.0
    return flat.view(np.complex128).reshape(*x.shape[:-1], dim, dim)


def _model_generator(model: LindbladModel, backward: bool = False) -> np.ndarray:
    """L, the predictive equation in real coordinates, built d columns at a time: column k is
    _to_real, the Hermitian part, of _lindblad on the operator of coordinate k, so an H
    admitted with an anti-Hermitian residue evolves under its Hermitian part.  Held by the model,
    read-only, from the first call.  If backward, L's adjoint L* = W^-1 L^T W for W the weights, exact
    in powers of 2, whose first d rows summed give Tr(L* v), the trace, in f(v) = L* v - Tr(L* v) v."""
    gen = vars(model).get("_generator")
    if gen is None:
        dim = model.dim
        gen = np.empty((dim * dim, dim * dim))
        for k in range(0, dim * dim, dim):
            gen[:, k : k + dim] = _to_real(_lindblad(model, _from_real(np.eye(dim, dim * dim, k)))).T
        gen.setflags(write=False)
        vars(model)["_generator"] = gen
    w = _coordinates(model.dim).weights
    return (gen.T * w) / w[:, None] if backward else gen


def _rk4_step(rhs: _Rhs, x: np.ndarray, h: float) -> np.ndarray:
    k1 = rhs(x)
    k2 = rhs(x + (0.5 * h) * k1)
    k3 = rhs(x + (0.5 * h) * k2)
    k4 = rhs(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _stride(duration: float, config: IntegratorConfig) -> tuple[int, int]:
    """The RK4 steps over duration, ceil(duration * steps_per_unit_time), and the records they add."""
    try:
        n_steps = math.ceil(duration * config.steps_per_unit_time)
    except OverflowError:  # the product is inf, or steps_per_unit_time is an int too large for a float
        raise ValueError(
            f"duration {duration!r} at {_brief(config.steps_per_unit_time)} steps_per_unit_time "
            "gives a step count that is not a finite float"
        ) from None
    return n_steps, -(-n_steps // config.record_every)


def rk4_integrate(
    rhs: _Rhs, x0, duration: float | Sequence[float], config: IntegratorConfig = IntegratorConfig(),
    _advance: Callable[[_Rhs, float], _Advance] | None = None,
) -> Trajectory:
    """Classical fixed-step RK4 over duration, or over consecutive segments, each from the last one's
    final state: ceil(segment * steps_per_unit_time) steps of h = segment / n, every record_every-th
    state and the last recorded at start + k h, start the float sum of the earlier segments.  Every
    segment is checked before the first step.  The run is stepped to its end, so rhs may meet a state
    that is not finite, and its records tested for finiteness once; a run that fails is stepped again
    with each record tested, and a record that is not finite is re-stepped from the last by advance(x, 1),
    which raises IntegrationError, with the records before it, at its segment's first non-finite step,
    or, where only the m-step product overflowed, gives the finite record.  numpy's overflow and
    invalid-value warnings are silenced; that error reports them.

    Each record is reached from the last by advance(x, m), m stage-by-stage steps of rhs, the reference
    that every other path is tested against; _advance(rhs, h), if given, makes the advance instead, from
    the rhs passed here (see _linear and _krylov).  The records are float64 while x0 and every advance
    are real, else complex128."""
    times, plan, start, every = [0.0], [], 0.0, config.record_every
    with np.errstate(over="ignore", invalid="ignore"):
        for segment in [duration] if np.ndim(duration) == 0 else duration:
            if not (_is_finite(segment) and segment >= 0.0):
                raise ValueError(f"duration must be a finite real number >= 0, got {segment!r}")
            segment = float(segment)
            n = _stride(segment, config)[0]
            if n:
                h, strides = segment / n, [(k, min(every, n - k)) for k in range(0, n, every)]
                advance = (_advance or _staged)(rhs, h)
                times += [start + (k + m) * h for k, m in strides]
                plan += [(advance, k, m, n) for k, m in strides]
            start += segment
        states = np.empty((len(times), *np.shape(x0)), dtype=np.complex128 if np.iscomplexobj(x0) else np.float64)
        states[0], times = x0, np.array(times)
        run = _records(plan, states)
        return Trajectory(times, run if np.isfinite(run).all() else _records(plan, states, times))


def _records(plan, states: np.ndarray, times: np.ndarray | None = None) -> np.ndarray:
    """Each record r of states by plan[r - 1] = (advance, k, m, n), m steps on from step k of n, tested given times."""
    x = states[0]
    for r, (advance, k, m, n) in enumerate(plan, 1):
        nxt = advance(x, m)
        if times is not None and not np.isfinite(nxt).all():
            nxt = x
            for i in range(k + 1, k + m + 1):
                nxt = advance(nxt, 1)
                if not np.isfinite(nxt).all():
                    raise IntegrationError(f"non-finite state at step {i} of {n}", i, Trajectory(times[:r], states[:r]))
        if nxt.dtype != states.dtype:
            states = states.astype(np.result_type(states, nxt), copy=False)
        states[r] = x = nxt
    return states


def _staged(rhs: _Rhs, h: float) -> _Advance:
    """The advance by m RK4 steps of rhs, each stage by stage."""

    def advance(x: np.ndarray, m: int) -> np.ndarray:
        for _ in range(m):
            x = _rk4_step(rhs, x, h)
        return x

    return advance


def _power_increment(inc: np.ndarray, m: int) -> np.ndarray:
    """(I + inc)^m - I by binary powering, multiplied out on the increments:
    (I + A)(I + B) = I + A + B + AB.  Near the identity this keeps the
    relative precision of the increment, which a rounded (I + inc)^m loses."""
    result, base = None, inc
    while True:
        if m & 1:
            result = base if result is None else result + base + result @ base
        m >>= 1
        if not m:
            return result
        base = 2.0 * base + base @ base


def _plan(model: LindbladModel, backward: bool, rhs: _Rhs, h: float, m: int, size: int) -> np.ndarray:
    """The step plan S^m - I (see _linear) of rhs, the model's generator or, if backward, its
    adjoint, on size coordinates, that the model holds, keyed on (backward, h, m); else built,
    S - I as one RK4 step of rhs on the identity less the identity, S^m - I by _power_increment
    of the held S - I, and held, read-only.  The least recently used plans are dropped until
    the new one fits both MAX_HELD_PLANS and MAX_GENERATOR_BYTES, so a model holds at most
    one generator's worth; one larger than that is not held."""
    plans = vars(model).setdefault("_plans", {})
    key = (backward, h, m)
    inc = plans.pop(key, None)
    if inc is None:
        if m > 1:
            inc = _power_increment(_plan(model, backward, rhs, h, 1, size), m)
        else:
            eye = np.eye(size)
            inc = _rk4_step(rhs, eye, h) - eye
        if inc.nbytes > MAX_GENERATOR_BYTES:
            return inc
        inc.setflags(write=False)
        held = sum(other.nbytes for other in plans.values())
        while plans and (len(plans) >= MAX_HELD_PLANS or held + inc.nbytes > MAX_GENERATOR_BYTES):
            held -= plans.pop(next(iter(plans))).nbytes
    plans[key] = inc  # insertion order is the order of last use
    return inc


def _linear(model: LindbladModel, backward: bool, rhs: _Rhs, h: float) -> _Advance:
    """The advance x -> S^m x for the RK4 step matrix S = sum_{k<=4} (hG)^k / k! of a linear
    rhs v -> G v, as x + (S^m - I) x: one product carries every column of x from one record to
    the next, and the step plan S^m - I that _plan holds, formed on the increments, keeps the
    round-off of a record that of one step.  rk4_integrate makes one per segment, which keeps its stride's plan at hand.

    S is built by _rk4_step on the rhs that rk4_integrate received, not by
    Horner's rule on G, because the benchmark's tracer counts RK4 steps as
    calls of that rhs; Horner's rule, and dropping rk4_integrate's private
    keyword, wait until the benchmark counts steps from the integrator."""
    stride, jump = 0, None

    def advance(x: np.ndarray, m: int) -> np.ndarray:
        nonlocal stride, jump
        if m != stride:
            stride, jump = m, _plan(model, backward, rhs, h, m, len(x))
        return x + jump @ x

    return advance


def _krylov(model: LindbladModel, rhs: _Rhs | None, h: float) -> _Advance:
    """The advance by m RK4 steps of the retrodictive right-hand side f(v) =
    L* v - Tr(L* v) v in real coordinates, with L* the adjoint of the model's
    generator, and k.v = -Tr(h L* v) for k the first d rows of h L* summed and
    negated (see _model_generator); rhs is unused.

    Each step is taken in the Krylov basis b_j = (h L*)^j v, j = 0..4,
    which spans every stage: each stage input is v plus a combination of
    earlier stages, so with s_j = k.b_j a stage h f(sum_j c_j b_j) has the
    coefficients of sum_j c_j b_{j+1} + (sum_j c_j s_j) sum_j c_j b_j, a
    polynomial in the shift one degree higher, degree 4 after the fourth
    stage.  The step returns v + sum_j alpha_j b_j, the 1 of v left out of
    alpha_0, so its round-off is relative to the change, as in the
    stage-by-stage step.  It is the same RK4 step with a different round-off.
    h L*, k and the basis are formed once per integration."""
    hg = _model_generator(model, backward=True)
    hg *= h
    kh = -hg[: model.dim].sum(axis=0)
    basis = np.empty((5, len(kh)))
    b0, b1, b2, b3, b4 = basis
    first4 = basis[:4]

    def advance(x: np.ndarray, m: int) -> np.ndarray:
        for _ in range(m):
            b0[:] = x
            np.dot(hg, b0, out=b1)
            np.dot(hg, b1, out=b2)
            np.dot(hg, b2, out=b3)
            np.dot(hg, b3, out=b4)
            s0, s1, s2, s3 = np.dot(first4, kh).tolist()
            # The stage inputs v + k1/2, v + k2/2 and v + k3 as coefficients
            # p, q and r; each d is k.(stage input).  k1 = (s0, 1).
            p0 = 1.0 + 0.5 * s0
            d = s0 * p0 + 0.5 * s1
            k20, k21, k22 = d * p0, p0 + 0.5 * d, 0.5
            q0, q1, q2 = 1.0 + 0.5 * k20, 0.5 * k21, 0.5 * k22
            d = s0 * q0 + s1 * q1 + s2 * q2
            k30, k31, k32, k33 = d * q0, q0 + d * q1, q1 + d * q2, q2
            r0, r1, r2, r3 = 1.0 + k30, k31, k32, k33
            d = s0 * r0 + s1 * r1 + s2 * r2 + s3 * r3
            k40, k41, k42, k43, k44 = d * r0, r0 + d * r1, r1 + d * r2, r2 + d * r3, r3
            alpha = [
                (s0 + 2.0 * (k20 + k30) + k40) / 6.0,
                (1.0 + 2.0 * (k21 + k31) + k41) / 6.0,
                (2.0 * (k22 + k32) + k42) / 6.0,
                (2.0 * k33 + k43) / 6.0,
                k44 / 6.0,
            ]
            x = x + np.dot(alpha, basis)
        return x

    return advance


def _run(model: LindbladModel, mode: str, ops, segments, config: IntegratorConfig):
    """ops, one (d, d) operator or an (n, d, d) stack, in the real coordinates of ops symmetrized (_to_real),
    carried over consecutive segments by the "predictive", "pom-backward" or "retrodictive" equation in one
    rk4_integrate call, on the model's step plans (_linear) or in a Krylov basis (_krylov).  Returns the run's
    times, its records (records, *ops.shape), complex and guarded in one _guard pass (a failed run's up to its
    last finite one, so the earliest failure raises), and the record indices of the start and each segment's end."""
    ops = np.asarray(ops, dtype=np.complex128)
    backward = mode == "pom-backward"
    if mode == "retrodictive":
        rhs, advance = None, partial(_krylov, model)
    else:
        rhs, advance = (lambda v: _model_generator(model, backward) @ v), partial(_linear, model, backward)
    try:
        run, failure = rk4_integrate(rhs, _to_real(ops).T, segments, config, _advance=advance), None
    except IntegrationError as exc:
        run, failure = exc.trajectory, exc
    records = _guard(run.times, np.swapaxes(run.states, 1, -1), check_trace=not backward)
    if failure:
        raise failure
    return run.times, records, list(accumulate((_stride(segment, config)[1] for segment in segments), initial=0))


def _guard(times: np.ndarray, coords: np.ndarray, check_trace: bool) -> np.ndarray:
    """The Hermitian stack _from_real makes of coords, real coordinates (records, ..., d^2)
    recorded at times, guarded in one call per check over all records: the trace (if
    check_trace), the sum of the first d coordinates, must hold; each record must be
    finite, lowest eigenvalue >= -POSITIVITY_DRIFT_TOL.  One batched Cholesky
    factorisation of the stack + POSITIVITY_DRIFT_TOL * I, with a finite factor,
    certifies positivity; a stack it does not certify goes to eigvalsh (finite records
    only), which then decides, as it would except within round-off of the tolerance.
    The earliest failing record, and in it the lowest failing operator, raises its first
    failing check in that order; at time 0 no step has been taken, so a failure there
    is the initial operator's and raises ValueError."""
    stack = _from_real(coords)
    with np.errstate(over="ignore"):  # an overflowing trace is inf, which fails the trace check
        trace_dev = np.abs(coords[..., : stack.shape[-1]].sum(axis=-1) - 1.0) if check_trace else np.zeros(coords.shape[:-1])
    failed = trace_dev > TRACE_DRIFT_TOL
    if not failed.any():
        try:  # LAPACK may factor a NaN input without an error, into a NaN factor
            if np.isfinite(np.linalg.cholesky(stack + POSITIVITY_DRIFT_TOL * np.eye(stack.shape[-1]))).all():
                return stack
        except np.linalg.LinAlgError:
            pass
    finite = np.isfinite(coords).all(axis=-1)
    low = np.linalg.eigvalsh(np.where(finite[..., None, None], stack, 0.0))[..., 0]
    failed |= ~finite | ~(low >= -POSITIVITY_DRIFT_TOL)  # a NaN eigenvalue fails too
    if failed.any():
        at = np.unravel_index(np.argmax(failed), failed.shape)
        if trace_dev[at] > TRACE_DRIFT_TOL:
            what = f"trace off by {trace_dev[at]:.3e}"
        elif not finite[at]:
            what = "non-finite state"
        else:
            what = f"eigenvalue {low[at]:.3e} below -{POSITIVITY_DRIFT_TOL:.1e}"
        if at[0] == 0:
            raise ValueError(f"initial operator: {what}")
        raise IntegrationError(f"{what} at time {times[at[0]]:g}; step size too coarse")
    return stack


def evolve_predictive(
    model: LindbladModel,
    rho_p: DensityOperator,
    duration: float,
    config: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Evolve a prepared state forward over [0, duration] in laboratory time."""
    _check_model_operator(model, rho_p.op)
    return Trajectory(*_run(model, "predictive", rho_p.op, [duration], config)[:2])


def evolve_pom_backward(
    model: LindbladModel,
    pi_m,
    duration: float,
    config: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Evolve an outcome operator backward from the measurement.

    The trajectory is parameterized by tau = t_m - t, so times run forward
    from 0 (the measurement) to duration (the earliest instant reached).
    """
    pi_m = as_operator(_check_model_operator(model, pi_m))  # finite before the Hermiticity test, which warns on inf
    _raise_if_issues(_hermitian_positive_issues("outcome operator", pi_m))
    return Trajectory(*_run(model, "pom-backward", pi_m, [duration], config)[:2])


def evolve_retrodictive(
    model: LindbladModel,
    rho_m: DensityOperator,
    duration: float,
    config: IntegratorConfig = IntegratorConfig(),
) -> Trajectory:
    """Evolve a retrodictive state backward from the measurement, parameterized as evolve_pom_backward,
    by f(v) = L* v - Tr(L* v) v, whose last term keeps every record unit-trace (see _krylov)."""
    _check_model_operator(model, rho_m.op)
    return Trajectory(*_run(model, "retrodictive", rho_m.op, [duration], config)[:2])
