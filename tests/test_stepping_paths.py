"""Differential properties of the three RK4 stepping paths.

rk4_integrate's stage-by-stage step is the reference.  The linear modes step
by powers of the step matrix S, on step plans that a model may hold; the
retrodictive mode takes each step in a Krylov basis.  Over random models
(dim 2-6, 0-3 jump operators), strides of 1-60 steps, step counts that leave
a short last interval or make fewer steps than one stride, and blocks of 1-5
columns, each path must match the reference at every record, held plans must
give a fresh model's bytes, and an overflow must be named at a step whose
state is not finite while the one before it is.

A case's duration is a whole number of steps at a power-of-two step density,
so a run cut short at step k takes the same step size h = 1 / steps_per_unit_time.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrolind import (
    DensityOperator,
    IntegrationError,
    IntegratorConfig,
    LindbladModel,
    Trajectory,
    evolve_pom_backward,
    evolve_predictive,
    evolve_retrodictive,
    pom_backward_generator,
    predictive_generator,
    retrodictive_rhs,
    rk4_integrate,
)
from retrolind import dynamics
from retrolind.operators import scale_of

from scenario_factory import random_density, random_model

SETTINGS = settings(derandomize=True, deadline=None, max_examples=20)
MORE = settings(SETTINGS, max_examples=40)  # for the cheap per-record comparisons


@dataclass(frozen=True)
class Case:
    seed: int
    dim: int
    jumps: int
    record_every: int
    steps_per_unit_time: int
    n_steps: int
    columns: int

    @property
    def config(self) -> IntegratorConfig:
        return IntegratorConfig(self.steps_per_unit_time, self.record_every)

    @property
    def duration(self) -> float:
        return self.n_steps / self.steps_per_unit_time

    def model(self) -> tuple[np.random.Generator, LindbladModel]:
        rng = np.random.default_rng(self.seed)
        return rng, random_model(rng, self.dim, self.jumps)


@st.composite
def cases(draw, densities=(256, 512, 1024)) -> Case:
    record_every = draw(st.integers(1, 60))
    # Fewer steps than one stride, a whole number of strides, or a short last interval.
    n_steps = draw(
        st.one_of(
            st.integers(1, record_every),
            st.integers(1, 3).map(lambda n: n * record_every),
            st.integers(1, 150),
        )
    )
    return Case(
        seed=draw(st.integers(0, 2**32 - 1)),
        dim=draw(st.integers(2, 6)),
        jumps=draw(st.integers(0, 3)),
        record_every=record_every,
        steps_per_unit_time=draw(st.sampled_from(densities)),
        n_steps=n_steps,
        columns=draw(st.integers(1, 5)),
    )


def _per_step(rhs, x: np.ndarray, case: Case) -> Trajectory:
    """The reference apart from rk4_integrate: one _rk4_step per step,
    every record_every-th state and the last kept."""
    h = 1.0 / case.steps_per_unit_time
    times, states = [0.0], [x]
    for k in range(1, case.n_steps + 1):
        x = dynamics._rk4_step(rhs, x, h)
        if k % case.record_every == 0 or k == case.n_steps:
            times.append(k * h)
            states.append(x)
    return Trajectory(np.array(times), states)


def _assert_records_match(run, reference) -> None:
    """Equal times, and every record within 1e-13 of the reference's scale."""
    np.testing.assert_array_equal(run.times, reference.times)
    for a, b in zip(run.states, reference.states):
        assert np.max(np.abs(a - b)) <= 1e-13 * scale_of(b)


@MORE
@given(cases())
def test_linear_plans_match_the_staged_reference(case):
    rng, model = case.model()
    d = case.dim
    columns = [random_density(rng, d) for _ in range(case.columns)]
    block = np.stack([op.reshape(-1) for op in columns], axis=1).astype(complex)
    for gen, evolve in (
        (predictive_generator(model), lambda op, t: evolve_predictive(model, DensityOperator(op), t, case.config)),
        (pom_backward_generator(model), lambda op, t: evolve_pom_backward(model, op, t, case.config)),
    ):
        staged = rk4_integrate(lambda v: gen @ v, block, case.duration, case.config)
        _assert_records_match(staged, _per_step(lambda v: gen @ v, block, case))
        _assert_records_match(rk4_integrate(lambda v: gen @ v, block, case.duration, case.config, linear=True), staged)
        # One column at a time on the plans the model holds after the first.
        for col, op in enumerate(columns):
            held = evolve(op, case.duration)
            flat = held.states.reshape(len(held), d * d)
            _assert_records_match(Trajectory(held.times, flat), Trajectory(staged.times, staged.states[:, :, col]))


@MORE
@given(cases())
def test_krylov_step_matches_the_staged_retrodictive_rhs(case):
    rng, model = case.model()
    d = case.dim
    rho = random_density(rng, d)

    def rhs(v):
        return retrodictive_rhs(model, v.reshape(d, d)).reshape(-1)

    staged = rk4_integrate(rhs, rho.reshape(-1), case.duration, case.config)
    krylov = evolve_retrodictive(model, DensityOperator(rho), case.duration, case.config)
    _assert_records_match(Trajectory(krylov.times, krylov.states.reshape(len(krylov), d * d)), staged)


@SETTINGS
@given(cases(), st.lists(st.floats(0.001, 0.3), min_size=1, max_size=2))
def test_held_plans_give_a_fresh_models_bytes(case, more):
    # Durations off the step grid give step sizes that differ from case's, some in the last bit only.
    rng, model = case.model()
    rho = random_density(rng, case.dim)
    durations = [case.duration, *more, case.duration, *(math.nextafter(t, 1.0) for t in more)]
    runs = {
        "predictive": lambda m, t: evolve_predictive(m, DensityOperator(rho), t, case.config),
        "pom-backward": lambda m, t: evolve_pom_backward(m, rho, t, case.config),
        "retrodictive": lambda m, t: evolve_retrodictive(m, DensityOperator(rho), t, case.config),
    }
    for run in runs.values():
        held = [run(model, t) for t in durations]
        for t, first in zip(durations, held):
            again = run(model, t)
            fresh = run(LindbladModel(model.dim, model.hamiltonian, model.jump_ops), t)
            for got in (first, again):
                assert got.times.tobytes() == fresh.times.tobytes()
                assert got.states.tobytes() == fresh.states.tobytes()


def _rk4_growth(z: np.ndarray) -> float:
    """The largest log |R(z)| over z = h lambda, with R(z) = 1 + z + z^2/2 +
    z^3/6 + z^4/24 the RK4 amplification factor, taken as z^4 R(z)/z^4 where
    |z| > 1 so that it does not overflow."""
    big = np.abs(z) > 1.0
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        w = 1.0 / np.where(big, z, 1.0)
        far = 4.0 * np.log(np.abs(np.where(big, z, 1.0))) + np.log(np.abs(1 / 24 + w / 6 + w**2 / 2 + w**3 + w**4))
        near = np.log(np.abs(1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24))
    return float(np.max(np.where(big, far, near)))


def _stiff(model: LindbladModel, h: float, per_step: float) -> LindbladModel:
    """model with its generator scaled up until one RK4 step at h amplifies
    some mode by at least exp(per_step)."""
    lam = np.linalg.eigvals(predictive_generator(model))
    c = 1.0
    while _rk4_growth(c * h * lam) < per_step:
        c *= 2.0**0.25
    return LindbladModel(model.dim, c * model.hamiltonian, tuple(math.sqrt(c) * a for a in model.jump_ops))


def _overflow_step(run, n_steps: int, steps_per_unit_time: int, guarded: bool = False) -> int:
    """The step k that run(duration) names as not finite.  The same path run
    to step k names k too, and run to step k - 1 names no step: its records
    are finite.  A guarded evolution's records near overflow may be refused
    by a guard (an IntegrationError with no step, or the eigensolver failing)
    or symmetrized past overflow, so for one only the step is checked."""
    with pytest.raises(IntegrationError) as err:
        run(n_steps / steps_per_unit_time)
    k = err.value.step
    assert k is not None and 1 <= k <= n_steps
    assert str(err.value).endswith(f"non-finite state at step {k} of {n_steps}")
    with pytest.raises(IntegrationError) as again:
        run(k / steps_per_unit_time)
    assert again.value.step == k
    try:
        before = run((k - 1) / steps_per_unit_time)
    except IntegrationError as refused:
        assert guarded and refused.step is None
    except np.linalg.LinAlgError:
        assert guarded
    else:
        assert guarded or np.isfinite(before.states).all()
    return k


@SETTINGS
@given(cases(densities=(64, 128, 256)), st.floats(150.0, 300.0))
def test_an_overflow_names_the_first_non_finite_step(case, exponent):
    rng, model = case.model()
    d, spu = case.dim, case.steps_per_unit_time
    scale = 10.0**exponent
    # From a unit-trace state, overflow near step n_steps / 2 or earlier.
    model = _stiff(model, 1.0 / spu, (math.log(1e308) + 100.0) / max(1, case.n_steps // 2))
    rho = random_density(rng, d)
    block = scale * np.stack([random_density(rng, d).reshape(-1) for _ in range(case.columns)], axis=1)
    gen = pom_backward_generator(model)
    config = case.config
    _overflow_step(lambda t: rk4_integrate(lambda v: gen @ v, block, t, config), case.n_steps, spu)
    _overflow_step(lambda t: rk4_integrate(lambda v: gen @ v, block, t, config, linear=True), case.n_steps, spu)
    for run in (
        lambda t: evolve_pom_backward(model, scale * rho, t, config),
        lambda t: evolve_retrodictive(model, DensityOperator(rho), t, config),
    ):
        _overflow_step(run, case.n_steps, spu, guarded=True)


def test_a_krylov_overflow_between_records_names_its_step():
    case = Case(seed=5, dim=3, jumps=2, record_every=50, steps_per_unit_time=128, n_steps=120, columns=1)
    rng, model = case.model()
    model = _stiff(model, 1.0 / 128, (math.log(1e308) + 100.0) / 30)
    rho = random_density(rng, 3)
    run = lambda t: evolve_retrodictive(model, DensityOperator(rho), t, case.config)  # noqa: E731
    k = _overflow_step(run, 120, 128, guarded=True)
    assert k % 50 != 0
