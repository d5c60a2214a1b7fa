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
import re
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace

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
    pom_premeasurement_rhs,
    predictive_generator,
    predictive_rhs,
    retrodictive_rhs,
    rk4_integrate,
)
from retrolind import dynamics
from retrolind.operators import dagger, scale_of

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


def _integrated(make, x0, duration, config: IntegratorConfig) -> Trajectory:
    """rk4_integrate's run over duration or its segments by dynamics._integrate, each segment's advance make(h)."""
    segments = [duration] if np.ndim(duration) == 0 else duration
    return Trajectory(*dynamics._integrate(x0, segments, config, make)[:2])


def _linear(gen: np.ndarray):
    """The advances of dynamics._linear for the rhs v -> gen v, on step plans held for one run alone."""
    return partial(dynamics._linear, SimpleNamespace(), False, lambda v: gen @ v)


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
        _assert_records_match(_integrated(_linear(gen), block, case.duration, case.config), staged)
        # One column at a time on the plans the model holds after the first.
        for col, op in enumerate(columns):
            held = evolve(op, case.duration)
            flat = held.states.reshape(len(held), d * d)
            _assert_records_match(Trajectory(held.times, flat), Trajectory(staged.times, staged.states[:, :, col]))


@MORE
@given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(0, 3), st.integers(1, 5))
def test_the_lindblad_body_on_a_stack_is_the_rhs_of_each_operator(seed, dim, jumps, n):
    # The body that L is built from, on an (n, d, d) stack of any operators, in both directions.
    rng = np.random.default_rng(seed)
    model = random_model(rng, dim, jumps)
    stack = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    terms = scale_of(model.hamiltonian) + sum(scale_of(dagger(a) @ a) for a in model.jump_ops)
    for backward, rhs in ((False, predictive_rhs), (True, pom_premeasurement_rhs)):
        body = dynamics._lindblad(model, stack, backward)
        assert body.shape == stack.shape
        for op, got in zip(stack, body):
            assert np.max(np.abs(got - rhs(model, op))) <= 1e-15 * terms * scale_of(op)


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


def _overflow_step(run, n_steps: int, steps_per_unit_time: int, guarded_every: int | None = None) -> int | None:
    """The step k that run(duration) names as not finite.  The same path run
    to step k names k too, and run to step k - 1 names no step: its records
    are finite.  A guarded evolution, recording every guarded_every steps,
    may refuse its records near overflow (an IntegrationError with no step,
    or the eigensolver failing) or symmetrize them past overflow, so for one
    only the step is checked.  A guarded refusal of the full run, with no
    step, is its earliest failure: it names a recorded time t, and a run to
    t fails alike, so no step up to t is non-finite; then None is returned."""
    guarded = guarded_every is not None
    with pytest.raises(IntegrationError) as err:
        run(n_steps / steps_per_unit_time)
    k = err.value.step
    if guarded and k is None:
        message = str(err.value)
        assert message.endswith("; step size too coarse")
        j = round(float(re.search(r" at time (\S+); ", message).group(1)) * steps_per_unit_time)
        assert f" at time {j / steps_per_unit_time:g}; " in message
        assert 0 < j <= n_steps and (j % guarded_every == 0 or j == n_steps)
        with pytest.raises(IntegrationError) as again:
            run(j / steps_per_unit_time)
        assert again.value.step is None and str(again.value) == message
        return None
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

    _overflow_step(lambda t: _integrated(_linear(gen), block, t, config), case.n_steps, spu)
    for run in (
        lambda t: evolve_pom_backward(model, scale * rho, t, config),
        lambda t: evolve_retrodictive(model, DensityOperator(rho), t, config),
    ):
        _overflow_step(run, case.n_steps, spu, guarded_every=config.record_every)


def test_a_krylov_overflow_between_records_names_its_step():
    case = Case(seed=5, dim=3, jumps=2, record_every=50, steps_per_unit_time=128, n_steps=120, columns=1)
    rng, model = case.model()
    model = _stiff(model, 1.0 / 128, (math.log(1e308) + 100.0) / 30)
    rho = random_density(rng, 3)
    run = lambda t: evolve_retrodictive(model, DensityOperator(rho), t, case.config)  # noqa: E731
    k = _overflow_step(run, 120, 128, guarded_every=50)
    assert k % 50 != 0


def _chained(integrate, x0, segments):
    """The reference for one run over segments: one integrate(x, segment) per segment, each from the
    last one's final state, at times offset by the float sum of the earlier segments.  Returns the
    chain's times and states and the IntegrationError that ended it, if one did; its records are
    then the finite prefix of the chain."""
    times, states, start, x = [np.zeros(1)], [np.asarray(x0, dtype=float)[None]], 0.0, x0
    for segment in segments:
        try:
            run, failure = integrate(x, segment), None
        except IntegrationError as exc:
            run, failure = exc.trajectory, exc
        times.append(start + run.times[1:])
        states.append(run.states[1:])
        if failure:
            break
        x, start = run.final, start + segment
    return np.concatenate(times), np.concatenate(states), failure


@st.composite
def chains(draw):
    """A case, its segments (zeros, whole numbers of steps and off-grid lengths) and whether it overflows."""
    case = draw(cases(densities=(64, 256, 1024)))
    spu = case.steps_per_unit_time
    on_grid = st.integers(1, 90).map(lambda n: n / spu)
    segment = st.one_of(on_grid, st.floats(0.001, 0.08), on_grid, st.just(0.0))
    return case, draw(st.lists(segment, min_size=1, max_size=6)), draw(st.booleans())


@SETTINGS
@given(chains())
def test_a_run_over_segments_is_the_chain_of_its_segments(chain):
    case, segments, overflow = chain
    rng, model = case.model()
    d, spu, config = case.dim, case.steps_per_unit_time, case.config
    steps = sum(math.ceil(t * spu) for t in segments)
    if overflow:  # from a state scaled up, overflow about halfway through the run
        model = _stiff(model, 1.0 / spu, (math.log(1e308) + 100.0) / max(1, 3 * steps // 4))
    scale = 10.0**100 if overflow else 1.0
    gen = dynamics._model_generator(model)
    block = scale * dynamics._to_real(np.array([random_density(rng, d) for _ in range(case.columns)])).T
    rho = dynamics._to_real(random_density(rng, d))
    paths = {
        "staged": (lambda x, t: rk4_integrate(lambda v: gen @ v, x, t, config), block),
        # Step plans held for one call alone, so the chain and the run share none.
        "plans": (lambda x, t: _integrated(_linear(gen), x, t, config), block),
        "krylov": (lambda x, t: _integrated(partial(dynamics._krylov, model), x, t, config), rho),
    }
    for name, (integrate, x0) in paths.items():
        times, states, failure = _chained(integrate, x0, segments)
        if failure is None:
            run = integrate(x0, segments)
        else:
            with pytest.raises(IntegrationError) as err:
                integrate(x0, segments)
            assert err.value.step == failure.step and str(err.value) == str(failure)
            run = err.value.trajectory
        assert run.times.tobytes() == times.tobytes() and run.states.tobytes() == states.tobytes()
        if overflow and steps and name != "krylov":
            assert failure is not None
