import tracemalloc
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
    dagger,
    evolve_pom_backward,
    evolve_predictive,
    evolve_retrodictive,
    hermitian_deviation,
    pom_backward_generator,
    pom_premeasurement_rhs,
    predictive_generator,
    predictive_rhs,
    retrodictive_rhs,
    rk4_integrate,
    trace,
    two_level_decay_model,
)
from retrolind import dynamics, operators
from retrolind import model as model_module
from retrolind.atom import analytic_retrodictive_state
from retrolind.operators import scale_of, symmetrize
from retrolind.tolerances import HERMITICITY_TOL

from scenario_factory import random_density, random_hermitian, random_model

EXCITED = np.diag([1.0, 0.0]).astype(complex)
GROUND = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def _linear_integrate(rhs, x0, duration: float, config: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """rk4_integrate's run of a linear rhs by _integrate on its step plans (_linear), held for this run alone."""
    make = partial(dynamics._linear, SimpleNamespace(), False, rhs)
    return Trajectory(*dynamics._integrate(x0, [duration], config, make)[:2])


class TestTrajectory:
    def test_final_is_last_state(self):
        traj = Trajectory(np.array([0.0, 1.0]), (EXCITED, GROUND))
        np.testing.assert_array_equal(traj.final, GROUND)
        assert len(traj) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            Trajectory(np.array([0.0, 1.0]), (EXCITED,))

    def test_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at time 0"):
            Trajectory(np.array([0.5, 1.0]), (EXCITED, GROUND))

    @pytest.mark.parametrize("middle", [1.0, np.nan])
    def test_times_must_increase(self, middle):
        with pytest.raises(ValueError, match="increase"):
            Trajectory(np.array([0.0, middle, 1.0]), (EXCITED, GROUND, EXCITED))

    def test_states_are_one_read_only_array(self):
        traj = Trajectory(np.array([0.0, 1.0]), (EXCITED, GROUND))
        assert isinstance(traj.states, np.ndarray)
        assert traj.states.shape == (2, 2, 2)
        assert not traj.states.flags.writeable
        with pytest.raises(ValueError):
            traj.states[0, 0, 0] = 0.5

    def test_caller_array_stays_writable(self):
        times, states = np.array([0.0, 1.0]), np.stack([EXCITED, GROUND])
        traj = Trajectory(times, states)
        for mine, frozen in ((times, traj.times), (states, traj.states)):
            assert mine.flags.writeable
            assert not frozen.flags.writeable
            assert np.shares_memory(frozen, mine)

    def test_times_of_an_evolution_are_read_only(self):
        traj = evolve_pom_backward(two_level_decay_model(1.0), np.eye(2), 0.05)
        with pytest.raises(ValueError):
            traj.times[1] = -1.0
        assert np.all(np.diff(traj.times) > 0.0)


class TestPredictiveRhs:
    def test_excited_projector_decays_into_ground(self):
        for gamma in (1.0, 3.5):
            model = two_level_decay_model(gamma)
            expected = gamma * (GROUND - EXCITED)
            np.testing.assert_allclose(predictive_rhs(model, EXCITED), expected, atol=1e-15)

    def test_superposition_hand_value(self):
        gamma = 2.0
        model = two_level_decay_model(gamma)
        expected = np.array(
            [[-gamma / 2.0, -gamma / 4.0], [-gamma / 4.0, gamma / 2.0]], dtype=complex
        )
        np.testing.assert_allclose(predictive_rhs(model, PLUS), expected, atol=1e-15)

    def test_hamiltonian_only_term(self):
        model = LindbladModel(2, SIGMA_Z)
        expected = np.array([[0.0, -1.0j], [1.0j, 0.0]])
        np.testing.assert_allclose(predictive_rhs(model, PLUS), expected, atol=1e-15)

    def test_traceless_for_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            model = random_model(rng)
            rho = random_density(rng, model.dim)
            assert abs(trace(predictive_rhs(model, rho))) < 1e-13

    def test_preserves_hermiticity(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            model = random_model(rng)
            out = predictive_rhs(model, random_density(rng, model.dim))
            np.testing.assert_allclose(out, dagger(out), atol=1e-13)


class TestPomPremeasurementRhs:
    def test_superposition_hand_value(self):
        gamma = 1.0
        model = two_level_decay_model(gamma)
        expected = np.array([[0.0, -gamma / 4.0], [-gamma / 4.0, 0.0]], dtype=complex)
        np.testing.assert_allclose(pom_premeasurement_rhs(model, PLUS), expected, atol=1e-15)

    def test_identity_is_fixed_point(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            model = random_model(rng)
            out = pom_premeasurement_rhs(model, np.eye(model.dim, dtype=complex))
            assert np.max(np.abs(out)) < 1e-13

    def test_adjoint_of_predictive_rhs(self):
        """The expected outcome probability is stationary in the collapse time.

        Moving the hand-off instant changes the forward and backward pieces
        by rates that must cancel under the trace pairing.
        """
        rng = np.random.default_rng(14)
        for _ in range(20):
            model = random_model(rng)
            rho = random_density(rng, model.dim)
            g = rng.standard_normal((model.dim, model.dim)) + 1j * rng.standard_normal(
                (model.dim, model.dim)
            )
            pi = g @ dagger(g)
            forward = trace(predictive_rhs(model, rho) @ pi)
            backward = trace(rho @ pom_premeasurement_rhs(model, pi))
            assert forward == pytest.approx(backward, abs=1e-12)


class TestRetrodictiveRhs:
    def test_traceless_on_unit_trace_states(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            model = random_model(rng)
            rho = random_density(rng, model.dim)
            assert abs(trace(retrodictive_rhs(model, rho))) < 1e-12

    def test_linear_part_plus_trace_restoring_term(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            model = random_model(rng)
            rho = random_density(rng, model.dim)
            k_op = sum(
                dagger(a) @ a - a @ dagger(a) for a in model.jump_ops
            )
            expected = pom_premeasurement_rhs(model, rho) + 2.0 * trace(rho @ k_op) * rho
            np.testing.assert_allclose(retrodictive_rhs(model, rho), expected, atol=1e-13)

    def test_matches_derivative_of_atom_closed_form(self):
        gamma, tau = 1.25, 0.7
        model = two_level_decay_model(gamma)
        rho = analytic_retrodictive_state(gamma, tau)
        x = np.exp(-gamma * tau / 2.0)
        expected = np.array(
            [[0.0, -gamma * x / 4.0], [-gamma * x / 4.0, 0.0]], dtype=complex
        )
        np.testing.assert_allclose(retrodictive_rhs(model, rho.op), expected, atol=1e-14)

    def test_rejects_wrong_trace(self):
        model = two_level_decay_model(1.0)
        with pytest.raises(ValueError, match="trace"):
            retrodictive_rhs(model, 2.0 * PLUS)


class TestGenerators:
    def test_predictive_generator_matches_rhs(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            model = random_model(rng)
            m = rng.standard_normal((model.dim, model.dim)) + 1j * rng.standard_normal(
                (model.dim, model.dim)
            )
            via_matrix = (predictive_generator(model) @ m.reshape(-1)).reshape(model.dim, -1)
            np.testing.assert_allclose(via_matrix, predictive_rhs(model, m), atol=1e-13)

    def test_pom_backward_generator_matches_rhs(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            model = random_model(rng)
            m = rng.standard_normal((model.dim, model.dim)) + 1j * rng.standard_normal(
                (model.dim, model.dim)
            )
            via_matrix = (pom_backward_generator(model) @ m.reshape(-1)).reshape(model.dim, -1)
            np.testing.assert_allclose(via_matrix, pom_premeasurement_rhs(model, m), atol=1e-13)


def _refuse_to_step(v):
    raise AssertionError("a refused duration was stepped")


def _refuse_to_allocate(*args, **kwargs):
    raise AssertionError("the records of a refused duration were allocated")


class TestRk4Integrate:
    def test_scalar_exponential(self):
        traj = rk4_integrate(lambda v: -v, np.array([1.0 + 0.0j]), 1.0)
        assert traj.final[0] == pytest.approx(np.exp(-1.0), abs=1e-12)
        np.testing.assert_allclose(
            [s[0].real for s in traj.states], np.exp(-traj.times), atol=1e-12
        )

    def test_phase_rotation_keeps_magnitude(self):
        traj = rk4_integrate(lambda v: 1j * v, np.array([1.0 + 0.0j]), 3.0)
        assert abs(traj.final[0]) == pytest.approx(1.0, abs=1e-10)
        assert traj.final[0] == pytest.approx(np.exp(3.0j), abs=1e-10)

    @pytest.mark.parametrize("linear", [False, True])
    def test_a_real_start_under_a_complex_rhs_records_complex_states(self, linear):
        integrate = _linear_integrate if linear else rk4_integrate
        real = integrate(lambda v: 1j * v, np.array([1.0]), 3.0)
        complex_ = integrate(lambda v: 1j * v, np.array([1.0 + 0.0j]), 3.0)
        assert real.states.dtype == np.complex128
        assert real.states.tobytes() == complex_.states.tobytes()

    def test_a_real_start_under_a_real_rhs_stays_real(self):
        traj = rk4_integrate(lambda v: -v, np.array([1.0]), 1.0)
        assert traj.states.dtype == np.float64
        assert traj.final[0] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_recording_grid(self):
        config = IntegratorConfig(steps_per_unit_time=100, record_every=10)
        traj = rk4_integrate(lambda v: -v, np.array([1.0 + 0.0j]), 1.0, config)
        np.testing.assert_allclose(traj.times, np.linspace(0.0, 1.0, 11), atol=1e-15)

    def test_final_step_recorded_when_off_grid(self):
        config = IntegratorConfig(steps_per_unit_time=100, record_every=10)
        traj = rk4_integrate(lambda v: -v, np.array([1.0 + 0.0j]), 1.05, config)
        assert len(traj) == 12
        assert traj.times[-1] == pytest.approx(1.05)

    def test_zero_duration(self):
        traj = rk4_integrate(lambda v: -v, np.array([2.0 + 0.0j]), 0.0)
        assert len(traj) == 1
        assert traj.times[0] == 0.0
        assert traj.final[0] == 2.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError, match="duration"):
            rk4_integrate(lambda v: -v, np.array([1.0 + 0.0j]), -1.0)

    @pytest.mark.parametrize("duration", [True, False, np.True_, "1.0", None])
    def test_a_duration_that_is_no_real_number_is_refused(self, duration):
        with pytest.raises(ValueError) as err:
            rk4_integrate(lambda v: -v, np.array([1.0 + 0.0j]), duration)
        assert str(err.value) == f"duration must be a finite real number >= 0, got {duration!r}"

    @pytest.mark.parametrize("duration", [10**400, [0.5, 10**400]], ids=["scalar", "segment"])
    def test_an_int_too_large_for_a_float_is_no_finite_duration(self, duration):
        with pytest.raises(ValueError) as err:
            rk4_integrate(_refuse_to_step, np.array([1.0]), duration)
        assert str(err.value) == "duration must be a finite real number >= 0, got 1.000e+400"

    @pytest.mark.parametrize("duration", [1e306, [0.5, 1e306]], ids=["scalar", "segment"])
    def test_a_step_count_that_is_no_finite_float_is_refused_before_allocating(self, duration, monkeypatch):
        monkeypatch.setattr(np, "empty", _refuse_to_allocate)
        with pytest.raises(ValueError) as err:
            rk4_integrate(_refuse_to_step, np.array([1.0]), duration)
        message = "duration 1e+306 at 1000 steps_per_unit_time gives a step count that is not a finite float"
        assert str(err.value) == message and len(message) < 200

    def test_a_huge_steps_per_unit_time_is_printed_bounded(self, monkeypatch):
        monkeypatch.setattr(np, "empty", _refuse_to_allocate)
        with pytest.raises(ValueError) as err:
            rk4_integrate(_refuse_to_step, np.array([1.0]), 0.5, IntegratorConfig(10**400, 1))
        message = "duration 0.5 at 1.000e+400 steps_per_unit_time gives a step count that is not a finite float"
        assert str(err.value) == message and len(message) < 200

    def test_a_run_over_the_step_budget_is_refused_before_allocating(self, monkeypatch):
        # 64 + 64 steps at 1024 per unit time: each segment within a budget of 100 steps, the run not.
        monkeypatch.setattr(model_module, "MAX_RK4_STEPS", 100)
        config = IntegratorConfig(1024, 8)
        with monkeypatch.context() as refusing:
            refusing.setattr(np, "empty", _refuse_to_allocate)
            with pytest.raises(ValueError) as err:
                rk4_integrate(_refuse_to_step, np.array([1.0]), [0.0625, 0.0625], config)
        assert str(err.value) == (
            "integrator.steps_per_unit_time: 1.280e+02 RK4 steps over the window exceed the budget of 1e+02; "
            "lower steps_per_unit_time or shorten the window (deviation 2.800000e+01)"
        )
        assert len(rk4_integrate(lambda v: -v, np.array([1.0]), [0.0625, 0.03125], config)) == 13

    def test_the_record_budget_holds_for_each_operator_of_a_block(self, monkeypatch):
        # 8 steps, every 8th recorded: 2 records of 4 coordinates take 128 bytes, for each column alike.
        config = IntegratorConfig(1024, 8)
        monkeypatch.setattr(model_module, "MAX_RECORDED_BYTES", 127)
        for x0 in (np.ones(4), np.ones((4, 3))):
            with pytest.raises(ValueError) as err:
                rk4_integrate(_refuse_to_step, x0, 0.0078125, config)
            message = "integrator.record_every: 2 recorded states take 1.280e+02 bytes, over the budget of 127; raise record_every"
            assert str(err.value) == message + " (deviation 1.000000e+00)"
        monkeypatch.setattr(model_module, "MAX_RECORDED_BYTES", 128)
        assert rk4_integrate(lambda v: -v, np.ones((4, 3)), 0.0078125, config).states.shape == (2, 4, 3)

    def test_every_segment_is_checked_before_the_first_step(self):
        with pytest.raises(ValueError, match=r"^duration must be a finite real number >= 0, got -1\.0$"):
            rk4_integrate(_refuse_to_step, np.array([1.0]), [0.5, 0.0, -1.0])

    def test_segments_step_on_from_each_final_and_zero_lengths_add_no_record(self):
        config = IntegratorConfig(steps_per_unit_time=100, record_every=10)
        run = rk4_integrate(lambda v: -v, np.array([1.0]), [0.0, 0.5, 0.0, 0.5], config)
        first = rk4_integrate(lambda v: -v, np.array([1.0]), 0.5, config)
        second = rk4_integrate(lambda v: -v, first.final, 0.5, config)
        assert run.times.tobytes() == np.concatenate([first.times, 0.5 + second.times[1:]]).tobytes()
        assert run.states.tobytes() == np.concatenate([first.states, second.states[1:]]).tobytes()
        assert len(run) == 11

    def test_a_numpy_duration_steps_as_the_float(self):
        ref = rk4_integrate(lambda v: -v, np.array([1.0 + 0.0j]), 1.0)
        for duration in (np.int64(1), np.float32(1.0), 1):
            traj = rk4_integrate(lambda v: -v, np.array([1.0 + 0.0j]), duration)
            assert traj.times.tobytes() == ref.times.tobytes() and traj.states.tobytes() == ref.states.tobytes()

    def test_overflow_reports_step(self):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError) as err:
                rk4_integrate(lambda v: 1e170 * v, np.array([1.0 + 0.0j]), 1.0)
        assert err.value.step is not None and err.value.step >= 1

    def test_fourth_order_convergence(self):
        errors = []
        for steps in (10, 20, 40):
            config = IntegratorConfig(steps_per_unit_time=steps, record_every=steps)
            traj = rk4_integrate(lambda v: -v, np.array([1.0 + 0.0j]), 1.0, config)
            errors.append(abs(traj.final[0] - np.exp(-1.0)))
        assert errors[0] / errors[1] > 8.0
        assert errors[1] / errors[2] > 8.0


class TestEvolvePredictive:
    def test_excited_population_decays_exponentially(self):
        gamma = 1.0
        model = two_level_decay_model(gamma)
        traj = evolve_predictive(model, DensityOperator(EXCITED), 2.0)
        for t, state in zip(traj.times, traj.states):
            assert state[0, 0].real == pytest.approx(np.exp(-gamma * t), abs=1e-10)
            assert state[1, 1].real == pytest.approx(1.0 - np.exp(-gamma * t), abs=1e-10)
            assert abs(state[0, 1]) < 1e-12

    def test_coherence_decays_at_half_rate(self):
        gamma = 0.8
        model = two_level_decay_model(gamma)
        traj = evolve_predictive(model, DensityOperator(PLUS), 2.5)
        for t, state in zip(traj.times, traj.states):
            assert state[0, 1] == pytest.approx(0.5 * np.exp(-gamma * t / 2.0), abs=1e-10)

    def test_ground_state_is_stationary(self):
        model = two_level_decay_model(1.0)
        traj = evolve_predictive(model, DensityOperator(GROUND), 1.0)
        np.testing.assert_allclose(traj.final, GROUND, atol=1e-12)

    def test_trace_preserved_on_random_model(self):
        rng = np.random.default_rng(19)
        model = random_model(rng, dim=3)
        rho = DensityOperator(random_density(rng, 3))
        traj = evolve_predictive(model, rho, 0.5, IntegratorConfig(400, 40))
        for state in traj.states:
            assert trace(state).real == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        model = two_level_decay_model(1.0)
        rho = DensityOperator(np.eye(3, dtype=complex) / 3.0)
        with pytest.raises(ValueError, match="dimension"):
            evolve_predictive(model, rho, 1.0)

    def test_a_stiff_run_raises_its_earliest_failure(self):
        # scenarios/atom_demo.json with a jump amplitude of 300: h * lambda near -180.  The
        # record at step 10 fails the trace check; it wins over the overflow at step 41.
        lower = np.zeros((2, 2), dtype=complex)
        lower[1, 0] = 300.0
        model = LindbladModel(2, np.zeros((2, 2), dtype=complex), (lower,))
        with pytest.raises(IntegrationError) as err:
            evolve_predictive(model, DensityOperator(PLUS), 2.0 * np.log(2.0), IntegratorConfig(1000, 10))
        assert err.value.step is None
        assert str(err.value) == "trace off by 1.000e+00 at time 0.00999491; step size too coarse"


class TestEvolvePomBackward:
    def test_atom_closed_form(self):
        gamma = 1.0
        model = two_level_decay_model(gamma)
        traj = evolve_pom_backward(model, EXCITED, 2.0)
        for tau, el in zip(traj.times, traj.states):
            assert el[0, 0].real == pytest.approx(np.exp(-gamma * tau), abs=1e-10)
            assert abs(el[1, 1]) < 1e-12

    def test_ground_outcome_relaxes_toward_identity(self):
        """A ground-state detection far after preparation carries no information."""
        gamma = 1.0
        model = two_level_decay_model(gamma)
        traj = evolve_pom_backward(model, GROUND, 2.0)
        for tau, el in zip(traj.times, traj.states):
            assert el[1, 1].real == pytest.approx(1.0, abs=1e-12)
            assert el[0, 0].real == pytest.approx(1.0 - np.exp(-gamma * tau), abs=1e-10)

    def test_superposition_off_diagonal_decay(self):
        gamma = 1.5
        model = two_level_decay_model(gamma)
        traj = evolve_pom_backward(model, PLUS, 2.0)
        for tau, el in zip(traj.times, traj.states):
            assert el[0, 1] == pytest.approx(0.5 * np.exp(-gamma * tau / 2.0), abs=1e-10)
            assert el[0, 0].real == pytest.approx(0.5, abs=1e-12)
            assert el[1, 1].real == pytest.approx(0.5, abs=1e-12)

    def test_identity_stays_identity(self):
        rng = np.random.default_rng(20)
        model = random_model(rng, dim=3)
        traj = evolve_pom_backward(
            model, np.eye(3, dtype=complex), 0.5, IntegratorConfig(400, 40)
        )
        np.testing.assert_allclose(traj.final, np.eye(3), atol=1e-12)

    def test_completeness_preserved_elementwise(self):
        """Backward-evolving each outcome operator keeps their sum the identity."""
        model = two_level_decay_model(1.0)
        minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
        config = IntegratorConfig(500, 50)
        traj_plus = evolve_pom_backward(model, PLUS, 1.0, config)
        traj_minus = evolve_pom_backward(model, minus, 1.0, config)
        for a, b in zip(traj_plus.states, traj_minus.states):
            np.testing.assert_allclose(a + b, np.eye(2), atol=1e-12)

    def test_rejects_non_hermitian_outcome(self):
        model = two_level_decay_model(1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_pom_backward(model, np.array([[0, 1], [0, 0]], dtype=complex), 1.0)

    def test_rejects_negative_outcome(self):
        model = two_level_decay_model(1.0)
        with pytest.raises(ValueError, match="positive"):
            evolve_pom_backward(model, SIGMA_Z, 1.0)


class TestEvolveRetrodictive:
    def test_atom_closed_form(self):
        gamma = 1.0
        model = two_level_decay_model(gamma)
        traj = evolve_retrodictive(model, DensityOperator(PLUS), 3.0)
        for tau, state in zip(traj.times, traj.states):
            np.testing.assert_allclose(
                state, analytic_retrodictive_state(gamma, tau).op, atol=1e-10
            )

    def test_unit_trace_at_every_recorded_time(self):
        rng = np.random.default_rng(21)
        model = random_model(rng, dim=3)
        rho = DensityOperator(random_density(rng, 3))
        traj = evolve_retrodictive(model, rho, 0.5, IntegratorConfig(400, 40))
        for state in traj.states:
            assert trace(state).real == pytest.approx(1.0, abs=1e-10)

    def test_agrees_with_normalized_backward_evolution(self):
        rng = np.random.default_rng(22)
        for _ in range(3):
            model = random_model(rng, dim=3)
            rho0 = random_density(rng, 3)
            config = IntegratorConfig(400, 40)
            nonlinear = evolve_retrodictive(model, DensityOperator(rho0), 0.6, config)
            linear = evolve_pom_backward(model, rho0, 0.6, config)
            for a, b in zip(nonlinear.states, linear.states):
                np.testing.assert_allclose(a, b / trace(b).real, atol=1e-8)

    def test_dimension_mismatch_rejected(self):
        model = two_level_decay_model(1.0)
        rho = DensityOperator(np.eye(3, dtype=complex) / 3.0)
        with pytest.raises(ValueError, match="dimension"):
            evolve_retrodictive(model, rho, 1.0)


def _edge_hamiltonian_and_jumps(jumps: int, second: complex):
    lower = np.array([[0.0, 0.0], [1e-3, 0.0]], dtype=complex)
    return np.diag([1.0 + 0.5e-10j, second]), (lower,) * jumps


def _evolve_mode(mode: str, model, op: np.ndarray, duration: float) -> Trajectory:
    config = IntegratorConfig(400, 40)
    if mode == "predictive":
        return evolve_predictive(model, DensityOperator(op), duration, config)
    if mode == "pom-backward":
        return evolve_pom_backward(model, op, duration, config)
    return evolve_retrodictive(model, DensityOperator(op), duration, config)


MODES = ("predictive", "pom-backward", "retrodictive")


class TestRecordedStateGuards:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("jumps", [0, 1])
    @pytest.mark.parametrize("second", [-1.0 - 0.5e-10j, 1.0 - 0.5e-10j])
    def test_a_hamiltonian_at_the_validation_edge_evolves(self, mode, jumps, second):
        # H - H^dag reaches exactly HERMITICITY_TOL * scale(H), which validation admits.
        model = LindbladModel(2, *_edge_hamiltonian_and_jumps(jumps, second))
        traj = _evolve_mode(mode, model, PLUS, 0.5)
        assert len(traj) == 6
        assert np.all(np.isfinite(traj.states))

    @pytest.mark.parametrize("jumps", [0, 1])
    @pytest.mark.parametrize("second", [-1.0 - 0.5e-10j, 1.0 - 0.5e-10j])
    def test_a_hamiltonian_at_the_validation_edge_evolves_under_its_hermitian_part(self, jumps, second):
        h, jump_ops = _edge_hamiltonian_and_jumps(jumps, second)
        edge, hermitian = LindbladModel(2, h, jump_ops), LindbladModel(2, symmetrize(h), jump_ops)
        terms = scale_of(h) + sum(scale_of(dagger(a) @ a) for a in jump_ops)
        for backward in (False, True):
            gap = dynamics._model_generator(edge, backward) - dynamics._model_generator(hermitian, backward)
            assert np.max(np.abs(gap)) <= 1e-15 * terms

    @pytest.mark.parametrize("mode", MODES)
    def test_every_recorded_state_is_exactly_hermitian(self, mode):
        rng = np.random.default_rng(32)
        model = random_model(rng, dim=4)
        traj = _evolve_mode(mode, model, random_density(rng, 4), 0.5)
        assert len(traj) == 6
        assert [hermitian_deviation(state) for state in traj.states] == [0.0] * len(traj)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_guarded_run_neither_checks_drift_nor_symmetrizes(self, mode, monkeypatch):
        # Records made by _from_real are exactly Hermitian, so the guard takes them as they are;
        # the generator, built from the Hermitian parts of its columns, checks none either.
        rng = np.random.default_rng(34)
        model = random_model(rng, dim=3)
        calls = []
        for module in (dynamics, operators):
            for name in ("_hermitian_excess", "symmetrize"):
                real = getattr(module, name, None)
                monkeypatch.setattr(module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a), raising=False)
        ops = random_density(rng, 3) if mode == "retrodictive" else np.array([random_density(rng, 3) for _ in range(2)])
        records, ends = dynamics._run(model, mode, ops, [0.2, 0.3], IntegratorConfig(200, 10))[1:]
        assert records.shape == (11, *ops.shape) and ends == [0, 4, 10]
        assert calls == []

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_duration_returns_hermitian_input_bit_for_bit(self, mode):
        rng = np.random.default_rng(33)
        model = random_model(rng, dim=4)
        rho = random_density(rng, 4)
        rho = (rho + dagger(rho)) / 2.0
        assert hermitian_deviation(rho) == 0.0
        final = _evolve_mode(mode, model, rho, 0.0).final
        assert final.tobytes() == rho.tobytes()


def _drifting_block(*columns: tuple[np.ndarray, np.ndarray]) -> Trajectory:
    """A guarded run of a stack of (start, rate) operators that move in a straight
    line, recorded at times 0, 1, 2 and 3 in real coordinates, with every guard on."""
    ops = np.stack([start for start, _ in columns]).astype(complex)
    rate = np.stack([slope for _, slope in columns]).astype(complex)
    times = np.arange(4.0)
    coords = dynamics._to_real(ops + times[:, None, None, None] * rate)
    return Trajectory(times, dynamics._guard(times, coords, check_trace=True))


MIXED = np.diag([0.5, 0.5])
PURE = np.diag([1.0, 0.0])
TRACE_UP = np.diag([0.4e-8, 0.0])  # |trace - 1| passes 1e-8 between t = 2 and t = 3
EIG_DOWN = np.diag([0.7e-7, -0.7e-7])  # an eigenvalue passes -1e-7 between t = 1 and t = 2


class TestBlockGuardOrder:
    """A failing block raises the error of the earliest failing record, of its
    lowest failing column, and of that state's first failing check in the order
    trace, positivity."""

    def test_earliest_record_wins_over_lower_column(self):
        with pytest.raises(IntegrationError) as err:
            _drifting_block((MIXED, TRACE_UP), (PURE, EIG_DOWN))
        assert str(err.value) == "eigenvalue -1.400e-07 below -1.0e-07 at time 2; step size too coarse"

    def test_lowest_column_wins_over_earlier_check(self):
        with pytest.raises(IntegrationError) as err:
            _drifting_block((MIXED, np.zeros((2, 2))), (PURE, EIG_DOWN), (PURE, 1.5 * TRACE_UP))
        assert str(err.value) == "eigenvalue -1.400e-07 below -1.0e-07 at time 2; step size too coarse"

    def test_trace_check_precedes_positivity_in_one_state(self):
        with pytest.raises(IntegrationError) as err:
            _drifting_block((MIXED, np.zeros((2, 2))), (PURE, EIG_DOWN + 1.5 * TRACE_UP))
        assert str(err.value) == "trace off by 1.200e-08 at time 2; step size too coarse"

    def test_passing_block_gives_views_of_one_guarded_stack(self):
        run = _drifting_block((MIXED, np.zeros((2, 2))), (PURE, 0.1 * EIG_DOWN))
        assert len(run) == 4
        assert run.states.shape == (4, 2, 2, 2)
        assert not run.states.flags.writeable
        assert np.shares_memory(run.final, run.states)
        np.testing.assert_allclose(run.final[1], PURE + 0.3 * EIG_DOWN, rtol=0, atol=1e-15)

    def test_failing_initial_operator_is_an_input_error(self):
        with pytest.raises(ValueError, match=r"^initial operator: eigenvalue -5\.000e-07 below -1\.0e-07$") as err:
            _drifting_block((MIXED, np.zeros((2, 2))), (np.diag([1.0 + 5e-7, -5e-7]), np.zeros((2, 2))))
        assert not isinstance(err.value, IntegrationError)


_EIGVALSH = np.linalg.eigvalsh
TAU = dynamics.POSITIVITY_DRIFT_TOL


def _eigvalsh_guard(times: np.ndarray, stack: np.ndarray, check_trace: bool) -> np.ndarray:
    """dynamics._guard, on the exactly Hermitian stack of its coordinates, with
    positivity decided by one eigvalsh pass alone: the reference for its
    Cholesky certificate."""
    trace_dev = np.abs(trace(stack) - 1.0) if check_trace else np.zeros(stack.shape[:-2])
    low = _EIGVALSH(stack)[..., 0]
    failed = (trace_dev > dynamics.TRACE_DRIFT_TOL) | (low < -TAU)
    if failed.any():
        at = np.unravel_index(np.argmax(failed), failed.shape)
        if trace_dev[at] > dynamics.TRACE_DRIFT_TOL:
            what = f"trace off by {trace_dev[at]:.3e}"
        else:
            what = f"eigenvalue {low[at]:.3e} below -{TAU:.1e}"
        if at[0] == 0:
            raise ValueError(f"initial operator: {what}")
        raise IntegrationError(f"{what} at time {times[at[0]]:g}; step size too coarse")
    return stack


def _outcome(guard, times: np.ndarray, records: np.ndarray):
    try:
        return guard(times, records, check_trace=False).tobytes()
    except (ValueError, IntegrationError) as err:
        return type(err), str(err)


def _spectral_stack(rng: np.random.Generator, lows: np.ndarray, dim: int, scale: float) -> np.ndarray:
    """Hermitian matrices with the given lowest eigenvalues, the others drawn
    from [|low|, scale], each in a random unitary basis."""
    g = rng.normal(size=(*lows.shape, dim, dim)) + 1j * rng.normal(size=(*lows.shape, dim, dim))
    basis = np.linalg.qr(g)[0]
    spectrum = rng.uniform(0.0, 1.0, size=(*lows.shape, dim)) * scale
    spectrum = np.maximum(spectrum, np.abs(lows)[..., None])
    spectrum[..., 0] = lows
    return (basis * spectrum[..., None, :]) @ dagger(basis)


class TestPositivityCertificate:
    """The guard certifies positivity by one Cholesky factorisation and falls
    back to eigvalsh only when that fails; its decision and message are those
    of an eigvalsh-only guard away from round-off of -POSITIVITY_DRIFT_TOL."""

    def test_decides_as_the_eigensolver_does(self, monkeypatch):
        calls = []
        for name in ("cholesky", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, solve=solve: calls.append(name) or solve(a))
        rng = np.random.default_rng(71)
        passed = failed = 0
        for _ in range(300):
            dim, records = int(rng.integers(1, 9)), int(rng.integers(1, 61))
            shape = (records,) if rng.random() < 0.3 else (records, int(rng.integers(1, 5)))
            if rng.random() < 0.5:
                # Unit scale, round-off near 1e-15: the lowest eigenvalues sit
                # on either side of the tolerance, within a relative 1e-3 to 1e-6.
                scale = 1.0
                sides = rng.choice([-1.0, 1.0], size=shape, p=[0.99, 0.01]) * 10.0 ** -rng.integers(3, 7, size=shape)
                lows = -TAU * (1.0 + sides)
            else:
                # Up to 1e300: the lowest eigenvalues are clearly negative or not.
                scale = 10.0 ** rng.uniform(-3.0, 300.0)
                lows = scale * rng.uniform(1e-3, 1.0, size=shape) * rng.choice([-1.0, 1.0], size=shape, p=[0.01, 0.99])
            coords = dynamics._to_real(_spectral_stack(rng, lows, dim, scale))
            times = np.arange(records, dtype=float)
            expected = _outcome(_eigvalsh_guard, times, dynamics._from_real(coords))
            calls.clear()
            assert _outcome(dynamics._guard, times, coords) == expected
            if isinstance(expected, bytes):
                passed += 1
                assert calls == ["cholesky"]
            else:
                failed += 1
        assert passed > 50 and failed > 50

    @pytest.mark.parametrize("low", [-TAU, -2.0 * TAU])
    def test_eigvalsh_decides_a_stack_the_factorisation_does_not_certify(self, low, monkeypatch):
        # Shifted by TAU * I, diag(1 - low, low) is singular or indefinite, so Cholesky
        # fails; eigvalsh gives low exactly, which passes at -TAU itself.
        calls = []
        for name in ("cholesky", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, solve=solve: calls.append(name) or solve(a))
        stack = np.diag([1.0 - low, low]).astype(complex)[None]
        if low == -TAU:
            assert dynamics._guard(np.zeros(1), dynamics._to_real(stack), check_trace=True).tobytes() == stack.tobytes()
        else:
            with pytest.raises(ValueError, match=r"^initial operator: eigenvalue -2\.000e-07 below -1\.0e-07$"):
                dynamics._guard(np.zeros(1), dynamics._to_real(stack), check_trace=True)
        assert calls == ["cholesky", "eigvalsh"]

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_a_non_finite_record_is_an_integration_error(self, entry):
        stack = np.array([EXCITED, GROUND, GROUND])
        stack[1, 0, 1] = stack[1, 1, 0] = entry
        with np.errstate(invalid="ignore"), pytest.raises(IntegrationError, match=r"^non-finite state at time 1; step size too coarse$"):
            dynamics._guard(np.arange(3.0), dynamics._to_real(stack), check_trace=False)

    def test_a_non_finite_lowest_eigenvalue_is_an_integration_error(self):
        # Finite, but the entry modulus overflows, so eigvalsh's scaling gives NaN.
        z = 1.5e308 * (1.0 + 1.0j)
        stack = np.array([EXCITED, [[1e308, z], [np.conj(z), 1e308]]])
        assert np.isfinite(stack).all()
        with np.errstate(over="ignore"), pytest.raises(IntegrationError, match=r"^eigenvalue nan below -1\.0e-07 at time 1"):
            dynamics._guard(np.arange(2.0), dynamics._to_real(stack), check_trace=False)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_an_overflowing_trace_fails_the_trace_check(self):
        stack = np.array([EXCITED, np.diag([1e308, 1e308])]).astype(complex)
        with pytest.raises(IntegrationError, match=r"^trace off by inf at time 1; step size too coarse$"):
            dynamics._guard(np.arange(2.0), dynamics._to_real(stack), check_trace=True)

    def test_a_finite_record_near_the_float_limit_stays_finite(self):
        stack = np.array([EXCITED, np.diag([1.7e308, 1.0])]).astype(complex)
        assert dynamics._guard(np.arange(2.0), dynamics._to_real(stack), check_trace=False).tobytes() == stack.tobytes()


def _random_operator(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestLinearStepMatrix:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_stage_by_stage_stepping(self, dim):
        rng = np.random.default_rng(40 + dim)
        config = IntegratorConfig(400, 40)
        for _ in range(5):
            model = random_model(rng, dim=dim)
            for gen in (predictive_generator(model), pom_backward_generator(model)):
                x0 = _random_operator(rng, dim).reshape(-1)
                staged = rk4_integrate(lambda v: gen @ v, x0, 0.7, config)
                stepped = _linear_integrate(lambda v: gen @ v, x0, 0.7, config)
                np.testing.assert_array_equal(stepped.times, staged.times)
                for a, b in zip(stepped.states, staged.states):
                    assert np.max(np.abs(a - b)) <= 1e-13 * scale_of(b)

    @pytest.mark.parametrize("linear", [False, True])
    def test_overflow_reports_the_first_step(self, linear):
        integrate = _linear_integrate if linear else rk4_integrate
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(IntegrationError, match="at step 1 of 1000$") as err:
                integrate(lambda v: 1e170 * v, np.array([1.0 + 0.0j]), 1.0)
        assert err.value.step == 1

    @pytest.mark.parametrize("linear", [False, True])
    def test_an_overflow_carries_the_finite_records_before_it(self, linear):
        config = IntegratorConfig(1024, 10)  # h = 2^-10, so a run to any step count takes the same steps

        def run(t):
            return (_linear_integrate if linear else rk4_integrate)(lambda v: 50.0 * v, np.array([1e300 + 0.0j]), t, config)

        with pytest.raises(IntegrationError) as err:
            run(1.0)
        k, reached = err.value.step, err.value.trajectory
        last = (k - 1) // 10 * 10  # the last record before step k
        assert 10 < k < 1024
        np.testing.assert_array_equal(reached.times, np.arange(0, last + 1, 10) / 1024)
        assert reached.states.tobytes() == run(last / 1024).states.tobytes()
        assert np.isfinite(reached.states).all()

    def test_overflow_step_is_the_first_non_finite_power(self):
        config = IntegratorConfig(1000, 10)
        growth = _linear_integrate(lambda v: 50.0 * v, np.array([1.0 + 0.0j]), 1e-3, config).final
        expected, x = 0, np.array([1e300 + 0.0j])
        with np.errstate(over="ignore", invalid="ignore"):
            while np.isfinite(x).all():
                expected, x = expected + 1, growth * x
            with pytest.raises(IntegrationError) as err:
                _linear_integrate(lambda v: 50.0 * v, np.array([1e300 + 0.0j]), 1.0, config)
        assert 1 < expected < 1000
        assert err.value.step == expected

    @pytest.mark.parametrize("record_every", [1, 3, 50])
    def test_strided_records_match_per_step_stepping(self, record_every):
        # 0.7 leaves a shorter last interval for strides 3 and 50; 0.3 is 30 steps, fewer than 50.
        rng = np.random.default_rng(47)
        config = IntegratorConfig(100, record_every)
        for dim in (2, 3):
            model = random_model(rng, dim=dim)
            for gen in (predictive_generator(model), pom_backward_generator(model)):
                x0 = np.stack([_random_operator(rng, dim).reshape(-1) for _ in range(4)], axis=1)
                for duration in (0.7, 0.3):
                    n_steps = round(duration * 100)
                    h = duration / n_steps
                    step = dynamics._rk4_step(lambda v: gen @ v, np.eye(dim * dim, dtype=complex), h)
                    times, expected, x = [0.0], [x0], x0
                    for k in range(1, n_steps + 1):
                        x = step @ x
                        if k % record_every == 0 or k == n_steps:
                            times.append(k * h)
                            expected.append(x)
                    strided = _linear_integrate(lambda v: gen @ v, x0, duration, config)
                    np.testing.assert_array_equal(strided.times, times)
                    for a, b in zip(strided.states, expected):
                        assert np.max(np.abs(a - b)) <= 1e-13 * scale_of(b)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision")
    def test_round_off_does_not_grow_with_the_record_count(self):
        # 100 records of 50 steps against the same step matrix applied in extended precision.
        # On random dim 2-4 generators over such a run, a rounded S^50 reused for every record
        # drifts by 3e-14 to 6e-13 * scale, and one S per step in double precision by 3e-15 to 2e-14.
        rng = np.random.default_rng(48)
        config = IntegratorConfig(1000, 50)
        for dim in (2, 3, 4):
            gen = predictive_generator(random_model(rng, dim=dim))
            x0 = random_density(rng, dim).reshape(-1)
            step = dynamics._rk4_step(lambda v: gen @ v, np.eye(dim * dim, dtype=complex), 1e-3)
            wide, x = step.astype(np.clongdouble), x0.astype(np.clongdouble)
            strided = _linear_integrate(lambda v: gen @ v, x0, 5.0, config)
            for state in strided.states[1:]:
                for _ in range(50):
                    x = wide @ x
                assert np.max(np.abs(state - x.astype(complex))) <= 3e-15 * scale_of(state)

    def test_overflow_in_mid_interval_reports_the_exact_step(self):
        config = IntegratorConfig(1000, 50)
        growth = _linear_integrate(lambda v: 50.0 * v, np.array([1.0 + 0.0j]), 1e-3, config).final
        expected, x = 0, np.array([1e300 + 0.0j])
        with np.errstate(over="ignore", invalid="ignore"):
            while np.isfinite(x).all():
                expected, x = expected + 1, growth * x
        with pytest.raises(IntegrationError) as err:
            _linear_integrate(lambda v: 50.0 * v, np.array([1e300 + 0.0j]), 1.0, config)
        assert expected % 50 != 0
        assert err.value.step == expected

    def test_overflowing_power_with_finite_steps_is_not_an_error(self):
        # S = diag(1, s) is finite, but S^50 is not, and 0 * inf makes (S^50 - I) x NaN.
        gen = np.diag([0.0, 1e6]).astype(complex)
        x0 = np.array([1.0 + 0.0j, 0.0])
        eye = np.eye(2, dtype=complex)
        step = dynamics._rk4_step(lambda v: gen @ v, eye, 1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(step).all()
            assert not np.isfinite(dynamics._power_increment(step - eye, 50) @ x0).all()
        traj = _linear_integrate(lambda v: gen @ v, x0, 0.2, IntegratorConfig(1000, 50))
        np.testing.assert_array_equal(traj.times, [0.0, 0.05, 0.1, 0.15, 0.2])
        for state in traj.states:
            np.testing.assert_array_equal(state, x0)

    def test_block_of_columns_matches_one_column_runs(self):
        rng = np.random.default_rng(44)
        config = IntegratorConfig(500, 25)
        for dim in (2, 3, 4):
            gen = pom_backward_generator(random_model(rng, dim=dim))
            block = np.stack([random_density(rng, dim).reshape(-1) for _ in range(4)], axis=1)
            batched = _linear_integrate(lambda v: gen @ v, block, 0.9, config)
            for col in range(block.shape[1]):
                single = _linear_integrate(lambda v: gen @ v, block[:, col], 0.9, config)
                for a, b in zip(batched.states, single.states):
                    assert np.max(np.abs(a[:, col] - b)) <= 1e-14

    def test_batched_evolution_matches_one_operator_at_a_time(self):
        rng = np.random.default_rng(45)
        model = random_model(rng, dim=3)
        config = IntegratorConfig(400, 40)
        elements = [random_density(rng, 3) for _ in range(3)]
        batched = Trajectory(*dynamics._run(model, "pom-backward", np.stack(elements), [0.8], config)[:2])
        for k, element in enumerate(elements):
            single = evolve_pom_backward(model, element, 0.8, config)
            np.testing.assert_array_equal(batched.times, single.times)
            for a, b in zip(batched.states[:, k], single.states):
                assert np.max(np.abs(a - b)) <= 1e-14


class TestEvolveShape:
    @pytest.mark.parametrize("n", [None, 1, 3])
    def test_one_trajectory_shaped_like_its_input(self, n):
        # 0.5 at 100 steps per unit time, every 10th recorded: 6 records.
        rng = np.random.default_rng(49)
        model = random_model(rng, dim=3)
        ops = random_density(rng, 3) if n is None else np.stack([random_density(rng, 3) for _ in range(n)])
        traj = Trajectory(*dynamics._run(model, "predictive", ops, [0.5], IntegratorConfig(100, 10))[:2])
        assert traj.states.shape == (6, *ops.shape)
        assert not traj.states.flags.writeable
        np.testing.assert_array_equal(traj.states[0], symmetrize(ops))


def _refuse_to_build(model, *ops):
    raise AssertionError("a zero-length evolution built a generator")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("duration", [True, np.True_, "0.5"])
def test_a_duration_that_is_no_real_number_is_refused_before_integrating(mode, duration, monkeypatch):
    rng = np.random.default_rng(47)
    model = random_model(rng, dim=2)
    monkeypatch.setattr(dynamics, "_model_generator", _refuse_to_build)
    with pytest.raises(ValueError) as err:
        _evolve_mode(mode, model, random_density(rng, 2), duration)
    assert str(err.value) == f"duration must be a finite real number >= 0, got {duration!r}"


@pytest.mark.parametrize("mode", MODES)
def test_an_int_too_large_for_a_float_is_refused_before_integrating(mode, monkeypatch):
    rng = np.random.default_rng(47)
    model = random_model(rng, dim=2)
    monkeypatch.setattr(dynamics, "_model_generator", _refuse_to_build)
    with pytest.raises(ValueError) as err:
        _evolve_mode(mode, model, random_density(rng, 2), 10**400)
    assert str(err.value) == "duration must be a finite real number >= 0, got 1.000e+400"


@pytest.mark.parametrize("mode", MODES)
def test_a_step_count_that_is_no_finite_float_is_refused_before_integrating(mode, monkeypatch):
    rng = np.random.default_rng(47)
    model = random_model(rng, dim=2)
    monkeypatch.setattr(dynamics, "_model_generator", _refuse_to_build)
    with pytest.raises(ValueError) as err:
        _evolve_mode(mode, model, random_density(rng, 2), 1e308)
    assert str(err.value) == "duration 1e+308 at 400 steps_per_unit_time gives a step count that is not a finite float"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "budget, value, over, within, message",
    [
        (
            "MAX_RK4_STEPS", 100, 0.26, 0.25,
            "integrator.steps_per_unit_time: 1.040e+02 RK4 steps over the window exceed the budget of 1e+02; "
            "lower steps_per_unit_time or shorten the window (deviation 4.000000e+00)",
        ),
        (
            "MAX_RECORDED_BYTES", 255, 0.25, 0.2,
            "integrator.record_every: 4 recorded states take 2.560e+02 bytes, over the budget of 255; "
            "raise record_every (deviation 1.000000e+00)",
        ),
    ],
    ids=["steps", "recorded-bytes"],
)
def test_an_evolution_over_the_work_budget_is_refused_before_integrating(mode, budget, value, over, within, message, monkeypatch):
    # At 400 steps per unit time, every 40th recorded: 0.26 takes 104 steps, and 0.25 records 4 dim-2
    # operators of 64 bytes; 0.25 takes 100 steps, and 0.2 records 3.
    rng = np.random.default_rng(47)
    model, rho = random_model(rng, dim=2), random_density(rng, 2)
    monkeypatch.setattr(model_module, budget, value)
    with monkeypatch.context() as refusing:
        refusing.setattr(dynamics, "_model_generator", _refuse_to_build)
        with pytest.raises(ValueError) as err:
            _evolve_mode(mode, model, rho, over)
    assert str(err.value) == message
    assert len(_evolve_mode(mode, model, rho, within)) > 1


class TestZeroLengthEvolution:
    @pytest.mark.parametrize("mode", MODES)
    def test_builds_no_generator(self, mode, monkeypatch):
        for name in ("predictive_generator", "pom_backward_generator", "_lindblad"):
            monkeypatch.setattr(dynamics, name, _refuse_to_build)
        rng = np.random.default_rng(46)
        model = random_model(rng, dim=3)
        rho = random_density(rng, 3)
        rho = (rho + dagger(rho)) / 2.0
        traj = _evolve_mode(mode, model, rho, 0.0)
        assert len(traj) == 1
        assert traj.final.tobytes() == rho.tobytes()


def _held_bytes(model) -> int:
    return sum(inc.nbytes for inc in vars(model).get("_plans", {}).values())


class TestHeldStepPlans:
    """The step plans S^m - I that a model holds for its linear modes."""

    @pytest.mark.parametrize("mode", ["predictive", "pom-backward"])
    def test_held_plans_give_the_results_of_a_fresh_model_byte_for_byte(self, mode, monkeypatch):
        rng = np.random.default_rng(60)
        model = random_model(rng, dim=3)
        rho = random_density(rng, 3)
        durations = (0.5, 0.3, 0.5, 0.30000000000000004, 0.3)
        held = [_evolve_mode(mode, model, rho, t) for t in durations]
        builds, step = [], dynamics._rk4_step
        monkeypatch.setattr(dynamics, "_rk4_step", lambda *args: builds.append(1) or step(*args))
        again = [_evolve_mode(mode, model, rho, t) for t in durations]
        assert builds == []
        for t, first, second in zip(durations, held, again):
            fresh = _evolve_mode(mode, LindbladModel(model.dim, model.hamiltonian, model.jump_ops), rho, t)
            for run in (first, second):
                assert run.times.tobytes() == fresh.times.tobytes()
                assert run.states.tobytes() == fresh.states.tobytes()

    @pytest.mark.parametrize("plans", [0.5, 1, 2.5])
    def test_held_plan_bytes_stay_within_the_generator_budget(self, plans, monkeypatch):
        # dim 3: each plan is one 9 x 9 real matrix of 648 bytes.
        budget = plans * 9 * 9 * 8
        monkeypatch.setattr(dynamics, "MAX_GENERATOR_BYTES", budget)
        rng = np.random.default_rng(61)
        model = random_model(rng, dim=3)
        rho = random_density(rng, 3)
        for t in (0.5, 0.3, 0.55, 0.5, 0.3, 0.25):
            for mode in ("predictive", "pom-backward"):
                run = _evolve_mode(mode, model, rho, t)
                assert 0 < _held_bytes(model) <= budget if plans >= 1 else _held_bytes(model) == 0
                fresh = _evolve_mode(mode, LindbladModel(model.dim, model.hamiltonian, model.jump_ops), rho, t)
                assert run.states.tobytes() == fresh.states.tobytes()


class TestHermitianCoordinates:
    """The evolutions carry real coordinates of Hermitian operators
    (dynamics._to_real), on the model's real generator L and its adjoint."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(0, 3))
    def test_coordinates_round_trip_and_carry_both_generators(self, seed, dim, jumps):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((3, dim * dim)) * 10.0 ** rng.integers(-300, 300, (3, dim * dim))
        assert dynamics._to_real(dynamics._from_real(x)).tobytes() == x.tobytes()
        herm = symmetrize(rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim)))
        assert dynamics._from_real(dynamics._to_real(herm)).tobytes() == herm.tobytes()

        # Column c of L, as an operator, is G on the operator of coordinate c, within 1e-15 relative
        # to the scale of G's terms (G itself may be round-off: dim 1); likewise for the adjoints.
        model = random_model(rng, dim=dim, n_jumps=jumps)
        terms = scale_of(model.hamiltonian) + sum(scale_of(dagger(a) @ a) for a in model.jump_ops)
        gen = dynamics._model_generator(model)
        basis = dynamics._from_real(np.eye(dim * dim)).reshape(dim * dim, -1)
        for real, full in ((gen, predictive_generator(model)), (dynamics._model_generator(model, backward=True), pom_backward_generator(model))):
            columns = dynamics._from_real(real.T).reshape(dim * dim, -1)
            assert np.max(np.abs(columns - basis @ full.T)) <= 1e-15 * terms
        # The adjoint under Tr(A B) = sum_k w_k a_k b_k: W L* = (W L)^T, exactly.
        w = dynamics._coordinates(dim).weights
        assert (w[:, None] * dynamics._model_generator(model, backward=True)).tobytes() == np.ascontiguousarray((w[:, None] * gen).T).tobytes()

    def test_building_the_generator_peaks_below_twice_its_bytes(self):
        # A complex d^4 array alone would take twice L's bytes.
        model = random_model(np.random.default_rng(80), dim=16)
        tracemalloc.start()
        try:
            gen = dynamics._model_generator(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gen.nbytes == 16**4 * 8
        assert peak <= 2 * gen.nbytes

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_made_operators_are_what_symmetrize_makes_of_them(self, dim):
        # The guard returns _from_real's stack unsymmetrized, so symmetrizing it must change no byte.
        rng = np.random.default_rng(81 + dim)
        x = rng.standard_normal((200, dim * dim))
        x[rng.random(x.shape) < 0.4] = 0.0
        x[rng.random(x.shape) < 0.4] *= -1.0  # negative zeros too
        assert np.signbit(x[x == 0.0]).any() and not np.signbit(x[x == 0.0]).all()
        ops = dynamics._from_real(x)
        assert ops.tobytes() == symmetrize(ops).tobytes()

    def test_a_dim8_model_holds_half_the_bytes_of_complex_generators_and_plans(self):
        # Every step recorded, as in the benchmark's dim-8 trajectories: one plan S - I per direction.
        rng = np.random.default_rng(80)
        model = random_model(rng, dim=8, n_jumps=2)
        config = IntegratorConfig(50, 1)
        evolve_predictive(model, DensityOperator(random_density(rng, 8)), 1.0, config)
        evolve_pom_backward(model, random_density(rng, 8), 1.0, config)
        # A 64 x 64 complex generator and two such plans took 192 KB.
        assert vars(model)["_generator"].nbytes + _held_bytes(model) <= 96 * 1024


def _staged_retrodictive(model, rho: np.ndarray, duration: float, config: IntegratorConfig) -> Trajectory:
    """The reference: rk4_integrate stepping retrodictive_rhs stage by stage."""
    dim = model.dim

    def rhs(v: np.ndarray) -> np.ndarray:
        return retrodictive_rhs(model, v.reshape(dim, dim)).reshape(-1)

    return rk4_integrate(rhs, rho.reshape(-1), duration, config)


def _krylov_covector(model, h: float) -> np.ndarray:
    """The covector k, k.v = -Tr(h L* v), that _krylov's advance holds for its scalars."""
    advance = dynamics._krylov(model, h)
    return dict(zip(advance.__code__.co_freevars, (cell.cell_contents for cell in advance.__closure__)))["kh"]


class TestKrylovRetrodictiveStep:
    """evolve_retrodictive takes each RK4 step in the basis (h G^dag)^j v."""

    @pytest.mark.parametrize("record_every", [1, 50])
    @pytest.mark.parametrize("dim", range(2, 9))
    def test_matches_stage_by_stage_stepping(self, dim, record_every):
        rng = np.random.default_rng(70 + dim)
        model = random_model(rng, dim=dim)
        rho = random_density(rng, dim)
        config = IntegratorConfig(200, record_every)
        traj = evolve_retrodictive(model, DensityOperator(rho), 0.6, config)
        staged = _staged_retrodictive(model, rho, 0.6, config)
        np.testing.assert_array_equal(traj.times, staged.times)
        assert len(traj) == len(staged) > 1
        for a, b in zip(traj.states, staged.states):
            assert np.max(np.abs(a - b.reshape(dim, dim))) <= 1e-13 * scale_of(b)

    def test_takes_no_stage_by_stage_step(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a retrodictive evolution stepped stage by stage")

        monkeypatch.setattr(dynamics, "_rk4_step", refuse)
        rng = np.random.default_rng(78)
        model = random_model(rng, dim=3)
        traj = evolve_retrodictive(model, DensityOperator(random_density(rng, 3)), 0.3, IntegratorConfig(100, 10))
        assert len(traj) == 4

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_the_covector_is_the_commutator_sums_from_the_trace_rows(self, dim):
        # -Tr(h L* v) = 2h Tr(v sum_q [A_q^dag, A_q]) = 2h (W k).v for k the coordinates of
        # the commutator sum; on a model, on it with an anti-Hermitian residue in H, and closed.
        rng = np.random.default_rng(90 + dim)
        model = random_model(rng, dim=dim)
        residue = 1j * 0.2 * HERMITICITY_TOL * scale_of(model.hamiltonian) * random_hermitian(rng, dim, 1.0)
        h = 1.0 / 200
        for case in (model, LindbladModel(dim, model.hamiltonian + residue, model.jump_ops)):
            k_op = sum(dagger(a) @ a - a @ dagger(a) for a in case.jump_ops)
            expected = 2.0 * h * dynamics._coordinates(dim).weights * dynamics._to_real(k_op)
            terms = h * (scale_of(case.hamiltonian) + sum(scale_of(dagger(a) @ a) for a in case.jump_ops))
            assert np.max(np.abs(_krylov_covector(case, h) - expected)) <= 1e-15 * terms
        for hamiltonian in (model.hamiltonian, model.hamiltonian + residue):
            assert not _krylov_covector(LindbladModel(dim, hamiltonian), h).any()

    def test_overflow_reports_the_first_step(self):
        rng = np.random.default_rng(79)
        model = random_model(rng, dim=3)
        kvec = sum(dagger(a) @ a - a @ dagger(a) for a in model.jump_ops).T.reshape(-1)
        assert np.abs(kvec).max() > 0.0
        x0 = 1e170 * dynamics._to_real(random_density(rng, 3))
        with pytest.raises(IntegrationError, match="at step 1 of 1000$") as err:
            dynamics._integrate(x0, [1.0], IntegratorConfig(), partial(dynamics._krylov, model))
        assert err.value.step == 1
