import math

import numpy as np
import pytest

from retrolind import IntegratorConfig
from retrolind.atom import (
    analytic_preparation_probability,
    analytic_retrodictive_state,
    demo_scenario,
)

HALF_LIFE_WINDOW = 2.0 * math.log(2.0)


class TestAnalyticRetrodictiveState:
    def test_at_measurement_is_pure_superposition(self):
        rho = analytic_retrodictive_state(1.0, 0.0)
        np.testing.assert_array_equal(rho.op, np.full((2, 2), 0.5))

    def test_long_before_measurement_is_maximally_mixed(self):
        rho = analytic_retrodictive_state(1.0, 200.0)
        np.testing.assert_allclose(rho.op, np.eye(2) / 2.0, atol=1e-15)

    def test_coherence_at_doubled_half_life(self):
        rho = analytic_retrodictive_state(1.0, HALF_LIFE_WINDOW)
        assert rho.op[0, 1].real == pytest.approx(0.25)

    def test_populations_always_half(self):
        for tau in (0.0, 0.3, 1.7, 9.0):
            rho = analytic_retrodictive_state(2.0, tau)
            assert rho.op[0, 0] == 0.5 and rho.op[1, 1] == 0.5

    def test_coherence_scaling_in_rate_and_time(self):
        assert (
            analytic_retrodictive_state(2.0, 1.0).op[0, 1]
            == analytic_retrodictive_state(1.0, 2.0).op[0, 1]
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            analytic_retrodictive_state(0.0, 1.0)
        with pytest.raises(ValueError):
            analytic_retrodictive_state(1.0, -0.1)


class TestAnalyticPreparationProbability:
    def test_immediate_measurement_is_certain(self):
        assert analytic_preparation_probability(1.0, 0.0) == 1.0

    def test_doubled_half_life_gives_three_quarters(self):
        assert analytic_preparation_probability(1.0, HALF_LIFE_WINDOW) == pytest.approx(0.75)

    def test_long_window_approaches_coin_flip(self):
        assert analytic_preparation_probability(1.0, 100.0) == pytest.approx(0.5, abs=1e-15)

    def test_monotone_decreasing_in_window(self):
        windows = np.linspace(0.0, 6.0, 25)
        probs = [analytic_preparation_probability(1.3, w) for w in windows]
        assert all(a > b for a, b in zip(probs, probs[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            analytic_preparation_probability(-1.0, 1.0)
        with pytest.raises(ValueError):
            analytic_preparation_probability(1.0, math.nan)


class TestDemoScenario:
    def test_wires_rate_into_jump_operator(self):
        gamma = 3.0
        scenario = demo_scenario(gamma, 1.0)
        (a,) = scenario.model.jump_ops
        assert a[1, 0] == pytest.approx(math.sqrt(gamma / 2.0))

    def test_window_sets_measurement_time(self):
        scenario = demo_scenario(1.0, 2.5)
        assert scenario.t_p == 0.0
        assert scenario.t_m == 2.5
        assert scenario.duration == 2.5

    def test_outcomes_match_preparations(self):
        scenario = demo_scenario(1.0, 1.0)
        assert scenario.pom.labels == ("+", "-")
        assert scenario.ensemble.labels == ("+", "-")
        for el, st in zip(scenario.pom.elements, scenario.ensemble.states):
            np.testing.assert_array_equal(el, st.op)

    def test_integrator_override(self):
        config = IntegratorConfig(steps_per_unit_time=200, record_every=20)
        scenario = demo_scenario(1.0, 1.0, integrator=config)
        assert scenario.integrator == config

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: demo_scenario(True, 1.0), "decay rate must be finite and positive, got True"),
            (lambda: demo_scenario(1.0, np.True_), "window must be finite and >= 0, got np.True_"),
            (lambda: demo_scenario(1.0, "1.0"), "window must be finite and >= 0, got '1.0'"),
            (lambda: analytic_retrodictive_state(1.0, True), "tau must be finite and >= 0, got True"),
            (lambda: analytic_preparation_probability("1", 1.0), "decay rate must be finite and positive, got '1'"),
        ],
    )
    def test_a_rate_or_time_that_is_no_real_number_is_refused(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: demo_scenario(1.0, 10**400), f"window must be finite and >= 0, got {10**400!r}"),
            (lambda: demo_scenario(10**400, 1.0), f"decay rate must be finite and positive, got {10**400!r}"),
            (lambda: analytic_retrodictive_state(1.0, 10**400), f"tau must be finite and >= 0, got {10**400!r}"),
        ],
        ids=["window", "rate", "tau"],
    )
    def test_an_int_too_large_for_a_float_is_no_finite_rate_or_time(self, build, message):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message

    def test_numpy_numbers_are_rates_and_times(self):
        scenario = demo_scenario(np.float64(1.0), np.int64(2))
        assert scenario.duration == 2.0
        assert analytic_preparation_probability(np.float32(1.0), np.int64(0)) == 1.0

    def test_default_integrator(self):
        scenario = demo_scenario(1.0, 1.0)
        assert scenario.integrator == IntegratorConfig()
