import math

import numpy as np
import pytest

from retrolind import (
    DensityOperator,
    IntegratorConfig,
    LindbladModel,
    Pom,
    PreparationEnsemble,
    Scenario,
    dagger,
    plus_minus_ensemble,
    two_level_decay_model,
    validate_scenario,
    validate_scenario_data,
)
from retrolind.atom import demo_scenario
from retrolind.model import _hermitian_positive_issues

EXCITED_PROJECTOR = np.diag([1.0, 0.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


class TestTwoLevelDecayModel:
    def test_jump_operator_square_is_excited_projector(self):
        """dagger(A) A must equal (gamma/2)|e><e| up to a couple of ulp."""
        for gamma in (1.0, 0.1, 2.5, 17.0):
            model = two_level_decay_model(gamma)
            (a,) = model.jump_ops
            np.testing.assert_allclose(
                dagger(a) @ a, (gamma / 2.0) * EXCITED_PROJECTOR, rtol=1e-15, atol=0
            )

    def test_free_hamiltonian_is_zero(self):
        model = two_level_decay_model(2.0)
        np.testing.assert_array_equal(model.hamiltonian, np.zeros((2, 2)))

    def test_lowering_structure(self):
        model = two_level_decay_model(8.0)
        (a,) = model.jump_ops
        np.testing.assert_allclose(a, [[0, 0], [2, 0]], atol=0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            two_level_decay_model(0.0)
        with pytest.raises(ValueError):
            two_level_decay_model(-1.0)

    @pytest.mark.parametrize("gamma", [True, np.True_, "1.0"])
    def test_rejects_a_rate_that_is_no_real_number(self, gamma):
        with pytest.raises(ValueError) as err:
            two_level_decay_model(gamma)
        assert str(err.value) == f"decay rate must be finite and positive, got {gamma!r}"

    def test_rejects_an_int_rate_too_large_for_a_float(self):
        with pytest.raises(ValueError) as err:
            two_level_decay_model(10**400)
        assert str(err.value) == f"decay rate must be finite and positive, got {10**400!r}"


class TestPlusMinusEnsemble:
    def test_priors_and_labels(self):
        ens = plus_minus_ensemble()
        assert ens.priors == (0.5, 0.5)
        assert ens.labels == ("+", "-")

    def test_states_are_superposition_projectors(self):
        ens = plus_minus_ensemble()
        np.testing.assert_array_equal(ens.states[0].op, PLUS)
        np.testing.assert_array_equal(ens.states[1].op, MINUS)

    def test_prior_weighted_sum_is_half_identity(self):
        ens = plus_minus_ensemble()
        total = sum(p * st.op for p, st in zip(ens.priors, ens.states))
        np.testing.assert_allclose(total, np.eye(2) / 2.0, atol=1e-15)


class TestLindbladModel:
    def test_closed_system_allowed(self):
        model = LindbladModel(2, np.diag([1.0, -1.0]).astype(complex))
        assert model.jump_ops == ()

    def test_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            LindbladModel(2, np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_jump_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            LindbladModel(2, np.zeros((2, 2)), (np.zeros((3, 3)),))

    def test_rejects_non_finite(self):
        h = np.zeros((2, 2), dtype=complex)
        h[0, 0] = np.inf
        with pytest.raises(ValueError, match="finite"):
            LindbladModel(2, h)

    def test_arrays_frozen(self):
        model = two_level_decay_model(1.0)
        with pytest.raises(ValueError):
            model.hamiltonian[0, 0] = 1.0


class TestDensityOperator:
    def test_valid(self):
        rho = DensityOperator(PLUS)
        assert rho.dim == 2

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityOperator(1.1 * PLUS)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityOperator(np.array([[0.5, 0.5], [-0.5, 0.5]], dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive"):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    def test_tolerance_overrides(self):
        slightly_off = PLUS * (1.0 + 5e-9)
        with pytest.raises(ValueError):
            DensityOperator(slightly_off)


class TestPom:
    def test_complete_pair(self):
        pom = Pom((PLUS, MINUS), ("+", "-"))
        assert len(pom) == 2 and pom.dim == 2

    def test_single_projector_is_incomplete(self):
        with pytest.raises(ValueError, match="sum to the identity"):
            Pom((PLUS,), ("+",))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            Pom((PLUS, MINUS), ("+", "+"))

    def test_label_count_must_match(self):
        with pytest.raises(ValueError, match="labels"):
            Pom((PLUS, MINUS), ("+",))

    def test_negative_element_rejected(self):
        too_big = 1.5 * PLUS
        rest = np.eye(2) - too_big
        with pytest.raises(ValueError, match="positive"):
            Pom((too_big, rest), ("a", "b"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestEntriesNearTheFloatLimit:
    """Finite entries whose modulus passes the largest double: Hermiticity and
    positivity are still decided, with no overflow warning."""

    Z = 1.5e308 * (1.0 + 1.0j)

    def test_an_indefinite_operator_is_not_positive(self):
        op = np.array([[1e308, self.Z], [np.conj(self.Z), 1e308]])
        issues = _hermitian_positive_issues("outcome operator", op)
        assert [issue.message for issue in issues] == ["not positive within tolerance"]

    def test_a_non_hermitian_operator_is_not_hermitian(self):
        op = np.array([[1e308, self.Z], [0.0, 1e308]])
        issues = _hermitian_positive_issues("outcome operator", op)
        assert [issue.message for issue in issues] == ["not Hermitian within tolerance"]

    def test_an_overflowing_trace_is_reported(self):
        report = validate_scenario_data(
            2, np.zeros((2, 2)), [], [1.0], [np.diag([1e308, 1e308])], ["big"], [np.eye(2)], ["any"], 0.0, 1.0
        )
        assert report.lines() == ["ensemble.states[0]: trace is not 1 within tolerance (deviation inf)"]


class TestPreparationEnsemble:
    def test_priors_stored_as_given(self):
        ens = PreparationEnsemble(
            (0.25, 0.75), (DensityOperator(PLUS), DensityOperator(MINUS)), ("a", "b")
        )
        assert ens.priors == (0.25, 0.75)

    def test_rejects_bad_prior_sum(self):
        with pytest.raises(ValueError, match="sum"):
            PreparationEnsemble(
                (0.6, 0.6), (DensityOperator(PLUS), DensityOperator(MINUS)), ("a", "b")
            )

    def test_rejects_negative_prior(self):
        with pytest.raises(ValueError, match=">= 0"):
            PreparationEnsemble(
                (-0.5, 1.5), (DensityOperator(PLUS), DensityOperator(MINUS)), ("a", "b")
            )

    @pytest.mark.parametrize("prior", [10**400, True, "0.5"], ids=["int-too-large-for-a-float", "bool", "str"])
    def test_a_prior_that_is_no_finite_number_is_refused(self, prior):
        with pytest.raises(ValueError) as err:
            PreparationEnsemble((prior, 0.5), (DensityOperator(PLUS), DensityOperator(MINUS)), ("a", "b"))
        assert str(err.value) == f"ensemble.priors[0]: prior must be >= 0, got {prior} (deviation nan)"


class TestScenario:
    def test_measurement_before_preparation_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            demo = demo_scenario(1.0, 1.0)
            Scenario(demo.model, demo.ensemble, demo.pom, t_p=2.0, t_m=1.0)

    def test_zero_window_allowed(self):
        demo = demo_scenario(1.0, 1.0)
        same_time = Scenario(demo.model, demo.ensemble, demo.pom, t_p=3.0, t_m=3.0)
        assert same_time.duration == 0.0

    def test_duration(self):
        assert demo_scenario(1.0, 2.5).duration == 2.5

    @pytest.mark.parametrize(
        "t_p, t_m, message",
        [
            (False, True, "t_p must be a finite real number, got False"),
            (0.0, "1.0", "t_m must be a finite real number, got '1.0'"),
            (np.True_, 1.0, "t_p must be a finite real number, got np.True_"),
            (0.0, math.inf, "t_m must be a finite real number, got inf"),
            pytest.param(0, 10**400, f"t_m must be a finite real number, got {10**400!r}", id="int-too-large-for-a-float"),
        ],
    )
    def test_a_time_that_is_no_finite_real_number_is_refused(self, t_p, t_m, message):
        demo = demo_scenario(1.0, 1.0)
        with pytest.raises(ValueError) as err:
            Scenario(demo.model, demo.ensemble, demo.pom, t_p, t_m)
        assert str(err.value) == f"scenario: {message} (deviation nan)"
        report = validate_scenario_data(
            2, demo.model.hamiltonian, demo.model.jump_ops, demo.ensemble.priors, [st.op for st in demo.ensemble.states],
            demo.ensemble.labels, demo.pom.elements, demo.pom.labels, t_p, t_m,
        )
        assert report.lines() == [f"scenario: {message} (deviation nan)"]

    def test_numpy_times_are_accepted(self):
        demo = demo_scenario(1.0, 1.0)
        assert Scenario(demo.model, demo.ensemble, demo.pom, np.float32(0.5), np.int64(2)).duration == 1.5


def _scenario_of_dims(model_dim: int, ensemble_dim: int, pom_dim: int) -> Scenario:
    ensemble = PreparationEnsemble((1.0,), (DensityOperator(np.eye(ensemble_dim) / ensemble_dim),), ("m",))
    pom = Pom((np.eye(pom_dim),), ("all",))
    return Scenario(LindbladModel(model_dim, np.zeros((model_dim, model_dim))), ensemble, pom, t_p=0.0, t_m=1.0)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PreparationEnsemble((), (), ()), "ensemble: at least one preparation is required (deviation nan)"),
        (
            lambda: PreparationEnsemble((1.0,), (DensityOperator(PLUS), DensityOperator(MINUS)), ("a", "b")),
            "ensemble.priors: 1 priors for 2 states (deviation nan)",
        ),
        (
            lambda: PreparationEnsemble((0.5, 0.5), (DensityOperator(PLUS), DensityOperator(MINUS)), ("a",)),
            "ensemble.labels: 1 labels for 2 states (deviation nan)",
        ),
        (
            lambda: PreparationEnsemble((0.5, 0.5), (DensityOperator(PLUS), DensityOperator(np.eye(3) / 3.0)), ("a", "b")),
            "ensemble states have mixed dimensions [2, 3]",
        ),
        (lambda: Pom((), ()), "pom: at least one outcome operator is required (deviation nan)"),
        (lambda: _scenario_of_dims(3, 2, 3), "ensemble: dimension 2 does not match model dimension 3 (deviation nan)"),
        (lambda: _scenario_of_dims(2, 2, 3), "pom: dimension 3 does not match model dimension 2 (deviation nan)"),
        (lambda: DensityOperator(np.ones((2, 3))), "density: not a square matrix (shape (2, 3)) (deviation nan)"),
        (
            lambda: LindbladModel(2, np.zeros(2)),
            "model.hamiltonian: not a square matrix (shape (2,)) (deviation nan)",
        ),
        (
            lambda: LindbladModel(True, np.zeros((1, 1))),
            "model.dim: dimension must be a positive integer, got True (deviation nan)",
        ),
        (
            lambda: LindbladModel(np.int64(1), np.zeros((1, 1))),
            f"model.dim: dimension must be a positive integer, got {np.int64(1)!r} (deviation nan)",
        ),
        (
            lambda: IntegratorConfig(True, 10),
            "integrator.steps_per_unit_time: must be a positive integer, got True (deviation nan)",
        ),
        (
            lambda: IntegratorConfig(np.int64(1000), 10),
            f"integrator.steps_per_unit_time: must be a positive integer, got {np.int64(1000)!r} (deviation nan)",
        ),
        (
            lambda: IntegratorConfig(1.0, False),
            "integrator.steps_per_unit_time: must be a positive integer, got 1.0 (deviation nan); "
            "integrator.record_every: must be a positive integer, got False (deviation nan)",
        ),
    ],
    ids=[
        "no-states",
        "prior-count",
        "label-count",
        "mixed-dimensions",
        "no-pom-element",
        "ensemble-dimension",
        "pom-dimension",
        "non-square-density",
        "non-square-hamiltonian",
        "bool-dim",
        "numpy-dim",
        "bool-steps",
        "numpy-steps",
        "both-integrator-fields",
    ],
)
def test_a_malformed_piece_is_refused_by_its_constructor(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert type(err.value) is ValueError and str(err.value) == message


class TestIntegratorConfig:
    def test_defaults(self):
        config = IntegratorConfig()
        assert config.steps_per_unit_time == 1000
        assert config.record_every == 10

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            IntegratorConfig(steps_per_unit_time=0)
        with pytest.raises(ValueError):
            IntegratorConfig(record_every=0)


class TestValidateScenario:
    def test_well_formed_scenario_is_clean(self):
        report = validate_scenario(demo_scenario(1.0, 1.0))
        assert report.ok
        assert report.lines() == []

    def test_raw_data_report_names_prior_deviation(self):
        """Priors of 0.6/0.6 must be reported as a 0.2 deviation, not raised."""
        demo = demo_scenario(1.0, 1.0)
        report = validate_scenario_data(
            2,
            demo.model.hamiltonian,
            demo.model.jump_ops,
            [0.6, 0.6],
            [st.op for st in demo.ensemble.states],
            demo.ensemble.labels,
            demo.pom.elements,
            demo.pom.labels,
            0.0,
            1.0,
        )
        assert not report.ok
        (issue,) = report.issues
        assert issue.field == "ensemble.priors"
        assert issue.deviation == pytest.approx(0.2)

    @pytest.mark.parametrize("prior", [10**400, True, "0.5"], ids=["int-too-large-for-a-float", "bool", "str"])
    def test_raw_data_report_names_a_prior_that_is_no_finite_number(self, prior):
        demo = demo_scenario(1.0, 1.0)
        report = validate_scenario_data(
            2,
            demo.model.hamiltonian,
            demo.model.jump_ops,
            [prior, 0.5],
            [st.op for st in demo.ensemble.states],
            demo.ensemble.labels,
            demo.pom.elements,
            demo.pom.labels,
            0.0,
            1.0,
        )
        (issue,) = report.issues
        assert issue.field == "ensemble.priors[0]"
        assert issue.message == f"prior must be >= 0, got {prior}"

    def test_raw_data_report_flags_incomplete_pom(self):
        demo = demo_scenario(1.0, 1.0)
        report = validate_scenario_data(
            2,
            demo.model.hamiltonian,
            demo.model.jump_ops,
            [1.0],
            [PLUS],
            ("+",),
            [PLUS],
            ("+",),
            0.0,
            1.0,
        )
        assert any("sum to the identity" in line for line in report.lines())
        deviations = [i.deviation for i in report.issues if "identity" in i.message]
        assert deviations[0] == pytest.approx(0.5)

    def test_collects_multiple_issues(self):
        demo = demo_scenario(1.0, 1.0)
        report = validate_scenario_data(
            2,
            demo.model.hamiltonian,
            demo.model.jump_ops,
            [0.7, 0.7],
            [st.op for st in demo.ensemble.states],
            demo.ensemble.labels,
            demo.pom.elements,
            demo.pom.labels,
            5.0,
            1.0,
            record_every=0,
        )
        fields = {issue.field for issue in report.issues}
        assert {"ensemble.priors", "scenario", "integrator.record_every"} <= fields

    def test_a_bool_dim_is_reported(self):
        one = np.ones((1, 1))
        report = validate_scenario_data(True, np.zeros((1, 1)), [], [1.0], [one], ("a",), [one], ("x",), 0.0, 1.0)
        assert report.lines() == ["model.dim: dimension must be a positive integer, got True (deviation nan)"]

    def test_non_finite_time_flagged(self):
        demo = demo_scenario(1.0, 1.0)
        report = validate_scenario_data(
            2,
            demo.model.hamiltonian,
            demo.model.jump_ops,
            demo.ensemble.priors,
            [st.op for st in demo.ensemble.states],
            demo.ensemble.labels,
            demo.pom.elements,
            demo.pom.labels,
            0.0,
            math.inf,
        )
        assert any("finite" in line for line in report.lines())


def _dim4_report(window: float, record_every: int):
    """A valid dim-4 scenario as raw data, at the default 1000 steps per unit time."""
    eye = np.eye(4, dtype=complex)
    return validate_scenario_data(
        4, np.zeros((4, 4), dtype=complex), [], [1.0], [eye / 4.0], ("a",), [eye], ("x",),
        0.0, window, 1000, record_every,
    )


class TestWorkBudget:
    def test_step_count_at_the_budget_is_allowed(self):
        assert validate_scenario(demo_scenario(1.0, 10_000.0)).ok

    def test_step_count_over_the_budget(self):
        with pytest.raises(ValueError, match="RK4 steps over the window exceed the budget of 1e\\+07"):
            demo_scenario(1.0, 10_000.01)

    def test_recorded_bytes_over_the_budget(self):
        (issue,) = _dim4_report(5000.0, 1).issues
        assert issue.field == "integrator.record_every"
        assert issue.message.startswith("5000001 recorded states take 1.280e+09 bytes, over the budget of 1073741824")
        assert issue.deviation == 5000001 * 256 - 2**30

    def test_recorded_bytes_within_the_budget(self):
        assert _dim4_report(5000.0, 2).ok
