import math
from pathlib import Path

import numpy as np
import pytest

from retrolind import (
    DensityOperator,
    IntegrationError,
    IntegratorConfig,
    LindbladModel,
    Pom,
    PreparationEnsemble,
    ProbabilityTable,
    Scenario,
    bayes_from_predictive,
    collapse_time_sweep,
    evolve_pom_backward,
    evolve_predictive,
    load_scenario,
    normalize_to_retrodictive,
    predict_outcome_probs,
    preparation_operators,
    retrodict_preparation_probs,
    trace,
    two_level_decay_model,
)
from retrolind import dynamics, inference
from retrolind.atom import analytic_preparation_probability, demo_scenario
from retrolind.tolerances import MAX_RECORDED_BYTES, MAX_RK4_STEPS, NORMALIZE_TRACE_FLOOR, POSITIVITY_DRIFT_TOL, RETRODICTIVE_EIG_TOL

from scenario_factory import random_density, random_model, random_pom_elements, random_scenario

SCENARIOS_DIR = Path(__file__).resolve().parent.parent / "scenarios"
HALF_LIFE_WINDOW = 2.0 * math.log(2.0)
EXCITED = np.diag([1.0, 0.0]).astype(complex)
GROUND = np.diag([0.0, 1.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def _shifted_demo(gamma, window, t_p):
    base = demo_scenario(gamma, window)
    return Scenario(
        base.model, base.ensemble, base.pom, t_p=t_p, t_m=t_p + window,
        integrator=base.integrator,
    )


class TestProbabilityTable:
    def test_lookup_by_label_and_index(self):
        table = ProbabilityTable(("a", "b"), np.array([0.3, 0.7]))
        assert table["a"] == 0.3
        assert table[1] == 0.7
        assert table[np.int64(1)] == 0.7
        assert table.items() == [("a", 0.3), ("b", 0.7)]

    @pytest.mark.parametrize(
        "key, message",
        [
            ("c", "unknown table label 'c'; known labels: a, b"),
            (-1, "table index -1 out of range for 2 entries"),
            (2, "table index 2 out of range for 2 entries"),
            (1.5, "table key 1.5 is neither a label nor an integer index"),
            (True, "table key True is neither a label nor an integer index"),
        ],
    )
    def test_a_key_is_looked_up_as_the_queries_look_it_up(self, key, message):
        with pytest.raises(ValueError) as err:
            ProbabilityTable(("a", "b"), np.array([0.3, 0.7]))[key]
        assert type(err.value) is ValueError and str(err.value) == message

    def test_rejects_negative_entry(self):
        with pytest.raises(ValueError, match="negative"):
            ProbabilityTable(("a", "b"), np.array([-0.1, 1.1]))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum"):
            ProbabilityTable(("a", "b"), np.array([0.3, 0.3]))

    def test_bad_total_reason_is_a_plain_number(self):
        with pytest.raises(ValueError, match=r"^probabilities sum to 1\.1, not 1$"):
            ProbabilityTable(("a", "b"), [0.5, 0.6])

    @pytest.mark.parametrize("probs", [[math.nan], [math.nan, 1.0], [0.5, math.nan]])
    def test_rejects_nan(self, probs):
        with pytest.raises(ValueError):
            ProbabilityTable(tuple("ab"[: len(probs)]), probs)

    def test_rejects_misaligned_labels(self):
        with pytest.raises(ValueError, match="one-to-one"):
            ProbabilityTable(("a",), np.array([0.5, 0.5]))

    def test_probs_read_only(self):
        table = ProbabilityTable(("a", "b"), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            table.probs[0] = 1.0


class TestNormalizeToRetrodictive:
    def test_unit_trace_operator_unchanged(self):
        rho = normalize_to_retrodictive(PLUS)
        np.testing.assert_allclose(rho.op, PLUS, atol=1e-15)

    def test_scale_divided_out(self):
        rho = normalize_to_retrodictive(3.0 * PLUS)
        np.testing.assert_allclose(rho.op, PLUS, atol=1e-15)

    def test_rejects_vanishing_trace(self):
        with pytest.raises(ValueError, match="trace"):
            normalize_to_retrodictive(np.zeros((2, 2), dtype=complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            normalize_to_retrodictive(np.array([[1, 1], [0, 1]], dtype=complex))


def _guarded_element(rng: np.random.Generator, dim: int, tr: float) -> np.ndarray:
    """One element of a guarded stack: trace tr within round-off, and at dims above 1
    a lowest eigenvalue in [-POSITIVITY_DRIFT_TOL, POSITIVITY_DRIFT_TOL], in a random basis."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    basis = np.linalg.qr(g)[0]
    spectrum = np.array([tr])
    if dim > 1:
        low, rest = POSITIVITY_DRIFT_TOL * rng.uniform(-0.999, 1.0), rng.uniform(0.0, 1.0, dim - 1)
        spectrum = np.append(low, rest * ((tr - low) / rest.sum()))
    coords = dynamics._to_real((basis * spectrum) @ basis.conj().T)
    return dynamics._guard(np.zeros(1), coords[None], check_trace=False)[0]


def _normalized(normalize, element):
    try:
        return normalize(element).tobytes()
    except ValueError as err:
        return type(err), str(err)


class TestRetrodictiveOperator:
    """The retrodictive route normalizes a guarded element itself where
    normalize_to_retrodictive's checks cannot fail, with its bytes and errors."""

    def test_matches_the_public_normalization(self):
        rng = np.random.default_rng(91)
        # Above twice the trace that takes an eigenvalue of -POSITIVITY_DRIFT_TOL to -RETRODICTIVE_EIG_TOL.
        threshold, floor = 2.0 * POSITIVITY_DRIFT_TOL / RETRODICTIVE_EIG_TOL, NORMALIZE_TRACE_FLOOR
        traces = [threshold * (1.0 + side) for side in (-1e-9, -1e-15, 1e-15, 1e-9)] * 10
        traces += [floor * (1.0 + side) for side in (-1e-9, 0.0, 1e-9)] * 10
        traces += list(rng.uniform(0.1 * threshold, threshold, 100)) + list(10.0 ** rng.uniform(-13.0, 1.0, 200))
        cases = [(tr, _guarded_element(rng, int(rng.integers(1, 5)), tr)) for tr in traces]
        cases += [(floor, np.diag([floor, 0.0]).astype(complex)), (0.0, np.zeros((3, 3), dtype=complex))]
        kinds = []
        for tr, element in cases:
            public = _normalized(lambda e: normalize_to_retrodictive(e).op, element)
            assert _normalized(inference._retrodictive_op, element) == public
            kinds.append("normalized" if isinstance(public, bytes) else "small" if "too small" in public[1] else "negative")
        assert 100 < kinds.count("normalized") and 20 < kinds.count("small") and 20 < kinds.count("negative")
        # Within a tenth of the threshold, dividing by the trace takes an eigenvalue below -RETRODICTIVE_EIG_TOL.
        assert any(kind == "negative" and tr > 0.1 * threshold for (tr, _), kind in zip(cases, kinds))

    def test_a_passing_retrodiction_runs_no_eigensolver(self, monkeypatch):
        scenario = load_scenario(SCENARIOS_DIR / "atom_demo.json")
        calls, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        for outcome in scenario.pom.labels:
            retrodict_preparation_probs(scenario, outcome)
        assert calls == []


class TestPreparationOperators:
    def test_zero_offset_is_prior_weighting(self):
        scenario = demo_scenario(1.0, 1.0)
        ops = preparation_operators(scenario.ensemble, scenario.model, 0.0)
        for op, prior, state in zip(ops, scenario.ensemble.priors, scenario.ensemble.states):
            np.testing.assert_array_equal(op, prior * state.op)

    def test_evolved_operators_keep_total_trace(self):
        scenario = demo_scenario(1.0, 1.0)
        ops = preparation_operators(
            scenario.ensemble, scenario.model, 1.5, IntegratorConfig(500, 50)
        )
        total = sum(np.trace(op).real for op in ops)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_offset(self):
        scenario = demo_scenario(1.0, 1.0)
        with pytest.raises(ValueError, match=">= 0"):
            preparation_operators(scenario.ensemble, scenario.model, -0.5)

    @pytest.mark.parametrize("offset", [True, False, np.True_, "0.5", None, math.nan])
    def test_rejects_a_time_offset_that_is_no_real_number(self, offset):
        scenario = demo_scenario(1.0, 1.0)
        with pytest.raises(ValueError) as err:
            preparation_operators(scenario.ensemble, scenario.model, offset)
        assert str(err.value) == f"time offset t_minus_tp must be a real number >= 0, got {offset!r}"

    def test_rejects_an_ensemble_of_another_dimension(self):
        ensemble = PreparationEnsemble((1.0,), (DensityOperator(np.eye(3) / 3.0),), ("m",))
        with pytest.raises(ValueError) as err:
            preparation_operators(ensemble, two_level_decay_model(1.0), 0.5)
        assert type(err.value) is ValueError and str(err.value) == "operator shape (3, 3) does not match model dimension 2"

    def test_rejects_a_total_trace_off_1(self, monkeypatch):
        scenario = demo_scenario(1.0, 1.0)
        monkeypatch.setattr(inference, "_finals", lambda model, ops, *_, **__: np.asarray(ops) * (1.0 + 2e-8))
        with pytest.raises(IntegrationError) as err:
            preparation_operators(scenario.ensemble, scenario.model, 0.5)
        total = math.fsum(p * (1.0 + 2e-8) for p in scenario.ensemble.priors)
        assert str(err.value) == f"preparation operators sum to trace {total!r}, off beyond 1.0e-08"


class TestPredictOutcomeProbs:
    def test_atom_likelihoods(self):
        gamma = 1.0
        scenario = demo_scenario(gamma, HALF_LIFE_WINDOW)
        table = predict_outcome_probs(scenario, "+")
        expected = 0.5 + 0.5 * math.exp(-gamma * HALF_LIFE_WINDOW / 2.0)
        assert table["+"] == pytest.approx(expected, abs=1e-10)
        assert table["-"] == pytest.approx(1.0 - expected, abs=1e-10)

    def test_collapse_time_choice_is_immaterial(self):
        scenario = demo_scenario(1.0, 1.0)
        at_measurement = predict_outcome_probs(scenario, "+")
        at_preparation = predict_outcome_probs(scenario, "+", collapse_time=0.0)
        midway = predict_outcome_probs(scenario, "+", collapse_time=0.5)
        np.testing.assert_allclose(at_preparation.probs, at_measurement.probs, atol=1e-9)
        np.testing.assert_allclose(midway.probs, at_measurement.probs, atol=1e-9)

    def test_collapse_time_outside_window_rejected(self):
        scenario = demo_scenario(1.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            predict_outcome_probs(scenario, "+", collapse_time=1.5)
        for route in (predict_outcome_probs, bayes_from_predictive):
            with pytest.raises(ValueError, match=r"^collapse time nan outside \[0.0, 1.0\]$"):
                route(scenario, "+", math.nan)

    def test_unknown_label_names_the_alternatives(self):
        scenario = demo_scenario(1.0, 1.0)
        with pytest.raises(ValueError, match=r"known labels: \+, -"):
            predict_outcome_probs(scenario, "up")

    @pytest.mark.parametrize("route", [predict_outcome_probs, bayes_from_predictive])
    @pytest.mark.parametrize("collapse_time", [True, "1.0", np.True_])
    def test_a_collapse_time_that_is_no_real_number_is_refused(self, route, collapse_time):
        with pytest.raises(ValueError) as err:
            route(demo_scenario(1.0, 1.0), "+", collapse_time)
        assert type(err.value) is ValueError and str(err.value) == f"collapse time {collapse_time!r} is not a real number"

    def test_a_numpy_collapse_time_is_a_real_number(self):
        scenario = demo_scenario(1.0, 1.0)
        for t in (np.float64(0.5), np.int64(1)):
            expected = predict_outcome_probs(scenario, "+", float(t)).probs
            np.testing.assert_array_equal(predict_outcome_probs(scenario, "+", t).probs, expected)

    @pytest.mark.parametrize(
        "query, key, message",
        [
            (predict_outcome_probs, 2, "preparation index 2 out of range for 2 entries"),
            (predict_outcome_probs, -1, "preparation index -1 out of range for 2 entries"),
            (retrodict_preparation_probs, 2, "outcome index 2 out of range for 2 entries"),
            (bayes_from_predictive, -1, "outcome index -1 out of range for 2 entries"),
            (predict_outcome_probs, 1.5, "preparation key 1.5 is neither a label nor an integer index"),
            (predict_outcome_probs, 1.0, "preparation key 1.0 is neither a label nor an integer index"),
            (predict_outcome_probs, True, "preparation key True is neither a label nor an integer index"),
            (predict_outcome_probs, np.True_, f"preparation key {np.True_!r} is neither a label nor an integer index"),
            (retrodict_preparation_probs, False, "outcome key False is neither a label nor an integer index"),
        ],
    )
    def test_an_out_of_range_index_is_refused(self, query, key, message):
        with pytest.raises(ValueError) as err:
            query(demo_scenario(1.0, 1.0), key)
        assert type(err.value) is ValueError and str(err.value) == message

    def test_integer_preparation_index(self):
        scenario = demo_scenario(1.0, 1.0)
        by_label = predict_outcome_probs(scenario, "+")
        by_index = predict_outcome_probs(scenario, 0)
        np.testing.assert_array_equal(by_label.probs, by_index.probs)
        by_numpy_index = predict_outcome_probs(scenario, np.int64(1))
        np.testing.assert_array_equal(predict_outcome_probs(scenario, "-").probs, by_numpy_index.probs)


class TestRetrodictPreparationProbs:
    def test_atom_posterior_matches_closed_form(self):
        gamma = 1.0
        for window in (0.5, HALF_LIFE_WINDOW, 3.0):
            scenario = demo_scenario(gamma, window)
            table = retrodict_preparation_probs(scenario, "+")
            expected = analytic_preparation_probability(gamma, window)
            assert table["+"] == pytest.approx(expected, abs=1e-10)

    def test_zero_window_is_certain(self):
        scenario = demo_scenario(1.0, 0.0)
        table = retrodict_preparation_probs(scenario, "+")
        assert table["+"] == pytest.approx(1.0, abs=1e-15)
        assert table["-"] == pytest.approx(0.0, abs=1e-15)

    def test_symmetric_under_outcome_swap(self):
        scenario = demo_scenario(1.0, 1.0)
        plus = retrodict_preparation_probs(scenario, "+")
        minus = retrodict_preparation_probs(scenario, "-")
        assert plus["+"] == pytest.approx(minus["-"], abs=1e-12)

    def test_preparation_time_translation_invariance(self):
        gamma, window = 1.0, 1.0
        at_origin = retrodict_preparation_probs(demo_scenario(gamma, window), "+")
        shifted = retrodict_preparation_probs(_shifted_demo(gamma, window, t_p=4.0), "+")
        np.testing.assert_allclose(shifted.probs, at_origin.probs, atol=1e-12)

    @pytest.mark.parametrize("route", [retrodict_preparation_probs, bayes_from_predictive])
    def test_impossible_outcome_rejected(self, route):
        ensemble = PreparationEnsemble((1.0,), (DensityOperator(GROUND),), ("g",))
        pom = Pom((EXCITED, GROUND), ("e", "g"))
        model = two_level_decay_model(1.0)
        scenario = Scenario(model, ensemble, pom, t_p=0.0, t_m=0.0)
        with pytest.raises(ValueError) as err:
            route(scenario, "e")
        assert type(err.value) is ValueError and str(err.value) == "outcome is impossible under every preparation in the ensemble"


class TestBayesFromPredictive:
    def test_atom_posterior_matches_closed_form(self):
        gamma = 1.0
        scenario = demo_scenario(gamma, HALF_LIFE_WINDOW)
        table = bayes_from_predictive(scenario, "+")
        assert table["+"] == pytest.approx(0.75, abs=1e-10)

    def test_uneven_priors_reweight_posterior(self):
        base = demo_scenario(1.0, 1.0)
        ensemble = PreparationEnsemble(
            (0.9, 0.1), base.ensemble.states, base.ensemble.labels
        )
        scenario = Scenario(base.model, ensemble, base.pom, 0.0, 1.0, base.integrator)
        even = bayes_from_predictive(base, "+")["+"]
        skewed = bayes_from_predictive(scenario, "+")["+"]
        assert skewed > even

    def test_agrees_with_retrodictive_route(self):
        rng = np.random.default_rng(31)
        config = IntegratorConfig(500, 50)
        for _ in range(3):
            model = random_model(rng, dim=3)
            n_prep = 3
            priors = rng.dirichlet(np.ones(n_prep))
            states = tuple(DensityOperator(random_density(rng, 3)) for _ in range(n_prep))
            ensemble = PreparationEnsemble(tuple(priors), states, ("a", "b", "c"))
            pom = Pom(tuple(random_pom_elements(rng, 3, 2)), ("x", "y"))
            scenario = Scenario(model, ensemble, pom, 0.0, 0.6, config)
            direct = retrodict_preparation_probs(scenario, "x")
            bayes = bayes_from_predictive(scenario, "x")
            np.testing.assert_allclose(direct.probs, bayes.probs, atol=1e-9)

    def test_matches_the_per_preparation_route(self):
        """One batched forward run gives what one predict_outcome_probs call per preparation gives."""
        rng = np.random.default_rng(32)
        for _ in range(10):
            scenario = random_scenario(rng, max_window=2.0)
            for j in range(len(scenario.pom)):
                t = float(rng.uniform(scenario.t_p, scenario.t_m))
                likelihoods = np.array(
                    [predict_outcome_probs(scenario, i, t).probs[j] for i in range(len(scenario.ensemble))]
                )
                raw = likelihoods * np.asarray(scenario.ensemble.priors)
                batched = bayes_from_predictive(scenario, j, t)
                assert np.max(np.abs(batched.probs - raw / raw.sum())) <= 1e-12


class TestCollapseTimeSweep:
    def test_pairing_constant_across_window(self):
        scenario = demo_scenario(1.0, 1.0)
        points = collapse_time_sweep(scenario, "+", "+", 5)
        values = [p for _, p in points]
        assert max(values) - min(values) < 1e-10

    def test_times_span_the_window(self):
        scenario = _shifted_demo(1.0, 1.0, t_p=2.0)
        points = collapse_time_sweep(scenario, "+", "+", 4)
        np.testing.assert_allclose([t for t, _ in points], np.linspace(2.0, 3.0, 4))

    def test_value_is_the_joint_pairing(self):
        gamma, window = 1.0, 1.0
        scenario = demo_scenario(gamma, window)
        points = collapse_time_sweep(scenario, "+", "+", 3)
        expected = 0.5 + 0.5 * math.exp(-gamma * window / 2.0)
        for _, value in points:
            assert value == pytest.approx(expected, abs=1e-10)

    def test_requires_at_least_two_points(self):
        scenario = demo_scenario(1.0, 1.0)
        with pytest.raises(ValueError, match="at least 2"):
            collapse_time_sweep(scenario, "+", "+", 1)

    @pytest.mark.parametrize("n_times", [5.0, True, np.True_, "5", None])
    def test_n_times_must_be_an_integer(self, n_times):
        with pytest.raises(ValueError) as err:
            collapse_time_sweep(demo_scenario(1.0, 1.0), "+", "+", n_times)
        assert type(err.value) is ValueError
        assert str(err.value) == f"number of collapse times n_times must be an integer, got {n_times!r}"

    def test_a_numpy_integer_n_times_is_accepted(self):
        scenario = demo_scenario(1.0, 1.0)
        assert collapse_time_sweep(scenario, "+", "+", np.int64(3)) == collapse_time_sweep(scenario, "+", "+", 3)

    @pytest.mark.parametrize(
        "dim, most",
        [(2, int(MAX_RK4_STEPS)), (64, int(MAX_RECORDED_BYTES) // (64 * 64 * 16))],  # steps bind, then bytes
    )
    def test_n_times_is_bounded_before_anything_is_allocated(self, dim, most, monkeypatch):
        ground = np.zeros((dim, dim))
        ground[0, 0] = 1.0
        ensemble = PreparationEnsemble((1.0,), (DensityOperator(ground),), ("0",))
        scenario = Scenario(LindbladModel(dim, np.zeros((dim, dim))), ensemble, Pom((np.eye(dim),), ("any",)), 0.0, 1.0)
        monkeypatch.setattr(np, "linspace", _refuse_to_allocate)
        with pytest.raises(ValueError, match=f"^{most + 1} collapse times exceed the work budget of 1e\\+07 RK4 steps and "):
            collapse_time_sweep(scenario, 0, 0, most + 1)
        with pytest.raises(AssertionError, match="allocated"):
            collapse_time_sweep(scenario, 0, 0, most)

    @pytest.mark.parametrize(
        "n_times, start",
        [
            (10**400, "1.000e+400 collapse times exceed the work budget of 1e+07 RK4 steps and "),
            (-(10**400), "need at least 2 collapse times, got -1.000e+400"),
            (-(10**5000), "need at least 2 collapse times, got -1.000e+5000"),  # past int-to-str's digit limit
        ],
        ids=["over-the-budget", "negative", "negative-past-the-str-digit-limit"],
    )
    def test_a_huge_n_times_is_refused_in_a_bounded_message(self, n_times, start):
        with pytest.raises(ValueError) as err:
            collapse_time_sweep(demo_scenario(1.0, 1.0), "+", "+", n_times)
        assert str(err.value).startswith(start) and len(str(err.value)) < 200

    def test_matches_independent_integration_per_point(self):
        """Chaining from point to point matches integrating from t_p and from t_m anew for every point."""
        rng = np.random.default_rng(33)
        for _ in range(20):
            scenario = random_scenario(rng)
            i = int(rng.integers(0, len(scenario.ensemble)))
            j = int(rng.integers(0, len(scenario.pom)))
            model, config = scenario.model, scenario.integrator
            for t, value in collapse_time_sweep(scenario, i, j, 5):
                rho_t = evolve_predictive(model, scenario.ensemble.states[i], t - scenario.t_p, config).final
                pi_t = evolve_pom_backward(model, scenario.pom.elements[j], scenario.t_m - t, config).final
                assert abs(value - trace(rho_t @ pi_t).real) <= 1e-10


def _refuse_to_allocate(*args, **kwargs):
    raise AssertionError("the collapse times were allocated")


def _per_segment_chain(scenario, op, segments, backward):
    """The chain as one guarded run per segment, each from the last one's final."""
    points = []
    for segment in segments:
        mode = "pom-backward" if backward else "predictive"
        run = dynamics.Trajectory(*dynamics._run(scenario.model, mode, op, [float(segment)], scenario.integrator)[:2])
        points.append(run.states[0])
        op = run.final
    return np.array([*points, op])


def _closed_qubit(t_p, t_m):
    """H = 0 and no jumps, so only a patched generator moves anything; the
    mixed preparation and the "+" outcome."""
    ensemble = PreparationEnsemble((0.5, 0.5), (DensityOperator(np.eye(2) / 2.0), DensityOperator(EXCITED)), ("o", "e"))
    pom = Pom((PLUS, np.eye(2) - PLUS), ("+", "-"))
    return Scenario(LindbladModel(2, np.zeros((2, 2)), ()), ensemble, pom, t_p, t_m, IntegratorConfig(400, 40))


def _anti_dissipator(rate, pauli):
    """The generator of X -> rate (X - P X P): trace-preserving and
    Hermiticity-preserving, but not positive."""
    return rate * (np.eye(4) - np.kron(pauli, pauli))


def _flat_rhs(matrix):
    """An operator-form right-hand side that applies matrix to row-major-flattened operators."""
    return lambda model, ops: (ops.reshape(*ops.shape[:-2], -1) @ matrix.T).reshape(ops.shape)


class TestCollapseTimeChains:
    """Each direction of a sweep is one chain of segments, guarded in one pass."""

    def test_values_match_a_per_segment_evolve_reference_bit_for_bit(self):
        # A window of 0.3 in 10 segments: ulp-different segments take 30 or 31 steps.
        rng = np.random.default_rng(63)
        for _ in range(4):
            base = random_scenario(rng)
            scenario = Scenario(base.model, base.ensemble, base.pom, 0.0, 0.3, IntegratorConfig(1000, 10))
            for i, j in ((0, 0), (1, len(scenario.pom) - 1)):
                times = np.linspace(0.0, 0.3, 11)
                segments = np.diff(times)
                forward = _per_segment_chain(scenario, scenario.ensemble.states[i].op, segments, backward=False)
                backward = _per_segment_chain(scenario, scenario.pom.elements[j], segments[::-1], backward=True)
                expected = trace(forward @ backward[::-1]).real.tolist()
                assert [p for _, p in collapse_time_sweep(scenario, i, j, 11)] == expected

    def test_one_cholesky_per_chain_direction(self, monkeypatch):
        scenario = demo_scenario(1.0, 1.0)
        blocks = []
        for name in ("cholesky", "eigvalsh"):
            solve = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, solve=solve: blocks.append((name, a.shape)) or solve(a))
        collapse_time_sweep(scenario, "+", "-", 5)
        # 4 segments of 250 steps, each recorded every 10th step after the start.
        assert blocks == [("cholesky", (101, 2, 2)), ("cholesky", (101, 2, 2))]

    def test_a_sweep_integrates_once_per_direction(self, monkeypatch):
        built, segments = [], []
        integrate = dynamics.rk4_integrate

        class CountingTrajectory(dynamics.Trajectory):
            def __post_init__(self):
                built.append(len(self.times))
                super().__post_init__()

        def counting_integrate(rhs, x0, duration, *args, **kwargs):
            segments.append(len(duration))
            return integrate(rhs, x0, duration, *args, **kwargs)

        monkeypatch.setattr(dynamics, "Trajectory", CountingTrajectory)
        monkeypatch.setattr(dynamics, "rk4_integrate", counting_integrate)
        collapse_time_sweep(demo_scenario(1.0, 1.0), "+", "-", 5)
        # Each direction: one run over the 4 segments of 250 steps, recorded every 10th step.
        assert segments == [4, 4] and built == [101, 101]

    def test_a_failed_run_costs_at_most_one_pass_more(self):
        calls = []

        def counting(rhs, h):
            advance = dynamics._staged(rhs, h)
            return lambda x, m: calls.append(m) or advance(x, m)

        # 25 and 30 steps, recorded every 10th step and at the end: 3 + 3 records after the start.
        config, segments = IntegratorConfig(100, 10), [0.25, 0.0, 0.3]
        run = dynamics.rk4_integrate(lambda v: -v, np.ones(1), segments, config, _advance=counting)
        assert len(run) == 7 and len(calls) == 6  # one advance per record
        calls.clear()
        # Growing by about 1.65 per step from 1e300, the sum of a step's stages overflows 28 steps in.
        with pytest.raises(IntegrationError, match="^non-finite state at step 3 of 30$") as err:
            dynamics.rk4_integrate(lambda v: 50.0 * v, np.array([1e300]), segments, config, _advance=counting)
        k, finite = err.value.step, len(err.value.trajectory)
        # The full pass, then the replay: each record up to the failing one, and single steps from the last to k.
        assert len(calls) <= 6 + finite + k - (k - 1) // 10 * 10

    @pytest.mark.parametrize(
        "drift, failure",
        [
            # Forward, the trace grows as exp(eps t): it passes 1e-8 at t - t_p = 0.55.
            (1e-8 / 0.55 * np.eye(4), r"trace off by 1\.09\de-08"),
            # Backward, eps (X - Z X Z) takes an eigenvalue of the "+" outcome to
            # about -eps (t_m - t): below -1e-7 after 0.55; the mixed state stays put.
            (_anti_dissipator(1e-7 / 0.55, np.diag([1.0, -1.0])), r"eigenvalue -1\.09\de-07 below -1\.0e-07"),
        ],
    )
    def test_guard_failure_names_the_time_along_the_chain(self, drift, failure, monkeypatch):
        # Segments of 0.25 recorded every 0.1: the first record past 0.55 is
        # 0.6 along the chain, 0.1 into the third segment, at t = 1.6 or 1.4.
        monkeypatch.setattr(dynamics, "_lindblad", _flat_rhs(drift))
        with pytest.raises(IntegrationError, match=f"^{failure} at time 0\\.6; step size too coarse$"):
            collapse_time_sweep(_closed_qubit(1.0, 2.0), "o", "+", 5)

    def test_an_earlier_guard_failure_wins_over_a_later_overflow(self, monkeypatch):
        # 100 (X - sigma_x X sigma_x) takes an eigenvalue of the excited
        # state to (1 - exp(200 t)) / 2 at once; the state overflows near
        # t = 3.5, in the second of the segments of 2.5.
        drift = _anti_dissipator(100.0, np.array([[0.0, 1.0], [1.0, 0.0]]))
        monkeypatch.setattr(dynamics, "_lindblad", _flat_rhs(drift))
        with pytest.raises(IntegrationError, match=r" at time 0\.1; step size too coarse$"):
            collapse_time_sweep(_closed_qubit(0.0, 10.0), "e", "+", 5)


def _queries_and_sweep(scenario):
    return [
        retrodict_preparation_probs(scenario, 0).probs.tobytes(),
        bayes_from_predictive(scenario, 1).probs.tobytes(),
        collapse_time_sweep(scenario, 0, 1, 11),
    ]


def _fresh(scenario):
    """The same scenario on a model of its own, which holds no step plan yet."""
    model = LindbladModel(scenario.model.dim, scenario.model.hamiltonian, scenario.model.jump_ops)
    return Scenario(model, scenario.ensemble, scenario.pom, scenario.t_p, scenario.t_m, scenario.integrator)


class TestHeldStepPlans:
    def _scenario(self):
        base = random_scenario(np.random.default_rng(64), dim=3)
        return Scenario(base.model, base.ensemble, base.pom, 0.0, 0.3, IntegratorConfig(1000, 10))

    def test_a_repeated_query_or_sweep_builds_no_step_plan(self, monkeypatch):
        builds = {"identity steps": 0, "powers": 0}
        step, power = dynamics._rk4_step, dynamics._power_increment

        def counting_step(*args):
            builds["identity steps"] += 1
            return step(*args)

        def counting_power(*args):
            builds["powers"] += 1
            return power(*args)

        monkeypatch.setattr(dynamics, "_rk4_step", counting_step)
        monkeypatch.setattr(dynamics, "_power_increment", counting_power)
        scenario = self._scenario()
        first = _queries_and_sweep(scenario)
        assert builds["identity steps"] > 0 and builds["powers"] > 0
        builds.update({"identity steps": 0, "powers": 0})
        collapse_time_sweep(_fresh(scenario), 0, 1, 11)
        # Two chains of 10 segments: one plan per distinct step size, not per segment.
        assert 2 <= builds["identity steps"] < 10
        builds.update({"identity steps": 0, "powers": 0})
        assert _queries_and_sweep(scenario) == first
        assert builds == {"identity steps": 0, "powers": 0}

    @pytest.mark.parametrize("plans", [None, 0.5, 1, 2.5])
    def test_held_plans_give_the_results_of_a_fresh_model_byte_for_byte(self, plans, monkeypatch):
        # dim 3: each plan is one 9 x 9 real matrix of 648 bytes.
        if plans is not None:
            monkeypatch.setattr(dynamics, "MAX_GENERATOR_BYTES", plans * 9 * 9 * 8)
        scenario = self._scenario()
        for _ in range(2):
            assert _queries_and_sweep(scenario) == _queries_and_sweep(_fresh(scenario))
            held = sum(inc.nbytes for inc in vars(scenario.model)["_plans"].values())
            assert held <= dynamics.MAX_GENERATOR_BYTES

    def test_many_distinct_collapse_times_hold_at_most_the_plan_bound(self):
        scenario = self._scenario()
        window = scenario.t_m - scenario.t_p
        for k in range(1000):
            predict_outcome_probs(scenario, 0, scenario.t_p + window * (k + 1) / 1001)
        assert 0 < len(vars(scenario.model)["_plans"]) <= dynamics.MAX_HELD_PLANS

    def test_the_least_recently_used_plan_is_dropped_first(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_HELD_PLANS", 3)
        model = self._scenario().model
        for h in (1.0, 2.0, 3.0, 1.0, 4.0):
            dynamics._plan(model, False, np.zeros_like, h, 1, 9)
        assert [h for _, h, _ in vars(model)["_plans"]] == [3.0, 1.0, 4.0]

    def test_the_least_recently_used_plans_are_dropped_until_a_new_one_fits_the_bytes(self, monkeypatch):
        # dim 3: each plan is one 9 x 9 real matrix of 648 bytes.
        monkeypatch.setattr(dynamics, "MAX_GENERATOR_BYTES", 2.5 * 9 * 9 * 8)
        model = self._scenario().model
        for h in (1.0, 2.0, 3.0):
            dynamics._plan(model, False, np.zeros_like, h, 1, 9)
        assert [h for _, h, _ in vars(model)["_plans"]] == [2.0, 3.0]
        # A plan larger than the whole budget is not held and drops none.
        big = dynamics._plan(model, False, np.zeros_like, 4.0, 1, 18)
        assert big.shape == (18, 18) and big.flags.writeable
        assert [h for _, h, _ in vars(model)["_plans"]] == [2.0, 3.0]

    def test_a_query_builds_one_trajectory_per_run(self, monkeypatch):
        built = []

        class CountingTrajectory(dynamics.Trajectory):
            def __post_init__(self):
                built.append(len(self.times))
                super().__post_init__()

        monkeypatch.setattr(dynamics, "Trajectory", CountingTrajectory)
        bayes_from_predictive(self._scenario(), 0)
        assert len(built) == 1  # the preparations forward; the outcome operators' run has length 0

    @pytest.mark.parametrize("backward", [False, True])
    def test_a_zero_length_run_is_the_guarded_one_without_an_integration(self, backward, monkeypatch):
        scenario = self._scenario()
        ops = list(scenario.pom.elements) if backward else [state.op for state in scenario.ensemble.states]
        mode = "pom-backward" if backward else "predictive"
        guarded = dynamics._run(scenario.model, mode, ops, [0.0], scenario.integrator)[1][-1]
        monkeypatch.setattr(dynamics, "rk4_integrate", _refuse_to_integrate)
        monkeypatch.setattr(inference, "_run", _refuse_to_integrate)
        assert inference._finals(scenario.model, ops, 0.0, scenario.integrator, backward).tobytes() == guarded.tobytes()


def _refuse_to_integrate(*args, **kwargs):
    raise AssertionError("a zero-length run was integrated or guarded")


class TestOutcomePairing:
    def test_raw_sum_reason_is_a_plain_number(self):
        states = np.array([EXCITED])
        elements = np.array([(1.0 + 1e-6) * EXCITED, GROUND])
        with pytest.raises(IntegrationError, match=r"^raw outcome probabilities sum to 1\.000001, off beyond 1\.0e-07$"):
            inference._outcome_probs(states, elements)

    def test_first_failing_state_raises(self):
        # EXCITED pairs to a sum off 1, GROUND to a negative probability.
        elements = np.array([(1.0 + 1e-6) * EXCITED - 1e-3 * GROUND, GROUND])
        with pytest.raises(IntegrationError, match="sum to 1.000001"):
            inference._outcome_probs(np.array([EXCITED, GROUND]), elements)
        with pytest.raises(IntegrationError, match="outcome probability -1.000e-03 is more negative"):
            inference._outcome_probs(np.array([GROUND, EXCITED]), elements)

    def test_a_nan_pairing_raises(self):
        # NaN fails every comparison, so each check is written to pass only a number in range.
        elements = np.array([math.nan * EXCITED, GROUND])
        with pytest.raises(IntegrationError, match="^outcome probability nan is more negative"):
            inference._outcome_probs(np.array([EXCITED]), elements)
        with pytest.raises(IntegrationError, match="^preparation weight nan is more negative"):
            inference._clamp_raw(np.array([0.5, math.nan]), "preparation weight")

    @pytest.mark.parametrize("dim", [2, 3, 9])
    def test_broadcast_pairings_match_the_per_pair_loop_bit_for_bit(self, dim):
        # Three preparations and three outcomes; at dim 9 a trace sums more than 8 entries.
        rng = np.random.default_rng(53)
        ensemble = PreparationEnsemble(
            (0.2, 0.3, 0.5), tuple(DensityOperator(random_density(rng, dim)) for _ in range(3)), ("a", "b", "c")
        )
        pom = Pom(tuple(random_pom_elements(rng, dim, 3)), ("x", "y", "z"))
        scenario = Scenario(random_model(rng, dim=dim), ensemble, pom, 0.0, 0.4, IntegratorConfig(200, 20))
        config = scenario.integrator
        states = inference._finals(scenario.model, [st.op for st in ensemble.states], 0.25, config, backward=False)
        elements = inference._finals(scenario.model, pom.elements, 0.4 - 0.25, config, backward=True)
        for row, rho in zip(inference._likelihoods(scenario, range(3), 0.25), states):
            raw = np.array([trace(rho @ pi).real for pi in elements])
            assert row.tobytes() == (raw / raw.sum()).tobytes()

        (element,) = inference._finals(scenario.model, [pom.elements[1]], 0.4, config, backward=True)
        rho_retr = normalize_to_retrodictive(element).op
        raw = np.array([trace(rho_retr @ lam).real for lam in preparation_operators(ensemble, scenario.model, 0.0)])
        assert retrodict_preparation_probs(scenario, 1).probs.tobytes() == (raw / raw.sum()).tobytes()

        segments = np.diff(np.linspace(0.0, 0.4, 5))
        _, forward, ends = dynamics._run(scenario.model, "predictive", ensemble.states[0].op, segments, scenario.integrator)
        forward = forward[ends]
        _, backward, ends = dynamics._run(scenario.model, "pom-backward", pom.elements[2], segments[::-1], scenario.integrator)
        backward = backward[ends][::-1]
        expected = [trace(rho @ pi).real for rho, pi in zip(forward, backward)]
        assert [p for _, p in collapse_time_sweep(scenario, 0, 2, 5)] == expected


def _refuse_to_build(model, *ops):
    raise AssertionError("a zero-length evolution built a generator")


def test_zero_window_builds_no_generator(monkeypatch):
    for name in ("predictive_generator", "pom_backward_generator", "_lindblad"):
        monkeypatch.setattr(dynamics, name, _refuse_to_build)
    scenario = demo_scenario(1.0, 0.0)
    assert retrodict_preparation_probs(scenario, "+")["+"] == pytest.approx(1.0, abs=1e-15)
    assert bayes_from_predictive(scenario, "+")["+"] == pytest.approx(1.0, abs=1e-15)
    assert [p for _, p in collapse_time_sweep(scenario, "+", "+", 3)] == pytest.approx([1.0] * 3, abs=1e-15)


def test_one_generator_per_model(monkeypatch):
    builds, rhs = [], dynamics._lindblad

    def counting(model, ops):
        builds.append(model)
        return rhs(model, ops)

    monkeypatch.setattr(dynamics, "_lindblad", counting)
    scenario = demo_scenario(1.0, 0.5)
    for _ in range(2):
        retrodict_preparation_probs(scenario, "+")
        bayes_from_predictive(scenario, "-")
        collapse_time_sweep(scenario, "+", "-", 5)
    # One build, which applies the right-hand side to d blocks of d basis operators.
    assert builds == [scenario.model] * scenario.model.dim


def _refuse_reference_build(model):
    raise AssertionError("a production path built a complex reference generator")


def test_no_evolution_builds_a_complex_reference_generator(monkeypatch):
    monkeypatch.setattr(dynamics, "predictive_generator", _refuse_reference_build)
    monkeypatch.setattr(dynamics, "pom_backward_generator", _refuse_reference_build)
    scenario = demo_scenario(1.0, 0.5)
    model, config, plus = scenario.model, scenario.integrator, scenario.ensemble.states[0]
    assert len(dynamics.evolve_predictive(model, plus, 0.5, config)) > 1
    assert len(dynamics.evolve_pom_backward(model, scenario.pom.elements[0], 0.5, config)) > 1
    assert len(dynamics.evolve_retrodictive(model, plus, 0.5, config)) > 1
    assert retrodict_preparation_probs(scenario, "+").probs.sum() == pytest.approx(1.0)
    assert bayes_from_predictive(scenario, "-").probs.sum() == pytest.approx(1.0)
    assert len(collapse_time_sweep(scenario, "+", "-", 5)) == 5
