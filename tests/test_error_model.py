import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpbsim import (
    Bb84State,
    CountsRecord,
    ErrorModelParams,
    FitOptions,
    ProbeConfig,
    SiftBasis,
    fit_parameters,
    load_reference_counts,
    measured_renyi,
    model_renyi,
    model_sifted_error_rate,
    noise_free_counts,
    predict_outcome_probs,
    read_counts_file,
    reference_counts_path,
    renyi_closed_form,
    sifted_error_rate,
    simulate_counts,
)
from fpbsim.error_model import (
    _make_objective,
    bob_analyzer,
    nonideal_alice_state,
    nonideal_pcnot,
    nonideal_probe_state,
)

from fpbsim.cli import main

from conftest import (
    FRAME_DEG,
    analytic_probs,
    frame,
    residuals_oracle,
    trf_fit_oracle,
)

PE_POINTS = (0.0, 0.1, 1 / 3)
EXAMPLE_PARAMS = str(reference_counts_path().parent / "example_params.json")

#: CNOT in the control-major amplitude ordering (flips target iff control=1).
CNOT = np.array(
    [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
)

#: Any angle inside the open parameter box |angle| < pi/2.
IN_BOX = st.floats(
    -math.pi / 2, math.pi / 2, exclude_min=True, exclude_max=True
)
ANY_PARAMS = st.lists(IN_BOX, min_size=10, max_size=10).map(
    ErrorModelParams.from_vector
)
ANY_PE = st.floats(0.0, 0.5)


def synth_records(params, n_pairs, seed=None):
    """Records for every (state, basis, pe) combination; noise-free if unseeded."""
    records = []
    seeds = iter(np.random.SeedSequence(seed).generate_state(24, np.uint64))
    for state in Bb84State:
        for basis in SiftBasis:
            for pe in PE_POINTS:
                probs = predict_outcome_probs(params, state, basis, ProbeConfig(pe))
                if seed is None:
                    counts = noise_free_counts(probs, n_pairs)
                else:
                    counts = simulate_counts(probs, n_pairs, int(next(seeds)))
                records.append(CountsRecord(state, basis, pe, counts))
    return records


def seeded_truth(tag: str, span_deg: float) -> ErrorModelParams:
    """Ten angles drawn uniform in +-``span_deg`` from ``random.Random(tag)``."""
    rng = random.Random(tag)
    return ErrorModelParams.from_vector(
        [math.radians(rng.uniform(-span_deg, span_deg)) for _ in range(10)]
    )


def recovered(x: np.ndarray, residual: float, truth: ErrorModelParams) -> bool:
    """A fit found ``truth``: residual <= 1e-12 and every angle within
    1e-3 deg of the truth's alpha >= 0 representative."""
    if truth.alpha < 0.0:
        truth = mirror(truth)
    err_deg = np.degrees(np.abs(x - truth.as_vector()))
    return residual <= 1e-12 and bool(np.max(err_deg) <= 1e-3)


def mirror(params: ErrorModelParams) -> ErrorModelParams:
    """Conjugation-symmetric twin: negate both phases, alpha, and delta."""
    return ErrorModelParams(
        d_xi=-params.d_xi,
        d_chi=-params.d_chi,
        d_theta_a=params.d_theta_a,
        alpha=-params.alpha,
        delta=-params.delta,
        d_theta_b=params.d_theta_b,
    )


class TestParams:
    def test_serialization_round_trip(self, ref_params):
        doc = ref_params.to_dict()
        assert doc["alpha"] == pytest.approx(12.3, abs=1e-12)
        assert doc["d_theta_b_hv"] == pytest.approx(-1.8, abs=1e-12)
        restored = ErrorModelParams.from_dict(doc)
        np.testing.assert_allclose(
            restored.as_vector(), ref_params.as_vector(), atol=1e-15
        )

    def test_from_dict_ignores_extra_and_requires_all_keys(self):
        doc = ErrorModelParams().to_dict()
        doc["residual"] = 1.0
        ErrorModelParams.from_dict(doc)
        del doc["alpha"]
        with pytest.raises(ValueError, match="missing keys"):
            ErrorModelParams.from_dict(doc)

    def test_box_constraint(self):
        with pytest.raises(ValueError, match="pi/2"):
            ErrorModelParams(alpha=math.pi / 2)
        with pytest.raises(ValueError, match="finite"):
            ErrorModelParams(d_xi=float("nan"))

    def test_offset_lookup(self, ref_params):
        assert ref_params.theta_a_offset(Bb84State.H) == math.radians(3.2)
        assert ref_params.theta_a_offset(Bb84State.A) == math.radians(-2.3)
        assert ref_params.theta_b_offset(SiftBasis.DA) == 0.0


class TestNonidealStates:
    def test_probe_zero_residual_matches_ideal(self):
        cfg = ProbeConfig(0.1)
        got = nonideal_probe_state(cfg, 0.0)
        want = ((cfg.c + cfg.s) / math.sqrt(2.0), (cfg.c - cfg.s) / math.sqrt(2.0))
        assert abs(got[0] - want[0]) < 1e-15 and abs(got[1] - want[1]) < 1e-15

    def test_probe_quarter_phase(self):
        got = nonideal_probe_state(ProbeConfig(0.1), math.pi / 2)
        assert abs(got[0] - 0.9486832980505138) < 1e-15
        assert abs(got[1] - 0.31622776601683793j) < 1e-15

    def test_probe_norm_for_any_phase(self):
        cfg = ProbeConfig(0.2)
        for d_xi in np.linspace(-math.pi, math.pi, 9):
            probe = nonideal_probe_state(cfg, d_xi)
            assert abs(np.sum(np.abs(probe) ** 2) - 1.0) < 1e-12

    def test_alice_reduces_to_frame(self):
        got = nonideal_alice_state(Bb84State.D, 0.0, 0.0)
        theta = Bb84State.D.theta
        assert got[0] == math.cos(theta) and got[1] == math.sin(theta)

    def test_alice_angle_addition(self):
        got = nonideal_alice_state(Bb84State.H, math.radians(3.2), 0.0)
        theta = math.radians(-19.3)
        assert abs(got[0] - math.cos(theta)) < 1e-12
        assert abs(got[1] - math.sin(theta)) < 1e-12

    def test_alice_norm(self):
        for state in Bb84State:
            vec = nonideal_alice_state(state, 0.3, -1.1)
            assert abs(np.sum(np.abs(vec) ** 2) - 1.0) < 1e-12


class TestNonidealGate:
    def test_reduces_to_cnot(self):
        np.testing.assert_allclose(nonideal_pcnot(0.0, 0.0), CNOT, atol=1e-15)

    def test_quarter_imbalance_flips_control_zero_block(self):
        gate = nonideal_pcnot(math.pi / 2, 0.0)
        np.testing.assert_allclose(
            gate[:2, :2], 1j * np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-15
        )

    def test_unitary_for_random_angles(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            alpha, delta = rng.uniform(-math.pi, math.pi, size=2)
            gate = nonideal_pcnot(alpha, delta)
            np.testing.assert_allclose(
                gate.conj().T @ gate, np.eye(4), atol=1e-12
            )

    def test_fitted_angles_unitary(self, ref_params):
        gate = nonideal_pcnot(ref_params.alpha, ref_params.delta)
        np.testing.assert_allclose(gate.conj().T @ gate, np.eye(4), atol=1e-12)


class TestBobAnalyzer:
    def test_perfect_analyzer_matches_basis_states(self):
        for basis in SiftBasis:
            bit0, bit1 = bob_analyzer(basis, 0.0)
            want0, want1 = (frame(FRAME_DEG[s]) for s in basis.states)
            np.testing.assert_allclose(bit0, want0, atol=1e-15)
            np.testing.assert_allclose(bit1, want1, atol=1e-15)

    def test_offset_rotates_analyzer(self):
        bit0, _ = bob_analyzer(SiftBasis.HV, math.radians(-1.8))
        theta = math.radians(20.7)
        assert abs(bit0[0] - math.cos(theta)) < 1e-12
        assert abs(bit0[1] + math.sin(theta)) < 1e-12

    def test_analyzer_states_orthonormal_for_any_offset(self):
        for offset in np.linspace(-0.5, 0.5, 7):
            bit0, bit1 = bob_analyzer(SiftBasis.DA, offset)
            assert abs(np.vdot(bit0, bit1)) < 1e-12
            assert abs(np.vdot(bit0, bit0) - 1.0) < 1e-12


class TestForwardModel:
    def test_zero_params_match_reference_expected(self, ideal_expected):
        zero = ErrorModelParams()
        for (alice, pe), want in ideal_expected.items():
            probs = predict_outcome_probs(
                zero, Bb84State(alice), SiftBasis.DA, ProbeConfig(pe)
            )
            np.testing.assert_allclose(probs, want, atol=5e-4)

    def test_zero_params_reduce_to_ideal_everywhere(self):
        zero = ErrorModelParams()
        for state in Bb84State:
            for basis in SiftBasis:
                for pe in np.linspace(0.0, 0.5, 11):
                    got = predict_outcome_probs(
                        zero, state, basis, ProbeConfig(pe)
                    )
                    want = analytic_probs(state, basis, pe)
                    np.testing.assert_allclose(got, want, atol=1e-10)

    @settings(derandomize=True, deadline=None)
    @given(
        params=ANY_PARAMS,
        state=st.sampled_from(Bb84State),
        basis=st.sampled_from(SiftBasis),
        pe=ANY_PE,
    )
    def test_probabilities_normalized_for_random_params(self, params, state, basis, pe):
        probs = predict_outcome_probs(params, state, basis, ProbeConfig(pe))
        assert np.all(probs >= 0.0)
        assert abs(probs.sum() - 1.0) < 1e-10

    def test_reference_params_near_measured_row(self, ref_params):
        probs = predict_outcome_probs(
            ref_params, Bb84State.D, SiftBasis.DA, ProbeConfig(0.1)
        )
        np.testing.assert_allclose(
            probs, [0.058, 0.086, 0.196, 0.661], atol=0.05
        )

    @settings(derandomize=True, deadline=None)
    @given(
        params=ANY_PARAMS,
        state=st.sampled_from(Bb84State),
        basis=st.sampled_from(SiftBasis),
        pe=ANY_PE,
    )
    def test_conjugation_symmetry(self, params, state, basis, pe):
        cfg = ProbeConfig(pe)
        a = predict_outcome_probs(params, state, basis, cfg)
        b = predict_outcome_probs(mirror(params), state, basis, cfg)
        np.testing.assert_allclose(a, b, atol=1e-14)


class TestModelSummaries:
    def test_zero_params_renyi_matches_closed_form(self):
        zero = ErrorModelParams()
        for basis in SiftBasis:
            for pe in np.linspace(0.0, 1 / 3, 18):
                got = model_renyi(zero, basis, ProbeConfig(float(pe)))
                assert abs(got - renyi_closed_form(float(pe))) < 1e-10

    def test_reference_params_renyi_near_limit(self, ref_params):
        values = [
            model_renyi(ref_params, basis, ProbeConfig(1 / 3)) for basis in SiftBasis
        ]
        assert abs(sum(values) / 2 - 0.90) < 0.07

    def test_imperfect_gate_leaks_at_zero(self, ref_params):
        for basis in SiftBasis:
            assert model_renyi(ref_params, basis, ProbeConfig(0.0)) > 0.0

    def test_zero_params_error_rate_equals_pe(self):
        zero = ErrorModelParams()
        for basis in SiftBasis:
            for pe in PE_POINTS:
                got = model_sifted_error_rate(zero, basis, ProbeConfig(pe))
                assert abs(got - pe) < 1e-12

    @settings(derandomize=True, deadline=None)
    @given(
        params=ANY_PARAMS,
        basis=st.sampled_from(SiftBasis),
        pe=st.floats(0.0, 1 / 3),
    )
    def test_noise_free_counts_measure_the_model(self, params, basis, pe):
        # Counts and model go through the same sift reduction, so counts
        # rounded at 10**12 pairs reproduce the model's summaries.
        cfg = ProbeConfig(pe)
        try:
            want_renyi = model_renyi(params, basis, cfg)
        except ValueError as exc:
            assert "no error-free sift events" in str(exc)
            return
        pair = [
            CountsRecord(
                state,
                basis,
                pe,
                noise_free_counts(
                    predict_outcome_probs(params, state, basis, cfg), 10**12
                ),
            )
            for state in basis.states
        ]
        assert abs(measured_renyi(pair) - want_renyi) < 1e-9
        want_rate = model_sifted_error_rate(params, basis, cfg)
        assert abs(sifted_error_rate(pair) - want_rate) < 1e-9

    def test_reference_params_error_rate_at_zero(self, ref_params):
        mean = sum(
            model_sifted_error_rate(ref_params, basis, ProbeConfig(0.0))
            for basis in SiftBasis
        ) / 2
        assert 0.02 < mean < 0.08


class TestFit:
    def test_objective_invariant_under_record_order(self, ref_params):
        records = synth_records(ref_params, 50_000, seed=314)
        rng = np.random.default_rng(0)
        forward = _make_objective(records, "equal")
        backward = _make_objective(records[::-1], "equal")
        shuffled_records = list(records)
        rng.shuffle(shuffled_records)
        shuffled = _make_objective(shuffled_records, "equal")
        for _ in range(5):
            x = rng.uniform(-0.3, 0.3, size=10)
            want = forward(x)
            assert want.shape == (4 * len(records),)
            np.testing.assert_array_equal(backward(x), want)
            np.testing.assert_array_equal(shuffled(x), want)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        params=ANY_PARAMS,
        weighting=st.sampled_from(["equal", "counts"]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_objective_equals_per_record_oracle(
        self, ref_params, params, weighting, seed
    ):
        rng = np.random.default_rng(seed)
        records = [
            CountsRecord(
                state, basis, pe,
                simulate_counts(
                    predict_outcome_probs(ref_params, state, basis, ProbeConfig(pe)),
                    int(rng.integers(1, 10**7)), int(rng.integers(2**63)),
                ),
            )
            for state in Bb84State
            for basis in SiftBasis
            for pe in PE_POINTS
            if rng.random() < 0.7
        ] + [CountsRecord(Bb84State.D, SiftBasis.DA, 0.0, (1, 2, 3, 4))]
        x = params.as_vector()
        got = _make_objective(records, weighting)(x)
        want = residuals_oracle(records, weighting, x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_short_fit_residual_invariant_under_record_order(self, ref_params):
        records = synth_records(ref_params, 50_000, seed=314)
        options = FitOptions(max_evals=400)
        a = fit_parameters(records, options=options)
        b = fit_parameters(records[::-1], options=options)
        assert a.residual == b.residual
        assert a.evaluations == b.evaluations
        np.testing.assert_array_equal(
            a.params.as_vector(), b.params.as_vector()
        )

    def test_fit_is_deterministic(self, ref_params):
        records = synth_records(ref_params, 50_000, seed=11)
        options = FitOptions(max_evals=1_500)
        a = fit_parameters(records, options=options)
        b = fit_parameters(records, options=options)
        np.testing.assert_array_equal(a.params.as_vector(), b.params.as_vector())
        assert a.residual == b.residual
        assert a.evaluations == b.evaluations

    def test_noise_free_zero_recovery(self):
        records = synth_records(ErrorModelParams(), 100_000_000)
        result = fit_parameters(records)
        assert result.converged
        assert result.termination == "gtol"
        assert result.residual < 1e-12
        assert np.max(np.abs(result.params.as_vector())) < math.radians(0.1)

    def test_noise_free_reference_recovery(self, ref_params):
        records = synth_records(ref_params, 100_000_000)
        result = fit_parameters(records)
        assert result.converged
        err_deg = np.degrees(
            np.abs(result.params.as_vector() - ref_params.as_vector())
        )
        assert err_deg[6] < 0.1  # gate imbalance
        assert np.max(err_deg) < 0.5

    def test_noisy_reference_recovery(self, ref_params):
        records = synth_records(ref_params, 50_000, seed=20240817)
        result = fit_parameters(records)
        assert result.converged
        err_deg = np.degrees(
            np.abs(result.params.as_vector() - ref_params.as_vector())
        )
        assert err_deg[6] < 1.0  # alpha
        assert err_deg[7] < 2.0  # delta
        assert max(err_deg[2:6]) < 1.0 and max(err_deg[8:]) < 1.0
        assert max(err_deg[0], err_deg[1]) < 5.0

    def test_counts_weighting_runs(self, ref_params):
        records = synth_records(ref_params, 20_000, seed=3)
        result = fit_parameters(
            records, options=FitOptions(max_evals=400, weighting="counts")
        )
        assert result.residual >= 0.0

    def test_rejects_degenerate_inputs(self):
        zero = ErrorModelParams()
        records = synth_records(zero, 1_000)
        with pytest.raises(ValueError, match="at least 10 data values"):
            fit_parameters(records[:2])
        single_pe = [r for r in records if r.pe_nominal == 0.1]
        with pytest.raises(ValueError, match="distinct error probabilities"):
            fit_parameters(single_pe)

    def test_nonconvergence_reported(self, ref_params):
        records = synth_records(ref_params, 10_000, seed=8)
        result = fit_parameters(records, options=FitOptions(max_evals=40))
        assert not result.converged
        assert result.termination == "budget"
        assert result.evaluations <= 40

    def test_budget_is_hard_and_keeps_best_point(self, ref_params):
        records = synth_records(ref_params, 10_000, seed=8)
        objective = _make_objective(records, "equal")
        start = math.fsum(objective(np.zeros(10)) ** 2)
        for budget in (1, 2, 11, 12, 25, 60):
            result = fit_parameters(records, options=FitOptions(max_evals=budget))
            assert result.evaluations == budget
            assert not result.converged
            assert result.held == ()
            assert result.residual <= start
            fitted = math.fsum(objective(result.params.as_vector()) ** 2)
            assert fitted == pytest.approx(result.residual, rel=1e-12)

    def test_unconstrained_angles_held_at_init(self, ref_params):
        result = fit_parameters(load_reference_counts(), init=ref_params)
        assert result.converged
        assert result.held == ("d_theta_a_h", "d_theta_a_v", "d_theta_b_hv")
        fitted = result.params.to_dict()
        for key, value in ref_params.to_dict().items():
            if key in result.held:
                assert fitted[key] == value
            else:
                assert fitted[key] != value

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
    def test_matches_scipy_trust_region_reflective(self, tmp_path, seed):
        if seed is None:
            records = load_reference_counts()
        else:
            path = tmp_path / "sim.csv"
            assert main([
                "simulate", "--params", EXAMPLE_PARAMS, "--pairs", "50000",
                "--seed", str(seed), "--out", str(path),
            ]) == 0
            records = read_counts_file(path)
        _, want = trf_fit_oracle(records)
        result = fit_parameters(records)
        assert result.converged
        assert abs(result.residual - want) <= 1e-9 * want

    def test_recovers_seeded_truths_as_often_as_scipy(self):
        found = trf_found = 0
        for k in range(12):
            truth = seeded_truth(f"recovery:{k}", 30.0)
            records = synth_records(truth, 10**9)
            result = fit_parameters(records)
            found += recovered(result.params.as_vector(), result.residual, truth)
            trf_found += recovered(*trf_fit_oracle(records), truth)
        assert found >= trf_found

    def test_fit_into_the_box_bound_stops_early(self):
        # From zero, this truth's fit runs d_theta_a_d into the +90 deg bound
        # at a local minimum. A solver that clips each trial point to the box,
        # instead of shortening the step, grinds there until the budget runs out.
        truth = seeded_truth("map:60:2", 60.0)
        result = fit_parameters(
            synth_records(truth, 10**9), options=FitOptions(max_evals=1_000)
        )
        assert result.termination in ("ftol", "xtol", "gtol")
        assert result.evaluations <= 300
