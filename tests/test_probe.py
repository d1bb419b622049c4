import math
import warnings

import numpy as np
import pytest

from fpbsim import (
    Bb84State,
    ErrorModelParams,
    ProbeConfig,
    SiftBasis,
    model_renyi,
    model_sifted_error_rate,
    output_state,
    predict_outcome_probs,
    renyi_closed_form,
    renyi_information,
    sift_joint_distribution,
)
from fpbsim.error_model import nonideal_alice_state, nonideal_probe_state
from fpbsim.probe import sift_cells

from conftest import (
    analytic_output,
    error_probability,
    frame,
    states_close,
    target_triple,
)

RT2 = math.sqrt(2.0)

#: The ideal attack: the forward model with all ten angles at zero.
ZERO = ErrorModelParams()

# Extended-precision evaluations of the closed form, frozen as oracles.
CLOSED_FORM_VALUES = {
    0.05: 0.26236818783955392,
    0.1: 0.48032895953056298,
    0.25: 0.91753783980802705,
}

PE_GRID = [i * 0.02 for i in range(17)] + [1 / 3]


def norm_sq(vec) -> float:
    return float(np.sum(np.abs(vec) ** 2))


class TestStatesAndConfig:
    def test_control_frame_values(self):
        h = nonideal_alice_state(Bb84State.H, 0.0, 0.0)
        np.testing.assert_allclose(
            h, [0.9238795325112867, -0.3826834323650898], atol=1e-15
        )
        d = nonideal_alice_state(Bb84State.D, 0.0, 0.0)
        np.testing.assert_allclose(
            d, [0.9238795325112867, 0.3826834323650898], atol=1e-15
        )

    @pytest.mark.parametrize("basis", list(SiftBasis))
    def test_basis_states_orthonormal(self, basis):
        s0, s1 = (nonideal_alice_state(s, 0.0, 0.0) for s in basis.states)
        assert abs(np.vdot(s0, s1)) < 1e-15
        assert abs(np.vdot(s0, s0) - 1.0) < 1e-15

    def test_bit_convention(self):
        assert [s.bit for s in (Bb84State.H, Bb84State.V, Bb84State.D, Bb84State.A)] == [0, 1, 0, 1]
        assert Bb84State.H.basis is SiftBasis.HV
        assert Bb84State.A.basis is SiftBasis.DA

    def test_probe_config_invariants(self):
        for pe in PE_GRID:
            cfg = ProbeConfig(pe)
            assert abs(cfg.c**2 + cfg.s**2 - 1.0) < 1e-12
            assert (
                abs((cfg.c + cfg.s) ** 2 / 2 + (cfg.c - cfg.s) ** 2 / 2 - 1.0)
                < 1e-12
            )
        assert abs(ProbeConfig(0.1).theta_in - 0.32175055439664219) < 1e-15

    @pytest.mark.parametrize("pe", [-0.01, 0.51, float("nan"), 1.0])
    def test_probe_config_domain(self, pe):
        with pytest.raises(ValueError):
            ProbeConfig(pe)

    def test_probe_state_values(self):
        flat = nonideal_probe_state(ProbeConfig(0.0), 0.0)
        np.testing.assert_allclose(flat, [1 / RT2, 1 / RT2], atol=1e-15)
        mid = nonideal_probe_state(ProbeConfig(0.1), 0.0)
        np.testing.assert_allclose(
            mid, [0.9486832980505138, 0.31622776601683793], atol=1e-15
        )
        third = nonideal_probe_state(ProbeConfig(1 / 3), 0.0)
        np.testing.assert_allclose(
            third, [0.98559855965348878, -0.16910197872576275], atol=1e-15
        )

    def test_probe_state_normalized_on_grid(self):
        for pe in PE_GRID:
            probe = nonideal_probe_state(ProbeConfig(pe), 0.0)
            assert abs(norm_sq(probe) - 1.0) < 1e-12


class TestTargetTriple:
    """The probe components of the analytic oracle that the model is
    checked against (``conftest.target_triple``)."""

    def test_no_disturbance(self):
        t0, t1, te = target_triple(0.0)
        np.testing.assert_allclose(t0, [1 / RT2, 1 / RT2], atol=1e-15)
        assert np.array_equal(t0, t1)
        assert norm_sq(te) == 0.0

    def test_frozen_values(self):
        t0, _, te = target_triple(0.1)
        np.testing.assert_allclose(
            t0, [0.85606232978365484, 0.4088487342836969], atol=1e-15
        )
        assert abs(norm_sq(te) - 0.1) < 1e-12

    def test_orthogonal_components_at_one_third(self):
        t0, t1, _ = target_triple(1 / 3)
        assert abs(t0[1]) < 1e-15
        assert abs(np.vdot(t0, t1)) < 1e-15

    def test_norm_relations_on_grid(self):
        for pe in PE_GRID:
            t0, t1, te = target_triple(pe)
            assert abs(norm_sq(te) - pe) < 1e-12
            assert abs(norm_sq(t0) - (1 - pe)) < 1e-12
            assert abs(norm_sq(t1) - (1 - pe)) < 1e-12
            assert abs(norm_sq(t0) + norm_sq(te) - 1.0) < 1e-12
            # t1 is t0 with components swapped.
            assert t1[0] == t0[1]
            assert t1[1] == t0[0]


class TestAttackOutput:
    def test_product_state_at_zero(self):
        out = output_state(ZERO, Bb84State.H, ProbeConfig(0.0))
        expected = np.kron(frame(-22.5), np.array([1 / RT2, 1 / RT2]))
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @pytest.mark.parametrize("state", list(Bb84State))
    def test_matches_analytic_decomposition(self, state):
        for pe in PE_GRID:
            got = output_state(ZERO, state, ProbeConfig(pe))
            assert states_close(got, analytic_output(state, pe), tol=1e-12)

    def test_error_component_of_attack_output(self):
        # Projecting the output for an H input onto the V state and the
        # normalized error component of the probe yields exactly pe.
        psi = output_state(ZERO, Bb84State.H, ProbeConfig(0.1))
        te = target_triple(0.1)[2]
        bra = np.kron(frame(67.5), te / math.sqrt(norm_sq(te)))
        assert abs(abs(np.vdot(bra, psi)) ** 2 - 0.1) < 1e-12

    def test_outcome_probability_examples(self):
        probs = predict_outcome_probs(
            ZERO, Bb84State.D, SiftBasis.DA, ProbeConfig(1 / 3)
        )
        # (b=0, e=0) cell sits last in outcome order.
        assert abs(probs[3] - 2 / 3) < 1e-12

    def test_outcome_probabilities_sum_to_one(self):
        for state in Bb84State:
            for basis in SiftBasis:
                for pe in (0.0, 0.1, 1 / 3, 0.5):
                    probs = predict_outcome_probs(ZERO, state, basis, ProbeConfig(pe))
                    assert abs(probs.sum() - 1.0) < 1e-12


class TestErrorProbability:
    @pytest.mark.parametrize("state", list(Bb84State))
    def test_equals_pe(self, state):
        for pe in PE_GRID:
            assert abs(error_probability(state, ProbeConfig(pe)) - pe) < 1e-12

    def test_state_independent(self):
        for pe in PE_GRID:
            values = [
                error_probability(state, ProbeConfig(pe)) for state in Bb84State
            ]
            assert max(values) - min(values) < 1e-12


class TestStatesClose:
    """The phase-insensitive comparison the decomposition checks rely on."""

    def test_global_phase_ignored(self):
        a = np.array([0.5, 0.5j, -0.5, 0.5])
        assert states_close(a, np.exp(1j * 0.7) * a)

    def test_distinct_states_detected(self):
        assert not states_close([1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])

    def test_small_perturbation_beyond_tolerance(self):
        a = np.array([1.0, 0.0, 0.0, 0.0])
        b = np.array([1.0, 1e-6, 0.0, 0.0]) / math.sqrt(1 + 1e-12)
        assert not states_close(a, b, tol=1e-9)
        assert states_close(a, b, tol=1e-5)


class TestSiftTable:
    """The error-free-sift Bob/Eve table, a (2, 2) array."""

    def test_sift_cells_layout(self):
        # Rows in OUTCOME_ORDER (1,0), (1,1), (0,1), (0,0) for the bit-0
        # and bit-1 inputs; each input contributes half its cells.
        rows = [[0.1, 0.2, 0.3, 0.4], [0.5, 0.25, 0.125, 0.125]]
        table, error_rate = sift_cells(rows)
        np.testing.assert_allclose(table, [[0.2, 0.15], [0.25, 0.125]], atol=1e-15)
        assert abs(error_rate - (0.15 + 0.125)) < 1e-15

    def test_uncorrelated_at_zero(self):
        dist = sift_joint_distribution(ZERO, SiftBasis.HV, ProbeConfig(0.0))
        np.testing.assert_allclose(dist, 0.25, atol=1e-12)

    def test_frozen_table(self):
        dist = sift_joint_distribution(ZERO, SiftBasis.HV, ProbeConfig(0.1))
        expected = np.array(
            [
                [0.40713484026367723, 0.092865159736322772],
                [0.092865159736322772, 0.40713484026367723],
            ]
        )
        np.testing.assert_allclose(dist, expected, atol=1e-12)

    def test_perfect_correlation_at_one_third(self):
        dist = sift_joint_distribution(ZERO, SiftBasis.DA, ProbeConfig(1 / 3))
        np.testing.assert_allclose(dist, np.diag([0.5, 0.5]), atol=1e-12)
        # Eve's projective readout is exact there.
        assert dist[0, 1] + dist[1, 0] < 1e-12

    def test_invariants_on_grid(self):
        for basis in SiftBasis:
            for pe in PE_GRID:
                dist = sift_joint_distribution(ZERO, basis, ProbeConfig(pe))
                assert dist.shape == (2, 2)
                assert np.all(dist >= 0.0)
                assert abs(dist.sum() - 1.0) < 1e-10
                # Both bits are equally likely for Bob and for Eve.
                np.testing.assert_allclose(dist.sum(axis=1), 0.5, atol=1e-12)
                np.testing.assert_allclose(dist.sum(axis=0), 0.5, atol=1e-12)


    def test_rejects_model_without_error_free_events(self):
        # Wave plates and analyzer each turned 45 degrees; at pe = 0 the
        # probe leaves the photon alone, so Bob reads the wrong bit for
        # both HV inputs.
        quarter = math.pi / 4
        params = ErrorModelParams(
            d_theta_a=(quarter, 0.0, quarter, 0.0), d_theta_b=(quarter, 0.0)
        )
        message = "no error-free sift events in basis HV at pe 0"
        with pytest.raises(ValueError, match=message):
            sift_joint_distribution(params, SiftBasis.HV, ProbeConfig(0.0))
        with pytest.raises(ValueError, match=message):
            model_renyi(params, SiftBasis.HV, ProbeConfig(0.0))
        # The error rate is still defined: every sift event is wrong.
        rate = model_sifted_error_rate(params, SiftBasis.HV, ProbeConfig(0.0))
        assert abs(rate - 1.0) < 1e-12


class TestRenyiInformation:
    def test_independent_table(self):
        assert renyi_information(np.full((2, 2), 0.25)) == 0.0

    def test_correlated_table(self):
        assert abs(renyi_information(np.diag([0.5, 0.5])) - 1.0) < 1e-15

    def test_zero_probability_outcome_convention(self):
        assert renyi_information([[0.5, 0.0], [0.5, 0.0]]) == 0.0

    def test_normalizes_raw_table(self):
        raw = np.array([[30.0, 7.0], [5.0, 41.0]])
        want = renyi_information(raw / raw.sum())
        assert renyi_information(raw) == pytest.approx(want, abs=1e-15)
        assert renyi_information(3 * np.diag([0.5, 0.5])) == 1.0

    def test_rejects_bad_tables(self):
        with pytest.raises(ValueError, match="nonnegative"):
            renyi_information([[0.5, -0.1], [0.3, 0.3]])
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                renyi_information([[0.5, bad], [0.3, 0.3]])
        with pytest.raises(ValueError, match="mass"):
            renyi_information(np.zeros((2, 2)))

    def test_matches_frozen_value(self):
        dist = sift_joint_distribution(ZERO, SiftBasis.HV, ProbeConfig(0.1))
        assert abs(renyi_information(dist) - 0.48032895953056298) < 1e-10


class TestClosedForm:
    def test_endpoints(self):
        assert renyi_closed_form(0.0) == 0.0
        assert abs(renyi_closed_form(1 / 3) - 1.0) < 1e-12

    @pytest.mark.parametrize("pe,expected", sorted(CLOSED_FORM_VALUES.items()))
    def test_frozen_values(self, pe, expected):
        assert abs(renyi_closed_form(pe) - expected) < 1e-12

    def test_matches_definition_on_grid(self):
        for basis in SiftBasis:
            for pe in PE_GRID:
                via_def = renyi_information(
                    sift_joint_distribution(ZERO, basis, ProbeConfig(pe))
                )
                assert abs(via_def - renyi_closed_form(pe)) < 1e-10

    def test_domain_error(self):
        with pytest.raises(ValueError):
            renyi_closed_form(-0.1)
        with pytest.raises(ValueError):
            renyi_closed_form(0.6)

    def test_warns_above_operating_range(self):
        with pytest.warns(UserWarning, match="exceeds 1/3"):
            renyi_closed_form(0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            renyi_closed_form(1 / 3)
