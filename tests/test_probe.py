import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fpbsim import (
    Bb84State,
    ErrorModelParams,
    SiftBasis,
    model_sift_summaries,
    predict_outcome_probs,
    renyi_closed_form,
    renyi_information,
)
from fpbsim.error_model import _ANGLE_TERMS
from fpbsim.probe import _probe_angle, sift_cells

from conftest import (
    FRAME_DEG,
    FRAME_RAD,
    analytic_output,
    error_probability,
    frame,
    nonideal_alice_state,
    nonideal_probe_state,
    probe_angle_oracle,
    renyi_information_oracle,
    shipped_output_state,
    sift_cells_oracle,
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


_UNIT = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def raw_tables(draw) -> np.ndarray:
    """A nonnegative 2x2 table with positive total, perhaps with a zero
    row or column, scaled by a power of ten."""
    table = np.array(draw(st.lists(_UNIT, min_size=4, max_size=4))).reshape(2, 2)
    zeroed = draw(st.sampled_from(["none", "row", "column"]))
    index = draw(st.integers(0, 1))
    if zeroed == "row":
        table[index] = 0.0
    elif zeroed == "column":
        table[:, index] = 0.0
    table = table * 10.0 ** draw(st.integers(-300, 300))
    assume(table.sum() > 0.0)
    return table


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
        # The forward model's one table of nominal angles: each state at its
        # control-frame angle, the analyzers at +-22.5 deg, exactly.
        assert _ANGLE_TERMS == {
            **{
                state.value: (math.radians(deg), f"d_theta_a_{state.value.lower()}")
                for state, deg in FRAME_DEG.items()
            },
            "HV": (math.radians(22.5), "d_theta_b_hv"),
            "DA": (math.radians(-22.5), "d_theta_b_da"),
        }
        assert FRAME_RAD == {state: math.radians(deg) for state, deg in FRAME_DEG.items()}

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
            c, s = math.sqrt(1.0 - 2.0 * pe), math.sqrt(2.0 * pe)
            assert abs(c**2 + s**2 - 1.0) < 1e-12
            assert abs((c + s) ** 2 / 2 + (c - s) ** 2 / 2 - 1.0) < 1e-12
        assert abs(_probe_angle(0.1) - 0.32175055439664219) < 1e-15

    @pytest.mark.parametrize("pe", [-0.01, 0.51, float("nan"), 1.0])
    def test_probe_config_domain(self, pe):
        with pytest.raises(ValueError):
            predict_outcome_probs(ZERO, Bb84State.D, SiftBasis.DA, pe)

    def test_probe_state_values(self):
        flat = nonideal_probe_state(0.0, 0.0)
        np.testing.assert_allclose(flat, [1 / RT2, 1 / RT2], atol=1e-15)
        mid = nonideal_probe_state(0.1, 0.0)
        np.testing.assert_allclose(
            mid, [0.9486832980505138, 0.31622776601683793], atol=1e-15
        )
        third = nonideal_probe_state(1 / 3, 0.0)
        np.testing.assert_allclose(
            third, [0.98559855965348878, -0.16910197872576275], atol=1e-15
        )

    def test_probe_state_normalized_on_grid(self):
        for pe in PE_GRID:
            probe = nonideal_probe_state(pe, 0.0)
            assert abs(norm_sq(probe) - 1.0) < 1e-12


class TestProbeAngle:
    """``probe._probe_angle``, the pe -> probe angle rule, against
    ``conftest.probe_angle_oracle``."""

    @settings(derandomize=True, deadline=None)
    @given(pe=st.floats(0.0, 0.5))
    @example(pe=0.0)
    @example(pe=-0.0)
    @example(pe=5e-324)
    @example(pe=0.1)
    @example(pe=1 / 3)
    @example(pe=0.5)
    def test_equals_oracle_bit_for_bit(self, pe):
        assert _probe_angle(pe).hex() == probe_angle_oracle(pe).hex()

    @pytest.mark.parametrize("pe, value", [(0.1, 0.1), (0, 0.0), (np.float64(0.1), 0.1)])
    def test_cold_and_cached_calls_agree(self, pe, value):
        first, again = _probe_angle(pe), _probe_angle(pe)
        assert type(first) is float and type(again) is float
        assert first.hex() == again.hex() == probe_angle_oracle(value).hex()

    @pytest.mark.parametrize("pe", [math.nan, math.inf, -math.inf, -0.01, 0.51])
    def test_rejects_with_the_shared_message(self, pe):
        message = f"^{re.escape(f'error probability must be in [0, 0.5], got {pe}')}$"
        with pytest.raises(ValueError, match=message):
            _probe_angle(pe)
        _probe_angle(0.1)
        with pytest.raises(ValueError, match=message):
            _probe_angle(pe)


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
        out = shipped_output_state(ZERO, Bb84State.H, 0.0)
        expected = np.kron(frame(-22.5), np.array([1 / RT2, 1 / RT2]))
        np.testing.assert_allclose(out, expected, atol=1e-15)

    @pytest.mark.parametrize("state", list(Bb84State))
    def test_matches_analytic_decomposition(self, state):
        for pe in PE_GRID:
            got = shipped_output_state(ZERO, state, pe)
            assert states_close(got, analytic_output(state, pe), tol=1e-12)

    def test_error_component_of_attack_output(self):
        # Projecting the output for an H input onto the V state and the
        # normalized error component of the probe yields exactly pe.
        psi = shipped_output_state(ZERO, Bb84State.H, 0.1)
        te = target_triple(0.1)[2]
        bra = np.kron(frame(67.5), te / math.sqrt(norm_sq(te)))
        assert abs(abs(np.vdot(bra, psi)) ** 2 - 0.1) < 1e-12

    def test_outcome_probability_examples(self):
        probs = predict_outcome_probs(ZERO, Bb84State.D, SiftBasis.DA, 1 / 3)
        # (b=0, e=0) cell sits last in outcome order.
        assert abs(probs[3] - 2 / 3) < 1e-12

    def test_outcome_probabilities_sum_to_one(self):
        for state in Bb84State:
            for basis in SiftBasis:
                for pe in (0.0, 0.1, 1 / 3, 0.5):
                    probs = predict_outcome_probs(ZERO, state, basis, pe)
                    assert abs(probs.sum() - 1.0) < 1e-12


class TestErrorProbability:
    @pytest.mark.parametrize("state", list(Bb84State))
    def test_equals_pe(self, state):
        for pe in PE_GRID:
            assert abs(error_probability(state, pe) - pe) < 1e-12

    def test_state_independent(self):
        for pe in PE_GRID:
            values = [error_probability(state, pe) for state in Bb84State]
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


def model_table(params: ErrorModelParams, basis: SiftBasis, pe: float) -> np.ndarray:
    """The model's error-free-sift Bob/Eve table in ``basis``, normalized."""
    raw, _ = sift_cells(
        [predict_outcome_probs(params, state, basis, pe) for state in basis.states]
    )
    return raw / raw.sum()


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
        dist = model_table(ZERO, SiftBasis.HV, 0.0)
        np.testing.assert_allclose(dist, 0.25, atol=1e-12)

    def test_frozen_table(self):
        dist = model_table(ZERO, SiftBasis.HV, 0.1)
        expected = np.array(
            [
                [0.40713484026367723, 0.092865159736322772],
                [0.092865159736322772, 0.40713484026367723],
            ]
        )
        np.testing.assert_allclose(dist, expected, atol=1e-12)

    def test_perfect_correlation_at_one_third(self):
        dist = model_table(ZERO, SiftBasis.DA, 1 / 3)
        np.testing.assert_allclose(dist, np.diag([0.5, 0.5]), atol=1e-12)
        # Eve's projective readout is exact there.
        assert dist[0, 1] + dist[1, 0] < 1e-12

    def test_invariants_on_grid(self):
        for basis in SiftBasis:
            for pe in PE_GRID:
                dist = model_table(ZERO, basis, pe)
                assert dist.shape == (2, 2)
                assert np.all(dist >= 0.0)
                assert abs(dist.sum() - 1.0) < 1e-10
                # Both bits are equally likely for Bob and for Eve.
                np.testing.assert_allclose(dist.sum(axis=1), 0.5, atol=1e-12)
                np.testing.assert_allclose(dist.sum(axis=0), 0.5, atol=1e-12)

    def test_model_without_error_free_events_reads_nan(self):
        # Wave plates and analyzer each turned 45 degrees; at pe = 0 the
        # probe leaves the photon alone, so Bob reads the wrong bit for
        # both HV inputs.
        quarter = math.pi / 4
        params = ErrorModelParams(
            d_theta_a_h=quarter, d_theta_a_v=quarter, d_theta_b_hv=quarter
        )
        renyi, rates = model_sift_summaries(params, [0.0, 0.1])
        assert math.isnan(renyi[0, 0])
        assert not np.isnan(renyi[0, 1]) and not np.isnan(renyi[1]).any()
        # The error rate is still defined: every sift event is wrong.
        assert abs(rates[0, 0] - 1.0) < 1e-12


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
        dist = model_table(ZERO, SiftBasis.HV, 0.1)
        assert abs(renyi_information(dist) - 0.48032895953056298) < 1e-10


class TestStackedKernels:
    """Stacks of tables or row pairs give, entry by entry, exactly what the
    scalar oracles give for each one."""

    @settings(derandomize=True, deadline=None)
    @given(st.lists(raw_tables(), min_size=1, max_size=50))
    def test_renyi_information_matches_oracle(self, tables):
        got = renyi_information(np.array(tables))
        assert got.shape == (len(tables),)
        for value, table in zip(got.tolist(), tables):
            assert value == renyi_information_oracle(table)

    @settings(derandomize=True, deadline=None)
    @given(st.lists(st.lists(_UNIT, min_size=8, max_size=8), min_size=1, max_size=50))
    def test_sift_cells_matches_oracle(self, pairs):
        rows = np.array(pairs).reshape(-1, 2, 4)
        tables, error_rates = sift_cells(rows)
        assert tables.shape == (len(pairs), 2, 2)
        for table, error_rate, pair in zip(tables, error_rates.tolist(), rows):
            want_table, want_rate = sift_cells_oracle(pair)
            assert np.array_equal(table, want_table)
            assert error_rate == want_rate

    def test_one_table_gives_a_float(self):
        assert type(renyi_information(np.diag([0.5, 0.5]))) is float
        _, error_rate = sift_cells(np.full((2, 4), 0.25))
        assert type(error_rate) is float

    def test_tiny_positive_mass_is_normalized(self):
        raw = np.array([[30.0, 7.0], [5.0, 41.0]])
        assert renyi_information(2.0**-70 * raw) == renyi_information(raw)

    @pytest.mark.parametrize(
        "kernel, shape, message",
        [
            (sift_cells, (2, 3), "expected (..., 2, 4) outcome rows, got shape (2, 3)"),
            (renyi_information, (3, 3),
             "expected (..., 2, 2) joint tables, got shape (3, 3)"),
        ],
        ids=["sift-cells", "renyi-information"],
    )
    def test_wrong_shape_rejected(self, kernel, shape, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            kernel(np.full(shape, 0.25))

    def test_one_bad_table_rejects_the_stack(self):
        good = np.full((2, 2), 0.25)
        bad_tables = (
            ([[0.5, -0.1], [0.3, 0.3]], "nonnegative"),
            ([[0.5, float("nan")], [0.3, 0.3]], "finite"),
            (np.zeros((2, 2)), "mass"),
        )
        for bad, message in bad_tables:
            with pytest.raises(ValueError, match=message):
                renyi_information(np.array([good, bad, good]))


class TestClosedForm:
    def test_endpoints(self):
        assert renyi_closed_form(0.0) == 0.0
        assert abs(renyi_closed_form(1 / 3) - 1.0) < 1e-12

    @pytest.mark.parametrize("pe,expected", sorted(CLOSED_FORM_VALUES.items()))
    def test_frozen_values(self, pe, expected):
        assert abs(renyi_closed_form(pe) - expected) < 1e-12

    def test_matches_definition_on_grid(self):
        renyi, _ = model_sift_summaries(ZERO, PE_GRID)
        for pe, via_def in zip(PE_GRID, renyi):
            assert np.all(np.abs(via_def - renyi_closed_form(pe)) < 1e-10)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            renyi_closed_form(-0.1)
        with pytest.raises(ValueError):
            renyi_closed_form(0.6)

    def test_silent_above_operating_range(self):
        # Only ``fpbsim curve`` reports grid points above 1/3.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pe in (1 / 3, 0.4, 0.5):
                renyi_closed_form(pe)
