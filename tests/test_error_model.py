import copy
import dataclasses
import json
import math
import pickle
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fpbsim import (
    Bb84State,
    CountsColumns,
    ErrorModelParams,
    SiftBasis,
    fit_parameters,
    model_sift_summaries,
    predict_outcome_probs,
    read_counts_file,
    reference_counts_path,
    renyi_closed_form,
)
from fpbsim import error_model
from fpbsim.error_model import (
    _PARAM_KEYS, _jacobian_kernel, _make_objective, _trust_region_lm
)
from fpbsim.montecarlo import _BASES, _STATES, counts_file_text, parse_counts

from fpbsim.cli import main

from conftest import (
    CountsRecord,
    FRAME_DEG,
    FRAME_RAD,
    analytic_probs,
    bob_analyzer,
    columns_from_records,
    draw_counts,
    frame,
    from_vector_oracle,
    jacobian_kernel_oracle,
    nonideal_alice_state,
    nonideal_pcnot,
    nonideal_probe_state,
    noise_free_counts,
    objective_jacobian_oracle,
    output_state_oracle,
    predict_oracle,
    probe_angle_oracle,
    renyi_information_oracle,
    residuals_oracle,
    shipped_output_state,
    sift_cells_oracle,
    take_rows,
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
#: Parameter vectors in the box, some angles exact (signed) zeros.
BOX_VECTORS = st.lists(
    st.one_of(IN_BOX, st.sampled_from([0.0, -0.0])), min_size=10, max_size=10
).map(np.array)
#: Parameters whose central-difference neighbours, 1e-6 away, stay in the box.
INSET_PARAMS = st.lists(
    st.floats(-math.pi / 2 + 1e-5, math.pi / 2 - 1e-5), min_size=10, max_size=10
).map(ErrorModelParams.from_vector)


def assert_equal_to_rounding(got, want):
    """Jacobians equal to 1e-15 absolute, and exactly zero wherever the
    oracle gives a prediction's four probabilities an exactly-zero
    derivative along a parameter: the fit takes a column that is exactly
    zero at its start from finite differences instead. A single entry
    whose true value is zero can round to an exact zero on either side
    alone, so zeros are compared per prediction and parameter, one way:
    the kernel may be exact where the oracle rounds."""
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
    moved, oracle_moved = (jac.reshape(-1, 4, 10).any(axis=1) for jac in (got, want))
    assert not (moved & ~oracle_moved).any()


def synth_records(params, n_pairs, seed=None):
    """Records for every (state, basis, pe) combination; noise-free if unseeded."""
    records = []
    seeds = iter(np.random.SeedSequence(seed).generate_state(24, np.uint64))
    for state in Bb84State:
        for basis in SiftBasis:
            for pe in PE_POINTS:
                probs = predict_outcome_probs(params, state, basis, pe)
                if seed is None:
                    counts = noise_free_counts(probs, n_pairs)
                else:
                    counts = draw_counts(probs, n_pairs, int(next(seeds)))
                records.append(CountsRecord(state, basis, pe, counts))
    return records


def synth_counts(params, n_pairs, seed=None) -> CountsColumns:
    """``synth_records`` as columns, as the fit takes them."""
    return columns_from_records(synth_records(params, n_pairs, seed))


def design_records(tmp_path, seed) -> CountsColumns:
    """The bundled reference counts for ``seed`` None, else the 96-value
    design that ``simulate --params example_params.json --seed SEED``
    writes, read as columns."""
    if seed is None:
        return read_counts_file(reference_counts_path())
    path = tmp_path / "sim.csv"
    assert main([
        "simulate", "--params", EXAMPLE_PARAMS, "--pairs", "50000",
        "--seed", str(seed), "--out", str(path),
    ]) == 0
    return read_counts_file(path)


#: ``(evaluations, termination, f"{residual:.6e}")`` of the fit from zero
#: of ``design_records(seed)`` per weighting. Simulated records share one
#: total, so their "counts" weights are all exactly 1.
FIT_TRAJECTORIES = {
    None: {"equal": (13, "ftol", "1.714613e-03"), "counts": (13, "ftol", "1.718739e-03")},
    1: {"equal": (11, "ftol", "2.193010e-04"), "counts": (11, "ftol", "2.193010e-04")},
    2: {"equal": (11, "ftol", "2.139446e-04"), "counts": (11, "ftol", "2.139446e-04")},
    3: {"equal": (11, "ftol", "1.441269e-04"), "counts": (11, "ftol", "1.441269e-04")},
    4: {"equal": (11, "ftol", "1.842515e-04"), "counts": (11, "ftol", "1.842515e-04")},
}


def random_records(params, seed) -> list[CountsRecord]:
    """Seeded counts of ``params``' predictions for a random ~70% of the
    (state, basis, pe) grid, with random totals, and one tiny record."""
    rng = np.random.default_rng(seed)
    return [
        CountsRecord(
            state, basis, pe,
            draw_counts(
                predict_outcome_probs(params, state, basis, pe),
                int(rng.integers(1, 10**7)), int(rng.integers(2**63)),
            ),
        )
        for state in Bb84State
        for basis in SiftBasis
        for pe in PE_POINTS
        if rng.random() < 0.7
    ] + [CountsRecord(Bb84State.D, SiftBasis.DA, 0.0, (1, 2, 3, 4))]


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
    return dataclasses.replace(
        params,
        d_xi=-params.d_xi,
        d_chi=-params.d_chi,
        alpha=-params.alpha,
        delta=-params.delta,
    )


def reflect(params: ErrorModelParams) -> ErrorModelParams | None:
    """Reflection twin: every state and analyzer angle mirrored in the
    control frame, each offset wrapped into (-pi/2, pi/2); None when one
    lands on the bound."""

    def wrap(angle: float) -> float:
        return (angle + math.pi / 2) % math.pi - math.pi / 2

    offsets = {
        "d_theta_a_h": wrap(-2 * FRAME_RAD[Bb84State.H] - params.d_theta_a_h),
        "d_theta_a_d": wrap(-2 * FRAME_RAD[Bb84State.D] - params.d_theta_a_d),
        "d_theta_a_v": wrap(-2 * FRAME_RAD[Bb84State.V] - params.d_theta_a_v),
        "d_theta_a_a": wrap(-2 * FRAME_RAD[Bb84State.A] - params.d_theta_a_a),
        "d_theta_b_hv": wrap(-math.pi / 4 - params.d_theta_b_hv),
        "d_theta_b_da": wrap(math.pi / 4 - params.d_theta_b_da),
    }
    if any(abs(angle) >= math.pi / 2 for angle in offsets.values()):
        return None
    return dataclasses.replace(params, **offsets)


def inset(low_deg: float, high_deg: float):
    """Angles in (low_deg, high_deg) degrees, inset by 1e-9 rad so that
    rounding puts neither an angle nor its ``quarter_twin`` image on the
    box bound."""
    return st.floats(math.radians(low_deg) + 1e-9, math.radians(high_deg) - 1e-9)


#: Parameters whose wave-plate and analyzer offsets and gate imbalance
#: have their ``quarter_twin`` images inside the box; only d_xi's may leave.
QUARTER_TWIN_DOMAIN = st.builds(
    ErrorModelParams,
    d_xi=inset(-90, 90),
    d_chi=inset(-90, 90),
    d_theta_a_h=inset(-90, 45),
    d_theta_a_d=inset(-45, 90),
    d_theta_a_v=inset(-90, 45),
    d_theta_a_a=inset(-45, 90),
    alpha=inset(0, 90),
    delta=inset(-90, 90),
    d_theta_b_hv=inset(-45, 90),
    d_theta_b_da=inset(-90, 45),
)


def quarter_twin(params: ErrorModelParams) -> ErrorModelParams | None:
    """The alpha -> 90 deg - alpha twin; None when its d_xi leaves the box.

    The H and V wave-plate offsets and the DA analyzer offset map to
    -45 deg - d, the D and A offsets and the HV analyzer offset to
    45 deg - d, and d_xi to 2*delta - 180 deg - d_xi wrapped into
    [-180, 180) deg; d_chi and delta stay.
    """
    quarter = math.pi / 4
    d_xi = (2 * params.delta - params.d_xi) % (2 * math.pi) - math.pi
    if abs(d_xi) >= math.pi / 2:
        return None
    return ErrorModelParams(
        d_xi=d_xi,
        d_chi=params.d_chi,
        d_theta_a_h=-quarter - params.d_theta_a_h,
        d_theta_a_d=quarter - params.d_theta_a_d,
        d_theta_a_v=-quarter - params.d_theta_a_v,
        d_theta_a_a=quarter - params.d_theta_a_a,
        alpha=math.pi / 2 - params.alpha,
        delta=params.delta,
        d_theta_b_hv=quarter - params.d_theta_b_hv,
        d_theta_b_da=-quarter - params.d_theta_b_da,
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

    def test_from_vector_needs_ten_values(self):
        with pytest.raises(ValueError, match="expected 10 parameters, got 9"):
            ErrorModelParams.from_vector([0.0] * 9)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(
        values=st.lists(IN_BOX, min_size=9, max_size=11),
        edits=st.lists(
            st.tuples(
                st.integers(0, 10),
                st.one_of(
                    st.floats(),
                    st.sampled_from(
                        [math.pi / 2, -math.pi / 2, math.nextafter(math.pi / 2, 0.0),
                         math.inf, -math.inf, math.nan, -0.0]
                    ),
                ),
            ),
            max_size=3,
        ),
        container=st.sampled_from([list, tuple, np.array]),
    )
    def test_from_vector_matches_numpy_checks(self, values, edits, container):
        for i, value in edits:
            values[i % len(values)] = value
        x = container(values)
        try:
            want = from_vector_oracle(x)
        except ValueError as exc:
            with pytest.raises(ValueError) as excinfo:
                ErrorModelParams.from_vector(x)
            assert str(excinfo.value) == str(exc)
        else:
            got = ErrorModelParams.from_vector(x).as_vector()
            assert got.tobytes() == np.array(want).tobytes()

    def test_box_constraint(self):
        with pytest.raises(ValueError, match="pi/2"):
            ErrorModelParams(alpha=math.pi / 2)
        with pytest.raises(ValueError, match="finite"):
            ErrorModelParams(d_xi=float("nan"))

    def test_model_inputs_stay_out_of_value_semantics(self, ref_params):
        # The object holds its model inputs and its per-pe gate terms beside
        # the ten fields; predictions must leave what the fields define, and
        # every copy must predict as the original does.
        params = dataclasses.replace(ref_params)
        pes = [0.0, 0.1, 0.25, 1 / 3, 0.5]
        configs = [
            (state, basis, pe) for state in _STATES for basis in _BASES for pe in pes
        ]
        want = [predict_outcome_probs(params, *config).tobytes() for config in configs]
        fresh = ErrorModelParams(*ref_params.as_vector().tolist())
        assert params == fresh and hash(params) == hash(fresh)
        assert repr(params) == repr(fresh)
        assert params.to_dict() == fresh.to_dict()
        assert [field.name for field in dataclasses.fields(params)] == list(_PARAM_KEYS)
        copies = (
            fresh, dataclasses.replace(params), copy.copy(params),
            pickle.loads(pickle.dumps(params)),
        )
        for clone in copies:
            assert clone == params
            got = [predict_outcome_probs(clone, *config).tobytes() for config in configs]
            assert got == want
        box = r"^error-model angles must satisfy \|angle\| < pi/2 radians$"
        with pytest.raises(ValueError, match=box):
            dataclasses.replace(params, alpha=math.pi / 2)
        with pytest.raises(ValueError, match="^error-model parameters must be finite$"):
            dataclasses.replace(params, d_xi=math.nan)

    def test_field_order_is_the_file_and_vector_layout(self):
        names = [field.name for field in dataclasses.fields(ErrorModelParams)]
        assert list(json.loads(Path(EXAMPLE_PARAMS).read_text())) == names
        params = ErrorModelParams(**{name: i / 100 for i, name in enumerate(names)})
        assert list(params.to_dict()) == names
        assert params.as_vector().tolist() == [i / 100 for i in range(10)]
        assert ErrorModelParams.from_vector(params.as_vector()) == params

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        params=ANY_PARAMS,
        key=st.sampled_from(
            ["d_theta_a_h", "d_theta_a_d", "d_theta_a_v", "d_theta_a_a",
             "d_theta_b_hv", "d_theta_b_da"]
        ),
        value=IN_BOX,
    )
    def test_offset_moves_only_its_own_predictions(self, params, key, value):
        """The premise of ``FitResult.held``: a wave-plate offset enters only
        its state's predictions, an analyzer offset only its basis's."""
        assume(abs(value - getattr(params, key)) > 1e-3)
        moved = dataclasses.replace(params, **{key: value})
        changed = set()
        for state in Bb84State:
            for basis in SiftBasis:
                for pe in PE_POINTS:
                    before = predict_outcome_probs(params, state, basis, pe)
                    after = predict_outcome_probs(moved, state, basis, pe)
                    if not np.array_equal(before, after):
                        changed.add((state, basis))
        owner = key.rsplit("_", 1)[1].upper()
        touched = {
            (state, basis)
            for state in Bb84State
            for basis in SiftBasis
            if owner in (state.value, basis.value)
        }
        assert changed <= touched
        assert changed


class TestNonidealStates:
    def test_probe_zero_residual_matches_ideal(self):
        c, s = math.sqrt(1.0 - 2.0 * 0.1), math.sqrt(2.0 * 0.1)
        got = nonideal_probe_state(0.1, 0.0)
        want = ((c + s) / math.sqrt(2.0), (c - s) / math.sqrt(2.0))
        assert abs(got[0] - want[0]) < 1e-15 and abs(got[1] - want[1]) < 1e-15

    def test_probe_quarter_phase(self):
        got = nonideal_probe_state(0.1, math.pi / 2)
        assert abs(got[0] - 0.9486832980505138) < 1e-15
        assert abs(got[1] - 0.31622776601683793j) < 1e-15

    def test_probe_norm_for_any_phase(self):
        for d_xi in np.linspace(-math.pi, math.pi, 9):
            probe = nonideal_probe_state(0.2, d_xi)
            assert abs(np.sum(np.abs(probe) ** 2) - 1.0) < 1e-12

    def test_alice_reduces_to_frame(self):
        got = nonideal_alice_state(Bb84State.D, 0.0, 0.0)
        theta = FRAME_RAD[Bb84State.D]
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
                zero, Bb84State(alice), SiftBasis.DA, pe
            )
            np.testing.assert_allclose(probs, want, atol=5e-4)

    def test_zero_params_reduce_to_ideal_everywhere(self):
        zero = ErrorModelParams()
        for state in Bb84State:
            for basis in SiftBasis:
                for pe in np.linspace(0.0, 0.5, 11):
                    got = predict_outcome_probs(
                        zero, state, basis, pe
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
        probs = predict_outcome_probs(params, state, basis, pe)
        assert np.all(probs >= 0.0)
        assert abs(probs.sum() - 1.0) < 1e-10

    @settings(derandomize=True, deadline=None)
    @given(
        params=ANY_PARAMS,
        state=st.sampled_from(Bb84State),
        basis=st.sampled_from(SiftBasis),
        pe=ANY_PE,
    )
    def test_closed_form_matches_object_pipeline(self, params, state, basis, pe):
        np.testing.assert_allclose(
            predict_outcome_probs(params, state, basis, pe),
            predict_oracle(params, state, basis, pe),
            rtol=0.0, atol=1e-15,
        )
        np.testing.assert_allclose(
            shipped_output_state(params, state, pe),
            output_state_oracle(params, state, pe),
            rtol=0.0, atol=1e-15,
        )

    def test_reference_params_near_measured_row(self, ref_params):
        probs = predict_outcome_probs(
            ref_params, Bb84State.D, SiftBasis.DA, 0.1
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
        a = predict_outcome_probs(params, state, basis, pe)
        b = predict_outcome_probs(mirror(params), state, basis, pe)
        np.testing.assert_allclose(a, b, atol=1e-14)

    @settings(derandomize=True, deadline=None)
    @given(
        params=ANY_PARAMS,
        state=st.sampled_from(Bb84State),
        basis=st.sampled_from(SiftBasis),
        pe=ANY_PE,
    )
    def test_reflection_symmetry(self, params, state, basis, pe):
        twin = reflect(params)
        assume(twin is not None)
        a = predict_outcome_probs(params, state, basis, pe)
        b = predict_outcome_probs(twin, state, basis, pe)
        np.testing.assert_allclose(a, b, atol=1e-14)

    @settings(derandomize=True, deadline=None)
    @given(
        params=QUARTER_TWIN_DOMAIN,
        state=st.sampled_from(Bb84State),
        basis=st.sampled_from(SiftBasis),
        pe=ANY_PE,
    )
    def test_quarter_twin_symmetry(self, params, state, basis, pe):
        twin = quarter_twin(params)
        assume(twin is not None)
        a = predict_outcome_probs(params, state, basis, pe)
        b = predict_outcome_probs(twin, state, basis, pe)
        np.testing.assert_allclose(a, b, atol=1e-14)

    @settings(derandomize=True, deadline=None)
    @given(
        params=INSET_PARAMS,
        state=st.sampled_from(Bb84State),
        basis=st.sampled_from(SiftBasis),
        pe=ANY_PE,
        symmetric=st.booleans(),
    )
    def test_jacobian_matches_central_differences(
        self, params, state, basis, pe, symmetric
    ):
        if symmetric:
            params = dataclasses.replace(
                params, d_xi=0.0, d_chi=0.0, alpha=0.0, delta=0.0
            )

        def predict(x):
            return predict_outcome_probs(
                ErrorModelParams.from_vector(x), state, basis, pe
            )

        probs = predict_outcome_probs(params, state, basis, pe)
        x, h = params.as_vector(), 1e-6
        jac = _jacobian_kernel(
            np.array([_STATES.index(state)]), np.array([_BASES.index(basis)]),
            np.array([probe_angle_oracle(pe)]),
        )(params)[0]
        assert probs.tobytes() == predict(x).tobytes()
        assert jac.shape == (4, 10)
        for i in range(10):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            central = (predict(up) - predict(down)) / (2 * h)
            assert np.max(np.abs(jac[:, i] - central)) <= 1e-8
        moving = {
            "d_xi", "d_chi", f"d_theta_a_{state.value.lower()}", "alpha", "delta",
            f"d_theta_b_{basis.value.lower()}",
        }
        untouched = [i for i, key in enumerate(_PARAM_KEYS) if key not in moving]
        assert len(untouched) == 4
        assert not jac[:, untouched].any()
        if symmetric:
            # The model is even in (d_xi, d_chi, alpha, delta) jointly, so
            # their slopes vanish exactly: the zero start is a saddle.
            even = ["d_xi", "d_chi", "alpha", "delta"]
            assert not jac[:, [_PARAM_KEYS.index(key) for key in even]].any()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        design=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 1), ANY_PE),
            min_size=1, max_size=30,
        ),
        x=BOX_VECTORS,
    )
    # Every state and basis at pe 0.25, where the probe's sine is exactly
    # 0, and at 0 and 0.5, at all-zero and signed-zero points.
    @example(design=[(s, b, 0.25) for s in range(4) for b in range(2)], x=np.zeros(10))
    @example(design=[(s, b, 0.0) for s in range(4) for b in range(2)], x=np.zeros(10))
    @example(design=[(s, b, 0.5) for s in range(4) for b in range(2)], x=np.zeros(10))
    @example(
        design=[(s, b, pe) for s in range(4) for b in range(2) for pe in (0.0, 0.25, 0.5)],
        x=np.array([-0.0] * 10),
    )
    @example(
        design=[(s, b, pe) for s in range(4) for b in range(2) for pe in (0.0, 0.25, 0.5)],
        x=np.array([0.0, -0.0, 0.3, -0.0, 0.0, -0.2, -0.0, 0.0, -0.0, 0.1]),
    )
    def test_jacobian_kernel_equals_per_entry_oracle(self, design, x):
        # Any state and basis indices, the probe angles of drawn pe values,
        # and in-box parameters with exact zeros, which put the symmetric
        # subspace's exactly-zero columns in reach.
        state, basis, pe = (np.array(column) for column in zip(*design))
        theta_in = np.array([probe_angle_oracle(p) for p in pe.tolist()])
        got = _jacobian_kernel(state, basis, theta_in)(ErrorModelParams(*x.tolist()))
        want = jacobian_kernel_oracle(state, basis, theta_in)(x)
        assert got.shape == want.shape == (len(design), 4, 10)
        assert_equal_to_rounding(got, want)


class TestPredictionMemo:
    """``predict_outcome_probs`` memoizes the gate-on-probe terms per pe on
    its ``ErrorModelParams``; reuse must not change a prediction."""

    def test_reused_object_predicts_as_fresh_ones(self, ref_params):
        # A shuffled sequence with repeats over more distinct pe values
        # than the memo holds, -0.0 beside 0.0 among them.
        pes = [0.0, -0.0, 5e-324, 0.25, 1 / 3, 0.5] + [k / 601 for k in range(1, 300)]
        assert len(set(pes)) > error_model._GATED_MEMO_SIZE
        sequence = pes * 2
        random.Random(3).shuffle(sequence)
        params = dataclasses.replace(ref_params)
        for k, pe in enumerate(sequence):
            state, basis = _STATES[k % 4], _BASES[k // 4 % 2]
            fresh = dataclasses.replace(ref_params)
            got = predict_outcome_probs(params, state, basis, pe)
            assert got.tobytes() == predict_outcome_probs(fresh, state, basis, pe).tobytes()
            assert len(params._gated_memo) <= error_model._GATED_MEMO_SIZE
        assert len(params._gated_memo) == error_model._GATED_MEMO_SIZE

    def test_rejected_pe_raises_on_every_call_and_is_not_stored(self, ref_params):
        params = dataclasses.replace(ref_params)

        def rejected():
            for pe in (0.7, -0.1, math.nan):
                for _ in range(2):
                    with pytest.raises(ValueError, match="error probability"):
                        predict_outcome_probs(params, Bb84State.H, SiftBasis.HV, pe)

        rejected()
        assert params._gated_memo == {}
        for pe in (0.1, 0.25):
            predict_outcome_probs(params, Bb84State.D, SiftBasis.DA, pe)
        memo = dict(params._gated_memo)
        rejected()
        assert list(params._gated_memo) == [0.1, 0.25]
        assert params._gated_memo == memo


class TestModelSummaries:
    @settings(derandomize=True, deadline=None)
    @given(params=ANY_PARAMS)
    @example(params=ErrorModelParams())
    def test_predict_rows_equal_single_predictions(self, params):
        # All 8 state x basis pairs at pe 0, the least subnormal, 0.25 (a
        # probe sine of exactly 0), 1/3 and 0.5.
        pes = [0.0, 5e-324, 0.25, 1 / 3, 0.5]
        state, basis, pe_index = np.indices((4, 2, len(pes))).reshape(3, -1)
        got = error_model._predict(params, state, basis, pe_index, pes)
        want = [
            predict_outcome_probs(params, _STATES[s], _BASES[b], pes[k])
            for s, b, k in zip(state.tolist(), basis.tolist(), pe_index.tolist())
        ]
        assert got.shape == (40, 4)
        assert got.tobytes() == np.array(want).tobytes()

    def test_chunked_grid_equals_per_point_calls(self, ref_params):
        grid = np.linspace(0.0, 0.5, error_model._SUMMARY_CHUNK + 3).tolist()
        renyi, rates = model_sift_summaries(ref_params, grid)
        points = [model_sift_summaries(ref_params, [pe]) for pe in grid]
        assert renyi.tobytes() == np.concatenate([r for r, _ in points]).tobytes()
        assert rates.tobytes() == np.concatenate([e for _, e in points]).tobytes()

    def test_empty_grid_gives_empty_columns(self, ref_params):
        renyi, rates = model_sift_summaries(ref_params, [])
        assert renyi.shape == rates.shape == (0, 2)
        assert renyi.dtype == rates.dtype == np.float64

    def test_shapes_and_basis_columns(self, ref_params):
        pes = [0.0, 0.1, 0.2]
        renyi, rates = model_sift_summaries(ref_params, pes)
        assert renyi.shape == rates.shape == (3, 2)
        for i, pe in enumerate(pes):
            for j, basis in enumerate(SiftBasis):
                rows = [
                    predict_outcome_probs(ref_params, state, basis, pe)
                    for state in basis.states
                ]
                table, rate = sift_cells_oracle(rows)
                assert renyi[i, j] == renyi_information_oracle(table)
                assert rates[i, j] == rate

    def test_zero_params_renyi_matches_closed_form(self):
        grid = np.linspace(0.0, 1 / 3, 18).tolist()
        renyi, _ = model_sift_summaries(ErrorModelParams(), grid)
        for pe, values in zip(grid, renyi):
            for got in values:
                assert abs(got - renyi_closed_form(pe)) < 1e-10

    def test_reference_params_renyi_near_limit(self, ref_params):
        renyi, _ = model_sift_summaries(ref_params, [1 / 3])
        assert abs(sum(renyi[0]) / 2 - 0.90) < 0.07

    def test_imperfect_gate_leaks_at_zero(self, ref_params):
        renyi, _ = model_sift_summaries(ref_params, [0.0])
        assert np.all(renyi[0] > 0.0)

    def test_zero_params_error_rate_equals_pe(self):
        _, rates = model_sift_summaries(ErrorModelParams(), PE_POINTS)
        for pe, values in zip(PE_POINTS, rates):
            for got in values:
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
        column = list(SiftBasis).index(basis)
        renyi, rates = model_sift_summaries(params, [pe])
        want_renyi, want_rate = renyi[0, column], rates[0, column]
        if math.isnan(want_renyi):
            return
        pair = [
            CountsRecord(
                state,
                basis,
                pe,
                noise_free_counts(
                    predict_outcome_probs(params, state, basis, pe), 10**12
                ),
            )
            for state in basis.states
        ]
        counts = columns_from_records(pair)
        ((_, _, got_renyi, got_rate, _),) = counts.sift_summaries()
        assert abs(got_renyi - want_renyi) < 1e-9
        assert abs(got_rate - want_rate) < 1e-9

    def test_reference_params_error_rate_at_zero(self, ref_params):
        _, rates = model_sift_summaries(ref_params, [0.0])
        assert 0.02 < sum(rates[0]) / 2 < 0.08


class TestFit:
    def test_objective_invariant_under_record_order(self, ref_params):
        # Seeded counts scaled by record, so that totals and weights differ
        # from record to record.
        records = [
            dataclasses.replace(record, counts=tuple(c * (k + 1) for c in record.counts))
            for k, record in enumerate(synth_records(ref_params, 50_000, seed=314))
        ]
        text = counts_file_text(columns_from_records(records))
        counts = parse_counts(text.splitlines())
        assert counts.counts.dtype == np.int64
        assert len(set(counts.counts.sum(axis=1).tolist())) == len(records)
        rng = np.random.default_rng(0)
        n = len(records)
        orders = (np.arange(n)[::-1], rng.permutation(n))
        for weighting in ("equal", "counts"):
            forward = _make_objective(counts, weighting)
            reordered = [
                _make_objective(take_rows(counts, order), weighting) for order in orders
            ]
            for _ in range(5):
                x = rng.uniform(-0.3, 0.3, size=10)
                want, want_jacobian = forward(x)
                want_jac = want_jacobian()
                assert want.shape == (4 * n,)
                assert want_jac.shape == (4 * n, 10)
                oracle = residuals_oracle(records, weighting, x)
                assert want.tobytes() == oracle.tobytes()
                for r, jacobian in (objective(x) for objective in reordered):
                    assert r.tobytes() == want.tobytes()
                    assert jacobian().tobytes() == want_jac.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        params=ANY_PARAMS,
        weighting=st.sampled_from(["equal", "counts"]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_objective_equals_per_record_oracle(
        self, ref_params, params, weighting, seed
    ):
        records = random_records(ref_params, seed)
        x = params.as_vector()
        got = _make_objective(columns_from_records(records), weighting)(x)[0]
        want = residuals_oracle(records, weighting, x)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        x=BOX_VECTORS,
        weighting=st.sampled_from(["equal", "counts"]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_objective_jacobian_equals_kernel_oracle(
        self, ref_params, x, weighting, seed
    ):
        records = random_records(ref_params, seed)
        got = _make_objective(columns_from_records(records), weighting)(x)[1]()
        want = objective_jacobian_oracle(records, weighting, x)
        assert got.shape == want.shape == (4 * len(records), 10)
        assert_equal_to_rounding(got, want)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        x=st.lists(
            st.one_of(
                st.floats(-math.pi / 2 + 1e-5, math.pi / 2 - 1e-5),
                st.sampled_from([0.0, -0.0]),
            ),
            min_size=10, max_size=10,
        ).map(np.array),
        weighting=st.sampled_from(["equal", "counts"]),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_objective_jacobian_matches_central_differences(
        self, ref_params, x, weighting, seed
    ):
        # Every state and basis at pe 0, 1/3 and 0.5, records shuffled and
        # their totals random: the kernel, the canonical sort and the
        # weights against the residual itself, with no oracle between.
        rng = np.random.default_rng(seed)
        records = [
            CountsRecord(
                state, basis, pe,
                draw_counts(
                    predict_outcome_probs(ref_params, state, basis, pe),
                    int(rng.integers(1, 10**7)), int(rng.integers(2**63)),
                ),
            )
            for state in Bb84State
            for basis in SiftBasis
            for pe in (0.0, 1 / 3, 0.5)
        ]
        counts = take_rows(columns_from_records(records), rng.permutation(24))
        objective = _make_objective(counts, weighting)
        jac, h = objective(x)[1](), 1e-6
        assert jac.shape == (96, 10)
        for i in range(10):
            up, down = x.copy(), x.copy()
            up[i] += h
            down[i] -= h
            central = (objective(up)[0] - objective(down)[0]) / (2 * h)
            assert np.max(np.abs(jac[:, i] - central)) <= 1e-7

    def test_short_fit_residual_invariant_under_record_order(self, ref_params):
        records = synth_counts(ref_params, 50_000, seed=314)
        a = fit_parameters(records, max_evals=400)
        b = fit_parameters(take_rows(records, slice(None, None, -1)), max_evals=400)
        assert a.residual == b.residual
        assert a.evaluations == b.evaluations
        np.testing.assert_array_equal(
            a.params.as_vector(), b.params.as_vector()
        )

    def test_fit_is_deterministic(self, ref_params):
        records = synth_counts(ref_params, 50_000, seed=11)
        a = fit_parameters(records, max_evals=1_500)
        b = fit_parameters(records, max_evals=1_500)
        np.testing.assert_array_equal(a.params.as_vector(), b.params.as_vector())
        assert a.residual == b.residual
        assert a.evaluations == b.evaluations

    def test_noise_free_zero_recovery(self):
        records = synth_counts(ErrorModelParams(), 100_000_000)
        result = fit_parameters(records)
        assert result.converged
        assert result.termination == "gtol"
        assert result.residual < 1e-12
        assert np.max(np.abs(result.params.as_vector())) < math.radians(0.1)

    def test_noise_free_reference_recovery(self, ref_params):
        records = synth_counts(ref_params, 100_000_000)
        result = fit_parameters(records)
        assert result.converged
        err_deg = np.degrees(
            np.abs(result.params.as_vector() - ref_params.as_vector())
        )
        assert err_deg[6] < 0.1  # gate imbalance
        assert np.max(err_deg) < 0.5

    def test_noisy_reference_recovery(self, ref_params):
        records = synth_counts(ref_params, 50_000, seed=20240817)
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
        records = synth_counts(ref_params, 20_000, seed=3)
        result = fit_parameters(records, max_evals=400, weighting="counts")
        assert result.residual >= 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, "golden"])
    def test_counts_weighting_of_equal_totals_is_equal_weighting(self, tmp_path, seed):
        # Every record of these files has the same total, so every "counts"
        # weight is exactly 1 and the two weightings must fit bit for bit.
        if seed == "golden":
            path = Path(__file__).parent / "golden" / "simulate_example_seed42.csv"
            records = read_counts_file(path)
        else:
            records = design_records(tmp_path, seed)
        assert len(set(records.totals.tolist())) == 1

        def fitted(weighting):
            fit = fit_parameters(records, weighting=weighting)
            angles = [value.hex() for value in fit.params.as_vector().tolist()]
            return angles, fit.residual.hex(), fit.evaluations, fit.termination

        assert fitted("counts") == fitted("equal")

    def test_options_rejected(self):
        with pytest.raises(ValueError, match="unknown weighting 'median'"):
            fit_parameters(parse_counts([]), weighting="median")
        with pytest.raises(ValueError, match="max_evals must be positive"):
            fit_parameters(parse_counts([]), max_evals=0)

    def test_rejects_degenerate_inputs(self):
        zero = ErrorModelParams()
        records = synth_counts(zero, 1_000)
        with pytest.raises(ValueError, match="at least 10 data values"):
            fit_parameters(take_rows(records, slice(2)))
        single_pe = take_rows(records, records.pe == 0.1)
        with pytest.raises(ValueError, match="distinct error probabilities"):
            fit_parameters(single_pe)

    def test_nonconvergence_reported(self, ref_params):
        records = synth_counts(ref_params, 10_000, seed=8)
        result = fit_parameters(records, max_evals=8)
        assert not result.converged
        assert result.termination == "budget"
        assert result.evaluations <= 8

    def test_budget_is_hard_and_keeps_best_point(self, ref_params):
        records = synth_counts(ref_params, 10_000, seed=8)
        objective = _make_objective(records, "equal")
        start = math.fsum(objective(np.zeros(10))[0] ** 2)
        for budget in (1, 2, 5, 6, 8, 11):
            result = fit_parameters(records, max_evals=budget)
            assert result.evaluations == budget
            assert not result.converged
            assert result.held == ()
            assert result.residual <= start
            fitted = math.fsum(objective(result.params.as_vector())[0] ** 2)
            assert fitted == pytest.approx(result.residual, rel=1e-12)

    def test_unconstrained_angles_held_at_init(self, ref_params):
        result = fit_parameters(
            read_counts_file(reference_counts_path()), init=ref_params
        )
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
        records = design_records(tmp_path, seed)
        _, want = trf_fit_oracle(records)
        result = fit_parameters(records)
        assert result.converged
        assert abs(result.residual - want) <= 1e-9 * want

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
    def test_converges_from_zero_in_few_evaluations(self, tmp_path, seed):
        # The Jacobian is analytic; only the four columns that vanish at the
        # zero start cost forward-difference calls. Each fit's evaluations,
        # termination and printed residual are pinned per weighting, so a
        # change to the solver's arithmetic or steps shows here.
        records = design_records(tmp_path, seed)
        for weighting, want in FIT_TRAJECTORIES[seed].items():
            result = fit_parameters(records, weighting=weighting)
            assert result.converged
            assert result.evaluations <= 15
            got = (result.evaluations, result.termination, f"{result.residual:.6e}")
            assert got == want

    @pytest.mark.parametrize("seed", [None, 1, 2])
    def test_jacobian_taken_at_start_and_accepted_steps_only(
        self, tmp_path, monkeypatch, seed
    ):
        # Spy on the residual function the solver gets: per call, its point,
        # its cost and how often its Jacobian was asked for.
        calls = []
        solve = error_model._trust_region_lm

        def spied_solver(fun, z):
            def spied(z):
                r, jacobian = fun(z)
                call = {"z": z.copy(), "cost": r @ r, "jacobians": 0}
                calls.append(call)

                def counted():
                    call["jacobians"] += 1
                    return jacobian()

                return r, counted

            return solve(spied, z)

        monkeypatch.setattr(error_model, "_trust_region_lm", spied_solver)
        result = fit_parameters(design_records(tmp_path, seed))
        assert result.converged
        assert result.evaluations == len(calls)
        start, probes, trials = calls[0], calls[1:5], calls[5:]
        assert not start["z"].any()
        assert start["jacobians"] == 1
        # The four forward-difference probes of the zero start.
        for shifted in probes:
            assert np.count_nonzero(shifted["z"]) == 1
            assert shifted["jacobians"] == 0
        assert trials
        # A trial is accepted when it lowers the cost and the solver goes on
        # from it. The last trial ends the fit by "ftol" or "xtol" without
        # being accepted; "gtol" ends it at the start of the next iteration.
        cost = start["cost"]
        for k, trial in enumerate(trials):
            accepted = trial["cost"] < cost and (
                k < len(trials) - 1 or result.termination == "gtol"
            )
            assert trial["jacobians"] == int(accepted)
            if accepted:
                cost = trial["cost"]

    def test_recovers_seeded_truths_as_often_as_scipy(self):
        found = trf_found = 0
        for k in range(12):
            truth = seeded_truth(f"recovery:{k}", 30.0)
            records = synth_counts(truth, 10**9)
            result = fit_parameters(records)
            found += recovered(result.params.as_vector(), result.residual, truth)
            trf_found += recovered(*trf_fit_oracle(records), truth)
        assert found >= trf_found

    def test_solver_stops_when_steps_become_negligible(self):
        # Every trial step raises the cost (1 + |z|)^2, so z stays at 0 and
        # the trust radius shrinks until a step is below 1e-8 * (1e-8 + |z|).
        calls = []

        def residual(z):
            calls.append(z.copy())
            slope = 1.0 if z[0] >= 0.0 else -1.0
            return np.array([1.0 + abs(z[0])]), lambda: np.array([[slope]])

        assert _trust_region_lm(residual, np.zeros(1)) == "xtol"
        assert len(calls) == 29
        assert 0.0 < abs(calls[-1][0]) < 1e-16

    def test_fit_into_the_box_bound_stops_early(self):
        # From zero, this truth's fit runs d_theta_a_d into the +90 deg bound
        # at a local minimum. A solver that clips each trial point to the box,
        # instead of shortening the step, grinds there until the budget runs out.
        truth = seeded_truth("map:60:2", 60.0)
        result = fit_parameters(synth_counts(truth, 10**9), max_evals=1_000)
        assert result.termination in ("ftol", "xtol", "gtol")
        assert result.evaluations <= 300
