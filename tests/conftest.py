import math

import numpy as np
import pytest

from fpbsim import (
    OUTCOME_ORDER,
    Bb84State,
    ErrorModelParams,
    ProbeConfig,
    SiftBasis,
    estimate_probabilities,
    predict_outcome_probs,
)
from fpbsim.error_model import _PARAM_KEYS, _held_keys, _make_objective

RT2 = math.sqrt(2.0)


def frame(deg: float) -> np.ndarray:
    """Real polarization state at ``deg`` degrees in the control frame."""
    return np.array([math.cos(math.radians(deg)), math.sin(math.radians(deg))])


#: Control-frame polar angles (degrees) of the four BB84 states.
FRAME_DEG = {
    Bb84State.H: -22.5,
    Bb84State.V: 67.5,
    Bb84State.D: 22.5,
    Bb84State.A: 112.5,
}


def target_triple(pe: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Probe output components ``(t0, t1, te)`` of the ideal attack.

    ``t0`` and ``t1`` accompany Bob reading bit 0 / bit 1 on error-free
    sift events, ``te`` accompanies error events:
    ``t0 = (c/sqrt2 + s/2, c/sqrt2 - s/2)``, ``t1`` is ``t0`` with the
    components swapped, and ``te = (s/2, -s/2)``, with ``c = sqrt(1 - 2*pe)``
    and ``s = sqrt(2*pe)``. The vectors are deliberately unnormalized:
    ``|t0|^2 = |t1|^2 = 1 - pe`` and ``|te|^2 = pe``.
    """
    c, s = math.sqrt(1 - 2 * pe), math.sqrt(2 * pe)
    t0 = np.array([c / RT2 + s / 2, c / RT2 - s / 2])
    return t0, t0[::-1], np.array([s / 2, -s / 2])


def analytic_output(state: Bb84State, pe: float) -> np.ndarray:
    """Attack output built from its analytic decomposition.

    Constructs the control-frame basis vectors and the probe output
    components directly from the error probability, independent of the
    forward model under test.
    """
    t0, t1, te = target_triple(pe)
    h, v, d, a = (frame(FRAME_DEG[Bb84State(x)]) for x in "HVDA")
    decomposition = {
        Bb84State.H: np.kron(h, t0) + np.kron(v, te),
        Bb84State.V: np.kron(v, t1) + np.kron(h, te),
        Bb84State.D: np.kron(d, t0) - np.kron(a, te),
        Bb84State.A: np.kron(a, t1) - np.kron(d, te),
    }
    return decomposition[state]


def analytic_probs(state: Bb84State, basis: SiftBasis, pe: float) -> np.ndarray:
    """Ideal detection probabilities in ``OUTCOME_ORDER`` from the oracle.

    Projects ``analytic_output`` onto Bob's basis state for each bit
    (photon) and Eve's computational state (probe).
    """
    psi = analytic_output(state, pe).reshape(2, 2)
    bob = {s.bit: frame(FRAME_DEG[s]) for s in basis.states}
    return np.array([abs(bob[b] @ psi[:, e]) ** 2 for b, e in OUTCOME_ORDER])


def error_probability(alice: Bb84State, cfg: ProbeConfig) -> float:
    """Ideal-attack probability that Bob, measuring in Alice's basis, gets
    the wrong bit, summed from the forward model's detection cells."""
    probs = predict_outcome_probs(ErrorModelParams(), alice, alice.basis, cfg)
    return sum(p for p, (b, _) in zip(probs, OUTCOME_ORDER) if b != alice.bit)


#: ``OUTCOME_ORDER`` index of each Bob/Eve cell (b, e), as ``[b][e]``.
_BOB_CELLS = [[OUTCOME_ORDER.index((b, e)) for e in (0, 1)] for b in (0, 1)]


def sift_cells_oracle(rows) -> tuple[np.ndarray, float]:
    """Scalar sift of one (bit-0, bit-1) pair of outcome rows.

    The one-pair implementation that ``probe.sift_cells`` replaced, kept
    as the reference its stacked form must equal bit for bit.
    """
    (b0e0, b0e1), (b1e0, b1e1) = _BOB_CELLS
    zero, one = rows
    table = np.array(
        [[0.5 * zero[b0e0], 0.5 * zero[b0e1]], [0.5 * one[b1e0], 0.5 * one[b1e1]]]
    )
    error_rate = 0.5 * (zero[b1e0] + zero[b1e1]) + 0.5 * (one[b0e0] + one[b0e1])
    return table, float(error_rate)


def renyi_information_oracle(table) -> float:
    """Scalar Renyi information of one raw 2x2 Bob/Eve table.

    The one-table loop that ``probe.renyi_information`` replaced, kept as
    the reference its stacked form must equal bit for bit. Its mass check
    follows the current rule: a total that is not positive has no mass.
    """
    table = np.asarray(table, dtype=float).reshape(2, 2)
    if np.any(table < 0.0) or not np.isfinite(table).all():
        raise ValueError("joint table entries must be finite and nonnegative")
    total = table.sum()
    if not total > 0.0:
        raise ValueError("joint table has no probability mass")
    p = table / total
    prior_b = p.sum(axis=1)
    prior_e = p.sum(axis=0)
    prior_term = -math.log2(float(np.sum(prior_b**2)))
    cond_term = 0.0
    for e in (0, 1):
        pe = float(prior_e[e])
        if pe <= 0.0:
            continue
        cond = p[:, e] / pe
        cond_term += pe * math.log2(float(np.sum(cond**2)))
    return prior_term + cond_term


def residuals_oracle(records, weighting: str, x) -> np.ndarray:
    """Weighted residual vector built record by record.

    The per-record ``np.concatenate`` form that the fit objective's one
    array operation replaced, kept as the reference it must equal bit for
    bit.
    """
    records = sorted(
        records,
        key=lambda r: (r.alice.value, r.bob_basis.value, r.pe_nominal, r.counts),
    )
    mean_total = sum(record.total for record in records) / len(records)
    params = ErrorModelParams.from_vector(x)
    parts = []
    for record, estimated in zip(records, estimate_probabilities(records)):
        weight = 1.0 if weighting == "equal" else record.total / mean_total
        predicted = predict_outcome_probs(
            params, record.alice, record.bob_basis, ProbeConfig(record.pe_nominal)
        )
        parts.append(math.sqrt(weight) * (estimated - predicted))
    return np.concatenate(parts)


def trf_fit_oracle(records) -> tuple[np.ndarray, float]:
    """Fit from zero with scipy's trust-region reflective least squares.

    The solver the numpy fit replaced, kept as the reference it must
    match: the same objective over the same free angles and box. Returns
    the fitted 10-vector (its alpha >= 0 representative) and the summed
    squared residuals there.
    """
    from scipy.optimize import least_squares

    objective = _make_objective(records, "equal")
    held = _held_keys(records)
    free = np.array([key not in held for key in _PARAM_KEYS])
    bound = math.nextafter(math.pi / 2, 0.0)

    def free_residuals(z):
        x = np.zeros(10)
        x[free] = z
        return objective(x)

    result = least_squares(
        free_residuals, np.zeros(int(free.sum())), bounds=(-bound, bound),
        method="trf",
    )
    x = np.zeros(10)
    x[free] = result.x
    if x[6] < 0.0:
        x[[0, 1, 6, 7]] *= -1.0
    return x, math.fsum(result.fun**2)


def states_close(a, b, tol: float = 1e-9) -> bool:
    """Amplitude-wise equality of two state vectors up to a global phase.

    The compensating phase is the one maximizing the overlap of the two
    vectors, so physically identical states compare equal regardless of
    an overall phase factor.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    overlap = np.vdot(b, a)
    phase = overlap / abs(overlap) if abs(overlap) > 0.0 else 1.0
    return bool(np.max(np.abs(a / phase - b)) <= tol)


@pytest.fixture(scope="session")
def ref_params() -> ErrorModelParams:
    """Hardware-calibration parameter set used for round-trip tests.

    Same values as the bundled data/example_params.json.
    """
    deg = math.radians
    return ErrorModelParams(
        d_xi=deg(3.0),
        d_chi=deg(-11.0),
        d_theta_a=(deg(3.2), deg(0.9), deg(-0.7), deg(-2.3)),
        alpha=deg(12.3),
        delta=deg(3.6),
        d_theta_b=(deg(-1.8), 0.0),
    )


#: 3-decimal ideal-model detection probabilities for the reference layout,
#: keyed (alice, pe), values in outcome order (1,0),(1,1),(0,1),(0,0).
IDEAL_EXPECTED = {
    ("D", 0.0): (0.0, 0.0, 0.500, 0.500),
    ("D", 0.1): (0.050, 0.050, 0.167, 0.733),
    ("D", 1 / 3): (0.167, 0.167, 0.0, 0.667),
    ("A", 0.0): (0.500, 0.500, 0.0, 0.0),
    ("A", 0.1): (0.167, 0.733, 0.050, 0.050),
    ("A", 1 / 3): (0.0, 0.667, 0.167, 0.167),
}

#: 3-decimal normalized probabilities of the bundled measured counts,
#: keyed (alice, pe_nominal).
MEASURED_ESTIMATED = {
    ("D", 0.0): (0.027, 0.037, 0.469, 0.468),
    ("D", 0.1): (0.058, 0.086, 0.196, 0.661),
    ("D", 0.33): (0.152, 0.192, 0.031, 0.625),
    ("A", 0.0): (0.469, 0.484, 0.024, 0.023),
    ("A", 0.1): (0.173, 0.702, 0.083, 0.042),
    ("A", 0.33): (0.022, 0.655, 0.190, 0.133),
}


@pytest.fixture(scope="session")
def ideal_expected():
    return IDEAL_EXPECTED


@pytest.fixture(scope="session")
def measured_estimated():
    return MEASURED_ESTIMATED


@pytest.fixture(scope="session")
def all_states():
    return tuple(Bb84State)
