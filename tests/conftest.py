import cmath
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from fpbsim import (
    OUTCOME_ORDER,
    Bb84State,
    CountsColumns,
    CountsFileError,
    ErrorModelParams,
    SiftBasis,
    predict_outcome_probs,
)
from fpbsim.error_model import (
    _ANGLE_TERMS,
    _BASIS_ANGLES,
    _BASIS_COLUMNS,
    _PARAM_KEYS,
    _SHARED_COLUMNS,
    _STATE_ANGLES,
    _STATE_COLUMNS,
    _amplitudes,
    _held_keys,
    _make_objective,
    _phases,
)
from fpbsim.montecarlo import _BASES, _STATES, ASCII_SPACE

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

#: The same angles in radians, written ``k*pi/8`` as the forward model
#: writes them, so that oracles built on them compare with it bit for bit.
FRAME_RAD = {
    Bb84State.H: -math.pi / 8,
    Bb84State.V: 3 * math.pi / 8,
    Bb84State.D: math.pi / 8,
    Bb84State.A: 5 * math.pi / 8,
}


def probe_angle_oracle(pe: float) -> float:
    """The probe's preparation angle at error probability ``pe`` in
    [0, 0.5], with ``c = sqrt(1 - 2*pe)`` and ``s = sqrt(2*pe)``: the
    arithmetic of the ``ProbeConfig`` class that ``probe._probe_angle``
    replaced, kept as the reference it must equal bit for bit."""
    pe = pe + 0.0
    c = math.sqrt(1.0 - 2.0 * pe)
    s = math.sqrt(2.0 * pe)
    return math.atan2((c - s) / RT2, (c + s) / RT2)


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


def error_probability(alice: Bb84State, pe: float) -> float:
    """Ideal-attack probability that Bob, measuring in Alice's basis, gets
    the wrong bit, summed from the forward model's detection cells."""
    probs = predict_outcome_probs(ErrorModelParams(), alice, alice.basis, pe)
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


def from_vector_oracle(x) -> list[float]:
    """The floats of ``x`` as ``ErrorModelParams.from_vector`` took them when
    it checked them with numpy, kept as the reference for its values and
    for its ValueError messages, raised in the same order."""
    x = [float(v) for v in x]
    if len(x) != 10:
        raise ValueError(f"expected 10 parameters, got {len(x)}")
    values = np.array(x)
    if not np.isfinite(values).all():
        raise ValueError("error-model parameters must be finite")
    if np.any(np.abs(values) >= math.pi / 2):
        raise ValueError("error-model angles must satisfy |angle| < pi/2 radians")
    return x


def residuals_oracle(records, weighting: str, x) -> np.ndarray:
    """Weighted residual vector built record by record from ``CountsRecord``s.

    The per-record ``np.concatenate`` form that the fit objective's one
    array operation on ``CountsColumns`` replaced, kept as the reference it
    must equal bit for bit. Each count and total is converted once from
    its exact integer.
    """
    records = sorted(
        records,
        key=lambda r: (r.alice.value, r.bob_basis.value, r.pe_nominal, r.counts),
    )
    mean_total = sum(record.total for record in records) / len(records)
    params = ErrorModelParams.from_vector(x)
    parts = []
    for record in records:
        estimated = np.array(record.counts, dtype=float) / float(record.total)
        weight = 1.0 if weighting == "equal" else record.total / mean_total
        predicted = predict_outcome_probs(
            params, record.alice, record.bob_basis, record.pe_nominal
        )
        parts.append(math.sqrt(weight) * (estimated - predicted))
    return np.concatenate(parts)


#: ``[state, basis]`` by index: where derivative ``[bob_bit, k, eve_bit]``
#: of ``jacobian_kernel_oracle`` goes in the flattened ``(4, 10)`` Jacobian:
#: row ``OUTCOME_ORDER.index((bob_bit, eve_bit))``, and the field-order column
#: of the k-th of d_xi, d_chi, the state's wave-plate offset, alpha, delta
#: and the basis's analyzer offset, the six parameters that move the
#: prediction.
JACOBIAN_SLOTS = np.array(
    [
        [
            [
                10 * OUTCOME_ORDER.index((b, e)) + _PARAM_KEYS.index(key)
                for b in (0, 1)
                for key in ("d_xi", "d_chi", _ANGLE_TERMS[state.value][1], "alpha",
                            "delta", _ANGLE_TERMS[basis.value][1])
                for e in (0, 1)
            ]
            for basis in _BASES
        ]
        for state in _STATES
    ]
)


def jacobian_kernel_oracle(state, basis, theta_in):
    """``error_model._jacobian_kernel`` with each derivative written by hand.

    Every one of the 24 derivatives of the output state is its own array
    expression in the gate's intermediate terms ``a = ia q1`` and ``b = ib
    q0`` and its per-control probe states ``u`` and ``w``, stacked by one
    ``np.array`` and rotated onto Bob's analyzed-bit states. Kept as the
    reference the kernel, which differentiates the closed form's inputs
    instead, must equal to rounding. Returns ``x -> (N, 4, 10)``.
    """
    n = len(state)
    theta_a, a_columns = _STATE_ANGLES[state], _STATE_COLUMNS[state]
    nominal, b_columns = _BASIS_ANGLES[basis], _BASIS_COLUMNS[basis]
    q0, sin_in = np.cos(theta_in), np.sin(theta_in)
    slots = (JACOBIAN_SLOTS[state, basis] + 40 * np.arange(n)[:, None]).ravel()
    zero = np.zeros(n)

    def jacobians(x):
        d_xi, d_chi, alpha, delta = x[_SHARED_COLUMNS].tolist()
        theta = theta_a + x[a_columns]
        p0, sin_a = np.cos(theta), np.sin(theta)
        chi_phase = cmath.exp(1j * d_chi)
        p1 = chi_phase * sin_a
        q1 = cmath.exp(1j * d_xi) * sin_in
        c, s = math.cos(alpha), math.sin(alpha)
        ep = cmath.exp(1j * delta)
        em = ep.conjugate()
        phi = nominal + x[b_columns]
        cos_b, sin_b = np.cos(phi), np.sin(phi)
        terms = _phases(d_xi, d_chi, alpha, delta)[-1]
        _, ia, ib, cxi = terms[:4]
        a, b = ia * sin_in, ib * q0
        u0, u1 = c * q0 + a, b + cxi * sin_in
        w0, w1 = cxi * sin_in - b, c * q0 - a
        analyzed = _amplitudes(p0, sin_a, q0, sin_in, terms, cos_b, sin_b)
        icq1 = 1j * c * q1
        ta, tb = 1j * em * c * q1, 1j * ep * c * q0
        dp1 = chi_phase * p0
        derivatives = np.array(
            [
                [
                    1j * p0 * a, p0 * icq1,
                    zero, zero,
                    -sin_a * u0, -sin_a * u1,
                    p0 * (ta - s * q0), p0 * (tb - s * q1),
                    -1j * p0 * a, 1j * p0 * b,
                    -p1 * w0, -p1 * w1,
                ],
                [
                    p1 * icq1, -1j * p1 * a,
                    1j * p1 * w0, 1j * p1 * w1,
                    dp1 * w0, dp1 * w1,
                    -p1 * (tb + s * q1), -p1 * (s * q0 + ta),
                    -1j * p1 * b, 1j * p1 * a,
                    p0 * u0, p0 * u1,
                ],
            ]
        )
        amplitudes = np.array(analyzed).reshape(2, 2, n)
        d_amplitudes = np.array(
            [cos_b * derivatives[0] - sin_b * derivatives[1],
             sin_b * derivatives[0] + cos_b * derivatives[1]]
        )
        products = amplitudes.conj()[:, None] * d_amplitudes.reshape(2, 6, 2, n)
        jac = np.zeros(40 * n)
        jac[slots] = 2.0 * products.real.transpose(3, 0, 1, 2).ravel()
        return jac.reshape(n, 4, 10)

    return jacobians


def objective_jacobian_oracle(records, weighting: str, x) -> np.ndarray:
    """The fit objective's ``(4 N, 10)`` Jacobian from ``jacobian_kernel_oracle``,
    with the records in ``residuals_oracle``'s order and weights."""
    records = sorted(
        records,
        key=lambda r: (r.alice.value, r.bob_basis.value, r.pe_nominal, r.counts),
    )
    mean_total = sum(record.total for record in records) / len(records)
    jacobians = jacobian_kernel_oracle(
        np.array([_STATES.index(record.alice) for record in records]),
        np.array([_BASES.index(record.bob_basis) for record in records]),
        np.array([probe_angle_oracle(record.pe_nominal) for record in records]),
    )(x)
    parts = []
    for record, jac in zip(records, jacobians):
        weight = 1.0 if weighting == "equal" else record.total / mean_total
        parts.append(-math.sqrt(weight) * jac)
    return np.concatenate(parts)


def trf_fit_oracle(counts: CountsColumns) -> tuple[np.ndarray, float]:
    """Fit from zero with scipy's trust-region reflective least squares.

    The solver the numpy fit replaced, kept as the reference it must
    match: the same objective over the same free angles and box. Returns
    the fitted 10-vector (its alpha >= 0 representative) and the summed
    squared residuals there.
    """
    from scipy.optimize import least_squares

    objective = _make_objective(counts, "equal")
    held = _held_keys(counts)
    free = np.array([key not in held for key in _PARAM_KEYS])
    bound = math.nextafter(math.pi / 2, 0.0)

    def free_residuals(z):
        x = np.zeros(10)
        x[free] = z
        return objective(x)[0]

    result = least_squares(
        free_residuals, np.zeros(int(free.sum())), bounds=(-bound, bound),
        method="trf",
    )
    x = np.zeros(10)
    x[free] = result.x
    if x[6] < 0.0:
        x[[0, 1, 6, 7]] *= -1.0
    return x, math.fsum(result.fun**2)


#: Nominal analyzer angle of each basis, radians.
ANALYZER_NOMINAL = {SiftBasis.HV: math.pi / 8, SiftBasis.DA: -math.pi / 8}


def nonideal_probe_state(pe: float, d_xi: float) -> np.ndarray:
    """Probe preparation for error probability ``pe`` with a residual phase
    ``d_xi`` on the upper state.

    Returns the normalized ``(2,)`` complex amplitudes.
    """
    theta_in = probe_angle_oracle(pe)
    return np.array([math.cos(theta_in), cmath.exp(1j * d_xi) * math.sin(theta_in)])


def nonideal_alice_state(alice: Bb84State, d_theta: float, d_chi: float) -> np.ndarray:
    """Alice's qubit with a wave-plate angle offset and residual phase.

    Returns the normalized ``(2,)`` complex amplitudes in the control
    frame; with zero offset and phase this is ``(cos theta, sin theta)``
    at the state's polar angle.
    """
    theta = FRAME_RAD[alice] + d_theta
    return np.array([math.cos(theta), cmath.exp(1j * d_chi) * math.sin(theta)])


def nonideal_pcnot(alpha: float, delta: float) -> np.ndarray:
    """Entangling gate with imbalance ``alpha`` and phase ``delta``.

    A ``(4, 4)`` complex matrix, block diagonal in the control bit; it
    reduces to the ideal CNOT at ``alpha = delta = 0`` and is unitary by
    construction for every real argument.
    """
    c = math.cos(alpha)
    s = math.sin(alpha)
    ep = cmath.exp(1j * delta)
    em = cmath.exp(-1j * delta)
    return np.array(
        [
            [c, 1j * em * s, 0.0, 0.0],
            [1j * ep * s, c, 0.0, 0.0],
            [0.0, 0.0, -1j * ep * s, c],
            [0.0, 0.0, c, -1j * em * s],
        ]
    )


def bob_analyzer(basis: SiftBasis, d_theta_b: float) -> np.ndarray:
    """Bob's two analyzed-bit states in the control frame.

    The analyzer angle is the basis nominal (+22.5 deg for HV, -22.5 deg
    for DA) plus the offset. Returns a ``(2, 2)`` array whose rows are the
    (bit-0, bit-1) states; with a zero offset these coincide with the
    basis states themselves.
    """
    theta = ANALYZER_NOMINAL[basis] + d_theta_b
    return np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )


def output_state_oracle(
    params: ErrorModelParams, alice: Bb84State, pe: float
) -> np.ndarray:
    """Output state built from the four building blocks above.

    The object pipeline that ``error_model.output_state`` replaced with its
    closed form: Alice's and the probe's states, their product, then the
    ``(4, 4)`` gate. Kept as the reference the closed form must match.
    """
    d_theta = getattr(params, f"d_theta_a_{alice.value.lower()}")
    photon = nonideal_alice_state(alice, d_theta, params.d_chi)
    probe = nonideal_probe_state(pe, params.d_xi)
    return nonideal_pcnot(params.alpha, params.delta) @ np.outer(photon, probe).ravel()


def shipped_output_state(
    params: ErrorModelParams, alice: Bb84State, pe: float
) -> tuple:
    """The shipped closed form's joint photon/probe state after the gate.

    ``error_model._amplitudes`` at analyzer angle 0, where the projection
    onto Bob's analyzed-bit states is the state itself, fed as
    ``predict_outcome_probs`` feeds it; four complex amplitudes.
    """
    theta, key = _ANGLE_TERMS[alice.value]
    theta += getattr(params, key)
    theta_in = probe_angle_oracle(pe)
    return _amplitudes(
        math.cos(theta), math.sin(theta), math.cos(theta_in), math.sin(theta_in),
        params._shared_terms, 1.0, 0.0,
    )


def predict_oracle(
    params: ErrorModelParams, alice: Bb84State, basis: SiftBasis, pe: float
) -> np.ndarray:
    """Detection probabilities in ``OUTCOME_ORDER`` from the object pipeline.

    ``output_state_oracle`` projected by the ``bob_analyzer`` matrix, as
    ``predict_outcome_probs`` computed them before its closed form.
    """
    analyzer = bob_analyzer(basis, getattr(params, f"d_theta_b_{basis.value.lower()}"))
    amplitudes = analyzer.conj() @ output_state_oracle(params, alice, pe).reshape(2, 2)
    return np.array([abs(amplitudes[b, e]) ** 2 for b, e in OUTCOME_ORDER])


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


#: Only ASCII whitespace may pad a counts-file line or field.
_PAD = "[ \t\n\r\x0b\x0c]*"
_REAL = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
#: Reference grammar of a counts-file line, one pattern per comma-separated
#: field to ``fullmatch`` it raw, padding included: the input state, Bob's
#: basis, the pe, four counts of ASCII decimal digits, and an optional
#: duration. The pe and duration are ASCII decimal reals without '_'; the
#: spellings of inf and nan that ``float`` also reads are out of range for
#: both, so leaving them out changes no verdict.
COUNTS_LINE_GRAMMAR = tuple(
    re.compile(_PAD + core + _PAD)
    for core in ("[HVDA]", "(?:HV|DA)", _REAL, *["[0-9]+"] * 4, _REAL)
)


def counts_line_accepted(fields) -> bool:
    """Whether a counts file should accept the line ``",".join(fields)``.

    Every field must match ``COUNTS_LINE_GRAMMAR`` and the values must pass
    the record checks: pe in [0, 0.5], a positive total of at most
    2**63 - 1, and a finite, nonnegative duration. The counts are read by
    ``_count_oracle``, so a count of any length gets a verdict.
    """
    if len(fields) not in (7, 8) or not all(
        pattern.fullmatch(field) for pattern, field in zip(COUNTS_LINE_GRAMMAR, fields)
    ):
        return False
    pe = float(fields[2])
    total = sum(_count_oracle(field.strip(ASCII_SPACE)) for field in fields[3:7])
    duration = float(fields[7]) if len(fields) == 8 else 0.0
    finite_duration = math.isfinite(duration) and duration >= 0.0
    return 0.0 <= pe <= 0.5 and 0 < total <= 2**63 - 1 and finite_duration


@dataclass(frozen=True)
class CountsRecord:
    """Measured coincidence counts for one configuration: the record of
    ``parse_counts_oracle`` and the tests' builder of single records.

    ``counts`` holds the four detector coincidences in ``OUTCOME_ORDER``.
    Its checks state the record rules of a counts line apart from the
    library's ``montecarlo._record``, with the same order and messages:
    pe in [0, 0.5] (a -0.0 is stored as 0.0), four nonnegative integer
    counts, a positive total of at most 2**63 - 1, and a finite,
    nonnegative duration.
    """

    alice: Bb84State
    bob_basis: SiftBasis
    pe_nominal: float
    counts: tuple[int, int, int, int]
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.pe_nominal <= 0.5:
            raise ValueError(
                f"error probability must be in [0, 0.5], got {self.pe_nominal}"
            )
        object.__setattr__(self, "pe_nominal", self.pe_nominal + 0.0)
        if len(self.counts) != 4 or any(
            not isinstance(c, int) or isinstance(c, bool) or c < 0
            for c in self.counts
        ):
            raise ValueError("counts must be 4 nonnegative integers")
        if self.total == 0:
            raise ValueError("record has zero total counts")
        if self.total > 2**63 - 1:
            raise ValueError("record total counts exceed 2**63 - 1")
        if self.duration_s is not None and not (
            math.isfinite(self.duration_s) and self.duration_s >= 0.0
        ):
            raise ValueError(
                f"duration must be finite and nonnegative, got {self.duration_s}"
            )

    @property
    def total(self) -> int:
        return sum(self.counts)


def _float_field_oracle(name: str, text: str) -> float:
    if not text:
        raise ValueError(f"{name} '' is not a number")
    return float(text)


def _count_oracle(text: str) -> int:
    """A count field of ASCII digits, read by its significant digits.

    ``int()`` refuses more than 4300 digits. A count of 20 significant
    digits is past 2**63 - 1, so its record fails the total check whatever
    its other counts; the first 20 digits of a longer count stand in for
    it."""
    return int(text.lstrip("0")[:20] or "0")


def _parse_record_oracle(line: str) -> CountsRecord:
    fields = [f.strip(ASCII_SPACE) for f in line.split(",")]
    if len(fields) not in (7, 8):
        raise ValueError(f"expected 7 or 8 comma-separated fields, got {len(fields)}")
    alice = Bb84State(fields[0])
    basis = SiftBasis(fields[1])
    for text in fields[3:7]:
        if not (text.isascii() and text.isdigit()):
            raise ValueError(f"count {text!r} is not a nonnegative decimal integer")
    for text in fields[2:3] + fields[7:]:
        if not text.isascii() or "_" in text:
            raise ValueError(f"{text!r} is not an ASCII number")
    pe = _float_field_oracle("pe", fields[2])
    counts = tuple(map(_count_oracle, fields[3:7]))
    duration = _float_field_oracle("duration", fields[7]) if len(fields) == 8 else None
    return CountsRecord(alice, basis, pe, counts, duration)


def parse_counts_oracle(lines, source: str = "<counts>") -> list[CountsRecord]:
    """Counts-file lines parsed one line and one field at a time.

    The per-line parser that the columnar ``montecarlo`` reader replaced,
    with each count field checked on its own and an empty pe or duration
    named, kept as the reference whose records, or whose CountsFileError
    text, the reader must equal.
    """
    records = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip(ASCII_SPACE)
        if not stripped or stripped.startswith("#"):
            continue
        try:
            records.append(_parse_record_oracle(stripped))
        except ValueError as exc:
            raise CountsFileError(f"{source}:{lineno}: {exc}") from exc
    return records


def sift_summaries_oracle(records) -> list[tuple]:
    """Sift groups collected in a dict, one record at a time.

    The grouping that ``CountsColumns.sift_summaries``'s one sort replaced,
    kept as the reference it must equal (NaN where it has NaN): groups by
    (basis, pe), HV first, each by increasing pe, complete groups reduced
    by the scalar sift and Renyi oracles.
    """
    groups = {}
    for record in records:
        if record.alice.basis is record.bob_basis:
            groups.setdefault((record.bob_basis, record.pe_nominal), []).append(record)
    rows = []
    for key in sorted(groups, key=lambda key: (key[0] is not SiftBasis.HV, key[1])):
        members = groups[key]
        if len({record.alice for record in members}) < 2:
            rows.append((*key, math.nan, math.nan, "is missing a paired input state"))
        elif len(members) > 2:
            rows.append(
                (*key, math.nan, math.nan, "needs exactly one record per input state")
            )
        else:
            members = sorted(members, key=lambda record: record.alice.bit)
            table, error_rate = sift_cells_oracle(
                [[c / float(r.total) for c in map(float, r.counts)] for r in members]
            )
            renyi = renyi_information_oracle(table) if table.sum() > 0.0 else math.nan
            rows.append((*key, renyi, error_rate, None))
    return rows


def columns_from_records(records) -> CountsColumns:
    """``CountsRecord``s as columns, built one record at a time.

    The record-list constructor that ``CountsColumns`` dropped, kept as
    the reference the parser's columns must equal. Counts are int64.
    """
    records = list(records)
    states, bases = list(Bb84State), list(SiftBasis)
    return CountsColumns(
        np.array([states.index(r.alice) for r in records], dtype=np.intp),
        np.array([bases.index(r.bob_basis) for r in records], dtype=np.intp),
        np.array([r.pe_nominal for r in records], dtype=float),
        np.array([r.counts for r in records], dtype=np.int64).reshape(-1, 4),
        np.array(
            [math.nan if r.duration_s is None else r.duration_s for r in records],
            dtype=float,
        ),
    )


def draw_counts(probs, n_pairs: int, seed: int) -> tuple[int, int, int, int]:
    """One seeded multinomial draw of ``n_pairs`` detection events over the
    four outcome probabilities ``probs``, renormalized: the draw that
    ``fpbsim simulate`` makes for each of its rows."""
    probs = np.asarray(probs, dtype=float)
    draw = np.random.default_rng(seed).multinomial(n_pairs, probs / probs.sum())
    return tuple(int(c) for c in draw)


def noise_free_counts(probs, n_pairs: int) -> tuple[int, int, int, int]:
    """Deterministic counts ``round(p * n)`` with the total forced exact.

    ``probs`` holds the four outcome probabilities in ``OUTCOME_ORDER``.
    Rounding is half-to-even; any leftover after rounding is absorbed by
    the largest cell so the counts sum to ``n_pairs``.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be at least 1, got {n_pairs}")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (4,) or not np.all(np.isfinite(probs) & (probs >= 0.0)):
        raise ValueError("expected 4 finite nonnegative outcome probabilities")
    cells = [round(float(p) * n_pairs) for p in probs]
    cells[int(np.argmax(probs))] += n_pairs - sum(cells)
    return tuple(int(c) for c in cells)


def take_rows(counts: CountsColumns, rows) -> CountsColumns:
    """The rows ``rows`` (indices, a slice or a mask) of every column."""
    return CountsColumns(*(column[rows] for column in counts))


def assert_columns_equal(got: CountsColumns, want: CountsColumns) -> None:
    """Assert two ``CountsColumns`` hold the same records in the same order:
    every column of the same dtype and shape, and of the same bytes, so
    that -0.0 differs from 0.0 and NaN durations compare equal; the
    derived ``totals`` likewise.
    """
    for name in (*CountsColumns._fields, "totals"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name


@pytest.fixture(scope="session")
def ref_params() -> ErrorModelParams:
    """Hardware-calibration parameter set used for round-trip tests.

    Same values as the bundled data/example_params.json.
    """
    deg = math.radians
    return ErrorModelParams(
        d_xi=deg(3.0),
        d_chi=deg(-11.0),
        d_theta_a_h=deg(3.2),
        d_theta_a_d=deg(0.9),
        d_theta_a_v=deg(-0.7),
        d_theta_a_a=deg(-2.3),
        alpha=deg(12.3),
        delta=deg(3.6),
        d_theta_b_hv=deg(-1.8),
        d_theta_b_da=0.0,
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
