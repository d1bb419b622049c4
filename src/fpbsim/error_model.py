"""Forward model of the entangling-probe attack and its least-squares fit.

One model covers both the ideal attack and real hardware. Ten angle
parameters describe the deviations of a real setup from the ideal
attack: a residual phase on the probe preparation, a residual phase and
four per-state wave-plate offsets on Alice's qubit, an imbalance and
phase of the entangling gate, and one analyzer offset per measurement
basis. With all ten at zero the model is the ideal attack. They are the
fields of ``ErrorModelParams``, named and ordered as the parameter file.
The probe enters as one float, the error probability pe that it induces,
which alone fixes its preparation angle through ``probe._probe_angle``.

The model is one closed form, ``_amplitudes``: the amplitudes of the
state after the entangling gate, projected onto Bob's analyzer, with no
complex by complex product, so that Python numbers and numpy arrays round
it alike. It runs in two stages: ``_gated_probe``, the gate acting on the
probe, which depends only on the parameters and pe, then ``_analyzed``,
the photon and the analyzer. ``predict_outcome_probs`` evaluates it on
numbers for one configuration and ``_predict`` on arrays for many, with
bit-identical rows. What depends only on the ten angles is computed once,
when an ``ErrorModelParams`` is made: ``_phases``, and ``math``'s cosine
and sine of the four state and two analyzer angles. Both forward paths and
the Jacobian read them from the object and take no trigonometry of those
angles themselves; stage 1 is kept per pe on the object, for a bounded
number of pe values.
Two-qubit amplitudes are ordered control-major, index
``2*c + t`` for photon (control) bit ``c`` and probe (target) bit ``t``.
Probabilities come in ``OUTCOME_ORDER``; the model is unitary by
construction, so they are not re-validated. ``model_sift_summaries``
predicts a pe grid in fixed-size chunks and reduces each with one stacked
``probe.sift_cells`` and ``probe.renyi_information`` pass, as
``montecarlo.CountsColumns.sift_summaries`` does for measured counts.
``fit_parameters`` recovers the ten parameters from measured counts with a
bounded trust-region Levenberg-Marquardt solver on the weighted residual
vector, which still predicts each record with ``predict_outcome_probs``,
and its analytic Jacobian, ``_jacobian_kernel``. The closed form is linear
in its gate and phase terms, in the photon's cosine and sine and in the
analyzer's, so the kernel writes no derivative of its own: it runs both
stages of ``_amplitudes`` at the derivatives of those inputs, over one
stacked array, taken at the cosines and sines the residual predicts with.
Angles are radians; degrees appear only at I/O boundaries.
"""

from __future__ import annotations

import cmath
import math
import numbers
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, fields, replace
from itertools import compress

import numpy as np

from .montecarlo import _BASES, _STATE_BASIS, _STATES, CountsColumns
from .probe import OUTCOME_ORDER, Bb84State, SiftBasis
from .probe import _probe_angle, renyi_information, sift_cells

#: Fit box constraint on every parameter, radians.
ANGLE_BOUND = math.pi / 2
#: Most pe values one ``ErrorModelParams`` keeps ``_gated_at``'s result for.
_GATED_MEMO_SIZE = 256


@dataclass(frozen=True)
class ErrorModelParams:
    """The ten hardware error parameters, all angles in radians.

    The fields carry the parameter-file key names, in the order of the
    file, of ``as_vector`` and of the fit vector.

    Attributes
    ----------
    d_xi:
        Residual probe-preparation phase left after the nominal hardware
        compensation.
    d_chi:
        Residual phase on Alice's qubit after its nominal compensation.
    d_theta_a_h, d_theta_a_d, d_theta_a_v, d_theta_a_a:
        Wave-plate offsets of Alice's state angle for the H, D, V and A
        inputs.
    alpha, delta:
        Imbalance and phase of the entangling gate; zero for an ideal gate.
    d_theta_b_hv, d_theta_b_da:
        Analyzer angle offsets of the HV and DA bases.
    """

    d_xi: float = 0.0
    d_chi: float = 0.0
    d_theta_a_h: float = 0.0
    d_theta_a_d: float = 0.0
    d_theta_a_v: float = 0.0
    d_theta_a_a: float = 0.0
    alpha: float = 0.0
    delta: float = 0.0
    d_theta_b_hv: float = 0.0
    d_theta_b_da: float = 0.0

    def __post_init__(self) -> None:
        values = [getattr(self, key) for key in _PARAM_KEYS]
        # In Python numbers: a NaN fails the first comparison, so only a
        # vector with some angle outside the box reaches the messages.
        if not all(-ANGLE_BOUND < value < ANGLE_BOUND for value in values):
            if not all(map(math.isfinite, values)):
                raise ValueError("error-model parameters must be finite")
            raise ValueError("error-model angles must satisfy |angle| < pi/2 radians")
        # What every prediction with this object reads, as plain attributes
        # outside the fields, so ==, hash and repr see only the ten angles:
        # ``_phases`` of the shared angles, ``math``'s cosine and sine of
        # each state's and each basis's angle plus its offset, keyed as
        # ``_ANGLE_TERMS``, and ``_gated_at``'s results by pe.
        trig = {}
        for name, (nominal, key) in _ANGLE_TERMS.items():
            angle = nominal + getattr(self, key)
            trig[name] = math.cos(angle), math.sin(angle)
        object.__setattr__(self, "_trig", trig)
        object.__setattr__(
            self, "_phases", _phases(self.d_xi, self.d_chi, self.alpha, self.delta)
        )
        object.__setattr__(self, "_gated_memo", {})

    def _gated_at(self, pe: float) -> tuple:
        """``_gated_probe`` of this object's ``_phases`` at the probe angle
        of ``pe``, with ``math``'s cosine and sine of that angle.

        Kept on this object for at most ``_GATED_MEMO_SIZE`` pe values: a
        fit's evaluation predicts each record with one object, over a few
        pe values. A rejected pe raises on every call and is never stored.
        """
        memo = self._gated_memo
        try:
            return memo[pe]
        except KeyError:
            pass
        theta_in = _probe_angle(pe)
        gated = _gated_probe(self._phases[-1], math.cos(theta_in), math.sin(theta_in))
        if len(memo) < _GATED_MEMO_SIZE:
            memo[pe] = gated
        return gated

    def as_vector(self) -> np.ndarray:
        """Flat parameter vector in field order, radians."""
        return np.array([getattr(self, key) for key in _PARAM_KEYS])

    @classmethod
    def from_vector(cls, x: Sequence[float]) -> "ErrorModelParams":
        x = [float(v) for v in x]
        if len(x) != 10:
            raise ValueError(f"expected 10 parameters, got {len(x)}")
        return cls(*x)

    def to_dict(self) -> dict[str, float]:
        """Flat key/value form with angles in degrees."""
        return {key: math.degrees(getattr(self, key)) for key in _PARAM_KEYS}

    @classmethod
    def from_dict(cls, doc: Mapping[str, float]) -> "ErrorModelParams":
        """Parse the flat degree-valued form; unknown keys are ignored.

        ``doc`` must be a mapping (a JSON object), and each value a real
        number (a JSON number); a string or a boolean is rejected.
        """
        if not isinstance(doc, Mapping):
            raise ValueError("parameter document must be a JSON object")
        missing = [key for key in _PARAM_KEYS if key not in doc]
        if missing:
            raise ValueError(f"parameter document missing keys: {missing}")
        values = []
        for key in _PARAM_KEYS:
            value = doc[key]
            if isinstance(value, bool):
                raise ValueError(f"parameter {key}: a boolean is not an angle")
            if not isinstance(value, numbers.Real):
                raise ValueError(f"parameter {key}: {value!r} is not a number")
            try:
                values.append(math.radians(float(value)))
            except OverflowError as exc:
                raise ValueError(f"parameter {key}: {exc}") from exc
        return cls.from_vector(values)


#: Parameter-file keys in vector order: the field names.
_PARAM_KEYS = tuple(f.name for f in fields(ErrorModelParams))
#: The model's one table of nominal angles, radians in the control frame,
#: whose basis is the H-V basis rotated by pi/8. Per input state, its polar
#: angle and the field of its wave-plate offset: H at -22.5 deg, V at 67.5,
#: D at 22.5 and A at 112.5. Per basis, its analyzer angle and the field of
#: its analyzer offset: +22.5 deg for HV and -22.5 deg for DA, where Bob's
#: analyzed-bit states are the basis states. Keyed by the counts-file
#: spelling, ``member._value_``: a plain attribute, where hashing an Enum
#: member runs Python code.
_ANGLE_TERMS = {
    "H": (-math.pi / 8, "d_theta_a_h"),
    "V": (3 * math.pi / 8, "d_theta_a_v"),
    "D": (math.pi / 8, "d_theta_a_d"),
    "A": (5 * math.pi / 8, "d_theta_a_a"),
    "HV": (math.pi / 8, "d_theta_b_hv"),
    "DA": (-math.pi / 8, "d_theta_b_da"),
}


def _index_terms(members) -> tuple[np.ndarray, np.ndarray]:
    """``_ANGLE_TERMS`` of ``members`` as arrays: the rows of their
    ``_trig`` entries, in ``_ANGLE_TERMS`` order, and the field-order
    columns of their offsets."""
    names = [member.value for member in members]
    rows = [list(_ANGLE_TERMS).index(name) for name in names]
    columns = [_PARAM_KEYS.index(_ANGLE_TERMS[name][1]) for name in names]
    return np.array(rows), np.array(columns)


#: ``_ANGLE_TERMS`` by the state and basis indices of ``CountsColumns``.
_STATE_ROWS, _STATE_COLUMNS = _index_terms(_STATES)
_BASIS_ROWS, _BASIS_COLUMNS = _index_terms(_BASES)


def _phases(d_xi, d_chi, alpha, delta):
    """``chi, xi = exp(i d_chi), exp(i d_xi)``, ``c, s = cos, sin alpha``,
    ``exp(+-i delta)`` and ``_amplitudes``'s ``terms``: ``c``, ``ia = i
    exp(-i delta) s xi``, ``ib = i exp(i delta) s``, ``c xi``, then ``chi``
    times each."""
    chi, xi = cmath.exp(1j * d_chi), cmath.exp(1j * d_xi)
    c, s = math.cos(alpha), math.sin(alpha)
    ep = cmath.exp(1j * delta)
    em = ep.conjugate()
    gate = (c, 1j * em * s * xi, 1j * ep * s, c * xi)
    return chi, xi, c, s, ep, em, (*gate, *(chi * term for term in gate))


def _gated_probe(terms, q0, q1):
    """Stage 1 of ``_amplitudes``: the gate acting on the probe.

    ``(q0, q1)`` are the cosine and sine of the probe's preparation angle
    and ``terms`` the complex constants of ``_phases``. Returns ``c q0 + ia
    q1``, ``ib q0 + c xi q1``, ``chi (c xi q1 - ib q0)`` and ``chi (c q0 -
    ia q1)``, the probe's state after the gate for each control bit, the
    latter two with the phase ``chi`` of the photon's bit-1 amplitude. It
    depends only on the parameters and pe.
    """
    c, ia, ib, cxi, chi_c, chi_ia, chi_ib, chi_cxi = terms
    return (
        c * q0 + ia * q1, ib * q0 + cxi * q1,
        chi_cxi * q1 - chi_ib * q0, chi_c * q0 - chi_ia * q1,
    )


def _analyzed(p0, p1, gated, cos_b, sin_b):
    """Stage 2 of ``_amplitudes``: the photon's amplitudes ``(p0, p1)`` times
    ``_gated_probe``'s four terms, rotated onto Bob's analyzer."""
    g0, g1, g2, g3 = gated
    out0, out1 = p0 * g0, p0 * g1
    out2, out3 = p1 * g2, p1 * g3
    return (
        cos_b * out0 - sin_b * out2, cos_b * out1 - sin_b * out3,
        sin_b * out0 + cos_b * out2, sin_b * out1 + cos_b * out3,
    )


def _amplitudes(p0, p1, q0, q1, terms, cos_b, sin_b):
    """Closed-form amplitudes of the forward model.

    ``(p0, p1)``, ``(q0, q1)`` and ``(cos_b, sin_b)`` are the cosines and
    sines of the photon's state, the probe's preparation and Bob's analyzer
    angles; the phases ``chi``, ``xi`` and the gate come folded into the
    complex constants ``terms`` of ``_phases``. No product is complex by
    complex, which numpy may fuse into multiply-adds, so numbers and arrays
    round alike.

    Returns the four amplitudes of the output state with the photon rotated
    onto the analyzer's bit-0 and bit-1 states, ordered ``2*bob_bit +
    eve_bit``; at a zero analyzer angle they are the output state itself.
    The gate is block diagonal in the control bit, so that output state is
    ``p0 (c q0 + ia q1)``, ``p0 (ib q0 + c xi q1)``, ``chi p1 (c xi q1 - ib
    q0)`` and ``chi p1 (c q0 - ia q1)``: ``_gated_probe``, the gate on the
    probe, then ``_analyzed``, the photon and the analyzer. It is linear in
    each of ``terms``, ``(p0, p1)`` and ``(cos_b, sin_b)``, and each
    parameter moves only one of them: the derivative along it is this
    function with that input replaced by its derivative, which is how
    ``_jacobian_kernel`` takes it.
    """
    return _analyzed(p0, p1, _gated_probe(terms, q0, q1), cos_b, sin_b)


def _outcome_probs(analyzed) -> tuple:
    """``|a|^2`` of each of ``_amplitudes``'s four amplitudes, in ``OUTCOME_ORDER``."""
    b0e0, b0e1, b1e0, b1e1 = analyzed
    return (
        b1e0.real * b1e0.real + b1e0.imag * b1e0.imag,
        b1e1.real * b1e1.real + b1e1.imag * b1e1.imag,
        b0e1.real * b0e1.real + b0e1.imag * b0e1.imag,
        b0e0.real * b0e0.real + b0e0.imag * b0e0.imag,
    )


#: ``_phases``'s ``terms`` in the order of ``_gated_probe``'s products: the
#: coefficients of its four first products, then of its four second ones.
_GATE_ORDER = [0, 2, 7, 4, 1, 3, 6, 5]
#: Field-order columns of the four angles every prediction depends on.
_SHARED_COLUMNS = np.array(
    [_PARAM_KEYS.index(key) for key in ("d_xi", "d_chi", "alpha", "delta")]
)


def _jacobian_kernel(
    state: np.ndarray, basis: np.ndarray, theta_in: np.ndarray,
    free: np.ndarray | None = None,
) -> Callable[[ErrorModelParams], np.ndarray]:
    """Derivatives of ``predict_outcome_probs`` for many predictions at once.

    The N predictions are given as arrays: the state and basis indices of
    ``CountsColumns`` and the probe's preparation angle ``theta_in``. Their
    rows in ``_ANGLE_TERMS``, offset columns, ``math`` cosines and sines of
    the probe angles and the flat index of their derivatives in the
    Jacobian are gathered once, here. Returns ``params -> (N, 4, 10)``: for
    each prediction, the derivatives of its four probabilities along the
    parameter vector of ``params`` in field order, ``2 Re(conj(a) da)`` for
    each analyzed amplitude ``a``, with ``params``' own ``_phases`` and
    state and analyzer cosines and sines, the values a prediction uses. Six
    columns can be nonzero: d_xi, d_chi, alpha, delta and the offsets of
    the state and the basis. The other four are exact zeros, and so are
    the d_xi, d_chi, alpha and delta columns wherever those four angles are
    all zero, where the conjugation symmetry makes the model even in them.
    A boolean mask ``free`` over the fields that keeps every column some
    prediction moves returns only the kept columns, ``(N, 4, free.sum())``.

    Each ``da`` is the closed form ``_amplitudes`` at differentiated inputs,
    as it is linear in each of them. Both of its stages run once over a
    ``(6 rows, 4 amplitudes, N)`` stack: the amplitudes (row 0), their
    derivatives along d_xi, d_chi, alpha and delta through the derivatives
    of the gate and phase terms (rows 1-4), and along the wave-plate
    offset, which turns the photon's ``(p0, p1)`` into ``(-p1, p0)`` (row
    5). Each element takes the operations ``_gated_probe`` and
    ``_analyzed`` apply to it, on the same operands in the same order: one
    product per ``terms`` coefficient and probe factor, then the sums and
    differences of the four amplitudes, each as one call over their half of
    the stack. Along the analyzer offset the rotation onto Bob's
    analyzed-bit states turns ``(a0, a1, a2, a3)`` into ``(-a2, -a3, a0,
    a1)`` (row 6). The rows are written in the order the Jacobian's slots
    read them, so they scatter without a copy. numpy multiplies a real
    array by a complex one as the complex array of the same values, so the
    real inputs are cast to complex first, the probe's once here: the same
    products, without a cast inside each of them. The returned function
    fills buffers of its own on every call, so it serves one caller at a
    time.
    """
    n = len(state)
    if free is None:
        free = np.ones(len(_PARAM_KEYS), dtype=bool)
    width = np.count_nonzero(free)
    a_rows, b_rows = _STATE_ROWS[state], _BASIS_ROWS[basis]
    q0, q1 = (
        np.array(list(map(trig, theta_in.tolist())), dtype=complex)
        for trig in (math.cos, math.sin)
    )
    # The probe factor of each of _gated_probe's four first and four second
    # products, (2, 1, 4, N) against the (2, 6, 4, 1) coefficients.
    probe = np.array([[q0, q0, q1, q0], [q1, q1, q0, q1]])[:, None]
    # Where the derivative of amplitude 2*bob_bit + eve_bit along the k-th
    # of d_xi, d_chi, alpha, delta and the two offsets goes in the (N, 4,
    # width) Jacobian: row OUTCOME_ORDER.index((bob_bit, eve_bit)), the
    # position of its field column among the kept ones.
    position = free.cumsum() - 1
    columns = np.empty((6, n), dtype=np.intp)
    columns[:4] = position[_SHARED_COLUMNS, None]
    columns[4] = position[_STATE_COLUMNS[state]]
    columns[5] = position[_BASIS_COLUMNS[basis]]
    outcome = np.array([OUTCOME_ORDER.index(divmod(j, 2)) for j in range(4)])
    slots = (
        4 * width * np.arange(n) + width * outcome[:, None] + columns[:, None]
    ).ravel()
    # Buffers of each call, over the (6 rows, 4 amplitudes, N) stack: the
    # photon's p0 or p1 per amplitude, the products of both stages, and the
    # analyzed amplitudes (row 0) with their six derivatives (rows 1-6).
    photon = np.empty((6, 4, n), dtype=complex)
    products = np.empty((2, 6, 4, n), dtype=complex)
    analyzed = np.empty((7, 4, n), dtype=complex)
    first, second = products

    def jacobians(params: ErrorModelParams) -> np.ndarray:
        chi, xi, c, s, ep, em, terms = params._phases
        _, ia, ib, cxi = terms[:4]
        # The gate terms' derivatives along d_xi, alpha and delta, each
        # followed by chi times each; along d_chi only that chi-carrying half
        # of ``terms`` moves, by a factor i.
        gates = (
            (0.0, 1j * ia, 0.0, 1j * cxi),
            (-s, 1j * em * c * xi, 1j * ep * c, -s * xi),
            (0.0, -1j * ia, 1j * ib, 0.0),
        )
        d_xi, d_alpha, d_delta = ((*g, *(chi * term for term in g)) for g in gates)
        d_chi = (0.0, 0.0, 0.0, 0.0, *(1j * term for term in terms[4:]))
        stack = np.array([terms, d_xi, d_chi, d_alpha, d_delta, terms])
        coefficients = stack[:, _GATE_ORDER].reshape(6, 2, 4).transpose(1, 0, 2)
        # Stage 1, _gated_probe: the first products plus or minus the second.
        np.multiply(coefficients[..., None], probe, out=products)
        np.add(first[:, :2], second[:, :2], out=first[:, :2])
        np.subtract(first[:, 2:], second[:, 2:], out=first[:, 2:])
        # Stage 2, _analyzed: times the photon, then onto the analyzer.
        cos, sin = np.array(list(params._trig.values())).T
        p0, p1 = cos[a_rows], sin[a_rows]
        photon[:5, :2], photon[:5, 2:] = p0, p1
        photon[5, :2], photon[5, 2:] = -p1, p0
        np.multiply(photon, first, out=first)
        cos_b, sin_b = cos[b_rows].astype(complex), sin[b_rows].astype(complex)
        np.multiply(cos_b, first, out=second)
        np.multiply(sin_b, first, out=first)
        np.subtract(second[:, :2], first[:, 2:], out=analyzed[:6, :2])
        np.add(first[:, :2], second[:, 2:], out=analyzed[:6, 2:])
        a = analyzed[0]
        np.negative(a[2:], out=analyzed[6, :2])
        analyzed[6, 2:] = a[:2]
        jac = np.zeros(4 * width * n)
        jac[slots] = ((a.conj() * analyzed[1:]).real * 2.0).ravel()
        return jac.reshape(n, 4, width)

    return jacobians


def predict_outcome_probs(
    params: ErrorModelParams,
    alice: Bb84State,
    bob_basis: SiftBasis,
    pe: float,
) -> np.ndarray:
    """Forward-model the four joint detection probabilities.

    ``pe`` is the error probability the probe is set to induce, which fixes
    its preparation angle (``probe._probe_angle``); a pe outside [0, 0.5]
    raises ValueError. Projects the output state onto Bob's analyzed-bit
    states (photon) and Eve's computational states (probe). Returns a
    ``(4,)`` float array in ``OUTCOME_ORDER``, i.e. (bob_bit, eve_bit) =
    (1,0), (1,1), (0,1), (0,0); the entries sum to one by unitarity.

    The photon's and the analyzer's cosines and sines come from
    ``params``, computed when it was made, and the gate acting on the probe
    at this pe from ``ErrorModelParams._gated_at``, kept on ``params`` per
    pe. A fit predicts all records of one evaluation with one object, so
    each call then only applies the photon and the analyzer.
    """
    p0, p1 = params._trig[alice._value_]
    cos_b, sin_b = params._trig[bob_basis._value_]
    return np.array(
        _outcome_probs(_analyzed(p0, p1, params._gated_at(pe), cos_b, sin_b))
    )


def _predict(
    params: ErrorModelParams, state: np.ndarray, basis: np.ndarray,
    pe_index: np.ndarray, pes,
) -> np.ndarray:
    """``predict_outcome_probs`` of N configurations as ``(N, 4)`` rows, bit
    for bit. ``state``, ``basis`` index states and bases as in
    ``CountsColumns``, and ``pe_index`` indexes ``pes``. The state and
    analyzer cosines and sines are ``params``' own; the ``len(pes)`` probe
    angles take theirs from ``math`` once each, as one prediction does
    (numpy's need not equal libm's). All are gathered by index."""
    cos, sin = np.array(list(params._trig.values())).T
    angles = list(map(_probe_angle, pes))
    cos_in, sin_in = (np.array(list(map(trig, angles))) for trig in (math.cos, math.sin))
    a_rows, b_rows = _STATE_ROWS[state], _BASIS_ROWS[basis]
    return np.column_stack(_outcome_probs(_amplitudes(
        cos[a_rows], sin[a_rows], cos_in[pe_index], sin_in[pe_index],
        params._phases[-1], cos[b_rows], sin[b_rows],
    )))


#: pe values per ``_predict`` pass of ``model_sift_summaries``: a few MB.
_SUMMARY_CHUNK = 4096


def model_sift_summaries(
    params: ErrorModelParams, pes: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Predicted Renyi information and sifted error rate over a pe grid.

    Returns two ``(len(pes), 2)`` float arrays, columns in ``SiftBasis``
    order (HV, DA). Each chunk of ``_SUMMARY_CHUNK`` pe values is one
    ``_predict`` pass, reduced with one ``sift_cells`` and one
    ``renyi_information`` call as measured counts are in
    ``CountsColumns.sift_summaries``; all three work row by row, so the
    chunks' rows are the whole grid's. The Renyi information is NaN where
    the model predicts no error-free sift events (an error-free mass below
    1e-15, since predictions carry rounding noise).
    """
    renyi, error_rates = np.full((len(pes), 2), np.nan), np.empty((len(pes), 2))
    for start in range(0, len(pes), _SUMMARY_CHUNK):
        rows = slice(start, start + _SUMMARY_CHUNK)
        # Per pe, states H, V, D, A: per basis its bit-0 then bit-1 state.
        pe_index, state = np.indices((len(pes[rows]), 4)).reshape(2, -1)
        probs = _predict(params, state, _STATE_BASIS[state], pe_index, pes[rows])
        tables, error_rates[rows] = sift_cells(probs.reshape(-1, 2, 2, 4))
        has_mass = tables.sum(axis=(-2, -1)) >= 1e-15
        renyi[rows][has_mass] = renyi_information(tables[has_mass])
    return renyi, error_rates


@dataclass(frozen=True)
class FitResult:
    """Outcome of a parameter fit.

    ``held`` names the parameters no record can move (see
    ``fit_parameters``); they keep their initial values. ``termination``
    says why the solver stopped: "ftol" (the cost stopped decreasing),
    "xtol" (the step became negligible), "gtol" (the gradient vanished) or
    "budget" (``max_evals`` ran out; ``converged`` is then false).
    """

    params: ErrorModelParams
    residual: float
    evaluations: int
    held: tuple[str, ...]
    termination: str

    @property
    def converged(self) -> bool:
        """Whether the solver met a tolerance: ``termination`` is not "budget"."""
        return self.termination != "budget"


def _make_objective(
    counts: CountsColumns, weighting: str, free: np.ndarray | None = None
):
    """Weighted residual vector over all records and outcomes, with its Jacobian.

    Returns ``x -> (r, jacobian)`` for a float parameter vector ``x``.
    Entries of ``r`` are ``sqrt(weight) * (estimated - predicted)``, four
    per record, with the records in canonical order: by the state's and
    the basis's spelling, then pe, then the exact counts. ``jacobian()``
    returns the ``(r.size, 10)`` analytic derivative of ``r`` at ``x`` in
    field order, or only the columns of a boolean mask ``free`` that keeps
    every column some record moves. Both are therefore bit-identical under
    any reordering of the records. The mean total of the "counts" weighting
    is taken over the exact integer totals, summed as Python ints since the
    int64 totals of many records can sum past the int64 limit, so records
    weight exactly.

    Everything but ``x`` is fixed once, here: the canonical rows, the
    probe angle of each distinct pe from ``probe._probe_angle``, the
    estimated probabilities as one flat vector, the root weights ("equal"
    weighting's are exact 1s, and multiplying by them changes no bit) and
    the gathers and slots of one ``_jacobian_kernel``. Each call makes one
    ``ErrorModelParams`` of ``x`` and predicts every record once with
    ``predict_outcome_probs``; the derivatives of all records come from one
    kernel pass over the same object, the closed form evaluated at its
    differentiated inputs, run only when ``jacobian`` is called.
    """
    state, basis, pe = counts.state.tolist(), counts.basis.tolist(), counts.pe.tolist()
    exact = counts.counts.tolist()
    keys = [
        (_STATES[s]._value_, _BASES[b]._value_, p, row)
        for s, b, p, row in zip(state, basis, pe, exact)
    ]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    states = [_STATES[state[k]] for k in order]
    bases = [_BASES[basis[k]] for k in order]
    pes = [pe[k] for k in order]
    angles = {p: _probe_angle(p) for p in set(pes)}
    jacobians = _jacobian_kernel(
        counts.state[order], counts.basis[order],
        np.array([angles[p] for p in pes]), free,
    )
    estimated = counts.probabilities()[order].ravel()
    root_weights = np.ones(len(order))
    if weighting == "counts":
        mean_total = sum(map(sum, exact)) / len(exact)
        root_weights = np.sqrt(counts.totals[order] / mean_total)
    root_entries = np.repeat(root_weights, 4)
    minus_root = -root_weights[:, None, None]

    def residuals(x: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        params = ErrorModelParams(*x.tolist())
        r = estimated - np.concatenate(
            list(map(predict_outcome_probs, [params] * len(pes), states, bases, pes))
        )
        r *= root_entries

        def jacobian() -> np.ndarray:
            jac = jacobians(params)
            jac *= minus_root
            return jac.reshape(r.size, -1)

        return r, jacobian

    return residuals


def _held_keys(counts: CountsColumns) -> tuple[str, ...]:
    """Parameters that no record's prediction depends on.

    A wave-plate offset only enters records prepared in its state and an
    analyzer offset only records measured in its basis.
    """
    moved = np.zeros(len(_PARAM_KEYS), dtype=bool)
    moved[_SHARED_COLUMNS] = True
    moved[_STATE_COLUMNS[counts.state]] = True
    moved[_BASIS_COLUMNS[counts.basis]] = True
    return tuple(compress(_PARAM_KEYS, (~moved).tolist()))


class _BudgetExhausted(Exception):
    """The residual function was asked for one call beyond ``max_evals``."""


#: Relative tolerances on the cost decrease and the step, and the absolute
#: one on the gradient's largest entry, as in scipy's least_squares.
_TOL = 1e-8
#: The float next below the open box bound; every trial point, the
#: finite-difference steps included, stays within it.
_INNER_BOUND = math.nextafter(ANGLE_BOUND, 0.0)
#: Machine epsilon of float64.
_EPS = float(np.finfo(float).eps)


def _forward_jacobian(fun, z: np.ndarray, f: np.ndarray, jac: np.ndarray) -> None:
    """Replace each exactly-zero column of ``jac`` by two-point derivatives
    of ``fun``'s residual ``f`` at ``z``, one call per column.

    The step along ``z_i`` is ``sqrt(eps) * max(1, |z_i|)`` in the
    direction of ``z_i``'s sign, reversed where it would leave the box.
    """
    for i in np.flatnonzero(~jac.any(axis=0)).tolist():
        z_i = z[i].item()
        h = math.sqrt(_EPS) * max(1.0, abs(z_i))
        if z_i < 0.0:
            h = -h
        if abs(z_i + h) > _INNER_BOUND:
            h = -h
        shifted = z.copy()
        shifted[i] = z_i + h
        jac[:, i] = (fun(shifted)[0] - f) / (shifted[i] - z_i)


def _lm_step(
    uf, s, vt, full_rank: bool, radius: float, lam: float
) -> tuple[np.ndarray, float]:
    """Levenberg-Marquardt step of length at most ``radius``.

    ``J = U diag(s) Vt`` is the Jacobian's SVD and ``uf = U^T f``. Returns
    the Gauss-Newton step when ``J`` has full rank and that step is inside
    the trust region. Otherwise returns ``-(J^T J + lam I)^-1 J^T f``,
    scaled onto the trust-region boundary, with ``lam`` found by Moré's
    safeguarded Newton iteration on ``||p(lam)|| = radius`` (Moré, "The
    Levenberg-Marquardt algorithm: implementation and theory", 1978),
    started from the previous ``lam``. Its 2-norms are ``math.sqrt(v @ v)``,
    which is what ``np.linalg.norm`` computes for a 1-D float vector.
    """
    if full_rank:
        step = -vt.T @ (uf / s)
        if math.sqrt(step @ step) <= radius:
            return step, 0.0
    suf = s * uf
    s2, suf2 = s * s, suf**2

    def phi(lam):
        denom = s2 + lam
        p = suf / denom
        norm = math.sqrt(p @ p)
        return norm - radius, -(suf2 / denom**3).sum() / norm

    upper = math.sqrt(suf @ suf) / radius
    lower = 0.0
    if full_rank:
        value, slope = phi(0.0)
        lower = -value / slope
    if lam == 0.0 or not full_rank:
        lam = max(1e-3 * upper, math.sqrt(lower * upper))
    for _ in range(10):
        if not lower <= lam <= upper:
            lam = max(1e-3 * upper, math.sqrt(lower * upper))
        value, slope = phi(lam)
        if value < 0.0:
            upper = lam
        lower = max(lower, lam - value / slope)
        lam -= (value + radius) / radius * value / slope
        if abs(value) < 0.01 * radius:
            break
    step = -vt.T @ (suf / (s * s + lam))
    return step * (radius / math.sqrt(step @ step)), lam


def _trust_region_lm(fun, z: np.ndarray) -> str:
    """Minimize ``||f(z)||^2`` inside ``|z_i| < pi/2``; returns why it stopped.

    ``fun(z)`` returns the residual ``f`` and a zero-argument callable
    that computes its Jacobian. The solver calls it only where it needs
    the Jacobian: at the start point and at each accepted step, never at a
    rejected or final trial point. Only at the start, a column whose
    derivative is exactly zero is taken from forward differences instead:
    at a saddle such as the all-zero parameters, their rounding-level
    slope is what moves the fit off it.
    Each iteration takes the Jacobian's SVD, then tries
    Levenberg-Marquardt steps until one lowers the cost. The ratio of
    actual to predicted decrease sets the trust radius (1 at the start): a
    quarter of the step below 0.25, doubled above 0.75 for a step on the
    boundary. A step that would cross the box is shortened along its
    direction to a fraction ``theta`` of the distance to the bound, with
    ``theta`` approaching 1 as the gradient vanishes, so the iterate can
    close in on a bound without reaching it. The termination rules are
    those of scipy's trust-region reflective solver: "gtol" when the
    gradient's largest entry is below ``_TOL``, "ftol" when a trial lowers
    the cost by less than ``_TOL`` relative with a ratio above 0.25, and
    "xtol" when a trial step is shorter than ``_TOL`` relative to ``z``.
    What no trial from ``z`` changes -- the SVD, ``U^T f``, twice the
    gradient and both tolerances -- is computed once per iteration, and the
    distance to the box along a trial step in Python floats, entry by
    entry. The caller keeps the best point seen.
    """
    f, jacobian = fun(z)
    jac = jacobian()
    _forward_jacobian(fun, z, f, jac)
    cost = f @ f
    radius, lam = 1.0, 0.0
    while True:
        grad = jac.T @ f
        grad_norm = abs(grad).max()
        if grad_norm < _TOL:
            return "gtol"
        u, s, vt = np.linalg.svd(jac, full_matrices=False)
        uf = u.T @ f
        full_rank = s[-1] > _EPS * f.size * s[0]
        theta = max(0.995, 1.0 - grad_norm)
        # What no trial from z changes: the gradient term of the predicted
        # decrease and the tolerances.
        grad2 = 2.0 * grad
        ftol, xtol = _TOL * cost, _TOL * (_TOL + math.sqrt(z @ z))
        z_list = z.tolist()
        while True:
            p, lam = _lm_step(uf, s, vt, full_rank, radius, lam)
            to_bound = [
                (_INNER_BOUND - z_i if p_i > 0.0 else _INNER_BOUND + z_i) / abs(p_i)
                for z_i, p_i in zip(z_list, p.tolist()) if p_i != 0.0
            ]
            p *= min(1.0, theta * min(to_bound, default=math.inf))
            z_new = np.minimum(np.maximum(z + p, -_INNER_BOUND), _INNER_BOUND)
            step = z_new - z
            f_new, jacobian = fun(z_new)
            cost_new = f_new @ f_new
            actual = cost - cost_new
            jstep = jac @ step
            predicted = -(jstep @ jstep + grad2 @ step)
            ratio = actual / predicted if predicted > 0.0 else 0.0
            step_norm = math.sqrt(step @ step)
            if actual < ftol and ratio > 0.25:
                return "ftol"
            if step_norm < xtol:
                return "xtol"
            new_radius = radius
            if ratio < 0.25:
                new_radius = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * radius:
                new_radius = 2.0 * radius
            lam *= radius / new_radius
            radius = new_radius
            if actual > 0.0:
                break
        z, f, jac, cost = z_new, f_new, jacobian(), cost_new


def fit_parameters(
    counts: CountsColumns,
    init: ErrorModelParams | None = None,
    *,
    max_evals: int = 50_000,
    weighting: str = "equal",
) -> FitResult:
    """Fit the ten error-model parameters to measured counts.

    Minimizes the summed squared differences between each record's
    normalized probabilities and the forward-model prediction inside
    |angle| < pi/2 with a bounded trust-region Levenberg-Marquardt solver
    (``_trust_region_lm``). An evaluation is one call of the residual
    function, which predicts every record once. The analytic Jacobian is
    taken only at the start point and at each accepted step, never at a
    rejected or final trial point. At the start point only, a
    free parameter whose slope is exactly zero gets a two-point
    forward-difference column instead, one evaluation each: from the
    all-zero start these are d_xi, d_chi, alpha and delta, whose slopes the
    conjugation symmetry below cancels. Deterministic given identical
    records (the rows of ``counts``, in any order), init, ``max_evals``
    and ``weighting``.

    All that does not depend on the trial point is built once per fit:
    the held parameters and the free-column map, and ``_make_objective``'s
    canonical rows, weights and Jacobian kernel over the free columns. An
    evaluation is then the record predictions, one subtraction, one
    product by the root weights, and the exact ``math.fsum`` of the squares
    that picks the best point; its Jacobian comes without the held columns.

    Parameters that no record constrains -- the wave-plate offset of an
    input state absent from the records, the analyzer offset of a basis
    absent from them -- are held at their initial values and named in
    ``FitResult.held``.

    The model's probabilities are invariant under jointly negating
    d_xi, d_chi, alpha, and delta (complex conjugation of every
    amplitude), so the fit returns the representative with a
    nonnegative gate imbalance.

    Parameters
    ----------
    counts:
        Measured configurations as columns, one row per record, as
        ``montecarlo.read_counts_file`` returns them; at least 3 records (so
        the data values outnumber the 10 parameters) spanning at least 2
        distinct nominal error probabilities.
    init:
        Starting point; all-zero parameters when omitted.
    max_evals:
        Hard budget on evaluations, the start's forward-difference columns
        included; positive.
    weighting:
        How records enter the objective: "equal" weights every record's
        normalized probabilities the same, "counts" scales each record by
        its total counts relative to the mean total.

    Returns
    -------
    FitResult
        Best parameters seen, the summed squared residuals there, the
        number of evaluations (never above ``max_evals``), whether
        the solver met a tolerance within the budget, and which one.
    """
    if weighting not in ("equal", "counts"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if max_evals < 1:
        raise ValueError("max_evals must be positive")
    if counts.counts.size < 10:
        raise ValueError(
            f"need at least 10 data values to fit 10 parameters, got "
            f"{counts.counts.size}"
        )
    if len(set(counts.pe.tolist())) < 2:
        raise ValueError("records must span at least 2 distinct error probabilities")

    held = _held_keys(counts)
    free = np.array([key not in held for key in _PARAM_KEYS])
    objective = _make_objective(counts, weighting, free)
    x0 = np.zeros(len(_PARAM_KEYS)) if init is None else init.as_vector()
    best_x, best_residual = x0, math.inf
    evaluations = 0

    def free_residuals(z: np.ndarray) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
        nonlocal best_x, best_residual, evaluations
        if evaluations >= max_evals:
            raise _BudgetExhausted
        x = x0.copy()
        x[free] = z
        r, jacobian = objective(x)
        evaluations += 1
        value = math.fsum((r * r).tolist())
        if value < best_residual:
            best_x, best_residual = x, value
        return r, jacobian

    try:
        termination = _trust_region_lm(free_residuals, x0[free])
    except _BudgetExhausted:
        termination = "budget"
    params = ErrorModelParams(*best_x.tolist())
    if params.alpha < 0.0:
        # Pick the conjugation-symmetric representative with alpha >= 0;
        # it predicts the same probabilities, so the residual stands.
        params = replace(
            params, d_xi=-params.d_xi, d_chi=-params.d_chi, alpha=-params.alpha,
            delta=-params.delta,
        )
    return FitResult(
        params=params,
        residual=best_residual,
        evaluations=evaluations,
        held=held,
        termination=termination,
    )
