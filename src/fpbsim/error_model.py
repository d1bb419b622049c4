"""Forward model of the entangling-probe attack and its least-squares fit.

One model covers both the ideal attack and real hardware. Ten angle
parameters describe the deviations of a real setup from the ideal
attack: a residual phase on the probe preparation, a residual phase and
four per-state wave-plate offsets on Alice's qubit, an imbalance and
phase of the entangling gate, and one analyzer offset per measurement
basis. With all ten at zero the model is the ideal attack.

The model works on plain numpy arrays throughout. Single-qubit states
are ``(2,)`` complex amplitudes, the gate is a ``(4, 4)`` matrix, and
two-qubit amplitudes are ordered control-major, index ``2*c + t`` for
photon (control) bit ``c`` and probe (target) bit ``t``. The four joint
detection probabilities of a configuration come back as a ``(4,)``
array in ``OUTCOME_ORDER``; the model is unitary by construction, so
they are not re-validated. The sift summaries reduce a basis's two rows
with ``probe.sift_cells``, as the measured counts do. The fitter
recovers the ten parameters from measured coincidence counts with a
bounded trust-region Levenberg-Marquardt solver in numpy on the weighted
residual vector, using forward-difference Jacobians. Angles are radians;
degrees appear only at I/O boundaries.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .montecarlo import CountsRecord, estimate_probabilities
from .probe import OUTCOME_ORDER, Bb84State, ProbeConfig, SiftBasis
from .probe import renyi_information, sift_cells

#: Fit box constraint on every parameter, radians.
ANGLE_BOUND = math.pi / 2

_STATE_ORDER = (Bb84State.H, Bb84State.D, Bb84State.V, Bb84State.A)
_PARAM_KEYS = (
    "d_xi",
    "d_chi",
    "d_theta_a_h",
    "d_theta_a_d",
    "d_theta_a_v",
    "d_theta_a_a",
    "alpha",
    "delta",
    "d_theta_b_hv",
    "d_theta_b_da",
)


@dataclass(frozen=True)
class ErrorModelParams:
    """The ten hardware error parameters, all angles in radians.

    Attributes
    ----------
    d_xi:
        Residual probe-preparation phase left after the nominal hardware
        compensation.
    d_chi:
        Residual phase on Alice's qubit after its nominal compensation.
    d_theta_a:
        Wave-plate offsets of Alice's state angle, indexed (H, D, V, A).
    alpha, delta:
        Imbalance and phase of the entangling gate; zero for an ideal gate.
    d_theta_b:
        Analyzer angle offsets, indexed (HV, DA).
    """

    d_xi: float = 0.0
    d_chi: float = 0.0
    d_theta_a: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    alpha: float = 0.0
    delta: float = 0.0
    d_theta_b: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        values = self.as_vector()
        if not np.isfinite(values).all():
            raise ValueError("error-model parameters must be finite")
        if np.any(np.abs(values) >= ANGLE_BOUND):
            raise ValueError(
                "error-model angles must satisfy |angle| < pi/2 radians"
            )

    def theta_a_offset(self, state: Bb84State) -> float:
        return self.d_theta_a[_STATE_ORDER.index(state)]

    def theta_b_offset(self, basis: SiftBasis) -> float:
        return self.d_theta_b[0] if basis is SiftBasis.HV else self.d_theta_b[1]

    def as_vector(self) -> np.ndarray:
        """Flat parameter vector in the serialization key order, radians."""
        return np.array(
            [self.d_xi, self.d_chi, *self.d_theta_a, self.alpha, self.delta,
             *self.d_theta_b]
        )

    @classmethod
    def from_vector(cls, x: Sequence[float]) -> "ErrorModelParams":
        x = [float(v) for v in x]
        if len(x) != 10:
            raise ValueError(f"expected 10 parameters, got {len(x)}")
        return cls(
            d_xi=x[0],
            d_chi=x[1],
            d_theta_a=(x[2], x[3], x[4], x[5]),
            alpha=x[6],
            delta=x[7],
            d_theta_b=(x[8], x[9]),
        )

    def to_dict(self) -> dict[str, float]:
        """Flat key/value form with angles in degrees."""
        return {
            key: math.degrees(value)
            for key, value in zip(_PARAM_KEYS, self.as_vector())
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, float]) -> "ErrorModelParams":
        """Parse the flat degree-valued form; unknown keys are ignored."""
        missing = [key for key in _PARAM_KEYS if key not in doc]
        if missing:
            raise ValueError(f"parameter document missing keys: {missing}")
        return cls.from_vector(
            [math.radians(float(doc[key])) for key in _PARAM_KEYS]
        )


def nonideal_probe_state(cfg: ProbeConfig, d_xi: float) -> np.ndarray:
    """Probe preparation with a residual phase ``d_xi`` on the upper state.

    Returns the normalized ``(2,)`` complex amplitudes.
    """
    return np.array(
        [math.cos(cfg.theta_in), cmath.exp(1j * d_xi) * math.sin(cfg.theta_in)]
    )


def nonideal_alice_state(alice: Bb84State, d_theta: float, d_chi: float) -> np.ndarray:
    """Alice's qubit with a wave-plate angle offset and residual phase.

    Returns the normalized ``(2,)`` complex amplitudes in the control
    frame; with zero offset and phase this is ``(cos theta, sin theta)``
    at the state's polar angle.
    """
    theta = alice.theta + d_theta
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
    nominal = math.pi / 8 if basis is SiftBasis.HV else -math.pi / 8
    theta = nominal + d_theta_b
    return np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )


def output_state(
    params: ErrorModelParams, alice: Bb84State, cfg: ProbeConfig
) -> np.ndarray:
    """Joint photon/probe state after the entangling gate.

    The ``(4,)`` amplitudes are ordered control-major, index ``2*c + t``
    for photon (control) bit ``c`` and probe (target) bit ``t``. At zero
    parameters this is the ideal attack output.
    """
    photon = nonideal_alice_state(alice, params.theta_a_offset(alice), params.d_chi)
    probe = nonideal_probe_state(cfg, params.d_xi)
    return nonideal_pcnot(params.alpha, params.delta) @ np.outer(photon, probe).ravel()


#: Flat index ``2*bob_bit + eve_bit`` of each entry of ``OUTCOME_ORDER``.
_OUTCOME_INDEX = np.array([2 * b + e for b, e in OUTCOME_ORDER])


def predict_outcome_probs(
    params: ErrorModelParams,
    alice: Bb84State,
    bob_basis: SiftBasis,
    cfg: ProbeConfig,
) -> np.ndarray:
    """Forward-model the four joint detection probabilities.

    Projects the output state onto Bob's analyzed-bit states (photon)
    and Eve's computational states (probe). Returns a ``(4,)`` float
    array in ``OUTCOME_ORDER``, i.e. (bob_bit, eve_bit) = (1,0), (1,1),
    (0,1), (0,0); the entries sum to one by unitarity.
    """
    analyzer = bob_analyzer(bob_basis, params.theta_b_offset(bob_basis))
    amplitudes = analyzer.conj() @ output_state(params, alice, cfg).reshape(2, 2)
    return (np.abs(amplitudes) ** 2).ravel()[_OUTCOME_INDEX]


def _sift(params: ErrorModelParams, basis: SiftBasis, cfg: ProbeConfig):
    """``sift_cells`` of the model's predictions for both basis states."""
    return sift_cells(
        [predict_outcome_probs(params, state, basis, cfg) for state in basis.states]
    )


def _error_free_table(
    params: ErrorModelParams, basis: SiftBasis, cfg: ProbeConfig
) -> np.ndarray:
    """Unnormalized 2x2 Bob/Eve table of the error-free sift cells.

    Raises ValueError when the model predicts no error-free sift events
    in ``basis``.
    """
    raw, _ = _sift(params, basis, cfg)
    if raw.sum() < 1e-15:
        raise ValueError(
            f"model predicts no error-free sift events in basis {basis.value} "
            f"at pe {cfg.pe:.6g}"
        )
    return raw


def sift_joint_distribution(
    params: ErrorModelParams, basis: SiftBasis, cfg: ProbeConfig
) -> np.ndarray:
    """Joint Bob/Eve bit distribution on error-free sift events.

    A ``(2, 2)`` array indexed ``[bob_bit, eve_bit]``: the error-free
    cells of both equiprobable basis states, renormalized over the
    error-free subspace. Raises ValueError when the model predicts no
    error-free sift events in ``basis``.
    """
    raw = _error_free_table(params, basis, cfg)
    return raw / raw.sum()


def model_renyi(params: ErrorModelParams, basis: SiftBasis, cfg: ProbeConfig) -> float:
    """Renyi information predicted by the error model for one basis."""
    return renyi_information(_error_free_table(params, basis, cfg))


def model_sifted_error_rate(
    params: ErrorModelParams, basis: SiftBasis, cfg: ProbeConfig
) -> float:
    """Predicted fraction of sift events where Bob's bit differs from Alice's."""
    return _sift(params, basis, cfg)[1]


@dataclass(frozen=True)
class FitOptions:
    """Knobs of the least-squares fit.

    ``max_evals`` is a hard budget on calls of the residual function,
    finite-difference Jacobian columns included. ``weighting`` selects
    how records enter the objective: "equal" weights every record's
    normalized probabilities the same, "counts" scales each record by
    its total counts relative to the mean total.
    """

    max_evals: int = 50_000
    weighting: str = "equal"

    def __post_init__(self) -> None:
        if self.weighting not in ("equal", "counts"):
            raise ValueError(f"unknown weighting {self.weighting!r}")
        if self.max_evals < 1:
            raise ValueError("max_evals must be positive")


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
    converged: bool
    held: tuple[str, ...]
    termination: str


def _record_design(
    records: Sequence[CountsRecord], weighting: str
) -> tuple[list[tuple[Bb84State, SiftBasis, ProbeConfig]], np.ndarray, np.ndarray]:
    """Per record, in canonical record order: the (state, basis,
    configuration) to predict, the ``(N, 4)`` estimated probabilities and
    the ``(N,)`` square roots of the record weights."""
    records = sorted(
        records,
        key=lambda r: (r.alice.value, r.bob_basis.value, r.pe_nominal, r.counts),
    )
    mean_total = sum(record.total for record in records) / len(records)
    weights = [
        1.0 if weighting == "equal" else record.total / mean_total
        for record in records
    ]
    configs = [
        (record.alice, record.bob_basis, ProbeConfig(record.pe_nominal))
        for record in records
    ]
    return configs, estimate_probabilities(records), np.sqrt(weights)


def _make_objective(records: Sequence[CountsRecord], weighting: str):
    """Weighted residual vector over all records and outcomes.

    Entries are ``sqrt(weight) * (estimated - predicted)``, four per
    record, with the records sorted by (alice, basis, pe_nominal,
    counts); the vector is therefore bit-identical under any reordering
    of the records. Each call predicts every record once.
    """
    configs, estimated, root_weights = _record_design(records, weighting)

    def residuals(x: np.ndarray) -> np.ndarray:
        params = ErrorModelParams.from_vector(x)
        predicted = np.stack(
            [predict_outcome_probs(params, *config) for config in configs]
        )
        return (root_weights[:, None] * (estimated - predicted)).ravel()

    return residuals


def _held_keys(records: Sequence[CountsRecord]) -> tuple[str, ...]:
    """Parameters that no record's prediction depends on.

    A wave-plate offset only enters records prepared in its state and an
    analyzer offset only records measured in its basis.
    """
    states = {record.alice for record in records}
    bases = {record.bob_basis for record in records}
    held = {f"d_theta_a_{s.value.lower()}" for s in Bb84State if s not in states}
    held |= {f"d_theta_b_{b.value.lower()}" for b in SiftBasis if b not in bases}
    return tuple(key for key in _PARAM_KEYS if key in held)


class _BudgetExhausted(Exception):
    """The residual function was asked for one call beyond ``max_evals``."""


#: Relative tolerances on the cost decrease and the step, and the absolute
#: one on the gradient's largest entry, as in scipy's least_squares.
_TOL = 1e-8
#: The largest float below the open box bound; every trial point, the
#: finite-difference steps included, stays within it.
_INNER_BOUND = math.nextafter(ANGLE_BOUND, 0.0)


def _forward_jacobian(fun, z: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Two-point Jacobian of ``fun`` at ``z``, one call per column.

    The step is ``sqrt(eps) * max(1, |z_i|)`` in the direction of
    ``z_i``'s sign, reversed where it would leave the box.
    """
    h = math.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(z))
    h = np.where(z >= 0.0, h, -h)
    h = np.where(np.abs(z + h) > _INNER_BOUND, -h, h)
    columns = []
    for i in range(z.size):
        shifted = z.copy()
        shifted[i] += h[i]
        columns.append((fun(shifted) - f) / (shifted[i] - z[i]))
    return np.column_stack(columns)


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
    started from the previous ``lam``.
    """
    suf = s * uf
    if full_rank:
        step = -vt.T @ (uf / s)
        if np.linalg.norm(step) <= radius:
            return step, 0.0

    def phi(lam):
        denom = s * s + lam
        norm = np.linalg.norm(suf / denom)
        return norm - radius, -np.sum(suf**2 / denom**3) / norm

    upper = np.linalg.norm(suf) / radius
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
    return step * (radius / np.linalg.norm(step)), lam


def _trust_region_lm(fun, z: np.ndarray) -> str:
    """Minimize ``||fun(z)||^2`` inside ``|z_i| < pi/2``; returns why it stopped.

    Each iteration takes one forward-difference Jacobian and its SVD, then
    tries Levenberg-Marquardt steps until one lowers the cost. The ratio of
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
    The caller keeps the best point seen.
    """
    f = fun(z)
    cost = f @ f
    radius, lam = 1.0, 0.0
    while True:
        jac = _forward_jacobian(fun, z, f)
        grad = jac.T @ f
        grad_norm = np.linalg.norm(grad, np.inf)
        if grad_norm < _TOL:
            return "gtol"
        u, s, vt = np.linalg.svd(jac, full_matrices=False)
        uf = u.T @ f
        full_rank = s[-1] > np.finfo(float).eps * f.size * s[0]
        theta = max(0.995, 1.0 - grad_norm)
        while True:
            p, lam = _lm_step(uf, s, vt, full_rank, radius, lam)
            moving = p != 0.0
            to_bound = (_INNER_BOUND - np.sign(p) * z)[moving] / np.abs(p[moving])
            p *= min(1.0, theta * to_bound.min(initial=np.inf))
            z_new = np.clip(z + p, -_INNER_BOUND, _INNER_BOUND)
            step = z_new - z
            f_new = fun(z_new)
            cost_new = f_new @ f_new
            actual = cost - cost_new
            jstep = jac @ step
            predicted = -(jstep @ jstep + 2.0 * grad @ step)
            ratio = actual / predicted if predicted > 0.0 else 0.0
            step_norm = np.linalg.norm(step)
            if actual < _TOL * cost and ratio > 0.25:
                return "ftol"
            if step_norm < _TOL * (_TOL + np.linalg.norm(z)):
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
        z, f, cost = z_new, f_new, cost_new


def fit_parameters(
    records: Sequence[CountsRecord],
    init: ErrorModelParams | None = None,
    options: FitOptions | None = None,
) -> FitResult:
    """Fit the ten error-model parameters to measured counts.

    Minimizes the summed squared differences between each record's
    normalized probabilities and the forward-model prediction inside
    |angle| < pi/2 with a bounded trust-region Levenberg-Marquardt solver
    (``_trust_region_lm``) on a two-point finite-difference Jacobian.
    Deterministic given identical records (in any order), init, and
    options.

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
    records:
        Measured configurations; at least 3 records (so the data values
        outnumber the 10 parameters) spanning at least 2 distinct
        nominal error probabilities.
    init:
        Starting point; all-zero parameters when omitted.
    options:
        Evaluation budget and weighting.

    Returns
    -------
    FitResult
        Best parameters seen, the summed squared residuals there, the
        number of residual evaluations (never above ``max_evals``), whether
        the solver met a tolerance within the budget, and which one.
    """
    options = options or FitOptions()
    init = init or ErrorModelParams()
    if len(records) * 4 < 10:
        raise ValueError(
            f"need at least 10 data values to fit 10 parameters, got "
            f"{len(records) * 4}"
        )
    if len({record.pe_nominal for record in records}) < 2:
        raise ValueError("records must span at least 2 distinct error probabilities")

    objective = _make_objective(records, options.weighting)
    held = _held_keys(records)
    free = np.array([key not in held for key in _PARAM_KEYS])
    x0 = init.as_vector()
    best_x, best_residual = x0, math.inf
    evaluations = 0

    def free_residuals(z: np.ndarray) -> np.ndarray:
        nonlocal best_x, best_residual, evaluations
        if evaluations >= options.max_evals:
            raise _BudgetExhausted
        x = x0.copy()
        x[free] = z
        r = objective(x)
        evaluations += 1
        value = math.fsum(r * r)
        if value < best_residual:
            best_x, best_residual = x, value
        return r

    try:
        termination = _trust_region_lm(free_residuals, x0[free])
    except _BudgetExhausted:
        termination = "budget"
    x = best_x
    if x[6] < 0.0:
        # Pick the conjugation-symmetric representative with alpha >= 0;
        # it predicts the same probabilities, so the residual stands.
        x = x.copy()
        x[[0, 1, 6, 7]] *= -1.0
    return FitResult(
        params=ErrorModelParams.from_vector(x),
        residual=best_residual,
        evaluations=evaluations,
        converged=termination != "budget",
        held=held,
        termination=termination,
    )
