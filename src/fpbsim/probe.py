"""BB84 vocabulary and the eavesdropper's Renyi information.

The eavesdropper entangles a probe qubit with each transmitted photon
through a CNOT gate whose control basis is rotated pi/8 from the H-V
polarization basis, then reads the probe with a projective measurement
in its computational basis. This module names the pieces of that
setting: the four BB84 states, the two sift bases, the detector outcome
order, and the probe preparation for a chosen induced error probability.
It also holds the sift step that model predictions and measured counts
share (a 2x2 Bob/Eve bit table on error-free sift events, a plain numpy
array, and the sifted error rate), the Renyi information of that table,
and its closed form for the ideal attack. The state vectors and
probabilities of the attack are computed by the forward model in
``error_model``; the ideal attack is that model with all ten hardware
angles at zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

_SQRT2 = math.sqrt(2.0)

#: Detector outcome order used for all 4-entry probability/count tables:
#: (bob_bit, eve_bit) = (1,0), (1,1), (0,1), (0,0).
OUTCOME_ORDER: tuple[tuple[int, int], ...] = ((1, 0), (1, 1), (0, 1), (0, 0))

#: ``_BOB_CELLS[b][e]`` is the ``OUTCOME_ORDER`` index of the cell (b, e).
_BOB_CELLS = [[OUTCOME_ORDER.index((b, e)) for e in (0, 1)] for b in (0, 1)]


def sift_cells(rows) -> tuple[np.ndarray, float]:
    """Sift one basis: error-free Bob/Eve table and sifted error rate.

    ``rows`` holds the outcome probabilities in ``OUTCOME_ORDER`` of the
    basis's (bit-0, bit-1) input states, which are taken equiprobable.
    Returns the unnormalized ``(2, 2)`` table indexed ``[bob_bit,
    eve_bit]`` of the cells where Bob's bit equals Alice's, each half of
    its row's entry, and the fraction of sift events where it differs.
    """
    (b0e0, b0e1), (b1e0, b1e1) = _BOB_CELLS
    zero, one = rows
    table = np.array(
        [[0.5 * zero[b0e0], 0.5 * zero[b0e1]], [0.5 * one[b1e0], 0.5 * one[b1e1]]]
    )
    error_rate = 0.5 * (zero[b1e0] + zero[b1e1]) + 0.5 * (one[b0e0] + one[b0e1])
    return table, float(error_rate)


class Bb84State(Enum):
    """One of the four BB84 polarization states."""

    H = "H"
    V = "V"
    D = "D"
    A = "A"

    @property
    def theta(self) -> float:
        """Polar angle of the state in the control-basis frame, radians."""
        return _THETA_A[self]

    @property
    def basis(self) -> "SiftBasis":
        return SiftBasis.HV if self in (Bb84State.H, Bb84State.V) else SiftBasis.DA

    @property
    def bit(self) -> int:
        """Key bit encoded by the state: H and D carry 0, V and A carry 1."""
        return 0 if self in (Bb84State.H, Bb84State.D) else 1


class SiftBasis(Enum):
    """A BB84 measurement basis; H/D encode bit 0, V/A encode bit 1."""

    HV = "HV"
    DA = "DA"

    @property
    def states(self) -> tuple[Bb84State, Bb84State]:
        """The (bit-0, bit-1) states of this basis."""
        if self is SiftBasis.HV:
            return (Bb84State.H, Bb84State.V)
        return (Bb84State.D, Bb84State.A)


# Control basis is the H-V basis rotated by pi/8, so H sits at -22.5 deg,
# D at +22.5 deg, V at 67.5 deg, and A at 112.5 deg in the control frame.
_THETA_A = {
    Bb84State.H: -math.pi / 8,
    Bb84State.D: math.pi / 8,
    Bb84State.V: 3 * math.pi / 8,
    Bb84State.A: 5 * math.pi / 8,
}


@dataclass(frozen=True)
class ProbeConfig:
    """Probe preparation for a chosen induced error probability.

    Attributes
    ----------
    pe:
        Error probability the attack induces on sifted bits, in [0, 0.5].
    c, s:
        Derived amplitudes ``sqrt(1 - 2*pe)`` and ``sqrt(2*pe)``.
    theta_in:
        Preparation angle of the probe qubit, radians.
    """

    pe: float
    c: float = field(init=False)
    s: float = field(init=False)
    theta_in: float = field(init=False)

    def __post_init__(self) -> None:
        if not (0.0 <= self.pe <= 0.5) or not math.isfinite(self.pe):
            raise ValueError(f"error probability must be in [0, 0.5], got {self.pe}")
        c = math.sqrt(1.0 - 2.0 * self.pe)
        s = math.sqrt(2.0 * self.pe)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", s)
        object.__setattr__(
            self, "theta_in", math.atan2((c - s) / _SQRT2, (c + s) / _SQRT2)
        )


def renyi_information(table) -> float:
    """Order-2 (Renyi) information about Bob's bit carried by Eve's bit.

    ``table`` is a raw nonnegative 2x2 table of Bob's bit (rows) against
    Eve's bit (columns) on error-free sift events; it is normalized here.
    The information is the collision-entropy gain of conditioning on
    Eve's outcome: 0 bits for independent tables and 1 bit for perfectly
    correlated two-outcome tables. Outcomes of Eve with zero probability
    contribute nothing.
    """
    table = np.asarray(table, dtype=float).reshape(2, 2)
    if np.any(table < 0.0) or not np.isfinite(table).all():
        raise ValueError("joint table entries must be finite and nonnegative")
    total = table.sum()
    if total < 1e-15:
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


def renyi_closed_form(pe: float) -> float:
    """Closed-form Renyi information of the ideal attack at error rate pe.

    ``log2(1 + 4*pe*(1 - 2*pe) / (1 - pe)^2)``: 0 bits at pe = 0 and a
    full bit at pe = 1/3. Values above 1/3 are allowed up to 0.5 but are
    outside the attack's useful operating range, so a warning is issued.
    """
    if not (0.0 <= pe <= 0.5) or not math.isfinite(pe):
        raise ValueError(f"error probability must be in [0, 0.5], got {pe}")
    if pe > 1.0 / 3.0 + 1e-12:
        warnings.warn(
            f"error probability {pe} exceeds 1/3; the probe gains less "
            "information there",
            stacklevel=2,
        )
    return math.log2(1.0 + 4.0 * pe * (1.0 - 2.0 * pe) / (1.0 - pe) ** 2)
