"""BB84 vocabulary and the eavesdropper's Renyi information.

The eavesdropper entangles a probe qubit with each transmitted photon
through a CNOT gate whose control basis is rotated pi/8 from the H-V
polarization basis, then reads the probe with a projective measurement
in its computational basis. This module names the pieces of that
setting: the four BB84 states, the two sift bases, the detector outcome
order, and the probe's preparation angle, which the error probability pe
that the attack induces fixes on its own (``_probe_angle``). ``checked_pe``
is the one rule for that probability: it lies in [0, 0.5], and -0.0 reads
as 0.0. ``_probe_angle``, and so every forward prediction, goes through
it, as do ``renyi_closed_form``, the counts-file reader's
``montecarlo._record`` and the CLI's pe flags. The states name no
angle: their control-frame angles, and those of Bob's analyzer, are one
table of the forward model, ``error_model._ANGLE_TERMS``.
It also holds the sift step that model predictions and measured counts
share (a 2x2 Bob/Eve bit table on error-free sift events, a plain numpy
array, and the sifted error rate), the Renyi information of that table,
and its closed form for the ideal attack. The sift step and the Renyi
information take one table or a stack of them along leading axes, so
many sift groups reduce in one array pass with the same arithmetic as
one: ``error_model.model_sift_summaries`` reduces a pe grid chunk by
chunk, ``montecarlo.CountsColumns.sift_summaries`` a whole counts file.
The forward model in ``error_model`` computes the attack's states and
probabilities; the ideal attack is that model with all ten angles at zero.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache

import numpy as np

_SQRT2 = math.sqrt(2.0)

#: Detector outcome order used for all 4-entry probability/count tables:
#: (bob_bit, eve_bit) = (1,0), (1,1), (0,1), (0,0).
OUTCOME_ORDER: tuple[tuple[int, int], ...] = ((1, 0), (1, 1), (0, 1), (0, 0))

#: ``_BOB_CELLS[b][e]`` is the ``OUTCOME_ORDER`` index of the cell (b, e).
_BOB_CELLS = [[OUTCOME_ORDER.index((b, e)) for e in (0, 1)] for b in (0, 1)]
#: Row (input bit) index paired with each ``_BOB_CELLS`` entry.
_ROW_BITS = [[0, 0], [1, 1]]


def sift_cells(rows) -> tuple[np.ndarray, np.ndarray | float]:
    """Sift one basis: error-free Bob/Eve table and sifted error rate.

    ``rows`` holds the outcome probabilities in ``OUTCOME_ORDER`` of the
    basis's (bit-0, bit-1) input states, which are taken equiprobable,
    as a ``(2, 4)`` array or a ``(..., 2, 4)`` stack of them. Returns the
    unnormalized ``(..., 2, 2)`` tables indexed ``[bob_bit, eve_bit]``
    of the cells where Bob's bit equals Alice's, each half of its row's
    entry, and the ``(...)`` fractions of sift events where it differs;
    a single pair gives its error rate as a float.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-2:] != (2, 4):
        raise ValueError(f"expected (..., 2, 4) outcome rows, got shape {rows.shape}")
    table = 0.5 * rows[..., _ROW_BITS, _BOB_CELLS]
    # Row b's error cells are the cells where Bob reads the other bit.
    wrong = rows[..., _ROW_BITS, _BOB_CELLS[::-1]]
    error_rate = 0.5 * (wrong[..., 0, 0] + wrong[..., 0, 1]) + 0.5 * (
        wrong[..., 1, 0] + wrong[..., 1, 1]
    )
    return table, (float(error_rate) if rows.ndim == 2 else error_rate)


def checked_pe(pe: float) -> float:
    """``pe`` if it lies in [0, 0.5], else ValueError; NaN and infinities
    fail, and a negative zero comes back as 0.0, so it prints and groups
    as zero."""
    if not 0.0 <= pe <= 0.5:
        raise ValueError(f"error probability must be in [0, 0.5], got {pe}")
    return pe + 0.0


class Bb84State(Enum):
    """One of the four BB84 polarization states."""

    H = "H"
    V = "V"
    D = "D"
    A = "A"

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


@lru_cache(maxsize=256)
def _probe_angle(pe: float) -> float:
    """Preparation angle of the probe qubit, radians, for the attack that
    induces error probability ``pe``: ``atan2((c - s)/sqrt2, (c + s)/sqrt2)``
    with ``c = sqrt(1 - 2*pe)`` and ``s = sqrt(2*pe)``, after ``checked_pe``.
    Memoized, since a fit asks for the same few pe values once per record
    and evaluation; a rejected pe raises on every call. A grid of distinct
    pe values calls the unmemoized rule, ``_probe_angle.__wrapped__``."""
    pe = checked_pe(pe)
    c = math.sqrt(1.0 - 2.0 * pe)
    s = math.sqrt(2.0 * pe)
    return math.atan2((c - s) / _SQRT2, (c + s) / _SQRT2)


def _log2(values: np.ndarray) -> np.ndarray:
    """``math.log2`` of each entry of a 1-D array; numpy's vectorized log2
    may differ from it in the last bit."""
    return np.array([math.log2(v) for v in values.tolist()])


def renyi_information(table) -> np.ndarray | float:
    """Order-2 (Renyi) information about Bob's bit carried by Eve's bit.

    ``table`` is a raw nonnegative 2x2 table of Bob's bit (rows) against
    Eve's bit (columns) on error-free sift events, or a ``(..., 2, 2)``
    stack of them; each is normalized here. The information is the
    collision-entropy gain of conditioning on Eve's outcome: 0 bits for
    independent tables and 1 bit for perfectly correlated two-outcome
    tables. Outcomes of Eve with zero probability contribute nothing.
    Returns a float for one table and a ``(...)`` array for a stack.
    Raises ValueError if any table has a negative or non-finite entry, or
    a total that is not positive.
    """
    table = np.asarray(table, dtype=float)
    if table.shape[-2:] != (2, 2):
        raise ValueError(f"expected (..., 2, 2) joint tables, got shape {table.shape}")
    if np.any(table < 0.0) or not np.isfinite(table).all():
        raise ValueError("joint table entries must be finite and nonnegative")
    # 1-D columns even for one table: ``x ** 2`` is C pow() on a numpy
    # scalar but x * x on an array, and the two can differ in the last bit.
    t00, t01, t10, t11 = table.reshape(-1, 4).T
    total = t00 + t01 + t10 + t11
    if not np.all(total > 0.0):
        raise ValueError("joint table has no probability mass")
    p00, p01, p10, p11 = t00 / total, t01 / total, t10 / total, t11 / total
    prior_term = -_log2((p00 + p01) ** 2 + (p10 + p11) ** 2)
    cond_term = 0.0
    for top, bottom in ((p00, p10), (p01, p11)):
        pe = top + bottom
        seen = pe > 0.0
        # An outcome Eve never sees adds 0 * log2(1), an exact zero.
        safe = np.where(seen, pe, 1.0)
        collision = np.where(seen, (top / safe) ** 2 + (bottom / safe) ** 2, 1.0)
        cond_term = cond_term + pe * _log2(collision)
    info = prior_term + cond_term
    return float(info[0]) if table.ndim == 2 else info.reshape(table.shape[:-2])


def renyi_closed_form(pe: float) -> float:
    """Closed-form Renyi information of the ideal attack at error rate pe.

    ``log2(1 + 4*pe*(1 - 2*pe) / (1 - pe)^2)``: 0 bits at pe = 0 and a
    full bit at pe = 1/3. ``pe`` is any value ``checked_pe`` accepts; the
    attack's useful operating range ends at 1/3, where the probe learns
    the whole bit, and the information falls again above it.
    """
    pe = checked_pe(pe)
    return math.log2(1.0 + 4.0 * pe * (1.0 - 2.0 * pe) / (1.0 - pe) ** 2)
