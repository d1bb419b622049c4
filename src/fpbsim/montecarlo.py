"""Coincidence-count simulation and estimation.

Generates multinomial coincidence counts from any outcome-probability
vector (four entries in ``OUTCOME_ORDER``, a plain numpy array) with
explicit per-call seeding, and turns measured counts back into
normalized probabilities, sifted error rates, and the measured Renyi
information. Every record has a positive total that fits in a float,
and its nominal pe passes ``probe.checked_pe`` however the record is
built, so a -0.0 is stored as 0.0 and groups, sorts and prints as 0.0.
``estimate_probabilities`` divides the counts of many records at once
into an ``(N, 4)`` array. ``sift_summaries`` is the counts' one sift
path: it groups any records, such as a whole file, by sift basis and
nominal pe, and reduces the two rows ``counts / total`` of every group
of one record per input state with one stacked ``probe.sift_cells`` and
``probe.renyi_information`` pass, as ``error_model.model_sift_summaries``
does with the model's predictions. ``counts_file_text`` writes records
as counts-file text and ``read_counts_file`` reads a file back. Counts
files are strict ASCII: a count is decimal digits only, a pe or
duration has no ``_``, and only ASCII whitespace pads a line or field.
A reference data set of measured counts for the D and A inputs at three
nominal error probabilities ships with the package;
``read_counts_file(reference_counts_path())`` reads it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .probe import (
    OUTCOME_ORDER, Bb84State, SiftBasis, checked_pe, renyi_information, sift_cells
)

_REFERENCE_FILE = "reference_counts.csv"

#: Largest number of pairs one multinomial draw accepts (numpy's int64 limit).
MAX_PAIRS = 2**63 - 1

#: The only characters that may pad a counts-file line or field: the ASCII
#: whitespace of ``string.whitespace``. ``str.strip()`` with no argument
#: would also drop non-ASCII spaces.
ASCII_SPACE = " \t\n\r\x0b\x0c"


class CountsFileError(ValueError):
    """A counts file failed to parse; the message carries the line number."""


@dataclass(frozen=True)
class CountsRecord:
    """Measured coincidence counts for one configuration.

    ``counts`` holds the four detector coincidences in ``OUTCOME_ORDER``,
    i.e. (bob_bit, eve_bit) = (1,0), (1,1), (0,1), (0,0); their total is
    positive and at most the largest float, so every count converts to one.
    """

    alice: Bb84State
    bob_basis: SiftBasis
    pe_nominal: float
    counts: tuple[int, int, int, int]
    duration_s: float | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "pe_nominal", checked_pe(self.pe_nominal))
        if len(self.counts) != 4 or any(
            not isinstance(c, int) or isinstance(c, bool) or c < 0
            for c in self.counts
        ):
            raise ValueError("counts must be 4 nonnegative integers")
        if self.total == 0:
            raise ValueError("record has zero total counts")
        if self.total > sys.float_info.max:
            raise ValueError("record total counts exceed the largest float")
        if self.duration_s is not None and not (
            math.isfinite(self.duration_s) and self.duration_s >= 0.0
        ):
            raise ValueError(
                f"duration must be finite and nonnegative, got {self.duration_s}"
            )

    @property
    def total(self) -> int:
        return sum(self.counts)


def simulate_counts(
    probs: np.ndarray, n_pairs: int, seed: int
) -> tuple[int, int, int, int]:
    """Draw one multinomial sample of ``n_pairs`` detection events.

    ``probs`` holds the four outcome probabilities in ``OUTCOME_ORDER``;
    they are renormalized, and numpy rejects negative or NaN entries.
    Deterministic given the seed; the counts sum to ``n_pairs`` exactly.
    """
    if not 1 <= n_pairs <= MAX_PAIRS:
        raise ValueError(f"n_pairs must be between 1 and {MAX_PAIRS}, got {n_pairs}")
    probs = np.asarray(probs, dtype=float)
    if probs.shape != (4,):
        raise ValueError(f"expected 4 outcome probabilities, got shape {probs.shape}")
    p = probs / probs.sum()
    draw = np.random.default_rng(seed).multinomial(n_pairs, p)
    return tuple(int(c) for c in draw)


def noise_free_counts(probs: np.ndarray, n_pairs: int) -> tuple[int, int, int, int]:
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


def estimate_probabilities(records: Sequence[CountsRecord]) -> np.ndarray:
    """Per-record probabilities: each count over its record's total, as an
    ``(N, 4)`` array in ``OUTCOME_ORDER``, one row per record."""
    counts = np.array([record.counts for record in records], dtype=float)
    totals = np.array([record.total for record in records], dtype=float)
    return counts.reshape(-1, 4) / totals[:, np.newaxis]


def _pairing_problem(members: Sequence[CountsRecord]) -> str | None:
    """Why a sift group gets no summary; None for one record per input state."""
    if len({record.alice for record in members}) < 2:
        return "is missing a paired input state"
    if len(members) > 2:
        return "needs exactly one record per input state"
    return None


def sift_summaries(
    records: Iterable[CountsRecord],
) -> list[tuple[SiftBasis, float, float, float, str | None]]:
    """Measured Renyi information and sifted error rate of each sift group.

    The sift records (input state in Bob's basis) are grouped by basis
    and nominal pe; one ``(basis, pe, renyi, error_rate, problem)`` row
    per group comes back, HV first, then DA, each by increasing pe.
    ``problem`` is None for exactly one record per input state, else
    "is missing a paired input state" or "needs exactly one record per
    input state", with both values NaN. Complete groups go through one
    stacked ``probe.sift_cells`` and ``probe.renyi_information`` pass;
    the Renyi information is NaN for a group without error-free counts.
    """
    groups: dict[tuple[SiftBasis, float], list[CountsRecord]] = {}
    for record in records:
        if record.alice.basis is record.bob_basis:
            groups.setdefault((record.bob_basis, record.pe_nominal), []).append(record)
    keys = sorted(groups, key=lambda key: (key[0] is not SiftBasis.HV, key[1]))
    problems = [_pairing_problem(groups[key]) for key in keys]
    members = [
        record
        for key, problem in zip(keys, problems)
        if problem is None
        for record in sorted(groups[key], key=lambda r: r.alice.bit)
    ]
    tables, error_rates = sift_cells(estimate_probabilities(members).reshape(-1, 2, 4))
    renyi = np.full(len(tables), np.nan)
    has_mass = tables.sum(axis=(-2, -1)) > 0.0
    renyi[has_mass] = renyi_information(tables[has_mass])
    values = np.full((len(keys), 2), np.nan)
    values[[problem is None for problem in problems]] = np.c_[renyi, error_rates]
    return [
        (basis, pe, *summary, problem)
        for (basis, pe), summary, problem in zip(keys, values.tolist(), problems)
    ]


#: Counts-file spellings of the states and bases.
_STATES = {state.value: state for state in Bb84State}
_BASES = {basis.value: basis for basis in SiftBasis}


def _parse_record(line: str) -> CountsRecord:
    fields = [f.strip(ASCII_SPACE) for f in line.split(",")]
    if len(fields) not in (7, 8):
        raise ValueError(f"expected 7 or 8 comma-separated fields, got {len(fields)}")
    # The Enum calls only run to raise their error for an unknown name.
    alice = _STATES[fields[0]] if fields[0] in _STATES else Bb84State(fields[0])
    basis = _BASES[fields[1]] if fields[1] in _BASES else SiftBasis(fields[1])
    # int() and float() also read digit-group underscores and non-ASCII
    # digits: counts must be ASCII digits, the pe and duration ASCII
    # without '_'. Testing each group as one joined string keeps the
    # per-line cost to a few C-level calls.
    count_fields, real_fields = fields[3:7], fields[2:3] + fields[7:]
    digits = "".join(count_fields)
    if not (digits.isascii() and digits.isdigit()):
        bad = next(f for f in count_fields if not (f.isascii() and f.isdigit()))
        raise ValueError(f"count {bad!r} is not a nonnegative decimal integer")
    text = "".join(real_fields)
    if not text.isascii() or "_" in text:
        bad = next(f for f in real_fields if not f.isascii() or "_" in f)
        raise ValueError(f"{bad!r} is not an ASCII number")
    pe = float(fields[2])
    counts = tuple(map(int, count_fields))
    duration = float(fields[7]) if len(fields) == 8 else None
    return CountsRecord(alice, basis, pe, counts, duration)


def parse_counts(lines: Iterable[str], source: str = "<counts>") -> list[CountsRecord]:
    """Parse counts-file lines; '#' comments and blank lines are skipped."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip(ASCII_SPACE)
        if not stripped or stripped.startswith("#"):
            continue
        try:
            records.append(_parse_record(stripped))
        except ValueError as exc:
            raise CountsFileError(f"{source}:{lineno}: {exc}") from exc
    return records


def read_counts_file(path: str | Path) -> list[CountsRecord]:
    """Read a UTF-8 counts file; raises CountsFileError with line context."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            return parse_counts(handle, source=str(path))
    except UnicodeDecodeError as exc:
        raise CountsFileError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def counts_file_text(records: Sequence[CountsRecord]) -> str:
    """Counts-file text: a header comment, then one line per record."""
    cells = ",".join(f"n_b{b}e{e}" for b, e in OUTCOME_ORDER)
    lines = [f"# alice,basis,pe_nominal,{cells}[,duration_s]"]
    for record in records:
        line = f"{record.alice.value},{record.bob_basis.value},{record.pe_nominal!r},"
        line += ",".join(map(str, record.counts))
        if record.duration_s is not None:
            line += f",{record.duration_s!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def reference_counts_path() -> Path:
    """Filesystem path of the bundled reference counts data set."""
    return Path(str(resources.files("fpbsim").joinpath("data", _REFERENCE_FILE)))
