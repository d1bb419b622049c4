"""Coincidence-count simulation and estimation.

Generates multinomial coincidence counts from any outcome-probability
vector (four entries in ``OUTCOME_ORDER``, a plain numpy array) with
explicit per-call seeding, and turns measured counts back into
normalized probabilities, sifted error rates, and the measured Renyi
information. A reference data set of measured counts for the D and A
inputs at three nominal error probabilities ships with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .probe import OUTCOME_ORDER, Bb84State, SiftBasis, renyi_information

_REFERENCE_FILE = "reference_counts.csv"

#: Largest number of pairs one multinomial draw accepts (numpy's int64 limit).
MAX_PAIRS = 2**63 - 1


class CountsFileError(ValueError):
    """A counts file failed to parse; the message carries the line number."""


@dataclass(frozen=True)
class CountsRecord:
    """Measured coincidence counts for one configuration.

    ``counts`` holds the four detector coincidences in ``OUTCOME_ORDER``,
    i.e. (bob_bit, eve_bit) = (1,0), (1,1), (0,1), (0,0).
    """

    alice: Bb84State
    bob_basis: SiftBasis
    pe_nominal: float
    counts: tuple[int, int, int, int]
    duration_s: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.pe_nominal <= 0.5):
            raise ValueError(
                f"nominal error probability must be in [0, 0.5], got "
                f"{self.pe_nominal}"
            )
        if len(self.counts) != 4 or any(
            not isinstance(c, int) or isinstance(c, bool) or c < 0
            for c in self.counts
        ):
            raise ValueError("counts must be 4 nonnegative integers")
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


def estimate_probabilities(record: CountsRecord) -> np.ndarray:
    """Per-record probabilities: each count over the record's total, as a
    ``(4,)`` array in ``OUTCOME_ORDER``."""
    if record.total <= 0:
        raise ValueError("cannot estimate probabilities from zero total counts")
    return np.array(record.counts, dtype=float) / record.total


def _require_sift_group(records: Sequence[CountsRecord]) -> SiftBasis:
    if not records:
        raise ValueError("no records given")
    basis = records[0].bob_basis
    pe = records[0].pe_nominal
    for record in records:
        if record.bob_basis is not basis or record.pe_nominal != pe:
            raise ValueError("records must share one basis and one nominal pe")
        if record.alice.basis is not basis:
            raise ValueError(
                f"record with input {record.alice.value} is not a sift record "
                f"for basis {basis.value}"
            )
        if record.total <= 0:
            raise ValueError("record with zero total counts")
    present = {record.alice for record in records}
    if present != set(basis.states):
        raise ValueError(
            f"records must cover both input states of basis {basis.value}"
        )
    return basis


def sifted_error_rate(records: Sequence[CountsRecord]) -> float:
    """Fraction of sift events where Bob's bit differs from Alice's.

    The records must share one basis and one nominal error probability
    and cover both of the basis's input states; each record enters with
    equal weight.
    """
    _require_sift_group(records)
    fractions = []
    for record in records:
        wrong = sum(
            count
            for count, (b, _) in zip(record.counts, OUTCOME_ORDER)
            if b != record.alice.bit
        )
        fractions.append(wrong / record.total)
    return math.fsum(fractions) / len(fractions)


def measured_renyi(records: Sequence[CountsRecord]) -> float:
    """Renyi information measured from the error-free sift counts.

    Expects exactly one record per input state of a single basis at one
    nominal error probability. The record for the bit-b state
    contributes its (b, e) cells, normalized by its own total, so
    scaling any record's counts by a positive integer leaves the result
    unchanged.
    """
    _require_sift_group(records)
    if len(records) != 2:
        raise ValueError("expected exactly one record per input state")
    raw = np.zeros((2, 2))
    for record in records:
        b = record.alice.bit
        scale = 1.0 / record.total
        for e in (0, 1):
            raw[b, e] = record.counts[OUTCOME_ORDER.index((b, e))] * scale
    if raw.sum() <= 0.0:
        raise ValueError("records contain no error-free sift counts")
    return renyi_information(raw)


def format_record(record: CountsRecord) -> str:
    """One counts-file line for a record."""
    fields = [
        record.alice.value,
        record.bob_basis.value,
        repr(record.pe_nominal),
        *[str(c) for c in record.counts],
    ]
    if record.duration_s is not None:
        fields.append(repr(record.duration_s))
    return ",".join(fields)


def _parse_record(line: str, where: str) -> CountsRecord:
    fields = [f.strip() for f in line.split(",")]
    if len(fields) not in (7, 8):
        raise CountsFileError(
            f"{where}: expected 7 or 8 comma-separated fields, got {len(fields)}"
        )
    try:
        alice = Bb84State(fields[0])
        basis = SiftBasis(fields[1])
        pe = float(fields[2])
        counts = tuple(int(f) for f in fields[3:7])
        duration = float(fields[7]) if len(fields) == 8 else None
        return CountsRecord(alice, basis, pe, counts, duration)
    except CountsFileError:
        raise
    except ValueError as exc:
        raise CountsFileError(f"{where}: {exc}") from exc


def parse_counts(lines: Iterable[str], source: str = "<counts>") -> list[CountsRecord]:
    """Parse counts-file lines; '#' comments and blank lines are skipped."""
    records = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        records.append(_parse_record(stripped, f"{source}:{lineno}"))
    return records


def read_counts_file(path: str | Path) -> list[CountsRecord]:
    """Read a UTF-8 counts file; raises CountsFileError with line context."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            return parse_counts(handle, source=str(path))
    except UnicodeDecodeError as exc:
        raise CountsFileError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def write_counts_file(path: str | Path, records: Sequence[CountsRecord]) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        handle.write(counts_file_text(records))


def counts_file_text(records: Sequence[CountsRecord]) -> str:
    header = (
        "# alice,basis,pe_nominal,n_b1e0,n_b1e1,n_b0e1,n_b0e0[,duration_s]\n"
    )
    return header + "".join(format_record(record) + "\n" for record in records)


def reference_counts_path() -> Path:
    """Filesystem path of the bundled reference counts data set."""
    return Path(str(resources.files("fpbsim").joinpath("data", _REFERENCE_FILE)))


def load_reference_counts() -> list[CountsRecord]:
    """The bundled measured coincidence counts (D and A inputs, DA basis)."""
    source = resources.files("fpbsim").joinpath("data", _REFERENCE_FILE)
    return parse_counts(source.read_text(encoding="utf-8").splitlines(), source=_REFERENCE_FILE)
