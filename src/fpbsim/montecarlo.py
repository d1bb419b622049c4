"""Coincidence counts: reading, writing and estimation.

Turns measured counts (four per record, in ``OUTCOME_ORDER``) into
normalized probabilities, sifted error rates, and the measured Renyi
information. Every record has a positive total of at most ``MAX_PAIRS``
(2**63 - 1), so its counts and total fit in an int64, and its nominal pe
passes ``probe.checked_pe``, so a -0.0 is stored as 0.0 and groups, sorts
and prints as 0.0. The seeded multinomial draws of synthetic counts are
the CLI's ``simulate``.

The read side is columnar for every command. ``CountsColumns`` holds
records as state and basis index arrays, pe, the exact ``(N, 4)`` int64
counts and durations; the float totals are derived from the counts.
``parse_counts`` turns counts-file lines into columns. Record lines
without padding that are all 7 or all 8 fields wide, as
``counts_file_text`` writes them, take one flat split into field columns;
other lines are split one at a time. Lines are stripped only when one is
padded. Every field rule is then checked over a
whole column, and these checks only accept. When one fails, the parser
checks the lines one at a time with ``_record``, which states every rule,
its order and its message once and builds no record, and reports the
first line it rejects, numbered, with the message of that line's first
failed rule; it reads no line past that one. ``read_counts_file`` reads a file
with ``parse_counts``, and ``counts_file_text`` writes columns as
counts-file text. ``CountsColumns.probabilities`` divides every row
``counts / total`` in one array operation, and
``CountsColumns.sift_summaries`` is the counts' one sift path: it groups
the sift rows by sift basis and nominal pe with one sort, and reduces the
two rows ``counts / total`` of every group of one record per input state
with one stacked ``probe.sift_cells`` and ``probe.renyi_information``
pass, as ``error_model.model_sift_summaries`` does with the model's
predictions. Counts files are strict ASCII: a count is decimal digits
only, a pe or duration has no ``_``, and only ASCII whitespace pads a
line or field. A record whose counts sum past 2**63 - 1 is rejected,
however many digits a count has.
A reference data set of measured counts for the D and A inputs at three
nominal error probabilities ships with the package;
``read_counts_file(reference_counts_path())`` reads it.
"""

from __future__ import annotations

import math
from importlib import resources
from itertools import chain, compress, zip_longest
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, NoReturn, Sequence

import numpy as np

from .probe import (
    OUTCOME_ORDER, Bb84State, SiftBasis, checked_pe, renyi_information, sift_cells
)

_REFERENCE_FILE = "reference_counts.csv"

#: Largest record total, and largest ``simulate --pairs``: numpy's int64
#: limit.
MAX_PAIRS = 2**63 - 1

#: The only characters that may pad a counts-file line or field: the ASCII
#: whitespace of ``string.whitespace``. ``str.strip()`` with no argument
#: would also drop non-ASCII spaces.
ASCII_SPACE = " \t\n\r\x0b\x0c"


class CountsFileError(ValueError):
    """A counts file failed to parse; the message carries the line number."""


#: The states and bases in the order the index columns count them.
_STATES = tuple(Bb84State)
_BASES = tuple(SiftBasis)
#: Counts-file spellings of the states and bases, mapped to those indices.
_STATE_INDEX = {state.value: i for i, state in enumerate(_STATES)}
_BASIS_INDEX = {basis.value: i for i, basis in enumerate(_BASES)}
#: Sift basis index and key bit of each state index.
_STATE_BASIS = np.array([_BASES.index(state.basis) for state in _STATES])
_STATE_BIT = np.array([state.bit for state in _STATES])
#: Largest count that needs no exact read: a sum of four such counts still
#: fits in an int64.
_INT64_QUARTER = MAX_PAIRS // 4
#: Every byte but "," and "\n": deleting them from a text leaves only the
#: field and line separators.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",\n")

_MISSING_PAIR = "is missing a paired input state"
_EXTRA_RECORDS = "needs exactly one record per input state"


class CountsColumns(NamedTuple):
    """Records as columns, one row per record: the library's one type for
    many records, from the file reader to the fit.

    ``state`` and ``basis`` index ``tuple(Bb84State)`` and
    ``tuple(SiftBasis)``. ``pe`` holds the checked nominal pe values and
    ``counts`` the exact ``(N, 4)`` int64 counts in ``OUTCOME_ORDER``; no
    row sums past ``MAX_PAIRS``. ``durations`` is NaN where a row has none.
    """

    state: np.ndarray
    basis: np.ndarray
    pe: np.ndarray
    counts: np.ndarray
    durations: np.ndarray

    @property
    def totals(self) -> np.ndarray:
        """Each row's exact int64 sum, rounded once to a float."""
        return self.counts.sum(axis=1).astype(float)

    def probabilities(self) -> np.ndarray:
        """Per-row probabilities: each count over its row's total, as an
        ``(N, 4)`` array in ``OUTCOME_ORDER``, one row per record."""
        return self.counts.astype(float) / self.totals[:, np.newaxis]

    def sift_summaries(self) -> list[tuple[SiftBasis, float, float, float, str | None]]:
        """Measured Renyi information and sifted error rate of each sift group.

        The sift rows (input state in Bob's basis) are grouped by basis and
        nominal pe with one sort; one ``(basis, pe, renyi, error_rate,
        problem)`` row per group comes back, HV first, then DA, each by
        increasing pe. ``problem`` is None for exactly one record per input
        state, else "is missing a paired input state" or "needs exactly one
        record per input state", with both values NaN. Complete groups go
        through one stacked ``probe.sift_cells`` and
        ``probe.renyi_information`` pass; the Renyi information is NaN for a
        group without error-free counts.
        """
        rows = np.flatnonzero(_STATE_BASIS[self.state] == self.basis)
        bits = _STATE_BIT[self.state[rows]]
        order = np.lexsort((bits, self.pe[rows], self.basis[rows]))
        rows, bits = rows[order], bits[order]
        basis, pe = self.basis[rows], self.pe[rows]
        opens = np.ones(len(rows), dtype=bool)
        opens[1:] = (basis[1:] != basis[:-1]) | (pe[1:] != pe[:-1])
        starts = np.flatnonzero(opens)
        sizes = np.diff(np.r_[starts, len(rows)])
        # A group's rows run by bit, so it holds both input states exactly
        # when its first and last rows differ in bit.
        paired = bits[starts] != bits[starts + sizes - 1]
        complete = paired & (sizes == 2)
        members = rows[starts[complete][:, np.newaxis] + [0, 1]]
        probs = self.probabilities()[members]
        tables, error_rates = sift_cells(probs.reshape(-1, 2, 4))
        renyi = np.full(len(tables), np.nan)
        has_mass = tables.sum(axis=(-2, -1)) > 0.0
        renyi[has_mass] = renyi_information(tables[has_mass])
        values = np.full((len(starts), 2), np.nan)
        values[complete] = np.c_[renyi, error_rates]
        return [
            (_BASES[b], p, *summary,
             None if done else _EXTRA_RECORDS if both else _MISSING_PAIR)
            for b, p, summary, done, both in zip(
                basis[starts].tolist(), pe[starts].tolist(), values.tolist(),
                complete.tolist(), paired.tolist(),
            )
        ]


def _utf8(text: str) -> bytes:
    """``text`` in UTF-8, lone surrogates included: every byte of a
    non-ASCII character is above 127."""
    return text.encode("utf-8", "surrogatepass")


def _digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _count(text: str) -> int:
    """A count field of ASCII digits, read by its first 20 significant
    digits: 20 already pass the int64 limit, and ``int()`` refuses more
    than 4300, so they stand in for a longer count."""
    return int(text.lstrip("0")[:20] or "0")


def _real(name: str, text: str) -> float:
    if not text:
        raise ValueError(f"{name} '' is not a number")
    return float(text)


def _record(fields: Sequence[str], width: int) -> None:
    """Check one record line: its 8 stripped fields, "" past its ``width``
    fields, as ``_split_rows`` gives them.

    The one statement of the counts-file rules and their messages; no
    record is built. A line fails them in this order: field count, state,
    basis, count digits, ASCII pe and duration, pe number, duration
    number, pe range (``checked_pe``), zero total, total past
    ``MAX_PAIRS``, then a finite nonnegative duration; the first it fails
    raises ValueError.
    """
    if width not in (7, 8):
        raise ValueError(f"expected 7 or 8 comma-separated fields, got {width}")
    # The enums raise ValueError for an unknown state or basis.
    Bb84State(fields[0])
    SiftBasis(fields[1])
    for text in fields[3:7]:
        if not _digits(text):
            raise ValueError(f"count {text!r} is not a nonnegative decimal integer")
    # int() and float() also read digit-group underscores and non-ASCII
    # digits. A line of 7 fields has "" as its duration, which passes.
    for text in (fields[2], fields[7]):
        if not text.isascii() or "_" in text:
            raise ValueError(f"{text!r} is not an ASCII number")
    pe = _real("pe", fields[2])
    # A line of 7 fields has no duration, so 0.0 stands in for it.
    duration = _real("duration", fields[7]) if width == 8 else 0.0
    checked_pe(pe)
    total = sum(map(_count, fields[3:7]))
    if total == 0:
        raise ValueError("record has zero total counts")
    if total > MAX_PAIRS:
        raise ValueError("record total counts exceed 2**63 - 1")
    if not (math.isfinite(duration) and duration >= 0.0):
        raise ValueError(f"duration must be finite and nonnegative, got {duration}")


def _checked_columns(
    columns: list[Sequence[str]], widths: np.ndarray,
    linenos: Callable[[], Sequence[int]], source: str,
) -> CountsColumns:
    """Columns of the record lines split by ``_split_rows``: their stripped
    fields by position and each line's field count; ``linenos()`` numbers
    the record lines, and is called only to report a bad one.

    Each check runs over a whole column and only accepts. When one fails,
    the lines are read one at a time by ``_record`` up to the first that it
    rejects, which is reported with ``_record``'s message: the first bad
    line, with the message of its first failed rule.
    """

    def reject() -> NoReturn:
        for k, (fields, width) in enumerate(zip(zip(*columns), widths.tolist())):
            try:
                _record(fields, width)
            except ValueError as exc:
                raise CountsFileError(f"{source}:{linenos()[k]}: {exc}") from exc
        raise AssertionError("a column check failed, but no record line did")

    if not len(widths):
        index, empty = np.zeros(0, dtype=np.intp), np.zeros(0)
        counts = np.zeros((0, 4), dtype=np.int64)
        return CountsColumns(index, index, empty, counts, empty)
    if ((widths != 7) & (widths != 8)).any():
        reject()
    alice, basis, pe_text, *count_text, duration_column = columns
    timed = widths == 8
    duration_text = list(compress(duration_column, timed.tolist()))

    state = list(map(_STATE_INDEX.get, alice))
    bases = list(map(_BASIS_INDEX.get, basis))
    if None in state or None in bases:
        reject()
    # Counts must be ASCII digits, the pe and duration ASCII without '_',
    # as ``_record`` states; the counts pass as one joined string.
    digits = list(chain.from_iterable(count_text))
    joined = ",".join(digits)
    if not all(digits) or _utf8(joined).translate(None, b"0123456789,"):
        reject()
    reals = "".join(pe_text) + "".join(duration_text)
    if not reals.isascii() or "_" in reals:
        reject()
    try:
        pe = list(map(float, pe_text))
        duration_values = list(map(float, duration_text))
    except ValueError:
        reject()
    # np.fromstring reads each count exactly up to the int64 limit, where
    # it saturates, and counts up to a quarter of it sum exactly. Only a
    # row holding a larger count can sum past the limit or hold a
    # saturated count, so only such a row is summed from its digits.
    counts = np.fromstring(joined, dtype=np.int64, sep=",").reshape(4, -1).T
    if counts.max() > _INT64_QUARTER and any(
        sum(_count(texts[k]) for texts in count_text) > MAX_PAIRS
        for k in np.flatnonzero(counts.max(axis=1) > _INT64_QUARTER).tolist()
    ):
        reject()
    durations = np.full(len(widths), np.nan)
    durations[timed] = duration_values

    # The record rules that ``_record`` checks last.
    pe_column, timed_durations = np.array(pe), durations[timed]
    if not (
        ((pe_column >= 0.0) & (pe_column <= 0.5)).all() and counts.any(axis=1).all()
        and (np.isfinite(timed_durations) & (timed_durations >= 0.0)).all()
    ):
        reject()
    return CountsColumns(
        np.array(state, dtype=np.intp), np.array(bases, dtype=np.intp),
        pe_column + 0.0, counts, durations,
    )


def _row_columns(kept: list[str], padded: bool) -> tuple[list[Sequence[str]], np.ndarray]:
    """The fields of the record lines ``kept`` as 8 columns, split one line
    at a time and stripped when ``padded``, and each line's field count.

    A line of fewer fields has "" in the columns it lacks; one of more
    keeps its first 8.
    """
    rows = [line.split(",") for line in kept]
    if padded:
        rows = [[field.strip(ASCII_SPACE) for field in row] for row in rows]
    columns = list(zip_longest(*rows, fillvalue=""))[:8]
    columns += [("",) * len(rows)] * (8 - len(columns))
    return columns, np.array([len(row) for row in rows], dtype=int)


def _padded(body: str, n: int) -> bool:
    """Whether one of the ``n`` lines that "\n" joins in ``body`` holds a
    space: one more "\n" than the joins, or any other ASCII space."""
    return body.count("\n") >= n or any(
        space in body for space in ASCII_SPACE if space != "\n"
    )


def _record_lines(lines: Iterable[str]) -> Iterable[tuple[int, str]]:
    """The 1-based number and stripped text of each line that is neither
    blank nor a '#' comment once stripped."""
    stripped = (line.strip(ASCII_SPACE) for line in lines)
    return ((n, line) for n, line in enumerate(stripped, 1) if line and line[0] != "#")


def _split_rows(lines: Sequence[str]) -> tuple[list[Sequence[str]], np.ndarray]:
    """The stripped fields of every record line as 8 columns, as
    ``_row_columns`` gives them, and each line's field count.

    Padding is looked for in the record lines as they stand, and the lines
    are stripped only when one is padded: a line without ASCII space strips
    to itself. Unpadded lines that are all 7 or all 8 fields wide, as the
    separators of their joined text show, then take one flat split of that
    text and a stride slice per column; all others are split line by line.
    """
    kept = [line for line in lines if line and line[0] != "#"]
    body = "\n".join(kept)
    padded = _padded(body, len(kept))
    if padded:
        kept = [line for _, line in _record_lines(lines)]
        body = "\n".join(kept)
        padded = _padded(body, len(kept))
    width = kept[0].count(",") + 1 if kept else 0
    if (
        not padded
        and width in (7, 8)
        and _utf8(body).translate(None, _NOT_SEPARATOR)
        == b"\n".join([b"," * (width - 1)] * len(kept))
    ):
        fields = body.replace("\n", ",").split(",")
        columns = [fields[i::width] for i in range(width)]
        columns += [[""] * len(kept)] * (8 - width)
        return columns, np.full(len(kept), width)
    return _row_columns(kept, padded)


def parse_counts(lines: Iterable[str], source: str = "<counts>") -> CountsColumns:
    """Counts-file lines as columns; '#' comments and blank lines are skipped.

    ``_split_rows`` splits the record lines into field columns, with one
    flat split when they are unpadded and all 7 or all 8 fields wide, and
    ``_checked_columns`` checks and converts every column; on a bad file
    it names the first bad line.
    """
    lines = list(lines)
    return _checked_columns(
        *_split_rows(lines), lambda: [n for n, _ in _record_lines(lines)], source
    )


def read_counts_file(path: str | Path) -> CountsColumns:
    """Read a UTF-8 counts file as columns; raises CountsFileError with
    line context."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise CountsFileError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    # Split as iterating the file splits it: str.splitlines() would also
    # break lines at \x0b, \x0c and U+2028.
    return parse_counts(text.split("\n"), str(path))


def counts_file_text(counts: CountsColumns) -> str:
    """Counts-file text: a header comment, then one line per row."""
    cells = ",".join(f"n_b{b}e{e}" for b, e in OUTCOME_ORDER)
    lines = [f"# alice,basis,pe_nominal,{cells}[,duration_s]"]
    for state, basis, pe, row, duration in zip(
        counts.state.tolist(), counts.basis.tolist(), counts.pe.tolist(),
        counts.counts.tolist(), counts.durations.tolist(),
    ):
        line = f"{_STATES[state].value},{_BASES[basis].value},{pe!r},"
        line += ",".join(map(str, row))
        if not math.isnan(duration):
            line += f",{duration!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def reference_counts_path() -> Path:
    """Filesystem path of the bundled reference counts data set."""
    return Path(str(resources.files("fpbsim").joinpath("data", _REFERENCE_FILE)))
