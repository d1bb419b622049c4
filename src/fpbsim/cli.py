"""Command-line front end.

Subcommands:

* ``curve``     Renyi-information curves over an error-probability grid,
  from ``error_model.model_sift_summaries`` of the whole grid; a grid
  point without error-free sift events is an error.
* ``table``     Model detection probabilities in the reference layout,
  one ``error_model._predict`` pass over every (state, pe).
* ``simulate``  Seeded synthetic coincidence-count files: one
  ``error_model._predict`` pass over every (state, basis, pe), then one
  multinomial draw per row into the int64 counts of a
  ``montecarlo.CountsColumns``, written from it.
* ``estimate``  Probabilities, error rates, and measured Renyi
  information from a counts file. The per-(basis, pe) rows are the
  columns' ``sift_summaries``, and the command only formats them, warning
  about each incomplete group.
* ``fit``       Least-squares fit of the ten error-model parameters, as
  one JSON document or ``key,value`` CSV rows with the same keys.

``estimate`` and ``fit`` read their counts file with
``montecarlo.read_counts_file`` into ``montecarlo.CountsColumns``. Outputs
are deterministic given the inputs and seed. Tables are CSV blocks or JSON
row objects with the same columns, written by ``_emit_tables``: CSV floats
are ``"%.6g"``, and the JSON is byte for byte what ``json.dumps(payload,
indent=2)`` writes. Exit codes: 0 on success, 1 with one ``error:`` line
on any rejected input (a bad flag, an unreadable or malformed file,
parameters or counts the library rejects), 2 when a fit fails to
converge. Numbers in flags and pe lists are ASCII without ``_``, as in
counts files. All user-facing angles are degrees; counts files and
parameter documents are in the README.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

import numpy as np
# Imported with the CLI: numpy loads numpy.random lazily, on first use,
# which would put ~20 ms of imports into the first simulation.
from numpy.random import SeedSequence, default_rng

from . import error_model, montecarlo, probe
from .error_model import ErrorModelParams
from .montecarlo import _BASES, _BASIS_INDEX, _STATE_BASIS, _STATE_INDEX
from .montecarlo import ASCII_SPACE, CountsColumns
from .probe import SiftBasis

#: Largest ``curve --steps``: in a fresh process, 10**6 steps take 2.9-3.2 s
#: and peak at 307 MB resident in CSV, 3.8-3.9 s and 729 MB in JSON (2-vCPU
#: Xeon), nearly all of the memory the output's columns and text; the
#: model's share stays a few MB.
MAX_STEPS = 1_000_000


class UsageError(Exception):
    """Bad flags or unparseable inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(f"{self.prog}: {message}")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _jsonable(value: float) -> float:
    return float(_fmt(value))


def _ascii_int(token: str) -> int:
    """argparse type of the integer flags: ASCII, no ``_``, as ``int()`` reads it."""
    if token.isascii() and "_" not in token:
        try:
            return int(token)
        except ValueError:
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {token!r}")


def _parse_pe(token: str) -> float:
    # float() also reads '_' digit groups and non-ASCII digits and padding;
    # counts files reject them, and so do pe flags.
    token = token.strip(ASCII_SPACE)
    try:
        if not token.isascii() or "_" in token:
            raise ValueError(token)
        if "/" in token:
            num, den = token.split("/")
            pe = float(num) / float(den)
        else:
            pe = float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad error probability {token!r}") from exc
    return probe.checked_pe(pe)


def _parse_pe_list(text: str) -> list[float]:
    values = [_parse_pe(token) for token in text.split(",") if token.strip(ASCII_SPACE)]
    if not values:
        raise UsageError("empty error-probability list")
    return values


def _parse_states(text: str) -> np.ndarray:
    """The state indices, as in ``CountsColumns``, of a comma list of states."""
    states = []
    for token in filter(None, (t.strip(ASCII_SPACE) for t in text.split(","))):
        if token.upper() not in _STATE_INDEX:
            raise UsageError(f"unknown input state {token!r}")
        states.append(_STATE_INDEX[token.upper()])
    if not states:
        raise UsageError("empty state list")
    return np.array(states)


def _load_params(path: str | None) -> ErrorModelParams:
    if not path:
        return ErrorModelParams()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return ErrorModelParams.from_dict(doc)
    except OSError as exc:
        raise UsageError(f"cannot read parameter file {path}: {exc}") from exc
    except (RecursionError, ValueError) as exc:
        raise UsageError(f"bad parameter file {path}: {exc}") from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


#: JSON spellings of the floats that ``repr`` writes as nan and inf.
_JSON_SPECIAL = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_odd(values: Sequence[float]) -> np.ndarray:
    """Mask of the values whose ``"%.6g"`` text is not what ``json.dumps``
    writes for ``_jsonable(value)``.

    "%.6g" is float.__repr__ of its own value except for integers (repr
    adds ".0"), exponents 6 to 15 (repr writes them out), subnormals (repr
    may need fewer digits), nan and inf. This mask holds all of them.
    """
    x = abs(np.asarray(values, dtype=float))
    with np.errstate(invalid="ignore"):
        odd = ~(abs(x - np.rint(x)) > 1e-5 * x)
    return odd | (x >= 999_999.0) | (x < sys.float_info.min)


def _json_numbers(values: Sequence[float], odd: np.ndarray) -> list[str]:
    """Each ``_jsonable(value)`` as ``json.dumps`` writes it, where ``odd``
    is the values' ``_json_odd`` mask; the other values keep their
    ``"%.6g"`` text."""
    texts = ("%.6g\n" * len(values) % tuple(values)).split("\n")[:-1]
    for k in np.flatnonzero(odd).tolist():
        texts[k] = _JSON_SPECIAL.get(texts[k]) or repr(float(texts[k]))
    return texts


def _cells(columns: Sequence, rows: int) -> tuple:
    """The cells of a table row after row, by one slice assignment per column."""
    width = len(columns)
    cells = [None] * (width * rows)
    for k, column in enumerate(columns):
        cells[k::width] = column
    return tuple(cells)


def _json_table(names: Sequence[str], columns: Sequence, rows: int, level: int) -> str:
    """``json.dumps(indent=2)`` text of the table as a list of row objects,
    for a list nested ``level`` deep.

    The cells fill one ``%`` row template in one pass. A float column
    without a ``_json_odd`` value is formatted there by ``"%.6g"``; a
    string column, each distinct spelling encoded once, and a float column
    that holds an odd value are converted first and filled in by ``"%s"``.
    """
    if not rows:
        return "[]"
    outer, inner, field = ("  " * n for n in (level, level + 1, level + 2))
    texts, specs = list(columns), ["%s"] * len(columns)
    for k, column in enumerate(columns):
        if isinstance(column[0], str):
            codes = {text: encode_basestring_ascii(text) for text in set(column)}
            texts[k] = list(map(codes.__getitem__, column))
        elif (odd := _json_odd(column)).any():
            texts[k] = _json_numbers(column, odd)
        else:
            specs[k] = "%.6g"
    keys = [encode_basestring_ascii(name).replace("%", "%%") for name in names]
    members = ",\n".join(f"{field}{key}: {spec}" for key, spec in zip(keys, specs))
    row = f"{inner}{{\n{members}\n{inner}}}" if keys else f"{inner}{{}}"
    body = ",\n".join([row] * rows) % _cells(texts, rows)
    return f"[\n{body}\n{outer}]"


def _csv_table(names: Sequence[str], columns: Sequence, rows: int) -> str:
    text = ",".join(names) + "\n"
    if rows:
        row = ",".join("%s" if isinstance(c[0], str) else "%.6g" for c in columns)
        text += "\n".join([row] * rows) % _cells(columns, rows) + "\n"
    return text


def _emit_tables(
    args: argparse.Namespace,
    tables: dict[str, tuple[Sequence[str], Sequence[Sequence], int]],
) -> None:
    """Write named tables of strings and floats in ``args.format``.

    A table is its names, its columns (each all strings or all floats) and
    its row count, which a table without columns needs; its cells fill one
    ``%`` row template, column by column. CSV writes floats with ``_fmt``
    and separates the tables by a blank line. JSON is
    ``json.dumps(payload, indent=2)`` byte for byte, where the payload is
    each table as a list of row objects with floats through ``_jsonable``,
    and several tables go in an object keyed by name.
    """
    if args.format == "csv":
        _emit(args, "\n".join(_csv_table(*table) for table in tables.values()))
    elif len(tables) == 1:
        _emit(args, _json_table(*next(iter(tables.values())), 0) + "\n")
    else:
        members = ",\n".join(
            f"  {encode_basestring_ascii(name)}: {_json_table(*table, 1)}"
            for name, table in tables.items()
        )
        _emit(args, f"{{\n{members}\n}}\n")


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--params", metavar="PATH",
        help="error-model parameter file (JSON, degrees); default ideal model",
    )


def _add_output_flags(parser: argparse.ArgumentParser, formats: bool = True) -> None:
    parser.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    if formats:
        parser.add_argument(
            "--format", choices=("csv", "json"), default="csv",
            help="output format (default csv)",
        )


def cmd_curve(args: argparse.Namespace) -> int:
    if not 1 <= args.steps <= MAX_STEPS:
        raise UsageError(f"--steps must be between 1 and {MAX_STEPS}")
    pe_min = _parse_pe(args.pe_min)
    pe_max = _parse_pe(args.pe_max)
    if pe_max < pe_min:
        raise UsageError("--pe-max must not be below --pe-min")
    params = _load_params(args.params)
    grid = np.linspace(pe_min, pe_max, args.steps).tolist()
    renyi, _ = error_model.model_sift_summaries(params, grid)
    missing = np.argwhere(np.isnan(renyi))
    if missing.size:
        point, basis = missing[0]
        raise UsageError(
            f"model predicts no error-free sift events in basis "
            f"{_BASES[basis].value} at pe {_fmt(grid[point])}"
        )
    # The slack keeps a grid that ends at 1/3 itself free of the notice.
    above = sum(pe > 1.0 / 3.0 + 1e-12 for pe in grid)
    if above:
        print(
            f"warning: {above} of {len(grid)} grid points lie above "
            "pe = 1/3, outside the attack's useful operating range",
            file=sys.stderr,
        )
    columns = [grid, *renyi.T.tolist(), list(map(probe.renyi_closed_form, grid))]
    names = ("pe", "renyi_hv", "renyi_da", "renyi_ideal")
    _emit_tables(args, {"curve": (names, columns, len(grid))})
    return 0


_PROB_COLUMNS = tuple(f"p_{b}{e}" for b, e in probe.OUTCOME_ORDER)
#: The state spellings by state index: the index map holds them in index order.
_SPELLINGS = np.array(list(_STATE_INDEX))


def cmd_table(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    states = _parse_states(args.states)
    pes = _parse_pe_list(args.pe)
    state, pe_index = np.repeat(states, len(pes)), np.tile(range(len(pes)), len(states))
    probs = error_model._predict(
        params.as_vector(), state, _STATE_BASIS[state], pe_index, pes
    )
    columns = [_SPELLINGS[state].tolist(), pes * len(states), *probs.T.tolist()]
    _emit_tables(args, {"table": (("alice", "pe", *_PROB_COLUMNS), columns, len(probs))})
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if not 1 <= args.pairs <= montecarlo.MAX_PAIRS:
        raise UsageError(f"--pairs must be between 1 and {montecarlo.MAX_PAIRS}")
    if not 0 <= args.seed < 2**64:
        raise UsageError("--seed must be an unsigned 64-bit integer")
    params = _load_params(args.params)
    states = _parse_states(args.states)
    pes = _parse_pe_list(args.pe)
    # One record per (state, basis, pe), in that nesting order.
    shape = (len(states), len(_BASES), len(pes))
    state, basis, pe_index = np.indices(shape).reshape(3, -1)
    state = states[state]
    probs = error_model._predict(params.as_vector(), state, basis, pe_index, pes)
    seeds = SeedSequence(args.seed).generate_state(len(probs), np.uint64)
    # Each row is one multinomial draw of --pairs events from its own
    # seed's PCG64 stream, over the row renormalized to sum to 1; every row
    # sums to --pairs, so the int64 counts are exact.
    counts = np.array([
        default_rng(seed).multinomial(args.pairs, row / row.sum())
        for row, seed in zip(probs, seeds.tolist())
    ], dtype=np.int64)
    _emit(args, montecarlo.counts_file_text(CountsColumns(
        state, basis, np.array(pes)[pe_index], counts, np.full(len(probs), math.nan),
    )))
    return 0


def _group_name(basis: SiftBasis, pe: float) -> str:
    """How ``estimate`` names a sift group in a warning or error."""
    return f"basis {basis.value} at pe {_fmt(pe)}"


def cmd_estimate(args: argparse.Namespace) -> int:
    counts = montecarlo.read_counts_file(args.counts)
    if not len(counts.pe):
        raise UsageError(f"counts file {args.counts} contains no records")
    records = [
        _SPELLINGS[counts.state].tolist(),
        np.array(list(_BASIS_INDEX))[counts.basis].tolist(),
        counts.pe.tolist(),
        *counts.probabilities().T.tolist(),
    ]
    group_rows = []
    for basis, pe, measured, rate, problem in counts.sift_summaries():
        if problem is not None:
            print(
                f"warning: {_group_name(basis, pe)} {problem}; skipping its summary",
                file=sys.stderr,
            )
        elif math.isnan(measured):
            raise UsageError(
                f"{_group_name(basis, pe)}: records contain no error-free sift counts"
            )
        else:
            group_rows.append((basis._value_, pe, measured, rate))
    summary_columns = ("basis", "pe", "measured_renyi", "sifted_error_rate")
    groups = [*zip(*group_rows)] or [()] * len(summary_columns)
    _emit_tables(
        args,
        {
            "records": (("alice", "basis", "pe", *_PROB_COLUMNS), records, len(counts.pe)),
            "groups": (summary_columns, groups, len(group_rows)),
        },
    )
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    counts = montecarlo.read_counts_file(args.counts)
    init = _load_params(args.init)
    result = error_model.fit_parameters(
        counts, init=init, max_evals=args.max_evals, weighting=args.weighting
    )
    n_values = counts.counts.size
    if n_values < 96:
        print(
            f"warning: {n_values} data values constrain a 10-parameter fit "
            "loosely; 96 values (4 states x 2 bases x 3 error settings) are "
            "recommended",
            file=sys.stderr,
        )
    if result.held:
        print(
            f"warning: no record constrains {', '.join(result.held)}; held at "
            "the initial values",
            file=sys.stderr,
        )
    doc = result.params.to_dict()
    if args.format == "json":
        payload = {key: _jsonable(value) for key, value in doc.items()}
        payload["residual"] = float(f"{result.residual:.6e}")
        payload["evaluations"] = result.evaluations
        payload["converged"] = result.converged
        payload["termination"] = result.termination
        payload["held"] = list(result.held)
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        lines = ["key,value"]
        lines.extend(f"{key},{_fmt(value)}" for key, value in doc.items())
        lines.append(f"residual,{result.residual:.6e}")
        lines.append(f"evaluations,{result.evaluations}")
        lines.append(f"converged,{str(result.converged).lower()}")
        lines.append(f"termination,{result.termination}")
        lines.append(f"held,{';'.join(result.held)}")
        _emit(args, "\n".join(lines) + "\n")
    if not result.converged:
        print("warning: fit did not converge", file=sys.stderr)
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fpbsim",
        description="Entangling-probe attack on BB84: curves, tables, "
        "synthetic counts, estimation, and error-model fits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="Renyi information vs error probability")
    _add_model_flags(curve)
    curve.add_argument("--pe-min", default="0", help="grid start (default 0)")
    curve.add_argument("--pe-max", default="1/3", help="grid end (default 1/3)")
    curve.add_argument(
        "--steps", type=_ascii_int, default=35,
        help=f"grid points, 1 to {MAX_STEPS} (default 35)",
    )
    _add_output_flags(curve)
    curve.set_defaults(func=cmd_curve)

    table = sub.add_parser("table", help="model detection probabilities")
    _add_model_flags(table)
    table.add_argument("--pe", default="0,0.1,1/3", help="comma list of pe values")
    table.add_argument("--states", default="D,A", help="comma list of input states")
    _add_output_flags(table)
    table.set_defaults(func=cmd_table)

    simulate = sub.add_parser("simulate", help="synthesize a counts file")
    _add_model_flags(simulate)
    simulate.add_argument("--pe", default="0,0.1,1/3", help="comma list of pe values")
    simulate.add_argument(
        "--states", default="H,V,D,A", help="comma list of input states"
    )
    simulate.add_argument(
        "--pairs", type=_ascii_int, default=50_000, help="events per record"
    )
    simulate.add_argument("--seed", type=_ascii_int, default=0, help="64-bit RNG seed")
    _add_output_flags(simulate, formats=False)
    simulate.set_defaults(func=cmd_simulate)

    estimate = sub.add_parser("estimate", help="estimate from a counts file")
    estimate.add_argument("--counts", required=True, metavar="PATH")
    _add_output_flags(estimate)
    estimate.set_defaults(func=cmd_estimate)

    fit = sub.add_parser("fit", help="fit error-model parameters to counts")
    fit.add_argument("--counts", required=True, metavar="PATH")
    fit.add_argument("--init", metavar="PATH", help="initial parameter file")
    fit.add_argument(
        "--max-evals", type=_ascii_int, default=50_000,
        help="hard budget on evaluations (calls of the residual function; "
        "the Jacobian is taken at the start point and at accepted steps), "
        "forward-difference columns at the start included",
    )
    fit.add_argument("--weighting", choices=("equal", "counts"), default="equal")
    _add_output_flags(fit)
    fit.set_defaults(func=cmd_fit)

    return parser


#: The process's one parser: parsing keeps no state in it, and building it
#: costs some twenty times what parsing does.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
