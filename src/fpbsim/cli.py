"""Command-line front end.

Subcommands:

* ``curve``     Renyi-information curves over an error-probability grid.
* ``table``     Model detection probabilities in the reference layout.
* ``simulate``  Seeded synthetic coincidence-count files.
* ``estimate``  Probabilities, error rates, and measured Renyi
  information from a counts file.
* ``fit``       Least-squares fit of the ten error-model parameters.

Outputs are deterministic given the inputs and seed. Tables are CSV
blocks or JSON row objects with the same columns. Exit codes: 0 on
success, 1 with one ``error:`` line on any rejected input (a bad flag,
an unreadable or malformed file, parameters or counts the library
rejects), 2 when a fit fails to converge. All user-facing angles are
degrees; counts files and parameter documents are documented in the
README.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from . import error_model, montecarlo, probe
from .error_model import ErrorModelParams, FitOptions
from .montecarlo import CountsRecord
from .probe import Bb84State, ProbeConfig, SiftBasis

_BASES = (SiftBasis.HV, SiftBasis.DA)


class UsageError(Exception):
    """Bad flags or unparseable inputs; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise UsageError(f"{self.prog}: {message}")


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _jsonable(value: float) -> float:
    return float(_fmt(value))


def _parse_pe(token: str) -> float:
    token = token.strip()
    try:
        if "/" in token:
            num, den = token.split("/")
            pe = float(num) / float(den)
        else:
            pe = float(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad error probability {token!r}") from exc
    if not 0.0 <= pe <= 0.5:
        raise UsageError(f"error probability {token!r} outside [0, 0.5]")
    return pe


def _parse_pe_list(text: str) -> list[float]:
    values = [_parse_pe(token) for token in text.split(",") if token.strip()]
    if not values:
        raise UsageError("empty error-probability list")
    return values


def _parse_states(text: str) -> list[Bb84State]:
    states = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            states.append(Bb84State(token.upper()))
        except ValueError as exc:
            raise UsageError(f"unknown input state {token!r}") from exc
    if not states:
        raise UsageError("empty state list")
    return states


def _load_params(path: str | None) -> ErrorModelParams:
    if not path:
        return ErrorModelParams()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        return ErrorModelParams.from_dict(doc)
    except OSError as exc:
        raise UsageError(f"cannot read parameter file {path}: {exc}") from exc
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise UsageError(f"bad parameter file {path}: {exc}") from exc


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_tables(
    args: argparse.Namespace, tables: dict[str, tuple[Sequence[str], list[list]]]
) -> None:
    """Write named tables of strings and floats in ``args.format``.

    CSV separates the tables by a blank line. JSON writes each table as
    a list of row objects; several tables go in an object keyed by name.
    """
    fmt = _jsonable if args.format == "json" else _fmt

    def cells(row: list) -> list:
        return [value if isinstance(value, str) else fmt(value) for value in row]

    if args.format == "json":
        docs = {
            name: [dict(zip(columns, cells(row))) for row in rows]
            for name, (columns, rows) in tables.items()
        }
        payload = docs if len(docs) > 1 else next(iter(docs.values()))
        _emit(args, json.dumps(payload, indent=2) + "\n")
    else:
        blocks = []
        for columns, rows in tables.values():
            lines = [",".join(columns), *(",".join(cells(row)) for row in rows)]
            blocks.append("\n".join(lines) + "\n")
        _emit(args, "\n".join(blocks))


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
    if args.steps < 1:
        raise UsageError("--steps must be at least 1")
    pe_min = _parse_pe(args.pe_min)
    pe_max = _parse_pe(args.pe_max)
    if pe_max < pe_min:
        raise UsageError("--pe-max must not be below --pe-min")
    params = _load_params(args.params)
    grid = np.linspace(pe_min, pe_max, args.steps)
    rows = []
    # The closed form warns once per grid point above pe = 1/3; report
    # those points on one line instead.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for pe in grid:
            cfg = ProbeConfig(float(pe))
            rows.append(
                [
                    float(pe),
                    error_model.model_renyi(params, SiftBasis.HV, cfg),
                    error_model.model_renyi(params, SiftBasis.DA, cfg),
                    probe.renyi_closed_form(float(pe)),
                ]
            )
    if caught:
        print(
            f"warning: {len(caught)} of {len(grid)} grid points lie above "
            "pe = 1/3, outside the attack's useful operating range",
            file=sys.stderr,
        )
    columns = ("pe", "renyi_hv", "renyi_da", "renyi_ideal")
    _emit_tables(args, {"curve": (columns, rows)})
    return 0


_PROB_COLUMNS = tuple(f"p_{b}{e}" for b, e in probe.OUTCOME_ORDER)


def cmd_table(args: argparse.Namespace) -> int:
    params = _load_params(args.params)
    states = _parse_states(args.states)
    pes = _parse_pe_list(args.pe)
    rows = [
        [
            state.value,
            pe,
            *error_model.predict_outcome_probs(
                params, state, state.basis, ProbeConfig(pe)
            ),
        ]
        for state in states
        for pe in pes
    ]
    _emit_tables(args, {"table": (("alice", "pe", *_PROB_COLUMNS), rows)})
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    if not 1 <= args.pairs <= montecarlo.MAX_PAIRS:
        raise UsageError(f"--pairs must be between 1 and {montecarlo.MAX_PAIRS}")
    if not 0 <= args.seed < 2**64:
        raise UsageError("--seed must be an unsigned 64-bit integer")
    params = _load_params(args.params)
    states = _parse_states(args.states)
    pes = _parse_pe_list(args.pe)
    combos = [
        (state, basis, pe) for state in states for basis in _BASES for pe in pes
    ]
    seeds = np.random.SeedSequence(args.seed).generate_state(len(combos), np.uint64)
    records = []
    for (state, basis, pe), seed in zip(combos, seeds):
        probs = error_model.predict_outcome_probs(
            params, state, basis, ProbeConfig(pe)
        )
        counts = montecarlo.simulate_counts(probs, args.pairs, int(seed))
        records.append(CountsRecord(state, basis, pe, counts))
    _emit(args, montecarlo.counts_file_text(records))
    return 0


def _sift_groups(
    records: Sequence[CountsRecord],
) -> list[tuple[SiftBasis, float, list[CountsRecord]]]:
    groups: dict[tuple[str, float], list[CountsRecord]] = {}
    for record in records:
        if record.alice.basis is not record.bob_basis:
            continue
        key = (record.bob_basis.value, record.pe_nominal)
        groups.setdefault(key, []).append(record)
    ordered = sorted(groups.items(), key=lambda item: (item[0][0] != "HV", item[0][1]))
    return [(SiftBasis(basis), pe, members) for (basis, pe), members in ordered]


def _skip_reason(members: Sequence[CountsRecord]) -> str | None:
    """Why a sift group gets no summary; None for one record per input state."""
    if len({record.alice for record in members}) < 2:
        return "is missing a paired"
    if len(members) > 2:
        return "needs exactly one record per"
    return None


def cmd_estimate(args: argparse.Namespace) -> int:
    records = montecarlo.read_counts_file(args.counts)
    if not records:
        raise UsageError(f"counts file {args.counts} contains no records")
    probs = montecarlo.estimate_probabilities(records).tolist()
    record_rows = [
        [record.alice.value, record.bob_basis.value, record.pe_nominal, *row]
        for record, row in zip(records, probs)
    ]
    groups = _sift_groups(records)
    skips = [_skip_reason(members) for _, _, members in groups]
    renyi, error_rate = montecarlo.sift_summaries(
        [members for (_, _, members), skip in zip(groups, skips) if skip is None]
    )
    summaries = zip(renyi.tolist(), error_rate.tolist())
    group_rows = []
    for (basis, pe, _), skip in zip(groups, skips):
        where = f"basis {basis.value} at pe {_fmt(pe)}"
        if skip is not None:
            print(f"warning: {where} {skip} input state; skipping its summary",
                  file=sys.stderr)
            continue
        measured, rate = next(summaries)
        if math.isnan(measured):
            raise UsageError(f"{where}: records contain no error-free sift counts")
        group_rows.append([basis.value, pe, measured, rate])
    summary_columns = ("basis", "pe", "measured_renyi", "sifted_error_rate")
    _emit_tables(
        args,
        {
            "records": (("alice", "basis", "pe", *_PROB_COLUMNS), record_rows),
            "groups": (summary_columns, group_rows),
        },
    )
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    records = montecarlo.read_counts_file(args.counts)
    n_values = 4 * len(records)
    if n_values < 96:
        print(
            f"warning: {n_values} data values constrain a 10-parameter fit "
            "loosely; 96 values (4 states x 2 bases x 3 error settings) are "
            "recommended",
            file=sys.stderr,
        )
    options = FitOptions(max_evals=args.max_evals, weighting=args.weighting)
    init = _load_params(args.init)
    result = error_model.fit_parameters(records, init=init, options=options)
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
    curve.add_argument("--steps", type=int, default=35, help="grid points")
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
    simulate.add_argument("--pairs", type=int, default=50_000, help="events per record")
    simulate.add_argument("--seed", type=int, default=0, help="64-bit RNG seed")
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
        "--max-evals", type=int, default=50_000,
        help="hard budget on residual evaluations, Jacobian columns included",
    )
    fit.add_argument("--weighting", choices=("equal", "counts"), default="equal")
    _add_output_flags(fit)
    fit.set_defaults(func=cmd_fit)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
