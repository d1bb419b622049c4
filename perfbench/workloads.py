"""The benchmark workloads: their inputs, their ops and output checks.

Every op is a list of ``fpbsim`` command lines run in-process through
``fpbsim.cli.main``. Inputs are made from the workload seed before the
op starts and reach the program only as files and flags. ``check``
returns the list of problems found in an op's outputs (empty when the
op is correct).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: Data seeds of the fit96 count files, used in this order by every run.
#: A fit's evaluation count depends on its data (2884 to 3680 for seeds 1 to
#: 16), so a run must not pick different data from one seed to the next. The
#: first five need 3048 to 3211 evaluations, so the median fit time hardly
#: depends on how many fits a run completes.
FIT_DATA_SEEDS = (5, 12, 7, 6, 4, 10, 13, 3, 8, 14, 2, 1, 9, 11, 16, 15)

#: Recovery tolerances of acceptance criterion 7, degrees.
FIT_TOLERANCE_DEG = {
    "alpha": 1.0,
    "delta": 2.0,
    "d_theta_a_h": 1.0,
    "d_theta_a_d": 1.0,
    "d_theta_a_v": 1.0,
    "d_theta_a_a": 1.0,
    "d_theta_b_hv": 1.0,
    "d_theta_b_da": 1.0,
    "d_xi": 5.0,
    "d_chi": 5.0,
}

STATES = ("H", "V", "D", "A")
BASIS_STATES = {"HV": ("H", "V"), "DA": ("D", "A")}

# Printed values carry 6 significant digits.
REL_TOL = 1e-5
ABS_TOL = 1e-9


@dataclass
class Result:
    code: int
    out: str
    err: str


@dataclass
class Op:
    """Command lines run back to back, timed together as one op."""

    argvs: list[list[str]]
    check: Callable[[list[Result]], list[str]]
    items: int
    info: dict = field(default_factory=dict)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def exit_problems(results: list[Result]) -> list[str]:
    return [
        f"command {i} exited {r.code}: {r.err.strip()[-200:]}"
        for i, r in enumerate(results)
        if r.code != 0
    ]


def shuffled_counts_text(text: str, rng: random.Random) -> str:
    """Counts-file text with its records in a seed-chosen order."""
    lines = text.splitlines(keepends=True)
    comments = [line for line in lines if line.startswith("#")]
    records = [line for line in lines if line.strip() and not line.startswith("#")]
    rng.shuffle(records)
    return "".join(comments + records)


def read_records(text: str) -> list[tuple[str, str, float, tuple[int, ...]]]:
    """(alice, basis, pe, counts) of every record of a counts file."""
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        records.append(
            (fields[0], fields[1], float(fields[2]), tuple(int(c) for c in fields[3:7]))
        )
    return records


def csv_tables(text: str) -> list[list[list[str]]]:
    """Blank-line separated CSV tables, each a list of rows with header."""
    tables = []
    for block in text.strip().split("\n\n"):
        tables.append([row.split(",") for row in block.strip().splitlines()])
    return tables


class Workload:
    name = ""
    #: Name of ``items_per_s`` on this workload.
    items_name = ""

    def __init__(self, program, seed: int, workdir: Path) -> None:
        self.program = program
        self.seed = seed
        self.workdir = workdir

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def simulate(self, out: Path, pe: str, pairs: int, seed: int) -> str:
        """Write a counts file with ``fpbsim simulate``; returns its text."""
        code = self.program.run(
            ["simulate", "--params", str(self.program.example_params),
             "--states", ",".join(STATES), "--pe", pe, "--pairs", str(pairs),
             "--seed", str(seed), "--out", str(out)]
        ).code
        if code != 0:
            raise RuntimeError(f"fpbsim simulate exited {code} while making inputs")
        return out.read_text(encoding="utf-8")


class Fit96(Workload):
    name = "fit96"
    items_name = "fits_per_s"

    def __init__(self, program, seed, workdir) -> None:
        super().__init__(program, seed, workdir)
        self.files: dict[int, Path] = {}
        self.truth = json.loads(program.example_params.read_text(encoding="utf-8"))

    def counts_file(self, data_seed: int) -> Path:
        """96-value design at 50 000 pairs; the run seed orders its records."""
        if data_seed not in self.files:
            raw = self.workdir / f"fit96-raw-{data_seed}.csv"
            text = self.simulate(raw, "0,0.1,1/3", 50_000, data_seed)
            path = self.workdir / f"fit96-{data_seed}.csv"
            rng = random.Random(f"{self.seed}:{data_seed}")
            path.write_text(shuffled_counts_text(text, rng), encoding="utf-8")
            self.files[data_seed] = path
        return self.files[data_seed]

    def op(self, i: int) -> Op:
        data_seed = FIT_DATA_SEEDS[i % len(FIT_DATA_SEEDS)]
        path = self.counts_file(data_seed)
        info = {"data_seed": data_seed, "records": len(read_records(path.read_text()))}

        def check(results: list[Result]) -> list[str]:
            problems = exit_problems(results)
            if problems:
                return problems
            doc = json.loads(results[0].out)
            info["evaluations"] = doc["evaluations"]
            if doc.get("converged") is not True:
                problems.append("fit did not report converged: true")
            for key, tol in FIT_TOLERANCE_DEG.items():
                err = abs(doc[key] - self.truth[key])
                if not err <= tol:
                    problems.append(f"{key} off by {err:.3f} deg (> {tol})")
            return problems

        return Op([["fit", "--counts", str(path), "--format", "json"]], check, 1, info)


class EstimateBulk(Workload):
    name = "estimate_bulk"
    items_name = "records_per_s"
    pe_points = 300
    sampled_rows = 64

    def __init__(self, program, seed, workdir) -> None:
        super().__init__(program, seed, workdir)
        rng = random.Random(seed)
        pes = sorted(k / 1e6 for k in rng.sample(range(333_334), self.pe_points))
        raw = workdir / "estimate_bulk-raw.csv"
        text = self.simulate(
            raw, ",".join(map(repr, pes)), rng.randrange(20_000, 100_001),
            rng.getrandbits(63),
        )
        self.path = workdir / "estimate_bulk.csv"
        self.path.write_text(shuffled_counts_text(text, rng), encoding="utf-8")
        self.records = read_records(self.path.read_text(encoding="utf-8"))
        present = {(alice, basis, pe) for alice, basis, pe, _ in self.records}
        self.pairs = {
            (basis, pe)
            for _, basis, pe, _ in self.records
            if all((s, basis, pe) in present for s in BASIS_STATES[basis])
        }

    def row_problems(self, rows: list[tuple[str, str, float, list[float]]], rng) -> list[str]:
        if len(rows) != len(self.records):
            return [f"{len(rows)} record rows for {len(self.records)} records"]
        problems = []
        for k in rng.sample(range(len(rows)), self.sampled_rows):
            alice, basis, pe, counts = self.records[k]
            total = sum(counts)
            got = rows[k]
            if got[:2] != (alice, basis) or not close(got[2], pe) or not all(
                close(p, c / total) for p, c in zip(got[3], counts)
            ):
                problems.append(f"record row {k} is {got}, counts {counts}")
        return problems

    def group_problems(self, keys: list[tuple[str, float]]) -> list[str]:
        found = {(basis, round(pe, 6)) for basis, pe in keys}
        missing = {(basis, round(pe, 6)) for basis, pe in self.pairs} - found
        if missing or len(keys) != len(self.pairs):
            return [f"{len(keys)} summary rows; missing {sorted(missing)[:3]}"]
        return []

    def op(self, i: int) -> Op:
        path = str(self.path)
        rng = random.Random(f"{self.seed}:{i}")

        def check(results: list[Result]) -> list[str]:
            problems = exit_problems(results)
            if problems:
                return problems
            rows, groups = csv_tables(results[0].out)
            problems += self.row_problems(
                [(r[0], r[1], float(r[2]), [float(v) for v in r[3:7]]) for r in rows[1:]],
                rng,
            )
            problems += self.group_problems([(g[0], float(g[1])) for g in groups[1:]])
            doc = json.loads(results[1].out)
            problems += self.row_problems(
                [
                    (r["alice"], r["basis"], r["pe"],
                     [r["p_10"], r["p_11"], r["p_01"], r["p_00"]])
                    for r in doc["records"]
                ],
                rng,
            )
            problems += self.group_problems([(g["basis"], g["pe"]) for g in doc["groups"]])
            return problems

        argvs = [
            ["estimate", "--counts", path],
            ["estimate", "--counts", path, "--format", "json"],
        ]
        return Op(argvs, check, 2 * len(self.records))


WORKLOADS = {w.name: w for w in (Fit96, EstimateBulk)}
