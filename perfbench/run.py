"""fpbsim benchmark: one workload, closed loop, one client, in-process.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit96 --seed 1 --seconds 40 --trace 0

Each op runs ``fpbsim`` command lines through ``fpbsim.cli.main`` and
starts only after the previous one has finished and been checked. Ops
start until ``--seconds`` have passed; the op in flight then finishes.
Set-up is timed between ops and does not count against ``--seconds``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``. Lines before it give every metric by name and unit.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One process, no extra threads: keep numpy's BLAS single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# One CPU for the ops, the host-speed samples and the set-up interpreters
# (children inherit it), so that the samples measure the CPU the work ran on.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import hostspeed
import spans
import workloads

#: Modules loaded before the program is imported; set-up excludes them.
BENCH_MODULES = frozenset(sys.modules)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 11
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Metrics of the result line; BENCHMARK.json lists the same names.
END_TO_END = ("setup_s", "op_s.p50", "items_per_s", "peak_rss_mb")
TRACED_FUNCTIONS = (
    "error_model.predict_outcome_probs",
    "qmath.tensor",
    "qmath.apply_unitary",
    "qmath.overlap_prob",
    "qmath.Unitary4",
    "probe.renyi_information",
    "montecarlo.read_counts_file",
    "montecarlo.parse_counts",
    "montecarlo.estimate_probabilities",
    "montecarlo.measured_renyi",
    "montecarlo.sifted_error_rate",
)
PER_LAYER = (
    "cli.main.self_s",
    "error_model.self_s",
    "probe.self_s",
    "montecarlo.self_s",
    "qmath.self_s",
    *(f"{name}.{stat}" for name in TRACED_FUNCTIONS for stat in ("calls", "self_us")),
    "error_model.fit_parameters.self_s",
    "error_model.fit_evals",
    "error_model.fit_evals.reference",
    "error_model.us_per_eval",
    "error_model.predict_per_inbox_eval",
    "setup.scipy_optimize_import_s",
    "trace.overhead_pct",
)
UNITS = {"calls": "count", "self_us": "us", "self_s": "s", "fit_evals": "count",
         "reference": "count", "us_per_eval": "us", "predict_per_inbox_eval": "count",
         "scipy_optimize_import_s": "s", "overhead_pct": "%"}

_IMPORT_ALL = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
import fpbsim.cli
for name in sys.argv[2:]:
    try:
        importlib.import_module(name)
    except ImportError:
        pass
"""


class Program:
    """The fpbsim package under test, imported from this checkout's src/."""

    def __init__(self) -> None:
        if not (SRC / "fpbsim" / "__init__.py").is_file():
            raise SystemExit(f"error: no fpbsim sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import fpbsim.cli

        if Path(fpbsim.__file__).resolve().parent != SRC / "fpbsim":
            raise SystemExit(f"error: imported fpbsim from {fpbsim.__file__}")
        self.cli = fpbsim.cli
        self.example_params = SRC / "fpbsim" / "data" / "example_params.json"
        self.reference_counts = SRC / "fpbsim" / "data" / "reference_counts.csv"

    def run(self, argv: list[str]) -> workloads.Result:
        """``fpbsim ARGV`` in-process; an escaped exception reads as exit -1."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
        return workloads.Result(code, out.getvalue(), err.getvalue())


def run_op(program, workload, i, recorder=None, sampler=None):
    """Run and check op ``i``; returns (seconds, items, problems, info).

    With a recorder, spans are recorded under op id ``i``. With a running
    host-speed sampler, seconds are at reference speed, and ``info`` gets the
    op's wall time and the host's slowdown during it.
    """
    op = workload.op(i)
    if recorder is not None:
        recorder.op = i
    t0 = time.perf_counter()
    results = [program.run(argv) for argv in op.argvs]
    t1 = time.perf_counter()
    elapsed = t1 - t0
    if sampler is not None:
        elapsed, op.info["slowdown"] = sampler.op_time(t0, t1)
        op.info["wall_s"] = t1 - t0
    if recorder is not None:
        recorder.op = None
    try:
        problems = op.check(results)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"output check failed to parse: {exc!r}"]
    for problem in problems[:5]:
        print(f"op {i} FAILED: {problem}", file=sys.stderr)
    return elapsed, op.items, problems, op.info


def run_ops(program, workload, seconds):
    """Closed loop: ops start until ``seconds`` have passed; returns (ops, set-up times).

    Op times are at reference speed (see hostspeed.py). Set-up is timed, in
    wall seconds, ``SETUP_REPEATS`` times between ops, spread evenly over
    the run so that it sees the same host speed as the ops, with the
    sampler's timer off. Time spent on it does not count against ``seconds``.
    """
    ops, setup_times = [], []
    sampler = hostspeed.Sampler()
    start, paused = time.perf_counter(), 0.0
    while not ops or time.perf_counter() - start - paused < seconds:
        sampler.start()
        try:
            ops.append(run_op(program, workload, len(ops), sampler=sampler))
        finally:
            sampler.stop()
        if len(ops) == 1:
            modules = program_modules_loaded()
        t0 = time.perf_counter()
        due = 1 + int((t0 - start - paused) / seconds * SETUP_REPEATS)
        while len(setup_times) < min(due, SETUP_REPEATS):
            setup_times.append(time_setup(modules))
        paused += time.perf_counter() - t0
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(time_setup(modules))
    return ops, setup_times


def tail(times: list[float]):
    """Highest percentile with at least 10 samples beyond it, or None."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    return None


def import_command(modules: list[str], importtime: bool = False) -> list[str]:
    flags = ["-X", "importtime"] if importtime else []
    return [sys.executable, *flags, "-c", _IMPORT_ALL, str(SRC), *modules]


def program_modules_loaded() -> list[str]:
    """Modules the program loaded into this process (set-up must import them)."""
    return sorted(
        name for name, module in sys.modules.items()
        if module is not None and name not in BENCH_MODULES and name != "__main__"
    )


def time_setup(modules: list[str]) -> float:
    """Wall seconds for a fresh interpreter to import fpbsim.cli and ``modules``."""
    t0 = time.perf_counter()
    subprocess.run(import_command(modules), check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


def scipy_optimize_import_s(modules: list[str]) -> float:
    """Cumulative ``-X importtime`` seconds of scipy.optimize within set-up."""
    if "scipy.optimize" not in modules:
        return 0.0
    proc = subprocess.run(
        import_command(modules, importtime=True),
        check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    for line in proc.stderr.splitlines():
        fields = [f.strip() for f in line.removeprefix("import time:").split("|")]
        if len(fields) == 3 and fields[2] == "scipy.optimize":
            return int(fields[1]) / 1e6
    return 0.0


def end_to_end(workload, ops, setup_times) -> tuple[dict, list[str]]:
    times = [op[0] for op in ops]
    items = sum(op[1] for op in ops)
    failed = sum(1 for op in ops if op[2])
    setup_wall = statistics.median(setup_times)
    slowdown = statistics.median(op[3]["slowdown"] for op in ops)
    metrics = {
        # Set-up runs between the ops, at the run's host speed.
        "setup_s": (setup_wall / slowdown, "s"),
        "op_s.p50": (statistics.median(times), "s"),
        # Per second inside ops: input making and output checks excluded.
        "items_per_s": (items / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [
        f"setup_s {metrics['setup_s'][0]:.4f} s (median of {len(setup_times)})",
        f"op_s.p50 {metrics['op_s.p50'][0]:.6f} s (n={len(times)})",
    ]
    t = tail(times)
    if t is None:
        lines.append(f"op_s.tail omitted: {len(times)} ops leave no percentile "
                     "with 10 samples beyond it")
    else:
        lines.append(f"op_s.tail {t[1]:.6f} s (p{t[0]:g}, n={len(times)}, {t[2]} beyond)")
    lines += [
        f"{workload.items_name} {metrics['items_per_s'][0]:.6g} 1/s (reported as items_per_s)",
        f"fail_ratio {failed / len(ops):.6g} ratio ({failed}/{len(ops)})",
        f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB",
        # Raw wall times, for comparison with runs on other hosts.
        f"wall.setup_s {setup_wall:.4f} s",
        f"wall.op_s.p50 {statistics.median(op[3]['wall_s'] for op in ops):.6f} s",
        f"host.slowdown {slowdown:.4f} ratio "
        f"(slice time over {hostspeed.REF_SLICE_S} s, median over ops)",
    ]
    if workload.name == "fit96":
        lines.append(fit_evals_line(ops))
    return metrics, lines


def fit_evals_line(ops) -> str:
    """FitResult.evaluations of each fit, by the data seed of its counts file."""
    return "fit_evals by data seed: " + " ".join(
        f"{op[3]['data_seed']}:{op[3].get('evaluations')}" for op in ops)


def count_problems(workload, summary, recorder, traced) -> list[str]:
    """Exact-count checks of a traced run; they fail when a wrapper is broken.

    Every in-box objective evaluation of a fit predicts each record once
    (out-of-box points return a penalty without predicting), and the read
    side never calls the forward model.
    """
    problems = []
    predicts = summary.get("error_model.predict_outcome_probs", (0, 0.0))[0]
    if workload.name == "estimate_bulk" and predicts:
        problems.append(f"estimate_bulk made {predicts} forward-model calls")
    if workload.name == "fit96":
        evals = sum(op[3].get("evaluations", 0) for op in traced)
        records = traced[0][3]["records"]
        if not recorder.objective_calls or not recorder.inbox_calls:
            problems.append(f"objective wrapper counted {recorder.objective_calls} "
                            f"evaluations, {recorder.inbox_calls} in box")
        if recorder.objective_calls != evals:
            problems.append(f"objective ran {recorder.objective_calls} times; "
                            f"fits report {evals} evaluations")
        if predicts != records * recorder.inbox_calls:
            problems.append(f"{predicts} predictions for {recorder.inbox_calls} "
                            f"in-box evaluations of {records} records")
    return problems


def per_layer(program, workload, seconds):
    """Each op untraced and then traced, on the same inputs, for ``seconds``.

    Alternating the two cancels slow drift of the machine's speed from the
    tracing overhead. Returns (metrics, report lines, failed trace checks,
    every op run).
    """
    errors = []
    recorder = spans.Recorder()
    before = spans.snapshot()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and len(recorder) < spans.SPAN_CAP:
        i = len(traced)
        untraced.append(run_op(program, workload, i))
        replaced = spans.install(recorder)
        try:
            traced.append(run_op(program, workload, i, recorder))
        finally:
            spans.uninstall(replaced)
    changed = spans.changed_bindings(before)
    if changed:
        errors.append(f"wrappers left bindings changed: {changed[:5]}")
    n = len(traced)
    summary = recorder.summary()
    metrics = {name: (0.0, UNITS[name.rsplit(".", 1)[1]]) for name in PER_LAYER}
    for name, (count, self_s) in sorted(summary.items()):
        metrics[f"{name}.calls"] = (count / n, "count")
        metrics[f"{name}.self_us"] = (1e6 * self_s / count if count else 0.0, "us")
    for layer in spans.LAYERS:
        own = sum(s for name, (_, s) in summary.items() if name.startswith(layer + "."))
        key = "cli.main.self_s" if layer == "cli" else f"{layer}.self_s"
        metrics[key] = (own / n, "s")
    metrics["error_model.fit_parameters.self_s"] = (
        summary.get("error_model.fit_parameters", (0, 0.0))[1] / n, "s")

    errors += count_problems(workload, summary, recorder, traced)
    predicts = summary.get("error_model.predict_outcome_probs", (0, 0.0))[0]
    if workload.name == "fit96":
        evals = [op[3].get("evaluations", 0) for op in traced]
        metrics["error_model.fit_evals"] = (statistics.median(evals), "count")
        # Untraced: the same fits, without the tracer's cost.
        fit_s = sum(op[0] for op in untraced)
        untraced_evals = sum(op[3].get("evaluations", 0) for op in untraced)
        metrics["error_model.us_per_eval"] = (1e6 * fit_s / max(untraced_evals, 1), "us")
        if recorder.inbox_calls:
            metrics["error_model.predict_per_inbox_eval"] = (
                predicts / recorder.inbox_calls, "count")
        reference = program.run(
            ["fit", "--counts", str(program.reference_counts), "--format", "json"])
        metrics["error_model.fit_evals.reference"] = (
            json.loads(reference.out)["evaluations"], "count")
    metrics["setup.scipy_optimize_import_s"] = (
        scipy_optimize_import_s(program_modules_loaded()), "s")
    p50_off = statistics.median(op[0] for op in untraced)
    p50_on = statistics.median(op[0] for op in traced)
    metrics["trace.overhead_pct"] = (100 * (p50_on / p50_off - 1), "%")

    recorder.write(OUT_DIR / f"spans-{workload.name}.npz")
    lines = [
        f"traced ops {n}, spans {len(recorder)}, untraced op_s.p50 {p50_off:.6f} s, "
        f"traced op_s.p50 {p50_on:.6f} s, overhead {metrics['trace.overhead_pct'][0]:.1f} %",
    ]
    if workload.name == "fit96":
        lines += [
            fit_evals_line(traced),
            f"fit objective evaluations {recorder.objective_calls}, in box "
            f"{recorder.inbox_calls}, predictions {predicts}",
        ]
    return metrics, lines, errors, untraced + traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = Program()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        workload = workloads.WORKLOADS[args.workload](program, args.seed, workdir)
        if args.trace:
            metrics, lines, errors, ops = per_layer(program, workload, args.seconds)
        else:
            ops, setup_times = run_ops(program, workload, args.seconds)
            metrics, lines = end_to_end(workload, ops, setup_times)
            errors = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for op in ops if op[2])
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in lines:
        print(line)
    if args.trace:
        for key, (value, unit) in sorted(metrics.items()):
            print(f"{key} {value:.6g} {unit}")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    reported = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
