"""Self-test of the benchmark: every workload at its smallest size.

Run from the repository root (about 40 s, most of it one fit):

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PROGRAM = run.Program()


def smallest(name: str, tmp_path: Path) -> workloads.Workload:
    cls = workloads.WORKLOADS[name]
    if name == "estimate_bulk":
        cls = type("TinyBulk", (cls,), {"pe_points": 2, "sampled_rows": 8})
    return cls(PROGRAM, 7, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_checks_and_wrappers_restore(name, tmp_path):
    workload = smallest(name, tmp_path)
    recorder = spans.Recorder()
    before = spans.snapshot()
    replaced = spans.install(recorder)
    try:
        assert spans.changed_bindings(before), "install replaced nothing"
        ops = [run.run_op(PROGRAM, workload, 0, recorder)]
    finally:
        spans.uninstall(replaced)
    assert spans.changed_bindings(before) == []
    assert [op[2] for op in ops] == [[]]
    summary = recorder.summary()
    assert summary["cli.main"][0] == len(workload.op(0).argvs)
    assert run.count_problems(workload, summary, recorder, ops) == []
    predicts = summary.get("error_model.predict_outcome_probs", (0, 0.0))[0]
    if name == "fit96":
        assert recorder.inbox_calls > 0
        assert predicts == ops[0][3]["records"] * recorder.inbox_calls
        # A wrapper that counted nothing fails the run.
        assert run.count_problems(workload, summary, spans.Recorder(), ops)
    if name == "estimate_bulk":
        assert predicts == 0


def test_checks_catch_wrong_output(tmp_path):
    workload = smallest("estimate_bulk", tmp_path)
    op = workload.op(0)
    results = [PROGRAM.run(argv) for argv in op.argvs]
    assert op.check(results) == []
    results[0].out = results[0].out.replace("\nDA,", "\nHV,", 1)
    assert op.check(results)


def test_op_time_drops_slices_and_scales_by_slowdown():
    sampler = hostspeed.Sampler()
    sampler.ends = [0.5, 1.0, 2.0, 3.0]
    sampler.slices = [1.0, 2.0, 2.0, 1.0]
    ref = hostspeed.REF_SLICE_S
    assert sampler.op_time(0.9, 2.5) == ((1.6 - 4.0) / (2.0 / ref), 2.0 / ref)
    # No slice inside: the last one before the op's end gives the slowdown.
    assert sampler.op_time(3.5, 4.0)[1] == 1.0 / ref


def test_run_ops_leaves_no_timer(tmp_path):
    ops, setup_times = run.run_ops(PROGRAM, smallest("estimate_bulk", tmp_path), 1e-3)
    assert len(ops) == 1 and ops[0][2] == [] and ops[0][3]["slowdown"] > 0
    assert len(setup_times) == run.SETUP_REPEATS
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 19) is None
    pct, _, beyond = run.tail([float(i) for i in range(40)])
    assert (pct, beyond) == (75.0, 10)


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fit96", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
