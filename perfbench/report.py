"""Run the benchmark over several seeds and summarise every metric.

Usage (from the repository root):

    python3 perfbench/report.py --seeds 1-10 --trace --out perfbench/results/NAME.json

Runs ``perfbench/run.py`` once per workload and seed, seeds interleaved
across workloads, with the ``run_seconds`` of BENCHMARK.json. For each
workload it prints the median and quartiles of every reported metric,
and for each end-to-end metric of BENCHMARK.json its spread (quartile
distance over median) against the metric's bound. ``--trace`` adds one
traced run per workload on the first seed.
"""

from __future__ import annotations

import argparse
import json
import platform
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return {"seed": seed, "result": json.loads(lines[-1]), "lines": lines[:-1]}


def values_of(run: dict) -> dict[str, tuple[float, str]]:
    """Every metric of a run: the result line's and the report lines' ``name value unit``."""
    values = {k: (v["value"], v["unit"]) for k, v in run["result"]["metrics"].items()}
    for line in run["lines"]:
        fields = line.split()
        if len(fields) >= 3 and not line.startswith("#"):
            try:
                values.setdefault(fields[0], (float(fields[1]), fields[2]))
            except ValueError:
                pass
    return values


def summarise(runs: list[dict]) -> dict:
    per_run = [values_of(run) for run in runs]
    names = sorted({name for values in per_run for name in values})
    summary = {}
    for name in names:
        values = [v[name][0] for v in per_run if name in v]
        unit = next(v[name][1] for v in per_run if name in v)
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        summary[name] = {
            "median": median, "q1": q1, "q3": q3, "unit": unit, "n": len(values),
            "spread": (q3 - q1) / median if median else None,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--label", default="", help="free text stored in the output")
    parser.add_argument("--out", help="write all runs and summaries as JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            run = run_once(name, seed, seconds, 0)
            runs[name].append(run)
            result = run["result"]
            print(f"{name} seed {seed}: correct {result['correct']} "
                  f"{result['failed']}/{result['attempted']} failed, " + ", ".join(
                      f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)

    doc = {"label": args.label, "run_seconds": seconds, "seeds": seeds,
           "machine": {"platform": platform.platform(), "cpus": os.cpu_count(),
                       "python": platform.python_version()},
           "workloads": {}}
    steady = True
    for name in names:
        summary = summarise(runs[name])
        attempted = sum(r["result"]["attempted"] for r in runs[name])
        failed = sum(r["result"]["failed"] for r in runs[name])
        print(f"\n== {name}: {failed}/{attempted} ops failed over {len(seeds)} runs")
        for metric, s in summary.items():
            note = ""
            if metric in bounds:
                ok = s["spread"] is not None and s["spread"] < bounds[metric] / 3
                steady &= ok
                note = f"  spread {s['spread']:.4f} vs bound/3 {bounds[metric] / 3:.4f}" + (
                    "" if ok else "  NOT STEADY")
            elif s["spread"] is not None:
                note = f"  spread {s['spread']:.4f}"
            print(f"{metric:<28} {s['median']:<12.6g} {s['unit']:<6} "
                  f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]{note}")
        entry = {"summary": summary, "attempted": attempted, "failed": failed,
                 "runs": runs[name]}
        if args.trace:
            traced = run_once(name, seeds[0], seconds, 1)
            entry["traced"] = traced
            print(f"-- {name} traced (seed {seeds[0]}), correct "
                  f"{traced['result']['correct']}")
            for line in traced["lines"]:
                print("   " + line)
        doc["workloads"][name] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print("\nall spreads below a third of their bounds" if steady else
          "\nsome spreads are not below a third of their bounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
