#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload ramp-sweep --seeds 1-10 --seconds 30
    python3 bench/spread.py --workload ramp-sweep --seeds 1-10 --seconds 30 --baseline

For every end-to-end metric it prints the median, the quartiles and the
distance between the quartiles as a share of the median, which is what a
bound in BENCHMARK.json is compared against.  --baseline also runs one traced
run (first seed) and stores both in bench/baseline.json under the workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["report"] = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    runs = []
    for seed in seeds:
        result = run_once(args.workload, seed, args.seconds, 0)
        runs.append(result)
        print(seed, json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}),
              f"attempted={result['attempted']} failed={result['failed']} correct={result['correct']}",
              flush=True)
    summary = {name: summarize([r["metrics"][name]["value"] for r in runs]) for name in runs[0]["metrics"]}
    for name, s in summary.items():
        print(f"{args.workload} {name}: median {s['median']:.6g} quartiles [{s['q1']:.6g}, {s['q3']:.6g}] "
              f"spread {s['iqr_share']:.3f}")
    if args.baseline:
        traced = run_once(args.workload, seeds[0], args.seconds, 1)
        report = traced["report"]
        path = BENCH / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        baseline[args.workload] = {
            "seeds": seeds,
            "seconds": args.seconds,
            "end_to_end": summary,
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "known_defects": [r["report"]["defect_probe"] for r in runs],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "traced_seed": seeds[0],
            "per_layer": report["per_layer"],
            "failed_frac": [r["report"]["end_to_end"]["failed_frac"] for r in runs],
            "wrong_frac": [r["report"]["end_to_end"]["wrong_frac"] for r in runs],
            "op_tail_percentile": [r["report"]["end_to_end"]["op_tail_percentile"] for r in runs],
            "traced_end_to_end": report["end_to_end"],
            "environment": report["environment"],
        }
        path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
