"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 bench/spread.py --workloads sweep domain catalog --seeds 1-10 \
        --seconds 25 --trace 0 [--json bench/_out/spread.json]

For every workload and metric it prints the median of the runs and the
spread: the distance between the first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of the median.  The
benchmark's bounds in BENCHMARK.json hold when every spread except that of
setup_s stays well below its metric's bound.  Runs are sequential; each one
is a separate `run.py` process.
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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else float("inf"),
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=["sweep", "domain", "catalog"])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        metrics = {}
        for name in runs[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["metrics"][name]["unit"]
        summary[workload] = {
            "seeds": args.seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "metrics": metrics,
        }
        print(f"{workload}: correct={summary[workload]['correct']} "
              f"failed/attempted={sum(r['failed'] for r in runs)}/"
              f"{sum(r['attempted'] for r in runs)}")
        for name, s in metrics.items():
            print(f"  {name:40s} median {s['median']:.6g} {s['unit']:10s} "
                  f"spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
