"""Benchmark of the opgf command-line tool.

    python3 bench/run.py --workload {sweep,domain,catalog,all} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from the `src/` directory next to
this one.  The benchmark calls the CLI entry point `opgf.cli.main` in this one
process, on a batch of commands that `workloads.py` generates from the seed,
and checks each command's output with `oracles.py`.  The batch holds as many
commands as the seed commit runs in about S seconds on the baseline machine,
so a run attempts the same commands, and the same ones fail, for a given seed
and S, however fast the host runs.

Times are reported at reference speed.  A shared host's speed drifts by
+-15% over minutes, and every opgf command's time drifts with it.  So the run
times a fixed reference job about once a second, between commands, and
multiplies every wall time by REFERENCE_JOB_S over the median job time of the
run.  The raw wall times and the host speed are printed as well.

--trace 0 prints the end-to-end metrics: set-up time (a fresh interpreter
importing `opgf.cli`, median of 5), operations per second, the median and
tail latency of one operation, the share of operations that did not fail,
peak resident memory and the certification margin.

--trace 1 runs a smaller batch twice, untraced and then under the layer
tracer of `tracer.py`, and prints per-layer metrics over the traced batch,
the tracing overhead (traced minus untraced median latency) and writes every
span to `bench/_out/`.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""
from __future__ import annotations

import os

# Measure a single-threaded process: pin BLAS/OpenMP pools before numpy loads.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "OPGF_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import io
import itertools
import json
import math
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import oracles
import workloads
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

SETUP_REPEATS = 5
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import opgf.cli"
# Commands per second of each workload on the seed commit, at the slow end
# of the baseline machine.  A run's batch is round(seconds * rate) commands,
# and at least MIN_OPS.
REFERENCE_RATE = {"sweep": 0.66, "domain": 33.0, "catalog": 85.0}
MIN_OPS = 3
# A --trace 1 run times this share of the batch once untraced and once traced.
TRACE_SHARE = 0.4
TAIL_BEYOND = 10

# Median time of the reference job on the baseline machine, and how much
# command time passes between two timings of the job.
REFERENCE_JOB_S = 0.036
JOB_EVERY_S = 1.0
_JOB_MATRIX = None

_NUMBER = re.compile(r"[-+]?\d+(\.\d+)?(e[-+]?\d+)?j?")

OUT_FILE = {"sweep": "report.json", "verify": "report.json",
            "classify": "classify.json", "quadrature": "rule.csv"}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class OpResult:
    ms: float
    failure: Optional[str]
    margin: Optional[float]
    bytes_out: int


def import_cli():
    """Import opgf.cli from this checkout's sources, never an installed copy."""
    package = SRC / "opgf"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no opgf sources at {package}")
    sys.path.insert(0, str(SRC))
    import opgf.cli

    if Path(opgf.cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported {opgf.cli.__file__}, not the checkout's sources")
    return opgf.cli


def reference_job(speed: list[float]) -> None:
    """Append to `speed` the time of a fixed job that does not touch opgf: a
    float loop, dict updates and symmetric eigenproblems, the kinds of work
    opgf's commands do."""
    global _JOB_MATRIX
    import numpy as np

    if _JOB_MATRIX is None:
        m = np.random.default_rng(0).standard_normal((160, 160))
        _JOB_MATRIX = m + m.T
    start = time.perf_counter()
    x, table = 0.0, {}
    for k in range(1, 200_000):
        x = (x * 0.5 + 1.0 / k) * 0.999
    for k in range(70_000):
        table[k % 997] = table.get(k % 997, 0) + k
    for _ in range(4):
        np.linalg.eigvalsh(_JOB_MATRIX)
    speed.append(time.perf_counter() - start)


def measure_setup(speed: list[float]) -> float:
    """Median wall time of a fresh interpreter importing opgf.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        reference_job(speed)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_op(cli, op: workloads.Op, out_dir: Path, oracle: oracles.Oracle) -> OpResult:
    out = out_dir / OUT_FILE[op.kind]
    if out.exists():
        out.unlink()
    captured = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = cli.main([*op.argv, "--out", str(out)])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:
        error = f"exception {type(exc).__name__}: {exc}"
    ms = 1000.0 * (time.perf_counter() - start)
    if error is not None:
        return OpResult(ms, error, None, 0)
    if rc not in (0, 1):
        lines = captured.getvalue().strip().splitlines()
        return OpResult(ms, f"exit {rc}: {lines[-1] if lines else ''}", None, 0)
    if not out.exists():
        return OpResult(ms, f"oracle: exit {rc} but no output written", None, 0)
    raw = out.read_bytes()
    reason, margin = oracle.check(op, rc, raw)
    return OpResult(ms, None if reason is None else f"oracle: {reason}", margin, len(raw))


def batch(workload: str, seed: int, seconds: float) -> list[workloads.Op]:
    """The first commands of the seed's stream, as many as the seed commit
    runs in about `seconds` on the baseline machine."""
    size = max(MIN_OPS, round(seconds * REFERENCE_RATE[workload]))
    return list(itertools.islice(workloads.stream(workload, seed), size))


def run_batch(cli, ops: list[workloads.Op], out_dir: Path, oracle: oracles.Oracle,
              speed: list[float], tracer: Optional[Tracer] = None) -> list[OpResult]:
    """Run every command once, timing the reference job before the first and
    after each JOB_EVERY_S of command time."""
    results = []
    busy = JOB_EVERY_S
    for op in ops:
        if busy >= JOB_EVERY_S:
            reference_job(speed)
            busy = 0.0
        if tracer is not None:
            tracer.mark_op()
        results.append(run_op(cli, op, out_dir, oracle))
        busy += results[-1].ms / 1000.0
    reference_job(speed)
    return results


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; the minimum when there are too few samples."""
    ordered = sorted(values)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(results: list[OpResult], setup_s: float,
               speed: list[float]) -> tuple[dict, list[str]]:
    """Metrics at reference speed, from the raw set-up time and latencies."""
    scale = REFERENCE_JOB_S / statistics.median(speed)
    raw = [r.ms for r in results]
    latencies = [ms * scale for ms in raw]
    failed = sum(r.failure is not None for r in results)
    margins = [r.margin for r in results if r.margin is not None]
    if not margins:
        raise BenchError("no operation produced a checked output")
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": metric(setup_s * scale, "s"),
        "ops_per_s": metric(len(results) / (sum(latencies) / 1000.0), "1/s"),
        "op_ms_p50": metric(statistics.median(latencies), "ms"),
        "op_ms_tail": metric(tail_ms, "ms"),
        "ok_share": metric(1.0 - failed / len(results), "share"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "margin_dec": metric(statistics.median(margins), "dec"),
    }
    notes = [
        f"op_ms_tail is p{tail_pct:.1f} of {len(latencies)} operations",
        f"fail_share = {failed / len(results):.6g} ({failed} of {len(results)})",
        f"setup_s is the median of {SETUP_REPEATS} fresh interpreters",
        f"host speed {scale:.4f} x reference: reference job median "
        f"{1000.0 * statistics.median(speed):.4f} ms over {len(speed)} timings, "
        f"range {1000.0 * min(speed):.4f} to {1000.0 * max(speed):.4f} ms",
        f"raw wall times: setup_s {setup_s:.6g} s, op_ms_p50 "
        f"{statistics.median(raw):.6g} ms, op_ms_tail {tail(raw)[0]:.6g} ms, "
        f"ops_per_s {len(raw) / (sum(raw) / 1000.0):.6g} 1/s",
        f"margin_dec: median over operations of the worst check, worst operation "
        f"{min(margins):.4f}",
    ]
    return metrics, notes


def per_layer(untraced: list[OpResult], traced: list[OpResult],
              tracer: Tracer) -> tuple[dict, list[str]]:
    counts = tracer.summarize()
    counts["cli.bytes_out"] = sum(r.bytes_out for r in traced)
    untraced_p50 = statistics.median(r.ms for r in untraced)
    traced_p50 = statistics.median(r.ms for r in traced)
    counts["trace.op_ms_p50"] = traced_p50
    counts["trace.overhead_ms"] = traced_p50 - untraced_p50
    metrics = {}
    for name, value in counts.items():
        if "_ms" in name:
            unit = "ms"
        elif name == "cli.bytes_out":
            unit = "B"
        elif name == "genfun.degrees_per_series_value":
            unit = "deg/value"
        else:
            unit = "count"
        metrics[name] = metric(value, unit)
    notes = [
        f"per-layer metrics cover the {len(traced)} traced operations",
        f"trace overhead over the same {len(traced)} operations untraced and "
        f"traced: untraced p50 {untraced_p50:.4f} ms, traced p50 {traced_p50:.4f} ms",
    ]
    notes += [f"absent: {name}" for name in tracer.absent]
    return metrics, notes


def run_workload(cli, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = OUT / f"{workload}-{seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    oracle = oracles.Oracle()
    speed: list[float] = []
    try:
        for op in workloads.warmup_ops():
            run_op(cli, op, out_dir, oracles.Oracle())
        if not trace:
            setup_s = measure_setup(speed)
            results = run_batch(cli, batch(workload, seed, seconds), out_dir, oracle,
                                speed)
            metrics, notes = end_to_end(results, setup_s, speed)
        else:
            ops = batch(workload, seed, TRACE_SHARE * seconds)
            untraced = run_batch(cli, ops, out_dir, oracle, speed)
            tracer = Tracer()
            with tracer:
                traced = run_batch(cli, ops, out_dir, oracle, speed, tracer)
            metrics, notes = per_layer(untraced, traced, tracer)
            spans = OUT / f"trace-{workload}.npz"
            tracer.write(spans)
            notes.append(f"spans written to {spans.relative_to(ROOT)}")
            results = untraced + traced
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failures = [r.failure for r in results if r.failure is not None]
    wrong = [f for f in failures if f.startswith("oracle:")]
    print(f"workload {workload}: seed {seed}, {seconds:g} s, trace {int(trace)}")
    print(f"  {len(results)} operations, {len(failures)} failed, "
          f"oracle {'FAILED' if wrong else 'passed'}")
    kinds = collections.Counter(_NUMBER.sub("#", f)[:160] for f in failures)
    for reason, n in kinds.most_common():
        print(f"  failures: {n} x {reason}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for note in notes:
        print(f"  note: {note}")
    return {"correct": not wrong, "attempted": len(results),
            "failed": len(failures), "metrics": metrics}


def environment(cli) -> str:
    import numpy
    import scipy

    sha = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        sha = ref
    return (f"opgf {cli.__version__} at {sha[:12]}; python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}; "
            f"nproc {os.cpu_count()}; BLAS threads 1")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        cli = import_cli()
        print(environment(cli))
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        runs = {name: run_workload(cli, name, args.seed, args.seconds, bool(args.trace))
                for name in names}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(runs) == 1:
        result = next(iter(runs.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in runs.values()),
            "attempted": sum(r["attempted"] for r in runs.values()),
            "failed": sum(r["failed"] for r in runs.values()),
            "metrics": {f"{name}.{key}": m for name, r in runs.items()
                        for key, m in r["metrics"].items()},
        }
    for m in result["metrics"].values():
        if not math.isfinite(m["value"]):
            print(f"bench: non-finite metric in {result['metrics']}", file=sys.stderr)
            return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
