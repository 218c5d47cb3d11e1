#!/usr/bin/env python3
"""The gwone benchmark: one workload, repeated in fresh interpreters for --seconds.

    python3 perfbench/run.py --workload cy-comb --seed 1 --seconds 30 --trace 0

Each repetition is a new ``python3 -I perfbench/worker.py`` process, so every
repetition pays interpreter start, ``import gwone`` and cold ``lru_cache``s,
as every ``gw`` invocation does.  Repetitions run one at a time (closed loop,
one client).  The seed only draws the job order of each repetition.

--trace 0 reports the end-to-end metrics as medians over repetitions.
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Same names as workloads.WORKLOADS; this process never imports gwone.
WORKLOADS = ("cy-comb", "fano-sweep", "bundle-relative")
MIN_REPS = 3
# Times are scaled to a host on which one round of worker.calibrate() takes
# this long (an idle core of the 2-core machine the benchmark was defined on).
REFERENCE_ROUND_S = 0.0125
# Start no repetition that could end after this many seconds of the run.
DEADLINE_S = 165.0

LAYER_UNITS = {
    "calabi_yau.comb_terms": "count",
    "calabi_yau.solve_s": "s",
    "calabi_yau.correlator_s": "s",
    "mirror.comb_s": "s",
    "mirror.verify_s": "s",
    "rings.mul_calls": "count",
    "rings.init_calls": "count",
    "rings.add_calls": "count",
    "rings.inverse_calls": "count",
    "rings.mul_self_s": "s",
    "rings.zero_mul_frac": "ratio",
    "laurent.mul_calls": "count",
    "laurent.mul_self_s": "s",
    "laurent.inverse_calls": "count",
    "laurent.inverse_s": "s",
    "series.mul_calls": "count",
    "series.exp_calls": "count",
    "series.self_s": "s",
    "correlators.phi_misses": "count",
    "correlators.phi_hit_ratio": "ratio",
    "correlators.phi_s": "s",
    "relative.euler_s": "s",
    "relative.phi_s": "s",
    "relative.series_builds": "count",
    "relative.series_s": "s",
    "cli.serialize_s": "s",
    "output.max_bits": "bits",
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def normalise(rep: dict) -> None:
    """Scale the repetition's times to the reference host speed.

    A job is scaled by the mean of the calibration rounds just before and
    just after it; set-up by the first rounds, the gate by the last.
    """
    cal = rep["cal"]
    starts = [t for t, _ in cal]

    def scale(t0: float, t1: float) -> float:
        before = bisect.bisect_right(starts, t0) - 1
        after = bisect.bisect_left(starts, t1)
        return REFERENCE_ROUND_S / ((cal[before][1] + cal[after][1]) / 2)

    rep["job_ms"] = [(t1 - t0) * 1e3 * scale(t0, t1) for t0, t1 in rep["job_times"]]
    rep["raw_wall_s"] = sum(t1 - t0 for t0, t1 in rep["job_times"]) + rep["gate_s"]
    rep["wall_s"] = sum(rep["job_ms"]) / 1e3 + rep["gate_s"] * scale(cal[-2][0], cal[-1][0])
    rep["setup_s"] = rep["raw_setup_s"] * scale(cal[0][0], cal[1][0])
    rep_scale = rep["wall_s"] / rep["raw_wall_s"]
    for name, value in rep.get("layers", {}).items():
        if LAYER_UNITS[name] == "s":
            rep["layers"][name] = value * rep_scale


def run_rep(workload: str, order_seed: str, trace_out: Path | None, timeout: float) -> dict:
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--workload", workload, "--order-seed", order_seed]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    spawned = clock()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    rep = json.loads(proc.stdout.splitlines()[-1])
    rep["raw_setup_s"] = rep["ready"] - spawned
    normalise(rep)
    return rep


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gwone" / "__init__.py").is_file():
        print(f"error: no gwone sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    trace_out = ROOT / ".bench_trace" / f"{args.workload}.spans"
    plain: list[dict] = []
    traced: list[dict] = []
    started = clock()
    longest = 0.0
    while True:
        elapsed = clock() - started
        enough = len(plain) >= MIN_REPS and (not args.trace or len(traced) >= MIN_REPS)
        if (enough and elapsed >= args.seconds) or elapsed + 1.5 * longest > DEADLINE_S:
            break
        tracing = bool(args.trace) and len(traced) < len(plain)
        rep_started = clock()
        try:
            rep = run_rep(
                args.workload,
                f"{args.seed}:{len(plain) + len(traced)}",
                trace_out if tracing else None,
                DEADLINE_S + 10 - elapsed,
            )
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        longest = max(longest, clock() - rep_started)
        (traced if tracing else plain).append(rep)
        print(
            f"rep {len(plain) + len(traced):2d} {'traced' if tracing else 'plain '} "
            f"setup {rep['setup_s']:.4f} s (raw {rep['raw_setup_s']:.4f})  "
            f"wall {rep['wall_s']:.4f} s (raw {rep['raw_wall_s']:.4f})  "
            f"failed {len(rep['failures'])}/{rep['jobs']}"
        )
        for job_id, reason in rep["failures"].items():
            print(f"  FAILED {job_id}: {reason}")

    if not plain or (args.trace and not traced):
        print(f"error: no repetition fits in {DEADLINE_S} s", file=sys.stderr)
        return 1
    reps = plain + traced
    attempted = sum(r["jobs"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    problems = []
    if len({r["phi_misses"] for r in reps}) > 1:
        problems.append("phi cache misses differ between repetitions: a cache was not cold")

    if args.trace:
        metrics = {}
        for name, unit in LAYER_UNITS.items():
            values = [r["layers"][name] for r in traced]
            if unit != "s" and len(set(values)) > 1:
                problems.append(f"{name} differs between traced repetitions: {values}")
            value = statistics.median(values) if unit == "s" else values[0]
            metrics[name] = {"value": value, "unit": unit}
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        overhead = statistics.median(r["wall_s"] for r in traced) / untraced_wall - 1
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        print(f"spans per traced repetition: {traced[-1]['spans']}, last written to {trace_out}")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in plain), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "job_p50_ms": {"value": statistics.median(percentile(r["job_ms"], 50) for r in plain), "unit": "ms"},
            "job_p95_ms": {"value": statistics.median(percentile(r["job_ms"], 95) for r in plain), "unit": "ms"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }
        print(
            f"job percentiles: over the {plain[0]['jobs']} jobs of each repetition, "
            f"median of {len(plain)} repetitions"
        )

    print(f"output digest {reps[0]['digest']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
