"""One repetition of a workload in a fresh interpreter, started by run.py.

Prints one JSON line: when set-up ended (CLOCK_MONOTONIC, comparable with
the parent's clock), the calibration rounds, each job's start and end, the
gate's time and failures, peak RSS and, when traced, the per-layer metrics.
All times are raw; run.py normalises them.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gwone.correlators as corr  # noqa: E402
import gwone.relative as rel  # noqa: E402

import workloads  # noqa: E402

CACHED = {
    "correlators.phi": corr.phi,
    "correlators.pn_one_point": corr.pn_one_point,
    "relative.relative_ring": rel.relative_ring,
    "relative.relative_euler": rel.relative_euler,
    "relative.relative_phi": rel.relative_phi,
}
SERIALISERS = {"cli.laurent_to_json", "cli.coh_to_json"}
CAL_EVERY_S = 0.1


def calibrate() -> tuple[float, float]:
    """(start, seconds) of one round of a fixed Fraction/dict kernel that does not touch gwone.

    The host's speed drifts by up to 2x within seconds to minutes.  Rounds
    run before, between (after a job, once CAL_EVERY_S has passed since the
    last round) and after the jobs, in this process, sample the speed each
    job ran at.
    """
    start = time.perf_counter()
    acc: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 2000):
        key = (i % 7, i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
    return start, time.perf_counter() - start


def max_bits(outputs: dict[str, str]) -> int:
    """Largest bit length of any integer in the outputs (numerators, denominators)."""
    return max(
        (abs(int(tok)).bit_length() for text in outputs.values() for tok in re.findall(r"-?\d+", text)),
        default=0,
    )


def layer_metrics(tracer, phi_info) -> dict[str, float]:
    s = tracer.summary()

    def count(label):
        return s[label]["count"]

    def total(label):
        return s[label]["total_s"]

    def self_s(label):
        return s[label]["self_s"]

    lookups = phi_info.hits + phi_info.misses
    return {
        "calabi_yau.comb_terms": count(workloads.COMB_SPAN),
        "calabi_yau.solve_s": total("calabi_yau.solve_lambda"),
        "calabi_yau.correlator_s": total("calabi_yau.cy_correlator"),
        "mirror.comb_s": total("mirror.mirror_comb_correlator"),
        "mirror.verify_s": total("mirror.verify_mirror_identity"),
        "rings.mul_calls": count("rings.CohClass.__mul__"),
        "rings.init_calls": count("rings.CohClass.__init__"),
        "rings.add_calls": count("rings.CohClass.__add__"),
        "rings.inverse_calls": count("rings.CohClass.inverse"),
        "rings.mul_self_s": self_s("rings.CohClass.__mul__"),
        "rings.zero_mul_frac": tracer.zero_ring_products / tracer.ring_products if tracer.ring_products else 0.0,
        "laurent.mul_calls": count("laurent.LaurentPoly.__mul__"),
        "laurent.mul_self_s": self_s("laurent.LaurentPoly.__mul__"),
        "laurent.inverse_calls": count("laurent.LaurentPoly.inverse"),
        "laurent.inverse_s": total("laurent.LaurentPoly.inverse"),
        "series.mul_calls": count(workloads.QSERIES_MUL_SPAN),
        "series.exp_calls": count("series.QSeries.exp"),
        "series.self_s": sum(v["self_s"] for k, v in s.items() if k.startswith("series.")),
        "correlators.phi_misses": phi_info.misses,
        "correlators.phi_hit_ratio": phi_info.hits / lookups if lookups else 0.0,
        "correlators.phi_s": total("correlators.phi"),
        "relative.euler_s": total("relative.relative_euler"),
        "relative.phi_s": total("relative.relative_phi"),
        "relative.series_builds": count(workloads.SERIES_BUILD_SPAN),
        "relative.series_s": total(workloads.SERIES_BUILD_SPAN),
        "cli.serialize_s": tracer.outer_seconds(SERIALISERS),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--order-seed", required=True)
    parser.add_argument("--trace-out", type=Path, help="trace this repetition and write its spans here")
    args = parser.parse_args()

    expected = json.loads((HERE / "expected.json").read_text())[args.workload]
    jobs = workloads.build(args.workload, args.order_seed)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)

    tracer = None
    if args.trace_out is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    warm = [name for name, fn in CACHED.items() if fn.cache_info().currsize]
    if warm:
        raise RuntimeError(f"caches not cold at start: {warm}")
    cal = [calibrate() for _ in range(2)]

    outputs: dict[str, str] = {}
    failures: dict[str, str] = {}
    job_times: list[tuple[float, float]] = []
    span_ranges = {}
    clock = time.perf_counter
    for job in jobs:
        first_span = tracer.span_count if tracer is not None else 0
        start = clock()
        try:
            outputs[job.id] = workloads.canonical(job.run())
        except Exception:
            failures[job.id] = "raised:\n" + traceback.format_exc()
        end = clock()
        job_times.append((start, end))
        if tracer is not None:
            span_ranges[job.id] = (first_span, tracer.span_count)
        last_start, last_s = cal[-1]
        if end - (last_start + last_s) >= CAL_EVERY_S:
            cal.append(calibrate())
    gate_start = clock()
    for job in jobs:
        if job.id in failures:
            continue
        text = outputs[job.id]
        if workloads.digest(text) != expected["jobs"].get(job.id):
            failures[job.id] = "output digest differs from the pinned digest"
        elif job.pin is not None and (msg := job.pin(json.loads(text))):
            failures[job.id] = msg
    gate_s = clock() - gate_start
    cal += [calibrate() for _ in range(2)]

    result = {
        "ready": ready,
        "cal": cal,
        "job_times": job_times,
        "gate_s": gate_s,
        "jobs": len(jobs),
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "phi_misses": CACHED["correlators.phi"].cache_info().misses,
        "digest": workloads.output_digest(outputs),
    }
    if tracer is not None:
        for job in jobs:
            got = tracer.counts(*span_ranges[job.id])
            for label, want in job.spans.items():
                if got.get(label) != want and job.id not in failures:
                    failures[job.id] = f"traced {got.get(label)} {label} spans, expected {want}"
        result["layers"] = layer_metrics(tracer, CACHED["correlators.phi"].cache_info())
        result["layers"]["output.max_bits"] = max_bits(outputs)
        result["spans"] = tracer.span_count
        tracer.write(args.trace_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
