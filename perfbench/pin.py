#!/usr/bin/env python3
"""Write expected.json: the sha256 of every job's canonical JSON output.

Run from the repository root with ``python3 perfbench/pin.py`` only when a
workload's job list changes.  Every job must first pass its literature or
closed-form pin, so a digest is never recorded for a wrong output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main() -> int:
    pinned = {}
    for name in workloads.WORKLOADS:
        outputs = {}
        for job in workloads.build(name, "pin"):
            text = workloads.canonical(job.run())
            if job.pin is not None and (msg := job.pin(json.loads(text))):
                print(f"{name}: {job.id}: {msg}", file=sys.stderr)
                return 1
            outputs[job.id] = text
        pinned[name] = {
            "digest": workloads.output_digest(outputs),
            "jobs": {job_id: workloads.digest(text) for job_id, text in sorted(outputs.items())},
        }
        print(f"{name}: {len(outputs)} jobs, digest {pinned[name]['digest']}")
    (HERE / "expected.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
