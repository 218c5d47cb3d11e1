#!/usr/bin/env python3
"""Solve the lambda recursion for Calabi-Yau threefolds in P^n and print
the mirror-map coefficients, re-verifying the series identity exactly.
Exits 1 when the identity fails."""

import argparse
import sys

from gwone.correlators import classify
from gwone.mirror import verify_mirror_identity


MODELS = {
    "quintic": (4, (5,)),
    "3,3": (5, (3, 3)),
    "2,4": (5, (2, 4)),
    "2,2,3": (6, (2, 2, 3)),
    "2,2,2,2": (7, (2, 2, 2, 2)),
}


def natural(text: str) -> int:
    """An argparse ``type``: an integer >= 0, so a negative degree exits 2."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=natural, default=3)
    parser.add_argument("--model", choices=sorted(MODELS), default="quintic")
    args = parser.parse_args()

    n, degrees = MODELS[args.model]
    model = classify(n, degrees)
    report = verify_mirror_identity(model, args.max_d)

    print(f"model: {model}")
    for e in range(1, args.max_d + 1):
        lam = report.lambdas[e]
        print(
            f"e = {e}:  lambda = {lam}   "
            f"a_e = {report.mirror.a[e]}   b_e = {report.mirror.b[e]}"
        )
    verdict = "holds" if report.holds else f"FAILS at q^{report.first_failing_degree}"
    print(f"mirror identity to q^{args.max_d}: {verdict}")
    return 0 if report.holds else 1


if __name__ == "__main__":
    sys.exit(main())
