#!/usr/bin/env python3
"""Print the quintic pipeline table: n_d, m_d, N_d and the lambda forms.

Each degree sums 2^d combs, at most two ring products each, so the running
time still roughly doubles per degree.
"""

import argparse
import time

from gwone.calabi_yau import quintic_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=6)
    args = parser.parse_args()

    start = time.perf_counter()
    report = quintic_report(args.max_d)
    elapsed = time.perf_counter() - start

    for row in report.rows:
        print(f"d = {row.degree}")
        print(f"  n_d      = {row.n_d}")
        print(f"  m_d      = {row.m_d}")
        print(f"  N_d      = {report.immersed_counts[row.degree]}")
        print(f"  lambda_d = {row.lam}")
        assert row.n_d / row.degree == -row.m_d / 2
    print(f"\ncomputed in {elapsed:.3f}s; n_d/d = -m_d/2 holds for all degrees")


if __name__ == "__main__":
    main()
