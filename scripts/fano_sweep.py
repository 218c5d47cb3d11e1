#!/usr/bin/env python3
"""Sweep Fano complete intersections and tabulate degree-one line counts.

For every model with sum(l_i) <= n (n up to a bound), verifies the
structural invariants of the correlator (homogeneity, top t-power <= -2)
and prints the degree-1 invariant with one hyperplane constraint per
marked point slot, i.e. integral of psi^a e^*(h^b) against the virtual
class, at the (a, b) that makes it a finite count.
"""

import argparse

from gwone.calabi_yau import correlator
from gwone.correlators import classify, degree_vectors, one_point_invariant


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--max-d", type=int, default=3)
    args = parser.parse_args()

    checked = 0
    for n in range(1, args.max_n + 1):
        for degrees in degree_vectors(n):
            model = classify(n, degrees)
            for d in range(1, args.max_d + 1):
                corr = correlator(model, d)
                assert corr.is_homogeneous(model.correlator_weight(d))
                assert corr.is_zero() or corr.t_max() <= -2
                checked += 1
            if sum(degrees) == n:
                # degree-1 count: dim constraint puts b = n - m - 1, a = 0
                corr = correlator(model, 1)
                b = n - model.m - 1
                if b >= 0:
                    count = one_point_invariant(corr, 0, b)
                    print(f"{str(model):18s} degree-1 count with h^{b}: {count}")
    print(f"\n{checked} correlators verified (homogeneous, top t-power <= -2)")


if __name__ == "__main__":
    main()
