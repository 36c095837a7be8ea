#!/usr/bin/env python3
"""Print every available ln F_n route side by side over an (n, lambda) grid.

The max-dev column is the largest pairwise deviation among the exact routes
(closed form, quadrature, contour); the asymptotic column shows the Gaussian
saddle estimate converging as n grows.  A route that refuses at a point
leaves its cell blank and is named on stderr.
"""

import argparse
import sys

from hslaplace import Method, cross_check

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", default="1,2,3,4,8,20", help="comma-separated dimensions")
    parser.add_argument("--lambda", dest="lams", default="0.3,1,3")
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--samples", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    print(f"{'n':>4} {'lambda':>8} " + " ".join(f"{m.value:>16}" for m in Method) + f" {'max-dev':>10}")
    for n in (int(v) for v in args.n.split(",")):
        for lam in (float(v) for v in args.lams.split(",")):
            results, refusals, max_dev = cross_check(n, lam, args.tol, args.samples, args.seed)
            for method, message in refusals.items():
                print(f"refused ({method.value}): {message}", file=sys.stderr)
            line = f"{n:>4} {lam:>8.3g} "
            line += " ".join(
                f"{results[m].value.ln_value:>16.9f}" if m in results else " " * 16
                for m in Method
            )
            print(line + f" {max_dev:>10.2e}")
