#!/usr/bin/env python3
"""Loop integrals of 1/z around the origin in randomly oriented planes.

For a circle of radius rho traversed n times in the plane spanned by 1 and a
unit imaginary M, the integral of z^-1 dz is 2*pi*n*M — independent of rho
and of the ambient level.  This script measures that across levels 2..4 and
prints the worst deviation per (level, n, rho) cell, plus the quadrature
refinement depth: log2 of the certified midpoint layout's knots over 64.
"""

import argparse
import math

import numpy as np

from cdfun import Path, line_integral, parse, random_unit_imaginary, zero


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--planes", type=int, default=8)
    args = ap.parse_args()

    print(f"{'level':>5} {'turns':>5} {'rho':>5} {'worst err':>12} {'refinements':>12}")
    for r in (2, 3, 4):
        rng = np.random.default_rng([args.seed, r])
        f = parse("z^-1", r)
        origin = zero(r)
        directions = [random_unit_imaginary(r, rng) for _ in range(args.planes)]
        for turns in (1, 2, 3):
            for rho in (0.5, 2.0):
                worst = 0.0
                depth = 0
                for m in directions:
                    res = line_integral(f, Path.circle(origin, rho, m, turns))
                    want = m * (2.0 * math.pi * turns)
                    worst = max(worst, (res.value - want).norm())
                    depth = max(depth, res.refinements)
                print(f"{r:>5} {turns:>5} {rho:>5.1f} {worst:>12.2e} {depth:>12}")


if __name__ == "__main__":
    main()
