#!/usr/bin/env python3
"""Scan coplanar analyzer angles for the largest CHSH value.

Sweeps a, a', b, b' over a grid in the x-z plane, prints the best settings
found, and compares against the deterministic local bound (2, by exhaustive
enumeration) and the quantum ceiling 2*sqrt(2). Of the settings whose |S| is
within EPS_BELL of the largest, the first in grid order is printed, so
rounding noise in S does not choose among equal optima.
"""

import argparse
import math
from itertools import product

from qhist.bell import EPS_BELL, chsh, lhv_classical_bound
from qhist.spin import Direction


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=24,
                        help="grid points per angle over [0, 360) (default 24)")
    args = parser.parse_args()

    step = 360.0 / args.steps
    angles = [k * step for k in range(args.steps)]
    direction = {x: Direction(math.radians(x), 0.0) for x in angles}
    grid = list(product(angles, repeat=4))
    values = [abs(chsh(*map(direction.get, s))) for s in grid]
    best = max(values)
    a, ap, b, bp = next(s for s, v in zip(grid, values) if v >= best - EPS_BELL)
    print(f"grid: {args.steps} points per angle ({step:g} degree steps)")
    print(f"best |S| = {best:.12g} at a={a:g} a'={ap:g} b={b:g} b'={bp:g} (degrees)")
    print(f"deterministic local bound = {lhv_classical_bound():g}")
    print(f"quantum ceiling            = {2 * math.sqrt(2):.12g}")


if __name__ == "__main__":
    main()
