#!/usr/bin/env python3
"""Dump the conditioned-entropy landscape and its stationary directions.

Reads a state file (same JSON format as the CLI) or samples a random state,
then writes a theta,phi,entropy,residual grid to stdout or a file and prints
the refined stationary points.  Useful for plotting the optimization surface.
"""

import argparse
import math
import sys

import numpy as np

from qdiscord import ValidationError, random_state, stationary_scan, triple_from_matrix
from qdiscord.cli import load_state
from qdiscord.measurement import conditional_entropy_batch
from qdiscord.optimize import _check_resolution, _grid, stationary_residual_batch


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("state", nargs="?", help="JSON state file; omit for a random state")
    parser.add_argument("--seed", type=int, default=0, help="seed for the random state")
    parser.add_argument("--step-deg", type=float, default=2.0, help="grid step in degrees, 0.5 to 22.5")
    parser.add_argument("--out", default="-", help="landscape CSV destination ('-' = stdout)")
    args = parser.parse_args()
    try:  # checked before _grid, whose size grows as 1/step^2
        step = _check_resolution(math.radians(args.step_deg))
    except ValidationError as exc:
        parser.error(f"--step-deg: {exc}")

    if args.state:
        rho = load_state(args.state)
    else:
        rho = random_state(rng=np.random.default_rng(args.seed))
    t = triple_from_matrix(rho)

    grid = _grid(step)  # row i, column j: theta = i * step, phi = j * step
    dirs = grid.reshape(-1, 3)
    values = conditional_entropy_batch(t, dirs)
    residuals = stationary_residual_batch(t, dirs)

    out = sys.stdout if args.out == "-" else open(args.out, "w")
    try:
        out.write("theta,phi,entropy,residual\n")
        for (i, j), v, r in zip(np.ndindex(grid.shape[:2]), values, residuals):
            out.write(f"{i * step:.9g},{j * step:.9g},{v:.9g},{'' if not np.isfinite(r) else format(r, '.9g')}\n")
    finally:
        if out is not sys.stdout:
            out.close()

    print("stationary directions (sorted by entropy):", file=sys.stderr)
    for point in stationary_scan(t):
        d = point.direction
        print(f"  theta={d.theta:.6f} phi={d.phi:.6f} "
              f"entropy={point.value:.9f} residual={point.residual:.2e}", file=sys.stderr)


if __name__ == "__main__":
    main()
