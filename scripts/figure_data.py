#!/usr/bin/env python3
"""Regenerate the benchmark-family panel datasets (discord vs. bounds).

Writes one CSV per panel: fig1_b*.csv sweep a at fixed b, fig2_a*.csv sweep
b at fixed a.  Columns: param1,param2,discord,discord_ub,xi_bound,saturated.
"""

import argparse
import pathlib

import numpy as np

from qdiscord import ab_state, bound_comparison_scan, rows_to_csv

FIG1_B = (0.1, 0.3, 0.5, 0.9)
FIG2_A = (0.1, 0.3, 0.5, 0.9)
#: slack that keeps the region's edge in a sweep despite rounding in the steps;
#: a step that does not divide the range stops at the last point inside it
EDGE = 1e-9


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figure_data", help="output directory")
    parser.add_argument("--step", type=float, default=0.01, help="parameter step")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    for b in FIG1_B:
        a_values = np.arange(0.0, 1 - b + EDGE, args.step)
        rows = bound_comparison_scan((a, b, ab_state(a, b)) for a in a_values)
        path = outdir / f"fig1_b{b:.2f}.csv"
        path.write_text(rows_to_csv(rows))
        print(f"wrote {path} ({len(rows)} rows)")

    for a in FIG2_A:
        b_values = np.arange(-(1 - a), (1 - a) + EDGE, args.step)
        rows = bound_comparison_scan((a, b, ab_state(a, b)) for b in b_values)
        path = outdir / f"fig2_a{a:.2f}.csv"
        path.write_text(rows_to_csv(rows))
        print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
