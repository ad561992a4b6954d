#!/usr/bin/env python3
"""Regenerate the three amplification curves as CSV files.

Every grid cell costs a few semidefinite solves, one per target orbit
(a cell at success floor 1 makes none: it is read off the exact
success-1 face, which a critical-curve cell also checks first), all at
the commands' default solver tolerance.  The grids are 9 epsilons from
0.05 to 0.45, and 11 success floors from 0.9 to 1 for figure1; the
three runs take a few seconds.
"""

import argparse
import pathlib
import sys
import time

from randamp.cli import main as cli


def run(argv: list[str]) -> None:
    print(f"$ randamp {' '.join(argv)}")
    t0 = time.perf_counter()
    code = cli(argv)
    print(f"  -> exit {code} in {time.perf_counter() - t0:.1f}s")
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="out", help="directory for the CSV files")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    eps_grid = "0.05:0.45:9"
    run(["figure1", "--grid", eps_grid, "--ps", "0.9:1.0:11", "--out", str(outdir / "figure1.csv")])
    run(["figure2", "--grid", eps_grid, "--out", str(outdir / "figure2.csv")])
    run(["figure3", "--grid", eps_grid, "--delta", "0.99", "--x", "0", "--out", str(outdir / "figure3.csv")])
    print(f"curves written to {outdir}/")


if __name__ == "__main__":
    main()
