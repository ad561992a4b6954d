#!/usr/bin/env python3
"""Regenerate the three amplification curves as CSV files.

Every grid cell costs a few semidefinite solves, one per target orbit
(a cell at success floor 1 makes none: it is read off the exact
success-1 face, which a critical-curve cell also checks first), so the
full grids take a few minutes.  --fast coarsens the grids for a
quick smoke run; the CSV schemas are identical either way.
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
    parser.add_argument("--fast", action="store_true", help="coarse grids")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    bias_tol = "1e-6"
    curve_tol = "1e-4"
    if args.fast:
        eps_grid = "0.1:0.45:3"
        ps_grid = "0.92:1.0:3"
    else:
        eps_grid = "0.05:0.45:9"
        ps_grid = "0.9:1.0:11"

    run([
        "figure1", "--grid", eps_grid, "--ps", ps_grid,
        "--tolerance", bias_tol, "--out", str(outdir / "figure1.csv"),
    ])
    run([
        "figure2", "--grid", eps_grid,
        "--tolerance", curve_tol, "--out", str(outdir / "figure2.csv"),
    ])
    run([
        "figure3", "--grid", eps_grid, "--delta", "0.99", "--x", "0",
        "--tolerance", curve_tol, "--out", str(outdir / "figure3.csv"),
    ])
    print(f"curves written to {outdir}/")


if __name__ == "__main__":
    main()
