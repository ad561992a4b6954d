"""Command line front end.

Subcommands reproduce the amplification curves and run the planning and
simulation workflows, emitting CSV (grids, runs) or JSON
(structured plans).  Every command is deterministic given its flags and
seed; CSV output is byte-stable and starts with a versioned schema
comment line.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from typing import Callable, Optional, Sequence

import numpy as np

from . import npa, sdp
from .games import (
    chsh_game,
    input_distribution_from_source,
    magic_square_game,
    mermin_game,
    uniform_distribution,
)
from .protocol import InfeasibleSlackError, plan_protocol, threshold_gap, threshold_success
from .simulator import AdversarialDevice, HonestDevice, attack_suite, run_batch, summarize_output_bits
from .sources import ExtremalSource, canonical_mermin_source, constant_sign
from .strategies import (
    NoiseModel,
    classical_value,
    ghz_mermin_strategy,
    magic_square_quantum_strategy,
    quantum_success,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

MONOTONICITY_SLACK = 1e-5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here wants 1."""

    def error(self, message: str):
        raise UsageError(message)


def parse_grid(text: str) -> list[float]:
    """Either a single value `v` or a sweep `a:b:n` (n points, inclusive)."""
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [float(text)]
        a, b, n = parts
        a, b, n = float(a), float(b), int(n)
    except ValueError:  # a part that is not a number, or not three parts
        raise UsageError(f"grid must be 'v' or 'a:b:n', got {text!r}") from None
    if n < 1:
        raise UsageError(f"grid needs at least one point, got {n}")
    return [float(v) for v in np.linspace(a, b, n)]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _emit(rows: list[dict], schema: str, fmt: str, out, comments: Optional[list[str]] = None) -> None:
    """Rows as JSON, or as CSV whose columns are the keys of the first
    row: every row of a command has the same keys, in column order."""
    if fmt == "json":
        payload = {"schema": schema, "rows": rows}
        if comments:
            payload["notes"] = comments
        out.write(json.dumps(payload, indent=2, default=_fmt) + "\n")
        return
    out.write(f"# schema: {schema}\n")
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) for k, v in row.items()})
    for line in comments or []:
        out.write(f"# {line}\n")


def cmd_game_value(name: str, epsilon: float, tol: float) -> list[dict]:
    """Classical value by enumeration and a quantum reference value under
    the source-induced input distribution."""
    if name == "chsh":
        game = chsh_game()
        dist = (
            uniform_distribution(game)
            if epsilon == 0.0
            else input_distribution_from_source(game, ExtremalSource(epsilon, constant_sign(+1)))
        )
        c, _ = classical_value(game, dist)
        q = npa.max_success_probability(game, dist, npa.LEVEL_Q2, tol)
    elif name == "mermin":
        game = mermin_game()
        dist = input_distribution_from_source(game, canonical_mermin_source(epsilon))
        c, _ = classical_value(game, dist)
        q = quantum_success(ghz_mermin_strategy(), game, dist)
    elif name == "magic-square":
        if epsilon != 0.0:
            raise UsageError("magic-square inputs are trits; only epsilon=0 is defined")
        game = magic_square_game()
        dist = uniform_distribution(game)
        c, _ = classical_value(game, dist)
        q = quantum_success(magic_square_quantum_strategy(), game, dist)
    else:
        raise UsageError(f"unknown game {name!r} (chsh, mermin, magic-square)")
    return [{"game": name, "epsilon": epsilon, "classical": c, "quantum": q}]


def cmd_figure1(eps_grid: list[float], ps_grid: list[float], tol: float) -> tuple[list[dict], list[str]]:
    """Output-bias bound over an (epsilon, success floor) grid, one
    `eps_prime` call per cell."""
    rows = []
    for eps in eps_grid:
        for ps in ps_grid:
            row = {"epsilon": eps, "p_s": ps, "eps_prime": None, "status": "ok"}
            try:
                row["eps_prime"] = npa.eps_prime(eps, ps, tol=tol)
            except npa.InfeasibleSuccessError:
                row["status"] = "infeasible"
            except npa.SolverFailureError:
                row["status"] = "solver_failure"
            except ValueError as exc:
                row["status"] = f"failed: {exc}"
            rows.append(row)
    violations = 0
    for eps in eps_grid:
        col = [r["eps_prime"] for r in rows if r["epsilon"] == eps and r["eps_prime"] is not None]
        pss = [r["p_s"] for r in rows if r["epsilon"] == eps and r["eps_prime"] is not None]
        order = np.argsort(pss)
        seq = [col[i] for i in order]
        violations += sum(1 for u, v in zip(seq, seq[1:]) if v > u + MONOTONICITY_SLACK)
    return rows, [f"monotonicity_violations_in_p_s: {violations}"]


def cmd_figure2(eps_grid: list[float], tol: float) -> list[dict]:
    """Critical success probability for amplification at target eps'=eps."""
    rows = []
    for eps in eps_grid:
        row = {"epsilon": eps, "p_crit": None, "status": "ok"}
        try:
            row["p_crit"] = npa.critical_success(eps, eps, tol)
        except (npa.BracketingError, npa.SolverFailureError, ValueError) as exc:
            row["status"] = f"failed: {exc}"
        rows.append(row)
    return rows


def cmd_figure3(eps_grid: list[float], delta: float, x: float, tol: float) -> list[dict]:
    """Sufficient success threshold chained from the critical curve.

    threshold_margin is 1 - p_threshold computed without cancellation;
    it stays positive (the curve sits strictly below 1) even where the
    threshold itself rounds to 1 in double precision.
    """
    rows = []
    for base in cmd_figure2(eps_grid, tol):
        row = {
            "epsilon": base["epsilon"],
            "p_crit": base["p_crit"],
            "p_threshold": None,
            "threshold_margin": None,
            "status": base["status"],
        }
        if base["p_crit"] is not None:
            row["p_threshold"] = threshold_success(base["p_crit"], base["epsilon"], delta, x)
            row["threshold_margin"] = threshold_gap(base["p_crit"], base["epsilon"], delta, x)
        rows.append(row)
    return rows


def cmd_plan(epsilon: float, eps_prime: float, delta: float, x: Optional[float], tol: float) -> dict:
    params = plan_protocol(epsilon, eps_prime, delta, x, tol)
    return {**dataclasses.asdict(params), "confidence": params.delta**2}


# The ProtocolRun fields a simulate row reports, after the run index.
SIMULATE_FIELDS = ("p_est", "p_avg", "aborted", "selected_round", "output_bit",
                   "source_bits_used", "selection_draws", "aggregated")


def cmd_simulate(
    epsilon: float,
    eps_prime: float,
    delta: float,
    x: Optional[float],
    device_name: str,
    visibility: float,
    runs: int,
    seed: int,
    tol: float,
) -> tuple[list[dict], list[str]]:
    if runs < 1:
        raise UsageError(f"--runs must be at least 1, got {runs}")
    if not 0.0 <= visibility <= 1.0:
        raise UsageError(f"--visibility must lie in [0, 1], got {visibility}")
    if device_name == "honest":
        device = HonestDevice(ghz_mermin_strategy(), NoiseModel(visibility))
    else:
        suite = attack_suite()
        if device_name not in suite:
            known = ", ".join(["honest", *suite])
            raise UsageError(f"unknown device {device_name!r} (known: {known})")
        device = AdversarialDevice(suite[device_name])
    params = plan_protocol(epsilon, eps_prime, delta, x, tol)

    rows = [{"run": i, **{name: getattr(run, name) for name in SIMULATE_FIELDS}}
            for i, run in enumerate(run_batch(params, device, runs, seed))]
    est = summarize_output_bits([row["output_bit"] for row in rows])
    summary = [
        f"n_rounds: {params.n_rounds}",
        f"p_threshold: {_fmt(params.p_threshold)}",
        f"abort_rate: {_fmt(est.abort_rate)}",
        f"emitted: {est.emitted}",
        f"p_zero: {_fmt(est.p_zero)}",
        f"bias: {_fmt(est.bias)}",
        f"bias_ci: {_fmt(est.bias_interval[0]) if est.bias_interval else ''}"
        f"..{_fmt(est.bias_interval[1]) if est.bias_interval else ''}",
    ]
    return rows, summary


def _number_in(name: str, domain: str, inside: Callable[[float], bool], kind=float) -> Callable[[str], float]:
    """An argparse type: the `kind` of the text, which `inside` must accept
    (nan never is), else a usage error naming `domain`."""
    def parse(text: str) -> float:
        value = kind(text)
        if not inside(value):
            raise argparse.ArgumentTypeError(f"must lie in {domain}, got {text}")
        return value

    parse.__name__ = name
    return parse


# The types of the flags whose domain is known before any solve.
positive_finite = _number_in("positive_finite", "(0, inf)", lambda v: 0.0 < v < math.inf)
nonnegative_finite = _number_in("nonnegative_finite", "[0, inf)", lambda v: 0.0 <= v < math.inf)
source_bias = _number_in("source_bias", "[0, 1/2]", lambda v: 0.0 <= v <= 0.5)
protocol_bias = _number_in("protocol_bias", "[0, 1/2)", lambda v: 0.0 <= v < 0.5)
target_bias = _number_in("target_bias", "(0, 1/2]", lambda v: 0.0 < v <= 0.5)
confidence = _number_in("confidence", "[0, 1)", lambda v: 0.0 <= v < 1.0)
nonnegative_int = _number_in("nonnegative_int", "[0, inf)", lambda v: v >= 0, int)


@functools.cache
def _parser() -> _Parser:
    """The command line parser, built on first use."""
    parser = _Parser(prog="randamp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, fmt: str = "csv") -> None:
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=fmt)
        p.add_argument("--tolerance", type=positive_finite, default=sdp.TOLERANCE,
                       help="solver tolerance, positive and finite (default %(default)s)")

    p = sub.add_parser("game-value", help="classical and quantum values of one game")
    p.add_argument("game", choices=("chsh", "mermin", "magic-square"))
    p.add_argument("--epsilon", type=source_bias, default=0.0)
    common(p)

    p = sub.add_parser("figure1", help="output-bias bound over (epsilon, success floor)")
    p.add_argument("--grid", default="0.1:0.45:3", help="epsilon grid a:b:n")
    p.add_argument("--ps", default="0.96:1.0:3", help="success floor grid a:b:n or value")
    common(p)

    p = sub.add_parser("figure2", help="critical success probability curve")
    p.add_argument("--grid", default="0.1:0.45:3", help="epsilon grid a:b:n")
    common(p)

    p = sub.add_parser("figure3", help="sufficient success threshold curve")
    p.add_argument("--grid", default="0.1:0.45:3", help="epsilon grid a:b:n")
    p.add_argument("--delta", type=confidence, default=0.99)
    p.add_argument("--x", type=nonnegative_finite, default=0.0)
    common(p)

    p = sub.add_parser("plan", help="derive full protocol parameters")
    p.add_argument("--epsilon", type=protocol_bias, required=True)
    p.add_argument("--eps-prime", type=target_bias, required=True)
    p.add_argument("--delta", type=confidence, required=True)
    p.add_argument("--x", type=positive_finite, default=None)
    common(p, "json")

    p = sub.add_parser("simulate", help="plan and execute protocol runs")
    p.add_argument("--epsilon", type=protocol_bias, required=True)
    p.add_argument("--eps-prime", type=target_bias, required=True)
    p.add_argument("--delta", type=confidence, required=True)
    p.add_argument("--x", type=positive_finite, default=None)
    p.add_argument("--device", default="honest")
    p.add_argument("--visibility", type=float, default=1.0)
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--seed", type=nonnegative_int, default=0)
    common(p)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    command, tol = args.command, args.tolerance
    buffer = io.StringIO()
    try:
        notes = None
        if command == "game-value":
            rows = cmd_game_value(args.game, args.epsilon, tol)
        elif command == "figure1":
            rows, notes = cmd_figure1(parse_grid(args.grid), parse_grid(args.ps), tol)
        elif command == "figure2":
            rows = cmd_figure2(parse_grid(args.grid), tol)
        elif command == "figure3":
            rows = cmd_figure3(parse_grid(args.grid), args.delta, args.x, tol)
        elif command == "plan":
            rows = [cmd_plan(args.epsilon, args.eps_prime, args.delta, args.x, tol)]
        else:
            rows, notes = cmd_simulate(
                args.epsilon, args.eps_prime, args.delta, args.x,
                args.device, args.visibility, args.runs, args.seed, tol,
            )
        if command in ("figure1", "figure2", "figure3") and all(r["status"] != "ok" for r in rows):
            raise npa.SolverFailureError("every grid cell failed")
        schema = f"randamp-{command} v1"
        if command == "plan" and args.format == "json":
            buffer.write(json.dumps({"schema": schema, **rows[0]}, indent=2) + "\n")
        else:
            _emit(rows, schema, args.format, buffer, notes)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleSlackError as exc:
        print(f"numerical failure: {exc} (maximal feasible x: {_fmt(exc.x_max)})", file=sys.stderr)
        return EXIT_NUMERICAL
    except (npa.SolverFailureError, npa.BracketingError, npa.InfeasibleSuccessError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
