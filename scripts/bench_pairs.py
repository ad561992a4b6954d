#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --pairs certify=10 --pairs plan=5 --seconds 15 \\
        --claim certify:ops_per_s --what "..." --out BENCH_23.json

Both arguments are source checkouts holding `perfbench/run.py`.  For each
workload, pair i runs `perfbench/run.py --workload <w> --seed i --seconds
<s> --trace 0` once in each checkout; odd pairs run the parent first,
even pairs the change.  Then one `--trace 1` run per side and workload
(seed 1) records the per-layer metrics and deterministic counts, and
its computed values (`details.computed`) are compared between the two
sides: `computed_equal` holds the verdict per workload, and a warning
goes to stderr when they differ.

The output file holds every run's result line and, per workload and
end-to-end metric of the change's BENCHMARK.json, both sides' median and
quartiles, the parent's IQR and the number of pairs the change won.  It
is rewritten after every run, so an interrupted session keeps what ran.
The script only runs `perfbench/`; it never writes into either checkout
beyond what `perfbench/run.py` itself writes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = "perfbench/run.py"
COMMAND = "python3 perfbench/run.py --workload <w> --seed <i> --seconds {seconds} --trace <0|1>"
TIMEOUT_S = 900


def bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> list[dict]:
    """The JSON lines a run prints: [result] for --trace 0, [details, result] for --trace 1."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr[-2000:]}")
    keep = 1 if trace == 0 else 2
    return [json.loads(line) for line in lines[-keep:]]


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]] if values else []
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs: list[dict], metrics: dict[str, str]) -> dict:
    """Per workload and end-to-end metric, the two sides' medians and
    quartiles, the parent's IQR and the pairs the change won."""
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {side: {r["seed"]: r["result"] for r in runs
                          if r["workload"] == workload and r["side"] == side}
                   for side in ("parent", "change")}
        seeds = sorted(set(by_seed["parent"]) & set(by_seed["change"]))
        if not seeds:
            continue
        summary: dict = {}
        for name, better in metrics.items():
            parent = [by_seed["parent"][s]["metrics"][name]["value"] for s in seeds]
            change = [by_seed["change"][s]["metrics"][name]["value"] for s in seeds]
            pq, cq = quartiles(parent), quartiles(change)
            won = sum((c > p) if better == "higher" else (c < p) for p, c in zip(parent, change))
            summary[name] = {
                "parent_median": statistics.median(parent),
                "parent_iqr": pq[1] - pq[0],
                "parent_quartiles": pq,
                "change_median": statistics.median(change),
                "change_quartiles": cq,
                "change_better_pairs": won,
                "pairs": len(seeds),
            }
        for key, field in (("failed_ops", "failed"), ("attempted_ops", "attempted")):
            summary[key] = {side: sum(by_seed[side][s][field] for s in seeds) for side in by_seed}
        summary["all_correct"] = all(by_seed[side][s]["correct"] for side in by_seed for s in seeds)
        out[workload] = summary
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="run N alternating --trace 0 pairs of WORKLOAD (repeatable)")
    parser.add_argument("--seconds", type=float, default=15.0, help="timed seconds per --trace 0 run")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the metric the change claims to improve")
    parser.add_argument("--what", default="", help="one paragraph on what the change is")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_*.json file to write")
    args = parser.parse_args(argv)

    plan = []
    for item in args.pairs:
        workload, _, count = item.partition("=")
        plan.append((workload, int(count)))
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report: dict = {
        "what": args.what,
        "command": COMMAND.format(seconds=f"{args.seconds:g}"),
        "machine": {},
        "claim": dict(zip(("workload", "metric"), args.claim.split(":"))) if args.claim else None,
        "summary_trace0": {},
        "computed_equal": {},
        "runs": [],
        "trace1": [],
    }

    def record() -> None:
        report["summary_trace0"] = summarize(report["runs"], metrics)
        args.out.write_text(json.dumps(report, indent=1) + "\n")

    for workload, count in plan:
        for seed in range(1, count + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in order:
                started = time.time()
                (result,) = bench(sides[side], workload, seed, args.seconds, trace=0)
                report["runs"].append({"side": side, "workload": workload, "trace": 0,
                                       "seed": seed, "result": result})
                record()
                print(f"{workload} pair {seed} {side}: ops_per_s "
                      f"{result['metrics']['ops_per_s']['value']:.1f} ({time.time() - started:.0f} s)",
                      file=sys.stderr)
    for workload, _ in plan:
        computed = {}
        for side in ("parent", "change"):
            lines = bench(sides[side], workload, 1, args.seconds, trace=1)
            report["trace1"].append({"side": side, "workload": workload, "trace": 1, "seed": 1, "lines": lines})
            report["machine"] = lines[0]["details"]["machine"]
            computed[side] = lines[0]["details"]["computed"]
            record()
            print(f"{workload} trace 1 {side}: done", file=sys.stderr)
        equal = computed["parent"] == computed["change"]
        report["computed_equal"][workload] = equal
        record()
        if not equal:
            print(f"warning: {workload}: the trace 1 runs computed different values on the two sides",
                  file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
