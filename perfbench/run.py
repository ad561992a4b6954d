#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the randamp pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

One client drives the package's public API in this process as a closed
loop: the next op starts only after the previous one returns.  With
`--trace 0` the workload runs untraced for `--seconds` seconds after its
set-up and the end-to-end metrics are reported.  With `--trace 1` a fixed
op list runs once untraced and once with every traced layer wrapped, and
the per-layer metrics are reported.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; the line
before it holds the details (machine facts, computed values, verdicts,
deterministic counts).  `--smoke` runs every workload at tiny sizes in
both modes and checks the emitted metric names and units against
BENCHMARK.json.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "rss_peak_mb": "MB",
}
TAIL_LADDER = (90.0,)
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


def load_program():
    """Import randamp from this checkout's src/, never from elsewhere."""
    if not (SRC / "randamp" / "__init__.py").is_file():
        raise BenchError(f"no randamp sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import randamp
    from randamp import cli, games, npa, protocol, sdp, simulator, sources, strategies

    if Path(randamp.__file__).resolve().parent != (SRC / "randamp").resolve():
        raise BenchError(f"randamp imported from {randamp.__file__}, not from {SRC}")
    return SimpleNamespace(cli=cli, games=games, npa=npa, protocol=protocol, sdp=sdp,
                           simulator=simulator, sources=sources, strategies=strategies)


def machine_facts(seed: int) -> dict:
    import ctypes

    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {l.split()[-1] for l in fh if "openblas" in l.lower() and l.split()[-1].startswith("/")}
        for path in libs:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads = int(fn())
                    break
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
    }


def attempt(workload, op, failures: list) -> float:
    """Run and check one op; returns its latency, appending to `failures`
    if it raised or failed a check."""
    t = time.perf_counter()
    try:
        outcome = workload.execute(op)
    except Exception as exc:  # an op failure is data; keep the loop running
        latency = time.perf_counter() - t
        failures.append({**op.describe(), "error": f"{type(exc).__name__}: {exc}",
                         "where": traceback.format_exc(limit=-3)})
        return latency
    latency = time.perf_counter() - t
    workload.record(op, outcome)
    return latency


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest ladder percentile with at least 10 samples beyond it,
    as (value, percentile, samples beyond); the maximum when ops are too
    few for any.  The ladder stops at p90: on a shared 2-core host the
    p99 of simulate_aggregated followed bursts of other tenants' load
    (its spread over ten seeds reached 35%) rather than the program."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], p, n - rank
    return ordered[-1], 100.0, 0


def setup_samples(args, main_sample: float) -> tuple[list[float], list[str]]:
    """The main process's set-up plus fresh-interpreter repeats of it."""
    samples, errors = [main_sample], []
    for _ in range(WORKLOADS[args.workload].setup_repeats - 1):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            errors.append(f"set-up probe exceeded {CHILD_TIMEOUT_S} s")
            continue
        try:
            probe = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            probe = {"ok": False}
        if proc.returncode != 0 or not probe.get("ok"):
            errors.append(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            continue
        samples.append(probe["setup_s"])
    return samples, errors


def timed_phase(workload, seconds: float) -> dict:
    latencies, failures = [], []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        latencies.append(attempt(workload, workload.op(i), failures))
        i += 1
    wall = time.perf_counter() - start
    return {"latencies": latencies, "failures": failures, "wall": wall}


def end_to_end(workload, args, setup_main: float, details: dict) -> dict:
    setups, setup_errors = setup_samples(args, setup_main)
    phase = timed_phase(workload, args.seconds)
    lat, failures = phase["latencies"], phase["failures"]
    completed = len(lat) - len(failures)
    tail_value, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": completed / phase["wall"],
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_value,
        "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details.update({
        "setup_samples_s": setups,
        "setup_errors": setup_errors,
        "timed_wall_s": phase["wall"],
        "op_tail": {"percentile": tail_pct, "samples": len(lat), "beyond": beyond},
        "failed_frac": len(failures) / len(lat),
        "failures": failures[:5],
    })
    return {"metrics": metrics, "attempted": len(lat), "failed": len(failures),
            "ok": not failures and not setup_errors}


def traced(workload, args, details: dict) -> dict:
    ops = workload.trace_ops()
    failures: list = []
    start = time.perf_counter()
    for op in ops:
        attempt(workload, op, failures)
    untraced_wall = time.perf_counter() - start

    tracer = tracing.Tracer()
    missing = tracer.install()
    try:
        start = time.perf_counter()
        for op in ops:
            tracer.op_id, tracer.op_class = op.index, op.steering
            idx = tracer.open("op")
            try:
                attempt(workload, op, failures)
            finally:
                tracer.close(idx)
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()

    overhead = (traced_wall - untraced_wall) / untraced_wall
    metrics = tracing.layer_metrics(tracer, ops, overhead)
    guard = tracing.coverage(tracer, missing, workload.exercised, workload.control_zero)
    counts = tracing.deterministic_counts(tracer, ops)
    path = SPAN_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(path)
    details.update({
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "coverage": guard,
        "counts": counts,
        "baseline_counts": workload.compare_baseline(counts),
        "spans_file": str(path.relative_to(ROOT)),
        "failures": failures[:5],
    })
    return {"metrics": metrics, "attempted": 2 * len(ops), "failed": len(failures),
            "ok": not failures and guard["pass"]}


def run(args) -> dict:
    """One benchmark run; returns the result object (and its details)."""
    rt = load_program()
    workload = WORKLOADS[args.workload](rt, args.seed, smoke=args.smoke)
    warm_failures: list = []
    attempt(workload, workload.warmup_op(), warm_failures)
    setup_main = time.perf_counter() - T0
    if args.setup_probe:
        return {"setup_s": setup_main, "ok": not warm_failures}

    details = {"workload": args.workload, "machine": machine_facts(args.seed),
               "warmup": {**workload.warmup_op().describe(), "failures": warm_failures}}
    part = traced(workload, args, details) if args.trace else end_to_end(workload, args, setup_main, details)
    values, verdicts_ok = workload.summary()
    details["computed"] = values
    correct = part["ok"] and verdicts_ok and not warm_failures
    units = tracing.LAYER_UNITS if args.trace else E2E_UNITS
    return {
        "details": details,
        "result": {
            "correct": bool(correct),
            "attempted": part["attempted"],
            "failed": part["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in part["metrics"].items()},
        },
    }


def smoke(args) -> int:
    """Every workload at tiny sizes, both modes: names, units, checks, and
    traced counts that repeat exactly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "map.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(layer_map["per_layer"]) != set(layers):
        problems.append("map.json per_layer names differ from BENCHMARK.json")
    if set(layer_map["workloads"]) != {w["name"] for w in spec["workloads"]}:
        problems.append("map.json workloads differ from BENCHMARK.json")
    for w in spec["workloads"]:
        for trace, expected in ((0, e2e), (1, layers)):
            before = len(problems)
            counts = []
            for _ in range(1 + trace):
                sub = argparse.Namespace(workload=w["name"], seed=args.seed, seconds=0.01,
                                         trace=trace, smoke=True, setup_probe=False)
                out = run(sub)
                res = out["result"]
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != expected:
                    problems.append(f"{w['name']} trace={trace}: metrics/units {got} != {expected}")
                if not res["correct"] or res["failed"]:
                    problems.append(f"{w['name']} trace={trace}: not correct: {json.dumps(out['details'])[:2000]}")
                if not all(math.isfinite(v["value"]) for v in res["metrics"].values()):
                    problems.append(f"{w['name']} trace={trace}: non-finite metric")
                if "computed" not in out["details"]:
                    problems.append(f"{w['name']} trace={trace}: no computed values")
                if trace:
                    counts.append(out["details"]["counts"])
            if trace and counts[0] != counts[1]:
                problems.append(f"{w['name']}: traced counts differ between two passes")
            print(f"smoke {w['name']} trace={trace}: {'ok' if len(problems) == before else 'FAIL'}", flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, both modes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.smoke and not args.workload:
            return smoke(args)
        if not args.workload:
            parser.error("--workload is required")
        out = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(out))
        return 0
    print(json.dumps({"details": out["details"]}, default=str))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
