"""Out-of-process-boundary tracing for the benchmark.

The program under test carries no tracing of its own, so this module
wraps its public functions from outside.  A wrapper replaces the name
where callers look it up: `from .sdp import solve` binds `npa.solve`, so
every module attribute that holds the original function object is
replaced, not only the defining one.  Methods are replaced on their class.

Each wrapped call records a span (name, start, end, parent, op id) in
memory.  `sources.ExtremalSource.next_bit_probability` runs several
times per simulated round, so it records counts and time into its parent
span instead of a span of its own.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, module, attribute) for module-level functions
FUNCTIONS = (
    ("sdp.solve", "sdp", "solve"),
    ("sdp.verify", "sdp", "verify"),
    ("npa.eps_prime", "npa", "eps_prime"),
    ("npa.critical_success", "npa", "critical_success"),
    ("npa.structure_for", "npa", "structure_for"),
    ("npa.compile_problem", "npa", "compile_problem"),
    ("protocol.plan_protocol", "protocol", "plan_protocol"),
    ("cli.main", "cli", "main"),
    ("simulator.run_protocol", "simulator", "run_protocol"),
    ("strategies.behavior_of_quantum", "strategies", "behavior_of_quantum"),
    ("strategies.apply_depolarizing", "strategies", "apply_depolarizing"),
    ("games.input_distribution_from_source", "games", "input_distribution_from_source"),
)
# (span name, module, class, method)
METHODS = (
    ("npa.SuccessFaceContext.__init__", "npa", "SuccessFaceContext", "__init__"),
    ("npa.SuccessFaceContext.bound", "npa", "SuccessFaceContext", "bound"),
)
LEAF = ("sources.next_bit_probability", "sources", "ExtremalSource", "next_bit_probability")

FACE_PARENT = "npa.SuccessFaceContext.bound"


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, op id, child seconds]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = None
        self.op_class = None  # steering class of the current op, for leaf counters
        self.solves: list[dict] = []
        self.leaf = defaultdict(lambda: [0, 0.0])  # op class -> [calls, seconds]
        self.bindings: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id, 0.0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        dur = span[2] - span[1]
        if span[3] is not None:
            self.spans[span[3]][5] += dur
        return dur

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        tracer = self

        if name == "sdp.solve":
            @functools.wraps(fn)
            def wrapper(problem, *args, **kwargs):
                kind = "face" if tracer.parent_name() == FACE_PARENT else "full"
                idx = tracer.open(name)
                try:
                    solution = fn(problem, *args, **kwargs)
                finally:
                    dur = tracer.close(idx)
                tracer.solves.append({
                    "kind": kind, "dim": problem.dimension, "constraints": len(problem.constraints),
                    "iterations": solution.iterations, "status": solution.status, "s": dur,
                    "op": tracer.op_id, "span": idx,
                })
                return solution
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
        return wrapper

    def _wrap_leaf(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t
                entry = tracer.leaf[tracer.op_class]
                entry[0] += 1
                entry[1] += dur
                if tracer._stack:
                    tracer.spans[tracer._stack[-1]][5] += dur
        return wrapper

    def install(self, package: str = "randamp") -> list[str]:
        """Replace every traced name; returns the names that could not be found."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith(package + ".") and m]
        missing = []
        for name, mod_name, attr in FUNCTIONS:
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap(name, original)
            hits = 0
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
                        hits += 1
            self.bindings[name] = hits
        for name, mod_name, cls_name, attr in (*METHODS, LEAF):
            cls = getattr(sys.modules.get(f"{package}.{mod_name}"), cls_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if original is None:
                missing.append(name)
                continue
            wrapper = self._wrap_leaf(original) if name == LEAF[0] else self._wrap(name, original)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, wrapper)
            self.bindings[name] = 1
        return missing

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------
    def calls(self, name: str) -> int:
        if name == LEAF[0]:
            return sum(c for c, _ in self.leaf.values())
        return sum(1 for s in self.spans if s[0] == name)

    def inclusive(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_time(self, prefix: str) -> float:
        return sum(s[2] - s[1] - s[5] for s in self.spans if s[0].startswith(prefix))

    def children_named(self, parent_name: str, child_name: str) -> int:
        return sum(
            1 for s in self.spans
            if s[0] == child_name and s[3] is not None and self.spans[s[3]][0] == parent_name
        )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, child) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "self_s": end - start - child,
                }) + "\n")


LAYER_UNITS = {
    "sdp.solve.calls_per_op": "calls/op",
    "sdp.solve.busy_share": "frac",
    "sdp.solve.nonoptimal": "count",
    **{f"sdp.solve.{kind}.{m}": u for kind in ("full", "face") for m, u in (
        ("iters_per_call", "iter/call"), ("s_per_iter", "s/iter"), ("dim", "count"), ("constraints", "count"))},
    "sdp.verify.calls": "count",
    "npa.critical_success.probes_per_call": "calls/call",
    "npa.eps_prime.calls_per_op": "calls/op",
    "npa.solves_per_eps_prime": "calls/call",
    "npa.structure_for.calls_per_op": "calls/op",
    "npa.structure_for.busy_share": "frac",
    "npa.compile_problem.busy_share": "frac",
    "npa.SuccessFaceContext.busy_share": "frac",
    "npa.self_share": "frac",
    "protocol.plan_protocol.self_share": "frac",
    "cli.main.self_share": "frac",
    "simulator.aggregated.s_per_run": "s/run",
    "strategies.behavior_of_quantum.calls_per_op": "calls/op",
    "strategies.behavior_of_quantum.busy_share": "frac",
    "strategies.apply_depolarizing.busy_share": "frac",
    "games.input_distribution_from_source.calls_per_op": "calls/op",
    "games.input_distribution_from_source.busy_share": "frac",
    "simulator.materialized.round_local.s_per_round": "s/round",
    "simulator.materialized.history.s_per_round": "s/round",
    "sources.next_bit_probability.round_local.calls_per_round": "calls/round",
    "sources.next_bit_probability.round_local.s_per_call": "s/call",
    "sources.next_bit_probability.history.calls_per_round": "calls/round",
    "sources.next_bit_probability.history.s_per_call": "s/call",
    "trace.overhead_frac": "frac",
}


def _ratio(a: float, b: float) -> float:
    """a / b, or 0 where the layer did no work on this workload."""
    return a / b if b else 0.0


def _ancestor(tracer: Tracer, idx: int, name: str) -> int | None:
    """Index of the nearest enclosing span called `name`."""
    parent = tracer.spans[idx][3]
    while parent is not None and tracer.spans[parent][0] != name:
        parent = tracer.spans[parent][3]
    return parent


def _solves_per_eps_prime(tracer: Tracer) -> dict[int, int]:
    counts = {i: 0 for i, s in enumerate(tracer.spans) if s[0] == "npa.eps_prime"}
    for solve in tracer.solves:
        owner = _ancestor(tracer, solve["span"], "npa.eps_prime")
        if owner is not None:
            counts[owner] += 1
    return counts


def layer_metrics(tracer: Tracer, ops: list, overhead: float) -> dict:
    n_ops = len(ops)
    op_s = tracer.inclusive("op")
    by_id = {op.index: op for op in ops}

    def share(name: str) -> float:
        return _ratio(tracer.inclusive(name), op_s)

    def per_op(name: str) -> float:
        return _ratio(tracer.calls(name), n_ops)

    m = {
        "sdp.solve.calls_per_op": per_op("sdp.solve"),
        "sdp.solve.busy_share": share("sdp.solve"),
        "sdp.solve.nonoptimal": sum(1 for s in tracer.solves if s["status"] != "optimal"),
    }
    for kind in ("full", "face"):
        solves = [s for s in tracer.solves if s["kind"] == kind]
        iters = sum(s["iterations"] for s in solves)
        m[f"sdp.solve.{kind}.iters_per_call"] = _ratio(iters, len(solves))
        m[f"sdp.solve.{kind}.s_per_iter"] = _ratio(sum(s["s"] for s in solves), iters)
        m[f"sdp.solve.{kind}.dim"] = _ratio(sum(s["dim"] for s in solves), len(solves))
        m[f"sdp.solve.{kind}.constraints"] = _ratio(sum(s["constraints"] for s in solves), len(solves))
    per_eps_prime = _solves_per_eps_prime(tracer)
    face_self = sum(s[2] - s[1] - s[5] for s in tracer.spans if s[0].startswith("npa.SuccessFaceContext."))
    m.update({
        "sdp.verify.calls": tracer.calls("sdp.verify"),
        "npa.critical_success.probes_per_call": _ratio(
            tracer.children_named("npa.critical_success", "npa.eps_prime"), tracer.calls("npa.critical_success")),
        "npa.eps_prime.calls_per_op": per_op("npa.eps_prime"),
        "npa.solves_per_eps_prime": _ratio(sum(per_eps_prime.values()), len(per_eps_prime)),
        "npa.structure_for.calls_per_op": per_op("npa.structure_for"),
        "npa.structure_for.busy_share": share("npa.structure_for"),
        "npa.compile_problem.busy_share": share("npa.compile_problem"),
        "npa.SuccessFaceContext.busy_share": _ratio(face_self, op_s),
        "npa.self_share": _ratio(tracer.self_time("npa."), op_s),
        "protocol.plan_protocol.self_share": _ratio(tracer.self_time("protocol.plan_protocol"), op_s),
        "cli.main.self_share": _ratio(tracer.self_time("cli.main"), op_s),
        "strategies.behavior_of_quantum.calls_per_op": per_op("strategies.behavior_of_quantum"),
        "strategies.behavior_of_quantum.busy_share": share("strategies.behavior_of_quantum"),
        "strategies.apply_depolarizing.busy_share": share("strategies.apply_depolarizing"),
        "games.input_distribution_from_source.calls_per_op": per_op("games.input_distribution_from_source"),
        "games.input_distribution_from_source.busy_share": share("games.input_distribution_from_source"),
    })

    runs = {"aggregated": [0, 0.0], "round_local": [0, 0.0], "history": [0, 0.0]}  # [rounds or runs, s]
    for s in tracer.spans:
        if s[0] != "simulator.run_protocol":
            continue
        op = by_id[s[4]]
        key = op.steering or "aggregated"
        runs[key][0] += 1 if key == "aggregated" else op.rounds
        runs[key][1] += s[2] - s[1]
    m["simulator.aggregated.s_per_run"] = _ratio(runs["aggregated"][1], runs["aggregated"][0])
    for key in ("round_local", "history"):
        rounds, seconds = runs[key]
        calls, call_s = tracer.leaf.get(key, (0, 0.0))
        m[f"simulator.materialized.{key}.s_per_round"] = _ratio(seconds, rounds)
        m[f"sources.next_bit_probability.{key}.calls_per_round"] = _ratio(calls, rounds)
        m[f"sources.next_bit_probability.{key}.s_per_call"] = _ratio(call_s, calls)
    m["trace.overhead_frac"] = overhead
    return {name: float(m[name]) for name in LAYER_UNITS}


def traced_names() -> list[str]:
    return [n for n, *_ in FUNCTIONS] + [n for n, *_ in METHODS] + [LEAF[0]]


def coverage(tracer: Tracer, missing: list[str], exercised, control_zero) -> dict:
    """Names a workload exercises must record calls, names it bypasses
    must record none, and every traced name must still exist."""
    calls = {name: tracer.calls(name) for name in traced_names()}
    silent = sorted(n for n in exercised if calls.get(n, 0) == 0)
    leaked = sorted(n for n in control_zero if calls.get(n, 0) != 0)
    return {"pass": not (missing or silent or leaked), "missing": sorted(missing),
            "no_calls": silent, "unexpected_calls": leaked, "calls": calls, "bindings": tracer.bindings}


def deterministic_counts(tracer: Tracer, ops: list) -> dict:
    """Counts that depend only on the inputs; two traced runs of one seed
    must report them identically."""
    counts: dict = {"ops": len(ops), "calls": {n: tracer.calls(n) for n in traced_names()}}
    for kind in ("full", "face"):
        solves = [s for s in tracer.solves if s["kind"] == kind]
        counts[f"sdp.solve.{kind}"] = {
            "calls": len(solves),
            "iterations": sum(s["iterations"] for s in solves),
            "dims": sorted({s["dim"] for s in solves}),
            "constraints": sorted({s["constraints"] for s in solves}),
        }
    counts["sdp.solve.statuses"] = sorted({s["status"] for s in tracer.solves})
    counts["solves_per_eps_prime"] = sorted(set(_solves_per_eps_prime(tracer).values()))
    counts["per_op"] = [
        {**op.describe(),
         "solves": sum(1 for s in tracer.solves if s["op"] == op.index),
         "iterations": sum(s["iterations"] for s in tracer.solves if s["op"] == op.index)}
        for op in ops if any(s["op"] == op.index for s in tracer.solves)
    ]
    counts["next_bit_probability_calls"] = {str(k): v[0] for k, v in sorted(tracer.leaf.items(), key=str)}
    return counts
