"""Spans around the public entry points of each vsrobust layer.

The hooks are installed by replacing module (and class) attributes for the
duration of one traced operation, so an untraced operation runs the program
exactly as shipped.  Names bound with ``from .problems import solve_nominal``
are looked up in the importing module, so each such name is hooked where it
is looked up (``regret``, ``master``), not only where it is defined.
Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


def _model_size(model):
    return {"vars": model.num_vars, "rows": len(model.row_coeffs),
            "nnz": sum(len(row) for row in model.row_coeffs),
            "segments": len(model.meta["segments"])}


def _hook_table(vsr):
    """(owner, attribute, span name, attributes of the result)."""
    problems, regret, master = vsr.problems, vsr.regret, vsr.master
    solutions = lambda result: {"solutions": len(result)}
    pieces = lambda result: {"pieces": result.piece_count}
    return [
        (problems, "solve_nominal", "oracle", None),
        (regret, "solve_nominal", "oracle", None),
        (master, "solve_nominal", "oracle", None),
        (problems, "enumerate_solutions", "enum", solutions),
        (master, "enumerate_solutions", "enum", solutions),
        (regret, "compute_val", "eval", pieces),
        (master, "compute_val", "eval", pieces),
        (master, "build_formulation_dual_sp", "master.build", _model_size),
        (master, "build_formulation_general", "master.build", _model_size),
        (master.HighsBackend, "solve", "master.solve",
         lambda result: {"highs": 1}),
        (master.EnumerationBackend, "solve", "master.solve", None),
        (master, "milp", "master.milp", None),
        (master, "verify_master_objective", "master.verify", None),
        (master, "algorithm1", "alg1",
         lambda result: {"iterations": len(result[2].iterations),
                         "pool": len(result[2].pool)}),
        (vsr.instances, "gen_layered", "instances.gen", None),
        (vsr.instances, "gen_twopath", "instances.gen", None),
    ]


class Tracer:
    """Records spans (name, start, end, parent, operation, attributes)."""

    def __init__(self, vsr):
        self.spans: list = []
        self.stack: list = []
        self.op = -1
        self._hooks = [(owner, attr, getattr(owner, attr),
                        self._wrap(name, getattr(owner, attr), attrs))
                       for owner, attr, name, attrs in _hook_table(vsr)]

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if attrs is not None:
                span[5] = attrs(result)
            return result
        return hooked

    @contextlib.contextmanager
    def span(self, name):
        span = [name, time.perf_counter(), 0.0,
                self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[2] = time.perf_counter()
            self.stack.pop()

    @contextlib.contextmanager
    def installed(self):
        for owner, attr, _, hooked in self._hooks:
            setattr(owner, attr, hooked)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._hooks:
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "attrs": attrs}) + "\n")


# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = [
    ("instances.gen_s", "s", "lower"),
    ("oracle.calls", "count", "lower"),
    ("oracle.s", "s", "lower"),
    ("oracle.us_per_call", "us", "lower"),
    ("enum.calls", "count", "lower"),
    ("enum.solutions", "count", "lower"),
    ("enum.s", "s", "lower"),
    ("eval.calls", "count", "lower"),
    ("eval.self_s", "s", "lower"),
    ("eval.oracle_calls", "count", "lower"),
    ("eval.pieces", "count", "lower"),
    ("eval.pieces_per_oracle_call", "ratio", "higher"),
    ("master.builds", "count", "lower"),
    ("master.build_s", "s", "lower"),
    ("master.vars", "count", "lower"),
    ("master.rows", "count", "lower"),
    ("master.nnz", "count", "lower"),
    ("master.solves", "count", "lower"),
    ("master.solve_self_s", "s", "lower"),
    ("master.milp_calls", "count", "lower"),
    ("master.milp_s", "s", "lower"),
    ("master.lazy_rounds", "count", "lower"),
    ("master.verifies", "count", "lower"),
    ("master.verify_s", "s", "lower"),
    ("alg1.runs", "count", "lower"),
    ("alg1.self_s", "s", "lower"),
    ("alg1.iterations", "count", "lower"),
    ("alg1.segments", "count", "lower"),
    ("alg1.pool", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def layer_values(spans, ops: int, gen_s: float, overhead_s: float) -> dict:
    """Per-operation layer figures from the spans of ``ops`` operations.

    A span's self time is its duration minus that of its child spans; spans
    recorded outside an operation (``op < 0``) only serve as parents.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    count, total, own, attr = ({} for _ in range(4))
    eval_oracle = 0
    last_segments = {}
    for k, (name, start, end, parent, op, attrs) in enumerate(spans):
        if op < 0:
            continue
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - child[k])
        for key, value in (attrs or {}).items():
            attr[f"{name}.{key}"] = attr.get(f"{name}.{key}", 0) + value
        if name == "oracle" and parent >= 0 and spans[parent][0] == "eval":
            eval_oracle += 1
        if name == "master.build" and parent >= 0:
            last_segments[parent] = attrs["segments"]
    n = lambda name: count.get(name, 0)
    t = lambda name: total.get(name, 0.0)
    a = lambda key: attr.get(key, 0)
    ratio = lambda num, den: num / den if den else 0.0
    values = {
        "oracle.calls": n("oracle"),
        "oracle.s": t("oracle"),
        "enum.calls": n("enum"),
        "enum.solutions": a("enum.solutions"),
        "enum.s": t("enum"),
        "eval.calls": n("eval"),
        "eval.self_s": own.get("eval", 0.0),
        "eval.oracle_calls": eval_oracle,
        "eval.pieces": a("eval.pieces"),
        "master.builds": n("master.build"),
        "master.build_s": t("master.build"),
        "master.vars": a("master.build.vars"),
        "master.rows": a("master.build.rows"),
        "master.nnz": a("master.build.nnz"),
        "master.solves": n("master.solve"),
        "master.solve_self_s": own.get("master.solve", 0.0),
        "master.milp_calls": n("master.milp"),
        "master.milp_s": t("master.milp"),
        "master.lazy_rounds": n("master.milp") - a("master.solve.highs"),
        "master.verifies": n("master.verify"),
        "master.verify_s": t("master.verify"),
        "alg1.runs": n("alg1"),
        "alg1.self_s": own.get("alg1", 0.0),
        "alg1.iterations": a("alg1.iterations"),
        "alg1.segments": sum(seg for parent, seg in last_segments.items()
                             if spans[parent][0] == "alg1"),
        "alg1.pool": a("alg1.pool"),
    }
    values = {key: value / ops for key, value in values.items()}
    values.update({
        "instances.gen_s": gen_s,
        "oracle.us_per_call": 1e6 * ratio(t("oracle"), n("oracle")),
        "eval.pieces_per_oracle_call": ratio(a("eval.pieces"), eval_oracle),
        "trace.overhead_s": overhead_s,
    })
    return values
