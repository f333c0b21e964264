"""The four workloads: their instances, their operations and the checks.

An operation is one ``algorithm1`` solve or one ``compute_val`` call.  Every
call goes through a module attribute (``master.algorithm1``,
``regret.compute_val``) so that the tracer's hooks see it.

layered-milp and twopath-eval draw fresh instances from the seed and run one
operation per round.  layered-enum and general-cuts run fixed pools, because
their brute-force optima come from ``reference.json``; the seed sets the
order of each round, and a round is the whole pool, so that heavy-tailed
solve times weigh the same in every run.
"""

from __future__ import annotations

import contextlib
import json
import random
from pathlib import Path

import numpy as np

from vsrobust import WeightFunction, instances, master, regret
from vsrobust.problems import GraphInstance, SPANNING_TREE, SelectionInstance

import gen
from indep import CheckError, Problem, check_evaluation, check_solve

WEIGHT = WeightFunction.constant(0.0, 1.0)
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# (N, k, cost type) cells and the number of instances drawn per set-up
MILP_CELLS = [(3, 4, "A"), (3, 4, "B"), (3, 5, "A"), (3, 5, "B")]
MILP_POOL = 400
# (L, d) cells of the two-path graphs
TWOPATH_CELLS = [(100, 0.10), (100, 0.15), (120, 0.10), (120, 0.15)]
TWOPATH_POOL = 64


class Solve:
    """``algorithm1`` on one instance, checked against the exact value of
    its answer, the nominal solution's value and, if known, the optimum."""

    def __init__(self, label, instance, backend=None, optimum=None):
        self.label = label
        self.instance = instance
        self.backend = backend
        self.optimum = optimum
        self.problem = Problem.of(instance)
        self._nominal_val = None

    def run(self):
        backend = self.backend() if self.backend else None
        return master.algorithm1(self.instance, WEIGHT, backend=backend)

    def check(self, out):
        x, value, state = out
        if self._nominal_val is None:
            nominal = self.problem.minimize(self.problem.costs)[1]
            self._nominal_val = self.problem.val(nominal)
        check_solve(self.problem, x, value, state.iterations[-1].lb,
                    master.DEFAULT_EPSILON, self._nominal_val, self.optimum)


class Evaluate:
    """``compute_val`` of a fixed feasible solution, checked piece by piece."""

    def __init__(self, label, instance, problem, x):
        self.label = label
        self.instance = instance
        self.problem = problem
        self.x = x

    def run(self):
        return regret.compute_val(self.instance, self.x, WEIGHT)

    def check(self, out):
        check_evaluation(self.problem, self.x, out)


class Workload:
    def __init__(self, name, ops, whole_pool, warm_up):
        self.name = name
        self.ops = ops
        self.whole_pool = whole_pool
        self.warm_up = warm_up

    def rounds(self, seed):
        """Endless rounds of operations: the pool in a seeded order, or one
        operation at a time."""
        rng = random.Random(f"{self.name}/{seed}/order")
        while True:
            if self.whole_pool:
                order = list(self.ops)
                rng.shuffle(order)
                yield order
            else:
                for op in self.ops:
                    yield [op]


def _instance_seeds(name, seed, count):
    rng = random.Random(f"{name}/{seed}")
    return [rng.getrandbits(31) for _ in range(count)]


class _Mismatch(Solve):
    """A pool instance that no longer matches its reference entry: the
    generator changed, so its operations fail instead of being compared with
    another instance's optimum."""

    def check(self, out):
        raise CheckError(f"{self.label}: instance differs from reference.json;"
                         " rerun vsrbench/reference.py")


def _pool_solve(reference, label, instance, digest, backend):
    entry = reference[label]
    if entry["digest"] != digest:
        return _Mismatch(label, instance, backend)
    return Solve(label, instance, backend, entry["optimum"])


def _load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)["instances"]


def layered_milp(seed, span):
    ops = []
    for i, s in enumerate(_instance_seeds("layered-milp", seed, MILP_POOL)):
        N, k, cost = MILP_CELLS[i % len(MILP_CELLS)]
        g = instances.gen_layered(N, k, cost, s)
        ops.append(Solve(f"layered N{N} k{k} {cost} seed {s}", g))
    tiny = instances.gen_layered(2, 2, "A", 0)
    return Workload("layered-milp", ops, False,
                    lambda: master.algorithm1(tiny, WEIGHT))


def twopath_eval(seed, span):
    ops = []
    for i, s in enumerate(_instance_seeds("twopath-eval", seed, TWOPATH_POOL)):
        L, d = TWOPATH_CELLS[i % len(TWOPATH_CELLS)]
        g = instances.gen_twopath(L, d, s)
        prob = Problem.of(g)
        first = np.zeros(g.num_arcs, dtype=np.int8)
        first[: L + 1] = 1
        second = np.zeros(g.num_arcs, dtype=np.int8)
        second[L + 1: 2 * L + 2] = 1
        paths = [("nominal", prob.minimize(prob.costs)[1]),
                 ("first chain", first), ("second chain", second)]
        for name, x in paths:
            ops.append(Evaluate(f"twopath L{L} d{d} seed {s} {name} path",
                                g, prob, x))
    tiny = instances.gen_twopath(10, 0.1, 0)
    x0 = Problem.of(tiny).minimize(tiny.nominal)[1]
    return Workload("twopath-eval", ops, False,
                    lambda: regret.compute_val(tiny, x0, WEIGHT))


def layered_enum(seed, span):
    reference = _load_reference()
    ops = []
    for N, k, cost, s in gen.ENUM_POOL:
        g = instances.gen_layered(N, k, cost, s)
        ops.append(_pool_solve(reference, gen.enum_label(N, k, cost, s), g,
                               gen.digest(g.tails, g.heads, g.nominal),
                               master.EnumerationBackend))
    tiny = instances.gen_layered(2, 3, "A", 0)
    return Workload("layered-enum", ops, True,
                    lambda: master.algorithm1(tiny, WEIGHT,
                                              master.EnumerationBackend()))


def general_cuts(seed, span):
    reference = _load_reference()
    ops = []
    for kind, a, b, s in gen.CUTS_POOL:
        with span("instances.gen"):
            inst, digest = _cuts_instance(kind, a, b, instances.SplitMix64(s))
        ops.append(_pool_solve(reference, gen.cuts_label(kind, a, b, s), inst,
                               digest, None))
    tiny = [_cuts_instance(kind, a, b, instances.SplitMix64(0))[0]
            for kind, a, b in (("tree", 4, 5), ("selection", 5, 2))]

    def warm_up():
        for inst in tiny:
            master.algorithm1(inst, WEIGHT)
    return Workload("general-cuts", ops, True, warm_up)


def _cuts_instance(kind, a, b, rng):
    arrays, digest = gen.cuts_arrays(kind, a, b, rng)
    if kind == "tree":
        n, tails, heads, costs = arrays
        return GraphInstance(num_nodes=n, tails=tails, heads=heads,
                             nominal=costs, kind=SPANNING_TREE), digest
    return SelectionInstance(n=a, p=b, nominal=arrays[0]), digest


_BY_NAME = {"layered-milp": layered_milp, "twopath-eval": twopath_eval,
            "layered-enum": layered_enum, "general-cuts": general_cuts}


def build(name, seed, span=None):
    """The workload ``name`` for ``seed``; ``span`` times the benchmark's own
    generator calls."""
    return _BY_NAME[name](seed, span or (lambda _: contextlib.nullcontext()))
