"""Write reference.json: the brute-force optimum of every fixed-pool instance.

    python3 vsrbench/reference.py

Run it from the repository root whenever a pool in gen.py or a generator
changes.  It imports nothing from vsrobust: the instances come from the
recipes in gen.py with their own splitmix64, every feasible solution is
listed by the code below, and each one's weighted regret integral (constant
weight on [0, 1]) is computed exactly by indep.Problem.val.  The optimum is
the least of those values.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from pathlib import Path

import numpy as np

import gen
from indep import PATH, SELECTION, TREE, Problem

OUT = Path(__file__).resolve().parent / "reference.json"


def solutions(prob: Problem):
    """Every feasible solution of prob, as 0/1 vectors."""
    m = prob.costs.size
    if prob.kind == SELECTION:
        combos = itertools.combinations(range(m), prob.p)
    elif prob.kind == TREE:
        combos = itertools.combinations(range(m), prob.num_nodes - 1)
    else:
        combos = _simple_paths(prob)
    for combo in combos:
        x = np.zeros(m, dtype=np.int8)
        x[list(combo)] = 1
        if prob.feasible(x):
            yield x


def _simple_paths(prob: Problem):
    out = [[] for _ in range(prob.num_nodes)]
    for e in range(prob.costs.size):
        out[int(prob.tails[e])].append(e)
    stack = [(prob.s, [], {prob.s})]
    while stack:
        v, arcs, seen = stack.pop()
        if v == prob.t:
            yield arcs
            continue
        for e in out[v]:
            w = int(prob.heads[e])
            if w not in seen:
                stack.append((w, arcs + [e], seen | {w}))


def entry(prob: Problem, digest: str) -> dict:
    count, best = 0, np.inf
    for x in solutions(prob):
        count += 1
        best = min(best, prob.val(x))
    return {"digest": digest, "optimum": best, "solutions": count}


def main() -> int:
    entries = {}
    for N, k, cost, s in gen.ENUM_POOL:
        start = time.perf_counter()
        n, tails, heads, costs, src, dst = gen.layered_arrays(N, k, cost, s)
        label = gen.enum_label(N, k, cost, s)
        entries[label] = entry(Problem(PATH, costs, n, tails, heads, src, dst),
                               gen.digest(tails, heads, costs))
        print(f"{label}: {entries[label]} "
              f"({time.perf_counter() - start:.1f} s)", file=sys.stderr)
    for kind, a, b, s in gen.CUTS_POOL:
        arrays, digest = gen.cuts_arrays(kind, a, b, gen.SplitMix64(s))
        if kind == "tree":
            n, tails, heads, costs = arrays
            prob = Problem(TREE, costs, n, tails, heads)
        else:
            prob = Problem(SELECTION, arrays[0], p=b)
        entries[gen.cuts_label(kind, a, b, s)] = entry(prob, digest)
    with open(OUT, "w") as fh:
        json.dump({"weight": "constant 1 on [0, 1]", "instances": entries},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
