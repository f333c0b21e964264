"""Instance recipes and fixed pools shared by the benchmark and its
reference command.

Nothing here imports vsrobust.  The spanning-tree and selection recipes take
any random source with ``randint(lo, hi)``: the benchmark passes
``vsrobust.instances.SplitMix64``, the reference command passes the copy
below.  ``layered_arrays`` re-implements ``vsrobust.instances.gen_layered``
for the reference command; the benchmark compares instance digests, so a
change to either generator fails the operations on that instance instead of
checking them against the wrong optimum.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1

# The fixed pools whose brute-force optima reference.json holds.
# layered-enum: (N, k, cost type, seed) of complete layered digraphs
ENUM_POOL = ([(4, 5, "A", s) for s in range(6)]
             + [(4, 5, "B", s) for s in range(6, 12)])
# general-cuts: (kind, a, b, seed); a tree has a nodes and b edges, a
# selection picks b of a items
CUTS_POOL = ([("tree", 6, 9, s) for s in range(10)]
             + [("tree", 5, 8, s) for s in range(10)]
             + [("selection", 10, 3, s) for s in range(10)]
             + [("selection", 8, 4, s) for s in range(10)])


def enum_label(N, k, cost_type, seed) -> str:
    return f"layered N{N} k{k} {cost_type} seed {seed}"


def cuts_label(kind, a, b, seed) -> str:
    return f"{kind} {a} {b} seed {seed}"


class SplitMix64:
    """The splitmix64 stream documented in ``vsrobust.instances``."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)


def layered_arrays(N: int, k: int, cost_type: str, seed: int):
    """(num_nodes, tails, heads, costs, s, t) of the complete layered digraph,
    in the node numbering, arc order and draw order of ``gen_layered``."""
    rng = SplitMix64(seed)
    node = lambda layer, pos: 1 + layer * k + pos
    t = 1 + (N + 1) * k
    arcs = [(0, node(0, i)) for i in range(k)]
    arcs += [(node(layer, i), node(layer + 1, j))
             for layer in range(N) for i in range(k) for j in range(k)]
    arcs += [(node(N, i), t) for i in range(k)]
    costs = []
    for _ in arcs:
        if cost_type == "A":
            costs.append(rng.randint(1, 100))
        elif rng.next_u64() % 2 == 0:
            costs.append(rng.randint(1, 30))
        else:
            costs.append(rng.randint(70, 100))
    tails, heads = zip(*arcs)
    return (t + 1, np.array(tails), np.array(heads),
            np.array(costs, dtype=np.float64), 0, t)


def tree_arrays(n: int, m: int, rng):
    """(num_nodes, tails, heads, costs) of a connected simple graph.

    Node v = 1..n-1 first attaches to a uniform earlier node, so the graph is
    connected; then uniform node pairs are drawn, skipping loops and repeats,
    until there are m edges.  Costs are drawn last, uniform in [1, 100].
    """
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no simple connected graph with n={n}, m={m}")
    edges = [(rng.randint(0, v - 1), v) for v in range(1, n)]
    seen = set(edges)
    while len(edges) < m:
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        edge = (min(u, v), max(u, v))
        if u != v and edge not in seen:
            seen.add(edge)
            edges.append(edge)
    costs = np.array([rng.randint(1, 100) for _ in edges], dtype=np.float64)
    tails, heads = zip(*edges)
    return n, np.array(tails), np.array(heads), costs


def selection_costs(n: int, rng) -> np.ndarray:
    """n item costs, uniform in [1, 100]."""
    return np.array([rng.randint(1, 100) for _ in range(n)], dtype=np.float64)


def cuts_arrays(kind, a, b, rng):
    """(arrays, digest) of a general-cuts pool entry: the tree_arrays tuple,
    or the selection's (costs,)."""
    if kind == "tree":
        arrays = tree_arrays(a, b, rng)
        return arrays, digest(*arrays[1:])
    costs = selection_costs(a, rng)
    return (costs,), digest([b], costs)


def digest(*arrays) -> str:
    """Short content hash of an instance's defining arrays."""
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]
