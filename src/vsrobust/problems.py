"""Nominal combinatorial oracles for the three supported problem classes:
cardinality-constrained selection, shortest s-t path, and minimum spanning
tree.  Also provides feasibility checks and exhaustive enumerators used as
exact testing oracles at desk scale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .exceptions import CapacityError, InfeasibleError, UsageError
from .model import as_costs, as_solution

SHORTEST_PATH = "shortest_path"
SPANNING_TREE = "spanning_tree"


@dataclass
class SelectionInstance:
    """Choose exactly p of n items at minimum total cost."""

    n: int
    p: int
    nominal: np.ndarray
    _enumerated: Optional[tuple] = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        self.nominal = as_costs(self.nominal)
        if self.nominal.shape[0] != self.n:
            raise UsageError("cost vector length must equal n")
        if not (1 <= self.p <= self.n):
            raise UsageError(f"need 1 <= p <= n, got p={self.p}, n={self.n}")

    @property
    def ground_size(self) -> int:
        return self.n


@dataclass
class GraphInstance:
    """Arc-indexed graph problem: shortest s-t path (directed) or minimum
    spanning tree (undirected).  Parallel arcs are permitted and keep their
    own indices.  Treat instances as immutable once constructed."""

    num_nodes: int
    tails: np.ndarray
    heads: np.ndarray
    nominal: np.ndarray
    kind: str
    s: Optional[int] = None
    t: Optional[int] = None
    _csr: Optional[tuple] = field(default=None, repr=False, compare=False)
    _grouped: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)
    _enumerated: Optional[tuple] = field(default=None, init=False, repr=False,
                                         compare=False)

    def __post_init__(self):
        self.tails = np.asarray(self.tails, dtype=np.int64)
        self.heads = np.asarray(self.heads, dtype=np.int64)
        self.nominal = as_costs(self.nominal)
        m = self.tails.shape[0]
        if self.heads.shape[0] != m or self.nominal.shape[0] != m:
            raise UsageError("tails, heads and costs must have equal length")
        if m and (self.tails.min() < 0 or self.heads.min() < 0
                  or max(self.tails.max(), self.heads.max()) >= self.num_nodes):
            raise UsageError("arc endpoint out of range")
        if self.kind == SHORTEST_PATH:
            if self.s is None or self.t is None:
                raise UsageError("shortest-path instance needs s and t")
            if self.s == self.t:
                raise UsageError("s and t must differ")
        elif self.kind != SPANNING_TREE:
            raise UsageError(f"unknown graph kind {self.kind!r}")

    @property
    def num_arcs(self) -> int:
        return self.tails.shape[0]

    @property
    def ground_size(self) -> int:
        return self.num_arcs

    def csr(self):
        """Out-arc adjacency in CSR layout, cached; arc ids ascend per node."""
        if self._csr is None:
            order = np.lexsort((np.arange(self.num_arcs), self.tails))
            counts = np.bincount(self.tails, minlength=self.num_nodes)
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._csr = (indptr, self.heads[order], order.astype(np.int64))
        return self._csr

    def _arc_groups(self, reverse: bool = False):
        """Arcs grouped by (tail, head), or by (head, tail) when reversed,
        cached: (order, starts, indptr, indices).  ``order`` sorts the arcs
        by that pair, then by index; group k begins at ``order[starts[k]]``
        and is the k-th stored entry of a CSR matrix with row pointers
        ``indptr`` and column indices ``indices``."""
        if reverse not in self._grouped:
            rows, cols = ((self.heads, self.tails) if reverse
                          else (self.tails, self.heads))
            order = np.lexsort((np.arange(self.num_arcs), cols, rows))
            pair = rows[order] * self.num_nodes + cols[order]
            starts = np.flatnonzero(np.diff(pair, prepend=-1))
            counts = np.bincount(rows[order][starts], minlength=self.num_nodes)
            indptr = np.zeros(self.num_nodes + 1, dtype=np.int32)
            np.cumsum(counts, out=indptr[1:])
            indices = cols[order][starts].astype(np.int32)
            self._grouped[reverse] = (order, starts, indptr, indices)
        return self._grouped[reverse]


Instance = SelectionInstance | GraphInstance


def solve_nominal(instance: Instance, costs: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimize costs over the feasible set; returns (solution, value).

    Tie-breaking is deterministic: selection and spanning tree use a stable
    (cost, index) sort; shortest path walks back from t along, for every
    node, the tight in-arc with the smallest (tail, index), and only if that
    walk revisits a node, along the smallest one whose tail has fewer tight
    hops from s.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.shape[0] != instance.ground_size:
        raise UsageError("cost vector length does not match instance")
    if np.any(costs < 0):
        raise UsageError("nominal oracles require non-negative costs")
    if isinstance(instance, SelectionInstance):
        chosen = np.argsort(costs, kind="stable")[: instance.p]
        x = np.zeros(instance.n, dtype=np.int8)
        x[chosen] = 1
        return x, float(costs[chosen].sum())
    if instance.kind == SHORTEST_PATH:
        return _solve_path(instance, costs)
    return _solve_tree(instance, costs)


def shortest_distances(g: GraphInstance, costs: np.ndarray, root: int,
                       reverse: bool = False) -> np.ndarray:
    """Shortest-path distances from ``root`` (to ``root`` when ``reverse``)
    under non-negative arc costs; inf where there is no path.

    Parallel arcs collapse to the cheapest one, and the matrix is built from
    its CSR arrays, so zero costs stay edges.
    """
    order, starts, indptr, indices = g._arc_groups(reverse)
    data = np.minimum.reduceat(costs[order], starts)
    matrix = sp.csr_matrix((data, indices, indptr),
                           shape=(g.num_nodes, g.num_nodes))
    return dijkstra(matrix, indices=root)


def _predecessor_arcs(g: GraphInstance, costs: np.ndarray, dist: np.ndarray,
                      acyclic: bool = False) -> np.ndarray:
    """For every node but s, the arc with the smallest (tail, index) among
    its tight in-arcs (``dist[tail] + cost == dist[head]``), or -1.  With
    ``acyclic``, only tails fewer tight-arc hops from s than the head
    qualify, so that hops fall strictly along every predecessor walk."""
    order = g._arc_groups(reverse=True)[0]  # by (head, tail, index)
    tails, heads = g.tails[order], g.heads[order]
    tail_dist = dist[tails]
    tight = np.isfinite(tail_dist) & (tail_dist + costs[order] == dist[heads])
    if acyclic:
        hops = _hops(g.num_nodes, g.s, tails[tight], heads[tight])
        tight &= hops[tails] < hops[heads]
    arcs, heads = order[tight], heads[tight]
    first = np.flatnonzero(np.diff(heads, prepend=-1))
    pred = np.full(g.num_nodes, -1, dtype=np.int64)
    pred[heads[first]] = arcs[first]
    pred[g.s] = -1
    return pred


def _hops(num_nodes: int, s: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Fewest arcs on a path from s to each node (inf if none), by BFS."""
    hops = np.full(num_nodes, np.inf)
    hops[s] = 0.0
    level = 0.0
    while True:
        reached = heads[(hops[tails] == level) & np.isinf(hops[heads])]
        if reached.size == 0:
            return hops
        level += 1.0
        hops[reached] = level


def _walk_back(g: GraphInstance, pred: np.ndarray) -> Optional[np.ndarray]:
    """Arcs of the predecessor walk from t to s; None if it revisits a node."""
    x = np.zeros(g.num_arcs, dtype=np.int8)
    v = g.t
    while v != g.s:
        a = pred[v]
        if x[a]:
            return None
        x[a] = 1
        v = g.tails[a]
    return x


def _solve_path(g: GraphInstance, costs: np.ndarray) -> tuple[np.ndarray, float]:
    dist = shortest_distances(g, costs, g.s)
    if not np.isfinite(dist[g.t]):
        raise InfeasibleError(f"no path from {g.s} to {g.t}")
    x = _walk_back(g, _predecessor_arcs(g, costs, dist))
    if x is None:  # zero-cost cycles made the tie rule cyclic
        x = _walk_back(g, _predecessor_arcs(g, costs, dist, acyclic=True))
    return x, float(dist[g.t])


def _solve_tree(g: GraphInstance, costs: np.ndarray) -> tuple[np.ndarray, float]:
    order = np.argsort(costs, kind="stable")
    selected, count = _kruskal_select(g.num_nodes, g.tails, g.heads, order)
    if count != g.num_nodes - 1:
        raise InfeasibleError("graph is not connected")
    x = selected.astype(np.int8)
    return x, float(costs[selected].sum())


def _kruskal_select(n, tails, heads, order):
    """Union-find edge selection in the given cost order.

    Returns (selected mask over arcs, number selected).  ``order`` is the
    stable (cost, index) sort of the arcs.
    """
    parent = np.arange(n, dtype=np.int64)
    selected = np.zeros(tails.shape[0], dtype=np.bool_)
    count = 0
    for idx in order:
        a = tails[idx]
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        b = heads[idx]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b
            selected[idx] = True
            count += 1
            if count == n - 1:
                break
    return selected, count


def is_feasible(instance: Instance, x: np.ndarray) -> bool:
    """True iff x encodes a p-subset / simple s-t path / spanning tree."""
    x = as_solution(x)
    if x.shape[0] != instance.ground_size:
        raise UsageError("solution length does not match instance")
    if isinstance(instance, SelectionInstance):
        return int(x.sum()) == instance.p
    if instance.kind == SHORTEST_PATH:
        return _is_simple_path(instance, x)
    return _is_spanning_tree(instance, x)


def _is_simple_path(g: GraphInstance, x: np.ndarray) -> bool:
    chosen = np.flatnonzero(x)
    if chosen.size == 0:
        return False
    out_arc = {}
    in_deg = np.zeros(g.num_nodes, dtype=np.int64)
    for a in chosen:
        u = int(g.tails[a])
        if u in out_arc:
            return False  # branching
        out_arc[u] = int(a)
        in_deg[g.heads[a]] += 1
        if in_deg[g.heads[a]] > 1:
            return False
    # walk from s; a simple path consumes every chosen arc exactly once
    seen = {g.s}
    v = g.s
    used = 0
    while v != g.t:
        if v not in out_arc:
            return False
        a = out_arc[v]
        v = int(g.heads[a])
        used += 1
        if v in seen:
            return False  # revisit => cycle
        seen.add(v)
    return used == chosen.size


def _is_spanning_tree(g: GraphInstance, x: np.ndarray) -> bool:
    chosen = np.flatnonzero(x)
    if chosen.size != g.num_nodes - 1:
        return False
    parent = list(range(g.num_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for e in chosen:
        ra, rb = find(int(g.tails[e])), find(int(g.heads[e]))
        if ra == rb:
            return False  # cycle
        parent[ra] = rb
    return True  # n-1 acyclic edges span by counting


def enumerate_solutions(instance: Instance, limit: int = 10**6) -> list[np.ndarray]:
    """Complete, deterministically ordered list of feasible solutions.

    This is the exact oracle used by the tests and the enumeration backend;
    raises CapacityError as soon as the feasible set exceeds ``limit``.  The
    enumeration backend keeps its result on the instance as bit-packed rows
    (solutions x ceil(n/8) bytes), so instances must not be mutated.
    """
    out: list[np.ndarray] = []
    for x in _iter_solutions(instance):
        if len(out) >= limit:
            raise CapacityError(
                f"feasible set exceeds limit {limit}; shrink the instance")
        out.append(x)
    return out


def _iter_solutions(instance: Instance) -> Iterator[np.ndarray]:
    if isinstance(instance, SelectionInstance):
        for combo in itertools.combinations(range(instance.n), instance.p):
            x = np.zeros(instance.n, dtype=np.int8)
            x[list(combo)] = 1
            yield x
    elif instance.kind == SHORTEST_PATH:
        yield from _iter_paths(instance)
    else:
        yield from _iter_trees(instance)


def _iter_paths(g: GraphInstance,
                support: Optional[np.ndarray] = None) -> Iterator[np.ndarray]:
    """All simple s-t paths by DFS, expanding arcs in ascending index; with
    ``support``, only through the arcs where it is nonzero.  The DFS keeps
    an explicit stack, so path length is not bounded by recursion depth."""
    indptr, csr_heads, csr_arcs = g.csr()
    heads, arcs = csr_heads.tolist(), csr_arcs.tolist()
    keep = ([True] * g.num_arcs if support is None
            else (np.asarray(support) != 0).tolist())
    out = [[(heads[k], arcs[k]) for k in range(indptr[v], indptr[v + 1])
            if keep[arcs[k]]] for v in range(g.num_nodes)]
    x = np.zeros(g.num_arcs, dtype=np.int8)
    on_path = [False] * g.num_nodes
    on_path[g.s] = True
    stack = [iter(out[g.s])]  # the unexpanded out-arcs of each path node
    entered = []  # (node, arc) by which each path node after s was entered
    while stack:
        for w, a in stack[-1]:
            if on_path[w]:
                continue
            x[a] = 1
            if w == g.t:
                yield x.copy()
                x[a] = 0
                continue
            on_path[w] = True
            entered.append((w, a))
            stack.append(iter(out[w]))
            break
        else:
            stack.pop()
            if entered:
                w, a = entered.pop()
                on_path[w] = False
                x[a] = 0


def _iter_trees(g: GraphInstance) -> Iterator[np.ndarray]:
    """All spanning trees via include/exclude branching on edge index, on
    an explicit stack, include first, with connectivity pruning (contraction
    /deletion in disguise).  ``k`` counts the components of the chosen
    forest; a tree is complete at k == 1."""
    n, m = g.num_nodes, g.num_arcs
    if n == 1:
        yield np.zeros(m, dtype=np.int8)
        return
    stack = [(0, list(range(n)), n, [])]  # (edge, parent, k, chosen)
    while stack:
        i, parent, k, chosen = stack.pop()
        if k == 1:
            x = np.zeros(m, dtype=np.int8)
            x[chosen] = 1
            yield x
            continue
        if i == m or (k - 1) > (m - i):
            continue  # too few edges left to connect
        stack.append((i + 1, parent, k, chosen))
        ra, rb = _find(parent, int(g.tails[i])), _find(parent, int(g.heads[i]))
        if ra != rb:
            child = list(parent)
            child[ra] = rb
            stack.append((i + 1, child, k - 1, chosen + [i]))


def _find(parent, a):
    while parent[a] != a:
        a = parent[a]
    return a
