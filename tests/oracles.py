"""Independent test oracles.

Everything here deliberately avoids the code paths it checks: regret values
come from exhaustive enumeration of the feasible set plus dense-grid maxima
(never from the envelope sweep or the analytic integrator), weight moments
come from Simpson quadrature, shortest paths from a dense pure-Python
label-setting Dijkstra, and general-style master objectives from one cut at
a time.
"""

from __future__ import annotations

import numpy as np

from vsrobust import enumerate_solutions
from vsrobust.instances import SplitMix64
from vsrobust.problems import (GraphInstance, SHORTEST_PATH, SPANNING_TREE,
                               SelectionInstance)

RIEMANN_POINTS = 100_000


def dijkstra_py(n, indptr, csr_heads, csr_arcs, costs, source):
    """Dense label-setting shortest paths from ``source`` in O(V^2 + E).

    ``indptr``/``csr_heads``/``csr_arcs`` describe the out-arcs of each node
    in CSR layout (``csr_arcs`` holds original arc indices into ``costs``).
    Returns (dist, pred_node, pred_arc).  Relaxation never checks whether
    the head is finalized, so each node's predecessor ends as the smallest
    (node, arc) pair among its tight in-arcs; with zero-cost cycles these
    predecessors can form a cycle.
    """
    dist = np.full(n, np.inf)
    pred_node = np.full(n, -1, dtype=np.int64)
    pred_arc = np.full(n, -1, dtype=np.int64)
    visited = np.zeros(n, dtype=np.bool_)
    dist[source] = 0.0
    for _ in range(n):
        u = -1
        best = np.inf
        for v in range(n):
            if not visited[v] and dist[v] < best:
                best = dist[v]
                u = v
        if u < 0:
            break
        visited[u] = True
        for k in range(indptr[u], indptr[u + 1]):
            v = csr_heads[k]
            a = csr_arcs[k]
            nd = dist[u] + costs[a]
            if nd < dist[v]:
                dist[v] = nd
                pred_node[v] = u
                pred_arc[v] = a
            elif nd == dist[v] and (
                u < pred_node[v]
                or (u == pred_node[v] and a < pred_arc[v])
            ):
                pred_node[v] = u
                pred_arc[v] = a
    return dist, pred_node, pred_arc


def general_objective(model, x):
    """Objective of a general-style (cut-pool) master at the binary part x,
    cut by cut: per segment, the largest cut, or 0 if every cut is
    negative, weighted by the segment's mass."""
    nominal = model.meta["instance"].nominal
    xf = np.asarray(x, dtype=np.float64)
    total = 0.0
    for seg in model.meta["segments"]:
        lam = seg.point
        best = 0.0
        for y in model.meta["pool"]:
            yf = y.astype(np.float64)
            cut = ((1.0 + lam) * float(nominal @ xf)
                   - (1.0 - lam) * float(nominal @ yf)
                   - 2.0 * lam * float((nominal * yf) @ xf))
            best = max(best, cut)
        total += seg.weight * best
    return total


def regret_lines(instance, x, solutions=None):
    """(intercepts, slopes) of every competitor's affine regret function."""
    if solutions is None:
        solutions = enumerate_solutions(instance)
    P = np.asarray(solutions, dtype=np.float64)
    c = instance.nominal
    xf = np.asarray(x, dtype=np.float64)
    cx = float(c @ xf)
    intercepts = cx - P @ c
    slopes = (np.abs(xf[None, :] - P) * c[None, :]).sum(axis=1)
    return intercepts, slopes


def grid_regret(instance, x, lams, solutions=None):
    """reg(x, lam) on a grid via max over all enumerated competitors."""
    intercepts, slopes = regret_lines(instance, x, solutions)
    # Pareto filter: a line below another in both coefficients never wins
    order = np.lexsort((-slopes, -intercepts))
    best_slope = -np.inf
    keep = []
    for idx in order:
        if slopes[idx] > best_slope:
            keep.append(idx)
            best_slope = slopes[idx]
    keep = np.array(keep)
    vals = intercepts[keep][:, None] + np.outer(slopes[keep], lams)
    return vals.max(axis=0)


def riemann_val(instance, x, w, n_points=RIEMANN_POINTS, solutions=None):
    """Midpoint Riemann sum of w(lam) * reg(x, lam) over the weight domain."""
    lo, hi = float(w.lams[0]), float(w.lams[-1])
    if hi <= lo:
        return 0.0
    step = (hi - lo) / n_points
    mids = lo + (np.arange(n_points) + 0.5) * step
    reg = grid_regret(instance, x, mids, solutions)
    return float(np.sum(w(mids) * reg) * step)


def brute_min_val(instance, w, n_points=RIEMANN_POINTS):
    """(best solution, best value) by exhausting the feasible set against
    the Riemann oracle."""
    solutions = enumerate_solutions(instance)
    best, best_val = None, np.inf
    for x in solutions:
        val = riemann_val(instance, x, w, n_points, solutions)
        if val < best_val:
            best, best_val = x, val
    return best, best_val


def simpson_moments(w, a, b, n=64):
    """Numeric (m0, m1) via composite Simpson, applied per linear segment of
    the weight function so the piecewise kinks fall on panel borders (the
    integrands are then polynomial per panel and Simpson is exact up to
    rounding)."""
    knots = sorted({a, b} | {float(l) for l in w.lams if a < l < b})
    m0 = m1 = 0.0
    for lo, hi in zip(knots[:-1], knots[1:]):
        xs = np.linspace(lo, hi, 2 * n + 1)
        ws = w(xs)
        coef = np.ones(xs.size)
        coef[1:-1:2] = 4.0
        coef[2:-1:2] = 2.0
        h = (hi - lo) / (2 * n)
        m0 += float(np.sum(coef * ws) * h / 3.0)
        m1 += float(np.sum(coef * xs * ws) * h / 3.0)
    return m0, m1


def hull_extreme_count(points, tol=1e-9):
    """Vertices of the lower-left convex hull of bicriteria objective pairs.

    This is the enumeration-based counterpart of the dichotomic search: keep
    Pareto minima, then walk the lower hull and count its corner points.
    """
    pts = sorted(set((round(p[0], 12), round(p[1], 12)) for p in points))
    pareto = []
    best_b = np.inf
    for p in pts:  # ascending a; keep strictly improving b
        if p[1] < best_b - tol:
            pareto.append(p)
            best_b = p[1]
    if len(pareto) <= 2:
        return len(pareto)
    hull = []
    for p in pareto:
        while len(hull) >= 2:
            (a1, b1), (a2, b2) = hull[-2], hull[-1]
            # lower-hull turn test; collinear middles are not corners
            cross = (a2 - a1) * (p[1] - b1) - (p[0] - a1) * (b2 - b1)
            if cross <= tol:
                hull.pop()
            else:
                break
        hull.append(p)
    return len(hull)


# ---------------------------------------------------------------------------
# seeded random instances for property loops


def random_selection(rng: SplitMix64, max_n=10):
    n = rng.randint(2, max_n)
    p = rng.randint(1, n - 1) if n > 1 else 1
    costs = np.array([rng.randint(1, 100) for _ in range(n)], dtype=np.float64)
    return SelectionInstance(n=n, p=p, nominal=costs)


def random_sp_graph(rng: SplitMix64, max_paths=30):
    """Small layered-ish DAG with a bounded number of s-t paths."""
    while True:
        layers = rng.randint(1, 3)
        width = rng.randint(1, 3)
        nodes = [0]
        layer_nodes = []
        nid = 1
        for _ in range(layers):
            layer = [nid + i for i in range(width)]
            nid += width
            layer_nodes.append(layer)
        t = nid
        tails, heads = [], []
        prev = [0]
        for layer in layer_nodes:
            for u in prev:
                for v in layer:
                    if rng.unit() < 0.8:
                        tails.append(u)
                        heads.append(v)
            prev = layer
        for u in prev:
            tails.append(u)
            heads.append(t)
        costs = np.array([rng.randint(1, 100) for _ in tails], dtype=np.float64)
        g = GraphInstance(num_nodes=t + 1, tails=np.array(tails),
                          heads=np.array(heads), nominal=costs,
                          kind=SHORTEST_PATH, s=0, t=t)
        try:
            sols = enumerate_solutions(g, limit=max_paths)
        except Exception:
            continue
        if sols:
            return g


def random_digraph(rng: SplitMix64, max_nodes=7, max_paths=None):
    """Small random digraph: cycles (self-loops included), parallel arcs,
    costs in 0..4 (zeros and ties are common), s and t anywhere, and nodes
    that s cannot reach.  With ``max_paths``, redraws until the instance has
    between 1 and ``max_paths`` simple s-t paths."""
    while True:
        n = rng.randint(3, max_nodes)
        s = rng.randint(0, n - 1)
        t = (s + rng.randint(1, n - 1)) % n
        tails, heads = [], []
        for _ in range(rng.randint(0, 3 * n)):
            if tails and rng.unit() < 0.2:  # parallel copy of an earlier arc
                k = rng.randint(0, len(tails) - 1)
                tails.append(tails[k])
                heads.append(heads[k])
            else:
                tails.append(rng.randint(0, n - 1))
                heads.append(rng.randint(0, n - 1))
        costs = np.array([rng.randint(0, 4) for _ in tails], dtype=np.float64)
        g = GraphInstance(num_nodes=n, tails=np.array(tails, dtype=np.int64),
                          heads=np.array(heads, dtype=np.int64),
                          nominal=costs, kind=SHORTEST_PATH, s=s, t=t)
        if max_paths is None:
            return g
        try:
            sols = enumerate_solutions(g, limit=max_paths)
        except Exception:
            continue
        if sols:
            return g


def random_mst_graph(rng: SplitMix64, max_nodes=8, max_trees=80):
    """Small connected undirected graph with a bounded spanning-tree count."""
    while True:
        n = rng.randint(3, max_nodes)
        tails, heads = [], []
        for v in range(1, n):  # random spanning tree backbone
            u = rng.randint(0, v - 1)
            tails.append(u)
            heads.append(v)
        extra = rng.randint(0, 2)
        for _ in range(extra):
            u = rng.randint(0, n - 1)
            v = rng.randint(0, n - 1)
            if u != v:
                tails.append(min(u, v))
                heads.append(max(u, v))
        costs = np.array([rng.randint(1, 100) for _ in tails], dtype=np.float64)
        g = GraphInstance(num_nodes=n, tails=np.array(tails),
                          heads=np.array(heads), nominal=costs,
                          kind=SPANNING_TREE)
        try:
            sols = enumerate_solutions(g, limit=max_trees)
        except Exception:
            continue
        if sols:
            return g


def random_weight(rng: SplitMix64, lo=0.0, hi=1.0, max_segments=5):
    from vsrobust import WeightFunction
    k = rng.randint(1, max_segments)
    lams = sorted({lo, hi} | {lo + (hi - lo) * rng.unit() for _ in range(k - 1)})
    vals = [rng.unit() * 3.0 for _ in lams]
    if all(v == 0 for v in vals):
        vals[0] = 1.0
    return WeightFunction(list(zip(lams, vals)))


def random_instance(rng: SplitMix64, kinds=("selection", "sp", "mst")):
    kind = kinds[rng.randint(0, len(kinds) - 1)]
    if kind == "selection":
        return random_selection(rng)
    if kind == "sp":
        return random_sp_graph(rng)
    return random_mst_graph(rng)
