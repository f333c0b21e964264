"""Independent nominal solvers, feasibility tests and exact evaluator.

Nothing here imports vsrobust, so the benchmark's output checks and the
brute-force reference never reuse the code they check.  Shortest paths come
from ``scipy.sparse.csgraph`` (parallel arcs collapsed to the cheapest one,
zero costs stored explicitly), spanning trees from a Kruskal of our own, and
selections from a sort.

The regret of x at size lam is ``c(x,lam).x - min_y c(x,lam).y`` with
``c(x,lam) = c * (1 - lam + 2 lam x)``; every competitor y gives the affine
function ``c.(x - y) + lam * c.|x - y|``, and the profile is their upper
envelope on [0, 1].
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

PATH, TREE, SELECTION = "path", "tree", "selection"


class CheckError(Exception):
    """An output of the program failed an independent check."""


class Problem:
    """The benchmark's own view of an instance: kind, costs and structure."""

    def __init__(self, kind, costs, num_nodes=0, tails=(), heads=(), s=0,
                 t=0, p=0):
        self.kind = kind
        self.costs = np.asarray(costs, dtype=np.float64)
        self.num_nodes = int(num_nodes)
        self.tails = np.asarray(tails, dtype=np.int64)
        self.heads = np.asarray(heads, dtype=np.int64)
        self.s, self.t, self.p = int(s), int(t), int(p)
        # regret values are at most 2 sum(c); compare them to this accuracy
        self.tol = 1e-9 * (1.0 + 2.0 * float(self.costs.sum()))
        if kind == PATH:
            n = self.num_nodes
            self.keys, self.group = np.unique(self.tails * n + self.heads,
                                              return_inverse=True)
            self.group_starts = np.searchsorted(np.sort(self.group),
                                                np.arange(self.keys.size))
            self.indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(self.keys // n, minlength=n),
                      out=self.indptr[1:])

    @classmethod
    def of(cls, instance) -> "Problem":
        """Read a vsrobust instance by its public attributes."""
        if hasattr(instance, "p"):
            return cls(SELECTION, instance.nominal, p=instance.p)
        kind = PATH if instance.kind == "shortest_path" else TREE
        return cls(kind, instance.nominal, instance.num_nodes, instance.tails,
                   instance.heads, instance.s or 0, instance.t or 0)

    # -- nominal optimum ---------------------------------------------------

    def minimize(self, costs: np.ndarray) -> tuple[float, np.ndarray]:
        """(value, solution) of min costs.y over the feasible set."""
        if self.kind == SELECTION:
            y = np.zeros(costs.size, dtype=np.int8)
            y[np.argsort(costs, kind="stable")[: self.p]] = 1
        elif self.kind == TREE:
            y = self._kruskal(costs)
        else:
            y = self._shortest_path(costs)
        return float(costs @ y), y

    def _shortest_path(self, costs):
        n = self.num_nodes
        # the cheapest arc of each (tail, head) pair stands for the pair
        cheapest = np.lexsort((costs, self.group))[self.group_starts]
        graph = sp.csr_matrix((costs[cheapest], self.keys % n, self.indptr),
                              shape=(n, n))
        dist, pred = dijkstra(graph, indices=self.s, return_predecessors=True)
        if not np.isfinite(dist[self.t]):
            raise CheckError(f"no path from {self.s} to {self.t}")
        y = np.zeros(costs.size, dtype=np.int8)
        v = self.t
        while v != self.s:
            u = int(pred[v])
            y[cheapest[np.searchsorted(self.keys, u * n + v)]] = 1
            v = u
        return y

    def _kruskal(self, costs):
        parent = list(range(self.num_nodes))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        y = np.zeros(costs.size, dtype=np.int8)
        for e in np.argsort(costs, kind="stable"):
            a, b = find(int(self.tails[e])), find(int(self.heads[e]))
            if a != b:
                parent[a] = b
                y[e] = 1
        if int(y.sum()) != self.num_nodes - 1:
            raise CheckError("graph is not connected")
        return y

    # -- feasibility -------------------------------------------------------

    def feasible(self, x) -> bool:
        x = np.asarray(x)
        if x.shape != self.costs.shape or not np.all((x == 0) | (x == 1)):
            return False
        chosen = np.flatnonzero(x)
        if self.kind == SELECTION:
            return chosen.size == self.p
        if self.kind == TREE:
            if chosen.size != self.num_nodes - 1:
                return False
            parent = list(range(self.num_nodes))
            for e in chosen:
                a, b = int(self.tails[e]), int(self.heads[e])
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a == b:
                    return False
                parent[a] = b
            return True
        # simple s-t path: follow the unique out-arc from s to t
        out = {}
        for e in chosen:
            u = int(self.tails[e])
            if u in out:
                return False
            out[u] = int(e)
        seen, v = {self.s}, self.s
        while v != self.t:
            if v not in out:
                return False
            v = int(self.heads[out.pop(v)])
            if v in seen:
                return False
            seen.add(v)
        return not out

    # -- regret ------------------------------------------------------------

    def line(self, x, y) -> tuple[float, float]:
        """(slope, intercept) of competitor y's regret against x."""
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        return (float(self.costs @ np.abs(x - y)),
                float(self.costs @ (x - y)))

    def regret(self, x, lam: float) -> tuple[float, np.ndarray]:
        """(regret of x at size lam, a competitor attaining it)."""
        eff = self.costs * (1.0 - lam + 2.0 * lam * np.asarray(x))
        best, y = self.minimize(eff)
        return float(eff @ x) - best, y

    def profile(self, x) -> tuple[list, list]:
        """Exact regret profile of x on [0, 1] as (breaks, lines).

        Eisner-Severance: query the ends; where the lines of two queried
        competitors cross, query again; the interval is settled when nothing
        rises above the crossing.  K pieces take at most 2K + 1 queries.
        """
        def query(lam):
            return self.line(x, self.regret(x, lam)[1])

        breaks, lines = [0.0], [query(0.0)]
        pending = [(lines[0], query(1.0), 0.0, 1.0)]
        while pending:
            left, right, lo, hi = pending.pop()
            if abs(left[0] - right[0]) <= 1e-12 * (1.0 + abs(left[0])):
                continue    # parallel supporting lines at lo and hi coincide
            lam = (left[1] - right[1]) / (right[0] - left[0])
            lam = min(max(lam, lo), hi)
            value, y = self.regret(x, lam)
            if value <= left[0] * lam + left[1] + self.tol:
                breaks.append(lam)
                lines.append(right)
            else:
                middle = self.line(x, y)
                pending += [(middle, right, lam, hi), (left, middle, lo, lam)]
        breaks.append(1.0)
        return breaks, lines

    def val(self, x) -> float:
        """Exact integral of the regret of x over [0, 1]."""
        breaks, lines = self.profile(x)
        return sum(b * (hi - lo) + a * (hi * hi - lo * lo) / 2.0
                   for (a, b), lo, hi in zip(lines, breaks[:-1], breaks[1:]))


def check_evaluation(prob: Problem, x, ev) -> None:
    """Check a ``compute_val`` result for x under the constant weight on
    [0, 1]; raises CheckError on the first violation.

    Each piece must be the regret line of its witness, and each witness
    feasible; so the envelope never exceeds the true regret.  Equality at
    every breakpoint and at both ends then makes them equal everywhere (a
    competitor below the envelope at both ends of a piece stays below it in
    between), and ``val`` must be the trapezoid integral of those values.
    """
    breaks = np.asarray(ev.profile.breaks, dtype=np.float64)
    pieces = ev.profile.pieces
    if breaks.size != len(pieces) + 1 or breaks[0] != 0.0 or breaks[-1] != 1.0:
        raise CheckError(f"profile breaks {breaks} do not span [0, 1]")
    if np.any(np.diff(breaks) <= 0.0) and len(pieces) > 1:
        raise CheckError("profile breaks are not increasing")
    if not np.array_equal(np.asarray(ev.changepoints), breaks[1:-1]):
        raise CheckError("changepoints differ from the interior breaks")
    if len(ev.witnesses) != len(pieces):
        raise CheckError("one witness per piece expected")
    for piece, witness in zip(pieces, ev.witnesses):
        if not prob.feasible(piece.witness) or not np.array_equal(
                piece.witness, witness):
            raise CheckError("a witness is infeasible or not its piece's")
        slope, intercept = prob.line(x, piece.witness)
        if (abs(slope - piece.slope) > prob.tol
                or abs(intercept - piece.intercept) > prob.tol):
            raise CheckError(
                f"piece ({piece.slope}, {piece.intercept}) is not its "
                f"witness's line ({slope}, {intercept})")
    true = np.array([prob.regret(x, lam)[0] for lam in breaks])
    for k, lam in enumerate(breaks):
        near = pieces[max(k - 1, 0): k + 1]
        env = max(p.slope * lam + p.intercept for p in near)
        if abs(env - true[k]) > prob.tol:
            raise CheckError(
                f"envelope {env} differs from the regret {true[k]} at {lam}")
    integral = float(np.sum((true[1:] + true[:-1]) * np.diff(breaks)) / 2.0)
    if abs(integral - ev.val) > prob.tol:
        raise CheckError(f"val {ev.val} is not the profile's integral {integral}")


def check_solve(prob: Problem, x, value, lower_bound, epsilon, nominal_val,
                optimum=None) -> None:
    """Check an ``algorithm1`` result: x feasible, its value exact, the final
    gap within epsilon, no worse than the nominal solution, and equal to the
    brute-force optimum when one is known."""
    if not prob.feasible(x):
        raise CheckError("returned solution is infeasible")
    slack = epsilon * (1.0 + abs(value))
    if value - lower_bound > slack + prob.tol:
        raise CheckError(f"final gap {value - lower_bound} exceeds epsilon")
    exact = prob.val(x)
    if abs(exact - value) > prob.tol:
        raise CheckError(f"reported value {value}, exact value {exact}")
    if value > nominal_val + prob.tol:
        raise CheckError(f"value {value} worse than nominal {nominal_val}")
    if optimum is not None and not (
            optimum - prob.tol <= value <= optimum + slack + prob.tol):
        raise CheckError(f"value {value}, brute-force optimum {optimum}")
