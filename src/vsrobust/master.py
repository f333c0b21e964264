"""Exact compromise min-max-regret solver.

The master problem approximates the weighted regret integral on a finite
set of size segments.  Each segment carries its exact weight mass and is
evaluated at its weight centroid, which keeps the master a true relaxation
for any piecewise-linear weight density (for a constant density the centroid
is the segment midpoint).  The outer loop alternates master solves with the
exact evaluator until the bounds close.

Three interchangeable backends solve the master: exhaustive enumeration
(exact at desk scale, no dependencies), the bundled MILP solver from scipy
(HiGHS), and an adapter that emits CPLEX-LP files and shells out to any
external solver via ``VSR_SOLVER_CMD``.
"""

from __future__ import annotations

import bisect
import math
import os
import shlex
import subprocess
import tempfile
import time
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp

from .exceptions import (BackendError, CapacityError, DomainError,
                         InfeasibleError, StallError, UsageError)
from .model import EPS_LAMBDA, WeightFunction, solution_key
from .problems import (GraphInstance, Instance, SHORTEST_PATH, SPANNING_TREE,
                       SelectionInstance, _hops, _iter_paths,
                       enumerate_solutions, shortest_distances, solve_nominal)
from .regret import compute_val, regret_at

GENERAL = "general"
DUAL_SP = "dual_sp"

DEFAULT_EPSILON = 1e-6

# float elements per (max(n, V) x block) matrix in the batched enumeration;
# bounds its working set at any enumeration limit
_BLOCK_ELEMENTS = 1 << 20


@dataclass(frozen=True)
class Segment:
    """One piece of the size axis: [lo, hi] with weight mass and the point
    at which regret cuts are evaluated (the weight centroid)."""

    lo: float
    hi: float
    weight: float
    point: float


def build_segments(lambda_set: Sequence[float], w: WeightFunction) -> list[Segment]:
    """Partition the weight domain along the sorted changepoint set.

    Zero-mass segments are dropped; the remaining weights sum to the total
    mass of ``w``.
    """
    dom = w.domain
    cuts = [dom.lo]
    for lam in sorted(lambda_set):
        if lam <= cuts[-1] + EPS_LAMBDA or lam >= dom.hi - EPS_LAMBDA:
            continue
        cuts.append(float(lam))
    cuts.append(dom.hi)
    segments = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        m0, m1 = w.moments(a, b)
        if m0 <= 0.0:
            continue
        segments.append(Segment(lo=a, hi=b, weight=m0, point=m1 / m0))
    return segments


# ---------------------------------------------------------------------------
# model container


@dataclass
class VariableSpec:
    name: str
    kind: str  # 'B' binary or 'C' continuous
    lb: float
    ub: float


@dataclass
class MilpModel:
    """Sparse linear model: minimize obj @ v subject to rows, with metadata
    mapping variables back to the combinatorial instance."""

    variables: list = field(default_factory=list)
    obj: np.ndarray = None
    row_coeffs: list = field(default_factory=list)  # list of {var: coef}
    row_senses: list = field(default_factory=list)  # '<=', '>=', '='
    row_rhs: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    @property
    def num_vars(self) -> int:
        return len(self.variables)

    def add_var(self, name, kind, lb, ub) -> int:
        self.variables.append(VariableSpec(name, kind, lb, ub))
        return len(self.variables) - 1

    def add_row(self, coeffs: dict, sense: str, rhs: float):
        if sense not in ("<=", ">=", "="):
            raise UsageError(f"bad constraint sense {sense!r}")
        for coef in coeffs.values():
            if not math.isfinite(coef):
                raise UsageError("constraint coefficients must be finite")
        self.row_coeffs.append(dict(coeffs))
        self.row_senses.append(sense)
        self.row_rhs.append(float(rhs))

    def constraint_matrix(self):
        rows, cols, vals = [], [], []
        for r, coeffs in enumerate(self.row_coeffs):
            for c, v in coeffs.items():
                rows.append(r)
                cols.append(c)
                vals.append(v)
        a = sp.coo_matrix((vals, (rows, cols)),
                          shape=(len(self.row_coeffs), self.num_vars))
        lb = np.empty(len(self.row_coeffs))
        ub = np.empty(len(self.row_coeffs))
        for r, (sense, rhs) in enumerate(zip(self.row_senses, self.row_rhs)):
            if sense == "<=":
                lb[r], ub[r] = -np.inf, rhs
            elif sense == ">=":
                lb[r], ub[r] = rhs, np.inf
            else:
                lb[r], ub[r] = rhs, rhs
        return a.tocsr(), lb, ub

    def check_assignment(self, values: np.ndarray, tol: float = 1e-6) -> bool:
        """Feasibility of a full variable assignment within tolerance."""
        a, lb, ub = self.constraint_matrix()
        act = a @ values
        if np.any(act < lb - tol) or np.any(act > ub + tol):
            return False
        for j, v in enumerate(self.variables):
            if values[j] < v.lb - tol or values[j] > v.ub + tol:
                return False
        return True


@dataclass(frozen=True)
class BackendResult:
    status: str  # 'optimal' | 'infeasible' | 'error'
    assignment: Optional[np.ndarray]
    objective: Optional[float]
    message: str = ""


@dataclass
class IterationRecord:
    k: int
    lb: float
    ub: float
    lambda_count: int
    wall_time: float


@dataclass
class MasterState:
    """Accumulated changepoints, cut pool and bound log of the outer loop."""

    lambda_set: list = field(default_factory=list)
    pool: list = field(default_factory=list)
    iterations: list = field(default_factory=list)

    @property
    def lower_bounds(self):
        return [r.lb for r in self.iterations]

    @property
    def upper_bounds(self):
        return [r.ub for r in self.iterations]


# ---------------------------------------------------------------------------
# formulation builders


def _feasibility_rows(model: MilpModel, instance: Instance):
    """Encode membership of x in the feasible set (linear part).

    Spanning trees additionally need exponentially many cycle bans; those
    are added lazily by MILP backends (``meta['lazy_cycles']``)."""
    if isinstance(instance, SelectionInstance):
        model.add_row({i: 1.0 for i in range(instance.n)}, "=", float(instance.p))
        return
    if instance.kind == SHORTEST_PATH:
        # node-arc incidence, one pass over the arcs; a self-loop cancels
        rows = [{} for _ in range(instance.num_nodes)]
        for a, (tail, head) in enumerate(zip(instance.tails.tolist(),
                                             instance.heads.tolist())):
            rows[tail][a] = 1.0
            rows[head][a] = rows[head].get(a, 0.0) - 1.0
        for v, coeffs in enumerate(rows):
            coeffs = {a: c for a, c in coeffs.items() if c != 0.0}
            rhs = 1.0 if v == instance.s else (-1.0 if v == instance.t else 0.0)
            if coeffs or rhs:
                model.add_row(coeffs, "=", rhs)
        return
    model.add_row({i: 1.0 for i in range(instance.num_arcs)}, "=",
                  float(instance.num_nodes - 1))
    model.meta["lazy_cycles"] = True


def _general_from_segments(instance: Instance, segments: Sequence[Segment],
                           pool: Sequence[np.ndarray]) -> MilpModel:
    if not segments:
        raise UsageError("master model needs at least one segment")
    if not pool:
        raise UsageError("master model needs a non-empty cut pool")
    nominal = instance.nominal
    n = instance.ground_size
    model = MilpModel()
    for i in range(n):
        model.add_var(f"x_{i}", "B", 0.0, 1.0)
    z0 = model.num_vars
    for j in range(len(segments)):
        # regret is non-negative for every x (the x = y cut), so z >= 0
        model.add_var(f"z_{j}", "C", 0.0, np.inf)
    obj = np.zeros(n + len(segments))
    for j, seg in enumerate(segments):
        obj[z0 + j] = seg.weight
    model.obj = obj
    for j, seg in enumerate(segments):
        lam = seg.point
        for y in pool:
            yf = y.astype(np.float64)
            # z_j >= sum (1+lam) c_i x_i - sum (1 - lam + 2 lam x_i) c_i y_i
            coeffs = {z0 + j: 1.0}
            for i in range(n):
                c = -((1.0 + lam) * nominal[i] - 2.0 * lam * nominal[i] * yf[i])
                if c != 0.0:
                    coeffs[i] = c
            model.add_row(coeffs, ">=", -(1.0 - lam) * float(nominal @ yf))
    _feasibility_rows(model, instance)
    model.meta.update(style=GENERAL, instance=instance, segments=list(segments),
                      pool=[np.asarray(y, dtype=np.int8) for y in pool],
                      num_x=n)
    return model


def _dual_sp_from_segments(graph: GraphInstance,
                           segments: Sequence[Segment]) -> MilpModel:
    if not isinstance(graph, GraphInstance) or graph.kind != SHORTEST_PATH:
        raise UsageError("dual formulation exists only for shortest-path instances")
    if not segments:
        raise UsageError("master model needs at least one segment")
    if any(not 0.0 <= seg.point <= 1.0 for seg in segments):
        raise DomainError("dual formulation needs segment sizes in [0, 1]")
    nominal = graph.nominal
    m = graph.num_arcs
    V = graph.num_nodes
    bound = _potential_bound(graph)
    model = MilpModel()
    for i in range(m):
        model.add_var(f"x_{i}", "B", 0.0, 1.0)
    u0 = model.num_vars
    for j in range(len(segments)):
        for v in range(V):
            if v == graph.s:
                model.add_var(f"u_{j}_{v}", "C", 0.0, 0.0)
            else:
                model.add_var(f"u_{j}_{v}", "C", -bound, bound)
    obj = np.zeros(model.num_vars)
    for j, seg in enumerate(segments):
        lam = seg.point
        for i in range(m):
            obj[i] += seg.weight * (1.0 + lam) * nominal[i]
        obj[u0 + j * V + graph.t] -= seg.weight
    model.obj = obj
    for j, seg in enumerate(segments):
        lam = seg.point
        for a in range(m):
            # u_head - u_tail <= (1 - lam) c_a + 2 lam c_a x_a
            coeffs = {u0 + j * V + int(graph.heads[a]): 1.0}
            tail_var = u0 + j * V + int(graph.tails[a])
            coeffs[tail_var] = coeffs.get(tail_var, 0.0) - 1.0
            if nominal[a] != 0.0:
                coeffs[a] = -2.0 * lam * nominal[a]
            coeffs = {k: v for k, v in coeffs.items() if v != 0.0}
            model.add_row(coeffs, "<=", (1.0 - lam) * nominal[a])
    _feasibility_rows(model, graph)
    model.meta.update(style=DUAL_SP, instance=graph, segments=list(segments),
                      num_x=m)
    return model


def _potential_bound(graph: GraphInstance) -> float:
    """Box |u| <= 1 + 2 sum(c) on the dual node potentials (see
    :func:`build_formulation_dual_sp`)."""
    return 1.0 + 2.0 * float(graph.nominal.sum())


def build_formulation_general(instance: Instance, lambda_set: Sequence[float],
                              pool: Sequence[np.ndarray],
                              w: WeightFunction) -> MilpModel:
    """Cut-pool master model (works for every problem class)."""
    if not list(lambda_set):
        raise UsageError("changepoint set must be non-empty")
    return _general_from_segments(instance, build_segments(lambda_set, w), pool)


def build_formulation_dual_sp(graph: GraphInstance, lambda_set: Sequence[float],
                              w: WeightFunction) -> MilpModel:
    """Compact master model using shortest-path LP duality (node potentials
    per segment); no cut pool is needed.

    Each potential is boxed to |u_{j,v}| <= 1 + 2 sum(c), with u_{j,s} = 0.
    The box never cuts off an optimum: every arc costs at most 2 c_a in the
    master (sizes lie in [0, 1]), so distances from s stay within 2 sum(c),
    and nodes that s cannot reach may sit at the upper bound.
    """
    if not list(lambda_set):
        raise UsageError("changepoint set must be non-empty")
    return _dual_sp_from_segments(graph, build_segments(lambda_set, w))


# ---------------------------------------------------------------------------
# backends


class SolverBackend:
    """Backend contract: solve a MilpModel to proven optimality."""

    name = "abstract"

    def solve(self, model: MilpModel) -> BackendResult:  # pragma: no cover
        raise NotImplementedError


class HighsBackend(SolverBackend):
    """MILP solves via scipy's bundled HiGHS; spanning-tree masters get
    cycle-elimination rows lazily.

    Presolve is off: the bundled HiGHS has been observed to return a wrong
    claimed optimum (bad dual bound) on dual-formulation masters with
    presolve enabled, and the algorithm needs true optima for valid lower
    bounds.  ``verify_master_objective`` guards every master solve
    regardless of backend.

    The Feasibility Jump primal heuristic is off as well.  HiGHS runs it
    before every MILP solve at a fixed cost (about 13 ms, several times the
    whole solve of a small master), and it only proposes incumbents: with a
    zero relative gap, branch and bound still proves the optimum.  Where a
    master has several optimal x, turning it off can change which one HiGHS
    reports.
    """

    name = "highs"

    def solve(self, model: MilpModel) -> BackendResult:
        return _solve_with_cycle_rows(model, self._solve_once)

    def _solve_once(self, model: MilpModel) -> BackendResult:
        a, lb, ub = model.constraint_matrix()
        integrality = np.array(
            [1 if v.kind == "B" else 0 for v in model.variables])
        bounds = Bounds(np.array([v.lb for v in model.variables]),
                        np.array([v.ub for v in model.variables]))
        options = {"mip_rel_gap": 0.0, "presolve": False,
                   "mip_heuristic_run_feasibility_jump": False}
        with warnings.catch_warnings():
            # scipy passes options it does not list on to HiGHS verbatim
            # and warns about them on every call
            warnings.filterwarnings("ignore", message="Unrecognized options",
                                    category=RuntimeWarning)
            res = milp(c=model.obj, constraints=LinearConstraint(a, lb, ub),
                       integrality=integrality, bounds=bounds, options=options)
        if res.status == 2:
            return BackendResult("infeasible", None, None, res.message)
        if not res.success:
            raise BackendError(f"MILP solve failed: {res.message}")
        values = np.asarray(res.x, dtype=np.float64)
        for j, v in enumerate(model.variables):
            if v.kind == "B":
                values[j] = round(values[j])
        return BackendResult("optimal", values, float(res.fun), res.message)


class EnumerationBackend(SolverBackend):
    """Exact master solves by exhausting the feasible set of the attached
    instance.  The closed-form objective of :func:`_master_objectives` is
    evaluated over all enumerated solutions, block by block; ties go to the
    first solution in enumeration order.  Only models built by
    ``build_formulation_general`` or ``build_formulation_dual_sp`` carry
    the instance this needs."""

    name = "enum"

    def __init__(self, limit: int = 10**6):
        self.limit = limit

    def solve(self, model: MilpModel) -> BackendResult:
        if model.meta.get("style") not in (GENERAL, DUAL_SP):
            raise UsageError("enumeration needs a master model built by "
                             "build_formulation_general or "
                             "build_formulation_dual_sp")
        instance = model.meta["instance"]
        num_x = model.meta["num_x"]
        sols = enumerate_solutions(instance, limit=self.limit)
        if not sols:
            return BackendResult("infeasible", None, None)
        rows = max(1, _BLOCK_ELEMENTS
                   // max(num_x, getattr(instance, "num_nodes", 0)))
        objs = np.empty(len(sols))
        for lo in range(0, len(sols), rows):
            X = np.array(sols[lo:lo + rows], dtype=np.float64)
            objs[lo:lo + rows] = _master_objectives(model, X)
        best = int(np.argmin(objs))  # first minimum, as enumerated
        values = np.zeros(model.num_vars)
        values[:num_x] = sols[best]
        values[num_x:] = _continuous_part(model, sols[best])
        return BackendResult("optimal", values, float(objs[best]))


def _master_objectives(model: MilpModel, X: np.ndarray) -> np.ndarray:
    """Master objective at each row of the 0/1 matrix X, with the
    continuous part at its optimum in closed form: per segment, the largest
    cut (general style) or (1 + lam) c x minus the shortest s-t distance
    under the worst-case costs of x (dual style)."""
    instance = model.meta["instance"]
    segments = model.meta["segments"]
    nominal = instance.nominal
    if model.meta["style"] == GENERAL:
        terms = _cut_maxima(model, X).T
    else:
        pc = np.array([float(nominal @ x) for x in X])
        dist = _batched_distances(instance, X, [seg.point for seg in segments])
        terms = [(1.0 + seg.point) * pc - d for seg, d in zip(segments, dist)]
    objs = np.zeros(X.shape[0])
    for seg, term in zip(segments, terms):
        objs += seg.weight * term
    return objs


def _cut_maxima(model: MilpModel, X: np.ndarray) -> np.ndarray:
    """(rows of X, segments): the least feasible z_j of the general master,
    max(0, largest cut of segment j), at each row of X."""
    nominal = model.meta["instance"].nominal
    Y = np.array(model.meta["pool"], dtype=np.float64)
    pc = X @ nominal
    cy = Y @ nominal
    pcy = X @ (Y * nominal).T  # (rows, cuts): cost mass shared with each cut
    z = np.empty((X.shape[0], len(model.meta["segments"])))
    for j, seg in enumerate(model.meta["segments"]):
        lam = seg.point
        cuts = ((1.0 + lam) * pc[:, None]
                - (1.0 - lam) * cy[None, :]
                - 2.0 * lam * pcy)
        z[:, j] = np.maximum(cuts.max(axis=1), 0.0)
    return z


def _continuous_part(model: MilpModel, x: np.ndarray) -> np.ndarray:
    """Optimal continuous variables at the binary part x: the cut maxima
    (general), or per segment the distances from s, with the box bound
    where s cannot reach a node (dual)."""
    xf = x.astype(np.float64)
    if model.meta["style"] == GENERAL:
        return _cut_maxima(model, xf[None, :])[0]
    graph = model.meta["instance"]
    bound = _potential_bound(graph)
    potentials = []
    for seg in model.meta["segments"]:
        lam = seg.point
        costs = graph.nominal * (1.0 - lam + 2.0 * lam * xf)
        dist = shortest_distances(graph, costs, graph.s)
        potentials.append(np.where(np.isfinite(dist), dist, bound))
    return np.concatenate(potentials)


def _batched_distances(graph: GraphInstance, X: np.ndarray,
                       lams: Sequence[float]) -> np.ndarray:
    """s-t distances, shape (len(lams), rows of X), under the worst-case
    costs nominal * (1 - lam + 2 lam x) of each row x of the 0/1 matrix X.

    One row goes to ``shortest_distances`` (Dijkstra).  More rows are
    relaxed together, Gauss-Seidel in BFS-level order: the arcs into nodes
    other than s that s reaches are sorted by (level of head, head, index),
    and each level takes one gather and one minimum per head, seeing the
    levels below as already updated in the same sweep.  Sweeps repeat until
    one changes nothing, which covers cycles, arcs within or back across
    levels, parallel arcs and s != 0.  On a graded graph, where every arc
    out of a reached node ends one level higher (any complete layered
    graph), each level's tails are final before it is relaxed, so one sweep
    is enough.  Nodes that s cannot reach stay at inf.

    With non-negative costs each distance ends as the least
    ``dist[tail] + cost`` over its in-arcs at final tail distances: the
    least left-to-right float sum over the paths from s, which Dijkstra
    also returns.  The costs are built in sweep order by the same float
    operations as for one row, so each column equals the one-row result
    bit for bit.
    """
    nominal = graph.nominal
    if X.shape[0] == 1:
        return np.array([[shortest_distances(
            graph, nominal * (1.0 - lam + 2.0 * lam * X[0]), graph.s)[graph.t]]
            for lam in lams])
    tails, heads = graph.tails, graph.heads
    hops = _hops(graph.num_nodes, graph.s, tails, heads)
    from_reached = np.isfinite(hops[tails])
    graded = bool(np.all(hops[heads[from_reached]]
                         == hops[tails[from_reached]] + 1.0))
    arcs = np.flatnonzero(np.isfinite(hops[heads]) & (heads != graph.s))
    arcs = arcs[np.lexsort((arcs, heads[arcs], hops[heads[arcs]]))]
    tails, heads, level = tails[arcs], heads[arcs], hops[heads[arcs]]
    bounds = np.append(np.flatnonzero(np.diff(level, prepend=-1.0)), arcs.size)
    levels = []  # (arc span, distinct heads, first arc of each head)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        starts = np.flatnonzero(np.diff(heads[lo:hi], prepend=-1))
        levels.append((slice(lo, hi), heads[lo + starts], starts))
    chosen = (X != 0).T[arcs]
    nominal = nominal[arcs, None]
    dist = np.empty((graph.num_nodes, X.shape[0]))
    out = np.empty((len(lams), X.shape[0]))
    for i, lam in enumerate(lams):
        costs = np.where(chosen, nominal * (1.0 - lam + 2.0 * lam * 1.0),
                         nominal * (1.0 - lam + 2.0 * lam * 0.0))
        dist.fill(np.inf)
        dist[graph.s] = 0.0
        changed = True
        while changed:
            changed = False
            for span, level_heads, starts in levels:
                relaxed = np.minimum.reduceat(
                    dist[tails[span]] + costs[span], starts, axis=0)
                current = dist[level_heads]
                changed = changed or bool(np.any(relaxed < current))
                dist[level_heads] = np.minimum(current, relaxed)
            changed = changed and not graded
        out[i] = dist[graph.t]
    return out


def _solve_with_cycle_rows(model: MilpModel, solve_once) -> BackendResult:
    """Solve, then while the optimum's support holds a cycle of a
    spanning-tree master, add that cycle's elimination row and re-solve."""
    work = model
    for _ in range(10000):
        res = solve_once(work)
        if res.status != "optimal" or not work.meta.get("lazy_cycles"):
            return res
        cycle = _find_cycle(work.meta["instance"],
                            res.assignment[: work.meta["num_x"]])
        if cycle is None:
            return res
        work = _with_extra_row(work, {int(e): 1.0 for e in cycle}, "<=",
                               float(len(cycle) - 1))
    raise BackendError("cycle elimination did not converge")


def _find_cycle(graph: GraphInstance, x_values: np.ndarray):
    """Edge-index cycle in the support of x, or None if it is a forest."""
    chosen = [int(a) for a in np.flatnonzero(np.round(x_values) > 0.5)]
    parent = list(range(graph.num_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    adj: dict[int, list[tuple[int, int]]] = {}
    for e in chosen:
        u, v = int(graph.tails[e]), int(graph.heads[e])
        ru, rv = find(u), find(v)
        if ru == rv:
            # walk u -> v through the accepted forest to recover the cycle
            path_edges = _forest_path(adj, u, v)
            return path_edges + [e]
        parent[ru] = rv
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    return None


def _forest_path(adj, start, goal):
    stack = [(start, -1, [])]
    seen = {start}
    while stack:
        node, _, edges = stack.pop()
        if node == goal:
            return edges
        for nxt, e in adj.get(node, []):
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, node, edges + [e]))
    raise BackendError("forest walk failed; inconsistent cycle detection")


def _with_extra_row(model: MilpModel, coeffs, sense, rhs) -> MilpModel:
    clone = MilpModel(variables=model.variables, obj=model.obj,
                      row_coeffs=list(model.row_coeffs),
                      row_senses=list(model.row_senses),
                      row_rhs=list(model.row_rhs),
                      meta=dict(model.meta))
    clone.add_row(coeffs, sense, rhs)
    return clone


# ---------------------------------------------------------------------------
# CPLEX-LP emission and the external-solver adapter


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_lp(model: MilpModel) -> str:
    """Render the model in CPLEX-LP text format.

    Sections and 17-significant-digit numbers are emitted deterministically
    so the output is stable for golden-file comparison.
    """
    lines = ["Minimize", " obj:" + _expr(model.obj, model)]
    lines.append("Subject To")
    for r, coeffs in enumerate(model.row_coeffs):
        sense = {"<=": "<=", ">=": ">=", "=": "="}[model.row_senses[r]]
        dense = np.zeros(model.num_vars)
        for c, v in coeffs.items():
            dense[c] = v
        lines.append(f" c{r}:{_expr(dense, model)} {sense} "
                     f"{_fmt(model.row_rhs[r])}")
    bounds_lines = []
    for v in model.variables:
        if v.kind == "B":
            continue
        if v.lb == 0.0 and v.ub == np.inf:
            continue  # LP default bound
        if v.lb == -np.inf and v.ub == np.inf:
            bounds_lines.append(f" {v.name} free")
        elif v.lb == v.ub:
            bounds_lines.append(f" {v.name} = {_fmt(v.lb)}")
        else:
            lo = "-inf" if v.lb == -np.inf else _fmt(v.lb)
            hi = "+inf" if v.ub == np.inf else _fmt(v.ub)
            bounds_lines.append(f" {lo} <= {v.name} <= {hi}")
    if bounds_lines:
        lines.append("Bounds")
        lines.extend(bounds_lines)
    binaries = [v.name for v in model.variables if v.kind == "B"]
    if binaries:
        lines.append("Binary")
        for k in range(0, len(binaries), 8):
            lines.append(" " + " ".join(binaries[k:k + 8]))
    lines.append("End")
    return "\n".join(lines) + "\n"


def _expr(dense: np.ndarray, model: MilpModel) -> str:
    parts = []
    for j, coef in enumerate(dense):
        if coef == 0.0:
            continue
        name = model.variables[j].name
        if not parts:
            parts.append(f" {_fmt(coef)} {name}")
        elif coef >= 0:
            parts.append(f" + {_fmt(coef)} {name}")
        else:
            parts.append(f" - {_fmt(-coef)} {name}")
    if not parts:
        return " 0 " + model.variables[0].name if model.variables else " 0"
    return "".join(parts)


def parse_solution_file(text: str) -> tuple[str, dict, Optional[float]]:
    """Parse the adapter's solution format: a ``status`` line, an optional
    ``objective`` line, then one ``name value`` pair per line."""
    status = None
    objective = None
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "status":
            status = parts[1]
        elif parts[0] == "objective":
            objective = float(parts[1])
        elif len(parts) == 2:
            try:
                values[parts[0]] = float(parts[1])
            except ValueError as exc:
                raise BackendError(
                    f"unparsable solution line {lineno}: {raw!r}") from exc
        else:
            raise BackendError(f"unparsable solution line {lineno}: {raw!r}")
    if status is None:
        raise BackendError("solution file missing a status line")
    return status, values, objective


class ExternalBackend(SolverBackend):
    """Emit the model as a CPLEX-LP file and invoke an external command.

    The command template contains ``{model}`` and ``{solution}``
    placeholders and defaults to the ``VSR_SOLVER_CMD`` environment
    variable.  The solution file format is the simple ``name value`` layout
    of :func:`parse_solution_file`.
    """

    name = "external"

    def __init__(self, command: Optional[str] = None):
        self.command = command

    def solve(self, model: MilpModel) -> BackendResult:
        return _solve_with_cycle_rows(
            model, lambda work: backend_emit_and_invoke(work, self.command))


def backend_emit_and_invoke(model: MilpModel,
                            command: Optional[str] = None) -> BackendResult:
    """One emit/invoke/parse round trip against the external solver."""
    command = command or os.environ.get("VSR_SOLVER_CMD")
    if not command:
        raise BackendError(
            "no external solver configured; set VSR_SOLVER_CMD")
    with tempfile.TemporaryDirectory(prefix="vsr_") as tmp:
        model_path = os.path.join(tmp, "model.lp")
        solution_path = os.path.join(tmp, "model.sol")
        with open(model_path, "w") as fh:
            fh.write(write_lp(model))
        argv = [arg.format(model=model_path, solution=solution_path)
                for arg in shlex.split(command)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BackendError(
                f"external solver exited with {proc.returncode}",
                output=proc.stdout + proc.stderr)
        try:
            with open(solution_path) as fh:
                status, values, objective = parse_solution_file(fh.read())
        except FileNotFoundError as exc:
            raise BackendError("external solver wrote no solution file",
                               output=proc.stdout + proc.stderr) from exc
    if status != "optimal":
        return BackendResult(status, None, None)
    assignment = np.zeros(model.num_vars)
    for j, v in enumerate(model.variables):
        assignment[j] = values.get(v.name, 0.0)
    if objective is None:
        objective = float(model.obj @ assignment)
    return BackendResult("optimal", assignment, objective)


BACKENDS = {
    "enum": EnumerationBackend,
    "highs": HighsBackend,
    "external": ExternalBackend,
}


def make_backend(name: str) -> SolverBackend:
    try:
        cls = BACKENDS[name]
    except KeyError:
        raise UsageError(f"unknown backend {name!r}; choices: {sorted(BACKENDS)}")
    return cls()


# ---------------------------------------------------------------------------
# outer loop


def definitional_objective(model: MilpModel, x: np.ndarray) -> float:
    """Master objective at a fixed binary part with the continuous part
    resolved in closed form (cut maxima / per-segment distances)."""
    X = np.asarray(x, dtype=np.float64)[None, :]
    return float(_master_objectives(model, X)[0])


def verify_master_objective(model: MilpModel, result: BackendResult,
                            tol: float = 1e-5) -> None:
    """Cross-check a claimed master optimum against the definitional
    objective of the returned binary part.

    At a true optimum the continuous variables attain their closed-form
    values, so a mismatch means the solver's answer is inconsistent (seen
    with buggy presolve); failing fast here protects the bound guarantees.
    """
    x_raw = np.round(result.assignment[: model.meta["num_x"]]).astype(np.int8)
    expect = definitional_objective(model, x_raw)
    if abs(result.objective - expect) > tol * (1.0 + abs(expect)):
        raise BackendError(
            f"backend reported objective {result.objective} but the "
            f"returned solution evaluates to {expect}; the master bound "
            "would be invalid (if using an external solver, disable its "
            "presolve or tighten its tolerances)")


def _extract_x(model: MilpModel, result: BackendResult) -> np.ndarray:
    instance = model.meta["instance"]
    x = np.round(result.assignment[: model.meta["num_x"]]).astype(np.int8)
    if isinstance(instance, GraphInstance) and instance.kind == SHORTEST_PATH:
        return _clean_path(instance, x)
    return x


def _clean_path(graph: GraphInstance, x: np.ndarray) -> np.ndarray:
    """Strip zero-cost cycles that flow conservation cannot forbid.

    Returns the first simple s-t path inside the support in enumeration
    order (depth first, smallest arc index first); the support always
    contains one because the flow constraints route one unit from s to t.
    """
    if not np.any(x):
        raise InfeasibleError("master solution support is empty")
    path = next(_iter_paths(graph, x), None)
    if path is None:
        raise InfeasibleError("master solution support contains no s-t path")
    return path


def resolve_formulation(instance: Instance, formulation: str) -> str:
    if formulation in (None, "auto"):
        if isinstance(instance, GraphInstance) and instance.kind == SHORTEST_PATH:
            return DUAL_SP
        return GENERAL
    if formulation == DUAL_SP:
        if not (isinstance(instance, GraphInstance)
                and instance.kind == SHORTEST_PATH):
            raise UsageError("dual formulation requires a shortest-path instance")
        return DUAL_SP
    if formulation == GENERAL:
        return GENERAL
    raise UsageError(f"unknown formulation {formulation!r}")


def algorithm1(instance: Instance, w: WeightFunction,
               backend: Optional[SolverBackend] = None,
               epsilon: float = DEFAULT_EPSILON,
               formulation: str = "auto",
               max_iterations: int = 200,
               ) -> tuple[np.ndarray, float, MasterState]:
    """Row-generation solve of the compromise min-max-regret problem.

    Seeds the changepoint set with the weight-domain midpoint, then
    alternates master solves (lower bounds) with exact evaluation of the
    candidate (upper bounds), accumulating the candidate's changepoints and,
    for the general formulation, its regret solutions, until the bounds meet
    within ``epsilon`` (relative).  Returns the best incumbent.
    """
    if epsilon <= 0:
        raise UsageError("epsilon must be positive")
    backend = backend or HighsBackend()
    style = resolve_formulation(instance, formulation)
    dom = w.domain
    if dom.width == 0.0:
        # zero-length integral: every feasible solution has value zero
        x_hat, _ = solve_nominal(instance, instance.nominal)
        state = MasterState(lambda_set=[dom.lo])
        state.iterations.append(IterationRecord(0, 0.0, 0.0, 1, 0.0))
        return x_hat, 0.0, state
    state = MasterState(lambda_set=[0.5 * (dom.lo + dom.hi)])
    pool_keys = set()
    if style == GENERAL:
        y0, _ = solve_nominal(instance, instance.nominal)
        state.pool.append(y0)
        pool_keys.add(solution_key(y0))
    best_x = None
    best_ub = np.inf
    t0 = time.perf_counter()
    for k in range(max_iterations):
        if style == DUAL_SP:
            model = build_formulation_dual_sp(instance, state.lambda_set, w)
        else:
            model = build_formulation_general(instance, state.lambda_set,
                                              state.pool, w)
        result = backend.solve(model)
        if result.status != "optimal":
            raise BackendError(
                f"master solve failed with status {result.status}")
        verify_master_objective(model, result)
        lb = result.objective
        x = _extract_x(model, result)
        ev = compute_val(instance, x, w)
        ub = ev.val
        if ub < best_ub:
            best_ub = ub
            best_x = x
        state.iterations.append(IterationRecord(
            k=k, lb=lb, ub=ub, lambda_count=len(state.lambda_set),
            wall_time=time.perf_counter() - t0))
        if best_ub - lb <= epsilon * (1.0 + abs(best_ub)):
            return best_x, best_ub, state
        progress = False
        lam_sorted = sorted(state.lambda_set)
        for lam in ev.changepoints:
            pos = bisect.bisect_left(lam_sorted, lam)
            near = (
                (pos > 0 and lam - lam_sorted[pos - 1] <= EPS_LAMBDA)
                or (pos < len(lam_sorted) and lam_sorted[pos] - lam <= EPS_LAMBDA))
            if not near:
                lam_sorted.insert(pos, float(lam))
                progress = True
        state.lambda_set = lam_sorted
        if style == GENERAL:
            for y in ev.witnesses:
                key = solution_key(y)
                if key not in pool_keys:
                    pool_keys.add(key)
                    state.pool.append(y)
                    progress = True
        if not progress:
            raise StallError(
                "no new changepoint or cut while a bound gap remains",
                state=state)
    raise CapacityError(f"row generation exceeded {max_iterations} iterations")


def solve_minmax_regret_fixed(instance: Instance, lam: float,
                              backend: Optional[SolverBackend] = None,
                              formulation: str = "auto",
                              epsilon: float = DEFAULT_EPSILON,
                              ) -> tuple[np.ndarray, float]:
    """Classic fixed-size min-max-regret solve (the Experiment-2 baseline).

    The dual formulation solves one compact model at the given size; the
    general formulation runs a standard cut loop, generating regret
    solutions until the incumbent's true regret meets the master bound.
    """
    if not (0.0 <= lam <= 1.0):
        raise DomainError(f"size {lam} outside [0, 1]")
    backend = backend or HighsBackend()
    style = resolve_formulation(instance, formulation)
    point_segment = [Segment(lo=lam, hi=lam, weight=1.0, point=lam)]
    if style == DUAL_SP:
        model = _dual_sp_from_segments(instance, point_segment)
        result = backend.solve(model)
        if result.status != "optimal":
            raise BackendError(f"master solve failed: {result.status}")
        verify_master_objective(model, result)
        x = _extract_x(model, result)
        return x, regret_at(instance, x, lam)[0]
    pool = [solve_nominal(instance, instance.nominal)[0]]
    pool_keys = {solution_key(pool[0])}
    for _ in range(10000):
        model = _general_from_segments(instance, point_segment, pool)
        result = backend.solve(model)
        if result.status != "optimal":
            raise BackendError(f"master solve failed: {result.status}")
        verify_master_objective(model, result)
        x = _extract_x(model, result)
        lb = result.objective
        reg, witness = regret_at(instance, x, lam)
        if reg - lb <= epsilon * (1.0 + abs(reg)):
            return x, reg
        key = solution_key(witness)
        if key in pool_keys:
            raise StallError("regret cut loop stalled")
        pool_keys.add(key)
        pool.append(witness)
    raise CapacityError("regret cut loop exceeded iteration cap")
