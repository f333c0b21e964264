"""Regret evaluation engine.

For a fixed solution x under interval uncertainty of size lam, the worst
case regret is attained at the scenario that inflates the coordinates of x
and deflates all others, so each feasible competitor y contributes an affine
function of lam and ``reg(x, .)`` is their upper envelope: a convex,
piecewise-linear, non-negative function.  ``compute_val`` discovers the
defining competitors exactly by alternating nominal solves at candidate
sizes with pairwise intersection of the collected affine pieces, then
integrates the envelope against the weight density in closed form.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .exceptions import CapacityError, DomainError, InfeasibleError
from .model import (EPS_LAMBDA, AffinePiece, LambdaInterval, RegretProfile,
                    WeightFunction, _isect, as_solution, effective_cost,
                    solution_key, upper_envelope, weight_moments)
from .problems import (GraphInstance, Instance, SHORTEST_PATH, is_feasible,
                       shortest_distances, solve_nominal)

DEFAULT_CHANGEPOINT_CAP = 10**6


@dataclass(frozen=True)
class EvaluationResult:
    """Output of the exact evaluator: the weighted integral, the regret
    profile, its interior changepoints, and the defining solution pool."""

    val: float
    profile: RegretProfile
    changepoints: np.ndarray
    witnesses: list

    @property
    def piece_count(self) -> int:
        return len(self.profile.pieces)


def regret_piece(x: np.ndarray, y: np.ndarray, nominal: np.ndarray) -> AffinePiece:
    """Affine regret function of competitor y against owner x.

    Value at lam is ``c(x,lam)^T (x - y)``; the slope is the nominal cost of
    the symmetric difference and the intercept the nominal cost gap.
    """
    xf = x.astype(np.float64)
    yf = y.astype(np.float64)
    intercept = float(nominal @ (xf - yf))
    slope = float(nominal @ np.abs(xf - yf))
    return AffinePiece(slope=slope, intercept=intercept, witness=np.asarray(y, dtype=np.int8))


def regret_at(instance: Instance, x: np.ndarray, lam: float) -> tuple[float, np.ndarray]:
    """Worst-case regret of x at a single uncertainty size.

    Returns (value, witness) where the witness is the inner minimizer under
    the worst-case scenario for x.
    """
    x = as_solution(x)
    if not is_feasible(instance, x):
        raise InfeasibleError("regret_at called with an infeasible solution")
    costs = effective_cost(x, lam, instance.nominal)
    y, opt = solve_nominal(instance, costs)
    value = float(costs @ x) - opt
    if value < 0.0:
        if value < -1e-9 * (1.0 + abs(opt)):
            raise AssertionError(f"negative regret {value}; oracle inconsistency")
        value = 0.0
    return value, y


def compute_val(instance: Instance, x: np.ndarray, w: WeightFunction,
                max_changepoints: int = DEFAULT_CHANGEPOINT_CAP) -> EvaluationResult:
    """Exact weighted regret integral of a fixed solution.

    Seeds candidates with the domain endpoints, solves the nominal problem
    under the worst-case scenario at every new candidate, intersects all
    pairs of collected affine pieces to propose further candidates, and
    repeats until no intersection is new.  The surviving upper envelope is
    integrated analytically against the weight function.
    """
    x = as_solution(x)
    if not is_feasible(instance, x):
        raise InfeasibleError("compute_val called with an infeasible solution")
    dom = w.domain
    if dom.lo < -EPS_LAMBDA or dom.hi > 1.0 + EPS_LAMBDA:
        raise DomainError("interval-uncertainty sizes must lie within [0, 1]")
    nominal = instance.nominal

    candidates: list[float] = sorted({dom.lo, dom.hi})
    pending = list(candidates)
    pieces: dict[bytes, AffinePiece] = {}
    piece_list: list[AffinePiece] = []
    paired = 0  # pieces already intersected against each other

    while pending:
        for lam in pending:
            costs = effective_cost(x, lam, nominal)
            y, _ = solve_nominal(instance, costs)
            key = solution_key(y)
            if key not in pieces:
                p = regret_piece(x, y, nominal)
                pieces[key] = p
                piece_list.append(p)
        pending = []
        # intersect every new piece with every older one
        for i in range(paired, len(piece_list)):
            for j in range(i):
                lam = _isect(piece_list[i], piece_list[j])
                if lam is None or not (dom.lo < lam < dom.hi):
                    continue
                if _insert_new(candidates, lam):
                    pending.append(lam)
        paired = len(piece_list)
        if len(candidates) > max_changepoints:
            raise CapacityError(
                f"changepoint candidates exceed cap {max_changepoints}")

    profile = upper_envelope(piece_list, dom)
    profile.validate()
    val = integrate_profile(profile, w)
    witnesses = [p.witness for p in profile.pieces]
    return EvaluationResult(val=val, profile=profile,
                            changepoints=profile.interior_breakpoints,
                            witnesses=witnesses)


def _insert_new(sorted_vals: list[float], lam: float) -> bool:
    """Insert lam into the sorted list unless a near-duplicate exists."""
    k = bisect.bisect_left(sorted_vals, lam)
    if k > 0 and lam - sorted_vals[k - 1] <= EPS_LAMBDA:
        return False
    if k < len(sorted_vals) and sorted_vals[k] - lam <= EPS_LAMBDA:
        return False
    sorted_vals.insert(k, lam)
    return True


def integrate_profile(profile: RegretProfile, w: WeightFunction) -> float:
    """Integral of ``w(lam) * profile(lam)`` over the profile's range.

    Each piece is affine and w is piecewise linear, so the contribution of a
    piece on [a, b] is ``intercept*m0 + slope*m1`` with the exact weight
    moments on [a, b]; no quadrature is involved.
    """
    total = 0.0
    for k, piece in enumerate(profile.pieces):
        a, b = float(profile.breaks[k]), float(profile.breaks[k + 1])
        if b <= a:
            continue
        m0, m1 = weight_moments(w, a, b)
        total += piece.intercept * m0 + piece.slope * m1
    return total


def _pair_crossovers(values: np.ndarray) -> np.ndarray:
    """Sizes where an inflated coordinate overtakes a deflated one.

    For every ordered pair with c_hi > c_lo the crossing
    ``(1+lam) c_lo = (1-lam) c_hi`` happens at
    ``lam = (c_hi - c_lo) / (c_hi + c_lo)``; only values strictly inside
    (0, 1) matter.  Pairs with both coordinates zero never cross.
    """
    c = np.asarray(values, dtype=np.float64)
    hi = c[:, None]
    lo = c[None, :]
    denom = hi + lo
    with np.errstate(divide="ignore", invalid="ignore"):
        lam = (hi - lo) / denom
    mask = (hi > lo) & (denom > 0)
    lam = lam[mask]
    lam = lam[(lam > EPS_LAMBDA) & (lam < 1.0 - EPS_LAMBDA)]
    if lam.size == 0:
        return lam
    lam = np.sort(lam)
    keep = np.ones(lam.size, dtype=bool)
    keep[1:] = np.diff(lam) > EPS_LAMBDA
    return lam[keep]


def selection_changepoint_candidates(nominal: np.ndarray) -> np.ndarray:
    """Candidate changepoint set for selection instances: the O(n^2) sizes
    where the sorted order of item costs can change (a superset of the
    profile breakpoints of every solution)."""
    return _pair_crossovers(nominal)


def mst_changepoint_candidates(nominal: np.ndarray) -> np.ndarray:
    """Candidate changepoint set for spanning-tree instances: the sorting of
    edge costs under the greedy tree oracle can only change where an
    inflated edge crosses a deflated one, giving O(|E|^2) candidates."""
    return _pair_crossovers(nominal)


def bicriteria_extreme_count(graph: GraphInstance, a: np.ndarray,
                             b: np.ndarray) -> int:
    """Number of extreme efficient s-t paths of the bicriteria problem
    (a^T y, b^T y), found by recursive dichotomic weighted-sum search.

    The endpoints are lexicographic optima (min a then b, and min b then a);
    between two known supported points the search solves the weighted sum
    whose weights make both endpoints equal, recursing whenever a strictly
    better path exists.  The count equals the number of vertices of the
    lower-left convex hull of the achievable objective pairs.
    """
    if not isinstance(graph, GraphInstance) or graph.kind != SHORTEST_PATH:
        raise DomainError("bicriteria search requires a shortest-path instance")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if np.any(a < 0) or np.any(b < 0):
        raise DomainError("bicriteria costs must be non-negative")

    p_left = _lexmin_point(graph, a, b)
    p_right = _lexmin_point(graph, b, a)[::-1]
    scale = 1.0 + abs(p_left[0]) + abs(p_left[1]) + abs(p_right[0]) + abs(p_right[1])
    tol = 1e-9 * scale
    if abs(p_left[0] - p_right[0]) <= tol and abs(p_left[1] - p_right[1]) <= tol:
        return 1

    points = [p_left, p_right]

    def rec(p1, p2):
        w1 = p1[1] - p2[1]
        w2 = p2[0] - p1[0]
        y, _ = solve_nominal(graph, w1 * a + w2 * b)
        p3 = (float(a @ y), float(b @ y))
        best = w1 * p3[0] + w2 * p3[1]
        at_ends = w1 * p1[0] + w2 * p1[1]
        if best < at_ends - tol:
            points.append(p3)
            rec(p1, p3)
            rec(p3, p2)

    rec(p_left, p_right)
    uniq = []
    for p in sorted(points):
        if uniq and abs(p[0] - uniq[-1][0]) <= tol and abs(p[1] - uniq[-1][1]) <= tol:
            continue
        uniq.append(p)
    return len(uniq)


def _lexmin_point(graph: GraphInstance, primary: np.ndarray,
                  secondary: np.ndarray) -> tuple[float, float]:
    """Objective pair of the path minimizing primary, then secondary.

    Second phase restricts to arcs tight for the primary distance (arcs on
    some primary-optimal path) and minimizes the secondary cost there.
    """
    _, v1 = solve_nominal(graph, primary)
    dist_s = shortest_distances(graph, primary, graph.s)
    dist_t = shortest_distances(graph, primary, graph.t, reverse=True)
    tol = 1e-9 * (1.0 + abs(v1))
    tight = np.flatnonzero(
        dist_s[graph.tails] + primary + dist_t[graph.heads] <= v1 + tol)
    sub = GraphInstance(num_nodes=graph.num_nodes,
                        tails=graph.tails[tight], heads=graph.heads[tight],
                        nominal=np.zeros(tight.size), kind=SHORTEST_PATH,
                        s=graph.s, t=graph.t)
    y_sub, _ = solve_nominal(sub, secondary[tight])
    y = np.zeros(graph.num_arcs, dtype=np.int8)
    y[tight[np.flatnonzero(y_sub)]] = 1
    return float(primary @ y), float(secondary @ y)
