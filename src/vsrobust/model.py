"""Core domain types: cost vectors, uncertainty sizes, weight functions,
affine regret pieces and their upper envelopes.

All types are immutable after construction and all operations are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .exceptions import DomainError, UsageError

# Breakpoints closer than this are considered identical.  Cost data in the
# experiments are integers <= 100, so conditioning stays mild.
EPS_LAMBDA = 1e-9


def continuity_tol(value: float) -> float:
    """Absolute tolerance used when checking continuity at a breakpoint."""
    return 1e-6 * (1.0 + abs(value))


def as_costs(values) -> np.ndarray:
    """Validate and return a nominal cost vector (non-negative float64)."""
    c = np.asarray(values, dtype=np.float64)
    if c.ndim != 1:
        raise UsageError("cost vector must be one-dimensional")
    if not np.all(np.isfinite(c)):
        raise DomainError("cost vector contains non-finite entries")
    if np.any(c < 0):
        raise DomainError("cost vector contains negative entries")
    return c


def as_solution(incidence) -> np.ndarray:
    """Validate and return a 0/1 incidence vector (int8)."""
    x = np.asarray(incidence)
    if x.ndim != 1:
        raise UsageError("incidence vector must be one-dimensional")
    x = x.astype(np.int8)
    if not np.all((x == 0) | (x == 1)):
        raise DomainError("incidence vector must be 0/1")
    return x


def solution_key(x: np.ndarray) -> bytes:
    """Hashable identity of an incidence vector, used for dedup and ties."""
    return np.asarray(x, dtype=np.int8).tobytes()


@dataclass(frozen=True)
class LambdaInterval:
    """Range of uncertainty-set sizes under consideration."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (0.0 <= self.lo <= self.hi):
            raise DomainError(f"invalid size range [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


class WeightFunction:
    """Piecewise-linear weight density on a size interval.

    Defined by breakpoints ``(lam_k, w_k)`` with strictly increasing
    ``lam_k``; values between breakpoints are linear interpolations.  The
    first/last breakpoints pin the domain.  Weights are non-negative and the
    total mass is positive (a single-point domain of zero width is permitted
    as a degenerate case and carries zero mass).
    """

    def __init__(self, breakpoints: Sequence[tuple[float, float]]):
        pts = sorted((float(l), float(w)) for l, w in breakpoints)
        lams = np.array([l for l, _ in pts], dtype=np.float64)
        vals = np.array([w for _, w in pts], dtype=np.float64)
        if lams.size == 0:
            raise UsageError("weight function needs at least one breakpoint")
        if lams.size == 1:
            # degenerate zero-width domain; integral is identically zero
            if vals[0] < 0:
                raise DomainError("weights must be non-negative")
        else:
            if np.any(np.diff(lams) <= 0):
                raise UsageError("weight breakpoints must strictly increase")
            if np.any(vals < 0):
                raise DomainError("weights must be non-negative")
            if np.all(vals == 0):
                raise DomainError("weight function must not be identically zero")
        self.lams = lams
        self.vals = vals

    @classmethod
    def constant(cls, lo: float = 0.0, hi: float = 1.0, value: float = 1.0):
        if lo == hi:
            return cls([(lo, value)])
        return cls([(lo, value), (hi, value)])

    @property
    def domain(self) -> LambdaInterval:
        return LambdaInterval(float(self.lams[0]), float(self.lams[-1]))

    def __call__(self, lam):
        return np.interp(lam, self.lams, self.vals)

    def moments(self, a: float, b: float) -> tuple[float, float]:
        return weight_moments(self, a, b)

    def total_mass(self) -> float:
        return self.moments(float(self.lams[0]), float(self.lams[-1]))[0]

    def __repr__(self):
        pts = ", ".join(f"({l:g}, {w:g})" for l, w in zip(self.lams, self.vals))
        return f"WeightFunction([{pts}])"


def weight_moments(w: WeightFunction, a: float, b: float) -> tuple[float, float]:
    """Exact integrals (integral of w, integral of lam*w) over [a, b].

    Computed segment by segment from the antiderivatives of the linear
    interpolant, so the result is exact up to floating rounding.
    """
    if a > b:
        raise DomainError(f"empty integration range [{a}, {b}]")
    lo, hi = float(w.lams[0]), float(w.lams[-1])
    if a < lo - EPS_LAMBDA or b > hi + EPS_LAMBDA:
        raise DomainError(f"[{a}, {b}] outside weight domain [{lo}, {hi}]")
    if a == b or w.lams.size == 1:
        return 0.0, 0.0
    m0 = 0.0
    m1 = 0.0
    for k in range(w.lams.size - 1):
        s, t = w.lams[k], w.lams[k + 1]
        left, right = max(a, s), min(b, t)
        if right <= left:
            continue
        # w(lam) = alpha + beta*lam on [s, t]
        beta = (w.vals[k + 1] - w.vals[k]) / (t - s)
        alpha = w.vals[k] - beta * s
        m0 += alpha * (right - left) + beta * (right**2 - left**2) / 2.0
        m1 += alpha * (right**2 - left**2) / 2.0 + beta * (right**3 - left**3) / 3.0
    return m0, m1


def effective_cost(x: np.ndarray, lam: float, nominal: np.ndarray) -> np.ndarray:
    """Worst-case interval scenario for solution x at size lam.

    Coordinates used by x are inflated to ``(1+lam)*c``, unused ones deflated
    to ``(1-lam)*c``; this is the cost vector under which the inner regret
    minimization is solved.
    """
    if not (0.0 - EPS_LAMBDA <= lam <= 1.0 + EPS_LAMBDA):
        raise DomainError(f"size {lam} outside [0, 1] for interval uncertainty")
    x = np.asarray(x)
    if x.shape != nominal.shape:
        raise UsageError("solution and cost vector lengths differ")
    return nominal * (1.0 - lam + 2.0 * lam * x)


@dataclass(frozen=True)
class AffinePiece:
    """One affine regret function ``slope*lam + intercept`` with the
    solution that defines it."""

    slope: float
    intercept: float
    witness: np.ndarray

    def value(self, lam):
        return self.slope * np.asarray(lam, dtype=np.float64) + self.intercept


@dataclass(frozen=True)
class RegretProfile:
    """Piecewise description of ``lam -> reg(x, lam)`` as the upper envelope
    of witness-defined affine functions.

    ``breaks`` has one more entry than ``pieces`` and partitions the size
    range; piece k is active on ``[breaks[k], breaks[k+1]]``.
    """

    breaks: np.ndarray
    pieces: tuple[AffinePiece, ...]

    def __post_init__(self):
        breaks = np.asarray(self.breaks, dtype=np.float64)
        object.__setattr__(self, "breaks", breaks)
        if breaks.size != len(self.pieces) + 1:
            raise UsageError("profile needs exactly len(pieces)+1 breakpoints")
        if np.any(np.diff(breaks) < 0):
            raise UsageError("profile breakpoints must be non-decreasing")
        if len(self.pieces) > 1 and np.any(np.diff(breaks) <= 0):
            raise UsageError("interior profile pieces must have positive width")

    @property
    def interval(self) -> LambdaInterval:
        return LambdaInterval(float(self.breaks[0]), float(self.breaks[-1]))

    @property
    def interior_breakpoints(self) -> np.ndarray:
        return self.breaks[1:-1].copy()

    def value(self, lam):
        """Evaluate the profile (clamped to its domain endpoints)."""
        lam = np.asarray(lam, dtype=np.float64)
        idx = np.clip(np.searchsorted(self.breaks, lam, side="right") - 1,
                      0, len(self.pieces) - 1)
        slopes = np.array([p.slope for p in self.pieces])
        intercepts = np.array([p.intercept for p in self.pieces])
        return slopes[idx] * lam + intercepts[idx]

    def validate(self):
        """Check continuity and convexity; raises DomainError on violation."""
        for k in range(len(self.pieces) - 1):
            b = self.breaks[k + 1]
            left = self.pieces[k].value(b)
            right = self.pieces[k + 1].value(b)
            if abs(left - right) > continuity_tol(max(abs(left), abs(right))):
                raise DomainError(f"profile discontinuous at {b}: {left} vs {right}")
            if self.pieces[k + 1].slope < self.pieces[k].slope - EPS_LAMBDA:
                raise DomainError("profile slopes must be non-decreasing")


def upper_envelope(pieces: Sequence[AffinePiece],
                   interval: LambdaInterval) -> RegretProfile:
    """Pointwise maximum of affine pieces over an interval.

    Standard convex-hull sweep: sort by slope, drop dominated lines, then
    clip the remaining hull to the interval.  Ties between equal slopes keep
    the larger intercept; among fully equal lines the lexicographically
    smallest witness wins, so the result is deterministic.
    """
    if not pieces:
        raise UsageError("upper_envelope needs at least one piece")
    lo, hi = interval.lo, interval.hi
    if interval.width == 0.0:
        best = max(pieces, key=lambda p: p.value(lo))
        return RegretProfile(np.array([lo, hi]), (best,))

    ordered = sorted(pieces, key=lambda p: (p.slope, -p.intercept,
                                            solution_key(p.witness)))
    # one representative per slope class (the largest intercept survives)
    dedup: list[AffinePiece] = []
    for p in ordered:
        if dedup and abs(p.slope - dedup[-1].slope) <= EPS_LAMBDA:
            continue
        dedup.append(p)

    # hull sweep over lines in ascending slope order
    hull: list[AffinePiece] = []
    cross: list[float] = []  # cross[k] = start of hull[k+1]'s dominance
    for p in dedup:
        while hull:
            x = _isect(hull[-1], p)
            if x is None or (cross and x <= cross[-1]):
                hull.pop()
                if cross:
                    cross.pop()
            else:
                break
        if hull:
            cross.append(_isect(hull[-1], p))
        hull.append(p)

    # clip dominance intervals to [lo, hi]
    starts = [-np.inf] + cross
    ends = cross + [np.inf]
    kept: list[AffinePiece] = []
    cuts: list[float] = [lo]
    for p, a, b in zip(hull, starts, ends):
        a, b = max(a, lo), min(b, hi)
        if b - a <= EPS_LAMBDA:
            continue
        kept.append(p)
        cuts.append(b)
    if not kept:  # all dominance windows collapsed; best line at the midpoint
        mid = 0.5 * (lo + hi)
        kept = [max(dedup, key=lambda p: p.value(mid))]
        cuts = [lo, hi]
    cuts[-1] = hi
    return RegretProfile(np.array(cuts), tuple(kept))


def _isect(p: AffinePiece, q: AffinePiece) -> Optional[float]:
    """Crossing point of two lines; None when (near-)parallel."""
    ds = q.slope - p.slope
    if abs(ds) <= EPS_LAMBDA:
        return None
    return (p.intercept - q.intercept) / ds
