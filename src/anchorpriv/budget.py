"""Per-dimension budgets: the arc they must stay under, and the search along it.

The normative composition certificate reserves half of the total budget
for the normalization step, so every feasible vector lives on or under
the arc sum_l eps_l^q = (eps/2)^q with q the Hoelder dual of p (max-rule
for p = 1). :func:`feasible_allocations` samples a grid of candidate
vectors on that arc, and :func:`optimize_allocation` searches it for the
one whose evaluated loss is smallest: from the equal split it walks the
grid downhill, as the loss's derivative along the arc points, until the
loss rises, then refines the best grid point by secant steps on the
derivative. It solves only part of the grid, and under the max rule only
the equal split, which no other vector on that arc can beat.

Two alternate arc conventions are exposed for reproducing results that
were produced without the half-budget reserve: "full-dual" keeps the dual
exponent but spends the whole budget, and "full-primal" uses exponent p
on the whole budget. A vector is checked against its own convention's
arc; only "half-dual" vectors carry the end-to-end guarantee at the
nominal total budget.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .geometry import dual_exponent

__all__ = [
    "BudgetVector",
    "BudgetCheck",
    "CONVENTIONS",
    "check_budget",
    "equal_split",
    "feasible_allocations",
    "optimize_allocation",
]

log = logging.getLogger(__name__)

CONVENTIONS = ("half-dual", "full-dual", "full-primal")
# A vector passes its arc when its aggregate exceeds the bound by at most
# this fraction of the bound. Both grow as eps^q, so a fixed margin would
# be lost in rounding at large budgets and be loose at tiny ones.
BUDGET_TOL = 1e-12
# Sweep losses at most this fraction above the smallest tie with it.
# Candidates that store the same table (at small budgets, the constant
# table) evaluate to losses a few units in the last place apart, and
# which of them is lowest turns on rounding, not on the budgets.
LOSS_TIE_TOL = 1e-12
# The search refines its best grid point by at most REFINE_STEPS secant
# steps on the arc derivative, and skips a step that promises less than
# REFINE_TOL of the loss, relative: far above LOSS_TIE_TOL, so that no two
# points it keeps tie. A step's eps_1 is rounded to a multiple of
# REFINE_QUANTUM times the arc's radius: multipliers from different bases
# of one vertex agree only to rounding, and the rounded point does not
# depend on which basis the solve ended in.
REFINE_STEPS = 2
REFINE_TOL = 1e-9
REFINE_QUANTUM = 2.0**-20


@dataclass(frozen=True)
class BudgetVector:
    """Per-dimension privacy budgets at one total budget and metric order.

    Under the normative "half-dual" convention the vector must satisfy
    sum_l eps_l^q <= (eps/2)^q with q = p/(p-1); for p = 1 the rule is
    max_l eps_l <= eps/2. The factor 2 covers the slack introduced by
    normalizing the interpolated scores. :func:`check_budget` checks a
    vector against the arc of any convention.
    """

    eps: np.ndarray
    total_eps: float
    p: float

    def __post_init__(self):
        eps = np.asarray(self.eps, dtype=float).ravel()
        if eps.size < 1 or np.any(eps < 0) or not np.all(np.isfinite(eps)):
            raise ValueError("per-dimension budgets must be finite and >= 0")
        if not self.total_eps > 0:
            raise ValueError("total budget must be positive")
        if not self.p >= 1:
            raise ValueError("metric order must satisfy p >= 1")
        object.__setattr__(self, "eps", eps)

    @property
    def n_dims(self) -> int:
        return self.eps.size


@dataclass(frozen=True)
class BudgetCheck:
    ok: bool
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs


def _arc(eps_total: float, p: float, convention: str):
    """(radius, exponent) of the allocation arc; exponent inf = max rule."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown budget convention {convention!r}")
    radius = eps_total / 2.0 if convention == "half-dual" else eps_total
    return radius, p if convention == "full-primal" else dual_exponent(p)


def check_budget(budget: BudgetVector, convention: str = "half-dual") -> BudgetCheck:
    """Evaluate a budget vector against the arc of ``convention``.

    Returns the aggregate (sum of eps_l^q, or max for p=1) next to the
    bound it must stay under, both read off that arc. The vector passes
    when the aggregate is at most the bound times 1 + BUDGET_TOL.
    """
    radius, expo = _arc(budget.total_eps, budget.p, convention)
    lhs = float(budget.eps.max() if math.isinf(expo) else np.sum(budget.eps**expo))
    rhs = radius if math.isinf(expo) else radius**expo
    return BudgetCheck(ok=lhs <= rhs * (1 + BUDGET_TOL), lhs=lhs, rhs=rhs)


def equal_split(eps_total: float, p: float, n_dims: int,
                convention: str = "half-dual") -> BudgetVector:
    """Identical per-dimension budgets saturating the arc with equality.

    Under the normative convention each dimension receives
    (eps/2) / N^{(p-1)/p} for p > 1 and eps/2 outright for p = 1.
    """
    if not eps_total > 0:
        raise ValueError("total budget must be positive")
    if n_dims < 1:
        raise ValueError("dimension must be >= 1")
    radius, expo = _arc(eps_total, p, convention)
    per = radius if math.isinf(expo) else radius / n_dims ** (1.0 / expo)
    return BudgetVector(eps=np.full(n_dims, per), total_eps=eps_total, p=p)


def _arc_point(e1: float, radius: float, expo: float) -> float:
    """eps_2 of the 2-D arc point with first budget ``e1`` (radius itself under the max rule)."""
    return radius if math.isinf(expo) else (radius**expo - e1**expo) ** (1.0 / expo)


def feasible_allocations(eps_total: float, p: float, n_dims: int = 2,
                         resolution: int = 5,
                         convention: str = "half-dual") -> list[BudgetVector]:
    """Candidate 2-D budget vectors on the allocation arc.

    Samples eps_1 uniformly over the open interval (0, radius) at
    ``resolution`` points and solves eps_2 from the arc equation, then
    closes the set under mirroring and adds the equal split. Endpoints are
    excluded: a zero per-axis budget forces constant distributions along
    that axis, which is never optimal and hits the log floor.
    """
    if n_dims != 2:
        raise ValueError("allocation sweep is only supported for 2-D domains")
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    if not eps_total > 0:
        raise ValueError("total budget must be positive")
    radius, expo = _arc(eps_total, p, convention)
    pairs = []
    for i in range(1, resolution + 1):
        e1 = radius * i / (resolution + 1)
        pairs.append((e1, _arc_point(e1, radius, expo)))
    pairs.extend([(b, a) for a, b in list(pairs)])
    eq = equal_split(eps_total, p, 2, convention=convention)
    pairs.append((float(eq.eps[0]), float(eq.eps[1])))

    seen = set()
    out = []
    for e1, e2 in sorted(pairs):
        key = (round(e1, 12), round(e2, 12))
        if key in seen:
            continue
        seen.add(key)
        bv = BudgetVector(eps=np.array([e1, e2]), total_eps=eps_total, p=p)
        if not check_budget(bv, convention).ok:
            raise AssertionError("arc sampling produced an infeasible vector")
        out.append(bv)
    return out


def optimize_allocation(candidates, evaluator, convention: str = "half-dual"):
    """Search the arc through 2-D ``candidates`` for the loss minimizer.

    The candidates and the equal split (which replaces a candidate within
    1e-12 of it), sorted by eps_1, form a grid along the arc of
    ``convention``. The search solves the equal split first. Under the
    max rule (p = 1 under the dual conventions) it stops there: every
    candidate is under the equal split entrywise, and no loss rises as a
    budget grows. Otherwise the sign of the loss's derivative along the
    arc picks the downhill side (both sides when it is zero, within
    LOSS_TIE_TOL over the arc's length, or when the equal split failed),
    and the search walks that side one grid point at a time until the
    loss rises above the least on that side by more than LOSS_TIE_TOL,
    relative, or the grid ends. Equal losses are a plateau, walked across.
    A failed evaluation ends its side once any point of the side has
    solved, and then the other side is walked too. Last, when the
    derivative changes sign between the best grid point and its neighbour
    downhill, up to REFINE_STEPS secant steps on the derivative refine
    the best point inside that bracket, each skipped once it promises
    less than REFINE_TOL of the loss, relative. The derivative only picks
    directions and refines: every point is kept or dropped on its loss.

    Args:
        candidates: non-empty list of 2-D BudgetVector on one arc.
        evaluator: callable BudgetVector -> (loss, gradient), where
            gradient holds d loss / d eps_l per axis. A point whose
            evaluation raises SolverError is logged, recorded and skipped;
            any other exception propagates.
        convention: the arc the candidates lie on.

    Returns:
        (best vector, curve, failed) where curve lists (eps_1, eps_2, loss)
        for every point solved, in eps_1 order, and failed lists (vector,
        message) for every point that failed, in the same order. Losses
        within LOSS_TIE_TOL of the smallest, relative to it, tie, and ties
        break toward the smaller eps_1, so the result does not depend on
        candidate order or on rounding.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    eps_total, p = candidates[0].total_eps, candidates[0].p
    if any(bv.n_dims != 2 for bv in candidates):
        raise ValueError("allocation search is only supported for 2-D domains")
    radius, expo = _arc(eps_total, p, convention)
    equal = equal_split(eps_total, p, 2, convention=convention)
    grid = {}
    # The equal split itself, not a candidate that rounds to it.
    for bv in [equal, *candidates]:
        grid.setdefault(tuple(np.round(bv.eps, 12)), bv)
    grid = sorted(grid.values(), key=lambda bv: tuple(bv.eps))
    centre = next(i for i, bv in enumerate(grid) if bv is equal)
    solved, failed = {}, []  # eps tuple -> (loss, arc slope, vector)

    def evaluate(bv):
        try:
            loss, gradient = evaluator(bv)
        except SolverError as exc:
            log.warning("allocation %s failed evaluation; skipped: %s", bv.eps, exc)
            failed.append((bv, str(exc)))
            return None
        e1, e2 = bv.eps
        # d eps_2 / d eps_1 along sum eps_l^q = radius^q.
        tangent = 0.0 if math.isinf(expo) else -(e1 / e2) ** (expo - 1.0)
        solved[tuple(bv.eps)] = float(loss), float(gradient[0] + tangent * gradient[1]), bv
        return solved[tuple(bv.eps)]

    def flat(point):
        return abs(point[1]) * radius <= LOSS_TIE_TOL * abs(point[0])

    start = evaluate(grid[centre])

    def walk(side):
        """Walk from the centre toward ``side``; True if a failure ended it."""
        least = None if start is None else start[0]
        i = centre + side
        while 0 <= i < len(grid):
            point = evaluate(grid[i])
            if point is None:
                if least is not None:
                    return True
            elif least is not None and point[0] > least + LOSS_TIE_TOL * abs(least):
                return False
            else:
                least = point[0] if least is None else min(least, point[0])
            i += side
        return False

    if start is None or not math.isinf(expo):
        if start is None or flat(start):
            walk(-1)
            walk(1)
        else:
            downhill = 1 if start[1] < 0 else -1
            if walk(downhill):
                walk(-downhill)
    if not solved:
        raise SolverError("every candidate allocation failed evaluation")

    def best_point():
        low = min(loss for loss, _, _ in solved.values())
        return min((pt for pt in solved.values() if pt[0] <= low + LOSS_TIE_TOL * abs(low)),
                   key=lambda pt: tuple(pt[2].eps))

    best = best_point()
    if not math.isinf(expo) and not flat(best):
        i = next(k for k, bv in enumerate(grid) if bv is best[2]) + (1 if best[1] < 0 else -1)
        partner = solved.get(tuple(grid[i].eps)) if 0 <= i < len(grid) else None
        if partner is not None and partner[1] * best[1] < 0:
            lo, hi = sorted((best, partner), key=lambda pt: pt[2].eps[0])
            for _ in range(REFINE_STEPS):
                x_lo, x_hi = lo[2].eps[0], hi[2].eps[0]
                x = x_lo - lo[1] * (x_hi - x_lo) / (hi[1] - lo[1])
                x = radius * round(x / radius / REFINE_QUANTUM) * REFINE_QUANTUM
                # Loss at x if the derivative is linear over [lo, hi].
                model = min(lo[0] + 0.5 * lo[1] * (x - x_lo), hi[0] + 0.5 * hi[1] * (x - x_hi))
                least = best_point()[0]
                if not x_lo < x < x_hi or least - model <= REFINE_TOL * abs(least):
                    break
                point = evaluate(BudgetVector(np.array([x, _arc_point(x, radius, expo)]),
                                              eps_total, p))
                if point is None or flat(point):
                    break
                lo, hi = (point, hi) if point[1] < 0 else (lo, point)
    best = best_point()[2]
    curve = sorted((float(bv.eps[0]), float(bv.eps[1]), loss) for loss, _, bv in solved.values())
    failed.sort(key=lambda row: tuple(row[0].eps))
    return best, curve, failed
