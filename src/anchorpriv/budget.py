"""Per-dimension budgets: the arc they must stay under, and the sweep along it.

The normative composition certificate reserves half of the total budget
for the normalization step, so every feasible vector lives on or under
the arc sum_l eps_l^q = (eps/2)^q with q the Hoelder dual of p (max-rule
for p = 1). The sweep enumerates candidate vectors on that arc and keeps
the one whose evaluated loss is smallest.

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
        if math.isinf(expo):
            e2 = radius
        else:
            e2 = (radius**expo - e1**expo) ** (1.0 / expo)
        pairs.append((e1, e2))
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


def optimize_allocation(candidates, evaluator):
    """Evaluate every candidate budget and return the loss minimizer.

    Args:
        candidates: non-empty list of BudgetVector.
        evaluator: callable BudgetVector -> loss. A candidate whose
            evaluation raises SolverError is logged, recorded and skipped;
            any other exception propagates.

    Returns:
        (best vector, curve, failed) where curve lists (eps_1, eps_2, loss)
        for every evaluated candidate in eps_1 order and failed lists
        (vector, message) for every skipped one, in the same order. Losses
        within LOSS_TIE_TOL of the smallest, relative to it, tie, and ties
        break toward the smaller eps_1, so the result does not depend on
        candidate order or on rounding.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    curve = []
    results = []
    failed = []
    for bv in candidates:
        try:
            loss = float(evaluator(bv))
        except SolverError as exc:
            log.warning("allocation %s failed evaluation; skipped: %s", bv.eps, exc)
            failed.append((bv, str(exc)))
            continue
        results.append((loss, tuple(bv.eps), bv))
        curve.append((float(bv.eps[0]), float(bv.eps[-1]), loss))
    if not results:
        raise SolverError("every candidate allocation failed evaluation")
    curve.sort(key=lambda row: (row[0], row[1]))
    failed.sort(key=lambda row: tuple(row[0].eps))
    low = min(r[0] for r in results)
    best = min((r for r in results if r[0] <= low + LOSS_TIE_TOL * abs(low)),
               key=lambda r: r[1])[2]
    return best, curve, failed
