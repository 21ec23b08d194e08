"""Per-dimension budget allocation: equal split, arc sampling, sweep.

The normative composition certificate reserves half of the total budget
for the normalization step, so every feasible vector lives on or under
the arc sum_l eps_l^q = (eps/2)^q with q the Hoelder dual of p (max-rule
for p = 1). The sweep enumerates candidate vectors on that arc and keeps
the one whose evaluated loss is smallest.

Two alternate arc conventions are exposed for reproducing results that
were produced without the half-budget reserve: "full-dual" keeps the dual
exponent but spends the whole budget, and "full-primal" uses exponent p
on the whole budget. Vectors from these conventions do not pass the
normative certificate and are only accepted by the pipeline when
validation is explicitly bypassed.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .apo import BudgetVector, check_budget
from .errors import SolverError
from .geometry import dual_exponent

__all__ = [
    "CONVENTIONS",
    "equal_split",
    "feasible_allocations",
    "optimize_allocation",
    "allocation_curve_csv",
]

log = logging.getLogger(__name__)

CONVENTIONS = ("half-dual", "full-dual", "full-primal")


def _arc(eps_total: float, p: float, convention: str):
    """(radius, exponent) of the allocation arc; exponent inf = max rule."""
    if convention == "half-dual":
        return eps_total / 2.0, dual_exponent(p)
    if convention == "full-dual":
        return eps_total, dual_exponent(p)
    if convention == "full-primal":
        return eps_total, p
    raise ValueError(f"unknown budget convention {convention!r}")


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
        if convention == "half-dual" and not check_budget(bv).ok:
            raise AssertionError("arc sampling produced an infeasible vector")
        out.append(bv)
    return out


def optimize_allocation(candidates, evaluator):
    """Evaluate every candidate budget and return the loss minimizer.

    Args:
        candidates: non-empty list of BudgetVector.
        evaluator: callable BudgetVector -> loss. A candidate whose
            evaluation raises SolverError is logged and skipped; any other
            exception propagates.

    Returns:
        (best vector, curve) where curve lists (eps_1, eps_2, loss) for
        every evaluated candidate in eps_1 order. Ties break toward the
        smaller eps_1, so the result does not depend on candidate order.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    curve = []
    results = []
    for bv in candidates:
        try:
            loss = float(evaluator(bv))
        except SolverError:
            log.warning("allocation %s failed evaluation; skipped", bv.eps, exc_info=True)
            continue
        results.append((loss, tuple(bv.eps), bv))
        curve.append((float(bv.eps[0]), float(bv.eps[-1]), loss))
    if not results:
        raise SolverError("every candidate allocation failed evaluation")
    curve.sort(key=lambda row: (row[0], row[1]))
    best = min(results, key=lambda r: (r[0], r[1]))[2]
    return best, curve


def allocation_curve_csv(curve) -> str:
    """Render a sweep curve as CSV columns (eps1, eps2, loss)."""
    lines = ["eps1,eps2,loss"]
    for e1, e2, loss in curve:
        lines.append(
            f"{format(e1, '.17g')},{format(e2, '.17g')},{format(loss, '.17g')}"
        )
    return "\n".join(lines) + "\n"
