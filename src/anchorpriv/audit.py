"""Empirical privacy compliance: probability-ratio statistics over sampled pairs.

Samples points uniformly from the mechanism's domain, computes the
log-probability gap per unit distance (the perturbation probability
ratio) for every unordered pair and output, and reports the share of
pairs whose worst output exceeds the target budget. Zero probabilities
are floored before taking logs so ratios stay finite.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_point, lp_distance, lp_distance_matrix
from .interpolation import PROB_FLOOR
from .mechanisms import log_probs

__all__ = ["AuditReport", "ppr", "violation_ratio", "ppr_histogram", "histogram_csv"]

ROW_BLOCK = 64


def _floored_logs(mech, X) -> np.ndarray:
    return np.maximum(log_probs(mech, X), math.log(PROB_FLOOR))


def ppr(x, x2, y_index: int, mech) -> float:
    """Log-probability gap of one output per unit of lp distance."""
    x = as_point(x)
    x2 = as_point(x2)
    if np.array_equal(x, x2):
        raise ValueError("probability ratio requires two distinct points")
    p = mech.metric_p if getattr(mech, "metric_p", None) else getattr(mech, "p", 2.0)
    d = lp_distance(x, x2, p)
    logs = _floored_logs(mech, np.stack([x, x2]))
    gap = abs(float(logs[0, y_index] - logs[1, y_index]))
    return gap / d


@dataclass
class AuditReport:
    """Violation statistics over sampled point pairs."""

    eps: float
    metric_p: float
    sampled_points: int
    pair_count: int
    violating_pairs: int
    pair_output_count: int
    violating_pair_outputs: int
    max_ppr: float
    seed: int
    worst_pairs: list = field(default_factory=list)

    @property
    def violation_ratio(self) -> float:
        """Percent of pairs whose worst output exceeds eps."""
        return 100.0 * self.violating_pairs / self.pair_count

    @property
    def pair_output_violation_ratio(self) -> float:
        return 100.0 * self.violating_pair_outputs / self.pair_output_count

    def to_json_dict(self) -> dict:
        return {
            "eps": self.eps,
            "metric_p": self.metric_p,
            "sampled_points": self.sampled_points,
            "pair_count": self.pair_count,
            "violating_pairs": self.violating_pairs,
            "violation_ratio_percent": self.violation_ratio,
            "pair_output_count": self.pair_output_count,
            "violating_pair_outputs": self.violating_pair_outputs,
            "pair_output_violation_ratio_percent": self.pair_output_violation_ratio,
            "max_ppr": self.max_ppr,
            "seed": self.seed,
            "worst_pairs": [
                {"ppr": v, "first": i, "second": j} for v, i, j in self.worst_pairs
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1, sort_keys=True)


def _sample_points(mech, n: int, rng) -> np.ndarray:
    lo, hi = mech.bounds
    return lo + rng.random((n, lo.size)) * (hi - lo)


def _ppr_rows(points, logs, p, eps, rows):
    """PPR of pair blocks (i, j > i) for i in rows, in one pass.

    Returns the per-pair max-over-outputs PPR of each block and the count
    of (pair, output) PPRs above eps.
    """
    dist = lp_distance_matrix(points[rows], points, p)
    blocks = []
    over = 0
    for r, i in enumerate(rows):
        ratios = np.abs(logs[i + 1 :] - logs[i]) / dist[r, i + 1 :, None]
        blocks.append(ratios.max(axis=1))
        over += int(np.count_nonzero(ratios > eps))
    return blocks, over


def _collect_ppr(mech, eps, p, sample_count, seed, threads):
    if sample_count < 2:
        raise ValueError(f"an audit needs at least 2 sample points, got {sample_count}")
    if not eps > 0:
        raise ValueError(f"audit budget eps must be positive, got {eps}")
    rng = np.random.default_rng(seed)
    points = _sample_points(mech, sample_count, rng)
    logs = _floored_logs(mech, points)
    n = points.shape[0]
    # Row blocks of ROW_BLOCK to 2 * ROW_BLOCK rows keep the distance buffer
    # linear in n.
    chunks = np.array_split(np.arange(n), max(1, n // ROW_BLOCK))
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda c: _ppr_rows(points, logs, p, eps, c), chunks))
    else:
        parts = [_ppr_rows(points, logs, p, eps, c) for c in chunks]
    blocks = [b for part, _ in parts for b in part]
    return points, blocks, sum(over for _, over in parts)


def violation_ratio(mech, eps: float, p: float | None = None,
                    sample_count: int = 1000, seed: int = 0,
                    top_k: int = 5, threads: int = 1) -> AuditReport:
    """Audit a mechanism against budget ``eps`` on uniform domain samples.

    A pair violates when any output's PPR exceeds eps; the per-
    (pair, output) rate is also reported. Deterministic for a fixed seed;
    pair blocks may be evaluated by up to ``threads`` workers since the
    accumulator merges associatively.
    """
    if p is None:
        p = getattr(mech, "metric_p", None) or 2.0
    points, blocks, per_out_viol = _collect_ppr(mech, eps, p, sample_count, seed, threads)
    n = points.shape[0]
    n_outputs = mech.n_outputs

    pair_count = n * (n - 1) // 2
    violating = 0
    max_ppr = 0.0
    worst: list[tuple[float, int, int]] = []
    for i, block in enumerate(blocks):
        if block.size == 0:
            continue
        violating += int(np.count_nonzero(block > eps))
        bmax = float(block.max())
        if bmax > max_ppr:
            max_ppr = bmax
        order = np.argsort(block)[::-1][:top_k]
        worst.extend((float(block[o]), i, i + 1 + int(o)) for o in order)
    worst.sort(key=lambda t: (-t[0], t[1], t[2]))
    return AuditReport(
        eps=float(eps),
        metric_p=float(p),
        sampled_points=n,
        pair_count=pair_count,
        violating_pairs=violating,
        pair_output_count=pair_count * n_outputs,
        violating_pair_outputs=per_out_viol,
        max_ppr=max_ppr,
        seed=int(seed),
        worst_pairs=worst[:top_k],
    )


def ppr_histogram(mech, eps: float, p: float | None = None,
                  sample_count: int = 300, bins: int = 40,
                  seed: int = 0, threads: int = 1):
    """Histogram of per-pair worst-output PPR values.

    Returns (bin_edges, counts); bins span [0, max(eps * 2, observed max)]
    so the budget threshold sits inside the plotted range.
    """
    if p is None:
        p = getattr(mech, "metric_p", None) or 2.0
    _, blocks, _ = _collect_ppr(mech, eps, p, sample_count, seed, threads)
    values = np.concatenate([b for b in blocks if b.size] or [np.empty(0)])
    upper = max(2.0 * eps, float(values.max()) if values.size else 0.0) or 1.0
    counts, edges = np.histogram(values, bins=bins, range=(0.0, upper))
    return edges, counts


def histogram_csv(edges, counts) -> str:
    lines = ["bin_lo,bin_hi,count"]
    for b in range(len(counts)):
        lines.append(
            f"{format(edges[b], '.17g')},{format(edges[b + 1], '.17g')},{int(counts[b])}"
        )
    return "\n".join(lines) + "\n"
