"""Empirical privacy compliance: probability-ratio statistics over sampled pairs.

Samples points uniformly from the mechanism's domain, computes the
log-probability gap per unit distance (the perturbation probability
ratio) for every unordered pair and output, and reports the share of
pairs whose worst output exceeds the target budget. Zero probabilities
are floored before taking logs so ratios stay finite.

Pairs are evaluated a row block at a time, on the calling thread: each
output is one array pass over the block's rows against every later
point, and each block is reduced before the next, so memory stays linear
in the sample count. A worker pool over the blocks gained no time on a
2-core machine and cost memory, so there is none.

The sampled points and each block's pair distances depend only on the
domain bounds, the sample count, the seed and p, not on the mechanism.
A :class:`PairSample` holds them; one made with ``keep=True`` builds its
blocks once and serves every audit at those settings, which is how
``compare`` audits all of its cells of one replicate. It keeps them only
up to KEEP_MAX_PAIRS pairs, so its memory stays bounded at any sample
count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import lp_distance_matrix
from .interpolation import PROB_FLOOR

__all__ = ["AuditReport", "PairSample", "violation_ratio", "ppr_histogram"]

ROW_BLOCK = 64
# Points whose pairs ppr_histogram bins by default, and at most in the
# audit command: it keeps one float per pair. One seed draws the same
# prefix at any sample count, so these are the audit's first points.
HISTOGRAM_SAMPLES = 300
# Most pairs whose distances a kept PairSample holds: 32 MB of float64,
# 2,896 points. A larger sample builds each block as it is read.
KEEP_MAX_PAIRS = 2**22


def _floored_logs(mech, X) -> np.ndarray:
    return np.maximum(mech.log_probs(X), math.log(PROB_FLOOR))


def _metric_order(mech, p: float | None = None) -> float:
    """Metric order of an audit: ``p`` if given, else the mechanism's ``metric_p``.

    Raises ValueError when neither states one.
    """
    if p is None:
        p = getattr(mech, "metric_p", None)
    if p is None:
        raise ValueError(
            f"{type(mech).__name__} states no metric order: its metric_p is None, "
            "so the audit needs an explicit p"
        )
    return p


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


def _sample_points(bounds, n: int, rng) -> np.ndarray:
    lo, hi = bounds
    return lo + rng.random((n, lo.size)) * (hi - lo)


class PairSample:
    """The points an audit draws and, per row block, their pair distances.

    ``bounds`` is the (lower, upper) pair of the audited domain; the
    points are ``sample_count`` uniform draws from ``seed``. Blocks hold
    ROW_BLOCK to 2 * ROW_BLOCK rows. With ``keep``, and at most
    KEEP_MAX_PAIRS pairs, the blocks are built on the first read and kept,
    n(n-1)/2 distances and the blocks' diagonal parts, so later audits at
    the same settings reuse them; otherwise each block is built as it is
    read and dropped after, and memory stays linear in ``sample_count``.
    """

    def __init__(self, bounds, p: float, sample_count: int, seed: int, keep: bool = False):
        if sample_count < 2:
            raise ValueError(f"an audit needs at least 2 sample points, got {sample_count}")
        self.bounds = tuple(np.array(b, dtype=float) for b in bounds)
        self.p = p
        self.sample_count = int(sample_count)
        self.seed = seed
        self.points = _sample_points(self.bounds, self.sample_count,
                                     np.random.default_rng(seed))
        pairs = self.sample_count * (self.sample_count - 1) // 2
        self._keep = keep and pairs <= KEEP_MAX_PAIRS
        self._kept = None

    def check(self, mech, p: float, sample_count: int, seed: int):
        """ValueError unless an audit of ``mech`` at these settings draws this sample."""
        lo, hi = mech.bounds
        differ = [what for what, same in (
            ("bounds", np.array_equal(lo, self.bounds[0]) and np.array_equal(hi, self.bounds[1])),
            ("sample count", sample_count == self.sample_count),
            ("seed", seed == self.seed),
            ("metric order p", p == self.p),
        ) if not same]
        if differ:
            raise ValueError(f"the pair sample was drawn for another {', '.join(differ)} "
                             "than this audit's")

    def blocks(self):
        """Iterator over ``(start, dist, lower)`` for every row block, in row order.

        ``dist`` (rows, n - start - 1) holds the lp distance between point
        i = start + a and point j = start + 1 + c at entry (a, c);
        ``lower`` is the mask of its first columns where j <= i.
        """
        if not self._keep:
            return self._build()
        if self._kept is None:
            self._kept = list(self._build())
            for _, dist, lower in self._kept:
                dist.setflags(write=False)
                lower.setflags(write=False)
        return iter(self._kept)

    def _build(self):
        points, n = self.points, self.sample_count
        for rows in np.array_split(np.arange(n), max(1, n // ROW_BLOCK)):
            start, stop = int(rows[0]), int(rows[-1]) + 1
            dist = lp_distance_matrix(points[start:stop], points[start + 1:], self.p)
            size = stop - start
            yield start, dist, np.tri(size, min(size, dist.shape[1]), k=-1, dtype=bool)


def _block_ppr(logs, start, dist, lower):
    """Per-pair worst-output PPR of one row block of :meth:`PairSample.blocks`.

    ``logs`` holds one output per row, shape (K, n). Returns an array
    shaped like ``dist``, -inf where ``lower`` marks j <= i.
    """
    later = slice(start + 1, None)
    rows = slice(start, start + dist.shape[0])
    gap = np.zeros_like(dist)
    buf = np.empty_like(dist)
    for lk in logs:
        np.subtract(lk[later], lk[rows, None], out=buf)
        np.abs(buf, out=buf)
        np.maximum(gap, buf, out=gap)
    # One division per pair: dividing by d > 0 is monotone, so
    # max_k(|gap_k|) / d is bitwise max_k(|gap_k| / d).
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(gap, dist, out=gap)
    gap[:, :lower.shape[1]][lower] = -np.inf
    return gap


def _blocks(mech, eps, p, sample_count, seed, sample=None):
    """Yield ``(ppr, dist, logs, start)`` for every row block, in row order.

    The blocks are ``sample``'s, which must be the one these settings
    draw; None draws a fresh sample that builds each block as it is read.
    """
    if not eps > 0:
        raise ValueError(f"audit budget eps must be positive, got {eps}")
    if not math.isfinite(eps):
        raise ValueError(f"audit budget eps must be finite, got {eps}")
    if sample is None:
        sample = PairSample(mech.bounds, p, sample_count, seed)
    else:
        sample.check(mech, p, sample_count, seed)
    logs = np.ascontiguousarray(_floored_logs(mech, sample.points).T)
    for start, dist, lower in sample.blocks():
        yield _block_ppr(logs, start, dist, lower), dist, logs, start


def _top_indices(flat, valid, top_k):
    """Flat indices of the ``top_k`` largest entries, in (-value, index) order.

    Only ``valid`` entries of ``flat`` are finite, the rest are -inf. Ties
    at the cut keep the lowest indices.
    """
    if top_k >= valid:
        idx = np.flatnonzero(flat > -np.inf)
    else:
        cut = flat.size - top_k
        kth = np.partition(flat, cut)[cut]
        idx = np.flatnonzero(flat > kth)
        ties = np.flatnonzero(flat == kth)[: top_k - idx.size]
        idx = np.sort(np.concatenate([idx, ties]))
    return idx[np.argsort(-flat[idx], kind="stable")]


def violation_ratio(mech, eps: float, p: float | None = None,
                    sample_count: int = 1000, seed: int = 0,
                    top_k: int = 5, sample: PairSample | None = None) -> AuditReport:
    """Audit a mechanism against budget ``eps`` on uniform domain samples.

    A pair violates when any output's PPR exceeds eps; the per-
    (pair, output) rate is also reported. ``worst_pairs`` lists the
    ``top_k`` largest PPRs in (-ppr, i, j) order. Deterministic for a
    fixed seed: row blocks are reduced one after another into running
    counts, a max and a top_k list. ``p`` None audits under the
    mechanism's own metric order. ``sample``, if given, supplies the
    points and pair distances and must match ``mech``'s bounds, ``p``,
    ``sample_count`` and ``seed`` (ValueError otherwise).
    """
    p = _metric_order(mech, p)
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    violating = over = 0
    max_ppr = 0.0
    worst = []
    for ppr, dist, logs, start in _blocks(mech, eps, p, sample_count, seed, sample):
        # Only a pair whose worst output exceeds eps has outputs that do.
        a, c = np.nonzero(ppr > eps)
        violating += a.size
        over += int(np.count_nonzero(
            np.abs(logs[:, start + 1 + c] - logs[:, start + a]) / dist[a, c] > eps))
        rows, cols = ppr.shape
        flat = ppr.ravel()
        max_ppr = max(max_ppr, float(flat.max(initial=0.0)))
        if top_k:
            valid = rows * cols - rows * (rows - 1) // 2
            worst += [(float(flat[o]), start + o // cols, start + 1 + o % cols)
                      for o in _top_indices(flat, valid, top_k).tolist()]
            worst = sorted(worst, key=lambda t: (-t[0], t[1], t[2]))[:top_k]
        # Release this block before the next one is built.
        del ppr, dist, flat, a, c
    n = int(sample_count)
    pair_count = n * (n - 1) // 2
    return AuditReport(
        eps=float(eps),
        metric_p=float(p),
        sampled_points=n,
        pair_count=pair_count,
        violating_pairs=violating,
        pair_output_count=pair_count * mech.n_outputs,
        violating_pair_outputs=over,
        max_ppr=max_ppr,
        seed=int(seed),
        worst_pairs=worst,
    )


def ppr_histogram(mech, eps: float, p: float | None = None,
                  sample_count: int = HISTOGRAM_SAMPLES, bins: int = 40, seed: int = 0):
    """Histogram of per-pair worst-output PPR values.

    Returns (bin_edges, counts); bins span [0, max(eps * 2, observed max)]
    so the budget threshold sits inside the plotted range. ``p`` None
    uses the mechanism's own metric order.
    """
    p = _metric_order(mech, p)
    values = np.concatenate([ppr[ppr > -np.inf]
                             for ppr, _, _, _ in _blocks(mech, eps, p, sample_count, seed)])
    upper = max(2.0 * eps, float(values.max()) if values.size else 0.0) or 1.0
    counts, edges = np.histogram(values, bins=bins, range=(0.0, upper))
    return edges, counts
