"""Baseline perturbation mechanisms and Bayesian post-processing.

Distance-scored exponential weighting (with a configurable exponent
factor), its planar-Laplace and truncated variants, the nearest-
representative deployment of a coarse-grid LP table, and the
posterior-loss output remap that post-processes any base mechanism
without touching its privacy guarantee.

Every mechanism here and the interpolated ``Mechanism`` evaluate many
points at once through ``log_probs(X) -> (n, K)`` over a fixed candidate
set, with ``distribution_at`` / ``log_distribution_at`` as its one-row
views and ``bounds`` for audit sampling; all are pure functions of
(points, config) and safe to call concurrently. The module-level
``log_probs(mech, X)`` also accepts external mechanisms that only offer
``distribution_at(x)``.
"""

from __future__ import annotations

import numpy as np

from .apo import OutputDomain, PerturbationTable
from .geometry import as_point, as_points, lp_distance_matrix, nearest

__all__ = [
    "log_probs",
    "sample",
    "bayesian_remap",
    "ExponentialMechanism",
    "PlanarLaplaceMechanism",
    "TruncatedExponentialMechanism",
    "CoarseLpMechanism",
    "RemappedMechanism",
    "default_truncation_radius",
]

# Exponent factor 1/2 makes distance-scored weighting meet the target
# budget for arbitrary candidate sets: the score gap and the normalizer
# each move by at most (factor * eps * d) in log space.
EM_EXPONENT_FACTOR = 0.5


def default_truncation_radius(eps: float) -> float:
    """Truncation radius keeping the discarded exp(-eps d) tail under ~5%."""
    return 3.0 / eps


def log_probs(mech, X) -> np.ndarray:
    """(n, K) log-probabilities of any mechanism at the rows of ``X``.

    Uses ``mech.log_probs(X)`` when the mechanism has it; otherwise calls
    ``mech.distribution_at`` once per row, in row order. Zero
    probabilities give -inf.
    """
    if hasattr(mech, "log_probs"):
        return mech.log_probs(X)
    rows = [np.asarray(mech.distribution_at(x), dtype=float) for x in as_points(X)]
    with np.errstate(divide="ignore"):
        return np.log(np.stack(rows))


def sample(mech, X, rng):
    """Draw output indices by inverse CDF in stored candidate order.

    One uniform per row of ``X`` (n, N) gives an (n,) index array; a single
    point gives one int. Deterministic for a fixed seed, and n rows use
    the same stream as n single-point draws.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    X = np.asarray(X, dtype=float)
    cum = np.cumsum(np.exp(log_probs(mech, np.atleast_2d(X))), axis=1)
    u = rng.random(cum.shape[0])
    idx = np.minimum(np.sum(cum <= u[:, None], axis=1), cum.shape[1] - 1)
    return int(idx[0]) if X.ndim == 1 else idx


class _PointwiseMechanism:
    """Shared plumbing: one-row views and sampling over a subclass's log_probs."""

    def __init__(self, outputs: OutputDomain, bounds):
        self.outputs = outputs
        lo, hi = bounds
        self._bounds = (as_point(lo), as_point(hi))

    @property
    def bounds(self):
        return self._bounds[0].copy(), self._bounds[1].copy()

    @property
    def n_outputs(self) -> int:
        return self.outputs.size

    def log_distribution_at(self, x) -> np.ndarray:
        return self.log_probs(as_point(x)[None])[0]

    def distribution_at(self, x) -> np.ndarray:
        return np.exp(self.log_distribution_at(x))

    def sample(self, X, rng):
        return sample(self, X, rng)


def log_normalize(scores: np.ndarray) -> np.ndarray:
    """Rows of log-scores shifted so that each row's probabilities sum to one.

    The shift is each row's log-sum-exp, computed as scipy 1.17's
    ``scipy.special.logsumexp`` computes it, with the same bits: the
    row's maximum m, its count c, and s = the sum of exp(score - m) over
    the other entries give log1p(s / c) + log(c) + m. A row whose result
    is not finite (every entry -inf, or an entry +inf or nan) takes
    log(sum(exp(scores))) instead.
    """
    top = scores.max(axis=1, keepdims=True)
    at_top = scores == top
    count = at_top.sum(axis=1, keepdims=True, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        rest = np.exp(np.where(at_top, -np.inf, scores) - top).sum(axis=1, keepdims=True)
        lse = np.log1p(rest / count) + np.log(count) + top
    finite = np.isfinite(lse)
    if not finite.all():
        with np.errstate(divide="ignore", over="ignore"):
            lse = np.where(finite, lse, np.log(np.exp(scores).sum(axis=1, keepdims=True)))
    return scores - lse


class ExponentialMechanism(_PointwiseMechanism):
    """Distance-scored exponential weighting.

    z(y_k | x) is proportional to exp(-factor * eps * d_p(x, y_k)).
    """

    def __init__(self, outputs, bounds, eps, p, exponent_factor=EM_EXPONENT_FACTOR):
        super().__init__(outputs, bounds)
        if not eps > 0:
            raise ValueError("eps must be positive")
        self.eps = float(eps)
        self.metric_p = float(p)
        self.exponent_factor = float(exponent_factor)

    def log_probs(self, X):
        d = lp_distance_matrix(X, self.outputs.points, self.metric_p)
        return log_normalize(-self.exponent_factor * self.eps * d)


class PlanarLaplaceMechanism(ExponentialMechanism):
    """Planar-Laplace weighting discretized onto the candidate set.

    Proportional to exp(-eps * d_2(x, y_k)). The continuous density's
    analytic normalizer does not apply to a discrete candidate set, so the
    discrete normalization is used; the worst-case guarantee is then
    2*eps rather than eps (see README).
    """

    def __init__(self, outputs, bounds, eps):
        super().__init__(outputs, bounds, eps, p=2.0, exponent_factor=1.0)
        if self._bounds[0].size != 2:
            raise ValueError("planar mechanism requires a 2-D domain")


class TruncatedExponentialMechanism(ExponentialMechanism):
    """Exponential weighting restricted to candidates within ``radius``.

    Candidates outside the radius receive exact probability zero.
    """

    def __init__(self, outputs, bounds, eps, p, radius=None):
        super().__init__(outputs, bounds, eps, p)
        self.radius = default_truncation_radius(eps) if radius is None else float(radius)

    def log_probs(self, X):
        d = lp_distance_matrix(X, self.outputs.points, self.metric_p)
        inside = d <= self.radius
        if not np.all(np.any(inside, axis=1)):
            raise ValueError("no candidate within the truncation radius")
        return log_normalize(np.where(inside, -self.exponent_factor * self.eps * d, -np.inf))


class CoarseLpMechanism(_PointwiseMechanism):
    """Deploys a representative-grid table by nearest-representative lookup.

    Every query point reuses the row of its closest representative, so the
    released distribution is piecewise constant; ratio constraints were
    only enforced between the representatives themselves, at metric order
    ``metric_p`` (None if not stated).
    """

    def __init__(self, representatives, table: PerturbationTable, outputs, bounds,
                 metric_p=None):
        super().__init__(outputs, bounds)
        self.metric_p = metric_p
        self.representatives = np.atleast_2d(np.asarray(representatives, dtype=float))
        if table.n_rows != self.representatives.shape[0]:
            raise ValueError("one table row per representative required")
        self.table = table

    def log_probs(self, X):
        with np.errstate(divide="ignore"):
            return np.log(self.table.probs[nearest(self.representatives, X)])


class RemappedMechanism(_PointwiseMechanism):
    """Deterministic output remap g applied after a base mechanism.

    z'(y' | x) sums the base probabilities of every output that g sends to
    y'. Post-processing cannot weaken the base guarantee, so the remap
    keeps the base's metric order ``metric_p``.
    """

    def __init__(self, base, remap):
        super().__init__(base.outputs, base.bounds)
        self.base = base
        self.metric_p = getattr(base, "metric_p", None)
        self.remap = np.asarray(remap, dtype=int)
        if self.remap.shape != (base.n_outputs,):
            raise ValueError("remap must assign every output an image")

    def log_probs(self, X):
        base = np.exp(log_probs(self.base, X))
        out = np.zeros_like(base)
        np.add.at(out, (slice(None), self.remap), base)
        with np.errstate(divide="ignore"):
            return np.log(out)


def bayesian_remap(base, prior, loss) -> RemappedMechanism:
    """Remap each output to the posterior-expected-loss minimizer.

    The posterior over prior sample points given output y is proportional
    to mass(x) * z(y | x); g(y) is the candidate minimizing the posterior
    expected loss, ties broken toward the lower output index. Outputs the
    base never emits remap to themselves.
    """
    points = prior.points
    masses = prior.masses
    loss_mat = loss.matrix_at(points, base.outputs)
    z = np.exp(log_probs(base, points))  # (n, K)
    weighted = masses[:, None] * z
    normalizers = weighted.sum(axis=0)
    remap = np.arange(base.n_outputs)
    for k in range(base.n_outputs):
        if normalizers[k] <= 0.0:
            continue
        posterior = weighted[:, k] / normalizers[k]
        remap[k] = int(np.argmin(posterior @ loss_mat))
    return RemappedMechanism(base, remap)
