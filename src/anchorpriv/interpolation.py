"""Log-convex interpolation of anchor tables over the continuous domain.

An anchor table fixes output distributions at cell corners; between
corners each log-probability is the corner-weighted average of anchor
log-probabilities (a weighted geometric mean of the probabilities), and
the resulting scores are normalized into a distribution. All arithmetic
happens in log space and is exponentiated once.

Exact zeros in an anchor row would put -inf into the interpolant, so
tables are floored at PROB_FLOOR and renormalized when a mechanism is
built. Flooring is a contraction in log space (it never widens a pairwise
log-gap), so it cannot break a ratio constraint the table already
satisfies; it perturbs each row's normalizer by at most K * PROB_FLOOR.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import logsumexp

from . import mechanisms
from .apo import BudgetVector, OutputDomain, PerturbationTable
from .geometry import Partition, as_point, corner_weights, locate_cells

__all__ = [
    "PROB_FLOOR",
    "logcvx_1d",
    "Mechanism",
]

PROB_FLOOR = 1e-12


def logcvx_1d(z_lo: float, z_hi: float, lam: float) -> float:
    """Weighted geometric mean exp(lam ln z_lo + (1 - lam) ln z_hi).

    Endpoints are exact: lam = 1 returns z_lo, lam = 0 returns z_hi.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"interpolation coefficient must be in [0, 1], got {lam}")
    if z_lo <= 0.0 or z_hi <= 0.0:
        raise ValueError("probabilities must be strictly positive; floor the table first")
    if lam == 1.0:
        return float(z_lo)
    if lam == 0.0:
        return float(z_hi)
    return float(math.exp(lam * math.log(z_lo) + (1.0 - lam) * math.log(z_hi)))


def _field(d: dict, path: str):
    """Value at the dotted ``path`` of a mechanism dict; ValueError naming it if absent."""
    value = d
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"mechanism lacks field {path!r}")
        value = value[key]
    return value


def _number(d: dict, key: str):
    """Optional numeric field ``key`` of a mechanism dict (None when null or absent)."""
    value = d.get(key)
    if value is not None and (isinstance(value, bool) or not isinstance(value, (int, float))):
        raise ValueError(f"mechanism field {key!r} must be a number or null, got {value!r}")
    return value


class Mechanism:
    """Sampleable perturbation mechanism over a partitioned domain.

    Wraps a partition, an anchor table (floored to keep logs finite), the
    output candidates and the budget provenance. Instances are immutable
    after construction and safe to share across worker threads.
    """

    def __init__(
        self,
        partition: Partition,
        table: PerturbationTable,
        outputs: OutputDomain,
        budget: BudgetVector | None = None,
        total_eps: float | None = None,
        metric_p: float | None = None,
        floor: float | None = PROB_FLOOR,
    ):
        if table.n_rows != partition.n_anchors:
            raise ValueError("table rows must be indexed by partition anchors")
        if table.n_outputs != outputs.size:
            raise ValueError("table columns must match output candidates")
        if budget is not None and budget.n_dims != partition.n_dims:
            raise ValueError("budget vector must have one entry per domain axis")
        probs = table.probs
        if floor is not None:
            probs = np.maximum(probs, floor)
            probs = probs / probs.sum(axis=1, keepdims=True)
        if np.any(probs <= 0):
            raise ValueError("anchor probabilities must be positive (set a floor)")
        self.partition = partition
        self.table = PerturbationTable(probs)
        self.outputs = outputs
        self.budget = budget
        self.metric_p = metric_p if metric_p is not None else (budget.p if budget else None)
        self.total_eps = total_eps if total_eps is not None else (
            budget.total_eps if budget else None
        )
        self._log_table = np.log(self.table.probs)

    @property
    def bounds(self):
        return self.partition.bounds

    @property
    def n_outputs(self) -> int:
        return self.outputs.size

    def _log_scores(self, X) -> np.ndarray:
        cells = locate_cells(self.partition, X)
        w = corner_weights(self.partition, X, cells)
        rows = self.partition.cell_corner_anchors[cells]
        return np.sum(w[:, :, None] * self._log_table[rows], axis=1)

    def log_probs(self, X) -> np.ndarray:
        """(n, K) normalized log-probabilities at the rows of ``X``.

        Continuous across cell faces: a shared face fixes the weights of
        the corners both cells have in common and zeroes the rest.
        """
        s = self._log_scores(X)
        return s - logsumexp(s, axis=1, keepdims=True)

    def log_distribution_at(self, x) -> np.ndarray:
        """Normalized log-probabilities at one point (one row of log_probs)."""
        return self.log_probs(as_point(x)[None])[0]

    def distribution_at(self, x) -> np.ndarray:
        """Normalized output distribution at one point; sums to one."""
        return np.exp(self.log_distribution_at(x))

    def unnormalized_at(self, x) -> np.ndarray:
        """Interpolated scores before normalization, one per output."""
        return np.exp(self._log_scores(as_point(x)[None])[0])

    def sample(self, X, rng):
        """Inverse-CDF draws in stored candidate order (see mechanisms.sample)."""
        return mechanisms.sample(self, X, rng)

    def to_json_dict(self) -> dict:
        lo, hi = self.partition.bounds
        return {
            "format": "anchorpriv-mechanism",
            "version": 1,
            "metric_p": None if self.metric_p is None else float(self.metric_p),
            "total_eps": None if self.total_eps is None else float(self.total_eps),
            "budget_eps": None if self.budget is None else [float(v) for v in self.budget.eps],
            "partition": {
                "lower": [float(v) for v in lo],
                "upper": [float(v) for v in hi],
                "counts": [int(c) for c in self.partition.counts],
            },
            "outputs": {
                "points": [[float(v) for v in pt] for pt in self.outputs.points],
                "labels": list(self.outputs.labels),
            },
            "table": self.table.to_json_dict(),
        }

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, d: dict) -> "Mechanism":
        """Rebuild a mechanism from :meth:`to_json_dict` output.

        Raises ValueError on anything else: another format, a missing
        field (named in the message) or a value of the wrong type.
        """
        if not isinstance(d, dict) or d.get("format") != "anchorpriv-mechanism":
            raise ValueError("not an anchorpriv mechanism (format is not 'anchorpriv-mechanism')")
        metric_p, total_eps = _number(d, "metric_p"), _number(d, "total_eps")
        try:
            part = Partition(
                _field(d, "partition.lower"), _field(d, "partition.upper"),
                _field(d, "partition.counts"),
            )
            outputs = OutputDomain(
                points=np.asarray(_field(d, "outputs.points"), dtype=float),
                labels=tuple(_field(d, "outputs.labels")),
            )
            table = PerturbationTable(np.asarray(_field(d, "table.probs"), dtype=float))
            budget = None
            if d.get("budget_eps") is not None:
                budget = BudgetVector(
                    eps=np.asarray(d["budget_eps"], dtype=float),
                    total_eps=float(total_eps), p=float(metric_p),
                )
        except TypeError as exc:
            raise ValueError(f"malformed mechanism: {exc}") from exc
        # Stored tables were floored before saving; do not re-floor, so a
        # load/save cycle reproduces the file bit for bit.
        return cls(
            part,
            table,
            outputs,
            budget=budget,
            total_eps=total_eps,
            metric_p=metric_p,
            floor=None,
        )

    @classmethod
    def load(cls, path) -> "Mechanism":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))
