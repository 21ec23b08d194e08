"""Log-convex interpolation of anchor tables over the continuous domain.

An anchor table fixes output distributions at cell corners; between
corners each log-probability is the corner-weighted average of anchor
log-probabilities (a weighted geometric mean of the probabilities), and
the resulting scores are normalized into a distribution. All arithmetic
happens in log space and is exponentiated once. ``Mechanism.log_probs``
evaluates many points in one call, like every baseline mechanism.

Exact zeros in an anchor row would put -inf into the interpolant, so
tables are floored at PROB_FLOOR and renormalized when a mechanism is
built. Flooring is a contraction in log space (it never widens a pairwise
log-gap), so it cannot break a ratio constraint the table already
satisfies; it perturbs each row's normalizer by at most K * PROB_FLOOR.
"""

from __future__ import annotations

import numpy as np

from . import formats
from .apo import OutputDomain, PerturbationTable
from .budget import BudgetVector
from .geometry import Partition, as_point, corner_weights, locate_cells
from .mechanisms import _MechanismBase, log_normalize

__all__ = [
    "PROB_FLOOR",
    "Mechanism",
]

PROB_FLOOR = 1e-12


# The mechanism file layout written by to_json_dict, and the only one read.
FORMAT_VERSION = 1


class Mechanism(_MechanismBase):
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
        super().__init__(outputs, partition.bounds)
        self.partition = partition
        self.table = PerturbationTable(probs)
        self.budget = budget
        self.metric_p = metric_p if metric_p is not None else (budget.p if budget else None)
        self.total_eps = total_eps if total_eps is not None else (
            budget.total_eps if budget else None
        )
        self._log_table = np.log(self.table.probs)

    def log_scores(self, X) -> np.ndarray:
        """(n, K) corner-weighted averages of anchor log-probabilities at the rows of ``X``."""
        cells = locate_cells(self.partition, X)
        w = corner_weights(self.partition, X, cells)
        rows = self.partition.cell_corner_anchors[cells]
        return np.sum(w[:, :, None] * self._log_table[rows], axis=1)

    def log_probs(self, X) -> np.ndarray:
        """(n, K) normalized log-probabilities at the rows of ``X``.

        Continuous across cell faces: a shared face fixes the weights of
        the corners both cells have in common and zeroes the rest.
        """
        return log_normalize(self.log_scores(X))

    # Kept only because perfbench/tracer.py wraps it by name.
    def log_distribution_at(self, x) -> np.ndarray:
        """Normalized log-probabilities at one point (one row of log_probs)."""
        return self.log_probs(as_point(x)[None])[0]

    # Kept only because perfbench/tracer.py wraps it by name.
    def distribution_at(self, x) -> np.ndarray:
        """Normalized output distribution at one point; sums to one."""
        return np.exp(self.log_distribution_at(x))

    def to_json_dict(self) -> dict:
        return {
            "format": "anchorpriv-mechanism",
            "version": FORMAT_VERSION,
            "metric_p": None if self.metric_p is None else float(self.metric_p),
            "total_eps": None if self.total_eps is None else float(self.total_eps),
            "budget_eps": None if self.budget is None else [float(v) for v in self.budget.eps],
            "partition": formats.partition_block(self.partition),
            "outputs": formats.outputs_block(self.outputs),
            "table": {"probs": [[float(v) for v in row] for row in self.table.probs]},
        }

    def save(self, path):
        formats.write_json(path, self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "Mechanism":
        """Rebuild a mechanism from :meth:`to_json_dict` output.

        Raises ValueError on anything else: another format or version, a
        missing field (named in the message) or a value of the wrong type.
        """
        formats.check_header(d, "mechanism", FORMAT_VERSION)
        metric_p = formats.optional_number(d, "metric_p", "mechanism")
        total_eps = formats.optional_number(d, "total_eps", "mechanism")
        part = formats.read_partition(d, "mechanism")
        outputs = formats.read_outputs(d, "mechanism")
        table = PerturbationTable(formats.read_array(d, "table.probs", "mechanism", 2))
        budget = None
        if d.get("budget_eps") is not None:
            for key, value in (("metric_p", metric_p), ("total_eps", total_eps)):
                if value is None:
                    raise ValueError(f"mechanism field {key!r} must be a number "
                                     "when 'budget_eps' is set, got null")
            budget = BudgetVector(eps=formats.read_array(d, "budget_eps", "mechanism", 1),
                                  total_eps=float(total_eps), p=float(metric_p))
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
        return cls.from_json_dict(formats.read_json(path))
