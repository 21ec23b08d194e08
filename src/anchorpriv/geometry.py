"""Secret-domain geometry.

Covers the lp distance family, regular orthotope partitions of an
axis-aligned domain, the deduplicated anchor lattice formed by cell
corners, axis-aligned anchor neighbor pairs, and the per-corner convex
weights used by log-convex interpolation.

Points are plain 1-D numpy arrays in domain units. The metric order ``p``
is a float in ``[1, inf]``; ``math.inf`` selects the max norm.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import OutOfDomainError

__all__ = [
    "Cell",
    "CellWeights",
    "AnchorPair",
    "Partition",
    "as_point",
    "as_points",
    "lp_distance",
    "lp_distance_matrix",
    "dual_exponent",
    "corner_offsets",
    "partition_domain",
    "locate_cell",
    "locate_cells",
    "corner_weights",
    "interpolation_weights",
    "axis_neighbors",
]


def as_point(x) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float array of dimension >= 1."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError(f"point must be a 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point coordinates must be finite")
    return p


def as_points(X, n_dims: int | None = None) -> np.ndarray:
    """Coerce ``X`` to a finite (n, N) float array, N >= 1 (``n_dims`` if given)."""
    P = np.asarray(X, dtype=float)
    if P.ndim != 2 or P.shape[1] < 1:
        raise ValueError(f"points must be an (n, N) array, got shape {P.shape}")
    if n_dims is not None and P.shape[1] != n_dims:
        raise ValueError(f"points have dimension {P.shape[1]}, expected {n_dims}")
    if not np.all(np.isfinite(P)):
        raise ValueError("point coordinates must be finite")
    return P


def lp_distance_matrix(A, B, p: float) -> np.ndarray:
    """(n, m) lp distances between the rows of ``A`` and the rows of ``B``.

    ``p`` may be any float >= 1; ``math.inf`` gives the coordinate maximum.
    """
    A = as_points(A)
    B = as_points(B, A.shape[1])
    if not p >= 1:
        raise ValueError(f"metric order must satisfy p >= 1, got {p}")
    diff = np.abs(A[:, None, :] - B[None, :, :])
    if math.isinf(p):
        return diff.max(axis=2)
    return np.sum(diff**p, axis=2) ** (1.0 / p)


def lp_distance(a, b, p: float) -> float:
    """lp distance between two points; the one-pair case of lp_distance_matrix."""
    return float(lp_distance_matrix(as_point(a)[None], as_point(b)[None], p)[0, 0])


def dual_exponent(p: float) -> float:
    """Hoelder dual q of p (1/p + 1/q = 1), with the p=1 and p=inf limits."""
    if not p >= 1:
        raise ValueError(f"metric order must satisfy p >= 1, got {p}")
    if p == 1:
        return math.inf
    if math.isinf(p):
        return 1.0
    return p / (p - 1.0)


def corner_offsets(n_dims: int) -> np.ndarray:
    """All binary offset vectors of an n-dimensional orthotope, shape (2^N, N).

    Rows enumerate itertools.product((0, 1), repeat=N) order, i.e. the last
    axis varies fastest. Every corner-indexed array in this package follows
    this ordering.
    """
    if n_dims < 1:
        raise ValueError("dimension must be >= 1")
    return np.array(list(itertools.product((0, 1), repeat=n_dims)), dtype=float)


@dataclass(frozen=True)
class Cell:
    """Axis-aligned orthotope given by its minimum corner and side lengths."""

    base_corner: np.ndarray
    side_lengths: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "base_corner", as_point(self.base_corner))
        object.__setattr__(self, "side_lengths", as_point(self.side_lengths))
        if self.base_corner.shape != self.side_lengths.shape:
            raise ValueError("corner/side dimension mismatch")
        if not np.all(self.side_lengths > 0):
            raise ValueError("all side lengths must be positive")

    @property
    def n_dims(self) -> int:
        return self.base_corner.size

    @property
    def upper_corner(self) -> np.ndarray:
        return self.base_corner + self.side_lengths

    @property
    def volume(self) -> float:
        return float(np.prod(self.side_lengths))

    def contains(self, x, tol: float = 0.0) -> bool:
        x = as_point(x)
        slack = tol * (1.0 + self.side_lengths)
        return bool(
            np.all(x >= self.base_corner - slack)
            and np.all(x <= self.upper_corner + slack)
        )

    def corners(self) -> np.ndarray:
        """All 2^N corner points, ordered like corner_offsets."""
        return self.base_corner + corner_offsets(self.n_dims) * self.side_lengths


@dataclass(frozen=True)
class CellWeights:
    """Convex interpolation weights of a point within one cell.

    ``lam[l]`` is the fractional distance from the point to the cell's upper
    face along axis l, so the base corner carries weight prod(lam).
    ``weights[g]`` is the product weight of the corner with binary offset
    ``corner_offsets(N)[g]``; the weights are non-negative and sum to one.
    """

    lam: np.ndarray
    weights: np.ndarray

    @property
    def n_dims(self) -> int:
        return self.lam.size


class AnchorPair(NamedTuple):
    """Unordered lattice-adjacent anchor pair differing along one axis."""

    first: int
    second: int
    axis: int
    gap: float


class Partition:
    """Regular grid of axis-aligned cells tiling a bounding box.

    Anchors are the deduplicated cell corners, i.e. the full grid lattice.
    Anchor index and cell index both use C order over their lattice /
    grid coordinates (last axis fastest).
    """

    def __init__(self, lower, upper, counts):
        self.lower = as_point(lower)
        self.upper = as_point(upper)
        counts = np.asarray(counts, dtype=int)
        if self.upper.shape != self.lower.shape:
            raise ValueError("bounds dimension mismatch")
        if counts.shape != self.lower.shape:
            raise ValueError("counts dimension mismatch")
        if np.any(counts < 1):
            raise ValueError("cell counts must all be >= 1")
        if np.any(self.upper <= self.lower):
            raise ValueError("domain bounds are degenerate on some axis")
        self.counts = counts
        self.n_dims = self.lower.size
        self.deltas = (self.upper - self.lower) / counts
        self.offsets = corner_offsets(self.n_dims)

        # Anchor lattice: counts+1 nodes per axis, C-order raveling.
        axes = [
            np.linspace(self.lower[l], self.upper[l], counts[l] + 1)
            for l in range(self.n_dims)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.anchors = np.stack([m.ravel() for m in mesh], axis=1)
        self._lattice_shape = tuple(counts + 1)

        self.n_cells = int(np.prod(counts))
        cell_grids = np.stack(
            [g.ravel() for g in np.meshgrid(*[np.arange(c) for c in counts], indexing="ij")],
            axis=1,
        )
        self._cell_grids = cell_grids
        offs = self.offsets.astype(int)
        # (M, 2^N) anchor index of each cell corner.
        self.cell_corner_anchors = np.stack(
            [
                np.ravel_multi_index((cell_grids + offs[g]).T, self._lattice_shape)
                for g in range(offs.shape[0])
            ],
            axis=1,
        )

    @property
    def n_anchors(self) -> int:
        return self.anchors.shape[0]

    @property
    def bounds(self):
        return self.lower.copy(), self.upper.copy()

    def cell(self, index: int) -> Cell:
        grid = self._cell_grids[index]
        return Cell(self.lower + grid * self.deltas, self.deltas.copy())

    def cells(self):
        return [self.cell(m) for m in range(self.n_cells)]


def partition_domain(bounds, cells_per_axis) -> Partition:
    """Partition a bounding box into a regular grid of cells.

    Args:
        bounds: pair (lower, upper) of opposite box corners.
        cells_per_axis: positive cell count per axis.
    """
    lower, upper = bounds
    return Partition(lower, upper, cells_per_axis)


def locate_cells(partition: Partition, X) -> np.ndarray:
    """Index of the cell containing each row of ``X``, shape (n,).

    Points on an interior shared face belong to the cell with the larger
    base coordinate; points on the domain's upper boundary clamp to the
    last cell. Interpolation is continuous across faces, so the tie rule
    has no observable effect on interpolated distributions. Any row
    outside the domain raises OutOfDomainError.
    """
    X = as_points(X, partition.n_dims)
    outside = np.any((X < partition.lower) | (X > partition.upper), axis=1)
    if np.any(outside):
        first = X[np.argmax(outside)]
        raise OutOfDomainError(f"point {first.tolist()} outside domain bounds")
    grid = np.floor((X - partition.lower) / partition.deltas).astype(int)
    grid = np.minimum(grid, partition.counts - 1)
    grid = np.maximum(grid, 0)
    return np.ravel_multi_index(tuple(grid.T), tuple(partition.counts))


def locate_cell(partition: Partition, x) -> int:
    """Index of the cell containing one point ``x`` (see locate_cells)."""
    return int(locate_cells(partition, as_point(x)[None])[0])


def corner_weights(partition: Partition, X, cells) -> np.ndarray:
    """(n, 2^N) corner weights of each row of ``X`` within its cell.

    ``cells`` are the rows' cell indices from locate_cells; row i is
    interpolation_weights(partition.cell(cells[i]), X[i]).weights.
    """
    X = np.asarray(X, dtype=float)
    base = partition.lower + partition._cell_grids[cells] * partition.deltas
    lam = (base + partition.deltas - X) / partition.deltas
    lam = np.clip(lam, 0.0, 1.0)[:, None, :]
    offs = partition.offsets
    factors = (1.0 - offs) * lam + offs * (1.0 - lam)
    return factors.prod(axis=2)


def interpolation_weights(cell: Cell, x) -> CellWeights:
    """Convex coefficients and per-corner product weights of ``x`` in ``cell``.

    lam[l] = (upper[l] - x[l]) / side[l]; the weight of the corner with
    offset g is prod_l ((1-g_l) lam_l + g_l (1-lam_l)). Weights sum to one
    and average the corner coordinates back to ``x``.
    """
    x = as_point(x)
    if not cell.contains(x, tol=1e-12):
        raise ValueError(f"point {x.tolist()} outside cell")
    lam = (cell.upper_corner - x) / cell.side_lengths
    lam = np.clip(lam, 0.0, 1.0)
    offs = corner_offsets(cell.n_dims)
    factors = (1.0 - offs) * lam + offs * (1.0 - lam)
    weights = factors.prod(axis=1)
    return CellWeights(lam=lam, weights=weights)


def axis_neighbors(partition: Partition) -> list[AnchorPair]:
    """Every unordered pair of lattice-adjacent anchors, with axis and gap.

    Two anchors are adjacent when they differ in exactly one coordinate by
    exactly one cell side length. The pair count equals
    sum_l counts_l * prod_{j != l} (counts_j + 1).
    """
    shape = partition._lattice_shape
    pairs: list[AnchorPair] = []
    for axis in range(partition.n_dims):
        gap = float(partition.deltas[axis])
        ranges = [
            np.arange(n - 1 if l == axis else n) for l, n in enumerate(shape)
        ]
        grids = np.stack(
            [g.ravel() for g in np.meshgrid(*ranges, indexing="ij")], axis=1
        )
        lo = np.ravel_multi_index(grids.T, shape)
        step = grids.copy()
        step[:, axis] += 1
        hi = np.ravel_multi_index(step.T, shape)
        pairs.extend(
            AnchorPair(int(i), int(j), axis, gap) for i, j in zip(lo, hi)
        )
    return pairs
