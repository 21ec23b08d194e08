"""Secret-domain geometry.

Covers the lp distance family, regular orthotope partitions of an
axis-aligned domain, the deduplicated anchor lattice formed by cell
corners, axis-aligned anchor neighbor pairs, and the per-corner convex
weights used by log-convex interpolation.

Points are plain 1-D numpy arrays in domain units, point sets (n, N)
arrays. Cells are not objects: a partition holds every cell's minimum
corner in one (M, N) array, and all cells share the side lengths
``deltas``. The metric order ``p`` is a float in ``[1, inf]``;
``math.inf`` selects the max norm.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import OutOfDomainError

__all__ = [
    "Partition",
    "as_point",
    "as_points",
    "lp_distance",
    "lp_distance_matrix",
    "nearest",
    "dual_exponent",
    "corner_offsets",
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
    The axes are summed one at a time, in order, so no (n, m, N)
    temporary is built.
    """
    A = as_points(A)
    B = as_points(B, A.shape[1])
    if not p >= 1:
        raise ValueError(f"metric order must satisfy p >= 1, got {p}")
    diffs = (np.abs(A[:, axis, None] - B[None, :, axis]) for axis in range(A.shape[1]))
    if math.isinf(p):
        return functools.reduce(np.maximum, diffs)
    return functools.reduce(np.add, (d**p for d in diffs)) ** (1.0 / p)


def lp_distance(a, b, p: float) -> float:
    """lp distance between two points; the one-pair case of lp_distance_matrix."""
    return float(lp_distance_matrix(as_point(a)[None], as_point(b)[None], p)[0, 0])


def nearest(points, X) -> np.ndarray:
    """Index of the row of ``points`` closest to each row of ``X`` (Euclidean).

    On an exact tie the lowest index wins.
    """
    X = as_points(X, points.shape[1])
    d2 = np.sum((X[:, None, :] - points[None, :, :]) ** 2, axis=2)
    return np.argmin(d2, axis=1)


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
        # (M, N) minimum corner of each cell; every cell has sides ``deltas``.
        self.cell_lower = self.lower + cell_grids * self.deltas
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
    interpolation_weights(partition.cell_lower[cells[i]], partition.deltas,
    X[i])[1].
    """
    X = np.asarray(X, dtype=float)
    lam = (partition.cell_lower[cells] + partition.deltas - X) / partition.deltas
    lam = np.clip(lam, 0.0, 1.0)[:, None, :]
    offs = partition.offsets
    factors = (1.0 - offs) * lam + offs * (1.0 - lam)
    return factors.prod(axis=2)


def interpolation_weights(base_corner, side_lengths, x):
    """Convex coefficients and per-corner product weights of ``x`` in one cell.

    The cell is the orthotope with minimum corner ``base_corner`` and the
    given positive side lengths. Returns (lam, weights): lam[l] = (upper[l]
    - x[l]) / side[l] is the fractional distance to the upper face along
    axis l, so the base corner carries weight prod(lam); the weight of the
    corner with offset g (corner_offsets order) is prod_l ((1-g_l) lam_l +
    g_l (1-lam_l)). Weights sum to one and average the corner coordinates
    back to ``x``. This is the one-point reference of corner_weights.
    """
    base = as_point(base_corner)
    side = as_point(side_lengths)
    x = as_point(x)
    if not base.shape == side.shape == x.shape:
        raise ValueError("corner/side/point dimension mismatch")
    if not np.all(side > 0):
        raise ValueError("all side lengths must be positive")
    upper = base + side
    slack = 1e-12 * (1.0 + side)
    if not (np.all(x >= base - slack) and np.all(x <= upper + slack)):
        raise ValueError(f"point {x.tolist()} outside cell")
    lam = np.clip((upper - x) / side, 0.0, 1.0)
    offs = corner_offsets(x.size)
    factors = (1.0 - offs) * lam + offs * (1.0 - lam)
    return lam, factors.prod(axis=1)


def axis_neighbors(partition: Partition):
    """Every unordered pair of lattice-adjacent anchors, as index arrays.

    Returns (first, second, axis): anchors first[t] and second[t] differ
    only along ``axis[t]``, by the cell side ``partition.deltas[axis[t]]``.
    Pairs run axis by axis, each axis in C order of its first anchor. The
    pair count equals sum_l counts_l * prod_{j != l} (counts_j + 1).
    """
    shape = partition._lattice_shape
    first, second, axes = [], [], []
    for axis in range(partition.n_dims):
        ranges = [
            np.arange(n - 1 if l == axis else n) for l, n in enumerate(shape)
        ]
        grids = np.stack(
            [g.ravel() for g in np.meshgrid(*ranges, indexing="ij")], axis=1
        )
        step = grids.copy()
        step[:, axis] += 1
        first.append(np.ravel_multi_index(grids.T, shape))
        second.append(np.ravel_multi_index(step.T, shape))
        axes.append(np.full(grids.shape[0], axis))
    return np.concatenate(first), np.concatenate(second), np.concatenate(axes)
