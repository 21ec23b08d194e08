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
    "as_whole_numbers",
    "lp_distance",
    "lp_distance_matrix",
    "nearest",
    "dual_exponent",
    "corner_offsets",
    "locate_cell",
    "locate_cells",
    "corner_weights",
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


def as_whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as an int array; ValueError naming ``what`` unless each is a whole number.

    The message names the first few bad entries and their indices, not the
    whole array.
    """
    raw = np.asarray(values, dtype=float)
    bad = np.argwhere(~np.isfinite(raw) | (raw != np.round(raw)))
    if bad.size:
        shown = ", ".join(f"{float(raw[tuple(at)])!r} at index {at.tolist()}"
                          for at in bad[:3])
        more = f" and {len(bad) - 3} more" if len(bad) > 3 else ""
        raise ValueError(f"{what} must be whole numbers, got {shown}{more}")
    return raw.astype(int)


def lp_distance_matrix(A, B, p: float) -> np.ndarray:
    """(n, m) lp distances between the rows of ``A`` and the rows of ``B``.

    ``p`` may be any float >= 1; ``math.inf`` gives the coordinate maximum.
    The axes are summed one at a time, in order, into one (n, m) output
    with in-place ufuncs, so no (n, m, N) temporary is built. At p = 1, 2
    and inf no power is taken: d * d and sqrt give the bits of d**2 and
    **0.5.
    """
    A = as_points(A)
    B = as_points(B, A.shape[1])
    if not p >= 1:
        raise ValueError(f"metric order must satisfy p >= 1, got {p}")
    out = None
    for axis in range(A.shape[1]):
        d = np.subtract(A[:, axis, None], B[None, :, axis])
        np.abs(d, out=d)
        if p == 2:
            np.multiply(d, d, out=d)
        elif p != 1 and not math.isinf(p):
            np.power(d, p, out=d)
        if out is None:
            out = d
        elif math.isinf(p):
            np.maximum(out, d, out=out)
        else:
            out += d
    if p == 2:
        np.sqrt(out, out=out)
    elif p != 1 and not math.isinf(p):
        np.power(out, 1.0 / p, out=out)
    return out


# Kept only because perfbench/tracer.py looks it up by name.
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
        counts = as_whole_numbers(counts, "cell counts")
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

    @functools.cached_property
    def _axis_neighbors(self):
        """:func:`axis_neighbors` of this partition, built on first use, read-only."""
        shape = self._lattice_shape
        first, second, axes = [], [], []
        for axis in range(self.n_dims):
            ranges = [np.arange(n - 1 if l == axis else n) for l, n in enumerate(shape)]
            grids = np.stack([g.ravel() for g in np.meshgrid(*ranges, indexing="ij")], axis=1)
            step = grids.copy()
            step[:, axis] += 1
            first.append(np.ravel_multi_index(grids.T, shape))
            second.append(np.ravel_multi_index(step.T, shape))
            axes.append(np.full(grids.shape[0], axis))
        pairs = tuple(np.concatenate(part) for part in (first, second, axes))
        for part in pairs:
            part.setflags(write=False)
        return pairs

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


# Kept only because perfbench/tracer.py looks it up by name.
def locate_cell(partition: Partition, x) -> int:
    """Index of the cell containing one point ``x`` (see locate_cells)."""
    return int(locate_cells(partition, as_point(x)[None])[0])


def corner_weights(partition: Partition, X, cells) -> np.ndarray:
    """(n, 2^N) corner weights of each row of ``X`` within its cell.

    ``cells`` are the rows' cell indices from locate_cells. The corner with
    offset g (corner_offsets order) weighs prod_l ((1 - g_l) lam_l + g_l (1 - lam_l)),
    lam_l being the fractional distance to the cell's upper face along axis l.
    """
    X = np.asarray(X, dtype=float)
    lam = (partition.cell_lower[cells] + partition.deltas - X) / partition.deltas
    lam = np.clip(lam, 0.0, 1.0)[:, None, :]
    offs = partition.offsets
    factors = (1.0 - offs) * lam + offs * (1.0 - lam)
    return factors.prod(axis=2)


def axis_neighbors(partition: Partition):
    """Every unordered pair of lattice-adjacent anchors, as index arrays.

    Returns (first, second, axis): anchors first[t] and second[t] differ
    only along ``axis[t]``, by the cell side ``partition.deltas[axis[t]]``.
    Pairs run axis by axis, each axis in C order of its first anchor. The
    pair count equals sum_l counts_l * prod_{j != l} (counts_j + 1). The
    arrays are built once per partition and are read-only.
    """
    return partition._axis_neighbors
