"""Anchor perturbation programs.

Builds and solves the neighbor-constrained anchor LP with its linear
surrogate objective, the relaxed all-pairs anchor variant, the coarse
representative-grid LP, and the universal lower bound on the expected
loss of any mechanism meeting the same privacy constraint, over one
averaged distribution per cell, valid for every prior and certified from
the program's dual multipliers. Bound programs are solved by an
interior-point method of their own, which uses their per-output blocks.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .budget import BudgetVector, check_budget
from .errors import SolverError
from .geometry import Partition, axis_neighbors, corner_weights, locate_cells, lp_distance_matrix
from .lpcore import CsrMatrix, LinearProgram, LpSolution, solve_lp

__all__ = [
    "OutputDomain",
    "PerturbationTable",
    "SurrogateCoefficients",
    "surrogate_coefficients",
    "build_approx_apo",
    "solve_approx_apo",
    "budget_gradient",
    "build_aipo_relaxed",
    "build_coarse_lp",
    "lower_bound",
]

log = logging.getLogger(__name__)

ROW_SUM_TOL = 1e-9
PRE_NORMALIZATION_TOL = 1e-7
# A solved table is optimal when the dual certificate of its multipliers
# is at most this far below its objective, relative to the objective.
OPTIMALITY_TOL = 1e-6
# HiGHS rejects a model with a matrix entry above 1e15, its
# ``large_matrix_value``, so no ratio bound exp(log_bound) may exceed it.
MAX_HIGHS_LOG_RATIO = math.log(1e15)
# The lower bound keeps only the cell pairs whose ratio bound exp(eps * d)
# is at most exp(MAX_LOG_RATIO) = 1e8. Kept up to 1e15, such pairs stall
# _block_ipm: the desk bound at p = 1, eps 10 stops at IPM_MAX_ITER at a
# relative gap of 5.8e-10, where with 1e8 it converges in 20 iterations.
MAX_LOG_RATIO = math.log(1e8)
# The lower bound's block interior-point solve (_block_ipm) stops once its
# best certificate is within IPM_GAP_TOL of its primal objective, relative
# to it, or after IPM_MAX_ITER iterations.
IPM_MAX_ITER = 100
IPM_GAP_TOL = 1e-10
# It also stops when it stalls: its best certificate, already within
# IPM_STALL_GAP of its primal objective, has not improved in the last
# IPM_STALL_ITER iterations although mu fell 100-fold over them. From there
# on the certificates mostly wander below the best. Such stalls came from
# factoring near-singular Newton blocks unshifted (_CHOLESKY_SHIFT): over
# 594 shifted desk and grid8 bound programs, factored unshifted, this ended
# 6 solves that ran to IPM_MAX_ITER, each with the same bound, and 2 that
# would have converged later, at most 1.4e-9 lower, relative; 1 more ran to
# IPM_MAX_ITER with its best certificate above IPM_STALL_GAP. With the
# shift none of the 594 stalls, and the stop is a safeguard.
IPM_STALL_ITER = 15
IPM_STALL_GAP = 1e-8


def _distinct_rows(a) -> bool:
    """Whether no two rows of a 2-D array are equal.

    Sorted with np.lexsort, equal rows are adjacent. np.unique(axis=0)
    would tell the same, but it imports numpy.ma (13-28 ms at start-up).
    """
    rows = a[np.lexsort(a.T[::-1])]
    return not np.any(np.all(rows[1:] == rows[:-1], axis=1))


@dataclass(frozen=True)
class OutputDomain:
    """Discrete candidate outputs, as points of the secret space."""

    points: np.ndarray
    labels: tuple | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 1:
            raise ValueError("output domain must contain at least one candidate")
        if not _distinct_rows(pts):
            raise ValueError("output candidates must be distinct")
        object.__setattr__(self, "points", pts)
        if self.labels is None:
            object.__setattr__(
                self, "labels", tuple(f"y{k}" for k in range(pts.shape[0]))
            )
        elif len(self.labels) != pts.shape[0]:
            raise ValueError("one label per candidate required")

    @property
    def size(self) -> int:
        return self.points.shape[0]


class PerturbationTable:
    """Row-stochastic probabilities z(y_k | anchor_i), one row per anchor."""

    def __init__(self, probs):
        probs = np.atleast_2d(np.asarray(probs, dtype=float))
        if not np.all(np.isfinite(probs)) or np.any(probs < 0):
            raise ValueError("probabilities must be finite and non-negative")
        sums = probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > ROW_SUM_TOL):
            worst = float(np.abs(sums - 1.0).max())
            raise ValueError(f"row sums deviate from 1 by {worst:.3e}")
        self.probs = probs

    @property
    def n_rows(self) -> int:
        return self.probs.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.probs.shape[1]


@dataclass(frozen=True)
class SurrogateCoefficients:
    """Constant objective coefficients over anchors x outputs.

    Entry (i, k) aggregates prior-mass-weighted pointwise loss against the
    corner weight anchor i receives from every sample point of its
    incident cells.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError("coefficient matrix must be 2-D")
        if np.any(m < 0):
            raise ValueError("coefficients must be non-negative")
        object.__setattr__(self, "matrix", m)


def surrogate_coefficients(partition: Partition, prior, loss, outputs: OutputDomain) -> SurrogateCoefficients:
    """Accumulate the linear surrogate objective over anchors x outputs.

    Each prior sample point x contributes w_g(x) * mass(x) * loss(x, y_k)
    to the corner anchors of its enclosing cell, where w_g are the convex
    corner weights of x. Anchors shared between cells accumulate
    contributions from sample points of every incident cell.
    """
    masses = np.asarray(prior.masses, dtype=float)
    points = np.asarray(prior.points, dtype=float)
    loss_mat = loss.matrix_at(points, outputs)
    cells = locate_cells(partition, points)
    w = corner_weights(partition, points, cells)
    contrib = w[:, :, None] * (masses[:, None] * loss_mat)[:, None, :]
    coeffs = np.zeros((partition.n_anchors, outputs.size))
    # add.at accumulates point by point, in prior order.
    np.add.at(coeffs, partition.cell_corner_anchors[cells], contrib)
    return SurrogateCoefficients(matrix=coeffs)


def _ratio_program(objective, first, second, log_bound, name="ratio program") -> LinearProgram:
    """Table program over an (R, K) objective with pairwise ratio rows.

    One equality row per table row fixes its total to 1. For each pair
    t = (first[t], second[t]) with ratio bound b = exp(log_bound[t]) and
    each output k, row 2(tK + k) is z[i,k] - b z[j,k] <= 0 and the row
    after it is the mirror z[j,k] - b z[i,k] <= 0: pairs outer, outputs
    inner.

    Raises :class:`SolverError`, naming the program ``name``, when a ratio
    bound exceeds exp(MAX_HIGHS_LOG_RATIO) = 1e15. These rows are the
    mechanism's privacy constraint, so they cannot be dropped to fit.
    """
    largest = float(np.max(log_bound, initial=0.0))
    if largest > MAX_HIGHS_LOG_RATIO:
        raise SolverError(
            f"{name} needs ratio bounds up to exp({largest:.6g}); HiGHS accepts at most "
            f"exp({MAX_HIGHS_LOG_RATIO:.6g}) = 1e15")
    objective = np.asarray(objective, dtype=float)
    n_rows, n_out = objective.shape
    n_vars = n_rows * n_out
    var = np.arange(n_vars).reshape(n_rows, n_out)
    a_eq = CsrMatrix(np.arange(0, n_vars + 1, n_out), var.ravel(), np.ones(n_vars),
                     (n_rows, n_vars))
    b_eq = np.ones(n_rows)
    vi = var[np.asarray(first, dtype=np.intp)].ravel()
    vj = var[np.asarray(second, dtype=np.intp)].ravel()
    a_ub = b_ub = None
    if vi.size:
        # math.exp, not np.exp: the two differ in the last bit on some inputs.
        neg_b = np.repeat([-math.exp(v) for v in log_bound], n_out)
        ones = np.ones_like(neg_b)
        # Two entries per row, four per (pair, output): (+1 @ i, -b @ j),
        # then the mirror row.
        cols = np.stack([vi, vj, vj, vi], axis=1).ravel()
        data = np.stack([ones, neg_b, ones, neg_b], axis=1).ravel()
        a_ub = CsrMatrix(np.arange(0, 4 * vi.size + 1, 2), cols, data, (2 * vi.size, n_vars))
        b_ub = np.zeros(2 * vi.size)
    return LinearProgram(objective, a_ub, b_ub, a_eq, b_eq, var_shape=(n_rows, n_out))


def build_approx_apo(
    partition: Partition,
    outputs: OutputDomain,
    budget: BudgetVector,
    coeffs: SurrogateCoefficients,
    convention: str = "half-dual",
) -> LinearProgram:
    """Anchor LP with per-axis ratio constraints on lattice neighbors.

    Variables are the table entries z(y_k | anchor_i); for every pair of
    anchors adjacent along axis l the two rows
    z(y|i) - exp(eps_l * delta_l) z(y|j) <= 0 (and the symmetric row) bound
    the log-gap by eps_l per unit of axis-l distance. One equality row per
    anchor normalizes the table.

    ``budget`` must lie under the arc of ``convention`` (see
    :func:`~anchorpriv.budget.check_budget`). Only under "half-dual" does
    the synthesized mechanism carry the end-to-end guarantee at the
    nominal total budget.
    """
    chk = check_budget(budget, convention)
    if not chk.ok:
        raise ValueError(
            f"budget violates composition: aggregate {chk.lhs:.6g} > bound {chk.rhs:.6g}"
        )
    if budget.n_dims != partition.n_dims:
        raise ValueError("budget dimension does not match partition")
    if coeffs.matrix.shape != (partition.n_anchors, outputs.size):
        raise ValueError("coefficient matrix shape mismatch")
    first, second, axis = axis_neighbors(partition)
    return _ratio_program(coeffs.matrix, first, second,
                          budget.eps[axis] * partition.deltas[axis],
                          f"anchor program at eps {budget.total_eps:g}")


def solve_approx_apo(
    lp: LinearProgram,
    start: LpSolution | None = None,
) -> tuple[PerturbationTable, LpSolution]:
    """Solve a table program; return the renormalized table and the solution.

    The uniform table is always feasible, so a solve that fails (which
    :func:`solve_lp` raises on) signals a build or backend fault. So does
    a table that is not optimal: the solve raises :class:`SolverError`
    when the weak-duality certificate of its multipliers
    (:func:`_dual_certificate`) is more than OPTIMALITY_TOL below its
    objective, relative to it. Row sums may drift from 1 by at most
    PRE_NORMALIZATION_TOL before the final exact renormalization.

    Returns (:class:`PerturbationTable`, the
    :class:`~anchorpriv.lpcore.LpSolution` it came from). ``start`` is
    an earlier solution, usually that of a neighbouring program; the solve
    starts from its basis (see :func:`solve_lp`).
    """
    if lp.var_shape is None:
        raise ValueError("program carries no table shape")
    sol = solve_lp(lp, start=start)
    certificate = _dual_certificate(lp, sol.multipliers)
    if sol.objective_value - certificate > OPTIMALITY_TOL * abs(sol.objective_value):
        raise SolverError(
            f"{sol.method} returned a table that is not optimal: objective "
            f"{sol.objective_value:.9g} against dual certificate {certificate:.9g}")
    probs = np.clip(sol.values.reshape(lp.var_shape), 0.0, None)
    sums = probs.sum(axis=1)
    drift = float(np.abs(sums - 1.0).max())
    if drift > PRE_NORMALIZATION_TOL:
        raise SolverError(f"row sums drifted by {drift:.3e} before renormalization")
    return PerturbationTable(probs / sums[:, None]), sol


def budget_gradient(partition: Partition, lp: LinearProgram, solution: LpSolution) -> np.ndarray:
    """Derivative of an anchor program's optimum in each per-axis budget eps_l.

    ``lp`` is :func:`build_approx_apo`'s program and ``solution`` its
    optimal solution, values and multipliers still held (not yet
    :meth:`~anchorpriv.lpcore.LpSolution.as_start`). By the envelope
    theorem the ratio row z_i - b z_j <= 0 with multiplier lambda and
    bound b = exp(eps_l delta_l) moves the optimum by -lambda b z_j per unit
    of log b, and log b moves by delta_l per unit of eps_l; summed over the
    rows of axis l's pairs. Each row's second entry is its -b (see
    :func:`_ratio_program`), and the rows run pair by pair, 2K per pair.
    """
    first, _, axis = axis_neighbors(partition)
    if not first.size:
        return np.zeros(partition.n_dims)
    per_row = solution.multipliers * lp.a_ub.data[1::2] * solution.values[lp.a_ub.indices[1::2]]
    per_pair = per_row.reshape(first.size, -1).sum(axis=1)
    return np.bincount(axis, weights=per_pair * partition.deltas[axis],
                       minlength=partition.n_dims)


def _all_pairs_program(objective, points, eps_total: float, p: float) -> LinearProgram:
    """Ratio program bounding every pair of rows by exp(eps * d_p(point_i, point_j))."""
    first, second = np.triu_indices(points.shape[0], k=1)
    log_bound = eps_total * lp_distance_matrix(points, points, p)[first, second]
    return _ratio_program(objective, first, second, log_bound,
                          f"all-pairs program at eps {eps_total:g}")


def build_aipo_relaxed(
    partition: Partition,
    outputs: OutputDomain,
    eps_total: float,
    p: float,
    coeffs: SurrogateCoefficients,
) -> LinearProgram:
    """All-pairs anchor LP bounding ratios by exp(eps * d_p(anchor_i, anchor_j)).

    No per-dimension budgets and no normalization slack are reserved, so
    interpolating the solved table does not inherit a distance-based
    guarantee between non-anchor points.
    """
    if not eps_total >= 0:  # NaN fails too
        raise ValueError(f"total budget must be non-negative, got {eps_total:g}")
    if coeffs.matrix.shape != (partition.n_anchors, outputs.size):
        raise ValueError("coefficient matrix shape mismatch")
    return _all_pairs_program(coeffs.matrix, partition.anchors, eps_total, p)


def build_coarse_lp(
    representatives,
    masses,
    outputs: OutputDomain,
    eps_total: float,
    p: float,
    loss,
) -> LinearProgram:
    """Classic discretized program over representative points.

    All-pairs ratio constraints use the representative-to-representative
    distance; the objective is the prior-weighted pointwise loss at the
    representatives themselves.
    """
    reps = np.atleast_2d(np.asarray(representatives, dtype=float))
    masses = np.asarray(masses, dtype=float)
    if not _distinct_rows(reps):
        raise ValueError("representatives must be distinct")
    if masses.shape[0] != reps.shape[0]:
        raise ValueError("one mass per representative required")
    if not eps_total >= 0:  # NaN fails too
        raise ValueError(f"total budget must be non-negative, got {eps_total:g}")
    loss_mat = loss.matrix_at(reps, outputs)
    return _all_pairs_program(masses[:, None] * loss_mat, reps, eps_total, p)


def _dual_certificate(lp: LinearProgram, multipliers) -> float:
    """Weak-duality lower bound on a ratio program's optimum from any multipliers.

    For lambda >= 0 (``multipliers`` clipped at 0), every feasible x has
    c.x >= (c + A_ub^T lambda).x - lambda.b_ub, and since each variable sits
    in exactly one equality row, with coefficient 1 and total b_eq_i, the
    right side is at least sum_i b_eq_i min_k (c + A_ub^T lambda)_ik -
    lambda.b_ub. The value holds for any multipliers, optimal or not.
    """
    reduced = lp.objective
    slack = 0.0
    if lp.a_ub is not None:
        lam = np.clip(multipliers, 0.0, None)
        reduced = reduced + lp.a_ub.rmatvec(lam)
        slack = float(lam @ lp.b_ub)
    return float(lp.b_eq @ reduced.reshape(lp.var_shape).min(axis=1)) - slack


def _relative_gap(primal: float, certificate: float, scale: float) -> float:
    """How far ``certificate`` lies below ``primal``, relative to it.

    Objectives under 1e-12 of ``scale``, the largest objective
    coefficient, count as 1e-12 of it, so that a bound of 0 can converge.
    """
    return (primal - certificate) / max(abs(primal), 1e-12 * scale)


# _inverse_cholesky factors blocks of at most _LEAF_ROWS rows with numpy's
# cholesky, and _triangular_inverse inverts blocks of at most
# _TRIANGULAR_LEAF_ROWS rows with numpy's inv; both split larger ones. Of
# the sizes tried (16-64 and 4-32 rows, one BLAS thread), these factor the
# 8x8/K=16 cell bound's 16 blocks of 64 rows fastest: 1.58 ms against 1.75 ms
# at 32 and 16.
_LEAF_ROWS = 32
_TRIANGULAR_LEAF_ROWS = 8

# _spd_inverse factors each unit-diagonal matrix with this much added to its
# diagonal. Near the optimum a Newton block can be singular to working
# precision and numpy's cholesky still succeed on it unshifted; the Newton
# solve's refinement then diverges, the step falls to about 0, and the solve
# stalls. Over 4,272 shifted desk bound programs, the unshifted
# factorization left 60 solves at IPM_MAX_ITER without the stall stop and
# 13 with it; shifted, none reached it or stalled, in 8% fewer iterations.
_CHOLESKY_SHIFT = 1e-14


def _triangular_inverse(low) -> np.ndarray:
    """Inverses of a stack of nonsingular lower triangular matrices.

    Split as [[L11, 0], [L21, L22]], the inverse is [[L11^-1, 0], [-L22^-1
    L21 L11^-1, L22^-1]]. Both diagonal blocks are inverted in one stack,
    the second bordered with a unit diagonal entry when the row count is
    odd, so each level of the recursion makes one batched call.
    """
    n = low.shape[-1]
    if n <= _TRIANGULAR_LEAF_ROWS:
        return np.linalg.inv(low)
    h = (n + 1) // 2
    diag = np.zeros((2, *low.shape[:-2], h, h))
    diag[0] = low[..., :h, :h]
    diag[1, ..., :n - h, :n - h] = low[..., h:, h:]
    if n < 2 * h:
        diag[1, ..., -1, -1] = 1.0
    inv_diag = _triangular_inverse(diag)
    inv = np.empty_like(low)
    inv[..., :h, h:] = 0.0
    inv[..., :h, :h] = inv_diag[0]
    inv[..., h:, h:] = inv_diag[1, ..., :n - h, :n - h]
    inv[..., h:, :h] = -(inv[..., h:, h:] @ (low[..., h:, :h] @ inv_diag[0]))
    return inv


def _inverse_cholesky(a) -> np.ndarray:
    """Inverse L^-1 of the lower Cholesky factor of each matrix a = L L^T of a stack.

    Recursively blocked (Elmroth, Gustavson, Jonsson and Kagstrom, SIAM
    Review 46(1), 2004), so that its O(R^3) work is matrix products. With
    a split as [[A11, A21^T], [A21, A22]], L11^-1 comes from A11, then
    L21 = A21 L11^-T, L22^-1 from the Schur complement A22 - L21 L21^T, and
    (L^-1)21 = -L22^-1 L21 L11^-1. A block of at most _LEAF_ROWS rows goes
    to numpy's cholesky and :func:`_triangular_inverse`; a larger one
    splits after a multiple of _LEAF_ROWS rows. Every step is one batched
    call over the whole stack. Raises np.linalg.LinAlgError where a leaf is
    not positive definite.
    """
    n = a.shape[-1]
    if n <= _LEAF_ROWS:
        return _triangular_inverse(np.linalg.cholesky(a))
    h = _LEAF_ROWS * (-(-n // _LEAF_ROWS) // 2)
    inv11 = _inverse_cholesky(a[..., :h, :h])
    low21 = a[..., h:, :h] @ np.swapaxes(inv11, -1, -2)
    schur = a[..., h:, h:] - low21 @ np.swapaxes(low21, -1, -2)
    inv = np.empty(a.shape)
    del a  # when the caller holds no other reference, its memory is free from here on
    inv22 = _inverse_cholesky(schur)
    del schur
    inv[..., :h, h:] = 0.0
    inv[..., :h, :h] = inv11
    inv[..., h:, h:] = inv22
    inv[..., h:, :h] = -(inv22 @ (low21 @ inv11))
    return inv


def _spd_inverse(a) -> np.ndarray:
    """Inverses of a stack of symmetric positive definite matrices.

    Each matrix is scaled to unit diagonal, shifted by _CHOLESKY_SHIFT on
    its diagonal and factored (:func:`_inverse_cholesky`); while the
    factorization fails it is retried with a 100-fold larger shift, at
    least 1e-14. The caller refines its solves against the unshifted
    matrices. Raises :class:`SolverError` on a non-finite entry, which no
    shift would mend.
    """
    if not np.all(np.isfinite(a)):
        raise SolverError("block-ipm failed: non-finite Newton matrix")
    d = np.sqrt(np.diagonal(a, axis1=-2, axis2=-1))

    def outer():  # made twice, so that it is not held during the factorization
        # The products of broadcasting, which einsum forms about twice as fast.
        return np.einsum("...i,...j->...ij", d, d)

    def scaled(shift):
        m = a / outer()
        diag = np.arange(a.shape[-1])
        m[..., diag, diag] += shift
        return m

    shift = _CHOLESKY_SHIFT
    while True:
        try:
            # Handed over with no other reference, so that _inverse_cholesky
            # frees it once it has read it.
            inv_low = _inverse_cholesky(scaled(shift))
            break
        except np.linalg.LinAlgError:
            shift = max(100.0 * shift, 1e-14)
    inv = np.swapaxes(inv_low, -1, -2) @ inv_low
    del inv_low
    inv /= outer()
    return inv


def _max_step(pairs) -> float:
    """Largest step in [0, 1] along each (v, dv) that keeps every v >= 0.

    The step is 1 / max(-dv / v) over the entries with dv < 0, from one
    unmasked quotient: an entry with v = 0 and dv < 0 gives -inf and step
    0, and the 0 / 0 entries off the ratio rows give NaN, which fmin skips.
    """
    least = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for v, dv in pairs:
            least = min(least, float(np.fmin.reduce(dv / v, axis=None)))
    return min(1.0, -1.0 / least) if least < 0 else 1.0


def _block_ipm(objective, first, second, log_ratio) -> LpSolution:
    """Solve :func:`_ratio_program`'s program by a block-structured interior-point method.

    The program is the one ``_ratio_program(objective, first, second,
    log_ratio)`` builds, with an objective >= 0 and each pair of table rows
    listed at most once. Every ratio row couples two entries of one output
    column, so the normal matrix G^T D G + D_z of the Newton system is
    block diagonal, one dense (R, R) block per output, and the row sums
    add one (R, R) Schur complement, the sum of the blocks' inverses. Each
    iteration of Mehrotra's predictor-corrector method therefore factors
    K + 1 small matrices (:func:`_spd_inverse`). The ratio rows' slacks and
    multipliers are (K, R, R) arrays: entry [k, i, j] stands for the row
    z[i,k] - b z[j,k] <= 0 divided by b, where b bounds the pair {i, j},
    and entries of no row are held at slack 1 and multiplier 0.

    The objective is scaled to max 1. The solve starts at the uniform table
    with every slack, multiplier and reduced cost 1, adds 1e-10 to the
    blocks' diagonals, and refines each Newton solve until its residual
    stops halving (at most 8 times). It stops once its best certificate
    (:func:`_dual_certificate`) is within IPM_GAP_TOL of its primal
    objective, relative to it, with every row met to IPM_GAP_TOL, once it
    stalls (see IPM_STALL_ITER), or after IPM_MAX_ITER iterations.

    Returns an :class:`~anchorpriv.lpcore.LpSolution` with method
    "block-ipm": ``values`` and ``objective_value`` at the last iterate,
    ``multipliers`` those of the best certificate seen, in the row order of
    ``_ratio_program``, and ``nit`` = ``ipm_nit`` the iterations run.
    Nothing in it is a vertex, so ``basis`` is None.
    """
    start = time.perf_counter()
    objective = np.asarray(objective, dtype=float)
    n, n_out = objective.shape
    first = np.asarray(first, dtype=np.intp)
    second = np.asarray(second, dtype=np.intp)
    scale = float(objective.max()) or 1.0
    c = objective.T / scale
    inv_bound = np.exp(-np.asarray(log_ratio, dtype=float))
    alpha = np.zeros((n, n))
    alpha[first, second] = alpha[second, first] = inv_bound
    rows = np.zeros((n, n))
    rows[first, second] = rows[second, first] = 1.0
    n_products = n_out * (n + 2 * first.size)  # complementary pairs z s and w lam
    diag = np.arange(n)
    neg_alpha = -alpha
    alpha_sq = alpha * alpha

    # alpha[i, j] v[k, i] and rows[i, j] v[k, j], the same products as by
    # broadcasting, which numpy forms about half as fast at (16, 64, 64).
    def alpha_first(v):
        return np.einsum("ij,ki->kij", alpha, v)

    def rows_second(v):
        return np.einsum("ij,kj->kij", rows, v)

    # The transpose of the ratio rows' map v -> alpha[i, j] v[k, i] - v[k, j]:
    # (K, R, R), 0 off the ratio rows -> (K, R). einsum reads u once per sum
    # and builds no alpha * u temporary.
    def g_t(u):
        return np.einsum("ij,kij->ki", alpha, u) - np.einsum("kij->kj", u)

    z = np.full((n_out, n), 1.0 / n_out)
    s = np.ones((n_out, n))
    y = np.zeros(n)
    lam = np.broadcast_to(rows, (n_out, n, n)).copy()
    w = np.ones((n_out, n, n))
    best, best_lam, best_it, mus = -math.inf, lam, 0, []
    # Off the ratio rows, lam, w * lam, both directions' dw and dl and the
    # (K, R, R) right-hand sides stay exactly 0 and w stays 1, so a product
    # with one of them needs no rows mask.
    for it in range(IPM_MAX_ITER + 1):
        # alpha z[k, i] - z[k, j] + w on the ratio rows, 0 off them.
        r_rows = w - z[:, None, :]
        r_rows *= rows
        r_rows += alpha_first(z)
        r_sums = z.sum(axis=0) - 1.0
        g_lam = g_t(lam)
        reduced = c + g_lam
        r_dual = reduced - y - s
        primal = float((c * z).sum())
        certificate = float(reduced.min(axis=0).sum())
        if certificate > best:
            best, best_lam, best_it = certificate, lam, it
        infeasible = max(float(r_rows.max()), -float(r_rows.min()), float(np.abs(r_sums).max()))
        gap = _relative_gap(primal, best, 1.0)
        if it == IPM_MAX_ITER or (infeasible <= IPM_GAP_TOL and gap <= IPM_GAP_TOL):
            break
        zs, wl = z * s, float(np.vdot(w, lam))
        mu = (float(zs.sum()) + wl) / n_products
        mus.append(mu)
        if it - best_it >= IPM_STALL_ITER and gap <= IPM_STALL_GAP \
                and mu <= 0.01 * mus[-1 - IPM_STALL_ITER]:
            break
        # One divide per iteration; the passes below multiply by it.
        inv_w = 1.0 / w
        d_rows, d_z = lam * inv_w, s / z
        dr = d_rows * r_rows
        g_dr = g_t(dr)  # both directions' right-hand sides read only this of dr
        del dr
        blocks = d_rows + np.swapaxes(d_rows, 1, 2)
        blocks *= neg_alpha
        blocks[:, diag, diag] = np.einsum("ij,kij->ki", alpha_sq, d_rows) \
            + np.einsum("kij->kj", d_rows) + d_z + 1e-10
        del d_rows  # one (K, R, R) array fewer at the factorization's peak
        inv_blocks = _spd_inverse(blocks)
        inv_schur = _spd_inverse(inv_blocks.sum(axis=0))

        def reduced_solve(h, r):
            # blocks dz - dy = h and sum_k dz[k] = r.
            u = (inv_blocks @ h[:, :, None])[:, :, 0]
            dy = inv_schur @ (r - u.sum(axis=0))
            return u + inv_blocks @ dy, dy

        def direction(rc_z, q, g_q):
            # The Newton direction whose complementarity right-hand sides
            # are rc_z for z s and w q for w lam; g_q is g_t(q).
            h = -r_dual - g_dr - g_q + rc_z / z
            dz, dy = reduced_solve(h, -r_sums)
            last = math.inf
            for _ in range(8):
                res_h = h - (blocks @ dz[:, :, None])[:, :, 0] + dy
                res_r = -r_sums - dz.sum(axis=0)
                size = max(float(np.abs(res_h).max()), float(np.abs(res_r).max()))
                if not size < last / 2:
                    break
                last = size
                ez, ey = reduced_solve(res_h, res_r)
                dz, dy = dz + ez, dy + ey
            # -r_rows - (alpha dz[k, i] - dz[k, j]).
            dw = rows_second(dz)
            dw -= alpha_first(dz)
            dw -= r_rows
            dl = lam * dw  # then q - lam dw / w in place: one (K, R, R) array fewer
            dl *= inv_w
            np.subtract(q, dl, out=dl)
            return dz, dy, dw, dl, (rc_z - s * dz) / z

        # The predictor's right-hand sides are -z s and -w lam.
        rc_z = -zs
        dz, dy, dw, dl, ds = direction(rc_z, -lam, -g_lam)
        step_p = _max_step([(z, dz), (w, dw)])
        step_d = _max_step([(lam, dl), (s, ds)])
        # sum (w + step_p dw) (lam + step_d dl), expanded so that it forms no
        # (K, R, R) array.
        mu_aff = (float(((z + step_p * dz) * (s + step_d * ds)).sum())
                  + wl + step_d * float(np.vdot(w, dl)) + step_p * float(np.vdot(dw, lam))
                  + step_p * step_d * float(np.vdot(dw, dl))) / n_products
        target = (mu_aff / mu) ** 3 * mu
        # The corrector's: target - z s - dz ds, and w q with q = (rows target
        # - w lam - dw dl) / w, made in place of the predictor's dl.
        rc_z = target + rc_z - dz * ds
        q = dl
        q *= dw
        q -= rows * target
        q *= inv_w
        q += lam
        np.negative(q, out=q)
        del dw, dl  # the predictor's; not held during the corrector's solve
        dz, dy, dw, dl, ds = direction(rc_z, q, g_t(q))
        del q
        step_p = 0.99 * _max_step([(z, dz), (w, dw)])
        step_d = 0.99 * _max_step([(lam, dl), (s, ds)])
        # w is updated in place; lam is not, since best_lam may be it.
        dw *= step_p
        w += dw
        dl *= step_d
        z, lam, s, y = z + step_p * dz, lam + dl, s + step_d * ds, y + step_d * dy
        # Not held while the next iteration's blocks are factored.
        blocks = inv_blocks = inv_w = dw = dl = None
    # Free the (K, R, R) arrays before the multipliers are gathered, so that
    # these fill the freed memory instead of landing above it and keeping the
    # heap from shrinking: that raised lb-8x8's peak RSS by about 0.4 MB.
    w = lam = r_rows = None
    # Row z[i] / b - z[j] <= 0 with multiplier l is z[i] - b z[j] <= 0 with l / b.
    pair_lam = np.stack([best_lam[:, first, second], best_lam[:, second, first]], axis=2)
    multipliers = (pair_lam * inv_bound[None, :, None]).transpose(1, 0, 2).ravel() * scale
    n_ratio = 2 * first.size * n_out
    return LpSolution(
        values=z.T.ravel(), objective_value=primal * scale, multipliers=multipliers,
        method="block-ipm", n_vars=n * n_out, n_rows=n_ratio + n, nnz=2 * n_ratio + n * n_out,
        nit=it, simplex_nit=0, ipm_nit=it, crossover_nit=0,
        solve_s=time.perf_counter() - start, from_basis=False, basis=None)


def lower_bound(
    partition: Partition,
    outputs: OutputDomain,
    eps_total: float,
    p: float,
    loss,
    prior,
) -> tuple[float, LpSolution]:
    """Universal lower bound on expected loss of any compliant mechanism.

    Aggregates the mechanism into one distribution per cell: the average
    of its rows at the cell's prior points (for a cell without points, its
    row at any point of the cell). Two cells' averages obey the ratio
    constraint at the largest distance between the cells. Each cell's
    objective coefficient is its point count times the cheapest
    prior-weighted loss among its points, so the program's optimum bounds
    the discretized expected loss from below for every prior.

    The value returned is a weak-duality certificate of that optimum, not
    a solver's primal objective: the inequality multipliers of a solve are
    turned into a bound by :func:`_dual_certificate`. It is the larger of
    that and the lambda = 0 certificate, the cheapest output per cell,
    which keeps it >= 0. Both are valid for any multipliers, so the value
    does not rest on the solver reaching a vertex or the optimum.

    The program is solved by :func:`_block_ipm`, which uses its per-output
    blocks, and its best certificate is the bound even when it stops
    unconverged; that stop is logged at INFO with its relative gap
    (:func:`_relative_gap`) and iteration count. Every bound is logged at
    DEBUG with its certificate, primal objective and gap, and the solve's
    ``n_vars``, ``n_rows``, ``nit`` and ``solve_s``.

    Pairs whose ratio bound exceeds exp(MAX_LOG_RATIO) are left out, which
    keeps the program solvable at any eps. Dropping rows only lowers the
    minimum, so the value stays a valid bound; once eps times the closest
    cell pair's distance exceeds MAX_LOG_RATIO no pair is left and the
    value is the cheapest output per cell, usually 0.

    Returns (the bound's value, the :class:`~anchorpriv.lpcore.LpSolution`
    its certificate came from).
    """
    if not eps_total >= 0:  # NaN fails too
        raise ValueError(f"total budget must be non-negative, got {eps_total:g}")
    n_cells, n_out = partition.n_cells, outputs.size
    points = np.asarray(prior.points, dtype=float)
    masses = np.asarray(prior.masses, dtype=float)
    loss_mat = loss.matrix_at(points, outputs)

    cells = locate_cells(partition, points)
    floor_loss = np.full((n_cells, n_out), np.inf)
    np.minimum.at(floor_loss, cells, masses[:, None] * loss_mat)
    # Cells without sample points count 0 points; a 0 floor keeps 0 * inf
    # out of their objective.
    floor_loss[~np.isfinite(floor_loss)] = 0.0
    objective = np.bincount(cells, minlength=n_cells)[:, None] * floor_loss

    first, second = np.triu_indices(n_cells, k=1)
    # Largest lp distance between the two cells of each pair, at corners.
    lower = partition.cell_lower
    upper = lower + partition.deltas
    worst = np.maximum(np.abs(lower[first] - upper[second]),
                       np.abs(upper[first] - lower[second]))
    log_ratio = eps_total * lp_distance_matrix(worst, np.zeros((1, partition.n_dims)), p)[:, 0]
    keep = log_ratio <= MAX_LOG_RATIO
    program = (objective, first[keep], second[keep], log_ratio[keep])
    sol = _block_ipm(*program)
    # Built only now, so its CSR rows and the solve's (K, R, R) arrays are
    # never alive together; the certificate reads the program, not the solve.
    certificate = _dual_certificate(_ratio_program(*program), sol.multipliers)
    gap = _relative_gap(sol.objective_value, certificate, float(objective.max()) or 1.0)
    if gap > IPM_GAP_TOL:
        log.info("block-ipm stopped at a relative gap of %.3g after %d iterations; its "
                 "certificate is the bound", gap, sol.nit)
    value = max(certificate, float(objective.min(axis=1).sum()))
    log.debug("lower bound at eps %g: certificate %.17g, primal objective %.17g, relative gap "
              "%.3g: %s", eps_total, certificate, sol.objective_value, gap,
              dict(n_vars=sol.n_vars, n_rows=sol.n_rows, nit=sol.nit, solve_s=sol.solve_s))
    return value, sol
