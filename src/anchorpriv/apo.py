"""Anchor perturbation programs.

Builds and solves the neighbor-constrained anchor LP with its linear
surrogate objective, the relaxed all-pairs anchor variant, the coarse
representative-grid LP, and the universal lower bound on the expected
loss of any mechanism meeting the same privacy constraint, over one
averaged distribution per cell, valid for every prior and certified from
the program's dual multipliers. Bound programs are solved by an
interior-point method of their own, which uses their per-output blocks.

Anchor programs are solved by column generation over their outputs: a
restricted master over the output columns in use, the others priced
without an LP by pushing each negative reduced cost along the lattice to
a positive one (:class:`_Pricing`). The stored table, zero off the
master's columns, is checked against every row of the whole program, and
its certificate is taken there with the master's and the pushed
multipliers, so nothing rests on the push. The all-pairs programs and the
bound are solved whole.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .budget import BudgetVector, check_budget
from .errors import SolverError
from .geometry import Partition, axis_neighbors, corner_weights, locate_cells, lp_distance_matrix
from .lpcore import (FEASIBILITY_TOL, CsrMatrix, LinearProgram, LpSolution, _residuals,
                     padded_start, solve_lp)

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
# The all-pairs programs leave out the rows of a pair (i, j) when a third
# point k lies on a shortest route between them: d_ik + d_kj is within this
# of d_ij, relative to it (_implied_pairs).
COLLINEAR_TOL = 1e-12
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
# lower_bound stacks budgets in one _block_ipm solve while each (B, K, R, R)
# array of the stack holds at most this many entries: every desk budget
# (K = 9, R = 16) fits in one stack, and each 8x8/K=16 budget, whose own
# arrays hold 2^16 entries, is solved alone. Stacking costs the memory of
# the whole stack and saves Python overhead only where the arrays are small:
# two stacked grid8 budgets took 328-334 ms against 293-303 ms one at a time.
STACK_MAX_ENTRIES = 2**16


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


def _check_ratio_bounds(log_bound, name):
    """Raise :class:`SolverError` when a ratio bound exceeds exp(MAX_HIGHS_LOG_RATIO)."""
    largest = float(np.max(log_bound, initial=0.0))
    if largest > MAX_HIGHS_LOG_RATIO:
        raise SolverError(
            f"{name} needs ratio bounds up to exp({largest:.6g}); HiGHS accepts at most "
            f"exp({MAX_HIGHS_LOG_RATIO:.6g}) = 1e15")


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
    _check_ratio_bounds(log_bound, name)
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
    log_bound = budget.eps[axis] * partition.deltas[axis]
    name = f"anchor program at eps {budget.total_eps:g}"
    lp = _ratio_program(coeffs.matrix, first, second, log_bound, name)
    anchors = partition.anchors
    # The lattice's shortest log-bound paths: Delta_l / delta_l pairs along
    # each axis l, at eps_l delta_l each.
    length = np.abs(anchors[:, None, :] - anchors[None, :, :]) @ budget.eps
    return _AnchorProgram(lp.objective, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq, lp.var_shape,
                          pairs=(first, second, log_bound), length=length, name=name)


@dataclass
class _AnchorProgram(LinearProgram):
    """An anchor program with its neighbour pairs, for :func:`solve_approx_apo`'s column generation.

    ``pairs`` holds (first, second, log_bound) of the neighbour pairs, in
    :func:`_ratio_program`'s order, ``length`` the (R, R) shortest paths
    between anchors over those log bounds, and ``name`` names the program.
    """

    pairs: tuple = ()
    length: np.ndarray = None
    name: str = "anchor program"

    def restricted(self, columns) -> LinearProgram:
        """The ratio program of the same pairs over the output columns ``columns`` alone."""
        return _ratio_program(self.objective.reshape(self.var_shape)[:, columns], *self.pairs,
                              self.name)


def _ratio_rows(pairs, outputs, n_out) -> np.ndarray:
    """Rows of the ratio program over ``n_out`` outputs that hold ``pairs`` x ``outputs``.

    Both rows of each (pair, output), pairs outer, in :func:`_ratio_program`'s order.
    """
    head = 2 * (np.asarray(pairs)[:, None] * n_out + np.asarray(outputs)[None, :])
    return (head[:, :, None] + np.arange(2)).ravel()


def _grown_start(sol: LpSolution, columns, grown: LinearProgram, new_columns) -> LpSolution | None:
    """A master's solution over ``columns`` as a start of the ``grown`` master over ``new_columns``.

    None when the master had one column, which leaves no basis.
    """
    if sol.basis is None:
        return None
    n_rows, n_out = grown.var_shape
    n_pairs = grown.n_ub_rows // (2 * n_out)
    at = np.searchsorted(new_columns, columns)
    variables = (np.arange(n_rows)[:, None] * n_out + at).ravel()
    rows = np.concatenate([_ratio_rows(np.arange(n_pairs), at, n_out),
                           grown.n_ub_rows + np.arange(n_rows)])
    return padded_start(sol, grown, variables, rows)


def _constant_solution(lp: LinearProgram, column: int) -> LpSolution:
    """The solution of ``lp``'s master over one output column: every row's total on it.

    Its multipliers are 0, and so is its solve: the master is never built.
    """
    n_rows, n_out = lp.var_shape
    n_ub = lp.n_ub_rows // n_out
    values = lp.b_eq.copy()
    return LpSolution(values=values, objective_value=float(values @ lp.objective[column::n_out]),
                      multipliers=np.zeros(n_ub), method="constant table", n_vars=n_rows,
                      n_rows=n_ub + n_rows, nnz=2 * n_ub + n_rows, nit=0, simplex_nit=0,
                      ipm_nit=0, crossover_nit=0, solve_s=0.0, from_basis=False, basis=None)


class _Pricing:
    """The neighbour pairs of an anchor program, to price its output columns without an LP.

    The rows of pair t = (i, j) and output k are z_ik - b_t z_jk <= 0 and its
    mirror. A multiplier mu on the first raises the reduced cost of entry
    (i, k) by mu and lowers that of (j, k) by b_t mu: it moves mu of a
    deficit from i to j at the price b_t. Each anchor's pairs are one row
    of a dense neighbour table, padded with a sentinel anchor R.
    ``length`` (R, R) holds the shortest paths between anchors over the
    pairs' log bounds, and row a of ``tents``, exp(-length[a]), is a
    column that meets every ratio row, peaked at anchor a.
    """

    def __init__(self, n_rows, first, second, log_bound, bound, length):
        self.n_rows, self.n_pairs = n_rows, first.size
        src, dst = np.concatenate([first, second]), np.concatenate([second, first])
        row = np.arange(src.size)  # of ub rows in (2, P) order: the first rows, then the mirrors
        order = np.lexsort((row, src))
        src, dst, row = src[order], dst[order], row[order]
        degree = np.bincount(src, minlength=n_rows)
        slot = np.arange(src.size) - np.repeat(np.cumsum(degree) - degree, degree)
        shape = (n_rows, int(degree.max(initial=0)))
        self.neighbour = np.full(shape, n_rows)
        self.neighbour[src, slot] = dst
        self.row = np.zeros(shape, dtype=np.intp)
        self.row[src, slot] = row
        self.cost = np.ones(shape)
        self.cost[src, slot] = np.concatenate([bound, bound])[order]
        self.log_cost = np.full(shape, np.inf)
        self.log_cost[src, slot] = np.concatenate([log_bound, log_bound])[order]
        self.length = length
        self.tents = np.exp(-length)

    def push(self, deficit) -> tuple[np.ndarray, np.ndarray, int]:
        """Multipliers on the columns' ratio rows that lift their reduced costs ``deficit`` to >= 0.

        ``deficit`` is (R, m): each column's reduced costs c_k - y at
        lambda = 0. Each sweep moves every negative entry one pair along:
        its multiplier lifts the entry to exactly 0 and charges b times
        its amount to the neighbour on a shortest log-bound path to the
        nearest entry with a positive reduced cost (the first such
        neighbour on a tie). A column's paths are taken again once one of
        its negative entries sits where such a path ended.

        A column is priced when no entry stays negative. A push never
        raises a tent's weighted sum of the column's reduced costs (moving
        d from i to j changes it by d (t_i - b t_j) <= 0, since the tent t
        meets the pair's rows), so a column that some tent gives a negative
        sum can never be priced, and is left. The sweeps end when every
        column is priced or left, when no negative entry has a positive one
        to move to, or after R sweeps.

        Returns (the multipliers, (P, m, 2) by pair, column and row, the
        columns still short of 0 somewhere, the sweeps made).
        """
        n_rows, n_cols = deficit.shape
        if not (self.n_pairs and n_cols):
            return np.zeros((self.n_pairs, n_cols, 2)), np.any(deficit < 0, axis=0), 0
        size = n_rows * n_cols
        # Flat, column by column: entry (i, k) at k R + i, and a sentinel at
        # the end that no push reaches (dist inf). Column k's neighbour table
        # and multiplier rows are the anchor's, offset to its own block.
        reduced = np.array(deficit, dtype=float).T.ravel()
        block = np.arange(n_cols)[:, None, None]
        neighbour = np.where(self.neighbour < n_rows, self.neighbour + n_rows * block, size)
        neighbour = neighbour.reshape(size, -1)
        row = (self.row * n_cols + block).reshape(size, -1)  # in (2P, m) order
        log_cost = np.tile(self.log_cost, (n_cols, 1))
        cost = np.tile(self.cost, (n_cols, 1))
        lam = np.zeros(2 * self.n_pairs * n_cols)
        dist = np.full(size + 1, np.inf)
        by_column = dist[:-1].reshape(n_cols, n_rows)
        target = np.zeros((n_cols, n_rows), dtype=bool)  # the positive entries dist was taken to
        stale = np.ones(n_cols, dtype=bool)
        sweeps = 0
        while sweeps < n_rows:
            short = reduced < 0
            columns = reduced.reshape(n_cols, n_rows)
            short_in = short.reshape(n_cols, n_rows)
            live = short_in.any(axis=1) & ((columns @ self.tents.T).min(axis=1) >= 0)
            if not live.any():
                break
            stale |= (short_in & target).any(axis=1)
            taken = (live & stale).nonzero()[0]
            if taken.size:
                stale[taken] = False
                target[taken] = columns[taken] > 0
                # Per column, the least of length's rows at its positive entries
                # (length is symmetric): the rows of every such entry, column by
                # column, reduced at each column's first.
                col, at = target[taken].nonzero()
                counts = np.bincount(col, minlength=taken.size)
                has = counts.nonzero()[0]
                by_column[taken] = np.inf
                if has.size:
                    by_column[taken[has]] = np.minimum.reduceat(
                        self.length[at], (counts.cumsum() - counts)[has], axis=0)
            node = (short & np.repeat(live, n_rows) & (dist[:-1] < np.inf)).nonzero()[0]
            if not node.size:
                break
            sweeps += 1
            slot = (log_cost[node] + dist[neighbour[node]]).argmin(axis=1)
            amount = -reduced[node]
            lam[row[node, slot]] += amount
            reduced[node] = 0.0
            reduced -= np.bincount(neighbour[node, slot], weights=cost[node, slot] * amount,
                                   minlength=size + 1)[:-1]
        pushed = lam.reshape(2, self.n_pairs, n_cols).transpose(1, 2, 0)
        return pushed, np.any(reduced.reshape(n_cols, n_rows) < 0, axis=1), sweeps


def _generated_solution(lp: _AnchorProgram, start: LpSolution | None) -> LpSolution:
    """The optimal solution of an anchor program, solved over the output columns it uses.

    A restricted master over a set S of output columns is solved, and
    every other column k priced: y_i is the least reduced cost of row i
    in the master, and column k prices out when multipliers on its own
    ratio rows lift c_k - y to >= 0 (:meth:`_Pricing.push`). The columns
    that do not price out join S, and the master is solved again from its
    last basis (:func:`_grown_start`), until every column prices out. S
    starts at ``start``'s columns, or at the constant table's column (the
    least column sum of the objective), and only grows; at worst it holds
    every column, which is the whole program.

    A master over one column is the constant table with no multipliers,
    and takes no solve. The others take :func:`solve_lp`, the first from
    ``start``'s basis when it has one. Returns the whole program's
    solution, zero off S, with the master's multipliers on S and the
    pushed ones off it, and the last master's statistics
    (:class:`~anchorpriv.lpcore.LpSolution`'s ``columns``). Each solve is
    logged at DEBUG on ``anchorpriv.apo``: the kept columns, the master
    rounds, the HiGHS solves and the push sweeps with their time.
    """
    n_rows, n_out = lp.var_shape
    objective = lp.objective.reshape(n_rows, n_out)
    first, second, log_bound = lp.pairs
    bound = -lp.a_ub.data[1::4 * n_out] if lp.a_ub is not None else np.empty(0)
    clock = time.perf_counter()
    pricing = _Pricing(n_rows, first, second, log_bound, bound, lp.length)
    push_s = time.perf_counter() - clock
    if start is not None and start.columns is not None:
        columns = start.columns
        sol = replace(start, values=None if start.values is None
                      else start.values.reshape(n_rows, n_out)[:, columns].ravel())
    else:
        columns, sol = np.array([np.argmin(objective.sum(axis=0))]), None
    rounds = solves = sweeps = 0
    grown_from = None  # the last master's (solution, columns), once they have grown
    while True:
        rounds += 1
        if columns.size == 1:
            sol = _constant_solution(lp, columns[0])
            least = objective[:, columns[0]]
        else:
            master = lp.restricted(columns)
            if grown_from is not None:
                sol = _grown_start(*grown_from, master, columns)
            solves += 1
            sol = solve_lp(master, start=sol)
            reduced = master.objective
            if master.a_ub is not None:
                reduced = reduced + master.a_ub.rmatvec(np.clip(sol.multipliers, 0.0, None))
            least = reduced.reshape(n_rows, columns.size).min(axis=1)
        # Boolean masks, not np.setdiff1d and np.union1d: those import numpy.ma.
        kept = np.zeros(n_out, dtype=bool)
        kept[columns] = True
        others = np.flatnonzero(~kept)
        deficit = objective[:, others] - least[:, None]
        negative = np.any(deficit < 0, axis=0)
        clock = time.perf_counter()
        pushed, short, made = pricing.push(deficit[:, negative])
        push_s += time.perf_counter() - clock
        sweeps += made
        added = others[negative][short]
        if not added.size:
            break
        grown_from = sol, columns
        kept[added] = True
        columns = np.flatnonzero(kept)
    lam = np.zeros((first.size, n_out, 2))
    lam[:, columns] = sol.multipliers.reshape(first.size, columns.size, 2)
    lam[:, others[negative]] = pushed
    values = np.zeros((n_rows, n_out))
    values[:, columns] = sol.values.reshape(n_rows, columns.size)
    log.debug("%s: %d of %d output columns, %d master rounds, %d HiGHS solves, %d push sweeps "
              "in %.3g s", lp.name, columns.size, n_out, rounds, solves, sweeps, push_s)
    return replace(sol, values=values.ravel(), multipliers=lam.ravel(), columns=columns,
                   objective_value=float(lp.objective @ values.ravel()))


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

    An anchor program (:func:`build_approx_apo`) is solved by column
    generation over its outputs (:func:`_generated_solution`). Its table,
    zero off the master's columns, must meet every row of the whole
    program to :data:`~anchorpriv.lpcore.FEASIBILITY_TOL`, and the
    certificate is taken on the whole program with the master's and the
    pushed multipliers, so a push that proves nothing only costs a larger
    master. ``start`` is an earlier anchor solution: its columns seed the
    master, and its basis starts the first master solve.

    An all-pairs program (:func:`_all_pairs_program`) is solved over its
    kept pairs, and its table is checked against every pair's rows to
    :data:`~anchorpriv.lpcore.FEASIBILITY_TOL`. Where that solve raises
    :class:`SolverError` or the table misses a row, the failure is logged
    at INFO and the program of every pair is solved, from the pruned
    solution's basis when HiGHS left one (the left-out rows' multipliers
    at 0, :func:`~anchorpriv.lpcore.padded_start`), and else from scratch.

    Returns (:class:`PerturbationTable`, the
    :class:`~anchorpriv.lpcore.LpSolution` it came from). ``start`` is
    an earlier solution, usually that of a neighbouring program; the solve
    starts from its basis (see :func:`solve_lp`).
    """
    if lp.var_shape is None:
        raise ValueError("program carries no table shape")
    if isinstance(lp, _AnchorProgram):
        sol = _generated_solution(lp, start)
        for kind, worst in zip(("bound", "inequality", "equality"),
                               _residuals(sol.values, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq)):
            if worst > FEASIBILITY_TOL:
                raise SolverError(f"{lp.name}: the master's table misses a {kind} row by "
                                  f"{worst:.3e}")
        return _solved_table(lp, sol)
    if not isinstance(lp, _AllPairsProgram):
        return _solved_table(lp, solve_lp(lp, start=start))
    pruned = None
    try:
        pruned = solve_lp(lp, start=start)
        table, sol = _solved_table(lp, pruned)
        worst = lp.worst_row(table.probs)
        if worst <= FEASIBILITY_TOL:
            return table, sol
        reason = f"its table misses a pair's row by {worst:.3e}"
    except SolverError as exc:
        pruned = pruned or exc.rejected
        reason = exc.report()
    log.info("%s over %d of %d pairs: %s; solving the program of every pair", lp.name,
             lp.kept.size, lp.n_pairs, reason)
    full = lp.full()
    if pruned is not None and pruned.basis is not None:
        rows = np.concatenate([_ratio_rows(lp.kept, np.arange(lp.var_shape[1]), lp.var_shape[1]),
                               full.n_ub_rows + np.arange(lp.var_shape[0])])
        pruned = padded_start(pruned, full, np.arange(lp.n_vars), rows)
    else:
        pruned = None
    return _solved_table(full, solve_lp(full, start=pruned))


def _solved_table(lp: LinearProgram, sol: LpSolution) -> tuple[PerturbationTable, LpSolution]:
    """The renormalized table of ``lp``'s solution, checked as :func:`solve_approx_apo` says."""
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


def _implied_pairs(dist) -> np.ndarray:
    """(R, R) mask of the pairs a third point implies, from their (R, R) distances.

    Pair (i, j) is implied when some k has d_ik + d_kj within COLLINEAR_TOL
    of d_ij, relative to it, with both d_ik and d_kj below d_ij. Its ratio
    rows then follow, up to rounding, from those of the two shorter pairs,
    and by induction on the distance from pairs no point implies. The
    routes i -> k -> j are formed for a few i at a time, at most 2^16 of
    them at once.
    """
    n = dist.shape[0]
    # Each point's distance to itself as inf, so that k = i and k = j never count.
    legs = dist + np.where(np.eye(n, dtype=bool), np.inf, 0.0)
    implied = np.empty((n, n), dtype=bool)
    chunk = max(1, 2**16 // (n * n))
    for lo in range(0, n, chunk):
        # [i, k, j]: the route i -> k -> j, where both legs are shorter than d_ij.
        direct, first = dist[lo:lo + chunk, None, :], legs[lo:lo + chunk, :, None]
        route = first + legs
        route[(first >= direct) | (legs >= direct)] = np.inf
        implied[lo:lo + chunk] = route.min(axis=1) <= (1.0 + COLLINEAR_TOL) * direct[:, 0]
    return implied


@dataclass
class _AllPairsProgram(LinearProgram):
    """A ratio program over the pairs no third point implies, and every pair's ratio bounds.

    ``pairs`` holds (first, second, log_bound) of every pair, kept or
    implied, in :func:`_ratio_program`'s order, ``kept`` the positions of
    the kept ones among them, and ``name`` names the program in messages.
    :func:`solve_approx_apo` solves the program of the kept pairs, checks
    its table against every pair's rows and solves :meth:`full` when that
    solve fails or the check does.
    """

    pairs: tuple = ()
    kept: np.ndarray = None
    name: str = "all-pairs program"

    @property
    def n_pairs(self) -> int:
        return self.pairs[0].size

    def full(self) -> LinearProgram:
        """The ratio program of every pair."""
        return _ratio_program(self.objective.reshape(self.var_shape), *self.pairs, self.name)

    def worst_row(self, table) -> float:
        """How far an (R, K) table misses the ratio rows of any pair, at worst."""
        first, second, log_bound = self.pairs
        bound = np.exp(log_bound)[:, None]
        return float(max(np.max(table[first] - bound * table[second], initial=0.0),
                         np.max(table[second] - bound * table[first], initial=0.0)))


def _all_pairs_program(objective, points, eps_total: float, p: float) -> _AllPairsProgram:
    """Ratio program bounding every pair of rows by exp(eps * d_p(point_i, point_j)).

    Only the pairs no third point implies (:func:`_implied_pairs`) get rows.
    Which those are depends on the points alone, so the programs of one
    point set have one shape at every budget. The 1e15 check of
    :func:`_ratio_program` reads every pair's bound.
    """
    first, second = np.triu_indices(points.shape[0], k=1)
    dist = lp_distance_matrix(points, points, p)
    log_bound = eps_total * dist[first, second]
    name = f"all-pairs program at eps {eps_total:g}"
    _check_ratio_bounds(log_bound, name)
    kept = np.flatnonzero(~_implied_pairs(dist)[first, second])
    lp = _ratio_program(objective, first[kept], second[kept], log_bound[kept], name)
    return _AllPairsProgram(lp.objective, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq, lp.var_shape,
                            pairs=(first, second, log_bound), kept=kept, name=name)


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


def _spd_inverse(a, stacked=False) -> np.ndarray:
    """Inverses of a stack of symmetric positive definite matrices.

    Each matrix is scaled to unit diagonal, shifted by _CHOLESKY_SHIFT on
    its diagonal and factored (:func:`_inverse_cholesky`); while the
    factorization fails it is retried with a 100-fold larger shift, at
    least 1e-14. With ``stacked``, the first axis holds the matrices of
    separate budgets, and where the factorization fails each budget's are
    retried on their own, so that one budget's shift never reaches
    another's. The caller refines its solves against the unshifted
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
            if stacked and len(a) > 1:
                return np.concatenate([_spd_inverse(a[b:b + 1]) for b in range(len(a))])
            shift = max(100.0 * shift, 1e-14)
    inv = np.swapaxes(inv_low, -1, -2) @ inv_low
    del inv_low
    inv /= outer()
    return inv


def _max_step(pairs, lead=()):
    """Largest step in [0, 1] along each (v, dv) that keeps every v >= 0, per budget.

    The leading axes ``lead`` of each v and dv run over the budgets of a
    stack, and the steps come in that shape: a scalar for one budget. A
    budget's step is 1 / max(-dv / v) over its entries with dv < 0, from
    one unmasked quotient: an entry with v = 0 and dv < 0 gives -inf and
    step 0, and the 0 / 0 entries off the ratio rows give NaN, which fmin
    skips. Taken with fmin against -1, a least quotient above -1, or NaN
    where every quotient is 0 / 0, gives the step 1.
    """
    least = None
    with np.errstate(divide="ignore", invalid="ignore"):
        for v, dv in pairs:
            quotient = np.fmin.reduce((dv / v).reshape(*lead, -1), axis=-1)
            least = quotient if least is None else np.fmin(least, quotient)
    return -1.0 / np.fmin(least, -1.0)


def _stalled(mus, it, best_it, gap) -> bool:
    """Whether a block-ipm solve has stalled (see IPM_STALL_ITER).

    ``mus`` holds mu at every iteration so far, iteration ``it``'s last;
    ``best_it`` is the iteration of the best certificate and ``gap`` that
    certificate's relative gap to the primal objective at ``it``.
    """
    return (it - best_it >= IPM_STALL_ITER and gap <= IPM_STALL_GAP
            and len(mus) > IPM_STALL_ITER and mus[-1] <= 0.01 * mus[-1 - IPM_STALL_ITER])


def _block_ipm(objective, programs) -> list[LpSolution]:
    """Solve ratio programs of one objective by a block-structured interior-point method.

    ``programs`` lists (first, second, log_ratio) per budget, and budget
    b's program is the one ``_ratio_program(objective, *programs[b])``
    builds, with an objective >= 0 and each pair of table rows listed at
    most once. Every ratio row couples two entries of one output column,
    so the normal matrix G^T D G + D_z of the Newton system is block
    diagonal, one dense (R, R) block per output, and the row sums add one
    (R, R) Schur complement, the sum of the blocks' inverses. Each
    iteration of Mehrotra's predictor-corrector method therefore factors
    K + 1 small matrices per budget (:func:`_spd_inverse`). The ratio rows'
    slacks and multipliers are (B, K, R, R) arrays over the B budgets,
    (K, R, R) for one: entry [b, k, i, j] stands for budget b's row
    z[i,k] - b_ij z[j,k] <= 0 divided by b_ij, its bound on the pair
    {i, j}, and entries of no row are held at slack 1 and multiplier 0.

    The budgets are solved as one stack, each with its own steps, Newton
    blocks, Schur complement, refinement and stops, and each leaves the
    stack when it stops: what a budget returns does not depend on the
    others, to the last bit. The objective is scaled to max 1. Each solve
    starts at the uniform table with every slack, multiplier and reduced
    cost 1, adds 1e-10 to the blocks' diagonals, and refines each Newton
    solve until its residual stops halving (at most 8 times). It stops
    once its best certificate (:func:`_dual_certificate`) is within
    IPM_GAP_TOL of its primal objective, relative to it, with every row met
    to IPM_GAP_TOL, once it stalls (:func:`_stalled`), or after
    IPM_MAX_ITER iterations.

    Returns one :class:`~anchorpriv.lpcore.LpSolution` per budget, in the
    order of ``programs``, with method "block-ipm": ``values`` and
    ``objective_value`` at the last iterate, ``multipliers`` those of the
    best certificate seen, in the row order of ``_ratio_program``,
    ``nit`` = ``ipm_nit`` the iterations run, and ``solve_s`` the time
    from the start of the stack until the budget left it. Nothing in it is
    a vertex, so ``basis`` is None.
    """
    start = time.perf_counter()
    objective = np.asarray(objective, dtype=float)
    n, n_out = objective.shape
    pairs = [(np.asarray(first, dtype=np.intp), np.asarray(second, dtype=np.intp))
             for first, second, _ in programs]
    inv_bounds = [np.exp(-np.asarray(log_ratio, dtype=float)) for *_, log_ratio in programs]
    scale = float(objective.max()) or 1.0
    c = objective.T / scale
    alpha = np.zeros((len(programs), n, n))
    rows = np.zeros((len(programs), n, n))
    for a, r, (first, second), inv_bound in zip(alpha, rows, pairs, inv_bounds):
        a[first, second] = a[second, first] = inv_bound
        r[first, second] = r[second, first] = 1.0
    # One (R, R) array where the whole stack shares it: rows where every
    # budget keeps the same pairs, alpha for a lone budget.
    if all(np.array_equal(r, rows[0]) for r in rows[1:]):
        rows = rows[0]
    # The budget axis: none for a lone budget, whose arrays keep the shapes
    # of a one-budget solve. Per-budget values come in shape lead.
    lead = (len(programs),) if len(programs) > 1 else ()
    if not lead:
        alpha = alpha[0]
    n_products = [n_out * (n + 2 * first.size) for first, _ in pairs]  # z s and w lam pairs
    diag = np.arange(n)

    def by_output(a):
        # A (B, R, R) array with an axis for the outputs; an (R, R) one as it is.
        return a if a.ndim == 2 else a[:, None]

    def per_budget(a):
        # Each budget's entries of a stacked array, one row per budget.
        return a.reshape(len(ids), -1)

    # alpha[i, j] v[k, i] and rows[i, j] v[k, j] per budget, the same products
    # as by broadcasting, which numpy forms about half as fast at (16, 64, 64).
    def alpha_first(v):
        return np.einsum("...ij,...ki->...kij", alpha, v)

    def rows_second(v):
        return np.einsum("...ij,...kj->...kij", rows, v)

    # The transpose of the ratio rows' map v -> alpha[i, j] v[k, i] - v[k, j]:
    # (B, K, R, R), 0 off the ratio rows -> (B, K, R). einsum reads u once
    # per sum and builds no alpha * u temporary.
    def g_t(u):
        return np.einsum("...ij,...kij->...ki", alpha, u) - np.einsum("...kij->...kj", u)

    z = np.full((*lead, n_out, n), 1.0 / n_out)
    s = np.ones((*lead, n_out, n))
    y = np.zeros((*lead, n))
    lam = np.broadcast_to(by_output(rows), (*lead, n_out, n, n)).copy()
    w = np.ones((*lead, n_out, n, n))
    rows_k, neg_alpha, alpha_sq = by_output(rows), -by_output(alpha), alpha * alpha
    # Per budget in the stack: its index in programs, its best certificate,
    # that iterate's multipliers and iteration, and mu at each iteration.
    ids = list(range(len(programs)))
    best, best_it = [-math.inf] * len(ids), [0] * len(ids)
    best_lam = list(lam.reshape(len(ids), n_out, n, n))
    mus = [[] for _ in ids]
    solutions = [None] * len(ids)
    # Off the ratio rows, lam, w * lam, both directions' dw and dl and the
    # (B, K, R, R) right-hand sides stay exactly 0 and w stays 1, so a product
    # with one of them needs no rows mask.
    for it in range(IPM_MAX_ITER + 1):
        # alpha z[k, i] - z[k, j] + w on the ratio rows, 0 off them.
        r_rows = w - z[..., None, :]
        r_rows *= rows_k
        r_rows += alpha_first(z)
        r_sums = z.sum(axis=-2) - 1.0
        g_lam = g_t(lam)
        reduced = c + g_lam
        flat = per_budget(r_rows)
        infeasible = np.maximum(np.maximum(flat.max(axis=1), -flat.min(axis=1)),
                                per_budget(np.abs(r_sums)).max(axis=1)).tolist()
        primal = per_budget(c * z).sum(axis=1).tolist()
        certificate = per_budget(reduced.min(axis=-2)).sum(axis=1).tolist()
        zs = z * s
        zs_sum = per_budget(zs).sum(axis=1).tolist()
        w_flat, lam_flat = per_budget(w), per_budget(lam)
        kept, wl, mu = [], [], []
        for b, budget in enumerate(ids):
            if certificate[b] > best[b]:
                best[b], best_it[b] = certificate[b], it
                best_lam[b] = lam_flat[b].reshape(n_out, n, n)
            gap = _relative_gap(primal[b], best[b], 1.0)
            if it < IPM_MAX_ITER and not (infeasible[b] <= IPM_GAP_TOL and gap <= IPM_GAP_TOL):
                wl_b = float(np.vdot(w_flat[b], lam_flat[b]))
                mus[b].append((zs_sum[b] + wl_b) / n_products[budget])
                if not _stalled(mus[b], it, best_it[b], gap):
                    kept.append(b)
                    wl.append(wl_b)
                    mu.append(mus[b][-1])
        if not kept:
            # Free the (B, K, R, R) arrays before the multipliers are gathered,
            # so that these fill the freed memory instead of landing above it
            # and keeping the heap from shrinking: that raised lb-8x8's peak
            # RSS by about 0.4 MB.
            w = lam = r_rows = flat = w_flat = lam_flat = None
        z_flat = per_budget(z)
        for b in (b for b in range(len(ids)) if b not in kept):
            budget = ids[b]
            first, second = pairs[budget]
            # Row z[i] / b - z[j] <= 0 with multiplier l is z[i] - b z[j] <= 0 with l / b.
            pair_lam = np.stack([best_lam[b][:, first, second], best_lam[b][:, second, first]],
                                axis=2)
            multipliers = (pair_lam * inv_bounds[budget][None, :, None]).transpose(1, 0, 2) \
                .ravel() * scale
            n_ratio = 2 * first.size * n_out
            solutions[budget] = LpSolution(
                values=z_flat[b].reshape(n_out, n).T.ravel(), objective_value=primal[b] * scale,
                multipliers=multipliers, method="block-ipm", n_vars=n * n_out,
                n_rows=n_ratio + n, nnz=2 * n_ratio + n * n_out, nit=it, simplex_nit=0,
                ipm_nit=it, crossover_nit=0, solve_s=time.perf_counter() - start,
                from_basis=False, basis=None)
        if not kept:
            break
        if len(kept) < len(ids):
            # Only a stack of budgets gets here: a lone budget ends the solve.
            ids, best, best_lam, best_it, mus = (
                [part[b] for b in kept] for part in (ids, best, best_lam, best_it, mus))
            lead = (len(ids),)
            z, s, y, lam, w, r_rows, r_sums, g_lam, reduced, zs = (
                a[kept] for a in (z, s, y, lam, w, r_rows, r_sums, g_lam, reduced, zs))
            alpha = alpha[kept]
            rows = rows if rows.ndim == 2 else rows[kept]
            rows_k, neg_alpha, alpha_sq = by_output(rows), -by_output(alpha), alpha * alpha
        del flat, w_flat, lam_flat, z_flat  # views, which would hold a pruned stack's arrays
        r_dual = reduced - y[..., None, :] - s
        # One divide per iteration; the passes below multiply by it.
        inv_w = 1.0 / w
        d_rows, d_z = lam * inv_w, s / z
        dr = d_rows * r_rows
        g_dr = g_t(dr)  # both directions' right-hand sides read only this of dr
        del dr
        blocks = d_rows + np.swapaxes(d_rows, -1, -2)
        blocks *= neg_alpha
        blocks[..., diag, diag] = np.einsum("...ij,...kij->...ki", alpha_sq, d_rows) \
            + np.einsum("...kij->...kj", d_rows) + d_z + 1e-10
        del d_rows  # one (B, K, R, R) array fewer at the factorization's peak
        inv_blocks = _spd_inverse(blocks, stacked=bool(lead))
        inv_schur = _spd_inverse(inv_blocks.sum(axis=-3), stacked=bool(lead))

        def reduced_solve(h, r):
            # blocks dz - dy = h and sum_k dz[k] = r, per budget.
            u = (inv_blocks @ h[..., None])[..., 0]
            dy = (inv_schur @ (r - u.sum(axis=-2))[..., None])[..., 0]
            return u + (inv_blocks @ dy[..., None, :, None])[..., 0], dy

        def direction(rc_z, q, g_q):
            # The Newton direction whose complementarity right-hand sides
            # are rc_z for z s and w q for w lam; g_q is g_t(q).
            h = -r_dual - g_dr - g_q + rc_z / z
            dz, dy = reduced_solve(h, -r_sums)
            last = [math.inf] * len(ids)
            for _ in range(8):
                res_h = h - (blocks @ dz[..., None])[..., 0] + dy[..., None, :]
                res_r = -r_sums - dz.sum(axis=-2)
                size = np.maximum(np.abs(res_h).reshape(len(ids), -1).max(axis=1),
                                  np.abs(res_r).reshape(len(ids), -1).max(axis=1)).tolist()
                # Each budget is refined again while its residual halves.
                more = [new < old / 2 for new, old in zip(size, last)]
                if not any(more):
                    break
                ez, ey = reduced_solve(res_h, res_r)
                if all(more):
                    last, dz, dy = size, dz + ez, dy + ey
                else:
                    last = [new if m else old for new, old, m in zip(size, last, more)]
                    more = np.array(more)
                    dz = np.where(more[:, None, None], dz + ez, dz)
                    dy = np.where(more[:, None], dy + ey, dy)
            # -r_rows - (alpha dz[k, i] - dz[k, j]).
            dw = rows_second(dz)
            dw -= alpha_first(dz)
            dw -= r_rows
            dl = lam * dw  # then q - lam dw / w in place: one (B, K, R, R) array fewer
            dl *= inv_w
            np.subtract(q, dl, out=dl)
            return dz, dy, dw, dl, (rc_z - s * dz) / z

        # The predictor's right-hand sides are -z s and -w lam.
        rc_z = -zs
        dz, dy, dw, dl, ds = direction(rc_z, -lam, -g_lam)
        step_p = _max_step([(z, dz), (w, dw)], lead)
        step_d = _max_step([(lam, dl), (s, ds)], lead)
        # sum (w + step_p dw) (lam + step_d dl), expanded so that it forms no
        # (B, K, R, R) array.
        zs_aff = per_budget((z + step_p[..., None, None] * dz)
                            * (s + step_d[..., None, None] * ds)).sum(axis=1).tolist()
        w_flat, lam_flat, dw_flat, dl_flat = (per_budget(a) for a in (w, lam, dw, dl))
        target = np.reshape([
            (mu_aff / mu_b) ** 3 * mu_b for mu_b, mu_aff in zip(mu, (
                (zs_aff[b] + wl[b] + sd * float(np.vdot(w_flat[b], dl_flat[b]))
                 + sp * float(np.vdot(dw_flat[b], lam_flat[b]))
                 + sp * sd * float(np.vdot(dw_flat[b], dl_flat[b]))) / n_products[ids[b]]
                for b, (sp, sd) in enumerate(zip(np.ravel(step_p).tolist(),
                                                 np.ravel(step_d).tolist()))))], lead)
        del w_flat, lam_flat, dw_flat, dl_flat
        # The corrector's: target - z s - dz ds, and w q with q = (rows target
        # - w lam - dw dl) / w, made in place of the predictor's dl.
        rc_z = target[..., None, None] + rc_z - dz * ds
        q = dl
        q *= dw
        q -= rows_k * target[..., None, None, None]
        q *= inv_w
        q += lam
        np.negative(q, out=q)
        del dw, dl  # the predictor's; not held during the corrector's solve
        dz, dy, dw, dl, ds = direction(rc_z, q, g_t(q))
        del q
        step_p = 0.99 * _max_step([(z, dz), (w, dw)], lead)
        step_d = 0.99 * _max_step([(lam, dl), (s, ds)], lead)
        # w is updated in place; lam is not, since best_lam may be it.
        dw *= step_p[..., None, None, None]
        w += dw
        dl *= step_d[..., None, None, None]
        z, lam = z + step_p[..., None, None] * dz, lam + dl
        s, y = s + step_d[..., None, None] * ds, y + step_d[..., None] * dy
        # Not held while the next iteration's blocks are factored.
        blocks = inv_blocks = inv_w = dw = dl = None
    return solutions


def lower_bound(
    partition: Partition,
    outputs: OutputDomain,
    eps,
    p: float,
    loss,
    prior,
):
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

    ``eps`` is one total budget or a sequence of them. The budgets'
    programs differ only in their ratio bounds, and :func:`_block_ipm`
    solves them as stacks of consecutive budgets, each stack holding at
    most STACK_MAX_ENTRIES entries in each of its (B, K, R, R) arrays (a
    budget whose own arrays are larger is solved alone). A budget's bound
    is the same, to the last bit, whichever budgets share its stack. Each
    solve's best certificate is the bound even when it stops unconverged;
    that stop is logged at INFO with its relative gap
    (:func:`_relative_gap`) and iteration count. Every bound is logged at
    DEBUG with its certificate, primal objective and gap, and the solve's
    ``n_vars``, ``n_rows``, ``nit`` and ``solve_s``.

    Pairs whose ratio bound exceeds exp(MAX_LOG_RATIO) are left out, which
    keeps the program solvable at any eps. Dropping rows only lowers the
    minimum, so the value stays a valid bound; once eps times the closest
    cell pair's distance exceeds MAX_LOG_RATIO no pair is left and the
    value is the cheapest output per cell, usually 0.

    Returns (the bound's value, the :class:`~anchorpriv.lpcore.LpSolution`
    its certificate came from) for one budget, and a list of such pairs,
    in the order of ``eps``, for a sequence.
    """
    budgets = [eps] if np.ndim(eps) == 0 else list(eps)
    for eps_total in budgets:
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
    distance = lp_distance_matrix(worst, np.zeros((1, partition.n_dims)), p)[:, 0]
    programs = []
    for eps_total in budgets:
        log_ratio = eps_total * distance
        keep = log_ratio <= MAX_LOG_RATIO
        programs.append((first[keep], second[keep], log_ratio[keep]))
    per_stack = max(1, STACK_MAX_ENTRIES // (n_out * n_cells * n_cells))
    solutions = [sol for b in range(0, len(budgets), per_stack)
                 for sol in _block_ipm(objective, programs[b:b + per_stack])]
    bounds = []
    for eps_total, program, sol in zip(budgets, programs, solutions):
        # Built only now, so its CSR rows and the solve's (B, K, R, R) arrays
        # are never alive together; the certificate reads the program, not
        # the solve.
        certificate = _dual_certificate(_ratio_program(objective, *program), sol.multipliers)
        gap = _relative_gap(sol.objective_value, certificate, float(objective.max()) or 1.0)
        if gap > IPM_GAP_TOL:
            log.info("block-ipm stopped at a relative gap of %.3g after %d iterations; its "
                     "certificate is the bound", gap, sol.nit)
        value = max(certificate, float(objective.min(axis=1).sum()))
        log.debug("lower bound at eps %g: certificate %.17g, primal objective %.17g, relative "
                  "gap %.3g: %s", eps_total, certificate, sol.objective_value, gap,
                  dict(n_vars=sol.n_vars, n_rows=sol.n_rows, nit=sol.nit, solve_s=sol.solve_s))
        bounds.append((value, sol))
    return bounds[0] if np.ndim(eps) == 0 else bounds
