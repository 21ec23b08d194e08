"""Linear-program holder and a deterministic solve wrapper.

Programs arrive already assembled: the caller hands over the objective
and the sparse constraint matrices (:class:`CsrMatrix`) with their
right-hand sides. Every variable is non-negative with no upper bound,
because every program the package solves is a table of probabilities or
masses. There is no row builder and no MPS writer. Programs are solved by
HiGHS through the binding that scipy bundles, which is deterministic for a
fixed input and returns basic solutions. The holder hides the backend so
callers only see :class:`LinearProgram` and :class:`LpSolution`.

The binding is the one scipy module this package loads, and it is loaded
on the first :func:`linprog` call, not at import: 6-11 ms and 3.7 MB
that ``lower-bound`` and ``audit``, which make no HiGHS call, never pay,
and that ``synthesize`` and ``compare`` pay once their instance is built.
One lock-guarded, cached loader (:func:`_binding`) serves every call, so
two threads making the first call together get one module. The binding is
loaded from scipy's directory as ``scipy.optimize._highspy._core`` without
running ``scipy/optimize/__init__``, which with ``scipy.sparse`` would
take about 0.5 s and 40 MB (see "Start-up" in the README's "Solver"
section), and registered in ``sys.modules``: a later ``import
scipy.optimize`` reuses it, and when ``scipy.optimize`` was imported first
the loader reuses scipy's copy. ``lpcore.highs`` is the loaded binding.

:func:`linprog` is the one HiGHS call. It hands HiGHS the dual of the
program it is given, min b_ub.l - b_eq.y s.t. -A_ub^T l + A_eq^T y <= c,
l >= 0, y free: every table program is tall (4,689 rows for 1,296
variables in the 8x8 anchor program), and HiGHS's simplex keeps a basis
with one row per constraint, where the dual has one row per table entry.
The stacked CSR rows of the program are the dual's CSC columns, so the
dual costs no transpose. The answer is read back in the program's terms:
its values are the dual's row duals negated, its inequality multipliers
are l, and its model status is the dual's read through duality (an
unbounded dual is an infeasible program). :func:`linprog` returns the
optimal :class:`LpSolution` or raises :class:`SolverError` with the
HiGHS method and that status, as in ``highs-ds failed: (HiGHS Status 8:
Infeasible)``. It also raises when an optimal solution is not finite or
misses a row or a bound of the program by more than
:data:`FEASIBILITY_TOL`. HiGHS runs with presolve off: on the dual,
presolve turned the desk anchor programs at eps 1e-9 into solves that
did not end.

The HiGHS algorithm is chosen by size and shape. Every solve below
:data:`IPM_MIN_VARS` variables runs simplex. A table program there that
is not tall (see below) starts at the constant table (every row's total on
the output of least total cost), which meets every ratio row at any
budget: :func:`_constant_basis` builds its basis of the dual, and dual
simplex on the dual, the program's own primal simplex, runs from it.
Other programs run dual simplex on the dual from scratch. From
:data:`IPM_MIN_VARS` on the interior point solver (IPX) runs with
crossover, unless the program has more than :data:`IPM_MAX_ROWS_PER_VAR`
rows per variable, which stays on dual simplex from scratch. Every route
returns a basic solution. When a constant start or an IPX solve raises,
the failure is logged at INFO and the same program is solved on dual
simplex from scratch.

A solve can also start from the optimal basis of an earlier solution of
a program of the same shape (``start=``). When the earlier table meets
the program's rows within :data:`FEASIBILITY_TOL`, as a smaller budget's
table meets every row of a larger budget's program, dual simplex on the
dual runs from that basis; otherwise, as between neighbouring splits of
one budget, primal simplex on the dual (the dual simplex method of the
program itself), which takes a few hundred iterations or fewer when the
two programs differ only in some coefficients. If that solve raises, the
failure is logged at INFO and the program is solved from scratch as
above. HiGHS is handed the dual's arrays in one ``passModel`` call.

Anchor programs reach :func:`solve_lp` only as restricted masters:
``apo.solve_approx_apo`` solves them over the output columns they use
(column generation), so their size is the master's, a few of K columns,
and a master over one column takes no solve at all. A cold master starts
at the constant table. A master that grows starts from the last one's
basis padded with the new columns (:func:`padded_start`): in the dual the
new entries' rows are basic and the new ratio rows' columns sit at 0, the
padded table meets every row, and dual simplex on the dual runs from it.
The same padding, along rows, starts the program of every pair after a
pruned all-pairs solve whose table misses a left-out row; primal simplex
on the dual runs from it. A :class:`SolverError` for a solution that
misses a residual check carries that solution (``rejected``), basis and
all, so such a fallback can start from it too.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import SolverError

__all__ = ["CsrMatrix", "LinearProgram", "LpSolution", "solve_lp"]

log = logging.getLogger(__name__)

HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs(directory) -> object:
    """Load scipy's HiGHS binding from ``directory`` as :data:`HIGHS_MODULE`.

    The module is registered in ``sys.modules`` under its own name, so a
    later ``import scipy.optimize`` reuses it instead of loading it again.
    Raises ImportError, naming scipy's version, when ``directory`` holds
    no such extension.
    """
    spec = importlib.machinery.PathFinder.find_spec(HIGHS_MODULE, [str(directory)])
    if spec is None:
        from importlib.metadata import version

        raise ImportError(f"no HiGHS binding {HIGHS_MODULE} in {directory} (scipy "
                          f"{version('scipy')}); anchorpriv needs scipy>=1.15")
    module = importlib.util.module_from_spec(spec)
    sys.modules[HIGHS_MODULE] = module
    spec.loader.exec_module(module)
    return module


def _scipy_highs_dir() -> Path:
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed; anchorpriv needs scipy>=1.15")
    return Path(scipy.submodule_search_locations[0], "optimize", "_highspy")


_LOAD_LOCK = threading.Lock()


@functools.cache
def _binding():
    """The HiGHS binding: scipy's copy if it is loaded, else :func:`_load_highs`'s."""
    # Under the lock, a thread that missed the cache while another loaded
    # the binding finds it in sys.modules instead of loading it again.
    with _LOAD_LOCK:
        return sys.modules.get(HIGHS_MODULE) or _load_highs(_scipy_highs_dir())


def __getattr__(name):
    if name == "highs":
        return _binding()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


FEASIBILITY_TOL = 1e-7

# HiGHS is run well below the contract tolerances so downstream log-space
# constraint checks keep their slack budget.
_SOLVE_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

# The simplex strategy of a solve from a start basis, in HiGHS's terms for
# the dual it is handed. Dual simplex on the dual, the program's own primal
# simplex, keeps the program's rows met, so it starts from a table that
# meets them: the constant table, or an earlier solution that meets the
# program's rows. Primal simplex on the dual, the program's dual simplex,
# starts from any other earlier solution.
_FEASIBLE_OPTIONS = {**_SOLVE_OPTIONS, "simplex_strategy": 1}
_NEIGHBOUR_OPTIONS = {**_SOLVE_OPTIONS, "simplex_strategy": 4}

# Where a solve's start basis comes from: none, the constant table
# (_constant_basis), or an earlier solution (solve_lp's ``start``) whose
# table meets the program's rows or does not.
_START_KINDS = ("none", "constant table", "feasible basis", "neighbour basis")

# The options scipy.optimize.linprog sets for the methods "highs-ds" and
# "highs-ipm" when none of its own are given, but with presolve off. Set
# them too, and a solve from scratch is bitwise equal to scipy's on the
# explicit dual with presolve=False.
_HIGHS_METHOD_SOLVERS = {"highs-ds": "simplex", "highs-ipm": "ipm"}
_SCIPY_OPTIONS = {
    "presolve": "off",
    "highs_debug_level": 0,
    "output_flag": False,
    "log_to_console": False,
    "simplex_strategy": 1,  # dual simplex
}

# Programs with fewer variables run dual simplex, table programs that are
# not tall from the constant table; from here on they go to the interior
# point solver. On anchor programs (one thread) the constant start is
# faster up to 2,704 variables, even with IPX at 3,025 and 3,600, and
# slower from 4,225 on; see the README's "Solver" section.
IPM_MIN_VARS = 3000

# Programs with more rows per variable than this stay on dual simplex from
# scratch. Of the package's programs only the all-pairs tables of AIPO-R
# and the coarse LP are this tall. IPX with crossover solves them faster,
# but on the 8x8/K=16 AIPO-R program at eps 10 its multipliers certify
# 6.4e-5 less than its objective, and the optimality check of
# apo.solve_approx_apo would fail the solve, where dual simplex solves it.
# The constant start is no cure: on that program it took 214.5 s at eps 10
# against 69 s from scratch. See the README's "Solver" section.
IPM_MAX_ROWS_PER_VAR = 8


class CsrMatrix:
    """A sparse matrix in compressed sparse row form.

    Row r holds the entries ``indptr[r]:indptr[r + 1]`` of ``indices``
    (their columns) and ``data`` (their values), as in scipy's
    ``csr_array``. Both products add each output's terms in row order, as
    scipy's CSR products do, so they return the same bits.
    """

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.intp)
        self.indices = np.asarray(indices, dtype=np.intp)
        self.data = np.asarray(data, dtype=float)
        self.shape = (int(shape[0]), int(shape[1]))
        if self.indptr.shape != (self.shape[0] + 1,) or self.indptr[0] != 0 \
                or np.any(np.diff(self.indptr) < 0) or self.indptr[-1] != self.data.size \
                or self.indices.shape != self.data.shape:
            raise ValueError(f"inconsistent CSR arrays for shape {self.shape}")
        if self.nnz and not 0 <= self.indices.min() <= self.indices.max() < self.shape[1]:
            raise ValueError(f"column index out of range for shape {self.shape}")

    @classmethod
    def from_dense(cls, a) -> CsrMatrix:
        """The nonzero entries of a 2-D array-like, row by row."""
        a = np.asarray(a, dtype=float)
        if a.ndim != 2:
            raise ValueError(f"constraint matrix must be 2-D, got {a.ndim}-D")
        rows, cols = np.nonzero(a)
        indptr = np.concatenate([[0], np.cumsum(np.count_nonzero(a, axis=1))])
        return cls(indptr, cols, a[rows, cols], a.shape)

    @property
    def nnz(self) -> int:
        return self.data.size

    def entry_rows(self) -> np.ndarray:
        """The row of each entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def __matmul__(self, x) -> np.ndarray:
        """A x."""
        return np.bincount(self.entry_rows(), weights=self.data * np.asarray(x)[self.indices],
                           minlength=self.shape[0])

    def rmatvec(self, y) -> np.ndarray:
        """A^T y."""
        # y repeated along each row's entries, which y[self.entry_rows()] would
        # also give after building an index array as long.
        weights = np.repeat(np.asarray(y, dtype=float), np.diff(self.indptr))
        weights *= self.data
        return np.bincount(self.indices, weights=weights, minlength=self.shape[1])


@dataclass
class LinearProgram:
    """min c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  x >= 0.

    ``a_ub`` and ``a_eq`` are :class:`CsrMatrix` (a dense 2-D array-like
    is converted) or ``None`` when the program has no rows of that kind.
    ``var_shape`` optionally records the logical 2-D shape of the variable
    vector for table-valued programs.
    """

    objective: np.ndarray
    a_ub: CsrMatrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: CsrMatrix | None = None
    b_eq: np.ndarray | None = None
    var_shape: tuple | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float).ravel()
        if self.objective.size < 1:
            raise ValueError("objective must have at least one variable")
        self.a_ub, self.b_ub = self._checked_rows(self.a_ub, self.b_ub, "ub")
        self.a_eq, self.b_eq = self._checked_rows(self.a_eq, self.b_eq, "eq")
        if self.var_shape is not None and int(np.prod(self.var_shape)) != self.n_vars:
            raise ValueError(f"var_shape {self.var_shape} does not hold {self.n_vars} variables")

    def _checked_rows(self, mat, rhs, kind):
        if mat is None:
            if rhs is not None:
                raise ValueError(f"b_{kind} given without a_{kind}")
            return None, None
        if not isinstance(mat, CsrMatrix):
            mat = CsrMatrix.from_dense(mat)
        rhs = np.asarray(rhs, dtype=float).ravel()
        if mat.shape[1] != self.n_vars:
            raise ValueError(f"a_{kind} has {mat.shape[1]} columns, expected {self.n_vars}")
        if rhs.shape != (mat.shape[0],):
            raise ValueError(f"b_{kind} has {rhs.size} entries, expected {mat.shape[0]}")
        return mat, rhs

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_ub_rows(self) -> int:
        return 0 if self.a_ub is None else self.a_ub.shape[0]

    @property
    def n_eq_rows(self) -> int:
        return 0 if self.a_eq is None else self.a_eq.shape[0]

    def matrices(self):
        """(A_ub, b_ub, A_eq, b_eq) for the backend; x >= 0 throughout."""
        return self.a_ub, self.b_ub, self.a_eq, self.b_eq


@dataclass
class LpSolution:
    """Optimal solution of a program, with the statistics of its solve.

    ``values`` holds the variables and ``objective_value`` the objective
    at them. ``multipliers`` are the inequality rows' Lagrange multipliers,
    the dual program's values on those rows, one per row of ``a_ub``
    (empty without such rows); they are >= 0 up to the solver's
    tolerances.

    The statistics say what was solved and how: the HiGHS ``method`` that
    returned the solution (``highs-ds`` after a retry and from a start
    basis), the program's size (``n_rows`` counts both row kinds, ``nnz``
    their nonzeros), the iterations of each HiGHS algorithm
    (``simplex_nit``, which includes a simplex clean-up after crossover,
    ``ipm_nit`` and ``crossover_nit``) with their sum ``nit``, and that
    solve's wall time ``solve_s``. ``from_basis`` says whether that solve
    started from the basis of an earlier solution (:func:`solve_lp`'s
    ``start``); it is False after a start that failed and a solve from
    scratch, and after a start at the constant table, which is a solve
    from scratch too. ``basis`` is the optimal basis of the dual HiGHS solved,
    opaque, for :func:`solve_lp`'s ``start``; it is None when the solver
    left none, as after ``apo._block_ipm``.

    ``columns`` is None unless the solution comes from a restricted master
    of ``apo.solve_approx_apo``'s column generation: then ``values`` and
    ``multipliers`` are the whole table program's, and ``columns`` lists,
    in increasing order, the output columns of the last master, which the
    statistics and ``basis`` describe. A master over one column needs no
    solve: its ``method`` reads "constant table", with no basis.
    """

    values: np.ndarray | None
    objective_value: float
    multipliers: np.ndarray | None
    method: str
    n_vars: int
    n_rows: int
    nnz: int
    nit: int
    simplex_nit: int
    ipm_nit: int
    crossover_nit: int
    solve_s: float
    from_basis: bool
    basis: object
    columns: np.ndarray | None = None

    def as_start(self) -> LpSolution:
        """This solution without ``multipliers`` (None).

        A :func:`solve_lp` ``start`` is read for its basis, its program's
        size and its ``values``, which tell whether it meets the rows of
        the program it starts; a solution kept to start later solves need
        not keep the multipliers, one per inequality row.
        """
        return replace(self, multipliers=None)


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, method="highs-ds", options=None,
            basis=None, start="none") -> LpSolution:
    """One checked HiGHS solve of min c.x s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    ``A_ub`` and ``A_eq`` are :class:`CsrMatrix` or None. HiGHS is handed
    the dual program (:func:`_dual_model`) with scipy's options for
    ``method`` ("highs-ds" or "highs-ipm") and presolve off, so a solve
    without ``basis`` is bitwise equal to ``scipy.optimize.linprog`` on
    that dual. ``basis`` is a basis of that dual, for a program of the
    same size; HiGHS starts from it. ``start``, one of
    ``_START_KINDS``, says where it came from: "none" without a basis,
    "constant table" for :func:`_constant_basis`'s, and "feasible basis"
    or "neighbour basis" for an earlier solution's, which is what
    ``from_basis`` records.

    The answer is read back in the primal's terms: ``values`` are the
    dual's row duals negated, ``multipliers`` its values on the columns
    of ``A_ub``'s rows, and ``objective_value`` is c.x. Returns the
    optimal :class:`LpSolution`. Any other model status raises
    :class:`SolverError` with HiGHS's status, also read as the primal's
    (an unbounded dual is an infeasible primal), for example
    ``highs-ds failed: (HiGHS Status 8: Infeasible)``; so does an optimal
    solution that is not finite or misses a row or a bound of the primal
    by more than :data:`FEASIBILITY_TOL`.
    """
    if start not in _START_KINDS or (basis is None) != (start == "none"):
        raise ValueError(f"start {start!r} does not describe the basis given")
    clock = time.perf_counter()
    c = np.asarray(c, dtype=float)
    n_ub = 0 if A_ub is None else A_ub.shape[0]
    highs = _binding()
    solver = highs._Highs()
    settings = {**_SCIPY_OPTIONS, "solver": _HIGHS_METHOD_SOLVERS[method], **(options or {})}
    for key, value in settings.items():
        if solver.setOptionValue(key, value) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {key}={value!r}")
    # HiGHS copies the arrays, so the ones built here are freed before the solve.
    passed = solver.passModel(*_dual_model(c, A_ub, b_ub, A_eq, b_eq))
    if passed == highs.HighsStatus.kError:
        status = highs.HighsModelStatus.kModelError
    else:
        if basis is not None and solver.setBasis(basis) == highs.HighsStatus.kError:
            raise ValueError("the start basis does not fit the program")
        solver.run()
        status = _primal_status(solver, c)
    info = solver.getInfo()
    counts = dict(simplex_nit=info.simplex_iteration_count, ipm_nit=info.ipm_iteration_count,
                  crossover_nit=info.crossover_iteration_count)
    # HiGHS reports -1 for an algorithm that never ran, as when it stops
    # before solving; that is 0 iterations.
    counts = {key: max(count, 0) for key, count in counts.items()}
    stats = dict(
        method=method,
        n_vars=c.size,
        n_rows=n_ub + (0 if A_eq is None else A_eq.shape[0]),
        nnz=sum(m.nnz for m in (A_ub, A_eq) if m is not None),
        nit=sum(counts.values()),
        **counts,
        from_basis=start in ("feasible basis", "neighbour basis"),
    )
    message = f"(HiGHS Status {int(status)}: {solver.modelStatusToString(status)})"
    log.debug("LP %s: %s", message, dict(stats, start=start,
                                         simplex_strategy=settings["simplex_strategy"]))

    def failure(reason, rejected=None):
        # The failed call's statistics, which no LpSolution will carry.
        failed = {key: value for key, value in stats.items() if key != "from_basis"}
        return SolverError(f"{method} failed: {reason}",
                           dict(failed, start=start, solve_s=time.perf_counter() - clock),
                           rejected)

    if status != highs.HighsModelStatus.kOptimal:
        raise failure(message)
    solution, final = solver.getSolution(), solver.getBasis()
    # 0.0 - duals, not -duals: a row dual of 0 gives the value 0, not -0.
    x, lam = 0.0 - np.array(solution.row_dual), np.array(solution.col_value[:n_ub])
    # Free HiGHS before the checks and multipliers allocate: arrays that
    # outlive the solve (cached tables keep them) would pin its memory.
    del solver, solution
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(lam))):
        raise failure("non-finite values in the solution")
    sol = LpSolution(values=x, objective_value=float(c @ x), multipliers=lam,
                     basis=final if final.valid else None,
                     solve_s=time.perf_counter() - clock, **stats)
    for kind, worst in zip(("bound", "inequality", "equality"),
                           _residuals(x, A_ub, b_ub, A_eq, b_eq)):
        if worst > FEASIBILITY_TOL:
            raise failure(f"{kind} residual {worst:.3e} above tolerance", sol)
    return sol


def _residuals(x, A_ub, b_ub, A_eq, b_eq) -> tuple[float, float, float]:
    """How far x misses its bounds x >= 0, the inequality rows and the equality rows."""
    return (float(np.max(-x, initial=0.0)),
            0.0 if A_ub is None else float(np.max(A_ub @ x - b_ub, initial=0.0)),
            0.0 if A_eq is None else float(np.max(np.abs(A_eq @ x - b_eq), initial=0.0)))


def _meets_rows(x, A_ub, b_ub, A_eq, b_eq) -> bool:
    """Whether ``x``, if not None, meets the rows and bounds within :data:`FEASIBILITY_TOL`."""
    return x is not None and max(_residuals(x, A_ub, b_ub, A_eq, b_eq)) <= FEASIBILITY_TOL


def _primal_status(solver, c):
    """The primal's model status, read from HiGHS's solve of its dual.

    An unbounded dual leaves the primal no feasible point. An infeasible
    dual leaves it unbounded if HiGHS holds a feasible point of it (the
    dual values of a simplex solve), and else infeasible or unbounded, as
    after IPX. A primal without rows has a dual without columns, which
    HiGHS reports empty without reading its rows 0 <= c: x = 0 is optimal
    unless a cost is negative, and then the primal is unbounded.
    """
    highs = _binding()
    status, kind = solver.getModelStatus(), highs.HighsModelStatus
    if status == kind.kModelEmpty:
        return kind.kOptimal if np.all(c >= 0) else kind.kUnbounded
    if status == kind.kUnbounded:
        return kind.kInfeasible
    if status == kind.kInfeasible:
        feasible = solver.getInfo().dual_solution_status == highs.kSolutionStatusFeasible
        return kind.kUnbounded if feasible else kind.kUnboundedOrInfeasible
    return status


def _dual_model(c, A_ub, b_ub, A_eq, b_eq) -> tuple:
    """The arguments of HiGHS's ``passModel`` for the dual of :func:`linprog`'s program.

    min b_ub.l - b_eq.y  s.t.  -A_ub^T l + A_eq^T y <= c,  l >= 0, y free:
    one column per primal row, one row per primal variable. Column j of
    the dual matrix is primal row j, negated for an inequality row, so the
    stacked CSR arrays of ``[A_ub; A_eq]`` are its CSC arrays as they
    stand; HiGHS takes them column-wise. The arrays go to the binding's
    array overload, (num_col, num_row, num_nz, format, sense, offset,
    cost, col bounds, row bounds, matrix, integrality), in one call;
    the integrality array must hold one 0 per column.
    """
    blocks = [m for m in (A_ub, A_eq) if m is not None] or [CsrMatrix([0], [], [], (0, c.size))]
    offsets = np.cumsum([0] + [m.nnz for m in blocks])
    b_ub = np.asarray([] if b_ub is None else b_ub, dtype=float)
    b_eq = np.asarray([] if b_eq is None else b_eq, dtype=float)
    highs = _binding()
    n_col = b_ub.size + b_eq.size
    start = np.concatenate(
        [[0], *(m.indptr[1:] + off for m, off in zip(blocks, offsets))]).astype(np.int32)
    return (
        n_col, c.size, int(start[-1]), int(highs.MatrixFormat.kColwise),
        int(highs.ObjSense.kMinimize), 0.0,
        np.concatenate([b_ub, -b_eq]),
        np.concatenate([np.zeros(b_ub.size), np.full(b_eq.size, -highs.kHighsInf)]),
        np.full(n_col, highs.kHighsInf),
        np.full(c.size, -highs.kHighsInf), c,
        start, np.concatenate([m.indices for m in blocks]).astype(np.int32),
        np.concatenate([-A_ub.data if A_ub is not None else [], [] if A_eq is None else A_eq.data]),
        np.zeros(n_col, dtype=np.int32),
    )


def _constant_basis(lp: LinearProgram):
    """The constant table's basis of the dual HiGHS is handed, or None.

    It exists for a table program (``var_shape`` (R, K)) whose equality
    rows are its table's row sums, in row order, with coefficient 1, as in
    every program ``apo._ratio_program`` builds. The constant table puts
    each row's whole total on output k*, the ``argmin`` of the objective's
    column sums; it is None unless that table meets the program's rows
    (:func:`_meets_rows`), as it does every ratio program's at any budget.

    In the dual the R equality columns y are basic, and so are the
    R(K-1) rows of the entries off k*; every inequality column sits at
    its lower bound 0 and every k* row at its upper bound c. The basis
    matrix is the identity up to the order of its columns, so it is
    nonsingular, and its reduced costs are the constant table's values
    and slacks, all >= 0: dual simplex on the dual, the program's primal
    simplex, starts there.
    """
    if lp.var_shape is None or len(lp.var_shape) != 2 or lp.a_eq is None:
        return None
    n_rows, n_out = lp.var_shape
    a_eq = lp.a_eq
    if a_eq.shape[0] != n_rows \
            or not np.array_equal(a_eq.indptr, np.arange(0, lp.n_vars + 1, n_out)) \
            or not np.array_equal(a_eq.indices, np.arange(lp.n_vars)) or np.any(a_eq.data != 1):
        return None
    best = int(np.argmin(lp.objective.reshape(n_rows, n_out).sum(axis=0)))
    table = np.zeros((n_rows, n_out))
    table[:, best] = lp.b_eq
    if not _meets_rows(table.ravel(), lp.a_ub, lp.b_ub, a_eq, lp.b_eq):
        return None
    highs = _binding()
    status = highs.HighsBasisStatus
    rows = np.full((n_rows, n_out), status.kBasic, dtype=object)
    rows[:, best] = status.kUpper
    basis = highs.HighsBasis()
    basis.col_status = [status.kLower] * lp.n_ub_rows + [status.kBasic] * n_rows
    basis.row_status = rows.ravel().tolist()
    basis.valid = True
    return basis


def padded_start(start: LpSolution, lp: LinearProgram, variables, rows) -> LpSolution:
    """``start``, a solution of a program inside ``lp``, as a :func:`solve_lp` start of ``lp``.

    ``lp`` holds every variable and row of ``start``'s program and more:
    ``variables[v]`` is the position in ``lp`` of that program's variable
    v, and ``rows[r]`` the position of its row r, the inequality rows
    first and the equality rows after them, as :func:`linprog` stacks
    them. ``start`` must have a basis. Every new variable is 0 and every
    new row's multiplier is 0.

    In the dual HiGHS holds, a new variable is a row, which is basic, and
    a new row is a column, which sits at its lower bound 0; every other
    row and column keeps its status. The new rows of the dual are basic,
    so the basis matrix stays nonsingular. The padded table's values and
    row slacks are the basis's reduced costs. Where the table meets every
    row of ``lp``, as after the output columns that ``apo``'s column
    generation adds, they are all >= 0 and dual simplex on the dual runs
    from the basis; where the new rows cut the table, as the pairs that
    the pruned all-pairs programs leave out may, the dual's rows are
    still met (the new columns sit at 0) and primal simplex on the dual
    runs from it. :func:`solve_lp` tells the two apart by the table.
    """
    highs = _binding()
    status = highs.HighsBasisStatus
    n_rows = lp.n_ub_rows + lp.n_eq_rows
    col_status = np.full(n_rows, status.kLower, dtype=object)
    col_status[np.asarray(rows)] = start.basis.col_status
    row_status = np.full(lp.n_vars, status.kBasic, dtype=object)
    row_status[np.asarray(variables)] = start.basis.row_status
    basis = highs.HighsBasis()
    basis.col_status = col_status.tolist()
    basis.row_status = row_status.tolist()
    basis.valid = True
    values = np.zeros(lp.n_vars)
    values[np.asarray(variables)] = start.values
    return replace(start, values=values, multipliers=None, n_vars=lp.n_vars, n_rows=n_rows,
                   basis=basis)


def solve_lp(lp: LinearProgram, start: LpSolution | None = None) -> LpSolution:
    """Solve a program to a basic optimal solution or raise :class:`SolverError`.

    The HiGHS method and the start are chosen by the program's size and
    shape (see the module docstring). A solve from the constant table or
    on the interior point solver that raises is logged and retried on dual
    simplex from scratch.

    ``start`` is an earlier solution, usually of a program that differs
    from ``lp`` only in some coefficients. When it has a basis and its
    program had as many variables and rows as ``lp``, simplex starts from
    that basis: dual simplex on the dual when the start's ``values`` meet
    ``lp``'s rows within :data:`FEASIBILITY_TOL`, primal simplex on the
    dual otherwise. If that solve raises, it is logged and ``lp`` is
    solved from scratch.
    """
    a_ub, b_ub, a_eq, b_eq = lp.matrices()
    solve = functools.partial(linprog, lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq)
    n_rows = lp.n_ub_rows + lp.n_eq_rows
    if start is not None and start.basis is not None and (
            start.n_vars, start.n_rows) == (lp.n_vars, n_rows):
        kind, options = ("feasible basis", _FEASIBLE_OPTIONS) \
            if _meets_rows(start.values, a_ub, b_ub, a_eq, b_eq) \
            else ("neighbour basis", _NEIGHBOUR_OPTIONS)
        try:
            return solve(method="highs-ds", options=options, basis=start.basis, start=kind)
        except SolverError as exc:
            log.info("%s from the start basis; solving from scratch", exc.report())
    if n_rows <= IPM_MAX_ROWS_PER_VAR * lp.n_vars:
        if lp.n_vars >= IPM_MIN_VARS:
            try:
                return solve(method="highs-ipm", options=_SOLVE_OPTIONS)
            except SolverError as exc:
                log.info("%s; solving again on highs-ds", exc.report())
        elif (basis := _constant_basis(lp)) is not None:
            try:
                return solve(method="highs-ds", options=_FEASIBLE_OPTIONS, basis=basis,
                             start="constant table")
            except SolverError as exc:
                log.info("%s from the constant table; solving from scratch", exc.report())
    return solve(method="highs-ds", options=_SOLVE_OPTIONS)
