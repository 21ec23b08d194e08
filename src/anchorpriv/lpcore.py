"""Linear-program holder and a deterministic solve wrapper.

Programs arrive already assembled: the caller hands over the objective
and the sparse constraint matrices (:class:`CsrMatrix`) with their
right-hand sides. Every variable is non-negative with no upper bound,
because every program the package solves is a table of probabilities or
masses. There is no row builder and no MPS writer. Programs are solved by
HiGHS through the binding that scipy bundles, which is deterministic for a
fixed input and returns basic solutions. The holder hides the backend so
callers only see :class:`LinearProgram` and :class:`LpSolution`.

The binding is the one scipy module this package loads. It is loaded
from scipy's directory as ``scipy.optimize._highspy._core`` without
running ``scipy/optimize/__init__``, which with ``scipy.sparse`` would
take about 0.5 s and 40 MB at every start (see "Start-up" in the
README's "Solver" section); a later ``import scipy.optimize`` reuses it.

:func:`linprog` is the one HiGHS call: it returns the optimal
:class:`LpSolution` or raises :class:`SolverError` with the HiGHS method
and HiGHS's own status, as in ``highs-ds failed: (HiGHS Status 8:
Infeasible)``. It also raises when an optimal solution is not finite or
misses its rows by more than :data:`FEASIBILITY_TOL`.

The HiGHS algorithm is chosen by size and shape. Every solve below
:data:`IPM_MIN_VARS` variables runs dual simplex. From there on the
interior point solver (IPX) runs with crossover, unless the program has
more than :data:`IPM_MAX_ROWS_PER_VAR` rows per variable, which stays on
dual simplex. Both return a basic solution.

When an IPX solve raises, the failure is logged at INFO and the same
program is solved on dual simplex.

A solve can also start from the optimal basis of an earlier solution of
a program of the same shape (``start=``). It then runs dual simplex from
that basis, which takes a few hundred iterations or fewer when the two
programs differ only in some coefficients; if it raises, the failure is
logged at INFO and the program is solved from scratch as above.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import logging
import sys
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


highs = sys.modules.get(HIGHS_MODULE) or _load_highs(_scipy_highs_dir())

FEASIBILITY_TOL = 1e-7

# HiGHS is run well below the contract tolerances so downstream log-space
# constraint checks keep their slack budget.
_SOLVE_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

# The options scipy.optimize.linprog sets for the methods "highs-ds" and
# "highs-ipm" when none of its own are given. Set them too, and a solve
# from scratch is bitwise equal to scipy's.
_HIGHS_METHOD_SOLVERS = {"highs-ds": "simplex", "highs-ipm": "ipm"}
_SCIPY_OPTIONS = {
    "presolve": "on",
    "highs_debug_level": 0,
    "output_flag": False,
    "log_to_console": False,
    "simplex_strategy": 1,  # dual simplex
}

# Programs with at least this many variables go to the interior point
# solver. On the package's anchor and lower-bound programs (one thread)
# dual simplex is faster up to 576 variables and the interior point
# solver from 784 on, on both shapes; see the README's "Solver" section.
IPM_MIN_VARS = 700

# Programs with more rows per variable than this stay on dual simplex. Of
# the programs with IPM_MIN_VARS variables or more, only the all-pairs
# tables of AIPO-R and the coarse LP are this tall. IPX with crossover
# solves them faster at small budgets, but at large ones it can return a
# table that is not optimal: on the 8x8/K=16 AIPO-R program at eps 10 it
# reports optimal at 0.285406, 2.85% above dual simplex's 0.277491, with
# residuals inside FEASIBILITY_TOL. The optimality check of
# apo.solve_approx_apo would now reject that table (its dual certificate
# is 15% lower) and fail the solve. See the README's "Solver" section.
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
        return np.bincount(self.indices, weights=self.data * np.asarray(y)[self.entry_rows()],
                           minlength=self.shape[1])


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
    the negated HiGHS row duals, one per row of ``a_ub`` (empty without
    such rows); for a minimization they are >= 0 up to the solver's
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
    scratch. ``basis`` is the optimal basis, opaque, for :func:`solve_lp`'s
    ``start``; it is None when the solver left none, as after
    ``apo._block_ipm``.
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

    def as_start(self) -> LpSolution:
        """This solution without ``values`` and ``multipliers`` (both None).

        A :func:`solve_lp` ``start`` is read for its basis and its
        program's size only, so a solution kept to start later solves need
        not keep the arrays.
        """
        return replace(self, values=None, multipliers=None)


def linprog(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, method="highs-ds", options=None,
            basis=None) -> LpSolution:
    """One checked HiGHS solve of min c.x s.t. A_ub x <= b_ub, A_eq x = b_eq, x >= 0.

    ``A_ub`` and ``A_eq`` are :class:`CsrMatrix` or None. The model is
    the one ``scipy.optimize.linprog`` builds: the rows ``[A_ub; A_eq]``,
    handed over row-wise and stored by HiGHS in the CSC form scipy hands
    it, the inequality rows bounded by -inf below, the equality rows by
    ``b_eq`` on both sides, and the same options for ``method``
    ("highs-ds" or "highs-ipm"). A solve without ``basis`` is therefore
    bitwise equal to scipy's. ``basis`` is the ``basis`` of an earlier
    optimal solution for a program of the same size; HiGHS starts from it.

    Returns the optimal :class:`LpSolution`. Any other model status raises
    :class:`SolverError` with HiGHS's status, for example
    ``highs-ds failed: (HiGHS Status 8: Infeasible)``, and so does an
    optimal solution that is not finite or misses a row by more than
    :data:`FEASIBILITY_TOL`.
    """
    start = time.perf_counter()
    n_ub = 0 if A_ub is None else A_ub.shape[0]
    solver = highs._Highs()
    for key, value in {**_SCIPY_OPTIONS, "solver": _HIGHS_METHOD_SOLVERS[method],
                       **(options or {})}.items():
        if solver.setOptionValue(key, value) != highs.HighsStatus.kOk:
            raise ValueError(f"HiGHS rejects option {key}={value!r}")
    # HiGHS copies the model, so the one built here is freed before the solve.
    passed = solver.passModel(_highs_model(c, A_ub, b_ub, A_eq, b_eq))
    if passed == highs.HighsStatus.kError:
        status = highs.HighsModelStatus.kModelError
    else:
        if basis is not None and solver.setBasis(basis) == highs.HighsStatus.kError:
            raise ValueError("the start basis does not fit the program")
        solver.run()
        status = solver.getModelStatus()
    info = solver.getInfo()
    counts = dict(simplex_nit=info.simplex_iteration_count, ipm_nit=info.ipm_iteration_count,
                  crossover_nit=info.crossover_iteration_count)
    stats = dict(
        method=method,
        n_vars=len(c),
        n_rows=n_ub + (0 if A_eq is None else A_eq.shape[0]),
        nnz=sum(m.nnz for m in (A_ub, A_eq) if m is not None),
        nit=sum(counts.values()),
        **counts,
        from_basis=basis is not None,
    )
    message = f"(HiGHS Status {int(status)}: {solver.modelStatusToString(status)})"
    log.debug("LP %s: %s", message, stats)
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverError(f"{method} failed: {message}")
    solution, final = solver.getSolution(), solver.getBasis()
    x, duals = np.array(solution.col_value), np.array(solution.row_dual)
    # Free HiGHS before the checks and multipliers allocate: arrays that
    # outlive the solve (cached tables keep them) would pin its memory.
    del solver, solution
    if not np.all(np.isfinite(x)):
        raise SolverError(f"{method} failed: non-finite values in the solution")
    if A_ub is not None:
        worst = float(np.max(A_ub @ x - b_ub, initial=0.0))
        if worst > FEASIBILITY_TOL:
            raise SolverError(f"{method} failed: inequality residual {worst:.3e} above tolerance")
    if A_eq is not None:
        worst = float(np.max(np.abs(A_eq @ x - b_eq), initial=0.0))
        if worst > FEASIBILITY_TOL:
            raise SolverError(f"{method} failed: equality residual {worst:.3e} above tolerance")
    return LpSolution(values=x, objective_value=float(info.objective_function_value),
                      multipliers=-duals[:n_ub], basis=final if final.valid else None,
                      solve_s=time.perf_counter() - start, **stats)


def _highs_model(c, A_ub, b_ub, A_eq, b_eq):
    """The HiGHS model of :func:`linprog`'s program, its rows stacked row-wise.

    HiGHS turns the rows into column-wise arrays as it takes the model,
    keeping each column's entries in row order: the arrays of scipy's
    ``csc_array(vstack([A_ub, A_eq]))``.
    """
    c = np.asarray(c, dtype=float)
    blocks = [m for m in (A_ub, A_eq) if m is not None] or [CsrMatrix([0], [], [], (0, c.size))]
    offsets = np.cumsum([0] + [m.nnz for m in blocks])
    b_ub = np.asarray([] if b_ub is None else b_ub, dtype=float)
    b_eq = np.asarray([] if b_eq is None else b_eq, dtype=float)
    model = highs.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = c.size
    model.num_row_ = model.a_matrix_.num_row_ = b_ub.size + b_eq.size
    model.a_matrix_.format_ = highs.MatrixFormat.kRowwise
    model.a_matrix_.start_ = np.concatenate(
        [[0], *(m.indptr[1:] + off for m, off in zip(blocks, offsets))]).astype(np.int32)
    model.a_matrix_.index_ = np.concatenate([m.indices for m in blocks]).astype(np.int32)
    model.a_matrix_.value_ = np.concatenate([m.data for m in blocks])
    model.col_cost_ = c
    model.col_lower_ = np.zeros(c.size)
    model.col_upper_ = np.full(c.size, highs.kHighsInf)
    model.row_lower_ = np.concatenate([np.full(b_ub.size, -highs.kHighsInf), b_eq])
    model.row_upper_ = np.concatenate([b_ub, b_eq])
    return model


def solve_lp(lp: LinearProgram, start: LpSolution | None = None) -> LpSolution:
    """Solve a program to a basic optimal solution or raise :class:`SolverError`.

    The HiGHS method is chosen by the program's size and shape (see the
    module docstring). An interior point solve that raises is logged and
    retried on dual simplex.

    ``start`` is an earlier solution, usually of a program that differs
    from ``lp`` only in some coefficients. When it has a basis and its
    program had as many variables and rows as ``lp``, dual simplex starts
    from that basis; if that solve raises, it is logged and ``lp`` is
    solved from scratch.
    """
    a_ub, b_ub, a_eq, b_eq = lp.matrices()
    solve = functools.partial(linprog, lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq)
    n_rows = lp.n_ub_rows + lp.n_eq_rows
    if start is not None and start.basis is not None and (
            start.n_vars, start.n_rows) == (lp.n_vars, n_rows):
        try:
            return solve(method="highs-ds", options=_SOLVE_OPTIONS, basis=start.basis)
        except SolverError as exc:
            log.info("%s from the start basis; solving from scratch", exc)
    if IPM_MIN_VARS <= lp.n_vars and n_rows <= IPM_MAX_ROWS_PER_VAR * lp.n_vars:
        try:
            return solve(method="highs-ipm", options=_SOLVE_OPTIONS)
        except SolverError as exc:
            log.info("%s; solving again on highs-ds", exc)
    return solve(method="highs-ds", options=_SOLVE_OPTIONS)
