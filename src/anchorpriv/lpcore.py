"""Linear-program holder and a deterministic solve wrapper.

Programs arrive already assembled: the caller hands over the objective
and the sparse constraint matrices with their right-hand sides. Every
variable is non-negative with no upper bound, because every program the
package solves is a table of probabilities or masses. There is no row
builder and no MPS writer. Programs are solved through scipy's HiGHS
backend, which is deterministic for a fixed input and returns basic
solutions unless the caller waives the vertex. The holder hides the
backend so callers only see :class:`LinearProgram` and
:class:`LpSolution`.

A solve returns an optimal :class:`LpSolution` or raises
:class:`SolverError`. A backend failure, an infeasible or unbounded
program, and a solution that misses its rows by more than
:data:`FEASIBILITY_TOL` all raise, with the HiGHS method and HiGHS's
own status text in the message.

The HiGHS algorithm is chosen by size and shape, and by whether the
caller needs a vertex. Every solve below :data:`IPM_MIN_VARS` variables
runs dual simplex. From there on:

- ``vertex=True`` (the default, for the table programs): the interior
  point solver (IPX) with crossover, unless the program has more than
  :data:`IPM_MAX_ROWS_PER_VAR` rows per variable, which stays on dual
  simplex. Both return a basic solution.
- ``vertex=False`` (for callers that only need values and duals, such as
  the lower bound): IPX without crossover at any shape. The solution is
  optimal within the tolerances but need not be a vertex.

When an IPX solve raises, on either route, the failure is logged at INFO
and the same program is solved on dual simplex. The retry skips IPX with
crossover: on the 6x6/K=25 lower bound at eps 10 it ends in HiGHS's
unknown model status as IPX without crossover does, and dual simplex
solves it.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import OptimizeWarning, linprog

from .errors import SolverError

__all__ = ["LinearProgram", "LpSolution", "solve_lp"]

log = logging.getLogger(__name__)

FEASIBILITY_TOL = 1e-7

# HiGHS is run well below the contract tolerances so downstream log-space
# constraint checks keep their slack budget.
_SOLVE_OPTIONS = {
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

# Programs with at least this many variables go to the interior point
# solver. On the package's anchor and lower-bound programs (one thread)
# dual simplex is faster up to 576 variables and the interior point
# solver from 784 on, on both shapes; see the README's "Solver" section.
IPM_MIN_VARS = 700

# Programs with more rows per variable than this stay on dual simplex
# when a vertex is asked for. Of the programs with IPM_MIN_VARS variables
# or more, only the all-pairs tables of AIPO-R and the coarse LP are this
# tall. IPX with crossover solves them faster at small budgets, but at
# large ones it can return a table that is not optimal: on the 8x8/K=16
# AIPO-R program at eps 10 it reports optimal at 0.285406, 2.85% above
# dual simplex's 0.277491, with residuals inside FEASIBILITY_TOL, so no
# check catches it. See the README's "Solver" section.
IPM_MAX_ROWS_PER_VAR = 8


@dataclass
class LinearProgram:
    """min c.x  s.t.  a_ub x <= b_ub,  a_eq x = b_eq,  x >= 0.

    ``a_ub`` and ``a_eq`` are CSR matrices (anything ``scipy.sparse``
    accepts is converted) or ``None`` when the program has no rows of that
    kind. ``var_shape`` optionally records the logical 2-D shape of the
    variable vector for table-valued programs.
    """

    objective: np.ndarray
    a_ub: sparse.csr_matrix | None = None
    b_ub: np.ndarray | None = None
    a_eq: sparse.csr_matrix | None = None
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
        mat = sparse.csr_matrix(mat)
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
        """(A_ub, b_ub, A_eq, b_eq, bounds) for the backend; x >= 0 throughout."""
        return self.a_ub, self.b_ub, self.a_eq, self.b_eq, (0.0, None)


@dataclass
class LpSolution:
    """Optimal solution of a program, with the statistics of its solve.

    ``values`` holds the variables and ``objective_value`` the objective
    at them. ``multipliers`` are the inequality rows' Lagrange multipliers
    lambda = -``res.ineqlin.marginals``, one per row of ``a_ub`` (empty
    without such rows); for a minimization they are >= 0 up to the
    solver's tolerances.

    The statistics say what was solved and how: the HiGHS ``method`` that
    returned the solution (``highs-ds`` after a retry), the program's size
    (``n_rows`` counts both row kinds, ``nnz`` their nonzeros), the
    iterations and that solve's wall time ``solve_s``. ``nit`` is scipy's
    count: simplex iterations when any ran (including a simplex clean-up
    after crossover), else interior point iterations; crossover's own are
    ``crossover_nit``.
    """

    values: np.ndarray
    objective_value: float
    multipliers: np.ndarray
    method: str
    n_vars: int
    n_rows: int
    nnz: int
    nit: int
    crossover_nit: int
    solve_s: float


def solve_lp(lp: LinearProgram, vertex: bool = True) -> LpSolution:
    """Solve a program to optimality or raise :class:`SolverError`.

    ``vertex=False`` lets programs of :data:`IPM_MIN_VARS` variables or more
    skip crossover (see the module docstring); the solution is then an
    interior point optimal within the tolerances, not a basic one. An
    interior point solve that raises is logged and retried on dual simplex.
    """
    matrices = lp.matrices()
    if IPM_MIN_VARS <= lp.n_vars and (
            not vertex or lp.n_ub_rows + lp.n_eq_rows <= IPM_MAX_ROWS_PER_VAR * lp.n_vars):
        options = dict(_SOLVE_OPTIONS)
        if not vertex:
            options["run_crossover"] = "off"
        try:
            return _solve(lp, matrices, "highs-ipm", options)
        except SolverError as exc:
            log.info("%s; solving again on highs-ds", exc)
    return _solve(lp, matrices, "highs-ds", dict(_SOLVE_OPTIONS))


def _solve(lp: LinearProgram, matrices, method: str, options: dict) -> LpSolution:
    """One HiGHS solve; raises SolverError unless it is optimal and within FEASIBILITY_TOL."""
    a_ub, b_ub, a_eq, b_eq, bounds = matrices
    start = time.perf_counter()
    with warnings.catch_warnings():
        # scipy hands options it does not know, run_crossover among them,
        # to HiGHS verbatim and warns that it did.
        warnings.filterwarnings("ignore", message="Unrecognized options",
                                category=OptimizeWarning)
        res = linprog(
            lp.objective,
            A_ub=a_ub,
            b_ub=b_ub,
            A_eq=a_eq,
            b_eq=b_eq,
            bounds=bounds,
            method=method,
            options=options,
        )
    stats = dict(
        method=method,
        n_vars=lp.n_vars,
        n_rows=lp.n_ub_rows + lp.n_eq_rows,
        nnz=sum(m.nnz for m in (a_ub, a_eq) if m is not None),
        nit=int(res.nit),
        crossover_nit=int(res.get("crossover_nit") or 0),
        solve_s=time.perf_counter() - start,
    )
    log.debug("LP %s: %s", res.message, stats)
    if res.status != 0:
        raise SolverError(f"{method} failed: {res.message}")
    x = np.asarray(res.x, dtype=float)
    if a_ub is not None:
        worst = float(np.max(a_ub @ x - b_ub, initial=0.0))
        if worst > FEASIBILITY_TOL:
            raise SolverError(f"{method} failed: inequality residual {worst:.3e} above tolerance")
    if a_eq is not None:
        worst = float(np.max(np.abs(a_eq @ x - b_eq), initial=0.0))
        if worst > FEASIBILITY_TOL:
            raise SolverError(f"{method} failed: equality residual {worst:.3e} above tolerance")
    multipliers = -np.asarray(res.ineqlin.marginals, dtype=float)
    return LpSolution(values=x, objective_value=float(res.fun), multipliers=multipliers, **stats)
