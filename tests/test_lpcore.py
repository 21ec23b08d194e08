import contextlib
import functools
import importlib.metadata
import itertools
import logging
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import OptimizeWarning

from anchorpriv import apo, budget, evaluation, lpcore
from anchorpriv.cli import _surrogate, load_config
from anchorpriv.errors import SolverError
from anchorpriv.lpcore import (
    _SOLVE_OPTIONS,
    IPM_MAX_ROWS_PER_VAR,
    IPM_MIN_VARS,
    CsrMatrix,
    LinearProgram,
    solve_lp,
)

from conftest import from_scipy, scipy_dual_linprog, scipy_linprog, to_scipy

highs = lpcore.highs


def test_minimize_single_variable_with_floor():
    lp = LinearProgram(objective=[1.0], a_ub=[[-1.0]], b_ub=[-3.0])  # x >= 3
    sol = solve_lp(lp)
    assert sol.values[0] == pytest.approx(3.0, abs=1e-8)
    assert sol.objective_value == pytest.approx(3.0, abs=1e-8)


def test_maximize_on_facet():
    lp = LinearProgram(objective=[-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    sol = solve_lp(lp)
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-8)


def test_simplex_vertex():
    lp = LinearProgram(objective=[1.0, 3.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = solve_lp(lp)
    assert sol.values == pytest.approx([1.0, 0.0], abs=1e-9)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_infeasible_raises():
    lp = LinearProgram(objective=[1.0], a_ub=[[1.0]], b_ub=[-1.0])  # x <= -1 with x >= 0
    with pytest.raises(SolverError, match=r"^highs-ds failed: \(HiGHS Status 8: Infeasible\)$"):
        solve_lp(lp)


def test_unbounded_raises():
    lp = LinearProgram(objective=[-1.0])
    with pytest.raises(SolverError, match=r"^highs-ds failed: \(HiGHS Status 10: Unbounded\)$"):
        solve_lp(lp)


def test_infeasible_program_with_a_descent_direction_is_not_called_unbounded():
    # x0 <= -1 has no solution, and -x1 falls without end along x1.
    lp = LinearProgram(objective=[0.0, -1.0], a_ub=[[1.0, 0.0]], b_ub=[-1.0])
    with pytest.raises(SolverError, match=r"^highs-ds failed: \(HiGHS Status 9: Primal "
                                          r"infeasible or unbounded\)$"):
        solve_lp(lp)


def test_program_without_rows_solves_at_zero():
    # Its dual has no columns, and HiGHS reports such a model empty unread.
    sol = solve_lp(LinearProgram(objective=[1.0, 0.0]))
    assert sol.values.tolist() == [0.0, 0.0] and sol.objective_value == 0.0
    assert sol.multipliers.shape == (0,)


def test_shapes_checked_against_variable_count():
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0, 2.0], a_ub=[[1.0, 1.0, 1.0]], b_ub=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0, 2.0])
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0, 2.0], b_ub=[1.0])
    with pytest.raises(ValueError):
        LinearProgram(objective=[1.0, 2.0], var_shape=(3, 1))
    lp = LinearProgram(objective=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], var_shape=(1, 2))
    assert isinstance(lp.a_eq, CsrMatrix)
    assert (lp.n_ub_rows, lp.n_eq_rows) == (0, 1)


def _enumerate_vertices(c, a_ub, b_ub, ub):
    """Brute-force LP oracle: check every basic point of the polytope.

    Constraints are a_ub x <= b_ub plus box bounds 0 <= x <= ub. Every
    vertex solves n active constraints chosen among rows and bound faces.
    """
    n = c.size
    rows = [(a_ub[i], b_ub[i]) for i in range(a_ub.shape[0])]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, ub[j]))      # x_j <= ub_j
        rows.append((-e, 0.0))       # -x_j <= 0
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        mat = np.stack([rows[i][0] for i in combo])
        rhs = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(mat)) < 1e-10:
            continue
        x = np.linalg.solve(mat, rhs)
        slack = a_ub @ x - b_ub
        if slack.max(initial=0.0) > 1e-9:
            continue
        if np.any(x < -1e-9) or np.any(x > ub + 1e-9):
            continue
        val = float(c @ x)
        if best is None or val < best:
            best = val
    return best


def test_random_programs_match_vertex_enumeration_oracle():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 7))
        c = rng.normal(size=n)
        a = rng.normal(size=(m, n))
        x0 = rng.random(n)
        b = a @ x0 + rng.random(m) * 0.5  # x0 strictly feasible
        ub = np.full(n, 3.0)
        # The box x_j <= 3 as extra rows: the same polytope.
        lp = LinearProgram(
            objective=c, a_ub=np.vstack([a, np.eye(n)]), b_ub=np.concatenate([b, ub])
        )
        sol = solve_lp(lp)
        oracle = _enumerate_vertices(c, a, b, ub)
        assert oracle is not None
        assert sol.objective_value == pytest.approx(oracle, abs=1e-6)


ROOT = Path(__file__).resolve().parent.parent
# A fresh interpreter imports the package from this checkout.
_SRC_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _anchor_program(grid, out, eps=0.8):
    """The anchor LP of a grid x grid instance with out x out outputs at ``eps``, equal split."""
    spec = evaluation.InstanceSpec(grid=(grid, grid), outputs=(out, out))
    inst = evaluation.synth_instance(spec, seed=0)
    coeffs = apo.surrogate_coefficients(inst.partition, inst.prior, inst.loss, inst.outputs)
    bv = budget.equal_split(eps, 2.0, 2)
    return apo.build_approx_apo(inst.partition, inst.outputs, bv, coeffs)


def _fail_from(monkeypatch, *kinds):
    """Make every HiGHS call that starts from a basis of one of ``kinds`` raise."""
    solve = lpcore.linprog

    def failing(*args, start="none", **kw):
        if start in kinds:
            raise SolverError("highs-ds failed: forced")
        return solve(*args, start=start, **kw)

    monkeypatch.setattr(lpcore, "linprog", failing)


def _fail_from_basis(monkeypatch):
    """Make every HiGHS call that starts from an earlier solution's basis raise."""
    _fail_from(monkeypatch, "feasible basis", "neighbour basis")


def _start_kinds(monkeypatch):
    """Record the start kind of every HiGHS call."""
    kinds = []
    solve = lpcore.linprog
    monkeypatch.setattr(lpcore, "linprog",
                        lambda *a, start="none", **kw: kinds.append(start) or solve(
                            *a, start=start, **kw))
    return kinds


def _end_interior_point_in(monkeypatch, status):
    """Make every HiGHS run on IPX end in model ``status``; return the methods run."""
    methods = []
    by_solver = {solver: method for method, solver in lpcore._HIGHS_METHOD_SOLVERS.items()}

    class Forced(highs._Highs):
        def setOptionValue(self, key, value):
            if key == "solver":
                self.method = by_solver[value]
            return super().setOptionValue(key, value)

        def run(self):
            methods.append(self.method)
            return highs.HighsStatus.kOk if self.method == "highs-ipm" else super().run()

        def getModelStatus(self):
            if self.method == "highs-ipm":
                return highs.HighsModelStatus(status)
            return super().getModelStatus()

    monkeypatch.setattr(highs, "_Highs", Forced)
    return methods


@pytest.mark.parametrize("status", [4, 2])
def test_failed_interior_point_solve_retries_on_dual_simplex(monkeypatch, caplog, status):
    # IPX can stop in HiGHS model status 4 (solve error); any status but
    # optimal raises, and solve_lp solves the program again on dual simplex.
    lp = _anchor_program(4, 3)
    ref = scipy_dual_linprog(lp, method="highs-ds", options=dict(_SOLVE_OPTIONS))
    monkeypatch.setattr(lpcore, "IPM_MIN_VARS", 1)
    methods = _end_interior_point_in(monkeypatch, status)
    with caplog.at_level(logging.INFO, logger="anchorpriv.lpcore"):
        sol = solve_lp(lp)
    assert methods == ["highs-ipm", "highs-ds"]
    assert sol.method == "highs-ds"
    assert sol.values.tobytes() == ref.values.tobytes()
    assert sol.objective_value == ref.objective_value
    assert sol.multipliers.tobytes() == ref.multipliers.tobytes()
    name = {4: "Solve error", 2: "Model error"}[status]
    # The line carries the failed call's statistics.
    (record,) = caplog.records
    assert record.levelno == logging.INFO
    assert re.fullmatch(
        re.escape(f"highs-ipm failed: (HiGHS Status {status}: {name}) [method highs-ipm, "
                  f"n_vars 225, n_rows {lp.n_ub_rows + lp.n_eq_rows}, nnz {lp.a_ub.nnz + 225}, "
                  "nit 0, simplex_nit 0, ipm_nit 0, crossover_nit 0, start none, solve_s ")
        + r"[0-9.e+-]+\]; solving again on highs-ds", record.getMessage())


def test_failed_call_carries_its_statistics(monkeypatch):
    # A SolverError from linprog holds what the call's LpSolution would have.
    lp = _anchor_program(4, 3)
    monkeypatch.setattr(lpcore, "IPM_MIN_VARS", 1)
    _end_interior_point_in(monkeypatch, 4)
    a_ub, b_ub, a_eq, b_eq = lp.matrices()
    with pytest.raises(SolverError) as info:
        lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                       method="highs-ipm", options=_SOLVE_OPTIONS)
    stats = info.value.stats
    assert str(info.value) == "highs-ipm failed: (HiGHS Status 4: Solve error)"
    assert {key: stats[key] for key in stats if key != "solve_s"} == dict(
        method="highs-ipm", n_vars=225, n_rows=lp.n_ub_rows + lp.n_eq_rows,
        nnz=lp.a_ub.nnz + lp.a_eq.nnz, nit=0, simplex_nit=0, ipm_nit=0, crossover_nit=0,
        start="none")
    assert stats["solve_s"] >= 0.0
    assert info.value.report().startswith(f"{info.value} [method highs-ipm, n_vars 225, ")
    # Raised outside a solver call, it carries none; a status that is not
    # optimal leaves no solution to start from.
    assert SolverError("no call").stats is None and SolverError("no call").report() == "no call"
    assert info.value.rejected is None and SolverError("no call").rejected is None


def test_solution_that_fails_a_check_rides_on_the_error(monkeypatch):
    # An optimal HiGHS answer that misses the residual check is held, with
    # its basis, so that a later solve can start there.
    lp = _anchor_program(4, 3)
    ref = solve_lp(lp)
    monkeypatch.setattr(lpcore, "FEASIBILITY_TOL", -1.0)
    a_ub, b_ub, a_eq, b_eq = lp.matrices()
    with pytest.raises(SolverError, match="residual") as info:
        lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                       options=_SOLVE_OPTIONS)
    rejected = info.value.rejected
    assert rejected.basis is not None and rejected.objective_value == pytest.approx(
        ref.objective_value, rel=1e-12)
    assert (rejected.n_vars, rejected.n_rows) == (ref.n_vars, ref.n_rows)


def test_padded_start_adds_columns_and_rows_at_zero():
    # A master over two output columns pads to the master over three: the
    # new variables and rows are 0, every old status is kept, and simplex
    # runs from it to the cold optimum.
    lp = _anchor_program(4, 3)
    small, grown = lp.restricted([0, 4]), lp.restricted([0, 2, 4])
    sol = solve_lp(small)
    n_rows, n_pairs = 25, small.n_ub_rows // 4
    variables = (np.arange(n_rows)[:, None] * 3 + [0, 2]).ravel()
    rows = np.concatenate([apo._ratio_rows(np.arange(n_pairs), [0, 2], 3),
                           grown.n_ub_rows + np.arange(n_rows)])
    start = lpcore.padded_start(sol, grown, variables, rows)
    status = highs.HighsBasisStatus
    assert (start.n_vars, start.n_rows, start.multipliers) == (
        grown.n_vars, grown.n_ub_rows + grown.n_eq_rows, None)
    assert start.values[variables].tobytes() == sol.values.tobytes()
    assert not np.any(np.delete(start.values, variables))
    assert [start.basis.col_status[r] for r in rows] == list(sol.basis.col_status)
    assert [start.basis.row_status[v] for v in variables] == list(sol.basis.row_status)
    assert {start.basis.col_status[r] for r in np.setdiff1d(np.arange(start.n_rows), rows)} \
        == {status.kLower}
    assert {start.basis.row_status[v] for v in np.setdiff1d(np.arange(grown.n_vars),
                                                             variables)} == {status.kBasic}
    warm = solve_lp(grown, start=start)
    assert warm.from_basis
    assert warm.objective_value == pytest.approx(solve_lp(grown).objective_value, rel=1e-12)


class TestSolverRouting:
    # The interior point route on a program small enough to check against
    # scipy and for basic-ness: the threshold is lowered to 1,000 for the
    # class; test_threshold_routes_table_programs checks it as it stands.
    @pytest.fixture(scope="class", autouse=True)
    def lowered_threshold(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(lpcore, "IPM_MIN_VARS", 1000)
            yield

    @pytest.fixture(scope="class")
    def large(self):
        lp = _anchor_program(7, 4)  # 64 anchors x 16 outputs
        assert lp.n_vars == 1024 >= lpcore.IPM_MIN_VARS
        return lp, solve_lp(lp)

    def test_desk_program_starts_at_the_constant_table(self, caplog):
        lp = _anchor_program(4, 3)
        with caplog.at_level(logging.DEBUG, logger="anchorpriv.lpcore"):
            sol = solve_lp(lp)
        assert "'method': 'highs-ds'" in caplog.text and "'n_vars': 225" in caplog.text
        assert "'start': 'constant table', 'simplex_strategy': 1" in caplog.text
        assert lp.n_vars == 225 < IPM_MIN_VARS
        assert sol.method == "highs-ds" and not sol.from_basis
        assert sol.crossover_nit == 0 and sol.nit > 0

    @pytest.mark.parametrize("extra_rows, method", [(0, "highs-ipm"), (1, "highs-ds")])
    def test_tall_program_uses_dual_simplex(self, extra_rows, method):
        # x_j <= 1 repeated: IPM_MAX_ROWS_PER_VAR rows per variable, plus extra.
        n = IPM_MIN_VARS
        rows = from_scipy(sparse.vstack([sparse.identity(n)] * IPM_MAX_ROWS_PER_VAR
                                        + [sparse.csr_matrix(np.ones((extra_rows, n)))]))
        lp = LinearProgram(np.ones(n), rows, np.ones(rows.shape[0]))
        sol = solve_lp(lp)
        assert sol.method == method
        assert sol.n_rows == IPM_MAX_ROWS_PER_VAR * n + extra_rows
        assert sol.objective_value == 0.0

    def test_large_program_uses_interior_point(self, large):
        lp, sol = large
        assert sol.method == "highs-ipm"
        assert (sol.n_vars, sol.n_rows) == (1024, lp.n_ub_rows + lp.n_eq_rows)
        assert sol.nnz == lp.a_ub.nnz + lp.a_eq.nnz
        assert sol.nit > 0 and sol.crossover_nit > 0 and sol.solve_s > 0

    def test_large_program_matches_dual_simplex(self, large):
        lp, sol = large
        ref = scipy_linprog(lp, method="highs-ds", options=dict(_SOLVE_OPTIONS))
        assert ref.status == 0
        assert np.max(np.abs(sol.values - ref.x)) <= 1e-12
        assert abs(sol.objective_value - ref.fun) <= 1e-12

    def test_large_program_solution_is_basic(self, large):
        # Crossover leaves a vertex: the columns of the positive entries are
        # independent in the rows the solution makes tight. An interior
        # point solution without crossover fails this (983 of 1,024).
        lp, sol = large
        positive = sol.values > 0
        tight = lp.b_ub - lp.a_ub @ sol.values <= 1e-9
        rows = sparse.vstack([to_scipy(lp.a_eq), to_scipy(lp.a_ub)[tight]])
        active = rows.tocsc()[:, positive]
        assert positive.sum() <= lp.n_ub_rows + lp.n_eq_rows
        assert np.linalg.matrix_rank(active.toarray()) == positive.sum()

    def test_large_program_solves_bitwise_equal(self, large):
        lp, sol = large
        again = solve_lp(lp)
        assert again.values.tobytes() == sol.values.tobytes()
        assert again.objective_value == sol.objective_value

    def test_large_program_infeasible_and_unbounded(self, large, caplog):
        # IPX reports the status first; dual simplex, retried, agrees and raises.
        lp, _ = large
        # The rows of the table sum to 64; cap the total at 1.
        capped = from_scipy(sparse.vstack([to_scipy(lp.a_ub), np.ones((1, lp.n_vars))]))
        with caplog.at_level(logging.INFO, logger="anchorpriv.lpcore"):
            with pytest.raises(SolverError,
                               match=r"^highs-ds failed: \(HiGHS Status 8: Infeasible\)$"):
                solve_lp(LinearProgram(
                    lp.objective, capped, np.append(lp.b_ub, 1.0), lp.a_eq, lp.b_eq))
            # The ratio rows alone are a cone; a negative objective runs off along it.
            with pytest.raises(SolverError,
                               match=r"^highs-ds failed: \(HiGHS Status 10: Unbounded\)$"):
                solve_lp(LinearProgram(-lp.objective, lp.a_ub, lp.b_ub))
        assert "highs-ipm failed: (HiGHS Status 8: Infeasible)" in caplog.text
        # IPX leaves no feasible point of the primal to tell the two apart.
        assert ("highs-ipm failed: (HiGHS Status 9: Primal infeasible or unbounded)"
                in caplog.text)


@pytest.mark.parametrize("above", [False, True])
def test_threshold_routes_table_programs(monkeypatch, above):
    # A chain of ratio rows over a table of K = 15 outputs, 2 rows per
    # variable, with IPM_MIN_VARS variables or just under.
    n_rows = math.ceil(IPM_MIN_VARS / 15) if above else (IPM_MIN_VARS - 1) // 15
    rng = np.random.default_rng(4)
    lp = apo._ratio_program(rng.random((n_rows, 15)), np.arange(n_rows - 1),
                            np.arange(1, n_rows), np.full(n_rows - 1, 0.5))
    assert (lp.n_vars >= IPM_MIN_VARS) == above
    kinds = _start_kinds(monkeypatch)
    sol = solve_lp(lp)
    assert sol.method == ("highs-ipm" if above else "highs-ds")
    assert kinds == ["none" if above else "constant table"]


def _tall_table_program():
    """A 50 x 16 table (800 variables) with 6,514 rows: 8.1 per variable."""
    rng = np.random.default_rng(5)
    first, second = np.triu_indices(50, k=1)
    pairs = 202
    return apo._ratio_program(rng.random((50, 16)), first[:pairs], second[:pairs],
                              np.full(pairs, math.log(1.5)))


class TestTallTableAndMultipliers:
    @pytest.mark.parametrize("threshold", [IPM_MIN_VARS, 800])
    def test_tall_table_program_keeps_dual_simplex_from_scratch(self, monkeypatch, threshold):
        # Below the variable threshold and above it: no constant start, no IPX.
        monkeypatch.setattr(lpcore, "IPM_MIN_VARS", threshold)
        lp = _tall_table_program()
        assert lp.n_ub_rows + lp.n_eq_rows > IPM_MAX_ROWS_PER_VAR * lp.n_vars
        kinds = _start_kinds(monkeypatch)
        assert solve_lp(lp).method == "highs-ds"
        assert kinds == ["none"]

    def test_multipliers_are_the_dual_values(self):
        # The anchor program is degenerate: its optimal multipliers are not
        # unique, and the primal solve's negated marginals are another set.
        lp = _anchor_program(4, 3)
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        cold = lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                              options=_SOLVE_OPTIONS)
        ref = scipy_dual_linprog(lp, method="highs-ds", options=dict(_SOLVE_OPTIONS))
        assert cold.multipliers.tobytes() == ref.multipliers.tobytes()
        # The constant start ends at another vertex of the dual: optimal too.
        for sol in (cold, solve_lp(lp)):
            assert sol.multipliers.min() >= -1e-9
            certificate = apo._dual_certificate(lp, sol.multipliers)
            assert abs(sol.objective_value - certificate) <= 1e-12 * sol.objective_value

    def test_multipliers_empty_without_inequality_rows(self):
        sol = solve_lp(LinearProgram(objective=[1.0, 3.0], a_eq=[[1.0, 1.0]], b_eq=[1.0]))
        assert sol.multipliers.shape == (0,)


def _neighbour_programs(grid=4, out=3):
    """Two anchor programs of one instance at neighbouring budgets on the arc."""
    spec = evaluation.InstanceSpec(grid=(grid, grid), outputs=(out, out))
    inst = evaluation.synth_instance(spec, seed=0)
    coeffs = apo.surrogate_coefficients(inst.partition, inst.prior, inst.loss, inst.outputs)
    first, second = budget.feasible_allocations(0.8, 2.0)[4:6]
    return [apo.build_approx_apo(inst.partition, inst.outputs, bv, coeffs)
            for bv in (second, first)]


class TestWarmStart:
    @pytest.mark.parametrize("grid, out", [(4, 3), (7, 4)])
    def test_warm_solve_matches_cold_in_fewer_iterations(self, grid, out):
        centre, neighbour = _neighbour_programs(grid, out)
        start = solve_lp(centre)
        assert start.basis is not None
        cold = solve_lp(neighbour)
        warm = solve_lp(neighbour, start=start)
        assert warm.method == "highs-ds"
        assert warm.simplex_nit < cold.nit
        assert np.max(np.abs(warm.values - cold.values)) <= 1e-12
        assert abs(warm.objective_value - cold.objective_value) <= 1e-12

    def test_start_of_another_shape_is_not_used(self, monkeypatch):
        centre, _ = _neighbour_programs()
        other = solve_lp(_anchor_program(3, 3))
        kinds = _start_kinds(monkeypatch)
        sol = solve_lp(centre, start=other)
        assert kinds == ["constant table"]
        assert sol.values.tobytes() == solve_lp(centre).values.tobytes()

    def test_start_without_multipliers_solves_as_the_solution(self):
        centre, neighbour = _neighbour_programs()
        start = solve_lp(centre)
        kept = start.as_start()
        assert kept.values is start.values and kept.multipliers is None
        assert (kept.basis, kept.n_vars, kept.n_rows) == (start.basis, start.n_vars, start.n_rows)
        warm, again = solve_lp(neighbour, start=start), solve_lp(neighbour, start=kept)
        assert again.from_basis and again.nit == warm.nit
        assert again.values.tobytes() == warm.values.tobytes()

    def test_start_without_basis_is_not_used(self):
        centre, neighbour = _neighbour_programs()
        start = solve_lp(centre)
        start.basis = None
        sol = solve_lp(neighbour, start=start)
        assert sol.values.tobytes() == solve_lp(neighbour).values.tobytes()

    def test_failed_warm_solve_solves_from_scratch(self, monkeypatch, caplog):
        centre, neighbour = _neighbour_programs()
        start = solve_lp(centre)
        cold = solve_lp(neighbour)
        _fail_from_basis(monkeypatch)
        with caplog.at_level(logging.INFO, logger="anchorpriv.lpcore"):
            sol = solve_lp(neighbour, start=start)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, "highs-ds failed: forced from the start basis; solving from scratch")]
        assert sol.values.tobytes() == cold.values.tobytes()

    def test_failed_constant_start_solves_from_scratch(self, monkeypatch, caplog):
        lp = _anchor_program(4, 3)
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        cold = lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                              options=_SOLVE_OPTIONS)
        _fail_from(monkeypatch, "constant table")
        with caplog.at_level(logging.INFO, logger="anchorpriv.lpcore"):
            sol = solve_lp(lp)
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, "highs-ds failed: forced from the constant table; solving from scratch")]
        assert sol.values.tobytes() == cold.values.tobytes() and not sol.from_basis

    def test_solution_records_whether_it_started_from_a_basis(self, monkeypatch, caplog):
        centre, neighbour = _neighbour_programs()
        start = solve_lp(centre)
        assert not start.from_basis
        with caplog.at_level(logging.DEBUG, logger="anchorpriv.lpcore"):
            warm = solve_lp(neighbour, start=start)
        assert warm.from_basis and "'from_basis': True" in caplog.text
        _fail_from_basis(monkeypatch)
        assert not solve_lp(neighbour, start=start).from_basis


class TestStartRule:
    """Which simplex a start runs: dual simplex on the dual (strategy 1) or primal (4)."""

    @staticmethod
    def _strategies(caplog):
        return [(r.args[1]["start"], r.args[1]["simplex_strategy"]) for r in caplog.records
                if r.name == "anchorpriv.lpcore" and r.levelno == logging.DEBUG]

    def test_start_from_a_smaller_budget_runs_dual_simplex_on_the_dual(self, caplog):
        # Every ratio bound grows with the budget, so the smaller budget's
        # table meets the larger budget's rows.
        small, large = (_anchor_program(4, 3, eps) for eps in (0.4, 1.2))
        start = solve_lp(small)
        assert lpcore._meets_rows(start.values, *large.matrices())
        with caplog.at_level(logging.DEBUG, logger="anchorpriv.lpcore"):
            warm = solve_lp(large, start=start.as_start())
        assert self._strategies(caplog) == [("feasible basis", 1)]
        assert warm.from_basis
        assert abs(warm.objective_value - solve_lp(large).objective_value) <= 1e-12

    def test_start_from_an_arc_neighbour_runs_primal_simplex_on_the_dual(self, caplog):
        # Desk at eps 1.6: one axis's budget shrinks, and its rows cut the start's table.
        inst, coeffs = _config_instance("desk")
        centre, neighbour = (apo.build_approx_apo(inst.partition, inst.outputs, bv, coeffs)
                             for bv in budget.feasible_allocations(1.6, 2.0)[4:6])
        start = solve_lp(centre)
        assert not lpcore._meets_rows(start.values, *neighbour.matrices())
        with caplog.at_level(logging.DEBUG, logger="anchorpriv.lpcore"):
            warm = solve_lp(neighbour, start=start)
        assert self._strategies(caplog) == [("neighbour basis", 4)]
        assert warm.from_basis

    def test_start_without_values_runs_primal_simplex_on_the_dual(self, caplog):
        small, large = (_anchor_program(4, 3, eps) for eps in (0.4, 1.2))
        start = solve_lp(small)
        start.values = None
        with caplog.at_level(logging.DEBUG, logger="anchorpriv.lpcore"):
            solve_lp(large, start=start)
        assert self._strategies(caplog) == [("neighbour basis", 4)]

    def test_start_kind_must_match_the_basis(self):
        lp = _anchor_program(3, 3)
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        with pytest.raises(ValueError, match="does not describe the basis"):
            lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                           start="constant table")
        with pytest.raises(ValueError, match="does not describe the basis"):
            lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                           basis=lpcore._constant_basis(lp))


@functools.cache
def _config_instance(name):
    """The instance and surrogate coefficients of a benchmark config, instance seed 6."""
    run = load_config(ROOT / "perfbench" / "inputs" / f"{name}.yaml")
    inst = evaluation.synth_instance(run.instance, seed=6)
    return inst, _surrogate(inst)


class TestConstantStart:
    @pytest.mark.parametrize("name", ["desk", "grid8"])
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("eps", [1e-9, 0.2, 1.6, 20.0])
    def test_reaches_the_cold_optimum(self, monkeypatch, name, p, eps):
        inst, coeffs = _config_instance(name)
        lp = apo.build_approx_apo(inst.partition, inst.outputs, budget.equal_split(eps, p, 2),
                                  coeffs)
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        cold = lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                              method="highs-ds" if name == "desk" else "highs-ipm",
                              options=_SOLVE_OPTIONS)
        kinds = _start_kinds(monkeypatch)
        # The whole program, as solve_approx_apo solves a master over every
        # output column; it raises unless the certificate is optimal.
        _, sol = apo._solved_table(lp, solve_lp(lp))
        assert kinds == ["constant table"]
        certificate = apo._dual_certificate(lp, sol.multipliers)
        assert sol.objective_value - certificate <= apo.OPTIMALITY_TOL * sol.objective_value
        # Both meet the rows to FEASIBILITY_TOL only (the cold grid8 table at
        # eps 1e-9 has entries of -3e-11), so the optima agree to 6.7e-12.
        assert abs(sol.objective_value - cold.objective_value) <= 1e-10 * cold.objective_value
        # Column generation over the outputs reaches the same optimum.
        _, generated = apo.solve_approx_apo(lp)
        assert generated.objective_value == pytest.approx(cold.objective_value,
                                                          rel=apo.OPTIMALITY_TOL)

    def test_basis_is_the_constant_table(self):
        # Solved with no iteration allowed, the start itself comes back.
        lp = _anchor_program(3, 3)
        best = np.argmin(lp.objective.reshape(lp.var_shape).sum(axis=0))
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        solver = highs._Highs()
        solver.setOptionValue("output_flag", False)
        solver.passModel(*lpcore._dual_model(lp.objective, a_ub, b_ub, a_eq, b_eq))
        assert solver.setBasis(lpcore._constant_basis(lp)) == highs.HighsStatus.kOk
        solver.setOptionValue("simplex_iteration_limit", 0)
        solver.run()
        table = (0.0 - np.array(solver.getSolution().row_dual)).reshape(lp.var_shape)
        assert table[:, best].tolist() == [1.0] * lp.var_shape[0]
        assert np.count_nonzero(table) == lp.var_shape[0]

    def test_program_without_the_table_layout_has_none(self):
        lp = _anchor_program(3, 3)
        assert lpcore._constant_basis(LinearProgram(lp.objective, lp.a_ub, lp.b_ub)) is None
        assert lpcore._constant_basis(
            LinearProgram(lp.objective, lp.a_ub, lp.b_ub, lp.a_eq, lp.b_eq)) is None
        # Rows that the constant table misses.
        assert lpcore._constant_basis(LinearProgram(
            lp.objective, lp.a_ub, lp.b_ub - 1.0, lp.a_eq, lp.b_eq, lp.var_shape)) is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 6), st.integers(1, 4), st.data())
    def test_optimum_equals_the_cold_solve(self, n_rows, n_out, data):
        pairs = [(i, j) for i in range(n_rows) for j in range(i + 1, n_rows)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        objective = np.array(data.draw(st.lists(st.floats(0.0, 10.0), min_size=n_rows * n_out,
                                                max_size=n_rows * n_out))).reshape(n_rows, n_out)
        log_bound = data.draw(st.lists(st.floats(0.0, 5.0), min_size=len(chosen),
                                       max_size=len(chosen)))
        first, second = (np.array([pair[k] for pair in chosen], dtype=int) for k in (0, 1))
        lp = apo._ratio_program(objective, first, second, np.array(log_bound))
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        cold = lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                              options=_SOLVE_OPTIONS)
        basis = lpcore._constant_basis(lp)
        assert basis is not None
        sol = lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                             options=lpcore._FEASIBLE_OPTIONS, basis=basis,
                             start="constant table")
        assert abs(sol.objective_value - cold.objective_value) <= 1e-9 * (
            1.0 + abs(cold.objective_value))


def _package_program(kind, monkeypatch):
    """One program of each kind the package builds, on a 4x4/K=9 instance at eps 0.8."""
    spec = evaluation.InstanceSpec(grid=(4, 4), outputs=(3, 3))
    inst = evaluation.synth_instance(spec, seed=0)
    part, outputs = inst.partition, inst.outputs
    coeffs = apo.surrogate_coefficients(part, inst.prior, inst.loss, outputs)
    if kind == "anchor":
        return apo.build_approx_apo(part, outputs, budget.equal_split(0.8, 2.0, 2), coeffs)
    if kind == "AIPO-R":
        return apo.build_aipo_relaxed(part, outputs, 0.8, 2.0, coeffs)
    if kind == "CoarseLP":
        reps = part.cell_lower + 0.5 * part.deltas
        return apo.build_coarse_lp(reps, np.full(part.n_cells, 1 / part.n_cells), outputs,
                                   0.8, 2.0, inst.loss)
    solved = []
    solve = apo._block_ipm
    monkeypatch.setattr(apo, "_block_ipm", lambda objective, programs: solved.extend(
        apo._ratio_program(objective, *program) for program in programs) or solve(
            objective, programs))
    apo.lower_bound(part, outputs, 0.8, 2.0, inst.loss, inst.prior)
    return solved[0]


class TestCsrMatrix:
    """lpcore's own sparse arithmetic against scipy.sparse on the package's programs."""

    @staticmethod
    def _highs_arrays(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
        """(start, index, value) of the matrix HiGHS holds once it takes lpcore's model."""
        solver = highs._Highs()
        solver.setOptionValue("output_flag", False)
        model = lpcore._dual_model(np.asarray(c, dtype=float), a_ub, b_ub, a_eq, b_eq)
        assert solver.passModel(*model) == highs.HighsStatus.kOk
        held = solver.getLp().a_matrix_
        assert held.format_ == highs.MatrixFormat.kColwise
        return held.start_, held.index_, held.value_

    @staticmethod
    def _same_bytes(got, ref):
        """Whether HiGHS's arrays hold ``ref``'s entries, column by column.

        HiGHS keeps each column's entries in the order it is given, the
        order of the primal row; scipy sorts them.
        """
        got = sparse.csc_array((got[2], got[1], got[0]), shape=ref.shape)
        got.sort_indices()
        return all(np.asarray(x, dtype=y.dtype).tobytes() == y.tobytes()
                   for x, y in zip((got.indptr, got.indices, got.data),
                                   (ref.indptr, ref.indices, ref.data)))

    @pytest.mark.parametrize("kind", ["anchor", "AIPO-R", "CoarseLP", "lower bound"])
    def test_highs_model_arrays_equal_scipy(self, kind, monkeypatch):
        # The dual's matrix [-A_ub^T, A_eq^T], as scipy builds it.
        lp = _package_program(kind, monkeypatch)
        ref = sparse.csc_array(sparse.hstack([-to_scipy(lp.a_ub).T, to_scipy(lp.a_eq).T]))
        got = self._highs_arrays(lp.objective, *lp.matrices())
        assert self._same_bytes(got, ref)

    def test_highs_model_arrays_of_one_block_and_none(self):
        a = CsrMatrix.from_dense([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
        for got, ref in ((self._highs_arrays(np.zeros(3), a, np.zeros(2)), -to_scipy(a).T),
                         (self._highs_arrays(np.zeros(3), None, None, a, np.zeros(2)),
                          to_scipy(a).T)):
            assert self._same_bytes(got, sparse.csc_array(ref))
        start, index, value = self._highs_arrays(np.zeros(3))
        assert list(start) == [0] and len(index) == len(value) == 0

    @pytest.mark.parametrize("kind", ["anchor", "AIPO-R", "CoarseLP", "lower bound"])
    def test_products_equal_scipy(self, kind, monkeypatch):
        lp = _package_program(kind, monkeypatch)
        rng = np.random.default_rng(3)
        for mat in (lp.a_ub, lp.a_eq):
            x = rng.random(mat.shape[1])
            y = rng.normal(size=mat.shape[0])
            assert (mat @ x).tobytes() == (to_scipy(mat) @ x).tobytes()
            assert mat.rmatvec(y).tobytes() == (to_scipy(mat).T @ y).tobytes()

    def test_dense_input_keeps_nonzeros_row_by_row(self):
        a = CsrMatrix.from_dense([[0.0, 2.0, -1.0], [0.0, 0.0, 0.0], [4.0, 0.0, 5.0]])
        assert a.shape == (3, 3) and a.nnz == 4
        assert a.indptr.tolist() == [0, 2, 2, 4] and a.indices.tolist() == [1, 2, 0, 2]
        assert a.data.tolist() == [2.0, -1.0, 4.0, 5.0]
        assert (a @ np.ones(3)).tolist() == [1.0, 0.0, 9.0]
        assert a.rmatvec(np.ones(3)).tolist() == [4.0, 2.0, 4.0]

    def test_malformed_input_is_rejected(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            CsrMatrix.from_dense([1.0, 2.0])
        with pytest.raises(ValueError, match="inconsistent CSR arrays"):
            CsrMatrix([0, 1], [0, 1], [1.0, 1.0], (1, 2))
        with pytest.raises(ValueError, match="column index out of range"):
            CsrMatrix([0, 1], [2], [1.0], (1, 2))


class TestHighsLoader:
    def test_directory_without_the_extension_raises(self, tmp_path):
        version = importlib.metadata.version("scipy")
        with pytest.raises(ImportError,
                           match=rf"\(scipy {version}\); anchorpriv needs scipy>=1\.15"):
            lpcore._load_highs(tmp_path)

    def test_package_loads_no_other_scipy_module(self):
        # A fresh interpreter: the test session itself has scipy loaded. The
        # package loads no scipy module at import; scipy.optimize, imported
        # before the first solve, loads the binding itself, so its attribute
        # path is set, and lpcore solves with scipy's copy.
        code = textwrap.dedent("""
            import sys
            import anchorpriv, anchorpriv.cli
            from anchorpriv import lpcore
            core = lpcore.HIGHS_MODULE
            print(sorted(m for m in sys.modules if m.startswith("scipy")))
            import scipy.optimize
            from scipy.optimize._highspy import _core
            print(_core is scipy.optimize._highspy._core is lpcore.highs is sys.modules[core])
            res = scipy.optimize.linprog([1.0], A_ub=[[-1.0]], b_ub=[-3.0], method="highs")
            print(res.status, res.x.tolist())
        """)
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=_SRC_ENV)
        assert run.stdout.splitlines() == ["[]", "True", "0 [3.0]"]

    def test_threads_making_the_first_solve_together_load_one_module(self):
        # Four threads (more than this suite's 2-core machines have) start
        # their first solve at once while the load is slowed down, so every
        # later thread arrives during the first one's load.
        code = textwrap.dedent("""
            import sys, threading, time
            from anchorpriv import lpcore
            loads, modules, values = [], [], []
            load, binding = lpcore._load_highs, lpcore._binding
            def slow_load(directory):
                loads.append(directory)
                time.sleep(0.2)
                return load(directory)
            def seen():
                modules.append(binding())
                return modules[-1]
            lpcore._load_highs, lpcore._binding = slow_load, seen
            start = threading.Barrier(4)
            def solve():
                start.wait()
                sol = lpcore.linprog([1.0], A_ub=lpcore.CsrMatrix.from_dense([[-1.0]]),
                                     b_ub=[-3.0])
                values.append(sol.values.tolist())
            threads = [threading.Thread(target=solve) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            print(sum(t.is_alive() for t in threads), len(loads), values)
            print(len({id(m) for m in modules}), modules[0] is sys.modules[lpcore.HIGHS_MODULE])
        """)
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120, env=_SRC_ENV)
        assert run.stdout.splitlines() == ["0 1 " + str([[3.0]] * 4), "1 True"]


class TestBinding:
    """lpcore.linprog against scipy.optimize.linprog on the same programs."""

    @pytest.mark.parametrize("grid, out, method, extra", [
        (4, 3, "highs-ds", {}),
        (7, 4, "highs-ipm", {}),
        (7, 4, "highs-ipm", {"run_crossover": "off"}),
    ])
    def test_cold_solve_is_bitwise_equal_to_scipy(self, grid, out, method, extra):
        # scipy solves the explicit dual with the same options.
        lp = _anchor_program(grid, out)
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        options = dict(_SOLVE_OPTIONS, **extra)
        with pytest.warns(OptimizeWarning) if extra else contextlib.nullcontext():
            ref = scipy_dual_linprog(lp, method=method, options=options)
        sol = lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                             method=method, options=options)
        assert ref.res.status == 0 and sol.method == method
        assert sol.values.tobytes() == ref.values.tobytes()
        assert sol.objective_value == ref.objective_value
        assert sol.multipliers.tobytes() == ref.multipliers.tobytes()
        assert (sol.basis is None) == ("run_crossover" in extra)
        # At a vertex the dual's optimum is the primal's, negated; IPX alone
        # stops once the two are 1e-8 apart relative to 1 + |objective|.
        gap = 1e-8 * (1 + sol.objective_value) if extra else 1e-12 * sol.objective_value
        assert abs(sol.objective_value + ref.res.fun) <= gap

    def test_iterations_are_counted_by_method(self, monkeypatch):
        monkeypatch.setattr(lpcore, "IPM_MIN_VARS", 1)
        lp = _anchor_program(7, 4)
        sol = solve_lp(lp)
        assert sol.method == "highs-ipm"
        assert sol.ipm_nit > 0 and sol.crossover_nit > 0
        assert sol.nit == sol.simplex_nit + sol.ipm_nit + sol.crossover_nit
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        res = lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                             method="highs-ipm", options=dict(_SOLVE_OPTIONS))
        assert res.nit == res.simplex_nit + res.ipm_nit + res.crossover_nit == sol.nit

    def test_unknown_option_is_rejected(self):
        with pytest.raises(ValueError, match="HiGHS rejects option"):
            lpcore.linprog([1.0], A_ub=CsrMatrix.from_dense([[-1.0]]), b_ub=[-1.0],
                           options={"no_such_option": 1})

    def test_non_finite_solution_raises(self, monkeypatch):
        _corrupt_solutions(monkeypatch, 1)
        lp = LinearProgram(objective=[1.0, 3.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        with pytest.raises(SolverError, match=r"^highs-ds failed: non-finite values"):
            solve_lp(lp)

    def test_negative_value_raises(self, monkeypatch):
        # The values are the dual's row duals negated; x >= 0 is checked as a row.
        class SignHighs(highs._Highs):
            def getSolution(self):
                solution = super().getSolution()
                solution.row_dual = [1e-6, *solution.row_dual[1:]]
                return solution

        monkeypatch.setattr(highs, "_Highs", SignHighs)
        lp = LinearProgram(objective=[1.0, 3.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
        with pytest.raises(SolverError, match=r"^highs-ds failed: bound residual 1\.000e-06"):
            solve_lp(lp)

    @pytest.mark.parametrize("route, failed", [("ipx", "highs-ipm"), ("start basis", "highs-ds")])
    def test_failed_check_falls_through_to_the_next_route(self, monkeypatch, caplog, route,
                                                          failed):
        centre, neighbour = _neighbour_programs()
        cold = solve_lp(neighbour)
        start = solve_lp(centre) if route == "start basis" else None
        if route == "ipx":
            monkeypatch.setattr(lpcore, "IPM_MIN_VARS", 1)
        _corrupt_solutions(monkeypatch, 1)
        with caplog.at_level(logging.INFO, logger="anchorpriv.lpcore"):
            sol = solve_lp(neighbour, start=start)
        assert caplog.records[0].getMessage().startswith(f"{failed} failed: non-finite values")
        assert sol.method == "highs-ds" and not sol.from_basis
        assert sol.values.tobytes() == cold.values.tobytes()


def _corrupt_solutions(monkeypatch, count):
    """Make the next ``count`` optimal HiGHS solutions report a NaN first value.

    The primal's values are the dual's row duals, negated.
    """
    left = [count]

    class NanHighs(highs._Highs):
        def getSolution(self):
            solution = super().getSolution()
            if left[0] > 0:
                left[0] -= 1
                solution.row_dual = [math.nan, *solution.row_dual[1:]]
            return solution

    monkeypatch.setattr(highs, "_Highs", NanHighs)
