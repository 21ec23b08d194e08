import contextlib
import importlib.metadata
import itertools
import logging
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import OptimizeWarning

from anchorpriv import apo, budget, evaluation, lpcore
from anchorpriv.errors import SolverError
from anchorpriv.lpcore import (
    _SOLVE_OPTIONS,
    IPM_MAX_ROWS_PER_VAR,
    IPM_MIN_VARS,
    CsrMatrix,
    LinearProgram,
    solve_lp,
)

from conftest import from_scipy, scipy_linprog, to_scipy

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


def _anchor_program(grid, out):
    """The anchor LP of a grid x grid instance with out x out outputs at eps 0.8."""
    spec = evaluation.InstanceSpec(grid=(grid, grid), outputs=(out, out))
    inst = evaluation.synth_instance(spec, seed=0)
    coeffs = apo.surrogate_coefficients(inst.partition, inst.prior, inst.loss, inst.outputs)
    bv = budget.equal_split(0.8, 2.0, 2)
    return apo.build_approx_apo(inst.partition, inst.outputs, bv, coeffs)


def _fail_from_basis(monkeypatch):
    """Make every HiGHS call given a start basis raise."""
    solve = lpcore.linprog

    def failing_warm(*args, basis=None, **kw):
        if basis is not None:
            raise SolverError("highs-ds failed: forced")
        return solve(*args, **kw)

    monkeypatch.setattr(lpcore, "linprog", failing_warm)


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
    ref = scipy_linprog(lp, method="highs-ds", options=dict(_SOLVE_OPTIONS))
    monkeypatch.setattr(lpcore, "IPM_MIN_VARS", 1)
    methods = _end_interior_point_in(monkeypatch, status)
    with caplog.at_level(logging.INFO, logger="anchorpriv.lpcore"):
        sol = solve_lp(lp)
    assert methods == ["highs-ipm", "highs-ds"]
    assert sol.method == "highs-ds"
    assert sol.values.tobytes() == ref.x.tobytes()
    assert sol.objective_value == ref.fun
    assert sol.multipliers.tobytes() == (-ref.ineqlin.marginals).tobytes()
    name = {4: "Solve error", 2: "Model error"}[status]
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.INFO, f"highs-ipm failed: (HiGHS Status {status}: {name}); solving again on highs-ds")]


class TestSolverRouting:
    @pytest.fixture(scope="class")
    def large(self):
        lp = _anchor_program(7, 4)  # 64 anchors x 16 outputs
        assert lp.n_vars == 1024 >= IPM_MIN_VARS
        return lp, solve_lp(lp)

    def test_desk_program_uses_dual_simplex(self, caplog):
        lp = _anchor_program(4, 3)
        with caplog.at_level(logging.DEBUG, logger="anchorpriv.lpcore"):
            sol = solve_lp(lp)
        assert "'method': 'highs-ds'" in caplog.text and "'n_vars': 225" in caplog.text
        assert lp.n_vars == 225 < IPM_MIN_VARS
        assert sol.method == "highs-ds"
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
        assert "highs-ipm failed: (HiGHS Status 10: Unbounded)" in caplog.text


def _tall_table_program():
    """A 50 x 16 table (800 variables) with 6,514 rows: 8.1 per variable."""
    rng = np.random.default_rng(5)
    first, second = np.triu_indices(50, k=1)
    pairs = 202
    return apo._ratio_program(rng.random((50, 16)), first[:pairs], second[:pairs],
                              np.full(pairs, math.log(1.5)))


class TestTallTableAndMultipliers:
    def test_tall_table_program_keeps_dual_simplex(self):
        lp = _tall_table_program()
        assert lp.n_vars >= IPM_MIN_VARS
        assert lp.n_ub_rows + lp.n_eq_rows > IPM_MAX_ROWS_PER_VAR * lp.n_vars
        assert solve_lp(lp).method == "highs-ds"

    def test_multipliers_are_negated_marginals(self):
        lp = _anchor_program(4, 3)
        sol = solve_lp(lp)
        ref = scipy_linprog(lp, method="highs-ds", options=dict(_SOLVE_OPTIONS))
        assert sol.multipliers.tobytes() == (-ref.ineqlin.marginals).tobytes()
        assert sol.multipliers.min() >= -1e-9

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
        bases = []
        solve = lpcore.linprog
        monkeypatch.setattr(lpcore, "linprog",
                            lambda *a, basis=None, **kw: bases.append(basis) or solve(
                                *a, basis=basis, **kw))
        sol = solve_lp(centre, start=other)
        assert bases == [None]
        assert sol.values.tobytes() == solve_lp(centre).values.tobytes()

    def test_start_without_arrays_solves_as_the_solution(self):
        centre, neighbour = _neighbour_programs()
        start = solve_lp(centre)
        kept = start.as_start()
        assert kept.values is None and kept.multipliers is None
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


    def test_solution_records_whether_it_started_from_a_basis(self, monkeypatch, caplog):
        centre, neighbour = _neighbour_programs()
        start = solve_lp(centre)
        assert not start.from_basis
        with caplog.at_level(logging.DEBUG, logger="anchorpriv.lpcore"):
            warm = solve_lp(neighbour, start=start)
        assert warm.from_basis and "'from_basis': True" in caplog.text
        _fail_from_basis(monkeypatch)
        assert not solve_lp(neighbour, start=start).from_basis


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
    programs = []
    solve = apo.solve_lp
    monkeypatch.setattr(apo, "solve_lp", lambda lp, **kw: programs.append(lp) or solve(lp, **kw))
    apo.lower_bound(part, outputs, 0.8, 2.0, inst.loss, inst.prior)
    return programs[0]


class TestCsrMatrix:
    """lpcore's own sparse arithmetic against scipy.sparse on the package's programs."""

    @staticmethod
    def _highs_arrays(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None):
        """(start, index, value) of the matrix HiGHS holds once it takes lpcore's model."""
        solver = highs._Highs()
        solver.setOptionValue("output_flag", False)
        model = lpcore._highs_model(c, a_ub, b_ub, a_eq, b_eq)
        assert solver.passModel(model) == highs.HighsStatus.kOk
        held = solver.getLp().a_matrix_
        assert held.format_ == highs.MatrixFormat.kColwise
        return held.start_, held.index_, held.value_

    @staticmethod
    def _same_bytes(got, ref):
        return all(np.asarray(x, dtype=y.dtype).tobytes() == y.tobytes()
                   for x, y in zip(got, (ref.indptr, ref.indices, ref.data)))

    @pytest.mark.parametrize("kind", ["anchor", "AIPO-R", "CoarseLP", "lower bound"])
    def test_highs_model_arrays_equal_scipy(self, kind, monkeypatch):
        lp = _package_program(kind, monkeypatch)
        ref = sparse.csc_array(sparse.vstack([to_scipy(lp.a_ub), to_scipy(lp.a_eq)]))
        got = self._highs_arrays(lp.objective, *lp.matrices())
        assert self._same_bytes(got, ref)

    def test_highs_model_arrays_of_one_block_and_none(self):
        a = CsrMatrix.from_dense([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
        ref = sparse.csc_array(to_scipy(a))
        assert self._same_bytes(self._highs_arrays(np.zeros(3), a, np.zeros(2)), ref)
        start, index, value = self._highs_arrays(np.zeros(3))
        assert list(start) == [0, 0, 0, 0] and len(index) == len(value) == 0

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
        # A fresh interpreter: the test session itself has scipy loaded.
        code = textwrap.dedent("""
            import sys
            import anchorpriv, anchorpriv.cli
            from anchorpriv import lpcore
            core = lpcore.HIGHS_MODULE
            print(sorted(m for m in sys.modules if m.startswith("scipy")
                         and m != core and not m.startswith(core + ".")))
            import scipy.optimize
            from scipy.optimize._highspy import _core
            print(_core is lpcore.highs is sys.modules[core])
            res = scipy.optimize.linprog([1.0], A_ub=[[-1.0]], b_ub=[-3.0], method="highs")
            print(res.status, res.x.tolist())
        """)
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True)
        assert run.stdout.splitlines() == ["[]", "True", "0 [3.0]"]


class TestBinding:
    """lpcore.linprog against scipy.optimize.linprog on the same programs."""

    @pytest.mark.parametrize("grid, out, method, extra", [
        (4, 3, "highs-ds", {}),
        (7, 4, "highs-ipm", {}),
        (7, 4, "highs-ipm", {"run_crossover": "off"}),
    ])
    def test_cold_solve_is_bitwise_equal_to_scipy(self, grid, out, method, extra):
        lp = _anchor_program(grid, out)
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        options = dict(_SOLVE_OPTIONS, **extra)
        with pytest.warns(OptimizeWarning) if extra else contextlib.nullcontext():
            ref = scipy_linprog(lp, method=method, options=options)
        sol = lpcore.linprog(lp.objective, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                             method=method, options=options)
        assert ref.status == 0 and sol.method == method
        assert sol.values.tobytes() == ref.x.tobytes()
        assert sol.objective_value == ref.fun
        assert sol.multipliers.tobytes() == (-ref.ineqlin.marginals).tobytes()
        assert (sol.basis is None) == ("run_crossover" in extra)

    def test_iterations_are_counted_by_method(self):
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
    """Make the next ``count`` optimal HiGHS solutions report a NaN first value."""
    left = [count]

    class NanHighs(highs._Highs):
        def getSolution(self):
            solution = super().getSolution()
            if left[0] > 0:
                left[0] -= 1
                solution.col_value = [math.nan, *solution.col_value[1:]]
            return solution

    monkeypatch.setattr(highs, "_Highs", NanHighs)
