import logging
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anchorpriv import apo, lpcore
from anchorpriv.apo import (
    OutputDomain,
    PerturbationTable,
    build_aipo_relaxed,
    build_approx_apo,
    build_coarse_lp,
    lower_bound,
    solve_approx_apo,
    surrogate_coefficients,
)
from anchorpriv.budget import BudgetVector, check_budget
from anchorpriv.errors import SolverError
from anchorpriv.geometry import Partition, axis_neighbors
from anchorpriv.lpcore import _SOLVE_OPTIONS, solve_lp

from conftest import matrix_setup, scipy_linprog, to_scipy

DESK = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "desk.yaml"


def _desk_instance():
    from anchorpriv.cli import load_config
    from anchorpriv.evaluation import synth_instance

    run = load_config(DESK)
    return synth_instance(run.instance, seed=run.seed), run.privacy.p


def _shifted_desk_instance(tmp_path, offset):
    """The desk instance with its domain shifted by ``offset``, as perfbench/run.py shifts it."""
    from anchorpriv.cli import load_config
    from anchorpriv.evaluation import synth_instance

    cfg = yaml.safe_load(DESK.read_text())
    for side in ("lower", "upper"):
        cfg["domain"][side] = [v + o for v, o in zip(cfg["domain"][side], offset)]
    path = tmp_path / "shifted.yaml"
    path.write_text(yaml.safe_dump(cfg))
    run = load_config(path)
    return synth_instance(run.instance, seed=run.seed)


def _spy_solves(monkeypatch):
    """Record each (program, solution) that ``apo`` solves from now on."""
    solves = []
    solve = apo.solve_lp

    def spy(lp, **kw):
        sol = solve(lp, **kw)
        solves.append((lp, sol))
        return sol

    monkeypatch.setattr(apo, "solve_lp", spy)
    return solves


def _spy_block_ipm(monkeypatch):
    """Record each (program, solution) that ``apo._block_ipm`` solves from now on."""
    solves = []
    solve = apo._block_ipm

    def spy(*args):
        sol = solve(*args)
        solves.append((apo._ratio_program(*args), sol))
        return sol

    monkeypatch.setattr(apo, "_block_ipm", spy)
    return solves


def _vertex_optimum(lp):
    ref = scipy_linprog(lp, method="highs-ds", options=dict(_SOLVE_OPTIONS))
    assert ref.status == 0
    return ref.fun


def _small_ratio_program():
    """Four table rows of three outputs, every pair ratio-bounded."""
    rng = np.random.default_rng(8)
    first, second = np.triu_indices(4, k=1)
    log_bound = 0.6 * rng.random(first.size)
    return apo._ratio_program(rng.random((4, 3)), first, second, log_bound)


class TestDistinctRows:
    def test_repeated_rows_are_rejected_wherever_they_stand(self):
        rows = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        OutputDomain(points=rows)
        for dup in ([[1.0, 0.0]], [[-0.0, 1.0]]):  # -0.0 equals 0.0, as in np.unique
            with pytest.raises(ValueError, match="output candidates must be distinct"):
                OutputDomain(points=np.vstack([rows, dup]))
            with pytest.raises(ValueError, match="representatives must be distinct"):
                build_coarse_lp(np.vstack([dup, rows]), np.ones(5), OutputDomain(points=rows),
                                0.8, 2.0, None)
        # Rows that share a first coordinate or a second one are distinct.
        assert apo._distinct_rows(np.array([[0.0, 1.0], [0.0, 2.0], [3.0, 1.0]]))

class TestPerturbationTable:
    def test_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            PerturbationTable([[0.5, 0.4]])
        with pytest.raises(ValueError):
            PerturbationTable([[1.2, -0.2]])
        # NaN passes every comparison, so the row-sum check alone misses it.
        with pytest.raises(ValueError, match="finite"):
            PerturbationTable([[math.nan, 1.0]])

    def test_json_round_trip(self, tmp_path):
        # Tables are stored only inside mechanism files.
        from anchorpriv.interpolation import Mechanism

        table = PerturbationTable([[0.25, 0.75], [0.5, 0.5]])
        outputs = OutputDomain(points=np.array([[0.0], [1.0]]))
        Mechanism(Partition((0.0,), (1.0,), (1,)), table, outputs).save(tmp_path / "m.json")
        back = Mechanism.load(tmp_path / "m.json").table
        assert np.array_equal(back.probs, table.probs)


class TestCheckBudget:
    def test_p2_equal_split_saturates_exactly(self):
        bv = BudgetVector(eps=np.array([1 / (2 * math.sqrt(2))] * 2), total_eps=1.0, p=2)
        chk = check_budget(bv)
        assert chk.ok
        assert chk.lhs == pytest.approx(0.25, abs=1e-15)
        assert chk.rhs == pytest.approx(0.25, abs=1e-15)

    def test_p1_max_rule(self):
        bv = BudgetVector(eps=np.array([0.5, 0.5]), total_eps=1.0, p=1)
        assert check_budget(bv).ok

    def test_p2_half_half_fails(self):
        bv = BudgetVector(eps=np.array([0.5, 0.5]), total_eps=1.0, p=2)
        chk = check_budget(bv)
        assert not chk.ok
        assert chk.lhs == pytest.approx(0.5)
        assert chk.rhs == pytest.approx(0.25)

    def test_invalid_vectors_rejected(self):
        with pytest.raises(ValueError):
            BudgetVector(eps=np.array([-0.1]), total_eps=1.0, p=2)
        with pytest.raises(ValueError):
            BudgetVector(eps=np.array([0.1]), total_eps=0.0, p=2)


class TestSurrogateCoefficients:
    def test_mass_at_base_corner_is_indicator(self):
        part = Partition((0.0, 0.0), (1.0, 1.0), (1, 1))
        prior, loss, outputs = matrix_setup(
            [[0.0, 0.0]], [1.0], [[5.0]], [[0.5, 0.5]]
        )
        coeffs = surrogate_coefficients(part, prior, loss, outputs)
        assert coeffs.matrix[0, 0] == pytest.approx(5.0, abs=1e-15)
        assert np.allclose(coeffs.matrix[1:], 0.0)

    def test_center_splits_evenly(self):
        part = Partition((0.0, 0.0), (1.0, 1.0), (1, 1))
        prior, loss, outputs = matrix_setup(
            [[0.5, 0.5]], [1.0], [[4.0]], [[0.5, 0.5]]
        )
        coeffs = surrogate_coefficients(part, prior, loss, outputs)
        assert np.allclose(coeffs.matrix, 0.25 * 1.0 * 4.0)

    def test_two_corner_samples_accumulate(self):
        part = Partition((0.0, 0.0), (1.0, 1.0), (1, 1))
        prior, loss, outputs = matrix_setup(
            [[0.0, 0.0], [1.0, 1.0]], [0.5, 0.5], [[2.0], [2.0]], [[0.5, 0.5]]
        )
        coeffs = surrogate_coefficients(part, prior, loss, outputs)
        # corners ordered (0,0), (0,1), (1,0), (1,1) on the anchor lattice
        assert coeffs.matrix[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert coeffs.matrix[3, 0] == pytest.approx(1.0, abs=1e-15)
        assert coeffs.matrix[1, 0] == pytest.approx(0.0, abs=1e-15)

    def test_shared_anchor_accumulates_from_both_cells(self):
        part = Partition((0.0,), (1.0,), (2,))
        prior, loss, outputs = matrix_setup(
            [[0.25], [0.75]], [0.5, 0.5], [[1.0], [1.0]], [[0.0]]
        )
        coeffs = surrogate_coefficients(part, prior, loss, outputs)
        # middle anchor 0.5 receives weight 0.5 from each side's sample
        assert coeffs.matrix[1, 0] == pytest.approx(0.5, abs=1e-15)

    def test_total_mass_conservation(self):
        # per sample point the corner weights sum to one, so summing the
        # coefficient matrix over anchors recovers the prior-weighted loss
        part = Partition((0.0, 0.0), (2.0, 2.0), (2, 2))
        rng = np.random.default_rng(23)
        pts = rng.random((12, 2)) * 2.0
        masses = rng.random(12)
        masses /= masses.sum()
        loss_rows = rng.random((12, 3)) * 5.0
        prior, loss, outputs = matrix_setup(
            pts, masses, loss_rows, rng.random((3, 2)) * 2.0
        )
        coeffs = surrogate_coefficients(part, prior, loss, outputs)
        expect = (masses[:, None] * loss_rows).sum(axis=0)
        assert np.allclose(coeffs.matrix.sum(axis=0), expect, atol=1e-12)

    def test_exactness_when_mass_sits_on_anchors(self):
        # anchor-supported priors make the surrogate equal the plain
        # prior-weighted table loss, to float precision
        part = Partition((0.0, 0.0), (2.0, 2.0), (2, 2))
        rng = np.random.default_rng(11)
        pts = part.anchors.copy()
        masses = rng.random(pts.shape[0])
        masses /= masses.sum()
        k = 3
        loss_rows = rng.random((pts.shape[0], k)) * 4.0
        prior, loss, outputs = matrix_setup(
            pts, masses, loss_rows, [[0.5, 0.5], [1.5, 0.5], [1.0, 1.5]]
        )
        coeffs = surrogate_coefficients(part, prior, loss, outputs)
        table = rng.random((part.n_anchors, k))
        table /= table.sum(axis=1, keepdims=True)
        surrogate_value = float(np.sum(coeffs.matrix * table))
        exact = sum(
            masses[i] * float(table[i] @ loss_rows[i]) for i in range(pts.shape[0])
        )
        assert surrogate_value == pytest.approx(exact, abs=1e-12)


def _one_cell_1d(coeff_rows):
    part = Partition((0.0,), (1.0,), (1,))
    outputs = OutputDomain(points=np.array([[0.0], [1.0]]))
    from anchorpriv.apo import SurrogateCoefficients

    return part, outputs, SurrogateCoefficients(matrix=np.asarray(coeff_rows, float))


class TestApproxApo:
    def test_zero_axis_budget_forces_equal_rows(self):
        part, outputs, coeffs = _one_cell_1d([[1.0, 2.0], [3.0, 1.0]])
        bv = BudgetVector(eps=np.array([0.0]), total_eps=1.0, p=2)
        table, _ = solve_approx_apo(build_approx_apo(part, outputs, bv, coeffs))
        assert np.allclose(table.probs[0], table.probs[1], atol=1e-9)
        # column sums: y0 -> 4, y1 -> 3; all mass goes to y1
        assert table.probs[0] == pytest.approx([0.0, 1.0], abs=1e-9)

    def test_zero_budget_objective_is_min_column_sum(self):
        part, outputs, coeffs = _one_cell_1d([[1.0, 2.0], [3.0, 1.0]])
        bv = BudgetVector(eps=np.array([0.0]), total_eps=1.0, p=2)
        sol = solve_lp(build_approx_apo(part, outputs, bv, coeffs))
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_loose_budget_gives_per_anchor_argmin(self):
        part, outputs, coeffs = _one_cell_1d([[1.0, 2.0], [3.0, 1.0]])
        # ratio bound e^{5} far above any coefficient ratio
        bv = BudgetVector(eps=np.array([5.0]), total_eps=20.0, p=2)
        table, _ = solve_approx_apo(build_approx_apo(part, outputs, bv, coeffs))
        assert table.probs[0, 0] > 0.99
        assert table.probs[1, 1] > 0.99

    def test_table_that_is_not_optimal_raises(self, monkeypatch):
        # A solver answer reported optimal but with multipliers that do not
        # certify it: the uniform table with zero marginals.
        lp = _small_ratio_program()
        n_rows, n_out = lp.var_shape
        solve = lpcore.linprog

        def uniform_table(c, **kw):
            x = np.full(c.size, 1.0 / n_out)
            return replace(solve(c, **kw), values=x, objective_value=float(c @ x),
                           multipliers=np.zeros(lp.n_ub_rows))

        monkeypatch.setattr(lpcore, "linprog", uniform_table)
        with pytest.raises(SolverError, match="not optimal"):
            solve_approx_apo(lp)

    def test_optimal_table_returns_its_solution(self):
        lp = _small_ratio_program()
        table, sol = solve_approx_apo(lp)
        gap = sol.objective_value - apo._dual_certificate(lp, sol.multipliers)
        assert abs(gap) <= apo.OPTIMALITY_TOL * sol.objective_value
        assert table.probs == pytest.approx(sol.values.reshape(lp.var_shape), abs=1e-12)

    def test_constraint_counts_on_2x2_grid(self):
        part = Partition((0.0, 0.0), (1.0, 1.0), (2, 2))
        outputs = OutputDomain(points=np.array([[0.1, 0.1], [0.5, 0.9], [0.9, 0.2]]))
        from anchorpriv.apo import SurrogateCoefficients

        coeffs = SurrogateCoefficients(matrix=np.ones((part.n_anchors, 3)))
        bv = BudgetVector(eps=np.array([0.2, 0.2]), total_eps=2.0, p=2)
        lp = build_approx_apo(part, outputs, bv, coeffs)
        assert axis_neighbors(part)[0].size == 12
        assert lp.n_ub_rows == 12 * 2 * 3
        assert lp.n_eq_rows == part.n_anchors

    def test_budget_violating_composition_rejected(self):
        part, outputs, coeffs = _one_cell_1d([[1.0, 2.0], [3.0, 1.0]])
        bad = BudgetVector(eps=np.array([0.9]), total_eps=1.0, p=2)
        with pytest.raises(ValueError):
            build_approx_apo(part, outputs, bad, coeffs)

    def test_solver_beats_uniform_table(self):
        part, outputs, coeffs = _one_cell_1d([[1.0, 2.0], [3.0, 1.0]])
        bv = BudgetVector(eps=np.array([0.3]), total_eps=1.0, p=2)
        sol = solve_lp(build_approx_apo(part, outputs, bv, coeffs))
        uniform_obj = float(coeffs.matrix.sum()) / outputs.size
        assert sol.objective_value <= uniform_obj + 1e-12

    def test_objective_monotone_in_budget(self):
        part, outputs, coeffs = _one_cell_1d([[1.0, 2.0], [3.0, 1.0]])
        values = []
        for eps_axis in (0.05, 0.2, 0.5, 1.0, 2.0):
            bv = BudgetVector(eps=np.array([eps_axis]), total_eps=4.2 * eps_axis, p=2)
            values.append(solve_lp(build_approx_apo(part, outputs, bv, coeffs)).objective_value)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_neighbor_constraints_hold_on_solved_table(self):
        part = Partition((0.0, 0.0), (1.0, 1.0), (2, 2))
        rng = np.random.default_rng(5)
        outputs = OutputDomain(points=rng.random((4, 2)))
        from anchorpriv.apo import SurrogateCoefficients

        coeffs = SurrogateCoefficients(matrix=rng.random((part.n_anchors, 4)))
        bv = BudgetVector(eps=np.array([0.4, 0.25]), total_eps=2.0, p=2)
        table, _ = solve_approx_apo(build_approx_apo(part, outputs, bv, coeffs))
        logs = np.log(np.maximum(table.probs, 1e-300))
        for i, j, axis in zip(*axis_neighbors(part)):
            bound = bv.eps[axis] * part.deltas[axis]
            finite = (table.probs[i] > 0) & (table.probs[j] > 0)
            gaps = np.abs(logs[i][finite] - logs[j][finite])
            assert np.all(gaps <= bound + 1e-6)

    def test_chain_property_between_all_anchor_pairs(self):
        part = Partition((0.0, 0.0), (1.0, 1.0), (2, 2))
        rng = np.random.default_rng(6)
        outputs = OutputDomain(points=rng.random((3, 2)))
        from anchorpriv.apo import SurrogateCoefficients

        coeffs = SurrogateCoefficients(matrix=rng.random((part.n_anchors, 3)))
        bv = BudgetVector(eps=np.array([0.4, 0.25]), total_eps=2.0, p=2)
        table, _ = solve_approx_apo(build_approx_apo(part, outputs, bv, coeffs))
        probs = np.maximum(table.probs, 1e-12)
        probs = probs / probs.sum(axis=1, keepdims=True)
        logs = np.log(probs)
        anchors = part.anchors
        for i in range(part.n_anchors):
            for j in range(i + 1, part.n_anchors):
                bound = float(np.sum(bv.eps * np.abs(anchors[i] - anchors[j])))
                gaps = np.abs(logs[i] - logs[j])
                assert np.all(gaps <= bound + 1e-6)


class TestAipoRelaxed:
    def test_single_cell_matches_approx_apo(self):
        part, outputs, coeffs = _one_cell_1d([[1.0, 2.0], [3.0, 1.0]])
        bv = BudgetVector(eps=np.array([0.4]), total_eps=1.5, p=2)
        approx = solve_lp(build_approx_apo(part, outputs, bv, coeffs))
        relaxed = solve_lp(build_aipo_relaxed(part, outputs, 0.4, 2.0, coeffs))
        assert relaxed.objective_value == pytest.approx(approx.objective_value, abs=1e-9)

    def test_all_pairs_row_count(self):
        part = Partition((0.0, 0.0), (1.0, 1.0), (2, 2))
        from anchorpriv.apo import SurrogateCoefficients

        k = 4
        coeffs = SurrogateCoefficients(matrix=np.ones((part.n_anchors, k)))
        outputs = OutputDomain(points=np.array([[0.1, 0.1], [0.2, 0.9], [0.9, 0.4], [0.6, 0.6]]))
        lp = build_aipo_relaxed(part, outputs, 1.0, 2.0, coeffs)
        assert lp.n_ub_rows == 36 * 2 * k  # C(9, 2) unordered pairs

    def test_relaxed_objective_never_worse_than_composed(self):
        rng = np.random.default_rng(9)
        part = Partition((0.0, 0.0), (1.0, 1.0), (2, 2))
        from anchorpriv.apo import SurrogateCoefficients
        from anchorpriv.budget import equal_split

        for trial in range(5):
            k = int(rng.integers(2, 5))
            coeffs = SurrogateCoefficients(matrix=rng.random((part.n_anchors, k)) * 3)
            outputs = OutputDomain(points=rng.random((k, 2)))
            eps = float(rng.uniform(0.3, 2.0))
            bv = equal_split(eps, 2.0, 2)
            composed = solve_lp(build_approx_apo(part, outputs, bv, coeffs))
            relaxed = solve_lp(build_aipo_relaxed(part, outputs, eps, 2.0, coeffs))
            assert relaxed.objective_value <= composed.objective_value + 1e-9

    @pytest.mark.parametrize("eps, solves", [(12.0, True), (12.5, False)])
    def test_ratio_bound_above_highs_limit_raises_before_solving(self, eps, solves):
        # HiGHS rejects a matrix entry above 1e15 as a model error. The desk
        # domain's farthest anchors are 2 sqrt(2) apart, so exp(eps * d)
        # passes 1e15 between eps 12.21 and 12.22.
        inst, p = _desk_instance()
        coeffs = surrogate_coefficients(inst.partition, inst.prior, inst.loss, inst.outputs)
        if solves:
            solve_approx_apo(build_aipo_relaxed(inst.partition, inst.outputs, eps, p, coeffs))
        else:
            with pytest.raises(SolverError, match=r"at eps 12\.5 needs ratio bounds up to "
                               r"exp\(35\.3553\); HiGHS accepts at most exp\(34\.5388\)"):
                build_aipo_relaxed(inst.partition, inst.outputs, eps, p, coeffs)


def _dense_ratio_reference(n_rows, k, pairs):
    """Dense (A_ub, A_eq) of a ratio program, written entry by entry.

    Pairs are outer and outputs inner; row 2t is +1 @ (i, c), -b @ (j, c)
    and row 2t+1 is its mirror.
    """
    a_ub = np.zeros((2 * len(pairs) * k, n_rows * k))
    r = 0
    for i, j, bound in pairs:
        for c in range(k):
            a_ub[r, i * k + c] = 1.0
            a_ub[r, j * k + c] = -bound
            a_ub[r + 1, j * k + c] = 1.0
            a_ub[r + 1, i * k + c] = -bound
            r += 2
    a_eq = np.zeros((n_rows, n_rows * k))
    for i in range(n_rows):
        a_eq[i, i * k:(i + 1) * k] = 1.0
    return a_ub, a_eq


class TestRatioRowLayout:
    """Pins the assembled matrices of the anchor programs entry for entry."""

    def _setup(self):
        from anchorpriv.apo import SurrogateCoefficients

        part = Partition((0.0, 0.0), (1.0, 1.0), (2, 2))
        rng = np.random.default_rng(11)
        outputs = OutputDomain(points=rng.random((3, 2)))
        coeffs = SurrogateCoefficients(matrix=rng.random((part.n_anchors, 3)))
        return part, outputs, coeffs

    def _assert_layout(self, lp, coeffs, pairs):
        n_rows, k = coeffs.matrix.shape
        ref_ub, ref_eq = _dense_ratio_reference(n_rows, k, pairs)
        a_ub, b_ub, a_eq, b_eq = lp.matrices()
        assert np.array_equal(lp.objective, coeffs.matrix.ravel())
        assert a_ub.shape == ref_ub.shape and (to_scipy(a_ub).toarray() == ref_ub).all()
        assert (b_ub == np.zeros(ref_ub.shape[0])).all()
        assert a_eq.shape == ref_eq.shape and (to_scipy(a_eq).toarray() == ref_eq).all()
        assert (b_eq == np.ones(n_rows)).all()

    def test_approx_apo_matches_dense_reference(self):
        part, outputs, coeffs = self._setup()
        bv = BudgetVector(eps=np.array([0.4, 0.25]), total_eps=2.0, p=2)
        pairs = [
            (i, j, math.exp(bv.eps[axis] * part.deltas[axis]))
            for i, j, axis in zip(*axis_neighbors(part))
        ]
        self._assert_layout(build_approx_apo(part, outputs, bv, coeffs), coeffs, pairs)

    def test_aipo_relaxed_matches_dense_reference(self):
        from anchorpriv.geometry import lp_distance

        part, outputs, coeffs = self._setup()
        anchors = part.anchors
        pairs = [
            (i, j, math.exp(0.7 * lp_distance(anchors[i], anchors[j], 2.0)))
            for i in range(part.n_anchors)
            for j in range(i + 1, part.n_anchors)
        ]
        lp = build_aipo_relaxed(part, outputs, 0.7, 2.0, coeffs)
        self._assert_layout(lp, coeffs, pairs)


def _anchor_solve(instance, coeffs, eps, start=None):
    """(optimum, budget gradient, solution) of the anchor program at per-axis budgets ``eps``."""
    # The program reads only the vector; the total budget just has to cover it.
    bv = BudgetVector(eps=np.asarray(eps, dtype=float), total_eps=100.0, p=2.0)
    lp = build_approx_apo(instance.partition, instance.outputs, bv, coeffs)
    _, sol = solve_approx_apo(lp, start=start)
    return sol.objective_value, apo.budget_gradient(instance.partition, lp, sol), sol


class TestBudgetGradient:
    """The envelope-theorem derivative of the anchor optimum in each eps_l."""

    H = 1e-5

    @pytest.fixture(scope="class")
    def instances(self, grid8_instance):
        desk, _ = _desk_instance()
        grid8, _ = grid8_instance
        return {name: (inst, surrogate_coefficients(inst.partition, inst.prior, inst.loss,
                                                    inst.outputs))
                for name, inst in (("desk", desk), ("grid8", grid8))}

    def _gradient(self, instances, name, eps, warm):
        """The gradient at ``eps``, solved cold or from a neighbouring program's basis."""
        inst, coeffs = instances[name]
        start = None
        if warm:
            start = _anchor_solve(inst, coeffs, np.asarray(eps) * [1.05, 0.95])[2].as_start()
        _, gradient, sol = _anchor_solve(inst, coeffs, eps, start)
        assert sol.from_basis == warm
        return gradient

    def _one_sided(self, instances, name, eps):
        """(forward, backward) differences per axis, from cold solves."""
        inst, coeffs = instances[name]
        f = _anchor_solve(inst, coeffs, eps)[0]
        steps = self.H * np.eye(2)
        forward = [(_anchor_solve(inst, coeffs, eps + s)[0] - f) / self.H for s in steps]
        backward = [(f - _anchor_solve(inst, coeffs, eps - s)[0]) / self.H for s in steps]
        return np.array(forward), np.array(backward)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("name, eps, p, e1, known", [
        ("desk", 1.6, 2.0, None, (-0.0429256, -0.0199320)),
        ("grid8", 1.2, 2.0, None, (-0.0392415, -0.0397439)),
        # At p = inf the equal split is a kink (below); 1/6 of the arc is not.
        ("desk", 1.6, math.inf, 0.8 / 6, None),
        ("grid8", 1.2, math.inf, 0.6 / 6, None),
    ])
    def test_matches_central_differences(self, instances, name, eps, p, e1, known, warm):
        from anchorpriv.budget import equal_split

        point = equal_split(eps, p, 2).eps if e1 is None else np.array([e1, eps / 2 - e1])
        gradient = self._gradient(instances, name, point, warm)
        forward, backward = self._one_sided(instances, name, point)
        central = (forward + backward) / 2
        assert np.all(np.abs(gradient - central) <= 1e-6 * np.abs(central)), (gradient, central)
        if known is not None:
            assert gradient == pytest.approx(known, abs=1e-7)

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("name, eps", [("desk", 1.6), ("grid8", 1.2)])
    def test_lies_between_one_sided_differences_at_a_kink(self, instances, name, eps, warm):
        # The p = inf equal split (eps / 4 per axis) is degenerate: the two
        # one-sided derivatives differ by 5-14%, so no single value matches a
        # central difference there. The multipliers of any optimal basis
        # give a value between them.
        from anchorpriv.budget import equal_split

        point = equal_split(eps, math.inf, 2).eps
        gradient = self._gradient(instances, name, point, warm)
        forward, backward = self._one_sided(instances, name, point)
        assert np.all(forward - backward > 1e-4)
        assert np.all((backward - 1e-6 <= gradient) & (gradient <= forward + 1e-6))

    def test_zero_on_the_constant_table(self, instances):
        # At desk eps 0.2 the table is constant: a ratio row binds only
        # where both of its entries are 0, so its multiplier moves nothing.
        from anchorpriv.budget import equal_split

        inst, coeffs = instances["desk"]
        _, gradient, sol = _anchor_solve(inst, coeffs, equal_split(0.2, 2.0, 2).eps)
        assert np.any(sol.multipliers > 0)
        assert np.all(np.abs(gradient) <= 1e-12)


class TestCoarseLp:
    def test_single_representative_is_argmin_indicator(self):
        prior, loss, outputs = matrix_setup(
            [[0.2, 0.2]], [1.0], [[2.0, 1.0, 3.0]], [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        )
        lp = build_coarse_lp(prior.points, prior.masses, outputs, 1.0, 2.0, loss)
        assert lp.n_ub_rows == 0
        table, _ = solve_approx_apo(lp)
        assert table.probs[0] == pytest.approx([0.0, 1.0, 0.0], abs=1e-9)

    def test_zero_budget_forces_equal_rows(self):
        prior, loss, outputs = matrix_setup(
            [[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5],
            [[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]],
        )
        lp = build_coarse_lp(prior.points, prior.masses, outputs, 0.0, 2.0, loss)
        table, _ = solve_approx_apo(lp)
        assert np.allclose(table.probs[0], table.probs[1], atol=1e-9)

    def test_log_two_instance_hand_solution(self):
        # eps * distance = ln 2 with antisymmetric unit losses
        prior, loss, outputs = matrix_setup(
            [[0.0], [1.0]], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], [[0.0], [1.0]]
        )
        lp = build_coarse_lp(prior.points, prior.masses, outputs, math.log(2.0), 1.0, loss)
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(1.0 / 3.0, abs=1e-8)
        table, _ = solve_approx_apo(lp)
        assert table.probs[0] == pytest.approx([2 / 3, 1 / 3], abs=1e-7)
        assert table.probs[1] == pytest.approx([1 / 3, 2 / 3], abs=1e-7)

    def test_duplicate_representatives_rejected(self):
        prior, loss, outputs = matrix_setup(
            [[0.0], [1.0]], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], [[0.0], [1.0]]
        )
        with pytest.raises(ValueError):
            build_coarse_lp([[0.0], [0.0]], [0.5, 0.5], outputs, 1.0, 1.0, loss)


@pytest.mark.parametrize("eps", [-0.1, math.nan])
@pytest.mark.parametrize("program", ["AIPO-R", "CoarseLP", "lower bound"])
def test_total_budget_must_be_non_negative(program, eps):
    # A NaN budget once gave a bound of 0.0, and made HiGHS fail with
    # "Infeasible" on the all-pairs programs.
    part = Partition((0.0,), (1.0,), (2,))
    prior, loss, outputs = matrix_setup(
        [[0.25], [0.75]], [0.5, 0.5], [[0.0, 1.0], [1.0, 0.0]], [[0.0], [1.0]]
    )
    coeffs = surrogate_coefficients(part, prior, loss, outputs)
    build = {
        "AIPO-R": lambda e: build_aipo_relaxed(part, outputs, e, 2.0, coeffs),
        "CoarseLP": lambda e: build_coarse_lp(prior.points, prior.masses, outputs, e, 2.0, loss),
        "lower bound": lambda e: lower_bound(part, outputs, e, 2.0, loss, prior),
    }[program]
    with pytest.raises(ValueError, match=f"^total budget must be non-negative, got {eps:g}$"):
        build(eps)
    # An infinite budget passes this check: the bound drops every pair, and
    # the all-pairs programs stop at HiGHS's coefficient limit.
    if program == "lower bound":
        assert build(math.inf)[0] == 0.0
    else:
        with pytest.raises(SolverError, match=r"needs ratio bounds up to exp\(inf\)"):
            build(math.inf)


class TestLowerBound:
    def test_single_cell_picks_cheap_column(self):
        part = Partition((0.0,), (1.0,), (1,))
        prior, loss, outputs = matrix_setup(
            [[0.5]], [1.0], [[1.0, 3.0]], [[0.0], [1.0]]
        )
        assert lower_bound(part, outputs, 1.0, 2.0, loss, prior)[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_cells_zero_budget_forces_constant(self):
        part = Partition((0.0,), (2.0,), (2,))  # two unit cells
        prior, loss, outputs = matrix_setup(
            [[0.5], [1.5]], [1.0 / 2, 1.0 / 2],
            [[2.0, 6.0], [6.0, 2.0]], [[0.0], [2.0]],
        )
        # per-cell floors are (1, 3) and (3, 1); rows forced equal at eps=0,
        # so any unit split costs 4 in total
        value, _ = lower_bound(part, outputs, 0.0, 2.0, loss, prior)
        assert value == pytest.approx(4.0, abs=1e-8)

    def test_bounds_solved_mechanism_loss(self):
        from anchorpriv.budget import equal_split
        from anchorpriv.evaluation import expected_loss
        from anchorpriv.interpolation import Mechanism

        rng = np.random.default_rng(21)
        part = Partition((0.0, 0.0), (2.0, 2.0), (2, 2))
        for trial in range(5):
            pts = []
            for m in range(part.n_cells):
                pts.extend(part.cell_lower[m] + rng.random((3, 2)) * part.deltas)
            pts = np.asarray(pts)
            masses = rng.random(len(pts))
            masses /= masses.sum()
            k = 3
            loss_rows = rng.random((len(pts), k)) * 5.0
            prior, loss, outputs = matrix_setup(
                pts, masses, loss_rows, rng.random((k, 2)) * 2.0
            )
            eps = float(rng.uniform(0.2, 1.5))
            coeffs = surrogate_coefficients(part, prior, loss, outputs)
            bv = equal_split(eps, 2.0, 2)
            table, _ = solve_approx_apo(build_approx_apo(part, outputs, bv, coeffs))
            mech = Mechanism(part, table, outputs, budget=bv)
            lb, _ = lower_bound(part, outputs, eps, 2.0, loss, prior)
            actual = expected_loss(mech, prior, loss)
            assert actual >= lb - 1e-8

    def test_valid_when_cells_hold_fewer_points_than_their_volume(self):
        # The desk instance stretched to 8 x 8 units on a 2 x 2 grid with the
        # prior on the 9 anchors: cells of volume 16 hold 1 to 4 points each.
        from anchorpriv.cli import CompareSpec, PrivacySpec, make_method
        from anchorpriv.evaluation import InstanceSpec, expected_loss, synth_instance

        spec = InstanceSpec(upper=(8.0, 8.0), grid=(2, 2), weight_jitter=0.5,
                            prior_on_anchors=True)
        inst = synth_instance(spec, seed=6)
        lb, _ = lower_bound(inst.partition, inst.outputs, 0.05, 2.0, inst.loss, inst.prior)
        for tag in ("AIPO", "RMP-EM"):
            mech = make_method(tag, inst, 0.05, PrivacySpec(p=2.0), CompareSpec())
            assert expected_loss(mech, inst.prior, inst.loss) >= lb - 1e-8, tag

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, math.inf])
    def test_pair_bounds_use_largest_cell_distance(self, p, monkeypatch):
        # Reference: the largest distance between two cells is the largest
        # distance between one corner of each.
        from anchorpriv.geometry import corner_offsets, lp_distance

        part = Partition((0.0, 0.0), (3.0, 1.0), (3, 2))
        prior, loss, outputs = matrix_setup(
            part.cell_lower + 0.5 * part.deltas, np.full(6, 1.0 / 6),
            np.ones((6, 2)), [[0.0, 0.0], [3.0, 1.0]],
        )
        solves = _spy_block_ipm(monkeypatch)
        lower_bound(part, outputs, 0.7, p, loss, prior)
        a_ub = to_scipy(solves[0][0].matrices()[0]).toarray()
        corners = [base + corner_offsets(2) * part.deltas for base in part.cell_lower]
        t = 0
        for m in range(part.n_cells):
            for m2 in range(m + 1, part.n_cells):
                d = max(lp_distance(a, b, p) for a in corners[m] for b in corners[m2])
                # First row of pair t: z[m, 0] - bound * z[m2, 0] <= 0.
                row = a_ub[2 * t * outputs.size]
                assert row[2 * m] == 1.0
                assert -row[2 * m2] == pytest.approx(math.exp(0.7 * d), rel=1e-12)
                t += 1
        assert 2 * t * outputs.size == a_ub.shape[0]


@pytest.fixture(scope="module")
def grid8_instance():
    from anchorpriv.cli import load_config
    from anchorpriv.evaluation import synth_instance

    run = load_config(DESK.parent / "grid8.yaml")
    return synth_instance(run.instance, seed=run.seed), run.privacy.p


class TestBlockInteriorPoint:
    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    @pytest.mark.parametrize("eps", [0.2, 0.8, 1.6, 10.0, 15.0])
    def test_certificate_meets_vertex_optimum_from_below(self, monkeypatch, eps, p):
        # The desk bound program has 144 variables.
        inst, _ = _desk_instance()
        solves = _spy_block_ipm(monkeypatch)
        solve_lp_calls = _spy_solves(monkeypatch)
        value, returned = lower_bound(inst.partition, inst.outputs, eps, p, inst.loss, inst.prior)
        (lp, sol), = solves
        assert solve_lp_calls == [] and returned is sol
        assert sol.method == "block-ipm" and sol.basis is None and sol.nit == sol.ipm_nit > 0
        assert sol.multipliers.shape == (lp.n_ub_rows,)
        assert (sol.n_vars, sol.n_rows) == (lp.n_vars, lp.n_ub_rows + lp.n_eq_rows)
        assert sol.nnz == sum(m.nnz for m in (lp.a_ub, lp.a_eq) if m is not None)
        optimum = _vertex_optimum(lp)
        assert value <= optimum
        assert value >= optimum * (1 - 1e-9)

    def test_grid8_bound_meets_the_vertex_optimum(self, grid8_instance, monkeypatch):
        # The dual simplex vertex optimum of this program (7 s) is
        # 0.4165165979953; IPX without crossover certified 0.41651659666.
        inst, p = grid8_instance
        solve_lp_calls = _spy_solves(monkeypatch)
        value, sol = lower_bound(inst.partition, inst.outputs, 0.8, p, inst.loss, inst.prior)
        assert sol.method == "block-ipm" and solve_lp_calls == []
        assert value == pytest.approx(0.4165165979953, rel=1e-9)

    def test_grid8_bound_program_is_built_after_the_solve(self, grid8_instance, monkeypatch):
        # The program's CSR rows (64,576 of them, about 3 MB) must not be
        # alive during the solve: the bound's traced peak stays near the
        # solve's own, where building them first made it 1.47 times as high.
        inst, p = grid8_instance
        peaks = []  # absolute traced peaks of the stretches before, in and after the solve
        solve_peak = []
        block_ipm = apo._block_ipm

        def traced_block_ipm(*args):
            current, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            sol = block_ipm(*args)
            peak = tracemalloc.get_traced_memory()[1]
            peaks.append(peak)
            solve_peak.append(peak - current)
            tracemalloc.reset_peak()
            return sol

        monkeypatch.setattr(apo, "_block_ipm", traced_block_ipm)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lower_bound(inst.partition, inst.outputs, 0.8, p, inst.loss, inst.prior)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(solve_peak) == 1
        assert max(peaks) - base <= 1.15 * solve_peak[0]

    def test_grid8_bound_at_large_budget_beats_the_ipx_certificate(self, grid8_instance):
        # IPX without crossover certified 0.000133592 here, 0.07% below the
        # optimum, under its absolute 1e-10 dual tolerance.
        inst, p = grid8_instance
        value, sol = lower_bound(inst.partition, inst.outputs, 15.0, p, inst.loss, inst.prior)
        assert sol.method == "block-ipm"
        assert value >= 0.000133592

    @pytest.mark.parametrize("offset, eps", [((-2.64, -3.968), 1.6), ((-0.254, 1.575), 0.8)])
    def test_stalled_solve_stops_early_with_the_same_bound(self, tmp_path, monkeypatch, offset,
                                                           eps):
        # The desk inputs of perfbench/run.py --seed 4 and --seed 12 (p = 2).
        # Past iteration 25 the certificates only wander below the best one,
        # and without the stall stop the solve runs to IPM_MAX_ITER.
        inst = _shifted_desk_instance(tmp_path, offset)
        args = (inst.partition, inst.outputs, eps, 2.0, inst.loss, inst.prior)
        value, sol = lower_bound(*args)
        monkeypatch.setattr(apo, "IPM_STALL_ITER", apo.IPM_MAX_ITER + 1)
        full, full_sol = lower_bound(*args)
        assert full_sol.nit == apo.IPM_MAX_ITER and sol.nit <= 45
        assert value == full

    def test_singular_block_is_shifted_and_a_non_finite_one_raises(self):
        # Cholesky fails on a singular block; a small shift makes it definite.
        inverse = apo._spd_inverse(np.array([[[1.0, 1.0], [1.0, 1.0]], [[2.0, 0.0], [0.0, 4.0]]]))
        assert np.all(np.isfinite(inverse))
        assert inverse[1] == pytest.approx(np.diag([0.5, 0.25]), rel=1e-15)
        with pytest.raises(SolverError, match="non-finite Newton matrix"):
            apo._spd_inverse(np.full((1, 2, 2), np.nan))

    def test_converged_solve_logs_no_gap_record(self, monkeypatch, caplog):
        inst, p = _desk_instance()
        solves = _spy_block_ipm(monkeypatch)
        with caplog.at_level(logging.INFO, logger="anchorpriv.apo"):
            value, _ = lower_bound(inst.partition, inst.outputs, 0.8, p, inst.loss, inst.prior)
        (lp, sol), = solves
        certificate = apo._dual_certificate(lp, sol.multipliers)
        assert sol.nit < apo.IPM_MAX_ITER and value == certificate
        assert apo._relative_gap(sol.objective_value, certificate,
                                 float(lp.objective.max())) <= apo.IPM_GAP_TOL
        assert caplog.records == []

    def test_debug_record_carries_the_solve_statistics(self, caplog):
        inst, p = _desk_instance()
        with caplog.at_level(logging.DEBUG, logger="anchorpriv.apo"):
            value, sol = lower_bound(inst.partition, inst.outputs, 0.8, p, inst.loss, inst.prior)
        (record,) = caplog.records
        assert record.levelno == logging.DEBUG and record.name == "anchorpriv.apo"
        assert record.args[-1] == dict(n_vars=sol.n_vars, n_rows=sol.n_rows, nit=sol.nit,
                                       solve_s=sol.solve_s)
        assert (sol.n_vars, sol.n_rows) == (144, 2 * 120 * 9 + 16) and sol.nit > 0
        assert f"'nit': {sol.nit}, 'solve_s': " in record.getMessage()

    @pytest.mark.parametrize("max_iter", [1, 3, 12])
    def test_unconverged_solve_certificate_is_the_bound(self, monkeypatch, caplog, max_iter):
        inst, p = _desk_instance()
        monkeypatch.setattr(apo, "IPM_MAX_ITER", max_iter)
        solves = _spy_block_ipm(monkeypatch)
        solve_lp_calls = _spy_solves(monkeypatch)
        with caplog.at_level(logging.INFO, logger="anchorpriv.apo"):
            value, returned = lower_bound(inst.partition, inst.outputs, 0.8, p, inst.loss,
                                          inst.prior)
        (lp, sol), = solves
        assert solve_lp_calls == [] and returned is sol and sol.nit == max_iter
        certificate = apo._dual_certificate(lp, sol.multipliers)
        cheapest = float(lp.objective.reshape(lp.var_shape).min(axis=1).sum())
        assert value == max(certificate, cheapest)
        assert cheapest <= value <= _vertex_optimum(lp)
        gap = apo._relative_gap(sol.objective_value, certificate, float(lp.objective.max()))
        assert gap > apo.IPM_GAP_TOL
        assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
            (logging.INFO, f"block-ipm stopped at a relative gap of {gap:.3g} after {max_iter} "
                           "iterations; its certificate is the bound")]


def _boolean_mask_step(pairs) -> float:
    """_max_step's former formula, which gathered the entries with dv < 0."""
    step = 1.0
    for v, dv in pairs:
        down = dv < 0
        step = min(step, float(np.min(-v[down] / dv[down], initial=1.0)))
    return step


class TestBlockIpmKernels:
    # Row counts around both leaf sizes of the blocked factorization, and
    # odd ones, whose triangular blocks are bordered to an even size.
    ROW_COUNTS = sorted({1, 2, 5, 45, 67, *(
        leaf + offset for leaf in (apo._LEAF_ROWS, apo._TRIANGULAR_LEAF_ROWS)
        for offset in (-1, 0, 1))})

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(ROW_COUNTS), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_spd_inverse_matches_numpy_inverse(self, n_rows, n_stack, seed):
        # n_stack 0 is one 2-D matrix, as the Schur complement is.
        rng = np.random.default_rng(seed)
        shape = (n_stack, n_rows, n_rows) if n_stack else (n_rows, n_rows)
        m = rng.normal(size=shape)
        scale = np.exp(rng.uniform(-0.7, 0.7, size=shape[:-1]))
        a = (m @ np.swapaxes(m, -1, -2) / n_rows + np.eye(n_rows)) \
            * scale[..., :, None] * scale[..., None, :]
        a = (a + np.swapaxes(a, -1, -2)) / 2
        got = apo._spd_inverse(a)
        want = np.linalg.inv(a)
        assert got.shape == a.shape
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 40).flatmap(lambda n: st.tuples(
            arrays(np.float64, n, elements=st.floats(0.0, 1e6)),
            arrays(np.float64, n, elements=st.one_of(
                st.sampled_from([0.0, -0.0]), st.floats(1e-9, 1e6), st.floats(-1e6, -1e-9))))),
        st.booleans(),
    )
    def test_max_step_is_bitwise_the_boolean_mask_formula(self, pair, small):
        v, dv = pair
        pairs = [(v, dv), (v[:3] + 1.0, np.abs(dv[:3]))] if small else [(v, dv)]
        assert np.float64(apo._max_step(pairs)).tobytes() == \
            np.float64(_boolean_mask_step(pairs)).tobytes()

    def test_max_step_without_a_decreasing_entry_is_one(self):
        v = np.array([0.0, 1.0, 2.0])
        for dv in (np.zeros(3), np.array([0.0, -0.0, 5.0])):
            assert apo._max_step([(v, dv)]) == _boolean_mask_step([(v, dv)]) == 1.0


class TestDualCertificate:
    @settings(max_examples=60, deadline=None)
    @given(arrays(np.float64, 36, elements=st.floats(0.0, 2.0)),
           arrays(np.float64, 36, elements=st.floats(0.0, 1e3)))
    def test_any_nonnegative_multipliers_bound_the_optimum(self, factor, extra):
        # Scaled optimal multipliers plus any non-negative offset: near the
        # optimum and far from it.
        lp = _small_ratio_program()
        sol = solve_lp(lp)
        assert lp.n_ub_rows == factor.size
        lam = np.clip(sol.multipliers, 0.0, None) * factor + extra
        assert apo._dual_certificate(lp, lam) <= sol.objective_value + 1e-12

    @pytest.mark.parametrize("program", ["anchor", "lower bound"])
    def test_equals_the_scipy_product_form(self, monkeypatch, program):
        # A_ub^T lambda through scipy's CSR transpose product gives the same bits.
        inst, p = _desk_instance()
        if program == "anchor":
            from anchorpriv.budget import equal_split

            solves = _spy_solves(monkeypatch)
            coeffs = surrogate_coefficients(inst.partition, inst.prior, inst.loss, inst.outputs)
            bv = equal_split(0.8, p, 2)
            solve_approx_apo(build_approx_apo(inst.partition, inst.outputs, bv, coeffs))
        else:
            solves = _spy_block_ipm(monkeypatch)
            lower_bound(inst.partition, inst.outputs, 0.8, p, inst.loss, inst.prior)
        (lp, sol), = solves
        rng = np.random.default_rng(2)
        for lam in (sol.multipliers, rng.normal(size=lp.n_ub_rows)):
            clipped = np.clip(lam, 0.0, None)
            reduced = lp.objective + to_scipy(lp.a_ub).T @ clipped
            ref = float(lp.b_eq @ reduced.reshape(lp.var_shape).min(axis=1)) \
                - float(clipped @ lp.b_ub)
            assert apo._dual_certificate(lp, lam) == ref

    def test_negative_multipliers_are_clipped(self):
        lp = _small_ratio_program()
        zero = apo._dual_certificate(lp, np.zeros(lp.n_ub_rows))
        assert apo._dual_certificate(lp, -np.ones(lp.n_ub_rows)) == zero
        assert zero == pytest.approx(lp.objective.reshape(4, 3).min(axis=1).sum(), rel=1e-15)

    def test_no_pair_left_gives_cheapest_output_per_cell(self, monkeypatch):
        # At eps 17 every desk cell pair's ratio bound exceeds 1e8.
        inst, p = _desk_instance()
        solves = _spy_block_ipm(monkeypatch)
        assert lower_bound(inst.partition, inst.outputs, 17.0, p, inst.loss, inst.prior)[0] == 0.0
        (lp, _), = solves
        assert lp.n_ub_rows == 0

    def test_no_warning_escapes(self, monkeypatch):
        # scipy.optimize.linprog warned when it passed a HiGHS option on
        # verbatim; lpcore sets the HiGHS options itself.
        from anchorpriv.budget import equal_split

        inst, p = _desk_instance()
        monkeypatch.setattr(lpcore, "IPM_MIN_VARS", 1)
        solves = _spy_solves(monkeypatch)
        coeffs = surrogate_coefficients(inst.partition, inst.prior, inst.loss, inst.outputs)
        lp = build_approx_apo(inst.partition, inst.outputs, equal_split(0.8, p, 2), coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solve_approx_apo(lp)
        (_, sol), = solves
        assert sol.method == "highs-ipm"
