import itertools

import numpy as np
import pytest
from scipy import sparse

from anchorpriv.lpcore import LinearProgram, solve_lp


def test_minimize_single_variable_with_floor():
    lp = LinearProgram(objective=[1.0], a_ub=[[-1.0]], b_ub=[-3.0])  # x >= 3
    sol = solve_lp(lp)
    assert sol.is_optimal
    assert sol.values[0] == pytest.approx(3.0, abs=1e-8)
    assert sol.objective_value == pytest.approx(3.0, abs=1e-8)


def test_maximize_on_facet():
    lp = LinearProgram(objective=[-1.0, -1.0], a_ub=[[1.0, 1.0]], b_ub=[1.0])
    sol = solve_lp(lp)
    assert sol.is_optimal
    assert sol.objective_value == pytest.approx(-1.0, abs=1e-8)


def test_simplex_vertex():
    lp = LinearProgram(objective=[1.0, 3.0], a_eq=[[1.0, 1.0]], b_eq=[1.0])
    sol = solve_lp(lp)
    assert sol.is_optimal
    assert sol.values == pytest.approx([1.0, 0.0], abs=1e-9)
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)


def test_infeasible_reported_not_raised():
    lp = LinearProgram(objective=[1.0], a_ub=[[1.0]], b_ub=[-1.0])  # x <= -1 with x >= 0
    sol = solve_lp(lp)
    assert sol.status == "infeasible"
    assert sol.values is None


def test_unbounded_reported_not_raised():
    lp = LinearProgram(objective=[-1.0])
    sol = solve_lp(lp)
    assert sol.status == "unbounded"


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
    assert sparse.issparse(lp.a_eq)
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
        assert sol.is_optimal, f"trial {trial} unexpectedly {sol.status}"
        oracle = _enumerate_vertices(c, a, b, ub)
        assert oracle is not None
        assert sol.objective_value == pytest.approx(oracle, abs=1e-6)
