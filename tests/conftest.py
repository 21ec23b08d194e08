from types import SimpleNamespace

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from anchorpriv.apo import OutputDomain
from anchorpriv.evaluation import LossModel, PriorModel
from anchorpriv.geometry import Partition
from anchorpriv.lpcore import CsrMatrix


@pytest.fixture
def unit_interval_cell():
    """One-cell 1-D partition over [0, 1] with two output candidates."""
    part = Partition((0.0,), (1.0,), (1,))
    outputs = OutputDomain(points=np.array([[0.0], [1.0]]))
    return part, outputs


def matrix_setup(points, masses, loss_rows, output_points):
    """Bundle a matrix-backed prior/loss pair for small hand instances."""
    prior = PriorModel(np.asarray(points, dtype=float), np.asarray(masses, dtype=float))
    loss = LossModel.from_matrix(prior.points, np.asarray(loss_rows, dtype=float))
    outputs = OutputDomain(points=np.atleast_2d(np.asarray(output_points, dtype=float)))
    return prior, loss, outputs


def to_scipy(m):
    """A CsrMatrix (or None) as a scipy CSR matrix built from its entries.

    The entries pass through scipy's COO constructor, so the reference has
    the index dtype and entry order scipy itself gives them.
    """
    if m is None:
        return None
    return sparse.csr_matrix((m.data, (m.entry_rows(), m.indices)), shape=m.shape)


def from_scipy(m):
    """Any scipy sparse matrix as a CsrMatrix."""
    m = sparse.csr_matrix(m)
    return CsrMatrix(m.indptr, m.indices, m.data, m.shape)


def scipy_linprog(lp, **kwargs):
    """``scipy.optimize.linprog`` on a LinearProgram: the reference solve."""
    a_ub, b_ub, a_eq, b_eq = lp.matrices()
    return linprog(lp.objective, A_ub=to_scipy(a_ub), b_ub=b_ub, A_eq=to_scipy(a_eq), b_eq=b_eq,
                   **kwargs)


def scipy_dual_linprog(lp, **kwargs):
    """``scipy.optimize.linprog`` on the dual of a LinearProgram: the reference solve.

    The dual is min b_ub.l - b_eq.y s.t. -A_ub^T l + A_eq^T y <= c, l >= 0,
    y free, solved with presolve off and ``kwargs``. Returns its result
    ``res`` and its optimum in the primal's terms: ``values`` (the row
    marginals negated), ``multipliers`` (l) and ``objective_value`` (c.x).
    """
    a_ub, b_ub, a_eq, b_eq = lp.matrices()
    cols, cost, bounds = [], [], []
    if a_ub is not None:
        cols, cost, bounds = [-to_scipy(a_ub).T], [b_ub], [(0, None)] * a_ub.shape[0]
    if a_eq is not None:
        cols, cost = cols + [to_scipy(a_eq).T], cost + [-b_eq]
        bounds += [(None, None)] * a_eq.shape[0]
    options = dict(kwargs.pop("options", {}), presolve=False)
    res = linprog(np.concatenate(cost), A_ub=sparse.hstack(cols), b_ub=lp.objective,
                  bounds=bounds, options=options, **kwargs)
    values = 0.0 - res.ineqlin.marginals
    return SimpleNamespace(res=res, values=values, multipliers=res.x[:lp.n_ub_rows],
                           objective_value=float(lp.objective @ values))
