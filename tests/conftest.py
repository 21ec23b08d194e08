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
