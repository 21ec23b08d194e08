import numpy as np
import pytest

from anchorpriv.apo import OutputDomain
from anchorpriv.evaluation import LossModel, PriorModel
from anchorpriv.geometry import Partition


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
