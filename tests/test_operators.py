import numpy as np
import pytest
import scipy.sparse as sp

from fockgauge.group_core import build_builtin
from fockgauge.lattice_model import LatticeSpec, Model, ModelParams, embed_link
from fockgauge.link_space import BasisMismatchError, theta_left
from fockgauge.matter_space import VertexFock, number_operator, psi
from fockgauge.operators import Operator


def test_combination_needs_the_same_space():
    a, b = VertexFock(2), VertexFock(2)
    with pytest.raises(BasisMismatchError):
        _ = psi(a, 0) @ psi(b, 1)
    with pytest.raises(BasisMismatchError):
        _ = number_operator(a) + number_operator(b)
    n0 = psi(a, 0).dagger() @ psi(a, 0)
    assert np.abs(n0.toarray() - number_operator(a, 0).toarray()).max() == 0.0

    # one Z_2 link and no matter: the link and global matrices have one shape
    model = Model(build_builtin("Z_2"), LatticeSpec(2, 1, include_matter=False),
                  ModelParams(terms=("electric",)))
    link_op = theta_left(model.link_space, 1)
    glob = embed_link(model, link_op, 0)
    assert glob.matrix.shape == link_op.matrix.shape
    with pytest.raises(BasisMismatchError):
        _ = link_op @ glob
    with pytest.raises(BasisMismatchError):
        _ = glob - link_op


def test_construction_normalizes():
    mat = sp.coo_matrix(([1.0, 2.0, 1e-15, 3.0, -3.0],
                         ([0, 0, 1, 1, 1], [0, 0, 1, 0, 0])), shape=(2, 2))
    op = Operator(VertexFock(1), mat)
    assert op.matrix.nnz == 1
    assert op.matrix[0, 0] == 3.0
