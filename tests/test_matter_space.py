import numpy as np
import pytest
from scipy.linalg import expm

from fockgauge.group_core import build_builtin
from fockgauge.matter_space import (
    VertexFock,
    annihilation_matrix,
    bilinear,
    charge_su2,
    charges,
    number_operator,
    theta_q,
)
from fockgauge.operators import Operator
from oracles import theta_q_exponential


@pytest.fixture(scope="module")
def d3():
    return build_builtin("D3")


@pytest.fixture(scope="module")
def su2():
    return build_builtin("SU2_trunc", j_max="1/2")


def test_creation_on_vacuum():
    v = VertexFock(2)
    col = Operator(v, annihilation_matrix(2, 0)).dagger().toarray()[:, 0]
    expected = np.zeros(4)
    expected[1] = 1.0           # mode 0 occupies the least significant bit
    assert np.array_equal(col, expected)


def test_antisymmetry_sign():
    v = VertexFock(2)
    up, down = (Operator(v, annihilation_matrix(2, a)).dagger() for a in range(2))
    order_a = (down @ up).toarray()[:, 0]
    order_b = (up @ down).toarray()[:, 0]
    assert np.array_equal(order_a, -order_b)
    assert abs(order_b[3]) == 1.0


def test_canonical_anticommutators_exact():
    v = VertexFock(3)
    ops = [annihilation_matrix(3, a).toarray() for a in range(3)]
    for a in range(3):
        for b in range(3):
            anti = ops[a] @ ops[b] + ops[b] @ ops[a]
            assert np.array_equal(anti, np.zeros_like(anti))
            mixed = ops[a] @ ops[b].conj().T + ops[b].conj().T @ ops[a]
            expected = np.eye(8) if a == b else np.zeros((8, 8))
            assert np.array_equal(mixed, expected.astype(complex))


def test_mode_index_range():
    v = VertexFock(2)
    with pytest.raises(ValueError):
        annihilation_matrix(v.n_modes, 2)
    with pytest.raises(ValueError):
        VertexFock(2, parity=2)


@pytest.mark.parametrize("parity", [0, 1])
def test_theta_q_group_law_and_unitarity(d3, parity):
    v = VertexFock(2, parity)
    thetas = [theta_q(v, d3, g).toarray() for g in range(6)]
    spec = d3.spec
    for g in range(6):
        assert np.abs(thetas[g] @ thetas[g].conj().T - np.eye(4)).max() < 1e-12
        for h in range(6):
            assert np.abs(thetas[g] @ thetas[h] - thetas[spec.mul[g, h]]).max() < 1e-12


def test_theta_q_identity(d3):
    for parity in (0, 1):
        v = VertexFock(2, parity)
        assert np.abs(theta_q(v, d3, 0).toarray() - np.eye(4)).max() == 0.0


@pytest.mark.parametrize("parity", [0, 1])
def test_theta_q_sigma_closed_form(d3, parity):
    # reflection s is element index 3; (1 - 2 n_down) (-1)^parity
    v = VertexFock(2, parity)
    n_down = number_operator(v, 1).toarray()
    expected = (np.eye(4) - 2 * n_down) * (-1.0) ** parity
    assert np.abs(theta_q(v, d3, 3).toarray() - expected).max() == 0.0


def test_theta_q_rotation_printed_form(d3):
    v = VertexFock(2, 0)
    alpha = 2 * np.pi / 3
    n_up = number_operator(v, 0).toarray()
    n_dn = number_operator(v, 1).toarray()
    up, down = (annihilation_matrix(2, a).toarray() for a in range(2))
    hop = up.conj().T @ down - down.conj().T @ up
    expected = (np.eye(4) - (1 - np.cos(alpha)) * (n_up + n_dn)
                + np.sin(alpha) * hop
                + 2 * (1 - np.cos(alpha)) * n_up @ n_dn)
    assert np.abs(theta_q(v, d3, 1).toarray() - expected).max() < 1e-15


@pytest.mark.parametrize("parity", [0, 1])
def test_full_state_determinant_eigenvalue(d3, parity):
    v = VertexFock(2, parity)
    for g in range(6):
        det = np.linalg.det(d3.irrep("2").matrix(g))
        theta = theta_q(v, d3, g).toarray()
        column = theta[:, v.full_state]
        expected = np.zeros(4, dtype=complex)
        expected[v.full_state] = det * det.conjugate() ** parity
        assert np.abs(column - expected).max() < 1e-12


def test_single_particle_covariance(d3):
    v = VertexFock(2, 1)
    create = [annihilation_matrix(2, a).toarray().conj().T for a in range(2)]
    for g in range(6):
        theta = theta_q(v, d3, g).toarray()
        d = d3.irrep("2").matrix(g)
        for a in range(2):
            lhs = theta @ create[a] @ theta.conj().T
            rhs = sum(create[b] * d[b, a] for b in range(2))
            assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("parity", [0, 1])
def test_charge_conjugation_relation(d3, parity):
    # one-hole states |a'> = psi_a |full> transform with D* det(g)^(1-N)
    v = VertexFock(2, parity)
    holes = [annihilation_matrix(2, a).toarray()[:, v.full_state] for a in range(2)]
    for g in range(6):
        theta = theta_q(v, d3, g).toarray()
        d = d3.irrep("2").matrix(g)
        det = np.linalg.det(d)
        for a in range(2):
            lhs = theta @ holes[a]
            rhs = sum(d[b, a].conjugate() * det ** (1 - parity) * holes[b]
                      for b in range(2))
            assert np.abs(lhs - rhs).max() < 1e-12


def test_exponential_construction_cross_check(d3, su2):
    # rotations have eigenphases away from pi, so the principal log is safe
    for parity in (0, 1):
        v = VertexFock(2, parity)
        for g in (0, 1, 2):
            a = theta_q(v, d3, g).toarray()
            b = theta_q_exponential(v, d3, g).toarray()
            assert np.abs(a - b).max() < 1e-12
    v = VertexFock(2, 0)
    alpha = np.array([0.3, -0.7, 1.1])
    a = theta_q(v, su2, alpha).toarray()
    b = theta_q_exponential(v, su2, alpha).toarray()
    assert np.abs(a - b).max() < 1e-10


def test_su2_charges(su2):
    v = VertexFock(2, 0)
    q = charge_su2(v, su2)
    for comp in q:
        arr = comp.toarray()
        assert np.abs(arr[:, 0]).max() == 0.0              # empty vertex
        assert np.abs(arr[:, 3]).max() == 0.0              # full vertex
        assert np.abs(arr - arr.conj().T).max() == 0.0
    assert q[2].toarray()[1, 1] == pytest.approx(0.5)      # single up fermion
    comm = (q[0] @ q[1] - q[1] @ q[0]).toarray()
    assert np.abs(comm - 1j * q[2].toarray()).max() < 1e-14


@pytest.mark.parametrize("name,params", [
    ("SU2_trunc", {"j_max": "1/2"}),
    ("SU2_trunc", {"j_max": "1"}),
    ("U1_trunc", {"P": 1}),
], ids=["su2-jmax-half", "su2-jmax-1", "u1-P1"])
def test_theta_q_equals_charge_exponential(name, params):
    # minors of D(g) times det(g^-1)^parity against exp(i alpha . Q), so the
    # staggered shift -parity Tr(T_a) is checked for U(1) as for SU(2)
    entry = build_builtin(name, **params)
    rng = np.random.default_rng(77)
    for parity in (0, 1):
        v = VertexFock(entry.fundamental_irrep.dim, parity)
        q = charges(v, entry)
        for _ in range(10):
            alpha = rng.uniform(-np.pi, np.pi, len(q))
            lhs = theta_q(v, entry, alpha).toarray()
            rhs = expm(1j * sum(a * x.toarray() for a, x in zip(alpha, q)))
            assert np.abs(lhs - rhs).max() < 1e-10


def test_u1_staggered_charge():
    u1 = build_builtin("U1_trunc", P=1)
    even = charges(VertexFock(1, 0), u1)[0].toarray()
    odd = charges(VertexFock(1, 1), u1)[0].toarray()
    assert even[0, 0] == 0.0        # even empty
    assert odd[0, 0] == -1.0        # odd empty
    assert odd[1, 1] == 0.0         # odd fully occupied single mode
    assert even[1, 1] == 1.0


def test_charges_dispatch(d3, su2):
    v = VertexFock(2, 0)
    assert len(charges(v, su2)) == 3
    u1 = build_builtin("U1_trunc", P=1)
    assert len(charges(VertexFock(1, 0), u1)) == 1
    with pytest.raises(ValueError):
        charges(v, d3)
    with pytest.raises(ValueError):
        charge_su2(v, d3)


def test_bilinear_number_operator():
    v = VertexFock(2, 0)
    total = bilinear(v, np.eye(2)).toarray()
    assert np.array_equal(total, np.diag([0, 1, 1, 2]).astype(complex))
