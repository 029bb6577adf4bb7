import numpy as np
import pytest

from fockgauge.group_core import build_builtin
from fockgauge.link_space import (
    GROUP,
    REP,
    BasisMismatchError,
    LinkSpace,
    generators,
    identity_operator,
    projector_rep,
    theta_group_basis,
    theta_left,
    theta_right,
    trace_diagnostic,
    u_matrix,
)

RNG_SEED = 914


@pytest.fixture(scope="module")
def d3_space():
    return LinkSpace(build_builtin("D3"))


@pytest.fixture(scope="module")
def su2_space():
    return LinkSpace(build_builtin("SU2_trunc", j_max="1/2"))


def test_link_space_dimensions(d3_space, su2_space):
    assert d3_space.dim == 6
    assert d3_space.vacuum_index == 0
    assert su2_space.dim == 5
    assert LinkSpace(build_builtin("SU2_trunc", j_max=1)).dim == 14
    assert np.abs(d3_space.fourier.conj().T @ d3_space.fourier - np.eye(6)).max() < 1e-14


def test_theta_identity_element(d3_space):
    eye = np.eye(6)
    assert np.abs(theta_left(d3_space, 0).toarray() - eye).max() == 0.0
    assert np.abs(theta_right(d3_space, 0).toarray() - eye).max() == 0.0
    for side in "LR":
        assert np.abs(theta_group_basis(d3_space, 0, side).toarray() - eye).max() == 0.0


def test_theta_z2_sign_blocks():
    space = LinkSpace(build_builtin("Z_2"))
    # basis (0,0,0), (1,0,0): the sign irrep picks up -1 under g = 1
    assert np.allclose(theta_left(space, 1).toarray(), np.diag([1, -1]))
    assert np.allclose(theta_right(space, 1).toarray(), np.diag([1, -1]))


def test_theta_group_law_all_pairs(d3_space):
    spec = d3_space.catalog.spec
    lefts = [theta_left(d3_space, g) for g in range(6)]
    rights = [theta_right(d3_space, g) for g in range(6)]
    worst = 0.0
    for g in range(6):
        for h in range(6):
            gh = spec.mul[g, h]
            worst = max(worst, np.abs((lefts[g] @ lefts[h]).toarray()
                                      - lefts[gh].toarray()).max())
            worst = max(worst, np.abs((rights[g] @ rights[h]).toarray()
                                      - rights[gh].toarray()).max())
            comm = lefts[g] @ rights[h] - rights[h] @ lefts[g]
            worst = max(worst, np.abs(comm.toarray()).max())
    assert worst < 1e-12


def test_theta_group_basis_translations():
    z3 = LinkSpace(build_builtin("Z_3"))
    tl = theta_group_basis(z3, 1, "L").toarray()
    cyc = np.zeros((3, 3))
    for h in range(3):
        cyc[(h + 1) % 3, h] = 1.0       # |h> -> |1 + h>
    assert np.abs(tl - cyc).max() == 0.0
    tr = theta_group_basis(z3, 1, "R").toarray()
    assert np.abs(tr - cyc.T).max() == 0.0   # |h> -> |h - 1>


def test_theta_rep_equals_fourier_conjugated_translation(d3_space):
    f = d3_space.fourier
    for g in range(6):
        for side, builder in (("L", theta_left), ("R", theta_right)):
            perm = theta_group_basis(d3_space, g, side).toarray()
            rep = builder(d3_space, g).toarray()
            assert np.abs(f.conj().T @ perm @ f - rep).max() < 1e-12


def test_theta_lie_exponentials(su2_space):
    rng = np.random.default_rng(RNG_SEED)
    left, right = generators(su2_space)
    from scipy.linalg import expm
    for _ in range(5):
        alpha = rng.uniform(-np.pi, np.pi, 3)
        tl = theta_left(su2_space, alpha).toarray()
        expected = expm(1j * sum(a * l.toarray() for a, l in zip(alpha, left)))
        assert np.abs(tl - expected).max() < 1e-12
        tr = theta_right(su2_space, alpha).toarray()
        expected = expm(1j * sum(a * r.toarray() for a, r in zip(alpha, right)))
        assert np.abs(tr - expected).max() < 1e-12


def test_u_z2_diagonal_and_rep():
    space = LinkSpace(build_builtin("Z_2"))
    u_g = u_matrix(space, basis_tag=GROUP)
    assert np.allclose(u_g.entry(0, 0).toarray(), np.diag([1, -1]))
    u_r = u_matrix(space, basis_tag=REP)
    assert np.allclose(u_r.entry(0, 0).toarray(), np.array([[0, 1], [1, 0]]))


def test_u_d3_group_basis_is_wigner_diagonal(d3_space):
    u = u_matrix(d3_space, "2", GROUP)
    mats = d3_space.catalog.irrep("2").matrices
    for m in range(2):
        for n in range(2):
            assert np.allclose(u.entry(m, n).toarray(), np.diag(mats[:, m, n]))


def test_u_rep_group_consistency(d3_space):
    u_rep = u_matrix(d3_space, "2", REP)
    u_grp = u_matrix(d3_space, "2", GROUP)
    for m in range(2):
        for n in range(2):
            conv = u_rep.entry(m, n).to_basis(GROUP).toarray()
            assert np.abs(conv - u_grp.entry(m, n).toarray()).max() < 1e-12


def test_u_unitarity_complete_irreps(d3_space):
    u = u_matrix(d3_space, "2", REP)
    for m in range(2):
        for n in range(2):
            acc = sum((u.entry(m, k) @ u.entry(n, k).dagger()).toarray()
                      for k in range(2))
            expected = np.eye(6) if m == n else np.zeros((6, 6))
            assert np.abs(acc - expected).max() < 1e-12


def test_u_su2_five_state_matrix(su2_space):
    u = u_matrix(su2_space)
    assert u.dropped == [("1/2", "1")]
    s = 1 / np.sqrt(2)

    def mat(entries):
        out = np.zeros((5, 5), dtype=complex)
        for r, c, v in entries:
            out[r, c] = v
        return out

    # basis: |000>, |1/2 uu>, |1/2 ud>, |1/2 du>, |1/2 dd>
    expected = {
        (0, 0): mat([(1, 0, s), (0, 4, s)]),
        (0, 1): mat([(2, 0, s), (0, 3, -s)]),
        (1, 0): mat([(3, 0, s), (0, 2, -s)]),
        (1, 1): mat([(0, 1, s), (4, 0, s)]),
    }
    for key, exp in expected.items():
        assert np.abs(u.entry(*key).toarray() - exp).max() < 1e-14


def test_u_covariance(d3_space, su2_space):
    rng = np.random.default_rng(RNG_SEED)
    for space in (d3_space, su2_space):
        entry = space.catalog
        fund = entry.fundamental_irrep
        u = u_matrix(space)
        dim_j = fund.dim
        if entry.is_lie:
            samples = [rng.uniform(-np.pi, np.pi, 3) for _ in range(20)]
        else:
            samples = list(range(entry.spec.order))
        for g in samples:
            d = np.atleast_2d(fund.matrix_angle(g)) if entry.is_lie else fund.matrix(g)
            tl = theta_left(space, g).toarray()
            tr = theta_right(space, g).toarray()
            for m in range(dim_j):
                for n in range(dim_j):
                    lhs = tr @ u.entry(m, n).toarray() @ tr.conj().T
                    rhs = sum(u.entry(m, k).toarray() * d[k, n] for k in range(dim_j))
                    assert np.abs(lhs - rhs).max() < 1e-12
                    lhs = tl @ u.entry(m, n).toarray() @ tl.conj().T
                    rhs = sum(d.conj().T[m, k] * u.entry(k, n).toarray()
                              for k in range(dim_j))
                    assert np.abs(lhs - rhs).max() < 1e-12


def test_projector_rep_ranks(d3_space, su2_space):
    p_half = projector_rep(su2_space, "1/2")
    assert np.trace(p_half.toarray()).real == pytest.approx(4)
    p2 = projector_rep(d3_space, "2")
    assert np.trace(p2.toarray()).real == pytest.approx(4)
    for space in (d3_space, su2_space):
        total = sum(projector_rep(space, ir.label).toarray()
                    for ir in space.catalog.irreps)
        assert np.abs(total - np.eye(space.dim)).max() == 0.0
        assert np.abs((p_half @ p_half - p_half).toarray()).max() == 0.0


def test_generators_su2(su2_space):
    left, right = generators(su2_space)
    assert len(left) == len(right) == 3
    for x in left + right:
        arr = x.toarray()
        assert arr.shape == (5, 5)
        assert np.abs(arr - arr.conj().T).max() < 1e-12
        assert np.abs(arr[0]).max() == 0.0          # vanish on |000>
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for (a, b), c in eps.items():
        comm = (left[a] @ left[b] - left[b] @ left[a]).toarray()
        assert np.abs(comm - 1j * left[c].toarray()).max() < 1e-12
        comm = (right[a] @ right[b] - right[b] @ right[a]).toarray()
        assert np.abs(comm - 1j * right[c].toarray()).max() < 1e-12
        assert np.abs((left[a] @ right[b] - right[b] @ left[a]).toarray()).max() == 0.0
    l2 = sum((x @ x).toarray() for x in left)
    r2 = sum((x @ x).toarray() for x in right)
    assert np.abs(l2 - r2).max() == 0.0


def test_generators_u1_right_is_minus_left():
    space = LinkSpace(build_builtin("U1_trunc", P=2))
    left, right = generators(space)
    assert np.abs(left[0].toarray() + right[0].toarray()).max() == 0.0
    assert np.allclose(np.diag(right[0].toarray()), [-2, -1, 0, 1, 2])


def test_trace_diagnostic_su2(su2_space):
    td = trace_diagnostic(su2_space)
    expected = 2 * np.eye(5) - 1.5 * projector_rep(su2_space, "1/2").toarray()
    assert np.abs(td.toarray() - expected).max() < 1e-12
    vals = np.sort(np.linalg.eigvalsh(td.toarray()))
    assert np.allclose(vals, [0.5, 0.5, 0.5, 0.5, 2.0], atol=1e-12)

    space1 = LinkSpace(build_builtin("SU2_trunc", j_max=1))
    td1 = trace_diagnostic(space1)
    expected = 2 * np.eye(14) - (4 / 3) * projector_rep(space1, "1").toarray()
    assert np.abs(td1.toarray() - expected).max() < 1e-12


def test_trace_diagnostic_unitary_case(d3_space):
    td = trace_diagnostic(d3_space, "2")
    assert np.abs(td.toarray() - 2 * np.eye(6)).max() < 1e-12


def test_basis_tag_enforcement(d3_space):
    rep_op = theta_left(d3_space, 1)
    grp_op = theta_group_basis(d3_space, 1, "L")
    with pytest.raises(BasisMismatchError):
        _ = rep_op @ grp_op
    with pytest.raises(BasisMismatchError):
        _ = rep_op + grp_op
    other = LinkSpace(build_builtin("D3"))
    with pytest.raises(BasisMismatchError):
        _ = rep_op @ theta_left(other, 1)
    su2 = LinkSpace(build_builtin("SU2_trunc", j_max="1/2"))
    with pytest.raises(BasisMismatchError):
        theta_group_basis(su2, 0, "L")
    with pytest.raises(BasisMismatchError):
        identity_operator(su2).to_basis(GROUP)
    with pytest.raises(BasisMismatchError):
        generators(d3_space)
