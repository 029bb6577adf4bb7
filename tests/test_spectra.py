import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import lobpcg

from fockgauge import spectra
from fockgauge.group_core import build_builtin
from fockgauge.lattice_model import (
    LatticeSpec,
    Model,
    ModelParams,
    _operator,
    _plaquette_block,
    build_hamiltonian,
    physical_basis,
    vacuum_state,
)
from fockgauge.link_space import projector_rep
from fockgauge.operators import (
    DROP_TOL,
    SLICE_NNZ,
    components,
    eigh_by_components,
    real_if_close,
)
from fockgauge.spectra import (
    DENSE_ROWS_PER_PAIR,
    EPS,
    LANCZOS_MAX_ITER,
    ROW_BLOCK,
    SEMI_ORTHOGONAL,
    EigensolveError,
    SpectrumResult,
    _omega_step,
    eigensolve,
    expectation,
    vortex_masses,
)
from oracles import lanczos_full_reorth


def test_eigensolve_diagonal():
    result = eigensolve(np.diag([3.0, 1.0, 2.0]), k=2)
    assert np.allclose(result.eigenvalues, [1.0, 2.0])
    assert result.method == "dense"
    assert result.residuals.max() < 1e-12


def test_eigensolve_rejects_non_hermitian():
    mat = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(EigensolveError):
        eigensolve(mat)


def _diagonal_nan_past_the_first_slice():
    # two stored entries a row in M and M^T together: several row slices
    dim = 3 * SLICE_NNZ
    values = np.arange(1.0, dim + 1)
    values[-1] = np.nan
    return sp.diags(values).tocsr()


@pytest.mark.parametrize("make", [
    lambda: np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, np.nan]),
    _diagonal_nan_past_the_first_slice], ids=["dense-8", "past-first-slice"])
def test_eigensolve_refuses_a_nan_hermiticity_residual(make):
    # a NaN residual is not at most the tolerance: no eigenpair with NaN
    # residuals comes back
    with pytest.raises(EigensolveError, match="not Hermitian"):
        eigensolve(make(), k=2)


def test_k_clamped_with_warning():
    with pytest.warns(UserWarning):
        result = eigensolve(np.diag([3.0, 1.0, 2.0]), k=7)
    assert np.allclose(result.eigenvalues, [1.0, 2.0, 3.0])


def test_eigensolve_rejects_k_below_one():
    mat = np.diag([3.0, 1.0, 2.0])
    for k in (0, -1):
        with pytest.raises(ValueError):
            eigensolve(mat, k=k)
        with pytest.raises(ValueError):
            eigensolve(mat, k=k, dense_cutoff=1)


@pytest.mark.parametrize("mat,k,message", [
    (np.zeros((0, 0)), None, "non-empty"),
    (np.diag([3.0, 1.0, 2.0]), 2.0, "integer"),
    (np.diag([3.0, 1.0, 2.0]), True, "integer"),
], ids=["0x0", "float-k", "bool-k"])
def test_eigensolve_refuses_bad_input_before_any_work(monkeypatch, mat, k, message):
    # a 0x0 operator used to warn "clamping" and die in a numpy reduction,
    # k=2.0 in a slice, and k=True solved k=1
    def no_work(*args, **kwargs):
        raise AssertionError("the Hermiticity check ran before the input check")

    monkeypatch.setattr(spectra, "hermiticity_residual", no_work)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            eigensolve(mat, k=k)


def test_dense_iterative_agreement_degenerate():
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    model = Model(d3, lat, ModelParams(coupling=1.0, terms=("magnetic",)),
                  basis_tag="group")
    ham = build_hamiltonian(model)
    dense = eigensolve(ham, k=8)
    assert dense.method == "dense"
    for seed in (0, 1, 42):
        iterative = eigensolve(ham, k=8, dense_cutoff=16, seed=seed)
        assert iterative.method == "iterative"
        assert np.abs(dense.eigenvalues - iterative.eigenvalues).max() < 1e-8
        assert iterative.residuals.max() < 1e-8


def test_dense_iterative_agreement_mixed_hamiltonian():
    z3 = build_builtin("Z_3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    model = Model(z3, lat, ModelParams(coupling=1.2))
    ham = build_hamiltonian(model)
    dense = eigensolve(ham, k=6)
    assert dense.method == "dense"
    iterative = eigensolve(ham, k=6, dense_cutoff=16, seed=3)
    assert np.abs(dense.eigenvalues - iterative.eigenvalues).max() < 1e-8


def test_iterative_eigenvectors_certified():
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(2, 2, boundary="periodic", include_matter=False)
    model = Model(z2, lat, ModelParams(terms=("magnetic",)), basis_tag="group")
    ham = build_hamiltonian(model)
    result = eigensolve(ham, k=5, dense_cutoff=16, seed=9)
    for i in range(5):
        v = result.eigenvectors[:, i]
        res = np.linalg.norm(ham.matrix @ v - result.eigenvalues[i] * v)
        assert res < 1e-8
    # without the Gauss constraint the flux-free level is 32-fold degenerate,
    # so all five requested states sit at the bottom energy
    assert len(result.degeneracies()[0]) == 5
    assert np.allclose(result.eigenvalues, -4.0, atol=1e-10)


def test_dense_branch_matches_full_eigh_oracle():
    # D3 2x2 open pure gauge in the group basis (dim 1296, one connected
    # component); the oracle is a full np.linalg.eigvalsh, independent of
    # the subset solve
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    params = ModelParams(coupling=1.1,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    ham = build_hamiltonian(Model(d3, lat, params, basis_tag="group"))
    assert ham.dim == 1296
    oracle = np.linalg.eigvalsh(ham.toarray())
    # the smallest k whose last pair sits inside a degenerate level
    cut = next(k for k in range(1, ham.dim) if oracle[k] - oracle[k - 1] < 1e-9)
    for k in (cut, ham.dim):
        vals, vecs = eigh_by_components(ham.matrix, k=k)
        assert len(vals) == k
        assert np.abs(vals - oracle[:k]).max() < 1e-12
        assert np.abs(vecs.conj().T @ vecs - np.eye(k)).max() < 1e-12
        assert spectra._residuals(ham.matrix, vals, vecs).max() <= 1e-10
    # eigensolve takes every pair dense, and the cut pairs of the one
    # 1296-row block by Lanczos
    full = eigensolve(ham, k=ham.dim)
    assert full.method == "dense"
    assert np.abs(full.eigenvalues - oracle).max() < 1e-12
    assert full.residuals.max() <= 1e-10
    result = eigensolve(ham, k=cut)
    assert result.method == "iterative" and len(result.eigenvalues) == cut
    assert np.abs(result.eigenvalues - oracle[:cut]).max() < 1e-10
    vecs = result.eigenvectors
    assert np.abs(vecs.conj().T @ vecs - np.eye(cut)).max() < 1e-10
    assert result.residuals.max() <= 1e-8


@pytest.fixture(scope="module")
def u1_matter_ham():
    """U(1) P=1 2x2 open with matter, rep basis (dim 1296): a split H."""
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3)
    return build_hamiltonian(Model(build_builtin("U1_trunc", P=1), lat, params))


def test_dense_branch_over_many_components_matches_full_eigh(u1_matter_ham):
    # the oracle is one full np.linalg.eigvalsh; the dense branch solves
    # each of the 472 connected components of the sparsity graph alone
    ham = u1_matter_ham
    pattern = sp.csr_matrix((np.ones(ham.matrix.nnz), ham.matrix.indices,
                             ham.matrix.indptr), shape=ham.matrix.shape)
    assert connected_components(pattern, directed=False)[0] == 472
    oracle = np.linalg.eigvalsh(ham.toarray())
    levels = [-2.637148] + [-1.914649] * 4 + [-1.655011] * 4
    assert np.abs(oracle[:9] - levels).max() < 1e-6
    for k in (3, ham.dim):    # k = 3 cuts the 4-fold level
        result = eigensolve(ham, k=k)
        assert result.method == "dense" and len(result.eigenvalues) == k
        assert (result.steps, result.restarts, result.matvecs) == (0, 0, 0)
        assert np.abs(result.eigenvalues - oracle[:k]).max() < 1e-12
        vecs = result.eigenvectors
        assert np.abs(vecs.conj().T @ vecs - np.eye(k)).max() < 1e-10
        assert result.residuals.max() <= 1e-10
    # the two copies kept at k = 3 come from different components
    support = np.abs(eigensolve(ham, k=3).eigenvectors[:, 1:]) > 1e-12
    assert not (support[:, 0] & support[:, 1]).any()


def test_dense_components_come_from_the_pattern_not_the_values():
    # sigma_y couplings are purely imaginary: a graph that kept only the
    # real part of the values would split every pair into two 1x1 blocks
    rng = np.random.default_rng(5)
    dim, n_pairs = 14, 6
    sites = rng.permutation(dim)
    pairs = [sites[2 * b:2 * b + 2] for b in range(n_pairs)]
    mat = sp.lil_matrix((dim, dim), dtype=complex)
    mat.setdiag(rng.standard_normal(dim))
    for b, (i, j) in enumerate(pairs):
        mat[i, j], mat[j, i] = -1j * (b + 1), 1j * (b + 1)
    mat = mat.tocsr()
    oracle = np.linalg.eigvalsh(mat.toarray())
    blocks = [set(p) for p in pairs] + [{s} for s in sites[2 * n_pairs:]]
    for k in (3, dim):
        result = eigensolve(mat, k=k)
        assert np.abs(result.eigenvalues - oracle[:k]).max() < 1e-12
        assert result.residuals.max() <= 1e-10
        # one component per coupled pair: each vector fills exactly one block
        for vec in result.eigenvectors.T:
            assert set(np.flatnonzero(np.abs(vec) > 1e-12)) in blocks


@pytest.fixture(scope="module")
def z2_matter_ham():
    """Z_2 2x2 open with matter, dim 256: lowest levels 1-, 4- and 3-fold."""
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3)
    return build_hamiltonian(Model(build_builtin("Z_2"), lat, params))


def test_iterative_matches_dense_and_lobpcg_oracles(z2_matter_ham):
    ham = z2_matter_ham
    dense = eigensolve(ham, k=5)
    assert dense.method == "dense"
    iterative = eigensolve(ham, k=5, dense_cutoff=16, seed=0)
    assert iterative.method == "iterative"
    assert np.abs(iterative.eigenvalues - dense.eigenvalues).max() < 1e-10
    assert [len(level) for level in iterative.degeneracies()] == [1, 4]
    vecs = iterative.eigenvectors
    assert np.abs(vecs.conj().T @ vecs - np.eye(5)).max() < 1e-10
    # LOBPCG with a block of 10 spans the 1 + 4 + 3 lowest levels and more;
    # it is given H as complex128, the input it was tuned on: on the float64
    # H the same start stops at iteration 43 with one vector at 1.04e-8
    start = np.random.default_rng(0).standard_normal((ham.dim, 10))
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)   # unconverged LOBPCG
        oracle, _ = lobpcg(ham.matrix.astype(complex), start, largest=False,
                           tol=1e-8, maxiter=200)
    assert np.abs(np.sort(oracle)[:5] - iterative.eigenvalues).max() < 1e-10


def test_solver_statistics(z2_matter_ham):
    ham = z2_matter_ham
    dense = eigensolve(ham, k=5)
    assert dense.method == "dense"
    assert (dense.steps, dense.restarts, dense.matvecs) == (0, 0, 0)
    result = eigensolve(ham, k=5, dense_cutoff=16, seed=0)
    # the 4-fold level is resolved over several deflated runs
    assert result.restarts >= 2
    assert result.matvecs >= result.steps > 0
    with pytest.raises(EigensolveError) as failure:
        eigensolve(ham, k=5, dense_cutoff=16, seed=0, max_iter=20)
    err = failure.value
    assert err.steps == 20 and err.restarts >= 1 and err.matvecs >= err.steps


def test_solver_counts_reorthogonalizations(z2_matter_ham):
    ham = z2_matter_ham
    assert eigensolve(ham, k=5).reorthogonalizations == 0
    result = eigensolve(ham, k=5, dense_cutoff=16, seed=0)
    # the full passes against the basis run on some steps, not on all
    assert 0 < result.reorthogonalizations < result.steps
    # the solve on the 128 kept rows takes 60 steps: 50 fall short
    with pytest.raises(EigensolveError) as failure:
        eigensolve(ham, k=5, dense_cutoff=16, seed=0, max_iter=50)
    err = failure.value
    assert err.steps == 50 and 0 < err.reorthogonalizations < err.steps


def test_omega_estimate_tracks_the_overlaps_of_plain_lanczos():
    # Lanczos with no reorthogonalization on a spectrum with isolated top
    # values loses orthogonality within a few dozen steps; the estimate must
    # stay above the measured overlaps, close to them, and cross
    # SEMI_ORTHOGONAL no later than they do
    dim = 3000
    diagonal = np.r_[np.linspace(0.0, 1.0, dim - 5), [1.5, 2.0, 3.0, 4.0, 6.0]]
    start = np.random.default_rng(0).standard_normal(dim)
    basis = [start / np.linalg.norm(start)]
    alphas, betas = [], []
    omega, omega_prev = np.ones(1), np.empty(0)
    flagged = None
    for j in range(40):
        w = diagonal * basis[-1]
        if betas:
            w -= betas[-1] * basis[-2]
        alphas.append(basis[-1] @ w)
        w -= alphas[-1] * basis[-1]
        beta = np.linalg.norm(w)
        omega, omega_prev = _omega_step(omega, omega_prev, np.asarray(alphas),
                                        np.asarray(betas), beta, dim), omega
        betas.append(beta)
        basis.append(w / beta)
        overlaps = np.array(basis[:-1]) @ basis[-1]
        estimate, measured = np.abs(omega[:-1]), np.abs(overlaps)
        if flagged is None and estimate.max() > SEMI_ORTHOGONAL:
            flagged = j
        if measured.max() > SEMI_ORTHOGONAL:
            break
        assert measured.max() <= estimate.max() <= 1e3 * max(measured.max(), EPS)
    assert j < 39 and flagged is not None and flagged <= j


def test_krylov_basis_stays_semi_orthogonal(z2_matter_ham, monkeypatch):
    # every row array the solve makes: the accepted vectors and each run's basis
    made = []

    class Recorded(spectra._Rows):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(spectra, "_Rows", Recorded)
    for seed in range(3):
        made.clear()
        result = eigensolve(z2_matter_ham, k=5, dense_cutoff=16, seed=seed)
        assert result.reorthogonalizations > 0
        bases = [rows.rows for rows in made[1:]]
        assert sum(len(q) for q in bases) >= result.steps
        for q in bases:
            assert np.abs(q.conj() @ q.T - np.eye(len(q))).max() <= SEMI_ORTHOGONAL


@pytest.fixture(scope="module")
def d3_magnetic_ham():
    """D3 2x2 open pure gauge, magnetic term only, group basis (dim 1296)."""
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    params = ModelParams(coupling=1.0, terms=("magnetic",))
    return build_hamiltonian(Model(build_builtin("D3"), lat, params,
                                   basis_tag="group"))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("ham_name,k", [("z2_matter_ham", 5),
                                        ("d3_magnetic_ham", 8)])
def test_partial_reorthogonalization_matches_full_reorthogonalization(
        request, ham_name, k, seed):
    ham = request.getfixturevalue(ham_name)
    result = eigensolve(ham, k=k, dense_cutoff=16, seed=seed)
    vals, _, counts = lanczos_full_reorth(real_if_close(ham.matrix), k,
                                          seed=seed)
    assert np.abs(result.eigenvalues - vals).max() < 1e-12
    oracle = SpectrumResult(eigenvalues=vals, eigenvectors=None,
                            residuals=np.zeros(k), method="oracle", seed=seed)
    assert result.degeneracies() == oracle.degeneracies()
    assert result.steps <= counts.steps
    vecs = result.eigenvectors
    assert np.abs(vecs.conj().T @ vecs - np.eye(k)).max() < 1e-10


def test_krylov_basis_grows_with_the_steps_taken():
    # an isolated lowest level converges in a few dozen steps; a basis sized
    # by the step budget would be LANCZOS_MAX_ITER rows of dim 20000 (1.6 GB)
    dim = 20000
    diagonal = np.r_[0.0, 1.0 + np.random.default_rng(1).random(dim - 1)]
    mat = sp.diags(diagonal).tocsr()
    tracemalloc.start()
    try:
        result = eigensolve(mat, k=1, dense_cutoff=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
    assert result.steps < ROW_BLOCK
    row_bytes = dim * np.dtype(complex).itemsize
    assert peak < 4 * ROW_BLOCK * row_bytes < LANCZOS_MAX_ITER * row_bytes


def test_real_krylov_basis_holds_float64_rows():
    # a real operator keeps its Krylov basis and accepted vectors in float64,
    # so the peak stays under the float64 row bytes of 4 * ROW_BLOCK rows
    dim = 20000
    diagonal = np.r_[0.0, 1.0 + np.random.default_rng(1).random(dim - 1)]
    mat = sp.diags(diagonal).tocsr()
    tracemalloc.start()
    try:
        result = eigensolve(mat, k=1, dense_cutoff=16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.eigenvalues[0] == pytest.approx(0.0, abs=1e-10)
    assert result.eigenvectors.dtype == np.float64
    assert peak < 4 * ROW_BLOCK * dim * np.dtype(np.float64).itemsize


@pytest.fixture(scope="module")
def z3_pure_ham():
    """Z_3 3x2 open pure gauge, group basis (dim 2187): one connected component."""
    lat = LatticeSpec(3, 2, boundary="open", include_matter=False)
    return build_hamiltonian(Model(build_builtin("Z_3"), lat, ModelParams(coupling=1.3),
                                   basis_tag="group"))


def _traced_peak(solve):
    """solve() and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        out = solve()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_dense_solve_overwrites_one_fortran_block(z3_pure_ham):
    # Z_3 3x2 open pure gauge (dim 2187) is one connected component: LAPACK
    # gets one Fortran-ordered n x n float64 block and overwrites it; a
    # C-ordered block would be copied once more, about 2 x n^2 * 8 B in all
    ham = z3_pure_ham
    n = ham.dim
    (vals, vecs), peak = _traced_peak(lambda: eigh_by_components(ham.matrix, k=6))
    assert spectra._residuals(ham.matrix, vals, vecs).max() <= 1e-8
    assert peak < 1.5 * n * n * 8, peak / (n * n * 8)
    # eigensolve takes these 6 pairs by Lanczos, with no n x n array at all
    result, peak = _traced_peak(lambda: eigensolve(ham, k=6))
    assert result.method == "iterative" and result.residuals.max() <= 1e-8
    assert np.abs(result.eigenvalues - vals).max() < 1e-10
    assert peak < n * n * 8, peak / (n * n * 8)


# ---------------------------------------------------------------------------
# below the cap: dense when every connected component has at most
# k * DENSE_ROWS_PER_PAIR rows, Lanczos otherwise
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ham_name", ["d3_pure_ham", "z3_pure_ham"])
def test_few_pairs_of_one_large_block_go_to_lanczos(request, ham_name):
    ham = request.getfixturevalue(ham_name)
    k = 6
    oracle = np.linalg.eigvalsh(ham.toarray())[:k]
    levels = SpectrumResult(eigenvalues=oracle, eigenvectors=None,
                            residuals=np.zeros(k), method="oracle",
                            seed=0).degeneracies()
    for seed in range(10):
        result = eigensolve(ham, k=k, seed=seed)
        assert result.method == "iterative"
        assert np.abs(result.eigenvalues - oracle).max() < 1e-10
        assert result.degeneracies() == levels
        assert result.residuals.max() <= 1e-8


def test_small_components_and_every_pair_stay_dense(u1_matter_ham):
    # U(1)'s largest component has 13 rows; Z_3 2x2 in the group basis is
    # one 81-row component, past 64 rows for one pair but not for all 81
    assert eigensolve(u1_matter_ham, k=6).method == "dense"
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    ham = build_hamiltonian(Model(build_builtin("Z_3"), lat,
                                  ModelParams(coupling=1.2), basis_tag="group"))
    assert ham.dim == 81
    assert eigensolve(ham, k=1).method == "iterative"
    for k in (ham.dim, None):
        assert eigensolve(ham, k=k).method == "dense"


@pytest.mark.parametrize("k", [1, 3])
def test_the_rule_reads_the_largest_component(k):
    # a path graph of n rows, one component, beside three 1x1 blocks: dense
    # at n = k * DENSE_ROWS_PER_PAIR although dim exceeds it, Lanczos at n + 1
    for extra, method in ((0, "dense"), (1, "iterative")):
        n = k * DENSE_ROWS_PER_PAIR + extra
        path = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                        [-1, 0, 1])
        mat = sp.block_diag([path, sp.diags([5.0, 6.0, 7.0])], format="csr")
        result = eigensolve(mat, k=k, seed=0)
        assert result.method == method
        exact = 2 - 2 * np.cos(np.pi * np.arange(1, k + 1) / (n + 1))
        assert np.abs(result.eigenvalues - exact).max() < 1e-10
        assert result.residuals.max() <= 1e-8


def test_a_run_that_spans_the_space_settles_the_lowest_pairs():
    # a 129-row path beside three 1x1 blocks at 5, 6 and 7: the two lowest
    # pairs converge only as the first run's basis fills all 132 rows, and
    # that run leaves 7.0 uncertified; its Ritz values are then the
    # spectrum, so nothing below the 2nd pair remains and the solve stops
    # instead of restarting in a one-row complement until max_iter
    n = 129
    path = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1])
    mat = sp.block_diag([path, sp.diags([5.0, 6.0, 7.0])], format="csr")
    result = eigensolve(mat, k=2, seed=0, dense_cutoff=16)
    assert result.restarts == 1 and result.steps == n + 3
    exact = 2 - 2 * np.cos(np.pi * np.arange(1, 3) / (n + 1))
    assert np.abs(result.eigenvalues - exact).max() < 1e-10
    assert result.residuals.max() <= 1e-8


# ---------------------------------------------------------------------------
# a block-diagonal H: certified Ritz vectors are cut along its components
# ---------------------------------------------------------------------------

def _copies_and_pair(seed):
    """One random 40-row block in three components, beside a 30-row block
    whose lowest level is 2-fold, all rows permuted: the block's levels are
    3-fold across components, the pair's 2-fold within one.  Returns the
    matrix and each row's block (0-2 the copies, 3 the pair)."""
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((40, 40))
    block = (block + block.T) / 2
    lowest = np.linalg.eigvalsh(block)[:2]
    basis, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    # the pair's level sits between the copies' two lowest levels
    levels = np.r_[[lowest.mean()] * 2, lowest[1] + 1 + rng.random(28)]
    pair = (basis * levels) @ basis.T
    mat = sp.block_diag([block] * 3 + [(pair + pair.T) / 2], format="csr")
    owner = np.repeat(np.arange(4), [40, 40, 40, 30])
    perm = rng.permutation(mat.shape[0])
    return mat[perm][:, perm].tocsr(), owner[perm]


@pytest.mark.parametrize("seed", range(3))
def test_copies_across_components_come_from_one_run(seed):
    mat, owner = _copies_and_pair(seed)
    k = 8    # 3 + 2 + 3: the copies' lowest level, the pair, the next level
    oracle = np.linalg.eigvalsh(mat.toarray())[:k]
    assert np.abs(oracle[:5] - oracle[[0, 0, 0, 3, 3]]).max() < 1e-12
    full_reorth, _, _ = lanczos_full_reorth(mat, k, seed=seed)
    result = eigensolve(mat, k=k, seed=seed, dense_cutoff=16)
    assert result.method == "iterative"
    assert np.abs(result.eigenvalues - oracle).max() < 1e-10
    assert np.abs(result.eigenvalues - full_reorth).max() < 1e-10
    vecs = result.eigenvectors
    assert np.abs(vecs.conj().T @ vecs - np.eye(k)).max() < 1e-10
    assert result.residuals.max() <= 1e-8
    # every vector lies in one block, and each copy of a level in its own
    blocks = [set(owner[np.abs(v) > 0]) for v in vecs.T]
    assert all(len(b) == 1 for b in blocks)
    for level in result.degeneracies():
        owners = [next(iter(blocks[i])) for i in level]
        if owners[0] != 3:
            assert sorted(owners) == [0, 1, 2]


def test_cut_ritz_vectors_take_fewer_restarts(z2_matter_ham):
    # the Z_2 4-fold level spans several fermion-number components: one run
    # after the ground state's takes its copies (five runs before the cut)
    dense = eigensolve(z2_matter_ham, k=5)
    result = eigensolve(z2_matter_ham, k=5, dense_cutoff=16, seed=0)
    assert result.restarts == 2
    assert np.abs(result.eigenvalues - dense.eigenvalues).max() < 1e-10
    assert result.residuals.max() <= 1e-8


@pytest.mark.parametrize("seed,counts", [(0, (230, 6, 242, 10)),
                                         (1, (230, 6, 242, 7)),
                                         (2, (230, 6, 242, 8))])
def test_one_component_solve_keeps_its_counts(d3_pure_ham, seed, counts):
    # D3 2x2 pure gauge in the group basis is one connected component, so
    # nothing is cut: steps, restarts, matvecs and reorthogonalizations of
    # the solve without labels
    result = eigensolve(d3_pure_ham, k=6, seed=seed)
    assert result.method == "iterative"
    assert (result.steps, result.restarts, result.matvecs,
            result.reorthogonalizations) == counts


# ---------------------------------------------------------------------------
# working field: real operators are solved in float64, complex ones in complex
# ---------------------------------------------------------------------------

def _phased(mat, seed):
    """D H D^dag for a random diagonal unitary D: complex, same spectrum."""
    phases = np.exp(2j * np.pi * np.random.default_rng(seed).random(mat.shape[0]))
    return (sp.diags(phases) @ mat @ sp.diags(phases.conj())).tocsr()


@pytest.fixture(scope="module")
def d3_pure_ham():
    """D3 2x2 open pure gauge, group basis (dim 1296): a real H."""
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    params = ModelParams(coupling=1.1,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    return build_hamiltonian(Model(build_builtin("D3"), lat, params,
                                   basis_tag="group"))


@pytest.mark.parametrize("ham_name,k,dense_cutoff", [
    ("d3_pure_ham", 12, None),
    ("u1_matter_ham", 12, None),
    ("z2_matter_ham", 5, 16),
])
def test_phased_operator_has_the_real_operators_spectrum(request, ham_name, k,
                                                         dense_cutoff):
    ham = request.getfixturevalue(ham_name).matrix
    phased = _phased(ham, seed=11)
    assert np.abs(phased.data.imag).max() > 1e-3
    opts = {} if dense_cutoff is None else {"dense_cutoff": dense_cutoff}
    real = eigensolve(ham, k=k, seed=0, **opts)
    cplx = eigensolve(phased, k=k, seed=0, **opts)
    # 12 pairs of D3's one 1296-row block go to Lanczos below the cap too;
    # U(1)'s largest connected component has 13 rows
    assert real.method == cplx.method == ("dense" if ham_name == "u1_matter_ham"
                                          else "iterative")
    solves = [(real.eigenvalues, real.eigenvectors, real.residuals),
              (cplx.eigenvalues, cplx.eigenvectors, cplx.residuals)]
    if dense_cutoff is None:   # the dense branch itself, certified the same way
        for mat in (ham, phased):
            vals, vecs = eigh_by_components(mat, k=k)
            solves.append((vals, vecs, spectra._residuals(mat, vals, vecs)))
    for (vals, vecs, residuals), dtype in zip(solves, itertools.cycle(
            (np.float64, np.complex128))):
        assert vecs.dtype == dtype
        assert np.abs(vals - real.eigenvalues).max() < 1e-10
        assert residuals.max() <= 1e-8


def test_one_imaginary_part_above_drop_tol_keeps_the_operator_complex():
    mat = sp.lil_matrix((3, 3), dtype=complex)
    mat.setdiag([1.0, 2.0, 3.0])
    mat[0, 1], mat[1, 0] = 0.5 + 10j * DROP_TOL, 0.5 - 10j * DROP_TOL
    mat = mat.tocsr()
    assert real_if_close(mat) is mat
    result = eigensolve(mat)
    assert result.eigenvectors.dtype == np.complex128
    oracle = np.linalg.eigvalsh(mat.toarray())
    assert np.abs(result.eigenvalues - oracle).max() < 1e-12


@pytest.mark.parametrize("dense_cutoff", [None, 16])
def test_noise_below_drop_tol_is_solved_real_and_certified_complex(
        z2_matter_ham, dense_cutoff):
    # every off-diagonal entry gets a Hermitian imaginary part of DROP_TOL;
    # the solve runs on the real part, the certificates use the matrix given
    ham = z2_matter_ham.matrix
    noise = sp.triu(ham, k=1).tocsr()
    noise.data[:] = DROP_TOL
    mat = (ham + 1j * (noise - noise.T)).tocsr()
    assert np.abs(mat.data.imag).max() == DROP_TOL
    work = real_if_close(mat)
    assert work.dtype == np.float64 and work.data.flags.c_contiguous
    opts = {} if dense_cutoff is None else {"dense_cutoff": dense_cutoff}
    result = eigensolve(mat, k=5, seed=0, **opts)
    vecs = result.eigenvectors
    assert vecs.dtype == np.float64
    recomputed = np.linalg.norm(mat @ vecs - vecs * result.eigenvalues, axis=0)
    assert np.array_equal(result.residuals, recomputed)
    assert result.residuals.max() <= 1e-8


# ---------------------------------------------------------------------------
# the Gershgorin cut: only the components that can hold the k lowest levels
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def su2_matter_ham():
    """SU(2) j<=1/2 2x1 open with matter, dim 80: 51 connected components."""
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3)
    return build_hamiltonian(Model(build_builtin("SU2_trunc", j_max="1/2"), lat, params))


@pytest.mark.parametrize("ham_name", ["su2_matter_ham", "u1_matter_ham",
                                      "z2_matter_ham"])
@pytest.mark.parametrize("k", [1, 4, 6])
@pytest.mark.parametrize("dense_cutoff", [None, 0])
def test_cut_solve_matches_the_full_eigh_oracle(request, ham_name, k, dense_cutoff):
    # the oracle is one np.linalg.eigvalsh of the whole H; every model splits
    # into more components than k, and the cut keeps only some of their rows
    ham = request.getfixturevalue(ham_name)
    mat = ham.matrix
    owner = connected_components(mat, directed=False)[1]
    oracle = np.linalg.eigvalsh(ham.toarray())[:k]
    levels = SpectrumResult(eigenvalues=oracle, eigenvectors=None,
                            residuals=np.zeros(k), method="oracle",
                            seed=0).degeneracies()
    opts = {} if dense_cutoff is None else {"dense_cutoff": dense_cutoff}
    result = eigensolve(ham, k=k, seed=0, **opts)
    assert result.method == ("dense" if dense_cutoff is None else "iterative")
    assert result.rows < ham.dim
    assert np.abs(result.eigenvalues - oracle).max() < 1e-10
    assert result.degeneracies() == levels
    vecs = result.eigenvectors
    assert vecs.shape == (ham.dim, k)
    assert np.abs(vecs.conj().T @ vecs - np.eye(k)).max() < 1e-10
    assert result.residuals.max() <= 1e-8
    # the copies of every level of more than one copy sit in several of the
    # kept components: each vector in one component, not all in the same one
    for level in result.degeneracies():
        if len(level) > 1:
            homes = [set(owner[np.abs(vecs[:, i]) > 1e-12]) for i in level]
            assert all(len(home) == 1 for home in homes)
            assert len(set.union(*homes)) > 1


def _gershgorin_blocks(fillers, seed=0):
    """Blocks whose Gershgorin bounds sit at U = 0, the 2nd smallest of the
    blocks' least diagonal entries at k = 2, and around U + LANCZOS_TOL:
    two 1x1 blocks at 0; [[1, 1], [1, 1]] (bound 0 = U, levels 0 and 2);
    the same shifted by 0.5 tol (kept) and by 1.5 tol (dropped); a 20x20
    block 19 I + (J - I) (bound 0, levels 18 and 38); ``fillers`` 1x1 blocks
    at 10.  Rows permuted; returns the matrix and each row's block."""
    tol = spectra.LANCZOS_TOL
    pair = np.ones((2, 2))
    wide = 18 * np.eye(20) + np.ones((20, 20))
    blocks = [[[0.0]], [[0.0]], pair, pair + 0.5 * tol * np.eye(2),
              pair + 1.5 * tol * np.eye(2), wide] + [[[10.0]]] * fillers
    mat = sp.block_diag(blocks, format="csr")
    owner = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    perm = np.random.default_rng(seed).permutation(mat.shape[0])
    return mat[perm][:, perm].tocsr(), owner[perm]


@pytest.mark.parametrize("dense_cutoff", [None, 0])
def test_a_bound_at_u_is_kept_and_one_past_u_plus_tol_is_dropped(dense_cutoff):
    # 100 fillers: 102 dropped rows times ROW_BLOCK outnumber the 418 stored
    # entries of the kept rows, so the cut takes the 26 rows of the blocks
    # whose bound is at most U + tol: both 1x1 blocks, the pair at U, the
    # pair at U + 0.5 tol and the wide block
    mat, owner = _gershgorin_blocks(fillers=100)
    opts = {} if dense_cutoff is None else {"dense_cutoff": dense_cutoff}
    result = eigensolve(mat, k=2, seed=0, **opts)
    assert result.rows == 1 + 1 + 2 + 2 + 20
    # Lanczos may take the pair at 0.5 tol as a copy of the level at 0
    assert np.abs(result.eigenvalues).max() <= spectra.LANCZOS_TOL
    assert result.residuals.max() <= 1e-8
    assert np.abs(result.eigenvectors[np.isin(owner, [4, 6]), :]).max() == 0
    # every kept block and no other: the same solve on the kept blocks alone
    kept = np.isin(owner, [0, 1, 2, 3, 5])
    assert np.array_equal(np.flatnonzero(kept),
                          spectra._gershgorin_cut(mat, owner, 2))


def test_a_cut_that_saves_little_takes_no_submatrix():
    # no fillers: the 2 dropped rows times ROW_BLOCK (128) are fewer than the
    # 418 stored entries kept, so the solve runs on the operator as it is
    mat, owner = _gershgorin_blocks(fillers=0)
    assert spectra._gershgorin_cut(mat, owner, 2) is None
    result = eigensolve(mat, k=2, seed=0)
    assert result.rows == mat.shape[0] == 28
    assert np.abs(result.eigenvalues).max() < 1e-10
    # at most k components: nothing to cut
    assert spectra._gershgorin_cut(mat, owner, 6) is None


def _mixed_sign_blocks(seed, field):
    """Two 1x1 blocks at 0 (U = 0 at k = 2); 30 random blocks of 3-10 rows,
    diagonal in [1, 3], sparse couplings of mixed sign (``field`` "real")
    or complex phase; a stoquastic 6-row path, diagonal 2 and couplings -1,
    whose Gershgorin bound is 0 = U and least eigenvalue 2 - 2 cos(pi/7);
    200 fillers at 10.  Rows permuted; returns the matrix and the path's
    rows."""
    rng = np.random.default_rng(seed)
    blocks = [[[0.0]], [[0.0]]]
    for size in rng.integers(3, 11, 30):
        block = rng.standard_normal((size, size)) * (rng.random((size, size)) < 0.5)
        if field == "complex":
            block = block * np.exp(2j * np.pi * rng.random((size, size)))
        block = (block + block.conj().T) / 4
        block[np.diag_indices(size)] = rng.uniform(1, 3, size)
        blocks.append(block)
    path = sp.diags([-np.ones(5), 2 * np.ones(6), -np.ones(5)], [-1, 0, 1]).toarray()
    blocks += [path] + [[[10.0]]] * 200
    mat = sp.block_diag(blocks, format="csr")
    start = sum(len(b) for b in blocks[:32])
    perm = np.random.default_rng(seed).permutation(mat.shape[0])
    return mat[perm][:, perm].tocsr(), np.flatnonzero((perm >= start) & (perm < start + 6))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("field", ["real", "complex"])
def test_refined_bound_is_certified_and_drops_a_stoquastic_block(seed, field):
    # each batch's bound lies between the component's Gershgorin bound and
    # its least eigenvalue, up to rounding (1e-12, far below LANCZOS_TOL)
    mat, path = _mixed_sign_blocks(seed, field)
    labels = components(mat)
    n = labels.max() + 1
    least = np.array([np.linalg.eigvalsh(mat[labels == c][:, labels == c].toarray())[0]
                      for c in range(n)])
    diag = mat.diagonal().real
    gershgorin = np.full(n, np.inf)
    np.minimum.at(gershgorin, labels, 2 * diag - abs(mat).sum(axis=1).A1)
    for _, bound in zip(range(8), spectra._collatz_bounds(mat, labels, n)):
        assert np.all(bound <= least + 1e-12)
        assert np.all(bound >= gershgorin - 1e-12)
    # the cut keeps every component holding one of the k lowest levels, and
    # drops the path, which Gershgorin keeps
    k = 2
    kept = spectra._gershgorin_cut(mat, labels, k)
    lowest = np.flatnonzero(least <= np.sort(least)[k - 1])
    assert set(lowest) <= set(labels[kept])
    assert gershgorin[labels[path[0]]] <= 0 < least[labels[path[0]]] - spectra.LANCZOS_TOL
    assert not np.isin(path, kept).any()
    result = eigensolve(mat, k=k, seed=0)
    assert result.rows == len(kept)
    assert np.abs(result.eigenvalues - np.sort(least)[:k]).max() < 1e-10


@pytest.mark.parametrize("ham_name,gershgorin_rows", [("u1_matter_ham", 456),
                                                      ("z2_matter_ham", 224)])
def test_refined_cut_keeps_fewer_rows_than_gershgorin(request, ham_name,
                                                      gershgorin_rows):
    # the rows Gershgorin's bound alone keeps at k = 4
    result = eigensolve(request.getfixturevalue(ham_name), k=4, seed=0)
    assert result.rows < gershgorin_rows


def test_su2_lanczos_runs_on_the_refined_rows():
    # SU(2) j<=1/2 2x2 with matter (dim 160 000, 16 941 components): at k = 4
    # Gershgorin keeps 91 846 rows in 1 331 components; power steps bring that
    # to at most 26 534
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    ham = build_hamiltonian(Model(build_builtin("SU2_trunc", j_max="1/2"), lat,
                                  ModelParams(mass=1.0, epsilon=0.7, coupling=1.3)))
    result = eigensolve(ham, k=4, seed=0)
    assert result.method == "iterative" and result.rows <= 26534
    levels = [-5.345010620900407] + [-4.515250314324584] * 3   # perfbench/reference.json
    assert np.abs(result.eigenvalues - levels).max() <= 1e-10
    assert [len(level) for level in result.degeneracies()] == [1, 3]
    assert result.residuals.max() <= 1e-8


def test_cut_lanczos_basis_stays_below_the_full_space_basis(u1_matter_ham):
    # U(1) P=1 2x2 with matter splits into 472 components, and the lowest
    # level lies in few of them: the Krylov basis spans the kept rows only,
    # so the whole solve peaks below the first ROW_BLOCK rows of a basis over
    # all 1296 rows (a solve over all of them peaks at 2.2x that)
    ham = u1_matter_ham
    result, peak = _traced_peak(lambda: eigensolve(ham, k=1, dense_cutoff=0))
    assert result.method == "iterative" and result.rows < ham.dim
    assert result.residuals.max() <= 1e-8
    assert peak < ROW_BLOCK * ham.dim * np.dtype(np.float64).itemsize


def test_degeneracy_grouping():
    from fockgauge.spectra import SpectrumResult
    result = SpectrumResult(
        eigenvalues=np.array([0.0, 1e-9, 1e-9 + 1e-8, 1.0]),
        eigenvectors=None, residuals=np.zeros(4), method="dense", seed=0)
    groups = result.degeneracies(tol=1e-7)
    assert [len(g) for g in groups] == [3, 1]


def test_electric_only_spectrum_is_combinatorial():
    # independent oracle: enumerate per-link representation assignments
    z4 = build_builtin("Z_4")
    lat = LatticeSpec(3, 1, boundary="open", include_matter=False)   # 2 links
    g = 1.4
    model = Model(z4, lat, ModelParams(coupling=g, terms=("electric",)))
    ham = build_hamiltonian(model)
    result = eigensolve(ham)
    weights = {0: 0.0, 1: 1.0, 2: 4.0, 3: 1.0}
    oracle = sorted(g * g / 2 * (weights[a] + weights[b])
                    for a, b in itertools.product(range(4), repeat=2))
    assert np.abs(np.array(oracle) - result.eigenvalues).max() < 1e-12


def test_electric_four_links_enumeration():
    z3 = build_builtin("Z_3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)   # 4 links
    model = Model(z3, lat, ModelParams(coupling=1.0, terms=("electric",)))
    result = eigensolve(build_hamiltonian(model))
    weights = {0: 0.0, 1: 1.0, 2: 1.0}
    oracle = sorted(0.5 * sum(weights[x] for x in combo)
                    for combo in itertools.product(range(3), repeat=4))
    assert np.abs(np.array(oracle) - result.eigenvalues).max() < 1e-12


def test_su2_electric_casimir_spectrum():
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=False)
    g = 2.0
    model = Model(su2, lat, ModelParams(coupling=g, terms=("electric",)))
    result = eigensolve(build_hamiltonian(model))
    expected = [0.0] + [g * g / 2 * 0.75] * 4
    assert np.abs(result.eigenvalues - expected).max() < 1e-12


def test_projected_spectrum_subset():
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(2, 2, boundary="periodic", include_matter=False)
    model = Model(z2, lat, ModelParams(coupling=0.8), basis_tag="group")
    ham = build_hamiltonian(model)
    cols = physical_basis(model)
    reduced = np.linalg.eigvalsh(cols.conj().T @ ham.toarray() @ cols)
    full = eigensolve(ham).eigenvalues
    for v in reduced:
        assert np.min(np.abs(full - v)) < 1e-9


# ---------------------------------------------------------------------------
# vortex masses
# ---------------------------------------------------------------------------

def test_vortex_masses_d3():
    g = 1.7
    gaps = vortex_masses(build_builtin("D3"), coupling=g)
    assert gaps["e"] == pytest.approx(0.0, abs=1e-12)
    assert gaps["r"] == pytest.approx(3.0 / g ** 2, abs=1e-10)
    assert gaps["s"] == pytest.approx(2.0 / g ** 2, abs=1e-10)


def test_vortex_masses_z2():
    gaps = vortex_masses(build_builtin("Z_2"), coupling=1.0)
    assert gaps["0"] == pytest.approx(0.0, abs=1e-12)
    assert gaps["1"] == pytest.approx(2.0, abs=1e-10)


def test_vortex_masses_match_characters():
    # gap(C) = (chi_j(e) - Re chi_j(C)) / g^2 for every class
    from fockgauge.group_core import character_table
    for name in ("D3", "Z_3", "Z_4"):
        entry = build_builtin(name)
        table = character_table(entry)
        chi = table.row(entry.fundamental)
        gaps = vortex_masses(entry, coupling=1.0)
        for c, label in enumerate(table.class_labels):
            expected = float(chi[0].real - chi[c].real)
            assert gaps[label] == pytest.approx(expected, abs=1e-10)


def test_vortex_masses_reject_lie():
    with pytest.raises(ValueError):
        vortex_masses(build_builtin("SU2_trunc", j_max="1/2"))


# ---------------------------------------------------------------------------
# expectation values
# ---------------------------------------------------------------------------

def test_expectation_identity():
    state = np.array([1.0, 0.0], dtype=complex)
    report = expectation(np.eye(2), state, "identity")
    assert report.value == pytest.approx(1.0)
    assert report.hermitian


def test_expectation_trivial_rep_on_vacuum():
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    model = Model(d3, lat, ModelParams(terms=("magnetic",)), basis_tag="rep")
    vac = vacuum_state(model)
    f = model.global_basis.link_factor(0)
    proj = _operator(model, (f, f + 1, projector_rep(model.link_space, "I").matrix))
    assert expectation(proj, vac).value == pytest.approx(1.0)


def test_expectation_plaquette_trace_strong_coupling_vacuum():
    # |000> per link is the uniform superposition over group elements, so
    # <Tr W> averages the fundamental character over the group: zero for D3
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    model = Model(d3, lat, ModelParams(terms=("magnetic",)), basis_tag="group")
    vac = vacuum_state(model)
    w = _operator(model, _plaquette_block(model, model.lattice.plaquettes[0]))
    herm = 0.5 * (w.matrix + w.matrix.conj().T)
    assert abs(expectation(herm, vac).value) < 1e-12


def test_expectation_errors():
    with pytest.raises(ValueError):
        expectation(np.eye(2), np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        expectation(np.eye(2), np.array([2.0, 0.0]))    # not normalized
