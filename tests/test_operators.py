import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fockgauge.group_core import build_builtin
from fockgauge.lattice_model import (
    LatticeSpec,
    Model,
    ModelParams,
    _operator,
    build_hamiltonian,
)
from fockgauge.link_space import BasisMismatchError, theta_left
from fockgauge.matter_space import VertexFock, annihilation_matrix, number_operator
from fockgauge.operators import (
    DROP_TOL,
    SLICE_NNZ,
    Operator,
    hermiticity_residual,
    matvec,
    max_abs,
    normalize,
    real_if_close,
)
from oracles import hermiticity_residual_transposed_copy, hermiticity_residual_whole


def test_combination_needs_the_same_space():
    a, b = VertexFock(2), VertexFock(2)
    psi_a0 = Operator(a, annihilation_matrix(2, 0))
    with pytest.raises(BasisMismatchError):
        _ = psi_a0 @ Operator(b, annihilation_matrix(2, 1))
    with pytest.raises(BasisMismatchError):
        _ = number_operator(a) + number_operator(b)
    n0 = psi_a0.dagger() @ psi_a0
    assert np.abs(n0.toarray() - number_operator(a, 0).toarray()).max() == 0.0

    # one Z_2 link and no matter: the link and global matrices have one shape
    model = Model(build_builtin("Z_2"), LatticeSpec(2, 1, include_matter=False),
                  ModelParams(terms=("electric",)))
    link_op = theta_left(model.link_space, 1)
    f = model.global_basis.link_factor(0)
    glob = _operator(model, (f, f + 1, link_op.matrix))
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


def _random_sparse(dim: int, nnz: int, seed: int, dtype=complex) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(nnz)
    if dtype is complex:
        values = values + 1j * rng.standard_normal(nnz)
    return sp.csr_matrix((values, (rng.integers(0, dim, nnz),
                                   rng.integers(0, dim, nnz))), shape=(dim, dim))


@pytest.mark.parametrize("dtype", [complex, float])
def test_hermiticity_residual_matches_the_whole_difference(dtype):
    mat = _random_sparse(300, 4000, seed=3, dtype=dtype)
    hermitian = (mat + mat.conj().T).tocsr()
    noisy = hermitian.copy()
    noisy.data[::7] += 1e-9
    for case in (mat, hermitian, noisy, sp.csr_matrix((300, 300), dtype=dtype)):
        assert hermiticity_residual(case) == hermiticity_residual_whole(case)
    assert hermiticity_residual(hermitian) == 0.0


@pytest.mark.parametrize("row", [0, -1], ids=["first-slice", "last-slice"])
def test_hermiticity_residual_keeps_a_nan_in_any_slice(row):
    values = np.arange(1.0, 3 * SLICE_NNZ + 1)
    values[row] = np.nan
    assert np.isnan(hermiticity_residual(sp.diags(values).tocsr()))


def test_hermiticity_residual_holds_one_transposed_copy():
    mat = _random_sparse(200_000, 1_200_000, seed=5)
    mat_bytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert mat.nnz >= 1_000_000 and mat.dtype == complex
    tracemalloc.start()
    try:
        value = hermiticity_residual(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * mat_bytes
    assert value == hermiticity_residual_whole(mat)


def _hermiticity_cases():
    mat = _random_sparse(300, 4000, seed=7)
    hermitian = (mat + mat.conj().T).tocsr()
    faulty = hermitian.copy()
    faulty.data[len(faulty.data) // 2] += 0.5j
    real = _random_sparse(300, 4000, seed=8, dtype=float)
    rng = np.random.default_rng(9)
    # duplicates and unsorted columns within rows
    rows, cols = rng.integers(0, 300, 6000), rng.integers(0, 300, 6000)
    values = rng.standard_normal(6000) + 1j * rng.standard_normal(6000)
    order = np.lexsort((-cols, rows))
    loose = sp.csr_matrix((values[order], cols[order],
                           np.searchsorted(rows[order], np.arange(301))), shape=(300, 300))
    nan = hermitian.copy()
    nan.data[-1] = np.nan
    return {"complex": mat, "hermitian": hermitian, "non-hermitian": faulty,
            "real": real, "real-symmetric": (real + real.T).tocsr(),
            "non-canonical": loose, "nan-past-the-first-slice": nan}


@pytest.mark.parametrize("case", list(_hermiticity_cases()))
def test_hermiticity_residual_is_the_transposed_copy_one(monkeypatch, case):
    # 16 entries per slice: the last row's NaN lies hundreds of slices in
    import fockgauge.operators as operators

    monkeypatch.setattr(operators, "SLICE_NNZ", 16)
    mat = _hermiticity_cases()[case]
    got, want = hermiticity_residual(mat), hermiticity_residual_transposed_copy(mat)
    assert np.array_equal(got, want, equal_nan=True), (got, want)
    if case == "non-canonical":
        assert not mat.has_canonical_format
    assert np.isnan(got) == (case == "nan-past-the-first-slice")
    assert (got == 0.0) == (case in ("hermitian", "real-symmetric"))


def test_hermiticity_residual_of_the_tunneling_block_makes_no_transposed_values():
    # L1's tunneling block (D3 2x2 with matter, group basis): 2 211 840
    # complex entries spanning every factor, 33.75 MiB of values.  A
    # transposed copy of the block alone is 42 MiB (48.6 MiB peak under
    # tracemalloc); the transposed index map and its int32 positions peak at
    # about 26.6 MiB
    from fockgauge.lattice_model import _TERMS

    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    block = _TERMS["tunneling"](Model(build_builtin("D3"), lat, params, basis_tag="group"))[2]
    assert block.nnz == 2_211_840 and block.dtype == complex
    tracemalloc.start()
    try:
        value = hermiticity_residual(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block.data.nbytes, (peak, block.data.nbytes)
    assert value == hermiticity_residual_transposed_copy(block) <= 1e-12


def test_normalize_masks_one_chunk_at_a_time():
    # |x| over all values and its mask would take 9 B per complex entry
    # (10.3 MiB here); one SLICE_NNZ chunk at a time takes about 1.1 MiB
    mat = _random_sparse(200_000, 1_200_000, seed=6)
    mat.sum_duplicates()
    small = np.arange(0, mat.nnz, 1000)
    mat.data[small] = DROP_TOL * (1 - 0.5j) / 2
    mat.data[-1] = np.nan
    want = mat.copy()
    want.data[np.abs(want.data) <= DROP_TOL] = 0.0
    want.eliminate_zeros()
    tracemalloc.start()
    try:
        got = normalize(mat)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.nnz == want.nnz < mat.data.size
    assert got.indices.tobytes() == want.indices.tobytes()
    assert got.data.tobytes() == want.data.tobytes()
    assert peak < want.data.nbytes / 8, (peak, want.data.nbytes)


@pytest.mark.parametrize("dtype", [complex, float])
def test_normalize_eliminates_zeros_only_when_a_chunk_drops_one(monkeypatch, dtype):
    # a clean canonical CSR never reaches eliminate_zeros and keeps its bits;
    # tiny entries, signed and complex explicit zeros and |x| = DROP_TOL in
    # a later chunk are dropped, NaN and 2 DROP_TOL kept, as before
    import fockgauge.operators as operators

    calls = []
    eliminate = sp.csr_matrix.eliminate_zeros
    monkeypatch.setattr(sp.csr_matrix, "eliminate_zeros",
                        lambda self: calls.append(self.nnz) or eliminate(self))
    monkeypatch.setattr(operators, "SLICE_NNZ", 16)
    clean = _random_sparse(60, 400, seed=9, dtype=dtype)
    clean.sum_duplicates()
    arrays = [clean.indptr.copy(), clean.indices.copy(), clean.data.copy()]
    got = normalize(clean)
    assert calls == []
    for mine, theirs in zip((got.indptr, got.indices, got.data), arrays):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()

    dirty = _random_sparse(60, 400, seed=10, dtype=dtype)
    dirty.sum_duplicates()
    edge = [DROP_TOL / 2, 0.0, -0.0, DROP_TOL, np.nan, 2 * DROP_TOL, -DROP_TOL / 3]
    if dtype is complex:
        edge += [0j, complex(-0.0, 0.0), DROP_TOL * (0.3 - 0.4j), DROP_TOL * (1 + 1j)]
    at = np.arange(len(edge)) * 29 + 40
    dirty.data[at] = edge
    want = dirty.copy()
    want.data[np.abs(want.data) <= DROP_TOL] = 0.0
    want.eliminate_zeros()
    calls.clear()
    before = dirty.nnz
    got = normalize(dirty)
    assert calls == [before]
    assert got.nnz == want.nnz == before - (5 if dtype is float else 8)
    assert np.isnan(got.data).sum() == 1
    for part in ("indptr", "indices", "data"):
        mine, theirs = getattr(got, part), getattr(want, part)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), part


@pytest.fixture(scope="module")
def d3_pure_ham():
    """D3 2x2 open pure gauge, group basis: a real H, 21 nonzeros per row,
    as a float64 operator."""
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    params = ModelParams(coupling=1.3, electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    ham = build_hamiltonian(Model(build_builtin("D3"), lat, params, basis_tag="group"))
    return Operator(ham.space, real_if_close(ham.matrix))


@pytest.mark.parametrize("shape,order", [((), "C"), ((3,), "C"), ((3,), "F")],
                         ids=["vector", "block", "fortran-block"])
def test_real_matrix_times_complex_vector_is_the_complex_product(d3_pure_ham, shape,
                                                                  order):
    mat = d3_pure_ham.matrix
    assert mat.dtype == np.float64
    rng = np.random.default_rng(4)
    full = (mat.shape[0], *shape)
    vec = np.asarray(rng.standard_normal(full) + 1j * rng.standard_normal(full),
                     order=order)
    expected = mat.astype(complex) @ vec
    for got in (matvec(mat, vec), d3_pure_ham.apply(vec)):
        assert got.dtype == np.complex128 and got.shape == expected.shape
        assert got.tobytes() == np.ascontiguousarray(expected).tobytes()


def test_real_matrix_times_complex_vector_makes_no_complex_copy(d3_pure_ham):
    # scipy's mixed-dtype product copies the values to complex128 (16 B per
    # nonzero); the (re, im) view product holds two float64 columns of dim
    mat = d3_pure_ham.matrix
    assert mat.nnz >= 10 * mat.shape[0]
    vec = np.exp(1j * np.arange(mat.shape[0]))
    tracemalloc.start()
    try:
        d3_pure_ham.apply(vec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < mat.data.nbytes / 2, (peak, mat.data.nbytes)


@pytest.mark.parametrize("fmt", ["csr", "csc", "coo", "lil", "dok", "bsr", "dia"])
def test_max_abs_is_the_same_in_every_sparse_format(fmt):
    rng = np.random.default_rng(2)
    dense = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    dense[rng.random((6, 6)) < 0.5] = 0.0
    assert max_abs(sp.csr_matrix(dense).asformat(fmt)) == max_abs(dense) > 0
    assert max_abs(sp.csr_matrix((6, 6)).asformat(fmt)) == 0.0
