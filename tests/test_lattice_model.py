import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fockgauge.group_core import build_builtin
from fockgauge.lattice_model import (
    GlobalBasis,
    LatticeSpec,
    Model,
    ModelParams,
    _gauss_penalty,
    _hop,
    _operator,
    _plaquette_block,
    _sum_on_span,
    build_hamiltonian,
    default_electric_weights,
    gauss_generators,
    gauss_operator,
    hamiltonian_terms,
    physical_basis,
    physical_projector,
    vacuum_state,
    vertex_sector_average,
)
from fockgauge.link_space import identity_operator, projector_rep
from fockgauge.matter_space import theta_q
from fockgauge.operators import HERMITICITY_TOL
from oracles import (decode, digit_array, hamiltonian_by_terms, link_hops_by_kron,
                     physical_basis_by_average_product, spread_by_kron, sum_blocks_running)


def _mabs(mat):
    mat = sp.coo_matrix(mat)
    return np.abs(mat.data).max() if mat.nnz else 0.0


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lx,ly,boundary,links,plaqs", [
    (2, 2, "open", 4, 1),
    (3, 2, "open", 7, 2),
    (2, 2, "periodic", 8, 4),
    (3, 3, "periodic", 18, 9),
    (4, 1, "open", 3, 0),
])
def test_lattice_counts(lx, ly, boundary, links, plaqs):
    lat = LatticeSpec(lx, ly, boundary=boundary, include_matter=False)
    assert lat.n_links == links
    assert len(lat.plaquettes) == plaqs
    if boundary == "open":
        assert lat.n_links == lx * (ly - 1) + ly * (lx - 1)
    else:
        assert lat.n_links == 2 * lx * ly


def test_mixed_boundary():
    lat = LatticeSpec(2, 3, boundary=("periodic", "open"), include_matter=False)
    assert lat.n_links == 2 * 3 + 2 * 2      # x links wrap, y links do not
    assert len(lat.plaquettes) == 4


def test_vertex_parity_pattern():
    lat = LatticeSpec(3, 2, include_matter=True)
    assert lat.vertex_parity.tolist() == [0, 1, 0, 1, 0, 1]


def test_staggered_periodic_needs_even_extent():
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(3, 2, boundary="periodic", include_matter=True)
    with pytest.raises(ValueError):
        Model(z2, lat, ModelParams(staggered=True, terms=("mass",)))
    # fine without staggering
    Model(z2, lat, ModelParams(staggered=False, terms=("mass",)))


# ---------------------------------------------------------------------------
# global basis
# ---------------------------------------------------------------------------

def test_mixed_radix_roundtrip():
    basis = GlobalBasis([16, 6, 6, 5], has_matter=True, n_vertices=2,
                        modes_per_vertex=2)
    rng = np.random.default_rng(123)
    for idx in rng.integers(0, basis.dim, size=1000):
        digits = decode(basis, int(idx))
        assert basis.encode(digits) == idx
    # digit arrays agree with scalar decode
    for f in range(4):
        arr = digit_array(basis, f)
        for idx in rng.integers(0, basis.dim, size=50):
            assert arr[idx] == decode(basis, int(idx))[f]


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def z2_chain():
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    return Model(z2, lat, ModelParams(mass=1.0, epsilon=0.5, coupling=1.0))


def test_embed_identity(z2_chain):
    op = identity_operator(z2_chain.link_space, "rep")
    f = z2_chain.global_basis.link_factor(0)
    glob = _operator(z2_chain, (f, f + 1, op.matrix))
    assert _mabs(glob.matrix - sp.identity(glob.dim)) == 0.0


def test_embed_projector_sum(z2_chain):
    total = None
    f = z2_chain.global_basis.link_factor(0)
    for ir in z2_chain.entry.irreps:
        glob = _operator(z2_chain, (f, f + 1, projector_rep(z2_chain.link_space, ir.label).matrix))
        total = glob if total is None else total + glob
    assert _mabs(total.matrix - sp.identity(total.dim)) == 0.0


def test_embedded_operators_on_different_links_commute():
    z3 = build_builtin("Z_3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    model = Model(z3, lat, ModelParams(terms=("electric",)))
    from fockgauge.link_space import theta_left
    fa, fb = model.global_basis.link_factor(0), model.global_basis.link_factor(3)
    a = _operator(model, (fa, fa + 1, theta_left(model.link_space, 1).matrix))
    b = _operator(model, (fb, fb + 1, theta_left(model.link_space, 2).matrix))
    assert _mabs((a @ b - b @ a).matrix) == 0.0


def test_fermion_bilinear_number_operator(z2_chain):
    gb = z2_chain.global_basis
    num = _operator(z2_chain, _sum_on_span(gb.factor_dims, [
        {gb.fermion_factor: [_hop(z2_chain, 0, 0, 0, 0)]}]))
    arr = num.matrix.diagonal()
    assert num.matrix.nnz == len(arr[arr != 0])     # diagonal
    # vertex 0 occupies bit 0 of the fermion factor (most significant digit)
    ferm_digits = digit_array(gb, gb.fermion_factor)
    expected = (ferm_digits & 1).astype(complex)
    assert np.abs(num.matrix.diagonal() - expected).max() == 0.0


def test_global_anticommutation_with_strings(z2_chain):
    # psi(0), psi+(1) across vertices must anticommute to zero, and
    # {psi(i), psi+(i)} = 1 on the full fermion factor
    m = z2_chain
    f0 = m.fermion_annihilation(0, 0)
    f1 = m.fermion_annihilation(1, 0)
    anti = f0 @ f1 + f1 @ f0
    assert _mabs(anti) == 0.0
    mixed = f0 @ f1.conj().T + f1.conj().T @ f0
    assert _mabs(mixed) == 0.0
    same = f0 @ f0.conj().T + f0.conj().T @ f0
    assert _mabs(same - sp.identity(4)) == 0.0


def test_staggered_mass_alternates():
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(z2, lat, ModelParams(mass=2.0, staggered=True, terms=("mass",)))
    ham = hamiltonian_terms(model)["mass"]
    diag = np.unique(np.round(ham.matrix.diagonal().real, 12))
    # occupations (n0, n1): energies 2 n0 - 2 n1 in {-2, 0, 2}
    assert set(diag) == {-2.0, 0.0, 2.0}
    unstaggered = Model(z2, lat, ModelParams(mass=2.0, staggered=False,
                                             terms=("mass",)))
    diag2 = np.unique(hamiltonian_terms(unstaggered)["mass"].matrix.diagonal().real)
    assert set(diag2) == {0.0, 2.0, 4.0}


# ---------------------------------------------------------------------------
# Hamiltonian and Gauss law
# ---------------------------------------------------------------------------

def test_full_hamiltonian_hermitian_and_gauge_invariant(z2_chain):
    ham = build_hamiltonian(z2_chain)
    assert ham.hermiticity_residual() <= HERMITICITY_TOL
    for v in range(2):
        for g in range(2):
            th = gauss_operator(z2_chain, v, g)
            assert _mabs((th @ ham - ham @ th).matrix) < 1e-12


def test_plaquette_free_magnetic_term_keeps_full_shape(z2_chain):
    # an empty sum over plaquettes is the zero operator on the full space,
    # not a scalar 0 that Operator would turn into a 1x1 matrix
    magnetic = hamiltonian_terms(z2_chain)["magnetic"]
    assert magnetic.matrix.shape == (z2_chain.global_basis.dim,) * 2
    assert magnetic.matrix.nnz == 0


@pytest.mark.parametrize("group,lx,basis,params", [
    ("D3", 2, "group", {"mass": 1.0, "epsilon": 0.7, "coupling": 1.3,
                        "electric_weights": {"I": 0.0, "p": 1.0, "2": 1.0}}),
    ("Z_3", 3, "rep", {"mass": 0.8, "epsilon": [0.5 + 0.2j, 0.3 - 0.4j], "coupling": 1.1}),
], ids=["d3-2x1", "z3-3x1-complex-epsilon"])
def test_plaquette_free_lattice_adds_nothing_for_the_magnetic_term(group, lx, basis, params):
    # open chains have no plaquettes: the magnetic term is an empty sum, a
    # float64 zero of full dim, and H holds exactly the other terms
    lat = LatticeSpec(lx, 1, boundary="open", include_matter=True)
    model = Model(build_builtin(group), lat, ModelParams(**params), basis_tag=basis)
    terms = hamiltonian_terms(model)
    magnetic = terms.pop("magnetic").matrix
    dim = model.global_basis.dim
    assert magnetic.shape == (dim, dim) and magnetic.nnz == 0
    assert magnetic.dtype == np.float64
    others = sum((t.matrix for t in terms.values()), sp.csr_matrix((dim, dim)))
    ham = build_hamiltonian(model).matrix
    np.testing.assert_array_equal(ham.indptr, others.indptr)
    np.testing.assert_array_equal(ham.indices, others.indices)
    np.testing.assert_array_equal(ham.data, others.data)


@pytest.mark.parametrize("group,ly,basis,weights", [
    ("Z_2", 1, "rep", None),
    ("D3", 2, "group", {"I": 0.0, "p": 1.0, "2": 1.0}),
    ("D3", 2, "rep", {"I": 0.0, "p": 1.0, "2": 1.0}),
])
def test_hamiltonian_is_the_sum_of_its_terms(group, ly, basis, weights):
    lat = LatticeSpec(2, ly, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3, electric_weights=weights)
    model = Model(build_builtin(group), lat, params, basis_tag=basis)
    terms = hamiltonian_terms(model)
    assert tuple(terms) == ("mass", "tunneling", "electric", "magnetic")
    expected = sum(t.matrix for t in terms.values())
    del terms
    assert _mabs(build_hamiltonian(model).matrix - expected) <= 1e-14


def test_build_hamiltonian_keeps_one_placed_term_alive():
    # L1: D3 2x2 open with matter in the group basis, dim 331 776.  H has
    # 9 179 136 nonzeros, 12 B each as float64 values and int32 indices.
    # Holding every full-space complex term while summing them peaks above
    # 60 B per nonzero; summing one real term at a time and handing out the
    # float64 sum peaks at about 25 B, below the 40 B bound (twice the
    # bytes of a complex128 H).
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    model = Model(build_builtin("D3"), lat, params, basis_tag="group")
    tracemalloc.start()
    try:
        ham = build_hamiltonian(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ham.matrix.dtype == np.float64
    assert ham.matrix.indices.dtype == np.int32
    assert peak < 2 * ham.matrix.nnz * (16 + 4), (peak, ham.matrix.nnz)


def test_build_hamiltonian_peaks_below_one_and_a_half_hamiltonians():
    # L1 again: a running sum holds the old sum, the next placed term and
    # the new sum at once (2.09x H's bytes under tracemalloc); the sum
    # written one slice of fermion digits at a time into arrays allocated
    # once peaks at about 1.34x
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    model = Model(build_builtin("D3"), lat, params, basis_tag="group")
    tracemalloc.start()
    try:
        ham = build_hamiltonian(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    mat = ham.matrix
    ham_bytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 1.5 * ham_bytes, (peak, ham_bytes)


def _csr(rng, n: int, nnz: int, complex_values: bool = False) -> sp.csr_matrix:
    values = rng.standard_normal(nnz)
    if complex_values:
        values = values + 1j * rng.standard_normal(nnz)
    return sp.csr_matrix((values, (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
                         shape=(n, n))


def _signed_zeros(rng, n: int) -> sp.csr_matrix:
    """A canonical complex CSR whose stored values include -0.0 and 0.0 in
    the real and imaginary parts, one entry per row."""
    parts = np.array([-0.0, 0.0, 1.5, -2.0])
    values = rng.choice(parts, n) + 1j * rng.choice(parts, n)
    return sp.csr_matrix((values, rng.permutation(n), np.arange(n + 1)), shape=(n, n))


def _sum_cases():
    rng = np.random.default_rng(11)
    dims = [4, 3, 2, 5, 2]
    a = _csr(rng, 6, 20)
    cancelling = _csr(rng, 12, 40, complex_values=True)
    return {
        # real and complex blocks on overlapping spans, the first on the
        # leading factor
        "overlapping": (dims, 0, 4, [(0, 2, _csr(rng, 12, 50)),
                                     (1, 3, _csr(rng, 6, 25, complex_values=True)),
                                     (0, 4, _csr(rng, 120, 400)),
                                     (2, 4, _csr(rng, 10, 30))]),
        "real": (dims, 1, 5, [(1, 3, a), (3, 5, _csr(rng, 10, 30)), (1, 2, _csr(rng, 3, 5))]),
        # factors 2 and 3 of the span [1, 5) are touched by no block
        "gaps": (dims, 1, 5, [(1, 2, _csr(rng, 3, 6, complex_values=True)),
                              (4, 5, _csr(rng, 2, 3))]),
        # a zero block before the span, a scalar one inside it, and blocks
        # after the leading factor only
        "zero-width": (dims, 1, 4, [(0, 0, sp.csr_matrix((1, 1), dtype=complex)),
                                    (2, 2, sp.csr_matrix(np.array([[0.25]]))),
                                    (2, 4, _csr(rng, 10, 20))]),
        "empty-span": (dims, 2, 2, [(2, 2, sp.csr_matrix((1, 1), dtype=complex))]),
        "no-blocks": (dims, 0, 0, []),
        # a block and its negative cancel to exact zeros everywhere but on
        # the third block's entries
        "cancelling": (dims, 0, 2, [(0, 2, cancelling), (1, 2, _csr(rng, 3, 4)),
                                    (0, 2, -cancelling)]),
        "signed-zeros": (dims, 0, 3, [(0, 3, _signed_zeros(rng, 24)),
                                      (1, 2, _signed_zeros(rng, 3)),
                                      (0, 1, _signed_zeros(rng, 4)),
                                      (2, 3, sp.csr_matrix(([-0.0, 0.0], [1, 0], [0, 1, 2]),
                                                           shape=(2, 2)))]),
    }


@pytest.mark.parametrize("slice_nnz", [16, None], ids=["many-slices", "one-slice"])
@pytest.mark.parametrize("case", list(_sum_cases()))
def test_sum_blocks_is_the_running_sum_bit_for_bit(monkeypatch, case, slice_nnz):
    import fockgauge.lattice_model as lm

    if slice_nnz is not None:
        monkeypatch.setattr(lm, "SLICE_NNZ", slice_nnz)
    dims, lo, hi, blocks = _sum_cases()[case]
    got = lm._sum_blocks(dims, lo, hi, iter(blocks))
    want = sum_blocks_running(dims, lo, hi, blocks)
    assert got[:2] == want[:2]
    got, want = got[2], want[2]
    assert got.shape == want.shape and got.dtype == want.dtype
    for name in ("indptr", "indices", "data"):
        mine, theirs = getattr(got, name), getattr(want, name)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), name


@pytest.mark.parametrize("group,params,basis", [
    ("SU2_trunc", {"j_max": "1/2"}, "rep"),
    ("D3", {}, "group"),
], ids=["su2-l4", "d3-2x1"])
def test_sum_blocks_adds_the_hamiltonian_terms_as_the_running_sum(group, params, basis):
    # real model terms, normalized as H takes them, past SLICE_NNZ entries
    import fockgauge.lattice_model as lm

    lx, ly = (2, 2) if group == "SU2_trunc" else (2, 1)
    model = Model(build_builtin(group, **params), LatticeSpec(lx, ly, include_matter=True),
                  ModelParams(mass=1.0, epsilon=0.7, coupling=1.3,
                              electric_weights=None if group == "SU2_trunc"
                              else {"I": 0.0, "p": 1.0, "2": 1.0}), basis_tag=basis)
    dims = model.global_basis.factor_dims
    blocks = [lm._real(lm._TERMS[name](model)) for name in model.terms]
    got = lm._sum_blocks(dims, 0, len(dims), blocks)[2]
    want = sum_blocks_running(dims, 0, len(dims), blocks)[2]
    if group == "SU2_trunc":
        assert want.nnz > lm.SLICE_NNZ
    for name in ("indptr", "indices", "data"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert got.dtype == want.dtype


def test_sum_blocks_sorts_a_full_span_block_that_is_not_canonical():
    # a product's column indices come out unsorted; the running sum takes
    # such a block through scipy's general path (reversed column order), the
    # sliced sum canonicalizes it first: the same matrix, sorted
    import fockgauge.lattice_model as lm

    rng = np.random.default_rng(5)
    g = _csr(rng, 24, 120, complex_values=True)
    square = g @ g
    assert not square.has_canonical_format
    dims, blocks = [4, 3, 2], [(0, 3, square), (1, 3, _csr(rng, 6, 12))]
    got = lm._sum_blocks(dims, 0, 3, blocks)[2]
    want = sum_blocks_running(dims, 0, 3, blocks)[2]
    assert got.has_canonical_format
    want.sort_indices()
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.data, want.data)


@pytest.mark.parametrize("group,basis,epsilon,dtype", [
    ("D3", "group", 0.7, np.float64),
    ("D3", "rep", 0.7, np.float64),
    ("Z_2", "group", 0.7, np.float64),
    ("Z_2", "group", 0.7j, np.complex128),
], ids=["d3-group", "d3-rep", "z2", "z2-complex-epsilon"])
def test_real_hamiltonian_stays_float64(group, basis, epsilon, dtype):
    # D3 has real irreps, so with real couplings H is real in both link
    # bases and is handed out as float64; a complex epsilon makes it complex
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    weights = {"I": 0.0, "p": 1.0, "2": 1.0} if group == "D3" else None
    params = ModelParams(mass=1.0, epsilon=epsilon, coupling=1.3,
                         electric_weights=weights)
    model = Model(build_builtin(group), lat, params, basis_tag=basis)
    assert model.terms == ("mass", "tunneling", "electric", "magnetic")
    assert build_hamiltonian(model).matrix.dtype == dtype


def test_include_hc_fault_injection():
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(z2, lat, ModelParams(epsilon=0.5, include_hc=False,
                                       terms=("tunneling",)))
    ham = build_hamiltonian(model)
    assert not ham.hermiticity_residual() <= HERMITICITY_TOL
    assert ham.hermiticity_residual() > 0.1


def test_gauss_operator_identity_and_law(z2_chain):
    eye = gauss_operator(z2_chain, 0, 0)
    assert _mabs(eye.matrix - sp.identity(eye.dim)) == 0.0
    spec = z2_chain.entry.spec
    for v in range(2):
        ths = [gauss_operator(z2_chain, v, g) for g in range(2)]
        for g in range(2):
            for h in range(2):
                prod = ths[g] @ ths[h]
                assert _mabs((prod - ths[spec.mul[g, h]]).matrix) < 1e-12
    # operators at different vertices commute
    a = gauss_operator(z2_chain, 0, 1)
    b = gauss_operator(z2_chain, 1, 1)
    assert _mabs((a @ b - b @ a).matrix) == 0.0


def test_gauss_z2_star_structure():
    # pure gauge Z_2 in the group basis: the vertex operator is the product
    # of bit flips on the incident links
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(2, 2, boundary="periodic", include_matter=False)
    model = Model(z2, lat, ModelParams(terms=("magnetic",)), basis_tag="group")
    th = gauss_operator(model, 0, 1)
    incident = [link.index for link, _ in lat.links_at_vertex(0)]
    x = sp.csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex))
    ops = [x if l in incident else sp.identity(2, dtype=complex, format="csr")
           for l in range(lat.n_links)]
    expected = ops[0]
    for op in ops[1:]:
        expected = sp.kron(expected, op, format="csr")
    assert _mabs(th.matrix - expected) == 0.0


def test_gauss_generators_match_exponentials():
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(su2, lat, ModelParams(mass=0.5, epsilon=0.3))
    from scipy.linalg import expm
    rng = np.random.default_rng(21)
    for v in range(2):
        gens = gauss_generators(model, v)
        for g in gens:
            assert _mabs((g.matrix - g.matrix.conj().T).tocoo()) < 1e-12
        for _ in range(3):
            alpha = rng.uniform(-np.pi, np.pi, 3)
            lhs = expm(1j * sum(a * g.toarray() for a, g in zip(alpha, gens)))
            rhs = gauss_operator(model, v, alpha).toarray()
            assert np.abs(lhs - rhs).max() < 1e-10


def test_gauss_generators_require_lie(z2_chain):
    with pytest.raises(ValueError):
        gauss_generators(z2_chain, 0)


def test_su2_singlet_string_is_physical():
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(su2, lat, ModelParams())
    vac = vacuum_state(model)
    cas = _gauss_penalty(model)
    assert np.linalg.norm(cas.apply(vac)) < 1e-12
    u = model.u_tunneling
    gb = model.global_basis
    string = np.zeros_like(vac)
    for a in range(2):
        for b in range(2):
            # psi^dag_(0, a) U_ab psi_(1, b) on the fermion factor and link 0's
            op = _operator(model, _sum_on_span(gb.factor_dims, [
                {gb.fermion_factor: [_hop(model, 0, a, 1, b)],
                 gb.link_factor(0): [u.entry(a, b).matrix]}]))
            string += op.apply(vac)
    string /= np.linalg.norm(string)
    assert np.linalg.norm(cas.apply(string)) < 1e-12


def test_u1_gauss_generator_is_divergence_minus_charge():
    u1 = build_builtin("U1_trunc", P=1)
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(u1, lat, ModelParams(staggered=True, terms=("mass",)))
    for v in range(2):
        g = gauss_generators(model, v)[0]
        vals = np.linalg.eigvalsh(g.toarray())
        assert np.abs(vals - np.round(vals)).max() < 1e-12


def test_empty_even_vertex_is_neutral():
    u1 = build_builtin("U1_trunc", P=1)
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(u1, lat, ModelParams(staggered=True, terms=("mass",)))
    vac = vacuum_state(model)
    for v in range(2):
        g = gauss_generators(model, v)[0]
        assert np.linalg.norm(g.apply(vac)) < 1e-12


# ---------------------------------------------------------------------------
# physical sector
# ---------------------------------------------------------------------------

def test_projector_idempotent_commutes_rank():
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(2, 2, boundary="periodic", include_matter=False)
    model = Model(z2, lat, ModelParams(terms=("magnetic",)), basis_tag="group")
    proj = physical_projector(model)
    assert _mabs((proj @ proj - proj).matrix) < 1e-10
    ham = build_hamiltonian(model)
    assert _mabs((proj @ ham - ham @ proj).matrix) < 1e-12
    assert np.trace(proj.toarray()).real == pytest.approx(32, abs=1e-9)


def test_projector_fixes_vacuum():
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(d3, lat, ModelParams(mass=1.0, epsilon=0.2,
                                       terms=("mass", "tunneling")))
    vac = vacuum_state(model)
    proj = physical_projector(model)
    assert np.linalg.norm(proj.apply(vac) - vac) < 1e-12


def test_single_vertex_matter_sector_ranks():
    # one D3 matter site, no links: the trivial-sector rank is 1 for both
    # parities (vacuum on even sites, the doubly occupied state on odd ones)
    d3 = build_builtin("D3")
    lat = LatticeSpec(1, 1, boundary="open", include_matter=True)
    model = Model(d3, lat, ModelParams(mass=1.0, terms=("mass",)))
    proj = physical_projector(model)
    arr = proj.toarray()
    assert np.abs(arr @ arr - arr).max() < 1e-12
    assert np.trace(arr).real == pytest.approx(1.0, abs=1e-12)
    # brute-force oracle: eigenspace of the group average at eigenvalue 1
    avg = sum(theta_q(model.vertex_spaces[0], d3, g).toarray()
              for g in range(6)) / 6.0
    vals = np.linalg.eigvals(avg)
    assert np.sum(np.abs(vals - 1.0) < 1e-9) == 1
    vac = vacuum_state(model)
    assert np.linalg.norm(proj.apply(vac) - vac) < 1e-12


def test_projected_spectrum_is_subset():
    z3 = build_builtin("Z_3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    model = Model(z3, lat, ModelParams(coupling=0.9), basis_tag="group")
    ham = build_hamiltonian(model)
    cols = physical_basis(model)
    reduced = cols.conj().T @ ham.toarray() @ cols
    proj_vals = np.linalg.eigvalsh(reduced)
    full_vals = np.linalg.eigvalsh(ham.toarray())
    for v in proj_vals:
        assert np.min(np.abs(full_vals - v)) < 1e-9


def test_physical_basis_lie_nullspace():
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(su2, lat, ModelParams())
    cols = physical_basis(model)
    cas = _gauss_penalty(model)
    assert np.abs(cols.conj().T @ cas.toarray() @ cols).max() < 1e-10
    vac = vacuum_state(model)
    overlap = cols.conj().T @ vac
    assert np.linalg.norm(cols @ overlap - vac) < 1e-10   # vac inside sector


def test_physical_basis_spans_the_projector_range():
    # D3 pure gauge 2x2 open, group basis (dim 1296): the eigenvalue-1 window
    # must reproduce the dense character projector, not only a subspace of it
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    model = Model(d3, lat, ModelParams(terms=("magnetic",)), basis_tag="group")
    cols = physical_basis(model)
    proj = physical_projector(model).toarray()
    assert cols.shape[1] > 0
    assert np.abs(cols @ cols.conj().T - proj).max() < 1e-10


def test_physical_basis_spans_a_static_charge_projector():
    # Z_3 2x2 open with matter, group basis (dim 1296): the Gauss law splits
    # the space into orbits, solved one by one; the oracle is the dense
    # projector onto the sector with charges 1 at vertex 0 and 2 at vertex 3
    z3 = build_builtin("Z_3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3)
    model = Model(z3, lat, params, basis_tag="group")
    sector = {0: "1", 3: "2"}
    cols = physical_basis(model, sector=sector)
    proj = physical_projector(model, sector=sector).toarray()
    assert cols.shape[1] > 0
    assert np.abs(cols @ cols.conj().T - proj).max() < 1e-10


def test_physical_basis_of_a_diagonal_casimir():
    # U(1) P=1 2x2 open with matter: in the rep basis the Casimir is
    # diagonal, so every basis state is its own 1x1 block
    u1 = build_builtin("U1_trunc", P=1)
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    model = Model(u1, lat, ModelParams(mass=1.0, epsilon=0.7, coupling=1.3))
    cas = _gauss_penalty(model).toarray()
    diag = np.diag(cas)
    assert np.abs(cas - np.diag(diag)).max() == 0.0
    cols = physical_basis(model)
    assert cols.shape[1] == int(np.sum(np.abs(diag) <= 1e-8)) > 0
    assert np.abs(cols.conj().T @ cas @ cols).max() < 1e-10


def test_physical_basis_never_forms_a_dense_projector():
    # Z_3 3x2 open pure gauge, group basis (dim 2187): the dense projector
    # alone would take dim^2 * 16 B = 76 MB
    z3 = build_builtin("Z_3")
    lat = LatticeSpec(3, 2, boundary="open", include_matter=False)
    model = Model(z3, lat, ModelParams(coupling=1.3), basis_tag="group")
    dim = model.global_basis.dim
    assert dim == 2187
    tracemalloc.start()
    try:
        cols = physical_basis(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cols.shape == (dim, 9)
    assert peak < dim * dim * np.dtype(complex).itemsize / 4


def test_physical_basis_lie_matches_casimir_nullity():
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(su2, lat, ModelParams())
    vals = np.linalg.eigvalsh(_gauss_penalty(model).toarray())
    nullity = int(np.sum(np.abs(vals) <= 1e-8))
    assert nullity > 0
    assert physical_basis(model).shape[1] == nullity


def test_physical_basis_of_an_empty_sector():
    # one link: the trivial Gauss law at vertex 1 forces the trivial irrep,
    # so no state carries the doublet static charge at vertex 0
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=False)
    model = Model(d3, lat, ModelParams(terms=("magnetic",)), basis_tag="group")
    assert model.global_basis.dim == 6
    assert physical_basis(model, sector={0: "2"}).shape == (6, 0)


def _projector_gap(a, b, rows=512):
    """max |a a^dag - b b^dag|, formed a row slice at a time."""
    return max((np.abs(a[i:i + rows] @ a.conj().T - b[i:i + rows] @ b.conj().T).max()
                for i in range(0, len(a), rows)), default=0.0)


D3_WEIGHTS = {"I": 0.0, "p": 1.0, "2": 1.0}


@pytest.mark.parametrize("group,lx,ly,matter,params,basis,sector", [
    ("D3", 2, 2, False, {"coupling": 1.3, "electric_weights": D3_WEIGHTS}, "group", None),
    ("D3", 2, 2, False, {"coupling": 1.3, "electric_weights": D3_WEIGHTS}, "rep", None),
    ("Z_3", 3, 2, False, {"coupling": 1.3}, "group", None),
    ("Z_3", 2, 2, True, {"mass": 1.0, "epsilon": 0.7, "coupling": 1.3}, "group",
     {0: "1", 3: "2"}),
    ("D3", 2, 1, True, {"mass": 1.0, "epsilon": 0.7, "electric_weights": D3_WEIGHTS},
     "rep", None),
    ("D3", 2, 1, False, {"terms": ("magnetic",)}, "group", {0: "2"}),
], ids=["d3-pure-group", "d3-pure-rep", "z3-3x2", "z3-matter-charged", "d3-matter",
        "d3-empty"])
def test_penalty_nullspace_matches_the_average_product(group, lx, ly, matter, params,
                                                       basis, sector):
    # the nullspace of sum_v (1 - A_v^s) against the eigenvalue-1 space of
    # prod_v A_v^s, the product taken block by block
    lat = LatticeSpec(lx, ly, boundary="open", include_matter=matter)
    model = Model(build_builtin(group), lat, ModelParams(**params), basis_tag=basis)
    cols = physical_basis(model, sector=sector)
    ref = physical_basis_by_average_product(model, sector=sector)
    assert cols.shape == ref.shape
    assert _projector_gap(cols, ref) < 1e-10


@pytest.mark.parametrize("lx,ly,matter,basis", [(2, 2, False, "group"),
                                                (2, 1, True, "rep")])
def test_finite_penalty_spectrum_is_the_integers_up_to_the_vertex_count(lx, ly, matter,
                                                                       basis):
    # the vertex averages are commuting projectors, so sum_v (1 - A_v)
    # counts the vertices whose Gauss law a joint eigenvector breaks
    import fockgauge.lattice_model as lm

    lat = LatticeSpec(lx, ly, boundary="open", include_matter=matter)
    model = Model(build_builtin("D3"), lat,
                  ModelParams(mass=1.0, electric_weights=D3_WEIGHTS), basis_tag=basis)
    vals = np.linalg.eigvalsh(lm._gauss_penalty(model).toarray())
    assert np.abs(vals - np.round(vals)).max() < 1e-12
    assert set(np.round(vals).astype(int)) == set(range(lat.n_vertices + 1))


def test_physical_projector_rejects_lie():
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    with pytest.raises(ValueError):
        physical_projector(Model(su2, lat, ModelParams()))


def test_physical_projector_over_dense_cap_raises_before_assembly(monkeypatch):
    # D3 2x2 open with matter in the group basis: dim 331 776; the projector
    # would be a product of 4 vertex averages of 6 full-space operators each
    import fockgauge.lattice_model as lm

    def no_assembly(*args, **kwargs):
        raise AssertionError("vertex average assembled above the dense cap")

    monkeypatch.setattr(lm, "vertex_sector_average", no_assembly)
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    model = Model(d3, lat, params, basis_tag="group")
    assert model.global_basis.dim > lm.DENSE_MAX_DIM
    with pytest.raises(ValueError, match="limited to dim"):
        physical_projector(model)


@pytest.mark.parametrize("matter", [False, True], ids=["pure", "matter"])
def test_vertex_out_of_range_is_refused_by_every_star_builder(matter):
    lat = LatticeSpec(2, 1, boundary="open", include_matter=matter)
    d3 = Model(build_builtin("D3"), lat, ModelParams())
    su2 = Model(build_builtin("SU2_trunc", j_max="1/2"), lat, ModelParams())
    for vertex in (-1, lat.n_vertices):
        with pytest.raises(ValueError, match="out of range"):
            gauss_operator(d3, vertex, 1)
        with pytest.raises(ValueError, match="out of range"):
            vertex_sector_average(d3, vertex, "2")
        with pytest.raises(ValueError, match="out of range"):
            gauss_generators(su2, vertex)


def test_element_out_of_range_is_refused_by_the_star_builder():
    # no wrap-around: g = -1 must not be element |G| - 1
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    d3 = Model(build_builtin("D3"), lat, ModelParams())
    for g in (-1, 6):
        with pytest.raises(ValueError, match=f"group element {g} out of range"):
            gauss_operator(d3, 0, g)
    assert gauss_operator(d3, 0, 5).matrix.nnz == 240


def test_sector_on_a_vertex_off_the_lattice_is_refused():
    # D3 2x1 has vertices 0 and 1; vertex 99 must not fall back to trivial,
    # and an irrep D3 lacks is named before any vertex block is built
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(build_builtin("D3"), lat, ModelParams(terms=("mass",)))
    for sector, message in (({99: "2"}, "off the lattice"),
                            ({0: "bogus"}, "irreps not in D3: \\['bogus'\\]")):
        for build in (physical_projector, physical_basis):
            with pytest.raises(ValueError, match=message):
                build(model, sector=sector)


def test_lie_physical_basis_refuses_a_sector():
    # the Casimir nullspace is the neutral sector only: a charged sector
    # must not return its 5 states
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(su2, lat, ModelParams())
    assert physical_basis(model).shape[1] == 5
    with pytest.raises(ValueError, match="neutral sector"):
        physical_basis(model, sector={0: "1/2"})


def test_static_charge_sector():
    # a nontrivial sector at one vertex selects states transforming in it
    d3 = build_builtin("D3")
    lat = LatticeSpec(1, 1, boundary="open", include_matter=True)
    model = Model(d3, lat, ModelParams(terms=("mass",)))
    proj = physical_projector(model, sector={0: "2"})
    arr = proj.toarray()
    assert np.abs(arr @ arr - arr).max() < 1e-10
    assert np.trace(arr).real == pytest.approx(2.0, abs=1e-9)  # the 1-particle doublet


# ---------------------------------------------------------------------------
# plaquette operator
# ---------------------------------------------------------------------------

def test_plaquette_commutes_with_tunneling_and_gauss():
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    model = Model(z2, lat, ModelParams(mass=0.4, epsilon=0.7), basis_tag="group")
    terms = hamiltonian_terms(model)
    w = _operator(model, _plaquette_block(model, model.lattice.plaquettes[0]))
    assert _mabs((w @ terms["tunneling"] - terms["tunneling"] @ w).matrix) < 1e-12
    for v in range(4):
        for g in range(2):
            th = gauss_operator(model, v, g)
            assert _mabs((w @ th - th @ w).matrix) < 1e-12


def test_rep_group_magnetic_agreement():
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    params = ModelParams(coupling=1.1, terms=("magnetic",))
    h_grp = build_hamiltonian(Model(d3, lat, params, basis_tag="group"))
    h_rep = build_hamiltonian(Model(d3, lat, params, basis_tag="rep"))
    from fockgauge.link_space import LinkSpace
    f1 = LinkSpace(d3).fourier
    f = np.ones((1, 1))
    for _ in range(4):
        f = np.kron(f, f1)
    assert np.abs(f.conj().T @ h_grp.toarray() @ f - h_rep.toarray()).max() < 1e-10


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_default_electric_weights():
    assert default_electric_weights(build_builtin("SU2_trunc", j_max=1)) == {
        "0": 0.0, "1/2": 0.75, "1": 2.0}
    assert default_electric_weights(build_builtin("U1_trunc", P=1)) == {
        "-1": 1.0, "0": 0.0, "1": 1.0}
    assert default_electric_weights(build_builtin("Z_4")) == {
        "0": 0.0, "1": 1.0, "2": 4.0, "3": 1.0}
    assert default_electric_weights(build_builtin("D3")) is None


def test_electric_requires_weights_for_nonabelian():
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    model = Model(d3, lat, ModelParams(terms=("electric",)))
    with pytest.raises(ValueError):
        build_hamiltonian(model)
    ok = Model(d3, lat, ModelParams(
        terms=("electric",), electric_weights={"I": 0.0, "p": 1.0, "2": 1.0}))
    assert build_hamiltonian(ok).hermiticity_residual() <= HERMITICITY_TOL


def test_parameter_validation_errors():
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    with pytest.raises(ValueError):
        Model(z2, lat, ModelParams(terms=("mass",))).terms       # needs matter
    with pytest.raises(ValueError):
        Model(z2, lat, ModelParams(coupling=0.0)).terms
    with pytest.raises(ValueError):
        Model(z2, lat, ModelParams(terms=("bogus",))).terms
    with pytest.raises(ValueError, match=r"\['magnetic'\] are listed more than once"):
        Model(z2, lat, ModelParams(terms=("magnetic", "electric", "magnetic"))).terms
    with pytest.raises(ValueError):
        Model(z2, lat, ModelParams(magnetic_rep="7"))
    with pytest.raises(ValueError):
        Model(z2, lat, ModelParams(epsilon=[1.0, 2.0]))          # 4 links
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    with pytest.raises(Exception):
        Model(su2, lat, ModelParams(), basis_tag="group")


def test_repeated_assembly_bit_identical():
    # assembly has no thread knob; two fresh models must give the same bits
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    params = ModelParams(coupling=1.2, terms=("magnetic",))
    h1 = build_hamiltonian(Model(d3, lat, params, basis_tag="group"))
    h2 = build_hamiltonian(Model(d3, lat, params, basis_tag="group"))
    assert (h1.matrix != h2.matrix).nnz == 0


def test_pure_gauge_model_default_terms():
    model = Model(build_builtin("Z_2"),
                  LatticeSpec(2, 2, boundary="open", include_matter=False), ModelParams())
    assert model.terms == ("electric", "magnetic")


def test_magnetic_rep_independent_of_tunneling_rep():
    # a plaquette in the parity representation leaves the hopping term in
    # the fundamental; gauge invariance must survive the split
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=0.5, epsilon=0.3, coupling=1.0, magnetic_rep="p",
                         terms=("mass", "tunneling", "magnetic"))
    model = Model(d3, lat, params, basis_tag="group")
    assert model.u_tunneling.dim == 2
    assert model.u_magnetic.dim == 1
    terms = hamiltonian_terms(model)
    assert all(t.hermiticity_residual() <= HERMITICITY_TOL for t in terms.values())
    rng = np.random.default_rng(8)
    vec = rng.standard_normal(model.global_basis.dim) \
        + 1j * rng.standard_normal(model.global_basis.dim)
    vec /= np.linalg.norm(vec)
    for v in range(4):
        for g in range(6):
            th = gauss_operator(model, v, g)
            for term in terms.values():
                r = th.apply(term.apply(vec)) - term.apply(th.apply(vec))
                assert np.linalg.norm(r) < 1e-10


def test_global_dim_is_exact_past_int64(monkeypatch):
    # D3 5x4 open pure gauge has 31 links: 6**31 states, beyond int64
    import fockgauge.lattice_model as lm

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled above the dense cap")

    monkeypatch.setattr(lm, "_place", no_assembly)
    monkeypatch.setattr(lm, "physical_projector", no_assembly)
    lat = LatticeSpec(5, 4, boundary="open", include_matter=False)
    model = Model(build_builtin("D3"), lat, ModelParams(terms=("magnetic",)),
                  basis_tag="group")
    assert lat.n_links == 31
    assert model.global_basis.dim == 6 ** 31
    with pytest.raises(ValueError, match=f"limited to dim {lm.DENSE_MAX_DIM}"):
        physical_basis(model)


# ---------------------------------------------------------------------------
# link hops: written one range of fermion digits at a time
# ---------------------------------------------------------------------------

D3_WEIGHTS = {"I": 0.0, "p": 1.0, "2": 1.0}


def _hop_model(name, include_hc):
    """D3 2x1 ring (two links join vertices 0 and 1), D3 1x1 torus (both
    links are self-loops, where a hop's rows meet its own adjoint's) in
    either basis, and the SU(2) j <= 1/2 ring, all with matter."""
    group, basis = {"su2-ring": ("SU2_trunc", "rep")}.get(name, ("D3", name.split("-")[-1]))
    torus = "torus" in name
    lat = LatticeSpec(*((1, 1) if torus else (2, 1)),
                      boundary="periodic" if torus else ("periodic", "open"), include_matter=True)
    params = ModelParams(mass=0.8, epsilon=[0.6 + 0.2j, -0.5] if not torus else [0.6, 0.3 - 0.4j],
                         coupling=1.2, staggered=not torus, include_hc=include_hc,
                         electric_weights=None if group == "SU2_trunc" else D3_WEIGHTS)
    entry = build_builtin(group, j_max="1/2") if group == "SU2_trunc" else build_builtin(group)
    return Model(entry, lat, params, basis_tag=basis)


@pytest.mark.parametrize("slice_nnz", [None, 4], ids=["whole", "ranged"])
@pytest.mark.parametrize("include_hc", [True, False], ids=["hc", "no-hc"])
@pytest.mark.parametrize("name", ["d3-ring-group", "d3-ring-rep", "d3-torus-group",
                                  "d3-torus-rep", "su2-ring"])
def test_link_hops_equal_the_kronecker_chains_bit_for_bit(monkeypatch, name, include_hc,
                                                          slice_nnz):
    # each P_l written on its span; the hop with a link factor between its
    # two is written in one range of fermion digits, or with 4 stored
    # entries a slice in several
    import fockgauge.lattice_model as lm

    ranges = []
    if slice_nnz:
        monkeypatch.setattr(lm, "SLICE_NNZ", slice_nnz)
    written = lm._written

    def counting(dim, lead, load, step, rows, dtype):
        ranges.append(0)

        def counted(digits):
            ranges[-1] += 1
            return rows(digits)

        return written(dim, lead, load, step, counted, dtype)

    monkeypatch.setattr(lm, "_written", counting)
    model = _hop_model(name, include_hc)
    dims = model.global_basis.factor_dims
    hops = [lm._hop_block(dims, *hop) for hop in lm._link_hops(model)]
    expected = list(link_hops_by_kron(model))
    assert len(hops) == len(expected) == model.lattice.n_links
    for (lo, hi, got), (want_lo, want_hi, want) in zip(hops, expected):
        assert (lo, hi) == (want_lo, want_hi)
        assert got.shape == want.shape and got.nnz == want.nnz > 0
        for part in ("indptr", "indices", "data"):
            ours, theirs = getattr(got, part), getattr(want, part)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), part
    # link 0's P_l is its block; link 1's has link 0's factor between its two
    assert len(ranges) == 1
    assert ranges[0] > 1 if slice_nnz else ranges[0] == 1


def test_last_link_hop_of_l1_peaks_below_twice_its_bytes():
    # L1: D3 2x2 open with matter in the group basis.  The last link's hop
    # spans every factor: 552 960 entries, 11.8 MiB of complex128 values and
    # int32 indices.  Summing its four Kronecker products whole, scaling a
    # copy and adding a conjugated transposed copy peaked at 2.7x that; its
    # P_l (2 560 entries) written on the span one range at a time does not
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    model = Model(build_builtin("D3"), lat,
                  ModelParams(mass=1.0, epsilon=0.7, coupling=1.3, electric_weights=D3_WEIGHTS),
                  basis_tag="group")
    import fockgauge.lattice_model as lm

    dims = model.global_basis.factor_dims
    hops = lm._link_hops(model)
    for _ in range(model.lattice.n_links - 1):
        next(hops)
    tracemalloc.start()
    try:
        lo, hi, hop = lm._hop_block(dims, *next(hops))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (lo, hi, hop.nnz) == (0, len(dims), 552_960)
    kept = hop.data.nbytes + hop.indices.nbytes + hop.indptr.nbytes
    assert peak < 2 * kept, peak / kept


@pytest.mark.parametrize("mid", [1, 6, 216])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_spread_equals_the_kronecker_product_bit_for_bit(kind, mid):
    # random P on 8 fermion digits and 3 link digits, with signed zeros
    # stored among its values: every value is copied, none is summed
    import fockgauge.lattice_model as lm

    rng = np.random.default_rng(mid)
    fermions, link = 8, 3
    n = fermions * link
    p = sp.random(n, n, density=0.3, format="csr", random_state=rng)
    values = rng.standard_normal(p.nnz)
    if kind == "complex":
        values = values + 1j * rng.standard_normal(p.nnz)
        values[::5] = complex(0.0, -0.0)
        values[1::5] = complex(-0.0, 0.0)
    else:
        values[::5] = -0.0
    p = sp.csr_matrix((values, p.indices, p.indptr), shape=p.shape)
    p.sort_indices()
    got = lm._spread(p, fermions, mid)
    want = spread_by_kron(p, fermions, mid)
    assert got.shape == want.shape and got.has_canonical_format
    for part in ("indptr", "indices", "data"):
        ours, theirs = getattr(got, part), getattr(want, part)
        assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), part


# ---------------------------------------------------------------------------
# H from the link hops: each hop built once, no tunneling block written
# ---------------------------------------------------------------------------

EDGE_GROUPS = {"d3-group": ("D3", {}, "group"), "d3-rep": ("D3", {}, "rep"),
               "z3-group": ("Z_3", {}, "group"), "z3-rep": ("Z_3", {}, "rep"),
               "su2": ("SU2_trunc", {"j_max": "1/2"}, "rep"), "u1": ("U1_trunc", {"P": 1}, "rep")}
EDGE_LATTICES = {"ring": (2, 1, ("periodic", "open")), "torus": (1, 1, "periodic"),
                 "open-2x1": (2, 1, "open"), "open-2x2": (2, 2, "open")}


def _edge_model(group: str, lattice: str, epsilon: str, include_hc: bool) -> Model:
    """Matter on a 2x1 ring (two links join the same vertices), a 1x1 torus
    (two self-loops, whose hops meet the mass term on the diagonal), 2x1 or
    2x2 open, with one real or one complex epsilon per link."""
    name, params, basis = EDGE_GROUPS[group]
    lx, ly, boundary = EDGE_LATTICES[lattice]
    lat = LatticeSpec(lx, ly, boundary=boundary, include_matter=True)
    eps = [0.7 - 0.1 * i + (0.2j * (i % 2 == 0) if epsilon == "complex" else 0)
           for i in range(lat.n_links)]
    return Model(build_builtin(name, **params), lat,
                 ModelParams(mass=0.8, epsilon=eps, coupling=1.2, staggered=lattice != "torus",
                             include_hc=include_hc,
                             electric_weights=D3_WEIGHTS if name == "D3" else None),
                 basis_tag=basis)


def _edge_cases():
    small = [pytest.param(g, lat, eps, hc, id=f"{g}-{lat}-{eps}-{'hc' if hc else 'no-hc'}")
             for g in EDGE_GROUPS for lat in ("ring", "torus", "open-2x1")
             for eps in ("real", "complex") for hc in (True, False)]
    squares = [pytest.param(g, "open-2x2", eps, True, id=f"{g}-open-2x2-{eps}-hc")
               for g in ("z3-group", "z3-rep", "u1") for eps in ("real", "complex")]
    # L1-sized (D3) and dim 160 000 (SU(2)): one real-epsilon case each
    large = [pytest.param(g, "open-2x2", "real", True, id=f"{g}-open-2x2-real-hc")
             for g in ("d3-group", "d3-rep", "su2")]
    return small + squares + large


@pytest.mark.parametrize("group,lattice,epsilon,include_hc", _edge_cases())
def test_hamiltonian_is_the_sum_of_whole_term_blocks_bit_for_bit(group, lattice, epsilon,
                                                                 include_hc):
    # the tunneling term's hops added in H's own sum give the bits, dtype
    # included, of the whole tunneling block added there; on the torus the
    # self-loop hops share the mass term's diagonal entries, so the order of
    # addition shows, and a complex epsilon pins when H is complex128
    model = _edge_model(group, lattice, epsilon, include_hc)
    got = build_hamiltonian(model).matrix
    want = hamiltonian_by_terms(model)
    assert got.shape == want.shape and got.dtype == want.dtype
    for part in ("indptr", "indices", "data"):
        mine, theirs = getattr(got, part), getattr(want, part)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), part


def test_build_hamiltonian_builds_each_link_hop_once(monkeypatch):
    # Z_2 2x2 open with matter: one _sum_on_span for the mass, one per link
    # hop, one for the electric term and one per plaquette, through H's first
    # apply, which makes its pieces from the same hops; the whole tunneling
    # term is never built
    import fockgauge.lattice_model as lm

    def unbuildable(model):
        raise AssertionError("built the whole tunneling term")

    calls = []
    summed = lm._sum_on_span
    monkeypatch.setattr(lm, "_sum_on_span", lambda *args: calls.append(args) or summed(*args))
    monkeypatch.setitem(lm._TERMS, "tunneling", unbuildable)
    model = Model(build_builtin("Z_2"), LatticeSpec(2, 2, boundary="open", include_matter=True),
                  ModelParams(mass=1.0, epsilon=0.7, coupling=1.3), basis_tag="group")
    ham = build_hamiltonian(model)
    ham.apply(np.ones(ham.dim, dtype=complex))
    lattice = model.lattice
    assert model.terms == ("mass", "tunneling", "electric", "magnetic")
    assert len(ham.pieces) == 3
    assert len(calls) == 2 + lattice.n_links + len(lattice.plaquettes) == 7


def test_build_hamiltonian_peaks_at_one_and_a_quarter_hamiltonians():
    # L1: D3 2x2 open with matter in the group basis.  The whole tunneling
    # block (2 211 840 entries) held beside H's arrays peaked at 1.34x H's
    # bytes; the link hops, which the pieces keep, added range by range in
    # H's own sum (each range about 1/32 of the placed nnz) peak at about 1.21x
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3, electric_weights=D3_WEIGHTS)
    model = Model(build_builtin("D3"), lat, params, basis_tag="group")
    tracemalloc.start()
    try:
        ham = build_hamiltonian(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    mat = ham.matrix
    ham_bytes = mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
    assert peak <= 1.25 * ham_bytes, peak / ham_bytes


# ---------------------------------------------------------------------------
# physical_basis through maximal-tree gauge fixing
# ---------------------------------------------------------------------------

def _tree_model(group, lx, ly, boundary, matter, basis):
    """A model with L1's couplings (D3's electric weights for D3)."""
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3,
                         electric_weights=D3_WEIGHTS if group == "D3" else None)
    return Model(build_builtin(group), LatticeSpec(lx, ly, boundary=boundary,
                                                   include_matter=matter),
                 params, basis_tag=basis)


@pytest.mark.parametrize("lx,ly,slice_dim,dim", [(2, 2, 1536, 257), (3, 2, 147456, 24579)],
                         ids=["L1", "d3-3x2-matter"])
def test_root_projector_trace_is_the_trivial_sector_dim(lx, ly, slice_dim, dim):
    # Tr M from the Kronecker factors of each T_global(g), on the slice
    # only: no W, no full-space vector (the full spaces have 331 776 and
    # 1 146 617 856 states)
    import fockgauge.lattice_model as lm

    model = _tree_model("D3", lx, ly, "open", True, "group")
    root, free, _, _, terms = lm._gauge_fixed(model, lm._sector_labels(model, None))
    lattice = model.lattice
    assert root == 0 and len(free) == lattice.n_links - (lattice.n_vertices - 1)
    for _, factors in terms:
        assert np.prod([f.shape[0] for f in factors]) == slice_dim
    trace = sum(w * np.prod([f.trace() for f in factors]) for w, factors in terms)
    assert abs(trace - dim) < 1e-9


TREE_CASES = (
    [("D3", 2, 2, "open", False, basis, sector) for basis in ("group", "rep")
     for sector in (None, {2: "p"}, {0: "p", 1: "p", 3: "2"})]
    + [("Z_3", 3, 2, "open", False, "group", None),
       ("Z_2", 2, 2, "periodic", False, "group", None)]
    + [("D3", 2, 1, boundary, True, basis, sector) for basis in ("group", "rep")
       for boundary in ("open", ["periodic", "open"]) for sector in (None, {0: "p", 1: "2"})]
    + [("Z_3", 2, 2, "open", True, basis, sector) for basis in ("group", "rep")
       for sector in (None, {2: "1"}, {1: "1", 2: "1", 3: "2"})]
    + [("D3", 2, 1, "open", False, "group", {0: "2"})])


@pytest.mark.parametrize("group,lx,ly,boundary,matter,basis,sector", TREE_CASES,
                         ids=lambda value: str(value).replace(" ", ""))
def test_gauge_fixed_basis_matches_the_average_product(monkeypatch, group, lx, ly, boundary,
                                                       matter, basis, sector):
    # W range(M) against the eigenvalue-1 space of prod_v A_v^s, with the
    # Gauss penalty unbuildable: every one of these sectors has at most one
    # irrep of dim > 1, so none may reach it.  The columns are float64
    # exactly when the oracle's are: complex ones would upcast H in a
    # caller's cols^H @ H
    import fockgauge.lattice_model as lm

    def no_penalty(*args, **kwargs):
        raise AssertionError("Gauss penalty built for a gauge-fixable sector")

    model = _tree_model(group, lx, ly, boundary, matter, basis)
    ref = physical_basis_by_average_product(model, sector=sector)
    monkeypatch.setattr(lm, "_gauss_penalty", no_penalty)
    cols = physical_basis(model, sector=sector)
    assert cols.shape == ref.shape
    assert cols.dtype == ref.dtype
    assert np.abs(cols.conj().T @ cols - np.eye(cols.shape[1])).max(initial=0.0) < 1e-12
    assert _projector_gap(cols, ref) <= 1e-12


def test_two_doublets_take_the_penalty_route(monkeypatch):
    # D3 2x2 pure gauge with doublets at vertices 0 and 3: W has no charged
    # form for a second multi-dimensional irrep, so the penalty builds the sector
    import fockgauge.lattice_model as lm

    def no_slice(*args, **kwargs):
        raise AssertionError("gauge-fixed slice built for two doublets")

    calls = []
    penalty = lm._gauss_penalty
    monkeypatch.setattr(lm, "_gauss_penalty", lambda *args: calls.append(args) or penalty(*args))
    monkeypatch.setattr(lm, "_gauge_fixed", no_slice)
    model = _tree_model("D3", 2, 2, "open", False, "group")
    sector = {0: "2", 3: "2"}
    cols = physical_basis(model, sector=sector)
    ref = physical_basis_by_average_product(model, sector=sector)
    assert len(calls) == 1
    assert cols.shape == ref.shape and cols.shape[1] > 0
    assert _projector_gap(cols, ref) <= 1e-12


def test_gauge_fixed_basis_over_the_cap_raises_before_any_slice_work(monkeypatch):
    # L1 (dim 331 776): the same dense-cap message, before the slice or the
    # penalty is touched
    import fockgauge.lattice_model as lm

    def no_work(*args, **kwargs):
        raise AssertionError("sector work above the dense cap")

    for name in ("_gauge_fixed", "_gauss_penalty", "_sector_labels"):
        monkeypatch.setattr(lm, name, no_work)
    with pytest.raises(ValueError, match="^dense sector basis limited to dim 4096, got 331776$"):
        physical_basis(_tree_model("D3", 2, 2, "open", True, "group"))
