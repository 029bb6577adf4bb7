"""Oracles for the placement of local pieces.

Every term is built as a sum of per-factor products formed on the span of
the factors they touch and padded with identities once.  The references
here place each product on the full space and sum there, in the same
order, and the group-basis plaquette is also checked against its closed
form in characters of the plaquette holonomy.
"""

import math
from functools import reduce
from itertools import product

import numpy as np
import pytest
import scipy.sparse as sp

from fockgauge import lattice_model as lm
from fockgauge.group_core import build_builtin, character_table
from fockgauge.lattice_model import (
    LatticeSpec,
    Model,
    ModelParams,
    OBSERVABLE_NAMES,
    build_hamiltonian,
    gauss_generators,
    gauss_operator,
    hamiltonian_terms,
    observable,
    vacuum_state,
    vertex_sector_average,
)
from fockgauge.link_space import generators as link_generators
from fockgauge.link_space import identity_operator, projector_rep
from fockgauge.matter_space import charges as matter_charges
from fockgauge.matter_space import number_operator, theta_q
from fockgauge.operators import Operator, matvec, real_if_close
from fockgauge.spectra import eigensolve, expectation
from oracles import (digit_array, gauss_casimir_by_generators, observables_by_loops,
                     place_by_kron, vertex_block_by_kron)


def _identity(dim):
    return sp.identity(dim, dtype=complex, format="csr")


def _full_kron(gb, ops):
    """One product placed on the full space: a kron over every factor."""
    blocks, pending = [], 1
    for factor, dim in enumerate(gb.factor_dims):
        if factor not in ops:
            pending *= dim
            continue
        if pending > 1:
            blocks.append(_identity(pending))
            pending = 1
        blocks.append(reduce(lambda a, b: a @ b, ops[factor]))
    if pending > 1 or not blocks:
        blocks.append(_identity(pending))
    return sp.csr_matrix(reduce(lambda a, b: sp.kron(a, b, format="csr"), blocks))


def _zero(gb):
    return sp.csr_matrix((gb.dim, gb.dim), dtype=complex)


def _plus_hc(model, mat):
    return mat + mat.conj().T if model.params.include_hc else mat


def _ref_mass(model):
    gb = model.global_basis
    ferm = sum(model.mass_at(v) * lm._vertex_block(model, number_operator(space).matrix, v)
               for v, space in enumerate(model.vertex_spaces))
    return _full_kron(gb, {gb.fermion_factor: [ferm]})


def _ref_tunneling(model):
    gb = model.global_basis
    u = model.u_tunneling
    total = _zero(gb)
    for link in model.lattice.links:
        hop = model.epsilon[link.index] * sum(
            _full_kron(gb, {
                gb.fermion_factor: [lm._hop(model, link.origin, a, link.target, b)],
                gb.link_factor(link.index): [u.entry(a, b).matrix]})
            for a in range(u.dim) for b in range(u.dim))
        total = total + _plus_hc(model, hop)
    return total


def _ref_electric(model):
    gb = model.global_basis
    g2 = model.params.coupling ** 2
    link_op = sum(
        ((g2 / 2.0 * w)
         * projector_rep(model.link_space, label).to_basis(model.basis_tag)
         for label, w in model.electric_weights().items()),
        0 * identity_operator(model.link_space, model.basis_tag))
    return sum((_full_kron(gb, {gb.link_factor(link.index): [link_op.matrix]})
                for link in model.lattice.links), _zero(gb))


def _ref_trace(model, plaq):
    gb = model.global_basis
    u = model.u_magnetic
    l1, l2, l3, l4 = plaq.links

    def loop(a, b, c, d):
        ops = {}
        for link_idx, mat in ((l1, u.entry(a, b).matrix),
                              (l2, u.entry(b, c).matrix),
                              (l3, u.dagger_entry(c, d).matrix),
                              (l4, u.dagger_entry(d, a).matrix)):
            ops.setdefault(gb.link_factor(link_idx), []).append(mat)
        return _full_kron(gb, ops)

    return sum(loop(*abcd) for abcd in product(range(u.dim), repeat=4))


def _ref_magnetic(model):
    pref = -1.0 / (2.0 * model.params.coupling ** 2)
    return sum((_plus_hc(model, pref * _ref_trace(model, plaq))
                for plaq in model.lattice.plaquettes), _zero(model.global_basis))


def _ref_generators(model, vertex):
    gb = model.global_basis
    left, right = link_generators(model.link_space)
    out = []
    for a in range(model.entry.n_generator_components):
        mats = [_full_kron(gb, {gb.link_factor(link.index):
                                [(left[a] if role == "out" else right[a]).matrix]})
                for link, role in model.lattice.links_at_vertex(vertex)]
        if model.lattice.include_matter:
            q = matter_charges(model.vertex_spaces[vertex], model.entry)[a]
            mats.append(_full_kron(gb, {gb.fermion_factor: [
                lm._vertex_block(model, q.matrix, vertex)]}))
        out.append(sum(mats, _zero(gb)))
    return out


_REFERENCES = {"mass": _ref_mass, "tunneling": _ref_tunneling,
               "electric": _ref_electric, "magnetic": _ref_magnetic}


def _assert_bit_identical(got, ref, what, signed_zeros=True):
    got, ref = sp.csr_matrix(got), sp.csr_matrix(ref)
    assert got.dtype == ref.dtype, what
    assert got.indptr.tobytes() == ref.indptr.tobytes(), what
    assert got.indices.tobytes() == ref.indices.tobytes(), what
    if signed_zeros:
        assert got.data.tobytes() == ref.data.tobytes(), what
    else:
        assert np.array_equal(got.data, ref.data), what


def _z2_matter(basis):
    lat = LatticeSpec(3, 2, boundary="open", include_matter=True)
    eps = [0.7 + 0.1j * k for k in range(lat.n_links)]
    return Model(build_builtin("Z_2"), lat,
                 ModelParams(mass=0.8, epsilon=eps, coupling=1.3), basis_tag=basis)


def _u1_pure():
    lat = LatticeSpec(3, 2, boundary="open", include_matter=False)
    return Model(build_builtin("U1_trunc", P=1), lat, ModelParams(coupling=1.3))


@pytest.mark.parametrize("make_model", [lambda: _z2_matter("group"),
                                        lambda: _z2_matter("rep"), _u1_pure],
                         ids=["z2-group", "z2-rep", "u1-pure"])
def test_terms_match_full_space_placement_bit_for_bit(make_model):
    model = make_model()
    gb = model.global_basis
    # the spans have gaps: plaquette (0, 0) runs over links 0, 1, 3 and 5
    assert sorted(model.lattice.plaquettes[0].links) == [0, 1, 3, 5]
    terms = hamiltonian_terms(model)
    assert set(terms) == set(model.terms)
    for name, term in terms.items():
        _assert_bit_identical(term.matrix, _REFERENCES[name](model), name)
    for plaq in model.lattice.plaquettes:
        _assert_bit_identical(lm._operator(model, lm._plaquette_block(model, plaq)).matrix,
                              _ref_trace(model, plaq), f"plaquette {plaq.index}")
    if model.entry.is_lie:
        # the reference sum starts at an explicit zero, which turns a -0.0
        # imaginary part into +0.0, so the generators agree in value only
        for v in range(gb.n_vertices):
            for a, (got, ref) in enumerate(zip(gauss_generators(model, v),
                                               _ref_generators(model, v))):
                _assert_bit_identical(got.matrix, ref, f"G_{a} at vertex {v}",
                                      signed_zeros=False)


def _d3_periodic():
    # 2x1 periodic pure gauge: the plaquette passes link 0 twice
    lat = LatticeSpec(2, 1, boundary="periodic", include_matter=False)
    return Model(build_builtin("D3"), lat,
                 ModelParams(coupling=1.3, electric_weights={"I": 0.0, "p": 1.0, "2": 1.0}),
                 basis_tag="group")


@pytest.mark.parametrize("make_model", [lambda: _z2_matter("group"),
                                        lambda: _z2_matter("rep"), _u1_pure, _d3_periodic],
                         ids=["z2-group", "z2-rep", "u1-pure", "d3-periodic"])
def test_builders_return_blocks_and_vertex_averages_match_full_space(make_model):
    model = make_model()
    gb = model.global_basis
    dims = gb.factor_dims
    for name in model.terms:
        lo, hi, local = lm._TERMS[name](model)
        assert 0 <= lo <= hi <= len(dims), name
        assert sp.issparse(local) and local.shape == (math.prod(dims[lo:hi]),) * 2, name
    if model.entry.is_lie:
        return
    spec = model.entry.spec
    for v in range(gb.n_vertices):
        for ir in model.entry.irreps:
            # an Operator, as the library returns it: entries <= DROP_TOL dropped
            ref = Operator(gb, sum(((ir.dim / spec.order) * ir.characters[g].conjugate()
                                    * gauss_operator(model, v, g).matrix
                                    for g in range(spec.order)), _zero(gb)))
            _assert_bit_identical(vertex_sector_average(model, v, ir.label).matrix, ref.matrix,
                                  f"vertex {v}, sector {ir.label}")


def _closed_form_trace(model, plaq):
    """diag chi(class(g1 g2 g3^-1 g4^-1)) over the group-basis digits."""
    gb = model.global_basis
    spec = model.entry.spec
    chi = character_table(model.entry).chi[
        [ir.label for ir in model.entry.irreps].index(model.magnetic_rep)]
    d1, d2, d3, d4 = (digit_array(gb, gb.link_factor(l)) for l in plaq.links)
    hol = spec.mul[spec.mul[d1, d2], spec.mul[spec.inv[d3], spec.inv[d4]]]
    return sp.diags(chi[spec.class_of[hol]].astype(complex), format="csr")


def _closed_form_magnetic(model):
    pref = -1.0 / (2.0 * model.params.coupling ** 2)
    total = _zero(model.global_basis)
    for plaq in model.lattice.plaquettes:
        piece = pref * _closed_form_trace(model, plaq)
        total = total + piece + piece.conj().T
    return total


def _assert_same_sparsity_close(got, ref, what):
    got, ref = sp.csr_matrix(got), sp.csr_matrix(ref)
    assert np.array_equal(got.indptr, ref.indptr), what
    assert np.array_equal(got.indices, ref.indices), what
    assert np.abs(got.data - ref.data).max() <= 1e-14, what


@pytest.mark.parametrize("name,lx,ly,boundary,matter", [
    ("D3", 2, 2, "open", True),
    ("D3", 2, 1, "periodic", False),     # the plaquette passes link 0 twice
    ("Z_3", 1, 1, "periodic", False),    # both links twice
])
def test_group_basis_plaquette_matches_character_closed_form(name, lx, ly, boundary,
                                                            matter):
    lat = LatticeSpec(lx, ly, boundary=boundary, include_matter=matter)
    model = Model(build_builtin(name), lat,
                  ModelParams(mass=1.0, epsilon=0.7, coupling=1.3, terms=("magnetic",)),
                  basis_tag="group")
    assert lat.plaquettes
    magnetic = hamiltonian_terms(model)["magnetic"].matrix
    _assert_same_sparsity_close(magnetic, _closed_form_magnetic(model), "magnetic")
    for plaq in lat.plaquettes:
        _assert_same_sparsity_close(lm._operator(model, lm._plaquette_block(model, plaq)).matrix,
                                    _closed_form_trace(model, plaq), plaq.index)


def test_embed_factors_sums_pieces_on_their_span():
    # a coefficient and the h.c. applied on the span equal the full-space sum
    model = _z2_matter("rep")
    gb = model.global_basis
    u = model.u_magnetic.entry(0, 0).matrix
    x = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    pieces = [{gb.link_factor(1): [u, x]}, {gb.link_factor(4): [x]}]
    dims = gb.factor_dims
    got = lm._place(dims, *lm._sum_on_span(dims, pieces, 0.5j, hc=True))
    full = 0.5j * (_full_kron(gb, pieces[0]) + _full_kron(gb, pieces[1]))
    assert abs(got - (full + full.conj().T)).max() == 0
    assert lm._place(dims, *lm._sum_on_span(dims, [])).nnz == 0
    assert lm._place(dims, *lm._sum_on_span(dims, [{}])).nnz == gb.dim


def _local(n, kind, rng):
    """An n x n CSR local with explicit entries, zeros of either sign kept."""
    if kind == "empty":
        return sp.csr_matrix((n, n), dtype=complex)
    mask = np.ones((n, n), bool) if kind == "signed-zeros" else rng.random((n, n)) < 0.4
    nnz = int(mask.sum())
    if kind == "real":
        data = rng.standard_normal(nnz)
        data[::5] = -0.0
    elif kind == "complex":
        data = rng.standard_normal(nnz) + 1j * rng.standard_normal(nnz)
    else:
        # every sign pairing of zero and nonzero real and imaginary parts
        parts = np.array([-0.0, 0.0, 1.5, -2.0])
        data = np.empty(nnz, complex)
        data.real = np.resize(np.repeat(parts, 4), nnz)
        data.imag = np.resize(np.tile(parts, 4), nnz)
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    return sp.csr_matrix((data, np.nonzero(mask)[1], indptr), shape=(n, n))


@pytest.mark.parametrize("kind", ["real", "complex", "empty", "signed-zeros"])
@pytest.mark.parametrize("lo,hi", [(0, 2), (2, 4), (1, 3), (1, 2), (0, 4)],
                         ids=["lo=0", "hi=len", "both-sides", "one-factor", "no-padding"])
def test_place_matches_kron_with_complex_identities(lo, hi, kind):
    dims = [2, 5, 4, 3]
    local = _local(math.prod(dims[lo:hi]), kind, np.random.default_rng([lo, hi]))
    assert kind != "signed-zeros" or local.nnz >= 16
    got = lm._place(dims, lo, hi, local)
    ref = place_by_kron(dims, lo, hi, local)
    assert got.shape == ref.shape == (math.prod(dims),) * 2
    # a real local stays float64; its values are the reference's real parts
    # and the reference's imaginary parts are all +0.0
    assert got.dtype == (np.float64 if kind == "real" else np.complex128)
    assert got.indptr.dtype == got.indices.dtype == np.int32
    assert got.has_canonical_format
    _assert_bit_identical(got.astype(complex), ref, (lo, hi, kind))


def _one_a_row(n, rng):
    """An n x n CSR with one complex entry in each row, at a random column."""
    data = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return sp.csr_matrix((data, rng.integers(0, n, n), np.arange(n + 1)), shape=(n, n))


def _kron_chains():
    rng = np.random.default_rng(23)
    real, cplx, zeros = (_local(n, kind, rng) for n, kind in
                         [(4, "real"), (3, "complex"), (4, "signed-zeros")])
    i_real, i_cplx = sp.identity(3, format="csr"), sp.identity(5, dtype=complex, format="csr")
    return {
        "one-real": [real],
        "one-complex-rows": [_local(6, "complex", rng)[2:5]],
        # a factor with several entries a row before the last: sorted into row order
        "several-then-complex-identity": [cplx, i_cplx],
        "several-then-several": [real, cplx],
        # every factor but the last with at most one entry a row: CSR order as made
        "one-a-row-then-several": [_one_a_row(3, rng), real],
        "identity-rows-local-identity": [i_real[1:3], real, i_real],
        "complex-identities-around-real": [i_cplx[:2], real, i_cplx],
        "four-factors": [cplx, _one_a_row(2, rng), real, i_cplx],
        "signed-zeros": [zeros, i_cplx, zeros],
        "empty-factor": [cplx, _local(2, "empty", rng), real],
    }


@pytest.mark.parametrize("name", list(_kron_chains()))
def test_kron_chain_is_scipys_chain_of_krons_bit_for_bit(name):
    chain = _kron_chains()[name]
    got = lm._kron_chain(chain)
    ref = reduce(lambda a, b: sp.kron(a, b, format="csr"), chain)
    assert got.shape == ref.shape and got.dtype == ref.dtype
    if name == "empty-factor":
        assert got.nnz == 0 and got.dtype == np.float64
    assert got.indptr.dtype == got.indices.dtype == np.int32
    for part in ("indptr", "indices", "data"):
        mine, theirs = getattr(got, part), getattr(ref, part)
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes(), part


def _d3_matter_group(lx, boundary):
    lat = LatticeSpec(lx, 1, boundary=boundary, include_matter=True)
    return Model(build_builtin("D3"), lat,
                 ModelParams(mass=0.8, epsilon=0.7, coupling=1.3, staggered=False,
                             electric_weights={"I": 0.0, "p": 1.0, "2": 1.0}),
                 basis_tag="group")


@pytest.mark.parametrize("make_model", [
    lambda: _z2_matter("rep"),
    lambda: _d3_matter_group(2, "open"),
    lambda: _d3_matter_group(1, "periodic"),
], ids=["z2-complex-epsilon", "d3-group-real", "d3-group-plaquette"])
def test_hamiltonian_is_its_terms_summed_in_order(make_model):
    # the complex per-link epsilon keeps the sum complex; the D3 group-basis
    # models are real, so their terms are summed and handed out in float64,
    # equal to the complex reference's real parts with its imaginary parts
    # all zero.  On the 1x1 torus the plaquette block carries +-3e-17
    # diagonal entries that each term drops before the sum, as an Operator
    # would.
    model = make_model()
    gb = model.global_basis
    terms = hamiltonian_terms(model)
    assert tuple(terms) == model.terms
    ref = Operator(gb, sum((t.matrix for t in terms.values()), _zero(gb))).matrix
    del terms
    got = build_hamiltonian(model).matrix
    complex_epsilon = bool(model.epsilon.imag.any())
    assert got.dtype == (np.complex128 if complex_epsilon else np.float64)
    assert np.iscomplexobj(real_if_close(got)) == complex_epsilon
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert np.array_equal(got.data, ref.data)


def _d3_matter_periodic(basis):
    # D3 2x1 periodic with matter, unstaggered: four links and two
    # plaquettes (dim 16 * 6**4 = 20 736)
    lat = LatticeSpec(2, 1, boundary="periodic", include_matter=True)
    return Model(build_builtin("D3"), lat,
                 ModelParams(mass=0.8, epsilon=0.7, coupling=1.3, staggered=False,
                             electric_weights={"I": 0.0, "p": 1.0, "2": 1.0}),
                 basis_tag=basis)


def _z3_complex_epsilon():
    lat = LatticeSpec(3, 1, boundary="open", include_matter=True)
    return Model(build_builtin("Z_3"), lat,
                 ModelParams(mass=0.5, epsilon=[0.7 + 0.2j, -0.4 + 0.9j], coupling=1.1))


def _inputs(dim):
    """A vector and a C- and an F-ordered 3-column block, real and complex."""
    rng = np.random.default_rng(dim)
    for shape in [(dim,), (dim, 3)]:
        real = rng.standard_normal(shape)
        for x in (real, real + 1j * rng.standard_normal(shape)):
            yield x
            if x.ndim == 2:
                yield np.asfortranarray(x)


def _nbytes(mat):
    return mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes


@pytest.mark.parametrize("make_model", [
    lambda: _d3_matter_periodic("group"),
    lambda: _d3_matter_periodic("rep"),
    lambda: Model(build_builtin("SU2_trunc", j_max="1/2"),
                  LatticeSpec(2, 2, boundary="open", include_matter=True),
                  ModelParams(mass=1.0, epsilon=0.7, coupling=1.3)),
    lambda: Model(build_builtin("U1_trunc", P=1),
                  LatticeSpec(2, 2, boundary="open", include_matter=True),
                  ModelParams(mass=1.0, epsilon=0.7, coupling=1.3)),
    _z3_complex_epsilon,
    lambda: _d3_matter_group(1, "periodic"),
], ids=["d3-group", "d3-rep", "su2", "u1", "z3-complex-epsilon", "d3-torus"])
def test_hamiltonian_applies_its_pieces_as_its_matrix(make_model):
    # with matter, H applies the last link's hop, the mass and the other
    # hops on one span, and the gauge terms on the link factors
    model = make_model()
    ham = build_hamiltonian(model)
    assert len(ham.pieces) == 3
    for x in _inputs(ham.dim):
        got, ref = ham.apply(x), matvec(ham.matrix, x)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("basis", ["group", "rep"])
def test_hamiltonian_pieces_are_a_small_share_of_it(basis):
    # the link-only terms are kept once on the link factors, not once per
    # fermion state as in the assembled matrix
    ham = build_hamiltonian(_d3_matter_periodic(basis))
    assert sum(_nbytes(local) for _, local, _ in ham.pieces) <= 0.15 * _nbytes(ham.matrix)


@pytest.mark.parametrize("make_model", [
    lambda: Model(build_builtin("D3"), LatticeSpec(2, 2, boundary="open", include_matter=False),
                  ModelParams(coupling=1.3, electric_weights={"I": 0.0, "p": 1.0, "2": 1.0}),
                  basis_tag="group"),
    _u1_pure,
], ids=["d3", "u1"])
def test_pure_gauge_hamiltonian_applies_its_matrix(make_model):
    # without matter the link factors are the whole space: H is its own piece
    ham = build_hamiltonian(make_model())
    assert len(ham.pieces) == 1 and ham.pieces[0][1] is ham.matrix
    for x in _inputs(ham.dim):
        assert ham.apply(x).tobytes() == matvec(ham.matrix, x).tobytes()


@pytest.mark.parametrize("name,params", [("D3", {}), ("SU2_trunc", {"j_max": "1/2"})])
def test_vertex_block_matches_nested_kron(name, params):
    # D3 2x2 and SU(2) 2x2 with matter: the number operator, the matter
    # transformation of sampled elements and (Lie) every charge, at every vertex
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    model = Model(build_builtin(name, **params), lat, ModelParams())
    entry = model.entry
    for v, space in enumerate(model.vertex_spaces):
        mats = [number_operator(space).matrix]
        mats += [theta_q(space, entry, g).matrix for g in entry.elements(4, v)]
        if entry.is_lie:
            mats += [q.matrix for q in matter_charges(space, entry)]
        for k, mat in enumerate(mats):
            _assert_bit_identical(lm._vertex_block(model, mat, v),
                                  vertex_block_by_kron(model, mat, v), (v, k))


@pytest.mark.parametrize("name,params,lx,ly", [
    ("SU2_trunc", {"j_max": "1/2"}, 2, 1),
    ("U1_trunc", {"P": 1}, 2, 2),
])
def test_gauss_casimir_is_the_sum_of_squared_generators(name, params, lx, ly):
    lat = LatticeSpec(lx, ly, boundary="open", include_matter=True)
    model = Model(build_builtin(name, **params), lat,
                  ModelParams(mass=0.6, epsilon=0.9, coupling=1.1))
    _assert_bit_identical(lm._gauss_penalty(model).matrix,
                          gauss_casimir_by_generators(model).matrix, name)


@pytest.mark.parametrize("basis", ["group", "rep"])
def test_observables_match_the_per_plaquette_and_per_link_sums(basis):
    # D3 2x1 periodic with matter, unstaggered: two plaquettes, each passing
    # its x-link twice, four links (dim 16 * 6**4 = 20 736)
    lat = LatticeSpec(2, 1, boundary="periodic", include_matter=True)
    model = Model(build_builtin("D3"), lat,
                  ModelParams(mass=0.8, epsilon=0.7, coupling=1.3, staggered=False,
                              electric_weights={"I": 0.0, "p": 1.0, "2": 1.0}),
                  basis_tag=basis)
    assert len(lat.plaquettes) == 2 and set(model.terms) == set(lm._TERMS)
    ground = eigensolve(build_hamiltonian(model), k=1, seed=3).eigenvectors[:, 0]
    for state in (vacuum_state(model), ground):
        refs = observables_by_loops(model, OBSERVABLE_NAMES, state)
        for name in OBSERVABLE_NAMES:
            got = expectation(observable(model, name), state).value
            assert abs(got - refs[name]) <= 1e-12, (name, got, refs[name])
