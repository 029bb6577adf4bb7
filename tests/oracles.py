"""Independent slow constructions that the tests compare the library against.

None of these is used by the library itself: each rebuilds a quantity by
another route (a matrix exponential, a sampled nullspace, scalar digit
arithmetic, scipy Kronecker products, whole-matrix formulas, Lanczos with
full reorthogonalization, full-space sums over generators, plaquettes and
links, the product of the vertex averages, a running sum of whole placed
blocks, a transposed copy of the values, link hops as whole Kronecker
chains, a hop spread by Kronecker products, H as the sum of whole term
blocks) so that a test can check the production construction.
"""

import math
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import matmul

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, expm, logm
from scipy.sparse.csgraph import connected_components

from fockgauge import verification
from fockgauge.clebsch_gordan import (
    LIE_SAMPLE_COUNT,
    LIE_SAMPLE_SEED,
    CGTensor,
    MultiplicityError,
    _fix_phase,
)
from fockgauge.group_core import GroupCatalogEntry
from fockgauge.lattice_model import (GROUP, REP, SECTOR_TOL, _TERMS, GlobalBasis, Model, _place,
                                     _plaquette_block, _real, _sum_blocks, _sum_on_span,
                                     gauss_generators, hamiltonian_terms, observable,
                                     vertex_sector_average)
from fockgauge.link_space import projector_rep, theta_group_basis
from fockgauge.matter_space import VertexFock, _fundamental, annihilation_matrix, bilinear
from fockgauge.operators import (Operator, _row_slices, _row_view, max_abs, normalize,
                                  real_if_close)
from fockgauge.spectra import (LANCZOS_MAX_ITER, LANCZOS_TOL, RITZ_CHECK_EVERY,
                               _Counts, _project_out, _Rows, expectation)

NUMERIC_SAMPLE_COUNT = 24   # rotations stacked by cg_numeric


def theta_q_exponential(space: VertexFock, entry: GroupCatalogEntry, g) -> Operator:
    """The matter transformation theta_q through exp(i psi^dag q psi), q = -i log D(g).

    The principal logarithm is ambiguous when D(g) has an eigenphase at pi,
    so this is an oracle only where the eigenphases stay away from it.
    """
    dmat = _fundamental(space, entry).matrix(g)
    q = -1j * logm(np.asarray(dmat, dtype=complex))
    exponent = bilinear(space, q).toarray()
    det_phase = np.linalg.det(dmat).conj() ** space.parity
    return Operator(space, sp.csr_matrix(expm(1j * exponent) * det_phase))


def cg_numeric(entry: GroupCatalogEntry, J: str, j: str, K: str) -> CGTensor:
    """Coefficients from the invariance constraints at sampled rotations.

    Independent construction used to cross-check the closed forms: stack the
    linear conditions (D^{J(x)j}(g) (x) 1 - 1 (x) D^K(g)^T) vec(A) = 0 for
    seeded random group elements and take the nullspace by SVD.  Only valid
    for multiplicity-free channels (one-dimensional nullspace).
    """
    ir_J, ir_j, ir_K = entry.irrep(J), entry.irrep(j), entry.irrep(K)
    rows = ir_J.dim * ir_j.dim
    blocks = []
    for g in entry.elements(NUMERIC_SAMPLE_COUNT, LIE_SAMPLE_SEED):
        big = np.kron(ir_J.matrix(g), ir_j.matrix(g))
        blocks.append(np.kron(big, np.eye(ir_K.dim)) -
                      np.kron(np.eye(rows), ir_K.matrix(g).T))
    system = np.vstack(blocks)
    _, svals, vh = np.linalg.svd(system)
    null_dim = int(np.sum(svals < 1e-8 * svals[0]))
    if system.shape[0] < system.shape[1]:
        null_dim += system.shape[1] - system.shape[0]
    if null_dim != 1:
        raise MultiplicityError(
            f"nullspace dimension {null_dim} for {J} (x) {j} -> {K}")
    vec = vh[-1].conj()
    a = vec.reshape(rows, ir_K.dim)
    a /= np.sqrt((np.trace(a.conj().T @ a) / ir_K.dim).real)
    tensor = CGTensor(J=J, j=j, K=K, coeffs=a.reshape(ir_J.dim, ir_j.dim, ir_K.dim))
    _fix_phase(tensor.coeffs)
    return tensor


def _worst(values) -> float:
    """The largest of ``values``, NaN when any is NaN (the builtin max keeps a
    NaN only when it comes first)."""
    return float(np.max(np.array(list(values), dtype=float), initial=0.0))


def group_laws_by_loops(entry: GroupCatalogEntry, tensors=()) -> dict:
    """validate's residuals by check name, in validate's order, and under
    ``cg.intertwiner <J>x<j>-><K>`` verify_cg's residual of each CGTensor in
    ``tensors``: every law one irrep, irrep pair, table row, element, element
    pair, conjugating element or generator pair at a time.  Associativity
    takes every triple, as validate does up to EXHAUSTIVE_ASSOCIATIVITY_LIMIT."""
    out = {}
    irreps = entry.irreps
    if entry.is_lie:
        out["generators.hermitian"] = _worst(max_abs(t - t.conj().T)
                                             for ir in irreps for t in ir.generators)
        if entry.lie_kind == "su2":
            eps = np.zeros((3, 3, 3))
            for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                eps[a, b, c], eps[b, a, c] = 1.0, -1.0
            out["su2.algebra_structure_constants"] = _worst(
                max_abs(t[a] @ t[b] - t[b] @ t[a]
                        - 1j * sum(eps[a, b, c] * t[c] for c in range(3)))
                for t in (ir.generators for ir in irreps) for a in range(3) for b in range(3))
            out["su2.casimir_diagonal"] = _worst(
                max_abs(sum(x @ x for x in ir.generators) - ir.casimir * np.eye(ir.dim))
                for ir in irreps)
            two_js = sorted(int(2 * Fraction(ir.label)) for ir in irreps)
            out["su2.representation_series_complete"] = float(two_js != list(range(len(two_js))))
        else:
            p_max = int(entry.cutoff)
            out["u1.charge_series_complete"] = float(
                sorted(int(ir.label) for ir in irreps) != list(range(-p_max, p_max + 1)))
            out["u1.generator_is_charge"] = _worst(max_abs(ir.generators[0] - float(ir.label))
                                                   for ir in irreps)
        out["fundamental.present"] = float(not entry.has_irrep(entry.fundamental))
    else:
        _finite_group_laws_by_loops(entry, out)
    for tensor in tensors:
        a = tensor.matrix()
        ir_J, ir_j, ir_K = (entry.irrep(label) for label in (tensor.J, tensor.j, tensor.K))
        out[f"cg.intertwiner {tensor.J}x{tensor.j}->{tensor.K}"] = _worst(
            max_abs(np.kron(ir_J.matrix(g), ir_j.matrix(g)) @ a - a @ ir_K.matrix(g))
            for g in entry.elements(LIE_SAMPLE_COUNT, LIE_SAMPLE_SEED))
    return out


def _finite_group_laws_by_loops(entry: GroupCatalogEntry, out: dict):
    spec, irreps = entry.spec, entry.irreps
    mul, order, e = spec.mul, spec.order, spec.identity
    elements = range(order)
    if mul.min() < 0 or mul.max() >= order:
        latin = sum(not 0 <= x < order for x in mul.ravel())
    else:
        full = set(elements)
        latin = sum((set(mul[i]) != full) + (set(mul[:, i]) != full) for i in elements)
    out["mul.latin_square"] = float(latin)
    out["mul.associative"] = float(sum(
        mul[mul[a, b], c] != mul[a, mul[b, c]] for a, b, c in product(elements, repeat=3))
        if latin == 0 else 1)
    out["mul.identity"] = float(sum((mul[e, g] != g) + (mul[g, e] != g) for g in elements))
    inverse_known = all(spec.inv >= 0)
    out["mul.inverse"] = float(sum(mul[g, spec.inv[g]] != e if inverse_known
                                   else spec.inv[g] < 0 for g in elements))
    out["classes.closed_under_conjugation"] = float(sum(
        spec.class_of[mul[mul[spec.inv[h], g], h]] != spec.class_of[g]
        for h in elements for g in elements) if inverse_known and mul.max() < order else 1)
    if latin or out["mul.inverse"]:
        return

    out["irreps.identity_matrix"] = _worst(max_abs(ir.matrices[e] - np.eye(ir.dim))
                                           for ir in irreps)
    out["irreps.unitary"] = _worst(max_abs(d.conj().T @ d - np.eye(ir.dim))
                                   for ir in irreps for d in ir.matrices)
    out["irreps.inverse_is_dagger"] = _worst(
        max_abs(ir.matrices[spec.inv[g]] - ir.matrices[g].conj().T)
        for ir in irreps for g in elements)
    out["irreps.homomorphism"] = _worst(
        max_abs(ir.matrices[g] @ ir.matrices[h] - ir.matrices[mul[g, h]])
        for ir in irreps for g in elements for h in elements)
    out["irreps.dim_sum_equals_order"] = float(abs(sum(ir.dim ** 2 for ir in irreps) - order))
    pairs = []
    for ir1, ir2 in product(irreps, repeat=2):
        s = np.einsum("gab,gcd->abcd", ir1.matrices, ir2.matrices.conj()) / order
        if ir1 is ir2:
            s -= np.einsum("ac,bd->abcd", np.eye(ir1.dim), np.eye(ir1.dim)) / ir1.dim
        pairs.append(max_abs(s))
    out["irreps.great_orthogonality"] = _worst(pairs)
    fund = entry.fundamental_irrep.matrices
    out["fundamental.faithful"] = float(sum(np.abs(fund[g] - fund[h]).max() < 1e-6
                                            for g in elements for h in range(g + 1, order)))
    regular = {}
    for g in elements:   # the first member of each class stands for it
        regular.setdefault(spec.class_of[g], sum(ir.dim * np.trace(ir.matrices[g])
                                                 for ir in irreps))
    out["characters.regular_representation"] = _worst(
        abs(value - (order if c == spec.class_of[e] else 0)) for c, value in regular.items())


def decode(basis: GlobalBasis, index: int) -> list[int]:
    """The mixed-radix digits of one global index, factor 0 first."""
    return [(index // s) % d for s, d in zip(basis.strides, basis.factor_dims)]


def digit_array(basis: GlobalBasis, factor: int) -> np.ndarray:
    """The digit of every global index at one factor, vectorized."""
    idx = np.arange(basis.dim)
    return (idx // basis.strides[factor]) % basis.factor_dims[factor]


def basis_agreement_dense(model: Model, names) -> float:
    """max |converted - H| between the two link bases through the global Fourier
    unitary, formed densely as the kron of every link's Fourier matrix."""
    mirror = Model(model.entry, model.lattice, model.params,
                   GROUP if model.basis_tag == REP else REP)
    gb = model.global_basis
    h_here, h_there = (
        sum((observable(m, f"{name}_energy").matrix for name in names),
            sp.csr_matrix((gb.dim, gb.dim), dtype=complex))
        for m in (model, mirror))
    f_global = _place(gb.factor_dims, *_sum_on_span(gb.factor_dims, [
        {gb.link_factor(link.index): [sp.csr_matrix(model.link_space.fourier)]
         for link in model.lattice.links}]))
    # rep_op = F^dag group_op F
    if model.basis_tag == REP:
        converted = f_global.conj().T @ h_there @ f_global
    else:
        converted = f_global @ h_there @ f_global.conj().T
    return max_abs(converted - h_here)


def place_by_kron(dims, lo: int, hi: int, local: sp.spmatrix) -> sp.csr_matrix:
    """A block on factors [lo, hi) of ``dims`` padded by scipy Kronecker
    products with complex identities, through COO, always complex."""
    before, after = math.prod(dims[:lo]), math.prod(dims[hi:])
    if before > 1:
        local = sp.kron(sp.identity(before, dtype=complex, format="csr"), local, format="csr")
    if after > 1:
        local = sp.kron(local, sp.identity(after, dtype=complex, format="csr"), format="csr")
    return local.astype(complex, copy=False)


def vertex_block_by_kron(model: Model, matrix: sp.spmatrix, vertex: int) -> sp.csr_matrix:
    """A vertex Fock matrix over the fermion factor as I_after (x) (M (x) I_before),
    nested scipy Kronecker products with complex identities."""
    gb = model.global_basis
    mm = gb.modes_per_vertex
    before = sp.identity(1 << (mm * vertex), dtype=complex, format="csr")
    after = sp.identity(1 << (mm * (gb.n_vertices - vertex - 1)), dtype=complex, format="csr")
    return sp.kron(after, sp.kron(sp.csr_matrix(matrix), before), format="csr")


def gauss_casimir_by_generators(model: Model) -> Operator:
    """sum over vertices and components of G_a^2, each full-space generator
    from ``gauss_generators`` squared, summed in order from a zero start."""
    gb = model.global_basis
    return Operator(gb, sum((g_a.matrix @ g_a.matrix
                             for v in range(model.lattice.n_vertices)
                             for g_a in gauss_generators(model, v)),
                            sp.csr_matrix((gb.dim, gb.dim), dtype=complex)))


def physical_basis_by_average_product(model: Model, sector=None) -> np.ndarray:
    """Columns spanning a finite group's Gauss sector from the product of the
    placed vertex averages: one connected component of the union of their
    sparsity patterns at a time, each block the product of the averages'
    blocks, symmetrized, its eigenvectors at eigenvalue 1 kept."""
    sector = sector or {}
    trivial = model.entry.trivial_label()
    averages = [real_if_close(vertex_sector_average(model, v, sector.get(v, trivial)).matrix)
                for v in range(model.lattice.n_vertices)]
    graph = sum(abs(a) for a in averages)
    n_comp, labels = connected_components(graph, directed=False)
    dim = model.global_basis.dim
    cols = [np.zeros((dim, 0), dtype=np.result_type(*(a.dtype for a in averages)))]
    for c in range(n_comp):
        rows = np.flatnonzero(labels == c)
        block = reduce(matmul, (a[rows][:, rows] for a in averages)).toarray()
        vals, vecs = np.linalg.eigh((block + block.conj().T) / 2.0)
        keep = np.abs(vals - 1.0) <= SECTOR_TOL
        found = np.zeros((dim, keep.sum()), dtype=cols[0].dtype)
        found[rows] = vecs[:, keep]
        cols.append(found)
    return np.hstack(cols)


def observables_by_loops(model: Model, names, state: np.ndarray) -> dict:
    """Command-line observables summed outside the operator: <term> from every
    term placed at once, the mean over plaquettes of <(W + W^dag)/2> and the
    mean over links of <P_trivial>, one full-space operator each, placed by
    scipy Kronecker products."""
    values, terms = {}, hamiltonian_terms(model)
    dims = model.global_basis.factor_dims
    for name in names:
        if name.endswith("_energy"):
            values[name] = expectation(terms[name.removesuffix("_energy")], state).value
        elif name == "plaquette_trace":
            acc = 0.0
            for plaq in model.lattice.plaquettes:
                w = place_by_kron(dims, *_plaquette_block(model, plaq))
                acc += expectation(0.5 * (w + w.conj().T), state).value
            values[name] = acc / len(model.lattice.plaquettes)
        else:
            proj = projector_rep(model.link_space, model.entry.trivial_label()
                                 ).to_basis(model.basis_tag)
            acc = 0.0
            for link in model.lattice.links:
                k = model.global_basis.link_factor(link.index)
                acc += expectation(place_by_kron(dims, k, k + 1, proj.matrix), state).value
            values[name] = acc / max(model.lattice.n_links, 1)
    return values


def link_identities_by_loops(model: Model, seed: int) -> dict:
    """verification's theta.*, u.* and matter.* residuals (all but the SU(2)
    trace defect), one element or element pair, entry U^j_mn and mode pair at
    a time.  The builders are read from verification's namespace, so a fault
    a test injects there reaches both."""
    space, entry = model.link_space, model.entry

    def dense(ops):
        return [op.toarray() for op in ops]

    def unitary(mats):
        return max(max_abs(m @ m.conj().T - np.eye(len(m))) for m in mats)

    def group_law(mats):
        spec = entry.spec
        return max(max_abs(mats[g] @ mats[h] - mats[spec.mul[g, h]])
                   for g in range(spec.order) for h in range(spec.order))

    out = {}
    elements = entry.elements(verification.COVARIANCE_SAMPLES, seed)
    lefts = dense(verification.theta_left(space, g) for g in elements)
    rights = dense(verification.theta_right(space, g) for g in elements)
    out["theta.unitary"] = max(unitary(lefts), unitary(rights))
    out["theta.left_right_commute"] = max(max_abs(tl @ tr - tr @ tl)
                                          for tl in lefts for tr in rights)
    f = space.fourier
    if entry.is_lie:
        left, right = map(dense, verification.link_generators(space))
        out["theta.casimir_left_equals_right"] = max_abs(sum(x @ x for x in left)
                                                         - sum(x @ x for x in right))
    else:
        out["theta.group_law"] = max(group_law(lefts), group_law(rights))
        out["theta.fourier_to_translations"] = max(
            max_abs(f @ m @ f.conj().T - theta_group_basis(space, g, side).toarray())
            for side, mats in (("L", lefts), ("R", rights)) for g, m in zip(elements, mats))

    u_op = verification.u_matrix(space, model.magnetic_rep, REP)
    entries = list(product(range(u_op.dim), repeat=2))
    u = {mn: u_op.entry(*mn).toarray() for mn in entries}
    dmats = entry.irrep(model.magnetic_rep)
    cov = 0.0
    for g in entry.elements(verification.COVARIANCE_SAMPLES, seed + 1):
        d = dmats.matrix(g)
        tl, tr = (side(space, g).toarray()
                  for side in (verification.theta_left, verification.theta_right))
        for m, n in entries:
            rhs_r = sum(u[m, k] * d[k, n] for k in range(u_op.dim))
            rhs_l = sum(d.conj()[k, m] * u[k, n] for k in range(u_op.dim))
            cov = max(cov, max_abs(tr @ u[m, n] @ tr.conj().T - rhs_r),
                      max_abs(tl @ u[m, n] @ tl.conj().T - rhs_l))
    out["u.covariance"] = cov
    if entry.is_lie:
        out["u.generator_commutators"] = max(
            max(max_abs(l_a @ u[m, n] - u[m, n] @ l_a
                        + sum(t[m, k] * u[k, n] for k in range(u_op.dim))),
                max_abs(r_a @ u[m, n] - u[m, n] @ r_a
                        - sum(u[m, k] * t[k, n] for k in range(u_op.dim))))
            for t, l_a, r_a in zip(dmats.generators, left, right) for m, n in entries)
    else:
        u_grp = verification.u_matrix(space, model.magnetic_rep, GROUP)
        out["u.unitarity"] = max(
            max_abs(sum(u[m, k] @ u[n, k].conj().T for k in range(u_op.dim))
                    - (m == n) * np.eye(space.dim)) for m, n in entries)
        out["u.rep_group_basis_agreement"] = max(
            max_abs(f @ u[m, n] @ f.conj().T - u_grp.entry(m, n).toarray())
            for m, n in entries)
    if not model.lattice.include_matter:
        return out

    n_modes = entry.fundamental_irrep.dim
    ops = [annihilation_matrix(n_modes, a).toarray() for a in range(n_modes)]
    out["matter.anticommutation"] = max(
        max(max_abs(ops[a] @ ops[b] + ops[b] @ ops[a]),
            max_abs(ops[a] @ ops[b].conj().T + ops[b].conj().T @ ops[a]
                    - (a == b) * np.eye(1 << n_modes)))
        for a, b in product(range(n_modes), repeat=2))
    elements = entry.elements(verification.COVARIANCE_SAMPLES, seed + 2)
    for parity in (0, 1):
        vf = VertexFock(n_modes, parity)
        thetas = dense(verification.theta_q(vf, entry, g) for g in elements)
        if not entry.is_lie:
            out[f"matter.theta_group_law_parity{parity}"] = group_law(thetas)
        out[f"matter.theta_unitary_parity{parity}"] = unitary(thetas)
        prop2 = cov = 0.0
        for theta, g in zip(thetas, elements):
            d = entry.fundamental_irrep.matrix(g)
            det = np.linalg.det(d)
            prop2 = max(prop2, abs(theta[-1, -1] - det * det.conjugate() ** parity))
            for a in range(n_modes):
                cov = max(cov, max_abs(theta @ ops[a].conj().T @ theta.conj().T
                                       - sum(ops[b].conj().T * d[b, a] for b in range(n_modes))))
        out[f"matter.full_state_determinant_parity{parity}"] = prop2
        out[f"matter.covariance_parity{parity}"] = cov
    return out


def hermiticity_residual_whole(mat: sp.spmatrix) -> float:
    """max |M - M^dag| from the whole difference, conjugate transpose copied."""
    return max_abs(mat - mat.conj().T)


def hermiticity_residual_transposed_copy(mat: sp.spmatrix) -> float:
    """max |M - M^dag| one row slice at a time against one transposed CSR
    copy of M, values and all, conjugated slice by slice."""
    mat = sp.csr_matrix(mat)
    transposed = mat.T.tocsr()
    return max_abs([max_abs(_row_view(mat, lo, hi)
                            - _row_view(transposed, lo, hi).conj(copy=False))
                    for lo, hi in _row_slices(mat.indptr + transposed.indptr)])


def link_hops_by_kron(model: Model):
    """Each link's hop eps_l sum_ab psi^dag_(origin, a) U_ab psi_(target, b)
    (+ h.c.) as (lo, hi, local) on the factors from the fermion factor to the
    link's, links in index order: every (a, b) product a chain of scipy
    Kronecker products (complex identities on the links between), the
    products added row-major from 0, scaled by eps_l unless it is 1, and the
    h.c. added as a conjugated transposed copy."""
    gb = model.global_basis
    u, n, modes = model.u_tunneling, gb.n_fermion_modes, gb.modes_per_vertex
    for link in model.lattice.links:
        k = gb.link_factor(link.index)

        def chain(a, b):
            hop = (annihilation_matrix(n, link.origin * modes + a).conj().T
                   @ annihilation_matrix(n, link.target * modes + b))
            blocks = [hop, *(sp.identity(gb.factor_dims[f], dtype=complex, format="csr")
                             for f in range(1, k)), u.entry(a, b).matrix]
            return sp.csr_matrix(reduce(lambda x, y: sp.kron(x, y, format="csr"), blocks))

        local = sum(chain(a, b) for a in range(u.dim) for b in range(u.dim))
        if model.epsilon[link.index] != 1:
            local = model.epsilon[link.index] * local
        if model.params.include_hc:
            local = local + local.conj().T
        yield 0, k + 1, local


def spread_by_kron(p, fermions, mid):
    """P with I_mid between its two factors as the sum over its link digit
    pairs (x, y) of sp.kron(P_xy, I_mid, e_x e_y^T), taken on P's 1-based
    entry numbers, which are exact and never zero, then replaced by P's
    values: the structure of scipy's Kronecker products, each value copied."""
    link = p.shape[0] // fermions
    numbers = sp.csr_matrix((np.arange(1.0, p.nnz + 1), p.indices, p.indptr), shape=p.shape)
    dense = numbers.toarray().reshape(fermions, link, fermions, link)
    total = sp.csr_matrix((fermions * mid * link,) * 2)
    for x in range(link):
        for y in range(link):
            unit = sp.csr_matrix(([1.0], ([x], [y])), shape=(link, link))
            total = total + sp.kron(sp.kron(sp.csr_matrix(dense[:, x, :, y]), sp.identity(mid)),
                                    unit, format="csr")
    total.sort_indices()
    return sp.csr_matrix((p.data[total.data.astype(np.int64) - 1], total.indices, total.indptr),
                         shape=total.shape)


def sum_blocks_running(dims, lo: int, hi: int, blocks):
    """(lo, hi, local): the blocks placed whole on the factors [lo, hi) by
    scipy Kronecker products with complex identities (``place_by_kron``, a
    real local's placement taken by its real parts) and added one at a time
    to a running CSR sum from a float64 zero."""
    span = dims[lo:hi]
    zero = sp.csr_matrix((math.prod(span),) * 2)
    placed = ((place_by_kron(span, b_lo - lo, b_hi - lo, local), np.iscomplexobj(local))
              for b_lo, b_hi, local in blocks)
    return lo, hi, sum((p if is_complex else p.real for p, is_complex in placed), zero)


def hamiltonian_by_terms(model: Model) -> sp.csr_matrix:
    """H as ``_sum_blocks`` of every term's whole block on the full span, each
    through ``_real``: the tunneling term written whole, its links summed
    first (``_TERMS``), then added where it stands in model.terms; the sum
    normalized, as an Operator holds it."""
    dims = model.global_basis.factor_dims
    return normalize(_sum_blocks(dims, 0, len(dims),
                                 [_real(_TERMS[t](model)) for t in model.terms])[2])


def _full_reorth_run(mat, deflate, rng, tol, budget, counts):
    """One deflated Krylov run that reorthogonalizes every new vector against
    the whole basis and the deflation rows by two classical Gram-Schmidt
    passes; otherwise the run of ``spectra._deflated_run``."""
    dim = mat.shape[0]
    start = rng.standard_normal(dim)
    if np.iscomplexobj(mat):
        start = start + 1j * rng.standard_normal(dim)
    start = _project_out(start, deflate)
    nrm = np.linalg.norm(start)
    if nrm < 1e-12:
        return [], [], True
    basis = _Rows(dim, mat.dtype)
    basis.append(start / nrm)
    alphas, betas = [], []
    m_cap = min(dim - len(deflate), budget)
    for step in range(m_cap):
        q = basis.rows
        w = mat @ q[-1]
        counts.steps += 1
        if betas:
            w -= betas[-1] * q[-2]
        alpha = float(np.vdot(q[-1], w).real)
        w -= alpha * q[-1]
        for _ in range(2):
            w = _project_out(_project_out(w, q), deflate)
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        breakdown = beta < 1e-13
        if breakdown or step == m_cap - 1 or (step + 1) % RITZ_CHECK_EVERY == 0:
            ritz_vals, ritz_vecs = eigh_tridiagonal(np.asarray(alphas),
                                                    np.asarray(betas))
            order = np.argsort(ritz_vals)
            if not breakdown:
                unconverged = beta * np.abs(ritz_vecs[-1, order]) > tol
                if unconverged.any():
                    order = order[:np.argmax(unconverged)]
            candidates = ritz_vecs[:, order].T @ q
            vals = []
            for vec in candidates:
                vec = _project_out(_project_out(vec, deflate),
                                   candidates[:len(vals)])
                nv = np.linalg.norm(vec)
                if nv < 1e-8:
                    continue
                vec = vec / nv
                hvec = mat @ vec
                lam = float(np.vdot(vec, hvec).real)
                if np.linalg.norm(hvec - lam * vec) > tol:
                    break
                candidates[len(vals)] = vec
                vals.append(lam)
            if vals or breakdown:
                return vals, candidates[:len(vals)], False
        if breakdown:
            break
        betas.append(beta)
        basis.append(w / beta)
    return [], [], False


def lanczos_full_reorth(mat: sp.csr_matrix, k: int, *, seed: int,
                        tol: float = LANCZOS_TOL,
                        max_iter: int = LANCZOS_MAX_ITER):
    """The k lowest eigenpairs of ``mat`` by Lanczos with full
    reorthogonalization and the deflation restarts of ``eigensolve``, from
    the same seeded start vectors.  Returns (values, vectors as columns,
    counts); only ``counts.steps`` and ``counts.restarts`` are kept."""
    rng = np.random.default_rng(seed)
    accepted_vals = []
    accepted = _Rows(mat.shape[0], mat.dtype)
    counts = _Counts()
    while True:
        if counts.steps >= max_iter:
            raise RuntimeError(f"no {k} lowest eigenpairs within {max_iter} steps")
        vals, vecs, exhausted = _full_reorth_run(
            mat, accepted.rows, rng, tol, max_iter - counts.steps, counts)
        counts.restarts += 1
        if exhausted:
            break
        accepted_vals.extend(vals)
        for vec in vecs:
            accepted.append(vec)
        if vals and len(accepted_vals) >= k:
            if vals[0] >= np.sort(accepted_vals)[k - 1] - tol:
                break
    if len(accepted_vals) < k:
        raise RuntimeError(f"only {len(accepted_vals)} of {k} eigenpairs")
    order = np.argsort(accepted_vals)[:k]
    return np.asarray(accepted_vals)[order], accepted.rows[order].T, counts
