"""Independent slow constructions that the tests compare the library against.

None of these is used by the library itself: each rebuilds a quantity by
another route (a matrix exponential, a sampled nullspace, scalar digit
arithmetic, scipy Kronecker products) so that a test can check the production construction.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm, logm

from fockgauge.clebsch_gordan import (
    LIE_SAMPLE_SEED,
    CGTensor,
    MultiplicityError,
    _fix_phase,
)
from fockgauge.group_core import GroupCatalogEntry
from fockgauge.lattice_model import (GROUP, REP, GlobalBasis, Model, _embed_factors,
                                     hamiltonian_terms)
from fockgauge.matter_space import VertexFock, _resolve_dmatrix, bilinear
from fockgauge.operators import Operator, max_abs

NUMERIC_SAMPLE_COUNT = 24   # rotations stacked by cg_numeric


def theta_q_exponential(space: VertexFock, entry: GroupCatalogEntry, g) -> Operator:
    """The matter transformation theta_q through exp(i psi^dag q psi), q = -i log D(g).

    The principal logarithm is ambiguous when D(g) has an eigenphase at pi,
    so this is an oracle only where the eigenphases stay away from it.
    """
    dmat = _resolve_dmatrix(space, entry, g)
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
        sum((t.matrix for t in hamiltonian_terms(m, names=names).values()),
            sp.csr_matrix((gb.dim, gb.dim), dtype=complex))
        for m in (model, mirror))
    f_global = _embed_factors(gb, {gb.link_factor(link.index):
                                   [sp.csr_matrix(model.link_space.fourier)]
                                   for link in model.lattice.links})
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
