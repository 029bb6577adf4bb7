"""Single-link Hilbert space and link-local operators.

A link carries one particle in one of the representation states |j m n>
(canonical ordering from group_core), or equivalently, for finite groups,
one of the group element states |g>.  The two bases are related by the
generalized Fourier transform, and every operator here can be built in
either basis and converted through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .clebsch_gordan import cg, decompose
from .group_core import GroupCatalogEntry, fourier_matrix, rep_basis_order
from .operators import GROUP, REP, BasisMismatchError, Operator


class LinkSpace:
    """Hilbert space of one link: |j m n> states, plus |g> for finite groups."""

    def __init__(self, catalog: GroupCatalogEntry):
        self.catalog = catalog
        self.rep_basis = rep_basis_order(catalog)
        self.dim = len(self.rep_basis)
        self.fourier = None if catalog.is_lie else fourier_matrix(catalog)
        self._block_start = {}
        offset = 0
        for ir in catalog.irreps:
            self._block_start[ir.label] = offset
            offset += ir.dim ** 2
        self.vacuum_index = self.rep_basis.index((catalog.trivial_label(), 0, 0))

    def block_slice(self, label: str) -> slice:
        start = self._block_start[label]
        return slice(start, start + self.catalog.irrep(label).dim ** 2)


def identity_operator(space: LinkSpace, basis_tag: str = REP) -> Operator:
    return Operator(space, sp.identity(space.dim, dtype=complex, format="csr"), basis_tag)


# ---------------------------------------------------------------------------
# transformation operators
# ---------------------------------------------------------------------------

def theta_left(space: LinkSpace, g) -> Operator:
    """Left transformation in the rep basis: D^{j*}(g) on the m index, blockwise.

    ``g`` is an element index for finite groups, or the angle vector of
    exp(i alpha . L) for Lie catalogs.
    """
    blocks = [np.kron(ir.matrix(g).conj(), np.eye(ir.dim))
              for ir in space.catalog.irreps]
    return Operator(space, sp.block_diag(blocks, format="csr"), REP)


def theta_right(space: LinkSpace, g) -> Operator:
    """Right transformation in the rep basis: D^j(g) on the n index, blockwise."""
    blocks = [np.kron(np.eye(ir.dim), ir.matrix(g))
              for ir in space.catalog.irreps]
    return Operator(space, sp.block_diag(blocks, format="csr"), REP)


def theta_group_basis(space: LinkSpace, g: int, side: str) -> Operator:
    """Translation permutations on |h>: left sends h -> g h, right h -> h g^-1."""
    if space.catalog.is_lie:
        raise BasisMismatchError("group element basis requires a finite group")
    spec = space.catalog.spec
    h = np.arange(spec.order)
    if side == "L":
        target = spec.mul[g, h]
    elif side == "R":
        target = spec.mul[h, spec.inv[g]]
    else:
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
    mat = sp.coo_matrix((np.ones(spec.order), (target, h)),
                        shape=(spec.order, spec.order), dtype=complex)
    return Operator(space, mat.tocsr(), GROUP)


# ---------------------------------------------------------------------------
# the connection operator U^j
# ---------------------------------------------------------------------------

@dataclass
class UOperator:
    """Matrix of operators U^j_{mn}, plus the coupling channels a truncation lost."""

    space: LinkSpace
    j: str
    basis_tag: str
    entries: list[list[Operator]]
    dropped: list[tuple[str, str]] = field(default_factory=list)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def entry(self, m: int, n: int) -> Operator:
        return self.entries[m][n]

    def dagger_entry(self, m: int, n: int) -> Operator:
        """(U^dag)_{mn} = (U_{nm})^dag."""
        return self.entries[n][m].dagger()


def u_matrix(space: LinkSpace, j: Optional[str] = None, basis_tag: str = REP) -> UOperator:
    """Build the connection U^j as a dim(j) x dim(j) matrix of link operators.

    Rep basis: <K N N'|U_{mm'}|J M M'> = sqrt(dim J/dim K) <JMjm|KN><KN'|JM'jm'>*
    summed over the coupling channels available in the catalog; channels
    outside a Lie truncation are skipped and recorded in ``dropped``.
    Group basis (finite): <g|U_{mn}|h> = D^j_{mn}(g) delta_{gh}.
    """
    catalog = space.catalog
    j = catalog.fundamental if j is None else j
    dim_j = catalog.irrep(j).dim
    if basis_tag == GROUP:
        if catalog.is_lie:
            raise BasisMismatchError("group element basis requires a finite group")
        mats = catalog.irrep(j).matrices
        entries = [[Operator(space, sp.diags(mats[:, m, n], format="csr"), GROUP)
                    for n in range(dim_j)] for m in range(dim_j)]
        return UOperator(space=space, j=j, basis_tag=GROUP, entries=entries)
    if basis_tag != REP:
        raise ValueError(f"unknown basis tag {basis_tag!r}")

    dense = [[np.zeros((space.dim, space.dim), dtype=complex)
              for _ in range(dim_j)] for _ in range(dim_j)]
    dropped = []
    for ir_J in catalog.irreps:
        dec = decompose(catalog, ir_J.label, j)
        dropped.extend((ir_J.label, k) for k in dec.dropped)
        for k_label, _mult in dec.terms:
            tensor = cg(catalog, ir_J.label, j, k_label)
            dim_K = catalog.irrep(k_label).dim
            factor = np.sqrt(ir_J.dim / dim_K)
            rows = space.block_slice(k_label)
            cols = space.block_slice(ir_J.label)
            for m in range(dim_j):
                x_m = tensor.coeffs[:, m, :]        # (dim J, dim K)
                for mp in range(dim_j):
                    x_mp = tensor.coeffs[:, mp, :]
                    block = factor * np.kron(x_m.T, x_mp.conj().T)
                    dense[m][mp][rows, cols] += block
    entries = [[Operator(space, sp.csr_matrix(dense[m][n]), REP)
                for n in range(dim_j)] for m in range(dim_j)]
    return UOperator(space=space, j=j, basis_tag=REP, entries=entries,
                     dropped=dropped)


# ---------------------------------------------------------------------------
# projectors, generators, diagnostics
# ---------------------------------------------------------------------------

def projector_rep(space: LinkSpace, j: str) -> Operator:
    """Diagonal projector onto all |j m n> of one representation (rep basis)."""
    diag = np.zeros(space.dim)
    diag[space.block_slice(j)] = 1.0
    return Operator(space, sp.diags(diag.astype(complex), format="csr"), REP)


def generators(space: LinkSpace) -> tuple[list[Operator], list[Operator]]:
    """Left and right electric generators for a Lie catalog.

    L_a acts blockwise as -T_a^T on the m index, R_a as +T_a on the n
    index; both vanish on the trivial representation block.
    """
    catalog = space.catalog
    if not catalog.is_lie:
        raise BasisMismatchError("generators are defined for Lie catalogs only")
    n_comp = catalog.n_generator_components
    left, right = [], []
    for a in range(n_comp):
        l_blocks, r_blocks = [], []
        for ir in catalog.irreps:
            t = ir.generators[a]
            eye = np.eye(ir.dim)
            l_blocks.append(np.kron(-t.T, eye))
            r_blocks.append(np.kron(eye, t))
        left.append(Operator(space, sp.block_diag(l_blocks, format="csr"), REP))
        right.append(Operator(space, sp.block_diag(r_blocks, format="csr"), REP))
    return left, right


def trace_diagnostic(space: LinkSpace, j: Optional[str] = None,
                     basis_tag: str = REP) -> Operator:
    """The operator Tr(U^{j dag} U^j) = sum_{m,n} U_{mn}^dag U_{mn}.

    Equal to dim(j) times the identity when U is unitary (finite groups with
    a complete irrep set); a truncated SU(2) catalog shows a defect on the
    top-representation block, with weight (2 j_max + 2)/(2 j_max + 1) for
    j = 1/2.
    """
    u = u_matrix(space, j, basis_tag)
    return sum((u.entry(m, n).dagger() @ u.entry(m, n)
                for m in range(u.dim) for n in range(u.dim)),
               0 * identity_operator(space, basis_tag))
