"""Global Hilbert space, Hamiltonian assembly, Gauss law and physical sectors.

Global basis ordering: one fermionic Fock factor holding every matter mode
(vertex-major, mode-minor, mode 0 in the least significant bit), followed
by one factor per link in link-index order.  Factor 0 is the most
significant digit of the mixed-radix global index.

Plaquette orientation: the plaquette anchored at vertex (x, y) multiplies
U on the bottom x-link, then U on the right y-link, then U-dagger on the
top x-link, then U-dagger on the left y-link (counterclockwise circulation).

Placement: every operator reaches the full space one way.  ``_sum_on_span``
sums the per-factor products of one local piece on the span of factors
they touch (each a Kronecker chain, ``_kron_rows``) and applies its
coefficient and h.c. there, giving a block (lo, hi, local), a long one,
such as the last link's hop, written one range of its leading digits at a
time; ``_sum_blocks``, the only sum, adds blocks on a span one range
of its leading factor's digits at a time, placing each block on those rows
only, into one CSR allocated once; ``_operator``, the one step onto the lattice,
makes a block a full-space ``Operator`` by ``_place``.  Both place a block
by ``_digit_rows``, the one writer of I (x) local (x) I, straight in
canonical CSR with the bits a Kronecker product with complex identities
gives.  The ``_TERMS`` builders return blocks, so
the verification suite takes Gauss commutators on their spans; each
observable is one of those blocks, and H is ``_sum_blocks`` of them on the
full span, each in float64 when real, but for the tunneling term: its
link hops, built once per Hamiltonian, stand in H's sum as one block,
their sum, added range by range with no tunneling block written, and H's
pieces reuse them.  A vertex Fock matrix is placed on the fermion
factor's per-vertex digits.

Gauss law: one star builder, ``_gauss_products``, serves every group (one
product per element, one single-factor product per generator piece).  Each
vertex adds one positive semidefinite block C_v on its star's span, sum_a
G_a^2 for a Lie catalog or 1 - A_v^s (the sector average) for a finite
group; the physical sector is the nullspace of their sum.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import product
from typing import Iterable, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .group_core import GroupCatalogEntry
from .link_space import (
    GROUP,
    REP,
    BasisMismatchError,
    LinkSpace,
    UOperator,
    generators as link_generators,
    identity_operator,
    projector_rep,
    theta_group_basis,
    theta_left,
    theta_right,
    u_matrix,
)
from .matter_space import (
    VertexFock,
    annihilation_matrix,
    charges as matter_charges,
    number_operator,
    theta_q,
)
from .operators import (SLICE_NNZ, Operator, _row_slices, _row_view, eigh_by_components,
                        normalize, real_if_close)

# Largest dimension handled with dense matrices: dense eigh, the sector
# projector and basis, and the dense identity checks.
DENSE_MAX_DIM = 4096
# Half-width of the eigenvalue window that physical_basis keeps.
SECTOR_TOL = 1e-8

# (lo, hi, local): an operator as its matrix on the factors [lo, hi) of the
# global basis, identity on every other factor; in a sum, a local may be a
# list of blocks, which stands for their sum (``_digit_sums``)
Block = tuple[int, int, sp.csr_matrix]


def _check_dense_dim(model: Model, what: str) -> None:
    dim = model.global_basis.dim
    if dim > DENSE_MAX_DIM:
        raise ValueError(f"{what} limited to dim {DENSE_MAX_DIM}, got {dim}")


@dataclass(frozen=True)
class Link:
    index: int
    origin: int
    target: int
    direction: int      # 0 = x, 1 = y


@dataclass(frozen=True)
class Plaquette:
    index: int
    links: tuple[int, int, int, int]    # bottom, right, top, left


class LatticeSpec:
    """Square lattice geometry: vertices, oriented links, plaquettes."""

    def __init__(self, lx: int, ly: int,
                 boundary: Union[str, Sequence[str]] = "open",
                 include_matter: bool = True):
        if lx < 1 or ly < 1:
            raise ValueError("lattice extents must be positive")
        if isinstance(boundary, str):
            boundary = (boundary, boundary)
        bx, by = boundary
        for b in (bx, by):
            if b not in ("open", "periodic"):
                raise ValueError(f"boundary must be open or periodic, got {b!r}")
        self.lx, self.ly = lx, ly
        self.boundary = (bx, by)
        self.include_matter = include_matter

        self.n_vertices = lx * ly
        self.vertex_parity = np.array(
            [(x + y) % 2 for y in range(ly) for x in range(lx)], dtype=int)

        links: list[Link] = []
        self._link_at: dict[tuple[int, int], int] = {}
        for y in range(ly):
            for x in range(lx):
                v = self.vertex_index(x, y)
                for direction in (0, 1):
                    target = self.neighbor(x, y, direction)
                    if target is None:
                        continue
                    self._link_at[(v, direction)] = len(links)
                    links.append(Link(index=len(links), origin=v,
                                      target=target, direction=direction))
        self.links = links

        plaquettes: list[Plaquette] = []
        for y in range(ly):
            for x in range(lx):
                ids = self._plaquette_links(x, y)
                if ids is not None:
                    plaquettes.append(Plaquette(index=len(plaquettes), links=ids))
        self.plaquettes = plaquettes

    def vertex_index(self, x: int, y: int) -> int:
        return x % self.lx + self.lx * (y % self.ly)

    def neighbor(self, x: int, y: int, direction: int) -> Optional[int]:
        bx, by = self.boundary
        if direction == 0:
            if x + 1 >= self.lx and bx == "open":
                return None
            return self.vertex_index(x + 1, y)
        if y + 1 >= self.ly and by == "open":
            return None
        return self.vertex_index(x, y + 1)

    def link_index(self, x: int, y: int, direction: int) -> Optional[int]:
        return self._link_at.get((self.vertex_index(x, y), direction))

    def _plaquette_links(self, x, y):
        bottom = self.link_index(x, y, 0)
        right = self.link_index(x + 1, y, 1)
        top = self.link_index(x, y + 1, 0)
        left = self.link_index(x, y, 1)
        if None in (bottom, right, top, left):
            return None
        return (bottom, right, top, left)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def links_at_vertex(self, v: int) -> list[tuple[Link, str]]:
        """Incident links with their role, 'out' (origin) or 'in' (target)."""
        out = []
        for link in self.links:
            if link.origin == v:
                out.append((link, "out"))
            if link.target == v:
                out.append((link, "in"))
        return out


@dataclass
class ModelParams:
    """Couplings of the Hamiltonian.

    ``epsilon`` is a single tunneling coefficient or one complex value per
    link; ``electric_weights`` maps irrep labels to real weights (defaults:
    j(j+1) for SU(2), p^2 for U(1), min(p, N-p)^2 for Z_N clock charges,
    otherwise they must be supplied).  ``terms`` selects Hamiltonian pieces
    out of {mass, tunneling, electric, magnetic}; None means every piece
    applicable to the model, and a piece listed twice is refused.  Model
    refuses a mass, coupling, epsilon or weight that is NaN or infinite.
    ``include_hc`` exists for fault injection in the verification suite:
    switching it off drops the Hermitian conjugate of the tunneling and
    plaquette sums.
    """

    mass: float = 0.0
    epsilon: Union[complex, Sequence[complex]] = 1.0
    coupling: float = 1.0
    electric_weights: Optional[dict[str, float]] = None
    magnetic_rep: Optional[str] = None
    staggered: bool = True
    terms: Optional[Sequence[str]] = None
    include_hc: bool = True


def default_electric_weights(entry: GroupCatalogEntry) -> Optional[dict[str, float]]:
    """Casimirs for a Lie catalog, min(p, N - p)^2 for Z_N, else None (given weights)."""
    if entry.is_lie:
        return {ir.label: float(ir.casimir) for ir in entry.irreps}
    labels = [ir.label for ir in entry.irreps]
    n = len(labels)
    is_clock = (not entry.is_lie
                and all(ir.dim == 1 for ir in entry.irreps)
                and sorted(labels) == sorted(str(p) for p in range(n)))
    if is_clock:
        return {str(p): float(min(p, n - p) ** 2) for p in range(n)}
    return None


class GlobalBasis:
    """Mixed-radix index over [fermion factor?] + link factors."""

    def __init__(self, factor_dims: Sequence[int], has_matter: bool,
                 n_vertices: int, modes_per_vertex: int):
        self.factor_dims = list(factor_dims)
        self.has_matter = has_matter
        self.n_vertices = n_vertices
        self.modes_per_vertex = modes_per_vertex
        self.n_fermion_modes = n_vertices * modes_per_vertex if has_matter else 0
        self.dim = math.prod(self.factor_dims)
        strides = [1] * len(self.factor_dims)
        for i in range(len(self.factor_dims) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.factor_dims[i + 1]
        self.strides = strides

    @property
    def fermion_factor(self) -> int:
        if not self.has_matter:
            raise ValueError("model has no matter factor")
        return 0

    def link_factor(self, link_index: int) -> int:
        return (1 if self.has_matter else 0) + link_index

    def encode(self, digits: Sequence[int]) -> int:
        return int(sum(d * s for d, s in zip(digits, self.strides)))


class Model:
    """A gauge group on a lattice with parameters, ready for assembly."""

    def __init__(self, entry: GroupCatalogEntry, lattice: LatticeSpec,
                 params: ModelParams, basis_tag: str = REP):
        if basis_tag not in (REP, GROUP):
            raise ValueError(f"basis must be {REP!r} or {GROUP!r}")
        if basis_tag == GROUP and entry.is_lie:
            raise BasisMismatchError("Lie catalogs support only the rep basis")
        self.entry = entry
        self.lattice = lattice
        self.params = params
        self.basis_tag = basis_tag
        self.link_space = LinkSpace(entry)

        if lattice.include_matter:
            n_modes = entry.fundamental_irrep.dim
            self.vertex_spaces = [VertexFock(n_modes, int(p))
                                  for p in lattice.vertex_parity]
            if params.staggered:
                bx, by = lattice.boundary
                if (bx == "periodic" and lattice.lx % 2) or \
                   (by == "periodic" and lattice.ly % 2):
                    raise ValueError("staggered matter on a periodic direction "
                                     "requires an even extent")
            fermion_dim = [1 << (n_modes * lattice.n_vertices)]
        else:
            self.vertex_spaces = []
            fermion_dim = []
        self.global_basis = GlobalBasis(
            fermion_dim + [self.link_space.dim] * lattice.n_links,
            has_matter=lattice.include_matter,
            n_vertices=lattice.n_vertices,
            modes_per_vertex=(self.vertex_spaces[0].n_modes
                              if lattice.include_matter else 0))

        eps = params.epsilon
        if np.isscalar(eps):
            self.epsilon = np.full(lattice.n_links, complex(eps))
        else:
            eps = np.asarray(eps, dtype=complex)
            if eps.shape != (lattice.n_links,):
                raise ValueError(
                    f"epsilon must be a scalar or one value per link "
                    f"({lattice.n_links}), got shape {eps.shape}")
            self.epsilon = eps
        weights = {f"electric weight {k!r}": v for k, v in (params.electric_weights or {}).items()}
        for what, value in {"mass": params.mass, "coupling": params.coupling,
                            "epsilon": self.epsilon, **weights}.items():
            if not np.isfinite(value).all():
                raise ValueError(f"{what} must be a finite number, got "
                                 f"{np.asarray(value)[~np.isfinite(value)].flat[0]}")

        self.magnetic_rep = params.magnetic_rep or entry.fundamental
        if not entry.has_irrep(self.magnetic_rep):
            raise ValueError(f"magnetic representation {self.magnetic_rep!r} "
                             f"is not in the catalog")
        self._u_ops: dict[str, UOperator] = {}
        self._fermion_ops: dict[int, sp.csr_matrix] = {}
        self._generators: Optional[tuple[list[Operator], list[Operator]]] = None
        self._charges: dict[tuple[int, int], sp.csr_matrix] = {}

    # -- resolved pieces ----------------------------------------------------

    @property
    def terms(self) -> tuple[str, ...]:
        unavailable = () if self.lattice.include_matter else ("mass", "tunneling")
        chosen = self.params.terms
        if chosen is None:
            chosen = [t for t in _TERMS if t not in unavailable]
        bad = set(chosen) - set(_TERMS)
        if bad:
            raise ValueError(f"unknown Hamiltonian terms {sorted(bad)}")
        repeated = sorted({t for t in chosen if chosen.count(t) > 1})
        if repeated:
            raise ValueError(f"Hamiltonian terms {repeated} are listed more than once")
        for t in unavailable:
            if t in chosen:
                raise ValueError(f"term {t!r} requires matter")
        if ("electric" in chosen or "magnetic" in chosen) and \
                self.params.coupling == 0:
            raise ValueError("coupling must be nonzero for gauge field terms")
        return tuple(chosen)

    def u_op(self, label: str) -> UOperator:
        if label not in self._u_ops:
            self._u_ops[label] = u_matrix(self.link_space, label, self.basis_tag)
        return self._u_ops[label]

    @property
    def u_tunneling(self) -> UOperator:
        """Connection in the matter representation, used by the hopping term."""
        return self.u_op(self.entry.fundamental)

    @property
    def u_magnetic(self) -> UOperator:
        """Connection in the plaquette representation."""
        return self.u_op(self.magnetic_rep)

    def electric_weights(self) -> dict[str, float]:
        weights = self.params.electric_weights
        if weights is None:
            weights = default_electric_weights(self.entry)
        if weights is None:
            raise ValueError(
                "no default electric weights for this group; supply "
                "ModelParams.electric_weights or drop the electric term")
        missing = [ir.label for ir in self.entry.irreps if ir.label not in weights]
        if missing:
            raise ValueError(f"electric_weights missing irreps {missing}")
        return {k: float(v) for k, v in weights.items()}

    def mass_at(self, vertex: int) -> float:
        m = self.params.mass
        if self.params.staggered:
            return ((-1.0) ** int(self.lattice.vertex_parity[vertex])) * m
        return m

    # -- small operator caches, each built once per model --------------------

    def fermion_annihilation(self, vertex: int, mode: int) -> sp.csr_matrix:
        """psi at a global mode, over the whole fermion factor (string signs included)."""
        gm = vertex * self.global_basis.modes_per_vertex + mode
        if gm not in self._fermion_ops:
            self._fermion_ops[gm] = annihilation_matrix(
                self.global_basis.n_fermion_modes, gm)
        return self._fermion_ops[gm]

    def link_generator(self, side: str, component: int) -> sp.csr_matrix:
        """L_a (side "L") or R_a (side "R") on one link, for a Lie catalog."""
        if self._generators is None:
            self._generators = link_generators(self.link_space)
        left, right = self._generators
        return (left if side == "L" else right)[component].matrix

    def vertex_charge(self, vertex: int, component: int) -> sp.csr_matrix:
        """The charge Q_a of a vertex on the fermion factor's vertex digits."""
        key = (vertex, component)
        if key not in self._charges:
            charge = matter_charges(self.vertex_spaces[vertex], self.entry, [component])[0]
            self._charges[key] = _vertex_block(self, charge.matrix, vertex)
        return self._charges[key]

    def link_theta(self, g, side: str) -> Operator:
        if self.basis_tag == GROUP:
            return theta_group_basis(self.link_space, g, side)
        if side == "L":
            return theta_left(self.link_space, g)
        return theta_right(self.link_space, g)


def build_model(entry: GroupCatalogEntry, lattice: LatticeSpec,
                params: Optional[ModelParams] = None,
                basis: str = REP) -> Model:
    return Model(entry, lattice, params or ModelParams(), basis)


# ---------------------------------------------------------------------------
# operator embedding
# ---------------------------------------------------------------------------

def _sum_on_span(dims: Sequence[int], products: Sequence[dict[int, list[sp.spmatrix]]],
                 coeff: complex = 1.0, hc: bool = False) -> Block:
    """(lo, hi, local): coeff * (sum of the products) + h.c. on factors [lo, hi).

    The span runs from the first to the last factor any ``{factor:
    [matrices]}`` product touches; each product is the Kronecker chain of
    its factors' matrices (complex identities on the factors it skips,
    ``_kron_rows``), the products are summed there in order, then the
    coefficient and the h.c. are applied.  No product: a zero block.

    A block whose products place more than two ranges' worth of entries, h.c.
    included, as a long link hop does, is ``_written`` one range of the
    leading factor's digits at a time: each chain runs with its leading
    matrix cut to those rows, and the h.c. rows are the conjugate of coeff
    times the chains of the transposed factors on the same rows, whose values
    are those of the transposed sum.  A smaller one is summed whole.  Both
    give the same bits.
    """
    if not products:
        return 0, 0, sp.csr_matrix((1, 1), dtype=complex)
    lo, hi = _span(factor for ops in products for factor in ops)
    chains = [[sp.csr_matrix(reduce(operator.matmul, ops[factor])) if factor in ops
               else sp.identity(dims[factor], dtype=complex, format="csr")
               for factor in range(lo, hi)] or [sp.identity(1, dtype=complex, format="csr")]
              for ops in products]
    chains = [chain if len(chain) == 1 else [b.sorted_indices() for b in chain] for chain in chains]
    lead, tails = chains[0][0].shape[0], [math.prod(b.nnz for b in chain[1:]) for chain in chains]
    counts = sum(np.diff(chain[0].indptr) * tail for chain, tail in zip(chains, tails))
    if hc:
        counts = counts + sum(np.bincount(chain[0].indices, minlength=chain[0].shape[1]) * tail
                              for chain, tail in zip(chains, tails))
    load = np.cumsum(np.r_[0, counts])

    def summed(side, digits: range) -> sp.csr_matrix:
        part = reduce(operator.add, (_kron_rows(chain, digits) for chain in side))
        return coeff * part if coeff != 1 else part

    step = max(SLICE_NNZ, load[-1] // 64)
    if load[-1] <= 2 * step:
        local = summed(chains, range(lead))
        return lo, hi, local + local.conj().T if hc else local
    adjoint = [[b.T.tocsr() for b in chain] for chain in chains] if hc else []
    dtype = np.result_type(*(b.dtype for chain in chains for b in chain))
    return lo, hi, _written(math.prod(dims[lo:hi]), lead, load, step, lambda digits: (
        summed(chains, digits) + summed(adjoint, digits).conj() if hc
        else summed(chains, digits)), np.result_type(dtype, coeff) if coeff != 1 else dtype)


def _written(dim: int, lead: int, load: np.ndarray, step: int, rows, dtype) -> sp.csr_matrix:
    """The (dim x dim) CSR whose rows at the leading digits ``digits`` are
    ``rows(digits)``, written into index and value arrays allocated once, as
    long as ``load[-1]`` (a bound on the nnz, ``load`` running over the
    digits), one range of about ``step`` of the load at a time, each range's
    rows freed before the next is made, and trimmed to the nnz at the end."""
    rest = dim // lead
    index = _index_dtype(dim, load[-1])
    indptr, indices = np.zeros(dim + 1, index), np.empty(load[-1], index)
    data = np.empty(load[-1], dtype)
    nnz = 0
    for t0, t1 in _row_slices(load, step):
        part = rows(range(t0, t1))
        pointers = indptr[t0 * rest + 1:t1 * rest + 1]
        pointers[:] = part.indptr[1:]
        pointers += nnz
        indices[nnz:nnz + part.nnz], data[nnz:nnz + part.nnz] = part.indices, part.data
        nnz += part.nnz
        del part
    indices.resize(nnz, refcheck=False)    # shrinks in place: no view of either is left
    data.resize(nnz, refcheck=False)
    total = sp.csr_matrix((data, indices, indptr), shape=(dim, dim))
    total.has_canonical_format = True
    return total


def _kron_rows(chain: Sequence[sp.csr_matrix], digits: range) -> sp.csr_matrix:
    """Rows of B_0 (x) B_1 (x) ... whose B_0 row is in ``digits``, in canonical CSR
    for sorted factors: the values of scipy's chain of ``sp.kron`` calls, bit
    for bit (each step multiplies the running values, repeated, by the next
    factor's, in the same array shapes).  The values come out ordered by their
    factors' entries; when every factor but the last has at most one entry a
    row, as a hop's have, that is the CSR order, else each is scattered to its
    place in the rows.  A chain whose product has no entry is a float64 zero,
    as scipy's is."""
    first = _row_view(chain[0], digits.start, digits.stop)
    shape = (first.shape[0] * math.prod(b.shape[0] for b in chain[1:]),
             first.shape[1] * math.prod(b.shape[1] for b in chain[1:]))
    nnz = first.nnz * math.prod(b.nnz for b in chain[1:])
    if not nnz:
        return sp.csr_matrix(shape)
    index = _index_dtype(*shape, nnz)
    counts = np.diff(first.indptr).astype(index)
    scatter = any(np.diff(b.indptr).max() > 1 for b in [first, *chain[1:-1]])
    values, col = first.data, first.indices.astype(index)
    if scatter:
        row = np.repeat(np.arange(len(counts), dtype=index), counts)
        at = np.arange(first.nnz, dtype=index) - first.indptr[:-1].astype(index)[row]
    for b in chain[1:]:
        b_counts = np.diff(b.indptr).astype(index)
        values = (values.repeat(b.nnz).reshape(-1, b.nnz) * b.data).ravel()
        col = (col[:, None] * index(b.shape[1]) + b.indices.astype(index)).ravel()
        if scatter:
            b_row = np.repeat(np.arange(b.shape[0], dtype=index), b_counts)
            b_at = np.arange(b.nnz, dtype=index) - b.indptr[:-1].astype(index)[b_row]
            row = (row[:, None] * index(b.shape[0]) + b_row).ravel()
            at = (at[:, None] * b_counts[b_row] + b_at).ravel()
        counts = np.multiply.outer(counts, b_counts).ravel()
    indptr = np.zeros(shape[0] + 1, index)
    np.cumsum(counts, out=indptr[1:])
    if scatter:
        at += indptr[row]
        data, indices = np.empty_like(values), np.empty_like(col)
        data[at], indices[at] = values, col
        values, col = data, indices
    return sp.csr_matrix((values, col, indptr), shape=shape)


def _span(factors: Iterable[int]) -> tuple[int, int]:
    """(lo, hi): the factors [lo, hi) from the first to the last of ``factors``."""
    factors = list(factors)
    return min(factors, default=0), max(factors, default=-1) + 1


def _sum_blocks(dims: Sequence[int], lo: int, hi: int, blocks: Iterable[Block]) -> Block:
    """(lo, hi, local): blocks inside the factors [lo, hi) added there in order.

    The sum is ``_written`` as long as the placed blocks' nnz together, one
    range of the span's leading factor digits at a time (``_digit_sums``,
    whose rows are the CSR addition of the whole sum, bit for bit).  A range
    holds about 1/32 of the placed nnz, at least SLICE_NNZ entries.
    """
    load, dtype, rows = _digit_sums(dims, lo, hi, blocks)
    return lo, hi, _written(math.prod(dims[lo:hi]), dims[lo] if hi > lo else 1, load,
                            max(SLICE_NNZ, load[-1] // 32), rows, dtype)


def _digit_sums(dims: Sequence[int], lo: int, hi: int, blocks: Iterable[Block]):
    """(load, dtype, rows) of the sum of blocks on the factors [lo, hi):
    rows(digits) adds, in order from a float64 zero, each block placed on the
    rows of the leading digits ``digits``, a range or an ascending array
    (``_digit_rows``); load runs over the digits' placed nnz.  A block whose
    local is a list of blocks stands for their sum: its rows are theirs,
    added the same way on [lo, hi) and normalized as ``_real`` normalizes,
    its dtype theirs."""
    span = dims[lo:hi]
    lead, dim = (span[0] if span else 1), math.prod(span)

    def block_rows(b_lo: int, b_hi: int, local):
        if not isinstance(local, list):
            return _digit_rows(span, b_lo - lo, b_hi - lo, local)
        load, dtype, summed = _digit_sums(dims, lo, hi, local)
        return np.diff(load), dtype, lambda digits: normalize(summed(digits))

    parts = [block_rows(*block) for block in blocks]
    load = np.cumsum(np.r_[0, sum((counts for counts, _, _ in parts), np.zeros(lead, int))])

    def rows(digits) -> sp.csr_matrix:
        return sum((part(digits) for _, _, part in parts),
                   sp.csr_matrix((len(digits) * (dim // lead), dim)))

    return load, np.result_type(np.float64, *(dtype for _, dtype, _ in parts)), rows


def _digit_rows(span: Sequence[int], lo: int, hi: int, local: sp.spmatrix):
    """(counts, dtype, rows) of I (x) local (x) I, local on factors [lo, hi) of
    ``span``: the one writer of a placed block.  ``rows(digits)`` is its rows
    at the leading digits ``digits`` (a range or an ascending array) in
    canonical CSR, int32 indices where they fit, bit for bit scipy's Kronecker
    products with complex identities (a complex local times 1+0j once per
    padded side; a real one stays float64); ``counts`` is the nnz per digit.
    A block on the leading factor is its local's rows (x) I_after (``_band``),
    any other one single-digit band shifted per digit (``_tiled``); a
    zero-width block, c times the identity, sits after the leading factor."""
    local = sp.csr_matrix(local)
    if not local.has_canonical_format:
        local = local.copy()
        local.sum_duplicates()
    dtype = np.complex128 if np.iscomplexobj(local.data) else np.float64
    padded = (math.prod(span[:lo]) > 1) + (math.prod(span[hi:]) > 1)
    if lo == hi:
        lo = hi = min(1, len(span))
    lead, dim = (span[0] if span else 1), math.prod(span)
    after = math.prod(span[hi:])
    if lo == 0:
        per_digit = local.shape[0] // lead

        def rows(digits) -> sp.csr_matrix:
            if isinstance(digits, range):
                picked = _row_view(local, digits.start * per_digit, digits.stop * per_digit)
            else:
                picked = local[(digits[:, None] * per_digit + np.arange(per_digit)).ravel()]
            return _band(picked, after, dtype, padded)

        return np.diff(local.indptr[::per_digit]) * after, dtype, rows
    digit = _tiled(_band(local, after, dtype, padded), range(math.prod(span[1:lo])))
    return np.full(lead, digit.nnz), dtype, lambda digits: _tiled(digit, digits, dim)


def _operator(model: Model, block: Block) -> Operator:
    """The one step onto the lattice: a block placed on the full space, which
    applies the block, normalized, as its piece."""
    dims = model.global_basis.factor_dims
    lo, hi, local = block[0], block[1], normalize(block[2])
    return Operator(model.global_basis, _place(dims, lo, hi, local),
                    make_pieces=[(math.prod(dims[:lo]), local, math.prod(dims[hi:]))])


def _place(dims: Sequence[int], lo: int, hi: int, local: sp.spmatrix) -> sp.csr_matrix:
    """A block on factors [lo, hi) of ``dims`` on the whole space: the rows of
    ``_digit_rows`` at every leading digit."""
    return _digit_rows(dims, lo, hi, local)[2](range(dims[0] if dims else 1))


def _index_dtype(*sizes: int):
    """int32 when every one of ``sizes`` (a dim, an nnz) fits it, else int64."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


def _band(local: sp.csr_matrix, after: int, dtype, padded: int) -> sp.csr_matrix:
    """local (x) I_after for a canonical (k x n) CSR local, in canonical CSR:
    each row repeated ``after`` times with its columns spread by ``after``.
    The values are cast to ``dtype`` and, when complex, multiplied by 1+0j
    ``padded`` times; with after = 1 and nothing padded, ``local`` itself."""
    if after == 1 and not padded:
        return local.astype(dtype, copy=False)
    (k, n), nnz = local.shape, local.nnz * after
    index = _index_dtype(n * after, nnz)
    values = local.data.astype(dtype)
    if dtype is np.complex128:
        for _ in range(padded):
            values *= 1 + 0j
    band = sp.csr_matrix((values, local.indices, local.indptr),
                         shape=local.shape)[np.repeat(np.arange(k), after)]
    indices = band.indices.astype(index, copy=False)
    indices *= after
    indices += np.repeat(np.tile(np.arange(after, dtype=index), k),
                         np.repeat(np.diff(local.indptr), after))
    band = sp.csr_matrix((band.data, indices, band.indptr.astype(index, copy=False)),
                         shape=(k * after, n * after))
    band.has_canonical_format = True
    return band


def _tiled(band: sp.csr_matrix, steps: Union[range, np.ndarray],
           width: Optional[int] = None) -> sp.csr_matrix:
    """Copies of a canonical (k x w) band down the rows, the i-th shifted right
    by steps[i] * w columns (``steps`` a range or an array of ints), in a
    canonical CSR ``width`` columns wide (by default, the band's width times
    len(steps))."""
    (k, w), count = band.shape, len(steps)
    width = w * count if width is None else width
    index = _index_dtype(width, count * band.nnz)
    shifts = (np.arange(steps.start, steps.stop, dtype=index) if isinstance(steps, range)
              else np.asarray(steps, dtype=index))[:, None] * w
    indices = (band.indices.astype(index, copy=False) + shifts).ravel()
    offsets = np.arange(count, dtype=index)[:, None] * band.nnz
    indptr = np.append((band.indptr[:-1].astype(index, copy=False) + offsets).ravel(),
                       index(count * band.nnz))
    tiled = sp.csr_matrix((np.tile(band.data, count), indices, indptr), shape=(count * k, width))
    tiled.has_canonical_format = True
    return tiled


def _vertex_block(model: Model, matrix: sp.spmatrix, vertex: int) -> sp.csr_matrix:
    """A parity-even vertex Fock matrix on the fermion factor's vertex digits, complex.

    Only valid for operators commuting with the vertex fermion parity
    (every gauge transformation, charge and number operator here does), so
    no string factors are needed across the other vertices.
    """
    gb = model.global_basis
    n = gb.n_vertices     # vertex n-1 is the leading digit
    return _place([1 << gb.modes_per_vertex] * n, n - 1 - vertex, n - vertex,
                  sp.csr_matrix(matrix, dtype=complex))


def _hop(model: Model, vertex_a: int, a: int, vertex_b: int, b: int) -> sp.csr_matrix:
    """psi^dag_(vertex_a, a) psi_(vertex_b, b) over the fermion factor, strings included."""
    return (model.fermion_annihilation(vertex_a, a).conj().T
            @ model.fermion_annihilation(vertex_b, b))


def embed_link(model: Model, op: Operator, link_index: int) -> Operator:
    """Place a link operator on one link factor, identity everywhere else."""
    if op.basis_tag != model.basis_tag:
        raise BasisMismatchError(
            f"operator is in the {op.basis_tag!r} basis but the model uses "
            f"{model.basis_tag!r}")
    if not 0 <= link_index < model.lattice.n_links:
        raise ValueError(f"link {link_index} out of range")
    f = model.global_basis.link_factor(link_index)
    return _operator(model, (f, f + 1, op.matrix))


def embed_fermion_bilinear(model: Model, vertex_a: int, vertex_b: int,
                           coeff: np.ndarray) -> Operator:
    """sum_ab coeff[a, b] psi^dag_(vertex_a, a) psi_(vertex_b, b), strings included."""
    gb = model.global_basis
    n_v = gb.n_vertices
    if not (0 <= vertex_a < n_v and 0 <= vertex_b < n_v):
        raise ValueError("vertex out of range")
    coeff = np.asarray(coeff, dtype=complex)
    modes = range(gb.modes_per_vertex)
    return _operator(model, _sum_on_span(gb.factor_dims, [
        {gb.fermion_factor: [coeff[a, b] * _hop(model, vertex_a, a, vertex_b, b)]}
        for a in modes for b in modes if coeff[a, b] != 0]))


# ---------------------------------------------------------------------------
# Hamiltonian assembly: every sum is a CSR sum in a fixed order
# ---------------------------------------------------------------------------

def _mass_term(model: Model) -> Block:
    """sum_v m_v n_v, vertices in index order, on the fermion factor."""
    gb = model.global_basis
    return _sum_on_span(gb.factor_dims, [
        {gb.fermion_factor: [model.mass_at(v)
                             * _vertex_block(model, number_operator(space).matrix, v)]}
        for v, space in enumerate(model.vertex_spaces)])


def _hop_products(model: Model, link: Link):
    """One link's hop eps_l sum_ab psi^dag_a U_ab psi_b (+ h.c.) as the
    ``_sum_on_span`` arguments (products, coeff, hc): the (a, b) products
    row-major over the fermion and link factors, eps_l, and the h.c. switch."""
    gb = model.global_basis
    u = model.u_tunneling
    return ([{gb.fermion_factor: [_hop(model, link.origin, a, link.target, b)],
              gb.link_factor(link.index): [u.entry(a, b).matrix]}
             for a in range(u.dim) for b in range(u.dim)],
            model.epsilon[link.index], model.params.include_hc)


def _link_hops(model: Model) -> Iterable[Block]:
    """Each link's ``_hop_products`` summed on its span, in index order."""
    for link in model.lattice.links:
        yield _sum_on_span(model.global_basis.factor_dims, *_hop_products(model, link))


def _tunneling_term(model: Model) -> Block:
    """sum over links in index order of eps_l sum_ab psi^dag_a U_ab psi_b (+ h.c.):
    ``_sum_blocks`` adds the ``_link_hops`` on the union of their spans, each
    link block placed one slice of fermion digits at a time."""
    gb = model.global_basis
    return _sum_blocks(gb.factor_dims, *_span(
        factor for link in model.lattice.links
        for factor in (gb.fermion_factor, gb.link_factor(link.index))), _link_hops(model))


def _electric_term(model: Model) -> Block:
    """sum over links in index order of (g^2/2) sum_j w_j P_j, on the link factors.

    The weighted projectors are added on one link first, in weight order.
    """
    g2 = model.params.coupling ** 2
    link_op = sum(
        ((g2 / 2.0 * w)
         * projector_rep(model.link_space, label).to_basis(model.basis_tag)
         for label, w in model.electric_weights().items()
         if model.entry.has_irrep(label)),
        0 * identity_operator(model.link_space, model.basis_tag))
    return _on_every_link(model, link_op.matrix)


def _on_every_link(model: Model, link_matrix: sp.spmatrix) -> Block:
    """sum over links in index order of one link matrix, on the link factors."""
    gb = model.global_basis
    return _sum_on_span(gb.factor_dims, [{gb.link_factor(link.index): [link_matrix]}
                                         for link in model.lattice.links])


def _plaquette_block(model: Model, plaq: Plaquette, coeff: complex = 1.0,
                     hc: bool = False) -> Block:
    """coeff * Tr(U_1 U_2 U_3^dag U_4^dag) around one plaquette (+ h.c. if ``hc``).

    One path for both link bases: the index loops (a, b, c, d) are added in
    row-major order on the span of the plaquette's link factors, where the
    U entries are Clebsch-Gordan matrices (rep basis) or diagonal D(g)
    entries (group basis).  A link met twice multiplies its two entries.
    """
    gb = model.global_basis
    l1, l2, l3, l4 = plaq.links
    u = model.u_magnetic

    def loop(a: int, b: int, c: int, d: int) -> dict[int, list[sp.spmatrix]]:
        ops: dict[int, list[sp.spmatrix]] = {}
        for link_idx, mat in ((l1, u.entry(a, b).matrix),
                              (l2, u.entry(b, c).matrix),
                              (l3, u.dagger_entry(c, d).matrix),
                              (l4, u.dagger_entry(d, a).matrix)):
            ops.setdefault(gb.link_factor(link_idx), []).append(mat)
        return ops

    return _sum_on_span(gb.factor_dims,
                        [loop(*abcd) for abcd in product(range(u.dim), repeat=4)], coeff, hc)


def plaquette_trace(model: Model, plaquette_index: int) -> Operator:
    """The (in general non-Hermitian) Wilson plaquette operator Tr W."""
    return _operator(model, _plaquette_block(model, model.lattice.plaquettes[plaquette_index]))


def _magnetic_term(model: Model) -> Block:
    """-(1/2g^2) sum over plaquettes in index order of (Tr W + h.c.)."""
    return _plaquette_sum(model, -1.0 / (2.0 * model.params.coupling ** 2),
                          hc=model.params.include_hc)


def _plaquette_sum(model: Model, coeff: float, hc: bool) -> Block:
    """coeff * sum over plaquettes in index order of Tr W (+ h.c. if ``hc``).

    Each plaquette is summed on its own span; ``_sum_blocks`` adds them on
    the union of the plaquette spans.
    """
    gb = model.global_basis
    plaquettes = model.lattice.plaquettes
    return _sum_blocks(gb.factor_dims, *_span(
        gb.link_factor(link) for plaq in plaquettes for link in plaq.links), (
        _plaquette_block(model, plaq, coeff, hc) for plaq in plaquettes))


_TERMS = {
    "mass": _mass_term,
    "tunneling": _tunneling_term,
    "electric": _electric_term,
    "magnetic": _magnetic_term,
}


def hamiltonian_terms(model: Model) -> dict[str, Operator]:
    """Each enabled Hamiltonian piece as its own global operator, the
    observable ``<term>_energy``."""
    return {name: observable(model, f"{name}_energy") for name in model.terms}


OBSERVABLE_NAMES = ("electric_energy", "magnetic_energy", "mass_energy",
                    "tunneling_energy", "plaquette_trace", "trivial_rep_weight")


def observable(model: Model, name: str) -> Operator:
    """One of ``OBSERVABLE_NAMES``, one block placed once: ``<term>_energy`` is
    the term, ``plaquette_trace`` the mean over plaquettes of (Tr W + h.c.)/2,
    ``trivial_rep_weight`` the mean over links of the trivial-irrep projector.
    """
    term = name.removesuffix("_energy")
    if name.endswith("_energy") and term in _TERMS:
        block = _TERMS[term](model)
    elif name == "plaquette_trace":
        block = _plaquette_sum(model, 0.5 / max(len(model.lattice.plaquettes), 1), hc=True)
    elif name == "trivial_rep_weight":
        trivial = projector_rep(model.link_space, model.entry.trivial_label())
        block = _on_every_link(model, trivial.to_basis(model.basis_tag).matrix
                               / max(model.lattice.n_links, 1))
    else:
        raise ValueError(f"unknown observable {name!r}; known: {OBSERVABLE_NAMES}")
    return _operator(model, block)


def _real(block: Block) -> Block:
    """A block as H takes it: its local normalized (in place), float64 when real."""
    return block[0], block[1], real_if_close(normalize(block[2]))


def build_hamiltonian(model: Model) -> Operator:
    """Assemble the full Hamiltonian: the enabled terms summed in model.terms order.

    ``_sum_blocks`` of the terms' blocks on the full span, each through
    ``_real``: H is float64 when every term is real, complex128 once a term
    has an imaginary part above DROP_TOL (the tunneling term once a hop
    has).  Only the blocks are held, never a placed term.  The tunneling
    term is its ``_link_hops``, each built once through ``_real`` and
    standing in the sum as the block of their sum, so its rows are added
    one range of fermion digits at a time and no tunneling block is written.
    With matter, H's pieces are made from the same blocks at their first
    use, so ``eigensolve`` never pays for them and none sits above the
    sum's freed temporaries: the electric and magnetic blocks on the link
    factors (first: ``apply`` then frees its transposed copy before it
    makes the result), the last link's hop, and the mass with the other
    hops on the widest of their spans (one product each); then the hops no
    piece holds are released.
    """
    dims = model.global_basis.factor_dims
    hops = [_real(hop) for hop in _link_hops(model)] if "tunneling" in model.terms else []
    blocks = {name: (0, len(dims), hops) if name == "tunneling" else _real(_TERMS[name](model))
              for name in model.terms}

    def pieces() -> list:    # each group's nonzero blocks, summed on their union span
        made = []
        for group in ([blocks[n] for n in ("electric", "magnetic") if n in blocks], hops[-1:],
                      [blocks[n] for n in ("mass",) if n in blocks] + hops[:-1]):
            group = [b for b in group if b[2].nnz]
            made += group if len(group) < 2 else [_real(_sum_blocks(
                dims, min(b[0] for b in group), max(b[1] for b in group), group))]
        hops.clear()
        blocks.clear()
        return [(math.prod(dims[:lo]), local, math.prod(dims[hi:])) for lo, hi, local in made]

    return Operator(model.global_basis, _sum_blocks(dims, 0, len(dims), blocks.values())[2],
                    make_pieces=pieces if model.lattice.include_matter else ())


# ---------------------------------------------------------------------------
# Gauss law
# ---------------------------------------------------------------------------

def gauss_operator(model: Model, vertex: int, g) -> Operator:
    """Gauge transformation at one vertex: Theta^L on outgoing links,
    Theta^R on ingoing links, and the matter transformation on the vertex.

    ``g`` is an element index for finite groups or an angle vector for Lie
    catalogs.  The three kinds of factors act on disjoint parts of the
    global space, so their ordering is immaterial.
    """
    return _operator(model, _sum_on_span(model.global_basis.factor_dims,
                                         _gauss_products(model, vertex, g)))


def _gauss_products(model: Model, vertex: int, g=None,
                    component: Optional[int] = None) -> list[dict[int, list[sp.spmatrix]]]:
    """The star of a vertex as ``_sum_on_span`` products, incident links in order.

    For a group element ``g``: one product of Theta^L(g) on each outgoing
    link, Theta^R(g) on each ingoing one and the matter transformation on
    the vertex's Fock modes, the Gauss operator.  For a Lie generator
    ``component`` a: one single-factor product per L_a, R_a and charge Q_a
    in the same places, whose sum is the generator G_a.
    """
    if not 0 <= vertex < model.lattice.n_vertices:
        raise ValueError(f"vertex {vertex} out of range")
    if component is None and not model.entry.is_lie and not 0 <= g < model.entry.spec.order:
        raise ValueError(f"group element {g} out of range [0, {model.entry.spec.order})")
    gb = model.global_basis
    if component is None:
        sides = {side: model.link_theta(g, side).matrix for side in ("L", "R")}
    else:
        sides = {side: model.link_generator(side, component) for side in ("L", "R")}
    ops: dict[int, list[sp.spmatrix]] = {}
    for link, role in model.lattice.links_at_vertex(vertex):
        ops.setdefault(gb.link_factor(link.index), []).append(
            sides["L" if role == "out" else "R"])
    if model.lattice.include_matter:
        ops[gb.fermion_factor] = [
            _vertex_block(model, theta_q(model.vertex_spaces[vertex], model.entry, g).matrix,
                          vertex) if component is None
            else model.vertex_charge(vertex, component)]
    return [ops] if component is None else [
        {factor: [mat]} for factor, mats in ops.items() for mat in mats]


def gauss_generators(model: Model, vertex: int) -> list[Operator]:
    """Hermitian Gauss generators G_a = sum_in R_a + sum_out L_a + Q_a (Lie)."""
    if not model.entry.is_lie:
        raise ValueError("generator form of the Gauss law requires a Lie catalog; "
                         "use gauss_operator / physical_projector for finite groups")
    return [_operator(model, _generator_block(model, vertex, a))
            for a in range(model.entry.n_generator_components)]


def _generator_block(model: Model, vertex: int, component: int) -> Block:
    """The Gauss generator G_a of one vertex on its star's span, normalized."""
    lo, hi, local = _sum_on_span(model.global_basis.factor_dims,
                                 _gauss_products(model, vertex, component=component))
    return lo, hi, normalize(local)


def _gauss_block(model: Model, vertex: int, sector_label: str) -> Block:
    """C_v >= 0 on the vertex's star, null exactly on its sector: sum_a G_a^2
    for a Lie catalog (the neutral sector), 1 - A_v^s for a finite group,
    where the vertex's sector average A_v^s for the irrep s is a projector."""
    dims = model.global_basis.factor_dims
    if model.entry.is_lie:
        gens = [_generator_block(model, vertex, a)
                for a in range(model.entry.n_generator_components)]
        return _sum_blocks(dims, *gens[0][:2], ((lo, hi, g @ g) for lo, hi, g in gens))
    lo, hi, average = _average_block(model, vertex, sector_label)
    return lo, hi, sp.identity(average.shape[0], dtype=complex, format="csr") - average


def _gauss_penalty(model: Model, sector: Optional[dict[int, str]] = None) -> Operator:
    """sum over vertices of C_v; the sector is its nullspace (integer spectrum
    0..V for a finite group, whose vertex averages commute)."""
    dims = model.global_basis.factor_dims
    return _operator(model, _sum_blocks(dims, 0, len(dims), (
        _gauss_block(model, v, label) for v, label in enumerate(_sector_labels(model, sector)))))


def gauss_casimir(model: Model) -> Operator:
    """sum over vertices and components of G_a^2; physical states are its nullspace.

    The Lie case of ``_gauss_penalty``; a finite group has no generators."""
    if not model.entry.is_lie:
        raise BasisMismatchError("the Gauss Casimir needs a Lie catalog")
    return _gauss_penalty(model)


def physical_projector(model: Model,
                       sector: Optional[dict[int, str]] = None) -> Operator:
    """Projector onto a Gauss-law sector (finite groups).

    P is the product over vertices of the character-weighted group averages
    (dim(s)/|G|) sum_g chi_s(g)* Theta_{g, vertex}; the default sector is
    the trivial irrep everywhere (no static charges).  For Lie catalogs use
    gauss_casimir / physical_basis instead.
    """
    if model.entry.is_lie:
        raise ValueError("character projector needs a finite group; for Lie "
                         "catalogs filter the nullspace of gauss_casimir")
    _check_dense_dim(model, "sector projector")
    return reduce(operator.matmul, (vertex_sector_average(model, v, label)
                                    for v, label in enumerate(_sector_labels(model, sector))))


def _sector_labels(model: Model, sector: Optional[dict[int, str]]) -> list[str]:
    """The irrep label of every vertex: ``sector``'s, else the trivial one."""
    sector = sector or {}
    stray = set(sector) - set(range(model.lattice.n_vertices))
    if stray:
        raise ValueError(f"sector names vertices off the lattice: {sorted(stray, key=str)}")
    if model.entry.is_lie and sector:
        raise ValueError("a Lie catalog has only the Gauss-neutral sector here")
    unknown = [label for label in sector.values() if not model.entry.has_irrep(label)]
    if unknown:
        raise ValueError(f"sector names irreps not in {model.entry.name}: {unknown}")
    trivial = model.entry.trivial_label()
    return [sector.get(v, trivial) for v in range(model.lattice.n_vertices)]


def vertex_sector_average(model: Model, vertex: int, sector_label: str) -> Operator:
    """(dim(s)/|G|) sum_g chi_s(g)* Theta_{g, vertex}, summed on the star's span."""
    return _operator(model, _average_block(model, vertex, sector_label))


def _average_block(model: Model, vertex: int, sector_label: str) -> Block:
    """A_v^s on the vertex's star: each element's Gauss product, weighted."""
    spec = model.entry.spec
    ir = model.entry.irrep(sector_label)
    dims = model.global_basis.factor_dims
    stars = [_gauss_products(model, vertex, g) for g in range(spec.order)]
    return _sum_blocks(dims, *_span(factor for ops in stars[0] for factor in ops), (
        _sum_on_span(dims, star, (ir.dim / spec.order) * ir.characters[g].conjugate())
        for g, star in enumerate(stars)))


def physical_basis(model: Model,
                   sector: Optional[dict[int, str]] = None) -> np.ndarray:
    """Dense orthonormal columns spanning the physical sector (desk scale).

    The null eigenvectors of the Gauss penalty sum_v C_v, for every group:
    C_v is sum_a G_a^2 for a Lie catalog (the neutral sector only) and
    1 - A_v^s for a finite group.  LAPACK runs once per connected component
    of the penalty's sparsity graph (a gauge orbit), keeping the eigenpairs
    in the window [-SECTOR_TOL, SECTOR_TOL].
    """
    _check_dense_dim(model, "dense sector basis")
    # scipy's value window is half-open, (lo, hi]
    window = [np.nextafter(-SECTOR_TOL, -np.inf), SECTOR_TOL]
    return eigh_by_components(_gauss_penalty(model, sector).matrix, window=window)[1]


def vacuum_state(model: Model) -> np.ndarray:
    """Strong-coupling vacuum: trivial rep on every link, Dirac sea fermions.

    In the group element basis the trivial link state is the uniform
    superposition over group elements.
    """
    gb = model.global_basis
    factors = []
    if model.lattice.include_matter:
        ferm = np.zeros(gb.factor_dims[gb.fermion_factor])
        index = 0
        mm = gb.modes_per_vertex
        for v in range(gb.n_vertices):
            if model.lattice.vertex_parity[v] == 1:
                for a in range(mm):
                    index |= 1 << (v * mm + a)
        ferm[index] = 1.0
        factors.append(ferm)
    link_dim = model.link_space.dim
    if model.basis_tag == GROUP:
        link_vec = np.full(link_dim, 1.0 / np.sqrt(link_dim))
    else:
        link_vec = np.zeros(link_dim)
        link_vec[model.link_space.vacuum_index] = 1.0
    factors.extend([link_vec] * model.lattice.n_links)
    state = np.ones(1)
    for f in factors:
        state = np.kron(state, f)
    return state.astype(complex)
