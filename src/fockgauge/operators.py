"""The one sparse operator type, used on links, vertices and the global space.

An operator is a CSR matrix over one space object (a LinkSpace, a
VertexFock or a GlobalBasis), plus a basis tag for link operators (rep or
group basis).  Two operators combine only when they share the space object
and the tag.  Every matrix is normalized the same way on construction
(``normalize``): duplicates summed, entries with |x| <= DROP_TOL dropped;
Hamiltonian assembly normalizes each term's local block the same way
before placing it.  ``Operator.apply`` applies each of an operator's
pieces, I (x) local (x) I, with its local once on the reshaped vector.
The eigensolvers work on ``real_if_close`` of a matrix: float64 when no
imaginary part exceeds DROP_TOL, which a real Hamiltonian already is.
``matvec`` takes a float64 matrix times a complex vector or block as a
real product on the vector's (re, im) view, and ``eigh_by_components``
hands LAPACK Fortran-ordered blocks, so neither copies a real matrix to
complex or a dense block to Fortran order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh
from scipy.sparse.csgraph import connected_components

DROP_TOL = 1e-14
HERMITICITY_TOL = 1e-12
SLICE_NNZ = 1 << 17   # stored entries per row slice of the sparse residuals

REP = "rep"
GROUP = "group"


class BasisMismatchError(ValueError):
    """Operators in different bases or on different spaces were combined."""


def max_abs(mat) -> float:
    """Largest entry modulus of a dense or sparse array, 0 when empty; NaN
    when any entry is NaN, so a list of residuals reduces without losing one."""
    if sp.issparse(mat):
        mat = mat if mat.format in ("csr", "csc", "coo") else mat.tocoo()
        return float(np.abs(mat.data[:mat.nnz]).max()) if mat.nnz else 0.0
    arr = np.asarray(mat)
    return float(np.abs(arr).max()) if arr.size else 0.0


def _row_view(mat: sp.csr_matrix, lo: int, hi: int) -> sp.csr_matrix:
    """Rows [lo, hi) of a CSR matrix, sharing its data and indices."""
    start, stop = mat.indptr[lo], mat.indptr[hi]
    return sp.csr_matrix((mat.data[start:stop], mat.indices[start:stop],
                          mat.indptr[lo:hi + 1] - start),
                         shape=(hi - lo, mat.shape[1]))


def _row_slices(load: np.ndarray, step: Optional[int] = None):
    """Row ranges [lo, hi) holding about ``step`` (by default SLICE_NNZ)
    stored entries each, cut from ``load``, the running count of entries per
    row (an indptr)."""
    step = SLICE_NNZ if step is None else step
    cuts = np.searchsorted(load, np.arange(step, load[-1], step))
    bounds = np.unique(np.r_[0, cuts, len(load) - 1])
    return zip(bounds[:-1], bounds[1:])


def hermiticity_residual(mat: sp.spmatrix) -> float:
    """max |M - M^dag| over the entries of a sparse matrix.

    Taken one row slice at a time, about SLICE_NNZ stored entries of M and
    M^T together, against M^T's rows read through a transposed index map:
    the positions of M's entries in M^T's CSR order (int32 when they fit),
    made by one CSR transpose of those positions.  Each slice gathers and
    conjugates its own values, so no array over all values is made.
    """
    mat = sp.csr_matrix(mat)
    where = sp.csr_matrix((np.arange(mat.nnz, dtype=mat.indptr.dtype), mat.indices, mat.indptr),
                          shape=mat.shape).T.tocsr()

    def transposed(lo: int, hi: int) -> sp.csr_matrix:
        rows = _row_view(where, lo, hi)
        return sp.csr_matrix((np.conjugate(mat.data[rows.data]), rows.indices, rows.indptr),
                             shape=rows.shape)

    return max_abs([max_abs(_row_view(mat, lo, hi) - transposed(lo, hi))
                    for lo, hi in _row_slices(mat.indptr + where.indptr)])


def normalize(mat: sp.spmatrix) -> sp.csr_matrix:
    """``mat`` as CSR with duplicates summed and entries |x| <= DROP_TOL dropped.

    A CSR matrix is normalized in place, not copied; the |x| <= DROP_TOL
    mask is taken one SLICE_NNZ chunk of values at a time, and the zeroed
    entries are eliminated only when a chunk held one.
    """
    mat = sp.csr_matrix(mat)
    mat.sum_duplicates()
    small = False
    for start in range(0, mat.nnz, SLICE_NNZ):
        chunk = mat.data[start:start + SLICE_NNZ]
        mask = np.abs(chunk) <= DROP_TOL
        if mask.any():
            chunk[mask] = 0.0
            small = True
    if small:
        mat.eliminate_zeros()
    return mat


def real_if_close(mat: sp.csr_matrix) -> sp.csr_matrix:
    """``mat`` in float64 when no imaginary part exceeds DROP_TOL, else ``mat``.

    A complex matrix with only rounding-noise imaginary parts gets a CSR copy
    whose values are a contiguous float64 array (a strided ``.real`` view runs
    no faster than the complex matrix); it shares ``indices`` and ``indptr``.
    A real matrix comes back as float64, itself when it already is.
    """
    if not np.iscomplexobj(mat):
        return mat.astype(np.float64, copy=False)
    if mat.nnz and np.abs(mat.data.imag).max() > DROP_TOL:
        return mat
    return sp.csr_matrix((np.ascontiguousarray(mat.data.real), mat.indices,
                          mat.indptr), shape=mat.shape)


def matvec(mat: sp.csr_matrix, vec: np.ndarray) -> np.ndarray:
    """``mat @ vec`` for a vector or a block of column vectors.

    A float64 matrix times a complex128 ``vec`` is one real product on the
    vector's (re, im) view, a 2-column (or 2m-column) float64 block: scipy's
    mixed-dtype product would copy the matrix to complex on every call.  The
    values are bit for bit those of ``mat.astype(complex) @ vec``.  A vector
    or block that is not C-contiguous is copied first; any other dtype pair
    is ``mat @ vec``.
    """
    vec = np.asarray(vec)
    if mat.dtype != np.float64 or vec.dtype != np.complex128:
        return mat @ vec
    vec = np.ascontiguousarray(vec)
    pairs = (vec[:, None] if vec.ndim == 1 else vec).view(np.float64)
    return (mat @ pairs).view(np.complex128).reshape(vec.shape)


def components(mat: sp.csr_matrix):
    """The connected components of a square CSR matrix's sparsity pattern.

    Only the pattern counts: a float64 matrix is read as it is, any other
    with unit weights, so that no value (a purely imaginary coupling too)
    hides an edge.  Returns each row's component, numbered from 0.
    """
    graph = mat if mat.dtype == np.float64 else sp.csr_matrix(
        (np.ones(len(mat.indices)), mat.indices, mat.indptr), shape=mat.shape)
    return connected_components(graph, directed=False)[1]


def eigh_by_components(mat: sp.csr_matrix, *, k: Optional[int] = None,
                       window: Optional[Sequence[float]] = None, labels=None):
    """Eigenpairs of a Hermitian CSR matrix, one connected component at a time.

    The components are those of the sparsity pattern (``components``, or
    ``labels`` when the caller has them already); the blocks' spectra are the
    matrix's.  The matrix goes through ``real_if_close`` first, so LAPACK
    runs in real arithmetic and the vectors are float64 unless it has an
    imaginary part above DROP_TOL.  Each block is densified in Fortran
    order, which LAPACK overwrites in place instead of copying.  1x1 blocks
    are read off the diagonal.  Returns the k lowest pairs, or those in the
    half-open ``window`` (lo, hi], stably sorted, vectors as full-dim
    columns.
    """
    mat = real_if_close(mat)
    labels = components(mat) if labels is None else labels
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(labels.max() + 2))
    block = mat[order][:, order]
    ones = bounds[:-1][np.diff(bounds) == 1]
    found = [(block.diagonal()[ones].real, order[ones], None)]
    for c in np.flatnonzero(np.diff(bounds) > 1):
        lo, hi = bounds[c], bounds[c + 1]
        subset = ({"subset_by_value": window} if window is not None
                  else {"subset_by_index": [0, min(k, hi - lo) - 1]})
        vals, vecs = eigh(block[lo:hi, lo:hi].toarray(order="F"), overwrite_a=True, **subset)
        found.append((vals, order[lo:hi], vecs))
    values = np.concatenate([f[0] for f in found])
    pick = np.argsort(values, kind="stable")
    if window is not None:
        pick = pick[(values[pick] > window[0]) & (values[pick] <= window[1])]
    pick = pick[:k]
    out = np.zeros((mat.shape[0], len(pick)), dtype=np.result_type(mat.dtype, float))
    starts = np.cumsum([0] + [len(f[0]) for f in found])
    for (vals, rows, vecs), start in zip(found, starts):
        cols = np.flatnonzero((pick >= start) & (pick < start + len(vals)))
        local = pick[cols] - start
        if vecs is None:    # the 1x1 blocks, one row each
            out[rows[local], cols] = 1.0
        else:
            out[rows[:, None], cols] = vecs[:, local]
    return values[pick], out


@dataclass(eq=False)
class Operator:
    """Sparse operator on ``space``, tagged with the basis it lives in.

    The ``matrix`` goes through ``normalize``: a CSR matrix is normalized in
    place, not copied.  ``pieces`` (before, local, after), each I_before (x)
    local (x) I_after, sum to ``matrix`` up to rounding: ``make_pieces``, or
    what it returns when it is a function, else ``matrix``.
    """

    space: Any
    matrix: sp.csr_matrix
    basis_tag: Optional[str] = None
    make_pieces: Any = ()

    def __post_init__(self):
        self.matrix = normalize(self.matrix)

    @cached_property
    def pieces(self) -> tuple[tuple[int, sp.csr_matrix, int], ...]:
        made = self.make_pieces() if callable(self.make_pieces) else self.make_pieces
        return tuple(made) or ((1, self.matrix, 1),)

    def _compatible(self, other: "Operator"):
        if self.space is not other.space:
            raise BasisMismatchError("operators live on different spaces")
        if self.basis_tag != other.basis_tag:
            raise BasisMismatchError(
                f"cannot combine {self.basis_tag!r} with {other.basis_tag!r} operators")

    def _new(self, matrix, basis_tag: Optional[str] = None) -> "Operator":
        return Operator(self.space, matrix, basis_tag or self.basis_tag)

    def __matmul__(self, other: "Operator") -> "Operator":
        self._compatible(other)
        return self._new(self.matrix @ other.matrix)

    def __add__(self, other: "Operator") -> "Operator":
        self._compatible(other)
        return self._new(self.matrix + other.matrix)

    def __sub__(self, other: "Operator") -> "Operator":
        self._compatible(other)
        return self._new(self.matrix - other.matrix)

    def __mul__(self, scalar: complex) -> "Operator":
        return self._new(self.matrix * scalar)

    __rmul__ = __mul__

    def dagger(self) -> "Operator":
        return self._new(self.matrix.conj().T.tocsr())

    def to_basis(self, basis_tag: str) -> "Operator":
        """Convert a finite-group link operator through the Fourier unitary."""
        if basis_tag == self.basis_tag:
            return self
        f = getattr(self.space, "fourier", None)
        if f is None:
            raise BasisMismatchError(
                "only finite-group link operators have a group element basis")
        dense = self.matrix.toarray()
        if basis_tag == GROUP:
            converted = f @ dense @ f.conj().T
        elif basis_tag == REP:
            converted = f.conj().T @ dense @ f
        else:
            raise ValueError(f"unknown basis tag {basis_tag!r}")
        return self._new(sp.csr_matrix(converted), basis_tag)

    def apply(self, vec: np.ndarray) -> np.ndarray:
        """``matrix @ vec`` for a vector or a block: each piece's ``matvec`` on
        ``vec`` reshaped as (before, n, after * m), through one transposed
        copy in and one strided add out when before > 1.  The copy's rows get
        one spare entry: rows of 256 complex entries, 4 KiB apart, put every
        read of the add in one cache set.  With one piece this is
        ``matvec(matrix, vec)``.
        """
        vec = np.asarray(vec)
        dtype = np.result_type(vec, *(local.dtype for _, local, _ in self.pieces))
        out = None
        for before, local, _ in self.pieces:
            n = local.shape[0]
            if before == 1:
                part = matvec(local, vec if n == len(vec) else vec.reshape(n, -1))
            else:
                width = vec.size // n
                spread = np.empty((n, width + 1), vec.dtype)
                spread[:, :width].reshape(n, before, -1)[...] = vec.reshape(
                    before, n, -1).transpose(1, 0, 2)
                part = matvec(local, spread)[:, :width]
                del spread    # each temporary freed before the next is made
            part = part.reshape(n, before, -1).transpose(1, 0, 2)
            if out is None:
                out = np.ascontiguousarray(part, dtype=dtype).reshape(vec.shape)
            else:
                out.reshape(before, n, -1)[...] += part
            del part
        return out

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def hermiticity_residual(self) -> float:
        """max |M - M^dag|; for one piece, max |A - A^dag| of its local A, the same."""
        return hermiticity_residual(
            self.pieces[0][1] if len(self.pieces) == 1 else self.matrix)
