"""The one sparse operator type, used on links, vertices and the global space.

An operator is a CSR matrix over one space object (a LinkSpace, a
VertexFock or a GlobalBasis), plus a basis tag for link operators (rep or
group basis).  Two operators combine only when they share the space object
and the tag.  Every matrix is normalized the same way on construction:
duplicates summed, entries with |x| <= DROP_TOL dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np
import scipy.sparse as sp

DROP_TOL = 1e-14
HERMITICITY_TOL = 1e-12

REP = "rep"
GROUP = "group"


class BasisMismatchError(ValueError):
    """Operators in different bases or on different spaces were combined."""


def max_abs(mat) -> float:
    """Largest entry modulus of a dense or sparse array, 0 when empty."""
    if sp.issparse(mat):
        mat = mat.tocoo()
        return float(np.abs(mat.data).max()) if mat.nnz else 0.0
    arr = np.asarray(mat)
    return float(np.abs(arr).max()) if arr.size else 0.0


def hermiticity_residual(mat: sp.spmatrix) -> float:
    """max |M - M^dag| over the entries of a sparse matrix."""
    return max_abs(mat - mat.conj().T)


@dataclass(eq=False)
class Operator:
    """Sparse operator on ``space``, tagged with the basis it lives in.

    A CSR ``matrix`` is normalized in place, not copied.
    """

    space: Any
    matrix: sp.csr_matrix
    basis_tag: Optional[str] = None

    def __post_init__(self):
        mat = sp.csr_matrix(self.matrix)
        mat.sum_duplicates()
        mat.data[np.abs(mat.data) <= DROP_TOL] = 0.0
        mat.eliminate_zeros()
        self.matrix = mat

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
        return self.matrix @ vec

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def hermiticity_residual(self) -> float:
        return hermiticity_residual(self.matrix)

    def is_hermitian(self) -> bool:
        return self.hermiticity_residual() <= HERMITICITY_TOL
