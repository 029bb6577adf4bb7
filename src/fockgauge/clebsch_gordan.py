"""Tensor product decompositions and Clebsch-Gordan coefficients.

Couples an arbitrary irrep J with the matter (fundamental) irrep j.  The
coefficient tensor ``coeffs[M, m, N]`` is <J M; j m | K N>, so that the
matrix A[(M, m), N] = coeffs[M, m, N] intertwines the representations:
(D^J(g) (x) D^j(g)) A = A D^K(g) with orthonormal columns, A^dag A = 1.

Phase convention: for every (J, j, K) the first coefficient that is
nonzero in lexicographic (M, m, N) order is real and positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .group_core import GroupCatalogEntry, format_j, parse_j_label
from .operators import max_abs

INTEGRALITY_TOL = 1e-9
PHASE_PICK_TOL = 1e-9
LIE_SAMPLE_COUNT = 50       # rotations probed by verify_cg
LIE_SAMPLE_SEED = 2203


class MultiplicityError(ValueError):
    """Coupling channel absent or not multiplicity-free."""


@dataclass
class ProductDecomposition:
    """Terms of J (x) j, with channels outside a Lie truncation recorded."""

    J: str
    j: str
    terms: list[tuple[str, int]]
    dropped: list[str] = field(default_factory=list)

    def multiplicity(self, K: str) -> int:
        for label, mult in self.terms:
            if label == K:
                return mult
        return 0


@dataclass
class CGTensor:
    J: str
    j: str
    K: str
    coeffs: np.ndarray      # (dim J, dim j, dim K)

    def matrix(self) -> np.ndarray:
        """Flatten to the (dim J * dim j, dim K) intertwiner matrix."""
        dj, dm, dk = self.coeffs.shape
        return self.coeffs.reshape(dj * dm, dk)


def decompose(entry: GroupCatalogEntry, J: str, j: Optional[str] = None) -> ProductDecomposition:
    """Decompose J (x) j into irreps of the catalog.

    Finite groups use the character inner product; SU(2) uses angular
    momentum addition and U(1) charge addition.  For truncated Lie entries,
    channels above the cutoff are dropped from ``terms`` and listed in
    ``dropped``.
    """
    j = entry.fundamental if j is None else j
    if entry.is_lie and j != entry.fundamental:
        raise ValueError("Lie decompositions are supported only against the "
                         "fundamental irrep")
    if entry.lie_kind == "su2":
        jv = parse_j_label(J)
        mv = parse_j_label(j)
        terms, dropped = [], []
        k = abs(jv - mv)
        while k <= jv + mv:
            label = format_j(k)
            if entry.has_irrep(label):
                terms.append((label, 1))
            else:
                dropped.append(label)
            k += 1
        return ProductDecomposition(J=J, j=j, terms=terms, dropped=dropped)
    if entry.lie_kind == "u1":
        k = int(J) + int(j)
        if entry.has_irrep(str(k)):
            return ProductDecomposition(J=J, j=j, terms=[(str(k), 1)])
        return ProductDecomposition(J=J, j=j, terms=[], dropped=[str(k)])

    spec = entry.spec
    chi_J = entry.irrep(J).characters
    chi_j = entry.irrep(j).characters
    terms = []
    for ir in entry.irreps:
        mult = np.sum(ir.characters.conj() * chi_J * chi_j) / spec.order
        rounded = int(round(mult.real))
        if abs(mult - rounded) > INTEGRALITY_TOL:
            raise ValueError(
                f"multiplicity of {ir.label} in {J} (x) {j} is not integral: {mult}")
        if rounded:
            terms.append((ir.label, rounded))
    return ProductDecomposition(J=J, j=j, terms=terms)


def cg(entry: GroupCatalogEntry, J: str, j: str, K: str) -> CGTensor:
    """Clebsch-Gordan tensor <J M; j m | K N> for a multiplicity-1 channel.

    Finite groups: group-averaged projection onto the intertwiner space.
    SU(2) with j = 1/2: closed-form ladder coefficients.  U(1): the single
    coefficient 1.
    """
    dec = decompose(entry, J, j)
    mult = dec.multiplicity(K)
    if mult == 0:
        detail = " (dropped by the truncation)" if K in dec.dropped else ""
        raise MultiplicityError(f"{K} does not occur in {J} (x) {j}{detail}")
    if mult > 1:
        raise MultiplicityError(
            f"{K} occurs {mult} times in {J} (x) {j}; only multiplicity-free "
            "channels are supported")
    if entry.lie_kind == "su2":
        tensor = CGTensor(J=J, j=j, K=K, coeffs=_su2_cg_fundamental(J, K))
    elif entry.lie_kind == "u1":
        tensor = CGTensor(J=J, j=j, K=K, coeffs=np.ones((1, 1, 1), dtype=complex))
    else:
        tensor = CGTensor(J=J, j=j, K=K, coeffs=_finite_cg(entry, J, j, K))
    _fix_phase(tensor.coeffs)
    return tensor


def _su2_cg_fundamental(J: str, K: str) -> np.ndarray:
    """<J M; 1/2 m | K N> for K = J +- 1/2; basis index i maps to m = j - i."""
    jv = float(parse_j_label(J))
    kv = float(parse_j_label(K))
    dj, dk = int(round(2 * jv)) + 1, int(round(2 * kv)) + 1
    coeffs = np.zeros((dj, 2, dk), dtype=complex)
    for mi in range(dj):
        big_m = jv - mi
        for si, small_m in enumerate((0.5, -0.5)):
            n = big_m + small_m
            if abs(n) > kv + 1e-12:
                continue
            ni = int(round(kv - n))
            if abs(kv - (jv + 0.5)) < 1e-12:
                val = np.sqrt((jv + 2 * small_m * big_m + 1) / (2 * jv + 1))
            else:
                val = -2 * small_m * np.sqrt((jv - 2 * small_m * big_m) / (2 * jv + 1))
            coeffs[mi, si, ni] = val
    return coeffs


def _finite_cg(entry: GroupCatalogEntry, J: str, j: str, K: str) -> np.ndarray:
    """Group-averaged projection: A = (dim K/|G|) sum_g D^{J(x)j}(g) X D^K(g)^dag.

    Any A produced this way intertwines; for a multiplicity-free channel it
    is unique up to a scalar, so a single nonzero seed X followed by
    normalization yields the coefficient tensor.
    """
    spec = entry.spec
    ir_J, ir_j, ir_K = entry.irrep(J), entry.irrep(j), entry.irrep(K)
    prod = np.einsum("gab,gcd->gacbd", ir_J.matrices, ir_j.matrices)
    prod = prod.reshape(spec.order, ir_J.dim * ir_j.dim, ir_J.dim * ir_j.dim)
    dual = ir_K.matrices.conj()        # D^K(g)^dag has entries D^K*_{nm}

    for seed_flat in range(ir_J.dim * ir_j.dim * ir_K.dim):
        seed = np.zeros((ir_J.dim * ir_j.dim, ir_K.dim), dtype=complex)
        seed[seed_flat // ir_K.dim, seed_flat % ir_K.dim] = 1.0
        a = np.einsum("gpq,qn,gmn->pm", prod, seed, dual) * (ir_K.dim / spec.order)
        gram = a.conj().T @ a
        scale = np.trace(gram).real / ir_K.dim
        if scale < 1e-12:
            continue
        off = gram - scale * np.eye(ir_K.dim)
        if np.abs(off).max() > 1e-8 * max(scale, 1.0):
            raise MultiplicityError(
                f"projection for {J} (x) {j} -> {K} is not a scalar multiple "
                "of an isometry; channel is not multiplicity-free")
        a /= np.sqrt(scale)
        return a.reshape(ir_J.dim, ir_j.dim, ir_K.dim)
    raise MultiplicityError(f"no nonzero intertwiner found for {J} (x) {j} -> {K}")


def _fix_phase(coeffs: np.ndarray) -> None:
    flat = coeffs.ravel()
    for val in flat:
        if abs(val) > PHASE_PICK_TOL:
            flat *= val.conjugate() / abs(val)
            return


def verify_cg(entry: GroupCatalogEntry, tensor: CGTensor) -> float:
    """Max intertwiner residual |(D^J (x) D^j) A - A D^K| over all elements
    (finite) or sampled rotations (Lie), one batched product over the stacked
    elements."""
    a = tensor.matrix()
    elements = entry.elements(LIE_SAMPLE_COUNT, LIE_SAMPLE_SEED)
    big, small, coupled = (np.array([entry.irrep(label).matrix(g) for g in elements])
                           for label in (tensor.J, tensor.j, tensor.K))
    # kron(D^J(g), D^j(g))[(M, m), (M', m')] = D^J_MM'(g) D^j_mm'(g)
    kron = np.einsum("eab,ecd->eacbd", big, small).reshape(len(elements), len(a), len(a))
    return max_abs(kron @ a - a @ coupled)
