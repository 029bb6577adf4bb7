"""Fermionic matter on a single vertex.

One vertex carries dim(fundamental) fermionic modes.  Basis states are
occupation bitstrings in increasing binary order, with mode 0 stored in
the least significant bit; creation operators pick up the sign
(-1)^(number of occupied modes below the target) under this fixed order.

A Lie vertex's charges are Q_a = psi^dag T_a psi - parity Tr(T_a), one per
generator T_a of the fundamental irrep, for every group: the Kogut-Susskind
shift leaves a filled odd site neutral (U(1): Q = psi^dag psi - parity).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .group_core import GroupCatalogEntry, Irrep
from .operators import Operator


def _popcount_below(states: np.ndarray, mode: int) -> np.ndarray:
    masked = states & ((1 << mode) - 1)
    counts = np.zeros_like(states)
    while masked.any():
        counts += masked & 1
        masked >>= 1
    return counts


class VertexFock:
    """Occupation basis of one matter site, tagged with its sublattice parity."""

    def __init__(self, n_modes: int, parity: int = 0):
        if parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {parity}")
        self.n_modes = n_modes
        self.parity = parity
        self.dim = 1 << n_modes

    def occupied_modes(self, state: int) -> tuple[int, ...]:
        return tuple(a for a in range(self.n_modes) if (state >> a) & 1)

    @property
    def full_state(self) -> int:
        return self.dim - 1


def annihilation_matrix(n_modes: int, mode: int) -> sp.csr_matrix:
    """psi_mode over 2^n_modes states, with the canonical sign string."""
    if not 0 <= mode < n_modes:
        raise ValueError(f"mode {mode} out of range for {n_modes} modes")
    dim = 1 << n_modes
    states = np.arange(dim)
    occupied = states[(states >> mode) & 1 == 1]
    signs = 1.0 - 2.0 * (_popcount_below(occupied, mode) % 2)
    return sp.coo_matrix(
        (signs.astype(complex), (occupied ^ (1 << mode), occupied)),
        shape=(dim, dim)).tocsr()


def number_operator(space: VertexFock, mode: int = None) -> Operator:
    """n_mode, or the total number operator when mode is None."""
    states = np.arange(space.dim)
    if mode is None:
        diag = np.zeros(space.dim)
        for a in range(space.n_modes):
            diag += (states >> a) & 1
    else:
        diag = ((states >> mode) & 1).astype(float)
    return Operator(space, sp.diags(diag.astype(complex), format="csr"))


def bilinear(space: VertexFock, coeff: np.ndarray) -> Operator:
    """sum_ab coeff[a, b] psi_a^dag psi_b."""
    coeff = np.asarray(coeff)
    modes = range(space.n_modes)
    return Operator(space, sum(
        (coeff[a, b] * (annihilation_matrix(space.n_modes, a).conj().T
                        @ annihilation_matrix(space.n_modes, b))
         for a in modes for b in modes if coeff[a, b] != 0),
        sp.csr_matrix((space.dim, space.dim), dtype=complex)))


# ---------------------------------------------------------------------------
# gauge transformations on the matter
# ---------------------------------------------------------------------------

def _fundamental(space: VertexFock, entry: GroupCatalogEntry) -> Irrep:
    ir = entry.fundamental_irrep
    if ir.dim != space.n_modes:
        raise ValueError(f"vertex has {space.n_modes} modes but the fundamental "
                         f"irrep has dimension {ir.dim}")
    return ir


def theta_q(space: VertexFock, entry: GroupCatalogEntry, g) -> Operator:
    """Gauge transformation on the vertex Fock space, staggering included.

    Built as the induced action on antisymmetrized states: the sector with
    k particles transforms with the k x k minors of D(g) (single particles
    as psi_a^dag -> psi_b^dag D_ba), which is exact and free of logarithm
    branch choices.  The whole operator is multiplied by det(g^-1)^parity.

    ``g`` is an element index (finite groups) or angle vector (Lie).
    """
    dmat = np.asarray(_fundamental(space, entry).matrix(g), dtype=complex)
    dim = space.dim
    out = np.zeros((dim, dim), dtype=complex)
    by_count: dict[int, list[int]] = {}
    for s in range(dim):
        by_count.setdefault(bin(s).count("1"), []).append(s)
    for states in by_count.values():
        for s_col in states:
            cols = space.occupied_modes(s_col)
            for s_row in states:
                rows = space.occupied_modes(s_row)
                if not rows:
                    out[s_row, s_col] = 1.0
                else:
                    out[s_row, s_col] = np.linalg.det(dmat[np.ix_(rows, cols)])
    det_phase = np.linalg.det(dmat).conj() ** space.parity
    return Operator(space, sp.csr_matrix(out * det_phase))


def charge_su2(space: VertexFock, entry: GroupCatalogEntry) -> list[Operator]:
    """Non-Abelian charges Q_i = psi^dag (sigma_i / 2) psi of an SU(2) vertex."""
    if entry.lie_kind != "su2":
        raise ValueError("SU(2) charges require an SU(2) catalog entry")
    return charges(space, entry)


def charges(space: VertexFock, entry: GroupCatalogEntry,
            components=None) -> list[Operator]:
    """Q_a = psi^dag T_a psi - parity Tr(T_a) per fundamental generator T_a
    (only for the indices a in ``components`` when given)."""
    if not entry.is_lie:
        raise ValueError("generator-form charges exist only for Lie catalogs")
    generators = _fundamental(space, entry).generators
    return [_charge(space, generators[a]) for a in components or range(len(generators))]


def _charge(space: VertexFock, generator: np.ndarray) -> Operator:
    """psi^dag T psi - parity Tr(T); the shift is theta_q's det(g^-1)^parity."""
    shift = space.parity * np.trace(generator)
    eye = sp.identity(space.dim, dtype=complex, format="csr")
    return Operator(space, bilinear(space, generator).matrix - shift * eye)
