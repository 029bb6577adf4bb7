"""Eigensolvers and observables.

Dense full diagonalization below DENSE_CUTOFF; above it a symmetric
Lanczos iteration with full reorthogonalization, a seeded start vector,
and deflation restarts so degenerate levels are resolved copy by copy.
Every reported eigenpair carries an explicit residual ||Hv - lambda v||.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from .group_core import GroupCatalogEntry
from .lattice_model import (
    LatticeSpec,
    Model,
    ModelParams,
    build_hamiltonian,
)
from .operators import Operator, hermiticity_residual

DENSE_CUTOFF = 4096
LANCZOS_TOL = 1e-8
LANCZOS_MAX_ITER = 5000
DEGENERACY_TOL = 1e-7
RITZ_CHECK_EVERY = 5


class EigensolveError(RuntimeError):
    def __init__(self, message: str, best_residual: Optional[float] = None):
        if best_residual is not None and np.isfinite(best_residual):
            message = f"{message} (best residual {best_residual:.3e})"
        super().__init__(message)
        self.best_residual = best_residual


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]      # columns, aligned with eigenvalues
    residuals: np.ndarray
    method: str
    seed: int

    def degeneracies(self, tol: float = DEGENERACY_TOL) -> list[list[int]]:
        """Indices grouped into (numerically) degenerate levels."""
        groups: list[list[int]] = []
        for i, val in enumerate(self.eigenvalues):
            if groups and val - self.eigenvalues[groups[-1][0]] <= tol:
                groups[-1].append(i)
            else:
                groups.append([i])
        return groups


@dataclass
class ObservableReport:
    name: str
    value: complex
    hermitian: bool


def _as_sparse(op: Union[Operator, sp.spmatrix, np.ndarray]) -> sp.csr_matrix:
    if isinstance(op, Operator):
        return op.matrix
    return sp.csr_matrix(op)


def eigensolve(op: Union[Operator, sp.spmatrix, np.ndarray],
               k: Optional[int] = None, *, seed: int = 0,
               dense_cutoff: int = DENSE_CUTOFF,
               tol: float = LANCZOS_TOL,
               max_iter: int = LANCZOS_MAX_ITER,
               want_vectors: bool = True,
               hermiticity_tol: float = 1e-12) -> SpectrumResult:
    """Lowest k eigenpairs of a Hermitian operator with residual certificates."""
    mat = _as_sparse(op)
    dim = mat.shape[0]
    if dim != mat.shape[1]:
        raise ValueError("operator must be square")
    herm_res = hermiticity_residual(mat)
    if herm_res > hermiticity_tol:
        raise EigensolveError(
            f"operator is not Hermitian (residual {herm_res:.3e})")
    if k is None:
        k = dim if dim <= dense_cutoff else 6
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > dim:
        warnings.warn(f"requested {k} eigenvalues of a dimension-{dim} "
                      "operator; clamping", stacklevel=2)
        k = dim
    if dim <= dense_cutoff:
        vals, vecs = np.linalg.eigh(mat.toarray())
        vals, vecs = vals[:k], vecs[:, :k]
        residuals = np.array([
            np.linalg.norm(mat @ vecs[:, i] - vals[i] * vecs[:, i])
            for i in range(k)])
        return SpectrumResult(eigenvalues=vals,
                              eigenvectors=vecs if want_vectors else None,
                              residuals=residuals, method="dense", seed=seed)
    vals, vecs, residuals = _lanczos_lowest(mat, k, seed=seed, tol=tol,
                                            max_iter=max_iter)
    return SpectrumResult(eigenvalues=vals,
                          eigenvectors=vecs if want_vectors else None,
                          residuals=residuals, method="iterative", seed=seed)


def _orthogonalize(vec: np.ndarray, *bases) -> np.ndarray:
    for basis in bases:
        for b in basis:
            vec = vec - b * np.vdot(b, vec)
    return vec


def _deflated_run(mat: sp.csr_matrix, deflate: list[np.ndarray],
                  rng: np.random.Generator, tol: float, budget: int):
    """One Krylov run in the orthogonal complement of ``deflate``.

    Returns (values, vectors, steps, best_residual, exhausted): the
    residual-certified eigenpairs found (ascending, stopping at the first
    unconverged Ritz value so nothing lower can be missed), the step count
    consumed, and whether the complement was empty.
    """
    dim = mat.shape[0]
    start = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    start = _orthogonalize(start, deflate)
    nrm = np.linalg.norm(start)
    if nrm < 1e-12:
        return [], [], 0, np.inf, True
    basis = [start / nrm]
    alphas: list[float] = []
    betas: list[float] = []
    best_residual = np.inf
    m_cap = min(dim - len(deflate), budget)
    for step in range(m_cap):
        w = mat @ basis[-1]
        if betas:
            w = w - betas[-1] * basis[-2]
        alpha = float(np.vdot(basis[-1], w).real)
        w = w - alpha * basis[-1]
        w = _orthogonalize(w, basis, deflate)
        w = _orthogonalize(w, basis, deflate)   # second sweep
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        breakdown = beta < 1e-13
        last = step == m_cap - 1
        if breakdown or last or (step + 1) % RITZ_CHECK_EVERY == 0:
            ritz_vals, ritz_vecs = eigh_tridiagonal(
                np.asarray(alphas), np.asarray(betas))
            bounds = beta * np.abs(ritz_vecs[-1, :])
            q_mat = np.column_stack(basis)
            vals: list[float] = []
            vecs: list[np.ndarray] = []
            for idx in np.argsort(ritz_vals):
                if bounds[idx] > tol and not breakdown:
                    break   # never skip an unconverged lower state
                vec = _orthogonalize(q_mat @ ritz_vecs[:, idx], deflate, vecs)
                nv = np.linalg.norm(vec)
                if nv < 1e-8:
                    continue
                vec = vec / nv
                lam = float(np.vdot(vec, mat @ vec).real)
                res = float(np.linalg.norm(mat @ vec - lam * vec))
                best_residual = min(best_residual, res)
                if res <= tol:
                    vals.append(lam)
                    vecs.append(vec)
                else:
                    break
            if vals or breakdown:
                return vals, vecs, step + 1, best_residual, False
        if breakdown:
            return [], [], step + 1, best_residual, False
        betas.append(beta)
        basis.append(w / beta)
    return [], [], m_cap, best_residual, False


def _lanczos_lowest(mat: sp.csr_matrix, k: int, *, seed: int,
                    tol: float, max_iter: int):
    """Symmetric Lanczos with full reorthogonalization and deflation restarts.

    Each restart searches the orthogonal complement of everything accepted
    so far, which is what resolves degeneracies: a run converges one copy
    per level, the next restart finds the next copy.  The iteration stops
    once k pairs are in hand and the latest run's minimum does not undercut
    the current k-th lowest value, which certifies that no lower eigenvalue
    remains outside the accepted set.
    """
    rng = np.random.default_rng(seed)
    accepted_vals: list[float] = []
    accepted_vecs: list[np.ndarray] = []
    steps_used = 0
    best_residual = np.inf

    while True:
        if steps_used >= max_iter:
            raise EigensolveError(
                f"Lanczos did not settle the {k} lowest eigenpairs within "
                f"{max_iter} steps", best_residual=float(best_residual))
        vals, vecs, steps, run_best, exhausted = _deflated_run(
            mat, accepted_vecs, rng, tol, max_iter - steps_used)
        steps_used += max(steps, 1)
        best_residual = min(best_residual, run_best)
        if exhausted:
            break
        accepted_vals.extend(vals)
        accepted_vecs.extend(vecs)
        if vals and len(accepted_vals) >= k:
            kth = np.sort(accepted_vals)[k - 1]
            if vals[0] >= kth - tol:
                break

    if len(accepted_vals) < k:
        raise EigensolveError(
            f"Lanczos collected only {len(accepted_vals)} of {k} eigenpairs",
            best_residual=float(best_residual))
    order = np.argsort(accepted_vals)[:k]
    vals_arr = np.array([accepted_vals[i] for i in order])
    vecs_arr = np.column_stack([accepted_vecs[i] for i in order])
    residuals = np.array([
        np.linalg.norm(mat @ vecs_arr[:, i] - vals_arr[i] * vecs_arr[:, i])
        for i in range(k)])
    return vals_arr, vecs_arr, residuals


def expectation(op: Union[Operator, sp.spmatrix, np.ndarray],
                state: np.ndarray, name: str = "observable",
                normalized_tol: float = 1e-10) -> ObservableReport:
    """<state|op|state> with a reality check for Hermitian operators."""
    mat = _as_sparse(op)
    state = np.asarray(state, dtype=complex)
    if mat.shape[1] != state.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator {mat.shape}, state {state.shape}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > normalized_tol:
        raise ValueError(f"state is not normalized (norm {norm})")
    value = complex(np.vdot(state, mat @ state))
    hermitian = hermiticity_residual(mat) <= 1e-12
    if hermitian and abs(value.imag) > 1e-10:
        raise ValueError(
            f"Hermitian observable produced imaginary part {value.imag:.3e}")
    return ObservableReport(name=name, value=value, hermitian=hermitian)


def vortex_masses(entry: GroupCatalogEntry, j: Optional[str] = None,
                  coupling: float = 1.0) -> dict[str, float]:
    """Energy gap of each conjugacy class on a single magnetic plaquette.

    Builds the one-plaquette pure gauge model in the group element basis
    (where the plaquette term is diagonal), reads off the energy of a
    holonomy witness state per class, and checks each energy against the
    eigensolver output.  Keys are the element labels of class
    representatives; values are gaps above the identity class.
    """
    if entry.is_lie:
        raise ValueError("vortex classes require a finite group")
    j = j or entry.fundamental
    lattice = LatticeSpec(2, 2, boundary="open", include_matter=False)
    params = ModelParams(coupling=coupling, magnetic_rep=j, terms=("magnetic",))
    model = Model(entry, lattice, params, basis_tag="group")
    gb = model.global_basis
    if gb.dim > DENSE_CUTOFF:
        raise ValueError(f"single-plaquette class spectroscopy is desk scale "
                         f"(dim <= {DENSE_CUTOFF}), got {gb.dim}")
    ham = build_hamiltonian(model)
    spectrum = eigensolve(ham, k=ham.dim, want_vectors=False)

    spec = entry.spec
    diag = ham.matrix.diagonal().real
    witness_link = model.lattice.plaquettes[0].links[0]
    gaps: dict[str, float] = {}
    identity_energy = None
    for c in range(spec.n_classes):
        rep_element = int(spec.class_members(c)[0])
        digits = [int(spec.identity)] * len(gb.factor_dims)
        digits[gb.link_factor(witness_link)] = rep_element
        energy = diag[gb.encode(digits)]
        if np.min(np.abs(spectrum.eigenvalues - energy)) > 1e-10:
            raise RuntimeError(f"class energy {energy} not found in the spectrum")
        if c == spec.class_of[spec.identity]:
            identity_energy = energy
        gaps[spec.element_labels[rep_element]] = energy
    assert identity_energy is not None
    return {label: float(e - identity_energy) for label, e in gaps.items()}
