"""Eigensolvers and observables.

The sparsity graph is split into its connected components once.  With more
than k, only those that can hold the k lowest levels are solved: each has
an eigenvalue at or below its least diagonal entry, so the k-th level is at
most U, the k-th smallest of those, and none lies in a component whose
Gershgorin bound (S. Gershgorin 1931; the least Re H_ii - sum_{j != i}
|H_ij| over its rows) exceeds U + LANCZOS_TOL.  Their principal submatrix
is copied when the dropped rows times ROW_BLOCK, the Krylov rows a run
allocates first, outnumber its stored entries, and power steps on its
|H| sharpen each kept bound to a Collatz-Wielandt bound, dropping the
components that then exceed U + LANCZOS_TOL too.  Up to DENSE_MAX_DIM rows
solved, when k pairs are asked of a matrix whose largest component has at
most k * DENSE_ROWS_PER_PAIR rows (always when every pair is asked), LAPACK
(MRRR) computes only the k lowest eigenpairs of each dense block, once per
component.  Otherwise, a few pairs of one large block below the cap
included, a symmetric Lanczos iteration with partial reorthogonalization, a
seeded start vector, and deflation restarts resolves degenerate levels
(cutting each certified Ritz vector along the connected components, one run
takes a level's copies in all of them), and ``method`` reads "iterative": a
full O(n^3) reduction of an n-row block costs more than a Lanczos run of a
few dozen matvecs per pair once n exceeds k * DENSE_ROWS_PER_PAIR.  Its
Krylov basis and accepted (deflation) vectors are rows of arrays that start
at ROW_BLOCK rows and double when full.  Every new Lanczos vector is
projected off the accepted vectors by two classical Gram-Schmidt passes.
Against the Krylov basis it gets the same two passes ("twice is enough",
Daniel, Gragg, Kaufman and Stewart 1976) only on the steps where Simon's
recurrence for the overlaps q_j . q_k (H. D. Simon, Math. Comp. 42, 115
(1984)) predicts one above SEMI_ORTHOGONAL = sqrt(eps), and on the step
after; a semi-orthogonal basis gives Ritz values to machine precision.
Each pass is one BLAS GEMV to project and one to subtract; Ritz vectors
come from one GEMM on the basis.  Both paths work in the field of the
operator: when no entry has an imaginary part above DROP_TOL they run in
float64 (real LAPACK, real Krylov vectors, real eigenvectors), on the
matrix itself when it is float64, as a real Hamiltonian is, and otherwise
in complex128.  Every reported eigenpair carries an explicit residual
||Hv - lambda v|| computed with the operator as given, and results count
Lanczos steps, deflated runs, matrix-vector products and the steps that
reorthogonalized against the whole basis.
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
    DENSE_MAX_DIM,
    LatticeSpec,
    Model,
    ModelParams,
    _check_dense_dim,
    build_hamiltonian,
)
from .operators import (
    HERMITICITY_TOL,
    Operator,
    _row_slices,
    _row_view,
    components,
    eigh_by_components,
    hermiticity_residual,
    matvec,
    real_if_close,
)

LANCZOS_TOL = 1e-8
LANCZOS_MAX_ITER = 5000
DEGENERACY_TOL = 1e-7
NORMALIZATION_TOL = 1e-10   # |norm - 1| allowed for an expectation state
RITZ_CHECK_EVERY = 5
ROW_BLOCK = 64          # first capacity of a row-stacked vector array
DENSE_ROWS_PER_PAIR = 64   # largest block rows per requested pair solved dense
EPS = np.finfo(np.float64).eps
SEMI_ORTHOGONAL = np.sqrt(EPS)   # largest |q_j . q_k| a Lanczos basis keeps


class EigensolveError(RuntimeError):
    def __init__(self, message: str, best_residual: Optional[float] = None,
                 steps: int = 0, restarts: int = 0, matvecs: int = 0,
                 reorthogonalizations: int = 0):
        if best_residual is not None and np.isfinite(best_residual):
            message = f"{message} (best residual {best_residual:.3e})"
        super().__init__(message)
        self.best_residual = best_residual
        self.steps = steps
        self.restarts = restarts
        self.matvecs = matvecs
        self.reorthogonalizations = reorthogonalizations


@dataclass
class _Counts:
    """What a Lanczos solve did: steps, deflated runs, products ``mat @ x``
    and the steps that reorthogonalized against the whole Krylov basis."""
    steps: int = 0
    restarts: int = 0
    matvecs: int = 0
    reorthogonalizations: int = 0


@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    # columns, aligned with eigenvalues; float64 when the operator has no
    # imaginary part above DROP_TOL, complex otherwise
    eigenvectors: Optional[np.ndarray]
    residuals: np.ndarray
    method: str
    seed: int
    # Lanczos steps, deflated runs, every ``mat @ x`` (a mat-mat product
    # counts one per column, certificates included) and the steps that
    # reorthogonalized against the whole Krylov basis; 0 on the dense path
    steps: int = 0
    restarts: int = 0
    matvecs: int = 0
    reorthogonalizations: int = 0
    rows: int = 0   # rows solved: dim, or what ``_gershgorin_cut`` kept after its power steps

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
               dense_cutoff: int = DENSE_MAX_DIM,
               max_iter: int = LANCZOS_MAX_ITER,
               want_vectors: bool = True) -> SpectrumResult:
    """Lowest k eigenpairs of a Hermitian operator with residual certificates.

    An empty or non-square operator, or a k that is not an integer of at
    least 1 (a bool included), raises ValueError before any work; a
    Hermiticity residual above HERMITICITY_TOL, or NaN, raises
    EigensolveError.  The components of the sparsity graph are read once and
    cut as the module docstring says; everything below then runs on the kept
    rows (``rows`` counts them), and the vectors come back as full-dim
    columns.  Above ``dense_cutoff`` rows Lanczos certifies each pair to
    LANCZOS_TOL within ``max_iter`` steps, cutting Ritz vectors along the
    components, or raises EigensolveError.  Up to it, when the largest
    component has at most ``k * DENSE_ROWS_PER_PAIR`` rows (always for
    ``k=None``, every pair), LAPACK computes only the k lowest pairs of each
    component and the k lowest of all are kept (``method`` "dense");
    otherwise the same Lanczos path runs (``method`` "iterative").  After
    the Hermiticity check both paths run on ``real_if_close`` of the matrix,
    in float64 when its imaginary parts are all at most DROP_TOL (a float64
    matrix, such as a real ``build_hamiltonian``, is used as it is, with no
    copy); the residuals are taken against the operator as given.
    """
    mat = _as_sparse(op)
    dim = mat.shape[0]
    if dim != mat.shape[1] or not dim:
        raise ValueError(f"operator must be square and non-empty, got {mat.shape}")
    if k is not None and (isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1):
        raise ValueError(f"k must be an integer of at least 1, got {k!r}")
    herm_res = hermiticity_residual(mat)
    if not herm_res <= HERMITICITY_TOL:    # NaN included
        raise EigensolveError(
            f"operator is not Hermitian (residual {herm_res:.3e})")
    if k is None:
        k = dim if dim <= dense_cutoff else 6
    if k > dim:
        warnings.warn(f"requested {k} eigenvalues of a dimension-{dim} "
                      "operator; clamping", stacklevel=2)
        k = dim
    work = real_if_close(mat)
    counts = _Counts()
    labels = components(work)
    kept = _gershgorin_cut(work, labels, k)
    if kept is not None:
        work = work[kept][:, kept]
        labels = np.unique(labels[kept], return_inverse=True)[1]
    if work.shape[0] <= dense_cutoff and \
            k * DENSE_ROWS_PER_PAIR >= np.bincount(labels).max():
        vals, vecs = eigh_by_components(work, k=k, labels=labels)
        method = "dense"
    else:
        vals, vecs = _lanczos_lowest(work, k, seed=seed, tol=LANCZOS_TOL,
                                     max_iter=max_iter, counts=counts,
                                     labels=labels if labels.max() else None)
        counts.matvecs += k
        method = "iterative"
    if kept is not None:
        vecs, solved = np.zeros((dim, vecs.shape[1]), vecs.dtype), vecs
        vecs[kept] = solved
    return SpectrumResult(eigenvalues=vals,
                          eigenvectors=vecs if want_vectors else None,
                          residuals=_residuals(mat, vals, vecs),
                          method=method, seed=seed, rows=work.shape[0], **vars(counts))


def _gershgorin_cut(mat: sp.csr_matrix, labels: np.ndarray,
                    k: int) -> Optional[np.ndarray]:
    """Rows of the components that can hold the k lowest levels (module docstring),
    row sums one SLICE_NNZ row slice at a time; None when nothing or too little is cut.

    Past Gershgorin, ``_collatz_bounds`` sharpens the bounds on the kept
    submatrix; with H' = diag(Re H_ii) - |H_ij| (i != j), each one holds:
    for a unit x, x^H H x >= |x|^T H' |x|, so lambda_min(H_c) >= lambda_min(H'_c);
    sigma I - H' has no negative entry, so by Collatz-Wielandt (L. Collatz
    1942, H. Wielandt 1950) lambda_min(H'_c) >= min_{i in c} (H'v)_i / v_i
    for any positive v, and v = 1 is Gershgorin's bound.  The terms of
    (|H| v)_i are all non-negative, so the rounding near U, about 1e-13,
    lies well inside the LANCZOS_TOL margin.
    """
    if labels.max() < k:
        return None
    diag = mat.diagonal().real
    radius = np.concatenate([abs(_row_view(mat, lo, hi)).sum(axis=1).A1
                             for lo, hi in _row_slices(mat.indptr)])
    least, bound = np.full((2, labels.max() + 1), np.inf)
    np.minimum.at(least, labels, diag)
    np.minimum.at(bound, labels, diag + np.abs(diag) - radius)
    upper = np.partition(least, k - 1)[k - 1] + LANCZOS_TOL
    keep = bound <= upper
    rows = np.flatnonzero(keep[labels])
    if (len(diag) - len(rows)) * ROW_BLOCK <= np.diff(mat.indptr)[rows].sum():
        return None
    for bound in _collatz_bounds(mat[rows][:, rows], labels[rows], len(keep)):
        drop = keep & (bound > upper)
        keep &= ~drop
        if not drop.any() or keep.sum() <= k:
            return rows[keep[labels[rows]]]


def _collatz_bounds(mat: sp.csr_matrix, labels: np.ndarray, n: int):
    """Per-component lower bounds on the least eigenvalue, one array of n
    after each RITZ_CHECK_EVERY power steps v <- (sigma I - H') v from v = 1
    (``_gershgorin_cut``; sigma the largest Re H_ii): min_{i in c} (H'v)_i / v_i,
    +inf for a component of ``labels`` with no row.  v is floored at the
    least normal float, so it stays positive, and each later batch starts
    from v scaled to unit sum on every component."""
    diag = mat.diagonal().real
    sigma, floor, absolute = diag.max(), np.finfo(np.float64).tiny, abs(mat)
    shift = sigma - diag - np.abs(diag)   # |H| v + shift v = (sigma I - H') v
    vec = np.ones(len(diag))
    while True:
        for _ in range(RITZ_CHECK_EVERY):
            out = absolute @ vec + shift * vec
            vec, last = np.maximum(out, floor), vec
        bound = np.full(n, np.inf)
        np.minimum.at(bound, labels, sigma - out / last)
        yield bound
        vec /= np.bincount(labels, vec, n)[labels]


class _Rows:
    """Row-stacked vectors in one array whose capacity doubles when full.

    The array starts at ROW_BLOCK rows, so its size follows the vectors
    actually stored, never the step budget.
    """

    def __init__(self, dim: int, dtype):
        self._data = np.empty((ROW_BLOCK, dim), dtype=dtype)
        self.n = 0

    @property
    def rows(self) -> np.ndarray:
        return self._data[:self.n]

    def append(self, vec: np.ndarray) -> None:
        if self.n == len(self._data):
            grown = np.empty((2 * self.n, self._data.shape[1]),
                             dtype=self._data.dtype)
            grown[:self.n] = self._data
            self._data = grown
        self._data[self.n] = vec
        self.n += 1


def _project_out(vec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt pass: vec minus its projection on rows.

    ``rows`` are orthonormal; ``(rows @ vec.conj()).conj()`` is rows^H vec
    without copying the rows, so each product is one BLAS GEMV (for real
    arrays ``conj`` returns the array itself).
    """
    if not len(rows):
        return vec
    return vec - rows.T @ (rows @ vec.conj()).conj()


def _residuals(mat: sp.csr_matrix, vals: np.ndarray,
               vecs: np.ndarray) -> np.ndarray:
    """||H v_i - lambda_i v_i|| for the columns of vecs, one sparse mat-mat."""
    return np.linalg.norm(mat @ vecs - vecs * vals, axis=0)


def _omega_step(cur: np.ndarray, prev: np.ndarray, alphas: np.ndarray,
                betas: np.ndarray, beta: float, dim: int) -> np.ndarray:
    """Simon's estimate of the overlaps q_{j+1} . q_k, k = 0 .. j+1.

    ``cur`` and ``prev`` estimate q_j . q_k and q_{j-1} . q_k (lengths j+1
    and j, each ending in its own 1), ``alphas`` is a_0 .. a_j and ``betas``
    b_0 .. b_{j-1} with H q_i = b_{i-1} q_{i-1} + a_i q_i + b_i q_{i+1}, and
    ``beta`` is b_j.  For k < j, with o_{i,k} the estimate of q_i . q_k,
    b_j o_{j+1,k} = b_k o_{j,k+1} + (a_k - a_j) o_{j,k} + b_{k-1} o_{j,k-1}
    - b_{j-1} o_{j-1,k}, widened by the rounding of one step,
    eps (|a_j| + b_j), away from zero; o_{j+1,j} = eps sqrt(dim).
    """
    j = len(alphas) - 1
    grown = (alphas[:j] - alphas[j]) * cur[:j]
    if j:
        grown += betas * cur[1:] - betas[-1] * prev
        grown[1:] += betas[:-1] * cur[:j - 1]
    rounding = EPS * (abs(alphas[j]) + beta)
    out = np.empty(j + 2)
    out[:j] = (grown + np.copysign(rounding, grown)) / beta
    out[j] = EPS * np.sqrt(dim)
    out[j + 1] = 1.0
    return out


def _cut(mat: sp.csr_matrix, vec: np.ndarray, resid: np.ndarray, lam: float,
         labels: np.ndarray, tol: float, accepted: _Rows, vals: list[float],
         take: int, counts: _Counts) -> None:
    """Cut a certified Ritz pair (lam, vec) along the components ``labels``.

    H being block-diagonal, the piece on component c, of weight w_c =
    ||vec_c||^2, has Rayleigh quotient lam_c = lam + Re <vec_c, r_c> / w_c
    and squared residual ||r_c||^2 / w_c - (lam_c - lam)^2, r = ``resid`` =
    H vec - lam vec; it qualifies when |lam_c - lam| and its residual are
    at most tol.  The ``take`` heaviest go, normalized, to ``accepted`` and
    ``vals``; one moved by projecting off the accepted rows is certified again.
    """
    weight = np.bincount(labels, np.abs(vec) ** 2)
    scale = np.where(weight > 0, weight, np.nan)   # an empty piece fails below
    shift = np.bincount(labels, (vec.conj() * resid).real) / scale
    spread = np.bincount(labels, np.abs(resid) ** 2) / scale - shift ** 2
    fit = np.flatnonzero((spread <= tol ** 2) & (np.abs(shift) <= tol))
    for c in fit[np.argsort(-weight[fit], kind="stable")][:take]:
        piece, val = np.where(labels == c, vec, 0), lam + shift[c]
        piece /= np.sqrt(weight[c])
        if np.linalg.norm(accepted.rows @ piece.conj()) > EPS:
            piece = _project_out(piece, accepted.rows)
            piece /= np.linalg.norm(piece)
            hpiece = mat @ piece
            counts.matvecs += 1
            val = np.vdot(piece, hpiece).real
            if not (np.linalg.norm(hpiece - val * piece) <= tol
                    and abs(val - lam) <= tol):
                continue
        accepted.append(piece)
        vals.append(float(val))


def _deflated_run(mat: sp.csr_matrix, accepted: _Rows,
                  labels: Optional[np.ndarray], rng: np.random.Generator,
                  tol: float, budget: int, room: int, counts: _Counts):
    """One Krylov run in the orthogonal complement of the rows of ``accepted``.

    Appends the residual-certified eigenpairs found to ``accepted``
    (ascending, stopping at the first unconverged Ritz value so nothing
    lower can be missed; with ``labels``, each vector cut by ``_cut``,
    up to ``room`` in the run and at least one per vector, or whole if it
    has none) and returns (values, best_residual, floor), floor being the
    lowest eigenvalue the rest of the complement can hold, where the run
    settles it: +inf when the complement was empty; when the basis grew to
    the complement's dimension, its Ritz values are the complement's
    eigenvalues, and floor is the lowest one left uncertified (+inf if
    none); -inf otherwise.  Every step projects the new vector off the rows
    accepted before the run; it reorthogonalizes against the whole basis
    only when ``_omega_step`` predicts an overlap above SEMI_ORTHOGONAL,
    and then on the next step too, since the recurrence carries both rows
    forward.  Steps, matvecs and reorthogonalizations go to ``counts``.
    """
    dim = mat.shape[0]
    deflate = accepted.rows
    start = rng.standard_normal(dim)
    if np.iscomplexobj(mat):
        start = start + 1j * rng.standard_normal(dim)
    start = _project_out(start, deflate)
    nrm = np.linalg.norm(start)
    if nrm < 1e-12:
        return [], np.inf, np.inf
    basis = _Rows(dim, mat.dtype)
    basis.append(start / nrm)
    alphas: list[float] = []
    betas: list[float] = []
    omega, omega_prev = np.ones(1), np.empty(0)
    force = False       # the step after a reorthogonalization repeats it
    best_residual = np.inf
    m_cap = min(dim - len(deflate), budget)
    for step in range(m_cap):
        q = basis.rows
        w = mat @ q[-1]
        counts.steps += 1
        counts.matvecs += 1
        if betas:
            w -= betas[-1] * q[-2]
        alpha = float(np.vdot(q[-1], w).real)
        w -= alpha * q[-1]
        for _ in range(2):
            w = _project_out(w, deflate)
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        if beta >= 1e-13:
            omega_next = _omega_step(omega, omega_prev, np.asarray(alphas),
                                     np.asarray(betas), beta, dim)
            if force or np.abs(omega_next[:-1]).max() > SEMI_ORTHOGONAL:
                for _ in range(2):   # twice is enough
                    w = _project_out(_project_out(w, q), deflate)
                beta = float(np.linalg.norm(w))
                omega_next[:-1] = EPS
                counts.reorthogonalizations += 1
                force = not force
            omega, omega_prev = omega_next, omega
        breakdown = beta < 1e-13
        last = step == m_cap - 1
        if breakdown or last or (step + 1) % RITZ_CHECK_EVERY == 0:
            ritz_vals, ritz_vecs = eigh_tridiagonal(
                np.asarray(alphas), np.asarray(betas))
            order = np.argsort(ritz_vals)
            if not breakdown:
                # never skip an unconverged lower state
                unconverged = beta * np.abs(ritz_vecs[-1, order]) > tol
                if unconverged.any():
                    order = order[:np.argmax(unconverged)]
            candidates = ritz_vecs[:, order].T @ q   # Ritz vectors as rows
            vals: list[float] = []
            certified = 0
            for vec in candidates:
                vec = _project_out(_project_out(vec, deflate),
                                   accepted.rows[len(deflate):])
                nv = np.linalg.norm(vec)
                if nv < 1e-8:
                    continue
                vec = vec / nv
                resid = mat @ vec
                counts.matvecs += 1
                lam = float(np.vdot(vec, resid).real)
                resid -= lam * vec
                res = float(np.linalg.norm(resid))
                best_residual = min(best_residual, res)
                if res > tol:
                    break
                certified += 1
                before = len(vals)
                if labels is not None:
                    _cut(mat, vec, resid, lam, labels, tol, accepted, vals,
                         max(room - before, 1), counts)
                if len(vals) == before:
                    accepted.append(vec)
                    vals.append(lam)
            # a basis as long as the complement spans it: its Ritz values
            # are the complement's spectrum, the uncertified ones what is left
            settled = last and m_cap == dim - len(deflate)
            if vals or breakdown or settled:
                left = np.sort(ritz_vals)[certified:] if settled else [-np.inf]
                return vals, best_residual, min(left, default=np.inf)
        if breakdown:
            break
        betas.append(beta)
        basis.append(w / beta)
    return [], best_residual, -np.inf


def _lanczos_lowest(mat: sp.csr_matrix, k: int, *, seed: int,
                    tol: float, max_iter: int, counts: _Counts,
                    labels: Optional[np.ndarray]):
    """Symmetric Lanczos with partial reorthogonalization and deflation restarts.

    Each restart searches the orthogonal complement of everything accepted
    so far, which is what resolves degeneracies: a run converges one copy
    per level and component of ``labels``, the next restart the next copy.
    The iteration stops once k pairs are in hand and the latest run's
    minimum does not undercut the current k-th lowest value, or a run that
    spanned the rest of the space leaves nothing uncertified below it;
    either certifies that no lower eigenvalue remains outside the accepted
    set.
    """
    rng = np.random.default_rng(seed)
    accepted_vals: list[float] = []
    accepted = _Rows(mat.shape[0], mat.dtype)
    best_residual = np.inf

    def failure(message: str) -> EigensolveError:
        return EigensolveError(message, best_residual=float(best_residual),
                               **vars(counts))

    while True:
        if counts.steps >= max_iter:
            raise failure(f"Lanczos did not settle the {k} lowest eigenpairs "
                          f"within {max_iter} steps")
        vals, run_best, floor = _deflated_run(
            mat, accepted, labels, rng, tol, max_iter - counts.steps,
            k - accepted.n, counts)
        counts.restarts += 1
        best_residual = min(best_residual, run_best)
        accepted_vals.extend(vals)
        if floor == np.inf:
            break
        if len(accepted_vals) >= k:
            kth = np.sort(accepted_vals)[k - 1]
            if (vals and vals[0] >= kth - tol) or floor >= kth - tol:
                break

    if len(accepted_vals) < k:
        raise failure(f"Lanczos collected only {len(accepted_vals)} of {k} "
                      "eigenpairs")
    order = np.argsort(accepted_vals)[:k]
    return np.asarray(accepted_vals)[order], accepted.rows[order].T


def expectation(op: Union[Operator, sp.spmatrix, np.ndarray],
                state: np.ndarray, name: str = "observable") -> ObservableReport:
    """<state|op|state> with a reality check for Hermitian operators.

    The state is taken as complex128; an ``Operator`` goes through its own
    ``apply`` and ``hermiticity_residual``, a matrix through ``matvec``.
    """
    mat = _as_sparse(op)
    state = np.asarray(state, dtype=complex)
    if mat.shape[1] != state.shape[0]:
        raise ValueError(
            f"dimension mismatch: operator {mat.shape}, state {state.shape}")
    norm = np.linalg.norm(state)
    if abs(norm - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"state is not normalized (norm {norm})")
    own = isinstance(op, Operator)
    value = complex(np.vdot(state, op.apply(state) if own else matvec(mat, state)))
    residual = op.hermiticity_residual() if own else hermiticity_residual(mat)
    hermitian = residual <= HERMITICITY_TOL
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
    _check_dense_dim(model, "single-plaquette class spectroscopy")
    gb = model.global_basis
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
