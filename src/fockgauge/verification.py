"""Machine-checkable identity suite for a configured model.

Runs the algebraic invariants of every layer (group data, transformation
operators, connection operators, matter operators, assembled Hamiltonian)
against the concrete model and reports one residual per identity.  Used by
the command line ``verify`` task; the unit tests exercise the same
identities module by module.

The link and vertex identities are taken on dense stacks: each operator
family (Theta^L and Theta^R over the probe elements, the entries of U^j, the
Lie generators, Theta_q over the elements, psi_a) is one array, built once,
and each residual is a batched product over it, one element axis at a time.

Gauge invariance of each term T is the exact entrywise residual max |S T - T S|
over the Gauss operators S of a generating set of G (the Theta group-law
checks extend it to every element) or over the Lie Gauss generators.  It is
taken on the span [lo, hi) of factors the term touches, where T is a block
T_A, and it is still the full-space value, not a bound.  A Gauss operator is
a product over its star, S = S_before (x) S_A (x) S_after, so S T - T S =
S_before (x) [S_A, T_A] (x) S_after; the largest entry of a Kronecker product
is the product of its parts' largest entries, so the residual is
max |[S_A, T_A]| times the largest entry of each factor of S outside the
span.  A Lie generator is a sum of one-factor pieces, and the pieces outside
the span commute with T exactly and are dropped.  max |T - T^dag| on the span
is the full-space value.  The tunneling term is never summed whole: its
Hermiticity is that of its link hops' sum, and it is taken on each vertex
v's star (the fermion factor and v's link factors) against T_v, the hops of
v's links, each once: S keeps every vertex's fermion parity and touches no
other link, so it commutes exactly with every other hop.  There S also
meets the vacuum, with the star's axes moved to the front, one block of
columns at a time.  One range R of fermion digits per S, drawn from the
seed, probes the hops' sum as H places it: (S T - T S)[R, :] = S[R, :] T -
T[R, :] S, both placed by ``_digit_rows`` but for a piece of S on the
fermion factor and beyond, a Kronecker product.  No operator is built on
the full space.  The rep/group agreement converts the mirror model's H one
link factor at a time.

At its peak ``verify_model`` holds the link hops, each as H takes it
(``_real``: float64 when real), and one part of the probe: about PROBE_NNZ
entries of T's rows, the rows of S where they reach, and their products,
whose columns run over the digits reached only.  A hop is built by
``_sum_on_span``; the last one, which spans every factor, one range of
fermion digits at a time into arrays allocated once.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import reduce
from operator import add, matmul

import numpy as np
import scipy.sparse as sp

from .clebsch_gordan import cg, decompose, verify_cg
from .group_core import CheckResult, ValidationReport, _dagger, group_law_residual, validate
from .lattice_model import (
    DENSE_MAX_DIM,
    GROUP,
    REP,
    Model,
    _digit_rows,
    _digit_sums,
    _gauss_products,
    _hop_products,
    _link_hops,
    _place,
    _real,
    _sum_on_span,
    _TERMS,
    build_hamiltonian,
    physical_projector,
    vacuum_state,
)
from .link_space import (generators as link_generators, projector_rep, theta_group_basis,
                         theta_left, theta_right, trace_diagnostic, u_matrix)
from .matter_space import VertexFock, annihilation_matrix, theta_q
from .operators import _row_slices, _row_view, hermiticity_residual, max_abs

COVARIANCE_SAMPLES = 20

TIGHT = 1e-12
LOOSE = 1e-10
PROBE_NNZ = 3 << 14    # entries of the tunneling term per part of a probed range


def verify_model(model: Model, seed: int = 0) -> ValidationReport:
    report = validate(model.entry)
    for check in report.checks:
        check.name = f"group.{check.name}"
    if not model.entry.is_lie and not report.passed:
        # every later layer indexes the multiplication table
        return report
    _check_theta(model, report, seed)
    _check_u(model, report, seed)
    _check_cg(model, report)
    if model.lattice.include_matter:
        _check_matter(model, report, seed)
    _check_hamiltonian(model, report, seed)
    return report


# ---------------------------------------------------------------------------

def _stack(ops) -> np.ndarray:
    """The dense matrices of ``ops`` as one array, indexed as ``ops`` is."""
    return np.array([op.toarray() for op in ops])


def _unitarity(stack: np.ndarray) -> float:
    """max over the stacked matrices M of |M M^dag - 1|."""
    return max_abs(stack @ _dagger(stack) - np.eye(stack.shape[-1]))


def _check_theta(model: Model, report: ValidationReport, seed: int):
    space = model.link_space
    entry = model.entry
    elements = entry.elements(COVARIANCE_SAMPLES, seed)
    lefts = _stack(theta_left(space, g) for g in elements)
    rights = _stack(theta_right(space, g) for g in elements)
    report.add("theta.unitary", max_abs([_unitarity(lefts), _unitarity(rights)]), TIGHT)
    report.add("theta.left_right_commute", max_abs(
        [max_abs(tl @ rights - rights @ tl) for tl in lefts]), TIGHT)

    if entry.is_lie:
        left, right = map(_stack, link_generators(space))
        report.add("theta.casimir_left_equals_right",
                   max_abs((left @ left).sum(0) - (right @ right).sum(0)), TIGHT)
        return

    report.add("theta.group_law", max_abs(
        [group_law_residual(stack, entry.spec) for stack in (lefts, rights)]), TIGHT)
    f = space.fourier
    report.add("theta.fourier_to_translations", max_abs([
        max_abs(f @ stack @ _dagger(f)
                - _stack(theta_group_basis(space, g, side) for g in elements))
        for side, stack in (("L", lefts), ("R", rights))]), TIGHT)


def _check_u(model: Model, report: ValidationReport, seed: int):
    space = model.link_space
    entry = model.entry
    # u[m, n] is the link matrix of U^j_mn
    u = np.array([_stack(row) for row in u_matrix(space, model.magnetic_rep, REP).entries])
    dmats = entry.irrep(model.magnetic_rep)
    cov = []
    for g in entry.elements(COVARIANCE_SAMPLES, seed + 1):
        d = dmats.matrix(g)
        tl = theta_left(space, g).toarray()
        tr = theta_right(space, g).toarray()
        cov += [max_abs(tr @ u @ _dagger(tr) - np.einsum("mkab,kn->mnab", u, d)),
                max_abs(tl @ u @ _dagger(tl) - np.einsum("mk,knab->mnab", _dagger(d), u))]
    report.add("u.covariance", max_abs(cov), TIGHT)

    if entry.is_lie:
        left, right = (stack[:, None, None] for stack in map(_stack, link_generators(space)))
        t = np.array(dmats.generators)
        report.add("u.generator_commutators", max_abs([
            max_abs(left @ u - u @ left + np.einsum("imk,knab->imnab", t, u)),
            max_abs(right @ u - u @ right - np.einsum("mkab,ikn->imnab", u, t))]), TIGHT)
        if entry.lie_kind == "su2" and model.magnetic_rep == "1/2":
            td = trace_diagnostic(space, "1/2")
            top = entry.irreps[-1].label
            f_def = (2 * float(entry.cutoff) + 2) / (2 * float(entry.cutoff) + 1)
            expect = 2 * np.eye(space.dim) - f_def * projector_rep(space, top).toarray()
            report.add("u.trace_defect_closed_form", max_abs(td.toarray() - expect), TIGHT)
        return

    # sum_k U_mk U_nk^dag = delta_mn
    report.add("u.unitarity", max_abs(
        np.einsum("mkab,nkcb->mnac", u, u.conj())
        - np.multiply.outer(np.eye(len(u)), np.eye(space.dim))), TIGHT)
    f = space.fourier
    u_grp = np.array([_stack(row) for row in u_matrix(space, model.magnetic_rep, GROUP).entries])
    report.add("u.rep_group_basis_agreement", max_abs(f @ u @ _dagger(f) - u_grp), TIGHT)


def _check_cg(model: Model, report: ValidationReport):
    entry = model.entry
    fund = model.magnetic_rep
    intertwiner, completeness = [], []
    for ir in entry.irreps:
        dec = decompose(entry, ir.label, fund)
        tensors = [cg(entry, ir.label, fund, k_label) for k_label, _ in dec.terms]
        intertwiner += [verify_cg(entry, tensor) for tensor in tensors]
        if not dec.dropped and tensors:
            square = np.hstack([tensor.matrix() for tensor in tensors])
            completeness.append(max_abs(square.conj().T @ square - np.eye(square.shape[1])))
    report.add("cg.intertwiner", max_abs(intertwiner), LOOSE)
    report.add("cg.completeness", max_abs(completeness), LOOSE)


def _check_matter(model: Model, report: ValidationReport, seed: int):
    entry = model.entry
    n = entry.fundamental_irrep.dim
    psi = _stack(annihilation_matrix(n, a) for a in range(n))
    psi_dag = _dagger(psi)
    # every mode pair (a, b), broadcast
    a, b = psi[:, None], psi[None]
    report.add("matter.anticommutation", max_abs([
        max_abs(a @ b + b @ a),
        max_abs(a @ _dagger(b) + _dagger(b) @ a
                - np.multiply.outer(np.eye(n), np.eye(psi.shape[-1])))]), 0.0)

    elements = entry.elements(COVARIANCE_SAMPLES, seed + 2)
    d = np.array([entry.fundamental_irrep.matrix(g) for g in elements])
    det = np.linalg.det(d)
    for parity in (0, 1):
        vf = VertexFock(n, parity)
        thetas = _stack(theta_q(vf, entry, g) for g in elements)
        # Theta psi_a^dag Theta^dag = sum_b psi_b^dag D_ba, [element, a]
        covariance = max_abs(thetas[:, None] @ psi_dag @ _dagger(thetas)[:, None]
                             - np.einsum("bxy,eba->eaxy", psi_dag, d))
        if not entry.is_lie:
            report.add(f"matter.theta_group_law_parity{parity}",
                       group_law_residual(thetas, entry.spec), TIGHT)
        report.add(f"matter.theta_unitary_parity{parity}", _unitarity(thetas), TIGHT)
        report.add(f"matter.full_state_determinant_parity{parity}", max_abs(
            thetas[:, vf.full_state, vf.full_state] - det * det.conj() ** parity), TIGHT)
        report.add(f"matter.covariance_parity{parity}", covariance, TIGHT)


def _commutator_residual(term: sp.csr_matrix, symmetry_ops) -> float:
    """max |S T - T S| over the CSR operators S, consumed one at a time, and
    entries: each S meets T one row slice at a time, about SLICE_NNZ stored
    entries of T cut as ``hermiticity_residual`` cuts, the rows of S and T read
    as views."""
    term = sp.csr_matrix(term)
    slices = list(_row_slices(term.indptr))
    return max_abs([max_abs(_row_view(s_op, lo, hi) @ term - _row_view(term, lo, hi) @ s_op)
                    for s_op in symmetry_ops for lo, hi in slices])


def _on_span(dims, factors, pieces, coeff: complex = 1.0, hc: bool = False) -> sp.csr_matrix:
    """S on the ascending ``factors``, scaled so that its commutator with a
    block there has the largest entry of the full-space commutator.

    S is the sum of the ``{factor: [matrices]}`` products in ``pieces``, taken
    as ``_sum_on_span`` takes them with ``coeff`` and ``hc``.  A piece with no
    factor in ``factors`` commutes with the block and is dropped.  The
    factors a kept piece has outside scale S by their largest entries, since
    max |A (x) B| = max |A| max |B|: exact for one product, as a group
    element's Gauss operator is; a Lie generator's pieces have one factor each.
    """
    where = {f: i for i, f in enumerate(factors)}
    sub = [dims[f] for f in factors]
    kept = [ops for ops in pieces if any(f in where for f in ops)]
    outside = math.prod(max_abs(reduce(matmul, mats)) for ops in kept
                        for f, mats in ops.items() if f not in where)
    return outside * _place(sub, *_sum_on_span(
        sub, [{where[f]: mats for f, mats in ops.items() if f in where} for ops in kept],
        coeff, hc))


def _star_residual(model: Model, probes, vacuum=None, tunneling: bool = True,
                   symmetry=None) -> float:
    """max |S T - T S| over the tunneling term T and each vertex v's Gauss
    operators or generators S (``_gauss_products`` of each probe, or the
    vertex-major ``symmetry`` that holds them), taken as S T_v - T_v S on v's
    star: the fermion factor and v's link factors, where T_v is the sum of the
    hops of v's links, each link once (0 without ``tunneling``).  Given a list
    ``vacuum``, it gets |S vac - vac| (|G vac| for a generator), taken on the
    star's axes of ``vacuum_state``."""
    gb = model.global_basis
    dims = gb.factor_dims
    vac = None if vacuum is None else vacuum_state(model).reshape(dims)
    symmetry = symmetry or [_gauss_products(model, v, **probe)
                            for v in range(model.lattice.n_vertices) for probe in probes]
    worst = []
    for v in range(model.lattice.n_vertices):
        links = dict(sorted((link.index, link) for link, _ in model.lattice.links_at_vertex(v)))
        star = ([gb.fermion_factor] if gb.has_matter else []) + [*map(gb.link_factor, links)]
        size = math.prod(dims[f] for f in star)
        ops = [_on_span(dims, star, pieces)
               for pieces in symmetry[v * len(probes):(v + 1) * len(probes)]]
        if tunneling:
            worst.append(_commutator_residual(sum((
                _on_span(dims, star, *_hop_products(model, link)) for link in links.values()),
                sp.csr_matrix((size, size))), ops))
        if vac is not None:
            squares = np.zeros(len(ops))
            for columns in _star_columns(vac, star):
                for i, s_op in enumerate(ops):
                    d = s_op @ columns
                    if not model.entry.is_lie:
                        d -= columns
                    squares[i] += np.vdot(d, d).real
            vacuum += [math.sqrt(square) for square in squares]
    return max_abs(worst)


def _star_columns(vec: np.ndarray, star):
    """``vec`` (shaped as the factors) as a matrix whose rows run over the
    ``star`` axes, one block of columns at a time: those at each digit of the
    first factor off the star, or all of them when every factor is on it."""
    moved = np.moveaxis(vec, star, range(len(star)))
    rows = math.prod(moved.shape[:len(star)])
    for block in [moved] if moved.ndim == len(star) else np.moveaxis(moved, len(star), 0):
        yield block.reshape(rows, -1)


def _row_probe(dims, pieces, t_rows, load, lo: int, hi: int) -> float:
    """max |S T - T S| on the rows R of the leading digits [lo, hi), S the sum of
    the products ``pieces`` and T the operator whose rows at the leading
    digits ``digits`` (an ascending array) are ``t_rows(digits)``:
    S[R, :] T - T[R, :] S, in parts of about PROBE_NNZ of T's ``load``
    entries.  Each factor is built on the leading digits the other reaches
    (read off its columns by ``np.bincount``), and each product's inner and
    outer columns are renumbered onto the digits they reach, so no product
    is as wide as the space.  S's rows are its parts' rows added in order:
    each piece on the leading factor, then the pieces off it summed, placed
    by ``_digit_rows``, but a piece on the leading factor and beyond, the
    Kronecker product of its leading matrix's rows and its placed rest."""
    lead_dim, rest = dims[0], math.prod(dims[1:])
    parts, off = [], [ops for ops in pieces if 0 not in ops]
    for ops in (ops for ops in pieces if 0 in ops):
        lead = sp.csr_matrix(reduce(matmul, ops[0])).sorted_indices()
        other = _place(dims[1:], *_sum_on_span(dims[1:], [
            {f - 1: m for f, m in ops.items() if f}])) if len(ops) > 1 else None
        parts.append(_digit_rows(dims, 0, 1, lead)[2] if other is None else
                     lambda at, lead=lead, other=other: sp.kron(lead[at], other, format="csr"))
    parts += [_digit_rows(dims, *_sum_on_span(dims, off))[2]] if off else []

    def s_rows(at):
        return reduce(add, (part(at) for part in parts))

    def reached(*mats, also=None):    # the digits the columns reach (and ``also``), in order
        hits = sum(np.bincount(mat.indices // rest, minlength=lead_dim) for mat in mats)
        if also is not None:
            hits[also] = 1
        at = np.flatnonzero(hits)
        shift = np.zeros(lead_dim, dtype=np.int64)    # a column's shift onto them, per digit
        shift[at] = (at - np.arange(len(at))) * rest
        return at, shift

    def onto(mat, at, shift):    # mat's columns renumbered onto the digits ``at``
        return sp.csr_matrix((mat.data, mat.indices - shift[mat.indices // rest].astype(
            mat.indices.dtype), mat.indptr), shape=(mat.shape[0], len(at) * rest))

    worst = []
    for a, b in _row_slices(load[lo:hi + 1] - load[lo], PROBE_NNZ):
        r = np.arange(lo + a, lo + b)
        s_r = s_rows(r)
        inner, into = reached(s_r, also=r)    # R and the digits S[R, :] reaches
        t_at = t_rows(inner)
        first = (lo + a) * rest - into[lo + a]
        t_r = _row_view(t_at, first, first + s_r.shape[0])
        inner_t, into_t = reached(t_r)    # the digits T[R, :] reaches
        s_at = s_rows(inner_t)
        outer, out = reached(t_at, s_at)
        left = onto(s_r, inner, into) @ onto(t_at, outer, out)
        del s_r    # freed before T[R, :] S is made
        worst.append(_difference(left, onto(t_r, inner_t, into_t) @ onto(s_at, outer, out)))
    return max_abs(worst)


def _difference(a: sp.csr_matrix, b: sp.csr_matrix) -> float:
    """max |a - b| of two CSR matrices, sorted in place: on their values alone
    when their patterns are the same, as the two products of a commutator's
    rows mostly are, else through the CSR difference."""
    a.sort_indices()
    b.sort_indices()
    if np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices):
        return max_abs(a.data - b.data)
    return max_abs(a - b)


def _check_hamiltonian(model: Model, report: ValidationReport, seed: int):
    dims = model.global_basis.factor_dims
    lie = model.entry.is_lie
    probes = ([{"component": a} for a in range(model.entry.n_generator_components)]
              if lie else [{"g": g} for g in model.entry.spec.generating_set()])
    symmetry = [_gauss_products(model, v, **probe)
                for v in range(model.lattice.n_vertices) for probe in probes]
    herm, blocks = [], {}
    for name in model.terms:
        try:
            # the tunneling term as its link hops, each as H takes it: never summed whole
            blocks[name] = ([_real(hop) for hop in _link_hops(model)] if name == "tunneling"
                            else _TERMS[name](model))
        except ValueError as exc:
            # a term that cannot be assembled is a failed check, not a crash
            report.checks.append(CheckResult(
                f"model.term_build_{name} ({exc})", float("inf"), LOOSE))
            continue
        if name != "tunneling":
            herm.append(hermiticity_residual(blocks[name][2]))
    if not blocks:
        return

    commutes, vacuum = {name: [] for name in blocks}, []
    if "tunneling" in blocks:
        hops = blocks.pop("tunneling")
        # T - T^dag: the hops' nonzero b - b^dag, added one range of fermion digits at a time
        load, _, rows = _digit_sums(dims, 0, len(dims), [
            (lo, hi, hop - hop.conj().T) for lo, hi, hop in hops if hermiticity_residual(hop)])
        herm.append(max_abs([max_abs(rows(range(t0, t1))) for t0, t1 in _row_slices(load)]))
        # T meets each S on one range of fermion digits drawn from the seed, and
        # its hops are freed before the star pass
        load, _, rows = _digit_sums(dims, 0, len(dims), hops)
        ranges, draw = list(_row_slices(load)), np.random.default_rng(seed + 3)
        commutes["tunneling"] = [_row_probe(dims, pieces, rows, load, *ranges[draw.integers(
            len(ranges))]) for pieces in symmetry]
        del hops, rows
    # each S meets T_v and the vacuum on its star;
    # sum G^2 vac = 0 iff G vac = 0 for each Hermitian generator G, and
    # P_v vac = vac iff Theta_v(s) vac = vac for each element s of a generating set
    star = _star_residual(model, probes, vacuum, "tunneling" in commutes, symmetry)
    if "tunneling" in commutes:
        commutes["tunneling"].append(star)
    # and on the span of each other block
    for pieces in symmetry:
        for name, (lo, hi, local) in blocks.items():
            commutes[name].append(
                _commutator_residual(local, [_on_span(dims, range(lo, hi), pieces)]))
    report.add("model.terms_hermitian", max_abs(herm), TIGHT)
    for name, parts in commutes.items():
        report.add(f"model.gauss_commutes_with_{name}", max_abs(parts), LOOSE)
    report.add("model.vacuum_gauss_neutral" if lie else "model.vacuum_gauss_invariant",
               max_abs(vacuum), LOOSE)
    if not lie and model.global_basis.dim <= DENSE_MAX_DIM:
        proj = physical_projector(model)
        report.add("model.projector_idempotent", max_abs((proj @ proj - proj).matrix), LOOSE)
        report.add("model.rep_group_hamiltonian_agreement",
                   _basis_agreement_residual(model, tuple(commutes)), LOOSE)


def _basis_agreement_residual(model: Model, names) -> float:
    """Assemble H in both link bases and compare through the Fourier unitary,
    applied one link factor at a time: the dense kron over all links is never
    formed."""
    only = replace(model.params, terms=tuple(names))
    h_here, converted = (build_hamiltonian(Model(model.entry, model.lattice, only, tag)).matrix
                         for tag in (model.basis_tag, GROUP if model.basis_tag == REP else REP))
    gb = model.global_basis
    # rep_op = F^dag group_op F
    f_link = sp.csr_matrix(model.link_space.fourier)
    if model.basis_tag == GROUP:
        f_link = f_link.conj().T
    for k in map(gb.link_factor, range(model.lattice.n_links)):
        f_k = _place(gb.factor_dims, k, k + 1, f_link)
        converted = f_k.conj().T @ converted @ f_k
    return max_abs(converted - h_here)
