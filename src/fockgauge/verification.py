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
is the full-space value.  The tunneling term is never summed whole: it is
read as its link hops, each the local block P_l on the fermion factor and
its link's (``_link_hops``, as H takes it), written on a span no wider than
a vertex star.  Its Hermiticity is that of the hops' sum, from the nonzero
P_l - P_l^dag alone, which only a faulty hop has; those are summed
(``_sum_blocks``), and nothing is written when every P_l is Hermitian.
Each S of vertex v meets T = sum_l P_l (x) I on v's star (the fermion
factor and v's link factors), and each other link's P_l on the fermion
factor and that link's; when every off-star part is 0, the star's residual
is the exact full-space max |S T - T S| for H's own hops.  There S also
meets the vacuum: a product of one unit vector per factor, so |S vac - vac|
is |S v - v| for the product v of the star's own vectors.  No operator and
no state is built on the full space.  The rep/group agreement converts the
mirror model's H one link factor at a time.

At its peak ``verify_model`` holds the link hops' P_l, each on two factors
(``_real``: float64 when real), and one star's operators and vacuum
vector: no Hermitian hop is placed on more than a star's factors.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import reduce
from operator import matmul

import numpy as np
import scipy.sparse as sp

from .clebsch_gordan import cg, decompose, verify_cg
from .group_core import CheckResult, ValidationReport, _dagger, group_law_residual, validate
from .lattice_model import (
    DENSE_MAX_DIM,
    GROUP,
    REP,
    Model,
    _gauss_products,
    _hop_block,
    _link_hops,
    _place,
    _real,
    _sum_blocks,
    _sum_on_span,
    _TERMS,
    _vacuum_factors,
    build_hamiltonian,
    physical_projector,
)
from .link_space import (generators as link_generators, projector_rep, theta_group_basis,
                         theta_left, theta_right, trace_diagnostic, u_matrix)
from .matter_space import VertexFock, annihilation_matrix, theta_q
from .operators import _row_slices, _row_view, hermiticity_residual, max_abs

COVARIANCE_SAMPLES = 20

TIGHT = 1e-12
LOOSE = 1e-10


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
    _check_hamiltonian(model, report)
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


def _on_span(dims, factors, pieces) -> sp.csr_matrix:
    """S on the ascending ``factors``, scaled so that its commutator with a
    block there has the largest entry of the full-space commutator.

    S is the sum of the ``{factor: [matrices]}`` products in ``pieces``, taken
    as ``_sum_on_span`` takes them.  A piece with factors, none of them in
    ``factors``, commutes with the block and is dropped; the empty product,
    the Gauss operator of a vertex with no link and no matter, is the
    identity.  The factors a kept piece has outside scale S by their largest
    entries, since max |A (x) B| = max |A| max |B|: exact for one product, as
    a group element's Gauss operator is; a Lie generator's pieces have one
    factor each.
    """
    where = {f: i for i, f in enumerate(factors)}
    sub = [dims[f] for f in factors]
    kept = [ops for ops in pieces if not ops or any(f in where for f in ops)]
    outside = math.prod(max_abs(reduce(matmul, mats)) for ops in kept
                        for f, mats in ops.items() if f not in where)
    return outside * _place(sub, *_sum_on_span(
        sub, [{where[f]: mats for f, mats in ops.items() if f in where} for ops in kept]))


def _star_residual(model: Model, hops, symmetry):
    """(max |S T - T S|, the vacuum residuals) over T = sum_l P_l (x) I,
    ``hops`` being the (k, P_l), and each vertex v's Gauss operators or
    generators S, the vertex-major ``symmetry``: on v's star (the fermion
    factor and v's link factors) against the P_l on its link factors, each
    written there once, and on the fermion factor and link factor k of each
    other P_l, where S has its fermion part alone.  The vacuum residuals are
    |S vac - vac| (|G vac| for a generator) for each S, taken on the
    Kronecker product of the star's ``_vacuum_factors``; the vacuum is a
    product of unit vectors, so each is the full-space norm."""
    gb = model.global_basis
    dims = gb.factor_dims
    factors = _vacuum_factors(model)
    per_vertex = len(symmetry) // model.lattice.n_vertices
    worst, residuals = [], []
    for v in range(model.lattice.n_vertices):
        links = sorted({link.index for link, _ in model.lattice.links_at_vertex(v)})
        star = ([gb.fermion_factor] if gb.has_matter else []) + [*map(gb.link_factor, links)]
        sub = [dims[f] for f in star]
        at_v = symmetry[v * per_vertex:(v + 1) * per_vertex]
        ops = [_on_span(dims, star, products) for products in at_v]
        if hops:
            worst.append(_commutator_residual(_sum_blocks(sub, 0, len(sub), [
                _hop_block(sub, star.index(k), p) for k, p in hops if k in star])[2], ops))
        worst += [_commutator_residual(p, [_on_span(dims, [0, k], products) for products in at_v])
                  for k, p in hops if k not in star]
        vac = reduce(np.kron, [factors[f] for f in star], np.ones(1))
        residuals += [float(np.linalg.norm(s_op @ vac - (0 if model.entry.is_lie else vac)))
                      for s_op in ops]
    return max_abs(worst), residuals


def _check_hamiltonian(model: Model, report: ValidationReport):
    dims = model.global_basis.factor_dims
    lie = model.entry.is_lie
    probes = ([{"component": a} for a in range(model.entry.n_generator_components)]
              if lie else [{"g": g} for g in model.entry.spec.generating_set()])
    symmetry = [_gauss_products(model, v, **probe)
                for v in range(model.lattice.n_vertices) for probe in probes]
    herm, blocks = [], {}
    for name in model.terms:
        try:
            # the tunneling term as its link hops (k, P_l), each P_l as H takes
            # it: never summed whole
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

    commutes, hops = {name: [] for name in blocks}, []
    if "tunneling" in blocks:
        hops = blocks.pop("tunneling")
        # T - T^dag: the sum of the hops' nonzero P_l - P_l^dag, none when
        # every P_l is Hermitian
        faults = [_hop_block(dims, k, p - p.conj().T) for k, p in hops if hermiticity_residual(p)]
        if faults:
            herm.append(max_abs(_sum_blocks(dims, 0, len(dims), faults)[2]))
    # each S meets T_v and the vacuum on its star;
    # sum G^2 vac = 0 iff G vac = 0 for each Hermitian generator G, and
    # P_v vac = vac iff Theta_v(s) vac = vac for each element s of a generating set
    star, vacuum = _star_residual(model, hops, symmetry)
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
