import functools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from fockgauge import lattice_model, operators, verification
from fockgauge.clebsch_gordan import cg, decompose
from fockgauge.group_core import build_builtin, dump_group_file, load_group_file
from fockgauge.lattice_model import (
    LatticeSpec,
    Model,
    ModelParams,
    gauss_generators,
    gauss_operator,
    hamiltonian_terms,
    observable,
    vacuum_state,
)
from fockgauge.link_space import theta_group_basis
from fockgauge.operators import REP, Operator, max_abs
from fockgauge.spectra import vortex_masses
from fockgauge.verification import verify_model
import oracles
from oracles import basis_agreement_dense


def test_verify_model_d3_matter_chain():
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.4, coupling=1.2, staggered=True,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    report = verify_model(Model(d3, lat, params), seed=5)
    assert report.passed, str(report.first_failure())
    names = {c.name for c in report.checks}
    assert "model.gauss_commutes_with_tunneling" in names
    assert "model.rep_group_hamiltonian_agreement" in names
    assert "model.projector_idempotent" in names
    assert len(report.checks) >= 20


@pytest.mark.parametrize("basis,cost", [("group", None), ("rep", None), ("rep", 10 ** 12)],
                         ids=["group-dense-rows", "rep-sparse-product", "rep-dense-rows"])
def test_projector_idempotency_residual_is_the_dense_one(monkeypatch, basis, cost):
    # D3 2x2 open pure gauge (dim 1296): the sector projector holds 653 184
    # entries in the group basis, squared in dense rows, and 258 in the rep
    # basis, squared sparse unless the cost ratio forces dense rows; each
    # gives the dense max |P P - P|, for P and for the faulty 1.5 P
    squared = []
    monkeypatch.setattr(verification, "real_if_close",
                        lambda mat: squared.append("dense-rows") or operators.real_if_close(mat))
    if cost is not None:
        monkeypatch.setattr(verification, "SPARSE_PRODUCT_COST", cost)
    # 1296 rows in slices of 500 leave a short last slice
    monkeypatch.setattr(verification, "PROJECTOR_ROWS", 500)
    model = Model(build_builtin("D3"), LatticeSpec(2, 2, boundary="open", include_matter=False),
                  ModelParams(coupling=1.3, electric_weights={"I": 0.0, "p": 1.0, "2": 1.0}),
                  basis)
    proj = lattice_model.physical_projector(model)
    dense = proj.matrix.toarray()
    assert verification._idempotency_residual(proj) <= verification.LOOSE
    found = verification._idempotency_residual(proj * 1.5)
    assert abs(found - max_abs(2.25 * dense @ dense - 1.5 * dense)) <= 1e-12, found
    assert found > verification.LOOSE
    assert squared == (["dense-rows"] * 2 if basis == "group" or cost else []), squared


def test_verify_model_su2_chain():
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    report = verify_model(Model(su2, lat, ModelParams(mass=0.6, epsilon=0.9,
                                                      coupling=1.1)), seed=3)
    assert report.passed, str(report.first_failure())
    names = {c.name for c in report.checks}
    assert "u.trace_defect_closed_form" in names
    assert "model.vacuum_gauss_neutral" in names


def test_verify_seed_reaches_the_matter_probes(monkeypatch):
    # SU(2) 2x1 with matter: the Lie angles at which the matter checks take
    # Theta_q must follow the seed, as the link checks' angles do
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(su2, lat, ModelParams(mass=0.6, epsilon=0.9, coupling=1.1))
    theta_q = verification.theta_q
    seen = {}
    for seed in (3, 4):
        angles = seen[seed] = []

        def recording(space, entry, g, angles=angles):
            angles.append(tuple(np.asarray(g)))
            return theta_q(space, entry, g)

        monkeypatch.setattr(verification, "theta_q", recording)
        assert verify_model(model, seed=seed).passed
    assert seen[3] and len(seen[3]) == len(seen[4])
    assert set(seen[3]).isdisjoint(seen[4])


def test_verify_reports_unbuildable_term():
    # D3 has no default electric weights: the electric term must show up as
    # a failed check instead of crashing the suite
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    model = Model(d3, lat, ModelParams(terms=("electric", "magnetic")),
                  basis_tag="group")
    report = verify_model(model, seed=0)
    assert not report.passed
    failing = [c.name for c in report.checks if not c.passed]
    assert any(name.startswith("model.term_build_electric") for name in failing)
    # the magnetic term still got its commutator checks
    assert any(c.name == "model.gauss_commutes_with_magnetic" and c.passed
               for c in report.checks)


def test_vortex_masses_alternate_representation():
    # plaquette weighted by the parity character (1, 1, -1): only the
    # reflection class is gapped
    gaps = vortex_masses(build_builtin("D3"), j="p", coupling=1.0)
    assert abs(gaps["e"]) < 1e-12
    assert abs(gaps["r"]) < 1e-10
    assert abs(gaps["s"] - 2.0) < 1e-10


# ---------------------------------------------------------------------------
# the Gauss commutator check against test-side oracles

def _d3_chain(basis):
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.4, coupling=1.2, staggered=True,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    return Model(build_builtin("D3"), lat, params, basis_tag=basis)


def _z3_square():
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    return Model(build_builtin("Z_N", N=3), lat,
                 ModelParams(mass=0.8, epsilon=0.6, coupling=1.1), basis_tag="group")


def _all_gauss_operators(model):
    return [gauss_operator(model, v, g).matrix
            for v in range(model.lattice.n_vertices)
            for g in range(model.entry.spec.order)]


def _probe_residual(term, symmetry_ops, seed, probes=20):
    """max over random unit probes p of |S T p - T S p|_2 (a sampled check)."""
    rng = np.random.default_rng(seed + 17)
    dim = term.shape[0]
    worst = 0.0
    for _ in range(probes):
        p = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        p /= np.linalg.norm(p)
        tp = term @ p
        for s_op in symmetry_ops:
            worst = max(worst, float(np.linalg.norm(s_op @ tp - term @ (s_op @ p))))
    return worst


@pytest.mark.parametrize("make_model", [lambda: _d3_chain("group"),
                                        lambda: _d3_chain("rep"), _z3_square],
                         ids=["d3-group", "d3-rep", "z3-square"])
def test_gauss_commutators_agree_with_all_elements_and_probes(make_model):
    model = make_model()
    report = verify_model(model, seed=4)
    assert report.passed, str(report.first_failure())
    residuals = {c.name: c.residual for c in report.checks}
    symmetry_ops = _all_gauss_operators(model)
    for name, term in hamiltonian_terms(model).items():
        assert residuals[f"model.gauss_commutes_with_{name}"] <= 1e-10
        exact = max(max_abs(s_op @ term.matrix - term.matrix @ s_op)
                    for s_op in symmetry_ops)
        assert exact <= 1e-10, (name, exact)
        assert _probe_residual(term.matrix, symmetry_ops, seed=4) <= 1e-10


def _sign_flipped_tunneling(model):
    """The tunneling block with the (0, 0) piece of link 0 and its h.c. negated."""
    gb = model.global_basis
    link = model.lattice.links[0]
    piece = model.epsilon[link.index] * lattice_model._place(
        gb.factor_dims, *lattice_model._sum_on_span(gb.factor_dims, [{
            gb.fermion_factor: [lattice_model._hop(model, link.origin, 0, link.target, 0)],
            gb.link_factor(link.index): [model.u_tunneling.entry(0, 0).matrix]}]))
    lo, hi, local = lattice_model._tunneling_term(model)
    return lo, hi, local - 2 * (piece + piece.conj().T)


def _sign_flipped_link_hops(model):
    """The link hops (k, P_l) with the (0, 0) piece of link 0's P_l and its
    h.c. negated."""
    dims = model.global_basis.factor_dims
    link = model.lattice.links[0]
    for k, p in lattice_model._link_hops(model):
        if k == model.global_basis.link_factor(0):
            piece = model.epsilon[0] * lattice_model._sum_on_span([dims[0], dims[k]], [{
                0: [lattice_model._hop(model, link.origin, 0, link.target, 0)],
                1: [model.u_tunneling.entry(0, 0).matrix]}])[2]
            p = p - 2 * (piece + piece.conj().T)
        yield k, p


@pytest.mark.parametrize("name,params,basis", [
    ("D3", {}, "group"), ("D3", {}, "rep"),
    ("SU2_trunc", {"j_max": "1/2"}, "rep")])
def test_fault_injections_fail_the_report(monkeypatch, name, params, basis):
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)

    def failing(include_hc):
        model = Model(build_builtin(name, **params), lat,
                      ModelParams(epsilon=0.5, include_hc=include_hc,
                                  terms=("mass", "tunneling")), basis_tag=basis)
        return {c.name: c.residual for c in verify_model(model).checks
                if not c.passed}

    assert "model.terms_hermitian" in failing(include_hc=False)
    # verification reads the tunneling term as its link hops
    monkeypatch.setattr(verification, "_link_hops", _sign_flipped_link_hops)
    failed = failing(include_hc=True)
    assert failed["model.gauss_commutes_with_tunneling"] > 0.1, failed
    assert "model.gauss_commutes_with_mass" not in failed


@pytest.mark.parametrize("name,params,check", [
    ("D3", {}, "model.vacuum_gauss_invariant"),
    ("SU2_trunc", {"j_max": "1/2"}, "model.vacuum_gauss_neutral")])
def test_non_invariant_vacuum_fails_the_report(monkeypatch, name, params, check):
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    model = Model(build_builtin(name, **params), lat,
                  ModelParams(epsilon=0.5, terms=("mass", "tunneling")))
    factors = _product_factors(model.global_basis.factor_dims, seed=11)
    monkeypatch.setattr(verification, "_vacuum_factors", lambda _model: factors)
    failed = {c.name for c in verify_model(model).checks if not c.passed}
    assert failed == {check}, failed


def test_verify_model_stops_at_a_corrupt_table(tmp_path):
    path = tmp_path / "d3.json"
    dump_group_file(build_builtin("D3"), path)
    doc = json.loads(path.read_text())
    doc["mul"] = [99] * len(doc["mul"])
    path.write_text(json.dumps(doc))
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    report = verify_model(Model(load_group_file(path), lat,
                                ModelParams(terms=("magnetic",))))
    assert not report.passed
    assert report.first_failure().name == "group.mul.latin_square"
    assert all(c.name.startswith("group.") for c in report.checks)


def test_row_sliced_commutator_equals_the_unsliced_one(monkeypatch):
    model = _d3_chain("rep")
    term = _sign_flipped_tunneling(model)[2]
    ops = [gauss_operator(model, v, g).matrix for v in range(model.lattice.n_vertices)
           for g in model.entry.spec.generating_set()]
    whole = max(max_abs(s_op @ term - term @ s_op) for s_op in ops)
    # 256 stored entries in 96 rows: 16 slices
    monkeypatch.setattr(operators, "SLICE_NNZ", 16)
    assert len(list(operators._row_slices(term.indptr))) == 16
    assert verification._commutator_residual(term, ops) == whole > 0.1
    # one large entry in the last row (the filled Fock state, which every
    # Gauss operator keeps): the largest residual entries lie in the last slice
    spiked = term + sp.csr_matrix(([10.0], ([95], [0])), shape=term.shape)
    whole = max(max_abs(s_op @ spiked - spiked @ s_op) for s_op in ops)
    assert verification._commutator_residual(spiked, ops) == whole > 1


def test_commutator_residual_consumes_a_generator(monkeypatch):
    model = _d3_chain("rep")
    term = _sign_flipped_tunneling(model)[2]
    # the largest residual entries in the last of 16 row slices, as above:
    # every operator the generator yields must meet every slice
    term = term + sp.csr_matrix(([10.0], ([95], [0])), shape=term.shape)
    monkeypatch.setattr(operators, "SLICE_NNZ", 16)
    pairs = [(v, g) for v in range(model.lattice.n_vertices)
             for g in model.entry.spec.generating_set()]
    ops = [gauss_operator(model, v, g).matrix for v, g in pairs]
    lazy = (gauss_operator(model, v, g).matrix for v, g in pairs)
    assert verification._commutator_residual(term, lazy) \
        == verification._commutator_residual(term, ops) > 1


# ---------------------------------------------------------------------------
# Gauss commutators on each term's span against full-space oracles

def _su2_chain():
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    return Model(build_builtin("SU2_trunc", j_max="1/2"), lat,
                 ModelParams(mass=0.6, epsilon=0.9, coupling=1.1))


def _full_space_symmetry(model, every_element):
    """Full-space Gauss generators (Lie), or Gauss operators of every element
    or of the generating set the report uses (finite)."""
    vertices = range(model.lattice.n_vertices)
    if model.entry.is_lie:
        return [g.matrix for v in vertices for g in gauss_generators(model, v)]
    spec = model.entry.spec
    elements = range(spec.order) if every_element else spec.generating_set()
    return [gauss_operator(model, v, g).matrix for v in vertices for g in elements]


def _full_commutator(term, symmetry_ops):
    return max(max_abs(s_op @ term - term @ s_op) for s_op in symmetry_ops)


@pytest.mark.parametrize("make_model", [lambda: _d3_chain("group"),
                                        lambda: _d3_chain("rep"), _z3_square, _su2_chain],
                         ids=["d3-group", "d3-rep", "z3-square", "su2-chain"])
def test_span_residuals_equal_the_full_space_ones(make_model):
    model = make_model()
    report = verify_model(model, seed=2)
    assert report.passed, str(report.first_failure())
    residuals = {c.name: c.residual for c in report.checks}
    symmetry_ops = _full_space_symmetry(model, every_element=True)
    herm = 0.0
    for name, term in hamiltonian_terms(model).items():
        full = _full_commutator(term.matrix, symmetry_ops)
        assert abs(residuals[f"model.gauss_commutes_with_{name}"] - full) <= 1e-13, name
        herm = max(herm, max_abs(term.matrix - term.matrix.conj().T))
    assert abs(residuals["model.terms_hermitian"] - herm) <= 1e-13


def _reflection_on_every_link(model):
    """sum over links of Theta^R(s) for a reflection s: a Hermitian link-only
    block whose kernel delta_s is not a class function, so not gauge invariant."""
    s = model.entry.spec.generating_set()[1]
    assert model.entry.spec.mul[s, s] == 0 and s != 0
    gb = model.global_basis
    theta = theta_group_basis(model.link_space, s, "R").matrix
    return lattice_model._sum_on_span(gb.factor_dims, [
        {gb.link_factor(link.index): [theta]} for link in model.lattice.links])


@pytest.mark.parametrize("basis", ["group", "rep"])
def test_link_by_link_basis_agreement_equals_the_dense_unitary(monkeypatch, basis):
    model = _d3_chain(basis)
    names = model.terms
    got = verification._basis_agreement_residual(model, names)
    assert abs(got - basis_agreement_dense(model, names)) <= 1e-13, got
    # a term built in the group basis in both models: the bases disagree
    monkeypatch.setitem(lattice_model._TERMS, "electric", _reflection_on_every_link)
    got = verification._basis_agreement_residual(model, names)
    ref = basis_agreement_dense(model, names)
    assert got > 0.1 and ref > 0.1, (got, ref)
    assert abs(got - ref) <= 1e-12 * ref, (got, ref)


def _one_mode_number(model):
    """n of mode 0 at vertex 0: a fermion-only block that the vertex's
    transformation mixes with mode 1."""
    gb = model.global_basis
    psi = model.fermion_annihilation(0, 0)
    return lattice_model._sum_on_span(gb.factor_dims,
                                      [{gb.fermion_factor: [psi.conj().T @ psi]}])


@pytest.mark.parametrize("term,builder,make_model", [
    ("electric", _reflection_on_every_link, lambda: _d3_chain("group")),
    ("mass", _one_mode_number, lambda: _d3_chain("group")),
    ("mass", _one_mode_number, lambda: _d3_chain("rep")),
    ("mass", _one_mode_number, _su2_chain),
], ids=["link-only-d3-group", "fermion-only-d3-group", "fermion-only-d3-rep",
        "fermion-only-su2"])
def test_injected_block_faults_match_the_full_space_residual(monkeypatch, term, builder,
                                                             make_model):
    monkeypatch.setitem(lattice_model._TERMS, term, builder)
    model = make_model()
    report = verify_model(model, seed=2)
    failed = {c.name: c.residual for c in report.checks if not c.passed}
    # a fault built in one link basis also breaks the rep/group agreement
    model_checks = {name for name in failed
                    if name != "model.rep_group_hamiltonian_agreement"}
    assert model_checks == {f"model.gauss_commutes_with_{term}"}, failed
    reported = failed[f"model.gauss_commutes_with_{term}"]
    placed = observable(model, f"{term}_energy").matrix
    full = _full_commutator(placed, _full_space_symmetry(model, every_element=False))
    assert reported > 0.1
    assert abs(reported - full) <= 1e-12 * full, (reported, full)


def test_verify_never_forms_the_full_space_local_terms():
    # L1: D3 2x2 open with matter in the group basis, dim 331 776.  Its
    # full-space electric term has 21 * 331 776 = 6 967 296 nonzeros (6 a row
    # on each of the 4 links, the diagonal shared), about 133 MiB of
    # complex128 values and int32 indices.
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0},
                         terms=("mass", "electric", "magnetic"))
    model = Model(build_builtin("D3"), lat, params, basis_tag="group")
    electric_csr_bytes = 6_967_296 * (16 + 4)
    tracemalloc.start()
    try:
        report = verify_model(model, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed, str(report.first_failure())
    assert peak < electric_csr_bytes, peak


def test_span_commutator_equals_the_full_space_one_for_any_product():
    # Gauss operators here have largest entry 1 on every factor, so this
    # checks the Kronecker-maximum scaling with random factors instead
    rng = np.random.default_rng(3)
    dims = [2, 3, 2, 3]

    def rand(n):
        return sp.csr_matrix(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))

    lo, hi = 1, 3
    block = rand(dims[1] * dims[2])
    full_term = lattice_model._place(dims, lo, hi, block)
    product_op = [{0: [rand(2)], 2: [rand(2), rand(2)], 3: [rand(3)]}]
    generator = [{f: [rand(n)]} for f, n in enumerate(dims)]
    for pieces in (product_op, generator):
        full_op = lattice_model._place(dims, *lattice_model._sum_on_span(dims, pieces))
        full = max_abs(full_op @ full_term - full_term @ full_op)
        on_span = verification._on_span(dims, range(lo, hi), pieces)
        got = verification._commutator_residual(block, [on_span])
        assert abs(got - full) <= 1e-13 * full, (got, full)


def test_verify_holds_one_full_space_gauss_operator_at_a_time():
    # L1: D3 2x2 open with matter in the group basis, every term.  Its
    # tunneling block spans every factor: 2 211 840 nonzeros, 42.2 MiB of
    # complex128 values and int32 indices.  Each of the 12 full-space Gauss
    # operators it is checked against is about as large, so holding them all
    # at once, or building them a second time for the vacuum probe while one
    # is held, would exceed this bound.
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    model = Model(build_builtin("D3"), lat, params, basis_tag="group")
    tunneling_csr_bytes = 2_211_840 * (16 + 4)
    tracemalloc.start()
    try:
        report = verify_model(model, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed, str(report.first_failure())
    assert peak < 2.5 * tunneling_csr_bytes, peak


def test_verify_builds_the_tunneling_block_without_a_running_sum():
    # L1 as above.  Adding the link hops to a running sum holds the old sum,
    # the next placed hop and the new sum at once, and a transposed copy of
    # the block for its Hermiticity check: 92.3 MiB under tracemalloc (2.19x
    # the block's CSR bytes).  The hops written one slice of fermion digits
    # at a time into arrays allocated once, and the check read through a
    # transposed index map, peak at about 76.6 MiB (1.81x).
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    model = Model(build_builtin("D3"), lat, params, basis_tag="group")
    tunneling_csr_bytes = 2_211_840 * (16 + 4)
    tracemalloc.start()
    try:
        report = verify_model(model, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed, str(report.first_failure())
    assert peak < 2.0 * tunneling_csr_bytes, peak


def _traced_peak(model):
    """verify_model(model, seed=1) and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        report = verify_model(model, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return report, peak


def test_verify_model_l1_never_holds_a_full_space_block():
    # L1 as above.  Its tunneling CSR alone takes 42.2 MiB, and each full-space
    # Gauss operator about as much; built from the link hops, the stars and
    # one range of fermion digits per Gauss operator, the peak is that of
    # building the hops (about 34 MiB), where it was 76.4 MiB
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    report, peak = _traced_peak(Model(build_builtin("D3"), lat, params, basis_tag="group"))
    assert report.passed, str(report.first_failure())
    assert peak < 38 * 2**20, peak


def test_verify_model_l1_holds_its_hops_as_h_takes_them():
    # L1 as above.  The hops are kept in float64, as H takes them: 34.0 MiB
    # before, when the last hop was summed whole, and 21.1 MiB with the hops
    # written on their spans; held as P_l on their two factors, 11.9 MiB,
    # and 5.0 MiB with the vacuum read on each star's own factors
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    report, peak = _traced_peak(Model(build_builtin("D3"), lat, params, basis_tag="group"))
    assert report.passed, str(report.first_failure())
    assert peak < 24 * 2**20, peak


def test_verify_model_l4_holds_no_full_space_operator():
    # L4: SU(2) j <= 1/2 2x2 open with matter, dim 160 000, where the
    # full-space Gauss generators and tunneling block peaked at 40.7 MiB
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    model = Model(build_builtin("SU2_trunc", j_max="1/2"), lat,
                  ModelParams(mass=1.0, epsilon=0.7, coupling=1.3))
    report, peak = _traced_peak(model)
    assert report.passed, str(report.first_failure())
    assert peak < 20 * 2**20, peak


@pytest.mark.parametrize("name,params,basis,bound", [
    ("D3", {"electric_weights": {"I": 0.0, "p": 1.0, "2": 1.0}}, "group", 8 * 2**20),
    ("SU2_trunc", {}, "rep", 4 * 2**20)], ids=["L1", "L4"])
def test_verify_model_builds_no_full_space_vacuum(monkeypatch, name, params, basis, bound):
    # L1 and L4 as above.  The vacuum is a product of one unit vector per
    # factor, read on each star's own factors: the full-space vector (331 776
    # entries on L1, 160 000 on L4) is never built, and the peak is 5.0 MiB
    # on L1 and 2.3 MiB on L4, where it was 11.9 and 5.8 MiB with it
    def no_full_space(_model):
        raise AssertionError("built the full-space vacuum")

    monkeypatch.setattr(lattice_model, "vacuum_state", no_full_space)
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    catalog = build_builtin(name, **({} if name == "D3" else {"j_max": "1/2"}))
    model = Model(catalog, lat, ModelParams(mass=1.0, epsilon=0.7, coupling=1.3, **params),
                  basis_tag=basis)
    report, peak = _traced_peak(model)
    assert report.passed, str(report.first_failure())
    assert peak < bound, peak


# ---------------------------------------------------------------------------
# the vacuum probes against test-side oracles

def _z3_pure_square():
    lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
    return Model(build_builtin("Z_N", N=3), lat, ModelParams(coupling=1.1),
                 basis_tag="group")


def _vacuum_residual(model, vac):
    """max |G_a vac| over the Lie Gauss generators, or max |Theta_v(s) vac - vac|
    over the vertices and the generating set, each operator on the full space."""
    vertices = range(model.lattice.n_vertices)
    if model.entry.is_lie:
        return max(float(np.linalg.norm(gen.matrix @ vac))
                   for v in vertices for gen in gauss_generators(model, v))
    return max(float(np.linalg.norm(gauss_operator(model, v, g).matrix @ vac - vac))
               for v in vertices for g in model.entry.spec.generating_set())


def _product_factors(dims, seed):
    """Random complex unit vectors, one per factor."""
    rng = np.random.default_rng(seed)
    vecs = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for dim in dims]
    return [vec / np.linalg.norm(vec) for vec in vecs]


@pytest.mark.parametrize("make_model,check", [
    (lambda: _d3_chain("group"), "model.vacuum_gauss_invariant"),
    (lambda: _d3_chain("rep"), "model.vacuum_gauss_invariant"),
    (_z3_pure_square, "model.vacuum_gauss_invariant"),
    (_su2_chain, "model.vacuum_gauss_neutral"),
], ids=["d3-group", "d3-rep", "z3-pure-square", "su2-chain"])
def test_vacuum_probe_equals_the_full_space_oracle(monkeypatch, make_model, check):
    model = make_model()
    residuals = {c.name: c.residual for c in verify_model(model, seed=2).checks}
    expected = _vacuum_residual(model, vacuum_state(model))
    assert expected <= 1e-12
    assert abs(residuals[check] - expected) <= 1e-13, (residuals[check], expected)
    # a product state that no Gauss operator leaves alone
    factors = _product_factors(model.global_basis.factor_dims, seed=5)
    state = functools.reduce(np.kron, factors, np.ones(1))
    monkeypatch.setattr(verification, "_vacuum_factors", lambda _model: factors)
    report = verify_model(model, seed=2)
    failed = {c.name: c.residual for c in report.checks if not c.passed}
    assert set(failed) == {check}, failed
    expected = _vacuum_residual(model, state)
    assert expected > 0.1
    assert abs(failed[check] - expected) <= 1e-12 * expected, (failed[check], expected)


@pytest.mark.parametrize("name,params", [
    ("D3", {"electric_weights": {"I": 0.0, "p": 1.0, "2": 1.0}}), ("Z_N", {})])
@pytest.mark.parametrize("basis", ["group", "rep"])
def test_a_vertex_with_an_empty_star_keeps_the_vacuum(name, params, basis):
    # 1x1 open without matter: the one vertex has no link and no Fock
    # modes, so its Gauss operator is the empty product, the identity on
    # the one-state space, which physical_basis keeps
    lat = LatticeSpec(1, 1, boundary="open", include_matter=False)
    model = Model(build_builtin(name, **({"N": 3} if name == "Z_N" else {})), lat,
                  ModelParams(coupling=1.0, **params), basis_tag=basis)
    assert lattice_model.physical_basis(model).shape == (1, 1)
    report = verify_model(model, seed=1)
    assert report.passed, str(report.first_failure())
    checks = {c.name: c.residual for c in report.checks}
    assert checks["model.vacuum_gauss_invariant"] == 0.0
    for term in ("electric", "magnetic"):
        assert checks[f"model.gauss_commutes_with_{term}"] == 0.0, checks


# ---------------------------------------------------------------------------
# the tunneling term on each vertex's star, and the probe of its block

D3_WEIGHTS = {"I": 0.0, "p": 1.0, "2": 1.0}


def _d3_ring(basis):
    """D3 2x1, periodic in x, with matter: two links join vertices 0 and 1."""
    lat = LatticeSpec(2, 1, boundary=("periodic", "open"), include_matter=True)
    return Model(build_builtin("D3"), lat,
                 ModelParams(mass=0.8, epsilon=0.6, coupling=1.2, electric_weights=D3_WEIGHTS),
                 basis_tag=basis)


def _d3_torus(basis):
    """D3 1x1 periodic with matter: both links are self-loops at vertex 0."""
    lat = LatticeSpec(1, 1, boundary="periodic", include_matter=True)
    return Model(build_builtin("D3"), lat,
                 ModelParams(mass=0.8, epsilon=0.6, coupling=1.2, staggered=False,
                             electric_weights=D3_WEIGHTS), basis_tag=basis)


def _su2_ring():
    lat = LatticeSpec(2, 1, boundary=("periodic", "open"), include_matter=True)
    return Model(build_builtin("SU2_trunc", j_max="1/2"), lat,
                 ModelParams(mass=0.6, epsilon=0.9, coupling=1.1))


RING_MODELS = [lambda: _d3_ring("group"), lambda: _d3_ring("rep"),
               lambda: _d3_torus("group"), lambda: _d3_torus("rep"), _su2_ring]
RING_IDS = ["d3-ring-group", "d3-ring-rep", "d3-torus-group", "d3-torus-rep", "su2-ring"]


def _star_commutator(model):
    """``_star_residual``'s commutator residual over the hops as
    ``verify_model`` takes them (``verification._link_hops``, patched or not,
    through ``_real``) and each vertex's Gauss generators or the Gauss
    operators of a generating set."""
    probes = ([{"component": a} for a in range(model.entry.n_generator_components)]
              if model.entry.is_lie else [{"g": g} for g in model.entry.spec.generating_set()])
    hops = [lattice_model._real(hop) for hop in verification._link_hops(model)]
    symmetry = [lattice_model._gauss_products(model, v, **probe)
                for v in range(model.lattice.n_vertices) for probe in probes]
    return verification._star_residual(model, hops, symmetry)[0]


def _sign_flipped_hops(hop_products):
    """``_hop_products`` with the fermion part of every link's (0, 0) product negated."""
    def flipped(model, link):
        products, coeff, hc = hop_products(model, link)
        fermion = model.global_basis.fermion_factor
        products[0] = {**products[0], fermion: [-products[0][fermion][0]]}
        return products, coeff, hc
    return flipped


@pytest.mark.parametrize("make_model", RING_MODELS, ids=RING_IDS)
def test_star_residual_equals_the_full_space_one(monkeypatch, make_model):
    # links whose supports overlap: two links between the same two vertices,
    # or two self-loops, each counted once in T_v
    model = make_model()
    symmetry_ops = _full_space_symmetry(model, every_element=False)
    report = verify_model(model, seed=2)
    assert report.passed, str(report.first_failure())
    for faulty in (False, True):
        if faulty:
            # the same fault in H's hops and in the star's: no longer invariant
            flipped = _sign_flipped_hops(lattice_model._hop_products)
            monkeypatch.setattr(lattice_model, "_hop_products", flipped)
        term = observable(model, "tunneling_energy").matrix
        full = _full_commutator(term, symmetry_ops)
        star = _star_commutator(model)
        assert abs(star - full) <= 1e-13, (star, full)
        assert (full > 0.1) if faulty else (full <= 1e-13), full


@pytest.mark.parametrize("basis,expected", [("group", 0.8), ("rep", 0.4)])
def test_hermiticity_of_overlapping_hops_is_that_of_their_sum(basis, expected):
    # D3 2x1 ring without the h.c.: both links join vertices 0 and 1, and in
    # the group basis, where U is diagonal, their hops share every entry, so
    # max |T - T^dag| of the sum is 2 eps = 0.8, not the 0.4 of either link
    lat = LatticeSpec(2, 1, boundary=("periodic", "open"), include_matter=True)
    model = Model(build_builtin("D3"), lat,
                  ModelParams(mass=0.8, epsilon=0.4, coupling=1.2, include_hc=False,
                              electric_weights=D3_WEIGHTS), basis_tag=basis)
    term = observable(model, "tunneling_energy").matrix
    full = max_abs(term - term.conj().T)
    assert abs(full - expected) <= 1e-13 * expected, full
    failed = {c.name: c.residual for c in verify_model(model, seed=2).checks if not c.passed}
    assert set(failed) == {"model.terms_hermitian"}, failed
    assert abs(failed["model.terms_hermitian"] - full) <= 1e-13 * full, failed


def _misplaced_hops(model):
    """The link hops (k, P_l), link 0's P_l yielded on link 1's factor."""
    gb = model.global_basis
    for k, p in lattice_model._link_hops(model):
        yield (gb.link_factor(1) if k == gb.link_factor(0) else k), p


def _misplaced_tunneling(model):
    """The tunneling block summed from ``_misplaced_hops``: Hermitian, but not
    gauge invariant."""
    dims = model.global_basis.factor_dims
    return lattice_model._sum_blocks(dims, 0, len(dims), (
        lattice_model._hop_block(dims, *hop) for hop in _misplaced_hops(model)))


def test_a_hop_placed_on_the_wrong_link_fails_the_tunneling_check(monkeypatch):
    # D3 2x1 ring: links 0 and 1 join vertices 0 and 1 in opposite
    # directions, so link 0's P_l on link 1's factor is Hermitian but meets
    # the Gauss law at its ends the wrong way round; the star pass, which
    # reads every stored entry of every P_l, sees it at every seed, also
    # with 16 stored entries a row slice
    monkeypatch.setattr(operators, "SLICE_NNZ", 16)
    monkeypatch.setattr(verification, "_link_hops", _misplaced_hops)
    model = _d3_ring("rep")
    block = _misplaced_tunneling(model)[2]
    assert max_abs(block - block.conj().T) == 0.0
    assert len(list(operators._row_slices(block.indptr))) > 100
    for seed in range(5):
        failed = {c.name: c.residual for c in verify_model(model, seed=seed).checks
                  if not c.passed}
        assert failed.get("model.gauss_commutes_with_tunneling", 0.0) > 0.1, (seed, failed)
        assert "model.gauss_commutes_with_mass" not in failed
    assert _star_commutator(model) > 0.1


def test_verify_model_l1_writes_no_tunneling_block_wider_than_a_star(monkeypatch):
    # L1: D3 2x2 open with matter in the group basis.  A vertex star, the
    # fermion factor and two link factors, has 256 * 6 * 6 = 9 216 rows.
    # The last link's hop placed on the lattice spans every factor (331 776
    # rows, 552 960 entries) and the tunneling block 2 211 840 entries; the
    # hops are read once, as P_l on their two factors, and nothing written
    # while verifying, by ``_written`` or as a summed block, is wider than a
    # star
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3, electric_weights=D3_WEIGHTS)
    model = Model(build_builtin("D3"), lat, params, basis_tag="group")
    rows, reads = [], []
    written, summed, link_hops = (lattice_model._written, lattice_model._sum_on_span,
                                  verification._link_hops)

    def unbuildable(model):
        raise AssertionError("built the whole tunneling term")

    def summing(*args):
        block = summed(*args)
        rows.append(block[2].shape[0])
        return block

    monkeypatch.setattr(lattice_model, "_written",
                        lambda dim, *args: rows.append(dim) or written(dim, *args))
    monkeypatch.setattr(lattice_model, "_sum_on_span", summing)
    monkeypatch.setattr(verification, "_sum_on_span", summing)
    monkeypatch.setattr(verification, "_link_hops",
                        lambda model: reads.append(model) or link_hops(model))
    monkeypatch.setitem(lattice_model._TERMS, "tunneling", unbuildable)
    report = verify_model(model, seed=1)
    assert report.passed, str(report.first_failure())
    assert reads == [model]
    assert max(rows) == 9216, max(rows)


def _one_value_changed(model):
    """The link hops (k, P_l), the last P_l with one stored value changed by 0.5."""
    hops = list(lattice_model._link_hops(model))
    k, p = hops[-1]
    p = p.copy()
    p.data[p.nnz // 2] += 0.5
    return hops[:-1] + [(k, p)]


def test_one_wrong_entry_fails_the_tunneling_check_at_every_seed(monkeypatch):
    # D3 2x1 ring in the rep basis.  With 16 stored entries a slice, each
    # slice holds about one fermion digit, so a check that read only the
    # slices a seed picks would miss the entry at some seeds; the star pass
    # reads every stored entry of every P_l at every seed
    monkeypatch.setattr(operators, "SLICE_NNZ", 16)
    monkeypatch.setattr(verification, "_link_hops", _one_value_changed)
    model = _d3_ring("rep")
    for seed in range(10):
        failed = {c.name: c.residual for c in verify_model(model, seed=seed).checks
                  if not c.passed}
        assert failed.get("model.gauss_commutes_with_tunneling", 0.0) > 0.1, (seed, failed)



def _ring(name, basis, **params):
    """A 2x1 lattice periodic in x with matter, for a group with default
    electric weights: two links join vertices 0 and 1."""
    lat = LatticeSpec(2, 1, boundary=("periodic", "open"), include_matter=True)
    return Model(build_builtin(name, **params), lat,
                 ModelParams(mass=0.8, epsilon=0.6, coupling=1.2), basis_tag=basis)


HOP_MODELS = RING_MODELS + [
    lambda: _ring("Z_N", "group", N=3), lambda: _ring("Z_N", "rep", N=3),
    lambda: _ring("U1_trunc", "rep", P=1)]
HOP_IDS = RING_IDS + ["z3-ring-group", "z3-ring-rep", "u1-ring"]


def _dense_hop(dims, k, p):
    """P on the fermion factor and link factor k, placed on every factor by
    numpy alone: dense identities on the factors between and after."""
    shape = (dims[0], int(np.prod(dims[1:k])), dims[k], int(np.prod(dims[k + 1:])))
    two = p.toarray().reshape(dims[0], dims[k], dims[0], dims[k])
    placed = np.einsum("iajb,mn,pq->imapjnbq", two, np.eye(shape[1]), np.eye(shape[3]))
    return placed.reshape((int(np.prod(shape)),) * 2)


@pytest.mark.parametrize("make_model", HOP_MODELS, ids=HOP_IDS)
def test_each_hop_as_h_takes_it_is_its_p_l_on_two_factors(monkeypatch, make_model):
    # every link hop that H takes is its P_l, on the fermion factor and the
    # link's factor, with identities on the factors between, value for value
    # against a dense placement; and with one value of the last P_l changed,
    # the report's Hermiticity and the star pass read the full-space residuals
    # of the faulty term
    model = make_model()
    gb = model.global_basis
    dims = gb.factor_dims
    hops = list(lattice_model._link_hops(model))
    assert [k for k, _ in hops] == [gb.link_factor(link.index) for link in model.lattice.links]
    after = int(np.prod(dims))
    for k, p in hops:
        assert p.shape == (dims[0] * dims[k],) * 2
        expected = _dense_hop(dims, k, lattice_model._real((k, p.copy()))[1])
        lo, hi, local = lattice_model._real(lattice_model._hop_block(dims, k, p))
        assert (lo, hi) == (0, k + 1)
        outer = after // local.shape[0]
        assert np.array_equal(np.kron(local.toarray(), np.eye(outer)), expected)
    monkeypatch.setattr(verification, "_link_hops", _one_value_changed)
    term = sum(_dense_hop(dims, *lattice_model._real((k, p)))
               for k, p in _one_value_changed(model))
    herm = max_abs(sp.csr_matrix(term - term.conj().T))
    full = _full_commutator(sp.csr_matrix(term), _full_space_symmetry(model, every_element=False))
    assert max(herm, full) > 0.1, (herm, full)
    residuals = {c.name: c.residual for c in verify_model(model, seed=2).checks}
    assert abs(residuals["model.terms_hermitian"] - herm) <= 1e-13, (residuals, herm)
    star = _star_commutator(model)
    assert abs(star - full) <= 1e-13, (star, full)


def _off_link_number(model):
    """The link hops (k, P_l), link 0's P_l with 0.5 n added for mode 0 of
    vertex 2, which link 0 does not touch: Hermitian, not gauge invariant."""
    psi = model.fermion_annihilation(2, 0)
    dims = model.global_basis.factor_dims
    hops = list(lattice_model._link_hops(model))
    k, p = hops[0]
    extra = lattice_model._sum_on_span([dims[0], dims[k]], [{
        0: [0.5 * psi.conj().T @ psi], 1: [sp.identity(dims[k], format="csr")]}])[2]
    return [(k, p + extra)] + hops[1:]


@pytest.mark.parametrize("basis", ["group", "rep"])
def test_a_hop_acting_off_its_link_fails_the_tunneling_check(monkeypatch, basis):
    # D3 3x1 open with matter: the endpoints' stars of link 0 do not see a
    # term on vertex 2's modes, so vertex 2's Gauss operators meet link 0's
    # P on the fermion factor and link 0's factor
    monkeypatch.setattr(verification, "_link_hops", _off_link_number)
    lat = LatticeSpec(3, 1, boundary="open", include_matter=True)
    model = Model(build_builtin("D3"), lat,
                  ModelParams(mass=0.8, epsilon=0.6, coupling=1.2, electric_weights=D3_WEIGHTS),
                  basis_tag=basis)
    failed = {c.name: c.residual for c in verify_model(model).checks if not c.passed}
    assert set(failed) == {"model.gauss_commutes_with_tunneling"}, failed
    assert failed["model.gauss_commutes_with_tunneling"] > 0.1, failed


@pytest.mark.parametrize("basis", ["group", "rep"])
def test_finite_group_report_does_not_depend_on_the_seed(basis):
    # a finite group's checks take every element, and the tunneling check
    # reads every stored entry of every hop, so no residual follows the seed
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    square = Model(build_builtin("D3"), lat,
                   ModelParams(mass=1.0, epsilon=0.7, coupling=1.3, electric_weights=D3_WEIGHTS),
                   basis_tag=basis)
    for model in (_d3_ring(basis), square):
        reports = [[(c.name, c.residual) for c in verify_model(model, seed=seed).checks]
                   for seed in range(5)]
        assert all(report == reports[0] for report in reports), reports


# ---------------------------------------------------------------------------
# link and vertex identities: faults in their builders, and the Lie catalogs

def _last_state_sign_conjugated(theta_right):
    def faulty(space, g):
        sign = sp.diags(np.r_[np.ones(space.dim - 1), -1.0])
        return Operator(space, sign @ theta_right(space, g).matrix @ sign, REP)
    return faulty


def _u00_negated(u_matrix):
    def faulty(space, j=None, basis_tag=REP):
        u = u_matrix(space, j, basis_tag)
        u.entries[0][0] = -1 * u.entries[0][0]
        return u
    return faulty


def _state_one_phased(theta_q):
    def faulty(space, entry, g):
        phase = np.ones(space.dim, dtype=complex)
        phase[1] = 1j
        return Operator(space, sp.diags(phase) @ theta_q(space, entry, g).matrix)
    return faulty


BUILDER_FAULTS = {"theta_right": _last_state_sign_conjugated, "u_matrix": _u00_negated,
                  "theta_q": _state_one_phased}


BUILDER_FAULT_CASES = [
    (lambda: _d3_chain("group"), "theta_right",
     {"theta.fourier_to_translations", "theta.left_right_commute", "u.covariance"}),
    (lambda: _d3_chain("group"), "u_matrix", {"u.covariance", "u.unitarity"}),
    (lambda: _d3_chain("group"), "theta_q",
     {"matter.covariance_parity0", "matter.covariance_parity1",
      "matter.theta_group_law_parity0", "matter.theta_group_law_parity1"}),
    (_su2_chain, "theta_right", {"theta.left_right_commute", "u.covariance"}),
    (_su2_chain, "u_matrix", {"u.covariance", "u.generator_commutators"}),
    (_su2_chain, "theta_q", {"matter.covariance_parity0", "matter.covariance_parity1"})]
BUILDER_FAULT_IDS = ["d3-theta-right", "d3-u00", "d3-theta-q",
                     "su2-theta-right", "su2-u00", "su2-theta-q"]


def _lie_chain(name, **params):
    lat = LatticeSpec(2, 1, boundary="open", include_matter=True)
    return Model(build_builtin(name, **params), lat,
                 ModelParams(mass=1.0, epsilon=0.7, coupling=1.3))


@pytest.mark.parametrize("make_model,builder,failing", BUILDER_FAULT_CASES,
                         ids=BUILDER_FAULT_IDS)
def test_builder_faults_fail_exactly_their_checks(monkeypatch, make_model, builder, failing):
    # the fault lives in verification's own builders, so the model's terms
    # and Gauss operators are untouched and every model.* check still passes
    monkeypatch.setattr(verification, builder,
                        BUILDER_FAULTS[builder](getattr(verification, builder)))
    report = verify_model(make_model(), seed=2)
    assert {c.name for c in report.checks if not c.passed} == failing
    assert any(c.name.startswith("model.") for c in report.checks)


@pytest.mark.parametrize("name,params", [("U1_trunc", {"P": 1}), ("SU2_trunc", {"j_max": "1"})],
                         ids=["u1-P1", "su2-jmax-one"])
def test_verify_model_lie_catalogs(name, params):
    # SU(2) j_max = 1 has 14 link states and drops coupling channels
    model = _lie_chain(name, **params)
    report = verify_model(model, seed=1)
    assert report.passed, str(report.first_failure())
    names = {c.name for c in report.checks}
    expected = {"theta.casimir_left_equals_right", "u.covariance", "u.generator_commutators"}
    if model.entry.lie_kind == "su2":
        expected.add("u.trace_defect_closed_form")
    assert expected <= names, names


@pytest.mark.parametrize("make_model,builder,failing", [
    *BUILDER_FAULT_CASES,
    (lambda: _d3_chain("group"), None, set()), (lambda: _d3_chain("rep"), None, set()),
    (_su2_chain, None, set()), (_z3_square, None, set()),
    (lambda: _lie_chain("U1_trunc", P=1), None, set()),
    (lambda: _lie_chain("SU2_trunc", j_max="1"), None, set())],
    ids=[*BUILDER_FAULT_IDS, "d3-group", "d3-rep", "su2", "z3-square", "u1-P1", "su2-jmax-one"])
def test_link_identities_equal_the_loop_reference(monkeypatch, make_model, builder, failing):
    # the stacked residuals against one element, entry and mode at a time,
    # to float64 rounding of entries of size max(1, residual)
    if builder:
        monkeypatch.setattr(verification, builder,
                            BUILDER_FAULTS[builder](getattr(verification, builder)))
    model = make_model()
    checks = {c.name: c for c in verify_model(model, seed=2).checks
              if c.name.startswith(("theta.", "u.", "matter."))}
    checks.pop("u.trace_defect_closed_form", None)
    reference = oracles.link_identities_by_loops(model, seed=2)
    assert checks.keys() == reference.keys()
    for name, value in reference.items():
        assert abs(checks[name].residual - value) <= 1e-14 * max(1.0, value), \
            (name, checks[name].residual, value)
    assert {name for name, value in reference.items()
            if value > checks[name].tolerance} == failing


@pytest.mark.parametrize("make_model", [
    lambda: _d3_chain("group"), _su2_chain, _z3_square,
    lambda: _lie_chain("U1_trunc", P=1), lambda: _lie_chain("SU2_trunc", j_max="1")],
    ids=["d3-group", "su2", "z3-square", "u1-P1", "su2-jmax-one"])
def test_group_and_cg_checks_equal_the_loop_reference(make_model):
    # the group.* checks are validate's, in its order; cg.intertwiner is the
    # largest verify_cg residual over every channel J (x) j, and
    # cg.completeness compares each J's stacked CG columns one pair at a time
    model = make_model()
    entry, fund = model.entry, model.magnetic_rep
    checks = {c.name: c.residual for c in verify_model(model, seed=2).checks}
    channels = {ir.label: decompose(entry, ir.label, fund) for ir in entry.irreps}
    tensors = {label: [cg(entry, label, fund, k) for k, _ in dec.terms]
               for label, dec in channels.items()}
    reference = oracles.group_laws_by_loops(entry, [t for ts in tensors.values() for t in ts])
    reference["cg.intertwiner"] = max(reference.pop(name) for name in list(reference)
                                      if name.startswith("cg."))
    columns = [np.hstack([t.matrix() for t in tensors[label]]).T
               for label, dec in channels.items() if not dec.dropped and dec.terms]
    reference["cg.completeness"] = max(abs(np.vdot(a, b) - (p == q))
                                       for cols in columns
                                       for p, a in enumerate(cols) for q, b in enumerate(cols))
    found = {name.removeprefix("group."): value for name, value in checks.items()
             if name.startswith(("group.", "cg."))}
    assert list(found) == list(reference)
    for name, value in reference.items():
        assert abs(found[name] - value) <= 1e-14 * max(1.0, value), (name, found[name], value)


@pytest.mark.parametrize("name,check", [
    ("verify_cg", "cg.intertwiner"), ("hermiticity_residual", "model.terms_hermitian"),
    ("_commutator_residual", "model.gauss_commutes_with_tunneling"),
    ("_unitarity", "theta.unitary"), ("group_law_residual", "theta.group_law")])
def test_a_nan_in_a_late_part_fails_its_check(monkeypatch, name, check):
    # the first part is finite and every later one NaN: a max that keeps its
    # first value would report the finite one and pass
    original, calls = getattr(verification, name), []

    def late_nan(*args, **kwargs):
        calls.append(name)
        value = original(*args, **kwargs)
        return value if len(calls) == 1 else float("nan")

    monkeypatch.setattr(verification, name, late_nan)
    found = {c.name: c for c in verify_model(_d3_chain("group"), seed=2).checks}[check]
    assert np.isnan(found.residual) and not found.passed
