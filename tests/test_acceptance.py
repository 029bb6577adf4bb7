"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines; tolerances are fixed here and never loosened at runtime.
"""

import collections
import json
import time

import numpy as np
import yaml
from click.testing import CliRunner

from fockgauge.cli import main as cli_main
from fockgauge.group_core import (
    build_builtin,
    character_table,
    fourier_matrix,
    great_orthogonality_residual,
)
from fockgauge.lattice_model import (
    LatticeSpec,
    Model,
    ModelParams,
    build_hamiltonian,
    gauss_generators,
    gauss_operator,
    hamiltonian_terms,
    physical_basis,
    physical_projector,
)
from fockgauge.link_space import (
    LinkSpace,
    generators,
    projector_rep,
    theta_group_basis,
    theta_left,
    theta_right,
    trace_diagnostic,
    u_matrix,
)
from fockgauge.matter_space import VertexFock, charge_su2, number_operator, theta_q
from fockgauge.spectra import eigensolve, vortex_masses


def _report(criterion, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def _mabs(arr):
    arr = np.asarray(arr)
    return float(np.abs(arr).max()) if arr.size else 0.0


def test_criterion_01_group_foundations():
    t0 = time.time()
    worst = 0.0
    entries = [build_builtin("D3")] + [build_builtin("Z_N", N=n)
                                       for n in range(2, 9)]
    for entry in entries:
        assert entry.dim_sum() == entry.spec.order
        worst = max(worst, great_orthogonality_residual(entry))
        f = fourier_matrix(entry)
        worst = max(worst, _mabs(f.conj().T @ f - np.eye(entry.spec.order)))
    elapsed = time.time() - t0
    _report(1, worst <= 1e-12 and elapsed < 1.0,
            f"D3 + Z_2..Z_8 dim sums exact, orthogonality/Fourier residual "
            f"{worst:.2e} (tol 1e-12), runtime {elapsed:.2f}s (< 1s)")


def test_criterion_02_transformation_operators():
    space = LinkSpace(build_builtin("D3"))
    spec = space.catalog.spec
    lefts = [theta_left(space, g) for g in range(6)]
    rights = [theta_right(space, g) for g in range(6)]
    worst = 0.0
    eye = np.eye(6)
    for g in range(6):
        worst = max(worst, _mabs(lefts[g].toarray() @ lefts[g].toarray().conj().T - eye))
        worst = max(worst, _mabs(rights[g].toarray() @ rights[g].toarray().conj().T - eye))
        for h in range(6):
            gh = spec.mul[g, h]
            worst = max(worst, _mabs((lefts[g] @ lefts[h]).toarray() - lefts[gh].toarray()))
            worst = max(worst, _mabs((rights[g] @ rights[h]).toarray() - rights[gh].toarray()))
            worst = max(worst, _mabs((lefts[g] @ rights[h] - rights[h] @ lefts[g]).toarray()))
    perm_worst = 0.0
    for g in range(6):
        for side, ops in (("L", lefts), ("R", rights)):
            perm = theta_group_basis(space, g, side).toarray()
            conv = ops[g].to_basis("group").toarray()
            perm_worst = max(perm_worst, _mabs(conv - perm))
            # entries of the conjugated operator are exactly 0/1 permutations
            perm_worst = max(perm_worst, _mabs(np.abs(conv) - (np.abs(conv) > 0.5)))
    _report(2, worst <= 1e-12 and perm_worst <= 1e-12,
            f"36-pair group laws/commutation/unitarity residual {worst:.2e}, "
            f"Fourier-to-permutation residual {perm_worst:.2e} (tol 1e-12)")


def test_criterion_03_u_operator_consistency():
    space = LinkSpace(build_builtin("D3"))
    u_rep = u_matrix(space, "2", "rep")
    mats = space.catalog.irrep("2").matrices
    worst_d3 = 0.0
    for m in range(2):
        for n in range(2):
            conv = u_rep.entry(m, n).to_basis("group").toarray()
            worst_d3 = max(worst_d3, _mabs(conv - np.diag(mats[:, m, n])))

    su2 = LinkSpace(build_builtin("SU2_trunc", j_max="1/2"))
    u = u_matrix(su2)
    s = 1 / np.sqrt(2)

    def five(entries):
        out = np.zeros((5, 5), dtype=complex)
        for r, c, v in entries:
            out[r, c] = v
        return out

    expected = {
        (0, 0): five([(1, 0, s), (0, 4, s)]),
        (0, 1): five([(2, 0, s), (0, 3, -s)]),
        (1, 0): five([(3, 0, s), (0, 2, -s)]),
        (1, 1): five([(0, 1, s), (4, 0, s)]),
    }
    worst_su2 = max(_mabs(u.entry(*key).toarray() - exp)
                    for key, exp in expected.items())
    _report(3, worst_d3 <= 1e-12 and worst_su2 <= 1e-14,
            f"D3 CG-series vs group-basis connection {worst_d3:.2e} (tol 1e-12); "
            f"SU(2) five-state connection vs printed matrix {worst_su2:.2e} (tol 1e-14)")


def test_criterion_04_truncation_diagnostics():
    worst = 0.0
    for j_max, defect in (("1/2", 1.5), ("1", 4.0 / 3.0)):
        space = LinkSpace(build_builtin("SU2_trunc", j_max=j_max))
        top = space.catalog.irreps[-1].label
        td = trace_diagnostic(space).toarray()
        expected = 2 * np.eye(space.dim) - defect * projector_rep(space, top).toarray()
        worst = max(worst, _mabs(td - expected))
        worst = max(worst, _mabs(np.sort(np.linalg.eigvalsh(td))
                                 - np.sort(np.linalg.eigvalsh(expected))))
    _report(4, worst <= 1e-12,
            f"Tr(U+U) defect (2J+2)/(2J+1) at J_max 1/2 and 1, residual "
            f"{worst:.2e} (tol 1e-12)")


def test_criterion_05_lie_algebra():
    worst = 0.0
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for j_max in ("1/2", "1"):
        space = LinkSpace(build_builtin("SU2_trunc", j_max=j_max))
        left, right = generators(space)
        for (a, b), c in eps.items():
            worst = max(worst, _mabs((left[a] @ left[b] - left[b] @ left[a]).toarray()
                                     - 1j * left[c].toarray()))
            worst = max(worst, _mabs((right[a] @ right[b] - right[b] @ right[a]).toarray()
                                     - 1j * right[c].toarray()))
        for a in range(3):
            for b in range(3):
                worst = max(worst, _mabs((left[a] @ right[b]
                                          - right[b] @ left[a]).toarray()))
        worst = max(worst, _mabs(sum((x @ x).toarray() for x in left)
                                 - sum((x @ x).toarray() for x in right)))
        u = u_matrix(space)
        t_mats = space.catalog.irrep("1/2").generators
        for i in range(3):
            for m in range(2):
                for n in range(2):
                    lhs = (left[i] @ u.entry(m, n) - u.entry(m, n) @ left[i]).toarray()
                    rhs = -sum(t_mats[i][m, k] * u.entry(k, n).toarray() for k in range(2))
                    worst = max(worst, _mabs(lhs - rhs))
                    lhs = (right[i] @ u.entry(m, n) - u.entry(m, n) @ right[i]).toarray()
                    rhs = sum(u.entry(m, k).toarray() * t_mats[i][k, n] for k in range(2))
                    worst = max(worst, _mabs(lhs - rhs))
    _report(5, worst <= 1e-12,
            f"truncated L/R algebra, [L,R]=0, L^2=R^2, connection commutators "
            f"at J_max 1/2 and 1, residual {worst:.2e} (tol 1e-12)")


def test_criterion_06_matter_sector():
    d3 = build_builtin("D3")
    worst = 0.0
    sigma_exact = True
    prop2 = 0.0
    for parity in (0, 1):
        v = VertexFock(2, parity)
        thetas = [theta_q(v, d3, g).toarray() for g in range(6)]
        for g in range(6):
            for h in range(6):
                worst = max(worst, _mabs(thetas[g] @ thetas[h]
                                         - thetas[d3.spec.mul[g, h]]))
        n_down = number_operator(v, 1).toarray()
        closed = (np.eye(4) - 2 * n_down) * (-1.0) ** parity
        sigma_exact = sigma_exact and _mabs(thetas[3] - closed) == 0.0
        for g in range(6):
            det = np.linalg.det(d3.irrep("2").matrix(g))
            column = thetas[g][:, v.full_state]
            expected = np.zeros(4, dtype=complex)
            expected[v.full_state] = det * det.conjugate() ** parity
            prop2 = max(prop2, _mabs(column - expected))
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    q_ops = charge_su2(VertexFock(2, 0), su2)
    charges_zero = all(_mabs(q.toarray()[:, 0]) == 0.0
                       and _mabs(q.toarray()[:, 3]) == 0.0 for q in q_ops)
    _report(6, worst <= 1e-12 and sigma_exact and prop2 <= 1e-12 and charges_zero,
            f"matter group law residual {worst:.2e} (tol 1e-12), reflection "
            f"closed form exact: {sigma_exact}, full-state determinant law "
            f"{prop2:.2e}, SU(2) charges annihilate empty/full exactly: {charges_zero}")


def test_criterion_07_gauge_invariance_end_to_end():
    t0 = time.time()
    # (a) D3 single open plaquette with matter, group-element link basis
    d3 = build_builtin("D3")
    lat = LatticeSpec(2, 2, boundary="open", include_matter=True)
    params = ModelParams(mass=1.0, epsilon=0.7, coupling=1.3, staggered=True,
                         electric_weights={"I": 0.0, "p": 1.0, "2": 1.0})
    model = Model(d3, lat, params, basis_tag="group")
    assert model.global_basis.dim == 331776
    terms = hamiltonian_terms(model)
    thetas = [gauss_operator(model, v, g).matrix
              for v in range(4) for g in range(6)]
    rng = np.random.default_rng(2026)
    probes = []
    for _ in range(20):
        vec = rng.standard_normal(model.global_basis.dim) \
            + 1j * rng.standard_normal(model.global_basis.dim)
        probes.append(vec / np.linalg.norm(vec))
    worst_a = 0.0
    for term in terms.values():
        h_probes = [term.matrix @ p for p in probes]
        for theta in thetas:
            for p, hp in zip(probes, h_probes):
                worst_a = max(worst_a, float(np.linalg.norm(
                    theta @ hp - term.matrix @ (theta @ p))))

    # (b) SU(2) J_max = 1/2 on a 1x2 chain with matter, generator form
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    chain = LatticeSpec(2, 1, boundary="open", include_matter=True)
    chain_model = Model(su2, chain, ModelParams(mass=0.6, epsilon=0.9,
                                                coupling=1.1, staggered=True))
    chain_terms = hamiltonian_terms(chain_model)
    gens = [g.matrix for v in range(2) for g in gauss_generators(chain_model, v)]
    dim_b = chain_model.global_basis.dim
    probes_b = []
    for _ in range(20):
        vec = rng.standard_normal(dim_b) + 1j * rng.standard_normal(dim_b)
        probes_b.append(vec / np.linalg.norm(vec))
    worst_b = 0.0
    for term in chain_terms.values():
        h_probes = [term.matrix @ p for p in probes_b]
        for gen in gens:
            for p, hp in zip(probes_b, h_probes):
                worst_b = max(worst_b, float(np.linalg.norm(
                    gen @ hp - term.matrix @ (gen @ p))))
    elapsed = time.time() - t0
    worst = max(worst_a, worst_b)
    _report(7, worst <= 1e-10 and elapsed < 120.0,
            f"every term vs every Gauss operator/generator, 20 probes: "
            f"D3 plaquette(+matter, dim 331776) {worst_a:.2e}, SU(2) chain "
            f"{worst_b:.2e} (tol 1e-10), runtime {elapsed:.1f}s (< 120s)")


def test_criterion_08_magnetic_sector():
    g = 1.3
    gaps = vortex_masses(build_builtin("D3"), coupling=g)
    table = character_table(build_builtin("D3"))
    chi2 = table.row("2").real
    expected = {"e": 0.0, "r": (chi2[0] - chi2[1]) / g ** 2,
                "s": (chi2[0] - chi2[2]) / g ** 2}
    worst = max(abs(gaps[k] - expected[k]) for k in expected)
    d3_ok = worst <= 1e-10 and abs(expected["r"] - 3 / g ** 2) < 1e-14 \
        and abs(expected["s"] - 2 / g ** 2) < 1e-14

    zn_ok = True
    detail_zn = []
    for n in (3, 5):
        zn = build_builtin("Z_N", N=n)
        lat = LatticeSpec(2, 2, boundary="open", include_matter=False)
        model = Model(zn, lat, ModelParams(coupling=g, terms=("magnetic",)),
                      basis_tag="group")
        spectrum = eigensolve(build_hamiltonian(model), k=None,
                              want_vectors=False)
        counts = collections.Counter(np.round(spectrum.eigenvalues, 10))
        expected_counts = collections.Counter()
        for q in range(n):
            expected_counts[round(-np.cos(2 * np.pi * q / n) / g ** 2, 10)] += n ** 3
        zn_ok = zn_ok and counts == expected_counts
        detail_zn.append(f"Z_{n} cosine levels+multiplicities exact: {counts == expected_counts}")
    _report(8, d3_ok and zn_ok,
            f"D3 vortex gaps (0, 3, 2)/g^2 residual {worst:.2e} (tol 1e-10); "
            + "; ".join(detail_zn))


def test_criterion_09_quantum_double_ground_degeneracy():
    t0 = time.time()
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(2, 2, boundary="periodic", include_matter=False)
    model = Model(z2, lat, ModelParams(coupling=1.0, terms=("magnetic",)),
                  basis_tag="group")
    ham = build_hamiltonian(model)
    assert ham.dim == 256
    cols = physical_basis(model)
    reduced = cols.conj().T @ ham.toarray() @ cols
    vals = np.linalg.eigvalsh((reduced + reduced.conj().T) / 2)
    ground_multiplicity = int(np.sum(vals <= vals[0] + 1e-7))
    elapsed = time.time() - t0
    _report(9, ground_multiplicity == 4 and elapsed < 1.0,
            f"Z_2 torus magnetic Hamiltonian in the trivial Gauss sector: "
            f"ground multiplicity {ground_multiplicity} (expect 4), dense dim "
            f"256, runtime {elapsed:.2f}s (< 1s)")


def test_criterion_10_physical_projector():
    z2 = build_builtin("Z_2")
    lat = LatticeSpec(2, 2, boundary="periodic", include_matter=False)
    model = Model(z2, lat, ModelParams(coupling=1.0, terms=("magnetic",)),
                  basis_tag="group")
    proj = physical_projector(model)
    idem = (proj @ proj - proj).matrix
    idem_res = float(np.abs(idem.data).max()) if idem.nnz else 0.0
    rank = float(np.trace(proj.toarray()).real)
    loop_count = sum(
        1 for cfg in range(2 ** 8)
        if all(sum((cfg >> link.index) & 1
                   for link, _ in lat.links_at_vertex(v)) % 2 == 0
               for v in range(4)))
    ham = build_hamiltonian(model)
    cols = physical_basis(model)
    reduced = np.linalg.eigvalsh(cols.conj().T @ ham.toarray() @ cols)
    full = np.linalg.eigvalsh(ham.toarray())
    subset_res = max(float(np.min(np.abs(full - v))) for v in reduced)
    ok = idem_res <= 1e-10 and abs(rank - 32) < 1e-6 \
        and loop_count == 32 and subset_res <= 1e-9
    _report(10, ok,
            f"idempotence {idem_res:.2e} (tol 1e-10), rank {rank:.1f} vs "
            f"closed-loop count {loop_count} (expect 32), projected-spectrum "
            f"containment {subset_res:.2e} (tol 1e-9)")


def test_criterion_11_determinism(tmp_path):
    doc = {
        "group": {"builtin": "D3"},
        "lattice": {"lx": 2, "ly": 2, "boundary": "open",
                    "include_matter": False},
        "params": {"coupling": 1.3, "terms": ["magnetic"]},
        "basis": "group",
        "seed": 12,
        "tasks": [{"spectrum": {"k": 8}}],
    }
    cfg = tmp_path / "det.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    runner = CliRunner()
    outputs = {}
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.json"
        result = runner.invoke(cli_main, ["spectrum", "-c", str(cfg), "-o", str(out)])
        assert result.exit_code == 0, result.output
        outputs[tag] = out.read_bytes()
    same_seed_identical = outputs["a"] == outputs["b"]
    no_threads = "threads" not in json.loads(outputs["a"])
    _report(11, same_seed_identical and no_threads,
            f"identical config+seed byte-identical: {same_seed_identical}, "
            f"no thread count in the result: {no_threads}")
