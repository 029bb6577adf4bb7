"""The console contract, run as a user runs it.

Exit 2 for a bad configuration, exit 1 for a failed task, one stderr line and
no traceback, and a result JSON that is a function of the config and seed.
``fockgauge`` runs in a fresh ``python -m fockgauge`` process, with ``src/``
on the import path and no install, wherever an exit code or stderr is
checked; checks of the result JSON alone run through click's CliRunner.
CI's smoke step runs the installed entry point once, and
``test_smoke_step_runs_only_the_installed_entry_point`` keeps it that way.
"""

import json
import os
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import fockgauge
from fockgauge.cli import main
from fockgauge.group_core import build_builtin, dump_group_file

ROOT = Path(__file__).resolve().parents[1]

Run = namedtuple("Run", "code out err result")


def fockgauge_run(tmp_path, *args, config=None, fresh=True):
    """``fockgauge ARGS`` in ``tmp_path``; with a ``config`` (a dict, or YAML
    text written as it is) in config.yaml, the command also gets
    ``-c config.yaml -o out.json``.

    A fresh ``python -m fockgauge`` process, or click's CliRunner in this one
    when ``fresh`` is false.  Returns the exit code, stdout, stderr and the
    result JSON (None when no out.json was written).
    """
    out = tmp_path / "out.json"
    out.unlink(missing_ok=True)
    if config is not None:
        (tmp_path / "config.yaml").write_text(
            config if isinstance(config, str) else yaml.safe_dump(config))
        args = (*args, "-c", str(tmp_path / "config.yaml"), "-o", str(out))
    if fresh:
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "fockgauge", *args], cwd=tmp_path, text=True,
                              capture_output=True, env={**os.environ, "PYTHONPATH": path})
        code, stdout, stderr = done.returncode, done.stdout, done.stderr
    else:
        result = CliRunner().invoke(main, list(args))
        code, stdout, stderr = result.exit_code, result.stdout, result.stderr
    return Run(code, stdout, stderr, json.loads(out.read_text()) if out.exists() else None)


def model(group, lattice, params, task, basis=None):
    """A run config of one task; ``lattice`` is (lx, ly, boundary, include_matter)."""
    lx, ly, boundary, matter = lattice
    doc = {"group": group,
           "lattice": {"lx": lx, "ly": ly, "boundary": boundary, "include_matter": matter},
           "params": params, "tasks": [task]}
    return {**doc, "basis": basis} if basis else doc


def with_params(config, **params):
    return {**config, "params": {**config["params"], **params}}


Z2 = {"builtin": "Z_2"}
D3 = {"builtin": "D3"}
U1 = {"builtin": "U1_trunc", "params": {"P": 1}}
SU2 = {"builtin": "SU2_trunc", "params": {"j_max": "1/2"}}
D3_WEIGHTS = {"I": 0.0, "p": 1.0, "2": 1.0}
D3_MATTER = {"mass": 1.0, "epsilon": 0.4, "coupling": 1.2, "electric_weights": D3_WEIGHTS}
LIE_MATTER = {"mass": 1.0, "epsilon": 0.7, "coupling": 1.3}
TERMS = ("mass", "tunneling", "electric", "magnetic")
COMMUTES = [f"model.gauss_commutes_with_{term}" for term in TERMS]

# Z_2 2x1 open pure gauge
SMOKE = model(Z2, (2, 1, "open", False), {"coupling": 1.0}, {"spectrum": {"k": 2}})
# D3 2x1 open with matter in the group basis
D3_LINE = model(D3, (2, 1, "open", True), D3_MATTER, {"verify": {}}, "group")
# D3 1x1 open pure gauge: the one vertex has an empty star, its Gauss
# operator is the identity, and the one-state vacuum is invariant
D3_POINT = model(D3, (1, 1, "open", False), {"coupling": 1.0, "electric_weights": D3_WEIGHTS},
                 {"verify": {}}, "group")
# D3 2x1 periodic in x with matter: two links join the same two vertices,
# and each vertex's star holds both of their hops once
D3_RING = model(D3, (2, 1, ["periodic", "open"], True), D3_MATTER, {"verify": {}}, "rep")
# D3 1x1 periodic with matter: both links are self-loops at the one vertex,
# where each hop's rows meet its own adjoint's
D3_TORUS = model(D3, (1, 1, "periodic", True),
                 {"mass": 0.8, "epsilon": 0.6, "coupling": 1.2, "staggered": False,
                  "electric_weights": D3_WEIGHTS}, {"verify": {}}, "rep")
# U(1) P=1 2x1 open with matter: the Lie Gauss generators, whose staggered
# charge psi^dag psi - parity leaves the vacuum neutral
U1_LINE = model(U1, (2, 1, "open", True), LIE_MATTER, {"verify": {}})
# D3 2x2 open pure gauge in the group basis (dim 1296)
D3_SQUARE = model(D3, (2, 2, "open", False), {"coupling": 1.3, "electric_weights": D3_WEIGHTS},
                  {"spectrum": {"k": 2, "sector": "physical"}}, "group")


def _d3_file(tmp_path, name, corrupt=None):
    """D3 as ``dump_group_file`` writes it, to ``name`` in ``tmp_path``, the
    loaded document first passed through ``corrupt``."""
    path = tmp_path / name
    dump_group_file(build_builtin("D3"), path)
    if corrupt is not None:
        doc = json.loads(path.read_text())
        corrupt(doc)
        path.write_text(json.dumps(doc))
    return name


def test_console_runs_from_a_checkout_with_no_install(tmp_path):
    run = fockgauge_run(tmp_path, "--version")
    assert run.code == 0, run.err
    assert fockgauge.__version__ in run.out


def test_smoke_step_runs_only_the_installed_entry_point():
    # the console contract lives here; CI's smoke step only shows that the
    # installed ``fockgauge`` script starts
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    (smoke,) = [step for step in steps if step.get("name") == "Console script smoke test"]
    lines = smoke["run"].splitlines()
    assert len(lines) <= 30, len(lines)
    commands = [line.strip() for line in lines if line.strip() and not line.strip().startswith("#")]
    assert commands, smoke["run"]
    for command in commands:
        assert command.split()[0] == "fockgauge" and not set(command) & set(";&|`<>"), command


def test_spectrum_writes_the_same_bytes_in_two_fresh_processes(tmp_path):
    # the result is a function of the config and seed, and no thread count is recorded
    first = fockgauge_run(tmp_path, "spectrum", config=SMOKE)
    written = (tmp_path / "out.json").read_bytes()
    again = fockgauge_run(tmp_path, "spectrum", config=SMOKE)
    assert first.code == again.code == 0, (first.err, again.err)
    assert written and (tmp_path / "out.json").read_bytes() == written
    assert "threads" not in first.result


@pytest.mark.parametrize("config,bounds", [
    (SMOKE, {}),
    # every Hamiltonian term's Gauss commutator, taken on the term's span of factors
    (D3_LINE, {**dict.fromkeys(COMMUTES), "model.vacuum_gauss_invariant": 1e-12}),
    (D3_RING, {**dict.fromkeys(COMMUTES), "model.gauss_commutes_with_tunneling": 1e-10}),
    (D3_TORUS, dict.fromkeys(COMMUTES)),
    ({**D3_TORUS, "basis": "group"}, dict.fromkeys(COMMUTES)),
    # the link identities of a Lie catalog
    (U1_LINE, {**dict.fromkeys(COMMUTES), "model.vacuum_gauss_neutral": None,
               "theta.casimir_left_equals_right": 1e-12, "u.covariance": 1e-12,
               "u.generator_commutators": 1e-12}),
    # verify converts H to the rep basis one link at a time
    (D3_SQUARE, {"model.rep_group_hamiltonian_agreement": None}),
], ids=["z2-line", "d3-line-group", "d3-ring-rep", "d3-torus-rep", "d3-torus-group",
        "u1-line", "d3-square-group"])
def test_verify_passes_with_the_named_checks(tmp_path, config, bounds):
    # each named check is there (and so passed), its residual within the bound given
    run = fockgauge_run(tmp_path, "verify", config=config, fresh=False)
    assert run.code == 0, run.err
    doc = run.result["tasks"]["verify"]
    assert doc["passed"] is True, doc
    checks = {c["name"]: c for c in doc["checks"]}
    for name, bound in bounds.items():
        assert name in checks, (name, checks)
        assert bound is None or checks[name]["residual"] <= bound, checks[name]


def test_verify_runs_the_finite_group_link_identities_on_a_group_file(tmp_path):
    config = {**D3_LINE, "group": {"file": _d3_file(tmp_path, "d3_good.json")}}
    run = fockgauge_run(tmp_path, "verify", config=config, fresh=False)
    assert run.code == 0, run.err
    doc = run.result["tasks"]["verify"]
    assert doc["passed"] is True, doc
    checks = {c["name"]: c for c in doc["checks"]}
    for name in ("theta.group_law", "theta.fourier_to_translations",
                 "u.unitarity", "u.rep_group_basis_agreement"):
        assert checks[name]["passed"] is True, checks


@pytest.mark.parametrize("basis", ["group", "rep"])
def test_verify_on_a_vertex_with_an_empty_star_exits_0(tmp_path, basis):
    run = fockgauge_run(tmp_path, "verify", config={**D3_POINT, "basis": basis})
    assert run.code == 0, run.err
    doc = run.result["tasks"]["verify"]
    assert doc["passed"] is True, doc
    checks = {c["name"]: c for c in doc["checks"]}
    assert checks["model.vacuum_gauss_invariant"]["passed"] is True, checks


def test_verify_without_the_hc_fails_only_hermiticity_with_exit_1(tmp_path):
    # the ring in the group basis: both links' hops share every entry, and
    # max |T - T^dag| of their sum, 2 eps = 0.8, is the one failed check
    config = with_params({**D3_RING, "basis": "group"}, include_hc=False)
    run = fockgauge_run(tmp_path, "verify", config=config)
    assert run.code == 1, run.err
    doc = run.result["tasks"]["verify"]
    failed = {c["name"]: c["residual"] for c in doc["checks"] if not c["passed"]}
    assert list(failed) == ["model.terms_hermitian"], failed
    assert abs(failed["model.terms_hermitian"] - 0.8) <= 1e-12, failed


def test_torus_spectrum_agrees_across_link_bases(tmp_path):
    # the self-loop hops share the mass term's diagonal entries
    spectra = []
    for basis in ("rep", "group"):
        run = fockgauge_run(tmp_path, "spectrum",
                            config={**D3_TORUS, "basis": basis, "tasks": [{"spectrum": {"k": 6}}]})
        assert run.code == 0, run.err
        spectra.append(run.result["tasks"]["spectrum"])
    rep, group = spectra
    assert len(rep["eigenvalues"]) == len(group["eigenvalues"]) == 6, (rep, group)
    assert max(abs(a - b) for a, b in zip(rep["eigenvalues"], group["eigenvalues"])) <= 1e-10
    assert max(rep["residuals"] + group["residuals"]) <= 1e-8, (rep, group)


def test_group_basis_sector_of_the_d3_square_has_three_states(tmp_path):
    # the nullspace of sum_v (1 - A_v)
    run = fockgauge_run(tmp_path, "spectrum", config=D3_SQUARE, fresh=False)
    assert run.code == 0, run.err
    sector = run.result["tasks"]["spectrum"]["physical_sector"]
    assert sector["dimension"] == 3, sector
    assert max(sector["residuals"]) <= 1e-8, sector


def test_lanczos_takes_a_degenerate_level_from_several_components(tmp_path):
    # SU(2) j<=1/2 2x2 open with matter (dim 160 000, above the dense cap): the
    # 3 copies of the second level lie in different connected components of H,
    # taken as pieces of one run in the components whose Gershgorin bound,
    # sharpened by power steps on |H|, can reach the 4th level
    config = model(SU2, (2, 2, "open", True), LIE_MATTER, {"spectrum": {"k": 4}})
    run = fockgauge_run(tmp_path, "spectrum", config=config, fresh=False)
    assert run.code == 0, run.err
    doc = run.result["tasks"]["spectrum"]
    assert doc["method"] == "iterative", doc
    assert doc["degeneracies"] == [[0], [1, 2, 3]], doc
    expected = [-5.345010620900407] + [-4.515250314324584] * 3
    assert max(abs(a - b) for a, b in zip(doc["eigenvalues"], expected)) <= 1e-10, doc
    assert max(doc["residuals"]) <= 1e-8, doc
    line = next(line for line in run.err.splitlines() if line.startswith("spectrum: iterative on "))
    rows, of = (int(word) for word in line.split()[3:6:2])
    assert of == 160000 and rows <= 26534, line


def test_dense_branch_matches_the_benchmark_reference(tmp_path):
    # U(1) P=1 2x2 open with matter (dim 1296, 472 components) at k = 6: the
    # dense branch on the kept components
    config = model(U1, (2, 2, "open", True), LIE_MATTER, {"spectrum": {"k": 6}}, "rep")
    run = fockgauge_run(tmp_path, "spectrum", config=config, fresh=False)
    assert run.code == 0, run.err
    doc = run.result["tasks"]["spectrum"]
    assert doc["method"] == "dense", doc
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    expected = reference["sector"]["U1-matter"]["eigenvalues"]
    assert len(doc["eigenvalues"]) == len(expected) == 6, doc
    assert max(abs(a - b) for a, b in zip(doc["eigenvalues"], expected)) <= 1e-10, doc


def test_observables_on_the_rep_basis_vacuum_are_exact(tmp_path):
    # each observable is one placed block with an exact value
    names = ["mass_energy", "tunneling_energy", "electric_energy", "trivial_rep_weight"]
    config = {**U1_LINE, "basis": "rep",
              "tasks": [{"observables": {"names": names, "state": "vacuum"}}]}
    run = fockgauge_run(tmp_path, "observables", config=config, fresh=False)
    assert run.code == 0, run.err
    values = run.result["tasks"]["observables"]["values"]
    expected = {"mass_energy": -1.0, "tunneling_energy": 0.0,
                "electric_energy": 0.0, "trivial_rep_weight": 1.0}
    assert values == {k: [v, 0.0] for k, v in expected.items()}, values


def test_plaquette_observables_vanish_on_the_group_basis_vacuum(tmp_path):
    # the vacuum, uniform over group elements, has <Tr W> = 0
    config = model(D3, (2, 2, "open", False), {"coupling": 1.0, "terms": ["magnetic"]},
                   {"observables": {"names": ["plaquette_trace", "magnetic_energy"],
                                    "state": "vacuum"}}, "group")
    run = fockgauge_run(tmp_path, "observables", config=config, fresh=False)
    assert run.code == 0, run.err
    values = run.result["tasks"]["observables"]["values"]
    assert set(values) == {"plaquette_trace", "magnetic_energy"}, values
    assert all(abs(complex(*v)) <= 1e-12 for v in values.values()), values


def _bad_mul(doc):
    doc["mul"] = [99] * len(doc["mul"])


def _nan_entry(doc):
    doc["irreps"][2]["matrices"][1][0][1][0] = float("nan")


def _words_entry(doc):
    # float() would read ["-1", false] as -1+0j
    doc["irreps"][1]["matrices"][1][0][0] = ["-1", False]


# (arguments, config, group file to write (name, corruption), stderr fragments)
CONFIG_ERRORS = {
    "bad-coupling": (["spectrum"], with_params(SMOKE, coupling="strong"), None, []),
    # terms: [magnetic], so nothing but the group algebra is wrong
    "bad-group-table": (["spectrum"], {**with_params(SMOKE, terms=["magnetic"]),
                                       "group": {"file": "d3_bad.json"}},
                        ("d3_bad.json", _bad_mul), []),
    "nan-group-entry": (["group-info", "--file", "d3_nan.json"], None, ("d3_nan.json", _nan_entry),
                        ["irrep 2, element 1: matrix entry is not a finite number"]),
    "words-group-entry": (["group-info", "--file", "d3_words.json"], None,
                          ("d3_words.json", _words_entry),
                          ["d3_words.json", "matrix entry must be a JSON number"]),
    # group-info takes -p through build_builtin's rule, as group.params
    "d3-with-n": (["group-info", "D3", "-p", "N=5"], None, None, []),
    "zn-with-float-n": (["group-info", "Z_N", "-p", "N=2.5"], None, None, []),
    # a config error before any assembly, not a LAPACK traceback
    "nan-mass": (["spectrum"], with_params(SMOKE, mass=float("nan")), None, []),
    # D3 5x4 open pure gauge: 6**31 states, refused by the memory preflight
    "oversized": (["spectrum"], model(D3, (5, 4, "open", False),
                                      {"coupling": 1.0, "terms": ["magnetic"]},
                                      {"spectrum": {"k": 2}}), None, []),
    "repeated-term": (["spectrum"], model(Z2, (2, 1, "open", True),
                                          {"mass": 1.0, "coupling": 1.0, "terms": ["mass", "mass"]},
                                          {"spectrum": {"k": 2}}), None, []),
    # two numbers for epsilon on a two-link lattice: one complex value, or
    # one real value per link
    "ambiguous-epsilon": (["spectrum"], model(Z2, (3, 1, "open", True),
                                              {"mass": 1.0, "coupling": 1.0, "epsilon": [0.5, 0.7]},
                                              {"spectrum": {"k": 2}}), None, []),
}


@pytest.mark.parametrize("args,config,group_file,fragments", CONFIG_ERRORS.values(),
                         ids=CONFIG_ERRORS.keys())
def test_config_error_exits_2_with_one_line_and_no_result(tmp_path, args, config, group_file,
                                                          fragments):
    if group_file is not None:
        _d3_file(tmp_path, *group_file)
    run = fockgauge_run(tmp_path, *args, config=config)
    assert run.code == 2, (run.out, run.err)
    assert run.err.count("\n") == 1, run.err
    assert "Traceback" not in run.err
    assert all(fragment in run.err for fragment in fragments), run.err
    assert run.result is None
