import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from fockgauge.cli import main
from fockgauge.group_core import build_builtin, dump_group_file


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, **overrides):
    doc = {
        "group": {"builtin": "Z_2"},
        "lattice": {"lx": 2, "ly": 2, "boundary": "periodic",
                    "include_matter": False},
        "params": {"coupling": 1.0, "terms": ["magnetic"]},
        "basis": "group",
        "seed": 7,
        "tasks": [{"spectrum": {"k": 6, "sector": "physical"}},
                  "vortex-masses",
                  {"observables": {"names": ["magnetic_energy"],
                                   "state": "ground"}}],
    }
    for key, value in overrides.items():
        if value is None:
            doc.pop(key, None)
        else:
            doc[key] = value
    path.write_text(yaml.safe_dump(doc))
    return path


def test_group_info_d3(runner):
    result = runner.invoke(main, ["group-info", "D3"])
    assert result.exit_code == 0
    assert "order 6" in result.output
    assert "['I', 'p', '2'] dims [1, 1, 2]" in result.output
    assert "all group invariants pass" in result.output


def test_group_info_z4_and_su2(runner):
    result = runner.invoke(main, ["group-info", "Z_4"])
    assert result.exit_code == 0
    assert "order 4" in result.output
    result = runner.invoke(main, ["group-info", "SU2_trunc", "-p", "j_max=1/2"])
    assert result.exit_code == 0
    assert "link space dimension: 5" in result.output


def test_group_info_malformed_file_names_first_invariant(runner, tmp_path):
    z4 = build_builtin("Z_4")
    path = tmp_path / "z4.json"
    dump_group_file(z4, path)
    doc = json.loads(path.read_text())
    doc["mul"][0], doc["mul"][1] = doc["mul"][1], doc["mul"][0]
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["group-info", "--file", str(path)])
    assert result.exit_code == 2
    assert "mul.latin_square" in result.output


def _write_d3_file(path, **changes):
    """D3 in the group file format, with top-level keys replaced by ``changes``."""
    dump_group_file(build_builtin("D3"), path)
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))
    return path


def test_group_info_invalid_table_prints_only_the_failing_invariant(runner, tmp_path):
    path = _write_d3_file(tmp_path / "d3.json", mul=[99] * 36)
    result = runner.invoke(main, ["group-info", "--file", str(path)])
    assert result.exit_code == 2, result.output
    assert "classes:" not in result.output
    assert result.stdout == ""
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("INVALID GROUP:"), lines
    assert "mul.latin_square" in lines[0]


def test_group_info_order_zero_file_exits_2_with_one_line(runner, tmp_path):
    empty = [{"label": "I", "dim": 1, "matrices": []}]
    path = _write_d3_file(tmp_path / "d3.json", order=0, mul=[],
                          element_labels=[], irreps=empty, fundamental="I")
    result = runner.invoke(main, ["group-info", "--file", str(path)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["verify", "spectrum", "observables",
                                     "vortex-masses"])
def test_group_file_with_invalid_algebra_exits_2_before_assembly(
        runner, tmp_path, command):
    _write_d3_file(tmp_path / "d3.json", mul=[99] * 36)
    cfg = write_config(tmp_path / "cfg.yaml", group={"file": "d3.json"},
                       params={"coupling": 1.0,
                               "electric_weights": {"I": 0.0, "p": 1.0, "2": 1.0}})
    out = tmp_path / "out.json"
    result = runner.invoke(main, [command, "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert "mul.latin_square" in lines[0] and "residual 3.600e+01" in lines[0]
    assert not out.exists()


def test_group_info_unknown(runner):
    result = runner.invoke(main, ["group-info", "E8"])
    assert result.exit_code == 2


@pytest.mark.parametrize("args,message", [
    (["D3", "-p", "N=5"], "unknown key 'N' in group.params of D3"),
    (["Z_N", "-p", "N=3", "-p", "P=7"], "unknown key 'P' in group.params of Z_N"),
], ids=["d3-with-n", "zn-with-p"])
def test_group_info_refuses_a_param_its_builtin_does_not_take(runner, args, message):
    # the rule build_builtin holds for a run config's group.params, not ignored
    result = runner.invoke(main, ["group-info", *args])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0], lines


def test_verify_passes(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "verify.json"
    result = runner.invoke(main, ["verify", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    checks = payload["tasks"]["verify"]["checks"]
    assert payload["tasks"]["verify"]["passed"]
    assert len(checks) >= 20
    assert all(c["residual"] <= c["tolerance"] for c in checks)


def test_verify_detects_suppressed_hc(runner, tmp_path):
    cfg = write_config(
        tmp_path / "bad.yaml",
        lattice={"lx": 2, "ly": 1, "boundary": "open", "include_matter": True},
        params={"mass": 1.0, "epsilon": 0.5, "terms": ["mass", "tunneling"],
                "include_hc": False},
        basis="rep")
    result = runner.invoke(main, ["verify", "-c", str(cfg)])
    assert result.exit_code == 1
    assert "model.terms_hermitian" in result.output
    assert "FAIL" in result.output


def test_spectrum_toric_ground_degeneracy(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    sector = payload["tasks"]["spectrum"]["physical_sector"]
    assert sector["dimension"] == 32
    vals = np.array(sector["eigenvalues"])
    assert np.allclose(vals[:4], vals[0], atol=1e-9)
    assert vals[4] > vals[0] + 1e-6


@pytest.mark.parametrize("group,matter,lx,ly,params,dim", [
    ({"builtin": "D3"}, False, 2, 2,
     {"coupling": 1.3, "electric_weights": {"I": 0.0, "p": 1.0, "2": 1.0}}, 3),
    ({"builtin": "SU2_trunc", "params": {"j_max": "1/2"}}, True, 2, 1,
     {"mass": 1.0, "epsilon": 0.7, "coupling": 1.3}, 5),
    ({"builtin": "U1_trunc", "params": {"P": 1}}, True, 2, 1,
     {"mass": 1.0, "epsilon": 0.7, "coupling": 1.3}, 2),
], ids=["d3", "su2", "u1"])
def test_physical_sector_levels_carry_residuals(runner, tmp_path, group, matter, lx, ly,
                                                params, dim):
    cfg = write_config(
        tmp_path / "cfg.yaml", group=group, params=params, basis="rep",
        lattice={"lx": lx, "ly": ly, "boundary": "open", "include_matter": matter},
        tasks=[{"spectrum": {"k": 6, "sector": "physical"}}])
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    sector = json.loads(out.read_text())["tasks"]["spectrum"]["physical_sector"]
    assert sector["dimension"] == dim
    assert len(sector["eigenvalues"]) == len(sector["residuals"]) == min(6, dim)
    assert max(sector["residuals"]) <= 1e-8


def test_physical_sector_agrees_across_link_bases(runner, tmp_path):
    # D3 2x2 open pure gauge: the gauge-fixed sector basis is written in the
    # group basis and converted link by link for the rep basis, so the two
    # bases' sector spectra check that conversion end to end
    sectors = []
    for basis in ("group", "rep"):
        cfg = write_config(
            tmp_path / f"{basis}.yaml", group={"builtin": "D3"}, basis=basis,
            params={"coupling": 1.3, "electric_weights": {"I": 0.0, "p": 1.0, "2": 1.0}},
            lattice={"lx": 2, "ly": 2, "boundary": "open", "include_matter": False},
            tasks=[{"spectrum": {"k": 4, "sector": "physical"}}])
        out = tmp_path / f"{basis}.json"
        result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out)])
        assert result.exit_code == 0, result.output
        sectors.append(json.loads(out.read_text())["tasks"]["spectrum"]["physical_sector"])
    group, rep = sectors
    assert group["dimension"] == rep["dimension"] == 3
    assert np.abs(np.subtract(group["eigenvalues"], rep["eigenvalues"])).max() <= 1e-10


def test_spectrum_z3_cosine_levels(runner, tmp_path):
    cfg = write_config(
        tmp_path / "z3.yaml",
        group={"builtin": "Z_3"},
        lattice={"lx": 2, "ly": 2, "boundary": "open", "include_matter": False},
        tasks=[{"spectrum": {"k": 81}}])
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    payload = json.loads(out.read_text())
    vals = np.array(payload["tasks"]["spectrum"]["eigenvalues"])
    levels = sorted(set(np.round(vals, 9)))
    expected = sorted({round(-np.cos(2 * np.pi * q / 3), 9) for q in range(3)})
    assert levels == expected


def test_vortex_masses_command(runner, tmp_path):
    cfg = write_config(tmp_path / "d3.yaml", group={"builtin": "D3"},
                       lattice={"lx": 2, "ly": 2, "boundary": "open",
                                "include_matter": False})
    out = tmp_path / "vm.json"
    result = runner.invoke(main, ["vortex-masses", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    gaps = json.loads(out.read_text())["tasks"]["vortex_masses"]
    assert set(gaps) == {"e", "r", "s"}
    assert gaps["e"] == pytest.approx(0.0, abs=1e-12)
    assert gaps["r"] == pytest.approx(3.0, abs=1e-10)
    assert gaps["s"] == pytest.approx(2.0, abs=1e-10)


def test_observables_command(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "obs.json"
    result = runner.invoke(main, ["observables", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    values = json.loads(out.read_text())["tasks"]["observables"]["values"]
    assert values["magnetic_energy"] == [-4.0, 0.0]


def test_config_errors(runner, tmp_path):
    missing = tmp_path / "missing.yaml"
    missing.write_text(yaml.safe_dump({"lattice": {"lx": 1, "ly": 1}}))
    assert runner.invoke(main, ["verify", "-c", str(missing)]).exit_code == 2

    cfg = write_config(tmp_path / "bad_basis.yaml", basis="momentum")
    assert runner.invoke(main, ["spectrum", "-c", str(cfg)]).exit_code == 2

    cfg = write_config(tmp_path / "ghost.yaml",
                       group={"file": "does_not_exist.json"})
    assert runner.invoke(main, ["verify", "-c", str(cfg)]).exit_code == 2

    cfg = write_config(tmp_path / "empty_tasks.yaml", tasks=[])
    assert runner.invoke(main, ["spectrum", "-c", str(cfg)]).exit_code == 2

    cfg = write_config(tmp_path / "lie_group_basis.yaml",
                       group={"builtin": "SU2_trunc", "params": {"j_max": "1/2"}},
                       lattice={"lx": 2, "ly": 1, "boundary": "open",
                                "include_matter": False},
                       params={"coupling": 1.0, "terms": ["electric"]})
    assert runner.invoke(main, ["spectrum", "-c", str(cfg)]).exit_code == 2


@pytest.mark.parametrize("command,overrides", [
    ("spectrum", {"tasks": [{"spectrum": {"k": "abc"}}]}),
    ("spectrum", {"params": {"coupling": "strong", "terms": ["magnetic"]}}),
    # the single plaquette of Z_9 has 9^4 = 6561 states, over the dense cap
    ("vortex-masses", {"group": {"builtin": "Z_N", "params": {"N": 9}}}),
    # D3 has no default electric weights
    *[(command, {"group": {"builtin": "D3"},
                 "lattice": {"lx": 2, "ly": 1, "boundary": "open",
                             "include_matter": False},
                 "params": {"coupling": 1.0, "terms": ["electric"]}})
      for command in ("spectrum", "observables", "verify")],
    *[(command, {"params": {"coupling": 1.0, "electric_weights": [1, 2]}})
      for command in ("spectrum", "observables", "verify", "vortex-masses")],
    ("spectrum", {"params": {"coupling": 1.0, "terms": "magnetic"}}),
    ("observables", {"tasks": [{"observables": {"names": "electric_energy"}}]}),
    ("observables", {"tasks": [{"observables": "magnetic_energy"}]}),
    ("observables", {"tasks": [{"observables": {"state": "excited"}}]}),
    ("observables", {"tasks": [{"observables": {"names": ["mass_energy"]}}]}),
    ("spectrum", {"params": [1.0]}),
    ("spectrum", {"group": {"builtin": "Z_N", "params": [3]}}),
    ("spectrum", {"lattice": {"lx": [2], "ly": 1}}),
    # rejected, not coerced: no truncation to an int, no truthy strings
    ("spectrum", {"seed": 1.5}),
    ("spectrum", {"seed": True}),
    ("spectrum", {"tasks": [{"spectrum": {"k": 2.5}}]}),
    ("spectrum", {"lattice": {"lx": 2.5, "ly": 2, "boundary": "periodic"}}),
    ("spectrum", {"lattice": {"lx": 2, "ly": True, "boundary": "periodic"}}),
    ("spectrum", {"lattice": {"lx": 2, "ly": 2, "boundary": "periodic",
                              "include_matter": "no"}}),
    ("spectrum", {"params": {"coupling": 1.0, "terms": ["magnetic"],
                             "staggered": "no"}}),
    ("spectrum", {"params": {"coupling": 1.0, "terms": ["magnetic"],
                             "include_hc": "no"}}),
    # a quoted number is a string, not an integer
    ("spectrum", {"seed": "7"}),
    ("spectrum", {"lattice": {"lx": "2", "ly": 2, "boundary": "periodic"}}),
    ("spectrum", {"tasks": [{"spectrum": {"k": "3"}}]}),
    # a NaN or infinite parameter on Z_2 2x1 with matter, refused by Model
    # before any assembly
    *[("spectrum", {"lattice": {"lx": 2, "ly": 1, "boundary": "open", "include_matter": True},
                    "params": {"mass": 1.0, "epsilon": 0.5, "coupling": 1.0, **params}})
      for params in ({"mass": float("nan")}, {"mass": float("inf")},
                     {"coupling": float("nan")}, {"coupling": float("-inf")},
                     {"epsilon": float("nan")}, {"epsilon": [float("inf"), 0.5]},
                     {"epsilon": [0.5, float("nan")]},
                     {"electric_weights": {"0": 0.0, "1": float("nan")}})],
    # a bool, a quoted number or an integer past float range is not a real
    # parameter, on the same model
    *[("spectrum", {"lattice": {"lx": 2, "ly": 1, "boundary": "open", "include_matter": True},
                    "params": {"mass": 1.0, "epsilon": 0.5, "coupling": 1.0, **params}})
      for params in ({"mass": True}, {"coupling": "1.5"}, {"epsilon": True},
                     {"epsilon": [True, 0.5]}, {"electric_weights": {"0": 0.0, "1": "2"}},
                     {"mass": 10 ** 400})],
])
def test_bad_config_values_exit_2_with_one_line(runner, tmp_path, command, overrides):
    cfg = write_config(tmp_path / "bad.yaml", **overrides)
    out = tmp_path / "out.json"
    result = runner.invoke(main, [command, "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert not out.exists()


CHAIN_WITH_MATTER = {"lx": 3, "ly": 1, "boundary": "open", "include_matter": True}
PLAQUETTE = {"lx": 2, "ly": 2, "boundary": "open", "include_matter": False}


@pytest.mark.parametrize("command,overrides,message", [
    ("spectrum", {"params": {"coupling": 1.0, "terms": "magnetic"}},
     "terms must be a list"),
    ("observables", {"tasks": [{"observables": {"names": "electric_energy"}}]},
     "observables names must be a list"),
    ("spectrum", {"output": "no_such_dir/out.json"}, "does not exist"),
    # Z_2 3x1 open has two links: [0.5, 0.7] is one complex value or two real ones
    ("spectrum", {"lattice": CHAIN_WITH_MATTER,
                  "params": {"mass": 1.0, "epsilon": [0.5, 0.7], "coupling": 1.0}},
     "write [[0.5, 0], [0.7, 0]] per link or [[0.5, 0.7], [0.5, 0.7]]"),
    ("spectrum", {"lattice": CHAIN_WITH_MATTER,
                  "params": {"mass": 1.0, "coupling": 1.0, "terms": ["mass", "mass"]}},
     "['mass'] are listed more than once"),
    # group.params: N and P as lattice.lx is (not read as Z_2, Z_3 or P = 1),
    # and a key the builtin does not take is refused, not ignored
    ("spectrum", {"group": {"builtin": "Z_N", "params": {"N": 2.5}}, "lattice": PLAQUETTE},
     "group.params.N must be an integer, got 2.5"),
    ("spectrum", {"group": {"builtin": "Z_N", "params": {"N": "3"}}, "lattice": PLAQUETTE},
     "group.params.N must be an integer, got '3'"),
    ("spectrum", {"group": {"builtin": "U1_trunc", "params": {"P": 1.7}}, "lattice": PLAQUETTE,
                  "basis": "rep"},
     "group.params.P must be an integer, got 1.7"),
    ("spectrum", {"group": {"builtin": "D3", "params": {"N": 5}}, "lattice": PLAQUETTE},
     "unknown key 'N' in group.params of D3"),
])
def test_config_error_names_the_bad_value(runner, tmp_path, monkeypatch, command,
                                          overrides, message):
    # a bare string is rejected, not read character by character as a list of
    # unknown names; the output directory is checked before the task runs
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path / "bad.yaml", **overrides)
    result = runner.invoke(main, [command, "-c", str(cfg)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert message in lines[0], lines[0]
    assert not (tmp_path / "no_such_dir").exists()


@pytest.mark.parametrize("lx,epsilon,expected", [
    (3, [[0.5, 0], [0.7, 0]], [0.5, 0.7]),
    (3, [[0.5, 0.7], [0.5, 0.7]], [0.5 + 0.7j, 0.5 + 0.7j]),
    (2, [0.5, 0.7], [0.5 + 0.7j]),      # one link: [re, im]
    (4, [0.5, 0.7], [0.5 + 0.7j] * 3),
])
def test_epsilon_spellings_resolve_per_link(tmp_path, lx, epsilon, expected):
    import fockgauge.cli as cli

    doc = {"group": {"builtin": "Z_2"},
           "lattice": {**CHAIN_WITH_MATTER, "lx": lx},
           "params": {"mass": 1.0, "epsilon": epsilon, "coupling": 1.0}}
    model = cli._resolve_model(doc, tmp_path, None)
    np.testing.assert_array_equal(model.epsilon, expected)


@pytest.mark.parametrize("command", ["verify", "spectrum", "observables",
                                     "vortex-masses"])
@pytest.mark.parametrize("env,overrides", [
    ({}, {"seed": "abc"}),
], ids=["seed"])
def test_non_integer_seed_or_threads_exit_2_with_one_line(runner, tmp_path,
                                                          command, env, overrides):
    cfg = write_config(tmp_path / "bad.yaml", **overrides)
    out = tmp_path / "out.json"
    result = runner.invoke(main, [command, "-c", str(cfg), "-o", str(out)],
                           env=env)
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert not out.exists()



@pytest.mark.parametrize("command", ["verify", "spectrum", "observables",
                                     "vortex-masses"])
def test_thread_count_is_neither_an_option_nor_read_from_the_environment(
        runner, tmp_path, command):
    # --threads is refused as an unknown option before anything is written,
    # and $FOCKGAUGE_THREADS, even one that is no integer, changes no byte
    cfg = write_config(tmp_path / "cfg.yaml")
    out, env_out = tmp_path / "out.json", tmp_path / "env.json"
    result = runner.invoke(main, [command, "-c", str(cfg), "-o", str(out),
                                  "--threads", "2"])
    assert result.exit_code == 2, result.output
    assert "--threads" in result.output and not out.exists()
    assert runner.invoke(main, [command, "-c", str(cfg), "-o", str(out)]).exit_code == 0
    result = runner.invoke(main, [command, "-c", str(cfg), "-o", str(env_out)],
                           env={"FOCKGAUGE_THREADS": "x"})
    assert result.exit_code == 0, result.output
    assert env_out.read_bytes() == out.read_bytes()
    assert "threads" not in json.loads(out.read_text())


def test_determinism_identical_runs(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out1)]).exit_code == 0
    assert runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_determinism_across_threads(runner, tmp_path):
    # the result is a function of the configuration and seed alone: two runs
    # of one config write the same bytes, with no thread count in them
    cfg = write_config(tmp_path / "cfg.yaml",
                       group={"builtin": "D3"},
                       lattice={"lx": 2, "ly": 2, "boundary": "open",
                                "include_matter": False},
                       tasks=[{"spectrum": {"k": 6}}])
    out1, out2 = tmp_path / "t1.json", tmp_path / "t2.json"
    r1 = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out1)])
    r2 = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out2)])
    assert r1.exit_code == 0 and r2.exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert "threads" not in json.loads(out1.read_text())


def test_seed_recorded_and_overridable(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "s.json"
    result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out),
                                  "--seed", "99"])
    assert result.exit_code == 0
    assert json.loads(out.read_text())["seed"] == 99


def test_config_echo_reruns_identically(runner, tmp_path):
    # the echoed config must be sufficient to reproduce the run
    cfg = write_config(tmp_path / "cfg.yaml")
    out1 = tmp_path / "first.json"
    assert runner.invoke(main, ["spectrum", "-c", str(cfg),
                                "-o", str(out1)]).exit_code == 0
    echoed = json.loads(out1.read_text())["config"]
    cfg2 = tmp_path / "echo.yaml"
    cfg2.write_text(yaml.safe_dump(echoed))
    out2 = tmp_path / "second.json"
    assert runner.invoke(main, ["spectrum", "-c", str(cfg2),
                                "-o", str(out2)]).exit_code == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["tasks"] == b["tasks"]
    assert a["seed"] == b["seed"]


def test_basis_flag_overrides_config(runner, tmp_path):
    # the same model diagonalized in either link basis gives the same levels
    cfg = write_config(tmp_path / "cfg.yaml", group={"builtin": "Z_3"},
                       lattice={"lx": 2, "ly": 2, "boundary": "open",
                                "include_matter": False},
                       tasks=[{"spectrum": {"k": 10}}])
    out_g, out_r = tmp_path / "g.json", tmp_path / "r.json"
    assert runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out_g),
                                "--basis", "group"]).exit_code == 0
    assert runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out_r),
                                "--basis", "rep"]).exit_code == 0
    vg = np.array(json.loads(out_g.read_text())["tasks"]["spectrum"]["eigenvalues"])
    vr = np.array(json.loads(out_r.read_text())["tasks"]["spectrum"]["eigenvalues"])
    assert np.abs(vg - vr).max() < 1e-10


@pytest.mark.parametrize("k,line", [
    (4, "spectrum: dense on 214 of 1296 rows, 0 steps, 0 restarts, 0 matvecs, "
        "0 reorthogonalizations"),
    (1296, "spectrum: dense on 1296 of 1296 rows, 0 steps, 0 restarts, 0 matvecs, "
           "0 reorthogonalizations"),
])
def test_spectrum_reports_the_rows_it_solved_on_stderr(runner, tmp_path, k, line):
    # U(1) P=1 2x2 with matter splits into 472 components; at k = 4 the
    # cut keeps the 214 rows whose bounds can reach the 4 lowest levels
    cfg = write_config(tmp_path / "u1.yaml",
                       group={"builtin": "U1_trunc", "params": {"P": 1}},
                       lattice={"lx": 2, "ly": 2, "boundary": "open",
                                "include_matter": True},
                       params={"mass": 1.0, "epsilon": 0.7, "coupling": 1.3},
                       basis="rep", tasks=[{"spectrum": {"k": k}}])
    out = tmp_path / "u1.json"
    result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    lines = result.stderr.strip().splitlines()
    assert lines[0] == line and line not in lines[1:], lines
    # the solver's behaviour goes to stderr only
    doc = json.loads(out.read_text())["tasks"]["spectrum"]
    assert set(doc) == {"method", "eigenvalues", "residuals", "degeneracies"}


def test_spectrum_config_errors_fail_before_assembly(runner, tmp_path, monkeypatch):
    import fockgauge.cli as cli

    def no_assembly(*args, **kwargs):
        raise AssertionError("full-space Hamiltonian built before the config check")

    monkeypatch.setattr(cli, "build_hamiltonian", no_assembly)
    # Z_3 on a 2x2 periodic lattice: 3^8 = 6561 states, over the dense sector cap
    out = tmp_path / "out.json"
    cfg = write_config(tmp_path / "big.yaml", group={"builtin": "Z_3"},
                       tasks=[{"spectrum": {"k": 2, "sector": "physical"}}])
    result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert "4096" in lines[0]
    assert not out.exists()

    cfg = write_config(tmp_path / "k0.yaml", tasks=[{"spectrum": {"k": 0}}])
    result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("config error:")
    assert not out.exists()


def _no_task_run(monkeypatch):
    import fockgauge.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("a model task ran before the config check")

    for name in ("build_hamiltonian", "physical_basis", "verify_model", "vortex_masses"):
        monkeypatch.setattr(cli, name, no_run)


@pytest.mark.parametrize("command", ["verify", "spectrum", "observables", "vortex-masses"])
@pytest.mark.parametrize("overrides,key", [
    ({"sed": 7}, "sed"),
    ({"group": {"builtin": "Z_2", "parms": {}}}, "parms"),
    ({"lattice": {"lx": 2, "ly": 2, "boundry": "periodic", "include_matter": False}},
     "boundry"),
    ({"params": {"couplng": 3.0, "terms": ["magnetic"]}}, "couplng"),
    ({"tasks": ["verify", {"spectrum": {"k": 2, "sector": "physical", "kk": 3}},
                "vortex-masses", "observables"]}, "kk"),
    ({"tasks": ["verify", "spectrum", "vortex-masses", "observables", "spectrm"]}, "spectrm")],
    ids=["top-level", "group", "lattice", "params", "task-option", "task-name"])
def test_unknown_config_key_exits_2_before_any_task(runner, tmp_path, monkeypatch, command,
                                                    overrides, key):
    # a misspelled key is refused, not run with its default
    _no_task_run(monkeypatch)
    out = tmp_path / "out.json"
    cfg = write_config(tmp_path / "cfg.yaml", **overrides)
    result = runner.invoke(main, [command, "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert f"unknown key {key!r}" in lines[0], lines
    assert not out.exists()


def test_spectrum_sector_other_than_physical_exits_2(runner, tmp_path, monkeypatch):
    _no_task_run(monkeypatch)
    out = tmp_path / "out.json"
    cfg = write_config(tmp_path / "cfg.yaml", tasks=[{"spectrum": {"k": 2, "sector": "phys"}}])
    result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert lines == ["config error: spectrum sector must be 'physical', got 'phys'"], lines
    assert not out.exists()


def test_physical_sector_past_int64_dim_exits_2_at_the_cap(runner, tmp_path, monkeypatch):
    import fockgauge.cli as cli

    def no_assembly(*args, **kwargs):
        raise AssertionError("full-space Hamiltonian built before the dim cap")

    monkeypatch.setattr(cli, "build_hamiltonian", no_assembly)
    # D3 5x4 open pure gauge: 6**31 states, more than int64 holds
    out = tmp_path / "out.json"
    cfg = write_config(tmp_path / "huge.yaml", group={"builtin": "D3"},
                       lattice={"lx": 5, "ly": 4, "boundary": "open",
                                "include_matter": False},
                       tasks=[{"spectrum": {"k": 2, "sector": "physical"}}])
    result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert "limited to dim 4096" in lines[0] and str(6 ** 31) in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("basis", ["rep", "group"])
def test_observables_on_the_vacuum_take_closed_form_values(runner, tmp_path, basis):
    # the strong-coupling vacuum carries the trivial irrep on every link: its
    # projector reads 1, and every Wilson loop and Z_3 electric weight reads 0
    names = ["trivial_rep_weight", "plaquette_trace", "electric_energy",
             "magnetic_energy"]
    cfg = write_config(tmp_path / "vac.yaml", group={"builtin": "Z_3"},
                       lattice={"lx": 2, "ly": 2, "boundary": "open",
                                "include_matter": False},
                       params={"coupling": 1.0}, basis=basis,
                       tasks=[{"observables": {"names": names, "state": "vacuum"}}])
    out = tmp_path / "vac.json"
    result = runner.invoke(main, ["observables", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    task = json.loads(out.read_text())["tasks"]["observables"]
    assert task["state"] == "vacuum"
    values = {name: complex(*value) for name, value in task["values"].items()}
    assert set(values) == set(names)
    expected = {"trivial_rep_weight": 1.0, "plaquette_trace": 0.0,
                "electric_energy": 0.0, "magnetic_energy": 0.0}
    for name, value in expected.items():
        assert abs(values[name] - value) <= 1e-12, (name, values[name])


def test_observables_build_only_the_terms_they_name(runner, tmp_path, monkeypatch):
    # Z_2 2x2 open with matter: mass, tunneling, electric and magnetic terms,
    # of which only the magnetic one is asked for
    import fockgauge.lattice_model as lm

    def unbuildable(model):
        raise AssertionError("built a term that no observable names")

    monkeypatch.setitem(lm._TERMS, "tunneling", unbuildable)
    monkeypatch.setitem(lm._TERMS, "electric", unbuildable)
    cfg = write_config(tmp_path / "one.yaml",
                       lattice={"lx": 2, "ly": 2, "boundary": "open",
                                "include_matter": True},
                       params={"mass": 1.0, "epsilon": 0.5, "coupling": 1.0},
                       tasks=[{"observables": {"names": ["magnetic_energy"],
                                               "state": "vacuum"}}])
    out = tmp_path / "one.json"
    result = runner.invoke(main, ["observables", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 0, result.output
    values = json.loads(out.read_text())["tasks"]["observables"]["values"]
    assert set(values) == {"magnetic_energy"}
    # the group-basis vacuum is uniform over Z_2: every Wilson loop averages to 0
    assert abs(complex(*values["magnetic_energy"])) <= 1e-12, values


@pytest.mark.parametrize("command", ["spectrum", "observables"])
def test_eigensolve_failure_exits_1_with_one_line(runner, tmp_path, monkeypatch,
                                                  command):
    import fockgauge.cli as cli

    def no_convergence(*args, **kwargs):
        raise cli.EigensolveError("Lanczos collected only 0 of 1 eigenpairs",
                                  best_residual=1e-3)

    monkeypatch.setattr(cli, "eigensolve", no_convergence)
    cfg = write_config(tmp_path / "cfg.yaml")
    out = tmp_path / "out.json"
    result = runner.invoke(main, [command, "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 1, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("eigensolve failed:"), lines
    assert "best residual" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "spectrum", "observables"])
def test_model_past_physical_memory_exits_2_before_assembly(runner, tmp_path,
                                                            monkeypatch, command):
    import fockgauge.cli as cli

    def no_full_space(*args, **kwargs):
        raise AssertionError("full space touched before the memory preflight")

    for name in ("build_hamiltonian", "verify_model", "vacuum_state"):
        monkeypatch.setattr(cli, name, no_full_space)
    # D3 5x4 open pure gauge: 6**31 states, 24 B each is about 3e25 B
    out = tmp_path / "out.json"
    cfg = write_config(tmp_path / "huge.yaml", group={"builtin": "D3"},
                       lattice={"lx": 5, "ly": 4, "boundary": "open",
                                "include_matter": False},
                       tasks=[{"spectrum": {"k": 2}}, "verify",
                              {"observables": {"names": ["magnetic_energy"],
                                               "state": "vacuum"}}])
    result = runner.invoke(main, [command, "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert "physical memory" in lines[0] and "10^24.1" in lines[0]
    assert not out.exists()


def _nan_entry(doc):
    doc["irreps"][2]["matrices"][1][0][1][0] = float("nan")


INT64 = "must be a JSON integer that fits in int64, got"


@pytest.mark.parametrize("corrupt,message", [
    (lambda doc: doc["mul"].__setitem__(0, 10 ** 20), f"each mul entry {INT64} {10 ** 20}"),
    (lambda doc: doc["mul"].__setitem__(0, 1.9), f"each mul entry {INT64} 1.9"),
    (lambda doc: doc.update(order=2.5), f"order {INT64} 2.5"),
    (_nan_entry, "irrep 2, element 1: matrix entry is not a finite number"),
    (lambda doc: doc["irreps"][2]["matrices"][1][0][1].__setitem__(0, "-1"),
     "irrep 2, element 1: matrix entry must be a JSON number, got '-1'"),
    (lambda doc: doc["irreps"][2]["matrices"][1][0][1].__setitem__(1, False),
     "irrep 2, element 1: matrix entry must be a JSON number, got False"),
    (lambda doc: doc["irreps"][2]["matrices"][1][0][1].__setitem__(0, None),
     "irrep 2, element 1: matrix entry must be a JSON number, got None")],
    ids=["mul-past-int64", "mul-float", "order-float", "nan-entry", "string-entry",
         "bool-entry", "null-entry"])
def test_bad_group_file_numbers_exit_2_with_one_line(runner, tmp_path, corrupt, message):
    path = _write_d3_file(tmp_path / "d3.json")
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["group-info", "--file", str(path)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0], lines
    cfg = write_config(tmp_path / "cfg.yaml", group={"file": "d3.json"})
    out = tmp_path / "out.json"
    result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(out)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert message in lines[0] and not out.exists()


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(order=0),
    lambda doc: doc["mul"].pop(),
    lambda doc: doc["irreps"][1]["matrices"][1][0].__setitem__(0, ["-1", False]),
    lambda doc: doc.update(fundamental="x"),
], ids=["order-below-one", "mul-length", "string-and-bool-pair", "fundamental"])
def test_group_file_error_line_names_the_file(runner, tmp_path, corrupt):
    path = _write_d3_file(tmp_path / "d3_named.json")
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["group-info", "--file", str(path)])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "d3_named.json" in lines[0]
    cfg = write_config(tmp_path / "cfg.yaml", group={"file": "d3_named.json"})
    result = runner.invoke(main, ["spectrum", "-c", str(cfg), "-o", str(tmp_path / "o.json")])
    assert result.exit_code == 2, result.output
    lines = result.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), lines
    assert "d3_named.json" in lines[0], lines
