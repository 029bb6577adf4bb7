"""Batch command line: group inspection, model verification, spectra.

Configuration is one YAML document (see README for the schema); results
are written as a JSON file whose content depends only on the configuration
and seed, never on wall-clock.  Timings go to stderr.

The model commands (verify, spectrum, observables, vortex-masses) share one
runner, ``_model_command``, and one failure contract.  Exit 2 with one
``config error:`` line: an unreadable or malformed config or group file
(its ``order``, ``dim`` and ``mul`` entries not JSON integers that fit in
int64, or a matrix entry not finite), a key not in ``KEYS`` (in any task
entry too), a spectrum ``sector`` other than ``physical``, a group file
that fails a ``validate`` invariant (named with its residual), a mass,
coupling, part of epsilon or electric weight that is NaN, infinite or not a
number, a seed, spectrum k, lattice size or ``group.params`` N or P that is
not an integer (no bool or quoted number is coerced, nor a fraction to an
integer), a ``group.params`` key its builtin does not take
(``build_builtin``), an ``include_matter``, ``staggered`` or ``include_hc``
that is not a YAML boolean, a section or value of the wrong type (``params``,
``electric_weights`` and ``group.params`` are mappings; ``terms`` and
observable ``names`` are lists), an unknown term, observable or state, a
term listed twice, two numbers as ``epsilon`` on a two-link lattice (one
complex value, or one real value per link?), missing electric weights, an
output path whose directory does not exist, a request over a dense cap, and
a model whose full space could not fit in the machine's physical memory
(``BYTES_PER_ROW`` per basis state; the vortex-masses task never builds the
configured model).  All of these are raised before any Hamiltonian is
assembled.  Exit 1 with one ``eigensolve failed:`` line: an eigensolver
that does not certify its pairs.  Neither writes an output file.  A verify
report with a failed check is written, then exits 1.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Optional

import click
import numpy as np
import yaml

from . import __version__
from .group_core import (
    GroupCatalogEntry,
    GroupFileError,
    build_builtin,
    character_table,
    load_group_file,
    validate,
)
from .lattice_model import (
    OBSERVABLE_NAMES,
    LatticeSpec,
    Model,
    ModelParams,
    build_hamiltonian,
    observable,
    physical_basis,
    vacuum_state,
)
from .link_space import GROUP, REP
from .spectra import EigensolveError, eigensolve, expectation, vortex_masses
from .verification import verify_model

# the least a full-space sparse Hamiltonian holds per row: one float64 value,
# one index and one indptr slot, so a model that could fit is never refused
BYTES_PER_ROW = 24


# each section's keys and each task's options; any other key is a misspelling
KEYS = {"config": ("group", "lattice", "params", "basis", "seed", "output", "tasks"),
        "group": ("builtin", "file", "params"), "lattice": ("lx", "ly", "boundary", "include_matter"),
        "params": ("mass", "epsilon", "coupling", "staggered", "electric_weights", "magnetic_rep",
                   "terms", "include_hc"),
        "tasks": ("verify", "spectrum", "observables", "vortex-masses"), "verify": (),
        "spectrum": ("k", "sector"), "observables": ("names", "state"), "vortex-masses": ()}


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# configuration handling
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        doc = yaml.safe_load(Path(path).read_text())
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping")
    return _known(doc, "config")


def _known(section: dict, name: str) -> dict:
    """``section``, a config error naming its first key not in KEYS[name]."""
    for key in (key for key in section if key not in KEYS[name]):
        raise ConfigError(f"unknown key {key!r} in {name}; known: {', '.join(KEYS[name])}")
    return section


def _optional(raw, kind: type, what: str):
    """``raw`` if it is None or a ``kind`` (dict, list or str), else a config error."""
    if raw is not None and not isinstance(raw, kind):
        kind_name = {dict: "mapping", list: "list", str: "string"}[kind]
        raise ConfigError(f"{what} must be a {kind_name}, got {raw!r}")
    return raw


def _as_int(raw, name: str) -> int:
    """An int or integral float; never a bool or a string."""
    try:
        if isinstance(raw, (bool, str)):
            raise TypeError(raw)
        value = int(raw)
        if value != raw:
            raise ValueError(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be an integer, got {raw!r}") from exc
    return value


def _as_float(raw, name: str) -> float:
    """An int or float as a float; never a bool or a string."""
    try:
        if isinstance(raw, bool) or not isinstance(raw, (int, float)):
            raise TypeError(raw)
        return float(raw)
    except (TypeError, OverflowError) as exc:
        raise ConfigError(f"{name} must be a number, got {raw!r}") from exc


def _as_bool(raw, name: str) -> bool:
    if not isinstance(raw, bool):
        raise ConfigError(f"{name} must be true or false, got {raw!r}")
    return raw


def _resolve_group(doc: dict, config_dir: Path) -> GroupCatalogEntry:
    group = doc.get("group")
    if not isinstance(group, dict):
        raise ConfigError("config needs a 'group' section")
    if "file" in _known(group, "group"):
        path = Path(group["file"])
        if not path.is_absolute():
            path = config_dir / path
        if not path.exists():
            raise ConfigError(f"group file {path} does not exist")
        entry = load_group_file(path)
        first = validate(entry).first_failure()
        if first is not None:
            raise ConfigError(f"group file {path} fails invariant {first.name} "
                              f"(residual {first.residual:.3e})")
        return entry
    name = group.get("builtin")
    if not name:
        raise ConfigError("group section needs 'builtin' or 'file'")
    params = _optional(group.get("params"), dict, "group params") or {}
    try:
        return build_builtin(str(name), **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad group spec: {exc}") from exc


def _resolve_epsilon(raw, n_links: int):
    """A number, [re, im] or one of those per link.  Two numbers on a
    two-link lattice could be either reading, so they are refused."""
    if raw is None:
        return 1.0
    if isinstance(raw, list) and len(raw) == 2 and not any(isinstance(x, list) for x in raw):
        a, b = raw
        value = complex(_as_float(a, "epsilon"), _as_float(b, "epsilon"))
        if n_links == 2:
            raise ConfigError(
                f"epsilon {raw!r} on a two-link lattice reads as one complex value "
                f"or as one real value per link; write [[{a}, 0], [{b}, 0]] per link "
                f"or [[{a}, {b}], [{a}, {b}]]")
        return value
    if isinstance(raw, list):
        return [_resolve_epsilon(x, n_links=1) for x in raw]   # one link's value each
    return _as_float(raw, "epsilon")


def _resolve_model(doc: dict, config_dir: Path, basis_override: Optional[str]) -> Model:
    entry = _resolve_group(doc, config_dir)
    lat_doc = doc.get("lattice")
    if not isinstance(lat_doc, dict):
        raise ConfigError("config needs a 'lattice' section")
    _known(lat_doc, "lattice")
    try:
        lattice = LatticeSpec(
            lx=_as_int(lat_doc["lx"], "lattice.lx"),
            ly=_as_int(lat_doc["ly"], "lattice.ly"),
            boundary=lat_doc.get("boundary", "open"),
            include_matter=_as_bool(lat_doc.get("include_matter", False),
                                    "lattice.include_matter"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad lattice spec: {exc}") from exc
    basis = basis_override or doc.get("basis", REP)
    if basis not in (REP, GROUP):
        raise ConfigError(f"basis must be 'rep' or 'group', got {basis!r}")
    p_doc = _known(_optional(doc.get("params"), dict, "params") or {}, "params")
    weights = _optional(p_doc.get("electric_weights"), dict, "electric_weights")
    try:
        params = ModelParams(
            mass=_as_float(p_doc.get("mass", 0.0), "params.mass"),
            epsilon=_resolve_epsilon(p_doc.get("epsilon"), lattice.n_links),
            coupling=_as_float(p_doc.get("coupling", 1.0), "params.coupling"),
            electric_weights=(None if weights is None else
                              {str(k): _as_float(v, f"electric weight {k!r}")
                               for k, v in weights.items()}),
            magnetic_rep=(str(p_doc["magnetic_rep"])
                          if "magnetic_rep" in p_doc else None),
            staggered=_as_bool(p_doc.get("staggered", True), "params.staggered"),
            terms=_optional(p_doc.get("terms"), list, "terms"),
            include_hc=_as_bool(p_doc.get("include_hc", True), "params.include_hc"),
        )
        model = Model(entry, lattice, params, basis_tag=basis)
        if "electric" in model.terms:  # model.terms validates the term list
            model.electric_weights()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return model


def _check_fits_memory(model: Model) -> None:
    """ConfigError when the full space needs more than the physical memory."""
    dim = model.global_basis.dim
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if dim * BYTES_PER_ROW > memory:
        raise ConfigError(
            f"full space of dim 10^{math.log10(dim):.1f} at {BYTES_PER_ROW} B "
            f"per state exceeds the {memory / 2 ** 30:.1f} GiB of physical memory")


def _task_options(doc: dict, task_name: str) -> dict:
    """Options of the config's first entry for one task, {} if it has none;
    every entry must name a known task and hold only its known options."""
    tasks = doc.get("tasks")
    if not isinstance(tasks, list) or not tasks:
        raise ConfigError("config needs a nonempty 'tasks' list")
    found = []
    for item in tasks:
        for name, value in _known(item if isinstance(item, dict) else {str(item): None},
                                  "tasks").items():
            opts = _known(value if isinstance(value, dict) else
                          {} if value is None else {"names": value}, name)
            found += [opts] if name == task_name else []
    opts = found[0] if found else {}
    _optional(opts.get("names"), list, f"{task_name} names")
    return opts


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def _emit(payload: dict, output: Optional[str]):
    text = json.dumps(_jsonify(payload), sort_keys=True, indent=2) + "\n"
    if output:
        Path(output).write_text(text)
        click.echo(f"wrote {output}", err=True)
    else:
        click.echo(text, nl=False)


def _result_skeleton(doc: dict, seed: int) -> dict:
    return {
        "artifact": {"name": "fockgauge", "version": __version__},
        "seed": seed,
        "config": doc,
        "tasks": {},
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _common_options(fn):
    fn = click.option("--config", "-c", "config_path", required=True,
                      type=click.Path(), help="YAML run configuration")(fn)
    fn = click.option("--seed", type=int, default=None,
                      help="override the config seed")(fn)
    fn = click.option("--output", "-o", type=click.Path(), default=None,
                      help="override the config output path")(fn)
    fn = click.option("--basis", type=click.Choice([REP, GROUP]), default=None,
                      help="override the config link basis")(fn)
    return fn


@click.group()
@click.version_option(__version__)
def main():
    """Lattice gauge theory models: build, verify, diagonalize."""


@main.command("group-info")
@click.argument("name", required=False)
@click.option("--param", "-p", "params", multiple=True,
              help="group parameter, e.g. -p N=5 or -p j_max=1/2")
@click.option("--file", "file_path", type=click.Path(), default=None,
              help="load the group from a definition file instead")
def group_info(name, params, file_path):
    """Print order, classes, irrep dimensions and the character table."""
    try:
        if file_path:
            entry = load_group_file(file_path)
        elif name:
            pairs = (item.partition("=")[::2] for item in params)
            entry = build_builtin(name, **{key: int(v) if v.lstrip("-").isdigit() else v
                                           for key, v in pairs})
        else:
            raise ConfigError("give a builtin name or --file")
    except (GroupFileError, ConfigError, KeyError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)

    report = validate(entry)
    if not report.passed:
        first = report.first_failure()
        click.echo(f"INVALID GROUP: first failing invariant {first.name} "
                   f"(residual {first.residual:.3e})", err=True)
        sys.exit(2)
    if entry.is_lie:
        click.echo(f"group: {entry.name} (truncated Lie)")
        click.echo(f"irreps: {[ir.label for ir in entry.irreps]}")
        click.echo(f"dims: {[ir.dim for ir in entry.irreps]}")
        click.echo(f"casimirs: {[ir.casimir for ir in entry.irreps]}")
        click.echo(f"link space dimension: {entry.dim_sum()}")
    else:
        spec = entry.spec
        table = character_table(entry)
        click.echo(f"group: {entry.name}, order {spec.order}")
        click.echo(f"classes: {table.class_labels} sizes {table.class_sizes.tolist()}")
        click.echo(f"irreps: {[ir.label for ir in entry.irreps]} "
                   f"dims {[ir.dim for ir in entry.irreps]}")
        click.echo(f"sum of dim^2: {entry.dim_sum()} (= order: "
                   f"{entry.dim_sum() == spec.order})")
        click.echo("character table (rows irreps, columns classes):")
        for label, row in zip(table.irrep_labels, table.chi):
            cells = ", ".join(f"{z.real:+.4f}{z.imag:+.4f}i" for z in row)
            click.echo(f"  {label}: {cells}")
    click.echo("all group invariants pass "
               f"(max residual {report.max_residual:.3e})")


def _model_command(name: str, passed=lambda payload: True):
    """Register ``task(model, options, seed) -> payload`` as command ``name``;
    the payload goes under ``tasks`` with dashes in ``name`` made underscores.

    The one failure contract of the model commands: a ConfigError or
    GroupFileError exits 2 with one ``config error:`` line and an
    EigensolveError exits 1 with one ``eigensolve failed:`` line, both
    before any output is written.  A payload that ``passed`` rejects (a
    failed verify report) is written and then exits 1.
    """
    def register(task):
        @main.command(name, help=task.__doc__)
        @_common_options
        def command(config_path, seed, output, basis):
            t0 = time.time()
            try:
                doc = _load_config(config_path)
                opts = _task_options(doc, name)
                if seed is None:
                    seed = _as_int(doc.get("seed", 0), "seed")
                output = output or _optional(doc.get("output"), str, "output")
                if output and not Path(output).parent.is_dir():
                    raise ConfigError(f"output directory of {output} does not exist")
                model = _resolve_model(doc, Path(config_path).resolve().parent,
                                       basis)
                result = task(model, opts, seed)
            except (ConfigError, GroupFileError) as exc:
                click.echo(f"config error: {exc}", err=True)
                sys.exit(2)
            except EigensolveError as exc:
                click.echo(f"eigensolve failed: {exc}", err=True)
                sys.exit(1)
            payload = _result_skeleton(doc, seed)
            payload["tasks"][name.replace("-", "_")] = result
            _emit(payload, output)
            ok = passed(result)
            click.echo(f"{name}: {'done' if ok else 'FAIL'} in "
                       f"{time.time() - t0:.2f}s", err=True)
            sys.exit(0 if ok else 1)
        return task
    return register


@_model_command("verify", passed=lambda payload: payload["passed"])
def _verify_payload(model, opts, seed):
    """Run the full identity suite for the configured model."""
    _check_fits_memory(model)
    report = verify_model(model, seed=seed)
    for check in report.checks:
        click.echo(str(check), err=True)
    return {
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "residual": c.residual,
             "tolerance": c.tolerance}
            for c in report.checks
        ],
    }


@_model_command("spectrum")
def _spectrum_payload(model, opts, seed):
    """Lowest eigenvalues, degeneracy table, optional physical-sector spectrum."""
    k = _as_int(opts.get("k", 6), "spectrum k")
    if k < 1:
        raise ConfigError(f"spectrum k must be at least 1, got {k}")
    basis_cols, sector = None, opts.get("sector")
    if sector not in (None, "physical"):
        raise ConfigError(f"spectrum sector must be 'physical', got {sector!r}")
    if sector:
        # before the full-space solve, so a model over the dense cap fails fast
        try:
            basis_cols = physical_basis(model)
        except ValueError as exc:
            raise ConfigError(f"physical sector: {exc}") from exc
    _check_fits_memory(model)
    ham = build_hamiltonian(model)
    result = eigensolve(ham, k=k, seed=seed)
    click.echo(f"spectrum: {result.method} on {result.rows} of {ham.dim} rows, "
               f"{result.steps} steps, {result.restarts} restarts, {result.matvecs} "
               f"matvecs, {result.reorthogonalizations} reorthogonalizations", err=True)
    payload = {
        "method": result.method,
        "eigenvalues": result.eigenvalues,
        "residuals": result.residuals,
        "degeneracies": result.degeneracies(),
    }
    if basis_cols is not None:
        dim = basis_cols.shape[1]
        sector = {"dimension": dim, "eigenvalues": [], "residuals": []}
        if dim:
            # in complex128 whatever H's dtype, so the sector spectrum does
            # not depend on how H is stored: a float64 reduction runs through
            # another BLAS kernel and differs in the last digits
            cols = basis_cols.astype(complex, copy=False)
            h_red = cols.conj().T @ ham.apply(cols)
            reduced = eigensolve(h_red, k=min(k, dim), seed=seed)
            sector.update(eigenvalues=reduced.eigenvalues, residuals=reduced.residuals)
        payload["physical_sector"] = sector
    return payload


@_model_command("observables")
def _observables_payload(model, opts, seed):
    """Expectation values on the ground state (or the bare vacuum)."""
    names = opts.get("names") or ["electric_energy", "plaquette_trace"]
    state_kind = opts.get("state", "ground")
    for name in names:  # every check before any assembly
        if name not in OBSERVABLE_NAMES:
            raise ConfigError(f"unknown observable {name!r}; "
                              f"known: {OBSERVABLE_NAMES}")
        term = name.removesuffix("_energy")
        if name.endswith("_energy") and term not in model.terms:
            raise ConfigError(f"model has no {term} term")
        if name == "plaquette_trace" and not model.lattice.plaquettes:
            raise ConfigError("model has no plaquettes")
    _check_fits_memory(model)
    if state_kind == "vacuum":
        state = vacuum_state(model)
    elif state_kind == "ground":
        state = eigensolve(build_hamiltonian(model), k=1, seed=seed).eigenvectors[:, 0]
    else:
        raise ConfigError(f"unknown state {state_kind!r}")
    values = {name: expectation(observable(model, name), state, name).value
              for name in names}
    return {"state": state_kind, "values": values}


@_model_command("vortex-masses")
def _vortex_masses_payload(model, opts, seed):
    """Per-conjugacy-class magnetic excitation gaps on a single plaquette."""
    try:
        return vortex_masses(model.entry, j=model.magnetic_rep,
                             coupling=model.params.coupling)
    except ValueError as exc:  # Lie catalog, or over the dense cap
        raise ConfigError(str(exc)) from exc


if __name__ == "__main__":
    main()
