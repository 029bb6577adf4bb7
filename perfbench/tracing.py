"""Spans recorded from outside the library.

The benchmark never edits fockgauge.  For a traced pass it rebinds every
public function of the library's modules, in every module namespace that
refers to it, to a wrapper that records a span around the call; the
originals are put back afterwards so untraced passes run the library as
shipped.  Spans live in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from contextlib import contextmanager
from time import perf_counter

# fockgauge's modules, in dependency order; these are the benchmark's layers.
# The CLI is not one: each CLI task is a short sequence of these calls.
LAYERS = ("group_core", "clebsch_gordan", "link_space", "matter_space",
          "lattice_model", "spectra", "verification")
HARNESS = "harness"


class Tracer:
    """Spans with name, layer, start, end, parent span and op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: str | None = None

    @contextmanager
    def span(self, name: str, layer: str = HARNESS, **fields):
        rec = {"id": len(self.spans), "name": name, "layer": layer,
               "parent": self._stack[-1] if self._stack else None,
               "op": self.op, "start": perf_counter(), "end": None, **fields}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()


class NullTracer:
    """Stands in for a Tracer when a pass is untraced."""

    op = None

    @contextmanager
    def span(self, name: str, layer: str = HARNESS, **fields):
        yield {}


def _annotate(rec: dict, out) -> None:
    """Sizes of what a call returned: nnz, physical dim, residuals, checks."""
    matrix = getattr(out, "matrix", None)
    if hasattr(matrix, "nnz"):
        rec["nnz"] = int(matrix.nnz)
    elif hasattr(out, "residuals") and hasattr(out, "eigenvalues"):
        rec["max_residual"] = float(max(out.residuals, default=0.0))
    elif hasattr(out, "checks") and hasattr(out, "passed"):
        rec["checks"] = len(out.checks)
        rec["checks_failed"] = sum(not c.passed for c in out.checks)
    elif getattr(out, "ndim", None) == 2 and rec["name"].endswith("physical_basis"):
        rec["physical_dim"] = int(out.shape[1])


def _wrap(tracer: Tracer, fn, layer: str):
    name = f"{layer}.{fn.__name__}"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, layer) as rec:
            out = fn(*args, **kwargs)
            _annotate(rec, out)
            return out
    return traced


def _wrap_terms(tracer: Tracer, fn):
    """hamiltonian_terms, one call per term so each term gets its own span.

    The library's loop already builds each named term on its own and keys
    the result by name, so the split returns the same dict for the same work.
    """
    @functools.wraps(fn)
    def traced(model, threads: int = 1, names=None):
        with tracer.span("lattice_model.hamiltonian_terms", "lattice_model"):
            out = {}
            for term in (model.terms if names is None else names):
                with tracer.span(f"lattice_model.term.{term}", "lattice_model",
                                 term=term, basis=model.basis_tag) as rec:
                    part = fn(model, threads=threads, names=(term,))
                    rec["nnz"] = int(part[term].matrix.nnz)
                out.update(part)
            return out
    return traced


@contextmanager
def instrumented(tracer: Tracer):
    """Route every public fockgauge function through a span while inside."""
    package = importlib.import_module("fockgauge")
    modules = {layer: importlib.import_module(f"fockgauge.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for attr, fn in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            wrappers[fn] = (_wrap_terms(tracer, fn) if attr == "hamiltonian_terms"
                            else _wrap(tracer, fn, layer))
    patched = []
    for namespace in [package, *modules.values()]:
        for attr, value in list(vars(namespace).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(namespace, attr, wrappers[value])
                patched.append((namespace, attr, value))
    try:
        yield
    finally:
        for namespace, attr, value in patched:
            setattr(namespace, attr, value)


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per layer: span durations minus the part their child spans cover."""
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    out: dict[str, float] = {}
    for rec in spans:
        own = rec["end"] - rec["start"] - child_time[rec["id"]]
        out[rec["layer"]] = out.get(rec["layer"], 0.0) + own
    return out


def outermost(spans: list[dict], name: str) -> list[dict]:
    """Spans called ``name`` that do not sit inside another span of that name."""
    by_id = {rec["id"]: rec for rec in spans}
    found = []
    for rec in spans:
        if rec["name"] != name:
            continue
        parent = rec["parent"]
        while parent is not None and by_id[parent]["name"] != name:
            parent = by_id[parent]["parent"]
        if parent is None:
            found.append(rec)
    return found
