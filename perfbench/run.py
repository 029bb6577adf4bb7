#!/usr/bin/env python3
"""fockgauge benchmark: four workloads through the public library API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload assemble-d3 --seed 1 --seconds 1 --trace 0

Each run sets up its models, then runs whole passes over the workload's ops
(closed loop: one op starts when the previous one ends) until ``--seconds``
have elapsed, at least one pass.  Every op is checked against
``reference.json``; an exception or a mismatch is a failed op.  The last
stdout line is the result object; ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones taken from spans (see README.md).

    python3 perfbench/run.py --self-test          # seconds, tiny model
    python3 perfbench/run.py --write-reference    # re-record reference.json
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"   # the metric names and units reported
sys.path.insert(0, str(HERE))

from tracing import LAYERS, NullTracer, Tracer, instrumented, outermost, self_times  # noqa: E402

D3_WEIGHTS = {"I": 0.0, "p": 1.0, "2": 1.0}
MATTER = {"mass": 1.0, "epsilon": 0.7, "coupling": 1.3}

# name: (catalog, catalog params, (lx, ly, boundary, matter), ModelParams kwargs, basis)
MODELS = {
    "L1": ("D3", {}, (2, 2, "open", True), {**MATTER, "electric_weights": D3_WEIGHTS}, "group"),
    "L2": ("D3", {}, (2, 2, "open", True), {**MATTER, "electric_weights": D3_WEIGHTS}, "rep"),
    "L4": ("SU2_trunc", {"j_max": "1/2"}, (2, 2, "open", True), MATTER, "rep"),
    "D3-pure": ("D3", {}, (2, 2, "open", False),
                {"coupling": 1.3, "electric_weights": D3_WEIGHTS}, "group"),
    "Z3-pure": ("Z_3", {}, (3, 2, "open", False), {"coupling": 1.3}, "group"),
    "U1-matter": ("U1_trunc", {"P": 1}, (2, 2, "open", True), MATTER, "rep"),
    "Z2-tiny": ("Z_2", {}, (2, 2, "periodic", False), {"coupling": 1.0}, "group"),
}
# The same physical model in the other link basis: Tr H and ||H||_F must agree.
BASIS_TWIN = {"L1": "L2", "L2": "L1"}

# op: (kind, model, k); k is the number of eigenpairs for solve/sector ops.
WORKLOADS = {
    "assemble-d3": [("assemble", "L1", None), ("assemble", "L2", None)],
    "solve-su2": [("solve", "L4", 4)],
    # The L1 sector op fails at physical_basis's dim cap today (ROADMAP 3);
    # it stays in so the defect shows in `failed`.
    "sector-small": [("sector", "D3-pure", 6), ("sector", "Z3-pure", 6),
                     ("sector", "U1-matter", 6), ("sector", "L1", 6)],
    "verify-gauss": [("verify", "L1", None), ("verify", "L4", None)],
}
SELF_TEST_OPS = [("assemble", "Z2-tiny", None), ("solve", "Z2-tiny", 4),
                 ("sector", "Z2-tiny", 6), ("verify", "Z2-tiny", None)]

APPLY_BATCH = 20      # H.apply calls per assemble op
MATVEC_PROBES = 10    # H.apply calls after a solve, outside its timing
SETUP_REPEATS = 3     # fresh interpreters timed for setup_s
EIG_TOL = 1e-10
RESIDUAL_TOL = 1e-8
INVARIANT_RTOL = 1e-12
TERMS = ("mass", "tunneling", "electric", "magnetic")
BASES = ("group", "rep")

# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_fockgauge():
    """The library from this checkout's src/, never an installed copy."""
    if not (SRC / "fockgauge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fockgauge sources under {SRC}")
    sys.path.insert(0, str(SRC))
    fg = importlib.import_module("fockgauge")
    if Path(fg.__file__).resolve().parent != SRC / "fockgauge":
        sys.exit(f"perfbench: imported fockgauge from {fg.__file__}, not {SRC}")
    return fg


def setup(ops) -> dict:
    """Catalogs and Models, with the connection operators their terms use."""
    fg = import_fockgauge()
    catalogs, models = {}, {}
    for _, name, _ in ops:
        if name in models:
            continue
        group, group_params, (lx, ly, boundary, matter), params, basis = MODELS[name]
        key = (group, tuple(sorted(group_params.items())))
        if key not in catalogs:
            catalogs[key] = fg.build_builtin(group, **group_params)
        lattice = fg.LatticeSpec(lx, ly, boundary=boundary, include_matter=matter)
        model = fg.Model(catalogs[key], lattice, fg.ModelParams(**params), basis_tag=basis)
        if "tunneling" in model.terms:
            model.u_tunneling
        if "magnetic" in model.terms:
            model.u_magnetic
        models[name] = model
    return models


# A fresh interpreter times its own imports (numpy and scipy included), the
# catalogs and the models; it prints the seconds as its last line.
SETUP_PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, {here!r})
import run
run.setup(run.ops_of({workload!r}))
print(time.perf_counter() - start)
"""


def setup_seconds(workload: str) -> float:
    """Median set-up time over fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE.format(here=str(HERE), workload=workload)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def ops_of(workload: str):
    return SELF_TEST_OPS if workload == "self-test" else WORKLOADS[workload]


# ---------------------------------------------------------------------------
# ops: each returns (observed outputs, stage seconds, result seconds, matvec s)
# ---------------------------------------------------------------------------

def _vectors(dim: int, seed: int, index: int, count: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, index])
    out = []
    for _ in range(count):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        out.append(v / np.linalg.norm(v))
    return out


def _timed_applies(ham, vectors, tracer):
    times, quadratic, first = [], [], None
    with tracer.span("harness.apply_batch", count=len(vectors)):
        for v in vectors:
            start = perf_counter()
            w = ham.apply(v)
            times.append(perf_counter() - start)
            quadratic.append(np.vdot(v, w))
            if first is None:
                first = (v, w)
    return times, quadratic, first


def op_assemble(fg, model, k, seed, index, tracer):
    vectors = _vectors(model.global_basis.dim, seed, index, APPLY_BATCH)
    start = perf_counter()
    ham = fg.build_hamiltonian(model)
    built = perf_counter()
    times, quadratic, (v, w) = _timed_applies(ham, vectors, tracer)
    mat = ham.matrix
    # H v against (v^dag H)^dag: the transposed sparse kernel as an oracle.
    transposed = (v.conj() @ mat).conj()
    observed = {
        "nnz": int(mat.nnz),
        "trace": float(mat.diagonal().sum().real),
        "fro": float(np.sqrt(np.sum(np.abs(mat.data) ** 2))),
        "apply_oracle_residual": float(np.linalg.norm(w - transposed) / np.linalg.norm(w)),
        "max_imag_quadratic": float(max(abs(q.imag) for q in quadratic)),
    }
    stages = {"assemble": built - start, "apply": sum(times)}
    return observed, stages, built - start + sum(times), statistics.median(times)


def _matvec_probe(ham, seed, index, tracer) -> float:
    vectors = _vectors(ham.dim, seed, index, MATVEC_PROBES)
    times, _, _ = _timed_applies(ham, vectors, tracer)
    return statistics.median(times)


def _spectrum(result) -> dict:
    return {"eigenvalues": [float(x) for x in result.eigenvalues],
            "max_residual": float(max(result.residuals)),
            "degeneracy": [len(level) for level in result.degeneracies()]}


def op_solve(fg, model, k, seed, index, tracer):
    start = perf_counter()
    ham = fg.build_hamiltonian(model)
    built = perf_counter()
    result = fg.eigensolve(ham, k=k, seed=seed)
    solved = perf_counter()
    stages = {"assemble": built - start, "solve": solved - built}
    matvec = _matvec_probe(ham, seed, index, tracer)
    return _spectrum(result), stages, solved - start, matvec


def op_sector(fg, model, k, seed, index, tracer):
    """The CLI's spectrum {sector: physical} task, physical_basis first."""
    start = perf_counter()
    cols = fg.physical_basis(model)
    based = perf_counter()
    ham = fg.build_hamiltonian(model)
    built = perf_counter()
    result = fg.eigensolve(ham, k=k, seed=seed)
    solved = perf_counter()
    with tracer.span("harness.reduced_eigvalsh"):
        reduced = np.linalg.eigvalsh(cols.conj().T @ ham.toarray() @ cols)
    done = perf_counter()
    observed = _spectrum(result)
    observed.update({
        "physical_dim": int(cols.shape[1]),
        "physical_eigenvalues": [float(x) for x in reduced[:k]],
        "basis_orthonormality": float(np.abs(cols.conj().T @ cols
                                             - np.eye(cols.shape[1])).max()),
    })
    stages = {"sector": (based - start) + (done - solved), "assemble": built - based,
              "solve": solved - built}
    matvec = _matvec_probe(ham, seed, index, tracer)
    return observed, stages, done - start, matvec


def op_verify(fg, model, k, seed, index, tracer):
    verification = importlib.import_module("fockgauge.verification")
    start = perf_counter()
    report = verification.verify_model(model, seed=seed)
    elapsed = perf_counter() - start
    observed = {"checks": [c.name for c in report.checks],
                "failed_checks": [c.name for c in report.checks if not c.passed]}
    return observed, {"verify": elapsed}, elapsed, None


OPS = {"assemble": op_assemble, "solve": op_solve, "sector": op_sector, "verify": op_verify}


# ---------------------------------------------------------------------------
# correctness gates: a list of mismatches, empty when the op is correct
# ---------------------------------------------------------------------------

def _close(values, expected, tol) -> bool:
    return len(values) == len(expected) and \
        all(abs(a - b) <= tol for a, b in zip(values, expected))


def gate_assemble(name, obs, ref):
    problems = []
    mine = ref["assemble"].get(name)
    if mine and obs["nnz"] != mine["nnz"]:
        problems.append(f"nnz {obs['nnz']} != {mine['nnz']}")
    for other in (name, BASIS_TWIN.get(name)):
        inv = ref["assemble"].get(other)
        if not inv:
            continue
        scale = INVARIANT_RTOL * max(abs(inv["trace"]), inv["fro"])
        if abs(obs["trace"] - inv["trace"]) > scale:
            problems.append(f"Tr H {obs['trace']!r} != {other} {inv['trace']!r}")
        if abs(obs["fro"] - inv["fro"]) > scale:
            problems.append(f"||H||_F {obs['fro']!r} != {other} {inv['fro']!r}")
    if obs["apply_oracle_residual"] > INVARIANT_RTOL:
        problems.append(f"H v vs (v^dag H)^dag: {obs['apply_oracle_residual']:.2e}")
    if obs["max_imag_quadratic"] > EIG_TOL * max(1.0, obs["fro"]):
        problems.append(f"Im <v|H|v> = {obs['max_imag_quadratic']:.2e}")
    return problems


def _gate_spectrum(obs, mine):
    problems = []
    if obs["max_residual"] > RESIDUAL_TOL:
        problems.append(f"residual {obs['max_residual']:.2e} > {RESIDUAL_TOL}")
    if mine and not _close(obs["eigenvalues"], mine["eigenvalues"], EIG_TOL):
        problems.append(f"eigenvalues {obs['eigenvalues']} != {mine['eigenvalues']}")
    if mine and obs["degeneracy"] != mine["degeneracy"]:
        problems.append(f"degeneracy {obs['degeneracy']} != {mine['degeneracy']}")
    return problems


def gate_solve(name, obs, ref):
    return _gate_spectrum(obs, ref["solve"].get(name))


def gate_sector(name, obs, ref):
    mine = ref["sector"].get(name)
    problems = _gate_spectrum(obs, mine)
    if obs["basis_orthonormality"] > EIG_TOL:
        problems.append(f"sector basis not orthonormal: {obs['basis_orthonormality']:.2e}")
    if obs["physical_eigenvalues"] and obs["eigenvalues"] and \
            obs["physical_eigenvalues"][0] < obs["eigenvalues"][0] - EIG_TOL:
        problems.append("physical ground level below the full-space ground level")
    if mine and obs["physical_dim"] != mine["physical_dim"]:
        problems.append(f"physical dim {obs['physical_dim']} != {mine['physical_dim']}")
    if mine and not _close(obs["physical_eigenvalues"], mine["physical_eigenvalues"], EIG_TOL):
        problems.append(f"physical eigenvalues {obs['physical_eigenvalues']} "
                        f"!= {mine['physical_eigenvalues']}")
    return problems


def gate_verify(name, obs, ref):
    problems = [f"check failed: {c}" for c in obs["failed_checks"]]
    mine = ref["verify"].get(name)
    if mine and obs["checks"] != mine["checks"]:
        problems.append(f"{len(obs['checks'])} checks != the {len(mine['checks'])} recorded")
    return problems


GATES = {"assemble": gate_assemble, "solve": gate_solve, "sector": gate_sector,
         "verify": gate_verify}


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------

def run_pass(fg, ops, models, seed, reference, tracer) -> dict:
    records = []
    start = perf_counter()
    for index, (kind, name, k) in enumerate(ops):
        tracer.op = f"{kind}/{name}"
        rec = {"op": tracer.op, "ok": False, "mismatch": [], "error": None}
        try:
            with tracer.span(f"harness.op.{kind}", model=name):
                observed, stages, result_s, matvec_s = OPS[kind](
                    fg, models[name], k, seed, index, tracer)
            rec.update(observed=observed, stages=stages, result_s=result_s,
                       matvec_s=matvec_s)
            rec["mismatch"] = GATES[kind](name, observed, reference)
            rec["ok"] = not rec["mismatch"]
        except Exception as exc:  # a failed op is counted, the run goes on
            rec["error"] = f"{type(exc).__name__}: {exc}"
            rec["traceback"] = traceback.format_exc()
        records.append(rec)
        gc.collect()
    return {"wall_s": perf_counter() - start, "ops": records}


def stage_metrics(passes) -> dict[str, float]:
    """Per-stage seconds summed over a pass's passing ops; median over passes."""
    def median_over_passes(per_op):
        return statistics.median(sum(per_op(r) for r in p["ops"] if r["ok"]) for p in passes)

    out = {f"stage.{stage}_s": median_over_passes(lambda r, stage=stage: r["stages"].get(stage, 0.0))
           for stage in ("assemble", "apply", "solve", "sector", "verify")}
    out["stage.time_to_spectrum_s"] = median_over_passes(
        lambda r: r["result_s"] if r["op"].split("/")[0] in ("solve", "sector") else 0.0)
    return out


def layer_metrics(spans, records) -> dict[str, float]:
    def total(name, field=None):
        found = outermost(spans, name)
        if field is None:
            return sum(s["end"] - s["start"] for s in found)
        return sum(s.get(field, 0) for s in found)

    out = {}
    for term in TERMS:
        for basis in BASES:
            hits = [s for s in spans if s["name"] == f"lattice_model.term.{term}"
                    and s["basis"] == basis]
            out[f"lattice_model.term_s.{term}.{basis}"] = sum(s["end"] - s["start"] for s in hits)
            out[f"lattice_model.term_nnz.{term}.{basis}"] = sum(s["nnz"] for s in hits)
    merge = 0.0
    for build in outermost(spans, "lattice_model.build_hamiltonian"):
        children = [s for s in spans if s["parent"] == build["id"]]
        merge += build["end"] - build["start"] - sum(s["end"] - s["start"] for s in children)
    solves = outermost(spans, "spectra.eigensolve")
    solve_in_matvecs = 0.0
    for r in records:
        if r.get("matvec_s"):
            op_solves = [s for s in solves if s["op"] == r["op"]]
            solve_in_matvecs += sum(s["end"] - s["start"] for s in op_solves) / r["matvec_s"]
    out.update({
        "lattice_model.hamiltonian_nnz": total("lattice_model.build_hamiltonian", "nnz"),
        "lattice_model.merge_s": merge,
        "lattice_model.gauss_operator_s": total("lattice_model.gauss_operator"),
        "lattice_model.gauss_generators_s": total("lattice_model.gauss_generators"),
        "lattice_model.physical_basis_s": total("lattice_model.physical_basis"),
        "lattice_model.physical_dim": total("lattice_model.physical_basis", "physical_dim"),
        "spectra.eigensolve_s": total("spectra.eigensolve"),
        "spectra.matvec_ms": 1e3 * sum(r["matvec_s"] for r in records if r.get("matvec_s")),
        "spectra.solve_in_matvecs": solve_in_matvecs,
        "spectra.max_residual": max((s.get("max_residual", 0.0) for s in solves), default=0.0),
        "verification.verify_model_s": total("verification.verify_model"),
        "verification.checks": total("verification.verify_model", "checks"),
        "verification.checks_failed": total("verification.verify_model", "checks_failed"),
        "group_core.build_builtin_s": total("group_core.build_builtin"),
        "link_space.u_matrix_s": total("link_space.u_matrix"),
    })
    own = self_times(spans)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    return out


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> dict:
    """The BLAS library numpy loaded and its thread count, where it says."""
    import ctypes
    info = {"library": None, "threads": None}
    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps
                           if "blas" in line.lower() and ".so" in line})
    except OSError:
        libs = []
    for path in libs:
        info["library"] = os.path.basename(path)
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    import scipy
    env = {"nproc": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas(),
           "assembly_threads": 1,
           "mem_total_mib": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20}
    try:
        env["cgroup_memory_max"] = Path("/sys/fs/cgroup/memory.max").read_text().strip()
    except OSError:
        pass
    try:
        status = Path("/proc/self/status").read_text()
        env["os_threads"] = int(status.split("Threads:")[1].split()[0])
    except (OSError, IndexError, ValueError):
        pass
    return env


def run_workload(workload, seed, seconds, trace, reference) -> dict:
    """Set up, run passes for ``seconds`` (at least one), return the record."""
    ops = ops_of(workload)
    fg = import_fockgauge()
    tracer = Tracer()   # one span list for the set-up and the traced pass
    if trace:
        with instrumented(tracer):
            models = setup(ops)
    else:
        setup_s = setup_seconds(workload)
        models = setup(ops)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        passes.append(run_pass(fg, ops, models, seed, reference, NullTracer()))
    if trace:
        with instrumented(tracer):
            traced = run_pass(fg, ops, models, seed, reference, tracer)
    run_passes = passes + [traced] if trace else passes
    all_ops = [r for p in run_passes for r in p["ops"]]
    failed = sum(not r["ok"] for r in all_ops)
    if trace:
        untraced_s = statistics.median(p["wall_s"] for p in passes)
        spans = tracer.spans
        metrics = layer_metrics(spans, traced["ops"])
        metrics.update(stage_metrics(passes))
        metrics.update({"stage.fail_rate": failed / len(all_ops),
                        "trace.spans": len(spans),
                        "trace.untraced_pass_s": untraced_s,
                        "trace.traced_pass_s": traced["wall_s"],
                        "trace.overhead_s": traced["wall_s"] - untraced_s})
    else:
        spans = []
        metrics = {"setup_s": setup_s,
                   "time_to_result_s": statistics.median(
                       sum(r["result_s"] for r in p["ops"] if r["ok"]) for p in passes),
                   "peak_rss_mib": peak_rss_mib()}
    listed = json.loads(BENCHMARK.read_text())["per_layer" if trace else "end_to_end"]
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "passes": run_passes,
        "metrics": metrics,
        "spans": spans,
        "result": {
            "correct": not any(r["mismatch"] for r in all_ops),
            "attempted": len(all_ops),
            "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in listed},
        },
    }


# ---------------------------------------------------------------------------
# reference recording and self-test
# ---------------------------------------------------------------------------

def write_reference() -> int:
    fg = import_fockgauge()
    reference = {"assemble": {}, "solve": {}, "sector": {}, "verify": {}}
    all_ops = [op for ops in WORKLOADS.values() for op in ops] + SELF_TEST_OPS
    models = setup(all_ops)
    for index, (kind, name, k) in enumerate(all_ops):
        try:
            observed = OPS[kind](fg, models[name], k, 0, index, NullTracer())[0]
        except Exception as exc:  # recorded as missing; the op fails on every run
            print(f"{kind}/{name}: no reference ({type(exc).__name__}: {exc})")
            continue
        keep = {"assemble": ("nnz", "trace", "fro"),
                "solve": ("eigenvalues", "degeneracy"),
                "sector": ("eigenvalues", "degeneracy", "physical_dim", "physical_eigenvalues"),
                "verify": ("checks",)}[kind]
        reference[kind][name] = {key: observed[key] for key in keep}
        print(f"{kind}/{name}: {reference[kind][name] if kind != 'verify' else len(observed['checks'])}")
        gc.collect()
    for name, twin in BASIS_TWIN.items():
        a, b = reference["assemble"][name], reference["assemble"][twin]
        print(f"{name} vs {twin}: Tr rel diff {abs(a['trace'] - b['trace']) / a['fro']:.1e}, "
              f"||H||_F rel diff {abs(a['fro'] - b['fro']) / a['fro']:.1e}")
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


def self_test() -> int:
    """Tiny model: every metric name appears, a wrong reference fails ops."""
    bench = json.loads(BENCHMARK.read_text())
    reference = json.loads(REFERENCE.read_text())
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        record = run_workload("self-test", 3, 0, trace, reference)
        missing = {m["name"] for m in bench[key]} ^ set(record["metrics"])
        if missing:
            problems.append(f"trace {trace}: {sorted(missing)} computed or listed, not both")
        result = record["result"]
        if not result["correct"] or result["failed"]:
            problems.append(f"trace {trace}: correct reference gave {result['failed']} failed ops")
    wrong = json.loads(REFERENCE.read_text())
    wrong["assemble"]["Z2-tiny"]["nnz"] += 1
    wrong["solve"]["Z2-tiny"]["eigenvalues"][0] += 1e-6
    wrong["sector"]["Z2-tiny"]["physical_dim"] += 1
    wrong["verify"]["Z2-tiny"]["checks"].append("not.a.check")
    result = run_workload("self-test", 3, 0, 0, wrong)["result"]
    if result["failed"] != len(SELF_TEST_OPS) or result["correct"]:
        problems.append(f"wrong reference: {result['failed']} of {len(SELF_TEST_OPS)} "
                        f"ops failed, correct={result['correct']}")
    for problem in problems:
        print(f"self-test: {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "self-test"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test()
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    reference = json.loads(REFERENCE.read_text())
    record = run_workload(args.workload, args.seed, args.seconds, args.trace, reference)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, default=float) + "\n")
    for p in record["passes"]:
        for r in p["ops"]:
            if not r["ok"]:
                print(f"failed op {r['op']}: {r['error'] or '; '.join(r['mismatch'])}",
                      file=sys.stderr)
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
