"""Gauge groups and their unitary irreducible representations.

Finite groups are stored as a multiplication table over element indices
0..|G|-1 plus one explicit matrix per element and irrep.  Truncated Lie
groups (SU(2) up to j_max, U(1) up to charge P) are stored through their
generator matrices instead.  So a group element g is an element index or an
angle vector; Irrep.matrix(g) takes either, entry.elements draws probes.

Canonical state ordering used by every other module: irreps appear in
catalog order, and within an irrep the (m, n) pairs are row-major, with
m, n = 0..dim-1.  For SU(2) the row index m = 0 corresponds to the
highest weight (+j), counting down to -j.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Integral
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import expm

from .operators import max_abs

DEFAULT_TOL = 1e-10
EXHAUSTIVE_ASSOCIATIVITY_LIMIT = 64
RANDOM_ASSOCIATIVITY_TRIPLES = 10_000
RANDOM_ASSOCIATIVITY_SEED = 1347

BUILTIN_NAMES = ("Z_N", "D3", "U1_trunc", "SU2_trunc")
# the params each builtin takes; N and P are integers
BUILTIN_PARAMS = {"Z_N": ("N",), "U1_trunc": ("P",), "SU2_trunc": ("j_max",)}


class GroupFileError(ValueError):
    """Raised when a group definition file cannot be parsed."""


def format_j(j: Fraction) -> str:
    """Half-integer label: Fraction(1, 2) -> '1/2', Fraction(2) -> '2'."""
    j = Fraction(j)
    if j.denominator == 1:
        return str(j.numerator)
    return f"{j.numerator}/{j.denominator}"


def parse_j_label(label: str) -> Fraction:
    """Inverse of :func:`format_j`; also accepts plain integers."""
    return Fraction(str(label))


@dataclass
class GroupSpec:
    """A finite group as a multiplication table plus element metadata."""

    name: str
    order: int
    mul: np.ndarray            # (order, order) int, mul[g, h] = index of g*h
    identity: int
    inv: np.ndarray            # (order,) int
    class_of: np.ndarray       # (order,) int, identity's class is 0
    element_labels: list[str]

    def __post_init__(self):
        self.mul = np.asarray(self.mul, dtype=np.int64)
        self.inv = np.asarray(self.inv, dtype=np.int64)
        self.class_of = np.asarray(self.class_of, dtype=np.int64)

    @property
    def n_classes(self) -> int:
        return int(self.class_of.max()) + 1 if self.order else 0

    def class_members(self, c: int) -> np.ndarray:
        return np.flatnonzero(self.class_of == c)

    def generating_set(self) -> list[int]:
        """Element indices whose products give every element (valid tables only).

        Greedy: in index order, each element outside the subgroup generated
        so far joins the set, and that subgroup is closed again under ``mul``.
        D3 gives [r, s], Z_N gives [1].
        """
        gens: list[int] = []
        reached = {self.identity}
        for g in range(self.order):
            if g in reached:
                continue
            gens.append(g)
            frontier = list(reached)
            while frontier:
                x = frontier.pop()
                for s in gens:
                    y = int(self.mul[x, s])
                    if y not in reached:
                        reached.add(y)
                        frontier.append(y)
        return gens


@dataclass
class Irrep:
    """One unitary irrep: matrices per element (finite) or generators (Lie)."""

    label: str
    dim: int
    matrices: Optional[np.ndarray] = None      # (|G|, dim, dim) complex
    generators: Optional[list[np.ndarray]] = None
    casimir: Optional[float] = None

    def matrix(self, g) -> np.ndarray:
        """D(g) as a dim x dim array; ``g`` is an element index (finite
        groups) or an angle vector (Lie groups), as from ``elements``."""
        if self.matrices is None:
            return np.atleast_2d(self.matrix_angle(g))
        return self.matrices[g]

    @property
    def characters(self) -> np.ndarray:
        """Tr D(g) per element index (finite groups only)."""
        return np.einsum("gii->g", self.matrices)

    def matrix_angle(self, alpha) -> np.ndarray:
        """exp(i alpha . T) for Lie irreps; alpha is scalar or length-3."""
        if self.generators is None:
            raise ValueError(f"irrep {self.label} has no generators")
        alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
        if len(alpha) != len(self.generators):
            raise ValueError(
                f"expected {len(self.generators)} angles, got {len(alpha)}")
        exponent = sum(a * t for a, t in zip(alpha, self.generators))
        if self.dim == 1:
            return np.exp(1j * exponent)
        return expm(1j * exponent)


@dataclass
class CharacterTable:
    """chi[irrep, class] together with class sizes and labels."""

    chi: np.ndarray
    class_sizes: np.ndarray
    irrep_labels: list[str]
    class_labels: list[str]

    def row(self, label: str) -> np.ndarray:
        return self.chi[self.irrep_labels.index(label)]


@dataclass
class GroupCatalogEntry:
    """A gauge group ready for model building: spec (or Lie marker) + irreps."""

    name: str
    irreps: list[Irrep]
    fundamental: str
    spec: Optional[GroupSpec] = None
    lie_kind: Optional[str] = None      # "su2" | "u1"
    cutoff: Optional[Fraction] = None   # j_max for su2, charge P for u1

    @property
    def is_lie(self) -> bool:
        return self.spec is None

    @property
    def n_generator_components(self) -> int:
        """The number of Lie generators T_a: those of the fundamental irrep."""
        return len(self.fundamental_irrep.generators)

    def elements(self, count: int, seed: int) -> list:
        """Group elements to probe with: every element index (finite), or
        ``count`` angle vectors uniform in [-pi, pi) from ``default_rng(seed)``."""
        if not self.is_lie:
            return list(range(self.spec.order))
        rng = np.random.default_rng(seed)
        return [rng.uniform(-np.pi, np.pi, self.n_generator_components)
                for _ in range(count)]

    def irrep(self, label: str) -> Irrep:
        for ir in self.irreps:
            if ir.label == label:
                return ir
        raise KeyError(f"no irrep labeled {label!r} in {self.name}")

    def has_irrep(self, label: str) -> bool:
        return any(ir.label == label for ir in self.irreps)

    @property
    def fundamental_irrep(self) -> Irrep:
        return self.irrep(self.fundamental)

    def dim_sum(self) -> int:
        return sum(ir.dim ** 2 for ir in self.irreps)

    def trivial_label(self) -> str:
        for ir in self.irreps:
            mats_trivial = (ir.matrices is not None and ir.dim == 1
                            and np.allclose(ir.matrices, 1.0))
            gens_trivial = (ir.generators is not None
                            and all(np.allclose(t, 0.0) for t in ir.generators))
            if mats_trivial or gens_trivial:
                return ir.label
        raise ValueError(f"catalog {self.name} has no trivial irrep")


def rep_basis_order(entry: GroupCatalogEntry) -> list[tuple[str, int, int]]:
    """Canonical (j, m, n) ordering: catalog irrep order, (m, n) row-major."""
    order = []
    for ir in entry.irreps:
        for m in range(ir.dim):
            for n in range(ir.dim):
                order.append((ir.label, m, n))
    return order


# ---------------------------------------------------------------------------
# built-in groups
# ---------------------------------------------------------------------------

def _derive_structure(mul: np.ndarray):
    """Best-effort identity / inverses / classes from a multiplication table.

    Intentionally permissive: inconsistent tables still produce an entry so
    that validate() can name the failing invariant instead of the loader
    crashing.
    """
    order = mul.shape[0]
    rng = np.arange(order)
    identity = None
    for e in range(order):
        if np.array_equal(mul[e], rng) and np.array_equal(mul[:, e], rng):
            identity = e
            break
    inv = np.full(order, -1, dtype=np.int64)
    if identity is not None:
        for g in range(order):
            hits = np.flatnonzero(mul[g] == identity)
            if len(hits):
                inv[g] = hits[0]
    class_of = np.full(order, -1, dtype=np.int64)
    if identity is not None and (inv >= 0).all() and mul.max() < order:
        next_class = 0
        for g in range(order):
            if class_of[g] >= 0:
                continue
            orbit = {g}
            for h in range(order):
                orbit.add(int(mul[mul[inv[h], g], h]))
            for x in orbit:
                class_of[x] = next_class
            next_class += 1
    else:
        class_of = np.arange(order, dtype=np.int64)
    return identity if identity is not None else 0, inv, class_of


def _spec_from_mul(name: str, mul: np.ndarray, labels: Optional[Sequence[str]] = None) -> GroupSpec:
    mul = np.asarray(mul, dtype=np.int64)
    order = mul.shape[0]
    identity, inv, class_of = _derive_structure(mul)
    if labels is None:
        labels = [f"g{k}" for k in range(order)]
    return GroupSpec(name=name, order=order, mul=mul, identity=identity,
                     inv=inv, class_of=class_of, element_labels=list(labels))


def _build_zn(n: int) -> GroupCatalogEntry:
    if n < 2:
        raise ValueError(f"Z_N needs N >= 2, got {n}")
    k = np.arange(n)
    mul = (k[:, None] + k[None, :]) % n
    spec = _spec_from_mul(f"Z{n}", mul, [str(i) for i in range(n)])
    irreps = []
    for p in range(n):
        mats = np.exp(2j * np.pi * p * k / n).reshape(n, 1, 1)
        irreps.append(Irrep(label=str(p), dim=1, matrices=mats))
    return GroupCatalogEntry(name=f"Z{n}", spec=spec, irreps=irreps, fundamental="1")


def _build_d3() -> GroupCatalogEntry:
    # elements (t, f) = rotation^t * reflection^f, index t + 3*f
    def idx(t, f):
        return t % 3 + 3 * (f % 2)

    order = 6
    mul = np.zeros((order, order), dtype=np.int64)
    for t1 in range(3):
        for f1 in range(2):
            for t2 in range(3):
                for f2 in range(2):
                    t = t1 + (t2 if f1 == 0 else -t2)
                    mul[idx(t1, f1), idx(t2, f2)] = idx(t, f1 + f2)
    labels = ["e", "r", "r2", "s", "rs", "r2s"]
    spec = _spec_from_mul("D3", mul, labels)

    mats2 = np.zeros((order, 2, 2), dtype=complex)
    dets = np.zeros(order, dtype=complex)
    for t in range(3):
        a = 2.0 * np.pi * t / 3.0
        c, s = np.cos(a), np.sin(a)
        mats2[idx(t, 0)] = [[c, s], [-s, c]]
        mats2[idx(t, 1)] = [[c, -s], [-s, -c]]
        dets[idx(t, 0)] = 1.0
        dets[idx(t, 1)] = -1.0
    irreps = [
        Irrep(label="I", dim=1, matrices=np.ones((order, 1, 1), dtype=complex)),
        Irrep(label="p", dim=1, matrices=dets.reshape(order, 1, 1)),
        Irrep(label="2", dim=2, matrices=mats2),
    ]
    return GroupCatalogEntry(name="D3", spec=spec, irreps=irreps, fundamental="2")


def su2_generators(two_j: int) -> list[np.ndarray]:
    """Angular-momentum matrices (Jx, Jy, Jz) for dimension two_j + 1.

    Basis index i corresponds to m = j - i (highest weight first); ladder
    coefficients are the standard real sqrt(j(j+1) - m(m+1)).
    """
    j = two_j / 2.0
    dim = two_j + 1
    m = j - np.arange(dim)
    jz = np.diag(m).astype(complex)
    jplus = np.zeros((dim, dim), dtype=complex)
    for i in range(1, dim):
        # raises m[i] to m[i] + 1 = m[i - 1]
        jplus[i - 1, i] = np.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    jminus = jplus.conj().T
    jx = (jplus + jminus) / 2.0
    jy = (jplus - jminus) / 2j
    return [jx, jy, jz]


def _build_su2_trunc(j_max) -> GroupCatalogEntry:
    j_max = Fraction(str(j_max))
    two_jmax = j_max * 2
    if two_jmax.denominator != 1 or two_jmax < 1:
        raise ValueError(f"j_max must be a positive half-integer, got {j_max}")
    irreps = []
    for two_j in range(int(two_jmax) + 1):
        j = Fraction(two_j, 2)
        irreps.append(Irrep(
            label=format_j(j),
            dim=two_j + 1,
            generators=su2_generators(two_j),
            casimir=float(j * (j + 1)),
        ))
    return GroupCatalogEntry(name=f"SU2(j<={format_j(j_max)})", irreps=irreps,
                             fundamental="1/2", lie_kind="su2", cutoff=j_max)


def _build_u1_trunc(p_max: int) -> GroupCatalogEntry:
    p_max = int(p_max)
    if p_max < 1:
        raise ValueError(f"U1_trunc needs P >= 1, got {p_max}")
    irreps = []
    for p in range(-p_max, p_max + 1):
        irreps.append(Irrep(
            label=str(p), dim=1,
            generators=[np.array([[p]], dtype=complex)],
            casimir=float(p * p),
        ))
    return GroupCatalogEntry(name=f"U1(|p|<={p_max})", irreps=irreps,
                             fundamental="1", lie_kind="u1",
                             cutoff=Fraction(p_max))


def build_builtin(name: str, **params) -> GroupCatalogEntry:
    """Construct a built-in group catalog entry.

    Supported names: ``Z_N`` (param N >= 2, also accepts the shorthand
    ``Z_4``), ``D3``, ``U1_trunc`` (param P >= 1), ``SU2_trunc``
    (param j_max, a positive half-integer such as ``1/2``).  A param the
    builtin does not take (``BUILTIN_PARAMS``), or an N or P that is not an
    integer (a bool, a string or a fraction), raises ValueError.
    """
    known = BUILTIN_PARAMS.get(name, ())
    for key, value in params.items():
        if key not in known:
            raise ValueError(f"unknown key {key!r} in group.params of {name}; "
                             f"known: {', '.join(known) or 'none'}")
        if key != "j_max" and (isinstance(value, bool) or not isinstance(value, Integral)
                               and not (isinstance(value, float) and value.is_integer())):
            raise ValueError(f"group.params.{key} must be an integer, got {value!r}")
    if name == "D3":
        return _build_d3()
    if name == "Z_N":
        return _build_zn(int(params["N"]))
    if name.startswith("Z_") and name[2:].isdigit():
        return _build_zn(int(name[2:]))
    if name == "U1_trunc":
        return _build_u1_trunc(int(params["P"]))
    if name == "SU2_trunc":
        return _build_su2_trunc(params["j_max"])
    raise ValueError(f"unknown group {name!r}; known: {BUILTIN_NAMES}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float = DEFAULT_TOL

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance

    def __str__(self):
        tag = "pass" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: residual {self.residual:.3e} (tol {self.tolerance:.1e})"


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, residual: float, tolerance: float = DEFAULT_TOL):
        self.checks.append(CheckResult(name, float(residual), tolerance))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max_abs([c.residual for c in self.checks])

    def first_failure(self) -> Optional[CheckResult]:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


def _check_latin_square(mul: np.ndarray) -> float:
    """The number of rows and columns of ``mul`` that are not a permutation of
    0..order-1 (the entries out of range instead, if there are any)."""
    order = mul.shape[0]
    if mul.shape != (order, order) or order == 0:
        return 1.0
    if mul.min() < 0 or mul.max() >= order:
        return float(np.count_nonzero((mul < 0) | (mul >= order)))
    rng = np.arange(order)
    return float(np.count_nonzero((np.sort(mul, axis=1) != rng).any(axis=1))
                 + np.count_nonzero((np.sort(mul, axis=0) != rng[:, None]).any(axis=0)))


def _check_associativity(mul: np.ndarray) -> float:
    order = mul.shape[0]
    if order <= EXHAUSTIVE_ASSOCIATIVITY_LIMIT:
        lhs = mul[mul, :]              # (a,b,c) -> (a*b)*c
        rhs = mul[:, mul]              # (a,b,c) -> a*(b*c)
        return float(np.count_nonzero(lhs != rhs))
    rng = np.random.default_rng(RANDOM_ASSOCIATIVITY_SEED)
    abc = rng.integers(0, order, size=(RANDOM_ASSOCIATIVITY_TRIPLES, 3))
    a, b, c = abc.T
    return float(np.count_nonzero(mul[mul[a, b], c] != mul[a, mul[b, c]]))


def group_law_residual(stack: np.ndarray, spec: GroupSpec) -> float:
    """max over element pairs of |M(g) M(h) - M(gh)|, ``stack`` indexed by
    element on its first axis and by matrix on its last two, one g at a time,
    so that no more than one stack's worth of products is alive.  1x1
    matrices are multiplied elementwise, without a batched product's
    per-matrix cost."""
    product = np.multiply if stack.shape[-1] == 1 else np.matmul
    return max_abs([max_abs(product(stack[g], stack) - stack[spec.mul[g]])
                    for g in range(spec.order)])


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def validate(entry: GroupCatalogEntry) -> ValidationReport:
    """Run every structural and representation invariant; report residuals.

    Failures are reported, never raised.  Combinatorial checks use a count
    of violations as their residual.  Each representation law is one
    reduction over the irreps of one dimension, stacked as (order, irrep,
    dim, dim), so that a NaN anywhere fails the law it enters.
    """
    report = ValidationReport()
    if entry.is_lie:
        _validate_lie(entry, report)
        return report

    spec = entry.spec
    mul, order = spec.mul, spec.order
    report.add("mul.latin_square", _check_latin_square(mul))
    structurally_ok = report.checks[-1].residual == 0.0
    report.add("mul.associative", _check_associativity(mul) if structurally_ok else 1.0)

    e = spec.identity
    id_bad = np.count_nonzero(mul[e] != np.arange(order))
    id_bad += np.count_nonzero(mul[:, e] != np.arange(order))
    report.add("mul.identity", float(id_bad))
    if (spec.inv >= 0).all():
        inv_bad = np.count_nonzero(mul[np.arange(order), spec.inv] != e)
    else:
        inv_bad = np.count_nonzero(spec.inv < 0)
    report.add("mul.inverse", float(inv_bad))

    if (spec.inv >= 0).all() and mul.max() < order:
        # conj[h, g] = h^-1 g h
        conj = mul[mul[spec.inv], np.arange(order)[:, None]]
        class_bad = np.count_nonzero(spec.class_of[conj] != spec.class_of)
    else:
        class_bad = 1
    report.add("classes.closed_under_conjugation", float(class_bad))

    if not structurally_ok or inv_bad:
        # Representation checks would be meaningless on a broken table.
        return report

    stacks = [np.stack([ir.matrices for ir in entry.irreps if ir.dim == d], axis=1)
              for d in sorted({ir.dim for ir in entry.irreps})]
    report.add("irreps.identity_matrix",
               max_abs([max_abs(s[e] - np.eye(s.shape[-1])) for s in stacks]))
    report.add("irreps.unitary",
               max_abs([max_abs(_dagger(s) @ s - np.eye(s.shape[-1])) for s in stacks]))
    report.add("irreps.inverse_is_dagger",
               max_abs([max_abs(s[spec.inv] - _dagger(s)) for s in stacks]))
    report.add("irreps.homomorphism", max_abs([group_law_residual(s, spec) for s in stacks]))

    report.add("irreps.dim_sum_equals_order", float(abs(entry.dim_sum() - order)))
    report.add("irreps.great_orthogonality", great_orthogonality_residual(entry))

    fund = entry.fundamental_irrep.matrices
    # pairs g < h with D(g) = D(h), one g at a time
    dup = sum(np.count_nonzero(np.abs(fund[g + 1:] - fund[g]).max(axis=(1, 2)) < 1e-6)
              for g in range(order))
    report.add("fundamental.faithful", float(dup))

    # character of the regular representation: |G| on the identity class, 0 elsewhere
    table = character_table(entry)
    dims = np.array([ir.dim for ir in entry.irreps])
    reg = dims @ table.chi
    expected = np.zeros(spec.n_classes)
    expected[spec.class_of[e]] = order
    report.add("characters.regular_representation", max_abs(reg - expected))
    return report


def _validate_lie(entry: GroupCatalogEntry, report: ValidationReport):
    gens = [np.array(ir.generators) for ir in entry.irreps]
    report.add("generators.hermitian", max_abs([max_abs(t - _dagger(t)) for t in gens]))

    if entry.lie_kind == "su2":
        eps = np.zeros((3, 3, 3))
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            eps[a, b, c], eps[b, a, c] = 1.0, -1.0
        # [T_a, T_b] = i eps_abc T_c, every pair (a, b) broadcast
        report.add("su2.algebra_structure_constants", max_abs([max_abs(
            t[:, None] @ t - t @ t[:, None] - 1j * np.einsum("abc,cxy->abxy", eps, t))
            for t in gens]))
        report.add("su2.casimir_diagonal", max_abs([
            max_abs((t @ t).sum(0) - ir.casimir * np.eye(ir.dim))
            for t, ir in zip(gens, entry.irreps)]))
        two_js = sorted(int(2 * parse_j_label(ir.label)) for ir in entry.irreps)
        complete = two_js == list(range(len(two_js)))
        report.add("su2.representation_series_complete", 0.0 if complete else 1.0)
    elif entry.lie_kind == "u1":
        ps = sorted(int(ir.label) for ir in entry.irreps)
        p_max = int(entry.cutoff)
        complete = ps == list(range(-p_max, p_max + 1))
        report.add("u1.charge_series_complete", 0.0 if complete else 1.0)
        report.add("u1.generator_is_charge", max_abs(
            [max_abs(t[0] - float(ir.label)) for t, ir in zip(gens, entry.irreps)]))

    report.add("fundamental.present",
               0.0 if entry.has_irrep(entry.fundamental) else 1.0)


def _flat_stack(entry: GroupCatalogEntry) -> tuple[np.ndarray, np.ndarray]:
    """The (order, sum of dim^2) matrix whose row g holds D^j_mn(g) over the
    canonical (j, m, n) order of :func:`rep_basis_order`, and dim j per column."""
    dims = [ir.dim for ir in entry.irreps]
    return (np.hstack([ir.matrices.reshape(entry.spec.order, -1) for ir in entry.irreps]),
            np.repeat(dims, np.square(dims)))


def great_orthogonality_residual(entry: GroupCatalogEntry) -> float:
    """max |(1/|G|) sum_g D^j_mn(g) D^j'*_m'n'(g) - delta/dim(j)| over all index
    pairs: the Gram matrix of the flattened stack against diag(1/dim j)."""
    flat, dims = _flat_stack(entry)
    return max_abs(flat.T @ flat.conj() / entry.spec.order - np.diag(1.0 / dims))


# ---------------------------------------------------------------------------
# characters and Fourier transform
# ---------------------------------------------------------------------------

def character_table(entry: GroupCatalogEntry) -> CharacterTable:
    """Characters per irrep and conjugacy class (finite groups only)."""
    if entry.is_lie:
        raise ValueError("character table per conjugacy class is only defined "
                         "for finite group entries here")
    spec = entry.spec
    reps = [int(spec.class_members(c)[0]) for c in range(spec.n_classes)]
    chi = np.array([ir.characters[reps] for ir in entry.irreps])
    sizes = np.array([len(spec.class_members(c)) for c in range(spec.n_classes)])
    labels = [spec.element_labels[g] for g in reps]
    return CharacterTable(chi=chi, class_sizes=sizes,
                          irrep_labels=[ir.label for ir in entry.irreps],
                          class_labels=labels)


def fourier_matrix(entry: GroupCatalogEntry) -> np.ndarray:
    """Basis change |g> -> |jmn>: F[g, (jmn)] = sqrt(dim j / |G|) D^j_mn(g).

    Rows follow the group's element order, columns the canonical
    (j, m, n) order of :func:`rep_basis_order`.
    """
    if entry.is_lie:
        raise ValueError("group element basis requires a finite group")
    spec = entry.spec
    if entry.dim_sum() != spec.order:
        raise ValueError(
            f"incomplete irrep set: sum of dim^2 is {entry.dim_sum()}, "
            f"group order is {spec.order}")
    flat, dims = _flat_stack(entry)
    return np.sqrt(dims / spec.order) * flat


# ---------------------------------------------------------------------------
# group definition files
# ---------------------------------------------------------------------------

GROUP_FILE_DOC = """\
Group definition file (JSON):

{
  "name": "Z4",
  "order": 4,
  "element_labels": ["e", "a", "a2", "a3"],        # optional
  "mul": [0, 1, 2, 3,  1, 2, 3, 0,  ...],          # row-major, order^2 ints
  "fundamental": "1",
  "irreps": [
    {"label": "0", "dim": 1,
     "matrices": [ [[[1.0, 0.0]]], [[[1.0, 0.0]]], ... ]}   # per element,
    ...                                                      # dim x dim of [re, im]
  ]
}
"""


def _ints(raw, what: str) -> np.ndarray:
    """``raw``, a JSON integer or a list of them, as int64; a bool, a float, a
    string or an integer past int64 is a GroupFileError, never truncated."""
    bad = [x for x in (raw if isinstance(raw, list) else [raw])
           if type(x) is not int or not -2 ** 63 <= x < 2 ** 63]
    if bad:
        raise GroupFileError(f"{what} must be a JSON integer that fits in int64, "
                             f"got {bad[0]!r}")
    return np.asarray(raw, dtype=np.int64)


def load_group_file(path: Union[str, Path]) -> GroupCatalogEntry:
    """Load a finite group with explicit irrep matrices from a JSON file.

    Structural problems (wrong sizes, missing keys, bad numbers, an order
    below 1) raise GroupFileError; algebraic problems (bad table, non-irrep
    matrices) are left for validate() to report.  ``order``, each ``dim``
    and the ``mul`` entries are JSON integers that fit in int64, and every
    matrix entry is a finite JSON number (not a bool, a string or null).
    Every GroupFileError names the file.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GroupFileError(f"cannot read group file {path}: {exc}") from exc
    try:
        name = str(doc["name"])
        order = int(_ints(doc["order"], "order"))
        if order < 1:
            raise GroupFileError(f"order must be at least 1, got {order}")
        mul_flat = doc["mul"]
        if len(mul_flat) != order * order:
            raise GroupFileError(
                f"mul has {len(mul_flat)} entries, expected {order * order}")
        mul = _ints(mul_flat, "each mul entry").reshape(order, order)
        labels = doc.get("element_labels") or [f"g{k}" for k in range(order)]
        if len(labels) != order:
            raise GroupFileError("element_labels length does not match order")
        irreps = []
        for block in doc["irreps"]:
            label = str(block["label"])
            dim = int(_ints(block["dim"], f"irrep {label} dim"))
            arr = np.asarray(block["matrices"], dtype=object)
            if arr.shape != (order, dim, dim, 2):
                raise GroupFileError(
                    f"irrep {label}: expected {order} matrices of {dim}x{dim} "
                    f"[re, im] pairs, got shape {arr.shape}")
            # a bool or a string would pass float(); only JSON numbers are entries
            stray = np.array([type(x) not in (int, float) for x in arr.flat]).reshape(arr.shape)
            if stray.any():
                where = np.argwhere(stray)[0]
                raise GroupFileError(f"irrep {label}, element {where[0]}: matrix entry must "
                                     f"be a JSON number, got {arr[tuple(where)]!r}")
            arr = arr.astype(float)
            if not np.isfinite(arr).all():
                raise GroupFileError(f"irrep {label}, element "
                                     f"{np.argwhere(~np.isfinite(arr))[0, 0]}: "
                                     "matrix entry is not a finite number")
            irreps.append(Irrep(label=label, dim=dim, matrices=arr[..., 0] + 1j * arr[..., 1]))
        fundamental = str(doc["fundamental"])
        if not any(ir.label == fundamental for ir in irreps):
            raise GroupFileError(f"fundamental irrep {fundamental!r} not among irreps")
    except GroupFileError as exc:
        raise GroupFileError(f"{exc} (group file {path})") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise GroupFileError(f"malformed group file {path}: {exc}") from exc
    spec = _spec_from_mul(name, mul, labels)
    return GroupCatalogEntry(name=name, spec=spec, irreps=irreps, fundamental=fundamental)


def dump_group_file(entry: GroupCatalogEntry, path: Union[str, Path]) -> None:
    """Write a finite group entry in the format read by load_group_file."""
    if entry.is_lie:
        raise ValueError("only finite groups can be written to a group file")
    spec = entry.spec
    doc = {
        "name": entry.name,
        "order": spec.order,
        "element_labels": spec.element_labels,
        "mul": [int(x) for x in spec.mul.ravel()],
        "fundamental": entry.fundamental,
        "irreps": [
            {
                "label": ir.label,
                "dim": ir.dim,
                "matrices": np.stack([ir.matrices.real, ir.matrices.imag], axis=-1).tolist(),
            }
            for ir in entry.irreps
        ],
    }
    Path(path).write_text(json.dumps(doc))
