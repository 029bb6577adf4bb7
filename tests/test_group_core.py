import json
import re

import numpy as np
import pytest

import oracles
from fockgauge.clebsch_gordan import cg, decompose, verify_cg
from fockgauge.group_core import (
    DEFAULT_TOL,
    GroupFileError,
    Irrep,
    _spec_from_mul,
    build_builtin,
    character_table,
    dump_group_file,
    fourier_matrix,
    great_orthogonality_residual,
    group_law_residual,
    load_group_file,
    parse_j_label,
    rep_basis_order,
    validate,
)


@pytest.mark.parametrize("name,params,message", [
    ("Z_N", {"N": 2.5}, "group.params.N must be an integer, got 2.5"),
    ("Z_N", {"N": "3"}, "group.params.N must be an integer, got '3'"),
    ("U1_trunc", {"P": 1.7}, "group.params.P must be an integer, got 1.7"),
    ("D3", {"N": 5}, "unknown key 'N' in group.params of D3"),
], ids=["zn-fraction", "zn-string", "u1-fraction", "d3-with-n"])
def test_build_builtin_refuses_a_bad_param(name, params, message):
    # not Z_2, Z_3, U(1) with |p| <= 1 or D3 with N ignored
    with pytest.raises(ValueError, match=re.escape(message)):
        build_builtin(name, **params)


def test_d3_structure():
    d3 = build_builtin("D3")
    assert d3.spec.order == 6
    assert [ir.dim for ir in d3.irreps] == [1, 1, 2]
    assert d3.dim_sum() == 6
    assert d3.spec.n_classes == 3
    assert sorted(len(d3.spec.class_members(c)) for c in range(3)) == [1, 2, 3]
    assert validate(d3).passed


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_zn_validates(n):
    entry = build_builtin("Z_N", N=n)
    report = validate(entry)
    assert report.passed, str(report.first_failure())
    assert entry.dim_sum() == n
    assert entry.spec.n_classes == n          # Abelian: singleton classes


def test_z2_character_table():
    table = character_table(build_builtin("Z_2"))
    assert np.allclose(table.chi, [[1, 1], [1, -1]])


def test_d3_characters():
    table = character_table(build_builtin("D3"))
    assert np.allclose(table.row("2"), [2, -1, 0], atol=1e-14)
    assert np.allclose(table.row("I"), [1, 1, 1])       # trivial: all ones
    # row orthogonality: sum_C |C| chi_j chi_j'^* = |G| delta
    gram = (table.chi * table.class_sizes) @ table.chi.conj().T
    assert np.allclose(gram, 6 * np.eye(3), atol=1e-12)


def test_character_constant_on_classes():
    d3 = build_builtin("D3")
    for ir in d3.irreps:
        traces = np.einsum("gii->g", ir.matrices)
        for c in range(d3.spec.n_classes):
            members = d3.spec.class_members(c)
            assert np.ptp(traces[members].real) < 1e-12
            assert np.ptp(traces[members].imag) < 1e-12


def test_fourier_z2_exact():
    f = fourier_matrix(build_builtin("Z_2"))
    assert np.allclose(f, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)


def test_fourier_z3_is_dft():
    f = fourier_matrix(build_builtin("Z_3"))
    w = np.exp(2j * np.pi / 3)
    dft = np.array([[w ** (p * k) for p in range(3)] for k in range(3)]) / np.sqrt(3)
    assert np.abs(f - dft).max() < 1e-14


def test_fourier_d3_unitary():
    f = fourier_matrix(build_builtin("D3"))
    assert np.abs(f.conj().T @ f - np.eye(6)).max() < 1e-14


def test_fourier_and_orthogonality_fail_together():
    # the Fourier unitarity residual is the orthogonality theorem restated:
    # perturbing one irrep matrix must break both
    d3 = build_builtin("D3")
    assert great_orthogonality_residual(d3) < 1e-12
    d3.irreps[2].matrices[1, 0, 0] += 1e-3
    f = fourier_matrix(d3)
    unitarity = np.abs(f.conj().T @ f - np.eye(6)).max()
    orthogonality = great_orthogonality_residual(d3)
    assert unitarity > 1e-5 and orthogonality > 1e-5


def test_regular_representation_character():
    for entry in (build_builtin("D3"), build_builtin("Z_5")):
        table = character_table(entry)
        dims = np.array([ir.dim for ir in entry.irreps])
        reg = dims @ table.chi
        id_class = entry.spec.class_of[entry.spec.identity]
        for c in range(entry.spec.n_classes):
            expected = entry.spec.order if c == id_class else 0.0
            assert abs(reg[c] - expected) < 1e-12


def test_rep_basis_order_is_row_major():
    d3 = build_builtin("D3")
    order = rep_basis_order(d3)
    assert order[:3] == [("I", 0, 0), ("p", 0, 0), ("2", 0, 0)]
    assert order[3:] == [("2", 0, 1), ("2", 1, 0), ("2", 1, 1)]


def test_su2_trunc_basics():
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    assert [ir.label for ir in su2.irreps] == ["0", "1/2"]
    assert su2.dim_sum() == 5
    assert validate(su2).passed
    assert build_builtin("SU2_trunc", j_max=1).dim_sum() == 14


def test_su2_generator_algebra():
    su2 = build_builtin("SU2_trunc", j_max="3/2")
    eps = {(0, 1): 2, (1, 2): 0, (2, 0): 1}
    for ir in su2.irreps:
        t = ir.generators
        for (a, b), c in eps.items():
            comm = t[a] @ t[b] - t[b] @ t[a]
            assert np.abs(comm - 1j * t[c]).max() < 1e-12
        total = sum(x @ x for x in t)
        assert np.abs(total - ir.casimir * np.eye(ir.dim)).max() < 1e-12
        assert float(parse_j_label(ir.label)) * (float(parse_j_label(ir.label)) + 1) \
            == pytest.approx(ir.casimir)


def test_u1_trunc_basics():
    u1 = build_builtin("U1_trunc", P=2)
    assert [ir.label for ir in u1.irreps] == ["-2", "-1", "0", "1", "2"]
    assert validate(u1).passed
    for ir in u1.irreps:
        assert ir.generators[0][0, 0] == float(ir.label)


def test_builtin_parameter_errors():
    with pytest.raises(ValueError):
        build_builtin("Z_N", N=1)
    with pytest.raises(ValueError):
        build_builtin("U1_trunc", P=0)
    with pytest.raises(ValueError):
        build_builtin("SU2_trunc", j_max="1/3")
    with pytest.raises(ValueError):
        build_builtin("Q8")


def test_validate_reports_perturbed_irrep():
    d3 = build_builtin("D3")
    d3.irreps[2].matrices[1, 0, 0] += 1e-3
    report = validate(d3)
    assert not report.passed
    by_name = {c.name: c for c in report.checks}
    assert not by_name["irreps.homomorphism"].passed
    assert by_name["irreps.homomorphism"].residual == pytest.approx(1e-3, rel=5.0)


def test_validate_reports_bad_multiplication_table(tmp_path):
    z4 = build_builtin("Z_4")
    path = tmp_path / "z4.json"
    dump_group_file(z4, path)
    doc = json.loads(path.read_text())
    doc["mul"][1], doc["mul"][2] = doc["mul"][2], doc["mul"][1]   # break one row
    path.write_text(json.dumps(doc))
    loaded = load_group_file(path)
    report = validate(loaded)
    assert not report.passed
    assert report.first_failure().name == "mul.latin_square"


def test_group_file_roundtrip(tmp_path):
    d3 = build_builtin("D3")
    path = tmp_path / "d3.json"
    dump_group_file(d3, path)
    loaded = load_group_file(path)
    assert validate(loaded).passed
    assert np.array_equal(loaded.spec.mul, d3.spec.mul)
    for a, b in zip(loaded.irreps, d3.irreps):
        assert a.label == b.label
        assert np.abs(a.matrices - b.matrices).max() < 1e-15
    assert np.abs(fourier_matrix(loaded) - fourier_matrix(d3)).max() < 1e-15


@pytest.mark.parametrize("name,params,size", [
    ("D3", {}, 2), *[("Z_N", {"N": n}, 1) for n in (2, 3, 5, 8)]])
def test_generating_set_closes_to_the_whole_group(tmp_path, name, params, size):
    entry = build_builtin(name, **params)
    path = tmp_path / "group.json"
    dump_group_file(entry, path)
    for spec in (entry.spec, load_group_file(path).spec):
        gens = spec.generating_set()
        assert len(gens) == size and spec.identity not in gens
        reached = {spec.identity}
        while True:
            grown = reached | {int(spec.mul[x, s]) for x in reached for s in gens}
            if grown == reached:
                break
            reached = grown
        assert reached == set(range(spec.order))


def test_group_file_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(GroupFileError):
        load_group_file(path)
    path.write_text(json.dumps({"name": "x", "order": 2, "mul": [0, 1, 1]}))
    with pytest.raises(GroupFileError):
        load_group_file(path)
    doc = {"name": "x", "order": 2, "mul": [0, 1, 1, 0], "fundamental": "a",
           "irreps": [{"label": "a", "dim": 1,
                       "matrices": [[[[1.0, 0.0]]], [[[1.0]]]]}]}
    path.write_text(json.dumps(doc))
    with pytest.raises(GroupFileError):
        load_group_file(path)


def test_large_group_random_associativity():
    # above the exhaustive limit the check samples seeded triples
    entry = build_builtin("Z_N", N=96)
    report = validate(entry)
    assert report.passed


def test_fourier_requires_complete_irreps():
    d3 = build_builtin("D3")
    d3.irreps = d3.irreps[:2]
    with pytest.raises(ValueError):
        fourier_matrix(d3)


@pytest.mark.parametrize("name,params,label", [
    ("SU2_trunc", {"j_max": "1"}, "1"),
    ("U1_trunc", {"P": 2}, "-2"),
])
def test_irrep_matrix_takes_an_angle_vector_for_lie_groups(name, params, label):
    entry = build_builtin(name, **params)
    ir = entry.irrep(label)
    for angles in entry.elements(5, seed=11):
        mat = ir.matrix(angles)
        assert mat.shape == (ir.dim, ir.dim)
        assert np.array_equal(mat, np.atleast_2d(ir.matrix_angle(angles)))


def test_elements_finite_are_every_index_whatever_the_count():
    d3 = build_builtin("D3")
    for count, seed in ((0, 0), (3, 1), (50, 2)):
        assert d3.elements(count, seed) == list(range(6))


def test_elements_lie_are_seeded_angle_vectors():
    su2 = build_builtin("SU2_trunc", j_max="1/2")
    first, again, other = (su2.elements(7, seed=s) for s in (4, 4, 5))
    assert len(first) == 7
    assert all(a.shape == (3,) and np.all(np.abs(a) <= np.pi) for a in first)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not np.array_equal(first[0], other[0])


@pytest.mark.parametrize("name,params", [("D3", {}), ("Z_N", {"N": 4})])
def test_irrep_characters_match_the_character_table(name, params):
    entry = build_builtin(name, **params)
    spec = entry.spec
    table = character_table(entry)
    for ir in entry.irreps:
        chi = ir.characters
        assert chi.shape == (spec.order,)
        for g in range(spec.order):
            assert abs(chi[g] - np.trace(ir.matrix(g))) < 1e-15
            assert abs(chi[g] - table.row(ir.label)[spec.class_of[g]]) < 1e-12


def test_group_file_order_below_one_is_malformed(tmp_path):
    path = tmp_path / "d3.json"
    dump_group_file(build_builtin("D3"), path)
    doc = json.loads(path.read_text())
    doc["order"] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(GroupFileError, match="order"):
        load_group_file(path)


def test_out_of_range_table_entry_is_reported_not_raised(tmp_path):
    # an entry past the order with identity row and column intact
    path = tmp_path / "d3.json"
    dump_group_file(build_builtin("D3"), path)
    doc = json.loads(path.read_text())
    doc["mul"][7] = 99
    path.write_text(json.dumps(doc))
    report = validate(load_group_file(path))
    assert report.first_failure().name == "mul.latin_square"


# ---------------------------------------------------------------------------
# group files: integers and finite numbers only

def _d3_doc(tmp_path):
    path = tmp_path / "d3.json"
    dump_group_file(build_builtin("D3"), path)
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("key,value", [
    ("mul", 10 ** 20), ("mul", 1.9), ("mul", True), ("mul", "1"), ("mul", 1.0),
    ("order", 2.5), ("order", 6.0), ("order", True), ("order", "6"), ("order", 10 ** 20),
    ("dim", 2.0), ("dim", "2"), ("dim", 10 ** 20)],
    ids=["mul-past-int64", "mul-float", "mul-bool", "mul-string", "mul-integral-float",
         "order-float", "order-integral-float", "order-bool", "order-string",
         "order-past-int64", "dim-float", "dim-string", "dim-past-int64"])
def test_group_file_integers_are_json_integers_that_fit_int64(tmp_path, key, value):
    # refused, never truncated or coerced: 1.9 would load as 1, true as 1
    path, doc = _d3_doc(tmp_path)
    if key == "mul":
        doc["mul"][7] = value
    elif key == "order":
        doc["order"] = value
    else:
        doc["irreps"][2]["dim"] = value
    path.write_text(json.dumps(doc))
    what = {"mul": "each mul entry", "order": "order", "dim": "irrep 2 dim"}[key]
    with pytest.raises(GroupFileError, match=f"^{what} must "):
        load_group_file(path)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_group_file_matrix_entries_are_finite(tmp_path, text):
    # the JSON module reads NaN and Infinity, and 1e400 overflows to inf
    path, doc = _d3_doc(tmp_path)
    doc["irreps"][2]["matrices"][1][0][1][0] = "@"
    path.write_text(json.dumps(doc).replace('"@"', text))
    with pytest.raises(GroupFileError, match="irrep 2, element 1: .* not a finite number"):
        load_group_file(path)


@pytest.mark.parametrize("value", ["-1", False, None, ["-1", False]],
                         ids=["string", "bool", "null", "string-and-bool-pair"])
def test_group_file_matrix_entries_are_json_numbers(tmp_path, value):
    # float() reads "-1" as -1.0 and false as 0.0, so ["-1", false] would
    # load as -1+0j and pass validate
    path, doc = _d3_doc(tmp_path)
    if isinstance(value, list):
        doc["irreps"][1]["matrices"][1][0][0] = value
    else:
        doc["irreps"][2]["matrices"][1][0][1][0] = value
    path.write_text(json.dumps(doc))
    label = "p" if isinstance(value, list) else "2"
    with pytest.raises(GroupFileError, match=f"irrep {label}, element 1: matrix entry must "
                                             "be a JSON number, got"):
        load_group_file(path)


@pytest.mark.parametrize("corrupt", [
    lambda doc: doc.update(order=0),
    lambda doc: doc.update(order="6"),
    lambda doc: doc["mul"].pop(),
    lambda doc: doc["mul"].__setitem__(3, 1.5),
    lambda doc: doc.update(element_labels=["e"]),
    lambda doc: doc["irreps"][2].update(dim=3),
    lambda doc: doc["irreps"][2].update(dim="2"),
    lambda doc: doc["irreps"][2]["matrices"][1][0][1].__setitem__(0, float("nan")),
    lambda doc: doc["irreps"][2]["matrices"][1][0][1].__setitem__(0, "1"),
    lambda doc: doc.update(fundamental="x"),
    lambda doc: doc.pop("irreps"),
], ids=["order-below-one", "order-string", "mul-length", "mul-float", "labels", "shape",
        "dim-string", "nan-entry", "string-entry", "fundamental", "missing-key"])
def test_every_group_file_error_names_the_file(tmp_path, corrupt):
    path, doc = _d3_doc(tmp_path)
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(GroupFileError) as info:
        load_group_file(path)
    assert str(path) in str(info.value), info.value


# ---------------------------------------------------------------------------
# the representation laws against one irrep, pair, row and element at a time

def _channels(entry):
    """The CG tensor of every multiplicity-free channel J (x) fundamental."""
    fund = entry.fundamental
    return [cg(entry, ir.label, fund, k) for ir in entry.irreps
            for k, _ in decompose(entry, ir.label, fund).terms]


def _corrupted_d3(kind):
    d3 = build_builtin("D3")
    two = d3.irreps[2].matrices
    if kind == "entry":
        two[1, 0, 0] += 1e-3
    elif kind == "scaled":
        two[1] *= 1.5
    elif kind == "scaled-identity":
        two[0] *= 1.5
    elif kind == "repeated-fundamental":
        d3.irreps.append(Irrep(label="2b", dim=2, matrices=two.copy()))
    elif kind == "swapped":
        two[[1, 3]] = two[[3, 1]]
    elif kind == "table-row":
        mul = d3.spec.mul.copy()
        mul[1, [0, 1]] = mul[1, [1, 0]]
        d3.spec = _spec_from_mul("D3", mul, d3.spec.element_labels)
    elif kind == "nan":
        two[1, 0, 1] = np.nan
    return d3


CLEAN_GROUPS = [*[(f"Z_{n}", lambda n=n: build_builtin("Z_N", N=n)) for n in range(2, 9)],
                ("Z_50", lambda: build_builtin("Z_N", N=50)), ("D3", lambda: build_builtin("D3")),
                ("SU2-j1", lambda: build_builtin("SU2_trunc", j_max="1")),
                ("SU2-j2", lambda: build_builtin("SU2_trunc", j_max="2")),
                ("U1-P2", lambda: build_builtin("U1_trunc", P=2))]
CORRUPTIONS = ["entry", "scaled", "scaled-identity", "repeated-fundamental", "swapped",
               "table-row", "nan"]


@pytest.mark.parametrize("make_entry", [
    *[make for _, make in CLEAN_GROUPS],
    *[lambda kind=kind: _corrupted_d3(kind) for kind in CORRUPTIONS]],
    ids=[*[name for name, _ in CLEAN_GROUPS], *[f"d3-{kind}" for kind in CORRUPTIONS]])
def test_group_laws_equal_the_loop_reference(make_entry):
    # validate and verify_cg against the loop definitions, to float64 rounding
    # of entries of size max(1, residual); a NaN is a NaN on both sides.  The
    # CG tensors are those of the clean group, checked against the corrupted one.
    entry = make_entry()
    clean = build_builtin("D3") if entry.name == "D3" else entry
    tensors = _channels(clean)
    found = {c.name: c.residual for c in validate(entry).checks}
    found.update({f"cg.intertwiner {t.J}x{t.j}->{t.K}": verify_cg(entry, t) for t in tensors})
    reference = oracles.group_laws_by_loops(entry, tensors)
    assert list(found) == list(reference)
    for name, value in reference.items():
        assert (np.isnan(value) and np.isnan(found[name])) or \
            abs(found[name] - value) <= 1e-14 * max(1.0, value), (name, found[name], value)
    assert {name for name, value in found.items() if not value <= DEFAULT_TOL} == \
        {name for name, value in reference.items() if not value <= DEFAULT_TOL}


@pytest.mark.parametrize("kind", CORRUPTIONS)
def test_each_d3_corruption_fails_validate(kind):
    report = validate(_corrupted_d3(kind))
    assert not report.passed
    if kind == "nan":
        # one NaN off the diagonal keeps every character; the laws it enters fail
        failing = {c.name for c in report.checks if not c.passed}
        assert failing == {"irreps.unitary", "irreps.inverse_is_dagger",
                           "irreps.homomorphism", "irreps.great_orthogonality"}
        assert report.first_failure().name == "irreps.unitary"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_group_law_residual_equals_the_pair_loop_on_any_stack(seed):
    # random matrices on D3's table, the last one ten times larger, so the
    # largest residual sits at g = h = the last element alone
    spec = build_builtin("D3").spec
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((6, 3, 2, 2)) + 1j * rng.standard_normal((6, 3, 2, 2))
    stack[5] *= 10
    loop = max(np.abs(stack[g] @ stack[h] - stack[spec.mul[g, h]]).max()
               for g in range(6) for h in range(6))
    assert abs(group_law_residual(stack, spec) - loop) <= 1e-14 * loop


def _one_by_one_stack(name):
    """(stack, spec): Z_5's irreps on its own table, or U(1)'s charges p on
    the rotations by 2 pi k / 7 (a Z_7 subgroup), as (order, irrep, 1, 1)."""
    if name == "Z_5":
        z5 = build_builtin("Z_N", N=5)
        return np.stack([ir.matrices for ir in z5.irreps], axis=1), z5.spec
    z7 = build_builtin("Z_N", N=7)
    charges = np.array([int(ir.label) for ir in build_builtin("U1_trunc", P=2).irreps])
    angles = 2 * np.pi * np.arange(7) / 7
    return np.exp(1j * np.outer(angles, charges))[..., None, None], z7.spec


@pytest.mark.parametrize("name", ["Z_5", "U1"])
def test_one_by_one_group_law_equals_the_batched_product(name):
    # 1x1 matrices are multiplied elementwise: the same residual as the
    # batched matmul, on the exact stack, on a perturbed one and with a NaN
    stack, spec = _one_by_one_stack(name)

    def batched(stack):
        return max(np.abs(stack[g] @ stack - stack[spec.mul[g]]).max()
                   for g in range(spec.order))

    rng = np.random.default_rng(4)
    perturbed = stack * np.exp(1e-3j * rng.standard_normal(stack.shape))
    for case in (stack, perturbed):
        got, reference = group_law_residual(case, spec), batched(case)
        assert abs(got - reference) <= 1e-14 * max(1.0, reference), (got, reference)
    assert batched(perturbed) > 1e-4
    perturbed[spec.order - 1, 1, 0, 0] = np.nan
    assert np.isnan(group_law_residual(perturbed, spec)) and np.isnan(batched(perturbed))


def test_group_law_residual_keeps_a_nan_of_a_late_element():
    d3 = build_builtin("D3")
    stack = d3.irreps[2].matrices.copy()
    assert group_law_residual(stack, d3.spec) < 1e-14
    stack[5, 1, 0] = np.nan
    assert np.isnan(group_law_residual(stack, d3.spec))

