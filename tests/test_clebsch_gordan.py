import numpy as np
import pytest

from fockgauge.clebsch_gordan import (
    CGTensor,
    MultiplicityError,
    cg,
    decompose,
    verify_cg,
)
from fockgauge.group_core import build_builtin
from oracles import cg_numeric

EPS2 = np.array([[0, 1], [-1, 0]], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture(scope="module")
def d3():
    return build_builtin("D3")


@pytest.fixture(scope="module")
def su2():
    return build_builtin("SU2_trunc", j_max="3/2")


def test_decompose_d3(d3):
    assert decompose(d3, "2", "2").terms == [("I", 1), ("p", 1), ("2", 1)]
    assert decompose(d3, "I", "2").terms == [("2", 1)]
    assert decompose(d3, "p", "2").terms == [("2", 1)]


def test_decompose_dimension_sum(d3):
    for J in d3.irreps:
        for j in d3.irreps:
            dec = decompose(d3, J.label, j.label)
            total = sum(mult * d3.irrep(K).dim for K, mult in dec.terms)
            assert total == J.dim * j.dim


def test_decompose_su2(su2):
    assert decompose(su2, "1/2").terms == [("0", 1), ("1", 1)]
    dec = decompose(su2, "3/2")
    assert dec.terms == [("1", 1)]
    assert dec.dropped == ["2"]


def test_decompose_u1_truncation():
    u1 = build_builtin("U1_trunc", P=1)
    assert decompose(u1, "0").terms == [("1", 1)]
    dec = decompose(u1, "1")
    assert dec.terms == [] and dec.dropped == ["2"]


def test_d3_cg_table(d3):
    # the five coupling tensors of the fundamental, entry for entry
    t = cg(d3, "I", "2", "2")
    assert np.abs(t.coeffs[0] - np.eye(2)).max() < 1e-13
    t = cg(d3, "p", "2", "2")
    assert np.abs(t.coeffs[0] - EPS2).max() < 1e-13
    t = cg(d3, "2", "2", "I")
    assert np.abs(t.coeffs[:, :, 0] - np.eye(2) / np.sqrt(2)).max() < 1e-13
    t = cg(d3, "2", "2", "p")
    assert np.abs(t.coeffs[:, :, 0] - EPS2 / np.sqrt(2)).max() < 1e-13
    t = cg(d3, "2", "2", "2")
    expected = np.stack([SIGMA_Z, -SIGMA_X], axis=-1) / np.sqrt(2)
    assert np.abs(t.coeffs - expected).max() < 1e-13


def test_d3_intertwiner_residuals(d3):
    for J in d3.irreps:
        for K, _ in decompose(d3, J.label, "2").terms:
            assert verify_cg(d3, cg(d3, J.label, "2", K)) < 1e-12


def test_completeness_stacking(d3):
    for J in d3.irreps:
        dec = decompose(d3, J.label, "2")
        stacked = np.hstack([cg(d3, J.label, "2", K).matrix() for K, _ in dec.terms])
        n = stacked.shape[0]
        assert stacked.shape == (n, n)
        assert np.abs(stacked.conj().T @ stacked - np.eye(n)).max() < 1e-12


def test_su2_closed_form_values(su2):
    t = cg(su2, "1/2", "1/2", "1")
    # <1/2,1/2; 1/2,1/2 | 1,1> = 1: highest weights at index (0, 0, 0)
    assert t.coeffs[0, 0, 0] == pytest.approx(1.0)
    t0 = cg(su2, "0", "1/2", "1/2")
    assert t0.coeffs[0, 0, 0] == pytest.approx(1.0)
    assert t0.coeffs[0, 1, 1] == pytest.approx(1.0)
    # singlet from two spin halves: (ud - du)/sqrt(2)
    ts = cg(su2, "1/2", "1/2", "0")
    assert ts.coeffs[0, 1, 0] == pytest.approx(1 / np.sqrt(2))
    assert ts.coeffs[1, 0, 0] == pytest.approx(-1 / np.sqrt(2))


def test_su2_intertwiner_sampled(su2):
    for J, K in [("0", "1/2"), ("1/2", "0"), ("1/2", "1"), ("1", "1/2"),
                 ("1", "3/2"), ("3/2", "1")]:
        assert verify_cg(su2, cg(su2, J, "1/2", K)) < 1e-12


def test_su2_closed_vs_numeric(su2):
    for J, K in [("0", "1/2"), ("1/2", "0"), ("1/2", "1"), ("1", "1/2"),
                 ("1", "3/2"), ("3/2", "1")]:
        closed = cg(su2, J, "1/2", K).coeffs
        numeric = cg_numeric(su2, J, "1/2", K).coeffs
        assert np.abs(closed - numeric).max() < 1e-8


def test_u1_cg_unit():
    u1 = build_builtin("U1_trunc", P=2)
    t = cg(u1, "-1", "1", "0")
    assert t.coeffs.shape == (1, 1, 1)
    assert t.coeffs[0, 0, 0] == pytest.approx(1.0)
    assert verify_cg(u1, t) < 1e-12


def test_verify_cg_detects_sign_flip(d3):
    t = cg(d3, "2", "2", "2")
    t.coeffs[0, 0, 0] *= -1.0
    assert verify_cg(d3, t) > 0.1


def test_identity_tensor_residual_exactly_zero(d3):
    # trivial (x) j -> j with the exact identity tensor: D - D cancels exactly
    coeffs = np.zeros((1, 2, 2), dtype=complex)
    coeffs[0] = np.eye(2)
    t = CGTensor(J="I", j="2", K="2", coeffs=coeffs)
    assert verify_cg(d3, t) == 0.0


def test_multiplicity_errors(d3, su2):
    with pytest.raises(MultiplicityError):
        cg(d3, "I", "I", "2")               # K absent from I (x) I
    with pytest.raises(MultiplicityError):
        cg(su2, "3/2", "1/2", "2")          # dropped by the truncation


def test_multiplicity_two_rejected():
    # a reducible stand-in representation R = 0 (+) 1 makes the trivial irrep
    # appear twice in R (x) R; the channel must be refused, not half-built
    from fockgauge.group_core import Irrep
    z2 = build_builtin("Z_2")
    mats = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
    z2.irreps.append(Irrep(label="R", dim=2, matrices=mats))
    assert decompose(z2, "R", "R").multiplicity("0") == 2
    with pytest.raises(MultiplicityError):
        cg(z2, "R", "R", "0")
