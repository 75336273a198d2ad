import numpy as np
import pytest

from qroot.errors import NotHermitian, NotInOmega, OddDimension, Singular
from qroot.omega import (chi, omega_embed, omega_extract, omega_membership,
                         omega_project, selfadjoint_residual)
from qroot.quaternion import QuatMatrix


def _quat_scalar(w, x, y, z):
    return QuatMatrix(np.array([[[w, x, y, z]]], dtype=float))


def test_embed_identity():
    assert np.array_equal(omega_embed(QuatMatrix.eye(1)).array, np.eye(2))
    assert np.array_equal(omega_embed(QuatMatrix.eye(3)).array, np.eye(6))


def test_embed_j_unit():
    got = omega_embed(_quat_scalar(0, 0, 1, 0)).array
    assert np.array_equal(got, np.array([[0, 1], [-1, 0]], dtype=complex))


def test_embed_i_unit():
    got = omega_embed(_quat_scalar(0, 1, 0, 0)).array
    assert np.array_equal(got, np.diag([1j, -1j]))


def test_extract_examples():
    assert omega_extract(np.eye(2)).allclose(QuatMatrix.eye(1), atol=0.0)
    j = omega_extract(np.array([[0, 1], [-1, 0]], dtype=complex))
    assert j.allclose(_quat_scalar(0, 0, 1, 0), atol=0.0)
    with pytest.raises(NotInOmega):
        omega_extract(np.array([[0, 1], [1, 0]], dtype=complex))


def test_membership_examples():
    assert omega_membership(np.eye(4)) == 0.0
    # nearest member of diag(i, i) averages the determining blocks to zero
    assert omega_membership(np.diag([1j, 1j])) == pytest.approx(1.0)
    rng = np.random.default_rng(0)
    for n in (1, 2, 5):
        x = QuatMatrix(rng.standard_normal((n, n, 4)))
        assert omega_membership(omega_embed(x).array) <= 1e-15


def test_membership_odd_dimension():
    with pytest.raises(OddDimension):
        omega_membership(np.eye(3))


def test_homomorphism_laws_200_trials():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(1, 7))
        x = QuatMatrix(rng.standard_normal((n, n, 4)))
        y = QuatMatrix(rng.standard_normal((n, n, 4)))
        wx, wy = omega_embed(x).array, omega_embed(y).array
        prod = omega_embed(x @ y).array
        assert np.linalg.norm(prod - wx @ wy) <= 1e-12 * max(
            1.0, np.linalg.norm(wx) * np.linalg.norm(wy))
        assert np.array_equal(omega_embed(x.adjoint()).array, wx.conj().T)
        s, t = rng.standard_normal(2)
        lin = omega_embed(x.scale(s) + y.scale(t)).array
        assert np.allclose(lin, s * wx + t * wy, rtol=0, atol=1e-13)
        if np.linalg.cond(wx) < 1e6:
            inv = omega_embed(x.inverse()).array
            assert np.linalg.norm(inv - np.linalg.inv(wx)) <= 1e-9 * np.linalg.norm(inv)


def test_roundtrip_exact():
    rng = np.random.default_rng(8)
    x = QuatMatrix(rng.standard_normal((4, 4, 4)))
    assert omega_extract(omega_embed(x)).allclose(x, atol=0.0)


def test_hermitian_equivalence_both_directions():
    rng = np.random.default_rng(9)
    for _ in range(20):
        y = QuatMatrix(rng.standard_normal((3, 3, 4)))
        h = (y + y.adjoint()).scale(0.5)
        arr = omega_embed(h).array
        assert np.linalg.norm(arr - arr.conj().T) <= 1e-13
        # reverse: Hermitian member of Omega extracts to a Hermitian matrix
        back = omega_extract(arr)
        assert back.is_hermitian()
        # a non-Hermitian matrix embeds to a non-Hermitian member
        arr2 = omega_embed(y).array
        assert np.linalg.norm(arr2 - arr2.conj().T) > 1e-8


def test_selfadjoint_residual_examples():
    assert selfadjoint_residual(np.eye(2), np.array([[2.0, 1], [1, 0.5]])) == 0.0
    h = np.diag([1.0, -1.0]).astype(complex)
    a = np.array([[0, 1j], [1j, 0]])
    assert selfadjoint_residual(h, a) == pytest.approx(0.0, abs=1e-15)
    # H = I, A = upper shift: residual ||[[0,1],[-1,0]]||_F / (sqrt2 * 1) = 1
    a = np.array([[0.0, 1], [0, 0]])
    res = selfadjoint_residual(np.eye(2), a)
    assert res > 0
    assert res == pytest.approx(1.0)


def test_selfadjoint_residual_errors():
    with pytest.raises(NotHermitian):
        selfadjoint_residual(np.array([[0.0, 1], [0, 0]]), np.eye(2))
    with pytest.raises(Singular):
        selfadjoint_residual(np.diag([1.0, 1e-15]), np.eye(2))


def test_chi_is_quaternionic_structure():
    rng = np.random.default_rng(10)
    k = np.block([[np.zeros((4, 4)), np.eye(4)], [-np.eye(4), np.zeros((4, 4))]])
    v = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    # chi(v) = K conj(v) exactly, K = [[0, I], [-I, 0]], for vectors and column blocks
    assert np.array_equal(chi(v), k @ np.conj(v))
    cols = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    assert np.array_equal(chi(cols), k @ np.conj(cols))
    assert np.array_equal(chi(chi(v)), -v)
    # a member of Omega satisfies M K = K conj(M), so M chi(v) = chi(M v)
    x = omega_embed(QuatMatrix(rng.standard_normal((4, 4, 4)))).array
    assert np.allclose(x @ k, k @ np.conj(x), atol=1e-15)
    assert np.allclose(x @ chi(v), chi(x @ v), atol=1e-12)


def test_omega_matrix_constructor_validates():
    from qroot.omega import OmegaMatrix
    with pytest.raises(NotInOmega):
        OmegaMatrix(np.array([[0, 1], [1, 0]], dtype=complex))
    good = OmegaMatrix(np.eye(4, dtype=complex))
    assert good.half_n == 2


def test_complex_json_rejects_malformed_values():
    from qroot.errors import ParseError
    from qroot.omega import complex_from_json
    for re in ([None, 0, 0, 1], ["x", 0, 0, 1], [float("nan"), 0, 0, 1], [1, 0, 0]):
        with pytest.raises(ParseError):
            complex_from_json({"dim": 2, "re": re, "im": [0, 0, 0, 0]})


def test_omega_project_is_extract_and_membership_in_one_pass():
    rng = np.random.default_rng(12)
    m = omega_embed(QuatMatrix(rng.standard_normal((4, 4, 4)))).array
    m = m + 1e-12 * rng.standard_normal(m.shape)
    a1, a2, res = omega_project(m)
    assert res == omega_membership(m) > 0
    want = omega_extract(m, tol=1e-9)
    assert np.array_equal(QuatMatrix.from_complex_pair(a1, a2).data, want.data)


def test_selfadjoint_residual_condition_test_uses_moduli_of_eigenvalues():
    # indefinite H: its singular values are the moduli of its eigenvalues
    h = np.diag([1.0, -1.0, 2e-12, -3.0]).astype(complex)
    with pytest.raises(Singular):
        selfadjoint_residual(h, np.eye(4))
    h[2, 2] = -2e-11
    assert selfadjoint_residual(h, np.eye(4)) == 0.0
