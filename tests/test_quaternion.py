import numpy as np
import pytest

from qroot.quaternion import Quaternion, QuatMatrix
from qroot.errors import DimensionMismatch, ParseError


def test_unit_multiplication_table():
    i = Quaternion(0, 1, 0, 0)
    j = Quaternion(0, 0, 1, 0)
    k = Quaternion(0, 0, 0, 1)
    minus_one = Quaternion(-1, 0, 0, 0)
    assert i * i == minus_one
    assert j * j == minus_one
    assert k * k == minus_one
    assert i * j == k
    assert j * k == i
    assert k * i == j
    assert j * i == -k
    assert k * j == -i
    assert i * k == -j


def test_conjugate_norm_is_real_nonnegative():
    rng = np.random.default_rng(0)
    for _ in range(50):
        q = Quaternion(*rng.standard_normal(4))
        p = q.conjugate() * q
        assert p.x == pytest.approx(0.0, abs=1e-14)
        assert p.y == pytest.approx(0.0, abs=1e-14)
        assert p.z == pytest.approx(0.0, abs=1e-14)
        assert p.w >= 0
        assert p.w == pytest.approx(q.norm_sq())


def test_multiplication_associative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c = (Quaternion(*rng.standard_normal(4)) for _ in range(3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_scalar_inverse():
    q = Quaternion(1, 2, -1, 0.5)
    p = q * q.inverse()
    assert p.w == pytest.approx(1.0)
    assert abs(p - Quaternion(1, 0, 0, 0)) < 1e-14


def test_pair_roundtrip():
    q = Quaternion(1.5, -2.0, 0.25, 3.0)
    z1, z2 = q.to_pair()
    assert Quaternion.from_pair(z1, z2) == q


def test_matrix_adjoint_involution():
    rng = np.random.default_rng(2)
    x = QuatMatrix(rng.standard_normal((4, 4, 4)))
    assert x.adjoint().adjoint().allclose(x, atol=0.0)


def test_matrix_product_matches_scalar_product():
    a = Quaternion(0.5, 1, -2, 0.25)
    b = Quaternion(-1, 0.5, 3, 1)
    ma = QuatMatrix(np.array([[[a.w, a.x, a.y, a.z]]]))
    mb = QuatMatrix(np.array([[[b.w, b.x, b.y, b.z]]]))
    got = (ma @ mb)[0, 0]
    assert abs(got - a * b) < 1e-14


def test_matrix_power_binary():
    rng = np.random.default_rng(3)
    x = QuatMatrix(rng.standard_normal((3, 3, 4)))
    p3 = x.power(3)
    assert p3.allclose(x @ x @ x, atol=1e-12)
    assert x.power(0).allclose(QuatMatrix.eye(3), atol=0.0)


def test_matrix_inverse():
    rng = np.random.default_rng(4)
    x = QuatMatrix(rng.standard_normal((3, 3, 4)))
    prod = x @ x.inverse()
    assert prod.allclose(QuatMatrix.eye(3), atol=1e-10)


def test_hermitian_predicate():
    rng = np.random.default_rng(5)
    y = QuatMatrix(rng.standard_normal((3, 3, 4)))
    h = (y + y.adjoint()).scale(0.5)
    assert h.is_hermitian()
    assert not y.is_hermitian()


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        QuatMatrix(np.zeros((2, 2, 3)))
    a = QuatMatrix.zeros(2, 3)
    b = QuatMatrix.zeros(2, 3)
    with pytest.raises(DimensionMismatch):
        a @ b


def test_json_roundtrip():
    rng = np.random.default_rng(6)
    x = QuatMatrix(rng.standard_normal((3, 3, 4)))
    back = QuatMatrix.from_json(x.to_json())
    assert back.allclose(x, atol=0.0)


def test_json_errors():
    with pytest.raises(ParseError):
        QuatMatrix.from_json({"n": 2, "entries": [[1, 0, 0, 0]]})
    with pytest.raises(ParseError):
        QuatMatrix.from_json({"entries": []})
    for entries in ([[None, 0, 0, 0]], 5, [["x", 0, 0, 0]], [[1, 0, 0]], [[1, 0, 0, 0, 0]],
                    [[[1], [0], [0], [0]]], [[float("nan"), 0, 0, 0]], [[10 ** 400, 0, 0, 0]]):
        with pytest.raises(ParseError):
            QuatMatrix.from_json({"n": 1, "entries": entries})
