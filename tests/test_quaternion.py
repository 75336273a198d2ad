"""QuatMatrix, checked against a scalar quaternion algebra written out in full."""

from dataclasses import dataclass

import numpy as np
import pytest

from qroot.omega import omega_embed, omega_extract
from qroot.quaternion import QuatMatrix
from qroot.errors import DimensionMismatch, ParseError


@dataclass(frozen=True)
class Quaternion:
    """Scalar quaternion w + x*i + y*j + z*k, the reference for QuatMatrix's entries."""

    w: float = 0.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        a, b = self, other
        return Quaternion(
            a.w * b.w - a.x * b.x - a.y * b.y - a.z * b.z,
            a.w * b.x + a.x * b.w + a.y * b.z - a.z * b.y,
            a.w * b.y - a.x * b.z + a.y * b.w + a.z * b.x,
            a.w * b.z + a.x * b.y - a.y * b.x + a.z * b.w,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w ** 2 + self.x ** 2 + self.y ** 2 + self.z ** 2

    def __abs__(self) -> float:
        return float(np.sqrt(self.norm_sq()))

    def inverse(self) -> "Quaternion":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("inverse of zero quaternion")
        c = self.conjugate()
        return Quaternion(c.w / n2, c.x / n2, c.y / n2, c.z / n2)

    def to_pair(self) -> tuple[complex, complex]:
        """Complex splitting q = z1 + j*z2 with z1 = w + x*i, z2 = y - z*i."""
        return complex(self.w, self.x), complex(self.y, -self.z)

    @staticmethod
    def from_pair(z1: complex, z2: complex) -> "Quaternion":
        return Quaternion(z1.real, z1.imag, z2.real, -z2.imag)


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
    # QuatMatrix stores an entry by the same splitting
    m = QuatMatrix.from_complex_pair(np.array([[z1]]), np.array([[z2]]))
    assert Quaternion(*m.data[0, 0]) == q


def test_matrix_adjoint_involution():
    rng = np.random.default_rng(2)
    x = QuatMatrix(rng.standard_normal((4, 4, 4)))
    assert np.array_equal(x.adjoint().adjoint().data, x.data)


def test_matrix_product_matches_scalar_product():
    a = Quaternion(0.5, 1, -2, 0.25)
    b = Quaternion(-1, 0.5, 3, 1)
    ma = QuatMatrix(np.array([[[a.w, a.x, a.y, a.z]]]))
    mb = QuatMatrix(np.array([[[b.w, b.x, b.y, b.z]]]))
    got = Quaternion(*(ma @ mb).data[0, 0])
    assert abs(got - a * b) < 1e-14


def test_matrix_power_binary():
    rng = np.random.default_rng(3)
    x = QuatMatrix(rng.standard_normal((3, 3, 4)))
    p3 = x.power(3)
    assert np.allclose(p3.data, (x @ x @ x).data, rtol=0.0, atol=1e-12)
    assert np.array_equal(x.power(0).data, QuatMatrix.eye(3).data)


def _power_from_identity(x, m):
    """Binary powering from the identity, squaring after every bit."""
    result, base = QuatMatrix.eye(x.n_rows), x
    while m:
        if m & 1:
            result = result @ base
        base = base @ base
        m >>= 1
    return result


@pytest.mark.parametrize("m, products", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3)])
def test_matrix_power_takes_no_wasted_products(monkeypatch, m, products):
    rng = np.random.default_rng(6)
    x = QuatMatrix(rng.standard_normal((5, 5, 4)))
    want = _power_from_identity(x, m)
    calls = []
    matmul = QuatMatrix.__matmul__

    def counting(self, other):
        calls.append(1)
        return matmul(self, other)

    monkeypatch.setattr(QuatMatrix, "__matmul__", counting)
    got = x.power(m)
    assert len(calls) == products
    # products with the identity are exact, so skipping them changes no bit
    assert np.array_equal(got.data, want.data)
    if m <= 2:
        assert np.array_equal(got.data, (x @ x if m == 2 else x).data)


def test_matrix_inverse():
    rng = np.random.default_rng(4)
    x = QuatMatrix(rng.standard_normal((3, 3, 4)))
    # the complex inverse of omega(X) lies in Omega, so it extracts to X^-1
    prod = x @ omega_extract(np.linalg.inv(omega_embed(x).array))
    assert np.allclose(prod.data, QuatMatrix.eye(3).data, rtol=0.0, atol=1e-10)


def test_hermitian_predicate():
    # (Y + Y*)/2 is its own adjoint, a random Y is not
    rng = np.random.default_rng(5)
    y = QuatMatrix(rng.standard_normal((3, 3, 4)))
    h = QuatMatrix(0.5 * (y.data + y.adjoint().data))
    assert np.array_equal(h.data, h.adjoint().data)
    assert not np.allclose(y.data, y.adjoint().data, rtol=0.0, atol=1e-8)


def test_shape_errors():
    with pytest.raises(DimensionMismatch):
        QuatMatrix(np.zeros((2, 2, 3)))
    a = QuatMatrix(np.zeros((2, 3, 4)))
    b = QuatMatrix(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionMismatch):
        a @ b


def test_json_roundtrip():
    rng = np.random.default_rng(6)
    x = QuatMatrix(rng.standard_normal((3, 3, 4)))
    back = QuatMatrix.from_json(x.to_json())
    assert np.array_equal(back.data, x.data)


def test_json_errors():
    with pytest.raises(ParseError):
        QuatMatrix.from_json({"n": 2, "entries": [[1, 0, 0, 0]]})
    with pytest.raises(ParseError):
        QuatMatrix.from_json({"entries": []})
    for entries in ([[None, 0, 0, 0]], 5, [["x", 0, 0, 0]], [[1, 0, 0]], [[1, 0, 0, 0, 0]],
                    [[[1], [0], [0], [0]]], [[float("nan"), 0, 0, 0]], [[10 ** 400, 0, 0, 0]]):
        with pytest.raises(ParseError):
            QuatMatrix.from_json({"n": 1, "entries": entries})
