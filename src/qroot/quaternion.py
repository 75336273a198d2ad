"""Dense quaternion matrices.

A quaternion w + x*i + y*j + z*k is stored as four floats, and a matrix as
an (n_rows, n_cols, 4) float64 array.  For the algebra we use the
splitting q = z1 + j*z2 with complex z1 = w + x*i and z2 = y - z*i; matrix
products are evaluated through the complex pair (A1, A2) of that splitting,
which is exactly the arithmetic of the 2n x 2n complex representation.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, ParseError
from .jsonio import integer, numbers_only


class QuatMatrix:
    """Dense quaternion matrix backed by an (n_rows, n_cols, 4) real array."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=float)
        if data.ndim != 3 or data.shape[2] != 4:
            raise DimensionMismatch("expected array of shape (rows, cols, 4)")
        self.data = data

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zeros(n_rows: int, n_cols: int | None = None) -> "QuatMatrix":
        if n_cols is None:
            n_cols = n_rows
        return QuatMatrix(np.zeros((n_rows, n_cols, 4)))

    @staticmethod
    def eye(n: int) -> "QuatMatrix":
        out = np.zeros((n, n, 4))
        out[np.arange(n), np.arange(n), 0] = 1.0
        return QuatMatrix(out)

    @staticmethod
    def from_complex_pair(a1: np.ndarray, a2: np.ndarray) -> "QuatMatrix":
        """Build from the splitting A = A1 + j*A2 (A1, A2 complex)."""
        a1 = np.asarray(a1, dtype=complex)
        a2 = np.asarray(a2, dtype=complex)
        if a1.shape != a2.shape or a1.ndim != 2:
            raise DimensionMismatch("A1 and A2 must be equal-shape 2-d arrays")
        out = np.empty(a1.shape + (4,))
        out[..., 0] = a1.real
        out[..., 1] = a1.imag
        out[..., 2] = a2.real
        out[..., 3] = -a2.imag
        return QuatMatrix(out)

    # -- basic structure ----------------------------------------------------

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    @property
    def n_cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[:2]

    @property
    def a1(self) -> np.ndarray:
        return self.data[..., 0] + 1j * self.data[..., 1]

    @property
    def a2(self) -> np.ndarray:
        return self.data[..., 2] - 1j * self.data[..., 3]

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "QuatMatrix") -> "QuatMatrix":
        self._check_same_shape(other)
        return QuatMatrix(self.data + other.data)

    def __sub__(self, other: "QuatMatrix") -> "QuatMatrix":
        self._check_same_shape(other)
        return QuatMatrix(self.data - other.data)

    def __neg__(self) -> "QuatMatrix":
        return QuatMatrix(-self.data)

    def scale(self, s: float) -> "QuatMatrix":
        """Multiply by a real scalar (the representation is a real algebra)."""
        return QuatMatrix(float(s) * self.data)

    def __matmul__(self, other: "QuatMatrix") -> "QuatMatrix":
        if self.n_cols != other.n_rows:
            raise DimensionMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        x1, x2 = self.a1, self.a2
        y1, y2 = other.a1, other.a2
        # (X1 + jX2)(Y1 + jY2) = (X1Y1 - conj(X2)Y2) + j(conj(X1)Y2 + X2Y1)
        z1 = x1 @ y1 - np.conj(x2) @ y2
        z2 = np.conj(x1) @ y2 + x2 @ y1
        return QuatMatrix.from_complex_pair(z1, z2)

    def adjoint(self) -> "QuatMatrix":
        """Conjugate each entry, then transpose."""
        return QuatMatrix.from_complex_pair(np.conj(self.a1).T, -self.a2.T)

    def conjugate(self) -> "QuatMatrix":
        out = self.data.copy()
        out[..., 1:] *= -1.0
        return QuatMatrix(out)

    def power(self, m: int) -> "QuatMatrix":
        """m-th power by binary powering (m >= 0, square matrix).

        The result starts at the lowest set bit of m and the squaring stops
        at the highest, so A^m takes floor(log2 m) + popcount(m) - 1 products.
        """
        if self.n_rows != self.n_cols:
            raise DimensionMismatch("power requires a square matrix")
        if m < 0:
            raise ValueError("power expects m >= 0")
        if m == 0:
            return QuatMatrix.eye(self.n_rows)
        base = self
        while not m & 1:
            base = base @ base
            m >>= 1
        result = base
        m >>= 1
        while m:
            base = base @ base
            if m & 1:
                result = result @ base
            m >>= 1
        return result

    def inverse(self) -> "QuatMatrix":
        """Inverse through the complex representation."""
        from .omega import omega_embed, omega_extract
        inv = np.linalg.inv(omega_embed(self).array)
        return omega_extract(inv)

    # -- predicates and norms ----------------------------------------------

    def norm(self) -> float:
        """Frobenius norm: sqrt of the sum of squared quaternion moduli."""
        return float(np.linalg.norm(self.data))

    def allclose(self, other: "QuatMatrix", atol: float = 1e-12) -> bool:
        return self.shape == other.shape and bool(
            np.allclose(self.data, other.data, rtol=0.0, atol=atol))

    def _check_same_shape(self, other: "QuatMatrix") -> None:
        if self.shape != other.shape:
            raise DimensionMismatch(f"shape {self.shape} != {other.shape}")

    def __repr__(self) -> str:
        return f"QuatMatrix({self.n_rows}x{self.n_cols})"

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> dict:
        """{"n": n, "entries": read-only row-major (n*n, 4) view of data}, square only."""
        if self.n_rows != self.n_cols:
            raise DimensionMismatch("JSON format covers square matrices")
        entries = self.data.reshape(-1, 4)
        entries.flags.writeable = False
        return {"n": self.n_rows, "entries": entries}

    @staticmethod
    def from_json(obj: dict) -> "QuatMatrix":
        try:
            n = integer(obj["n"], "quaternion matrix n")
            entries = obj["entries"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad quaternion matrix JSON: {exc}") from exc
        if n <= 0:
            raise ParseError("quaternion matrix JSON needs n >= 1")
        try:
            data = np.asarray(entries, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"quaternion matrix entries must be numbers: {exc}") from exc
        if data.shape != (n * n, 4):
            raise ParseError("quaternion matrix JSON needs n*n entries [w, x, y, z]")
        numbers_only(entries, "quaternion matrix entries", rows=True)
        if not np.isfinite(data).all():  # null reads as nan
            raise ParseError("quaternion matrix entries must be finite numbers")
        return QuatMatrix(data.reshape(n, n, 4))
