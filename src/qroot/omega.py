"""The omega embedding of quaternion matrices into 2n x 2n complex matrices.

omega(A) = [[A1, conj(A2)], [-A2, conj(A1)]] for A = A1 + j*A2.  Its image
Omega_2n is exactly the set of M with M K = K conj(M), where
K = [[0, I], [-I, 0]]; the antilinear map chi(v) = K conj(v) plays the role
of right multiplication by j and drives every structure-preserving step in
the canonicalization.
"""

from __future__ import annotations

import numpy as np

from .errors import (DimensionMismatch, NotHermitian, NotInOmega,
                     OddDimension, ParseError, Singular)
from .jsonio import integer, numbers_only
from .quaternion import QuatMatrix

MEMBERSHIP_FACTOR = 1e-10  # default tau_Omega = factor * max(1, inf-norm)
COND_LIMIT = 1e12  # an H with a larger condition estimate counts as singular


class OmegaMatrix:
    """2n x 2n complex matrix constrained to the quaternionic subalgebra."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray, check: bool = True):
        array = np.asarray(array, dtype=complex)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise DimensionMismatch("OmegaMatrix expects a square array")
        if array.shape[0] % 2:
            raise OddDimension("OmegaMatrix dimension must be even")
        if check:
            res = omega_membership(array)
            tol = membership_tolerance(array)
            if res > tol:
                raise NotInOmega(f"membership residual {res:.3e} exceeds {tol:.3e}")
        self.array = array

    @property
    def half_n(self) -> int:
        return self.array.shape[0] // 2

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def to_json(self) -> dict:
        return complex_to_json(self.array)

    def __repr__(self) -> str:
        return f"OmegaMatrix(2n={self.dim})"


def complex_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.ravel(), "im": m.imag.ravel()}


def complex_from_json(obj: dict) -> np.ndarray:
    try:
        dim = integer(obj["dim"], "complex matrix dim")
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad complex matrix JSON: {exc}") from exc
    if dim < 1:
        raise ParseError("complex matrix JSON needs dim >= 1")
    if re.shape != (dim * dim,) or im.shape != (dim * dim,):
        raise ParseError("complex matrix JSON needs flat re and im lists of dim*dim values")
    numbers_only(obj["re"], "complex matrix re")
    numbers_only(obj["im"], "complex matrix im")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):  # null reads as nan
        raise ParseError("complex matrix JSON needs finite numbers")
    return (re + 1j * im).reshape(dim, dim)


def membership_tolerance(m: np.ndarray) -> float:
    m = np.asarray(m)
    scale = np.max(np.abs(m)) if m.size else 0.0
    return MEMBERSHIP_FACTOR * max(1.0, float(scale))


def omega_embed(a: QuatMatrix) -> OmegaMatrix:
    """Map A = A1 + j*A2 to [[A1, conj(A2)], [-A2, conj(A1)]]."""
    if a.n_rows != a.n_cols:
        raise DimensionMismatch("omega_embed expects a square matrix")
    return OmegaMatrix(_embed_pair(a.a1, a.a2), check=False)


def _embed_pair(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    top = np.hstack([a1, np.conj(a2)])
    bot = np.hstack([-a2, np.conj(a1)])
    return np.vstack([top, bot])


def omega_project(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(A1, A2, residual): the nearest member of Omega_2n and m's max entrywise distance to it.

    Each of A1 and A2 averages the two blocks of m that determine it.
    """
    n = m.shape[0] // 2
    b11, b12, b21, b22 = m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:]
    a1 = 0.5 * (b11 + np.conj(b22))
    a2 = 0.5 * (np.conj(b12) - b21)
    res = float(np.max(np.abs(m - _embed_pair(a1, a2)))) if m.size else 0.0
    return a1, a2, res


def omega_membership(m: np.ndarray) -> float:
    """Max entrywise deviation from the nearest matrix in Omega_2n."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch("omega_membership expects a square matrix")
    if m.shape[0] % 2:
        raise OddDimension("omega_membership needs even dimension")
    return omega_project(m)[2]


def omega_extract(m, tol: float | None = None) -> QuatMatrix:
    """Inverse of omega_embed; symmetrizes roundoff inside the tolerance."""
    arr = m.array if isinstance(m, OmegaMatrix) else np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch("omega_extract expects a square matrix")
    if arr.shape[0] % 2:
        raise OddDimension("omega_extract needs even dimension")
    if tol is None:
        tol = membership_tolerance(arr)
    a1, a2, res = omega_project(arr)
    if res > tol:
        raise NotInOmega(f"membership residual {res:.3e} exceeds {tol:.3e}")
    return QuatMatrix.from_complex_pair(a1, a2)


def selfadjoint_residual(h, a) -> float:
    """||HA - A*H||_F / max(1, ||H||_F * ||A||_F) for Hermitian invertible H."""
    h = h.array if isinstance(h, OmegaMatrix) else np.asarray(h, dtype=complex)
    a = a.array if isinstance(a, OmegaMatrix) else np.asarray(a, dtype=complex)
    if h.shape != a.shape or h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionMismatch("H and A must be square with equal shape")
    hn = np.linalg.norm(h)
    if np.linalg.norm(h - h.conj().T) > 1e-10 * max(1.0, hn):
        raise NotHermitian("H is not Hermitian at working tolerance")
    sv = np.abs(np.linalg.eigvalsh(h))  # H's singular values, as H is Hermitian
    if sv.min() * COND_LIMIT <= max(1.0, sv.max()):
        raise Singular("H condition estimate beyond threshold")
    num = np.linalg.norm(h @ a - a.conj().T @ h)
    return float(num / max(1.0, hn * np.linalg.norm(a)))


# -- quaternionic structure helpers (used by the canonicalization) -----------

def chi(v: np.ndarray) -> np.ndarray:
    """Antilinear partner map chi(v) = K conj(v), a block swap; chi(chi(v)) = -v."""
    n = v.shape[0] // 2
    return np.concatenate([np.conj(v[n:]), -np.conj(v[:n])])

