"""The omega embedding of quaternion matrices into 2n x 2n complex matrices.

omega(A) = [[A1, conj(A2)], [-A2, conj(A1)]] for A = A1 + j*A2.  Its image
Omega_2n is exactly the set of M with M K = K conj(M), where
K = [[0, I], [-I, 0]]; the antilinear map chi(v) = K conj(v) plays the role
of right multiplication by j and drives every structure-preserving step in
the canonicalization.  Every layer reads its rules for m and tol from here.
"""

from __future__ import annotations

import numpy as np

from .errors import (DimensionMismatch, NearSingularH, NotHermitian, NotInOmega,
                     OddDimension, ParseError, SpecInvalid)
from .jsonio import float_array, integer
from .quaternion import QuatMatrix, frobenius_norm

MEMBERSHIP_FACTOR = 1e-10  # default tau_Omega = factor * max(1, max |m_ij|)
COND_LIMIT = 1e12  # an H with a larger condition estimate counts as singular
# the one settable tolerance: relative HB - B*H of the input, the
# canonicalization residuals and a root's residuals in verify_root
DEFAULT_TOL = 1e-8


def _check_tol(tol: float) -> None:
    if not 0 < tol < np.inf:  # NaN fails too
        raise SpecInvalid(f"tolerance must be a positive finite number, got {tol!r}")


def _is_integer(value) -> bool:
    """An int or numpy integer that is not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_m(m) -> None:
    """m must be an integer (int or numpy integer, not bool) of at least 1."""
    if not _is_integer(m) or m < 1:
        raise SpecInvalid(f"m must be an integer >= 1, got {m!r}")


class OmegaMatrix:
    """2n x 2n complex matrix constrained to the quaternionic subalgebra."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray, check: bool = True):
        array = _omega_array(array, "OmegaMatrix")
        if check:
            _omega_member(array)
        self.array = array

    @property
    def half_n(self) -> int:
        return self.array.shape[0] // 2

    def to_json(self) -> dict:
        return complex_to_json(self.array)

    def __repr__(self) -> str:
        return f"OmegaMatrix(2n={self.array.shape[0]})"


def complex_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {"dim": m.shape[0], "re": m.real.ravel(), "im": m.imag.ravel()}


def complex_from_json(obj: dict) -> np.ndarray:
    try:
        dim = integer(obj["dim"], "complex matrix dim")
        re, im = obj["re"], obj["im"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad complex matrix JSON: {exc}") from exc
    if dim < 1:
        raise ParseError("complex matrix JSON needs dim >= 1")
    shape = (dim * dim,)
    return (float_array(re, shape, "complex matrix re")
            + 1j * float_array(im, shape, "complex matrix im")).reshape(dim, dim)


def omega_embed(a: QuatMatrix) -> OmegaMatrix:
    """Map A = A1 + j*A2 to [[A1, conj(A2)], [-A2, conj(A1)]]."""
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


def _omega_array(m, caller: str) -> np.ndarray:
    """An Omega argument's complex array, checked square and of even order for caller."""
    arr = m.array if isinstance(m, OmegaMatrix) else np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{caller} expects a square matrix")
    if arr.shape[0] % 2:
        raise OddDimension(f"{caller} needs even dimension")
    return arr


def _omega_member(arr: np.ndarray, tol: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(A1, A2) of arr's nearest member of Omega_2n; NotInOmega when arr lies further than tol."""
    with np.errstate(invalid="ignore"):  # a non-finite entry's NaN residual is refused below
        a1, a2, res = omega_project(arr)
    if tol is None:
        tol = MEMBERSHIP_FACTOR * max(1.0, float(np.max(np.abs(arr))) if arr.size else 0.0)
    if not res <= tol:  # a NaN residual fails too
        raise NotInOmega(f"membership residual {res:.3e} exceeds {tol:.3e}")
    return a1, a2


def omega_extract(m, tol: float | None = None) -> QuatMatrix:
    """Inverse of omega_embed; symmetrizes roundoff inside the tolerance."""
    return QuatMatrix.from_complex_pair(*_omega_member(_omega_array(m, "omega_extract"), tol))


def selfadjoint_residual(h, b) -> float:
    """||HB - B*H||_F / max(1, ||H||_F * ||B||_F) for Hermitian invertible H.

    FloatingPointError when that cannot be measured: a norm or the residual overflows.
    """
    h, b = _omega_array(h, "selfadjoint_residual"), _omega_array(b, "selfadjoint_residual")
    if h.shape != b.shape:
        raise DimensionMismatch("H and B must be square with equal shape")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below, not warned
        hn = frobenius_norm(h)
        if frobenius_norm(h - h.conj().T) > 1e-10 * max(1.0, hn):
            raise NotHermitian("H is not Hermitian at working tolerance")
        sv = np.abs(np.linalg.eigvalsh(h))  # H's singular values, as H is Hermitian
        if sv.min() * COND_LIMIT <= max(1.0, sv.max()):
            raise NearSingularH("H condition estimate beyond threshold")
        scale = hn * frobenius_norm(b)
        num = frobenius_norm(h @ b - b.conj().T @ h)
    if not (np.isfinite(scale) and np.isfinite(num)):
        raise FloatingPointError(f"||H|| ||B|| {scale:.3e}, ||HB - B*H|| {num:.3e}: not measurable")
    return float(num / max(1.0, scale))


# -- quaternionic structure helpers (used by the canonicalization) -----------

def chi(v: np.ndarray) -> np.ndarray:
    """Antilinear partner map chi(v) = K conj(v), a block swap; chi(chi(v)) = -v."""
    n = v.shape[0] // 2
    return np.concatenate([np.conj(v[n:]), -np.conj(v[:n])])

