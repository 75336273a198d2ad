"""Independent verification of a root.

verify_root never looks at how a candidate root was produced: it powers the
candidate by binary powering and measures the defining residuals.  It is
the one acceptance rule for a root; mth_root's self-check calls it too.
omega_similarity draws a well-conditioned member of Omega by embedding a
random quaternion matrix, the scrambler of every generated instance.  This
module imports no solver code, only the omega embedding and quaternion
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, QRootError
from .omega import DEFAULT_TOL, _check_m, _check_tol, omega_embed
from .quaternion import QuatMatrix


@dataclass(frozen=True)
class VerificationReport:
    residual_power: float
    residual_selfadjoint: float
    passed: bool
    tol: float

    def to_json(self) -> dict:
        return {"passed": self.passed,
                "residual_power": self.residual_power,
                "residual_selfadjoint": self.residual_selfadjoint,
                "tol": self.tol}


def verify_root(a: QuatMatrix, b: QuatMatrix, h: QuatMatrix, m: int,
                tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check A^m = B and H-selfadjointness of A, independent of construction.

    A passes when both relative residuals, ||A^m - B|| / max(1, ||B||) and
    ||HA - A*H|| / max(1, ||H|| ||A||), are at most tol.
    """
    if not (a.shape == b.shape == h.shape) or a.n_rows != a.n_cols:
        raise DimensionMismatch("A, B, H must be square with equal shape")
    _check_m(m)
    _check_tol(tol)
    power = a.power(m)
    res_power = (power - b).norm() / max(1.0, b.norm())
    res_self = (h @ a - a.adjoint() @ h).norm() / max(1.0, h.norm() * a.norm())
    passed = res_power <= tol and res_self <= tol  # a NaN fails
    return VerificationReport(float(res_power), float(res_self), bool(passed), tol)


def omega_similarity(rng, n: int, cond_cap: float = 100.0) -> np.ndarray:
    """Random invertible member of Omega_2n with condition number <= cond_cap."""
    for _ in range(200):
        t = omega_embed(QuatMatrix(rng.standard_normal((n, n, 4)))).array
        if np.linalg.cond(t) <= cond_cap:
            return t
    raise QRootError("failed to draw a well-conditioned scrambler")
