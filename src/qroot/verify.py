"""Independent verification oracles and seeded instance generation.

verify_root never looks at how a candidate root was produced: it powers the
candidate by binary powering and measures the defining residuals.  It is
the one acceptance rule for a root; mth_root's self-check calls it too.  The
generator draws canonical specs (optionally forced to admit or refuse an
m-th root), materializes them, and scrambles with a well-conditioned
similarity drawn inside Omega by embedding a random quaternion matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import (DEFAULT_TOL, CanonicalBlock, CanonicalSpec, SegreSequence,
                        _check_tol, materialize_pair)
from .errors import (DimensionMismatch, OracleDisagreement, ProfileInvalid,
                     QRootError)
from .omega import omega_embed, omega_extract
from .quaternion import QuatMatrix
from .roots import _check_m, _is_integer, _tuple_epsilons, root_exists

CLASSES = ("positive", "nonreal", "negative", "zero")


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


def power_segre_oracle(k: int, m: int) -> SegreSequence:
    """Segre of (J_k(0))^m computed by the closed form and by rank staircase.

    The two routes must agree (k = a*m + r with 0 < r <= m gives r blocks of
    size a+1 and m-r of size a); disagreement signals an implementation bug.
    """
    if k < 1 or m < 1:
        raise DimensionMismatch("k and m must be positive")
    a = (k - 1) // m
    r = k - a * m
    closed = tuple(sorted([a + 1] * r + ([a] * (m - r) if a > 0 else []),
                          reverse=True))

    shift = np.eye(k, k, 1)
    power = np.linalg.matrix_power(shift, m) if m < k else np.zeros((k, k))
    dims = [0]
    acc = np.eye(k)
    for _ in range(k):
        acc = acc @ power
        d = k - np.linalg.matrix_rank(acc)
        if d == dims[-1]:
            break
        dims.append(int(d))
        if d == k:
            break
    counts = [dims[p] - dims[p - 1] for p in range(1, len(dims))]
    parts: list[int] = []
    for p, c in enumerate(counts, start=1):
        nxt = counts[p] if p < len(counts) else 0
        parts.extend([p] * (c - nxt))
    staircase = tuple(sorted(parts, reverse=True))

    if staircase != closed:
        raise OracleDisagreement(
            f"power Segre mismatch for k={k}, m={m}: closed {closed}, staircase {staircase}")
    return SegreSequence(0.0, closed)


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def _normalize_profile(profile: dict) -> dict:
    prof = {"classes": list(CLASSES), "max_size": 8, "m": 2, "force": "any"}
    if not isinstance(profile, dict):
        raise ProfileInvalid(f"a profile is a JSON object, got {type(profile).__name__}")
    unknown = [key for key in profile if key not in prof]
    if unknown:
        raise ProfileInvalid(f"unknown profile keys {unknown}; a profile has {list(prof)}")
    prof.update(profile)
    if not prof["classes"] or any(c not in CLASSES for c in prof["classes"]):
        raise ProfileInvalid(f"classes must be a nonempty subset of {CLASSES}")
    if not _is_integer(prof["max_size"]) or not 1 <= prof["max_size"] <= 16:
        raise ProfileInvalid("max_size must be an integer between 1 and 16 per copy")
    if not _is_integer(prof["m"]) or prof["m"] < 1:
        raise ProfileInvalid("m must be a positive integer")
    if prof["force"] not in ("admit", "refuse", "any"):
        raise ProfileInvalid("force must be admit, refuse or any")
    prof["classes"] = [c for c in CLASSES if c in prof["classes"]]
    prof["max_size"] = int(prof["max_size"])
    prof["m"] = int(prof["m"])
    return prof


def _draw_eigenvalues(rng, kind: str, count: int) -> list[complex]:
    if kind == "positive":
        base = [0.7, 1.4, 2.2, 3.1]
    elif kind == "negative":
        base = [-0.7, -1.4, -2.2, -3.1]
    else:  # nonreal: grid keeps pairwise separation and distance to the axes
        base = [complex(re, im) for re in (-1.6, -0.5, 0.6, 1.7)
                for im in (0.7, 1.5, 2.3)]
    idx = rng.permutation(len(base))[:count]
    out = []
    for i in idx:
        lam = complex(base[i])
        jitter = 0.1 * (rng.random() - 0.5)
        out.append(complex(lam.real + jitter, lam.imag + (0.1 * (rng.random() - 0.5)
                                                          if lam.imag else 0.0)))
    return out


def _admit_blocks(rng, classes, budget: int, m: int) -> list[CanonicalBlock]:
    blocks: list[CanonicalBlock] = []
    order = list(classes)
    for cls in order:
        if budget <= 0:
            break
        if cls == "positive":
            k = int(rng.integers(1, min(3, budget) + 1))
            lam = _draw_eigenvalues(rng, "positive", 1)[0].real
            blocks.append(CanonicalBlock(lam, k, int(rng.choice([-1, 1]))))
            budget -= k
        elif cls == "negative":
            if m % 2 == 0:
                k = int(rng.integers(1, min(2, max(1, budget // 2)) + 1))
                if 2 * k > budget:
                    continue
                lam = _draw_eigenvalues(rng, "negative", 1)[0].real
                blocks.append(CanonicalBlock(lam, k, 1))
                blocks.append(CanonicalBlock(lam, k, -1))
                budget -= 2 * k
            else:
                k = int(rng.integers(1, min(3, budget) + 1))
                lam = _draw_eigenvalues(rng, "negative", 1)[0].real
                blocks.append(CanonicalBlock(lam, k, int(rng.choice([-1, 1]))))
                budget -= k
        elif cls == "nonreal":
            k = int(rng.integers(1, min(2, max(1, budget // 2)) + 1))
            if 2 * k > budget:
                continue
            lam = _draw_eigenvalues(rng, "nonreal", 1)[0]
            blocks.append(CanonicalBlock(lam, k, None))
            budget -= 2 * k
        else:  # zero: one admissible m-tuple
            a_max = max(0, (budget - 1) // m)
            a = int(rng.integers(0, min(a_max, 2) + 1))
            r_cap = min(m, budget - a * m)
            if r_cap < 1:
                continue
            r = int(rng.integers(1, r_cap + 1))
            eta = int(rng.choice([-1, 1]))
            for size, sign in zip([a + 1] * r + [a] * (m - r),
                                  _tuple_epsilons(a, r, m, eta)):
                if size > 0:
                    blocks.append(CanonicalBlock(0.0, size, sign))
            budget -= a * m + r
    return blocks


def _refuse_blocks(rng, classes, budget: int, m: int) -> list[CanonicalBlock]:
    modes = []
    if "negative" in classes and m % 2 == 0 and budget >= 2:
        modes.append("negpair")
    if "zero" in classes and m >= 2:
        if budget >= 3 or (m == 2 and budget >= 3):
            modes.append("zerosign")
        if budget >= m:
            modes.append("zerosegre")
    if not modes:
        raise ProfileInvalid(
            f"no refusal instance exists for classes={classes}, m={m}, max_size={budget}")
    mode = modes[int(rng.integers(0, len(modes)))]
    if mode == "negpair":
        lam = _draw_eigenvalues(rng, "negative", 1)[0].real
        return [CanonicalBlock(lam, 1, 1), CanonicalBlock(lam, 1, 1)]
    if mode == "zerosign":
        if m % 2 == 0:
            # the (2,1)-tuple forces equal signs; hand it opposite ones
            return [CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 1, -1)]
        # m odd: unique partition (2, 1^(m-1)); the even group of ones must
        # split half and half, so all-plus ones are infeasible
        return ([CanonicalBlock(0.0, 2, 1)]
                + [CanonicalBlock(0.0, 1, 1) for _ in range(m - 1)])
    # zerosegre: a lone 2 with m-2 ones admits no m-tuple grouping
    return ([CanonicalBlock(0.0, 2, 1)]
            + [CanonicalBlock(0.0, 1, 1) for _ in range(m - 2)])


def omega_similarity(rng, n: int, cond_cap: float = 100.0) -> np.ndarray:
    """Random invertible member of Omega_2n with condition number <= cond_cap."""
    for _ in range(200):
        t = omega_embed(QuatMatrix(rng.standard_normal((n, n, 4)))).array
        if np.linalg.cond(t) <= cond_cap:
            return t
    raise QRootError("failed to draw a well-conditioned scrambler")


def random_instance(seed: int, profile: dict | None = None):
    """Seeded (B, H, spec) instance; reproducible bytes for equal seeds."""
    prof = _normalize_profile({} if profile is None else profile)
    rng = np.random.default_rng(seed)
    m = prof["m"]
    force = prof["force"]
    if force == "any":
        force = "admit" if rng.random() < 0.7 else "refuse"
        try:
            return _generate(rng, prof, m, force)
        except ProfileInvalid:
            return _generate(rng, prof, m, "admit")
    return _generate(rng, prof, m, force)


def _generate(rng, prof, m, force):
    if force == "admit":
        blocks = _admit_blocks(rng, prof["classes"], prof["max_size"], m)
        if not blocks:
            blocks = [CanonicalBlock(1.0, 1, 1)]
    else:
        blocks = _refuse_blocks(rng, prof["classes"], prof["max_size"], m)
    spec = CanonicalSpec(tuple(blocks)).sorted()
    decision = root_exists(spec, m)
    if decision.exists != (force == "admit"):
        raise OracleDisagreement(
            f"generator drew a spec whose gate decision contradicts force={force}")
    bm, hm = materialize_pair(spec)
    t = omega_similarity(rng, bm.half_n)
    b = np.linalg.solve(t, bm.array @ t)
    h = t.conj().T @ hm.array @ t
    h = 0.5 * (h + h.conj().T)
    loose = 1e-8 * max(1.0, float(np.max(np.abs(b))))
    return omega_extract(b, tol=loose), omega_extract(h, tol=loose), spec
