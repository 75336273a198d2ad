"""Seeded instance generation.

The generator draws canonical specs (optionally forced to admit or refuse an
m-th root), materializes them, and scrambles with verify.omega_similarity.
"""

from __future__ import annotations

import numpy as np

from .canonical import CanonicalBlock, CanonicalSpec, materialize_pair
from .errors import OracleDisagreement, ProfileInvalid, SpecInvalid
from .omega import _check_m, _is_integer, omega_extract
from .roots import _group_plus_demand, root_exists
from .verify import omega_similarity

CLASSES = ("positive", "nonreal", "negative", "zero")


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
    try:
        _check_m(prof["m"])
    except SpecInvalid as exc:
        raise ProfileInvalid(str(exc)) from None
    if prof["force"] not in ("admit", "refuse", "any"):
        raise ProfileInvalid("force must be admit, refuse or any")
    prof["classes"] = [c for c in CLASSES if c in prof["classes"]]
    prof["max_size"] = int(prof["max_size"])
    prof["m"] = int(prof["m"])
    return prof


def _draw_eigenvalue(rng, kind: str) -> complex:
    if kind == "positive":
        base = [0.7, 1.4, 2.2, 3.1]
    elif kind == "negative":
        base = [-0.7, -1.4, -2.2, -3.1]
    else:  # nonreal: grid keeps pairwise separation and distance to the axes
        base = [complex(re, im) for re in (-1.6, -0.5, 0.6, 1.7)
                for im in (0.7, 1.5, 2.3)]
    lam = complex(base[rng.permutation(len(base))[0]])
    jitter = 0.1 * (rng.random() - 0.5)
    return complex(lam.real + jitter, lam.imag + (0.1 * (rng.random() - 0.5)
                                                  if lam.imag else 0.0))


def _admit_blocks(rng, classes, budget: int, m: int) -> list[CanonicalBlock]:
    blocks: list[CanonicalBlock] = []
    for cls in classes:
        if budget <= 0:
            break
        if cls == "positive" or cls == "negative" and m % 2:
            k = int(rng.integers(1, min(3, budget) + 1))
            lam = _draw_eigenvalue(rng, cls).real
            blocks.append(CanonicalBlock(lam, k, int(rng.choice([-1, 1]))))
            budget -= k
        elif cls in ("nonreal", "negative"):  # a conjugate pair, or a +- pair for m even
            k = int(rng.integers(1, min(2, max(1, budget // 2)) + 1))
            if 2 * k > budget:
                continue
            lam = _draw_eigenvalue(rng, cls)
            blocks += ([CanonicalBlock(lam, k, None)] if cls == "nonreal"
                       else [CanonicalBlock(lam.real, k, 1), CanonicalBlock(lam.real, k, -1)])
            budget -= 2 * k
        else:  # zero: one admissible m-tuple
            a_max = max(0, (budget - 1) // m)
            a = int(rng.integers(0, min(a_max, 2) + 1))
            r_cap = min(m, budget - a * m)
            if r_cap < 1:
                continue
            r = int(rng.integers(1, r_cap + 1))
            eta = int(rng.choice([-1, 1]))
            for size, count in ((a + 1, r), (a, m - r)):
                if size:  # with a = 0 the tuple is r blocks of size 1
                    plus = _group_plus_demand(count, eta)
                    blocks += ([CanonicalBlock(0.0, size, 1)] * plus
                               + [CanonicalBlock(0.0, size, -1)] * (count - plus))
            budget -= a * m + r
    return blocks


def _refuse_blocks(rng, classes, budget: int, m: int) -> list[CanonicalBlock]:
    modes = []
    if "negative" in classes and m % 2 == 0 and budget >= 2:
        modes.append("negpair")
    if "zero" in classes and m >= 2 and budget >= 2:
        # J_2(0) next to one J_1(0) for m even, to m - 1 of them for m odd
        if budget >= (3 if m % 2 == 0 else m + 1):
            modes.append("zerosign")
        modes.append("zerosegre")
    if not modes:
        raise ProfileInvalid(
            f"no refusal instance exists for classes={classes}, m={m}, max_size={budget}")
    mode = modes[int(rng.integers(0, len(modes)))]
    if mode == "negpair":
        lam = _draw_eigenvalue(rng, "negative").real
        return [CanonicalBlock(lam, 1, 1), CanonicalBlock(lam, 1, 1)]
    if mode == "zerosign":
        if m % 2 == 0:
            # the (2,1)-tuple forces equal signs; hand it opposite ones
            return [CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 1, -1)]
        # m odd: unique partition (2, 1^(m-1)); the even group of ones must
        # split half and half, so all-plus ones are infeasible
        return ([CanonicalBlock(0.0, 2, 1)]
                + [CanonicalBlock(0.0, 1, 1) for _ in range(m - 1)])
    # zerosegre: a lone 2 needs m - 1 ones beside it, so with at most m - 2
    # ones it admits no m-tuple grouping
    return ([CanonicalBlock(0.0, 2, 1)]
            + [CanonicalBlock(0.0, 1, 1) for _ in range(min(m - 2, budget - 2))])


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
        if not blocks:  # a nonreal block or a +- pair needs 2 of max_size
            raise ProfileInvalid(
                f"no block of classes={prof['classes']} fits max_size={prof['max_size']} at m={m}")
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
