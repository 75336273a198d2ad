"""Existence gate and constructive m-th root builders.

The decision follows the canonical-form conditions: positive, nonreal, and
(for odd m) negative spectra are unconditional; negative eigenvalues with m
even must pair identical blocks with opposite signs; zero eigenvalues must
admit a grouping of the per-copy Segre parts into m-tuples of sizes a+1/a
whose signs obey the half-and-half rule.  Builders write one root per class
in closed form on one copy of the canonical pair; assemble_root places them
on that copy and doubles it into a single member of Omega_2n.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .canonical import (CanonicalBlock, CanonicalSpec, Tolerances, DEFAULT_TOL,
                        block_diag, canonicalize_pair, jordan_block)
from .errors import (ClassMismatch, DimensionMismatch, NearSingularH,
                     NotPartitionable, NotSelfadjoint, RankAmbiguous,
                     SignPatternViolation, Singular, SpecInvalid)
from .omega import (OmegaMatrix, membership_tolerance, omega_embed, omega_extract,
                    omega_membership, selfadjoint_residual)
from .quaternion import QuatMatrix

ZERO_CLASS_FACTOR = 1e-8  # |lambda| below this (relative) counts as zero


# ---------------------------------------------------------------------------
# decision types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MTuple:
    """One m-tuple of the zero-eigenvalue grouping.

    Represents r blocks of size a+1 and m-r blocks of size a (size-0 blocks
    absent); epsilons lists the m signs, eta-majority first in each group.
    """

    a: int
    r: int
    eta: int
    epsilons: tuple[int, ...]
    m: int

    def __post_init__(self):
        if not (0 < self.r <= self.m) or self.a < 0:
            raise SpecInvalid("m-tuple needs 0 < r <= m and a >= 0")
        if len(self.epsilons) != self.m:
            raise SpecInvalid("m-tuple carries m signs")

    @property
    def total(self) -> int:
        return self.a * self.m + self.r

    def sizes_and_signs(self) -> list[tuple[int, int]]:
        out = [(self.a + 1, e) for e in self.epsilons[:self.r]]
        if self.a > 0:
            out += [(self.a, e) for e in self.epsilons[self.r:]]
        return out


@dataclass(frozen=True)
class Certificate:
    kind: str
    lam: complex
    detail: str

    def to_json(self) -> dict:
        return {"kind": self.kind,
                "lambda": [self.lam.real, self.lam.imag],
                "detail": self.detail}


@dataclass(frozen=True)
class RootDecision:
    exists: bool
    certificate: Certificate | None = None

    def __post_init__(self):
        if self.exists == (self.certificate is not None):
            raise SpecInvalid("certificate present iff exists is false")

    def to_json(self) -> dict:
        return {"exists": self.exists,
                "certificate": self.certificate.to_json() if self.certificate else None}


@dataclass(frozen=True)
class RootResult:
    root: QuatMatrix
    similarity: OmegaMatrix
    residual_power: float
    residual_selfadjoint: float
    omega_residual: float
    cond_similarity: float

    def to_json(self) -> dict:
        return {"exists": True,
                "root": self.root.to_json(),
                "similarity": self.similarity.to_json(),
                "residual_power": self.residual_power,
                "residual_selfadjoint": self.residual_selfadjoint,
                "omega_residual": self.omega_residual,
                "cond_similarity": self.cond_similarity}


# ---------------------------------------------------------------------------
# the zero-eigenvalue combinatorics
# ---------------------------------------------------------------------------

def _iter_partitions(sizes: tuple[int, ...], m: int):
    """All groupings of the size multiset into m-tuples {a+1 (x r), a (x m-r)}.

    Deterministic order: largest remaining size first, larger r first, so the
    first emitted partition is the greedy largest-first grouping.
    """
    if not sizes:
        yield []
        return
    counts: dict[int, int] = {}
    for s in sizes:
        counts[s] = counts.get(s, 0) + 1

    def rec(counts):
        live = {s: c for s, c in counts.items() if c > 0}
        if not live:
            yield []
            return
        s = max(live)
        for r in range(min(m, live[s]), 0, -1):
            small_needed = m - r
            if small_needed and s - 1 >= 1 and live.get(s - 1, 0) < small_needed:
                continue
            nxt = dict(live)
            nxt[s] -= r
            if small_needed and s - 1 >= 1:
                nxt[s - 1] -= small_needed
            for rest in rec(nxt):
                yield [(s - 1, r)] + rest

    yield from rec(counts)


def m_tuple_partition(segre, m: int) -> list[tuple[int, int]]:
    """Greedy largest-first grouping of one copy's zero Segre into m-tuples."""
    parts = tuple(segre.parts) if hasattr(segre, "parts") else tuple(segre)
    if m < 1:
        raise SpecInvalid("m must be positive")
    for partition in _iter_partitions(parts, m):
        return partition
    raise NotPartitionable(
        f"Segre parts {parts} admit no grouping into {m}-tuples differing by at most one")


def _group_plus_demand(count: int, eta: int) -> int:
    """How many +1 signs the rule assigns to a group of `count` blocks."""
    if count % 2 == 0:
        return count // 2
    return (count + 1) // 2 if eta == 1 else count // 2


def sign_pattern_check(tuples) -> tuple[bool, list[dict]]:
    """Validate the eta half-and-half rule per tuple; diagnosis lists eta."""
    diagnosis = []
    for t in tuples:
        entry = {"a": t.a, "r": t.r, "ok": False, "eta": None}
        for eta in (1, -1):
            big = t.epsilons[:t.r]
            ok = sum(1 for e in big if e == 1) == _group_plus_demand(t.r, eta)
            if ok and t.a > 0:
                small = t.epsilons[t.r:]
                ok = sum(1 for e in small if e == 1) == _group_plus_demand(t.m - t.r, eta)
            if ok:
                entry.update(ok=True, eta=eta)
                break
        diagnosis.append(entry)
    return all(d["ok"] for d in diagnosis), diagnosis


def _tuple_epsilons(a: int, r: int, m: int, eta: int) -> tuple[int, ...]:
    """Deterministic sign placement: eta signs first within each size group."""
    def group(count: int) -> list[int]:
        n_eta = (count + 1) // 2
        return [eta] * n_eta + [-eta] * (count - n_eta)

    return tuple(group(r) + group(m - r))


def _zero_plan(zero_blocks: list[CanonicalBlock], m: int):
    """m-tuple plan for the zero part, or a refusal Certificate."""
    sizes = tuple(sorted((b.size for b in zero_blocks), reverse=True))
    plus_avail: dict[int, int] = {}
    for b in zero_blocks:
        if b.sign == 1:
            plus_avail[b.size] = plus_avail.get(b.size, 0) + 1
    found_partition = False
    for partition in _iter_partitions(sizes, m):
        found_partition = True
        t = len(partition)
        for etas in itertools.product((1, -1), repeat=t):
            demand: dict[int, int] = {}
            for (a, r), eta in zip(partition, etas):
                demand[a + 1] = demand.get(a + 1, 0) + _group_plus_demand(r, eta)
                if a > 0:
                    demand[a] = demand.get(a, 0) + _group_plus_demand(m - r, eta)
            if all(demand.get(s, 0) == plus_avail.get(s, 0)
                   for s in set(demand) | set(plus_avail)):
                return [MTuple(a, r, eta, _tuple_epsilons(a, r, m, eta), m)
                        for (a, r), eta in zip(partition, etas)]
    if not found_partition:
        return Certificate("SegreTupleMismatch", 0.0,
                           f"zero Segre {sizes} admits no {m}-tuple grouping")
    return Certificate("SignPatternViolation", 0.0,
                       f"no sign assignment satisfies the half-and-half rule for {sizes}")


# ---------------------------------------------------------------------------
# classification and the gate
# ---------------------------------------------------------------------------

@dataclass
class _Plan:
    positive: list[int] = field(default_factory=list)
    negative: list[int] = field(default_factory=list)
    nonreal: list[int] = field(default_factory=list)
    zero: list[int] = field(default_factory=list)
    neg_pairs: list[tuple[int, int]] = field(default_factory=list)
    zero_tuples: list[MTuple] = field(default_factory=list)
    certificate: Certificate | None = None

    def decision(self) -> RootDecision:
        return RootDecision(self.certificate is None, self.certificate)


def _classify_and_plan(spec: CanonicalSpec, m: int) -> _Plan:
    blocks = spec.blocks
    plan = _Plan()
    scale = max([1.0] + [abs(b.lam) for b in blocks])
    zero_tol = ZERO_CLASS_FACTOR * scale
    for i, b in enumerate(blocks):
        if not b.is_real:
            plan.nonreal.append(i)
        elif abs(b.lam) <= zero_tol:
            plan.zero.append(i)
        elif b.lam.real > 0:
            plan.positive.append(i)
        else:
            plan.negative.append(i)

    if m == 1:
        return plan

    if plan.negative and m % 2 == 0:
        # group by (lambda, k); needs equal counts of each sign
        groups: dict[tuple[int, int], dict[int, list[int]]] = {}
        keys: list[complex] = []
        for i in plan.negative:
            b = blocks[i]
            ki = None
            for idx, lam in enumerate(keys):
                if abs(lam - b.lam) <= zero_tol:
                    ki = idx
                    break
            if ki is None:
                keys.append(b.lam)
                ki = len(keys) - 1
            groups.setdefault((ki, b.size), {1: [], -1: []})[b.sign].append(i)
        for (ki, k), d in sorted(groups.items()):
            if len(d[1]) != len(d[-1]):
                plan.certificate = Certificate(
                    "NegativeSignPairing", keys[ki],
                    f"blocks J_{k}({keys[ki].real:g}) carry {len(d[1])} plus and "
                    f"{len(d[-1])} minus signs; they must pair with opposite signs")
                return plan
            plan.neg_pairs.extend(zip(d[1], d[-1]))

    if plan.zero:
        outcome = _zero_plan([blocks[i] for i in plan.zero], m)
        if isinstance(outcome, Certificate):
            plan.certificate = outcome
            return plan
        plan.zero_tuples = outcome
    return plan


def root_exists(spec: CanonicalSpec, m: int) -> RootDecision:
    """Gate of the main theorem: decide existence from the canonical form."""
    if m < 1:
        raise SpecInvalid("m must be a positive integer")
    return _classify_and_plan(spec, m).decision()


# ---------------------------------------------------------------------------
# closed-form per-class builders
# ---------------------------------------------------------------------------

def _primary_root(lam: complex, mu: complex, k: int, m: int) -> np.ndarray:
    """The m-th root of J_k(lam) with eigenvalue mu (mu^m = lam, lam != 0).

    F = sum_j binom(1/m, j) mu lam^(-j) N^j (Higham, Functions of Matrices,
    ch. 7).  F is upper-triangular Toeplitz, so Q_k F = F^T Q_k.
    """
    f = np.zeros((k, k), dtype=np.result_type(lam, mu))
    coef = mu
    for j in range(k):
        f += coef * np.eye(k, k, j)
        coef *= (1.0 / m - j) / ((j + 1) * lam)
    return f


def root_block_real(lam: float, k: int, eta: int, m: int) -> np.ndarray:
    """Per-copy k x k root of (J_k(lam), eta*Q_k); lam > 0, or lam < 0 with m odd."""
    if lam == 0 or (lam < 0 and m % 2 == 0):
        raise ClassMismatch("real builder handles lam > 0, or lam < 0 with m odd")
    if eta not in (-1, 1):
        raise SpecInvalid("eta must be +-1")
    mu = lam ** (1.0 / m) if lam > 0 else -((-lam) ** (1.0 / m))
    return _primary_root(lam, mu, k, m)


def _root_branch(lam: complex, m: int, branch: int) -> complex:
    """Deterministic branch: principal root times exp(2*pi*i*branch/m)."""
    mu = complex(lam) ** (1.0 / m)
    if branch % m:
        mu *= np.exp(2j * np.pi * (branch % m) / m)
    return mu


def root_block_nonreal(lam: complex, k: int, m: int, branch: int = 0) -> np.ndarray:
    """Per-copy 2k x 2k root of (J_k(lam) + J_k(conj lam), Q_2k).

    F + conj(F) is Q_2k-selfadjoint because F is Toeplitz.
    """
    lam = complex(lam)
    if lam.imag <= 0:
        raise ClassMismatch("nonreal builder needs Im(lam) > 0")
    f = _primary_root(lam, _root_branch(lam, m, branch), k, m)
    return block_diag(f, np.conj(f))


def root_block_negative_even(lam: float, k: int, m: int, branch: int = 0) -> np.ndarray:
    """Per-copy 2k x 2k root of paired blocks (lam, k, +1), (lam, k, -1), m even.

    With the nonreal root F of J_k(lam), F + conj(F) is selfadjoint for
    [[0, Q_k], [Q_k, 0]].  T = [[I, I], [I, -I]]/sqrt(2) commutes with
    J_k(lam) + J_k(lam) and takes that form to Q_k + -Q_k, so the per-copy
    root is T (F + conj F) T = [[Re F, i Im F], [i Im F, Re F]].
    """
    if lam >= 0 or m % 2:
        raise ClassMismatch("negative-even builder needs lam < 0 and m even")
    f = _primary_root(lam, _root_branch(complex(lam), m, branch), k, m)
    return np.block([[f.real, 1j * f.imag], [1j * f.imag, f.real]])


def canonicalize_nilpotent_copy(tuples: list[MTuple], m: int):
    """Canonical basis of (J^m, G) for J = sum of J_t(0), G = sum of eta Q_t.

    One block per tuple, in the given order, with t = a*m + r.  The residue
    classes mod m of J_t(0)'s basis split J_t(0)^m into r chains of length
    a+1 and m-r of length a, and eta*Q_t pairs class c with class
    (r-1-c) mod m.  A self-paired class keeps eta; a pair u, v becomes
    (u+v)/sqrt(2) with eta and (u-v)/sqrt(2) with -eta.

    Returns (P, blocks): P is real orthogonal, P^T J^m P is the sum of
    J_k(0) and P^T G P the sum of sign*Q_k over blocks, sorted canonically.
    """
    n = sum(t.total for t in tuples)
    found = []  # (CanonicalBlock, n x size columns)
    offset = 0
    for t in tuples:
        classes = [offset + np.arange(c, t.total, m) for c in range(m)]
        for c in range(m):
            d = (t.r - 1 - c) % m
            size = len(classes[c])
            if d < c or size == 0:
                continue
            signs = (t.eta,) if d == c else (t.eta, -t.eta)
            for sign in signs:
                cols = np.zeros((n, size))
                cols[classes[c], np.arange(size)] = 1.0
                cols[classes[d], np.arange(size)] = sign * t.eta  # same entries if d == c
                found.append((CanonicalBlock(0.0, size, sign), cols / np.sqrt(len(signs))))
        offset += t.total
    found.sort(key=lambda e: e[0].sort_key())
    return np.hstack([cols for _, cols in found]), tuple(b for b, _ in found)


def root_block_nilpotent(tuples: list[MTuple], m: int) -> np.ndarray:
    """Per-copy root block for the zero part: J = sum of J_{t_j}(0).

    P from canonicalize_nilpotent_copy carries (J^m, sum of eta_j Q_{t_j})
    to the canonical form with the tuples' sizes and signs, so P^T J P is
    the root.
    """
    ok, _ = sign_pattern_check(tuples)
    if not ok:
        raise SignPatternViolation("tuples fail the sign rule")
    order = sorted(tuples, key=lambda t: (-t.total, -t.eta))
    j0 = block_diag(*[jordan_block(0.0, t.total) for t in order])
    p, _ = canonicalize_nilpotent_copy(order, m)
    return p.T @ j0 @ p


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble_root(widths, parts) -> OmegaMatrix:
    """Place per-class roots on one copy and double it into a member of Omega.

    widths[i] is the per-copy width of canonical block i.  Each part is
    (indices, root): root is the one-copy root of the blocks at those
    indices, taken in that order, and every block lies in exactly one part.
    Like materialize_pair, the result is the copy A1 doubled to A1 + conj(A1).
    """
    if sorted(i for indices, _ in parts for i in indices) != list(range(len(widths))):
        raise DimensionMismatch("assemble_root parts must cover every block once")
    offsets = np.cumsum([0] + list(widths))
    a1 = np.zeros((offsets[-1], offsets[-1]), dtype=complex)
    for indices, root in parts:
        cols = np.concatenate([np.arange(offsets[i], offsets[i + 1]) for i in indices])
        if root.shape != (len(cols), len(cols)):
            raise DimensionMismatch(f"part root must be {len(cols)} x {len(cols)}")
        a1[np.ix_(cols, cols)] = root
    return OmegaMatrix(block_diag(a1, np.conj(a1)), check=False)


def _build_canonical_root(spec: CanonicalSpec, plan: _Plan, m: int,
                          branch: int) -> np.ndarray:
    """Root of materialize_pair(spec) assembled from per-class builders."""
    blocks = spec.blocks
    parts = []  # (canonical indices, root on one copy)
    for i in plan.positive + (plan.negative if m % 2 else []):
        b = blocks[i]
        parts.append(([i], root_block_real(b.lam.real, b.size, b.sign, m)))
    for ip, im_ in plan.neg_pairs:
        b = blocks[ip]
        parts.append(([ip, im_], root_block_negative_even(b.lam.real, b.size, m, branch)))
    for i in plan.nonreal:
        b = blocks[i]
        parts.append(([i], root_block_nonreal(b.lam, b.size, m, branch)))
    if plan.zero:
        zero_sorted = sorted(plan.zero, key=lambda i: blocks[i].sort_key())
        parts.append((zero_sorted, root_block_nilpotent(plan.zero_tuples, m)))
    return assemble_root([b.copy_width() for b in blocks], parts).array


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

def _result_from_omega(a_omega: np.ndarray, b: QuatMatrix, h: QuatMatrix, m: int,
                       similarity: np.ndarray, tol: Tolerances) -> RootResult:
    omega_res = omega_membership(a_omega)
    a_quat = omega_extract(a_omega, tol=max(membership_tolerance(a_omega),
                                            omega_res * 1.001))
    power = a_quat.power(m)
    res_power = (power - b).norm() / max(1.0, b.norm())
    hb = h @ a_quat
    bh = a_quat.adjoint() @ h
    res_self = (hb - bh).norm() / max(1.0, h.norm() * a_quat.norm())
    limit = tol.residual_factor
    if res_power > limit or res_self > limit:
        raise RankAmbiguous(
            f"constructed root failed verification: power {res_power:.3e}, "
            f"selfadjoint {res_self:.3e} (limit {limit:.1e})")
    return RootResult(
        root=a_quat,
        similarity=OmegaMatrix(similarity, check=False),
        residual_power=float(res_power),
        residual_selfadjoint=float(res_self),
        omega_residual=float(omega_res),
        cond_similarity=float(np.linalg.cond(similarity)),
    )


def reduce_pair(b: QuatMatrix, h: QuatMatrix, m: int, tol: Tolerances | None = None):
    """Everything a solve does before it builds: embed, check, canonicalize, plan.

    Returns (B in Omega, S, spec, plan); plan.decision() is the gate's answer.
    For m = 1 every selfadjoint B is its own root, so canonicalization is
    skipped and S and spec are None.
    """
    if m < 1:
        raise SpecInvalid("m must be a positive integer")
    tol = tol or DEFAULT_TOL
    b_om = omega_embed(b)
    h_om = omega_embed(h)
    if b_om.dim != h_om.dim:
        raise DimensionMismatch("H and B must be square with equal shape")
    try:
        if m == 1:
            res = selfadjoint_residual(h_om, b_om)  # validates H as well
        else:
            s, spec = canonicalize_pair(b_om, h_om, tol)  # checks H and HB = B*H
    except Singular as exc:
        raise NearSingularH(str(exc)) from exc
    if m == 1:
        if res > tol.residual_factor:
            raise NotSelfadjoint(f"HB - B*H residual {res:.3e} exceeds tolerance")
        return b_om, None, None, _Plan()
    return b_om, s, spec, _classify_and_plan(spec, m)


def mth_root(b: QuatMatrix, h: QuatMatrix, m: int, tol: Tolerances | None = None,
             branch: int = 0):
    """H-selfadjoint m-th root of an H-selfadjoint quaternion matrix B.

    Returns a RootResult on success and a RootDecision carrying the refusal
    certificate when no root exists.
    """
    tol = tol or DEFAULT_TOL
    b_om, s, spec, plan = reduce_pair(b, h, m, tol)
    if m == 1:
        eye = np.eye(b_om.dim, dtype=complex)
        return _result_from_omega(b_om.array, b, h, 1, eye, tol)
    if plan.certificate is not None:
        return plan.decision()
    a_canon = _build_canonical_root(spec, plan, m, branch)
    sa = s.array @ a_canon
    a_omega = np.linalg.solve(s.array.T, sa.T).T
    return _result_from_omega(a_omega, b, h, m, s.array, tol)
