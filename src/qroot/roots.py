"""Existence gate and constructive m-th root builders.

The decision follows the canonical-form conditions: positive, nonreal, and
(for odd m) negative spectra are unconditional; negative eigenvalues with m
even must pair identical blocks with opposite signs; zero eigenvalues must
admit a grouping of the per-copy Segre parts into m-tuples of sizes a+1/a
whose signs obey the half-and-half rule.  Builders write one root per class
in closed form on one copy of the canonical pair; assemble_root places them
on that copy and doubles it into a single member of Omega_2n.  A solve
canonicalizes only the constrained part X of the spectrum (zero, and
negative when m is even) and takes the root of the rest as a primary matrix
function of B, straight from its Schur form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# canonicalize_pair and omega_extract stay importable from here;
# bench/spans.py wraps them by these names
from .canonical import (DEFAULT_TOL, CanonicalBlock, CanonicalSpec, _canonicalize,
                        _check_tol, _lapack, block_diag, canonicalize_pair, jordan_block,
                        materialize_pair)
from .errors import (ClassMismatch, DimensionMismatch, NearSingularH,
                     NotPartitionable, NotSelfadjoint, RankAmbiguous,
                     SignPatternViolation, Singular, SpecInvalid)
from .omega import (OmegaMatrix, omega_embed, omega_extract, omega_project,
                    selfadjoint_residual)
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
    """A verified root; similarity is S_X, the 2n x 2d_X canonical columns of X."""

    root: QuatMatrix
    similarity: np.ndarray
    residual_power: float
    residual_selfadjoint: float
    omega_residual: float
    cond_similarity: float

    def to_json(self) -> dict:
        return {"exists": True,
                "root": self.root.to_json(),
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
# the primary root of the unconstrained spectrum, from the Schur form
# ---------------------------------------------------------------------------

def _constrained(c: complex, m: int) -> bool:
    """Whether the theorem constrains eigenvalue c: zero, or negative with m even."""
    return c == 0 or (c.imag == 0 and c.real < 0 and m % 2 == 0)


def _cluster_root(c: complex, m: int, branch: int) -> complex:
    """The root an unconstrained cluster with (snapped) centroid c gets.

    The same branch as the builders: real for real c, the branch root for
    Im c > 0 and its conjugate for Im c < 0, so g(conj z) = conj g(z).
    """
    if c.imag > 0:
        return _root_branch(c, m, branch)
    if c.imag < 0:
        return np.conj(_root_branch(np.conj(c), m, branch))
    return c.real ** (1.0 / m) if c.real > 0 else -((-c.real) ** (1.0 / m))


def _smith_root(t: np.ndarray, mu: np.ndarray, m: int) -> np.ndarray:
    """Upper triangular U with U^m = T and diag(U) = mu, for upper triangular T.

    Smith's recurrence (SIMAX 24(4), 2003), one superdiagonal at a time.
    With P_q = U^q for q < m, entry (i, j) of U^q splits into
    mu_i^(q-1) u_ij + mu_j (U^(q-1))_ij + M_q, where M_q sums
    (U^(q-1))_ik u_kj over i < k < j and needs only nearer diagonals.  So
    (U^q)_ij = a_q u_ij + c_q, and U^m = T gives u_ij = (t_ij - c_m) / a_m,
    with a_m = sum_h mu_i^(m-1-h) mu_j^h nonzero while equal eigenvalues
    share a branch.
    """
    n = t.shape[0]
    powers = mu ** np.arange(1, m)[:, None]  # mu^q for q < m
    p = np.zeros((m - 1, n, n), dtype=complex)
    p[:, np.arange(n), np.arange(n)] = powers
    flat = p.reshape(-1)
    nn, sz = n * n, p.itemsize
    for d in range(1, n):
        w = n - d
        mu_j = mu[d:]
        a = np.ones(w, dtype=complex)
        c = np.zeros(w, dtype=complex)
        if d > 1:
            # views of p: left[q, i, k] = (U^(q+1))[i, i+1+k], right[i, k] = U[i+1+k, i+d]
            left = np.ndarray((m - 1, w, d - 1), complex, p, sz, (nn * sz, (n + 1) * sz, sz))
            right = np.ndarray((w, d - 1), complex, p, (n + d) * sz, ((n + 1) * sz, n * sz))
            mq = np.einsum("qik,ik->qi", left, right)
        coefs = []
        for q in range(1, m):
            coefs.append((a, c))
            a = powers[q - 1][:w] + mu_j * a
            c = mu_j * c + mq[q - 1] if d > 1 else mu_j * c
        u = (np.diagonal(t, d) - c) / a
        for q, (a, c) in enumerate(coefs):
            flat[q * nn + d:(q + 1) * nn:n + 1][:w] = a * u + c  # diagonal d of U^(q+1)
    return p[0]


def _schur_root(schur, clusters, m: int, branch: int) -> np.ndarray:
    """g(B) from B = Z T Z^*: the primary root off the constrained clusters, 0 on them.

    Each eigenvalue gets mu_c (lambda / c)^(1/m) from its cluster's centroid
    c and root mu_c, so the branch is constant on every cluster.  With
    constrained clusters X, ztrsen moves them to the lead, R11 = 0, R22 is
    the root of T22 and R12 solves T11 R12 - R12 T22 = -T12 R22 (ztrsyl).
    """
    t, z = schur
    lam = np.diag(t)
    cent = np.ones(len(lam), dtype=complex)
    mu_c = np.zeros(len(lam), dtype=complex)
    x = np.zeros(len(lam), dtype=bool)
    for c in clusters:
        if _constrained(c.centroid, m):
            x[c.members] = True
        else:
            cent[c.members] = c.centroid
            mu_c[c.members] = _cluster_root(c.centroid, m, branch)
    if not x.any():
        r = _smith_root(t, mu_c * (lam / cent) ** (1.0 / m), m)
        return z @ r @ z.conj().T
    if x.all():
        return np.zeros_like(t)
    lapack = _lapack()
    ts, zs, _, k, _, _, info = lapack.ztrsen(x, t, z, job="N")
    if info != 0:
        raise np.linalg.LinAlgError(f"Schur reordering failed (ztrsen info {info})")
    # ztrsen keeps the order within the selected and within the other eigenvalues
    rest = ~x
    r22 = _smith_root(ts[k:, k:], mu_c[rest] * (np.diag(ts)[k:] / cent[rest]) ** (1.0 / m), m)
    r12, scale, info = lapack.ztrsyl(ts[:k, :k], ts[k:, k:], -ts[:k, k:] @ r22, isgn=-1)
    if info < 0:
        raise np.linalg.LinAlgError(f"Sylvester solve failed (ztrsyl info {info})")
    g = (zs[:, :k] @ (r12 / scale) + zs[:, k:] @ r22) @ zs[:, k:].conj().T
    return g


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

def _result_from_omega(a_omega: np.ndarray, b: QuatMatrix, h: QuatMatrix, m: int,
                       similarity: np.ndarray, tol: float) -> RootResult:
    from .verify import verify_root  # verify imports roots for the generator
    a1, a2, omega_res = omega_project(a_omega)
    a_quat = QuatMatrix.from_complex_pair(a1, a2)
    report = verify_root(a_quat, b, h, m, tol)
    if not report.passed:
        raise RankAmbiguous(
            f"constructed root failed verification: power {report.residual_power:.3e}, "
            f"selfadjoint {report.residual_selfadjoint:.3e} (limit {tol:.1e})")
    return RootResult(
        root=a_quat,
        similarity=similarity,
        residual_power=report.residual_power,
        residual_selfadjoint=report.residual_selfadjoint,
        omega_residual=omega_res,
        cond_similarity=float(np.linalg.cond(similarity)) if similarity.size else 1.0,
    )


def reduce_pair(b: QuatMatrix, h: QuatMatrix, m: int, tol: float = DEFAULT_TOL):
    """Everything a solve does before it builds: embed, check, Schur form, X, plan.

    X is the part of the spectrum the theorem constrains: zero, and negative
    when m is even.  Only its clusters are canonicalized.  Returns
    (B, H in Omega, (spec, S_X, schur, clusters, residuals) from the
    canonicalization engine, plan); plan.decision() is the gate's answer.
    For m = 1 every selfadjoint B is its own root, so nothing is
    canonicalized and the third item is None.
    """
    if m < 1:
        raise SpecInvalid("m must be a positive integer")
    _check_tol(tol)
    b_om = omega_embed(b)
    h_om = omega_embed(h)
    if b_om.dim != h_om.dim:
        raise DimensionMismatch("H and B must be square with equal shape")
    try:
        if m == 1:
            res = selfadjoint_residual(h_om, b_om)  # validates H as well
        else:
            part = _canonicalize(b_om.array, h_om.array, tol,
                                 keep=lambda c: _constrained(c, m))  # checks H, HB = B*H
    except Singular as exc:
        raise NearSingularH(str(exc)) from exc
    if m == 1:
        if res > tol:
            raise NotSelfadjoint(f"HB - B*H residual {res:.3e} exceeds tolerance")
        return b_om, h_om, None, _Plan()
    return b_om, h_om, part, _classify_and_plan(part[0], m)


def mth_root(b: QuatMatrix, h: QuatMatrix, m: int, tol: float = DEFAULT_TOL,
             branch: int = 0):
    """H-selfadjoint m-th root of an H-selfadjoint quaternion matrix B.

    Returns a RootResult on success and a RootDecision carrying the refusal
    certificate when no root exists.  The root is g(B) + S_X A_c H_X S_X^* H:
    g is the primary root off X and zero on X, S_X holds the canonical
    columns of X, A_c is the closed-form root of X's canonical blocks and
    H_X = S_X^* H S_X, a signed sum of sip matrices and its own inverse.
    """
    b_om, h_om, part, plan = reduce_pair(b, h, m, tol)
    if m == 1:  # nothing is constrained: X is empty
        return _result_from_omega(b_om.array, b, h, 1,
                                  np.zeros((b_om.dim, 0), dtype=complex), tol)
    if plan.certificate is not None:
        return plan.decision()
    spec, s_x, schur, clusters, _ = part
    a = _schur_root(schur, clusters, m, branch)
    if spec.blocks:
        a_c = _build_canonical_root(spec, plan, m, branch)
        h_x = materialize_pair(spec)[1].array
        a = a + s_x @ (a_c @ (h_x @ (s_x.conj().T @ h_om.array)))
    return _result_from_omega(a, b, h, m, s_x, tol)
