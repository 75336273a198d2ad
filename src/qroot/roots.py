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

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import lapack, verify  # by module, so bench/spans.py can wrap verify.verify_root
# canonicalize_pair, omega_extract and selfadjoint_residual stay importable
# from here; bench/spans.py wraps them by these names
from .canonical import (CanonicalBlock, CanonicalSpec, Reduction, _canonicalize, _check_pair,
                        _empty_reduction, block_diag, canonicalize_pair, jordan_block)
from .errors import ClassMismatch, DimensionMismatch, RootInaccurate, SpecInvalid
from .omega import (DEFAULT_TOL, OmegaMatrix, _check_m, omega_embed, omega_extract,
                    omega_project, selfadjoint_residual)
from .quaternion import QuatMatrix


# ---------------------------------------------------------------------------
# decision types
# ---------------------------------------------------------------------------

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

def _heights_fit(total: int, k: int, odd: int, m: int) -> bool:
    """Whether k tuples with r in 1..m, `odd` of them with r odd, can have r sum to total."""
    top_odd, top_even = (m, m - 1) if m % 2 else (m - 1, m)
    return (0 <= odd <= k and (total - odd) % 2 == 0
            and 2 * k - odd <= total <= odd * top_odd + (k - odd) * top_even)


def _zero_grouping(count: Counter, plus: Counter | None, m: int):
    """The first grouping of the zero blocks into fitting m-tuples, as [(a, r, eta)], or None.

    count[s] blocks of size s, plus[s] of them signed +1; plus None fits
    sizes alone.  "First" is in the order of a search over the largest size
    left, then the larger r, then eta = +1.  A tuple (a, r, eta) touches
    sizes a+1 and a only, so a program over sizes, from the largest down,
    decides.  Its state at size s, (c, q), is c blocks of size s, q of them
    plus, promised to tuples that top at s+1.  The other t blocks top k
    tuples, `odd` of them with r odd, which need (t - odd) / 2 plus signs at
    s and one more per odd-r tuple with eta = +1 (_group_plus_demand).
    Their parts of size a need the same at s-1: an odd part belongs to an
    odd-r tuple for m even, and to an even-r one, with a free eta, for m odd.
    """
    def moves(s, c, q):
        """[(k, odd, c', q')] for the tuples that top at s, entering s with (c, q)."""
        t = count[s] - c
        need = None if plus is None else plus[s] - q
        if t < 0 or need is not None and not 0 <= need <= t:
            return []
        out = []
        for k in range(-(-t // m), t + 1):
            short = k * m - t if s > 1 else 0
            if short > count[s - 1]:
                break
            for odd in range(t % 2, k + 1, 2):
                x = 0 if need is None else need - (t - odd) // 2  # odd-r tuples with eta = +1
                if not _heights_fit(t, k, odd, m) or not 0 <= x <= odd:
                    continue
                if need is None:
                    out.append((k, odd, short, None))
                elif s == 1:
                    out.append((k, odd, 0, 0))
                elif m % 2 == 0:
                    out.append((k, odd, short, (short - odd) // 2 + x))
                else:
                    out += [(k, odd, short, (short - k + odd) // 2 + free)
                            for free in range(k - odd + 1)]
        return out

    # only sizes that hold blocks, and the size below each, carry a state;
    # an empty size is entered and left in (0, start) alone
    start = None if plus is None else 0
    levels = sorted({s - d for s in count for d in (0, 1)} | {0}, reverse=True)
    steps = list(zip(levels, levels[1:]))  # (size, next size with a state)
    # the states each size can be entered in, then those that can be left
    top = levels[0]
    fits = {top: {(0, start)}}
    for s, below in steps:
        fits[below] = {(c2, q2) for c, q in fits[s] for *_, c2, q2 in moves(s, c, q)
                       if below == s - 1 or (c2, q2) == (0, start)}
    for s, below in reversed(steps):
        fits[s] = {(c, q) for c, q in fits[s]
                   if any((c2, q2) in fits[below] for *_, c2, q2 in moves(s, c, q))}
    if not fits[top]:
        return None
    # the search's first grouping: at each step the larger r that still fits
    grouping, c, qs = [], 0, {start}
    for s, below in steps:
        good = {(k, odd) for q in qs for k, odd, c2, q2 in moves(s, c, q)
                if (c2, q2) in fits[below]}
        t, k, odd = count[s] - c, 0, 0
        while t:
            r = next(r for r in range(min(m, t), 0, -1)
                     if any(_heights_fit(t - r, gk - k - 1, godd - odd - r % 2, m)
                            for gk, godd in good))
            grouping.append((s - 1, r))
            t, k, odd = t - r, k + 1, odd + r % 2
        nxt = [(c2, q2) for q in qs for k2, odd2, c2, q2 in moves(s, c, q)
               if (k2, odd2) == (k, odd) and (c2, q2) in fits[below]]
        c, qs = nxt[0][0], {q2 for _, q2 in nxt}
    # its first signs: eta = +1 wherever a sign it adds is still needed
    need = Counter(plus)
    for a, r in grouping:
        need[a + 1] -= r // 2
        need[a] -= (m - r) // 2 if a else 0
    out = []
    for a, r in grouping:
        adds = [a + 1] * (r % 2) + [a] * (a > 0 and (m - r) % 2)
        eta = 1 if plus is None or all(need[s] > 0 for s in adds) else -1
        for s in adds if eta == 1 else ():
            need[s] -= 1
        out.append((a, r, eta))
    return out


def _group_plus_demand(count: int, eta: int) -> int:
    """How many +1 signs the rule assigns to a group of `count` blocks."""
    if count % 2 == 0:
        return count // 2
    return (count + 1) // 2 if eta == 1 else count // 2


def _zero_plan(zero_blocks: list[CanonicalBlock], m: int):
    """The zero part's m-tuples as [(a, r, eta)], or a refusal Certificate."""
    sizes = tuple(sorted((b.size for b in zero_blocks), reverse=True))
    count = Counter(sizes)
    grouping = _zero_grouping(count, Counter(b.size for b in zero_blocks if b.sign == 1), m)
    if grouping is not None:
        return grouping
    if _zero_grouping(count, None, m) is None:
        return Certificate("SegreTupleMismatch", 0.0,
                           f"zero Segre {sizes} admits no {m}-tuple grouping")
    return Certificate("SignPatternViolation", 0.0,
                       f"no sign assignment satisfies the half-and-half rule for {sizes}")


# ---------------------------------------------------------------------------
# classification and the gate
# ---------------------------------------------------------------------------

@dataclass
class _Plan:
    negative: list[int] = field(default_factory=list)
    zero: list[int] = field(default_factory=list)
    neg_pairs: list[tuple[int, int]] = field(default_factory=list)
    zero_grouping: list[tuple[int, int, int]] = field(default_factory=list)  # (a, r, eta)
    certificate: Certificate | None = None

    def decision(self) -> RootDecision:
        return RootDecision(self.certificate is None, self.certificate)


def _classify_and_plan(spec: CanonicalSpec, m: int) -> _Plan:
    """The gate's plan for a spec.

    A block is zero when its eigenvalue is exactly 0, and the blocks at a
    negative eigenvalue pair by exact (lambda, size).  The matrix path
    needs no looser rule: the engine snaps a zero cluster to 0.0, and two
    real clusters lie more than the cluster radius apart.
    """
    blocks = spec.blocks
    plan = _Plan()
    for i, b in enumerate(blocks):
        if b.lam == 0:
            plan.zero.append(i)
        elif b.is_real and b.lam.real < 0:
            plan.negative.append(i)

    if plan.negative and m % 2 == 0:
        # group by (lambda, k); needs equal counts of each sign
        keys: dict[complex, int] = {}  # lambda: its place in order of first appearance
        groups: dict[tuple[int, int], dict[int, list[int]]] = {}
        for i in plan.negative:
            b = blocks[i]
            ki = keys.setdefault(b.lam, len(keys))
            groups.setdefault((ki, b.size), {1: [], -1: []})[b.sign].append(i)
        lams = list(keys)
        for (ki, k), d in sorted(groups.items()):
            if len(d[1]) != len(d[-1]):
                plan.certificate = Certificate(
                    "NegativeSignPairing", lams[ki],
                    f"blocks J_{k}({lams[ki].real:g}) carry {len(d[1])} plus and "
                    f"{len(d[-1])} minus signs; they must pair with opposite signs")
                return plan
            plan.neg_pairs.extend(zip(d[1], d[-1]))

    if plan.zero:
        outcome = _zero_plan([blocks[i] for i in plan.zero], m)
        if isinstance(outcome, Certificate):
            plan.certificate = outcome
            return plan
        plan.zero_grouping = outcome
    return plan


def root_exists(spec: CanonicalSpec, m: int) -> RootDecision:
    """Gate of the main theorem: decide existence from the canonical form."""
    _check_m(m)
    return _classify_and_plan(spec, m).decision()


# ---------------------------------------------------------------------------
# closed-form per-class builders.  A solve runs only those of X's classes;
# root_block_real and root_block_nonreal stay for bench/spans.py, which
# wraps them by these names, and for the tests' reference root
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
    return _primary_root(lam, _cluster_root(complex(lam), m, 0), k, m)


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


def canonicalize_nilpotent_copy(grouping, m: int):
    """Canonical basis of (J^m, G) for J = sum of J_t(0), G = sum of eta Q_t.

    One block per m-tuple (a, r, eta) of the grouping, in the given order,
    with t = a*m + r.  The residue classes mod m of J_t(0)'s basis split
    J_t(0)^m into r chains of length a+1 and m-r of length a, and eta*Q_t
    pairs class c with class (r-1-c) mod m, of the same length.  A
    self-paired class keeps eta; a pair u, v becomes (u+v)/sqrt(2) with eta
    and (u-v)/sqrt(2) with -eta.  Only the first min(m, t) classes are not
    empty, so the cost does not grow with m.

    Returns (P, blocks): P is real orthogonal, P^T J^m P is the sum of
    J_k(0) and P^T G P the sum of sign*Q_k over blocks, sorted canonically.
    """
    n = sum(a * m + r for a, r, _ in grouping)
    found = []  # (CanonicalBlock, n x size columns)
    offset = 0
    for a, r, eta in grouping:
        t = a * m + r
        for c in range(min(m, t)):
            d = (r - 1 - c) % m
            if d < c:
                continue
            rows_c, rows_d = (offset + np.arange(e, t, m) for e in (c, d))
            size = len(rows_c)
            signs = (eta,) if d == c else (eta, -eta)
            for sign in signs:
                cols = np.zeros((n, size))
                cols[rows_c, np.arange(size)] = 1.0
                cols[rows_d, np.arange(size)] = sign * eta  # same entries if d == c
                found.append((CanonicalBlock(0.0, size, sign), cols / np.sqrt(len(signs))))
        offset += t
    found.sort(key=lambda e: e[0].sort_key())
    return np.hstack([cols for _, cols in found]), tuple(b for b, _ in found)


def root_block_nilpotent(grouping, m: int) -> np.ndarray:
    """Per-copy root block for the zero part: J = sum of J_t(0), one per (a, r, eta).

    P from canonicalize_nilpotent_copy carries (J^m, sum of eta Q_t) to
    the canonical form with the sizes and signs the triples imply, so
    P^T J P is the root.
    """
    order = sorted(grouping, key=lambda g: (-(g[0] * m + g[1]), -g[2]))
    j0 = block_diag(*[jordan_block(0.0, a * m + r) for a, r, _ in order])
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
    """Root of materialize_pair(spec) for a spec of X, from the per-class builders.

    X holds the two classes the theorem constrains: +- pairs at a negative
    eigenvalue with m even, and the zero m-tuples.
    """
    blocks = spec.blocks
    parts = []  # (canonical indices, root on one copy)
    for ip, im_ in plan.neg_pairs:
        b = blocks[ip]
        parts.append(([ip, im_], root_block_negative_even(b.lam.real, b.size, m, branch)))
    if plan.zero:
        zero_sorted = sorted(plan.zero, key=lambda i: blocks[i].sort_key())
        parts.append((zero_sorted, root_block_nilpotent(plan.zero_grouping, m)))
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

    Smith's recurrence (SIMAX 24(4), 2003) on the left-to-right binary
    chain of m (Greco & Iannazzo, Numer. Algorithms 55, 2010), one
    superdiagonal at a time.  P_0 = U and P_(s+1) = P_s P_b, with b = s (a
    square) or b = 0 (times U); the last P is U^m.  Entry (i, j) of P_(s+1)
    is (P_s)_ii (P_b)_ij + (P_s)_ij (P_b)_jj + M, where M sums
    (P_s)_ik (P_b)_kj over i < k < j and needs only nearer diagonals.  So
    (P_s)_ij = a_s u_ij + c_s, and U^m = T gives u_ij = (t_ij - c) / a from
    the last P, with a = sum_h mu_i^(m-1-h) mu_j^h nonzero while equal
    eigenvalues share a branch.  The chain has at most 2 log2(m) links.
    """
    n = t.shape[0]
    exps, factor = [1], []  # P_s = U^exps[s]; P_(s+1) = P_s P_factor[s]
    for bit in bin(m)[3:]:  # the bits of m after its leading 1
        factor.append(len(exps) - 1)  # a square; P_0 squared is P_0 times U
        exps.append(2 * exps[-1])
        if bit == "1":
            factor.append(0)
            exps.append(exps[-1] + 1)
    steps = len(factor)
    # the factors P_0 .. P_(steps-1), and their diagonals; for m = 1, U alone
    powers = mu ** np.array(exps[:max(steps, 1)])[:, None]
    p = np.zeros((len(powers), n, n), dtype=complex)
    p[:, np.arange(n), np.arange(n)] = powers
    flat = p.reshape(-1)
    nn, sz = n * n, p.itemsize
    for d in range(1, n):
        w = n - d
        a, c = [np.ones(w, dtype=complex)], [np.zeros(w, dtype=complex)]
        if d > 1:
            # views of p: left[s, i, k] = (P_s)[i, i+1+k], right[s, i, k] = (P_s)[i+1+k, i+d]
            left = np.ndarray((steps, w, d - 1), complex, p, sz, (nn * sz, (n + 1) * sz, sz))
            right = np.ndarray((len(p), w, d - 1), complex, p, (n + d) * sz,
                              (nn * sz, (n + 1) * sz, n * sz))
            inner = np.einsum("sik,sik->si", left, right[factor])
        for s, b in enumerate(factor):
            mu_i, mu_j = powers[s, :w], powers[b, d:]
            if b:  # P_s squared
                a.append((mu_i + mu_j) * a[s])
                c.append((mu_i + mu_j) * c[s])
            else:  # P_s times U
                a.append(mu_i + mu_j * a[s])
                c.append(mu_j * c[s])
            if d > 1:
                c[-1] += inner[s]
        u = (np.diagonal(t, d) - c[-1]) / a[-1]
        for s in range(len(p)):
            flat[s * nn + d:(s + 1) * nn:n + 1][:w] = a[s] * u + c[s]  # diagonal d of P_s
    return p[0]


def _schur_root(schur, lead: int, clusters, m: int, branch: int) -> np.ndarray:
    """g(B) from B = Z T Z^*: the primary root off the constrained clusters, 0 on them.

    The constrained clusters X fill the first `lead` places of diag(T).
    Each other eigenvalue gets mu_c (lambda / c)^(1/m) from its cluster's
    centroid c and root mu_c, so the branch is constant on every cluster.
    R11 = 0, R22 is the root of T22 and R12 solves
    T11 R12 - R12 T22 = -T12 R22 (ztrsyl).
    """
    t, z = schur
    k = lead
    cent = np.ones(len(t), dtype=complex)
    mu_c = np.zeros(len(t), dtype=complex)
    for c in clusters:
        if c.members[0] >= k:  # a cluster off X
            cent[c.members] = c.centroid
            mu_c[c.members] = _cluster_root(c.centroid, m, branch)
    mu = (mu_c * (np.diag(t) / cent) ** (1.0 / m))[k:]
    if k == 0:
        return z @ _smith_root(t, mu, m) @ z.conj().T
    r22 = _smith_root(t[k:, k:], mu, m)
    r12 = lapack.sylvester(t[:k, :k], t[k:, k:], -t[:k, k:] @ r22)
    return (z[:, :k] @ r12 + z[:, k:] @ r22) @ z[:, k:].conj().T


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------

def _result_from_omega(a_omega: np.ndarray, b: QuatMatrix, h: QuatMatrix, m: int,
                       similarity: np.ndarray, tol: float) -> RootResult:
    a1, a2, omega_res = omega_project(a_omega)
    a_quat = QuatMatrix.from_complex_pair(a1, a2)
    report = verify.verify_root(a_quat, b, h, m, tol)
    cond = float(np.linalg.cond(similarity)) if similarity.size else 1.0
    if not report.passed:
        raise RootInaccurate(
            f"constructed root failed verification: power {report.residual_power:.3e}, "
            f"selfadjoint {report.residual_selfadjoint:.3e} (limit {tol:.1e}), cond(S_X) {cond:.3e}")
    return RootResult(
        root=a_quat,
        similarity=similarity,
        residual_power=report.residual_power,
        residual_selfadjoint=report.residual_selfadjoint,
        omega_residual=omega_res,
        cond_similarity=cond,
    )


def reduce_pair(b: QuatMatrix, h: QuatMatrix, m: int, tol: float = DEFAULT_TOL) -> Reduction:
    """Everything a solve does before it builds: embed, check, Schur form, X.

    X is the part of the spectrum the theorem constrains: zero, and negative
    when m is even.  Only its clusters are canonicalized; the gate reads
    its spec.  For m = 1 every selfadjoint B is its own root, so the pair
    is only checked (_check_pair, as the engine checks it) and the empty
    Reduction, with no Schur form, is returned.
    """
    _check_m(m)
    barr, harr = omega_embed(b).array, omega_embed(h).array
    if m == 1:
        _check_pair(barr, harr, tol)
        return _empty_reduction(barr, harr)
    return _canonicalize(barr, harr, tol, keep=lambda c: _constrained(c, m))


def mth_root(b: QuatMatrix, h: QuatMatrix, m: int, tol: float = DEFAULT_TOL,
             branch: int = 0):
    """H-selfadjoint m-th root of an H-selfadjoint quaternion matrix B.

    Returns a RootResult on success and a RootDecision carrying the refusal
    certificate when no root exists.  The root is g(B) + S_X A_c H_X S_X^* H:
    g is the primary root off X and zero on X, S_X holds the canonical
    columns of X, A_c is the closed-form root of X's canonical blocks and
    H_X = S_X^* H S_X, a signed sum of sip matrices and its own inverse.
    """
    red = reduce_pair(b, h, m, tol)
    if m == 1:  # nothing is constrained: X is empty
        return _result_from_omega(red.b, b, h, 1, red.similarity, tol)
    plan = _classify_and_plan(red.spec, m)
    if plan.certificate is not None:
        return plan.decision()
    s_x = red.similarity
    a = _schur_root(red.schur, red.lead, red.clusters, m, branch)
    if red.spec.blocks:
        a_c = _build_canonical_root(red.spec, plan, m, branch)
        a = a + s_x @ (a_c @ (red.h_canonical @ (s_x.conj().T @ red.h)))
    return _result_from_omega(a, b, h, m, s_x, tol)
