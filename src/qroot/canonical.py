"""Canonical pairs (B, H) for H-selfadjoint members of Omega_2n.

A canonical spec lists Jordan blocks per copy: a real eigenvalue block
(lambda, k, eta) materializes as J_k(lambda) against eta*Q_k, a nonreal
block (lambda, k) as J_k(lambda) + J_k(conj lambda) against Q_2k; the
Omega-level pair is always the copy (B1, H1) doubled to B1 + conj(B1)
against H1 + H1, so the second copy swaps each nonreal pair.

canonicalize_pair reduces an arbitrary selfadjoint pair to this form with a
similarity that stays inside Omega_2n.  The similarity is assembled from
quaternionic Jordan chains: a chain of complex columns c_1..c_k together
with the partner columns chi(c_i) spans a quaternionic invariant subspace,
so S = [C | -chi(C)] is automatically a member of Omega_2n.

This module holds the engine; the LAPACK kernels it runs on the 2n x 2n
matrix (the Schur form and its ztrsen reordering) are bound in qroot.lapack.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from . import lapack
from .errors import ClusterOverlap, NotSelfadjoint, ParseError, RankAmbiguous, SpecInvalid
from .jsonio import integer
from .omega import DEFAULT_TOL, OmegaMatrix, _check_tol, chi, selfadjoint_residual
from .quaternion import frobenius_norm

_EPS = np.finfo(float).eps


# ---------------------------------------------------------------------------
# tolerances
# ---------------------------------------------------------------------------

CLUSTER_FACTOR = 1e-6    # eigenvalue clustering, relative to ||B||_F
RANK_FACTOR = 1e-8       # rank decisions, relative to the matrix's Frobenius norm
DEGENERATE_FACTOR = 1e-10  # leading Gram moments, relative to the chains' scale


def _cluster_radius(b: np.ndarray) -> float:
    # Computed eigenvalues of a defective block scatter like
    # (eps*||B||_2)^(1/k); the linkage radius must cover that blob for any
    # block size the matrix can hold, up to 0.25.  The cap binds once
    # ||B||_2 >= 0.125^k / eps, which a lower bound settles without an SVD
    # when it clears that with a margin far above its rounding.
    kbound = max(1, min(b.shape[0], 16))
    if b.size and _norm2_lower_bound(b) >= (1.0 + 1e-6) * 0.125 ** kbound / _EPS:
        blob = 0.25
    else:
        bnorm = float(np.linalg.norm(b, 2)) if b.size else 0.0
        blob = 2.0 * (max(_EPS * max(1.0, bnorm), 1e-300)) ** (1.0 / kbound)
        blob = min(blob, 0.25)
    return max(CLUSTER_FACTOR * max(1.0, frobenius_norm(b)), blob)


# An overflow to inf still bounds ||B||_2 from below, and a NaN fails the
# threshold test, leaving the cap to the SVD; neither is worth a warning.
@np.errstate(over="ignore", invalid="ignore")
def _norm2_lower_bound(b: np.ndarray) -> float:
    """||B x|| / ||x|| <= ||B||_2 after two power steps on B^*B from B's largest column."""
    bh = b.conj().T
    x = bh @ b[:, int(np.argmax(np.linalg.norm(b, axis=0)))]
    x = bh @ (b @ x)
    xnorm = np.linalg.norm(x)
    return float(np.linalg.norm(b @ x) / xnorm) if xnorm else 0.0


def _check_pair(barr: np.ndarray, harr: np.ndarray, tol: float) -> None:
    """The one input check of a pair (B, H) in Omega_2n: tol, then HB = B*H within it.

    selfadjoint_residual raises DimensionMismatch, NotHermitian and
    NearSingularH, and FloatingPointError for a pair it cannot measure; a
    residual over tol (or NaN) is NotSelfadjoint.
    """
    _check_tol(tol)
    res = selfadjoint_residual(harr, barr)
    if not res <= tol:
        raise NotSelfadjoint(f"selfadjoint residual {res:.3e} exceeds tolerance")


def _rank_threshold(m: np.ndarray) -> float:
    return RANK_FACTOR * max(1.0, frobenius_norm(m))


# ---------------------------------------------------------------------------
# blocks and specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalBlock:
    """One Jordan block of a per-copy canonical form."""

    lam: complex
    size: int
    sign: int | None = None

    def __post_init__(self):
        lam = complex(self.lam)
        object.__setattr__(self, "lam", lam)
        if not cmath.isfinite(lam):
            raise SpecInvalid("block eigenvalues must be finite")
        if self.size < 1:
            raise SpecInvalid("block size must be positive")
        if lam.imag < 0:
            raise SpecInvalid("nonreal block eigenvalues are stored with Im >= 0")
        if lam.imag == 0 and self.sign not in (-1, 1):
            raise SpecInvalid("real blocks carry a sign +-1")
        if lam.imag != 0 and self.sign is not None:
            raise SpecInvalid("nonreal blocks carry no sign")

    @property
    def is_real(self) -> bool:
        return self.lam.imag == 0

    def copy_width(self) -> int:
        return self.size if self.is_real else 2 * self.size

    def sort_key(self):
        return (self.lam.real, self.lam.imag, -self.size,
                -(self.sign if self.sign is not None else 0))

    def to_json(self) -> dict:
        return {"lambda": [self.lam.real, self.lam.imag],
                "size": self.size,
                "sign": self.sign}

    @staticmethod
    def from_json(obj: dict) -> "CanonicalBlock":
        try:
            re, im = obj["lambda"]
            if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in (re, im)):
                raise ParseError("canonical block lambda must be two numbers")
            lam = complex(re, im)
            size = integer(obj["size"], "canonical block size")
            sign = obj["sign"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"bad canonical block JSON: {exc}") from exc
        if sign is not None:
            sign = integer(sign, "canonical block sign")
        return CanonicalBlock(lam, size, sign)


@dataclass(frozen=True)
class CanonicalSpec:
    """Ordered block list of ONE copy; the Omega pair is the copy doubled."""

    blocks: tuple[CanonicalBlock, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))

    def sorted(self) -> "CanonicalSpec":
        return CanonicalSpec(tuple(sorted(self.blocks, key=CanonicalBlock.sort_key)))

    def to_json(self) -> dict:
        return {"blocks": [b.to_json() for b in self.blocks], "doubled": True}

    @staticmethod
    def from_json(obj: dict) -> "CanonicalSpec":
        try:
            blocks = [CanonicalBlock.from_json(b) for b in obj["blocks"]]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad canonical spec JSON: {exc}") from exc
        if obj.get("doubled", True) is not True:
            raise SpecInvalid("Omega-level specs are always doubled")
        return CanonicalSpec(tuple(blocks))


# ---------------------------------------------------------------------------
# elementary builders
# ---------------------------------------------------------------------------

def jordan_block(lam: complex, k: int) -> np.ndarray:
    if k < 1:
        raise SpecInvalid("jordan_block needs k >= 1")
    return np.eye(k, dtype=complex) * lam + np.eye(k, k, 1, dtype=complex)


def sip_matrix(k: int) -> np.ndarray:
    if k < 1:
        raise SpecInvalid("sip_matrix needs k >= 1")
    return np.fliplr(np.eye(k))


def block_diag(*blocks) -> np.ndarray:
    """Block-diagonal matrix of one or more square blocks, in their common dtype."""
    n = sum(blk.shape[0] for blk in blocks)
    out = np.zeros((n, n), dtype=np.result_type(*blocks))
    i = 0
    for blk in blocks:
        k = blk.shape[0]
        out[i:i + k, i:i + k] = blk
        i += k
    return out


def materialize_pair(spec: CanonicalSpec) -> tuple[OmegaMatrix, OmegaMatrix]:
    """Doubled Omega-level pair for a spec; exact member of Omega_2n.

    One copy (B1, H1) is built and doubled to (B1 + conj(B1), H1 + H1);
    conjugation turns J_k(lam) + J_k(conj lam) into the swapped pair.
    """
    if not spec.blocks:
        raise SpecInvalid("cannot materialize an empty spec")
    bparts, hparts = [], []
    for blk in spec.blocks:
        if blk.is_real:
            bparts.append(jordan_block(blk.lam.real, blk.size))
            hparts.append(blk.sign * sip_matrix(blk.size))
        else:
            bparts.append(jordan_block(blk.lam, blk.size))
            bparts.append(jordan_block(np.conj(blk.lam), blk.size))
            hparts.append(sip_matrix(2 * blk.size))
    b1, h1 = block_diag(*bparts), block_diag(*hparts)
    return (OmegaMatrix(block_diag(b1, np.conj(b1)), check=False),
            OmegaMatrix(block_diag(h1, h1), check=False))


# ---------------------------------------------------------------------------
# rank staircase and deflation
# ---------------------------------------------------------------------------

def _rank_with_guard(s: np.ndarray, thr: float) -> int:
    """Count of singular values s above thr; none may sit within a factor 10 of it."""
    ambiguous = (s > thr / 10.0) & (s < thr * 10.0)
    if np.any(ambiguous):
        raise RankAmbiguous(
            f"singular value {s[ambiguous][0]:.3e} within a factor 10 of {thr:.3e}")
    return int(np.sum(s > thr))


def _staircase(n_mat: np.ndarray, expected_dim: int) -> tuple[list[int], list[np.ndarray]]:
    """Kernel dimensions of the powers of a (numerically) nilpotent matrix.

    One SVD per power N^p yields both its guarded rank and an orthonormal
    basis of ker N^p.  Returns (dims, kernels) with dims[p] = dim ker N^p
    and kernels[p] that basis, for p = 0 .. the index of nilpotency.
    """
    n = n_mat.shape[0]
    dims = [0]
    kernels = [np.zeros((n, 0), dtype=complex)]
    power = np.eye(n, dtype=complex)
    for _ in range(n):
        power = power @ n_mat
        _, s, vh = np.linalg.svd(power)
        rank = _rank_with_guard(s, _rank_threshold(power))
        d = n - rank
        if d == dims[-1]:
            break
        dims.append(d)
        kernels.append(vh[rank:].conj().T)
        if d == n:
            break
    if dims[-1] != expected_dim:
        raise ClusterOverlap(
            f"staircase dimension {dims[-1]} does not match cluster size {expected_dim}")
    return dims, kernels


def _reorder(schur: tuple[np.ndarray, np.ndarray],
             select: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Schur form (T, Z) reordered so the selected eigenvalues lead.

    LAPACK ztrsen (Bai & Demmel swaps) keeps the order within the selected
    and within the other eigenvalues and leaves the input form as it is.  A
    selection that already leads needs no swaps, so ztrsen is not called.
    """
    if select[:int(select.sum())].all():
        return schur
    ts, zs, _, info = lapack.reorder(select, *schur)
    if info != 0:
        raise ClusterOverlap(f"Schur form could not be reordered (ztrsen info {info})")
    return ts, zs


# ---------------------------------------------------------------------------
# eigenvalue clustering
# ---------------------------------------------------------------------------

@dataclass
class _Cluster:
    centroid: complex
    mult: int
    members: np.ndarray  # indices into the clustered eigenvalues


def _cluster_eigenvalues(eigs: np.ndarray, radius: float) -> list[_Cluster]:
    """Single-linkage clustering with the given merge radius.

    The clusters are the connected components of the graph of eigenvalue
    pairs within radius.  Each sorted index takes the smallest label among
    its neighbours, then jumps to its label's label, until nothing moves;
    every component is then labelled by its smallest index.  Sorted by
    centroid, a centroid within radius of the real axis is then snapped to
    it, and to zero within radius of zero.
    """
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    close = np.abs(eigs[:, None] - eigs[None, :]) <= radius
    index = np.arange(len(eigs))
    labels = index
    while True:
        new = np.where(close, labels, labels[:, None]).min(axis=1, initial=len(eigs))
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    # np.unique would do, but its first call imports numpy.ma (1.4 MB)
    roots = index[labels == index]
    clusters = [_Cluster(complex(np.mean(eigs[g])), len(g), order[g])
                for g in (np.flatnonzero(labels == root) for root in roots)]
    clusters.sort(key=lambda c: (c.centroid.real, c.centroid.imag))
    for c in clusters:
        if abs(c.centroid.imag) <= radius:
            c.centroid = complex(0.0 if abs(c.centroid.real) <= radius else c.centroid.real, 0.0)
    return clusters


# ---------------------------------------------------------------------------
# Jordan chain extraction (on the deflated nilpotent block)
# ---------------------------------------------------------------------------

def _orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of a, dropping directions below eps."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    thr = np.amax(s, initial=0.0) * _EPS * max(a.shape)
    return u[:, :int(np.sum(s > thr))]


def _append_orth(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Append v to the orthonormal column family q (Gram-Schmidt, twice)."""
    for _ in range(2):
        if q.shape[1]:
            v = v - q @ (q.conj().T @ v)
    nv = np.linalg.norm(v)
    if nv < 1e-12:
        raise RankAmbiguous("degenerate direction while building chains")
    return np.hstack([q, (v / nv)[:, None]])


def _nilpotent_chains(n_mat: np.ndarray, expected_dim: int,
                      partner=None) -> list[list[np.ndarray]]:
    """Jordan chains [c_1, ..., c_k] of nilpotent N with N c_i = c_{i-1}, longest first.

    One pass over the levels p from the top down: every chain, held
    generator first, grows by N times its last vector, and then the level's
    new generators are picked in ker N^p, away from ker N^(p-1) and those
    last vectors.  With k_p = dim ker N^p - dim ker N^(p-1) chains reaching
    level p, the level starts k_p - k_(p+1) of them.  With a partner map
    (antilinear, quaternionic mode) the returned chains are one
    representative per quaternionic block; the partner images span the
    remaining half of each kernel level.
    """
    dims, kernels = _staircase(n_mat, expected_dim)
    reach = [dims[p] - dims[p - 1] for p in range(1, len(dims))] + [0]  # reach[p - 1] = k_p
    chains: list[list[np.ndarray]] = []
    for p in range(len(dims) - 1, 0, -1):
        for chain in chains:
            chain.append(n_mat @ chain[-1])
        need = reach[p - 1] - reach[p]
        if partner is not None:
            if need % 2:
                raise ClusterOverlap("quaternionic level counts must be even")
            need //= 2
        if need == 0:
            continue
        # span to avoid: lower kernel level plus descents of longer chains
        avoid = [kernels[p - 1]]
        for chain in chains:
            avoid.append(chain[-1][:, None])
            if partner is not None:
                avoid.append(partner(chain[-1])[:, None])
        stack = np.hstack(avoid)
        q = _orth(stack) if stack.shape[1] else stack
        cand = kernels[p]
        for _ in range(need):
            resid = cand - q @ (q.conj().T @ cand) if q.shape[1] else cand
            norms = np.linalg.norm(resid, axis=0)
            best = int(np.argmax(norms))
            if norms[best] < 1e-10:
                raise RankAmbiguous("could not complete chain generators")
            g = resid[:, best] / norms[best]
            chains.append([g])
            q = _append_orth(q, g)
            if partner is not None:
                q = _append_orth(q, partner(g))
    return [chain[::-1] for chain in chains]  # chain[0] is the eigenvector


# ---------------------------------------------------------------------------
# indefinite Gram normalization of chains
# ---------------------------------------------------------------------------

def _chain_moment(form, c, d, s, zero):
    """Moment form(d_i, c_j) with i + j = s (Hankel in s); c, d bottom-up lists.

    Returns zero when no index pair of the two chains sums to s.
    """
    k, l = len(c), len(d)
    i = min(l, s - 1)
    j = s - i
    if j > k:
        j = k
        i = s - j
    if not (1 <= i <= l and 1 <= j <= k):
        return zero
    return form(d[i - 1], c[j - 1])


def _modulus(x, y):
    """sqrt(x^2 + y^2) (x = |q1|, y = |q2| of q1 + j q2) under an exact power-of-two scale."""
    sc = int(np.frexp(np.max([x, y]))[1])
    return np.ldexp(np.sqrt(np.ldexp(x, -sc) ** 2 + np.ldexp(y, -sc) ** 2), sc)


class _Imaged:
    """A chain vector v with its images G v and partner(v), each made when first read."""

    def __init__(self, v, g, partner):
        self.v, self._g, self._partner = v, g, partner

    @functools.cached_property
    def gv(self):
        return self._g @ self.v

    @functools.cached_property
    def pv(self):
        return self._partner(self.v)


def _normalize_hermitian_chains(chains, g, partner):
    """Transform Jordan chains so the Gram against the form becomes +-sips.

    Moments are quaternions q1 + j q2, held as pairs (q1, q2): [x, y] is
    (<y, G x>, <partner(y), G x>), and v q is q1 v + q2 partner(v).
    Returns [(eta, chain)] with [c_i, c_j] = eta when i + j = k + 1 and 0
    otherwise, and all cross-chain moments annihilated.
    """
    def form(x, y):
        return (complex(np.vdot(y.v, x.gv)), complex(np.vdot(y.pv, x.gv)))

    def moment(c, d, s):
        return _chain_moment(form, c, d, s, (0j, 0j))

    def rmul(x, q):
        return q[0] * x.v + q[1] * x.pv

    def imaged(v):
        return _Imaged(v, g, partner)

    # each vector's images are made once, so a round's leading moments
    # make no product with G
    chains = [[imaged(v) for v in c] for c in chains]
    out = []
    while chains:
        kappa = max(len(c) for c in chains)
        tops = [i for i, c in enumerate(chains) if len(c) == kappa]
        nrm = max(1.0, max(frobenius_norm(x.v) for c in chains for x in c))
        # recombination partners must share the maximal length: adding a
        # shorter chain cannot stay a Jordan chain and cannot feed the
        # leading moment anyway.  lead[a, b] = |[top_b, eig_a]| over the top
        # chains; its diagonal holds the self-moments
        gt = np.column_stack([chains[i][-1].gv for i in tops])
        e = np.column_stack([chains[i][0].v for i in tops])
        p = np.column_stack([chains[i][0].pv for i in tops])
        lead = _modulus(np.abs(e.conj().T @ gt), np.abs(p.conj().T @ gt))
        peak = lead.max()
        if peak <= DEGENERATE_FACTOR * nrm * nrm:
            raise RankAmbiguous("degenerate leading moments in Gram normalization")
        a = int(np.argmax(lead.diagonal()))
        i = tops[a]
        if lead[a, a] < 0.1 * peak:
            # fold the later chain j into the earlier chain i, at the first
            # largest lead[a, b] + lead[b, a] above the diagonal (equal in exact
            # arithmetic, so rounding does not pick the direction); the folded
            # self-moment is h + 2|m| + h_j with |h|, |h_j| < 0.1 |m|, so nonzero
            a, b = np.unravel_index(np.argmax(np.triu(lead + lead.T, 1)), lead.shape)
            i, j = tops[a], tops[b]
            m1, m2 = moment(chains[i], chains[j], kappa + 1)
            mod = float(_modulus(abs(m1), abs(m2)))
            q = (np.conj(m1) / mod, -m2 / mod)
            for idx in range(kappa):
                chains[i][idx] = imaged(chains[i][idx].v + rmul(chains[j][idx], q))
        c = chains.pop(i)
        k = len(c)
        h = moment(c, c, k + 1)[0].real
        eta = 1 if h > 0 else -1
        s = (complex(1.0 / np.sqrt(abs(h))), 0j)
        c = [imaged(rmul(x, s)) for x in c]
        # kill the higher self-moments h_{k+1+t} with real chain corrections
        for t in range(1, k):
            alpha = -moment(c, c, k + 1 + t)[0].real / (2.0 * eta)
            for idx in range(t, k):
                c[idx] = imaged(c[idx].v + alpha * c[idx - t].v)
        # annihilate every remaining chain against c
        for d in chains:
            l = len(d)
            for t in range(l):
                q = tuple(x / eta for x in moment(c, d, k + 1 + t))
                for idx in range(t, l):
                    d[idx] = imaged(d[idx].v - rmul(c[idx - t], q))
        out.append((eta, [x.v for x in c]))
    return out


def _normalize_symplectic_chains(chains, bform):
    """Pair chains against an antisymmetric bilinear form.

    bform(x, y) is x @ phi @ y, so it also takes rows of x against columns of y.
    Returns [(c, d)] with phi(d_i, c_j) = 1 when i + j = k + 1, 0 otherwise,
    and all other moments annihilated; self-moments vanish identically.
    """
    def moment(d, c, s):
        return complex(_chain_moment(bform, c, d, s, 0j))

    chains = [list(c) for c in chains]
    out = []
    while chains:
        kappa = max(len(c) for c in chains)
        tops = [i for i, c in enumerate(chains) if len(c) == kappa]
        nrm = max(1.0, max(frobenius_norm(v) for c in chains for v in c))
        # lead[b, a] = phi(top_b, eig_a) over the top chains, -lead[a, b] in
        # exact arithmetic.  The pair is the first largest |lead[a, b]| +
        # |lead[b, a]| above the diagonal, and its lower index is c, so no
        # rounding of two equal moduli orients it
        lead = np.abs(bform(np.array([chains[i][-1] for i in tops]),
                            np.column_stack([chains[i][0] for i in tops])))
        pair = np.triu(lead + lead.T, 1)
        if pair.max() <= 2 * DEGENERATE_FACTOR * nrm * nrm:
            raise RankAmbiguous("degenerate symplectic pairing of chains")
        a, b = np.unravel_index(np.argmax(pair), pair.shape)
        d = chains.pop(tops[b])
        c = chains.pop(tops[a])
        k = kappa
        d = [v / moment(d, c, k + 1) for v in d]
        for t in range(1, k):
            beta = -moment(d, c, k + 1 + t)
            for idx in range(t, k):
                d[idx] = d[idx] + beta * d[idx - t]
        for e in chains:
            l = len(e)
            for t in range(l):
                gamma = moment(e, c, k + 1 + t)
                for idx in range(t, l):
                    e[idx] = e[idx] - gamma * d[idx - t]
            for t in range(l):
                gamma = -moment(e, d, k + 1 + t)
                for idx in range(t, l):
                    e[idx] = e[idx] - gamma * c[idx - t]
        out.append((c, d))
    return out


# ---------------------------------------------------------------------------
# the canonicalization engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reduction:
    """What the canonicalization engine found for a pair (B, H) in Omega_2n.

    spec holds the sorted canonical blocks of the kept clusters, similarity
    their columns S = [C | -chi(C)] (square only when every cluster is
    kept) and h_canonical the H of materialize_pair(spec).  schur is
    B = Z T Z^* with the kept clusters' eigenvalues in the first `lead`
    places of diag(T); clusters lists every cluster, snapped, with its
    members on that diagonal.  residuals are those of B and H against the
    canonical pair, which the gate accepted.  The m = 1 branch of
    roots.reduce_pair takes no Schur form: its Reduction holds only the
    checked pair, with no blocks or columns, schur None, lead 0 and no
    clusters.
    """

    b: np.ndarray
    h: np.ndarray
    spec: CanonicalSpec
    similarity: np.ndarray
    h_canonical: np.ndarray
    schur: tuple[np.ndarray, np.ndarray] | None
    lead: int
    clusters: tuple[_Cluster, ...]
    residuals: tuple[float, float]


def _empty_reduction(barr: np.ndarray, harr: np.ndarray, schur=None, lead: int = 0,
                     clusters: tuple = ()) -> Reduction:
    """The Reduction of a pair whose kept clusters hold no block."""
    return Reduction(barr, harr, CanonicalSpec(()), np.zeros((len(barr), 0), dtype=complex),
                     np.zeros((0, 0), dtype=complex), schur, lead, clusters, (0.0, 0.0))


def canonicalize_pair(b, h, tol: float = DEFAULT_TOL) -> tuple[OmegaMatrix, CanonicalSpec]:
    """Reduce an H-selfadjoint pair in Omega_2n to canonical form.

    Returns (S, spec) with S in Omega_2n, S^-1 B S and S^* H S equal to
    materialize_pair(spec) within the residual tolerance, and spec sorted
    canonically.
    """
    barr = b.array if isinstance(b, OmegaMatrix) else OmegaMatrix(b).array
    harr = h.array if isinstance(h, OmegaMatrix) else OmegaMatrix(h).array
    red = _canonicalize(barr, harr, tol)
    return OmegaMatrix(red.similarity, check=False), red.spec


def _canonicalize(barr: np.ndarray, harr: np.ndarray, tol: float, keep=None) -> Reduction:
    """The canonicalization engine, on the eigenvalue clusters keep selects.

    Checks the pair (_check_pair) and takes one Schur form B = Z T Z^*.
    keep(c) says whether the cluster with snapped centroid c is
    canonicalized; None keeps every cluster, a solve only real ones.  Each
    kept cluster with Im c >= 0, in the order of its first place on the
    diagonal, is moved to the lead of the form the previous one left
    (ztrsen, none of it when it leads already) and deflated there: its
    columns are Z[:, :k] and its nilpotent part T[:k, :k] - cI.  The last
    form has every kept cluster in its lead (Im < 0 ones are never moved,
    so only with keep None), where the root of the rest reads it off.
    """
    _check_pair(barr, harr, tol)
    n = barr.shape[0] // 2
    radius = _cluster_radius(barr)
    schur = lapack.schur(barr)
    clusters = _cluster_eigenvalues(np.diag(schur[0]), radius)
    kept = [c for c in clusters if keep is None or keep(c.centroid)]
    lead = sum(c.mult for c in kept)
    nonreal = [c for c in kept if c.centroid.imag > 0]
    # the mate is the nearest conjugate cluster; a neighbour's conjugate
    # may lie within 2*radius as well
    for c in nonreal:
        gaps = [(abs(np.conj(d.centroid) - c.centroid), d.mult) for d in clusters
                if d.centroid.imag < -radius]
        gap, mult = min(gaps, default=(np.inf, 0))
        if gap > 2 * radius or mult != c.mult:
            raise ClusterOverlap("conjugate eigenvalue clusters do not match")
    if any(c.mult % 2 for c in kept if c.centroid.imag == 0):
        raise ClusterOverlap("real eigenvalue multiplicity must be even in Omega")

    hk = np.conj(np.hstack([-harr[:, n:], harr[:, :n]])) if nonreal else None  # conj(H) K
    place = np.arange(2 * n)  # each eigenvalue's place on the diagonal of the current form
    entries = []  # (CanonicalBlock, columns) in extraction order
    for c in sorted((c for c in kept if c.centroid.imag >= 0), key=lambda c: c.members.min()):
        k = c.mult
        select = np.zeros(2 * n, dtype=bool)
        select[place[c.members]] = True
        schur = _reorder(schur, select)
        # ztrsen keeps the order within the selected and within the other eigenvalues
        place = np.where(select, np.cumsum(select) - 1, k + np.cumsum(~select) - 1)[place]
        q1, nd = schur[1][:, :k], schur[0][:k, :k] - c.centroid * np.eye(k, dtype=complex)
        if c.centroid.imag == 0:
            x_c = q1.conj().T @ chi(q1)
            partner = lambda v, _x=x_c: _x @ np.conj(v)
            g_c = q1.conj().T @ harr @ q1
            chains = _nilpotent_chains(nd, k, partner=partner)
            for eta, chain in _normalize_hermitian_chains(chains, g_c, partner):
                cols = q1 @ np.column_stack(chain)
                entries.append((CanonicalBlock(c.centroid, len(chain), eta), cols))
        else:
            phi = q1.T @ hk @ q1
            bform = lambda x, y, _p=phi: x @ (_p @ y)
            chains = _nilpotent_chains(nd, k)
            for cc, dd in _normalize_symplectic_chains(chains, bform):
                u_cols = q1 @ np.column_stack(dd)
                w_cols = chi(q1 @ np.column_stack(cc))
                entries.append((CanonicalBlock(c.centroid, len(cc), None),
                                np.hstack([u_cols, w_cols])))
    clusters = tuple(_Cluster(c.centroid, c.mult, place[c.members]) for c in clusters)
    if not entries:
        return _empty_reduction(barr, harr, schur, lead, clusters)

    entries.sort(key=lambda e: e[0].sort_key())
    blocks = tuple(e[0] for e in entries)
    cmat = np.hstack([e[1] for e in entries])
    # the chains of a kept cluster fill its share of the columns by
    # construction; only the full set can miss an unmatched conjugate cluster
    if keep is None and cmat.shape[1] != n:
        raise ClusterOverlap(
            f"collected {cmat.shape[1]} canonical columns, expected {n}")
    s = np.hstack([cmat, -chi(cmat)])
    spec = CanonicalSpec(blocks)

    bm, hm = materialize_pair(spec)
    if keep is None:
        res_b = frobenius_norm(np.linalg.solve(s, barr @ s) - bm.array)
    else:
        res_b = frobenius_norm(barr @ s - s @ bm.array)
    res_h = frobenius_norm(s.conj().T @ harr @ s - hm.array)
    limit = tol * max(1.0, frobenius_norm(barr)) + tol * max(1.0, frobenius_norm(harr))
    if not np.isfinite(res_b + res_h) or res_b + res_h > limit:
        raise RankAmbiguous(
            f"canonicalization residual {res_b + res_h:.3e} exceeds {limit:.3e}")
    return Reduction(barr, harr, spec, s, hm.array, schur, lead, clusters, (res_b, res_h))
