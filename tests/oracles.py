"""Test oracles that no solve or command runs: each checks a library rule another way."""

from collections import Counter

import numpy as np
import scipy.linalg

from qroot.canonical import DEGENERATE_FACTOR, _chain_moment, _Imaged
from qroot.errors import RankAmbiguous
from qroot.roots import _zero_grouping


def segre(m, lam: complex) -> tuple[int, ...]:
    """The Jordan block sizes of m at lam, largest first, from ranks alone.

    The eigenvalues within 0.25 of lam, which covers the scatter of a
    defective block's computed eigenvalues on the tests' matrices, lead a
    sorted complex Schur form (scipy's).  Numpy's SVD ranks the powers of
    the leading block minus lam I: the kernel of the p-th power grows by
    the number of blocks of size p or more.  An AssertionError says that
    block is not nilpotent.
    """
    m = np.asarray(m, dtype=complex)
    t, _, k = scipy.linalg.schur(m, output="complex", sort=lambda x: abs(x - lam) <= 0.25)
    n_mat = t[:k, :k] - lam * np.eye(k)
    dims, power = [0], np.eye(k, dtype=complex)
    while dims[-1] < k:
        power = power @ n_mat
        s = np.linalg.svd(power, compute_uv=False)
        dims.append(k - int(np.sum(s > 1e-8 * max(1.0, s[0]))))
        assert dims[-1] > dims[-2], f"no Jordan structure at {lam}: kernel dimensions {dims}"
    at_least = [b - a for a, b in zip(dims, dims[1:])] + [0]  # blocks of size >= p
    return tuple(p for p in range(len(dims) - 1, 0, -1)
                 for _ in range(at_least[p - 1] - at_least[p]))


def power_segre_oracle(k: int, m: int) -> tuple[int, ...]:
    """Segre of (J_k(0))^m computed by the closed form and by rank staircase.

    The two routes must agree (k = a*m + r with 0 < r <= m gives r blocks of
    size a+1 and m-r of size a); an AssertionError names a disagreement.
    """
    a = (k - 1) // m
    r = k - a * m
    closed = tuple(sorted([a + 1] * r + ([a] * (m - r) if a > 0 else []),
                          reverse=True))
    shift = np.eye(k, k, 1)
    staircase = segre(np.linalg.matrix_power(shift, m) if m < k else np.zeros((k, k)), 0.0)
    assert staircase == closed, (
        f"power Segre mismatch for k={k}, m={m}: closed {closed}, staircase {staircase}")
    return closed


def spec_matches(got, want, lam_tol: float = 1e-6) -> bool:
    """Whether two canonical specs hold the same blocks up to order, eigenvalues within lam_tol.

    Each block of got takes the remaining block of want of the same size
    and sign whose eigenvalue is nearest.
    """
    rest = list(want.blocks)
    if len(got.blocks) != len(rest):
        return False
    for x in got.blocks:
        cands = [i for i, y in enumerate(rest)
                 if y.size == x.size and y.sign == x.sign and abs(y.lam - x.lam) <= lam_tol]
        if not cands:
            return False
        rest.pop(min(cands, key=lambda i: abs(rest[i].lam - x.lam)))
    return True


def m_tuple_partition(parts: tuple[int, ...], m: int) -> list[tuple[int, int]] | None:
    """The first grouping of one copy's zero Segre into m-tuples, as [(a, r)], or None.

    It reads the library's program over sizes with the signs left free.
    """
    grouping = _zero_grouping(Counter(parts), None, m)
    return None if grouping is None else [(a, r) for a, r, _ in grouping]


def smith_root(t: np.ndarray, mu: np.ndarray, m: int) -> np.ndarray:
    """Upper triangular U with U^m = T and diag(U) = mu, by every power U^q for q < m.

    The reference for the library's _smith_root, which walks m's binary chain.

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


def _qs_abs(q):
    return float(np.sqrt(abs(q[0]) ** 2 + abs(q[1]) ** 2))


def pair_search_normalize(chains, g, partner, folds=None):
    """The Gram normalization with each round's pivot found pair by pair.

    It evaluates the leading moment of every ordered pair of top chains,
    self pairs first; the library reads the same choice off one matrix.  A
    fold takes the first largest sum of the two cross moduli over the pairs
    i < j, in row-major order, and folds chain j into chain i.  Each fold
    (i, j) is appended to folds.
    """
    def form(x, y):
        return (complex(np.vdot(y.v, x.gv)), complex(np.vdot(y.pv, x.gv)))

    def moment(c, d, s):
        return _chain_moment(form, c, d, s, (0j, 0j))

    def rmul(x, q):
        return q[0] * x.v + q[1] * x.pv

    def imaged(v):
        return _Imaged(v, g, partner)

    chains = [[imaged(v) for v in c] for c in chains]
    out = []
    while chains:
        kappa = max(len(c) for c in chains)
        tops = [i for i, c in enumerate(chains) if len(c) == kappa]
        scale = max(max(np.linalg.norm(x.v) for x in c) for c in chains) ** 2
        best_self = (0.0, None)
        for i in tops:
            h = _qs_abs(moment(chains[i], chains[i], kappa + 1))
            if h > best_self[0]:
                best_self = (h, i)
        peak, best_pair = best_self[0], (0.0, None, None)
        for a, i in enumerate(tops):
            for j in tops[a + 1:]:
                m_ij = _qs_abs(moment(chains[i], chains[j], kappa + 1))
                m_ji = _qs_abs(moment(chains[j], chains[i], kappa + 1))
                peak = max(peak, m_ij, m_ji)
                if m_ij + m_ji > best_pair[0]:
                    best_pair = (m_ij + m_ji, i, j)
        if peak <= DEGENERATE_FACTOR * max(1.0, scale):
            raise RankAmbiguous("degenerate leading moments in Gram normalization")
        if best_self[0] >= 0.1 * peak:
            i = best_self[1]
        else:
            _, i, j = best_pair
            if folds is not None:
                folds.append((i, j))
            m = moment(chains[i], chains[j], kappa + 1)
            a = _qs_abs(m)
            q = (np.conj(m[0]) / a, -m[1] / a)
            for idx in range(kappa):
                chains[i][idx] = imaged(chains[i][idx].v + rmul(chains[j][idx], q))
        c = chains.pop(i)
        k = len(c)
        h = moment(c, c, k + 1)[0].real
        eta = 1 if h > 0 else -1
        s = (complex(1.0 / np.sqrt(abs(h))), 0j)
        c = [imaged(rmul(x, s)) for x in c]
        for t in range(1, k):
            alpha = -moment(c, c, k + 1 + t)[0].real / (2.0 * eta)
            for idx in range(t, k):
                c[idx] = imaged(c[idx].v + alpha * c[idx - t].v)
        for d in chains:
            l = len(d)
            for t in range(l):
                q = tuple(x / eta for x in moment(c, d, k + 1 + t))
                for idx in range(t, l):
                    d[idx] = imaged(d[idx].v - rmul(c[idx - t], q))
        out.append((eta, [x.v for x in c]))
    return out


def pair_loop_symplectic(chains, bform, picks=None):
    """The symplectic pairing with each round's pair found pair by pair.

    It evaluates |phi(top_b, eig_a)| + |phi(top_a, eig_b)| for every pair
    a < b of top chains, in row-major order, keeps the first largest and
    makes chain a the c of the pair; the library reads the same choice off
    one matrix.  Each pick (a, b), as places among the top chains, is
    appended to picks.
    """
    def moment(d, c, s):
        return complex(_chain_moment(bform, c, d, s, 0j))

    chains = [list(c) for c in chains]
    out = []
    while chains:
        kappa = max(len(c) for c in chains)
        tops = [i for i, c in enumerate(chains) if len(c) == kappa]
        scale = max(max(np.linalg.norm(v) for v in c) for c in chains) ** 2
        best = (0.0, None, None)
        for a in range(len(tops)):
            for b in range(a + 1, len(tops)):
                m = (abs(moment(chains[tops[b]], chains[tops[a]], kappa + 1))
                     + abs(moment(chains[tops[a]], chains[tops[b]], kappa + 1)))
                if m > best[0]:
                    best = (m, a, b)
        if best[1] is None or best[0] <= 2 * DEGENERATE_FACTOR * max(1.0, scale):
            raise RankAmbiguous("degenerate symplectic pairing of chains")
        _, a, b = best
        if picks is not None:
            picks.append((a, b))
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
