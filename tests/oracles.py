"""Test oracles that no solve or command runs: each checks a library rule another way."""

from collections import Counter

import numpy as np

from qroot.canonical import SegreSequence
from qroot.roots import _zero_grouping


def power_segre_oracle(k: int, m: int) -> SegreSequence:
    """Segre of (J_k(0))^m computed by the closed form and by rank staircase.

    The two routes must agree (k = a*m + r with 0 < r <= m gives r blocks of
    size a+1 and m-r of size a); an AssertionError names a disagreement.
    """
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

    assert staircase == closed, (
        f"power Segre mismatch for k={k}, m={m}: closed {closed}, staircase {staircase}")
    return SegreSequence(0.0, closed)


def m_tuple_partition(segre: SegreSequence, m: int) -> list[tuple[int, int]] | None:
    """The first grouping of one copy's zero Segre into m-tuples, as [(a, r)], or None.

    It reads the library's program over sizes with the signs left free.
    """
    grouping = _zero_grouping(Counter(segre.parts), None, m)
    return None if grouping is None else [(a, r) for a, r, _ in grouping]
