"""Seeded instance pools for the benchmark workloads.

Every instance is built the way ``qroot.verify.random_instance`` builds one:
draw a canonical spec, materialize it with ``materialize_pair`` and scramble
it with a similarity from ``omega_similarity``.  Unlike the generator, the
pools here go past its cap of 16 per copy.  The program only ever sees the
scrambled (B, H); the generating spec and the gate's decision on it stay with
the benchmark for the correctness check.

Pool composition (n, m and refusal slots) follows a fixed schedule, so
every seed draws the same mix; the seed picks eigenvalues, block sizes, signs
and scramblers.  Sizes follow a van der Corput sequence so that any prefix of
a pool covers its n range evenly.  Why each workload exists is in WHY.

Every instance of a timed pool solves at this commit.  Inputs that hit a
known defect are not timed: each run solves a small probe of them (see
build_probe and DEFECTS) and reports how many still fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median

import numpy as np

from qroot import (CanonicalBlock, CanonicalSpec, QuatMatrix, RootDecision,
                   materialize_pair, omega_extract, random_instance, root_exists)
from qroot.verify import omega_similarity

# The README's stock generator profile; m is set per instance.
STOCK_PROFILE = {"classes": ["positive", "negative", "nonreal", "zero"],
                 "max_size": 8, "force": "any"}

# Why each workload exists (BENCHMARK.json lists the ones a regression gate
# runs; pipe is left out there, see run.py).
WHY = {
    "spread": "many distinct eigenvalues, n 24-64, blocks of 1-2: per-cluster Schur "
              "deflation dominates; tight spectra run as an untimed known-defect probe",
    "deep": "few eigenvalues, blocks of 3-6 (zero <= 2, negative <= 3), n 12-32, a third refusals: "
            "chains, Gram work and the recursive builder canonicalizations dominate",
    "pipe": "gen | root | verify on the stock generator profile, one process per command: "
            "interpreter start-up and imports dominate",
}

# Large enough that one run's median and tail hardly depend on the seed
# (a 24-instance spread pool moved its median by about 10% between seeds).
POOL_SIZE = {"spread": 48, "deep": 90, "pipe": 90}

# Known defects at this commit, by the probe label that draws them.
DEFECTS = {
    "gap": "two simple real eigenvalues 0.1-0.3 apart at n >= 24: ClusterOverlap "
           "once the gap is under the fixed cluster radius (ROADMAP item 2)",
    "near_axis": "a simple nonreal eigenvalue with |Re| about 0.1 at n >= 24: "
                 "ClusterOverlap after the centroid snaps to the axis (ROADMAP item 2)",
    "negative_even_m4": "+- pairs at a negative eigenvalue with m = 4: RankAmbiguous, "
                        "from root_block_negative_even's recursive canonicalization for "
                        "J_6 and J_3 pairs at -4.2..-4.8 (these probes), and from a root "
                        "residual over 1e-8 in about 1 of 2000 smaller ones (ROADMAP item 3)",
    "zero_large": "an admissible zero m-tuple with blocks of 5-6, m 3-4: the root's "
                  "residual comes near the 1e-8 limit and sometimes fails it "
                  "(RankAmbiguous); blocks of 3 already do about once in 10^4",
}
PROBES = {"spread": ("gap", "gap", "near_axis", "near_axis"),
          "deep": ("negative_even_m4", "negative_even_m4", "zero_large", "zero_large"),
          "pipe": ()}


@dataclass(frozen=True)
class Instance:
    index: int
    b: QuatMatrix
    h: QuatMatrix
    m: int
    spec: CanonicalSpec
    expected: RootDecision
    defect: str | None = None    # the DEFECTS label of a probe instance
    gen_seed: int | None = None  # seed `qroot gen` reproduces this from

    @property
    def n(self) -> int:
        return self.b.n_rows

    def payload(self) -> dict:
        """The JSON document `qroot root` reads."""
        return {"B": self.b.to_json(), "H": self.h.to_json(), "m": self.m}


def _vdc(i: int) -> float:
    """Base-2 van der Corput point of i in [0, 1)."""
    x, denom = 0.0, 1.0
    while i:
        denom *= 2.0
        x += (i & 1) / denom
        i >>= 1
    return x


def _scrambled(rng, spec: CanonicalSpec) -> tuple[QuatMatrix, QuatMatrix]:
    bm, hm = materialize_pair(spec)
    n = bm.half_n
    t = omega_similarity(rng, n, cond_cap=max(100.0, 4.0 * n))
    b = np.linalg.solve(t, bm.array @ t)
    h = t.conj().T @ hm.array @ t
    h = 0.5 * (h + h.conj().T)
    loose = 1e-8 * max(1.0, float(np.max(np.abs(b))))
    return omega_extract(b, tol=loose), omega_extract(h, tol=loose)


def _instance(rng, index: int, blocks, m: int, defect: str | None = None) -> Instance:
    spec = CanonicalSpec(tuple(blocks)).sorted()
    b, h = _scrambled(rng, spec)
    return Instance(index, b, h, m, spec, root_exists(spec, m), defect)


def _sign(rng) -> int:
    return int(rng.choice([-1, 1]))


def _jitter(rng, lam: complex) -> complex:
    return complex(lam.real + 0.1 * (rng.random() - 0.5),
                   lam.imag + (0.1 * (rng.random() - 0.5) if lam.imag else 0.0))


# Eigenvalue grids: neighbours sit 0.6 apart and nonreal values at least 0.8
# from the real axis and 0.6 from the imaginary one, well outside the
# clustering radius (about 0.25 once 2n >= 16) even after jitter.
_POSITIVE = [0.6 * j for j in range(1, 9)]
_NEGATIVE = [-x for x in _POSITIVE]
_NONREAL = [complex(re, im) for re in (-2.4, -1.8, -1.2, -0.6, 0.6, 1.2, 1.8, 2.4)
            for im in (0.8, 1.4, 2.0, 2.6)]


def _block_width(lam: complex, k: int, m: int) -> int:
    """Copy width of one draw: nonreal blocks and negative +- pairs (m even) take 2k."""
    if lam.imag or (lam.real < 0 and m % 2 == 0):
        return 2 * k
    return k


def _blocks_at(lam: complex, k: int, m: int, rng) -> list[CanonicalBlock]:
    if lam.imag:
        return [CanonicalBlock(lam, k, None)]
    if lam.real < 0 and m % 2 == 0:
        return [CanonicalBlock(lam.real, k, 1), CanonicalBlock(lam.real, k, -1)]
    return [CanonicalBlock(lam.real, k, _sign(rng))]


def _fill(rng, lams: list[complex], budget: int, m: int, sizes: tuple[int, int],
          filler: float, negative_max: int | None = None) -> list[CanonicalBlock]:
    """Blocks of size in `sizes` at the eigenvalues `lams` filling `budget` exactly.

    Every eigenvalue first gets one block of the smallest size, so each one
    is present; what no block fits is topped up at the positive `filler`.
    Blocks at negative eigenvalues are at most `negative_max`.
    """
    blocks: list[CanonicalBlock] = []
    turn = 0
    while budget > 0:
        first = turn < len(lams)
        lam = lams[turn] if first else lams[int(rng.integers(len(lams)))]
        turn += 1
        k = sizes[0] if first else int(rng.integers(sizes[0], sizes[1] + 1))
        if negative_max is not None and not lam.imag and lam.real < 0:
            k = min(k, negative_max)
        while k > 1 and _block_width(lam, k, m) > budget:
            k -= 1
        if _block_width(lam, k, m) > budget:
            lam, k = complex(filler), min(budget, sizes[1])
        blocks += _blocks_at(lam, k, m, rng)
        budget -= _block_width(lam, k, m)
    return blocks


# ---------------------------------------------------------------------------
# spread: many distinct eigenvalues, Jordan blocks of size 1-2
# ---------------------------------------------------------------------------

def spread_instance(rng, index: int, tight: str | None = None) -> Instance:
    """A timed instance, or with `tight` ("gap" or "near_axis") a probe one."""
    n = min(64, 24 + round(40 * _vdc(index) * 16 / 15))
    m = 2 + index % 2
    # the slot fixes how many eigenvalues of each class there are
    clusters = max(6, n // 4)
    n_neg = (clusters - 2) // 4
    n_pos = 2 + n_neg
    picks = (list(rng.permutation(_POSITIVE)[:n_pos]) + list(rng.permutation(_NEGATIVE)[:n_neg])
             + [_NONREAL[i] for i in rng.permutation(len(_NONREAL))[:clusters - n_pos - n_neg]])
    lams = [_jitter(rng, complex(x)) for x in picks]
    blocks: list[CanonicalBlock] = []
    if tight == "gap":
        # two simple positive eigenvalues 0.1-0.3 apart, off the grid
        lam0 = 5.4 + 0.2 * rng.random()
        gap = 0.1 + 0.2 * rng.random()
        blocks += [CanonicalBlock(lam0, 1, _sign(rng)), CanonicalBlock(lam0 + gap, 1, _sign(rng))]
    elif tight == "near_axis":
        # a simple nonreal eigenvalue with |Re| about 0.1
        re = float(rng.choice([-1.0, 1.0])) * (0.09 + 0.02 * rng.random())
        blocks.append(CanonicalBlock(complex(re, 1.4 + 0.6 * rng.random()), 1, None))
    budget = n - sum(b.copy_width() for b in blocks)
    blocks += _fill(rng, lams, budget, m, (1, 2), lams[0].real)
    return _instance(rng, index, blocks, m, tight)


# ---------------------------------------------------------------------------
# deep: few eigenvalues, Jordan blocks of size 3-6, a third refusals
# ---------------------------------------------------------------------------

def _tuple_signs(count: int, eta: int) -> list[int]:
    """Half-and-half sign rule for one size group of an m-tuple, eta first."""
    n_eta = (count + 1) // 2
    return [eta] * n_eta + [-eta] * (count - n_eta)


def _zero_tuple(rng, m: int, a_lo: int, a_hi: int, budget: int) -> list[CanonicalBlock]:
    """One admissible m-tuple: r blocks of size a+1 and m-r of size a, a_lo <= a <= a_hi."""
    a = int(rng.integers(a_lo, max(a_lo, min(a_hi, (budget - 1) // m)) + 1))
    r = int(rng.integers(1, min(m, budget - a * m) + 1)) if budget > a * m else 1
    eta = _sign(rng)
    sizes = [a + 1] * r + [a] * (m - r)
    signs = _tuple_signs(r, eta) + _tuple_signs(m - r, eta)
    return [CanonicalBlock(0.0, s, e) for s, e in zip(sizes, signs)]


def _refusal_core(rng, kind: str, m: int, budget: int, neg: float) -> list[CanonicalBlock]:
    if kind == "NegativeSignPairing":  # m even: two equal blocks at neg, equal signs
        k = int(rng.integers(3, min(6, budget // 2) + 1))
        sign = _sign(rng)
        return [CanonicalBlock(neg, k, sign), CanonicalBlock(neg, k, sign)]
    if kind == "SignPatternViolation":  # m equal zero blocks, all one sign
        k = int(rng.integers(2, max(2, min(6, budget // m)) + 1))
        sign = _sign(rng)
        return [CanonicalBlock(0.0, k, sign) for _ in range(m)]
    # SegreTupleMismatch: a block of size k with m-1 blocks of size k-2
    k = int(rng.integers(3, max(3, min(6, (budget + 2 * (m - 1)) // m)) + 1))
    return ([CanonicalBlock(0.0, k, _sign(rng))]
            + [CanonicalBlock(0.0, k - 2, _sign(rng)) for _ in range(m - 1)])


# The timed deep pool keeps admitted zero blocks at 2 or less, negative ones
# at 3 or less with |lambda| <= 3.05, and no negative eigenvalue when m = 4:
# past that the zero_large and negative_even_m4 defects (DEFECTS) make some
# seeds' pools fail (zero tuples with blocks of 3 already reach a residual
# of 1e-8 about once in 10^4).  Refusals are decided at the gate and keep
# blocks up to 6.
_DEEP_ZERO_A = 1  # largest a of an admitted zero m-tuple
_DEEP_NEGATIVE_MAX = 3


def deep_instance(rng, index: int) -> Instance:
    slot = index % 9
    n = 12 + round(20 * _vdc(index))
    m = 2 + slot % 3
    refuse = slot // 3 == 2
    # one grid point per class, so no two eigenvalues sit closer than 0.5;
    # nonreal ones from the grid's middle columns, 0.6 <= |Re| <= 1.2
    pos, neg, nonreal = (_jitter(rng, complex(rng.choice(grid)))
                         for grid in (_POSITIVE, _NEGATIVE[:5], _NONREAL[8:24]))
    blocks: list[CanonicalBlock] = []
    if refuse:
        kinds = ["SegreTupleMismatch", "SignPatternViolation"]
        if m % 2 == 0:
            kinds.append("NegativeSignPairing")
        blocks += _refusal_core(rng, kinds[(index // 9) % len(kinds)], m, n - 3, neg.real)
    elif rng.random() < 0.7:
        blocks += _zero_tuple(rng, m, 1, _DEEP_ZERO_A, n - 3)
    others = [nonreal] if m == 4 else [neg, nonreal]
    lams = [pos] + [others[i] for i in
                    rng.permutation(len(others))[:int(rng.integers(1, len(others) + 1))]]
    budget = n - sum(b.copy_width() for b in blocks)
    blocks += _fill(rng, lams, budget, m, (3, 6), pos.real, _DEEP_NEGATIVE_MAX)
    return _instance(rng, index, blocks, m)


def deep_defect_instance(rng, index: int, defect: str) -> Instance:
    """A probe instance of the "negative_even_m4" or "zero_large" defect."""
    if defect == "negative_even_m4":
        m = 4
        lam = -(4.2 + 0.6 * rng.random())
        blocks = [CanonicalBlock(lam, k, sign) for k in (6, 3) for sign in (1, -1)]
    else:
        m = 3 + index % 2
        blocks = _zero_tuple(rng, m, 4, 5, 6 * m)
    pos = _jitter(rng, complex(rng.choice(_POSITIVE))).real
    return _instance(rng, index, blocks + [CanonicalBlock(pos, 3, _sign(rng))], m, defect)


# ---------------------------------------------------------------------------
# pipe: the stock generator profile, reproducible by `qroot gen`
# ---------------------------------------------------------------------------

def pipe_instance(seed: int, index: int) -> Instance:
    m = 2 + index % 3
    gen_seed = seed * 1000 + index
    b, h, spec = random_instance(gen_seed, {**STOCK_PROFILE, "m": m})
    return Instance(index, b, h, m, spec, root_exists(spec, m), None, gen_seed)


def build_pool(workload: str, seed: int, size: int | None = None) -> list[Instance]:
    size = POOL_SIZE[workload] if size is None else size
    if workload == "pipe":
        return [pipe_instance(seed, i) for i in range(size)]
    make = spread_instance if workload == "spread" else deep_instance
    rng = np.random.default_rng([seed, len(workload)])
    return [make(rng, i) for i in range(size)]


def build_probe(workload: str, seed: int) -> list[Instance]:
    """The workload's known-defect instances (PROBES), seeded apart from its pool."""
    make = spread_instance if workload == "spread" else deep_defect_instance
    rng = np.random.default_rng([seed, len(workload), 1])
    return [make(rng, i, defect) for i, defect in enumerate(PROBES[workload])]


# ---------------------------------------------------------------------------
# pool properties
# ---------------------------------------------------------------------------

def cluster_count(spec: CanonicalSpec) -> int:
    """Distinct eigenvalues per copy, a conjugate pair counted once.

    canonicalize_pair deflates one Schur cluster per such eigenvalue.
    """
    return len({(round(b.lam.real, 9), round(b.lam.imag, 9)) for b in spec.blocks})


def block_class(block: CanonicalBlock) -> str:
    if not block.is_real:
        return "nonreal"
    if block.lam.real == 0:
        return "zero"
    return "positive" if block.lam.real > 0 else "negative"


def properties(pool: list[Instance]) -> dict:
    """Measured share of each property across a pool."""
    total = len(pool)

    def summary(values):
        return {"min": min(values), "median": median(values), "max": max(values)}

    def share(pred):
        return round(sum(1 for inst in pool if pred(inst)) / total, 4)

    return {
        "instances": total,
        "n": summary([inst.n for inst in pool]),
        "m": {str(m): share(lambda inst, m=m: inst.m == m)
              for m in sorted({inst.m for inst in pool})},
        "clusters": summary([cluster_count(inst.spec) for inst in pool]),
        "largest_block": summary([max(b.size for b in inst.spec.blocks) for inst in pool]),
        "class_share": {c: share(lambda inst, c=c: any(block_class(b) == c
                                                      for b in inst.spec.blocks))
                        for c in ("positive", "negative", "nonreal", "zero")},
        "refusal_share": share(lambda inst: not inst.expected.exists),
        "refusal_kinds": sorted({inst.expected.certificate.kind for inst in pool
                                 if not inst.expected.exists}),
    }
