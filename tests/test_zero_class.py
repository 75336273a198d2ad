"""The zero-class decision against the exhaustive search it replaced.

_iter_partitions and _oracle_zero_plan walk every grouping of the zero
blocks into m-tuples and, for each, every sign choice eta, and return the
first fit.  That walk is exponential in the block count; the library's
program over sizes must give the same decisions, certificates and
witnesses on every small spec, and decide large ones at once.
"""

import itertools
import json
import time

import pytest

import qroot.cli
from qroot.canonical import CanonicalBlock, CanonicalSpec, materialize_pair
from qroot.omega import omega_extract, omega_project
from qroot.quaternion import QuatMatrix
from qroot.roots import (Certificate, MTuple, _build_canonical_root, _classify_and_plan,
                         _group_plus_demand, _tuple_epsilons, root_exists,
                         sign_pattern_check)
from qroot.verify import verify_root


def _iter_partitions(sizes, m):
    """All groupings of the size multiset into m-tuples {a+1 (x r), a (x m-r)}.

    Deterministic order: largest remaining size first, larger r first, so the
    first emitted partition is the greedy largest-first grouping.
    """
    if not sizes:
        yield []
        return
    counts = {}
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


def _oracle_zero_plan(zero_blocks, m):
    """The first (grouping, eta) that fits, or a refusal Certificate."""
    sizes = tuple(sorted((b.size for b in zero_blocks), reverse=True))
    plus_avail = {}
    for b in zero_blocks:
        if b.sign == 1:
            plus_avail[b.size] = plus_avail.get(b.size, 0) + 1
    found_partition = False
    for partition in _iter_partitions(sizes, m):
        found_partition = True
        for etas in itertools.product((1, -1), repeat=len(partition)):
            demand = {}
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


@pytest.mark.parametrize("m", [2, 3, 4])
def test_zero_plan_agrees_with_the_exhaustive_search(m):
    # every spec of at most 8 zero blocks of sizes 1-4 with either sign
    kinds = [(size, sign) for size in range(1, 5) for sign in (1, -1)]
    admitted = 0
    for count in range(1, 9):
        for combo in itertools.combinations_with_replacement(kinds, count):
            spec = CanonicalSpec(tuple(CanonicalBlock(0.0, s, e) for s, e in combo))
            plan = _classify_and_plan(spec, m)
            got = plan.certificate or plan.zero_tuples
            assert got == _oracle_zero_plan(list(spec.blocks), m), combo
            if plan.certificate:
                continue
            admitted += 1
            assert sign_pattern_check(got)[0], combo
            a1, a2, _ = omega_project(_build_canonical_root(spec, plan, m, 0))
            bm, hm = materialize_pair(spec)
            root = QuatMatrix.from_complex_pair(a1, a2)
            assert verify_root(root, omega_extract(bm.array), omega_extract(hm.array), m).passed
    assert admitted > 0


def _decide_timed(blocks, m):
    start = time.perf_counter()
    decision = root_exists(CanonicalSpec(tuple(blocks)).sorted(), m)
    return decision, time.perf_counter() - start


@pytest.mark.parametrize("m", [2, 3])
def test_forty_zero_blocks_decide_at_once(m, tmp_path, capsys):
    # the exhaustive search took 4.1 s at 14 such blocks and 37 s at 16
    blocks = [CanonicalBlock(0.0, 1, 1)] * 40
    decision, seconds = _decide_timed(blocks, m)
    assert decision.exists and seconds < 0.5
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(CanonicalSpec(tuple(blocks)).to_json()))
    start = time.perf_counter()
    assert qroot.cli.main(["check", "--m", str(m), "--format", "spec", "--in", str(path)]) == 0
    assert time.perf_counter() - start < 0.5
    assert json.loads(capsys.readouterr().out) == {"exists": True, "certificate": None}


def test_a_zero_sign_refusal_decides_at_once():
    # the exhaustive search walked every grouping and sign: 1.2 s at 12 minus blocks
    blocks = [CanonicalBlock(0.0, 2, 1)] * 2 + [CanonicalBlock(0.0, 1, -1)] * 20
    decision, seconds = _decide_timed(blocks, 2)
    assert decision.certificate.kind == "SignPatternViolation" and seconds < 0.5


@pytest.mark.parametrize("sizes, kind", [((10**9, 10**9 - 1), None),
                                         ((10**9,), "SegreTupleMismatch")])
def test_a_billion_sized_zero_block_decides_at_once(sizes, kind, tmp_path, capsys):
    # the program over every size from the largest block down took 21 s at
    # J_N(0)+ + J_(N-1)(0)+ with N = 10^6; only sizes holding blocks matter
    blocks = [CanonicalBlock(0.0, s, 1) for s in sizes]
    decision, seconds = _decide_timed(blocks, 2)
    assert decision.exists == (kind is None) and seconds < 0.5
    assert kind is None or decision.certificate.kind == kind
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(CanonicalSpec(tuple(blocks)).to_json()))
    start = time.perf_counter()
    assert qroot.cli.main(["check", "--m", "2", "--format", "spec", "--in", str(path)]) == (
        0 if kind is None else 2)
    assert time.perf_counter() - start < 0.5
    assert json.loads(capsys.readouterr().out) == decision.to_json()
