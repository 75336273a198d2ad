import sys
from collections import Counter

import numpy as np
import pytest
import scipy.linalg

from qroot.canonical import (CanonicalBlock, CanonicalSpec, block_diag,
                             jordan_block, materialize_pair, sip_matrix)
from qroot.errors import ClassMismatch, DimensionMismatch, SpecInvalid
from qroot.omega import omega_extract, omega_membership
from qroot.quaternion import QuatMatrix
from qroot.roots import (RootDecision, RootResult, assemble_root,
                         canonicalize_nilpotent_copy, mth_root, root_block_negative_even,
                         root_block_nilpotent, root_block_nonreal,
                         root_block_real, root_exists,
                         _classify_and_plan, _group_plus_demand, _primary_root,
                         _root_branch, _smith_root)
from qroot.verify import random_instance, verify_root

from lapack_sources import LAPACK_SOURCES, lapack_source  # noqa: F401
from oracles import m_tuple_partition, segre, smith_root, spec_matches


def quat_real(a):
    """The quaternion matrix with real entries a."""
    a = np.asarray(a, dtype=complex)
    return QuatMatrix.from_complex_pair(a, np.zeros_like(a))


def quat_scalar(value):
    return quat_real([[float(value)]])


def _copy_size(spec):
    """The order of one copy of the spec's canonical pair."""
    return sum(b.copy_width() for b in spec.blocks)


# -- gate ---------------------------------------------------------------------

def test_gate_positive_unconditional():
    spec = CanonicalSpec((CanonicalBlock(4.0, 2, 1),))
    assert root_exists(spec, 2).exists


def test_gate_negative_even_requires_pairing():
    spec = CanonicalSpec((CanonicalBlock(-1.0, 1, 1), CanonicalBlock(-1.0, 1, 1)))
    decision = root_exists(spec, 2)
    assert not decision.exists
    assert decision.certificate.kind == "NegativeSignPairing"


def test_gate_negative_odd_unconditional():
    spec = CanonicalSpec((CanonicalBlock(-1.0, 1, 1),))
    assert root_exists(spec, 3).exists


def test_gate_zero_sign_violation():
    spec = CanonicalSpec((CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 1, -1)))
    decision = root_exists(spec, 2)
    assert not decision.exists
    assert decision.certificate.kind == "SignPatternViolation"


def test_gate_zero_segre_mismatch():
    spec = CanonicalSpec((CanonicalBlock(0.0, 3, 1), CanonicalBlock(0.0, 1, 1)))
    decision = root_exists(spec, 2)
    assert not decision.exists
    assert decision.certificate.kind == "SegreTupleMismatch"


@pytest.mark.parametrize("blocks, kind", [
    # a positive eigenvalue far below 1e-8 of the largest one is not zero
    (((1e-9, 2, 1), (1.0, 1, 1)), None),
    (((5e-6, 2, 1), (1000.0, 1, 1)), None),
    # two distinct negative eigenvalues, each with one unpaired block
    (((-1.0, 1, 1), (-1.0 - 1e-9, 1, -1)), "NegativeSignPairing"),
], ids=["tiny_positive", "small_positive", "close_negatives"])
def test_gate_zero_and_pairing_are_exact_on_a_spec(blocks, kind):
    spec = CanonicalSpec(tuple(CanonicalBlock(*b) for b in blocks))
    decision = root_exists(spec, 2)
    assert decision.exists == (kind is None)
    if kind:
        assert (decision.certificate.kind, decision.certificate.lam) == (kind, -1.0)


def test_gate_m_one_always_exists():
    spec = CanonicalSpec((CanonicalBlock(-1.0, 1, 1), CanonicalBlock(-1.0, 1, 1)))
    assert root_exists(spec, 1).exists


def test_class_completeness_unconditional_specs():
    rng = np.random.default_rng(31)
    for trial in range(60):
        kind = trial % 3
        m = int(rng.integers(1, 6))
        if kind == 0:
            blocks = [CanonicalBlock(float(lam), int(rng.integers(1, 4)), int(rng.choice([-1, 1])))
                      for lam in rng.permutation([0.7, 1.5, 2.4])[: rng.integers(1, 3) + 1]]
        elif kind == 1:
            blocks = [CanonicalBlock(complex(0.5, 1.0 + i), int(rng.integers(1, 3)), None)
                      for i in range(int(rng.integers(1, 3)))]
        else:
            m = int(rng.choice([1, 3, 5]))
            blocks = [CanonicalBlock(float(lam), int(rng.integers(1, 4)), int(rng.choice([-1, 1])))
                      for lam in rng.permutation([-0.7, -1.5, -2.4])[: rng.integers(1, 3) + 1]]
        assert root_exists(CanonicalSpec(tuple(blocks)).sorted(), m).exists


# -- m-tuple combinatorics ----------------------------------------------------

def test_partition_paper_example():
    assert m_tuple_partition((3, 3, 2, 2), 4) == [(2, 2)]


def test_partition_small():
    assert m_tuple_partition((2, 1), 2) == [(1, 1)]


def test_partition_impossible():
    assert m_tuple_partition((3, 1), 2) is None


def test_partition_backtracking_not_greedy_only():
    # greedy pairs (2,2) and (1,1); signs may force the (2,1)+(2,1) grouping
    spec = CanonicalSpec((CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 2, 1),
                          CanonicalBlock(0.0, 1, 1), CanonicalBlock(0.0, 1, 1)))
    assert root_exists(spec, 2).exists
    spec_bad = CanonicalSpec((CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 2, 1),
                              CanonicalBlock(0.0, 1, -1), CanonicalBlock(0.0, 1, -1)))
    decision = root_exists(spec_bad, 2)
    assert not decision.exists
    assert decision.certificate.kind == "SignPatternViolation"


def _zero_plan_of(m, *blocks):
    return _classify_and_plan(CanonicalSpec(tuple(
        CanonicalBlock(0.0, k, e) for k, e in blocks)).sorted(), m)


def test_sign_rule_examples():
    # m = 2: a (0, 2) tuple splits its two signs, so two plus J_1(0) take
    # two (0, 1) tuples instead; a (1, 1) tuple needs equal signs
    assert _zero_plan_of(2, (1, 1), (1, -1)).zero_grouping == [(0, 2, 1)]
    assert _zero_plan_of(2, (1, 1), (1, 1)).zero_grouping == [(0, 1, 1), (0, 1, 1)]
    assert _zero_plan_of(2, (2, 1), (1, 1)).zero_grouping == [(1, 1, 1)]
    assert _zero_plan_of(2, (2, 1), (1, -1)).certificate.kind == "SignPatternViolation"


def _signed_sizes(grouping, m):
    """The (size, sign) blocks the triples (a, r, eta) stand for, by the sign rule."""
    out = []
    for a, r, eta in grouping:
        for size, count in ((a + 1, r), (a, m - r)):
            if size:
                plus = _group_plus_demand(count, eta)
                out += [(size, 1)] * plus + [(size, -1)] * (count - plus)
    return sorted(out, key=lambda p: (-p[0], -p[1]))


def test_tuple_epsilons_satisfy_rule():
    # the signs the builder gives a triple are the rule's, and the gate admits them
    for m in range(1, 7):
        for r in range(1, m + 1):
            for a in (0, 1, 3):
                for eta in (1, -1):
                    _, blocks = canonicalize_nilpotent_copy([(a, r, eta)], m)
                    assert [(b.size, b.sign) for b in blocks] == _signed_sizes([(a, r, eta)], m)
                    plan = _classify_and_plan(CanonicalSpec(blocks), m)
                    assert plan.certificate is None, (a, r, m, eta)


# -- closed-form builders: property grids --------------------------------------

def _rel(x, y):
    return np.linalg.norm(x - y) / max(1.0, np.linalg.norm(y))


def _selfadjoint_rel(h, a):
    return np.linalg.norm(h @ a - a.conj().T @ h) / max(1.0, np.linalg.norm(a))


def _one_copy(spec):
    """(B1, H1): the first copy of materialize_pair(spec)."""
    bm, hm = materialize_pair(spec)
    w = bm.half_n
    return bm.array[:w, :w], hm.array[:w, :w]


def test_primary_root_matches_scipy_fractional_power():
    # independent reference: scipy's Schur-Pade fractional power
    for lam in (2.0, 0.3, -3.0, 1j, 0.4 + 1.1j, -2 + 0.5j):
        for k in range(1, 7):
            for m in range(1, 6):
                f = _primary_root(lam, _root_branch(lam, m, 0), k, m)
                ref = scipy.linalg.fractional_matrix_power(jordan_block(lam, k), 1.0 / m)
                assert _rel(f, ref) <= 1e-12, (lam, k, m)


def test_root_block_real_property_grid():
    for lam in (2.0, 0.3, 5.0, -3.0, -0.4):
        for k in range(1, 9):
            for m in range(1, 6):
                if lam < 0 and m % 2 == 0:
                    continue
                for eta in (1, -1):
                    a = root_block_real(lam, k, eta, m)
                    assert np.isrealobj(a)
                    power = np.linalg.matrix_power(a, m)
                    assert _rel(power, jordan_block(lam, k).real) <= 1e-12, (lam, k, m)
                    assert _selfadjoint_rel(eta * sip_matrix(k), a) <= 1e-12


def test_root_block_nonreal_property_grid():
    for lam in (1j, 0.4 + 1.1j, -2 + 0.5j):
        for k in range(1, 7):
            b1, h1 = _one_copy(CanonicalSpec((CanonicalBlock(lam, k, None),)))
            for m in range(1, 5):
                for branch in range(m):
                    a = root_block_nonreal(lam, k, m, branch)
                    assert _rel(np.linalg.matrix_power(a, m), b1) <= 1e-12
                    assert _selfadjoint_rel(h1, a) <= 1e-12


def test_root_block_negative_even_property_grid():
    for lam in (-1.0, -4.0, -4.8):
        for k in range(1, 7):
            b1, h1 = _one_copy(CanonicalSpec((CanonicalBlock(lam, k, 1),
                                              CanonicalBlock(lam, k, -1))))
            for m in (2, 4, 6):
                for branch in range(m):
                    a = root_block_negative_even(lam, k, m, branch)
                    assert _rel(np.linalg.matrix_power(a, m), b1) <= 1e-12
                    assert _selfadjoint_rel(h1, a) <= 1e-12


def test_root_block_nilpotent_property_grid():
    # every (a, r, eta) with a <= 3, alone and next to a second tuple: the
    # root's m-th power and form are the canonical pair of the tuples' signed
    # sizes, and the root itself is one Jordan block per tuple
    for m in range(1, 7):
        for r in range(1, m + 1):
            for a_ in range(4):
                for eta in (1, -1):
                    for grouping in ([(a_, r, eta)], [(a_, r, eta), (1, 1, -eta)]):
                        a = root_block_nilpotent(grouping, m)
                        want = _signed_sizes(grouping, m)
                        p, blocks = canonicalize_nilpotent_copy(grouping, m)
                        assert [(blk.size, blk.sign) for blk in blocks] == want
                        assert np.allclose(p.T @ p, np.eye(len(p)), rtol=0, atol=1e-15)
                        b1, h1 = _one_copy(CanonicalSpec(
                            tuple(CanonicalBlock(0.0, k, e) for k, e in want)))
                        assert _rel(np.linalg.matrix_power(a, m), b1) <= 1e-12, (a_, r, m)
                        assert _selfadjoint_rel(h1, a) <= 1e-12
                        sizes = tuple(sorted((u * m + v for u, v, _ in grouping), reverse=True))
                        assert segre(a, 0.0) == sizes


# -- class builders -----------------------------------------------------------

def test_root_block_real_examples():
    assert root_block_real(4.0, 1, 1, 2) == pytest.approx(np.array([[2.0]]))
    assert root_block_real(-8.0, 1, 1, 3) == pytest.approx(np.array([[-2.0]]))
    a = root_block_real(1.0, 2, 1, 2)
    assert a == pytest.approx(np.array([[1.0, 0.5], [0.0, 1.0]]))
    assert a @ a == pytest.approx(jordan_block(1.0, 2).real)


def test_root_block_real_selfadjoint_property():
    for lam, k, eta, m in [(2.0, 3, -1, 2), (-3.0, 2, 1, 3), (5.0, 4, 1, 4)]:
        a = root_block_real(lam, k, eta, m)
        q = eta * sip_matrix(k)
        assert np.allclose(np.linalg.matrix_power(a, m), jordan_block(lam, k).real, atol=1e-10)
        assert np.allclose(q @ a, a.T @ q, atol=1e-10)


def test_root_block_real_class_mismatch():
    with pytest.raises(ClassMismatch):
        root_block_real(-1.0, 1, 1, 2)
    with pytest.raises(ClassMismatch):
        root_block_real(0.0, 1, 1, 2)


def test_root_block_nonreal_k1():
    a = root_block_nonreal(1j, 1, 2)
    mu = np.exp(1j * np.pi / 4)
    assert np.allclose(np.diag(a), [mu, np.conj(mu)])
    assert np.allclose(a @ a, np.diag([1j, -1j]))


def test_root_block_nonreal_k2():
    lam, k, m = 1j, 2, 2
    a = root_block_nonreal(lam, k, m)
    b1, h1 = _one_copy(CanonicalSpec((CanonicalBlock(lam, k, None),)))
    power = np.linalg.matrix_power(a, m)
    assert np.linalg.norm(power - b1) <= 1e-10
    assert np.linalg.norm(h1 @ a - a.conj().T @ h1) <= 1e-10
    assert segre(power, lam) == (2,)


def test_root_block_nonreal_branches_differ():
    a0 = root_block_nonreal(1j, 1, 4, branch=0)
    a1 = root_block_nonreal(1j, 1, 4, branch=1)
    assert not np.allclose(a0, a1)
    assert np.allclose(np.linalg.matrix_power(a1, 4), np.diag([1j, -1j]))


def test_root_block_negative_even_k1():
    a = root_block_negative_even(-1.0, 1, 2)
    h = np.diag([1.0, -1.0]).astype(complex)
    assert np.allclose(a @ a, -np.eye(2), atol=1e-12)
    assert np.allclose(h @ a, a.conj().T @ h, atol=1e-12)


def test_root_block_negative_even_k2():
    a = root_block_negative_even(-4.0, 2, 2)
    power = np.linalg.matrix_power(a, 2)
    b1, h1 = _one_copy(CanonicalSpec((CanonicalBlock(-4.0, 2, 1),
                                      CanonicalBlock(-4.0, 2, -1))))
    assert np.linalg.norm(power - b1) <= 1e-9
    assert np.linalg.norm(h1 @ a - a.conj().T @ h1) <= 1e-9
    assert segre(power, -4.0) == (2, 2)


def test_root_block_negative_even_class_mismatch():
    with pytest.raises(ClassMismatch):
        root_block_negative_even(-1.0, 1, 3)
    with pytest.raises(ClassMismatch):
        root_block_negative_even(1.0, 1, 2)


def test_root_block_nilpotent_m1_is_input():
    a = root_block_nilpotent([(2, 1, 1)], 1)
    assert np.array_equal(a, jordan_block(0.0, 3))


def test_root_block_nilpotent_m2():
    a = root_block_nilpotent([(1, 1, 1)], 2)
    assert segre(np.linalg.matrix_power(a, 2), 0.0) == (2, 1)
    assert _nilpotent_similar_to_single_block(a, 3)


def _nilpotent_similar_to_single_block(a, k):
    return segre(a, 0.0) == (k,)


def test_root_block_nilpotent_paper_example():
    # per-copy Segre (3,3,2,2) with admissible signs, m = 4: root has Segre (10)
    a = root_block_nilpotent([(2, 2, 1)], 4)
    assert segre(a, 0.0) == (10,)
    assert segre(np.linalg.matrix_power(a, 4), 0.0) == (3, 3, 2, 2)


# -- assembly -----------------------------------------------------------------

def test_assemble_single_part_unchanged():
    out = assemble_root([1], [([0], np.array([[2.0]]))])
    assert np.array_equal(out.array, np.diag([2.0, 2.0]))


def test_assemble_two_scalar_parts():
    out = assemble_root([1, 1], [([1], np.array([[3.0]])), ([0], np.array([[2.0]]))])
    assert np.array_equal(out.array, np.diag([2.0, 3.0, 2.0, 3.0]))


def test_assemble_mixed_parts_membership():
    nr = root_block_nonreal(1j, 1, 2)
    out = assemble_root([1, 2], [([0], np.array([[2.0]])), ([1], nr)])
    assert omega_membership(out.array) == 0.0


def test_assemble_split_pairs_and_zero_tuple_between_classes():
    # canonical order lists the two +- pairs at -1.5 as (+, +, -, -), so
    # neither pair's blocks are adjacent; the zero tuple lies between the
    # nonreal and the positive blocks
    spec = CanonicalSpec((
        CanonicalBlock(-1.5, 1, 1), CanonicalBlock(-1.5, 1, 1),
        CanonicalBlock(-1.5, 1, -1), CanonicalBlock(-1.5, 1, -1),
        CanonicalBlock(-0.9 + 1.1j, 2, None),
        CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 1, 1),
        CanonicalBlock(0.8, 2, -1)))
    assert spec.sorted() == spec
    m = 2
    pair = root_block_negative_even(-1.5, 1, m)
    nonreal = root_block_nonreal(-0.9 + 1.1j, 2, m)
    zero = root_block_nilpotent([(1, 1, 1)], m)
    positive = root_block_real(0.8, 2, -1, m)
    widths = [b.copy_width() for b in spec.blocks]
    out = assemble_root(widths, [([7], positive), ([0, 2], pair), ([5, 6], zero),
                                 ([1, 3], pair), ([4], nonreal)])
    a1 = block_diag(np.kron(pair, np.eye(2)), nonreal, zero, positive)
    assert np.array_equal(out.array, block_diag(a1, np.conj(a1)))
    bm, hm = materialize_pair(spec)
    assert _rel(np.linalg.matrix_power(out.array, m), bm.array) <= 1e-12
    assert _selfadjoint_rel(hm.array, out.array) <= 1e-12
    for seed in range(2):
        b, h = _scrambled_instance(spec, seed)
        root = mth_root(b, h, m)
        assert isinstance(root, RootResult)
        assert verify_root(root.root, b, h, m).passed


def test_assemble_rejects_uncovered_or_misshapen_parts():
    with pytest.raises(DimensionMismatch):
        assemble_root([1, 1], [([0], np.array([[2.0]]))])
    with pytest.raises(DimensionMismatch):
        assemble_root([2], [([0], np.array([[2.0]]))])


# -- full pipeline ------------------------------------------------------------

def test_mth_root_scalar_examples():
    out = mth_root(quat_scalar(16.0), QuatMatrix.eye(1), 4)
    assert np.allclose(out.root.data, quat_scalar(2.0).data, rtol=0.0, atol=1e-12)
    out = mth_root(quat_scalar(-8.0), QuatMatrix.eye(1), 3)
    assert np.allclose(out.root.data, quat_scalar(-2.0).data, rtol=0.0, atol=1e-12)


def test_mth_root_negative_even_pairing():
    b = quat_real(-np.eye(2))
    decision = mth_root(b, QuatMatrix.eye(2), 2)
    assert isinstance(decision, RootDecision)
    assert decision.certificate.kind == "NegativeSignPairing"

    h = quat_real(np.diag([1.0, -1.0]))
    out = mth_root(b, h, 2)
    assert isinstance(out, RootResult)
    assert out.residual_power <= 1e-12
    assert out.residual_selfadjoint <= 1e-12
    report = verify_root(out.root, b, h, 2)
    assert report.passed


def test_mth_root_m1_returns_input():
    b, h, _ = random_instance(40, {"classes": ["positive"], "m": 1, "force": "admit"})
    out = mth_root(b, h, 1)
    assert np.array_equal(out.root.data, b.data)
    assert out.residual_power == 0.0
    # nothing is constrained at m = 1, so S_X has no columns
    assert out.similarity.shape == (2 * b.n_rows, 0)
    assert out.cond_similarity == 1.0


def test_mth_root_determinism():
    b, h, _ = random_instance(41, {"classes": ["nonreal", "zero"], "m": 3,
                                   "force": "admit", "max_size": 8})
    out1 = mth_root(b, h, 3)
    out2 = mth_root(b, h, 3)
    assert np.array_equal(out1.root.data, out2.root.data)
    assert np.array_equal(out1.similarity, out2.similarity)


def test_mth_root_branch_changes_root_but_verifies():
    b, h, _ = random_instance(42, {"classes": ["nonreal"], "m": 3,
                                   "force": "admit", "max_size": 4})
    out0 = mth_root(b, h, 3, branch=0)
    out1 = mth_root(b, h, 3, branch=1)
    assert not np.allclose(out0.root.data, out1.root.data)
    assert verify_root(out1.root, b, h, 3).passed


def test_mth_root_rejects_bad_m():
    with pytest.raises(SpecInvalid):
        mth_root(quat_scalar(1.0), QuatMatrix.eye(1), 0)


@pytest.mark.parametrize("m", [2.5, 2.0, True, "2", 0, -1])
def test_library_rejects_an_m_that_is_not_an_integer_of_at_least_one(m):
    from qroot.roots import reduce_pair
    # a +- pair at -1: a root exists for every integer m
    spec = CanonicalSpec((CanonicalBlock(-1.0, 1, 1), CanonicalBlock(-1.0, 1, -1)))
    b = quat_real(-np.eye(2))
    h = quat_real(np.diag([1.0, -1.0]))
    with pytest.raises(SpecInvalid):
        root_exists(spec, m)
    with pytest.raises(SpecInvalid):
        reduce_pair(b, h, m)
    with pytest.raises(SpecInvalid):
        mth_root(b, h, m)
    with pytest.raises(SpecInvalid):
        verify_root(b, b, h, m)


def test_library_takes_a_numpy_integer_m():
    spec = CanonicalSpec((CanonicalBlock(-1.0, 1, 1), CanonicalBlock(-1.0, 1, -1)))
    b = quat_real(-np.eye(2))
    h = quat_real(np.diag([1.0, -1.0]))
    assert root_exists(spec, np.int64(2)) == root_exists(spec, 2)
    out = mth_root(b, h, np.int64(2))
    assert isinstance(out, RootResult)
    assert np.array_equal(out.root.data, mth_root(b, h, 2).root.data)
    assert verify_root(out.root, b, h, np.int64(2)).passed


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
def test_library_rejects_a_tolerance_that_is_not_positive_and_finite(tol):
    from qroot.canonical import canonicalize_pair
    from qroot.omega import omega_embed
    from qroot.roots import reduce_pair
    # HB - B*H has relative residual 0.41, which a NaN tolerance let through
    b = quat_real(np.array([[1.0, 1.0], [0.0, 1.0]]))
    h = quat_real(np.diag([1.0, -1.0]))
    for m in (1, 2):
        with pytest.raises(SpecInvalid):
            reduce_pair(b, h, m, tol)
        with pytest.raises(SpecInvalid):
            mth_root(b, h, m, tol)
    with pytest.raises(SpecInvalid):
        canonicalize_pair(omega_embed(b), omega_embed(h), tol)
    with pytest.raises(SpecInvalid):
        verify_root(QuatMatrix.eye(2), QuatMatrix.eye(2), QuatMatrix.eye(2), 2, tol)


def test_gate_builder_agreement_random_specs():
    # gate true -> construction succeeds and verifies; gate false -> the
    # certificate names a negative-even or nilpotent obstruction
    count_true = count_false = 0
    for seed in range(200):
        b, h, spec = random_instance(7000 + seed, {
            "classes": ["positive", "negative", "nonreal", "zero"],
            "m": 2 + seed % 4, "force": "any", "max_size": 12})
        m = 2 + seed % 4
        decision = root_exists(spec, m)
        out = mth_root(b, h, m)
        if decision.exists:
            count_true += 1
            assert isinstance(out, RootResult)
            assert verify_root(out.root, b, h, m).passed
        else:
            count_false += 1
            assert isinstance(out, RootDecision)
            assert out.certificate.kind in ("NegativeSignPairing",
                                            "SignPatternViolation",
                                            "SegreTupleMismatch")
    assert count_true >= 50 and count_false >= 20


def test_forced_builder_cannot_verify_on_refused_instance():
    # pretend the signs were admissible and check the forgery fails against H
    b = quat_real(-np.eye(2))
    h = QuatMatrix.eye(2)  # actual H: both signs +1 -> no root
    forged = root_block_negative_even(-1.0, 1, 2)  # root for the paired signs
    a = omega_extract(block_diag(forged, np.conj(forged)))
    report = verify_root(a, b, h, 2)
    assert report.residual_power <= 1e-12  # it is a square root of -I
    assert not report.passed  # but not H-selfadjoint for this H
    assert report.residual_selfadjoint > 1e-4


def test_nilpotent_structural_oracle_doubled_grid():
    # Segre of (J_k(0) + J_k(0))^m equals the doubled (a, r) closed form
    for k in range(1, 13):
        for m in range(1, 7):
            doubled = scipy.linalg.block_diag(jordan_block(0.0, k), jordan_block(0.0, k))
            power = np.linalg.matrix_power(doubled, m)
            a, r = (k - 1) // m, k - ((k - 1) // m) * m
            expect = sorted(([a + 1] * r + ([a] * (m - r) if a else [])) * 2,
                            reverse=True)
            assert segre(power, 0.0) == tuple(expect), (k, m)


def test_mth_root_near_singular_h():
    from qroot.errors import NearSingularH
    b = quat_scalar(1.0)
    h = quat_scalar(1e-15)
    with pytest.raises(NearSingularH):
        mth_root(b, h, 2)


def test_mth_root_rejects_non_selfadjoint_b():
    from qroot.errors import NotSelfadjoint
    b = quat_real(np.array([[1.0, 2.0], [0.0, 1.0]]))
    h = quat_real(np.eye(2))
    for m in (1, 2):
        with pytest.raises(NotSelfadjoint):
            mth_root(b, h, m)


def test_mth_root_rejects_unequal_shapes():
    from qroot.errors import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        mth_root(QuatMatrix.eye(2), QuatMatrix.eye(3), 2)


def _scrambled_instance(spec, seed):
    from qroot.verify import omega_similarity
    rng = np.random.default_rng(seed)
    bm, hm = materialize_pair(spec)
    t = omega_similarity(rng, bm.half_n)
    b = np.linalg.solve(t, bm.array @ t)
    h = t.conj().T @ hm.array @ t
    h = 0.5 * (h + h.conj().T)
    loose = 1e-8 * max(1.0, float(np.max(np.abs(b))))
    return omega_extract(b, tol=loose), omega_extract(h, tol=loose)


def test_mth_root_two_pairs_same_eigenvalue_and_size():
    # canonical order groups signs (+,+,-,-); builder pairs (+,-),(+,-), so
    # each pair's root lands on two blocks that are not adjacent
    spec = CanonicalSpec((
        CanonicalBlock(-1.5, 1, 1), CanonicalBlock(-1.5, 1, 1),
        CanonicalBlock(-1.5, 1, -1), CanonicalBlock(-1.5, 1, -1))).sorted()
    b, h = _scrambled_instance(spec, 3)
    out = mth_root(b, h, 2)
    assert isinstance(out, RootResult)
    assert verify_root(out.root, b, h, 2).passed


def test_mth_root_multiple_blocks_same_nonreal_eigenvalue():
    spec = CanonicalSpec((CanonicalBlock(0.5 + 1.0j, 2, None),
                          CanonicalBlock(0.5 + 1.0j, 1, None))).sorted()
    b, h = _scrambled_instance(spec, 7)
    out = mth_root(b, h, 3)
    assert isinstance(out, RootResult)
    assert verify_root(out.root, b, h, 3).passed


def test_mth_root_m6_all_classes():
    spec = CanonicalSpec((
        CanonicalBlock(-2.0, 1, 1), CanonicalBlock(-2.0, 1, -1),
        CanonicalBlock(0.0, 1, 1), CanonicalBlock(0.0, 1, 1),
        CanonicalBlock(0.8, 2, -1),
        CanonicalBlock(-0.9 + 1.1j, 2, None))).sorted()
    b, h = _scrambled_instance(spec, 13)
    out = mth_root(b, h, 6)
    assert isinstance(out, RootResult)
    assert verify_root(out.root, b, h, 6).passed


def test_mth_root_near_axis_nonreal_with_fillers():
    # a nonreal centroid with |Re| below the cluster radius keeps its real
    # part; snapping it to the axis left an empty staircase (ClusterOverlap)
    spec = CanonicalSpec((
        CanonicalBlock(0.1 + 1.0j, 1, None), CanonicalBlock(2.0, 2, 1),
        CanonicalBlock(-1.5, 2, -1), CanonicalBlock(1.7 + 0.8j, 1, None))).sorted()
    assert _copy_size(spec) == 8
    for seed in range(3):
        b, h = _scrambled_instance(spec, seed)
        out = mth_root(b, h, 3)
        assert isinstance(out, RootResult)
        assert out.residual_power <= 1e-12
        assert verify_root(out.root, b, h, 3).passed


def test_mth_root_pairs_nonreal_cluster_with_nearest_conjugate():
    # -0.10+1.94i lies within twice the cluster radius of conj(-0.57-1.99i);
    # taking the first conjugate cluster in that window instead of the
    # nearest paired it with the double one (ClusterOverlap)
    spec = CanonicalSpec((
        CanonicalBlock(-0.10 + 1.94j, 1, None),
        CanonicalBlock(-0.57 + 1.99j, 1, None), CanonicalBlock(-0.57 + 1.99j, 1, None),
        CanonicalBlock(1.2, 1, 1), CanonicalBlock(2.4, 1, -1),
        CanonicalBlock(1.8 + 0.6j, 1, None))).sorted()
    assert _copy_size(spec) == 10
    for seed in range(3):
        b, h = _scrambled_instance(spec, seed)
        out = mth_root(b, h, 2)
        assert isinstance(out, RootResult)
        assert out.residual_power <= 1e-12
        assert verify_root(out.root, b, h, 2).passed


def test_mth_root_negative_even_j6_pair_with_fillers():
    # a J_6 +- pair at -4.5 with m = 4 was refused (RankAmbiguous) while the
    # builder canonicalized the pair's power numerically
    spec = CanonicalSpec((
        CanonicalBlock(-4.5, 6, 1), CanonicalBlock(-4.5, 6, -1),
        CanonicalBlock(-4.5, 3, 1), CanonicalBlock(-4.5, 3, -1),
        CanonicalBlock(1.7, 3, 1))).sorted()
    assert _copy_size(spec) >= 21
    for seed in (3, 4):
        b, h = _scrambled_instance(spec, seed)
        out = mth_root(b, h, 4)
        assert isinstance(out, RootResult)
        assert verify_root(out.root, b, h, 4).passed


def test_mth_root_canonicalizes_once(monkeypatch):
    # the solve reaches the canonicalization engine through _canonicalize
    import qroot.roots
    calls = []
    inner = qroot.roots._canonicalize

    def counting(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(qroot.roots, "_canonicalize", counting)
    spec = CanonicalSpec((
        CanonicalBlock(-2.0, 2, 1), CanonicalBlock(-2.0, 2, -1),
        CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 1, 1),
        CanonicalBlock(1.5, 1, -1))).sorted()
    b, h = _scrambled_instance(spec, 11)
    out = mth_root(b, h, 2)
    assert isinstance(out, RootResult)
    assert verify_root(out.root, b, h, 2).passed
    assert len(calls) == 1


def _outcome_kind(b, h, m):
    """root, the refusal certificate's kind, or the error's kind."""
    from qroot.errors import QRootError
    try:
        out = mth_root(b, h, m)
    except QRootError as exc:
        return exc.kind
    return "root" if isinstance(out, RootResult) else out.certificate.kind


def _canonical_twin(spec):
    bm, hm = materialize_pair(spec)
    return omega_extract(bm.array), omega_extract(hm.array)


_FILLERS = (CanonicalBlock(0.6, 2, 1), CanonicalBlock(1.8, 1, -1), CanonicalBlock(3.0, 1, 1),
            CanonicalBlock(0.6 + 0.8j, 2, None))


@pytest.mark.parametrize("spec", [
    # +- pairs at -1.0 and -1.2, closer than the cluster radius at n = 12
    CanonicalSpec((CanonicalBlock(-1.0, 1, 1), CanonicalBlock(-1.0, 1, -1),
                   CanonicalBlock(-1.2, 1, 1), CanonicalBlock(-1.2, 1, -1)) + _FILLERS),
    # a Jordan block at 1e-7: a positive eigenvalue inside the zero cluster's radius
    CanonicalSpec((CanonicalBlock(1e-7, 2, 1), CanonicalBlock(1.0, 1, 1))),
    # zero and 0.15, closer than the cluster radius at n = 12
    CanonicalSpec((CanonicalBlock(0.0, 1, 1), CanonicalBlock(0.15, 1, 1),
                   CanonicalBlock(4.0, 2, -1)) + _FILLERS),
])
def test_outcome_does_not_depend_on_presentation(spec):
    # the canonical pair itself and its scrambled twins reach the same outcome
    spec = spec.sorted()
    want = _outcome_kind(*_canonical_twin(spec), 2)
    for seed in range(3):
        assert _outcome_kind(*_scrambled_instance(spec, seed), 2) == want, seed


@pytest.mark.parametrize("m", [2, 3, 4])
def test_outcome_does_not_depend_on_presentation_stock_specs(m):
    classes = ["positive", "negative", "nonreal", "zero"]
    for seed in range(4):
        b, h, spec = random_instance(9300 + 10 * m + seed, {
            "classes": classes, "m": m, "force": "any", "max_size": 8})
        assert _outcome_kind(*_canonical_twin(spec), m) == _outcome_kind(b, h, m), seed


# -- the primary root from the Schur form ---------------------------------------

def test_smith_root_of_triangular_forms():
    rng = np.random.default_rng(50)

    def triangular(n):
        lam = rng.uniform(0.5, 3.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        lam[: n // 3] = lam[0]  # a repeated eigenvalue, as in a Jordan block
        t = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
        return t + np.diag(lam), lam

    for n, m in [(1, 2), (2, 3), (9, 2), (17, 3), (30, 4)]:
        t, lam = triangular(n)
        mu = lam ** (1.0 / m)
        u = _smith_root(t, mu, m)
        assert np.array_equal(np.tril(u, -1), np.zeros((n, n)))
        assert np.array_equal(np.diag(u), mu)
        power = np.linalg.matrix_power(u, m)
        assert np.linalg.norm(power - t) <= 1e-13 * np.linalg.norm(t), (n, m)
    t, lam = triangular(12)
    assert np.array_equal(_smith_root(t, lam, 1), t)
    # the binary chain against the table of every power U^q
    for n, m in [(17, 5), (17, 8), (30, 64)]:
        t, lam = triangular(n)
        mu = lam ** (1.0 / m)
        want = smith_root(t, mu, m)
        assert np.linalg.norm(_smith_root(t, mu, m) - want) <= 1e-12 * np.linalg.norm(want)
    # a table of m - 1 powers would not fit in memory; U commutes with T for any m
    m = 10**9 + 7
    t, lam = triangular(30)
    mu = lam ** (1.0 / m)
    u = _smith_root(t, mu, m)
    assert np.array_equal(np.tril(u, -1), np.zeros((30, 30)))
    assert np.array_equal(np.diag(u), mu)
    assert (np.linalg.norm(u @ t - t @ u)
            <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(t))


def _reference_root(b, h, m, branch, got):
    """The full-canonicalization root S A_c S^-1 every solve built before.

    A_c is assembled from every class's builder on the full spec, where a
    solve builds only the constrained part X.  X's columns of canon's S are
    the solve's own, got.similarity: a solve deflates each X cluster from
    the form reordered with X first, so its canonical columns of X may
    differ from canon's.  The solve's S_X is checked against X's canonical
    pair within the engine's residual bound.
    """
    from qroot.canonical import DEFAULT_TOL, canonicalize_pair
    from qroot.omega import omega_embed
    from qroot.roots import _constrained, reduce_pair
    barr, harr = omega_embed(b).array, omega_embed(h).array
    s, spec = canonicalize_pair(barr, harr)
    plan = _classify_and_plan(spec, m)
    if plan.certificate is not None:
        return plan.decision()
    blocks = spec.blocks
    in_x = [_constrained(blk.lam, m) for blk in blocks]
    x_spec = reduce_pair(b, h, m).spec
    assert x_spec.blocks == tuple(blk for blk, kept in zip(blocks, in_x) if kept)
    s_x = got.similarity
    if x_spec.blocks:
        bc, hc = materialize_pair(x_spec)
        res = (np.linalg.norm(barr @ s_x - s_x @ bc.array)
               + np.linalg.norm(s_x.conj().T @ harr @ s_x - hc.array))
        assert res <= (DEFAULT_TOL * max(1.0, np.linalg.norm(barr))
                       + DEFAULT_TOL * max(1.0, np.linalg.norm(harr)))
    cols = np.flatnonzero(np.repeat(in_x, [blk.copy_width() for blk in blocks]))
    s = s.array.copy()
    s[:, np.concatenate([cols, s.shape[1] // 2 + cols])] = s_x
    parts = [([i], root_block_real(blk.lam.real, blk.size, blk.sign, m))
             for i, blk in enumerate(blocks)
             if blk.is_real and (blk.lam.real > 0 or (blk.lam.real < 0 and m % 2))]
    parts += [([i, j], root_block_negative_even(blocks[i].lam.real, blocks[i].size, m, branch))
              for i, j in plan.neg_pairs]
    parts += [([i], root_block_nonreal(blk.lam, blk.size, m, branch))
              for i, blk in enumerate(blocks) if not blk.is_real]
    if plan.zero:
        zero = sorted(plan.zero, key=lambda i: blocks[i].sort_key())
        parts.append((zero, root_block_nilpotent(plan.zero_grouping, m)))
    a_c = assemble_root([blk.copy_width() for blk in blocks], parts).array
    return np.linalg.solve(s.T, (s @ a_c).T).T


@pytest.mark.parametrize("m", [2, 3, 4])
def test_mth_root_matches_full_canonicalization_reference(m):
    from qroot.omega import omega_embed
    classes = ["positive", "negative", "nonreal", "zero"]
    roots = 0
    for seed in range(8):
        b, h, spec = random_instance(9100 + 10 * m + seed, {
            "classes": classes, "m": m, "force": "admit", "max_size": 12})
        branch = seed % 2
        got = mth_root(b, h, m, branch=branch)
        assert isinstance(got, RootResult)
        want = _reference_root(b, h, m, branch, got)
        assert isinstance(want, np.ndarray)
        a = omega_embed(got.root).array
        assert np.linalg.norm(a - want) <= 1e-10 * np.linalg.norm(want), seed
        x_width = sum(2 * blk.copy_width() for blk in spec.blocks
                      if blk.lam == 0 or (blk.lam.real < 0 and blk.is_real and m % 2 == 0))
        assert got.similarity.shape == (a.shape[0], x_width)
        roots += 1
    assert roots == 8


@pytest.mark.parametrize("gap", [0.1, 0.2, 0.3])
def test_mth_root_close_simple_positive_eigenvalues(gap):
    # two simple positive eigenvalues closer than the cluster radius (about
    # 0.24 at this size) share a cluster; they were ClusterOverlap
    fillers = [CanonicalBlock(0.6, 2, 1), CanonicalBlock(1.2, 2, -1),
               CanonicalBlock(1.8, 1, 1), CanonicalBlock(2.4, 2, -1),
               CanonicalBlock(3.0, 2, 1), CanonicalBlock(3.6, 2, -1),
               CanonicalBlock(4.2, 1, 1), CanonicalBlock(0.6 + 0.8j, 2, None),
               CanonicalBlock(-1.2 + 1.4j, 1, None), CanonicalBlock(1.8 + 2.0j, 2, None)]
    spec = CanonicalSpec(tuple(fillers) + (CanonicalBlock(5.5, 1, 1),
                                           CanonicalBlock(5.5 + gap, 1, -1))).sorted()
    assert _copy_size(spec) >= 24
    for m in (2, 3):
        b, h = _scrambled_instance(spec, 60 + m)
        out = mth_root(b, h, m)
        assert isinstance(out, RootResult)
        assert verify_root(out.root, b, h, m).passed
        assert out.similarity.shape[1] == 0 and out.cond_similarity == 1.0


def _jittered_spec(rng, n):
    """Blocks of 1-2 at a few positive and nonreal values, each repeated under +-0.05 jitter."""
    bases = [0.8, 1.6, 2.4, 0.6 + 1.2j, -1.1 + 2.0j, 1.7 + 2.6j]
    blocks, width = [], 0
    while width < n:
        base = complex(bases[int(rng.integers(len(bases)))])
        k = int(rng.integers(1, 3))
        if base.imag:
            if width + 2 * k > n:
                continue
            lam = base + complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
            blocks.append(CanonicalBlock(lam, k, None))
        else:
            k = min(k, n - width)
            blocks.append(CanonicalBlock(base.real + rng.uniform(-0.05, 0.05), k,
                                         int(rng.choice([-1, 1]))))
        width = sum(blk.copy_width() for blk in blocks)
    return CanonicalSpec(tuple(blocks)).sorted()


@pytest.mark.parametrize("i, n", list(enumerate([24, 32, 40, 48, 56, 64])))
def test_mth_root_jittered_unconstrained_spectra(i, n):
    rng = np.random.default_rng(70 + i)
    spec = _jittered_spec(rng, n)
    assert _copy_size(spec) == n
    m = 2 + i % 2
    b, h = _scrambled_instance(spec, 70 + i)
    out = mth_root(b, h, m)
    assert isinstance(out, RootResult)
    assert verify_root(out.root, b, h, m).passed


def test_unconstrained_solve_takes_one_schur_form_and_no_deflation(tmp_path, monkeypatch, capsys):
    import json
    import qroot.canonical
    import qroot.cli
    import qroot.jsonio
    import qroot.lapack
    owners = {"schur": qroot.lapack, "_deflate_cluster": qroot.canonical}
    calls = {"schur": 0, "_deflate_cluster": 0}
    for name, owner in owners.items():
        inner = getattr(owner, name)

        def counting(*args, _inner=inner, _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    spec = CanonicalSpec((CanonicalBlock(1.5, 2, 1), CanonicalBlock(-0.7, 1, -1),
                          CanonicalBlock(0.5 + 1.0j, 2, None))).sorted()
    b, h = _scrambled_instance(spec, 80)
    out = mth_root(b, h, 3)
    assert isinstance(out, RootResult) and verify_root(out.root, b, h, 3).passed
    assert calls == {"schur": 1, "_deflate_cluster": 0}
    path = tmp_path / "pair.json"
    path.write_text(qroot.jsonio.dumps({"B": b.to_json(), "H": h.to_json()}))
    assert qroot.cli.main(["check", "--m", "3", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"exists": True, "certificate": None}
    assert calls == {"schur": 2, "_deflate_cluster": 0}
    # with m even the negative eigenvalue is constrained: only its cluster deflates
    assert qroot.cli.main(["check", "--m", "2", "--in", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["certificate"]["kind"] == "NegativeSignPairing"
    assert calls == {"schur": 3, "_deflate_cluster": 1}


def _count_kernels(monkeypatch) -> Counter:
    """Calls of each of the five LAPACK routines, by name, counted at _Lapack._call."""
    from qroot.lapack import _Lapack
    calls = Counter()
    inner = _Lapack._call

    def counting(self, name, *args, **kwargs):
        calls[name] += 1
        return inner(self, name, *args, **kwargs)

    monkeypatch.setattr(_Lapack, "_call", counting)
    return calls


@pytest.mark.parametrize("source", list(LAPACK_SOURCES))
def test_every_kernel_of_a_solve_goes_through_one_call(monkeypatch, lapack_source, source):
    # a one-cluster X at m = 2 runs each of the five kernels once, from
    # whichever source provides them, and the root is the same to 1e-13
    spec = CanonicalSpec((CanonicalBlock(-1.3, 2, 1), CanonicalBlock(-1.3, 2, -1),
                          CanonicalBlock(0.9, 2, 1), CanonicalBlock(0.6 + 1.1j, 1, None))).sorted()
    b, h = _scrambled_instance(spec, 83)
    want = mth_root(b, h, 2).root.data
    lapack_source(source)
    calls = _count_kernels(monkeypatch)
    out = mth_root(b, h, 2)
    assert isinstance(out, RootResult) and verify_root(out.root, b, h, 2).passed
    assert calls == {"zgehrd": 1, "zunghr": 1, "zlahqr": 1, "ztrsen": 1, "ztrsyl": 1}
    assert np.linalg.norm(out.root.data - want) <= 1e-13 * np.linalg.norm(want)


def test_solve_reorders_the_schur_form_once(monkeypatch):
    import qroot.roots
    from qroot.canonical import _cluster_eigenvalues, _cluster_radius, canonicalize_pair
    from qroot.lapack import schur
    from qroot.omega import omega_embed
    calls = _count_kernels(monkeypatch)
    in_schur_root = []
    inner = qroot.roots._schur_root

    def watched(*args, **kwargs):
        before = calls["ztrsen"]
        try:
            return inner(*args, **kwargs)
        finally:
            in_schur_root.append(calls["ztrsen"] - before)

    monkeypatch.setattr(qroot.roots, "_schur_root", watched)
    spec = CanonicalSpec((CanonicalBlock(-1.3, 2, 1), CanonicalBlock(-1.3, 2, -1),
                          CanonicalBlock(0.9, 2, 1), CanonicalBlock(2.1, 1, -1),
                          CanonicalBlock(0.6 + 1.1j, 2, None))).sorted()
    b, h = _scrambled_instance(spec, 81)
    # m = 2: X is the cluster at -1.3, moved to the lead once and deflated
    # there; every kernel of the solve runs through the provider, once
    out = mth_root(b, h, 2)
    assert isinstance(out, RootResult) and verify_root(out.root, b, h, 2).passed
    assert calls == {"zgehrd": 1, "zunghr": 1, "zlahqr": 1, "ztrsen": 1, "ztrsyl": 1}
    # m = 3: nothing is constrained, so nothing is reordered, and the root
    # is Smith's recurrence on the whole form, without ztrsyl
    calls.clear()
    out = mth_root(b, h, 3)
    assert isinstance(out, RootResult) and verify_root(out.root, b, h, 3).passed
    assert calls == {"zgehrd": 1, "zunghr": 1, "zlahqr": 1}
    assert in_schur_root == [0, 0]
    # m = 1: B is its own root, so the pair is only checked; no Schur form
    # is taken and no LAPACK kernel runs
    calls.clear()
    out = mth_root(b, h, 1)
    assert isinstance(out, RootResult) and np.array_equal(out.root.data, b.data)
    red = qroot.roots.reduce_pair(b, h, 1)
    assert red.schur is None and red.spec.blocks == () and red.similarity.shape == (len(red.b), 0)
    assert calls == {} and in_schur_root == [0, 0]
    # canon keeps every cluster: none is reordered first, and each deflated
    # cluster (real, or Im > 0) is moved to the lead unless it is there already
    barr = omega_embed(b).array
    radius = _cluster_radius(barr)
    clusters = _cluster_eigenvalues(np.diag(schur(barr)[0]), radius)
    deflated = [c for c in clusters if c.centroid.imag > -radius]
    leading = [c for c in deflated if sorted(c.members) == list(range(c.mult))]
    assert (len(clusters), len(deflated), len(leading)) == (5, 4, 1)
    calls.clear()
    _, got = canonicalize_pair(omega_embed(b), omega_embed(h))
    assert spec_matches(got, spec)
    assert calls["ztrsen"] == len(deflated) - len(leading)
    assert calls["zlahqr"] == 1 and calls["ztrsyl"] == 0


@pytest.mark.parametrize("m", [2, 4])
def test_two_cluster_x_matches_full_canonicalization_reference(m, monkeypatch):
    from qroot.omega import omega_embed
    calls = _count_kernels(monkeypatch)
    spec = CanonicalSpec((CanonicalBlock(-1.7, 2, 1), CanonicalBlock(-1.7, 2, -1),
                          CanonicalBlock(0.0, 1, 1), CanonicalBlock(0.0, 1, -1),
                          CanonicalBlock(0.9, 2, 1), CanonicalBlock(2.3, 1, -1),
                          CanonicalBlock(0.6 + 1.1j, 1, None))).sorted()
    b, h = _scrambled_instance(spec, 82 + m)
    for branch in (0, 1):
        calls.clear()
        got = mth_root(b, h, m, branch=branch)
        assert isinstance(got, RootResult) and verify_root(got.root, b, h, m).passed
        # one reordering puts X first; each X cluster is deflated from that
        # form, where the first of them leads already
        assert calls["ztrsen"] == 2
        assert got.similarity.shape == (2 * _copy_size(spec), 2 * 6)
        want = _reference_root(b, h, m, branch, got)
        a = omega_embed(got.root).array
        assert np.linalg.norm(a - want) <= 1e-10 * np.linalg.norm(want)


def test_three_cluster_x_reorders_once_per_cluster(monkeypatch):
    # X is zero and +- pairs at two negative eigenvalues.  The form is
    # reordered with X first, and each X cluster is deflated from it by its
    # members, where the first of them leads already: three ztrsen calls in
    # all, where a second reordering per cluster would make four
    calls = _count_kernels(monkeypatch)
    spec = CanonicalSpec((CanonicalBlock(-1.7, 2, 1), CanonicalBlock(-1.7, 2, -1),
                          CanonicalBlock(-0.8, 1, 1), CanonicalBlock(-0.8, 1, -1),
                          CanonicalBlock(0.0, 1, 1), CanonicalBlock(0.0, 1, -1),
                          CanonicalBlock(0.9, 2, 1), CanonicalBlock(2.3, 1, -1),
                          CanonicalBlock(0.6 + 1.1j, 1, None))).sorted()
    b, h = _scrambled_instance(spec, 86)
    got = mth_root(b, h, 2)
    assert isinstance(got, RootResult) and verify_root(got.root, b, h, 2).passed
    assert got.similarity.shape == (2 * _copy_size(spec), 2 * 8)
    assert calls["ztrsen"] == 3


def test_a_root_that_fails_its_self_check_is_root_inaccurate(tmp_path, monkeypatch, capsys):
    # the self-check decides no rank, so its failure has a kind of its own,
    # whose message carries both residuals and cond(S_X)
    import json
    import qroot.cli
    import qroot.jsonio
    import qroot.verify
    from qroot.errors import RootInaccurate
    from qroot.verify import VerificationReport
    inner = qroot.verify.verify_root

    def inaccurate(a, b, h, m, tol):
        report = inner(a, b, h, m, tol)
        return VerificationReport(10 * tol, report.residual_selfadjoint, False, tol)

    monkeypatch.setattr(qroot.verify, "verify_root", inaccurate)
    spec = CanonicalSpec((CanonicalBlock(-1.3, 2, 1), CanonicalBlock(-1.3, 2, -1),
                          CanonicalBlock(0.9, 2, 1))).sorted()
    b, h = _scrambled_instance(spec, 83)
    with pytest.raises(RootInaccurate, match=r"power 1\.000e-07, selfadjoint \S+ "
                                             r"\(limit 1\.0e-08\), cond\(S_X\) \d"):
        mth_root(b, h, 2)
    path = tmp_path / "pair.json"
    path.write_text(qroot.jsonio.dumps({"B": b.to_json(), "H": h.to_json()}))
    assert qroot.cli.main(["root", "--m", "2", "--in", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "RootInaccurate"}


def test_mth_root_branch_changes_nonreal_part_next_to_constrained_part():
    spec = CanonicalSpec((
        CanonicalBlock(-1.5, 1, 1), CanonicalBlock(-1.5, 1, -1),
        CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 1, 1),
        CanonicalBlock(0.8 + 1.3j, 2, None))).sorted()
    b, h = _scrambled_instance(spec, 90)
    out0 = mth_root(b, h, 2, branch=0)
    out1 = mth_root(b, h, 2, branch=1)
    assert not np.allclose(out0.root.data, out1.root.data)
    for out in (out0, out1):
        assert verify_root(out.root, b, h, 2).passed
        assert out.similarity.shape == (2 * _copy_size(spec), 2 * 5)


_MAPPED_OPENBLAS = """
import ctypes, json, os
import qroot.lapack as c
from qroot.roots import mth_root
from qroot.verify import random_instance
b, h, _ = random_instance(3, {"m": 2, "force": "admit"})
mth_root(b, h, 2)
paths = {line.split()[-1] for line in open("/proc/self/maps") if len(line.split()) >= 6}
print(c.provider().integer is ctypes.c_int64)
print(json.dumps(sorted(p for p in paths if "openblas" in os.path.basename(p))))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_a_solve_maps_one_openblas_library():
    # the solve's LAPACK is numpy's own OpenBLAS, not a second copy from scipy
    import json
    import os
    import subprocess
    proc = subprocess.run([sys.executable, "-c", _MAPPED_OPENBLAS], capture_output=True,
                          text=True, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    ilp64, libraries = proc.stdout.splitlines()
    if ilp64 == "False":
        pytest.skip("numpy's LAPACK lacks the ILP64 names; scipy's _flapack serves the kernels")
    assert len(json.loads(libraries)) == 1, libraries


_FLAPACK_SOLVE = """
import ctypes, sys
import qroot.lapack as c
from qroot.roots import mth_root
from qroot.verify import random_instance


def hidden():
    raise OSError("numpy's ILP64 names hidden")


c._numpy_lapack_library = hidden
b, h, _ = random_instance(3, {"m": 2, "force": "admit"})
mth_root(b, h, 2)
print(c.provider().integer is ctypes.c_int, c.provider()._lengths)
print([m for m in sys.modules if m.split(".")[0] == "scipy"])
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="a handle reaches its dependencies' names on Linux")
def test_a_solve_from_the_flapack_library_imports_no_scipy_module():
    # without numpy's ILP64 names the kernels come from the library that
    # scipy.linalg._flapack links against, dlopened without importing scipy
    import os
    import subprocess
    proc = subprocess.run([sys.executable, "-c", _FLAPACK_SOLVE], capture_output=True,
                          text=True, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True True", "[]"]
