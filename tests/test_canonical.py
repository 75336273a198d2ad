import ctypes

import numpy as np
import pytest
import scipy.linalg

import qroot.canonical as canonical
import qroot.lapack as kernels
from qroot.canonical import (DEFAULT_TOL, CanonicalBlock, CanonicalSpec,
                             block_diag, canonicalize_pair, jordan_block,
                             materialize_pair, sip_matrix)
from qroot.errors import NotSelfadjoint, SpecInvalid
from qroot.omega import chi, omega_embed, omega_membership
from qroot.quaternion import QuatMatrix

from lapack_sources import LAPACK_SOURCES, hide_names, lapack_source  # noqa: F401
from oracles import pair_loop_symplectic, pair_search_normalize, segre, spec_matches


def omega_similarity(rng, n, cond_cap=100.0):
    for _ in range(100):
        t = omega_embed(QuatMatrix(rng.standard_normal((n, n, 4)))).array
        if np.linalg.cond(t) <= cond_cap:
            return t
    raise AssertionError("no well-conditioned scrambler found")


def scrambled(spec, seed):
    rng = np.random.default_rng(seed)
    bm, hm = materialize_pair(spec)
    t = omega_similarity(rng, bm.half_n)
    b = np.linalg.solve(t, bm.array @ t)
    h = t.conj().T @ hm.array @ t
    return b, 0.5 * (h + h.conj().T)


# -- elementary builders ------------------------------------------------------

def test_jordan_block_examples():
    assert np.array_equal(jordan_block(2, 1), np.array([[2.0 + 0j]]))
    assert np.array_equal(jordan_block(2, 2), np.array([[2, 1], [0, 2]], dtype=complex))
    assert np.array_equal(jordan_block(1j, 2), np.array([[1j, 1], [0, 1j]]))


def test_sip_matrix_examples():
    assert np.array_equal(sip_matrix(1), np.array([[1.0]]))
    assert np.array_equal(sip_matrix(2), np.array([[0, 1], [1, 0.0]]))
    for k in range(1, 9):
        q = sip_matrix(k)
        assert np.array_equal(q, q.T)
        assert np.array_equal(q @ q, np.eye(k))


def test_materialize_examples():
    b, h = materialize_pair(CanonicalSpec((CanonicalBlock(3.0, 1, 1),)))
    assert np.array_equal(b.array, np.diag([3.0 + 0j, 3.0]))
    assert np.array_equal(h.array, np.eye(2))

    b, h = materialize_pair(CanonicalSpec((CanonicalBlock(0.0, 2, -1),)))
    j2 = jordan_block(0.0, 2)
    assert np.array_equal(b.array[:2, :2], j2)
    assert np.array_equal(b.array[2:, 2:], j2)
    assert np.array_equal(h.array[:2, :2], -sip_matrix(2))

    b, h = materialize_pair(CanonicalSpec((CanonicalBlock(1j, 1, None),)))
    assert np.array_equal(b.array, np.diag([1j, -1j, -1j, 1j]))
    import scipy.linalg
    assert np.array_equal(h.array, scipy.linalg.block_diag(sip_matrix(2), sip_matrix(2)))


def test_materialize_membership_zero():
    spec = CanonicalSpec((CanonicalBlock(2.0, 2, 1), CanonicalBlock(1j, 2, None),
                          CanonicalBlock(0.0, 1, -1)))
    b, h = materialize_pair(spec)
    assert omega_membership(b.array) == 0.0
    assert omega_membership(h.array) == 0.0


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        CanonicalBlock(1.0, 0, 1)
    with pytest.raises(SpecInvalid):
        CanonicalBlock(1.0, 1, None)
    with pytest.raises(SpecInvalid):
        CanonicalBlock(1j, 1, 1)
    with pytest.raises(SpecInvalid):
        CanonicalBlock(-1j, 1, None)
    for lam, sign in ((float("nan"), 1), (float("inf"), -1), (complex(-np.inf, 1.0), None)):
        with pytest.raises(SpecInvalid, match="finite"):
            CanonicalBlock(lam, 1, sign)


def test_spec_json_roundtrip():
    spec = CanonicalSpec((CanonicalBlock(1.0, 2, -1), CanonicalBlock(1j, 1, None)))
    back = CanonicalSpec.from_json(spec.to_json())
    assert back == spec


# -- Segre characteristic -----------------------------------------------------

def test_segre_examples():
    # the oracle on matrices whose Jordan form is known
    j33 = scipy.linalg.block_diag(jordan_block(0.0, 3), jordan_block(0.0, 3))
    assert segre(j33, 0.0) == (3, 3)
    assert segre(j33 @ j33, 0.0) == (2, 2, 1, 1)
    assert segre(jordan_block(5.0, 2), 5.0) == (2,)
    assert segre(jordan_block(5.0, 2), 3.0) == ()
    assert segre(block_diag(jordan_block(1j, 2), jordan_block(-1j, 1)), 1j) == (2,)


def test_segre_of_scrambled_matrix():
    # the engine's spec and the oracle agree on a scrambled pair
    spec = CanonicalSpec((CanonicalBlock(0.0, 3, 1), CanonicalBlock(0.0, 1, -1),
                          CanonicalBlock(2.0, 2, 1)))
    b, h = scrambled(spec, 11)
    assert segre(b, 0.0) == (3, 3, 1, 1)
    assert segre(b, 2.0) == (2, 2)
    _, out = canonicalize_pair(b, h)
    assert spec_matches(out, spec.sorted())


def test_doubling_corollary_50_random_nilpotent_members():
    # nilpotent quaternion matrices embed to members whose zero Segre doubles
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        data = rng.standard_normal((n, n, 4))
        data[np.tril_indices(n)] = 0.0  # strictly upper triangular, nilpotent
        arr = omega_embed(QuatMatrix(data)).array
        parts = segre(arr, 0.0)
        assert sum(parts) == 2 * n
        for value in set(parts):
            assert parts.count(value) % 2 == 0


def test_doubling_for_general_real_eigenvalue():
    # stated for any real eigenvalue; exercised here, not relied upon
    rng = np.random.default_rng(13)
    for _ in range(10):
        data = rng.standard_normal((4, 4, 4))
        data[np.tril_indices(4)] = 0.0
        mat = QuatMatrix(data + 1.5 * QuatMatrix.eye(4).data)
        parts = segre(omega_embed(mat).array, 1.5)
        for value in set(parts):
            assert parts.count(value) % 2 == 0


# -- the signs of the canonical H ---------------------------------------------

def test_inertia_matches_spec_prediction():
    # eta*Q_k contributes ceil/floor(k/2) per sign, Q_2k contributes (k, k),
    # and the doubling multiplies everything by two
    spec = CanonicalSpec((CanonicalBlock(1.0, 3, 1), CanonicalBlock(-2.0, 2, -1),
                          CanonicalBlock(1j, 2, None)))
    _, h = materialize_pair(spec)

    def sip_inertia(k, eta):
        plus = (k + 1) // 2 if eta == 1 else k // 2
        return plus, k - plus

    per_copy = [sip_inertia(3, 1), sip_inertia(2, -1), (2, 2)]
    expect = tuple(2 * sum(v) for v in zip(*per_copy))
    w = np.linalg.eigvalsh(h.array)
    assert (int(np.sum(w > 0.5)), int(np.sum(w < -0.5))) == expect


# -- canonicalization ---------------------------------------------------------

def _bound(x):
    """The engine's residual bound for one matrix: DEFAULT_TOL scaled by its norm."""
    return DEFAULT_TOL * max(1.0, float(np.linalg.norm(x)))


def _assert_canonical_residuals(s, b, h, out):
    bm, hm = materialize_pair(out)
    res_b = np.linalg.norm(np.linalg.solve(s, b @ s) - bm.array)
    res_h = np.linalg.norm(s.conj().T @ h @ s - hm.array)
    assert res_b + res_h <= _bound(b) + _bound(h)


def test_canonicalize_already_canonical():
    # a canonical pair goes through the engine like any other and comes back
    # as its own spec
    spec = CanonicalSpec((CanonicalBlock(-1.0, 1, 1), CanonicalBlock(2.0, 2, -1),
                          CanonicalBlock(1j, 1, None))).sorted()
    bm, hm = materialize_pair(spec)
    s, out = canonicalize_pair(bm, hm)
    assert out == spec
    assert omega_membership(s.array) == 0.0
    _assert_canonical_residuals(s.array, bm.array, hm.array, out)


def test_canonicalize_nonreal_already_canonical():
    bm, hm = materialize_pair(CanonicalSpec((CanonicalBlock(1j, 1, None),)))
    s, out = canonicalize_pair(bm.array, hm.array)
    assert out.blocks == (CanonicalBlock(1j, 1, None),)
    _assert_canonical_residuals(s.array, bm.array, hm.array, out)


def test_canonicalize_scrambled_real_block():
    spec = CanonicalSpec((CanonicalBlock(5.0, 2, 1),))
    b, h = scrambled(spec, 21)
    s, out = canonicalize_pair(b, h)
    assert spec_matches(out, spec)
    bm, hm = materialize_pair(out)
    assert np.linalg.norm(np.linalg.solve(s.array, b @ s.array) - bm.array) < 1e-8
    assert np.linalg.norm(s.array.conj().T @ h @ s.array - hm.array) < 1e-8
    assert omega_membership(s.array) == 0.0


@pytest.mark.parametrize("spec", [
    CanonicalSpec((CanonicalBlock(5.0, 2, -1),)),
    CanonicalSpec((CanonicalBlock(-1.0, 1, 1), CanonicalBlock(-1.0, 1, -1))),
    CanonicalSpec((CanonicalBlock(0.5 + 1j, 2, None),)),
    CanonicalSpec((CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 2, -1))),
    CanonicalSpec((CanonicalBlock(-2.0, 1, 1), CanonicalBlock(1.0, 2, -1),
                   CanonicalBlock(1j, 1, None), CanonicalBlock(0.0, 2, 1))),
])
def test_canonicalize_roundtrip_cases(spec):
    spec = spec.sorted()
    b, h = scrambled(spec, 22)
    s, out = canonicalize_pair(b, h)
    assert spec_matches(out, spec)
    bm, hm = materialize_pair(out)
    limit = 1e-8 * max(1.0, np.linalg.norm(b))
    assert np.linalg.norm(np.linalg.solve(s.array, b @ s.array) - bm.array) <= limit
    assert np.linalg.norm(s.array.conj().T @ h @ s.array - hm.array) <= limit


def test_canonicalize_rejects_non_selfadjoint():
    rng = np.random.default_rng(23)
    b = omega_embed(QuatMatrix(rng.standard_normal((2, 2, 4)))).array
    with pytest.raises(NotSelfadjoint):
        canonicalize_pair(b, np.eye(4, dtype=complex))


def test_canonicalize_detects_cluster_overlap():
    # two defective eigenvalues closer than the blob resolution must not
    # silently produce a wrong spec
    from qroot.errors import QRootError
    spec = CanonicalSpec((CanonicalBlock(1.0, 3, 1), CanonicalBlock(1.004, 3, 1)))
    b, h = scrambled(spec, 24)
    with pytest.raises(QRootError):
        canonicalize_pair(b, h)


class _CountingForm:
    """The Gram normalization's G, counting its products with vectors."""

    def __init__(self, g):
        self.g, self.products = g, 0

    def __matmul__(self, x):
        self.products += 1
        return self.g @ x


def test_gram_normalization_multiplies_each_vector_by_g_once_per_round(monkeypatch):
    # B = 0, H = I at quaternion n = 12: one zero cluster of 12 chains J_1(0),
    # one per quaternionic block.  Each round reads every pair of the chains
    # left; with their G images kept, a chain's vector is multiplied once per
    # round it is still in: 12 * 13 / 2 products, against 728 at a product
    # per moment
    from qroot.roots import RootResult, mth_root
    forms = []
    normalize = canonical._normalize_hermitian_chains

    def counting(chains, g, partner):
        forms.append(_CountingForm(g))
        return normalize(chains, forms[-1], partner)

    monkeypatch.setattr(canonical, "_normalize_hermitian_chains", counting)
    n = 12
    out = mth_root(QuatMatrix(np.zeros((n, n, 4))), QuatMatrix.eye(n), 2)
    assert isinstance(out, RootResult)
    assert len(forms) == 1 and forms[0].products <= n * (n + 1) // 2


def test_gram_normalization_reads_each_round_off_one_leading_moment_matrix(monkeypatch):
    # the same 12 chains J_1(0): the pair search evaluated 728 moments.  With
    # one leading-moment matrix per round, a round with r chains left
    # evaluates r: the pick's self-moment and one annihilation per other chain
    from qroot.roots import RootResult, mth_root
    calls = []
    chain_moment = canonical._chain_moment

    def counting(*args):
        calls.append(args)
        return chain_moment(*args)

    monkeypatch.setattr(canonical, "_chain_moment", counting)
    n = 12
    out = mth_root(QuatMatrix(np.zeros((n, n, 4))), QuatMatrix.eye(n), 2)
    assert isinstance(out, RootResult)
    assert len(calls) <= n * (n + 1) // 2


def _normalization_inputs(monkeypatch):
    """The chains, G and partner of 36 scrambled zero and negative clusters,
    each with equal-size blocks of both signs; some of them fold."""
    inputs = []
    normalize = canonical._normalize_hermitian_chains

    def recording(chains, g, partner):
        inputs.append(([list(c) for c in chains], g, partner))
        return normalize(chains, g, partner)

    with monkeypatch.context() as patch:
        patch.setattr(canonical, "_normalize_hermitian_chains", recording)
        for k, lam, seeds in [(1, 0.0, (0, 1, 2)), (1, -1.3, (17, 47, 50)),
                              (2, 0.0, (43, 48, 2)), (2, -1.3, (5, 40, 43)),
                              (3, 0.0, (55, 1, 2)), (3, -1.3, (36, 59, 2))]:
            other = -1.3 if lam == 0 else 0.0
            spec = CanonicalSpec((CanonicalBlock(lam, k, 1), CanonicalBlock(lam, k, -1),
                                  CanonicalBlock(other, 2, 1),
                                  CanonicalBlock(other, 1, -1))).sorted()
            for seed in seeds:
                canonicalize_pair(*scrambled(spec, seed))
    return inputs


def test_gram_normalization_is_bitwise_the_pair_search(monkeypatch):
    inputs = _normalization_inputs(monkeypatch)
    folds = []
    for chains, g, partner in inputs:
        got = canonical._normalize_hermitian_chains(chains, g, partner)
        want = pair_search_normalize(chains, g, partner, folds)
        assert [eta for eta, _ in got] == [eta for eta, _ in want]
        assert [[v.tobytes() for v in c] for _, c in got] == [
            [v.tobytes() for v in c] for _, c in want]
    assert len(inputs) >= 30
    # rounds that fold, each the later chain into the earlier, whatever
    # the last bits of the two equal cross moduli
    assert folds and all(i < j for i, j in folds)


def test_symplectic_pairing_reads_each_round_off_one_leading_moment_matrix(monkeypatch):
    # 12 equal J_1(1+i) pairs make a nonreal cluster of 24 chains.  The pair
    # search evaluated every ordered pair of top chains in each round, 2,720
    # moments; read off one matrix, a round with r chains left evaluates
    # 2r - 3: the normalizing moment and two annihilations per other chain
    calls = []
    chain_moment = canonical._chain_moment

    def counting(*args):
        calls.append(args)
        return chain_moment(*args)

    monkeypatch.setattr(canonical, "_chain_moment", counting)
    t = 12
    spec = CanonicalSpec((CanonicalBlock(1 + 1j, 1, None),) * t)
    _, out = canonicalize_pair(*materialize_pair(spec))
    assert out == spec
    assert len(calls) <= 2 * t * t


_NONREAL = 0.6 + 1.5j


def test_symplectic_pairing_is_bitwise_the_pair_loop(monkeypatch):
    # nonreal clusters of 2, 4 and 6 chains, of one length or two
    inputs = []
    normalize = canonical._normalize_symplectic_chains

    def recording(chains, bform):
        inputs.append(([list(c) for c in chains], bform))
        return normalize(chains, bform)

    monkeypatch.setattr(canonical, "_normalize_symplectic_chains", recording)
    for sizes in [(1,), (2,), (3,), (1, 1), (2, 1), (2, 2), (1, 1, 1), (2, 2, 1)]:
        spec = CanonicalSpec(tuple(CanonicalBlock(_NONREAL, k, None) for k in sizes)
                             + (CanonicalBlock(2.0, 1, 1),)).sorted()
        for seed in range(3):
            canonicalize_pair(*scrambled(spec, seed))
    picks = []
    for chains, bform in inputs:
        got = normalize(chains, bform)
        want = pair_loop_symplectic(chains, bform, picks)
        assert [[v.tobytes() for v in c + d] for c, d in got] == [
            [v.tobytes() for v in c + d] for c, d in want]
    assert sorted({len(chains) for chains, _ in inputs}) == [2, 4, 6]
    # pairs other than the first two top chains are picked too
    assert len(set(picks)) > 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_symplectic_orientation_survives_the_transposed_form(monkeypatch, k):
    # phi(x, y) and -phi(y, x) are equal in exact arithmetic and differ in
    # the last bit; the pair comparing two such moduli flipped 12 of these 45
    normalize = canonical._normalize_symplectic_chains

    def transposed(chains, bform):
        return normalize(chains, lambda x, y: -bform(y.T, x.T).T)

    spec = CanonicalSpec((CanonicalBlock(_NONREAL, k, None),
                          CanonicalBlock(2.0, 1, 1))).sorted()
    for seed in range(15):
        b, h = scrambled(spec, seed)
        s, out = canonicalize_pair(b, h)
        with monkeypatch.context() as patch:
            patch.setattr(canonical, "_normalize_symplectic_chains", transposed)
            s_t, out_t = canonicalize_pair(b, h)
        assert out_t == out
        assert np.abs(s_t.array - s.array).max() <= 1e-10 * np.abs(s.array).max()


# -- deflation: one Schur form reordered per cluster --------------------------

def _reference_deflate(b, centroid, radius, expected):
    """Per-cluster sorted Schur deflation, the form ztrsen reordering replaced."""
    _, z, sdim = scipy.linalg.schur(
        b, output="complex", sort=lambda x: abs(x - centroid) <= radius)
    assert sdim == expected
    q1 = z[:, :sdim]
    return q1, q1.conj().T @ b @ q1 - centroid * np.eye(sdim, dtype=complex)


def _many_cluster_spec(rng):
    """At least 8 Omega eigenvalue clusters and n >= 24, gaps far above the radius."""
    reals = rng.permutation([-3.2, -2.4, -1.6, -0.8, 0.0, 0.8, 1.6, 2.4, 3.2])
    nonreal = rng.permutation([0.6 + 1.2j, -1.1 + 2.0j, 1.7 + 2.6j, -2.2 + 1.1j])
    blocks = []
    for lam in reals[:6]:
        lam = 0.0 if lam == 0 else lam + rng.uniform(-0.05, 0.05)
        blocks.append(CanonicalBlock(lam, int(rng.integers(1, 4)), int(rng.choice([-1, 1]))))
    for lam in nonreal[:3]:
        blocks.append(CanonicalBlock(lam + rng.uniform(-0.05, 0.05), int(rng.integers(1, 4))))
    while sum(b.copy_width() for b in blocks) < 24:
        blocks.append(CanonicalBlock(blocks[0].lam, int(rng.integers(1, 3)),
                                     int(rng.choice([-1, 1]))))
    return CanonicalSpec(tuple(blocks)).sorted()


def _largest_principal_angle_sine(q, r):
    return float(np.linalg.norm(r - q @ (q.conj().T @ r), 2))


@pytest.mark.parametrize("seed", [31, 32, 33, 34])
def test_reordered_schur_matches_sorted_schur_reference(seed, monkeypatch):
    spec = _many_cluster_spec(np.random.default_rng(seed))
    b, h = scrambled(spec, seed)
    assert b.shape[0] >= 48
    radius = canonical._cluster_radius(b)
    schur = kernels.schur(b)
    clusters = canonical._cluster_eigenvalues(np.diag(schur[0]), radius)
    assert len(clusters) >= 8
    for c in clusters:
        # a cluster's members are the places the radius test about its
        # (snapped) centroid selects, so canon deflates what it did before
        near = np.abs(np.diag(schur[0]) - c.centroid) <= radius
        assert sorted(c.members) == np.flatnonzero(near).tolist()
        q_new, n_new = canonical._deflate_cluster(b, schur, c.centroid, c.members)
        q_ref, n_ref = _reference_deflate(b, c.centroid, radius, c.mult)
        assert q_new.shape == q_ref.shape == (b.shape[0], c.mult)
        assert np.allclose(q_new.conj().T @ q_new, np.eye(c.mult), atol=1e-12)
        assert _largest_principal_angle_sine(q_ref, q_new) < 1e-10
        resid = np.linalg.norm(b @ q_new - q_new @ (n_new + c.centroid * np.eye(c.mult)))
        assert resid <= _bound(b)

    s, out = canonicalize_pair(b, h)
    monkeypatch.setattr(canonical, "_deflate_cluster",
                        lambda b_, _schur, centroid, members:
                        _reference_deflate(b_, centroid, radius, len(members)))
    _, ref = canonicalize_pair(b, h)
    assert [(x.size, x.sign) for x in out.blocks] == [(x.size, x.sign) for x in ref.blocks]
    assert spec_matches(out, ref, lam_tol=1e-9) and spec_matches(out, spec)
    bm, hm = materialize_pair(out)
    res_b = np.linalg.norm(np.linalg.solve(s.array, b @ s.array) - bm.array)
    res_h = np.linalg.norm(s.array.conj().T @ h @ s.array - hm.array)
    assert res_b + res_h <= _bound(b) + _bound(h)


def test_one_schur_per_canonicalization(monkeypatch):
    calls = []
    schur = kernels.schur

    def counting(*args, **kwargs):
        calls.append(1)
        return schur(*args, **kwargs)

    monkeypatch.setattr(kernels, "schur", counting)
    spec = _many_cluster_spec(np.random.default_rng(35))
    canonicalize_pair(*scrambled(spec, 35))
    assert len(calls) == 1
    calls.clear()
    canonicalize_pair(*materialize_pair(spec))  # a canonical input takes the same path
    assert len(calls) == 1


def _schur_inputs():
    rng = np.random.default_rng(37)
    complex_inputs = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                      for n in (1, 7, 40, 76, 100, 128)]
    return complex_inputs + [rng.standard_normal((n, n)) for n in (2, 9, 33)]


def _assert_schur_form(b, t, z):
    """B = Z T Z^* with T upper triangular and Z unitary, and scipy's eigenvalues."""
    n = b.shape[0]
    assert t.dtype == z.dtype == np.complex128 and t.shape == z.shape == (n, n)
    assert not np.tril(t, -1).any()
    assert np.linalg.norm(z.conj().T @ z - np.eye(n)) <= 1e-13
    assert np.linalg.norm(b - z @ t @ z.conj().T) <= 1e-13 * np.linalg.norm(b)
    want = np.sort_complex(np.diag(scipy.linalg.schur(b, output="complex")[0]))
    got = np.sort_complex(np.diag(t))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-10 * np.linalg.norm(b)


def test_schur_is_a_schur_form_with_scipy_eigenvalues():
    for b in _schur_inputs():
        _assert_schur_form(b, *kernels.schur(b))


_SCHUR_FIRST = """
import sys
import numpy as np
import qroot.lapack as c
inputs = np.load(sys.argv[1])
want = np.load(sys.argv[2])
first = [c.schur(inputs[k]) for k in inputs.files]
assert "scipy" not in sys.modules
import scipy.linalg
c.provider.cache_clear()
for i, (k, (t, z)) in enumerate(zip(inputs.files, first)):
    assert np.array_equal(t, want[f"t{i}"]) and np.array_equal(z, want[f"z{i}"]), k
    again_t, again_z = c.schur(inputs[k])
    assert np.array_equal(again_t, t) and np.array_equal(again_z, z), k
"""


def test_schur_is_bitwise_the_same_before_and_after_scipy_linalg_loads(tmp_path):
    import os
    import subprocess
    import sys
    # a fresh process runs schur before scipy is imported, then after
    # scipy.linalg loads; this process, which loaded scipy.linalg first, gives
    # the reference bytes
    inputs, want = tmp_path / "inputs.npz", tmp_path / "want.npz"
    np.savez(inputs, *_schur_inputs())
    forms = [kernels.schur(b) for b in _schur_inputs()]
    np.savez(want, **{f"{x}{i}": f for i, tz in enumerate(forms) for x, f in zip("tz", tz)})
    proc = subprocess.run([sys.executable, "-c", _SCHUR_FIRST, str(inputs), str(want)],
                          capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr


def _capsule_address(capsule):
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))(capsule)
    return ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name)


def _entry_points(lapack):
    """The entry point of each routine that a provider calls."""
    return {name: ctypes.cast(fn, ctypes.c_void_p).value for name, fn in lapack._fn.items()}


def _flapack_addresses():
    """The LP64 routines of the library scipy.linalg._flapack links against."""
    import scipy.linalg._flapack
    lib = ctypes.CDLL(scipy.linalg._flapack.__file__)
    try:
        return {name: ctypes.cast(getattr(lib, f"scipy_{name}_", None) or getattr(lib, f"{name}_"),
                                  ctypes.c_void_p).value for name in kernels._ROUTINES}
    except AttributeError:
        pytest.skip("a handle on _flapack does not reach its LAPACK's names here")


def _assert_close(got, want, rtol=1e-13):
    assert np.linalg.norm(got - want) <= rtol * max(np.linalg.norm(want), 1e-300)


def _reorder_and_sylvester(t, z):
    """reorder and sylvester on the Schur form (T, Z), from the current provider.

    SELECT picks places 1, 3 and 5: read with the wrong LOGICAL width it
    would pick others, and the reordered form would differ.
    """
    select = np.zeros(len(t), dtype=bool)
    select[[1, 3, 5]] = True
    ts, zs, count, info = kernels.reorder(select, t, z)
    assert (count, info) == (3, 0)
    c = np.random.default_rng(41).standard_normal((13, 27)) + 0j
    return ts, zs, kernels.sylvester(t[:13, :13], t[13:, 13:], c)


def test_schur_fallback_to_flapack_library_then_capsules(lapack_source):
    import scipy.linalg.cython_lapack
    import scipy.linalg.lapack
    capi = scipy.linalg.cython_lapack.__pyx_capi__
    forms = [kernels.schur(b) for b in _schur_inputs()]
    t, z = forms[2]
    default = _reorder_and_sylvester(t, z)
    # numpy's names hidden: the LP64 names of the library _flapack links against
    flapack = lapack_source("flapack")
    assert _entry_points(flapack) == _flapack_addresses()
    flapack_forms = [kernels.schur(b) for b in _schur_inputs()]
    for (got_t, got_z), (want_t, want_z) in zip(flapack_forms, forms):
        _assert_close(got_t, want_t)
        _assert_close(got_z, want_z)
    from_flapack = _reorder_and_sylvester(t, z)
    for got, want in zip(from_flapack, default):
        _assert_close(got, want)
    # scipy's f2py wrappers call the same library, with the same workspace,
    # so they give the same bits
    select = np.zeros(len(t), dtype=np.int32)
    select[[1, 3, 5]] = 1
    ts, zs, _, count, _, _, info = scipy.linalg.lapack.ztrsen(select, t, z, job="N", lwork=1)
    c = np.random.default_rng(41).standard_normal((13, 27)) + 0j
    x, scale, info_x = scipy.linalg.lapack.ztrsyl(t[:13, :13], t[13:, 13:], c, isgn=-1)
    assert (count, info, scale, info_x) == (3, 0, 1.0, 0)
    for got, want in zip(from_flapack, (ts, zs, x)):
        np.testing.assert_array_equal(got, want)
    # _flapack's names hidden as well: scipy's Cython capsules, called without
    # hidden lengths, on the same library, so with the same bits
    capsules = lapack_source("capsules")
    assert _entry_points(capsules) == {name: _capsule_address(capi[name]) for name in kernels._ROUTINES}
    for b, (got_t, got_z) in zip(_schur_inputs(), flapack_forms):
        again_t, again_z = kernels.schur(b)
        assert np.array_equal(again_t, got_t) and np.array_equal(again_z, got_z)
    for got, want in zip(_reorder_and_sylvester(t, z), from_flapack):
        np.testing.assert_array_equal(got, want)
    spec = _many_cluster_spec(np.random.default_rng(35))
    _, out = canonicalize_pair(*scrambled(spec, 35))
    assert spec_matches(out, spec)


@pytest.mark.parametrize("hidden", sorted(kernels._ROUTINES))
def test_one_missing_ilp64_name_sends_all_five_routines_to_scipy(monkeypatch, hidden):
    want = _flapack_addresses()
    try:
        hide_names(monkeypatch, "_numpy_lapack_library", "_64_", [hidden])
        lapack = kernels.provider()
        assert (lapack.integer, lapack._lengths) == (ctypes.c_int, True)
        assert _entry_points(lapack) == want
    finally:
        kernels.provider.cache_clear()


def test_illegal_lapack_argument_raises_naming_the_routine():
    # ISGN = 0, ztrsyl's third argument, is neither 1 nor -1
    t = np.asfortranarray(np.triu(np.ones((4, 4))) + 0j)
    a, b, c = (np.asfortranarray(x) for x in (t[:2, :2], t[2:, 2:], t[:2, 2:]))
    with pytest.raises(np.linalg.LinAlgError, match="ztrsyl: argument 3"):
        kernels.provider()._call("ztrsyl", b"N", b"N", 0, 2, 2, a, 2, b, 2, c, 2,
                                 ctypes.c_double(0.0))


@pytest.mark.parametrize("n", [7, 160])
def test_each_ilp64_kernel_makes_one_call_at_its_minimum_workspace(monkeypatch, lapack_source, n):
    # LAPACK's documented minimum LWORK from every source, and no lwork = -1
    # query; zgehrd and zunghr then run unblocked above order 129 too, so
    # the sources agree there as below
    rng = np.random.default_rng(43)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    select = np.arange(n) % 2 == 1
    forms = {}
    for source in LAPACK_SOURCES:
        lapack = lapack_source(source)
        lwork = {}
        for name, slot in (("zgehrd", 7), ("zunghr", 7), ("ztrsen", 13)):
            def watched(*args, fn=lapack._fn[name], name=name, slot=slot, width=lapack.integer):
                lwork.setdefault(name, []).append(width.from_address(args[slot]).value)
                return fn(*args)

            monkeypatch.setitem(lapack._fn, name, watched)
        t, z = kernels.schur(b)
        _assert_schur_form(b, t, z)
        ts, zs, count, info = kernels.reorder(select, t, z)
        assert (count, info) == (n // 2, 0)
        _assert_schur_form(b, ts, zs)
        assert lwork == {"zgehrd": [n], "zunghr": [n - 1], "ztrsen": [1]}, source
        forms[source] = (t, z, ts, zs)
    for got, want in zip(forms["flapack"], forms["numpy"]):
        _assert_close(got, want)
    for got, want in zip(forms["capsules"], forms["flapack"]):
        assert np.array_equal(got, want)


def _svd_radius(b):
    """_cluster_radius's formula with ||B||_2 always from the SVD."""
    bnorm = float(np.linalg.norm(b, 2)) if b.size else 0.0
    kbound = max(1, min(b.shape[0], 16))
    blob = min(2.0 * (max(np.finfo(float).eps * max(1.0, bnorm), 1e-300)) ** (1.0 / kbound),
               0.25)
    return max(canonical.CLUSTER_FACTOR * max(1.0, float(np.linalg.norm(b))), blob)


def test_cluster_radius_is_bitwise_the_svd_formula():
    rng = np.random.default_rng(41)
    mats = [scrambled(_many_cluster_spec(rng), seed)[0] for seed in (41, 42)]  # spread size
    for seed in (43, 44):  # deep size: few eigenvalues, long blocks, n 12-32
        spec = CanonicalSpec((CanonicalBlock(0.0, 3, 1), CanonicalBlock(0.0, 2, -1),
                              CanonicalBlock(-1.4, 4, 1), CanonicalBlock(-1.4, 4, -1),
                              CanonicalBlock(0.7 + 1.1j, 3)))
        mats.append(scrambled(spec, seed)[0])
    mats += [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             for n in (1, 2, 6, 14, 15)]  # order below 16
    mats += [1e-3 * rng.standard_normal((n, n)) for n in (4, 20, 64)]  # small norm
    mats += [np.zeros((0, 0)), np.zeros((4, 4))]
    q = np.linalg.qr(rng.standard_normal((20, 20)))[0]
    mats += [16.0 * (1.0 + d) * q for d in (-1e-9, 0.0, 1e-9, 1e-6, 1e-3)]  # ||B||_2 at 16
    mats.append(16.0 * np.eye(16))
    for b in mats:
        assert canonical._cluster_radius(b) == _svd_radius(b), b.shape


def test_staircase_takes_one_svd_per_power(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    j33 = block_diag(jordan_block(0.0, 3), jordan_block(0.0, 3))
    dims, kernels_ = canonical._staircase(j33, 6)
    assert dims == [0, 2, 4, 6] and [k.shape[1] for k in kernels_] == dims
    assert len(calls) == 3


class _CountingN:
    """A matrix N that counts the products N @ v; arrays defer to its operators."""

    __array_ufunc__ = None

    def __init__(self, a):
        self.a, self.shape, self.products = a, a.shape, 0

    def __matmul__(self, v):
        self.products += 1
        return self.a @ v

    def __rmatmul__(self, other):  # the staircase's powers
        return other @ self.a


@pytest.mark.parametrize("quaternionic", [False, True])
def test_nilpotent_chains_apply_n_once_per_chain_vector(quaternionic):
    # each chain vector below its generator is one product with N; the
    # descents that generators at lower levels avoid are those same vectors
    j = block_diag(jordan_block(0.0, 3), jordan_block(0.0, 2), jordan_block(0.0, 2))
    partner = chi if quaternionic else None
    n_mat = _CountingN(block_diag(j, j) if quaternionic else j)
    chains = canonical._nilpotent_chains(n_mat, n_mat.shape[0], partner)
    assert [len(c) for c in chains] == [3, 2, 2]
    assert n_mat.products == sum(len(c) - 1 for c in chains)
    for c in chains:
        assert np.allclose(n_mat.a @ c[0], 0)
        for lower, upper in zip(c, c[1:]):
            assert np.allclose(n_mat.a @ upper, lower)


def _snapped(centroid, radius):
    """A centroid within radius of the real axis on it, and within radius of zero at zero."""
    if abs(centroid.imag) > radius:
        return centroid
    return complex(0.0 if abs(centroid.real) <= radius else centroid.real, 0.0)


def _reference_clusters(eigs, radius):
    """Pairwise double-loop single linkage, the form the vectorized scan replaced."""
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    parent = list(range(len(eigs)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            if abs(eigs[j] - eigs[i]) <= radius:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(len(eigs)):
        groups.setdefault(find(i), []).append(eigs[i])
    clusters = sorted(((complex(np.mean(g)), len(g)) for g in groups.values()),
                      key=lambda c: (c[0].real, c[0].imag))
    return [(_snapped(c, radius), k) for c, k in clusters]


def test_cluster_eigenvalues_bit_identical_to_pairwise_scan():
    rng = np.random.default_rng(36)
    for _ in range(20):
        centers = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        eigs = np.repeat(centers, rng.integers(1, 4, size=8))
        eigs = eigs + 1e-3 * (rng.standard_normal(eigs.size) + 1j * rng.standard_normal(eigs.size))
        got = canonical._cluster_eigenvalues(rng.permutation(eigs), 0.3)
        want = _reference_clusters(rng.permutation(eigs), 0.3)
        assert [(c.centroid, c.mult) for c in got] == want


def _bfs_clusters(eigs, radius):
    """Connected components by breadth-first search over the sorted eigenvalues."""
    order = np.lexsort((eigs.imag, eigs.real))
    eigs = eigs[order]
    seen, groups = set(), []
    for start in range(len(eigs)):
        if start in seen:
            continue
        seen.add(start)
        queue, group = [start], []
        while queue:
            i = queue.pop(0)
            group.append(i)
            for j in range(len(eigs)):
                if j not in seen and abs(eigs[j] - eigs[i]) <= radius:
                    seen.add(j)
                    queue.append(j)
        group.sort()
        groups.append((complex(np.mean(eigs[group])), len(group), order[group].tolist()))
    groups.sort(key=lambda c: (c[0].real, c[0].imag))
    return [(_snapped(c, radius), k, members) for c, k, members in groups]


def test_cluster_eigenvalues_match_breadth_first_components():
    rng = np.random.default_rng(37)
    for trial in range(30):
        kind = trial % 3
        if kind == 0:  # scattered points
            eigs = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        elif kind == 1:  # chains whose ends lie far apart, in random directions
            starts = 3.0 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            steps = 0.2 * np.exp(2j * np.pi * rng.random(4))
            eigs = np.concatenate([s + d * np.arange(int(rng.integers(2, 9)))
                                   for s, d in zip(starts, steps)])
        else:  # blobs with their conjugates, one of them near the real axis
            centers = rng.standard_normal(5) + 1j * rng.uniform(0.0, 2.0, 5)
            centers[0] = centers[0].real + 0.1j
            blob = np.repeat(centers, rng.integers(1, 5, size=5))
            blob = blob + 0.05 * (rng.standard_normal(blob.size)
                                  + 1j * rng.standard_normal(blob.size))
            eigs = np.concatenate([blob, blob.conj()])
        eigs = rng.permutation(eigs)
        got = canonical._cluster_eigenvalues(eigs, 0.25)
        want = _bfs_clusters(eigs, 0.25)
        assert [(c.centroid, c.mult, c.members.tolist()) for c in got] == want, trial


def test_block_diag_matches_scipy():
    blocks = [np.arange(4.0).reshape(2, 2), jordan_block(1j, 3), -sip_matrix(1)]
    got = block_diag(*blocks)
    want = scipy.linalg.block_diag(*blocks)
    assert got.dtype == want.dtype and np.array_equal(got, want)
