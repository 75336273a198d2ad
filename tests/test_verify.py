import ast
from pathlib import Path

import numpy as np
import pytest

import qroot
from qroot import random_instance
from qroot.canonical import canonicalize_pair
from qroot.errors import DimensionMismatch, ProfileInvalid
from qroot.omega import omega_embed
from qroot.quaternion import QuatMatrix
from qroot.roots import RootResult, mth_root, root_exists
from qroot.verify import verify_root

from oracles import power_segre_oracle, spec_matches


def quat_scalar(value):
    return QuatMatrix(np.array([[[float(value), 0.0, 0.0, 0.0]]]))


# -- verify_root --------------------------------------------------------------

def _relative_imports(node) -> list[str]:
    """The qroot modules that the relative imports under node name."""
    return [alias.name if imp.module is None else imp.module
            for imp in ast.walk(node) if isinstance(imp, ast.ImportFrom) and imp.level
            for alias in imp.names]


def test_the_verifier_imports_no_solver_code():
    # the acceptance rule stays independent of the construction it checks
    src = Path(qroot.__file__).parent
    assert set(_relative_imports(ast.parse((src / "verify.py").read_text(encoding="utf-8")))) <= {
        "errors", "omega", "quaternion"}
    # and no module reaches another from inside a function to dodge a cycle
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert not _relative_imports(fn), f"{path.name}: {fn.name}"


def test_verify_identity_m1():
    rng = np.random.default_rng(0)
    y = QuatMatrix(rng.standard_normal((2, 2, 4)))
    h = QuatMatrix(0.5 * (y.data + y.adjoint().data))
    b = QuatMatrix(rng.standard_normal((2, 2, 4)))
    report = verify_root(b, b, h, 1)
    assert report.residual_power == 0.0
    assert report.passed == (report.residual_selfadjoint <= 1e-8)


def test_verify_scalar_pass():
    report = verify_root(quat_scalar(2.0), quat_scalar(16.0), QuatMatrix.eye(1), 4)
    assert report.passed
    assert report.residual_power == 0.0


def test_verify_scalar_fail():
    report = verify_root(quat_scalar(2.0), quat_scalar(15.0), QuatMatrix.eye(1), 4)
    assert not report.passed
    assert report.residual_power == pytest.approx(1.0 / 15.0)


def test_verify_bound_is_relative_and_applied_once():
    # |A^2 - B| / |B| = 2.0e-6, 200 times the bound; scaling the bound by |B|
    # a second time used to pass this root
    a, b = quat_scalar(100.0 + 1e-4), quat_scalar(1e4)
    report = verify_root(a, b, QuatMatrix.eye(1), 2)
    assert report.residual_power == pytest.approx(2.0e-6, rel=1e-3)
    assert not report.passed
    assert verify_root(a, b, QuatMatrix.eye(1), 2, tol=1e-5).passed


@pytest.mark.parametrize("m", [2, 3])
def test_root_result_residuals_are_verify_roots(m):
    # mth_root accepts its root through verify_root and reports its residuals
    for seed in range(6):
        b, h, _ = random_instance(seed, {"m": m, "force": "admit"})
        out = mth_root(b, h, m)
        report = verify_root(out.root, b, h, m)
        assert report.passed
        assert (out.residual_power, out.residual_selfadjoint) == (
            report.residual_power, report.residual_selfadjoint)


def test_verify_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        verify_root(quat_scalar(2.0), quat_scalar(4.0), QuatMatrix.eye(2), 2)


def test_verify_tampered_root():
    b, h, _ = random_instance(50, {"classes": ["positive"], "m": 2, "force": "admit"})
    out = mth_root(b, h, 2)
    data = out.root.data.copy()
    data[0, 0, 0] += 0.05
    report = verify_root(QuatMatrix(data), b, h, 2)
    assert not report.passed


# -- power Segre oracle -------------------------------------------------------

def test_power_segre_examples():
    assert power_segre_oracle(3, 2) == (2, 1)
    assert power_segre_oracle(5, 3) == (2, 2, 1)
    assert power_segre_oracle(4, 5) == (1, 1, 1, 1)


def test_power_segre_full_grid():
    for k in range(1, 13):
        for m in range(1, 7):
            parts = power_segre_oracle(k, m)
            assert sum(parts) == k
            a, r = (k - 1) // m, k - ((k - 1) // m) * m
            assert parts.count(a + 1) == r


# -- generator ----------------------------------------------------------------

def test_generator_determinism():
    prof = {"classes": ["positive", "zero"], "m": 2, "force": "admit"}
    b1, h1, s1 = random_instance(123, prof)
    b2, h2, s2 = random_instance(123, prof)
    assert np.array_equal(b1.data, b2.data)
    assert np.array_equal(h1.data, h2.data)
    assert s1 == s2


def test_generator_positive_profile_admits():
    for seed in range(5):
        b, h, spec = random_instance(seed, {"classes": ["positive"], "m": 3,
                                            "force": "admit"})
        out = mth_root(b, h, 3)
        assert isinstance(out, RootResult)
        assert verify_root(out.root, b, h, 3).passed


def test_generator_forced_refusal():
    b, h, spec = random_instance(2, {"classes": ["negative"], "m": 2,
                                     "force": "refuse"})
    decision = root_exists(spec, 2)
    assert not decision.exists
    assert decision.certificate.kind == "NegativeSignPairing"


@pytest.mark.parametrize("m", range(2, 10))
def test_every_refusal_fits_max_size(m):
    # for m odd the sign refusal J_2(0)+ with m - 1 J_1(0)+ has copy size m + 1;
    # it was drawn from max_size 3 up, so m = 5 gave size 6 at max_size 3
    for classes in (["zero"], ["negative", "zero"]):
        for max_size in range(1, 9):
            for seed in range(6):
                try:
                    _, _, spec = random_instance(seed, {"classes": classes, "m": m,
                                                        "force": "refuse", "max_size": max_size})
                except ProfileInvalid:
                    continue
                assert not root_exists(spec, m).exists
                assert sum(b.copy_width() for b in spec.blocks) <= max_size, (
                    classes, max_size, seed)


@pytest.mark.parametrize("m", range(2, 10))
def test_zero_refusals_exist_from_max_size_2(m):
    # J_2(0)+ with at most m - 2 J_1(0)+ admits no m-tuple grouping; it was
    # offered only from max_size m up, so zero-only refusals below that
    # were ProfileInvalid.  At max_size 1 no zero refusal exists
    for max_size in range(1, 9):
        profile = {"classes": ["zero"], "m": m, "force": "refuse", "max_size": max_size}
        if max_size == 1:
            with pytest.raises(ProfileInvalid):
                random_instance(0, profile)
            continue
        for seed in range(4):
            _, _, spec = random_instance(seed, profile)
            assert sum(b.copy_width() for b in spec.blocks) <= max_size
            assert not root_exists(spec, m).exists, (m, max_size, seed)


@pytest.mark.parametrize("profile", [{"classes": ["nonreal"], "max_size": 1, "force": "admit"},
                                     {"classes": ["negative"], "max_size": 1, "m": 2},
                                     {"classes": ["nonreal"], "max_size": 1, "force": "any"},
                                     {"classes": ["negative"], "max_size": 1, "m": 2,
                                      "force": "any"}])
def test_a_profile_that_places_no_block_is_invalid(profile):
    # a nonreal block or a +- pair at m even needs 2 of max_size; the
    # generator used to fall back to J_1(1)+, outside the profile's classes
    for seed in range(4):
        with pytest.raises(ProfileInvalid):
            random_instance(seed, profile)


def test_generator_profile_validation():
    with pytest.raises(ProfileInvalid):
        random_instance(0, {"classes": ["bogus"]})
    with pytest.raises(ProfileInvalid):
        random_instance(0, {"max_size": 30})
    with pytest.raises(ProfileInvalid):
        random_instance(0, {"classes": ["positive"], "force": "refuse"})
    for profile in ([1, 2], "x", 3, {"max_szie": 4}):  # not an object of the four keys
        with pytest.raises(ProfileInvalid):
            random_instance(0, profile)


@pytest.mark.parametrize("profile", [{"m": 2.5}, {"m": True}, {"m": "2"},
                                     {"max_size": "abc"}, {"max_size": 4.0},
                                     {"max_size": True}])
def test_generator_profile_integers_are_ints_not_bools(profile):
    # int() would draw for m = 2 or m = 1, accept "2", or fail as a NumericError
    with pytest.raises(ProfileInvalid):
        random_instance(1, profile)


def test_generator_scramble_invariance_of_decision():
    # the decision depends only on the canonical form: recovering the spec
    # from the scrambled pair gives the same decision
    for seed in (11, 12, 13, 14):
        m = 2 + seed % 3
        b, h, spec = random_instance(seed, {"classes": ["negative", "zero"],
                                            "m": m, "force": "any"})
        s, recovered = canonicalize_pair(omega_embed(b).array, omega_embed(h).array)
        assert spec_matches(recovered, spec)
        assert root_exists(recovered, m).exists == root_exists(spec, m).exists


def test_generator_scrambler_condition_bounded():
    for seed in range(5):
        b, h, spec = random_instance(seed, {"classes": ["nonreal"], "m": 2,
                                            "force": "admit"})
        # the instance itself stays moderately conditioned
        assert np.linalg.cond(omega_embed(h).array) < 1e6


def test_fifty_forced_refusals_have_expected_certificates():
    # the pipeline's certificate matches the gate decision on the true spec
    from qroot.roots import RootDecision
    count = 0
    seed = 0
    while count < 50:
        seed += 1
        m = 2 + seed % 4
        try:
            b, h, spec = random_instance(9000 + seed, {
                "classes": ["negative", "zero"], "m": m,
                "force": "refuse", "max_size": 10})
        except ProfileInvalid:
            continue
        expected = root_exists(spec, m)
        assert not expected.exists
        out = mth_root(b, h, m)
        assert isinstance(out, RootDecision)
        assert out.certificate.kind == expected.certificate.kind
        assert out.certificate.kind in ("NegativeSignPairing",
                                        "SignPatternViolation",
                                        "SegreTupleMismatch")
        count += 1
