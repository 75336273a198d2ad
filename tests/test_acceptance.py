"""Acceptance suite: eight criteria, each printing one pass/fail line.

Residual bounds are pinned here; runtime budgets are asserted where stated.
"""

import json
import subprocess
import sys
import time

import numpy as np

from qroot.canonical import (CanonicalBlock, CanonicalSpec, canonicalize_pair,
                             materialize_pair, segre_characteristic)
from qroot.omega import omega_embed
from qroot.quaternion import QuatMatrix
from qroot.roots import RootResult, mth_root, root_exists
from qroot.verify import power_segre_oracle, random_instance, verify_root


def _report(name, passed, detail=""):
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def run_cli(args, inp=None):
    proc = subprocess.run([sys.executable, "-m", "qroot.cli"] + args,
                          input=inp, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_criterion_1_omega_isomorphism_suite():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        x = QuatMatrix(rng.standard_normal((n, n, 4)))
        y = QuatMatrix(rng.standard_normal((n, n, 4)))
        wx, wy = omega_embed(x).array, omega_embed(y).array
        hom = np.linalg.norm(omega_embed(x @ y).array - wx @ wy) / max(
            1.0, np.linalg.norm(wx) * np.linalg.norm(wy))
        adj = np.linalg.norm(omega_embed(x.adjoint()).array - wx.conj().T) / max(
            1.0, np.linalg.norm(wx))
        worst = max(worst, hom, adj)
        if np.linalg.cond(wx) < 1e8:
            inv = omega_embed(x.inverse()).array
            worst = max(worst, np.linalg.norm(inv @ wx - np.eye(2 * n)) / np.linalg.cond(wx))
        h = (x + x.adjoint()).scale(0.5)
        harr = omega_embed(h).array
        worst = max(worst, np.linalg.norm(harr - harr.conj().T) / max(1.0, np.linalg.norm(harr)))
    elapsed = time.monotonic() - start
    _report("1 omega isomorphism (200 pairs)",
            worst <= 1e-12 and elapsed <= 5.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_power_lemma_oracle():
    start = time.monotonic()
    for k in range(1, 13):
        for m in range(1, 7):
            power_segre_oracle(k, m)  # raises OracleDisagreement on mismatch
    elapsed = time.monotonic() - start
    _report("2 power-lemma oracle (72 cases)", elapsed <= 5.0, f"{elapsed:.1f}s")


def test_criterion_3_canonical_roundtrip_100():
    start = time.monotonic()
    failures = []
    for seed in range(100):
        b, h, spec = random_instance(3000 + seed, {
            "classes": ["positive", "negative", "nonreal", "zero"],
            "m": 2 + seed % 4, "force": "admit", "max_size": 12})
        barr, harr = omega_embed(b).array, omega_embed(h).array
        s, out = canonicalize_pair(barr, harr)
        bm, hm = materialize_pair(out)
        res_b = np.linalg.norm(np.linalg.solve(s.array, barr @ s.array) - bm.array)
        res_h = np.linalg.norm(s.array.conj().T @ harr @ s.array - hm.array)
        limit_b = 1e-8 * max(1.0, np.linalg.norm(barr))
        limit_h = 1e-8 * max(1.0, np.linalg.norm(harr))
        if not (out.matches(spec) and res_b <= limit_b and res_h <= limit_h):
            failures.append((seed, out.matches(spec), res_b, res_h))
    elapsed = time.monotonic() - start
    _report("3 canonical round trip (100 specs)",
            not failures and elapsed <= 60.0,
            f"failures {failures[:3]}, {elapsed:.1f}s" if failures else f"{elapsed:.1f}s")


def test_criterion_4_unconditional_theorems_100():
    start = time.monotonic()
    failures = []
    cases = ([("positive", m) for m in (1, 2, 3, 4, 5)] * 7
             + [("nonreal", m) for m in (2, 3, 4, 5)] * 9
             + [("negative", m) for m in (1, 3, 5)] * 10)[:100]
    assert len(cases) == 100
    for seed, (cls, m) in enumerate(cases):
        b, h, spec = random_instance(4000 + seed, {
            "classes": [cls], "m": m, "force": "admit", "max_size": 8})
        out = mth_root(b, h, m)
        if not isinstance(out, RootResult):
            failures.append((seed, cls, m, "refused"))
            continue
        report = verify_root(out.root, b, h, m)
        if not (report.residual_power <= 1e-8
                and report.residual_selfadjoint <= 1e-8 and report.passed):
            failures.append((seed, cls, m, report.residual_power))
    elapsed = time.monotonic() - start
    _report("4 unconditional classes (100 instances)",
            not failures and elapsed <= 60.0,
            f"failures {failures[:3]}, {elapsed:.1f}s" if failures else f"{elapsed:.1f}s")


def test_criterion_5_negative_even_gate():
    minus_i2 = {"n": 2, "entries": [[-1, 0, 0, 0], [0, 0, 0, 0],
                                    [0, 0, 0, 0], [-1, 0, 0, 0]]}
    eye2 = {"n": 2, "entries": [[1, 0, 0, 0], [0, 0, 0, 0],
                                [0, 0, 0, 0], [1, 0, 0, 0]]}
    diag_pm = {"n": 2, "entries": [[1, 0, 0, 0], [0, 0, 0, 0],
                                   [0, 0, 0, 0], [-1, 0, 0, 0]]}
    rc, out = run_cli(["check", "--m", "2"], inp=json.dumps({"B": minus_i2, "H": eye2}))
    gate_ok = rc == 2 and json.loads(out)["certificate"]["kind"] == "NegativeSignPairing"

    b = QuatMatrix.from_json(minus_i2)
    h = QuatMatrix.from_json(diag_pm)
    result = mth_root(b, h, 2)
    build_ok = (isinstance(result, RootResult)
                and result.residual_power <= 1e-12
                and result.residual_selfadjoint <= 1e-12
                and verify_root(result.root, b, h, 2).passed)
    # the reference root [[0, i], [i, 0]] is one valid output; ours must pass
    # the same independent verification
    ref = QuatMatrix.from_complex_pair(np.array([[0, 1j], [1j, 0]]), np.zeros((2, 2)))
    ref_ok = verify_root(ref, b, h, 2).passed
    _report("5 negative-even gate", gate_ok and build_ok and ref_ok,
            f"gate={gate_ok} build={build_ok} reference={ref_ok}")


def test_criterion_6_nilpotent_paper_example():
    spec = CanonicalSpec((CanonicalBlock(0.0, 3, 1), CanonicalBlock(0.0, 3, -1),
                          CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 2, -1)))
    bm, hm = materialize_pair(spec)
    from qroot.omega import omega_extract
    b, h = omega_extract(bm), omega_extract(hm)
    out = mth_root(b, h, 4)
    ok = isinstance(out, RootResult)
    segre_ok = False
    verified = False
    if ok:
        root_omega = omega_embed(out.root).array
        segre_ok = segre_characteristic(root_omega, 0.0).parts == (10, 10)
        verified = verify_root(out.root, b, h, 4).passed
    _report("6 nilpotent (3,3,2,2) -> (10,10) at m=4", ok and segre_ok and verified,
            f"segre_ok={segre_ok} verified={verified}")


def test_criterion_7_sign_rule_gate():
    bad = CanonicalSpec((CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 1, -1)))
    decision = root_exists(bad, 2)
    gate_ok = (not decision.exists
               and decision.certificate.kind == "SignPatternViolation")

    good = CanonicalSpec((CanonicalBlock(0.0, 2, 1), CanonicalBlock(0.0, 1, 1)))
    exists_ok = root_exists(good, 2).exists
    bm, hm = materialize_pair(good)
    from qroot.omega import omega_extract
    b, h = omega_extract(bm), omega_extract(hm)
    out = mth_root(b, h, 2)
    build_ok = isinstance(out, RootResult) and verify_root(out.root, b, h, 2).passed
    _report("7 sign-rule gate", gate_ok and exists_ok and build_ok,
            f"gate={gate_ok} flipped={exists_ok} build={build_ok}")


def test_criterion_8_byte_identical_reruns(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"classes": ["positive", "negative", "nonreal", "zero"],
                                   "m": 2, "force": "admit", "max_size": 8}))
    stable = True
    rc, bundle = run_cli(["gen", "--seed", "88", "--in", str(profile)])
    rc2, bundle2 = run_cli(["gen", "--seed", "88", "--in", str(profile)])
    stable &= bundle == bundle2 and rc == rc2 == 0
    for args in (["root", "--m", "2"], ["check", "--m", "2"], ["canon"]):
        _, out1 = run_cli(args, inp=bundle)
        _, out2 = run_cli(args, inp=bundle)
        stable &= out1 == out2
    _, rooted = run_cli(["root", "--m", "2"], inp=bundle)
    _, v1 = run_cli(["verify"], inp=rooted)
    _, v2 = run_cli(["verify"], inp=rooted)
    stable &= v1 == v2
    _report("8 byte-identical reruns", stable)
