import hashlib
import io
import json
import subprocess
import sys

import pytest

PYTHON = sys.executable


def run_cli(args, inp=None):
    proc = subprocess.run([PYTHON, "-m", "qroot.cli"] + args, input=inp,
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def quat_json(entries_by_row, n):
    return {"n": n, "entries": entries_by_row}


MINUS_I2 = quat_json([[-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0]], 2)
EYE2 = quat_json([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]], 2)
DIAG_PM = quat_json([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [-1, 0, 0, 0]], 2)


def test_embed_extract_roundtrip():
    mat = json.dumps(quat_json([[0.5, 1.0, -2.0, 0.25]], 1))
    rc, omega, _ = run_cli(["embed"], inp=mat)
    assert rc == 0
    doc = json.loads(omega)
    assert doc["dim"] == 2
    rc, back, _ = run_cli(["extract"], inp=omega)
    assert rc == 0
    assert json.loads(back) == json.loads(mat)


def test_extract_rejects_non_member():
    bad = json.dumps({"dim": 2, "re": [0, 1, 1, 0], "im": [0, 0, 0, 0]})
    rc, out, err = run_cli(["extract"], inp=bad)
    assert rc == 1
    assert json.loads(out) == {"error": "NotInOmega"}
    assert err


def test_root_scalar():
    payload = json.dumps({"B": quat_json([[16, 0, 0, 0]], 1),
                          "H": quat_json([[1, 0, 0, 0]], 1)})
    rc, out, _ = run_cli(["root", "--m", "4"], inp=payload)
    assert rc == 0
    doc = json.loads(out)
    assert doc["root"]["entries"][0][0] == pytest.approx(2.0)
    assert doc["residual_power"] <= 1e-12


def test_check_exit_codes():
    payload = json.dumps({"B": MINUS_I2, "H": EYE2})
    rc, out, _ = run_cli(["check", "--m", "2"], inp=payload)
    assert rc == 2
    doc = json.loads(out)
    assert doc["exists"] is False
    assert doc["certificate"]["kind"] == "NegativeSignPairing"

    payload = json.dumps({"B": MINUS_I2, "H": DIAG_PM})
    rc, out, _ = run_cli(["check", "--m", "2"], inp=payload)
    assert rc == 0
    assert json.loads(out)["exists"] is True


def test_check_spec_format():
    spec = {"spec": {"blocks": [{"lambda": [0.0, 0.0], "size": 2, "sign": 1},
                                 {"lambda": [0.0, 0.0], "size": 1, "sign": -1}],
                     "doubled": True}}
    rc, out, _ = run_cli(["check", "--m", "2", "--format", "spec"],
                         inp=json.dumps(spec))
    assert rc == 2
    assert json.loads(out)["certificate"]["kind"] == "SignPatternViolation"
    # Omega-level specs are always doubled
    spec["spec"]["doubled"] = False
    rc, out, _ = run_cli(["check", "--m", "2", "--format", "spec"],
                         inp=json.dumps(spec))
    assert (rc, json.loads(out)) == (1, {"error": "SpecInvalid"})


def test_check_stops_after_the_gate(tmp_path, monkeypatch, capsys):
    import qroot.cli
    import qroot.roots

    def no_build(*args, **kwargs):
        raise AssertionError("check must not build a root")

    monkeypatch.setattr(qroot.roots, "_build_canonical_root", no_build)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"B": MINUS_I2, "H": DIAG_PM}))
    assert qroot.cli.main(["check", "--m", "2", "--in", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"exists": True, "certificate": None}


def test_canon_roundtrip():
    payload = json.dumps({"B": MINUS_I2, "H": DIAG_PM})
    rc, out, _ = run_cli(["canon"], inp=payload)
    assert rc == 0
    doc = json.loads(out)
    blocks = doc["spec"]["blocks"]
    assert [b["sign"] for b in blocks] == [1, -1]
    assert doc["residual_b"] <= 1e-10


def _admit_profile(tmp_path, m=2):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"classes": ["positive", "negative", "nonreal", "zero"],
                                   "m": m, "force": "admit", "max_size": 8}))
    return str(profile)


def test_gen_root_verify_pipe(tmp_path):
    rc, bundle, _ = run_cli(["gen", "--seed", "5", "--in", _admit_profile(tmp_path)])
    assert rc == 0
    rc, rooted, _ = run_cli(["root", "--m", "2"], inp=bundle)
    assert rc == 0
    rc, report, _ = run_cli(["verify", "--m", "2"], inp=rooted)
    assert rc == 0
    assert json.loads(report)["passed"] is True


def test_verify_tampered_root_exit_1(tmp_path):
    rc, bundle, _ = run_cli(["gen", "--seed", "6", "--in", _admit_profile(tmp_path)])
    rc, rooted, _ = run_cli(["root", "--m", "2"], inp=bundle)
    doc = json.loads(rooted)
    doc["root"]["entries"][0][0] += 0.1
    rc, report, _ = run_cli(["verify", "--m", "2"], inp=json.dumps(doc))
    assert rc == 1
    assert json.loads(report)["passed"] is False


def test_byte_stable_outputs():
    args = ["gen", "--seed", "17", "--m", "3"]
    rc1, out1, _ = run_cli(args)
    rc2, out2, _ = run_cli(args)
    assert out1 == out2
    rc, r1, _ = run_cli(["root", "--m", "3"], inp=out1)
    rc, r2, _ = run_cli(["root", "--m", "3"], inp=out2)
    assert r1 == r2


def test_usage_errors_exit_1():
    rc, out, err = run_cli(["root"], inp="{}")
    assert rc == 1
    rc, out, err = run_cli(["root", "--m", "2"], inp="not json")
    assert rc == 1
    assert json.loads(out) == {"error": "ParseError"}
    rc, _, _ = run_cli(["frobnicate"])
    assert rc == 1


def test_verify_rejects_nonpositive_tolerance(tmp_path, capsys):
    # a tolerance that is not a positive finite number is a ParseError for
    # every command that reads one, not a failed check of a valid root; a NaN
    # or inf tolerance used to switch the HB = B*H input check off
    pair = {"B": quat_json([[16, 0, 0, 0]], 1), "H": quat_json([[1, 0, 0, 0]], 1)}
    rc, doc = _main_on(tmp_path, capsys, ["root", "--m", "4"], pair)
    assert rc == 0
    spec = {"blocks": [{"lambda": [16.0, 0.0], "size": 1, "sign": 1}]}
    for args, payload in ((["canon"], pair), (["check", "--m", "4"], pair),
                          (["check", "--m", "4", "--format", "spec"], spec),
                          (["root", "--m", "4"], pair), (["verify", "--m", "4"], doc)):
        for tol in ("-1", "0", "nan", "inf"):
            assert _main_on(tmp_path, capsys, args + ["--tol", tol], payload) == (
                1, {"error": "ParseError"}), (args, tol)


def test_verify_exits_1_on_a_root_outside_the_relative_bound(tmp_path, capsys):
    # |A^2 - B| / |B| = 2.0e-6 for A = 100 + 1e-4, B = 1e4
    doc = {"root": quat_json([[100.0001, 0, 0, 0]], 1), "B": quat_json([[1e4, 0, 0, 0]], 1),
           "H": quat_json([[1, 0, 0, 0]], 1), "m": 2}
    rc, report = _main_on(tmp_path, capsys, ["verify"], doc)
    assert (rc, report["passed"]) == (1, False)


def test_gen_profile_file(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"classes": ["positive"], "m": 3,
                                   "force": "admit", "max_size": 6}))
    rc, out, _ = run_cli(["gen", "--seed", "1", "--in", str(profile)])
    assert rc == 0
    doc = json.loads(out)
    assert doc["m"] == 3
    assert all(b["lambda"][0] > 0 for b in doc["spec"]["blocks"])


@pytest.mark.parametrize("profile", [{"m": 2.5}, {"m": True}, {"max_size": "abc"}])
def test_gen_rejects_a_profile_integer_that_is_not_an_int(tmp_path, capsys, profile):
    import qroot.cli
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    assert qroot.cli.main(["gen", "--seed", "1", "--in", str(path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"error": "ProfileInvalid"}


@pytest.mark.parametrize("profile", [[1, 2], "x", 3, {"max_szie": 4}])
def test_gen_rejects_a_profile_that_is_not_an_object_of_the_four_keys(tmp_path, capsys,
                                                                       profile):
    # gen used to draw from the defaults, and to ignore an unknown key
    import qroot.cli
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(profile))
    for flags in ([], ["--m", "3"]):
        assert qroot.cli.main(["gen", "--seed", "1", "--in", str(path), *flags]) == 1
        assert json.loads(capsys.readouterr().out) == {"error": "ProfileInvalid"}


def test_root_branch_flag(tmp_path):
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"classes": ["nonreal"], "m": 3,
                                   "force": "admit", "max_size": 4}))
    rc, bundle, _ = run_cli(["gen", "--seed", "4", "--in", str(profile)])
    rc0, out0, _ = run_cli(["root", "--m", "3", "--branch", "0"], inp=bundle)
    rc1, out1, _ = run_cli(["root", "--m", "3", "--branch", "1"], inp=bundle)
    assert rc0 == rc1 == 0
    assert out0 != out1  # different branch, different root
    rc, report, _ = run_cli(["verify"], inp=out1)
    assert rc == 0 and json.loads(report)["passed"] is True


def test_canon_omega_format():
    rc, omega_b, _ = run_cli(["embed"], inp=json.dumps(MINUS_I2))
    rc, omega_h, _ = run_cli(["embed"], inp=json.dumps(DIAG_PM))
    payload = json.dumps({"B": json.loads(omega_b), "H": json.loads(omega_h)})
    rc, out, _ = run_cli(["canon", "--format", "omega"], inp=payload)
    assert rc == 0
    assert [b["sign"] for b in json.loads(out)["spec"]["blocks"]] == [1, -1]


def test_cli_import_leaves_scipy_unloaded():
    import os
    code = "import sys, qroot.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([PYTHON, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


_CANONICALIZING = {"root": ["root", "--m", "2"], "check": ["check", "--m", "2"],
                   "canon": ["canon"]}


@pytest.mark.parametrize("command", sorted(_CANONICALIZING))
def test_canonicalizing_commands_leave_scipy_linalg_unloaded(command):
    # the Schur kernels come from numpy's LAPACK, or where that lacks the
    # ILP64 names from the library scipy.linalg._flapack links against,
    # dlopened without importing any scipy module
    import os
    rc, bundle, _ = run_cli(["gen", "--seed", "2", "--m", "2"])
    assert rc == 0
    code = ("import io, sys, qroot.cli, qroot.lapack as c; "
            "sys.stdin = io.StringIO(sys.argv[1]); rc = qroot.cli.main(sys.argv[2:]); "
            "print(c.provider()._lengths, "
            "[m for m in sys.modules if m.split('.')[0] == 'scipy'], file=sys.stderr); "
            "sys.exit(rc)")
    proc = subprocess.run([PYTHON, "-c", code, bundle, *_CANONICALIZING[command]],
                          capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode in (0, 2), proc.stderr
    assert "error" not in json.loads(proc.stdout)
    lengths, modules = proc.stderr.strip().splitlines()[-1].split(" ", 1)
    if lengths == "False":
        pytest.skip("scipy's Cython LAPACK serves the kernels; loading it imports scipy.linalg")
    assert modules == "[]"  # no scipy module at all


def _main_on(tmp_path, capsys, args, payload):
    import qroot.cli
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    rc = qroot.cli.main(args + ["--in", str(path)])
    return rc, json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("entries", [[[None, 0, 0, 0]], 5, [["x", 0, 0, 0]]])
def test_malformed_entries_are_parse_errors(tmp_path, capsys, entries):
    payload = {"B": {"n": 1, "entries": entries}, "H": quat_json([[1, 0, 0, 0]], 1)}
    assert _main_on(tmp_path, capsys, ["root", "--m", "2"], payload) == (
        1, {"error": "ParseError"})


@pytest.mark.parametrize("args", [["canon"], ["check", "--m", "2"], ["root", "--m", "2"],
                                  ["verify", "--m", "2"]])
def test_b_and_h_of_unequal_shape_are_one_error_kind(tmp_path, capsys, args):
    payload = {"B": quat_json([[16, 0, 0, 0]], 1), "H": EYE2,
               "root": quat_json([[4, 0, 0, 0]], 1)}
    assert _main_on(tmp_path, capsys, args, payload) == (1, {"error": "DimensionMismatch"})


_PAIR_COMMANDS = [["canon"], ["check", "--m", "1"], ["check", "--m", "2"],
                  ["root", "--m", "1"], ["root", "--m", "2"]]


@pytest.mark.parametrize("kind, payload", [
    ("NearSingularH", {"B": quat_json([[1, 0, 0, 0]], 1), "H": quat_json([[1e-15, 0, 0, 0]], 1)}),
    ("DimensionMismatch", {"B": quat_json([[16, 0, 0, 0]], 1), "H": EYE2}),
    ("NotSelfadjoint", {"B": quat_json([[1, 0, 0, 0], [2, 0, 0, 0], [3, 0, 0, 0],
                                        [4, 0, 0, 0]], 2), "H": EYE2}),
    # ||H|| ||B|| overflows: a lone + block at -1e308 was "exists", and a
    # non-selfadjoint pair at 1e200 was "exists"
    ("NumericError", {"B": quat_json([[-1e308, 0, 0, 0]], 1), "H": quat_json([[1, 0, 0, 0]], 1)}),
    # ||H|| = 2e160 and ||B|| = 1.4e160 are finite, their product is not
    ("NumericError", {"B": quat_json([[0, 0, 0, 0], [1e160, 0, 0, 0], [0, 0, 0, 0],
                                      [0, 0, 0, 0]], 2),
                      "H": quat_json([[0, 0, 0, 0], [1e160, 0, 0, 0], [1e160, 0, 0, 0],
                                      [0, 0, 0, 0]], 2)}),
    ("NumericError", {"B": quat_json([[1e200, 0, 0, 0], [1e200, 0, 0, 0], [0, 0, 0, 0],
                                      [1e200, 0, 0, 0]], 2),
                      "H": quat_json([[1e200, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                                      [1e200, 0, 0, 0]], 2)}),
])
def test_each_fault_of_a_pair_is_one_error_on_every_command(tmp_path, capsys, kind, payload):
    # canon, check and root at m = 1 and m = 2 check (B, H) in one place:
    # one stdout line, and one stderr message after the command's prefix
    # (an overflow warning would raise here, as pytest turns warnings into errors)
    import qroot.cli
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    seen = set()
    for args in _PAIR_COMMANDS:
        assert qroot.cli.main(args + ["--in", str(path)]) == 1
        out, err = capsys.readouterr()
        prefix = f"qroot {args[0]}: "
        assert err.startswith(prefix)
        seen.add((out, err[len(prefix):]))
    assert len(seen) == 1 and json.loads(next(iter(seen))[0]) == {"error": kind}


@pytest.mark.parametrize("scale", [1e100, 1e160])
def test_a_large_h_is_answered_as_a_small_one(tmp_path, capsys, scale):
    # J_2(0)+ against scale * sip: ||H||_F^2 overflows at 1e160, where the
    # pair check refused the pair (NumericError); its norms are now taken
    # under a power-of-two scale, and so are the Gram moments' moduli
    payload = {"B": quat_json([[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 2),
               "H": quat_json([[0, 0, 0, 0], [scale, 0, 0, 0], [scale, 0, 0, 0],
                               [0, 0, 0, 0]], 2)}
    for args in (["check", "--m", "2"], ["root", "--m", "3"]):
        rc, out = _main_on(tmp_path, capsys, args, payload)
        assert rc == 2 and out["certificate"]["kind"] == "SegreTupleMismatch"
    rc, out = _main_on(tmp_path, capsys, ["canon"], payload)
    assert rc == 0 and out["spec"]["blocks"] == [{"lambda": [0, 0], "size": 2, "sign": 1}]
    # a large B as well: its square root comes back where the pair was refused
    payload = {"B": quat_json([[1e154, 0, 0, 0]], 1), "H": quat_json([[1, 0, 0, 0]], 1)}
    rc, out = _main_on(tmp_path, capsys, ["root", "--m", "2"], payload)
    assert rc == 0 and out["root"]["entries"] == [[1e77, 0, 0, 0]]


@pytest.mark.parametrize("args", [["check", "--m", "2"], ["canon"], ["root", "--m", "3"]],
                         ids=" ".join)
def test_a_large_b_is_answered_as_a_small_one(tmp_path, capsys, args):
    # s J_2(0) against the sip matrix: the rank threshold and the Gram
    # moments' degeneracy bound take B's norms under a power-of-two scale, so
    # s = 1e200 and 1e300 raise no overflow warning (pytest makes one an
    # error).  The one answer, RankAmbiguous, is a known scale defect
    sip = quat_json([[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]], 2)
    answers = {json.dumps(_main_on(tmp_path, capsys, args, {
        "B": quat_json([[0, 0, 0, 0], [s, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]], 2),
        "H": sip})) for s in (1e10, 1e100, 1e200, 1e300)}
    assert len(answers) == 1


# The first 16 hex digits of the SHA-256 of `qroot gen --seed S --m M`, a row
# per S = 0..9 and a column per M = 2..4, taken before the generator left
# verify.py.  B and H pass through BLAS products whose last bits depend on the
# kernel, so each table belongs to one OpenBLAS build and kernel.
_GEN_SHA256 = {
    ("0.3.31.188.0", "SkylakeX"): [
        ("8455c5552eac6ef1", "7e13047ece24e721", "dadc1375f4b281d9"),
        ("491db91ef02aed55", "14ec1daf05bf2326", "91a98d811c03d756"),
        ("adbe0b8cef88683e", "432dca2e9c2d8de8", "7ed6f3c2edb86080"),
        ("d9b981d129252119", "37acc30c52be78e6", "f7df87a3e0127d05"),
        ("2b45ed177ccc5526", "578d46d3c470d292", "2040ad6bcc468bd4"),
        ("cc9edfc72dafb59e", "d257ef288f3b09c7", "7d6015131fe99d6c"),
        ("2559ff5e0a973c9c", "e3631df0df86e5bd", "9e28613f39b37831"),
        ("1f28818c45db0281", "48c9da8a0f7cd637", "c13c2bbced9b837d"),
        ("b45dd8ee7d6bc78f", "4b5e006c74ea05de", "4f6e880b13f97bb7"),
        ("4e7ef30a072eaaed", "811de3314fc1e52e", "615ca395aabdee95")],
    ("0.3.31.188.0", "Haswell"): [
        ("84f6c5cc05a34516", "2cff96c6f942171c", "d089a85d985316b9"),
        ("e8cda6fa510e64b9", "b0599526e976c4d0", "15e20d516fecafda"),
        ("7d3fdc1c73fb9e44", "c56c5d85b961d7dc", "e30ed75df2677669"),
        ("11469698fdcbaa31", "6c0fba7156f25ffa", "a7cdbf4773f60b9c"),
        ("a9415097830ffc63", "76129474e33a5024", "393eb35e8df86bee"),
        ("6de7386b443a4afb", "3213a6f2dc5e9ec9", "bb462b1cbb40c669"),
        ("6383232ccd564fc6", "69d1034bbb211a7b", "933a773103d1d4f0"),
        ("c1b8fd954dc32736", "9b8921d341780d96", "7b8a54da42af0518"),
        ("2e7dd30683ebda61", "7e4adf82c66cea62", "533b986535ccd578"),
        ("95290b41d2362aee", "8205008411c08960", "f97197bdf99a60f5")],
}


def _openblas_kernel():
    """(version, kernel) of the OpenBLAS that numpy.linalg calls, or None for another BLAS."""
    import ctypes
    from numpy.linalg import _umath_linalg
    lib = ctypes.CDLL(_umath_linalg.__file__)
    config, core = (getattr(lib, f"scipy_openblas_get_{what}64_", None)
                    for what in ("config", "corename"))
    if config is None or core is None:
        return None
    config.restype = core.restype = ctypes.c_char_p
    return config().split()[1].decode(), core().decode()


def test_gen_bytes_are_pinned(capsys):
    import qroot.cli
    pins = _GEN_SHA256.get(_openblas_kernel())
    if pins is None:
        pytest.skip(f"no gen hashes for the BLAS {_openblas_kernel()}")
    for seed, row in enumerate(pins):
        for m, want in zip((2, 3, 4), row):
            assert qroot.cli.main(["gen", "--seed", str(seed), "--m", str(m)]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest()[:16] == want, (seed, m)


def _omega_one(re):
    return {"dim": 2, "re": re, "im": [0, 0, 0, 0]}


@pytest.mark.parametrize("args, payload", [
    (["extract"], _omega_one([10 ** 400, 0, 0, 10 ** 400])),
    (["extract"], {"dim": 2, "re": [1, 0, 0, 1], "im": [0, -10 ** 400, 0, 0]}),
    (["check", "--m", "2", "--format", "omega"],
     {"B": _omega_one([10 ** 400, 0, 0, 10 ** 400]), "H": _omega_one([1, 0, 0, 1])}),
    (["root", "--m", "2"],
     {"B": quat_json([[10 ** 400, 0, 0, 0]], 1), "H": quat_json([[1, 0, 0, 0]], 1)}),
])
def test_an_integer_past_the_float_range_is_a_parse_error(tmp_path, capsys, args, payload):
    # a 401-digit integer overflows float conversion in either matrix format
    assert _main_on(tmp_path, capsys, args, payload) == (1, {"error": "ParseError"})


@pytest.mark.parametrize("args, payload", [
    (["embed"], quat_json([[True, 0, 0, 0]], 1)),
    (["embed"], quat_json([[16, 0, False, 0]], 1)),
    (["extract"], _omega_one([True, 0, 0, True])),
    (["extract"], {"dim": 2, "re": [1, 0, 0, 1], "im": [0, False, 0, 0]}),
    (["embed"], quat_json([["16", 0, 0, 0]], 1)),
    (["extract"], _omega_one(["2", 0, 0, 2])),
    (["root", "--m", "2"],
     {"B": quat_json([[True, 0, 0, 0]], 1), "H": quat_json([[1, 0, 0, 0]], 1)}),
    (["root", "--m", "2", "--format", "quaternion"],
     {"B": quat_json([[16, 0, 0, 0]], 1), "H": quat_json([[True, 0, 0, 0]], 1)}),
    (["root", "--m", "2", "--format", "omega"],
     {"B": _omega_one([16, 0, 0, 16]), "H": _omega_one([True, 0, 0, True])}),
])
def test_boolean_or_string_matrix_entries_are_parse_errors(tmp_path, capsys, args, payload):
    # numpy reads true as 1, false as 0 and "16" as 16; entries are finite JSON numbers
    assert _main_on(tmp_path, capsys, args, payload) == (1, {"error": "ParseError"})


@pytest.mark.parametrize("m, flag", [(2.7, []), ("abc", []), (0, []), (True, []),
                                     (2, ["--m", "0"])])
def test_verify_rejects_m_that_is_not_a_positive_integer(tmp_path, capsys, m, flag):
    payload = {"B": quat_json([[16, 0, 0, 0]], 1), "H": quat_json([[1, 0, 0, 0]], 1)}
    rc, doc = _main_on(tmp_path, capsys, ["root", "--m", "2"], payload)
    assert rc == 0
    doc["m"] = m
    assert _main_on(tmp_path, capsys, ["verify"] + flag, doc) == (1, {"error": "ParseError"})
    doc["m"] = 2
    rc, report = _main_on(tmp_path, capsys, ["verify"], doc)
    assert rc == 0 and report["passed"] is True


@pytest.mark.parametrize("n_b, n_h", [(1.9, 1), (1, True), ("1", 1), (1.0, 1)])
def test_quaternion_n_must_be_an_integer(tmp_path, capsys, n_b, n_h):
    # n was read through int(), so 1.9, true and "1" all solved as n = 1
    payload = {"B": {"n": n_b, "entries": [[16, 0, 0, 0]]},
               "H": {"n": n_h, "entries": [[1, 0, 0, 0]]}}
    assert _main_on(tmp_path, capsys, ["root", "--m", "2"], payload) == (
        1, {"error": "ParseError"})


@pytest.mark.parametrize("size, sign", [(2.9, 1), (2, 1.5), (2, True), (True, 1)])
def test_canonical_block_size_and_sign_must_be_integers(tmp_path, capsys, size, sign):
    # size 2.9 and sign 1.5 were truncated to 2 and 1
    payload = {"blocks": [{"lambda": [4.0, 0.0], "size": size, "sign": sign}]}
    assert _main_on(tmp_path, capsys, ["check", "--m", "2", "--format", "spec"],
                    payload) == (1, {"error": "ParseError"})
    payload["blocks"][0].update(size=2, sign=1)
    assert _main_on(tmp_path, capsys, ["check", "--m", "2", "--format", "spec"],
                    payload) == (0, {"exists": True, "certificate": None})


@pytest.mark.parametrize("dim", [2.0, "2", True])
def test_complex_matrix_dim_must_be_an_integer(tmp_path, capsys, dim):
    payload = {"dim": dim, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0, 0.0, 0.0, 0.0]}
    assert _main_on(tmp_path, capsys, ["extract"], payload) == (1, {"error": "ParseError"})
    payload["dim"] = 2
    assert _main_on(tmp_path, capsys, ["extract"], payload)[0] == 0


@pytest.mark.parametrize("dim, values", [(-2, 4), (0, 0)])
def test_complex_matrix_dim_must_be_at_least_one(tmp_path, capsys, dim, values):
    # dim -2 with 4 values failed in reshape, as a NumericError; dim 0 made
    # extract write an n = 0 matrix, which embed rejects
    mat = {"dim": dim, "re": [1.0] * values, "im": [0.0] * values}
    assert _main_on(tmp_path, capsys, ["extract"], mat) == (1, {"error": "ParseError"})
    assert _main_on(tmp_path, capsys, ["canon", "--format", "omega"],
                    {"B": mat, "H": mat}) == (1, {"error": "ParseError"})


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("lam, kind", [([float("nan"), 0.0], "SpecInvalid"),
                                       ([float("inf"), 0.0], "SpecInvalid"),
                                       ([0.5, float("-inf")], "SpecInvalid"),
                                       ([True, 0.0], "ParseError"),
                                       (["1", 0.0], "ParseError"),
                                       ([1.0, None], "ParseError"),
                                       ([10 ** 400, 0.0], "ParseError")])
def test_spec_eigenvalue_must_be_a_finite_number(tmp_path, capsys, m, lam, kind):
    # with m = 3, NaN and Infinity answered exists: true; true read as 1
    payload = {"blocks": [{"lambda": lam, "size": 1, "sign": 1}]}
    assert _main_on(tmp_path, capsys, ["check", "--m", str(m), "--format", "spec"],
                    payload) == (1, {"error": kind})


@pytest.mark.parametrize("doubled", ["no", 1, None, False])
def test_spec_doubled_must_be_true(tmp_path, capsys, doubled):
    payload = {"blocks": [{"lambda": [4.0, 0.0], "size": 1, "sign": 1}], "doubled": doubled}
    args = ["check", "--m", "2", "--format", "spec"]
    assert _main_on(tmp_path, capsys, args, payload) == (1, {"error": "SpecInvalid"})
    payload["doubled"] = True
    assert _main_on(tmp_path, capsys, args, payload) == (0, {"exists": True, "certificate": None})


# the flags each handler reads, beyond --in and --out, and its --format choices
_COMMAND_FLAGS = {
    "embed": (set(), None),
    "extract": (set(), None),
    "canon": ({"--tol", "--format"}, "{quaternion,omega}"),
    "check": ({"--m", "--tol", "--format"}, "{quaternion,omega,spec}"),
    "root": ({"--m", "--tol", "--branch", "--format"}, "{quaternion,omega}"),
    "verify": ({"--m", "--tol", "--format"}, "{quaternion,omega}"),
    "gen": ({"--m", "--seed"}, None),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_FLAGS))
def test_help_lists_only_the_flags_the_command_reads(command, capsys):
    import re

    import qroot.cli
    with pytest.raises(SystemExit) as exc:
        qroot.cli.main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    flags, formats = _COMMAND_FLAGS[command]
    assert set(re.findall(r"--[a-z]+", text)) == flags | {"--in", "--out", "--help"}
    if formats:
        assert set(re.findall(r"\{[a-z,]+\}", text)) == {formats}


@pytest.mark.parametrize("args", [["embed", "--m", "2"], ["gen", "--tol", "1e-3"],
                                  ["root", "--seed", "3"], ["canon", "--branch", "1"],
                                  ["verify", "--format", "spec"],
                                  ["root", "--format", "spec"]])
def test_flags_a_command_does_not_read_are_usage_errors(args):
    rc, out, err = run_cli(args, inp="{}")
    assert rc == 1
    assert out == ""
    assert err.startswith((f"qroot {args[0]}: error: ", "qroot: error: unrecognized"))


_NESTED_EYE = {"dim": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]}


@pytest.mark.parametrize("args, payload", [
    (["extract"], _NESTED_EYE),
    (["canon", "--format", "omega"], {"B": _NESTED_EYE, "H": _NESTED_EYE}),
    (["root", "--m", "2", "--format", "omega"], {"B": _NESTED_EYE, "H": _NESTED_EYE}),
])
def test_complex_matrix_re_and_im_must_be_flat_lists(tmp_path, capsys, args, payload):
    # nested rows of dim*dim values were read as the flat list
    assert _main_on(tmp_path, capsys, args, payload) == (1, {"error": "ParseError"})


@pytest.mark.parametrize("args, payload", [
    (["embed"], quat_json([[16, 0, 0, 0]], 1)),
    (["root", "--m", "2"], {"B": quat_json([[16, 0, 0, 0]], 1),
                            "H": quat_json([[1, 0, 0, 0]], 1)}),
])
def test_an_out_path_that_cannot_be_opened_is_a_parse_error(tmp_path, args, payload):
    # it was a FileNotFoundError traceback
    out = tmp_path / "missing" / "out.json"
    rc, stdout, stderr = run_cli(args + ["--out", str(out)], inp=json.dumps(payload))
    assert rc == 1
    assert json.loads(stdout) == {"error": "ParseError"}
    assert len(stderr.splitlines()) == 1 and str(out) in stderr
    assert not out.parent.exists()


@pytest.mark.parametrize("seed", ["-1", "x"])
def test_a_seed_that_is_not_a_natural_number_is_a_usage_error(seed):
    # numpy's generator refused -1, which the CLI reported as a NumericError
    rc, out, err = run_cli(["gen", "--seed", seed])
    assert rc == 1
    assert out == ""
    assert err.startswith("qroot gen: error: argument --seed: ")


_READERS = [["embed"], ["extract"], ["canon"], ["check", "--m", "2"],
            ["check", "--m", "2", "--format", "spec"], ["root", "--m", "2"], ["verify"],
            ["gen"]]


@pytest.mark.parametrize("args", _READERS, ids=" ".join)
def test_json_nested_too_deeply_is_a_parse_error(tmp_path, capsys, args):
    # json's parser ran out of recursion: a RecursionError traceback, nothing on stdout
    import qroot.cli
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    assert qroot.cli.main(args + ["--in", str(path)]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "ParseError"}
    assert err == f"qroot {args[0]}: invalid JSON: nested too deeply\n"


@pytest.mark.parametrize("args", [["embed"], ["root", "--m", "2"]])
def test_an_undecodable_in_file_is_a_parse_error(tmp_path, args):
    # UnicodeDecodeError is a ValueError, which main filed as a NumericError;
    # the same bytes on stdin were already a ParseError
    path = tmp_path / "payload.json"
    path.write_bytes(b"\xff\xfe{")
    for extra, inp in ((["--in", str(path)], None), ([], b"\xff\xfe{")):
        proc = subprocess.run([PYTHON, "-m", "qroot.cli", *args, *extra], input=inp,
                              capture_output=True)
        assert proc.returncode == 1
        assert json.loads(proc.stdout) == {"error": "ParseError"}
        assert len(proc.stderr.splitlines()) == 1


# the CLI with its address space capped at 3 GiB, so that an allocation that
# grows with m fails at once instead of filling the machine's memory
_CAPPED = ("import resource, runpy, sys; "
           "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
           "runpy.run_module('qroot.cli', run_name='__main__')")
_ZERO_PAIR = {"blocks": [{"lambda": [0, 0], "size": 1, "sign": 1},
                         {"lambda": [0, 0], "size": 1, "sign": -1}], "doubled": True}


def _run_capped(args, inp):
    import os
    proc = subprocess.run([PYTHON, "-c", _CAPPED, *args], input=inp, capture_output=True,
                          text=True, env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps RLIMIT_AS")
def test_the_zero_class_decision_does_not_grow_with_m():
    # the plan built every m-tuple's m signs: a MemoryError traceback at m = 10^9
    rc, out, err = _run_capped(["check", "--format", "spec", "--m", "1000000000"],
                               json.dumps(_ZERO_PAIR))
    assert (rc, json.loads(out)) == (0, {"exists": True, "certificate": None}), err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps RLIMIT_AS")
def test_a_zero_only_root_does_not_grow_with_m(tmp_path):
    # gen wrote out every m-tuple's m signs (a NumericError at m = 10^9), and
    # the builder walked all m residue classes of each tuple
    profile = tmp_path / "zero.json"
    profile.write_text(json.dumps({"classes": ["zero"], "force": "admit"}))
    m = "1000000000"
    text = ""
    for args in (["gen", "--in", str(profile), "--seed", "1", "--m", m],
                 ["root", "--m", m], ["verify"]):
        rc, text, err = _run_capped(args, text)
        assert rc == 0, (args, text, err)
    assert json.loads(text)["passed"]


def test_a_root_too_large_for_memory_is_a_numeric_error(monkeypatch, capsys):
    import qroot.cli
    import qroot.roots

    def too_large(*args):
        raise MemoryError("Unable to allocate 14.9 GiB for an array")

    rc, bundle, _ = run_cli(["gen", "--seed", "1", "--m", "2"])
    assert rc == 0
    monkeypatch.setattr(qroot.roots, "_schur_root", too_large)
    monkeypatch.setattr(sys, "stdin", io.StringIO(bundle))
    assert qroot.cli.main(["root", "--m", "2"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"error": "NumericError"}
    assert len(err.splitlines()) == 1 and "allocate" in err


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="caps RLIMIT_AS")
def test_a_primary_root_does_not_grow_with_m():
    # Smith's recurrence kept m - 1 powers of the 2n x 2n Schur form: a
    # NumericError at m = 10^8, where the binary chain keeps about 2 log2(m)
    rc, bundle, _ = run_cli(["gen", "--seed", "1", "--m", "2"])
    assert rc == 0
    rc, text, err = _run_capped(["root", "--m", "100000"], bundle)
    assert rc == 0, (text, err)
    rc, report, err = _run_capped(["verify"], text)
    assert rc == 0 and json.loads(report)["passed"], (report, err)
    # the power residual grows with m and exceeds 1e-8 between m = 10^6 and 10^7
    rc, out, err = _run_capped(["root", "--m", "100000000"], bundle)
    assert (rc, json.loads(out)) == (1, {"error": "RootInaccurate"}), err
