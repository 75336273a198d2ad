import json
import subprocess
import sys

import pytest

PYTHON = sys.executable


def run_cli(args, inp=None, env=None):
    import os
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run([PYTHON, "-m", "qroot.cli"] + args, input=inp,
                          capture_output=True, text=True, env=full_env)
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


def test_env_tolerance_override():
    payload = json.dumps({"B": quat_json([[16, 0, 0, 0]], 1),
                          "H": quat_json([[1, 0, 0, 0]], 1)})
    rc, out, _ = run_cli(["root", "--m", "4"], inp=payload,
                         env={"QROOT_TOL": "1e-6"})
    assert rc == 0
    rc, out, _ = run_cli(["root", "--m", "4"], inp=payload,
                         env={"QROOT_TOL": "not-a-number"})
    assert rc == 1


def test_verify_rejects_nonpositive_tolerance(tmp_path, capsys, monkeypatch):
    # a tolerance that is not a positive finite number is a ParseError for
    # every command that reads one, not a failed check of a valid root; a NaN
    # or inf tolerance used to switch the HB = B*H input check off
    pair = {"B": quat_json([[16, 0, 0, 0]], 1), "H": quat_json([[1, 0, 0, 0]], 1)}
    rc, doc = _main_on(tmp_path, capsys, ["root", "--m", "4"], pair)
    assert rc == 0
    cases = [(["--tol", "-1"], None), (["--tol", "nan"], None), (["--tol", "inf"], None),
             ([], "0"), ([], "nan"), ([], "abc")]
    spec = {"blocks": [{"lambda": [16.0, 0.0], "size": 1, "sign": 1}]}
    for args, payload in ((["canon"], pair), (["check", "--m", "4"], pair),
                          (["check", "--m", "4", "--format", "spec"], spec),
                          (["root", "--m", "4"], pair), (["verify", "--m", "4"], doc)):
        for flags, env in cases:
            if env is None:
                monkeypatch.delenv("QROOT_TOL", raising=False)
            else:
                monkeypatch.setenv("QROOT_TOL", env)
            assert _main_on(tmp_path, capsys, args + flags, payload) == (
                1, {"error": "ParseError"}), (args, flags, env)


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
    # ILP64 names from scipy's compiled LAPACK module alone, found without
    # importing the scipy package
    import os
    rc, bundle, _ = run_cli(["gen", "--seed", "2", "--m", "2"])
    assert rc == 0
    code = ("import io, sys, qroot.cli, qroot.lapack as c; "
            "sys.stdin = io.StringIO(sys.argv[1]); rc = qroot.cli.main(sys.argv[2:]); "
            "print('scipy.linalg' in sys.modules, 'scipy' in sys.modules, file=sys.stderr); "
            "print(isinstance(c.provider(), c._Ilp64Lapack), "
            "[m for m in sys.modules if m.startswith('scipy')], file=sys.stderr); "
            "sys.exit(rc)")
    proc = subprocess.run([PYTHON, "-c", code, bundle, *_CANONICALIZING[command]],
                          capture_output=True, text=True, env=dict(os.environ))
    assert proc.returncode in (0, 2), proc.stderr
    assert "error" not in json.loads(proc.stdout)
    lines = proc.stderr.strip().splitlines()
    assert lines[-2] == "False False"
    if lines[-1].startswith("False"):
        pytest.skip("numpy's LAPACK lacks the ILP64 names; scipy's _flapack serves the kernels")
    assert lines[-1] == "True []"  # no scipy module at all


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


def _omega_one(re):
    return {"dim": 2, "re": re, "im": [0, 0, 0, 0]}


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
