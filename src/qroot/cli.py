"""Command-line surface: embed, extract, canon, check, root, verify, gen.

Each command accepts --in and --out and only the other flags its handler
reads.  Exit codes: 0 on success (root exists for check/root), 2 for a
structured no-root decision, 1 for usage, parse, or numeric errors.  A usage
error writes only its message to stderr; a parse or numeric error also
writes a single machine-readable {"error": kind} object on stdout.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import jsonio
from .canonical import DEFAULT_TOL, CanonicalSpec, _canonicalize, _check_tol
from .errors import ParseError, ProfileInvalid, QRootError, SpecInvalid
from .omega import complex_from_json, complex_to_json, omega_embed, omega_extract
from .quaternion import QuatMatrix
from .roots import RootDecision, mth_root, reduce_pair, root_exists
from .verify import random_instance, verify_root


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (exit 2 is reserved for the no-root decision)
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """--seed: an integer >= 0, since numpy's generator takes no negative seed."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


_FLAGS = {
    "--m": dict(type=int, default=None, help="root order"),
    "--tol": dict(type=float, default=None,
                  help="residual tolerance (default 1e-8 or QROOT_TOL)"),
    "--branch": dict(type=int, default=0, help="m-th root branch index (default 0)"),
    "--seed": dict(type=_seed, default=0, help="generator seed (an integer >= 0)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qroot",
                     description="H-selfadjoint m-th roots of H-selfadjoint "
                                 "quaternion matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, flags, formats) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if formats:
            p.add_argument("--format", choices=formats, default="quaternion",
                           help="input payload format")
        p.add_argument("--in", dest="inp", default="-", metavar="PATH",
                       help="input file (default stdin)")
        p.add_argument("--out", dest="out", default="-", metavar="PATH",
                       help="output file (default stdout)")
    return parser


def _read_payload(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path}: {exc}") from exc
    return jsonio.loads(text)


def _write(out: str, obj) -> None:
    text = jsonio.dumps(obj) + "\n"
    if out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write {out}: {exc}") from exc


def _require_m(m) -> int:
    """--m, or the payload's m for verify: an integer >= 1 (a bool is not)."""
    if m is None:
        raise ParseError("--m is required (no implicit root order)")
    if jsonio.integer(m, "m") < 1:
        raise ParseError("m must be a positive integer")
    return m


def _tolerance(args) -> float:
    """--tol, else QROOT_TOL, else DEFAULT_TOL: a positive finite number."""
    tol = args.tol
    if tol is None:
        env = os.environ.get("QROOT_TOL")
        try:
            tol = float(env) if env else DEFAULT_TOL
        except ValueError:
            raise ParseError(f"QROOT_TOL={env!r} is not a number") from None
    try:
        _check_tol(tol)  # the library's rule; from the command line it is a parse error
    except SpecInvalid as exc:
        raise ParseError(str(exc)) from None
    return tol


def _matrix_from(obj, fmt: str) -> QuatMatrix:
    if fmt == "omega":
        return omega_extract(complex_from_json(obj))
    return QuatMatrix.from_json(obj)


def _pair_from(payload, fmt: str) -> tuple[QuatMatrix, QuatMatrix]:
    if not isinstance(payload, dict) or "B" not in payload or "H" not in payload:
        raise ParseError('expected an object with "B" and "H"')
    return _matrix_from(payload["B"], fmt), _matrix_from(payload["H"], fmt)


def _cmd_embed(args) -> int:
    mat = QuatMatrix.from_json(_read_payload(args.inp))
    _write(args.out, omega_embed(mat).to_json())
    return 0


def _cmd_extract(args) -> int:
    arr = complex_from_json(_read_payload(args.inp))
    _write(args.out, omega_extract(arr).to_json())
    return 0


def _cmd_canon(args) -> int:
    payload = _read_payload(args.inp)
    b, h = _pair_from(payload, args.format)
    tol = _tolerance(args)
    barr, harr = omega_embed(b).array, omega_embed(h).array
    # every cluster is kept, so the engine's residuals are those of the full S
    red = _canonicalize(barr, harr, tol)
    res_b, res_h = red.residuals
    _write(args.out, {"spec": red.spec.to_json(),
                      "similarity": complex_to_json(red.similarity),
                      "residual_b": float(res_b),
                      "residual_h": float(res_h)})
    return 0


def _spec_from_payload(payload) -> CanonicalSpec:
    if isinstance(payload, dict) and "spec" in payload:
        payload = payload["spec"]
    return CanonicalSpec.from_json(payload)


def _cmd_check(args) -> int:
    m = _require_m(args.m)
    tol = _tolerance(args)  # checked for a spec payload too, which does not use it
    payload = _read_payload(args.inp)
    if args.format == "spec":
        decision = root_exists(_spec_from_payload(payload), m)
    else:
        b, h = _pair_from(payload, args.format)
        decision = root_exists(reduce_pair(b, h, m, tol).spec, m)
    _write(args.out, decision.to_json())
    return 0 if decision.exists else 2


def _cmd_root(args) -> int:
    m = _require_m(args.m)
    payload = _read_payload(args.inp)
    b, h = _pair_from(payload, args.format)
    out = mth_root(b, h, m, _tolerance(args), args.branch)
    if isinstance(out, RootDecision):
        _write(args.out, out.to_json())
        return 2
    doc = out.to_json()
    doc.update({"B": b.to_json(), "H": h.to_json(), "m": m})
    _write(args.out, doc)
    return 0


def _cmd_verify(args) -> int:
    payload = _read_payload(args.inp)
    if not isinstance(payload, dict) or "root" not in payload:
        raise ParseError('expected an object with "root", "B", "H"')
    a = _matrix_from(payload["root"], args.format)
    b, h = _pair_from(payload, args.format)
    m = _require_m(args.m if args.m is not None else payload.get("m"))
    report = verify_root(a, b, h, m, _tolerance(args))
    _write(args.out, report.to_json())
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    profile = {}
    if args.inp != "-":  # profile file is optional; gen usually starts a pipe
        profile = _read_payload(args.inp)
        if not isinstance(profile, dict):
            raise ProfileInvalid(f"a profile is a JSON object, got {type(profile).__name__}")
    if args.m is not None:
        profile["m"] = args.m
    b, h, spec = random_instance(args.seed, profile)
    _write(args.out, {"B": b.to_json(), "H": h.to_json(),
                      "m": profile.get("m", 2), "spec": spec.to_json(),
                      "seed": args.seed})
    return 0


_MATRIX = ("quaternion", "omega")

# name: (handler, help, flags beyond --in/--out, --format choices)
_COMMANDS = {
    "embed": (_cmd_embed, "embed a quaternion matrix into its 2n x 2n complex form",
              (), ()),
    "extract": (_cmd_extract, "extract a quaternion matrix from a member of Omega_2n",
                (), ()),
    "canon": (_cmd_canon, "canonical form of a pair (B, H)", ("--tol",), _MATRIX),
    "check": (_cmd_check, "decide whether an H-selfadjoint m-th root exists",
              ("--m", "--tol"), _MATRIX + ("spec",)),
    "root": (_cmd_root, "construct and verify an H-selfadjoint m-th root",
             ("--m", "--tol", "--branch"), _MATRIX),
    "verify": (_cmd_verify, "verify a candidate root independently",
               ("--m", "--tol"), _MATRIX),
    "gen": (_cmd_gen, "generate a seeded random instance", ("--m", "--seed"), ()),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except QRootError as exc:
        sys.stdout.write(jsonio.dumps({"error": exc.kind}) + "\n")
        sys.stderr.write(f"qroot {args.command}: {exc}\n")
        return 1
    except (ValueError, FloatingPointError, np.linalg.LinAlgError) as exc:
        sys.stdout.write(jsonio.dumps({"error": "NumericError"}) + "\n")
        sys.stderr.write(f"qroot {args.command}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
