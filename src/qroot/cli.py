"""Command-line surface: embed, extract, canon, check, root, verify, gen.

Exit codes: 0 on success (root exists for check/root), 2 for a structured
no-root decision, 1 for usage, parse, or numeric errors (with a single
machine-readable {"error": kind} object on stdout).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import jsonio
from .canonical import CanonicalSpec, Tolerances
from .errors import ParseError, QRootError
from .omega import complex_from_json, omega_embed, omega_extract
from .quaternion import QuatMatrix
from .roots import RootDecision, mth_root, reduce_pair, root_exists
from .verify import random_instance, verify_root

DEFAULT_TOL = 1e-8


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1 (exit 2 is reserved for the no-root decision)
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qroot",
                     description="H-selfadjoint m-th roots of H-selfadjoint "
                                 "quaternion matrices")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
        ("embed", "embed a quaternion matrix into its 2n x 2n complex form"),
        ("extract", "extract a quaternion matrix from a member of Omega_2n"),
        ("canon", "canonical form of a pair (B, H)"),
        ("check", "decide whether an H-selfadjoint m-th root exists"),
        ("root", "construct and verify an H-selfadjoint m-th root"),
        ("verify", "verify a candidate root independently"),
        ("gen", "generate a seeded random instance"),
    ]:
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--m", type=int, default=None, help="root order")
        p.add_argument("--tol", type=float, default=None,
                       help="residual tolerance (default 1e-8 or QROOT_TOL)")
        p.add_argument("--branch", type=int, default=0,
                       help="m-th root branch index (default 0)")
        p.add_argument("--seed", type=int, default=0, help="generator seed")
        p.add_argument("--format", choices=["quaternion", "omega", "spec"],
                       default="quaternion", help="input payload format")
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
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _require_m(m) -> int:
    """--m, or the payload's m for verify: an integer >= 1 (a bool is not)."""
    if m is None:
        raise ParseError("--m is required (no implicit root order)")
    if jsonio.integer(m, "m") < 1:
        raise ParseError("m must be a positive integer")
    return m


def _tolerances(args) -> Tolerances:
    tol = args.tol
    if tol is None:
        env = os.environ.get("QROOT_TOL")
        tol = float(env) if env else DEFAULT_TOL
    if tol <= 0:
        raise ParseError("tolerance must be positive")
    return Tolerances(residual_factor=tol)


def _matrix_from(obj, fmt: str) -> QuatMatrix:
    if fmt == "quaternion":
        return QuatMatrix.from_json(obj)
    if fmt == "omega":
        return omega_extract(complex_from_json(obj))
    raise ParseError(f"format {fmt} does not describe a matrix")


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
    from .canonical import canonicalize_pair, materialize_pair
    payload = _read_payload(args.inp)
    b, h = _pair_from(payload, args.format)
    tol = _tolerances(args)
    s, spec = canonicalize_pair(omega_embed(b).array, omega_embed(h).array, tol)
    bm, hm = materialize_pair(spec)
    barr = omega_embed(b).array
    harr = omega_embed(h).array
    res_b = float(np.linalg.norm(np.linalg.solve(s.array, barr @ s.array) - bm.array))
    res_h = float(np.linalg.norm(s.array.conj().T @ harr @ s.array - hm.array))
    _write(args.out, {"spec": spec.to_json(),
                      "similarity": s.to_json(),
                      "residual_b": res_b,
                      "residual_h": res_h})
    return 0


def _spec_from_payload(payload) -> CanonicalSpec:
    if isinstance(payload, dict) and "spec" in payload:
        payload = payload["spec"]
    return CanonicalSpec.from_json(payload)


def _cmd_check(args) -> int:
    m = _require_m(args.m)
    payload = _read_payload(args.inp)
    if args.format == "spec":
        decision = root_exists(_spec_from_payload(payload), m)
    else:
        b, h = _pair_from(payload, args.format)
        decision = reduce_pair(b, h, m, _tolerances(args))[3].decision()
    _write(args.out, decision.to_json())
    return 0 if decision.exists else 2


def _cmd_root(args) -> int:
    m = _require_m(args.m)
    payload = _read_payload(args.inp)
    b, h = _pair_from(payload, args.format)
    out = mth_root(b, h, m, _tolerances(args), args.branch)
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
    fmt = args.format if args.format != "spec" else "quaternion"
    a = _matrix_from(payload["root"], fmt)
    b, h = _pair_from(payload, fmt)
    m = _require_m(args.m if args.m is not None else payload.get("m"))
    report = verify_root(a, b, h, m, _tolerances(args).residual_factor)
    _write(args.out, report.to_json())
    return 0 if report.passed else 1


def _cmd_gen(args) -> int:
    profile = {}
    if args.inp != "-":  # profile file is optional; gen usually starts a pipe
        payload = _read_payload(args.inp)
        if isinstance(payload, dict):
            profile = payload
    if args.m is not None:
        profile["m"] = args.m
    b, h, spec = random_instance(args.seed, profile)
    _write(args.out, {"B": b.to_json(), "H": h.to_json(),
                      "m": profile.get("m", 2), "spec": spec.to_json(),
                      "seed": args.seed})
    return 0


_COMMANDS = {
    "embed": _cmd_embed,
    "extract": _cmd_extract,
    "canon": _cmd_canon,
    "check": _cmd_check,
    "root": _cmd_root,
    "verify": _cmd_verify,
    "gen": _cmd_gen,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
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
