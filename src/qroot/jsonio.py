"""Deterministic JSON output: sorted keys, 17-significant-digit floats.

Python's json module formats floats with repr; pinning %.17g keeps every
double bit-faithful on round trip and makes output byte-stable.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ParseError


def _format_floats(template: str, xs) -> str:
    # one %-pass over a whole list of floats; "inf" and "nan" are the only
    # outputs that contain an "n"
    s = template % tuple(xs)
    if "n" in s:
        raise ParseError("cannot serialize non-finite float")
    return s


def _float_rows(rows) -> list | None:
    """The items of rows flattened, when rows are equal-length lists of floats."""
    k = len(rows[0]) if isinstance(rows[0], (list, tuple)) else 0
    if not k or not all(isinstance(r, (list, tuple)) and len(r) == k for r in rows):
        return None
    flat = [v for r in rows for v in r]
    return flat if all(type(v) is float for v in flat) else None


def _encode(obj) -> str:
    if isinstance(obj, (list, tuple)):
        if obj and all(type(v) is float for v in obj):
            return "[" + _format_floats(("%.17g," * len(obj))[:-1], obj) + "]"
        flat = _float_rows(obj) if obj else None
        if flat is not None:  # e.g. quaternion entries: one pass for all rows
            row = "[" + "%.17g," * (len(flat) // len(obj) - 1) + "%.17g],"
            return "[" + _format_floats((row * len(obj))[:-1], flat) + "]"
        return "[" + ",".join(_encode(v) for v in obj) + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_floats("%.17g", (obj,))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise ParseError("JSON object keys must be strings")
            items.append(json.dumps(key) + ":" + _encode(obj[key]))
        return "{" + ",".join(items) + "}"
    raise ParseError(f"cannot serialize {type(obj).__name__}")


def integer(value, what: str) -> int:
    """A JSON integer field: an int that is not a bool, else ParseError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer")
    return value


def numbers_only(values, what: str) -> None:
    """ParseError when the JSON array values holds a boolean or a string.

    numpy would read either as a number: true as 1, "16" as 16.
    """
    if {bool, str} & set(map(type, np.asarray(values, dtype=object).ravel())):
        raise ParseError(f"{what} must be numbers, not booleans or strings")


def dumps(obj) -> str:
    return _encode(obj)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
