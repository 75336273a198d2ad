"""Deterministic JSON output: sorted keys, 17-significant-digit floats.

Python's json module formats floats with repr; pinning %.17g keeps every
double bit-faithful on round trip and makes output byte-stable.
"""

from __future__ import annotations

import json

from .errors import ParseError


def _format_floats(xs) -> str:
    # one %-pass over a whole list of floats; "inf" and "nan" are the only
    # outputs that contain an "n"
    s = ("%.17g," * len(xs))[:-1] % tuple(xs)
    if "n" in s:
        raise ParseError("cannot serialize non-finite float")
    return s


def _encode(obj) -> str:
    if isinstance(obj, (list, tuple)):
        if obj and all(type(v) is float for v in obj):
            return "[" + _format_floats(obj) + "]"
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
        return _format_floats((obj,))
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


def dumps(obj) -> str:
    return _encode(obj)


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
