"""Deterministic JSON output: sorted keys, 17-significant-digit floats.

Python's json module formats floats with repr; pinning %.17g keeps every
double bit-faithful on round trip and makes output byte-stable.  A float
ndarray of one or two dimensions encodes as the nested list of its values.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .errors import ParseError

_BLOCK = 1024  # floats per %-pass of an array: the Python floats alive at once


def _format_floats(template: str, xs: tuple) -> str:
    s = template % xs  # "inf" and "nan" are the only outputs with an "n"
    if "n" in s:
        raise ParseError("cannot serialize non-finite float")
    return s


def _array_chunks(arr: np.ndarray):
    """A 1-D or 2-D float array, one fixed block of rows per %-pass of one row template."""
    row = "%.17g" if arr.ndim == 1 else "[" + ",".join(["%.17g"] * arr.shape[1]) + "]"
    rows = max(1, _BLOCK // max(1, arr[:1].size))  # arr[:1].size: the floats of a row
    yield "["
    for start in range(0, len(arr), rows):
        block = arr[start:start + rows]
        yield ("," if start else "") + _format_floats(",".join([row] * len(block)),
                                                      tuple(block.ravel().tolist()))
    yield "]"


def _chunks(obj):
    """obj's JSON text, piece by piece, so that dumps joins it once."""
    if isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.ndim in (1, 2):
        yield from _array_chunks(obj)
    elif isinstance(obj, (list, tuple)):
        yield "["
        for i, v in enumerate(obj):
            if i:
                yield ","
            yield from _chunks(v)
        yield "]"
    elif isinstance(obj, dict):
        yield "{"
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise ParseError("JSON object keys must be strings")
            yield ("," if i else "") + json.dumps(key) + ":"
            yield from _chunks(obj[key])
        yield "}"
    elif isinstance(obj, float):
        yield _format_floats("%.17g", (obj,))
    elif obj is None or isinstance(obj, (str, int)):  # a bool is an int
        yield json.dumps(obj)
    else:
        raise ParseError(f"cannot serialize {type(obj).__name__}")


def integer(value, what: str) -> int:
    """A JSON integer field: an int that is not a bool, else ParseError."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer")
    return value


def float_array(values, shape: tuple, what: str) -> np.ndarray:
    """The parsed JSON array values as a float array of the given shape, else ParseError.

    Every item must be a finite number: numpy would read true as 1, "16"
    as 16 and null as nan.  For a 2-D shape, values is a list of rows.
    """
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # an int past float range overflows
        raise ParseError(f"{what} must be numbers: {exc}") from exc
    if arr.shape != shape:
        raise ParseError(f"{what} must have shape {shape}, not {arr.shape}")
    items = chain.from_iterable(values) if len(shape) == 2 else values
    if {bool, str} & set(map(type, items)):
        raise ParseError(f"{what} must be numbers, not booleans or strings")
    if not np.isfinite(arr).all():
        raise ParseError(f"{what} must be finite numbers")
    return arr


def dumps(obj) -> str:
    return "".join(_chunks(obj))


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None
