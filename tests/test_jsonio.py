import json
import math

import numpy as np
import pytest

from qroot import jsonio
from qroot.errors import ParseError


def _reference(obj) -> str:
    """One value at a time, with f"{x:.17g}" per float: the per-element form."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ParseError("cannot serialize non-finite float")
        return f"{obj:.17g}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_reference(v) for v in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(json.dumps(k) + ":" + _reference(obj[k]) for k in sorted(obj)) + "}"
    raise ParseError(f"cannot serialize {type(obj).__name__}")


EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308,
         1.7976931348623157e308, 0.1, 1 / 3, -2.5, 1e16, 123456789012345678.0, 1e-5]


def test_dumps_matches_per_element_reference():
    rng = np.random.default_rng(41)
    floats = EDGES + (rng.standard_normal(300) * 10.0 ** rng.integers(-300, 300, 300)).tolist()
    docs = [
        floats,
        [floats[:4], floats[4:8], []],
        {"n": 3, "entries": [floats[i:i + 4] for i in range(0, 40, 4)], "ok": True},
        [1, 2.5, True, False, None, "x", -0.0, 0],  # mixed items take the per-item path
        (1.0, -0.0, 5e-324),
        [np.float64(0.1), 0.2],  # a float subclass formats like a float
        {"a": [[[-0.0]], [[1e308, -1e308]]], "b": [], "c": {"d": [0, 1, -7]}},
        -0.0, 5e-324, 7, True, None, [],
    ]
    for doc in docs:
        assert jsonio.dumps(doc) == _reference(doc)
    assert all(float(x) == v and math.copysign(1, float(x)) == math.copysign(1, v)
               for x, v in zip(jsonio.dumps(floats)[1:-1].split(","), floats))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dumps_refuses_non_finite_floats(bad):
    for doc in (bad, [bad], [1.0, bad, 2.0], [1, bad], {"k": [[0.0, bad]]}):
        with pytest.raises(ParseError):
            jsonio.dumps(doc)
