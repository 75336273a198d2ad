import json
import math
import tracemalloc

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
        [1, 2.5, True, False, None, "x", -0.0, 0],
        (1.0, -0.0, 5e-324),
        [np.float64(0.1), 0.2],  # a float subclass formats like a float
        {"a": [[[-0.0]], [[1e308, -1e308]]], "b": [], "c": {"d": [0, 1, -7]}},
        -0.0, 5e-324, 7, True, None, [],
    ]
    for doc in docs:
        assert jsonio.dumps(doc) == _reference(doc)
    assert all(float(x) == v and math.copysign(1, float(x)) == math.copysign(1, v)
               for x, v in zip(jsonio.dumps(floats)[1:-1].split(","), floats))


def test_dumps_matches_per_element_reference_on_float_rows():
    # lists of float lists, the shape of parsed quaternion entries
    rng = np.random.default_rng(43)
    floats = EDGES + (rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64)).tolist()
    docs = [
        [floats[i:i + 4] for i in range(0, 64, 4)],
        [floats[i:i + 1] for i in range(10)],
        [[-0.0, 0.0, -0.0, -5e-324]] * 3,
        [(1.0, -0.0), [2.5, 1e308]],           # tuple rows
        [[1.0, 2.0], [3.0]],                    # unequal lengths: per item
        [[1.0, 2.0], [3.0, 4]],                 # an int item: per item
        [[1.0, np.float64(-0.0)], [0.5, 0.25]],  # a float subclass: per item
        [[1.0, 2.0], 3.0], [[], []], [[[1.0]], [[2.0]]],
        {"n": 2, "entries": [[0.1, -0.0, 1e-5, 1 / 3]] * 4},
    ]
    for doc in docs:
        assert jsonio.dumps(doc) == _reference(doc)


def _arrays():
    """1-D and (k, 4) float arrays: edges, random magnitudes, empty, one row, many blocks."""
    rng = np.random.default_rng(47)
    edges = np.array(EDGES + EDGES[:2])  # 16 values: four quaternions
    k = 4 * jsonio._BLOCK + 12  # more rows than one block, in either shape
    many = rng.standard_normal(k) * 10.0 ** rng.integers(-300, 300, k)
    rows = many.reshape(-1, 4)
    return [edges, edges.reshape(-1, 4), np.empty(0), np.empty((0, 4)), edges[:4].reshape(1, 4),
            edges[:1], many, rows, many[:jsonio._BLOCK], rows[:jsonio._BLOCK // 4],
            rows[::3], np.asfortranarray(rows), np.empty((3, 0))]


def test_dumps_formats_float_arrays_as_their_lists():
    for arr in _arrays():
        assert jsonio.dumps(arr) == _reference(arr.tolist()), arr.shape
        doc = {"n": 1, "entries": arr}
        assert jsonio.dumps(doc) == _reference({**doc, "entries": arr.tolist()})


def test_dumps_refuses_arrays_it_cannot_write_as_floats():
    for arr in (np.zeros(3, dtype=np.float32), np.arange(3), np.zeros(2, dtype=complex),
                np.zeros((2, 2, 4)), np.ones(())):
        with pytest.raises(ParseError, match="cannot serialize ndarray"):
            jsonio.dumps(arr)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dumps_refuses_non_finite_floats(bad):
    for doc in (bad, [bad], [1.0, bad, 2.0], [1, bad], {"k": [[0.0, bad]]},
                [[0.0, 1.0], [2.0, bad]], [[bad, -0.0, 0.0, 1.0]] * 3):
        with pytest.raises(ParseError):
            jsonio.dumps(doc)
    for arr in _arrays():
        for at in (0, -1):  # in the first block and in the last
            if arr.size:
                spoilt = arr.copy()
                spoilt.flat[at] = bad
                with pytest.raises(ParseError, match="non-finite"):
                    jsonio.dumps({"entries": spoilt})


def test_to_json_entries_are_a_read_only_view():
    from qroot.quaternion import QuatMatrix
    x = QuatMatrix(np.arange(36.0).reshape(3, 3, 4))
    entries = x.to_json()["entries"]
    assert entries.shape == (9, 4) and np.shares_memory(entries, x.data)
    with pytest.raises(ValueError):
        entries[0, 0] = -1.0
    x.data[0, 0, 0] = 7.0  # the matrix itself stays writable
    assert entries[0, 0] == 7.0


def test_dumps_peak_memory_stays_near_its_output():
    # arrays are formatted a block at a time and every piece is joined once,
    # so the peak is about the pieces plus the result: twice the output
    from qroot.quaternion import QuatMatrix
    rng = np.random.default_rng(53)
    doc = {key: QuatMatrix(rng.standard_normal((64, 64, 4))).to_json()
           for key in ("B", "H", "root")}
    doc["m"] = 2
    tracemalloc.start()
    try:
        text = jsonio.dumps(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text), (peak, len(text))


def test_booleans_and_strings_are_not_numbers():
    from qroot.omega import complex_from_json
    from qroot.quaternion import QuatMatrix
    with pytest.raises(ParseError, match="quaternion matrix entries must be numbers, not bool"):
        QuatMatrix.from_json({"n": 2, "entries": [[1, 0, 0, 0]] * 3 + [[0, True, 0, 0]]})
    with pytest.raises(ParseError, match="complex matrix re must be numbers, not booleans"):
        complex_from_json({"dim": 2, "re": [1, 0, "1", 0], "im": [0, 0, 0, 0]})
    with pytest.raises(ParseError, match="complex matrix im must be numbers, not booleans"):
        complex_from_json({"dim": 1, "re": [1], "im": [False]})
    back = QuatMatrix.from_json({"n": 1, "entries": [[1, 0.5, 0, -2]]})
    assert back.data.tolist() == [[[1, 0.5, 0, -2]]]


def test_loads_nested_too_deeply_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        jsonio.loads("[" * 100000 + "]" * 100000)
