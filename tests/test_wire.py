"""repro.serve.wire: the orjson HTTP codec against the stdlib contract.

A client decoding with stdlib ``json`` must read the values it read
when the server encoded ``arr.tolist()`` with ``json.dumps``: finite
floats bit for bit (float32 widened to float64), int dict keys as
strings; non-finite floats arrive as ``null`` and ``NaN``/``Infinity``
tokens are refused on decode.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve import ServerStats, wire

F64_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
             2.225073858507201e-308, 1.7976931348623157e308,
             -1.7976931348623157e308, 0.1, 1.0, 1e16, 1e-7]


def _f64_from_bits(bits):
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


def _f32_from_bits(bits):
    return np.array([bits], dtype=np.uint32).view(np.float32)[0]


finite_f64 = st.one_of(
    st.sampled_from(F64_EDGES),
    st.integers(0, 2**64 - 1).map(_f64_from_bits).filter(np.isfinite),
)
finite_f32 = st.integers(0, 2**32 - 1).map(_f32_from_bits).filter(np.isfinite)


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _today(obj):
    """What the stdlib encoder produced for ``obj`` before orjson."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    elif isinstance(obj, np.generic):
        obj = obj.item()
    return json.loads(json.dumps(obj))


@given(st.lists(finite_f64, min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_finite_float64_round_trips_bitwise_both_ways(values):
    arr = np.array(values, dtype=np.float64)
    for payload in (arr, values):
        decoded = json.loads(wire.dumps({"v": payload}))["v"]
        assert np.array_equal(_bits(decoded), arr.view(np.uint64))
    decoded = wire.loads(json.dumps({"v": values}))["v"]
    assert np.array_equal(_bits(decoded), arr.view(np.uint64))


@given(st.lists(finite_f32, min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_float32_arrays_decode_to_todays_values(values):
    arr = np.array(values, dtype=np.float32)
    decoded = json.loads(wire.dumps({"v": arr, "s": arr[0]}))
    assert np.array_equal(_bits(decoded["v"]), _bits(_today(arr)))
    assert _bits([decoded["s"]]) == _bits([_today(arr[0])])
    # ... which is the exact float64 widening of every float32 value.
    assert np.array_equal(_bits(decoded["v"]), arr.astype(np.float64).view(np.uint64))


_dtypes = st.sampled_from([np.float64, np.float32, np.int64, np.int32, np.bool_])


@given(hnp.arrays(_dtypes, hnp.array_shapes(min_dims=2, max_dims=4, max_side=5),
                  elements={"allow_nan": False, "allow_infinity": False}),
       st.sampled_from(["transpose", "stride", "fortran"]))
@settings(max_examples=150, deadline=None)
def test_non_contiguous_arrays_encode_like_their_copies(arr, layout):
    view = {"transpose": arr.T, "stride": arr[..., ::2],
            "fortran": np.asfortranarray(arr)}[layout]
    assert json.loads(wire.dumps(view)) == _today(view)
    if view.dtype.kind == "f":
        assert np.array_equal(_bits(json.loads(wire.dumps(view))), _bits(_today(view)))


@pytest.mark.parametrize("dtype", [">f8", ">f4", ">i4", "<f8"])
def test_byte_order_does_not_change_the_values(dtype):
    arr = np.array([[1.5, -2.25], [0.1, 3.0]]).astype(dtype)
    assert np.array_equal(_bits(json.loads(wire.dumps(arr))), _bits(_today(arr)))


@pytest.mark.parametrize("scalar", [
    np.float64(0.1), np.float32(0.1), np.float16(0.1), np.int64(-3),
    np.int32(7), np.uint8(255), np.bool_(True), np.array(2.5),
])
def test_numpy_scalars_encode_like_item(scalar):
    decoded = json.loads(wire.dumps({"x": scalar}))["x"]
    assert decoded == _today(scalar)
    assert type(decoded) is type(_today(scalar))


@given(st.dictionaries(st.integers(-2**31, 2**31), st.integers(0, 10**6), max_size=16))
@settings(max_examples=100, deadline=None)
def test_int_keys_render_as_strings(histogram):
    payload = {"batch_histogram": histogram}
    assert json.loads(wire.dumps(payload)) == json.loads(json.dumps(payload))


def test_stats_snapshot_matches_stdlib_rendering():
    stats = ServerStats()
    for size in (1, 1, 4, 8):
        stats.record_batch(size, 0.01)
    snap = stats.snapshot(queue_depth=0)
    assert json.loads(wire.dumps(snap)) == json.loads(json.dumps(snap))


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6)),
       st.sampled_from([np.float64, np.float32]))
@settings(max_examples=150, deadline=None)
def test_non_finite_values_become_null(arr, dtype):
    with np.errstate(over="ignore", invalid="ignore"):
        arr = arr.astype(dtype)
    decoded = json.loads(wire.dumps({"v": arr}))["v"]
    flat = np.array(decoded, dtype=object).ravel()
    nonfinite = ~np.isfinite(arr.ravel())
    assert all(item is None for item in flat[nonfinite])
    assert not any(item is None for item in flat[~nonfinite])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"),
                                   np.float32("nan"), np.float64("-inf")])
def test_non_finite_scalars_become_null(value):
    assert wire.dumps({"x": value, "l": [value]}) == b'{"x":null,"l":[null]}'


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_loads_rejects_non_finite_tokens(token):
    with pytest.raises(ValueError):
        wire.loads(f'{{"window": [[{token}, 1.0]]}}'.encode())
