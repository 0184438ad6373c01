"""The text kernels write every value as the ``%`` format or ``json.dumps`` does, byte for byte."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import _csvtext
from coinwalk.core import CoinWalkError


def rendered_fields(values, dtype):
    """Each value's CSV field text, from one kernel call on an int64 or float64 column.

    The kernels format non-finite values too; the writers refuse them (see
    ``test_writers_refuse_non_finite_floats``).
    """
    values = np.array(values, dtype=dtype)
    out = np.empty((len(values), _csvtext.SLOT), np.uint8)
    kernel = _csvtext._float_slots if values.dtype.kind == "f" else _csvtext._int_slots
    kernel(values, out)
    return [row.tobytes().translate(None, b"\0") for row in out]


def json_fields(values, dtype=np.float64):
    """Each value's JSON item text, from one ``json_items`` call on an int64 or float64 array."""
    return _csvtext.json_items(np.array(values, dtype=dtype), b",").split(b",")


def stdlib_json(values):
    return [json.dumps(v).encode() for v in values]


EDGES = {
    "tie 2**-25": 2.0**-25,
    "1e15+0.5, exact in 17 digits": 1e15 + 0.5,
    "tie 1e15+0.25": 1e15 + 0.25,
    "literal 9.9999999999999999e16 (the double 1e17)": 9.9999999999999999e16,
    "1e16": 1e16,
    "1e17": 1e17,
    "next below 1e16": math.nextafter(1e16, 0.0),
    "literal 99999.999999999999 (the double 1e5)": 99999.999999999999,
    "fixed/exponent switch 1e-5": 1e-5,
    "fixed/exponent switch 0.0001": 0.0001,
    "largest fixed exponent": 1e17 - 16,
    "integer with zeros": 1000.0,
    "0.0": 0.0,
    "-0.0": -0.0,
    "smallest subnormal": 5e-324,
    "1e308": 1e308,
    "largest double": -1.7976931348623157e308,
    "fast range low edge": 1e-280,
    "below fast range": math.nextafter(1e-280, 0.0),
    "fast range high edge": 1e280,
    "above fast range": math.nextafter(1e280, math.inf),
    "three-digit exponent": 1.5e-100,
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
}


@pytest.mark.parametrize("x", EDGES.values(), ids=EDGES.keys())
def test_float_edges_match_percent_format(x):
    assert rendered_fields([x], np.float64) == [b"%.17g" % x]


def test_doubles_around_every_power_of_ten_match_percent_format():
    # just below 10**e a double can round up to 1e+e (a carry into the next exponent)
    around = []
    for e in range(-300, 309):
        t = float(f"1e{e}")
        around += [math.nextafter(t, 0.0), t, math.nextafter(t, math.inf)]
    assert rendered_fields(around, np.float64) == [b"%.17g" % x for x in around]


def test_zeros_stay_in_the_kernel_and_ties_fall_back():
    x = np.array([0.0, -0.0, 0.5, 1e3, 2.0**-25, 1e15 + 0.25, 1e-300, math.inf, math.nan])
    out = np.empty((len(x), _csvtext.SLOT), np.uint8)
    assert _csvtext._float_slots(x, out) == 5


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_float_bit_patterns_match_percent_format(patterns):
    xs = np.array(patterns, dtype=np.uint64).view(np.float64)
    assert rendered_fields(xs, np.float64) == [b"%.17g" % x for x in xs.tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
def test_int64_values_match_percent_format(values):
    assert rendered_fields(values, np.int64) == [b"%d" % v for v in values]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("at", [0, 5, 2047])
def test_writers_refuse_non_finite_floats(tmp_path, bad, at):
    values = np.linspace(-1.0, 1.0, 2048)
    values[at] = bad
    with pytest.raises(CoinWalkError, match="NaN or an infinity"):
        _csvtext.write_table(tmp_path / "t.csv", "i,f", [(np.arange(2048), values)])
    with pytest.raises(CoinWalkError, match="NaN or an infinity"):
        _csvtext.write_json(tmp_path / "t.json", {"values": values})


def json_sweep():
    """Floats whose shortest text is easy to get wrong, about 2 * 10**5 of them."""
    rng = np.random.default_rng(3)
    values = [0.0, -0.0, 1e16, 1e17, 1e-5, 1e-4, 9007199254740993.0, 0.1, 0.3, 2.5]
    for e in range(-323, 309):
        t = float(f"1e{e}")
        below = above = t
        values.append(t)
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above]
    for k in range(-1074, 1024):
        p = 2.0**k
        values += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    for digits in (1, 5, 13, 15, 16, 17):
        normals = rng.standard_normal(10**4) * 10.0 ** rng.integers(-300, 300, 10**4)
        values += [float("%.*e" % (digits - 1, v)) for v in normals.tolist()]
    scale = 10.0 ** rng.integers(0, 18, 10**4)
    values += np.round(rng.standard_normal(10**4) * scale).tolist()
    values += [float(10**17 - i) for i in range(64)]
    values = [v for v in values if math.isfinite(v)]
    return values + [-v for v in values]


def test_json_floats_match_stdlib_on_a_sweep():
    values = json_sweep()
    assert json_fields(values) == stdlib_json(values)


def test_json_ints_match_stdlib_at_the_extremes():
    i64 = np.iinfo(np.int64)
    signed = [i64.min, i64.min + 1, -1, 0, 1, 9999, 10000, i64.max]
    assert json_fields(signed, np.int64) == stdlib_json(signed)


def test_json_fallbacks_are_rare_on_random_floats():
    # near-ties and powers of two go to json.dumps one at a time
    x = np.random.default_rng(4).standard_normal(2048)
    x[:4] = [1.5, 2.0, 0.0, 1e22]
    out = np.empty((len(x), _csvtext.SLOT), np.uint8)
    assert 1 <= _csvtext._repr_slots(x, out) <= 20


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_json_float_bit_patterns_match_stdlib(patterns):
    xs = np.array(patterns, dtype=np.uint64).view(np.float64)
    if np.isfinite(xs).all():
        assert json_fields(xs) == stdlib_json(xs.tolist())
    else:
        with pytest.raises(CoinWalkError):
            "".join(_csvtext._json_chunks(xs))
