"""The CSV text kernel renders every field as the ``%`` format does, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coinwalk import _csvtext


def rendered_fields(values, dtype):
    """Each value's field text, from one single-column ``render`` call."""
    text = _csvtext.render([np.array(values, dtype=dtype)])
    assert text.endswith(b"\n")
    return text[:-1].split(b"\n")


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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_uint64_values_match_percent_format(values):
    assert rendered_fields(values, np.uint64) == [b"%d" % v for v in values]
