"""One rule for a number from a caller: what ``float()`` converts, except
bool, str, bytes and bytearray, and finite.  Every entry point that takes
numbers refuses anything else with a ValueError that names the field; no
TypeError or OverflowError gets out.  Text from outside has its own parser
(``read_cloud_csv``, the CLI)."""
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinv import (DIAGONAL, Cloud, CloudGenSpec, FamilyGenerator,
                      LinearCoefficients, LinearFamily, Matrix2, Point,
                      Scatter)
from cloudinv.transform import parse_entries

# entry point name -> (call with the value in one field, the field's name).
ENTRY_POINTS = {
    "Point": (lambda v: Point(v, 0.0), "point x"),
    "Scatter": (lambda v: Scatter(0.0, 1.0, v), "scatter d"),
    "LinearCoefficients": (lambda v: LinearCoefficients(0.0, v), "scatter hn"),
    "Matrix2": (lambda v: Matrix2(v, 0.0, 0.0, 1.0), "matrix entry a"),
    "Matrix2.rotation": (Matrix2.rotation, "angle"),
    "FamilyGenerator": (lambda v: FamilyGenerator(0.0, v, 0.0), "gprime"),
    "LinearFamily": (lambda v: LinearFamily((1.0, 0.0, 0.0, v), (0, 1, 0, 0)),
                     r"a0\[3\]"),
    "LinearFamily.evaluate": (DIAGONAL.evaluate, "phi"),
    "Cloud": (lambda v: Cloud([(1.0, v), (3.0, 4.0)]), "point y"),
    "Cloud.from_arrays": (lambda v: Cloud.from_arrays([v, v], [1.0, 2.0]),
                          "coordinate"),
    "CloudGenSpec": (lambda v: CloudGenSpec("ellipse", 10, v), "noise"),
    "parse_entries": (lambda v: parse_entries(json.dumps([[1, 0], [v, 1]])),
                      "matrix entry c"),
}

NOT_NUMBERS = [None, True, False, "1.5", b"1", bytearray(b"2"), 10 ** 400,
               -10 ** 400, math.nan, math.inf, -math.inf, [1.0], object(),
               1j, Fraction(10 ** 400), Decimal("nan"), Decimal("snan"),
               np.float64(math.inf)]


def _json_encodable(value):
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(ENTRY_POINTS)),
       st.one_of(st.sampled_from(NOT_NUMBERS), st.booleans(), st.text(max_size=4),
                 st.binary(max_size=4),
                 st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024),
                 st.lists(st.floats(-1.0, 1.0), max_size=2),
                 st.complex_numbers(allow_nan=False, allow_infinity=False)))
def test_every_entry_point_refuses_what_is_not_a_finite_number(entry, value):
    call, field = ENTRY_POINTS[entry]
    if entry == "parse_entries" and not _json_encodable(value):
        return  # a literal holds only what JSON can write
    with pytest.raises(ValueError, match=field):
        call(value)


# Inputs that were accepted, or raised TypeError or OverflowError, before
# the one rule.
PROBES = [
    lambda: Matrix2(*"1234"),
    lambda: Scatter("1", "2", "3"),
    lambda: FamilyGenerator(True, 0, 0),
    lambda: DIAGONAL.evaluate("2"),
    lambda: DIAGONAL.evaluate(True),
    lambda: Cloud([(True, 2), (3, 4)]),
    lambda: Cloud.from_arrays(["1", "2"], [1, 2]),
    lambda: Cloud.from_arrays([True, False, True], [1, 2, 3]),
    lambda: Matrix2(None, 0, 0, 1),
    lambda: Cloud([(None, 2), (3, 4)]),
    lambda: Matrix2.rotation("1"),
    lambda: LinearFamily(1.0, (0, 0, 0, 1)),
    lambda: Cloud([1, 2]),
    lambda: Matrix2(10 ** 400, 0, 0, 1),
    lambda: FamilyGenerator(10 ** 400, 0, 0),
    lambda: DIAGONAL.evaluate(10 ** 400),
]


@pytest.mark.parametrize("probe", PROBES)
def test_probe_raises_value_error(probe):
    with pytest.raises(ValueError):
        probe()


@pytest.mark.parametrize("value", [0.5, 2, np.float32(0.25), np.int64(3),
                                   Fraction(1, 4), Decimal("0.75")])
@pytest.mark.parametrize("entry", sorted(set(ENTRY_POINTS) - {"Cloud.from_arrays"}))
def test_every_entry_point_takes_a_number(entry, value):
    # Cloud.from_arrays reads arrays, whose dtype numpy decides.
    if entry != "parse_entries" or _json_encodable(value):
        ENTRY_POINTS[entry][0](value)


def test_fields_hold_the_float():
    assert Matrix2(Fraction(1, 4), 0, 0, np.int64(3)).entries() == (0.25, 0.0, 0.0, 3.0)
    assert type(CloudGenSpec("ellipse", 10, 1).noise) is float
    assert Cloud([(Decimal("0.5"), 1), (2, np.float32(0.25))]).points == (
        Point(0.5, 1.0), Point(2.0, 0.25))
