"""One rule for a number from a caller: what ``float()`` converts, except
bool (numpy's too), str, bytes and bytearray, and finite.  Every entry point that takes
numbers refuses anything else with a ValueError that names the field; no
TypeError or OverflowError gets out.  Text from outside has its own rule,
``coefficients._parse_floats`` (``read_cloud_csv``, matrix literals, the CLI)."""
import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from cloudinv import (DIAGONAL, Cloud, CloudGenSpec, FamilyGenerator,
                      LinearCoefficients, LinearFamily, Matrix2,
                      RotationFamily, Scatter, parse_family)
from cloudinv.coefficients import _parse_floats
from cloudinv.transform import parse_entries
from conftest import not_a_number

# entry point name -> (call with the value in one field, the field's name).
ENTRY_POINTS = {
    "Scatter": (lambda v: Scatter(0.0, 1.0, v), "scatter d"),
    "LinearCoefficients": (lambda v: LinearCoefficients(0.0, v), "scatter hn"),
    "Matrix2": (lambda v: Matrix2(v, 0.0, 0.0, 1.0), "matrix entry a"),
    "RotationFamily.evaluate": (RotationFamily().evaluate, "phi"),
    "FamilyGenerator": (lambda v: FamilyGenerator(0.0, v, 0.0), "gprime"),
    "LinearFamily": (lambda v: LinearFamily((1.0, 0.0, 0.0, v), (0, 1, 0, 0)),
                     r"a0\[3\]"),
    "LinearFamily.evaluate": (DIAGONAL.evaluate, "phi"),
    "Cloud": (lambda v: Cloud([(1.0, v), (3.0, 4.0)]), "point y"),
    "Cloud.from_arrays": (lambda v: Cloud.from_arrays([v, v], [1.0, 2.0]),
                          "coordinate"),
    "CloudGenSpec": (lambda v: CloudGenSpec("ellipse", 10, v), "noise"),
}


def _json_encodable(value):
    try:
        json.dumps(value)
    except (TypeError, ValueError):
        return False
    return True


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@settings(max_examples=30, deadline=None)
@given(not_a_number)
def test_every_entry_point_refuses_what_is_not_a_finite_number(entry, value):
    # A matrix literal is text: test_transform.py writes these values into one.
    call, field = ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=field):
        call(value)


# Inputs that were accepted, or raised TypeError or OverflowError, before
# the one rule, and that the entry points above do not reach: a field other
# than the one they fill, a family base that is one number, points that are
# not pairs.
PROBES = [
    lambda: Scatter("1", "2", "3"),
    lambda: Cloud([(True, 2), (3, 4)]),
    lambda: LinearFamily(1.0, (0, 0, 0, 1)),
    lambda: Cloud([1, 2]),
]


@pytest.mark.parametrize("probe", PROBES)
def test_probe_raises_value_error(probe):
    with pytest.raises(ValueError):
        probe()


@pytest.mark.parametrize("value", [np.True_, np.False_, np.array(True), 10 ** 5000],
                         ids=["np.True_", "np.False_", "np.array(True)", "10**5000"])
def test_numpy_bools_and_unprintable_ints_are_refused_by_name(value):
    # numpy's bool is no subclass of bool; repr(10**5000) raises ValueError.
    with pytest.raises(ValueError, match="^matrix entry a must be finite, got "):
        Matrix2(value, 0, 0, 1)
    with pytest.raises(ValueError, match="^point x must be finite, got "):
        Cloud([(value, 2), (3, 4)])


LONG = "x" * 40_000

# Each place a message quotes a value, given one of 40 000 characters or
# items, and how the message starts: the field, then the head of the value.
LONG_VALUES = [
    (lambda: Matrix2(LONG, 0, 0, 1), "matrix entry a must be finite, got 'xxx"),
    (lambda: Matrix2([0] * 40_000, 0, 0, 1),
     "matrix entry a must be finite, got [0, 0, 0"),
    (lambda: Matrix2(10 ** 1000, 0, 0, 1), "matrix entry a must be finite, got 1000"),
    (lambda: Cloud([(0, 0), LONG]), "a point must be 2 coordinates, got 'xxx"),
    (lambda: LinearFamily(LONG, (1, 0, 0, 1)), "a0 must be 4 finite entries, got 'xxx"),
    (lambda: LinearFamily((1, 0, 0, 1), [*range(40_000)]),
     "b must be 4 finite entries, got [0, 1, 2"),
    (lambda: _parse_floats(LONG), "'xxx"),
    (lambda: parse_entries(LONG), "expected 'a,b;c,d', got 'xxx"),
    (lambda: parse_entries("[" * 20_000 + "]" * 20_000),
     "expected [[a,b],[c,d]], got '[[["),
    (lambda: parse_family(LONG), "unknown family literal 'xxx"),
    (lambda: parse_family(f"linear:{LONG}|1,0;0,1"), "expected 'a,b;c,d', got 'xxx"),
    (lambda: parse_family("linear:" + "|" * 40_000),
     "expected linear:A0|B, got 'linear:|||"),
]


@pytest.mark.parametrize("make,start", LONG_VALUES)
def test_a_long_value_is_quoted_by_head_and_tail(make, start):
    # At most 400 characters of each quoted value, and at most two quotes.
    with pytest.raises(ValueError) as info:
        make()
    message = str(info.value)
    assert message.startswith(start)
    assert "..." in message and len(message) < 1000


@pytest.mark.parametrize("value", [0.5, 2, np.float32(0.25), np.int64(3),
                                   Fraction(1, 4), Decimal("0.75")])
@pytest.mark.parametrize("entry", sorted({*ENTRY_POINTS, "parse_entries"}
                                         - {"Cloud.from_arrays"}))
def test_every_entry_point_takes_a_number(entry, value):
    # Cloud.from_arrays reads arrays, whose dtype numpy decides; a matrix
    # literal holds what JSON writes.
    if entry != "parse_entries":
        ENTRY_POINTS[entry][0](value)
    elif _json_encodable(value):
        assert parse_entries(json.dumps([[1, 0], [value, 1]]))[2] == value


def test_fields_hold_the_float():
    # Whatever number type each field is given.
    family = LinearFamily([1, 0, 0, 1], [0, 1, 0, np.int64(2)])
    cloud = Cloud([(Decimal("0.5"), 1), (2, np.float32(0.25))])
    fields = [*Matrix2(Fraction(1, 4), 0, 0, np.int64(3)).entries(), *family.a0, *family.b,
              Scatter(1, 2, Decimal(3)).d, FamilyGenerator(1, 0, 0).bprime,
              CloudGenSpec("ellipse", 10, 1).noise, *cloud.xs.tolist(), *cloud.ys.tolist()]
    assert [type(v) for v in fields] == [float] * len(fields) and type(family.b) is tuple
    assert fields[:4] + fields[-4:] == [0.25, 0.0, 0.0, 3.0, 0.5, 2.0, 1.0, 0.25]
