"""The package's small value types behave as immutable values: equality and
hashing by type and fields, a fixed repr, read-only fields, their validation
errors, and pickle / copy round trips."""
import copy
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinv import (DIAGONAL, Cloud, CloudGenSpec, DegenerateCloud,
                      FamilyGenerator, LinearCoefficients, LinearFamily,
                      Matrix2, NonInvertibleMatrix, RotationFamily,
                      Scatter, raw_sums)

# constructor name -> (value, an equal value built with keywords, a
# different value of the same type, repr text, field names).
VALUES = {
    "Scatter": (Scatter(1, 2, 3), Scatter(mn=1.0, hn=2.0, d=3.0), Scatter(1, 2, 4),
                "Scatter(mn=1.0, hn=2.0, d=3.0)", ("mn", "hn", "d")),
    # The chart point (M, H) is the scatter with d = 1.
    "LinearCoefficients": (
        LinearCoefficients(1.52244, 2.46998),
        LinearCoefficients(m=1.52244, h=2.46998), LinearCoefficients(1.5, 2.5),
        "Scatter(mn=1.52244, hn=2.46998, d=1.0)", ("mn", "hn", "d", "m", "h")),
    "Matrix2": (Matrix2(0.4, -0.4, -0.05, 0.9), Matrix2(a=0.4, b=-0.4, c=-0.05, d=0.9),
                Matrix2(0.4, -0.4, -0.05, 1.0),
                "Matrix2(a=0.4, b=-0.4, c=-0.05, d=0.9)", ("a", "b", "c", "d")),
    "FamilyGenerator": (
        FamilyGenerator(8, 1, 10), FamilyGenerator(bprime=8.0, gprime=1.0, delta=10.0),
        FamilyGenerator(8, 1, 9),
        "FamilyGenerator(bprime=8.0, gprime=1.0, delta=10.0)",
        ("bprime", "gprime", "delta")),
    "CloudGenSpec": (
        CloudGenSpec("ellipse", 300, 0.05, 3),
        CloudGenSpec(kind="ellipse", n=300, noise=0.05, seed=3),
        CloudGenSpec("ellipse", 300),
        "CloudGenSpec(kind='ellipse', n=300, noise=0.05, seed=3)",
        ("kind", "n", "noise", "seed")),
    # A fieldless type has no other value of its own; DIAGONAL is a pencil.
    "RotationFamily": (RotationFamily(), RotationFamily(), DIAGONAL,
                       "RotationFamily()", ()),
    "LinearFamily": (
        LinearFamily((1, 0, 0, 1), (0, 1, 0, 0)),
        LinearFamily(a0=[1.0, 0.0, 0.0, 1.0], b=[0.0, 1.0, 0.0, 0.0]),
        LinearFamily((1, 0, 0, 1), (0, 0, 1, 0)),
        "LinearFamily(a0=(1.0, 0.0, 0.0, 1.0), b=(0.0, 1.0, 0.0, 0.0))",
        ("a0", "b")),
}

NAMES = sorted(VALUES)
# Constructors that are functions, and the type of the value they return.
TYPE_NAMES = {"LinearCoefficients": "Scatter"}


@pytest.mark.parametrize("name", NAMES)
def test_equality_and_hash(name):
    value, same, other, _, fields = VALUES[name]
    assert type(value).__name__ == TYPE_NAMES.get(name, name)
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other and not value == other
    assert len({value, same, other}) == 2
    # Equal fields in another type do not make an equal value.
    assert value != tuple(getattr(value, f) for f in fields)


@pytest.mark.parametrize("name", NAMES)
def test_repr(name):
    value, same, _, text, _ = VALUES[name]
    assert repr(value) == text
    assert repr(same) == text


@pytest.mark.parametrize("name", NAMES)
def test_fields_are_read_only(name):
    value, _, _, text, fields = VALUES[name]
    for field in fields + ("not_a_field",):
        with pytest.raises(AttributeError):
            setattr(value, field, 0.0)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert repr(value) == text


def round_trips(value):
    yield copy.copy(value)
    yield copy.deepcopy(value)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))


@pytest.mark.parametrize("name", NAMES)
def test_pickle_and_copy_round_trip(name):
    value, _, _, text, _ = VALUES[name]
    for back in round_trips(value):
        assert type(back) is type(value)
        assert back == value and hash(back) == hash(value)
        assert repr(back) == text
        with pytest.raises(AttributeError):
            setattr(back, "not_a_field", 0.0)


INF, NAN = math.inf, math.nan

INVALID = [
    (lambda: Cloud([(NAN, 0), (1, 1)]), ValueError, r"point x must be finite, got nan"),
    (lambda: Cloud([(0, -INF), (1, 1)]), ValueError, r"point y must be finite, got -inf"),
    (lambda: Cloud([(0, INF), (1, 1)]), ValueError, r"point y must be finite, got inf"),
    (lambda: Scatter(INF, 0, 0), ValueError, r"scatter mn must be finite, got inf"),
    (lambda: Scatter(0, NAN, 0), ValueError, r"scatter hn must be finite"),
    (lambda: Scatter(0, 0, -INF), ValueError, r"scatter d must be finite, got -inf"),
    (lambda: LinearCoefficients(NAN, 0), ValueError,
     r"scatter mn must be finite, got nan"),
    (lambda: LinearCoefficients(0, INF), ValueError,
     r"scatter hn must be finite, got inf"),
    (lambda: Matrix2(NAN, 0, 0, 1), ValueError, r"matrix entry a must be finite"),
    (lambda: Matrix2(INF, 0, 0, 1), ValueError, r"matrix entry a must be finite, got inf"),
    (lambda: Matrix2(1, 0, 0, INF), ValueError, r"matrix entry d must be finite"),
    (lambda: Matrix2(1, 2, 2, 4), NonInvertibleMatrix, r"determinant 0\.0"),
    (lambda: Matrix2(1, 2, 2, 4.000000000001), NonInvertibleMatrix,
     r"determinant 1\.000088900582341e-12 within"),
    (lambda: Matrix2(0, 0, 0, 0), NonInvertibleMatrix, r"within tolerance of zero"),
    (lambda: Matrix2(1, INF, 0, 1), ValueError, r"matrix entry b must be finite"),
    (lambda: Matrix2(1, 0, NAN, 1), ValueError, r"matrix entry c must be finite"),
    (lambda: FamilyGenerator(NAN, 0, 0), ValueError, r"bprime must be finite"),
    (lambda: FamilyGenerator(0, INF, 0), ValueError, r"gprime must be finite"),
    (lambda: FamilyGenerator(0, 0, -INF), ValueError, r"delta must be finite"),
    (lambda: CloudGenSpec("circle", 10), ValueError, r"unknown generator kind"),
    (lambda: CloudGenSpec("spiral", 10), ValueError, r"unknown generator kind 'spiral'"),
    (lambda: CloudGenSpec("ellipse", 1), ValueError, r"point count must be >= 2"),
    (lambda: CloudGenSpec("ellipse", 10, -0.1), ValueError,
     r"noise amplitude must be >= 0"),
    (lambda: CloudGenSpec("ellipse", 10, NAN), ValueError,
     r"noise must be finite, got nan"),
    (lambda: CloudGenSpec("ellipse", 10, 0.0, -1), ValueError,
     r"seed must be a 64-bit unsigned value"),
    (lambda: CloudGenSpec("ellipse", 10, 0.0, 2 ** 64), ValueError,
     r"seed must be a 64-bit unsigned value"),
    (lambda: LinearFamily((1, 0, 0), (0, 1, 0, 0)), ValueError,
     r"a0 must be 4 finite entries"),
    (lambda: LinearFamily((1, 0, 0, 1), (0, INF, 0, 0)), ValueError,
     r"b\[1\] must be finite, got inf"),
    (lambda: CloudGenSpec("ellipse", 10, INF), ValueError,
     r"noise must be finite, got inf"),
    (lambda: CloudGenSpec("ellipse", 10, 2 ** 1100), ValueError,
     r"noise must be finite, got \d{332}$"),
]


@pytest.mark.parametrize("make,exc,match", INVALID)
def test_validation_errors(make, exc, match):
    with pytest.raises(exc, match=match):
        make()


@pytest.mark.parametrize("s", [raw_sums(Cloud([(1, 1), (1, 2)])), Scatter(1.0, 2.0, 0.0)])
def test_chart_of_a_vertical_scatter_is_degenerate(s):
    assert s.d == 0.0
    with pytest.raises(DegenerateCloud):
        s.m
    with pytest.raises(DegenerateCloud):
        s.h


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(finite, finite, finite.filter(bool))
def test_chart_divides_by_d(mn, hn, d):
    s = Scatter(mn, hn, d)  # bit for bit, signs of zero included
    assert (s.m.hex(), s.h.hex()) == ((mn / d).hex(), (hn / d).hex())


def test_limits_are_accepted():
    assert CloudGenSpec("two-segment", 2, 0.0, 2 ** 64 - 1).seed == 2 ** 64 - 1
    assert Cloud([(-1e308, 1e308), (0, 0)]).ys[0] == 1e308
