"""Shared fixtures and random-input helpers."""
from __future__ import annotations

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import strategies as st

from cloudinv import (Cloud, LinearCoefficients, Matrix2, Param,
                      generator_value, induced_coefficients)
from cloudinv import generators

# The reference coefficient pair used throughout the worked examples.
REF_M = 1.52244
REF_H = 2.46998

# Floats of magnitude 1e-3 to 1e3, or zero, for the power-of-two scaling
# properties: scaled by 2**k, |k| <= 200, they stay far from underflow.
magnitude = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))

# Values that are not a finite number: every entry point refuses each one,
# naming the field (test_numbers.py), and so does a matrix literal with one
# written into it (test_transform.py).  10**5000 has too many digits for repr.
NOT_NUMBERS = [None, True, False, "1.5", b"1", bytearray(b"2"), 10 ** 400,
               -10 ** 400, math.nan, math.inf, -math.inf, [1.0], object(),
               1j, Fraction(10 ** 400), Decimal("nan"), Decimal("snan"),
               np.float64(math.inf), np.True_, np.False_, np.array(True),
               10 ** 5000]
not_a_number = st.one_of(
    st.sampled_from(NOT_NUMBERS), st.booleans(), st.text(max_size=4),
    st.binary(max_size=4),
    st.integers(min_value=2 ** 1024) | st.integers(max_value=-2 ** 1024),
    st.lists(st.floats(-1.0, 1.0), max_size=2),
    st.complex_numbers(allow_nan=False, allow_infinity=False))


def random_cloud(rng: np.random.Generator, n: int = 30,
                 offset: float = 0.0) -> Cloud:
    """A generic non-degenerate cloud with coordinates in a unit box."""
    xs = rng.random(n) + offset
    ys = rng.random(n) + offset
    return Cloud.from_arrays(xs, ys)


def random_invertible(rng: np.random.Generator,
                      min_det: float = 0.1) -> Matrix2:
    """A random 2x2 matrix with determinant bounded away from zero."""
    while True:
        a, b, c, d = rng.uniform(-2.0, 2.0, size=4)
        if abs(a * d - b * c) >= min_det:
            return Matrix2(a, b, c, d)


def matmul(p: Matrix2, q: Matrix2) -> Matrix2:
    """The product p q (q applied first)."""
    return Matrix2(p.a * q.a + p.b * q.c, p.a * q.b + p.b * q.d,
                   p.c * q.a + p.d * q.c, p.c * q.b + p.d * q.d)


def perturbed_matrix(param: Param, s: float) -> Matrix2:
    """I + s*E for the direction E of ``param``."""
    return Matrix2(*[i + s * e for i, e in zip((1.0, 0.0, 0.0, 1.0), param.value)])


def generator_fd_deviation(param: Param, m: float, h: float) -> float:
    """Max deviation between the closed-form field and a central finite
    difference of the induced coefficient map at the identity, stepped by
    ``generators.FD_STEP``.

    O(FD_STEP^2) at smooth points.  Propagates DegenerateImage if a perturbed
    matrix hits a singular denominator.
    """
    step = generators.FD_STEP
    lc = LinearCoefficients(m, h)
    plus = induced_coefficients(perturbed_matrix(param, step), lc)
    minus = induced_coefficients(perturbed_matrix(param, -step), lc)
    fd1 = (plus.m - minus.m) / (2.0 * step)
    fd2 = (plus.h - minus.h) / (2.0 * step)
    xi1, xi2 = generator_value(param, m, h)
    return max(abs(fd1 - xi1), abs(fd2 - xi2))


def two_pass_sums(xs, ys):
    """Reference (M_n, H_n, D): exactly rounded means, then exactly rounded
    sums of centered products."""
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    dx = [x - mx for x in xs]
    dy = [y - my for y in ys]
    return (n * math.fsum(a * b for a, b in zip(dx, dy)),
            n * math.fsum(b * b for b in dy),
            n * math.fsum(a * a for a in dx))


def assert_sums_close(rs, ref, rel=1e-12):
    for got, want in zip((rs.mn, rs.hn, rs.d), ref):
        assert abs(got - want) <= rel * abs(want)


def traced_peak(call) -> int:
    """Peak bytes allocated while ``call`` runs, its result included."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240824)
