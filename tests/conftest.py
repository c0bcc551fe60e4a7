"""Shared fixtures and random-input helpers."""
from __future__ import annotations

import io
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from cloudinv import (Cloud, CloudGenSpec, LinearCoefficients, Matrix2,
                      generate_cloud, induced_coefficients, read_cloud_csv,
                      write_cloud_csv)
from cloudinv import generators

# tests/mutate.py runs tier-1 on each mutant under this profile: a failing
# property test ends at its first failing example, which is not shrunk.
settings.register_profile("mutation", phases=[p for p in Phase if p is not Phase.shrink])

# The reference coefficient pair used throughout the worked examples.
REF_M = 1.52244
REF_H = 2.46998

# The four matrix-entry directions E_ij at the identity, as entries (a, b, c, d).
UNIT_DIRECTIONS = {"E11": (1.0, 0.0, 0.0, 0.0), "E12": (0.0, 1.0, 0.0, 0.0),
                   "E21": (0.0, 0.0, 1.0, 0.0), "E22": (0.0, 0.0, 0.0, 1.0)}

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


# The ways a test builds a source cloud, each ending in its own 2 x n block.
BUILDS = ("from_arrays", "generated", "csv")


def build_cloud(how: str, xs: np.ndarray, ys: np.ndarray) -> Cloud:
    """The cloud of (xs, ys) by ``Cloud.from_arrays``, or read back from its
    CSV form (``Cloud(points)``); "generated" gives a noisy ellipse of as
    many points instead."""
    if how == "generated":
        return generate_cloud(CloudGenSpec("ellipse", xs.size, 0.05, xs.size))
    cloud = Cloud.from_arrays(xs, ys)
    if how == "csv":
        text = io.StringIO()
        write_cloud_csv(cloud, text)
        return read_cloud_csv(io.StringIO(text.getvalue()))
    return cloud


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


def perturbed_matrix(e: tuple[float, float, float, float], s: float) -> Matrix2:
    """I + s*E for the direction E of entries ``e``."""
    return Matrix2(*[i + s * x for i, x in zip((1.0, 0.0, 0.0, 1.0), e)])


def generator_fd_deviation(e: tuple[float, float, float, float], m: float,
                           h: float) -> float:
    """Max deviation between the closed-form field of the direction E of
    entries ``e`` = (a, b, c, d), taken as its trace-free part (a - d, b, c, 0)
    as ``family_pde_residual`` takes it, and a central finite difference of
    the induced coefficient map at the identity, stepped by
    ``generators.FD_STEP``.

    O(FD_STEP^2) at smooth points.  Propagates DegenerateImage if a perturbed
    matrix hits a singular denominator.
    """
    step = generators.FD_STEP
    lc = LinearCoefficients(m, h)
    plus = induced_coefficients(perturbed_matrix(e, step), lc)
    minus = induced_coefficients(perturbed_matrix(e, -step), lc)
    fd1 = (plus.m - minus.m) / (2.0 * step)
    fd2 = (plus.h - minus.h) / (2.0 * step)
    a, b, c, d = e
    xi1, xi2 = generators._field((a - d, b, c, 0.0), m, h)
    return max(abs(fd1 - xi1), abs(fd2 - xi2))


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
