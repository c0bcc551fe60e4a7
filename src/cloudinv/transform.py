"""2x2 matrix actions on clouds and the induced map of (M, H).

Transforming every cloud point by an invertible matrix (a b; c d) induces a
rational transformation of the linear coefficients.  This module provides
the pointwise cloud action, the closed-form induced map as the congruence
S -> T S T^T of a cloud's scatter matrix and as the chart point of that
image, and the parsing of matrix literals.
"""
from __future__ import annotations

import math

from .coefficients import (Cloud, Entries, LinearCoefficients, Scatter, _QUOTE,
                           _near_zero, _parse_floats, _Value)
from .errors import DegenerateImage, NonInvertibleMatrix


class Matrix2(_Value):
    """A real, finite, invertible 2x2 matrix (a b; c d), row-major.

    Invertibility holds by construction: every operation that takes a
    Matrix2 may rely on it and tests no determinant of its own.

    Raises:
        ValueError: an entry is not finite.
        NonInvertibleMatrix: |det| is at most RTOL * max|entry|**2, tested on the
            entries divided by max|entry| (not for the zero matrix) so that
            no product overflows.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        self._set_floats("matrix entry ", a, b, c, d)
        s = self.max_abs_entry() or 1.0
        a, b, c, d = self.a / s, self.b / s, self.c / s, self.d / s
        if _near_zero(abs(a * d - b * c), 1.0):
            raise NonInvertibleMatrix(
                f"matrix ({self.a}, {self.b}; {self.c}, {self.d}) has "
                f"determinant {self.det} within tolerance of zero")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def max_abs_entry(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def entries(self) -> Entries:
        return (self.a, self.b, self.c, self.d)


def parse_entries(literal: str) -> Entries:
    """The entries (a, b, c, d), row-major, of a matrix literal `a,b;c,d` or
    `[[a,b],[c,d]]`, each row read by :func:`_parse_floats`."""
    text = literal.strip()
    if text.startswith("["):  # '[' '[' row ']' ',' '[' row ']' ']', spaced
        what = f"expected [[a,b],[c,d]], got {_QUOTE.repr(literal)}: "
        heads = [p.partition("[") for p in ("," + text[1:]).split("]")]
        if [h.strip() + b for h, b, _ in heads] != [",[", ",[", "", ""]:
            raise ValueError(f"{what}not two bracketed rows")
        top, bottom = heads[0][2], heads[1][2]
    else:
        what = f"expected 'a,b;c,d', got {_QUOTE.repr(literal)}: "
        top, _, bottom = text.partition(";")
    return tuple(_parse_floats(top, 2, what) + _parse_floats(bottom, 2, what))


def parse_matrix(literal: str) -> Matrix2:
    """Parse an invertible matrix from either form :func:`parse_entries` reads."""
    return Matrix2(*parse_entries(literal))


def apply_to_cloud(m: Matrix2, cloud: Cloud) -> Cloud:
    """Pointwise image of a cloud under an invertible matrix.

    Each point maps to (a*x + b*y, c*x + d*y); length and order are preserved.
    One pass over the cloud reduces the image's moments, an image chunk at a
    time, without writing the image: it holds the cloud's arrays and the
    matrix, and writes its coordinates (16 bytes a point) when they are first
    read.  The image of an image writes the inner one first.

    Raises:
        ValueError: an image coordinate overflows to infinity.
    """
    return Cloud._own((cloud.xs, cloud.ys), m.entries())


def induced_raw(t: Matrix2, s: Scatter) -> Scatter:
    """T S T^T: the scatter of the image of a cloud with scatter S under an
    invertible matrix T, the one quadratic form behind both induced maps.

    Raises:
        ValueError: an entry of T S T^T overflows.
    """
    return Scatter(*_congruence(s, *t.entries()))


def _congruence(s: Scatter, a: float, b: float, c: float, d: float) -> tuple:
    return _finite((a * d + b * c) * s.mn + b * d * s.hn + a * c * s.d,
                   2.0 * c * d * s.mn + d * d * s.hn + c * c * s.d,
                   2.0 * a * b * s.mn + b * b * s.hn + a * a * s.d)


def _congruence_by_rows(s: Scatter, a: float, b: float, c: float, d: float) -> tuple:
    """T S T^T as (T S) T^T: each entry of T meets an entry of S before it
    meets another entry of T, so no product of two entries of T is rounded
    at subnormal precision before S scales it."""
    p, q = a * s.d + b * s.mn, a * s.mn + b * s.hn
    r, u = c * s.d + d * s.mn, c * s.mn + d * s.hn
    return _finite(p * c + q * d, r * c + u * d, p * a + q * b)


def _finite(*image: float) -> tuple:
    if not all(map(math.isfinite, image)):
        raise ValueError(f"induced map overflows: T S T^T is {image}")
    return image


def induced_coefficients(t: Matrix2, s: Scatter) -> Scatter:
    """Closed-form image of (M, H) under an invertible matrix: the chart
    point of T S T^T, for the chart point of a cloud or any scatter S.
    It has degree 0 in T, so it is computed on T / 2**k for k = e,
    2**(e-1) <= max|entry| < 2**e, unless that rounds an entry (one that is
    or turns subnormal); then for the largest k that keeps every entry
    exact, as (T S) T^T, or, where that overflows, for k = e after all.

    Raises:
        DegenerateImage: the image's D = a^2 D + 2ab M_n + b^2 H_n is at most
            RTOL * ((|a| + |b|)**2 |D| + |2ab M_n| + b^2 |H_n|), a, b of the
            scaled T: D is charged at the row's size, so a = cos(pi/2) is 0.
        ValueError: the induced map overflows.
    """
    entries = t.entries()
    e = math.frexp(t.max_abs_entry())[1]
    scaled = exact = [math.ldexp(v, -e) for v in entries]
    if [math.ldexp(v, e) for v in scaled] != list(entries):
        # v / 2**k is exact while v's lowest set bit stays at or above 2**-1074.
        k = min(1074 + (n & -n).bit_length() - q.bit_length()
                for n, q in map(float.as_integer_ratio, entries) if n)
        exact = [math.ldexp(v, -k) for v in entries]
    try:
        a, b, c, d = exact
        mn, hn, dd = (_congruence if exact is scaled else _congruence_by_rows)(s, a, b, c, d)
    except ValueError:
        if exact is scaled:
            raise
        a, b, c, d = scaled
        mn, hn, dd = _congruence(s, a, b, c, d)
    bound = ((abs(a) + abs(b)) ** 2 * abs(s.d) + abs(2.0 * a * b * s.mn)
             + b * b * abs(s.hn))
    if _near_zero(abs(dd), bound):
        raise DegenerateImage(
            f"induced-map denominator {dd} is zero within tolerance; the "
            "image cloud has no x-spread"
        )
    return LinearCoefficients(mn / dd, hn / dd)
