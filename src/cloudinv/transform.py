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
                           _exact, _near_zero, _parse_floats, _ratio, _Value)
from .errors import DegenerateImage, NonInvertibleMatrix


class Matrix2(_Value):
    """A real, finite, invertible 2x2 matrix (a b; c d), row-major.

    Invertibility holds by construction: every operation that takes a
    Matrix2 may rely on it and tests no determinant of its own.

    Raises:
        ValueError: an entry is not finite.
        NonInvertibleMatrix: |det| is at most RTOL * max|entry|**2, both exact.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        self._set_floats("matrix entry ", a, b, c, d)
        (a, b, c, d), q = _exact(self.a, self.b, self.c, self.d)
        if _near_zero(abs(a * d - b * c), max(map(abs, (a, b, c, d))) ** 2):
            raise NonInvertibleMatrix(
                f"matrix ({self.a}, {self.b}; {self.c}, {self.d}) has "
                f"determinant {_ratio(a * d - b * c, q * q)} within tolerance of zero")

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


def _image(t: Matrix2, s: Scatter) -> tuple[tuple[int, int, int], int, int]:
    """T S T^T as exact integers (M_n, H_n, D), the bound of its D (see
    :func:`induced_coefficients`) and their common denominator."""
    (a, b, c, d, mn, hn, dd), q = _exact(*t.entries(), s.mn, s.hn, s.d)
    p, r = a * dd + b * mn, a * mn + b * hn  # the rows of T S
    u, v = c * dd + d * mn, c * mn + d * hn
    bound = (abs(a) + abs(b)) ** 2 * abs(dd) + abs(2 * a * b * mn) + b * b * abs(hn)
    return (p * c + r * d, u * c + v * d, p * a + r * b), bound, q ** 3


def induced_raw(t: Matrix2, s: Scatter) -> Scatter:
    """T S T^T: the scatter of the image of a cloud with scatter S under an
    invertible matrix T, the one quadratic form behind both induced maps,
    each entry the exact value rounded once.

    Raises:
        ValueError: an entry of T S T^T overflows.
    """
    image, _, den = _image(t, s)
    image = [_ratio(v, den) for v in image]
    if not all(map(math.isfinite, image)):
        raise ValueError(f"induced map overflows: T S T^T is {image}")
    return Scatter(*image)


def induced_coefficients(t: Matrix2, s: Scatter) -> Scatter:
    """Closed-form image of (M, H) under an invertible matrix: the chart
    point of T S T^T, for the chart point of a cloud or any scatter S, each
    quotient of the exact entries rounded once.

    Raises:
        DegenerateImage: the image's D = a^2 D + 2ab M_n + b^2 H_n is at most
            RTOL * ((|a| + |b|)**2 |D| + |2ab M_n| + b^2 |H_n|), both exact:
            D is charged at the row's size, so a = cos(pi/2) is 0.
        ValueError: the chart point overflows ("scatter mn must be finite").
    """
    (mn, hn, dd), bound, den = _image(t, s)
    if _near_zero(abs(dd), bound):
        raise DegenerateImage(
            f"induced-map denominator {_ratio(dd, den)} is zero within tolerance; the "
            "image cloud has no x-spread"
        )
    return LinearCoefficients(_ratio(mn, dd), _ratio(hn, dd))
