"""2x2 matrix actions on clouds and the induced map of (M, H).

Transforming every cloud point by an invertible matrix (a b; c d) induces a
rational transformation of the linear coefficients.  This module provides
the pointwise cloud action, the closed-form induced map as the congruence
S -> T S T^T of a cloud's scatter matrix and as the chart point of that
image, and matrix literal parsing.
"""
from __future__ import annotations

import json
import math

from .coefficients import RTOL, Cloud, LinearCoefficients, Scatter, _Value
from .errors import DegenerateImage, NonInvertibleMatrix


class Matrix2(_Value):
    """A real 2x2 matrix (a b; c d), row-major.

    The default constructor rejects singular matrices; use
    :meth:`unchecked` to carry possibly-singular matrices (one-parameter
    families can pass through singular points; operations that need
    invertibility re-check it).
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float) -> None:
        self._set_floats("matrix entry ", a, b, c, d)
        _require_invertible(self)

    @classmethod
    def unchecked(cls, a: float, b: float, c: float, d: float) -> "Matrix2":
        """Construct without the invertibility check (finiteness still holds)."""
        m = object.__new__(cls)
        m._set_floats("matrix entry ", a, b, c, d)
        return m

    @classmethod
    def identity(cls) -> "Matrix2":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def diagonal(cls, d1: float, d2: float) -> "Matrix2":
        return cls(d1, 0.0, 0.0, d2)

    @classmethod
    def rotation(cls, angle: float) -> "Matrix2":
        c, s = math.cos(angle), math.sin(angle)
        return cls(c, s, -s, c)

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def max_abs_entry(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def is_invertible(self) -> bool:
        """|det| > RTOL * max|entry|**2, on the entries divided by max|entry|
        (not for the zero matrix) so that no product overflows."""
        s = self.max_abs_entry() or 1.0
        a, b, c, d = self.a / s, self.b / s, self.c / s, self.d / s
        return abs(a * d - b * c) > RTOL

    def __matmul__(self, other: "Matrix2") -> "Matrix2":
        """Matrix product self @ other (apply ``other`` first)."""
        return Matrix2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def parse_entries(literal: str) -> tuple[float, float, float, float]:
    """The entries (a, b, c, d) of a matrix literal `a,b;c,d` or the JSON
    form `[[a,b],[c,d]]`, row-major."""
    text = literal.strip()
    as_json = text.startswith("[")
    rows = json.loads(text) if as_json else [r.split(",") for r in text.split(";")]
    if (not isinstance(rows, list) or len(rows) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in rows)):
        form = "[[a,b],[c,d]]" if as_json else "'a,b;c,d'"
        raise ValueError(f"expected {form}, got {literal!r}")
    cells = [v for row in rows for v in row]
    if as_json and any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in cells):
        raise ValueError(f"matrix entries must be numbers, got {literal!r}")
    try:
        return tuple(float(v) for v in cells)
    except OverflowError as exc:
        raise ValueError(f"matrix entry out of range in {literal!r}") from exc


def parse_matrix(literal: str) -> Matrix2:
    """Parse an invertible matrix from either form :func:`parse_entries` reads."""
    return Matrix2(*parse_entries(literal))


def _require_invertible(m: Matrix2) -> None:
    if not m.is_invertible():
        raise NonInvertibleMatrix(
            f"matrix ({m.a}, {m.b}; {m.c}, {m.d}) has determinant {m.det} "
            "within tolerance of zero")


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
    _require_invertible(m)
    return Cloud._own(cloud.xs, cloud.ys, m.entries())


def induced_raw(t: Matrix2, s: Scatter) -> Scatter:
    """T S T^T: the scatter of the image of a cloud with scatter S under an
    invertible matrix T, the one quadratic form behind both induced maps.

    Raises:
        ValueError: an entry of T S T^T overflows.
    """
    _require_invertible(t)
    return Scatter(*_congruence(s, *t.entries()))


def _congruence(s: Scatter, a: float, b: float, c: float, d: float) -> tuple:
    image = ((a * d + b * c) * s.mn + b * d * s.hn + a * c * s.d,
             2.0 * c * d * s.mn + d * d * s.hn + c * c * s.d,
             2.0 * a * b * s.mn + b * b * s.hn + a * a * s.d)
    if not all(map(math.isfinite, image)):
        raise ValueError(f"induced map overflows: T S T^T is {image}")
    return image


def induced_coefficients(t: Matrix2, s: Scatter) -> Scatter:
    """Closed-form image of (M, H) under an invertible matrix: the chart
    point of T S T^T, for the chart point of a cloud or any scatter S.
    It has degree 0 in T, so it is computed on T / 2**e, 2**(e-1) <=
    max|entry| < 2**e: exact unless an entry underflows, and no overflow.

    Raises:
        DegenerateImage: the image's D = a^2 D + 2ab M_n + b^2 H_n is at most
            RTOL * ((|a| + |b|)**2 |D| + |2ab M_n| + b^2 |H_n|), a, b of the
            scaled T: D is charged at the row's size, so a = cos(pi/2) is 0.
        ValueError: the induced map overflows.
    """
    _require_invertible(t)
    e = -math.frexp(t.max_abs_entry())[1]
    a, b, c, d = [math.ldexp(v, e) for v in t.entries()]
    mn, hn, dd = _congruence(s, a, b, c, d)
    bound = ((abs(a) + abs(b)) ** 2 * abs(s.d) + abs(2.0 * a * b * s.mn)
             + b * b * abs(s.hn))
    if abs(dd) <= RTOL * bound:
        raise DegenerateImage(
            f"induced-map denominator {dd} is zero within tolerance; the "
            "image cloud has no x-spread"
        )
    return LinearCoefficients(mn / dd, hn / dd)
