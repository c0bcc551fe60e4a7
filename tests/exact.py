"""The exact values of float inputs: the one oracle of the accuracy checks.

A float is a dyadic rational, so every sum, product and quotient of floats
has an exact value, which ``fractions.Fraction`` holds.  Each function below
takes the floats a computation of the package took and returns, as Fractions,
what that computation gives in exact arithmetic; the ``*_ulps`` functions
measure a float result against it.  Floats are scaled by one power of two to
integers first, so that sums and products are integer arithmetic, in Python
integers and Fractions (a large cloud's sums in int64 limbs, see
``_limb_sums``); a Fraction input (an exact value from this module) is taken
as it is.

Each layer has one budget, in ulps, set from its measured worst case over the
tests' own draws (the README states both).  A sum or product is counted in
ulps of its value, except where it cancels; there it is counted in ulps of
its scale, the sum of the magnitudes of its terms (or, for M_n, the
Cauchy-Schwarz bound sqrt(D*H_n)).  A quotient is counted in the ulps its
numerator and denominator carry: n/d in units of (ulp(N) + |n/d| ulp(D)) / |d|
for the scales N of n and D of d.  The units of ``induced_ulps`` and
``kernel_ulps`` are exact, from the bit lengths of the exact scales, so a
scale beyond the float range is counted as well.

* ``MOMENT_ULPS``: the moment pass (``raw_sums``, and ``linear_coefficients``
  of a cloud, a pending image or a written one) against the centered sums of
  its coordinates.
* ``CLOSED_FORM_ULPS``: ``induced_raw`` and ``induced_coefficients`` against
  T S T^T of the same float T and S; the image's D cancels as T turns the
  cloud towards the vertical.
* ``KERNEL_ULPS``: ``kernel_value`` against the kernel of the same float
  generator and (M, H), (M**2 - H) / den**2, of scales M**2 + |H| and
  T = |H b'| + |g'| + |delta M|; den cancels near the kernel's poles.
"""
from __future__ import annotations

import math
from fractions import Fraction

MOMENT_ULPS = 8
CLOSED_FORM_ULPS = 4
KERNEL_ULPS = 4


def _integers(values: list) -> tuple[list[int], int]:
    """(ints, k) with values[i] == ints[i] / 2**k exactly, k >= 0, for finite
    floats: 2**k is the largest denominator of their integer ratios."""
    ratios = [float(v).as_integer_ratio() for v in values]
    den = max(q for _, q in ratios)
    return [p * (den // q) for p, q in ratios], den.bit_length() - 1


def _numbers(values: tuple) -> tuple[list, int]:
    """The values as integers over a common 2**k (see :func:`_integers`) and
    that denominator, or as Fractions over 1 if one of them is a Fraction."""
    if Fraction in map(type, values):
        return list(map(Fraction, values)), 1
    ints, k = _integers(values)
    return ints, 1 << k


def centered_sums(xs, ys) -> tuple[Fraction, Fraction, Fraction]:
    """The scatter (M_n, H_n, D), n times the co-moments, of a cloud with
    float coordinates xs and ys."""
    n = len(xs)
    sums = _limb_sums(xs, ys) if _LARGE <= n < 1 << 19 else None
    if sums is None:
        xs = xs.tolist() if hasattr(xs, "tolist") else list(xs)
        ys = ys.tolist() if hasattr(ys, "tolist") else list(ys)
        ints, k = _integers(xs + ys)
        xi, yi = ints[:n], ints[n:]
        sums = (sum(xi), sum(yi), sum([x * x for x in xi]),
                sum([x * y for x, y in zip(xi, yi)]), sum([y * y for y in yi]), k)
    sx, sy, sxx, sxy, syy, k = sums
    den = 1 << 2 * k
    return (Fraction(n * sxy - sx * sy, den), Fraction(n * syy - sy * sy, den),
            Fraction(n * sxx - sx * sx, den))


# A cloud of _LARGE to 2**19 points whose integers (see _integers) have at
# most _LIMB * _LIMBS bits is summed in _LIMB-bit limbs with numpy's int64
# arithmetic, about 7 times as fast at 10**4 points.  Every step is exact:
# a coordinate times 2**k, and its split into limbs by truncated division by
# 2**_LIMB, are exact in floats (integers below 2**110, each step dropping low
# bits only), and a limb product is below 2**44, so no sum of fewer than
# 2**19 of them reaches 2**63.
_LARGE, _LIMB, _LIMBS = 1 << 12, 22, 5


def _limb_sums(xs, ys):
    """(sum x, sum y, sum x*x, sum x*y, sum y*y, k) of the coordinates times
    2**k as integers, or None if they need more than _LIMBS limbs."""
    import numpy as np

    block = np.array([xs, ys], dtype=float)
    size = np.abs(block[block != 0])
    if not size.size:
        return None
    k = max(53 - math.frexp(size.min())[1], 0)
    count = -(-(math.frexp(size.max())[1] + k) // _LIMB)
    if count > _LIMBS:
        return None
    rest, limbs = np.ldexp(block, k), []
    for _ in range(count):
        high = np.trunc(rest / 2.0 ** _LIMB)
        limbs.append((rest - high * 2.0 ** _LIMB).astype(np.int64))
        rest = high

    def total(row):
        return sum(int(p[row].sum()) << _LIMB * i for i, p in enumerate(limbs))

    def dot(r, s):
        return sum(int(np.dot(p[r], q[s])) << _LIMB * (i + j)
                   for i, p in enumerate(limbs) for j, q in enumerate(limbs))

    return total(0), total(1), dot(0, 0), dot(0, 1), dot(1, 1), k


def _triple(s) -> tuple:
    return (s.mn, s.hn, s.d) if hasattr(s, "mn") else tuple(s)


def scatter(s) -> tuple[Fraction, Fraction, Fraction]:
    """(M_n, H_n, D) of a ``Scatter`` (a chart point has D = 1), or of a
    triple of numbers, as Fractions."""
    return tuple(map(Fraction, _triple(s)))


def chart(s) -> tuple[Fraction, Fraction]:
    """The chart point (M, H) = (M_n/D, H_n/D) of a scatter (see :func:`scatter`)."""
    mn, hn, d = scatter(s)
    return mn / d, hn / d


def product(p, q) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """The entries of the matrix product p q (q applied first) of two
    ``Matrix2`` values (or four entries each)."""
    a, b, c, d = map(Fraction, p.entries() if hasattr(p, "entries") else p)
    e, f, g, h = map(Fraction, q.entries() if hasattr(q, "entries") else q)
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _image(t, s) -> tuple[tuple, tuple, int]:
    """(T S T^T, its bound, u**3): both as (M_n, H_n, D) over the common
    denominator u**3 (u = 1 for Fraction inputs).  The bound of an entry is
    the sum of the magnitudes of its terms, the scale its rounding is
    counted against."""
    (a, b, c, d, mn, hn, dd), u = _numbers(
        (t.entries() if hasattr(t, "entries") else tuple(t)) + _triple(s))
    m1, m2, m3 = (a * d + b * c) * mn, b * d * hn, a * c * dd
    h1, h2, h3 = 2 * c * d * mn, d * d * hn, c * c * dd
    d1, d2, d3 = 2 * a * b * mn, b * b * hn, a * a * dd
    return ((m1 + m2 + m3, h1 + h2 + h3, d1 + d2 + d3),
            (abs(m1) + abs(m2) + abs(m3), abs(h1) + abs(h2) + abs(h3),
             abs(d1) + abs(d2) + abs(d3)), u * u * u)


def congruence(t, s) -> tuple[Fraction, Fraction, Fraction]:
    """T S T^T as (M_n, H_n, D), for a ``Matrix2`` (or four entries) T and a
    scatter S (see :func:`scatter`)."""
    value, _, den = _image(t, s)
    return tuple(Fraction(v, den) for v in value)


def _kernel(fg, m, h) -> tuple:
    """(numerator, its scale, den, T) of the kernel, and u: the numerator
    and its scale M**2 + |H| times u**4, den and its scale T times u**2."""
    (b, g, dl, m, h), u = _numbers((fg.bprime, fg.gprime, fg.delta, m, h))
    u2 = u * u
    return ((m * m - h * u) * u2, (m * m + abs(h) * u) * u2,
            h * b - g * u + dl * m, abs(h * b) + abs(g * u) + abs(dl * m), u)


def kernel(fg, m, h) -> Fraction:
    """The kernel K = (M^2 - H) / (H*b' - g' + delta*M)^2 of a
    ``FamilyGenerator`` at (m, h); ZeroDivisionError where its denominator
    is 0."""
    num, _, den, _, _ = _kernel(fg, m, h)
    return Fraction(num, den * den)


def _gap(got: float, p, q) -> float:
    """|got - p/q| for q != 0, rounded once (no gcd is taken)."""
    a, b = float(got).as_integer_ratio()
    return float(abs(a * q - p * b) / abs(b * q))


def pencil_gap(got: float, a: float, phi: float, b: float) -> float:
    """|got - (a + phi*b)| for floats, rounded once."""
    (p, q), (a1, a2), (b1, b2) = map(float.as_integer_ratio, (phi, a, b))
    return _gap(got, a1 * q * b2 + p * b1 * a2, a2 * q * b2)


def _in_units(gap: float, *errors: float) -> float:
    """gap over the sum of the errors a result carries, never less than the
    ulp of the smallest subnormal, the resolution of the format itself."""
    return gap / max(sum(errors), math.ulp(0.0))


def ulps(got: float, exact, scale=None) -> float:
    """|got - exact| in units in the last place of ``scale`` (default: of
    exact itself); a scale of 0 has a subnormal's ulp."""
    exact = Fraction(exact)
    size = abs(exact if scale is None else scale)
    return _gap(got, exact.numerator, exact.denominator) / math.ulp(float(size))


def scatter_ulps(got, exact) -> float:
    """The worst error of a scatter against the exact (M_n, H_n, D): M_n in
    ulps of sqrt(D*H_n), H_n and D in their own."""
    mn, hn, d = scatter(exact)
    return max(ulps(got.mn, mn, math.sqrt(d) * math.sqrt(hn)), ulps(got.hn, hn),
               ulps(got.d, d))


def chart_ulps(got, exact) -> float:
    """The worst error of a chart point against the chart (M, H) of the exact
    scatter ``exact`` (see :func:`scatter`), each quotient counted in the
    ulps its numerator and D carry (see :func:`scatter_ulps`): M in
    (ulp(sqrt(D*H_n)) + |M| ulp(D)) / D, H in (ulp(H_n) + H ulp(D)) / D."""
    mn, hn, d = scatter(exact)
    fd, fh = float(d), float(hn) / float(d)
    u_d = math.ulp(fd)
    return max(
        _in_units(_gap(got.m, mn.numerator * d.denominator, mn.denominator * d.numerator),
                  math.ulp(math.sqrt(fd) * math.sqrt(float(hn))) / fd,
                  abs(float(mn)) / fd * u_d / fd),
        _in_units(_gap(got.h, hn.numerator * d.denominator, hn.denominator * d.numerator),
                  math.ulp(float(hn)) / fd, fh * u_d / fd))


def induced_raw_ulps(got, t, s) -> float:
    """The error of ``induced_raw(t, s)`` against the exact T S T^T, each
    entry in ulps of its bound (see :func:`_image`)."""
    value, size, den = _image(t, s)
    return max(_gap(g, v, den) / math.ulp(b / den)
               for g, v, b in zip((got.mn, got.hn, got.d), value, size))


def _ulp_exp(p: int, q: int) -> int:
    """x with 2**x the ulp of a float of magnitude p/q, for an integer
    p >= 0 and a power of two q, p/q beyond the float range too: e - 52 for
    2**e <= p/q < 2**(e + 1), at least -1074."""
    return max(p.bit_length() - q.bit_length() - 52, -1074) if p else -1074


def _in_exact_units(got: float, num: int, q: int, w: int, *terms: tuple) -> float:
    """|got - num/q| in units of the error a result carries, sum(c * 2**x
    for (c, x) in terms) / w for integers c >= 0, x >= -1074 and w > 0, or
    of 2**-1074, the resolution of the format itself, if that is larger."""
    g1, g2 = float(got).as_integer_ratio()
    unit = max(sum(c << x + 1074 for c, x in terms), w)  # over w * 2**-1074
    return (abs(g1 * q - num * g2) * w << 1074) / (g2 * abs(q) * unit)


def induced_ulps(got, t, s) -> float:
    """The error of ``induced_coefficients(t, s)`` against the chart of the
    exact T S T^T.  Each quotient is counted in the ulps its numerator and D
    carry, each an ulp of its bound (see :func:`_image` and :func:`_ulp_exp`):
    M in (ulp(B_mn) + |M| ulp(B_d)) / |D| and H in (ulp(B_hn) + |H| ulp(B_d)) / |D|."""
    (mn, hn, d), (b_mn, b_hn, b_d), den = _image(t, s)
    x_d = _ulp_exp(b_d, den)
    return max(_in_exact_units(g, v, d, d * d, (abs(d) * den, _ulp_exp(b, den)),
                               (abs(v) * den, x_d))
               for g, v, b in ((got.m, mn, b_mn), (got.h, hn, b_hn)))


def kernel_ulps(got: float, fg, m, h) -> float:
    """The error of a kernel value against the exact kernel of fg at (m, h),
    counted in the ulps its numerator and denominator carry, each an ulp of
    its scale (see :func:`_ulp_exp`): ulp(M^2 + |H|) / den^2 + 2 |K| ulp(T) / |den|."""
    num, size, den, t, u = _kernel(fg, m, h)
    u2 = u * u
    return _in_exact_units(got, num, den * den, abs(den) ** 3,
                           (u2 * u2 * abs(den), _ulp_exp(size, u2 * u2)),
                           (2 * abs(num) * u2, _ulp_exp(t, u2)))
