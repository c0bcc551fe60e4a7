"""The exact values of float inputs: the one oracle of the accuracy checks.

A float is a dyadic rational, so every sum, product and quotient of floats
has an exact value, which ``fractions.Fraction`` holds.  Each function below
takes the floats a computation of the package took and returns, as Fractions,
what that computation gives in exact arithmetic.  Floats are scaled by one
power of two to integers first, so that sums and products are integer
arithmetic, in Python integers and Fractions (a large cloud's sums in int64
limbs, see ``_limb_sums``); a Fraction input (an exact value from this module)
is taken as it is.

The closed forms (``induced_raw``, ``induced_coefficients``, ``kernel_value``
and the CLI's H/M^2) round their exact value once, so each must equal
``float()`` of its exact value here, which is correctly rounded (Fraction's
``float()`` is ``int / int``): see :func:`induced`.  The moment pass sums
floats, so it has a budget in ulps, set from its measured worst case over the
tests' own draws (the README states both), and the ``*_ulps`` functions
measure it.  A sum that cancels is counted in ulps of its scale: M_n in ulps
of the Cauchy-Schwarz bound sqrt(D*H_n).  A quotient is counted in the ulps
its numerator and denominator carry: n/d in units of
(ulp(N) + |n/d| ulp(D)) / |d| for the scales N of n and D of d.

* ``MOMENT_ULPS``: the moment pass (``raw_sums``, and ``linear_coefficients``
  of a cloud, a pending image or a written one) against the centered sums of
  its coordinates.
"""
from __future__ import annotations

import math
from fractions import Fraction

MOMENT_ULPS = 8


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


def congruence(t, s) -> tuple[Fraction, Fraction, Fraction]:
    """T S T^T as (M_n, H_n, D), for a ``Matrix2`` (or four entries) T and a
    scatter S (see :func:`scatter`)."""
    (a, b, c, d, mn, hn, dd), u = _numbers(
        (t.entries() if hasattr(t, "entries") else tuple(t)) + _triple(s))
    image = ((a * d + b * c) * mn + b * d * hn + a * c * dd,
             2 * c * d * mn + d * d * hn + c * c * dd,
             2 * a * b * mn + b * b * hn + a * a * dd)
    return tuple(Fraction(v, u * u * u) for v in image)


def induced(t, s) -> tuple[float, float]:
    """The chart point (M, H) of T S T^T, each rounded once to the nearest
    float: what ``induced_coefficients(t, s)`` must return."""
    return tuple(map(float, chart(congruence(t, s))))


def _kernel(fg, m, h) -> tuple:
    """(numerator, den, T): the kernel's numerator M**2 - H times u**4, its
    denominator H*b' - g' + delta*M and that denominator's bound
    T = |H b'| + |g'| + |delta M|, both times u**2."""
    (b, g, dl, m, h), u = _numbers((fg.bprime, fg.gprime, fg.delta, m, h))
    return ((m * m - h * u) * u * u, h * b - g * u + dl * m,
            abs(h * b) + abs(g * u) + abs(dl * m))


def kernel(fg, m, h) -> Fraction:
    """The kernel K = (M^2 - H) / (H*b' - g' + delta*M)^2 of a
    ``FamilyGenerator`` at (m, h); ZeroDivisionError where its denominator
    is 0."""
    num, den, _ = _kernel(fg, m, h)
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
