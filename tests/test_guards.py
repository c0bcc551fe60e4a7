"""Every guard's two sides, in one table: ``GUARDS`` has a row for each
function that calls ``coefficients._near_zero(size, bound)`` (test_imports.py
requires exactly these).  A row builds inputs whose size is ratio * RTOL *
bound at each of its own scales, returns that ratio computed exactly, and
names the call's outcome on each side: a refusal (an exception and a fragment
of its message) or the value it returns.  Every guard hands the rule two
exact integers, so each side is decided in one arithmetic."""
import math
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np
import pytest

from cloudinv import (Cloud, DegenerateGenerator, DegenerateImage,
                      FamilyGenerator, KernelSingular, LinearCoefficients,
                      LinearFamily, Matrix2,
                      NoIdentityParameter, NonInvertibleMatrix, Scatter,
                      generator_for_matrix, induced_coefficients, is_collinear,
                      kernel_value, linear_coefficients, raw_sums)
from cloudinv import coefficients, families, transform
from cloudinv.coefficients import RTOL, _near_zero
from exact import _kernel, centered_sums, congruence, induced

R = Fraction(RTOL)


class Guard(NamedTuple):
    scales: list  # the row's cases, each handed to build
    build: Callable  # (scale, Fraction ratio) -> (size / (RTOL * bound), exactly; the call)
    near: object  # the call's outcome where size <= RTOL * bound, and
    clear: object  # where not: (exception, message fragment), or the value returned


def _matrix2(s, ratio):
    # |det| of the entries over max|entry| = s, against 1.
    d = float(ratio * R * Fraction(s))
    return (Fraction(d) / Fraction(s) / R,
            lambda: Matrix2(s, 0.0, 0.0, d).entries() == (s, 0.0, 0.0, d))


def _induced(case, ratio):
    # M_n is set so that the image's D = a^2 D + 2ab M_n + b^2 H_n under
    # (a b; 0 1) is ratio * RTOL times (|a| + |b|)^2 |D| + |2ab M_n| + b^2 |H_n|.
    a, b, d, hn = map(Fraction, case)
    bound = lambda mn: (abs(a) + abs(b)) ** 2 * abs(d) + abs(2 * a * b * mn) + b * b * abs(hn)
    mn = -(a * a * d + b * b * hn) / (2 * a * b)  # the image's D is 0
    mn = Fraction(float(mn + ratio * R * bound(mn) / (2 * a * b)))
    t, s = Matrix2(float(a), float(b), 0.0, 1.0), Scatter(float(mn), float(hn), float(d))
    return (abs(congruence(t, s)[2]) / bound(mn) / R,
            lambda: induced_coefficients(t, s) == LinearCoefficients(*induced(t, s)))


def _identity(dominant, ratio):
    # A12 = -2X + 2X*phi gives phi = 1 exactly.  A11 = a + phi*b with
    # phi*b = -X (a = 1 + X + r, |a0| the largest term) or +X (a = 1 - X + r,
    # |phi*b| the largest): a + phi*b - 1 = r, exactly, is the one entry off
    # the identity, against |a| + |phi*b| + 1.
    x, sign = Fraction(2 ** 30), 1 if dominant == "a0" else -1
    a = float(1 + sign * x + ratio * R * (2 * x + 2))
    fam = LinearFamily((a, float(-2 * x), 0.0, 1.0), (float(-sign * x), float(2 * x), 0.0, 0.0))
    return ((Fraction(a) - sign * x - 1) / (abs(Fraction(a)) + x + 1) / R,
            lambda: fam.identity_parameter() == 1.0)


def _kernel_value(cancelling, ratio):
    # Two of the denominator's terms h*b', -g' and delta*M, 1 and -v, cancel,
    # and the third is 0: each term is a dominant one in two of the cases.
    v = float(1 - 2 * ratio * R)
    spec, m, h = {"h*b', g'": (FamilyGenerator(1.0, v, 0.0), 0.5, 1.0),
                  "g', delta*M": (FamilyGenerator(0.0, 1.0, 1.0), v, 0.5),
                  "h*b', delta*M": (FamilyGenerator(1.0, 0.0, 1.0), -v, 1.0)}[cancelling]
    _, den, bound = _kernel(spec, m, h)
    return abs(den) / bound / R, lambda: math.isfinite(kernel_value(spec, m, h))


def _generator(case, ratio):
    # The largest of b, c and a - d is ratio * RTOL times max|entry| = scale,
    # and the other two are half and a quarter of it.
    scale, largest = case
    size = float(ratio * R * Fraction(scale))
    names = [largest, *[t for t in ("b", "c", "a - d") if t != largest]]
    terms = dict(zip(names, [size, size / 2, size / 4]))
    a, b, c, d = scale, terms["b"], terms["c"], scale - terms["a - d"]
    sizes = {"b": abs(Fraction(b)), "c": abs(Fraction(c)), "a - d": Fraction(a) - Fraction(d)}
    assert max(sizes.values()) == sizes[largest]
    return (sizes[largest] / Fraction(scale) / R, lambda: generator_for_matrix(
        Matrix2(a, b, c, d)) == FamilyGenerator(b, c, a - d))


def _collinear(offset, ratio):
    # y = 0.5x + t*w on 1000 points has det S = t**2 times the scatter
    # determinant of (x, w): t is scaled until det S / (D*H_n), the guard's
    # size over its bound, is ratio * RTOL for the float coordinates.
    xs = offset + np.linspace(-1.0, 1.0, 1000)
    w = np.random.default_rng(20240824).standard_normal(1000)
    t = 1e-6
    for _ in range(3):
        ys = 0.5 * xs + t * w
        mn, hn, d = centered_sums(xs, ys)
        gap = 1 - mn * mn / (d * hn)
        t *= math.sqrt(ratio * R / gap)
    return gap / R, lambda: is_collinear(Cloud.from_arrays(xs, ys))


def _raw_sums(axis, ratio):
    # (1, 1), (2, 3), (4, 2) times s, the axis under test given the gaps
    # (1, 3, 2): n * 2**-1075, the rounding of n subnormal squares, is ratio *
    # RTOL * 2**-13 times its centered sum of squares 2 s**2 (the other's is
    # 14/3 s**2).  Kept, (M, H) carries that rounding: the guard promises
    # RTOL only.
    s = math.ldexp(math.sqrt(Fraction(3, 2 ** 1063) / (ratio * R) * 2 ** 1100), -550)
    xs, ys = s * np.array([(1.0, 1.0), (2.0, 3.0), (4.0, 2.0)]).T[::1 if axis == "y" else -1]
    mn, hn, d = centered_sums(xs, ys)

    def accurate():
        lc = linear_coefficients(Cloud.from_arrays(xs, ys))
        return all(abs(Fraction(got) / want - 1) <= RTOL
                   for got, want in ((lc.m, mn / d), (lc.h, hn / d)))

    return Fraction(9, 2 ** 1062) / min(hn, d) / R, accurate


GUARDS = {
    Matrix2.__init__: Guard([1e-200, 2.0 ** -60, 1e-5, 0.5, 1.0, 3.0, 1e150, 1e200],
                            _matrix2, (NonInvertibleMatrix, "within tolerance of zero"), True),
    # a = b with H_n = 0: (|a| + |b|)**2 D is the bound's largest term; with
    # H_n = 7 D, |2ab M_n| is; b = a/4 with H_n = -32 D: b**2 |H_n| is.
    induced_coefficients: Guard([(0.5, 0.5, 1, 0), (0.5, 0.5, 1, 7), (1, 0.25, 1, -32)],
                                _induced, (DegenerateImage, "no x-spread"), True),
    LinearFamily.identity_parameter: Guard(["a0", "phi*b"], _identity, True,
                                           (NoIdentityParameter, "no phi makes")),
    kernel_value: Guard(["h*b', g'", "g', delta*M", "h*b', delta*M"], _kernel_value,
                        (KernelSingular, "zero within tolerance"), True),
    generator_for_matrix: Guard([(s, t) for s in (2.0 ** -600, 1.0, 2.0 ** 600)
                                 for t in ("b", "c", "a - d")],
                                _generator, (DegenerateGenerator, "uniform scaling"), True),
    is_collinear: Guard([0.0, 1e4], _collinear, True, False),
    raw_sums: Guard(["x", "y"], _raw_sums, True, (ValueError, "cloud spread too small")),
}


@pytest.mark.parametrize("ratio", [0.5, 2.0])
@pytest.mark.parametrize("guard,scale", [
    pytest.param(guard, scale, id=f"{guard.__qualname__}-{scale}")
    for guard, row in GUARDS.items() for scale in row.scales])
def test_guard_on_both_sides(monkeypatch, guard, scale, ratio):
    # Each binding of the rule is spied on: every call gets two ints.
    calls = []
    for module in (coefficients, transform, families):
        monkeypatch.setattr(module, "_near_zero", lambda size, bound: calls.append(
            (type(size), type(bound))) or _near_zero(size, bound))
    row = GUARDS[guard]
    exact, call = row.build(scale, Fraction(ratio))
    assert abs(exact / ratio - 1) < 1e-3
    want = row.near if ratio < 1 else row.clear
    if isinstance(want, tuple):
        with pytest.raises(want[0], match=want[1]):
            call()
    else:
        assert call() is want
    assert calls and set(calls) == {(int, int)}


def test_the_threshold_itself_counts_as_zero():
    # size == RTOL * bound exactly: the generator's b against max|entry| = 1,
    # and the det.
    with pytest.raises(DegenerateGenerator, match="uniform scaling"):
        generator_for_matrix(Matrix2(1.0, RTOL, 0.0, 1.0))
    with pytest.raises(NonInvertibleMatrix, match="determinant 1e-12 within"):
        Matrix2(1.0, 0.0, 0.0, RTOL)
