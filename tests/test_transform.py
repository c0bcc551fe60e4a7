import functools
import gc
import io
import json
import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cloudinv import (Cloud, CloudInvError, DegenerateImage, LinearCoefficients,
                      Matrix2, NonInvertibleMatrix, RotationFamily, Scatter,
                      apply_to_cloud, induced_coefficients, induced_raw,
                      linear_coefficients, parse_matrix, raw_sums,
                      write_cloud_csv)
from cloudinv.coefficients import _CHUNK, _QUOTE, _parse_floats
from cloudinv.transform import parse_entries
from conftest import (BUILDS, REF_H, REF_M, build_cloud, matmul, not_a_number,
                      random_cloud, random_invertible, traced_peak)
from exact import (CLOSED_FORM_ULPS, chart, congruence, induced_raw_ulps,
                   induced_ulps, product)

REF = LinearCoefficients(REF_M, REF_H)


class TestMatrix2:
    def test_invertibility_of_huge_entries_does_not_overflow(self):
        # max|entry|**2 and the determinant itself overflow here.
        Matrix2(1e308, 1e308, -1e308, 1e308)
        with pytest.raises(NonInvertibleMatrix):
            Matrix2(1e308, 1e308, 1e308, 1e308)

    def test_induced_map_overflow_is_value_error(self):
        # induced_raw maps by T as given; induced_coefficients by T / 2**e,
        # whose image still overflows at H = 1.7e308.
        for induced, t, lc in (
                (induced_raw, (1e308, 1e308, -1e308, 1e308), (1.5, 3.5)),
                (induced_coefficients, (1e300, 1e300, 0, 1e300), (1e308, 1.7e308))):
            with pytest.raises(ValueError, match="induced map overflows"):
                induced(Matrix2(*t), LinearCoefficients(*lc))


def _written(value: object) -> str:
    """A value as text: as JSON writes it, else its repr; an int in decimal
    digits, however many."""
    if type(value) is int:
        return format(Decimal(value), "f")
    try:
        return json.dumps(value)
    except (TypeError, ValueError):
        return repr(value)


class TestParseMatrix:
    @pytest.mark.parametrize("bad", ["1,2;3", "1;2;3", "[[1,2]]", "a,b;c,d",
                                     "1,2", "1,2;3,4;5,6", "1,2;3,4;", "1,2;3,nan",
                                     "[[1 2,3],[4,5]]", "[[1,2],[3]]", "[[1,[2]],[2,3]]",
                                     "[[1,2]],[[3,4]]", "[1,2],[3,4]", "[[1,2],[3,4]",
                                     "[[1,2],[3,4]]]", "[[1,2][3,4]]", "[[[1,2],[3,4]]]",
                                     "[[{},1],[2,3]]", '[[1,2],["3",4]]', "[[1,2],[3,true]]",
                                     f"[[1{'0' * 400},0],[0,1]]", "1e309,1;-1,1",
                                     "[[1,1],[-1,1e309]]"])
    def test_bad_literals(self, bad):
        with pytest.raises(ValueError):
            parse_matrix(bad)

    @pytest.mark.parametrize("literal,message", [
        ("1,2;3,x", "expected 'a,b;c,d', got '1,2;3,x': '3,x'"),
        ("[[null,1],[2,3]]", "expected [[a,b],[c,d]], got '[[null,1],[2,3]]': 'null,1'")])
    def test_bad_row_is_named(self, literal, message):
        with pytest.raises(ValueError) as info:
            parse_matrix(literal)
        assert str(info.value) == f"{message} is not a list of 2 finite numbers"

    def test_bracketed_rows_take_what_the_row_form_takes(self):
        # -0 is -0.0, and float's spellings that JSON lacks are numbers.
        got = parse_entries("[[-0,.5],[+1,1_0]]")
        assert got == parse_entries("-0,.5;+1,1_0") == (0.0, 0.5, 1.0, 10.0)
        assert math.copysign(1.0, got[0]) == -1.0

    def test_nesting_depth_is_fixed_by_the_grammar(self):
        with pytest.raises(ValueError, match=r"^expected \[\[a,b\],\[c,d\]\]"):
            parse_entries("[" * 20_000 + "]" * 20_000)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 4),
           st.sampled_from([None, 0, 2]), st.sampled_from([(",", ":"), (", ", ": ")]))
    def test_bracketed_form_reads_what_json_writes(self, entries, indent, separators):
        a, b, c, d = entries
        text = json.dumps([[a, b], [c, d]], indent=indent, separators=separators)
        want = [*map(float.hex, entries)]  # bit for bit, signs of zero included
        assert [*map(float.hex, parse_entries(text))] == want
        assert [*map(float.hex, parse_entries(f"{a!r},{b!r};{c!r},{d!r}"))] == want

    @settings(max_examples=300, deadline=None)
    @given(not_a_number)
    def test_bracketed_literal_refuses_what_is_not_a_finite_number(self, value):
        literal = f"[[1,0],[{_written(value)},1]]"
        with pytest.raises(ValueError) as info:
            parse_entries(literal)
        assert str(info.value).startswith(
            f"expected [[a,b],[c,d]], got {_QUOTE.repr(literal)}: ")


class TestParseFloats:
    """The one rule for a comma-separated list of numbers from outside."""

    @pytest.mark.parametrize("text,want", [
        ("1,2", [1.0, 2.0]),
        (" 1 , -2.5e3\t", [1.0, -2500.0]),
        ("7", [7.0]),
        ("-0.0,5e-324,1.7976931348623157e308", [-0.0, 5e-324, 1.7976931348623157e308]),
    ])
    def test_accepted(self, text, want):
        got = _parse_floats(text)
        assert got == want
        assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]

    @pytest.mark.parametrize("text", ["", " ", ",", "1,,2", "1,", ",1", "x", "1,x",
                                      "inf", "-inf", "nan", "1,nan", "0.5,nan", "nan,1",
                                      "1e309", "-1e309"])
    def test_refused_with_the_text_named(self, text):
        with pytest.raises(ValueError) as info:
            _parse_floats(text)
        assert str(info.value) == f"{text!r} is not a list of finite numbers"

    @pytest.mark.parametrize("text", ["1", "1,2,3"])
    def test_count_fixes_the_length(self, text):
        assert _parse_floats("1,2", 2) == [1.0, 2.0]
        with pytest.raises(ValueError) as info:
            _parse_floats(text, 2, "line 3: ")
        assert str(info.value) == f"line 3: {text!r} is not a list of 2 finite numbers"


class TestApplyToCloudChunked:
    """The image is written and reduced chunk by chunk in one pass."""

    @pytest.mark.parametrize("n", [2, 3 * _CHUNK + 5])
    def test_overflowing_image_rejected(self, rng, n):
        xs = rng.random(n)
        xs[-1] = 1e300
        with pytest.raises(ValueError, match="must all be finite"):
            apply_to_cloud(Matrix2(1e10, 0.0, 0.0, 1.0),
                           Cloud.from_arrays(xs, rng.random(n)))

    @pytest.mark.parametrize("n", [2, 3 * _CHUNK + 5])
    def test_finite_image_with_overflowing_sums_accepted(self, rng, n):
        # Its moments are not finite, so the image is written to be checked.
        xs = 1e200 * (1.0 + rng.random(n) / 2)
        ys = rng.random(n)
        image = apply_to_cloud(Matrix2(1.0, 0.5, 0.0, 1.0),
                               Cloud.from_arrays(xs, ys))
        assert image.xs.tobytes() == (1.0 * xs + 0.5 * ys).tobytes()
        assert image.ys.tobytes() == (0.0 * xs + 1.0 * ys).tobytes()


class TestPendingImage:
    """The image is reduced without being written; its coordinates are
    written once, when first read, with the same arithmetic."""

    M = Matrix2(0.4, -0.4, -0.05, 0.9)

    @staticmethod
    def image_arrays(m, xs, ys):
        return m.a * xs + m.b * ys, m.c * xs + m.d * ys

    @staticmethod
    @functools.cache
    def source_of(how, n):
        # A cloud is read-only, so the images under each matrix share it.
        rng = np.random.default_rng(n)
        return build_cloud(how, 1e6 + rng.standard_normal(n), rng.standard_normal(n))

    @pytest.fixture
    def source(self, rng):
        n = 3 * _CHUNK + 5
        return Cloud.from_arrays(1e6 + rng.standard_normal(n),
                                 rng.standard_normal(n))

    @pytest.mark.parametrize("query,want", [(len, 3 * _CHUNK + 5),
                                            (repr, f"Cloud(n={3 * _CHUNK + 5})")])
    def test_a_query_does_not_write_the_image(self, source, query, want):
        image = apply_to_cloud(self.M, source)
        assert traced_peak(lambda: query(image)) < 64 * 1024
        assert query(image) == query(source) == want

    @pytest.mark.parametrize("n", [2, 3 * _CHUNK + 5])
    @pytest.mark.parametrize("m", [M, Matrix2(1, 0, 0, 1), Matrix2(1, 0, 0, 2),
                                   RotationFamily().evaluate(math.pi / 2)],
                             ids=["general", "identity", "diagonal", "quarter-turn"])
    @pytest.mark.parametrize("how", BUILDS)
    def test_first_read_writes_the_image_once(self, how, m, n):
        source = self.source_of(how, n)
        image = apply_to_cloud(m, source)
        xs, ys = image.xs, image.ys
        want_x, want_y = self.image_arrays(m, source.xs, source.ys)
        assert xs.tobytes() == want_x.tobytes()
        assert ys.tobytes() == want_y.tobytes()
        assert not (xs.flags.writeable or ys.flags.writeable)
        assert image.xs is xs and image.ys is ys

    def test_points_iteration_and_csv_match_an_eager_image(self, rng):
        source = Cloud.from_arrays(rng.random(50), rng.random(50))
        eager = Cloud.from_arrays(*self.image_arrays(self.M, source.xs,
                                                     source.ys))
        # Either coordinate, read first, writes the whole pending image.
        assert apply_to_cloud(self.M, source).xs.tolist() == eager.xs.tolist()
        assert apply_to_cloud(self.M, source).ys.tolist() == eager.ys.tolist()
        got, want = io.StringIO(), io.StringIO()
        write_cloud_csv(apply_to_cloud(self.M, source), got)
        write_cloud_csv(eager, want)
        assert got.getvalue() == want.getvalue()

    def test_chained_image_equals_sequential_application(self, source):
        second = Matrix2(1.0, 0.7, 0.0, 1.0)
        chained = apply_to_cloud(second, apply_to_cloud(self.M, source))
        want = Cloud.from_arrays(*self.image_arrays(
            second, *self.image_arrays(self.M, source.xs, source.ys)))
        assert chained._moments == want._moments
        assert chained.xs.tobytes() == want.xs.tobytes()
        assert chained.ys.tobytes() == want.ys.tobytes()

    def test_image_outlives_its_source(self, rng):
        n = 3 * _CHUNK + 5
        xs, ys = rng.random(n), rng.random(n)
        source = Cloud.from_arrays(xs, ys)
        image = apply_to_cloud(self.M, source)
        del source
        gc.collect()
        want_x, want_y = self.image_arrays(self.M, xs, ys)
        assert image.xs.tobytes() == want_x.tobytes()
        assert image.ys.tobytes() == want_y.tobytes()

    @pytest.mark.parametrize("n", [2, _CHUNK, 3 * _CHUNK + 5])
    @pytest.mark.parametrize("how", BUILDS)
    def test_cached_moments_equal_those_of_the_written_image(self, rng, how, n):
        image = apply_to_cloud(self.M, build_cloud(
            how, 1e6 + rng.standard_normal(n), rng.standard_normal(n)))
        pending = image._moments
        assert pending == Cloud.from_arrays(image.xs, image.ys)._moments
        assert image._moments == pending


class TestCongruenceOracle:
    """Both induced maps against T S T^T for S = [[D, Mn], [Mn, Hn]], as sympy
    derives it from symbols, evaluated exactly on the same float inputs: it
    is the exact oracle's congruence, and each map is within the closed-form
    budget of it."""

    @pytest.fixture(scope="class")
    def oracle(self):
        sympy = pytest.importorskip("sympy")
        a, b, c, d, mn, hn, dx = sympy.symbols("a b c d mn hn dx", real=True)
        image = (sympy.Matrix([[a, b], [c, d]]) * sympy.Matrix([[dx, mn], [mn, hn]])
                 * sympy.Matrix([[a, c], [b, d]]))
        form = sympy.lambdify((a, b, c, d, mn, hn, dx),
                              (image[0, 1], image[1, 1], image[0, 0]), modules=[])

        def derived(t, s):
            return form(*map(Fraction, (*t.entries(), s.mn, s.hn, s.d)))
        return derived

    @pytest.mark.parametrize("t,s", [
        (None, None), (Matrix2(1, 0, 0, 1), Scatter(0.3, 2.0, 6.0)),
        (Matrix2(1, 0, 0, 2), Scatter(0.5, 2.0, 6.0)),
        (Matrix2(1, 0.7, 0, 1), Scatter(0.0, 2.0, 6.0))],
        ids=["random", "identity", "diagonal", "shear"])
    def test_raw_sums(self, rng, oracle, t, s):
        draws = [(t, s)] if t is not None else [
            (random_invertible(rng), raw_sums(random_cloud(rng))) for _ in range(300)]
        for t, rs in draws:
            assert oracle(t, rs) == congruence(t, rs)
            assert induced_raw_ulps(induced_raw(t, rs), t, rs) <= CLOSED_FORM_ULPS


class TestInducedCoefficients:
    def test_identity(self):
        out = induced_coefficients(Matrix2(1, 0, 0, 1), REF)
        assert (out.m, out.h) == (REF.m, REF.h)

    def test_closed_form_and_direct_fail_together(self):
        horizontal = Cloud([(0.0, 2.0), (1.0, 2.0), (2.0, 2.0)])
        quarter = RotationFamily().evaluate(math.pi / 2)
        with pytest.raises(DegenerateImage):
            induced_coefficients(quarter, linear_coefficients(horizontal))
        from cloudinv import DegenerateCloud
        with pytest.raises(DegenerateCloud):
            linear_coefficients(apply_to_cloud(quarter, horizontal))

    @pytest.mark.parametrize("lc", [LinearCoefficients(0.0, 1e12),
                                    LinearCoefficients(1e7, 1e14 + 1)])
    @pytest.mark.parametrize("matrix", [Matrix2(1, 0, 0, 1),
                                        Matrix2(3.0, 0.0, 0.0, 0.25),
                                        Matrix2(1.0, 0.0, 5.0, 2.0)])
    def test_large_h_maps_when_b_is_zero(self, lc, matrix):
        # With b = 0 the image's D is a**2 D, with nothing cancelled, however
        # large H is.
        got = induced_coefficients(matrix, lc)
        assert induced_ulps(got, matrix, lc) <= CLOSED_FORM_ULPS

    @pytest.mark.parametrize("t,lc", [
        (Matrix2(1e200, 1.0, 0.0, 1e200), REF), (Matrix2(1.0, 1e-200, 0.0, 1.0), REF),
        (Matrix2(1e308, 1e308, -1e308, 1e308), REF),
        (Matrix2(2.0 ** 100, 2.0 ** -1000, 0.0, 2.0 ** 100), LinearCoefficients(0.0, 1e292)),
        *[(Matrix2(1, 2.2250738585e-313, 0, 3), LinearCoefficients(0.0, h)) for h in (100, 1e5, 1e306)],
        (Matrix2(3, 2.2250738585e-313, 0, 2.0 ** -30), Scatter(1e6, 1.0, 2.0 ** -1018)),
        (Matrix2(1, 2.2250738585e-313, 1, 3), Scatter(1.0, 1.0, 2.0))])
    def test_huge_entries_do_not_overflow(self, t, lc):
        # The image is that of the matrix divided by a power of two, so no
        # product overflows, up to entries of 1e308.  The 2**100 T / 2**101
        # would flush b to 0, so T is divided by 2**74, the largest power
        # that keeps b exact: a smaller one overflows at H = 1e292.  The
        # subnormal b of the next three meets H_n before d does: b*d rounded
        # first put the image 40 000 ulps off at H = 1e5.  In the last two,
        # every term of (T S) T^T moves the image past the budget.
        assert induced_ulps(induced_coefficients(t, lc), t, lc) <= CLOSED_FORM_ULPS

    def test_an_exact_scaling_that_overflows_gives_way(self):
        # T / 4 rounds b, and T itself overflows at H = 1e308, so the image
        # is that of T / 4 after all, its rounded b included.
        t = Matrix2(3.0, 2.2250738585e-313, 0.0, 3.0)
        lc = LinearCoefficients(0.0, 1e308)
        quarter = Matrix2(*[v / 4 for v in t.entries()])
        assert induced_coefficients(t, lc) == induced_coefficients(quarter, lc)

    @pytest.mark.parametrize("level", [linear_coefficients, raw_sums],
                             ids=["chart-point", "raw-sums"])
    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_raw_sums_give_the_chart_points_image(self, rng, offset, level):
        # T S T^T of the raw sums and of the chart point (D = 1) have the same
        # quotients; only the rounding of the terms differs.
        for _ in range(300):
            t, s = random_invertible(rng), level(random_cloud(rng, offset=offset))
            assert induced_ulps(induced_coefficients(t, s), t, s) <= CLOSED_FORM_ULPS

    def test_scatter_of_a_vertical_line(self):
        # D = 0 has no chart point, but its image under a shear does: x = y.
        vertical = raw_sums(Cloud([(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]))
        out = induced_coefficients(Matrix2(1, 1, 0, 1), vertical)
        assert (out.m, out.h) == (1.0, 1.0)
        with pytest.raises(DegenerateImage):
            induced_coefficients(Matrix2(1, 0, 0, 2), vertical)

entry = st.floats(min_value=-3.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False)
coeff_m = st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False)
kappa_s = st.floats(min_value=-10.0, max_value=10.0,
                    allow_nan=False, allow_infinity=False).filter(
                        lambda k: abs(k) > 1e-3)


def kappa_ulps(mat, kappa, lc):
    """The worse error in ulps of the images of lc under mat and under its
    float multiple by kappa, or None where either is refused.  The image has
    degree 0 in T, exactly; each float image is within the closed-form budget
    of its own matrix's."""
    try:
        scaled_mat = Matrix2(*(kappa * v for v in mat.entries()))
        base = induced_coefficients(mat, lc)
        scaled = induced_coefficients(scaled_mat, lc)
    except (DegenerateImage, NonInvertibleMatrix):
        return None
    exact_kappa_t = [Fraction(kappa) * Fraction(v) for v in mat.entries()]
    assert chart(congruence(exact_kappa_t, lc)) == chart(congruence(mat, lc))
    worst = max(induced_ulps(base, mat, lc), induced_ulps(scaled, scaled_mat, lc))
    assert worst <= CLOSED_FORM_ULPS
    return worst


# The pinned examples have a subnormal b, so kappa * b is rounded at
# subnormal precision, 8.9e-12 relative: the scaled matrix is not kappa*T,
# and each image is measured against its own matrix.  In the third, dividing
# T by 4 (to max|entry| in [1/2, 1)) would round b and move M by 11 ulps.
@settings(max_examples=200, deadline=None)
@given(entry, entry, entry, entry, coeff_m, kappa_s)
@example(0.0, 2.2250738585e-313, 2.879e-303, 0.0, 1.0, 1.25)
@example(0.0, 2.2250738585e-313, 2.879e-303, 0.0, 0.0, 1.25)
@example(1.0, 2.2250738585e-313, 0.0, 3.0, 0.0, 1.25)
def test_kappa_scaling(a, b, c, d, m, kappa):
    try:
        mat = Matrix2(a, b, c, d)
    except NonInvertibleMatrix:
        return
    kappa_ulps(mat, kappa, LinearCoefficients(m, m * m + 0.5))


def _outcome(f, *args):
    """The repr of f(*args), which tells apart any two floats that differ in
    a bit, or the type of the package error it raises."""
    try:
        return repr(f(*args))
    except CloudInvError as exc:
        return type(exc)


# T * 2**k is exact unless an entry underflows, and the invertibility test
# and the chart point have degree 0 in T, so neither may change.  The pinned
# examples scale to (2**-7, 0; 0, 1.25e-10), within RTOL of singular only
# against an absolute floor, and to a denominator of 3.9e-13.
@settings(max_examples=300, deadline=None)
@given(entry, entry, entry, entry, coeff_m, st.integers(-500, 500))
@example(1.0, 0.0, 0.0, 1.6e-8, 0.0, -7)
@example(1e-5, 0.0, 0.0, 1.0, 0.0, -4)
def test_power_of_two_scaling_of_the_matrix_is_exact(a, b, c, d, m, k):
    entries = (a, b, c, d)
    scaled = tuple(math.ldexp(v, k) for v in entries)
    assume(all(math.ldexp(v, -k) == u for u, v in zip(entries, scaled)))
    lc = LinearCoefficients(m, m * m + 0.5)

    def image(entries):
        # NonInvertibleMatrix from the construction is an outcome too.
        return induced_coefficients(Matrix2(*entries), lc)

    assert _outcome(image, entries) == _outcome(image, scaled)


def composition_ulps(rng, draws=200):
    """The worst error in ulps over draws random pairs of matrices, each at a
    random (M, H).  Exactly, the image under m1 and then m2 is the image under
    m2 m1; in floats each step is within the closed-form budget of its own
    inputs, the product's entries included."""
    worst, checked = 0.0, 0
    while checked < draws:
        m1, m2 = random_invertible(rng), random_invertible(rng)
        m = rng.uniform(-2.0, 2.0)
        lc = LinearCoefficients(m, m * m + rng.uniform(0.1, 4.0))
        try:
            both = matmul(m2, m1)
            step1 = induced_coefficients(m1, lc)
            two_step = induced_coefficients(m2, step1)
            one_step = induced_coefficients(both, lc)
        except (DegenerateImage, NonInvertibleMatrix):
            continue
        assert chart(congruence(m2, congruence(m1, lc))) == \
            chart(congruence(product(m2, m1), lc))
        for got, t, s in ((step1, m1, lc), (two_step, m2, step1), (one_step, both, lc)):
            worst = max(worst, induced_ulps(got, t, s))
            assert worst <= CLOSED_FORM_ULPS
        checked += 1
    return worst


def line_image_ulps(rng, draws=200):
    """The worst error in ulps over draws random matrices, each at a random
    point of the level set h = m^2, which maps onto itself.  Exactly, the
    image's H - M^2 is det(T)^2 (h - m^2) / D'^2, so the rounding of m*m in h
    is all that moves it off; in floats the image is within the closed-form
    budget."""
    worst, checked = 0.0, 0
    while checked < draws:
        m_val = rng.uniform(-2.0, 2.0)
        lc = LinearCoefficients(m_val, m_val * m_val)
        mat = random_invertible(rng)
        try:
            out = induced_coefficients(mat, lc)
        except DegenerateImage:
            continue
        image = congruence(mat, lc)
        m, h = chart(image)
        a, b, c, d = map(Fraction, mat.entries())
        assert h - m * m == (a * d - b * c) ** 2 * (
            Fraction(lc.h) - Fraction(lc.m) ** 2) / image[2] ** 2
        worst = max(worst, induced_ulps(out, mat, lc))
        assert worst <= CLOSED_FORM_ULPS
        checked += 1
    return worst
