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
from cloudinv.coefficients import _CHUNK, _QUOTE, RTOL, _parse_floats
from cloudinv.transform import parse_entries
from conftest import (BUILDS, REF_H, REF_M, assert_sums_close, build_cloud,
                      matmul, not_a_number, random_cloud, random_invertible,
                      traced_peak, two_pass_sums)

REF = LinearCoefficients(REF_M, REF_H)


class TestMatrix2:
    def test_singular_rejected_at_construction(self):
        with pytest.raises(NonInvertibleMatrix):
            Matrix2(1.0, 2.0, 2.0, 4.0)

    def test_singularity_scale_relative(self):
        # det=1 is tiny relative to entries of size 1e9.
        with pytest.raises(NonInvertibleMatrix):
            Matrix2(1e9, 0.0, 0.0, 1e-9)

    def test_invertibility_of_huge_entries_does_not_overflow(self):
        # max|entry|**2 and the determinant itself overflow here.
        Matrix2(1e308, 1e308, -1e308, 1e308)
        with pytest.raises(NonInvertibleMatrix):
            Matrix2(1e308, 1e308, 1e308, 1e308)

    @pytest.mark.parametrize("s", [1e-200, 2.0 ** -60, 1e-5, 0.5, 1.0, 3.0,
                                   1e150, 1e200])
    def test_singularity_threshold_both_sides(self, s):
        # |det| against 1e-12 * max|entry|**2, just above and below.
        Matrix2(s, 0.0, 0.0, 1.01e-12 * s)
        with pytest.raises(NonInvertibleMatrix):
            Matrix2(s, 0.0, 0.0, 0.99e-12 * s)

    def test_induced_map_overflow_is_value_error(self):
        m = Matrix2(1e308, 1e308, -1e308, 1e308)
        with pytest.raises(ValueError, match="overflows"):
            induced_raw(m, LinearCoefficients(1.5, 3.5))

    def test_small_well_conditioned_matrix_is_invertible(self):
        # Condition number about 1.2, entries far below unit scale.
        Matrix2(1e-6, 2e-7, 0.0, 1e-6)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            Matrix2(float("nan"), 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Matrix2(float("inf"), 0.0, 0.0, 1.0)


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
    def test_semicolon_form(self):
        m = parse_matrix("1,0.7;0,1")
        assert m.entries() == (1.0, 0.7, 0.0, 1.0)

    def test_json_form(self):
        m = parse_matrix("[[0.4,-0.4],[-0.05,0.9]]")
        assert m.entries() == (0.4, -0.4, -0.05, 0.9)

    @pytest.mark.parametrize("bad", ["1,2;3", "1;2;3", "[[1,2]]", "a,b;c,d",
                                     "1,2", "1,2;3,4;5,6", "1,2;3,4;", "1,2;3,nan",
                                     "[[1 2,3],[4,5]]", "[[1,2],[3]]", "[[1,[2]],[2,3]]",
                                     "[[1,2]],[[3,4]]", "[1,2],[3,4]", "[[1,2],[3,4]",
                                     "[[1,2],[3,4]]]", "[[1,2][3,4]]", "[[[1,2],[3,4]]]"])
    def test_bad_literals(self, bad):
        with pytest.raises(ValueError):
            parse_matrix(bad)

    def test_bad_row_is_named(self):
        with pytest.raises(ValueError) as info:
            parse_matrix("1,2;3,x")
        assert str(info.value) == ("expected 'a,b;c,d', got '1,2;3,x': '3,x' is "
                                   "not a list of 2 finite numbers")
        with pytest.raises(ValueError) as info:
            parse_matrix("[[null,1],[2,3]]")
        assert str(info.value) == ("expected [[a,b],[c,d]], got '[[null,1],[2,3]]': "
                                   "'null,1' is not a list of 2 finite numbers")

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

    def test_singular_literal(self):
        with pytest.raises(NonInvertibleMatrix):
            parse_matrix("1,1;1,1")


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
                                      "inf", "-inf", "1,nan", "1e309", "-1e309"])
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


class TestApplyToCloud:
    def test_identity(self):
        cloud = Cloud([(1, 1), (2, 0), (0.5, -3)])
        image = apply_to_cloud(Matrix2(1, 0, 0, 1), cloud)
        assert np.array_equal(image.xs, cloud.xs)
        assert np.array_equal(image.ys, cloud.ys)

    def test_diagonal_scaling(self):
        image = apply_to_cloud(Matrix2(1, 0, 0, 2), Cloud([(1, 1), (2, 0)]))
        assert image.xs.tolist() == [1.0, 2.0]
        assert image.ys.tolist() == [2.0, 0.0]

    def test_quarter_rotation(self):
        image = apply_to_cloud(RotationFamily().evaluate(math.pi / 2),
                               Cloud([(1.0, 0.0), (3.0, 4.0)]))
        assert image.xs[0] == pytest.approx(0.0, abs=1e-15)
        assert image.ys[0] == pytest.approx(-1.0)


class TestApplyToCloudChunked:
    """The image is written and reduced chunk by chunk in one pass."""

    @pytest.mark.parametrize("n", [2, 3 * _CHUNK + 5])
    def test_image_and_moments(self, rng, n):
        xs = 1e6 + rng.standard_normal(n)
        ys = rng.standard_normal(n)
        m = Matrix2(0.4, -0.4, -0.05, 0.9)
        image = apply_to_cloud(m, Cloud.from_arrays(xs, ys))
        assert np.array_equal(image.xs, m.a * xs + m.b * ys)
        assert np.array_equal(image.ys, m.c * xs + m.d * ys)
        assert_sums_close(raw_sums(image),
                          two_pass_sums(image.xs.tolist(), image.ys.tolist()))

    def test_image_read_only(self):
        image = apply_to_cloud(Matrix2(1, 0.7, 0, 1), Cloud([(1, 1), (2, 0)]))
        with pytest.raises(ValueError):
            image.xs[0] = 5.0
        with pytest.raises(ValueError):
            image.ys[0] = 5.0

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

    @pytest.fixture
    def source(self, rng):
        n = 3 * _CHUNK + 5
        return Cloud.from_arrays(1e6 + rng.standard_normal(n),
                                 rng.standard_normal(n))

    def test_len_does_not_write_the_image(self, source):
        image = apply_to_cloud(self.M, source)
        assert traced_peak(lambda: len(image)) < 64 * 1024
        assert len(image) == len(source)

    @pytest.mark.parametrize("how", BUILDS)
    def test_first_read_writes_the_image_once(self, rng, how):
        n = 3 * _CHUNK + 5
        source = build_cloud(how, 1e6 + rng.standard_normal(n), rng.standard_normal(n))
        image = apply_to_cloud(self.M, source)
        xs, ys = image.xs, image.ys
        want_x, want_y = self.image_arrays(self.M, source.xs, source.ys)
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


class TestInducedRaw:
    def test_identity(self):
        rs = Scatter(0.3, 2.0, 6.0)
        out = induced_raw(Matrix2(1, 0, 0, 1), rs)
        assert (out.mn, out.hn, out.d) == (0.3, 2.0, 6.0)

    def test_diagonal(self):
        out = induced_raw(Matrix2(1, 0, 0, 2), Scatter(0.5, 2.0, 6.0))
        assert (out.mn, out.hn, out.d) == pytest.approx((1.0, 8.0, 6.0))

    def test_shear(self):
        out = induced_raw(Matrix2(1, 0.7, 0, 1), Scatter(0.0, 2.0, 6.0))
        assert (out.mn, out.hn, out.d) == pytest.approx((1.4, 2.0, 6.98))

    def test_matches_direct_recomputation(self, rng):
        for _ in range(50):
            cloud = random_cloud(rng)
            m = random_invertible(rng)
            closed = induced_raw(m, raw_sums(cloud))
            direct = raw_sums(apply_to_cloud(m, cloud))
            for a, b in [(closed.mn, direct.mn), (closed.hn, direct.hn),
                         (closed.d, direct.d)]:
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


class TestCongruenceOracle:
    """Both induced maps against T S T^T for S = [[D, Mn], [Mn, Hn]], as sympy
    derives it from symbols and mpmath evaluates it at 40 digits."""

    @pytest.fixture(scope="class")
    def oracle(self):
        sympy = pytest.importorskip("sympy")
        mpmath = pytest.importorskip("mpmath")
        a, b, c, d, mn, hn, dx = sympy.symbols("a b c d mn hn dx", real=True)
        image = (sympy.Matrix([[a, b], [c, d]]) * sympy.Matrix([[dx, mn], [mn, hn]])
                 * sympy.Matrix([[a, c], [b, d]]))
        form = sympy.lambdify((a, b, c, d, mn, hn, dx),
                              (image[0, 1], image[1, 1], image[0, 0]), "mpmath")

        def exact(t, mn, hn, dx):
            with mpmath.workdps(40):
                return tuple(float(v) for v in form(*t.entries(), mn, hn, dx))
        return exact

    def test_raw_sums(self, rng, oracle):
        for _ in range(300):
            t = random_invertible(rng)
            rs = raw_sums(random_cloud(rng))
            got = induced_raw(t, rs)
            want = oracle(t, rs.mn, rs.hn, rs.d)
            # The image is positive definite: its diagonal bounds |mn|.
            scale = max(want[1], want[2])
            for g, w in zip((got.mn, got.hn, got.d), want):
                assert abs(g - w) <= 1e-13 * scale

    def test_coefficients_are_its_quotients(self, rng, oracle):
        for _ in range(300):
            t = random_invertible(rng)
            lc = linear_coefficients(random_cloud(rng))
            mn, hn, dx = oracle(t, lc.m, lc.h, 1.0)
            try:
                got = induced_coefficients(t, lc)
            except DegenerateImage:
                continue
            # h >= m^2 on the image, so max(1, h) bounds |m| too.
            scale = max(1.0, hn / dx)
            assert abs(got.m - mn / dx) <= 1e-13 * scale
            assert abs(got.h - hn / dx) <= 1e-13 * scale


class TestInducedCoefficients:
    def test_identity(self):
        out = induced_coefficients(Matrix2(1, 0, 0, 1), REF)
        assert (out.m, out.h) == (REF.m, REF.h)

    @pytest.mark.parametrize("matrix,expected,ulp", [
        (Matrix2(1, 0, 0, 2), (3.04488, 9.87991), (1e-5, 1e-5)),
        (Matrix2(1, 0.7, 0, 1), (0.748882, 0.568896), (1e-6, 1e-6)),
        (RotationFamily().evaluate(math.pi / 3), (-0.0364518, 0.0143303), (1e-7, 1e-7)),
        (Matrix2(0.4, -0.4, -0.05, 0.9), (-4.86159, 27.4371), (1e-5, 1e-4)),
    ])
    def test_reference_values(self, matrix, expected, ulp):
        out = induced_coefficients(matrix, REF)
        assert abs(out.m - expected[0]) <= 5 * ulp[0]
        assert abs(out.h - expected[1]) <= 5 * ulp[1]

    def test_degenerate_image_exact_quarter_turn(self):
        # Exact quarter turn of a horizontal line kills all x-spread.
        with pytest.raises(DegenerateImage):
            induced_coefficients(Matrix2(0, 1, -1, 0),
                                 LinearCoefficients(0.0, 0.0))

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    @pytest.mark.parametrize("row,d,hn", [
        # a = b with H_n = 0: (|a| + |b|)**2 D is the bound's largest term.
        ((0.5, 0.5), 1.0, 0.0),
        # a = b with H_n = 7 D: |2ab M_n| is.
        ((0.5, 0.5), 1.0, 7.0),
        # b = a/4 with H_n = -32 D: b**2 |H_n| is.
        ((1.0, 0.25), 1.0, -32.0),
    ])
    def test_image_d_guard_on_both_sides(self, row, d, hn, ratio):
        # M_n is set so that the image's D = a^2 D + 2ab M_n + b^2 H_n is
        # ratio * RTOL times its bound (|a| + |b|)^2 |D| + |2ab M_n| + b^2 |H_n|.
        a, b, d, hn = map(Fraction, (*row, d, hn))

        def image_d_and_bound(mn):
            return (a * a * d + 2 * a * b * mn + b * b * hn,
                    (abs(a) + abs(b)) ** 2 * abs(d) + abs(2 * a * b * mn)
                    + b * b * abs(hn))

        mn = -(a * a * d + b * b * hn) / (2 * a * b)  # the image's D is 0
        bound = image_d_and_bound(mn)[1]
        mn = Fraction(float(mn + ratio * Fraction(RTOL) * bound / (2 * a * b)))
        image_d, bound = image_d_and_bound(mn)
        assert abs(image_d / bound / Fraction(RTOL) / ratio - 1) < 1e-3
        t = Matrix2(float(a), float(b), 0.0, 1.0)
        s = Scatter(float(mn), float(hn), float(d))
        if ratio < 1:
            with pytest.raises(DegenerateImage):
                induced_coefficients(t, s)
        else:
            induced_coefficients(t, s)

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
        a, _, c, d = matrix.entries()
        got = induced_coefficients(matrix, lc)
        assert got.m == pytest.approx((c + d * lc.m) / a, rel=1e-15)
        assert got.h == pytest.approx(
            (c * c + 2 * c * d * lc.m + d * d * lc.h) / (a * a), rel=1e-15)

    def test_a_sixteenth_of_the_matrix_has_the_same_image(self):
        lc = LinearCoefficients(0.0, 0.5)
        want = induced_coefficients(Matrix2(1e-5, 0.0, 0.0, 1.0), lc)
        assert induced_coefficients(Matrix2(1e-5 / 16, 0, 0, 1 / 16), lc) == want

    def test_huge_entries_do_not_overflow(self):
        # The image is that of the matrix divided by 1e200.
        got = induced_coefficients(Matrix2(1e200, 1.0, 0.0, 1e200), REF)
        want = induced_coefficients(Matrix2(1.0, 1e-200, 0.0, 1.0), REF)
        assert got.m == pytest.approx(want.m, rel=1e-15)
        assert got.h == pytest.approx(want.h, rel=1e-15)

    def test_raw_and_coefficient_levels_agree(self, rng):
        for _ in range(100):
            cloud = random_cloud(rng)
            m = random_invertible(rng)
            rs_hat = induced_raw(m, raw_sums(cloud))
            lc_hat = induced_coefficients(m, linear_coefficients(cloud))
            assert rs_hat.mn / rs_hat.d == pytest.approx(lc_hat.m, rel=1e-9, abs=1e-12)
            assert rs_hat.hn / rs_hat.d == pytest.approx(lc_hat.h, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("offset", [0.0, 1e3])
    def test_raw_sums_give_the_chart_points_image(self, rng, offset):
        # T S T^T of the raw sums and of the chart point (D = 1) have the same
        # quotients; only the rounding of the terms differs.
        for _ in range(300):
            cloud = random_cloud(rng, offset=offset)
            t = random_invertible(rng)
            want = induced_coefficients(t, linear_coefficients(cloud))
            got = induced_coefficients(t, raw_sums(cloud))
            scale = max(abs(want.m), abs(want.h))
            assert abs(got.m - want.m) <= 1e-13 * scale
            assert abs(got.h - want.h) <= 1e-13 * scale

    def test_scatter_of_a_vertical_line(self):
        # D = 0 has no chart point, but its image under a shear does: x = y.
        vertical = raw_sums(Cloud([(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]))
        out = induced_coefficients(Matrix2(1, 1, 0, 1), vertical)
        assert (out.m, out.h) == (1.0, 1.0)
        with pytest.raises(DegenerateImage):
            induced_coefficients(Matrix2(1, 0, 0, 2), vertical)

    def test_oracle_equivalence_sample(self, rng):
        for _ in range(100):
            cloud = random_cloud(rng)
            m = random_invertible(rng)
            closed = induced_coefficients(m, linear_coefficients(cloud))
            direct = linear_coefficients(apply_to_cloud(m, cloud))
            assert abs(closed.m - direct.m) <= 1e-9 * max(1.0, abs(closed.m))
            assert abs(closed.h - direct.h) <= 1e-9 * max(1.0, abs(closed.h))


entry = st.floats(min_value=-3.0, max_value=3.0,
                  allow_nan=False, allow_infinity=False)
coeff_m = st.floats(min_value=-3.0, max_value=3.0,
                    allow_nan=False, allow_infinity=False)
kappa_s = st.floats(min_value=-10.0, max_value=10.0,
                    allow_nan=False, allow_infinity=False).filter(
                        lambda k: abs(k) > 1e-3)


def _try_matrix(a, b, c, d):
    try:
        return Matrix2(a, b, c, d)
    except NonInvertibleMatrix:
        return None


# The pinned examples have a subnormal b, so kappa * b is rounded at
# subnormal precision, 8.9e-12 relative: the scaled matrix is not kappa*T.
@settings(max_examples=200, deadline=None)
@given(entry, entry, entry, entry, coeff_m, kappa_s)
@example(0.0, 2.2250738585e-313, 2.879e-303, 0.0, 1.0, 1.25)
@example(0.0, 2.2250738585e-313, 2.879e-303, 0.0, 0.0, 1.25)
def test_kappa_scaling(a, b, c, d, m, kappa):
    mat = _try_matrix(a, b, c, d)
    scaled_mat = _try_matrix(kappa * a, kappa * b, kappa * c, kappa * d)
    if mat is None or scaled_mat is None:
        return
    lc = LinearCoefficients(m, m * m + 0.5)
    try:
        base = induced_coefficients(mat, lc)
        scaled = induced_coefficients(scaled_mat, lc)
    except DegenerateImage:
        return
    # delta: the largest exact relative error of kappa * x against kappa*x,
    # the input rounding that the image may carry on.
    delta = float(max((abs(Fraction(kappa * x) / (Fraction(kappa) * Fraction(x)) - 1)
                       for x in (a, b, c, d) if x), default=0))
    assert abs(scaled.m - base.m) <= (1e-12 * max(1.0, abs(base.m))
                                      + 4 * delta * abs(base.m))
    assert abs(scaled.h - base.h) <= (1e-12 * max(1.0, abs(base.h))
                                      + 4 * delta * abs(base.h))


def _outcome(f, *args):
    """The repr of f(*args), which tells apart any two floats that differ in
    a bit, or the type of the package error it raises."""
    try:
        return repr(f(*args))
    except CloudInvError as exc:
        return type(exc)


# T * 2**k is exact unless an entry underflows, and the invertibility test
# and the chart point have degree 0 in T, so neither may change.  The pinned
# examples scale to (2**-7, 0; 0, 1.25e-10), within 1e-12 of singular only
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


def test_composition(rng):
    lc = REF
    checked = 0
    while checked < 200:
        m1 = random_invertible(rng)
        m2 = random_invertible(rng)
        try:
            step1 = induced_coefficients(m1, lc)
            two_step = induced_coefficients(m2, step1)
            one_step = induced_coefficients(matmul(m2, m1), lc)
        except DegenerateImage:
            continue
        assert abs(two_step.m - one_step.m) <= 1e-9 * max(1.0, abs(one_step.m))
        assert abs(two_step.h - one_step.h) <= 1e-9 * max(1.0, abs(one_step.h))
        checked += 1


def test_collinearity_preserved(rng):
    # The level set h = m^2 maps onto itself.
    checked = 0
    while checked < 200:
        m_val = rng.uniform(-2.0, 2.0)
        lc = LinearCoefficients(m_val, m_val * m_val)
        mat = random_invertible(rng)
        try:
            out = induced_coefficients(mat, lc)
        except DegenerateImage:
            continue
        assert abs(out.h - out.m ** 2) <= 1e-9 * max(1.0, abs(out.h))
        checked += 1
