import io
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloudinv import (KINDS, Cloud, CloudGenSpec, DegenerateCloud, Matrix2,
                      apply_to_cloud, generate_cloud, is_collinear,
                      linear_coefficients, raw_sums, read_cloud_csv,
                      write_cloud_csv)
from cloudinv import coefficients
from cloudinv.coefficients import _CHUNK, _DOT
from conftest import build_cloud, magnitude, random_invertible, traced_peak
from exact import MOMENT_ULPS, centered_sums, chart_ulps, scatter_ulps

TRIANGLE = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]


class TestPointAndCloud:
    def test_cloud_accepts_points_and_pairs(self):
        c = Cloud([[0, 0], (1, 1)])
        assert len(c) == 2
        assert (c.xs.tolist(), c.ys.tolist()) == ([0.0, 1.0], [0.0, 1.0])

    @pytest.mark.parametrize("points", [
        ["12", "34"], [b"12", b"34"], [(0, 0), bytearray(b"12")],
        [(0, 0, 9), (1, 1, 9)], [(0, 0), (1,)], [(0, 0), (1, 1), ()],
    ])
    def test_cloud_refuses_a_point_that_is_not_two_coordinates(self, points):
        # A string is not a pair of characters, and a longer row does not
        # lose its tail.
        with pytest.raises(ValueError, match="a point must be 2 coordinates"):
            Cloud(points)

    def test_from_arrays_checks_shape(self):
        with pytest.raises(ValueError):
            Cloud.from_arrays(np.zeros(3), np.zeros(4))

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("build", [Cloud.from_arrays, lambda xs, ys: Cloud(zip(xs, ys))])
    def test_a_cloud_needs_two_points(self, n, build):
        with pytest.raises(ValueError,
                           match=f"^a cloud needs at least 2 points, got {n}$"):
            build(np.zeros(n), np.zeros(n))


class TestRawSums:
    @pytest.mark.parametrize("tiny", [1e-300, 5e-324])
    def test_exact_zero_spread_at_any_magnitude_is_kept(self, tiny):
        # A column of equal tiny values has no subnormal squares to lose.
        flat = raw_sums(Cloud([(0.0, tiny), (1.0, tiny), (3.0, tiny)]))
        assert (flat.mn, flat.hn) == (0.0, 0.0) and flat.d > 0
        vertical = raw_sums(Cloud([(tiny, 0.0), (tiny, 1.0), (tiny, 3.0)]))
        assert (vertical.mn, vertical.d) == (0.0, 0.0) and vertical.hn > 0


class TestIsCollinear:
    @pytest.mark.parametrize("pts,collinear", [
        (TRIANGLE, False), ([(0, 0), (1, 2), (2, 4)], True),
        ([(0, 0), (1, 0), (2, 0)], True)])
    def test_verdict_holds_at_coordinates_near_1e_minus_100(self, pts,
                                                            collinear):
        # The degree-4 products hn*d and mn**2 underflow here.
        xs, ys = 1e-100 * np.array(pts, dtype=float).T
        assert is_collinear(Cloud.from_arrays(xs, ys)) is collinear

    @pytest.mark.parametrize("n", [10, 1000, 100_000, 1_000_000])
    @pytest.mark.parametrize("offset", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("slope", [1e-3, -1.0, 1e3])
    def test_a_float_line_and_its_images_are_collinear(self, n, offset, slope):
        # y = slope*x + 0.3 for x in offset + [-1, 1]: the rounding of y is
        # its only deviation from the line.  Its images under random
        # matrices, and under power-of-two axis scales, stay collinear too.
        rng = np.random.default_rng(n)
        xs = offset + rng.uniform(-1.0, 1.0, n)
        ys = slope * xs + 0.3
        line = Cloud.from_arrays(xs, ys)
        scaled = Cloud.from_arrays(np.ldexp(xs, -300), np.ldexp(ys, 200))
        images = [apply_to_cloud(random_invertible(rng), line) for _ in range(3)]
        for cloud in (line, scaled, *images):
            assert is_collinear(cloud)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(magnitude, magnitude), min_size=2, max_size=20),
       st.integers(-200, 200), st.integers(-200, 200))
def test_power_of_two_axis_scaling_is_exact(pts, i, j):
    # x * 2**i and y * 2**j scale every moment exactly, and the guards form
    # no product of higher degree than the moments: then D, M and H scale
    # exactly and no verdict changes.
    xs, ys = np.array(pts).T
    base = Cloud.from_arrays(xs, ys)
    scaled = Cloud.from_arrays(np.ldexp(xs, i), np.ldexp(ys, j))
    assert is_collinear(base) == is_collinear(scaled)
    try:
        lc = linear_coefficients(base)
    except DegenerateCloud:
        with pytest.raises(DegenerateCloud):
            linear_coefficients(scaled)
        return
    got = linear_coefficients(scaled)
    assert got.m == math.ldexp(lc.m, j - i)
    assert got.h == math.ldexp(lc.h, 2 * (j - i))


coords = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


def sums_or_refusal(pts):
    """raw_sums of the cloud of pts, or None where it is refused as too
    small to sum, which needs an axis whose coordinates span under 1e-150."""
    try:
        return raw_sums(Cloud(pts))
    except ValueError as err:
        assert "cloud spread too small" in str(err)
        assert min(max(axis) - min(axis) for axis in zip(*pts)) < 1e-150
        return None


# Refused: the y gaps square to subnormals, or (at 4.7e-230) to exactly 0.
TINY_Y = [[(0.0, 0.0), (0.0, 3.0624586255546405e-156)],
          [(0.0, 0.0), (0.0, 4.721200554873122e-230)]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=2, max_size=40),
       st.randoms(use_true_random=False))
# mn = -24.25 here, and the two orders differ in it by 0.2 ulp of
# sqrt(d)*sqrt(hn), the scale it is counted in, but by 11 205 ulps of |mn|.
@example([(-86.61555, 34.62086), (19.91998, 60.25008), (64.28676, -48.38952),
          (-43.61158, -42.75316), (-55.95928, -82.28524), (-11.05831, -5.71828),
          (65.01112, 12.87655), (10.64744, 41.94263), (68.85666, -13.94485),
          (-42.80592, 88.1882), (22.03308, 89.56641), (-8.90819, 68.86724),
          (95.35011, 77.39548), (53.28076, 16.70985), (-50.83729, -46.12216),
          (42.24548, -96.24427), (88.54091, -43.12808), (99.0488, -6.9926),
          (61.57055, -22.35503), (-7.43474, -16.54268), (-88.43681, 0.0723),
          (74.30085, 13.87744)], random.Random(28127))
@example(TINY_Y[0], random.Random(1))
@example(TINY_Y[1], random.Random(1))
def test_permutation_invariance(pts, pyrandom):
    shuffled = list(pts)
    pyrandom.shuffle(shuffled)
    a = sums_or_refusal(pts)
    b = sums_or_refusal(shuffled)
    assert (a is None) == (b is None)
    if a is None:
        return
    # Both orders are within the moment budget of the same exact sums; mn,
    # which can cancel far below its terms, in ulps of sqrt(d*hn).
    exact = centered_sums(*zip(*pts))
    assert centered_sums(*zip(*shuffled)) == exact
    assert scatter_ulps(a, exact) <= MOMENT_ULPS
    assert scatter_ulps(b, exact) <= MOMENT_ULPS


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=2, max_size=40))
@example(TINY_Y[0])
@example(TINY_Y[1])
def test_nonnegativity_and_cauchy_schwarz(pts):
    rs = sums_or_refusal(pts)
    if rs is None:
        return
    assert rs.d >= 0.0
    assert rs.hn >= 0.0
    # The exact sums obey Cauchy-Schwarz, and the float ones are within the
    # moment budget of them (|mn| in ulps of sqrt(d*hn)).
    mn, hn, d = exact = centered_sums(*zip(*pts))
    assert hn * d - mn * mn >= 0
    assert scatter_ulps(rs, exact) <= MOMENT_ULPS


@pytest.mark.parametrize("pts,collinear", [
    ([(0.0, 0.0), (1.0, 0.5), (2.0, 1.0), (4.0, 2.0)], True), ([(0, 0), (1, 1), (2, 2)], True),
    ([(0.0, 0.0), (1.0, 0.5), (2.0, 2.0)], False), (TRIANGLE, False),
    ([(0, 0), (0, 1), (0, 2)], True), ([(3.5, -2.0), (3.5, -2.0)], True)],
    ids=["line", "diagonal-line", "off-line", "triangle", "vertical-line", "one-point-twice"])
def test_collinear_iff_zero_gap(pts, collinear):
    # Equality in Cauchy-Schwarz exactly on collinear clouds.
    mn, hn, d = exact = centered_sums(*zip(*pts))
    assert (hn * d - mn * mn == 0) is collinear
    assert scatter_ulps(raw_sums(Cloud(pts)), exact) <= MOMENT_ULPS
    assert is_collinear(Cloud(pts)) is collinear


# A constant column: zero, or any magnitude from 1e-100 to 1e100.
constant = st.one_of(st.just(0.0), st.floats(1e-100, 1e100),
                     st.floats(-1e100, -1e-100))
CHUNKED_SIZES = [2, 3, _CHUNK - 1, _CHUNK + 1, 3 * _CHUNK + 5]


@st.composite
def near_ties(draw):
    """2 to 64 values, each one of four consecutive floats (one ulp apart)
    at any magnitude from 1e-100 to 1e100."""
    v = draw(st.one_of(st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)))
    ladder = [v]
    for _ in range(3):
        ladder.append(float(np.nextafter(ladder[-1], math.inf)))
    steps = draw(st.lists(st.integers(0, 3), min_size=2, max_size=64))
    return [ladder[i] for i in steps]


def spread(seed, n):
    """n distinct values: a shuffled ramp of seeded offset and scale."""
    rng = np.random.default_rng(seed)
    ramp = rng.permutation(np.arange(n) + 0.5 * rng.random(n))
    return rng.choice([0.0, -3.7, 1e3, 1e8]) + 10.0 ** rng.uniform(-3, 3) * ramp


def chunk_tie(offset, kind):
    """3 chunks and 5 points at 1 + offset, with one chunk (the second) or
    one point (the last) one ulp above the rest."""
    n = 3 * _CHUNK + 5
    xs = np.full(n, 1.0 + offset)
    tied = slice(_CHUNK, 2 * _CHUNK) if kind == "chunk" else slice(n - 1, n)
    xs[tied] = np.nextafter(xs[tied], math.inf)
    return xs


class TestVerticalTest:
    """A column of equal values has exactly zero spread, and D, a sum of
    terms that cannot cancel, is tested for 0 itself: a cloud is vertical
    exactly when all its x are equal."""

    @pytest.mark.parametrize("n", CHUNKED_SIZES)
    @settings(max_examples=40, deadline=None)
    @given(constant, st.integers(0, 2**32 - 1))
    def test_constant_x_has_exactly_zero_spread(self, n, v, seed):
        cloud = Cloud.from_arrays(np.full(n, v), spread(seed, n))
        assert raw_sums(cloud).d == 0.0
        with pytest.raises(DegenerateCloud):
            linear_coefficients(cloud)

    @pytest.mark.parametrize("n", CHUNKED_SIZES)
    @settings(max_examples=40, deadline=None)
    @given(constant, st.integers(0, 2**32 - 1))
    def test_constant_y_has_exactly_zero_spread(self, n, v, seed):
        cloud = Cloud.from_arrays(spread(seed, n), np.full(n, v))
        assert raw_sums(cloud).hn == 0.0
        assert is_collinear(cloud)
        lc = linear_coefficients(cloud)
        assert (lc.m, lc.h) == (0.0, 0.0)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(near_ties(),
                     st.lists(magnitude, min_size=2, max_size=64)))
    @example(chunk_tie(0.0, "chunk"))
    @example(chunk_tie(0.0, "point"))
    @example(chunk_tie(1e3, "chunk"))
    @example(chunk_tie(1e3, "point"))
    @example(chunk_tie(1e8, "chunk"))
    @example(chunk_tie(1e8, "point"))
    def test_vertical_iff_all_x_equal(self, xs):
        n = len(xs)
        xs, ys = np.array(xs), np.arange(n, dtype=float)
        cloud = Cloud.from_arrays(xs, ys)
        d, want = raw_sums(cloud).d, centered_sums(xs, ys)[2]
        equal = bool(np.all(xs == xs[0]))
        assert (want == 0) is equal
        # The rounding of D is at most n*2**-50 times n*q, the sum of the
        # non-negative terms the pass adds into Sxx, and q <= 3D exactly:
        # D bounds its own rounding, so it is 0 exactly when all x are equal.
        assert abs(Fraction(d) - want) <= 3 * n * n * Fraction(2.0**-50) * want
        assert (d > 0) is (want > 0)
        if equal:
            assert d == 0.0
            with pytest.raises(DegenerateCloud):
                linear_coefficients(cloud)
        else:
            linear_coefficients(cloud)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)),
                    min_size=2, max_size=64),
           st.integers(-3, 3), st.integers(0, 40), st.integers(-3, 3),
           st.integers(0, 40))
    def test_translation_keeps_the_verdict_and_the_chart(self, pts, jx, kx,
                                                         jy, ky):
        # An exact offset j * 2**k on each axis.
        xs, ys = np.array(pts, dtype=float).T
        base = Cloud.from_arrays(xs, ys)
        moved = Cloud.from_arrays(xs + jx * 2.0**kx, ys + jy * 2.0**ky)
        if len(set(xs.tolist())) == 1:
            for cloud in (base, moved):
                with pytest.raises(DegenerateCloud):
                    linear_coefficients(cloud)
            return
        # The exact sums do not move, and both charts are within the moment
        # budget of them.
        exact = centered_sums(xs, ys)
        assert centered_sums(moved.xs, moved.ys) == exact
        for cloud in (base, moved):
            assert chart_ulps(linear_coefficients(cloud), exact) <= MOMENT_ULPS

    def test_offset_line_is_not_vertical(self):
        cloud = Cloud([(5e6, 0.0), (5e6 + 1, 1.0), (5e6 + 2, 3.0)])
        assert linear_coefficients(cloud).m == 1.5

    @pytest.mark.parametrize("xs", [np.tile([1e8, 1e8 + 1e-8], 500),
                                    np.array([1.0, 1.0 + 2.0**-52, 1.0])],
                             ids=["1e8-alternating", "one-ulp-above-1"])
    def test_near_ties_are_kept(self, xs):
        ys = np.arange(xs.size, dtype=float)
        cloud = Cloud.from_arrays(xs, ys)
        assert scatter_ulps(raw_sums(cloud), centered_sums(xs, ys)) <= MOMENT_ULPS
        linear_coefficients(cloud)


class TestCsv:
    def test_read_with_header(self):
        cloud = read_cloud_csv(io.StringIO("x,y\n0,0\n1,1\n2,0\n"))
        assert len(cloud) == 3
        assert (cloud.xs[2], cloud.ys[2]) == (2.0, 0.0)

    def test_read_without_header_and_blank_lines(self):
        cloud = read_cloud_csv(io.StringIO("0,0\n\n \n1,1\n\n"))
        assert len(cloud) == 2

    def test_read_crlf(self):
        cloud = read_cloud_csv(io.StringIO("x,y\r\n1.5,-2\r\n0,3\r\n"))
        assert (cloud.xs[0], cloud.ys[0]) == (1.5, -2.0)

    @pytest.mark.parametrize("source", ["stream", "file"])
    @pytest.mark.parametrize("header", ["x,y\n", ""])
    def test_byte_order_mark_of_a_stream_or_file(self, tmp_path, header, source):
        def read(text):
            if source == "stream":
                return read_cloud_csv(io.StringIO(text))
            (tmp_path / "cloud.csv").write_text(text, encoding="utf-8")
            return read_cloud_csv(str(tmp_path / "cloud.csv"))

        body = header + "0,0\n1,1\n2,3\n"
        marked, plain = read("\ufeff" + body), read(body)
        assert np.array_equal(marked.xs, plain.xs)
        assert np.array_equal(marked.ys, plain.ys)
        assert marked._moments == plain._moments

    def test_byte_order_mark_only_at_the_start(self):
        with pytest.raises(ValueError, match="^line 2: "):
            read_cloud_csv(io.StringIO("0,0\n\ufeff1,1\n2,3\n"))

    @pytest.mark.parametrize("row", ["1,2,3", "1", "1,zzz", "inf,1", "1, nan", "1e309,0", ",",
                                     "1,,2", "x", "inf", "nan", "1e309"])
    def test_bad_row_names_its_line(self, row):
        with pytest.raises(ValueError) as info:
            read_cloud_csv(io.StringIO(f"x,y\n{row}\n0,0\n1,1\n"))
        assert str(info.value) == f"line 2: {row!r} is not a list of 2 finite numbers"

    def test_bytes_that_are_not_utf8_name_their_line(self, tmp_path):
        # The decoder reads the file in buffers; the error names the line.
        path = tmp_path / "latin.csv"
        lines = [f"{i},{i % 7}" for i in range(5000)]
        lines[4000] = "4000,caf\xe9"
        path.write_bytes("\n".join(["x,y", *lines, ""]).encode("latin-1"))
        with pytest.raises(ValueError) as info:
            read_cloud_csv(str(path))
        assert str(info.value) == (
            "line 4002: 'utf-8' codec can't decode byte 0xe9 in position 8: "
            "invalid continuation byte")

    def test_a_file_that_is_not_utf8_is_opened_once(self, tmp_path, monkeypatch):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"x,y\n0,0\n1,caf\xe9\n")
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(coefficients, "open", counting_open, raising=False)
        with pytest.raises(ValueError, match="^line 3: 'utf-8' codec can't decode"):
            read_cloud_csv(str(path))
        assert opened == [str(path)]

    @pytest.mark.parametrize("row,error", [
        ("1,\udce9", "'utf-8' codec can't decode byte 0xe9 in position 2: "
                     "invalid continuation byte"),
        ("1,\ud800", "'utf-8' codec can't encode character '\\ud800' in "
                     "position 2: surrogates not allowed"),
    ], ids=["escaped-byte", "lone-surrogate"])
    def test_a_stream_line_that_is_not_utf8_is_named_by_the_codec(self, row, error):
        # A byte kept by surrogateescape, or a lone surrogate from the caller.
        with pytest.raises(ValueError) as info:
            read_cloud_csv(io.StringIO(f"x,y\n{row}\n0,0\n1,1\n"))
        assert str(info.value) == f"line 2: {error}"

    def test_the_first_bad_line_is_named(self, tmp_path):
        # The decoder reads ahead of the parser; an earlier line that does not
        # parse is still the one named.
        path = tmp_path / "mixed.csv"
        lines = ["0,0", "1,x", *[f"{i},{i}" for i in range(3, 11)], "11,caf\xe9", ""]
        path.write_bytes("\n".join(lines).encode("latin-1"))
        with pytest.raises(ValueError) as info:
            read_cloud_csv(str(path))
        assert str(info.value) == "line 2: '1,x' is not a list of 2 finite numbers"

    def test_one_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "marks.csv"
        path.write_text("\ufeff\ufeffx,y\n0,0\n1,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^line 1: '\\ufeffx,y' is not"):
            read_cloud_csv(str(path))


# Finite doubles, with the extremes always drawn: signed zero, the smallest
# subnormal and the largest finite values.
EDGES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
finite = st.floats(allow_nan=False, allow_infinity=False)


def bits(values) -> list:
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=100, deadline=None)
@given(st.lists(finite, max_size=30), st.lists(finite, max_size=30),
       st.randoms(use_true_random=False))
def test_csv_round_trip_is_bit_exact(xs, ys, pyrandom):
    xs, ys = EDGES + xs, EDGES[::-1] + ys
    n = min(len(xs), len(ys))
    pyrandom.shuffle(xs)
    cloud = Cloud.from_arrays(np.array(xs[:n]), np.array(ys[:n]))
    buf = io.StringIO()
    write_cloud_csv(cloud, buf)
    back = read_cloud_csv(io.StringIO(buf.getvalue()))
    assert bits(back.xs) == bits(cloud.xs)
    assert bits(back.ys) == bits(cloud.ys)


def point_sources(xs, ys):
    """The same points as each kind of input Cloud(points) reads."""
    pairs = list(zip(xs.tolist(), ys.tolist()))
    return {
        "tuples": pairs,
        "generator": ((x, y) for x, y in pairs),
        "numpy rows": np.column_stack([xs, ys]),
    }


def assert_same_cloud(got, want):
    assert bits(got.xs) == bits(want.xs)
    assert bits(got.ys) == bits(want.ys)
    assert bits(got._moments) == bits(want._moments)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e150, 1e150), st.floats(-1e150, 1e150)),
                min_size=2, max_size=40))
@example((np.random.default_rng(3).random((3 * _CHUNK + 5, 2)) + (1e3, 0)).tolist())
def test_cloud_of_points_is_the_cloud_of_arrays(pts):
    # The example has several chunks.
    xs, ys = np.array(pts).T.copy()
    want = Cloud.from_arrays(xs, ys)
    for points in point_sources(xs, ys).values():
        assert_same_cloud(Cloud(points), want)


@pytest.mark.parametrize("how", ["points", "csv", "from_arrays", *KINDS, "written image"])
def test_every_cloud_is_one_read_only_block(rng, how):
    # Whatever built it, a cloud's coordinates are the two rows of one block
    # that it owns and that is read-only as a whole, reduced to the moments
    # of a copy of them: what it was built from may change after.
    n = 2 * _CHUNK + 3
    xs, ys = 1e3 + rng.random(n), rng.random(n)
    if how == "points":
        cloud = Cloud(zip(xs.tolist(), ys.tolist()))
    elif how in KINDS:
        cloud = generate_cloud(CloudGenSpec(how, n, 0.05, 11))
    elif how == "written image":
        cloud = apply_to_cloud(Matrix2(0.4, -0.4, -0.05, 0.9), Cloud.from_arrays(xs, ys))
        cloud.xs  # reading a coordinate writes the pending image
    else:
        cloud = build_cloud(how, xs, ys)
    assert cloud.xs.base is cloud.ys.base is not None
    assert cloud.xs.base.flags.owndata
    assert not (cloud.xs.flags.writeable or cloud.ys.flags.writeable)
    before = raw_sums(cloud)
    with pytest.raises(ValueError):
        cloud.xs.flags.writeable = True
    with pytest.raises(ValueError):
        cloud.xs.base[...] = 7.0
    xs[...], ys[...] = 0.0, 1.0
    assert raw_sums(cloud) == before
    assert bits(cloud._moments) == bits(Cloud.from_arrays(cloud.xs, cloud.ys)._moments)


class _Counted:
    """f, whose calls and its callable attributes' are counted by name."""

    def __init__(self, f, name, counts):
        self.f, self.name, self.counts = f, name, counts

    def __call__(self, *args, **kwargs):
        self.counts[self.name] = self.counts.get(self.name, 0) + 1
        return self.f(*args, **kwargs)

    def __getattr__(self, attr):
        value = getattr(self.f, attr)
        name = f"{self.name}.{attr}".lstrip(".")
        return _Counted(value, name, self.counts) if callable(value) else value


class TestChunkedReduction:
    """Clouds are reduced in chunks of _CHUNK points, merged pairwise."""

    @pytest.mark.parametrize("n", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   3 * _CHUNK + 5])
    def test_matches_exact_sums(self, rng, n):
        xs = rng.standard_normal(n)
        ys = 0.3 * xs + rng.standard_normal(n)
        assert scatter_ulps(raw_sums(Cloud.from_arrays(xs, ys)),
                            centered_sums(xs, ys)) <= MOMENT_ULPS

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_non_finite_in_last_chunk_rejected(self, rng, bad, axis):
        arrays = [rng.random(3 * _CHUNK + 5), rng.random(3 * _CHUNK + 5)]
        arrays[axis][-1] = bad
        with pytest.raises(ValueError, match="must all be finite"):
            Cloud.from_arrays(*arrays)

    @pytest.mark.parametrize("n", [2, 3 * _CHUNK + 5])
    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_finite_coordinates_with_overflowing_sums_accepted(self, rng, n, scale):
        # 1e200: the squared sums overflow; 1e308: the plain sums do too.
        xs = scale * (1.0 + rng.random(n) / 2)
        cloud = Cloud.from_arrays(xs, rng.random(n))
        assert np.array_equal(cloud.xs, xs)
        with pytest.raises(ValueError, match="must be finite"):
            raw_sums(cloud)

    @pytest.mark.parametrize("n", [2, _DOT + 3, 2 * _DOT, _CHUNK])
    def test_one_chunk_is_a_plain_two_pass_reduction(self, rng, n):
        # To the last bit, a corrected two-pass reduction: the shifted
        # products q as _DOT-point dots added in order, each less r*r/n for
        # the residual sums r, and the cross sum clamped by Cauchy-Schwarz.
        # u and v are the rows of one 2 x n block, as in the pass: a dot
        # kernel may sum in another order where v starts off a 16-byte line.
        xs = 1e3 + rng.random(n)
        ys = 0.3 * xs + rng.random(n)
        u, v = np.stack([a - float(np.add.reduce(a)) / n for a in (xs, ys)])
        rx, ry = float(np.add.reduce(u)), float(np.add.reduce(v))
        q = [0.0, 0.0, 0.0]
        for j in range(0, n, _DOT):
            for i, (p, w) in enumerate(((u, u), (u, v), (v, v))):
                q[i] += float(np.dot(p[j:j + _DOT], w[j:j + _DOT]))
        sxx = max(q[0] - rx * rx / n, 0.0)
        syy = max(q[2] - ry * ry / n, 0.0)
        bound = math.sqrt(sxx) * math.sqrt(syy)
        sxy = min(max(q[1] - rx * ry / n, -bound), bound)
        assert Cloud.from_arrays(xs, ys)._moments == (sxx, sxy, syy)

    @pytest.mark.parametrize("kind", [
        "sorted", "offset-sorted", "jump-after-first-chunk", "step-trend",
        "constant-after-first-chunk", "late-outlier-chunk"])
    def test_adversarial_chunks_match_exact_sums(self, rng, kind):
        # Chunks whose means stray far from the running mean, which every
        # chunk after the first is shifted by.
        n = 3 * _CHUNK + 5
        xs = rng.standard_normal(n)
        ys = 0.5 * xs + rng.standard_normal(n)
        step = np.arange(n) // _CHUNK
        late = slice(2 * _CHUNK, 3 * _CHUNK)
        if kind in ("sorted", "offset-sorted"):
            xs.sort()
            ys.sort()
            if kind == "offset-sorted":
                xs += 1e8
                ys -= 3e7
        elif kind == "jump-after-first-chunk":
            xs[_CHUNK:] += 1e4
            ys[_CHUNK:] -= 3e3
        elif kind == "step-trend":
            xs += 50.0 * step
            ys -= 20.0 * step
        elif kind == "constant-after-first-chunk":
            xs[_CHUNK:] = 0.7
            ys[_CHUNK:] = -1.3
        else:
            xs[late] += 1e6
            ys[late] -= 1e5
        rs = raw_sums(Cloud.from_arrays(xs, ys))
        assert rs.d >= 0.0 and rs.hn >= 0.0
        assert scatter_ulps(rs, centered_sums(xs, ys)) <= MOMENT_ULPS

    # The numpy calls of one moment pass on each of its paths: once, and per
    # 2**15-point chunk.  A pass at its floor gains no sweep unnoticed.
    @pytest.mark.parametrize("path,once,per_chunk", [
        ("copy", {"empty": 1, "add.reduce": 1},
         {"copyto": 2, "subtract": 1, "add.reduce": 1, "vecdot": 3}),
        ("in place", {"empty": 1, "add.reduce": 1},
         {"subtract": 1, "add.reduce": 1, "vecdot": 3}),
        ("pending image", {"empty": 1, "array": 1, "empty_like": 1, "add.reduce": 1},
         {"multiply": 2, "add": 1, "subtract": 1, "add.reduce": 1, "vecdot": 3}),
    ])
    def test_numpy_calls_per_chunk(self, monkeypatch, rng, path, once, per_chunk):
        for chunks in (1, 3):
            block = rng.random((2, chunks * _CHUNK))
            args = {"copy": (tuple(block), None, np.empty_like(block)), "in place": (block,),
                    "pending image": (tuple(block), (1.0, 2.0, 0.0, 1.0))}[path]
            counts, want = {}, coefficients._copy_and_reduce(*args)
            with monkeypatch.context() as patch:  # the pass imports numpy per call
                patch.setitem(sys.modules, "numpy", _Counted(np, "", counts))
                assert coefficients._copy_and_reduce(*args) == want
            assert counts == {name: once.get(name, 0) + chunks * per_chunk.get(name, 0)
                              for name in {*once, *per_chunk}}

    def test_moments_do_not_depend_on_blas_threads(self):
        # The moments, to the last bit, of a seeded cloud of several chunks
        # and of its image, from fresh processes with one and two BLAS
        # threads (the variable is read when numpy loads).
        script = (
            "import numpy as np\n"
            "from cloudinv import Cloud, Matrix2, apply_to_cloud\n"
            "from cloudinv.coefficients import _CHUNK\n"
            "rng = np.random.default_rng(7)\n"
            "xs, ys = rng.random(3 * _CHUNK + 5), rng.random(3 * _CHUNK + 5)\n"
            "cloud = Cloud.from_arrays(1e3 + xs, 0.3 * xs + ys)\n"
            "image = apply_to_cloud(Matrix2(0.4, -0.4, -0.05, 0.9), cloud)\n"
            "print([v.hex() for c in (cloud, image) for v in c._moments])\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            outputs.append(subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True,
                env=env, check=True).stdout)
        assert outputs[0] == outputs[1] != ""


class TestAllocation:
    """Deterministic guard against full-size temporaries: built clouds answer
    queries from their cached moments, building a cloud allocates one 2 x n
    coordinate block plus chunk-sized buffers only, and its image allocates
    chunk-sized buffers only."""

    N = 1_000_000
    QUERY_LIMIT = 64 * 1024
    BUILD_LIMIT = 16 * N + 32 * _CHUNK + 64 * 1024
    IMAGE_LIMIT = 32 * _CHUNK + 64 * 1024

    @pytest.fixture(scope="class")
    def arrays(self):
        rng = np.random.default_rng(5)
        return rng.random(self.N), rng.random(self.N)

    @pytest.mark.parametrize("query", [raw_sums, linear_coefficients,
                                       is_collinear])
    def test_queries_allocate_no_arrays(self, arrays, query):
        cloud = Cloud.from_arrays(*arrays)
        assert traced_peak(lambda: query(cloud)) < self.QUERY_LIMIT

    def test_from_arrays(self, arrays):
        assert traced_peak(lambda: Cloud.from_arrays(*arrays)) <= self.BUILD_LIMIT

    def test_apply_to_cloud(self, arrays):
        cloud = Cloud.from_arrays(*arrays)
        m = Matrix2(0.4, -0.4, -0.05, 0.9)
        assert traced_peak(lambda: apply_to_cloud(m, cloud)) <= self.IMAGE_LIMIT

    def test_read_cloud_csv(self, arrays, tmp_path):
        # Rows go straight into two growing coordinate buffers, which one
        # fused copy-and-reduce pass copies into the cloud's block: no list of
        # rows, no list per axis, no other copy.
        n = 100_000
        path = str(tmp_path / "cloud.csv")
        write_cloud_csv(Cloud.from_arrays(arrays[0][:n], arrays[1][:n]), path)
        assert traced_peak(lambda: read_cloud_csv(path)) <= 48 * n
