import io
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinv import (Cloud, DegenerateCloud, Matrix2, Point, apply_to_cloud,
                      is_collinear, linear_coefficients, raw_sums,
                      read_cloud_csv, write_cloud_csv)
from cloudinv.coefficients import _CHUNK, _DOT
from conftest import assert_sums_close, traced_peak, two_pass_sums

TRIANGLE = [(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]


class TestPointAndCloud:
    def test_point_rejects_nan(self):
        with pytest.raises(ValueError):
            Point(float("nan"), 0.0)
        with pytest.raises(ValueError):
            Point(0.0, float("inf"))

    def test_cloud_needs_two_points(self):
        with pytest.raises(ValueError):
            Cloud([(0.0, 0.0)])

    def test_cloud_accepts_points_and_pairs(self):
        c = Cloud([Point(0, 0), (1, 1)])
        assert len(c) == 2
        assert c.points == (Point(0, 0), Point(1, 1))

    def test_from_arrays_checks_shape(self):
        with pytest.raises(ValueError):
            Cloud.from_arrays(np.zeros(3), np.zeros(4))

    def test_cloud_arrays_read_only(self):
        c = Cloud(TRIANGLE)
        with pytest.raises(ValueError):
            c.xs[0] = 5.0


class TestRawSums:
    def test_triangle(self):
        rs = raw_sums(Cloud(TRIANGLE))
        assert rs.mn == pytest.approx(0.0, abs=1e-12)
        assert rs.hn == pytest.approx(2.0, abs=1e-12)
        assert rs.d == pytest.approx(6.0, abs=1e-12)

    def test_two_points(self):
        rs = raw_sums(Cloud([(0, 0), (1, 1)]))
        assert (rs.mn, rs.hn, rs.d) == pytest.approx((1.0, 1.0, 1.0))

    def test_duplicated_point(self):
        rs = raw_sums(Cloud([(3.5, -2.0), (3.5, -2.0)]))
        assert (rs.mn, rs.hn, rs.d) == (0.0, 0.0, 0.0)


class TestLinearCoefficients:
    def test_triangle(self):
        lc = linear_coefficients(Cloud(TRIANGLE))
        assert lc.m == pytest.approx(0.0, abs=1e-15)
        assert lc.h == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_diagonal_line(self):
        lc = linear_coefficients(Cloud([(0, 0), (1, 1), (2, 2)]))
        assert lc.m == pytest.approx(1.0)
        assert lc.h == pytest.approx(1.0)
        assert lc.h == pytest.approx(lc.m ** 2)

    def test_vertical_line_degenerate(self):
        with pytest.raises(DegenerateCloud):
            linear_coefficients(Cloud([(0, 0), (0, 1), (0, 2)]))

    def test_degeneracy_scale_relative(self):
        # Large equal x-coordinates still count as degenerate.
        with pytest.raises(DegenerateCloud):
            linear_coefficients(Cloud([(1e8, 0), (1e8, 1), (1e8, 2)]))


class TestIsCollinear:
    def test_exact_line(self):
        assert is_collinear(Cloud([(0, 0), (1, 1), (2, 2)]), 1e-9)

    def test_triangle_not_collinear(self):
        assert not is_collinear(Cloud(TRIANGLE), 1e-9)

    def test_vertical_line(self):
        assert is_collinear(Cloud([(0, 0), (0, 1), (0, 2)]), 1e-9)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            is_collinear(Cloud(TRIANGLE), -1.0)

    def test_nan_tol_rejected(self):
        with pytest.raises(ValueError, match="tol must be nonnegative"):
            is_collinear(Cloud(TRIANGLE), float("nan"))


coords = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=2, max_size=40),
       st.randoms(use_true_random=False))
def test_permutation_invariance(pts, pyrandom):
    shuffled = list(pts)
    pyrandom.shuffle(shuffled)
    a = raw_sums(Cloud(pts))
    b = raw_sums(Cloud(shuffled))
    for va, vb in [(a.mn, b.mn), (a.hn, b.hn), (a.d, b.d)]:
        assert abs(va - vb) <= 1e-12 * max(1.0, abs(va), abs(vb))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=2, max_size=40))
def test_nonnegativity_and_cauchy_schwarz(pts):
    rs = raw_sums(Cloud(pts))
    assert rs.d >= 0.0
    assert rs.hn >= 0.0
    gap = rs.hn * rs.d - rs.mn * rs.mn
    assert gap >= -1e-9 * max(1.0, rs.hn * rs.d)


def test_offset_cloud_cancellation(rng):
    # Centered sums survive a large common offset that would wreck the raw
    # textbook formulas.
    xs = rng.random(200)
    ys = rng.random(200)
    near = raw_sums(Cloud.from_arrays(xs, ys))
    far = raw_sums(Cloud.from_arrays(xs + 1e6, ys + 1e6))
    assert far.mn == pytest.approx(near.mn, rel=1e-6, abs=1e-4)
    assert far.hn == pytest.approx(near.hn, rel=1e-6)
    assert far.d == pytest.approx(near.d, rel=1e-6)


def test_collinear_iff_zero_gap():
    # Equality in Cauchy-Schwarz exactly on collinear clouds.
    line = Cloud([(0.0, 0.0), (1.0, 0.5), (2.0, 1.0), (4.0, 2.0)])
    rs = raw_sums(line)
    assert rs.hn * rs.d - rs.mn ** 2 == pytest.approx(0.0, abs=1e-12)
    assert is_collinear(line, 1e-12)
    bent = Cloud([(0.0, 0.0), (1.0, 0.5), (2.0, 2.0)])
    rsb = raw_sums(bent)
    assert rsb.hn * rsb.d - rsb.mn ** 2 > 0.1


class TestCsv:
    def test_read_with_header(self):
        cloud = read_cloud_csv(io.StringIO("x,y\n0,0\n1,1\n2,0\n"))
        assert len(cloud) == 3
        assert cloud.points[2] == Point(2, 0)

    def test_read_without_header_and_blank_lines(self):
        cloud = read_cloud_csv(io.StringIO("0,0\n\n1,1\n\n"))
        assert len(cloud) == 2

    def test_read_crlf(self):
        cloud = read_cloud_csv(io.StringIO("x,y\r\n1.5,-2\r\n0,3\r\n"))
        assert cloud.points[0] == Point(1.5, -2.0)

    def test_read_bad_cell_count(self):
        with pytest.raises(ValueError):
            read_cloud_csv(io.StringIO("1,2,3\n"))

    def test_read_bad_number(self):
        with pytest.raises(ValueError):
            read_cloud_csv(io.StringIO("1,zzz\n"))

    def test_roundtrip(self, rng):
        cloud = Cloud.from_arrays(rng.random(10), rng.random(10))
        buf = io.StringIO()
        write_cloud_csv(cloud, buf)
        back = read_cloud_csv(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.xs, cloud.xs)
        assert np.array_equal(back.ys, cloud.ys)


def exact_sums(xs, ys):
    """The exact (M_n, H_n, D) of float arrays, as Fractions: every value is
    an integer over one common power of two, so integer sums are exact."""
    n = xs.size
    ratios = [v.as_integer_ratio() for v in xs.tolist() + ys.tolist()]
    den = max(q for _, q in ratios)
    ints = [p * (den // q) for p, q in ratios]
    xi, yi = ints[:n], ints[n:]
    sx, sy = sum(xi), sum(yi)
    return (Fraction(n * sum(map(int.__mul__, xi, yi)) - sx * sy, den * den),
            Fraction(n * sum(v * v for v in yi) - sy * sy, den * den),
            Fraction(n * sum(v * v for v in xi) - sx * sx, den * den))


class TestChunkedReduction:
    """Clouds are reduced in chunks of _CHUNK points, merged pairwise."""

    @pytest.mark.parametrize("n", [2, _CHUNK - 1, _CHUNK, _CHUNK + 1,
                                   3 * _CHUNK + 5])
    def test_matches_two_pass_reference(self, rng, n):
        xs = rng.standard_normal(n)
        ys = 0.3 * xs + rng.standard_normal(n)
        assert_sums_close(raw_sums(Cloud.from_arrays(xs, ys)),
                          two_pass_sums(xs.tolist(), ys.tolist()))

    def test_offset_cloud_over_several_chunks(self, rng):
        n = 3 * _CHUNK + 5
        xs = 1e8 + rng.standard_normal(n)
        ys = -3e7 + 0.3 * (xs - 1e8) + rng.standard_normal(n)
        assert_sums_close(raw_sums(Cloud.from_arrays(xs, ys)),
                          two_pass_sums(xs.tolist(), ys.tolist()))

    def test_vertical_line_over_several_chunks(self, rng):
        n = 3 * _CHUNK + 5
        with pytest.raises(DegenerateCloud):
            linear_coefficients(Cloud.from_arrays(np.full(n, 1e8),
                                                  rng.standard_normal(n)))

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

    def test_from_arrays_copies(self, rng):
        xs = rng.random(3 * _CHUNK + 5)
        ys = rng.random(3 * _CHUNK + 5)
        cloud = Cloud.from_arrays(xs, ys)
        kept = (cloud.xs.copy(), cloud.ys.copy(), raw_sums(cloud))
        xs[:] = 0.0
        ys[:] = 1.0
        assert np.array_equal(cloud.xs, kept[0])
        assert np.array_equal(cloud.ys, kept[1])
        assert raw_sums(cloud) == kept[2]

    @pytest.mark.parametrize("n", [2, _DOT + 3, 2 * _DOT, _CHUNK])
    def test_one_chunk_is_a_plain_two_pass_reduction(self, rng, n):
        # To the last bit: the mean, corrected by the residual sum, and the
        # centered sums as _DOT-point dots added in order.
        xs = 1e3 + rng.random(n)
        ys = 0.3 * xs + rng.random(n)
        want = []
        for a in (xs, ys):
            m = float(np.add.reduce(a)) / n
            want.append((m, a - m))
        (mx, u), (my, v) = want
        sums = [0.0, 0.0, 0.0]
        for j in range(0, n, _DOT):
            for i, (p, q) in enumerate(((u, u), (u, v), (v, v))):
                sums[i] += float(np.dot(p[j:j + _DOT], q[j:j + _DOT]))
        assert tuple(Cloud.from_arrays(xs, ys)._moments) == (
            mx + float(np.add.reduce(u)) / n, my + float(np.add.reduce(v)) / n,
            *sums)

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
        mn, hn, d = exact_sums(xs, ys)
        assert rs.d >= 0.0 and rs.hn >= 0.0
        assert abs(Fraction(rs.d) - d) <= 1e-14 * d
        assert abs(Fraction(rs.hn) - hn) <= 1e-14 * hn
        assert abs(Fraction(rs.mn) - mn) <= 1e-14 * math.sqrt(d * hn)

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

    def test_from_arrays_copies_into_one_block(self, arrays):
        # Both coordinates live in one 2 x n allocation, not one per axis.
        tracemalloc.start()
        try:
            cloud = Cloud.from_arrays(*arrays)
            large = [t.size for t in tracemalloc.take_snapshot().traces
                     if t.size >= 8 * self.N]
        finally:
            tracemalloc.stop()
        assert large == [16 * self.N]
        assert cloud.xs.base is cloud.ys.base

    def test_apply_to_cloud(self, arrays):
        cloud = Cloud.from_arrays(*arrays)
        m = Matrix2(0.4, -0.4, -0.05, 0.9)
        assert traced_peak(lambda: apply_to_cloud(m, cloud)) <= self.IMAGE_LIMIT
