"""Least-squares linear coefficients of planar point clouds.

A cloud is summarized by two numbers: the slope M of its least-squares
straight line and a companion ratio H of centered second moments.  Both are
quotients of the centered sums (M_n, H_n, D), so the moments (mean x, mean y,
Sxx, Sxy, Syy) are a sufficient statistic.  A cloud reduces them once, when
it is built: one pass over fixed-size chunks shifts each chunk by a mean
before the quadratic sums are formed (no cancellation on offset clouds) and
merges the chunk results pairwise (Chan, Golub & LeVeque 1979).  The
same pass copies the coordinates into one 2 x n block (``Cloud.from_arrays``),
reduces arrays the cloud takes over (generated clouds), or reduces a matrix
image chunk by chunk without writing it.  Every later query reads the cached
moments.
"""
from __future__ import annotations

import math
from typing import (IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional,
                    Sequence, Union)

from .errors import DegenerateCloud

# numpy is imported by the functions that build arrays, so importing the
# package, or computing with (M, H) alone, does not load it.
if TYPE_CHECKING:
    import numpy as np

# Scale-relative threshold below which the x-spread sum D counts as zero.
DEGENERACY_RTOL = 1e-12

# Default tolerance for the collinearity test.
COLLINEARITY_RTOL = 1e-9

# Points per chunk of the fused copy-and-reduce pass.  A chunk of both output
# coordinates and the two shift buffers (1 MiB together) stays in a
# core's L2 cache, so each value comes from main memory once.
_CHUNK = 1 << 15

# Points per dot product.  OpenBLAS splits a dot of more than 10000 points
# across its threads, which changes the rounding with the thread count; a
# block of 8192 runs on one thread, so the moments do not depend on it.
_DOT = 1 << 13


class _Value:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__`` and sets them once, in
    ``__init__``, with ``object.__setattr__``.  Values are equal when their
    types and fields are, hash by their fields and repr as
    ``Name(field=value, ...)``; assigning or deleting a field raises
    AttributeError.  Pickling and copying restore the fields without calling
    ``__init__``, so a singular ``Matrix2.unchecked`` round-trips too.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    __getstate__ = _fields

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self.__slots__, state):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    @classmethod
    def _not_finite(cls, what: str, *values: float) -> ValueError:
        """The error naming the first field whose value is not finite."""
        name, v = next((name, v) for name, v in zip(cls.__slots__, values)
                       if not math.isfinite(v))
        return ValueError(f"{what}{name} must be finite, got {v}")


class Point(_Value):
    """A planar point with finite coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        x, y = float(x), float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"point coordinates must be finite, got ({x}, {y})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


PointLike = Union[Point, Sequence[float]]


class _Moments(NamedTuple):
    """Means and centered second moments of a cloud's coordinates."""

    mx: float
    my: float
    sxx: float
    sxy: float
    syy: float


_Entries = tuple[float, float, float, float]


def _copy_and_reduce(xs: np.ndarray, ys: np.ndarray, t: Optional[_Entries] = None,
                     out: Optional[np.ndarray] = None) -> _Moments:
    """The moments of (xs, ys), or of their image (a*x + b*y, c*x + d*y)
    under the matrix entries t = (a, b, c, d); given ``out``, that cloud is
    also written to the two rows of ``out``.

    One pass over chunks of ``_CHUNK`` points.  Each chunk (read in place,
    copied to ``out``, or an image chunk written to ``out`` or else to a
    reused chunk-sized buffer) is, while still in cache, shifted into two
    reusable buffers and reduced.  The first chunk is shifted by its own
    mean, every later one by the running mean of the chunks before it (Chan,
    Golub & LeVeque 1983), so no later chunk needs a pass for its own mean.
    The residual sums r of a shifted chunk give its mean, shift + r/k, and
    its centered sums, q - r*r/k from the shifted products q; each product
    is one ``vecdot`` over ``_DOT``-point rows, summed in order.  The chunk
    results are merged pairwise, with means held relative to the first
    chunk's mean, so the merge keeps full accuracy on offset clouds.  A cloud
    of one chunk gets exactly the sums of a plain two-pass reduction.  The
    arithmetic does not depend on ``out``, so the moments are the same bits
    with or without it.
    """
    import numpy as np

    n = xs.size
    cx, cy = np.empty((2, min(n, _CHUNK)))
    if out is None and t is not None:
        tx, ty = np.empty((2, min(n, _CHUNK)))
    count = 0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        k = hi - lo
        bx, by = cx[:k], cy[:k]
        if t is not None:
            x, y = (tx[:k], ty[:k]) if out is None else out[:, lo:hi]
            a, b, c, d = t
            np.multiply(xs[lo:hi], a, out=x)
            np.multiply(ys[lo:hi], b, out=bx)
            np.add(x, bx, out=x)
            np.multiply(xs[lo:hi], c, out=y)
            np.multiply(ys[lo:hi], d, out=by)
            np.add(y, by, out=y)
        elif out is not None:
            x, y = out[:, lo:hi]
            np.copyto(x, xs[lo:hi])
            np.copyto(y, ys[lo:hi])
        else:
            x, y = xs[lo:hi], ys[lo:hi]
        if count == 0:
            x0 = float(np.add.reduce(x)) / k
            y0 = float(np.add.reduce(y)) / k
            sx, sy = x0, y0
        else:
            sx, sy = x0 + mean_x, y0 + mean_y
        np.subtract(x, sx, out=bx)
        np.subtract(y, sy, out=by)
        rx = float(np.add.reduce(bx))
        ry = float(np.add.reduce(by))
        ux = (sx - x0) + rx / k
        uy = (sy - y0) + ry / k
        sxx = sxy = syy = 0.0
        m = k - k % _DOT
        for u, v in ((bx[:m], by[:m]), (bx[m:k], by[m:k])):
            if u.size:
                u = u.reshape(-1, min(u.size, _DOT))
                v = v.reshape(u.shape)
                for pxx, pxy, pyy in zip(np.vecdot(u, u).tolist(), np.vecdot(u, v).tolist(),
                                         np.vecdot(v, v).tolist()):
                    sxx += pxx
                    sxy += pxy
                    syy += pyy
        if count == 0:
            mean_x, mean_y, acc_xx, acc_xy, acc_yy = ux, uy, sxx, sxy, syy
        else:
            total = count + k
            dx = ux - mean_x
            dy = uy - mean_y
            w = k / total
            mean_x += dx * w
            mean_y += dy * w
            f = count * w
            acc_xx += max(sxx - rx * rx / k, 0.0) + dx * dx * f
            acc_xy += sxy - rx * ry / k + dx * dy * f
            acc_yy += max(syy - ry * ry / k, 0.0) + dy * dy * f
        count += k
    return _Moments(x0 + mean_x, y0 + mean_y, acc_xx, acc_xy, acc_yy)


class Cloud:
    """An ordered sequence of at least two planar points.

    Point order is preserved, but every derived quantity is a symmetric sum
    and therefore order-independent.  Coordinates are read-only float64
    arrays; their moments are reduced once, when the cloud is built.

    The image of a cloud under a matrix (see ``transform.apply_to_cloud``)
    starts out pending: it holds its source's arrays and the matrix entries
    ``_t``, and only its moments are reduced.  Its coordinates are written,
    once, when ``xs``, ``ys``, the points or an iteration first asks for
    them; ``len`` and the moment queries never do.
    """

    __slots__ = ("_xs", "_ys", "_moments", "_t")

    def __init__(self, points: Iterable[PointLike]):
        import numpy as np

        pts = [(p.x, p.y) if isinstance(p, Point) else (float(p[0]), float(p[1]))
               for p in points]
        if len(pts) < 2:
            raise ValueError(f"a cloud needs at least 2 points, got {len(pts)}")
        self._fill(np.array([p[0] for p in pts], dtype=np.float64),
                   np.array([p[1] for p in pts], dtype=np.float64))

    @classmethod
    def from_arrays(cls, xs: np.ndarray, ys: np.ndarray) -> "Cloud":
        """Build a cloud from equal-length coordinate arrays (copied)."""
        import numpy as np

        xs = np.asarray(xs, dtype=np.float64)
        ys = np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1:
            raise ValueError("coordinate arrays must be 1-D and equal length")
        if xs.size < 2:
            raise ValueError(f"a cloud needs at least 2 points, got {xs.size}")
        cloud = object.__new__(cls)
        cloud._fill(xs, ys, copy=True)
        return cloud

    @classmethod
    def _own(cls, xs: np.ndarray, ys: np.ndarray,
             t: Optional[_Entries] = None) -> "Cloud":
        """A cloud over (xs, ys) themselves, which it marks read-only, or the
        pending image of them under the matrix entries t.  The arrays must be
        1-D float64 of one length >= 2 that no one else writes to."""
        cloud = object.__new__(cls)
        cloud._fill(xs, ys, t)
        return cloud

    def _fill(self, xs: np.ndarray, ys: np.ndarray,
              t: Optional[_Entries] = None, copy: bool = False) -> None:
        """Hold (xs, ys), a fresh copy of them (``copy``), or their image
        under the matrix entries t (pending unless ``copy``), and cache the
        moments of the cloud held.  A copy is one 2 x n block, its rows the
        coordinates."""
        import numpy as np

        out = np.empty((2, xs.size)) if copy else None
        # Non-finite values are expected here and judged just below.
        with np.errstate(over="ignore", invalid="ignore"):
            moments = _copy_and_reduce(xs, ys, t, out)
        if out is not None:
            (xs, ys), t = out, None
        xs.flags.writeable = False
        ys.flags.writeable = False
        self._xs, self._ys, self._moments, self._t = xs, ys, moments, t
        # A non-finite coordinate makes its axis mean non-finite; finite
        # coordinates whose sums overflow are still a valid cloud.  Reading
        # ``self.xs`` writes a pending image first.
        if not all(map(math.isfinite, moments)) and not (
                np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.ys))):
            raise ValueError("cloud coordinates must all be finite")

    @property
    def xs(self) -> np.ndarray:
        """The x coordinates, a read-only float64 array."""
        if self._t is not None:
            self._fill(self._xs, self._ys, self._t, copy=True)
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        """The y coordinates, a read-only float64 array."""
        if self._t is not None:
            self._fill(self._xs, self._ys, self._t, copy=True)
        return self._ys

    def __len__(self) -> int:
        return int(self._xs.size)

    def __iter__(self) -> Iterator[Point]:
        for x, y in zip(self.xs, self.ys):
            yield Point(float(x), float(y))

    @property
    def points(self) -> tuple[Point, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"Cloud(n={len(self)})"


class RawSums(_Value):
    """The centered second-moment sums (M_n, H_n, D) of a cloud.

    For any real cloud: d >= 0, hn >= 0 and hn*d >= mn**2 (Cauchy-Schwarz),
    with equality exactly on collinear clouds.
    """

    __slots__ = ("mn", "hn", "d")

    def __init__(self, mn: float, hn: float, d: float) -> None:
        mn, hn, d = float(mn), float(hn), float(d)
        if not (math.isfinite(mn) and math.isfinite(hn) and math.isfinite(d)):
            raise self._not_finite("raw sum ", mn, hn, d)
        object.__setattr__(self, "mn", mn)
        object.__setattr__(self, "hn", hn)
        object.__setattr__(self, "d", d)


class LinearCoefficients(_Value):
    """The pair (M, H) identifying a cloud: slope and constant term.

    Satisfies h >= m**2 when produced from a valid cloud, with equality
    exactly on collinear clouds.
    """

    __slots__ = ("m", "h")

    def __init__(self, m: float, h: float) -> None:
        m, h = float(m), float(h)
        if not (math.isfinite(m) and math.isfinite(h)):
            raise self._not_finite("coefficient ", m, h)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "h", h)


def raw_sums(cloud: Cloud) -> RawSums:
    """The centered sums (M_n, H_n, D) of a cloud: n times its co-moments.

    Reads the moments the cloud reduced when it was built (chunk by chunk,
    each chunk shifted by a mean, then merged), so this costs O(1).
    Equal to N*sum(xy) - sum(x)*sum(y) etc. in exact arithmetic but without
    the catastrophic cancellation the raw formulas suffer on offset clouds.
    """
    n = len(cloud)
    mo = cloud._moments
    return RawSums(n * mo.sxy, n * mo.syy, n * mo.sxx)


def _d_scale(cloud: Cloud) -> float:
    # n * sum(x**2), from the moments: sum(x**2) = Sxx + n * mean_x**2.
    n = len(cloud)
    mo = cloud._moments
    return max(1.0, n * (mo.sxx + n * mo.mx * mo.mx))


def linear_coefficients(cloud: Cloud) -> LinearCoefficients:
    """Compute (M, H) = (M_n/D, H_n/D) for a cloud.

    Raises:
        DegenerateCloud: if D is zero within ``DEGENERACY_RTOL`` relative to
            the cloud's coordinate scale (all x effectively equal).
    """
    rs = raw_sums(cloud)
    if abs(rs.d) <= DEGENERACY_RTOL * _d_scale(cloud):
        raise DegenerateCloud(
            f"x-spread sum D={rs.d} is zero within tolerance; "
            "least-squares line is vertical"
        )
    return LinearCoefficients(rs.mn / rs.d, rs.hn / rs.d)


def is_collinear(cloud: Cloud, tol: float = COLLINEARITY_RTOL) -> bool:
    """True iff the cloud lies on a straight line (any orientation).

    Tests the Cauchy-Schwarz gap hn*d - mn**2 against tol*max(1, hn*d);
    consistent with h == m**2 whenever d > 0, and also detects vertical
    lines, where d == 0.
    """
    if not tol >= 0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    rs = raw_sums(cloud)
    gap = rs.hn * rs.d - rs.mn * rs.mn
    return gap <= tol * max(1.0, rs.hn * rs.d)


def read_cloud_csv(source: Union[str, IO[str]]) -> Cloud:
    """Read a cloud from CSV: one `x,y` pair per line.

    An optional header line `x,y` is skipped; blank lines are ignored;
    LF and CRLF line endings are both accepted.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_cloud_csv(fh)
    pts: list[tuple[float, float]] = []
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line:
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 2:
            raise ValueError(f"line {lineno}: expected 'x,y', got {line!r}")
        if lineno == 1 and cells[0].lower() == "x" and cells[1].lower() == "y":
            continue
        try:
            pts.append((float(cells[0]), float(cells[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad number in {line!r}") from exc
    return Cloud(pts)


def write_cloud_csv(cloud: Cloud, dest: Union[str, IO[str]], header: bool = True) -> None:
    """Write a cloud in the CSV format accepted by :func:`read_cloud_csv`."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_cloud_csv(cloud, fh, header=header)
        return
    if header:
        dest.write("x,y\n")
    for x, y in zip(cloud.xs, cloud.ys):
        dest.write(f"{float(x)!r},{float(y)!r}\n")
