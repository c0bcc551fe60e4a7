"""Least-squares linear coefficients of planar point clouds.

A cloud is summarized by its scatter matrix S = [[D, M_n], [M_n, H_n]] of
centered second-moment sums (:class:`Scatter`).  The slope M of its
least-squares straight line and a companion ratio H are the chart
(M, H) = (M_n/D, H_n/D) on S, so the centered sums are a sufficient
statistic.  A cloud reduces them once, when it is built, in one pass that
reduces every fixed-size chunk by one rule (Chan, Golub & LeVeque 1979):
shift by a mean, correct by the residual sum, merge.  So offset clouds lose
nothing to cancellation, and a column of equal values has exactly zero
spread.  The same pass copies the coordinates into one 2 x n block
(``Cloud.from_arrays``), reduces arrays the cloud takes over (generated
clouds), or reduces a matrix image chunk by chunk without writing it.
"""
from __future__ import annotations

import math
import reprlib
from typing import (IO, TYPE_CHECKING, Iterable, Iterator, NamedTuple, Optional,
                    Sequence, Union)

from .errors import DegenerateCloud

# numpy is imported by the functions that build arrays, so importing the
# package, or computing with (M, H) alone, does not load it.
if TYPE_CHECKING:
    import numpy as np

# The package's one tolerance.  A guarded quantity (D, the determinant, the
# identity and uniform-scaling tests, the induced-map and kernel denominators)
# is zero when at most RTOL times the largest value its expression can take
# for inputs of their magnitudes: a bound of its own degree, no unit floor.
RTOL = 1e-12

# The tolerance of the collinearity test.
COLLINEARITY_RTOL = 1e-9

# Points per chunk of the fused copy-and-reduce pass.  A chunk of both output
# coordinates and the two shift buffers (1 MiB together) stays in a
# core's L2 cache, so each value comes from main memory once.
_CHUNK = 1 << 15

# Points per dot product.  OpenBLAS splits a dot of more than 10000 points
# across its threads, which changes the rounding with the thread count; a
# block of 8192 runs on one thread, so the moments do not depend on it.
_DOT = 1 << 13

# An error quotes a value through this repr: a string, an int or another
# object of more than 400 characters as head ... tail, a container by its
# first items.  (The constructor takes no keywords before Python 3.12.)
_QUOTE = reprlib.Repr()
_QUOTE.maxstring = _QUOTE.maxlong = _QUOTE.maxother = 400


class _Value:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__`` and sets them once, in
    ``__init__``, with ``object.__setattr__``.  Values are equal when their
    types and fields are, hash by their fields and repr as
    ``Name(field=value, ...)``; assigning or deleting a field raises
    AttributeError.  Pickling and copying restore the fields without calling
    ``__init__``.
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

    def _set_floats(self, prefix: str, *values: float) -> None:
        """Set the fields, in slot order, to the values read by :func:`_real`,
        each named ``prefix + name``; a finite float is taken as it is."""
        for name, v in zip(self.__slots__, values):
            if type(v) is not float or not math.isfinite(v):
                v = _real(v, prefix + name)
            object.__setattr__(self, name, v)


def _real(value: object, name: str) -> float:
    """A number from a caller as a float: what ``float()`` converts, except
    bool (numpy's too), str, bytes and bytearray, if finite; else ValueError naming it."""
    if (not isinstance(value, (bool, str, bytes, bytearray))
            and getattr(getattr(value, "dtype", None), "kind", "") != "b"):
        try:
            v = float(value)
        except (TypeError, ValueError, OverflowError):
            v = math.nan
        if math.isfinite(v):
            return v
    try:
        got = _QUOTE.repr(value)
    except ValueError:  # an int too long for a decimal string
        got = f"an int of {value.bit_length()} bits"
    raise ValueError(f"{name} must be finite, got {got}")


def _parse_floats(text: str, count: int | None = None,
                 what: str = "") -> list[float]:
    """The finite floats of a comma-separated list from outside (an argv
    value, a CSV row, a matrix row), each item read by ``float``, and
    ``count`` of them if given; else ValueError, ``what`` + the text."""
    try:
        values = [*map(float, text.split(","))]
    except ValueError:
        values = [math.nan]
    if count in (None, len(values)) and all(map(math.isfinite, values)):
        return values
    size = f"{count} " if count else ""
    raise ValueError(f"{what}{_QUOTE.repr(text)} is not a list of {size}finite numbers")


class Point(_Value):
    """A planar point with finite coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self._set_floats("point ", x, y)


PointLike = Union[Point, Sequence[float]]


class _Moments(NamedTuple):
    """Centered second moments of a cloud's coordinates, and the bound q."""

    sxx: float
    sxy: float
    syy: float
    q: float


Entries = tuple[float, float, float, float]


def _copy_and_reduce(xs: np.ndarray, ys: np.ndarray, t: Optional[Entries] = None,
                     out: Optional[np.ndarray] = None) -> _Moments:
    """The moments of (xs, ys), or of their image (a*x + b*y, c*x + d*y)
    under the matrix entries t = (a, b, c, d); given ``out``, that cloud is
    also written to the two rows of ``out``.

    One pass over chunks of ``_CHUNK`` points.  Each chunk (read in place,
    copied to ``out``, or an image chunk written to ``out`` or else to a
    reused chunk-sized buffer) is, while still in cache, shifted into two
    reusable buffers and reduced by one rule (Chan, Golub & LeVeque 1983).
    The shift is x0, the first chunk's own mean, plus the running mean held
    relative to x0 (0 before the first chunk), so no later chunk needs a pass
    for its own mean and offset clouds keep full accuracy.  The residual sums
    r of the shifted chunk give its mean, shift + r/k, and its centered sums,
    q - r*r/k from the shifted products q (each one ``vecdot`` over
    ``_DOT``-point rows, summed in order), clamped to a positive semidefinite
    2 x 2 matrix; the pairwise update, whose merge term is 0 on the first
    chunk, then adds them in.  A column of equal values shifts to k copies
    of one small number, so its centered sums are exactly 0.  The moments' q
    sums the non-negative terms added into Sxx: each q of x and each
    dx*dx*f.  The arithmetic does not depend on ``out``, so the moments are
    the same bits with or without it.
    """
    import numpy as np

    n = xs.size
    cx, cy = np.empty((2, min(n, _CHUNK)))
    if out is None and t is not None:
        tx, ty = np.empty((2, min(n, _CHUNK)))
    mean_x = mean_y = acc_xx = acc_xy = acc_yy = acc_q = 0.0
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
        if lo == 0:
            x0 = float(np.add.reduce(x)) / k
            y0 = float(np.add.reduce(y)) / k
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
        dx = ux - mean_x
        dy = uy - mean_y
        w = k / hi
        mean_x += dx * w
        mean_y += dy * w
        f = lo * w
        cxx = max(sxx - rx * rx / k, 0.0)
        cyy = max(syy - ry * ry / k, 0.0)
        bound = math.sqrt(cxx) * math.sqrt(cyy)
        gxx = dx * dx * f
        acc_xx += cxx + gxx
        acc_xy += min(max(sxy - rx * ry / k, -bound), bound) + dx * dy * f
        acc_yy += cyy + dy * dy * f
        acc_q += sxx + gxx
    return _Moments(acc_xx, acc_xy, acc_yy, acc_q)


class Cloud:
    """An ordered sequence of at least two planar points.

    Point order is preserved, but every derived quantity is a symmetric sum
    and therefore order-independent.  Coordinates are read-only float64
    arrays; their moments are reduced once, when the cloud is built.
    ``Cloud(points)`` reads the points once, into two growing buffers that
    the cloud then holds without a copy; a point is a :class:`Point` or a
    sequence of exactly two numbers (:func:`_real`), and a string is refused.

    The image of a cloud under a matrix (see ``transform.apply_to_cloud``)
    starts out pending: it holds its source's arrays and the matrix entries
    ``_t``, and only its moments are reduced.  Its coordinates are written,
    once, when ``xs`` or ``ys`` first asks for them; ``len`` and the moment
    queries never do.
    """

    __slots__ = ("_xs", "_ys", "_moments", "_t")

    def __init__(self, points: Iterable[PointLike]):
        from array import array

        import numpy as np

        xs, ys = array("d"), array("d")
        for p in points:
            if isinstance(p, Point):
                p = p.x, p.y
            try:  # a string is not a pair of characters (or of ints)
                x, y = () if isinstance(p, (str, bytes, bytearray)) else p
            except (TypeError, ValueError):
                raise ValueError("a point must be 2 coordinates, got "
                                 f"{_QUOTE.repr(p)}") from None
            xs.append(x if type(x) is float and math.isfinite(x) else _real(x, "point x"))
            ys.append(y if type(y) is float and math.isfinite(y) else _real(y, "point y"))
        if len(xs) < 2:
            raise ValueError(f"a cloud needs at least 2 points, got {len(xs)}")
        self._fill(np.frombuffer(xs), np.frombuffer(ys))

    @classmethod
    def from_arrays(cls, xs: np.ndarray, ys: np.ndarray) -> "Cloud":
        """Build a cloud from equal-length integer or float arrays (copied)."""
        import numpy as np

        xs, ys = np.asarray(xs), np.asarray(ys)
        if (xs.shape != ys.shape or xs.ndim != 1
                or xs.dtype.kind not in "iuf" or ys.dtype.kind not in "iuf"):
            raise ValueError("coordinate arrays must be 1-D, equal-length and real, "
                             f"got {xs.dtype} {xs.shape} and {ys.dtype} {ys.shape}")
        if xs.size < 2:
            raise ValueError(f"a cloud needs at least 2 points, got {xs.size}")
        cloud = object.__new__(cls)
        cloud._fill(xs, ys, copy=True)
        return cloud

    @classmethod
    def _own(cls, xs: np.ndarray, ys: np.ndarray,
             t: Optional[Entries] = None) -> "Cloud":
        """A cloud over (xs, ys) themselves, which it marks read-only, or the
        pending image of them under the matrix entries t.  The arrays must be
        1-D float64 of one length >= 2 that no one else writes to."""
        cloud = object.__new__(cls)
        cloud._fill(xs, ys, t)
        return cloud

    def _fill(self, xs: np.ndarray, ys: np.ndarray,
              t: Optional[Entries] = None, copy: bool = False) -> None:
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
        # A non-finite coordinate makes the moments non-finite; finite
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

    def __repr__(self) -> str:
        return f"Cloud(n={len(self)})"


class Scatter(_Value):
    """The symmetric scatter matrix S = [[d, mn], [mn, hn]] of a cloud.

    Its entries are the centered sums (M_n, H_n, D).  (M, H) = (mn/d, hn/d)
    is a chart on S; the chart point ``LinearCoefficients(m, h)`` is the
    scatter with d = 1.  For any real cloud: d >= 0, hn >= 0 and
    hn*d >= mn**2 (Cauchy-Schwarz), with equality exactly on collinear clouds.
    """

    __slots__ = ("mn", "hn", "d")

    def __init__(self, mn: float, hn: float, d: float) -> None:
        self._set_floats("scatter ", mn, hn, d)

    @property
    def m(self) -> float:
        """The slope M = mn / d (DegenerateCloud at d = 0)."""
        return self._over_d(self.mn)

    @property
    def h(self) -> float:
        """The constant term H = hn / d (DegenerateCloud at d = 0)."""
        return self._over_d(self.hn)

    def _over_d(self, value: float) -> float:
        if self.d == 0.0:
            raise DegenerateCloud("scatter d is 0: (M, H) is undefined")
        return value / self.d


def LinearCoefficients(m: float, h: float) -> Scatter:
    """The chart point (M, H): the scatter (m, h, 1)."""
    return Scatter(m, h, 1.0)


def raw_sums(cloud: Cloud) -> Scatter:
    """The scatter S = (M_n, H_n, D) of a cloud: n times its co-moments.

    Reads the moments the cloud reduced when it was built, so this costs O(1).
    Equal to N*sum(xy) - sum(x)*sum(y) etc. in exact arithmetic but without
    the catastrophic cancellation the raw formulas suffer on offset clouds.
    """
    n = len(cloud)
    mo = cloud._moments
    return Scatter(n * mo.sxy, n * mo.syy, n * mo.sxx)


def linear_coefficients(cloud: Cloud) -> Scatter:
    """The chart point (M, H) = (M_n/D, H_n/D) of a cloud's scatter.

    Raises:
        DegenerateCloud: if |D| is at most RTOL * n*Q, where Q is the sum of
            the non-negative terms the reduction adds into Sxx (the shifted
            sums of squares and the merge terms): a bound of D's own degree
            that no translation of the cloud moves (all x effectively equal).
    """
    rs = raw_sums(cloud)
    if abs(rs.d) <= RTOL * len(cloud) * cloud._moments.q:
        raise DegenerateCloud(
            f"x-spread sum D={rs.d} is zero within tolerance; "
            "least-squares line is vertical"
        )
    return LinearCoefficients(rs.mn / rs.d, rs.hn / rs.d)


def is_collinear(cloud: Cloud) -> bool:
    """True iff the cloud lies on a straight line (any orientation).

    Tests the Cauchy-Schwarz gap d - mn**2/hn against COLLINEARITY_RTOL*d,
    its largest value, in degree 2 so that no product underflows.  True on
    vertical lines (d == 0) and horizontal ones (hn == 0); agrees with
    h == m**2.  A constant y has hn exactly 0, at any offset.
    """
    rs = raw_sums(cloud)
    return (rs.hn == 0.0 or
            rs.mn * (rs.mn / rs.hn) >= (1.0 - COLLINEARITY_RTOL) * rs.d)


def read_cloud_csv(source: Union[str, IO[str]]) -> Cloud:
    """Read a cloud from CSV: one `x,y` pair per line, under the one rule
    for number lists (:func:`_parse_floats`), into the cloud's buffers.

    An optional header line `x,y` is skipped; blank lines are ignored;
    LF and CRLF line endings are both accepted, and so is a leading UTF-8
    byte-order mark.
    """
    if isinstance(source, str):
        try:
            with open(source, "r", encoding="utf-8-sig", newline="") as fh:
                return read_cloud_csv(fh)
        except UnicodeDecodeError:
            # The decoder's position is inside its read buffer; name the line.
            with open(source, "rb") as fh:
                for lineno, raw in enumerate(fh, start=1):
                    try:
                        raw.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise ValueError(f"line {lineno}: {exc}") from None
            raise
    return Cloud(_csv_rows(source))


def _csv_rows(lines: Iterable[str]) -> Iterator[list[float]]:
    for lineno, raw in enumerate(lines, start=1):
        line = (raw.removeprefix("\ufeff") if lineno == 1 else raw).strip()
        if not line or lineno == 1 and "".join(line.split()).lower() == "x,y":
            continue
        try:
            yield _parse_floats(line, 2)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None


def write_cloud_csv(cloud: Cloud, dest: Union[str, IO[str]]) -> None:
    """Write a cloud, header line first, in the CSV form read_cloud_csv reads."""
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8", newline="") as fh:
            write_cloud_csv(cloud, fh)
        return
    dest.write("x,y\n")
    for x, y in zip(cloud.xs, cloud.ys):
        dest.write(f"{float(x)!r},{float(y)!r}\n")
