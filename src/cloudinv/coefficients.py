"""Least-squares linear coefficients of planar point clouds.

A cloud is summarized by its scatter matrix S = [[D, M_n], [M_n, H_n]] of
centered second-moment sums (:class:`Scatter`).  The slope M of its
least-squares straight line and a companion ratio H are the chart
(M, H) = (M_n/D, H_n/D) on S, so the centered sums are a sufficient
statistic.  A cloud's coordinates are the rows of one 2 x n block.  It
reduces the sums once, when it is built, in one pass over 2 x k chunks
that reduces each by one rule (Chan, Golub & LeVeque 1979): shift by a
mean, correct by the residual sum, merge.  So offset clouds lose nothing to
cancellation, and a column of equal values has exactly zero spread.  The
same pass copies given arrays into a block, reduces a block the cloud
takes over, or reduces a matrix image chunk by chunk without writing it.
"""
from __future__ import annotations

import math
import reprlib
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Union

from .errors import DegenerateCloud

# numpy is imported by the functions that build arrays, so importing the
# package, or computing with (M, H) alone, does not load it.
if TYPE_CHECKING:
    import numpy as np

# The package's one tolerance.  A guarded quantity (det T, det S, the
# identity and uniform-scaling tests, the induced-map and kernel denominators)
# is zero when at most RTOL times the largest value its expression can take
# for inputs of their magnitudes: a bound of its own degree, no unit floor.
# A cloud's D needs none: its terms cannot cancel, so it is tested for 0.
RTOL = 1e-12

# Points per chunk of the fused copy-and-reduce pass.  A 2 x k chunk of the
# output block and the 2 x k shift buffer (1 MiB together) stay in a core's
# L2 cache, so each value comes from main memory once.
_CHUNK = 1 << 15

# Points per dot product.  OpenBLAS splits a dot of more than 10000 points
# across its threads, which changes the rounding with the thread count; a
# block of 8192 runs on one thread, so the moments do not depend on the
# thread count.  The order of the sum inside a block is that of the ddot
# kernel OpenBLAS picks for the CPU, so the moments' last bits may differ
# from one CPU to another.
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


Entries = tuple[float, float, float, float]


def _copy_and_reduce(src: Union[np.ndarray, tuple], t: Optional[Entries] = None,
                     out: Optional[np.ndarray] = None) -> tuple[float, float, float]:
    """The centered moments (Sxx, Sxy, Syy) of the cloud with rows src, a
    2 x n block or (for a copy or an image) an (xs, ys) pair, or of its image
    (a*x + b*y, c*x + d*y) under the matrix entries t = (a, b, c, d); given
    the 2 x n block ``out``, that cloud is also written to it.

    One pass over 2 x k chunks of ``_CHUNK`` points, each step after the
    copy one call for both rows.  Each chunk (read in place, copied to
    ``out``, or the image x*(a, c) + y*(b, d) written to ``out`` or else to
    a reused buffer) is, while in cache, shifted into a reused 2 x k buffer
    and reduced by one rule (Chan, Golub & LeVeque 1979).  The shift is x0, the first chunk's
    mean, plus the running mean held relative to x0 (0 before the first
    chunk), so no later chunk needs a pass for its own mean and offset clouds
    keep full accuracy.  The residual sums r of the shifted chunk give its
    mean, shift + r/k, and its centered sums, q - r*r/k from the shifted
    products q (each one ``vecdot`` over ``_DOT``-point rows, summed in
    order), clamped to a positive semidefinite 2 x 2 matrix; the pairwise
    update, whose merge term is 0 on the first chunk, then adds them in.
    Equal values shift to k copies of one small number, so their centered
    sums are exactly 0.  The moments do not depend on ``out``.
    """
    import numpy as np

    xs, ys = src
    n = xs.size
    shifted = np.empty((2, min(n, _CHUNK)))
    if t is not None:
        a, b, c, d = t
        ac, bd = np.array([[[a], [c]], [[b], [d]]])
        if out is None:
            image = np.empty_like(shifted)
    mean_x = mean_y = acc_xx = acc_xy = acc_yy = 0.0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        k = hi - lo
        s = shifted[:, :k]
        if t is not None:
            chunk = image[:, :k] if out is None else out[:, lo:hi]
            np.multiply(xs[lo:hi], ac, out=chunk)
            np.multiply(ys[lo:hi], bd, out=s)
            np.add(chunk, s, out=chunk)
        elif out is not None:
            chunk = out[:, lo:hi]
            np.copyto(chunk[0], xs[lo:hi])
            np.copyto(chunk[1], ys[lo:hi])
        else:
            chunk = src[:, lo:hi]
        if lo == 0:
            x0, y0 = (np.add.reduce(chunk, 1) / k).tolist()
        sx, sy = x0 + mean_x, y0 + mean_y
        np.subtract(chunk, [[sx], [sy]], out=s)
        rx, ry = np.add.reduce(s, 1).tolist()
        ux = (sx - x0) + rx / k
        uy = (sy - y0) + ry / k
        sxx = sxy = syy = 0.0
        m = k - k % _DOT
        for part in (s[:, :m], s[:, m:]):
            if part.size:
                u, v = part.reshape(2, -1, min(part.shape[1], _DOT))
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
        acc_xx += cxx + dx * dx * f
        acc_xy += min(max(sxy - rx * ry / k, -bound), bound) + dx * dy * f
        acc_yy += cyy + dy * dy * f
    return acc_xx, acc_xy, acc_yy


class Cloud:
    """An ordered sequence of at least two planar points.

    Point order is preserved, but every derived quantity is a symmetric sum
    and therefore order-independent.  The coordinates are the two rows of
    one 2 x n float64 block that the cloud owns and that is itself read-only;
    their moments are reduced once, when the cloud is built.
    ``Cloud(points)`` reads the points once, into two growing buffers, which
    the pass of ``from_arrays`` copies into the block; a point is a sequence
    of exactly two numbers (:func:`_real`), and a string is refused.

    The image of a cloud under a matrix (see ``transform.apply_to_cloud``)
    starts out pending: it holds its source's rows and the matrix entries
    ``_t``, and only its moments are reduced.  Its coordinates are written,
    once, when ``xs`` or ``ys`` first asks for them; ``len`` and the moment
    queries never do.
    """

    __slots__ = ("_xs", "_ys", "_moments", "_t")

    def __init__(self, points: Iterable[Sequence[float]]):
        from array import array

        import numpy as np

        xs, ys = array("d"), array("d")
        for p in points:
            try:  # a string is not a pair of characters (or of ints)
                x, y = () if isinstance(p, (str, bytes, bytearray)) else p
            except (TypeError, ValueError):
                raise ValueError("a point must be 2 coordinates, got "
                                 f"{_QUOTE.repr(p)}") from None
            xs.append(x if type(x) is float and math.isfinite(x) else _real(x, "point x"))
            ys.append(y if type(y) is float and math.isfinite(y) else _real(y, "point y"))
        if len(xs) < 2:
            raise ValueError(f"a cloud needs at least 2 points, got {len(xs)}")
        self._fill((np.frombuffer(xs), np.frombuffer(ys)), copy=True)

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
        cloud._fill((xs, ys), copy=True)
        return cloud

    @classmethod
    def _own(cls, src: Union[np.ndarray, tuple], t: Optional[Entries] = None) -> "Cloud":
        """A cloud over src, a 2 x n float64 block (n >= 2) that no one
        else writes to, marked read-only; or the pending image of src, a
        block or an (xs, ys) pair, under the matrix entries t."""
        cloud = object.__new__(cls)
        cloud._fill(src, t)
        return cloud

    def _fill(self, src: Union[np.ndarray, tuple], t: Optional[Entries] = None,
              copy: bool = False) -> None:
        """Hold the rows of src (see :func:`_copy_and_reduce`), a 2 x n block
        copied from them (``copy``) or their image under the matrix entries t
        (pending unless ``copy``), and cache the moments of the cloud held.
        A block held is made read-only whole, not only in its rows."""
        import numpy as np

        out = np.empty((2, src[0].size)) if copy else None
        # Non-finite values are expected here and judged just below.
        with np.errstate(over="ignore", invalid="ignore"):
            moments = _copy_and_reduce(src, t, out)
        if out is not None:
            src, t = out, None
        if t is None:  # a pending image holds its source's read-only rows
            src.flags.writeable = False
        xs, ys = src
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
            self._fill((self._xs, self._ys), self._t, copy=True)
        return self._xs

    @property
    def ys(self) -> np.ndarray:
        """The y coordinates, a read-only float64 array."""
        if self._t is not None:
            self._fill((self._xs, self._ys), self._t, copy=True)
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
            raise DegenerateCloud("x-spread sum D is 0: the least-squares line is "
                                  "vertical, so (M, H) is undefined")
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
    sxx, sxy, syy = cloud._moments
    return Scatter(n * sxy, n * syy, n * sxx)


def linear_coefficients(cloud: Cloud) -> Scatter:
    """The chart point (M, H) = (M_n/D, H_n/D) of a cloud's scatter.

    Raises:
        DegenerateCloud: if D = 0 (all x equal).  D is a sum of terms that
            cannot cancel, so it bounds its own rounding and needs no
            tolerance.
    """
    rs = raw_sums(cloud)
    return LinearCoefficients(rs.m, rs.h)


def is_collinear(cloud: Cloud) -> bool:
    """True iff the cloud lies on a straight line (any orientation).

    det S = D*H_n - M_n**2 is zero when at most RTOL times D*H_n, its largest
    value (Cauchy-Schwarz), tested in degree 2, D - M_n**2/H_n <= RTOL*D, so
    that no product underflows.  True on vertical (D == 0) and horizontal
    (H_n == 0) lines; a constant y has H_n exactly 0, at any offset.
    """
    rs = raw_sums(cloud)
    return rs.hn == 0.0 or rs.d - rs.mn * (rs.mn / rs.hn) <= RTOL * rs.d


def read_cloud_csv(source: Union[str, IO[str]]) -> Cloud:
    """Read a cloud from CSV: one `x,y` pair per line, under the one rule
    for number lists (:func:`_parse_floats`), into the cloud's buffers.

    An optional header line `x,y` is skipped; blank lines are ignored;
    LF, CRLF and CR line endings are all accepted, and so is one leading
    byte-order mark.  A path is opened once, as UTF-8 with each byte that
    does not decode kept as a lone surrogate, so the first line that is
    refused is the one named: by the codec's error if it is not UTF-8.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8", errors="surrogateescape", newline="") as fh:
            return Cloud(_csv_rows(fh))
    return Cloud(_csv_rows(source))


def _csv_rows(lines: Iterable[str]) -> Iterator[list[float]]:
    for lineno, raw in enumerate(lines, start=1):
        line = (raw.removeprefix("\ufeff") if lineno == 1 else raw).strip()
        if not line or lineno == 1 and "".join(line.split()).lower() == "x,y":
            continue
        try:
            yield _parse_floats(line, 2)
        except ValueError as exc:
            try:
                raw.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeError as bad:
                exc = bad
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
