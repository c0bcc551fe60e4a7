"""Seedable synthetic cloud generators for the CLI and test fixtures.

All generators draw from numpy's default PCG64 bit generator, so a fixed
seed reproduces the same cloud bit-for-bit on any platform.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .coefficients import _CHUNK, Cloud, _real, _Value

if TYPE_CHECKING:
    import numpy as np

KINDS = ("uniform-box", "line-with-noise", "ellipse", "two-segment")


class CloudGenSpec(_Value):
    """What to generate: kind, point count, noise amplitude, RNG seed."""

    __slots__ = ("kind", "n", "noise", "seed")

    def __init__(self, kind: str, n: int, noise: float = 0.0, seed: int = 0) -> None:
        if kind not in KINDS:
            raise ValueError(f"unknown generator kind {kind!r}; "
                             f"expected one of {KINDS}")
        for name, value in (("n", n), ("seed", seed)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if n < 2:
            raise ValueError(f"point count must be >= 2, got {n}")
        noise = _real(noise, "noise")
        if noise < 0:
            raise ValueError(f"noise amplitude must be >= 0, got {noise}")
        if not (0 <= seed < 2 ** 64):
            raise ValueError(f"seed must be a 64-bit unsigned value, got {seed}")
        self.__setstate__((kind, n, noise, seed))


def generate_cloud(spec: CloudGenSpec) -> Cloud:
    """Generate a cloud deterministically from a spec.

    Each draw goes straight into the rows of one 2 x n block, which is then
    updated in place and becomes the cloud's own, so a cloud costs its
    coordinate block plus one chunk-sized noise buffer (freed before the
    cloud is reduced).  The draws and the arithmetic are those of the plain
    formulas in the comments, value for value.  The noise is noise * N(0, 1),
    added to y for line-with-noise and to both axes for ellipse and
    two-segment; uniform-box draws no noise, so ``spec.noise`` leaves its
    cloud unchanged.
    """
    import numpy as np

    rng = np.random.default_rng(spec.seed)
    n = spec.n
    xy = np.empty((2, n))
    xs, ys = xy
    if spec.kind == "uniform-box":
        rng.random(out=xs)
        rng.random(out=ys)
        return Cloud._own(xy)
    if spec.kind == "line-with-noise":
        # xs = 2*U, ys = 0.5*xs (+ noise*N).  Slope 0.5 and zero intercept
        # keep y = 0.5*x exact in binary, so a zero-noise draw is exactly
        # collinear.
        rng.random(out=xs)
        xs *= 2.0
        np.multiply(xs, 0.5, out=ys)
        _add_noise(rng, spec.noise, ys)
        return Cloud._own(xy)
    if spec.kind == "ellipse":
        # theta = 2*pi*U (held in ys), xs = 0.5 + cos(theta),
        # ys = 0.5 + 0.5*sin(theta).
        theta = ys
        rng.random(out=theta)
        theta *= 2.0 * np.pi
        np.cos(theta, out=xs)
        xs += 0.5
        np.sin(theta, out=ys)
        ys *= 0.5
        ys += 0.5
    else:
        # two-segment, a bent polyline with half the points per leg:
        # t = U(n), split at k: xs = [t[:k], 1 + t[k:]], ys = [2*t[:k], 2 - t[k:]].
        k = n // 2
        rng.random(out=xs)
        np.multiply(xs[:k], 2.0, out=ys[:k])
        np.subtract(2.0, xs[k:], out=ys[k:])
        xs[k:] += 1.0
    _add_noise(rng, spec.noise, xs, ys)
    return Cloud._own(xy)


def _add_noise(rng: np.random.Generator, noise: float, *axes: np.ndarray) -> None:
    """Add noise * N(0, 1) to each axis in turn, drawing chunk by chunk into
    one chunk-sized buffer; the draws are those of one draw per axis."""
    import numpy as np

    if noise > 0:
        n = axes[0].size
        e = np.empty(min(n, _CHUNK))
        for axis in axes:
            for lo in range(0, n, _CHUNK):
                part = axis[lo:lo + _CHUNK]
                buf = e[:part.size]
                rng.standard_normal(out=buf)
                buf *= noise
                part += buf
