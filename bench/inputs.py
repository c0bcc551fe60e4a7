"""Seeded inputs and reference values computed by the benchmark itself.

Nothing here imports cloudinv, so a change to the program cannot change its
own inputs, and the references check its outputs along an independent path.
"""
from __future__ import annotations

import math

import numpy as np

SHAPES = ("offset", "anisotropic", "near-collinear")

# Literal, derivative coefficients (b', g', delta) and the phi range the
# acceptance tests draw from, for each family the orbit workload cycles.
FAMILIES = (
    ("diag", (0.0, 0.0, -1.0), (0.3, 3.0)),
    ("upper", (1.0, 0.0, 0.0), (-2.0, 2.0)),
    ("lower", (0.0, 1.0, 0.0), (-2.0, 2.0)),
    ("rot", (1.0, -1.0, 0.0), (-1.3, 1.3)),
    ("linear:-2,-2;-0.25,0.5|12,8;1,2", (8.0, 1.0, 10.0), (0.2, 0.5)),
)
_PENCIL = ((-2.0, -2.0, -0.25, 0.5), (12.0, 8.0, 1.0, 2.0))


def cloud_arrays(rng: np.random.Generator, n: int, shape: str):
    """x and y of ``n`` points of one shape, built in place to bound memory.

    offset: x and y around 1e3..1e8 with a much smaller spread, so moments
    must be centred; anisotropic: a thin ellipse (axis ratio 10..1000) at a tilt;
    near-collinear: y = kx plus noise 1e-3 of the spread, far above the
    collinearity threshold but far below the spread.
    """
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    if shape == "offset":
        # The spread is 1e-4..1e-2 of the offset: its square stays far above
        # the package's scale-relative degeneracy threshold (1e-12).
        offset = 10.0 ** rng.uniform(3.0, 8.0)
        spread = offset * 10.0 ** rng.uniform(-4.0, -2.0)
        y *= spread
        y += (rng.uniform(-2.0, 2.0) * spread) * x
        y += offset * 10.0 ** rng.uniform(-1.0, 1.0)
        x *= spread
        x += offset
    elif shape == "anisotropic":
        x *= 10.0 ** rng.uniform(1.0, 3.0)
        theta = rng.uniform(0.2, 1.3)
        cos, sin = math.cos(theta), math.sin(theta)
        u = x.copy()
        x *= cos
        x -= sin * y
        y *= cos
        y += sin * u
    else:
        y *= 1e-3
        y += rng.uniform(-3.0, 3.0) * x
    return x, y


def means(x: np.ndarray, y: np.ndarray, chunk: int = 1 << 20):
    n = x.size
    return (sum(float(x[i:i + chunk].sum()) for i in range(0, n, chunk)) / n,
            sum(float(y[i:i + chunk].sum()) for i in range(0, n, chunk)) / n)


def moments(x: np.ndarray, y: np.ndarray, chunk: int = 1 << 20):
    """Centred second moments (sxx, sxy, syy) by two passes over chunks."""
    n = x.size
    mx, my = means(x, y, chunk)
    sxx = sxy = syy = 0.0
    for i in range(0, n, chunk):
        dx = x[i:i + chunk] - mx
        dy = y[i:i + chunk] - my
        sxx += float(dx @ dx)
        sxy += float(dx @ dy)
        syy += float(dy @ dy)
    return sxx, sxy, syy


def image_moments(t, s):
    """Moments of the cloud mapped by t = (a, b, c, d): T S T^T."""
    a, b, c, d = t
    sxx, sxy, syy = s
    return (a * a * sxx + 2.0 * a * b * sxy + b * b * syy,
            a * c * sxx + (a * d + b * c) * sxy + b * d * syy,
            c * c * sxx + 2.0 * c * d * sxy + d * d * syy)


def mh(s):
    """(M, H) from moments."""
    return s[1] / s[0], s[2] / s[0]


def is_collinear(s, tol: float = 1e-9) -> bool:
    sxx, sxy, syy = s
    return syy * sxx - sxy * sxy <= tol * max(1.0, syy * sxx)


def kernel_den(spec, m: float, h: float) -> float:
    bp, gp, dl = spec
    return h * bp - gp + dl * m


def kernel(spec, m: float, h: float) -> float:
    """(M^2 - H) / (H b' - g' + delta M)^2."""
    return (m * m - h) / kernel_den(spec, m, h) ** 2


def matrix_spec(t):
    """Derivative coefficients of the pencil I + phi (T - I)."""
    a, b, c, d = t
    return (b, c, a - d)


def family_matrix(literal: str, phi: float):
    if literal == "diag":
        return (1.0, 0.0, 0.0, phi)
    if literal == "upper":
        return (1.0, phi, 0.0, 1.0)
    if literal == "lower":
        return (1.0, 0.0, phi, 1.0)
    if literal == "rot":
        return (math.cos(phi), math.sin(phi), -math.sin(phi), math.cos(phi))
    return tuple(a + phi * b for a, b in zip(*_PENCIL))


def det(t) -> float:
    return t[0] * t[3] - t[1] * t[2]


def random_matrix(rng: np.random.Generator, min_det: float = 0.1):
    while True:
        t = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=4))
        if abs(det(t)) >= min_det:
            return t


def cloud_matrix(rng: np.random.Generator, x: np.ndarray, y: np.ndarray, s):
    """A random invertible matrix whose image of the cloud keeps its x-spread
    well clear of both the induced map's denominator threshold and the
    package's scale-relative degeneracy threshold (1e-12 of n * sum(x^2))."""
    mx, my = means(x, y)
    while True:
        t = random_matrix(rng)
        a, b = t[0], t[1]
        sxx = image_moments(t, s)[0]
        mean = a * mx + b * my
        if (sxx >= 1e-3 * (a * a * s[0] + b * b * s[2] + abs(2.0 * a * b * s[1]))
                and sxx >= 1e-9 * (sxx + x.size * mean * mean)):
            return t


class Draw:
    """One invariance check: (M, H), a matrix T, a family member A(phi),
    and the values the benchmark expects for each of them."""

    __slots__ = ("m", "h", "t", "family", "phi", "t_image", "t_kernel",
                 "a_image", "f_spec", "f_kernel_before", "f_kernel_after")


def invariance_draw(rng: np.random.Generator, family: int):
    """A draw for the given family, or None when some guarded denominator
    lies within a margin of zero (the acceptance tests' margins)."""
    m = float(rng.uniform(-2.0, 2.0))
    h = m * m + float(rng.uniform(0.05, 4.0))
    t = random_matrix(rng)
    literal, f_spec, (lo, hi) = FAMILIES[family]
    phi = float(rng.uniform(lo, hi))
    a = family_matrix(literal, phi)
    s = (1.0, m, h)
    t_img, a_img = image_moments(t, s), image_moments(a, s)
    t_spec = matrix_spec(t)
    if abs(det(a)) < 1e-3 or t_img[0] < 1e-2 or a_img[0] < 1e-2:
        return None
    t_image, a_image = mh(t_img), mh(a_img)
    bp, gp, dl = f_spec
    # The PDE residual is a finite difference; it meets the acceptance
    # tolerance only where the kernel denominator is large against its terms.
    pde_margin = max(0.5, 0.25 * (abs(h * bp) + abs(gp) + abs(dl * m)))
    if (min(abs(kernel_den(t_spec, m, h)), abs(kernel_den(t_spec, *t_image)),
            abs(kernel_den(f_spec, *a_image))) < 1e-3
            or abs(kernel_den(f_spec, m, h)) < pde_margin):
        return None
    d = Draw()
    d.m, d.h, d.t, d.family, d.phi = m, h, t, family, phi
    d.t_image, d.t_kernel = t_image, kernel(t_spec, m, h)
    d.a_image, d.f_spec = a_image, f_spec
    d.f_kernel_before = kernel(f_spec, m, h)
    d.f_kernel_after = kernel(f_spec, *a_image)
    return d


def invariance_pool(rng: np.random.Generator, count: int):
    """``count`` accepted draws cycling through the families, and the share
    of all draws that was accepted."""
    pool, drawn = [], 0
    while len(pool) < count:
        drawn += 1
        d = invariance_draw(rng, len(pool) % len(FAMILIES))
        if d is not None:
            pool.append(d)
    return pool, count / drawn


def write_csv(path, x: np.ndarray, y: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y\n")
        fh.write("".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))


def read_csv(path):
    """The benchmark's own parser for the cloud CSV format (header line first)."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        pairs = [line.split(",") for line in fh]
    return (np.array([float(p[0]) for p in pairs]),
            np.array([float(p[1]) for p in pairs]))
