"""Infinitesimal generator fields of the induced (M, H) map.

Differentiating the induced coefficient map with respect to one matrix entry
at the identity yields a vector field on the (M, H) plane.  A function of
(M, H) is invariant under all invertible matrices exactly when all four
fields annihilate it; for a one-parameter family the four conditions reduce
to a single first-order PDE whose coefficients come from the family's
derivative data at its identity parameter.

This module evaluates the four closed-form fields, cross-checks them against
central finite differences of the induced map, and computes numerical PDE
residuals for caller-supplied kernel functions.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Callable

from .coefficients import LinearCoefficients, _Value
from .errors import KernelSingular
from .transform import Matrix2, induced_coefficients

# Default finite-difference step before scaling by max(1, |M|, |H|).
DEFAULT_STEP = 1e-5

Kernel = Callable[[float, float], float]


class Param(Enum):
    """The four matrix-entry directions at the identity."""

    ALPHA = "alpha"
    BETA = "beta"
    GAMMA = "gamma"
    DELTA = "delta"


class FamilyGenerator(_Value):
    """Derivative data of a one-parameter family at its identity parameter.

    Fields are the entry derivatives beta'(phi*), gamma'(phi*) and the
    difference delta = alpha'(phi*) - delta'(phi*); together they determine
    the family's invariance PDE and its invariant kernel.
    """

    __slots__ = ("bprime", "gprime", "delta")

    def __init__(self, bprime: float, gprime: float, delta: float) -> None:
        self._set_floats("", bprime, gprime, delta)

    def is_degenerate(self) -> bool:
        return self.bprime == 0.0 and self.gprime == 0.0 and self.delta == 0.0

    def scaled(self, kappa: float) -> "FamilyGenerator":
        return FamilyGenerator(kappa * self.bprime, kappa * self.gprime,
                               kappa * self.delta)


def generator_value(param: Param, m: float, h: float) -> tuple[float, float]:
    """Closed-form generator field (xi1, xi2) for one matrix-entry direction.

    Note the gamma field is (1, +2M): the y-shear x -> x, y -> y + phi*x
    sends (M, H) to (M + phi, H + 2*phi*M + phi^2), whose phi-derivative at
    zero is (1, 2M).
    """
    if param is Param.ALPHA:
        return (-m, -2.0 * h)
    if param is Param.BETA:
        return (h - 2.0 * m * m, -2.0 * h * m)
    if param is Param.GAMMA:
        return (1.0, 2.0 * m)
    if param is Param.DELTA:
        return (m, 2.0 * h)
    raise ValueError(f"unknown parameter {param!r}")


def _perturbed_matrix(param: Param, s: float) -> Matrix2:
    if param is Param.ALPHA:
        return Matrix2(1.0 + s, 0.0, 0.0, 1.0)
    if param is Param.BETA:
        return Matrix2(1.0, s, 0.0, 1.0)
    if param is Param.GAMMA:
        return Matrix2(1.0, 0.0, s, 1.0)
    return Matrix2(1.0, 0.0, 0.0, 1.0 + s)


def generator_fd_deviation(param: Param, m: float, h: float,
                           step: float = DEFAULT_STEP) -> float:
    """Max deviation between the closed-form field and a central finite
    difference of the induced coefficient map at the identity.

    O(step^2) at smooth points.  Propagates DegenerateImage if a perturbed
    matrix hits a singular denominator.
    """
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    lc = LinearCoefficients(m, h)
    plus = induced_coefficients(_perturbed_matrix(param, step), lc)
    minus = induced_coefficients(_perturbed_matrix(param, -step), lc)
    fd1 = (plus.m - minus.m) / (2.0 * step)
    fd2 = (plus.h - minus.h) / (2.0 * step)
    xi1, xi2 = generator_value(param, m, h)
    return max(abs(fd1 - xi1), abs(fd2 - xi2))


def _kernel_partials(kernel: Kernel, m: float, h: float,
                     step: float) -> tuple[float, float]:
    """Central-difference partials of a kernel, step scaled by coordinate size."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    hs = step * max(1.0, abs(m), abs(h))

    def ev(mm: float, hh: float) -> float:
        try:
            v = float(kernel(mm, hh))
        except KernelSingular:
            raise
        except Exception as exc:
            raise KernelSingular(
                f"kernel evaluation failed at ({mm}, {hh}): {exc}") from exc
        if not math.isfinite(v):
            raise KernelSingular(f"kernel non-finite at ({mm}, {hh}): {v}")
        return v

    d_dm = (ev(m + hs, h) - ev(m - hs, h)) / (2.0 * hs)
    d_dh = (ev(m, h + hs) - ev(m, h - hs)) / (2.0 * hs)
    return d_dm, d_dh


def family_pde_residual(fg: FamilyGenerator, kernel: Kernel, m: float,
                        h: float, step: float = DEFAULT_STEP) -> float:
    """Residual of the one-parameter invariance PDE for a kernel at (m, h).

    Evaluates
        [(H - 2M^2) b' - delta*M + g'] dI/dM
          + 2 [g'*M - b'*H*M - delta*H] dI/dH
    with the partials approximated by central differences of ``kernel``.
    Zero (up to discretization error) exactly when the kernel is invariant
    under the family.
    """
    d_dm, d_dh = _kernel_partials(kernel, m, h, step)
    coef_m = (h - 2.0 * m * m) * fg.bprime - fg.delta * m + fg.gprime
    coef_h = 2.0 * (fg.gprime * m - fg.bprime * h * m - fg.delta * h)
    return coef_m * d_dm + coef_h * d_dh


def full_pde_residuals(kernel: Kernel, m: float, h: float,
                       step: float = DEFAULT_STEP) -> dict[Param, float]:
    """Residuals of all four entry-direction PDEs for a kernel at (m, h).

    A function invariant under arbitrary invertible matrices must annihilate
    all four simultaneously.
    """
    d_dm, d_dh = _kernel_partials(kernel, m, h, step)
    out: dict[Param, float] = {}
    for param in Param:
        xi1, xi2 = generator_value(param, m, h)
        out[param] = xi1 * d_dm + xi2 * d_dh
    return out
