"""Infinitesimal generator fields of the induced (M, H) map.

A matrix T acts on a cloud's scatter matrix S = [[D, M_n], [M_n, H_n]] by
the congruence T S T^T.  Its tangent at the identity in the direction
E = (a b; c d) is E S + S E^T, and read through the chart
(M, H) = (M_n/D, H_n/D) it is a vector field on the (M, H) plane.  The four
entry directions E_11, E_12, E_21, E_22 (:class:`Param`) give the four
generator fields; a function of (M, H) is invariant under all invertible
matrices exactly when all four annihilate it.  A one-parameter family's
field is that of its trace-free direction (delta b'; g' 0), as the identity
direction has zero field, so its invariance is one first-order PDE.

This module evaluates the fields, cross-checks them against central finite
differences of the induced map, and computes numerical PDE residuals for
caller-supplied kernel functions.  Every difference steps by the one
constant FD_STEP, scaled to the point's size.
"""
from __future__ import annotations

import math
from enum import Enum
from typing import Callable

from .coefficients import LinearCoefficients, _Value
from .errors import DegenerateGenerator, KernelSingular
from .transform import Matrix2, induced_coefficients

# The finite-difference step, relative to the point's size: the M step is
# FD_STEP*r and the H step FD_STEP*r**2, r = max(|M|, sqrt|H|), as M has
# degree 1 and H degree 2 in the cloud's coordinates (r = 1 at r = 0).
FD_STEP = 1e-5

Kernel = Callable[[float, float], float]


class Param(Enum):
    """The four matrix-entry directions E_ij at the identity, each valued by
    its entries (a, b, c, d)."""

    ALPHA = (1.0, 0.0, 0.0, 0.0)
    BETA = (0.0, 1.0, 0.0, 0.0)
    GAMMA = (0.0, 0.0, 1.0, 0.0)
    DELTA = (0.0, 0.0, 0.0, 1.0)


class FamilyGenerator(_Value):
    """Derivative data of a one-parameter family at its identity parameter.

    Fields are the entry derivatives beta'(phi*), gamma'(phi*) and the
    difference delta = alpha'(phi*) - delta'(phi*), not all zero (else
    DegenerateGenerator); they determine the invariance PDE and the kernel.
    """

    __slots__ = ("bprime", "gprime", "delta")

    def __init__(self, bprime: float, gprime: float, delta: float) -> None:
        self._set_floats("", bprime, gprime, delta)
        if not (self.bprime or self.gprime or self.delta):
            raise DegenerateGenerator("all derivative coefficients are zero; "
                                      "every function of (M, H) is invariant")


def _field(e: tuple[float, float, float, float], m: float,
           h: float) -> tuple[float, float]:
    """The tangent E S + S E^T of the congruence at S = [[1, M], [M, H]] in
    the direction E = (a b; c d), read through the chart: with dD, dM_n and
    dH_n its entries, the field is (dM_n - M dD, dH_n - H dD)."""
    a, b, c, d = e
    d_d = 2.0 * (a + b * m)
    d_mn = c + (a + d) * m + b * h
    d_hn = 2.0 * (c * m + d * h)
    return (d_mn - m * d_d, d_hn - h * d_d)


def generator_value(param: Param, m: float, h: float) -> tuple[float, float]:
    """Closed-form generator field (xi1, xi2) for one matrix-entry direction.

    Note the gamma field is (1, +2M): the y-shear x -> x, y -> y + phi*x
    sends (M, H) to (M + phi, H + 2*phi*M + phi^2), whose phi-derivative at
    zero is (1, 2M).
    """
    return _field(param.value, m, h)


def _perturbed_matrix(param: Param, s: float) -> Matrix2:
    """I + s*E for the direction E of ``param``."""
    return Matrix2(*[i + s * e for i, e in zip((1.0, 0.0, 0.0, 1.0), param.value)])


def generator_fd_deviation(param: Param, m: float, h: float) -> float:
    """Max deviation between the closed-form field and a central finite
    difference of the induced coefficient map at the identity.

    O(FD_STEP^2) at smooth points.  Propagates DegenerateImage if a perturbed
    matrix hits a singular denominator.
    """
    lc = LinearCoefficients(m, h)
    plus = induced_coefficients(_perturbed_matrix(param, FD_STEP), lc)
    minus = induced_coefficients(_perturbed_matrix(param, -FD_STEP), lc)
    fd1 = (plus.m - minus.m) / (2.0 * FD_STEP)
    fd2 = (plus.h - minus.h) / (2.0 * FD_STEP)
    xi1, xi2 = generator_value(param, m, h)
    return max(abs(fd1 - xi1), abs(fd2 - xi2))


def _kernel_partials(kernel: Kernel, m: float,
                     h: float) -> tuple[float, float]:
    """Central-difference partials of a kernel, each coordinate stepped at
    its own degree: FD_STEP*r for M and FD_STEP*r**2 for H,
    r = max(|M|, sqrt|H|)."""
    r = max(abs(m), math.sqrt(abs(h))) or 1.0
    step_m = FD_STEP * r
    step_h = step_m * r

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

    d_dm = (ev(m + step_m, h) - ev(m - step_m, h)) / (2.0 * step_m)
    d_dh = (ev(m, h + step_h) - ev(m, h - step_h)) / (2.0 * step_h)
    return d_dm, d_dh


def family_pde_residual(fg: FamilyGenerator, kernel: Kernel, m: float,
                        h: float) -> float:
    """Residual of the one-parameter invariance PDE for a kernel at (m, h).

    Evaluates xi . grad I for the family's field xi, the field of its
    trace-free direction (delta b'; g' 0), with the partials approximated by
    central differences of ``kernel``.  Zero (up to discretization error)
    exactly when the kernel is invariant under the family.
    """
    d_dm, d_dh = _kernel_partials(kernel, m, h)
    xi1, xi2 = _field((fg.delta, fg.bprime, fg.gprime, 0.0), m, h)
    return xi1 * d_dm + xi2 * d_dh


def full_pde_residuals(kernel: Kernel, m: float,
                       h: float) -> dict[Param, float]:
    """Residuals of all four entry-direction PDEs for a kernel at (m, h).

    A function invariant under arbitrary invertible matrices must annihilate
    all four simultaneously.
    """
    d_dm, d_dh = _kernel_partials(kernel, m, h)
    out: dict[Param, float] = {}
    for param in Param:
        xi1, xi2 = generator_value(param, m, h)
        out[param] = xi1 * d_dm + xi2 * d_dh
    return out
