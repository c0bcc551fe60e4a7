"""Invariant kernels for arbitrary invertible matrices.

Any invertible matrix T sits on the linear pencil A(phi) = I + phi*(T - I),
which passes through the identity at phi = 0 and through T at phi = 1.  The
pencil's invariant kernel therefore yields functions unchanged when a cloud
is transformed by T.  Replacing T - I by any nonzero multiple gives the same
kernel up to a constant factor, so the invariant family is canonical.
"""
from __future__ import annotations

from .coefficients import _Value
from .errors import DegenerateTarget
from .families import LinearFamily, kernel_value
from .generators import FamilyGenerator
from .transform import Matrix2

# Entrywise scale-relative tolerance for "target is the identity".
IDENTITY_TARGET_RTOL = 1e-12


class Embedding(_Value):
    """A linear pencil through the identity (phi=0) and a target (phi=1)."""

    __slots__ = ("family", "target")

    def __init__(self, family: LinearFamily, target: Matrix2) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "target", target)


def _offset(target: Matrix2) -> tuple[float, float, float, float]:
    t11 = target.a - 1.0
    t12 = target.b
    t21 = target.c
    t22 = target.d - 1.0
    scale = max(1.0, target.max_abs_entry())
    if max(abs(t11), abs(t12), abs(t21), abs(t22)) <= IDENTITY_TARGET_RTOL * scale:
        raise DegenerateTarget(
            "target equals the identity within tolerance; the transform "
            "changes nothing and every function is invariant")
    return t11, t12, t21, t22


def embed(target: Matrix2) -> Embedding:
    """The canonical pencil A(phi) = I + phi*(target - I).

    Exact by construction: A(0) is the identity and A(1) is the target,
    entry by entry.

    Raises:
        DegenerateTarget: target equals the identity within tolerance.
    """
    t11, t12, t21, t22 = _offset(target)
    family = LinearFamily((1.0, 0.0, 0.0, 1.0), (t11, t12, t21, t22))
    return Embedding(family=family, target=target)


def generator_for_matrix(target: Matrix2) -> FamilyGenerator:
    """Derivative coefficients of the canonical pencil: the off-diagonal
    entries of target - I and the difference of its diagonal entries."""
    t11, t12, t21, t22 = _offset(target)
    return FamilyGenerator(t12, t21, t11 - t22)


def kernel_for_matrix(target: Matrix2, m: float, h: float) -> float:
    """Invariant kernel value for an arbitrary invertible, non-identity matrix.

    Equals (M^2 - H) / (H*t12 - t21 + (t11 - t22)*M)^2 with t = target - I.

    Raises:
        DegenerateTarget: target is the identity within tolerance.
        DegenerateGenerator: target - I has zero off-diagonals and equal
            diagonals (uniform scaling), so every function is invariant.
        KernelSingular: the denominator vanishes at (m, h).
    """
    return kernel_value(generator_for_matrix(target), m, h)
