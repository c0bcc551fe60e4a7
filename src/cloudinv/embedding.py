"""Invariant kernels for arbitrary invertible matrices.

Any invertible matrix T sits on the linear pencil A(phi) = I + phi*(T - I),
which passes through the identity at phi = 0 and through T at phi = 1.  The
pencil's invariant kernel therefore yields functions unchanged when a cloud
is transformed by T.  Replacing T - I by any nonzero multiple gives the same
kernel up to a constant factor, so the invariant family is canonical.  A
target proportional to the identity (the identity included) changes no
(M, H), so it has no kernel: every function of (M, H) is invariant.
"""
from __future__ import annotations

from .coefficients import RTOL, _Value
from .errors import DegenerateGenerator
from .families import LinearFamily, kernel_value
from .generators import FamilyGenerator
from .transform import Matrix2


class Embedding(_Value):
    """A linear pencil through the identity (phi=0) and a target (phi=1)."""

    __slots__ = ("family", "target")

    def __init__(self, family: LinearFamily, target: Matrix2) -> None:
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "target", target)


def embed(target: Matrix2) -> Embedding:
    """The canonical pencil A(phi) = I + phi*(target - I).

    A(0) is the identity; A(1) = I + (target - I) is the target only up to
    rounding: target - I loses the low bits of an entry far below 1.

    Raises:
        DegenerateGenerator: target is a multiple of the identity.
    """
    generator_for_matrix(target)
    a, b, c, d = target.entries()
    family = LinearFamily((1.0, 0.0, 0.0, 1.0), (a - 1.0, b, c, d - 1.0))
    return Embedding(family=family, target=target)


def generator_for_matrix(target: Matrix2) -> FamilyGenerator:
    """Derivative coefficients of the canonical pencil: the off-diagonal
    entries of target - I and the difference of its diagonal entries.

    Raises:
        DegenerateGenerator: target is a multiple of the identity within
            RTOL relative to its largest entry: b, c and the diagonal
            difference all vanish at that scale.
    """
    a, b, c, d = target.entries()
    delta = a - d
    # Tested on delta itself, so a target that passes never yields three
    # zero coefficients.
    if max(abs(b), abs(c), abs(delta)) <= RTOL * target.max_abs_entry():
        raise DegenerateGenerator(
            "target - I is a multiple of the identity (uniform scaling); "
            "every function of (M, H) is invariant")
    return FamilyGenerator(b, c, delta)


def kernel_for_matrix(target: Matrix2, m: float, h: float) -> float:
    """Invariant kernel value for an arbitrary invertible matrix.

    Equals (M^2 - H) / (H*t12 - t21 + (t11 - t22)*M)^2 with t = target - I.

    Raises:
        DegenerateGenerator: target is a multiple of the identity (uniform
            scaling), so every function is invariant.
        KernelSingular: the denominator vanishes at (m, h).
    """
    return kernel_value(generator_for_matrix(target), m, h)
