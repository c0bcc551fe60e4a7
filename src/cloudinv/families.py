"""One-parameter matrix families A(phi) and their invariant kernels.

Two family types cover every variant: the pencil A(phi) = A0 + phi*B
(:class:`LinearFamily`) and rotation by phi (:class:`RotationFamily`).  The
named pencils DIAGONAL = diag(1, phi), UPPER_TRIANGULAR = (1, phi; 0, 1) and
LOWER_TRIANGULAR = (1, 0; phi, 1) are LinearFamily values.  Each family that
passes through the identity yields derivative coefficients (b', g', delta)
and the invariant kernel

    K(M, H) = (M^2 - H) / (H*b' - g' + delta*M)^2,

every function of which takes the same value before and after transforming
a cloud by any member of the family.
"""
from __future__ import annotations

import math
import sys
from abc import ABC, abstractmethod

from .coefficients import RTOL, _Value
from .errors import DegenerateGenerator, KernelSingular, NoIdentityParameter
from .generators import FamilyGenerator
from .transform import Matrix2, parse_entries

Entries = tuple[float, float, float, float]

_IDENTITY = (1.0, 0.0, 0.0, 1.0)


class OneParamFamily(ABC):
    """A matrix curve A(phi); invertibility is pointwise, not structural."""

    __slots__ = ()

    @abstractmethod
    def evaluate(self, phi: float) -> Matrix2:
        """The matrix A(phi).  May be singular for specific phi; operations
        that need invertibility reject such matrices downstream."""

    @abstractmethod
    def identity_parameter(self) -> float:
        """The phi* with A(phi*) = identity, or NoIdentityParameter."""

    @abstractmethod
    def derivative_coefficients(self) -> FamilyGenerator:
        """(beta'(phi*), gamma'(phi*), alpha'(phi*) - delta'(phi*))."""

    def kernel(self, m: float, h: float) -> float:
        """The family's invariant kernel at (m, h)."""
        return kernel_value(self.derivative_coefficients(), m, h)


class RotationFamily(_Value, OneParamFamily):
    """A(phi) = (cos phi, sin phi; -sin phi, cos phi); identity at phi = 0."""

    __slots__ = ()

    def evaluate(self, phi: float) -> Matrix2:
        c, s = math.cos(phi), math.sin(phi)
        return Matrix2.unchecked(c, s, -s, c)

    def identity_parameter(self) -> float:
        return 0.0

    def derivative_coefficients(self) -> FamilyGenerator:
        return FamilyGenerator(1.0, -1.0, 0.0)


class LinearFamily(_Value, OneParamFamily):
    """The pencil A(phi) = A0 + phi*B for fixed entry tuples A0 and B.

    Neither A0 nor B needs to be invertible.  An identity parameter exists
    only when the entries are mutually consistent; see
    :meth:`identity_parameter`.
    """

    __slots__ = ("a0", "b")

    def __init__(self, a0: Entries, b: Entries) -> None:
        for name, raw in (("a0", a0), ("b", b)):
            # A string of four digits is not four entries; bools are not
            # numbers.  The range test also rejects an int too large for a
            # float, without converting it.
            vals = () if isinstance(raw, (str, bytes, bytearray)) else tuple(raw)
            if len(vals) != 4 or not all(
                    isinstance(v, (int, float)) and not isinstance(v, bool)
                    and abs(v) <= sys.float_info.max for v in vals):
                raise ValueError(f"{name} must be 4 finite entries, got {raw!r}")
            object.__setattr__(self, name, tuple(map(float, vals)))

    def evaluate(self, phi: float) -> Matrix2:
        phi = float(phi)
        e = tuple(a + phi * b for a, b in zip(self.a0, self.b))
        return Matrix2.unchecked(*e)

    def identity_parameter(self) -> float:
        """Per-entry consistency solve for A(phi*) = identity.

        Every entry with a nonzero B component proposes phi = (target - a0)/b;
        the one from the largest |b| (0.0 for a constant family) must satisfy
        |a0 + phi*b - target| <= RTOL * (|a0| + |phi*b| + 1) at every entry,
        where 1 is the size of the identity's own entries.
        """
        candidates = [(abs(b), (t - a) / b)
                      for a, b, t in zip(self.a0, self.b, _IDENTITY) if b != 0.0]
        phi = max(candidates)[1] if candidates else 0.0
        if all(abs(a + phi * b - t) <= RTOL * (abs(a) + abs(phi * b) + 1.0)
               for a, b, t in zip(self.a0, self.b, _IDENTITY)):
            return phi
        raise NoIdentityParameter(
            f"no phi makes A0 + phi*B the identity (best candidate {phi})")

    def derivative_coefficients(self) -> FamilyGenerator:
        self.identity_parameter()
        b11, b12, b21, b22 = self.b
        return FamilyGenerator(b12, b21, b11 - b22)


def kernel_value(ks: FamilyGenerator, m: float, h: float) -> float:
    """The invariant kernel (M^2 - H) / (H*b' - g' + delta*M)^2.

    Raises:
        DegenerateGenerator: all three coefficients are zero (every function
            is trivially invariant, e.g. uniform-scaling families).
        KernelSingular: the denominator is at most RTOL * (|H*b'| + |g'| +
            |delta*M|), its largest value, or it or the value overflows.
    """
    if ks.is_degenerate():
        raise DegenerateGenerator(
            "all derivative coefficients are zero; every function of (M, H) "
            "is invariant")
    den = h * ks.bprime - ks.gprime + ks.delta * m
    scale = abs(h * ks.bprime) + abs(ks.gprime) + abs(ks.delta * m)
    if not math.isfinite(scale):
        raise KernelSingular(f"kernel denominator overflows at ({m}, {h})")
    if abs(den) <= RTOL * scale:
        raise KernelSingular(
            f"kernel denominator {den} is zero within tolerance at ({m}, {h})")
    value = (m * m - h) / (den * den)
    if not math.isfinite(value):
        raise KernelSingular(f"kernel non-finite at ({m}, {h}): {value}")
    return value


# The named pencils: identity at phi = 1 for DIAGONAL, at phi = 0 for the shears.
DIAGONAL = LinearFamily((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0))
UPPER_TRIANGULAR = LinearFamily(_IDENTITY, (0.0, 1.0, 0.0, 0.0))
LOWER_TRIANGULAR = LinearFamily(_IDENTITY, (0.0, 0.0, 1.0, 0.0))

_NAMED_FAMILIES = {
    "diag": DIAGONAL,
    "upper": UPPER_TRIANGULAR,
    "lower": LOWER_TRIANGULAR,
    "rot": RotationFamily(),
}


def parse_family(literal: str) -> OneParamFamily:
    """Parse a family literal.

    Accepted forms: `diag`, `upper`, `lower`, `rot`, or `linear:A0|B` with
    each of A0 and B a matrix literal `a,b;c,d` or `[[a,b],[c,d]]`.
    """
    text = literal.strip()
    if text in _NAMED_FAMILIES:
        return _NAMED_FAMILIES[text]
    if text.startswith("linear:"):
        parts = text[len("linear:"):].split("|")
        if len(parts) != 2:
            raise ValueError(f"expected linear:A0|B, got {literal!r}")
        return LinearFamily(*map(parse_entries, parts))
    raise ValueError(
        f"unknown family literal {literal!r}; expected one of "
        f"{sorted(_NAMED_FAMILIES)} or linear:...")
