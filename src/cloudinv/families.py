"""One-parameter matrix families A(phi) and their invariant kernels.

Five variants are supported: diagonal diag(1, phi), upper triangular
(1, phi; 0, 1), lower triangular (1, 0; phi, 1), rotation by phi, and the
"linear" pencil A(phi) = A0 + phi*B.  Each family that passes through the
identity yields derivative coefficients (b', g', delta) and the invariant
kernel

    K(M, H) = (M^2 - H) / (H*b' - g' + delta*M)^2,

every function of which takes the same value before and after transforming
a cloud by any member of the family.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod

from .coefficients import _Value
from .errors import DegenerateGenerator, KernelSingular, NoIdentityParameter
from .generators import FamilyGenerator
from .transform import Matrix2

# Entrywise scale-relative tolerance for "this matrix is the identity".
IDENTITY_RTOL = 1e-12

# Scale-relative tolerance for a zero kernel denominator.
KERNEL_SINGULAR_RTOL = 1e-12

Entries = tuple[float, float, float, float]


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


class DiagonalFamily(_Value, OneParamFamily):
    """A(phi) = diag(1, phi); identity at phi = 1."""

    __slots__ = ()

    def evaluate(self, phi: float) -> Matrix2:
        return Matrix2.unchecked(1.0, 0.0, 0.0, float(phi))

    def identity_parameter(self) -> float:
        return 1.0

    def derivative_coefficients(self) -> FamilyGenerator:
        return FamilyGenerator(0.0, 0.0, -1.0)


class UpperTriangularFamily(_Value, OneParamFamily):
    """A(phi) = (1, phi; 0, 1); identity at phi = 0."""

    __slots__ = ()

    def evaluate(self, phi: float) -> Matrix2:
        return Matrix2.unchecked(1.0, float(phi), 0.0, 1.0)

    def identity_parameter(self) -> float:
        return 0.0

    def derivative_coefficients(self) -> FamilyGenerator:
        return FamilyGenerator(1.0, 0.0, 0.0)


class LowerTriangularFamily(_Value, OneParamFamily):
    """A(phi) = (1, 0; phi, 1); identity at phi = 0."""

    __slots__ = ()

    def evaluate(self, phi: float) -> Matrix2:
        return Matrix2.unchecked(1.0, 0.0, float(phi), 1.0)

    def identity_parameter(self) -> float:
        return 0.0

    def derivative_coefficients(self) -> FamilyGenerator:
        return FamilyGenerator(0.0, 1.0, 0.0)


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
            vals = tuple(float(v) for v in raw)
            if len(vals) != 4 or not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{name} must be 4 finite entries, got {raw!r}")
            object.__setattr__(self, name, vals)

    @classmethod
    def from_matrices(cls, a0: Matrix2, b: Matrix2) -> "LinearFamily":
        return cls(a0.entries(), b.entries())

    def evaluate(self, phi: float) -> Matrix2:
        phi = float(phi)
        e = tuple(a + phi * b for a, b in zip(self.a0, self.b))
        return Matrix2.unchecked(*e)

    def identity_parameter(self) -> float:
        """Per-entry consistency solve for A(phi*) = identity.

        Every entry with a nonzero B component proposes a candidate
        phi = (target - a0) / b; all candidates must agree and all entries
        with zero B component must already sit on the identity.
        """
        identity = (1.0, 0.0, 0.0, 1.0)
        scale = max(1.0, max(abs(v) for v in self.a0 + self.b))
        candidates = [(abs(b), (t - a) / b)
                      for a, b, t in zip(self.a0, self.b, identity) if b != 0.0]
        if not candidates:
            # Constant family: identity parameter exists iff A0 is the identity.
            if all(abs(a - t) <= IDENTITY_RTOL * scale
                   for a, t in zip(self.a0, identity)):
                return 0.0
            raise NoIdentityParameter(
                "constant family whose matrix is not the identity")
        # Solve from the best-conditioned entry, then verify all four.
        phi = max(candidates)[1]
        mat = self.evaluate(phi)
        tol = IDENTITY_RTOL * max(scale, scale * abs(phi))
        if all(abs(e - t) <= tol for e, t in zip(mat.entries(), identity)):
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
        KernelSingular: the denominator is zero within tolerance.
    """
    if ks.is_degenerate():
        raise DegenerateGenerator(
            "all derivative coefficients are zero; every function of (M, H) "
            "is invariant")
    den = h * ks.bprime - ks.gprime + ks.delta * m
    scale = abs(h * ks.bprime) + abs(ks.gprime) + abs(ks.delta * m)
    if abs(den) <= KERNEL_SINGULAR_RTOL * max(1.0, scale):
        raise KernelSingular(
            f"kernel denominator {den} is zero within tolerance at ({m}, {h})")
    return (m * m - h) / (den * den)


_CLOSED_FAMILIES = {
    "diag": DiagonalFamily,
    "upper": UpperTriangularFamily,
    "lower": LowerTriangularFamily,
    "rot": RotationFamily,
}


def parse_family(literal: str) -> OneParamFamily:
    """Parse a family literal.

    Accepted forms: `diag`, `upper`, `lower`, `rot`, or
    `linear:a11,a12;a21,a22|b11,b12;b21,b22`.
    """
    text = literal.strip()
    if text in _CLOSED_FAMILIES:
        return _CLOSED_FAMILIES[text]()
    if text.startswith("linear:"):
        body = text[len("linear:"):]
        parts = body.split("|")
        if len(parts) != 2:
            raise ValueError(f"expected linear:A0|B, got {literal!r}")
        mats = []
        for part in parts:
            rows = part.split(";")
            if len(rows) != 2:
                raise ValueError(f"bad matrix in family literal {literal!r}")
            vals = []
            for row in rows:
                cells = row.split(",")
                if len(cells) != 2:
                    raise ValueError(f"bad matrix in family literal {literal!r}")
                vals.extend(float(c) for c in cells)
            mats.append(tuple(vals))
        return LinearFamily(mats[0], mats[1])
    raise ValueError(
        f"unknown family literal {literal!r}; expected one of "
        f"{sorted(_CLOSED_FAMILIES)} or linear:...")
