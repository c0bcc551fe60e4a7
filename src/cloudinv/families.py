"""One-parameter matrix families A(phi), a single matrix as a pencil, and
their invariant kernels.

Two family types cover every variant: the pencil A(phi) = A0 + phi*B
(:class:`LinearFamily`) and rotation by phi (:class:`RotationFamily`).  The
named pencils DIAGONAL = diag(1, phi), UPPER_TRIANGULAR = (1, phi; 0, 1) and
LOWER_TRIANGULAR = (1, 0; phi, 1) are LinearFamily values.  Each family that
passes through the identity yields derivative coefficients (b', g', delta),
the trace-free part of its direction at the identity, and the invariant
kernel

    K(M, H) = (M^2 - H) / (H*b' - g' + delta*M)^2,

every function of which takes the same value before and after transforming
a cloud by any member of the family.

Any invertible matrix T sits on the pencil I + phi*(T - I), through the
identity at phi = 0 and T at phi = 1.  T - I and T have the same trace-free
part, so T itself carries the pencil's kernel.  A target proportional to the
identity changes no (M, H), so it has no kernel: every function of (M, H)
is invariant.
"""
from __future__ import annotations

import math

from .coefficients import _QUOTE, Entries, _exact, _near_zero, _ratio, _real, _Value
from .errors import DegenerateGenerator, KernelSingular, NoIdentityParameter
from .generators import FamilyGenerator
from .transform import Matrix2, parse_entries

_IDENTITY = (1, 0, 0, 1)


class RotationFamily(_Value):
    """A(phi) = (cos phi, sin phi; -sin phi, cos phi); identity at phi = 0."""

    __slots__ = ()

    def evaluate(self, phi: float) -> Matrix2:
        phi = _real(phi, "phi")
        c, s = math.cos(phi), math.sin(phi)
        return Matrix2(c, s, -s, c)

    def identity_parameter(self) -> float:
        return 0.0

    def derivative_coefficients(self) -> FamilyGenerator:
        """Of A'(0) = (0, 1; -1, 0)."""
        return FamilyGenerator(1.0, -1.0, 0.0)


class LinearFamily(_Value):
    """The pencil A(phi) = A0 + phi*B for fixed entry tuples A0 and B.

    Neither A0 nor B needs to be invertible, so A(phi) may be singular for
    some phi; there :meth:`evaluate` raises NonInvertibleMatrix.  An identity
    parameter exists only when the entries are mutually consistent; see
    :meth:`identity_parameter`.
    """

    __slots__ = ("a0", "b")

    def __init__(self, a0: Entries, b: Entries) -> None:
        for name, raw in (("a0", a0), ("b", b)):
            try:  # a string of four digits is not four entries
                e0, e1, e2, e3 = () if isinstance(raw, (str, bytes, bytearray)) else raw
            except (TypeError, ValueError):
                raise ValueError(f"{name} must be 4 finite entries, "
                                 f"got {_QUOTE.repr(raw)}") from None
            object.__setattr__(self, name, tuple(
                [_real(v, f"{name}[{i}]") for i, v in enumerate((e0, e1, e2, e3))]))

    def evaluate(self, phi: float) -> Matrix2:
        phi = _real(phi, "phi")
        return Matrix2(*[a + phi * b for a, b in zip(self.a0, self.b)])

    def identity_parameter(self) -> float:
        """Per-entry consistency solve for A(phi*) = identity.

        Every entry with a nonzero B component proposes phi = (target - a0)/b;
        the one from the largest |b| (0.0 for a constant family) must be finite
        and leave |a0 + phi*b - target| at most RTOL * (|a0| + |phi*b| + 1) at
        every entry, both exact, where 1 is the size of the identity's entries.
        """
        candidates = [(abs(b), (t - a) / b)
                      for a, b, t in zip(self.a0, self.b, _IDENTITY) if b != 0.0]
        phi = max(candidates)[1] if candidates else 0.0
        if math.isfinite(phi):
            (f, *e), q = _exact(phi, *self.a0, *self.b)
            if all(_near_zero(abs(a * q + f * b - t * q * q), abs(a * q) + abs(f * b) + q * q)
                   for a, b, t in zip(e[:4], e[4:], _IDENTITY)):
                return phi
        raise NoIdentityParameter(
            f"no phi makes A0 + phi*B the identity (best candidate {phi})")

    def derivative_coefficients(self) -> FamilyGenerator:
        """Of B (see :func:`_direction`); NoIdentityParameter, or
        DegenerateGenerator if B = c*I.

        The test is exact, with no tolerance: I + phi*(c*I + N) is, up to
        scale, the group generated by N however small N is next to c.
        """
        self.identity_parameter()
        return _direction(*self.b)


def _direction(a: float, b: float, c: float, d: float) -> FamilyGenerator:
    """The trace-free part (b, c, a - d) of the direction (a b; c d), or of
    half of it where a - d overflows: halving is exact, so the kernel is 4
    times as large and invariant under the same matrices, unless b or c is
    subnormal, where halving rounds it (5e-324 to 0)."""
    if math.isinf(a - d):
        a, b, c, d = a / 2, b / 2, c / 2, d / 2
    return FamilyGenerator(b, c, a - d)


def kernel_value(ks: FamilyGenerator, m: float, h: float) -> float:
    """The invariant kernel (M^2 - H) / (H*b' - g' + delta*M)^2, its exact
    value rounded once.

    Raises:
        ValueError: m or h is not a finite number (see :func:`_real`).
        KernelSingular: the denominator is at most RTOL * (|H*b'| + |g'| +
            |delta*M|), its largest value, both exact; or the kernel overflows.
    """
    m, h = _real(m, "m"), _real(h, "h")
    (b, g, dl, mi, hi), q = _exact(ks.bprime, ks.gprime, ks.delta, m, h)
    den = hi * b - g * q + dl * mi  # over q**2
    if _near_zero(abs(den), abs(hi * b) + abs(g * q) + abs(dl * mi)):
        raise KernelSingular(f"kernel denominator {_ratio(den, q * q)} is zero "
                             f"within tolerance at ({m}, {h})")
    value = _ratio((mi * mi - hi * q) * q * q, den * den)
    if not math.isfinite(value):
        raise KernelSingular(f"kernel non-finite at ({m}, {h}): {value}")
    return value


def generator_for_matrix(target: Matrix2) -> FamilyGenerator:
    """Derivative coefficients of the pencil I + phi*(target - I): the trace-free
    part of target (see :func:`_direction`), with delta = a - d formed from its
    entries, or from the entries halved where a - d overflows.

    Raises:
        DegenerateGenerator: target is a multiple of the identity within
            RTOL relative to its largest entry, both exact: b, c and the diagonal
            difference all vanish at that scale, so T barely moves (M, H).
    """
    (a, b, c, d), _ = _exact(*target.entries())
    if _near_zero(max(abs(b), abs(c), abs(a - d)), max(map(abs, (a, b, c, d)))):
        raise DegenerateGenerator(
            "target - I is a multiple of the identity (uniform scaling); "
            "every function of (M, H) is invariant")
    return _direction(*target.entries())


def kernel_for_matrix(target: Matrix2, m: float, h: float) -> float:
    """Invariant kernel value for an arbitrary invertible matrix.

    Equals (M^2 - H) / (H*t12 - t21 + (t11 - t22)*M)^2 with t = target, or
    4 times that where t11 - t22 overflows (see :func:`_direction`).

    Raises:
        DegenerateGenerator: target is a multiple of the identity (uniform
            scaling), so every function is invariant.
        KernelSingular: the denominator vanishes at (m, h).
    """
    return kernel_value(generator_for_matrix(target), m, h)


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


def parse_family(literal: str) -> LinearFamily | RotationFamily:
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
            raise ValueError(f"expected linear:A0|B, got {_QUOTE.repr(literal)}")
        return LinearFamily(*map(parse_entries, parts))
    raise ValueError(
        f"unknown family literal {_QUOTE.repr(literal)}; expected one of "
        f"{sorted(_NAMED_FAMILIES)} or linear:...")
