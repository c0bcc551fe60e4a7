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

from .coefficients import _QUOTE, RTOL, Entries, _real, _Value
from .errors import DegenerateGenerator, KernelSingular, NoIdentityParameter
from .generators import FamilyGenerator
from .transform import Matrix2, parse_entries

_IDENTITY = (1.0, 0.0, 0.0, 1.0)


def _trace_free(a: float, b: float, c: float, d: float) -> FamilyGenerator:
    """The trace-free part (b, c, a - d) of a direction (a b; c d): the
    identity part only scales a cloud, so it is all a kernel depends on."""
    return FamilyGenerator(b, c, a - d)


class RotationFamily(_Value):
    """A(phi) = (cos phi, sin phi; -sin phi, cos phi); identity at phi = 0."""

    __slots__ = ()

    def evaluate(self, phi: float) -> Matrix2:
        return Matrix2.rotation(phi)

    def identity_parameter(self) -> float:
        return 0.0

    def derivative_coefficients(self) -> FamilyGenerator:
        """Of A'(0) = (0, 1; -1, 0)."""
        return _trace_free(0.0, 1.0, -1.0, 0.0)


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
        """Of B; NoIdentityParameter, or DegenerateGenerator if B = c*I."""
        self.identity_parameter()
        return _trace_free(*self.b)


def _over_square(num: float, den: float, shift: int = 0) -> float:
    """2**shift * num / den**2 for a nonzero den, on the mantissas of num and
    den, so that no product or quotient on the way under- or overflows where
    the result does not: the same bits as num / (den*den) where that is a
    normal float, and copysign(inf, num) where the result overflows."""
    (n, e), (d, f) = math.frexp(num), math.frexp(den)
    try:
        return math.ldexp(n / (d * d), e - 2 * f + shift)
    except OverflowError:
        return math.copysign(math.inf, num)


def kernel_value(ks: FamilyGenerator, m: float, h: float) -> float:
    """The invariant kernel (M^2 - H) / (H*b' - g' + delta*M)^2.

    Raises:
        KernelSingular: the denominator is at most RTOL * (|H*b'| + |g'| +
            |delta*M|), its largest value, or it or the value overflows.
    """
    den = h * ks.bprime - ks.gprime + ks.delta * m
    scale = abs(h * ks.bprime) + abs(ks.gprime) + abs(ks.delta * m)
    if not math.isfinite(scale):
        raise KernelSingular(f"kernel denominator overflows at ({m}, {h})")
    if abs(den) <= RTOL * scale:
        raise KernelSingular(
            f"kernel denominator {den} is zero within tolerance at ({m}, {h})")
    # M^2 - H at the scale 2**(2e) of its larger term, so M*M can neither
    # overflow nor underflow where it counts; 2e goes back in with the
    # division.  Exact scaling: the same bits wherever M*M - H is normal.
    e = math.frexp(max(abs(m), math.sqrt(abs(h))))[1]
    mm = math.ldexp(m, -e)
    value = _over_square(mm * mm - math.ldexp(h, -2 * e), den, 2 * e)
    if not math.isfinite(value):
        raise KernelSingular(f"kernel non-finite at ({m}, {h}): {value}")
    return value


def generator_for_matrix(target: Matrix2) -> FamilyGenerator:
    """Derivative coefficients of the pencil I + phi*(target - I): the
    trace-free part of target, with delta = a - d formed from its entries.

    Raises:
        DegenerateGenerator: target is a multiple of the identity within
            RTOL relative to its largest entry: b, c and the diagonal
            difference all vanish at that scale.
    """
    a, b, c, d = target.entries()
    if max(abs(b), abs(c), abs(a - d)) <= RTOL * target.max_abs_entry():
        raise DegenerateGenerator(
            "target - I is a multiple of the identity (uniform scaling); "
            "every function of (M, H) is invariant")
    return _trace_free(a, b, c, d)


def kernel_for_matrix(target: Matrix2, m: float, h: float) -> float:
    """Invariant kernel value for an arbitrary invertible matrix.

    Equals (M^2 - H) / (H*t12 - t21 + (t11 - t22)*M)^2 with t = target.

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
