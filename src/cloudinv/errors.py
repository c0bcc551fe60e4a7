"""Semantic exception hierarchy for cloud-invariant computations."""


class CloudInvError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateCloud(CloudInvError):
    """The cloud's x-spread sum D is zero (all x equal).

    The least-squares line is vertical, so the linear coefficients are
    undefined.
    """


class NonInvertibleMatrix(CloudInvError):
    """A 2x2 matrix is singular within tolerance."""


class DegenerateImage(CloudInvError):
    """The transformed cloud has zero x-spread (denominator of the induced
    coefficient map vanishes within tolerance)."""


class NoIdentityParameter(CloudInvError):
    """A one-parameter matrix family passes through no identity matrix."""


class KernelSingular(CloudInvError):
    """Kernel evaluation hit a zero denominator or failed at a stencil point."""


class DegenerateGenerator(CloudInvError):
    """Every function of (M, H) is trivially invariant: a family's derivative
    coefficients all vanish (e.g. a uniform-scaling pencil), or a target
    matrix is a multiple of the identity (the identity included)."""
