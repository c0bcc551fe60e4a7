"""Linear-transformation invariants of planar point clouds.

Compute least-squares linear coefficients (M, H) of a cloud, evaluate the
induced rational map of (M, H) under 2x2 matrices, and build/verify cloud
invariants from infinitesimal generators of one-parameter matrix families
and of arbitrary invertible matrices.
"""

__version__ = "0.1.0"

from .cloudgen import KINDS, CloudGenSpec, generate_cloud
from .coefficients import (Cloud, LinearCoefficients, Point, Scatter,
                           is_collinear, linear_coefficients, raw_sums,
                           read_cloud_csv, write_cloud_csv)
from .errors import (CloudInvError, DegenerateCloud, DegenerateGenerator,
                     DegenerateImage, KernelSingular, NoIdentityParameter,
                     NonInvertibleMatrix)
from .families import (DIAGONAL, LOWER_TRIANGULAR, UPPER_TRIANGULAR,
                       LinearFamily, RotationFamily, generator_for_matrix,
                       kernel_for_matrix, kernel_value, parse_family)
from .generators import (FamilyGenerator, Param, family_pde_residual,
                         full_pde_residuals, generator_value)
from .transform import (Matrix2, apply_to_cloud, induced_coefficients,
                        induced_raw, parse_matrix)

__all__ = [
    "__version__",
    "KINDS", "CloudGenSpec", "generate_cloud",
    "Cloud", "LinearCoefficients", "Point", "Scatter",
    "is_collinear", "linear_coefficients", "raw_sums",
    "read_cloud_csv", "write_cloud_csv",
    "CloudInvError", "DegenerateCloud", "DegenerateGenerator",
    "DegenerateImage", "KernelSingular", "NoIdentityParameter",
    "NonInvertibleMatrix",
    "DIAGONAL", "LOWER_TRIANGULAR", "UPPER_TRIANGULAR",
    "LinearFamily", "RotationFamily", "generator_for_matrix",
    "kernel_for_matrix", "kernel_value", "parse_family",
    "FamilyGenerator", "Param", "family_pde_residual", "full_pde_residuals",
    "generator_value",
    "Matrix2", "apply_to_cloud", "induced_coefficients", "induced_raw",
    "parse_matrix",
]
