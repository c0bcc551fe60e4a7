"""End-to-end acceptance checks.

Each criterion prints a single PASS line with the observed worst-case
figure so a transcript of this module doubles as a verification report.
Accuracy is asserted against the exact oracle (``exact.py``) on each
computation's own float inputs, in ulps, within the budget of its layer.
"""
import math

import numpy as np
import pytest

from cloudinv import (DIAGONAL, LOWER_TRIANGULAR, UPPER_TRIANGULAR, Cloud,
                      DegenerateCloud, DegenerateImage, FamilyGenerator,
                      KernelSingular, LinearCoefficients, Matrix2,
                      NoIdentityParameter, NonInvertibleMatrix, RotationFamily,
                      apply_to_cloud, family_pde_residual,
                      induced_coefficients, kernel_value, linear_coefficients)
from conftest import (REF_H, REF_M, UNIT_DIRECTIONS, generator_fd_deviation,
                      perturbed_matrix, random_cloud, random_invertible)
from exact import (CLOSED_FORM_ULPS, KERNEL_ULPS, MOMENT_ULPS, centered_sums,
                   chart, chart_ulps, congruence, induced_ulps, kernel,
                   kernel_ulps)
from test_embedding import assert_400x_unit_spec
from test_families import (ACCEPTED_FAMILIES, CASE_STUDY, REJECTED_FAMILIES,
                           assert_identity_member, assert_rounded_member,
                           exact_member)
from test_transform import composition_ulps, kappa_ulps, line_image_ulps

REF = LinearCoefficients(REF_M, REF_H)

DIAG_MATRIX = Matrix2(1.0, 0.0, 0.0, 2.0)
UPPER_MATRIX = Matrix2(1.0, 0.7, 0.0, 1.0)
ROT_MATRIX = RotationFamily().evaluate(math.pi / 3.0)
GENERAL_MATRIX = Matrix2(0.4, -0.4, -0.05, 0.9)


def _kernel_den(spec: FamilyGenerator, m: float, h: float) -> float:
    return h * spec.bprime - spec.gprime + spec.delta * m


# Criterion 1 -------------------------------------------------------------

CRITERION_1 = [
    ("diagonal", DIAG_MATRIX, 3.04488, 5e-5, 9.87991, 5e-5),
    ("upper", UPPER_MATRIX, 0.748882, 5e-6, 0.568896, 5e-6),
    ("rotation", ROT_MATRIX, -0.0364518, 5e-7, 0.0143303, 5e-7),
    ("general", GENERAL_MATRIX, -4.86159, 5e-5, 27.4371, 5e-4),
]


def test_criterion_1_coefficient_fidelity():
    worst = 0.0
    for name, matrix, want_m, tol_m, want_h, tol_h in CRITERION_1:
        after = induced_coefficients(matrix, REF)
        assert abs(after.m - want_m) <= tol_m, name
        assert abs(after.h - want_h) <= tol_h, name
        worst = max(worst, abs(after.m - want_m) / tol_m,
                    abs(after.h - want_h) / tol_h)
    print(f"PASS criterion 1: four reference coefficient pairs reproduced, "
          f"worst {worst:.2f} of allowed tolerance")


# Criterion 2 -------------------------------------------------------------

CRITERION_2 = [
    pytest.param("diagonal-ratio", DIAG_MATRIX, None, 1.06564, 5e-5,
                 id="diagonal-ratio"),
    pytest.param("upper", UPPER_MATRIX, FamilyGenerator(1.0, 0.0, 0.0),
                 -0.0249396, 5e-7, id="upper",
                 marks=pytest.mark.xfail(
                     strict=True,
                     reason="value computed from the six-digit input pair is "
                            "-0.02494040, 8 units in the last printed digit "
                            "from the reported -0.0249396; the stated 5-unit "
                            "tolerance is below the input rounding limit")),
    pytest.param("rotation", ROT_MATRIX, FamilyGenerator(1.0, -1.0, 0.0),
                 -0.0126368, 5e-7, id="rotation"),
    pytest.param("general", GENERAL_MATRIX, FamilyGenerator(8.0, 1.0, 10.0),
                 -0.000131743, 5e-9, id="general"),
]


@pytest.mark.parametrize("name,matrix,spec,want,tol", CRITERION_2)
def test_criterion_2_invariant_fidelity(name, matrix, spec, want, tol):
    after = induced_coefficients(matrix, REF)
    if spec is None:
        before = REF.h / REF.m ** 2
        value_after = after.h / after.m ** 2
    else:
        before = kernel_value(spec, REF.m, REF.h)
        value_after = kernel_value(spec, after.m, after.h)
    assert abs(before - want) <= tol
    assert abs(value_after - want) <= tol
    print(f"PASS criterion 2 ({name}): invariant {want} reproduced before "
          f"and after, errors {abs(before - want):.2e} / "
          f"{abs(value_after - want):.2e}")


# Criterion 3 -------------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    # Each path against the exact image of its own inputs: the closed form
    # against T S T^T of the chart point it took, the direct recomputation
    # against the sums of the image it reduced.
    rng = np.random.default_rng(3001)
    sizes = (3, 10, 100, 10000)
    per_size = 250
    total = 0
    skipped = 0
    worst_closed = worst_direct = 0.0
    for n in sizes:
        for _ in range(per_size):
            total += 1
            xs = rng.uniform(-5.0, 5.0, size=n)
            ys = rng.uniform(-5.0, 5.0, size=n)
            matrix = random_invertible(rng)
            try:
                cloud = Cloud.from_arrays(xs, ys)
                lc = linear_coefficients(cloud)
                den = (2.0 * matrix.a * matrix.b * lc.m
                       + matrix.b ** 2 * lc.h + matrix.a ** 2)
                if abs(den) < 1e-5:
                    skipped += 1
                    continue
                closed = induced_coefficients(matrix, lc)
                image = apply_to_cloud(matrix, cloud)
                direct = linear_coefficients(image)
            except (DegenerateCloud, DegenerateImage):
                skipped += 1
                continue
            worst_closed = max(worst_closed, induced_ulps(closed, matrix, lc))
            worst_direct = max(worst_direct, chart_ulps(
                direct, centered_sums(image.xs, image.ys)))
            assert worst_closed <= CLOSED_FORM_ULPS, (n, matrix)
            assert worst_direct <= MOMENT_ULPS, (n, matrix)
    assert total >= 1000
    assert skipped < 0.01 * total
    print(f"PASS criterion 3: closed form and direct recomputation against the "
          f"exact oracle on {total - skipped} pairs, worst {worst_closed:.1f} and "
          f"{worst_direct:.1f} ulps, {skipped} skipped")


# Criterion 4 -------------------------------------------------------------

CRITERION_4 = [
    ("diagonal", DIAGONAL, 0.3, 3.0),
    ("upper", UPPER_TRIANGULAR, -2.0, 2.0),
    ("lower", LOWER_TRIANGULAR, -2.0, 2.0),
    ("rotation", RotationFamily(), -1.3, 1.3),
    ("linear", CASE_STUDY, 0.2, 0.5),
]


def test_criterion_4_invariance_drift():
    # The drift of the float kernel is the rounding of its layers, each
    # within its budget at its own inputs: the image of (M, H) under the
    # member (closed form) and the kernel before and after.  The float member
    # is the exact member A0 + phi*B of the float entries and phi (rotation:
    # of its float cos and sin) rounded, checked at every phi; exactly, the
    # kernel does not drift under that member, checked at each cloud's first
    # phi.  20 phi a cloud: each draw costs about 50 us of exact arithmetic.
    rng = np.random.default_rng(3002)
    worst_closed = worst_kernel = 0.0
    resampled = 0
    for name, family, lo, hi in CRITERION_4:
        spec = family.derivative_coefficients()
        clouds = 0
        while clouds < 100:
            lc = linear_coefficients(random_cloud(rng))
            if abs(_kernel_den(spec, lc.m, lc.h)) < 1e-3:
                resampled += 1
                continue
            clouds += 1
            kb = kernel_value(spec, lc.m, lc.h)
            worst_kernel = max(worst_kernel, kernel_ulps(kb, spec, lc.m, lc.h))
            accepted = 0
            while accepted < 20:
                phi = rng.uniform(lo, hi)
                try:
                    matrix = family.evaluate(phi)
                    after = induced_coefficients(matrix, lc)
                    if abs(_kernel_den(spec, after.m, after.h)) < 1e-3:
                        resampled += 1
                        continue
                    ka = kernel_value(spec, after.m, after.h)
                except (NonInvertibleMatrix, DegenerateImage, KernelSingular):
                    resampled += 1
                    continue
                assert_rounded_member(matrix, family, phi)
                if accepted == 0:
                    image = congruence(exact_member(family, phi), lc)
                    assert kernel(spec, *chart(image)) == kernel(spec, lc.m, lc.h)
                worst_closed = max(worst_closed, induced_ulps(after, matrix, lc))
                worst_kernel = max(worst_kernel, kernel_ulps(ka, spec, after.m, after.h))
                assert worst_closed <= CLOSED_FORM_ULPS, (name, phi)
                assert worst_kernel <= KERNEL_ULPS, (name, phi)
                accepted += 1
    print(f"PASS criterion 4: kernel invariance over 5 variants x 20 phi x 100 "
          f"clouds, exact under each member, worst {worst_closed:.1f} ulps in the "
          f"image and {worst_kernel:.1f} in the kernel, {resampled} resampled draws")


# Criterion 5 -------------------------------------------------------------

def _generic_point(rng, specs, min_den=0.5):
    while True:
        m = rng.uniform(-2.0, 2.0)
        h = m * m + rng.uniform(0.05, 4.0)
        if all(abs(_kernel_den(s, m, h)) >= min_den for s in specs):
            return m, h


def test_criterion_5_pde_residuals():
    rng = np.random.default_rng(3003)
    specs = [family.derivative_coefficients()
             for _, family, _, _ in CRITERION_4]
    worst = 0.0
    for spec in specs:
        kernel = lambda m, h: kernel_value(spec, m, h)
        for _ in range(100):
            m, h = _generic_point(rng, [spec])
            res = abs(family_pde_residual(spec, kernel, m, h))
            worst = max(worst, res)
            assert res <= 1e-6, spec
    exceeded_counts = []
    # Controls are drawn from variants whose kernels stay O(1) at generic
    # points, so a genuinely wrong pairing shows an O(1) residual.
    control_index = (1, 2, 3, 0, 2)
    for i, spec in enumerate(specs):
        control = specs[control_index[i]]
        kernel = lambda m, h: kernel_value(control, m, h)
        exceeded = 0
        for _ in range(100):
            m, h = _generic_point(rng, [spec, control], min_den=0.3)
            if abs(family_pde_residual(spec, kernel, m, h)) > 1e-3:
                exceeded += 1
        assert exceeded >= 95, (spec, control, exceeded)
        exceeded_counts.append(exceeded)
    print(f"PASS criterion 5: own-kernel residuals <= {worst:.2e}; "
          f"negative controls exceeded 1e-3 at {min(exceeded_counts)}+ of "
          f"100 points per variant")


# Criterion 6 -------------------------------------------------------------

def test_criterion_6_generator_fields():
    rng = np.random.default_rng(3004)
    worst = 0.0
    for _ in range(100):
        m = rng.uniform(-3.0, 3.0)
        h = rng.uniform(m * m + 1e-3, 10.0)
        for name, e in UNIT_DIRECTIONS.items():
            dev = generator_fd_deviation(e, m, h)
            worst = max(worst, dev)
            assert dev <= 1e-7, (name, m, h)
    print(f"PASS criterion 6: finite differences match the closed fields "
          f"(-M,-2H), (H-2M^2,-2HM), (1,+2M), (M,2H); worst gap {worst:.2e}")


@pytest.mark.xfail(strict=True,
                   reason="the second component of the vertical-shear field "
                          "is +2M; a sign-flipped reference (1, -2M) cannot "
                          "match the finite-difference derivative")
def test_criterion_6_sign_flipped_shear_variant():
    s = 1e-5
    plus = induced_coefficients(perturbed_matrix(UNIT_DIRECTIONS["E21"], s), REF)
    minus = induced_coefficients(perturbed_matrix(UNIT_DIRECTIONS["E21"], -s), REF)
    fd = (plus.h - minus.h) / (2.0 * s)
    assert abs(fd - (-2.0 * REF_M)) <= 1e-7


# Criterion 7 -------------------------------------------------------------

def test_criterion_7_structural_properties():
    # Each identity holds exactly in the oracle, and each float image is
    # within the closed-form budget of the exact image of its own inputs.
    rng = np.random.default_rng(3005)

    worst_scale, checked = 0.0, 0
    while checked < 200:
        matrix = random_invertible(rng)
        m = rng.uniform(-2.0, 2.0)
        lc = LinearCoefficients(m, m * m + rng.uniform(0.1, 4.0))
        worst = kappa_ulps(matrix, rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0]), lc)
        if worst is not None:
            worst_scale = max(worst_scale, worst)
            checked += 1

    worst_comp = composition_ulps(rng)

    violations = 0
    for _ in range(10_000):
        lc = linear_coefficients(random_cloud(rng, n=12))
        if lc.h < lc.m ** 2:
            violations += 1
    assert violations == 0

    worst_line = line_image_ulps(rng)

    print(f"PASS criterion 7: exact scaling, composition and collinearity "
          f"identities; the float images within {worst_scale:.1f}, "
          f"{worst_comp:.1f} and {worst_line:.1f} ulps; 0/10000 "
          f"variance-ratio violations")


# Criterion 8 -------------------------------------------------------------

def test_criterion_8_branch_equivalence():
    for family in ACCEPTED_FAMILIES:
        assert_identity_member(family)
    for family in REJECTED_FAMILIES:
        with pytest.raises(NoIdentityParameter):
            family.identity_parameter()
    print(f"PASS criterion 8: consistency solver accepted "
          f"{len(ACCEPTED_FAMILIES)} and rejected {len(REJECTED_FAMILIES)} "
          f"constructed pencil families")


# Criterion 9 -------------------------------------------------------------

def test_criterion_9_embedding_consistency():
    assert_400x_unit_spec(np.random.default_rng(3009), GENERAL_MATRIX)
    print("PASS criterion 9: canonical embedding kernel equals 400x the "
          "unit-spec kernel at 1000 points, exactly for the decimal target and "
          "within the kernel budget for each float kernel")
