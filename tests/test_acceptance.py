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
from test_families import (ACCEPTED_FAMILIES, CASE_STUDY, REJECTED_FAMILIES,
                           assert_400x_unit_spec, assert_identity_member,
                           assert_rounded_member, exact_member)
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


@pytest.mark.parametrize("name,matrix,want_m,tol_m,want_h,tol_h", CRITERION_1,
                         ids=[case[0] for case in CRITERION_1])
def test_criterion_1_coefficient_fidelity(name, matrix, want_m, tol_m, want_h, tol_h):
    after = induced_coefficients(matrix, REF)
    assert abs(after.m - want_m) <= tol_m
    assert abs(after.h - want_h) <= tol_h
    worst = max(abs(after.m - want_m) / tol_m, abs(after.h - want_h) / tol_h)
    print(f"PASS criterion 1 ({name}): reference coefficient pair reproduced, "
          f"{worst:.2f} of allowed tolerance")


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

@pytest.mark.parametrize("n", [3, 10, 30, 100, 10000])
def test_criterion_3_oracle_equivalence(n):
    # Each path against the exact image of its own inputs: the closed form
    # against T S T^T of the chart point it took, the direct recomputation
    # against the sums of the image it reduced.
    rng = np.random.default_rng([3001, n])
    draws = 250
    skipped = 0
    worst_closed = worst_direct = 0.0
    for _ in range(draws):
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
        assert worst_closed <= CLOSED_FORM_ULPS, matrix
        assert worst_direct <= MOMENT_ULPS, matrix
    assert skipped < 0.01 * draws
    print(f"PASS criterion 3 (n={n}): closed form and direct recomputation "
          f"against the exact oracle on {draws - skipped} pairs, worst "
          f"{worst_closed:.1f} and {worst_direct:.1f} ulps, {skipped} skipped")


# Criterion 4 -------------------------------------------------------------

# name -> (family, the range its phi are drawn from).
FAMILIES = {
    "diagonal": (DIAGONAL, 0.3, 3.0),
    "upper": (UPPER_TRIANGULAR, -2.0, 2.0),
    "lower": (LOWER_TRIANGULAR, -2.0, 2.0),
    "rotation": (RotationFamily(), -1.3, 1.3),
    "linear": (CASE_STUDY, 0.2, 0.5),
}


@pytest.mark.parametrize("name", FAMILIES)
def test_criterion_4_invariance_drift(name):
    # The drift of the float kernel is the rounding of its layers, each
    # within its budget at its own inputs: the image of (M, H) under the
    # member (closed form) and the kernel before and after.  The float member
    # is the exact member A0 + phi*B of the float entries and phi (rotation:
    # of its float cos and sin) rounded, checked at every phi; exactly, the
    # kernel does not drift under that member, checked at each cloud's first
    # phi.  20 phi a cloud: each draw costs about 50 us of exact arithmetic.
    rng = np.random.default_rng(3002)
    family, lo, hi = FAMILIES[name]
    worst_closed = worst_kernel = 0.0
    resampled = 0
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
            assert worst_closed <= CLOSED_FORM_ULPS, phi
            assert worst_kernel <= KERNEL_ULPS, phi
            accepted += 1
    print(f"PASS criterion 4 ({name}): kernel invariance over 20 phi x 100 "
          f"clouds, exact under each member, worst {worst_closed:.1f} ulps in the "
          f"image and {worst_kernel:.1f} in the kernel, {resampled} resampled draws")


# Criterion 5 -------------------------------------------------------------

# Controls are drawn from variants whose kernels stay O(1) at generic
# points, so a genuinely wrong pairing shows an O(1) residual.
CONTROLS = {"diagonal": "upper", "upper": "lower", "lower": "rotation",
            "rotation": "diagonal", "linear": "lower"}


def _generic_point(rng, specs, min_den=0.5):
    while True:
        m = rng.uniform(-2.0, 2.0)
        h = m * m + rng.uniform(0.05, 4.0)
        if all(abs(_kernel_den(s, m, h)) >= min_den for s in specs):
            return m, h


@pytest.mark.parametrize("kernel_of", ["own", "control"])
@pytest.mark.parametrize("name", FAMILIES)
def test_criterion_5_pde_residuals(name, kernel_of):
    rng = np.random.default_rng(3003)
    spec = FAMILIES[name][0].derivative_coefficients()
    if kernel_of == "own":
        kernel = lambda m, h: kernel_value(spec, m, h)
        worst = 0.0
        for _ in range(100):
            m, h = _generic_point(rng, [spec])
            res = abs(family_pde_residual(spec, kernel, m, h))
            worst = max(worst, res)
            assert res <= 1e-6
        print(f"PASS criterion 5 ({name}): own-kernel residuals <= {worst:.2e}")
        return
    control = FAMILIES[CONTROLS[name]][0].derivative_coefficients()
    kernel = lambda m, h: kernel_value(control, m, h)
    exceeded = 0
    for _ in range(100):
        m, h = _generic_point(rng, [spec, control], min_den=0.3)
        if abs(family_pde_residual(spec, kernel, m, h)) > 1e-3:
            exceeded += 1
    assert exceeded >= 95
    print(f"PASS criterion 5 ({name}): the {CONTROLS[name]} kernel as a negative "
          f"control exceeded 1e-3 at {exceeded} of 100 points")


# Criterion 6 -------------------------------------------------------------

@pytest.mark.parametrize("at", ["random", "reference", "unit"])
@pytest.mark.parametrize("name", UNIT_DIRECTIONS)
def test_criterion_6_generator_fields(name, at):
    # 100 random points off the collinear curve, the reference point, and
    # (1, 1) on the curve.
    rng = np.random.default_rng(3004)
    points = {"reference": [(REF_M, REF_H)], "unit": [(1.0, 1.0)]}.get(at) or [
        (m, rng.uniform(m * m + 1e-3, 10.0)) for m in rng.uniform(-3.0, 3.0, 100)]
    worst = 0.0
    for m, h in points:
        dev = generator_fd_deviation(UNIT_DIRECTIONS[name], m, h)
        worst = max(worst, dev)
        assert dev <= 1e-7, (m, h)
    print(f"PASS criterion 6 ({name}, {at}): finite differences match the closed "
          f"field; worst gap {worst:.2e}")


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

def _scaling_ulps(rng):
    worst, checked = 0.0, 0
    while checked < 200:
        matrix = random_invertible(rng)
        m = rng.uniform(-2.0, 2.0)
        lc = LinearCoefficients(m, m * m + rng.uniform(0.1, 4.0))
        ulps = kappa_ulps(matrix, rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0]), lc)
        if ulps is not None:
            worst = max(worst, ulps)
            checked += 1
    return worst


def _variance_violations(rng):
    lcs = [linear_coefficients(random_cloud(rng, n=12)) for _ in range(10_000)]
    return sum(lc.h < lc.m ** 2 for lc in lcs)


@pytest.mark.parametrize("identity,check", [
    ("scaling", _scaling_ulps), ("composition", composition_ulps),
    ("collinearity", line_image_ulps), ("variance-ratio", _variance_violations)],
    ids=["scaling", "composition", "collinearity", "variance-ratio"])
def test_criterion_7_structural_properties(identity, check):
    # Each identity holds exactly in the oracle, and each float image is
    # within the closed-form budget of the exact image of its own inputs; no
    # cloud has H < M^2.
    worst = check(np.random.default_rng(3005))
    if identity == "variance-ratio":
        assert worst == 0
        print("PASS criterion 7 (variance-ratio): 0/10000 variance-ratio violations")
        return
    assert worst <= CLOSED_FORM_ULPS
    print(f"PASS criterion 7 ({identity}): exact identity; the float images "
          f"within {worst:.1f} ulps")


# Criterion 8 -------------------------------------------------------------

@pytest.mark.parametrize("family,query", [
    *((family, None) for family in ACCEPTED_FAMILIES),
    *((family, query) for family in REJECTED_FAMILIES
      for query in ("identity_parameter", "derivative_coefficients"))])
def test_criterion_8_branch_equivalence(family, query):
    # derivative_coefficients() asks identity_parameter() first.
    if query is None:
        assert_identity_member(family)
    else:
        with pytest.raises(NoIdentityParameter,
                           match=r"no phi makes A0 \+ phi\*B the identity"):
            getattr(family, query)()
    print(f"PASS criterion 8: consistency solver "
          f"{'accepted' if query is None else 'rejected'} the constructed pencil "
          f"family a0={family.a0}, b={family.b}")


# Criterion 9 -------------------------------------------------------------

def test_criterion_9_embedding_consistency():
    assert_400x_unit_spec(np.random.default_rng(3009), GENERAL_MATRIX)
    print("PASS criterion 9: canonical embedding kernel equals 400x the "
          "unit-spec kernel at the reference point and 1000 random ones, exactly for the decimal target and "
          "within the kernel budget for each float kernel")
