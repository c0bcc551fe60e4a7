import math

import numpy as np
import pytest

from cloudinv import (FamilyGenerator, KernelSingular, LinearCoefficients,
                      Param, family_pde_residual, full_pde_residuals,
                      generator_value, induced_coefficients, kernel_value,
                      parse_family)
from cloudinv import generators
from cloudinv.generators import _kernel_partials
from conftest import REF_H, REF_M, generator_fd_deviation, perturbed_matrix


class TestGeneratorValue:
    def test_alpha(self):
        assert generator_value(Param.ALPHA, 1.5, 2.5) == (-1.5, -5.0)

    def test_alpha_vanishes_at_origin(self):
        assert generator_value(Param.ALPHA, 0.0, 0.0) == (0.0, 0.0)

    def test_beta(self):
        assert generator_value(Param.BETA, 1.0, 1.0) == (-1.0, -2.0)

    def test_gamma(self):
        # y-shear: (M, H) -> (M + phi, H + 2*phi*M + phi^2), so the field
        # is (1, +2M).
        assert generator_value(Param.GAMMA, 1.5, 2.5) == (1.0, 3.0)

    def test_delta(self):
        assert generator_value(Param.DELTA, 1.5, 2.5) == (1.5, 5.0)

    def test_delta_is_minus_alpha(self):
        a = generator_value(Param.ALPHA, 0.7, 1.9)
        d = generator_value(Param.DELTA, 0.7, 1.9)
        assert a == (-d[0], -d[1])


class TestFiniteDifferenceAgreement:
    def test_gamma_at_reference_point(self):
        dev = generator_fd_deviation(Param.GAMMA, REF_M, REF_H)
        assert dev <= 1e-8

    def test_alpha_at_origin(self):
        assert generator_fd_deviation(Param.ALPHA, 0.0, 0.0) <= 1e-12

    def test_delta_at_unit_point(self):
        assert generator_fd_deviation(Param.DELTA, 1.0, 1.0) <= 1e-8

    @pytest.mark.parametrize("param", [Param.ALPHA, Param.GAMMA, Param.DELTA])
    def test_large_h_when_b_stays_zero(self, param):
        # These perturbations keep b = 0, so no image loses its x-spread.
        m, h = 1e7, 1e14 + 1
        size = max(map(abs, generator_value(param, m, h)))
        assert generator_fd_deviation(param, m, h) <= 1e-6 * size

    def test_all_params_random_points(self, rng):
        for _ in range(100):
            m = rng.uniform(-3.0, 3.0)
            h = m * m + rng.uniform(0.01, 10.0 - m * m if m * m < 10 else 0.02)
            for param in Param:
                assert generator_fd_deviation(param, m, h) <= 1e-7

    def test_sign_flipped_gamma_field_disagrees(self):
        # Regression guard: the y-shear field is (1, +2M), not (1, -2M).
        s = 1e-5
        lc = LinearCoefficients(REF_M, REF_H)
        plus = induced_coefficients(perturbed_matrix(Param.GAMMA, s), lc)
        minus = induced_coefficients(perturbed_matrix(Param.GAMMA, -s), lc)
        fd2 = (plus.h - minus.h) / (2 * s)
        assert abs(fd2 - 2 * REF_M) <= 1e-8
        assert abs(fd2 - (-2 * REF_M)) > 1.0


LOWER_FG = FamilyGenerator(0.0, 1.0, 0.0)
UPPER_FG = FamilyGenerator(1.0, 0.0, 0.0)


class TestFamilyPdeResidual:
    def test_constant_kernel(self):
        res = family_pde_residual(FamilyGenerator(2.0, -1.0, 3.0),
                                  lambda m, h: 4.2, REF_M, REF_H)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_lower_family_annihilates_gap_kernel(self):
        res = family_pde_residual(LOWER_FG, lambda m, h: h - m * m,
                                  REF_M, REF_H)
        assert abs(res) <= 1e-6

    def test_wrong_kernel_negative_control(self):
        res = family_pde_residual(UPPER_FG, lambda m, h: h / (m * m),
                                  REF_M, REF_H)
        assert abs(res) > 1e-3

    def test_kernel_exception_becomes_kernel_singular(self):
        def bad(m, h):
            raise ZeroDivisionError("pole")
        with pytest.raises(KernelSingular):
            family_pde_residual(LOWER_FG, bad, 1.0, 2.0)

    def test_non_finite_kernel_becomes_kernel_singular(self):
        with pytest.raises(KernelSingular):
            family_pde_residual(LOWER_FG, lambda m, h: float("nan"), 1.0, 2.0)


class TestFullPdeResiduals:
    def test_constant_kernel(self):
        res = full_pde_residuals(lambda m, h: -1.0, 0.9, 1.7)
        assert all(abs(v) <= 1e-12 for v in res.values())

    def test_ratio_kernel_solves_alpha_delta_only(self):
        res = full_pde_residuals(lambda m, h: h / (m * m), REF_M, REF_H)
        assert abs(res[Param.ALPHA]) <= 1e-7
        assert abs(res[Param.DELTA]) <= 1e-7
        assert abs(res[Param.BETA]) > 1e-3
        assert abs(res[Param.GAMMA]) > 1e-3

    def test_gap_kernel_alpha_residual_vanishes_on_level_curve(self):
        kernel = lambda m, h: h - m * m
        on_curve = full_pde_residuals(kernel, 1.0, 1.0)
        assert abs(on_curve[Param.ALPHA]) <= 1e-9
        off_curve = full_pde_residuals(kernel, 1.0, 3.0)
        assert abs(off_curve[Param.ALPHA]) > 1e-3


class TestReductionConsistency:
    def test_pde_coefficients_are_field_combinations(self, rng):
        # The one-parameter PDE coefficients equal
        # b'*X_beta + g'*X_gamma + delta*X_alpha applied componentwise.
        for _ in range(1000):
            m, h = rng.uniform(-10.0, 10.0, size=2)
            bp, gp, dl = rng.uniform(-5.0, 5.0, size=3)
            coef_m = (h - 2 * m * m) * bp - dl * m + gp
            coef_h = 2 * (gp * m - bp * h * m - dl * h)
            xb = generator_value(Param.BETA, m, h)
            xg = generator_value(Param.GAMMA, m, h)
            xa = generator_value(Param.ALPHA, m, h)
            comb_m = bp * xb[0] + gp * xg[0] + dl * xa[0]
            comb_h = bp * xb[1] + gp * xg[1] + dl * xa[1]
            assert abs(coef_m - comb_m) <= 1e-12 * max(1.0, abs(coef_m))
            assert abs(coef_h - comb_h) <= 1e-12 * max(1.0, abs(coef_h))

    def test_residual_paths_agree(self, rng):
        kernel = lambda m, h: (m * m - h) / (h + 1.0) ** 2
        for _ in range(50):
            m = rng.uniform(-2.0, 2.0)
            h = m * m + rng.uniform(0.1, 3.0)
            bp, gp, dl = rng.uniform(-2.0, 2.0, size=3)
            fg = FamilyGenerator(bp, gp, dl)
            single = family_pde_residual(fg, kernel, m, h)
            per_param = full_pde_residuals(kernel, m, h)
            combined = (bp * per_param[Param.BETA]
                        + gp * per_param[Param.GAMMA]
                        + dl * per_param[Param.ALPHA])
            assert single == pytest.approx(combined, rel=1e-10, abs=1e-12)


def test_central_difference_convergence_order(monkeypatch):
    fg = FamilyGenerator(1.0, -1.0, 0.0)
    kernel = lambda m, h: kernel_value(fg, m, h)
    steps = [1e-3, 1e-4, 1e-5]
    residuals = []
    for s in steps:
        monkeypatch.setattr(generators, "FD_STEP", s)
        residuals.append(abs(family_pde_residual(fg, kernel, REF_M, REF_H)))
    slope = np.polyfit(np.log(steps), np.log(residuals), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


@pytest.mark.parametrize("literal", ["diag", "upper", "lower", "rot",
                                     "linear:-2,-2;-0.25,0.5|12,8;1,2"])
def test_residual_of_the_own_kernel_at_every_scale(literal):
    # M has degree 1 and H degree 2 in the coordinates, so (1.5s, 3.5s^2) is
    # one cloud shape at every scale s = 2**k.  The residual is measured
    # against its own scale |xi1*dK/dM| + |xi2*dK/dH|, which is 1e-6 at most
    # only if each partial is stepped at its coordinate's size.  From
    # k = 262 on, dK/dH (of order 1/H**2) is subnormal for most families.
    fg = parse_family(literal).derivative_coefficients()
    kernel = lambda m, h: kernel_value(fg, m, h)
    fields = [(fg.bprime, Param.BETA), (fg.gprime, Param.GAMMA),
              (fg.delta, Param.ALPHA)]
    for k in range(-250, 251):
        s = 2.0 ** k
        m, h = 1.5 * s, 3.5 * s * s
        d_dm, d_dh = _kernel_partials(kernel, m, h)
        xi1, xi2 = (sum(w * generator_value(p, m, h)[i] for w, p in fields)
                    for i in (0, 1))
        scale = abs(xi1 * d_dm) + abs(xi2 * d_dh)
        assert abs(family_pde_residual(fg, kernel, m, h)) <= 1e-6 * scale, k

