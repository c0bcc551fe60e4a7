import numpy as np
import pytest

from cloudinv import (FamilyGenerator, KernelSingular, family_pde_residual,
                      kernel_value, parse_family)
from cloudinv import generators
from cloudinv.generators import _field, _kernel_partials
from conftest import REF_H, REF_M, UNIT_DIRECTIONS, generator_fd_deviation

E11, E12, E21, _ = UNIT_DIRECTIONS.values()


def entry_residuals(kernel, m, h):
    """The residual of each entry direction E = (a b; c d), taken as the
    generator (b, c, a - d) of its trace-free part."""
    return {name: family_pde_residual(FamilyGenerator(b, c, a - d), kernel, m, h)
            for name, (a, b, c, d) in UNIT_DIRECTIONS.items()}


class TestFiniteDifferenceAgreement:
    def test_alpha_at_origin(self):
        # (M, H) = (0, 0) is fixed by every diagonal matrix: each difference
        # is exactly 0, as the field is.
        assert generator_fd_deviation(E11, 0.0, 0.0) == 0.0

    @pytest.mark.parametrize("name", ["E11", "E21", "E22"])
    def test_large_h_when_b_stays_zero(self, name):
        # These perturbations keep b = 0, so no image loses its x-spread.
        m, h = 1e7, 1e14 + 1
        e = UNIT_DIRECTIONS[name]
        size = max(map(abs, _field(e, m, h)))
        assert generator_fd_deviation(e, m, h) <= 1e-6 * size


LOWER_FG = FamilyGenerator(0.0, 1.0, 0.0)


class TestFamilyPdeResidual:
    @pytest.mark.parametrize("fg", [FamilyGenerator(2.0, -1.0, 3.0),
                                    *(FamilyGenerator(b, c, a - d)
                                      for a, b, c, d in UNIT_DIRECTIONS.values())],
                             ids=["general", *UNIT_DIRECTIONS])
    def test_constant_kernel(self, fg):
        assert family_pde_residual(fg, lambda m, h: 4.2, REF_M, REF_H) == 0.0

    @pytest.mark.parametrize("error,message", [
        (KernelSingular("the kernel's own pole"), "^the kernel's own pole$"),
        (ValueError("math domain error"),
         r"^kernel evaluation failed at \(1\.0+\d+, 2\.0\): math domain error$"),
        (ZeroDivisionError("pole"), r"^kernel evaluation failed at \(1\.0+\d+, 2\.0\): pole$"),
    ])
    def test_kernel_singular_passes_through_and_others_are_wrapped(self, error,
                                                                   message):
        def bad(m, h):
            raise error
        with pytest.raises(KernelSingular, match=message):
            family_pde_residual(LOWER_FG, bad, 1.0, 2.0)

    def test_non_finite_kernel_becomes_kernel_singular(self):
        with pytest.raises(KernelSingular):
            family_pde_residual(LOWER_FG, lambda m, h: float("nan"), 1.0, 2.0)


class TestFullPdeResiduals:
    def test_ratio_kernel_solves_alpha_delta_only(self):
        res = entry_residuals(lambda m, h: h / (m * m), REF_M, REF_H)
        assert abs(res["E11"]) <= 1e-7
        assert abs(res["E22"]) <= 1e-7
        assert abs(res["E12"]) > 1e-3
        assert abs(res["E21"]) > 1e-3

    def test_gap_kernel_alpha_residual_vanishes_on_level_curve(self, monkeypatch):
        # With a power-of-two step every difference of the quadratic kernel
        # at (1, 1) is exact, and so is the central difference: the residual
        # is exactly 0 on the curve.
        monkeypatch.setattr(generators, "FD_STEP", 2.0 ** -17)
        kernel = lambda m, h: h - m * m
        on_curve = entry_residuals(kernel, 1.0, 1.0)
        assert on_curve["E11"] == 0.0
        off_curve = entry_residuals(kernel, 1.0, 3.0)
        assert abs(off_curve["E11"]) > 1e-3


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
    fields = [(fg.bprime, E12), (fg.gprime, E21), (fg.delta, E11)]
    for k in range(-250, 251):
        s = 2.0 ** k
        m, h = 1.5 * s, 3.5 * s * s
        d_dm, d_dh = _kernel_partials(kernel, m, h)
        xi1, xi2 = (sum(w * _field(e, m, h)[i] for w, e in fields)
                    for i in (0, 1))
        scale = abs(xi1 * d_dm) + abs(xi2 * d_dh)
        assert abs(family_pde_residual(fg, kernel, m, h)) <= 1e-6 * scale, k

