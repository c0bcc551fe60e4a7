import pytest

from cloudinv import (DegenerateGenerator, FamilyGenerator, KernelSingular,
                      LinearFamily, Matrix2, apply_to_cloud,
                      generator_for_matrix, kernel_for_matrix, kernel_value,
                      linear_coefficients)
from cloudinv.cli import main
from conftest import REF_H, REF_M, random_cloud, random_invertible

CASE_STUDY_TARGET = Matrix2(0.4, -0.4, -0.05, 0.9)

# Directions away from the identity: E12, E21 and diag(1, 0).
DIRECTIONS = {"E12": (0, 1, 0, 0), "E21": (0, 0, 1, 0), "E11": (1, 0, 0, 0)}


def _near_scaling(k, direction, eps):
    """kappa * (I + eps * E) with kappa = 2**k."""
    kappa = 2.0 ** k
    e = DIRECTIONS[direction]
    return Matrix2(*(kappa * (i + eps * x) for i, x in zip((1, 0, 0, 1), e)))


def _invariant_exit(capsys, target):
    literal = "{!r},{!r};{!r},{!r}".format(*target.entries())
    code = main(["invariant", f"--coeffs={REF_M},{REF_H}", f"--matrix={literal}"])
    return code, capsys.readouterr().err


def _pencil(target):
    """The pencil I + phi*(T - I), through the identity at phi = 0 and T at
    phi = 1 up to rounding."""
    a, b, c, d = target.entries()
    return LinearFamily((1, 0, 0, 1), (a - 1, b, c, d - 1))


def _assert_pencil_derivative(target):
    """The pencil's derivative is generator_for_matrix(target): b' and g'
    exactly, delta within 2**-50 * max(1, |a|, |d|), since the pencil forms
    it as (a - 1) - (d - 1) and the generator as a - d."""
    fg = generator_for_matrix(target)
    pencil = _pencil(target).derivative_coefficients()
    a, _, _, d = target.entries()
    assert (pencil.bprime, pencil.gprime) == (fg.bprime, fg.gprime)
    assert abs(pencil.delta - fg.delta) <= 2.0 ** -50 * max(1.0, abs(a), abs(d))


class TestUniformScalingThreshold:
    """T counts as a multiple of the identity when b, c and the diagonal
    difference are at most 1e-12 of its largest entry, at every scale."""

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("k", [-10, 0, 10, 100])
    def test_below_is_degenerate(self, capsys, k, direction):
        target = _near_scaling(k, direction, 0.5e-12)
        with pytest.raises(DegenerateGenerator, match="uniform scaling"):
            generator_for_matrix(target)
        with pytest.raises(DegenerateGenerator, match="uniform scaling"):
            kernel_for_matrix(target, REF_M, REF_H)
        code, err = _invariant_exit(capsys, target)
        assert code == 4 and "uniform scaling" in err

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("k", [-10, 0, 10, 100])
    def test_above_is_not(self, capsys, k, direction):
        target = _near_scaling(k, direction, 2e-12)
        generator_for_matrix(target)  # a FamilyGenerator is never all zero
        _assert_pencil_derivative(target)
        kernel_for_matrix(target, REF_M, REF_H)
        code, _ = _invariant_exit(capsys, target)
        assert code == 0


def test_generator_is_the_embedded_pencils_derivative(rng):
    for _ in range(200):
        _assert_pencil_derivative(random_invertible(rng))


def test_delta_is_the_diagonal_difference_below_unit_scale():
    # (a - 1) - (d - 1) rounds each a - d = -1.5e-17 ... -5e-17 to -1.1e-16:
    # the generator is exact, the embedded pencil only within its bound.
    for eps in (1.5e-12, 2e-12, 3e-12, 5e-12):
        target = Matrix2(1e-5, 0, 0, 1e-5 * (1 + eps))
        fg = generator_for_matrix(target)
        assert fg.delta == target.a - target.d
        assert (fg.bprime, fg.gprime) == (0.0, 0.0)
        _assert_pencil_derivative(target)


class TestEmbed:
    """A matrix T carries the kernel of the pencil I + phi*(T - I)."""

    def test_diagonal_target(self):
        family = _pencil(Matrix2(1, 0, 0, 2))
        assert family == LinearFamily((1, 0, 0, 1), (0, 0, 0, 1))
        fg = family.derivative_coefficients()
        assert (fg.bprime, fg.gprime, fg.delta) == (0.0, 0.0, -1.0)
        assert generator_for_matrix(Matrix2(1, 0, 0, 2)) == fg

    def test_case_study_target_coefficients(self):
        fg = generator_for_matrix(CASE_STUDY_TARGET)
        assert (fg.bprime, fg.gprime, fg.delta) == \
            pytest.approx((-0.4, -0.05, -0.5))

    def test_identity_target_rejected(self):
        with pytest.raises(DegenerateGenerator):
            generator_for_matrix(Matrix2(1, 0, 0, 1))

    def test_near_identity_target_rejected(self):
        with pytest.raises(DegenerateGenerator):
            generator_for_matrix(Matrix2(1.0 + 1e-15, 0.0, 0.0, 1.0))

    def test_endpoints_exact(self, rng):
        for _ in range(100):
            target = random_invertible(rng)
            try:
                generator_for_matrix(target)
            except DegenerateGenerator:
                continue
            family = _pencil(target)
            at_star = family.evaluate(0.0).entries()
            at_one = family.evaluate(1.0).entries()
            for got, want in zip(at_star, (1.0, 0.0, 0.0, 1.0)):
                assert abs(got - want) <= 1e-14
            for got, want in zip(at_one, target.entries()):
                assert abs(got - want) <= 1e-14


class TestKernelForMatrix:
    def test_case_study_value(self):
        # Oracle: direct evaluation of (M^2-H)/(-0.4H + 0.05 - 0.5M)^2.
        num = REF_M * REF_M - REF_H
        den = -0.4 * REF_H + 0.05 - 0.5 * REF_M
        expected = num / den ** 2
        assert expected == pytest.approx(-0.05269813, abs=1e-8)
        assert kernel_for_matrix(CASE_STUDY_TARGET, REF_M, REF_H) == \
            pytest.approx(expected, rel=1e-14)

    def test_shear_target_and_normalized_form(self):
        # Canonical coefficients (0.7, 0, 0); the unit-max-norm variant
        # (1, 0, 0) recovers the reported -0.0249396.
        got = kernel_for_matrix(Matrix2(1, 0.7, 0, 1), REF_M, REF_H)
        unit = kernel_value(FamilyGenerator(1.0, 0.0, 0.0), REF_M, REF_H)
        assert got == pytest.approx(unit / 0.49, rel=1e-12)
        assert unit == pytest.approx(-0.0249396, abs=1e-6)

    def test_collinear_coefficients_give_zero(self, rng):
        for _ in range(20):
            target = random_invertible(rng)
            m = rng.uniform(-1.5, 1.5)
            try:
                assert kernel_for_matrix(target, m, m * m) == 0.0
            except (DegenerateGenerator, KernelSingular):
                continue

    def test_uniform_scaling_target_degenerate_generator(self):
        with pytest.raises(DegenerateGenerator):
            kernel_for_matrix(Matrix2(2, 0, 0, 2), REF_M, REF_H)

    def test_case_study_is_400x_unit_spec(self, rng):
        # (target - I) = -0.05 * (8, 1, 10), so the canonical kernel is
        # 400x the unit-spec kernel everywhere.
        unit_spec = FamilyGenerator(8.0, 1.0, 10.0)
        checked = 0
        while checked < 1000:
            m = rng.uniform(-3.0, 3.0)
            h = m * m + rng.uniform(0.05, 6.0)
            den = h * 8.0 - 1.0 + 10.0 * m
            if abs(den) < 1e-2:
                continue
            canonical = kernel_for_matrix(CASE_STUDY_TARGET, m, h)
            unit = kernel_value(unit_spec, m, h)
            assert abs(canonical - 400.0 * unit) <= \
                1e-10 * max(1.0, abs(canonical))
            checked += 1

    def test_two_parameter_freedom(self, rng):
        # Any rescaled pencil direction kappa*(target - I) gives the same
        # kernel up to the factor 1/kappa^2.
        for _ in range(50):
            target = random_invertible(rng)
            base = generator_for_matrix(target)
            kappa = rng.uniform(0.2, 5.0) * rng.choice([-1.0, 1.0])
            scaled = FamilyGenerator(kappa * base.bprime, kappa * base.gprime,
                                     kappa * base.delta)
            m = rng.uniform(-2.0, 2.0)
            h = m * m + rng.uniform(0.1, 4.0)
            try:
                k_base = kernel_value(base, m, h)
                k_scaled = kernel_value(scaled, m, h)
            except (KernelSingular, DegenerateGenerator):
                continue
            assert abs(k_scaled - k_base / kappa ** 2) <= \
                1e-12 * max(1.0, abs(k_base / kappa ** 2))

    def test_end_to_end_invariance_sample(self, rng):
        skipped = 0
        checked = 0
        while checked < 200:
            target = random_invertible(rng)
            cloud = random_cloud(rng)
            before = linear_coefficients(cloud)
            try:
                fg = generator_for_matrix(target)
                after = linear_coefficients(apply_to_cloud(target, cloud))
                dens = [h * fg.bprime - fg.gprime + fg.delta * m
                        for m, h in [(before.m, before.h), (after.m, after.h)]]
                if min(abs(d) for d in dens) < 1e-3:
                    skipped += 1
                    continue
                kb = kernel_for_matrix(target, before.m, before.h)
                ka = kernel_for_matrix(target, after.m, after.h)
            except (DegenerateGenerator, KernelSingular):
                skipped += 1
                continue
            assert abs(ka - kb) <= 1e-8 * max(1.0, abs(kb))
            checked += 1
        assert skipped < checked
