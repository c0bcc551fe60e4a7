from fractions import Fraction
from types import SimpleNamespace

import pytest

from cloudinv import (DegenerateGenerator, FamilyGenerator, KernelSingular,
                      LinearCoefficients, LinearFamily, Matrix2,
                      apply_to_cloud, generator_for_matrix,
                      induced_coefficients, kernel_for_matrix, kernel_value,
                      linear_coefficients)
from cloudinv.cli import main
from conftest import REF_H, REF_M, random_cloud, random_invertible
from exact import (CLOSED_FORM_ULPS, KERNEL_ULPS, MOMENT_ULPS, centered_sums,
                   chart, chart_ulps, congruence, induced_ulps, kernel,
                   kernel_ulps, ulps)

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
    exactly, and delta, which the pencil forms as (a - 1) - (d - 1) and the
    generator as a - d.  The generator rounds once; the pencil three times,
    half an ulp of max(|a - 1|, |d - 1|) for each difference and one ulp of
    it for their difference, at most twice its size: 2 ulps of it in all."""
    fg = generator_for_matrix(target)
    pencil = _pencil(target).derivative_coefficients()
    a, _, _, d = target.entries()
    assert (pencil.bprime, pencil.gprime) == (fg.bprime, fg.gprime)
    assert fg.delta == float(Fraction(a) - Fraction(d))
    assert ulps(pencil.delta, Fraction(a) - Fraction(d),
                max(abs(a - 1), abs(d - 1))) <= 2


def assert_400x_unit_spec(rng, target, points=1000):
    """(target - I) = -0.05 * (8, 1, 10) in decimal, so there the canonical
    kernel is 400x the unit-spec kernel, exactly.  The float target's
    generator is that direction rounded entrywise, and each float kernel is
    within its budget of the exact kernel of its own generator."""
    unit_spec = FamilyGenerator(8.0, 1.0, 10.0)
    fg = generator_for_matrix(target)
    assert fg == FamilyGenerator(-0.4, -0.05, -0.5)
    decimal = SimpleNamespace(bprime=Fraction("-0.4"), gprime=Fraction("-0.05"),
                              delta=Fraction("-0.5"))
    checked = 0
    while checked < points:
        m = rng.uniform(-3.0, 3.0)
        h = m * m + rng.uniform(0.05, 6.0)
        if abs(h * 8.0 - 1.0 + 10.0 * m) < 1e-2:
            continue
        assert kernel(decimal, m, h) == 400 * kernel(unit_spec, m, h)
        assert kernel_ulps(kernel_for_matrix(target, m, h), fg, m, h) <= KERNEL_ULPS
        assert kernel_ulps(kernel_value(unit_spec, m, h), unit_spec, m, h) <= KERNEL_ULPS
        checked += 1


class TestUniformScalingThreshold:
    """Where generator_for_matrix refuses T as uniform scaling (its row in
    test_guards.py), the kernel and the CLI do too.  As a pencil's direction
    B the same entries are not refused: up to scale, that pencil is the group
    generated by B's trace-free part, however small next to B's scale."""

    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("k", [-10, 0, 10, 100])
    @pytest.mark.parametrize("eps", [0.5e-12, 2e-12])
    def test_kernel_cli_and_pencil_on_both_sides(self, capsys, k, direction, eps):
        target = _near_scaling(k, direction, eps)
        code, err = _invariant_exit(capsys, target)
        if eps < 1e-12:
            with pytest.raises(DegenerateGenerator, match="uniform scaling"):
                kernel_for_matrix(target, REF_M, REF_H)
            assert code == 4 and "uniform scaling" in err
        else:
            kernel_for_matrix(target, REF_M, REF_H)
            _assert_pencil_derivative(target)
            assert code == 0
        a, b, c, d = target.entries()
        fg = LinearFamily((1, 0, 0, 1), (a, b, c, d)).derivative_coefficients()
        assert (fg.bprime, fg.gprime, fg.delta) == (b, c, a - d)
        literal = "{!r},{!r};{!r},{!r}".format(a, b, c, d)
        assert main(["invariant", f"--coeffs={REF_M},{REF_H}",
                     f"--family=linear:1,0;0,1|{literal}"]) == 0


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
        # 0.4 - 0.9 is exactly -0.5 in binary too.
        fg = generator_for_matrix(CASE_STUDY_TARGET)
        assert (fg.bprime, fg.gprime, fg.delta) == (-0.4, -0.05, -0.5)

    def test_identity_target_rejected(self):
        with pytest.raises(DegenerateGenerator):
            generator_for_matrix(Matrix2(1, 0, 0, 1))

    def test_near_identity_target_rejected(self):
        with pytest.raises(DegenerateGenerator):
            generator_for_matrix(Matrix2(1.0 + 1e-15, 0.0, 0.0, 1.0))

    def test_endpoints_exact(self, rng):
        # phi = 0 gives I exactly; phi = 1 gives 1 + (t - 1) on the diagonal,
        # t - 1 rounded once and then 1 added, so each entry is within one ulp
        # of |t - 1| + 1 of the target's (the 1 is the identity's entry).
        for _ in range(100):
            target = random_invertible(rng)
            try:
                generator_for_matrix(target)
            except DegenerateGenerator:
                continue
            family = _pencil(target)
            assert family.evaluate(0.0).entries() == (1.0, 0.0, 0.0, 1.0)
            at_one = family.evaluate(1.0).entries()
            for got, want, unit in zip(at_one, target.entries(), (1, 0, 0, 1)):
                assert ulps(got, Fraction(want), abs(want - unit) + unit) <= 1


class TestKernelForMatrix:
    def test_case_study_value(self):
        # Oracle: direct evaluation of (M^2-H)/(-0.4H + 0.05 - 0.5M)^2.
        num = REF_M * REF_M - REF_H
        den = -0.4 * REF_H + 0.05 - 0.5 * REF_M
        expected = num / den ** 2
        assert expected == pytest.approx(-0.05269813, abs=1e-8)
        got = kernel_for_matrix(CASE_STUDY_TARGET, REF_M, REF_H)
        fg = generator_for_matrix(CASE_STUDY_TARGET)
        assert kernel_ulps(got, fg, REF_M, REF_H) <= KERNEL_ULPS

    def test_shear_target_and_normalized_form(self):
        # Canonical coefficients (0.7, 0, 0); the unit-max-norm variant
        # (1, 0, 0) recovers the reported -0.0249396.
        shear, unit_spec = FamilyGenerator(0.7, 0.0, 0.0), FamilyGenerator(1.0, 0.0, 0.0)
        assert generator_for_matrix(Matrix2(1, 0.7, 0, 1)) == shear
        assert kernel(shear, REF_M, REF_H) == \
            kernel(unit_spec, REF_M, REF_H) / Fraction(0.7) ** 2
        got = kernel_for_matrix(Matrix2(1, 0.7, 0, 1), REF_M, REF_H)
        unit = kernel_value(unit_spec, REF_M, REF_H)
        assert kernel_ulps(got, shear, REF_M, REF_H) <= KERNEL_ULPS
        assert kernel_ulps(unit, unit_spec, REF_M, REF_H) <= KERNEL_ULPS
        assert unit == pytest.approx(-0.0249396, abs=1e-6)

    def test_collinear_coefficients_give_zero(self, rng):
        for _ in range(20):
            target = random_invertible(rng)
            m = rng.uniform(-1.5, 1.5)
            try:
                assert kernel_for_matrix(target, m, m * m) == 0.0
            except (DegenerateGenerator, KernelSingular):
                continue

    @pytest.mark.parametrize("entries", [(1e308, 0.0, 0.0, -1e308),
                                         (1e308, 1e300, -1e300, -1e308)])
    def test_an_overflowing_direction_is_halved_and_keeps_its_kernel(self, entries):
        # a - d overflows, so the generator is that of T/2, exactly half of
        # (b, c, a - d); T commutes with it, so its kernel is invariant under
        # T, exactly, and in floats each kernel is within its budget.
        target = Matrix2(*entries)
        a, b, c, d = map(Fraction, entries)
        fg = generator_for_matrix(target)
        assert [2 * Fraction(v) for v in (fg.bprime, fg.gprime, fg.delta)] == [b, c, a - d]
        pencil = LinearFamily((1, 0, 0, 1), entries).derivative_coefficients()
        assert pencil == fg
        lc = LinearCoefficients(REF_M, REF_H)
        after = induced_coefficients(target, lc)
        assert kernel(fg, *chart(congruence(target, lc))) == kernel(fg, REF_M, REF_H)
        assert induced_ulps(after, target, lc) <= CLOSED_FORM_ULPS
        for m, h in ((REF_M, REF_H), (after.m, after.h)):
            assert kernel_ulps(kernel_for_matrix(target, m, h), fg, m, h) <= KERNEL_ULPS

    def test_halving_rounds_a_subnormal_entry(self):
        # Out of the halved direction's exactness: b = 5e-324 halves to 0, so
        # the generator is that of (1e308, 0; 0, -1e308), not of the target.
        fg = generator_for_matrix(Matrix2(1e308, 5e-324, 0.0, -1e308))
        assert (fg.bprime, fg.gprime, fg.delta) == (0.0, 0.0, 1e308)

    def test_uniform_scaling_target_degenerate_generator(self):
        with pytest.raises(DegenerateGenerator):
            kernel_for_matrix(Matrix2(2, 0, 0, 2), REF_M, REF_H)

    def test_case_study_is_400x_unit_spec(self, rng):
        assert_400x_unit_spec(rng, CASE_STUDY_TARGET)

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
            # Exactly 1/kappa^2 for the exact direction kappa*(b', g', delta);
            # the float one is that rounded, and each kernel is within its
            # budget of the exact kernel of its own generator.
            exact_scaled = SimpleNamespace(**{name: Fraction(kappa) * Fraction(getattr(base, name))
                                              for name in ("bprime", "gprime", "delta")})
            assert kernel(exact_scaled, m, h) == kernel(base, m, h) / Fraction(kappa) ** 2
            assert kernel_ulps(k_base, base, m, h) <= KERNEL_ULPS
            assert kernel_ulps(k_scaled, scaled, m, h) <= KERNEL_ULPS

    def test_end_to_end_invariance_sample(self, rng):
        # T commutes with itself, so exactly the kernel of T's generator is
        # the same at a cloud's sums and at their image; in floats the image's
        # chart is within the moment budget of the image's own sums, and
        # each kernel within its budget at its own (M, H).
        skipped = 0
        checked = 0
        while checked < 200:
            target = random_invertible(rng)
            cloud = random_cloud(rng)
            image = apply_to_cloud(target, cloud)
            before = linear_coefficients(cloud)
            try:
                fg = generator_for_matrix(target)
                after = linear_coefficients(image)
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
            sums = centered_sums(cloud.xs, cloud.ys)
            assert kernel(fg, *chart(congruence(target, sums))) == kernel(fg, *chart(sums))
            assert chart_ulps(after, centered_sums(image.xs, image.ys)) <= MOMENT_ULPS
            assert kernel_ulps(kb, fg, before.m, before.h) <= KERNEL_ULPS
            assert kernel_ulps(ka, fg, after.m, after.h) <= KERNEL_ULPS
            checked += 1
        assert skipped < checked
