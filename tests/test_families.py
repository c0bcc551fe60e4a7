import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinv import (DIAGONAL, LOWER_TRIANGULAR, UPPER_TRIANGULAR,
                      DegenerateGenerator, FamilyGenerator, KernelSingular,
                      LinearCoefficients, LinearFamily, Matrix2,
                      NonInvertibleMatrix, RotationFamily, generator_for_matrix,
                      induced_coefficients, kernel_for_matrix, kernel_value,
                      parse_family)
from cloudinv.cli import main
from cloudinv.coefficients import RTOL
from cloudinv.generators import _field
from conftest import (REF_H, REF_M, UNIT_DIRECTIONS, magnitude,
                      random_invertible)
from exact import chart, congruence, induced, kernel, pencil_gap, ulps

CASE_STUDY = LinearFamily((-2.0, -2.0, -0.25, 0.5), (12.0, 8.0, 1.0, 2.0))

CLOSED_VARIANTS = [
    (DIAGONAL, 1.0, (0.0, 0.0, -1.0)),
    (UPPER_TRIANGULAR, 0.0, (1.0, 0.0, 0.0)),
    (LOWER_TRIANGULAR, 0.0, (0.0, 1.0, 0.0)),
    (RotationFamily(), 0.0, (1.0, -1.0, 0.0)),
    # (1 - a0) / b of the largest |b|, 3/12, is exact.
    (CASE_STUDY, 0.25, (8.0, 1.0, 10.0)),
]


@pytest.mark.parametrize("a0,b,bad", [
    ("1001", "0100", "a0"),
    ((1, 0, 0, 1), b"0100", "b"),
    ((1, 0, 0, 1), ("0", 1, 0, 0), "b"),
    ((1.0, 0.0, 0.0, True), (0, 1, 0, 0), "a0"),
    ((1, 0, 0, 1), (0, 1, 0, None), "b"),
    ((1, 0, 0, 2 ** 1100), (0, 1, 0, 0), "a0"),
])
def test_linear_family_rejects_non_numeric_entries(a0, b, bad):
    # Text is not 4 entries; any other bad entry is named by its index.
    with pytest.raises(ValueError, match=rf"^{bad}( must be 4 finite entries|"
                                         r"\[\d\] must be finite), got "):
        LinearFamily(a0, b)


class TestEvaluate:
    @pytest.mark.parametrize("at", ["random", 0.0, 5e-324, -1e-300, 1e300])
    @pytest.mark.parametrize("family,entries,singular", [
        (DIAGONAL, lambda p: (1.0, 0.0, 0.0, p), {0.0, 5e-324, -1e-300, 1e300}),
        (UPPER_TRIANGULAR, lambda p: (1.0, p, 0.0, 1.0), {1e300}),
        (LOWER_TRIANGULAR, lambda p: (1.0, 0.0, p, 1.0), {1e300}),
    ], ids=["diag", "upper", "lower"])
    def test_named_pencils_are_exact(self, rng, family, entries, singular, at):
        # Singular within tolerance: det is 0 or below RTOL * max|entry|**2.
        for phi in rng.uniform(-3.0, 3.0, 50) if at == "random" else [at]:
            if phi in singular:
                with pytest.raises(NonInvertibleMatrix):
                    family.evaluate(phi)
            else:
                assert family.evaluate(phi).entries() == entries(phi)


class TestIdentityParameter:
    @pytest.mark.parametrize("family,phi_star,_", CLOSED_VARIANTS)
    def test_closed_variants(self, family, phi_star, _):
        assert family.identity_parameter() == phi_star
        assert family.evaluate(phi_star).entries() == (1.0, 0.0, 0.0, 1.0)

    def test_constant_identity_family(self):
        fam = LinearFamily((1.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0))
        assert fam.identity_parameter() == 0.0


def _branch1(b11, b12, b21, b22, a22):
    # b22 != 0; remaining base entries forced by consistency.
    a21 = (a22 - 1.0) * b21 / b22
    a12 = (a22 - 1.0) * b12 / b22
    a11 = (a22 * b11 - b11 + b22) / b22
    return LinearFamily((a11, a12, a21, a22), (b11, b12, b21, b22))


def _branch2(b11, b12, b21, a21):
    # b22 = 0, a22 = 1, b21 != 0.
    a12 = a21 * b12 / b21
    a11 = (a21 * b11 + b21) / b21
    return LinearFamily((a11, a12, a21, 1.0), (b11, b12, b21, 0.0))


def _branch3(b11, b12, a12):
    # b22 = b21 = 0, a22 = 1, a21 = 0, b12 != 0.
    a11 = (a12 * b11 + b12) / b12
    return LinearFamily((a11, a12, 0.0, 1.0), (b11, b12, 0.0, 0.0))


def _branch4(b11, a11):
    # Only b11 nonzero; base fixed to the identity elsewhere.
    return LinearFamily((a11, 0.0, 0.0, 1.0), (b11, 0.0, 0.0, 0.0))


ACCEPTED_FAMILIES = [
    _branch1(12.0, 8.0, 1.0, 2.0, 0.5),     # the worked case study
    _branch1(1.0, 2.0, 3.0, 4.0, 3.0),
    _branch2(5.0, 2.0, 4.0, 2.0),
    _branch2(-1.0, 0.5, 2.0, -3.0),
    _branch3(3.0, 2.0, 4.0),
    _branch3(0.0, -1.5, 2.0),
    _branch4(2.0, 5.0),
    _branch4(-0.5, 1.0),
]

REJECTED_FAMILIES = [
    LinearFamily((2.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0)),
    LinearFamily((1.0, 0.5, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0)),
    # Case-study pencil with one base entry knocked off consistency.
    LinearFamily((-2.0, -2.0, -0.25, 0.51), (12.0, 8.0, 1.0, 2.0)),
    LinearFamily((-1.9, -2.0, -0.25, 0.5), (12.0, 8.0, 1.0, 2.0)),
    # Candidates from different entries disagree.
    LinearFamily((0.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 1.0)),
    LinearFamily((2.0, 0.0, 0.0, 2.0), (0.0, 0.0, 0.0, 0.0)),
    # A12 is 1e-7 at every phi; the large A11 and phi = -999999 must not
    # hide that: each entry is checked at its own scale.
    LinearFamily((1e6, 1e-7, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0)),
    # The candidate overflows: (1 - 2)/5e-324 is -inf.
    LinearFamily((2.0, 1.0, 1.0, 2.0), (5e-324,) * 4),
    # A finite candidate whose phi*b, about 1.8e308, is past the float range
    # in A12: only the exact gap shows it.
    LinearFamily((-1.7976931348623157e308, 0.0, 0.0, 1.0),
                 (1.7187820019775026e289, 1.7187820019775026e289, 0.0, 0.0)),
]


def assert_identity_member(family):
    """The member at the accepted phi is the identity, in exact arithmetic on
    the float entries, within RTOL of each entry's own bound |a0| + |phi*b| + 1,
    the bound the consistency solve states."""
    phi = Fraction(family.identity_parameter())
    for a, b, t in zip(family.a0, family.b, (1, 0, 0, 1)):
        a, b = Fraction(a), Fraction(b)
        assert abs(a + phi * b - t) <= Fraction(RTOL) * (abs(a) + abs(phi * b) + 1)


class TestDerivativeCoefficients:
    @pytest.mark.parametrize("family,_,expected", CLOSED_VARIANTS)
    def test_closed_forms(self, family, _, expected):
        fg = family.derivative_coefficients()
        assert (fg.bprime, fg.gprime, fg.delta) == expected
        if isinstance(family, RotationFamily):
            # A'(0) = J = (0, 1; -1, 0): to first order rotation is I + phi*J.
            pencil = LinearFamily((1, 0, 0, 1), (0, 1, -1, 0))
            assert fg == pencil.derivative_coefficients() == FamilyGenerator(1, -1, 0)


class TestKernelValue:
    def test_collinear_coefficients_give_zero(self):
        assert kernel_value(FamilyGenerator(2.0, -1.0, 0.5), 1.5, 2.25) == 0.0

    @pytest.mark.parametrize("fg", [DIAGONAL.derivative_coefficients(),
                                    generator_for_matrix(Matrix2(2.0, 0.0, 0.0, 1.0))],
                             ids=["diag", "matrix-2,0;0,1"])
    @pytest.mark.parametrize("ms", [
        [*(2.0 ** k for k in range(-1074, -511)), 1e-300, 1e-200],
        [*(2.0 ** k for k in range(512, 1024)), 1e200, 1.7e308]], ids=["underflows", "overflows"])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_degree_zero_kernel_keeps_its_square(self, sign, ms, fg):
        # Below |M| = 2**-511 M*M underflows, and from 2**512 on it
        # overflows, yet K = (M^2 - H)/M^2 is 1 at H = 0, and at H = 1e300
        # under M = 1e200, 1e-100 of M^2.
        for m in ms:
            assert kernel_value(fg, sign * m, 0.0) == 1.0, m
        assert kernel_value(fg, sign * 1e200, 1e300) == 1.0

    @pytest.mark.parametrize("m,h", [(1e-300, 1e-10), (1e200, 1e300)])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_term_sets_the_numerator(self, sign, m, h):
        # H far above M^2: its term alone sets the numerator, K = -1/H;
        # M^2 far above H: K = M^2/H^2.
        upper = FamilyGenerator(1.0, 0.0, 0.0)
        assert kernel_value(upper, sign * m, h) == float(kernel(upper, sign * m, h))


@settings(max_examples=300, deadline=None)
@given(magnitude, magnitude, magnitude, magnitude, magnitude,
       st.integers(-200, 200))
def test_power_of_two_scaling_of_the_generator_is_exact(bprime, gprime, delta,
                                                        m, h, k):
    # The denominator has degree 1 in (b', g', delta), so the kernel of the
    # generator times 2**k is 4**-k times the kernel, or the same error.
    # A generator of three zeros is refused when built, at either scale.
    scaled = [2.0 ** k * v for v in (bprime, gprime, delta)]
    try:
        fg = FamilyGenerator(bprime, gprime, delta)
        want = math.ldexp(kernel_value(fg, m, h), -2 * k)
    except (DegenerateGenerator, KernelSingular) as exc:
        with pytest.raises(type(exc)):
            kernel_value(FamilyGenerator(*scaled), m, h)
        return
    assert kernel_value(FamilyGenerator(*scaled), m, h) == want


@settings(max_examples=300, deadline=None)
@given(st.floats(0.5, 1.0, exclude_max=True),
       st.integers(-1073, -511) | st.integers(513, 1024),
       st.sampled_from([1.0, -1.0]), st.floats(-1e6, 1e6),
       st.sampled_from([DIAGONAL.derivative_coefficients(),
                        generator_for_matrix(Matrix2(2.0, 0.0, 0.0, 1.0))]))
def test_kernel_where_m_squared_is_out_of_range_is_exact(frac, k, sign, t, fg):
    # |M| < 2**-511, where M*M underflows, and H = t*M^2 (rounded, perhaps
    # to a subnormal or 0); or |M| >= 2**512, where M*M overflows, and
    # H = t*1e302.  The kernel is its exact value rounded once, cancelling
    # terms included.
    m = sign * math.ldexp(frac, k)
    h = float(Fraction(m) ** 2 * Fraction(t)) if k < 0 else t * 1e302
    assert kernel_value(fg, m, h) == float(kernel(fg, m, h))


def exact_member(family, phi):
    """The exact entries of the member at phi: A0 + phi*B of the float
    entries and phi, or rotation's float cos and sin, as Fractions."""
    if isinstance(family, RotationFamily):
        c, s = math.cos(phi), math.sin(phi)
        return c, s, -s, c
    return tuple(Fraction(a) + Fraction(phi) * Fraction(b)
                 for a, b in zip(family.a0, family.b))


def assert_rounded_member(matrix, family, phi):
    """matrix is the exact member at phi (see :func:`exact_member`) as floats
    round it: rotation's exactly, and each entry a0 + phi*b within its two
    roundings, half an ulp of the product phi*b and half an ulp of the entry."""
    if isinstance(family, RotationFamily):
        assert matrix.entries() == exact_member(family, phi)
        return
    for got, a, b in zip(matrix.entries(), family.a0, family.b):
        assert pencil_gap(got, a, phi, b) <= (math.ulp(phi * b) + math.ulp(got)) / 2


@pytest.mark.parametrize("kappa", [2.0, -0.5, 7.25])
def test_direction_scaling_covariance(rng, kappa):
    # Scaling the pencil direction by kappa scales the kernel by 1/kappa^2,
    # exactly, so the set of functions of the kernel is unchanged; each float
    # kernel is its own exact value rounded once.
    base_spec = CASE_STUDY.derivative_coefficients()
    rebased = LinearFamily((1.0, 0.0, 0.0, 1.0), tuple(kappa * b for b in CASE_STUDY.b))
    scaled_spec = rebased.derivative_coefficients()
    assert (scaled_spec.bprime, scaled_spec.gprime, scaled_spec.delta) == \
        tuple(kappa * v for v in (8.0, 1.0, 10.0))
    for _ in range(50):
        m = rng.uniform(-2.0, 2.0)
        h = m * m + rng.uniform(0.1, 3.0)
        assert kernel(scaled_spec, m, h) == kernel(base_spec, m, h) / Fraction(kappa) ** 2
        for fg in (base_spec, scaled_spec):
            assert kernel_value(fg, m, h) == float(kernel(fg, m, h))


# A matrix T carries the kernel of the pencil I + phi*(T - I), whose
# derivative at the identity is generator_for_matrix(T).

# Directions away from the identity: E12, E21, diag(1, 0) and diag(0, 1).
DIRECTIONS = {"E12": (0, 1, 0, 0), "E21": (0, 0, 1, 0), "E11": (1, 0, 0, 0),
              "E22": (0, 0, 0, 1)}


def _near_scaling(k, direction, eps):
    """kappa * (I + eps * E) with kappa = 2**k."""
    e = DIRECTIONS[direction]
    return Matrix2(*(2.0 ** k * (i + eps * x) for i, x in zip((1, 0, 0, 1), e)))


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
    the exact kernel of its own generator rounded once, at the reference
    point and at ``points`` random ones."""
    unit_spec = FamilyGenerator(8.0, 1.0, 10.0)
    fg = generator_for_matrix(target)
    assert fg == FamilyGenerator(-0.4, -0.05, -0.5)
    decimal = SimpleNamespace(bprime=Fraction("-0.4"), gprime=Fraction("-0.05"),
                              delta=Fraction("-0.5"))
    at = [(REF_M, REF_H)]
    while len(at) <= points:
        m = rng.uniform(-3.0, 3.0)
        h = m * m + rng.uniform(0.05, 6.0)
        if abs(h * 8.0 - 1.0 + 10.0 * m) >= 1e-2:
            at.append((m, h))
    for m, h in at:
        assert kernel(decimal, m, h) == 400 * kernel(unit_spec, m, h)
        assert kernel_for_matrix(target, m, h) == float(kernel(fg, m, h))
        assert kernel_value(unit_spec, m, h) == float(kernel(unit_spec, m, h))


class TestUniformScalingThreshold:
    """Where generator_for_matrix refuses T as uniform scaling (its row in
    test_guards.py), the kernel and the CLI do too.  As a pencil's direction
    B the same entries are refused only where B is a multiple of I: up to
    scale, that pencil is the group generated by B's trace-free part, however
    small next to B's scale."""

    @pytest.mark.parametrize("direction,eps", [
        *((direction, eps) for direction in DIRECTIONS
          for eps in (1e-15, 0.5e-12, 2e-12)),
        ("E11", 0.0)])  # kappa * I itself
    @pytest.mark.parametrize("k", [-10, 0, 1, 10, 100])
    def test_kernel_cli_and_pencil_on_both_sides(self, capsys, k, direction, eps):
        target = _near_scaling(k, direction, eps)
        a, b, c, d = target.entries()
        literal = "{!r},{!r};{!r},{!r}".format(a, b, c, d)
        coeffs = f"--coeffs={REF_M},{REF_H}"
        code = main(["invariant", coeffs, f"--matrix={literal}"])
        if eps < 1e-12:
            with pytest.raises(DegenerateGenerator, match="uniform scaling"):
                kernel_for_matrix(target, REF_M, REF_H)
            assert code == 4 and "uniform scaling" in capsys.readouterr().err
        else:
            kernel_for_matrix(target, REF_M, REF_H)
            _assert_pencil_derivative(target)
            assert code == 0
        pencil = LinearFamily((1, 0, 0, 1), (a, b, c, d))
        code = main(["invariant", coeffs, f"--family=linear:1,0;0,1|{literal}"])
        if a == d and b == c == 0.0:
            with pytest.raises(DegenerateGenerator, match="coefficients are zero"):
                pencil.derivative_coefficients()
            assert code == 4 and "coefficients are zero" in capsys.readouterr().err
        else:
            fg = pencil.derivative_coefficients()
            assert (fg.bprime, fg.gprime, fg.delta) == (b, c, a - d)
            assert code == 0


@pytest.mark.parametrize("target", [None, Matrix2(1, 0, 0, 2)], ids=["random", "diagonal"])
def test_generator_is_the_embedded_pencils_derivative(rng, target):
    for _ in range(200 if target is None else 1):
        _assert_pencil_derivative(random_invertible(rng) if target is None else target)


@pytest.mark.parametrize("eps", [1.5e-12, 2e-12, 3e-12, 5e-12])
def test_delta_is_the_diagonal_difference_below_unit_scale(eps):
    # (a - 1) - (d - 1) rounds each a - d = -1.5e-17 ... -5e-17 to -1.1e-16:
    # the generator is exact, the embedded pencil only within its bound.
    target = Matrix2(1e-5, 0, 0, 1e-5 * (1 + eps))
    fg = generator_for_matrix(target)
    assert fg.delta == target.a - target.d
    assert (fg.bprime, fg.gprime) == (0.0, 0.0)
    _assert_pencil_derivative(target)


def test_shear_target_and_normalized_form():
    # Canonical coefficients (0.7, 0, 0); the unit-max-norm variant
    # (1, 0, 0) recovers the reported -0.0249396.
    shear, unit_spec = FamilyGenerator(0.7, 0.0, 0.0), FamilyGenerator(1.0, 0.0, 0.0)
    assert generator_for_matrix(Matrix2(1, 0.7, 0, 1)) == shear
    assert kernel(shear, REF_M, REF_H) == \
        kernel(unit_spec, REF_M, REF_H) / Fraction(0.7) ** 2
    got = kernel_for_matrix(Matrix2(1, 0.7, 0, 1), REF_M, REF_H)
    unit = kernel_value(unit_spec, REF_M, REF_H)
    assert got == float(kernel(shear, REF_M, REF_H))
    assert unit == float(kernel(unit_spec, REF_M, REF_H))
    assert unit == pytest.approx(-0.0249396, abs=1e-6)


@pytest.mark.parametrize("entries", [(1e308, 0.0, 0.0, -1e308),
                                     (1e308, 1e300, -1e300, -1e308)])
def test_an_overflowing_direction_is_halved_and_keeps_its_kernel(entries):
    # a - d overflows, so the generator is that of T/2, exactly half of
    # (b, c, a - d); T commutes with it, so its kernel is invariant under
    # T, exactly, and in floats each is its exact value rounded once.
    target = Matrix2(*entries)
    a, b, c, d = map(Fraction, entries)
    fg = generator_for_matrix(target)
    assert [2 * Fraction(v) for v in (fg.bprime, fg.gprime, fg.delta)] == [b, c, a - d]
    pencil = LinearFamily((1, 0, 0, 1), entries).derivative_coefficients()
    assert pencil == fg
    lc = LinearCoefficients(REF_M, REF_H)
    after = induced_coefficients(target, lc)
    assert kernel(fg, *chart(congruence(target, lc))) == kernel(fg, REF_M, REF_H)
    assert (after.m, after.h) == induced(target, lc)
    for m, h in ((REF_M, REF_H), (after.m, after.h)):
        assert kernel_for_matrix(target, m, h) == float(kernel(fg, m, h))


def test_halving_rounds_a_subnormal_entry():
    # Out of the halved direction's exactness: b = 5e-324 halves to 0, so
    # the generator is that of (1e308, 0; 0, -1e308), not of the target.
    fg = generator_for_matrix(Matrix2(1e308, 5e-324, 0.0, -1e308))
    assert (fg.bprime, fg.gprime, fg.delta) == (0.0, 0.0, 1e308)


class TestParseFamily:
    @pytest.mark.parametrize("text", [
        "linear:-2,-2;-0.25,0.5|12,8;1,2",
        "linear:[[-2,-2],[-0.25,0.5]]|[[12,8],[1,2]]",
        "linear:-2,-2;-0.25,0.5|[[12,8],[1,2]]",
        " linear:[[-2.0, -2], [-0.25, 0.5]] | 12,8;1,2 ",
    ])
    def test_both_matrix_forms(self, text):
        assert parse_family(text) == CASE_STUDY

    @pytest.mark.parametrize("bad", ["diagonal", "linear:1,2;3,4",
                                     "linear:1,2;3,4|5,6", ""])
    def test_bad_literals(self, bad):
        with pytest.raises(ValueError):
            parse_family(bad)

    @pytest.mark.parametrize("part", [
        "1,2;3", "1,2;3,4;5,6", "1,x;3,4", "1,2;3,inf", "[[1,2],[3]]",
        "[[1,2],[3,true]]", "[[1,2],[3,", f"[[1{'0' * 400},0],[0,1]]",
    ])
    @pytest.mark.parametrize("side", ["a0", "b"])
    def test_each_malformed_part(self, part, side):
        good = "1,0;0,1"
        a0, b = (part, good) if side == "a0" else (good, part)
        with pytest.raises(ValueError):
            parse_family(f"linear:{a0}|{b}")


class TestSymbolicDerivation:
    """sympy derives what the family code assumes: the field of a direction B
    is the field of its trace-free part (b12, b21, b11 - b22), and the kernel
    -det S / L(S)^2 of T is invariant under the whole commutant
    {alpha*I + beta*(T - I)}, not only under the pencil I + phi*(T - I)."""

    @pytest.fixture(scope="class")
    def sp(self):
        return pytest.importorskip("sympy")

    @pytest.mark.parametrize("direction", [*UNIT_DIRECTIONS, "B"])
    def test_field_of_a_direction_is_its_trace_free_part(self, sp, direction):
        # Each unit direction, and a general B = (b11 b12; b21 b22).
        m, h, eps = sp.symbols("m h eps", real=True)
        b11, b12, b21, b22 = sp.symbols("b11 b12 b21 b22", real=True) if direction == "B" \
            else map(sp.nsimplify, UNIT_DIRECTIONS[direction])
        a = sp.eye(2) + eps * sp.Matrix([[b11, b12], [b21, b22]])
        image = a * sp.Matrix([[1, m], [m, h]]) * a.T
        xi = {p: [sp.nsimplify(v) for v in _field(e, m, h)]
              for p, e in UNIT_DIRECTIONS.items()}
        for i, coordinate in enumerate((image[0, 1] / image[0, 0], image[1, 1] / image[0, 0])):
            derived = sp.diff(coordinate, eps).subs(eps, 0)
            field = (b12 * xi["E12"][i] + b21 * xi["E21"][i]
                     + (b11 - b22) * xi["E11"][i])
            assert sp.simplify(derived - field) == 0
            assert sp.simplify(xi["E22"][i] + xi["E11"][i]) == 0

    def test_kernel_is_invariant_under_the_commutant(self, sp):
        t11, t12, t21, t22, alpha, beta, d, mn, hn = sp.symbols(
            "t11 t12 t21 t22 alpha beta d mn hn", real=True)
        t = sp.Matrix([[t11, t12], [t21, t22]])
        a = alpha * sp.eye(2) + beta * (t - sp.eye(2))

        def lin(s):
            # L(S) = b'*Hn - g'*D + delta*Mn, (b', g', delta) the trace-free
            # part of T; on the chart point D = 1 it is H*b' - g' + delta*M.
            return t12 * s[1, 1] - t21 * s[0, 0] + (t11 - t22) * s[0, 1]

        s = sp.Matrix([[d, mn], [mn, hn]])
        image = a * s * a.T
        assert sp.simplify(lin(image) - a.det() * lin(s)) == 0
        assert sp.simplify(image.det() - a.det() ** 2 * s.det()) == 0

    def test_the_four_fields_span_the_plane_off_the_collinear_curve(self, sp):
        # Every 2x2 minor of two fields is a polynomial multiple of H - M^2,
        # and each field maps H - M^2 to lambda_p * (H - M^2): off H = M^2 the
        # fields span the plane, so a function all four annihilate is locally
        # constant, and "collinear or not" is the only general invariant.
        m, h = sp.symbols("m h", real=True)
        gap = h - m ** 2
        xi = {p: [sp.nsimplify(v) for v in _field(e, m, h)]
              for p, e in UNIT_DIRECTIONS.items()}
        minors = {}
        for i, p in enumerate(xi):
            for q in list(xi)[i + 1:]:
                minor = xi[p][0] * xi[q][1] - xi[p][1] * xi[q][0]
                quotient, remainder = sp.div(sp.expand(minor), gap, h)
                assert remainder == 0, (p, q)
                minors[p, q] = sp.factor(quotient)
        assert minors["E21", "E22"] == 2
        assert minors["E12", "E21"] == 4 * m
        assert minors["E12", "E22"] == 2 * h
        eigen = {"E11": -2, "E12": -4 * m, "E21": 0, "E22": 2}
        for p, (xi1, xi2) in xi.items():
            # X_p(H - M^2) = xi1 * d/dM (H - M^2) + xi2 * d/dH (H - M^2)
            derivative = xi1 * sp.diff(gap, m) + xi2 * sp.diff(gap, h)
            assert sp.expand(derivative - eigen[p] * gap) == 0, p
