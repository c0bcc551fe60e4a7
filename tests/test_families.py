import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudinv import (DIAGONAL, LOWER_TRIANGULAR, UPPER_TRIANGULAR,
                      DegenerateGenerator, FamilyGenerator, KernelSingular,
                      LinearFamily, Matrix2, NoIdentityParameter,
                      NonInvertibleMatrix, RotationFamily, apply_to_cloud,
                      family_pde_residual, generator_for_matrix, kernel_value,
                      linear_coefficients, parse_family)
from cloudinv.coefficients import RTOL
from cloudinv.generators import _field
from conftest import REF_H, REF_M, UNIT_DIRECTIONS, magnitude, random_cloud
from exact import (KERNEL_ULPS, MOMENT_ULPS, centered_sums, chart, chart_ulps,
                   congruence, kernel, kernel_ulps, pencil_gap)

CASE_STUDY = LinearFamily((-2.0, -2.0, -0.25, 0.5), (12.0, 8.0, 1.0, 2.0))

CLOSED_VARIANTS = [
    (DIAGONAL, 1.0, (0.0, 0.0, -1.0)),
    (UPPER_TRIANGULAR, 0.0, (1.0, 0.0, 0.0)),
    (LOWER_TRIANGULAR, 0.0, (0.0, 1.0, 0.0)),
    (RotationFamily(), 0.0, (1.0, -1.0, 0.0)),
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
    def test_rotation_at_zero_is_identity(self):
        m = RotationFamily().evaluate(0.0)
        assert m.entries() == (1.0, 0.0, 0.0, 1.0)

    def test_diagonal(self):
        assert DIAGONAL.evaluate(2.0).entries() == (1.0, 0.0, 0.0, 2.0)

    def test_diagonal_raises_at_singular_point(self):
        # phi = 0 gives a singular member; evaluate is where it is built.
        with pytest.raises(NonInvertibleMatrix, match="determinant 0.0"):
            DIAGONAL.evaluate(0.0)

    @pytest.mark.parametrize("family,entries,singular", [
        (DIAGONAL, lambda p: (1.0, 0.0, 0.0, p), {0.0, 5e-324, -1e-300, 1e300}),
        (UPPER_TRIANGULAR, lambda p: (1.0, p, 0.0, 1.0), {1e300}),
        (LOWER_TRIANGULAR, lambda p: (1.0, 0.0, p, 1.0), {1e300}),
    ], ids=["diag", "upper", "lower"])
    def test_named_pencils_are_exact(self, rng, family, entries, singular):
        # Singular within tolerance: det is 0 or below RTOL * max|entry|**2.
        for phi in [*rng.uniform(-3.0, 3.0, 50), 0.0, 5e-324, -1e-300, 1e300]:
            if phi in singular:
                with pytest.raises(NonInvertibleMatrix):
                    family.evaluate(phi)
            else:
                assert family.evaluate(phi).entries() == entries(phi)

    def test_case_study_member(self):
        m = CASE_STUDY.evaluate(0.2)
        assert m.entries() == pytest.approx((0.4, -0.4, -0.05, 0.9))


class TestIdentityParameter:
    @pytest.mark.parametrize("family,phi_star,_", CLOSED_VARIANTS)
    def test_closed_variants(self, family, phi_star, _):
        assert family.identity_parameter() == phi_star
        assert family.evaluate(phi_star).entries() == (1.0, 0.0, 0.0, 1.0)

    def test_case_study(self):
        # (1 - a0) / b of the largest |b|, 3/12, is exact.
        assert CASE_STUDY.identity_parameter() == 0.25
        assert CASE_STUDY.evaluate(0.25).entries() == (1.0, 0.0, 0.0, 1.0)

    def test_identity_base(self):
        fam = LinearFamily((1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0))
        assert fam.identity_parameter() == 0.0

    def test_constant_identity_family(self):
        fam = LinearFamily((1.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0))
        assert fam.identity_parameter() == 0.0

    @pytest.mark.parametrize("fam", [
        LinearFamily((2.0, 0.0, 0.0, 2.0), (0.0, 0.0, 0.0, 0.0)),
        # A12 is 1e-7 at every phi; the large A11 and phi = -999999 must not
        # hide that.
        LinearFamily((1e6, 1e-7, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0)),
    ])
    def test_each_entry_is_checked_at_its_own_scale(self, fam):
        with pytest.raises(NoIdentityParameter,
                           match=r"no phi makes A0 \+ phi\*B the identity"):
            fam.identity_parameter()


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

    def test_case_study(self):
        fg = CASE_STUDY.derivative_coefficients()
        assert (fg.bprime, fg.gprime, fg.delta) == (8.0, 1.0, 10.0)

    def test_propagates_no_identity(self):
        fam = LinearFamily((2.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 0.0))
        with pytest.raises(NoIdentityParameter):
            fam.derivative_coefficients()

    @pytest.mark.parametrize("family", [v[0] for v in CLOSED_VARIANTS]
                             + [CASE_STUDY])
    def test_numeric_cross_check(self, family):
        # Central difference of the entry functions at the identity
        # parameter must reproduce the closed forms.
        phi_star = family.identity_parameter()
        s = 1e-6
        plus = family.evaluate(phi_star + s).entries()
        minus = family.evaluate(phi_star - s).entries()
        da, db, dc, dd = ((p - q) / (2 * s) for p, q in zip(plus, minus))
        fg = family.derivative_coefficients()
        assert db == pytest.approx(fg.bprime, abs=1e-8)
        assert dc == pytest.approx(fg.gprime, abs=1e-8)
        assert da - dd == pytest.approx(fg.delta, abs=1e-8)


class TestKernelValue:
    @pytest.mark.parametrize("spec,expected,tol", [
        (FamilyGenerator(1.0, 0.0, 0.0), -0.0249396, 1e-6),
        (FamilyGenerator(1.0, -1.0, 0.0), -0.0126368, 1e-7),
        (FamilyGenerator(8.0, 1.0, 10.0), -0.000131743, 5e-9),
    ])
    def test_reference_values(self, spec, expected, tol):
        assert kernel_value(spec, REF_M, REF_H) == pytest.approx(expected, abs=tol)

    def test_diagonal_spec_round_trips_ratio(self):
        # Kernel is 1 - H/M^2 for the diagonal spec, exactly; the ratio itself
        # must round-trip to the reported 1.06564.
        fg = FamilyGenerator(0.0, 0.0, -1.0)
        assert kernel(fg, REF_M, REF_H) == 1 - Fraction(REF_H) / Fraction(REF_M) ** 2
        assert kernel_ulps(kernel_value(fg, REF_M, REF_H), fg, REF_M, REF_H) <= KERNEL_ULPS
        assert REF_H / REF_M ** 2 == pytest.approx(1.06564, abs=5e-5)

    def test_collinear_coefficients_give_zero(self):
        assert kernel_value(FamilyGenerator(2.0, -1.0, 0.5), 1.5, 2.25) == 0.0

    def test_degenerate_generator(self):
        with pytest.raises(DegenerateGenerator):
            kernel_value(FamilyGenerator(0.0, 0.0, 0.0), 1.0, 2.0)

    def test_uniform_scaling_pencil_is_degenerate(self):
        fam = LinearFamily((1.0, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, 2.0))
        with pytest.raises(DegenerateGenerator):
            kernel_value(fam.derivative_coefficients(), 1.0, 2.0)

    def test_singular_denominator(self):
        # b'=1, g'=h, delta=0 makes the denominator h - h = 0.
        with pytest.raises(KernelSingular):
            kernel_value(FamilyGenerator(1.0, 2.0, 0.0), 1.0, 2.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_degree_zero_kernel_keeps_its_square(self, sign):
        # Below |M| = 2**-511 M*M underflows, and from 2**512 on it
        # overflows, yet K = (M^2 - 0)/M^2 is 1.
        fg = FamilyGenerator(0.0, 0.0, -1.0)
        for k in [*range(-1074, -511), *range(512, 1024)]:
            assert kernel_value(fg, sign * 2.0 ** k, 0.0) == 1.0, k
        # H far above M^2: its term alone sets the numerator, K = -1/H;
        # M^2 far above H: K = M^2/H^2.
        upper = FamilyGenerator(1.0, 0.0, 0.0)
        for m, h in ((sign * 1e-300, 1e-10), (sign * 1e200, 1e300)):
            assert kernel_ulps(kernel_value(upper, m, h), upper, m, h) <= KERNEL_ULPS


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
def test_kernel_where_m_squared_is_out_of_range_is_exact_to_budget(frac, k, sign,
                                                                    t, fg):
    # |M| < 2**-511, where M*M underflows, and H = t*M^2 (rounded, perhaps
    # to a subnormal or 0); or |M| >= 2**512, where M*M overflows, and
    # H = t*1e302.  The error is measured against the kernel's own scale
    # (M^2 + |H|)/den^2, its size when M^2 and H do not cancel.
    m = sign * math.ldexp(frac, k)
    h = float(Fraction(m) ** 2 * Fraction(t)) if k < 0 else t * 1e302
    assert kernel_ulps(kernel_value(fg, m, h), fg, m, h) <= KERNEL_ULPS


ALL_FAMILIES = [v[0] for v in CLOSED_VARIANTS] + [CASE_STUDY]


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


def _family_phis(family, rng, count):
    # Matched by value: the named pencils are LinearFamily values too, and
    # only the case-study pencil samples [0.3, 1.2].
    if family == DIAGONAL:
        return [p for p in rng.uniform(0.2, 3.0, size=count)]
    if isinstance(family, RotationFamily):
        return [p for p in rng.uniform(-math.pi, math.pi, size=count)]
    if family == CASE_STUDY:
        return [p for p in rng.uniform(0.3, 1.2, size=count)]
    return [p for p in rng.uniform(-2.0, 2.0, size=count)]


class TestKernelInvariance:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_sampled_invariance(self, family, rng):
        # Exactly, the kernel of the cloud's sums is that of their image under
        # the member the entries give, A0 + phi*B (or rotation's float cos and
        # sin), and the float member is that one rounded; in floats the
        # image's chart is within the moment budget of the image's own sums,
        # and each kernel within its budget of the exact kernel at its own
        # (M, H).
        fg = family.derivative_coefficients()
        clouds = [random_cloud(rng) for _ in range(10)]
        exact_sums = [centered_sums(cloud.xs, cloud.ys) for cloud in clouds]
        for phi in _family_phis(family, rng, 10):
            try:
                matrix = family.evaluate(phi)
            except NonInvertibleMatrix:
                continue
            member = exact_member(family, phi)
            assert_rounded_member(matrix, family, phi)
            for cloud, sums in zip(clouds, exact_sums):
                image = apply_to_cloud(matrix, cloud)
                before = linear_coefficients(cloud)
                after = linear_coefficients(image)
                dens = [h * fg.bprime - fg.gprime + fg.delta * m
                        for m, h in [(before.m, before.h), (after.m, after.h)]]
                if min(abs(d) for d in dens) < 1e-3:
                    continue  # too close to the kernel's singular set
                assert kernel(fg, *chart(congruence(member, sums))) == \
                    kernel(fg, *chart(sums))
                assert chart_ulps(after, centered_sums(image.xs, image.ys)) <= MOMENT_ULPS
                for lc in (before, after):
                    assert kernel_ulps(kernel_value(fg, lc.m, lc.h),
                                       fg, lc.m, lc.h) <= KERNEL_ULPS

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_pde_annihilation_sample(self, family, rng):
        fg = family.derivative_coefficients()
        kernel = lambda m, h: kernel_value(fg, m, h)
        count = 0
        while count < 25:
            m = rng.uniform(-2.0, 2.0)
            h = m * m + rng.uniform(0.1, 3.0)
            den = h * fg.bprime - fg.gprime + fg.delta * m
            if abs(den) < 0.5:
                continue
            assert abs(family_pde_residual(fg, kernel, m, h)) <= 1e-6
            count += 1


def test_direction_scaling_covariance(rng):
    # Scaling the pencil direction by kappa scales the kernel by 1/kappa^2,
    # exactly, so the set of functions of the kernel is unchanged; each float
    # kernel is within its budget of its own exact value.
    base_spec = CASE_STUDY.derivative_coefficients()
    for kappa in (2.0, -0.5, 7.25):
        rebased = LinearFamily((1.0, 0.0, 0.0, 1.0),
                               tuple(kappa * b for b in CASE_STUDY.b))
        scaled_spec = rebased.derivative_coefficients()
        assert (scaled_spec.bprime, scaled_spec.gprime, scaled_spec.delta) == \
            tuple(kappa * v for v in (8.0, 1.0, 10.0))
        for _ in range(50):
            m = rng.uniform(-2.0, 2.0)
            h = m * m + rng.uniform(0.1, 3.0)
            assert kernel(scaled_spec, m, h) == \
                kernel(base_spec, m, h) / Fraction(kappa) ** 2
            for fg in (base_spec, scaled_spec):
                assert kernel_ulps(kernel_value(fg, m, h), fg, m, h) <= KERNEL_ULPS


class TestParseFamily:
    @pytest.mark.parametrize("literal,family", [
        ("diag", DIAGONAL),
        ("upper", UPPER_TRIANGULAR),
        ("lower", LOWER_TRIANGULAR),
        ("rot", RotationFamily()),
    ], ids=["diag", "upper", "lower", "rot"])
    def test_closed_literals(self, literal, family):
        assert parse_family(literal) == family

    def test_linear_literal(self):
        fam = parse_family("linear:-2,-2;-0.25,0.5|12,8;1,2")
        assert isinstance(fam, LinearFamily)
        assert fam.a0 == (-2.0, -2.0, -0.25, 0.5)
        assert fam.b == (12.0, 8.0, 1.0, 2.0)

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

    def test_field_of_a_direction_is_its_trace_free_part(self, sp):
        m, h, eps = sp.symbols("m h eps", real=True)
        b11, b12, b21, b22 = sp.symbols("b11 b12 b21 b22", real=True)
        a = sp.eye(2) + eps * sp.Matrix([[b11, b12], [b21, b22]])
        image = a * sp.Matrix([[1, m], [m, h]]) * a.T
        chart = (image[0, 1] / image[0, 0], image[1, 1] / image[0, 0])
        xi = {p: [sp.nsimplify(v) for v in _field(e, m, h)]
              for p, e in UNIT_DIRECTIONS.items()}
        for i, coordinate in enumerate(chart):
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
