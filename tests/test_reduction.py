import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from expwave.errors import (
    DomainError,
    FrameDegenerateError,
    InvalidParamsError,
    SignDomainError,
    UnsupportedFamilyError,
)
from expwave.reduction import (
    C1_DEGENERATE,
    C1_LEMNISCATIC,
    C1_MATCH_TOL,
    CUBIC_FAMILIES,
    GORDON_FAMILIES,
    SIGN_MAPPED_FAMILIES,
    CaseLabel,
    EquationParams,
    FamilyLabel,
    FrameParams,
    classify_case,
    classify_family,
    conserved_c1,
    _real_pow,
    elliptic_data,
    family_params,
    first_integral,
    traveling_ode,
)
from expwave.solutions import construct
from expwave.specfun.weierstrass import WeierstrassInvariants

FR1 = FrameParams.from_lambda_gamma(1.0)
FRN = FrameParams.from_lambda_gamma(-1.0)


def test_classify_family_catalogued():
    assert classify_family(EquationParams(1.0, -1.0, 1.0, -2.0)) is FamilyLabel.Tzitzeica
    assert classify_family(EquationParams(1.0, 0.0, 1.0, 0.0)) is FamilyLabel.Liouville
    assert classify_family(EquationParams(0.5, -0.5, 2.0, -2.0)) is FamilyLabel.SinhGordon
    assert classify_family(EquationParams(-1.0, 1.0, 1.0, -2.0)) is FamilyLabel.DoddBullough
    assert classify_family(EquationParams(1.0, 1.0, 1.0, -2.0)) is FamilyLabel.TzitzeicaDoddBullough
    assert classify_family(EquationParams(-1.0, -1.0, 1.0, -2.0)) is FamilyLabel.DoddBulloughMikhailov
    assert classify_family(EquationParams.sine_gordon()) is FamilyLabel.SineGordon
    # round trip through the catalogued tuples is the identity
    for fam in FamilyLabel:
        if fam is FamilyLabel.GenericTwoExponential:
            continue
        assert classify_family(family_params(fam)) is fam


def test_classify_family_generic_and_invalid():
    assert classify_family(EquationParams(1.0, 1.0, 2.0, -1.0)) is \
        FamilyLabel.GenericTwoExponential
    with pytest.raises(InvalidParamsError):
        EquationParams(0.0, 0.0, 1.0, -2.0)
    with pytest.raises(InvalidParamsError):
        EquationParams(1.0, 0.0, 0.0, 0.0)


def test_frame_validation():
    with pytest.raises(FrameDegenerateError):
        FrameParams(lam=1.0, k=2.0, omega=2.0)
    with pytest.raises(FrameDegenerateError):
        FrameParams(lam=1.0, k=2.0, omega=-2.0)
    with pytest.raises(FrameDegenerateError):
        FrameParams(lam=0.0, k=0.0, omega=1.0)
    fr = FrameParams.from_lambda_gamma(2.5, xi0=0.3)
    assert (fr.k, fr.omega, fr.gamma) == (0.0, 1.0, 1.0)
    assert fr.lambda_gamma == 2.5
    assert fr.r == pytest.approx(1.0 / 2.5, rel=1e-16)
    full = FrameParams(lam=1.0 / 3.0, k=1.0, omega=2.0)
    assert full.gamma == 3.0
    assert full.lambda_gamma == pytest.approx(1.0)


def test_traveling_ode_values():
    ode = traveling_ode(family_params(FamilyLabel.Liouville), FR1)
    assert ode.f(2.0) == pytest.approx(8.0, abs=1e-15)
    ode = traveling_ode(family_params(FamilyLabel.Tzitzeica), FR1)
    assert ode.f(1.0) == 0.0
    ode = traveling_ode(family_params(FamilyLabel.SinhGordon),
                        FrameParams.from_lambda_gamma(2.0))
    assert ode.f(1.0) == 0.0
    with pytest.raises(FrameDegenerateError):
        FrameParams(lam=1.0, k=1.0, omega=1.0)


def test_first_integral_values():
    q = first_integral(family_params(FamilyLabel.Tzitzeica), FR1, 0.0)
    assert q.g(1.0) == pytest.approx(1.5, abs=1e-15)
    q = first_integral(family_params(FamilyLabel.Liouville), FR1, -1.0)
    assert q.g(1.0) == 0.0
    # psi-space turning point for the circular family at c1 = 1, psi = 0
    q = first_integral(EquationParams.sine_gordon(), FR1, 1.0)
    assert q.g_psi(0.0) == 0.0
    assert q.g_psi(math.pi) == pytest.approx(2.0, abs=1e-15)
    assert q.g_psi_prime(math.pi / 2.0) == pytest.approx(1.0, abs=1e-15)
    # hyperbolic family: G_psi = c1 + cosh(2 psi)/2
    q = first_integral(family_params(FamilyLabel.SinhGordon), FR1, 0.25)
    assert q.g_psi(0.0) == pytest.approx(0.75, abs=1e-15)
    assert q.g_psi_prime(0.3) == pytest.approx(math.sinh(0.6), rel=1e-15)


def test_liouville_single_exponential_branch():
    # beta = 0: no beta-term in G, b unused
    q = first_integral(family_params(FamilyLabel.Liouville), FR1, 2.0)
    assert q.g(3.0) == pytest.approx(5.0, abs=1e-15)
    # alpha = 0 likewise drops the alpha-term, with a unused
    q = first_integral(EquationParams(0.0, 1.0, 0.0, 1.0), FR1, 2.0)
    assert q.g(3.0) == 5.0 and q.g_psi(0.0) == 3.0
    # non-integer exponent with h < 0 is rejected
    q = first_integral(EquationParams(1.0, 0.0, 0.5, 0.0), FR1, 0.0)
    with pytest.raises(DomainError):
        q.g(-1.0)
    q = first_integral(family_params(FamilyLabel.Tzitzeica), FR1, 0.0)
    with pytest.raises(DomainError):
        q.g(0.0)  # negative exponent at h = 0
    with pytest.raises(InvalidParamsError):
        first_integral(EquationParams(1.0, 1.0, 1.0, 0.0), FR1, 0.0)



def _reference_real_pow(h, e):
    # the rule without the positive-base fast path
    if e == 0.0:
        return 1.0
    if h == 0.0 and e < 0.0:
        raise DomainError("h = 0 with a negative exponent")
    if h < 0.0 and e != round(e):
        raise DomainError("h <= 0 with a non-integer exponent")
    if h < 0.0:
        n = int(round(e))
        return math.copysign(abs(h) ** n, 1.0 if n % 2 == 0 else h)
    return h ** e


def _pow_outcome(fn, h, e):
    try:
        return struct.pack("<d", fn(h, e))
    except (ArithmeticError, ValueError) as err:
        return type(err)


#: bases at every edge of the power rule: signed zeros, non-finite values,
#: subnormals and the ends of the float range
POW_BASES = [0.0, -0.0, math.nan, math.inf, -math.inf, 1.0, -1.0, 2.5, -2.5,
             0.3, -0.3, 1e300, -1e300, 1e-300, -1e-300, 5e-324, -5e-324,
             1.7e308]


def negative_sweep(n=10_000):
    """Seeded negative bases from subnormal to 1e300."""
    rng = random.Random(20181010)
    return [-(10.0 ** rng.uniform(-323.0, 300.0)) for _ in range(n)]


def test_real_pow_fast_path_is_bit_identical():
    nan, inf = math.nan, math.inf
    exponents = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 0.5, -0.5,
                 1.0 / 3.0, -2.0 / 3.0, 7.0, -7.0, 400.0, -400.0, nan, inf]
    for h in POW_BASES:
        for e in exponents:
            assert (_pow_outcome(_real_pow, h, e)
                    == _pow_outcome(_reference_real_pow, h, e)), (h, e)
    assert _real_pow(2.5, 0.0) == 1.0 and _real_pow(nan, 0.0) == 1.0
    with pytest.raises(DomainError, match="negative exponent"):
        _real_pow(0.0, -1.0)
    with pytest.raises(DomainError, match="non-integer exponent"):
        _real_pow(-2.0, 0.5)
    # seeded sweep: negative bases from subnormal to 1e300, integral exponents
    for h in negative_sweep():
        for n in range(-7, 8):
            e = float(n)
            assert (_pow_outcome(_real_pow, h, e)
                    == _pow_outcome(_reference_real_pow, h, e)), (h, e)


def _outcome(fn, h):
    # the bytes of the result, or the error's type and text
    try:
        return struct.pack("<d", fn(h))
    except (ArithmeticError, ValueError) as err:
        return type(err), str(err)


def _reference_descriptor_methods(ode, quad):
    # source, f, g and g_prime with every power sent through _real_pow
    def source(h):
        return (ode.alpha * _real_pow(h, ode.a)
                + ode.beta * _real_pow(h, ode.b))

    def g(h):
        total = quad.c1 + quad.alpha_a * _real_pow(h, quad.a)
        if quad.beta != 0.0:
            total += quad.beta_b * _real_pow(h, quad.b)
        return total

    def g_prime(h):
        total = quad.alpha * _real_pow(h, quad.a1)
        if quad.beta != 0.0:
            total += quad.beta * _real_pow(h, quad.b1)
        return total

    return {"source": source, "f": lambda h: ode.r * h * h * source(h),
            "g": g, "g_prime": g_prime}


H_SPACE_FAMILIES = [fam for fam in FamilyLabel
                    if fam is not FamilyLabel.GenericTwoExponential
                    and not family_params(fam).imaginary_pair]


@pytest.mark.parametrize("family", H_SPACE_FAMILIES, ids=lambda f: f.name)
def test_integral_exponent_descriptors_are_bit_identical(family):
    # the direct h ** e path of the integral-exponent descriptors equals
    # the one power rule on every base, refusals included
    params = family_params(family)
    ode = traveling_ode(params, FRN)
    quad = first_integral(params, FRN, 0.3)
    assert ode.integral and quad.integral
    reference = _reference_descriptor_methods(ode, quad)
    methods = {"source": ode.source, "f": ode.f, "g": quad.g,
               "g_prime": quad.g_prime}
    for h in POW_BASES + negative_sweep():
        for name, fn in methods.items():
            assert _outcome(fn, h) == _outcome(reference[name], h), (name, h)


def test_zero_base_with_negative_exponent_keeps_its_refusal():
    params = family_params(FamilyLabel.Tzitzeica)  # b = -2
    ode = traveling_ode(params, FR1)
    quad = first_integral(params, FR1, 0.0)
    for h in (0.0, -0.0):
        for fn in (ode.source, ode.f, quad.g, quad.g_prime):
            with pytest.raises(DomainError) as err:
                fn(h)
            assert str(err.value) == "h = 0 with a negative exponent"


def test_non_integral_exponents_keep_the_power_rule():
    params = EquationParams(1.0, 1.0, 0.5, -2.0)
    ode = traveling_ode(params, FR1)
    quad = first_integral(params, FR1, 0.0)
    assert not (ode.integral or quad.integral)
    with pytest.raises(DomainError, match="non-integer exponent"):
        ode.source(-1.0)
    with pytest.raises(DomainError, match="non-integer exponent"):
        quad.g_prime(-1.0)


def _lambda_gammas(n, seed=25):
    rng = random.Random(seed)
    return [2.0, -2.0] + [rng.choice((1.0, -1.0)) * 10.0 ** rng.uniform(-3, 3)
                          for _ in range(n)]


@pytest.mark.parametrize("family", sorted(CUBIC_FAMILIES, key=lambda f: f.name))
def test_double_root_has_one_formula(family):
    # classify's repeated_root and the double root in its roots_real are
    # one number, at every degenerate input
    degenerate = 0
    for lg in _lambda_gammas(60):
        for c1 in (C1_DEGENERATE, -C1_DEGENERATE, 0.5, 1.0, -1.0):
            try:
                d = elliptic_data(family, FrameParams.from_lambda_gamma(lg), c1)
            except DomainError:
                continue
            if d.repeated_root is None:
                continue
            degenerate += 1
            real = d.roots.real
            double = real[1]
            assert real.count(double) == 2 and double != 0.0, (lg, c1, real)
            assert abs(double) == d.repeated_root, (lg, c1, real)
    assert degenerate >= 62


def test_elliptic_data_values():
    d = elliptic_data(FamilyLabel.Tzitzeica, FR1, -1.5)
    assert d.p == pytest.approx(-3.0, abs=1e-15)
    assert d.g2 == pytest.approx(0.75, abs=1e-15)
    assert d.g3 == pytest.approx(-0.125, abs=1e-15)
    assert d.delta == pytest.approx(0.0, abs=1e-15)
    assert d.repeated_root == pytest.approx(0.25, rel=1e-12)
    assert (d.a0, d.a1, d.a2, d.a3) == (1.0, 0.0, -3.0, 2.0)
    # the repeated-root invariants with unit double root
    from expwave.specfun import solve_weierstrass_cubic
    assert solve_weierstrass_cubic(12.0, -8.0).real == (1.0, 1.0, -2.0)
    # equianharmonic data: g2 = 0, g3 = -r^3/4, delta = -(27/16) r^6
    d = elliptic_data(FamilyLabel.Tzitzeica, FR1, 0.0)
    assert d.g2 == 0.0
    assert d.g3 == pytest.approx(-0.25, abs=1e-15)
    assert d.delta == pytest.approx(-27.0 / 16.0, rel=1e-14)
    with pytest.raises(UnsupportedFamilyError):
        elliptic_data(FamilyLabel.SineGordon, FR1, 0.0)
    with pytest.raises(UnsupportedFamilyError):
        elliptic_data(FamilyLabel.SinhGordon, FR1, 0.0)


def test_germ_discriminant_identity():
    # both closed forms of the discriminant agree for random (r, c1)
    rng = random.Random(11)
    for _ in range(200):
        lg = rng.uniform(0.2, 3.0) * rng.choice([1.0, -1.0])
        c1 = rng.uniform(-3.0, 3.0)
        frame = FrameParams.from_lambda_gamma(lg)
        d = elliptic_data(FamilyLabel.Tzitzeica, frame, c1)
        alt = -(d.r ** 3 / 16.0) * (d.p ** 3 + 27.0 * d.r ** 3)
        assert d.delta == pytest.approx(alt, rel=1e-12, abs=1e-300)


def test_root_identities():
    rng = random.Random(5)
    for _ in range(100):
        lg = rng.uniform(0.3, 2.0) * rng.choice([1.0, -1.0])
        c1 = rng.uniform(-3.0, 3.0)
        d = elliptic_data(FamilyLabel.Tzitzeica,
                          FrameParams.from_lambda_gamma(lg), c1)
        roots = d.roots
        if roots.all_real:
            e1, e2, e3 = roots.real
            assert e1 + e2 + e3 == pytest.approx(0.0, abs=1e-12)
            assert e1 * e2 + e1 * e3 + e2 * e3 == pytest.approx(-d.g2 / 4.0,
                                                                abs=1e-12)
            assert e1 * e2 * e3 == pytest.approx(d.g3 / 4.0, abs=1e-12)


def test_degenerate_forces_delta_zero():
    # degeneracy is read at unit scale, where the invariants (3/4, -1/8)
    # are exactly degenerate; the ones printed at lambda gamma are rounded
    # off that pair, so they are checked through repeated_root
    for lg in (0.5, 1.0, -2.0, 3.7):
        d = elliptic_data(FamilyLabel.Tzitzeica,
                          FrameParams.from_lambda_gamma(lg), -1.5)
        assert d.delta == 0.0
        assert d.repeated_root == pytest.approx(0.25 / abs(lg), rel=1e-15)
        assert "roots_complex_pair" not in d.to_json()
    assert WeierstrassInvariants(0.75, -0.125).is_degenerate


def test_lemniscatic_forces_g3_zero():
    for lg in (0.5, 1.0, 2.0):
        d = elliptic_data(FamilyLabel.Tzitzeica,
                          FrameParams.from_lambda_gamma(lg), C1_LEMNISCATIC)
        assert abs(d.g3) <= 1e-12
        assert d.g2 == pytest.approx(3.0 * 4.0 ** (1.0 / 3.0) / 4.0 * d.r ** 2,
                                     rel=1e-13)


def test_classify_case_taxonomy():
    assert classify_case(FamilyLabel.Tzitzeica, FR1, -1.5) is CaseLabel.Degenerate1a
    assert classify_case(FamilyLabel.Tzitzeica, FRN, -1.5) is CaseLabel.Degenerate1b
    assert classify_case(FamilyLabel.Tzitzeica, FR1, 0.0) is CaseLabel.Equianharmonic
    assert classify_case(FamilyLabel.Tzitzeica, FR1, C1_LEMNISCATIC) is \
        CaseLabel.Lemniscatic
    assert classify_case(FamilyLabel.Tzitzeica, FR1, 1.0) is \
        CaseLabel.GeneralWeierstrass
    # sign-mapped variant hits the degenerate case at +3/2 with lg < 0
    assert classify_case(FamilyLabel.DoddBullough, FRN, 1.5) is CaseLabel.Degenerate1a
    assert classify_case(FamilyLabel.DoddBullough, FR1, 1.5) is CaseLabel.Degenerate1b
    assert classify_case(FamilyLabel.Liouville, FR1, 1.0) is CaseLabel.LiouvilleSoliton
    assert classify_case(FamilyLabel.Liouville, FR1, -1.0) is CaseLabel.LiouvillePeriodic
    assert classify_case(FamilyLabel.Liouville, FR1, 0.0) is CaseLabel.LiouvilleRational
    # the Liouville case is read from the signs: c1 / (2 lambda gamma)
    # underflows to 0 here
    for lg, case in ((1.7e308, CaseLabel.LiouvilleSoliton),
                     (-1.7e308, CaseLabel.LiouvillePeriodic)):
        frame = FrameParams.from_lambda_gamma(lg)
        assert classify_case(FamilyLabel.Liouville, frame, 1.0) is case
        assert classify_case(FamilyLabel.Liouville, frame, -1.0) is not case
    assert classify_case(FamilyLabel.SineGordon, FR1, 1.0) is CaseLabel.KinkC1Plus
    assert classify_case(FamilyLabel.SineGordon, FRN, -1.0) is CaseLabel.KinkC1Minus
    assert classify_case(FamilyLabel.SineGordon, FRN, 0.0) is CaseLabel.AmplitudeC1Zero
    assert classify_case(FamilyLabel.SineGordon, FR1, 3.0) is CaseLabel.AmplitudeGeneric
    assert classify_case(FamilyLabel.SinhGordon, FR1, 0.5) is CaseLabel.KinkC1Plus
    assert classify_case(FamilyLabel.SinhGordon, FR1, -0.5) is CaseLabel.KinkC1Minus
    assert classify_case(FamilyLabel.SinhGordon, FR1, 0.0) is CaseLabel.AmplitudeC1Zero
    assert classify_case(FamilyLabel.SinhGordon, FRN, -2.0) is CaseLabel.AmplitudeGeneric
    # the cnoidal form only where the base family's lambda gamma is positive
    assert classify_case(FamilyLabel.Tzitzeica, FRN, C1_LEMNISCATIC) is \
        CaseLabel.GeneralWeierstrass
    assert classify_case(FamilyLabel.DoddBullough, FRN, -C1_LEMNISCATIC) is \
        CaseLabel.Lemniscatic
    assert classify_case(FamilyLabel.DoddBullough, FR1, -C1_LEMNISCATIC) is \
        CaseLabel.GeneralWeierstrass
    # sine-Gordon at lambda gamma > 0 with |c1| < 1 (the pi-shifted form)
    assert classify_case(FamilyLabel.SineGordon, FR1, 0.5) is CaseLabel.AmplitudeGeneric
    assert classify_case(FamilyLabel.SineGordon, FR1, 0.0) is CaseLabel.AmplitudeC1Zero
    for fam, frame, c1 in [(FamilyLabel.SineGordon, FR1, -3.0),
                           (FamilyLabel.SineGordon, FR1, -1.0),
                           (FamilyLabel.SineGordon, FRN, 1.0),
                           (FamilyLabel.SinhGordon, FRN, -0.5),
                           (FamilyLabel.SinhGordon, FRN, 0.0),
                           # inside the snap band: c1 at the special value
                           (FamilyLabel.SineGordon, FR1, -1.0 + 5e-13),
                           (FamilyLabel.SinhGordon, FRN, -0.5 - 5e-13)]:
        with pytest.raises(SignDomainError, match="^no real solution"):
            classify_case(fam, frame, c1)
    with pytest.raises(DomainError, match="no catalogued closed form"):
        classify_case(FamilyLabel.SinhGordon, FR1, -2.0)



#: the one refusal of invariants or a discriminant past the float range
_RANGE = ("DomainError: c1={c1} and lambda gamma={lg} put the Weierstrass "
          "invariants past the float range")
#: classify_case on the four Weierstrass-route families at each c1 of
#: SWEEP_C1 for (family, lambda gamma): the case name, or the exception
#: type and message; generated while classify_case solved the cubic, except
#: c1 = 1e40 at lambda gamma = +-1, which is GeneralWeierstrass since the
#: case is read from c1 (the invariants fell in the degenerate snap band),
#: and the rows at lambda gamma = 1e-200 and -1e-250, which read as the
#: rows at +-1 since the invariants are taken at sign(lambda gamma) (they
#: were refused while they were taken at lambda gamma itself)
SWEEP_C1 = (1e60, -1e60, 1e40, 3e102, 1e-320, -1.5, 0.0)
SWEEP_CASES = {
    ('Tzitzeica', 1.0): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'Degenerate1a', 'Equianharmonic'),
    ('Tzitzeica', -1.0): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'Degenerate1b', 'Equianharmonic'),
    ('Tzitzeica', 1e-200): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'Degenerate1a', 'Equianharmonic'),
    ('Tzitzeica', -1e-250): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'Degenerate1b', 'Equianharmonic'),
    ('DoddBullough', 1.0): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'GeneralWeierstrass', 'Equianharmonic'),
    ('DoddBullough', -1.0): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'GeneralWeierstrass', 'Equianharmonic'),
    ('DoddBullough', 1e-200): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'GeneralWeierstrass', 'Equianharmonic'),
    ('DoddBullough', -1e-250): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'GeneralWeierstrass', 'Equianharmonic'),
    ('TzitzeicaDoddBullough', 1.0): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'GeneralWeierstrass', 'Equianharmonic'),
    ('TzitzeicaDoddBullough', -1.0): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'GeneralWeierstrass', 'Equianharmonic'),
    ('TzitzeicaDoddBullough', 1e-200): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'GeneralWeierstrass', 'Equianharmonic'),
    ('TzitzeicaDoddBullough', -1e-250): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'GeneralWeierstrass', 'Equianharmonic'),
    ('DoddBulloughMikhailov', 1.0): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'Degenerate1a', 'Equianharmonic'),
    ('DoddBulloughMikhailov', -1.0): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'Degenerate1b', 'Equianharmonic'),
    ('DoddBulloughMikhailov', 1e-200): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'Degenerate1a', 'Equianharmonic'),
    ('DoddBulloughMikhailov', -1e-250): (_RANGE, _RANGE, 'GeneralWeierstrass',
        _RANGE, 'Equianharmonic', 'Degenerate1b', 'Equianharmonic'),
}


def test_classify_case_sweep_of_cubic_families():
    assert len(SWEEP_CASES) * len(SWEEP_C1) == 112
    for (family, lg), expected in SWEEP_CASES.items():
        frame = FrameParams.from_lambda_gamma(lg)
        got = []
        for c1 in SWEEP_C1:
            try:
                got.append(classify_case(FamilyLabel[family], frame, c1).name)
            except (ArithmeticError, ValueError) as e:
                got.append(f"{type(e).__name__}: {e}")
        assert tuple(got) == tuple(x.format(c1=c1, lg=lg) for x, c1
                                   in zip(expected, SWEEP_C1)), (family, lg)


def test_cubic_case_is_read_from_c1():
    # from |c1| ~ 2.4e4 on the invariants fall in the p kernel's relative
    # degenerate snap band at every lambda gamma; the case still follows c1
    # and the sign of the base lambda gamma, and the c1 = 0 invariants that
    # underflow to (0, 0) still read as equianharmonic
    for family in CUBIC_FAMILIES - {FamilyLabel.Liouville}:
        flip = -1.0 if family in SIGN_MAPPED_FAMILIES else 1.0
        for lg in (1.0, -1.0, 1e-3, -1e3):
            frame = FrameParams.from_lambda_gamma(lg)
            for c1 in (3e4, -3e4, 1e15, -1e15):
                assert classify_case(family, frame, flip * c1) is \
                    CaseLabel.GeneralWeierstrass, (family, lg, c1)
                assert construct(family, flip * c1, frame).case is \
                    CaseLabel.GeneralWeierstrass, (family, lg, c1)
            assert classify_case(family, frame, flip * C1_DEGENERATE) is (
                CaseLabel.Degenerate1a if flip * lg > 0.0
                else CaseLabel.Degenerate1b), (family, lg)
        frame = FrameParams.from_lambda_gamma(flip * 1e300)
        assert classify_case(family, frame, 0.0) is CaseLabel.Equianharmonic


#: c1 where the case, or whether a real solution exists, changes
CASE_BOUNDARIES = {
    FamilyLabel.Liouville: (0.0,),
    FamilyLabel.SineGordon: (-1.0, 1.0),
    FamilyLabel.SinhGordon: (-0.5, 0.5),
    **{fam: (C1_DEGENERATE, -C1_DEGENERATE, C1_LEMNISCATIC, -C1_LEMNISCATIC)
       for fam in CUBIC_FAMILIES - {FamilyLabel.Liouville}},
}


def _r_g_positive_somewhere(family, frame, c1):
    """r G > 0 at some sampled value of the native variable: psi in
    [-pi, pi] (0 and pi included) or h in [-10, 10] without 0."""
    q = first_integral(family_params(family), frame, c1)
    if family in GORDON_FAMILIES:
        return any(frame.r * q.g_psi(k * math.pi / 64) > 0.0
                   for k in range(-64, 65))
    return any(frame.r * h * h * q.g(h) > 0.0
               for h in (k / 64.0 for k in range(-640, 641) if k))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(CASE_BOUNDARIES, key=lambda f: f.value)),
       st.data(),
       st.floats(min_value=-11.0, max_value=-3.0),
       st.sampled_from((-1.0, 1.0)),
       st.floats(min_value=-3.0, max_value=3.0),
       st.sampled_from((-1.0, 1.0)))
def test_classify_and_construct_agree_near_case_boundaries(
        family, data, off_exp, off_sign, lg_exp, lg_sign):
    # classify names a case <=> construct builds <=> r G > 0 somewhere,
    # apart from the uncatalogued sinh-Gordon gap where both refuse alike
    boundary = data.draw(st.sampled_from(CASE_BOUNDARIES[family]))
    c1 = boundary + off_sign * 10.0 ** off_exp
    assert abs(c1 - boundary) > C1_MATCH_TOL
    lg = lg_sign * 10.0 ** lg_exp
    frame = FrameParams.from_lambda_gamma(lg)
    exists = _r_g_positive_somewhere(family, frame, c1)
    try:
        case, refusal = classify_case(family, frame, c1), None
    except DomainError as e:
        case, refusal = None, str(e)
    try:
        sol, construct_refusal = construct(family, c1, frame), None
    except DomainError as e:
        sol, construct_refusal = None, str(e)
    assert construct_refusal == refusal
    if family is FamilyLabel.SinhGordon and lg > 0.0 and c1 < -0.5:
        assert exists and refusal.startswith("no catalogued closed form")
    else:
        assert (case is not None) == exists
        assert sol is None or sol.case is case


@given(st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=-0.2, max_value=5.0),
       st.floats(min_value=0.05, max_value=3.0))
def test_conserved_constant(h, dh, lg):
    # the recovered integration constant is exact on analytic states
    params = family_params(FamilyLabel.Tzitzeica)
    frame = FrameParams.from_lambda_gamma(lg)
    q = first_integral(params, frame, 0.7)
    dh_exact = math.sqrt(max(0.0, 2.0 * frame.r * h * h * q.g(h)))
    c1 = conserved_c1(params, frame, h, dh_exact)
    assert c1 == pytest.approx(0.7, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("labels, noun", [(FamilyLabel, "family"),
                                          (CaseLabel, "case")])
def test_label_parse_spellings_and_refusal(labels, noun):
    # each label by its value or its name, in any case, with '_' or ' '
    # for '-' and surrounding blanks; anything else names no label
    for label in labels:
        for text in (label.value, label.name, label.name.upper(),
                     f"  {label.value.replace('-', '_')} ",
                     label.value.replace("-", " ").title()):
            assert labels.parse(text) is label, text
    with pytest.raises(InvalidParamsError) as err:
        labels.parse("No Such-Label")
    assert str(err.value) == f"unknown {noun} 'No Such-Label'"
