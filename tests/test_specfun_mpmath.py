"""gauss_2f1, carlson_rf and the Weierstrass p-function against mpmath,
each to the accuracy its docstring states."""

import math
from itertools import combinations_with_replacement

import mpmath as mp
import pytest

from expwave.specfun import (
    WeierstrassInvariants,
    carlson_rf,
    gauss_2f1,
    prepare_weierstrass,
    solve_weierstrass_cubic,
)
from expwave.errors import ConvergenceError

DPS = 40

#: the two parameter sets the c1 = 0 implicit solutions use
CATALOGUED_2F1 = [(0.5, 1.0 / 3.0, 4.0 / 3.0), (0.5, 0.25, 1.25)]

RF_VALUES = (0.0, 1e-300, 1e-30, 1e-8, 0.5, 1.0, 1e8, 1e30, 1e300)


def _relative_error(value, reference):
    return float(abs((mp.mpf(value) - reference) / reference))


@pytest.mark.parametrize("a, b, c", CATALOGUED_2F1)
@pytest.mark.parametrize("x", [-1e12, -1e8, -2e6, -1e5, -1e3, -2.0, -1.0,
                               -0.5, 0.5, 0.9, 0.99, 0.9999, 0.999999,
                               1.0 - 1e-9, 1.0 - 1e-12])
def test_gauss_2f1_against_mpmath(a, b, c, x):
    # x <= -1e5 is the 1/x connection formula's reach, x > 0.75 the 1 - x
    # formula's; the series needed more than 400,000 terms at both ends
    with mp.workdps(DPS):
        reference = mp.hyp2f1(a, b, c, x)
        assert _relative_error(gauss_2f1(a, b, c, x), reference) <= 2e-14


#: parameters whose c - a - b is clear of the integers, c < 0 and a < 0
#: among them
NEAR_ONE_2F1 = [(1.3, -0.7, 2.9), (2.2, 1.1, 0.4), (0.3, 0.6, -0.45),
                (-1.6, 0.8, 1.7)]


@pytest.mark.parametrize("a, b, c", NEAR_ONE_2F1)
@pytest.mark.parametrize("x", [0.8, 0.9, 0.99, 0.9999, 0.999999, 1.0 - 1e-9,
                               1.0 - 1e-12])
def test_gauss_2f1_near_one_against_mpmath(a, b, c, x):
    with mp.workdps(DPS):
        reference = mp.hyp2f1(a, b, c, x)
        assert _relative_error(gauss_2f1(a, b, c, x), reference) <= 2e-14


def test_gauss_2f1_near_one_with_integral_c_minus_a_minus_b():
    # c - a - b = 0 is the logarithmic case of the 1 - x formula: the
    # series serves on, within its promise at 0.99 and out of terms at
    # 0.999999
    with mp.workdps(DPS):
        reference = mp.hyp2f1(0.5, 0.5, 1.0, 0.99)
    assert _relative_error(gauss_2f1(0.5, 0.5, 1.0, 0.99), reference) <= 2e-14
    with pytest.raises(ConvergenceError, match="within 400000 terms"):
        gauss_2f1(0.5, 0.5, 1.0, 0.999999)


@pytest.mark.parametrize("a, b, c, x", [
    # x < -2: the two 1/x terms of DLMF 15.8.2 cancel (+-6.97e37 to a sum
    # of 1.75e24 in the first case), so the kernel takes Pfaff instead
    (33.75487553892358, 38.63893166946486, 93.02615962313335,
     -2.436362927668152),
    (64.58736256411731, 43.0647959757017, 97.5456236127321,
     -2.1716979152688967),
    # negative non-integer c: the terms dip, then grow again as c + n
    # passes 0, where the tail test had already stopped the series
    (63.336209961107926, 7.645577439718522, -72.04921315230774,
     0.15787772472736528),
    (60.536603473223124, -20.354758635704613, -43.04805904716665,
     0.2867795842644033),
    (77.99774795690925, -7.197736965609806, -74.84236477183995,
     0.21921812966652765),
])
def test_gauss_2f1_off_the_catalogued_sets_against_mpmath(a, b, c, x):
    # these read 1.75e24, -6.1e19, 0.376, 2210.5 and 4.49 before both
    # fixes; now at most 7.5e-15 from mpmath
    with mp.workdps(DPS):
        reference = mp.hyp2f1(a, b, c, x)
        assert _relative_error(gauss_2f1(a, b, c, x), reference) <= 2e-14


@pytest.mark.parametrize("x, y, z", [
    t for t in combinations_with_replacement(RF_VALUES, 3)
    if t.count(0.0) <= 1])
def test_carlson_rf_against_mpmath(x, y, z):
    with mp.workdps(DPS):
        reference = mp.elliprf(x, y, z)
        assert _relative_error(carlson_rf(x, y, z), reference) <= 1e-15


#: (g2, g3) of the catalogued Weierstrass forms: equianharmonic at
#: lambda gamma = +-1, general Weierstrass at c1 = 1, lambda gamma = +-1
CATALOGUED_P = [(0.0, -0.25), (0.0, 0.25), (1.0 / 3.0, -31.0 / 108.0),
                (1.0 / 3.0, 31.0 / 108.0)]

#: targets for Delta / max(|g2|^3, 27 g3^2), down to 2e-14, where the
#: old relative snap band of 1e-12 took the elementary degenerate forms
DELTA_RATIOS = (2e-14, 1e-13, 5e-13, 9.9e-13, 1.1e-12, 1e-11, 1e-8, 1e-4,
                0.1, 1.0)


def _weierstrass_reference(g2, g3):
    """z -> p(z; g2, g3) to DPS digits.

    p = e_j + (e_k - e_j) / sn^2(sqrt(e_k - e_j) z; (e_l - e_j)/(e_k - e_j))
    holds for any labelling of the roots of 4 t^3 - g2 t - g3, complex ones
    included, so one formula covers both signs of Delta."""
    ej, ek, el = sorted(
        mp.polyroots([4, 0, -mp.mpf(g2), -mp.mpf(g3)], maxsteps=200,
                     extraprec=8 * DPS), key=mp.re)
    scale, m = mp.sqrt(ek - ej), (el - ej) / (ek - ej)

    def p(z):
        return mp.re(ej + (ek - ej) / mp.ellipfun("sn", scale * z, m=m) ** 2)
    return p


def _band_invariants():
    # (3 t^2, t^3) is degenerate (double root t/2); scaling g3 by
    # sqrt(1 - rho) gives Delta / scale = rho > 0, dividing by it -rho;
    # rho = 1 is g3 = 0 on one side and g2 = 0 on the other
    for t in (1.0, -1.0, 0.02, -50.0):
        for rho in DELTA_RATIOS:
            yield 3.0 * t * t, t ** 3 * math.sqrt(1.0 - rho), t
            if rho == 1.0:
                yield 0.0, t ** 3, t
            else:
                yield 3.0 * t * t, t ** 3 / math.sqrt(1.0 - rho), t


@pytest.mark.parametrize("g2, g3", CATALOGUED_P)
def test_weierstrass_p_catalogued_against_mpmath(g2, g3):
    prep = prepare_weierstrass(WeierstrassInvariants(g2, g3))
    with mp.workdps(DPS):
        reference = _weierstrass_reference(g2, g3)
        for f in (0.05, 0.2, 0.37, 0.5, 0.81):
            z = f * prep.real_period
            assert _relative_error(prep.eval(z), reference(z)) <= 2e-14


@pytest.mark.parametrize("g2, g3, t", list(_band_invariants()))
def test_weierstrass_p_near_degenerate_against_mpmath(g2, g3, t):
    # 2e-14 at every row: none is exactly degenerate, so the Jacobi
    # reduction runs on all of them, for |z| sqrt(3 e) <= 2, e = |t|/2 the
    # double root of the rows' base
    inv = WeierstrassInvariants(g2, g3)
    assert not inv.is_degenerate
    bound = 2e-14
    prep = prepare_weierstrass(inv)
    with mp.workdps(DPS):
        reference = _weierstrass_reference(g2, g3)
        for s in (0.1, 0.5, 1.0, 1.5, 2.0):
            z = s / math.sqrt(1.5 * abs(t))
            assert _relative_error(prep.eval(z), reference(z)) <= bound, z


#: eps = 2**-52, the unit the Weierstrass bounds below are stated in
EPS = 2.0 ** -52


@pytest.mark.parametrize("t", [1e-3, 0.02, 1.0, 50.0, 1e3])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
def test_weierstrass_p_exactly_degenerate_against_mpmath(t, sign):
    # (3 t^2, +-t^3) has the double root e = t/2: p = e + 3 e csch^2(a z)
    # for g3 < 0 and -e + 3 e csc^2(a z) for g3 > 0, a = sqrt(3 e).  Each
    # of p and p' is within 4 eps (1 + kappa) of that 40-digit closed form,
    # kappa = |z f'/f| the conditioning in z (which bounds the one in e
    # too, as p(z; e) = e f(sqrt(e) z)); the worst reads 1.7 for p and 1.1
    # for p' (6.6e-15 and 1.0e-14 relative).  At t = 1e-3 and 0.02 the
    # floats (3 t^2, +-t^3) are rounded off the degenerate pair, so the
    # reference there is mpmath's p of those floats, which the closed form
    # misses by up to 7.4 eps
    g2, g3 = 3.0 * t * t, sign * t ** 3
    inv = WeierstrassInvariants(g2, g3)
    prep = prepare_weierstrass(inv)
    with mp.workdps(DPS):
        e = mp.mpf(t) / 2
        a = mp.sqrt(3 * e)
        reference = None if inv.is_degenerate else \
            _weierstrass_reference(g2, g3)
        for s in (0.1, 0.5, 1.0, 1.5, 2.0, 3.0):
            z = s / math.sqrt(1.5 * t)
            az = a * mp.mpf(z)
            if reference is not None:
                p = reference(z)
                dp = mp.diff(reference, z)
            elif g3 < 0.0:
                p = e + 3 * e / mp.sinh(az) ** 2
                dp = -6 * e * a * mp.cosh(az) / mp.sinh(az) ** 3
            else:
                p = -e + 3 * e / mp.sin(az) ** 2
                dp = -6 * e * a * mp.cos(az) / mp.sin(az) ** 3
            ddp = 6 * p * p - mp.mpf(g2) / 2
            kappa_p = float(abs(z * dp / p))
            kappa_dp = float(abs(z * ddp / dp))
            assert (_relative_error(prep.eval(z), p)
                    <= 4 * EPS * (1 + kappa_p)), z
            assert (_relative_error(prep.slope(z), dp)
                    <= 4 * EPS * (1 + kappa_dp)), z


#: three real roots, the two nearer 5.7e-6 apart (m = 1 - 1.1e-6)
NEAR_DOUBLE = (33.42277849631853, -37.186212269301954)


def test_near_double_root_keeps_its_digits():
    # e1 and e2 come from their sum -e3 and the exact discriminant, not
    # from the trigonometric form, which read e1 3.6e5 ulps off here
    e1 = solve_weierstrass_cubic(*NEAR_DOUBLE).real[0]
    assert abs(e1 - 1.66890413972216546) <= math.ulp(e1)


@pytest.mark.parametrize("f", [0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5,
                               0.55, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98])
def test_weierstrass_p_near_a_double_root_against_mpmath(f):
    # at z = f P: p within 8 eps (1 + kappa) on (0, P/2] (0.84 read; 2.1e5
    # with the trigonometric roots).  Past P/2 p, and p' anywhere, inherit
    # mc = (e1 - e2)/(e1 - e3) from the rounded roots, whose difference
    # loses their digits: the worst readings, 1.83e4 for p and 2.98e4 for
    # p' (1.3e10 with the trigonometric roots), are pinned here until the
    # exact gap reaches mc
    g2, g3 = NEAR_DOUBLE
    prep = prepare_weierstrass(WeierstrassInvariants(g2, g3))
    z = f * prep.real_period
    with mp.workdps(DPS):
        reference = _weierstrass_reference(g2, g3)
        p = reference(z)
        dp = mp.diff(reference, z)
        ddp = 6 * p * p - mp.mpf(g2) / 2
        kappa_p = float(abs(z * dp / p))
        kappa_dp = float(abs(z * ddp / dp))
        bound_p = 8.0 if f <= 0.5 else 2e4
        assert (_relative_error(prep.eval(z), p)
                <= bound_p * EPS * (1 + kappa_p))
        assert _relative_error(prep.slope(z), dp) <= 3e4 * EPS * (1 + kappa_dp)


@pytest.mark.parametrize("g2, g3, f", [
    # cn = -1 at half the real period, where (1 + cn)/(1 - cn) rounded at
    # the size of H rather than of p: 7.6e-12 off, now 3.8e-18
    (-430.2786530651617, -0.0327824860079701, 0.5),
    # cn near 1, where 1 - cn cancelled in p': 1.8e-12 off, now 3.3e-16
    (1.0, 1.0, 0.0015),
])
def test_weierstrass_cn_kind_near_cn_pm1_against_mpmath(g2, g3, f):
    _assert_cn_kind_within_8_eps(g2, g3, f)


@pytest.mark.parametrize("g2, g3, f", [
    # m = 0.99948: mc formed as 1 - m read 2.5e-13 off, and p' 1.2e-13
    # (438 eps (1 + kappa)); from root differences and the exact
    # discriminant it reads 6.9e-16 off, and p' 0.35 eps (1 + kappa)
    (0.23881342012263204, -0.023092317634600353, 0.25),
])
def test_weierstrass_cn_kind_next_to_the_snap_band_against_mpmath(g2, g3, f):
    _assert_cn_kind_within_8_eps(g2, g3, f)


def _assert_cn_kind_within_8_eps(g2, g3, f):
    # the one-real-root kind within 8 eps (1 + kappa) of p and of p',
    # kappa = |z f'/f| for f = p and p'
    prep = prepare_weierstrass(WeierstrassInvariants(g2, g3))
    assert prep.kind == "cn"
    z = f * prep.real_period
    with mp.workdps(DPS):
        reference = _weierstrass_reference(g2, g3)
        p = reference(z)
        dp = mp.diff(reference, z)
        ddp = 6 * p * p - mp.mpf(g2) / 2
        kappa_p = float(abs(z * dp / p))
        kappa_dp = float(abs(z * ddp / dp))
        assert _relative_error(prep.eval(z), p) <= 8 * EPS * (1 + kappa_p)
        assert _relative_error(prep.slope(z), dp) <= 8 * EPS * (1 + kappa_dp)
