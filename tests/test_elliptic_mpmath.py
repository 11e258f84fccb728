"""Jacobi sn, cn, dn and am against mpmath at the edges of the parameter
range: m near 1 from both sides, m << 0 and m >> 1.  Each bound is the
accuracy stated in the jacobi_sn_cn_dn and jacobi_am docstrings.  K(m)
is checked there too, from mc = 5e-324 to m = -1e6."""

import math

import mpmath as mp
import pytest

from expwave.specfun import ellint_k, jacobi_am, jacobi_sn_cn_dn
from expwave.specfun.elliptic import _PreparedJacobi

EPS = 2.0 ** -52
DPS = 40
U_VALUES = (0.3, -1.7, 7.5, 47.0, -1390.0, 1e4)


def _reference(u, m):
    """sn, cn, dn and the amplitude at parameter m (an mpf), to DPS digits."""
    with mp.workdps(DPS):
        big_u = mp.mpf(u)
        sn, cn, dn = (mp.re(mp.ellipfun(kind, big_u, m=m))
                      for kind in ("sn", "cn", "dn"))
        if m > 1:
            am = mp.asin(sn)  # bounded branch; cn(u; m) > 0 for m > 1
        else:
            # the continuous branch: atan2 plus the multiple of 2 pi that
            # keeps it nearest the secular part pi u / (2 K)
            at = mp.atan2(sn, cn)
            am = at + 2 * mp.pi * mp.nint(
                (mp.pi * big_u / (2 * mp.ellipk(m)) - at) / (2 * mp.pi))
        return sn, cn, dn, am


def _check(m):
    with mp.workdps(DPS):
        # the float's exact value on both sides of 1: above it the descent
        # of 1/m starts from (m - 1)/m, where 1 - fl(1/m) put sn(47;
        # 1 + 1e-9) 2e-9 off, at the parameter 1/fl(1/m)
        m_exact = mp.mpf(m)
    for u in U_VALUES:
        sn, cn, dn = jacobi_sn_cn_dn(u, m)
        am = jacobi_am(u, m)
        ref_sn, ref_cn, ref_dn, ref_am = _reference(u, m_exact)
        bound = 4.0 * EPS * (1.0 + abs(u) * math.sqrt(max(1.0, abs(m))))
        assert abs(sn - ref_sn) <= bound, (u, "sn")
        assert abs(cn - ref_cn) <= bound, (u, "cn")
        assert abs(dn - ref_dn) <= bound * math.sqrt(max(1.0, 1.0 - m)), (u, "dn")
        assert abs(am - ref_am) <= bound, (u, "am")


@pytest.mark.parametrize("m", [1.0 - 1e-3, 1.0 - 1e-9, 1.0 - 1e-14])
def test_just_below_one(m):
    _check(m)


@pytest.mark.parametrize("m", [1.0 + 1e-14, 1.0 + 1e-9, 1.0 + 1e-6, 1.0 + 1e-3])
def test_just_above_one(m):
    _check(m)


@pytest.mark.parametrize("m", [-1e3, -1e6])
def test_large_negative(m):
    _check(m)


@pytest.mark.parametrize("m", [1e3, 1e6])
def test_large_positive(m):
    _check(m)



@pytest.mark.parametrize("u", [s * u for u in (10.0, 15.0, 18.0, 20.0, 25.0,
                                               40.0, 1e4) for s in (1.0, -1.0)])
def test_amplitude_at_one_is_the_gudermannian(u):
    # sn and cn are tanh and sech at m = 1 (DLMF 22.5(ii)), so am(u; 1) is
    # gd(u) = 2 atan(e^u) - pi/2, which tends to +-pi/2 like 2 e^-|u|:
    # asin(tanh u) read that tail off the rounding of tanh u to 1 (4.1e-9
    # off at u = 20), atan2(sn, cn) reads it off sech u; 1e4 is past
    # cosh's overflow, where sech saturates to 0
    with mp.workdps(DPS):
        ref = 2 * mp.atan(mp.exp(mp.mpf(u))) - mp.pi / 2
    bound = 4.0 * EPS * (1.0 + abs(u))
    assert abs(jacobi_am(u, 1.0) - ref) <= bound
    assert abs(_PreparedJacobi(1.0).am(u) - ref) <= bound

#: K(m) within this many eps, relative; the worst reading is 2.1 eps (2.4
#: with K from Carlson's R_F)
K_EPS = 4.0
#: digits of the K reference: 1 - mc is exact down to mc = 5e-324
K_DPS = 360

#: complementary parameters mc = 1 - m: log-spread over [5e-324, 0.1],
#: spread over [0.1, 1], and 1 - m for m log-spread from -1e-12 to -1e6
K_RANGES = {
    "mc-tiny": [5e-324] + [10.0 ** -(1 + 322 * i / 63) for i in range(64)],
    "mc-unit": [0.1 + 0.9 * i / 24 for i in range(25)],
    "m-negative": [1.0 + 10.0 ** (-12 + 18 * i / 36) for i in range(37)],
}


@pytest.mark.parametrize("mcs", K_RANGES.values(), ids=K_RANGES.keys())
def test_complete_integral_against_mpmath(mcs):
    # the prepared parameter reads mc itself; ellint_k reads m = fl(1 - mc),
    # which is 1 (and refused) for mc below eps/2
    worst = 0.0
    with mp.workdps(K_DPS):
        for mc in mcs:
            jac = _PreparedJacobi(1.0 - mc, mc)
            # the Landen ladder ends within its cap of 16 rungs (12 at
            # mc = 5e-324), so the AGM and K are converged
            assert len(jac._ladder) < 16
            pairs = [(jac.k, mp.ellipk(1 - mp.mpf(mc)))]
            m = 1.0 - mc
            if m < 1.0:
                pairs.append((ellint_k(m), mp.ellipk(mp.mpf(m))))
            for k, ref in pairs:
                err = float(abs((k - ref) / ref)) / EPS
                assert err <= K_EPS, (mc, k)
                worst = max(worst, err)
    assert worst <= K_EPS
