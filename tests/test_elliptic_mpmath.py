"""Jacobi sn, cn, dn and am against mpmath at the edges of the parameter
range: m near 1 from both sides, m << 0 and m >> 1.  Each bound is the
accuracy stated in the jacobi_sn_cn_dn and jacobi_am docstrings."""

import math

import mpmath as mp
import pytest

from expwave.specfun import jacobi_am, jacobi_sn_cn_dn

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
