"""Incomplete elliptic integral of the first kind, Jacobi elliptic
functions, and the Jacobi amplitude.

Parameter convention
--------------------
Every routine here takes the *parameter* m, the quantity that appears
inside the integrand of

    F(phi; m) = integral_0^phi dpsi / sqrt(1 - m sin^2 psi).

Sources that quote a *modulus* k use m = k^2 (so a modulus of sqrt(2)/2
is the parameter 1/2).  Negative m is evaluated directly; m > 1 goes
through the reciprocal-parameter transformation

    sn(u; m) = m^(-1/2) sn(u sqrt(m); 1/m),
    cn(u; m) = dn(u sqrt(m); 1/m),
    dn(u; m) = cn(u sqrt(m); 1/m),

which keeps all arithmetic real.  For m > 1 the amplitude is bounded and
periodic; for m < 1 it is unbounded and the continuous (unwrapped) branch
is returned.
"""

from __future__ import annotations

import math
from math import cos, hypot, sin  # read per point by sn_cn_dn

from ..errors import DomainError
from .carlson import carlson_rf

_AGM_TOL = 1.0e-8  # accuracy of the Landen descent is the square of this


class _PreparedJacobi:
    """sn, cn, dn and am of one parameter m, with everything that depends
    on m alone computed once.

    For m < 1 (m != 0) that is the descending Landen ladder of Bulirsch
    (Numer. Math. 7, 78-90, 1965; DLMF 22.20), held as the (a, sqrt(mc))
    pairs its backward recurrence walks, and the final AGM value c; for
    m > 1 it is sqrt(m) and a prepared 1/m for the reciprocal-parameter
    transformation.  K(m) is computed on first use, since sn_cn_dn never
    needs it.  Each result is bit-identical to building all of this per
    call.

    The ladder and K read the complementary parameter mc = 1 - m.  A
    caller that can form mc without the cancellation of 1 - m passes it
    as ``mc``, beside m = 1 - mc; any mc > 0 takes the ladder, also where
    1 - mc rounds to 1.  m > 1 passes (m - 1)/m to the prepared 1/m.
    """

    __slots__ = ("m", "_mc", "_k", "_ladder", "_c", "_rk", "_inner")

    def __init__(self, m: float, mc: float | None = None):
        if mc is None:
            mc = 1.0 - m
        self.m = m
        self._mc = mc
        self._k = None
        self._ladder = ()
        self._c = 0.0
        self._rk = 1.0
        self._inner = None
        if not math.isfinite(m) or m == 0.0 or mc == 0.0:
            return  # raised on, or closed forms, in sn_cn_dn and am
        if m > 1.0:
            self._rk = math.sqrt(m)
            self._inner = _PreparedJacobi(1.0 / m, (m - 1.0) / m)
            return
        a = 1.0
        c = 0.0
        ladder = []
        for _ in range(16):
            mc = math.sqrt(mc)
            ladder.append((a, mc))
            c = 0.5 * (a + mc)
            if abs(a - mc) <= _AGM_TOL * a:
                break
            mc *= a
            a = c
        ladder.reverse()
        self._ladder = tuple(ladder)
        self._c = c

    @property
    def k(self) -> float:
        """K(m) = R_F(0, mc, 1); raises DomainError unless mc > 0."""
        if self._k is None:
            if not self._mc > 0.0:
                raise DomainError("K(m) is finite only for m < 1")
            self._k = carlson_rf(0.0, self._mc, 1.0)
        return self._k

    def sn_cn_dn(self, u: float) -> tuple[float, float, float]:
        """jacobi_sn_cn_dn(u, m) for this m."""
        # the common case: finite m < 1, m != 0, finite u, |u| >= 1e-120
        if not (self._ladder and u - u == 0.0 and abs(u) >= 1e-120):
            if self._inner is None or not (u - u == 0.0 and abs(u) >= 1e-120):
                return self._sn_cn_dn_special(u)
            rk = self._rk  # m > 1: the reciprocal-parameter transformation
            sn, cn, dn = self._inner.sn_cn_dn(u * rk)
            return sn / rk, dn, cn
        c = self._c
        u = u * c
        sn = sin(u)
        cn = cos(u)
        dn = 1.0
        if sn != 0.0:
            aa = cn / sn
            c *= aa
            for b, e in self._ladder:
                aa *= c
                c *= dn
                dn = (e + aa) / (b + aa)
                aa = c / b
            aa = 1.0 / hypot(c, 1.0)
            sn = aa if sn >= 0.0 else -aa
            cn = c * sn
        return sn, cn, dn

    def _sn_cn_dn_special(self, u: float) -> tuple[float, float, float]:
        # non-finite input, tiny u, then m in {0, 1}, the cases sn_cn_dn
        # leaves here
        m = self.m
        if not (math.isfinite(u) and math.isfinite(m)):
            raise DomainError("jacobi_sn_cn_dn requires finite arguments")
        if abs(u) < 1e-120:
            # below any representable quadratic correction; also keeps the
            # backward recurrence's cn/sn ratio from overflowing
            return u, 1.0, 1.0
        if m == 0.0:
            return math.sin(u), math.cos(u), 1.0
        try:  # m == 1
            sech = 1.0 / math.cosh(u)
        except OverflowError:  # |u| > 710: sech = 2 e^-|u| to rounding
            sech = 2.0 * math.exp(-abs(u))
        return math.tanh(u), sech, sech

    def am(self, u: float) -> float:
        """jacobi_am(u, m) for this m."""
        if not (self._ladder and u - u == 0.0):
            m = self.m
            if not (math.isfinite(u) and math.isfinite(m)):
                raise DomainError("jacobi_am requires finite arguments")
            if m == 0.0:
                return u
            if m == 1.0:
                return math.asin(math.tanh(u))  # gudermannian
            rk = self._rk  # m > 1
            sn, _, dn = self._inner.sn_cn_dn(u * rk)
            return math.atan2(sn / rk, dn)
        k = self._k or self.k  # K > 0; the property computes it once
        n = round(u / (2.0 * k))
        ur = u - 2.0 * n * k
        sn, cn, _ = self.sn_cn_dn(ur)
        return n * math.pi + math.atan2(sn, cn)


def jacobi_sn_cn_dn(u: float, m: float) -> tuple[float, float, float]:
    """Jacobi sn, cn, dn of real u for any real parameter m.

    m <= 1 runs the Landen descent directly (this covers m < 0); m > 1 is
    mapped to 1/m by the reciprocal-parameter transformation.  Satisfies
    sn^2 + cn^2 = 1 and dn^2 + m sn^2 = 1 to ~1e-15.

    Accuracy, with eps = 2**-52: sn and cn within 4 eps (1 + |u|
    sqrt(max(1, |m|))) absolute, dn within that times sqrt(max(1, 1 - m)).
    The |u| term is conditioning, the rounding of the scaled argument:
    jacobi_sn_cn_dn(1e4, -1e6) gives dn = 1.29 only to about 5e-10
    relative.  For m > 1 the descent of 1/m starts from its complement
    fl((m - 1)/m), not 1 - fl(1/m), so the bound holds at m itself just
    above m = 1 too, where the functions are steep in m.
    """
    return _PreparedJacobi(m).sn_cn_dn(u)


def ellint_k(m: float) -> float:
    """Complete elliptic integral of the first kind, K(m) = F(pi/2; m)."""
    if m >= 1.0:
        raise DomainError("K(m) is finite only for m < 1")
    return carlson_rf(0.0, 1.0 - m, 1.0)


def _f_principal(phi: float, m: float) -> float:
    # |phi| <= pi/2, m <= 1
    s = math.sin(phi)
    c = math.cos(phi)
    w = 1.0 - m * s * s
    if w < 0.0:
        raise DomainError("elliptic integrand not real for these arguments")
    return s * carlson_rf(c * c, w, 1.0)


def ellint_f(phi: float, m: float) -> float:
    """Incomplete elliptic integral of the first kind F(phi; m).

    Odd in phi.  For m <= 1 any real phi is accepted through the
    quasi-periodic extension F(phi + n pi) = F(phi) + 2 n K(m); at m = 1
    that extension does not exist and |phi| < pi/2 is required.  For
    m > 1 the integral is real only while |sin phi| <= 1/sqrt(m) (and
    |phi| <= pi/2); it is then evaluated through the reciprocal-parameter
    transformation F(phi; m) = m^(-1/2) F(asin(sqrt(m) sin phi); 1/m).
    """
    if not (math.isfinite(phi) and math.isfinite(m)):
        raise DomainError("ellint_f requires finite arguments")
    if m > 1.0:
        s = math.sin(phi)
        rk = math.sqrt(m)
        if abs(phi) > 0.5 * math.pi or abs(s) > 1.0 / rk * (1.0 + 1e-14):
            raise DomainError(
                "ellint_f: for m > 1 need |phi| <= pi/2 and |sin phi| <= 1/sqrt(m)"
            )
        theta = math.asin(min(1.0, max(-1.0, rk * s)))
        return _f_principal(theta, 1.0 / m) / rk
    n = round(phi / math.pi)
    phi_r = phi - n * math.pi
    if n == 0:
        return _f_principal(phi, m)
    if m == 1.0:
        raise DomainError("ellint_f: m = 1 requires |phi| < pi/2")
    return 2.0 * n * ellint_k(m) + _f_principal(phi_r, m)


def jacobi_am(u: float, m: float) -> float:
    """Jacobi amplitude am(u; m), the inverse of F on the principal domain.

    For m < 1 the continuous unwrapped branch is returned, using
    am(u + 2K) = am(u) + pi.  For m > 1 the amplitude is bounded and
    periodic: am(u; m) = atan2(sn(u; m), cn(u; m)), where cn(u; m) > 0.

    Accuracy as for sn and cn in jacobi_sn_cn_dn.
    """
    return _PreparedJacobi(m).am(u)
