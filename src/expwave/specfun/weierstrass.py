"""Weierstrass p-function on the real axis, from invariants (g2, g3).

The evaluator solves the cubic 4 t^3 - g2 t - g3 = 0 and reduces p to
Jacobi elliptic functions:

  discriminant > 0 (three real roots e1 >= e2 >= e3):
      p(z) = e3 + (e1 - e3) / sn^2(z sqrt(e1 - e3); m),
      m = (e2 - e3)/(e1 - e3)

  discriminant < 0 (one real root e2*, conjugate pair):
      H^2 = 3 e2*^2 - g2/4,
      p(z) = e2* + H (1 + cn(2 z sqrt(H); m)) / (1 - cn(...)),
      m = 1/2 - 3 e2* / (4 H),
  with the quotient taken as (1 + cn)^2/sn^2 for cn >= 0 and as
  sn^2/(1 - cn)^2 for cn < 0, so that neither 1 - cn nor 1 + cn cancels

  discriminant = 0 (roots snapped to d, d, -2d) takes the first form at
  m = 1 for g3 < 0 and at m = 0 for g3 > 0, where sn is tanh and sin
  (DLMF 22.5(ii), 23.6(ii)): with e = |d| that is
      p(z) = e + 3 e csch^2(z sqrt(3 e))   and   -e + 3 e csc^2(z sqrt(3 e));
  only g3 = 0 (g2^3 underflowed, or the triple root) is p(z) = 1/z^2.

This is the real branch: p >= e1 between consecutive real poles.  Poles
lie on the lattice {n * real_period}; evaluation inside the exclusion
radius (1e-3 of the real-period estimate) raises PoleProximityError so
verification grids can skip singularities deterministically.

``prepare_weierstrass`` does the invariant-dependent work once; the
prepared object's ``eval(z)`` returns p(z) alone and its ``slope(z)``
returns p'(z) (``weierstrass_p`` returns both).  The closed-form
solutions do not call them: they are built from the roots of their own
cubic in h (expwave.solutions), which ``solve_weierstrass_cubic`` solves
as the Weierstrass cubic in 1/h.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import DomainError, PoleProximityError
from .carlson import carlson_rf
from .elliptic import _PreparedJacobi, jacobi_sn_cn_dn

# carlson_rf and jacobi_sn_cn_dn are no longer called here (K and the
# Landen ladder live in _PreparedJacobi); they stay bound only because
# perfbench/tracer.py wraps them by these names.

# |delta| below this times max(|g2|^3, 27 g3^2) classifies as degenerate;
# the case split is discontinuous, so a scaled tolerance is required.
DELTA_REL_TOL = 1.0e-12

_POLE_FRACTION = 1.0e-3

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class WeierstrassInvariants:
    """Invariant pair (g2, g3) with the modular discriminant attached."""

    g2: float
    g3: float
    delta: float = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.g2) and math.isfinite(self.g3)):
            raise DomainError("invariants must be finite")
        object.__setattr__(self, "delta", self.g2 ** 3 - 27.0 * self.g3 ** 2)

    @property
    def is_degenerate(self) -> bool:
        return abs(self.delta) <= DELTA_REL_TOL * max(abs(self.g2) ** 3,
                                                      27.0 * self.g3 ** 2)


@dataclass(frozen=True)
class CubicRoots:
    """Roots of a real cubic (4 t^3 - g2 t - g3, or a cubic family's own
    cubic in h), sorted descending when all real.

    ``real`` holds all real roots; for a conjugate pair ``complex_pair``
    holds (re, |im|) and ``real`` the single real root.
    """

    real: tuple[float, ...]
    complex_pair: tuple[float, float] | None = None

    @property
    def all_real(self) -> bool:
        return self.complex_pair is None


def solve_weierstrass_cubic(g2: float, g3: float) -> CubicRoots:
    """Roots of s3(t) = 4 t^3 - g2 t - g3.

    Three real roots use the trigonometric (Viete) form, with the one of
    least magnitude taken from the product g3/4 of the other two; one real
    root uses Cardano, u = cbrt(w) and v = g2/(12 u), with u + v formed as
    (g3/4)/(u^2 + v^2 - g2/12) where u and v have opposite signs (g2 < 0)
    and the pair's imaginary part as sqrt(3) |u - v| / 2, so that no root
    loses digits to a cancellation however far apart the roots lie;
    repeated roots (degenerate invariants) are returned exactly as (e, e,
    -2e).
    """
    inv = WeierstrassInvariants(g2, g3)
    pd = -g2 / 4.0  # depressed cubic t^3 + pd t + qd
    qd = -g3 / 4.0
    if inv.is_degenerate:
        if g2 == 0.0 and g3 == 0.0:
            return CubicRoots(real=(0.0, 0.0, 0.0))
        # the double root, g3 = -8 d^3; the simple root is -2d.  The one
        # formula for it: elliptic_data reads it here, and the sn kind of
        # prepare_weierstrass takes m = 1 or m = 0 from it
        d = -math.cbrt(g3) / 2.0
        roots = sorted((d, d, -2.0 * d), reverse=True)
        return CubicRoots(real=tuple(roots))
    if inv.delta > 0.0:
        amp = 2.0 * math.sqrt(-pd / 3.0)
        c3 = min(1.0, max(-1.0, -4.0 * qd / amp ** 3))
        theta = math.acos(c3) / 3.0
        roots = sorted(
            (amp * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)),
            key=abs)
        roots[0] = -qd / (roots[1] * roots[2])
        return CubicRoots(real=tuple(sorted(roots, reverse=True)))
    disc = (qd / 2.0) ** 2 + (pd / 3.0) ** 3  # > 0 here
    w = -qd / 2.0 - math.copysign(math.sqrt(disc), qd)
    u = math.cbrt(w)  # w != 0: qd = 0 here only with pd > 0
    v = -pd / (3.0 * u)
    e_real = -qd / (u * u + v * v + pd / 3.0) if pd > 0.0 else u + v
    return CubicRoots(real=(e_real,),
                      complex_pair=(-0.5 * e_real, 0.5 * SQRT3 * abs(u - v)))


class _PreparedWeierstrass:
    """Invariant-dependent data hoisted out of the per-point evaluation.

    ``eval(z)`` returns p(z) and ``slope(z)`` returns p'(z).  Both apply
    one pole rule first, whose radius is 1e-3 of the real period, or 1e-3
    where that is infinite.
    """

    __slots__ = ("kind", "scale", "jacobi", "e_off", "coeff", "real_period",
                 "periodic", "eps_pole")

    def __init__(self, kind: str, scale: float, jacobi: _PreparedJacobi | None,
                 e_off: float, coeff: float, real_period: float):
        self.kind = kind
        self.scale = scale
        self.jacobi = jacobi  # the "sn" and "cn" kinds only
        self.e_off = e_off
        self.coeff = coeff
        self.real_period = real_period
        self.periodic = math.isfinite(real_period)
        self.eps_pole = _POLE_FRACTION * (
            real_period if self.periodic else 1.0)

    def _check_pole(self, z: float) -> None:
        """Raise PoleProximityError within eps_pole of a lattice pole."""
        d = abs(z)  # the distance to the nearest pole
        if self.periodic:
            period = self.real_period
            d = abs(z - period * round(z / period))
        if d < self.eps_pole:
            raise PoleProximityError(
                f"z within {self.eps_pole:.3e} of a Weierstrass pole (distance {d:.3e})",
                distance=d,
                limit=self.eps_pole,
            )

    def eval(self, z: float) -> float:
        """p(z)."""
        self._check_pole(z)
        kind = self.kind
        if kind == "sn":
            sn, _, _ = self.jacobi.sn_cn_dn(self.scale * z)
            return self.e_off + self.coeff / (sn * sn)
        if kind == "cn":  # H-form for one real root
            sn, cn, _ = self.jacobi.sn_cn_dn(self.scale * z)
            # (1 + cn)/(1 - cn) as the quotient that does not cancel
            if cn >= 0.0:
                q = 1.0 + cn
                return self.e_off + self.coeff * (q * q / (sn * sn))
            q = 1.0 - cn
            return self.e_off + self.coeff * (sn * sn / (q * q))
        return 1.0 / (z * z)  # "rational"

    def slope(self, z: float) -> float:
        """p'(z)."""
        self._check_pole(z)
        kind = self.kind
        if kind == "sn":
            sn, cn, dn = self.jacobi.sn_cn_dn(self.scale * z)
            return -2.0 * self.coeff * self.scale * cn * dn / (sn ** 3)
        if kind == "cn":  # H-form for one real root
            sn, cn, dn = self.jacobi.sn_cn_dn(self.scale * z)
            # sn/(1 - cn)^2 as the quotient that does not cancel
            if cn >= 0.0:
                q = 1.0 + cn
                return (-2.0 * self.coeff * self.scale * dn * (q * q)
                        / (sn * sn * sn))
            q = 1.0 - cn
            return -2.0 * self.coeff * self.scale * sn * dn / (q * q)
        return -2.0 / (z * z * z)  # "rational"


def prepare_weierstrass(inv: WeierstrassInvariants) -> _PreparedWeierstrass:
    """Classify the invariants and precompute root/modulus/period data.

    Three real roots take the sn kind, the snapped double roots (d, d,
    -2d) among them: their parameter is exactly m = 1 or m = 0, which
    _PreparedJacobi evaluates by tanh and sech or sin and cos.  One real
    root takes the cn kind.  Only degenerate invariants with g3 = 0 take
    the rational kind.  Each kind hands _PreparedJacobi its mc = 1 - m
    formed without that cancellation: (e1 - e2)/(e1 - e3) for sn, and
    for cn (2 H + 3 e2*)/(4 H) where e2* >= 0, a^2/(H (2 H - 3 e2*))
    where e2* < 0, with a the pair's imaginary part, H^2 = 9 e2*^2/4 +
    a^2, and a^2 = -delta/(64 H^4) from the exact discriminant.
    """
    g2, g3 = inv.g2, inv.g3
    roots = solve_weierstrass_cubic(g2, g3)
    if g3 == 0.0 and inv.is_degenerate:
        # g2^3 underflowed too: p = 1/z^2 to rounding
        return _PreparedWeierstrass("rational", 0.0, None, 0.0, 0.0, math.inf)
    if len(roots.real) == 3:
        e1, e2, e3 = roots.real
        span = e1 - e3
        mc = (e1 - e2) / span
        jac = _PreparedJacobi((e2 - e3) / span, mc)
        scale = math.sqrt(span)
        period = 2.0 * jac.k / scale if mc > 0.0 else math.inf
        return _PreparedWeierstrass("sn", scale, jac, e3, span, period)
    e2s = roots.real[0]
    h = math.hypot(1.5 * e2s, roots.complex_pair[1])
    if e2s >= 0.0:
        mc = (2.0 * h + 3.0 * e2s) / (4.0 * h)
    else:
        # a^2 / (H (2 H - 3 e2*)), where 2 H + 3 e2* cancels, with a^2 =
        # -delta / (64 H^4), as the solver's a cancels too: in integers,
        # the floats' exact ratios, rounded once by the division
        (n2, d2), (n3, d3) = g2.as_integer_ratio(), g3.as_integer_ratio()
        (nh, dh), (ne, de) = h.as_integer_ratio(), e2s.as_integer_ratio()
        mc = ((27 * n3 * n3 * d2 ** 3 - n2 ** 3 * d3 * d3) * dh ** 6 * de
              / (64 * (d2 * d3) ** 2 * d2 * nh ** 5
                 * (2 * nh * de - 3 * ne * dh)))
    jac = _PreparedJacobi(0.5 - 3.0 * e2s / (4.0 * h), mc)
    scale = 2.0 * math.sqrt(h)
    period = 4.0 * jac.k / scale if mc > 0.0 else math.inf
    return _PreparedWeierstrass("cn", scale, jac, e2s, h, period)


def weierstrass_p(z: float, inv: WeierstrassInvariants) -> tuple[float, float]:
    """Weierstrass p(z) and its derivative p'(z) on the real axis.

    Outside the snap band, where the Jacobi parameter m is at most 0.99,
    p and p' are each within 8 eps (1 + kappa) relative of a 40-digit
    mpmath reference, eps = 2**-52 and kappa = |z f'/f| the conditioning
    of f = p or p' in z: over 2,400 points of 480 random pairs the worst
    read 4.0 for p and 2.9 for p'.  Nearer m = 1, next to the snap band,
    the cn kind stays within 10 eps (1 + kappa), its mc taken from the
    exact discriminant: 9.9 read for p at m = 1 - 1.1e-13 over 240 pairs
    drawn there.  The sn kind there inherits the error of its two nearest
    roots, which the trigonometric solution of the cubic loses as they
    merge: 2.1e5 eps (1 + kappa) read for p and 7.6e9 for p' at m = 1 -
    1.1e-6.
    Inside the snap band |delta| <= DELTA_REL_TOL * max(|g2|^3, 27 g3^2)
    the double-root function stands in for the true function and misses
    it by up to |delta| / (2 max(...)) + 2e-14 for |z| sqrt(3 e) <= 2, e
    the double root: 3.5e-13 read at the band edge, at the far end of
    that range.
    Farther out the miss grows as the true lattice's distant pole nears.
    Raises PoleProximityError inside the exclusion radius of a lattice
    pole.
    """
    if not math.isfinite(z):
        raise DomainError("weierstrass_p requires finite z")
    prep = prepare_weierstrass(inv)
    return prep.eval(z), prep.slope(z)
