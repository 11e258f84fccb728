"""Weierstrass p-function on the real axis, from invariants (g2, g3).

The evaluator solves the cubic 4 t^3 - g2 t - g3 = 0 and reduces p to
Jacobi elliptic functions:

  discriminant > 0 (three real roots e1 >= e2 >= e3):
      p(z) = e3 + (e1 - e3) / sn^2(z sqrt(e1 - e3); m),
      m = (e2 - e3)/(e1 - e3)

  discriminant < 0 (one real root e2*, conjugate pair):
      H^2 = 3 e2*^2 - g2/4,
      p(z) = e2* + H (1 + cn(2 z sqrt(H); m)) / (1 - cn(...)),
      m = 1/2 - 3 e2* / (4 H)

  discriminant = 0 degenerates to elementary functions:
      g3 = 0 (g2^3 = 0 too): p(z) = 1/z^2
      g3 < 0 (e>0):     p(z) = e + 3 e csch^2(z sqrt(3 e)),   e = cbrt(-g3)/2
      g3 > 0 (e>0):     p(z) = -e + 3 e csc^2(z sqrt(3 e)),   e = cbrt(g3)/2

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
    def scale(self) -> float:
        """max(|g2|^3, 27 g3^2), the size the discriminant is read against."""
        return max(abs(self.g2) ** 3, 27.0 * self.g3 ** 2)

    @property
    def is_degenerate(self) -> bool:
        return abs(self.delta) <= DELTA_REL_TOL * self.scale


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
        # formula for it: prepare_weierstrass and elliptic_data read it here
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
    one pole rule first.
    """

    __slots__ = ("kind", "scale", "jacobi", "e_off", "coeff", "real_period",
                 "periodic", "eps_pole")

    def __init__(self, kind: str, scale: float, jacobi: _PreparedJacobi | None,
                 e_off: float, coeff: float, real_period: float,
                 pole_scale: float):
        self.kind = kind
        self.scale = scale
        self.jacobi = jacobi  # the "sn" and "cn" kinds only
        self.e_off = e_off
        self.coeff = coeff
        self.real_period = real_period
        self.periodic = math.isfinite(real_period)
        self.eps_pole = _POLE_FRACTION * pole_scale

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
            _, cn, _ = self.jacobi.sn_cn_dn(self.scale * z)
            return self.e_off + self.coeff * (1.0 + cn) / (1.0 - cn)
        if kind == "rational":
            return 1.0 / (z * z)
        e = self.e_off
        a = self.scale  # sqrt(3 e)
        if kind == "hyperbolic":
            try:
                s = math.sinh(a * z)
            except OverflowError:  # sinh past the largest float: p -> e
                return e
            return e + 3.0 * e * (1.0 / (s * s))
        s = math.sin(a * z)  # "trigonometric"
        return -e + 3.0 * e * (1.0 / (s * s))

    def slope(self, z: float) -> float:
        """p'(z)."""
        self._check_pole(z)
        kind = self.kind
        if kind == "sn":
            sn, cn, dn = self.jacobi.sn_cn_dn(self.scale * z)
            return -2.0 * self.coeff * self.scale * cn * dn / (sn ** 3)
        if kind == "cn":  # H-form for one real root
            sn, cn, dn = self.jacobi.sn_cn_dn(self.scale * z)
            one_m_cn = 1.0 - cn
            return (-2.0 * self.coeff * self.scale * sn * dn
                    / (one_m_cn * one_m_cn))
        if kind == "rational":
            return -2.0 / (z * z * z)
        e = self.e_off
        a = self.scale  # sqrt(3 e)
        if kind == "hyperbolic":
            try:
                s = math.sinh(a * z)
                c = math.cosh(a * z)
            except OverflowError:  # past the largest float: p' -> 0
                return 0.0
            return -6.0 * e * a * (1.0 / (s * s)) * (c / s)
        s = math.sin(a * z)  # "trigonometric"
        return -6.0 * e * a * (1.0 / (s * s)) * (math.cos(a * z) / s)


def prepare_weierstrass(inv: WeierstrassInvariants,
                        force_general: bool = False) -> _PreparedWeierstrass:
    """Classify the invariants and precompute root/modulus/period data.

    ``force_general`` bypasses the degenerate closed forms and runs the
    root-based Jacobi reduction even at (near-)degenerate invariants,
    where it hits the hyperbolic/trigonometric limits of sn; used to
    cross-check the two expression routes against each other.
    """
    g2, g3 = inv.g2, inv.g3
    roots = solve_weierstrass_cubic(g2, g3)
    if inv.is_degenerate and not force_general:
        # g3 = 0 here means g2^3 underflowed too: p = 1/z^2 to rounding
        if g3 == 0.0:
            return _PreparedWeierstrass(
                "rational", 0.0, None, 0.0, 0.0, math.inf, 1.0)
        e = abs(roots.real[1])  # the double root: (d, d, -2d) sorted
        a = math.sqrt(3.0 * e)
        if g3 < 0.0:
            # poles only at z = 0; the companion trigonometric scale pi/a
            # still sets a sensible exclusion radius
            return _PreparedWeierstrass(
                "hyperbolic", a, None, e, 0.0, math.inf, math.pi / a)
        return _PreparedWeierstrass(
            "trigonometric", a, None, e, 0.0, math.pi / a, math.pi / a)
    if len(roots.real) == 3:
        e1, e2, e3 = roots.real
        span = e1 - e3
        jac = _PreparedJacobi((e2 - e3) / span)
        scale = math.sqrt(span)
        period = 2.0 * jac.k / scale if jac.m < 1.0 else math.inf
        return _PreparedWeierstrass(
            "sn", scale, jac, e3, span, period,
            period if math.isfinite(period) else 1.0)
    e2s = roots.real[0]
    h2 = 3.0 * e2s * e2s - g2 / 4.0
    h = math.sqrt(h2)
    jac = _PreparedJacobi(0.5 - 3.0 * e2s / (4.0 * h))
    scale = 2.0 * math.sqrt(h)
    period = 4.0 * jac.k / scale if jac.m < 1.0 else math.inf
    return _PreparedWeierstrass(
        "cn", scale, jac, e2s, h, period,
        period if math.isfinite(period) else 1.0)


def weierstrass_p(z: float, inv: WeierstrassInvariants) -> tuple[float, float]:
    """Weierstrass p(z) and its derivative p'(z) on the real axis.

    p is within 2e-14 relative of a 40-digit mpmath reference wherever
    the Jacobi reduction runs (worst read 7.6e-15).  Inside the snap band
    |delta| <= DELTA_REL_TOL * max(|g2|^3, 27 g3^2) the elementary
    degenerate form stands in for the true function and misses it by up
    to |delta| / (2 max(...)) + 2e-14 for |z| sqrt(3 e) <= 2, e the double
    root: 3.5e-13 read at the band edge, at the far end of that range.
    Farther out the miss grows as the true lattice's distant pole nears.
    Raises PoleProximityError inside the exclusion radius of a lattice
    pole.
    """
    if not math.isfinite(z):
        raise DomainError("weierstrass_p requires finite z")
    prep = prepare_weierstrass(inv)
    return prep.eval(z), prep.slope(z)
