"""Weierstrass p-function on the real axis, from invariants (g2, g3).

One builder, ``_root_form``, turns the roots of a cubic (h')^2 = a3 (h -
h1)(h - h2)(h - h3) into its real solution by Jacobi elliptic functions:
it writes each kind's value and slope as two closures over the same
constants, and its docstring states the formulas.  ``prepare_weierstrass``
solves 4 t^3 - g2 t - g3 = 0 and hands the roots over with a3 = 4: three
real roots (discriminant > 0) take the sn kind, one real root
(discriminant < 0) the cn kind.  The closed-form solutions
(expwave.solutions) hand over the roots of their own cubic in h, which
``solve_weierstrass_cubic`` solves as the Weierstrass cubic in 1/h, and
evaluate the builder's ``value`` closure; they do not call ``eval``.

Discriminant = 0 (roots snapped to d, d, -2d) takes the sn kind at m = 1
for g3 < 0 and at m = 0 for g3 > 0, where sn is tanh and sin (DLMF
22.5(ii), 23.6(ii)): with e = |d| that is
    p(z) = e + 3 e csch^2(z sqrt(3 e))   and   -e + 3 e csc^2(z sqrt(3 e));
only g3 = 0 (g2^3 underflowed, or the triple root) is p(z) = 1/z^2.

This is the real branch: p >= e1 between consecutive real poles.  Poles
lie on the lattice {n * real_period}; evaluation inside the exclusion
radius (1e-3 of the real period, or 1e-3 where there is none) raises
PoleProximityError so verification grids can skip singularities
deterministically.

``prepare_weierstrass`` does the invariant-dependent work once; the
prepared object only holds the builder's closures, which its ``eval(z)``
and ``slope(z)`` call for p(z) and p'(z) (``weierstrass_p`` returns
both); ``_rational_form`` writes the pair for p = 1/z^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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


def _pole_error(distance: float, limit: float) -> PoleProximityError:
    return PoleProximityError(
        f"z within {limit:.3e} of a Weierstrass pole (distance {distance:.3e})",
        distance=distance, limit=limit)


def _refuse_pole(z: float, period: float, radius: float) -> None:
    """Raise PoleProximityError within radius of a pole n period, or of
    the one pole 0 where the period is infinite: the rule that the root
    forms' ``value`` inlines, as the families call it at every point, for
    the slopes and the rational kind, which no sample evaluates."""
    dist = (abs(z - period * round(z / period)) if math.isfinite(period)
            else abs(z))
    if dist < radius:
        raise _pole_error(dist, radius)


class _PreparedWeierstrass:
    """A prepared root form (see ``_root_form``), or p = 1/z^2.

    ``value`` and ``derivative`` are its builder's closures, which
    ``eval(x)`` and ``slope(x)`` call: p(z) and p'(z) for
    ``prepare_weierstrass``.  Every point first passes one pole rule, whose
    radius ``eps_pole`` is 1e-3 of the real period, or 1e-3 of the
    caller's length where the period is infinite.
    """

    __slots__ = ("kind", "real_period", "periodic", "eps_pole", "value",
                 "derivative")

    def __init__(self, kind: str, real_period: float, eps_pole: float,
                 value: Callable[[float], float],
                 derivative: Callable[[float], float]):
        self.kind = kind
        self.real_period = real_period
        self.periodic = math.isfinite(real_period)
        self.eps_pole = eps_pole
        self.value = value
        self.derivative = derivative

    def eval(self, z: float) -> float:
        """The form's value: p(z)."""
        return self.value(z)

    def slope(self, z: float) -> float:
        """The form's derivative: p'(z)."""
        return self.derivative(z)


def _rational_form() -> _PreparedWeierstrass:
    """p = 1/z^2 and p' = -2/z^3, with the one pole 0 and radius 1e-3."""
    def value(z: float) -> float:
        _refuse_pole(z, math.inf, _POLE_FRACTION)
        return 1.0 / (z * z)

    def derivative(z: float) -> float:
        _refuse_pole(z, math.inf, _POLE_FRACTION)
        return -2.0 / (z * z * z)
    return _PreparedWeierstrass("rational", math.inf, _POLE_FRACTION, value,
                                derivative)


def _root_form(a3: float, roots: CubicRoots, origin: float,
               rate: Callable[[float], float],
               length: float) -> _PreparedWeierstrass:
    """The real solution of (h')^2 = a3 (h - h1)(h - h2)(h - h3) with its
    poles at origin + n period, from the cubic's roots (Byrd and Friedman,
    Handbook of Elliptic Integrals, 1971, the 230-series; DLMF 22.13).
    The caller supplies the origin, the map ``rate`` from the rate below
    to the one used (which may refuse it) and the length that sets the
    pole radius where there is no period.  With s = sign(a3) and u =
    kappa (x - origin):

      three real roots, s h1 >= s h2 >= s h3 (the "sn" kind):
          h = h3 + (h1 - h3) / sn^2(u | m) = h1 + (h1 - h3) cn^2/sn^2,
          kappa = sqrt(a3 (h1 - h3)) / 2,  mc = (h1 - h2)/(h1 - h3),
          period 2 K(m) / kappa;
      one real root h1 and the pair b +- i a (the "cn" kind), d = s (b -
      h1), A = sqrt(d^2 + a^2):
          h = h1 + s A (1 + cn(u | m)) / (1 - cn)
            = h0 + 2 s A cn / (1 - cn),  h0 = b + 2 s A mc = h1 + s A,
          kappa = sqrt(|a3| A),  mc = (A - d)/(2 A) = a^2 / (2 A (A + d)),
          period 4 K(m) / kappa.

    Each value is an anchor plus a term of the sign of s: h1 for three
    real roots, and for one real root whichever of h1 (where cn = -1)
    and h0 (where cn = 0) is smaller in magnitude.  Far-apart roots leave
    h near a value much smaller than they are, and that anchor keeps it to
    its own rounding, with no value cancelling by more than a factor 2.
    The quotient is taken as (1 + cn)^2/sn^2 or cn (1 + cn)/sn^2 for cn >=
    0 and as sn^2/(1 - cn)^2 or cn/(1 - cn) for cn < 0, so that neither 1
    - cn nor 1 + cn cancels.  mc is formed from the root differences (its
    second form where d > 0), where 1 - m would lose the digits of a small
    mc; mc = 0, a double root, leaves one pole and an infinite period.

    The form holds two closures over these constants: ``value``, h, and
    ``derivative``, h' = -2 (h1 - h3) kappa cn dn/sn^3 for three real
    roots and -2 s A kappa sn dn/(1 - cn)^2 for one, taken as dn (1 +
    cn)^2/sn^3 for cn >= 0.
    """
    s = 1.0 if a3 > 0.0 else -1.0
    three = roots.all_real
    if three:
        h1, h2, h3 = roots.real if s > 0.0 else roots.real[::-1]
        amp = h1 - h3
        mc = (h1 - h2) / amp
        kappa = rate(0.5 * math.sqrt(abs(a3 * amp)))
        base, coeff, at_h1 = h1, amp, True
    else:
        h1 = roots.real[0]
        b, a = roots.complex_pair
        d = s * (b - h1)
        big_a = math.hypot(d, a)
        mc = a * a / (2.0 * big_a * (big_a + d)) if d > 0.0 else \
            (big_a - d) / (2.0 * big_a)
        amp = s * big_a
        kappa = rate(math.sqrt(abs(a3) * big_a))
        h0 = b + 2.0 * amp * mc
        at_h1 = abs(h1) <= abs(h0)
        base, coeff = (h1, amp) if at_h1 else (h0, 2.0 * amp)
    jac = _PreparedJacobi(1.0 - mc, mc)
    period = (2.0 if three else 4.0) * jac.k / kappa if mc > 0.0 else math.inf
    periodic = math.isfinite(period)
    radius = _POLE_FRACTION * (period if periodic else length)
    sncndn = jac.sn_cn_dn

    def value(x: float) -> float:
        z = x - origin
        dist = abs(z - period * round(z / period)) if periodic else abs(z)
        if dist < radius:
            raise _pole_error(dist, radius)
        sn, cn, _ = sncndn(kappa * z)
        if three:
            t = cn / sn
            return base + coeff * (t * t)
        if cn >= 0.0:
            q = 1.0 + cn
            return base + coeff * ((q if at_h1 else cn) * q / (sn * sn))
        q = 1.0 - cn
        if at_h1:
            return base + coeff * (sn * sn / (q * q))
        return base + coeff * (cn / q)

    def derivative(x: float) -> float:
        z = x - origin
        _refuse_pole(z, period, radius)
        sn, cn, dn = sncndn(kappa * z)
        if three:
            return -2.0 * amp * kappa * cn * dn / (sn ** 3)
        if cn >= 0.0:
            q = 1.0 + cn
            return -2.0 * amp * kappa * dn * (q * q) / (sn * sn * sn)
        q = 1.0 - cn
        return -2.0 * amp * kappa * sn * dn / (q * q)
    return _PreparedWeierstrass("sn" if three else "cn", period, radius, value,
                                derivative)


def prepare_weierstrass(inv: WeierstrassInvariants) -> _PreparedWeierstrass:
    """Classify the invariants and prepare p as the root form of
    (p')^2 = 4 (p - e1)(p - e2)(p - e3) at the origin.

    Three real roots take the sn kind, the snapped double roots (d, d,
    -2d) among them: their parameter is exactly m = 1 or m = 0, which
    _PreparedJacobi evaluates by tanh and sech or sin and cos.  One real
    root e2* takes the cn kind, with the pair's imaginary part a read from
    the exact discriminant where e2* < 0, a^2 = -delta/(64 H^4), H^2 = 9
    e2*^2/4 + a^2: there mc = a^2/(2 H (H + d)) needs the digits of a
    small a, which the solver's a loses next to the snap band.  Only
    degenerate invariants with g3 = 0 take the rational kind.
    """
    g2, g3 = inv.g2, inv.g3
    roots = solve_weierstrass_cubic(g2, g3)
    if g3 == 0.0 and inv.is_degenerate:
        # g2^3 underflowed too: p = 1/z^2 to rounding
        return _rational_form()
    e2s = roots.real[0]
    if not roots.all_real and e2s < 0.0:
        # a^2 = -delta/(64 H^4) in integers, from the floats' exact
        # ratios, rounded once by the division
        re, a = roots.complex_pair
        (n2, d2), (n3, d3) = g2.as_integer_ratio(), g3.as_integer_ratio()
        nh, dh = math.hypot(1.5 * e2s, a).as_integer_ratio()
        a = math.sqrt((27 * n3 * n3 * d2 ** 3 - n2 ** 3 * d3 * d3) * dh ** 4
                      / (64 * d2 ** 3 * d3 * d3 * nh ** 4))
        roots = CubicRoots(real=roots.real, complex_pair=(re, a))
    return _root_form(4.0, roots, 0.0, lambda kappa: kappa, 1.0)


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
