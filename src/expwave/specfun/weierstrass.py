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

The discriminant Delta = g2^3 - 27 g3^2 is taken exactly, in integers
from the floats' ratios (``_discriminant``), and its sign alone decides:
the invariants are degenerate exactly where Delta = 0, with no tolerance
band, and any other pair, however near degenerate, takes the Jacobi
reduction of its own roots.  Delta = 0 has the roots d, d, -2d and takes
the sn kind at m = 1 for g3 < 0 and at m = 0 for g3 > 0, where sn is tanh
and sin (DLMF 22.5(ii), 23.6(ii)): with e = |d| that is
    p(z) = e + 3 e csch^2(z sqrt(3 e))   and   -e + 3 e csc^2(z sqrt(3 e));
only g2 = g3 = 0, the triple root, is p(z) = 1/z^2.

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
from dataclasses import dataclass
from typing import Callable

from ..errors import DomainError, PoleProximityError
from .carlson import carlson_rf
from .elliptic import _PreparedJacobi, jacobi_sn_cn_dn

# carlson_rf and jacobi_sn_cn_dn are no longer called here (K and the
# Landen ladder live in _PreparedJacobi); they stay bound only because
# perfbench/tracer.py wraps them by these names.

_POLE_FRACTION = 1.0e-3

SQRT3 = math.sqrt(3.0)


def _discriminant(g2: float, g3: float) -> tuple[int, int]:
    """g2^3 - 27 g3^2 of two floats exactly, as integers (num, den), den >
    0, from their integer ratios: num is 0 exactly at a repeated root and
    has the discriminant's sign, and num / den rounds it once."""
    (n2, d2), (n3, d3) = g2.as_integer_ratio(), g3.as_integer_ratio()
    return n2 ** 3 * d3 * d3 - 27 * n3 * n3 * d2 ** 3, d2 ** 3 * d3 * d3


@dataclass(frozen=True)
class WeierstrassInvariants:
    """Invariant pair (g2, g3), refused where |g2|^3 + 27 g3^2 leaves the
    float range.  ``delta`` is the modular discriminant g2^3 - 27 g3^2,
    exact and rounded once, and the invariants are degenerate (a repeated
    root) exactly where it is 0."""

    g2: float
    g3: float

    def __post_init__(self):
        if not (math.isfinite(self.g2) and math.isfinite(self.g3)):
            raise DomainError("invariants must be finite")
        # |g2| ** 3 raises OverflowError itself past the float range
        if abs(self.g2) ** 3 + 27.0 * self.g3 * self.g3 == math.inf:
            raise OverflowError("|g2|^3 + 27 g3^2 past the float range")

    @property
    def delta(self) -> float:
        num, den = _discriminant(self.g2, self.g3)
        return num / den

    @property
    def is_degenerate(self) -> bool:
        return _discriminant(self.g2, self.g3)[0] == 0


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

    def scaled(self, s: float) -> "CubicRoots":
        """The roots times s > 0."""
        return CubicRoots(tuple(t * s for t in self.real), self.complex_pair
                          and tuple(t * s for t in self.complex_pair))


def _double_root(g3: float) -> CubicRoots:
    """(d, d, -2d) sorted, with d = -cbrt(g3)/2: the roots of 4 t^3 - g2 t
    - g3 where g2^3 = 27 g3^2, as g3 = -8 d^3; at g3 = +-0 the triple root
    reads +0.0, as 0.0 - x is +0.0 where x is a zero of either sign."""
    d = 0.0 - math.cbrt(g3) / 2.0
    return CubicRoots(real=tuple(sorted((d, d, 0.0 - 2.0 * d), reverse=True)))


def solve_weierstrass_cubic(g2: float, g3: float) -> CubicRoots:
    """Roots of s3(t) = 4 t^3 - g2 t - g3, classified by the sign of the
    exact discriminant Delta = g2^3 - 27 g3^2 = 16 prod (ei - ej)^2 (DLMF
    23.3(i)).

    Delta = 0 returns the repeated roots exactly, as (d, d, -2d).  Delta >
    0, three real roots: e3, the one of largest magnitude, from the
    trigonometric (Viete) form, where it is well conditioned; the other
    two from their sum -e3 and their gap sqrt(Delta) / (g3/e3 + 8 e3^2),
    the larger as -e3/2 - sign(e3) gap/2 and the smaller from the product
    g3/4 of all three, so that they keep their digits as they merge.
    Delta < 0, one real root: Cardano, u = cbrt(w) and v = g2/(12 u), with
    u + v formed as (g3/4)/(u^2 + v^2 - g2/12) where u and v have opposite
    signs (g2 < 0) and the pair's imaginary part as sqrt(3) |u - v| / 2, so
    that no root loses digits to a cancellation however far apart the
    roots lie.  Where Delta lies near or below the subnormal floats, so
    that sqrt(Delta) would underflow, the cubic is solved at (2^(4k) g2,
    2^(6k) g3), whose roots are these times 2^(2k) exactly.
    """
    WeierstrassInvariants(g2, g3)  # finite and in range
    num, den = _discriminant(g2, g3)
    if num == 0:
        return _double_root(g3)
    k = (den.bit_length() - num.bit_length()) // 12  # -log2 |Delta| / 12
    if k > 83:  # |Delta| below about 2^-1007, near the subnormals
        return solve_weierstrass_cubic(math.ldexp(g2, 4 * k), math.ldexp(
            g3, 6 * k)).scaled(2.0 ** (-2 * k))
    pd, qd = -g2 / 4.0, -g3 / 4.0  # depressed cubic t^3 + pd t + qd
    if num > 0:
        amp = 2.0 * math.sqrt(-pd / 3.0)
        c3 = min(1.0, max(-1.0, -4.0 * qd / amp ** 3))
        e3 = math.copysign(amp * math.cos(math.acos(abs(c3)) / 3.0), c3)
        big = -0.5 * e3 - math.copysign(
            0.5 * math.sqrt(num / den) / (g3 / e3 + 8.0 * e3 * e3), e3)
        return CubicRoots(real=tuple(sorted(
            (e3, big, g3 / (4.0 * e3 * big)), reverse=True)))
    disc = -num / (1728 * den)  # (qd/2)^2 + (pd/3)^3 > 0, rounded once
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

    Three real roots take the sn kind, the double roots (d, d, -2d) of
    exactly degenerate invariants among them: their parameter is exactly m
    = 1 or m = 0, which _PreparedJacobi evaluates by tanh and sech or sin
    and cos.  One real root e2* takes the cn kind, with the pair's
    imaginary part a read from the exact discriminant where e2* < 0, a^2 =
    -delta/(64 H^4), H^2 = 9 e2*^2/4 + a^2: there mc = a^2/(2 H (H + d))
    needs the digits of a small a, which the solver's a = sqrt(3) |u - v|/2
    loses to the cancellation of u - v.  Only g2 = g3 = 0, the triple root,
    takes the rational kind.
    """
    g2, g3 = inv.g2, inv.g3
    if g2 == 0.0 and g3 == 0.0:
        return _rational_form()
    roots = solve_weierstrass_cubic(g2, g3)
    if not roots.all_real and roots.real[0] < 0.0:
        # a^2 = -delta/(64 H^4) in integers, rounded once by the division
        (re, a), (num, den) = roots.complex_pair, _discriminant(g2, g3)
        nh, dh = math.hypot(1.5 * roots.real[0], a).as_integer_ratio()
        roots = CubicRoots(roots.real, (re, math.sqrt(
            -num * dh ** 4 / (64 * den * nh ** 4))))
    return _root_form(4.0, roots, 0.0, lambda kappa: kappa, 1.0)


def weierstrass_p(z: float, inv: WeierstrassInvariants) -> tuple[float, float]:
    """Weierstrass p(z) and its derivative p'(z) on the real axis.

    Where the Jacobi parameter m is at most 0.99, p and p' are each within
    8 eps (1 + kappa) relative of a 40-digit mpmath reference, eps = 2**-52
    and kappa = |z f'/f| the conditioning of f = p or p' in z: over 2,400
    points of 480 random pairs in [-3, 3]^2 the worst read 2.3 for p and
    2.4 for p'.  Degeneracy is exact: only delta = 0 takes the double-root
    function, and pairs whose delta is down to 2e-14 of max(|g2|^3, 27
    g3^2) read at most 1.7e-15 relative for p.  Nearer m = 1 the cn kind
    stays within 8 eps (1 + kappa), its mc taken from the exact
    discriminant: 2.2 read for p and 2.3 for p' over 240 pairs with
    delta/g2^3 from -1e-14 to -1e-4 (m up to 1 - 9e-15).  The sn kind
    there reads its roots to an ulp or so, but takes mc = (e1 - e2)/(e1 -
    e3) from their rounded difference: at (33.42277849631853,
    -37.186212269301954), m = 1 - 1.1e-6, p is within 0.84 eps (1 +
    kappa) on (0, P/2], and past P/2 reads 1.8e4, p' 3.0e4 anywhere; over
    240 pairs with delta/g2^3 from 1e-14 to 1e-4 the worst read 8.1e5 for
    p and 1.3e6 for p', at m = 1 - 6.0e-8.
    Raises PoleProximityError inside the exclusion radius of a lattice
    pole.
    """
    if not math.isfinite(z):
        raise DomainError("weierstrass_p requires finite z")
    prep = prepare_weierstrass(inv)
    return prep.eval(z), prep.slope(z)
