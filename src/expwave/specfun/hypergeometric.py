"""Gauss hypergeometric function 2F1 for real parameters and x < 1.

Direct power series for -0.5 <= x <= 0.75; the Pfaff transformation

    2F1(a, b; c; x) = (1-x)^(-a) 2F1(a, c-b; c; x/(x-1))

maps -2 <= x < -0.5 onto w = x/(x-1) in (1/3, 2/3], with (a, b) ordered
so the transformed series has the faster-decaying tail; x < -2 takes the
1/x connection formula (DLMF 15.8.2), unless b - a lies within 0.05 of an
integer (its two terms cancel), a term overflows or runs out of terms, or
the rounding of the larger term exceeds 1e-14 of their sum (the rule
below); there Pfaff serves on, and needs more than the term budget by
x ~ -1e5.  x > 0.75 takes the 1 - x connection formula (DLMF 15.8.4),
whose two series in 1 - x < 1/4 converge fast up to x = 1, on the same
terms: where c - a - b lies within 0.05 of an integer (the logarithmic
case) or the formula fails the same tests, the direct series serves on.
Summation stops on a geometric tail bound of 1e-14 max(1, |sum|), tested
once c + n > 0 (a negative c grows the terms again as c + n passes 0)
under a ratio bound that holds for every later term; near x = 1 the
direct series needs ~1/(1-x) terms (ConvergenceError at x = 0.999999
where the 1 - x formula cannot serve).  A series whose rounding alone
(its largest term times 2^-52) exceeds 1e-14 |sum|, relative at every
size of sum, has cancelled its digits away and raises ConvergenceError
too, unless its prefactor times the sum of |terms| rounds to zero.  A
Pfaff prefactor beyond the float range raises ConvergenceError as well.
"""

from __future__ import annotations

import contextlib
import math

from ..errors import ConvergenceError, DomainError

_TAIL_REL = 1.0e-14
_MAX_TERMS = 400_000
_INTEGER_GAP = 0.05  # b - a (c - a - b) this near an integer: no 1/x (1 - x)
#: above this x the 1 - x formula; the implicit oracles read x <= 0.665
_ONE_MINUS_X0 = 0.75
_ULP = 2.0 ** -52
# log of half the smallest subnormal, with a factor 2 to spare: a product
# below exp(_LOG_ZERO) rounds to zero
_LOG_ZERO = -1076.0 * math.log(2.0)


def _series(a: float, b: float, c: float, w: float,
            log_scale: float = 0.0) -> float:
    """The 2F1 series at w, which the caller multiplies by a factor
    exp(log_scale).  Raises ConvergenceError where the rounding of the
    partial sums exceeds the tail bound, unless that factor times the sum
    of |terms| rounds to zero, so that no sum could show in the product."""
    total = 1.0
    term = 1.0
    big = 1.0  # the largest |term| added
    abs_a, abs_b = abs(a), abs(b)
    pad = abs_a + abs_b + 1.0
    for n in range(_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * w
        total += term
        mag = abs(term)
        if mag > big:
            big = mag
        if n > 8 and c + n > 0.0:
            ratio_bound = abs(w) * (1.0 + pad / (n + 1.0))
            if ratio_bound < 1.0:
                tail = mag * ratio_bound / (1.0 - ratio_bound)
                limit = _TAIL_REL * max(1.0, abs(total))
                if tail > limit:
                    continue
                # confirmed under a ratio that bounds every later one; both
                # catalogued sets stop where the first bound alone stops
                ratio_bound = max(ratio_bound,
                                  _later_ratio_bound(abs_a, abs_b, c, w, n))
                if (ratio_bound < 1.0
                        and mag * ratio_bound / (1.0 - ratio_bound) <= limit):
                    # the rounding is read against the sum itself: below
                    # |sum| = 1 an absolute bound would pass a cancellation
                    if big * _ULP > _TAIL_REL * abs(total) and (
                            log_scale + math.log(big * (n + 2.0)) > _LOG_ZERO):
                        raise ConvergenceError(
                            f"2F1 series cancels: rounding in terms up to "
                            f"{big:.3g} exceeds the 1e-14 bound on a sum of "
                            f"{total:.3g}")
                    return total
    raise ConvergenceError(
        f"2F1 series did not meet the 1e-14 tail bound within {_MAX_TERMS} terms"
    )


def _later_ratio_bound(abs_a: float, abs_b: float, c: float, w: float,
                       n: int) -> float:
    """A bound on every term ratio |(a+m)(b+m)/((c+m)(m+1)) w| with m > n,
    valid once c + n > 0 (before that a later 1/(c + m) can grow the terms
    again): |w| max(1, (n+1+|a|)/(n+1+c)) max(1, (n+1+|b|)/(n+2)), whose
    two factors do not grow with n."""
    m = n + 1.0
    return (abs(w) * max(1.0, (m + abs_a) / (m + c))
            * max(1.0, (m + abs_b) / (m + 1.0)))


def _term(log_power: float, num: tuple[float, float],
          den: tuple[float, float], a: float, b: float, c: float,
          w: float) -> float:
    """One term of a connection formula: exp(log_power) Gamma(num[0])
    Gamma(num[1]) / (Gamma(den[0]) Gamma(den[1])) times the series
    2F1(a, b; c; w), summed in logarithms so that no Gamma factor
    overflows alone; 0 where a 1/Gamma(den) is 0."""
    if any(v <= 0.0 and v == round(v) for v in den):
        return 0.0
    log, sign = log_power, 1.0
    for v, power in ((num[0], 1.0), (num[1], 1.0), (den[0], -1.0),
                     (den[1], -1.0)):
        log += power * math.lgamma(v)
        sign *= -1.0 if v < 0.0 and math.floor(v) % 2 else 1.0
    return sign * math.exp(log) * _series(a, b, c, w, log)


def _connected(first: tuple, second: tuple) -> float | None:
    """The sum of a connection formula's two terms, each given as the
    arguments of ``_term``; None where a term overflows or runs out of
    terms, or the two cancel past the series' own rounding rule."""
    with contextlib.suppress(OverflowError, ConvergenceError):
        one, two = _term(*first), _term(*second)
        total = one + two
        if max(abs(one), abs(two)) * _ULP <= _TAIL_REL * abs(total):
            return total
    return None


def gauss_2f1(a: float, b: float, c: float, x: float) -> float:
    """2F1(a, b; c; x) for real parameters, c not a nonpositive integer,
    and real x < 1.  For both catalogued sets, (1/2, 1/3; 4/3) and
    (1/2, 1/4; 5/4), within 2e-14 relative of mpmath on [-1e12, 1 -
    1e-12]."""
    for v in (a, b, c, x):
        if not math.isfinite(v):
            raise DomainError("gauss_2f1 requires finite arguments")
    if c <= 0.0 and c == round(c):
        raise DomainError("gauss_2f1: c must not be a nonpositive integer")
    if x >= 1.0:
        raise DomainError("gauss_2f1 implemented for x < 1 only")
    if x == 0.0:
        return 1.0
    if x < -2.0 and abs(b - a - round(b - a)) >= _INTEGER_GAP:
        # DLMF 15.8.2; where it gives None (parameters ~100s, or the terms
        # cancel), Pfaff serves on
        log = math.log(-x)
        total = _connected(
            (-a * log, (c, b - a), (b, c - a), a, a - c + 1.0, a - b + 1.0,
             1.0 / x),
            (-b * log, (c, a - b), (a, c - b), b, b - c + 1.0, b - a + 1.0,
             1.0 / x))
        if total is not None:
            return total
    if x > _ONE_MINUS_X0 and abs(c - a - b - round(c - a - b)) >= _INTEGER_GAP:
        # DLMF 15.8.4 in w = 1 - x, exact here; where it gives None the
        # series serves on
        s, w = c - a - b, 1.0 - x
        total = _connected(
            (0.0, (c, s), (c - a, c - b), a, b, 1.0 - s, w),
            (s * math.log(w), (c, -s), (a, b), c - a, c - b, 1.0 + s, w))
        if total is not None:
            return total
    if x < -0.5:
        if a > b:
            a, b = b, a
        w = x / (x - 1.0)
        try:
            prefactor = (1.0 - x) ** (-a)
        except OverflowError:
            raise ConvergenceError(
                f"2F1 Pfaff prefactor (1 - x)^(-a) at a={a}, x={x} is "
                "beyond the float range") from None
        return prefactor * _series(a, c - b, c, w, -a * math.log1p(-x))
    return _series(a, b, c, x)
