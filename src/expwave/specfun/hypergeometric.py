"""Gauss hypergeometric function 2F1 for real parameters and x < 1.

Direct power series for -0.5 <= x < 1; the Pfaff transformation

    2F1(a, b; c; x) = (1-x)^(-a) 2F1(a, c-b; c; x/(x-1))

maps -2 <= x < -0.5 onto w = x/(x-1) in (1/3, 2/3], with (a, b) ordered
so the transformed series has the faster-decaying tail; x < -2 takes the
1/x connection formula (DLMF 15.8.2), unless b - a lies within 0.05 of an
integer (its two terms cancel) or a term overflows or runs out of terms;
there Pfaff serves on, and needs more than the term budget by x ~ -1e5.
Summation stops on a geometric tail bound of 1e-14 max(1, |sum|); near
x = 1 it needs ~1/(1-x) terms (ConvergenceError at x = 0.999999).  A
series whose rounding alone (its largest term times 2^-52) exceeds
1e-14 |sum|, relative at every size of sum, has cancelled its digits
away and raises ConvergenceError too, unless its prefactor times the sum
of |terms| rounds to zero.  A Pfaff prefactor beyond the float range
raises ConvergenceError as well.
"""

from __future__ import annotations

import contextlib
import math

from ..errors import ConvergenceError, DomainError

_TAIL_REL = 1.0e-14
_MAX_TERMS = 400_000
_INTEGER_GAP = 0.05  # b - a this near an integer goes through Pfaff
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
    pad = abs(a) + abs(b) + 1.0
    for n in range(_MAX_TERMS):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * w
        total += term
        mag = abs(term)
        if mag > big:
            big = mag
        if n > 8:
            ratio_bound = abs(w) * (1.0 + pad / (n + 1.0))
            if ratio_bound < 1.0:
                tail = mag * ratio_bound / (1.0 - ratio_bound)
                if tail <= _TAIL_REL * max(1.0, abs(total)):
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


def _inverse_term(a: float, b: float, c: float, x: float) -> float:
    """The (-x)^(-a) term of DLMF 15.8.2, summed in logarithms so that no
    Gamma factor overflows alone; 0 where 1/Gamma(b) or 1/Gamma(c-a) is 0."""
    if any(v <= 0.0 and v == round(v) for v in (b, c - a)):
        return 0.0
    log, sign = -a * math.log(-x), 1.0
    for v, power in ((c, 1.0), (b - a, 1.0), (b, -1.0), (c - a, -1.0)):
        log += power * math.lgamma(v)
        sign *= -1.0 if v < 0.0 and math.floor(v) % 2 else 1.0
    return sign * math.exp(log) * _series(a, a - c + 1.0, a - b + 1.0, 1.0 / x,
                                          log)


def gauss_2f1(a: float, b: float, c: float, x: float) -> float:
    """2F1(a, b; c; x) for real parameters, c not a nonpositive integer,
    and real x < 1.  For both catalogued sets, (1/2, 1/3; 4/3) and
    (1/2, 1/4; 5/4), within 2e-14 relative of mpmath on [-1e12, 0.99]."""
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
        # a 1/x term overflows or runs out of terms (parameters ~100s): Pfaff
        with contextlib.suppress(OverflowError, ConvergenceError):
            return _inverse_term(a, b, c, x) + _inverse_term(b, a, c, x)
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
