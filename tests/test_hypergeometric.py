import math

import mpmath as mp
import pytest

from expwave.errors import ConvergenceError, DomainError
from expwave.specfun import gauss_2f1


def series_oracle(a, b, c, x, nmax=20000):
    """Independent oracle: naive term-by-term summation with a hard
    1e-16 relative cut (valid for |x| < 1)."""
    total, term = 1.0, 1.0
    for n in range(nmax):
        term *= (a + n) * (b + n) / ((c + n) * (n + 1.0)) * x
        total += term
        if abs(term) < 1e-16 * abs(total) and n > 4:
            return total
    raise AssertionError("oracle did not converge")


def quadrature(f, h):
    """Independent oracle: int_0^h f(s) ds by tanh-sinh quadrature at 30
    digits, f written with mpmath functions."""
    with mp.workdps(30):
        return float(mp.quad(f, [0, h]))


def test_at_zero():
    assert gauss_2f1(0.5, 1.0 / 3.0, 4.0 / 3.0, 0.0) == 1.0
    assert gauss_2f1(3.0, -2.0, 1.5, 0.0) == 1.0


def test_log_identity():
    # 2F1(1, 1; 2; x) = -log(1 - x)/x
    assert gauss_2f1(1.0, 1.0, 2.0, 0.5) == pytest.approx(2.0 * math.log(2.0),
                                                          rel=1e-13)
    for x in (-0.8, -0.3, 0.25, 0.9):
        assert gauss_2f1(1.0, 1.0, 2.0, x) == pytest.approx(
            -math.log1p(-x) / x, rel=1e-12)


def test_series_vs_quadrature():
    # direct summation oracle
    assert gauss_2f1(0.5, 1.0 / 3.0, 4.0 / 3.0, -0.25) == pytest.approx(
        series_oracle(0.5, 1.0 / 3.0, 4.0 / 3.0, -0.25), rel=1e-13)
    # integral representations of the two catalogued forms:
    # h * 2F1(1/2, 1/3; 4/3; -2 h^3) = int_0^h ds/sqrt(1 + 2 s^3)
    for h in (0.2, 0.5, 0.75, -0.5):
        lhs = h * gauss_2f1(0.5, 1.0 / 3.0, 4.0 / 3.0, -2.0 * h ** 3)
        ref = quadrature(lambda s: 1 / mp.sqrt(1 + 2 * s ** 3), h)
        assert lhs == pytest.approx(ref, rel=1e-12, abs=1e-14)
    # h * 2F1(1/2, 1/4; 5/4; -h^4) = int_0^h ds/sqrt(1 + s^4)
    for h in (0.3, 0.8, 0.97):
        lhs = h * gauss_2f1(0.5, 0.25, 1.25, -h ** 4)
        ref = quadrature(lambda s: 1 / mp.sqrt(1 + s ** 4), h)
        assert lhs == pytest.approx(ref, rel=1e-12)


def test_pfaff_region():
    # -2 <= x < -0.5 goes through the Pfaff transformation (h = 0.9, 1.1),
    # x < -2 through the 1/x connection formula; the integral
    # representation remains the oracle
    for h in (0.9, 1.1, 1.5, 3.0, 6.0):
        lhs = h * gauss_2f1(0.5, 1.0 / 3.0, 4.0 / 3.0, -2.0 * h ** 3)
        ref = quadrature(lambda s: 1 / mp.sqrt(1 + 2 * s ** 3), h)
        assert lhs == pytest.approx(ref, rel=1e-11)
        lhs = h * gauss_2f1(0.5, 0.25, 1.25, -h ** 4)
        ref = quadrature(lambda s: 1 / mp.sqrt(1 + s ** 4), h)
        assert lhs == pytest.approx(ref, rel=1e-11)


def test_integral_b_minus_a_keeps_pfaff():
    # b - a = 0 is the logarithmic case of the 1/x connection formula, so
    # x < -2 still goes through the Pfaff transformation
    for x in (-5.0, -50.0):
        assert gauss_2f1(1.0, 1.0, 2.0, x) == pytest.approx(
            -math.log1p(-x) / x, rel=1e-12)


def test_parameters_near_a_thousand_keep_pfaff():
    # the 1/x series exhaust their term budget here, so the Pfaff series
    # answers; the true value, 4.4e-1063 (mpmath), underflows to 0
    assert gauss_2f1(991.94, 994.24, 397.88, -5.2) == 0.0


def test_cancelling_series_raises():
    # both the 1/x terms and the Pfaff series cancel (terms up to 3e102
    # against a sum of -4e86): the kernel raises instead of returning
    # -2.29e284, where mpmath reads -7.62e-69; the near-a-thousand input
    # above cancels as badly but keeps its 0, since its Pfaff prefactor
    # times every term rounds to zero
    with pytest.raises(ConvergenceError, match="cancels"):
        gauss_2f1(-299.21730744587353, -366.5885484806663, 933.5172512253387,
                  -2.46332807912054)


def test_cancellation_below_a_unit_sum_raises():
    # the Pfaff series (w = 0.839, 335 terms) has terms up to 21.8 and a sum
    # of 4.52e-6: its rounding is read against that sum, not against 1, so
    # the kernel raises instead of returning 1.4279785920769027e-50, 3.8e-10
    # from mpmath's 1.427978591534063e-50
    with pytest.raises(ConvergenceError, match="cancels"):
        gauss_2f1(56.07600231104357, 64.3652575298637, 57.14991261548741,
                  -5.216907125074116)


def test_pfaff_prefactor_overflow_raises():
    # (1 - x)^(-a) overflows before the series runs: the kernel's own
    # error names the float range, no bare OverflowError leaks
    for args in [(-800.0, 1.0, 3.0, -1.5),
                 (308.2814728356075, -313.94049067740707, -928.5072915877108,
                  -9.747431234405285)]:
        with pytest.raises(ConvergenceError, match="float range"):
            gauss_2f1(*args)


def test_domain_errors():
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, 0.0, 0.1)
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, -2.0, 0.1)
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, 1.5, 1.0)
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, 1.5, 2.0)
    # non-integer c close to a pole is fine
    assert math.isfinite(gauss_2f1(0.5, 0.5, -1.99, 0.1))
