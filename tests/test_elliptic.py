import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from expwave.errors import DomainError
from expwave.specfun import (
    ellint_f,
    ellint_k,
    jacobi_am,
    jacobi_sn_cn_dn,
)


def f_quadrature(phi, m):
    """Independent oracle: tanh-sinh quadrature at 30 digits of the
    defining integral."""
    with mp.workdps(30):
        return float(mp.quad(lambda p: 1 / mp.sqrt(1 - m * mp.sin(p) ** 2),
                             [0, phi]))


def test_f_trivial_values():
    assert ellint_f(0.0, 0.7) == 0.0
    assert ellint_f(0.0, -3.0) == 0.0
    assert ellint_f(math.pi / 2.0, 0.0) == pytest.approx(math.pi / 2.0, abs=1e-15)


def test_f_defining_integral():
    # m > 1 inside the real domain; frozen from the quadrature oracle
    assert f_quadrature(0.5, 2.0) == pytest.approx(0.5513588790796798, rel=1e-12)
    assert ellint_f(0.5, 2.0) == pytest.approx(0.5513588790796798, rel=1e-12)
    for phi, m in [(0.3, 0.5), (1.2, 0.9), (-0.8, -1.0), (1.5, 0.99),
                   (2.5, 0.3), (6.0, 0.5), (0.4, -4.0)]:
        assert ellint_f(phi, m) == pytest.approx(f_quadrature(phi, m), rel=1e-11)


@given(st.floats(min_value=-6.0, max_value=6.0),
       st.sampled_from([-1.0, 0.0, 0.3, 0.7, 0.99]))
def test_f_odd(phi, m):
    assert ellint_f(-phi, m) == -ellint_f(phi, m)


def test_f_reciprocal_parameter_domain():
    # real only while |sin phi| <= 1/sqrt(m)
    m = 4.0
    edge = math.asin(1.0 / math.sqrt(m))
    assert ellint_f(edge * 0.999, m) == pytest.approx(
        f_quadrature(edge * 0.999, m), rel=1e-11)
    with pytest.raises(DomainError):
        ellint_f(edge * 1.01, m)
    with pytest.raises(DomainError):
        ellint_f(3.0, 2.0)  # |phi| > pi/2 crosses the forbidden band
    with pytest.raises(DomainError):
        ellint_f(2.0, 1.0)  # m = 1 has no quasi-periodic extension


def test_k_where_there_is_no_ladder():
    # pi/2 at m = 0; refused at m >= 1, at NaN and at -inf
    assert ellint_k(0.0) == 0.5 * math.pi
    assert ellint_k(-0.0) == 0.5 * math.pi
    for m in (1.0, 1.0 + 1e-15, 2.0, math.inf, math.nan):
        with pytest.raises(DomainError,
                           match=r"^K\(m\) is finite only for m < 1$"):
            ellint_k(m)
    with pytest.raises(DomainError,
                       match=r"^K\(m\) requires a finite parameter$"):
        ellint_k(-math.inf)


def test_jacobi_origin_and_degenerate():
    for m in (-1.0, 0.0, 0.5, 1.0, 2.0):
        assert jacobi_sn_cn_dn(0.0, m) == (0.0, 1.0, 1.0)
    for u in (-2.0, 0.3, 1.7):
        sn, cn, dn = jacobi_sn_cn_dn(u, 0.0)
        assert sn == pytest.approx(math.sin(u), abs=1e-15)
        assert cn == pytest.approx(math.cos(u), abs=1e-15)
        assert dn == 1.0
        sn, cn, dn = jacobi_sn_cn_dn(u, 1.0)
        assert sn == pytest.approx(math.tanh(u), abs=1e-15)
        assert cn == pytest.approx(1.0 / math.cosh(u), abs=1e-15)
        assert dn == pytest.approx(1.0 / math.cosh(u), abs=1e-15)


@pytest.mark.parametrize("m", [-1.0, 0.0, 0.3, 0.7, 0.99, 1.0])
def test_jacobi_identities(m):
    for i in range(201):
        u = -10.0 + 0.1 * i
        sn, cn, dn = jacobi_sn_cn_dn(u, m)
        assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
        assert abs(dn * dn + m * sn * sn - 1.0) <= 1e-12


@given(st.floats(min_value=-10.0, max_value=10.0),
       st.floats(min_value=-2.0, max_value=4.0))
@settings(max_examples=300)
def test_jacobi_identities_any_parameter(u, m):
    sn, cn, dn = jacobi_sn_cn_dn(u, m)
    assert abs(sn * sn + cn * cn - 1.0) <= 1e-12
    assert abs(dn * dn + m * sn * sn - 1.0) <= 1e-12


def test_am_roundtrip():
    # includes the superunitary parameters restricted to their real domain
    for m in (-1.0, 0.0, 0.5, 0.99, 2.0, 4.0):
        cap = math.asin(1.0 / math.sqrt(m)) if m > 1.0 else math.pi / 2.0
        for i in range(1, 30):
            phi = -cap + 2.0 * cap * i / 30.0
            assert abs(jacobi_am(ellint_f(phi, m), m) - phi) <= 1e-10
    # spec-level spot check via the forward map
    assert jacobi_am(ellint_f(0.4, 0.7), 0.7) == pytest.approx(0.4, abs=1e-12)
    assert jacobi_am(0.0, 0.77) == 0.0
    assert jacobi_am(1.234, 0.0) == 1.234


def test_am_unwrapped():
    m = 0.7
    k = ellint_k(m)
    for u in (-3.0, 0.4, 2.2):
        a0 = jacobi_am(u, m)
        a1 = jacobi_am(u + 2.0 * k, m)
        assert a1 - a0 == pytest.approx(math.pi, abs=1e-11)
    # consistent with sn/cn through sin/cos
    for u in (5.0, -9.0, 13.0):
        a = jacobi_am(u, m)
        sn, cn, _ = jacobi_sn_cn_dn(u, m)
        assert math.sin(a) == pytest.approx(sn, abs=1e-12)
        assert math.cos(a) == pytest.approx(cn, abs=1e-12)


def test_am_superunitary_bounded():
    m = 2.0
    cap = math.asin(1.0 / math.sqrt(m))
    vals = [jacobi_am(-20.0 + 0.25 * i, m) for i in range(161)]
    assert max(abs(v) for v in vals) <= cap + 1e-12

