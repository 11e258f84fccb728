import math
import random

import pytest

from expwave.errors import DomainError, PoleProximityError
from expwave.specfun import (
    WeierstrassInvariants,
    prepare_weierstrass,
    solve_weierstrass_cubic,
    weierstrass_p,
)
from expwave.singular import Singularities
from expwave.verify import Grid, VerificationReport, _report

#: the p-equation residual bound of the two helpers below
WP_TOL = 1.0e-10


def weierstrass_grid(inv: WeierstrassInvariants, z_min: float, z_max: float,
                     n: int = 128) -> Grid:
    """Grid over [z_min, z_max] excluding the pole lattice of p (an isolated
    pole when the real period is infinite), padded by the singular set's
    default pad or by 10 pole-expansion radii, whichever is larger."""
    prep = prepare_weierstrass(inv)
    period = prep.real_period
    sing = (Singularities.lattice(0.0, period) if math.isfinite(period)
            else Singularities.isolated(0.0))
    pad = max(sing.default_pad(), 10.0 * prep.eps_pole)
    return Grid(z_min, z_max, n, sing, pad)


def weierstrass_ode_residual(inv: WeierstrassInvariants, grid: Grid,
                             tol: float = WP_TOL) -> VerificationReport:
    """max |p'^2 - (4 p^3 - g2 p - g3)| / max(1, |p|^3) over the grid."""
    prep = prepare_weierstrass(inv)
    residuals = []
    for z in grid.points():
        p, pp = prep.eval(z)
        res = abs(pp * pp - (4.0 * p ** 3 - inv.g2 * p - inv.g3))
        residuals.append(res / max(1.0, abs(p) ** 3))
    return _report("weierstrass_ode_residual", residuals, tol)


def nondegenerate_samples(n, seed=20_08):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        g2 = rng.uniform(-3.0, 3.0)
        g3 = rng.uniform(-3.0, 3.0)
        inv = WeierstrassInvariants(g2, g3)
        if abs(inv.delta) >= 0.1 * max(abs(g2) ** 3, 27.0 * g3 * g3, 1e-6):
            out.append(inv)
    return out


def test_invariants_delta_consistency():
    inv = WeierstrassInvariants(12.0, -8.0)
    assert inv.delta == 0.0
    assert inv.is_degenerate
    inv = WeierstrassInvariants(1.0, 1.0)
    assert inv.delta == pytest.approx(-26.0, abs=1e-13)
    assert not inv.is_degenerate


def test_cubic_roots_identities():
    for inv in nondegenerate_samples(60):
        roots = solve_weierstrass_cubic(inv.g2, inv.g3)
        if roots.all_real:
            e1, e2, e3 = roots.real
            assert e1 >= e2 >= e3
            assert e1 + e2 + e3 == pytest.approx(0.0, abs=1e-12)
            assert e1 * e2 + e1 * e3 + e2 * e3 == pytest.approx(
                -inv.g2 / 4.0, abs=1e-12)
            assert e1 * e2 * e3 == pytest.approx(inv.g3 / 4.0, abs=1e-12)
            for e in roots.real:
                assert abs(4.0 * e ** 3 - inv.g2 * e - inv.g3) <= 1e-12 * max(
                    1.0, abs(e) ** 3)
        else:
            (er,) = roots.real
            re, im = roots.complex_pair
            assert abs(4.0 * er ** 3 - inv.g2 * er - inv.g3) <= 1e-12 * max(
                1.0, abs(er) ** 3)
            assert er + 2.0 * re == pytest.approx(0.0, abs=1e-12)
            # |pair|^2 * real root = product of roots = g3/4
            assert er * (re * re + im * im) == pytest.approx(
                inv.g3 / 4.0, abs=1e-12)
    # repeated-root cases come out exact
    assert solve_weierstrass_cubic(12.0, -8.0).real == (1.0, 1.0, -2.0)
    assert solve_weierstrass_cubic(12.0, 8.0).real == (2.0, -1.0, -1.0)
    assert solve_weierstrass_cubic(0.0, 0.0).real == (0.0, 0.0, 0.0)


def test_laurent_leading():
    inv = WeierstrassInvariants(5.0, 1.0)
    for z in (0.005, 0.01, 0.02):
        p, _ = weierstrass_p(z, inv)
        assert abs(p * z * z - 1.0) <= inv.g2 * z ** 4


def test_degenerate_hyperbolic_closed_form():
    # repeated positive double root with e = 1: invariants (12, -8);
    # hyperbolic oracle evaluated independently
    inv = WeierstrassInvariants(12.0, -8.0)
    for z in (0.25, 1.0, 2.0, 3.5):
        ref = 1.0 + 3.0 / math.sinh(math.sqrt(3.0) * z) ** 2
        p, pp = weierstrass_p(z, inv)
        assert p == pytest.approx(ref, rel=1e-13)
    # value at z = 1 frozen from the oracle
    p, _ = weierstrass_p(1.0, inv)
    assert p == pytest.approx(1.0 + 3.0 / math.sinh(math.sqrt(3.0)) ** 2,
                              rel=1e-14)


def test_degenerate_hyperbolic_limit_past_sinh_overflow():
    # csch^2 underflows long before sinh overflows, so p reads e on both
    # sides of the overflow point sqrt(3) |z| ~ 710.5
    inv = WeierstrassInvariants(12.0, -8.0)
    for z in (400.0, 410.0, -410.0, 1e6, -1e300):
        p, pp = weierstrass_p(z, inv)
        assert p == 1.0 and pp == 0.0, z


def test_degenerate_trigonometric_closed_form():
    inv = WeierstrassInvariants(12.0, 8.0)
    for z in (0.25, 0.8, 1.5):
        ref = -1.0 + 3.0 / math.sin(math.sqrt(3.0) * z) ** 2
        p, _ = weierstrass_p(z, inv)
        assert p == pytest.approx(ref, rel=1e-13)


def test_general_path_matches_closed_forms():
    # the root-based Jacobi reduction, forced through the degenerate
    # invariants, must agree with the elementary closed forms to 1e-9
    for g2, g3 in [(12.0, -8.0), (12.0, 8.0), (3.0, -1.0), (3.0, 1.0)]:
        inv = WeierstrassInvariants(g2, g3)
        if not inv.is_degenerate:
            continue
        gen = prepare_weierstrass(inv, force_general=True)
        clo = prepare_weierstrass(inv)
        assert gen.kind == "sn" and clo.kind in ("hyperbolic", "trigonometric")
        for z in (0.2, 0.6, 1.1, 1.9):
            pg, ppg = gen.eval(z)
            pc, ppc = clo.eval(z)
            assert pg == pytest.approx(pc, rel=1e-9, abs=1e-9)
            assert ppg == pytest.approx(ppc, rel=1e-9, abs=1e-9)


def test_ode_residual_random():
    for inv in nondegenerate_samples(100):
        grid = weierstrass_grid(inv, 0.05, 10.0, n=64)
        report = weierstrass_ode_residual(inv, grid)
        assert report.passed, (inv.g2, inv.g3, report.max_residual)


def test_zero_g3_with_underflowed_discriminant_is_rational():
    # g2^3 underflows to 0, so the invariants snap to degenerate with
    # g3 = +-0 and a double root e = 0 that no scale can be taken from;
    # p is 1/z^2 + g2 z^2/20 + ..., which is 1/z^2 to rounding
    for g2 in (1e-300, -1e-300, 1e-120):
        for g3 in (0.0, -0.0):
            inv = WeierstrassInvariants(g2, g3)
            assert prepare_weierstrass(inv).kind == "rational"
            assert weierstrass_p(2.0, inv) == (0.25, -0.25)
    # g2^3 still normal: not degenerate, the Jacobi reduction runs
    assert prepare_weierstrass(WeierstrassInvariants(1e-100, 0.0)).kind == "sn"


def test_pole_proximity_error():
    inv = WeierstrassInvariants(1.0, 0.5)
    prep = prepare_weierstrass(inv)
    with pytest.raises(PoleProximityError) as err:
        prep.eval(1e-9)
    assert err.value.distance == pytest.approx(1e-9)
    assert err.value.limit > 0.0
    # periodic lattice: near a nonzero pole too
    period = prep.real_period
    assert math.isfinite(period)
    with pytest.raises(PoleProximityError):
        prep.eval(period * 2.0 + 1e-9)
    with pytest.raises(DomainError):
        weierstrass_p(math.inf, inv)
