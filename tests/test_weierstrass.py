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
from expwave.verify import weierstrass_grid, weierstrass_ode_residual


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
