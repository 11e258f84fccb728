import math
import random

import mpmath as mp
import pytest

from expwave.errors import DomainError, PoleProximityError
from expwave.specfun import (
    WeierstrassInvariants,
    prepare_weierstrass,
    solve_weierstrass_cubic,
    weierstrass_p,
)
from expwave.singular import Singularities
from expwave.verify import Grid, VerificationReport
from test_specfun_mpmath import _relative_error, _weierstrass_reference

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
        p, pp = prep.eval(z), prep.slope(z)
        res = abs(pp * pp - (4.0 * p ** 3 - inv.g2 * p - inv.g3))
        residuals.append(res / max(1.0, abs(p) ** 3))
    rms = math.sqrt(math.fsum(r * r for r in residuals) / len(residuals))
    return VerificationReport("weierstrass_ode_residual", max(residuals), rms,
                              len(residuals), tol)


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


def test_invariants_past_the_float_range_are_refused():
    # 27 g3^2 overflows to inf without raising, which once read delta as
    # -inf and the invariants as degenerate: solve returned three real
    # roots (1.44e51 and -7.2e50 twice) at (1, 3e153), where the cubic has
    # one.  They are refused as an overflowing g2^3 is
    for g2, g3 in ((1.0, 3e153), (1.0, -3e153), (1e103, 1.0)):
        with pytest.raises(OverflowError):
            WeierstrassInvariants(g2, g3)
        with pytest.raises(OverflowError):
            solve_weierstrass_cubic(g2, g3)


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


def test_one_discriminant_forms_the_complex_pair(monkeypatch):
    # the solver forms every complex pair from the one exact discriminant it
    # holds, and prepare_weierstrass takes the roots as they come: one
    # _discriminant call per prepared function, of either sign of e1
    import expwave.specfun.weierstrass as weierstrass

    calls = []
    exact = weierstrass._discriminant

    def counting(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(weierstrass, "_discriminant", counting)
    for g2, g3 in ((1.0, 1.0), (1.0, -1.0), (0.0, 1.0), (-2.0, 0.0)):
        calls.clear()
        assert prepare_weierstrass(WeierstrassInvariants(g2, g3)).kind == "cn"
        assert calls == [(g2, g3)], (g2, g3)


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
    # at m = 1 sn is tanh, which reads +-1 long before cosh overflows, and
    # cn = dn = sech reads 0, so p reads e and p' 0 on both sides of the
    # overflow point sqrt(3) |z| ~ 710.5
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


def test_ode_residual_random():
    for inv in nondegenerate_samples(100):
        grid = weierstrass_grid(inv, 0.05, 10.0, n=64)
        report = weierstrass_ode_residual(inv, grid)
        assert report.passed, (inv.g2, inv.g3, report.max_residual)


def test_zero_g3_with_underflowed_discriminant_is_rational():
    # g2^3 underflows, but the exact discriminant g2^3 keeps its sign: the
    # invariants are not degenerate, and only g2 = g3 = 0 is p = 1/z^2.
    # g2 > 0 has the three roots 0 and +-sqrt(g2)/2, g2 < 0 the one root 0
    # and the pair +-i sqrt(-g2)/2, which the solver finds at a power-of-two
    # rescale, as sqrt(Delta) itself underflows.  Their real periods are
    # 3.7e30 to 5.2e75, so z = 2 lies inside the pole radius (1e-3 of the
    # period): p and p' are checked at fractions of the period instead,
    # against mpmath's p(z; g2, g3) = t^2 p(t z; g2/t^4, g3/t^6), t^4 = |g2|
    # (its root finder needs roots near 1), within 8 eps (1 + kappa)
    eps = 2.0 ** -52
    for g2, kind in ((1e-300, "sn"), (-1e-300, "cn"), (1e-120, "sn")):
        for g3 in (0.0, -0.0):
            inv = WeierstrassInvariants(g2, g3)
            assert not inv.is_degenerate
            prep = prepare_weierstrass(inv)
            assert prep.kind == kind
            with mp.workdps(40):
                t = mp.mpf(abs(g2)) ** 0.25
                base = _weierstrass_reference(g2 / t ** 4, g3 / t ** 6)
                for f in (0.1, 0.3):
                    z = f * prep.real_period
                    p = t * t * base(t * z)
                    dp = t ** 3 * mp.diff(base, t * z)
                    ddp = 6 * p * p - mp.mpf(g2) / 2
                    kappa_p = float(abs(z * dp / p))
                    kappa_dp = float(abs(z * ddp / dp))
                    assert (_relative_error(prep.eval(z), p)
                            <= 8 * eps * (1 + kappa_p)), (g2, g3, f)
                    assert (_relative_error(prep.slope(z), dp)
                            <= 8 * eps * (1 + kappa_dp)), (g2, g3, f)
    assert prepare_weierstrass(WeierstrassInvariants(0.0, -0.0)).kind == \
        "rational"
    assert weierstrass_p(2.0, WeierstrassInvariants(0.0, 0.0)) == (0.25, -0.25)
    # g2^3 still normal: the Jacobi reduction runs
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


# (g2, g3, kind of the prepared evaluator): one pair per kind, and the
# double roots 1/2 and -1/2, which take the sn kind at m = 1 and m = 0
KIND_INVARIANTS = {
    "rational": (0.0, 0.0, "rational"),
    "hyperbolic": (3.0, -1.0, "sn"),
    "trigonometric": (3.0, 1.0, "sn"),
    "sn": (4.0, 1.0, "sn"),
    "cn": (1.0, 1.0, "cn"),
}


@pytest.mark.parametrize("name", sorted(KIND_INVARIANTS))
def test_weierstrass_p_is_eval_and_slope(name):
    g2, g3, kind = KIND_INVARIANTS[name]
    inv = WeierstrassInvariants(g2, g3)
    prep = prepare_weierstrass(inv)
    assert prep.kind == kind
    for z in (0.1, -0.37, 0.9, -1.7, 2.3, 5.1):
        value, slope = weierstrass_p(z, inv)
        assert (value.hex(), slope.hex()) == (prep.eval(z).hex(),
                                              prep.slope(z).hex()), z


@pytest.mark.parametrize("name", sorted(KIND_INVARIANTS))
def test_slope_refuses_a_pole_like_eval(name):
    g2, g3, _ = KIND_INVARIANTS[name]
    prep = prepare_weierstrass(WeierstrassInvariants(g2, g3))
    period = prep.real_period if prep.periodic else 0.0
    for z in (0.5 * prep.eps_pole, period - 0.25 * prep.eps_pole):
        errors = []
        for method in (prep.eval, prep.slope):
            with pytest.raises(PoleProximityError) as err:
                method(z)
            errors.append((str(err.value), err.value.distance,
                           err.value.limit))
        assert errors[0] == errors[1], z
