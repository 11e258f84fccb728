import dataclasses
import math

import pytest
from scipy.integrate import quad

from expwave.errors import (
    EmptyGridError,
    StepSizeUnderflowError,
)
from expwave.reduction import (
    C1_LEMNISCATIC,
    CaseLabel,
    EquationParams,
    FamilyLabel,
    FrameParams,
    conserved_c1,
    family_params,
    first_integral,
    traveling_ode,
)
from expwave.singular import Singularities
from expwave.solutions import (
    Solution,
    construct,
    dodd_bullough,
    implicit_relation,
    liouville,
    sine_gordon,
    sinh_gordon,
    tzitzeica,
)
from expwave.verify import (
    FD_BASE_STEP,
    Grid,
    first_integral_residual,
    implicit_residual_check,
    ode_residual,
    pde_residual,
    rk_integrate,
    shoot_and_compare,
)

FR1 = FrameParams.from_lambda_gamma(1.0)
FRN = FrameParams.from_lambda_gamma(-1.0)


def test_grid_basics():
    with pytest.raises(ValueError):
        Grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Grid(1.0, 0.0, 32)
    g = Grid(0.0, 1.0, 101, Singularities.isolated(0.5), 0.2)
    pts = g.points()
    assert all(abs(p - 0.5) > 0.2 for p in pts)
    assert pts == sorted(pts)
    assert Grid(0.0, 1.0, 2).points() == [0.0, 1.0]
    g = Grid(0.0, 1.0, 32, Singularities.isolated(0.5), 2.0)
    sol = liouville(1.0, FR1)
    with pytest.raises(EmptyGridError):
        ode_residual(sol, FR1, g)


def test_ode_oracle_constant_fixed_point():
    # h == 1 is the stationary point of the cubic family's source
    fake = Solution(
        family=FamilyLabel.Tzitzeica, case=CaseLabel.GeneralWeierstrass,
        branch=1, c1=0.0, frame=FR1, psi_native=False,
        singularities=Singularities.none(),
        _fn=lambda xi: 1.0,
    )
    rep = ode_residual(fake, FR1, Grid(-5.0, 5.0, 64))
    assert rep.passed and rep.max_residual <= 1e-12


def test_ode_oracle_rational():
    sol = liouville(0.0, FrameParams.from_lambda_gamma(0.5))
    rep = ode_residual(sol, sol.frame, Grid(1.0, 5.0, 200))
    assert rep.passed
    assert rep.max_residual <= 1e-8


def test_first_integral_oracle():
    # circular-family kink satisfies (psi')^2 = (2/lg)(1 - cos psi)
    kink = sine_gordon(1.0, FR1)
    rep = first_integral_residual(kink, FR1, 1.0, Grid(-8.0, 8.0, 400))
    assert rep.passed
    # hyperbolic-family bounded amplitude satisfies its cosh form
    amp = sinh_gordon(-1.0, FRN)
    rep = first_integral_residual(amp, FRN, -1.0, Grid(-8.0, 8.0, 400))
    assert rep.passed
    sol = liouville(1.0, FR1)
    rep = first_integral_residual(sol, FR1, 1.0, Grid(-8.0, 8.0, 400))
    assert rep.passed
    # cubic-family elliptic form (h')^2 = 2 r h^3 + p h^2 + r along the
    # general solution
    gw = tzitzeica(1.0, FR1)
    grid = Grid.for_solution(gw, -8.0, 8.0, 400)
    rep = first_integral_residual(gw, FR1, 1.0, grid)
    assert rep.passed


def test_grid_jets_keyed_by_solution_and_step():
    # one grid reused with a second solution and a second step reports
    # what a fresh grid reports: the table it keeps is never stale
    grid = Grid(-5.0, 5.0, 64)
    dark = (tzitzeica(-1.5, FR1), -1.5)
    kink = (sine_gordon(1.0, FR1), 1.0)
    for (sol, c1), step in ((dark, FD_BASE_STEP), (kink, FD_BASE_STEP),
                            (kink, 0.02), (dark, 0.02), (dark, FD_BASE_STEP)):
        assert ode_residual(sol, FR1, grid, fd_step=step) == ode_residual(
            sol, FR1, Grid(-5.0, 5.0, 64), fd_step=step)
        # the step differs from the kept table's after fd_step=0.02
        assert first_integral_residual(sol, FR1, c1, grid) == \
            first_integral_residual(sol, FR1, c1, Grid(-5.0, 5.0, 64))
    # the kept table takes no part in equality or hashing
    assert grid == Grid(-5.0, 5.0, 64)
    assert hash(grid) == hash(Grid(-5.0, 5.0, 64))


def test_ode_and_first_integral_share_one_stencil_pass():
    # 5 evaluations per kept point for both oracles together, not 10
    sol = tzitzeica(-1.5, FR1, branch=-1)
    calls = []

    def counted(xi):
        calls.append(xi)
        return sol._fn(xi)

    counted_sol = dataclasses.replace(sol, _fn=counted)
    grid = Grid.for_solution(sol, -5.0, 5.0, 101)  # xi = 0 is a pole
    rep = ode_residual(counted_sol, FR1, grid)
    assert 0 < rep.points_used < 101
    first_integral_residual(counted_sol, FR1, -1.5, grid)
    assert len(calls) == 5 * rep.points_used


def test_report_fields():
    sol = tzitzeica(-1.5, FR1)
    g = Grid(-5.0, 5.0, 100)
    rep = ode_residual(sol, FR1, g)
    assert rep.points_used == 100
    assert rep.rms_residual <= rep.max_residual
    assert rep.passed == (rep.max_residual <= rep.tolerance)
    # deterministic reduction
    rep2 = ode_residual(sol, FR1, g)
    assert rep.max_residual == rep2.max_residual
    assert rep.rms_residual == rep2.rms_residual
    blob = rep.to_json()
    assert blob["pass"] is True and blob["oracle"] == "ode_residual"


def test_fd_monotonicity():
    # in the truncation regime halving the stencil step cuts the residual
    # by at least a factor 3 (fourth-order differences after one level of
    # Richardson extrapolation)
    sol = tzitzeica(-1.5, FR1)
    g = Grid(-8.0, 8.0, 200)
    coarse = ode_residual(sol, FR1, g, fd_step=0.08)
    fine = ode_residual(sol, FR1, g, fd_step=0.04)
    assert coarse.max_residual / fine.max_residual >= 3.0


def test_shoot_oracle():
    dark = tzitzeica(-1.5, FR1)
    q = first_integral(family_params(FamilyLabel.Tzitzeica), FR1, -1.5)
    rep = shoot_and_compare(q, dark, 0.0, 5.0)
    assert rep.passed and rep.max_residual <= 1e-6
    amp = sine_gordon(3.0, FR1)
    qa = first_integral(EquationParams.sine_gordon(), FR1, 3.0)
    rep = shoot_and_compare(qa, amp, 0.0, 5.0)
    assert rep.passed
    # shooting integrates the first integral only, never the raw
    # second-order form (singular at h = 0)
    sing = tzitzeica(-1.5, FR1, branch=-1)
    ode = traveling_ode(family_params(FamilyLabel.Tzitzeica), FR1)
    with pytest.raises(TypeError):
        shoot_and_compare(ode, sing, 1.0, 3.0)


def test_shoot_blowup_underflow():
    # downhill from the turning point the generic trajectory blows up in
    # finite xi; the integrator reports the span it reached
    gen = EquationParams(1.0, 1.0, 2.0, -1.0)
    q = first_integral(gen, FR1, 1.0)
    from expwave.verify import _second_order_rhs
    f = _second_order_rhs(q, False)
    d0 = math.sqrt(2.0 * FR1.r * q.g(1.0))
    with pytest.raises(StepSizeUnderflowError) as err:
        rk_integrate(f, 0.0, [1.0, d0], 10.0, sample_times=[10.0])
    assert 0.0 < err.value.span_reached < 2.0


def test_rk_sample_time_at_start():
    # a sample time at t0 returns the initial state untouched, in order
    def f(t, y):
        return [y[1], -y[0]]

    path = rk_integrate(f, 0.0, [1.0, 0.0], 1.0, sample_times=[1.0, 0.0])
    assert path[0] == (0.0, [1.0, 0.0])
    assert path[1][0] == 1.0
    assert path[1][1][0] == pytest.approx(math.cos(1.0), abs=1e-9)
    back = rk_integrate(f, 1.0, [2.0, 3.0], 0.0, sample_times=[1.0])
    assert back == [(1.0, [2.0, 3.0])]


@pytest.mark.parametrize("branch", [1, -1])
def test_half_line_grid_pads_by_pad(branch):
    # the exp kink is valid on one side of its boundary point; the grid
    # keeps a point 1.5 pad inside that side (the padding is pad, not 2 pad)
    sol = sinh_gordon(-0.5, FR1, branch=branch)
    sing = sol.singularities
    assert sing.kind == "half_line"
    pad = sing.default_pad()
    x = sing.points[0] + 1.5 * pad * sing.valid_side
    pts = Grid.for_solution(sol, x - 1.0, x + 1.0, 17).points()
    assert len(pts) == 9  # x and the eight points beyond it
    assert any(abs(p - x) < 1e-12 for p in pts)


def test_conservation_drift():
    from expwave.verify import _second_order_rhs
    # generic two-exponential trajectory: constant recovered from the
    # trajectory drifts below 1e-8 over a regular span
    gen = EquationParams(1.0, 1.0, 2.0, -1.0)
    q = first_integral(gen, FR1, 1.0)
    f = _second_order_rhs(q, False)
    d0 = -math.sqrt(2.0 * FR1.r * q.g(1.0))
    path = rk_integrate(f, 0.0, [1.0, d0], 1.5, rtol=1e-12, atol=1e-12,
                        sample_times=[0.075 * i for i in range(1, 21)])
    drift = max(abs(conserved_c1(gen, FR1, y[0], y[1]) - 1.0) for _, y in path)
    assert drift <= 1e-8
    # nonsingular span-10 drift: companion trajectory started from an exact
    # algebraic state (h stays above 1, no zero crossing)
    params = family_params(FamilyLabel.Tzitzeica)
    qs = first_integral(params, FR1, -1.5)
    fs = _second_order_rhs(qs, False)
    h0 = 3.0
    d0 = -math.sqrt(2.0 * FR1.r * h0 * h0 * qs.g(h0))
    path = rk_integrate(fs, 0.0, [h0, d0], 10.0, rtol=1e-12, atol=1e-12,
                        sample_times=[0.5 * i for i in range(1, 21)])
    drift = max(abs(conserved_c1(params, FR1, y[0], y[1]) + 1.5)
                for _, y in path)
    assert drift <= 1e-8


K1_W2 = FrameParams(lam=1.0 / 3.0, k=1.0, omega=2.0)
# |lambda gamma| = 0.5 at omega = 2.5: the worst corner of the benchmark's
# verify-mix jitter for the general Weierstrass cases
K1_W25 = FrameParams(lam=0.5 / 5.25, k=1.0, omega=2.5)
# lambda gamma = -1: the Liouville c1 = -1 pulse (h-native) and the
# sine-Gordon c1 = 0 amplitude (psi-native) on one frame
K1_W2_NEG = FrameParams(lam=-1.0 / 3.0, k=1.0, omega=2.0)


@pytest.mark.parametrize("family, c1, frame", [
    (FamilyLabel.SineGordon, 1.0, K1_W2),
    (FamilyLabel.Tzitzeica, 1.0, K1_W2),
    (FamilyLabel.SinhGordon, 0.0, K1_W2),
    (FamilyLabel.Tzitzeica, 0.7, K1_W25),
    (FamilyLabel.DoddBulloughMikhailov, 1.3, K1_W25),
    (FamilyLabel.SineGordon, 1.0, FR1),
    (FamilyLabel.Tzitzeica, 1.0, FR1),
    (FamilyLabel.Liouville, -1.0, K1_W2_NEG),
    (FamilyLabel.SineGordon, 0.0, K1_W2_NEG),
], ids=["sine-kink", "tzitzeica-weierstrass", "sinh-c1-zero",
        "tzitzeica-corner", "dbm-corner", "sine-kink-k0", "tzitzeica-k0",
        "liouville-pulse-h", "sine-amplitude-psi"])
def test_pde_oracle(family, c1, frame):
    # the grid verify runs, at the default tolerance
    rep = pde_residual(construct(family, c1, frame), frame, nz=56, nt=56)
    assert rep.passed, rep.max_residual


@pytest.mark.parametrize("family, c1, frame", [
    (FamilyLabel.SineGordon, 1.0, FR1),
    (FamilyLabel.Tzitzeica, 1.0, FR1),
    (FamilyLabel.SineGordon, 1.0, K1_W2),
    (FamilyLabel.Tzitzeica, 1.0, K1_W2),
], ids=["sine-kink-k0", "tzitzeica-weierstrass-k0", "sine-kink-k1",
        "tzitzeica-weierstrass-k1"])
def test_pde_oracle_evaluates_nine_per_distinct_xi(family, c1, frame):
    # the residual depends on (z, t) only through xi = k z - omega t; each
    # distinct kept xi costs one z stencil (5 evaluations) and one t
    # stencil that reuses its centre (4 more).  On a k = 0 frame the 56 z
    # rows share one t column; on k != 0 nearly every xi is distinct.
    sol = construct(family, c1, frame)
    calls = []

    def counted(xi):
        calls.append(xi)
        return sol._fn(xi)

    rep = pde_residual(dataclasses.replace(sol, _fn=counted), frame,
                       nz=56, nt=56)
    assert rep == pde_residual(sol, frame, nz=56, nt=56)
    sing = sol.singularities
    xis = [frame.k * (-5.0 + 10.0 * i / 55) - frame.omega * (2.0 * j / 55)
           for i in range(56) for j in range(56)]
    kept = [xi for xi in xis if sing.keeps(xi, sing.default_pad())]
    assert kept
    assert rep.points_used == len(kept)
    assert len(calls) == 9 * len(set(kept))
    if frame.k == 0.0:
        assert len(kept) == 56 * len(set(kept))


def test_implicit_checks_pass():
    # zero-constant solutions against their hypergeometric forms
    eq = tzitzeica(0.0, FR1)
    rel = implicit_relation(FamilyLabel.Tzitzeica, FR1)
    period = eq.params["period"]
    grid = Grid(period * 0.55, period * 0.72, 64)
    rep = implicit_residual_check(rel, eq, grid)
    assert rep.passed and rep.max_residual <= 1e-8
    dbe = dodd_bullough(0.0, FRN)
    rel = implicit_relation(FamilyLabel.DoddBullough, FRN)
    period = dbe.params["period"]
    grid = Grid(period * 0.55, period * 0.72, 64)
    rep = implicit_residual_check(rel, dbe, grid)
    assert rep.passed
    sh = sinh_gordon(0.0, FR1)
    rel = implicit_relation(FamilyLabel.SinhGordon, FR1)
    rep = implicit_residual_check(rel, sh, Grid(0.1, 0.9, 64))
    assert rep.passed
    # the mirrored branch is aligned automatically on its own window
    sh2 = sinh_gordon(0.0, FR1, branch=-1)
    rep = implicit_residual_check(rel, sh2, Grid(-0.9, -0.1, 64))
    assert rep.passed


def test_implicit_domain_error():
    from expwave.errors import DomainError
    eq = tzitzeica(0.0, FR1)
    rel = implicit_relation(FamilyLabel.Tzitzeica, FR1)
    period = eq.params["period"]
    # near the pole |2 h^3| >> 1
    with pytest.raises(DomainError):
        implicit_residual_check(rel, eq, Grid(period * 0.02, period * 0.1, 32))


def test_sine_amplitude_quadrature_oracle():
    # invert the psi-quadrature with adaptive integration along the
    # amplitude solution
    sol = sine_gordon(3.0, FR1)
    q = first_integral(EquationParams.sine_gordon(), FR1, 3.0)
    for x1, x2 in [(0.1, 1.4), (-0.9, 0.3)]:
        p1, p2 = sol.evaluate_psi(x1), sol.evaluate_psi(x2)
        val, _ = quad(lambda p: 1.0 / math.sqrt(2.0 * FR1.r * q.g_psi(p)),
                      p1, p2, epsabs=1e-13, epsrel=1e-12)
        assert abs(val) == pytest.approx(x2 - x1, abs=1e-10)


def test_shoot_window_respects_half_line():
    sol = sinh_gordon(-0.5, FR1)
    q = first_integral(family_params(FamilyLabel.SinhGordon), FR1, -0.5)
    rep = shoot_and_compare(q, sol, -1.0, -5.0)
    assert rep.passed
