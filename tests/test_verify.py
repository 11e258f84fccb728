import contextlib
import dataclasses
import io
import math

import pytest
from scipy.integrate import quad

from expwave import cli
from expwave.cli import _shoot_window
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
    _CK_A,
    _CK_B4,
    _CK_B5,
    _GL8,
    PDE_WINDOWS,
    Grid,
    _acceleration,
    _ode_point_residual,
    _stencil,
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


def test_grid_measures_each_point_once(monkeypatch):
    # points() hands out a fresh list of the kept points
    g = Grid(0.0, 1.0, 101, Singularities.isolated(0.5), 0.2)
    pts = g.points()
    pts[0] = 7.0
    pts.pop()
    assert g.points() == Grid(0.0, 1.0, 101, Singularities.isolated(0.5),
                              0.2).points()
    # a grid without the solution's singular set measures the solution's
    # distances itself, so its steps are those of a grid built on the set
    sol = tzitzeica(1.0, FR1)
    assert Grid(-5.0, 5.0, 64).jets(sol) == \
        Grid(-5.0, 5.0, 64, sol.singularities).jets(sol)
    # one verify on a lattice solution measures each grid point once
    calls = []
    clearance = Singularities.clearance

    def counting(self, xi):
        calls.append(xi)
        return clearance(self, xi)

    monkeypatch.setattr(Singularities, "clearance", counting)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--family", "tzitzeica", "--c1", "1.0",
                         "--lambda-gamma", "1", "--n", "64"])
    assert code == 0
    assert len(calls) == len(set(calls)) == 64


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


def test_grid_jets_keyed_by_solution():
    # one grid reused with a second solution reports what a fresh grid
    # reports: the table it keeps is never stale
    grid = Grid(-5.0, 5.0, 64)
    dark = (tzitzeica(-1.5, FR1), -1.5)
    kink = (sine_gordon(1.0, FR1), 1.0)
    for sol, c1 in (dark, kink, kink, dark):
        assert ode_residual(sol, FR1, grid) == ode_residual(
            sol, FR1, Grid(-5.0, 5.0, 64))
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
    desc = traveling_ode(family_params(FamilyLabel.Tzitzeica), FR1)
    xs = Grid(-8.0, 8.0, 200).points()

    def worst(step):
        return max(_ode_point_residual(desc, False,
                                       *_stencil(sol.evaluate_h, x, step))
                   for x in xs)

    assert worst(0.08) / worst(0.04) >= 3.0


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
    d0 = math.sqrt(2.0 * FR1.r * q.g(1.0))
    with pytest.raises(StepSizeUnderflowError) as err:
        rk_integrate(_acceleration(q, False), 0.0, [1.0, d0], 10.0,
                     sample_times=[10.0])
    assert 0.0 < err.value.span_reached < 2.0


def test_rk_sample_time_at_start():
    # a sample time at t0 returns the initial state untouched, in order
    def f(y):
        return -y

    path = rk_integrate(f, 0.0, [1.0, 0.0], 1.0, sample_times=[1.0, 0.0])
    assert path[0] == (0.0, [1.0, 0.0])
    assert path[1][0] == 1.0
    assert path[1][1][0] == pytest.approx(math.cos(1.0), abs=1e-9)
    back = rk_integrate(f, 1.0, [2.0, 3.0], 0.0, sample_times=[1.0])
    assert back == [(1.0, [2.0, 3.0])]


@pytest.mark.parametrize("t_end, times", [
    (1.0, [0.5, 3.0]), (1.0, [-0.5]), (-1.0, [-0.5, -3.0]), (-1.0, [0.5])])
def test_rk_rejects_sample_times_outside_the_span(t_end, times):
    # on either side of [t0, t_end], in either direction
    with pytest.raises(ValueError, match="between t0 and t_end"):
        rk_integrate(lambda y: -y, 0.0, [1.0, 0.0], t_end, sample_times=times)
    # within the 1e-12 allowance a time just past t_end is accepted
    path = rk_integrate(lambda y: -y, 0.0, [1.0, 0.0], t_end,
                        sample_times=[t_end * (1.0 + 1e-13)])
    assert len(path) == 1


def _reference_rk_step(f, y, h):
    # the generic Cash-Karp step on a list state, f(y) -> y'
    k = []
    for i in range(6):
        yi = list(y)
        for j, a in enumerate(_CK_A[i]):
            for c in range(len(y)):
                yi[c] += h * a * k[j][c]
        k.append(f(yi))
    y5 = [y[c] + h * sum(_CK_B5[i] * k[i][c] for i in range(6))
          for c in range(len(y))]
    err = [h * sum((_CK_B5[i] - _CK_B4[i]) * k[i][c] for i in range(6))
           for c in range(len(y))]
    return y5, err


def _reference_rk_integrate(acc, t0, y0, t_end, rtol=1.0e-10, atol=1.0e-10,
                            sample_times=None):
    # the generic driver around _reference_rk_step, for y' = (y[1], acc(y[0]))
    def f(y):
        return [y[1], acc(y[0])]

    direction = 1.0 if t_end >= t0 else -1.0
    targets = (sorted(sample_times, reverse=direction < 0.0)
               if sample_times else [t_end])
    out = []
    t, y = t0, list(y0)
    h = direction * min(1e-2, abs(t_end - t0) / 10.0 + 1e-12)
    for target in targets:
        while (target - t) * direction > 1e-14 * max(1.0, abs(target)):
            if abs(h) > abs(target - t):
                h = target - t
            y_new, err = _reference_rk_step(f, y, h)
            scale = [atol + rtol * max(abs(y[c]), abs(y_new[c]))
                     for c in range(len(y))]
            enorm = math.sqrt(sum((err[c] / scale[c]) ** 2 for c in range(len(y)))
                              / len(y))
            if enorm <= 1.0:
                t += h
                y = y_new
                grow = 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm ** -0.2)
                h *= grow
            else:
                h *= max(0.1, 0.9 * enorm ** -0.25)
            if abs(h) < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflowError("step underflow",
                                             span_reached=t - t0)
        out.append((t, list(y)))
    return out


def _counted_run(integrate, acc, *args, **kwargs):
    # (samples or the span reached at underflow, acceleration calls)
    calls = [0]

    def counted(y):
        calls[0] += 1
        return acc(y)

    try:
        return integrate(counted, *args, **kwargs), calls[0]
    except StepSizeUnderflowError as err:
        return ("underflow", err.span_reached), calls[0]


def _shoot_calls(monkeypatch, family, c1, lg, branch):
    # the rk_integrate call that shoot_and_compare makes on the CLI's window
    import expwave.verify as verify

    frame = FrameParams.from_lambda_gamma(lg)
    sol = construct(family, c1, frame, branch=branch)
    seen = []

    def spy(*args, **kwargs):
        seen.append((args, kwargs))
        return rk_integrate(*args, **kwargs)

    monkeypatch.setattr(verify, "rk_integrate", spy)
    start, span = _shoot_window(sol)
    shoot_and_compare(first_integral(family_params(family), frame, c1), sol,
                      start, span)
    (args, kwargs), = seen
    return sol, span, args, kwargs


@pytest.mark.parametrize("family, c1, lg, branch, psi_native, forward", [
    (FamilyLabel.Tzitzeica, 1.0, 1.0, 1, False, True),  # Weierstrass
    (FamilyLabel.SinhGordon, -0.5, 1.0, -1, True, False),  # half-line kink
    (FamilyLabel.SineGordon, 0.0, -1.0, 1, True, True),  # amplitude
])
def test_two_state_kernel_matches_list_stepper_bit_for_bit(
        monkeypatch, family, c1, lg, branch, psi_native, forward):
    sol, span, args, kwargs = _shoot_calls(monkeypatch, family, c1, lg,
                                           branch)
    assert sol.psi_native is psi_native
    assert (span > 0.0) is forward
    if not forward:
        assert span == -5.0
    got = _counted_run(rk_integrate, *args, **kwargs)
    want = _counted_run(_reference_rk_integrate, *args, **kwargs)
    # same samples to the bit and the same accepted and rejected steps
    assert got == want
    assert len(got[0]) == 50 and got[1] > 600


def test_two_state_kernel_matches_list_stepper_at_blowup():
    gen = EquationParams(1.0, 1.0, 2.0, -1.0)
    q = first_integral(gen, FR1, 1.0)
    y0 = [1.0, math.sqrt(2.0 * FR1.r * q.g(1.0))]
    got = _counted_run(rk_integrate, _acceleration(q, False), 0.0, y0, 10.0,
                       sample_times=[10.0])
    want = _counted_run(_reference_rk_integrate, _acceleration(q, False), 0.0,
                        y0, 10.0, sample_times=[10.0])
    assert got[0][0] == "underflow"
    assert got == want


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
    # generic two-exponential trajectory: constant recovered from the
    # trajectory drifts below 1e-8 over a regular span
    gen = EquationParams(1.0, 1.0, 2.0, -1.0)
    q = first_integral(gen, FR1, 1.0)
    f = _acceleration(q, False)
    d0 = -math.sqrt(2.0 * FR1.r * q.g(1.0))
    path = rk_integrate(f, 0.0, [1.0, d0], 1.5, rtol=1e-12, atol=1e-12,
                        sample_times=[0.075 * i for i in range(1, 21)])
    drift = max(abs(conserved_c1(gen, FR1, y[0], y[1]) - 1.0) for _, y in path)
    assert drift <= 1e-8
    # nonsingular span-10 drift: companion trajectory started from an exact
    # algebraic state (h stays above 1, no zero crossing)
    params = family_params(FamilyLabel.Tzitzeica)
    qs = first_integral(params, FR1, -1.5)
    fs = _acceleration(qs, False)
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
    sol = construct(family, c1, frame)
    rep = pde_residual(sol, frame, Grid.for_solution(sol, -10.0, 10.0, 1001))
    assert rep.passed, rep.max_residual


def test_gl8_is_exact_through_degree_15():
    # sum w t^k = 1/(k + 1) for every k <= 2 * 8 - 1, and no further
    for k in range(16):
        assert abs(sum(w * t ** k for t, w in _GL8) - 1.0 / (k + 1)) <= 1e-15, k
    assert abs(sum(w * t ** 16 for t, w in _GL8) - 1.0 / 17) > 1e-15


@pytest.mark.parametrize("family, c1, frame, n", [
    (FamilyLabel.SineGordon, 1.0, FR1, 1001),
    (FamilyLabel.Tzitzeica, 1.0, FR1, 40),
    (FamilyLabel.SineGordon, 1.0, K1_W2, 1001),
    (FamilyLabel.Tzitzeica, 1.0, K1_W2, 40),
], ids=["sine-kink-k0", "tzitzeica-weierstrass-k0", "sine-kink-k1",
        "tzitzeica-weierstrass-k1"])
def test_pde_oracle_evaluates_nineteen_per_window(family, c1, frame, n):
    # each window evaluates x, x +- w and the 8 Gauss-Legendre nodes on
    # each side; there are min(48, kept) windows on every frame, because
    # the identity is one-dimensional in xi
    sol = construct(family, c1, frame)
    calls = []

    def counted(xi):
        calls.append(xi)
        return sol._fn(xi)

    grid = Grid.for_solution(sol, -10.0, 10.0, n)
    rep = pde_residual(dataclasses.replace(sol, _fn=counted), frame, grid)
    assert rep == pde_residual(sol, frame, grid)
    windows = min(PDE_WINDOWS, len(grid.points()))
    assert len(calls) == 19 * windows
    # h-native windows where h nears zero are skipped, at the same cost
    assert rep.points_used == windows or not sol.psi_native


@pytest.mark.parametrize("family, c1", [
    (FamilyLabel.SinhGordon, -2.0),
    (FamilyLabel.Tzitzeica, -1.5),
    (FamilyLabel.SineGordon, 0.0),
])
@pytest.mark.parametrize("xi_min", [100.0, 1e4])
def test_pde_oracle_holds_where_the_stencil_floor_does_not(family, c1, xi_min):
    # the ODE oracle's fixed Richardson step reads correct closed forms as
    # wrong far from the origin (1.4e-8 to 2.3e-6); the Goursat identity
    # takes no derivative and still holds there
    sol = construct(family, c1, FRN)
    grid = Grid.for_solution(sol, xi_min, xi_min + 1.0, 101)
    assert pde_residual(sol, FRN, grid).passed
    assert not ode_residual(sol, FRN, grid).passed


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
