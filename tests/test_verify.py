import contextlib
import dataclasses
import io
import math

import mpmath as mp
import pytest

from expwave import cli
from expwave.errors import (
    DomainError,
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
    ImplicitRelation,
    Solution,
    construct,
    implicit_relation,
)
from expwave.verify import (
    _DOP_A,
    _DOP_B,
    _DOP_E3,
    _DOP_E5,
    _GL8,
    FD_BASE_STEP,
    FD_MIN_STEP,
    FD_SINGULAR_FRACTION,
    PDE_HALF_WIDTH,
    PDE_WINDOWS,
    RK_MAX_STEPS,
    SHOOT_MAX_GAIN,
    Grid,
    _acceleration,
    _growth_rate,
    _implicit_grid,
    _report,
    _jet_table,
    _shoot_window,
    _steps,
    battery,
    first_integral_residual,
    implicit_residual_check,
    ode_residual,
    ode_residuals,
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
    sol = construct(FamilyLabel.Liouville, 1.0, FR1)
    with pytest.raises(EmptyGridError):
        ode_residual(sol, FR1, g)


def test_grid_refuses_a_step_within_2_ulp():
    # the step must exceed 2 ulp of max(|xi_min|, |xi_max|, width)
    for xi_min, xi_max, n in [(0.0, 5e-324, 5), (1e16, 1e16 + 4.0, 5),
                              (-1e16 - 4.0, -1e16, 5), (1e16, 1e16 + 8.0, 3),
                              (-1e308, 1e308, 3)]:
        with pytest.raises(ValueError, match="cannot hold n = "):
            Grid(xi_min, xi_max, n)
    # just above: every point is distinct
    pts = Grid(1e16, 1e16 + 10.0, 3).points()
    assert all(a < b for a, b in zip(pts, pts[1:])), pts


def test_grid_refuses_a_lattice_finer_than_the_smallest_step():
    # at a period of FD_MIN_STEP or less neither a grid point's phase nor a
    # stencil resolves the lattice (the sec^2 form at c1 = -1e300, lambda
    # gamma = 1e-150 has period 4.4e-225): refused before any point is kept
    for period in (FD_MIN_STEP, 4.4e-225):
        g = Grid(0.0, 1.0, 16, Singularities.lattice(0.3, period),
                 0.05 * period)
        with pytest.raises(DomainError, match="^the period .* is not above "
                                              "the smallest stencil step"):
            g.points()
    assert Grid(0.0, 1.0, 16, Singularities.lattice(0.3, 2e-6), 1e-7).points()


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
    sol = construct(FamilyLabel.Tzitzeica, 1.0, FR1)
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


def test_grid_on_an_empty_singular_set_measures_nothing(monkeypatch):
    # every lattice point is kept at clearance inf, as clearance() reads
    # there, without a call per point
    def refuse(self, xi):
        raise AssertionError("clearance called on an empty singular set")

    lattice = [-1.0 + i * (2.0 / 8) for i in range(9)]
    monkeypatch.setattr(Singularities, "clearance", refuse)
    assert Grid(-1.0, 1.0, 9).points() == lattice
    assert Grid(-1.0, 1.0, 9, pad=0.5).points() == lattice
    assert Grid(-1.0, 1.0, 9)._cleared() == [(x, math.inf) for x in lattice]
    # a pad no clearance exceeds keeps nothing, as before
    assert Grid(-1.0, 1.0, 9, pad=math.inf).points() == []
    assert Grid(-1.0, 1.0, 9, pad=math.nan).points() == []


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
    sol = construct(FamilyLabel.Liouville, 0.0,
                    FrameParams.from_lambda_gamma(0.5))
    rep = ode_residual(sol, sol.frame, Grid(1.0, 5.0, 200))
    assert rep.passed
    assert rep.max_residual <= 1e-8


def test_first_integral_oracle():
    # circular-family kink satisfies (psi')^2 = (2/lg)(1 - cos psi)
    kink = construct(FamilyLabel.SineGordon, 1.0, FR1)
    rep = first_integral_residual(kink, FR1, 1.0, Grid(-8.0, 8.0, 400))
    assert rep.passed
    # hyperbolic-family bounded amplitude satisfies its cosh form
    amp = construct(FamilyLabel.SinhGordon, -1.0, FRN)
    rep = first_integral_residual(amp, FRN, -1.0, Grid(-8.0, 8.0, 400))
    assert rep.passed
    sol = construct(FamilyLabel.Liouville, 1.0, FR1)
    rep = first_integral_residual(sol, FR1, 1.0, Grid(-8.0, 8.0, 400))
    assert rep.passed
    # cubic-family elliptic form (h')^2 = 2 r h^3 + p h^2 + r along the
    # general solution
    gw = construct(FamilyLabel.Tzitzeica, 1.0, FR1)
    grid = Grid.for_solution(gw, -8.0, 8.0, 400)
    rep = first_integral_residual(gw, FR1, 1.0, grid)
    assert rep.passed


def test_grid_jets_keyed_by_solution():
    # one grid reused with a second solution reports what a fresh grid
    # reports: the table it keeps is never stale
    grid = Grid(-5.0, 5.0, 64)
    dark = (construct(FamilyLabel.Tzitzeica, -1.5, FR1), -1.5)
    kink = (construct(FamilyLabel.SineGordon, 1.0, FR1), 1.0)
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
    sol = construct(FamilyLabel.Tzitzeica, -1.5, FR1, branch=-1)
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


def _reference_step(d, base):
    # the step policy as it was written before the table pass
    return max(min(base, FD_SINGULAR_FRACTION * d), FD_MIN_STEP)


def _reference_jets(sol, grid):
    # the per-point composition the table pass replaced: one step, then
    # one Richardson stencil, per kept point
    f = sol.evaluate_psi if sol.psi_native else sol.evaluate_h
    out = []
    for x in grid.points():
        s = _reference_step(sol.singularities.distance(x), FD_BASE_STEP)
        fx = f(x)
        fp, fm = f(x + s), f(x - s)
        hp, hm = f(x + 0.5 * s), f(x - 0.5 * s)
        d1 = (4.0 * ((hp - hm) / s) - (fp - fm) / (2.0 * s)) / 3.0
        d2 = (4.0 * ((hp - 2.0 * fx + hm) / (0.25 * s * s))
              - (fp - 2.0 * fx + fm) / (s * s)) / 3.0
        out.append((x, fx, d1, d2))
    return out


def _hex_rows(table):
    return [tuple(v.hex() for v in row) for row in table]


@pytest.mark.parametrize("kind, make", [
    ("none", lambda: construct(FamilyLabel.SineGordon, 1.0, FR1)),
    ("isolated",
     lambda: construct(FamilyLabel.Tzitzeica, -1.5, FR1, branch=-1)),
    ("lattice", lambda: construct(FamilyLabel.Tzitzeica, 1.0, FR1)),
    ("half_line", lambda: construct(FamilyLabel.SinhGordon, -0.5, FR1)),
    ("lattice_windows", lambda: construct(FamilyLabel.SinhGordon, 0.5, FR1)),
])
def test_jet_table_matches_per_point_stencil_bit_for_bit(kind, make):
    sol = make()
    assert sol.singularities.kind == kind
    # the grid verify and sample build, on the solution's own set
    grid = Grid.for_solution(sol, -10.0, 10.0, 1001)
    table = grid.jets(sol)
    assert len(table) > 100
    assert _hex_rows(table) == _hex_rows(_reference_jets(sol, grid))


@pytest.mark.parametrize("make, sing", [
    (lambda: construct(FamilyLabel.Tzitzeica, -1.5, FR1, branch=-1),
     Singularities.lattice(0.0, 2.0)),
    (lambda: construct(FamilyLabel.SineGordon, 1.0, FR1),
     Singularities.isolated(1.0)),
    (lambda: construct(FamilyLabel.Tzitzeica, -1.5, FR1),
     Singularities.none()),
], ids=["isolated-on-lattice", "none-on-isolated", "none-on-none"])
def test_jet_table_on_another_singular_set_bit_for_bit(make, sing):
    # the grid keeps its own points, the steps follow the solution's
    # distances
    sol = make()
    grid = Grid(-4.0, 4.0, 97, sing, 0.3)
    assert sing != sol.singularities or sing.kind == "none"
    assert _hex_rows(grid.jets(sol)) == _hex_rows(_reference_jets(sol, grid))


def test_jet_table_at_the_step_floor_bit_for_bit():
    # a pad-0 grid whose first point lies 1.5e-4 from the pole at xi = 0:
    # 5e-3 of that distance is below FD_MIN_STEP, so the floor applies
    sol = construct(FamilyLabel.Tzitzeica, -1.5, FR1, branch=-1)
    grid = Grid(1.5e-4, 2.0, 41, sol.singularities, 0.0)
    xs = grid.points()
    assert FD_SINGULAR_FRACTION * sol.singularities.distance(xs[0]) \
        < FD_MIN_STEP
    assert _hex_rows(grid.jets(sol)) == _hex_rows(_reference_jets(sol, grid))
    # the Goursat windows share the step policy, at their own base
    ds = [math.inf, 1e300, 30.0, 25.0, 0.8, 0.01, 2e-4, 1e-4, 5e-324]
    for base in (FD_BASE_STEP, PDE_HALF_WIDTH):
        assert [s.hex() for s in _steps(ds, base)] == \
            [_reference_step(d, base).hex() for d in ds]


def test_report_fields():
    sol = construct(FamilyLabel.Tzitzeica, -1.5, FR1)
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


def test_no_oracle_passes_on_a_non_finite_residual():
    # h h'' overflows at the pulse's peak; that one NaN is not the first
    # residual, so max() dropped it and the report passed with a NaN rms
    sol = construct(FamilyLabel.Liouville, 1e150, FR1)
    grid = Grid.for_solution(sol, -10.0, 10.0, 1001)
    message = ("c1=1e+150 and lambda gamma=1.0 put the ode_residual residual "
               "past the float range")
    with pytest.raises(DomainError) as err:
        ode_residual(sol, FR1, grid)
    assert str(err.value) == message
    with pytest.raises(DomainError) as err:
        ode_residuals(sol, FR1, grid.jets(sol))
    assert str(err.value) == message
    # every oracle reports through _report, which refuses a NaN or inf
    # anywhere, and a finite residual whose square overflows the rms
    for bad in (math.nan, math.inf, 1e200):
        with pytest.raises(DomainError) as err:
            _report("pde_residual", sol, [0.0, bad, 0.0], 1e-6)
        assert str(err.value) == message.replace("ode_residual",
                                                 "pde_residual")


def test_fd_monotonicity():
    # in the truncation regime halving the stencil step cuts the residual
    # by at least a factor 3 (fourth-order differences after one level of
    # Richardson extrapolation)
    sol = construct(FamilyLabel.Tzitzeica, -1.5, FR1)
    xs = Grid(-8.0, 8.0, 200).points()

    def worst(step):
        return max(ode_residuals(sol, FR1, _jet_table(
            sol.evaluate_h, xs, [step] * len(xs))))

    assert worst(0.08) / worst(0.04) >= 3.0


def test_shoot_oracle():
    dark = construct(FamilyLabel.Tzitzeica, -1.5, FR1)
    q = first_integral(family_params(FamilyLabel.Tzitzeica), FR1, -1.5)
    rep = shoot_and_compare(q, dark, 0.0, 5.0)
    assert rep.passed and rep.max_residual <= 1e-6
    amp = construct(FamilyLabel.SineGordon, 3.0, FR1)
    qa = first_integral(EquationParams.sine_gordon(), FR1, 3.0)
    rep = shoot_and_compare(qa, amp, 0.0, 5.0)
    assert rep.passed
    # shooting integrates the first integral only, never the raw
    # second-order form (singular at h = 0)
    sing = construct(FamilyLabel.Tzitzeica, -1.5, FR1, branch=-1)
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
        rk_integrate(_acceleration(q, False), 0.0, [1.0, d0], 10.0)
    assert 0.0 < err.value.span_reached < 2.0


def _failing_past_the_edge(failure):
    # y'' = -1 while y >= 0; below, the acceleration raises ``failure`` or,
    # given a float, returns it
    def acc(y):
        if y >= 0.0:
            return -1.0
        if isinstance(failure, float):
            return failure
        raise failure("past the edge")

    return acc


@pytest.mark.parametrize("failure", [ValueError, OverflowError, math.nan,
                                     math.inf])
def test_rk_rejects_a_step_whose_stage_fails(failure):
    # y'' = -1 from (1, -1) reaches the edge y = 0 at t = sqrt 3 - 1, past
    # which every stage raises or reads non-finite: each such step is
    # rejected, and the step collapses at the edge
    with pytest.raises(StepSizeUnderflowError) as err:
        rk_integrate(_failing_past_the_edge(failure), 0.0, [1.0, -1.0], 2.0)
    assert err.value.span_reached == pytest.approx(math.sqrt(3.0) - 1.0,
                                                   abs=1e-12)


def test_rk_gives_up_after_the_step_limit(monkeypatch):
    # an oscillation at angular frequency 1e3 needs thousands of steps over
    # a span of 10; with the limit at 40 the kernel attempts 40 and stops
    import expwave.verify as verify

    monkeypatch.setattr(verify, "RK_MAX_STEPS", 40)
    calls = []

    def acc(y):
        calls.append(y)
        return -1e6 * y

    with pytest.raises(StepSizeUnderflowError,
                       match="step limit of 40 steps") as err:
        rk_integrate(acc, 0.0, [1.0, 0.0], 10.0)
    assert len(calls) == 12 * 40
    assert 0.0 < err.value.span_reached < 10.0


def test_rk_returns_every_accepted_step():
    # forward and backward, one entry per accepted step in the direction of
    # integration, the last at t_end; an empty span takes no step
    for t_end in (1.0, -1.0):
        path = rk_integrate(lambda y: -y, 0.0, [1.0, 0.0], t_end)
        times = [t for t, _ in path]
        assert len(times) > 3
        assert all((b - a) * t_end > 0.0 for a, b in zip([0.0] + times, times))
        assert times[-1] == pytest.approx(t_end, abs=1e-14)
        assert all(y == pytest.approx(math.cos(t), abs=1e-9)
                   for t, (y, _) in path)
    assert rk_integrate(lambda y: -y, 1.0, [2.0, 3.0], 1.0) == []


def test_rk_restarts_where_the_amplification_passes_the_bound():
    # y'' = y amplifies at the rate 1, so a segment's amplification is
    # e^(its length): each ends at its first accepted step more than
    # ln SHOOT_MAX_GAIN ~ 7.7 from its start, which the path keeps as
    # integrated, and the next restarts there from the exact state
    restarts = []

    def exact(t):
        restarts.append(t)
        return [math.exp(-t), -math.exp(-t)]

    path = rk_integrate(lambda y: y, 0.0, [1.0, -1.0], 20.0, restart=exact)
    times = [0.0] + [t for t, _ in path]
    bound = math.log(SHOOT_MAX_GAIN)
    assert len(restarts) == 2
    for start, end in zip([0.0] + restarts, restarts):
        i = times.index(end)
        assert times[i - 1] - start <= bound < end - start
    assert times[-1] - restarts[-1] <= bound
    assert max(abs(y - math.exp(-t)) for t, (y, _) in path) < 1e-10


def test_rk_refuses_a_segment_past_the_bound_in_one_step():
    # far below atol the first step, 1e-2, is accepted at the rate 1e3, an
    # amplification of e^10 within one step: a restart there would make no
    # progress, so the kernel gives up with one line
    with pytest.raises(StepSizeUnderflowError,
                       match="^step amplification past 2200 within one step"
                       ) as err:
        rk_integrate(lambda y: 1e6 * y, 0.0, [1e-30, 0.0], 1.0,
                     restart=lambda t: pytest.fail("restarted"))
    assert err.value.span_reached == 1e-2


def _dop853_nodes():
    # c_1 ... c_12 of DOP853 in closed form (Hairer, Norsett & Wanner I,
    # II.10): c4, c5 = (6 -+ sqrt 6)/30, c3 = 2 c4/3, c2 = 4 c4/9
    c4 = (6 - mp.sqrt(6)) / 30
    return [mp.mpf(0), 4 * c4 / 9, 2 * c4 / 3, c4, (6 + mp.sqrt(6)) / 30,
            mp.mpf(1) / 3, mp.mpf(1) / 4, mp.mpf(4) / 13, mp.mpf(127) / 195,
            mp.mpf(3) / 5, mp.mpf(6) / 7, mp.mpf(1)]


def _exact_sum_error(terms, target):
    # |sum - target| of the terms' exact binary values at 40 digits, and
    # the rounding the float literals may carry: half an ulp of each term
    total = mp.fsum(terms)
    return abs(total - target), mp.fsum(abs(t) for t in terms) * 2.0 ** -52


def test_dop853_tableau_meets_its_conditions():
    # every transcribed literal read as the double it rounds to; a change
    # past half an ulp of each term of a condition fails it, which is the
    # 12th significant digit of the least resolved entry, a9_8
    with mp.workdps(40):
        c = _dop853_nodes()
        assert len(_DOP_A) == len(_DOP_B) == len(_DOP_E5) == len(_DOP_E3) == 12
        for i, row in enumerate(_DOP_A):
            assert len(row) == i
            # row sums are the nodes
            err, bound = _exact_sum_error([mp.mpf(a) for a in row], c[i])
            assert err <= bound, (i, err, bound)
        for k in range(1, 9):
            # the quadrature conditions of order 8
            err, bound = _exact_sum_error(
                [mp.mpf(b) * c[i] ** (k - 1) for i, b in enumerate(_DOP_B)],
                mp.mpf(1) / k)
            assert err <= bound, (k, err, bound)
        for weights in (_DOP_E5, _DOP_E3):
            # an error estimate vanishes on a step that both solutions share
            err, bound = _exact_sum_error([mp.mpf(e) for e in weights], 0)
            assert err <= bound, (weights, err, bound)


def _left_sum(terms):
    # left to right from 0.0, as sum adds floats up to Python 3.11
    total = 0.0
    for t in terms:
        total += t
    return total


def _reference_rk_step(f, y, h):
    # the generic DOP853 step on a list state, f(y) -> y': the stage slopes,
    # the eighth-order solution and the fifth- and third-order error
    # estimates; a zero weight is skipped, as the kernel skips it
    k = []
    for row in _DOP_A:
        yi = list(y)
        for j, a in enumerate(row):
            if a:
                for c in range(len(y)):
                    yi[c] += h * a * k[j][c]
        k.append(f(yi))

    def weighted(weights, c):
        return h * _left_sum(w * k[i][c] for i, w in enumerate(weights) if w)

    y8 = [y[c] + weighted(_DOP_B, c) for c in range(len(y))]
    return (k, y8, [weighted(_DOP_E5, c) for c in range(len(y))],
            [weighted(_DOP_E3, c) for c in range(len(y))])


def _reference_rk_integrate(acc, t0, y0, t_end, rtol=1.0e-10, atol=1.0e-10,
                            restart=None):
    # the generic driver around _reference_rk_step, for y' = (y[1], acc(y[0])),
    # with rk_integrate's segments: the amplification summed by the
    # trapezoid rule over accepted steps, a restart from the first step
    # past SHOOT_MAX_GAIN, and a refusal when that is a segment's first; a
    # start state [y, y', rate] hands over the rate at y
    def start_rate(state):
        return state[2] if len(state) > 2 else _growth_rate(acc, state[0])

    def f(y):
        return [y[1], acc(y[0])]

    def first_step(t):
        return direction * min(1e-2, abs(t_end - t) / 10.0 + 1e-12)

    direction = 1.0 if t_end >= t0 else -1.0
    out = []
    t, y = t0, list(y0[:2])
    h = first_step(t0)
    attempts = 0
    if restart is not None:
        rate, gain, fresh = start_rate(y0), 0.0, True
    while (t_end - t) * direction > 1e-14 * max(1.0, abs(t_end)):
        if attempts == RK_MAX_STEPS:
            raise StepSizeUnderflowError("step limit", span_reached=t - t0)
        attempts += 1
        if abs(h) > abs(t_end - t):
            h = t_end - t
        try:
            k, y_new, err5, err3 = _reference_rk_step(f, y, h)
            scale = [atol + rtol * max(abs(y[c]), abs(y_new[c]))
                     for c in range(len(y))]
            e5 = _left_sum((err5[c] / scale[c]) ** 2 for c in range(len(y)))
            e3 = _left_sum((err3[c] / scale[c]) ** 2 for c in range(len(y)))
            finite = all(map(math.isfinite,
                             [*(s for stage in k for s in stage), *y_new,
                              e5, e3]))
        except (OverflowError, ValueError):
            finite = False
        if not finite:
            h *= 0.1
        else:
            enorm = e5 / math.sqrt(len(y) * (e5 + 0.01 * e3)) if e5 else 0.0
            if enorm <= 1.0:
                t += h
                y = y_new
                out.append((t, list(y)))
                if restart is not None:
                    rate_new = _growth_rate(acc, y[0])
                    gain += 0.5 * abs(h) * (rate + rate_new)
                    if gain > math.log(SHOOT_MAX_GAIN):
                        if fresh:
                            raise StepSizeUnderflowError(
                                "step amplification", span_reached=t - t0)
                        state = restart(t)
                        y, h = list(state[:2]), first_step(t)
                        rate, gain, fresh = start_rate(state), 0.0, True
                        continue
                    rate, fresh = rate_new, False
                h *= 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm ** -0.125)
            else:
                h *= max(0.1, 0.9 * enorm ** -0.125)
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError("step underflow", span_reached=t - t0)
    return out


def _counted_run(integrate, acc, *args, **kwargs):
    # (path or the span reached at underflow, acceleration calls, restarts)
    calls, restarts = [0], [0]

    def counted(y):
        calls[0] += 1
        return acc(y)

    if kwargs.get("restart"):
        restart = kwargs["restart"]

        def counted_restart(t):
            restarts[0] += 1
            return restart(t)

        kwargs = {**kwargs, "restart": counted_restart}
    try:
        return integrate(counted, *args, **kwargs), calls[0], restarts[0]
    except StepSizeUnderflowError as err:
        return ("underflow", err.span_reached), calls[0], restarts[0]


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


@pytest.mark.parametrize(
    "family, c1, lg, branch, psi_native, forward, steps, calls, restarts", [
        # Weierstrass, half-line kink, amplitude
        (FamilyLabel.Tzitzeica, 1.0, 1.0, 1, False, True, 29, 418, 0),
        (FamilyLabel.SinhGordon, -0.5, 1.0, -1, True, False, 28, 392, 0),
        (FamilyLabel.SineGordon, 0.0, -1.0, 1, True, True, 36, 540, 0),
        # the half-line kink at a small lambda gamma, in three segments
        (FamilyLabel.SinhGordon, -0.5, 0.13145345140087247, -1, True, False,
         34, 536, 2),
    ])
def test_two_state_kernel_matches_list_stepper_bit_for_bit(
        monkeypatch, family, c1, lg, branch, psi_native, forward, steps,
        calls, restarts):
    sol, span, args, kwargs = _shoot_calls(monkeypatch, family, c1, lg,
                                           branch)
    assert sol.psi_native is psi_native
    assert (span > 0.0) is forward
    if not forward:
        assert span == -5.0
    got = _counted_run(rk_integrate, *args, **kwargs)
    want = _counted_run(_reference_rk_integrate, *args, **kwargs)
    # the same path to the bit, segment by segment, and the same accepted
    # and rejected steps: twelve acceleration calls an attempted step and
    # two for the growth rate at each accepted step; shoot_and_compare's
    # start states carry the rate at each segment start
    assert got == want
    assert (len(got[0]), got[1], got[2]) == (steps, calls, restarts)


def _generic_blowup():
    # the generic trajectory of test_shoot_blowup_underflow
    q = first_integral(EquationParams(1.0, 1.0, 2.0, -1.0), FR1, 1.0)
    return (_acceleration(q, False), 0.0,
            [1.0, math.sqrt(2.0 * FR1.r * q.g(1.0))], 10.0)


@pytest.mark.parametrize("args, step_limit, span, calls", [
    pytest.param(_generic_blowup(), None, None, 3660, id="blowup"),
    # the stage failures of test_rk_rejects_a_step_whose_stage_fails
    *(pytest.param((_failing_past_the_edge(failure), 0.0, [1.0, -1.0], 2.0),
                   None, math.sqrt(3.0) - 1.0, calls,
                   id=getattr(failure, "__name__", str(failure)))
      for failure, calls in [(ValueError, 570), (OverflowError, 570),
                             (math.nan, 756), (math.inf, 756)]),
    # the oscillator of test_rk_gives_up_after_the_step_limit
    pytest.param((lambda y: -1e6 * y, 0.0, [1.0, 0.0], 10.0), 40, None,
                 12 * 40, id="step-limit"),
])
def test_two_state_kernel_matches_list_stepper_at_blowup(
        monkeypatch, args, step_limit, span, calls):
    # where the kernel gives up, it has made the reference stepper's
    # acceleration calls, in its order, and stopped at the same one
    import expwave.verify as verify

    if step_limit is not None:
        monkeypatch.setattr(verify, "RK_MAX_STEPS", step_limit)
        monkeypatch.setitem(globals(), "RK_MAX_STEPS", step_limit)
    got = _counted_run(rk_integrate, *args)
    want = _counted_run(_reference_rk_integrate, *args)
    assert got[0][0] == "underflow"
    assert got == want
    if span is not None:
        assert got[0][1] == pytest.approx(span, abs=1e-12)
    assert got[1] == calls


@pytest.mark.parametrize("branch", [1, -1])
def test_half_line_grid_pads_by_pad(branch):
    # the exp kink is valid on one side of its boundary point; the grid
    # keeps a point 1.5 pad inside that side (the padding is pad, not 2 pad)
    sol = construct(FamilyLabel.SinhGordon, -0.5, FR1, branch=branch)
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
    path = rk_integrate(f, 0.0, [1.0, d0], 1.5, rtol=1e-12, atol=1e-12)
    drift = max(abs(conserved_c1(gen, FR1, y[0], y[1]) - 1.0) for _, y in path)
    assert drift <= 1e-8
    # nonsingular span-10 drift: companion trajectory started from an exact
    # algebraic state (h stays above 1, no zero crossing)
    params = family_params(FamilyLabel.Tzitzeica)
    qs = first_integral(params, FR1, -1.5)
    fs = _acceleration(qs, False)
    h0 = 3.0
    d0 = -math.sqrt(2.0 * FR1.r * h0 * h0 * qs.g(h0))
    path = rk_integrate(fs, 0.0, [h0, d0], 10.0, rtol=1e-12, atol=1e-12)
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


T3, T7 = _GL8[3][0], _GL8[7][0]


@pytest.mark.parametrize("where, bad", [
    (lambda x, w: x, lambda v: math.nan),  # the centre
    (lambda x, w: x, lambda v: -v),
    (lambda x, w: x + w * T3, lambda v: math.nan),  # a node
    (lambda x, w: x - w * T3, lambda v: math.nan),  # its mirror
    (lambda x, w: x - w * T7, lambda v: -v),
    (lambda x, w: x - w, lambda v: 0.0),  # an edge
    (lambda x, w: x + w, lambda v: 0.4 * v),  # under half the centre
], ids=["centre-nan", "centre-sign", "node-nan", "mirror-node-nan",
        "mirror-node-sign", "edge-zero", "edge-small"])
def test_pde_oracle_skips_exactly_the_window_it_must(where, bad):
    # an h-native window counts only if all 19 values keep the centre's
    # sign and half its magnitude; a NaN keeps neither, so a window with
    # one must go (a test written as v / mid < 0.5 would keep it)
    sol = construct(FamilyLabel.Liouville, 1.0, FR1)
    grid = Grid(-5.0, 5.0, 96)
    base = pde_residual(sol, FR1, grid)
    assert base.points_used == PDE_WINDOWS
    # one abscissa of the 20th window, centred on the 40th kept point; no
    # other window evaluates it
    target = where(grid.points()[39], PDE_HALF_WIDTH)

    def doctored(xi):
        return bad(sol._fn(xi)) if xi == target else sol._fn(xi)

    rep = pde_residual(dataclasses.replace(sol, _fn=doctored), FR1, grid)
    assert rep.points_used == base.points_used - 1
    assert math.isfinite(rep.max_residual)
    assert rep.max_residual <= base.max_residual


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
    eq = construct(FamilyLabel.Tzitzeica, 0.0, FR1)
    rel = implicit_relation(FamilyLabel.Tzitzeica, FR1)
    period = eq.params["period"]
    grid = Grid(period * 0.55, period * 0.72, 64)
    rep = implicit_residual_check(rel, eq, grid)
    assert rep.passed and rep.max_residual <= 1e-8
    dbe = construct(FamilyLabel.DoddBullough, 0.0, FRN)
    rel = implicit_relation(FamilyLabel.DoddBullough, FRN)
    period = dbe.params["period"]
    grid = Grid(period * 0.55, period * 0.72, 64)
    rep = implicit_residual_check(rel, dbe, grid)
    assert rep.passed
    sh = construct(FamilyLabel.SinhGordon, 0.0, FR1)
    rel = implicit_relation(FamilyLabel.SinhGordon, FR1)
    rep = implicit_residual_check(rel, sh, Grid(0.1, 0.9, 64))
    assert rep.passed
    # the mirrored branch is aligned automatically on its own window
    sh2 = construct(FamilyLabel.SinhGordon, 0.0, FR1, branch=-1)
    rep = implicit_residual_check(rel, sh2, Grid(-0.9, -0.1, 64))
    assert rep.passed


def test_implicit_domain_error():
    eq = construct(FamilyLabel.Tzitzeica, 0.0, FR1)
    rel = implicit_relation(FamilyLabel.Tzitzeica, FR1)
    period = eq.params["period"]
    # near the pole the 2F1 argument -2 h^3 runs far below -1e5, which the
    # 1/x connection formula reaches
    grid = Grid(period * 0.02, period * 0.1, 32)
    assert rel._arg(eq.evaluate_h(grid.points()[0])) < -1e5
    assert implicit_residual_check(rel, eq, grid).passed
    # h below the turning value -(1/2)^(1/3) takes the argument past 1
    beyond = dataclasses.replace(eq, _fn=lambda xi: -1.0)
    with pytest.raises(DomainError):
        implicit_residual_check(rel, beyond, grid)


@pytest.mark.parametrize("family, sign, far_end", [
    (FamilyLabel.Tzitzeica, 1.0, {1: 0.665, -1: 0.665}),
    (FamilyLabel.DoddBullough, -1.0, {1: 0.665, -1: 0.665}),
    (FamilyLabel.SinhGordon, 1.0, {1: -1.695, -1: -0.590}),
])
@pytest.mark.parametrize("xi0", [0.0, 0.3, -7.1])
@pytest.mark.parametrize("branch", [1, -1])
def test_implicit_grid_rule(family, sign, far_end, xi0, branch):
    # the first 0.45 of a pole period: h is strictly monotone, so the
    # check's one sign branch holds, and by homogeneity the 2F1 argument
    # at the far end does not depend on lambda gamma
    args = []
    for magnitude in (1e-3, 0.05, 1.0, 30.0, 1e3):
        frame = FrameParams.from_lambda_gamma(sign * magnitude, xi0)
        sol = construct(family, 0.0, frame, branch)
        rel = implicit_relation(family, frame)
        grid = _implicit_grid(sol)
        hs = [sol.evaluate_h(xi) for xi in grid.points()]
        steps = [b - a for a, b in zip(hs, hs[1:])]
        assert all(d > 0.0 for d in steps) or all(d < 0.0 for d in steps)
        assert implicit_residual_check(rel, sol, grid).passed
        args.append(rel._arg(hs[-1]))
    assert args == pytest.approx([args[0]] * len(args), rel=1e-9)
    assert args[0] == pytest.approx(far_end[branch], abs=5e-4)


def test_sine_amplitude_quadrature_oracle():
    # invert the psi-quadrature with adaptive integration along the
    # amplitude solution
    sol = construct(FamilyLabel.SineGordon, 3.0, FR1)
    q = first_integral(EquationParams.sine_gordon(), FR1, 3.0)
    for x1, x2 in [(0.1, 1.4), (-0.9, 0.3)]:
        p1, p2 = sol.evaluate_psi(x1), sol.evaluate_psi(x2)
        with mp.workdps(30):
            val = float(mp.quad(
                lambda p: 1 / mp.sqrt(2 * FR1.r * q.g_psi(p)), [p1, p2]))
        assert abs(val) == pytest.approx(x2 - x1, abs=1e-10)


def test_shoot_window_respects_half_line():
    sol = construct(FamilyLabel.SinhGordon, -0.5, FR1)
    q = first_integral(family_params(FamilyLabel.SinhGordon), FR1, -0.5)
    rep = shoot_and_compare(q, sol, -1.0, -5.0)
    assert rep.passed


IMPLICIT = "implicit_residual_check"


SIGN_CHANGES = "h is zero or changes sign in every window"


def test_pde_skip_names_each_rule_that_skipped():
    # at c1 = 1e15 (period 2.4e-6) h keeps its sign, < 0, but no Goursat
    # window keeps half the centre's magnitude; flipping h at the kept
    # points left of 0 skips those windows by the sign rule instead
    sol = construct(FamilyLabel.DoddBullough, 1e15, FR1)
    grid = Grid.for_solution(sol, -10.0, 10.0, 16)
    halved = "h drops below half its centre's magnitude in every window"
    with pytest.raises(EmptyGridError, match=f"^{halved}$"):
        pde_residual(sol, sol.frame, grid)
    left, fn = {x for x in grid.points() if x < 0.0}, sol._fn
    flipped = dataclasses.replace(
        sol, _fn=lambda xi: -fn(xi) if xi in left else fn(xi))
    with pytest.raises(EmptyGridError, match="^h is zero or changes sign or "
                       "drops below half its centre's magnitude in every "
                       "window$"):
        pde_residual(flipped, sol.frame, grid)


@pytest.mark.parametrize("make, span, doctor, skipped", [
    (lambda: construct(FamilyLabel.Liouville, 1.0, FR1), (-5.0, 5.0), "flip",
     [("pde_residual", SIGN_CHANGES)]),
    (lambda: construct(FamilyLabel.SineGordon, 0.0, FRN), (-10.0, 10.0), "",
     [(IMPLICIT, "no real implicit hypergeometric form for SineGordon")]),
    (lambda: construct(FamilyLabel.Tzitzeica, 0.0, FRN), (-10.0, 10.0), "",
     [(IMPLICIT, "this implicit form needs lambda gamma > 0")]),
    (lambda: construct(FamilyLabel.Liouville, 1.0, FR1), (1e4, 1e4 + 1.0), "",
     [("ode_residual", "h is zero at every grid point"),
      ("first_integral_residual", "h is zero at every grid point"),
      ("pde_residual", SIGN_CHANGES)]),
    # h underflows at 29 of the 32 points: the three left still count
    (lambda: construct(FamilyLabel.Liouville, 1.0, FR1), (500.0, 540.0), "",
     []),
    (lambda: construct(FamilyLabel.Tzitzeica, 0.0, FR1), (-10.0, 10.0), "",
     []),
], ids=["pde-empty", "2f1-family", "2f1-sign", "all-zero", "partly-zero",
        "none"])
def test_battery_skips_by_one_rule(make, span, doctor, skipped):
    # a skip is an oracle that raised EmptyGridError, or a c1 = 0 solution
    # with no real 2F1 form; every report is the oracle's own single call
    sol = make()
    grid = Grid.for_solution(sol, *span, 32)
    if doctor == "flip":
        # h changes sign at every kept point, so every Goursat window's
        # centre disagrees with its edges
        kept, fn = set(grid.points()), sol._fn
        sol = dataclasses.replace(
            sol, _fn=lambda xi: -fn(xi) if xi in kept else fn(xi))
    reports, got = battery(sol, grid)
    assert got == skipped
    frame = sol.frame
    single = {
        "ode_residual": lambda: ode_residual(sol, frame, grid),
        "first_integral_residual":
            lambda: first_integral_residual(sol, frame, sol.c1, grid),
        "shoot_and_compare": lambda: shoot_and_compare(
            first_integral(family_params(sol.family), frame, sol.c1), sol,
            *_shoot_window(sol)),
        "pde_residual": lambda: pde_residual(sol, frame, grid),
        IMPLICIT: lambda: implicit_residual_check(
            implicit_relation(sol.family, frame), sol, _implicit_grid(sol)),
    }
    if sol.c1 != 0.0:
        del single[IMPLICIT]
    for oracle, _ in skipped:
        check = single.pop(oracle)
        if oracle != IMPLICIT:
            with pytest.raises(EmptyGridError):
                check()
    assert [r.oracle for r in reports] == list(single)
    assert reports == [check() for check in single.values()]


@pytest.mark.parametrize("make, span", [
    # the branch 1 exp kink is valid only for xi < 0
    (lambda: construct(FamilyLabel.SinhGordon, -0.5, FR1, 1), (1.0, 2.0)),
    # the whole span lies inside the pad of the singular soliton's pole
    (lambda: construct(FamilyLabel.Tzitzeica, -1.5, FR1, -1), (-0.04, 0.04)),
], ids=["half-line", "pole-pad"])
def test_battery_refuses_a_grid_with_no_points(monkeypatch, make, span):
    # a span where the solution does not exist fails the request: no
    # oracle runs, so shooting on its own window cannot pass it
    sol = make()
    grid = Grid.for_solution(sol, *span, 32)
    assert grid.points() == []
    monkeypatch.setattr("expwave.verify.shoot_and_compare", None)
    with pytest.raises(EmptyGridError,
                       match="^ode_residual: exclusions removed every grid "
                             "point$"):
        battery(sol, grid)


def test_battery_lets_every_other_error_through(monkeypatch):
    # a 2F1 window whose points leave the domain is an error, not a skip
    # (the command line exits 3)
    sol = construct(FamilyLabel.Tzitzeica, 0.0, FR1)
    monkeypatch.setattr(ImplicitRelation, "in_domain", lambda self, h: False)
    with pytest.raises(DomainError):
        battery(sol, Grid.for_solution(sol, -10.0, 10.0, 32))
