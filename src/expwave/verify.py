"""Independent numerical oracles for constructed solutions.

Three deliberately separate routes check every closed form:

* the ODE and first-integral oracles differentiate the evaluator with
  Richardson-extrapolated central differences and plug into the
  traveling equation;
* the shooting oracle integrates the differentiated first integral with
  the adaptive DOP853 pair (:func:`rk_integrate`), restarting from the
  closed form wherever the estimated error amplification passes
  SHOOT_MAX_GAIN, and compares trajectories at every accepted step;
* the PDE oracle checks the light-cone form by the exact Goursat identity
  from point values and a quadrature, with no stencil at all.

A defect in the special-function kernels cannot hide from all three.

Each oracle's docstring states its normalization.  Near declared
singularities the stencil step and the Goursat window shrink in proportion
to the distance from the singular set (:func:`_steps`, the one step
policy), which keeps the truncation error of the h ~ 1/(xi - xi_s)^2
blow-up profiles below the targets.

Each oracle makes one pass over a table, not a call per point:
:func:`_jet_table` turns abscissas and steps into the (xi, value, d1, d2)
table (the Richardson formula), :func:`ode_residuals` turns that table
into ODE residuals for both ``ode_residual`` and ``sample``, and
``pde_residual`` reads its window widths from :func:`_steps` in one call.
Every value comes from ``Solution.evaluate_h``/``evaluate_psi``, one call
per abscissa, so per-point work is the evaluations and the arithmetic of
the formulas.

:func:`battery` owns the choice of oracles: which run for a solution, the
shooting span and the implicit check's window, and the one rule that
names an oracle skipped rather than failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    DomainError,
    EmptyGridError,
    ExpwaveError,
    StepSizeUnderflowError,
)
from .reduction import (
    FrameParams,
    QuadratureDescriptor,
    family_params,
    first_integral,
    range_error,
    traveling_ode,
)
from .singular import Singularities
from .solutions import ImplicitRelation, Solution, implicit_relation
# bound only because perfbench/tracer.py wraps it by this name
from .specfun.weierstrass import prepare_weierstrass

# Stencil-step policy: base step near the roundoff/truncation balance for
# fourth-order differences (the elliptic evaluators carry ~1e-14 jitter,
# which 1/s^2 amplifies), shrunk in proportion to the distance from the
# nearest declared singularity.
FD_BASE_STEP = 4.0e-3
FD_SINGULAR_FRACTION = 5.0e-3
FD_MIN_STEP = 1.0e-6

DEFAULT_ODE_TOL = 1.0e-8
DEFAULT_FI_TOL = 1.0e-8
DEFAULT_SHOOT_TOL = 1.0e-6
DEFAULT_PDE_TOL = 1.0e-6
DEFAULT_IMPLICIT_TOL = 1.0e-8

SHOOT_RK_TOL = 1.0e-6 * DEFAULT_SHOOT_TOL  # see shoot_and_compare
# pde_residual's Goursat windows: at most this many, this half-width in xi
PDE_WINDOWS = 48
PDE_HALF_WIDTH = 0.125


@dataclass(frozen=True)
class Grid:
    """The n equispaced points of [xi_min, xi_max] that
    ``singularities.keeps(xi, pad)`` accepts, strictly increasing.

    A window whose step is not above 2 ulp of the largest of |xi_min|,
    |xi_max| and the width is refused, as its points would repeat."""

    xi_min: float
    xi_max: float
    n: int
    singularities: Singularities = Singularities()
    pad: float = 0.0
    # [solution, table] of the last jets() call
    _jets: list = field(default_factory=list, init=False, repr=False,
                        compare=False)
    # [kept (xi, clearance) pairs], measured once; steps and windows read it
    _kept: list = field(default_factory=list, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs n >= 2")
        if not self.xi_min < self.xi_max:
            raise ValueError("grid needs xi_min < xi_max")
        width = self.xi_max - self.xi_min
        step = width / (self.n - 1)
        scale = max(abs(self.xi_min), abs(self.xi_max), width)
        if not step > 2.0 * math.ulp(scale):
            raise ValueError(
                f"[{self.xi_min!r}, {self.xi_max!r}] cannot hold n = "
                f"{self.n} distinct points: the step {step!r} is not above "
                f"2 ulp of {scale!r}")

    def _cleared(self) -> list[tuple[float, float]]:
        memo = self._kept
        if not memo:
            step = (self.xi_max - self.xi_min) / (self.n - 1)
            lattice = [self.xi_min + i * step for i in range(self.n)]
            sing, pad = self.singularities, self.pad
            if sing.period <= FD_MIN_STEP:  # no stencil reads such a lattice
                raise DomainError(f"the period {sing.period:.3e} is not above "
                                  f"the smallest stencil step {FD_MIN_STEP:g}")
            if sing.kind == "none":
                # clearance is inf at every point
                memo.append([(x, math.inf) for x in lattice]
                            if math.inf > pad else [])
            else:
                clearance = sing.clearance
                memo.append([(x, d) for x in lattice
                             if (d := clearance(x)) > pad])
        return memo[0]

    def _distances(self, sing: Singularities) -> list[tuple[float, float]]:
        """(xi, distance to ``sing``) at each kept point: the clearance kept
        when ``sing`` is the grid's own set, as for :meth:`for_solution`."""
        if sing == self.singularities:
            return self._cleared()
        return [(x, sing.distance(x)) for x, _ in self._cleared()]

    def points(self) -> list[float]:
        return [x for x, _ in self._cleared()]

    def jets(self, sol: Solution) -> list[tuple[float, float, float, float]]:
        """(xi, value, d1, d2) at each of :meth:`points`, in the solution's
        native variable: :func:`_jet_table` at the singularity-aware steps
        ``_steps(distances, FD_BASE_STEP)``.

        The grid keeps the last table, keyed by the solution's identity, so
        the oracles and ``sample`` that read one grid share one stencil
        pass; another solution computes afresh.

        The step is absolute in xi, so far from the origin the rounding of
        xi +- s and of the evaluator's phase swamps d2: on [100, 101] the
        ODE residual of correct closed forms reads 1e-8 to 3e-8, above its
        1e-8 tolerance, and on [1e4, 1e4 + 1] about 1e-6 to 2e-6.
        """
        memo = self._jets
        if memo and memo[0] is sol:
            return memo[1]
        kept = self._distances(sol.singularities)
        table = _jet_table(_native_evaluator(sol), [x for x, _ in kept],
                           _steps([d for _, d in kept], FD_BASE_STEP))
        memo[:] = [sol, table]
        return table

    @classmethod
    def for_solution(cls, sol: Solution, xi_min: float, xi_max: float,
                     n: int) -> "Grid":
        """Grid clear of the solution's singular set by its default pad."""
        sing = sol.singularities
        return cls(xi_min, xi_max, n, sing, sing.default_pad())


@dataclass(frozen=True)
class VerificationReport:
    oracle: str
    max_residual: float
    rms_residual: float
    points_used: int
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance

    def to_json(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "oracle": self.oracle,
            "pass": self.passed,
            "points_used": self.points_used,
            "rms_residual": self.rms_residual,
            "tolerance": self.tolerance,
        }


def _report(oracle: str, sol: Solution, residuals: list[float],
            tol: float) -> VerificationReport:
    if not residuals:
        raise EmptyGridError(f"{oracle}: exclusions removed every grid point")
    # fixed-order compensated sum keeps the reduction deterministic
    rms = math.sqrt(math.fsum(r * r for r in residuals) / len(residuals))
    if not math.isfinite(rms):  # max() drops a NaN unless first; JSON has none
        raise range_error(sol.c1, sol.lambda_gamma, f"the {oracle} residual")
    return VerificationReport(oracle, max(residuals), rms, len(residuals), tol)


def _steps(distances: list[float], base: float) -> list[float]:
    """The step policy: ``base``, shrunk to FD_SINGULAR_FRACTION of each
    distance to the singular set, floored at FD_MIN_STEP."""
    steps = []
    for d in distances:
        s = FD_SINGULAR_FRACTION * d
        if not s < base:
            s = base
        if FD_MIN_STEP > s:
            s = FD_MIN_STEP
        steps.append(s)
    return steps


def _jet_table(f, xs: list[float],
               steps: list[float]) -> list[tuple[float, float, float, float]]:
    """(x, f(x), f'(x), f''(x)) at each x, from Richardson-extrapolated
    central differences at steps s and s/2, each abscissa evaluated once."""
    table = []
    for x, s in zip(xs, steps):
        fx = f(x)
        fp, fm = f(x + s), f(x - s)
        hp, hm = f(x + 0.5 * s), f(x - 0.5 * s)
        table.append((
            x, fx, (4.0 * ((hp - hm) / s) - (fp - fm) / (2.0 * s)) / 3.0,
            (4.0 * ((hp - 2.0 * fx + hm) / (0.25 * s * s))
             - (fp - 2.0 * fx + fm) / (s * s)) / 3.0))
    return table


def _native_evaluator(sol: Solution):
    return sol.evaluate_psi if sol.psi_native else sol.evaluate_h


def ode_residuals(sol: Solution, frame: FrameParams,
                  table: list[tuple[float, float, float, float]]) -> list[float]:
    """Residual of the traveling ODE at each (xi, value, d1, d2) jet of
    ``sol``: the values ``ode_residual`` reports and ``sample`` prints.

    h-native: |h h'' - (h')^2 - f(h)| / max(1, |f(h)|); psi-native, the
    identical equation written in psi:
    |psi'' - source(psi)/(lambda gamma)| / max(1, |source/(lambda gamma)|).
    An empty table, or a NaN or inf residual, is refused with one line.
    """
    if not table:
        raise EmptyGridError("ode_residual: exclusions removed every grid point")
    desc = traveling_ode(family_params(sol.family), frame)
    if sol.psi_native:
        rhs_psi = desc.rhs_psi
        residuals = [abs(d2 - (rhs := rhs_psi(val))) / max(1.0, abs(rhs))
                     for _, val, _, d2 in table]
    else:
        f = desc.f
        residuals = [abs(val * d2 - d1 * d1 - (fh := f(val))) / max(1.0, abs(fh))
                     for _, val, d1, d2 in table]
    if all(map(math.isfinite, residuals)):
        return residuals
    raise range_error(sol.c1, sol.lambda_gamma, "the ode_residual residual")


def _nonvanishing_jets(sol: Solution,
                       grid: Grid) -> list[tuple[float, float, float, float]]:
    """:meth:`Grid.jets`, refused when h is +-0 at every point: h = 0 solves
    both traveling equations, so such a table checks nothing (far out on a
    tail, where h underflows).  The scan stops at the first nonzero value."""
    table = grid.jets(sol)
    if table and not sol.psi_native and not any(v for _, v, _, _ in table):
        raise EmptyGridError("h is zero at every grid point")
    return table


def ode_residual(sol: Solution, frame: FrameParams, grid: Grid,
                 tol: float = DEFAULT_ODE_TOL) -> VerificationReport:
    """Residual of the traveling ODE (see :func:`ode_residuals`) at the
    jets of :meth:`Grid.jets`."""
    table = _nonvanishing_jets(sol, grid)
    return _report("ode_residual", sol, ode_residuals(sol, frame, table), tol)


def first_integral_residual(sol: Solution, frame: FrameParams, c1: float,
                            grid: Grid, tol: float = DEFAULT_FI_TOL) -> VerificationReport:
    """Residual of (h')^2 = (2/(lambda gamma)) h^2 G(h) along the solution
    (psi-space analogue for the Gordon families), normalized by the larger
    of 1 and the two sides; it reads the jets of :meth:`Grid.jets`."""
    quad = first_integral(family_params(sol.family), frame, c1)
    two_r = 2.0 * frame.r
    table = _nonvanishing_jets(sol, grid)
    if sol.psi_native:
        g_psi = quad.g_psi
        rhss = [two_r * g_psi(val) for _, val, _, _ in table]
    else:
        g = quad.g
        rhss = [two_r * val * val * g(val) for _, val, _, _ in table]
    residuals = [abs(d1 * d1 - rhs) / max(1.0, d1 * d1, abs(rhs))
                 for (_, _, d1, _), rhs in zip(table, rhss)]
    return _report("first_integral_residual", sol, residuals, tol)


# ---------------------------------------------------------------------------
# adaptive embedded Runge-Kutta shooting
# ---------------------------------------------------------------------------

# DOP853 (Hairer, Norsett & Wanner, *Solving ODEs I*, II.10; the literals of
# Hairer's dop853.f as SciPy's dop853_coefficients.py prints them): the 12
# stages of the eighth-order step, rows of the stage matrix with their zeros,
# dropped once, at import.  y'' = acc(y) is autonomous: no node c_i is needed
_DOP_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
)
# weights of the eighth-order solution
_DOP_B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
          4.45031289275240888144113950566, 1.89151789931450038304281599044,
          -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
          -1.52160949662516078556178806805e-1,
          2.01365400804030348374776537501e-1,
          4.47106157277725905176885569043e-2)
# error weights of the fifth-order estimate
_DOP_E5 = (0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
           -0.1225156446376204440720569753e+1,
           -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
           -0.3503288487499736816886487290, 0.3341791187130174790297318841,
           0.8192320648511571246570742613e-1,
           -0.2235530786388629525884427845e-1)
# error weights of the third-order estimate: _DOP_B minus the weights bhh
# of the embedded third-order solution
_DOP_E3 = tuple(b - bhh for b, bhh in zip(_DOP_B, (
    0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.733846688281611857341361741547, 0.0, 0.0,
    0.220588235294117647058823529412e-1)))

# the nonzero (j, a) of each row of _DOP_A and of _DOP_B, _DOP_E5, _DOP_E3
_DOP_STAGES, _DOP_WEIGHTS = (
    tuple(tuple((j, a) for j, a in enumerate(row) if a) for row in rows)
    for rows in (_DOP_A, (_DOP_B, _DOP_E5, _DOP_E3)))

# attempted steps per rk_integrate call, over all its segments, before it
# gives up; a shoot of the battery that finishes took at most 815 over the
# census of ROADMAP item 2 (|lambda gamma| in [0.01, 100])
RK_MAX_STEPS = 20_000
# the estimated error amplification past which rk_integrate restarts a
# segment: the global/local error ratio that one unsegmented trajectory
# reached on the catalogued forms at |lambda gamma| in [0.5, 2]
SHOOT_MAX_GAIN = 2.2e3


def _growth_rate(acc, y: float) -> float:
    """sqrt(max(0, d acc/dy)) at y, from a central difference: the rate at
    which y'' = acc(y) amplifies a perturbation of its state there.  inf
    where acc raises or reads non-finite."""
    d = 1.0e-6 * max(1.0, abs(y))
    try:
        slope = (acc(y + d) - acc(y - d)) / (2.0 * d)
    except (OverflowError, ValueError):
        return math.inf
    if slope > 0.0:
        return math.sqrt(slope)
    return 0.0 if slope <= 0.0 else math.inf  # NaN


def _start_rate(acc, state: list[float]) -> float:
    """The growth rate at a segment's start state: its third entry where
    the caller measured it, else :func:`_growth_rate` at its value."""
    return state[2] if len(state) > 2 else _growth_rate(acc, state[0])


def rk_integrate(acc, t0: float, y0: list[float], t_end: float,
                 rtol: float = 1.0e-10, atol: float = 1.0e-10,
                 restart=None):
    """Adaptive DOP853 integration of y'' = acc(y) with state y0 = [y, y']
    at t0: twelve acc calls per attempted step.

    Returns [(t, [y, y'])] at every accepted step, the last at t_end (to
    1e-14 relative); an empty span returns [].  The
    error norm is DOP853's: with e5 and e3 the sums over both components of
    (err / (atol + rtol max(|y|, |y_new|)))^2 for the fifth- and third-order
    estimates, e5 / sqrt(2 (e5 + 0.01 e3)).  A step grows at most 5-fold
    and shrinks at most 10-fold; a stage that overflows, raises ValueError
    or is not finite rejects the step with the full shrink.

    With ``restart`` (t -> [y, y'] of the exact trajectory), the span is
    integrated in segments (multiple shooting; Stoer and Bulirsch,
    *Introduction to Numerical Analysis*, 7.3.5): a segment ends at the
    first accepted step where its estimated amplification exp(int
    :func:`_growth_rate` dt), by the trapezoid rule over its accepted
    steps (two more acc calls a step, and two at each start whose state
    does not carry its rate), passes SHOOT_MAX_GAIN, and the next starts
    there from ``restart(t)``, with the first step's size rule, as the
    first did from y0.  The state at that step is returned as integrated.
    A start state, y0 or a ``restart`` value, may carry the rate at y as a
    third entry, [y, y', rate]: :func:`shoot_and_compare` measures it for
    its own start check and hands it over.

    Raises StepSizeUnderflowError when the controller collapses, typically
    against a blow-up, when a segment's first accepted step already passes
    SHOOT_MAX_GAIN, or after RK_MAX_STEPS attempted steps; the exception
    carries the span reached.
    """
    direction = 1.0 if t_end >= t0 else -1.0
    out = []
    t = t0
    y, v = y0[:2]

    def first_step(t):
        return direction * min(1e-2, abs(t_end - t) / 10.0 + 1e-12)

    h = first_step(t0)
    attempts = 0
    if restart is not None:
        max_log_gain = math.log(SHOOT_MAX_GAIN)
        rate, log_gain, fresh = _start_rate(acc, y0), 0.0, True
    while (t_end - t) * direction > 1e-14 * max(1.0, abs(t_end)):
        if attempts == RK_MAX_STEPS:
            raise StepSizeUnderflowError(
                f"step limit of {RK_MAX_STEPS} steps reached at t={t}",
                span_reached=t - t0)
        attempts += 1
        if abs(h) > abs(t_end - t):
            h = t_end - t
        try:
            # the operations of the list-state stepper in tests/test_verify.py
            # in its order: stage i adds (h a_ij) v_j to y, (h a_ij) k_j to v
            vs, ks, total = [], [], 0.0
            for row in _DOP_STAGES:
                yi, vi = y, v
                for j, a in row:
                    c = h * a
                    yi += c * vs[j]
                    vi += c * ks[j]
                vs.append(vi)
                ks.append(acc(yi))
                total += ks[-1]
            sums = []
            for weights in _DOP_WEIGHTS:
                wy = wv = 0.0
                for j, w in weights:
                    wy += w * vs[j]
                    wv += w * ks[j]
                sums += h * wy, h * wv
            dy, dv, e5y, e5v, e3y, e3v = sums
            y_new, v_new = y + dy, v + dv
            sy = atol + rtol * max(abs(y), abs(y_new))
            sv = atol + rtol * max(abs(v), abs(v_new))
            e5_sq = 0.0 + (e5y / sy) ** 2 + (e5v / sv) ** 2
            e3_sq = 0.0 + (e3y / sy) ** 2 + (e3v / sv) ** 2
            # a sum is finite exactly when every term is, unless the sum
            # itself overflows, which rejects the step as well
            finite = math.isfinite(total + y_new + v_new + e5_sq + e3_sq)
        except (OverflowError, ValueError):
            finite = False
        if not finite:
            h *= 0.1
        else:
            enorm = (e5_sq / math.sqrt(2.0 * (e5_sq + 0.01 * e3_sq))
                     if e5_sq else 0.0)
            if enorm <= 1.0:
                t += h
                y, v = y_new, v_new
                out.append((t, [y, v]))
                if restart is not None:
                    rate_new = _growth_rate(acc, y)
                    log_gain += 0.5 * abs(h) * (rate + rate_new)
                    if log_gain > max_log_gain:
                        if fresh:
                            raise StepSizeUnderflowError(
                                f"step amplification past {SHOOT_MAX_GAIN:g} "
                                f"within one step at t={t}",
                                span_reached=t - t0)
                        # the next segment starts as the first did
                        y0 = restart(t)
                        y, v = y0[:2]
                        h = first_step(t)
                        rate, log_gain, fresh = _start_rate(acc, y0), 0.0, True
                        continue
                    rate, fresh = rate_new, False
                h *= (5.0 if enorm == 0.0
                      else min(5.0, 0.9 * enorm ** -0.125))
            else:
                h *= max(0.1, 0.9 * enorm ** -0.125)
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise StepSizeUnderflowError(
                f"step underflow at t={t} (blow-up?)",
                span_reached=t - t0)
    return out


def _acceleration(quad: QuadratureDescriptor, psi_native: bool):
    """value -> its second derivative by the differentiated first
    integral: psi'' = r G_psi'(psi), or h'' = r (2 h G(h) + h^2 G'(h))."""
    r = quad.r
    if psi_native:
        g_psi_prime = quad.g_psi_prime

        def acc(psi):
            return r * g_psi_prime(psi)
    else:
        g, g_prime = quad.g, quad.g_prime

        def acc(h):
            return r * (2.0 * h * g(h) + h * h * g_prime(h))
    return acc


def shoot_and_compare(quad: QuadratureDescriptor, sol: Solution,
                      xi_start: float, span: float,
                      tol: float = DEFAULT_SHOOT_TOL) -> VerificationReport:
    """Integrate the differentiated first integral y'' = acc(y) (polynomial
    in h, regular through h = 0; see :func:`_acceleration`) by
    :func:`rk_integrate` over [xi_start, xi_start + span] and report the
    maximum deviation of the value from the closed form, compared at every
    accepted step.

    The span is shot in segments.  Each starts from the state (value,
    slope) read off the closed form, the slope from a one-row
    :func:`_jet_table` on the evaluator, and ends at the first accepted
    step where its estimated error amplification passes SHOOT_MAX_GAIN =
    2.2e3: the global/local error ratio that one trajectory over the whole
    span reached on the catalogued forms at |lambda gamma| in [0.5, 2]
    (Tzitzeica dark soliton at lambda gamma = 0.574).  Integrated to local
    error SHOOT_RK_TOL = 1e-6 x DEFAULT_SHOOT_TOL, the global error of a
    segment follows it (Hairer-Norsett-Wanner I, II.4) by up to 185 on
    those forms (40 cases at 16 values of |lambda gamma| each; the
    Tzitzeica dark soliton at lambda gamma = 0.5), and by up to 273 on the
    sinh-Gordon kink at lambda gamma = 0.131 and the Liouville soliton at
    -0.205 and -0.0271, each against the same start integrated at 1e-15.

    A start whose stencil step s amplifies past the bound by itself,
    exp(rate s) > SHOOT_MAX_GAIN with the rate of :func:`_growth_rate`,
    cannot be read, and raises StepSizeUnderflowError, as do a collapsing
    step, a segment whose first accepted step passes the bound and more
    than RK_MAX_STEPS attempted steps over all segments.
    """
    if not isinstance(quad, QuadratureDescriptor):
        raise TypeError("shoot_and_compare integrates the first integral; "
                        "pass a QuadratureDescriptor")
    evaluate = _native_evaluator(sol)
    distance = sol.singularities.distance
    acc = _acceleration(quad, sol.psi_native)

    def start(xi):
        (step,) = _steps([distance(xi)], FD_BASE_STEP)
        (_, value, slope, _), = _jet_table(evaluate, [xi], [step])
        rate = _growth_rate(acc, value)
        if rate * step > math.log(SHOOT_MAX_GAIN):
            raise StepSizeUnderflowError(
                f"step {step:g} of the start stencil at xi={xi} amplifies "
                f"past {SHOOT_MAX_GAIN:g}: the start cannot be read",
                span_reached=xi - xi_start)
        return [value, slope, rate]

    path = rk_integrate(acc, xi_start, start(xi_start), xi_start + span,
                        rtol=SHOOT_RK_TOL, atol=SHOOT_RK_TOL, restart=start)
    residuals = [abs(y - evaluate(t)) for t, (y, _) in path]
    return _report("shoot_and_compare", sol, residuals, tol)


# ---------------------------------------------------------------------------
# light-cone residual by the Goursat identity
# ---------------------------------------------------------------------------

# 8-point Gauss-Legendre (node, weight) on [0, 1], exact for degree <= 15
_GL8 = tuple(zip(
    (0.019855071751231884, 0.10166676129318664, 0.2372337950418355,
     0.4082826787521751, 0.591717321247825, 0.7627662049581645,
     0.8983332387068134, 0.9801449282487681),
    (0.05061426814518813, 0.11119051722668724, 0.15685332293894363,
     0.181341891689181, 0.181341891689181, 0.15685332293894363,
     0.11119051722668724, 0.05061426814518813)))
# (node t, kernel weight c (1 - t)) of the Goursat quadrature
_GL8_KERNEL = tuple((t, c * (1.0 - t)) for t, c in _GL8)


def pde_residual(sol: Solution, frame: FrameParams, grid: Grid,
                 tol: float = DEFAULT_PDE_TOL) -> VerificationReport:
    """Residual of the light-cone form (log h)_uv = alpha h^a + beta h^b by
    the exact characteristic-rectangle (Goursat) identity, which takes no
    derivative (Evans, *PDE*, 2.4; Courant-Hilbert II, ch. V).

    With z = u - lambda v, t = u + lambda v, xi = k z - omega t = p u + q v:
    p = k - omega, q = -lambda (k + omega), so pq = lambda (omega^2 - k^2)
    = lambda gamma, read as ``frame.lambda_gamma``.  With L = psi, S =
    source_psi (psi-native) or L = log|h|, S = source, the rectangle with
    corners at xi = x - w, x, x, x + w gives L(x+w) - 2 L(x) + L(x-w) =
    (w^2/pq) int_0^1 (1 - t) [S(x+wt) + S(x-wt)] dt, by ``_GL8`` here.
    Residual: |lhs - rhs| / max(w^2, |rhs|), on every ceil(m/PDE_WINDOWS)-th
    of the grid's m kept points, w from ``_steps(distances,
    PDE_HALF_WIDTH)``, 19 evaluations each.  log|h| and h^b are singular
    where h = 0, so an h-native window counts only if all 19 values keep
    the centre's sign and half its magnitude (a NaN keeps neither).  If
    no window counts, EmptyGridError names the rule that skipped them.
    """
    desc = traveling_ode(family_params(sol.family), frame)
    pq = frame.lambda_gamma
    psi_native = sol.psi_native
    value_of = _native_evaluator(sol)
    source = desc.source_psi if psi_native else desc.source
    log = math.log
    kept = grid._distances(sol.singularities)
    stride = max(1, -(-len(kept) // PDE_WINDOWS))
    centres = kept[stride // 2::stride]
    residuals = []
    signed = halved = False  # why windows were skipped
    for (x, _), w in zip(centres, _steps([d for _, d in centres],
                                         PDE_HALF_WIDTH)):
        mid, lo, hi = value_of(x), value_of(x - w), value_of(x + w)
        pairs = [(value_of(x + w * t), value_of(x - w * t))
                 for t, _ in _GL8_KERNEL]
        if psi_native:
            lhs = hi - 2.0 * mid + lo
        elif (mid != 0.0 and lo / mid >= 0.5 and hi / mid >= 0.5
              and all([a / mid >= 0.5 and b / mid >= 0.5 for a, b in pairs])):
            lhs = log(abs(hi)) - 2.0 * log(abs(mid)) + log(abs(lo))
        else:  # skipped: by the sign rule, or by the half rule alone
            if mid != 0.0 and all([v / mid > 0.0
                                   for v in (lo, hi, *sum(pairs, ()))]):
                halved = True
            else:
                signed = True
            continue
        quad = 0.0  # left to right, as on every Python version
        for (_, k), (a, b) in zip(_GL8_KERNEL, pairs):
            quad += k * (source(a) + source(b))
        rhs = w * w / pq * quad
        residuals.append(abs(lhs - rhs) / max(w * w, abs(rhs)))
    if kept and not residuals:
        rules = [rule for rule, hit in (
            ("is zero or changes sign", signed),
            ("drops below half its centre's magnitude", halved)) if hit]
        raise EmptyGridError(f"h {' or '.join(rules)} in every window")
    return _report("pde_residual", sol, residuals, tol)


# ---------------------------------------------------------------------------
# implicit hypergeometric check
# ---------------------------------------------------------------------------

def implicit_residual_check(rel: ImplicitRelation, sol: Solution, grid: Grid,
                            tol: float = DEFAULT_IMPLICIT_TOL) -> VerificationReport:
    """|lhs(h(xi)) - rhs(xi)| along a c1 = 0 solution.

    The sign branch and the integration offset are fixed by matching at
    the grid's first point, so h must be monotone on the grid; every point
    must keep the hypergeometric argument below its branch point 1.
    """
    pts = grid.points()
    if len(pts) < 2:
        raise EmptyGridError("implicit check needs at least two grid points")
    hs = []
    for xi in pts:
        h = sol.evaluate_h(xi)
        if not rel.in_domain(h):
            raise DomainError(
                f"h({xi}) = {h} takes the 2F1 argument to 1 or beyond")
        hs.append(h)
    l0 = rel.lhs(hs[0])
    l1 = rel.lhs(hs[1])
    sign = 1.0 if l1 >= l0 else -1.0
    # lhs(h(xi)) = sign * (xi - xi0_eff)/denom
    xi0_eff = pts[0] - sign * l0 * rel.slope_denom
    residuals = [abs(rel.lhs(h) - sign * (xi - xi0_eff) / rel.slope_denom)
                 for xi, h in zip(pts, hs)]
    return _report("implicit_residual_check", sol, residuals, tol)


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------

def _shoot_window(sol: Solution) -> tuple[float, float]:
    """A span of length <= 5 clear of the singular set, started where the
    profile is flattest (initial slope read off by differences is most
    accurate there)."""
    sing = sol.singularities
    xi0 = sol.frame.xi0
    if sing.kind == "none":
        return xi0, 5.0
    if sing.kind == "half_line":
        return (xi0 - 6.0, 5.0) if sing.valid_side < 0 else (xi0 + 6.0, -5.0)
    if sing.kind == "isolated":
        return max(p for p in sing.points) + 2.5, 5.0
    period = sing.period
    if sing.kind == "lattice_windows":
        return xi0, 0.8 * sing.half_width
    # lattice: launch from the mid-period turning point
    start = sing.offset + 0.5 * period
    return start, min(5.0, 0.32 * period)


def _implicit_grid(sol: Solution) -> Grid:
    """The first 0.45 of a pole period (every c1 = 0 solution with a real
    implicit form has a pole lattice), cleared of the pole by the default
    pad: h is strictly monotone there, and the 2F1 argument at the far end,
    by homogeneity the same at every lambda gamma, is 0.665 for the cubic
    pair and -1.695 (branch 1) or -0.590 (branch -1) for sinh-Gordon."""
    sing = sol.singularities
    return Grid.for_solution(sol, sing.offset, sing.offset + 0.45 * sing.period, 64)


def battery(sol: Solution, grid: Grid, *, tol_ode: float = DEFAULT_ODE_TOL,
            tol_first_integral: float = DEFAULT_FI_TOL,
            tol_shoot: float = DEFAULT_SHOOT_TOL,
            tol_pde: float = DEFAULT_PDE_TOL,
            tol_implicit: float = DEFAULT_IMPLICIT_TOL,
            ) -> tuple[list[VerificationReport], list[tuple[str, str]]]:
    """Run every oracle that applies to ``sol``, in this order: the ODE and
    first-integral residuals on ``grid``, shooting over
    :func:`_shoot_window`, the PDE residual on ``grid`` and, at c1 = 0, the
    implicit 2F1 check on :func:`_implicit_grid`.

    Returns (reports, skipped), ``skipped`` holding an (oracle, reason)
    pair for each oracle that had nothing to check.  One rule decides a
    skip: the oracle raised EmptyGridError, or, for the 2F1 check,
    ``implicit_relation`` has no real form for this family and sign of
    lambda gamma.  Every other error propagates, and so does a ``grid``
    whose exclusions removed every point: the solution does not exist
    there, which fails the request rather than skipping its oracles.
    """
    if not grid.points():
        raise EmptyGridError("ode_residual: exclusions removed every grid point")
    frame = sol.frame
    reports: list[VerificationReport] = []
    skipped: list[tuple[str, str]] = []

    def run(oracle: str, check) -> None:
        try:
            reports.append(check())
        except EmptyGridError as e:
            skipped.append((oracle, str(e)))

    run("ode_residual", lambda: ode_residual(sol, frame, grid, tol=tol_ode))
    run("first_integral_residual", lambda: first_integral_residual(
        sol, frame, sol.c1, grid, tol=tol_first_integral))
    run("shoot_and_compare", lambda: shoot_and_compare(
        first_integral(family_params(sol.family), frame, sol.c1), sol,
        *_shoot_window(sol), tol=tol_shoot))
    run("pde_residual", lambda: pde_residual(sol, frame, grid, tol=tol_pde))
    if sol.c1 == 0.0:
        try:
            rel = implicit_relation(sol.family, frame)
        except ExpwaveError as e:
            skipped.append(("implicit_residual_check", str(e)))
        else:
            run("implicit_residual_check", lambda: implicit_residual_check(
                rel, sol, _implicit_grid(sol), tol=tol_implicit))
    return reports, skipped
