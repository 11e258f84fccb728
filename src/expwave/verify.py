"""Independent numerical oracles for constructed solutions.

Three deliberately separate routes check every closed form:

* the ODE and first-integral oracles differentiate the evaluator with
  Richardson-extrapolated central differences and plug into the
  traveling equation;
* the shooting oracle integrates the differentiated first integral with
  an adaptive embedded Runge-Kutta pair and compares trajectories;
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
    ``singularities.keeps(xi, pad)`` accepts, strictly increasing."""

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

    def _cleared(self) -> list[tuple[float, float]]:
        memo = self._kept
        if not memo:
            step = (self.xi_max - self.xi_min) / (self.n - 1)
            lattice = [self.xi_min + i * step for i in range(self.n)]
            sing, pad = self.singularities, self.pad
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


def _report(oracle: str, residuals: list[float], tol: float) -> VerificationReport:
    if not residuals:
        raise EmptyGridError(f"{oracle}: exclusions removed every grid point")
    # fixed-order compensated sum keeps the reduction deterministic
    rms = math.sqrt(math.fsum(r * r for r in residuals) / len(residuals))
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
    """
    desc = traveling_ode(family_params(sol.family), frame)
    if sol.psi_native:
        rhs_psi = desc.rhs_psi
        return [abs(d2 - (rhs := rhs_psi(val))) / max(1.0, abs(rhs))
                for _, val, _, d2 in table]
    f = desc.f
    return [abs(val * d2 - d1 * d1 - (fh := f(val))) / max(1.0, abs(fh))
            for _, val, d1, d2 in table]


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
    return _report("ode_residual", ode_residuals(sol, frame, table), tol)


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
    return _report("first_integral_residual", residuals, tol)


# ---------------------------------------------------------------------------
# adaptive embedded Runge-Kutta shooting
# ---------------------------------------------------------------------------

# Cash-Karp 5(4) embedded pair (ACM TOMS 16, 1990); y'' = acc(y) is
# autonomous, so the nodes c_i are never needed
_CK_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (3.0 / 10.0, -9.0 / 10.0, 6.0 / 5.0),
    (-11.0 / 54.0, 5.0 / 2.0, -70.0 / 27.0, 35.0 / 27.0),
    (1631.0 / 55296.0, 175.0 / 512.0, 575.0 / 13824.0,
     44275.0 / 110592.0, 253.0 / 4096.0),
)
_CK_B5 = (37.0 / 378.0, 0.0, 250.0 / 621.0, 125.0 / 594.0, 0.0, 512.0 / 1771.0)
_CK_B4 = (2825.0 / 27648.0, 0.0, 18575.0 / 48384.0, 13525.0 / 55296.0,
          277.0 / 14336.0, 1.0 / 4.0)
# error weights: fifth- minus fourth-order solution
_CK_E = tuple(b5 - b4 for b5, b4 in zip(_CK_B5, _CK_B4))


def rk_integrate(acc, t0: float, y0: list[float], t_end: float,
                 rtol: float = 1.0e-10, atol: float = 1.0e-10,
                 sample_times: list[float] | None = None):
    """Adaptive Cash-Karp integration of y'' = acc(y) with state
    y0 = [y, y'] at t0.

    Returns [(t, [y, y'])] at the requested sample times (t_end alone when
    none given); every sample time must lie between t0 and t_end.  The
    error norm is the RMS over both components of err / (atol + rtol |y|).
    Raises StepSizeUnderflowError when the controller collapses, typically
    against a blow-up; the exception carries the span reached.
    """
    direction = 1.0 if t_end >= t0 else -1.0
    targets = (sorted(sample_times, reverse=direction < 0.0)
               if sample_times else [t_end])
    if any((tt - t0) * direction < -1e-12 or (t_end - tt) * direction < -1e-12
           for tt in targets):
        raise ValueError("sample times must lie between t0 and t_end")
    ((), (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43),
     (a50, a51, a52, a53, a54)) = _CK_A
    b0, b1, b2, b3, b4, b5 = _CK_B5
    e0, e1, e2, e3, e4, e5 = _CK_E
    out = []
    t = t0
    y, v = y0
    h = direction * min(1e-2, abs(t_end - t0) / 10.0 + 1e-12)
    for target in targets:
        while (target - t) * direction > 1e-14 * max(1.0, abs(target)):
            if abs(h) > abs(target - t):
                h = target - t
            # stage i: value y_i, slope v_i, acceleration k_i; c_ij = h a_ij
            k0 = acc(y)
            c10 = h * a10
            y1 = y + c10 * v
            v1 = v + c10 * k0
            k1 = acc(y1)
            c20, c21 = h * a20, h * a21
            y2 = y + c20 * v + c21 * v1
            v2 = v + c20 * k0 + c21 * k1
            k2 = acc(y2)
            c30, c31, c32 = h * a30, h * a31, h * a32
            y3 = y + c30 * v + c31 * v1 + c32 * v2
            v3 = v + c30 * k0 + c31 * k1 + c32 * k2
            k3 = acc(y3)
            c40, c41, c42, c43 = h * a40, h * a41, h * a42, h * a43
            y4 = y + c40 * v + c41 * v1 + c42 * v2 + c43 * v3
            v4 = v + c40 * k0 + c41 * k1 + c42 * k2 + c43 * k3
            k4 = acc(y4)
            c50, c51, c52, c53, c54 = (h * a50, h * a51, h * a52, h * a53,
                                       h * a54)
            y5 = y + c50 * v + c51 * v1 + c52 * v2 + c53 * v3 + c54 * v4
            v5 = v + c50 * k0 + c51 * k1 + c52 * k2 + c53 * k3 + c54 * k4
            k5 = acc(y5)
            # every operation is the one the generic stepper on a list
            # state in tests/test_verify.py makes, in its order: each sum
            # runs left to right from 0.0, zero weights included
            y_new = y + h * (0.0 + b0 * v + b1 * v1 + b2 * v2 + b3 * v3
                             + b4 * v4 + b5 * v5)
            v_new = v + h * (0.0 + b0 * k0 + b1 * k1 + b2 * k2 + b3 * k3
                             + b4 * k4 + b5 * k5)
            err_y = h * (0.0 + e0 * v + e1 * v1 + e2 * v2 + e3 * v3 + e4 * v4
                         + e5 * v5)
            err_v = h * (0.0 + e0 * k0 + e1 * k1 + e2 * k2 + e3 * k3
                         + e4 * k4 + e5 * k5)
            enorm = math.sqrt((
                0.0 + (err_y / (atol + rtol * max(abs(y), abs(y_new)))) ** 2
                + (err_v / (atol + rtol * max(abs(v), abs(v_new)))) ** 2) / 2)
            if enorm <= 1.0:
                t += h
                y, v = y_new, v_new
                grow = 5.0 if enorm == 0.0 else min(5.0, 0.9 * enorm ** -0.2)
                h *= grow
            else:
                h *= max(0.1, 0.9 * enorm ** -0.25)
            if abs(h) < 1e-14 * max(1.0, abs(t)):
                raise StepSizeUnderflowError(
                    f"step underflow at t={t} (blow-up?)",
                    span_reached=t - t0)
        out.append((t, [y, v]))
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
    :func:`rk_integrate` from the state (value, slope) read off the closed
    form and report the maximum deviation of the value.

    The initial slope comes from :func:`_jet_table` on the evaluator;
    the trajectory is compared at 50 equispaced points, integrated to local
    error SHOOT_RK_TOL = 1e-6 x DEFAULT_SHOOT_TOL: the global error follows
    it (Hairer-Norsett-Wanner I, II.4) by up to 1e4 (Tzitzeica dark soliton
    at lambda gamma = 0.5018).
    """
    if not isinstance(quad, QuadratureDescriptor):
        raise TypeError("shoot_and_compare integrates the first integral; "
                        "pass a QuadratureDescriptor")
    evaluate = _native_evaluator(sol)
    (_, value, slope, _), = _jet_table(evaluate, [xi_start], _steps(
        [sol.singularities.distance(xi_start)], FD_BASE_STEP))
    acc = _acceleration(quad, sol.psi_native)
    times = [xi_start + span * i / 50 for i in range(1, 51)]
    path = rk_integrate(acc, xi_start, [value, slope], xi_start + span,
                        rtol=SHOOT_RK_TOL, atol=SHOOT_RK_TOL, sample_times=times)
    residuals = [abs(y[0] - evaluate(t)) for t, y in path]
    return _report("shoot_and_compare", residuals, tol)


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
    p = k - omega, q = -lambda (k + omega).  With L = psi, S = source_psi
    (psi-native) or L = log|h|, S = source, the rectangle with corners at
    xi = x - w, x, x, x + w gives L(x+w) - 2 L(x) + L(x-w) =
    (w^2/pq) int_0^1 (1 - t) [S(x+wt) + S(x-wt)] dt, by ``_GL8`` here.
    Residual: |lhs - rhs| / max(w^2, |rhs|), on every ceil(m/PDE_WINDOWS)-th
    of the grid's m kept points, w from ``_steps(distances,
    PDE_HALF_WIDTH)``, 19 evaluations each.  log|h| and h^b are singular
    where h = 0, so an h-native window counts only if all 19 values keep
    the centre's sign and half its magnitude (a NaN keeps neither).
    """
    desc = traveling_ode(family_params(sol.family), frame)
    pq = (frame.k - frame.omega) * -frame.lam * (frame.k + frame.omega)
    psi_native = sol.psi_native
    value_of = _native_evaluator(sol)
    source = desc.source_psi if psi_native else desc.source
    log = math.log
    kept = grid._distances(sol.singularities)
    stride = max(1, -(-len(kept) // PDE_WINDOWS))
    centres = kept[stride // 2::stride]
    residuals = []
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
        else:
            continue
        quad = 0.0  # left to right, as on every Python version
        for (_, k), (a, b) in zip(_GL8_KERNEL, pairs):
            quad += k * (source(a) + source(b))
        rhs = w * w / pq * quad
        residuals.append(abs(lhs - rhs) / max(w * w, abs(rhs)))
    if kept and not residuals:
        raise EmptyGridError("h is zero or changes sign in every window")
    return _report("pde_residual", residuals, tol)


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
    return _report("implicit_residual_check", residuals, tol)


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
