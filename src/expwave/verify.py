"""Independent numerical oracles for constructed solutions.

Two deliberately separate routes check every closed form:

* residual oracles differentiate the evaluator with Richardson-extrapolated
  central differences and plug into the governing equation;
* the shooting oracle integrates the differentiated first integral with
  an adaptive embedded Runge-Kutta pair from matched initial conditions
  and compares trajectories.

The routes share nothing but the Solution object itself, so a defect in
the special-function kernels cannot hide from both at once.

Residuals are normalized: the second-order form by max(1, |f(h)|) (or the
psi-space source), the first-integral form by the magnitude of its two
sides.  Near declared singularities the stencil step shrinks
proportionally to the distance from the singular set, which keeps the
truncation error of the h ~ 1/(xi - xi_s)^2 blow-up profiles below the
1e-8 targets while staying out of roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    DomainError,
    EmptyGridError,
    StepSizeUnderflowError,
)
from .reduction import (
    FamilyLabel,
    FrameParams,
    OdeDescriptor,
    QuadratureDescriptor,
    family_params,
    first_integral,
    traveling_ode,
)
from .singular import Singularities
from .solutions import ImplicitRelation, Solution
from .specfun.weierstrass import WeierstrassInvariants, prepare_weierstrass

# Stencil-step policy: base step near the roundoff/truncation balance for
# fourth-order differences (the elliptic evaluators carry ~1e-14 jitter,
# which 1/s^2 amplifies), shrunk in proportion to the distance from the
# nearest declared singularity.
FD_BASE_STEP = 4.0e-3
FD_SINGULAR_FRACTION = 5.0e-3
FD_MIN_STEP = 1.0e-6

DEFAULT_ODE_TOL = 1.0e-8
DEFAULT_FI_TOL = 1.0e-8
DEFAULT_WP_TOL = 1.0e-10
DEFAULT_SHOOT_TOL = 1.0e-6
DEFAULT_PDE_TOL = 1.0e-6
DEFAULT_IMPLICIT_TOL = 1.0e-8


@dataclass(frozen=True)
class Grid:
    """The n equispaced points of [xi_min, xi_max] that
    ``singularities.keeps(xi, pad)`` accepts, strictly increasing."""

    xi_min: float
    xi_max: float
    n: int
    singularities: Singularities = Singularities()
    pad: float = 0.0
    # [solution, fd_step, table] of the last jets() call
    _jets: list = field(default_factory=list, init=False, repr=False,
                        compare=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs n >= 2")
        if not self.xi_min < self.xi_max:
            raise ValueError("grid needs xi_min < xi_max")

    def points(self) -> list[float]:
        step = (self.xi_max - self.xi_min) / (self.n - 1)
        keeps, pad = self.singularities.keeps, self.pad
        return [x for x in (self.xi_min + i * step for i in range(self.n))
                if keeps(x, pad)]

    def jets(self, sol: Solution, fd_step: float = FD_BASE_STEP
             ) -> list[tuple[float, float, float, float]]:
        """(xi, value, d1, d2) at each of :meth:`points`, in the solution's
        native variable, from the Richardson stencil at the
        singularity-aware step ``_step_at(xi, ..., fd_step)``.

        The grid keeps the last table, keyed by the solution's identity and
        the step, so the oracles and ``sample`` that read one grid share one
        stencil pass; another solution or step computes afresh.

        The step is absolute in xi, so far from the origin the rounding of
        xi +- s and of the evaluator's phase swamps d2: on [100, 101] the
        ODE residual of correct closed forms reads 1e-8 to 3e-8, above its
        1e-8 tolerance, and on [1e4, 1e4 + 1] about 1e-6 to 2e-6.
        """
        memo = self._jets
        if memo and memo[0] is sol and memo[1] == fd_step:
            return memo[2]
        evaluate = _native_evaluator(sol)
        sing = sol.singularities
        table = [(xi, *_stencil(evaluate, xi, _step_at(xi, sing, fd_step)))
                 for xi in self.points()]
        memo[:] = [sol, fd_step, table]
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


def _step_at(xi: float, sing: Singularities, base: float) -> float:
    d = sing.distance(xi)
    s = base
    if math.isfinite(d):
        s = min(s, FD_SINGULAR_FRACTION * d)
    return max(s, FD_MIN_STEP)


def _stencil(f, x: float, s: float,
             fx: float | None = None) -> tuple[float, float, float]:
    """(f(x), f'(x), f''(x)) from Richardson-extrapolated central
    differences at steps s and s/2, each abscissa evaluated once (the
    centre not at all when the caller passes f(x) as fx)."""
    if fx is None:
        fx = f(x)
    fp, fm = f(x + s), f(x - s)
    hp, hm = f(x + 0.5 * s), f(x - 0.5 * s)
    d1 = (4.0 * ((hp - hm) / s) - (fp - fm) / (2.0 * s)) / 3.0
    d2 = (4.0 * ((hp - 2.0 * fx + hm) / (0.25 * s * s))
          - (fp - 2.0 * fx + fm) / (s * s)) / 3.0
    return fx, d1, d2


def _native_evaluator(sol: Solution):
    return sol.evaluate_psi if sol.psi_native else sol.evaluate_h


def _ode_point_residual(desc: OdeDescriptor, psi_native: bool, val: float,
                        d1: float, d2: float) -> float:
    """Residual of the traveling ODE at one (value, d1, d2) jet.

    h-native: |h h'' - (h')^2 - f(h)| / max(1, |f(h)|); psi-native, the
    identical equation written in psi:
    |psi'' - source(psi)/(lambda gamma)| / max(1, |source/(lambda gamma)|).
    """
    if psi_native:
        rhs = desc.rhs_psi(val)
        return abs(d2 - rhs) / max(1.0, abs(rhs))
    fh = desc.f(val)
    return abs(val * d2 - d1 * d1 - fh) / max(1.0, abs(fh))


def ode_residual(sol: Solution, frame: FrameParams, grid: Grid,
                 tol: float = DEFAULT_ODE_TOL,
                 fd_step: float = FD_BASE_STEP) -> VerificationReport:
    """Residual of the traveling ODE (see :func:`_ode_point_residual`) at
    the jets of :meth:`Grid.jets`."""
    desc = traveling_ode(family_params(sol.family), frame)
    residuals = [_ode_point_residual(desc, sol.psi_native, val, d1, d2)
                 for _, val, d1, d2 in grid.jets(sol, fd_step)]
    return _report("ode_residual", residuals, tol)


def first_integral_residual(sol: Solution, frame: FrameParams, c1: float,
                            grid: Grid, tol: float = DEFAULT_FI_TOL) -> VerificationReport:
    """Residual of (h')^2 = (2/(lambda gamma)) h^2 G(h) along the solution
    (psi-space analogue for the Gordon families), normalized by the larger
    of 1 and the two sides; it reads the jets of :meth:`Grid.jets`."""
    quad = first_integral(family_params(sol.family), frame, c1)
    residuals = []
    for _, val, d1, _ in grid.jets(sol):
        if sol.psi_native:
            rhs = 2.0 * frame.r * quad.g_psi(val)
        else:
            rhs = 2.0 * frame.r * val * val * quad.g(val)
        residuals.append(abs(d1 * d1 - rhs) / max(1.0, d1 * d1, abs(rhs)))
    return _report("first_integral_residual", residuals, tol)


def weierstrass_ode_residual(inv: WeierstrassInvariants, grid: Grid,
                             tol: float = DEFAULT_WP_TOL) -> VerificationReport:
    """max |p'^2 - (4 p^3 - g2 p - g3)| / max(1, |p|^3) over the grid."""
    prep = prepare_weierstrass(inv)
    residuals = []
    for z in grid.points():
        p, pp = prep.eval(z)
        res = abs(pp * pp - (4.0 * p ** 3 - inv.g2 * p - inv.g3))
        residuals.append(res / max(1.0, abs(p) ** 3))
    return _report("weierstrass_ode_residual", residuals, tol)


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


# ---------------------------------------------------------------------------
# adaptive embedded Runge-Kutta shooting
# ---------------------------------------------------------------------------

# Cash-Karp 5(4) embedded pair
_CK_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 3.0 / 5.0, 1.0, 7.0 / 8.0)
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


def _rk_step(f, t, y, h):
    k = []
    for i in range(6):
        yi = list(y)
        for j, a in enumerate(_CK_A[i]):
            for c in range(len(y)):
                yi[c] += h * a * k[j][c]
        k.append(f(t + _CK_C[i] * h, yi))
    y5 = [y[c] + h * sum(_CK_B5[i] * k[i][c] for i in range(6))
          for c in range(len(y))]
    err = [h * sum((_CK_B5[i] - _CK_B4[i]) * k[i][c] for i in range(6))
           for c in range(len(y))]
    return y5, err


def rk_integrate(f, t0: float, y0: list[float], t_end: float,
                 rtol: float = 1.0e-10, atol: float = 1.0e-10,
                 sample_times: list[float] | None = None):
    """Adaptive Cash-Karp integration of y' = f(t, y).

    Returns [(t, y)] at the requested sample times (t_end alone when none
    given).  Raises StepSizeUnderflowError when the controller collapses,
    typically against a blow-up; the exception carries the span reached.
    """
    direction = 1.0 if t_end >= t0 else -1.0
    targets = (sorted(sample_times, reverse=direction < 0.0)
               if sample_times else [t_end])
    if any((tt - t0) * direction < -1e-12 for tt in targets):
        raise ValueError("sample times must lie between t0 and t_end")
    out = []
    t, y = t0, list(y0)
    h = direction * min(1e-2, abs(t_end - t0) / 10.0 + 1e-12)
    for target in targets:
        while (target - t) * direction > 1e-14 * max(1.0, abs(target)):
            if abs(h) > abs(target - t):
                h = target - t
            y_new, err = _rk_step(f, t, y, h)
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
                raise StepSizeUnderflowError(
                    f"step underflow at t={t} (blow-up?)",
                    span_reached=t - t0)
        out.append((t, list(y)))
    return out


def _second_order_rhs(quad: QuadratureDescriptor, psi_native: bool):
    """y = (value, slope) -> derivatives of the differentiated first
    integral: psi'' = r G_psi'(psi), or h'' = r (2 h G(h) + h^2 G'(h))."""
    r = quad.r
    if psi_native:
        def f(t, y):
            return [y[1], r * quad.g_psi_prime(y[0])]
    else:
        def f(t, y):
            h = y[0]
            return [y[1], r * (2.0 * h * quad.g(h) + h * h * quad.g_prime(h))]
    return f


def shoot_and_compare(quad: QuadratureDescriptor, sol: Solution,
                      xi_start: float, span: float,
                      tol: float = DEFAULT_SHOOT_TOL) -> VerificationReport:
    """Integrate the differentiated first integral (polynomial in h,
    regular through h = 0) from initial conditions read off the closed
    form and report the maximum trajectory deviation.

    The initial slope comes from a Richardson stencil on the evaluator;
    the trajectory is compared at 50 equispaced points, integrated to
    1e-10 local error.
    """
    if not isinstance(quad, QuadratureDescriptor):
        raise TypeError("shoot_and_compare integrates the first integral; "
                        "pass a QuadratureDescriptor")
    evaluate = _native_evaluator(sol)
    s = _step_at(xi_start, sol.singularities, FD_BASE_STEP)
    y0 = list(_stencil(evaluate, xi_start, s)[:2])
    f = _second_order_rhs(quad, sol.psi_native)
    times = [xi_start + span * i / 50 for i in range(1, 51)]
    path = rk_integrate(f, xi_start, y0, xi_start + span,
                        rtol=1.0e-10, atol=1.0e-10, sample_times=times)
    residuals = [abs(y[0] - evaluate(t)) for t, y in path]
    return _report("shoot_and_compare", residuals, tol)


# ---------------------------------------------------------------------------
# 2-D residual of the wave equation
# ---------------------------------------------------------------------------

def pde_residual(sol: Solution, frame: FrameParams,
                 nz: int = 200, nt: int = 200,
                 tol: float = DEFAULT_PDE_TOL) -> VerificationReport:
    """Residual of the wave equation on an nz x nt grid of the (z, t)
    rectangle [-5, 5] x [0, 2], with the solution embedded through
    xi = k z - omega t.

    Like the other oracles it works in the solution's native variable:
    psi_tt - psi_zz = source(psi)/lambda for the psi-native families, else
    h (h_tt - h_zz) - (h_t^2 - h_z^2) = (h^2/lambda) source(h), regular
    where h crosses zero.
    Derivatives along z and t come from the Richardson stencil of the ODE
    oracle, with step _step_at(xi) / max(|k|, |omega|), so the xi offsets
    never exceed the ODE oracle's step at that xi; the t stencil reuses
    the z stencil's centre value, so each distinct xi costs 9 evaluations.
    Points that ``Singularities.keeps`` rejects at the solution's default
    pad are skipped.  Normalized by max(1, |source term|).
    """
    desc = traveling_ode(family_params(sol.family), frame)
    k, omega, lam = frame.k, frame.omega, frame.lam
    value_of = _native_evaluator(sol)
    sing = sol.singularities
    pad = sing.default_pad()
    speed = max(abs(k), abs(omega))

    def residual_at(xi: float) -> float | None:
        if not sing.keeps(xi, pad):
            return None
        s = _step_at(xi, sing, FD_BASE_STEP) / speed
        # xi(z + d) = xi + k d ; xi(t + d) = xi - omega d
        center, d_z, d_zz = _stencil(lambda d: value_of(xi + k * d), 0.0, s)
        _, d_t, d_tt = _stencil(lambda d: value_of(xi - omega * d), 0.0, s,
                                center)
        if sol.psi_native:
            src = desc.source_psi(center) / lam
            return abs(d_tt - d_zz - src) / max(1.0, abs(src))
        src = center * center * desc.source(center) / lam
        res = center * (d_tt - d_zz) - (d_t * d_t - d_z * d_z) - src
        return abs(res) / max(1.0, abs(src))

    z0, z1 = -5.0, 5.0
    t0, t1 = 0.0, 2.0
    xis = [k * (z0 + (z1 - z0) * i / (nz - 1))
           - omega * (t0 + (t1 - t0) * j / (nt - 1))
           for i in range(nz) for j in range(nt)]
    # the residual depends on (z, t) only through xi, so each distinct xi
    # is computed once, in grid order (on a k = 0 frame: one t column)
    at = {xi: residual_at(xi) for xi in dict.fromkeys(xis)}
    residuals = [at[xi] for xi in xis if at[xi] is not None]
    return _report("pde_residual", residuals, tol)


# ---------------------------------------------------------------------------
# implicit hypergeometric check
# ---------------------------------------------------------------------------

def implicit_residual_check(rel: ImplicitRelation, sol: Solution, grid: Grid,
                            tol: float = DEFAULT_IMPLICIT_TOL) -> VerificationReport:
    """|lhs(h(xi)) - rhs(xi)| along a c1 = 0 solution.

    The sign branch and the integration offset are fixed by matching at
    the grid's first point; every point must keep the hypergeometric
    argument inside the real-convergence region.
    """
    pts = grid.points()
    if len(pts) < 2:
        raise EmptyGridError("implicit check needs at least two grid points")
    hs = []
    for xi in pts:
        h = sol.evaluate_h(xi)
        if not rel.in_domain(h):
            raise DomainError(
                f"h({xi}) = {h} leaves the hypergeometric convergence domain")
        hs.append(h)
    l0 = rel.lhs(hs[0])
    l1 = rel.lhs(hs[1])
    sign = 1.0 if l1 >= l0 else -1.0
    # lhs(h(xi)) = sign * (xi - xi0_eff)/denom
    xi0_eff = pts[0] - sign * l0 * rel.slope_denom
    residuals = [abs(rel.lhs(h) - sign * (xi - xi0_eff) / rel.slope_denom)
                 for xi, h in zip(pts, hs)]
    return _report("implicit_residual_check", residuals, tol)
