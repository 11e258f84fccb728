"""Closed-form traveling-wave solutions as immutable evaluator objects.

``construct`` is the one way to build a solution: it resolves the case
once against the reduction module's taxonomy, hands it to the family's
builder (Liouville, the four cubic pair families, sine-Gordon,
sinh-Gordon), which returns only its closed form (evaluator,
singularities, params, bounded), and records that as the one Solution.
Liouville's forms and the degenerate cubic ones share one evaluator,
``_inverse_square``.  Cubic-family solutions live in h (the field); the
Gordon families are native in psi = log h, where the equations stay
real, and expose h = e^psi.  Every ``+/-`` in a closed form is an
explicit ``branch`` argument defaulting to +1.  Each form is built at
lambda gamma = sign(lambda gamma), and ``_rate`` alone applies the length
scale sqrt(|lambda gamma|).

Dodd-Bullough reads the base cubic forms at (-c1, -lambda gamma).  The
two reflection families, h(xi) = -h_parent(-xi), take their parent's
degenerate and lemniscatic forms, which are even in xi - xi0, with the
constants negated, so those dualities hold bit-exactly; the Weierstrass
forms are each built from the roots of their family's own cubic.  No
evaluator wraps another; a sine-Gordon pi shift is one add inside its
form's closure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable

from .errors import (
    CaseMismatchError,
    DomainError,
    PoleProximityError,
    SignDomainError,
    UnsupportedFamilyError,
)
from .reduction import (
    CBRT2,
    GORDON_FAMILIES,
    CaseLabel,
    FamilyLabel,
    FrameParams,
    _cubic,
    _roots_in_h,
    classify_case,
    range_error,
)
from .singular import Singularities
from .specfun.elliptic import _PreparedJacobi, ellint_k, jacobi_am, jacobi_sn_cn_dn
from .specfun.hypergeometric import gauss_2f1
from .specfun.weierstrass import prepare_weierstrass

# ellint_k, jacobi_am and jacobi_sn_cn_dn are no longer called here (each
# evaluator holds a _PreparedJacobi), nor is prepare_weierstrass (the
# Weierstrass forms are built from the roots of their own cubic); they stay
# bound only because perfbench/tracer.py wraps them by these names.

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class Solution:
    """Immutable closed-form solution descriptor.

    ``evaluate_h`` and ``evaluate_psi`` are pure.  The one evaluator
    computes psi for the psi-native families and h otherwise; the other
    variable follows as h = e^psi, or psi = log(h) wherever h > 0 (NaN
    where h <= 0); an e^psi past the float range raises DomainError
    naming c1 and lambda gamma.
    ``singularities`` covers every non-finite or undefined point of the
    evaluator.  ``bounded`` is set for the amplitude cases (None when the
    notion does not apply).
    """

    family: FamilyLabel
    case: CaseLabel
    branch: int
    c1: float
    frame: FrameParams
    psi_native: bool
    singularities: Singularities
    params: dict = field(default_factory=dict)
    bounded: bool | None = None
    _fn: Callable[[float], float] = field(repr=False, default=None)

    @property
    def lambda_gamma(self) -> float:
        return self.frame.lambda_gamma

    def evaluate_h(self, xi: float) -> float:
        v = self._fn(xi)
        if not self.psi_native:
            return v
        try:
            return math.exp(v)
        except OverflowError:
            raise range_error(self.c1, self.lambda_gamma,
                              "h = e^psi") from None

    def evaluate_psi(self, xi: float) -> float:
        v = self._fn(xi)
        if self.psi_native:
            return v
        return math.log(v) if v > 0.0 else math.nan

    def h_psi(self, value: float) -> tuple[float, float]:
        """(h, psi) from a value of the native evaluator, by the same rule
        as ``evaluate_h`` and ``evaluate_psi``."""
        if self.psi_native:
            try:
                return math.exp(value), value
            except OverflowError:
                raise range_error(self.c1, self.lambda_gamma,
                                  "h = e^psi") from None
        return value, (math.log(value) if value > 0.0 else math.nan)

    def descriptor(self) -> dict:
        d = {
            "branch": self.branch,
            "c1": self.c1,
            "case": self.case.name,
            "family": self.family.name,
            "frame": {
                "k": self.frame.k,
                "lam": self.frame.lam,
                "omega": self.frame.omega,
                "xi0": self.frame.xi0,
            },
            "lambda_gamma": self.lambda_gamma,
            "psi_native": self.psi_native,
            "singularities": self.singularities.to_json(),
        }
        if self.bounded is not None:
            d["bounded"] = self.bounded
        if self.params:
            if not all(map(math.isfinite, self.params.values())):
                # only g2 and g3 can be inf, and JSON has no inf
                raise range_error(self.c1, self.lambda_gamma,
                                  "the Weierstrass invariants")
            d["params"] = {k: v for k, v in sorted(self.params.items())}
        return d


def from_descriptor(d: dict) -> Solution:
    """Rebuild a Solution from its JSON descriptor.

    Goes through the same constructor path, so samples of the rebuilt
    solution match the original exactly.
    """
    fr = d["frame"]
    frame = FrameParams(lam=fr["lam"], k=fr["k"], omega=fr["omega"], xi0=fr["xi0"])
    return construct(
        FamilyLabel[d["family"]], d["c1"], frame,
        branch=d.get("branch", 1), case=CaseLabel[d["case"]],
    )


def _resolve_case(family: FamilyLabel, frame: FrameParams, c1: float,
                  case: CaseLabel | None, branch: int) -> CaseLabel:
    """The requested case (the classified one when None), checked
    against the classification, with the branch checked to be +-1."""
    auto = classify_case(family, frame, c1)
    # the general Weierstrass form is a valid construction at any cubic c1
    if case is not None and case is not auto and not (
            case is CaseLabel.GeneralWeierstrass and auto in (
                CaseLabel.Degenerate1a, CaseLabel.Degenerate1b,
                CaseLabel.Equianharmonic, CaseLabel.Lemniscatic)):
        raise CaseMismatchError(
            f"c1={c1} classifies as {auto.name}, not {case.name}")
    if branch not in (1, -1):
        raise DomainError("branch must be +1 or -1")
    return auto if case is None else case


def _rate(kappa: float, c1: float, frame: FrameParams) -> float:
    """kappa / sqrt(|lambda gamma|) from the rate kappa at sign(lambda gamma),
    refused at 0 or inf: a period pi/kappa would divide by 0 or read 0."""
    kappa /= math.sqrt(abs(frame.lambda_gamma))
    if 0.0 < kappa < math.inf:
        return kappa
    raise range_error(c1, frame.lambda_gamma, "the rate kappa")


# ---------------------------------------------------------------------------
# the inverse-square forms h = a + b / f(kappa (xi - xi0))^2
# ---------------------------------------------------------------------------

#: for each f: the pole message and the singular set, from xi0 and the
#: period P = pi/kappa; f(d) = d (operator.pos) is the rational limit
_INVERSE_SQUARE = {
    math.cosh: (None, lambda x0, p: Singularities.none()),
    math.sinh: ("csch^2 pole at xi0", lambda x0, p: Singularities.isolated(x0)),
    math.cos: ("sec^2 pole", lambda x0, p: Singularities.lattice(x0 + 0.5 * p, p)),
    math.sin: ("csc^2 pole", lambda x0, p: Singularities.lattice(x0, p)),
    operator.pos: ("rational solution pole at xi0",
                   lambda x0, p: Singularities.isolated(x0)),
}


def _inverse_square(a: float, b: float, f: Callable[[float], float],
                    kappa: float, xi0: float) -> tuple:
    """(evaluator, singularities, params) of h = a + b / f(kappa (xi -
    xi0))^2: a + b/inf where cosh or sinh overflows, DomainError where
    f^2 is 0; params hold kappa (not for f(d) = d) and a lattice's period."""
    pole, singular = _INVERSE_SQUARE[f]

    def h_fn(xi: float) -> float:
        try:
            v = f(kappa * (xi - xi0))
            return a + b / (v * v)
        except OverflowError:  # cosh or sinh past the largest float
            return a + b / math.inf
        except ZeroDivisionError:  # f(.)^2 is 0 (or underflows to it)
            raise DomainError(pole) from None
    sing = singular(xi0, math.pi / kappa)
    params = {} if f is operator.pos else {"kappa": kappa}
    if sing.kind == "lattice":
        params["period"] = sing.period
    return h_fn, sing, params


def _liouville(family: FamilyLabel, c1: float, frame: FrameParams,
               branch: int, case: CaseLabel) -> tuple:
    """Single-exponential solutions: -c1 sech^2 pulse for c1/(2 lambda
    gamma) > 0, -c1 sec^2 wave for < 0, and at c1 = 0 the double pole 2
    lambda gamma / (xi - xi0)^2 = 2 sign(lambda gamma) / (s (xi - xi0))^2;
    each even in xi - xi0 (both branches agree); a = -0.0 keeps zeros."""
    if case is CaseLabel.LiouvilleRational:
        b, f, kappa = math.copysign(2.0, frame.lambda_gamma), operator.pos, 1.0
    else:
        b, f = -c1, math.cosh if case is CaseLabel.LiouvilleSoliton else math.cos
        kappa = math.sqrt(abs(c1 / 2.0))
    kappa = _rate(kappa, c1, frame)
    return (*_inverse_square(-0.0, b, f, kappa, frame.xi0), None)


# ---------------------------------------------------------------------------
# Tzitzeica and its sign/reflection variants
# ---------------------------------------------------------------------------

# the variants h(xi) = -h_parent(-xi), whose forms are even in xi - xi0
_REFLECTED = (FamilyLabel.TzitzeicaDoddBullough,
              FamilyLabel.DoddBulloughMikhailov)

#: (b, f) of each degenerate form h = 1 + b / f(kappa (xi - xi0))^2
_DEGENERATE = {(CaseLabel.Degenerate1a, 1): (-1.5, math.cosh),
               (CaseLabel.Degenerate1a, -1): (1.5, math.sinh),
               (CaseLabel.Degenerate1b, 1): (-1.5, math.cos),
               (CaseLabel.Degenerate1b, -1): (-1.5, math.sin)}


def _weierstrass_form(family: FamilyLabel, c1: float,
                      frame: FrameParams) -> tuple:
    """(evaluator, singularities, params) of the Equianharmonic and general
    Weierstrass forms of a cubic family, from the roots of its own cubic
    (h')^2 = a3 h^3 + a2 h^2 + a0 (Byrd and Friedman, Handbook of Elliptic
    Integrals, 1971, the 230-series; DLMF 22.13).  This is h = (4/a3)
    p(xi - xi0; g2, g3) - a2/(3 a3), which is lg (2 p - c1/(3 lg)) at the
    base constants, for each family alike; its real branch runs from a
    turning root out to the poles xi0 + n period.  With s = sign(a3):

      three real roots, s h1 > s h2 > s h3:
          h = h3 + (h1 - h3) / sn^2(kappa (xi - xi0) | m)
            = h1 + (h1 - h3) cn^2/sn^2,
          kappa = sqrt(a3 (h1 - h3)) / 2, mc = (h1 - h2)/(h1 - h3);
      one real root h1 and the pair b +- i a, d = s (b - h1),
      A = sqrt(d^2 + a^2):
          h = h1 + s A (1 + cn(kappa (xi - xi0) | m)) / (1 - cn(...))
            = h0 + 2 s A cn / (1 - cn),  h0 = b + 2 s A mc = h1 + s A,
          kappa = sqrt(|a3| A), mc = (A - d)/(2 A) = a^2 / (2 A (A + d)).

    The second forms are the ones evaluated, as they cancel less.  At
    large |c1| the roots are far apart, and h lingers near a value much
    smaller than they are (h1 in the first form, h0, where cn = 0, in the
    second); each form keeps that value to its own rounding, where h3 +
    ... or h1 + ... would subtract numbers of the roots' size.  cn / (1 -
    cn) is taken as cn (1 + cn) / sn^2 where cn >= 0, so that 1 - cn does
    not cancel near the poles.  mc is formed from the root differences,
    where 1 - m would lose the digits of a small mc.  Within 1e-3 of a
    period of a pole, or of sqrt(|lambda gamma|) where a double root leaves
    no period (1e-3 in eta either way), the evaluator raises
    PoleProximityError.
    Built from ``_cubic`` at sign(lambda gamma): |lambda gamma| enters by
    ``_rate`` and the params g2 and g3 alone.  Refused where the cubic in
    1/h or the rate leave the float range.
    """
    a0, _, a2, a3, _, at = _cubic(family, frame, c1)
    try:
        roots = _roots_in_h(a0, a2, a3)
    except (OverflowError, DomainError):
        raise range_error(c1, frame.lambda_gamma, "the cubic in 1/h") from None
    s = 1.0 if a3 > 0.0 else -1.0
    three = roots.all_real
    if three:  # h = base + scale cn^2/sn^2
        h1, h2, h3 = roots.real if s > 0.0 else roots.real[::-1]
        base = h1
        scale = h1 - h3
        mc = (h1 - h2) / scale
        kappa = 0.5 * math.sqrt(abs(a3 * scale))
    else:  # h = base + scale cn/(1 - cn)
        h1 = roots.real[0]
        b, a = roots.complex_pair
        d = s * (b - h1)
        big_a = math.hypot(d, a)
        mc = a * a / (2.0 * big_a * (big_a + d)) if d > 0.0 else \
            (big_a - d) / (2.0 * big_a)
        scale = 2.0 * s * big_a
        base = b + scale * mc
        kappa = math.sqrt(abs(a3) * big_a)
    kappa = _rate(kappa, c1, frame)
    jac = _PreparedJacobi(1.0 - mc, mc)
    # the period is 2 K / kappa in sn, 4 K / kappa in cn; a double root
    # (mc = 0) leaves one pole
    period = (2.0 if three else 4.0) * jac.k / kappa if mc > 0.0 else math.inf
    periodic = period < math.inf
    eps_pole = 1.0e-3 * (period if periodic
                         else math.sqrt(abs(frame.lambda_gamma)))
    xi0 = frame.xi0
    sncndn = jac.sn_cn_dn

    def h_fn(xi: float) -> float:
        z = xi - xi0
        dist = abs(z - period * round(z / period)) if periodic else abs(z)
        if dist < eps_pole:
            raise PoleProximityError(
                f"z within {eps_pole:.3e} of a Weierstrass pole "
                f"(distance {dist:.3e})", distance=dist, limit=eps_pole)
        sn, cn, _ = sncndn(kappa * z)
        if three:
            t = cn / sn
            return base + scale * (t * t)
        if cn >= 0.0:
            return base + scale * (cn * (1.0 + cn) / (sn * sn))
        return base + scale * (cn / (1.0 - cn))
    params = dict(zip(("g2", "g3"), at))
    if periodic:
        params["period"] = period
        return h_fn, Singularities.lattice(xi0, period), params
    return h_fn, Singularities.isolated(xi0), params


def _tzitzeica(family: FamilyLabel, c1: float, frame: FrameParams,
               branch: int, case: CaseLabel) -> tuple:
    """Cubic-route solutions of the h - 1/h^2 source (Tzitzeica) and of
    its sign and reflection variants.

    Case map (branch selects the companion form where one exists):
      Degenerate1a   c1 = -3/2, lambda gamma > 0: +1 dark soliton
                     1 - (3/2) sech^2, -1 singular soliton 1 + (3/2) csch^2
      Degenerate1b   c1 = -3/2, lambda gamma < 0: +1 1 - (3/2) sec^2,
                     -1 1 - (3/2) csc^2 (all by _inverse_square)
      Lemniscatic    c1 = -3/cbrt(4), lambda gamma > 0: bounded cnoidal wave
      Equianharmonic (c1 = 0) and GeneralWeierstrass:
                     h = lg (2 p(xi - xi0; g2, g3) - c1/(3 lg)), built by
                     _weierstrass_form for every family from its own cubic

    DoddBullough (the -h + 1/h^2 source) reads these base forms at
    (-c1, -lambda gamma).  The two reflection variants are
    h(xi) = -h_parent(-xi) with the same c1 and lambda gamma:
    TzitzeicaDoddBullough reflects the DoddBullough solutions and
    DoddBulloughMikhailov the Tzitzeica ones.  The case is the variant's
    own; its degenerate and lemniscatic forms are even in xi - xi0, so it
    is the parent's form with its constants negated, at the same xi0.
    """
    if case in (CaseLabel.Equianharmonic, CaseLabel.GeneralWeierstrass):
        return (*_weierstrass_form(family, c1, frame), None)
    sign = -1.0 if family in _REFLECTED else 1.0
    xi0 = frame.xi0

    if case in (CaseLabel.Degenerate1a, CaseLabel.Degenerate1b):
        b, f = _DEGENERATE[case, branch]
        kappa = _rate(0.5 * math.sqrt(3.0), c1, frame)
        h_fn, sing, params = _inverse_square(sign, sign * b, f, kappa, xi0)
        if sign < 0.0 and f is math.cos:
            # the same lattice, named from the pole left of xi0, as the
            # image of the parent's xi0 + P/2 under xi -> -xi
            sing = Singularities.lattice(xi0 - 0.5 * sing.period, sing.period)
        return h_fn, sing, params, None

    # Lemniscatic
    scale = _rate(3.0 ** 0.25 / CBRT2, c1, frame)
    # cn parameter 1/2 = (sqrt(2)/2)^2: modulus-convention sources
    # quote sqrt(2)/2, squared here per the package-wide convention
    amp = sign / (4.0 ** (1.0 / 3.0))
    jac = _PreparedJacobi(0.5)
    def h_fn(xi: float, s=scale, a=amp, sncndn=jac.sn_cn_dn) -> float:
        _, cn, _ = sncndn(s * (xi - xi0))
        return a * (1.0 - SQRT3 * cn * cn)
    params = {"scale": scale, "modulus_parameter": 0.5,
              "period": 2.0 * jac.k / scale}
    return h_fn, Singularities.none(), params, True


# ---------------------------------------------------------------------------
# sine-Gordon
# ---------------------------------------------------------------------------

def _sine_gordon(family: FamilyLabel, c1: float, frame: FrameParams,
                 branch: int, case: CaseLabel) -> tuple:
    """psi-native solutions of psi'' = sin(psi)/(lambda gamma).

    c1 = +1 gives the 4 arctan(exp(.)) kink (lambda gamma > 0 only); other
    c1 the Jacobi-amplitude form psi = 2 am(+- sqrt((c1-1)/(2 lg)) (xi -
    xi0); 2/(1-c1)), real when (c1-1)/(2 lg) >= 0.  Since sin(psi +- pi) =
    -sin(psi), psi(xi; c1, lg) = +-pi + psi(xi; -c1, -lg): the c1 = -1 kink
    (lambda gamma < 0 only) is -pi plus the c1 = +1 kink at (1, -lg), and
    the amplitude form where it is not real is pi plus the form at (-c1,
    -lg), each shift added in the image form's own closure (-0.0 where
    there is none).  The amplitude solution is bounded and periodic exactly
    when the parameter exceeds 1 (the superunitary regime, -1 < c1 < 1);
    otherwise it is monotone unbounded.
    """
    lg = frame.lambda_gamma
    xi0 = frame.xi0
    if case is CaseLabel.KinkC1Minus:
        shift = -math.pi
    elif case is not CaseLabel.KinkC1Plus and lg > 0.0 and c1 < 1.0:
        shift = math.pi
    else:
        shift = -0.0  # x + -0.0 is x, signed zeros included
    # the shifted forms read their image constants
    base_c1 = -c1 if shift else c1

    if case in (CaseLabel.KinkC1Plus, CaseLabel.KinkC1Minus):
        kappa = _rate(1.0, c1, frame)
        def psi_fn(xi: float, k=kappa, s=branch, sh=shift) -> float:
            try:
                return sh + 4.0 * math.atan(math.exp(s * k * (xi - xi0)))
            except OverflowError:  # exp past the largest float
                return sh + 4.0 * math.atan(math.inf)
        params = {"kappa": kappa}
        bounded = True
    else:
        kappa = _rate(math.sqrt(abs((base_c1 - 1.0) / 2.0)), c1, frame)
        # read in the F(phi; m) parameter convention; under it this form
        # solves the first integral identically (the residual oracles
        # would expose a squared-modulus misreading instantly)
        m = 2.0 / (1.0 - base_c1)
        def psi_fn(xi: float, k=kappa, s=branch, sh=shift,
                   am=_PreparedJacobi(m).am) -> float:
            return sh + 2.0 * am(s * k * (xi - xi0))
        bounded = m > 1.0
        params = {"kappa": kappa, "modulus_parameter": m}
    return psi_fn, Singularities.none(), params, bounded


# ---------------------------------------------------------------------------
# sinh-Gordon
# ---------------------------------------------------------------------------

def _sinh_gordon(family: FamilyLabel, c1: float, frame: FrameParams,
                 branch: int, case: CaseLabel) -> tuple:
    """psi-native solutions of psi'' = sinh(2 psi)/(lambda gamma).

    c1 = -1/2: psi = 2 arctanh(exp(+-sqrt(2/lg) (xi-xi0))), lambda gamma
    > 0, valid on the half-line where the exponential stays below 1 and
    singular at xi0.  c1 = +1/2: psi = 2 arctanh(tan(+-(xi-xi0)/
    sqrt(2 lg))), periodic windows with singular edges.  Other c1: the
    amplitude solution realized through the imaginary-amplitude identity

        psi = -+ asinh(sc(sqrt((2 c1+1)/lg) (xi-xi0); (2c1-1)/(2c1+1))),

    real when (2 c1 + 1)/lambda gamma > 0: blow-up lattice for lambda
    gamma > 0, bounded periodic for lambda gamma < 0 (c1 < -1/2).
    """
    xi0 = frame.xi0
    bounded = None
    params: dict = {}

    if case is CaseLabel.KinkC1Minus:
        kappa = _rate(math.sqrt(2.0), c1, frame)
        def psi_fn(xi: float, k=kappa, s=branch) -> float:
            e = math.exp(s * k * (xi - xi0))
            if e >= 1.0:
                raise DomainError(
                    "arctanh argument >= 1: singular side of the kink")
            return 2.0 * math.atanh(e)
        sing = Singularities.half_line(xi0, valid_side=-branch)
        params = {"kappa": kappa}
    elif case is CaseLabel.KinkC1Plus:
        kappa = _rate(1.0 / math.sqrt(2.0), c1, frame)
        period = math.pi / kappa
        def psi_fn(xi: float, k=kappa, s=branch) -> float:
            t = math.tan(s * k * (xi - xi0))
            if abs(t) >= 1.0:
                raise DomainError("arctanh(tan .) outside its periodic window")
            return 2.0 * math.atanh(t)
        sing = Singularities.lattice_windows(xi0, period, 0.25 * period)
        params = {"kappa": kappa, "period": period}
    else:
        kappa = _rate(math.sqrt(abs(2.0 * c1 + 1.0)), c1, frame)
        m1 = (2.0 * c1 - 1.0) / (2.0 * c1 + 1.0)
        jac = _PreparedJacobi(m1)
        def psi_fn(xi: float, k=kappa, s=branch, sncndn=jac.sn_cn_dn) -> float:
            sn, cn, _ = sncndn(k * (xi - xi0))
            if cn == 0.0:
                raise DomainError("sc pole")
            return -s * math.asinh(sn / cn)
        params = {"kappa": kappa, "modulus_parameter": 2.0 / (2.0 * c1 + 1.0),
                  "sc_parameter": m1}
        if frame.lambda_gamma > 0.0:
            # m1 < 1: cn vanishes at odd multiples of K, psi blows up there
            k_quarter = jac.k / kappa
            sing = Singularities.lattice(xi0 + k_quarter, 2.0 * k_quarter)
            params["period"] = 2.0 * k_quarter
            bounded = False
        else:
            sing = Singularities.none()
            bounded = True
    return psi_fn, sing, params, bounded


# ---------------------------------------------------------------------------
# implicit hypergeometric relations (c1 = 0)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImplicitRelation:
    """The c1 = 0 quadrature written as lhs(h) = +-(xi - xi0)/denom.

    ``lhs`` is h times a Gauss hypergeometric factor; ``rhs`` uses the
    frame's xi0 and the + branch (verification realigns sign and offset).
    ``in_domain`` tests that the 2F1 argument is below its branch point 1,
    where the relation is real.
    """

    family: FamilyLabel
    frame: FrameParams
    slope_denom: float
    _abc: tuple[float, float, float] = field(repr=False)
    _arg: Callable[[float], float] = field(repr=False)

    def lhs(self, h: float) -> float:
        return h * gauss_2f1(*self._abc, self._arg(h))

    def rhs(self, xi: float) -> float:
        return (xi - self.frame.xi0) / self.slope_denom

    def in_domain(self, h: float) -> bool:
        return self._arg(h) < 1.0


def implicit_relation(family: FamilyLabel, frame: FrameParams) -> ImplicitRelation:
    """Hypergeometric implicit solutions for the zero-constant quadrature.

    Catalogued for the cubic pair families (argument -2 h^3) and
    sinh-Gordon (argument -h^4).  The sine-Gordon analogue needs a
    complex-parameter hypergeometric function and is out of scope; the
    single-exponential family has no beta-term and admits no such form.
    """
    lg = frame.lambda_gamma
    if family in (FamilyLabel.Tzitzeica, FamilyLabel.DoddBullough):
        # Dodd-Bullough is the base relation at -lambda gamma
        sign = 1.0 if family is FamilyLabel.Tzitzeica else -1.0
        if sign * lg <= 0.0:
            raise SignDomainError("this implicit form needs lambda gamma "
                                  f"{'>' if sign > 0.0 else '<'} 0")
        return ImplicitRelation(family, frame, math.sqrt(sign * lg),
                                (0.5, 1.0 / 3.0, 4.0 / 3.0), lambda h: -2.0 * h ** 3)
    if family is FamilyLabel.SinhGordon:
        if lg <= 0.0:
            raise SignDomainError("this implicit form needs lambda gamma > 0")
        return ImplicitRelation(family, frame, math.sqrt(2.0 * lg),
                                (0.5, 0.25, 1.25), lambda h: -h ** 4)
    raise UnsupportedFamilyError(
        f"no real implicit hypergeometric form for {family.name}")


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_BUILDERS = {
    FamilyLabel.Liouville: _liouville,
    FamilyLabel.Tzitzeica: _tzitzeica,
    FamilyLabel.DoddBullough: _tzitzeica,
    FamilyLabel.TzitzeicaDoddBullough: _tzitzeica,
    FamilyLabel.DoddBulloughMikhailov: _tzitzeica,
    FamilyLabel.SineGordon: _sine_gordon,
    FamilyLabel.SinhGordon: _sinh_gordon,
}


def construct(family: FamilyLabel, c1: float, frame: FrameParams,
              branch: int = 1, case: CaseLabel | None = None) -> Solution:
    """Build the catalogued solution for any closed-form family.

    ``case`` None takes the classified case; a requested one must match it
    (or be GeneralWeierstrass for a cubic family).  ``branch`` is +-1.  A
    rate of 0 or inf, or a c1 whose Weierstrass invariants leave the float
    range, raise DomainError naming c1 and lambda gamma.
    """
    builder = _BUILDERS.get(family)
    if builder is None:
        raise UnsupportedFamilyError(
            f"{family.name} has no closed-form constructor; generic equations "
            "get classify and first_integral only")
    case = _resolve_case(family, frame, c1, case, branch)
    fn, sing, params, bounded = builder(family, c1, frame, branch, case)
    return Solution(
        family=family, case=case, branch=branch, c1=c1, frame=frame,
        psi_native=family in GORDON_FAMILIES, singularities=sing,
        params=params, bounded=bounded, _fn=fn,
    )
