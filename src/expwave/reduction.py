"""Reduction of the wave equations to the traveling ODE and its
first-integral / elliptic-equation machinery.

The equations handled are second-order hyperbolic PDEs whose source is a
sum of two exponentials of the field; in light-cone form

    (log h)_uv = alpha h^a + beta h^b,

which along characteristics z = u - lambda v, t = u + lambda v and a
traveling ansatz xi = k z - omega t (gamma = omega^2 - k^2 != 0) becomes

    h h'' - (h')^2 = (h^2 / (lambda gamma)) (alpha h^a + beta h^b) = f(h).

One integration gives (h')^2 = (2/(lambda gamma)) h^2 G(h) with

    G(h) = c1 + (alpha/a) h^a + (beta/b) h^b,

where c1 is the integration constant that selects among the catalogued
solution cases.  (The raw constant produced by the Bernoulli-step
integration equals 2 c1 / (lambda gamma); the normalization above is the
one every downstream formula uses.)  For the cubic families, G generates
(h')^2 = a3 h^3 + a2 h^2 + a1 h + a0, whose Weierstrass invariants and
discriminant classify the closed-form cases.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .errors import (
    DomainError,
    FrameDegenerateError,
    InvalidParamsError,
    SignDomainError,
    UnsupportedFamilyError,
)
from .specfun.weierstrass import (
    CubicRoots,
    WeierstrassInvariants,
    _double_root,
    solve_weierstrass_cubic,
)

C1_MATCH_TOL = 1.0e-12  # user-provided special constants are exact in practice

CBRT2 = 2.0 ** (1.0 / 3.0)
CBRT4 = 4.0 ** (1.0 / 3.0)
#: c1 singling out the degenerate (repeated-root) cubic case.
C1_DEGENERATE = -1.5
#: c1 singling out the lemniscatic (g3 = 0) cubic case.
C1_LEMNISCATIC = -3.0 / CBRT4


def _parse_label(labels, text: str, noun: str):
    """The member of the enum ``labels`` that ``text`` names by value or by
    name, in any case and with '_' or ' ' for '-'."""
    t = text.strip().lower().replace("_", "-").replace(" ", "-")
    for label in labels:
        if t in (label.value, label.name.lower()):
            return label
    raise InvalidParamsError(f"unknown {noun} {text!r}")


class FamilyLabel(enum.Enum):
    Liouville = "liouville"
    Tzitzeica = "tzitzeica"
    DoddBullough = "dodd-bullough"
    TzitzeicaDoddBullough = "tzitzeica-dodd-bullough"
    DoddBulloughMikhailov = "dodd-bullough-mikhailov"
    SineGordon = "sine-gordon"
    SinhGordon = "sinh-gordon"
    GenericTwoExponential = "generic"

    @classmethod
    def parse(cls, text: str) -> "FamilyLabel":
        return _parse_label(cls, text, "family")


#: Families whose first integral is a cubic in h (the Weierstrass route).
CUBIC_FAMILIES = frozenset({
    FamilyLabel.Liouville,
    FamilyLabel.Tzitzeica,
    FamilyLabel.DoddBullough,
    FamilyLabel.TzitzeicaDoddBullough,
    FamilyLabel.DoddBulloughMikhailov,
})

GORDON_FAMILIES = frozenset({FamilyLabel.SineGordon, FamilyLabel.SinhGordon})

#: Cubic families solved by the base (Tzitzeica) forms at (-c1, -lambda
#: gamma): Dodd-Bullough and its reflection.
SIGN_MAPPED_FAMILIES = frozenset({FamilyLabel.DoddBullough,
                                  FamilyLabel.TzitzeicaDoddBullough})


class CaseLabel(enum.Enum):
    LiouvilleSoliton = "liouville-soliton"
    LiouvillePeriodic = "liouville-periodic"
    LiouvilleRational = "liouville-rational"
    Degenerate1a = "degenerate-1a"
    Degenerate1b = "degenerate-1b"
    Equianharmonic = "equianharmonic"
    Lemniscatic = "lemniscatic"
    GeneralWeierstrass = "general-weierstrass"
    KinkC1Plus = "kink-c1-plus"
    KinkC1Minus = "kink-c1-minus"
    AmplitudeGeneric = "amplitude-generic"
    AmplitudeC1Zero = "amplitude-c1-zero"

    @classmethod
    def parse(cls, text: str) -> "CaseLabel":
        return _parse_label(cls, text, "case")


@dataclass(frozen=True)
class EquationParams:
    """Exponents and amplitudes of the two exponential source terms.

    For real equations the source is alpha e^(a psi) + beta e^(b psi).
    The sine-Gordon family has imaginary exponents; these are never stored
    as complex floats.  Instead ``imaginary_pair=True`` flags that
    (alpha, beta, a, b) hold the coefficients of i, i.e. the source is
    (alpha i) e^(a i psi) + (beta i) e^(b i psi); with the catalogued tags
    (-1/2, 1/2, 1, -1) this is exactly sin(psi).
    """

    alpha: float
    beta: float
    a: float
    b: float
    imaginary_pair: bool = False

    def __post_init__(self):
        if self.alpha == 0.0 and self.beta == 0.0:
            raise InvalidParamsError("alpha and beta must not both vanish")
        if self.a == 0.0 and self.alpha != 0.0:
            raise InvalidParamsError("exponent a must be nonzero")

    @classmethod
    def sine_gordon(cls) -> "EquationParams":
        return cls(alpha=-0.5, beta=0.5, a=1.0, b=-1.0, imaginary_pair=True)


_FAMILY_PARAMS = {
    FamilyLabel.Liouville: EquationParams(1.0, 0.0, 1.0, 0.0),
    FamilyLabel.Tzitzeica: EquationParams(1.0, -1.0, 1.0, -2.0),
    FamilyLabel.DoddBullough: EquationParams(-1.0, 1.0, 1.0, -2.0),
    FamilyLabel.TzitzeicaDoddBullough: EquationParams(1.0, 1.0, 1.0, -2.0),
    FamilyLabel.DoddBulloughMikhailov: EquationParams(-1.0, -1.0, 1.0, -2.0),
    FamilyLabel.SineGordon: EquationParams.sine_gordon(),
    FamilyLabel.SinhGordon: EquationParams(0.5, -0.5, 2.0, -2.0),
}


def family_params(family: FamilyLabel) -> EquationParams:
    """The catalogued (alpha, beta, a, b) tuple of a named family."""
    try:
        return _FAMILY_PARAMS[family]
    except KeyError:
        raise UnsupportedFamilyError(
            f"{family.name} has no catalogued parameter tuple") from None


def classify_family(params: EquationParams) -> FamilyLabel:
    """Match (alpha, beta, a, b) against the seven catalogued tuples."""
    for fam, ref in _FAMILY_PARAMS.items():
        if params == ref:
            return fam
    return FamilyLabel.GenericTwoExponential


@dataclass(frozen=True)
class FrameParams:
    """Traveling-frame data: lambda, k, omega, the derived gamma and
    r = 1/(lambda gamma), and the phase offset xi0.

    The characteristic coordinates are z = u - lambda v, t = u + lambda v
    and the wave variable is xi = k z - omega t; z, t, u, v themselves are
    derivation-only and never computed on here.  Every closed form depends
    on lambda and gamma only through the product lambda*gamma; use
    :meth:`from_lambda_gamma` when the split does not matter.
    """

    lam: float
    k: float
    omega: float
    xi0: float = 0.0
    gamma: float = field(init=False)
    r: float = field(init=False)

    def __post_init__(self):
        if not all(map(math.isfinite, (self.lam, self.k, self.omega, self.xi0))):
            raise InvalidParamsError("lambda, k, omega and xi0 must be finite")
        if self.lam == 0.0:
            raise FrameDegenerateError("lambda must be nonzero")
        if abs(self.k) == abs(self.omega):
            raise FrameDegenerateError("k = +/-omega makes gamma vanish")
        try:
            gamma = self.omega ** 2 - self.k ** 2
        except OverflowError:
            gamma = math.inf
        lg = self.lam * gamma
        if not (math.isfinite(lg) and lg != 0.0 and math.isfinite(1.0 / lg)):
            raise InvalidParamsError(
                f"lambda*gamma = {lg!r} leaves r = 1/(lambda gamma) outside "
                "the floating-point range")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "r", 1.0 / lg)

    @classmethod
    def from_lambda_gamma(cls, lambda_gamma: float, xi0: float = 0.0) -> "FrameParams":
        # normalization: lambda = value, k = 0, omega = 1, so gamma = 1
        return cls(lam=lambda_gamma, k=0.0, omega=1.0, xi0=xi0)

    @property
    def lambda_gamma(self) -> float:
        return self.lam * self.gamma

    def with_lambda_gamma(self, lambda_gamma: float) -> "FrameParams":
        return FrameParams.from_lambda_gamma(lambda_gamma, xi0=self.xi0)


def _integral(e: float) -> bool:
    """Whether the exponent e is a finite integer."""
    return math.isfinite(e) and e == round(e)


def _real_pow(h: float, e: float) -> float:
    """h ** e where it is real."""
    if h > 0.0:  # the common case; h ** 0.0 == 1.0 like the branch below
        return h ** e
    if e == 0.0:
        return 1.0
    if h == 0.0 and e < 0.0:
        raise DomainError("h = 0 with a negative exponent")
    if h < 0.0 and e != round(e):
        raise DomainError("h <= 0 with a non-integer exponent")
    # float ** negates the odd integral powers of |h| itself
    return h ** e


class OdeDescriptor:
    """The traveling ODE h h'' - (h')^2 = f(h) for one (family, frame).

    ``f`` works in h; for the Gordon families the psi-space form
    psi'' = rhs_psi(psi) is also exposed (it is the same equation written
    in psi = log h, where it stays real).

    When every exponent is integral (``integral``, read from them here;
    true for each catalogued family), ``source`` raises any nonzero h,
    NaN and +/-inf included, by ``h ** e`` directly, which is what
    ``_real_pow`` returns there; h = +/-0 and non-integral exponents go
    through ``_real_pow``.
    """

    def __init__(self, params: EquationParams, frame: FrameParams):
        self.params = params
        self.frame = frame
        self.r = frame.r
        self.alpha, self.beta, self.a, self.b = (
            params.alpha, params.beta, params.a, params.b)
        self.integral = all(map(_integral, (self.a, self.b)))
        self.imaginary_pair = params.imaginary_pair

    def source(self, h: float) -> float:
        """alpha h^a + beta h^b (equals sin(log h) for sine-Gordon)."""
        if self.imaginary_pair:
            return self.source_psi(math.log(h))
        if h > 0.0 or (self.integral and h != 0.0):
            return self.alpha * h ** self.a + self.beta * h ** self.b
        return (self.alpha * _real_pow(h, self.a)
                + self.beta * _real_pow(h, self.b))

    def source_psi(self, psi: float) -> float:
        if self.imaginary_pair:
            # (alpha i) e^(i a psi) + (beta i) e^(i b psi), real by pairing
            return (-self.alpha * math.sin(self.a * psi)
                    - self.beta * math.sin(self.b * psi))
        return (self.alpha * math.exp(self.a * psi)
                + self.beta * math.exp(self.b * psi))

    def sources(self, hs: list[float]) -> list[float]:
        """``source`` at each h, bit for bit: the direct path inline, the
        scalar method where it takes ``_real_pow`` or the imaginary pair."""
        source = self.source
        if self.imaginary_pair:
            return [source(h) for h in hs]
        alpha, beta, a, b = self.alpha, self.beta, self.a, self.b
        integral = self.integral
        return [alpha * h ** a + beta * h ** b
                if h > 0.0 or (integral and h != 0.0) else source(h)
                for h in hs]

    def sources_psi(self, psis: list[float]) -> list[float]:
        """``source_psi`` at each psi, bit for bit."""
        alpha, beta, a, b = self.alpha, self.beta, self.a, self.b
        if self.imaginary_pair:
            sin = math.sin
            return [-alpha * sin(a * psi) - beta * sin(b * psi) for psi in psis]
        exp = math.exp
        return [alpha * exp(a * psi) + beta * exp(b * psi) for psi in psis]

    def f(self, h: float) -> float:
        return self.r * h * h * self.source(h)

    def rhs_psi(self, psi: float) -> float:
        return self.r * self.source_psi(psi)


class QuadratureDescriptor:
    """First integral (h')^2 = (2/(lambda gamma)) h^2 G(h), with

        G(h) = c1 + (alpha/a) h^a + (beta/b) h^b.

    For beta = 0 (single exponential, b unused) the beta-term is simply
    absent.  The Gordon families carry the psi-space form
    (psi')^2 = (2/(lambda gamma)) G_psi(psi) with G_psi = c1 - cos psi
    (sine) or c1 + cosh(2 psi)/2 (sinh).  ``g`` and ``g_prime`` take the
    direct path of :class:`OdeDescriptor` when a, b, a - 1 and b - 1 are
    all integral.
    """

    def __init__(self, params: EquationParams, frame: FrameParams, c1: float):
        if params.beta != 0.0 and params.b == 0.0:
            raise InvalidParamsError("exponent b must be nonzero when beta != 0")
        # g_psi_prime is OdeDescriptor.source_psi, so hold what it reads
        OdeDescriptor.__init__(self, params, frame)
        self.c1 = c1
        self.a1, self.b1 = params.a - 1.0, params.b - 1.0
        self.integral = all(map(_integral, (self.a, self.b, self.a1, self.b1)))
        # a = 0 only with alpha = 0, b = 0 only with beta = 0: no term
        self.alpha_a = params.alpha / params.a if params.a else 0.0
        self.beta_b = params.beta / params.b if params.b else 0.0

    def g(self, h: float) -> float:
        if self.imaginary_pair:
            return self.g_psi(math.log(h))
        direct = h > 0.0 or (self.integral and h != 0.0)
        total = self.c1 + self.alpha_a * (
            h ** self.a if direct else _real_pow(h, self.a))
        if self.beta != 0.0:
            total += self.beta_b * (
                h ** self.b if direct else _real_pow(h, self.b))
        return total

    def gs(self, hs: list[float]) -> list[float]:
        """``g`` at each h, bit for bit: the direct path inline, the scalar
        method where it takes ``_real_pow`` or the imaginary pair."""
        g = self.g
        if self.imaginary_pair:
            return [g(h) for h in hs]
        c1, alpha_a, beta_b, a, b = (
            self.c1, self.alpha_a, self.beta_b, self.a, self.b)
        integral = self.integral
        if self.beta != 0.0:
            return [c1 + alpha_a * h ** a + beta_b * h ** b
                    if h > 0.0 or (integral and h != 0.0) else g(h)
                    for h in hs]
        return [c1 + alpha_a * h ** a
                if h > 0.0 or (integral and h != 0.0) else g(h) for h in hs]

    def g_prime(self, h: float) -> float:
        if self.imaginary_pair:
            raise UnsupportedFamilyError("g_prime is h-space only")
        direct = h > 0.0 or (self.integral and h != 0.0)
        total = self.alpha * (
            h ** self.a1 if direct else _real_pow(h, self.a1))
        if self.beta != 0.0:
            total += self.beta * (
                h ** self.b1 if direct else _real_pow(h, self.b1))
        return total

    def g_psi(self, psi: float) -> float:
        if self.imaginary_pair:
            # (alpha i)/(a i) e^(i a psi) + ... pairs up into cosines;
            # with the sine-Gordon tags this is c1 - cos(psi)
            return (self.c1 + self.alpha_a * math.cos(self.a * psi)
                    + self.beta_b * math.cos(self.b * psi))
        total = self.c1 + self.alpha_a * math.exp(self.a * psi)
        if self.beta != 0.0:
            total += self.beta_b * math.exp(self.b * psi)
        return total

    def gs_psi(self, psis: list[float]) -> list[float]:
        """``g_psi`` at each psi, bit for bit."""
        c1, alpha_a, beta_b, a, b = (
            self.c1, self.alpha_a, self.beta_b, self.a, self.b)
        if self.imaginary_pair:
            cos = math.cos
            return [c1 + alpha_a * cos(a * psi) + beta_b * cos(b * psi)
                    for psi in psis]
        exp = math.exp
        if self.beta != 0.0:
            return [c1 + alpha_a * exp(a * psi) + beta_b * exp(b * psi)
                    for psi in psis]
        return [c1 + alpha_a * exp(a * psi) for psi in psis]

    # dG_psi/dpsi equals the ODE source written in psi
    g_psi_prime = OdeDescriptor.source_psi


def traveling_ode(params: EquationParams, frame: FrameParams) -> OdeDescriptor:
    """Descriptor of h h'' - (h')^2 = f(h) for these parameters."""
    return OdeDescriptor(params, frame)


def first_integral(params: EquationParams, frame: FrameParams,
                   c1: float) -> QuadratureDescriptor:
    """Descriptor of the once-integrated equation
    (h')^2 = (2/(lambda gamma)) h^2 G(h)."""
    return QuadratureDescriptor(params, frame, c1)


def conserved_c1(params: EquationParams, frame: FrameParams,
                 h: float, dh: float) -> float:
    """The integration constant recovered from a state (h, h').

    Exact along any true trajectory; its drift along a numerically
    integrated one measures integrator quality.
    """
    q = QuadratureDescriptor(params, frame, 0.0)
    return dh * dh / (2.0 * frame.r * h * h) - q.g(h)


@dataclass(frozen=True)
class EllipticData:
    """Cubic coefficients, Weierstrass invariants, discriminant and roots
    backing the closed-form classification of the cubic families."""

    family: FamilyLabel
    c1: float
    r: float
    a0: float
    a1: float
    a2: float
    a3: float
    p: float
    g2: float
    g3: float
    delta: float
    roots: CubicRoots
    repeated_root: float | None = None

    def to_json(self) -> dict:
        d = {
            "a0": self.a0, "a1": self.a1, "a2": self.a2, "a3": self.a3,
            "c1": self.c1, "delta": self.delta, "g2": self.g2, "g3": self.g3,
            "p": self.p, "r": self.r,
            "roots_real": list(self.roots.real),
        }
        if self.roots.complex_pair is not None:
            d["roots_complex_pair"] = list(self.roots.complex_pair)
        if self.repeated_root is not None:
            d["repeated_root"] = self.repeated_root
        return d


def range_error(c1: float, lambda_gamma: float, what: str) -> DomainError:
    """The one refusal of an input that puts a constant of its form past
    the float range; it names both inputs."""
    return DomainError(f"c1={c1} and lambda gamma={lambda_gamma} put {what} "
                       "past the float range")


#: (family, frame, c1, result) of the latest ``_cubic``
_last_cubic = (None, None, None, None)


def _cubic(family: FamilyLabel, frame: FrameParams, c1: float) -> tuple:
    """(a0, a1, a2, a3, inv, at) of the cubic (h')^2 = a3 h^3 + ... + a0 at
    r = sign(lambda gamma), whose roots in h hold at every |r|; inv its
    invariants, ``at`` (r^2 g2, |r|^3 g3) those at r itself (DLMF 23.10.17,
    inf past the float range).  The one place g2 and g3 are computed; inv
    past the float range (from |c1| ~ 4e51) raises ``range_error``.  A call
    with the very objects of the latest one returns its result, so that
    ``construct`` computes the cubic once, in ``classify_case``, for its
    builder too."""
    global _last_cubic
    last_family, last_frame, last_c1, result = _last_cubic
    if last_family is family and last_frame is frame and last_c1 is c1:
        return result
    if family not in CUBIC_FAMILIES:
        raise UnsupportedFamilyError(
            f"{family.name} does not reduce to the cubic elliptic equation")
    params = family_params(family)
    r = math.copysign(1.0, frame.r)
    a2 = 2.0 * c1 * r
    a1 = 0.0
    a3 = 2.0 * r * params.alpha  # all cubic families have a = 1
    a0 = 0.0 if params.beta == 0.0 else 2.0 * r * params.beta / params.b
    try:
        inv = WeierstrassInvariants(
            (a2 * a2 - 3.0 * a1 * a3) / 12.0,
            (9.0 * a1 * a2 * a3 - 27.0 * a0 * a3 * a3 - 2.0 * a2 ** 3) / 432.0)
    except (OverflowError, DomainError):
        raise range_error(c1, frame.lambda_gamma,
                          "the Weierstrass invariants") from None
    lg = abs(frame.lambda_gamma)
    result = a0, a1, a2, a3, inv, (inv.g2 / lg / lg, inv.g3 / lg / lg / lg)
    _last_cubic = family, frame, c1, result
    return result


def _roots_in_h(a0: float, a2: float, a3: float) -> CubicRoots:
    """Roots of a cubic family's own cubic a3 h^3 + a2 h^2 + a0 (a1 = 0,
    a0 != 0): three real ones sorted descending, or the real one and (re,
    |im|) of the conjugate pair.

    x = 1/h solves the depressed cubic x^3 + (a2/a0) x + a3/a0, which is
    the Weierstrass cubic at g2 = -4 a2/a0 and g3 = -4 a3/a0 and needs no
    shift, so each root keeps its digits however far apart they lie.
    """
    xs = solve_weierstrass_cubic(-4.0 * a2 / a0, -4.0 * a3 / a0)
    if xs.all_real:
        return CubicRoots(real=tuple(sorted((1.0 / x for x in xs.real),
                                            reverse=True)))
    re, im = xs.complex_pair  # 1/(re +- i im) = (re -+ i im)/(re^2 + im^2)
    norm = re * re + im * im
    return CubicRoots(real=(1.0 / xs.real[0],),
                      complex_pair=(re / norm, im / norm))


def elliptic_data(family: FamilyLabel, frame: FrameParams, c1: float) -> EllipticData:
    """The cubic's coefficients, g2/g3, discriminant and roots at the
    frame's own r, refused past the float range and for Gordon families.

    Roots and discriminant are read at sign(r) and scaled by |r| (DLMF
    23.10.17), as g2^3 and g3^2 taken at r itself underflow at large
    |lambda gamma|; where |r|^6 delta underflows it prints as a zero with
    the sign of the exact delta.  The double root is read from the roots,
    which come out as (d, d, -2d) exactly where delta is 0, and for
    Liouville from a0 = 0: its cubic h^2 (a3 h + a2) has the double root h
    = 0, which its rounded g2 and g3 do not keep exactly."""
    a0, a1, a2, a3, inv, at = _cubic(family, frame, c1)
    r = abs(frame.r)
    a0, a1, a2, a3 = a0 * r, a1 * r, a2 * r, a3 * r
    try:
        WeierstrassInvariants(*at)  # g2^3 or g3^2 past the float range
    except (OverflowError, DomainError):
        raise range_error(c1, frame.lambda_gamma,
                          "the Weierstrass invariants") from None
    unit = (solve_weierstrass_cubic(inv.g2, inv.g3) if a0
            else _double_root(inv.g3))
    return EllipticData(
        family=family, c1=c1, r=frame.r,
        a0=a0, a1=a1, a2=a2, a3=a3, p=a2, g2=at[0], g3=at[1],
        # left to right, so no product passes |r|^6 delta (0 stays 0)
        delta=inv.delta * r * r * r * r * r * r, roots=unit.scaled(r),
        # the root that appears exactly twice
        repeated_root=next((abs(t) * r for t in unit.real
                            if unit.real.count(t) == 2), None),
    )


def classify_case(family: FamilyLabel, frame: FrameParams, c1: float) -> CaseLabel:
    """Case label for (family, frame, c1), and the one owner of whether a
    real solution exists: one does exactly when r G > 0 for some value of
    the native variable, r = 1/(lambda gamma) in the family's own frame, so
    always for Liouville and the cubic families.  c1 within C1_MATCH_TOL of
    a special value counts as that value.  A cubic case is read from c1 and
    the sign of lambda gamma, both at the base (Tzitzeica) constants; no
    lambda gamma bounds its range, only a c1 whose invariants leave the
    float range (``_cubic`` refuses it).  Liouville's case is read from the
    signs of c1 and lambda gamma.  Raises SignDomainError where no real
    solution exists, DomainError where none is catalogued (sinh-Gordon,
    lambda gamma > 0, c1 < -1/2)."""
    if family is FamilyLabel.Liouville:
        if abs(c1) <= C1_MATCH_TOL:
            return CaseLabel.LiouvilleRational
        return (CaseLabel.LiouvilleSoliton
                if (c1 > 0.0) == (frame.lambda_gamma > 0.0)
                else CaseLabel.LiouvillePeriodic)
    if family in CUBIC_FAMILIES:
        _cubic(family, frame, c1)  # the range check of c1
        # the case is read from the base (Tzitzeica) constants
        flip = -1.0 if family in SIGN_MAPPED_FAMILIES else 1.0
        base_c1, base_lg = flip * c1, flip * frame.lambda_gamma
        if abs(base_c1 - C1_DEGENERATE) <= C1_MATCH_TOL:
            return (CaseLabel.Degenerate1a if base_lg > 0.0
                    else CaseLabel.Degenerate1b)
        if abs(base_c1) <= C1_MATCH_TOL:
            return CaseLabel.Equianharmonic
        # the cnoidal form needs the base lambda gamma > 0
        if abs(base_c1 - C1_LEMNISCATIC) <= C1_MATCH_TOL and base_lg > 0.0:
            return CaseLabel.Lemniscatic
        return CaseLabel.GeneralWeierstrass
    # G spans [g_lo, g_hi] over psi; a bound within C1_MATCH_TOL of 0 is 0
    if family is FamilyLabel.SineGordon:
        special, g_lo, g_hi = 1.0, c1 - 1.0, c1 + 1.0
    elif family is FamilyLabel.SinhGordon:
        special, g_lo, g_hi = 0.5, c1 + 0.5, math.inf
    else:
        raise UnsupportedFamilyError(f"no case taxonomy for {family.name}")
    if frame.lambda_gamma > 0.0:
        if not g_hi > C1_MATCH_TOL:
            raise SignDomainError("no real solution: r G <= 0 for every psi")
        if g_lo < -C1_MATCH_TOL and family is FamilyLabel.SinhGordon:
            raise DomainError("no catalogued closed form for sinh-Gordon with "
                              "lambda gamma > 0 and c1 < -1/2")
    elif not g_lo < -C1_MATCH_TOL:
        raise SignDomainError("no real solution: r G <= 0 for every psi")
    if abs(c1 - special) <= C1_MATCH_TOL:
        return CaseLabel.KinkC1Plus
    if abs(c1 + special) <= C1_MATCH_TOL:
        return CaseLabel.KinkC1Minus
    if abs(c1) <= C1_MATCH_TOL:
        return CaseLabel.AmplitudeC1Zero
    return CaseLabel.AmplitudeGeneric

