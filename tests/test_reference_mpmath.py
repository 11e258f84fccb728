"""The closed forms of the cubic and Gordon families against the paper's
formulas, evaluated at 30 digits.

Every oracle is blind to a shift of xi0 and to the reflection xi -> -xi,
so only reference values check them.  Each form is taken through every
family that builds it: Tzitzeica, Dodd-Bullough (the base form at (-c1,
-lambda gamma)), and the reflections h(xi) = -h_parent(-xi) with the
parent at -xi0 (TDB of Dodd-Bullough, DBM of Tzitzeica).  |lambda gamma|
over [0.01, 100], xi0 != 0 and a k != 0 frame are covered.

The reference reads only the inputs: c1, the frame's lambda, k, omega
and xi0, and xi, each exact as a float.  lambda gamma = lambda (omega^2
- k^2) is formed at DPS digits, not taken from the frame.  Each bound is
conditioning x eps, eps = 2^-52, with the worst reading beside it.

The inverse-square forms
------------------------
Liouville's soliton, periodic and rational solutions and the four
degenerate (c1 = -3/2) cubic forms are each h = a + b / f(kappa (xi -
xi0))^2, with f one of cosh, sinh, cos, sin, or f(d) = d; both branches
are covered.  The phase kappa (xi - xi0) carries at most 2 eps of
relative error: kappa is built from lambda gamma, a quotient and a square
root, and the phase from a difference and a product.  Its effect on h is
scaled by the phase condition number |d h/d phase| |phase| / |h|.  f, its
square, the quotient and the final sum add at most 3 eps, relative to
(|a| + |h - a|) / |h|, which is large where a + b / f^2 cancels.  psi =
log h may miss by the same bound plus eps |psi|.  The worst reading over
every case here is 0.41 of that bound (the Tzitzeica csc^2 form at lambda
gamma = -0.01, phase 12, k != 0 frame).

The Weierstrass forms
---------------------
The Equianharmonic (c1 = 0) and general Weierstrass forms are h = 2
lambda gamma p(xi - xi0; g2, g3) - c1/3 at the base constants, with g2 =
c1^2 / (3 (lambda gamma)^2) and g3 = -(27 + 4 c1^3) / (108 (lambda
gamma)^3), p from the polyroots and ellipfun construction of
test_specfun_mpmath.  They are taken at both signs of lambda gamma, at c1
with one real root of the cubic and with three, and at six points from
0.05 to 12.71 real periods from xi0, where xi - xi0 is exact.  The phase
carries at most 8 eps: the rate comes from the cubic's roots, their
difference and a square root, and the rounding of the elliptic parameter
moves the period, a drift that grows with the phase as the phase's own
error does (the rounding of lambda gamma, a scale of the phase, adds half
its own).  Its effect is scaled by the phase condition number |h'| |xi -
xi0| / |h|, with |h'| = 2 |lambda gamma p'| and p'^2 = 4 p^3 - g2 p - g3.
The value adds at most 4 eps relative to (|2 lambda gamma p| + |c1/3|) /
|h|: the rounding of p itself and of the final sum, which cancels where h
crosses 0.  The worst reading is 0.55 of that bound (the Equianharmonic
form at lambda gamma = -0.01, half a period out, k != 0 frame; 0.65 when
the forms were built from p).

The same bound holds next to the repeated root c1 = -3/2, at base c1 =
-1.5 + 1e-6, + 1e-9 and + 1e-12 and lambda gamma = +-1 (built as the
general form on request, as the last c1 classifies as degenerate), where
the cubic has one real root and a complex pair whose imaginary part
shrinks like sqrt(c1 + 3/2).  The worst reading is 0.48 of it (c1 = -1.5
+ 1e-6, lambda gamma = 1);
it was 25.7, 224 and 1.05e3 at lambda gamma = 1 while the solver took
that part as sqrt(3) |u - v| / 2, which cancels.  The other side, c1 =
-1.5 - 1e-6, - 1e-9 and - 1e-12, has three real roots, and the sn kind
forms its parameter from their rounded difference: at lambda gamma = 1
it reads 8.56, 143 and 4.13e3 times the bound, and is not held to it.

At large |c1| the same forms are checked at lambda gamma = +-1 and c1 =
+-3e4, +-1e6 and +-1e15, with the reference at BIG_DPS = 60 digits, since
2 lambda gamma p - c1/3 cancels about log10 |c1| of them.  There the cubic
in h has one root of size |c1| and two of size |c1|^(-1/2), h spends most
of a period far below |c1|, and the value term above would excuse any
loss to that cancellation.  The bound is intrinsic instead: the phase
term, plus 4 eps x |dh/dc1| |c1| / |h|, since c1 reaches the roots
through a2/a0 = fl(fl(2 c1 r)/r), within 2 eps of 2 c1, and the roots
come within 2 eps of those of the rounded cubic, plus 4 eps for the
roots' own rounding and the final sums.  dh/dc1 is a central difference
of the reference at c1 (1 +- 1e-20).  The worst reading is 0.24 of that
bound; p built from the invariants returned a constant from |c1| ~ 2.4e4
on, and misses by 1e-12 relative already at c1 = 10.

The Jacobi forms
----------------
The lemniscatic wave h = a (1 - sqrt(3) cn^2(s (xi - xi0) | 1/2)), a =
4^(-1/3), s = 3^(1/4) / (2^(1/3) sqrt(lambda gamma)) at the base
constants, is taken through the four cubic families, as the
Weierstrass forms are.  The sine-Gordon forms are the kinks (c1 = +-1)
and psi = 2 am(+-sqrt((c1 - 1)/(2 lambda gamma)) (xi - xi0) | 2/(1 -
c1)) on both sides of m = 1: c1 = 0 (m = 2) and c1 = -3 (m = 1/2) at
lambda gamma = -1, c1 = 3 (m = -1) at +1, and the pi images of the
c1 = 0 and 1/2 forms at +1.  The sinh-Gordon forms are the kinks (c1 =
+-1/2) and psi = -+asinh(sc(sqrt((2 c1 + 1)/lambda gamma) (xi - xi0) |
(2 c1 - 1)/(2 c1 + 1))), a lattice at lambda gamma > 0 (c1 = 1, and c1
= 0 where the parameter is -1) and bounded at lambda gamma < 0 (c1 =
-1, -3).  Each is taken at |lambda gamma| = 0.01, 1 and 100, on both
branches and both frames.  sn, cn and dn come from mpmath.ellipfun
(for m > 1 through the reciprocal-parameter identities), K from
mpmath.ellipk, and am is atan2(sn, cn) made continuous.

Each descriptor's period, 2 K / kappa for the lemniscatic wave and for
the sc lattice, is checked against mpmath.ellipk at the exact
constants, within 8 eps relative: K within 4 eps (the bound of the
complete-integral test in test_elliptic_mpmath), kappa within 3 eps,
and the quotient.  The worst reading is 1.2 eps (2.0 with K from
Carlson's R_F).  The phase x carries
the 2 eps of the inverse-square forms, plus the error of the kernel's
own phase scale, the Landen ladder's AGM and K in am's reduction by 2
K, a few eps each; the kernel's rounding at each point (sin, exp or
tan of the phase) acts as an absolute phase error of about an eps, as
in the 4 eps (1 + |u|) of the jacobi_sn_cn_dn docstring.  So the phase
term is 8 eps |d value/dx| (1 + |x|).  The value term is 4 eps (|a| +
|h - a|), relative to |h| for the lemniscatic h with constant a, and
absolute for psi with its shift a of 0 or +-pi.  The worst reading is
0.31 of the bound (the sine-Gordon c1 = 0 form at lambda gamma = -1),
0.11 for the lemniscatic wave (0.16 with K from Carlson's R_F).
"""

import math

import mpmath as mp
import pytest

from expwave.reduction import C1_LEMNISCATIC, CaseLabel, FamilyLabel, FrameParams
from expwave.solutions import construct
from test_specfun_mpmath import _weierstrass_reference

DPS = 30
EPS = 2.0 ** -52
#: eps multiples of the phase's and of the value's own rounding (see above)
PHASE_EPS = 2.0
VALUE_EPS = 3.0

LV = FamilyLabel.Liouville
TZ = FamilyLabel.Tzitzeica
DB = FamilyLabel.DoddBullough
TDB = FamilyLabel.TzitzeicaDoddBullough
DBM = FamilyLabel.DoddBulloughMikhailov


def _sech2(x):
    return mp.sech(x) ** 2


def _csch2(x):
    return mp.csch(x) ** 2


def _sec2(x):
    return mp.sec(x) ** 2


def _csc2(x):
    return mp.csc(x) ** 2


#: the paper's forms, h of (c1, lambda gamma, d = xi - xi0) for Liouville
#: and of (lambda gamma, d) at the base (Tzitzeica) constants for c1 = -3/2
PAPER = {
    CaseLabel.LiouvilleSoliton:
        lambda c1, lg, d: -c1 * _sech2(mp.sqrt(c1 / (2 * lg)) * d),
    CaseLabel.LiouvillePeriodic:
        lambda c1, lg, d: -c1 * _sec2(mp.sqrt(-c1 / (2 * lg)) * d),
    CaseLabel.LiouvilleRational:
        lambda c1, lg, d: 2 * lg / d ** 2,
    (CaseLabel.Degenerate1a, 1):  # dark soliton
        lambda lg, d: 1 - mp.mpf(3) / 2 * _sech2(mp.sqrt(3 / lg) / 2 * d),
    (CaseLabel.Degenerate1a, -1):  # singular soliton
        lambda lg, d: 1 + mp.mpf(3) / 2 * _csch2(mp.sqrt(3 / lg) / 2 * d),
    (CaseLabel.Degenerate1b, 1):
        lambda lg, d: 1 - mp.mpf(3) / 2 * _sec2(mp.sqrt(-3 / lg) / 2 * d),
    (CaseLabel.Degenerate1b, -1):
        lambda lg, d: 1 - mp.mpf(3) / 2 * _csc2(mp.sqrt(-3 / lg) / 2 * d),
}


def _reference(family, case, c1, frame, branch):
    """(xi -> h at DPS digits, a): the paper's form for ``family`` and its
    constant term a."""
    lam, k, omega = (mp.mpf(v) for v in (frame.lam, frame.k, frame.omega))
    lg = lam * (omega * omega - k * k)
    xi0 = mp.mpf(frame.xi0)
    if family is LV:
        form = PAPER[case]
        return (lambda xi: form(mp.mpf(c1), lg, xi - xi0)), 0
    base = PAPER[case, branch]
    if family in (DB, TDB):  # the base form at (-c1, -lambda gamma)
        lg = -lg
    if family in (TDB, DBM):  # -h_parent(-xi), the parent built at -xi0
        return (lambda xi: -base(lg, -xi - (-xi0))), -1
    return (lambda xi: base(lg, xi - xi0)), 1


#: (family, c1, sign of lambda gamma, branch, case)
FORMS = [
    (LV, s * c, s * t, b, case)
    for c in (0.8, 2.7) for s in (1.0, -1.0) for b in (1, -1)
    for t, case in ((1.0, CaseLabel.LiouvilleSoliton),
                    (-1.0, CaseLabel.LiouvillePeriodic))
] + [(LV, 0.0, s, b, CaseLabel.LiouvilleRational)
     for s in (1.0, -1.0) for b in (1, -1)] + [
    (fam, s * -1.5, s * t, b, case)
    for fam, s in ((TZ, 1.0), (DB, -1.0), (TDB, -1.0), (DBM, 1.0))
    for t, case in ((1.0, CaseLabel.Degenerate1a),
                    (-1.0, CaseLabel.Degenerate1b))
    for b in (1, -1)
]

#: phases kappa (xi - xi0), clear of the sec^2 and csc^2 poles by >= 0.05
PHASES = (-2.6, -0.9, 0.05, 0.4, 1.3, 3.7, 12.0)


def _frames(lg: float) -> list[FrameParams]:
    # a lambda gamma frame and a k != 0 frame with lambda = lg / 3
    return [FrameParams.from_lambda_gamma(lg, xi0=0.7),
            FrameParams(lam=lg / 3.0, k=1.0, omega=2.0, xi0=-1.9)]


def _kappa(case, c1: float, lg: float) -> float:
    """The rate kappa, near enough to place the phases."""
    if case is CaseLabel.LiouvilleRational:
        return 1.0
    if case in (CaseLabel.LiouvilleSoliton, CaseLabel.LiouvillePeriodic):
        return math.sqrt(abs(c1 / (2.0 * lg)))
    return 0.5 * math.sqrt(3.0 / abs(lg))


@pytest.mark.parametrize("mag", [0.01, 0.37, 1.0, 4.2, 100.0])
@pytest.mark.parametrize("family, c1, sign, branch, case", FORMS,
                         ids=[f"{f.value}-{c1}-{s:+}-{b:+}-{case.name}"
                              for f, c1, s, b, case in FORMS])
def test_inverse_square_forms_against_mpmath(family, c1, sign, branch, case,
                                             mag):
    lg = sign * mag
    for frame in _frames(lg):
        sol = construct(family, c1, frame, branch=branch)
        assert sol.case is case
        with mp.workdps(DPS):
            ref, a = _reference(family, case, c1, frame, branch)
            base_lg = -lg if family in (DB, TDB) else lg
            kappa = _kappa(case, c1, base_lg)
            for phase in PHASES:
                xi = frame.xi0 + phase / kappa
                x = mp.mpf(xi)
                h_ref = ref(x)
                d = x - frame.xi0
                # relative change of h per relative change of the phase
                cond_phase = abs(mp.diff(lambda t: ref(frame.xi0 + t * d), 1)
                                 / h_ref)
                cond_value = (abs(a) + abs(h_ref - a)) / abs(h_ref)
                bound = EPS * float(PHASE_EPS * cond_phase
                                    + VALUE_EPS * cond_value)
                h = sol.evaluate_h(xi)
                assert float(abs((h - h_ref) / h_ref)) <= bound, (frame, xi)
                psi = sol.evaluate_psi(xi)
                if h_ref > 0:
                    psi_ref = mp.log(h_ref)
                    assert float(abs(psi - psi_ref)) <= \
                        bound + EPS * float(abs(psi_ref)), (frame, xi)
                else:
                    assert math.isnan(psi)


#: eps multiples of the Weierstrass forms' phase and value (see above)
P_PHASE_EPS = 8.0
P_VALUE_EPS = 4.0

#: base (Tzitzeica) c1 of the Weierstrass forms: the Equianharmonic c1 = 0,
#: general ones with one real root of the cubic (c1 > -3/2) and with three
#: (c1 < -3/2); the lemniscatic c1 is a general form at lambda gamma < 0
P_FORMS = [(c1, s) for c1 in (0.0, 1.0, -0.7, 2.5, -2.0, -3.5)
           for s in (1.0, -1.0)] + [(C1_LEMNISCATIC, -1.0)]

#: where the points sit, in real periods from xi0
P_PERIODS = (0.05, 0.23, 0.5, 0.77, 3.37, 12.71)


def _short(x: float) -> float:
    """x rounded to 30 bits, so that xi0 +- x is exact."""
    m, e = math.frexp(x)
    return math.ldexp(round(math.ldexp(m, 30)), e - 30)


def _weierstrass_readings(c1, base_lg, case=None):
    """(error, bound, where) at each point of the four families'
    Weierstrass forms at base (c1, lambda gamma), built as ``case`` (None:
    the classified one): the relative error of h, the bound above, and
    (family, frame, xi)."""
    for frame_at in (lambda lg: FrameParams.from_lambda_gamma(lg, xi0=0.75),
                     lambda lg: FrameParams(lam=lg / 3.0, k=1.0, omega=2.0,
                                            xi0=-1.875)):
        # the four families at the same base constants: the sign-mapped ones
        # at (-c1, -lambda gamma), the reflected ones read at xi0 - (xi - xi0)
        sols = [(fam, construct(fam, s * c1, frame_at(s * base_lg), case=case))
                for fam, s in ((TZ, 1.0), (DB, -1.0), (TDB, -1.0), (DBM, 1.0))]
        frame = sols[0][1].frame
        period = sols[0][1].params["period"]
        with mp.workdps(DPS):
            lam, k, omega = (mp.mpf(v) for v in (frame.lam, frame.k, frame.omega))
            lg = lam * (omega * omega - k * k)
            c, r = mp.mpf(c1), 1 / lg
            g2 = c * c * r * r / 3
            g3 = -r ** 3 * (27 + 4 * c ** 3) / 108
            p = _weierstrass_reference(g2, g3)
            for n in P_PERIODS:
                d = _short(n * period)
                p_ref = p(d)
                h_ref = 2 * lg * p_ref - c / 3
                slope = 2 * lg * mp.sqrt(abs(4 * p_ref ** 3 - g2 * p_ref - g3))
                cond_phase = abs(slope * d / h_ref)
                cond_value = (abs(2 * lg * p_ref) + abs(c / 3)) / abs(h_ref)
                bound = EPS * float(P_PHASE_EPS * cond_phase
                                    + P_VALUE_EPS * cond_value)
                for fam, sol in sols:
                    assert sol.case in (CaseLabel.Equianharmonic,
                                        CaseLabel.GeneralWeierstrass)
                    xi0 = sol.frame.xi0
                    reflect = fam in (TDB, DBM)
                    xi = xi0 - d if reflect else xi0 + d
                    ref = -h_ref if reflect else h_ref
                    h = sol.evaluate_h(xi)
                    yield float(abs((h - ref) / ref)), bound, (fam, frame, xi)


@pytest.mark.parametrize("mag", [0.01, 0.37, 4.2, 100.0])
@pytest.mark.parametrize("c1, sign", P_FORMS,
                         ids=[f"{c1}-{s:+}" for c1, s in P_FORMS])
def test_weierstrass_forms_against_mpmath(c1, sign, mag):
    for error, bound, where in _weierstrass_readings(c1, sign * mag):
        assert error <= bound, where


#: base c1 just above the repeated root c1 = -3/2, where the cubic has one
#: real root and a complex pair near the real axis; -1.5 + 1e-12 classifies
#: as degenerate, so every row is built as the general form on request
NEAR_DOUBLE_C1 = [(-1.5 + delta, s) for delta in (1e-6, 1e-9, 1e-12)
                  for s in (1.0, -1.0)]


@pytest.mark.parametrize("c1, sign", NEAR_DOUBLE_C1,
                         ids=[f"{c1!r}-{s:+}" for c1, s in NEAR_DOUBLE_C1])
def test_weierstrass_forms_next_to_the_double_root_against_mpmath(c1, sign):
    for error, bound, where in _weierstrass_readings(
            c1, sign, case=CaseLabel.GeneralWeierstrass):
        assert error <= bound, where


BIG_DPS = 60
#: eps multiples of c1's rounding and of the value's at large |c1|
P_C1_EPS = 4.0
P_ROUND_EPS = 4.0

#: (c1, sign of lambda gamma) at the base constants; one real root of the
#: cubic for c1 > 0, three for c1 < 0
BIG_C1 = [(c1, s) for c1 in (3e4, -3e4, 1e6, -1e6, 1e15, -1e15)
          for s in (1.0, -1.0)]


def _base_form(c1, lg):
    """(d -> h, p, g2, g3) of the base form at DPS-digit constants."""
    r = 1 / lg
    g2 = c1 * c1 * r * r / 3
    g3 = -r ** 3 * (27 + 4 * c1 ** 3) / 108
    p = _weierstrass_reference(g2, g3)
    return (lambda d: 2 * lg * p(d) - c1 / 3), p, g2, g3


@pytest.mark.parametrize("c1, sign", BIG_C1,
                         ids=[f"{c1:g}-{s:+}" for c1, s in BIG_C1])
def test_weierstrass_forms_at_large_c1_against_mpmath(c1, sign):
    sols = [(fam, construct(fam, s * c1,
                            FrameParams.from_lambda_gamma(s * sign, xi0=0.75)))
            for fam, s in ((TZ, 1.0), (DB, -1.0), (TDB, -1.0), (DBM, 1.0))]
    assert {sol.case for _, sol in sols} == {CaseLabel.GeneralWeierstrass}
    period = sols[0][1].params["period"]
    with mp.workdps(BIG_DPS):
        lg, c, step = mp.mpf(sign), mp.mpf(c1), mp.mpf(10) ** -20
        h, p, g2, g3 = _base_form(c, lg)
        h_up = _base_form(c * (1 + step), lg)[0]
        h_down = _base_form(c * (1 - step), lg)[0]
        for n in (0.05, 0.3, 0.5, 0.55, 3.37):
            d = _short(n * period)
            p_ref = p(d)
            h_ref = 2 * lg * p_ref - c / 3
            slope = 2 * lg * mp.sqrt(abs(4 * p_ref ** 3 - g2 * p_ref - g3))
            cond_phase = abs(slope * d / h_ref)
            cond_c1 = abs((h_up(d) - h_down(d)) / (2 * step * h_ref))
            bound = EPS * float(P_PHASE_EPS * cond_phase
                                + P_C1_EPS * cond_c1 + P_ROUND_EPS)
            for fam, sol in sols:
                reflect = fam in (TDB, DBM)
                xi = 0.75 - d if reflect else 0.75 + d
                ref = -h_ref if reflect else h_ref
                h_xi = sol.evaluate_h(xi)
                assert float(abs((h_xi - ref) / ref)) <= bound, (fam, xi)


#: eps multiples of the Jacobi forms' phase, value and period (see above)
J_PHASE_EPS = 8.0
J_VALUE_EPS = 4.0
PERIOD_EPS = 8.0

SG = FamilyLabel.SineGordon
SH = FamilyLabel.SinhGordon


def _jacobi(u, m):
    """sn, cn, dn(u | m) at the working precision; m > 1 through the
    reciprocal-parameter identities (DLMF 22.17.2-4), where ellipfun would
    take a slow complex path (at m < 0 it returns a zero imaginary part)."""
    if m > 1:
        rk = mp.sqrt(m)
        sn, cn, dn = _jacobi(u * rk, 1 / m)
        return sn / rk, dn, cn
    return tuple(mp.re(mp.ellipfun(kind, u, m=m))
                 for kind in ("sn", "cn", "dn"))


def _am(u, m):
    """am(u | m): atan2(sn, cn), bounded for m > 1 (cn > 0 there); for
    m < 1 the continuous branch, the multiple of 2 pi nearest the secular
    part pi u / (2 K) added (am - pi u / (2 K) stays within pi/2)."""
    sn, cn, _ = _jacobi(u, m)
    at = mp.atan2(sn, cn)
    if m > 1:
        return at
    drift = mp.pi * u / (2 * mp.ellipk(m))
    return at + 2 * mp.pi * mp.nint((drift - at) / (2 * mp.pi))


def _lemniscatic(lg, d):
    """(h, its constant term, the phase) of the base lemniscatic wave."""
    scale = mp.mpf(3) ** (mp.mpf(1) / 4) / (mp.cbrt(2) * mp.sqrt(lg))
    amp = 1 / mp.cbrt(4)
    cn = _jacobi(scale * d, mp.mpf(1) / 2)[1]
    return amp * (1 - mp.sqrt(3) * cn * cn), amp, scale * d


def _lemniscatic_period(lg):
    return 2 * mp.ellipk(mp.mpf(1) / 2) * mp.cbrt(2) * mp.sqrt(lg) \
        / mp.mpf(3) ** (mp.mpf(1) / 4)


#: the lemniscatic wave in each cubic family where it exists: (family, s),
#: c1 = s C1_LEMNISCATIC at lambda gamma of sign s
LEMNISCATIC = [(TZ, 1.0), (DB, -1.0), (TDB, -1.0), (DBM, 1.0)]


@pytest.mark.parametrize("mag", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("family, s", LEMNISCATIC,
                         ids=[f.value for f, _ in LEMNISCATIC])
def test_lemniscatic_forms_against_mpmath(family, s, mag):
    worst = 0.0
    for frame in _frames(s * mag):
        sol = construct(family, s * C1_LEMNISCATIC, frame)
        assert sol.case is CaseLabel.Lemniscatic
        period = sol.descriptor()["params"]["period"]
        reflect = family in (TDB, DBM)
        with mp.workdps(DPS):
            lam, k, omega = (mp.mpf(v) for v in (frame.lam, frame.k,
                                                 frame.omega))
            base_lg = s * lam * (omega * omega - k * k)
            ref_period = _lemniscatic_period(base_lg)
            err = float(abs((period - ref_period) / ref_period))
            assert err <= PERIOD_EPS * EPS
            worst = max(worst, err / (PERIOD_EPS * EPS))
            xi0 = mp.mpf(frame.xi0)
            for n in (-0.41,) + P_PERIODS:
                xi = frame.xi0 + _short(n * period)
                d = xi0 - xi if reflect else xi - xi0
                h_ref, a, x = _lemniscatic(base_lg, d)
                dh = mp.diff(lambda t: _lemniscatic(base_lg, t * d)[0], 1)
                if reflect:
                    h_ref, a = -h_ref, -a
                cond_phase = abs(dh * (1 + abs(x)) / (x * h_ref))
                cond_value = (abs(a) + abs(h_ref - a)) / abs(h_ref)
                bound = EPS * float(J_PHASE_EPS * cond_phase
                                    + J_VALUE_EPS * cond_value)
                err = float(abs((sol.evaluate_h(xi) - h_ref) / h_ref))
                assert err <= bound, (frame, xi)
                worst = max(worst, err / bound)
    assert worst <= 1.0


def _sine_gordon(c1, lg, branch, d):
    """(psi, its shift, the phase) of the paper's sine-Gordon form at
    (c1, lambda gamma) for the branch; d = xi - xi0."""
    if c1 == -1:  # the -pi image of the c1 = +1 kink at -lambda gamma
        psi, _, x = _sine_gordon(mp.mpf(1), -lg, branch, d)
        return psi - mp.pi, -mp.pi, x
    if c1 == 1:
        x = branch * d / mp.sqrt(lg)
        return 4 * mp.atan(mp.exp(x)), 0, x
    if (c1 - 1) / lg < 0:  # the pi image of the form at (-c1, -lg)
        psi, _, x = _sine_gordon(-c1, -lg, branch, d)
        return psi + mp.pi, mp.pi, x
    x = branch * mp.sqrt((c1 - 1) / (2 * lg)) * d
    return 2 * _am(x, 2 / (1 - c1)), 0, x


def _sinh_gordon(c1, lg, branch, d):
    """(psi, 0, the phase) of the paper's sinh-Gordon form; d = xi - xi0."""
    if c1 == -0.5:
        x = branch * mp.sqrt(2 / lg) * d
        return 2 * mp.atanh(mp.exp(x)), 0, x
    if c1 == 0.5:
        x = branch * d / mp.sqrt(2 * lg)
        return 2 * mp.atanh(mp.tan(x)), 0, x
    x = mp.sqrt((2 * c1 + 1) / lg) * d
    sn, cn, _ = _jacobi(x, (2 * c1 - 1) / (2 * c1 + 1))
    return -branch * mp.asinh(sn / cn), 0, x


#: (family, c1, lambda gamma at |lambda gamma| = 1, case, parameter m of
#: the Jacobi functions or None): the sine-Gordon kinks and amplitude forms
#: on both sides of m = 1, with the pi images of the c1 = 0 and 1/2 forms,
#: and the sinh-Gordon kinks and sc forms, a lattice at lambda gamma > 0
#: and bounded at lambda gamma < 0
GORDON = [
    (SG, 1.0, 1.0, CaseLabel.KinkC1Plus, None),
    (SG, -1.0, -1.0, CaseLabel.KinkC1Minus, None),
    (SG, 0.0, -1.0, CaseLabel.AmplitudeC1Zero, 2.0),
    (SG, -3.0, -1.0, CaseLabel.AmplitudeGeneric, 0.5),
    (SG, 0.0, 1.0, CaseLabel.AmplitudeC1Zero, 2.0),
    (SG, 0.5, 1.0, CaseLabel.AmplitudeGeneric, 4.0 / 3.0),
    (SG, 3.0, 1.0, CaseLabel.AmplitudeGeneric, -1.0),
    (SH, -0.5, 1.0, CaseLabel.KinkC1Minus, None),
    (SH, 0.5, 1.0, CaseLabel.KinkC1Plus, None),
    (SH, 1.0, 1.0, CaseLabel.AmplitudeGeneric, 1.0 / 3.0),
    (SH, 0.0, 1.0, CaseLabel.AmplitudeC1Zero, -1.0),
    (SH, -1.0, -1.0, CaseLabel.AmplitudeGeneric, 3.0),
    (SH, -3.0, -1.0, CaseLabel.AmplitudeGeneric, 1.4),
]

#: phases of the Gordon forms; the sinh-Gordon c1 = -1/2 kink is real on
#: one side of xi0, its c1 = +1/2 kink within pi/4 of each multiple of pi
G_PHASES = {(SH, -0.5): (-0.05, -0.4, -1.3, -3.7, -12.0),
            (SH, 0.5): (-0.7, -0.3, 0.05, 0.4, 3.2, 12.0)}


@pytest.mark.parametrize("mag", [0.01, 1.0, 100.0])
@pytest.mark.parametrize("family, c1, sign, case, m", GORDON,
                         ids=[f"{f.value}-{c1}-{s:+}" for f, c1, s, _, _
                              in GORDON])
def test_gordon_forms_against_mpmath(family, c1, sign, case, m, mag):
    form = _sine_gordon if family is SG else _sinh_gordon
    phases = G_PHASES.get((family, c1), PHASES)
    worst = 0.0
    for branch in (1, -1):
        for frame in _frames(sign * mag):
            sol = construct(family, c1, frame, branch=branch)
            assert sol.case is case
            params = sol.descriptor()["params"]
            with mp.workdps(DPS):
                lam, k, omega = (mp.mpf(v) for v in (frame.lam, frame.k,
                                                     frame.omega))
                lg = lam * (omega * omega - k * k)
                xi0 = mp.mpf(frame.xi0)
                # the phase per unit xi - xi0, signed by the branch
                rate = form(c1, lg, branch, mp.mpf(1))[2]
                kappa = abs(rate)
                if "period" in params and m is not None:
                    # the sc lattice: poles 2 K / kappa apart
                    ref_period = 2 * mp.ellipk(m) / kappa
                    err = float(abs((params["period"] - ref_period)
                                    / ref_period))
                    assert err <= PERIOD_EPS * EPS
                    worst = max(worst, err / (PERIOD_EPS * EPS))
                for phase in phases:
                    xi = frame.xi0 + phase / float(rate)
                    d = mp.mpf(xi) - xi0
                    psi_ref, shift, x = form(c1, lg, branch, d)
                    dpsi = mp.diff(lambda t: form(c1, lg, branch, t * d)[0], 1)
                    cond_phase = abs(dpsi * (1 + abs(x)) / x)
                    cond_value = abs(shift) + abs(psi_ref - shift)
                    bound = EPS * float(J_PHASE_EPS * cond_phase
                                        + J_VALUE_EPS * cond_value)
                    err = float(abs(sol.evaluate_psi(xi) - psi_ref))
                    assert err <= bound, (branch, frame, xi)
                    worst = max(worst, err / bound)
    assert worst <= 1.0
