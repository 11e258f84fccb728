"""The closed forms of the cubic families against the paper's formulas,
evaluated at 30 digits.

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


@pytest.mark.parametrize("mag", [0.01, 0.37, 4.2, 100.0])
@pytest.mark.parametrize("c1, sign", P_FORMS,
                         ids=[f"{c1}-{s:+}" for c1, s in P_FORMS])
def test_weierstrass_forms_against_mpmath(c1, sign, mag):
    base_lg = sign * mag
    for frame_at in (lambda lg: FrameParams.from_lambda_gamma(lg, xi0=0.75),
                     lambda lg: FrameParams(lam=lg / 3.0, k=1.0, omega=2.0,
                                            xi0=-1.875)):
        # the four families at the same base constants: the sign-mapped ones
        # at (-c1, -lambda gamma), the reflected ones read at xi0 - (xi - xi0)
        sols = [(fam, construct(fam, s * c1, frame_at(s * base_lg)))
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
                    assert float(abs((h - ref) / ref)) <= bound, (fam, frame, xi)


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
