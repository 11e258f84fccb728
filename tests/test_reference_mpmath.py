"""The seven inverse-square closed forms against the paper's formulas,
evaluated at 30 digits.

Liouville's soliton, periodic and rational solutions and the four
degenerate (c1 = -3/2) cubic forms are each h = a + b / f(kappa (xi -
xi0))^2, with f one of cosh, sinh, cos, sin, or f(d) = d.  Every oracle
is blind to a shift of xi0 and to the reflection xi -> -xi, so only
reference values check them.  Each form is taken through every family
that builds it: Tzitzeica, Dodd-Bullough (the base form at (-c1, -lambda
gamma)), and the reflections h(xi) = -h_parent(-xi) with the parent at
-xi0 (TDB of Dodd-Bullough, DBM of Tzitzeica).  Both branches, |lambda
gamma| over [0.01, 100], xi0 != 0 and a k != 0 frame are covered.

The reference reads only the inputs: c1, the frame's lambda, k, omega
and xi0, and xi, each exact as a float.  lambda gamma = lambda (omega^2
- k^2) is formed at DPS digits, not taken from the frame.

The bound is conditioning x eps, eps = 2^-52.  The phase kappa (xi -
xi0) carries at most 2 eps of relative error: kappa is built from
lambda gamma, a quotient and a square root, and the phase from a
difference and a product.  Its effect on h is scaled by the phase
condition number |d h/d phase| |phase| / |h|.  f, its square, the
quotient and the final sum add at most 3 eps, relative to (|a| + |h -
a|) / |h|, which is large where a + b / f^2 cancels.  psi = log h may
miss by the same bound plus eps |psi|.  The worst reading over every
case here is 0.41 of that bound (the Tzitzeica csc^2 form at lambda
gamma = -0.01, phase 12, k != 0 frame).
"""

import math

import mpmath as mp
import pytest

from expwave.reduction import CaseLabel, FamilyLabel, FrameParams
from expwave.solutions import construct

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
