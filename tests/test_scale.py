"""lambda gamma is a length scale of every closed form.

The reduced equation h h'' - (h')^2 = (h^2 / (lambda gamma)) (alpha h^a +
beta h^b) keeps its form under xi = xi0 + sqrt(|lambda gamma|) eta with
lambda gamma -> sigma = sign(lambda gamma); for the p forms this is p's
homogeneity (DLMF 23.10.17).  So the solution at (c1, lambda gamma, xi0,
branch) is the one at (c1, sigma, 0, branch) read at eta = (xi - xi0) /
sqrt(|lambda gamma|).  Each catalogued form is checked so, in h for the
cubic families and Liouville and in psi for the Gordon families, through
every family that builds it (the degenerate c1 also as the general
Weierstrass form) and on both branches, with xi0 != 0 on a
lambda gamma frame and on a k != 0 frame (lambda = lambda gamma / 3,
omega = 2, k = 1), at |lambda gamma| from 0.01 to 100 and from 1e-300 to
1e300, and at the inputs refused while lambda gamma entered each form's
own constants (FORMER_REFUSALS).

The two values are built from the same constants, so they differ by
rounding alone.  The phase, kappa (xi - xi0) on one side and kappa_1 eta
on the other, carries a few eps of relative error on each side (the rate,
sqrt(|lambda gamma|), eta's own quotient and difference), and the kernel
at the two phases rounds differently, about an eps of the phase in
absolute terms, as in the 4 eps (1 + |u|) of the jacobi_sn_cn_dn
docstring; so the phase term is PHASE_EPS eps |dv/deta| (1 + |eta|).
Constants of the form that are formed from lambda gamma (the roots of the
cubic in h, the elliptic parameter) round differently too, which the
value term VALUE_EPS eps (|v| + A) covers, with A the size of the form's
constant part (1 + |c1| for the cubic families, pi for the psi shifts of
sine-Gordon, 0 for Liouville).  dv/deta is a central difference of the
sigma form, good to about 1e-9 of itself here.  Points within the default
pad of the sigma form's singular set are skipped; at least two are taken
in every row.
"""

import math

import pytest

from expwave.reduction import (
    C1_LEMNISCATIC,
    GORDON_FAMILIES,
    CaseLabel,
    FamilyLabel,
    FrameParams,
)
from expwave.solutions import construct

EPS = 2.0 ** -52
PHASE_EPS = 8.0
VALUE_EPS = 4.0

LV = FamilyLabel.Liouville
TZ = FamilyLabel.Tzitzeica
DB = FamilyLabel.DoddBullough
TDB = FamilyLabel.TzitzeicaDoddBullough
DBM = FamilyLabel.DoddBulloughMikhailov
SG = FamilyLabel.SineGordon
SH = FamilyLabel.SinhGordon

#: (family, c1, sigma): every catalogued case; the cubic ones through the
#: four families, the sign-mapped ones (DB, TDB) at (-c1, -sigma) of the
#: base constants
FORMS = (
    [(LV, c1, s) for c1 in (0.8, -2.7) for s in (1.0, -1.0)]
    + [(LV, 0.0, s) for s in (1.0, -1.0)]
    + [(fam, f * c1, f * s)
       for fam, f in ((TZ, 1.0), (DB, -1.0), (TDB, -1.0), (DBM, 1.0))
       for c1, s in ((-1.5, 1.0), (-1.5, -1.0), (C1_LEMNISCATIC, 1.0),
                     (0.0, 1.0), (0.0, -1.0), (1.0, 1.0), (1.0, -1.0),
                     (-2.5, 1.0), (-2.5, -1.0))]
    + [(SG, c1, s) for c1, s in ((1.0, 1.0), (-1.0, -1.0), (0.0, -1.0),
                                 (-3.0, -1.0), (3.0, 1.0), (0.0, 1.0),
                                 (0.5, 1.0), (-0.5, -1.0))]
    + [(SH, c1, s) for c1, s in ((-0.5, 1.0), (0.5, 1.0), (1.0, 1.0),
                                 (0.0, 1.0), (-1.0, -1.0), (-3.0, -1.0))]
)

#: |lambda gamma| of each row
MAGNITUDES = (0.01, 0.37, 2.9, 100.0,
              1e-300, 1e-150, 1e-60, 1e60, 1e150, 1e300)

#: eta targets, distances from xi0 at |lambda gamma| = 1
ETAS = (-2.6, -0.9, 0.05, 0.4, 1.3, 3.7, 12.0)


def _frames(lg: float, length: float = 1.0) -> list[FrameParams]:
    root = math.sqrt(abs(lg)) * length
    return [FrameParams.from_lambda_gamma(lg, xi0=0.7 * root),
            FrameParams(lam=lg / 3.0, k=1.0, omega=2.0, xi0=-1.9 * root)]


def _value(sol):
    return sol.evaluate_psi if sol.psi_native else sol.evaluate_h


def _const_size(family, c1: float) -> float:
    if family is LV:
        return 0.0
    return math.pi if family in GORDON_FAMILIES else 1.0 + abs(c1)


def scale_readings(family, c1: float, frame: FrameParams, branch: int,
                   length: float = 1.0, case: CaseLabel | None = None):
    """(xi, reading) at each kept point: |v(xi) - v_sigma(eta)| over the
    bound in the module docstring, with eta at ``length`` times ETAS and
    (length + |eta|) in place of (1 + |eta|); both forms are built as
    ``case`` (the classified one when None)."""
    lg = frame.lambda_gamma
    sol = construct(family, c1, frame, branch=branch, case=case)
    unit = construct(family, c1,
                     FrameParams.from_lambda_gamma(math.copysign(1.0, lg)),
                     branch=branch, case=case)
    assert sol.case is unit.case
    value, unit_value = _value(sol), _value(unit)
    sing = unit.singularities
    pad = sing.default_pad()
    root = math.sqrt(abs(lg))
    size = _const_size(family, c1)
    readings = []
    for target in ETAS:
        xi = frame.xi0 + root * (length * target)
        eta = (xi - frame.xi0) / root
        step = 1e-6 * (length + abs(eta))
        if not all(d > pad for d in sing.clearances([eta - step, eta,
                                                     eta + step])):
            continue
        v, u = value(xi), unit_value(eta)
        slope = (unit_value(eta + step) - unit_value(eta - step)) / (2 * step)
        bound = EPS * (PHASE_EPS * abs(slope) * (length + abs(eta))
                       + VALUE_EPS * (abs(u) + size))
        readings.append((xi, abs(v - u) / bound))
    return readings


#: (family, c1, sigma, case): FORMS at their classified case, then each
#: family's degenerate c1 built as the general Weierstrass form, whose pole
#: radius on the aperiodic side (a double root, no period) must scale with
#: the form as well
ROWS = [(*form, None) for form in FORMS] + [
    (fam, f * -1.5, f * s, CaseLabel.GeneralWeierstrass)
    for fam, f in ((TZ, 1.0), (DB, -1.0), (TDB, -1.0), (DBM, 1.0))
    for s in (1.0, -1.0)]


@pytest.mark.parametrize("mag", MAGNITUDES)
@pytest.mark.parametrize("family, c1, sigma, case", ROWS,
                         ids=[f"{f.value}-{c1:.6g}-{s:+}"
                              + (f"-{case.name}" if case else "")
                              for f, c1, s, case in ROWS])
def test_form_at_lambda_gamma_is_the_sigma_form_at_eta(family, c1, sigma,
                                                       case, mag):
    for frame in _frames(sigma * mag):
        for branch in (1, -1):
            readings = scale_readings(family, c1, frame, branch, case=case)
            assert len(readings) >= 2, (frame, branch)
            for xi, reading in readings:
                assert reading <= 1.0, (frame, branch, xi, reading)


#: (family, c1, lambda gamma) refused while each form carried lambda gamma
#: through its own constants: a rate kappa that overflowed or underflowed
#: although kappa_1 / sqrt(|lambda gamma|) is finite, r^3 or the scale of
#: the Weierstrass invariants below the normal floats, and invariants past
#: the float range at small |lambda gamma|
FORMER_REFUSALS = [
    (LV, -1e300, 1e-150), (LV, -3e4, 3e-308), (LV, 1e300, 1e-150),
    (SH, 1e15, 1e-300), (SH, -0.5, 1e-308), (SG, 1e300, 1e-300),
    (LV, 1.0, 1.7e308), (LV, -1.0, -1.7e308), (SH, 0.5, 1.7e308),
    (SG, 3.0, 1.7e308),
    (TZ, 0.0, 1e200), (TZ, 1.0, -3.6e102), (DB, 0.0, -1e300),
    (TDB, 0.5, 1e300), (DBM, -2.0, -1e250), (TZ, 0.0, 1e55), (TZ, 1.0, 1e55),
    (TZ, 0.0, 1e100), (TZ, 1.0, -1e100), (DBM, -0.5, 1e55),
] + [(fam, c1, lg) for fam in (TZ, DB, TDB, DBM)
     for c1 in (1e40, 1e-320, -1.5, 0.0) for lg in (1e-200, -1e-250)]


@pytest.mark.parametrize("family, c1, lg", FORMER_REFUSALS,
                         ids=[f"{f.value}-{c1:g}-{lg:g}"
                              for f, c1, lg in FORMER_REFUSALS])
def test_formerly_refused_input_is_the_sigma_form_at_eta(family, c1, lg):
    # at |c1| = 1e40 or 1e300 the form varies on a length far below 1:
    # 1/kappa_1, or a period over pi, of the sigma form
    params = construct(family, c1, FrameParams.from_lambda_gamma(
        math.copysign(1.0, lg))).params
    length = min(1.0, params["period"] / math.pi if "period" in params
                 else 1.0 / params.get("kappa", 1.0))
    for frame in _frames(lg, length):
        for branch in (1, -1):
            readings = scale_readings(family, c1, frame, branch, length)
            assert len(readings) >= 2, (frame, branch)
            for xi, reading in readings:
                assert reading <= 1.0, (frame, branch, xi, reading)
