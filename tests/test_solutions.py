import json
import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from expwave.errors import (
    CaseMismatchError,
    DomainError,
    PoleProximityError,
    SignDomainError,
    UnsupportedFamilyError,
)
from expwave.reduction import (
    C1_LEMNISCATIC,
    CaseLabel,
    FamilyLabel,
    FrameParams,
    classify_case,
    family_params,
    first_integral,
)
from expwave.solutions import (
    construct,
    from_descriptor,
    implicit_relation,
)
from expwave.specfun import WeierstrassInvariants, weierstrass_p

FR1 = FrameParams.from_lambda_gamma(1.0)
FRN = FrameParams.from_lambda_gamma(-1.0)
XS = [-7.3, -2.0, -0.4, 0.3, 1.1, 2.6, 6.9]


def psi_quadrature(frame, q, p1, p2):
    """Independent oracle: the xi elapsed from psi = p1 to p2 on one
    monotone stretch, int dpsi / sqrt((2/(lambda gamma)) G_psi(psi)), by
    tanh-sinh quadrature at 30 digits (G_psi itself in floats)."""
    with mp.workdps(30):
        return float(mp.quad(
            lambda p: 1 / mp.sqrt(2 * frame.r * q.g_psi(p)), [p1, p2]))


# -- Liouville ---------------------------------------------------------------

def test_liouville_soliton_profile():
    sol = construct(FamilyLabel.Liouville, 1.0, FR1)
    assert sol.case is CaseLabel.LiouvilleSoliton
    # peak value is -c1 at xi0, exponential decay in the tails
    assert sol.evaluate_h(0.0) == pytest.approx(-1.0, abs=1e-15)
    assert abs(sol.evaluate_h(25.0)) < 1e-14
    assert sol.singularities.kind == "none"
    # psi is unavailable where h <= 0
    assert math.isnan(sol.evaluate_psi(0.0))
    sol2 = construct(FamilyLabel.Liouville, -1.0, FRN)  # positive pulse
    assert sol2.evaluate_h(0.0) == pytest.approx(1.0)
    assert sol2.evaluate_psi(0.3) == math.log(sol2.evaluate_h(0.3))


def test_liouville_periodic_profile():
    sol = construct(FamilyLabel.Liouville, -1.0, FR1)
    assert sol.case is CaseLabel.LiouvillePeriodic
    kappa = math.sqrt(0.5)
    for x in XS:
        ref = 1.0 / math.cos(kappa * x) ** 2
        assert sol.evaluate_h(x) == pytest.approx(ref, rel=1e-14)
    # pole lattice at the cosine zeros
    period = math.pi / kappa
    assert sol.singularities.period == pytest.approx(period)
    assert sol.singularities.distance(math.pi / (2.0 * kappa)) < 1e-12


def test_liouville_rational_value():
    # 2 sigma / (s (xi - xi0))^2 with s = 1/sqrt(0.5) rounded: within 2 ulp
    sol = construct(FamilyLabel.Liouville, 0.0,
                    FrameParams.from_lambda_gamma(0.5))
    assert sol.evaluate_h(1.0) == pytest.approx(1.0, rel=4.5e-16, abs=0.0)
    assert sol.evaluate_h(2.0) == pytest.approx(0.25, rel=4.5e-16, abs=0.0)
    with pytest.raises(DomainError):
        sol.evaluate_h(0.0)
    assert sol.singularities.kind == "isolated"


# -- base cubic family -------------------------------------------------------

def test_dark_soliton_profile():
    sol = construct(FamilyLabel.Tzitzeica, -1.5, FR1)
    assert sol.case is CaseLabel.Degenerate1a
    assert sol.evaluate_h(0.0) == pytest.approx(-0.5, abs=1e-15)
    # unit background at infinity, minimum at the center
    assert sol.evaluate_h(30.0) == pytest.approx(1.0, abs=1e-12)
    assert sol.evaluate_h(-30.0) == pytest.approx(1.0, abs=1e-12)
    assert min(sol.evaluate_h(x) for x in XS) >= -0.5
    kappa = 0.5 * math.sqrt(3.0)
    for x in XS:
        ref = 1.0 - 1.5 / math.cosh(kappa * x) ** 2
        assert sol.evaluate_h(x) == pytest.approx(ref, rel=1e-15)


def test_singular_companions():
    sol = construct(FamilyLabel.Tzitzeica, -1.5, FR1, branch=-1)
    kappa = 0.5 * math.sqrt(3.0)
    for x in (0.3, 1.2, 4.0):
        ref = 1.0 + 1.5 / math.sinh(kappa * x) ** 2
        assert sol.evaluate_h(x) == pytest.approx(ref, rel=1e-15)
    assert sol.singularities.kind == "isolated"
    sol = construct(FamilyLabel.Tzitzeica, -1.5, FRN, branch=-1)
    for x in (0.4, 1.0):
        ref = 1.0 - 1.5 / math.sin(kappa * x) ** 2
        assert sol.evaluate_h(x) == pytest.approx(ref, rel=1e-14)
    assert sol.singularities.distance(0.0) == 0.0


def test_periodic_degenerate_profiles():
    sol = construct(FamilyLabel.Tzitzeica, -1.5, FRN)
    assert sol.case is CaseLabel.Degenerate1b
    kappa = 0.5 * math.sqrt(3.0)
    assert sol.evaluate_h(0.0) == pytest.approx(-0.5, abs=1e-15)
    for x in (0.4, 1.1):
        ref = 1.0 - 1.5 / math.cos(kappa * x) ** 2
        assert sol.evaluate_h(x) == pytest.approx(ref, rel=1e-14)


def test_equianharmonic_laurent():
    sol = construct(FamilyLabel.Tzitzeica, 0.0, FR1)
    assert sol.case is CaseLabel.Equianharmonic
    # leading double-pole behaviour h ~ 2 lg / (xi - xi0)^2, with the next
    # Laurent correction g3 z^4/28 entering through 2 p
    for z in (0.05, 0.1):
        lead = 2.0 / (z * z)
        corr = 2.0 * (-0.25) * z ** 4 / 28.0
        assert sol.evaluate_h(z) == pytest.approx(lead + corr, rel=1e-8)
    assert sol.evaluate_h(0.1) == pytest.approx(200.0, rel=1e-6)


def test_lemniscatic_bounded_periodic():
    sol = construct(FamilyLabel.Tzitzeica, C1_LEMNISCATIC, FR1)
    assert sol.case is CaseLabel.Lemniscatic
    assert sol.bounded is True
    period = sol.params["period"]
    amp = 4.0 ** (-1.0 / 3.0)
    lo_expected = amp * (1.0 - math.sqrt(3.0))
    values = [sol.evaluate_h(-5.0 + 0.01 * i) for i in range(1001)]
    assert max(values) <= amp + 1e-12
    assert min(values) >= lo_expected - 1e-12
    for x in XS:
        assert sol.evaluate_h(x + period) == pytest.approx(sol.evaluate_h(x),
                                                           abs=1e-12)
    # the cnoidal form needs lambda gamma > 0; at lambda gamma < 0 the
    # same c1 builds as the general Weierstrass form
    assert construct(FamilyLabel.Tzitzeica, C1_LEMNISCATIC, FRN).case \
        is CaseLabel.GeneralWeierstrass


def test_general_weierstrass_scale_shift():
    lg = 1.0
    c1 = 1.0
    sol = construct(FamilyLabel.Tzitzeica, c1, FR1)
    inv = WeierstrassInvariants(c1 * c1 / (3.0 * lg * lg),
                                -(4.0 * c1 ** 3 + 27.0) / (108.0 * lg ** 3))
    for x in (0.6, 1.3, 2.2):
        p, _ = weierstrass_p(x, inv)
        assert sol.evaluate_h(x) == pytest.approx(
            lg * (2.0 * p - c1 / (3.0 * lg)), rel=1e-14)
    # at the degenerate constant the general form reproduces the singular
    # companion exactly (the unbounded real branch)
    via_general = construct(FamilyLabel.Tzitzeica, -1.5, FR1,
                            case=CaseLabel.GeneralWeierstrass)
    companion = construct(FamilyLabel.Tzitzeica, -1.5, FR1, branch=-1)
    for x in (0.3, 1.0, 2.5):
        assert via_general.evaluate_h(x) == pytest.approx(
            companion.evaluate_h(x), rel=1e-12)


# -- sign-mapped and reflected variants --------------------------------------

def test_db_soliton_profile():
    sol = construct(FamilyLabel.DoddBullough, 1.5, FRN)
    assert sol.case is CaseLabel.Degenerate1a
    assert sol.evaluate_h(0.0) == pytest.approx(-0.5, abs=1e-15)
    kappa = 0.5 * math.sqrt(3.0)
    for x in XS:
        ref = 1.0 - 1.5 / math.cosh(kappa * x) ** 2
        assert sol.evaluate_h(x) == pytest.approx(ref, rel=1e-15)


def test_db_companions():
    kappa = 0.5 * math.sqrt(3.0)
    sol = construct(FamilyLabel.DoddBullough, 1.5, FRN, branch=-1)
    for x in (0.4, 1.5):
        assert sol.evaluate_h(x) == pytest.approx(
            1.0 + 1.5 / math.sinh(kappa * x) ** 2, rel=1e-14)
    sol = construct(FamilyLabel.DoddBullough, 1.5, FR1)
    for x in (0.4, 1.1):
        assert sol.evaluate_h(x) == pytest.approx(
            1.0 - 1.5 / math.cos(kappa * x) ** 2, rel=1e-14)
    sol = construct(FamilyLabel.DoddBullough, 1.5, FR1, branch=-1)
    for x in (0.4, 1.1):
        assert sol.evaluate_h(x) == pytest.approx(
            1.0 - 1.5 / math.sin(kappa * x) ** 2, rel=1e-14)


def test_db_general_weierstrass():
    lg = -1.0
    c1 = 1.0
    sol = construct(FamilyLabel.DoddBullough, c1, FRN)
    inv = WeierstrassInvariants(c1 * c1 / (3.0 * lg * lg),
                                -(4.0 * c1 ** 3 - 27.0) / (108.0 * lg ** 3))
    for x in (0.6, 1.4, 2.1):
        p, _ = weierstrass_p(x, inv)
        assert sol.evaluate_h(x) == pytest.approx(
            -lg * (2.0 * p - c1 / (3.0 * lg)), rel=1e-13)


def test_db_equianharmonic_form():
    lg = -1.0
    sol = construct(FamilyLabel.DoddBullough, 0.0, FRN)
    inv = WeierstrassInvariants(0.0, 1.0 / (4.0 * lg ** 3))
    for x in (0.5, 1.2, 2.0):
        p, _ = weierstrass_p(x, inv)
        assert sol.evaluate_h(x) == pytest.approx(-2.0 * lg * p, rel=1e-13)


def test_db_lemniscatic():
    lg = -1.0
    sol = construct(FamilyLabel.DoddBullough, -C1_LEMNISCATIC, FRN)
    assert sol.case is CaseLabel.Lemniscatic
    scale = 3.0 ** 0.25 / (2.0 ** (1.0 / 3.0) * math.sqrt(-lg))
    amp = 4.0 ** (-1.0 / 3.0)
    from expwave.specfun import jacobi_sn_cn_dn
    for x in (0.0, 0.7, 1.9):
        _, cn, _ = jacobi_sn_cn_dn(scale * x, 0.5)
        assert sol.evaluate_h(x) == pytest.approx(
            amp * (1.0 - math.sqrt(3.0) * cn * cn), rel=1e-13)


@given(st.floats(min_value=-8.0, max_value=8.0),
       st.sampled_from([(1.5, -1.0), (1.0, -2.0), (0.0, -1.0), (-0.7, 0.5)]))
@settings(max_examples=120)
def test_sign_map_duality(x, pair):
    c1, lg = pair
    db = construct(FamilyLabel.DoddBullough, c1,
                   FrameParams.from_lambda_gamma(lg))
    tz = construct(FamilyLabel.Tzitzeica, -c1,
                   FrameParams.from_lambda_gamma(-lg))
    if db.singularities.distance(x) < max(0.02, db.singularities.default_pad()):
        return
    assert db.evaluate_h(x) == tz.evaluate_h(x)


#: (reflection, parent, c1, lambda gamma) of each form that is even in xi -
#: xi0: the four degenerate cells (Degenerate1a, then 1b) and the
#: lemniscatic wave; the reflection is a sign on its constants
EVEN_REFLECTIONS = [
    (FamilyLabel.TzitzeicaDoddBullough, FamilyLabel.DoddBullough, 1.5, -0.37),
    (FamilyLabel.TzitzeicaDoddBullough, FamilyLabel.DoddBullough, 1.5, 2.9),
    (FamilyLabel.TzitzeicaDoddBullough, FamilyLabel.DoddBullough,
     -C1_LEMNISCATIC, -2.9),
    (FamilyLabel.DoddBulloughMikhailov, FamilyLabel.Tzitzeica, -1.5, 2.9),
    (FamilyLabel.DoddBulloughMikhailov, FamilyLabel.Tzitzeica, -1.5, -0.37),
    (FamilyLabel.DoddBulloughMikhailov, FamilyLabel.Tzitzeica,
     C1_LEMNISCATIC, 0.37),
]


def _mirrored(sing) -> dict:
    # the singular set's JSON under xi -> -xi
    d = sing.to_json()
    if "points" in d:
        d["points"] = [-p for p in d["points"]]
    if "offset" in d:
        d["offset"] = -d["offset"]
    return d


def test_reflection_dualities():
    # h(xi) = -h_parent(-xi) with the parent at -xi0, bit for bit, and the
    # singular set the parent's mirror image, lattice offsets included
    cases = set()
    for family, parent, c1, lg in EVEN_REFLECTIONS:
        for xi0 in (0.0, 0.6, -1.3):
            for branch in (1, -1):
                sol = construct(family, c1, FrameParams.from_lambda_gamma(
                    lg, xi0=xi0), branch=branch)
                par = construct(parent, c1, FrameParams.from_lambda_gamma(
                    lg, xi0=-xi0), branch=branch)
                cases.add((family, sol.case, branch))
                assert sol.singularities.to_json() == _mirrored(
                    par.singularities), (family, c1, lg, xi0, branch)
                for i in range(100):
                    x = -5.0 + 0.1 * i + 0.013
                    if par.singularities.distance(-x) < 1e-3:
                        continue
                    assert sol.evaluate_h(x) == -par.evaluate_h(-x), (
                        family, c1, lg, xi0, branch, x)
    assert len(cases) == 12
    # the Weierstrass forms solve their own cubics
    for family, parent, c1, lg in [
            (FamilyLabel.TzitzeicaDoddBullough, FamilyLabel.DoddBullough,
             1.0, -2.0),
            (FamilyLabel.DoddBulloughMikhailov, FamilyLabel.Tzitzeica,
             1.0, 1.0)]:
        frame = FrameParams.from_lambda_gamma(lg)
        sol = construct(family, c1, frame)
        par = construct(parent, c1, frame)
        for i in range(100):
            x = -5.0 + 0.1 * i + 0.013
            if par.singularities.distance(-x) < 1e-3:
                continue
            assert sol.evaluate_h(x) == pytest.approx(-par.evaluate_h(-x),
                                                      abs=1e-12)


#: (family, c1, lambda gamma, branch, xi0, case, float.hex of h at XS,
#: params as float.hex, singular-set JSON) of every degenerate and
#: lemniscatic form of the four cubic families, as the hand-written
#: constants built them before the forms read their family's own cubic
DOUBLE_ROOT_PINS = [
    ('Tzitzeica', -1.5, 1.0, 1, 0.0, 'Degenerate1a',
     ['0x1.fffd7654f6ad0p-1', '0x1.a5976232e90fcp-1', '-0x1.557b68a53b068p-2',
      '-0x1.9cd02ec4324f8p-2', '0x1.4b52394d07538p-2', '0x1.deba40fc8b09cp-1',
      '0x1.fffaed18c6d45p-1'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "none"}'),
    ('Tzitzeica', -1.5, 1.0, 1, 0.6, 'Degenerate1a',
     ['0x1.ffff1a31ac4e8p-1', '0x1.deba40fc8b09cp-1', '0x1.de7b603f03204p-3',
      '-0x1.9cd02ec4324f8p-2', '-0x1.00844e6b49f50p-2', '0x1.a5976232e90fcp-1',
      '0x1.fff1a808c66a7p-1'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "none"}'),
    ('Tzitzeica', -1.5, 1.0, -1, 0.0, 'Degenerate1a',
     ['0x1.000144d697733p+0', '0x1.333c5c6f1a7d9p+0', '0x1.a060766784cb8p+3',
      '0x1.6ba993a71ca1ap+4', '0x1.1db3fbc568554p+1', '0x1.1163bce8ecf11p+0',
      '0x1.00028977e704bp+0'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "isolated", "points": [0.0]}'),
    ('Tzitzeica', -1.5, 1.0, -1, 0.6, 'Degenerate1a',
     ['0x1.000072e74c3a9p+0', '0x1.1163bce8ecf11p+0', '0x1.489102da44c93p+1',
      '0x1.6ba993a71ca1ap+4', '0x1.1095254d9f18cp+3', '0x1.333c5c6f1a7d9p+0',
      '0x1.00072c1de7a4dp+0'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "isolated", "points": [0.6]}'),
    ('Tzitzeica', -1.5, -1.0, 1, 0.0, 'Degenerate1b',
     ['-0x1.012847efd3150p-1', '-0x1.c9818715c1ddcp+5', '-0x1.641145d77defcp-1',
      '-0x1.3643e921b4c12p-1', '-0x1.bba60ead64b08p+1', '-0x1.6490c1ede1906p+1',
      '-0x1.4d839499692eap-1'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 1.8137993642342178, "period": 3.6275987284684357}'),
    ('Tzitzeica', -1.5, -1.0, 1, 0.6, 'Degenerate1b',
     ['-0x1.15e09462f96e8p+0', '-0x1.6490c1ede1906p+1', '-0x1.497228ddfa443p+1',
      '-0x1.3643e921b4c12p-1', '-0x1.a41e4ed3feb5cp-1', '-0x1.c9818715c1ddcp+5',
      '-0x1.2302dc76865adp+1'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 2.413799364234218, "period": 3.6275987284684357}'),
    ('Tzitzeica', -1.5, -1.0, -1, 0.0, 'Degenerate1b',
     ['-0x1.f1f08f629f8dbp+9', '-0x1.1452592a562eap-1', '-0x1.8064355a7e03ap+3',
      '-0x1.5baa2b5599902p+4', '-0x1.42335ae4ca5bcp+0', '-0x1.7c0150f85dcc0p+0',
      '-0x1.eb942504b45f4p+3'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 0.0, "period": 3.6275987284684357}'),
    ('Tzitzeica', -1.5, -1.0, -1, 0.6, 'Degenerate1b',
     ['-0x1.15f614ceeb7d6p+2', '-0x1.7c0150f85dcc0p+0', '-0x1.95c06098b7d48p+0',
      '-0x1.5baa2b5599902p+4', '-0x1.e13c96be37fdap+2', '-0x1.1452592a562eap-1',
      '-0x1.c4c6e6e954230p+0'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 0.6, "period": 3.6275987284684357}'),
    ('Tzitzeica', -1.88988157484231, 1.0, 1, 0.0, 'Lemniscatic',
     ['-0x1.a87332178cc42p-2', '0x1.331ba99266661p-1', '-0x1.25150baef9b09p-2',
      '-0x1.6fb172180112ep-2', '0x1.72c73854a74efp-2', '0x1.e2cc985276d34p-3',
      '-0x1.a892eadfb2b54p-2'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('Tzitzeica', -1.88988157484231, 1.0, 1, 0.6, 'Lemniscatic',
     ['0x1.7f7a73086d0c5p-4', '0x1.e2cc985276d34p-3', '0x1.1ebde83b16357p-2',
      '-0x1.6fb172180112ep-2', '-0x1.99d00ee731bd1p-3', '0x1.331ba99266661p-1',
      '0x1.7e6892acff6b2p-4'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('Tzitzeica', -1.88988157484231, 1.0, -1, 0.0, 'Lemniscatic',
     ['-0x1.a87332178cc42p-2', '0x1.331ba99266661p-1', '-0x1.25150baef9b09p-2',
      '-0x1.6fb172180112ep-2', '0x1.72c73854a74efp-2', '0x1.e2cc985276d34p-3',
      '-0x1.a892eadfb2b54p-2'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('Tzitzeica', -1.88988157484231, 1.0, -1, 0.6, 'Lemniscatic',
     ['0x1.7f7a73086d0c5p-4', '0x1.e2cc985276d34p-3', '0x1.1ebde83b16357p-2',
      '-0x1.6fb172180112ep-2', '-0x1.99d00ee731bd1p-3', '0x1.331ba99266661p-1',
      '0x1.7e6892acff6b2p-4'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('DoddBullough', 1.5, 1.0, 1, 0.0, 'Degenerate1b',
     ['-0x1.012847efd3150p-1', '-0x1.c9818715c1ddcp+5', '-0x1.641145d77defcp-1',
      '-0x1.3643e921b4c12p-1', '-0x1.bba60ead64b08p+1', '-0x1.6490c1ede1906p+1',
      '-0x1.4d839499692eap-1'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 1.8137993642342178, "period": 3.6275987284684357}'),
    ('DoddBullough', 1.5, 1.0, 1, 0.6, 'Degenerate1b',
     ['-0x1.15e09462f96e8p+0', '-0x1.6490c1ede1906p+1', '-0x1.497228ddfa443p+1',
      '-0x1.3643e921b4c12p-1', '-0x1.a41e4ed3feb5cp-1', '-0x1.c9818715c1ddcp+5',
      '-0x1.2302dc76865adp+1'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 2.413799364234218, "period": 3.6275987284684357}'),
    ('DoddBullough', 1.5, 1.0, -1, 0.0, 'Degenerate1b',
     ['-0x1.f1f08f629f8dbp+9', '-0x1.1452592a562eap-1', '-0x1.8064355a7e03ap+3',
      '-0x1.5baa2b5599902p+4', '-0x1.42335ae4ca5bcp+0', '-0x1.7c0150f85dcc0p+0',
      '-0x1.eb942504b45f4p+3'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 0.0, "period": 3.6275987284684357}'),
    ('DoddBullough', 1.5, 1.0, -1, 0.6, 'Degenerate1b',
     ['-0x1.15f614ceeb7d6p+2', '-0x1.7c0150f85dcc0p+0', '-0x1.95c06098b7d48p+0',
      '-0x1.5baa2b5599902p+4', '-0x1.e13c96be37fdap+2', '-0x1.1452592a562eap-1',
      '-0x1.c4c6e6e954230p+0'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 0.6, "period": 3.6275987284684357}'),
    ('DoddBullough', 1.5, -1.0, 1, 0.0, 'Degenerate1a',
     ['0x1.fffd7654f6ad0p-1', '0x1.a5976232e90fcp-1', '-0x1.557b68a53b068p-2',
      '-0x1.9cd02ec4324f8p-2', '0x1.4b52394d07538p-2', '0x1.deba40fc8b09cp-1',
      '0x1.fffaed18c6d45p-1'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "none"}'),
    ('DoddBullough', 1.5, -1.0, 1, 0.6, 'Degenerate1a',
     ['0x1.ffff1a31ac4e8p-1', '0x1.deba40fc8b09cp-1', '0x1.de7b603f03204p-3',
      '-0x1.9cd02ec4324f8p-2', '-0x1.00844e6b49f50p-2', '0x1.a5976232e90fcp-1',
      '0x1.fff1a808c66a7p-1'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "none"}'),
    ('DoddBullough', 1.5, -1.0, -1, 0.0, 'Degenerate1a',
     ['0x1.000144d697733p+0', '0x1.333c5c6f1a7d9p+0', '0x1.a060766784cb8p+3',
      '0x1.6ba993a71ca1ap+4', '0x1.1db3fbc568554p+1', '0x1.1163bce8ecf11p+0',
      '0x1.00028977e704bp+0'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "isolated", "points": [0.0]}'),
    ('DoddBullough', 1.5, -1.0, -1, 0.6, 'Degenerate1a',
     ['0x1.000072e74c3a9p+0', '0x1.1163bce8ecf11p+0', '0x1.489102da44c93p+1',
      '0x1.6ba993a71ca1ap+4', '0x1.1095254d9f18cp+3', '0x1.333c5c6f1a7d9p+0',
      '0x1.00072c1de7a4dp+0'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "isolated", "points": [0.6]}'),
    ('DoddBullough', 1.88988157484231, -1.0, 1, 0.0, 'Lemniscatic',
     ['-0x1.a87332178cc42p-2', '0x1.331ba99266661p-1', '-0x1.25150baef9b09p-2',
      '-0x1.6fb172180112ep-2', '0x1.72c73854a74efp-2', '0x1.e2cc985276d34p-3',
      '-0x1.a892eadfb2b54p-2'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('DoddBullough', 1.88988157484231, -1.0, 1, 0.6, 'Lemniscatic',
     ['0x1.7f7a73086d0c5p-4', '0x1.e2cc985276d34p-3', '0x1.1ebde83b16357p-2',
      '-0x1.6fb172180112ep-2', '-0x1.99d00ee731bd1p-3', '0x1.331ba99266661p-1',
      '0x1.7e6892acff6b2p-4'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('DoddBullough', 1.88988157484231, -1.0, -1, 0.0, 'Lemniscatic',
     ['-0x1.a87332178cc42p-2', '0x1.331ba99266661p-1', '-0x1.25150baef9b09p-2',
      '-0x1.6fb172180112ep-2', '0x1.72c73854a74efp-2', '0x1.e2cc985276d34p-3',
      '-0x1.a892eadfb2b54p-2'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('DoddBullough', 1.88988157484231, -1.0, -1, 0.6, 'Lemniscatic',
     ['0x1.7f7a73086d0c5p-4', '0x1.e2cc985276d34p-3', '0x1.1ebde83b16357p-2',
      '-0x1.6fb172180112ep-2', '-0x1.99d00ee731bd1p-3', '0x1.331ba99266661p-1',
      '0x1.7e6892acff6b2p-4'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('TzitzeicaDoddBullough', 1.5, 1.0, 1, 0.0, 'Degenerate1b',
     ['0x1.012847efd3150p-1', '0x1.c9818715c1ddcp+5', '0x1.641145d77defcp-1',
      '0x1.3643e921b4c12p-1', '0x1.bba60ead64b08p+1', '0x1.6490c1ede1906p+1',
      '0x1.4d839499692eap-1'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": -1.8137993642342178, "period": 3.6275987284684357}'),
    ('TzitzeicaDoddBullough', 1.5, 1.0, 1, 0.6, 'Degenerate1b',
     ['0x1.15e09462f96e8p+0', '0x1.6490c1ede1906p+1', '0x1.497228ddfa443p+1',
      '0x1.3643e921b4c12p-1', '0x1.a41e4ed3feb5cp-1', '0x1.c9818715c1ddcp+5',
      '0x1.2302dc76865adp+1'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": -1.2137993642342177, "period": 3.6275987284684357}'),
    ('TzitzeicaDoddBullough', 1.5, 1.0, -1, 0.0, 'Degenerate1b',
     ['0x1.f1f08f629f8dbp+9', '0x1.1452592a562eap-1', '0x1.8064355a7e03ap+3',
      '0x1.5baa2b5599902p+4', '0x1.42335ae4ca5bcp+0', '0x1.7c0150f85dcc0p+0',
      '0x1.eb942504b45f4p+3'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 0.0, "period": 3.6275987284684357}'),
    ('TzitzeicaDoddBullough', 1.5, 1.0, -1, 0.6, 'Degenerate1b',
     ['0x1.15f614ceeb7d6p+2', '0x1.7c0150f85dcc0p+0', '0x1.95c06098b7d48p+0',
      '0x1.5baa2b5599902p+4', '0x1.e13c96be37fdap+2', '0x1.1452592a562eap-1',
      '0x1.c4c6e6e954230p+0'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 0.6, "period": 3.6275987284684357}'),
    ('TzitzeicaDoddBullough', 1.5, -1.0, 1, 0.0, 'Degenerate1a',
     ['-0x1.fffd7654f6ad0p-1', '-0x1.a5976232e90fcp-1', '0x1.557b68a53b068p-2',
      '0x1.9cd02ec4324f8p-2', '-0x1.4b52394d07538p-2', '-0x1.deba40fc8b09cp-1',
      '-0x1.fffaed18c6d45p-1'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "none"}'),
    ('TzitzeicaDoddBullough', 1.5, -1.0, 1, 0.6, 'Degenerate1a',
     ['-0x1.ffff1a31ac4e8p-1', '-0x1.deba40fc8b09cp-1', '-0x1.de7b603f03204p-3',
      '0x1.9cd02ec4324f8p-2', '0x1.00844e6b49f50p-2', '-0x1.a5976232e90fcp-1',
      '-0x1.fff1a808c66a7p-1'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "none"}'),
    ('TzitzeicaDoddBullough', 1.5, -1.0, -1, 0.0, 'Degenerate1a',
     ['-0x1.000144d697733p+0', '-0x1.333c5c6f1a7d9p+0', '-0x1.a060766784cb8p+3',
      '-0x1.6ba993a71ca1ap+4', '-0x1.1db3fbc568554p+1', '-0x1.1163bce8ecf11p+0',
      '-0x1.00028977e704bp+0'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "isolated", "points": [0.0]}'),
    ('TzitzeicaDoddBullough', 1.5, -1.0, -1, 0.6, 'Degenerate1a',
     ['-0x1.000072e74c3a9p+0', '-0x1.1163bce8ecf11p+0', '-0x1.489102da44c93p+1',
      '-0x1.6ba993a71ca1ap+4', '-0x1.1095254d9f18cp+3', '-0x1.333c5c6f1a7d9p+0',
      '-0x1.00072c1de7a4dp+0'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "isolated", "points": [0.6]}'),
    ('TzitzeicaDoddBullough', 1.88988157484231, -1.0, 1, 0.0, 'Lemniscatic',
     ['0x1.a87332178cc42p-2', '-0x1.331ba99266661p-1', '0x1.25150baef9b09p-2',
      '0x1.6fb172180112ep-2', '-0x1.72c73854a74efp-2', '-0x1.e2cc985276d34p-3',
      '0x1.a892eadfb2b54p-2'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('TzitzeicaDoddBullough', 1.88988157484231, -1.0, 1, 0.6, 'Lemniscatic',
     ['-0x1.7f7a73086d0c5p-4', '-0x1.e2cc985276d34p-3', '-0x1.1ebde83b16357p-2',
      '0x1.6fb172180112ep-2', '0x1.99d00ee731bd1p-3', '-0x1.331ba99266661p-1',
      '-0x1.7e6892acff6b2p-4'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('TzitzeicaDoddBullough', 1.88988157484231, -1.0, -1, 0.0, 'Lemniscatic',
     ['0x1.a87332178cc42p-2', '-0x1.331ba99266661p-1', '0x1.25150baef9b09p-2',
      '0x1.6fb172180112ep-2', '-0x1.72c73854a74efp-2', '-0x1.e2cc985276d34p-3',
      '0x1.a892eadfb2b54p-2'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('TzitzeicaDoddBullough', 1.88988157484231, -1.0, -1, 0.6, 'Lemniscatic',
     ['-0x1.7f7a73086d0c5p-4', '-0x1.e2cc985276d34p-3', '-0x1.1ebde83b16357p-2',
      '0x1.6fb172180112ep-2', '0x1.99d00ee731bd1p-3', '-0x1.331ba99266661p-1',
      '-0x1.7e6892acff6b2p-4'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('DoddBulloughMikhailov', -1.5, 1.0, 1, 0.0, 'Degenerate1a',
     ['-0x1.fffd7654f6ad0p-1', '-0x1.a5976232e90fcp-1', '0x1.557b68a53b068p-2',
      '0x1.9cd02ec4324f8p-2', '-0x1.4b52394d07538p-2', '-0x1.deba40fc8b09cp-1',
      '-0x1.fffaed18c6d45p-1'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "none"}'),
    ('DoddBulloughMikhailov', -1.5, 1.0, 1, 0.6, 'Degenerate1a',
     ['-0x1.ffff1a31ac4e8p-1', '-0x1.deba40fc8b09cp-1', '-0x1.de7b603f03204p-3',
      '0x1.9cd02ec4324f8p-2', '0x1.00844e6b49f50p-2', '-0x1.a5976232e90fcp-1',
      '-0x1.fff1a808c66a7p-1'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "none"}'),
    ('DoddBulloughMikhailov', -1.5, 1.0, -1, 0.0, 'Degenerate1a',
     ['-0x1.000144d697733p+0', '-0x1.333c5c6f1a7d9p+0', '-0x1.a060766784cb8p+3',
      '-0x1.6ba993a71ca1ap+4', '-0x1.1db3fbc568554p+1', '-0x1.1163bce8ecf11p+0',
      '-0x1.00028977e704bp+0'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "isolated", "points": [0.0]}'),
    ('DoddBulloughMikhailov', -1.5, 1.0, -1, 0.6, 'Degenerate1a',
     ['-0x1.000072e74c3a9p+0', '-0x1.1163bce8ecf11p+0', '-0x1.489102da44c93p+1',
      '-0x1.6ba993a71ca1ap+4', '-0x1.1095254d9f18cp+3', '-0x1.333c5c6f1a7d9p+0',
      '-0x1.00072c1de7a4dp+0'],
     '{"kappa": "0x1.bb67ae8584caap-1"}',
     '{"kind": "isolated", "points": [0.6]}'),
    ('DoddBulloughMikhailov', -1.5, -1.0, 1, 0.0, 'Degenerate1b',
     ['0x1.012847efd3150p-1', '0x1.c9818715c1ddcp+5', '0x1.641145d77defcp-1',
      '0x1.3643e921b4c12p-1', '0x1.bba60ead64b08p+1', '0x1.6490c1ede1906p+1',
      '0x1.4d839499692eap-1'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": -1.8137993642342178, "period": 3.6275987284684357}'),
    ('DoddBulloughMikhailov', -1.5, -1.0, 1, 0.6, 'Degenerate1b',
     ['0x1.15e09462f96e8p+0', '0x1.6490c1ede1906p+1', '0x1.497228ddfa443p+1',
      '0x1.3643e921b4c12p-1', '0x1.a41e4ed3feb5cp-1', '0x1.c9818715c1ddcp+5',
      '0x1.2302dc76865adp+1'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": -1.2137993642342177, "period": 3.6275987284684357}'),
    ('DoddBulloughMikhailov', -1.5, -1.0, -1, 0.0, 'Degenerate1b',
     ['0x1.f1f08f629f8dbp+9', '0x1.1452592a562eap-1', '0x1.8064355a7e03ap+3',
      '0x1.5baa2b5599902p+4', '0x1.42335ae4ca5bcp+0', '0x1.7c0150f85dcc0p+0',
      '0x1.eb942504b45f4p+3'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 0.0, "period": 3.6275987284684357}'),
    ('DoddBulloughMikhailov', -1.5, -1.0, -1, 0.6, 'Degenerate1b',
     ['0x1.15f614ceeb7d6p+2', '0x1.7c0150f85dcc0p+0', '0x1.95c06098b7d48p+0',
      '0x1.5baa2b5599902p+4', '0x1.e13c96be37fdap+2', '0x1.1452592a562eap-1',
      '0x1.c4c6e6e954230p+0'],
     '{"kappa": "0x1.bb67ae8584caap-1", "period": "0x1.d05527b6e43d2p+1"}',
     '{"kind": "lattice", "offset": 0.6, "period": 3.6275987284684357}'),
    ('DoddBulloughMikhailov', -1.88988157484231, 1.0, 1, 0.0, 'Lemniscatic',
     ['0x1.a87332178cc42p-2', '-0x1.331ba99266661p-1', '0x1.25150baef9b09p-2',
      '0x1.6fb172180112ep-2', '-0x1.72c73854a74efp-2', '-0x1.e2cc985276d34p-3',
      '0x1.a892eadfb2b54p-2'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('DoddBulloughMikhailov', -1.88988157484231, 1.0, 1, 0.6, 'Lemniscatic',
     ['-0x1.7f7a73086d0c5p-4', '-0x1.e2cc985276d34p-3', '-0x1.1ebde83b16357p-2',
      '0x1.6fb172180112ep-2', '0x1.99d00ee731bd1p-3', '-0x1.331ba99266661p-1',
      '-0x1.7e6892acff6b2p-4'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('DoddBulloughMikhailov', -1.88988157484231, 1.0, -1, 0.0, 'Lemniscatic',
     ['0x1.a87332178cc42p-2', '-0x1.331ba99266661p-1', '0x1.25150baef9b09p-2',
      '0x1.6fb172180112ep-2', '-0x1.72c73854a74efp-2', '-0x1.e2cc985276d34p-3',
      '0x1.a892eadfb2b54p-2'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
    ('DoddBulloughMikhailov', -1.88988157484231, 1.0, -1, 0.6, 'Lemniscatic',
     ['-0x1.7f7a73086d0c5p-4', '-0x1.e2cc985276d34p-3', '-0x1.1ebde83b16357p-2',
      '0x1.6fb172180112ep-2', '0x1.99d00ee731bd1p-3', '-0x1.331ba99266661p-1',
      '-0x1.7e6892acff6b2p-4'],
     '{"modulus_parameter": "0x1.0000000000000p-1", "period": "0x1.c66439d6a605fp+1", "scale": "0x1.0b68d9a365ccep+0"}',
     '{"kind": "none"}'),
]


def test_double_root_and_lemniscatic_forms_match_pinned_bits():
    seen = set()
    for (family, c1, lg, branch, xi0, case, hs, params,
         singular) in DOUBLE_ROOT_PINS:
        sol = construct(FamilyLabel[family], c1,
                        FrameParams.from_lambda_gamma(lg, xi0=xi0),
                        branch=branch)
        key = (family, c1, lg, branch, xi0)
        assert sol.case.name == case, key
        assert [sol.evaluate_h(x).hex() for x in XS] == hs, key
        assert json.dumps({k: v.hex() for k, v in sorted(
            sol.params.items())}) == params, key
        assert json.dumps(sol.singularities.to_json(),
                          sort_keys=True) == singular, key
        seen.add((family, case))
    assert len(DOUBLE_ROOT_PINS) == 48 and len(seen) == 12


def test_dbm_quadrature_polynomial_map():
    # the h -> -h map sends the reflected variant's radicand onto the
    # base family's: G_dbm(h) = G_base(-h)
    q_dbm = first_integral(family_params(FamilyLabel.DoddBulloughMikhailov),
                           FR1, 0.8)
    q_tz = first_integral(family_params(FamilyLabel.Tzitzeica), FR1, 0.8)
    for h in (0.3, 1.0, 2.7, -1.4):
        assert q_dbm.g(h) == pytest.approx(q_tz.g(-h), rel=1e-14)


# -- circular (sine) family --------------------------------------------------

def test_sine_kink_profile():
    sol = construct(FamilyLabel.SineGordon, 1.0, FR1)
    assert sol.case is CaseLabel.KinkC1Plus
    assert sol.psi_native
    assert sol.evaluate_psi(0.0) == pytest.approx(math.pi, abs=1e-15)
    # strictly monotone with range (0, 2 pi)
    vals = [sol.evaluate_psi(-12.0 + 0.1 * i) for i in range(241)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[0] > 0.0 and vals[-1] < 2.0 * math.pi
    assert abs(sol.evaluate_psi(-40.0)) < 1e-15
    assert sol.evaluate_psi(40.0) == pytest.approx(2.0 * math.pi, abs=1e-12)
    # h = exp(psi) everywhere
    assert sol.evaluate_h(0.7) == pytest.approx(
        math.exp(sol.evaluate_psi(0.7)), rel=1e-15)
    with pytest.raises(SignDomainError):
        construct(FamilyLabel.SineGordon, 1.0, FRN)


def test_sine_shifted_kink_profile():
    sol = construct(FamilyLabel.SineGordon, -1.0, FRN)
    assert sol.case is CaseLabel.KinkC1Minus
    assert sol.evaluate_psi(0.0) == pytest.approx(0.0, abs=1e-15)
    assert sol.evaluate_psi(-40.0) == pytest.approx(-math.pi, abs=1e-12)
    assert sol.evaluate_psi(40.0) == pytest.approx(math.pi, abs=1e-12)
    with pytest.raises(SignDomainError):
        construct(FamilyLabel.SineGordon, -1.0, FR1)


def test_amplitude_boundedness():
    # bounded and periodic exactly in the superunitary parameter regime
    bounded = construct(FamilyLabel.SineGordon, 0.0, FRN)  # parameter 2
    assert bounded.bounded is True
    vals = [bounded.evaluate_psi(-30.0 + 0.1 * i) for i in range(601)]
    assert max(abs(v) for v in vals) <= 2.0 * math.asin(1.0 / math.sqrt(2.0)) + 1e-10
    # parameter 1/2 in (0, 1): unbounded
    sub = construct(FamilyLabel.SineGordon, -3.0, FRN)
    assert sub.bounded is False
    assert abs(sub.evaluate_psi(40.0) - sub.evaluate_psi(-40.0)) > 4.0 * math.pi
    # negative parameter: unbounded
    neg = construct(FamilyLabel.SineGordon, 3.0, FR1)
    assert neg.bounded is False
    assert abs(neg.evaluate_psi(40.0) - neg.evaluate_psi(-40.0)) > 4.0 * math.pi
    with pytest.raises(SignDomainError):
        construct(FamilyLabel.SineGordon, 3.0, FRN)  # (c1-1)/(2 lg) < 0


def test_sine_amplitude_pi_shift():
    # lambda gamma > 0, |c1| < 1: psi(xi; c1, lg) = pi + psi(xi; -c1, -lg)
    for c1, lg in [(0.5, 1.0), (0.0, 1.0), (-0.5, 0.7)]:
        frame = FrameParams.from_lambda_gamma(lg, xi0=0.3)
        sol = construct(FamilyLabel.SineGordon, c1, frame, branch=-1)
        image = construct(FamilyLabel.SineGordon, -c1,
                          frame.with_lambda_gamma(-lg), branch=-1)
        assert (sol.case, sol.bounded, sol.params) == \
            (image.case, True, image.params)
        assert (sol.c1, sol.frame) == (c1, frame)
        for x in XS:
            assert sol.evaluate_psi(x) == math.pi + image.evaluate_psi(x)
        # the unshifted image adds -0.0, which keeps its -0.0 at xi0
        assert math.copysign(1.0, image.evaluate_psi(0.3)) == -1.0
        rebuilt = from_descriptor(json.loads(json.dumps(sol.descriptor())))
        assert [rebuilt.evaluate_psi(x) for x in XS] == \
            [sol.evaluate_psi(x) for x in XS]
        # independent oracle: invert (psi')^2 = (2/lg)(c1 - cos psi)
        q = first_integral(family_params(FamilyLabel.SineGordon), frame, c1)
        x1, x2 = 0.35, 0.75
        val = psi_quadrature(frame, q, sol.evaluate_psi(x1),
                             sol.evaluate_psi(x2))
        assert abs(val) == pytest.approx(x2 - x1, abs=1e-10)


def test_amplitude_c1zero_matches_generic():
    from expwave.specfun import jacobi_am
    sol = construct(FamilyLabel.SineGordon, 0.0, FRN)
    assert sol.case is CaseLabel.AmplitudeC1Zero
    kappa = 0.5 * math.sqrt(2.0)
    for x in (-2.0, 0.4, 1.7):
        assert sol.evaluate_psi(x) == pytest.approx(
            2.0 * jacobi_am(kappa * x, 2.0), rel=1e-13, abs=1e-13)


# -- hyperbolic (sinh) family ------------------------------------------------

def test_sinh_kink_values():
    sol = construct(FamilyLabel.SinhGordon, -0.5, FR1)
    assert sol.case is CaseLabel.KinkC1Minus
    # arctanh oracle: atanh(x) = log((1+x)/(1-x))/2; at exp-argument 1/e
    x_at = -1.0 / math.sqrt(2.0)
    expected = math.log((1.0 + math.exp(-1.0)) / (1.0 - math.exp(-1.0)))
    assert sol.evaluate_psi(x_at) == pytest.approx(expected, rel=1e-14)
    assert sol.evaluate_psi(x_at) == pytest.approx(0.7719368329053048, rel=1e-13)
    # singular boundary at xi0; invalid beyond it
    assert sol.singularities.kind == "half_line"
    with pytest.raises(DomainError):
        sol.evaluate_psi(0.5)
    with pytest.raises(SignDomainError):
        construct(FamilyLabel.SinhGordon, -0.5, FRN)


def test_sinh_gudermannian_kink():
    sol = construct(FamilyLabel.SinhGordon, 0.5, FR1)
    assert sol.case is CaseLabel.KinkC1Plus
    assert sol.evaluate_psi(0.0) == 0.0
    kappa = 1.0 / math.sqrt(2.0)
    for x in (0.3, -0.6):
        assert sol.evaluate_psi(x) == pytest.approx(
            2.0 * math.atanh(math.tan(kappa * x)), rel=1e-14)
    # windows of validity with singular edges
    assert sol.singularities.kind == "lattice_windows"
    edge = math.pi / (4.0 * kappa)
    with pytest.raises(DomainError):
        sol.evaluate_psi(edge * 1.5)  # between windows
    assert sol.singularities.distance(edge) < 1e-12


def test_sinh_amplitude_quadrature_inversion():
    # independent oracle: invert the psi-quadrature numerically and compare
    # against the closed form, for the blow-up and the bounded regime
    for c1, lg in [(0.0, 1.0), (1.0, 2.0), (-1.0, -1.0), (-2.5, -0.7)]:
        frame = FrameParams.from_lambda_gamma(lg)
        sol = construct(FamilyLabel.SinhGordon, c1, frame)
        q = first_integral(family_params(FamilyLabel.SinhGordon), frame, c1)
        x1, x2 = 0.15, 0.55
        p1, p2 = sol.evaluate_psi(x1), sol.evaluate_psi(x2)
        val = psi_quadrature(frame, q, p1, p2)
        assert abs(val) == pytest.approx(x2 - x1, abs=1e-10)
    with pytest.raises(SignDomainError):
        construct(FamilyLabel.SinhGordon, 1.0, FRN)  # (2 c1 + 1)/lg < 0
    bounded = construct(FamilyLabel.SinhGordon, -1.0, FRN)
    assert bounded.bounded is True and bounded.singularities.kind == "none"
    blow = construct(FamilyLabel.SinhGordon, 0.0, FR1)
    assert blow.bounded is False and blow.singularities.kind == "lattice"


# -- implicit relations, descriptors, misc -----------------------------------

def test_implicit_relation_slopes_and_domain():
    rel = implicit_relation(FamilyLabel.Tzitzeica, FrameParams.from_lambda_gamma(4.0))
    assert rel.slope_denom == pytest.approx(2.0)
    assert rel.rhs(2.0) == pytest.approx(1.0)
    rel = implicit_relation(FamilyLabel.SinhGordon, FrameParams.from_lambda_gamma(2.0))
    assert rel.slope_denom == pytest.approx(2.0)
    rel = implicit_relation(FamilyLabel.DoddBullough, FRN)
    assert rel.slope_denom == pytest.approx(1.0)
    # tiny h: the hypergeometric factor tends to 1
    assert rel.lhs(1e-8) / 1e-8 == pytest.approx(1.0, abs=1e-12)
    for fam in (FamilyLabel.SineGordon, FamilyLabel.Liouville):
        with pytest.raises(UnsupportedFamilyError):
            implicit_relation(fam, FR1)
    with pytest.raises(SignDomainError):
        implicit_relation(FamilyLabel.Tzitzeica, FRN)


def test_solution_descriptor_roundtrip():
    for sol in (construct(FamilyLabel.Tzitzeica, 1.0,
                          FrameParams.from_lambda_gamma(1.0, xi0=0.7)),
                construct(FamilyLabel.SineGordon, 3.0, FR1, branch=-1),
                construct(FamilyLabel.SinhGordon, -0.5, FR1),
                construct(FamilyLabel.Liouville, -1.0, FR1)):
        blob = json.dumps(sol.descriptor(), sort_keys=True)
        rebuilt = from_descriptor(json.loads(blob))
        for i in range(40):
            x = -4.0 + 0.2 * i + 0.05
            try:
                a = sol.evaluate_h(x)
            except DomainError:
                with pytest.raises(DomainError):
                    rebuilt.evaluate_h(x)
                continue
            assert rebuilt.evaluate_h(x) == a  # exact


def test_psi_log_consistency():
    # h > 1 everywhere
    sol = construct(FamilyLabel.Tzitzeica, -1.5, FR1, branch=-1)
    for x in (0.4, 1.3, 3.3):
        assert sol.evaluate_psi(x) == math.log(sol.evaluate_h(x))
    dark = construct(FamilyLabel.Tzitzeica, -1.5, FR1)  # h < 0 near the center
    assert math.isnan(dark.evaluate_psi(0.0))


def test_case_mismatch_errors():
    with pytest.raises(CaseMismatchError):
        construct(FamilyLabel.Tzitzeica, 0.5, FR1, case=CaseLabel.Degenerate1a)
    with pytest.raises(CaseMismatchError):
        construct(FamilyLabel.SineGordon, 0.5, FR1, case=CaseLabel.KinkC1Plus)
    with pytest.raises(DomainError):
        construct(FamilyLabel.Tzitzeica, -1.5, FR1, branch=0)
    with pytest.raises(UnsupportedFamilyError):
        construct(FamilyLabel.GenericTwoExponential, 1.0, FR1)


@pytest.mark.parametrize("family, c1, lg", [
    # kappa_1 = sqrt(2 c1 + 1) is inf: kappa_1 / sqrt(|lambda gamma|) is
    # inf at any lambda gamma; finite kappa_1 times the scale stays finite
    # (test_scale.py::FORMER_REFUSALS holds the inputs that no longer read
    # so)
    (FamilyLabel.SinhGordon, 1e308, 1.0),  # sc blow-up lattice, period 0
    (FamilyLabel.SinhGordon, -1e308, -1e-300),  # bounded sc form
])
def test_overflowing_rate_is_refused(family, c1, lg):
    # an infinite kappa would give a lattice of period 0, which
    # Singularities.distance divides by, or NaN at xi0; a zero one a
    # division by zero or a constant
    message = (f"c1={c1} and lambda gamma={lg} put the rate kappa past the "
               "float range")
    with pytest.raises(DomainError) as err:
        construct(family, c1, FrameParams.from_lambda_gamma(lg))
    assert str(err.value) == message


@pytest.mark.parametrize("family, c1, frame, branch, beyond, limit", [
    # sech^2: cosh(x)^2 overflows past |x| ~ 355, cosh itself past ~ 710
    (FamilyLabel.Liouville, 1.0, FR1, 1, (-1e4, -600.0, 600.0, 1100.0), -0.0),
    (FamilyLabel.Tzitzeica, -1.5, FR1, 1, (-1e4, -420.0, 420.0, 1e300), 1.0),
    # csch^2: sinh overflows past |x| ~ 710
    (FamilyLabel.Tzitzeica, -1.5, FR1, -1, (-1e4, -900.0, 900.0, 1e300), 1.0),
    # kinks: exp overflows past 709.78
    (FamilyLabel.SineGordon, 1.0, FR1, 1, (720.0, 1e4, 1e300), 2.0 * math.pi),
    (FamilyLabel.SineGordon, -1.0, FRN, 1, (720.0, 1e4, 1e300), math.pi),
], ids=["liouville-sech2", "tzitzeica-dark-sech2", "tzitzeica-csch2",
        "sine-kink-plus", "sine-kink-minus"])
def test_tails_take_their_limit(family, c1, frame, branch, beyond, limit):
    # a closed form with a finite limit returns it, signed zero included,
    # where an intermediate overflows
    sol = construct(family, c1, frame, branch=branch)
    value = sol.evaluate_psi if sol.psi_native else sol.evaluate_h
    for xi in beyond:
        v = value(xi)
        assert v == limit and math.copysign(1.0, v) == math.copysign(1.0, limit)


@pytest.mark.parametrize("family, c1, frame, branch, message", [
    (FamilyLabel.Liouville, 0.0, FR1, 1, "rational solution pole at xi0"),
    (FamilyLabel.Tzitzeica, -1.5, FR1, -1, "csch^2 pole at xi0"),
    (FamilyLabel.Tzitzeica, -1.5, FRN, -1, "csc^2 pole"),
])
def test_poles_where_the_square_underflows(family, c1, frame, branch,
                                           message):
    # f(kappa (xi - xi0))^2 underflows to 0 a hair off the pole: the pole's
    # DomainError, not a ZeroDivisionError
    sol = construct(family, c1, frame, branch=branch)
    for xi in (0.0, 1e-170, -1e-200):
        with pytest.raises(DomainError) as err:
            sol.evaluate_h(xi)
        assert str(err.value) == message


@pytest.mark.parametrize("family, c1, lg", [
    # periodic: one real root at either sign of a3, and three real roots
    # (the degenerate c1 at Degenerate1b, m = 0)
    (FamilyLabel.Tzitzeica, 1.0, 0.37),
    (FamilyLabel.Tzitzeica, 1.0, -2.5),
    (FamilyLabel.Tzitzeica, -1.5, -2.5),
    # aperiodic: each family's Degenerate1a c1, a double root and one pole
    (FamilyLabel.Tzitzeica, -1.5, 0.37),
    (FamilyLabel.DoddBullough, 1.5, -2.5),
    (FamilyLabel.TzitzeicaDoddBullough, 1.5, -2.5),
    (FamilyLabel.DoddBulloughMikhailov, -1.5, 0.37),
])
def test_weierstrass_forms_refuse_points_near_a_pole(family, c1, lg):
    # the exclusion radius is 1e-3 of the period, or 1e-3 sqrt(|lambda
    # gamma|) where a double root leaves one pole; inside it evaluate_h
    # raises PoleProximityError with the distance and that radius, and
    # twice the radius out it returns a finite value
    xi0 = 0.6
    sol = construct(family, c1, FrameParams.from_lambda_gamma(lg, xi0),
                    case=CaseLabel.GeneralWeierstrass)
    period = sol.params.get("period")
    if period is None:
        assert sol.singularities.kind == "isolated"
        radius, poles = 1e-3 * math.sqrt(abs(lg)), [xi0]
    else:
        assert sol.singularities.kind == "lattice"
        radius, poles = 1e-3 * period, [xi0 + n * period for n in (-2, 0, 3)]
    for pole in poles:
        for side in (-1.0, 1.0):
            with pytest.raises(PoleProximityError) as err:
                sol.evaluate_h(pole + side * 0.5 * radius)
            assert err.value.limit == pytest.approx(radius, rel=1e-15)
            assert err.value.distance == pytest.approx(0.5 * radius, rel=1e-9)
            assert str(err.value) == (
                f"z within {err.value.limit:.3e} of a Weierstrass pole "
                f"(distance {err.value.distance:.3e})")
            assert math.isfinite(sol.evaluate_h(pole + side * 2.0 * radius))


def test_construct_classifies_once(monkeypatch):
    # the delegating builders (Dodd-Bullough through Tzitzeica, the two
    # reflections through their parents, the sine-Gordon pi shift through
    # its image) take the resolved case instead of classifying again
    import expwave.solutions as solutions

    calls = []
    classify = solutions.classify_case

    def counting(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(solutions, "classify_case", counting)
    c1s = (0.0, 0.3, -0.3, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 3.0, -3.0,
           C1_LEMNISCATIC, -C1_LEMNISCATIC)
    built = set()
    for family in (FamilyLabel.Liouville, FamilyLabel.Tzitzeica,
                   FamilyLabel.DoddBullough, FamilyLabel.TzitzeicaDoddBullough,
                   FamilyLabel.DoddBulloughMikhailov, FamilyLabel.SineGordon,
                   FamilyLabel.SinhGordon):
        for frame in (FR1, FRN):
            for c1 in c1s:
                for case in (None, CaseLabel.GeneralWeierstrass):
                    calls.clear()
                    try:
                        sol = construct(family, c1, frame, case=case)
                    except (CaseMismatchError, DomainError):
                        assert len(calls) == 1
                        continue
                    assert len(calls) == 1, (family, c1, frame, case)
                    built.add((family, sol.case))
                    if (family is FamilyLabel.SineGordon and frame is FR1
                            and abs(c1) < 1.0):
                        built.add((family, "pi shift"))
    cubic = {CaseLabel.Degenerate1a, CaseLabel.Degenerate1b,
             CaseLabel.Equianharmonic, CaseLabel.Lemniscatic,
             CaseLabel.GeneralWeierstrass}
    gordon = {CaseLabel.KinkC1Plus, CaseLabel.KinkC1Minus,
              CaseLabel.AmplitudeC1Zero, CaseLabel.AmplitudeGeneric}
    expected = {(FamilyLabel.Liouville, case) for case in (
        CaseLabel.LiouvilleRational, CaseLabel.LiouvilleSoliton,
        CaseLabel.LiouvillePeriodic)}
    expected |= {(family, case) for case in cubic for family in (
        FamilyLabel.Tzitzeica, FamilyLabel.DoddBullough,
        FamilyLabel.TzitzeicaDoddBullough, FamilyLabel.DoddBulloughMikhailov)}
    expected |= {(family, case) for case in gordon for family in (
        FamilyLabel.SineGordon, FamilyLabel.SinhGordon)}
    expected.add((FamilyLabel.SineGordon, "pi shift"))
    assert built == expected


def test_construct_builds_one_solution(monkeypatch):
    # the sign map, the reflections and the sine-Gordon pi shift read the
    # base forms at their image constants: over the classify-once sweep,
    # every construct makes one Solution and no FrameParams
    import expwave.reduction as reduction
    import expwave.solutions as solutions

    made = []
    for cls in (solutions.Solution, reduction.FrameParams):
        def counting(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            made.append(_cls)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    c1s = (0.0, 0.3, -0.3, 0.5, -0.5, 1.0, -1.0, 1.5, -1.5, 3.0, -3.0,
           C1_LEMNISCATIC, -C1_LEMNISCATIC)
    built = set()
    for family in (FamilyLabel.Liouville, FamilyLabel.Tzitzeica,
                   FamilyLabel.DoddBullough, FamilyLabel.TzitzeicaDoddBullough,
                   FamilyLabel.DoddBulloughMikhailov, FamilyLabel.SineGordon,
                   FamilyLabel.SinhGordon):
        for frame in (FR1, FRN):
            for c1 in c1s:
                for case in (None, CaseLabel.GeneralWeierstrass):
                    made.clear()
                    try:
                        construct(family, c1, frame, case=case)
                    except (CaseMismatchError, DomainError):
                        assert made == []
                        continue
                    assert made == [solutions.Solution], (family, c1, frame, case)
                    built.add(family)
    assert len(built) == 7


def test_construct_solves_the_cubic_only_for_weierstrass_forms(monkeypatch):
    # classify_case reads the case from c1 and lambda gamma, so only the
    # equianharmonic and general cases solve a cubic, their own in h (as
    # the Weierstrass cubic in 1/h), once per construct
    import expwave.reduction as reduction
    import expwave.specfun.weierstrass as weierstrass

    calls = []
    solve = weierstrass.solve_weierstrass_cubic

    def counting(*args):
        calls.append(args)
        return solve(*args)

    for owner in (reduction, weierstrass):
        monkeypatch.setattr(owner, "solve_weierstrass_cubic", counting)
    solved = {CaseLabel.Equianharmonic, CaseLabel.GeneralWeierstrass}
    seen = set()
    for family in (FamilyLabel.Tzitzeica, FamilyLabel.DoddBullough,
                   FamilyLabel.TzitzeicaDoddBullough,
                   FamilyLabel.DoddBulloughMikhailov):
        for frame in (FR1, FRN):
            for c1 in (0.0, 1.0, -1.0, 1.5, -1.5, C1_LEMNISCATIC,
                       -C1_LEMNISCATIC):
                calls.clear()
                sol = construct(family, c1, frame)
                assert len(calls) == (sol.case in solved), (family, frame, c1)
                seen.add(sol.case)
    assert seen == solved | {CaseLabel.Degenerate1a, CaseLabel.Degenerate1b,
                             CaseLabel.Lemniscatic}


def test_construct_computes_the_cubic_once(monkeypatch):
    # classify_case computes the family's cubic for its range check of c1,
    # and the builder reads the same one: _cubic's body, which makes the
    # invariants, runs once per construct, for every cubic-family case
    import expwave.reduction as reduction

    made = []
    invariants = reduction.WeierstrassInvariants

    def counting(*args):
        made.append(args)
        return invariants(*args)

    monkeypatch.setattr(reduction, "WeierstrassInvariants", counting)
    seen = set()
    for family in (FamilyLabel.Tzitzeica, FamilyLabel.DoddBullough,
                   FamilyLabel.TzitzeicaDoddBullough,
                   FamilyLabel.DoddBulloughMikhailov):
        for lg in (1.0, -1.0, 0.37):
            for c1 in (0.0, 1.0, -1.0, 1.5, -1.5, C1_LEMNISCATIC,
                       -C1_LEMNISCATIC):
                for case in (None, CaseLabel.GeneralWeierstrass):
                    made.clear()
                    sol = construct(family, c1, FrameParams.from_lambda_gamma(
                        lg), case=case)
                    assert len(made) == 1, (family, lg, c1, case)
                    seen.add(sol.case)
    assert seen == {CaseLabel.Degenerate1a, CaseLabel.Degenerate1b,
                    CaseLabel.Lemniscatic, CaseLabel.Equianharmonic,
                    CaseLabel.GeneralWeierstrass}
