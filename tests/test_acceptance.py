"""Acceptance battery: one test per release criterion, each printing a
pass/fail line with its measured extremes and runtime.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from expwave.reduction import (
    C1_LEMNISCATIC,
    EquationParams,
    FamilyLabel,
    FrameParams,
    family_params,
    first_integral,
)
from expwave.solutions import (
    construct,
    implicit_relation,
)
from expwave.specfun import (
    WeierstrassInvariants,
    ellint_f,
    jacobi_am,
    jacobi_sn_cn_dn,
    prepare_weierstrass,
)
from expwave.verify import (
    Grid,
    first_integral_residual,
    implicit_residual_check,
    ode_residual,
    pde_residual,
    shoot_and_compare,
)
from test_weierstrass import weierstrass_grid, weierstrass_ode_residual

FR1 = FrameParams.from_lambda_gamma(1.0)
FRN = FrameParams.from_lambda_gamma(-1.0)


def report(criterion, name, passed, detail, elapsed):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {criterion}] {name}: {status} ({detail}, {elapsed:.2f}s)")


# the full catalogued constructor battery: (label, solution, grid range)
def catalogued_solutions():
    fr_half = FrameParams.from_lambda_gamma(0.5)
    return [
        ("liouville soliton",
         construct(FamilyLabel.Liouville, 1.0, FR1), (-10.0, 10.0)),
        ("liouville periodic",
         construct(FamilyLabel.Liouville, -1.0, FR1), (-10.0, 10.0)),
        ("liouville rational",
         construct(FamilyLabel.Liouville, 0.0, fr_half), (-10.0, 10.0)),
        ("dark soliton",
         construct(FamilyLabel.Tzitzeica, -1.5, FR1), (-10.0, 10.0)),
        ("singular soliton",
         construct(FamilyLabel.Tzitzeica, -1.5, FR1, branch=-1),
         (-10.0, 10.0)),
        ("periodic sec",
         construct(FamilyLabel.Tzitzeica, -1.5, FRN), (-10.0, 10.0)),
        ("periodic csc",
         construct(FamilyLabel.Tzitzeica, -1.5, FRN, branch=-1),
         (-10.0, 10.0)),
        ("equianharmonic",
         construct(FamilyLabel.Tzitzeica, 0.0, FR1), (-10.0, 10.0)),
        ("lemniscatic cnoidal",
         construct(FamilyLabel.Tzitzeica, C1_LEMNISCATIC, FR1), (-10.0, 10.0)),
        ("general weierstrass",
         construct(FamilyLabel.Tzitzeica, 1.0, FR1), (-10.0, 10.0)),
        ("sign-mapped soliton",
         construct(FamilyLabel.DoddBullough, 1.5, FRN), (-10.0, 10.0)),
        ("sign-mapped weierstrass",
         construct(FamilyLabel.DoddBullough, 1.0, FRN), (-10.0, 10.0)),
        ("reflected variant A",
         construct(FamilyLabel.TzitzeicaDoddBullough, 1.5, FRN),
         (-10.0, 10.0)),
        ("reflected variant B",
         construct(FamilyLabel.DoddBulloughMikhailov, -1.5, FR1),
         (-10.0, 10.0)),
        ("circular kink",
         construct(FamilyLabel.SineGordon, 1.0, FR1), (-10.0, 10.0)),
        ("circular shifted kink",
         construct(FamilyLabel.SineGordon, -1.0, FRN), (-10.0, 10.0)),
        ("circular amplitude",
         construct(FamilyLabel.SineGordon, 3.0, FR1), (-10.0, 10.0)),
        ("hyperbolic exp kink",
         construct(FamilyLabel.SinhGordon, -0.5, FR1), (-10.05, 0.0)),
        ("hyperbolic tan kink",
         construct(FamilyLabel.SinhGordon, 0.5, FR1), (-10.0, 10.0)),
        ("hyperbolic amplitude",
         construct(FamilyLabel.SinhGordon, -1.0, FRN), (-10.0, 10.0)),
    ]


def test_criterion_1_closed_form_fidelity():
    t0 = time.perf_counter()
    worst_ode = worst_fi = 0.0
    worst_label = ""
    for label, sol, (lo, hi) in catalogued_solutions():
        grid = Grid.for_solution(sol, lo, hi, 1000)
        r_ode = ode_residual(sol, sol.frame, grid, tol=1e-8)
        r_fi = first_integral_residual(sol, sol.frame, sol.c1, grid, tol=1e-8)
        if r_ode.max_residual > worst_ode:
            worst_ode, worst_label = r_ode.max_residual, label
        worst_fi = max(worst_fi, r_fi.max_residual)
        assert r_ode.passed, (label, r_ode.max_residual)
        assert r_fi.passed, (label, r_fi.max_residual)
    elapsed = time.perf_counter() - t0
    report(1, "closed-form fidelity (20 constructors x 2 oracles)", True,
           f"max ode {worst_ode:.2e} [{worst_label}], max fi {worst_fi:.2e}",
           elapsed)
    assert elapsed < 10.0


def test_criterion_2_weierstrass_kernel():
    t0 = time.perf_counter()
    import random
    rng = random.Random(97)
    worst = 0.0
    count = 0
    while count < 100:
        g2 = rng.uniform(-3.0, 3.0)
        g3 = rng.uniform(-3.0, 3.0)
        inv = WeierstrassInvariants(g2, g3)
        if abs(inv.delta) < 0.1 * max(abs(g2) ** 3, 27.0 * g3 * g3, 1e-6):
            continue
        count += 1
        rep = weierstrass_ode_residual(inv, weierstrass_grid(inv, 0.05, 10.0, 64),
                                       tol=1e-10)
        worst = max(worst, rep.max_residual)
        assert rep.passed, (g2, g3, rep.max_residual)
    specials = [WeierstrassInvariants(12.0, -8.0), WeierstrassInvariants(12.0, 8.0),
                WeierstrassInvariants(0.0, -0.25),
                WeierstrassInvariants(3.0 * 4.0 ** (1.0 / 3.0) / 4.0, 0.0)]
    for inv in specials:
        rep = weierstrass_ode_residual(inv, weierstrass_grid(inv, 0.05, 10.0, 64),
                                       tol=1e-10)
        worst = max(worst, rep.max_residual)
        assert rep.passed
    # degenerate closed forms against the root-based general route
    worst_agree = 0.0
    for inv in specials[:2]:
        gen = prepare_weierstrass(inv, force_general=True)
        clo = prepare_weierstrass(inv)
        for z in (0.2, 0.7, 1.4, 2.3):
            d = abs(gen.eval(z)[0] - clo.eval(z)[0])
            worst_agree = max(worst_agree, d)
            assert d <= 1e-9
    elapsed = time.perf_counter() - t0
    report(2, "Weierstrass kernel (100 random + specials)", True,
           f"max ode residual {worst:.2e}, route agreement {worst_agree:.2e}",
           elapsed)
    assert elapsed < 2.0


def test_criterion_3_jacobi_kernel():
    t0 = time.perf_counter()
    worst_id = 0.0
    for m in (-1.0, 0.0, 0.3, 0.7, 0.99, 1.0):
        for i in range(401):
            u = -10.0 + 0.05 * i
            sn, cn, dn = jacobi_sn_cn_dn(u, m)
            worst_id = max(worst_id, abs(sn * sn + cn * cn - 1.0),
                           abs(dn * dn + m * sn * sn - 1.0))
    assert worst_id <= 1e-12
    worst_rt = 0.0
    for m in (-1.0, 0.0, 0.5, 0.99, 2.0, 4.0):
        cap = math.asin(1.0 / math.sqrt(m)) if m > 1.0 else math.pi / 2.0
        for i in range(1, 40):
            phi = -cap + 2.0 * cap * i / 40.0
            worst_rt = max(worst_rt, abs(jacobi_am(ellint_f(phi, m), m) - phi))
    assert worst_rt <= 1e-10
    elapsed = time.perf_counter() - t0
    report(3, "Jacobi kernel identities and round trips", True,
           f"max identity {worst_id:.2e}, max roundtrip {worst_rt:.2e}", elapsed)
    assert elapsed < 1.0


def test_criterion_4_shooting_agreement():
    t0 = time.perf_counter()
    worst = 0.0
    runs = []
    dark = construct(FamilyLabel.Tzitzeica, -1.5, FR1)
    runs.append(("dark soliton", dark, FR1, 0.0, 5.0))
    kink = construct(FamilyLabel.SineGordon, 1.0, FR1)
    runs.append(("kink", kink, FR1, 0.0, 5.0))
    shifted = construct(FamilyLabel.SineGordon, -1.0, FRN)
    runs.append(("shifted kink", shifted, FRN, 0.0, 5.0))
    lem = construct(FamilyLabel.Tzitzeica, C1_LEMNISCATIC, FR1)
    runs.append(("cnoidal", lem, FR1, 0.0, 5.0))
    fr16 = FrameParams.from_lambda_gamma(16.0)
    gw = construct(FamilyLabel.Tzitzeica, 1.0, fr16)
    half = gw.params["period"] / 2.0
    assert gw.params["period"] > 10.0  # span 5 fits between poles
    runs.append(("general weierstrass", gw, fr16, half, 5.0))
    for label, sol, frame, start, span in runs:
        quad_desc = first_integral(family_params(sol.family), frame, sol.c1)
        rep = shoot_and_compare(quad_desc, sol, start, span, tol=1e-6)
        worst = max(worst, rep.max_residual)
        assert rep.passed, (label, rep.max_residual)
    elapsed = time.perf_counter() - t0
    report(4, "shooting oracle agreement (5 solutions, span 5)", True,
           f"max deviation {worst:.2e}", elapsed)
    assert elapsed < 5.0


def test_criterion_5_implicit_relations():
    t0 = time.perf_counter()
    eq = construct(FamilyLabel.Tzitzeica, 0.0, FR1)
    rel = implicit_relation(FamilyLabel.Tzitzeica, FR1)
    period = eq.params["period"]
    # window where |2 h^3| <= 0.9 on the increasing stretch
    xs = [period * (0.55 + 0.2 * i / 200.0) for i in range(201)]
    good = [x for x in xs if abs(2.0 * eq.evaluate_h(x) ** 3) <= 0.9]
    grid = Grid(good[0], good[-1], 64)
    rep1 = implicit_residual_check(rel, eq, grid, tol=1e-8)
    assert rep1.passed, rep1.max_residual
    sh = construct(FamilyLabel.SinhGordon, 0.0, FR1)
    rel = implicit_relation(FamilyLabel.SinhGordon, FR1)
    xs = [0.02 * i for i in range(1, 70)]
    good = [x for x in xs if abs(sh.evaluate_h(x) ** 4) <= 0.9]
    grid = Grid(good[0], good[-1], 64)
    rep2 = implicit_residual_check(rel, sh, grid, tol=1e-8)
    assert rep2.passed, rep2.max_residual
    elapsed = time.perf_counter() - t0
    report(5, "implicit hypergeometric relations", True,
           f"max residuals {rep1.max_residual:.2e} / {rep2.max_residual:.2e}",
           elapsed)
    assert elapsed < 1.0


def test_criterion_6_sign_map_dualities():
    t0 = time.perf_counter()
    worst = 0.0
    pts = [-5.0 + 0.1013 * i for i in range(100)]
    for c1, lg in [(1.5, -1.0), (1.0, -2.0), (0.0, -1.0)]:
        frame = FrameParams.from_lambda_gamma(lg)
        mirror = FrameParams.from_lambda_gamma(-lg)
        db = construct(FamilyLabel.DoddBullough, c1, frame)
        tz = construct(FamilyLabel.Tzitzeica, -c1, mirror)
        for x in pts:
            if db.singularities.distance(x) < db.singularities.default_pad():
                continue
            worst = max(worst, abs(db.evaluate_h(x) - tz.evaluate_h(x)))
    for c1, lg in [(1.5, -1.0), (1.0, -2.0)]:
        frame = FrameParams.from_lambda_gamma(lg)
        tdb = construct(FamilyLabel.TzitzeicaDoddBullough, c1, frame)
        db = construct(FamilyLabel.DoddBullough, c1, frame)
        for x in pts:
            if db.singularities.distance(-x) < db.singularities.default_pad():
                continue
            worst = max(worst, abs(tdb.evaluate_h(x) + db.evaluate_h(-x)))
    for c1, lg in [(-1.5, 1.0), (1.0, 1.0)]:
        frame = FrameParams.from_lambda_gamma(lg)
        dbm = construct(FamilyLabel.DoddBulloughMikhailov, c1, frame)
        tz = construct(FamilyLabel.Tzitzeica, c1, frame)
        for x in pts:
            if tz.singularities.distance(-x) < tz.singularities.default_pad():
                continue
            worst = max(worst, abs(dbm.evaluate_h(x) + tz.evaluate_h(-x)))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    report(6, "sign-map and reflection dualities", True,
           f"max pointwise gap {worst:.2e}", elapsed)


def test_criterion_7_kink_asymptotics():
    t0 = time.perf_counter()
    for lg in (1.0, 2.0, 0.49):
        frame = FrameParams.from_lambda_gamma(lg)
        sol = construct(FamilyLabel.SineGordon, 1.0, frame, branch=1)
        far = 40.0 * math.sqrt(lg)
        left = abs(sol.evaluate_psi(-far))
        right = abs(sol.evaluate_psi(far) - 2.0 * math.pi)
        assert left <= 1e-6 and right <= 1e-6, (lg, left, right)
    elapsed = time.perf_counter() - t0
    report(7, "kink asymptotics at +-40 sqrt(lambda gamma)", True,
           f"|psi| tails below 1e-6", elapsed)


def test_criterion_8_pde_residual():
    t0 = time.perf_counter()
    frame_k = FrameParams(lam=1.0 / 3.0, k=1.0, omega=2.0)
    kink = construct(FamilyLabel.SineGordon, 1.0, frame_k)
    rep1 = pde_residual(kink, frame_k,
                        Grid.for_solution(kink, -10.0, 10.0, 1001), tol=1e-6)
    assert rep1.passed, rep1.max_residual
    frame_l = FrameParams(lam=-1.0 / 3.0, k=1.0, omega=2.0)
    # positive pulse, checked in h
    pulse = construct(FamilyLabel.Liouville, -1.0, frame_l)
    rep2 = pde_residual(pulse, frame_l,
                        Grid.for_solution(pulse, -10.0, 10.0, 1001), tol=1e-6)
    assert rep2.passed, rep2.max_residual
    elapsed = time.perf_counter() - t0
    report(8, "light-cone Goursat residual at (k, omega) = (1, 2)", True,
           f"max residuals {rep1.max_residual:.2e} / {rep2.max_residual:.2e}",
           elapsed)
    assert elapsed < 3.0


def test_criterion_9_cli_contract(tmp_path):
    t0 = time.perf_counter()

    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    def run(*args):
        proc = subprocess.run([sys.executable, "-m", "expwave", *args],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        return proc.returncode, proc.stdout

    import json
    code, out = run("classify", "--alpha", "1", "--beta", "-1",
                    "--a", "1", "--b", "-2")
    assert code == 0 and json.loads(out) == {"family": "Tzitzeica"}
    code, out = run("verify", "--family", "sine-gordon", "--c1", "1",
                    "--lambda-gamma", "1")
    assert code == 0 and all(r["pass"] for r in json.loads(out))
    code, out = run("sample", "--family", "liouville", "--c1", "0",
                    "--lambda-gamma", "0.5", "--xi-min", "1", "--xi-max", "2",
                    "--n", "3")
    assert code == 0
    rows = out.strip().split("\n")
    assert rows[0] == "xi,h,psi,ode_residual"
    assert float(rows[1].split(",")[1]) == 1.0  # h(1) = 1
    # byte-identical CSV across two runs
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--family", "sine-gordon", "--c1", "1",
            "--lambda-gamma", "1", "--xi-min", "-5", "--xi-max", "5",
            "--n", "64"]
    from expwave.cli import main as cli_main
    assert cli_main(args + ["--output", str(a)]) == 0
    assert cli_main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - t0
    report(9, "CLI contract (documented invocations)", True,
           "classify/verify/sample as documented; CSV reproducible", elapsed)
