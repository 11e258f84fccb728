"""Tests of the benchmark itself (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import os
import random
import re
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import pytest  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from expwave import reduction, solutions  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _inputs(spec: dict):
    """The generated inputs of one op, without the objects built from them."""
    if "key" in spec:
        return spec["key"]
    return spec["argv"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    def cycles(seed):
        w, rng = workloads.make(name), random.Random(seed)
        return [[_inputs(s) for s in w.cycle(rng)] for _ in range(2)]

    assert cycles(7) == cycles(7)
    assert cycles(7) != cycles(8)


def test_construct_churn_inputs_never_repeat():
    w, rng = workloads.make("construct-churn"), random.Random(3)
    keys = [spec["key"] for _ in range(300) for spec in w.cycle(rng)]
    assert len(set(keys)) == len(keys)


def _benchmark_json() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_metric_names_and_declared_sets():
    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    tally = run._Tally()
    tally.add(workloads.Outcome(True, 1.0, b""))
    e2e = run.end_to_end(0.1, [0.001 * (i + 1) for i in range(100)], tally)
    layer = tracer.Tracer().metrics(ops=1, op_s=1.0, untraced_s=1.0)
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    for group, emitted in (("end_to_end", e2e), ("per_layer", layer)):
        for m in bench[group]:
            assert NAME.fullmatch(m["name"]) and len(m["name"]) <= 64
            assert emitted[m["name"]]["unit"] == m["unit"]


def test_p90_needs_ten_samples_beyond_it():
    values = list(range(100, 0, -1))
    assert run.p90(values) == 90
    with pytest.raises(ValueError):
        run.p90(values[:99])


def _construct(name: str, spec: dict):
    if name == "construct-churn":
        fam, c1, lg, branch = spec["key"]
        return solutions.construct(fam, c1, reduction.FrameParams.from_lambda_gamma(lg),
                                   branch=branch)
    case = spec["case"]
    assert spec["argv"][spec["argv"].index("--c1") + 1] == repr(spec["c1"])
    sol = solutions.construct(case.family, spec["c1"], spec["frame"],
                              branch=case.branch)
    assert sol.case is case.kind, "jitter must keep the catalogued case"
    assert abs(sol.lambda_gamma - float(spec["frame"].lambda_gamma)) < 1e-12
    return sol


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_generated_case_constructs(name):
    for seed in range(3):
        w, rng = workloads.make(name), random.Random(seed)
        for spec in (s for _ in range(4) for s in w.cycle(rng)):
            sol = _construct(name, spec)
            assert len(workloads.eval_points(sol.singularities)) == workloads.CHURN_POINTS


def _report(oracle, residual, tol=1e-6):
    return {"oracle": oracle, "max_residual": residual, "tolerance": tol,
            "pass": residual <= tol}


@pytest.mark.parametrize("reports, rc, passed, wrong", [
    ([_report("ode_residual", 1e-9), _report("pde_residual", 1e-7)], 0, True, False),
    ([_report("ode_residual", 1e-9), _report("pde_residual", 2e-5)], 1, False, False),
    ([_report("ode_residual", 1e-9), _report("pde_residual", 2e-4)], 1, False, True),
    ([_report("shoot_and_compare", 1.02e-6), _report("pde_residual", 2e-6)], 1,
     False, False),
    ([_report("shoot_and_compare", 1e-4), _report("pde_residual", 1e-7)], 1,
     False, True),
    ([_report("ode_residual", 1e-9), _report("pde_residual", 2e-6)], 0, False, True),
    ([_report("ode_residual", 1e-9) | {"pass": False}], 1, False, True),
    ([_report("ode_residual", float("nan"))], 1, False, True),
    ([_report("ode_residual", float("inf"))], 1, False, True),
])
def test_verify_failures_are_classified(reports, rc, passed, wrong):
    w = workloads.make("verify-mix")
    spec = w.warmup()[0]
    outcome = w.check(spec, (rc, json.dumps(reports), ""))
    assert (outcome.passed, outcome.wrong) == (passed, wrong)


def test_times_are_scaled_by_nearby_calibrations():
    ref = run.CALIB_REF_S
    times = [1.0, 1.0, 2.0, 3.0]
    # the machine runs at half speed throughout: every time halves
    assert list(run.at_reference_speed(times, [2, 3, 4], [2 * ref] * 4)) == [
        0.5, 0.5, 1.0, 1.5]
    # one slow calibration among many does not move the scale
    calibs = [ref] * 8
    calibs[4] = 10 * ref
    scaled = run.at_reference_speed([1.0] * 7, list(range(1, 8)), calibs)
    assert list(scaled) == [1.0] * 7


def test_tracer_counts_nested_calls_once_and_derives_self_time():
    def leaf(x):
        return x + 1

    def inner(n):
        return ns.inner(n - 1) if n else ns.leaf(0)

    def outer():
        return ns.inner(3) + 1

    ns = types.SimpleNamespace(leaf=leaf, inner=inner, outer=outer)
    tr = tracer.Tracer()
    for attr in ("leaf", "inner", "outer"):
        tr.install(ns, attr, attr, "layer")
    result, _ = tr.op(ns.outer)
    tr.detach()
    assert result == 2 and ns.leaf is leaf and ns.inner is inner
    assert {k: v[0] for k, v in tr.stats.items()} == {"leaf": 1, "inner": 1, "outer": 1}
    (_, outer_total, outer_self), (_, inner_total, inner_self), (_, leaf_total, _) = (
        tr.stats["outer"], tr.stats["inner"], tr.stats["leaf"])
    assert outer_self == pytest.approx(outer_total - inner_total)
    assert inner_self == pytest.approx(inner_total - leaf_total)


def test_refuses_to_run_outside_a_checkout():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "verify-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
