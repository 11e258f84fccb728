"""The traced benchmark run rebinds package names from outside; every name
it wraps must exist and still be called, and detaching must put every
original back."""

import contextlib
import io
from pathlib import Path

from expwave.reduction import FamilyLabel, FrameParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_detaches(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import Tracer

    t = Tracer()
    try:
        t.install_expwave()
    finally:
        t.detach()
    assert t._patches
    originals = {}
    for owner, attr, raw, _ in t._patches:
        originals.setdefault((owner, attr), raw)
    for (owner, attr), raw in originals.items():
        assert vars(owner)[attr] is raw, (owner, attr)


def test_traced_bindings_are_called(monkeypatch):
    # a wrapped name that is still bound but no longer called would count
    # zero; one verify run with an implicit check reaches every oracle
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from tracer import ORACLES, Tracer

    import expwave.cli as cli

    t = Tracer()

    def verify_counts(c1):
        # (exit code, Weierstrass evals, evaluator calls) of one verify op
        before = [t.stats[s][0] for s in ("specfun.weierstrass_eval",
                                          "solutions.evaluate")]
        with contextlib.redirect_stdout(io.StringIO()):
            code, _ = t.op(cli.main, ["verify", "--family", "tzitzeica",
                                      "--c1", c1, "--lambda-gamma", "1",
                                      "--n", "16"])
        return (code, t.stats["specfun.weierstrass_eval"][0] - before[0],
                t.stats["solutions.evaluate"][0] - before[1])

    try:
        t.install_expwave()
        code, w_evals, evals = verify_counts("0")
    finally:
        t.detach()
    assert code == 0
    # the Weierstrass cases are built from the roots of their own cubic in
    # h: no evaluation calls the prepared eval
    assert w_evals == 0 < evals
    for span in [f"verify.{o}" for o in ORACLES] + ["solutions.construct"]:
        assert t.stats[span][0] == 1, span
    assert t.evals["ode_residual"] > 0
    # the first-integral oracle reads the grid's jets, which the ODE
    # oracle computed
    assert t.evals["first_integral_residual"] == 0
    # evaluation budget: one Goursat window per kept point of the 16-point
    # grid, 19 evaluations each
    assert t.evals["pde_residual"] == 19 * 16
    # twelve right-hand-side calls per attempted step and two per accepted
    # step for the growth rate, 28 steps and none rejected, and two for the
    # rate at the start, measured once by the start check, which hands it
    # to the kernel: a shooting kernel that takes one step more or fewer
    # fails here
    assert t.shoot_rhs == 12 * 28 + 2 * 28 + 2
    # the general Weierstrass case likewise
    try:
        t.attach()
        code, w_evals, evals = verify_counts("1")
    finally:
        t.detach()
    assert code == 0
    assert w_evals == 0 < evals


def _workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    return workloads


def test_sample_dense_checker_passes_each_singular_kind(monkeypatch):
    # the checker rebuilds the sample grid itself; a sampling change that
    # it no longer agrees with fails here, not only as a lower pass_frac
    workloads = _workloads(monkeypatch)
    from expwave.solutions import construct

    first = {}
    for case in workloads.figure_cases():
        sol = construct(case.family, case.c1, FrameParams.from_lambda_gamma(case.lg),
                        branch=case.branch)
        first.setdefault(sol.singularities.kind, case)
    assert sorted(first) == ["half_line", "isolated", "lattice",
                             "lattice_windows", "none"]
    assert first["half_line"].label == "exp_kink"
    wl = workloads.SampleDense()
    for kind, case in first.items():
        spec = wl._spec(case, case.c1, case.lg)
        outcome = wl.check(spec, wl.run(spec))
        assert outcome.passed and not outcome.wrong, (kind, outcome.note)


def test_verify_mix_checker_passes_both_frames(monkeypatch):
    workloads = _workloads(monkeypatch)
    cases = {(c.family, c.label): c for c in workloads.catalogued_cases()}
    kink = cases[(FamilyLabel.SinhGordon, "exp_kink")]
    weierstrass = cases[(FamilyLabel.Tzitzeica, "weierstrass")]
    wl = workloads.VerifyMix()
    for spec in (wl._spec(kink, kink.c1, kink.lg),  # k = 0
                 wl._spec(weierstrass, weierstrass.c1, weierstrass.lg / 3.0,
                          1.0, 2.0)):
        outcome = wl.check(spec, wl.run(spec))
        assert outcome.passed and not outcome.wrong, (spec["argv"], outcome.note)
