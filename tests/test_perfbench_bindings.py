"""The traced benchmark run rebinds package names from outside; every name
it wraps must exist and still be called, and detaching must put every
original back."""

import contextlib
import io
from pathlib import Path

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
    try:
        t.install_expwave()
        with contextlib.redirect_stdout(io.StringIO()):
            code, _ = t.op(cli.main, ["verify", "--family", "tzitzeica",
                                      "--c1", "0", "--lambda-gamma", "1",
                                      "--n", "16"])
    finally:
        t.detach()
    assert code == 0
    for span in [f"verify.{o}" for o in ORACLES] + ["solutions.construct"]:
        assert t.stats[span][0] == 1, span
    assert t.evals["ode_residual"] > 0
    # evaluation budget: on this k = 0 frame the 56 x 56 PDE grid has one
    # t column of distinct xi, 10 evaluations each (31,360 if per point)
    assert 0 < t.evals["pde_residual"] <= 10 * 56
    assert t.shoot_rhs > 0
