"""The traced benchmark run rebinds package names from outside; every name
it wraps must exist, and detaching must put every original back."""

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
