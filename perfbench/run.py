"""expwave benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 30 --trace 0

Run from the root of an expwave checkout.  The command starts one worker
process per measurement, so set-up time and peak memory belong to one
workload.  With ``--trace 0`` it first starts SETUP_PROBES processes that
only set up, then the worker that sets up and runs the closed loop; it
prints the end-to-end metrics, with times at a reference speed (see
``calibrate``).  With ``--trace 1`` the worker runs the loop
untraced, then runs the ops of its first TRACE_CYCLES cycles again, each
once untraced and once under the tracer (perfbench/tracer.py); it prints
the per-layer metrics.

The last line of standard output is the result object; the line before
it carries information that gates nothing (output digest, raw times,
documented and other failures).
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("verify-mix", "sample-dense", "construct-churn")
SETUP_PROBES = 4
MIN_OPS = 100
#: Whole cycles traced per workload: 80, 99 and 1020 ops.
TRACE_CYCLES = {"verify-mix": 1, "sample-dense": 3, "construct-churn": 30}
CHILD_TIMEOUT_S = 170
FORBIDDEN_IMPORTS = ("numpy", "scipy", "mpmath")

#: The speed of a shared host drifts by about +-20% over seconds to minutes,
#: for every process alike.  A fixed pure-Python loop that calls nothing in
#: expwave is timed between blocks of at least BLOCK_S of ops; each block's
#: op times are scaled by CALIB_REF_S over the median calibration time of
#: the 2 * CALIB_WINDOW calibrations nearest it.  Times are thus reported
#: at a reference speed, where the calibration loop takes CALIB_REF_S.
CALIB_ITERS = 3000
CALIB_REF_S = 0.9e-3
CALIB_WINDOW = 3
BLOCK_S = 0.05
SETUP_CALIBS = 5


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile; needs at least ten samples above it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(f"p90 of {len(ordered)} samples has fewer than 10 beyond it")
    return ordered[rank - 1]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("main", "setup", "worker"), default="main",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def calibrate() -> float:
    """Seconds taken by a fixed loop of float and dict work."""
    t0 = time.perf_counter()
    s, x, d = 0.0, 0.1, {}
    for i in range(CALIB_ITERS):
        x = math.sin(x) * 0.5 + math.sqrt(i + 1.0) * 1e-3
        d[i & 7] = x
        s += x * x / (1.0 + x)
    return time.perf_counter() - t0


def at_reference_speed(times, ends: list[int], calibs: list[float]) -> array.array:
    """Scale op times to the reference speed.  Block j holds the ops
    ``ends[j-1]:ends[j]`` and ran between calibrations j and j + 1."""
    assert len(calibs) == len(ends) + 1
    out, start = array.array("d"), 0
    for j, end in enumerate(ends):
        near = calibs[max(0, j + 1 - CALIB_WINDOW):j + 1 + CALIB_WINDOW]
        factor = CALIB_REF_S / statistics.median(near)
        out.extend(t * factor for t in times[start:end])
        start = end
    return out


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def _setup(args):
    """Import, generate the first cycle of inputs and warm up; the time of
    all three is the set-up time.  Returns it raw and at reference speed."""
    calibs = [calibrate() for _ in range(SETUP_CALIBS)]
    t0 = time.perf_counter()
    import workloads
    w = workloads.make(args.workload)
    rng = random.Random(args.seed)
    first = w.cycle(rng)
    for spec in w.warmup():
        w.check(spec, w.run(spec))
    raw = time.perf_counter() - t0
    calibs += [calibrate() for _ in range(SETUP_CALIBS)]
    return w, rng, first, raw, raw * CALIB_REF_S / statistics.median(calibs)


class _Tally:
    """Outcomes of the checked ops."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.not_passed = 0
        self.wrong: list[str] = []
        self.documented: list[str] = []
        self.margins = array.array("d")

    def add(self, outcome):
        self.attempted += 1
        self.margins.append(outcome.margin)
        if outcome.wrong:
            self.failed += 1
            self.wrong.append(outcome.note)
        if not outcome.passed:
            self.not_passed += 1
            if not outcome.wrong:
                self.documented.append(outcome.note)

    def error(self, spec, exc: Exception):
        self.attempted += 1
        self.failed += 1
        self.not_passed += 1
        self.wrong.append(f"{type(exc).__name__}: {exc} in {spec}")


def _checked(w, spec, result, tally):
    try:
        outcome = w.check(spec, result)
    except Exception as exc:  # a check that cannot run counts as a failure
        tally.error(spec, exc)
        return None
    tally.add(outcome)
    return outcome


def _loop(w, rng, first, args, tally, keep: int):
    """Closed loop over whole cycles until --seconds and MIN_OPS are both
    reached, calibrating between blocks of ops.  Returns the first ``keep``
    cycles, the number of cycles run, the raw per-op times, the same at
    reference speed and the first cycle's output digest."""
    kept, n_cycles, times = [], 0, array.array("d")
    ends, calibs, block_s = [], [calibrate()], 0.0
    digest = hashlib.sha256()
    cycle = first
    deadline = time.perf_counter() + args.seconds
    while True:
        for spec in cycle:
            t0 = time.perf_counter()
            try:
                result = w.run(spec)
            except Exception as exc:  # a failed op is counted, not fatal
                result = exc
            dt = time.perf_counter() - t0
            times.append(dt)
            block_s += dt
            if block_s >= BLOCK_S:
                ends.append(len(times))
                calibs.append(calibrate())
                block_s = 0.0
            if isinstance(result, Exception):
                tally.error(spec, result)
                continue
            outcome = _checked(w, spec, result, tally)
            if outcome is not None and not n_cycles:
                digest.update(outcome.digest)
        if n_cycles < keep:
            kept.append(cycle)
        n_cycles += 1
        if time.perf_counter() >= deadline and len(times) >= MIN_OPS:
            if block_s:
                ends.append(len(times))
                calibs.append(calibrate())
            return (kept, n_cycles, times, at_reference_speed(times, ends, calibs),
                    digest.hexdigest())
        cycle = w.cycle(rng)


def _traced(w, specs, tally):
    """Per-layer metrics of ``specs``.  Each op runs untraced and then
    traced, back to back, so that the overhead compares like with like on a
    machine whose speed drifts."""
    import tracer as tracing
    tr = tracing.Tracer()
    tr.install_expwave()
    tr.detach()
    untraced = traced = 0.0
    for spec in specs:
        t0 = time.perf_counter()
        try:
            w.run(spec)
        except Exception:
            pass  # counted when the traced run fails the same way
        untraced += time.perf_counter() - t0
        tr.attach()
        try:
            result, dt = tr.op(w.run, spec)
        except Exception as exc:  # a failed op is counted, not fatal
            tally.error(spec, exc)
            continue
        finally:
            tr.detach()
        traced += dt
        _checked(w, spec, result, tally)
    return tr.metrics(len(specs), traced, untraced)


def end_to_end(setup_s: float, times, tally: _Tally) -> dict:
    """End-to-end metrics of one untraced run, from op times at reference
    speed."""
    import resource
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(times) / math.fsum(times), "1/s"),
        "op_ms_p50": (statistics.median(times) * 1e3, "ms"),
        "op_ms_p90": (p90(times) * 1e3, "ms"),
        "pass_frac": (1.0 - tally.not_passed / tally.attempted, "ratio"),
        "residual_margin_decades": (statistics.median(tally.margins), "decades"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _worker(args) -> dict:
    w, rng, first, setup_raw, setup_s = _setup(args)
    tally = _Tally()
    keep = TRACE_CYCLES[args.workload] if args.trace else 0
    kept, n_cycles, raw, times, digest = _loop(w, rng, first, args, tally, keep)
    info = {"workload": args.workload, "seed": args.seed,
            "first_cycle_sha256": digest, "cycles": n_cycles}
    if args.trace:
        specs = [s for c in kept for s in c]
        metrics = _traced(w, specs, tally)
    else:
        metrics = end_to_end(setup_s, times, tally)
        info["raw"] = {"setup_s": setup_raw, "ops_per_s": len(raw) / math.fsum(raw),
                       "op_ms_p50": statistics.median(raw) * 1e3,
                       "op_ms_p90": p90(raw) * 1e3}
    leaked = [m for m in FORBIDDEN_IMPORTS if m in sys.modules]
    info.update(not_passed=tally.not_passed,
                documented_defects=tally.documented[:5],
                wrong=tally.wrong[:20], forbidden_imports=leaked)
    return {"info": info, "correct": not tally.wrong and not leaked,
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


# ---------------------------------------------------------------------------
# parent process
# ---------------------------------------------------------------------------

def _child(args, role: str, env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role == "setup":
        print(json.dumps({"setup_s": _setup(args)[4]}))
        return 0
    if args.role == "worker":
        print(json.dumps(_worker(args)))
        return 0

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "expwave", "__init__.py")):
        print("perfbench: src/expwave not found; run from the root of an "
              "expwave checkout", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=src)
    try:
        setups = ([] if args.trace else
                  [_child(args, "setup", env)["setup_s"]
                   for _ in range(SETUP_PROBES)])
        res = _child(args, "worker", env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info = res.pop("info")
    if not args.trace:
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        info["setup_s_samples"] = setups
    print(json.dumps(info))
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
