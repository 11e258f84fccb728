"""Seeded inputs, the timed op and its correctness check for each workload.

Every workload is a closed loop with one client.  Inputs come in cycles:
one cycle holds every case of the workload once (with its weight), in a
seeded order and with seeded parameters, so that the mix of cheap and
expensive ops is the same in every run and only the jitter inside each
case depends on the seed.  The jitter is stratified across cycles
(``Strata``), so that the three or four cycles of one run cover each
parameter's range evenly.  The program only ever sees the generated
arguments.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import struct

from expwave import cli, reduction, solutions, verify
from expwave.reduction import (
    C1_DEGENERATE,
    C1_LEMNISCATIC,
    CUBIC_FAMILIES,
    CaseLabel,
    FamilyLabel,
    FrameParams,
)

#: Cases whose c1 is a free parameter of the closed form.  Every other
#: case sits at a special value of c1 and keeps it.
FREE_C1 = frozenset({
    CaseLabel.LiouvilleSoliton, CaseLabel.LiouvillePeriodic,
    CaseLabel.GeneralWeierstrass, CaseLabel.AmplitudeGeneric,
})

#: Cases evaluated through the elliptic kernels (Weierstrass p, Jacobi).
ELLIPTIC = frozenset({
    CaseLabel.Lemniscatic, CaseLabel.Equianharmonic,
    CaseLabel.GeneralWeierstrass, CaseLabel.AmplitudeGeneric,
    CaseLabel.AmplitudeC1Zero,
})

#: A tolerance miss by less than this many decades is a thin oracle margin
#: at the edge of the parameter range, not a wrong closed form.
NEAR_MISS_DECADES = 1.0
#: ``pde_residual``'s plain second-order stencils miss 1e-6 on most k != 0
#: frames, by up to 1.5 decades at the seed commit (ROADMAP item 3).
#: A miss of this many decades or more is more than that known defect.
PDE_DEFECT_DECADES = 2.0

SAMPLE_N = 2001
ELLIPTIC_WEIGHT = 3
CHURN_POINTS = 8
CHURN_SPAN = (-4.0, 4.0)


@dataclasses.dataclass(frozen=True)
class Case:
    """One catalogued curve: family, c1, lambda*gamma and branch."""

    family: FamilyLabel
    label: str
    c1: float
    lg: float
    branch: int

    @property
    def kind(self) -> CaseLabel:
        return reduction.classify_case(
            self.family, FrameParams.from_lambda_gamma(self.lg), self.c1)


def figure_cases() -> list[Case]:
    """The curves that ``expwave figures`` draws."""
    return [Case(fam, label, c1, lg, branch)
            for _, fam, curves in cli._FIGURES
            for label, c1, lg, branch, _ in curves]


def catalogued_cases() -> list[Case]:
    """Figure curves plus the Dodd-Bullough, TDB and DBM images of the
    Tzitzeica curves.  Dodd-Bullough and its reflection TDB solve the base
    equation at (-c1, -lambda gamma); DBM reflects the base family at the
    same (c1, lambda gamma)."""
    figs = figure_cases()
    maps = []
    for c in figs:
        if c.family is FamilyLabel.Tzitzeica:
            maps += [
                Case(FamilyLabel.DoddBullough, c.label, -c.c1, -c.lg, c.branch),
                Case(FamilyLabel.TzitzeicaDoddBullough, c.label, -c.c1, -c.lg,
                     c.branch),
                Case(FamilyLabel.DoddBulloughMikhailov, c.label, c.c1, c.lg,
                     c.branch),
            ]
    return figs + maps


#: Steps of the Kronecker sequences in ``Strata``, one per parameter: the
#: fractional parts of the golden ratio, sqrt 2, sqrt 3 and sqrt 5.
STRATA_STEPS = (0.6180339887498949, 0.41421356237309515, 0.7320508075688772,
                0.2360679774997898)


class Strata:
    """Uniform draws in [0, 1) for every slot of a cycle, stratified over
    cycles.  Draw n of parameter j of a slot is frac(u + n * STRATA_STEPS[j]),
    with the offset u drawn from the seed on the first cycle.  Every draw is
    uniform, and consecutive cycles spread a slot's draws over the range
    instead of bunching them, so the cost mix of a run of a few cycles
    depends little on the seed."""

    def __init__(self, slots: int):
        self.slots = slots
        self.offsets: list[tuple[float, ...]] = []
        self.n = 0

    def draws(self, rng: random.Random) -> list[tuple[float, ...]]:
        if not self.offsets:
            self.offsets = [tuple(rng.random() for _ in STRATA_STEPS)
                            for _ in range(self.slots)]
        n, self.n = self.n, self.n + 1
        return [tuple((u + n * a) % 1.0 for u, a in zip(offs, STRATA_STEPS))
                for offs in self.offsets]


def jitter(u: tuple[float, ...], case: Case, free_c1: bool) -> tuple[float, float]:
    """(c1, lambda gamma) for one op from the draws ``u``: |lambda gamma|
    from [0.5, 2] with the catalogued sign, c1 scaled by [0.7, 1.3] where it
    is free (which keeps every catalogued free c1 inside its case's
    interval)."""
    lg = math.copysign(0.5 + 1.5 * u[0], case.lg)
    c1 = case.c1 * (0.7 + 0.6 * u[1]) if free_c1 else case.c1
    return c1, lg


@dataclasses.dataclass
class Outcome:
    """Result of checking one op.

    ``passed`` is the per-op check: every oracle verdict passes, or every
    sampled residual is within its tolerance.  An op that does not pass is
    ``wrong`` unless it misses only in a documented way: ``pde_residual``
    by less than PDE_DEFECT_DECADES, or any tolerance by less than
    NEAR_MISS_DECADES.  ``margin`` is min log10(tolerance / max residual)
    over what the op checked.
    """

    passed: bool
    margin: float
    digest: bytes
    wrong: bool = False
    note: str = ""


def _wrong(digest: bytes, note: str) -> Outcome:
    return Outcome(False, -math.inf, digest, wrong=True, note=note)


def _margin(tol: float, worst: float) -> float:
    return math.log10(tol / max(worst, 1e-300))


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _case_args(case: Case, c1: float) -> list[str]:
    return ["--family", case.family.value, "--c1", repr(c1),
            "--branch", str(case.branch)]


# ---------------------------------------------------------------------------
# verify-mix
# ---------------------------------------------------------------------------

class VerifyMix:
    """``expwave verify`` over the catalogued cases, each once with the
    --lambda-gamma shortcut (k = 0) and once with an explicit k != 0 frame
    of the same lambda gamma."""

    name = "verify-mix"

    def __init__(self):
        self.slots = [(c, c.kind in FREE_C1, explicit)
                      for c in catalogued_cases() for explicit in (False, True)]
        self.strata = Strata(len(self.slots))

    def cycle(self, rng: random.Random) -> list[dict]:
        specs = []
        for (case, free, explicit), u in zip(self.slots, self.strata.draws(rng)):
            c1, lg = jitter(u, case, free)
            if explicit:
                # k = +-1 and an omega incommensurate with it, so the
                # PDE oracle's (z, t) grid maps to all-distinct xi
                k = -1.0 if u[2] < 0.5 else 1.0
                omega = 1.5 + u[3]
                specs.append(self._spec(case, c1, lg / (omega * omega - 1.0),
                                        k, omega))
            else:
                specs.append(self._spec(case, c1, lg))
        rng.shuffle(specs)
        return specs

    @staticmethod
    def _spec(case: Case, c1: float, lam: float, k: float = 0.0,
              omega: float = 1.0) -> dict:
        frame = (["--lambda", repr(lam), "--k", repr(k), "--omega", repr(omega)]
                 if k else ["--lambda-gamma", repr(lam)])
        return {"case": case, "c1": c1, "frame": FrameParams(lam, k, omega),
                "argv": ["verify"] + _case_args(case, c1) + frame}

    def warmup(self) -> list[dict]:
        return [self._spec(Case(fam, "warmup", 1.0, 1.0, 1), 1.0, 1.0)
                for fam in (FamilyLabel.Liouville, FamilyLabel.Tzitzeica)]

    def run(self, spec: dict):
        return _run_cli(spec["argv"])

    def check(self, spec: dict, result) -> Outcome:
        rc, out, err = result
        digest = hashlib.sha256(f"{rc}\n{out}".encode()).digest()
        try:
            reports = json.loads(out)
            margins = {r["oracle"]: _margin(r["tolerance"], r["max_residual"])
                       for r in reports}
            failing = sorted(r["oracle"] for r in reports if not r["pass"])
            consistent = all(r["pass"] == (r["max_residual"] <= r["tolerance"])
                             and math.isfinite(r["max_residual"]) for r in reports)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            return _wrong(digest, f"exit {rc}, unreadable report ({exc}): {err.strip()}")
        if not consistent or not margins:
            return _wrong(digest, f"reports inconsistent: {out.strip()}")
        if rc != (0 if not failing else 1):
            return _wrong(digest, f"exit {rc} disagrees with reports {failing}")
        margin = min(margins.values())
        if not failing:
            return Outcome(True, margin, digest)
        documented = all(
            margins[o] > -(PDE_DEFECT_DECADES if o == "pde_residual"
                           else NEAR_MISS_DECADES)
            for o in failing)
        return Outcome(False, margin, digest, wrong=not documented,
                       note=f"failing {failing} in {spec['argv']}")


# ---------------------------------------------------------------------------
# sample-dense
# ---------------------------------------------------------------------------

class SampleDense:
    """``expwave sample --n 2001`` over the figure curves, the elliptic
    ones weighted three times."""

    name = "sample-dense"

    def __init__(self):
        self.cases = []
        for c in figure_cases():
            kind = c.kind
            self.cases += [(c, kind in FREE_C1)] * (
                ELLIPTIC_WEIGHT if kind in ELLIPTIC else 1)
        self.strata = Strata(len(self.cases))

    def cycle(self, rng: random.Random) -> list[dict]:
        specs = [self._spec(case, *jitter(u, case, free))
                 for (case, free), u in zip(self.cases, self.strata.draws(rng))]
        rng.shuffle(specs)
        return specs

    @staticmethod
    def _spec(case: Case, c1: float, lg: float) -> dict:
        return {"case": case, "c1": c1, "frame": FrameParams.from_lambda_gamma(lg),
                "argv": ["sample"] + _case_args(case, c1)
                + ["--lambda-gamma", repr(lg), "--n", str(SAMPLE_N)]}

    def warmup(self) -> list[dict]:
        lemn = Case(FamilyLabel.Tzitzeica, "lemniscatic", C1_LEMNISCATIC, 1.0, 1)
        kink = Case(FamilyLabel.SineGordon, "kink", 1.0, 1.0, 1)
        return [self._spec(c, c.c1, c.lg) for c in (lemn, kink)]

    def run(self, spec: dict):
        return _run_cli(spec["argv"])

    def check(self, spec: dict, result) -> Outcome:
        rc, out, err = result
        digest = hashlib.sha256(f"{rc}\n{out}".encode()).digest()
        if rc != 0:
            return _wrong(digest, f"exit {rc}: {err.strip()}")
        case = spec["case"]
        sol = solutions.construct(case.family, spec["c1"], spec["frame"],
                                  branch=case.branch)
        expected = verify.Grid.for_solution(sol, -10.0, 10.0, SAMPLE_N).points()
        lines = out.splitlines()
        if lines[0] != "xi,h,psi,ode_residual" or len(lines) - 1 != len(expected):
            return _wrong(digest, f"{len(lines) - 1} rows, expected {len(expected)}")
        worst = 0.0
        for line, xi in zip(lines[1:], expected):
            x_txt, h_txt, psi_txt, res_txt = line.split(",")
            h, res = float(h_txt), float(res_txt)
            if float(x_txt) != xi or not math.isfinite(h):
                return _wrong(digest, f"bad row {line}")
            if (psi_txt == "") != (h <= 0.0 and not sol.psi_native):
                return _wrong(digest, f"bad psi {line}")
            worst = max(worst, res)
        margin = _margin(verify.DEFAULT_ODE_TOL, worst)
        if worst > verify.DEFAULT_ODE_TOL:
            return Outcome(False, margin, digest,
                           wrong=margin <= -NEAR_MISS_DECADES,
                           note=f"ode_residual {worst:.3g} in {spec['argv']}")
        return Outcome(True, margin, digest)


# ---------------------------------------------------------------------------
# construct-churn
# ---------------------------------------------------------------------------

def _pick(rng: random.Random, *intervals: tuple[float, float]) -> float:
    lo, hi = rng.choice(intervals)
    return rng.uniform(lo, hi)


def _mag(rng: random.Random) -> float:
    return rng.uniform(0.5, 2.0)


def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


def _branch(rng: random.Random) -> int:
    return rng.choice((-1, 1))


def _cubic_kinds(fam: FamilyLabel) -> list:
    # Dodd-Bullough and TDB solve the base cubic at (-c1, -lambda gamma)
    s = -1.0 if fam in (FamilyLabel.DoddBullough,
                        FamilyLabel.TzitzeicaDoddBullough) else 1.0
    return [
        lambda r: (fam, s * C1_DEGENERATE, s * _mag(r), _branch(r)),
        lambda r: (fam, s * C1_DEGENERATE, -s * _mag(r), _branch(r)),
        lambda r: (fam, 0.0, s * _sign(r) * _mag(r), 1),
        lambda r: (fam, s * C1_LEMNISCATIC, s * _mag(r), 1),
        # general Weierstrass, c1 kept clear of the special values
        lambda r: (fam, s * _pick(r, (0.3, 2.5), (-1.3, -0.3), (-4.0, -2.2)),
                   _sign(r) * _mag(r), 1),
    ]


def churn_kinds() -> list:
    """One generator per (family, case) cell: rng -> (family, c1, lg, branch)."""
    lv, sg, sh = FamilyLabel.Liouville, FamilyLabel.SineGordon, FamilyLabel.SinhGordon

    def lv_soliton(r):
        s = _sign(r)
        return lv, s * _mag(r), s * _mag(r), 1

    def lv_periodic(r):
        s = _sign(r)
        return lv, s * _mag(r), -s * _mag(r), 1

    kinds = [lv_soliton, lv_periodic,
             lambda r: (lv, 0.0, _sign(r) * _mag(r), 1)]
    for fam in (FamilyLabel.Tzitzeica, FamilyLabel.DoddBullough,
                FamilyLabel.TzitzeicaDoddBullough,
                FamilyLabel.DoddBulloughMikhailov):
        kinds += _cubic_kinds(fam)
    kinds += [
        lambda r: (sg, 1.0, _mag(r), _branch(r)),
        lambda r: (sg, -1.0, -_mag(r), _branch(r)),
        lambda r: (sg, 0.0, -_mag(r), _branch(r)),
        lambda r: (sg, _pick(r, (-0.9, -0.1), (0.1, 0.9)), -_mag(r), _branch(r)),
        lambda r: (sg, r.uniform(-4.0, -1.2), -_mag(r), _branch(r)),
        lambda r: (sg, r.uniform(1.2, 4.0), _mag(r), _branch(r)),
        lambda r: (sh, -0.5, _mag(r), _branch(r)),
        lambda r: (sh, 0.5, _mag(r), _branch(r)),
        lambda r: (sh, 0.0, _mag(r), _branch(r)),
        lambda r: (sh, _pick(r, (-0.4, -0.1), (0.6, 2.0)), _mag(r), _branch(r)),
        lambda r: (sh, r.uniform(-2.0, -0.6), -_mag(r), _branch(r)),
    ]
    return kinds


def eval_points(sing) -> list[float]:
    """CHURN_POINTS points of CHURN_SPAN, spread over the part where the
    solution is defined and clear of its singular set."""
    lo, hi = CHURN_SPAN
    pad = sing.default_pad()
    ok = [x for x in (lo + (hi - lo) * i / 32 for i in range(33))
          if sing.is_valid(x) and sing.distance(x) > pad]
    step = len(ok) / CHURN_POINTS
    return [ok[int(i * step)] for i in range(CHURN_POINTS)]


def _value(sol, xi: float) -> float:
    return sol.evaluate_psi(xi) if sol.psi_native else sol.evaluate_h(xi)


class ConstructChurn:
    """classify, elliptic data, construct, descriptor round trip and eight
    evaluations, on a fresh (family, c1, lambda gamma, branch) every op."""

    name = "construct-churn"

    def __init__(self):
        self.kinds = churn_kinds()

    def cycle(self, rng: random.Random) -> list[dict]:
        # lambda gamma is a fresh continuous draw in every cell, so keys do
        # not repeat (the self-tests check this over many cycles)
        specs = [{"key": kind(rng)} for kind in self.kinds]
        rng.shuffle(specs)
        return specs

    def warmup(self) -> list[dict]:
        return [{"key": kind(random.Random(i))}
                for i, kind in enumerate(self.kinds)]

    def run(self, spec: dict):
        fam, c1, lg, branch = spec["key"]
        frame = FrameParams.from_lambda_gamma(lg)
        case = reduction.classify_case(fam, frame, c1)
        if fam in CUBIC_FAMILIES:
            reduction.elliptic_data(fam, frame, c1)
        sol = solutions.construct(fam, c1, frame, branch=branch)
        rebuilt = solutions.from_descriptor(sol.descriptor())
        xs = eval_points(rebuilt.singularities)
        return case, sol, rebuilt, xs, [_value(rebuilt, x) for x in xs]

    def check(self, spec: dict, result) -> Outcome:
        case, sol, rebuilt, xs, values = result
        desc = sol.descriptor()
        digest = hashlib.sha256(
            json.dumps(desc, sort_keys=True).encode()
            + struct.pack(f"<{2 * len(xs)}d", *xs, *values)).digest()
        if case is not sol.case or rebuilt.descriptor() != desc:
            return _wrong(digest, "descriptor mismatch")
        original = [_value(sol, x) for x in xs]
        if struct.pack(f"<{len(xs)}d", *original) != struct.pack(f"<{len(xs)}d", *values):
            return _wrong(digest, f"rebuilt values differ at {spec['key']}")
        lo, hi = CHURN_SPAN
        report = verify.ode_residual(sol, sol.frame,
                                     verify.Grid.for_solution(sol, lo, hi, 16))
        return Outcome(True, _margin(report.tolerance, report.max_residual), digest)


def make(name: str):
    return {"verify-mix": VerifyMix, "sample-dense": SampleDense,
            "construct-churn": ConstructChurn}[name]()
