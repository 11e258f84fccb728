"""Per-layer tracing from outside the package.

The traced run rebinds public functions at the names their callers look
them up by (a module global such as ``expwave.solutions.jacobi_sn_cn_dn``
or a class attribute such as ``Solution.evaluate_h``) with a wrapper that
records a span.  Nothing is installed in an untraced run.

* A call made while a span of the same name is open is not a new span, so
  recursion and re-entry through a second binding count once.
* A span's self time is its duration minus the time of the spans it
  opened; a layer's self time is the sum over its spans.
* Evaluations are attributed to the innermost open oracle; inside
  ``pde_residual`` their distinct xi are collected, and inside
  ``shoot_and_compare`` the right-hand-side calls (``g_prime`` /
  ``g_psi_prime``) are counted.
"""

from __future__ import annotations

import collections
import functools
import time

import expwave.cli as cli
import expwave.reduction as reduction
import expwave.solutions as solutions
import expwave.specfun.elliptic as elliptic
import expwave.specfun.weierstrass as weierstrass
import expwave.verify as verify
from expwave.singular import Singularities

KERNELS = ("jacobi_sn_cn_dn", "jacobi_am", "carlson_rf", "weierstrass_eval",
           "prepare_weierstrass", "gauss_2f1")
ORACLES = ("ode_residual", "first_integral_residual", "shoot_and_compare",
           "pde_residual", "implicit_residual_check")


class Tracer:
    def __init__(self):
        self.on = False
        self.stats: dict[str, list] = {}  # span -> [calls, total_s, self_s]
        self.layer: dict[str, str] = {}
        self._depth: dict[str, int] = {}
        self._stack: list[list[float]] = []
        self._patches: list = []
        self.oracle: str | None = None
        self.evals: collections.Counter = collections.Counter()
        self._pde_xi: set = set()
        self.pde_distinct = 0
        self.shoot_rhs = 0

    # -- spans ------------------------------------------------------------

    def _wrap(self, fn, span: str, hook=None, scope: str | None = None):
        stats = self.stats.setdefault(span, [0, 0.0, 0.0])
        depth = self._depth
        depth.setdefault(span, 0)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on or depth[span]:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(args)
            if scope is not None:
                outer, tracer.oracle = tracer.oracle, scope
            depth[span] = 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[span] = 0
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                stack[-1][0] += dt
                if scope is not None:
                    tracer.oracle = outer
                    if scope == "pde_residual":
                        tracer.pde_distinct += len(tracer._pde_xi)
                        tracer._pde_xi.clear()

        return wrapper

    def install(self, owner, attr: str, span: str, layer: str, **kw):
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(raw.__func__, span, **kw))
        else:
            new = self._wrap(raw, span, **kw)
        self.layer[span] = layer
        self._patches.append((owner, attr, raw, new))
        setattr(owner, attr, new)

    def attach(self):
        """Put the installed wrappers back in place."""
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def detach(self):
        """Restore the original functions."""
        for owner, attr, raw, _ in reversed(self._patches):
            setattr(owner, attr, raw)

    def op(self, fn, *args):
        """Run one op as the root span; returns (result, seconds)."""
        root = [0.0]
        self._stack.append(root)
        self.on = True
        t0 = time.perf_counter()
        try:
            return fn(*args), time.perf_counter() - t0
        finally:
            self.on = False
            self._stack.pop()

    # -- hooks ------------------------------------------------------------

    def _on_evaluate(self, args):
        self.evals[self.oracle] += 1
        if self.oracle == "pde_residual":
            self._pde_xi.add(args[1])

    def _on_rhs(self, args):
        if self.oracle == "shoot_and_compare":
            self.shoot_rhs += 1

    # -- the package's public names ---------------------------------------

    def install_expwave(self):
        prepared = type(weierstrass.prepare_weierstrass(
            weierstrass.WeierstrassInvariants(0.0, 0.0)))
        specfun = [
            (solutions, "jacobi_sn_cn_dn"), (weierstrass, "jacobi_sn_cn_dn"),
            (elliptic, "jacobi_sn_cn_dn"), (solutions, "jacobi_am"),
            (elliptic, "carlson_rf"), (weierstrass, "carlson_rf"),
            (solutions, "ellint_k"), (solutions, "gauss_2f1"),
            (solutions, "prepare_weierstrass"), (verify, "prepare_weierstrass"),
            (reduction, "solve_weierstrass_cubic"),
            (weierstrass, "solve_weierstrass_cubic"),
        ]
        for owner, attr in specfun:
            self.install(owner, attr, f"specfun.{attr}", "specfun")
        self.install(prepared, "eval", "specfun.weierstrass_eval", "specfun")

        for owner in (cli, solutions):
            self.install(owner, "construct", "solutions.construct", "solutions")
        self.install(solutions, "from_descriptor", "solutions.from_descriptor",
                     "solutions")
        for attr in ("evaluate_h", "evaluate_psi"):
            self.install(solutions.Solution, attr, "solutions.evaluate",
                         "solutions", hook=self._on_evaluate)
        self.install(solutions.Solution, "descriptor", "solutions.descriptor",
                     "solutions")
        self.install(cli, "implicit_relation", "solutions.implicit", "solutions")
        for attr in ("lhs", "in_domain"):
            self.install(solutions.ImplicitRelation, attr, "solutions.implicit",
                         "solutions")

        red = [
            (cli, ("classify_case", "classify_family", "elliptic_data",
                   "family_params", "first_integral")),
            (solutions, ("classify_case",)),
            (verify, ("family_params", "first_integral", "traveling_ode")),
            (reduction, ("classify_case", "classify_family", "elliptic_data",
                         "family_params", "first_integral", "traveling_ode")),
            (reduction.OdeDescriptor, ("source", "source_psi", "f", "rhs_psi")),
            (reduction.QuadratureDescriptor, ("g", "g_psi")),
            (reduction.FrameParams, ("from_lambda_gamma", "with_lambda_gamma")),
        ]
        for owner, attrs in red:
            for attr in attrs:
                self.install(owner, attr, "reduction", "reduction")
        for attr in ("g_prime", "g_psi_prime"):
            self.install(reduction.QuadratureDescriptor, attr, "reduction",
                         "reduction", hook=self._on_rhs)

        for attr in ("distance", "is_valid", "exclusions", "default_pad",
                     "reflected", "to_json", "none", "isolated", "lattice",
                     "half_line", "lattice_windows"):
            self.install(Singularities, attr, "singular", "singular")

        for name in ORACLES:
            for owner in (cli, verify):
                self.install(owner, name, f"verify.{name}", "verify", scope=name)
        for attr in ("for_solution", "points"):
            self.install(verify.Grid, attr, "verify.grid", "verify")

        self.install(cli, "main", "cli.main", "cli")

    # -- metrics ----------------------------------------------------------

    def metrics(self, ops: int, op_s: float, untraced_s: float) -> dict:
        """Per-layer metrics for ``ops`` traced ops that took ``op_s`` in
        total; ``untraced_s`` is the time of the same ops with every
        wrapper detached."""

        def calls(span):
            return self.stats.get(span, [0, 0.0, 0.0])[0]

        def per_call(span, scale, idx=1):
            c = calls(span)
            return self.stats[span][idx] / c * scale if c else 0.0

        def share(layer):
            return sum(s[2] for span, s in self.stats.items()
                       if self.layer[span] == layer) / op_s

        m: dict = {}

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        for k in KERNELS:
            put(f"specfun.{k}.calls", calls(f"specfun.{k}"), "count")
            put(f"specfun.{k}.us_per_call", per_call(f"specfun.{k}", 1e6), "us")
        put("specfun.self_share", share("specfun"), "ratio")
        put("solutions.construct.calls", calls("solutions.construct"), "count")
        put("solutions.construct.us_per_call",
            per_call("solutions.construct", 1e6), "us")
        ev = "solutions.evaluate"
        put(f"{ev}.calls", calls(ev), "count")
        put(f"{ev}.us_per_call", per_call(ev, 1e6), "us")
        put(f"{ev}.self_us_per_call", per_call(ev, 1e6, idx=2), "us")
        put("solutions.evals_per_op", calls(ev) / ops, "evals/op")
        put("solutions.self_share", share("solutions"), "ratio")
        put("reduction.calls", calls("reduction"), "count")
        put("reduction.us_per_call", per_call("reduction", 1e6), "us")
        put("reduction.self_share", share("reduction"), "ratio")
        put("singular.calls", calls("singular"), "count")
        put("singular.us_per_call", per_call("singular", 1e6), "us")
        for o in ORACLES:
            n = calls(f"verify.{o}")
            put(f"verify.{o}.ms_per_call", per_call(f"verify.{o}", 1e3), "ms")
            put(f"verify.{o}.evals_per_call",
                self.evals[o] / n if n else 0.0, "evals/call")
        pde_evals = self.evals["pde_residual"]
        put("verify.pde_residual.distinct_xi_ratio",
            self.pde_distinct / pde_evals if pde_evals else 0.0, "ratio")
        n = calls("verify.shoot_and_compare")
        put("verify.shoot_and_compare.rhs_evals_per_call",
            self.shoot_rhs / n if n else 0.0, "evals/call")
        put("verify.self_share", share("verify"), "ratio")
        cli_self = self.stats.get("cli.main", [0, 0.0, 0.0])[2]
        put("cli.self_ms_per_op", cli_self / ops * 1e3, "ms")
        put("cli.self_share", cli_self / op_s, "ratio")
        put("trace.overhead_frac", op_s / untraced_s - 1.0, "ratio")
        return m
