"""Command-line front end.

Subcommands:

  classify   family (and case + elliptic data when c1/frame are given)
  solve      JSON descriptor of a constructed solution
  sample     CSV of xi, h, psi, ode_residual over a grid
  verify     run verify.battery, JSON array of reports (a note on
             stderr for each oracle it skipped)
  figures    plot-ready CSVs for the seven catalogued figure families

Every numeric flag can instead come from a JSON config file passed with
--config whose keys mirror the JobConfig field names exactly (command-line
flags override file values).  Exit codes: 0 pass, 1 verification failure,
2 config error, 3 domain/singularity error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile

from .errors import ExpwaveError, FrameDegenerateError, InvalidParamsError
from .reduction import (
    CUBIC_FAMILIES,
    GORDON_FAMILIES,
    CaseLabel,
    EquationParams,
    FamilyLabel,
    FrameParams,
    classify_case,
    classify_family,
    elliptic_data,
    family_params,
    first_integral,
)
from .solutions import Solution, construct, implicit_relation
from .verify import (
    DEFAULT_FI_TOL,
    DEFAULT_IMPLICIT_TOL,
    DEFAULT_ODE_TOL,
    DEFAULT_PDE_TOL,
    DEFAULT_SHOOT_TOL,
    Grid,
    battery,
    first_integral_residual,
    implicit_residual_check,
    ode_residual,
    ode_residuals,
    pde_residual,
    shoot_and_compare,
)

# family_params, first_integral, implicit_relation and the five oracles are
# no longer called here (verify.battery runs them); they stay bound only
# because perfbench/tracer.py wraps them by these names.

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_DOMAIN = 3


class ConfigError(Exception):
    pass


@dataclasses.dataclass
class JobConfig:
    """Flat job description; JSON config files use these exact field names."""

    command: str = ""
    family: str | None = None
    alpha: float | None = None
    beta: float | None = None
    a: float | None = None
    b: float | None = None
    c1: float | None = None
    lam: float | None = None
    k: float | None = None
    omega: float | None = None
    lambda_gamma: float | None = None
    xi0: float = 0.0
    branch: int = 1
    case: str | None = None
    xi_min: float = -10.0
    xi_max: float = 10.0
    n: int = 1001
    output: str | None = None
    tol_ode: float = DEFAULT_ODE_TOL
    tol_first_integral: float = DEFAULT_FI_TOL
    tol_shoot: float = DEFAULT_SHOOT_TOL
    tol_pde: float = DEFAULT_PDE_TOL
    tol_implicit: float = DEFAULT_IMPLICIT_TOL


_FIELDS = {f.name: f.type for f in dataclasses.fields(JobConfig)}
_TOLERANCES = [name for name in _FIELDS if name.startswith("tol_")]
#: JSON values accepted for each JobConfig annotation (bools never are)
_JSON_TYPES = {"str": str, "float": (int, float), "int": int}
_FLOAT_MAX = int(sys.float_info.max)


def _check_config_value(key: str, val) -> None:
    kind = _FIELDS[key]  # an annotation string such as "float | None"
    if val is None and kind.endswith("| None"):
        return
    types = _JSON_TYPES[kind.split(" |")[0]]
    if isinstance(val, bool) or not isinstance(val, types):
        raise ConfigError(
            f"config field {key!r} must be {kind}, not {json.dumps(val)}")
    if isinstance(val, int) and types is not int and abs(val) > _FLOAT_MAX:
        # an integer no float holds: math.isfinite would raise OverflowError
        raise ConfigError(f"config field {key!r} is beyond the float range")


def _fmt(x: float) -> str:
    # fixed 17-significant-digit formatting keeps CSV byte-reproducible
    return format(x, ".17g")


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _atomic_write(path: str, text: str):
    """Write through a temporary file beside path; a path that cannot be
    written is a config error."""
    tmp = None
    try:
        d = os.path.dirname(os.path.abspath(path))
        os.makedirs(d, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-expwave-")
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise ConfigError(f"cannot write {path}: {e.strerror or e}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(text: str, output: str | None):
    """Write text to output, or to stdout; a reader that closed stdout
    early (``expwave sample ... | head``) ends the output, not the
    command, which still returns its own exit code."""
    if output:
        _atomic_write(output, text)
        return
    try:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at exit
        # cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


@functools.cache  # one parser per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="expwave",
        description="Traveling-wave solutions of exponential-nonlinearity "
                    "wave equations: classify, construct, sample, verify.")
    top.add_argument("--config", help="JSON file mirroring JobConfig fields")
    sub = top.add_subparsers(dest="command")

    def add_config(p):
        # SUPPRESS keeps a path given before the subcommand from being
        # overwritten by the subparser's default
        p.add_argument("--config", default=argparse.SUPPRESS,
                       help="JSON file mirroring JobConfig fields")

    def add_common(p, grid=False):
        add_config(p)
        p.add_argument("--family", help="family name, e.g. tzitzeica, sine-gordon")
        p.add_argument("--alpha", type=float)
        p.add_argument("--beta", type=float)
        p.add_argument("--a", type=float)
        p.add_argument("--b", type=float)
        p.add_argument("--c1", type=float)
        p.add_argument("--lambda", dest="lam", type=float,
                       help="characteristic slope (JobConfig field: lam)")
        p.add_argument("--k", type=float)
        p.add_argument("--omega", type=float)
        p.add_argument("--lambda-gamma", dest="lambda_gamma", type=float,
                       help="shortcut: sets lam=value, k=0, omega=1")
        p.add_argument("--xi0", type=float)
        p.add_argument("--branch", type=int)
        p.add_argument("--case", help="case label override")
        p.add_argument("--output", "-o")
        if grid:
            p.add_argument("--xi-min", dest="xi_min", type=float)
            p.add_argument("--xi-max", dest="xi_max", type=float)
            p.add_argument("--n", type=int)

    add_common(sub.add_parser("classify", help="identify family and case"))
    add_common(sub.add_parser("solve", help="emit a solution descriptor"))
    add_common(sub.add_parser("sample", help="CSV of xi,h,psi,ode_residual"),
               grid=True)
    p = sub.add_parser("verify", help="run the verification oracles")
    add_common(p, grid=True)
    p.add_argument("--tol-ode", dest="tol_ode", type=float)
    p.add_argument("--tol-first-integral", dest="tol_first_integral", type=float)
    p.add_argument("--tol-shoot", dest="tol_shoot", type=float)
    p.add_argument("--tol-pde", dest="tol_pde", type=float)
    p.add_argument("--tol-implicit", dest="tol_implicit", type=float)
    p = sub.add_parser("figures", help="write the figure-family CSVs")
    add_config(p)
    p.add_argument("--output", "-o", help="output directory (default ./figures)")
    p.add_argument("--n", type=int)
    return top


def _load_config(ns: argparse.Namespace) -> JobConfig:
    cfg = JobConfig()
    path = getattr(ns, "config", None)
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(data) - _FIELDS.keys()
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        for key, val in data.items():
            _check_config_value(key, val)
            setattr(cfg, key, val)
    for key in _FIELDS:
        val = getattr(ns, key, None)
        if val is not None and key != "command":
            setattr(cfg, key, val)
    command = getattr(ns, "command", None) or cfg.command
    if not command:
        raise ConfigError("no command given (subcommand or config 'command')")
    if cfg.command and getattr(ns, "command", None) and cfg.command != ns.command:
        raise ConfigError(
            f"config requests {cfg.command!r} but command line says {ns.command!r}")
    cfg.command = command
    if cfg.c1 is not None and not math.isfinite(cfg.c1):
        raise ConfigError("c1 must be finite")
    if cfg.branch not in (1, -1):
        raise ConfigError("branch must be +1 or -1")
    for key in _TOLERANCES:
        tol = getattr(cfg, key)
        if not (math.isfinite(tol) and tol > 0.0):
            raise ConfigError(f"{key} must be finite and > 0, not {tol!r}")
    # a finite positive width also rules out a non-finite xi_min or xi_max
    if not math.isfinite(cfg.xi_max - cfg.xi_min) or cfg.xi_min >= cfg.xi_max:
        raise ConfigError("need xi_min < xi_max with a finite width")
    return cfg


def _resolve_family(cfg: JobConfig) -> FamilyLabel:
    raw = [cfg.alpha, cfg.beta, cfg.a, cfg.b]
    has_raw = any(v is not None for v in raw)
    if cfg.family and has_raw:
        raise ConfigError("give either --family or raw alpha/beta/a/b, not both")
    if cfg.family:
        try:
            fam = FamilyLabel.parse(cfg.family)
        except InvalidParamsError as e:
            raise ConfigError(str(e))
        if fam is FamilyLabel.GenericTwoExponential:
            raise ConfigError("generic family needs raw alpha/beta/a/b")
        return fam
    if not has_raw:
        raise ConfigError("need --family or all of --alpha --beta --a --b")
    if any(v is None for v in raw):
        raise ConfigError("raw parameters need all of alpha, beta, a, b")
    try:
        params = EquationParams(cfg.alpha, cfg.beta, cfg.a, cfg.b)
    except InvalidParamsError as e:
        raise ConfigError(str(e))
    return classify_family(params)


def _resolve_frame(cfg: JobConfig, required: bool = True) -> FrameParams | None:
    try:
        if cfg.lambda_gamma is not None:
            if cfg.lam is not None or cfg.k is not None or cfg.omega is not None:
                raise ConfigError("--lambda-gamma replaces lambda/k/omega")
            return FrameParams.from_lambda_gamma(cfg.lambda_gamma, xi0=cfg.xi0)
        if cfg.lam is not None:
            return FrameParams(lam=cfg.lam, k=cfg.k or 0.0,
                               omega=1.0 if cfg.omega is None else cfg.omega,
                               xi0=cfg.xi0)
    except FrameDegenerateError:
        raise  # lambda = 0 or k = +/-omega stays a domain error (exit 3)
    except InvalidParamsError as e:
        raise ConfigError(str(e))
    if required:
        raise ConfigError("need --lambda-gamma or --lambda [--k --omega]")
    return None


def _construct(cfg: JobConfig) -> Solution:
    fam = _resolve_family(cfg)
    frame = _resolve_frame(cfg)
    if cfg.c1 is None:
        raise ConfigError("need --c1")
    case = None
    if cfg.case:
        try:
            case = CaseLabel.parse(cfg.case)
        except InvalidParamsError as e:
            raise ConfigError(str(e))
    return construct(fam, cfg.c1, frame, branch=cfg.branch, case=case)


def cmd_classify(cfg: JobConfig) -> int:
    fam = _resolve_family(cfg)
    out: dict = {"family": fam.name}
    frame = _resolve_frame(cfg, required=False)
    if cfg.c1 is not None and frame is not None:
        if fam in CUBIC_FAMILIES or fam in GORDON_FAMILIES:
            out["case"] = classify_case(fam, frame, cfg.c1).name
        if fam in CUBIC_FAMILIES:
            out["elliptic_data"] = elliptic_data(fam, frame, cfg.c1).to_json()
    _emit(_json_dumps(out), cfg.output)
    return EXIT_OK


def cmd_solve(cfg: JobConfig) -> int:
    sol = _construct(cfg)
    _emit(_json_dumps(sol.descriptor()), cfg.output)
    return EXIT_OK


def _sample_rows(sol: Solution, grid: Grid) -> list[str]:
    table = grid.jets(sol)
    h_psi = sol.h_psi
    rows = ["xi,h,psi,ode_residual"]
    for (xi, value, _, _), res in zip(
            table, ode_residuals(sol, sol.frame, table)):
        h, psi = h_psi(value)
        # one %.17g format per row gives _fmt's bytes
        if psi != psi:  # NaN where h <= 0: an empty psi cell
            rows.append("%.17g,%.17g,,%.17g" % (xi, h, res))
        else:
            rows.append("%.17g,%.17g,%.17g,%.17g" % (xi, h, psi, res))
    return rows


def _grid(make, *args) -> Grid:
    """make(*args), a Grid; a window that Grid refuses exits 2."""
    try:
        return make(*args)
    except ValueError as e:
        raise ConfigError(str(e))


def cmd_sample(cfg: JobConfig) -> int:
    sol = _construct(cfg)
    grid = _grid(Grid.for_solution, sol, cfg.xi_min, cfg.xi_max, cfg.n)
    rows = _sample_rows(sol, grid)
    _emit("\n".join(rows) + "\n", cfg.output)
    return EXIT_OK


def cmd_verify(cfg: JobConfig) -> int:
    sol = _construct(cfg)
    if cfg.n < 16:
        raise ConfigError("verify needs n >= 16")
    grid = _grid(Grid.for_solution, sol, cfg.xi_min, cfg.xi_max, cfg.n)
    reports, skipped = battery(
        sol, grid, **{key: getattr(cfg, key) for key in _TOLERANCES})
    for oracle, reason in skipped:
        print(f"note: {oracle} skipped: {reason}", file=sys.stderr)
    _emit(_json_dumps([r.to_json() for r in reports]), cfg.output)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAIL


_FIGURES = [
    ("fig1_liouville", FamilyLabel.Liouville, [
        ("soliton", 1.0, 1.0, 1, None),
        ("periodic", -1.0, 1.0, 1, None),
        ("rational", 0.0, 1.0, 1, None)]),
    ("fig2_tzitzeica_degenerate", FamilyLabel.Tzitzeica, [
        ("dark_soliton", -1.5, 1.0, 1, None),
        ("singular_soliton", -1.5, 1.0, -1, None),
        ("periodic_sec", -1.5, -1.0, 1, None),
        ("periodic_csc", -1.5, -1.0, -1, None)]),
    ("fig3_tzitzeica_elliptic", FamilyLabel.Tzitzeica, [
        ("lemniscatic", -3.0 / 4.0 ** (1 / 3), 1.0, 1, None),
        ("equianharmonic", 0.0, 1.0, 1, None),
        ("weierstrass", 1.0, 1.0, 1, None)]),
    ("fig4_sine_gordon_kinks", FamilyLabel.SineGordon, [
        ("kink", 1.0, 1.0, 1, None),
        ("antikink", 1.0, 1.0, -1, None),
        ("shifted_kink", -1.0, -1.0, 1, None)]),
    ("fig5_sine_gordon_amplitude", FamilyLabel.SineGordon, [
        ("superunitary_bounded", 0.0, -1.0, 1, None),
        ("subunitary_unbounded", -3.0, -1.0, 1, None)]),
    ("fig6_sinh_gordon_kinks", FamilyLabel.SinhGordon, [
        ("exp_kink", -0.5, 1.0, 1, None),
        ("gudermannian_kink", 0.5, 1.0, 1, None)]),
    ("fig7_sinh_amplitude", FamilyLabel.SinhGordon, [
        ("superunitary_bounded", -1.0, -1.0, 1, None),
        ("blowup_unbounded", 0.0, 1.0, 1, None)]),
]


def _figure_cell(sol: Solution, x: float) -> str:
    """The value at x, or an empty cell where the evaluator refuses x."""
    try:
        return _fmt(sol.evaluate_psi(x) if sol.psi_native else sol.evaluate_h(x))
    except ExpwaveError:
        return ""


def cmd_figures(cfg: JobConfig) -> int:
    outdir = cfg.output or "figures"
    xs = _grid(Grid, -10.0, 10.0, cfg.n).points()
    sidecar: dict = {}
    for name, fam, curves in _FIGURES:
        built = []
        meta = []
        for label, c1, lg, branch, case in curves:
            frame = FrameParams.from_lambda_gamma(lg)
            sol = construct(fam, c1, frame, branch=branch,
                            case=CaseLabel.parse(case) if case else None)
            built.append((label, sol))
            meta.append({"branch": branch, "c1": c1, "case": sol.case.name,
                         "curve": label, "lambda_gamma": lg, "xi0": 0.0})
        rows = ["xi," + ",".join(label for label, _ in built)]
        columns = []
        for _, sol in built:
            sing = sol.singularities
            pad = sing.default_pad()
            columns.append([_figure_cell(sol, x) if d > pad else ""
                            for x, d in zip(xs, sing.clearances(xs))])
        rows += map(",".join, zip(map(_fmt, xs), *columns))
        _atomic_write(os.path.join(outdir, name + ".csv"), "\n".join(rows) + "\n")
        sidecar[name] = meta
    _atomic_write(os.path.join(outdir, "figures_params.json"),
                  _json_dumps(sidecar) + "\n")
    _emit(f"wrote {len(_FIGURES)} figure CSVs to {outdir}", None)
    return EXIT_OK


_COMMANDS = {
    "classify": cmd_classify,
    "solve": cmd_solve,
    "sample": cmd_sample,
    "verify": cmd_verify,
    "figures": cmd_figures,
}


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _join_negative_values(argv: list[str]) -> list[str]:
    """Pass '--opt -1e-1' as '--opt=-1e-1'.

    argparse reads a token that starts with '-' as an option unless it
    looks like '-1' or '-.5', so a value in exponent form ('-1e-1', as
    repr prints small floats) or '-inf' left its flag without an argument.
    No expwave option starts with '-<digit>' or '-.', so the join is
    unambiguous.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev
                and tok.startswith("-") and _is_float(tok)):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(_join_negative_values(
        sys.argv[1:] if argv is None else argv))
    try:
        cfg = _load_config(ns)
        if cfg.command not in _COMMANDS:
            raise ConfigError(f"unknown command {cfg.command!r}")
        return _COMMANDS[cfg.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (ExpwaveError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError:  # every list a command builds grows with --n
        print("config error: out of memory; a smaller --n needs less",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
