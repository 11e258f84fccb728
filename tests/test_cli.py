import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from expwave import cli
from expwave.cli import main
from expwave.reduction import (
    C1_LEMNISCATIC,
    CUBIC_FAMILIES,
    FamilyLabel,
    FrameParams,
)
from expwave.singular import Singularities
from expwave.solutions import construct, from_descriptor
from expwave.verify import Grid, ode_residual


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "expwave", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    return proc.returncode, proc.stdout, proc.stderr


def test_classify_json():
    code, out, _ = run_cli("classify", "--alpha", "1", "--beta", "-1",
                           "--a", "1", "--b", "-2")
    assert code == 0
    assert json.loads(out) == {"family": "Tzitzeica"}


def test_classify_with_case_and_data():
    code, out, _ = run_cli("classify", "--family", "tzitzeica",
                           "--c1", "-1.5", "--lambda-gamma", "1")
    assert code == 0
    blob = json.loads(out)
    assert blob["family"] == "Tzitzeica"
    assert blob["case"] == "Degenerate1a"
    assert blob["elliptic_data"]["g2"] == pytest.approx(0.75)
    assert blob["elliptic_data"]["delta"] == pytest.approx(0.0, abs=1e-15)


def test_verify_exit0():
    code, out, _ = run_cli("verify", "--family", "sine-gordon",
                           "--c1", "1", "--lambda-gamma", "1")
    assert code == 0
    reports = json.loads(out)
    assert reports and all(r["pass"] for r in reports)
    names = {r["oracle"] for r in reports}
    assert {"ode_residual", "first_integral_residual",
            "shoot_and_compare", "pde_residual"} <= names


def test_verify_failure_exit1():
    code, out, _ = run_cli("verify", "--family", "sine-gordon",
                           "--c1", "1", "--lambda-gamma", "1",
                           "--tol-ode", "1e-30")
    assert code == 1
    reports = json.loads(out)
    assert any(not r["pass"] for r in reports)


def test_sample_into_closed_pipe_prints_no_traceback():
    # the reader takes one line and closes the pipe; 200001 rows overflow
    # any pipe buffer, so the write hits the closed end.  PYTHONUNBUFFERED
    # is dropped: an unbuffered text stream loses a short write silently
    # instead of raising, so the closed pipe would not show
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC,
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "expwave", "sample", "--family", "liouville",
         "--c1", "1", "--lambda-gamma", "1", "--n", "200001"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"xi,h,psi,ode_residual\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert "Traceback" not in err, err
    assert code == 0


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its descriptor is a temporary file's, which _emit may repoint."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._fd


def test_closed_stdout_keeps_the_command_exit_code(monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(fh.fileno()))
        fail = main(["verify", "--family", "sine-gordon", "--c1", "1",
                     "--lambda-gamma", "1", "--tol-ode", "1e-30"])
        ok = main(["classify", "--family", "tzitzeica", "--c1", "1",
                   "--lambda-gamma", "1"])
    assert (fail, ok) == (1, 0)


def test_sample_values():
    code, out, _ = run_cli("sample", "--family", "liouville", "--c1", "0",
                           "--lambda-gamma", "0.5", "--xi-min", "1",
                           "--xi-max", "2", "--n", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "xi,h,psi,ode_residual"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    # h = 1 and psi = log h = 0 here, to the rounding of s = 1/sqrt(0.5)
    assert float(first[1]) == pytest.approx(1.0, rel=4.5e-16, abs=0.0)
    assert float(first[2]) == pytest.approx(0.0, abs=4.5e-16)
    assert float(first[3]) <= 1e-8


def test_sample_empty_psi_for_negative_h(tmp_path):
    out_file = tmp_path / "s.csv"
    code = main(["sample", "--family", "liouville", "--c1", "1",
                 "--lambda-gamma", "1", "--xi-min", "-1", "--xi-max", "1",
                 "--n", "17", "--output", str(out_file)])
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    for line in lines[1:]:
        cells = line.split(",")
        assert float(cells[1]) < 0.0
        assert cells[2] == ""  # psi unavailable where h <= 0


def test_sample_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sample", "--family", "tzitzeica", "--c1", "-1.5",
            "--lambda-gamma", "1", "--xi-min", "-5", "--xi-max", "5",
            "--n", "101"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("family,c1,lg", [("tzitzeica", 1.0, 1.0),
                                          ("sinh-gordon", 0.0, 1.0)])
def test_sample_residual_column_is_ode_residual(tmp_path, family, c1, lg):
    out_file = tmp_path / "s.csv"
    assert main(["sample", "--family", family, "--c1", repr(c1),
                 "--lambda-gamma", repr(lg), "--n", "101",
                 "--output", str(out_file)]) == 0
    column = [float(line.split(",")[3])
              for line in out_file.read_text().splitlines()[1:]]
    sol = construct(FamilyLabel.parse(family), c1,
                    FrameParams.from_lambda_gamma(lg))
    report = ode_residual(sol, sol.frame,
                          Grid.for_solution(sol, -10.0, 10.0, 101))
    assert len(column) == report.points_used
    assert max(column) == report.max_residual
    assert math.sqrt(math.fsum(r * r for r in column) / len(column)) \
        == report.rms_residual


def test_solve_roundtrip():
    code, out, _ = run_cli("solve", "--family", "sinh-gordon", "--c1", "-1",
                           "--lambda-gamma", "-1", "--branch", "-1")
    assert code == 0
    desc = json.loads(out)
    sol = from_descriptor(desc)
    assert sol.case.name == desc["case"]
    assert sol.evaluate_psi(0.4) == from_descriptor(desc).evaluate_psi(0.4)


def _stdout_json(capsys, argv):
    assert main(argv) == 0, argv
    return json.loads(capsys.readouterr().out)


def test_classify_reads_degeneracy_at_unit_scale(capsys):
    # at lambda gamma = 1e55 g2^3 and g3^2 underflow, so a discriminant
    # taken there reads 0; the case is the general one with one real root,
    # and delta keeps the sign of the true discriminant
    data = _stdout_json(capsys, ["classify", "--family", "tzitzeica", "--c1",
                                 "1", "--lambda-gamma", "1e55"])
    assert data["case"] == "GeneralWeierstrass"
    data = data["elliptic_data"]
    assert len(data["roots_real"]) == 1
    assert len(data["roots_complex_pair"]) == 2
    assert "repeated_root" not in data
    assert math.copysign(1.0, data["delta"]) == -1.0


@pytest.mark.parametrize("c1, im", [
    # im: the pair's |imaginary part| from a 60-digit mpmath solve of the
    # printed invariants; the solver's sqrt(3) |u - v| / 2 reads it 3.8e-10
    # and 4.5e-8 off, relative, as u - v cancels
    ("3e4", 0.00204124145231929),
    ("1e15", 99229.2403800813),
])
def test_classify_prints_the_complex_pair_by_the_exact_discriminant(
        capsys, c1, im):
    # delta / g2^3 is -5.0e-13 and -1.1e-18 here, once
    # inside the old relative snap band of 1e-12, which printed three real
    # roots and a repeated root here; the exact delta is negative, one
    # real root and a complex pair, and delta prints it rounded once
    data = _stdout_json(capsys, ["classify", "--family", "tzitzeica", "--c1",
                                 c1, "--lambda-gamma", "1"])["elliptic_data"]
    assert "repeated_root" not in data
    assert len(data["roots_real"]) == 1
    assert data["roots_complex_pair"][1] == pytest.approx(im, rel=1e-7)
    g2, g3 = Fraction(data["g2"]), Fraction(data["g3"])
    assert data["delta"] == float(g2 ** 3 - 27 * g3 ** 2) < 0.0


@pytest.mark.parametrize("c1, lg", [("1", "1"), ("-1", "1"),
                                    ("1.133591881540744",
                                     "-1.5909158551647078")])
def test_classify_reads_the_liouville_double_root_from_a0(capsys, c1, lg):
    # the cubic h^2 (a3 h + a2) has the double root h = 0, but its rounded
    # invariants have a nonzero exact delta (-2.06e-18 at c1 = +-1): the
    # double root is read from a0 = 0, and no complex pair is printed
    data = _stdout_json(capsys, ["classify", "--family", "liouville", "--c1",
                                 c1, "--lambda-gamma", lg])["elliptic_data"]
    assert "roots_complex_pair" not in data
    real = data["roots_real"]
    assert real.count(real[1]) == 2 and abs(real[1]) == data["repeated_root"]


def test_solve_prints_the_classify_invariants(capsys):
    # one owner of g2 and g3: solve's params equal classify's elliptic
    # data bit for bit, in both frame forms and at special and random c1
    rng = random.Random(22)
    c1s = [0.0, 1e-13, -1.5, C1_LEMNISCATIC, 0.3, 3e4,
           *(rng.uniform(-3.0, 3.0) for _ in range(4))]
    lgs = [1e-3, 0.7, -0.7, 1e3,
           *(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.0)
             for _ in range(3))]
    frames = []
    for lg in lgs:
        frames.append(["--lambda-gamma", repr(lg)])
        # k != 0: lambda gamma = lambda (omega^2 - k^2) = 3 lambda
        frames.append(["--lambda", repr(lg / 3.0), "--k", "1", "--omega", "2"])
    for family in sorted(CUBIC_FAMILIES - {FamilyLabel.Liouville},
                         key=lambda f: f.value):
        for c1 in c1s:
            for frame in frames:
                args = ["--family", family.value, "--c1", repr(c1), *frame]
                blob = _stdout_json(capsys, ["classify", *args])
                # the other cases take the general form on request
                if blob["case"] not in ("Equianharmonic", "GeneralWeierstrass"):
                    args += ["--case", "general-weierstrass"]
                params = _stdout_json(capsys, ["solve", *args])["params"]
                data = blob["elliptic_data"]
                assert [params["g2"].hex(), params["g3"].hex()] == \
                    [data["g2"].hex(), data["g3"].hex()], args


def test_config_file(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "command": "classify", "family": "dodd-bullough",
        "c1": 1.5, "lambda_gamma": -1.0}))
    code, out, _ = run_cli("--config", str(cfg))
    assert code == 0
    assert json.loads(out)["case"] == "Degenerate1a"
    # command-line flags override the file
    code, out, _ = run_cli("classify", "--config", str(cfg), "--c1", "0")
    assert code == 0
    assert json.loads(out)["case"] == "Equianharmonic"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"command": "classify", "no_such_field": 1}))
    code, _, err = run_cli("--config", str(bad))
    assert code == 2


def test_config_before_or_after_subcommand(capsys, tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "command": "solve", "family": "tzitzeica", "c1": 1.0,
        "lambda_gamma": 1.0}))
    outs = []
    for argv in (["--config", str(cfg), "solve"],
                 ["solve", "--config", str(cfg)]):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["family"] == "Tzitzeica"


def test_main_reuses_one_parser(capsys, tmp_path):
    # one process, one parser: each call gives the exit code and output it
    # gives alone in a fresh process, an argparse error included
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"family": "tzitzeica", "c1": 1.0,
                               "lambda_gamma": 1.0}))
    calls = [
        ["solve", "--no-such-flag"],
        ["--config", str(cfg), "solve"],
        ["sample", "--family", "liouville", "--c1", "-1e-1",
         "--lambda-gamma", "1", "--n", "5"],
        ["verify", "--family", "sine-gordon", "--c1", "1",
         "--lambda-gamma", "1", "--n", "16"],
    ]
    cli._build_parser.cache_clear()
    results = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        out, err = capsys.readouterr()
        results.append((code, out, err))
    assert cli._build_parser.cache_info().misses == 1
    assert [r[0] for r in results] == [2, 0, 0, 0]
    for argv, result in zip(calls, results):
        assert result == run_cli(*argv), argv


def test_exit_codes():
    code, _, _ = run_cli("classify", "--family", "nosuch")
    assert code == 2
    code, _, _ = run_cli("solve", "--family", "sine-gordon", "--c1", "1")
    assert code == 2  # missing frame
    code, _, _ = run_cli("solve", "--family", "sine-gordon", "--c1", "1",
                         "--lambda-gamma", "-1")
    assert code == 3  # no real solution at c1 = 1 with lambda gamma < 0


SG_KINK = ["--family", "sine-gordon", "--c1", "1"]


def _main_with_config(argv, tmp_path):
    if isinstance(argv[0], dict):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(argv[0]))
        argv = ["--config", str(cfg)]
    return main(argv)


@pytest.mark.parametrize("argv", [
    ["sample", "--family", "liouville", "--c1", "1", "--lambda-gamma", "nan"],
    ["verify", "--family", "tzitzeica", "--c1", "1", "--lambda", "1",
     "--k", "inf", "--omega", "1"],
    ["solve", "--family", "sine-gordon", "--c1", "inf", "--lambda-gamma", "1"],
    ["solve", "--family", "tzitzeica", "--c1", "-1.5", "--lambda-gamma", "inf"],
    ["verify", *SG_KINK, "--lambda-gamma", "1", "--xi-min", "5",
     "--xi-max", "-5"],
    ["sample", *SG_KINK, "--lambda-gamma", "1", "--xi-min", "5",
     "--xi-max", "-5"],
    ["sample", *SG_KINK, "--lambda-gamma", "1", "--xi-min", "1",
     "--xi-max", "1"],
    # lambda*gamma outside the float range: r = 1/(lambda gamma) unusable
    ["solve", "--family", "liouville", "--c1", "1", "--lambda", "1",
     "--k", "0", "--omega", "1e200"],
    ["solve", "--family", "liouville", "--c1", "1", "--lambda", "1e300",
     "--k", "0", "--omega", "1e10"],
    ["sample", "--family", "liouville", "--c1", "1", "--lambda-gamma",
     "1e-320", "--n", "3"],
    # omega^2 underflows: gamma = 0 although k != +/-omega
    ["solve", "--family", "liouville", "--c1", "1", "--lambda", "1",
     "--k", "0", "--omega", "1e-200"],
    # below verify's minimum grid size, no longer raised silently to 16
    ["verify", *SG_KINK, "--lambda-gamma", "1", "--n", "3"],
    # one point is no grid: Grid refuses it for sample and figures alike
    ["sample", *SG_KINK, "--lambda-gamma", "1", "--n", "1"],
    ["figures", "--n", "1"],
    # finite ends whose width xi_max - xi_min overflows
    ["sample", *SG_KINK, "--lambda-gamma", "1", "--n", "3",
     "--xi-min", "-1e308", "--xi-max", "1e308"],
    # config values of the wrong JSON type
    [{"command": "solve", "family": "sine-gordon", "c1": "1",
      "lambda_gamma": 1}],
    [{"command": "sample", "family": "sine-gordon", "c1": 1,
      "lambda_gamma": 1, "n": "5"}],
    [{"command": "solve", "family": "sine-gordon", "c1": True,
      "lambda_gamma": 1}],
    [{"command": "solve", "family": "sine-gordon", "c1": 1,
      "lambda_gamma": 1, "branch": 1.0}],
    # JSON integers that no float holds
    [{"command": "solve", "family": "sine-gordon", "c1": 10 ** 400,
      "lambda_gamma": 1}],
    [{"command": "verify", "family": "sine-gordon", "c1": 1,
      "lambda_gamma": 1, "tol_ode": -10 ** 309}],
])
def test_bad_numeric_input_exits_2(capsys, tmp_path, argv):
    assert _main_with_config(argv, tmp_path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv,message", [
    # five copies of the row at xi = 0 were printed
    (["sample", "--family", "liouville", "--c1", "1", "--lambda-gamma", "1",
      "--xi-min", "0", "--xi-max", "5e-324", "--n", "5"],
     "[0.0, 5e-324] cannot hold n = 5 distinct points: the step 0.0 "
     "is not above 2 ulp of 5e-324"),
    # xi = 1e16 was printed twice
    (["sample", "--family", "liouville", "--c1", "1", "--lambda-gamma", "1",
      "--xi-min", "1e16", "--xi-max", "1.0000000000000004e16", "--n", "5"],
     "[1e+16, 1.0000000000000004e+16] cannot hold n = 5 distinct "
     "points: the step 1.0 is not above 2 ulp of 1.0000000000000004e+16"),
    # points_used read 16 for one point
    (["verify", "--family", "sine-gordon", "--c1", "1", "--lambda-gamma",
      "1", "--xi-min", "0", "--xi-max", "5e-324", "--n", "16"],
     "[0.0, 5e-324] cannot hold n = 16 distinct points: the step 0.0 "
     "is not above 2 ulp of 5e-324"),
    (["figures", "--n", str(10 ** 17)],
     "[-10.0, 10.0] cannot hold n = 100000000000000000 distinct "
     "points: the step 2e-16 is not above 2 ulp of 20.0"),
], ids=["sample-5e-324", "sample-1e16", "verify-5e-324", "figures"])
def test_window_without_distinct_points_exits_2(capsys, tmp_path, argv,
                                                 message):
    assert main([*argv, "--output", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and not (tmp_path / "out").exists()
    assert err.splitlines() == ["config error: " + message]


@pytest.mark.parametrize("args,flag,value,plain", [
    (["solve", "--family", "sine-gordon", "--lambda-gamma", "-1"],
     "--c1", "-1e-1", "-0.1"),
    (["sample", *SG_KINK, "--lambda-gamma", "1", "--n", "11"],
     "--xi-min", "-2E+0", "-2"),
])
def test_negative_value_in_exponent_form(capsys, args, flag, value, plain):
    # argparse alone takes '-1e-1' for an option and exits 2
    outs = []
    for v in (value, plain):
        assert main([*args, flag, v]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv,code,message", [
    # Liouville checks its case like every other family
    (["solve", "--family", "liouville", "--c1", "1", "--lambda-gamma", "1",
      "--case", "lemniscatic"], 3,
     "error: c1=1.0 classifies as LiouvilleSoliton, not Lemniscatic"),
    # the branch range is checked once, after flags and file are merged
    (["solve", "--family", "tzitzeica", "--c1", "1", "--lambda-gamma", "1",
      "--branch", "2"], 2, "config error: branch must be +1 or -1"),
    ([{"command": "solve", "family": "tzitzeica", "c1": 1,
       "lambda_gamma": 1, "branch": 2}], 2,
     "config error: branch must be +1 or -1"),
    # h = e^psi of the unbounded amplitude overflows at xi = 1e300: the
    # refusal names the input
    (["sample", "--family", "sine-gordon", "--c1", "3", "--lambda-gamma", "1",
      "--n", "3", "--xi-min", "-1e300", "--xi-max", "1e300"], 3,
     "error: c1=3.0 and lambda gamma=1.0 put h = e^psi past the float range"),
    # classify itself refuses where c1 - cos psi <= 0 for every psi
    (["classify", "--family", "sine-gordon", "--c1", "-3", "--lambda-gamma",
      "1"], 3, "error: no real solution: r G <= 0 for every psi"),
    # a real solution exists, but none is catalogued
    (["solve", "--family", "sinh-gordon", "--c1", "-2", "--lambda-gamma",
      "1"], 3, "error: no catalogued closed form for sinh-Gordon with "
     "lambda gamma > 0 and c1 < -1/2"),
    # kappa overflows: the lattice period would read 0
    (["sample", "--family", "sinh-gordon", "--c1", "1e308", "--lambda-gamma",
      "1", "--n", "5"], 3, "error: c1=1e+308 and lambda gamma=1.0 put the "
     "rate kappa past the float range"),
    # the rate is finite (it overflowed while lambda gamma entered each rate
    # formula), but the lattice is finer than the stencil's smallest step,
    # so that no grid point's phase, and no oracle, can resolve it
    (["sample", "--family", "liouville", "--c1", "-1e300", "--lambda-gamma",
      "1e-150", "--n", "5"], 3, "error: the period 4.443e-225 is not above "
     "the smallest stencil step 1e-06"),
    (["verify", "--family", "sinh-gordon", "--c1", "1e15", "--lambda-gamma",
      "1e-300", "--n", "16"], 3, "error: the period 8.343e-157 is not above "
     "the smallest stencil step 1e-06"),
    # the sec^2 lattice of period 4.4e-75 (its residual overflowed before
    # the period was refused)
    (["verify", "--family", "liouville", "--c1", "-1e150", "--lambda-gamma",
      "1", "--n", "101"], 3, "error: the period 4.443e-75 is not above the "
     "smallest stencil step 1e-06"),
    # h h'' overflows at the pulse's peak: a NaN residual is refused, not
    # printed (sample) or passed over by max() (verify)
    (["verify", "--family", "liouville", "--c1", "1e150", "--lambda-gamma",
      "1"], 3, "error: c1=1e+150 and lambda gamma=1.0 put the ode_residual "
     "residual past the float range"),
    (["sample", "--family", "liouville", "--c1", "1e300", "--lambda-gamma",
      "1", "--n", "5"], 3, "error: c1=1e+300 and lambda gamma=1.0 put the "
     "ode_residual residual past the float range"),
    # built at lambda gamma = 1 and read at eta = xi / sqrt(1e55): the
    # window lies within 5% of a period (2.2e28) of the pole at 0 (it was
    # refused while the invariants were taken at 1e55 itself)
    (["sample", "--family", "tzitzeica", "--c1", "1", "--lambda-gamma",
      "1e55", "--xi-min", "1", "--xi-max", "2", "--n", "3"], 3,
     "error: ode_residual: exclusions removed every grid point"),
    # g2 and g3 at lambda gamma = 1e-300 are past the float range, and JSON
    # has no inf: solve and classify refuse to print them
    (["solve", "--family", "tzitzeica", "--c1", "1", "--lambda-gamma",
      "1e-300"], 3, "error: c1=1.0 and lambda gamma=1e-300 put the "
     "Weierstrass invariants past the float range"),
    (["classify", "--family", "tzitzeica", "--c1", "1", "--lambda-gamma",
      "1e-60"], 3, "error: c1=1.0 and lambda gamma=1e-60 put the "
     "Weierstrass invariants past the float range"),
    # h = e^psi overflows inside an ordinary window at lambda gamma < 0
    (["sample", "--family", "sine-gordon", "--c1", "-3", "--lambda-gamma",
      "-1", "--xi-min", "0", "--xi-max", "1000", "--n", "3"], 3,
     "error: c1=-3.0 and lambda gamma=-1.0 put h = e^psi past the float "
     "range"),
])
def test_exit_code_and_message(capsys, tmp_path, argv, code, message):
    assert _main_with_config(argv, tmp_path) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [message]


def test_weierstrass_route_past_sinh_overflow(capsys):
    # at c1 = -3/2 the general Weierstrass form, built from the roots of
    # its own cubic in h, meets its double root: sn runs at m = 1, where
    # cosh overflows on this window; it prints the limit h = 1, as the
    # elementary csch^2 companion of the same function does
    argv = ["sample", "--family", "tzitzeica", "--c1", "-1.5",
            "--lambda-gamma", "1", "--xi-min", "900", "--xi-max", "1000",
            "--n", "5"]
    assert main(argv + ["--case", "general-weierstrass"]) == 0
    weierstrass = capsys.readouterr().out
    assert main(argv + ["--branch", "-1"]) == 0
    assert weierstrass == capsys.readouterr().out
    assert weierstrass.splitlines()[1:] == [
        f"{xi},1,0,0" for xi in (900, 925, 950, 975, 1000)]


@pytest.mark.parametrize("source", ["flag", "file"])
@pytest.mark.parametrize("key, value", [
    ("tol_ode", math.nan), ("tol_ode", -1e-8), ("tol_ode", 0.0),
    ("tol_ode", math.inf), ("tol_first_integral", -0.0),
    ("tol_shoot", math.nan), ("tol_pde", -1.0), ("tol_implicit", math.inf)])
def test_tolerance_must_be_finite_and_positive(capsys, tmp_path, key, value,
                                               source):
    # a NaN tolerance printed "tolerance": NaN (not JSON), a zero or
    # negative one failed a correct closed form, and inf passed anything
    job = {"command": "verify", "family": "liouville", "c1": 1,
           "lambda_gamma": 1, "n": 16}
    if source == "file":
        argv = [{**job, key: value}]
    else:
        argv = ["verify", "--family", "liouville", "--c1", "1",
                "--lambda-gamma", "1", "--n", "16",
                "--" + key.replace("_", "-"), repr(value)]
    assert _main_with_config(argv, tmp_path) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"config error: {key} must be finite and > 0, not {value!r}"]
    # the same job with the default tolerances passes
    assert _main_with_config([job], tmp_path) == 0


@pytest.mark.parametrize("family,c1,lg", [
    # pi plus the amplitude form at (-c1, -lambda gamma)
    ("sine-gordon", "0.5", "1"), ("sine-gordon", "0", "1"),
    ("sine-gordon", "-0.5", "1"), ("sine-gordon", "0.999", "1"),
    # the lemniscatic c1 of each cubic image where its base lambda gamma
    # is negative: the general Weierstrass form
    ("tzitzeica", repr(C1_LEMNISCATIC), "-1"),
    ("dodd-bullough-mikhailov", repr(C1_LEMNISCATIC), "-1"),
    ("dodd-bullough", repr(-C1_LEMNISCATIC), "1"),
    ("tzitzeica-dodd-bullough", repr(-C1_LEMNISCATIC), "1"),
])
def test_verify_pi_shift_and_lemniscatic_images(capsys, family, c1, lg):
    assert main(["verify", "--family", family, "--c1", c1,
                 "--lambda-gamma", lg]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 4 and all(r["pass"] for r in reports)


def test_unwritable_output_exits_2(capsys, tmp_path):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    assert main(["figures", "--n", "3", "--output", str(afile)]) == 2
    adir = tmp_path / "adir"
    adir.mkdir()
    assert main(["sample", *SG_KINK, "--lambda-gamma", "1", "--n", "3",
                 "--output", str(adir)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line.split(":")[0] for line in err.splitlines()] == [
        "config error", "config error"]
    assert afile.read_text() == "kept\n"
    assert list(adir.iterdir()) == []  # no temporary file left behind


@pytest.mark.parametrize("family,lg,reason", [
    ("tzitzeica", "-1", "this implicit form needs lambda gamma > 0"),
    ("dodd-bullough", "1", "this implicit form needs lambda gamma < 0"),
    ("sine-gordon", "-1",
     "no real implicit hypergeometric form for SineGordon"),
])
def test_verify_c1_zero_without_real_implicit_form(capsys, family, lg, reason):
    # implicit_relation decides that no real 2F1 form exists for this family
    # or sign; the other four oracles still run, and a note names the skip
    assert main(["verify", "--family", family, "--c1", "0",
                 "--lambda-gamma", lg, "--n", "101"]) == 0
    out, err = capsys.readouterr()
    reports = json.loads(out)
    assert [r["oracle"] for r in reports] == [
        "ode_residual", "first_integral_residual", "shoot_and_compare",
        "pde_residual"]
    assert all(r["pass"] for r in reports)
    assert err.splitlines() == [
        f"note: implicit_residual_check skipped: {reason}"]


def test_verify_notes_skipped_pde_oracle(capsys):
    # the branch -1 exp kink is valid only for xi > 0; the PDE windows sit
    # on verify's own grid, so all four oracles run there
    assert main(["verify", "--family", "sinh-gordon", "--c1", "-0.5",
                 "--lambda-gamma", "1", "--branch", "-1"]) == 0
    out, err = capsys.readouterr()
    reports = json.loads(out)
    assert [r["oracle"] for r in reports] == [
        "ode_residual", "first_integral_residual", "shoot_and_compare",
        "pde_residual"]
    assert all(r["pass"] for r in reports)
    assert err == ""
    # far out on a tail h underflows to 0.0 at every point: h = 0 solves the
    # traveling ODE and its first integral trivially, and log|h| is
    # undefined, so the three grid oracles are skipped with a note each;
    # shooting runs on its own window.  At c1 = 0 Liouville has no 2F1 form
    grid_notes = [
        "note: ode_residual skipped: h is zero at every grid point",
        "note: first_integral_residual skipped: h is zero at every grid "
        "point",
        "note: pde_residual skipped: h is zero or changes sign in every "
        "window"]
    for c1, xi_min, xi_max, more in [
            ("1", "10000", "10001", []),
            ("0", "1e200", "2e200", [
                "note: implicit_residual_check skipped: no real implicit "
                "hypergeometric form for Liouville"])]:
        assert main(["verify", "--family", "liouville", "--c1", c1,
                     "--lambda-gamma", "1", "--xi-min", xi_min,
                     "--xi-max", xi_max]) == 0
        out, err = capsys.readouterr()
        assert [r["oracle"] for r in json.loads(out)] == ["shoot_and_compare"]
        assert err.splitlines() == grid_notes + more


def test_verify_names_the_half_magnitude_skip(capsys):
    # at c1 = 3e12 h < 0 throughout, but the period is 3.7e-5, so h leaves
    # half its centre's magnitude within every Goursat window: the note
    # names that rule, not a zero or a sign change.  (At c1 = 1e15 the
    # shooting oracle now refuses a start that its stencil cannot read,
    # before the PDE oracle runs.)
    assert main(["verify", "--family", "dodd-bullough", "--c1", "3e12",
                 "--lambda-gamma", "1", "--n", "16"]) == 1
    out, err = capsys.readouterr()
    assert "pde_residual" not in [r["oracle"] for r in json.loads(out)]
    assert err.splitlines() == [
        "note: pde_residual skipped: h drops below half its centre's "
        "magnitude in every window"]


def test_verify_off_domain_interval_exits_3():
    # valid only for xi < 0: no grid point survives, which is an error,
    # not three skipped oracles beside a passing shot
    code, out, err = run_cli("verify", "--family", "sinh-gordon", "--c1",
                             "-0.5", "--lambda-gamma", "1", "--branch", "1",
                             "--xi-min", "1", "--xi-max", "2")
    assert code == 3
    assert out == ""
    assert err == "error: ode_residual: exclusions removed every grid point\n"


@pytest.mark.parametrize("args", [
    ["--family", "sinh-gordon", "--c1", "-0.5", "--lambda-gamma", "1",
     "--branch", "1", "--xi-min", "1", "--xi-max", "2"],
    # the pole pad of a lattice of period ~ 1e2 covers all five points
    ["--family", "tzitzeica", "--c1", "1", "--lambda-gamma", "1e4", "--n",
     "5"],
])
def test_sample_off_domain_interval_exits_3(capsys, args):
    # no grid point survives: sample refuses it as verify does, where it
    # printed the header alone
    assert main(["sample", *args]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ode_residual: exclusions removed every grid point\n"


def test_verify_shoots_within_budget_near_lambda_gamma_half():
    # the Tzitzeica dark soliton at lambda gamma ~ 0.5018 missed 1e-6 by
    # 2% while the local tolerance was 1e-10; it reads ~7e-11 now
    code, out, _ = run_cli("verify", "--family", "tzitzeica", "--c1", "-1.5",
                           "--branch", "1",
                           "--lambda-gamma", "0.5017949152444992")
    assert code == 0
    reports = {r["oracle"]: r for r in json.loads(out)}
    assert len(reports) == 4 and all(r["pass"] for r in reports.values())
    assert reports["shoot_and_compare"]["max_residual"] <= 1e-7


@pytest.mark.parametrize("args", [
    # the exp kink at small lambda gamma: its shooting window amplifies
    # errors by about e^(5 sqrt(2/lambda gamma)) ~ 3e8
    ["--family", "sinh-gordon", "--c1", "-0.5", "--lambda-gamma",
     "0.13145345140087247", "--branch", "-1", "--xi0", "-1.969473482026236"],
    # the Liouville soliton at kappa = 2.64, about e^13.2 ~ 5e5 over the
    # span of 5, which unsegmented read 1.2e-3
    ["--family", "liouville", "--c1", "-2.854", "--lambda-gamma", "-0.205",
     "--branch", "-1", "--xi0", "-0.2253"],
])
def test_verify_shoots_an_amplifying_window(capsys, args):
    assert main(["verify", *args]) == 0
    reports = {r["oracle"]: r for r in json.loads(capsys.readouterr().out)}
    assert all(r["pass"] for r in reports.values())
    assert reports["shoot_and_compare"]["max_residual"] <= 1e-8


def test_verify_shoots_past_a_blow_up_of_the_unsegmented_trajectory(capsys):
    # the Liouville soliton at kappa = 5.62 amplifies by about e^28 over
    # the span of 5, and unsegmented its trajectory collapsed the step (exit
    # 3).  Shooting now passes; the ODE and first-integral oracles still
    # fail this correct form in the small-|lambda gamma| band, which the
    # Taylor jets of ROADMAP item 3 are to mend
    assert main(["verify", "--family", "liouville", "--c1", "-1.712",
                 "--lambda-gamma", "-0.0271", "--xi0", "-1.037"]) == 1
    out, err = capsys.readouterr()
    reports = {r["oracle"]: r for r in json.loads(out)}
    assert sorted(o for o, r in reports.items() if not r["pass"]) == [
        "first_integral_residual", "ode_residual"]
    assert reports["shoot_and_compare"]["max_residual"] <= 1e-8
    assert err.splitlines() == [
        "note: pde_residual skipped: h drops below half its centre's "
        "magnitude in every window"]


@pytest.mark.parametrize("kind,args", [
    ("isolated", ["--family", "liouville", "--c1", "0"]),
    ("isolated", ["--family", "tzitzeica", "--c1", "-1.5", "--branch", "-1"]),
    ("half_line", ["--family", "sinh-gordon", "--c1", "-0.5"]),
    ("lattice_windows", ["--family", "sinh-gordon", "--c1", "0.5"]),
    ("none", ["--family", "sine-gordon", "--c1", "1"]),
])
def test_verify_shoots_each_singular_kind(capsys, kind, args):
    args = [*args, "--lambda-gamma", "1"]
    assert main(["solve", *args]) == 0
    desc = json.loads(capsys.readouterr().out)
    assert desc["singularities"]["kind"] == kind
    assert main(["verify", *args, "--n", "101"]) == 0
    reports = {r["oracle"]: r for r in json.loads(capsys.readouterr().out)}
    assert reports["shoot_and_compare"]["pass"]


def test_liouville_branch_minus_one(capsys):
    base = ["--family", "liouville", "--c1", "1", "--lambda-gamma", "1"]
    assert main(["solve", *base, "--branch", "-1"]) == 0
    desc = json.loads(capsys.readouterr().out)
    assert desc["branch"] == -1
    assert from_descriptor(desc).descriptor() == desc
    samples = []
    for branch in ("1", "-1"):
        assert main(["sample", *base, "--branch", branch, "--n", "101"]) == 0
        samples.append(capsys.readouterr().out)
    assert samples[0] == samples[1]


def test_figures(tmp_path):
    outdir = tmp_path / "figs"
    assert main(["figures", "--output", str(outdir), "--n", "101"]) == 0
    names = sorted(p.name for p in outdir.iterdir())
    assert "fig1_liouville.csv" in names
    assert "fig7_sinh_amplitude.csv" in names
    assert "figures_params.json" in names
    assert len([n for n in names if n.endswith(".csv")]) == 7
    sidecar = json.loads((outdir / "figures_params.json").read_text())
    assert len(sidecar) == 7
    for curves in sidecar.values():
        for c in curves:
            assert {"c1", "lambda_gamma", "xi0", "branch", "case",
                    "curve"} <= set(c)
    # reproducible bytes
    outdir2 = tmp_path / "figs2"
    assert main(["figures", "--output", str(outdir2), "--n", "101"]) == 0
    for name in names:
        if name.endswith(".csv"):
            assert (outdir / name).read_bytes() == (outdir2 / name).read_bytes()
    # dark soliton column tends to 1 far out
    lines = (outdir / "fig2_tzitzeica_degenerate.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    idx = header.index("dark_soliton")
    last = lines[-1].split(",")
    assert float(last[idx]) == pytest.approx(1.0, abs=1e-6)


def test_figures_honours_n(tmp_path):
    outdir = tmp_path / "figs"
    assert main(["figures", "--output", str(outdir), "--n", "3"]) == 0
    csvs = sorted(outdir.glob("*.csv"))
    assert len(csvs) == 7
    for path in csvs:
        assert len(path.read_text().splitlines()) == 4
    assert main(["figures", "--output", str(tmp_path / "none"), "--n", "1"]) == 2
    assert not (tmp_path / "none").exists()


def test_figures_and_sample_share_one_grid(capsys, tmp_path):
    # each figure column is non-blank exactly at the xi that sample emits
    assert main(["figures", "--n", "401", "--output", str(tmp_path)]) == 0
    capsys.readouterr()
    curves = [(name, fam, curve) for name, fam, rows in cli._FIGURES
              for curve in rows]
    assert len(curves) == 19
    for name, fam, (label, c1, lg, branch, _) in curves:
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()
        col = rows[0].split(",").index(label)
        drawn = [r.split(",")[0] for r in rows[1:] if r.split(",")[col]]
        assert main(["sample", "--family", fam.value, "--c1", repr(c1),
                     "--lambda-gamma", repr(lg), "--branch", str(branch),
                     "--n", "401"]) == 0
        sampled = [r.split(",")[0]
                   for r in capsys.readouterr().out.splitlines()[1:]]
        assert drawn == sampled, (name, label)


def test_sampling_needs_no_exclusion_intervals(monkeypatch, capsys, tmp_path):
    # Singularities.keeps is the one sampling rule: nothing that samples xi
    # builds the interval list
    def refuse(*args):
        raise AssertionError("exclusions called")

    monkeypatch.setattr(Singularities, "exclusions", refuse)
    lattice = ["--family", "tzitzeica", "--c1", "1", "--lambda-gamma", "1"]
    half_line = ["--family", "sinh-gordon", "--c1", "-0.5", "--lambda-gamma", "1"]
    assert main(["sample", *lattice, "--n", "101"]) == 0
    assert main(["sample", *half_line, "--n", "101"]) == 0
    assert main(["verify", *lattice, "--n", "101"]) == 0
    assert main(["verify", *half_line, "--n", "101"]) == 0
    assert main(["figures", "--n", "101", "--output", str(tmp_path)]) == 0


#: the robustness sweep: special, tiny, huge and overflowing constants
ROBUST_C1 = (0.0, 5e-324, 1e-15, -1e-15, -1.5, 0.5000000000001, 3e4, -3e4,
             1e15, 1e300, -1e300)
ROBUST_LG = (1.0, -1.0, 1e-150, -1e150, 1e300, 1e-300, 3e-308, 3e102,
             1.7e308)
#: solve runs before any verify, so an input that raises fails the sweep
#: before the slowest verify calls
ROBUST_COMMANDS = (["classify"], ["solve"], ["sample", "--n", "5"],
                   ["verify", "--n", "16"])


@pytest.mark.parametrize("family, c1, lg", [
    ("tzitzeica", "1e15", "1"), ("dodd-bullough", "-1e15", "-1"),
    ("tzitzeica-dodd-bullough", "-1e15", "-1"),
    ("dodd-bullough-mikhailov", "1e15", "1"),
    ("sine-gordon", "0", "3e-308")])
def test_verify_shooting_gives_up_in_bounded_work(monkeypatch, capsys,
                                                  family, c1, lg):
    # the cubic families at the base constants c1 = 1e15, lambda gamma = 1
    # (Dodd-Bullough and TDB at their images (-c1, -lambda gamma)) shoot
    # from h = -1e15 across a climb of some 23 decades in 1.6e-6 and
    # collapse the step; sine-Gordon at lambda gamma = 3e-308 raises math's
    # domain error in its stages, which rejects the steps until they
    # collapse.  Each exits 3 with one line, after at most RK_MAX_STEPS
    # steps of 12 calls
    import expwave.verify as verify

    calls = [0]
    integrate = verify.rk_integrate

    def counted(acc, *args, **kwargs):
        def counted_acc(y):
            calls[0] += 1
            return acc(y)
        return integrate(counted_acc, *args, **kwargs)

    monkeypatch.setattr(verify, "rk_integrate", counted)
    code = main(["verify", "--family", family, "--c1", c1,
                 "--lambda-gamma", lg, "--n", "16"])
    _, err = capsys.readouterr()
    assert code == 3
    assert len(err.splitlines()) == 1, err
    assert err.startswith("error: step ")
    assert 0 < calls[0] <= 12 * verify.RK_MAX_STEPS


def test_cli_robustness_sweep(capsys):
    # bad input gets exit code 2 or 3 and a one-line message, never a
    # traceback: 7 families x 11 c1 x 9 lambda gamma x 4 commands
    families = [f for f in FamilyLabel
                if f is not FamilyLabel.GenericTwoExponential]
    calls = 0
    for command, *extra in ROBUST_COMMANDS:
        for family in families:
            for c1 in ROBUST_C1:
                for lg in ROBUST_LG:
                    argv = [command, "--family", family.value, "--c1",
                            repr(c1), "--lambda-gamma", repr(lg), *extra]
                    try:
                        code = main(argv)
                    except Exception as e:
                        pytest.fail(f"{' '.join(argv)}: {type(e).__name__}: "
                                    f"{e}")
                    out, err = capsys.readouterr()
                    assert code in (0, 1, 2, 3), argv
                    # no NaN or inf residual is printed, nor passed over
                    assert "nan" not in out.lower(), argv
                    assert "inf" not in out.lower(), argv
                    if code >= 2:
                        lines = [line for line in err.splitlines()
                                 if not line.startswith("note: ")]
                        assert len(lines) == 1, (argv, err)
                    calls += 1
    assert calls == 2772


def test_sample_at_large_c1_is_not_a_constant(capsys):
    # the Weierstrass form built from p fell into p's degenerate snap band
    # from |c1| ~ 2.4e4 on, and this printed h = 8.276e-10 and an
    # ode_residual of 1 on every row with exit 0; built from the roots of
    # the cubic in h it is even about xi0 and takes a value per row
    code = main(["sample", "--family", "tzitzeica", "--c1", "3e4",
                 "--lambda-gamma", "1", "--n", "5"])
    out, _ = capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    h = {float(xi): float(hv) for xi, hv, _, _ in rows}
    assert sorted(h) == [-10.0, -5.0, 5.0, 10.0]  # xi = 0 is a pole
    assert h[-10.0] == h[10.0] != h[5.0] == h[-5.0]
    assert max(float(res) for *_, res in rows) < 1e-3
    sol = construct(FamilyLabel.Tzitzeica, 3e4, FrameParams.from_lambda_gamma(1.0))
    # a 60-digit reference reads 30.972260751188825; the phase kappa xi ~
    # 1.2e3 is rounded to a few eps, so h carries ~1e-12 of it
    assert h[5.0] == sol.evaluate_h(5.0) == pytest.approx(30.972260751188825,
                                                          rel=1e-11)


@pytest.mark.parametrize("c1", ["3e4", "-3e4", "1e5", "-1e5", "1e6", "-1e6"])
@pytest.mark.parametrize("family", ["tzitzeica", "dodd-bullough",
                                    "tzitzeica-dodd-bullough",
                                    "dodd-bullough-mikhailov"])
def test_verify_at_large_c1_ends_in_a_verdict_or_one_line(capsys, family, c1):
    # at |c1| >= 3e4 the forms vary on a scale 1/sqrt(2 |c1|) of the window
    # and the oracles' differences no longer resolve them, so verify may
    # report a failing oracle (exit 1); it never passes a wrong h, never
    # raises, and a refusal is one line
    code = main(["verify", "--family", family, "--c1", c1,
                 "--lambda-gamma", "1", "--n", "16"])
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == 3:
        assert len(err.splitlines()) == 1, err
        return
    reports = json.loads(out)
    assert code == (0 if all(r["pass"] for r in reports) else 1)
