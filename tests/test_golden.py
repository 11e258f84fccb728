"""Byte-for-byte golden outputs of the command line.

``golden/cli.json`` holds the exit code and stdout of ``sample`` and
``solve`` for every figure curve and six Dodd-Bullough, TDB and DBM
images of the Tzitzeica curves, each on a ``--lambda-gamma`` frame
(k = 0) and on a k != 0 frame with the same lambda*gamma, plus eleven
``verify`` runs, whose stderr (one note per skipped oracle) it holds too,
and four records off |lambda gamma| = 1 and xi0 = 0 (OFF_UNIT).
``golden/figures_n101`` holds the directory written by
``figures --n 101``.  Rewrite both, only when a change of output is
intended, with

    PYTHONPATH=src python tests/test_golden.py

which prints the argv of every record, and the name of every figure
file, whose bytes changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from expwave import cli
from expwave.reduction import C1_LEMNISCATIC, FamilyLabel

GOLDEN = Path(__file__).with_name("golden")
CLI_GOLDEN = GOLDEN / "cli.json"
FIGURES_GOLDEN = GOLDEN / "figures_n101"
FIGURES_ARGV = ["figures", "--n", "101"]

#: (family, c1, lambda gamma, branch): Dodd-Bullough and TDB images sit at
#: (-c1, -lambda gamma) of a Tzitzeica curve, DBM images at the same point.
MAPPED = [
    (FamilyLabel.DoddBullough, 1.5, -1.0, 1),
    (FamilyLabel.DoddBullough, 0.0, -1.0, 1),
    (FamilyLabel.TzitzeicaDoddBullough, 1.5, 1.0, -1),
    (FamilyLabel.TzitzeicaDoddBullough, -1.0, -1.0, 1),
    (FamilyLabel.DoddBulloughMikhailov, C1_LEMNISCATIC, 1.0, 1),
    (FamilyLabel.DoddBulloughMikhailov, -1.5, 1.0, -1),
]

VERIFY = [
    ["--family", "tzitzeica", "--c1", "1.0", "--lambda", repr(1.0 / 3.0),
     "--k", "1", "--omega", "2"],
    ["--family", "dodd-bullough", "--c1", "0.0", "--lambda-gamma", "-1.0"],
    ["--family", "sine-gordon", "--c1", "0.0", "--lambda-gamma", "-1.0"],
    ["--family", "sinh-gordon", "--c1", "0.0", "--lambda", repr(1.0 / 3.0),
     "--k", "1", "--omega", "2"],
    # one record per singular kind, and two families whose h goes negative
    ["--family", "liouville", "--c1", "1.0", "--lambda-gamma", "1.0"],
    ["--family", "liouville", "--c1", "-1.0", "--lambda", repr(1.0 / 3.0),
     "--k", "1", "--omega", "2"],
    ["--family", "tzitzeica", "--c1", "-1.5", "--branch", "-1",
     "--lambda-gamma", "1.0"],
    ["--family", "tzitzeica-dodd-bullough", "--c1", "-1.0", "--lambda",
     repr(-1.0 / 3.0), "--k", "1", "--omega", "2"],
    ["--family", "dodd-bullough-mikhailov", "--c1", "-1.5", "--branch", "-1",
     "--lambda-gamma", "1.0"],
    ["--family", "sinh-gordon", "--c1", "-0.5", "--lambda-gamma", "1.0"],
    ["--family", "sinh-gordon", "--c1", "0.5", "--lambda", repr(1.0 / 3.0),
     "--k", "1", "--omega", "2"],
]


#: sample and verify records at |lambda gamma| != 1 and xi0 != 0, where
#: the digits depend on how lambda gamma enters the closed forms
OFF_UNIT = [
    ["sample", "--family", "tzitzeica", "--c1", "1.0", "--lambda-gamma",
     "-0.37", "--xi0", "0.6", "--n", "101"],
    ["sample", "--family", "dodd-bullough-mikhailov", "--c1", "1.0",
     "--lambda-gamma", "2.9", "--xi0", "-0.6", "--n", "101"],
    ["verify", "--family", "sine-gordon", "--c1", "-3.0", "--lambda-gamma",
     "-2.9", "--xi0", "0.6", "--n", "101"],
    ["verify", "--family", "sinh-gordon", "--c1", "-1.0", "--lambda-gamma",
     "-0.37", "--xi0", "0.6", "--n", "101"],
]


def _frames(lg: float) -> list[list[str]]:
    # lam * (omega^2 - k^2) = (lg / 3) * 3 == lg exactly for lg = +/-1
    return [["--lambda-gamma", repr(lg)],
            ["--lambda", repr(lg / 3.0), "--k", "1", "--omega", "2"]]


def golden_argvs() -> list[list[str]]:
    curves = [(fam, c1, lg, branch)
              for _, fam, rows in cli._FIGURES
              for _, c1, lg, branch, _ in rows] + MAPPED
    argvs = []
    for fam, c1, lg, branch in curves:
        for frame in _frames(lg):
            case = ["--family", fam.value, "--c1", repr(c1),
                    "--branch", str(branch)] + frame
            argvs.append(["sample"] + case + ["--n", "101"])
            argvs.append(["solve"] + case)
    argvs += [["verify"] + args + ["--n", "101"] for args in VERIFY]
    return argvs + OFF_UNIT


def run_main(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    record = {"argv": argv, "exit": code, "stdout": out.getvalue()}
    if argv[0] == "verify":
        # a lost or an extra skip note changes the record
        record["stderr"] = err.getvalue()
    return record


@pytest.fixture(scope="module")
def golden() -> dict:
    records = json.loads(CLI_GOLDEN.read_text())
    return {tuple(r["argv"]): r for r in records}


@pytest.mark.parametrize("argv", golden_argvs(),
                         ids=" ".join)
def test_cli_output_matches_golden(golden, argv):
    assert run_main(argv) == golden[tuple(argv)]


def test_figures_match_golden(tmp_path):
    run_main(FIGURES_ARGV + ["--output", str(tmp_path)])
    names = sorted(p.name for p in FIGURES_GOLDEN.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == \
            (FIGURES_GOLDEN / name).read_bytes(), name


def _read_dir(path: Path) -> dict[str, bytes]:
    return ({p.name: p.read_bytes() for p in path.iterdir()}
            if path.is_dir() else {})


def write_golden() -> list[str]:
    """Rewrite the goldens; return the argv of every record and the name
    of every figure file whose bytes changed (added and removed ones
    included)."""
    old = json.loads(CLI_GOLDEN.read_text()) if CLI_GOLDEN.exists() else []
    old_records = {tuple(r["argv"]): r for r in old}
    old_figures = _read_dir(FIGURES_GOLDEN)
    GOLDEN.mkdir(exist_ok=True)
    records = [run_main(argv) for argv in golden_argvs()]
    CLI_GOLDEN.write_text(json.dumps(records, indent=1) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        run_main(FIGURES_ARGV + ["--output", tmp])
        shutil.rmtree(FIGURES_GOLDEN, ignore_errors=True)
        shutil.copytree(tmp, FIGURES_GOLDEN)
    new_figures = _read_dir(FIGURES_GOLDEN)
    changed = [" ".join(r["argv"]) for r in records
               if old_records.pop(tuple(r["argv"]), None) != r]
    changed += [" ".join(argv) for argv in old_records]  # records dropped
    changed += [f"{FIGURES_GOLDEN.name}/{name}"
                for name in sorted(old_figures.keys() | new_figures.keys())
                if old_figures.get(name) != new_figures.get(name)]
    return changed


if __name__ == "__main__":
    changed = write_golden()
    sys.stdout.write(f"wrote {CLI_GOLDEN} and {FIGURES_GOLDEN}; "
                     f"{len(changed)} changed\n")
    for item in changed:
        sys.stdout.write(f"changed: {item}\n")
