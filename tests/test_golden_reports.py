"""Byte-level golden reports, written by the command line itself.

traffic4 has min-guards that tie on a few percent of the grid points, so
its reports pin the tie handling end to end: the tied-point counts, the
witness (point and component) of checks whose worst value sits on a tie,
and the LP built from every tied branch.  The two other synth reports pin
both synthesis modes: constant weights (multiagent, max) and a polynomial
family (ex1, poly-max at degree 2).  The ex1 certify report pins a
run with two weight families, whose five checks share one grid pass.
The simulate, contract and entrain goldens pin the RK4 integrator bit for
bit: every state is printed with 17 significant digits, and the reports
carry step errors, fitted rates and spreads.
To regenerate a golden, run its command with ``--out DIR`` and copy the
report (for a golden directory, every file written) over the golden.
"""

from pathlib import Path

import pytest

from conftest import CORPUS
from monocert.cli import EXIT_FAIL, EXIT_PASS, main

GOLDEN = Path(__file__).resolve().parent / "golden"

# golden file -> (argv, report file written by the command, exit code)
CASES = {
    "certify-traffic4-theta-r9.json": (
        ["certify", "traffic4", "--theta", str(CORPUS / "traffic4.v.json"),
         "--resolution", "9"], "certify-report.json", EXIT_FAIL),
    # thm2, cor2 and cor3-linf have their witness at the tie x4 = 1
    "certify-traffic4-omega-r7.json": (
        ["certify", "traffic4", "--omega", str(GOLDEN / "traffic4.w.json"),
         "--resolution", "7"], "certify-report.json", EXIT_FAIL),
    "synth-traffic4-sum.json": (
        ["synth", "traffic4", "--mode", "sum"], "synth-report.json",
        EXIT_FAIL),
    # constant weights, certified post hoc by cor2
    "synth-multiagent-max.json": (
        ["synth", "multiagent", "--mode", "max"], "synth-report.json",
        EXIT_PASS),
    # a degree-2 family, certified post hoc by thm2, left unnormalised
    # because its leading coefficient is negative
    "synth-ex1-poly-max-d2.json": (
        ["synth", "ex1", "--mode", "poly-max", "--degree", "2", "--box",
         "0:3,0:3"], "synth-report.json", EXIT_PASS),
}
MULTI_FAMILY_CASES = {
    "certify-ex1-theta-omega-r201.json": (
        ["certify", "ex1", "--theta", str(CORPUS / "ex1.theta.json"),
         "--omega", str(CORPUS / "ex1.omega.json"), "--box", "0:3,0:3",
         "--resolution", "201"], "certify-report.json", EXIT_PASS),
}

# golden directory -> (argv, exit code); it holds every file the command
# writes
VALIDATION_CASES = {
    "simulate-ex1-theta": (
        ["simulate", "ex1", "--x0", "2,1", "--random", "2", "--box",
         "0:3,0:3", "--theta", str(CORPUS / "ex1.theta.json"), "--t-end",
         "0.5", "--dt", "0.01", "--seed", "1"], EXIT_PASS),
    "contract-linear_sym-seed1": (
        ["contract", "linear_sym", "--theta",
         str(CORPUS / "linear_sym.theta.json"), "--seed", "1"], EXIT_PASS),
    "entrain-cubic-p3": (
        ["entrain", "entrain_cubic", "--x0-set=-2;0;2", "--periods", "3"],
        EXIT_PASS),
}


def _assert_matches_golden(golden, case, tmp_path):
    argv, report, code = case
    assert main(argv + ["--quiet", "--out", str(tmp_path)]) == code
    assert (tmp_path / report).read_bytes() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("golden", sorted(CASES))
def test_piecewise_report_matches_golden(golden, tmp_path):
    _assert_matches_golden(golden, CASES[golden], tmp_path)


@pytest.mark.parametrize("golden", sorted(MULTI_FAMILY_CASES))
def test_multi_family_report_matches_golden(golden, tmp_path):
    _assert_matches_golden(golden, MULTI_FAMILY_CASES[golden], tmp_path)


@pytest.mark.parametrize("golden", sorted(VALIDATION_CASES))
def test_validation_output_matches_golden(golden, tmp_path):
    argv, code = VALIDATION_CASES[golden]
    assert main(argv + ["--quiet", "--out", str(tmp_path)]) == code
    names = sorted(p.name for p in (GOLDEN / golden).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        got = (tmp_path / name).read_bytes()
        assert got == (GOLDEN / golden / name).read_bytes(), name
