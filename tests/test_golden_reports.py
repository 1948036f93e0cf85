"""Byte-level golden reports for the piecewise (min/max) traffic4 system.

traffic4 has min-guards that tie on a few percent of the grid points, so
these reports pin the tie handling end to end: the tied-point counts, the
witness (point and component) of checks whose worst value sits on a tie,
and the LP built from every tied branch.  The goldens were written by the
command line itself; to regenerate one, run its command with ``--out DIR``
and copy the report over the golden.
"""

from pathlib import Path

import pytest

from conftest import CORPUS
from monocert.cli import EXIT_FAIL, main

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
}


@pytest.mark.parametrize("golden", sorted(CASES))
def test_piecewise_report_matches_golden(golden, tmp_path):
    argv, report, code = CASES[golden]
    assert main(argv + ["--quiet", "--out", str(tmp_path)]) == code
    assert (tmp_path / report).read_bytes() == (GOLDEN / golden).read_bytes()
