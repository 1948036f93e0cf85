"""Byte-level golden reports, written by the command line itself.

traffic4 has min-guards that tie on a few percent of the grid points, so
its reports pin the tie handling end to end: the tied-point counts, the
witness (point and component) of checks whose worst value sits on a tie,
and the LP built from every tied branch.  The two other synth reports pin
both synthesis modes: constant weights (multiagent, max) and a polynomial
family (ex1, poly-max at degree 2); they are also run in fresh
interpreters under four OpenBLAS kernels, which OpenBLAS picks by CPU.
The ex1 certify report pins a
run with two weight families, whose five checks share one grid pass.
The comparison and multiagent certify reports pin the guard-free scan on
exp terms and on n = 3: a constant theta (so cor1 runs too), a Kamke
worst value of -0.0 tied between components, and (multiagent, linear
with constant weights) sum and max checks whose worst value is attained at
every grid point, so that the witness is the first one.
The simulate, contract and entrain goldens pin the RK4 integrator bit for
bit: every state is printed with 17 significant digits, and the reports
carry step errors, fitted rates and spreads.
The export-sos goldens pin the SOS program byte for byte: the .dat-s file
and its JSON sidecar.  Two of them are systems written here, with nonzero
equilibria, a half-bounded and an unbounded axis, since the corpus
equilibria are all 0 and that hides the order in which the equilibrium
rows are summed; in one, a sum that is not exact changes the bytes.
To regenerate a golden, run its command with ``--out DIR`` and copy the
report (for a golden directory, every file written) over the golden.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:   # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

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
    "certify-multiagent-v-w-r41.json": (
        ["certify", "multiagent", "--theta", str(CORPUS / "multiagent.v.json"),
         "--omega", str(CORPUS / "multiagent.w.json"), "--resolution", "41"],
        "certify-report.json", EXIT_PASS),
}
SMOOTH_CASES = {
    "certify-comparison-v-r201.json": (
        ["certify", "comparison", "--theta",
         str(CORPUS / "comparison.v.json"), "--box", "0:2,0:2",
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

# a polynomial system with equilibrium (1.5, 0.7), x1 half-bounded and x2
# unbounded
SHIFTED_SYS = """
system shifted {
  states x1 in [1, inf), x2 in (-inf, inf)
  dx1 = -0.7*x1 + 1.05 + 0.3*(x2 - 0.7)^2 + 0.2*x1*(x2 - 0.7)
  dx2 = 0.77 - 1.1*x2 - 0.2*(x2 - 0.7)^3 + 0.1*x1*(x2 - 0.7)
  equilibrium (1.5, 0.7)
}
"""

# equilibrium (1, 1), where the terms of the Jacobian entry -0.5 + 1e17*x2
# - 1e17*x1 sum to 0 left to right and to -0.5 right to left: the
# equilibrium rows show whether their sums are exact
CANCEL_SYS = """
system cancel {
  states x1 in [1, inf), x2 in (-inf, inf)
  dx1 = 0.5 - 0.5*x1 + 1e17*x1*x2 - 5e16*x1^2 - 5e16*x2^2
  dx2 = x1 - x2
  equilibrium (1, 1)
}
"""
INLINE_SYSTEMS = {"shifted": SHIFTED_SYS, "cancel": CANCEL_SYS}

# golden directory -> (system, export-sos options); the directory holds
# every file the command writes
EXPORT_CASES = {
    "export-sos-ex1-d2-sum-m0": (
        "ex1", ["--degree", "2", "--mode", "sum", "--multiplier-degree", "0"]),
    "export-sos-ex1-d4-max-m2": (
        "ex1", ["--degree", "4", "--mode", "max", "--multiplier-degree", "2"]),
    "export-sos-multiagent-d2-sum-m2": (
        "multiagent", ["--degree", "2", "--mode", "sum",
                       "--multiplier-degree", "2"]),
    "export-sos-shifted-d3-sum-m2": (
        "shifted", ["--degree", "3", "--mode", "sum",
                    "--multiplier-degree", "2", "--eps", "0.05"]),
    "export-sos-cancel-d2-sum-m2": (
        "cancel", ["--degree", "2", "--mode", "sum",
                   "--multiplier-degree", "2"]),
}


def _assert_matches_golden(golden, case, tmp_path):
    argv, report, code = case
    assert main(argv + ["--quiet", "--out", str(tmp_path)]) == code
    assert (tmp_path / report).read_bytes() == (GOLDEN / golden).read_bytes()


def _assert_directory_matches_golden(golden, outdir):
    names = sorted(p.name for p in (GOLDEN / golden).iterdir())
    assert sorted(p.name for p in outdir.iterdir()) == names
    for name in names:
        got = (outdir / name).read_bytes()
        assert got == (GOLDEN / golden / name).read_bytes(), name


@pytest.mark.parametrize("golden", sorted(CASES))
def test_piecewise_report_matches_golden(golden, tmp_path):
    _assert_matches_golden(golden, CASES[golden], tmp_path)


@pytest.mark.parametrize("golden", sorted(MULTI_FAMILY_CASES))
def test_multi_family_report_matches_golden(golden, tmp_path):
    _assert_matches_golden(golden, MULTI_FAMILY_CASES[golden], tmp_path)


@pytest.mark.parametrize("golden", sorted(SMOOTH_CASES))
def test_smooth_report_matches_golden(golden, tmp_path):
    _assert_matches_golden(golden, SMOOTH_CASES[golden], tmp_path)


@pytest.mark.parametrize("golden", sorted(VALIDATION_CASES))
def test_validation_output_matches_golden(golden, tmp_path):
    argv, code = VALIDATION_CASES[golden]
    assert main(argv + ["--quiet", "--out", str(tmp_path)]) == code
    _assert_directory_matches_golden(golden, tmp_path)


@pytest.mark.parametrize("golden", sorted(EXPORT_CASES))
def test_sos_export_matches_golden(golden, tmp_path):
    system, options = EXPORT_CASES[golden]
    if system in INLINE_SYSTEMS:
        (tmp_path / f"{system}.sys").write_text(INLINE_SYSTEMS[system])
        system = str(tmp_path / f"{system}.sys")
    out = tmp_path / "out"
    assert main(["export-sos", system, *options, "--quiet",
                 "--out", str(out)]) == EXIT_PASS
    _assert_directory_matches_golden(golden, out)


# OpenBLAS picks its kernel by CPU (Zen on AMD hosts, Haswell or SkylakeX
# on Intel ones), and each kernel rounds BLAS products and solves its own
# way; these kernels run on any x86-64 CPU with the features listed
BLAS_KERNELS = {"Haswell": ("AVX2", "FMA3"), "Zen": ("AVX2", "FMA3"),
                "Sandybridge": ("AVX",), "Prescott": ("SSE3",)}


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="OpenBLAS core types are x86-64 kernels")
@pytest.mark.parametrize("kernel", sorted(BLAS_KERNELS))
def test_synth_goldens_hold_under_every_blas_kernel(kernel, tmp_path):
    """The synthesis LP takes no BLAS product or solve, so each synth golden
    holds under each OpenBLAS kernel, forced by ``OPENBLAS_CORETYPE`` in a
    fresh interpreter (OpenBLAS reads it once, when it loads)."""
    missing = [f for f in BLAS_KERNELS[kernel] if not __cpu_features__[f]]
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(missing)}")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": kernel,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    for golden, (argv, report, code) in sorted(CASES.items()):
        if argv[0] != "synth":
            continue
        out = tmp_path / golden
        run = subprocess.run(
            [sys.executable, "-m", "monocert.cli", *argv, "--quiet",
             "--out", str(out)], env=env, capture_output=True, text=True)
        assert run.returncode == code, run.stderr
        assert (out / report).read_bytes() == (GOLDEN / golden).read_bytes(), \
            golden
