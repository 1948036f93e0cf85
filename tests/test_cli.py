"""End-to-end CLI tests: exit codes, report files, determinism.

Everything runs in-process through ``monocert.cli.main`` so coverage and
debuggability stay intact; each test writes into its own tmp directory.
"""

import argparse
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from byte_identity.compare import read_commands
from conftest import CORPUS, load_family, load_system
from monocert.certify import (CertifyError, WorkingBox, _ARGUMENT_RULES,
                              certify_all, check_cor1, check_cor2,
                              check_cor3, check_thm1, check_thm2)
from monocert.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, _build_parser, main
from monocert.lyap import build_lyapunov
from monocert.sim import (SimulationError, entrainment_test,
                          estimate_contraction_rate, integrate,
                          integrate_batch)
from monocert.synth import (SynthError, export_sos_sdpa, synth_const,
                            synth_poly)

EX1 = str(CORPUS / "ex1.sys")
EX1_THETA = str(CORPUS / "ex1.theta.json")
EX1_OMEGA = str(CORPUS / "ex1.omega.json")
LINEAR_THETA = str(CORPUS / "linear_sym.theta.json")
BYTE_IDENTITY = Path(__file__).resolve().parent / "byte_identity"


def _read(path: Path) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def test_certify_ex1_theta(tmp_path, capsys):
    code = main(["certify", EX1, "--theta", EX1_THETA, "--box", "0:3,0:3",
                 "--out", str(tmp_path)])
    assert code == EXIT_PASS
    rep = _read(tmp_path / "certify-report.json")
    assert rep["system"] == "ex1"
    by_cond = {c["condition"]: c for c in rep["checks"]}
    assert set(by_cond) == {"kamke", "thm1", "cor3-l1"}
    assert by_cond["thm1"]["worst_margin"] == pytest.approx(-1.0, abs=1e-12)
    assert by_cond["thm1"]["verdict"] == "pass-with-margin"
    out = capsys.readouterr().out
    assert "thm1" in out and "report:" in out


def test_certify_both_families(tmp_path):
    code = main(["certify", "ex1", "--theta", EX1_THETA,
                 "--omega", EX1_OMEGA, "--box", "0:3,0:3",
                 "--out", str(tmp_path)])
    assert code == EXIT_PASS
    rep = _read(tmp_path / "certify-report.json")
    conds = [c["condition"] for c in rep["checks"]]
    # two families get #k suffixes
    assert conds == ["kamke", "thm1#1", "cor3-l1#1", "thm2#2", "cor3-linf#2"]


def test_certify_rotation_fails(tmp_path, capsys):
    code = main(["certify", "rotation", "--out", str(tmp_path)])
    assert code == EXIT_FAIL
    rep = _read(tmp_path / "certify-report.json")
    assert rep["checks"][0]["condition"] == "kamke"
    assert rep["checks"][0]["verdict"] == "fail"
    assert "fail" in capsys.readouterr().out


def test_certify_strictness_respects_eps(tmp_path):
    """thm1 needs the equilibrium margin <= -eps; eps=2 is unattainable
    for a condition pinned at -1."""
    code = main(["certify", "ex1", "--theta", EX1_THETA, "--box", "0:3,0:3",
                 "--eps", "2.0", "--out", str(tmp_path)])
    assert code == EXIT_FAIL


def test_certify_unbounded_domain_needs_box(tmp_path, capsys):
    code = main(["certify", "ex1", "--theta", EX1_THETA,
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert ("state x1 has an unbounded domain [0, inf): an explicit finite "
            "working box is required") in err


def test_certify_overflowing_field_fails_without_a_warning(tmp_path):
    """On [0, 1e200]^2 ex1's x2^2 overflows: thm1 and cor3 fail through
    their NaN values, with the report they gave before, and numpy prints
    no RuntimeWarning (run in a fresh interpreter, where Python's warning
    filters apply)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("PYTHONWARNINGS", None)
    run = subprocess.run(
        [sys.executable, "-m", "monocert.cli", "certify", "ex1", "--theta",
         EX1_THETA, "--box", "0:1e200,0:1e200", "--resolution", "5",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert run.returncode == EXIT_FAIL
    assert run.stderr == ""
    common = {"box": [[0.0, 1e200], [0.0, 1e200]], "branch_ties": 0,
              "eps": 0.01, "resolution": 5}
    nan = {**common, "equilibrium_margin": -1.0, "verdict": "fail",
           "witness": {"component": 0, "point": [0.0, 2.5e199],
                       "value": "nan"}, "worst_margin": "nan"}
    assert _read(tmp_path / "certify-report.json") == {"system": "ex1",
        "checks": [
            {**common, "condition": "kamke", "equilibrium_margin": None,
             "verdict": "pass", "witness": {"component": [0, 1],
                                            "point": [0.0, 0.0],
                                            "value": -0.0},
             "worst_margin": -0.0},
            {**nan, "condition": "thm1"}, {**nan, "condition": "cor3-l1"}]}
    assert run.stdout.splitlines()[:3] == [
        "kamke        pass             worst margin -0",
        "thm1         fail             worst margin +nan  eq margin -1",
        "cor3-l1      fail             worst margin +nan  eq margin -1"]


def test_certify_quiet_silences_stdout(tmp_path, capsys):
    code = main(["certify", "rotation", "--quiet", "--out", str(tmp_path)])
    assert code == EXIT_FAIL
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# system / weight resolution
# ---------------------------------------------------------------------------

def test_bundled_name_resolution(tmp_path):
    assert main(["certify", "linear_sym", "--out", str(tmp_path)]) == EXIT_PASS


def test_unknown_bundled_name(tmp_path, capsys):
    code = main(["certify", "nosuchsystem", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "no such file or bundled system" in capsys.readouterr().err


def test_missing_system_file(tmp_path, capsys):
    code = main(["certify", "somewhere/missing.sys", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "system file not found" in capsys.readouterr().err


def test_weight_kind_mismatch(tmp_path, capsys):
    code = main(["certify", "ex1", "--theta", EX1_OMEGA, "--box", "0:3,0:3",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "expected kind 'theta'" in capsys.readouterr().err


def test_parse_error_is_usage(tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("system x { states a in [0, 1]\n da = -a + }")
    code = main(["certify", str(bad), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "line" in capsys.readouterr().err


def test_malformed_number_is_usage(tmp_path, capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("system x { states a in [0, 1.2.3]\n da = -a }")
    code = main(["certify", str(bad), "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "line 1, col 28: malformed number '1.2.3'" in capsys.readouterr().err


@pytest.mark.parametrize("argv, equilibrium", [
    (["certify"], "  equilibrium (0)\n"),
    (["certify"], ""),
    (["simulate", "--x0", "0.5"], ""),
], ids=["certify-equilibrium", "certify", "simulate"])
def test_constant_division_by_zero_is_usage(argv, equilibrium, tmp_path,
                                            capsys):
    bad = tmp_path / "bad.sys"
    bad.write_text("system z {\n  states x1 in [0, 1]\n  dx1 = -x1 + 1 / 0\n"
                   + equilibrium + "}\n")
    code = main([argv[0], str(bad), *argv[1:], "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert ("equation for dx1: a constant subexpression divides by zero"
            in capsys.readouterr().err)


@pytest.mark.parametrize("rhs, fault, sim_code", [
    ("x1 / 1e-300 - 3", "a constant subexpression divides by zero",
     EXIT_FAIL),
    ("x1 / 1e300", "a constant power overflows", EXIT_PASS),
])
def test_raising_constant_of_a_derivative_is_usage(rhs, fault, sim_code,
                                                   tmp_path, capsys):
    """certify refuses a field whose Jacobian folds a raising constant,
    where it crashed with a traceback; simulate, which does not
    differentiate, runs (the first field blows up to a non-finite
    state)."""
    bad = tmp_path / "bad.sys"
    bad.write_text(f"system z {{\n  states x1 in [-1, 1]\n  dx1 = {rhs}\n}}\n")
    code = main(["certify", str(bad), "--box=-1:1", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"monocert: Jacobian of the equation for dx1: {fault}\n")
    assert main(["simulate", str(bad), "--x0", "0.5", "--t-end", "0.01",
                 "--out", str(tmp_path)]) == sim_code


TIME_VARYING_SYS = """system tv {
  states x1 in [-1, 1], x2 in [-1, 1]
  dx1 = -x1 + 0.1*sin(t)*x2
  dx2 = -x2
  equilibrium (0, 0)
}
"""


@pytest.mark.parametrize("argv", [
    ["certify"], ["synth"], ["contract", "--theta", LINEAR_THETA],
], ids=["certify", "synth", "contract"])
def test_time_varying_jacobian_is_usage(argv, tmp_path, capsys):
    """A declared equilibrium does not make a field that references t
    autonomous: the grid checks cannot evaluate its Jacobian."""
    tv = tmp_path / "tv.sys"
    tv.write_text(TIME_VARYING_SYS)
    code = main([argv[0], str(tv), *argv[1:], "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert ("monocert: expression references t but no time was given"
            in capsys.readouterr().err)


def test_time_varying_field_with_autonomous_jacobian_certifies(tmp_path):
    code = main(["certify", "entrain_linear", "--box=-3:3",
                 "--out", str(tmp_path)])
    assert code == EXIT_PASS


def test_deeply_nested_signs_certify_like_one(tmp_path):
    """dx1 = -(-(...(x1)...)) with 10,001 signs is dx1 = -x1: certify reads
    it at the default recursion limit and writes the same report."""
    theta = tmp_path / "one.theta.json"
    theta.write_text('{"kind": "theta", "weights": [[1]]}')
    reports = []
    for k, rhs in enumerate(["-(" * 10_001 + "x1" + ")" * 10_001, "-x1"]):
        path = tmp_path / f"neg{k}.sys"
        path.write_text("system neg {\n  states x1 in [0, 1]\n"
                        f"  dx1 = {rhs}\n  equilibrium (0)\n}}\n")
        out = tmp_path / f"out{k}"
        code = main(["certify", str(path), "--theta", str(theta),
                     "--out", str(out), "--quiet"])
        assert code == EXIT_PASS
        reports.append((out / "certify-report.json").read_bytes())
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def test_synth_poly_sum_ex1(tmp_path, capsys):
    code = main(["synth", EX1, "--mode", "poly-sum", "--degree", "2",
                 "--box", "0:3,0:3", "--out", str(tmp_path)])
    assert code == EXIT_PASS
    rep = _read(tmp_path / "synth-report.json")
    assert rep["success"] is True
    assert rep["mode"] == "poly-sum"
    assert rep["margin"] > 0.0
    assert rep["system"] == "ex1"
    weights = _read(tmp_path / "synth-weights.json")
    assert weights["kind"] == "theta"
    assert len(weights["weights"]) == 2
    out = capsys.readouterr().out
    assert "synthesized" in out and "certified margin" in out


def test_synth_weights_feed_back_into_certify(tmp_path):
    """The documented two-command pipeline: synth, then certify."""
    out1 = tmp_path / "synth"
    assert main(["synth", "ex1", "--mode", "poly-sum", "--degree", "2",
                 "--box", "0:3,0:3", "--out", str(out1)]) == EXIT_PASS
    out2 = tmp_path / "certify"
    code = main(["certify", "ex1",
                 "--theta", str(out1 / "synth-weights.json"),
                 "--box", "0:3,0:3", "--out", str(out2)])
    assert code == EXIT_PASS


def test_synth_const_rotation_fails(tmp_path, capsys):
    code = main(["synth", "rotation", "--out", str(tmp_path)])
    assert code == EXIT_FAIL
    rep = _read(tmp_path / "synth-report.json")
    assert rep["success"] is False
    assert "not monotone" in rep["reason"]
    assert not (tmp_path / "synth-weights.json").exists()
    assert "synthesis failed" in capsys.readouterr().out


def test_synth_const_max_mode(tmp_path):
    code = main(["synth", "multiagent", "--mode", "max",
                 "--out", str(tmp_path)])
    assert code == EXIT_PASS
    weights = _read(tmp_path / "synth-weights.json")
    assert weights["kind"] == "omega"
    assert weights["weights"] == [[1.0], [1.5], [1.75]]


def test_synth_solver_unbounded_on_a_bounded_lp_fails(tmp_path, capsys):
    """The constant-weight LP is bounded, since v lies in [1, V_CAP], but
    the solver's row scaling leaves this system's margin column below the
    pivot tolerance and it returns "unbounded".  That is a solver fault,
    reported as one line.  Before, a bare assert ended the command in an
    AssertionError traceback, and in "LP infeasible" under python -O."""
    code = main(["synth", str(BYTE_IDENTITY / "wrong_unbounded.sys"),
                 "--box=-1:1", "--resolution", "5", "--mode", "sum",
                 "--out", str(tmp_path)])
    assert code == EXIT_FAIL
    assert capsys.readouterr() == (
        "", "monocert: LP solver returned 'unbounded' for a bounded LP\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# lyap
# ---------------------------------------------------------------------------

def test_lyap_state_sum(tmp_path, capsys):
    code = main(["lyap", "ex1", "--theta", EX1_THETA, "--variant",
                 "state-sum", "--out", str(tmp_path)])
    assert code == EXIT_PASS
    rep = _read(tmp_path / "lyap.json")
    assert rep["pretty"] == "V(x) = |x1| + |x2 + 0.5*x2^2|"
    assert rep["scope"] == "global"
    assert "V(x) = " in capsys.readouterr().out


def test_lyap_variant_kind_mismatch(tmp_path):
    code = main(["lyap", "ex1", "--omega", EX1_OMEGA, "--variant",
                 "state-sum", "--out", str(tmp_path)])
    assert code == EXIT_USAGE


def test_simulate_variant_kind_mismatch_is_usage(tmp_path, capsys):
    """A LyapError of simulate exits 2 through main's table, as lyap's."""
    code = main(["simulate", "ex1", "--x0", "2,1", "--box", "0:3,0:3",
                 "--theta", EX1_THETA, "--variant", "flow-max",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "monocert: variant 'flow-max' needs kind 'omega' weights, "
            "got 'theta'\n")
    assert list(tmp_path.iterdir()) == []


def test_lyap_needs_exactly_one_family(tmp_path, capsys):
    assert main(["lyap", "ex1", "--out", str(tmp_path)]) == EXIT_USAGE
    code = main(["lyap", "ex1", "--theta", EX1_THETA, "--omega", EX1_OMEGA,
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "exactly one" in capsys.readouterr().err


@pytest.mark.parametrize("weights,message", [
    ("nan", "component 2 reaches nan at x=0"),
    ("recip0", "component 1 reaches inf at x=0"),
    ("tiny", "component 1 reaches 1e-13 at x=0"),
])
@pytest.mark.parametrize("argv", [
    ["lyap", "ex1"],
    ["simulate", "ex1", "--x0", "2,1", "--box", "0:3,0:3"],
])
def test_weights_not_positive_at_the_equilibrium_fail(argv, weights, message,
                                                      tmp_path, capsys):
    """The positivity rule of the checks, applied at x* = (0, 0).  Before,
    lyap and simulate with the NaN weights ended in a traceback from
    format_number, and lyap with 1/0 or 1e-13 exited 0."""
    path = BYTE_IDENTITY / f"{weights}.theta.json"
    code = main(argv + ["--theta", str(path), "--out", str(tmp_path)])
    assert code == EXIT_FAIL
    assert capsys.readouterr() == (
        "", f"monocert: theta positivity violated at x*: {message}\n")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_with_lyapunov_column(tmp_path):
    code = main(["simulate", "ex1", "--x0", "2,1", "--random", "2",
                 "--box", "0:3,0:3", "--t-end", "1", "--dt", "0.01",
                 "--theta", EX1_THETA, "--out", str(tmp_path)])
    assert code == EXIT_PASS
    rep = _read(tmp_path / "simulate-report.json")
    assert len(rep["files"]) == 3
    assert all(e["decrease_ok"] for e in rep["files"])
    assert rep["lyapunov"] == "V(x) = |x1| + |x2 + 0.5*x2^2|"
    csv = (tmp_path / "traj-000.csv").read_text().splitlines()
    assert csv[0] == "t,x1,x2,V"
    assert len(csv) == 102  # header + 101 samples
    assert (tmp_path / "traj-002.csv").exists()


def test_simulate_needs_initial_conditions(tmp_path, capsys):
    code = main(["simulate", "ex1", "--box", "0:3,0:3",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "--x0" in capsys.readouterr().err


def test_simulate_escaping_trajectory_fails(tmp_path, capsys):
    # x0 outside the declared domain aborts that trajectory and exits 1
    code = main(["simulate", "ex1", "--x0=-1,0", "--t-end", "0.1",
                 "--out", str(tmp_path)])
    assert code == EXIT_FAIL
    assert "left the domain" in capsys.readouterr().out
    rep = _read(tmp_path / "simulate-report.json")
    assert rep["files"] == []


def test_simulate_field_with_a_pole_in_time_fails(tmp_path, capsys):
    """A stage that reaches t = 0.5 exactly divides a Python float by
    zero; every trajectory fails with the time span of its block."""
    pole = tmp_path / "pole.sys"
    pole.write_text("system pole {\n  states x in (-inf, inf)\n"
                    "  dx = 0*x + 1/(t - 0.5)\n}\n")
    code = main(["simulate", str(pole), "--x0", "0", "--t-end", "1",
                 "--dt", str(2.0 ** -10), "--out", str(tmp_path)])
    assert code == EXIT_FAIL
    assert ("trajectory 0: the vector field cannot be evaluated between "
            "t=0.25 and t=0.5: float division by zero"
            in capsys.readouterr().out)
    assert _read(tmp_path / "simulate-report.json")["files"] == []


def test_simulate_overflow_prints_only_its_diagnostic(tmp_path):
    """x^2 * x^2 from 3 overflows within 14 ms.  The row's diagnostic is
    the only message, whichever kernel runs: numpy's RuntimeWarnings from
    the kernel and the domain check are not printed (run in a fresh
    interpreter, where Python's warning filters apply)."""
    quartic = tmp_path / "quartic.sys"
    quartic.write_text("system quartic {\n  states x in (-inf, inf)\n"
                       "  dx = x^2 * x^2\n}\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    env.pop("PYTHONWARNINGS", None)
    for x0 in ("3", "3 --random 20 --box=-1:1"):
        run = subprocess.run(
            [sys.executable, "-m", "monocert.cli", "simulate", str(quartic),
             "--x0", *x0.split(), "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert run.returncode == EXIT_FAIL
        assert run.stderr == ""
        assert run.stdout.startswith(
            "trajectory 0: non-finite state at t=0.014\n")

@pytest.mark.parametrize("argv,weights", [
    (["ex1", "--x0", "2,1", "--random", "3", "--box", "0:3,0:3",
      "--theta", EX1_THETA], "ex1.theta.json"),
    # one of the four rotation starts leaves the domain mid-run
    (["rotation", "--random", "4", "--seed", "1"], None),
])
def test_simulate_csvs_match_single_integrations(tmp_path, argv, weights):
    main(["simulate", *argv, "--t-end", "2", "--dt", "0.01", "--quiet",
          "--out", str(tmp_path)])
    sys = load_system(argv[0])
    V = (build_lyapunov(sys, load_family(weights), "state-sum")
         if weights else None)
    files = _read(tmp_path / "simulate-report.json")["files"]
    assert len(files) == (4 if weights else 3)
    for entry in files:
        tr = integrate(sys, entry["x0"], 2.0, dt=0.01)
        tr.to_csv(tmp_path / "single.csv", V=V)
        assert ((tmp_path / entry["file"]).read_bytes()
                == (tmp_path / "single.csv").read_bytes())
        assert entry["max_step_error"] == tr.max_step_error


# ---------------------------------------------------------------------------
# contract / entrain / export-sos
# ---------------------------------------------------------------------------

def test_contract_linear(tmp_path, capsys):
    code = main(["contract", "linear_sym", "--theta", LINEAR_THETA,
                 "--pairs", "3", "--t-end", "1", "--dt", "0.01",
                 "--out", str(tmp_path)])
    assert code == EXIT_PASS
    rep = _read(tmp_path / "contract-report.json")
    assert rep["certified_rate"] == 1.0
    assert rep["passed"] is True
    assert rep["certificate"]["condition"] == "cor3-l1"
    assert "certified rate 1" in capsys.readouterr().out


def test_contract_omega_linf(tmp_path):
    code = main(["contract", "multiagent", "--omega",
                 str(CORPUS / "multiagent.w.json"), "--norm", "linf",
                 "--out", str(tmp_path), "--quiet"])
    assert code == EXIT_PASS
    rep = _read(tmp_path / "contract-report.json")
    assert rep["passed"] is True
    # row 3 of the omega-scaled Jacobian: -1 + 1.5/1.7
    assert rep["certified_rate"] == pytest.approx(2.0 / 17.0, rel=1e-12)
    assert rep["certificate"]["condition"] == "cor3-linf"
    assert rep["ratio_excess"] <= 1e-6


def test_contract_needs_one_family(tmp_path):
    assert main(["contract", "linear_sym",
                 "--out", str(tmp_path)]) == EXIT_USAGE


def test_entrain_cubic(tmp_path, capsys):
    code = main(["entrain", "entrain_cubic", "--x0-set=-2;0;2",
                 "--periods", "8", "--dt", "0.02", "--out", str(tmp_path)])
    assert code == EXIT_PASS
    rep = _read(tmp_path / "entrain-report.json")
    assert rep["passed"] is True
    assert rep["final_spread"] < 1e-4
    assert len(rep["spread"]) == 9
    out = capsys.readouterr().out
    assert "PASS  final_mutual" in out


def test_entrain_zero_field_fails(tmp_path):
    code = main(["entrain", "entrain_zero", "--x0-set=-1;1",
                 "--periods", "4", "--out", str(tmp_path)])
    assert code == EXIT_FAIL
    rep = _read(tmp_path / "entrain-report.json")
    assert rep["checks"]["geometric_decay"] is False


def test_entrain_without_period_fails(tmp_path, capsys):
    """A system without a period is refused by ``entrainment_test``, whose
    errors exit 1 as those of contract and simulate do."""
    code = main(["entrain", "ex1", "--x0-set=0,0;1,1",
                 "--out", str(tmp_path)])
    assert code == EXIT_FAIL
    assert capsys.readouterr().err == (
        "monocert: entrainment needs a system with a declared period\n")


def test_entrain_leaving_the_domain_fails(tmp_path, capsys):
    """A trajectory that leaves the domain mid-run is a runtime failure
    (exit 1), not a usage error: the start at 0.5 drifts out of [-1, 1]
    at about t = 0.49."""
    path = tmp_path / "drift.sys"
    path.write_text("system drift {\n  states x in [-1, 1]\n"
                    "  dx = 1 + 0.1*sin(t)\n  period 6.283185307179586\n}\n")
    code = main(["entrain", str(path), "--x0-set=0;0.5", "--periods", "2",
                 "--out", str(tmp_path)])
    assert code == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("monocert: trajectory 1 left the domain at "
                          "t=0.489859: ")
    assert not (tmp_path / "entrain-report.json").exists()


@pytest.mark.parametrize("x0_set", ["0", "0;", "1;;", ""])
def test_entrain_needs_two_starts_is_usage(tmp_path, capsys, x0_set):
    code = main(["entrain", "entrain_cubic", f"--x0-set={x0_set}",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "monocert: entrainment needs at least two initial conditions\n")


def test_export_sos(tmp_path, capsys):
    code = main(["export-sos", "ex1", "--degree", "2", "--out", str(tmp_path)])
    assert code == EXIT_PASS
    dat = tmp_path / "ex1.dat-s"
    sidecar = _read(tmp_path / "ex1.dat-s.json")
    assert dat.exists()
    assert len(sidecar["blocks"]) == 11
    assert "wrote" in capsys.readouterr().out


def test_export_sos_nonpolynomial_fails(tmp_path, capsys):
    code = main(["export-sos", "traffic4", "--out", str(tmp_path)])
    assert code == EXIT_FAIL
    assert "monocert:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# argument parsing edges
# ---------------------------------------------------------------------------

def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "monocert" in capsys.readouterr().out


def test_missing_command_is_usage(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_unknown_command_is_usage(capsys):
    assert main(["fly", "ex1"]) == EXIT_USAGE
    assert "invalid choice" in capsys.readouterr().err


_SX0 = ["--x0-set", "0;1"]


@pytest.mark.parametrize("argv,option,fn,param", [
    (["contract"], "t_end", estimate_contraction_rate, "t_end"),
    (["contract"], "dt", estimate_contraction_rate, "dt"),
    (["contract"], "pairs", estimate_contraction_rate, "pairs"),
    (["contract"], "norm", estimate_contraction_rate, "norm"),
    (["contract"], "seed", estimate_contraction_rate, "seed"),
    (["entrain", *_SX0], "periods", entrainment_test, "horizon_periods"),
    (["entrain", *_SX0], "dt", entrainment_test, "dt"),
    (["synth"], "mode", synth_const, "mode"),
    (["synth"], "degree", synth_poly, "degree"),
    (["export-sos"], "mode", export_sos_sdpa, "mode"),
    (["export-sos"], "degree", export_sos_sdpa, "degree"),
    (["export-sos"], "multiplier_degree", export_sos_sdpa,
     "multiplier_degree"),
    (["certify"], "eps", certify_all, "eps"),
    (["synth"], "eps", synth_const, "eps"),
    (["synth"], "eps", synth_poly, "eps"),
    (["lyap"], "eps", certify_all, "eps"),
    (["simulate"], "eps", certify_all, "eps"),
    (["contract"], "eps", estimate_contraction_rate, "eps"),
    (["entrain", *_SX0], "eps", certify_all, "eps"),
    (["export-sos"], "eps", export_sos_sdpa, "eps"),
])
def test_parser_defaults_are_the_library_defaults(argv, option, fn, param):
    """Each option's default is the default of the parameter it feeds; an
    --eps that feeds none (lyap, simulate, entrain) is certify's."""
    args = _build_parser().parse_args([argv[0], "ex1", *argv[1:]])
    want = inspect.signature(fn).parameters[param].default
    assert getattr(args, option) == want
    assert type(getattr(args, option)) is type(want)


def test_a_subcommand_parser_gets_its_arguments_on_first_use():
    """Parsing one command builds that subcommand's arguments alone; the
    others are built when they are used, and each parser more than once
    gives the same result."""
    ap = _build_parser()
    subparsers = next(a for a in ap._actions
                      if isinstance(a, argparse._SubParsersAction))
    parsers = subparsers._name_parser_map

    def options(name):
        return [a.dest for a in parsers[name]._actions]

    assert all(options(name) == ["help"] for name in parsers)
    first = ap.parse_args(["synth", "ex1", "--mode", "max"])
    assert options("synth")[-2:] == ["mode", "degree"]
    assert all(options(name) == ["help"] for name in parsers
               if name != "synth")
    assert ap.parse_args(["synth", "ex1", "--mode", "max"]) == first
    assert options("synth").count("mode") == 1


def test_the_parser_answers_the_marked_commands_of_the_list(capsys):
    """The ``!`` lines of the byte-identity list are answered by argparse
    itself: help exits 0, every other one is a usage error, exit 2."""
    accepted = read_commands()
    marked = [argv for argv in read_commands(parser_exits=True)
              if argv not in accepted]
    assert len(marked) == 12
    for argv in marked:
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv)
        assert exc.value.code == (0 if "--help" in argv else EXIT_USAGE)
    capsys.readouterr()


@pytest.mark.parametrize("resolution", ["-1", "0", "1"])
@pytest.mark.parametrize("argv", [
    ["certify", "linear_sym"],
    ["synth", "linear_sym"],
    ["simulate", "linear_sym", "--x0", "1,1", "--t-end", "0.01"],
    ["contract", "linear_sym", "--theta", LINEAR_THETA, "--pairs", "1"],
])
def test_resolution_below_two_is_usage(argv, resolution, tmp_path, capsys):
    code = main(argv + ["--resolution", resolution, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "resolution must be at least 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["simulate", "linear_sym", "--x0", "1,1", "--t-end", "0.01"],
    ["contract", "linear_sym", "--theta", LINEAR_THETA, "--pairs", "1"],
    ["entrain", "entrain_cubic", "--x0-set=-2;2", "--periods", "1"],
])
def test_step_not_positive_is_usage(argv, dt, tmp_path, capsys):
    """Before, contract and entrain raised ZeroDivisionError at --dt 0,
    simulate exited 1 once per trajectory, and --dt inf took no step and
    passed."""
    code = main(argv + ["--dt", dt, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert (capsys.readouterr().err
            == "monocert: dt must be positive and finite\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("pairs", ["0", "-1"])
def test_pairs_below_one_is_usage(pairs, tmp_path, capsys):
    """Before, --pairs 0 passed with nothing integrated, and -1 raised
    ValueError."""
    code = main(["contract", "linear_sym", "--theta", LINEAR_THETA,
                 "--pairs", pairs, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "monocert: pairs must be at least 1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["synth", "ex1", "--box", "0:3,0:3", "--degree", "-1"], "degree"),
    (["synth", "ex1", "--box", "0:3,0:3", "--mode", "poly-sum",
      "--degree", "-1"], "degree"),
    (["export-sos", "ex1", "--degree", "-1"], "degree"),
    (["export-sos", "ex1", "--multiplier-degree", "-1"], "multiplier-degree"),
])
def test_negative_degree_is_usage(argv, message, tmp_path, capsys):
    """Before, a poly synthesis and export-sos exited 1, the code of a
    failed certificate, and the sum synthesis ignored the degree."""
    code = main(argv + ["--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert (capsys.readouterr().err
            == f"monocert: {message} must be nonnegative\n")
    assert list(tmp_path.iterdir()) == []


TRAFFIC4_V = str(CORPUS / "traffic4.v.json")


@pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["certify", "traffic4", "--theta", TRAFFIC4_V],
    ["synth", "ex1", "--box", "0:3,0:3"],
    ["contract", "linear_sym", "--theta", LINEAR_THETA, "--pairs", "1"],
    ["export-sos", "ex1"],
])
def test_eps_not_positive_is_usage(argv, eps, tmp_path, capsys):
    """Before, certify traffic4 --eps -1 turned thm1, cor1 and cor3-l1
    from fail into pass-with-margin and exited 0, and --eps nan failed
    every equilibrium check."""
    code = main(argv + ["--eps", eps, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert (capsys.readouterr().err
            == "monocert: eps must be positive and finite\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t_end", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("argv", [
    ["simulate", "linear_sym", "--x0", "1,1", "--random", "2"],
    ["contract", "linear_sym", "--theta", LINEAR_THETA, "--pairs", "1"],
])
def test_t_end_not_positive_is_usage(argv, t_end, tmp_path, capsys):
    """Before, --t-end inf raised OverflowError and nan ValueError, and
    simulate --t-end 0 exited 1 once per trajectory."""
    code = main(argv + ["--t-end", t_end, "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert (capsys.readouterr().err
            == "monocert: t-end must be positive and finite\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,message", [
    (["simulate", "linear_sym", "--random", "2", "--t-end", "0.01",
      "--seed", "-1"], "seed must be nonnegative"),
    (["contract", "linear_sym", "--theta", LINEAR_THETA, "--pairs", "1",
      "--t-end", "0.01", "--seed", "-1"], "seed must be nonnegative"),
    (["simulate", "linear_sym", "--x0", "1,1", "--t-end", "0.01",
      "--random", "-2"], "random must be nonnegative"),
    (["entrain", "entrain_cubic", "--x0-set=-2;2", "--periods", "0"],
     "periods must be at least 1"),
    (["entrain", "entrain_cubic", "--x0-set=-2;2", "--periods", "-1"],
     "periods must be at least 1"),
])
def test_negative_counts_are_usage(argv, message, tmp_path, capsys):
    """Before, a negative seed or --random raised ValueError, and entrain
    --periods 0 named t_end."""
    code = main(argv + ["--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"monocert: {message}\n"
    assert list(tmp_path.iterdir()) == []


def _argument_rule_cases(sos_path: str) -> dict:
    """Per argument of the table of rules: a command that breaks its rule,
    the words of the refusal, and each library call that takes the argument
    with the same bad value, beside the error class it raises."""
    ex1, lin = load_system("ex1"), load_system("linear_sym")
    cubic = load_system("entrain_cubic")
    theta, omega = load_family("ex1.theta.json"), load_family("ex1.omega.json")
    ones = load_family("linear_sym.theta.json")
    box = WorkingBox((0.0, 0.0), (3.0, 3.0), 5)
    start = ["simulate", "ex1", "--x0", "1,1"]
    contract = ["contract", "linear_sym", "--theta", LINEAR_THETA]

    def rate(**kw):
        return lambda: estimate_contraction_rate(lin, ones, pairs=1,
                                                 t_end=0.01, **kw)

    return {
        "resolution": (["certify", "ex1", "--box", "0:3,0:3",
                        "--resolution", "1"],
                       "resolution must be at least 2", [
            (CertifyError, lambda: WorkingBox((0.0,), (1.0,), 1)),
            (CertifyError, lambda: WorkingBox.from_string("0:1", 1)),
            (CertifyError, lambda: box.with_resolution(1)),
            (SynthError, lambda: synth_const(ex1, box, resolution=1)),
            (SynthError, lambda: synth_poly(ex1, box, resolution=1)),
        ]),
        "dt": (start + ["--dt", "nan"], "dt must be positive and finite", [
            (SimulationError, lambda: integrate(ex1, [1, 1], 1.0, dt=math.nan)),
            (SimulationError,
             lambda: integrate_batch(ex1, [[1, 1]], 1.0, dt=math.nan)),
            (SimulationError, rate(dt=math.nan)),
            (SimulationError,
             lambda: entrainment_test(cubic, [-2, 2], dt=math.nan)),
        ]),
        "t_end": (start + ["--t-end", "inf"],
                  "t-end must be positive and finite", [
            (SimulationError, lambda: estimate_contraction_rate(
                lin, ones, pairs=1, t_end=math.inf)),
        ]),
        "eps": (["certify", "ex1", "--box", "0:3,0:3", "--eps", "nan"],
                "eps must be positive and finite", [
            (CertifyError, lambda: check_thm1(ex1, theta, box, eps=math.nan)),
            (CertifyError, lambda: check_thm2(ex1, omega, box, eps=math.nan)),
            (CertifyError,
             lambda: check_cor1(ex1, [1.0, 1.0], box, eps=math.nan)),
            (CertifyError,
             lambda: check_cor2(ex1, [1.0, 1.0], box, eps=math.nan)),
            (CertifyError,
             lambda: check_cor3(ex1, theta, box=box, eps=math.nan)),
            (CertifyError, lambda: certify_all(ex1, theta, box, eps=math.nan)),
            (SynthError, lambda: synth_const(ex1, box, eps=math.nan)),
            (SynthError, lambda: synth_poly(ex1, box, eps=math.nan)),
            (SynthError, lambda: export_sos_sdpa(ex1, eps=math.nan,
                                                 path=sos_path)),
            (SimulationError, rate(eps=math.nan)),
        ]),
        "pairs": (contract + ["--pairs", "0"], "pairs must be at least 1", [
            (SimulationError, lambda: estimate_contraction_rate(
                lin, ones, pairs=0, t_end=0.01)),
        ]),
        "periods": (["entrain", "entrain_cubic", "--x0-set=-2;2",
                     "--periods", "0"], "periods must be at least 1", [
            (SimulationError,
             lambda: entrainment_test(cubic, [-2, 2], horizon_periods=0)),
        ]),
        "degree": (["export-sos", "ex1", "--degree", "-1"],
                   "degree must be nonnegative", [
            (SynthError, lambda: synth_poly(ex1, box, degree=-1)),
            (SynthError,
             lambda: export_sos_sdpa(ex1, degree=-1, path=sos_path)),
        ]),
        # -1 is odd too: the sign is refused first
        "multiplier_degree": (["export-sos", "ex1", "--multiplier-degree",
                               "-1"], "multiplier-degree must be nonnegative",
                              [(SynthError, lambda: export_sos_sdpa(
                                  ex1, multiplier_degree=-1, path=sos_path))]),
        "seed": (contract + ["--seed", "-1"], "seed must be nonnegative", [
            (SimulationError, rate(seed=-1)),
        ]),
        "random": (start + ["--random", "-1"], "random must be nonnegative",
                   []),
    }


@pytest.mark.parametrize("name", [row[0] for row in _ARGUMENT_RULES])
def test_one_rule_one_set_of_words(name, tmp_path, capsys):
    """The command line and every library call that takes the argument
    refuse a bad value with the same words.  Before, export_sos_sdpa said
    "degrees must be nonnegative" for either degree, synthesis refused a
    resolution of 1 with CertifyError, estimate_contraction_rate an eps of
    NaN with CertifyError, and a seed of -1 with numpy's ValueError after
    it had certified the rate."""
    cases = _argument_rule_cases(str(tmp_path / "e.dat-s"))
    assert list(cases) == [row[0] for row in _ARGUMENT_RULES]
    argv, words, calls = cases[name]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"monocert: {words}\n")
    for error, call in calls:
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert str(info.value) == words
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,words", [
    (["contract", "linear_sym", "--theta", LINEAR_THETA, "--dt", "0",
      "--pairs", "0"], "dt must be positive and finite"),
    (["simulate", "ex1", "--x0", "1,1", "--resolution", "1", "--dt", "0",
      "--seed", "-1"], "resolution must be at least 2"),
    (["export-sos", "ex1", "--degree", "-1", "--multiplier-degree", "-1",
      "--eps", "0"], "eps must be positive and finite"),
    (["synth", "ex1", "--box", "0:3,0:3", "--degree", "-1", "--eps", "nan"],
     "eps must be positive and finite"),
])
def test_the_first_broken_rule_is_named(argv, words, tmp_path, capsys):
    """Rules are checked in one order: resolution, dt, t-end, eps, pairs,
    periods, degree, multiplier-degree, seed, random."""
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"monocert: {words}\n")
    assert list(tmp_path.iterdir()) == []


def test_grid_beyond_int64_is_usage(tmp_path, capsys):
    """65536^4 = 2^64 points; counted in int64 they wrap to 0."""
    code = main(["certify", "traffic4", "--resolution", "65536",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "2^63 - 1" in capsys.readouterr().err


def test_bad_vector_is_usage(tmp_path, capsys):
    code = main(["simulate", "ex1", "--x0", "one,two", "--t-end", "0.1",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "bad --x0" in capsys.readouterr().err
    code = main(["simulate", "ex1", "--x0", "1,2,3", "--t-end", "0.1",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_certify_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["certify", "ex1", "--theta", EX1_THETA,
                     "--omega", EX1_OMEGA, "--box", "0:3,0:3", "--quiet",
                     "--out", str(out)]) == EXIT_PASS
    assert ((a / "certify-report.json").read_bytes()
            == (b / "certify-report.json").read_bytes())


def test_synth_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["synth", "ex1", "--mode", "poly-sum", "--degree", "2",
                     "--box", "0:3,0:3", "--quiet",
                     "--out", str(out)]) == EXIT_PASS
    for name in ("synth-report.json", "synth-weights.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_simulate_csvs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "ex1", "--random", "3", "--seed", "7",
                     "--box", "0:3,0:3", "--t-end", "0.5", "--dt", "0.01",
                     "--quiet", "--out", str(out)]) == EXIT_PASS
    for j in range(3):
        name = f"traj-{j:03d}.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert ((a / "simulate-report.json").read_bytes()
            == (b / "simulate-report.json").read_bytes())
