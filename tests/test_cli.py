"""End-to-end CLI tests: exit codes, report files, determinism.

Everything runs in-process through ``monocert.cli.main`` so coverage and
debuggability stay intact; each test writes into its own tmp directory.
"""

import json
from pathlib import Path

import pytest

from conftest import CORPUS, load_family, load_system
from monocert.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, RunConfig, main, run
from monocert.lyap import build_lyapunov
from monocert.sim import integrate

EX1 = str(CORPUS / "ex1.sys")
EX1_THETA = str(CORPUS / "ex1.theta.json")
EX1_OMEGA = str(CORPUS / "ex1.omega.json")
LINEAR_THETA = str(CORPUS / "linear_sym.theta.json")


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


def test_lyap_needs_exactly_one_family(tmp_path, capsys):
    assert main(["lyap", "ex1", "--out", str(tmp_path)]) == EXIT_USAGE
    code = main(["lyap", "ex1", "--theta", EX1_THETA, "--omega", EX1_OMEGA,
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "exactly one" in capsys.readouterr().err


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


def test_entrain_without_period_is_usage(tmp_path, capsys):
    code = main(["entrain", "ex1", "--x0-set=0,0;1,1",
                 "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert "period" in capsys.readouterr().err


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


def test_run_config_unknown_command():
    with pytest.raises(Exception, match="unknown command"):
        run(RunConfig(command="fly", system="ex1"))


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
