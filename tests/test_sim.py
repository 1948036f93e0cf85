"""Integrator, decrease checks, contraction-rate validation, entrainment."""

import math

import numpy as np
import pytest

import monocert as mc
from conftest import CORPUS, load_family, load_system, linear_system
from monocert.lyap import build_lyapunov
from monocert.sim import (BatchTrajectories, ContractionReport,
                          DecreaseReport, EntrainReport, SimulationError,
                          Trajectory, entrainment_test,
                          estimate_contraction_rate, integrate,
                          integrate_batch, verify_decrease)
from oracles import domain_failure, rk4_at, rk4_four_calls


def _scalar(body: str, lo="-inf", hi="inf", extra="") -> mc.SystemDef:
    lob = "(" if lo == "-inf" else "["
    hib = ")" if hi == "inf" else "]"
    src = f"""
    system s {{
        states x in {lob}{lo}, {hi}{hib}
        dx = {body}
        {extra}
    }}
    """
    sys = mc.parse_system(src)
    sys.validate()
    return sys


# ---------------------------------------------------------------------------
# integrator accuracy
# ---------------------------------------------------------------------------

def test_rk4_fourth_order():
    """Halving the step must shrink the error by about 2^4."""
    decay = _scalar("-x", extra="equilibrium (0)")
    errs = []
    for dt in (0.1, 0.05):
        tr = integrate(decay, [1.0], 1.0, dt=dt)
        errs.append(abs(tr.final[0] - math.exp(-1.0)))
    ratio = errs[0] / errs[1]
    assert 8.0 < ratio < 32.0


def test_exponential_decay_accuracy():
    decay = _scalar("-x", extra="equilibrium (0)")
    tr = integrate(decay, [1.0], 1.0, dt=1e-3)
    assert abs(tr.final[0] - math.exp(-1.0)) < 1e-12
    assert tr.max_step_error < 1e-9


def test_time_varying_drive():
    # dx = cos(t) from 0 integrates to sin(t)
    drive = _scalar("0*x + cos(t)", extra="period 6.283185307179586")
    assert drive.time_varying
    tr = integrate(drive, [0.0], 2.0, dt=1e-3)
    assert abs(tr.final[0] - math.sin(2.0)) < 1e-12


def test_final_time_hit_exactly():
    decay = _scalar("-x", extra="equilibrium (0)")
    tr = integrate(decay, [1.0], 1.0, dt=0.3)  # 3 full steps + remainder
    np.testing.assert_allclose(tr.t, [0.0, 0.3, 0.6, 0.9, 1.0], atol=1e-12)


def test_save_every_thins_but_keeps_final(ex1):
    tr = integrate(ex1, [1.0, 1.0], 1.0, dt=1e-2, save_every=10)
    assert len(tr.t) == 11
    assert tr.t[-1] == pytest.approx(1.0, abs=1e-12)
    assert tr.x.shape == (11, 2)


def _mixed_field() -> mc.SystemDef:
    """Time-varying, with a constant component and a time-only one."""
    sys = mc.parse_system("""
    system mixed {
      states x1 in (-inf, inf), x2 in [-5, 5], x3 in (-inf, inf)
      dx1 = -x1 + x2 * sin(t)
      dx2 = 2
      dx3 = cos(t)
    }
    """)
    sys.validate()
    return sys


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@pytest.mark.parametrize(
    "name", sorted(p.stem for p in CORPUS.glob("*.sys")) + ["mixed"])
def test_rk4_step_matches_the_four_call_form(name):
    """The step kernel is bit for bit four ``f_batch`` calls, and close to
    one step in Python floats over the tree-walking oracle."""
    sys = _mixed_field() if name == "mixed" else load_system(name)
    rng = np.random.default_rng(23)
    lo = np.array([max(b.lo, -3.0) for b in sys.bounds])
    hi = np.array([min(b.hi, 3.0) for b in sys.bounds])
    # a full step, a half step and a remainder step (0.7 - 2 * 0.3)
    for h in (1e-2, 1e-2 / 2, 0.7 - 2 * 0.3):
        for B in (1, 3, 20):
            X = lo + (hi - lo) * rng.random((B, sys.n))
            got = sys.rk4_step(X, 0.7, h)
            assert got.shape == (B, sys.n)
            assert np.array_equal(_bits(got),
                                  _bits(rk4_four_calls(sys, X, 0.7, h)))
            want = np.array([rk4_at(sys, list(x), 0.7, h) for x in X])
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def _failures_by_rule(sys, X0, t_end, dt):
    """Each row's failure under the per-row rule, stepping the live rows
    with the four-call RK4 (t_end a whole number of steps)."""
    live = dict(enumerate(np.asarray(X0, dtype=float)))
    failures = {}

    def check(k, t):
        for j in list(live):
            fail = domain_failure(sys, j, live[j].tolist(), k, t)
            if fail is not None:
                failures[j] = fail
                del live[j]

    check(-1, 0.0)
    t = 0.0
    for k in range(int(round(t_end / dt))):
        rows = sorted(live)
        if rows:
            X = rk4_four_calls(sys, np.array([live[j] for j in rows]), t, dt)
            live = dict(zip(rows, X))
        t += dt
        check(k, t)
    return failures


@pytest.mark.filterwarnings("ignore:invalid value encountered in subtract")
def test_domain_check_matches_the_per_row_rule():
    """Starts that are NaN, ±inf under an infinite bound, out by exactly
    ``INVARIANCE_TOL`` (kept) or by the next float above it (dropped)."""
    sys = mc.parse_system("""
    system box {
      states x1 in [0, 1], x2 in [-1, 0], x3 in (-inf, inf)
      dx1 = -x1
      dx2 = -x2
      dx3 = -x3
    }
    """)
    tol = mc.sim.INVARIANCE_TOL
    above = np.nextafter(tol, 1.0)
    X0 = np.array([
        [0.5, -0.5, 0.0],
        [np.nan, -0.5, 0.0],
        [0.5, -0.5, np.inf],
        [0.5, -0.5, -np.inf],
        [-tol, -0.5, 1e300],
        [-above, -0.5, 0.0],
        [0.5, tol, 0.0],
        [0.5, above, 0.0],
        [2.0, 3.0, 0.0],
        [2.0, 1.0, 0.0],
    ])
    batch = integrate_batch(sys, X0, 0.05, dt=1e-2)
    want = _failures_by_rule(sys, X0, 0.05, 1e-2)
    assert set(want) == {1, 2, 3, 5, 7, 8, 9}
    assert batch.failures == want
    for j in (0, 4, 6):
        assert np.all(np.isfinite(batch.trajectory(j).x))
    # each start beside an interior one, so that it alone decides the check
    for j in range(1, len(X0)):
        pair = X0[[0, j]]
        got = integrate_batch(sys, pair, 0.05, dt=1e-2).failures
        assert got == _failures_by_rule(sys, pair, 0.05, 1e-2), j


def test_domain_check_mid_run_matches_the_per_row_rule(rotation):
    """Starts that leave [-1, 1]^2 at different steps, or never."""
    X0 = np.array([[0.5, 0.0], [0.8, -0.7], [0.3, 0.3], [-0.75, 0.75],
                   [0.9, 0.9], [0.0, -0.7]])
    batch = integrate_batch(rotation, X0, 2.0, dt=1e-2)
    want = _failures_by_rule(rotation, X0, 2.0, 1e-2)
    assert set(want) == {1, 3, 4}
    assert len({k for k, _, _ in want.values()}) == 3
    assert batch.failures == want


def test_batch_matches_single_bitwise(ex1):
    """Lockstep batch integration is the same arithmetic as one-at-a-time."""
    X0 = np.array([[1.0, 2.0], [0.5, 0.25], [3.0, 3.0]])
    batch = integrate_batch(ex1, X0, 1.0, dt=1e-2)
    assert isinstance(batch, BatchTrajectories)
    assert batch.n_trajectories == 3
    for j in range(3):
        single = integrate(ex1, X0[j], 1.0, dt=1e-2)
        assert np.array_equal(batch.trajectory(j).x, single.x)
        assert np.array_equal(batch.t, single.t)


def test_batch_step_error_is_per_trajectory(ex1):
    X0 = np.array([[1.0, 2.0], [0.5, 0.25], [3.0, 3.0]])
    batch = integrate_batch(ex1, X0, 1.0, dt=1e-2)
    errs = [batch.trajectory(j).max_step_error for j in range(3)]
    for j in range(3):
        assert errs[j] == integrate(ex1, X0[j], 1.0, dt=1e-2).max_step_error
    assert len(set(errs)) == 3


def test_mixed_batch_aborts_only_the_row_that_leaves(rotation):
    """Row 2 starts inside [-1, 1]^2 at radius 1.06 and leaves mid-run;
    the other rows finish exactly as they would alone."""
    X0 = np.array([[0.5, 0.0], [0.0, -0.7], [0.8, -0.7], [0.3, 0.3]])
    batch = integrate_batch(rotation, X0, 2.0, dt=1e-2)
    assert set(batch.failures) == {2}
    for j in (0, 1, 3):
        single = integrate(rotation, X0[j], 2.0, dt=1e-2)
        got = batch.trajectory(j)
        assert np.array_equal(got.x, single.x)
        assert np.array_equal(got.t, single.t)
        assert got.max_step_error == single.max_step_error
    with pytest.raises(SimulationError) as alone:
        integrate(rotation, X0[2], 2.0, dt=1e-2)
    with pytest.raises(SimulationError) as batched:
        batch.trajectory(2)
    assert str(alone.value).startswith("trajectory 0 left the domain at t=0.3")
    assert str(batched.value) == str(alone.value).replace(
        "trajectory 0 ", "trajectory 2 ", 1)


def _single_failures(sys, X0, t_end, dt):
    """(failure time, message) of every start that fails when run alone."""
    out = {}
    for j, x0 in enumerate(X0):
        try:
            integrate(sys, x0, t_end, dt=dt)
        except SimulationError as exc:
            msg = str(exc)
            out[j] = (float(msg.split("t=")[1].split(":")[0]), msg)
    return out


def test_entrainment_raises_the_earliest_failure():
    # dx = 1 drifts out of [0, 10]: the start at 9.5 leaves first, at
    # about t = 0.5, the start at 8 at about t = 2
    drift = _scalar("1 + 0*sin(t)", lo="0", hi="10", extra="period 1")
    X0 = np.array([[8.0], [9.5], [1.0]])
    alone = _single_failures(drift, X0, 5.0, 5e-3)
    assert set(alone) == {0, 1} and alone[1][0] < alone[0][0]
    with pytest.raises(SimulationError) as exc:
        entrainment_test(drift, X0, horizon_periods=5, dt=5e-3)
    assert str(exc.value) == alone[1][1].replace("trajectory 0 ",
                                                 "trajectory 1 ", 1)


def test_contraction_rate_raises_the_earliest_failure(rotation):
    fam = mc.WeightFamily.constant("theta", [1.0, 1.0])
    box = mc.WorkingBox((-1.0, -1.0), (1.0, 1.0))
    # the starts estimate_contraction_rate draws for seed 2, 4 pairs
    rng = np.random.default_rng(2)
    X0 = -1.0 + 2.0 * rng.random((8, 2))
    alone = _single_failures(rotation, X0, 3.0, 1e-3)
    times = sorted(t for t, _ in alone.values())
    assert len(times) >= 2 and times[0] < times[1]
    first = min(alone, key=lambda j: alone[j][0])
    assert first != 0
    with pytest.raises(SimulationError) as exc:
        estimate_contraction_rate(rotation, fam, pairs=4, box=box,
                                  t_end=3.0, seed=2)
    assert str(exc.value) == alone[first][1].replace(
        "trajectory 0 ", f"trajectory {first} ", 1)


def test_contraction_rate_stops_at_the_first_failure(rotation, monkeypatch):
    """The pairs stop integrating after the step at which the first start
    leaves the domain (t = 0.21 for seed 2), not at t_end = 3, and the
    raised diagnostic is that earliest failure."""
    fam = mc.WeightFamily.constant("theta", [1.0, 1.0])
    box = mc.WorkingBox((-1.0, -1.0), (1.0, 1.0))
    ends = []
    rk4_step = mc.SystemDef.rk4_step

    def counted(self, X, t, h):
        ends.append(t + h)
        return rk4_step(self, X, t, h)

    monkeypatch.setattr(mc.SystemDef, "rk4_step", counted)
    with pytest.raises(SimulationError,
                       match=r"^trajectory 3 left the domain at t=0\.21:"):
        estimate_contraction_rate(rotation, fam, pairs=4, box=box,
                                  t_end=3.0, seed=2)
    # one kernel call a step, three on every 16th (the error check)
    steps = 210
    assert steps < len(ends) <= steps + 2 * (steps // 16 + 1)
    assert max(ends) < 0.2105


def test_abort_on_failure_keeps_the_failures_of_that_step(rotation):
    """Two starts that leave at the same step are both recorded, and the
    samples end at that step."""
    X0 = np.array([[0.8, -0.7], [-0.8, 0.7], [0.1, 0.1]])
    full = integrate_batch(rotation, X0, 2.0, dt=1e-2)
    cut = integrate_batch(rotation, X0, 2.0, dt=1e-2, abort_on_failure=True)
    assert set(cut.failures) == set(full.failures) == {0, 1}
    assert cut.failures == full.failures
    k = cut.failures[0][0]
    assert cut.t.shape == (k + 2,)
    assert np.array_equal(cut.x, full.x[:k + 2], equal_nan=True)


def test_to_csv_matches_row_by_row_formatting(tmp_path):
    t = np.array([0.0, 0.1, 0.2, 0.30000000000000004, 1e-300])
    x = np.array([[1.0, -0.0], [np.nan, 2.5e-17], [np.inf, -np.inf],
                  [1 / 3, 123456789.123456789], [-1e300, 5e-324]])
    tr = Trajectory(t, x, 0.1, 0.0, ("a", "b"))
    path = tmp_path / "fast.csv"
    tr.to_csv(path)
    want = "t,a,b\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n"
        for row in zip(t, x[:, 0], x[:, 1]))
    assert path.read_bytes() == want.encode()


def test_trajectory_to_csv(tmp_path, ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "state-sum")
    tr = integrate(ex1, [2.0, 1.0], 0.5, dt=1e-2)
    path = tmp_path / "traj.csv"
    tr.to_csv(path, V=V)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,x1,x2,V"
    assert len(lines) == len(tr.t) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first[:3] == [0.0, 2.0, 1.0]
    assert first[3] == pytest.approx(V.value([2.0, 1.0]), abs=1e-12)


# ---------------------------------------------------------------------------
# domain and argument guards
# ---------------------------------------------------------------------------

def test_domain_exit_aborts_with_diagnostic():
    runaway = _scalar("0*x + 1", lo="0", hi="1")
    with pytest.raises(SimulationError, match=r"left the domain .*x=.*not clamping"):
        integrate(runaway, [0.5], 2.0, dt=1e-2)


def test_nonfinite_state_aborts():
    blowup = _scalar("x^2")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError, match="non-finite state"):
            integrate(blowup, [1.5], 1.0, dt=1e-3)


def test_bad_timespan_and_step(ex1):
    with pytest.raises(SimulationError, match="t_end must exceed"):
        integrate(ex1, [1.0, 1.0], 0.0)
    with pytest.raises(SimulationError, match="t_end must exceed"):
        integrate(ex1, [1.0, 1.0], 1.0, t0=2.0)
    with pytest.raises(SimulationError, match="dt must be positive"):
        integrate(ex1, [1.0, 1.0], 1.0, dt=0.0)


def test_bad_initial_condition_shape(ex1):
    with pytest.raises(SimulationError, match=r"\(B, 2\)"):
        integrate_batch(ex1, np.zeros((3, 5)), 1.0)


def test_initial_condition_outside_domain(ex1):
    with pytest.raises(SimulationError, match="left the domain"):
        integrate(ex1, [-1.0, 0.5], 1.0)


# ---------------------------------------------------------------------------
# Lyapunov decrease along trajectories
# ---------------------------------------------------------------------------

def test_verify_decrease_certified_system(ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "state-sum")
    tr = integrate(ex1, [2.0, 3.0], 20.0, dt=5e-3, save_every=5)
    rep = verify_decrease(V, tr, require_terminal=True)
    assert rep.passed
    assert rep.n_violations == 0
    assert rep.max_violation <= 0.0
    assert rep.first_violation_time is None
    assert rep.terminal_ok is True
    assert rep.terminal <= 1e-6 * rep.initial + 1e-15
    assert rep.initial == pytest.approx(V.value([2.0, 3.0]), abs=1e-12)


def test_verify_decrease_flags_growth():
    grow = linear_system([[1.0]], lo=-5.0, hi=5.0)
    fam = mc.WeightFamily.constant("theta", [1.0])
    V = build_lyapunov(grow, fam, "state-sum")
    tr = integrate(grow, [0.1], 2.0, dt=1e-2)
    rep = verify_decrease(V, tr)
    assert not rep.passed
    assert rep.max_increment > 0.0
    assert rep.n_violations == len(tr.t) - 1
    assert rep.first_violation_time == pytest.approx(tr.t[1], abs=1e-15)
    assert rep.terminal_ok is None
    assert rep.terminal > rep.initial


def test_decrease_report_jsonable(ex1, ex1_theta):
    V = build_lyapunov(ex1, ex1_theta, "state-sum")
    tr = integrate(ex1, [1.0, 1.0], 1.0, dt=1e-2)
    rep = verify_decrease(V, tr)
    obj = rep.to_jsonable()
    assert set(obj) == {"passed", "max_increment", "max_violation",
                        "first_violation_time", "n_violations",
                        "initial", "terminal", "terminal_ok"}
    assert isinstance(rep, DecreaseReport)
    assert len(rep.values) == len(tr.t)


# ---------------------------------------------------------------------------
# contraction-rate validation
# ---------------------------------------------------------------------------

def test_contraction_rate_linear(linear_sym):
    fam = load_family("linear_sym.theta.json")
    rep = estimate_contraction_rate(linear_sym, fam, norm="l1", pairs=4,
                                    t_end=2.0, dt=1e-3, seed=3)
    # identity weights give column sums exactly -1 on both columns
    assert rep.certified_rate == 1.0
    assert rep.passed
    assert rep.ratio_excess <= 1e-6
    assert rep.flow_ratio_excess <= 1e-6
    assert rep.fitted_rate >= 0.99
    assert rep.n_pairs == 4
    assert rep.certificate.passed


def test_contraction_rate_rejects_expansion():
    grow = _scalar("x", lo="-5", hi="5", extra="equilibrium (0)")
    fam = mc.WeightFamily.constant("theta", [1.0])
    rep = estimate_contraction_rate(grow, fam, norm="l1", pairs=3,
                                    t_end=1.0, dt=1e-3,
                                    box=mc.WorkingBox((-1.0,), (1.0,), 11),
                                    seed=5)
    assert not rep.passed
    assert rep.certified_rate == 0.0      # no decay certified, clamped
    # distances grow like e^t, so the unit-ratio bound is exceeded by e - 1
    assert rep.ratio_excess == pytest.approx(math.e - 1.0, rel=1e-6)
    assert rep.fitted_rate == pytest.approx(-1.0, abs=1e-6)


def test_contraction_report_jsonable(linear_sym):
    fam = load_family("linear_sym.theta.json")
    rep = estimate_contraction_rate(linear_sym, fam, norm="l1", pairs=2,
                                    t_end=0.5, dt=1e-2, seed=1)
    assert isinstance(rep, ContractionReport)
    obj = rep.to_jsonable()
    assert obj["certified_rate"] == 1.0
    assert obj["certificate"]["condition"] == "cor3-l1"


# ---------------------------------------------------------------------------
# entrainment
# ---------------------------------------------------------------------------

def test_entrainment_cubic_converges():
    cubic = load_system("entrain_cubic")
    rep = entrainment_test(cubic, [-2.0, 0.0, 2.0], horizon_periods=40,
                           dt=5e-3)
    assert rep.passed
    assert rep.checks == {"pairwise_nonincreasing": True,
                          "geometric_decay": True, "final_mutual": True}
    assert rep.final_spread < 1e-4
    assert rep.spread.shape == (41,)
    assert rep.increments.shape == (40, 3)
    assert rep.period == pytest.approx(2.0 * math.pi, abs=1e-12)


def test_entrainment_zero_field_fails():
    zero = load_system("entrain_zero")
    rep = entrainment_test(zero, [-1.0, 1.0], horizon_periods=6, dt=5e-3)
    assert not rep.passed
    assert rep.checks["pairwise_nonincreasing"] is True
    assert rep.checks["geometric_decay"] is False
    assert rep.checks["final_mutual"] is False
    assert rep.final_spread == 2.0   # nothing ever moves


def test_entrainment_guards(ex1):
    with pytest.raises(SimulationError, match="declared period"):
        entrainment_test(ex1, [[0.0, 0.0], [1.0, 1.0]])
    cubic = load_system("entrain_cubic")
    with pytest.raises(SimulationError, match="at least two"):
        entrainment_test(cubic, [0.5])


def test_entrain_report_jsonable():
    zero = load_system("entrain_zero")
    rep = entrainment_test(zero, [-1.0, 1.0], horizon_periods=4, dt=1e-2)
    assert isinstance(rep, EntrainReport)
    obj = rep.to_jsonable()
    assert set(obj) == {"passed", "checks", "final_spread", "period",
                        "n_periods"}
    assert obj["n_periods"] == 4


# ---------------------------------------------------------------------------
# order preservation: monotone flows keep componentwise order
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,lo,hi", [
    ("ex1", 0.0, 3.0),
    ("multiagent", -1.5, 1.5),
    ("traffic4", 0.0, 1.0),
])
def test_flow_preserves_partial_order(name, lo, hi):
    """x0 <= y0 componentwise implies x(t) <= y(t) for Kamke-monotone
    fields; checked on 20 sampled ordered pairs per system."""
    sys = load_system(name)
    rng = np.random.default_rng(41)
    X = rng.uniform(lo, hi, size=(20, sys.n))
    Y = np.minimum(X + rng.uniform(0.0, (hi - lo) / 2, size=(20, sys.n)), hi)
    batch = integrate_batch(sys, np.concatenate([X, Y], axis=0), 5.0,
                            dt=5e-3, save_every=10)
    gap = batch.x[:, :20, :] - batch.x[:, 20:, :]
    assert float(np.max(gap)) <= 1e-9


def test_rotation_does_not_preserve_order(rotation):
    """The negative example: a rotation swaps orderings within a quarter
    turn, so the same check must fail."""
    X0 = np.array([[0.0, 0.0], [0.5, 0.5]])
    batch = integrate_batch(rotation, X0, 3.0, dt=1e-2)
    gap = batch.x[:, 0, :] - batch.x[:, 1, :]
    assert float(np.max(gap)) > 0.1
