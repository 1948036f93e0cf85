"""Grid certification checks: hand-derived goldens, analytic cross-checks,
witness semantics, and determinism."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from monocert.certify import (
    DEFAULT_EPS, CertifyError, WorkingBox, _positivity_check, certify_all,
    check_cor1, check_cor2, check_cor3, check_kamke, check_thm1, check_thm2,
    grid_condition_values, grid_mu_values, partition,
)
from monocert.measures import WeightFamily
from monocert.sysdsl import ExprMatrix, jacobian, parse_system

from conftest import CORPUS, linear_system, load_system

GOLDEN = Path(__file__).resolve().parent / "golden"


# ---------------------------------------------------------------------------
# WorkingBox
# ---------------------------------------------------------------------------

def test_box_from_string():
    box = WorkingBox.from_string("0:3,-1:2.5", resolution=11)
    assert box.lows == (0.0, -1.0)
    assert box.highs == (3.0, 2.5)
    assert box.resolution == 11
    assert box.n == 2 and box.n_points == 121


@pytest.mark.parametrize("bad", ["0:3,1", "1:1", "3:0", "0:inf", "a:b"])
def test_box_from_string_rejects(bad):
    with pytest.raises((CertifyError, ValueError)):
        WorkingBox.from_string(bad)


def test_box_resolution_floor():
    with pytest.raises(CertifyError, match="resolution"):
        WorkingBox((0.0,), (1.0,), resolution=1)


def test_box_refined_is_superset():
    box = WorkingBox((0.0, -1.0), (3.0, 2.0), resolution=41)
    fine = box.refined()
    assert fine.resolution == 81
    for a, b in zip(box.axes(), fine.axes()):
        np.testing.assert_array_equal(b[::2], a)


def test_box_default_for_requires_finite_domain(ex1, multiagent):
    with pytest.raises(CertifyError, match="unbounded"):
        WorkingBox.default_for(ex1)
    box = WorkingBox.default_for(multiagent)
    assert box.lows == (-2.0, -2.0, -2.0)
    assert box.highs == (2.0, 2.0, 2.0)


def test_box_validate_for(ex1):
    with pytest.raises(CertifyError, match="dimension"):
        WorkingBox((0.0,), (1.0,)).validate_for(ex1)
    with pytest.raises(CertifyError, match="not inside"):
        WorkingBox((-1.0, 0.0), (3.0, 3.0)).validate_for(ex1)
    with pytest.raises(CertifyError, match="equilibrium"):
        WorkingBox((1.0, 1.0), (2.0, 2.0)).validate_for(ex1)
    WorkingBox((0.0, 0.0), (3.0, 3.0)).validate_for(ex1)  # fine


# ---------------------------------------------------------------------------
# ex1 goldens (analytically derived; see docstrings for the closed forms)
# ---------------------------------------------------------------------------

def test_ex1_thm1_condition_identically_minus_one(ex1, ex1_theta, ex1_box):
    """theta = (1, 1+x2) gives condition components == -1 everywhere:
    column 1: 1*(-1) = -1; column 2: 1*(2 x2) + (1+x2)*(-1) + 1*(-x2) = -1."""
    vals = grid_condition_values(ex1, ex1_theta, ex1_box, "sum")
    assert vals.shape == (41 * 41, 2)
    np.testing.assert_allclose(vals, -1.0, atol=1e-12)


def test_ex1_thm1_report(ex1, ex1_theta, ex1_box):
    rep = check_thm1(ex1, ex1_theta, ex1_box)
    assert rep.verdict == "pass-with-margin"
    assert rep.passed
    assert rep.worst_margin == pytest.approx(-1.0, abs=1e-12)
    assert rep.equilibrium_margin == pytest.approx(-1.0, abs=1e-12)
    assert rep.branch_ties == 0
    assert rep.positivity["c"] == 1.0  # min theta on the box


def test_ex1_thm2_golden(ex1, ex1_omega, ex1_box):
    """omega = (2, 1/(1+x2)): row 1 of J omega - omegadot is
    -2 + 2 x2/(1+x2); row 2 is -(1+2 x2)/(1+x2)^2, worst -7/16 at x2 = 3."""
    rep = check_thm2(ex1, ex1_omega, ex1_box)
    assert rep.verdict == "pass-with-margin"
    assert rep.worst_margin == pytest.approx(-0.4375, abs=1e-12)
    assert rep.witness["point"][1] == pytest.approx(3.0)
    assert rep.witness["component"] == 1
    assert rep.equilibrium_margin == pytest.approx(-1.0, abs=1e-12)

    vals = grid_condition_values(ex1, ex1_omega, ex1_box, "max")
    X2 = np.meshgrid(*ex1_box.axes(), indexing="ij")[1].ravel()
    np.testing.assert_allclose(vals[:, 0], -2.0 + 2.0 * X2 / (1 + X2), atol=1e-12)
    np.testing.assert_allclose(vals[:, 1], -(1 + 2 * X2) / (1 + X2) ** 2, atol=1e-12)


def test_ex1_cor3_goldens(ex1, ex1_theta, ex1_omega, ex1_box):
    """Both weighted measures reduce to -1/(1+x2), worst -1/4 at x2 = 3."""
    rep1 = check_cor3(ex1, ex1_theta, "l1", ex1_box)
    assert rep1.condition == "cor3-l1"
    assert rep1.worst_margin == pytest.approx(-0.25, abs=1e-12)
    repi = check_cor3(ex1, ex1_omega, "linf", ex1_box)
    assert repi.condition == "cor3-linf"
    assert repi.worst_margin == pytest.approx(-0.25, abs=1e-12)

    X2 = np.meshgrid(*ex1_box.axes(), indexing="ij")[1].ravel()
    np.testing.assert_allclose(grid_mu_values(ex1, ex1_theta, ex1_box, "l1"),
                               -1.0 / (1 + X2), atol=1e-12)
    np.testing.assert_allclose(grid_mu_values(ex1, ex1_omega, ex1_box, "linf"),
                               -1.0 / (1 + X2), atol=1e-12)


def test_ex1_kamke_plain_pass(ex1, ex1_box):
    # off-diagonals are 2 x2 >= 0 and 0, so the worst Metzler defect is 0:
    # a pass, but not a strict one
    rep = check_kamke(ex1, ex1_box)
    assert rep.verdict == "pass"
    assert rep.worst_margin == pytest.approx(0.0, abs=1e-15)


def test_ex1_failing_constant_theta(ex1, ex1_box):
    """theta = (1, 1): column 2 gives 2 x2 - 1 > 0 for x2 > 1/2."""
    rep = check_thm1(ex1, WeightFamily.constant("theta", [1.0, 1.0]), ex1_box)
    assert rep.verdict == "fail"
    assert not rep.passed
    assert rep.worst_margin == pytest.approx(5.0, abs=1e-12)
    # ties on the worst value resolve to the lexicographically first point
    assert rep.witness["point"] == [0.0, 3.0]
    assert rep.witness["component"] == 1
    assert rep.witness["value"] == pytest.approx(5.0, abs=1e-12)


# ---------------------------------------------------------------------------
# constant-weight equivalences and measure identities
# ---------------------------------------------------------------------------

def test_cor1_equals_thm1_for_constant_weights(ex1, ex1_box):
    v = [1.0, 7.0]
    r_cor = check_cor1(ex1, v, ex1_box)
    r_thm = check_thm1(ex1, WeightFamily.constant("theta", v), ex1_box)
    assert r_cor.worst_margin == pytest.approx(r_thm.worst_margin, abs=1e-14)
    assert r_cor.equilibrium_margin == pytest.approx(r_thm.equilibrium_margin,
                                                     abs=1e-14)
    # v = (1,7) on [0,3]^2: column 2 = 2 x2 - 7 peaks at -1; column 1 = -1
    assert r_cor.worst_margin == pytest.approx(-1.0, abs=1e-12)


def test_cor2_equals_thm2_for_constant_weights(ex1, ex1_box):
    w = [4.0, 1.0]
    r_cor = check_cor2(ex1, w, ex1_box)
    r_thm = check_thm2(ex1, WeightFamily.constant("omega", w), ex1_box)
    assert r_cor.worst_margin == pytest.approx(r_thm.worst_margin, abs=1e-14)
    # rows of J w: (-4 + 2 x2, -1): worst 2 at x2 = 3
    assert r_cor.worst_margin == pytest.approx(2.0, abs=1e-12)
    assert r_cor.verdict == "fail"


def test_mu_is_normalized_condition_max_for_metzler(ex1, multiagent, ex1_box):
    """For constant weights and Metzler J, mu1(Theta J Theta^-1) equals
    max_j (v^T J)_j / v_j pointwise; dually for mu_inf and rows."""
    rng = np.random.default_rng(61)
    cases = [(ex1, ex1_box), (multiagent, WorkingBox.default_for(multiagent, 9))]
    for sys, box in cases:
        for _ in range(5):
            v = rng.uniform(0.5, 3.0, size=sys.n)
            cond = grid_condition_values(sys, WeightFamily.constant("theta", v),
                                         box, "sum")
            mu = grid_mu_values(sys, WeightFamily.constant("theta", v), box, "l1")
            np.testing.assert_allclose(mu, np.max(cond / v[None, :], axis=1),
                                       atol=1e-12)
            w = rng.uniform(0.5, 3.0, size=sys.n)
            condm = grid_condition_values(sys, WeightFamily.constant("omega", w),
                                          box, "max")
            mui = grid_mu_values(sys, WeightFamily.constant("omega", w), box,
                                 "linf")
            np.testing.assert_allclose(mui, np.max(condm / w[None, :], axis=1),
                                       atol=1e-12)


def test_refinement_never_improves_the_margin(ex1, ex1_theta, ex1_omega):
    """A finer grid is a superset of the coarse one, so the sampled worst
    margin can only move up (toward failing)."""
    coarse = WorkingBox((0.0, 0.0), (3.0, 3.0), resolution=9)
    for fam, check in ((ex1_theta, check_thm1), (ex1_omega, check_thm2)):
        r1 = check(ex1, fam, coarse)
        r2 = check(ex1, fam, coarse.refined())
        assert r2.worst_margin >= r1.worst_margin - 1e-15


def test_linear_system_margin_is_resolution_independent(linear_sym):
    v = [1.0, 1.0]
    margins = []
    for res in (3, 11, 41):
        box = WorkingBox.default_for(linear_sym, res)
        margins.append(check_cor1(linear_sym, v, box).worst_margin)
    assert margins[0] == margins[1] == margins[2] == pytest.approx(-1.0,
                                                                   abs=1e-14)


# ---------------------------------------------------------------------------
# corpus systems
# ---------------------------------------------------------------------------

def test_multiagent_constant_certificates(multiagent):
    box = WorkingBox.default_for(multiagent, 5)  # linear: any grid will do
    r1 = check_cor1(multiagent, [1.0, 1.5, 2.6], box)
    assert r1.verdict == "pass-with-margin"
    assert r1.worst_margin == pytest.approx(-0.1, abs=1e-12)
    r2 = check_cor2(multiagent, [1.0, 1.5, 1.7], box)
    assert r2.verdict == "pass-with-margin"
    assert r2.worst_margin == pytest.approx(-0.2, abs=1e-12)


def test_comparison_system_near_tight_pass(comparison):
    box = WorkingBox.from_string("0:4,0:4", resolution=41)
    rep = check_cor1(comparison, [1.9, 1.0], box)
    assert rep.passed
    assert rep.equilibrium_margin <= -DEFAULT_EPS
    assert -0.02 < rep.worst_margin <= 0.0


def test_traffic_cor1_fails_at_equilibrium(traffic4):
    """The flow out of the last cell exactly balances at x*, so the strict
    equilibrium condition cannot hold with this weight vector."""
    box = WorkingBox.default_for(traffic4, 11)
    rep = check_cor1(traffic4, [1.0, 1.25, 1.5625, 1.953125], box)
    assert rep.verdict == "fail"
    assert rep.equilibrium_margin == pytest.approx(0.0, abs=1e-12)
    assert rep.worst_margin <= 1e-9


def test_traffic_kamke_passes_with_ties(traffic4):
    box = WorkingBox.default_for(traffic4, 11)
    rep = check_kamke(traffic4, box)
    assert rep.passed
    # x_i = 0.9 puts min(0.1, 1 - x_i) exactly on its kink at grid points
    assert rep.branch_ties > 0


def test_rotation_kamke_fails(rotation):
    rep = check_kamke(rotation, WorkingBox.default_for(rotation, 5))
    assert rep.verdict == "fail"
    assert rep.worst_margin == pytest.approx(1.0, abs=1e-14)
    assert rep.witness["component"] == [0, 1]  # J[0,1] = -1 breaks Metzler


def test_scalar_system_kamke_vacuous():
    sysd = parse_system("""
    system decay {
        states u in [-1, 1]
        du = -u
        equilibrium (0)
    }
    """)
    rep = check_kamke(sysd, WorkingBox.default_for(sysd, 5))
    assert rep.passed
    assert rep.worst_margin == -np.inf


# ---------------------------------------------------------------------------
# branch partition and NaN condition values
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("resolution, ties", [(7, 290), (9, 482)])
def test_partition_matches_tree_walking_patterns(traffic4, resolution, ties):
    """Every grid row is covered by exactly the patterns that the
    tree-walking ``patterns_at`` finds there, in the same order."""
    box = WorkingBox.default_for(traffic4, resolution)
    jb = jacobian(traffic4)
    X = np.array(list(itertools.product(*box.axes())))
    covering = [[] for _ in range(X.shape[0])]
    for pattern, rows, tied in partition(jb, X):
        for r in rows:
            covering[r].append(pattern)
        assert tied == (len(jb.patterns_at(X[rows[0]])) > 1)
    assert covering == [jb.patterns_at(x) for x in X]
    assert sum(len(p) > 1 for p in covering) == ties
    assert check_kamke(traffic4, box).branch_ties == ties


def _hole_system(at: int, hi: int):
    """dx1 = -x1 + x2 - x2*(x1 - a)/(x1 - a) is -x1 off the line x1 = a
    and NaN (0/0) on it."""
    return parse_system(f"""
    system hole {{
        states x1 in [0, {hi}], x2 in [0, {hi}]
        dx1 = -x1 + x2 - x2*(x1 - {at})/(x1 - {at})
        dx2 = -x2
        equilibrium (0, 0)
    }}
    """)


# the second case puts the first NaN past the first grid chunk
@pytest.mark.parametrize("at, hi, resolution", [(1, 2, 5), (256, 256, 257)])
def test_nan_condition_fails_at_first_nan_point(at, hi, resolution):
    sysd = _hole_system(at, hi)
    box = WorkingBox.default_for(sysd, resolution)
    axis = [hi * k / (resolution - 1) for k in range(resolution)]
    first_nan = next([a, b] for a in axis for b in axis if a == at)
    with np.errstate(invalid="ignore"):
        reps = [check_kamke(sysd, box), check_cor1(sysd, [1.0, 1.0], box)]
    for rep in reps:
        assert rep.verdict == "fail"
        assert np.isnan(rep.worst_margin)
        assert rep.witness["point"] == first_nan


# ---------------------------------------------------------------------------
# certify_all
# ---------------------------------------------------------------------------

def test_certify_all_single_family(ex1, ex1_theta, ex1_box):
    reports = certify_all(ex1, ex1_theta, ex1_box)
    assert [r.condition for r in reports] == ["kamke", "thm1", "cor3-l1"]
    assert all(r.passed for r in reports)


def test_certify_all_constant_family_adds_cor1(ex1, ex1_box):
    fam = WeightFamily.constant("theta", [1.0, 7.0])
    reports = certify_all(ex1, fam, ex1_box)
    assert [r.condition for r in reports] == ["kamke", "thm1", "cor1", "cor3-l1"]


def test_certify_all_two_families_tagged(ex1, ex1_theta, ex1_omega, ex1_box):
    reports = certify_all(ex1, [ex1_theta, ex1_omega], ex1_box)
    assert [r.condition for r in reports] == [
        "kamke", "thm1#1", "cor3-l1#1", "thm2#2", "cor3-linf#2"]
    assert all(r.passed for r in reports)


def test_certify_all_kamke_failure_does_not_suppress(rotation):
    box = WorkingBox.default_for(rotation, 5)
    reports = certify_all(rotation, WeightFamily.constant("theta", [1.0, 1.0]),
                          box)
    assert reports[0].condition == "kamke" and not reports[0].passed
    assert len(reports) == 4  # thm1, cor1, cor3 still ran


def _one_check_at_a_time(sys, fams, box, eps=DEFAULT_EPS):
    """What certify_all reports, with every check run on its own."""
    reports = [check_kamke(sys, box)]
    for k, fam in enumerate(fams):
        if fam.kind == "theta":
            runs = [check_thm1(sys, fam, box, eps)]
            if fam.is_constant:
                runs.append(check_cor1(sys, fam.constants(), box, eps))
            runs.append(check_cor3(sys, fam, "l1", box, eps))
        else:
            runs = [check_thm2(sys, fam, box, eps)]
            if fam.is_constant:
                runs.append(check_cor2(sys, fam.constants(), box, eps))
            runs.append(check_cor3(sys, fam, "linf", box, eps))
        for rep in runs:
            if len(fams) > 1:
                rep.condition += f"#{k + 1}"
        reports += runs
    return reports


@pytest.mark.parametrize("system, families, resolution", [
    ("traffic4", [CORPUS / "traffic4.v.json"], 9),
    ("traffic4", [GOLDEN / "traffic4.w.json"], 7),
    ("ex1", [CORPUS / "ex1.theta.json", CORPUS / "ex1.omega.json"], 51),
    ("multiagent", [CORPUS / "multiagent.v.json",
                    CORPUS / "multiagent.w.json"], 41),
    ("rotation", [CORPUS / "linear_sym.theta.json"], 5),  # theta = (1, 1)
])
def test_certify_all_equals_each_check_alone(system, families, resolution):
    """One shared grid pass reports exactly what the separate checks do,
    tied branches, witnesses and signs of zero included."""
    sys = load_system(system)
    fams = [WeightFamily.from_jsonable(json.loads(path.read_text()))
            for path in families]
    box = (WorkingBox((0.0, 0.0), (3.0, 3.0), resolution) if system == "ex1"
           else WorkingBox.default_for(sys, resolution))
    got = certify_all(sys, fams, box)
    want = _one_check_at_a_time(sys, fams, box)
    assert [r.to_json() for r in got] == [r.to_json() for r in want]
    assert [(r.positivity, r.notes) for r in got] == [
        (r.positivity, r.notes) for r in want]


def test_certify_all_evaluates_the_jacobian_once_per_chunk(
        ex1, ex1_theta, ex1_omega, monkeypatch):
    """Five checks on a 201^2 grid (10 chunks): at most one Jacobian
    evaluation per chunk, plus one per equilibrium margin."""
    calls = []
    evaluate_batch = ExprMatrix.evaluate_batch

    def counted(self, X, t=None):
        calls.append(len(X))
        return evaluate_batch(self, X, t)

    monkeypatch.setattr(ExprMatrix, "evaluate_batch", counted)
    box = WorkingBox((0.0, 0.0), (3.0, 3.0), 201)
    reports = certify_all(ex1, [ex1_theta, ex1_omega], box)
    n_eq = sum(r.equilibrium_margin is not None for r in reports)
    assert len(reports) == 5 and n_eq == 4
    assert len(calls) <= -(-box.n_points // 4096) + n_eq


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------

def test_weight_dimension_mismatch(ex1, ex1_box):
    with pytest.raises(CertifyError, match="dimension"):
        check_thm1(ex1, WeightFamily.constant("theta", [1.0]), ex1_box)
    with pytest.raises(CertifyError, match="dimension"):
        check_cor1(ex1, [1.0, 1.0, 1.0], ex1_box)


def test_cor1_requires_positive_vector(ex1, ex1_box):
    with pytest.raises(CertifyError, match="positive"):
        check_cor1(ex1, [1.0, -1.0], ex1_box)
    with pytest.raises(CertifyError, match="positive"):
        check_cor2(ex1, [0.0, 1.0], ex1_box)


def test_positivity_violation_is_an_error_not_a_fail(ex1, ex1_box):
    # theta_2 = x2 - 1 crosses zero inside the box: the hypothesis is absent
    fam = WeightFamily("theta", ((1.0,), (-1.0, 1.0)))
    with pytest.raises(CertifyError, match="positivity"):
        check_thm1(ex1, fam, ex1_box)


def test_positivity_check_bounds():
    box = WorkingBox((0.0, 0.0), (3.0, 3.0), 11)
    theta = WeightFamily("theta", ((1.0,), (1.0, 1.0)))
    assert _positivity_check(theta, box)["c"] == 1.0  # smallest sampled theta
    omega = WeightFamily("omega", ((2.0,), {"reciprocal": [1.0, 1.0]}))
    assert _positivity_check(omega, box)["c"] == 2.0  # largest sampled omega
    bad = WeightFamily("theta", ((0.0, 1.0),))  # theta_1 = x1 vanishes at 0
    with pytest.raises(CertifyError, match="positivity"):
        _positivity_check(bad, WorkingBox((0.0,), (1.0,), 5))


def test_cor3_rejects_bad_norm(ex1, ex1_theta, ex1_box):
    with pytest.raises(CertifyError, match="norm"):
        check_cor3(ex1, ex1_theta, "l2", ex1_box)


def test_family_kind_mismatch_rejected(ex1, ex1_omega, ex1_box):
    with pytest.raises(CertifyError, match="theta"):
        check_thm1(ex1, ex1_omega, ex1_box)


def test_missing_equilibrium_is_an_error():
    sysd = parse_system("""
    system noeq {
        states u in [0, 1]
        du = -u + 0.5
    }
    """)
    with pytest.raises(CertifyError, match="equilibrium"):
        check_thm1(sysd, WeightFamily.constant("theta", [1.0]),
                   WorkingBox((0.0,), (1.0,)))


def test_grid_condition_values_which_validated(ex1, ex1_theta, ex1_box):
    with pytest.raises(CertifyError, match="which"):
        grid_condition_values(ex1, ex1_theta, ex1_box, "rows")


# ---------------------------------------------------------------------------
# report shape and determinism
# ---------------------------------------------------------------------------

def test_report_jsonable_keys(ex1, ex1_theta, ex1_box):
    rep = check_thm1(ex1, ex1_theta, ex1_box)
    obj = rep.to_jsonable()
    assert set(obj.keys()) == {
        "condition", "verdict", "worst_margin", "witness", "box",
        "resolution", "eps", "branch_ties", "equilibrium_margin"}
    assert obj["resolution"] == 41
    # round-trips through json text
    assert json.loads(rep.to_json()) == json.loads(rep.to_json())


def test_summary_line_format(ex1, ex1_theta, ex1_box):
    line = check_thm1(ex1, ex1_theta, ex1_box).summary_line()
    assert line.startswith("thm1")
    assert "pass-with-margin" in line
    assert "worst margin -1" in line
    assert "eq margin -1" in line


def test_repeated_runs_bit_identical(traffic4):
    box = WorkingBox.default_for(traffic4, 7)
    a = check_kamke(traffic4, box).to_json()
    b = check_kamke(traffic4, box).to_json()
    assert a == b
