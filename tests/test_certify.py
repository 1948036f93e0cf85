"""Grid certification checks: hand-derived goldens, analytic cross-checks,
witness semantics, and determinism."""

import functools
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monocert import certify, sysdsl
from monocert.certify import (
    _CONDITIONS, DEFAULT_EPS, DEFAULT_RESOLUTION, CertifyError, WorkingBox,
    _positivity_check, _worst, certify_all,
    check_cor1, check_cor2, check_cor3, check_kamke, check_thm1, check_thm2,
    grid_condition_values, grid_mu_values, partition, row_groups,
)
from monocert.measures import WeightFamily, mu1, mu_inf
from monocert.sim import estimate_contraction_rate
from monocert.synth import synth_const
from monocert.sysdsl import TIE_TOL, ExprMatrix, jacobian, parse_system

from conftest import (CORPUS, linear_system, load_family, load_system,
                      random_family)
from oracles import (evaluate, field_at, matrix_at, partition_groups,
                     patterns_at, scaled_jacobian_at, worst_entry)

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


def test_box_point_count_is_exact_and_bounded():
    """Grids are counted in Python ints and refused above int64 indices:
    2^63 - 1 points is the largest grid, 65537^4 ~ 1.8e19 is refused."""
    assert WorkingBox((0.0,), (1.0,), 2 ** 63 - 1).n_points == 2 ** 63 - 1
    assert WorkingBox((0.0,) * 3, (1.0,) * 3, 2 ** 21 - 1).n_points == \
        (2 ** 21 - 1) ** 3
    for n, resolution in ((1, 2 ** 63), (3, 2 ** 21), (4, 65536),
                          (4, 65537), (64, 3)):
        with pytest.raises(CertifyError, match="2\\^63 - 1"):
            WorkingBox((0.0,) * n, (1.0,) * n, resolution)


@pytest.mark.parametrize("eps", [-1.0, 0.0, float("nan"), float("inf")])
def test_eps_not_positive_is_a_certify_error(eps):
    """Before, a negative eps turned failing equilibrium checks into
    pass-with-margin, and a NaN one failed them all."""
    traffic4 = load_system("traffic4")
    fam = load_family("traffic4.v.json")
    with pytest.raises(CertifyError, match="eps must be positive and finite"):
        certify_all(traffic4, [fam], eps=eps)
    with pytest.raises(CertifyError, match="eps must be positive and finite"):
        check_thm1(traffic4, fam, eps=eps)


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


@pytest.mark.parametrize("run, grids", [
    (lambda sysd, fam: check_thm1(sysd, fam), [DEFAULT_RESOLUTION]),
    (lambda sysd, fam: certify_all(sysd, [fam]), [DEFAULT_RESOLUTION]),
    (lambda sysd, fam: estimate_contraction_rate(sysd, fam, pairs=1,
                                                 t_end=0.01),
     [DEFAULT_RESOLUTION]),
    # the synthesis box, then the box of the post-hoc check_cor1: the
    # doubled 21-point synthesis grid, 41 points again
    (lambda sysd, fam: synth_const(sysd), [DEFAULT_RESOLUTION, 41]),
], ids=["check_thm1", "certify_all", "estimate_contraction_rate",
        "synth_const"])
def test_a_box_is_validated_once(linear_sym, monkeypatch, run, grids):
    """Without a box each entry point takes the default box, and each
    check validates the box it is given once.  Before, ``default_for``
    validated the default box and its caller validated it again."""
    seen = []
    validate = WorkingBox.validate_for

    def spy(box, sysd):
        seen.append(box)
        validate(box, sysd)

    monkeypatch.setattr(WorkingBox, "validate_for", spy)
    run(linear_sym, load_family("linear_sym.theta.json"))
    box = WorkingBox.default_for(linear_sym)
    assert seen == [box.with_resolution(r) for r in grids]


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


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_grid_mu_values_match_the_matrix_product_oracle(norm, ex1,
                                                        multiagent):
    """The batched cor3 measure at every grid point equals the measure of
    Theta J Theta^-1 + diag(Theta' f) Theta^-1 built point by point."""
    kind, mu = ("theta", mu1) if norm == "l1" else ("omega", mu_inf)
    rng = np.random.default_rng(61 if norm == "l1" else 62)
    for sys in (ex1, multiagent):
        box = WorkingBox((0.0,) * sys.n, (1.0,) * sys.n, 5)
        jb = jacobian(sys)
        points = np.array(list(itertools.product(*box.axes())))
        for _ in range(3):
            fam = random_family(rng, kind, sys.n)
            got = grid_mu_values(sys, fam, box, norm)
            want = []
            for x in points:
                J = matrix_at(jb.branch_matrix(patterns_at(jb, x)[0]), x)
                want.append(mu(scaled_jacobian_at(fam, J, x,
                                                  field_at(sys, x))))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


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


def _constant_vector_worst(sys, box, v, rows):
    """The worst entry of v^T J (columns) or J v (rows) over the grid and
    at the equilibrium, with J evaluated point by point by the oracle."""
    jb = jacobian(sys)

    def worst(points):
        out = -np.inf
        for x in points:
            J = matrix_at(jb.branch_matrix(patterns_at(jb, x)[0]), x)
            out = max(out, *(J @ v if rows else v @ J))
        return out

    return (worst(itertools.product(*box.axes())),
            worst([sys.equilibrium]))


@pytest.mark.parametrize("check,name,rows", [(check_cor1, "cor1", False),
                                             (check_cor2, "cor2", True)])
def test_global_flag_demands_strictness_on_the_whole_box(check, name, rows):
    """dx = -x + x^2/2 on [0, 1]: J = x - 1 reaches 0 at x = 1 and is -1 at
    the equilibrium 0, which passes the corollary and fails its global
    form; on linear_sym, v = (1, 1) gives -1 everywhere."""
    sys = parse_system("""
    system s {
      states x in [0, 1]
      dx = -x + 0.5*x^2
      equilibrium (0)
    }
    """)
    box = WorkingBox((0.0,), (1.0,), 11)
    want, want_eq = _constant_vector_worst(sys, box, np.ones(1), rows)
    assert (want, want_eq) == (0.0, -1.0)
    for flag, condition, verdict in ((False, name, "pass"),
                                     (True, f"{name}-global", "fail")):
        rep = check(sys, [1.0], box, global_flag=flag)
        assert (rep.condition, rep.verdict) == (condition, verdict)
        assert rep.worst_margin == want
        assert rep.equilibrium_margin == want_eq
    linear_sym = load_system("linear_sym")
    box = WorkingBox.default_for(linear_sym, 11)
    want, want_eq = _constant_vector_worst(linear_sym, box, np.ones(2), rows)
    assert (want, want_eq) == (-1.0, -1.0)
    rep = check(linear_sym, [1.0, 1.0], box, global_flag=True)
    assert (rep.condition, rep.verdict) == (f"{name}-global",
                                            "pass-with-margin")
    assert rep.worst_margin == want
    assert rep.equilibrium_margin == want_eq


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
    """Every grid row is covered by exactly the patterns that the per-point
    tie rule of the oracle finds there, in the same order."""
    box = WorkingBox.default_for(traffic4, resolution)
    jb = jacobian(traffic4)
    X = np.array(list(itertools.product(*box.axes())))
    covering = [[] for _ in range(X.shape[0])]
    for rows, tied, patterns in partition(jb, X):
        for r in rows:
            covering[r].extend(patterns)
        assert tied == (len(patterns_at(jb, X[rows[0]])) > 1)
    assert covering == [patterns_at(jb, x) for x in X]
    assert sum(len(p) > 1 for p in covering) == ties
    assert check_kamke(traffic4, box).branch_ties == ties


@functools.lru_cache(maxsize=None)
def _guard_system(kinds: tuple):
    """The branch Jacobian of a system of one guard per entry of ``kinds``,
    guard j being ``min`` or ``max`` of (x_2j+1, x_2j+2), so that a point's
    coordinates are its guards' values a and b."""
    n = 2 * len(kinds)
    states = ", ".join(f"x{i} in (-inf, inf)" for i in range(1, n + 1))
    odes = "".join(f"  dx{2 * j + 1} = {kind}(x{2 * j + 1}, x{2 * j + 2})\n"
                   f"  dx{2 * j + 2} = 0\n" for j, kind in enumerate(kinds))
    return jacobian(parse_system(f"system g {{\n  states {states}\n{odes}}}"))


# guard values: NaN, both infinities, both zeros and finite values, of which
# inf ties with every finite value and with -inf (the gap and the scale are
# both infinite), and a NaN gap (inf - inf included) never ties
_GUARD_VALUES = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                                 1.0, -2.5, 1e300])


@st.composite
def _boundary_pair(draw):
    """(a, b) a few ulps either side of the tie tolerance's boundary, where
    |a−b| = TIE_TOL·(1+|a|+|b|): at about TIE_TOL·(1+2|b|)/(1−TIE_TOL)
    from b, which is exact enough to 3 ulps for these b."""
    b = draw(st.sampled_from([0.0, -0.0, 1.0, -3.0, 1e6]))
    gap = TIE_TOL * (1 + 2 * abs(b)) / (1 - TIE_TOL)
    a = b + draw(st.sampled_from([1.0, -1.0])) * gap
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        a = math.nextafter(a, math.copysign(math.inf, ulps))
    return a, b


_GUARD_PAIRS = st.one_of(st.tuples(_GUARD_VALUES, _GUARD_VALUES),
                         _boundary_pair())
# pairs that never tie, for the guards past the fourth
_UNTIED_PAIRS = st.sampled_from([(math.nan, 1.0), (1.0, math.nan),
                                 (1.0, 2.0), (2.0, -0.0), (-3.0, 4.0)])


@st.composite
def _guarded_points(draw):
    """A system of 1 to 4 guards, or of 41, more than one int64 code word
    holds (39), and points drawn with repeats from a pool of rows; only the
    first 4 guards may tie."""
    k = draw(st.sampled_from([1, 2, 3, 4, 41]))
    kinds = draw(st.lists(st.sampled_from(["min", "max"]), min_size=k,
                          max_size=k))
    pool = draw(st.lists(
        st.tuples(*[_GUARD_PAIRS if j < 4 else _UNTIED_PAIRS
                    for j in range(k)]), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                          max_size=24))
    X = np.array([[v for pair in pool[i] for v in pair] for i in picks])
    return _guard_system(tuple(kinds)), X


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_guarded_points())
def test_partition_matches_a_stable_grouping_of_key_tuples(case):
    """The groups, their order, each group's rows in order, its tie flag
    and its patterns are those of a pure-Python stable sort of the points'
    key tuples, at NaN, infinite and signed-zero guard values, at gaps a
    few ulps either side of the tie tolerance, and past one code word."""
    jb, X = case
    with np.errstate(invalid="ignore"):
        got = partition(jb, X)
    assert [(rows.tolist(), tied, patterns)
            for rows, tied, patterns in got] == partition_groups(jb, X)


def test_partition_matches_tree_walking_patterns_at_nan_gaps():
    """Where a guard's gap a − b is NaN (a = b = ±inf, or a NaN state), the
    guard neither ties nor takes the right side: ``partition`` and the
    per-point oracle both take its left, for ``min`` and ``max``."""
    jb = _guard_system(("min", "max"))
    inf, nan = math.inf, math.nan
    X = np.array([[inf, inf, inf, inf], [-inf, -inf, -inf, -inf],
                  [inf, inf, -inf, -inf], [nan, 0.0, 0.0, nan],
                  [nan, nan, nan, nan], [1.0, 2.0, 4.0, 3.0],
                  [2.0, 1.0, 3.0, 4.0]])
    covering = [[] for _ in X]
    with np.errstate(invalid="ignore"):
        for rows, tied, patterns in partition(jb, X):
            for r in rows:
                covering[r].extend(patterns)
    assert covering == [patterns_at(jb, x) for x in X]
    assert covering[:5] == [[("left", "left")]] * 5


# condition values with NaN, both zeros and repeated maxima
_TIE_VALUES = st.sampled_from([np.nan, 0.0, -0.0, 1.0, -1.0, 2.0, -np.inf,
                               np.inf])


@st.composite
def _condition_blocks(draw):
    """m rows split into groups (not in row order), each group with 1 to 3
    blocks (tied branches) of c components."""
    m = draw(st.integers(1, 12))
    c = draw(st.integers(1, 4))
    group_of = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    blocks = []
    for g in draw(st.permutations(sorted(set(group_of)))):
        rows = np.array([r for r in range(m) if group_of[r] == g])
        for _ in range(draw(st.integers(1, 3))):
            vals = draw(st.lists(_TIE_VALUES, min_size=c * len(rows),
                                 max_size=c * len(rows)))
            blocks.append((rows, np.array(vals).reshape(c, len(rows))))
    return m, blocks


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(_condition_blocks())
def test_worst_entry_matches_the_argmax_first_oracle(case):
    """Folded over the blocks, the reduction gives the argmax-first scan's
    row, component and value bits, though it locates rows on numpy maxima,
    whose zero sign may differ from the entries' (np.maximum(0.0, -0.0) can
    return -0.0)."""
    m, blocks = case
    best = None
    for rows, cond in blocks:
        best = _worst(best, rows, cond)
    row, comp, value = best
    want_row, want_comp, want_value = worst_entry(m, blocks)
    assert (row, comp) == (want_row, want_comp)
    assert np.float64(value).tobytes() == np.float64(want_value).tobytes()


@pytest.mark.parametrize("n", range(1, 8))
def test_contractions_keep_the_points_first_einsum_bits(n):
    """theta^T J and J omega on points-last arrays give, bit for bit and
    zero signs included, what np.einsum gave on (m, n, n) Jacobians, so
    reports do not move with the layout."""
    rng = np.random.default_rng(60 + n)
    J = rng.normal(size=(257, n, n)) * 10.0 ** rng.integers(-8, 9, (257, n, n))
    w = rng.normal(size=(257, n)) * 10.0 ** rng.integers(-8, 9, (257, n))
    for a in (J, w):
        a[rng.random(a.shape) < 0.15] = 0.0
        a[rng.random(a.shape) < 0.15] = -0.0
    for mode, spec in (("sum", "mi,mij->mj"), ("max", "mij,mj->mi")):
        got = _CONDITIONS[mode][1](w.T, np.moveaxis(J, 0, -1)).T
        want = np.einsum(spec, *((w, J) if mode == "sum" else (J, w)))
        assert np.ascontiguousarray(got).tobytes() == want.tobytes(), mode


def _tied_hole(at: int):
    """dx1 has a min guard that ties on the plane x2 = x3: 81 points of
    the 9^3 grid on [0, 8]^3, the origin first, where both branches reach
    the Kamke violation 1, the left one at J12 and the right one at J13.
    dx1 is NaN (0/0) on the plane x1 = a, which starts at grid row 81a."""
    return parse_system(f"""
    system tied_hole {{
        states x1 in [0, 8], x2 in [0, 8], x3 in [0, 8]
        dx1 = -x1 - min(x2, x3) + x2 - x2*(x1 - {at})/(x1 - {at})
        dx2 = -x2 + 0.5*x1
        dx3 = -x3 + 0.5*x1
        equilibrium (0, 0, 0)
    }}
    """)


def _kamke_oracle(sysd, box) -> tuple:
    """The Kamke witness by the oracles: the per-point tie rule, the branch
    Jacobians tree-walked in Python floats (a 0/0 read as NaN), and the
    argmax-first scan over blocks, block k holding the k-th tied branch of
    every point that has one.  Returns (point, [i, j], value)."""
    jb, n = jacobian(sysd), sysd.n

    def entry(e, x):
        try:
            return evaluate(e, x)
        except ZeroDivisionError:
            return float("nan")

    blocks = []
    for r, x in enumerate(itertools.product(*box.axes())):
        for k, pattern in enumerate(patterns_at(jb, x)):
            if k == len(blocks):
                blocks.append(([], []))
            J = [[entry(e, x) for e in row]
                 for row in jb.branch_matrix(pattern).entries]
            blocks[k][0].append(r)
            blocks[k][1].append([-math.inf if i == j else -J[i][j]
                                 for i in range(n) for j in range(n)])
    row, c, value = worst_entry(box.n_points, [(rows, np.array(cond).T)
                                               for rows, cond in blocks])
    return [float(v) for v in box._grid.point(row)], [c // n, c % n], value


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_reports_do_not_depend_on_the_chunk_size(traffic4, chunk, monkeypatch):
    """The first worst point wins across chunk boundaries too: tied
    traffic4 grids, with both families, give the same reports in chunks of
    1, 5 and 64 points as in one chunk.  So does a grid whose tied points
    span several chunks and hold the worst value first, with and without
    a first NaN past the first chunk; its Kamke witness is the oracle's."""
    cases = [(traffic4, WorkingBox.default_for(traffic4, 7),
              [load_family("traffic4.v.json"),
               WeightFamily.from_jsonable(
                   json.loads((GOLDEN / "traffic4.w.json").read_text()))])]
    for at in (5, 10):   # the NaN plane from grid row 405, or off the grid
        sysd = _tied_hole(at)
        cases.append((sysd, WorkingBox.default_for(sysd, 9),
                      [WeightFamily.constant("theta", [1.0, 1.0, 1.0])]))
    for sysd, box, fams in cases:
        monkeypatch.setattr(certify, "_CHUNK", box.n_points)
        want = [r.to_jsonable() for r in certify_all(sysd, fams, box)]
        monkeypatch.setattr(certify, "_CHUNK", chunk)
        got = certify_all(sysd, fams, box)
        assert json.dumps([r.to_jsonable() for r in got]) == json.dumps(want)
        if sysd is traffic4:
            continue
        point, comp, value = _kamke_oracle(sysd, box)
        assert got[0].witness["point"] == point
        assert got[0].witness["component"] == comp
        if math.isnan(value):
            assert point == [5.0, 0.0, 0.0]
            assert math.isnan(got[0].worst_margin)
        else:
            assert (point, comp, value) == ([0.0, 0.0, 0.0], [0, 1], 1.0)
            assert np.float64(got[0].worst_margin).tobytes() == \
                np.float64(value).tobytes()


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
    assert [r.positivity for r in got] == [r.positivity for r in want]


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


def test_certify_all_evaluates_a_branch_pattern_once_per_full_batch(
        traffic4, monkeypatch):
    """A piecewise grid pools the points of each partition key across
    chunks: traffic4 at resolution 17 (21 chunks) calls its Jacobian with at
    most _CHUNK points, and at most ceil(points / _CHUNK) times per pattern
    of each key, plus once per pattern at x*.  Per chunk fragment, as
    before, it took about 500 calls."""
    calls = []
    evaluate_batch = ExprMatrix.evaluate_batch

    def counted(self, X, t=None):
        calls.append(len(X))
        return evaluate_batch(self, X, t)

    monkeypatch.setattr(ExprMatrix, "evaluate_batch", counted)
    box = WorkingBox.default_for(traffic4, 17)
    certify_all(traffic4, load_family("traffic4.v.json"), box)
    jb = jacobian(traffic4)
    X = np.array(list(itertools.product(*box.axes())))
    keys = {}
    for rows, _, patterns in partition(jb, X):
        keys[tuple(patterns)] = keys.get(tuple(patterns), 0) + len(rows)
    batches = sum(-(-m // certify._CHUNK) * len(p) for p, m in keys.items())
    at_eq = len(partition(jb, np.array([traffic4.equilibrium]))[0][2])
    assert max(calls) <= certify._CHUNK
    assert len(calls) <= batches + at_eq


def test_two_checks_build_each_branch_matrix_once(monkeypatch):
    """The branch Jacobian is kept on the system: later checks, and
    synthesis after them, differentiate each Jacobian row and compile each
    branch matrix no more than once."""
    traffic4 = load_system("traffic4")
    calls = {"differentiate": 0, "compile_expr": 0}

    def counted(name):
        real = getattr(sysdsl, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(sysdsl, name, wrapper)

    counted("differentiate")
    counted("compile_expr")
    box = WorkingBox.default_for(traffic4, 9)
    v = load_family("traffic4.v.json")
    check_kamke(traffic4, box)
    after_first = dict(calls)
    after_first_cache = dict(jacobian(traffic4)._matrix_cache)
    check_thm1(traffic4, v, box)
    check_cor1(traffic4, [1.0, 1.25, 1.5625, 1.953125], box)
    assert calls == after_first
    jb = jacobian(traffic4)
    assert jb is jacobian(traffic4)
    synth_const(traffic4, box, mode="sum")
    # one differentiation per entry of each distinct row, and one kernel
    # per branch matrix
    n_built = len(jb._matrix_cache)
    assert calls["differentiate"] == traffic4.n * len(jb._row_cache)
    assert calls["compile_expr"] == after_first["compile_expr"] + \
        n_built - len(after_first_cache)


def test_constant_branch_matrices_exec_no_generated_code(monkeypatch):
    """traffic4 is piecewise affine, so each of its branch Jacobians is a
    matrix of constants, which compiles to no generated source: parsing it,
    certifying it with its weights and synthesizing constant weights execs
    two, the field's and the guards'.  Each evaluation of a branch matrix
    is a fresh, writable array, so writing into one leaves the next as it
    was."""
    sources = []

    def define(src, consts):
        sources.append(src)
        return real(src, consts)
    real = sysdsl._define
    monkeypatch.setattr(sysdsl, "_define", define)
    traffic4 = load_system("traffic4")
    box = WorkingBox.default_for(traffic4, 9)
    certify_all(traffic4, load_family("traffic4.v.json"), box)
    synth_const(traffic4, box, mode="sum")
    jb = jacobian(traffic4)
    assert len(jb._matrix_cache) == 2 ** jb.n_guards == 16
    assert len(sources) == 2

    X = np.array([box.lows, box.highs])
    for pattern, mat in jb.branches():
        J = mat.evaluate_batch(X)
        want = np.array([[[evaluate(e, x) for e in row] for row in mat.entries]
                         for x in X])
        np.testing.assert_array_equal(J, want)
        again = mat.evaluate_batch(X)
        assert again is not J and again.flags.writeable
        J[...] = np.nan
        np.testing.assert_array_equal(again, want)
        np.testing.assert_array_equal(mat.evaluate_batch(X), want)
    assert len(sources) == 2


def test_row_groups_match_np_unique_rows():
    """The lexsort grouping gives the rows np.unique(axis=0) gives, in the
    same order, each group in original row order."""
    rng = np.random.default_rng(5)
    for n_cols in (1, 3, 6):
        key = rng.integers(-2, 3, size=(400, n_cols)).astype(float) / 4
        key[rng.random(key.shape) < 0.1] = -0.0
        order, starts = row_groups(key)
        np.testing.assert_array_equal(key[order[np.r_[0, starts]]],
                                      np.unique(key, axis=0))
        groups = np.split(order, starts)
        assert sorted(np.concatenate(groups).tolist()) == list(range(400))
        for rows in groups:
            assert np.all(key[rows] == key[rows[0]])
            assert np.all(np.diff(rows) > 0)


# ---------------------------------------------------------------------------
# argument validation
# ---------------------------------------------------------------------------

def test_weight_dimension_mismatch(ex1, ex1_box):
    with pytest.raises(CertifyError, match="dimension"):
        check_thm1(ex1, WeightFamily.constant("theta", [1.0]), ex1_box)
    with pytest.raises(CertifyError, match="dimension"):
        check_cor1(ex1, [1.0, 1.0, 1.0], ex1_box)


def test_cor1_requires_positive_vector(ex1, ex1_box):
    with pytest.raises(CertifyError, match=r"^theta positivity violated on "
                       r"the box: component 2 reaches -1 at x=0$"):
        check_cor1(ex1, [1.0, -1.0], ex1_box)
    with pytest.raises(CertifyError, match=r"^omega positivity violated on "
                       r"the box: component 1 reaches 0 at x=0$"):
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
    # the message names the component, its minimum and where it is reached
    dip = WeightFamily("omega", ((0.5,), (1.0, -2.0, 1.0)))  # (1 - x2)^2
    with pytest.raises(CertifyError, match=r"component 2 reaches 0 at x=1$"):
        _positivity_check(dip, WorkingBox((0.0, 0.0), (3.0, 3.0), 7))


def test_a_nan_family_is_refused_by_thm1_and_cor3(ex1, ex1_box):
    # theta_2 = 1 + NaN x is NaN at every point, x2 = 0 the first
    fam = WeightFamily("theta", ((1.0,), (1.0, np.nan)))
    message = (r"^theta positivity violated on the box: component 2 "
               r"reaches nan at x=0$")
    with pytest.raises(CertifyError, match=message):
        check_thm1(ex1, fam, ex1_box)
    with pytest.raises(CertifyError, match=message):
        check_cor3(ex1, fam, "l1", ex1_box)


def test_cor1_refuses_the_weights_thm1_refuses(ex1, ex1_box):
    v = [1e-13, 1.0]
    message = (r"^theta positivity violated on the box: component 1 "
               r"reaches 1e-13 at x=0$")
    with pytest.raises(CertifyError, match=message):
        check_thm1(ex1, WeightFamily.constant("theta", v), ex1_box)
    with pytest.raises(CertifyError, match=message):
        check_cor1(ex1, v, ex1_box)
    with pytest.raises(CertifyError, match=message.replace("theta", "omega")):
        check_cor2(ex1, v, ex1_box)


@pytest.mark.parametrize("weights, message", [
    # 1/0 is inf on the whole axis: the first point, x1 = 0
    (({"reciprocal": [0.0]}, (1.0,)), "component 1 reaches inf at x=0"),
    # 1e308 (1 + x1) overflows from x1 = 0.825, the first grid point past
    # 0.797 on the 41 points of [0, 3]
    (((1e308, 1e308), (1.0,)), "component 1 reaches inf at x=0.825"),
], ids=["reciprocal-of-zero", "overflow"])
def test_non_finite_weights_are_refused_without_a_warning(ex1, ex1_box,
                                                          weights, message):
    fam = WeightFamily("theta", weights)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (lambda: check_thm1(ex1, fam, ex1_box),
                    lambda: certify_all(ex1, fam, ex1_box)):
            with pytest.raises(CertifyError, match=message + "$"):
                run()


@pytest.mark.parametrize("run", [
    lambda sysd, w: check_cor1(sysd, w),
    lambda sysd, w: check_cor2(sysd, w),
    lambda sysd, w: check_cor3(sysd, w, norm="l1"),
    lambda sysd, w: check_cor3(sysd, w, norm="linf"),
    lambda sysd, w: estimate_contraction_rate(sysd, w, norm="linf", pairs=1,
                                              t_end=0.01),
], ids=["cor1", "cor2", "cor3-l1", "cor3-linf", "contract"])
def test_constant_weights_must_be_a_flat_vector(linear_sym, run):
    """Before, cor3 and the contraction check raised a TypeError from
    ``float`` on a 2-D list."""
    with pytest.raises(CertifyError,
                       match="^constant weights must be a flat vector$"):
        run(linear_sym, [[1.0, 1.0], [1.0, 1.0]])


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
