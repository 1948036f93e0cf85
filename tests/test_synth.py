"""LP solver, weight synthesis, and the SOS export/import round trip."""

import json
import math

import numpy as np
import pytest

from monocert.certify import WorkingBox, _dumps, check_cor1, check_kamke
from monocert import synth as synth_mod
from monocert.measures import WeightFamily
from monocert.synth import (
    COEFF_CAP, LPProblem, SynthError, V_CAP, export_sos_sdpa,
    parse_sos_solution, solve_lp, synth_const, synth_poly,
)
from monocert.sysdsl import jacobian, parse_expr, parse_system

from conftest import linear_system, load_system, strict_json
from oracles import evaluate, is_hurwitz, synthesis_rows


# ---------------------------------------------------------------------------
# the LP core
# ---------------------------------------------------------------------------

def lp(c, rows, rhs, lower, upper):
    return LPProblem(c=np.asarray(c, float), rows=np.asarray(rows, float),
                     rhs=np.asarray(rhs, float), lower=np.asarray(lower, float),
                     upper=np.asarray(upper, float))


def test_lp_optimal_vertex():
    # max x + y s.t. x + 2y <= 4, 3x + y <= 6, 0 <= x, y <= 10
    sol = solve_lp(lp([1, 1], [[1, 2], [3, 1]], [4, 6], [0, 0], [10, 10]))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.z, [8 / 5, 6 / 5], atol=1e-9)
    assert sol.objective == pytest.approx(14 / 5, abs=1e-9)


def test_lp_respects_bounds_without_rows():
    sol = solve_lp(lp([1], np.zeros((0, 1)), [], [-np.inf], [2]))
    assert sol.status == "optimal"
    assert sol.z[0] == pytest.approx(2.0, abs=1e-12)


def test_lp_infeasible():
    # u >= 0 and u <= -1
    sol = solve_lp(lp([1], [[1]], [-1], [0], [np.inf]))
    assert sol.status == "infeasible"
    assert sol.z is None


def test_lp_unbounded():
    sol = solve_lp(lp([1], np.zeros((0, 1)), [], [0], [np.inf]))
    assert sol.status == "unbounded"


def test_lp_free_variable_split():
    # max -x with x free, constrained by -x <= 3 (i.e. x >= -3)
    sol = solve_lp(lp([-1], [[-1]], [3], [-np.inf], [np.inf]))
    assert sol.status == "optimal"
    assert sol.z[0] == pytest.approx(-3.0, abs=1e-9)
    assert sol.objective == pytest.approx(3.0, abs=1e-9)


def test_lp_degenerate_vertex():
    # optimum at a degenerate vertex; Bland's rule must still terminate
    sol = solve_lp(lp([1, 1], [[1, 0], [1, 1], [0, 1]], [1, 1, 1],
                      [0, 0], [np.inf, np.inf]))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-9)


def test_lp_matches_random_vertex_enumeration():
    # brute-force all basic feasible points of small random box-bounded LPs
    rng = np.random.default_rng(53)
    from itertools import combinations
    for _ in range(20):
        n = 2
        m = 3
        A = rng.normal(size=(m, n))
        b = rng.uniform(0.5, 2.0, size=m)
        c = rng.normal(size=n)
        lo = np.zeros(n)
        hi = np.full(n, 5.0)
        sol = solve_lp(lp(c, A, b, lo, hi))
        assert sol.status == "optimal"  # the box itself is feasible at 0
        # enumerate candidate vertices: intersections of any 2 tight
        # constraints among rows and bounds
        planes = [(A[i], b[i]) for i in range(m)]
        for k in range(n):
            e = np.zeros(n)
            e[k] = 1.0
            planes.append((e.copy(), hi[k]))
            planes.append((-e.copy(), -lo[k]))
        best = -np.inf
        for p, q in combinations(range(len(planes)), 2):
            M = np.array([planes[p][0], planes[q][0]])
            r = np.array([planes[p][1], planes[q][1]])
            if abs(np.linalg.det(M)) < 1e-9:
                continue
            x = np.linalg.solve(M, r)
            if np.all(A @ x <= b + 1e-9) and np.all(x >= lo - 1e-9) \
                    and np.all(x <= hi + 1e-9):
                best = max(best, float(c @ x))
        assert sol.objective == pytest.approx(best, abs=1e-7)


def test_lp_iteration_limit():
    with pytest.raises(SynthError, match="iteration"):
        solve_lp(lp([1, 1], [[1, 2], [3, 1]], [4, 6], [0, 0], [10, 10]),
                 max_iter=1)


@pytest.mark.parametrize("problem", [
    ([1, 1], [[1, 2], [3, 1]], [4, 6], [0, 0], [10, 10]),       # optimal
    # infeasible with an unbounded dual
    ([1, -2], [[1, 1], [-1, 0]], [-1, -1], [0, 0], [5, 5]),
    # infeasible with an infeasible dual: decided by the feasibility solve
    ([1, 1], [[1, -1], [-1, 1]], [-1, -1], [0, 0], [np.inf, np.inf]),
    ([1, 1], [[1, -1]], [1], [0, -np.inf], [np.inf, np.inf]),   # unbounded
])
def test_lp_iteration_limit_is_the_pivot_count(problem):
    # the budget covers every phase, the feasibility solve included: a
    # limit raises exactly when the unlimited solve needed more pivots
    full = solve_lp(lp(*problem))
    assert full.iterations > 0
    for k in range(full.iterations):
        with pytest.raises(SynthError, match="iteration"):
            solve_lp(lp(*problem), max_iter=k)
    again = solve_lp(lp(*problem), max_iter=full.iterations)
    assert (again.status, again.objective, again.iterations) == \
        (full.status, full.objective, full.iterations)


def test_lp_rejects_nonfinite_rows():
    with pytest.raises(SynthError, match="finite"):
        lp([1], [[np.inf]], [0], [0], [1])


def test_lp_rejects_rows_and_rhs_of_different_lengths():
    with pytest.raises(SynthError, match="^rows/rhs mismatch$"):
        lp([1], [[1], [2]], [0], [0], [1])


# ---------------------------------------------------------------------------
# the synthesis LP's rows, against a point-by-point oracle
# ---------------------------------------------------------------------------

def _near_every_row(A, B, tol=1e-9):
    """Every row of A lies within ``tol`` (max norm) of some row of B.

    Rows are sorted by a positive projection v, and a row of A is compared
    with the rows of B whose projections lie within 2 tol sum(v) of its
    own, a window that holds every row of B within tol of it.
    """
    v = np.random.default_rng(0).uniform(1.0, 2.0, A.shape[1])
    order = np.argsort(B @ v)
    keys = (B @ v)[order]
    width = 2.0 * tol * v.sum()
    lo = np.searchsorted(keys, A @ v - width, side="left")
    hi = np.searchsorted(keys, A @ v + width, side="right")
    for a, start, stop in zip(A, lo, hi):
        near = np.abs(B[order[start:stop]] - a).max(axis=1)
        assert near.min(initial=np.inf) <= tol, a


# (system, box or None for the declared bounds, report mode, degree)
SYNTH_ROW_CASES = {
    "ex1-poly-sum-d2": ("ex1", ((0.0, 0.0), (3.0, 3.0)), "sum", 2),
    "ex1-poly-max-d2": ("ex1", ((0.0, 0.0), (3.0, 3.0)), "max", 2),
    "traffic4-sum": ("traffic4", None, "sum", None),
    # the tied branches' rows depend on x, so no other point repeats them
    "traffic4-poly-sum-d1": ("traffic4", None, "sum", 1),
    "comparison-poly-max-d2": ("comparison", ((0.0, 0.0), (2.0, 2.0)),
                               "max", 2),
    "multiagent-poly-sum-d1": ("multiagent", None, "sum", 1),
    "rotation-poly-sum-d1": ("rotation", None, "sum", 1),
}


@pytest.mark.parametrize("case", sorted(SYNTH_ROW_CASES))
def test_synthesis_lp_rows_match_the_pointwise_oracle(case, monkeypatch):
    """The LP handed to the solver holds the condition rows of every grid
    point and tied branch, the positivity rows and the equilibrium rows,
    as the oracle builds them one point at a time; and the Kamke report
    is the one check_kamke gives on the synthesis grid."""
    name, lims, mode, degree = SYNTH_ROW_CASES[case]
    sysd = load_system(name)
    box = (WorkingBox.default_for(sysd) if lims is None
           else WorkingBox(*lims, 41))
    lps = []
    real = synth_mod.solve_lp
    monkeypatch.setattr(synth_mod, "solve_lp",
                        lambda lp, *a, **k: lps.append(lp) or real(lp, *a,
                                                                  **k))
    if degree is None:
        res = synth_const(sysd, box, mode=mode)
    else:
        res = synth_poly(sysd, box, degree=degree, mode=mode)
    assert len(lps) == 1
    rows, rhs = synthesis_rows(sysd, jacobian(sysd), box, res.resolution,
                               mode, degree, 0.01)
    want = np.column_stack([rows, rhs])
    got = np.column_stack([lps[0].rows, lps[0].rhs])
    _near_every_row(want, got)
    _near_every_row(got, want)
    assert res.kamke.to_jsonable() == check_kamke(
        sysd, box.with_resolution(res.resolution)).to_jsonable()


def test_synthesis_keeps_rows_too_large_to_round(monkeypatch):
    """np.round(., 12) scales by 1e12 first, so an entry above about
    1.8e296 became inf, with a RuntimeWarning, and the LP was refused as
    not finite.  Such entries are kept as they are: the LP holds exactly
    the oracle's rows, the 1e300 coupling of x2 into dx1 included."""
    sysd = parse_system("""
    system huge_coupling {
        states x1 in [-1, 1], x2 in [0, inf)
        dx1 = -x1 + (x1 + (1e300 * x2)) - ((0 + (1e300 * 0)))
        dx2 = -x2 + x2 - (0)
        equilibrium (0, 0)
    }
    """)
    box = WorkingBox((-1.0, 0.0), (1.0, 1.0), 5)
    lps = []
    real = synth_mod.solve_lp
    monkeypatch.setattr(synth_mod, "solve_lp",
                        lambda lp, *a, **k: lps.append(lp) or real(lp, *a,
                                                                  **k))
    res = synth_const(sysd, box, mode="sum")
    rows, rhs = synthesis_rows(sysd, jacobian(sysd), box, res.resolution,
                               "sum", None, 0.01)
    got = np.column_stack([lps[0].rows, lps[0].rhs])
    assert np.isfinite(got).all() and 1e300 in got
    _near_every_row(np.column_stack([rows, rhs]), got, tol=0.0)
    _near_every_row(got, np.column_stack([rows, rhs]), tol=0.0)
    assert not res.success


# ---------------------------------------------------------------------------
# constant-weight synthesis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["sum", "max"])
def test_synth_const_refuses_no_equilibrium_before_solving(mode, monkeypatch):
    """Every post-hoc check needs x*, so a system without one is refused
    before the LP is built or solved, as by synth_poly."""
    calls = []
    real = synth_mod.solve_lp
    monkeypatch.setattr(synth_mod, "solve_lp",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    box = WorkingBox((-3.0,), (3.0,), 9)
    with pytest.raises(SynthError, match="equilibrium"):
        synth_const(load_system("entrain_linear"), box, mode=mode)
    assert calls == []


@pytest.mark.parametrize("eps", [-1.0, 0.0, math.nan, math.inf])
def test_eps_not_positive_is_a_synth_error(eps):
    """Before, eps -1 or 0 gave a success certified at that eps, and
    nan or inf a post-hoc failure after the LP was solved."""
    ex1 = load_system("ex1")
    box = WorkingBox((0.0, 0.0), (3.0, 3.0), 11)
    for synth in (synth_const, synth_poly):
        with pytest.raises(SynthError, match="eps must be positive"):
            synth(ex1, box, eps=eps)


def test_synth_const_symmetric_linear(linear_sym):
    res = synth_const(linear_sym, mode="sum")
    assert res.success
    np.testing.assert_allclose(res.weights, [1.0, 1.0], atol=1e-9)
    assert res.margin == pytest.approx(1.0, abs=1e-9)
    assert res.lp_status == "optimal"
    assert res.posthoc is not None and res.posthoc.passed


def test_synth_const_upper_triangular():
    sysd = linear_system(np.array([[-1.0, 3.0], [0.0, -1.0]]), lo=-1, hi=1)
    res = synth_const(sysd, mode="sum")
    assert res.success
    np.testing.assert_allclose(res.weights, [1.0, 4.0], atol=1e-9)
    assert res.margin == pytest.approx(1.0, abs=1e-9)


def test_synth_const_ex1(ex1, ex1_box):
    res = synth_const(ex1, ex1_box, mode="sum")
    assert res.success
    np.testing.assert_allclose(res.weights, [1.0, 7.0], atol=1e-9)
    assert res.margin == pytest.approx(1.0, abs=1e-9)
    assert res.resolution == 21  # default synthesis grid for n <= 2
    assert res.posthoc.box.resolution == 41  # verification at 2r - 1


def test_synth_const_multiagent_max(multiagent):
    res = synth_const(multiagent, mode="max")
    assert res.success
    np.testing.assert_allclose(res.weights, [1.0, 1.5, 1.75], atol=1e-9)
    assert res.margin == pytest.approx(0.25, abs=1e-9)


def test_synth_sum_on_a_equals_max_on_at():
    A = np.array([[-3.0, 1.0], [0.5, -2.0]])
    r_sum = synth_const(linear_system(A), mode="sum")
    r_max = synth_const(linear_system(A.T), mode="max")
    assert r_sum.success and r_max.success
    np.testing.assert_allclose(r_sum.weights, r_max.weights, atol=1e-9)
    assert r_sum.margin == pytest.approx(r_max.margin, abs=1e-9)


def test_synth_margin_scales_linearly():
    A = np.array([[-3.0, 1.0], [0.5, -2.0]])
    r1 = synth_const(linear_system(A), mode="sum")
    r2 = synth_const(linear_system(2.0 * A), mode="sum")
    assert r2.margin == pytest.approx(2.0 * r1.margin, abs=1e-9)
    np.testing.assert_allclose(r1.weights, r2.weights, atol=1e-9)


def test_synth_const_agrees_with_hurwitz_oracle():
    """For Metzler A, a positive v with v^T A < 0 exists iff A is Hurwitz."""
    rng = np.random.default_rng(67)
    agree = 0
    for _ in range(15):
        A = rng.uniform(0.0, 1.0, size=(4, 4))
        A[np.diag_indices(4)] = rng.uniform(-6.0, 0.0, size=4)
        res = synth_const(linear_system(A), mode="sum", resolution=2)
        hur = is_hurwitz(A)
        if abs(max(np.linalg.eigvals(A).real)) < 1e-6:
            continue  # too close to the boundary to call either way
        assert res.success == hur, (A, res.reason)
        agree += 1
    assert agree >= 12


def test_synth_const_resolution_independent_for_linear(linear_sym):
    a = synth_const(linear_sym, resolution=3)
    b = synth_const(linear_sym, resolution=10)
    np.testing.assert_allclose(a.weights, b.weights, atol=1e-12)
    assert a.margin == pytest.approx(b.margin, abs=1e-12)
    assert a.resolution == 3 and b.resolution == 10


def test_synth_const_rejects_nonmonotone(rotation):
    res = synth_const(rotation, mode="sum")
    assert not res.success
    assert res.weights is None
    assert "not monotone" in res.reason
    assert res.kamke is not None and not res.kamke.passed


def test_synth_const_posthoc_catches_intergrid_spike():
    """J = 1/2 - (x - 3/4)^2 is negative on the coarse 3-point grid
    {0, 3/2, 3} but positive at 3/4, which the doubled grid contains."""
    sysd = parse_system("""
    system bump {
        states x1 in [0, 3]
        dx1 = 0.5*x1 - ((x1 - 0.75)^3 + 0.421875) / 3
        equilibrium (0)
    }
    """)
    res = synth_const(sysd, mode="sum", resolution=3)
    assert not res.success
    assert "post-hoc certification failed" in res.reason
    assert res.posthoc is not None
    assert res.posthoc.witness["point"] == [0.75]
    # and an honest grid would have refused from the start
    res5 = synth_const(sysd, mode="sum", resolution=5)
    assert not res5.success
    assert "negative margin" in res5.reason


def test_synth_const_bad_mode(ex1):
    with pytest.raises(SynthError, match="mode"):
        synth_const(ex1, mode="rows")


def test_synth_result_jsonable(ex1, ex1_box):
    res = synth_const(ex1, ex1_box)
    obj = res.to_jsonable()
    assert obj["success"] is True
    assert obj["mode"] == "sum"
    assert obj["weights"] == pytest.approx([1.0, 7.0], abs=1e-9)
    assert obj["posthoc"]["condition"] == "cor1"
    assert res.to_json() == res.to_json()


# ---------------------------------------------------------------------------
# polynomial-weight synthesis
# ---------------------------------------------------------------------------

def test_synth_poly_degree0_matches_const(ex1, ex1_box):
    res = synth_poly(ex1, ex1_box, degree=0, mode="sum")
    assert res.success
    fam = res.weights
    assert isinstance(fam, WeightFamily) and fam.kind == "theta"
    assert fam.is_constant
    np.testing.assert_allclose(fam.constants(), [1.0, 7.0], atol=1e-9)
    assert res.margin == pytest.approx(1.0, abs=1e-9)


def test_synth_poly_degree2_ex1(ex1, ex1_box):
    res = synth_poly(ex1, ex1_box, degree=2, mode="sum")
    assert res.success, res.reason
    fam = res.weights
    assert fam.kind == "theta" and not fam.is_constant
    assert res.margin > 0.5
    assert res.posthoc.passed
    assert res.posthoc.box.resolution == 41
    # the synthesized weights must be positive on the box axes
    ax = np.linspace(0, 3, 101)
    for comp in fam.components:
        assert np.min(comp.value(ax)) > 0


@pytest.mark.parametrize("degree", [2, 3, 4])
def test_synth_poly_margin_is_scale_free(ex1, degree):
    # the LP optimum sits on the coefficient cap; divided by the leading
    # coefficient, theta_1 = 1, and the first thm1 component, -theta_1,
    # sets the margin to 1
    res = synth_poly(ex1, WorkingBox((0.0, 0.0), (3.0, 3.0)), degree=degree,
                     mode="sum")
    assert res.success, res.reason
    assert res.margin == pytest.approx(1.0, abs=0.01)


def test_synth_poly_weights_carry_no_round_off(ex1):
    # the LP vertex has theta_1 = const; the solve leaves ~1e-15 residue in
    # its higher coefficients, which must not reach the weights
    res = synth_poly(ex1, WorkingBox((0.0, 0.0), (3.0, 3.0)), degree=2,
                     mode="sum")
    assert res.success, res.reason
    assert list(res.weights.components[0].coeffs) == [1.0, 0.0, 0.0]


def test_synth_poly_max_mode(ex1, ex1_box):
    res = synth_poly(ex1, ex1_box, degree=2, mode="max")
    assert res.success, res.reason
    assert res.weights.kind == "omega"
    assert res.margin > 0


def test_synth_poly_strict_radius_relaxes_far_field(ex1, ex1_box):
    # with a strict radius the condition needs only <= 0 outside the ball,
    # so the synthesized margin can only be >= the fully-strict one
    full = synth_poly(ex1, ex1_box, degree=2)
    local = synth_poly(ex1, ex1_box, degree=2, strict_radius=1.0)
    assert full.success and local.success
    assert local.margin >= -1e-12


def test_synth_poly_rejects_bad_args(ex1):
    with pytest.raises(SynthError, match="mode"):
        synth_poly(ex1, degree=2, mode="diag")
    with pytest.raises(SynthError, match="degree"):
        synth_poly(ex1, degree=-1)
    noeq = parse_system("""
    system noeq {
        states u in [0, 1]
        du = -u + 0.25
    }
    """)
    with pytest.raises(SynthError, match="equilibrium"):
        synth_poly(noeq, WorkingBox((0.0,), (1.0,)))


def test_synth_poly_nonmonotone(rotation):
    res = synth_poly(rotation, degree=1)
    assert not res.success
    assert "not monotone" in res.reason


# ---------------------------------------------------------------------------
# SOS export
# ---------------------------------------------------------------------------

@pytest.fixture()
def ex1_export(ex1, tmp_path):
    path = tmp_path / "ex1.dat-s"
    sidecar = export_sos_sdpa(ex1, degree=2, eps=0.01, path=str(path))
    return path, sidecar


def test_sos_export_structure(ex1_export):
    path, sidecar = ex1_export
    lines = path.read_text().strip("\n").split("\n")
    m = int(lines[0])
    nblocks = int(lines[1])
    assert m == 22 == sidecar["n_constraints"]
    assert nblocks == 11 == len(sidecar["blocks"])
    assert lines[2].split() == ["2", "2", "1", "1", "3", "3",
                                "1", "1", "1", "1", "-14"]
    rhs = [float(v) for v in lines[3].split()]
    assert len(rhs) == m
    assert rhs[0] == -0.01          # first positivity row: constant term
    assert rhs[-2:] == [0.01, 0.01]  # equilibrium strictness rows
    # entry lines: "constraint block a b value", upper-triangular, 1-based
    seen = set()
    for line in lines[4:]:
        ci, blk, a, b, val = line.split()
        ci, blk, a, b = int(ci), int(blk), int(a), int(b)
        assert 1 <= ci <= m       # F0 is zero: no objective entries
        assert 1 <= blk <= nblocks
        assert 1 <= a <= b
        size = sidecar["blocks"][blk - 1]["size"]
        assert b <= size
        assert math.isfinite(float(val))
        seen.add(ci)
    assert seen == set(range(1, m + 1))


def test_sos_sidecar_contents(ex1_export):
    path, sidecar = ex1_export
    assert sidecar["kind"] == "theta"
    assert sidecar["mode"] == "sum"
    assert sidecar["degree"] == 2
    assert sidecar["monomial_order"] == "grlex"
    names = [b["name"] for b in sidecar["blocks"]]
    assert names == ["P_1", "P_2", "S_1", "S_2", "Q_1", "Q_2",
                     "sigma_1_1", "sigma_1_2", "sigma_2_1", "sigma_2_2",
                     "coeffs_and_slacks"]
    assert sidecar["diag_block"] == 11
    assert set(sidecar["coefficients"]) == {
        "c_1_0", "c_1_1", "c_1_2", "c_2_0", "c_2_1", "c_2_2"}
    assert sidecar["slacks"] == [13, 14]
    assert sidecar["bounds"] == [[0.0, math.inf], [0.0, math.inf]]
    # the sidecar file is the returned mapping in strict JSON, an infinite
    # bound written as a string
    with open(str(path) + ".json") as fh:
        written = strict_json(fh.read())
    assert written == {**sidecar, "bounds": [[0.0, "inf"], [0.0, "inf"]]}


def test_sos_export_max_mode(ex1, tmp_path):
    sidecar = export_sos_sdpa(ex1, degree=2, mode="max",
                              path=str(tmp_path / "m.dat-s"))
    assert sidecar["kind"] == "omega"


def test_sos_export_unbounded_axis_skips_domain_blocks(tmp_path):
    sysd = parse_system("""
    system cubic {
        states u in (-inf, inf)
        du = -u - u^3
        equilibrium (0)
    }
    """)
    sidecar = export_sos_sdpa(sysd, degree=2, path=str(tmp_path / "c.dat-s"))
    names = [b["name"] for b in sidecar["blocks"]]
    assert names == ["P_1", "Q_1", "coeffs_and_slacks"]  # no S or sigma


def test_poly_dict_divides_by_a_nonzero_constant():
    """Hand-derived coefficients of a field that divides by constants, and
    its values against the tree-walking oracle at sampled points."""
    e = parse_expr("x1 / 4 - x2^2 / 0.5 + (x1 * x2) / -2 + 3 / 8",
                   ["x1", "x2"])
    poly = synth_mod._poly_dict(e, 2)
    assert poly == {(1, 0): 0.25, (0, 2): -2.0, (1, 1): -0.5, (0, 0): 0.375}
    rng = np.random.default_rng(7)
    for x in rng.uniform(-3.0, 3.0, (20, 2)):
        value = sum(c * x[0] ** a * x[1] ** b for (a, b), c in poly.items())
        assert value == pytest.approx(evaluate(e, x), rel=1e-12, abs=1e-12)


def test_domain_poly_of_an_axis_bounded_above():
    """x2 in (-inf, 2] is 2 - x2 >= 0: zero on the bound, positive below
    it, negative above, with no term in x1."""
    d = synth_mod._domain_poly(-math.inf, 2.0, 2, 1)
    assert d == {(0, 0): 2.0, (0, 1): -1.0}
    for x2, sign in ((2.0, 0.0), (1.5, 1.0), (-7.0, 1.0), (2.5, -1.0)):
        value = sum(c * x2 ** b for (_, b), c in d.items())
        assert math.copysign(1.0, value) * (value != 0) == sign


def test_sos_export_of_a_field_that_divides_by_a_constant(tmp_path):
    """export-sos of dx = -x/4 on (-inf, 2]: the field is a polynomial, and
    the axis bounded above gets its domain blocks."""
    sysd = parse_system("""
    system quarter {
        states x in (-inf, 2]
        dx = -x / 4
        equilibrium (0)
    }
    """)
    sidecar = export_sos_sdpa(sysd, degree=2, path=str(tmp_path / "q.dat-s"))
    assert [b["name"] for b in sidecar["blocks"]] == [
        "P_1", "S_1", "Q_1", "sigma_1_1", "coeffs_and_slacks"]
    assert sidecar["bounds"] == [[-math.inf, 2.0]]


@pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0, math.inf])
def test_sos_export_rejects_eps_outside_positive_finite(ex1, eps, tmp_path):
    """As synthesis and the command line do.  Before, eps=nan wrote nan into
    the .dat-s file and the sidecar's epsilon, and -1, 0 and inf were
    written too."""
    path = tmp_path / "e.dat-s"
    with pytest.raises(SynthError, match="^eps must be positive and finite$"):
        export_sos_sdpa(ex1, degree=2, eps=eps, path=str(path))
    assert list(tmp_path.iterdir()) == []


def test_sos_export_rejects_nonpolynomial(traffic4, comparison, tmp_path):
    with pytest.raises(SynthError, match="min/max"):
        export_sos_sdpa(traffic4, path=str(tmp_path / "t.dat-s"))
    with pytest.raises(SynthError, match="non-polynomial"):
        export_sos_sdpa(comparison, path=str(tmp_path / "e.dat-s"))


@pytest.mark.parametrize("rhs, what", [("-x + t", "time dependence"),
                                       ("-x / (1 + x)", "division")])
def test_sos_export_rejects_a_field_that_is_no_polynomial(rhs, what,
                                                          tmp_path):
    """A field that reads t, and one that divides by a state, are refused
    before anything is written."""
    sysd = parse_system("system np {\n  states x in [0, 1]\n"
                        f"  dx = {rhs}\n  equilibrium (0)\n}}")
    with pytest.raises(SynthError,
                       match=f"^non-polynomial vector field: {what}$"):
        export_sos_sdpa(sysd, path=str(tmp_path / "np.dat-s"))
    assert list(tmp_path.iterdir()) == []


def test_sos_export_rejects_an_unknown_mode(ex1, tmp_path):
    with pytest.raises(SynthError,
                       match="^mode must be 'sum' or 'max', got 'bogus'$"):
        export_sos_sdpa(ex1, mode="bogus", path=str(tmp_path / "x"))


def test_sos_export_rejects_bad_degrees(ex1, tmp_path):
    with pytest.raises(SynthError, match="even"):
        export_sos_sdpa(ex1, multiplier_degree=1, path=str(tmp_path / "x"))
    with pytest.raises(SynthError, match="nonnegative"):
        export_sos_sdpa(ex1, degree=-2, path=str(tmp_path / "x"))


def test_sos_export_requires_equilibrium(tmp_path):
    sysd = parse_system("""
    system noeq {
        states u in [0, 1]
        du = -u + 0.25
    }
    """)
    with pytest.raises(SynthError, match="equilibrium"):
        export_sos_sdpa(sysd, path=str(tmp_path / "x"))


def _sdpa_rows(path):
    """The block sizes, right-hand sides and rows of a .dat-s file, each row
    as {(block, a, b): value} with 1-based upper-triangular positions."""
    lines = path.read_text().split("\n")
    sizes = [int(v) for v in lines[2].split()]
    rhs = [float(v) for v in lines[3].split()]
    rows = [{} for _ in rhs]
    for line in filter(None, lines[4:]):
        r, blk, a, b, v = line.split()
        rows[int(r) - 1][(int(blk), int(a), int(b))] = float(v)
    return sizes, rhs, rows


def _worst_residual(sizes, rhs, rows, Y):
    """max over rows of |<F_r, Y> - rhs_r|, an upper-triangular entry off the
    diagonal standing for both of its symmetric places."""
    worst = 0.0
    for ent, b in zip(rows, rhs):
        lhs = math.fsum(v * Y[blk - 1][a - 1, c - 1] * (1 if a == c else 2)
                        for (blk, a, c), v in ent.items())
        worst = max(worst, abs(lhs - b))
    return worst


def _certificate_point(sidecar, sizes, grams, coeffs, slack):
    """The block-diagonal Y of a certificate: ``grams`` maps a block name to
    the value of its constant-monomial diagonal entry, ``coeffs`` a
    coefficient name to its value (split into plus and minus parts)."""
    Y = [np.zeros((abs(s), abs(s))) for s in sizes]
    for bi, blk in enumerate(sidecar["blocks"]):
        if blk["name"] in grams:
            const = [i for i, mono in enumerate(blk["basis"])
                     if not np.any(mono)]
            assert len(const) == 1
            Y[bi][const[0], const[0]] = grams[blk["name"]]
    diag = Y[sidecar["diag_block"] - 1]
    for name, value in coeffs.items():
        spec = sidecar["coefficients"][name]
        pos = spec["plus"] if value > 0 else spec["minus"]
        diag[pos - 1, pos - 1] = abs(value)
    for pos in sidecar["slacks"]:
        diag[pos - 1, pos - 1] = slack
    return Y


# hand-derived certificates: theta = (1, 1 + x2) for ex1 in sum mode, where
# -cond = (1, 1), theta_1 - eps = P_1 and theta_2 - eps = P_2 + 1 * x2 with
# x2 >= 0 the domain polynomial of axis 2; omega = (1, 1) for linear_sym in
# max mode, where -cond = (2 - 1, 2 - 1).  Q_j = 1, the slacks are 1 - eps.
HAND_CERTIFICATES = {
    "ex1-sum": ("ex1", "sum", {"c_1_0": 1.0, "c_2_0": 1.0, "c_2_1": 1.0},
                {"S_2": 1.0}),
    "linear_sym-max": ("linear_sym", "max", {"c_1_0": 1.0, "c_2_0": 1.0}, {}),
}


@pytest.mark.parametrize("multiplier_degree", [0, 2])
@pytest.mark.parametrize("case", sorted(HAND_CERTIFICATES))
def test_sos_program_holds_at_a_hand_certificate(case, multiplier_degree,
                                                 tmp_path):
    name, mode, coeffs, multipliers = HAND_CERTIFICATES[case]
    eps = 0.01
    path = tmp_path / f"{name}.dat-s"
    sidecar = export_sos_sdpa(load_system(name), degree=2, eps=eps,
                              path=str(path), mode=mode,
                              multiplier_degree=multiplier_degree)
    sizes, rhs, rows = _sdpa_rows(path)
    assert len(rows) == sidecar["n_constraints"]
    grams = {"P_1": 1.0 - eps, "P_2": 1.0 - eps, "Q_1": 1.0, "Q_2": 1.0,
             **multipliers}
    Y = _certificate_point(sidecar, sizes, grams, coeffs, 1.0 - eps)
    for block in Y:
        assert np.all(np.linalg.eigvalsh(block) >= 0.0)
    assert _worst_residual(sizes, rhs, rows, Y) <= 1e-12
    # moving one coefficient by 0.1 leaves the program
    plus = sidecar["coefficients"]["c_2_1"]["plus"]
    Y[sidecar["diag_block"] - 1][plus - 1, plus - 1] += 0.1
    assert _worst_residual(sizes, rhs, rows, Y) >= 0.05


@pytest.mark.parametrize("name, mode", [("ex1", "max"), ("multiagent", "sum")])
def test_sos_export_writes_the_program_the_builder_returns(name, mode,
                                                           tmp_path):
    sysd = load_system(name)
    blocks, rows, rhs = synth_mod._sos_program(sysd, 3, 0.01, mode, 2)
    path = tmp_path / f"{name}.dat-s"
    sidecar = export_sos_sdpa(sysd, degree=3, eps=0.01, path=str(path),
                              mode=mode, multiplier_degree=2)
    sizes, file_rhs, file_rows = _sdpa_rows(path)
    assert sizes == [size for _, size, _ in blocks[:-1]] + [-blocks[-1][1]]
    assert [b["name"] for b in sidecar["blocks"]] == [b[0] for b in blocks]
    assert sidecar["diag_block"] == len(blocks) and blocks[-1][2] is None
    assert file_rhs == [float(f"{v:.12g}") for v in rhs]
    assert file_rows == [{key: float(f"{v:.12g}") for key, v in ent.items()}
                         for ent in rows]


# ---------------------------------------------------------------------------
# reading solver output back
# ---------------------------------------------------------------------------

GOLDEN_DIAG = [1.7429, 0.0, 0.0, 0.0, 0.0, 0.0,       # theta_1 coefficients
               1.9503, 0.0, 1.3793, 0.0, 1.0, 0.0,    # theta_2 coefficients
               0.5, 0.3]                               # equilibrium slacks


def fake_solver_output(sidecar, diag_values, drop_last_block=False):
    parts = []
    blocks = sidecar["blocks"][:-1] if drop_last_block else sidecar["blocks"]
    for blk in blocks:
        size = blk["size"]
        if blk["name"] == "coeffs_and_slacks":
            parts.append("{" + ",".join(repr(float(v)) for v in diag_values)
                         + "}")
        elif size == 1:
            parts.append("{+0.0}")
        else:
            row = "{" + ",".join(["0.0"] * size) + "}"
            parts.append("{" + ",".join([row] * size) + "}")
    body = ",\n".join(parts)
    return ("phase.value  = pdOPT\n"
            "objValPrimal = +0.0\n"
            "yMat = \n{\n" + body + "\n}\n"
            "xVec = \n{\n}\n")


def test_parse_sos_solution_roundtrip(ex1, ex1_export, ex1_box):
    path, sidecar = ex1_export
    text = fake_solver_output(sidecar, GOLDEN_DIAG)
    fam = parse_sos_solution(sidecar, text)
    assert fam.kind == "theta"
    assert fam.components[0].coeffs == (1.7429, 0.0, 0.0)
    assert fam.components[1].coeffs == (1.9503, 1.3793, 1.0)
    # the recovered weights certify the system they were synthesized for
    from monocert.certify import check_thm1
    rep = check_thm1(ex1, fam, ex1_box)
    assert rep.passed


def test_parse_sos_solution_from_files(ex1_export, tmp_path):
    path, sidecar = ex1_export
    out = tmp_path / "solver.out"
    out.write_text(fake_solver_output(sidecar, GOLDEN_DIAG))
    fam = parse_sos_solution(str(path) + ".json", str(out))
    assert fam.components[1].coeffs == (1.9503, 1.3793, 1.0)


def test_parse_sos_solution_truncated(ex1_export):
    _, sidecar = ex1_export
    text = fake_solver_output(sidecar, GOLDEN_DIAG)
    cut = text[: text.find("yMat") + 40]
    with pytest.raises(SynthError, match="unbalanced braces"):
        parse_sos_solution(sidecar, cut)


def test_parse_sos_solution_wrong_block_count(ex1_export):
    _, sidecar = ex1_export
    text = fake_solver_output(sidecar, GOLDEN_DIAG, drop_last_block=True)
    with pytest.raises(SynthError, match="expected 11 yMat blocks, found 10"):
        parse_sos_solution(sidecar, text)


def test_parse_sos_solution_short_diagonal(ex1_export):
    _, sidecar = ex1_export
    text = fake_solver_output(sidecar, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(SynthError, match="shorter than the coefficient"):
        parse_sos_solution(sidecar, text)


def test_parse_sos_solution_negative_weight(ex1_export):
    _, sidecar = ex1_export
    diag = list(GOLDEN_DIAG)
    diag[0], diag[1] = 0.25, 0.75   # c_1_0 = -0.5
    text = fake_solver_output(sidecar, diag)
    with pytest.raises(SynthError, match="component 1 reaches -0.5"):
        parse_sos_solution(sidecar, text)


def test_parse_sos_solution_omega_negative_on_part_of_the_box(ex1, tmp_path):
    """omega_2 = 1 - x2/2 is positive at x2 = 0 and negative beyond x2 = 2,
    inside [0, 10], the finite part of x2's bounds [0, inf)."""
    sidecar = export_sos_sdpa(ex1, degree=2, mode="max", eps=0.01,
                              path=str(tmp_path / "ex1max.dat-s"))
    assert sidecar["kind"] == "omega"
    block = sidecar["blocks"][sidecar["diag_block"] - 1]
    diag = [0.0] * block["size"]
    for name, value in (("c_1_0", 2.0), ("c_2_0", 1.0), ("c_2_1", -0.5)):
        spec = sidecar["coefficients"][name]
        diag[spec["plus" if value > 0 else "minus"] - 1] = abs(value)
    text = fake_solver_output(sidecar, diag)
    with pytest.raises(SynthError,
                       match="positivity.*component 2 reaches -4 at x=10"):
        parse_sos_solution(sidecar, text)


@pytest.mark.parametrize("write", [
    lambda sidecar: json.dumps(sidecar, indent=2, sort_keys=True), _dumps],
    ids=["bare-infinity", "strict"])
def test_parse_sos_solution_reads_both_sidecar_forms(ex1, tmp_path, write):
    """A sidecar with bare Infinity tokens, as written before the sidecar
    was strict JSON, and one with "inf" strings read alike: x2's bound
    [0, inf) is checked on [0, 10], where omega_2 = 1 - x2/2 reaches -4."""
    sidecar = export_sos_sdpa(ex1, degree=2, mode="max", eps=0.01,
                              path=str(tmp_path / "ex1max.dat-s"))
    path = tmp_path / "sidecar.json"
    path.write_text(write(sidecar))
    assert ("Infinity" in path.read_text()) == (write is not _dumps)
    block = sidecar["blocks"][sidecar["diag_block"] - 1]
    diag = [0.0] * block["size"]
    for name, value in (("c_1_0", 2.0), ("c_2_0", 1.0), ("c_2_1", -0.5)):
        spec = sidecar["coefficients"][name]
        diag[spec["plus" if value > 0 else "minus"] - 1] = abs(value)
    with pytest.raises(SynthError,
                       match="positivity.*component 2 reaches -4 at x=10"):
        parse_sos_solution(str(path), fake_solver_output(sidecar, diag))


def test_solver_output_nested_deeper_than_a_matrix_is_malformed(ex1_export):
    with pytest.raises(SynthError, match="malformed solver output: .*deeper"):
        synth_mod._parse_sdpa_blocks("{ {{{1}}} }")
    with pytest.raises(SynthError, match="malformed solver output: .*deeper"):
        synth_mod._parse_sdpa_blocks("{" * 3000 + "}" * 3000)
    # one block too deep among the right number of blocks
    _, sidecar = ex1_export
    text = fake_solver_output(sidecar, GOLDEN_DIAG)
    row = "{" + ",".join(["0.0"] * 3) + "}"
    matrix = "{" + ",".join([row] * 3) + "}"
    assert matrix in text
    with pytest.raises(SynthError, match="malformed solver output: .*deeper"):
        parse_sos_solution(sidecar, text.replace(matrix, "{" + matrix + "}", 1))


@pytest.mark.parametrize("text", ["{ 7, {1} }", "{ {5, {1,2}} }",
                                  "{ {1}, 7 }", "{ {{1,2}, 5} }", "{ 7 }"])
def test_number_beside_blocks_or_rows_is_malformed(text):
    with pytest.raises(SynthError,
                       match="malformed solver output: .* stands beside"):
        synth_mod._parse_sdpa_blocks(text)


def test_blocks_and_rows_parse_beside_separators():
    blocks = synth_mod._parse_sdpa_blocks("{ {1, 2} ,\n{ {1,2},{3, 4} }, {} }")
    assert [b.tolist() for b in blocks] == [[1.0, 2.0], [[1.0, 2.0],
                                                         [3.0, 4.0]], []]


def test_parse_sos_solution_missing_ymat(ex1_export):
    _, sidecar = ex1_export
    with pytest.raises(SynthError, match="no yMat"):
        parse_sos_solution(sidecar, "nothing to see here")


def test_parse_sos_solution_ymat_without_braces(ex1_export):
    _, sidecar = ex1_export
    with pytest.raises(SynthError,
                       match="^malformed solver output: no yMat block$"):
        parse_sos_solution(sidecar, "phase.value = pdOPT\nyMat = \n")


def test_parse_sos_solution_reads_a_dense_diagonal_block(ex1_export):
    """A solver may print the diagonal block as a full matrix: its
    diagonal is read, as from the flat form."""
    _, sidecar = ex1_export
    flat = "{" + ",".join(repr(v) for v in GOLDEN_DIAG) + "}"
    rows = ",".join("{" + ",".join(repr(v if i == j else 0.0)
                                   for j in range(len(GOLDEN_DIAG))) + "}"
                    for i, v in enumerate(GOLDEN_DIAG))
    text = fake_solver_output(sidecar, GOLDEN_DIAG)
    assert flat in text
    fam = parse_sos_solution(sidecar, text.replace(flat, "{" + rows + "}"))
    assert fam == parse_sos_solution(sidecar, text)
    assert fam.components[1].coeffs == (1.9503, 1.3793, 1.0)


def test_a_block_entry_that_is_no_number_is_malformed():
    with pytest.raises(SynthError, match="^malformed solver output: could "
                                         "not convert string to float: 'x'$"):
        synth_mod._parse_sdpa_blocks("{ {1, x} }")


def test_parse_sos_solution_nonstring_output(ex1_export):
    _, sidecar = ex1_export
    with pytest.raises(SynthError, match="path or text"):
        parse_sos_solution(sidecar, 42)
