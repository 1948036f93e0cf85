"""solve_lp against HiGHS (scipy.optimize.linprog) as an independent oracle.

scipy is a test-only dependency; the package itself never imports it.
"""

import numpy as np
import pytest

import monocert.synth as synth
from monocert.synth import COEFF_CAP, LPProblem, solve_lp, synth_poly

linprog = pytest.importorskip("scipy.optimize").linprog

HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


def highs(lp: LPProblem):
    bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
              for lo, hi in zip(lp.lower, lp.upper)]
    ref = linprog(-lp.c, A_ub=lp.rows if lp.rows.shape[0] else None,
                  b_ub=lp.rhs if lp.rows.shape[0] else None, bounds=bounds,
                  method="highs")
    status = HIGHS_STATUS[ref.status]
    return status, (-float(ref.fun) if status == "optimal" else None)


def random_lp(rng) -> LPProblem:
    """1-5 variables, 0-25 rows; each bound free, one-sided or boxed."""
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, 26))
    lower = np.full(n, -np.inf)
    upper = np.full(n, np.inf)
    for k in range(n):
        kind = rng.integers(4)      # free, lower only, upper only, boxed
        lo = rng.uniform(-3.0, 1.0)
        if kind in (1, 3):
            lower[k] = lo
        if kind == 2:
            upper[k] = lo
        if kind == 3:
            upper[k] = lo + rng.uniform(0.5, 4.0)
    # rhs centred at 1.5 gives a similar number of optimal and infeasible LPs
    return LPProblem(c=rng.normal(size=n), rows=rng.normal(size=(m, n)),
                     rhs=rng.normal(1.5, 1.0, size=m), lower=lower, upper=upper)


def test_random_lps_match_highs():
    rng = np.random.default_rng(20170413)
    seen = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for case in range(400):
        lp = random_lp(rng)
        sol = solve_lp(lp)
        ref_status, ref_obj = highs(lp)
        assert sol.status == ref_status, case
        seen[sol.status] += 1
        if ref_status != "optimal":
            assert sol.z is None and sol.objective is None
            continue
        assert sol.objective == pytest.approx(ref_obj, rel=1e-7, abs=1e-7), case
        # the returned point is feasible and attains the objective
        assert np.all(lp.rows @ sol.z <= lp.rhs + 1e-7 * (1 + np.abs(lp.rhs)))
        assert np.all(sol.z >= lp.lower - 1e-9)
        assert np.all(sol.z <= lp.upper + 1e-9)
        assert sol.objective == pytest.approx(float(lp.c @ sol.z), abs=1e-12)
    assert min(seen.values()) >= 20, seen


def test_ex1_synthesis_lp_reaches_the_coefficient_cap(ex1, ex1_box,
                                                      monkeypatch):
    # the degree-2 poly-sum LP is bound by the coefficient cap, not by the
    # condition rows: its optimum is exactly COEFF_CAP
    captured = []

    def capture(lp, max_iter=None):
        captured.append(lp)
        return solve_lp(lp, max_iter)

    monkeypatch.setattr(synth, "solve_lp", capture)
    synth_poly(ex1, ex1_box, degree=2, mode="sum")
    (lp,) = captured
    assert lp.rows.shape == (904, 7)
    sol = solve_lp(lp)
    ref_status, ref_obj = highs(lp)
    assert sol.status == ref_status == "optimal"
    assert ref_obj == pytest.approx(COEFF_CAP, rel=1e-9)
    assert sol.objective == pytest.approx(ref_obj, rel=1e-9)
