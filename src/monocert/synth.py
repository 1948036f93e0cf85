"""Weight synthesis via linear programming, plus SOS program export.

The stability conditions are linear in the weights once the state is fixed
at a sample point, so synthesis is a sampled LP: maximize a margin s subject
to the condition rows at every grid point (and every tied branch).  Sampling
is made sound again post hoc — a result is only reported as a success after
the weights pass the corresponding certification check on a grid of doubled
resolution.

One routine, ``_synthesize``, does both kinds of weights: the constant
vectors of cor1/cor2 (``synth_const``; column mode "sum" for v, row mode
"max" for w) are the degree-0 case of the polynomial weights of thm1/thm2
(``synth_poly``).  A failed Kamke check is the reason given for any
failure.  Both refuse a system without a declared equilibrium before any
work, since every post-hoc check needs it, and a CertifyError of the
post-hoc check is a failed result, not raised.  What differs:

  ================  =====================  ==============================
  weights           constant vector        polynomial family
  ================  =====================  ==============================
  report mode       sum, max               poly-sum, poly-max
  variable bounds   [1, V_CAP]             [-COEFF_CAP, COEFF_CAP]
  rows add          nothing                the f*theta' term; positivity
                                           on the axes; rows at x*
  normalization     min(v) = 1             last leading coefficient = 1
  post-hoc check    cor1, cor2             thm1, thm2
  ================  =====================  ==============================

One certify pass over the synthesis grid gives the Kamke report, and a
visitor on it writes the condition rows of each group and branch; ``_dedupe``
sorts the rows, so the order of the walk does not reach the LP.

The LPs have many rows (grid points times components) and few columns
(weights plus the margin), so ``solve_lp`` solves the dual: a dense
two-phase simplex with Bland's rule — deterministic and cycling-free — on a
tableau with one row per primal variable.  The primal vertex is then
recovered from the optimal dual basis by solving the square system of the
rows it makes tight.  When the dual is infeasible, a second dual solve of
the feasibility problem (minimise the largest row violation) tells an
unbounded LP from an infeasible one.

The exact sum-of-squares feasibility program for the same positivity,
condition and strictness constraints is built once, as data, by
``_sos_program``: its blocks, and rows matching the coefficients of
polynomials held as {exponent tuple: coefficient}.  ``export_sos_sdpa``
writes it in SDPA sparse format (.dat-s) for an external SDP solver, with
a JSON sidecar mapping decision variables to block positions;
``parse_sos_solution`` reads the solver's output back into a weight
family.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .certify import (CertReport, CertifyError, WorkingBox, check_cor1,
                      check_cor2, check_thm1, check_thm2, DEFAULT_EPS,
                      _CONDITIONS, _Grid, _certify, _check_arguments,
                      _kamke_spec, _positivity_check, _scan, row_groups)
from .measures import PAIRING, WeightComponent, WeightFamily
from .sysdsl import (Add, Const, Div, Expr, Max, Min, Mul, Neg, Pow, Sub,
                     SystemDef, TimeVar, Var, _fold, jacobian)

__all__ = [
    "LPProblem", "LPResult", "solve_lp", "SynthError", "SynthResult",
    "synth_const", "synth_poly", "export_sos_sdpa", "parse_sos_solution",
    "V_CAP", "COEFF_CAP",
]

V_CAP = 1e3       # upper bound on constant weight entries (keeps the LP bounded)
COEFF_CAP = 100.0  # symmetric cap on polynomial weight coefficients


class SynthError(ValueError):
    """Malformed synthesis/export request."""


# ---------------------------------------------------------------------------
# LP: problem, result, two-phase simplex with Bland's rule
# ---------------------------------------------------------------------------

@dataclass
class LPProblem:
    """maximize c.z  subject to  rows.z <= rhs  and  lower <= z <= upper."""
    c: np.ndarray
    rows: np.ndarray
    rhs: np.ndarray
    lower: np.ndarray   # -inf for free below
    upper: np.ndarray   # +inf for free above

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        self.rows = np.asarray(self.rows, dtype=float).reshape(-1, self.c.shape[0])
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        if not np.all(np.isfinite(self.rows)):
            raise SynthError("constraint rows must be finite")
        if self.rows.shape[0] != self.rhs.shape[0]:
            raise SynthError("rows/rhs mismatch")


@dataclass
class LPResult:
    status: str            # optimal | infeasible | unbounded
    z: Optional[np.ndarray]
    objective: Optional[float]
    iterations: int = 0    # simplex pivots over every phase of the solve


_PIV_TOL = 1e-9
_FEAS_TOL = 1e-7


def _pivot(T: np.ndarray, basis: list, i: int, j: int) -> None:
    piv_row = T[i] / T[i, j]
    col = T[:, j].copy()
    col[i] = 0.0
    T -= np.outer(col, piv_row)
    T[i] = piv_row
    basis[i] = j


class _Pivots:
    """Pivot budget shared by every phase of one solve."""

    def __init__(self, limit: int):
        self.limit = limit
        self.count = 0

    def __call__(self, T: np.ndarray, basis: list, i: int, j: int) -> None:
        if self.count >= self.limit:
            raise SynthError("simplex iteration limit exceeded")
        self.count += 1
        _pivot(T, basis, i, j)


def _simplex_core(T: np.ndarray, basis: list, n_cols: int,
                  pivots: _Pivots) -> str:
    """Minimize with Bland's rule: entering = lowest-index negative reduced
    cost, leaving = lowest-index basic variable among minimal ratios."""
    m = T.shape[0] - 1
    while True:
        red = T[m, :n_cols]
        negs = np.nonzero(red < -_PIV_TOL)[0]
        if negs.size == 0:
            return "optimal"
        j = int(negs[0])
        col = T[:m, j]
        pos = np.nonzero(col > _PIV_TOL)[0]
        if pos.size == 0:
            return "unbounded"
        ratios = T[pos, -1] / col[pos]
        rmin = float(np.min(ratios))
        cand = pos[ratios <= rmin + 1e-12]
        i = int(cand[int(np.argmin([basis[r] for r in cand]))])
        pivots(T, basis, i, j)


def _dual_basis(A: np.ndarray, b: np.ndarray, c: np.ndarray,
                pivots: _Pivots):
    """Two-phase simplex on  min b.y  s.t.  A'y - s = c,  y, s >= 0,  the
    dual of  max c.u  s.t.  A u <= b,  u >= 0.

    The tableau has one row per u (not per constraint row of A); columns
    are y (one per row of A), then s, then phase-1 artificials.  Returns
    (status, basis): status "infeasible" means the dual has no point,
    "unbounded" that its objective falls without bound.
    """
    m, p = A.shape
    N = m + p
    # negate the rows with c_j < 0 so that s_j starts basic at -c_j > 0;
    # every other row starts on an artificial.  Rows with c_j = 0 could
    # start on s_j as well, but on the ex1 degree-2 synthesis LP that start
    # takes 194 pivots against 18 and ends on a vertex whose top
    # coefficient is negative
    sgn = np.where(c < 0, -1.0, 1.0)
    art = np.nonzero(sgn > 0)[0]
    n_art = art.size
    T = np.zeros((p + 1, N + n_art + 1))
    T[:p, :m] = A.T * sgn[:, None]
    T[np.arange(p), m + np.arange(p)] = -sgn
    T[:p, -1] = c * sgn
    basis = list(range(m, N))
    if n_art:
        T[art, N + np.arange(n_art)] = 1.0
        for a, r in enumerate(art):
            basis[r] = N + a
        T[p, N:N + n_art] = 1.0
        T[p] -= T[art].sum(axis=0)
        if _simplex_core(T, basis, N + n_art, pivots) == "unbounded":
            # the phase-1 objective is a sum of nonnegative variables and
            # cannot actually be unbounded below; reaching here means the
            # tableau has degraded numerically, not that the LP is infeasible
            raise SynthError("phase-1 simplex failed numerically")
        if T[p, -1] < -_FEAS_TOL:
            return "infeasible", None
        # drive the artificials left at zero out of the basis; [A', -I] has
        # full row rank, so every such row has a nonzero real entry
        for r in range(p):
            if basis[r] >= N:
                pivots(T, basis, r, int(np.argmax(np.abs(T[r, :N]))))
        T = np.delete(T, np.s_[N:N + n_art], axis=1)
    T[p] = 0.0
    T[p, :m] = b
    for r in range(p):
        cb = T[p, basis[r]]
        if cb != 0.0:
            T[p] -= cb * T[r]
    return _simplex_core(T, basis, N, pivots), basis


def _vertex(A: np.ndarray, b: np.ndarray, basis: list) -> np.ndarray:
    """The primal point complementary to a dual basis: row i of A u <= b is
    tight for each basic y_i, and u_j = 0 for each basic s_j.  Solved by
    Gauss-Jordan elimination with partial pivoting, in elementwise numpy:
    a LAPACK solve rounds as the BLAS kernel OpenBLAS picks for the CPU."""
    m, p = A.shape
    basis = np.asarray(basis)
    tight = basis < m
    T = np.zeros((p, p + 1))
    T[tight, :p] = A[basis[tight]]
    T[np.nonzero(~tight)[0], basis[~tight] - m] = 1.0
    T[tight, p] = b[basis[tight]]
    solved = [-1] * p   # the column each row has pivoted on
    for j in range(p):
        free = [r for r in range(p) if solved[r] < 0]
        _pivot(T, solved, free[int(np.argmax(np.abs(T[free, j])))], j)
    u = np.empty(p)
    u[solved] = T[:, p]
    return u


def solve_lp(lp: LPProblem, max_iter: Optional[int] = None) -> LPResult:
    """Solve the LP by simplex on its dual.  Small problems only.

    Each row is divided by its largest entry, and the bounds are removed by
    substitution: z = shift + M u with u >= 0 (a finite lower bound shifts,
    an upper bound alone reflects, a free variable splits into u+ - u-), and
    each finite upper bound of a shifted variable becomes one more row.
    That gives  max c'.u  s.t.  A u <= b,  u >= 0  with m rows and p
    columns.  The synthesis LPs have m in the hundreds and p below twenty,
    so the dual  min b.y  s.t.  A'y >= c',  y >= 0  is solved instead
    (``_dual_basis``): its tableau has one row per u, and a pivot costs
    O(p m) instead of the O(m^2) of a tableau with one row per constraint.
    The outcomes map back as follows:

    * dual optimal: the primal vertex is the solution of the square active
      system of the optimal basis (``_vertex``), found by a linear solve
      rather than read off the reduced costs;
    * dual unbounded: the primal is infeasible;
    * dual infeasible: the primal is unbounded or infeasible.  The
      feasibility problem  min t  s.t.  A u - t <= b,  u, t >= 0,  solved
      the same way (its dual is feasible at y = 0 and bounded), tells them
      apart: the LP has a point when the optimal t is 0.

    ``max_iter`` bounds the pivots over all phases together; exceeding it
    raises ``SynthError``.  ``LPResult.iterations`` reports the pivots used.
    """
    # row equilibration: condition rows mix O(1) and O(100) magnitudes;
    # dividing each row by its largest entry leaves the feasible set
    # untouched
    rows, rhs = lp.rows, lp.rhs
    if rows.shape[0]:
        rsc = np.maximum(np.max(np.abs(rows), axis=1), 1e-12)
        rows = rows / rsc[:, None]
        rhs = rhs / rsc
    lo_f, hi_f = np.isfinite(lp.lower), np.isfinite(lp.upper)
    shift = np.where(lo_f, lp.lower, np.where(hi_f, lp.upper, 0.0))
    M = np.diag(np.where(hi_f & ~lo_f, -1.0, 1.0))
    M = np.hstack([M, -M[:, ~(lo_f | hi_f)]])
    boxed = np.nonzero(lo_f & hi_f)[0]
    R = np.vstack([rows, np.eye(lp.n_vars)[boxed]])
    A = R @ M
    # R @ shift summed column by column (see _vertex); the other products
    # apply matrices of signs, exactly, or give the unreported objective
    shifted = R[:, 0] * shift[0]
    for j in range(1, lp.n_vars):
        shifted += R[:, j] * shift[j]
    b = np.concatenate([rhs, lp.upper[boxed]]) - shifted
    cu = M.T @ lp.c

    m, p = A.shape
    pivots = _Pivots(max_iter if max_iter is not None
                     else 400 * (m + p) + 2000)
    status, basis = _dual_basis(A, b, cu, pivots)
    if status == "optimal":
        z = shift + M @ _vertex(A, b, basis)
        return LPResult("optimal", z, float(np.dot(lp.c, z)), pivots.count)
    if status == "infeasible":
        A1 = np.column_stack([A, -np.ones(m)])
        status1, basis1 = _dual_basis(A1, b, np.append(np.zeros(p), -1.0),
                                      pivots)
        if status1 != "optimal":
            raise SynthError("feasibility simplex failed numerically")
        t = _vertex(A1, b, basis1)[p]
        status = "unbounded" if t <= _FEAS_TOL else "infeasible"
    else:   # dual unbounded: by weak duality the primal has no point
        status = "infeasible"
    return LPResult(status, None, None, pivots.count)


# ---------------------------------------------------------------------------
# Constraint-row assembly over the synthesis grid
# ---------------------------------------------------------------------------

def _dedupe(rows: np.ndarray, rhs: np.ndarray):
    """The distinct rows of [rows | rhs] rounded to 12 decimals, sorted."""
    stacked = np.round(np.column_stack([rows, rhs]), 12)
    order, starts = row_groups(stacked)
    uniq = stacked[order[np.r_[0, starts]]]
    return uniq[:, :-1], uniq[:, -1]


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class SynthResult:
    success: bool
    mode: str
    weights: Optional[Union[np.ndarray, WeightFamily]]
    margin: float                 # certified margin for successes, LP bound otherwise
    lp_status: str
    reason: str = ""
    posthoc: Optional[CertReport] = None
    kamke: Optional[CertReport] = None
    resolution: int = 0

    def to_jsonable(self) -> dict:
        w = self.weights
        if isinstance(w, WeightFamily):
            wj = w.to_jsonable()
        elif w is None:
            wj = None
        else:
            wj = [float(v) for v in w]
        return {"success": self.success,
                "mode": self.mode,
                "weights": wj,
                "margin": self.margin,
                "lp_status": self.lp_status,
                "reason": self.reason,
                "posthoc": self.posthoc.to_jsonable() if self.posthoc else None,
                "resolution": self.resolution}

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2)


# ---------------------------------------------------------------------------
# Synthesis: constant vectors and polynomial families
# ---------------------------------------------------------------------------

def synth_const(sys: SystemDef, box: Optional[WorkingBox] = None,
                mode: str = "sum", eps: float = DEFAULT_EPS,
                resolution: Optional[int] = None) -> SynthResult:
    """Find a constant positive vector making every column (or row) sum
    strictly negative on the grid.

    Solves max s with v'J(x_g) <= -s (mode "sum") or J(x_g)w <= -s (mode
    "max") over all grid points and tied branches, 1 <= entries <= V_CAP.
    The cap keeps the otherwise scale-free LP bounded; the result is
    rescaled to min(v) = 1 and the margin rescales with it.  Success
    requires a strictly positive margin on the doubled-resolution
    verification grid.
    """
    return _synthesize(sys, box, mode, eps, resolution, None, math.inf)


def synth_poly(sys: SystemDef, box: Optional[WorkingBox] = None,
               degree: int = 2, mode: str = "sum",
               eps: float = DEFAULT_EPS,
               resolution: Optional[int] = None,
               strict_radius: float = math.inf) -> SynthResult:
    """Synthesize univariate polynomial weights of bounded degree.

    Decision variables are the coefficients of theta_i (omega_i for mode
    "max") up to ``degree`` plus the margin s.  At each grid point the
    condition components must be <= -s (within ``strict_radius`` of the
    equilibrium in sup norm; <= 0 beyond it), positivity theta_i >= eps is
    imposed on the axis grids, and the equilibrium components are forced
    <= -eps outright.  Coefficients are capped at +-COEFF_CAP to bound the
    scale-free LP; the result is normalized so the leading coefficient of
    the last non-constant weight equals 1 (skipped with a note when that
    coefficient is negative, since dividing by it would flip positivity).
    """
    return _synthesize(sys, box, mode, eps, resolution, degree, strict_radius)


def _synthesize(sys: SystemDef, box: Optional[WorkingBox], mode: str,
                eps: float, resolution: Optional[int],
                degree: Optional[int], strict_radius: float) -> SynthResult:
    """The synthesis LP of ``synth_const`` (``degree`` None) and
    ``synth_poly``: rows, solve, normalisation and the post-hoc check."""
    if mode not in PAIRING:
        raise SynthError(f"mode must be 'sum' or 'max', got {mode!r}")
    _check_arguments(SynthError, resolution=resolution, eps=eps,
                     degree=degree)
    poly = degree is not None
    if sys.equilibrium is None:
        raise SynthError("synthesis needs a declared equilibrium")
    if box is None:
        box = WorkingBox.default_for(sys)
    box.validate_for(sys)
    n = sys.n
    d1 = degree + 1 if poly else 1   # coefficients per weight
    # by default at most 21 points per axis in the plane, 9 above it
    res = (resolution if resolution is not None
           else min(box.resolution, 21 if n <= 2 else 9))
    label = f"poly-{mode}" if poly else mode

    n_vars = n * d1 + 1      # coefficients + s
    s_col = n * d1
    kind, _, sign = _CONDITIONS[mode]
    xstar = np.asarray(sys.equilibrium, dtype=float)
    blocks, rhs = [], []     # (n_vars, rows) blocks of the LP, their bounds

    def condition_rows(radius: float, bound: float):
        """A grid-walk visitor adding, at the points of a sample on one
        branch, the rows  cond_j + s <= bound  within ``radius`` of x* (sup
        norm), and  cond_j <= bound  beyond it."""
        def visit(sample, J: np.ndarray) -> None:
            X, m = sample.X, sample.X.shape[1]
            pw = np.stack([X ** k for k in range(d1)], axis=1)  # (n, d1, m)
            block = np.zeros((n_vars, n, m))
            # component j gets theta_i(x_i) * J[i, j] (sum) or
            # J[j, i] * omega_i(x_i) (max), in column i * d1 + k for x_i^k
            W = J if mode == "sum" else J.transpose(1, 0, 2)
            block[:s_col] += (W[:, None] * pw[:, :, None]).reshape(s_col, n, m)
            if poly:
                # component i gets +theta_i'(x_i) * f_i or -omega_i'(x_i) * f_i
                dpw = np.zeros_like(pw)
                for k in range(1, d1):
                    dpw[:, k] = k * X ** (k - 1)
                for i in range(n):
                    block[i * d1:(i + 1) * d1, i] += sign * (dpw[i]
                                                             * sample.f[i])
            block[s_col] = np.max(np.abs(X - xstar[:, None]), axis=0) <= radius
            blocks.append(block.reshape(n_vars, n * m))
            rhs.append(np.full(n * m, bound))

        return visit

    # one walk of the synthesis grid gives the Kamke report and the rows
    grid_box = box.with_resolution(res)
    kamke, = _certify(sys, grid_box, [_kamke_spec(sys, grid_box)],
                      DEFAULT_EPS, condition_rows(strict_radius, 0.0))

    if poly:
        # positivity on the axis grids: -theta_i(a) <= -eps
        for i, ax in enumerate(grid_box._grid.points):
            block = np.zeros((n_vars, ax.size))
            for k in range(d1):
                block[i * d1 + k] = -(ax ** k)
            blocks.append(block)
            rhs.append(np.full(ax.size, -eps))

        # equilibrium strictness: condition components at x* <= -eps,
        # without s (x* is within no radius)
        _scan(jacobian(sys), _Grid.at(xstar), [],
              condition_rows(-math.inf, -eps))

    all_rows, all_rhs = _dedupe(np.concatenate(blocks, axis=1).T,
                                np.concatenate(rhs))

    c = np.zeros(n_vars)
    c[s_col] = 1.0   # maximize s
    lo, hi = (-COEFF_CAP, COEFF_CAP) if poly else (1.0, V_CAP)
    lower = np.concatenate([np.full(n * d1, lo), [-np.inf]])
    upper = np.concatenate([np.full(n * d1, hi), [np.inf]])
    lp = LPProblem(c=c, rows=all_rows, rhs=all_rhs, lower=lower, upper=upper)
    sol = solve_lp(lp)

    def fail(margin: float, reason: str,
             posthoc: Optional[CertReport] = None) -> SynthResult:
        # an LP that fails on a non-monotone system is a symptom, not the
        # cause — report the Kamke failure first
        if not kamke.passed:
            reason = ("system is not monotone on the box "
                      f"(Kamke witness {kamke.witness['point']})")
        return SynthResult(False, label, None, margin, sol.status,
                           reason=reason, posthoc=posthoc, kamke=kamke,
                           resolution=res)

    if sol.status != "optimal":
        assert poly or sol.status != "unbounded", "bounded by construction"
        return fail(-math.inf, f"LP {sol.status} at degree {degree}" if poly
                    else "LP infeasible")

    coeffs = sol.z[:n * d1].reshape(n, d1).copy()
    s = float(sol.z[s_col])
    note = ""
    # non-constant coefficients at round-off level are zeros of the vertex
    coeffs[:, 1:][np.abs(coeffs[:, 1:]) <= 1e-12] = 0.0

    # normalize by the leading coefficient of the last non-constant weight
    lead = None
    for i in range(n - 1, -1, -1):
        nz = np.flatnonzero(coeffs[i, 1:])
        if nz.size:
            lead = coeffs[i, 1 + nz[-1]]
            break
    if lead is not None:
        if lead > 0:
            coeffs = coeffs / lead
            s = s / lead
        else:
            note = "normalization skipped: leading coefficient negative"
    else:
        # every component constant (always so for constant vectors): min = 1
        scale = float(np.min(coeffs[:, 0]))
        if scale > 0:
            coeffs = coeffs / scale
            s = s / scale

    if not kamke.passed or s <= 1e-9:
        what = f"degree-{degree}" if poly else "constant"
        return fail(s, f"no {what} weights achieve a negative margin on the "
                       f"grid (best s = {s:.6g})")

    if poly:
        weights = WeightFamily(kind, tuple(WeightComponent(tuple(coeffs[i]))
                                           for i in range(n)))
        check = check_thm1 if mode == "sum" else check_thm2
    else:
        weights = coeffs[:, 0]
        check = check_cor1 if mode == "sum" else check_cor2
    try:
        post = check(sys, weights, grid_box.refined(), eps=min(eps, s / 2))
    except CertifyError as exc:   # a polynomial lost positivity off the grid
        return fail(s, f"post-hoc positivity failure: {exc}")
    margin = -post.worst_margin
    if not post.passed or margin <= 0:
        return fail(margin, "post-hoc certification failed at doubled "
                            f"resolution (witness {post.witness['point']})",
                    post)
    return SynthResult(True, label, weights, margin, sol.status, reason=note,
                       posthoc=post, kamke=kamke, resolution=res)


# ---------------------------------------------------------------------------
# Polynomials as {exponent tuple: coefficient} (for the SOS program)
# ---------------------------------------------------------------------------

def _poly_mul(pa: dict, pb: dict) -> dict:
    """The product of two polynomials, zero terms kept."""
    out: dict = {}
    for ka, va in pa.items():
        for kb, vb in pb.items():
            key = tuple(a + b for a, b in zip(ka, kb))
            out[key] = out.get(key, 0.0) + va * vb
    return out


def _poly_dict(e: Expr, n: int) -> dict:
    """Exponent-tuple -> coefficient for a polynomial expression.

    Division is only allowed by a nonzero constant; anything non-polynomial
    (min/max, transcendentals, time) raises SynthError, at the first such
    node in pre-order.
    """

    def enter(node: Expr) -> Expr:
        if isinstance(node, (Min, Max)):
            raise SynthError("non-polynomial vector field: min/max branches")
        if isinstance(node, TimeVar):
            raise SynthError("non-polynomial vector field: time dependence")
        if isinstance(node, Div) and not (isinstance(node.b, Const)
                                          and node.b.value != 0.0):
            raise SynthError("non-polynomial vector field: division")
        if not isinstance(node, (Const, Var, Neg, Add, Sub, Mul, Div, Pow)):
            raise SynthError(
                f"non-polynomial vector field: {type(node).__name__}")
        return node

    def leave(node: Expr, args: list, slot: int) -> dict:
        if isinstance(node, Const):
            return {(0,) * n: node.value} if node.value != 0.0 else {}
        if isinstance(node, Var):
            return {_axis_mono(n, node.index, 1): 1.0}
        if isinstance(node, Neg):
            return {k: -v for k, v in args[0].items()}
        if isinstance(node, Div):
            return {k: v / node.b.value for k, v in args[0].items()}
        if isinstance(node, (Add, Sub)):
            out = dict(args[0])
            sign = 1.0 if isinstance(node, Add) else -1.0
            for k, v in args[1].items():
                out[k] = out.get(k, 0.0) + sign * v
        elif isinstance(node, Mul):
            out = _poly_mul(args[0], args[1])
        else:
            out = {(0,) * n: 1.0}
            for _ in range(node.exponent):
                out = _poly_mul(out, args[0])
        return {k: v for k, v in out.items() if v != 0.0}

    return _fold(e, leave, enter)


def _axis_mono(n: int, axis: int, power: int) -> tuple:
    """The exponent tuple of x_axis^power in n variables."""
    return tuple(power if a == axis else 0 for a in range(n))


def _grlex(mono: tuple) -> tuple:
    """Sort key of graded lexicographic order: by total degree, then
    x1^2 before x1*x2 before x2^2."""
    return sum(mono), tuple(-e for e in mono)


def _monomials_upto(n: int, deg: int) -> list:
    """All exponent tuples with total degree <= deg, in grlex order."""
    return sorted((k for k in itertools.product(range(deg + 1), repeat=n)
                   if sum(k) <= deg), key=_grlex)


# ---------------------------------------------------------------------------
# SOS feasibility program: one builder, and a writer for SDPA sparse format
# ---------------------------------------------------------------------------

def _domain_poly(lo: float, hi: float, n: int, axis: int) -> Optional[dict]:
    """d(x) >= 0 encoding [lo, hi] on ``axis``; None when unconstrained.

    (x-lo)(hi-x), x-lo, or hi-x for the finite/semi-infinite cases, zero
    coefficients dropped.
    """
    lo_f, hi_f = math.isfinite(lo), math.isfinite(hi)
    if lo_f and hi_f:
        coeffs = [-lo * hi, lo + hi, -1.0]
    elif lo_f:
        coeffs = [-lo, 1.0]
    elif hi_f:
        coeffs = [hi, -1.0]
    else:
        return None
    return {_axis_mono(n, axis, t): c for t, c in enumerate(coeffs)
            if c != 0.0}


def _diag_positions(n: int, d1: int) -> tuple:
    """1-based positions in the diagonal block: {(i, k): (plus, minus)} of
    coefficient c_{i,k} = plus - minus, then the slack of each component."""
    coeffs = {(i, k): (2 * (i * d1 + k) + 1, 2 * (i * d1 + k) + 2)
              for i in range(n) for k in range(d1)}
    return coeffs, [2 * n * d1 + j + 1 for j in range(n)]


def _gram(block: int, basis: list, multiplier: dict) -> dict:
    """monomial -> {(block, a, b): coefficient} of multiplier * z'Gz, z the
    monomials of ``basis`` and G the block, over its upper triangle."""
    out: dict = {}
    for a in range(len(basis)):
        for b in range(a, len(basis)):
            zz = {tuple(x + y for x, y in zip(basis[a], basis[b])): 1.0}
            for mono, v in _poly_mul(zz, multiplier).items():
                out.setdefault(mono, {})[(block, a + 1, b + 1)] = v
    return out


def _sos_program(sys: SystemDef, degree: int, eps: float, mode: str,
                 multiplier_degree: int) -> tuple:
    """The SOS feasibility program of ``export_sos_sdpa`` as data.

    Returns ``(blocks, rows, rhs)``: ``blocks`` lists (name, size, basis)
    in block order, the basis a list of exponent tuples, or None for the
    diagonal block, which comes last; row r says  sum of value * Y[block][a,
    b] over its entries {(block, a, b): value} = rhs[r],  with 1-based
    block numbers and upper-triangular 1-based positions a <= b, an entry
    off the diagonal standing for both of its symmetric places.  The
    arguments are those ``export_sos_sdpa`` has checked.
    """
    n = sys.n
    d1 = degree + 1
    xs = [float(v) for v in sys.equilibrium]

    jb = jacobian(sys)
    if jb.n_guards:
        raise SynthError("non-polynomial vector field: min/max branches")
    J_polys = [[_poly_dict(jb.branch_matrix(())[i, j], n) for j in range(n)]
               for i in range(n)]
    f_polys = [_poly_dict(fi, n) for fi in sys.odes]
    domains = [_domain_poly(b.lo, b.hi, n, i) for i, b in enumerate(sys.bounds)]
    one = {(0,) * n: 1.0}

    # linear coefficient polynomials: cond_j = sum_{i,k} c_{i,k} * L[j][i, k]
    sign = _CONDITIONS[mode][2]
    L = [{} for _ in range(n)]
    for j, i, k in itertools.product(range(n), range(n), range(d1)):
        # theta_i J[i, j] (sum) or J[j, i] omega_i (max), x_i^k each
        p = _poly_mul(J_polys[i][j] if mode == "sum" else J_polys[j][i],
                      {_axis_mono(n, i, k): 1.0})
        if i == j and k >= 1:
            extra = _poly_mul(f_polys[j], {_axis_mono(n, j, k - 1): sign * k})
            for key, v in extra.items():
                p[key] = p.get(key, 0.0) + v
        L[j][i, k] = {key: v for key, v in p.items() if v != 0.0}

    # ---- block layout -----------------------------------------------------
    blocks: list = []

    def block(name: str, basis: Optional[list], size: int = 0) -> int:
        blocks.append((name, size or len(basis), basis))
        return len(blocks)

    def univariate(i: int, deg: int) -> list:
        return [_axis_mono(n, i, p) for p in range(deg // 2 + 1)]

    def q_degree(j: int) -> int:
        deg = max((sum(key) for p in L[j].values() for key in p), default=0)
        return max([deg] + [multiplier_degree + max(map(sum, dom))
                            for dom in domains if dom is not None])

    P = [block(f"P_{i + 1}", univariate(i, degree)) for i in range(n)]
    S = {i: block(f"S_{i + 1}", univariate(i, multiplier_degree))
         for i in range(n) if domains[i] is not None}
    q_basis = [_monomials_upto(n, q_degree(j) // 2) for j in range(n)]
    Q = [block(f"Q_{j + 1}", q_basis[j]) for j in range(n)]
    sig_basis = _monomials_upto(n, multiplier_degree // 2)
    sigma = {(j, i): block(f"sigma_{j + 1}_{i + 1}", sig_basis)
             for j in range(n) for i in range(n) if domains[i] is not None}
    diag = block("coeffs_and_slacks", None, 2 * n * d1 + n)
    coeff_pos, slack_pos = _diag_positions(n, d1)

    # ---- constraint rows ----------------------------------------------------
    rows: list = []
    rhs: list = []

    def add_coeff(ent: dict, i: int, k: int, v: float) -> None:
        """Add v * c_{i,k}, that is v * (plus - minus), to the row ``ent``."""
        plus, minus = coeff_pos[i, k]
        ent[(diag, plus, plus)] = v
        ent[(diag, minus, minus)] = -v

    def identity(grams: list, linear: dict, const: float) -> None:
        """Rows matching, monomial by monomial in grlex order, the Gram
        terms ``grams`` plus sum c_{i,k} * linear[i, k] to ``const``."""
        per_mono: dict = {}
        for g in grams:
            for mono, ent in g.items():
                per_mono.setdefault(mono, {}).update(ent)
        for mono in sorted(set(per_mono).union(*linear.values()),
                           key=_grlex):
            ent = per_mono.get(mono, {})
            for (i, k), p in linear.items():
                lv = p.get(mono, 0.0)
                if lv != 0.0:
                    add_coeff(ent, i, k, lv)
            rows.append(ent)
            rhs.append(0.0 if any(mono) else const)

    # positivity: P_i + S_i d_i - theta_i = -eps
    for i in range(n):
        grams = [_gram(P[i], univariate(i, degree), one)]
        if i in S:
            grams.append(_gram(S[i], univariate(i, multiplier_degree),
                               domains[i]))
        identity(grams, {(i, k): {_axis_mono(n, i, k): -1.0}
                         for k in range(d1)}, -eps)

    # conditions: Q_j + sum_i sigma_ji d_i + cond_j = 0
    for j in range(n):
        grams = [_gram(Q[j], q_basis[j], one)]
        grams += [_gram(sigma[j, i], sig_basis, domains[i])
                  for i in range(n) if (j, i) in sigma]
        identity(grams, L[j], 0.0)

    # equilibrium strictness rows: -cond_j(x*) - slack_j = eps
    for j in range(n):
        ent = {}
        for (i, k), p in L[j].items():
            # fsum: large cancelling terms must not swallow small ones; the
            # powers in Python floats, the same under every numpy dispatch
            val = math.fsum(cv * math.prod(v ** e for v, e in zip(xs, mono))
                            for mono, cv in p.items())
            if val != 0.0:
                add_coeff(ent, i, k, -val)
        ent[(diag, slack_pos[j], slack_pos[j])] = -1.0
        rows.append(ent)
        rhs.append(eps)
    return blocks, rows, rhs


def export_sos_sdpa(sys: SystemDef, degree: int = 2,
                    eps: float = DEFAULT_EPS, path="sos.dat-s",
                    mode: str = "sum",
                    multiplier_degree: int = 0) -> dict:
    """Write the SOS feasibility program for polynomial weights as .dat-s.

    For each coordinate: theta_i(x_i) - eps = P_i + S_i d_i with P_i, S_i
    sums of squares and d_i the domain polynomial of the i-th interval
    (dropped when the axis is unconstrained).  For each condition component
    j: -(condition_j)(x) = Q_j + sum_i sigma_ji d_i.  At the equilibrium:
    -(condition_j)(x*) - eps >= 0 via nonnegative slacks.  The unknown
    coefficients enter through a final diagonal block as differences of
    nonnegative entries; all constraints are linear coefficient-matching
    equalities on the block-diagonal PSD variable.

    ``_sos_program`` builds that program as data; this function checks the
    arguments and writes it out: the .dat-s file (rows in order, each
    row's entries sorted, values to 12 significant digits) and the JSON
    sidecar ``path`` + ".json", whose mapping it returns.  The sidecar
    locates every block, coefficient and slack, as ``parse_sos_solution``
    needs, and prints the bases of the univariate blocks P_i and S_i as
    degrees.
    """
    if mode not in PAIRING:
        raise SynthError(f"mode must be 'sum' or 'max', got {mode!r}")
    _check_arguments(SynthError, eps=eps, degree=degree,
                     multiplier_degree=multiplier_degree)
    if multiplier_degree % 2:
        raise SynthError("multiplier degree must be even (it is a SOS degree)")
    if sys.equilibrium is None:
        raise SynthError("SOS export needs a declared equilibrium")
    blocks, rows, rhs = _sos_program(sys, degree, eps, mode, multiplier_degree)

    lines = [f"{len(rows)}", f"{len(blocks)}",
             " ".join(str(size if basis is not None else -size)
                      for _, size, basis in blocks),
             " ".join(f"{v:.12g}" for v in rhs)]
    for r, ent in enumerate(rows, start=1):
        for (blk, a, b), v in sorted(ent.items()):
            lines.append(f"{r} {blk} {a} {b} {v:.12g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")

    coeff_pos, slack_pos = _diag_positions(sys.n, degree + 1)
    sidecar = {
        "kind": PAIRING[mode][0],
        "mode": mode,
        "degree": degree,
        "multiplier_degree": multiplier_degree,
        "epsilon": eps,
        "n": sys.n,
        "monomial_order": "grlex",
        "blocks": [{"name": name, "index": bi, "size": size,
                    "basis": None if basis is None else
                    [sum(m) if name[:2] in ("P_", "S_") else list(m)
                     for m in basis]}
                   for bi, (name, size, basis) in enumerate(blocks, start=1)],
        "diag_block": len(blocks),
        "coefficients": {f"c_{i + 1}_{k}": {"plus": plus, "minus": minus}
                         for (i, k), (plus, minus) in coeff_pos.items()},
        "slacks": slack_pos,
        "bounds": [[b.lo, b.hi] for b in sys.bounds],
        "n_constraints": len(rows),
    }
    with open(str(path) + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
    return sidecar


# ---------------------------------------------------------------------------
# Reading an external solver's output back
# ---------------------------------------------------------------------------

def _parse_sdpa_blocks(text: str) -> list:
    """Parse "{ blk, blk, ... }" into arrays.

    Flat blocks ("{1, 2}") become 1-D arrays; nested blocks (matrices
    printed row-wise, "{{1,2},{2,3}}") become 2-D arrays.  One pass keeps
    the open braces on a stack, each with the text offset after its last
    brace and the arrays closed inside it: depth 1 is the list of blocks,
    2 a block and 3 a matrix row, and a brace opened deeper is malformed,
    as is a number beside the blocks or beside a block's rows.
    """
    def separators_only(start: int, end: int) -> None:
        if text[start:end].replace(",", " ").split():
            raise SynthError("malformed solver output: "
                             f"{text[start:end].strip()!r} stands beside "
                             "yMat blocks or rows")

    stack: list = []
    for i, ch in enumerate(text):
        if ch == "{":
            if len(stack) == 3:
                raise SynthError("malformed solver output: yMat nests deeper "
                                 "than a matrix")
            if stack:
                separators_only(stack[-1][0], i)
            stack.append([i + 1, []])
        elif ch == "}" and stack:
            start, inner = stack.pop()
            if inner or not stack:
                separators_only(start, i)
            if not stack:
                return inner
            try:
                if inner:
                    value = np.vstack(inner)
                else:
                    vals = text[start:i].replace(",", " ").split()
                    value = np.array([float(v) for v in vals])
            except ValueError as exc:
                raise SynthError(f"malformed solver output: {exc}")
            stack[-1][0] = i + 1
            stack[-1][1].append(value)
    raise SynthError("malformed solver output: unbalanced braces in yMat")


def parse_sos_solution(sidecar, solver_output) -> WeightFamily:
    """Reconstruct the weight family from an SDPA solver's output file.

    ``sidecar`` is the mapping written by ``export_sos_sdpa`` (path or
    dict); ``solver_output`` is the solver's result file containing a
    ``yMat`` section.  The recovered weights are checked for strict
    positivity on the (finite parts of the) declared bounds.
    """
    if not isinstance(sidecar, dict):
        with open(sidecar) as fh:
            sidecar = json.load(fh)
    text = solver_output
    try:
        with open(solver_output) as fh:
            text = fh.read()
    except (TypeError, OSError):
        if not isinstance(solver_output, str):
            raise SynthError("solver output must be a path or text")

    marker = text.find("yMat")
    if marker < 0:
        raise SynthError("malformed solver output: no yMat section")
    brace = text.find("{", marker)
    if brace < 0:
        raise SynthError("malformed solver output: no yMat block")
    blocks = _parse_sdpa_blocks(text[brace:])
    if len(blocks) != len(sidecar["blocks"]):
        raise SynthError(
            f"malformed solver output: expected {len(sidecar['blocks'])} "
            f"yMat blocks, found {len(blocks)}")

    diag = blocks[sidecar["diag_block"] - 1]
    if diag.ndim == 2:          # solvers may print the diagonal block densely
        diag = np.diag(diag)
    n = sidecar["n"]
    degree = sidecar["degree"]
    comps = []
    for i in range(n):
        coeffs = []
        for k in range(degree + 1):
            spec_entry = sidecar["coefficients"][f"c_{i + 1}_{k}"]
            try:
                c = float(diag[spec_entry["plus"] - 1] -
                          diag[spec_entry["minus"] - 1])
            except IndexError:
                raise SynthError("malformed solver output: diagonal block "
                                 "shorter than the coefficient layout")
            coeffs.append(c)
        comps.append(WeightComponent(tuple(coeffs)))
    fam = WeightFamily(sidecar["kind"], tuple(comps))

    # positivity diagnosis on the finite parts of the declared bounds
    lo, hi = np.array(sidecar["bounds"], dtype=float).reshape(-1, 2).T
    lows = np.where(np.isfinite(lo), lo,
                    np.where(np.isfinite(hi), hi - 10.0, -10.0))
    highs = np.where(np.isfinite(hi), hi,
                     np.where(np.isfinite(lo), lo + 10.0, 10.0))
    try:
        _positivity_check(fam, WorkingBox(lows, highs, 101))
    except CertifyError as exc:
        raise SynthError(f"recovered weights: {exc}") from exc
    return fam
