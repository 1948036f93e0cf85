"""Sampled certification of monotonicity/contraction conditions on a box.

Every check here evaluates a "quantity required <= 0" on a finite grid over
a working box and reports the worst (largest) value found, together with the
grid point witnessing it.  Conditions that additionally demand strictness at
the equilibrium report that margin separately.  Verification is sampling:
a pass means "verified on box B at resolution h", nothing stronger.

The checks:

* ``check_kamke``  — off-diagonal Jacobian entries >= 0 (Metzler everywhere),
  the infinitesimal characterization of monotonicity.
* ``check_thm1``   — sum-type weights: every component of
  theta(x)^T J(x) + thetadot(x)^T is <= 0 on the grid and <= -eps at x*.
* ``check_thm2``   — max-type weights: every component of
  J(x) omega(x) - omegadot(x) is <= 0 on the grid and <= -eps at x*.
* ``check_cor1``   — constant vector v > 0: v^T J(x) <= 0, strict at x*;
  with ``global_flag`` additionally v^T J(x) <= -eps everywhere (which is
  what upgrades the flow-type Lyapunov function to a global one).
* ``check_cor2``   — row analogue with a constant w > 0.
* ``check_cor3``   — mu_norm of the weighted Jacobian <= 0 on the grid and
  <= -eps at x*.

Piecewise (min/max) vector fields are handled branch-wise: at each grid
point the active branch's Jacobian is used, and wherever branch guards tie
(within the relative tie tolerance) every tied branch must satisfy the
condition — the reported value is the worst across tied branches.
``partition`` groups the grid points by active branch pattern, so each
condition is evaluated once per pattern and chunk, tied points included.

The reduction is deterministic: worst margin, ties broken by the
lexicographically smallest grid index.  A NaN condition value counts as
worse than every number, so it fails the check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .measures import WeightFamily
from .sysdsl import SystemDef, jacobian, JacobianBranches, TIE_TOL

__all__ = [
    "WorkingBox", "CertReport", "CertifyError",
    "check_kamke", "check_thm1", "check_thm2",
    "check_cor1", "check_cor2", "check_cor3",
    "certify_all", "grid_condition_values", "grid_mu_values", "partition",
    "ZERO_TOL", "DEFAULT_EPS", "DEFAULT_RESOLUTION",
]

ZERO_TOL = 1e-9        # strictness tolerance for the "<= 0" comparisons
DEFAULT_EPS = 0.01     # default equilibrium-strictness margin
DEFAULT_RESOLUTION = 41
# max grid points evaluated per batch; small enough that one batch's numpy
# temporaries are served again from the allocator's heap by the next batch,
# not handed back to the OS and page-faulted anew (at 65536 points that
# churn made guard-free 1201^2 scans about 12% slower)
_CHUNK = 4096


class CertifyError(ValueError):
    """Invalid certification request (bad box, bad weights, missing x*)."""


# ---------------------------------------------------------------------------
# Working box
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorkingBox:
    """A finite rectangle with a uniform per-axis grid resolution."""
    lows: tuple
    highs: tuple
    resolution: int = DEFAULT_RESOLUTION

    def __post_init__(self):
        lows = tuple(float(v) for v in self.lows)
        highs = tuple(float(v) for v in self.highs)
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        if len(lows) != len(highs):
            raise CertifyError("box lows/highs length mismatch")
        for lo, hi in zip(lows, highs):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise CertifyError("working box must be finite")
            if not lo < hi:
                raise CertifyError(f"empty box axis [{lo}, {hi}]")
        if self.resolution < 2:
            raise CertifyError("resolution must be at least 2")

    @property
    def n(self) -> int:
        return len(self.lows)

    @property
    def n_points(self) -> int:
        return self.resolution ** self.n

    def axes(self) -> list:
        return [np.linspace(lo, hi, self.resolution)
                for lo, hi in zip(self.lows, self.highs)]

    def refined(self) -> "WorkingBox":
        """Doubled resolution; 2r-1 points per axis keep the grid a superset."""
        return WorkingBox(self.lows, self.highs, 2 * self.resolution - 1)

    def with_resolution(self, resolution: int) -> "WorkingBox":
        return WorkingBox(self.lows, self.highs, resolution)

    def contains(self, x: Sequence[float], tol: float = 1e-12) -> bool:
        return all(lo - tol <= float(v) <= hi + tol
                   for lo, hi, v in zip(self.lows, self.highs, x))

    def validate_for(self, sys: SystemDef) -> None:
        if self.n != sys.n:
            raise CertifyError(f"box dimension {self.n} != system dimension {sys.n}")
        for b, lo, hi, name in zip(sys.bounds, self.lows, self.highs,
                                   sys.state_names):
            if not (b.contains(lo, tol=1e-12) and b.contains(hi, tol=1e-12)):
                raise CertifyError(
                    f"box axis [{lo}, {hi}] for {name} is not inside the "
                    f"declared domain {b}")
        if sys.equilibrium is not None and not self.contains(sys.equilibrium):
            raise CertifyError("working box does not contain the equilibrium")

    @staticmethod
    def default_for(sys: SystemDef, resolution: int = DEFAULT_RESOLUTION) -> "WorkingBox":
        """The system's own bounds, when finite — never a silent truncation."""
        for b, name in zip(sys.bounds, sys.state_names):
            if math.isinf(b.lo) or math.isinf(b.hi):
                raise CertifyError(
                    f"state {name} has an unbounded domain {b}: an explicit "
                    "finite working box is required")
        box = WorkingBox(tuple(b.lo for b in sys.bounds),
                         tuple(b.hi for b in sys.bounds), resolution)
        box.validate_for(sys)
        return box

    @staticmethod
    def from_string(text: str, resolution: int = DEFAULT_RESOLUTION) -> "WorkingBox":
        """Parse "lo:hi,lo:hi,..." into a box."""
        lows, highs = [], []
        for part in text.split(","):
            pieces = part.split(":")
            if len(pieces) != 2:
                raise CertifyError(f"bad box axis {part!r} (want lo:hi)")
            lows.append(float(pieces[0]))
            highs.append(float(pieces[1]))
        return WorkingBox(tuple(lows), tuple(highs), resolution)

    def to_jsonable(self) -> list:
        return [[lo, hi] for lo, hi in zip(self.lows, self.highs)]


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

@dataclass
class CertReport:
    """Outcome of one sampled check."""
    condition: str
    verdict: str                 # pass | fail | pass-with-margin
    worst_margin: float
    witness: dict                # {"point": [...], "component": ..., "value": ...}
    box: WorkingBox
    eps: float
    branch_ties: int
    equilibrium_margin: Optional[float] = None
    positivity: Optional[dict] = None
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"

    def to_jsonable(self) -> dict:
        return {
            "condition": self.condition,
            "verdict": self.verdict,
            "worst_margin": self.worst_margin,
            "witness": self.witness,
            "box": self.box.to_jsonable(),
            "resolution": self.box.resolution,
            "eps": self.eps,
            "branch_ties": self.branch_ties,
            "equilibrium_margin": self.equilibrium_margin,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), sort_keys=True, indent=2)

    def summary_line(self) -> str:
        eq = ("" if self.equilibrium_margin is None
              else f"  eq margin {self.equilibrium_margin:+.6g}")
        return (f"{self.condition:<12} {self.verdict:<16} "
                f"worst margin {self.worst_margin:+.6g}{eq}")


# ---------------------------------------------------------------------------
# Grid engine
# ---------------------------------------------------------------------------

def _iter_chunks(axes: list):
    """Yield the full grid in chunks of points, in C (lexicographic) order."""
    shape = tuple(len(a) for a in axes)
    total = int(np.prod(shape))
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        flat = np.arange(start, stop)
        multi = np.unravel_index(flat, shape)
        X = np.stack([axes[d][multi[d]] for d in range(len(axes))], axis=1)
        yield X


_SIDE_NAMES = ("left", "right")
_TIED = 2      # partition key entry of a guard that ties at the row


def partition(jb: JacobianBranches, X: np.ndarray) -> list:
    """Cover the rows of X with the branch patterns active there.

    Rows are grouped by their key: the strict side (0=left, 1=right) of
    every untied guard plus the mask of tied guards.  A tied guard takes
    both sides, so a group with ties is listed once per tied branch, in
    ``itertools.product`` order, which is the order of
    ``JacobianBranches.patterns_at``.
    Returns ``[(pattern, rows, tied)]``; the entries of one tied group
    share the same ``rows`` array.
    """
    if jb.n_guards == 0:
        return [((), np.arange(X.shape[0]), False)]
    diffs, scales = jb.guard_values(X)
    is_min = np.array([g.is_min for g in jb.guards])
    side = np.where(is_min, diffs >= 0, diffs <= 0).astype(np.int8)
    key = np.where(np.abs(diffs) <= TIE_TOL * scales, np.int8(_TIED), side)
    keys, inverse, counts = np.unique(key, axis=0, return_inverse=True,
                                      return_counts=True)
    order = np.argsort(inverse.reshape(-1), kind="stable")
    groups = []
    for k, rows in zip(keys, np.split(order, np.cumsum(counts)[:-1])):
        tied = bool(np.any(k == _TIED))
        options = [(0, 1) if s == _TIED else (int(s),) for s in k]
        for combo in product(*options):
            groups.append((tuple(_SIDE_NAMES[s] for s in combo), rows, tied))
    return groups


def _worse(v, cur):
    """Where v replaces cur as the worst value: strictly larger, or the
    first NaN (a NaN condition value is worse than every number)."""
    return (v > cur) | (np.isnan(v) & ~np.isnan(cur))


def _worst_component(cond: np.ndarray) -> tuple:
    """Per-row worst value and the component attaining it (first NaN wins)."""
    comps = np.argmax(cond, axis=1)
    return cond[np.arange(cond.shape[0]), comps], comps


def _reduce(jb: JacobianBranches, X: np.ndarray, evaluator: Callable,
            componentwise: bool = False) -> tuple:
    """Condition values at the rows of X, worst over each row's tied branches.

    ``evaluator(X, pattern)`` returns the (m, c) condition components.  By
    default the result is (vals (m,), comps (m,), n_tied): the worst
    component per point, supplied by the first tied branch (in product
    order) attaining it.  With ``componentwise`` the evaluator must return
    n = sys.n components and the result is (values (m, n), None, n_tied),
    the componentwise max over tied branches.
    """
    groups = partition(jb, X)
    if len(groups) == 1 and not groups[0][2]:
        # one untied group covers the chunk: no scatter needed
        cond = evaluator(X, groups[0][0])
        if componentwise:
            return cond, None, 0
        return (*_worst_component(cond), 0)

    m = X.shape[0]
    vals = np.full((m, jb.sys.n) if componentwise else m, -np.inf)
    comps = None if componentwise else np.zeros(m, dtype=np.int64)
    tied_rows = np.zeros(m, dtype=bool)
    for pattern, rows, tied in groups:
        cond = evaluator(X[rows], pattern)
        if tied:
            tied_rows[rows] = True
        if componentwise:
            vals[rows] = np.maximum(vals[rows], cond)
            continue
        v, c = _worst_component(cond)
        if tied:
            upd = _worse(v, vals[rows])
            rows, v, c = rows[upd], v[upd], c[upd]
        vals[rows] = v
        comps[rows] = c
    return vals, comps, int(tied_rows.sum())


def _scan_grid(jb: JacobianBranches, box: WorkingBox,
               evaluator: Callable) -> tuple:
    """Worst value over the whole grid.

    Returns (worst, witness_point, witness_comp, n_ties).  Deterministic:
    the witness is the first (lexicographically smallest) grid point
    attaining the worst value, or the first NaN.
    """
    worst = -np.inf
    worst_point: Optional[np.ndarray] = None
    worst_comp = 0
    n_ties = 0
    for X in _iter_chunks(box.axes()):
        vals, comps, ties = _reduce(jb, X, evaluator)
        n_ties += ties
        k = int(np.argmax(vals))
        # even an all--inf grid (vacuous conditions) must produce a witness
        if worst_point is None or _worse(vals[k], worst):
            worst = float(vals[k])
            worst_point = X[k]
            worst_comp = int(comps[k])
    return worst, worst_point, worst_comp, n_ties


def _eval_at_point(jb: JacobianBranches, x: Sequence[float],
                   evaluator: Callable) -> float:
    """Worst condition value at a single point over all tied branches."""
    X = np.asarray([list(map(float, x))])
    vals, _, _ = _reduce(jb, X, evaluator)
    return float(vals[0])


# ---------------------------------------------------------------------------
# Condition evaluators: (X, pattern) -> (m, components) array
# ---------------------------------------------------------------------------

def _family_axis_values(fam: WeightFamily, X: np.ndarray,
                        deriv: bool = False) -> np.ndarray:
    out = np.empty_like(X)
    for i, comp in enumerate(fam.components):
        out[:, i] = comp.deriv(X[:, i]) if deriv else comp.value(X[:, i])
    return out


def _make_kamke_eval(jb: JacobianBranches):
    n = jb.sys.n
    diag_cols = [i * n + i for i in range(n)]

    def ev(X, pattern):
        J = jb.branch_matrix(pattern).evaluate_batch(X)
        off = -J.reshape(X.shape[0], n * n)
        # diagonal entries carry no Metzler constraint; mask them out (a
        # scalar system is vacuously Metzler)
        off[:, diag_cols] = -np.inf
        return off

    return ev


# The weighted conditions, by mode: the weight kind, the contraction of the
# weights w with the Jacobian J, and the sign of the wdot * f term.
#   sum: theta^T J + thetadot^T   (component j: column j)
#   max: J omega - omegadot       (component i: row i)
_CONDITIONS = {
    "sum": ("theta", lambda w, J: np.einsum("mi,mij->mj", w, J), 1.0),
    "max": ("omega", lambda w, J: np.einsum("mij,mj->mi", J, w), -1.0),
}


def _make_weighted_eval(jb: JacobianBranches, fam: WeightFamily, mode: str):
    _, contract, sign = _CONDITIONS[mode]

    def ev(X, pattern):
        J = jb.branch_matrix(pattern).evaluate_batch(X)
        f = jb.sys.f_batch(X)
        w = _family_axis_values(fam, X)
        dw = _family_axis_values(fam, X, deriv=True)
        return contract(w, J) + sign * dw * f

    return ev


def _make_mu_eval(jb: JacobianBranches, fam: WeightFamily, norm: str):
    idx = np.arange(jb.sys.n)

    def ev(X, pattern):
        J = jb.branch_matrix(pattern).evaluate_batch(X)
        f = jb.sys.f_batch(X)
        th = _family_axis_values(fam, X)
        dth = _family_axis_values(fam, X, deriv=True)
        if fam.kind == "omega":
            dth = -dth / (th * th)
            th = 1.0 / th
        Jt = (th[:, :, None] / th[:, None, :]) * J
        Jt[:, idx, idx] += dth * f / th
        d = Jt[:, idx, idx]
        if norm == "l1":
            return np.sum(np.abs(Jt), axis=1) - np.abs(d) + d  # per column
        return np.sum(np.abs(Jt), axis=2) - np.abs(d) + d      # per row

    return ev


# ---------------------------------------------------------------------------
# Shared check plumbing
# ---------------------------------------------------------------------------

def _as_family(weights, kind: str) -> WeightFamily:
    if isinstance(weights, WeightFamily):
        if weights.kind != kind:
            raise CertifyError(f"expected a {kind!r} family, got {weights.kind!r}")
        return weights
    vec = np.asarray(weights, dtype=float)
    if vec.ndim != 1:
        raise CertifyError("constant weights must be a flat vector")
    return WeightFamily.constant(kind, vec)


def _bounds(kind: str, lo: float, hi: float) -> dict:
    # c is the uniform bound the conditions quantify over: a lower bound
    # for theta, an upper bound for omega
    return {"min": lo, "max": hi, "c": lo if kind == "theta" else hi}


def _positivity_check(fam: WeightFamily, box: WorkingBox) -> dict:
    """Verify the family's sign condition on the box's axis grids.

    theta kind needs theta_i >= c > 0; omega kind needs 0 < omega_i <= c.
    Violations are errors (the checks' hypotheses are simply absent), not
    fail verdicts.
    """
    axes = box.axes()
    lo = math.inf
    hi = -math.inf
    for i, comp in enumerate(fam.components):
        vals = np.asarray(comp.value(axes[i]), dtype=float)
        lo = min(lo, float(np.min(vals)))
        hi = max(hi, float(np.max(vals)))
    if lo <= 1e-12:
        raise CertifyError(
            f"{fam.kind} positivity violated on the box: min value {lo:.3e}")
    return _bounds(fam.kind, lo, hi)


def _require_equilibrium(sys: SystemDef) -> tuple:
    if sys.equilibrium is None:
        raise CertifyError("this check needs a declared equilibrium")
    return sys.equilibrium


def _finish(condition: str, jb: JacobianBranches, box: WorkingBox,
            eps: float, evaluator, needs_eq: bool, uniform: bool = False,
            positivity: Optional[dict] = None,
            component_decoder=None, notes: str = "") -> CertReport:
    sys = jb.sys
    box.validate_for(sys)
    worst, point, comp, ties = _scan_grid(jb, box, evaluator)
    eq_margin = None
    if needs_eq:
        xstar = _require_equilibrium(sys)
        eq_margin = _eval_at_point(jb, xstar, evaluator)

    # written as "not <=" so that a NaN value fails
    failed = not worst <= ZERO_TOL
    if needs_eq and eq_margin is not None and not eq_margin <= -eps:
        failed = True
    if uniform and not worst <= -eps:
        failed = True
    if failed:
        verdict = "fail"
    elif worst <= -eps:
        verdict = "pass-with-margin"
    else:
        verdict = "pass"

    decoded = component_decoder(comp) if component_decoder else comp
    witness = {
        "point": [float(v) for v in point],
        "component": decoded,
        "value": worst,
    }
    return CertReport(condition=condition, verdict=verdict, worst_margin=worst,
                      witness=witness, box=box, eps=eps, branch_ties=ties,
                      equilibrium_margin=eq_margin, positivity=positivity,
                      notes=notes)


def _weighted_check(condition: str, mode: str, sys: SystemDef, weights,
                    box: Optional[WorkingBox], eps: float,
                    vector: Optional[str] = None,
                    global_flag: bool = False) -> CertReport:
    """A sum- or max-type check of a weight family, or with ``vector`` (the
    argument's name) of a constant positive vector."""
    if box is None:
        box = WorkingBox.default_for(sys)
    kind = _CONDITIONS[mode][0]
    if vector is None:
        fam = _as_family(weights, kind)
        if fam.n != sys.n:
            raise CertifyError("weight dimension mismatch")
        pos = _positivity_check(fam, box)
    else:
        vec = np.asarray(weights, dtype=float)
        if vec.shape != (sys.n,):
            raise CertifyError(f"{vector} has the wrong dimension")
        if not np.all(vec > 0):
            raise CertifyError(f"{vector} must be strictly positive")
        fam = WeightFamily.constant(kind, vec)
        pos = _bounds(kind, float(np.min(vec)), float(np.max(vec)))
        if global_flag:
            condition += "-global"
    _require_equilibrium(sys)
    jb = jacobian(sys)
    return _finish(condition, jb, box, eps, _make_weighted_eval(jb, fam, mode),
                   needs_eq=True, uniform=global_flag, positivity=pos)


# ---------------------------------------------------------------------------
# Public checks
# ---------------------------------------------------------------------------

def check_kamke(sys: SystemDef, box: Optional[WorkingBox] = None) -> CertReport:
    """Monotonicity: the Jacobian is Metzler at every grid point/tied branch."""
    if box is None:
        box = WorkingBox.default_for(sys)
    n = sys.n

    def decode(c):
        return [int(c) // n, int(c) % n]

    jb = jacobian(sys)
    return _finish("kamke", jb, box, DEFAULT_EPS, _make_kamke_eval(jb),
                   needs_eq=False, component_decoder=decode)


def check_thm1(sys: SystemDef, theta: WeightFamily,
               box: Optional[WorkingBox] = None,
               eps: float = DEFAULT_EPS) -> CertReport:
    """Sum-type certificate: theta^T J + thetadot^T <= 0, strict at x*."""
    return _weighted_check("thm1", "sum", sys, theta, box, eps)


def check_thm2(sys: SystemDef, omega: WeightFamily,
               box: Optional[WorkingBox] = None,
               eps: float = DEFAULT_EPS) -> CertReport:
    """Max-type certificate: J omega - omegadot <= 0, strict at x*."""
    return _weighted_check("thm2", "max", sys, omega, box, eps)


def check_cor1(sys: SystemDef, v: Sequence[float],
               box: Optional[WorkingBox] = None, eps: float = DEFAULT_EPS,
               global_flag: bool = False) -> CertReport:
    """Constant-vector column certificate v^T J <= 0, strict at x*.

    ``global_flag`` demands v^T J <= -eps uniformly on the box, the
    sufficient condition for the flow-type Lyapunov function to be global.
    """
    return _weighted_check("cor1", "sum", sys, v, box, eps, vector="v",
                           global_flag=global_flag)


def check_cor2(sys: SystemDef, w: Sequence[float],
               box: Optional[WorkingBox] = None, eps: float = DEFAULT_EPS,
               global_flag: bool = False) -> CertReport:
    """Constant-vector row certificate J w <= 0, strict at x*."""
    return _weighted_check("cor2", "max", sys, w, box, eps, vector="w",
                           global_flag=global_flag)


def check_cor3(sys: SystemDef, w: WeightFamily, norm: str = "l1",
               box: Optional[WorkingBox] = None,
               eps: float = DEFAULT_EPS) -> CertReport:
    """Weighted-Jacobian measure certificate: mu(Jtilde) <= 0, strict at x*."""
    if box is None:
        box = WorkingBox.default_for(sys)
    if norm not in ("l1", "linf"):
        raise CertifyError(f"norm must be 'l1' or 'linf', got {norm!r}")
    fam = w if isinstance(w, WeightFamily) else WeightFamily.constant(
        "theta" if norm == "l1" else "omega", w)
    if fam.n != sys.n:
        raise CertifyError("weight dimension mismatch")
    pos = _positivity_check(fam, box)
    _require_equilibrium(sys)
    jb = jacobian(sys)
    return _finish(f"cor3-{norm}", jb, box, eps, _make_mu_eval(jb, fam, norm),
                   needs_eq=True, positivity=pos)


def certify_all(sys: SystemDef,
                weights: Union[None, WeightFamily, Sequence[WeightFamily]] = None,
                box: Optional[WorkingBox] = None,
                eps: float = DEFAULT_EPS) -> list:
    """Kamke check plus every weight-dependent check the weights support.

    A theta family runs the sum-type check and the l1 measure check (plus
    the constant-vector column check when it is constant); an omega family
    runs the max-type and linf analogues.  Checks are independent — a Kamke
    failure does not suppress the weight checks.
    """
    if box is None:
        box = WorkingBox.default_for(sys)
    reports = [check_kamke(sys, box)]
    if weights is None:
        fams = []
    elif isinstance(weights, WeightFamily):
        fams = [weights]
    else:
        fams = list(weights)

    multi = len(fams) > 1

    def tag(rep: CertReport, k: int) -> CertReport:
        if multi:
            rep.condition = f"{rep.condition}#{k + 1}"
        return rep

    for k, fam in enumerate(fams):
        if fam.kind == "theta":
            reports.append(tag(check_thm1(sys, fam, box, eps), k))
            if fam.is_constant:
                reports.append(tag(check_cor1(sys, fam.constants(), box, eps), k))
            reports.append(tag(check_cor3(sys, fam, "l1", box, eps), k))
        else:
            reports.append(tag(check_thm2(sys, fam, box, eps), k))
            if fam.is_constant:
                reports.append(tag(check_cor2(sys, fam.constants(), box, eps), k))
            reports.append(tag(check_cor3(sys, fam, "linf", box, eps), k))
    return reports


# ---------------------------------------------------------------------------
# Raw condition values (for golden-value tests and cross-check properties)
# ---------------------------------------------------------------------------

def grid_condition_values(sys: SystemDef, weights, box: WorkingBox,
                          which: str) -> np.ndarray:
    """The full (n_points, n) array of condition components over the grid.

    ``which``: 'sum' for the theta^T J + thetadot^T rows, 'max' for
    J omega - omegadot.  Branch ties take the componentwise worst across
    tied branches.  Points are in lexicographic grid order.
    """
    if which not in _CONDITIONS:
        raise CertifyError("which must be 'sum' or 'max'")
    fam = _as_family(weights, _CONDITIONS[which][0])
    jb = jacobian(sys)
    ev = _make_weighted_eval(jb, fam, which)
    return np.concatenate([_reduce(jb, X, ev, componentwise=True)[0]
                           for X in _iter_chunks(box.axes())], axis=0)


def grid_mu_values(sys: SystemDef, weights, box: WorkingBox,
                   norm: str = "l1") -> np.ndarray:
    """Per-point weighted matrix measure over the grid (lexicographic order).

    'l1' expects theta weights, 'linf' omega weights; branch ties take the
    worst (largest) value across tied branches.
    """
    if norm == "l1":
        fam = _as_family(weights, "theta")
    elif norm == "linf":
        fam = _as_family(weights, "omega")
    else:
        raise CertifyError("norm must be 'l1' or 'linf'")
    jb = jacobian(sys)
    ev = _make_mu_eval(jb, fam, norm)
    return np.concatenate([_reduce(jb, X, ev)[0]
                           for X in _iter_chunks(box.axes())], axis=0)
