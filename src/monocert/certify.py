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

All the checks of one request share one pass over the grid: each chunk is
partitioned once, and per group the branch Jacobian, the vector field and
the weights are evaluated once and read by every condition.  Each check
still sees exactly the rows and the arithmetic it would see on its own.

The reduction is deterministic: worst margin, ties broken by the
lexicographically smallest grid index.  A NaN condition value counts as
worse than every number, so it fails the check.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .measures import WeightFamily, _measure_terms, _scaled_jacobian
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


def row_groups(key: np.ndarray) -> tuple:
    """Group equal rows of a 2-D ``key``: (order, starts).

    ``order`` sorts the rows lexicographically, column 0 first, and keeps
    equal rows in their original order (lexsort is stable); the groups are
    the pieces of ``order`` split at ``starts``.  Rows compare with ``==``,
    so 0.0 and -0.0 fall in one group.  np.unique(axis=0) sorts the rows as
    void records, which took a third of a piecewise certify.
    """
    order = np.lexsort(key.T[::-1])
    sorted_key = key[order]
    starts = np.flatnonzero(np.any(sorted_key[1:] != sorted_key[:-1],
                                   axis=1)) + 1
    return order, starts


def partition(jb: JacobianBranches, X: np.ndarray) -> list:
    """Cover the rows of X with the branch patterns active there.

    This is the tie rule.  Rows are grouped by their key: the strict side
    (0=left, 1=right) of every untied guard plus the mask of tied guards;
    guard k ties at a row when |a−b| ≤ TIE_TOL·(1+|a|+|b|).  A tied guard
    takes both sides, so a group with ties is listed once per tied branch,
    in ``itertools.product`` order over the guards.
    Returns ``[(pattern, rows, tied)]``; the entries of one tied group
    share the same ``rows`` array.
    """
    if jb.n_guards == 0:
        return [((), np.arange(X.shape[0]), False)]
    diffs, scales = jb.guard_values(X)
    is_min = np.array([g.is_min for g in jb.guards])
    side = np.where(is_min, diffs >= 0, diffs <= 0).astype(np.int8)
    key = np.where(np.abs(diffs) <= TIE_TOL * scales, np.int8(_TIED), side)
    order, starts = row_groups(key)
    groups = []
    for k, rows in zip(key[order[np.r_[0, starts]]], np.split(order, starts)):
        tied = bool(np.any(k == _TIED))
        options = [(0, 1) if s == _TIED else (int(s),) for s in k]
        for combo in product(*options):
            groups.append((tuple(_SIDE_NAMES[s] for s in combo), rows, tied))
    return groups


class _Sample:
    """The rows of one partition group: the vector field and the weights
    there, each evaluated at most once and read by every condition on
    every tied branch of the group."""

    def __init__(self, jb: JacobianBranches, X: np.ndarray):
        self.jb = jb
        self.X = X
        self._weights: dict = {}

    @cached_property
    def f(self) -> np.ndarray:
        return self.jb.sys.f_batch(self.X)

    def weights(self, fam: WeightFamily) -> tuple:
        """(values, derivatives) of ``fam`` at the rows, each (m, n).

        Keyed by identity: equal families may still differ in the sign of a
        zero coefficient, and so in the sign of a zero result.
        """
        got = self._weights.get(id(fam))
        if got is None:
            got = self._weights[id(fam)] = (
                fam.axis_values(self.X), fam.axis_values(self.X, deriv=True))
        return got

    def jacobian(self, pattern: tuple) -> np.ndarray:
        return self.jb.branch_matrix(pattern).evaluate_batch(self.X)


def _worse(v, cur):
    """Where v replaces cur as the worst value: strictly larger, or the
    first NaN (a NaN condition value is worse than every number)."""
    return (v > cur) | (np.isnan(v) & ~np.isnan(cur))


def _worst_component(cond: np.ndarray) -> tuple:
    """Per-row worst value and the component attaining it (first NaN wins)."""
    comps = np.argmax(cond, axis=1)
    return cond[np.arange(cond.shape[0]), comps], comps


def _reduce(jb: JacobianBranches, X: np.ndarray, evaluators: Sequence,
            componentwise: bool = False) -> tuple:
    """Condition values at the rows of X, worst over each row's tied branches.

    Each ``evaluator(sample, J)`` returns the (m, c) condition components
    at a ``_Sample`` with the branch Jacobian J there; all of them read one
    partition, and one evaluation of J, f and the weights, per group.
    Returns (results, n_tied) with one result per evaluator.  By default a
    result is (vals (m,), comps (m,)): the worst component per point,
    supplied by the first tied branch (in product order) attaining it.
    With ``componentwise`` the evaluators must return n = sys.n components
    and a result is (values (m, n), None), the componentwise max over tied
    branches.
    """
    groups = partition(jb, X)
    if len(groups) == 1 and not groups[0][2]:
        # one untied group covers the chunk: no scatter needed
        sample = _Sample(jb, X)
        J = sample.jacobian(groups[0][0])
        conds = [ev(sample, J) for ev in evaluators]
        if componentwise:
            return [(cond, None) for cond in conds], 0
        return [_worst_component(cond) for cond in conds], 0

    m = X.shape[0]
    results = [(np.full((m, jb.sys.n) if componentwise else m, -np.inf),
                None if componentwise else np.zeros(m, dtype=np.int64))
               for _ in evaluators]
    tied_rows = np.zeros(m, dtype=bool)
    group_rows = None
    for pattern, rows, tied in groups:
        # the branches of one tied group share its rows array
        if rows is not group_rows:
            group_rows, sample = rows, _Sample(jb, X[rows])
        if tied:
            tied_rows[rows] = True
        J = sample.jacobian(pattern)
        for ev, (vals, comps) in zip(evaluators, results):
            cond = ev(sample, J)
            if componentwise:
                vals[rows] = np.maximum(vals[rows], cond)
                continue
            v, c = _worst_component(cond)
            at = rows
            if tied:
                upd = _worse(v, vals[rows])
                at, v, c = rows[upd], v[upd], c[upd]
            vals[at] = v
            comps[at] = c
    return results, int(tied_rows.sum())


def _scan_grid(jb: JacobianBranches, box: WorkingBox,
               evaluators: Sequence) -> tuple:
    """Worst value of every evaluator over the whole grid, in one pass.

    Returns ([(worst, witness_point, witness_comp)], n_ties).
    Deterministic: each witness is the first (lexicographically smallest)
    grid point attaining its worst value, or the first NaN.
    """
    worst = [(-np.inf, None, 0)] * len(evaluators)
    n_ties = 0
    for X in _iter_chunks(box.axes()):
        results, ties = _reduce(jb, X, evaluators)
        n_ties += ties
        for e, (vals, comps) in enumerate(results):
            k = int(np.argmax(vals))
            # even an all--inf grid (vacuous conditions) must produce a witness
            if worst[e][1] is None or _worse(vals[k], worst[e][0]):
                worst[e] = (float(vals[k]), X[k], int(comps[k]))
    return worst, n_ties


def _eval_at_point(jb: JacobianBranches, x: Sequence[float],
                   evaluators: Sequence) -> list:
    """Worst value of every evaluator at one point over all tied branches."""
    X = np.asarray([list(map(float, x))])
    results, _ = _reduce(jb, X, evaluators)
    return [float(vals[0]) for vals, _ in results]


# ---------------------------------------------------------------------------
# Condition evaluators: (_Sample, J) -> (m, components) array
# ---------------------------------------------------------------------------

def _kamke_eval(s: _Sample, J: np.ndarray) -> np.ndarray:
    m, n, _ = J.shape
    off = -J.reshape(m, n * n)
    # diagonal entries carry no Metzler constraint; mask them out (a
    # scalar system is vacuously Metzler)
    off[:, ::n + 1] = -np.inf
    return off


# The weighted conditions, by mode: the weight kind, the contraction of the
# weights w with the Jacobian J, and the sign of the wdot * f term.
#   sum: theta^T J + thetadot^T   (component j: column j)
#   max: J omega - omegadot       (component i: row i)
_CONDITIONS = {
    "sum": ("theta", lambda w, J: np.einsum("mi,mij->mj", w, J), 1.0),
    "max": ("omega", lambda w, J: np.einsum("mij,mj->mi", J, w), -1.0),
}


def _make_weighted_eval(fam: WeightFamily, mode: str):
    _, contract, sign = _CONDITIONS[mode]

    def ev(s: _Sample, J: np.ndarray) -> np.ndarray:
        w, dw = s.weights(fam)
        return contract(w, J) + sign * dw * s.f

    return ev


def _make_mu_eval(fam: WeightFamily, norm: str):
    def ev(s: _Sample, J: np.ndarray) -> np.ndarray:
        Jt = _scaled_jacobian(fam.kind, J, *s.weights(fam), s.f)
        return _measure_terms(Jt, norm)   # per column (l1) or row (linf)

    return ev


# ---------------------------------------------------------------------------
# Check specs: validation first, then one shared grid pass
# ---------------------------------------------------------------------------

@dataclass
class _Spec:
    """One validated check, ready for the shared grid pass."""
    condition: str
    evaluator: Callable
    needs_eq: bool
    uniform: bool = False
    positivity: Optional[dict] = None
    component_decoder: Optional[Callable] = None


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
        k = int(np.argmin(vals))   # a NaN minimum is skipped, as by min()
        if vals[k] < lo:
            lo, where = float(vals[k]), (i + 1, axes[i][k])
        hi = max(hi, float(np.max(vals)))
    if lo <= 1e-12:
        raise CertifyError(
            f"{fam.kind} positivity violated on the box: component "
            f"{where[0]} reaches {lo:.6g} at x={where[1]:.6g}")
    return _bounds(fam.kind, lo, hi)


def _require_equilibrium(sys: SystemDef) -> tuple:
    if sys.equilibrium is None:
        raise CertifyError("this check needs a declared equilibrium")
    return sys.equilibrium


# Spec steps: (sys, box, arguments) -> _Spec; each validates its arguments
# and raises CertifyError exactly as the check it belongs to.

def _kamke_spec(sys: SystemDef, box: WorkingBox) -> _Spec:
    n = sys.n

    def decode(c):
        return [int(c) // n, int(c) % n]

    return _Spec("kamke", _kamke_eval, needs_eq=False, component_decoder=decode)


def _weighted_spec(sys: SystemDef, box: WorkingBox, condition: str,
                   mode: str, weights, vector: Optional[str] = None,
                   global_flag: bool = False) -> _Spec:
    """A sum- or max-type check of a weight family, or with ``vector`` (the
    argument's name) of a constant positive vector."""
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
    return _Spec(condition, _make_weighted_eval(fam, mode), needs_eq=True,
                 uniform=global_flag, positivity=pos)


def _mu_spec(sys: SystemDef, box: WorkingBox, w, norm: str) -> _Spec:
    if norm not in ("l1", "linf"):
        raise CertifyError(f"norm must be 'l1' or 'linf', got {norm!r}")
    fam = w if isinstance(w, WeightFamily) else WeightFamily.constant(
        "theta" if norm == "l1" else "omega", w)
    if fam.n != sys.n:
        raise CertifyError("weight dimension mismatch")
    pos = _positivity_check(fam, box)
    _require_equilibrium(sys)
    return _Spec(f"cor3-{norm}", _make_mu_eval(fam, norm), needs_eq=True,
                 positivity=pos)


def _finish(spec: _Spec, box: WorkingBox, scan: tuple, ties: int,
            eq_margin: Optional[float], eps: float) -> CertReport:
    worst, point, comp = scan
    # written as "not <=" so that a NaN value fails
    failed = not worst <= ZERO_TOL
    if spec.needs_eq and not eq_margin <= -eps:
        failed = True
    if spec.uniform and not worst <= -eps:
        failed = True
    if failed:
        verdict = "fail"
    elif worst <= -eps:
        verdict = "pass-with-margin"
    else:
        verdict = "pass"

    decoder = spec.component_decoder
    witness = {
        "point": [float(v) for v in point],
        "component": decoder(comp) if decoder else comp,
        "value": worst,
    }
    return CertReport(condition=spec.condition, verdict=verdict,
                      worst_margin=worst, witness=witness, box=box, eps=eps,
                      branch_ties=ties, equilibrium_margin=eq_margin,
                      positivity=spec.positivity)


def _certify(sys: SystemDef, box: WorkingBox, specs: Sequence[_Spec],
             eps: float) -> list:
    """Run validated specs in one grid pass; one report per spec."""
    box.validate_for(sys)
    jb = jacobian(sys)
    scans, ties = _scan_grid(jb, box, [s.evaluator for s in specs])
    eq_specs = [s for s in specs if s.needs_eq]
    eq_margins = (_eval_at_point(jb, _require_equilibrium(sys),
                                 [s.evaluator for s in eq_specs])
                  if eq_specs else [])
    eq = iter(eq_margins)
    return [_finish(s, box, scan, ties, next(eq) if s.needs_eq else None, eps)
            for s, scan in zip(specs, scans)]


def _check_alone(spec_step: Callable, sys: SystemDef,
                 box: Optional[WorkingBox], eps: float, *args,
                 **kwargs) -> CertReport:
    """One check on its own: the default box, its spec step, a grid pass."""
    if box is None:
        box = WorkingBox.default_for(sys)
    return _certify(sys, box, [spec_step(sys, box, *args, **kwargs)], eps)[0]


# ---------------------------------------------------------------------------
# Public checks
# ---------------------------------------------------------------------------

def check_kamke(sys: SystemDef, box: Optional[WorkingBox] = None) -> CertReport:
    """Monotonicity: the Jacobian is Metzler at every grid point/tied branch."""
    return _check_alone(_kamke_spec, sys, box, DEFAULT_EPS)


def check_thm1(sys: SystemDef, theta: WeightFamily,
               box: Optional[WorkingBox] = None,
               eps: float = DEFAULT_EPS) -> CertReport:
    """Sum-type certificate: theta^T J + thetadot^T <= 0, strict at x*."""
    return _check_alone(_weighted_spec, sys, box, eps, "thm1", "sum", theta)


def check_thm2(sys: SystemDef, omega: WeightFamily,
               box: Optional[WorkingBox] = None,
               eps: float = DEFAULT_EPS) -> CertReport:
    """Max-type certificate: J omega - omegadot <= 0, strict at x*."""
    return _check_alone(_weighted_spec, sys, box, eps, "thm2", "max", omega)


def check_cor1(sys: SystemDef, v: Sequence[float],
               box: Optional[WorkingBox] = None, eps: float = DEFAULT_EPS,
               global_flag: bool = False) -> CertReport:
    """Constant-vector column certificate v^T J <= 0, strict at x*.

    ``global_flag`` demands v^T J <= -eps uniformly on the box, the
    sufficient condition for the flow-type Lyapunov function to be global.
    """
    return _check_alone(_weighted_spec, sys, box, eps, "cor1", "sum", v,
                        vector="v", global_flag=global_flag)


def check_cor2(sys: SystemDef, w: Sequence[float],
               box: Optional[WorkingBox] = None, eps: float = DEFAULT_EPS,
               global_flag: bool = False) -> CertReport:
    """Constant-vector row certificate J w <= 0, strict at x*."""
    return _check_alone(_weighted_spec, sys, box, eps, "cor2", "max", w,
                        vector="w", global_flag=global_flag)


def check_cor3(sys: SystemDef, w: WeightFamily, norm: str = "l1",
               box: Optional[WorkingBox] = None,
               eps: float = DEFAULT_EPS) -> CertReport:
    """Weighted-Jacobian measure certificate: mu(Jtilde) <= 0, strict at x*."""
    return _check_alone(_mu_spec, sys, box, eps, w, norm)


# The checks certify_all runs per weight kind: the theorem and its mode,
# the constant-vector corollary and its argument name, the measure's norm.
_FAMILY_CHECKS = {
    "theta": ("thm1", "sum", "cor1", "v", "l1"),
    "omega": ("thm2", "max", "cor2", "w", "linf"),
}


def certify_all(sys: SystemDef,
                weights: Union[None, WeightFamily, Sequence[WeightFamily]] = None,
                box: Optional[WorkingBox] = None,
                eps: float = DEFAULT_EPS) -> list:
    """Kamke check plus every weight-dependent check the weights support.

    A theta family runs the sum-type check and the l1 measure check (plus
    the constant-vector column check when it is constant); an omega family
    runs the max-type and linf analogues.  Checks are independent — a Kamke
    failure does not suppress the weight checks.  Every check is validated
    first; then all of them share one pass over the grid, and each report
    is the one the check gives on its own.
    """
    if box is None:
        box = WorkingBox.default_for(sys)
    # the box is validated before the weights, as when Kamke ran first
    box.validate_for(sys)
    if weights is None:
        fams = []
    elif isinstance(weights, WeightFamily):
        fams = [weights]
    else:
        fams = list(weights)

    specs = [_kamke_spec(sys, box)]
    for k, fam in enumerate(fams):
        thm, mode, cor, vector, norm = _FAMILY_CHECKS[fam.kind]
        fam_specs = [_weighted_spec(sys, box, thm, mode, fam)]
        if fam.is_constant:
            fam_specs.append(_weighted_spec(sys, box, cor, mode,
                                            fam.constants(), vector=vector))
        fam_specs.append(_mu_spec(sys, box, fam, norm))
        if len(fams) > 1:
            for spec in fam_specs:
                spec.condition += f"#{k + 1}"
        specs += fam_specs
    return _certify(sys, box, specs, eps)


# ---------------------------------------------------------------------------
# Raw condition values (for golden-value tests and cross-check properties)
# ---------------------------------------------------------------------------

def _grid_values(sys: SystemDef, box: WorkingBox, evaluator: Callable,
                 componentwise: bool = False) -> np.ndarray:
    """One evaluator's per-point values over the grid, chunk by chunk."""
    jb = jacobian(sys)
    out = []
    for X in _iter_chunks(box.axes()):
        [(vals, _)], _ = _reduce(jb, X, [evaluator], componentwise)
        out.append(vals)
    return np.concatenate(out, axis=0)


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
    return _grid_values(sys, box, _make_weighted_eval(fam, which),
                        componentwise=True)


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
    return _grid_values(sys, box, _make_mu_eval(fam, norm))
