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
``partition`` groups the points of a chunk by one integer branch code per
point (a base-3 digit per guard: left, right or tied), and the walk pools
each code's points across chunks and builds its branch patterns once, so
each condition is evaluated once per pattern and full batch of points,
tied points included.

All the checks of one request share one pass over the grid (``_scan``,
the only code that chunks and partitions one): per batch the branch
Jacobian and the vector field are evaluated once and read by every
condition, and by a ``visit`` callback on which synthesis builds its LP
and ``grid_condition_values`` its table.  Each check still sees exactly
the points and the arithmetic it would see on its own.

Every weighted check, constant vectors included, rests on one hypothesis,
checked before the pass by ``_positivity_check``: each weight is finite
and greater than ``POSITIVITY_TOL`` on the box's axis grids.

The scan is points-last: a batch of m points carries its Jacobians as
(n, n, m), its coordinates, vector field and weights as (n, m), and each
condition as (components, m), so every numpy call runs along the point
axis.  The weights are separable, so they are evaluated once per axis of
the grid and gathered at each batch by the points' grid indices; the
positivity check reads the same tables, and the equilibrium is scanned as
a grid of one point.

The reduction is deterministic: worst margin, ties broken by the
lexicographically smallest grid index, then by the first tied branch and
the first component.  A NaN condition value counts as worse than every
number, so it fails the check.  Rows are located on per-point maxima, and
the value and component are read off the winning point alone, so the
reported value keeps its bits, zero sign included.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import product
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .measures import (NORM_KIND, PAIRING, POSITIVITY_TOL, WeightFamily,
                       _measure_terms, _scaled_jacobian)
from .sysdsl import Min, SystemDef, jacobian, JacobianBranches, TIE_TOL

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
# churn made guard-free 1201^2 scans about 12% slower).  On the points-last
# scan, 8192 and 16384 made the guard-free benchmark 10-25% slower and its
# peak RSS 2-5 MB higher, though the tied traffic4 grids 10-15% faster.
_CHUNK = 4096
_MAX_POINTS = 2 ** 63 - 1   # grid indices are int64


# The rule of each numeric argument of the command line and the library, in
# the order they are checked: name, words, test ("0 < v < inf" fails NaN)
_ARGUMENT_RULES = (
    ("resolution", "must be at least 2", lambda v: v >= 2),
    ("dt", "must be positive and finite", lambda v: 0 < v < math.inf),
    ("t_end", "must be positive and finite", lambda v: 0 < v < math.inf),
    ("eps", "must be positive and finite", lambda v: 0 < v < math.inf),
    ("pairs", "must be at least 1", lambda v: v >= 1),
    ("periods", "must be at least 1", lambda v: v >= 1),
    ("degree", "must be nonnegative", lambda v: v >= 0),
    ("multiplier_degree", "must be nonnegative", lambda v: v >= 0),
    ("seed", "must be nonnegative", lambda v: v >= 0),
    ("random", "must be nonnegative", lambda v: v >= 0),
)


def _check_arguments(error: type, **values) -> None:
    """Raise ``error`` for the first argument in ``values``, in the order
    of ``_ARGUMENT_RULES``, that breaks its rule, e.g. "t-end must be
    positive and finite".  None and names without a rule pass."""
    for name, rule, test in _ARGUMENT_RULES:
        value = values.get(name)
        if value is not None and not test(value):
            raise error(f"{name.replace('_', '-')} {rule}")


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
        _check_arguments(CertifyError, resolution=self.resolution)
        if self.n_points > _MAX_POINTS:
            raise CertifyError(
                f"a grid of {self.resolution}^{len(lows)} points is larger "
                "than 2^63 - 1 points")

    @property
    def n(self) -> int:
        return len(self.lows)

    @property
    def n_points(self) -> int:
        return int(self.resolution) ** self.n

    def axes(self) -> list:
        return [np.linspace(lo, hi, self.resolution)
                for lo, hi in zip(self.lows, self.highs)]

    def refined(self) -> "WorkingBox":
        """Doubled resolution; 2r-1 points per axis keep the grid a superset."""
        return WorkingBox(self.lows, self.highs, 2 * self.resolution - 1)

    def with_resolution(self, resolution: int) -> "WorkingBox":
        return WorkingBox(self.lows, self.highs, resolution)

    def _uniform(self, count: int, seed: int) -> np.ndarray:
        """``count`` points drawn uniformly from the box, (count, n), by
        numpy's default generator seeded with ``seed``."""
        rng = np.random.default_rng(seed)
        lo, hi = np.asarray(self.lows), np.asarray(self.highs)
        return lo + (hi - lo) * rng.random((count, self.n))

    def contains(self, x: Sequence[float], tol: float = 1e-12) -> bool:
        return all(lo - tol <= float(v) <= hi + tol
                   for lo, hi, v in zip(self.lows, self.highs, x))

    @cached_property
    def _grid(self) -> "_Grid":
        return _Grid(self.axes())

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
        """The system's own bounds, when finite — never a silent truncation.
        The caller validates the box, as it does any box it is given."""
        for b, name in zip(sys.bounds, sys.state_names):
            if math.isinf(b.lo) or math.isinf(b.hi):
                raise CertifyError(
                    f"state {name} has an unbounded domain {b}: an explicit "
                    "finite working box is required")
        return WorkingBox(tuple(b.lo for b in sys.bounds),
                          tuple(b.hi for b in sys.bounds), resolution)

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

def _report(result, skip: tuple = (), **extra) -> dict:
    """The report of a result dataclass: its fields, less those named in
    ``skip``, then ``extra``.  A field that is a result, box or weight
    family is written by its own ``to_jsonable``, an array by ``tolist``.
    The ``skip`` tuples of the ``to_jsonable`` methods are the one list of
    the fields a report leaves out."""
    out = {}
    for f in fields(result):
        if f.name in skip:
            continue
        v = getattr(result, f.name)
        if hasattr(v, "to_jsonable"):
            v = v.to_jsonable()
        elif isinstance(v, np.ndarray):
            v = v.tolist()
        out[f.name] = v
    return {**out, **extra}


def _dumps(payload) -> str:
    """The one JSON form of reports and sidecars: strict JSON (RFC 8259),
    keys sorted, indent 2, with each non-finite float written as the
    string "nan", "inf" or "-inf"."""
    def strict(obj):
        if isinstance(obj, float) and not math.isfinite(obj):
            return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
        if isinstance(obj, dict):
            return {k: strict(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [strict(v) for v in obj]
        return obj

    return json.dumps(strict(payload), sort_keys=True, indent=2,
                      allow_nan=False)


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

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"

    def to_jsonable(self) -> dict:
        return _report(self, skip=("positivity",),
                       resolution=self.box.resolution)

    def to_json(self) -> str:
        return _dumps(self.to_jsonable())

    def summary_line(self) -> str:
        eq = ("" if self.equilibrium_margin is None
              else f"  eq margin {self.equilibrium_margin:+.6g}")
        return (f"{self.condition:<12} {self.verdict:<16} "
                f"worst margin {self.worst_margin:+.6g}{eq}")


# ---------------------------------------------------------------------------
# Grid engine
# ---------------------------------------------------------------------------

class _Grid:
    """The points of a grid, points-last, and weight tables on its axes.

    Every axis has the same number r of points, and ``points`` is their
    (n, r) table.  A batch of m grid points is addressed by the (n, m)
    offsets ``r * i + index_i`` into any (n, r) table, so its coordinates
    and every weight at it are each one ``take``.  A family's values and
    derivatives on the axes are evaluated once per grid, and read by the
    positivity check and by every chunk.
    """

    def __init__(self, axes: Sequence):
        self.points = np.array(axes, dtype=float)
        n, r = self.points.shape
        self.n_points = r ** n       # a Python int: it does not wrap
        self._tables: dict = {}

    @staticmethod
    def at(x: Sequence[float]) -> "_Grid":
        """The one-point grid of the state x."""
        return _Grid([[float(v)] for v in x])

    def point(self, index: int) -> np.ndarray:
        """The point with grid index ``index`` in C order."""
        n, r = self.points.shape
        return self.points[np.arange(n), np.unravel_index(index, (r,) * n)]

    def offsets(self, index: np.ndarray) -> np.ndarray:
        """The (n, m) offsets of the points with grid indices ``index``."""
        n, r = self.points.shape
        flat = np.empty((n, len(index)), dtype=index.dtype)
        # np.unravel_index, without its slower division
        for i in range(n - 1, 0, -1):
            div = index // r
            flat[i] = index - div * r + r * i
            index = div
        flat[0] = index
        return flat

    def chunks(self):
        """Yield (start, offsets) for every point, at most _CHUNK at a
        time, in C (lexicographic) order: the (n, m) offsets of the points
        with grid indices start, start + 1, ..."""
        for start in range(0, self.n_points, _CHUNK):
            yield start, self.offsets(
                np.arange(start, min(start + _CHUNK, self.n_points)))

    def tables(self, fam: WeightFamily) -> tuple:
        """(values, derivatives) of ``fam`` on the axes, each (n, r).

        Keyed by identity: equal families may still differ in the sign of a
        zero coefficient, and so in the sign of a zero result.  The family
        is kept beside its tables, so its id is not reused meanwhile.
        """
        got = self._tables.get(id(fam))
        if got is None:
            comps = fam.components
            got = self._tables[id(fam)] = (
                fam,
                np.array([c.value(ax) for c, ax in zip(comps, self.points)]),
                np.array([c.deriv(ax) for c, ax in zip(comps, self.points)]))
        return got[1:]


_SIDE_NAMES = ("left", "right")
_TIED = 2      # branch code digit of a guard that ties at the row
_DIGITS = 39   # base-3 digits per int64 code word: 3^39 < 2^63 < 3^40


def row_groups(key: np.ndarray) -> tuple:
    """Group equal rows of a 2-D ``key``: (order, starts); ``_code_groups``
    groups its code words with it, and the LP's ``_dedupe`` its rows.

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


def _code_groups(jb: JacobianBranches, X: np.ndarray) -> list:
    """The rows of X grouped by branch code: ``[(digits, rows)]``.

    A row's code has one base-3 digit per guard: 0 = left, 1 = right, 2 =
    tied, where guard k ties when |a−b| ≤ TIE_TOL·(1+|a|+|b|); a NaN guard
    value neither ties nor takes the right side, so it takes the left.  The
    digits are packed, guard 0 most significant, into int64 words of at
    most ``_DIGITS`` guards, and ``row_groups`` of the words orders the
    groups by their digits, lexicographically, each group's rows in their
    original order.  ``digits`` is a group's code as a tuple of its digits.
    """
    m = X.shape[0]
    if jb.n_guards == 0:
        return [((), np.arange(m))]
    diffs, scales = jb.guard_values(X)
    is_min = np.array([isinstance(g, Min) for g in jb.guards])
    side = np.where(is_min, diffs >= 0, diffs <= 0)
    digits = np.where(np.abs(diffs) <= TIE_TOL * scales, _TIED, side)
    words = np.zeros((-(-jb.n_guards // _DIGITS), m), dtype=np.int64)
    for g, column in enumerate(digits.T):
        word = words[g // _DIGITS]
        word *= 3
        word += column
    order, starts = row_groups(words.T)
    bounds = [0, *starts.tolist(), m]
    heads = digits[order[bounds[:-1]]].tolist()
    return [(tuple(h), order[a:b])
            for h, a, b in zip(heads, bounds, bounds[1:])]


def _patterns(digits: tuple) -> tuple:
    """(tied, patterns) of a branch code: whether a guard ties, and the
    branch patterns, in ``itertools.product`` order over the guards, with
    both sides of every tied guard."""
    options = [(0, 1) if d == _TIED else (d,) for d in digits]
    return _TIED in digits, [tuple(_SIDE_NAMES[s] for s in combo)
                             for combo in product(*options)]


def partition(jb: JacobianBranches, X: np.ndarray) -> list:
    """Cover the rows of X with the branch patterns active there.

    This is the tie rule.  Rows are grouped by their branch code
    (``_code_groups``): the strict side of every untied guard, or that it
    ties there.  A tied guard takes both sides, so a group with ties has
    one branch pattern per tied branch, in ``itertools.product`` order over
    the guards.  Returns ``[(rows, tied, patterns)]``, one entry per group,
    in the lexicographic order of the codes: its rows, in their order in X,
    whether a guard ties there, and its branch patterns.
    """
    return [(rows, *_patterns(digits))
            for digits, rows in _code_groups(jb, X)]


class _Sample:
    """The points of one batch of a partition key, points-last: their grid
    indices ``at`` (m,), coordinates X (n, m), the vector field there,
    evaluated at most once, and the weights, gathered at most once; each is
    read by every condition on every branch pattern of the key."""

    def __init__(self, jb: JacobianBranches, grid: _Grid, at: np.ndarray,
                 flat: np.ndarray, X: np.ndarray):
        self.jb = jb
        self.grid = grid
        self.at = at
        self.flat = flat
        self.X = X
        self._weights: dict = {}

    @cached_property
    def f(self) -> np.ndarray:
        return self.jb.sys.f_batch(self.X.T).T

    def weights(self, fam: WeightFamily) -> tuple:
        """(values, derivatives) of ``fam`` at the points, each (n, m)."""
        got = self._weights.get(id(fam))
        if got is None:
            got = self._weights[id(fam)] = tuple(
                t.take(self.flat) for t in self.grid.tables(fam))
        return got

    def jacobian(self, pattern: tuple) -> np.ndarray:
        """The branch Jacobian at the points, (n, n, m)."""
        J = self.jb.branch_matrix(pattern).evaluate_batch(self.X.T)
        return J.transpose(1, 2, 0)


def _worse(v, cur):
    """Where v replaces cur as the worst value: strictly larger, or the
    first NaN (a NaN condition value is worse than every number)."""
    return (v > cur) | (np.isnan(v) & ~np.isnan(cur))


def _worst(best: Optional[tuple], rows: np.ndarray,
           cond: np.ndarray) -> tuple:
    """The worst entry so far, (row, component, value), after one more
    condition block: cond (c, len(rows)) holds the components at ``rows``.

    Folded over the blocks of a partition, the tied branches of a group in
    product order, it gives the entry that an argmax-first scan gives: the
    first row with the worst value; at it, the first block (tied branch)
    attaining it; in that, the first component.  A NaN is worse than every
    number.  Each block's row is found on its per-row maxima, which may
    differ from the entries in the sign of a zero, so the component and the
    value are read off that one column.
    """
    k = int(np.argmax(cond.max(axis=0)))
    col = cond[:, k]
    c = int(np.argmax(col))
    row, v = int(rows[k]), float(col[c])
    if best is not None:
        # ``_worse`` on Python floats, both ways: v replaces the worst so
        # far u when worse, or when neither is worse and its row is earlier
        u = best[2]
        if not (v > u or math.isnan(v) and not math.isnan(u)) and (
                u > v or math.isnan(u) and not math.isnan(v)
                or row >= best[0]):
            return best
    return row, c, v


def _scan(jb: JacobianBranches, grid: _Grid, evaluators: Sequence,
          visit: Optional[Callable] = None) -> tuple:
    """Worst value of every evaluator over the whole grid, in one pass.

    The grid is partitioned chunk by chunk, and the grid indices of each
    branch code (a group's branch patterns, built once per scan) are pooled
    across chunks: a code is evaluated in batches of exactly ``_CHUNK``
    points as it fills them, and the rest of every code at the end of the
    walk.  A chunk that is one group is a full batch as it stands; so is
    every chunk of a guard-free grid but the last.  Each
    ``evaluator(sample, J)`` returns the (c, m) condition components at a
    ``_Sample`` (one batch) with the branch Jacobian J there; all of them
    read one evaluation of J and f and one gather of the weights per batch,
    as does ``visit(sample, J)``, when given, once per branch of every
    batch.
    Returns ([(worst, witness_point, witness_comp)], n_tied).
    Deterministic: a batch holds its points in grid-index order, and all
    the tied branches of a point, in product order, so each witness is the
    first (lexicographically smallest) grid point attaining its worst
    value, or the first NaN, whatever the batches.  The pass runs under
    ``np.errstate``: a field that overflows fails through its NaN values
    and prints no warning.
    """
    worst = [None] * len(evaluators)
    n_tied = 0
    known = {}       # branch code -> (tied, patterns)
    pending = {}     # branch code -> grid indices of points not yet evaluated

    def evaluate(patterns, at, flat, X):
        sample = _Sample(jb, grid, at, flat, X)
        for pattern in patterns:
            J = sample.jacobian(pattern)
            if visit is not None:
                visit(sample, J)
            for e, ev in enumerate(evaluators):
                worst[e] = _worst(worst[e], at, ev(sample, J))

    def gather(patterns, at):
        flat = grid.offsets(at)
        evaluate(patterns, at, flat, grid.points.take(flat))

    with np.errstate(all="ignore"):
        for start, flat in grid.chunks():
            X = grid.points.take(flat)
            for code, rows in _code_groups(jb, X.T):
                if code not in known:
                    known[code] = _patterns(code)
                tied, patterns = known[code]
                n_tied += len(rows) if tied else 0
                at = start + rows
                if code in pending:
                    at = np.concatenate([pending.pop(code), at])
                elif len(rows) == _CHUNK:
                    evaluate(patterns, at, flat, X)
                    continue
                full = len(at) - len(at) % _CHUNK
                for s in range(0, full, _CHUNK):
                    gather(patterns, at[s:s + _CHUNK])
                if full < len(at):
                    pending[code] = at[full:]
        for code, at in pending.items():
            gather(known[code][1], at)
    return [(float(v), grid.point(row), c) for row, c, v in worst], n_tied


# ---------------------------------------------------------------------------
# Condition evaluators: (_Sample, J) -> (components, m) array
# ---------------------------------------------------------------------------

def _kamke_eval(s: _Sample, J: np.ndarray) -> np.ndarray:
    n = J.shape[0]
    off = -J.reshape(n * n, -1)
    # diagonal entries carry no Metzler constraint; mask them out (a
    # scalar system is vacuously Metzler)
    off[::n + 1] = -np.inf
    return off


def _column_sums(w: np.ndarray, J: np.ndarray) -> np.ndarray:
    """theta^T J: component j is the sum over i of w_i J_ij, in order of i."""
    return sum(w[i] * J[i] for i in range(len(w)))


def _row_sums(w: np.ndarray, J: np.ndarray) -> np.ndarray:
    """J omega: component i is the sum over j of J_ij w_j, as two partial
    sums, over even and over odd j, added last."""
    terms = [J[:, j] * w[j] for j in range(len(w))]
    return sum(terms[0::2]) + sum(terms[1::2])


# The weighted conditions, by mode: the weight kind, the contraction of the
# weights w with the Jacobian J, and the sign of the wdot * f term.
#   sum: theta^T J + thetadot^T   (component j: column j)
#   max: J omega - omegadot       (component i: row i)
# Both sums start from Python's 0 and add in the order np.einsum did on
# points-first arrays, so every value keeps its bits, zero signs included
# (checked for n <= 7).
_CONDITIONS = {
    "sum": (PAIRING["sum"][0], _column_sums, 1.0),
    "max": (PAIRING["max"][0], _row_sums, -1.0),
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


def _positivity_check(fam: WeightFamily, box: Union[WorkingBox, _Grid],
                      where: str = "on the box") -> dict:
    """The one hypothesis of every weighted check, on the box's axis grids
    (or on a grid, such as x* as ``_Grid.at`` gives it): the family has the
    grid's dimension, and each weight is finite and greater than
    ``POSITIVITY_TOL`` (theta_i >= c > 0; 0 < omega_i <= c).

    Violations are errors (the checks' hypotheses are simply absent), not
    fail verdicts.  The message says ``where`` the rule was applied and
    names the component and point of the smallest value, or of the first
    value that is not finite.  Returns the weights' bounds and c, the
    uniform bound the conditions quantify over: a lower bound for theta,
    an upper bound for omega.
    """
    grid = box if isinstance(box, _Grid) else box._grid
    if fam.n != len(grid.points):
        raise CertifyError("weight dimension mismatch")
    with np.errstate(all="ignore"):   # a refusal prints no warning
        vals = grid.tables(fam)[0]
    # the first value that is not finite, else the first smallest one
    i, k = np.unravel_index(
        np.argmin(np.where(np.isfinite(vals), vals, -np.inf)), vals.shape)
    lo, hi = float(vals[i, k]), float(np.max(vals))
    if not POSITIVITY_TOL < lo < math.inf:
        raise CertifyError(
            f"{fam.kind} positivity violated {where}: component "
            f"{i + 1} reaches {lo:.6g} at x={grid.points[i, k]:.6g}")
    return {"min": lo, "max": hi, "c": lo if fam.kind == "theta" else hi}


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
                   mode: str, weights, global_flag: bool = False) -> _Spec:
    """A sum- or max-type check of a weight family or a constant vector,
    with ``global_flag`` also <= -eps on the whole box."""
    fam = _as_family(weights, _CONDITIONS[mode][0])
    pos = _positivity_check(fam, box)
    if global_flag:
        condition += "-global"
    _require_equilibrium(sys)
    return _Spec(condition, _make_weighted_eval(fam, mode), needs_eq=True,
                 uniform=global_flag, positivity=pos)


def _norm_family(w, norm: str) -> WeightFamily:
    """``w``, or the constant family of the kind ``norm`` takes."""
    if norm not in NORM_KIND:
        raise CertifyError(f"norm must be 'l1' or 'linf', got {norm!r}")
    return w if isinstance(w, WeightFamily) else _as_family(w, NORM_KIND[norm])


def _mu_spec(sys: SystemDef, box: WorkingBox, w, norm: str) -> _Spec:
    fam = _norm_family(w, norm)
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
             eps: float, visit: Optional[Callable] = None) -> list:
    """Run validated specs on a box its caller validated, in one grid
    pass, which ``visit`` rides as in ``_scan``; one report per spec."""
    _check_arguments(CertifyError, eps=eps)
    jb = jacobian(sys)
    scans, ties = _scan(jb, box._grid, [s.evaluator for s in specs], visit)
    eq_specs = [s for s in specs if s.needs_eq]
    # the equilibrium is the one point of its own grid
    eq_scans = (_scan(jb, _Grid.at(_require_equilibrium(sys)),
                      [s.evaluator for s in eq_specs])[0]
                if eq_specs else [])
    eq = iter(value for value, _, _ in eq_scans)
    return [_finish(s, box, scan, ties, next(eq) if s.needs_eq else None, eps)
            for s, scan in zip(specs, scans)]


def _check_alone(spec_step: Callable, sys: SystemDef,
                 box: Optional[WorkingBox], eps: float, *args,
                 **kwargs) -> CertReport:
    """One check on its own: the default box, its spec step, a grid pass.
    The box is validated before the weights, as in ``certify_all``."""
    if box is None:
        box = WorkingBox.default_for(sys)
    box.validate_for(sys)
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
                        global_flag=global_flag)


def check_cor2(sys: SystemDef, w: Sequence[float],
               box: Optional[WorkingBox] = None, eps: float = DEFAULT_EPS,
               global_flag: bool = False) -> CertReport:
    """Constant-vector row certificate J w <= 0, strict at x*."""
    return _check_alone(_weighted_spec, sys, box, eps, "cor2", "max", w,
                        global_flag=global_flag)


def check_cor3(sys: SystemDef, w: WeightFamily, norm: str = "l1",
               box: Optional[WorkingBox] = None,
               eps: float = DEFAULT_EPS) -> CertReport:
    """Weighted-Jacobian measure certificate: mu(Jtilde) <= 0, strict at x*."""
    return _check_alone(_mu_spec, sys, box, eps, w, norm)


# The checks certify_all runs per weight kind: the theorem and its mode,
# and the constant-vector corollary; the measure check runs in the norm
# the mode pairs with.
_FAMILY_CHECKS = {
    PAIRING["sum"][0]: ("thm1", "sum", "cor1"),
    PAIRING["max"][0]: ("thm2", "max", "cor2"),
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
        thm, mode, cor = _FAMILY_CHECKS[fam.kind]
        norm = PAIRING[mode][1]
        fam_specs = [_weighted_spec(sys, box, thm, mode, fam)]
        if fam.is_constant:
            fam_specs.append(_weighted_spec(sys, box, cor, mode,
                                            fam.constants()))
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
    """One evaluator's values at every grid point, worst over the point's
    tied branches: of its worst component, first max (points,), or with
    ``componentwise`` of each of its n = sys.n components, (points, n)."""
    m = box.n_points
    vals = np.full((sys.n, m) if componentwise else m, -np.inf)

    def visit(sample: _Sample, J: np.ndarray) -> None:
        at, cond = sample.at, evaluator(sample, J)
        if componentwise:
            vals[:, at] = np.maximum(vals[:, at], cond)
            return
        v = cond[np.argmax(cond, axis=0), np.arange(len(at))]
        upd = _worse(v, vals[at])
        vals[at[upd]] = v[upd]

    _scan(jacobian(sys), box._grid, [], visit)
    return vals.T


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
    if norm not in NORM_KIND:
        raise CertifyError("norm must be 'l1' or 'linf'")
    fam = _as_family(weights, NORM_KIND[norm])
    return _grid_values(sys, box, _make_mu_eval(fam, norm))
