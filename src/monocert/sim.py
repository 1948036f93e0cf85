"""Trajectory-based validation of certificates.

Integration is classical fixed-step RK4 through the system's compiled
block kernel (see ``rk4.compile_step``), which takes plain steps only, runs
the four stages inline and is bit for bit the same arithmetic as four
calls of the vector field.  It comes in two shapes with the same bits, on
(n, m) arrays and on rows of Python floats; ``SystemDef.rk4_run`` takes
the row kernel for a block of few live rows (``rk4.StepKernels.pick``),
so ``simulate`` of a few starts and ``entrain`` run on rows, ``contract``
with its 20 starts on columns.  One call runs a block of up to ``_BLOCK``
steps and writes each step's states to a buffer, from which the kept
samples are taken; a remainder step that ends the run on t_end is a block
of its own.
When the caller asks for it (``integrate_batch(estimate=True)``, the
default, as ``integrate`` and ``simulate`` use it), ``integrate_batch``
takes a step-doubling error estimate on every 16th step of the run and on
the last: it runs the same kernel for two steps of h/2 from the step's
start, and the difference of those two half steps from the full step,
scaled by 1/15, raises the trajectory's worst step error.
``estimate_contraction_rate`` and ``entrainment_test`` do not read that
error, so they skip the estimate, and ``max_step_error`` is NaN ("not
estimated").  The state itself always advances by the plain full step, so
the states are the same bits either way and convergence stays exactly
fourth order.

Several initial conditions are integrated in lockstep, and each trajectory
aborts on its own: one that becomes non-finite or leaves the declared domain
by more than ``INVARIANCE_TOL`` stops with its own diagnostic while the
others continue.  ``integrate_batch`` checks each block's states once,
after the kernel has taken all of the block's steps: each row leaves at
its own first failing step, with its diagnostic, and its samples from
that step on are NaN.  The block is not cut there, so a row's exit inside
a block costs at most the rest of that block, and the next block runs the
rows still live.  Overflow and NaN are reported by those diagnostics
alone: the run is under ``np.errstate``, so numpy prints no
RuntimeWarning, whichever kernel runs.  States are never clamped back in,
because a clamped trajectory would silently invalidate every conclusion
drawn from it.

On top of the integrator:

* ``verify_decrease``            — V must not increase along a trajectory
  (per-step tolerance 1e-9 * (1 + V)), optionally reaching
  V(end) <= 1e-6 * V(0).
* ``estimate_contraction_rate``  — certify a rate c from the weighted-
  Jacobian measure on a grid, then require sampled pairs to satisfy
  d(t) <= d(0) * exp(-c t) * (1 + 1e-6) and compare with a least-squares
  fit of the observed decay.
* ``entrainment_test``           — for a T-periodic system, trajectories
  sampled at multiples of T must collapse onto one periodic orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .certify import (WorkingBox, check_cor3, CertReport, DEFAULT_EPS,
                      _check_arguments, _norm_family)
from .lyap import LyapFn, _densities, _distance, _flow_norm
from .measures import WeightFamily
from .sysdsl import INVARIANCE_TOL, SystemDef

__all__ = [
    "Trajectory", "BatchTrajectories", "SimulationError",
    "integrate", "integrate_batch", "verify_decrease", "DecreaseReport",
    "estimate_contraction_rate", "ContractionReport",
    "entrainment_test", "EntrainReport", "INVARIANCE_TOL",
]

# steps per kernel call: against 16 to 4,096, both shapes run as fast at
# 256 as at 4,096 within the noise; 16 costs the row kernel about 40%
_BLOCK = 256
# the step error is estimated on every this many steps of a run, and on
# its last
_ESTIMATE_EVERY = 16
# how far the spread of entrained trajectories may grow from one period to
# the next
_MONO_TOL = 1e-12


class SimulationError(RuntimeError):
    """Integration left the declared domain or the request is malformed."""


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """One sampled solution: times (m,), states (m, n)."""
    t: np.ndarray
    x: np.ndarray
    dt: float
    max_step_error: float
    state_names: tuple

    @property
    def final(self) -> np.ndarray:
        return self.x[-1]

    def to_csv(self, path, V: Optional[LyapFn] = None) -> None:
        """Write t,x1,...,xn[,V] rows."""
        cols = ["t"] + list(self.state_names)
        data = [self.t] + [self.x[:, i] for i in range(self.x.shape[1])]
        if V is not None:
            cols.append("V")
            data.append(V.evaluate_batch(self.x))
        M = np.column_stack(data)
        row = ",".join(["%.17g"] * M.shape[1]) + "\n"
        with open(path, "w") as fh:
            fh.write(",".join(cols) + "\n")
            fh.write(row * M.shape[0] % tuple(M.ravel().tolist()))


@dataclass
class BatchTrajectories:
    """Several solutions integrated in lockstep: times (m,), states (m, B, n).

    A trajectory that failed keeps NaN states from its failure on, and its
    diagnostic in ``failures`` as row -> (step, violation, message).
    """
    t: np.ndarray
    x: np.ndarray
    dt: float
    max_step_error: np.ndarray   # (B,) worst step error, NaN: not estimated
    state_names: tuple
    failures: dict = field(default_factory=dict)

    @property
    def n_trajectories(self) -> int:
        return self.x.shape[1]

    def trajectory(self, j: int) -> Trajectory:
        """Row j as a ``Trajectory``; raises its diagnostic if it failed."""
        if j in self.failures:
            raise SimulationError(self.failures[j][2])
        return Trajectory(self.t, self.x[:, j, :], self.dt,
                          float(self.max_step_error[j]), self.state_names)

    def raise_first_failure(self) -> None:
        """Raise the earliest failure: the first step, then the largest
        violation (non-finite counts as infinite), then the lowest row."""
        if self.failures:
            j = min(self.failures,
                    key=lambda j: (self.failures[j][0], -self.failures[j][1], j))
            raise SimulationError(self.failures[j][2])


# ---------------------------------------------------------------------------
# Integrator core
# ---------------------------------------------------------------------------

def integrate_batch(sys: SystemDef, X0, t_end: float, dt: float = 1e-3,
                    t0: float = 0.0, save_every: int = 1,
                    abort_on_failure: bool = False,
                    estimate: bool = True) -> BatchTrajectories:
    """Integrate several initial conditions of one system in lockstep.

    ``save_every`` thins the stored samples (the final state is always
    stored).  Each trajectory aborts on its own: a row that becomes
    non-finite or exits the declared domain by more than ``INVARIANCE_TOL``
    leaves the live set at that step with its diagnostic, and the other
    rows continue with unchanged arithmetic.  ``trajectory(j)`` raises row
    j's diagnostic; ``raise_first_failure`` raises the earliest one.

    The kernel takes a block of plain steps of all live rows at once, and
    the block's states are then checked in one pass: each row leaves at
    its own first failing step, and its samples from that step on are NaN.
    A row's exit inside a block thus costs at most the rest of that block.
    A subtree of constants and ``t`` that raises (a pole of t) raises a
    ``SimulationError`` naming the span of its block, even where it lies
    past the exits of every row there; a block without live rows runs no
    kernel.

    With ``abort_on_failure`` the stored samples end after the first step
    at which any row fails (every failure of that step is recorded): for
    callers that raise the earliest failure and would discard the rest of
    the run anyway.

    With ``estimate`` (the default), on every 16th step of the run and on
    its last, the same kernel takes two steps of h/2 from the step's start,
    and max_i |full_i - half_i| / 15 raises the ``max_step_error`` of each
    row still live at that step by ``np.fmax`` (a NaN estimate keeps the
    old error); the row that fails at a step gets that step's estimate
    too.  Without it ``max_step_error`` is all NaN, and the samples and
    failures are the same bits.  Such a run evaluates f only at the stage
    times t, t + h/2 and t + h, never at the estimate's t + h/4 and
    t + 3h/4.
    """
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2 or X0.shape[1] != sys.n:
        raise SimulationError(f"initial conditions must be (B, {sys.n})")
    _check_arguments(SimulationError, dt=dt)
    span = float(t_end) - float(t0)
    if not math.isfinite(span):   # an infinite or NaN t_end or t0
        raise SimulationError("t_end and t0 must be finite")
    if span <= 0:
        raise SimulationError("t_end must exceed the start time")

    B = X0.shape[0]
    lo = np.array([b.lo for b in sys.bounds])
    hi = np.array([b.hi for b in sys.bounds])
    failures: dict = {}

    def exits(S, rows, k, T):
        """Each row's first step in the states S (K, m, n), at times T, that
        fails the domain check, else K, and its failure recorded there (with
        ``abort_on_failure`` only the earliest exits count).  S[0] is the
        state after step k of the run, -1 being the start."""
        viol = np.maximum(lo - S, S - hi)
        worst = viol.max(axis=2)
        bad = ~(worst <= INVARIANCE_TOL)   # True on NaN as well
        first = np.where(bad.any(axis=0), bad.argmax(axis=0), len(S))
        if abort_on_failure:   # the run ends at the earliest exit
            first[first > first.min(initial=len(S))] = len(S)
        for r in np.flatnonzero(first < len(S)):
            j, s = int(rows[r]), int(first[r])
            if not np.all(np.isfinite(S[s, r])):
                failures[j] = (k + s, math.inf,
                               f"non-finite state at t={T[s]:.6g}")
                continue
            i = int(np.argmax(viol[s, r]))
            failures[j] = (k + s, float(worst[s, r]),
                           f"trajectory {j} left the domain at t={T[s]:.6g}: "
                           f"{sys.state_names[i]}={S[s, r, i]:.6g} violates "
                           f"{sys.bounds[i]} by {worst[s, r]:.3e} "
                           "(not clamping)")
        return first

    n_full = int(math.floor(span / dt + 1e-9))
    rem = span - n_full * dt
    n_steps = n_full + (1 if rem > 1e-12 else 0)

    n_saved = 1 + n_steps // save_every + (1 if n_steps % save_every else 0)
    ts = np.empty(n_saved)
    xs = np.full((n_saved, B, sys.n), np.nan)
    ts[0] = t0
    xs[0] = X0
    max_err = np.zeros(B) if estimate else np.full(B, np.nan)
    S = np.empty((min(_BLOCK, n_steps), B, sys.n))   # one block's states
    H = np.empty((2, B, sys.n))   # an estimate's two half steps
    saved, k, t = 1, 0, float(t0)
    # overflow and NaN are reported per row by exits, not by numpy
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # 1 where a start lies inside the domain
        rows = np.flatnonzero(exits(X0[None], np.arange(B), -1, [t0]))
        X = X0[rows]
        while k < n_steps and not (abort_on_failure and failures):
            # whole steps up to a block, then the remainder step alone
            h, K = (dt, min(len(S), n_full - k)) if k < n_full else (rem, 1)
            T = np.cumsum([t] + [h] * K)   # t += h, step by step
            m = rows.size
            if m:
                err, half = max_err[rows], H[:, :m]
                try:
                    sys.rk4_run(X, t, h, S[:K, :m])
                    first = exits(S[:K, :m], rows, k, T[1:])
                    # estimated up to the last step with a live row (with
                    # abort, where the run ends)
                    last = first.min() if abort_on_failure else first.max()
                    for j in range(min(last + 1, K) if estimate else 0):
                        if (k + j) % _ESTIMATE_EVERY and k + j != n_steps - 1:
                            continue
                        # two steps of h/2 from the step's start
                        sys.rk4_run(S[j - 1, :m] if j else X, float(T[j]),
                                    h / 2, half)
                        gap = np.maximum.reduce(abs(S[j, :m] - half[1]), 1)
                        np.fmax(err, gap / 15.0, out=err, where=first >= j)
                except ArithmeticError as exc:
                    # kernels keep subtrees of constants and t as Python floats
                    raise SimulationError(
                        "the vector field cannot be evaluated between "
                        f"t={t:.6g} and t={t + K * h:.6g}: {exc}") from exc
                max_err[rows] = err
                K = min(last + 1, K) if abort_on_failure else K
                # each row's states from its exit on are not samples
                S[:K, :m][np.arange(K)[:, None] >= first] = np.nan
            T = T[1:K + 1]
            # every save_every-th step of the run, and its last
            kept = [*range((-k - 1) % save_every, K, save_every)]
            if k + K == n_steps and n_steps % save_every:
                kept.append(K - 1)
            ts[saved:saved + len(kept)] = T[kept]
            xs[saved:saved + len(kept), rows] = S[kept, :m]
            saved += len(kept)
            k, t = k + K, float(T[-1])
            if m:
                rows, X = rows[first >= K], S[K - 1, :m][first >= K]

    return BatchTrajectories(t=ts[:saved], x=xs[:saved], dt=dt,
                             max_step_error=max_err,
                             state_names=tuple(sys.state_names),
                             failures=failures)


def integrate(sys: SystemDef, x0: Sequence[float], t_end: float,
              dt: float = 1e-3, t0: float = 0.0,
              save_every: int = 1) -> Trajectory:
    """Integrate a single initial condition (see ``integrate_batch``)."""
    batch = integrate_batch(sys, np.asarray([list(map(float, x0))]),
                            t_end, dt=dt, t0=t0, save_every=save_every)
    return batch.trajectory(0)


# ---------------------------------------------------------------------------
# Lyapunov decrease along trajectories
# ---------------------------------------------------------------------------

@dataclass
class DecreaseReport:
    passed: bool
    max_increment: float         # largest V(x_{k+1}) - V(x_k) observed
    max_violation: float         # max over steps of dV - tol*(1+V); <= 0 is good
    first_violation_time: Optional[float]
    n_violations: int
    initial: float
    terminal: float
    terminal_ok: Optional[bool]  # None when terminal decay was not required
    values: np.ndarray = field(repr=False)

    def to_jsonable(self) -> dict:
        return {"passed": self.passed,
                "max_increment": self.max_increment,
                "max_violation": self.max_violation,
                "first_violation_time": self.first_violation_time,
                "n_violations": self.n_violations,
                "initial": self.initial,
                "terminal": self.terminal,
                "terminal_ok": self.terminal_ok}


def verify_decrease(V: LyapFn, traj: Trajectory,
                    tol: float = 1e-9,
                    require_terminal: bool = False,
                    terminal_tol: float = 1e-6) -> DecreaseReport:
    """Check V never increases along the trajectory.

    Per step the allowance is ``tol * (1 + V)`` — absolute near zero,
    relative for large values.  With ``require_terminal`` the final value
    must also have collapsed to ``terminal_tol * V(start)`` (use this when
    the horizon is long enough for the documented settling time).
    """
    vals = V.evaluate_batch(traj.x)
    dv = vals[1:] - vals[:-1]
    allow = tol * (1.0 + np.abs(vals[:-1]))
    excess = dv - allow
    max_increment = float(np.max(dv)) if dv.size else -math.inf
    max_violation = float(np.max(excess)) if excess.size else -math.inf
    bad = np.nonzero(excess > 0)[0]
    n_violations = int(bad.size)
    first_violation_time = float(traj.t[bad[0] + 1]) if n_violations else None
    terminal_ok: Optional[bool] = None
    if require_terminal:
        terminal_ok = bool(vals[-1] <= terminal_tol * vals[0] + 1e-15)
    passed = n_violations == 0 and terminal_ok is not False
    return DecreaseReport(passed=passed, max_increment=max_increment,
                          max_violation=max_violation,
                          first_violation_time=first_violation_time,
                          n_violations=n_violations,
                          initial=float(vals[0]), terminal=float(vals[-1]),
                          terminal_ok=terminal_ok, values=vals)


# ---------------------------------------------------------------------------
# Contraction-rate validation
# ---------------------------------------------------------------------------

@dataclass
class ContractionReport:
    certified_rate: float
    fitted_rate: float
    ratio_excess: float       # max of d(t)/(d(0) e^{-ct}) - 1 over pairs/times
    flow_ratio_excess: float  # same bound applied to the weighted flow norm
    n_pairs: int
    passed: bool
    certificate: CertReport

    def to_jsonable(self) -> dict:
        return {"certified_rate": self.certified_rate,
                "fitted_rate": self.fitted_rate,
                "ratio_excess": self.ratio_excess,
                "flow_ratio_excess": self.flow_ratio_excess,
                "n_pairs": self.n_pairs,
                "passed": self.passed,
                "certificate": self.certificate.to_jsonable()}


def estimate_contraction_rate(sys: SystemDef, w: WeightFamily,
                              norm: str = "l1", pairs: int = 10,
                              box: Optional[WorkingBox] = None,
                              t_end: float = 5.0,
                              dt: float = 1e-3, seed: int = 0,
                              eps: float = DEFAULT_EPS,
                              ratio_tol: float = 1e-6) -> ContractionReport:
    """Certify a rate from the grid, then validate it on sampled pairs.

    The certified rate is the negated worst weighted-measure value over the
    grid (clamped at 0 when no decay is certified).  Each sampled pair must
    satisfy d(t) <= d(0) * exp(-c t) * (1 + ratio_tol) at every sample; a
    per-pair least-squares fit of log d gives observed exponents, of which
    the slowest (minimum) is reported.  The weighted flow norm is held to
    the same exponential bound along each single trajectory.
    """
    _check_arguments(SimulationError, dt=dt, t_end=t_end, eps=eps,
                     pairs=pairs, seed=seed)
    if box is None:
        box = WorkingBox.default_for(sys)
    fam = _norm_family(w, norm)
    cert = check_cor3(sys, fam, norm=norm, box=box, eps=eps)
    rate = max(0.0, -cert.worst_margin)

    X0 = box._uniform(2 * pairs, seed)
    total_steps = max(1, int(round(t_end / dt)))
    save_every = max(1, total_steps // 500)
    batch = integrate_batch(sys, X0, t_end, dt=dt, save_every=save_every,
                            abort_on_failure=True, estimate=False)
    batch.raise_first_failure()

    decay = np.exp(-rate * batch.t[:, None])

    def excess(s: np.ndarray) -> float:
        # max of s(t) / (s(0) e^{-ct}) - 1 over the columns s(0) > 1e-12
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(s[0] > 1e-12, s / (s[0] * decay) - 1.0, -np.inf)
        return float(np.max(out)) if out.size else 0.0

    A = batch.x[:, 0::2, :]   # (m, P, n)
    B = batch.x[:, 1::2, :]
    d = _distance(_densities(fam), norm, A, B)     # (m, P)
    ratio_excess = excess(d)
    flow_ratio_excess = excess(_flow_norm(sys, fam, norm, batch.x))

    slopes = []
    for p in range(d.shape[1]):
        mask = d[:, p] > 1e-10
        if int(mask.sum()) >= 2:
            coef = np.polyfit(batch.t[mask], np.log(d[mask, p]), 1)
            slopes.append(-coef[0])
    fitted = float(np.min(slopes)) if slopes else math.nan

    passed = cert.passed and ratio_excess <= ratio_tol
    return ContractionReport(certified_rate=rate, fitted_rate=fitted,
                             ratio_excess=ratio_excess,
                             flow_ratio_excess=flow_ratio_excess,
                             n_pairs=pairs, passed=passed,
                             certificate=cert)


# ---------------------------------------------------------------------------
# Entrainment to a periodic input
# ---------------------------------------------------------------------------

@dataclass
class EntrainReport:
    passed: bool
    checks: dict                 # pairwise_nonincreasing / geometric_decay / final_mutual
    final_spread: float
    spread: np.ndarray           # max pairwise distance at each period multiple
    increments: np.ndarray       # (K, B) per-trajectory |x((k+1)T) - x(kT)|_inf
    period: float
    n_periods: int

    def to_jsonable(self) -> dict:
        return {"passed": self.passed,
                "checks": dict(self.checks),
                "final_spread": self.final_spread,
                "period": self.period,
                "n_periods": self.n_periods}


def entrainment_test(sys: SystemDef, x0_set, horizon_periods: int = 40,
                     dt: float = 5e-3,
                     final_tol: float = 1e-4) -> EntrainReport:
    """Do trajectories of a T-periodic system converge to one another?

    States are sampled at multiples of the period T and three things are
    checked: (a) the max pairwise distance never increases from one period
    to the next (within ``_MONO_TOL``); (b) it at least halves over the last
    half of the run (a system with no attraction, e.g. xdot = 0, keeps its
    spread and fails here); (c) the final mutual distance is below
    ``final_tol``.  Per-trajectory period-to-period increments are reported
    for convergence diagnostics.
    """
    _check_arguments(SimulationError, dt=dt, periods=horizon_periods)
    if sys.period is None:
        raise SimulationError("entrainment needs a system with a declared period")
    X0 = np.asarray(x0_set, dtype=float)
    if X0.ndim == 1:
        X0 = X0[:, None]
    if X0.shape[0] < 2:
        raise SimulationError("entrainment needs at least two initial conditions")
    T = float(sys.period)
    steps_per_period = max(1, int(round(T / dt)))
    h = T / steps_per_period
    batch = integrate_batch(sys, X0, horizon_periods * T, dt=h,
                            save_every=steps_per_period, abort_on_failure=True,
                            estimate=False)
    batch.raise_first_failure()
    # (K+1, B, n) states at period multiples
    P = batch.x
    K = P.shape[0] - 1

    B = P.shape[1]
    spread = np.zeros(K + 1)
    for k in range(K + 1):
        diff = P[k][:, None, :] - P[k][None, :, :]
        spread[k] = float(np.max(np.abs(diff)))
    increments = np.max(np.abs(P[1:] - P[:-1]), axis=2)  # (K, B)

    nonincreasing = bool(np.all(spread[1:] <= spread[:-1] + _MONO_TOL))
    half = (K + 1) // 2
    geometric = bool(spread[-1] <= max(1e-12, 0.5 * spread[half]))
    final_ok = bool(spread[-1] < final_tol)
    checks = {"pairwise_nonincreasing": nonincreasing,
              "geometric_decay": geometric,
              "final_mutual": final_ok}
    return EntrainReport(passed=all(checks.values()), checks=checks,
                         final_spread=float(spread[-1]), spread=spread,
                         increments=increments, period=T,
                         n_periods=horizon_periods)
