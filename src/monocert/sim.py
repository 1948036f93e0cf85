"""Trajectory-based validation of certificates.

Integration is classical fixed-step RK4.  Each step is one call of the
system's compiled step kernel (``SystemDef.rk4_step``), which runs the four
stages inline; it is bit for bit the same arithmetic as four calls of the
vector field.  A step-doubling error estimate (one full step against two
half steps, scaled by 1/15) is sampled along the way and the worst value
reported on the trajectory; the state itself always advances by the plain
full step, so convergence stays exactly fourth order.

Several initial conditions are integrated in lockstep, and each trajectory
aborts on its own: one that becomes non-finite or leaves the declared domain
by more than ``INVARIANCE_TOL`` stops with its own diagnostic while the
others continue.  While every row is inside, the domain check is one
reduction over the batch.  States are never clamped back in, because a
clamped trajectory would silently invalidate every conclusion drawn from it.

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

from .certify import WorkingBox, check_cor3, CertReport, DEFAULT_EPS
from .lyap import LyapFn, _Density
from .measures import WeightFamily
from .sysdsl import SystemDef

__all__ = [
    "Trajectory", "BatchTrajectories", "SimulationError",
    "integrate", "integrate_batch", "verify_decrease", "DecreaseReport",
    "estimate_contraction_rate", "ContractionReport",
    "entrainment_test", "EntrainReport", "INVARIANCE_TOL",
]

INVARIANCE_TOL = 1e-9
_ERROR_CHECK_EVERY = 16


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
    max_step_error: np.ndarray   # (B,), one worst step error per trajectory
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
                    abort_on_failure: bool = False) -> BatchTrajectories:
    """Integrate several initial conditions of one system in lockstep.

    ``save_every`` thins the stored samples (the final state is always
    stored).  Each trajectory aborts on its own: a row that becomes
    non-finite or exits the declared domain by more than ``INVARIANCE_TOL``
    leaves the live set at that step with its diagnostic, and the other
    rows continue with unchanged arithmetic.  ``trajectory(j)`` raises row
    j's diagnostic; ``raise_first_failure`` raises the earliest one.

    With ``abort_on_failure`` the whole run stops after the first step at
    which any row fails (every failure of that step is recorded), and the
    stored samples end there: for callers that raise the earliest failure
    and would discard the rest of the run anyway.
    """
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2 or X0.shape[1] != sys.n:
        raise SimulationError(f"initial conditions must be (B, {sys.n})")
    if dt <= 0:
        raise SimulationError("dt must be positive")
    span = float(t_end) - float(t0)
    if span <= 0:
        raise SimulationError("t_end must exceed the start time")

    B = X0.shape[0]
    # one bound per state of every live row: same-shape operands skip
    # numpy's broadcasting, which costs more than the subtraction
    lo = np.tile([b.lo for b in sys.bounds], (B, 1))
    hi = np.tile([b.hi for b in sys.bounds], (B, 1))
    failures: dict = {}

    def drop_failed(X, rows, k, t):
        """The live rows of X and their indices, recording each failure."""
        nonlocal lo, hi
        viol = np.maximum(lo - X, X - hi)
        # one reduction while every row is in; NaN fails it and falls through
        if not X.size or viol.max() <= INVARIANCE_TOL:
            return X, rows
        worst = viol.max(axis=1)
        ok = worst <= INVARIANCE_TOL   # False on NaN as well
        for r in np.flatnonzero(~ok):
            j = int(rows[r])
            if not np.all(np.isfinite(X[r])):
                failures[j] = (k, math.inf, f"non-finite state at t={t:.6g}")
                continue
            i = int(np.argmax(viol[r]))
            failures[j] = (k, float(worst[r]),
                           f"trajectory {j} left the domain at t={t:.6g}: "
                           f"{sys.state_names[i]}={X[r, i]:.6g} violates "
                           f"{sys.bounds[i]} by {worst[r]:.3e} (not clamping)")
        lo, hi = lo[ok], hi[ok]
        return X[ok], rows[ok]

    n_full = int(math.floor(span / dt + 1e-9))
    rem = span - n_full * dt
    steps = [dt] * n_full + ([rem] if rem > 1e-12 else [])
    n_steps = len(steps)

    n_saved = 1 + n_steps // save_every + (1 if n_steps % save_every else 0)
    ts = np.empty(n_saved)
    xs = np.full((n_saved, B, sys.n), np.nan)
    ts[0] = t0
    xs[0] = X0
    t = float(t0)
    X, rows = drop_failed(X0.copy(), np.arange(B), -1, t)
    max_err = np.zeros(B)
    saved = 1
    step = sys.rk4_step
    for k, h in enumerate(steps):
        if abort_on_failure and failures:
            break
        if rows.size:
            if k % _ERROR_CHECK_EVERY == 0 or k == n_steps - 1:
                full = step(X, t, h)
                half = step(step(X, t, h / 2), t + h / 2, h / 2)
                err = np.abs(full - half).max(axis=1) / 15.0
                # fmax keeps the old worst where a row's estimate is NaN
                max_err[rows] = np.fmax(max_err[rows], err)
                X = full
            else:
                X = step(X, t, h)
            X, rows = drop_failed(X, rows, k, t + h)
        t += h
        if (k + 1) % save_every == 0 or k == n_steps - 1:
            ts[saved] = t
            if rows.size == B:
                xs[saved] = X
            else:
                xs[saved, rows] = X
            saved += 1

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

def _distance_series(fam: WeightFamily, norm: str,
                     X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Weighted distance between paired states, vectorized.

    X, Y have shape (..., n); the result drops the last axis.
    """
    terms = []
    for i, comp in enumerate(fam.components):
        dens = _Density(comp, fam.kind, 0.0)
        terms.append(np.abs(dens.integral(X[..., i]) - dens.integral(Y[..., i])))
    T = np.stack(terms, axis=-1)
    return np.sum(T, axis=-1) if norm == "l1" else np.max(T, axis=-1)


def _flow_norm_series(sys: SystemDef, fam: WeightFamily, norm: str,
                      X: np.ndarray) -> np.ndarray:
    """Weighted norm of the vector field along states (..., n) -> (...)."""
    shape = X.shape[:-1]
    flat = X.reshape(-1, X.shape[-1])
    F = np.abs(sys.f_batch(flat))
    scale = np.stack([fam.components[i].value(flat[:, i])
                      for i in range(fam.n)], axis=1)
    T = scale * F if fam.kind == "theta" else F / scale
    out = np.sum(T, axis=1) if norm == "l1" else np.max(T, axis=1)
    return out.reshape(shape)


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
    if box is None:
        box = WorkingBox.default_for(sys)
    fam = (w if isinstance(w, WeightFamily)
           else WeightFamily.constant("theta" if norm == "l1" else "omega", w))
    cert = check_cor3(sys, fam, norm=norm, box=box, eps=eps)
    rate = max(0.0, -cert.worst_margin)

    rng = np.random.default_rng(seed)
    lo = np.asarray(box.lows)
    hi = np.asarray(box.highs)
    X0 = lo + (hi - lo) * rng.random((2 * pairs, sys.n))
    total_steps = max(1, int(round(t_end / dt)))
    save_every = max(1, total_steps // 500)
    batch = integrate_batch(sys, X0, t_end, dt=dt, save_every=save_every,
                            abort_on_failure=True)
    batch.raise_first_failure()

    A = batch.x[:, 0::2, :]   # (m, P, n)
    B = batch.x[:, 1::2, :]
    d = _distance_series(fam, norm, A, B)          # (m, P)
    tcol = batch.t[:, None]
    bound = d[0][None, :] * np.exp(-rate * tcol)
    live = d[0] > 1e-12
    with np.errstate(divide="ignore", invalid="ignore"):
        excess = np.where(live[None, :], d / bound - 1.0, -np.inf)
    ratio_excess = float(np.max(excess)) if excess.size else 0.0

    g = _flow_norm_series(sys, fam, norm, batch.x)  # (m, 2P)
    glive = g[0] > 1e-12
    gbound = g[0][None, :] * np.exp(-rate * tcol)
    with np.errstate(divide="ignore", invalid="ignore"):
        gexcess = np.where(glive[None, :], g / gbound - 1.0, -np.inf)
    flow_ratio_excess = float(np.max(gexcess)) if gexcess.size else 0.0

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
                     dt: float = 5e-3, final_tol: float = 1e-4,
                     mono_tol: float = 1e-12) -> EntrainReport:
    """Do trajectories of a T-periodic system converge to one another?

    States are sampled at multiples of the period T and three things are
    checked: (a) the max pairwise distance never increases from one period
    to the next (within ``mono_tol``); (b) it at least halves over the last
    half of the run (a system with no attraction, e.g. xdot = 0, keeps its
    spread and fails here); (c) the final mutual distance is below
    ``final_tol``.  Per-trajectory period-to-period increments are reported
    for convergence diagnostics.
    """
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
                            save_every=steps_per_period, abort_on_failure=True)
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

    nonincreasing = bool(np.all(spread[1:] <= spread[:-1] + mono_tol))
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
