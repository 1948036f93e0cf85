"""Per-layer tracing of monocert, patched in from outside the package.

``Tracer.install`` replaces the public functions of each layer with timing
wrappers, at every module attribute that holds them (``check_thm1`` is also
bound in ``monocert.synth``, ``certify_all`` in ``monocert.cli``, and so
on), and the methods on their classes.  Each call becomes a span ``[name,
start, end, parent, command]`` kept in memory; ``layer_metrics`` turns the
spans and the counters recorded beside them into the per-layer metrics.

A span's self time is its duration minus the durations of its direct child
spans.  Nothing under ``src/`` knows about this module.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

CHECK_FUNCTIONS = ("check_kamke", "check_thm1", "check_thm2", "check_cor1",
                   "check_cor2", "check_cor3")
# (module, function) pairs wrapped as spans; the span is named module.function
FUNCTIONS = (
    ("sysdsl", "parse_system"),
    ("certify", "certify_all"),
    *(("certify", f) for f in CHECK_FUNCTIONS),
    ("synth", "synth_const"), ("synth", "synth_poly"), ("synth", "solve_lp"),
    ("sim", "integrate_batch"),
)
# (module, class, method) triples wrapped as spans: module.Class.method
METHODS = (
    ("sysdsl", "ExprMatrix", "evaluate_batch"),
    ("sysdsl", "SystemDef", "f_batch"),
    ("sysdsl", "JacobianBranches", "guard_values"),
    ("sysdsl", "JacobianBranches", "branch_matrix"),
    ("measures", "WeightComponent", "value"),
    ("measures", "WeightComponent", "deriv"),
    ("lyap", "LyapFn", "evaluate_batch"),
    ("sim", "Trajectory", "to_csv"),
)
SIM_COMMANDS = ("simulate", "contract", "entrain")

JAC = "sysdsl.ExprMatrix.evaluate_batch"
F = "sysdsl.SystemDef.f_batch"
INTEGRATE = "sim.integrate_batch"
CHECKS = tuple(f"certify.{f}" for f in CHECK_FUNCTIONS)
SYNTHS = ("synth.synth_const", "synth.synth_poly")


def integration_steps(t_end: float, dt: float, t0: float) -> int:
    """RK4 steps ``integrate_batch`` takes: whole dt steps plus a remainder."""
    span = float(t_end) - float(t0)
    n_full = int(math.floor(span / dt + 1e-9))
    return n_full + (1 if span - n_full * dt > 1e-12 else 0)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.spans: list = []        # [name id, start, end, parent, cmd]
        self._stack: list = []
        self.cmd = -1                # index of the command now running
        self.counts = defaultdict(float)   # (cmd, counter) -> value
        self.lps: list = []          # (cmd, LPProblem, LPResult)
        self._kernels: set = set()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.cmd]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[(self.cmd, key)] += amount

    def _after_check(self, args, kwargs, report) -> None:
        self._count("grid_points", report.box.n_points)
        self._count("tied_points", report.branch_ties)

    def _after_jac(self, args, kwargs, result) -> None:
        self._count("jac_points", result.shape[0])

    def _after_f(self, args, kwargs, result) -> None:
        self._count("f_points", result.shape[0])

    def _after_lp(self, args, kwargs, result) -> None:
        lp = args[0] if args else kwargs["lp"]
        self.lps.append((self.cmd, lp, result))
        self._count("lp_rows", lp.rows.shape[0])
        self._count("lp_cols", lp.n_vars)

    def _after_csv(self, args, kwargs, result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self._count("csv_bytes", os.path.getsize(path))

    def install(self) -> None:
        """Patch every layer of the already imported ``monocert`` package."""
        mods = {name.split(".", 1)[1]: m for name, m in sys.modules.items()
                if name.startswith("monocert.")}
        pkg = [m for name, m in sys.modules.items()
               if name == "monocert" or name.startswith("monocert.")]

        def rebind(orig, new) -> None:
            for m in pkg:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, new)

        hooks = {"synth.solve_lp": self._after_lp, JAC: self._after_jac,
                 F: self._after_f, "sim.Trajectory.to_csv": self._after_csv}
        hooks.update(dict.fromkeys(CHECKS, self._after_check))
        for mod, fname in FUNCTIONS:
            name = f"{mod}.{fname}"
            orig = getattr(mods[mod], fname)
            hook = (self._integration_hook(orig) if name == INTEGRATE
                    else hooks.get(name))
            rebind(orig, self._wrap(name, orig, hook))
        for mod, cls_name, meth in METHODS:
            cls = getattr(mods[mod], cls_name)
            name = f"{mod}.{cls_name}.{meth}"
            setattr(cls, meth, self._wrap(name, getattr(cls, meth),
                                          hooks.get(name)))

        # kernel lookups are too frequent for spans: count calls and the
        # distinct compiled functions returned
        sysdsl = mods["sysdsl"]
        orig_compile = sysdsl.compile_expr

        @functools.wraps(orig_compile)
        def counted_compile(e):
            fn = orig_compile(e)
            self._count("kernel_lookups")
            if id(fn) not in self._kernels:
                self._kernels.add(id(fn))
                self._count("kernel_compiles")
            return fn

        rebind(orig_compile, counted_compile)

    def _integration_hook(self, orig):
        sig = inspect.signature(orig)

        def after(args, kwargs, result) -> None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            steps = integration_steps(a["t_end"], a["dt"], a["t0"])
            batch = len(a["X0"])
            self._count("integrations")
            self._count("steps", steps)
            self._count("batch_rows", batch)
            self._count("state_steps", batch * steps)

        return after

    # -- output ------------------------------------------------------------

    def write_spans(self, path, commands: list) -> None:
        """Spans as columns, so a few hundred thousand stay a small file."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 5
        payload = {"names": self.names, "commands": commands,
                   "columns": ["name", "start", "end", "parent", "command"],
                   "name": cols[0], "start": cols[1], "end": cols[2],
                   "parent": cols[3], "command": cols[4]}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def lp_reference(lps: list) -> list:
    """Re-solve captured LPs with HiGHS; one record per LP."""
    from scipy.optimize import linprog

    out = []
    for cmd, lp, res in lps:
        bounds = [(lo if math.isfinite(lo) else None,
                   hi if math.isfinite(hi) else None)
                  for lo, hi in zip(lp.lower, lp.upper)]
        ref = linprog(-lp.c, A_ub=lp.rows, b_ub=lp.rhs, bounds=bounds,
                      method="highs")
        ref_status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(
            ref.status, f"highs-status-{ref.status}")
        rec = {"command": cmd, "rows": int(lp.rows.shape[0]),
               "cols": int(lp.n_vars), "status": res.status,
               "objective": res.objective, "ref_status": ref_status,
               "ref_objective": -float(ref.fun) if ref.status == 0 else None}
        if rec["status"] == rec["ref_status"] == "optimal":
            rec["gap"] = rec["ref_objective"] - float(res.objective)
        out.append(rec)
    return out


def layer_metrics(tr: Tracer, commands: list, lp_records: list,
                  only=None) -> dict:
    """Per-layer metrics over the commands in ``only`` (all when None).

    ``commands`` holds, per command index, its CLI name, measured seconds
    and report bytes.
    """
    keep = set(range(len(commands))) if only is None else set(only)
    names = tr.names
    spans = tr.spans
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]

    dur = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    posthoc = 0.0
    root = defaultdict(float)            # root-span time per command
    per_kind = defaultdict(lambda: defaultdict(float))
    for i, (nid, start, end, parent, cmd) in enumerate(spans):
        if cmd not in keep:
            continue
        name = names[nid]
        d = end - start
        dur[name] += d
        self_t[name] += d - child[i]
        calls[name] += 1
        if name == INTEGRATE:
            per_kind[commands[cmd]["name"]]["integrate_s"] += d
        if parent < 0:
            root[cmd] += d
            continue
        pname = names[spans[parent][0]]
        if name in CHECKS and pname in SYNTHS:
            posthoc += d
        if name == F and pname == INTEGRATE:
            per_kind[commands[cmd]["name"]]["rhs"] += 1

    def count(key: str, cmds=keep) -> float:
        return sum(v for (c, k), v in tr.counts.items()
                   if k == key and c in cmds)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    lookups = count("kernel_lookups")
    compiles = count("kernel_compiles")
    grid = count("grid_points")
    tied = count("tied_points")
    gaps = [r["gap"] for r in lp_records
            if r["command"] in keep and "gap" in r]
    m = {
        "sysdsl.parse_s": dur["sysdsl.parse_system"],
        "sysdsl.kernel_lookups": lookups,
        "sysdsl.kernel_compiles": compiles,
        "sysdsl.kernel_hit_ratio": ratio(lookups - compiles, lookups),
        "sysdsl.jac_eval_s": dur[JAC],
        "sysdsl.jac_eval_calls": calls[JAC],
        "sysdsl.jac_points_per_call": ratio(count("jac_points"), calls[JAC]),
        "sysdsl.f_eval_s": dur[F],
        "sysdsl.f_eval_calls": calls[F],
        "sysdsl.f_points_per_call": ratio(count("f_points"), calls[F]),
        "sysdsl.guard_eval_s": dur["sysdsl.JacobianBranches.guard_values"],
        "sysdsl.branch_matrix_calls":
            calls["sysdsl.JacobianBranches.branch_matrix"],
        "measures.weight_eval_s": (dur["measures.WeightComponent.value"]
                                   + dur["measures.WeightComponent.deriv"]),
        "measures.weight_eval_calls": (
            calls["measures.WeightComponent.value"]
            + calls["measures.WeightComponent.deriv"]),
        "certify.check_s": sum(dur[n] for n in CHECKS),
        "certify.self_s": sum(self_t[n] for n in
                              CHECKS + ("certify.certify_all",)),
        "certify.grid_points": grid,
        "certify.tied_points": tied,
        "certify.tied_share": ratio(tied, grid),
        "synth.synth_s": sum(dur[n] for n in SYNTHS),
        "synth.self_s": sum(self_t[n] for n in SYNTHS),
        "synth.posthoc_s": posthoc,
        "synth.lp_solve_s": dur["synth.solve_lp"],
        "synth.lp_solves": calls["synth.solve_lp"],
        "synth.lp_rows": count("lp_rows"),
        "synth.lp_cols": count("lp_cols"),
        "synth.lp_objective_gap": max(gaps, default=0.0),
        "sim.integrate_s": dur[INTEGRATE],
        "sim.self_s": self_t[INTEGRATE],
    }
    for kind in SIM_COMMANDS:
        cmds = {c for c in keep if commands[c]["name"] == kind}
        state_steps = count("state_steps", cmds)
        pk = per_kind[kind]
        m[f"sim.{kind}.state_steps"] = state_steps
        m[f"sim.{kind}.state_steps_per_s"] = ratio(state_steps,
                                                   pk["integrate_s"])
        m[f"sim.{kind}.rhs_per_step"] = ratio(pk["rhs"], count("steps", cmds))
        m[f"sim.{kind}.batch_size_mean"] = ratio(
            count("batch_rows", cmds), count("integrations", cmds))
    m.update({
        "sim.csv_write_s": dur["sim.Trajectory.to_csv"],
        "sim.csv_bytes": count("csv_bytes"),
        "lyap.eval_s": dur["lyap.LyapFn.evaluate_batch"],
        "cli.self_s": sum(commands[c]["seconds"] - root[c] for c in keep),
        "cli.report_bytes": sum(commands[c]["report_bytes"] for c in keep),
    })
    return m
