"""Command-line driver: parse, certify, synthesize, simulate, report.

One command per process.  Reports are JSON with sorted keys and no
timestamps, so a fixed seed reproduces them byte for byte.  Exit codes:
0 = all checks passed / synthesis succeeded, 1 = a check failed or the
problem is infeasible, 2 = usage or parse error.  A command returns 0 or
1 itself; ``_EXIT_CODES`` is the one place that decides the exit code of
each error class a command raises.

Each command reads the parsed arguments, so the parser's defaults are the
only defaults.  Bare system names (no path separator, no file on disk)
resolve against the bundled corpus, e.g. ``monocert certify ex1 --theta
...`` — append ``.sys`` automatically.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _stdsys
from importlib import resources
from pathlib import Path

import numpy as np

from .certify import (CertifyError, DEFAULT_EPS, WorkingBox, certify_all,
                      _check_arguments)
from .lyap import VARIANTS, LyapError, build_lyapunov
from .measures import PAIRING, WeightFamily
from .sim import (SimulationError, entrainment_test,
                  estimate_contraction_rate, integrate_batch, verify_decrease)
from .synth import SynthError, export_sos_sdpa, synth_const, synth_poly
from .sysdsl import DslError, SystemDef, parse_system

__all__ = ["main", "EXIT_PASS", "EXIT_FAIL", "EXIT_USAGE"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(ValueError):
    """Bad flags, missing files, or unparsable inputs."""


# The exit code of each error class a command may raise: a request the
# command cannot take is a usage error, a check or run that fails is not.
_EXIT_CODES = {
    UsageError: EXIT_USAGE, DslError: EXIT_USAGE, LyapError: EXIT_USAGE,
    CertifyError: EXIT_FAIL, SynthError: EXIT_FAIL, SimulationError: EXIT_FAIL,
}


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------

def _load_system(name: str) -> SystemDef:
    p = Path(name)
    if p.exists():
        text = p.read_text()
    else:
        if "/" in name or name.endswith(".sys"):
            raise UsageError(f"system file not found: {name}")
        try:
            res = resources.files("monocert").joinpath(f"corpus/{name}.sys")
            text = res.read_text()
        except (FileNotFoundError, ModuleNotFoundError):
            raise UsageError(f"no such file or bundled system: {name}")
    try:
        sys = parse_system(text)
    except DslError as exc:
        raise UsageError(f"{name}: {exc}")
    return sys


def _load_family(path: str, kind: str) -> WeightFamily:
    p = Path(path)
    if not p.exists():
        raise UsageError(f"weight file not found: {path}")
    try:
        obj = json.loads(p.read_text())
        fam = WeightFamily.from_jsonable(obj)
    except (json.JSONDecodeError, ValueError) as exc:
        raise UsageError(f"{path}: {exc}")
    if fam.kind != kind:
        raise UsageError(f"{path}: expected kind '{kind}', file says '{fam.kind}'")
    return fam


def _resolve_box(cfg: argparse.Namespace, sys: SystemDef) -> WorkingBox:
    try:
        box = (WorkingBox.from_string(cfg.box) if cfg.box
               else WorkingBox.default_for(sys))
        if cfg.resolution is not None:
            box = box.with_resolution(cfg.resolution)
        box.validate_for(sys)
    except ValueError as exc:
        raise UsageError(str(exc))
    return box


def _families(cfg: argparse.Namespace) -> list:
    fams = []
    if cfg.theta:
        fams.append(_load_family(cfg.theta, "theta"))
    if cfg.omega:
        fams.append(_load_family(cfg.omega, "omega"))
    return fams


def _write_report(cfg: argparse.Namespace, name: str, payload: dict) -> Path:
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    path.write_text(json.dumps(_clean_nan(payload), sort_keys=True, indent=2,
                               allow_nan=False) + "\n")
    return path


def _clean_nan(obj):
    """Replace non-finite floats so reports stay strict JSON."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _clean_nan(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean_nan(v) for v in obj]
    return obj


def _say(cfg: argparse.Namespace, msg: str) -> None:
    if not cfg.quiet:
        print(msg)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_certify(cfg: argparse.Namespace) -> int:
    sys = _load_system(cfg.system)
    box = _resolve_box(cfg, sys)
    fams = _families(cfg)
    reports = certify_all(sys, fams, box, eps=cfg.eps)
    payload = {"system": sys.name,
               "checks": [r.to_jsonable() for r in reports]}
    path = _write_report(cfg, "certify-report.json", payload)
    ok = True
    for r in reports:
        _say(cfg, r.summary_line())
        ok = ok and r.passed
    _say(cfg, f"report: {path}")
    return EXIT_PASS if ok else EXIT_FAIL


def _cmd_synth(cfg: argparse.Namespace) -> int:
    sys = _load_system(cfg.system)
    box = _resolve_box(cfg, sys)
    if cfg.mode in ("sum", "max"):
        result = synth_const(sys, box, mode=cfg.mode, eps=cfg.eps,
                             resolution=cfg.resolution)
    else:   # poly-sum or poly-max, as the parser allows
        result = synth_poly(sys, box, degree=cfg.degree,
                            mode=cfg.mode.removeprefix("poly-"),
                            eps=cfg.eps, resolution=cfg.resolution)
    path = _write_report(cfg, "synth-report.json",
                         {**result.to_jsonable(), "system": sys.name})
    if result.success:
        if isinstance(result.weights, WeightFamily):
            fam = result.weights
        else:
            fam = WeightFamily.constant(PAIRING[cfg.mode][0], result.weights)
        wpath = _write_report(cfg, "synth-weights.json", fam.to_jsonable())
        _say(cfg, f"synthesized {fam.describe(sys.state_names)}")
        _say(cfg, f"certified margin {result.margin:.6g} "
                  f"(post-hoc at resolution {result.posthoc.box.resolution})")
        _say(cfg, f"weights: {wpath}")
        _say(cfg, f"report: {path}")
        return EXIT_PASS
    _say(cfg, f"synthesis failed: {result.reason}")
    _say(cfg, f"report: {path}")
    return EXIT_FAIL


def _cmd_lyap(cfg: argparse.Namespace) -> int:
    sys = _load_system(cfg.system)
    fams = _families(cfg)
    if len(fams) != 1:
        raise UsageError("lyap needs exactly one of --theta/--omega")
    V = build_lyapunov(sys, fams[0], cfg.variant, uniform=cfg.uniform)
    path = _write_report(cfg, "lyap.json", V.to_jsonable())
    _say(cfg, V.describe())
    _say(cfg, f"report: {path}")
    return EXIT_PASS


def _parse_vector(text: str, n: int, what: str) -> np.ndarray:
    try:
        v = np.array([float(p) for p in text.split(",")], dtype=float)
    except ValueError:
        raise UsageError(f"bad {what}: {text!r}")
    if v.size != n:
        raise UsageError(f"{what} needs {n} components, got {v.size}")
    return v


def _cmd_simulate(cfg: argparse.Namespace) -> int:
    sys = _load_system(cfg.system)
    starts = []
    if cfg.x0:
        starts.append(_parse_vector(cfg.x0, sys.n, "--x0"))
    if cfg.random:
        starts.extend(_resolve_box(cfg, sys)._uniform(cfg.random, cfg.seed))
    if not starts:
        raise UsageError("simulate needs --x0 and/or --random N")

    V = None
    fams = _families(cfg)
    if fams:
        if len(fams) != 1:
            raise UsageError("simulate takes at most one weight family")
        V = build_lyapunov(sys, fams[0], cfg.variant, uniform=cfg.uniform)

    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"system": sys.name, "dt": cfg.dt, "t_end": cfg.t_end,
                "files": [], "lyapunov": V.describe() if V else None}
    code = EXIT_PASS
    try:
        batch = integrate_batch(sys, np.asarray(starts, dtype=float),
                                cfg.t_end, dt=cfg.dt)
    except SimulationError as exc:   # a bad request fails every start alike
        batch = exc
    for j, x0 in enumerate(starts):
        name = f"traj-{j:03d}.csv"
        try:
            if isinstance(batch, SimulationError):
                raise batch
            traj = batch.trajectory(j)
        except SimulationError as exc:
            _say(cfg, f"trajectory {j}: {exc}")
            code = EXIT_FAIL
            continue
        traj.to_csv(out / name, V=V)
        entry = {"file": name, "x0": [float(v) for v in x0],
                 "max_step_error": traj.max_step_error}
        if V is not None:
            rep = verify_decrease(V, traj)
            entry["decrease_ok"] = rep.passed
            entry["max_increment"] = rep.max_increment
            if not rep.passed:
                code = EXIT_FAIL
        manifest["files"].append(entry)
    path = _write_report(cfg, "simulate-report.json", manifest)
    _say(cfg, f"{len(manifest['files'])} trajectories in {out}")
    _say(cfg, f"report: {path}")
    return code


def _cmd_contract(cfg: argparse.Namespace) -> int:
    sys = _load_system(cfg.system)
    box = _resolve_box(cfg, sys)
    fams = _families(cfg)
    if len(fams) != 1:
        raise UsageError("contract needs exactly one of --theta/--omega")
    rep = estimate_contraction_rate(sys, fams[0], norm=cfg.norm,
                                    pairs=cfg.pairs, box=box,
                                    t_end=cfg.t_end, dt=cfg.dt,
                                    seed=cfg.seed, eps=cfg.eps)
    path = _write_report(cfg, "contract-report.json",
                         {**rep.to_jsonable(), "system": sys.name})
    _say(cfg, f"certified rate {rep.certified_rate:.6g}, "
              f"fitted {rep.fitted_rate:.6g}, "
              f"max ratio excess {rep.ratio_excess:.3g}")
    _say(cfg, f"report: {path}")
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _cmd_entrain(cfg: argparse.Namespace) -> int:
    sys = _load_system(cfg.system)
    rows = [_parse_vector(part, sys.n, "--x0-set entry")
            for part in cfg.x0_set.split(";") if part.strip()]
    if len(rows) < 2:
        raise UsageError("entrainment needs at least two initial conditions")
    rep = entrainment_test(sys, np.array(rows), horizon_periods=cfg.periods,
                           dt=cfg.dt)
    path = _write_report(cfg, "entrain-report.json",
                         {**rep.to_jsonable(), "system": sys.name,
                          "spread": [float(v) for v in rep.spread]})
    for k, v in rep.checks.items():
        _say(cfg, f"{'PASS' if v else 'FAIL'}  {k}")
    _say(cfg, f"final spread {rep.final_spread:.3g}; report: {path}")
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _cmd_export_sos(cfg: argparse.Namespace) -> int:
    sys = _load_system(cfg.system)
    out = Path(cfg.outdir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(cfg.system).stem
    path = out / f"{stem}.dat-s"
    sidecar = export_sos_sdpa(sys, degree=cfg.degree, eps=cfg.eps,
                              path=path, mode=cfg.mode,
                              multiplier_degree=cfg.multiplier_degree)
    _say(cfg, f"wrote {path} ({sidecar['n_constraints']} constraints, "
              f"{len(sidecar['blocks'])} blocks) and {path}.json")
    return EXIT_PASS


_COMMANDS = {
    "certify": _cmd_certify,
    "synth": _cmd_synth,
    "lyap": _cmd_lyap,
    "simulate": _cmd_simulate,
    "contract": _cmd_contract,
    "entrain": _cmd_entrain,
    "export-sos": _cmd_export_sos,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser, which adds its arguments, by ``fill(self)``,
    when argparse first hands it argv: a command line builds the
    arguments of its own subcommand alone."""

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def parse_known_args(self, args=None, namespace=None):
        if self._fill is not None:
            fill, self._fill = self._fill, None
            fill(self)
        return super().parse_known_args(args, namespace)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="monocert",
        description="Certify and synthesize weighted contraction metrics "
                    "for monotone dynamical systems.")
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_Subcommand)

    def common(p, box=True):
        p.add_argument("system", help="system file (.sys) or bundled name")
        if box:
            p.add_argument("--box", help="working box, e.g. 0:3,0:3")
            p.add_argument("--resolution", type=int,
                           help="grid points per axis")
        p.add_argument("--eps", type=float, default=DEFAULT_EPS,
                       help="strictness margin (default %(default)s)")
        p.add_argument("--out", dest="outdir", default=".",
                       help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for random initial conditions")
        p.add_argument("--quiet", action="store_true")

    def command(name, help, box=True):
        """Declare a subcommand, whose parser gets the common arguments and
        then those the decorated function adds, on first use."""
        def declare(own):
            def fill(p):
                common(p, box)
                own(p)
            sub.add_parser(name, help=help, fill=fill)
            return own
        return declare

    @command("certify", "run every check the weights support")
    def certify(p):
        p.add_argument("--theta", help="theta (l1/sum) weight JSON")
        p.add_argument("--omega", help="omega (linf/max) weight JSON")

    @command("synth", "synthesize weights by LP")
    def synth(p):
        p.add_argument("--mode", default="sum",
                       choices=["sum", "max", "poly-sum", "poly-max"])
        p.add_argument("--degree", type=int, default=2,
                       help="polynomial degree for poly-* modes")

    @command("lyap", "build a separable Lyapunov function", box=False)
    def lyap(p):
        p.add_argument("--theta", help="theta weight JSON")
        p.add_argument("--omega", help="omega weight JSON")
        p.add_argument("--variant", default="state-sum",
                       choices=list(VARIANTS))
        p.add_argument("--uniform", action="store_true",
                       help="weights are bounded on the whole domain")

    @command("simulate", "integrate trajectories to CSV")
    def simulate(p):
        p.add_argument("--x0", help="initial state, e.g. 1,0.5")
        p.add_argument("--random", type=int, default=0,
                       help="additional seeded random initial conditions")
        p.add_argument("--t-end", dest="t_end", type=float, default=10.0)
        p.add_argument("--dt", type=float, default=1e-3)
        p.add_argument("--theta", help="theta weight JSON for a V column")
        p.add_argument("--omega", help="omega weight JSON for a V column")
        p.add_argument("--variant", default="state-sum",
                       choices=list(VARIANTS))
        p.add_argument("--uniform", action="store_true")

    @command("contract", "measure the contraction rate")
    def contract(p):
        p.add_argument("--theta", help="theta weight JSON")
        p.add_argument("--omega", help="omega weight JSON")
        p.add_argument("--norm", default="l1", choices=["l1", "linf"])
        p.add_argument("--pairs", type=int, default=10)
        p.add_argument("--t-end", dest="t_end", type=float, default=5.0)
        p.add_argument("--dt", type=float, default=1e-3)

    @command("entrain", "test entrainment to a periodic input", box=False)
    def entrain(p):
        p.add_argument("--x0-set", dest="x0_set", required=True,
                       help="';'-separated initial conditions, e.g. -2;0;2")
        p.add_argument("--periods", type=int, default=40)
        p.add_argument("--dt", type=float, default=5e-3)

    @command("export-sos", "write the SOS feasibility program (.dat-s)",
             box=False)
    def export_sos(p):
        p.add_argument("--mode", default="sum", choices=["sum", "max"])
        p.add_argument("--degree", type=int, default=2)
        p.add_argument("--multiplier-degree", dest="multiplier_degree",
                       type=int, default=0)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; pass both through
        return int(exc.code or 0)
    try:
        _check_arguments(UsageError, **vars(args))
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as exc:
        print(f"monocert: {exc}", file=_stdsys.stderr)
        return next(code for cls, code in _EXIT_CODES.items()
                    if isinstance(exc, cls))


if __name__ == "__main__":
    _stdsys.exit(main())
