"""monocert benchmark: CLI command sequences on the bundled corpus.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each repeat runs the workload's whole command sequence in a fresh
interpreter (closed loop, one client, no threads, ``MONOCERT_THREADS``
unset), so compiled-kernel caches start cold as they do for a CLI user.
Repeats continue until ``--seconds`` have passed; ``setup_s`` is measured
in a fresh interpreter started before every second repeat.

Timings are normalised to machine speed (see ``speed.py``): each command's
time is divided by the mean time of the reference kernel run just before
and just after it, in the same interpreter, and multiplied by
``speed.REF_S``.  A command's time is the median of these over the
repeats, and ``wall_s`` is the sum over the commands.  The raw medians are
printed beside them and kept in the record.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repeats and prints the per-layer metrics (see
``tracer.py``).  Human-readable lines come first; the last line of stdout
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
full record of the run, and for traced runs the spans of the last traced
repeat, go to ``perfbench-out/``.

A command is a failed operation when its exit code or checked outcome
differs from the expected one, or when its output bytes differ from those
of the first repeat of the same run (same seed, so they must be identical).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
sys.path.insert(0, str(HERE))

from speed import REF_S  # noqa: E402
from workloads import CERTIFY, SYNTH, VALIDATE, WORKLOADS  # noqa: E402

SETUP_EVERY = 2          # repeats per set-up sample
MIN_REPEATS = 3          # per kind of repeat, so a median and a pair exist
RUN_LIMIT = 170          # seconds one workload may take, end to end

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s",
                    "grid_points_per_s": "1/s", "peak_rss_mb": "MB"}
COUNTS_THAT_REPEAT = ("sysdsl.kernel_lookups", "sysdsl.jac_eval_calls",
                      "certify.grid_points", "certify.tied_points",
                      "synth.lp_rows", "sim.simulate.state_steps",
                      "sim.contract.state_steps", "sim.entrain.state_steps")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a wrong program output)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MONOCERT_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def worker(mode: str, workload: str, seed: int, workdir: Path,
           deadline: float, spans: Path | None = None) -> dict:
    """Run one fresh interpreter and return its result record.

    The interpreter is killed, and the run abandoned, at ``deadline``
    (a ``time.perf_counter`` value).
    """
    result = workdir.with_suffix(".json")
    argv = [sys.executable, str(HERE / "worker.py"), mode, workload,
            str(seed), str(workdir), str(result)]
    if spans is not None:
        argv.append(str(spans))
    try:
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {RUN_LIMIT} s")
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink(missing_ok=True)
        shutil.rmtree(workdir, ignore_errors=True)


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(pkg: str) -> str:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "MONOCERT_THREADS": os.environ.get("MONOCERT_THREADS", "unset")
            + " (unset in repeats)"}


def normalised(rep: dict) -> list:
    """Each command's time at reference speed, from its adjacent kernels."""
    refs = rep["ref_s"]
    return [c["seconds"] * 2 * REF_S / (refs[k] + refs[k + 1])
            for k, c in enumerate(rep["commands"])]


def command_medians(repeats: list, normalise: bool) -> list:
    """Per command, the median of its time over the repeats."""
    times = [normalised(r) if normalise else
             [c["seconds"] for c in r["commands"]] for r in repeats]
    return [median(col) for col in zip(*times)]


def timings(repeats: list, normalise: bool) -> dict:
    """Sequence, per-kind and grid-rate figures from per-command medians."""
    kinds = [c["kind"] for c in repeats[0]["commands"]]
    points = sum(c["grid_points"] for c in repeats[0]["commands"])
    per_cmd = command_medians(repeats, normalise)

    def kind_s(kind):
        return sum(t for t, k in zip(per_cmd, kinds) if k == kind)
    return {"wall_s": sum(per_cmd), "grid_points_per_s":
            points / kind_s(CERTIFY) if kind_s(CERTIFY) else 0.0,
            "synth_s": kind_s(SYNTH), "validate_s": kind_s(VALIDATE),
            "per_command_s": per_cmd}


def failures(repeats: list) -> tuple:
    """(attempted, failed, problem lines) over all repeats of one run."""
    first = repeats[0]["commands"]
    attempted = failed = 0
    lines = []
    for r, rep in enumerate(repeats):
        for k, c in enumerate(rep["commands"]):
            attempted += 1
            problems = list(c["problems"])
            if c["digest"] != first[k]["digest"]:
                problems.append("output bytes differ from repeat 0")
            if problems:
                failed += 1
                lines += [f"repeat {r} command {k} ({c['name']}): {p}"
                          for p in problems]
    return attempted, failed, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spans = OUT / f"{name}-seed{seed}-spans.json"

    setup, plain, traced = [], [], []
    deadline = time.perf_counter() + RUN_LIMIT
    if not trace:
        # the first interpreter writes the bytecode and is not timed
        worker("setup", name, seed, workdir / "warm", deadline)
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(plain) < MIN_REPEATS
           or (trace and len(traced) < MIN_REPEATS)):
        i = len(plain) + len(traced)
        if trace and len(traced) < len(plain):
            traced.append(worker("trace", name, seed, workdir / f"rep{i}",
                                 deadline, spans))
            continue
        if not trace and len(plain) % SETUP_EVERY == 0:
            # set-up samples are spread over the run, like the repeats, so
            # that a slow phase of the machine does not hit them all
            setup.append(worker("setup", name, seed, workdir / f"setup{i}",
                                deadline))
        plain.append(worker("run", name, seed, workdir / f"rep{i}", deadline))
    shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = failures(plain + traced)
    raw = timings(plain, normalise=False)
    norm = timings(plain, normalise=True)
    refs = [x for r in plain for x in r["ref_s"]]
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment(),
              "ref_s_nominal": REF_S,
              "commands": [c["argv"] for c in plain[0]["commands"]],
              "attempted": attempted, "failed": failed, "problems": problems,
              "repeats": len(plain), "setup_samples": len(setup),
              "normalised": norm, "raw": raw,
              "samples": {
                  "command_s": [[c["seconds"] for c in r["commands"]]
                                for r in plain],
                  "ref_s": [r["ref_s"] for r in plain],
                  "setup_s": [s["setup_s"] for s in setup],
                  "setup_ref_s": [s["ref_s"] for s in setup],
                  "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in plain]}}
    if setup:
        raw["setup_s"] = median(s["setup_s"] for s in setup)
        norm["setup_s"] = median(s["setup_s"] * REF_S / s["ref_s"][0]
                                 for s in setup)
    norm["peak_rss_mb"] = raw["peak_rss_mb"] = median(
        record["samples"]["peak_rss_mb"])
    if trace:
        layers = [t["layers"] for t in traced]
        metrics = {k: median([lay[k] for lay in layers]) for k in layers[0]}
        for k in COUNTS_THAT_REPEAT:
            attempted += 1
            if len({lay[k] for lay in layers}) != 1:
                failed += 1
                problems.append(f"count {k} differs between traced repeats: "
                                f"{[lay[k] for lay in layers]}")
        # raw times on both sides: traced repeats run no reference kernel
        metrics["trace.overhead_s"] = (
            sum(command_medians(traced, normalise=False)) - raw["wall_s"])
        metrics["trace.traced_repeats"] = len(traced)
        for k in ("wall_s", "synth_s", "validate_s"):
            metrics[f"untraced.{k}"] = raw[k]
        metrics["untraced.ref_s"] = median(refs)
        record.update(layers=metrics, lp=traced[-1]["lp"],
                      layers_per_command=traced[-1]["layers_per_command"],
                      attempted=attempted, failed=failed, problems=problems)
    else:
        metrics = {k: norm[k] for k in END_TO_END_UNITS}
    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return record


def layer_unit(name: str) -> str:
    if name == "trace.traced_repeats":
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_share", "_gap")):
        return "1"
    return "count"


def print_record(rec: dict) -> dict:
    """Print a record's metrics with units and sample counts; return them."""
    env = rec["environment"]
    print(f"workload {rec['workload']}  seed {rec['seed']}  "
          f"trace {int(rec['trace'])}  " +
          "  ".join(f"{k}={v}" for k, v in env.items()))
    out = {}
    if rec["trace"]:
        for k, v in rec["layers"].items():
            unit = layer_unit(k)
            out[k] = {"value": v, "unit": unit}
            print(f"  {k:<34} {v:>14.6g} {unit}")
    else:
        for k, unit in END_TO_END_UNITS.items():
            out[k] = {"value": rec["metrics"][k], "unit": unit}
        print(f"  {'':<20} {'normalised':>14}      {'raw':>10}")
        for k, unit in list(END_TO_END_UNITS.items()) + [
                ("synth_s", "s"), ("validate_s", "s")]:
            n = rec["setup_samples"] if k == "setup_s" else rec["repeats"]
            print(f"  {k:<20} {rec['normalised'][k]:>14.6g} {unit:<4} "
                  f"{rec['raw'][k]:>10.6g}  (median of {n})")
    frac = rec["failed"] / rec["attempted"]
    print(f"  {'ops_failed_frac':<20} {frac:>14.6g}      "
          f"({rec['failed']} of {rec['attempted']} operations)")
    for line in rec["problems"]:
        print(f"  FAILED {line}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that subprocess.run kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "monocert" / "__init__.py").is_file():
        print(f"perfbench: no monocert sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results[name] = {"correct": rec["failed"] == 0,
                             "attempted": rec["attempted"],
                             "failed": rec["failed"],
                             "metrics": print_record(rec)}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
