"""One fresh interpreter of the benchmark: a set-up sample or one repeat.

    python3 perfbench/worker.py setup WORKLOAD SEED WORKDIR RESULT
    python3 perfbench/worker.py run   WORKLOAD SEED WORKDIR RESULT
    python3 perfbench/worker.py trace WORKLOAD SEED WORKDIR RESULT SPANS

``run.py`` starts it with ``src`` on ``PYTHONPATH``.  ``setup`` times
``import monocert`` plus parsing and validating the workload's systems and
weight files, then runs the reference kernel once.  ``run`` runs the
workload's command sequence through ``monocert.cli.main`` with ``--quiet``,
timing each command and checking its exit code and report, with the
reference kernel (``speed.py``) timed before the first command and after
each one.  ``trace`` does the same with every layer wrapped in
spans (see ``tracer.py``), then re-solves each captured LP with HiGHS.
The result is one JSON file.
"""

import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import speed
from workloads import WORKLOADS, expand, grid_points, load_report

CORPUS = Path(__file__).resolve().parent.parent / "src" / "monocert" / "corpus"


def setup(wl) -> dict:
    t0 = time.perf_counter()
    import monocert
    for name in wl.systems:
        monocert.parse_system((CORPUS / f"{name}.sys").read_text()).validate()
    for name in wl.weights:
        monocert.WeightFamily.from_jsonable(
            json.loads((CORPUS / name).read_text()))
    seconds = time.perf_counter() - t0
    speed.warm_up()
    return {"setup_s": seconds, "ref_s": [speed.reference()]}


def outputs(outdir: Path) -> tuple:
    """(sha256 over every file the command wrote, bytes of its JSON files)."""
    h = hashlib.sha256()
    json_bytes = 0
    for p in sorted(outdir.iterdir()):
        data = p.read_bytes()
        h.update(p.name.encode() + b"\0" + data + b"\0")
        if p.suffix == ".json":
            json_bytes += len(data)
    return h.hexdigest(), json_bytes


def run(wl, seed: int, workdir: Path, tr=None) -> dict:
    from monocert.cli import main

    lp_records, refs = [], []
    if tr is not None:
        from tracer import lp_reference
        tr.install()
    else:
        speed.warm_up()
        refs.append(speed.reference())
    commands, outdirs = [], []
    for k, cmd in enumerate(wl.commands):
        outdir = workdir / f"cmd{k}"
        outdir.mkdir(parents=True)
        outdirs.append(outdir)
        argv = expand(cmd.argv, CORPUS, seed, outdirs) + [
            "--quiet", "--out", str(outdir)]
        problems = []
        if tr is not None:
            tr.cmd = k
        t0 = time.perf_counter()
        try:
            code = main(argv)
        except Exception:   # a crash is a failed command, not a dead run
            code = None
            problems.append(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if tr is not None:
            tr.cmd = -1
            lp_records += lp_reference(tr.lps[len(lp_records):])
        else:
            refs.append(speed.reference())
        if code != cmd.exit_code:
            problems.append(f"exit code {code}, expected {cmd.exit_code}")
        points = 0
        try:
            report = load_report(cmd, outdir)
            problems += cmd.check(report)
            points = grid_points(cmd, report)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"report unreadable: {exc!r}")
        digest, report_bytes = outputs(outdir)
        commands.append({"argv": argv, "name": cmd.name, "kind": cmd.kind,
                         "seconds": seconds, "exit": code,
                         "problems": problems, "digest": digest,
                         "report_bytes": report_bytes,
                         "grid_points": points})
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {"commands": commands, "peak_rss_kb": usage.ru_maxrss,
            "lp": lp_records, "ref_s": refs}


def main(argv: list) -> int:
    mode, workload, seed, workdir, result = argv[:5]
    wl = WORKLOADS[workload]
    if mode == "setup":
        out = setup(wl)
    elif mode == "run":
        out = run(wl, int(seed), Path(workdir))
    elif mode == "trace":
        from tracer import Tracer, layer_metrics
        tr = Tracer()
        out = run(wl, int(seed), Path(workdir), tr)
        cmds = out["commands"]
        out["layers"] = layer_metrics(tr, cmds, out["lp"])
        out["layers_per_command"] = [layer_metrics(tr, cmds, out["lp"], [k])
                                     for k in range(len(cmds))]
        tr.write_spans(argv[5], [c["argv"] for c in cmds])
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    Path(result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
