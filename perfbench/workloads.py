"""The benchmark's workloads: CLI command sequences and expected outcomes.

Each workload is a list of ``monocert`` commands run one after another in a
single interpreter (closed loop, one client).  Every command is paired with
the exit code it must return and a check of its report.  The checks test
outcomes (verdicts, success flags, pass/fail fields), never margins or
weights, so a change that legitimately moves a number does not count as a
failure.

Placeholders in a command line:

- ``@name``  -> a file of the bundled corpus (``src/monocert/corpus/name``);
- ``{seed}`` -> the workload seed (only ``simulate`` and ``contract`` use it);
- ``{out:k}`` -> the output directory of command ``k`` of the same sequence.

This module imports nothing outside the standard library, so the worker can
load it before the timed set-up begins.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

CERTIFY, SYNTH, VALIDATE = "certify", "synth", "validate"
KIND_OF = {"certify": CERTIFY, "synth": SYNTH, "simulate": VALIDATE,
           "contract": VALIDATE, "entrain": VALIDATE}
REPORT_OF = {"certify": "certify-report.json", "synth": "synth-report.json",
             "simulate": "simulate-report.json",
             "contract": "contract-report.json",
             "entrain": "entrain-report.json"}


@dataclass(frozen=True)
class Command:
    argv: tuple
    exit_code: int
    check: object            # callable(report: dict) -> list of problems

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def kind(self) -> str:
        return KIND_OF[self.argv[0]]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    systems: tuple           # corpus systems the sequence loads (for set-up)
    weights: tuple           # corpus weight files it loads


# ---------------------------------------------------------------------------
# Outcome checks
# ---------------------------------------------------------------------------

def verdicts(expected: dict):
    """Each named check has the given verdict; '!fail' means any but fail."""
    def check(rep):
        got = {c["condition"]: c["verdict"] for c in rep["checks"]}
        problems = []
        if set(got) != set(expected):
            problems.append(f"checks {sorted(got)} != {sorted(expected)}")
        for cond, want in expected.items():
            v = got.get(cond)
            ok = v != "fail" if want == "!fail" else v == want
            if not ok:
                problems.append(f"{cond}: verdict {v}, expected {want}")
        return problems
    return check


def synth_outcome(success: bool):
    def check(rep):
        problems = []
        if rep["success"] is not success:
            problems.append(f"success {rep['success']}, expected {success}")
        if success and (rep["posthoc"] is None
                        or rep["posthoc"]["verdict"] == "fail"):
            problems.append("post-hoc certificate missing or failed")
        return problems
    return check


def all_decrease(rep):
    files = rep["files"]
    if not files:
        return ["no trajectories"]
    return [f"{e['file']}: V increased" for e in files
            if e.get("decrease_ok") is not True]


def passed_with_rate(rate):
    """``passed`` is true and, when given, the certified rate is ~rate."""
    def check(rep):
        problems = [] if rep["passed"] is True else ["passed is false"]
        if rate is not None and not math.isclose(
                rep["certified_rate"], rate, rel_tol=1e-6, abs_tol=1e-9):
            problems.append(
                f"certified rate {rep['certified_rate']} != {rate}")
        return problems
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

WORKLOADS = {w.name: w for w in (
    Workload(
        name="certify-piecewise",
        commands=(
            # kamke, thm1, cor1, cor3-l1; 28,561 points each, 5.3% tied
            Command(("certify", "traffic4", "--theta", "@traffic4.v.json",
                     "--resolution", "13"), 1,
                    verdicts({"kamke": "!fail", "thm1": "fail",
                              "cor1": "fail", "cor3-l1": "fail"})),
            # Kamke only; 83,521 points, 4.1% tied
            Command(("certify", "traffic4", "--resolution", "17"), 0,
                    verdicts({"kamke": "!fail"})),
            # the column sums reach 0 but never a negative margin
            Command(("synth", "traffic4", "--mode", "sum"), 1,
                    synth_outcome(False)),
        ),
        systems=("traffic4",), weights=("traffic4.v.json",)),
    Workload(
        name="certify-smooth",
        # Kamke gives "pass", not "pass-with-margin": an off-diagonal
        # Jacobian entry of each system reaches 0 on the box
        commands=(
            Command(("certify", "ex1", "--theta", "@ex1.theta.json",
                     "--omega", "@ex1.omega.json", "--box", "0:3,0:3",
                     "--resolution", "1201"), 0,
                    verdicts({"kamke": "pass", **dict.fromkeys(
                        ("thm1#1", "cor3-l1#1", "thm2#2", "cor3-linf#2"),
                        "pass-with-margin")})),
            Command(("certify", "comparison", "--theta", "@comparison.v.json",
                     "--box", "0:2,0:2", "--resolution", "1201"), 0,
                    verdicts({"kamke": "pass", **dict.fromkeys(
                        ("thm1", "cor1", "cor3-l1"), "pass-with-margin")})),
        ),
        systems=("ex1", "comparison"),
        weights=("ex1.theta.json", "ex1.omega.json", "comparison.v.json")),
    Workload(
        name="synth-validate",
        commands=(
            # 904 x 7 LP
            Command(("synth", "ex1", "--mode", "poly-sum", "--degree", "2",
                     "--box", "0:3,0:3"), 0, synth_outcome(True)),
            # the weights just synthesized, on a 1.44 M-point grid
            Command(("certify", "ex1", "--theta",
                     "{out:0}/synth-weights.json", "--box", "0:3,0:3",
                     "--resolution", "1201"), 0,
                    verdicts(dict.fromkeys(("kamke", "thm1", "cor3-l1"),
                                           "!fail"))),
            Command(("synth", "ex1", "--mode", "poly-max", "--degree", "2",
                     "--box", "0:3,0:3"), 0, synth_outcome(True)),
            # B = 1 per trajectory, with a V column in the CSVs
            Command(("simulate", "ex1", "--x0", "2,1", "--random", "3",
                     "--box", "0:3,0:3", "--theta", "@ex1.theta.json",
                     "--t-end", "4", "--seed", "{seed}"), 0, all_decrease),
            # B = 20; eigenvalues -1 and -3, so the certified rate is 1
            Command(("contract", "linear_sym", "--theta",
                     "@linear_sym.theta.json", "--seed", "{seed}"), 0,
                    passed_with_rate(1.0)),
            # time-varying, B = 3
            Command(("entrain", "entrain_cubic", "--x0-set=-2;0;2",
                     "--periods", "15"), 0, passed_with_rate(None)),
        ),
        systems=("ex1", "linear_sym", "entrain_cubic"),
        weights=("ex1.theta.json", "linear_sym.theta.json")),
)}


def expand(argv: tuple, corpus: Path, seed: int, outdirs: list) -> list:
    """Substitute the placeholders of one command line."""
    out = []
    for a in argv:
        if a.startswith("@"):
            a = str(corpus / a[1:])
        a = a.replace("{seed}", str(seed))
        for k, d in enumerate(outdirs):
            a = a.replace(f"{{out:{k}}}", str(d))
        out.append(a)
    return out


def load_report(cmd: Command, outdir: Path) -> dict:
    return json.loads((outdir / REPORT_OF[cmd.name]).read_text())


def grid_points(cmd: Command, report: dict) -> int:
    """Grid point-checks a certify report covers: sum of resolution^n."""
    if cmd.name != "certify":
        return 0
    return sum(c["resolution"] ** len(c["box"]) for c in report["checks"])
