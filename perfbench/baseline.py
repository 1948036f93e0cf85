"""Rebuild ``BASELINE.json`` from the records of finished runs.

    python3 perfbench/baseline.py --seconds 30 --seeds 1-10 --traced 1,2

Reads ``perfbench-out/<workload>-seed<n>-trace0.json`` for every seed and
``-trace1.json`` for the traced seeds, all made by ``run.py`` with the
given ``--seconds``.  End-to-end values become the median and quartiles
over the runs; per-layer values come from the first traced seed, and its
counts that must repeat are compared with the other traced seeds.  The
predictions already in ``BASELINE.json`` are kept.
"""

import argparse
import json
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / "perfbench-out"
sys.path.insert(0, str(HERE))

from run import COUNTS_THAT_REPEAT, END_TO_END_UNITS  # noqa: E402
from speed import REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def summary(values: list, unit: str) -> dict:
    q1, _, q3 = quantiles(values, n=4)
    return {"median": median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median(values), "unit": unit,
            "runs": len(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--traced", default="1,2")
    args = ap.parse_args()
    path = HERE / "BASELINE.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    runs, traced = seeds(args.seeds), seeds(args.traced)

    def load(name, seed, trace):
        rec = json.loads(
            (OUT / f"{name}-seed{seed}-trace{trace}.json").read_text())
        if rec["seconds"] != args.seconds:
            raise SystemExit(f"{name} seed {seed}: a {rec['seconds']} s run")
        return rec

    workloads = {}
    for name in WORKLOADS:
        recs = [load(name, s, 0) for s in runs]
        end_to_end = {k: summary([r["metrics"][k] for r in recs], unit)
                      for k, unit in END_TO_END_UNITS.items()}
        for k in ("wall_s", "setup_s"):
            end_to_end[f"raw.{k}"] = summary([r["raw"][k] for r in recs], "s")
        end_to_end["repeats_per_run"] = [r["repeats"] for r in recs]
        end_to_end["failed_per_run"] = [r["failed"] for r in recs]
        tr = [load(name, s, 1) for s in traced]
        workloads[name] = {
            "end_to_end": end_to_end,
            "per_layer": tr[0]["layers"],
            "lp": tr[0]["lp"],
            "per_layer_attempted": tr[0]["attempted"],
            "per_layer_failed": tr[0]["failed"],
            "counts_repeat": {k: len({t["layers"][k] for t in tr}) == 1
                              for k in COUNTS_THAT_REPEAT},
        }
    first = load(next(iter(WORKLOADS)), runs[0], 0)
    baseline = {
        "about": (
            "First full measurement of every metric. End-to-end values: "
            f"median and quartiles over {len(runs)} runs with seeds "
            f"{args.seeds}; each run is the median of its repeats, in "
            f"seconds at reference speed (REF_S = {REF_S} s, see "
            "speed.py); raw.* are the same runs unnormalised. Per-layer "
            f"values: a traced run with seed {traced[0]}; counts_repeat "
            f"compares its counts with seeds {args.traced}."),
        "run_seconds": args.seconds,
        "environment": first["environment"],
        "workloads": workloads,
        "predictions": old.get("predictions", []),
    }
    path.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
