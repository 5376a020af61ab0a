"""Fold the result files under bench/out/ into one trajectory entry.

    python3 bench/aggregate.py --commit SHA [--dir DIR]

DIR defaults to bench/out/.  For each workload and metric this gives the
number of runs (one per seed), the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median: end-to-end metrics from the ``--trace 0`` results,
per-layer metrics from the ``--trace 1`` ones.  The output is one JSON
object, an entry of bench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def fold(out: Path, trace: int) -> dict:
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    units: dict[str, str] = {}
    runs: dict[str, dict] = defaultdict(lambda: {"seeds": [], "attempted": 0, "failed": 0,
                                                 "loadavg1_at_start": []})
    for path in sorted(out.glob(f"*-seed*-trace{trace}.json")):
        workload, seed = path.stem.rsplit("-trace", 1)[0].rsplit("-seed", 1)
        result = json.loads(path.read_text(encoding="utf-8"))
        run = runs[workload]
        run["seeds"].append(int(seed))
        run["attempted"] += result["attempted"]
        run["failed"] += result["failed"]
        machine = dict(result["machine"])
        run["loadavg1_at_start"].append(round(machine.pop("loadavg1_at_start"), 2))
        run["machine"] = machine
        for name, metric in result["metrics"].items():
            values[workload][name].append(metric["value"])
            units[name] = metric["unit"]

    report = {}
    for workload, metrics in sorted(values.items()):
        entry = runs[workload]
        entry["metrics"] = {}
        for name, vals in metrics.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
            entry["metrics"][name] = {
                "unit": units[name], "n": len(vals), "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median if median else None,
            }
        report[workload] = entry
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", default=None, help="commit the results belong to")
    parser.add_argument("--dir", type=Path, default=OUT, help="directory of result files")
    args = parser.parse_args()
    print(json.dumps({"commit": args.commit, "end_to_end": fold(args.dir, 0),
                      "per_layer": fold(args.dir, 1)}, indent=1))


if __name__ == "__main__":
    main()
