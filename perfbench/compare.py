"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 perfbench/compare.py BASE.jsonl [CHANGE.jsonl]

Each file holds the lines ``run.py --record`` appends.  For every workload
and metric this prints the run count, median, quartiles and spread
(quartile distance over median) of each side, the change of the median,
and a verdict.  End-to-end metrics are judged against their bound in
BENCHMARK.json: ``unresolved`` when either side spreads wider than the
bound (unless every run of one side beats every run of the other),
``REGRESSION`` when the median worsens by more than the bound, ``better``
when it improves by more than the base's quartile distance.  Per-layer
metrics have no bound and only get a direction.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path):
    """workload -> metric -> list of values, over every recorded run."""
    runs = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, metric in rec["metrics"].items():
                    runs[rec["workload"]][name].append(metric["value"])
    return runs


def summary(values):
    """(n, median, q1, q3, spread)."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return len(values), med, q1, q3, (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, better, bound):
    _, med_a, q1_a, q3_a, spread_a = summary(base)
    _, med_b, _, _, spread_b = summary(change)
    sign = 1 if better == "lower" else -1
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    if bound is not None and max(spread_a, spread_b) > bound:
        if all(sign * (b - a) < 0 for a in base for b in change):
            return "better"
        if all(sign * (b - a) > 0 for a in base for b in change):
            return "worse"
        return "unresolved"
    if bound is not None and worse > bound:
        return "REGRESSION"
    if abs(med_b - med_a) > q3_a - q1_a:
        return "better" if worse < 0 else ("within bound" if bound is not None else "worse")
    return "within bound" if bound is not None else "~"


def fmt(x):
    return f"{x:.6g}"


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 1
    sides = [load(path) for path in argv]
    metrics = [(m["name"], m["better"], m.get("bound")) for m in SPEC["end_to_end"]]
    metrics += [(m["name"], m["better"], None) for m in SPEC["per_layer"]]
    for w in SPEC["workloads"]:
        workload = w["name"]
        if not any(workload in side for side in sides):
            continue
        print(f"== {workload}")
        for name, better, bound in metrics:
            values = [side.get(workload, {}).get(name) for side in sides]
            if not all(values):
                continue
            cells = []
            for vals in values:
                n, med, q1, q3, spread = summary(vals)
                cells.append(f"n={n} med={fmt(med)} q1={fmt(q1)} q3={fmt(q3)} spread={spread:.3f}")
            line = f"  {name:40s} " + " | ".join(cells)
            if len(values) == 2:
                med_a, med_b = statistics.median(values[0]), statistics.median(values[1])
                delta = (med_b - med_a) / abs(med_a) if med_a else 0.0
                line += f" | delta={delta:+.3%} {verdict(values[0], values[1], better, bound)}"
            elif bound is not None:
                spread = summary(values[0])[4]
                line += f" | bound={bound} {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
