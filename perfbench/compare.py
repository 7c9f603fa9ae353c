"""Compare two result files written by ``run.py --out``.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

For every workload and metric it prints each side's median and quartiles,
the share of pairs the change won (the i-th run of each file form a pair;
ties count for neither side) and a verdict:

- ``better``: the change won at least 9/10 of the pairs and the medians
  differ by more than the base's own quartile spread;
- ``worse``: the change's median is worse by more than the metric's bound;
- ``unresolved``: a side's quartile spread, as a share of its median, is
  wider than the bound, and not every change run beats every base run;
- ``same`` otherwise. Per-layer metrics have no bound and get no verdict
  beyond ``better``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path: str):
    """{(workload, trace): {metric: [values in file order]}} and units."""
    runs, units = defaultdict(lambda: defaultdict(list)), {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            group = runs[(rec["workload"], rec["trace"])]
            for name, m in rec["metrics"].items():
                group[name].append(m["value"])
                units[name] = m["unit"]
            group["fail_frac"].append(rec["failed"] / rec["attempted"])
            units["fail_frac"] = "ratio"
    return runs, units


def spec():
    """{metric: (lower_is_better, bound or None)} from BENCHMARK.json."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    out = {"fail_frac": (True, 0.0)}
    for m in bench["end_to_end"]:
        out[m["name"]] = (m["better"] == "lower", m["bound"])
    for m in bench["per_layer"]:
        out[m["name"]] = (m["better"] == "lower", None)
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def verdict(base, change, lower: bool, bound):
    better = (lambda a, b: b < a) if lower else (lambda a, b: b > a)
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if better(a, b))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    all_better = all(better(a, b) for a in base for b in change)
    if wins >= 0.9 * len(pairs) and abs(cmed - bmed) > bq3 - bq1 and cmed != bmed:
        return wins, len(pairs), "better"
    if bound is None:
        return wins, len(pairs), ""
    worse_by = (cmed - bmed) if lower else (bmed - cmed)
    if bound == 0.0 and worse_by > 0:  # fail_frac: any increase is a regression
        return wins, len(pairs), "worse"
    spread = max((q3 - q1) / abs(med) if med else 0.0 for q1, med, q3 in ((bq1, bmed, bq3), (cq1, cmed, cq3)))
    if spread > bound and not all_better:
        return wins, len(pairs), "unresolved"
    if worse_by > bound * abs(bmed):
        return wins, len(pairs), "worse"
    return wins, len(pairs), "same"


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, units), (change, _) = load(argv[0]), load(argv[1])
    rules = spec()
    print(f"{'workload':10s} {'metric':36s} {'base median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'won':>7s}  verdict")
    for key in sorted(set(base) & set(change)):
        for name in sorted(set(base[key]) & set(change[key])):
            lower, bound = rules.get(name, (True, None))
            b, c = base[key][name], change[key][name]
            wins, pairs, word = verdict(b, c, lower, bound)
            sides = ["%.6g [%.4g, %.4g]" % (med, q1, q3)
                     for q1, med, q3 in (quartiles(b), quartiles(c))]
            print(f"{key[0]:10s} {name:36s} {sides[0]:34s} {sides[1]:34s} "
                  f"{wins:>3d}/{pairs:<3d}  {word or '-'}  {units.get(name, '')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
