"""Compare two sets of benchmark runs: parent commit against change.

    python bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the per-run documents ``run.py --out DIR`` writes.
Runs pair up by workload and seed (run both sides with the same seeds,
alternating which side goes first).  For every workload and end-to-end
metric in BENCHMARK.json the verdict is one of:

* ``unresolved`` — the run-to-run spread (IQR / median, the wider of
  the two sides) exceeds the metric's bound, and not every change run
  reads better than every parent run;
* ``regression`` — the change's median is worse than the parent's by
  more than the bound (a share of the parent's median);
* ``gain`` — at least 10 pairs, the change wins at least 90% of them
  (ties count for neither side) and the medians differ by more than the
  parent's IQR;
* ``unchanged`` — none of the above.

Any rise in the share of failed requests is flagged as well.  Exits 1
on a regression or a failure rise, 0 otherwise.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Dict, List, Tuple

from metrics import spread

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_runs(directory: str) -> Dict[Tuple[str, int], dict]:
    """Untraced run documents keyed by ``(workload, seed)``."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            doc = json.load(fh)
        if not doc.get("trace"):
            runs[(doc["workload"], int(doc["seed"]))] = doc
    return runs


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Dict[str, object]:
    """The decision rule for one workload × metric (values paired by index)."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = spread(parent), spread(change)
    pm, cm = p["median"], c["median"]
    worse = sign * (pm - cm) / abs(pm) if pm else 0.0
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    all_better = min(sign * v for v in change) > max(sign * v for v in parent)
    noise = max(p["rel_spread"], c["rel_spread"])
    if noise > bound and not all_better:
        name = "unresolved"
    elif worse > bound:
        name = "regression"
    elif (len(parent) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(parent)
          and sign * (cm - pm) > p["iqr"]):
        name = "gain"
    else:
        name = "unchanged"
    return {"verdict": name, "parent": pm, "change": cm, "worse": worse,
            "spread": noise, "wins": wins, "pairs": len(parent)}


def compare(parent_dir: str, change_dir: str, spec: dict) -> Tuple[List[dict], bool]:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    keys = sorted(set(parent) & set(change))
    rows, bad = [], False
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        ps = [parent[(workload, s)] for s in seeds]
        cs = [change[(workload, s)] for s in seeds]
        for m in spec["end_to_end"]:
            name = m["name"]
            row = verdict([d["result"][name]["value"] for d in ps],
                          [d["result"][name]["value"] for d in cs],
                          m["better"], m["bound"])
            row.update(workload=workload, metric=name, bound=m["bound"])
            rows.append(row)
            bad |= row["verdict"] == "regression"
        pf = sum(d["failed"] for d in ps) / max(1, sum(d["attempted"] for d in ps))
        cf = sum(d["failed"] for d in cs) / max(1, sum(d["attempted"] for d in cs))
        if cf > pf:
            rows.append({"workload": workload, "metric": "failed_frac",
                         "verdict": "failure-rise", "parent": pf, "change": cf,
                         "worse": cf - pf, "spread": 0.0, "wins": 0,
                         "pairs": len(seeds), "bound": 0.0})
            bad = True
    return rows, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                        "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark) as fh:
        spec = json.load(fh)
    rows, bad = compare(args.parent_dir, args.change_dir, spec)
    if not rows:
        print("error: no (workload, seed) runs in common", file=sys.stderr)
        return 2
    print(f"{'workload':20s} {'metric':18s} {'parent':>11s} {'change':>11s} "
          f"{'worse':>7s} {'spread':>7s} {'bound':>6s} {'wins':>7s}  verdict")
    for r in rows:
        print(f"{r['workload']:20s} {r['metric']:18s} {r['parent']:11.5g} "
              f"{r['change']:11.5g} {r['worse']:+7.3f} {r['spread']:7.3f} "
              f"{r['bound']:6.2f} {r['wins']:3d}/{r['pairs']:<3d}  {r['verdict']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
