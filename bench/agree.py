"""``python -m bench agree A.jsonl B.jsonl``: do two sets of runs agree?

Each file holds one JSON line per run, as ``python -m bench run --out``
appends them.  For every workload x end-to-end metric the comparator takes
each side's median and spread (interquartile distance over the median) and
reports, using the direction and bound from ``BENCHMARK.json``:

* ``within``      B's median is no worse than A's by more than the bound;
* ``worse``       it is;
* ``unresolved``  either side's spread is wider than the bound, so the runs
                  cannot tell (more or longer runs are needed, not a wider
                  bound).

Exit status is 0 only when every pairing is ``within``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from bench.stats import spread


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values, from the untraced runs in ``path``."""
    values: Dict[Tuple[str, str], List[float]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            if run.get("traced"):
                continue
            for metric, entry in run["metrics"].items():
                values[(run["workload"], metric)].append(entry["value"])
    return values


def verdict(a: List[float], b: List[float], better: str, bound: float) -> Tuple[str, float]:
    """Classify B against A; also return by how much B is worse (share of A)."""
    base, other = statistics.median(a), statistics.median(b)
    worse_by = (other - base) / abs(base) if better == "lower" else (base - other) / abs(base)
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse_by
    return ("worse" if worse_by > bound else "within"), worse_by


def report(path_a: str, path_b: str, spec: Dict[str, Any]) -> int:
    a, b = load(path_a), load(path_b)
    status = 0
    print(f"{'workload':16s} {'metric':22s} {'A median':>14s} {'B median':>14s} "
          f"{'B worse by':>10s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                print(f"{workload:16s} {metric['name']:22s} missing from one side")
                status = 1
                continue
            result, worse_by = verdict(a[key], b[key], metric["better"], metric["bound"])
            if result != "within":
                status = 1
            print(f"{workload:16s} {metric['name']:22s} {statistics.median(a[key]):14.4f} "
                  f"{statistics.median(b[key]):14.4f} {worse_by:10.1%} {spread(a[key]):9.1%} "
                  f"{spread(b[key]):9.1%} {metric['bound']:6.0%}  {result}")
    return status
