#!/usr/bin/env python3
"""CI drill for the black-box flight recorder.

Runs one kill-mode torture point (``ledger.block_persist`` via the digest
driver — the mid-pipeline crash with the richest in-flight state) with the
flight recorder armed in the child, then proves the crash left a usable
post-mortem behind:

* the torture drill itself passed (zero committed loss, full verification);
* a bundle was written, is readable JSON, and names ``fault.injected`` and
  the armed point as its trigger;
* the bundle contains the crashed commit's *partial lineage*: finished
  ``txn.commit`` and ``queue.wait`` spans plus the ``block.append`` span
  still in flight when ``os._exit`` hit;
* the lineage reassembles from the bundle alone — ``build_commit_lineage``
  over the deserialized spans, keyed by the ``queue.wait`` span's ``tid``,
  stitches the commit to the block build that was killed under it.

Usage::

    PYTHONPATH=src python .github/scripts/flight_drill.py [flight-dir]
"""

import sys
import tempfile

from repro.faults.torture import CrashPoint, run_kill_point
from repro.obs.flight import read_bundle
from repro.obs.tracing import Span, build_commit_lineage


def check(condition, label):
    print(("ok   " if condition else "FAIL ") + label, flush=True)
    if not condition:
        raise SystemExit(f"flight drill failed: {label}")


def main():
    flight_dir = (
        sys.argv[1] if len(sys.argv) > 1
        else tempfile.mkdtemp(prefix="flight-drill-")
    )
    spec = CrashPoint("ledger.block_persist", driver="digest")
    result = run_kill_point(spec, flight_dir=flight_dir)
    check(
        result["ok"],
        f"kill-mode drill at {spec.point} recovered cleanly "
        f"(failures: {result['failures']})",
    )
    bundles = result.get("flight_bundles") or []
    check(len(bundles) >= 1, f"crash left a flight bundle ({bundles})")

    bundle = read_bundle(bundles[0])
    check(bundle["schema"] == 3, "bundle carries schema version 3")
    check(
        bundle.get("reason") == "fault.injected",
        f"bundle reason is the trigger event ({bundle.get('reason')})",
    )
    trigger = bundle.get("trigger") or {}
    check(
        trigger.get("payload", {}).get("point") == spec.point,
        f"trigger payload names the armed point ({trigger})",
    )

    finished = [Span.from_dict(d) for d in bundle["spans"]]
    finished_names = {span.name for span in finished}
    check(
        "txn.commit" in finished_names,
        "finished spans include the crashed run's commits",
    )
    check(
        "queue.wait" in finished_names,
        "queue-wait spans were absorbed before the fault fired",
    )
    active = bundle.get("active_spans") or []
    active_names = {d["name"] for d in active}
    check(
        "block.append" in active_names,
        f"block.append was in flight at the kill ({sorted(active_names)})",
    )
    check(
        all(d.get("in_flight") for d in active),
        "active spans are flagged in_flight",
    )

    # Reassemble the partial lineage from the bundle alone: pick a commit
    # whose queue.wait made it into the ring and walk its tid.
    all_spans = finished + [Span.from_dict(d) for d in active]
    waits = [s for s in all_spans if s.name == "queue.wait"]
    tid = waits[-1].attributes.get("tid") if waits else None
    check(tid is not None, "a queue.wait span names its transaction")
    lineage = build_commit_lineage(all_spans, tid)
    names = set()

    def walk(node):
        names.add(node.span.name)
        for child in node.children:
            walk(child)

    for root in lineage:
        walk(root)
    check(
        {"txn.commit", "queue.wait", "block.append"} <= names,
        f"lineage of tid {tid} reassembles from the bundle "
        f"({sorted(names)})",
    )

    check(bundle.get("events"), "bundle carries the event tail")
    check(
        "fault.injected" in {e["name"] for e in bundle["events"]},
        "event tail includes the fatal fault.injected",
    )
    check(isinstance(bundle.get("metrics"), dict), "bundle carries metrics")
    print(f"flight drill passed ({bundles[0]})")


if __name__ == "__main__":
    main()
