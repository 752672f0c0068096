"""Command line: run workloads, print every metric, compare result files."""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from bench import ROOT, trace
from bench.common import Env, Result, assert_quiet
from bench.speed import pin_to_one_cpu

OUT_DIR = os.path.join(ROOT, "bench", "out")

#: The traced run and its untraced reference both run at this share of
#: ``--seconds``: the pair costs about what one end-to-end run costs.
TRACE_SCALE = 0.5

#: Per-layer numbers that only the untraced reference run can give
#: honestly (the traced run shares one process with the server).
FROM_REFERENCE = (
    "client.cpu_ms_per_op", "server.cpu_ms_per_txn", "server.ping_p50_ms",
    "server.paced_p50_ms", "server.paced_tail_ms", "loadgen.lag_p99_ms", "loadgen.cpu_share",
)


def load_spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as handle:
                return handle.read().strip()
        return head
    except OSError:
        return "unknown"


def environment(seed: int, seconds: float) -> Dict[str, Any]:
    return {
        "seed": seed, "seconds": seconds, "nproc": os.cpu_count(),
        "python": platform.python_version(), "commit": git_commit(),
    }


def _run_once(module, seed: int, seconds: float, tracer: Optional[trace.Tracer] = None,
              reference: bool = False) -> Result:
    env = Env(seed=seed, seconds=seconds, workdir=os.path.join(OUT_DIR, f"tmp-{os.getpid()}"),
              tracer=tracer, reference=reference)
    try:
        result = module.run(env)
        result.detail.update(speed=env.speed.overall(), probes=env.speed.probes)
        return result
    finally:
        shutil.rmtree(env.workdir, ignore_errors=True)


def run_traced(module, seed: int, seconds: float) -> Tuple[Result, Dict[str, float]]:
    """An untraced reference run, then the traced run, at the same scale."""
    scaled = seconds * TRACE_SCALE
    reference = _run_once(module, seed, scaled, reference=True)
    tracer = trace.Tracer()
    tracer.install()
    try:
        result = _run_once(module, seed, scaled, tracer=tracer)
    finally:
        tracer.uninstall()
    threads = tracer.threads()
    summary = trace.summarize(threads)
    ops = max(1, result.attempted)
    # Self times are restated at reference speed with the traced run's mean speed.
    speed = result.detail["speed"]
    layers: Dict[str, float] = {"loadgen.machine_speed": speed}
    for name in trace.BOUNDARY_NAMES:
        entry = summary.get(name, {"calls": 0, "self_s": 0.0})
        layers[f"{name}.calls"] = float(entry["calls"])
        layers[f"{name}.self_ms_per_op"] = entry["self_s"] * speed * 1000.0 / ops
    layers.update(result.layers)
    layers.update({k: v for k, v in reference.layers.items() if k in FROM_REFERENCE})
    commits = layers["engine.commit.calls"]
    layers["engine.fsyncs_per_commit"] = layers["engine.fsync.calls"] / commits if commits else 0.0
    if result.rows_returned:
        layers["engine.rows_scanned_per_row_returned"] = (
            tracer.yielded["engine.scan"] / result.rows_returned
        )
    layers["trace.overhead_ratio"] = (
        result.metrics["throughput_per_s"] / reference.metrics["throughput_per_s"]
    )
    layers["trace.coverage"] = trace.coverage(threads)
    os.makedirs(OUT_DIR, exist_ok=True)
    layers["trace.spans"] = float(
        tracer.write(os.path.join(OUT_DIR, f"spans-{module.NAME}-seed{seed}.jsonl"))
    )
    for name in module.MUST_EXERCISE:
        if not layers[f"{name}.calls"]:
            result.failures.append(f"boundary {name} recorded no span on {module.NAME}")
    floor = getattr(module, "COVERAGE_FLOOR", 0.0)
    if layers["trace.coverage"] < floor:
        result.failures.append(
            f"spans cover {layers['trace.coverage']:.2f} of operation time, below {floor}"
        )
    result.failures.extend(f"reference run: {f}" for f in reference.failures)
    return result, layers


def run_workload(spec: Dict[str, Any], name: str, seed: int, seconds: float,
                 traced: bool) -> Dict[str, Any]:
    """Run one workload; return the contract object plus a ``detail`` record."""
    from bench.workloads import WORKLOADS

    module = WORKLOADS[name]
    cpu = pin_to_one_cpu()
    assert_quiet()
    started = time.perf_counter()
    if traced:
        result, values = run_traced(module, seed, seconds)
    else:
        result = _run_once(module, seed, seconds)
        values = result.metrics
    assert_quiet()
    wanted = spec["per_layer" if traced else "end_to_end"]
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    failed = result.failed_ops + (result.attempted if result.failures else 0)
    return {
        "correct": not result.failures,
        "attempted": max(1, result.attempted),
        "failed": min(failed, max(1, result.attempted)),
        "metrics": metrics,
        "detail": {
            "workload": name, "traced": traced, "wall_s": time.perf_counter() - started,
            "failures": result.failures, "pinned_cpu": cpu, **environment(seed, seconds),
            **result.detail,
        },
    }


def cmd_run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    status = 0
    for name in names:
        outcome = run_workload(spec, name, args.seed, args.seconds, bool(args.trace))
        detail = outcome.pop("detail")
        print(json.dumps({"detail": detail}, sort_keys=True))
        for metric, entry in outcome["metrics"].items():
            print(f"{name:16s} {metric:40s} {entry['value']:16.6f} {entry['unit']}")
        if args.out:
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": name, "seed": args.seed,
                                         "traced": bool(args.trace), **outcome}) + "\n")
        for failure in detail["failures"]:
            print(f"GATE FAILED [{name}]: {failure}", file=sys.stderr)
        if not outcome["correct"]:
            status = 1
        print(json.dumps(outcome))
    return status


def main(argv: List[str]) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run one workload (or all four) and print its metrics")
    run.add_argument("--workload", default=None)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", default=None, help="append one JSON line per run to this file")
    agree = commands.add_parser("agree", help="compare two result files against the bounds")
    agree.add_argument("a")
    agree.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args, spec)
    from bench.agree import report

    return report(args.a, args.b, spec)
