"""One-second runs through the contract entry point, and the comparator."""

import json
import os
import subprocess
import sys

import pytest

from bench import ROOT
from bench.agree import report, verdict
from bench.cli import load_spec

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, tmp_path, seed=1):
    out = tmp_path / "runs.jsonl"
    process = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--out", str(out)],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=170,
    )
    assert process.returncode == 0, process.stderr[-2000:]
    return json.loads(process.stdout.strip().splitlines()[-1]), process.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_exactly_the_end_to_end_metrics(workload, tmp_path):
    result, stdout = run(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
    detail = json.loads(next(l for l in stdout.splitlines() if l.startswith('{"detail"')))
    assert len(detail["detail"]["input_sha256"]) == 64
    assert detail["detail"]["nproc"] and detail["detail"]["flush_policy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_prints_exactly_the_per_layer_metrics(workload, tmp_path):
    result, _ = run(workload, 1, tmp_path)
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert result["metrics"]["trace.spans"]["value"] > 0
    assert 0 < result["metrics"]["trace.overhead_ratio"]["value"] < 2


def test_same_seed_gives_the_same_input_fingerprint(tmp_path):
    def fingerprint(seed):
        _, stdout = run("audit_embedded", 0, tmp_path, seed=seed)
        line = next(l for l in stdout.splitlines() if l.startswith('{"detail"'))
        return json.loads(line)["detail"]["input_sha256"]

    assert fingerprint(4) == fingerprint(4) != fingerprint(5)


def test_benchmark_json_meets_the_contract_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])


def test_verdicts_within_worse_and_unresolved():
    steady = [100.0, 101.0, 99.0, 100.0, 100.5]
    assert verdict(steady, [103.0] * 5, "lower", 0.05)[0] == "within"
    assert verdict(steady, [110.0] * 5, "lower", 0.05)[0] == "worse"
    assert verdict(steady, [90.0] * 5, "higher", 0.05)[0] == "worse"
    assert verdict(steady, [90.0] * 5, "lower", 0.05)[0] == "within"   # better is fine
    noisy = [80.0, 120.0, 100.0, 70.0, 130.0]
    assert verdict(noisy, steady, "lower", 0.05)[0] == "unresolved"


def test_agree_report_reads_run_files(tmp_path, capsys):
    def write(path, value):
        with open(path, "w", encoding="utf-8") as handle:
            for workload in WORKLOADS:
                metrics = {m["name"]: {"value": value, "unit": m["unit"]}
                           for m in SPEC["end_to_end"]}
                handle.write(json.dumps({"workload": workload, "traced": False,
                                         "metrics": metrics}) + "\n")

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write(a, 10.0)
    write(b, 10.0)
    assert report(str(a), str(b), SPEC) == 0
    write(b, 20.0)  # twice as slow and twice as fast: some metric must be worse
    assert report(str(a), str(b), SPEC) == 1
    assert "worse" in capsys.readouterr().out
