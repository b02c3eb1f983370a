"""Smoke test of the benchmark at toy size (one job of each kind).

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--jobs", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 4
    return result


def test_untraced_run_reports_every_end_to_end_metric():
    result = run("operators-twists", 5, 0)
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_nests_and_repeats_its_counts():
    first = run("group-laws", 4, 1)
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    passes = json.loads((ROOT / ".bench_work" / "group-laws" / "trace.json").read_text())
    for jobs in passes:
        for job in jobs:
            spans = job["spans"]
            assert spans and spans[0][1] == -1
            for i, (name, parent, start, end, _attrs) in enumerate(spans):
                assert start <= end, name
                if parent >= 0:
                    assert parent < i
                    assert spans[parent][2] <= start and end <= spans[parent][3], name
    second = run("group-laws", 4, 1)
    for m in BENCHMARK["per_layer"]:
        if m["unit"] in ("count", "bytes", "ratio"):
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]
