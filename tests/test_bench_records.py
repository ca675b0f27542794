"""Every ``BENCH_*.json`` at the repository root is a complete benchmark
record: parent and change quartiles of each end-to-end metric that
``BENCHMARK.json`` names, on each workload it lists, with the claim and the
host it was measured on."""

import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
METRICS = [m["name"] for m in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_is_complete(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    claimed = record["claimed"]
    assert claimed is None or (claimed["workload"] in WORKLOADS and claimed["metric"] in METRICS)
    assert isinstance(record["nproc"], int) and record["nproc"] >= 1
    for package in ("python", "numpy", "scipy"):
        assert isinstance(record[package], str) and record[package]
    for workload in WORKLOADS:
        entry = record["workloads"][workload]
        assert entry["pairs"] == len(entry["seeds"]) >= 1
        for metric in METRICS:
            for side in ("parent", "change"):
                q = entry["metrics"][metric][side]
                values = [q["q1"], q["median"], q["q3"]]
                assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values), (workload, metric)
                assert values == sorted(values), (workload, metric, side)
