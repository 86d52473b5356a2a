"""The BENCH_*.json records at the repo root stay well formed.

Each workload that BENCHMARK.json declares has one record file naming that
workload.  Its entries are in strictly increasing change order, each names
its commit, its parent and its number of pairs and quotes every end-to-end
metric (null where none was quoted); only the last entry, the change that
adds it, may leave its own commit null.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = [metric["name"] for metric in BENCHMARK["end_to_end"]]
COMMIT = re.compile(r"[0-9a-f]{7,40}")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_bench_file_is_well_formed(workload):
    doc = json.loads((ROOT / f"BENCH_{workload}.json").read_text(encoding="utf-8"))
    assert doc["workload"] == workload
    entries = doc["entries"]
    assert entries
    for entry in entries:
        assert {"pr", "commit", "parent", "pairs"} <= set(entry)
        assert isinstance(entry["pr"], int) and isinstance(entry["pairs"], int)
        assert COMMIT.fullmatch(entry["parent"])
        assert set(METRICS) <= set(entry["metrics"])
    numbers = [entry["pr"] for entry in entries]
    assert all(a < b for a, b in zip(numbers, numbers[1:]))
    assert all(COMMIT.fullmatch(entry["commit"] or "") for entry in entries[:-1])
    assert entries[-1]["commit"] is None or COMMIT.fullmatch(entries[-1]["commit"])
