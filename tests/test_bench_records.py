"""The benchmark records at the repository root.

``tools/record_bench.py`` appends one entry per checkout and label to
``BENCH_<workload>.json``.  Each file parses, names a workload of
``BENCHMARK.json``, and each of its entries carries every end-to-end metric
that ``BENCHMARK.json`` names, finite, for every run and as the median over
its runs.
"""

import json
import math
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = [m["name"] for m in SPEC["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_a_record_carries_every_end_to_end_metric(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert path.name == f"BENCH_{record['workload']}.json"
    assert record["workload"] in {w["name"] for w in SPEC["workloads"]}
    assert record["entries"]
    for entry in record["entries"]:
        assert len(entry["src_sha256"]) == 64 and len(entry["commit"]) == 40
        assert entry["python"] and entry["numpy"] and entry["label"]
        assert [run["seed"] for run in entry["runs"]] == entry["seeds"] != []
        for run in entry["runs"]:
            assert all(math.isfinite(run["metrics"][name]) for name in METRICS), run
        for name in METRICS:
            values = [run["metrics"][name] for run in entry["runs"]]
            assert entry["medians"][name] == statistics.median(values), name
