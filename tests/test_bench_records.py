"""The benchmark records at the repository root.

``tools/record_bench.py`` appends one entry per checkout and label to
``BENCH_<workload>.json``.  Each file parses, names a workload of
``BENCHMARK.json``, and each of its entries carries every end-to-end metric
that ``BENCHMARK.json`` names, finite, for every run and as the median over
its runs.  An entry that records the bytecode cache its runs started with
records both of its fields, as booleans.
"""

import json
import math
import os
import py_compile
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import record_bench  # noqa: E402
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
        cache = [entry.get(key) for key in ("dont_write_bytecode", "bytecode_current")]
        assert cache == [None, None] or all(type(v) is bool for v in cache), cache


def test_bytecode_is_current_only_while_every_module_has_a_matching_cache_entry(tmp_path):
    package = tmp_path / "src" / "oqwalk"
    package.mkdir(parents=True)
    for name in ("__init__", "cli", "__main__"):
        (package / f"{name}.py").write_text(f"NAME = {name!r}\n", encoding="utf-8")
    assert not record_bench.bytecode_current(tmp_path)
    for name in ("__init__", "cli"):  # ``python -m oqwalk`` alone compiles __main__
        py_compile.compile(str(package / f"{name}.py"), doraise=True,
                           invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)
    assert record_bench.bytecode_current(tmp_path)
    stat = (package / "cli.py").stat()
    os.utime(package / "cli.py", ns=(stat.st_atime_ns, stat.st_mtime_ns + 2 * 10**9))
    assert not record_bench.bytecode_current(tmp_path)
