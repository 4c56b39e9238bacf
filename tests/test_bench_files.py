"""The committed benchmark records (BENCH_*.json at the repository root) are well formed.

Each holds result lines of `python3 benchmark/run.py --workload all`, under
"runs", each run's line as its "result". A record must parse, every result
must say correct: true, and every metric key must be <workload>/<metric>
with both names declared in BENCHMARK.json.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def declared_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in bench["workloads"]}
    metrics = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    return workloads, metrics


def test_some_record_committed():
    assert BENCH_FILES, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_record_well_formed(path):
    record = json.loads(path.read_text())
    workloads, metrics = declared_names()
    assert record["runs"], f"{path.name} holds no runs"
    for run in record["runs"]:
        result = run["result"]
        assert result["correct"] is True, f"{path.name}: a {run.get('side')} run is not correct"
        assert result["metrics"]
        for key in result["metrics"]:
            workload, _, metric = key.partition("/")
            assert workload in workloads and metric in metrics, f"{path.name}: metric key {key!r}"
