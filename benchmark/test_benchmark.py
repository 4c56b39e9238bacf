"""Tests of the benchmark itself: metric names, self-time arithmetic, the gate.

Run from the repository root:  python3 -m pytest -q benchmark
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCH["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCH["per_layer"]]


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, wanted", [("0", END_TO_END), ("1", PER_LAYER)])
def test_printed_metric_names_match_benchmark_json(trace, wanted):
    lines = _run("--workload", "sandwich", "--seed", "3", "--seconds", "0.5", "--trace", trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == wanted
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric == {"value": metric["value"], "unit": units[name]}
    table = [line.split()[0] for line in lines[:-1] if line.startswith("  ")]
    assert table and set(table) <= set(units)
    assert any(line.startswith("env: ") for line in lines)
    assert result["correct"] and result["failed"] == 0


def test_layer_map_names_exist():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    names = set(END_TO_END) | set(PER_LAYER)
    workload_names = {w["name"] for w in BENCH["workloads"]}
    mapped = set()
    for row in layer_map["map"]:
        assert row["end_to_end"] in names and row["workload"] in workload_names
        assert set(row["per_layer"]) <= set(PER_LAYER)
        mapped |= set(row["per_layer"])
    for name, row in layer_map["workload_outputs"].items():
        assert name in PER_LAYER and row["workload"] in workload_names
        mapped.add(name)
    assert mapped == set(PER_LAYER)


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children [1, 3] and [2, 4] (overlapping: 3 s covered)
    # and [5, 6]; [1.5, 2.5] is a grandchild and must not reduce the root.
    spans = [
        ["root", 0.0, 10.0, -1, 7],
        ["a", 1.0, 3.0, 0, 7],
        ["b", 2.0, 4.0, 0, 7],
        ["c", 5.0, 6.0, 0, 7],
        ["a.child", 1.5, 2.5, 1, 7],
        ["other", 11.0, 12.0, -1, 8],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0, 1.0, 1.0])
    assert tracing.self_by_name(spans)["root"] == pytest.approx(6.0)
    # overlapping siblings cannot happen on one thread; if they did, the
    # self times would count the overlap twice and the check would show it
    assert tracing.accounted_frac(spans, {"root"}) == pytest.approx(11.0 / 10.0)
    nested = [["root", 0.0, 10.0, -1, 7], ["a", 1.0, 3.0, 0, 7],
              ["a.child", 1.5, 2.5, 1, 7], ["c", 5.0, 6.0, 0, 7]]
    assert tracing.self_times(nested) == pytest.approx([7.0, 1.0, 1.0, 1.0])
    assert tracing.accounted_frac(nested, {"root"}) == pytest.approx(1.0)
    assert tracing.accounted_frac(nested, {"missing"}) == 0.0


def test_tracer_patches_every_binding_and_restores_them():
    def work(x):
        return helper(x) + 1

    def helper(x):
        return 2 * x

    mod = types.SimpleNamespace(work=work, helper=helper)
    other = types.SimpleNamespace(helper=helper)
    with tracing.Tracer().install([
        ("m.work", [mod], "work", "span", None),
        ("m.helper", [mod, other], "helper", "count", None),
    ]) as tracer:
        assert mod.work(3) == 7 and other.helper(1) == 2
    assert mod.work is work and mod.helper is helper and other.helper is helper
    assert [s[0] for s in tracer.spans] == ["m.work"]
    assert tracer.counts["m.work.calls"] == 1 and tracer.counts["m.helper.calls"] == 1


def _spec(n=4, k=2):
    return types.SimpleNamespace(n=n, k=k, A=np.eye(n), mu=np.zeros(n), tau=1.0)


def test_gate_flags_an_infeasible_portfolio():
    spec = _spec()
    good = np.array([0.5, 0.5, 0.0, 0.0])
    assert gate.portfolio_faults(spec, good, 0.5, 0.0) == []
    dense = np.full(4, 0.25)
    assert any("nonzeros" in f for f in gate.portfolio_faults(spec, dense, 0.25, 0.0))
    negative = np.array([1.5, -0.5, 0.0, 0.0])
    assert any("negative" in f for f in gate.portfolio_faults(spec, negative, 2.5, 0.0))
    short = np.array([0.5, 0.4, 0.0, 0.0])
    assert any("e'x" in f for f in gate.portfolio_faults(spec, short, 0.41, 0.0))
    assert any("KKT" in f for f in gate.portfolio_faults(spec, good, 0.5, 1e-6))
    assert any("KKT" in f for f in gate.portfolio_faults(spec, good, 0.5, float("nan")))
    assert any("objective" in f for f in gate.portfolio_faults(spec, good, 0.4, 0.0))
    assert gate.sandwich_faults(-1.0, {"pd": -1.0, "padm": -0.5}) == []
    assert len(gate.sandwich_faults(-0.5, {"pd": -1.0})) == 1


def test_recorder_counts_gate_failures_and_raises():
    spec = _spec()
    rec = workloads.Recorder()
    bad = types.SimpleNamespace(weights=np.full(4, 0.25), objective=0.25,
                                kkt_residual=0.0)
    assert rec.call("pd", spec, lambda: bad) is bad

    def boom():
        raise RuntimeError("solver crashed")

    assert rec.call("padm", spec, boom) is None
    with pytest.raises(RuntimeError):
        rec.call("pd", spec, boom, reraise=True)
    rec.fail_outside_call("backtest", "out-of-sample Sharpe ratio undefined")
    assert rec.attempted == 4 and rec.failed == 4
    assert [solver for solver, _item, _reasons in rec.faults.values()] == [
        "pd", "padm", "pd", "backtest"]


def test_exits_nonzero_without_a_result_outside_a_checkout(tmp_path):
    (tmp_path / "benchmark").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "benchmark" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "scale",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
