#!/usr/bin/env python3
"""ccmv benchmark: one workload per process, a closed loop with one caller.

Run from the repository root (needs numpy and scipy; builds nothing):

    python3 benchmark/run.py --workload scale --seed 0 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 0 --seconds 20 --trace 1

With --trace 0 the last line of standard output is one JSON object holding
every end_to_end metric of BENCHMARK.json; with --trace 1 it holds every
per_layer metric. The lines before it give each metric with its unit and
sample count, every gate failure, the seed and the environment. The process
exits non-zero, printing no result, when the ccmv sources are not beside it.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".bench_out"

# One BLAS thread: at or below nproc on any machine, and a neighbour taking a
# core cannot stall a second thread inside a factorization.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# setup_s is the median of this many set-ups: the run's own and fresh processes.
SETUP_REPEATS = 3
# A 90th percentile needs ten samples beyond it.
P90_MIN_SAMPLES = 100
SOLVE_ROOTS = {"pd.ccmv_pd_solve", "padm.ccmv_padm_solve",
               "oracle.brute_force_solve", "backtest.rolling_horizon"}
NO_WAITS = ("no wait metrics: the program runs one process with one thread of control, "
            "so no layer waits on another")


def import_program():
    """Pin BLAS threads, then import ccmv from this checkout's sources only."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "ccmv" / "__init__.py").is_file():
        sys.exit(f"benchmark: no ccmv sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ccmv

    if Path(ccmv.__file__).resolve().parent != (SRC / "ccmv").resolve():
        sys.exit(f"benchmark: imported ccmv from {ccmv.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def trace_targets() -> list:
    """Public functions of each ccmv module, patched where their callers look them up."""
    import ccmv.backtest as backtest
    import ccmv.model as model
    import ccmv.oracle as oracle
    import ccmv.padm as padm
    import ccmv.pd as pd
    import ccmv.synthetic as synthetic
    import workloads

    def observe_pd(counts, args, kwargs, sol):
        counts["pd.inner_iters"] += sum(r.inner_iters for r in sol.trace)
        counts["pd.outer_levels"] += len(sol.trace)
        counts["pd.safeguard_resets"] += sol.safeguard_resets

    def observe_bcd(counts, args, kwargs, result):
        counts["pd.bcd_inner.capped"] += not result[4]

    def observe_polish(counts, args, kwargs, result):
        support = args[1] if len(args) > 1 else kwargs["support"]
        counts["pd.polish.patterns"] += 2 ** len(support) - 1  # computed, not counted

    def observe_oracle(counts, args, kwargs, result):
        spec = args[0] if args else kwargs["spec"]
        counts["oracle.supports_examined"] += result.supports_examined
        counts["oracle.patterns"] += math.comb(spec.n, spec.k) * (2 ** spec.k - 1)  # computed

    return [
        ("model.validate_problem", [pd, padm, oracle], "validate_problem", "span", None),
        ("model.max_eigenvalue", [pd, padm], "max_eigenvalue", "span", None),
        ("model.estimate_moments", [backtest], "estimate_moments", "span", None),
        ("model.objective_f", [model, pd, padm, oracle], "objective_f", "count", None),
        ("pd.ccmv_pd_solve", [pd], "ccmv_pd_solve", "span", observe_pd),
        ("pd.build_factorization", [pd], "build_factorization", "span", None),
        ("pd.dense_simplex_minimizer", [pd], "dense_simplex_minimizer", "span", None),
        ("pd.bcd_inner", [pd], "bcd_inner", "span", observe_bcd),
        ("pd.x_step", [pd], "x_step", "count", None),
        ("pd.polish_support", [pd, padm], "polish_support", "span", observe_polish),
        ("pd.kkt_check", [pd, padm], "kkt_check", "span", None),
        ("padm.ccmv_padm_solve", [padm], "ccmv_padm_solve", "span", None),
        ("padm.padm_x_step", [padm], "padm_x_step", "span", None),
        ("padm.padm_y_step", [padm], "padm_y_step", "span", None),
        ("oracle.brute_force_solve", [oracle], "brute_force_solve", "span", observe_oracle),
        ("oracle.restricted_qp_solve", [oracle], "restricted_qp_solve", "span", None),
        ("backtest.rolling_horizon", [backtest], "rolling_horizon", "span", None),
        ("synthetic.factor_model_instance", [synthetic], "factor_model_instance", "span", None),
        ("synthetic.monthly_returns", [workloads], "monthly_returns", "span", None),
    ]


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def workload_metrics(rec, failed: int, attempted: int) -> dict:
    """Metrics of one workload's outputs, as name -> (value, samples)."""
    import numpy as np

    pd_s = rec.seconds["pd"]
    p90 = float(np.percentile(pd_s, 90)) if len(pd_s) >= P90_MIN_SAMPLES else 0.0
    return {
        "pd_solve_s_p90": (p90, len(pd_s)),
        "padm_solve_s_p50": (_median(rec.seconds["padm"]), len(rec.seconds["padm"])),
        "oracle_solve_s_p50": (_median(rec.seconds["oracle"]), len(rec.seconds["oracle"])),
        "objective_mean": (_mean(rec.objectives), len(rec.objectives)),
        "oracle_gap_mean": (_mean(rec.gaps), len(rec.gaps)),
        "oos_sharpe": (_mean(rec.sharpes), len(rec.sharpes)),
        "fail_frac": (failed / attempted, attempted),
    }


def end_to_end_metrics(rec, wall: float, setups: list) -> dict:
    pd_s = rec.seconds["pd"]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "solves_per_s": (rec.attempted / wall, rec.attempted),
        "pd_solve_s_p50": (_median(pd_s), len(pd_s)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def layer_metrics(tracer, rec_traced, rec_plain, overhead: float, names: list) -> dict:
    """Per-layer metrics of the traced phase, per solver call (a window is one call)."""
    import tracing

    calls = rec_traced.attempted
    own = tracing.self_by_name(tracer.spans)
    counts = tracer.counts
    bcd_calls = counts["pd.bcd_inner.calls"]
    window_s = sum(rec_plain.seconds["pd"])
    special = {
        "synthetic.s": sum(v for k, v in own.items() if k.startswith("synthetic.")) / calls,
        "pd.capped_frac": counts["pd.bcd_inner.capped"] / bcd_calls if bcd_calls else 0.0,
        "backtest.solve_share": (window_s / rec_plain.rolling_seconds
                                 if rec_plain.rolling_seconds else 0.0),
        "trace.overhead_frac": overhead,
        "trace.accounted_frac": tracing.accounted_frac(tracer.spans, SOLVE_ROOTS),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = (special[name], calls)
        elif name.endswith(".s"):
            out[name] = (own.get(name[:-2], 0.0) / calls, calls)
        else:
            out[name] = (counts[name] / calls, calls)
    return out


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(f"== {title}")
    for name, (value, samples) in metrics.items():
        note = ""
        if name == "pd_solve_s_p90" and samples < P90_MIN_SAMPLES:
            note = f"  [not reported: {samples} PD calls < {P90_MIN_SAMPLES}]"
        elif samples == 0:
            note = "  [not measured on this workload]"
        print(f"  {name:<30} {value:>14.6g} {units[name]:<6} (n={samples}){note}")


def print_faults(recs) -> None:
    for phase, rec in recs.items():
        for call, (solver, item, reasons) in sorted(rec.faults.items()):
            for reason in reasons:
                print(f"FAIL {phase} call={call} item={item} solver={solver}: {reason}")


def run(args, bench: dict) -> int:
    import workloads

    warm = workloads.Recorder(item=workloads.WARMUP_ITEM)
    workloads.ITEMS[args.workload](warm, args.seed, workloads.WARMUP_ITEM)
    setup_own = time.perf_counter() - T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_own}))
        return 0

    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    print(f"workload: {args.workload}  seed: {args.seed}  seconds: {args.seconds}  "
          f"trace: {args.trace}  loop: closed, one caller")
    print("env: " + json.dumps(environment()))

    recs = {"warm-up": warm}
    if not args.trace:
        timed = recs["timed"] = workloads.Recorder()
        items, wall = workloads.run_items(args.workload, timed, args.seed, args.seconds)
        setups = [setup_own] + fresh_setups(args, SETUP_REPEATS - 1)
    else:
        plain = recs["untraced"] = workloads.Recorder()
        traced = recs["traced"] = workloads.Recorder()
        tracer, items, wall, wall_traced = run_paired(args, plain, traced)
        tracer.write(SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        overhead = wall_traced / wall - 1.0

    attempted = sum(r.attempted for r in recs.values())
    failed = sum(r.failed for r in recs.values())
    main_rec = recs["timed"] if not args.trace else recs["untraced"]
    per_workload = workload_metrics(main_rec, failed, attempted)
    if not args.trace:
        metrics = end_to_end_metrics(main_rec, wall, setups)
        print_table(f"end-to-end ({items} items in {wall:.2f} s)", metrics, units)
        print_table("workload outputs (reported under per_layer)", per_workload, units)
        wanted = [m["name"] for m in bench["end_to_end"]]
    else:
        wanted = [m["name"] for m in bench["per_layer"]]
        metrics = layer_metrics(tracer, traced, plain, overhead,
                                [n for n in wanted if n not in per_workload])
        metrics.update(per_workload)
        print_table(f"per layer, per solver call ({items} items traced; "
                    f"untraced {wall:.2f} s, traced {wall_traced:.2f} s)", metrics, units)
        print(NO_WAITS)
    print_faults(recs)
    if sorted(metrics) != sorted(wanted):
        sys.exit(f"benchmark: metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(wanted)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]} for name in wanted},
    }))
    return 0


def run_paired(args, plain, traced):
    """Run each item untraced, then traced, for `--seconds` in all.

    Pairing the two runs of an item keeps a slow spell of the machine from
    showing up as tracing overhead. Returns (tracer, items, untraced seconds,
    traced seconds).
    """
    import tracing
    import workloads

    item = workloads.ITEMS[args.workload]
    tracer, targets = tracing.Tracer(), trace_targets()
    wall = wall_traced = 0.0
    t0 = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - t0 < args.seconds:
        plain.item = traced.item = tracer.solve_id = i
        start = time.perf_counter()
        item(plain, args.seed, i)
        wall += time.perf_counter() - start
        with tracer.install(targets):
            start = time.perf_counter()
            item(traced, args.seed, i)
            wall_traced += time.perf_counter() - start
        i += 1
    return tracer, i, wall, wall_traced


def fresh_setups(args, count: int) -> list:
    """Set-up seconds of `count` fresh processes, run one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_all(args, bench: dict) -> int:
    """Each workload in its own process, in turn; then one combined result line."""
    results = {}
    for w in bench["workloads"]:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[w["name"]] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args, bench)
    import_program()
    return run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
