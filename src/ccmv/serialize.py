"""Every file format: returns CSV, problem, Solution and backtest report JSON, and CSV sidecars."""

from __future__ import annotations

import csv
import json
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np

from .backtest import BacktestReport
from .errors import BadData
from .model import (
    KktCertificate,
    OuterRecord,
    ProblemSpec,
    ReturnsMatrix,
    Solution,
)


def read_returns_csv(path: str | Path) -> ReturnsMatrix:
    """Strict parse of 'date,TICKER1,...,TICKERn' rows of decimal returns."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise BadData(f"{path}: empty file") from None
        if len(header) < 2 or header[0].strip().lower() != "date":
            raise BadData(f"{path}: header must be 'date,TICKER1,...', got {header!r}")
        tickers = tuple(h.strip() for h in header[1:])
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(tickers) + 1:
                raise BadData(f"{path}:{lineno}: expected {len(tickers) + 1} cells, got {len(row)}")
            values = []
            for col, cell in zip(tickers, row[1:]):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise BadData(f"{path}:{lineno}: non-numeric cell {cell!r} in column {col}") from None
            rows.append(values)
    return ReturnsMatrix(np.array(rows, dtype=float), tickers)


def write_returns_csv(path: str | Path, returns: ReturnsMatrix) -> None:
    """Write the returns with the period index 0000, 0001, ... in the date column."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *returns.tickers])
        for t, row in enumerate(returns.values):
            writer.writerow([f"{t:04d}", *(repr(float(v)) for v in row)])


def _load_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise BadData(f"{path}: invalid JSON ({exc})") from None


def _checked(raw, keys, where: str) -> dict:
    """raw, once it is known to be a JSON object holding every one of keys."""
    if not isinstance(raw, dict):
        raise BadData(f"{where}: expected a JSON object, got {type(raw).__name__}")
    for key in keys:
        if key not in raw:
            raise BadData(f"{where}: missing key {key!r}")
    return raw


def read_problem_json(path: str | Path, tau=None, k=None) -> ProblemSpec:
    """Parse {"A": [[...]], "mu": [...], "tau": t, "k": k}; tau/k overridable."""
    raw = _checked(_load_json(path), ("A", "mu"), str(path))
    tau = raw.get("tau") if tau is None else tau
    k = raw.get("k") if k is None else k
    if tau is None or k is None:
        raise BadData(f"{path}: tau and k must come from the file or the command line")
    return ProblemSpec(A=np.array(raw["A"], dtype=float),
                       mu=np.array(raw["mu"], dtype=float), tau=tau, k=k)


def write_problem_json(path: str | Path, spec: ProblemSpec) -> None:
    payload = {
        "A": [[float(v) for v in row] for row in spec.A],
        "mu": [float(v) for v in spec.mu],
        "tau": spec.tau,
        "k": spec.k,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


# KktCertificate field -> its key in the Solution JSON, for writing and reading
KKT_KEYS = {"beta": "beta", "stationarity_residual": "stationarity",
            "dual_feasibility_violation": "dual_violation",
            "complementarity_residual": "complementarity"}

# OuterRecord's fields, in order, are the trace-CSV columns and a trace level's JSON
# keys; a field without a default is always written, any other only when it differs from it
TRACE_FIELDS = fields(OuterRecord)


def solution_to_dict(sol: Solution) -> dict:
    """The Solution JSON object; a NaN upsilon is written as null."""
    d = {
        "weights": [float(w) for w in sol.weights],
        "support": [int(i) for i in sol.support],
        "objective": float(sol.objective),
        "kkt": None if sol.kkt is None else {key: getattr(sol.kkt, name)
                                             for name, key in KKT_KEYS.items()},
        "status": sol.status,
        "trace": [{f.name: getattr(r, f.name) for f in TRACE_FIELDS
                   if f.default is MISSING or getattr(r, f.name) != f.default} for r in sol.trace],
        "solver": sol.solver,
        "wall_time": float(sol.wall_time),
        "upsilon": None if np.isnan(sol.upsilon) else float(sol.upsilon),
    }
    if sol.safeguard_resets:
        d["safeguard_resets"] = sol.safeguard_resets
    return d


def solution_to_json(sol: Solution) -> str:
    return json.dumps(solution_to_dict(sol), indent=2) + "\n"


def solution_from_dict(raw: dict) -> Solution:
    """Inverse of solution_to_dict; the KKT multipliers lam are not written and read back as zeros."""
    raw = _checked(raw, ("weights", "support", "objective", "status"), "solution")
    kkt = None
    if raw.get("kkt") is not None:
        rk = _checked(raw["kkt"], KKT_KEYS.values(), "kkt")
        kkt = KktCertificate(lam=np.zeros(len(raw["weights"])), support=tuple(raw["support"]),
                             **{name: rk[key] for name, key in KKT_KEYS.items()})
    required = [f.name for f in TRACE_FIELDS if f.default is MISSING]
    levels = [_checked(r, required, f"trace level {j}") for j, r in enumerate(raw.get("trace", []))]
    return Solution(
        weights=np.array(raw["weights"], dtype=float),
        support=tuple(raw["support"]),
        objective=float(raw["objective"]),
        kkt=kkt,
        status=raw["status"],
        trace=[OuterRecord(**{f.name: r[f.name] for f in TRACE_FIELDS if f.name in r}) for r in levels],
        solver=raw.get("solver", ""),
        safeguard_resets=int(raw.get("safeguard_resets", 0)),
        wall_time=float(raw.get("wall_time", 0.0)),
        upsilon=float("nan") if raw.get("upsilon") is None else float(raw["upsilon"]),
    )


def read_solution_json(path: str | Path) -> Solution:
    raw = _load_json(path)
    try:
        return solution_from_dict(raw)
    except BadData as exc:
        raise BadData(f"{path}: {exc}") from None


def write_trace_csv(path: str | Path, sol: Solution) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in TRACE_FIELDS])
        for rec in sol.trace:
            writer.writerow([getattr(rec, f.name) for f in TRACE_FIELDS])


def write_rows_csv(path: str | Path, rows: list[dict]) -> None:
    """One column per key in the order keys first appear; a row without a key leaves its cell empty."""
    columns = list(dict.fromkeys(key for row in rows for key in row))
    with Path(path).open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def report_to_dict(report: BacktestReport) -> dict:
    ret, risk, sr = report.in_sample
    d = {
        "weights_by_window": [[float(w) for w in x] for x in report.weights_by_window],
        "oos_returns": [float(r) for r in report.oos_returns],
        "mu_hat": report.mu_hat,
        "sigma_hat": report.sigma_hat,
        "sharpe_hat": report.sharpe_hat,
        "in_sample": {"return": ret, "risk": risk, "sharpe": sr},
        "failed_windows": report.failed_windows,
    }
    if report.failed_reasons:
        d["failed_reasons"] = {str(t): r for t, r in report.failed_reasons.items()}
    return d


def write_weights_csv(path: str | Path, weights_by_window, tickers) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", *tickers])
        for i, w in enumerate(weights_by_window):
            writer.writerow([i, *(float(v) for v in w)])
