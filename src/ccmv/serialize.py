"""File formats: returns CSV, problem JSON, solution JSON, trace/report CSV."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

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


def read_problem_json(path: str | Path, tau=None, k=None) -> ProblemSpec:
    """Parse {"A": [[...]], "mu": [...], "tau": t, "k": k}; tau/k overridable."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise BadData(f"{path}: invalid JSON ({exc})") from None
    for key in ("A", "mu"):
        if key not in raw:
            raise BadData(f"{path}: missing key {key!r}")
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


def solution_to_json(sol: Solution) -> str:
    return json.dumps(sol.to_dict(), indent=2) + "\n"


def solution_from_dict(raw: dict) -> Solution:
    kkt = None
    if raw.get("kkt") is not None:
        rk = raw["kkt"]
        kkt = KktCertificate(
            beta=rk["beta"],
            lam=np.zeros(len(raw["weights"])),
            support=tuple(raw["support"]),
            stationarity_residual=rk["stationarity"],
            complementarity_residual=rk["complementarity"],
            dual_feasibility_violation=rk["dual_violation"],
        )
    trace = [OuterRecord(rho=r["rho"], inner_iters=r["inner_iters"],
                         q=r["q"], infeas=r["infeas"], note=r.get("note", ""),
                         jumps=int(r.get("jumps", 0)),
                         solve_steps=int(r.get("solve_steps", 0)))
             for r in raw.get("trace", [])]
    return Solution(
        weights=np.array(raw["weights"], dtype=float),
        support=tuple(raw["support"]),
        objective=float(raw["objective"]),
        kkt=kkt,
        status=raw["status"],
        trace=trace,
        solver=raw.get("solver", ""),
        safeguard_resets=int(raw.get("safeguard_resets", 0)),
        wall_time=float(raw.get("wall_time", 0.0)),
        upsilon=float("nan") if raw.get("upsilon") is None else float(raw["upsilon"]),
    )


def read_solution_json(path: str | Path) -> Solution:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise BadData(f"{path}: invalid JSON ({exc})") from None
    return solution_from_dict(raw)


def write_trace_csv(path: str | Path, sol: Solution) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["rho", "inner_iters", "q", "infeas", "note", "jumps", "solve_steps"])
        for rec in sol.trace:
            writer.writerow([rec.rho, rec.inner_iters, rec.q, rec.infeas, rec.note, rec.jumps,
                             rec.solve_steps])


def write_weights_csv(path: str | Path, weights_by_window, tickers) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", *tickers])
        for i, w in enumerate(weights_by_window):
            writer.writerow([i, *(float(v) for v in w)])
