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


# a scalar field's type name (as dataclass fields give it) -> its Python type, the
# JSON values it accepts and their name; a bool is never a number
_SCALARS = {"float": (float, (int, float), "a number"), "int": (int, (int,), "an integer"),
            "str": (str, (str,), "a string")}


def _scalar(raw: dict, key: str, kind: str, where: str):
    """raw[key] as the type named kind; BadData naming the key when the JSON value is not of it."""
    value = raw[key]
    convert, accepted, name = _SCALARS[kind]
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise BadData(f"{where}: {key!r} must be {name}, got {value!r:.40}")
    return convert(value)


def _array(raw: dict, key: str, where: str, ndim: int, kinds: str = "iuf") -> np.ndarray:
    """raw[key] as an ndim-dimensional array of JSON numbers (integers only for kinds="iu")."""
    try:
        a = np.array(raw[key])
    except ValueError:  # ragged nesting
        a = None
    if a is None or a.ndim != ndim or (a.size and a.dtype.kind not in kinds):
        what = "integers" if kinds == "iu" else "numbers"
        raise BadData(f"{where}: {key!r} must be a {ndim}-dimensional array of {what}, "
                      f"got {raw[key]!r:.40}")
    return a


def read_problem_json(path: str | Path, tau=None, k=None) -> ProblemSpec:
    """Parse a problem: {"A": [[...]], "mu": [...], "tau": t, "k": k}, tau/k overridable.

    In place of "A" the file may give the factor form {"G": [[...]], "d": [...]},
    A = G G' + diag(d) with G n x m and d >= 0; exactly one of the two forms.
    A value of the wrong type or shape is BadData naming its key.
    """
    where = str(path)
    raw = _checked(_load_json(path), ("mu",), where)
    factor = "G" in raw or "d" in raw
    if factor == ("A" in raw):
        raise BadData(f"{where}: give either 'A' or 'G' and 'd'")
    mu = _array(raw, "mu", where, 1)
    n = mu.size
    if factor:
        _checked(raw, ("G", "d"), where)
        G, d = _array(raw, "G", where, 2), _array(raw, "d", where, 1)
        if G.shape[0] != n or G.shape[1] < 1:
            raise BadData(f"{where}: 'G' must be {n} x m with m >= 1, got shape {G.shape}")
        if d.size != n:
            raise BadData(f"{where}: 'd' must have length {n}, got {d.size}")
        if d.size and d.min() < 0:
            raise BadData(f"{where}: 'd' must be >= 0, got {d.min()!r}")
        cov = {"G": G, "d": d}
    else:
        A = _array(raw, "A", where, 2)
        if A.shape != (n, n):
            raise BadData(f"{where}: 'A' must be {n} x {n}, got shape {A.shape}")
        cov = {"A": A}
    if tau is None and raw.get("tau") is not None:
        tau = _scalar(raw, "tau", "float", where)
    if k is None and raw.get("k") is not None:
        k = _scalar(raw, "k", "int", where)
    if tau is None or k is None:
        raise BadData(f"{where}: tau and k must come from the file or the command line")
    return ProblemSpec(mu=mu, tau=tau, k=k, **cov)


def write_problem_json(path: str | Path, spec: ProblemSpec) -> None:
    """The problem JSON: G and d for a factor-form spec, else A."""
    if spec.G is None:
        payload = {"A": [[float(v) for v in row] for row in spec.A]}
    else:
        payload = {"G": [[float(v) for v in row] for row in spec.G], "d": [float(v) for v in spec.d]}
    payload.update({"mu": [float(v) for v in spec.mu], "tau": spec.tau, "k": spec.k})
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
    """Inverse of solution_to_dict; the KKT multipliers lam are not written and read back as zeros.

    A missing key, or a value of the wrong type or shape, is BadData naming it.
    """
    raw = _checked(raw, ("weights", "support", "objective", "status"), "solution")
    weights = _array(raw, "weights", "solution", 1).astype(float)
    support = tuple(int(i) for i in _array(raw, "support", "solution", 1, kinds="iu"))
    kkt = None
    if raw.get("kkt") is not None:
        rk = _checked(raw["kkt"], KKT_KEYS.values(), "kkt")
        kkt = KktCertificate(lam=np.zeros(weights.size), support=support,
                             **{name: _scalar(rk, key, "float", "kkt") for name, key in KKT_KEYS.items()})
    trace = raw.get("trace", [])
    if not isinstance(trace, list):
        raise BadData(f"solution: 'trace' must be a list, got {trace!r:.40}")
    required = [f.name for f in TRACE_FIELDS if f.default is MISSING]
    levels = []
    for j, r in enumerate(trace):
        where = f"trace level {j}"
        r = _checked(r, required, where)
        # f.type is the annotation as a string: "float", "int" or "str"
        levels.append(OuterRecord(**{f.name: _scalar(r, f.name, f.type, where)
                                     for f in TRACE_FIELDS if f.name in r}))
    optional = {key: _scalar(raw, key, kind, "solution")
                for key, kind in (("solver", "str"), ("safeguard_resets", "int"), ("wall_time", "float"))
                if key in raw}
    upsilon = raw.get("upsilon")
    return Solution(
        weights=weights,
        support=support,
        objective=_scalar(raw, "objective", "float", "solution"),
        kkt=kkt,
        status=_scalar(raw, "status", "str", "solution"),
        trace=levels,
        upsilon=float("nan") if upsilon is None else _scalar(raw, "upsilon", "float", "solution"),
        **optional,
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
