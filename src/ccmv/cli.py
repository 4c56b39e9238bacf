"""Command-line entry point: solve, backtest, compare."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from .backtest import BacktestConfig, gap, in_sample_stats, rolling_horizon
from .errors import BadDimension, CcmvError, TooLarge
from .model import (
    ProblemSpec,
    Solution,
    SolverConfig,
    STATUS_CONVERGED,
    estimate_moments,
)
from .oracle import brute_force_solve
from .padm import ccmv_padm_solve
from .pd import ccmv_pd_solve
from .serialize import (
    read_problem_json,
    read_returns_csv,
    read_solution_json,
    report_to_dict,
    solution_to_json,
    write_rows_csv,
    write_trace_csv,
    write_weights_csv,
)

log = logging.getLogger("ccmv")

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_ITERATION_CAPPED = 2

# tau when neither --tau nor a spec file gives one
DEFAULT_TAU = 0.5


def _solver_config(args) -> SolverConfig:
    return SolverConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(SolverConfig)})


def _oracle_solve(spec: ProblemSpec, _cfg: SolverConfig) -> Solution:
    return brute_force_solve(spec).to_solution()


# Every solver a command can name: name -> (spec, cfg) -> Solution.
SOLVERS = {"pd": ccmv_pd_solve, "padm": ccmv_padm_solve, "oracle": _oracle_solve}


def _load_spec(args, k: int | None) -> ProblemSpec:
    if args.spec:
        return read_problem_json(args.spec, tau=args.tau, k=k)
    if args.returns:
        returns = read_returns_csv(args.returns)
        if k is None:
            raise CcmvError("--k is required with --returns")
        est = estimate_moments(returns)
        tau = DEFAULT_TAU if args.tau is None else args.tau
        return ProblemSpec(cov=est.cov, mu=est.mu, tau=tau, k=k)
    raise CcmvError("one of --spec or --returns is required")


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
        log.info("wrote %s", args.out)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    spec = _load_spec(args, args.k)
    sol = SOLVERS[args.solver](spec, _solver_config(args))
    _emit(args, solution_to_json(sol))
    if args.emit == "csv" and args.out:
        write_trace_csv(Path(args.out).with_suffix(".trace.csv"), sol)
    return EXIT_OK if sol.status == STATUS_CONVERGED else EXIT_ITERATION_CAPPED


def cmd_backtest(args) -> int:
    if not args.returns:
        raise CcmvError("--returns is required for backtest")
    if args.k is None:
        raise CcmvError("--k is required for backtest")
    returns = read_returns_csv(args.returns)
    cfg = BacktestConfig(window=args.window, tau=args.tau, k=args.k,
                         solver_cfg=_solver_config(args))
    report = rolling_horizon(returns, cfg, solve_fn=SOLVERS[args.solver])
    _emit(args, json.dumps(report_to_dict(report), indent=2) + "\n")
    if args.emit == "csv" and args.out:
        write_weights_csv(Path(args.out).with_suffix(".weights.csv"),
                          report.weights_by_window, returns.tickers)
    return EXIT_OK


def _stats_row(spec: ProblemSpec, sol: Solution) -> dict:
    ret, risk, sharpe = in_sample_stats(spec, sol.weights)
    return {
        "solver": sol.solver,
        "k": spec.k,
        "return": ret,
        "risk": risk,
        "sharpe": sharpe,
        "objective": sol.objective,
        "time": sol.wall_time,
        "status": sol.status,
    }


def cmd_compare(args) -> int:
    ks = args.k_sweep or ([args.k] if args.k is not None else None)
    if ks is None:
        raise CcmvError("--k or --k-sweep is required for compare")
    # every sweep point sets its own k; ks[0] only lets a --returns load go through
    base_spec = _load_spec(args, ks[0])

    reference_sol = None
    if args.reference_file:
        reference_sol = read_solution_json(args.reference_file)
        if len(reference_sol.weights) != base_spec.n:
            raise BadDimension(f"{args.reference_file}: {len(reference_sol.weights)} weights "
                               f"for an instance of {base_spec.n} assets")
    reference = args.reference or "pd"
    listed = list(dict.fromkeys(args.solvers))  # each once, in the order given
    # the gaps need the reference solver's result even when it has no row of its own
    names = listed + ([reference] if reference_sol is None and reference not in listed else [])

    rows = []
    for k in ks:
        spec = dataclasses.replace(base_spec, k=k)  # keeps a factor form as it is
        per_solver: dict[str, dict] = {}
        skipped: dict[str, str] = {}
        for solver in names:
            try:
                sol = SOLVERS[solver](spec, _solver_config(args))
            except TooLarge as exc:
                skipped[solver] = str(exc)
                continue
            per_solver[solver] = _stats_row(spec, sol)
        if reference_sol is not None:
            ref = _stats_row(spec, reference_sol)
        elif reference in skipped:
            raise CcmvError(f"reference solver {reference} cannot solve k={k}: {skipped[reference]}")
        else:
            ref = per_solver[reference]
        for solver in listed:
            if solver in skipped:
                rows.append({"solver": solver, "k": k, "skipped": skipped[solver]})
                continue
            row = per_solver[solver]
            row["return_gap"] = gap(row["return"], ref["return"])
            row["risk_gap"] = gap(row["risk"], ref["risk"])
            row["sharpe_gap"] = gap(row["sharpe"], ref["sharpe"])
            rows.append(row)

    _emit(args, json.dumps(rows, indent=2) + "\n")
    if args.emit == "csv" and args.out:
        write_rows_csv(Path(args.out).with_suffix(".csv"), rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ccmv",
                                     description="Cardinality-constrained mean-variance portfolio tools")
    sub = parser.add_subparsers(dest="command", required=True)

    flags = {
        "--spec": {"help": "ProblemSpec JSON path"},
        "--returns": {"help": "returns CSV path"},
        "--solver": {"choices": list(SOLVERS), "default": "pd"},
        "--emit": {"choices": ["json", "csv"], "default": "json"},
    }

    def command(name, summary, *extra, tau):
        """A subcommand with the flags every command reads plus the named extra ones."""
        # allow_abbrev=False: no flag may be a prefix-match of another (--solver of --solvers)
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag in extra:
            p.add_argument(flag, **flags[flag])
        p.add_argument("--k", type=int, default=None, help="cardinality bound")
        p.add_argument("--tau", type=float, default=tau, help="risk/return trade-off")
        for f in dataclasses.fields(SolverConfig):  # --rho0 ... --max-outer, SolverConfig's defaults
            p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=f.default)
        p.add_argument("--out", help="output path (stdout if omitted)")
        return p

    # solve and compare take tau from the spec file unless --tau is given
    p_solve = command("solve", "solve one instance",
                      "--spec", "--returns", "--solver", "--emit", tau=None)
    p_solve.set_defaults(func=cmd_solve)

    p_back = command("backtest", "rolling-horizon backtest on a returns CSV",
                     "--returns", "--solver", "--emit", tau=DEFAULT_TAU)
    p_back.add_argument("--window", type=int, default=48, help="estimation window length")
    p_back.set_defaults(func=cmd_backtest)

    p_cmp = command("compare", "solver-vs-solver table with gap columns",
                    "--spec", "--returns", "--emit", tau=None)
    p_cmp.add_argument("--solvers", nargs="+", default=["pd", "padm"], choices=list(SOLVERS))
    reference = p_cmp.add_mutually_exclusive_group()
    # default None, not "pd": argparse sees a conflict only for a value that is not the default
    reference.add_argument("--reference", choices=list(SOLVERS),
                           help="solver whose row is the gap reference (default: pd)")
    reference.add_argument("--reference-file", dest="reference_file",
                           help="external Solution JSON used as the gap reference")
    p_cmp.add_argument("--k-sweep", dest="k_sweep", type=int, nargs="+")
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("CCMV_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CcmvError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
