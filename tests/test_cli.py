import dataclasses
import json

import numpy as np
import pytest

from ccmv import ReturnsMatrix, SolverConfig, ccmv_pd_solve, cli, model
from ccmv.cli import EXIT_INPUT_ERROR, EXIT_ITERATION_CAPPED, EXIT_OK, main
from ccmv.serialize import write_problem_json, write_returns_csv
from ccmv.synthetic import factor_model_instance, random_psd_instance


def make_spec_file(tmp_path, n=5, k=2, seed=7):
    spec = random_psd_instance(n=n, k=k, seed=seed)
    path = tmp_path / "spec.json"
    write_problem_json(path, spec)
    return path, spec


def make_returns_file(tmp_path, T=12, n=4, seed=11):
    rng = np.random.default_rng(seed)
    rm = ReturnsMatrix(0.01 + 0.04 * rng.standard_normal((T, n)),
                       tuple(f"T{i}" for i in range(n)))
    path = tmp_path / "returns.csv"
    write_returns_csv(path, rm)
    return path


class TestSolve:
    def test_solve_to_file(self, tmp_path):
        spec_path, spec = make_spec_file(tmp_path)
        out = tmp_path / "sol.json"
        rc = main(["solve", "--spec", str(spec_path), "--out", str(out)])
        assert rc == EXIT_OK
        sol = json.loads(out.read_text())
        assert abs(sum(sol["weights"]) - 1.0) <= 1e-8
        assert len(sol["support"]) <= spec.k
        assert sol["status"] == "converged"

    def test_solve_stdout(self, tmp_path, capsys):
        spec_path, _ = make_spec_file(tmp_path)
        rc = main(["solve", "--spec", str(spec_path)])
        assert rc == EXIT_OK
        assert json.loads(capsys.readouterr().out)["solver"] == "pd"

    def test_solve_padm_and_oracle(self, tmp_path, capsys):
        spec_path, _ = make_spec_file(tmp_path)
        for solver in ("padm", "oracle"):
            rc = main(["solve", "--spec", str(spec_path), "--solver", solver])
            assert rc == EXIT_OK
            assert json.loads(capsys.readouterr().out)["solver"] == solver

    def test_solve_from_returns(self, tmp_path, capsys):
        returns = make_returns_file(tmp_path)
        rc = main(["solve", "--returns", str(returns), "--k", "2"])
        assert rc == EXIT_OK
        assert len(json.loads(capsys.readouterr().out)["support"]) <= 2

    def test_trace_csv_sidecar(self, tmp_path):
        spec_path, _ = make_spec_file(tmp_path)
        out = tmp_path / "sol.json"
        rc = main(["solve", "--spec", str(spec_path), "--out", str(out),
                   "--emit", "csv"])
        assert rc == EXIT_OK
        assert (tmp_path / "sol.trace.csv").exists()

    def test_tau_from_spec_file(self, tmp_path, capsys):
        # without --tau, the file's tau is the one solved
        spec = random_psd_instance(6, 2, tau=3.0, seed=1)
        path = tmp_path / "spec.json"
        write_problem_json(path, spec)
        assert main(["solve", "--spec", str(path)]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["objective"] == ccmv_pd_solve(spec).objective
        assert main(["solve", "--spec", str(path), "--tau", "0.5"]) == EXIT_OK
        objective = json.loads(capsys.readouterr().out)["objective"]
        assert objective == ccmv_pd_solve(random_psd_instance(6, 2, tau=0.5, seed=1)).objective

    def test_missing_input(self):
        assert main(["solve", "--k", "2"]) == EXIT_INPUT_ERROR

    def test_missing_file(self, tmp_path):
        assert main(["solve", "--spec", str(tmp_path / "nope.json")]) == EXIT_INPUT_ERROR

    def test_returns_without_k(self, tmp_path):
        returns = make_returns_file(tmp_path)
        assert main(["solve", "--returns", str(returns)]) == EXIT_INPUT_ERROR


class TestBacktest:
    def test_backtest_json(self, tmp_path):
        returns = make_returns_file(tmp_path)
        out = tmp_path / "report.json"
        rc = main(["backtest", "--returns", str(returns), "--k", "2",
                   "--window", "6", "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert len(report["oos_returns"]) == 6
        assert report["sigma_hat"] is None or report["sigma_hat"] >= 0.0

    def test_backtest_weights_csv(self, tmp_path):
        returns = make_returns_file(tmp_path)
        out = tmp_path / "report.json"
        rc = main(["backtest", "--returns", str(returns), "--k", "2",
                   "--window", "6", "--out", str(out), "--emit", "csv"])
        assert rc == EXIT_OK
        assert (tmp_path / "report.weights.csv").exists()

    def test_backtest_needs_returns(self):
        assert main(["backtest", "--k", "2"]) == EXIT_INPUT_ERROR

    def test_bad_window(self, tmp_path):
        returns = make_returns_file(tmp_path, T=5)
        rc = main(["backtest", "--returns", str(returns), "--k", "2",
                   "--window", "9"])
        assert rc == EXIT_INPUT_ERROR


class TestCompare:
    def test_pd_vs_padm_with_gaps(self, tmp_path, capsys):
        spec_path, _ = make_spec_file(tmp_path)
        rc = main(["compare", "--spec", str(spec_path), "--k", "2",
                   "--solvers", "pd", "padm", "--reference", "pd"])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        solvers = {r["solver"] for r in rows}
        assert solvers == {"pd", "padm"}
        for r in rows:
            assert "return_gap" in r and r["return_gap"] >= 0.0

    def test_k_sweep_keeps_the_factor_form(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "spec.json"
        write_problem_json(path, factor_model_instance(100, 2, seed=0))

        def forbidden(G, d):
            raise AssertionError("A formed from its factors")

        monkeypatch.setattr(model, "dense_covariance", forbidden)
        rc = main(["compare", "--spec", str(path), "--k-sweep", "2", "3", "--solvers", "pd", "padm"])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [(r["solver"], r["k"]) for r in rows] == [("pd", 2), ("padm", 2), ("pd", 3), ("padm", 3)]

    def test_k_sweep(self, tmp_path, capsys):
        spec_path, _ = make_spec_file(tmp_path)
        rc = main(["compare", "--spec", str(spec_path), "--k-sweep", "1", "2", "3",
                   "--solvers", "pd", "--reference", "pd"])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["k"] for r in rows] == [1, 2, 3]

    def test_oracle_reference(self, tmp_path, capsys):
        spec_path, _ = make_spec_file(tmp_path)
        rc = main(["compare", "--spec", str(spec_path), "--k", "2",
                   "--solvers", "pd", "oracle", "--reference", "oracle"])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        pd_row = next(r for r in rows if r["solver"] == "pd")
        assert pd_row["return_gap"] >= 0.0

    def test_oracle_row_reports_time(self, tmp_path, capsys):
        spec_path, _ = make_spec_file(tmp_path)
        rc = main(["compare", "--spec", str(spec_path), "--k", "2", "--solvers", "pd", "oracle"])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert {r["solver"]: r["time"] > 0.0 for r in rows} == {"pd": True, "oracle": True}

    @pytest.mark.parametrize("extra", [["--solvers", "pd", "--reference", "oracle"],
                                       ["--solvers", "padm"]],
                             ids=["oracle-reference-unlisted", "default-pd-reference-unlisted"])
    def test_unlisted_reference_still_gives_gaps(self, tmp_path, capsys, extra):
        # the reference is solved for the gaps but gets no row of its own
        spec_path, _ = make_spec_file(tmp_path)
        rc = main(["compare", "--spec", str(spec_path), "--k", "2", *extra])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert [r["solver"] for r in rows] == [extra[1]]
        assert {"return_gap", "risk_gap", "sharpe_gap"} <= set(rows[0])

    @pytest.mark.parametrize("solvers", [["pd"], ["pd", "oracle"]], ids=["unlisted", "listed"])
    def test_reference_too_large_is_input_error(self, tmp_path, capsys, solvers):
        # C(60, 10) supports exceed the oracle's budget
        spec_path, _ = make_spec_file(tmp_path, n=60, k=10)
        rc = main(["compare", "--spec", str(spec_path), "--k", "10",
                   "--solvers", *solvers, "--reference", "oracle"])
        assert rc == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reference solver oracle" in captured.err

    def test_reference_file(self, tmp_path, capsys):
        spec_path, _ = make_spec_file(tmp_path)
        ref = tmp_path / "ref.json"
        rc = main(["solve", "--spec", str(spec_path), "--out", str(ref)])
        assert rc == EXIT_OK
        rc = main(["compare", "--spec", str(spec_path), "--k", "2",
                   "--solvers", "pd", "--reference-file", str(ref)])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["return_gap"] == 0.0

    @staticmethod
    def _compare_with_reference(tmp_path, capsys, edit):
        """compare against the pd solution of the spec file after edit(raw JSON) -> JSON."""
        spec_path, _ = make_spec_file(tmp_path)
        ref = tmp_path / "ref.json"
        assert main(["solve", "--spec", str(spec_path), "--out", str(ref)]) == EXIT_OK
        capsys.readouterr()
        ref.write_text(json.dumps(edit(json.loads(ref.read_text()))))
        rc = main(["compare", "--spec", str(spec_path), "--k", "2",
                   "--solvers", "pd", "--reference-file", str(ref)])
        assert rc == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {ref}: ")
        return captured.err

    @pytest.mark.parametrize("raw, named", [([1, 2], "got list"),
                                            ({"weights": [1.0]}, "missing key 'support'")],
                             ids=["list", "weights-only"])
    def test_reference_file_not_a_solution(self, tmp_path, capsys, raw, named):
        assert named in self._compare_with_reference(tmp_path, capsys, lambda _: raw)

    @pytest.mark.parametrize("part, key", [
        ("solution", "weights"), ("solution", "support"), ("solution", "objective"),
        ("solution", "status"), ("trace", "rho"), ("trace", "inner_iters"), ("trace", "q"),
        ("trace", "infeas"), ("kkt", "stationarity"),
    ])
    def test_reference_file_missing_key(self, tmp_path, capsys, part, key):
        def drop(raw):
            del {"solution": raw, "trace": raw["trace"][0], "kkt": raw["kkt"]}[part][key]
            return raw

        where = {"solution": "solution", "trace": "trace level 0", "kkt": "kkt"}[part]
        err = self._compare_with_reference(tmp_path, capsys, drop)
        assert f"{where}: missing key {key!r}" in err

    def test_reference_file_of_another_size_is_input_error(self, tmp_path, capsys):
        # a 3-asset solution against a 4-asset instance
        small_spec, _ = make_spec_file(tmp_path, n=3, k=2)
        ref = tmp_path / "ref.json"
        assert main(["solve", "--spec", str(small_spec), "--out", str(ref)]) == EXIT_OK
        spec_path, _ = make_spec_file(tmp_path, n=4, k=2)
        rc = main(["compare", "--spec", str(spec_path), "--k", "2",
                   "--solvers", "pd", "--reference-file", str(ref)])
        assert rc == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {ref}: 3 weights for an instance of 4 assets\n"


class TestParsing:
    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("command", ["solve", "backtest", "compare"])
    def test_solver_flag_defaults_are_solver_configs(self, command):
        args = cli.build_parser().parse_args([command])
        assert cli._solver_config(args) == SolverConfig()

    def test_max_outer_reaches_the_solver(self, tmp_path, capsys, monkeypatch):
        spec_path, _ = make_spec_file(tmp_path, n=40, k=3, seed=0)
        configs = []

        def recording_pd(spec, cfg):
            configs.append(cfg)
            return ccmv_pd_solve(spec, cfg)

        monkeypatch.setitem(cli.SOLVERS, "pd", recording_pd)
        rc = main(["solve", "--spec", str(spec_path), "--max-outer", "1"])
        assert configs == [dataclasses.replace(SolverConfig(), max_outer=1)]
        assert len(json.loads(capsys.readouterr().out)["trace"]) == 1
        assert rc == EXIT_ITERATION_CAPPED

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_bench_is_not_a_command(self, capsys):
        # timings come from benchmark/run.py, which gates every portfolio it times
        assert main(["bench", "--sizes", "8", "--k-sweep", "2", "--solvers", "pd"]) == EXIT_INPUT_ERROR
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_seed_only_on_bench(self, tmp_path):
        # --seed belonged to the removed bench command; the commands that remain read their data
        spec_path, _ = make_spec_file(tmp_path)
        for command in ("solve", "compare"):
            assert main([command, "--spec", str(spec_path), "--seed", "1"]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("command, extra", [
        ("backtest", ["--spec", "SPEC"]),
        ("compare", ["--solver", "pd"]),  # not taken as a prefix of --solvers
        ("compare", ["--reference", "pd", "--reference-file", "REF"]),
        ("compare", ["--reference", "mosek-file"]),
    ], ids=["backtest-spec", "compare-solver", "compare-reference-and-file", "compare-mosek-file"])
    def test_rejected_flags(self, tmp_path, command, extra):
        # each command runs without the flag, so the flag alone is rejected
        files = {"SPEC": str(make_spec_file(tmp_path)[0]),
                 "RETURNS": str(make_returns_file(tmp_path)),
                 "REF": str(tmp_path / "ref.json")}
        out = str(tmp_path / "out")
        assert main(["solve", "--spec", files["SPEC"], "--out", files["REF"]]) == EXIT_OK
        valid = {
            "backtest": ["backtest", "--returns", files["RETURNS"], "--k", "2",
                         "--window", "6", "--out", out],
            "compare": ["compare", "--spec", files["SPEC"], "--k", "2", "--solvers", "pd",
                        "--out", out],
        }[command]
        assert main(valid) == EXIT_OK
        assert main(valid + [files.get(a, a) for a in extra]) == EXIT_INPUT_ERROR
