import csv
import dataclasses
import json
from dataclasses import astuple, fields

import numpy as np
import pytest

from ccmv import ReturnsMatrix, brute_force_solve, ccmv_padm_solve, ccmv_pd_solve
from ccmv.errors import BadData
from ccmv.model import OuterRecord
from ccmv.serialize import (
    read_problem_json,
    read_returns_csv,
    read_solution_json,
    solution_from_dict,
    solution_to_json,
    write_problem_json,
    write_returns_csv,
    write_trace_csv,
    write_weights_csv,
)
from ccmv.synthetic import factor_model_instance, monthly_returns_instance, random_psd_instance

from conftest import dense, penalty_path


class TestReturnsCsv:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(131)
        rm = ReturnsMatrix(rng.normal(0.01, 0.05, size=(6, 3)), ("AAA", "BBB", "CCC"))
        path = tmp_path / "returns.csv"
        write_returns_csv(path, rm)
        back = read_returns_csv(path)
        np.testing.assert_array_equal(back.values, rm.values)
        assert back.tickers == rm.tickers

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("AAA,BBB\n0.1,0.2\n")
        with pytest.raises(BadData, match="header"):
            read_returns_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,AAA,BBB\n2020-01,0.1,0.2\n2020-02,0.1\n")
        with pytest.raises(BadData, match=":3"):
            read_returns_csv(path)

    def test_non_numeric_cell_names_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("date,AAA,BBB\n2020-01,0.1,oops\n")
        with pytest.raises(BadData, match="BBB"):
            read_returns_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(BadData, match="empty"):
            read_returns_csv(path)


class TestProblemJson:
    def test_roundtrip(self, tmp_path):
        spec = random_psd_instance(n=4, k=2, seed=5)
        path = tmp_path / "spec.json"
        write_problem_json(path, spec)
        back = read_problem_json(path)
        np.testing.assert_array_equal(back.A, spec.A)
        np.testing.assert_array_equal(back.mu, spec.mu)
        assert (back.tau, back.k) == (spec.tau, spec.k)

    def test_tau_k_override(self, tmp_path):
        spec = random_psd_instance(n=4, k=2, seed=5)
        path = tmp_path / "spec.json"
        write_problem_json(path, spec)
        back = read_problem_json(path, tau=0.9, k=3)
        assert (back.tau, back.k) == (0.9, 3)

    def test_missing_tau_and_k(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"A": [[1.0]], "mu": [0.1]}))
        with pytest.raises(BadData, match="tau and k"):
            read_problem_json(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(BadData, match="invalid JSON"):
            read_problem_json(path)

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("[1, 2]")
        with pytest.raises(BadData, match="spec.json: expected a JSON object, got list"):
            read_problem_json(path)


    def test_factor_form_roundtrip(self, tmp_path):
        spec = factor_model_instance(226, 10, seed=0)
        path = tmp_path / "spec.json"
        write_problem_json(path, spec)
        assert set(json.loads(path.read_text())) == {"G", "d", "mu", "tau", "k"}
        back = read_problem_json(path)
        assert back.cov.factored
        for name in ("G", "d", "mu"):
            np.testing.assert_array_equal(getattr(back, name), getattr(spec, name))
        assert (back.tau, back.k) == (spec.tau, spec.k)

    def test_small_rank_factor_form_written_as_factors(self, tmp_path):
        spec = factor_model_instance(10, 4, seed=0)  # solved in dense form
        path = tmp_path / "spec.json"
        write_problem_json(path, spec)
        back = read_problem_json(path)
        assert "A" not in json.loads(path.read_text()) and not back.cov.factored
        np.testing.assert_array_equal(back.A, spec.A)

    @pytest.mark.parametrize("payload, key", [
        ({"A": "abc", "mu": [0.1, 0.2]}, "A"),
        ({"A": [[1.0, 0.0], [0.0]], "mu": [0.1, 0.2]}, "A"),
        ({"A": [[1.0, 0.0], [0.0, 1.0]], "mu": [0.1, 0.2, 0.3]}, "A"),
        ({"G": [[1.0], [2.0, 3.0]], "d": [0.1, 0.1], "mu": [0.1, 0.2]}, "G"),
        ({"G": [[1.0], [2.0]], "d": [0.1], "mu": [0.1, 0.2]}, "d"),
        ({"G": [[1.0], [2.0]], "d": [0.1, -0.1], "mu": [0.1, 0.2]}, "d"),
        ({"G": [[1.0], [2.0]], "d": [0.1, 0.1], "mu": ["x", 0.2]}, "mu"),
        ({"A": [[1.0]], "mu": [0.1], "k": 1.5}, "k"),
        ({"A": [[1.0]], "mu": [0.1], "tau": "large"}, "tau"),
    ], ids=["string-A", "ragged-A", "A-shape", "ragged-G", "d-length", "negative-d",
            "string-mu", "fractional-k", "string-tau"])
    def test_malformed_value_names_its_key(self, tmp_path, payload, key):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"tau": 0.5, "k": 1, **payload}))
        with pytest.raises(BadData, match=f"spec.json: '{key}'"):
            read_problem_json(path)

    @pytest.mark.parametrize("payload", [
        {"A": [[1.0]], "G": [[1.0]], "d": [0.0], "mu": [0.1]},
        {"mu": [0.1]},
    ], ids=["both", "neither"])
    def test_exactly_one_covariance_form(self, tmp_path, payload):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"tau": 0.5, "k": 1, **payload}))
        with pytest.raises(BadData, match="either 'A' or 'G' and 'd'"):
            read_problem_json(path)


def _oracle_solve(spec):
    return brute_force_solve(spec).to_solution()


def _pd_solve_with_levels(spec):
    """ccmv_pd_solve's Solution with penalty_loop's trace, for an instance whose seed is k-sparse.

    ccmv_pd_solve returns such an instance's answer before any penalty level.
    """
    return dataclasses.replace(ccmv_pd_solve(spec), trace=penalty_path(spec)[1])


class TestSolutionJson:
    @pytest.mark.parametrize("solve, spec, exercised", [
        (_pd_solve_with_levels, lambda: monthly_returns_instance(100, 10, seed=0), "jumps"),
        (ccmv_pd_solve, lambda: factor_model_instance(10, 1, seed=4), "safeguard_resets"),
        (ccmv_pd_solve, lambda: monthly_returns_instance(100, 10, seed=0), "exit"),
        (ccmv_padm_solve, lambda: factor_model_instance(10, 4, seed=0), None),
        (_oracle_solve, lambda: factor_model_instance(10, 4, seed=0), None),
    ], ids=["pd-jumps", "pd-resets", "pd-exit", "padm", "oracle"])
    def test_every_field_roundtrips(self, tmp_path, solve, spec, exercised):
        sol = solve(spec())
        if exercised == "safeguard_resets":
            assert sol.safeguard_resets > 0
        elif exercised == "exit":
            assert sol.trace == [] and sol.lower_bound == pytest.approx(sol.objective, rel=1e-14)
        elif exercised:
            assert any(getattr(r, exercised) for r in sol.trace)
        path = tmp_path / "sol.json"
        path.write_text(solution_to_json(sol))
        back = read_solution_json(path)
        assert back.weights.tobytes() == np.asarray(sol.weights, dtype=float).tobytes()
        assert back.support == tuple(sol.support)
        assert (back.objective, back.status, back.solver) == (sol.objective, sol.status, sol.solver)
        assert back.wall_time == sol.wall_time > 0.0
        for key in ("upsilon", "lower_bound"):
            value, read = getattr(sol, key), getattr(back, key)
            assert (json.loads(path.read_text())[key] is None) == np.isnan(value)
            assert read == value or np.isnan(read) and np.isnan(value)
        assert back.safeguard_resets == sol.safeguard_resets
        assert [astuple(r) for r in back.trace] == [astuple(r) for r in sol.trace]
        if sol.kkt is None:
            assert back.kkt is None
        else:
            written = ("beta", "stationarity_residual", "dual_feasibility_violation",
                       "complementarity_residual")
            assert [getattr(back.kkt, a) for a in written] == [getattr(sol.kkt, a) for a in written]

    def test_roundtrip(self, tmp_path):
        sol = ccmv_pd_solve(random_psd_instance(n=5, k=2, seed=7))
        path = tmp_path / "sol.json"
        path.write_text(solution_to_json(sol))
        back = read_solution_json(path)
        np.testing.assert_allclose(back.weights, sol.weights)
        assert back.support == sol.support
        assert back.objective == pytest.approx(sol.objective)
        assert back.status == sol.status
        assert back.solver == "pd"
        assert len(back.trace) == len(sol.trace)
        assert back.kkt.beta == pytest.approx(sol.kkt.beta)
        assert back.wall_time == sol.wall_time > 0.0
        assert back.upsilon == sol.upsilon

    @pytest.mark.parametrize("solve", [
        ccmv_padm_solve,
        lambda spec: brute_force_solve(spec).to_solution(),
    ], ids=["padm", "oracle"])
    def test_nan_upsilon_written_as_null(self, solve):
        sol = solve(random_psd_instance(n=5, k=2, seed=7))
        text = solution_to_json(sol)
        assert json.loads(text)["upsilon"] is None
        back = solution_from_dict(json.loads(text))
        assert np.isnan(back.upsilon)
        assert back.wall_time == sol.wall_time

    def test_jumps_roundtrip(self):
        sol = _pd_solve_with_levels(monthly_returns_instance(100, 10, seed=0))
        jumps = [r.jumps for r in sol.trace]
        assert any(jumps)
        raw = json.loads(solution_to_json(sol))
        # written only for a level that jumped, as note is written only when set
        assert ["jumps" in r for r in raw["trace"]] == [j > 0 for j in jumps]
        assert [r.jumps for r in solution_from_dict(raw).trace] == jumps

    def test_file_without_lower_bound_reads_nan(self):
        # files written before Solution carried lower_bound
        raw = json.loads(solution_to_json(ccmv_pd_solve(random_psd_instance(n=5, k=2, seed=7))))
        del raw["lower_bound"]
        assert np.isnan(solution_from_dict(raw).lower_bound)

    def test_older_solve_steps_key_is_read_past(self, tmp_path):
        # files written while a dense n = 1000 solve served its penalty levels by
        # a conjugate-gradient run carry "solve_steps" (its step count) in every
        # trace level; the field is gone, and the reader drops the key
        sol = ccmv_pd_solve(dense(factor_model_instance(1000, 10, seed=0)))
        raw = json.loads(solution_to_json(sol))
        for level in raw["trace"]:
            level["solve_steps"] = 14
        path = tmp_path / "older.json"
        path.write_text(json.dumps(raw, indent=2))
        back = read_solution_json(path)
        assert "solve_steps" not in {f.name for f in fields(OuterRecord)}
        assert [astuple(r) for r in back.trace] == [astuple(r) for r in sol.trace]
        assert back.weights.tobytes() == sol.weights.tobytes() and back.support == sol.support

    @pytest.mark.parametrize("change, key", [
        ({"weights": "abc"}, "weights"),
        ({"weights": [[1.0, 0.0]]}, "weights"),
        ({"support": [0.5]}, "support"),
        ({"objective": "low"}, "objective"),
        ({"status": 3}, "status"),
        ({"kkt": {"beta": "x", "stationarity": 0.0, "dual_violation": 0.0, "complementarity": 0.0}},
         "beta"),
        ({"trace": [{"rho": 1.0, "inner_iters": "3", "q": 0.0, "infeas": 0.0}]}, "inner_iters"),
        ({"wall_time": [1.0]}, "wall_time"),
        ({"lower_bound": "-0.1"}, "lower_bound"),
    ], ids=["string-weights", "matrix-weights", "fractional-support", "string-objective",
            "numeric-status", "string-kkt", "string-trace", "list-wall-time", "string-lower-bound"])
    def test_malformed_value_names_its_key(self, change, key):
        raw = {"weights": [1.0, 0.0], "support": [0], "objective": 0.5, "kkt": None,
               "status": "converged", **change}
        with pytest.raises(BadData, match=f"'{key}'"):
            solution_from_dict(raw)

    def test_oracle_solution_without_kkt(self):
        raw = {"weights": [1.0, 0.0], "support": [0], "objective": 0.5,
               "kkt": None, "status": "converged"}
        sol = solution_from_dict(raw)
        assert sol.kkt is None
        assert np.isnan(sol.kkt_residual)


class TestCsvWriters:
    def test_trace_csv(self, tmp_path):
        sol = ccmv_pd_solve(random_psd_instance(n=5, k=2, seed=7))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, sol)
        with path.open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == [f.name for f in fields(OuterRecord)]
        assert rows == [[str(v) for v in astuple(r)] for r in sol.trace]

    def test_weights_csv(self, tmp_path):
        path = tmp_path / "weights.csv"
        write_weights_csv(path, [np.array([0.5, 0.5]), np.array([1.0, 0.0])],
                          ("A", "B"))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "window,A,B"
        assert lines[1].startswith("0,")
        assert len(lines) == 3
