import csv
import json
import math

import numpy as np
import pytest
from scipy.stats import kendalltau

import hierkendall.cli as cli
import hierkendall.hierarchical as hierarchical
import hierkendall.kendall as kendall
from hierkendall.cli import main
from hierkendall.errors import EvaluationError
from hierkendall.modelconfig import read_csv, write_csv, write_json


@pytest.fixture
def fitted_world(tmp_path):
    config = {
        "nodes": [
            {"name": "c1", "family": "clayton", "columns": ["A", "B"], "tau": 0.5},
            {"name": "c2", "family": "gumbel", "columns": ["C", "D"], "tau": 0.5},
            {"name": "nest", "family": "frank", "children": ["c1", "c2"],
             "tau": 0.4},
        ],
        "seed": 42,
    }
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(config))
    fit_config = {
        "nodes": [
            {"name": "c1", "family": "clayton", "columns": ["A", "B"]},
            {"name": "c2", "family": "gumbel", "columns": ["C", "D"]},
            {"name": "nest", "family": "frank", "children": ["c1", "c2"]},
        ],
        "seed": 7,
    }
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(json.dumps(fit_config))
    return tmp_path, model_path, fit_path


class TestSimulate:
    def test_deterministic_bytes(self, fitted_world):
        tmp, model, _ = fitted_world
        out1, out2 = tmp / "a.csv", tmp / "b.csv"
        assert main(["simulate", "--model", str(model), "--n", "500",
                     "--seed", "3", "--out", str(out1)]) == 0
        assert main(["simulate", "--model", str(model), "--n", "500",
                     "--seed", "3", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_zero_rows_header_only(self, fitted_world):
        tmp, model, _ = fitted_world
        out = tmp / "empty.csv"
        assert main(["simulate", "--model", str(model), "--n", "0",
                     "--seed", "1", "--out", str(out)]) == 0
        assert out.read_text() == "A,B,C,D\n"

    def test_within_cluster_tau(self, fitted_world):
        tmp, model, _ = fitted_world
        out = tmp / "sim.csv"
        assert main(["simulate", "--model", str(model), "--n", "5000",
                     "--seed", "2", "--out", str(out)]) == 0
        header, data = read_csv(str(out))
        assert header == ["A", "B", "C", "D"]
        assert kendalltau(data[:, 0], data[:, 1]).statistic == pytest.approx(
            0.5, abs=0.03)

    def test_exact_refused_for_elliptical_cluster(self, fitted_world, tmp_path):
        config = {
            "nodes": [
                {"name": "c1", "family": "gaussian", "columns": ["A", "B"],
                 "corr": [[1.0, 0.5], [0.5, 1.0]]},
                {"name": "c2", "family": "gumbel", "columns": ["C", "D"],
                 "tau": 0.5},
                {"name": "nest", "family": "frank", "children": ["c1", "c2"],
                 "tau": 0.4},
            ],
            "kendall_mc_size": 5000,
        }
        path = tmp_path / "ell.json"
        path.write_text(json.dumps(config))
        code = main(["simulate", "--model", str(path), "--n", "10", "--seed", "1",
                     "--method", "exact", "--out", str(tmp_path / "x.csv")])
        assert code == 2


class TestFitCommand:
    def test_fit_and_roundtrip(self, fitted_world):
        tmp, model, fit_cfg = fitted_world
        sim = tmp / "sim.csv"
        report = tmp / "report.json"
        main(["simulate", "--model", str(model), "--n", "2000", "--seed", "5",
              "--out", str(sim)])
        assert main(["fit", "--data", str(sim), "--model", str(fit_cfg),
                     "--method", "mle", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["format"] == "hierkendall-report/1"
        assert doc["loglik_joint"] >= doc["loglik_two_step"] - 1e-6
        taus = {n["name"]: n.get("tau") for n in doc["model"]["nodes"]}
        assert taus["c1"] == pytest.approx(0.5, abs=0.05)
        assert taus["c2"] == pytest.approx(0.5, abs=0.05)
        assert taus["nest"] == pytest.approx(0.4, abs=0.05)

    def test_report_has_per_node_optimiser_figures(self, fitted_world):
        tmp, model, fit_cfg = fitted_world
        sim, report = tmp / "sim.csv", tmp / "report.json"
        main(["simulate", "--model", str(model), "--n", "500", "--seed", "5",
              "--out", str(sim)])
        assert main(["fit", "--data", str(sim), "--model", str(fit_cfg),
                     "--out", str(report)]) == 0
        diag = json.loads(report.read_text())["diagnostics"]
        assert diag["node_converged"] == {"c1": True, "c2": True, "nest": True}
        assert set(diag["node_evals"]) == {"c1", "c2", "nest"}
        assert all(0 < k <= 500 for k in diag["node_evals"].values())
        assert diag["joint_status"] is None and diag["joint_node_evals"] == 0
        assert diag["joint_failed_probes"] == 0

    def test_report_has_joint_search_figures(self, fitted_world):
        tmp, model, fit_cfg = fitted_world
        sim, report = tmp / "sim.csv", tmp / "report.json"
        main(["simulate", "--model", str(model), "--n", "500", "--seed", "5",
              "--out", str(sim)])
        assert main(["fit", "--data", str(sim), "--model", str(fit_cfg),
                     "--method", "mle", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        diag = doc["diagnostics"]
        assert doc["converged"] is True
        assert diag["joint_status"].startswith("CONVERGENCE")
        # three free parameters: at most 3 nodes per evaluation, and the
        # memo spares some of them
        assert diag["joint_evals"] < diag["joint_node_evals"] < 3 * diag["joint_evals"]
        assert diag["joint_failed_probes"] == 0

    def test_report_counts_failed_probes(self, fitted_world, monkeypatch):
        tmp, model, fit_cfg = fitted_world
        sim, report = tmp / "sim.csv", tmp / "report.json"
        main(["simulate", "--model", str(model), "--n", "500", "--seed", "5",
              "--out", str(sim)])
        real, thetas = hierarchical.archimedean_node_step, []

        def failing(gen, inputs):
            # the first Gumbel step is the two-step fit's; fail above its theta
            if gen.family == "gumbel":
                thetas.append(gen.theta)
                if gen.theta > thetas[0] * (1 + 1e-9):
                    raise EvaluationError("non-finite density")
            return real(gen, inputs)

        monkeypatch.setattr(hierarchical, "archimedean_node_step", failing)
        assert main(["fit", "--data", str(sim), "--model", str(fit_cfg),
                     "--method", "mle", "--out", str(report)]) == 0
        diag = json.loads(report.read_text())["diagnostics"]
        assert diag["joint_status"].startswith("CONVERGENCE")
        assert diag["joint_failed_probes"] > 0

    def test_fit_report_bytes_deterministic(self, fitted_world):
        tmp, model, fit_cfg = fitted_world
        sim = tmp / "sim.csv"
        main(["simulate", "--model", str(model), "--n", "800", "--seed", "5",
              "--out", str(sim)])
        r1, r2 = tmp / "r1.json", tmp / "r2.json"
        main(["fit", "--data", str(sim), "--model", str(fit_cfg), "--out", str(r1)])
        main(["fit", "--data", str(sim), "--model", str(fit_cfg), "--out", str(r2)])
        assert r1.read_bytes() == r2.read_bytes()

    def test_empty_body_csv_keeps_column_count(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("A,B,C\n")
        header, data = read_csv(str(p))
        assert header == ["A", "B", "C"]
        assert data.shape == (0, 3)

    def test_csv_bytes_are_shortest_round_trip_reprs(self, tmp_path):
        values = np.array([[-0.0, 1e-300, 1.0 - 2.0 ** -53],
                           [5e-324, 0.1, 1.0 / 3.0],
                           [np.inf, -np.inf, np.nan],
                           [1e300, -2.5, 7.0]])
        p = tmp_path / "v.csv"
        write_csv(str(p), ["A", "B", "C"], values)
        expected = "A,B,C\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in values)
        assert p.read_bytes() == expected.encode()
        assert p.read_bytes().splitlines()[1] == b"-0.0,1e-300,0.9999999999999999"

    def test_fit_report_is_simulatable(self, fitted_world):
        tmp, model, fit_cfg = fitted_world
        sim, report = tmp / "sim.csv", tmp / "report.json"
        main(["simulate", "--model", str(model), "--n", "1000", "--seed", "5",
              "--out", str(sim)])
        main(["fit", "--data", str(sim), "--model", str(fit_cfg),
              "--out", str(report)])
        out = tmp / "resim.csv"
        assert main(["simulate", "--model", str(report), "--n", "50",
                     "--seed", "1", "--out", str(out)]) == 0
        header, data = read_csv(str(out))
        assert data.shape == (50, 4)

    def test_missing_column_is_input_error(self, fitted_world, tmp_path, capsys):
        tmp, model, _ = fitted_world
        sim = tmp / "sim.csv"
        main(["simulate", "--model", str(model), "--n", "100", "--seed", "5",
              "--out", str(sim)])
        bad = {
            "nodes": [
                {"name": "c1", "family": "clayton", "columns": ["A", "ZZZ"]},
                {"name": "n", "family": "frank", "children": ["c1"]},
            ],
        }
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        code = main(["fit", "--data", str(sim), "--model", str(bad_path),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "ZZZ" in capsys.readouterr().err

    def test_malformed_csv_line_numbered(self, fitted_world, tmp_path, capsys):
        tmp, model, fit_cfg = fitted_world
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text("A,B,C,D\n0.1,0.2,0.3,0.4\n0.5,oops,0.7,0.8\n")
        code = main(["fit", "--data", str(csv_path), "--model", str(fit_cfg),
                     "--out", str(tmp_path / "r.json")])
        assert code == 2
        assert "line 3" in capsys.readouterr().err


class TestInputRanges:
    """Out-of-range input exits 2 with a message that names it."""

    def test_fit_rejects_data_outside_the_unit_interval(self, fitted_world, capsys):
        tmp, _, fit_cfg = fitted_world
        data = np.random.default_rng(3).random((50, 4))
        data[7, 2] = 1.5
        data[9, 3] = np.nan
        write_csv(str(tmp / "raw.csv"), ["A", "B", "C", "D"], data)
        code = main(["fit", "--data", str(tmp / "raw.csv"), "--model", str(fit_cfg),
                     "--out", str(tmp / "r.json")])
        err = capsys.readouterr().err
        assert code == 2 and "'C'" in err and "--raw" in err
        assert not (tmp / "r.json").exists()

    @pytest.mark.parametrize("point", ["3,0.4,0.6,0.7", "0.3,nan,0.6,0.7", "0.3,0.4,-0.1,0.7"])
    def test_density_rejects_a_point_outside_the_unit_cube(self, fitted_world, capsys,
                                                           point):
        _, model, _ = fitted_world
        code = main(["density", "--model", str(model), "--point", point])
        bad = "ABCD"[next(j for j, x in enumerate(point.split(","))
                          if not 0.0 <= float(x) <= 1.0)]
        assert code == 2 and f"'{bad}'" in capsys.readouterr().err

    @pytest.mark.parametrize("mc", ["0", "999"])
    def test_kendall_mc_below_the_floor_is_refused(self, fitted_world, capsys, mc):
        tmp, model, _ = fitted_world
        code = main(["simulate", "--model", str(model), "--n", "10", "--kendall-mc", mc,
                     "--out", str(tmp / "x.csv")])
        assert code == 2 and "--kendall-mc" in capsys.readouterr().err
        assert not (tmp / "x.csv").exists()


class TestNumericExitCode:
    """Numeric failures exit 3, apart from input errors (exit 2)."""

    def test_rejection_cap_error(self, fitted_world, capsys):
        tmp, model, _ = fitted_world
        code = main(["simulate", "--model", str(model), "--n", "20", "--seed", "1",
                     "--method", "rejection", "--epsilon-mode", "abs",
                     "--epsilon", "1e-9", "--max-attempts", "2",
                     "--out", str(tmp / "x.csv")])
        assert code == 3
        assert "unfilled" in capsys.readouterr().err

    def test_tolerance_error(self, fitted_world, monkeypatch, capsys):
        tmp, model, _ = fitted_world
        monkeypatch.setattr(kendall, "_MAX_ITER", 1)
        code = main(["simulate", "--model", str(model), "--n", "20", "--seed", "1",
                     "--method", "exact", "--out", str(tmp / "x.csv")])
        assert code == 3
        assert "missed tolerance" in capsys.readouterr().err

    def test_evaluation_error(self, fitted_world, monkeypatch, capsys):
        _, model, _ = fitted_world

        def nan_density(*args):
            raise EvaluationError("copula density evaluated to NaN")

        monkeypatch.setattr(cli, "model_density", nan_density)
        code = main(["density", "--model", str(model), "--point", "0.3,0.6,0.2,0.9"])
        assert code == 3
        assert "NaN" in capsys.readouterr().err


class TestDensityCommand:
    def test_independence_density_is_one(self, tmp_path, capsys):
        config = {
            "nodes": [
                {"name": "c1", "family": "independence", "columns": ["A", "B"]},
                {"name": "c2", "family": "independence", "columns": ["C", "D"]},
                {"name": "nest", "family": "independence",
                 "children": ["c1", "c2"]},
            ],
        }
        path = tmp_path / "indep.json"
        path.write_text(json.dumps(config))
        assert main(["density", "--model", str(path),
                     "--point", "0.3,0.6,0.2,0.9"]) == 0
        assert float(capsys.readouterr().out.strip()) == pytest.approx(1.0)


class TestKendallCommand:
    def test_grid_increases_in_dimension(self, tmp_path):
        vals = {}
        for d in (2, 5, 10):
            out = tmp_path / f"k{d}.csv"
            assert main(["kendall", "--family", "gumbel", "--theta", "2",
                         "--dim", str(d), "--grid", "9", "--out", str(out)]) == 0
            header, data = read_csv(str(out))
            assert header == ["t", "K"]
            vals[d] = data[data[:, 0] == 0.5][0, 1]
        assert vals[2] < vals[5] < vals[10]


class TestBacktestCommand:
    def test_pipeline_writes_report(self, fitted_world):
        tmp, model, fit_cfg = fitted_world
        sim = tmp / "sim.csv"
        main(["simulate", "--model", str(model), "--n", "360", "--seed", "9",
              "--out", str(sim)])
        # map uniforms to returns so the margins have something to do
        header, u = read_csv(str(sim))
        from scipy.stats import norm
        write_csv(str(sim), header, norm.ppf(np.clip(u, 1e-9, 1 - 1e-9)))
        report = tmp / "bt.json"
        code = main(["backtest", "--data", str(sim), "--model", str(fit_cfg),
                     "--level", "0.9", "--window", "300", "--horizon", "60",
                     "--refit-every", "30", "--mc", "3000", "--seed", "4",
                     "--out", str(report)])
        doc = json.loads(report.read_text())
        assert doc["format"] == "hierkendall-backtest/1"
        assert doc["horizon"] == 60
        assert 0.0 <= doc["p_uc"] <= 1.0
        assert code in (0, 3)  # 3 when the hit series is degenerate


class TestStudyCommand:
    def test_tiny_study(self, tmp_path):
        cfg = {"nesting_taus": [0.4], "sample_sizes": [250],
               "methods": ["two_step_closed"], "kendall_mc": 5000}
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "study.csv"
        assert main(["study", "--config", str(cfg_path), "--replications", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("nesting_tau,")
        assert len(lines) == 2

    def test_failed_method_reports_its_reason(self, tmp_path):
        cfg = {"nesting_taus": [0.4], "sample_sizes": [250],
               "methods": ["two_step_closed", "no_such_method"]}
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "study.csv"
        assert main(["study", "--config", str(cfg_path), "--replications", "2",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["fail_reason"] for r in rows] == [
            "", "2x ParameterError: unknown study method 'no_such_method'"]
        assert rows[1]["n_fail"] == "2"


class TestJsonReports:
    def test_non_finite_numbers_are_written_as_null(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(str(path), {"a": math.nan, "b": [1.5, -math.inf, {"c": math.inf}],
                               "d": np.float64("nan"), "e": (2.0, "x")})

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(path.read_text(), parse_constant=refuse)
        assert doc == {"a": None, "b": [1.5, None, {"c": None}], "d": None, "e": [2.0, "x"]}
