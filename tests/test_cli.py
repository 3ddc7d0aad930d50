import copy
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kendalltau

import hierkendall.cli as cli
import hierkendall.estimation as estimation
import hierkendall.hierarchical as hierarchical
import hierkendall.kendall as kendall
import hierkendall.levelset as levelset
from hierkendall.backtest import rolling_backtest
from hierkendall.cli import main
from hierkendall.copulas import clamp_interior
from hierkendall.errors import DataError, EvaluationError
from hierkendall.hierarchical import iter_nodes, model_loglik, model_sample
from hierkendall.modelconfig import (load_model_document, read_csv, report_document,
                                     write_csv, write_json)
from hierkendall.rngutil import substream


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

    def test_joint_fit_keeps_an_elliptical_cluster(self, fitted_world, tmp_path):
        tmp, model, _ = fitted_world
        sim, report = tmp / "sim.csv", tmp / "report.json"
        main(["simulate", "--model", str(model), "--n", "300", "--seed", "5",
              "--out", str(sim)])
        config = {
            "nodes": [
                {"name": "c1", "family": "gaussian", "columns": ["A", "B"]},
                {"name": "c2", "family": "clayton", "columns": ["C", "D"]},
                {"name": "nest", "family": "frank", "children": ["c1", "c2"]},
            ],
            "kendall_mc_size": 10000,
        }
        cfg = tmp_path / "ell.json"
        cfg.write_text(json.dumps(config))
        assert main(["fit", "--data", str(sim), "--model", str(cfg),
                     "--method", "mle", "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["loglik_joint"] >= doc["loglik_two_step"]

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


def _tree(*nodes, **settings) -> dict:
    """A config of ``(name, family, members, params)`` nodes plus top-level
    settings: a leaf's members are a string of one-letter column names, an
    inner node's a list of node names."""
    return {"nodes": [{"name": name, "family": family,
                       ("columns" if isinstance(members, str) else "children"): list(members),
                       **params} for name, family, members, params in nodes],
            **settings}


_REBUILD_MODELS = {
    "archimedean": [
        ("c1", "clayton", "AB", {"tau": 0.5}), ("c2", "gumbel", "CD", {"tau": 0.5}),
        ("nest", "frank", ["c1", "c2"], {"tau": 0.4})],
    "gaussian-clayton": [
        ("g", "gaussian", "AB", {"corr": [[1.0, 0.5], [0.5, 1.0]]}),
        ("c", "clayton", "CD", {"tau": 0.4}),
        ("nest", "frank", ["g", "c"], {"tau": 0.4})],
    "three-level": [
        ("c1", "clayton", "AB", {"tau": 0.6}), ("g", "gaussian", "CD", {"corr": [[1.0, 0.7], [0.7, 1.0]]}),
        ("m1", "gumbel", ["c1", "g"], {"tau": 0.45}), ("c3", "frank", "EF", {"tau": 0.5}),
        ("c4", "gumbel", "GH", {"tau": 0.4}), ("m2", "frank", ["c3", "c4"], {"tau": 0.35}),
        ("root", "clayton", ["m1", "m2"], {"tau": 0.2})],
    "leaf-beside-a-pair": [
        ("g", "gaussian", "AB", {"corr": [[1.0, 0.5], [0.5, 1.0]]}),
        ("c1", "clayton", "CD", {"tau": 0.5}), ("c2", "gumbel", "EF", {"tau": 0.5}),
        ("m", "gumbel", ["c1", "c2"], {"tau": 0.4}),
        ("nest", "frank", ["g", "m"], {"tau": 0.3})],
}


class TestReportRebuild:
    """The model that ``simulate``/``density`` build from a fit report is the
    fitted model, bit for bit, whatever the draw's ``--seed``."""

    @pytest.mark.parametrize("method", ["two-step", "mle"])
    @pytest.mark.parametrize("name", list(_REBUILD_MODELS))
    def test_the_rebuild_is_the_fitted_model(self, tmp_path, monkeypatch, capsys,
                                             name, method):
        nodes = _REBUILD_MODELS[name]
        settings = {"kendall_mc_size": 2000, "seed": 11}
        (tmp_path / "true.json").write_text(json.dumps(_tree(*nodes, **settings)))
        (tmp_path / "fit.json").write_text(json.dumps(
            _tree(*[(n, f, m, {}) for n, f, m, _ in nodes], **settings)))
        sim, report = tmp_path / "sim.csv", tmp_path / "report.json"
        assert main(["simulate", "--model", str(tmp_path / "true.json"), "--n", "300",
                     "--seed", "3", "--out", str(sim)]) == 0
        fits = []
        monkeypatch.setattr(cli, "report_document",
                            lambda fit, *a: fits.append(fit) or report_document(fit, *a))
        assert main(["fit", "--data", str(sim), "--model", str(tmp_path / "fit.json"),
                     "--method", method, "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        fitted = fits[0].model

        rebuilt = []
        monkeypatch.setattr(cli, "model_density", lambda m, point: rebuilt.append(m) or 1.0)
        point = ",".join(["0.5"] * fitted.n_vars)
        assert main(["density", "--model", str(report), "--point", point]) == 0
        u = clamp_interior(read_csv(str(sim))[1])
        loglik = doc["loglik_two_step" if method == "two-step" else "loglik_joint"]
        assert model_loglik(rebuilt[0], u).value == loglik
        tags = {n["name"]: n["kendall"] for n in doc["model"]["nodes"]}
        assert tags == {node.name: estimation._kendall_tag(node.kendall)
                        for _, node in iter_nodes(rebuilt[0])}
        if name != "archimedean":
            assert "empirical(2000)" in tags.values()

        header, own_seed = doc["columns"], doc["model"]["seed"]
        for seed in (own_seed, 7):
            out, expected = tmp_path / f"resim-{seed}.csv", tmp_path / f"expected-{seed}.csv"
            assert main(["simulate", "--model", str(report), "--n", "300",
                         "--seed", str(seed), "--out", str(out)]) == 0
            write_csv(str(expected), header, model_sample(fitted, 300, substream(seed, 0)))
            assert out.read_bytes() == expected.read_bytes()
        # without --seed the draw takes the document's seed
        assert main(["simulate", "--model", str(report), "--n", "300",
                     "--out", str(tmp_path / "resim.csv")]) == 0
        resim_own = (tmp_path / f"resim-{own_seed}.csv").read_bytes()
        assert (tmp_path / "resim.csv").read_bytes() == resim_own


class TestDocumentOrder:
    """A document whose node order and in-node column order differ from the
    data header: the report carries the document's topology, columns named."""

    NODES = [("nest", "frank", ["m", "g"], {"tau": 0.2}),
             ("c2", "gumbel", "FC", {"tau": 0.5}),
             ("m", "clayton", ["c2", "c1"], {"tau": 0.3}),
             ("c1", "clayton", "GAE", {"tau": 0.5}),
             ("g", "gaussian", "DB", {"corr": [[1.0, 0.5], [0.5, 1.0]]})]

    def test_report_round_trip(self, tmp_path, capsys):
        settings = {"kendall_mc_size": 1000, "seed": 5}
        true, fit = tmp_path / "true.json", tmp_path / "fit.json"
        true.write_text(json.dumps(_tree(*self.NODES, **settings)))
        fit_doc = _tree(*[(n, f, m, {}) for n, f, m, _ in self.NODES], **settings)
        fit.write_text(json.dumps(fit_doc))
        sim, data = tmp_path / "sim.csv", tmp_path / "data.csv"
        assert main(["simulate", "--model", str(true), "--n", "300", "--out", str(sim)]) == 0
        header, u = read_csv(str(sim))
        assert header == list("FCGAEDB")  # first-appearance order
        write_csv(str(data), sorted(header), u[:, np.argsort(header)])
        report = tmp_path / "report.json"
        assert main(["fit", "--data", str(data), "--model", str(fit),
                     "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["columns"] == list("ABCDEFG")
        links = {n["name"]: {k: n[k] for k in ("columns", "children") if k in n}
                 for n in doc["model"]["nodes"]}
        assert links == {n["name"]: {k: n[k] for k in ("columns", "children") if k in n}
                         for n in fit_doc["nodes"]}
        for model, columns in ((report, "ABCDEFG"), (true, "FCGAEDB")):
            out = tmp_path / "resim.csv"
            assert main(["simulate", "--model", str(model), "--n", "20", "--out",
                         str(out)]) == 0
            assert read_csv(str(out))[0] == list(columns)
            capsys.readouterr()
            assert main(["density", "--model", str(model), "--point",
                         "0.3,0.4,0.5,0.6,0.7,0.2,0.8"]) == 0
            assert math.isfinite(float(capsys.readouterr().out))


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

    @pytest.mark.parametrize("command", [
        ["fit", "--raw"],
        ["backtest", "--window", "100", "--horizon", "5", "--mc", "1000"]])
    def test_raw_data_with_a_non_finite_cell_is_refused(self, fitted_world, capsys,
                                                         command):
        tmp, _, fit_cfg = fitted_world
        data = np.random.default_rng(3).normal(size=(200, 4))
        data[17, 1] = np.nan
        write_csv(str(tmp / "raw.csv"), ["A", "B", "C", "D"], data)
        code = main([*command, "--data", str(tmp / "raw.csv"), "--model", str(fit_cfg),
                     "--out", str(tmp / "r.json")])
        err = capsys.readouterr().err
        assert code == 2 and "column 1" in err and "row 17" in err
        assert not (tmp / "r.json").exists()

    @pytest.mark.parametrize("raw", [False, True])
    @pytest.mark.parametrize("rows", [0, 1])
    def test_fit_needs_two_data_rows(self, fitted_world, capsys, rows, raw):
        tmp, _, fit_cfg = fitted_world
        write_csv(str(tmp / "short.csv"), ["A", "B", "C", "D"], np.full((rows, 4), 0.5))
        code = main(["fit", "--data", str(tmp / "short.csv"), "--model", str(fit_cfg),
                     "--out", str(tmp / "r.json")] + ["--raw"] * raw)
        assert code == 2 and capsys.readouterr().err == (
            f"error: need a 2-d array with at least two rows, got shape ({rows}, 4)\n")
        assert not (tmp / "r.json").exists()

    @pytest.mark.parametrize("point", ["3,0.4,0.6,0.7", "0.3,nan,0.6,0.7", "0.3,0.4,-0.1,0.7"])
    def test_density_rejects_a_point_outside_the_unit_cube(self, fitted_world, capsys,
                                                           point):
        _, model, _ = fitted_world
        code = main(["density", "--model", str(model), "--point", point])
        bad = "ABCD"[next(j for j, x in enumerate(point.split(","))
                          if not 0.0 <= float(x) <= 1.0)]
        assert code == 2 and f"'{bad}'" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--refit-every", "0"), ("--refit-every", "-3"), ("--horizon", "-2"),
        ("--horizon", "0"), ("--mc", "0"), ("--level", "1.5"), ("--window", "5")])
    def test_backtest_flag_out_of_range_is_named(self, fitted_world, capsys, flag, value):
        tmp, _, fit_cfg = fitted_world
        write_csv(str(tmp / "raw.csv"), ["A", "B", "C", "D"],
                  np.random.default_rng(3).normal(size=(120, 4)))
        args = {"--window": "100", "--horizon": "5", "--mc": "1000", flag: value}
        code = main(["backtest", "--data", str(tmp / "raw.csv"), "--model", str(fit_cfg),
                     "--out", str(tmp / "bt.json"), *(x for kv in args.items() for x in kv)])
        argument = flag[2:].replace("-", "_")
        rule = ("must lie in (0, 1)" if flag == "--level" else
                f"must be an integer >= {10 if flag == '--window' else 1}")
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag}: {argument} {rule}, got {value}\n"
        assert not (tmp / "bt.json").exists()

    @pytest.mark.parametrize("n", ["-1", "-5"])
    def test_negative_row_count_is_named(self, fitted_world, capsys, n):
        tmp, model, _ = fitted_world
        code = main(["simulate", "--model", str(model), "--n", n,
                     "--out", str(tmp / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: --n: n must be an integer >= 0, got {n}\n"
        assert not (tmp / "x.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--model", "{model}", "--n", "10", "--seed", "-1"],
         "--seed: seed must be an integer >= 0, got -1"),
        (["backtest", "--data", "{raw}", "--model", "{fit}", "--window", "100",
          "--seed", "-1"], "--seed: seed must be an integer >= 0, got -1"),
        (["study", "--seed", "-1"], "study setting 'seed' must be non-negative, got -1"),
        (["study", "--threads", "-3"], "--threads: threads must be an integer >= 1, got -3"),
        (["density", "--model", "{model}", "--point", "0.5,a,0.3,0.4"],
         "--point: coordinate 2 ('B') is not a number: 'a'"),
        (["density", "--model", "{model}", "--point", "0.3,0.4,0.6"],
         "--point: point has 3 coordinates, model expects 4"),
        (["kendall", "--family", "clayton", "--theta", "2", "--dim", "0"],
         "--dim: dim must be an integer >= 1, got 0")],
        ids=["simulate-seed", "backtest-seed", "study-seed", "study-threads",
             "point-not-a-number", "point-count", "kendall-dim"])
    def test_refused_flag_is_named(self, fitted_world, capsys, argv, message):
        tmp, model, fit_cfg = fitted_world
        write_csv(str(tmp / "raw.csv"), ["A", "B", "C", "D"],
                  np.random.default_rng(3).normal(size=(120, 4)))
        paths = {"model": model, "fit": fit_cfg, "raw": tmp / "raw.csv"}
        argv = [a.format(**paths) for a in argv]
        if argv[0] != "density":
            argv += ["--out", str(tmp / "out")]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not (tmp / "out").exists()

    @pytest.mark.parametrize("grid", ["0", "-2"])
    def test_empty_kendall_grid_is_named(self, capsys, grid):
        code = main(["kendall", "--family", "clayton", "--theta", "2", "--dim", "2",
                     "--grid", grid])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --grid: grid must be an integer >= 1, got {grid}\n"


class TestNodeNames:
    def test_a_path_separator_in_a_name_changes_no_output(self, fitted_world):
        """A node named EUR/USD simulates and fits as the same node named c1."""
        tmp, model, fit_cfg = fitted_world
        sims, reports = [], []
        for name in ("c1", "EUR/USD"):
            tag = name.replace("/", "-")
            paths = {}
            for kind, src in (("model", model), ("fit", fit_cfg)):
                paths[kind] = tmp / f"{kind}-{tag}.json"
                paths[kind].write_text(src.read_text().replace('"c1"', json.dumps(name)))
            sim = tmp / f"sim-{tag}.csv"
            assert main(["simulate", "--model", str(paths["model"]), "--n", "300",
                         "--seed", "5", "--out", str(sim)]) == 0
            sims.append(sim.read_bytes())
            report = tmp / f"report-{tag}.json"
            assert main(["fit", "--data", str(tmp / "sim-c1.csv"), "--model",
                         str(paths["fit"]), "--method", "mle", "--out", str(report)]) == 0
            reports.append(report.read_text())
        assert sims[0] == sims[1]
        assert '"EUR/USD"' in reports[1]
        assert reports[1].replace('"EUR/USD"', '"c1"') == reports[0]
        doc = json.loads(reports[0])
        assert doc["loglik_joint"] > doc["loglik_two_step"]


class TestNumericExitCode:
    """Numeric failures exit 3, apart from input errors (exit 2)."""

    def test_rejection_cap_error(self, fitted_world, monkeypatch, capsys):
        tmp, model, _ = fitted_world
        narrow = tmp / "narrow.json"
        narrow.write_text(json.dumps({**json.loads(model.read_text()),
                                      "epsilon_rule": {"mode": "abs", "value": 1e-9}}))
        monkeypatch.setattr(levelset, "MAX_ATTEMPTS", 2)
        code = main(["simulate", "--model", str(narrow), "--n", "20", "--seed", "1",
                     "--method", "rejection", "--out", str(tmp / "x.csv")])
        assert code == 3
        assert "unfilled" in capsys.readouterr().err
        assert not (tmp / "x.csv").exists()

    def test_unconverged_fit_writes_its_report(self, fitted_world, monkeypatch, capsys):
        tmp, model, fit_cfg = fitted_world
        assert main(["simulate", "--model", str(model), "--n", "300", "--seed", "2",
                     "--out", str(tmp / "sim.csv")]) == 0
        monkeypatch.setattr(estimation, "_CLUSTER_MAX_EVALS", 3)
        code = main(["fit", "--data", str(tmp / "sim.csv"), "--model", str(fit_cfg),
                     "--out", str(tmp / "r.json")])
        assert code == 3
        assert "did not fully converge" in capsys.readouterr().err
        doc = json.loads((tmp / "r.json").read_text())
        assert doc["converged"] is False
        assert not all(doc["diagnostics"]["node_converged"].values())

    def test_degenerate_backtest_writes_its_report(self, fitted_world, capsys):
        tmp, _, fit_cfg = fitted_world
        write_csv(str(tmp / "raw.csv"), ["A", "B", "C", "D"],
                  np.random.default_rng(3).normal(size=(103, 4)))
        code = main(["backtest", "--data", str(tmp / "raw.csv"), "--model", str(fit_cfg),
                     "--window", "100", "--horizon", "3", "--mc", "1000",
                     "--out", str(tmp / "bt.json")])
        assert code == 3
        assert "degenerate hit series" in capsys.readouterr().err
        doc = json.loads((tmp / "bt.json").read_text())
        assert doc["degenerate"] is True and doc["n_exceed"] == 0
        assert doc["p_ind"] is None and len(doc["var_series"]) == 3

    def test_tolerance_error(self, fitted_world, monkeypatch, capsys):
        tmp, model, _ = fitted_world
        # one Newton step from the lower bracket leaves the solve short of tolerance
        monkeypatch.setattr(kendall, "_table_start", lambda g, d, p, lo: lo)
        monkeypatch.setattr(kendall, "_MAX_ITER", 1)
        code = main(["simulate", "--model", str(model), "--n", "20", "--seed", "1",
                     "--method", "exact", "--out", str(tmp / "x.csv")])
        assert code == 3
        assert "missed tolerance" in capsys.readouterr().err

    def test_sample_outside_unit_interval(self, tmp_path, capsys):
        # a tau = 0.98 Clayton cluster: phi overflows near z = 0 and rows would hold 0
        model = tmp_path / "strong.json"
        model.write_text(json.dumps({"nodes": [
            {"name": "c1", "family": "clayton", "columns": ["A", "B"], "tau": 0.98},
            {"name": "c2", "family": "gumbel", "columns": ["C", "D"], "tau": 0.5},
            {"name": "nest", "family": "frank", "children": ["c1", "c2"], "tau": 0.4},
        ], "seed": 1}))
        code = main(["simulate", "--model", str(model), "--n", "100000", "--seed", "1",
                     "--method", "exact", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        assert "clayton theta=98 d=2 left (0,1)" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_evaluation_error(self, fitted_world, monkeypatch, capsys):
        _, model, _ = fitted_world

        def nan_density(*args):
            raise EvaluationError("copula density evaluated to NaN")

        monkeypatch.setattr(cli, "model_density", nan_density)
        code = main(["density", "--model", str(model), "--point", "0.3,0.6,0.2,0.9"])
        assert code == 3
        assert "NaN" in capsys.readouterr().err


class TestRemovedFlags:
    """The model document alone sets its Monte Carlo size, epsilon rule and
    seed, and the rejection cap is a constant: the flags that once set them
    are usage errors."""

    @pytest.mark.parametrize("command, flag, value", [
        ("fit", "--kendall-mc", "5000"), ("fit", "--kendall-mode", "empirical"),
        ("simulate", "--kendall-mc", "5000"), ("simulate", "--epsilon", "0.05"),
        ("simulate", "--epsilon-mode", "abs"), ("density", "--kendall-mc", "5000"),
        ("backtest", "--kendall-mc", "5000"), ("backtest", "--epsilon", "0.05"),
        ("backtest", "--epsilon-mode", "abs"), ("simulate", "--max-attempts", "5"),
        ("backtest", "--max-attempts", "5")])
    def test_is_a_usage_error(self, fitted_world, capsys, command, flag, value):
        tmp, model, _ = fitted_world
        required = {
            "fit": ["--data", "d.csv", "--out", "r.json"],
            "simulate": ["--n", "10", "--out", "x.csv"],
            "density": ["--point", "0.5,0.5,0.5,0.5"],
            "backtest": ["--data", "d.csv", "--window", "100", "--out", "bt.json"]}
        with pytest.raises(SystemExit) as info:
            main([command, "--model", str(model), *required[command], flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


class TestRefusedFiles:
    """Unreadable data, model files and points exit 2 with a message that
    names them, and nothing is written."""

    @pytest.mark.parametrize("text, named", [
        ("", "empty file"),
        ("A,B,A,D\n0.1,0.2,0.3,0.4\n", "duplicate column names in header"),
        ("A,B,C,D\n0.1,0.2,0.3,0.4\n\n0.5,0.6,0.7,0.8\n", "line 3: blank line"),
        ("A,B,C,D\n0.1,0.2,0.3,0.4\n0.5,0.6,0.7\n", "line 3: expected 4 fields, got 3")],
        ids=["empty", "duplicate-header", "blank-line", "field-count"])
    def test_csv_refusal(self, fitted_world, capsys, text, named):
        tmp, _, fit_cfg = fitted_world
        data = tmp / "bad.csv"
        data.write_text(text)
        with pytest.raises(DataError, match=re.escape(f"{data}: {named}")):
            read_csv(str(data))
        code = main(["fit", "--data", str(data), "--model", str(fit_cfg),
                     "--out", str(tmp / "r.json")])
        assert code == 2 and capsys.readouterr().err == f"error: {data}: {named}\n"
        assert not (tmp / "r.json").exists()

    @pytest.mark.parametrize("text, named", [
        (None, "model file not found: {path}"),
        ('{"nodes": [}', "{path}: invalid JSON at line 1: Expecting value")],
        ids=["missing", "invalid-json"])
    def test_model_file_refusal(self, tmp_path, capsys, text, named):
        path = tmp_path / "model.json"
        if text is not None:
            path.write_text(text)
        code = main(["simulate", "--model", str(path), "--n", "10",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {named.format(path=path)}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_kendall_family_without_theta(self, capsys):
        code = main(["kendall", "--family", "clayton", "--dim", "3", "--grid", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: --theta required for family clayton\n"


def test_module_entry_point(tmp_path, capsys):
    """``python -m hierkendall.cli`` runs ``main`` and exits with its code."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["kendall", "--family", "clayton", "--theta", "2", "--dim", "3", "--grid", "3"]
    run = subprocess.run([sys.executable, "-m", "hierkendall.cli", *argv],
                         capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "t,K" and len(run.stdout.splitlines()) == 4
    assert main(argv) == 0 and run.stdout == capsys.readouterr().out
    run = subprocess.run(
        [sys.executable, "-m", "hierkendall.cli", "simulate", "--model", "m.json",
         "--n", "1", "--out", "x.csv", "--kendall-mc", "5000"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert run.returncode == 2 and "unrecognized arguments: --kendall-mc" in run.stderr


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


_CONFIG = {"nodes": [
    {"name": "c1", "family": "clayton", "columns": ["A", "B"], "tau": 0.5},
    {"name": "c2", "family": "gumbel", "columns": ["C", "D"], "tau": 0.5},
    {"name": "nest", "family": "frank", "children": ["c1", "c2"], "tau": 0.4},
], "seed": 42}


def _edited(**edits):
    """``_CONFIG`` with node fields replaced (``None`` drops one), extra
    nodes appended, or top-level keys set."""
    doc = copy.deepcopy(_CONFIG)
    nodes = {n["name"]: n for n in doc["nodes"]}
    for key, value in edits.items():
        if key == "extra":
            doc["nodes"].extend(value)
        elif key in nodes:
            for field, v in value.items():
                if v is None:
                    del nodes[key][field]
                else:
                    nodes[key][field] = v
        else:
            doc[key] = value
    return doc


class TestModelConfigRefusals:
    """Every malformed config exits 2 naming its node or key, and writes nothing."""

    @pytest.mark.parametrize("doc, named", [
        (_edited(c1={"columns": 5}), "node 'c1': 'columns'"),
        (_edited(c1={"name": ["c1"]}), "'name'"),
        (_edited(nest={"children": [["c1"], "c2"]}), "node 'nest': 'children'"),
        (_edited(nest={"children": "c1"}), "node 'nest': 'children'"),
        (_edited(c1={"tau": "0.5"}), "node 'c1': 'tau'"),
        (_edited(c1={"family": "gaussian", "tau": None, "corr": [[1.0, "x"], [0.5, 1.0]]}),
         "node 'c1': 'corr'"),
        (_edited(kendall_mc_size=None), "'kendall_mc_size'"),
        (_edited(kendall_mc_size=5, c1={"family": "gaussian", "tau": None,
                                        "corr": [[1.0, 0.5], [0.5, 1.0]]}),
         "'kendall_mc_size'"),
        (_edited(epsilon_rule="rel"), "'epsilon_rule'"),
        (_edited(epsilon_rule={"mode": "abs", "value": "0.01"}), "'epsilon_rule'"),
        (_edited(epsilon_rule={"mode": "abs", "value": True}), "'epsilon_rule'"),
        (_edited(epsilon_rule={"mode": ["rel"]}), "'epsilon_rule'"),
        (_edited(seed=1.5), "'seed'"),
        (_edited(seed=True), "'seed'"),
        (_edited(seed=-1), "'seed'"),
        ([1, 2], "'nodes'"),
        (_edited(extra=[{"name": "c1", "family": "clayton", "columns": ["E", "F"]}]),
         "duplicate node name 'c1'"),
        (_edited(nest={"children": ["c1", "c2", "m"]},
                 extra=[{"name": "m", "family": "clayton", "children": ["c1"]}]),
         "node 'c1' referenced by two parents"),
        (_edited(nest={"children": ["c1", "cx"]}), "node 'nest': unknown child 'cx'"),
        (_edited(extra=[{"name": "c3", "family": "clayton", "columns": ["E", "F"]}]),
         "'c3'"),
        (_edited(extra=[{"name": "a", "family": "clayton", "children": ["b"]},
                        {"name": "b", "family": "clayton", "children": ["a"]}]),
         "nodes ['a', 'b'] not reachable"),
        (_edited(c2={"columns": ["B", "C"]}), "node 'c2': column 'B'"),
        (_edited(c1={"family": None}), "node 'c1': missing 'family'"),
        (_edited(c1={"children": ["c2"]}), "node 'c1': exactly one of"),
        (_edited(c1={"columns": None}), "node 'c1': exactly one of"),
        (_edited(c1={"family": "gaussian", "tau": None, "corr": [[1, 0.5], [0.5]]}),
         "node 'c1': 'corr'"),
        (_edited(c1={"family": "gaussian", "tau": None, "corr": [[1, 2], [2, 1]]}),
         "node 'c1': correlation matrix not positive definite"),
        (_edited(c1={"family": "gaussian", "tau": None, "corr": [[1, 0.5], [0.4, 1]]}),
         "node 'c1': correlation matrix must be symmetric"),
        (_edited(c1={"tau": None, "theta": -1}), "node 'c1': clayton requires theta > 0"),
        (_edited(c1={"tau": None, "theta": 10**400}), "node 'c1': 'theta' must be a number"),
        (_edited(c1={"family": "gaussian", "tau": None,
                     "corr": [[1, 10**400], [10**400, 1]]}), "node 'c1': 'corr' must be"),
        (_edited(c1={"tau": 1.5}), "node 'c1': clayton requires tau in (0,1)"),
        (_edited(c1={"family": "student_t", "tau": None, "corr": [[1, 0.5], [0.5, 1]],
                     "nu": 1.5}), "node 'c1': student_t requires nu > 2"),
        ({"format": "hierkendall-report/1", "columns": ["A", "B", "C", "D"]}, "'model'"),
        ({"format": "hierkendall-report/1", "columns": 5, "model": _CONFIG}, "'columns'"),
        ({"format": "hierkendall-report/1", "columns": ["A", 5], "model": _CONFIG},
         "'columns'"),
    ], ids=["columns-number", "name-list", "child-list", "children-string", "tau-string",
            "corr-string", "mc-null", "mc-below-floor", "epsilon-string", "epsilon-value-string",
            "epsilon-value-bool", "epsilon-mode-list", "seed-fraction", "seed-bool",
            "seed-negative", "top-level-list", "duplicate-name", "two-parents",
            "unknown-child", "two-roots", "unreachable", "duplicate-column",
            "missing-family", "columns-and-children", "neither", "corr-ragged",
            "corr-not-positive-definite", "corr-asymmetric", "theta-negative",
            "theta-beyond-float", "corr-beyond-float",
            "tau-above-one", "nu-below-two", "report-without-model", "report-columns-number",
            "report-columns-mixed"])
    def test_exits_2_naming_the_node_or_key(self, tmp_path, capsys, doc, named):
        path, out = tmp_path / "m.json", tmp_path / "sim.csv"
        path.write_text(json.dumps(doc))
        code = main(["simulate", "--model", str(path), "--n", "10", "--seed", "1",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and named in err, err
        assert not out.exists()

    @pytest.mark.parametrize("params, named", [
        ({"nu": math.inf, "corr": [[1, 0.5], [0.5, 1]]}, "nu > 2 and finite, got inf"),
        ({"nu": 4, "corr": [[1, math.inf], [math.inf, 1]]}, "entries must be finite"),
        ({"nu": 4, "corr": [[1, math.nan], [math.nan, 1]]}, "entries must be finite")],
        ids=["nu-infinite", "corr-infinite", "corr-nan"])
    @pytest.mark.parametrize("command", ["simulate", "density"])
    def test_non_finite_student_t_exits_2_before_any_work(self, tmp_path, capsys, params,
                                                          named, command):
        """Python's json reads Infinity and NaN; a copula refuses them when it is
        built, before a draw or a density is tried (exit 3 after 1e7 rejection
        candidates, or a NaN density, if it did not)."""
        path, out = tmp_path / "m.json", tmp_path / "sim.csv"
        path.write_text(json.dumps(_edited(c1={"family": "student_t", "tau": None,
                                               **params})))
        args = (["--n", "5", "--seed", "1", "--out", str(out)] if command == "simulate"
                else ["--point", "0.3,0.4,0.6,0.7"])
        code = main([command, "--model", str(path), *args])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: node 'c1': ") and named in captured.err
        assert not out.exists()


def test_readme_config_example_runs(tmp_path, capsys):
    """The first JSON block of README.md is a valid config for the CLI."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "model.json"
    path.write_text(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
    assert main(["simulate", "--model", str(path), "--n", "50", "--seed", "5",
                 "--out", str(tmp_path / "sim.csv")]) == 0
    capsys.readouterr()
    assert main(["density", "--model", str(path), "--point", "0.3,0.4,0.6,0.7"]) == 0
    assert math.isfinite(float(capsys.readouterr().out.strip()))


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

    @staticmethod
    def _printed(capsys):
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,K"
        return np.array([[float(x) for x in line.split(",")] for line in lines[1:]]).T

    def test_prints_to_stdout_without_out(self, capsys):
        assert main(["kendall", "--family", "clayton", "--theta", "2", "--dim", "2",
                     "--grid", "3"]) == 0
        t, k = self._printed(capsys)
        np.testing.assert_array_equal(t, [0.25, 0.5, 0.75])
        # Clayton at d = 2: K(t) = t + t (1 - t^theta) / theta
        np.testing.assert_allclose(k, t + t * (1.0 - t ** 2) / 2.0, rtol=1e-12)

    def test_stdout_is_the_bytes_of_the_out_file(self, tmp_path, capsys):
        args = ["kendall", "--family", "gumbel", "--theta", "1.7", "--dim", "4", "--grid", "7"]
        assert main(args) == 0
        printed = capsys.readouterr().out.encode()
        assert main([*args, "--out", str(tmp_path / "k.csv")]) == 0
        assert printed == (tmp_path / "k.csv").read_bytes()

    def test_negative_dependence_frank_above_d2_is_refused(self, capsys):
        code = main(["kendall", "--family", "frank", "--theta", "-2", "--dim", "3",
                     "--grid", "3"])
        captured = capsys.readouterr()
        assert code == 2 and "only exists for d = 2" in captured.err
        assert captured.out == ""

    def test_independence_family_needs_no_theta(self, capsys):
        assert main(["kendall", "--family", "independence", "--dim", "3", "--grid", "4"]) == 0
        t, k = self._printed(capsys)
        log_t = np.log(t)
        np.testing.assert_allclose(k, t * (1.0 - log_t + 0.5 * log_t ** 2), rtol=1e-12)


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


    def test_seed_picks_the_forecast_streams_only(self, tmp_path):
        # a Gaussian cluster's Monte Carlo Kendall function is built in every
        # refit; it draws from the document's seed, not from --seed
        config = {
            "nodes": [
                {"name": "g", "family": "gaussian", "columns": ["A", "B"]},
                {"name": "c", "family": "clayton", "columns": ["C", "D"]},
                {"name": "nest", "family": "frank", "children": ["g", "c"]},
            ],
            "kendall_mc_size": 1000,
            "seed": 7,
        }
        cfg = tmp_path / "bt-model.json"
        cfg.write_text(json.dumps(config))
        header = ["A", "B", "C", "D"]
        data = np.random.default_rng(8).normal(size=(45, 4))
        write_csv(str(tmp_path / "raw.csv"), header, data)
        out = tmp_path / "bt.json"
        assert main(["backtest", "--data", str(tmp_path / "raw.csv"), "--model", str(cfg),
                     "--level", "0.9", "--window", "40", "--horizon", "3", "--mc", "300",
                     "--seed", "3", "--out", str(out)]) in (0, 3)
        parsed = load_model_document(str(cfg), header)
        want = rolling_backtest(
            data, parsed.spec, level=0.9, window=40, horizon=3, mc=300,
            seed=3, eps_rule=parsed.epsilon_rule,
            fit_options=estimation.FitOptions(kendall_mc=1000, seed=7))
        assert json.loads(out.read_text())["var_series"] == want.var_series.tolist()


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

    def test_failed_method_reports_its_reason(self, tmp_path, monkeypatch):
        def failing(report, u, options=None):
            raise EvaluationError('no "finite" log-likelihood')

        monkeypatch.setattr(estimation, "fit_joint_mle", failing)
        cfg = {"nesting_taus": [0.4], "sample_sizes": [250],
               "methods": ["two_step_closed", "joint_mle"]}
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "study.csv"
        assert main(["study", "--config", str(cfg_path), "--replications", "2",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["fail_reason"] for r in rows] == [
            "", '2x EvaluationError: no "finite" log-likelihood']
        assert rows[1]["n_fail"] == "2"

    @pytest.mark.parametrize("overrides, named", [
        ({"replications": 1, "bogus": 1}, "['bogus']"), ([0.4], "JSON object"),
        ({"replications": "two"}, "'replications'"), ({"nesting_taus": 0.4}, "'nesting_taus'"),
        ({"cluster_taus": [0.4]}, "'cluster_taus'"),
        ({"nesting_family": "gaussian"}, "'nesting_family'"),
        ({"nesting_family": "independence"}, "'nesting_family'"),
        ({"cluster_families": ["gaussian", "clayton"]}, "'cluster_families'"),
        ({"cluster_families": ["clayton"], "cluster_taus": [0.4]}, "'cluster_families'"),
        ({"methods": []}, "'methods' must be nonempty"),
        ({"methods": ["two_step_closed", "no_such_method"]}, "'methods' must be drawn"),
        ({"cluster_taus": [1.5, 0.4]},
         "error: study setting 'cluster_taus': clayton requires tau in (0,1), got 1.5")],
        ids=["unknown-key", "not-an-object", "string-count", "number-for-list",
             "short-taus", "gaussian-nesting", "independence-nesting", "gaussian-cluster",
             "one-cluster", "no-method", "unknown-method", "unreachable-cluster-tau"])
    def test_bad_overrides_are_input_errors(self, tmp_path, capsys, overrides, named):
        cfg_path = tmp_path / "study.json"
        cfg_path.write_text(json.dumps(overrides))
        code = main(["study", "--config", str(cfg_path), "--out", str(tmp_path / "s.csv")])
        assert code == 2 and named in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("text, named", [
        (None, "study config file not found: {path}"),
        ('{"replications": }', "{path}: invalid JSON at line 1: Expecting value")],
        ids=["missing", "invalid-json"])
    def test_config_file_refusal(self, tmp_path, capsys, text, named):
        """The study config file is read by the rule the --model file follows."""
        path = tmp_path / "study.json"
        if text is not None:
            path.write_text(text)
        code = main(["study", "--config", str(path), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {named.format(path=path)}\n"
        assert not (tmp_path / "s.csv").exists()


class TestOutputFileMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    @pytest.mark.parametrize("write", [
        lambda path: write_csv(path, ["A"], np.array([[0.5]])),
        lambda path: write_json(path, {"a": 1})], ids=["csv", "json"])
    def test_written_files_follow_the_umask(self, tmp_path, write, umask, mode):
        """An atomic write gives the mode a plain open(path, "w") would."""
        path = tmp_path / "out"
        old = os.umask(umask)
        try:
            write(str(path))
        finally:
            os.umask(old)
        assert path.stat().st_mode & 0o777 == mode
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestJsonReports:
    def test_non_finite_numbers_are_written_as_null(self, tmp_path):
        path = tmp_path / "r.json"
        write_json(str(path), {"a": math.nan, "b": [1.5, -math.inf, {"c": math.inf}],
                               "d": np.float64("nan"), "e": (2.0, "x")})

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads(path.read_text(), parse_constant=refuse)
        assert doc == {"a": None, "b": [1.5, None, {"c": None}], "d": None, "e": [2.0, "x"]}
