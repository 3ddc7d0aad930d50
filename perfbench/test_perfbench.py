"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They run every workload once at smoke size, against the frozen reference
and with tracing, compare the emitted metrics with BENCHMARK.json, feed
deliberately corrupted outputs to the output checks, and run the benchmark
in a directory without sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

MODS, REF_MODS = run.load_packages()

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, VarBacktest  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# end-to-end figures defined on one workload only; they go on the detail line
COMMON = {"wall_s": "s", "fit_s": "s", "sim_rows_per_s": "1/s", "ops_failed_frac": "1"}
DETAIL = {"var_backtest": dict(COMMON, backtest_day_s="s", backtest_day_rel="1"),
          "joint_mle": dict(COMMON, loglik_evals_per_s="1/s", loglik_evals_rel="1"),
          "elliptical": COMMON}


def _run(trace):
    return {name: run.run_workload(name, seed=3, seconds=0.0, trace=trace, smoke=True,
                                   mods=MODS, ref_mods=REF_MODS)
            for name in WORKLOADS}


@pytest.fixture(scope="module")
def records():
    """Smoke runs against the reference copy, and traced smoke runs."""
    return {"plain": _run(False), "traced": _run(True)}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_emitted_with_unit(records, name):
    for mode, section in (("plain", "end_to_end"), ("traced", "per_layer")):
        rec = records[mode][name]
        assert rec["correct"], rec["problems"]
        assert rec["failed"] == 0 and rec["attempted"] >= 2
        want = {m["name"]: m["unit"] for m in BENCH[section]}
        got = {k: u for k, (_, u) in rec[section].items()}
        assert got == want
        for metric, (value, _) in rec[section].items():
            assert math.isfinite(value), metric
        assert rec["detail"]["ops_failed_frac"][0] == 0.0
    plain = records["plain"][name]
    for metric, (value, _) in plain["end_to_end"].items():
        assert value > 0.0, metric
    assert {k: u for k, (_, u) in plain["detail"].items()} == DETAIL[name]


def test_result_line_has_the_contract_keys(records):
    line = run.result_line(records["plain"]["joint_mle"], trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]["wall_rel"]) == {"value", "unit"}
    json.dumps(line)


def test_layer_predictions_hold(records):
    records = records["traced"]
    share = {n: r["per_layer"]["kendall.inverse_share"][0] for n, r in records.items()}
    assert share["joint_mle"] == 0.0
    assert share["var_backtest"] > 0.3
    d3 = {n: r["per_layer"]["copulas.cdf_s.elliptical_d3"][0] for n, r in records.items()}
    assert d3["elliptical"] > 0.0
    assert d3["var_backtest"] == 0.0 and d3["joint_mle"] == 0.0
    for rec in records.values():
        assert rec["per_layer"]["trace.top_coverage"][0] > 0.9


def test_tracer_restores_bindings():
    before = {(caller, fname): getattr(MODS[caller], fname)
              for caller, pairs in tracing.PATCHES.items() for _, fname in pairs}
    tracer = tracing.Tracer()
    tracer.install(MODS)
    assert MODS["hierarchical"].kendall_inverse is not before[("hierarchical",
                                                                "kendall_inverse")]
    tracer.remove()
    after = {key: getattr(MODS[key[0]], key[1]) for key in before}
    assert after == before


@pytest.fixture(scope="module")
def market_sample():
    wl = VarBacktest(MODS, seed=5, smoke=True, work_dir=str(run.OUT_DIR))
    wl.model = MODS["estimation"].build_model(wl.spec(True), n_vars=30, seed=5)
    u = MODS["hierarchical"].model_sample(wl.model, 2000, np.random.default_rng(5), "exact")
    return wl, u


def test_cluster_tau_check_trips_on_permuted_columns(market_sample):
    wl, u = market_sample
    assert checks.cluster_tau_problems(u, wl.clusters()) == []
    perm = np.random.default_rng(0).permutation(30)
    assert checks.cluster_tau_problems(u[:, perm], wl.clusters())


def test_pit_check_trips_on_permuted_columns(market_sample):
    wl, u = market_sample
    pit = MODS["hierarchical"].nesting_pit
    assert checks.uniform_columns_problems(pit(wl.model, u), "pit") == []
    swapped = u[:, ::-1]
    assert checks.uniform_columns_problems(pit(wl.model, swapped), "pit")


def test_csv_check_trips_on_swapped_columns(market_sample):
    _, u = market_sample
    header = [f"x{j}" for j in range(30)]
    assert checks.csv_roundtrip_problems(header, u, header, u.copy()) == []
    assert checks.csv_roundtrip_problems(header, u, header, u[:, ::-1])
    assert checks.csv_roundtrip_problems(header, u, header[::-1], u)


def test_var_check_trips_on_bad_series():
    good = types.SimpleNamespace(var_series=np.array([-1.5, -1.6]),
                                 realized=np.array([-2.0, 0.1]), n_exceed=1)
    assert checks.var_series_problems(good, 2) == []
    for series in ([1.5, -1.6], [np.nan, -1.6], [-1.5]):
        bad = types.SimpleNamespace(var_series=np.array(series),
                                    realized=good.realized[: len(series)], n_exceed=1)
        assert checks.var_series_problems(bad, 2)
    assert checks.var_series_problems(
        types.SimpleNamespace(var_series=good.var_series, realized=good.realized,
                              n_exceed=2), 2)


def _report(**fields):
    base = dict(loglik_two_step=100.0, loglik_joint=101.0, clamped_joint=0, converged=True,
                nodes=[types.SimpleNamespace(name="a", params={"tau": 0.5})])
    base.update(fields)
    return types.SimpleNamespace(**base)


def test_joint_check_trips_on_bad_fit():
    assert checks.joint_fit_problems(_report(), {"a": 0.5}, 4000) == []
    assert checks.joint_fit_problems(_report(loglik_joint=99.0), {"a": 0.5}, 4000)
    assert checks.joint_fit_problems(_report(clamped_joint=3), {"a": 0.5}, 4000)
    assert checks.joint_fit_problems(_report(converged=False), {"a": 0.5}, 4000)
    assert checks.joint_fit_problems(_report(), {"a": 0.3}, 4000)


def test_elliptical_check_trips_on_wrong_parameters():
    true = np.array([[1.0, 0.5], [0.5, 1.0]])
    u = np.random.default_rng(1).random((250, 2))

    def report(rho, nu):
        params = {"corr": [[1.0, rho], [rho, 1.0]], "nu": nu}
        return types.SimpleNamespace(nodes=[types.SimpleNamespace(name="t", params=params)])

    def t_ll(corr, nu, block):  # a log-likelihood peaked at nu = 5
        return -(nu - 5.0) ** 2

    truth = {"t": (true, 5.0)}
    assert checks.elliptical_fit_problems(report(0.52, 5.5), lambda n: u, truth, t_ll) == []
    assert checks.elliptical_fit_problems(report(0.05, 5.5), lambda n: u, truth, t_ll)
    assert checks.elliptical_fit_problems(report(0.52, 40.0), lambda n: u, truth, t_ll)


def test_exits_without_result_when_sources_are_missing():
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "joint_mle", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
