import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def run_output(path, seed, fit_rel, day_s=0.1, traced=False):
    prov = {"workload": "elliptical", "pairs": 3,
            "detail": {"backtest_day_s": {"value": day_s, "unit": "s"}},
            "provenance": {"seed": seed, "git_sha": "abc", "workload": "elliptical"}}
    metrics = ({"trace.spans": {"value": 184, "unit": "count"}} if traced else
               {"fit_rel": {"value": fit_rel, "unit": "1"},
                "peak_rss_mb": {"value": 100.0, "unit": "MB"}})
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    path.write_text("noise on stdout\n" + json.dumps(prov) + "\n" + json.dumps(result) + "\n")
    return path


def test_folds_runs_into_labelled_medians(tmp_path):
    bench = tmp_path / "BENCH.json"
    parent = [run_output(tmp_path / f"p{s}.txt", s, v)
              for s, v in ((1, 0.09), (2, 0.1), (3, 0.11))]
    change = [run_output(tmp_path / f"c{s}.txt", s, v) for s, v in ((1, 0.02), (2, 0.03))]
    assert bench_record.main([str(bench), "--label", "parent", *map(str, parent)]) == 0
    assert bench_record.main([str(bench), "--label", "change", *map(str, change)]) == 0
    doc = json.loads(bench.read_text())
    assert [r["label"] for r in doc["runs"]] == ["parent"] * 3 + ["change"] * 2
    fit = doc["summary"]["parent"]["elliptical"]["fit_rel"]
    assert (fit["median"], fit["q1"], fit["q3"]) == pytest.approx((0.1, 0.095, 0.105))
    assert fit["n"] == 3
    assert doc["summary"]["change"]["elliptical"]["fit_rel"]["median"] == pytest.approx(0.025)


def test_keeps_detail_figures_of_untraced_runs(tmp_path):
    bench = tmp_path / "BENCH.json"
    runs = [run_output(tmp_path / f"c{s}.txt", s, 0.2, day_s)
            for s, day_s in ((1, 0.10), (2, 0.12), (3, 0.11))]
    traced = run_output(tmp_path / "t.txt", 4, None, 5.0, traced=True)
    assert bench_record.main([str(bench), "--label", "change",
                              *map(str, runs), str(traced)]) == 0
    doc = json.loads(bench.read_text())
    assert [r["detail"]["backtest_day_s"] for r in doc["runs"]] == [0.10, 0.12, 0.11, 5.0]
    day = doc["summary"]["change"]["elliptical"]["backtest_day_s"]
    assert (day["median"], day["n"], day["unit"]) == (pytest.approx(0.11), 3, "s")
    assert doc["summary"]["change"]["elliptical"]["trace.spans"]["n"] == 1


def test_rejects_output_without_result_line(tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("perfbench: no hierkendall sources\n")
    with pytest.raises(ValueError):
        bench_record.read_run(path)


def test_checkout_records_the_committed_src_tree(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    (repo / "src" / "m.py").write_text("x = 1\n")

    def git(*args):
        return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                               "-c", "user.email=t@t", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    git("add", "src")
    git("commit", "-q", "-m", "src")
    tree = git("rev-parse", "HEAD:src")
    bench = tmp_path / "BENCH.json"
    run = run_output(tmp_path / "c1.txt", 1, 0.02)
    assert bench_record.main([str(bench), "--label", "change", "--checkout", str(repo),
                              str(run)]) == 0
    (repo / "src" / "m.py").write_text("x = 2\n")
    assert bench_record.main([str(bench), "--label", "change", "--checkout", str(repo),
                              str(run)]) == 0
    runs = json.loads(bench.read_text())["runs"]
    assert [(r["src_tree"], r["src_dirty"]) for r in runs] == [(tree, False), (tree, True)]
