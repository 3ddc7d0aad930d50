"""``scripts/output_digest.py``: two runs of one checkout give equal
digests, and ``--compare`` reports a changed one."""

import importlib.util
import json
from pathlib import Path

import numpy as np

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


def test_two_runs_are_equal_and_compare_finds_a_change(tmp_path, capsys):
    first, problems = output_digest.workload_digests([1], smoke=True)
    second, _ = output_digest.workload_digests([1], smoke=True)
    assert first == second and problems == []
    assert {"joint_mle/seed1/model", "joint_mle/seed1/pool", "elliptical/seed1/ref",
            "var_backtest/seed1/cycle0/0:simulate",
            "joint_mle/seed1/cycle0/1:fit_joint_mle"} <= set(first)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(first))
    b.write_text(json.dumps(second))
    assert output_digest.main(["--compare", str(a), str(b)]) == 0
    key = "elliptical/seed1/cycle0/1:sample_rejection"
    b.write_text(json.dumps({**second, key: output_digest.digest(0.5)}))
    assert output_digest.main(["--compare", str(a), str(b)]) == 1
    assert f"differs: {key}" in capsys.readouterr().out


def test_digest_tells_values_and_types_apart():
    digest = output_digest.digest
    assert digest(1.0) != digest(1) != digest(True) != digest("1")
    assert digest(np.zeros(2)) != digest(np.zeros(2, dtype=np.float32))
    assert digest(np.zeros(2)) != digest(np.zeros((1, 2)))
    assert digest([0.1, 0.2]) == digest([0.1, 0.2]) != digest([0.1, np.nextafter(0.2, 1.0)])


class _FailingWorkload:
    n_inputs = 0

    def __init__(self, mods, seed, smoke, work_dir):
        pass

    def setup(self):
        pass

    def cycle(self, i):
        yield "call", lambda: 1.0, lambda out: [f"got {out}"]


def test_a_failed_check_is_listed_and_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(output_digest, "load_workloads",
                        lambda: ({}, {"failing": _FailingWorkload}))
    out = tmp_path / "digests.json"
    assert output_digest.main(["--seeds", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "check failed: failing/seed1/cycle0/0:call: got 1.0\n"
    assert json.loads(out.read_text()) == {
        "failing/seed1/cycle0/0:call": output_digest.digest(1.0)}
