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
    first = output_digest.workload_digests([1], smoke=True)
    second = output_digest.workload_digests([1], smoke=True)
    assert first == second
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
