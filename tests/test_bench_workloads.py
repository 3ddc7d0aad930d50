"""The benchmark's workloads, run through their own output checks.

``perfbench/workloads.py`` drives the package through the calls the
benchmark times and checks each call's output (``perfbench/checks.py``).
The perfbench tests are not part of the main suite, so this runs every
workload here at full size, seeds 1-3, through the driver of
``scripts/output_digest.py``: the package's own layer modules, no
reference copy, no tracer, and a temporary work directory. Each seed runs
the set-up, every input and one cycle per input (at least one), and every
check must find no problem.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digest.py"
spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
output_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digest)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(output_digest.load_workloads()[1]))
def test_workload_outputs_pass_their_checks(tmp_path, name, seed):
    _, problems = output_digest.run_workload(name, seed, False, str(tmp_path))
    assert problems == []
