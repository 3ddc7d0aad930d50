"""The benchmark's workloads, run through their own output checks.

``perfbench/workloads.py`` drives the package through the calls the
benchmark times and checks each call's output (``perfbench/checks.py``).
The perfbench tests are not part of the main suite, so this runs every
workload here at full size, seeds 1-3, with the package's own layer
modules: no reference copy, no tracer, and a temporary work directory.
Each seed runs the set-up, every input and one cycle per input (at least
one), and every check must find no problem.
"""

import importlib
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from tracing import LAYERS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _run_cycle(cycle) -> list:
    """Drive one cycle generator as the benchmark's runner does, untimed
    checks included; returns the problems its checks report."""
    problems, sent = [], None
    while True:
        try:
            name, call, check = cycle.send(sent)
        except StopIteration:
            return problems
        t0 = time.perf_counter()
        out = call()
        sent = (out, time.perf_counter() - t0)
        problems += [f"{name}: {p}" for p in check(out)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_outputs_pass_their_checks(tmp_path, name, seed):
    mods = {layer: importlib.import_module(f"hierkendall.{layer}") for layer in LAYERS}
    wl = WORKLOADS[name](mods, seed, False, str(tmp_path))
    wl.setup()
    for k in range(wl.n_inputs):
        wl.make_input(k)
    problems = []
    for i in range(max(1, wl.n_inputs)):
        problems += _run_cycle(wl.cycle(i))
    assert problems == []
