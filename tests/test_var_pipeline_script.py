import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_short_run_reports_exceedances():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_var_pipeline.py"),
         "--window", "60", "--days", "3", "--mc", "500"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert re.search(r"^level 95%: \d+ exceedances in 3 days \(expected [0-9.]+\)$",
                     done.stdout, re.MULTILINE), done.stdout
