#!/usr/bin/env python3
"""Fold perfbench results into a committed BENCH_<PR>.json trajectory file.

Each input file holds the standard output of one ``perfbench/run.py`` run:
its provenance line (workload, seed, package versions, git commit, and the
package's own ``detail`` figures such as ``backtest_day_s`` and ``fit_s``)
and its result line (``correct``, ``attempted``, ``failed``, ``metrics``).
Every run is appended under ``runs`` with the given label, and ``summary``
is recomputed: per label, workload and metric, the median and quartiles
over the runs and their count. The detail figures are summarised alongside
the metrics, from untraced runs only: a traced run's timings include the
tracer's overhead.

``--checkout`` names the git checkout the runs were made in. Each run then
records ``src_tree``, the git tree hash of that checkout's committed
``src/``, and ``src_dirty``, whether ``src/`` had uncommitted edits; a
clean run measured the code whose ``git rev-parse <commit>:src`` matches.
The commit hash in the provenance line alone cannot say this: run.py
records ``HEAD`` even when the working tree differs from it.

Example, ten alternating runs of the parent commit and of the change:

    for s in 1 2 3 4 5 6 7 8 9 10; do
        (cd ../parent && python3 perfbench/run.py --workload elliptical \\
            --seed $s --seconds 20) > parent-$s.txt
        python3 perfbench/run.py --workload elliptical --seed $s --seconds 20 \\
            > change-$s.txt
    done
    python3 scripts/bench_record.py BENCH_<n>.json --label parent \\
        --checkout ../parent parent-*.txt
    python3 scripts/bench_record.py BENCH_<n>.json --label change \\
        --checkout . change-*.txt
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def read_run(path: Path) -> dict:
    """The provenance and result lines of one run.py output, as one record."""
    lines = [json.loads(ln) for ln in path.read_text().splitlines()
             if ln.startswith("{")]
    prov = next((ln for ln in lines if "provenance" in ln), None)
    result = next((ln for ln in reversed(lines) if "metrics" in ln), None)
    if prov is None or result is None:
        raise ValueError(f"{path}: no provenance and result line of perfbench/run.py")
    detail = prov.get("detail", {})
    return {"workload": prov["workload"], "seed": prov["provenance"]["seed"],
            "traced": "trace.spans" in result["metrics"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "detail": {k: m["value"] for k, m in detail.items()},
            "units": {k: m["unit"] for k, m in (*result["metrics"].items(), *detail.items())},
            "provenance": prov["provenance"]}


def source_tree(checkout: Path) -> dict:
    """The git tree hash of ``checkout``'s committed src/ and whether src/
    differs from it in the working tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True, timeout=30).stdout.strip()
    return {"src_tree": git("rev-parse", "HEAD:src"),
            "src_dirty": bool(git("status", "--porcelain", "--", "src"))}


def summarise(runs: list) -> dict:
    """{label: {workload: {metric: {median, q1, q3, n, unit}}}} over untraced
    and traced runs alike (their metric names do not overlap), and over the
    detail figures of untraced runs."""
    groups = {}
    for run in runs:
        per = groups.setdefault(run["label"], {}).setdefault(run["workload"], {})
        figures = dict(run["metrics"], **({} if run["traced"] else run.get("detail", {})))
        for key, value in figures.items():
            per.setdefault(key, ([], run["units"][key]))[0].append(value)
    out = {}
    for label, workloads in groups.items():
        for workload, metrics in workloads.items():
            for key, (values, unit) in metrics.items():
                q = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else [values[0]] * 3)
                out.setdefault(label, {}).setdefault(workload, {})[key] = {
                    "median": statistics.median(values), "q1": q[0], "q3": q[2],
                    "n": len(values), "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bench", type=Path, help="BENCH_<PR>.json to create or extend")
    ap.add_argument("--label", required=True,
                    help="which side the runs measure, for example parent or change")
    ap.add_argument("--checkout", type=Path,
                    help="git checkout the runs were made in, to record its src/ tree")
    ap.add_argument("runs", type=Path, nargs="+", help="saved run.py outputs")
    args = ap.parse_args(argv)
    doc = json.loads(args.bench.read_text()) if args.bench.exists() else {"runs": []}
    source = source_tree(args.checkout) if args.checkout else {}
    for path in args.runs:
        doc["runs"].append(dict(read_run(path), label=args.label, **source))
    doc["summary"] = summarise(doc["runs"])
    args.bench.write_text(json.dumps(doc, indent=1, allow_nan=False) + "\n")
    print(f"{args.bench}: {len(doc['runs'])} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
