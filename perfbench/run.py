#!/usr/bin/env python3
"""Seeded benchmark of the hierkendall pipelines.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload var_backtest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke            # every workload once, reduced sizes

The package is imported from ``src/`` of the checkout this file sits in;
without it the run stops with exit code 2 and prints no result. A frozen
copy of the package, ``hierkendall_seed`` next to this file, is the
reference the end-to-end timings are measured against. Each run sets up
its workload several times (set-up time is the median), then runs pairs of
passes until the time is up. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``. The line before it carries provenance and the
package's own figures in seconds. A full record, and the spans of a traced
run, are written under ``.bench_out/`` in the checkout. See NOTES.md.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_REPEATS = 3

# the package as of the commit that introduced this benchmark, frozen
REFERENCE = "hierkendall_seed"


class SourceMissing(RuntimeError):
    pass


def load_packages() -> tuple:
    """Import hierkendall from this checkout's src/ and the frozen reference
    copy next to this file; return the layer modules of each."""
    if not (SRC / "hierkendall" / "__init__.py").is_file():
        raise SourceMissing(f"no hierkendall sources under {SRC}")
    # one thread of caller code: keep BLAS/OpenMP pools from competing with it
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import importlib

    import tracing

    pkg = importlib.import_module("hierkendall")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise SourceMissing(f"hierkendall imported from {pkg.__file__}, not {SRC}")
    return tuple({name: importlib.import_module(f"{top}.{name}") for name in tracing.LAYERS}
                 for top in ("hierkendall", REFERENCE))


def provenance(workload: str, seed: int, sizes: dict) -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": os.getloadavg(),
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
    }


class StepFailed(Exception):
    """A top-level call raised; the rest of the pass pair is skipped."""


class Runner:
    """Times the top-level calls of one side of a pass pair, traces them when
    it holds a tracer, and runs their output checks untimed and untraced."""

    def __init__(self, mods: dict, tracer=None, check: bool = True):
        self.mods = mods
        self.tracer = tracer
        self.check = check
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def step(self, name, call, check):
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.install(self.mods)
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failing call is counted, never fatal
            self.failed += 1
            self.problems.append(f"{name}: raised {type(exc).__name__}: {exc}")
            raise StepFailed(name) from exc
        finally:
            seconds = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.remove()
        if self.check:
            problems = check(out)
            if problems:
                self.failed += 1
                self.problems.extend(f"{name}: {p}" for p in problems)
        return out, seconds


def run_pair(sides: list, flip: int) -> list | None:
    """Run two passes call by call in lockstep; ``sides`` holds (pass
    generator, runner) twice. Returns each pass's figures plus its wall time
    (its calls and its own code between them, checks excluded), or None when
    a call raised.

    Interleaving the calls puts the two measurements of each call seconds
    apart. Which side goes first alternates from call to call, and ``flip``
    (0 or 1) swaps that order, so that over pairs every call position is
    led by both sides.
    """
    walls, sent, figures = [0.0, 0.0], [None, None], [None, None]
    try:
        for k in itertools.count():
            calls = [None, None]
            for j, (gen, _) in enumerate(sides):
                t0 = time.perf_counter()
                try:
                    calls[j] = gen.send(sent[j])
                except StopIteration as stop:
                    figures[j] = stop.value
                walls[j] += time.perf_counter() - t0
            if None not in figures:
                return [dict(f, wall_s=w) for f, w in zip(figures, walls)]
            if None in calls:
                raise RuntimeError("the two passes made different calls")
            for j in (0, 1) if (k + flip) % 2 == 0 else (1, 0):
                sent[j] = sides[j][1].step(*calls[j])
                walls[j] += sent[j][1]
    except StepFailed:
        return None
    finally:
        for gen, _ in sides:
            gen.close()


def _values(figure) -> list:
    return figure if isinstance(figure, list) else [figure]


def _median_ratio(pairs, key):
    """Median over pairs, and over the calls of a pair, of first over second."""
    return statistics.median(x / y for a, b in pairs
                             for x, y in zip(_values(a[key]), _values(b[key])))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 mods: dict, ref_mods: dict) -> dict:
    """Set up and run one workload; returns the full record of the run.

    Passes come in pairs over the same inputs: a plain pass of the package
    under test and either a traced pass of it (``trace``) or a pass of the
    frozen reference copy, their calls interleaved. Host speed on shared
    machines drifts by tens of percent from minute to minute; the ratio of
    the two sides of a pair does not, so the end-to-end timings are reported
    as the median ratio to the reference.
    """
    import tracing
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    wl = WORKLOADS[name](mods, seed, smoke, str(OUT_DIR))
    ref = None if trace else WORKLOADS[name](ref_mods, seed, smoke, str(OUT_DIR))
    prov = provenance(name, seed, wl.sizes)

    # set-up: the model and a warm-up pass, then the inputs one by one, each
    # made by the package and by the reference in turn
    inputs, setup_s = [], []  # (package, reference) figures per input; seconds
    for _ in range(1 if smoke else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        seconds_in = time.perf_counter() - t0
        if ref:
            ref.setup()
        for k in range(wl.n_inputs):
            theirs = ref.make_input(k) if ref and k % 2 else None
            t0 = time.perf_counter()
            mine = wl.make_input(k)
            seconds_in += time.perf_counter() - t0
            if ref and not k % 2:
                theirs = ref.make_input(k)
            inputs.append((mine, theirs))
        setup_s.append(seconds_in)

    tracer = tracing.Tracer() if trace else None
    runner = Runner(mods)
    if trace:
        other, other_runner = wl, Runner(mods, tracer=tracer)
    else:
        other, other_runner = ref, Runner(ref_mods, check=False)
    pairs = []  # (figures of the plain pass, figures of the second pass)
    start = time.perf_counter()
    i = 0
    while i < 1 or (not smoke and time.perf_counter() - start < seconds):
        pair = run_pair([(wl.cycle(i), runner), (other.cycle(i), other_runner)], i % 2)
        if pair is not None:
            pairs.append(tuple(pair))
        i += 1
    measure_s = time.perf_counter() - start
    if trace:  # both sides are the package: count and check both
        runner.attempted += other_runner.attempted
        runner.failed += other_runner.failed
        runner.problems += other_runner.problems

    if not pairs:
        raise RuntimeError(f"{name}: no pass completed; problems: {runner.problems[:5]}")
    plain = [a for a, _ in pairs]
    # figures of the package itself, in seconds and rows per second
    raw = {key: statistics.median(v for p in plain for v in _values(p[key]))
           for key in plain[0]}
    for key in inputs[0][0] if inputs else ():
        raw[key] = statistics.median(mine[key] for mine, _ in inputs)
    detail = {key: (val, "1/s" if key.endswith("_per_s") else "s") for key, val in raw.items()}
    detail["ops_failed_frac"] = (runner.failed / runner.attempted, "1")
    end_to_end = per_layer = None
    if trace:
        traced_wall = sum(b["wall_s"] for _, b in pairs)
        per_layer = tracing.layer_metrics(tracer.spans, len(pairs), traced_wall)
        per_layer["trace.overhead_frac"] = (
            statistics.median(b["wall_s"] / a["wall_s"] for a, b in pairs) - 1.0, "1")
        tracer.write(str(OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"))
    else:
        ratio = {key: _median_ratio(pairs, key) for key in plain[0]}
        for key in inputs[0][0] if inputs else ():
            ratio[key] = _median_ratio(inputs, key)
        for key, rel in (("backtest_day_s", "backtest_day_rel"),
                         ("loglik_evals_per_s", "loglik_evals_rel")):
            if key in ratio:
                detail[rel] = (ratio[key], "1")
        end_to_end = {
            "setup_s": (statistics.median(setup_s), "s"),
            "wall_rel": (ratio["wall_s"], "1"),
            "sim_rate_rel": (ratio["sim_rows_per_s"], "1"),
            "fit_rel": (ratio["fit_s"], "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }

    prov["loadavg_end"] = os.getloadavg()
    return {
        "workload": name, "provenance": prov,
        "correct": runner.failed == 0, "attempted": runner.attempted,
        "failed": runner.failed, "problems": runner.problems,
        "pairs": len(pairs), "pass_pairs": pairs, "measure_s": measure_s,
        "setup_runs_s": setup_s, "end_to_end": end_to_end, "detail": detail,
        "per_layer": per_layer,
    }


def _metrics(pairs: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in pairs.items()}


def result_line(record: dict, trace: bool) -> dict:
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": _metrics(record["per_layer"] if trace else record["end_to_end"])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hierkendall benchmark")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run each workload (or --workload) once at reduced size")
    args = ap.parse_args(argv)
    try:
        mods, ref_mods = load_packages()
    except SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        print("perfbench: --workload is required outside --smoke", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace)
    ok = True
    for name in names:
        record = run_workload(name, args.seed, args.seconds, trace, args.smoke, mods, ref_mods)
        tag = "smoke" if args.smoke else "run"
        with open(OUT_DIR / f"{tag}-{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(record, fh, indent=1, default=float)
        for p in record["problems"]:
            print(f"perfbench: {name}: {p}", file=sys.stderr)
        print(json.dumps({"workload": name, "provenance": record["provenance"],
                          "detail": _metrics(record["detail"]),
                          "pairs": record["pairs"]}, default=float))
        print(json.dumps(result_line(record, trace)))
        ok = ok and record["correct"]
    # a failed check is reported through "correct"; only a smoke run turns it
    # into the exit code
    return 1 if args.smoke and not ok else 0


if __name__ == "__main__":
    sys.exit(main())
