#!/usr/bin/env python3
"""Digest the outputs of the benchmark workloads, to check a change keeps them bit for bit.

Run in a checkout: each workload of ``perfbench/workloads.py`` is driven
with that checkout's own ``src`` modules, with no reference copy and no
tracer. Per seed it runs ``setup()``, every ``make_input(k)`` and
``cycle(i)`` once per input (at least once), and records the sha256 of
every call's output and of the workload's built model (``model``), data
pool (``pool``) and reference model (``ref``) where it has them. Each
output also goes through the workload's own check, as in the benchmark;
a run whose checks report a problem lists it on standard error and exits
1, the digests still written.
Dataclasses are hashed field by field, arrays by dtype, shape and bytes,
floats by ``float.hex``.

    python3 scripts/output_digest.py --seeds 1 2 3 --out change.json
    (cd ../parent && python3 scripts/output_digest.py --seeds 1 2 3 --out parent.json)
    python3 scripts/output_digest.py --compare parent.json change.json

``--compare`` lists the keys whose digests differ (or that only one file
has) and exits 1 if there are any.
"""

import argparse
import dataclasses
import hashlib
import importlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
ATTRIBUTES = ("model", "pool", "ref")  # what a workload's set-up and inputs build


def _feed(h, obj) -> None:
    """Feed a type tag and the content of ``obj`` to the hash ``h``."""
    if obj is None:
        h.update(b"n;")
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"b1;" if obj else b"b0;")
    elif isinstance(obj, (int, np.integer)):
        h.update(f"i{int(obj)};".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()};".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:{obj}".encode())
    elif isinstance(obj, np.ndarray):
        if obj.dtype == object:
            raise TypeError("object arrays have no stable digest")
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = dataclasses.fields(obj)
        h.update(f"d{type(obj).__name__}{len(fields)}(".encode())
        for f in fields:
            h.update(f"{f.name}=".encode())
            _feed(h, getattr(obj, f.name))
        h.update(b")")
    elif isinstance(obj, (list, tuple)):
        h.update(f"{type(obj).__name__[0]}{len(obj)}[".encode())
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(f"m{len(obj)}{{".encode())
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def load_workloads():
    """(layer modules, workload classes) of this checkout: the package from
    its ``src``, the workloads from its ``perfbench``."""
    for path in (ROOT / "src", ROOT / "perfbench"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from tracing import LAYERS
    from workloads import WORKLOADS

    mods = {layer: importlib.import_module(f"hierkendall.{layer}") for layer in LAYERS}
    return mods, WORKLOADS


def _run_cycle(cycle, key: str, out: dict, problems: list) -> None:
    """Drive one cycle generator as the benchmark's runner does, recording
    each call's output digest and the problems its check reports."""
    sent, k = None, 0
    while True:
        try:
            name, call, check = cycle.send(sent)
        except StopIteration:
            return
        t0 = time.perf_counter()
        result = call()
        sent = (result, time.perf_counter() - t0)
        call_key = f"{key}/{k}:{name}"
        out[call_key] = digest(result)
        problems += [f"{call_key}: {p}" for p in check(result)]
        k += 1


def run_workload(name: str, seed: int, smoke: bool, work_dir: str):
    """(digests, problems) of one run of workload ``name``: its set-up, every
    input, and one cycle per input (at least one). Digests are keyed
    ``<attribute>`` or ``cycle<i>/<k>:<call>``; each check problem is
    prefixed with its call's key."""
    mods, workloads = load_workloads()
    wl = workloads[name](mods, seed, smoke, work_dir)
    wl.setup()
    for k in range(wl.n_inputs):
        wl.make_input(k)
    out = {attr: digest(getattr(wl, attr)) for attr in ATTRIBUTES if hasattr(wl, attr)}
    problems = []
    for i in range(max(1, wl.n_inputs)):
        _run_cycle(wl.cycle(i), f"cycle{i}", out, problems)
    return out, problems


def workload_digests(seeds, smoke: bool = False):
    """(digests, problems) of every workload at every seed: digests keyed
    ``<workload>/seed<s>/<attribute>`` or ``<workload>/seed<s>/cycle<i>/<k>:<call>``,
    and the problems the workloads' output checks report."""
    out, problems = {}, []
    for name in sorted(load_workloads()[1]):
        for seed in seeds:
            key = f"{name}/seed{seed}"
            with tempfile.TemporaryDirectory() as work_dir:
                digests, found = run_workload(name, seed, smoke, work_dir)
            out.update((f"{key}/{k}", v) for k, v in digests.items())
            problems += [f"{key}/{p}" for p in found]
    return out, problems


def compare(a: dict, b: dict) -> list:
    """The keys whose digests differ or that only one of ``a``, ``b`` holds."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    p.add_argument("--smoke", action="store_true", help="the workloads' reduced sizes")
    p.add_argument("--out", help="write the digests here (default: standard output)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"),
                   help="compare two digest files instead of running")
    args = p.parse_args(argv)
    if args.compare:
        a, b = (json.loads(Path(f).read_text()) for f in args.compare)
        differ = compare(a, b)
        for key in differ:
            print(f"differs: {key}")
        print(f"{len(differ)} of {len(a.keys() | b.keys())} digests differ")
        return 1 if differ else 0
    digests, problems = workload_digests(args.seeds, args.smoke)
    text = json.dumps(digests, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
