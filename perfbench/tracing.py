"""Span tracing of the hierkendall layers, installed from outside the package.

The package modules bind the functions of the layer below with
``from .x import y``, so each caller holds its own reference. The tracer
replaces those references (``hierarchical.kendall_inverse``,
``levelset.copula_cdf``, ...) with wrappers that record one span per call
and puts the originals back when it is removed. Functions that a module
imports inside a function body (``copula_sample`` importing
``kendall_inverse``) are looked up on the defining module at call time, so
the defining module's own attribute is patched as well.

A span is ``[name, caller, parent, top, start, end, tags]``: ``parent`` is
the index of the enclosing span (-1 for a top-level call), ``top`` the index
of the top-level call it belongs to. Spans stay in memory until the run
ends.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

import numpy as np

NAME, CALLER, PARENT, TOP, START, END, TAGS = range(7)

LAYERS = ("generators", "kendall", "levelset", "copulas", "hierarchical",
          "estimation", "backtest", "modelconfig")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(u):
    return int(np.shape(u)[0]) if np.ndim(u) == 2 else 1


def _cdf_kind(c):
    if type(c).__name__ in ("ArchimedeanCopula", "IndependenceCopula"):
        return "archimedean"
    return f"elliptical_d{c.dim}"


# callee layer -> function -> tagger(args, kwargs, result) or None
TAGGERS = {
    "generators": {
        "generator_value": None,
        "generator_inverse": None,
        "generator_derivative_log": None,
        "generator_inverse_derivative_log": None,
    },
    "kendall": {
        "kendall_cdf": lambda a, k, r: {"points": int(np.size(_arg(a, k, 1, "t")))},
        "kendall_inverse": lambda a, k, r: {"points": int(np.size(_arg(a, k, 1, "p")))},
        "empirical_kendall_build": lambda a, k, r: {"m": int(_arg(a, k, 1, "m"))},
    },
    "levelset": {
        "sample_levelset_conditional_batch":
            lambda a, k, r: {"rows": int(np.size(_arg(a, k, 2, "z")))},
        "sample_levelset_rejection_batch":
            lambda a, k, r: {"targets": int(np.size(_arg(a, k, 1, "z_targets"))),
                             "candidates": int(r[1])},
    },
    "copulas": {
        "copula_cdf": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "u")),
                                       "kind": _cdf_kind(_arg(a, k, 0, "c"))},
        "copula_logpdf": lambda a, k, r: {"rows": _rows(_arg(a, k, 1, "u"))},
        "copula_sample": lambda a, k, r: {"rows": int(_arg(a, k, 1, "n"))},
    },
    "hierarchical": {
        "model_sample": lambda a, k, r: {"rows": int(_arg(a, k, 1, "n"))},
        "model_loglik": lambda a, k, r: {"clamped": int(r.n_clamped)},
    },
    "estimation": {
        "fit_cluster": lambda a, k, r: {"nfev": int(r.n_evals)},
        "empirical_tau_matrix": None,
        "fit_two_step": None,
        "fit_joint_mle": lambda a, k, r: {"nfev": int(r.joint_evals)},
        "pseudo_observations": None,
    },
    "backtest": {
        "forecast_var": None,
        "window_margins": None,
        "rolling_backtest": None,
    },
    "modelconfig": {
        "write_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
        "read_csv": None,
    },
}

# caller module -> (callee layer, function) pairs whose binding is replaced.
# A module listed as its own caller is patched for calls made through its
# attribute: by the benchmark, by function-local imports, or internally.
PATCHES = {
    "kendall": [("generators", "generator_value"),
                ("generators", "generator_inverse_derivative_log"),
                ("kendall", "kendall_cdf"), ("kendall", "kendall_inverse")],
    "levelset": [("generators", "generator_value"), ("generators", "generator_inverse"),
                 ("copulas", "copula_cdf"), ("copulas", "copula_sample"),
                 ("levelset", "sample_levelset_conditional_batch")],
    "copulas": [("generators", "generator_value"), ("generators", "generator_inverse"),
                ("generators", "generator_derivative_log"),
                ("generators", "generator_inverse_derivative_log"),
                ("copulas", "copula_cdf"), ("copulas", "copula_sample")],
    "hierarchical": [("copulas", "copula_cdf"), ("copulas", "copula_logpdf"),
                     ("copulas", "copula_sample"), ("kendall", "kendall_cdf"),
                     ("kendall", "kendall_inverse"), ("kendall", "empirical_kendall_build"),
                     ("levelset", "sample_levelset_conditional_batch"),
                     ("levelset", "sample_levelset_rejection_batch"),
                     ("hierarchical", "model_sample")],
    "estimation": [("copulas", "copula_logpdf"), ("hierarchical", "model_loglik"),
                   ("hierarchical", "model_sample"), ("estimation", "fit_cluster"),
                   ("estimation", "empirical_tau_matrix"), ("estimation", "fit_two_step"),
                   ("estimation", "fit_joint_mle")],
    "backtest": [("estimation", "fit_two_step"), ("estimation", "pseudo_observations"),
                 ("hierarchical", "model_sample"), ("backtest", "forecast_var"),
                 ("backtest", "window_margins"), ("backtest", "rolling_backtest")],
    "modelconfig": [("modelconfig", "write_csv"), ("modelconfig", "read_csv")],
}


class Tracer:
    """Records spans while installed; ``install``/``remove`` swap the bindings."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._saved: list = []

    def install(self, package_modules: dict) -> None:
        originals = {}
        for caller, pairs in PATCHES.items():
            module = package_modules[caller]
            for layer, fname in pairs:
                key = (layer, fname)
                if key not in originals:
                    originals[key] = getattr(package_modules[layer], fname)
                self._saved.append((module, fname, getattr(module, fname)))
                setattr(module, fname, self._wrap(layer, fname, caller, originals[key]))

    def remove(self) -> None:
        while self._saved:
            module, fname, original = self._saved.pop()
            setattr(module, fname, original)

    def _wrap(self, layer, fname, caller, fn):
        name = f"{layer}.{fname}"
        tagger = TAGGERS[layer][fname]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            if stack:
                parent, top = stack[-1], stack[0]
            else:
                parent, top = -1, idx
            rec = [name, caller, parent, top, clock(), 0.0, None]
            spans.append(rec)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[TAGS] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
                rec[END] = clock()
            if tagger is not None:
                rec[TAGS] = tagger(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def write(self, path: str) -> None:
        """Write the spans as gzipped JSON lines, one list per span in the
        field order name, caller, parent, top, start, end, tags."""
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list, n_cycles: int, traced_wall_s: float) -> dict:
    """Per-layer metrics from the spans of ``n_cycles`` traced pipeline passes.

    Times and counts are per pass; ``traced_wall_s`` is the summed wall time
    of those passes, used for shares and top-level coverage.
    """
    dur = [rec[END] - rec[START] for rec in spans]
    child = [0.0] * len(spans)
    for i, rec in enumerate(spans):
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    total = defaultdict(float)   # name -> duration
    self_by = defaultdict(float)  # name -> self time
    calls = defaultdict(int)
    tags = defaultdict(float)     # (name, tag) -> summed tag value
    layer_self = defaultdict(float)
    cdf = defaultdict(lambda: [0, 0.0])  # kind -> [rows, seconds]
    inverse_cdf_evals = 0
    refit = [0, 0.0]
    top_s = 0.0
    for i, rec in enumerate(spans):
        name = rec[NAME]
        parent = rec[PARENT]
        if parent < 0:
            top_s += dur[i]
        if name == "kendall.kendall_cdf" and parent >= 0 and \
                spans[parent][NAME] == "kendall.kendall_inverse":
            inverse_cdf_evals += 1
            name = "kendall.kendall_cdf[inverse]"
        if name == "estimation.fit_two_step" and rec[CALLER] == "backtest":
            refit[0] += 1
            refit[1] += dur[i]
        total[name] += dur[i]
        self_by[name] += self_t[i]
        calls[name] += 1
        layer_self[name.split(".", 1)[0]] += self_t[i]
        t = rec[TAGS]
        if t:
            for key, val in t.items():
                if key == "kind":
                    cdf[val][0] += t["rows"]
                    cdf[val][1] += dur[i]
                elif key != "error":
                    tags[(name, key)] += val

    per = 1.0 / max(n_cycles, 1)
    m = {}

    def put(key, value, unit):
        m[key] = (float(value), unit)

    inv_d = "generators.generator_inverse_derivative_log"
    put("generators.inv_deriv_calls", calls[inv_d] * per, "count")
    put("generators.inv_deriv_s", total[inv_d] * per, "s")
    put("generators.inverse_s", total["generators.generator_inverse"] * per, "s")

    inv = "kendall.kendall_inverse"
    put("kendall.inverse_calls", calls[inv] * per, "count")
    put("kendall.inverse_points", tags[(inv, "points")] * per, "count")
    put("kendall.inverse_s", total[inv] * per, "s")
    put("kendall.inverse_self_s", self_by[inv] * per, "s")
    put("kendall.inverse_cdf_evals", inverse_cdf_evals / calls[inv] if calls[inv] else 0.0,
        "count")
    put("kendall.inverse_share", total[inv] / traced_wall_s if traced_wall_s > 0 else 0.0,
        "1")
    kc = "kendall.kendall_cdf"
    put("kendall.cdf_calls", calls[kc] * per, "count")
    put("kendall.cdf_points", tags[(kc, "points")] * per, "count")
    put("kendall.cdf_s", total[kc] * per, "s")
    eb = "kendall.empirical_kendall_build"
    put("kendall.empirical_build_m", tags[(eb, "m")] * per, "count")
    put("kendall.empirical_build_s", total[eb] * per, "s")

    cond = "levelset.sample_levelset_conditional_batch"
    put("levelset.conditional_rows", tags[(cond, "rows")] * per, "count")
    put("levelset.conditional_s", total[cond] * per, "s")
    rej = "levelset.sample_levelset_rejection_batch"
    targets, cands = tags[(rej, "targets")], tags[(rej, "candidates")]
    put("levelset.rejection_targets", targets * per, "count")
    put("levelset.rejection_candidates", cands * per, "count")
    put("levelset.rejection_accept_ratio", targets / cands if cands else 0.0, "1")
    put("levelset.rejection_s", total[rej] * per, "s")
    put("levelset.rejection_self_s", self_by[rej] * per, "s")

    for kind in ("archimedean", "elliptical_d2", "elliptical_d3"):
        put(f"copulas.cdf_rows.{kind}", cdf[kind][0] * per, "count")
        put(f"copulas.cdf_s.{kind}", cdf[kind][1] * per, "s")
    rows3, s3 = cdf["elliptical_d3"]
    put("copulas.cdf_us_per_row.elliptical_d3", 1e6 * s3 / rows3 if rows3 else 0.0, "us")
    put("copulas.logpdf_rows", tags[("copulas.copula_logpdf", "rows")] * per, "count")
    put("copulas.logpdf_s", total["copulas.copula_logpdf"] * per, "s")
    put("copulas.sample_rows", tags[("copulas.copula_sample", "rows")] * per, "count")
    put("copulas.sample_s", total["copulas.copula_sample"] * per, "s")

    ms = "hierarchical.model_sample"
    put("hierarchical.model_sample_rows", tags[(ms, "rows")] * per, "count")
    put("hierarchical.model_sample_s", total[ms] * per, "s")
    put("hierarchical.model_sample_self_s", self_by[ms] * per, "s")
    ml = "hierarchical.model_loglik"
    put("hierarchical.model_loglik_calls", calls[ml] * per, "count")
    put("hierarchical.model_loglik_s", total[ml] * per, "s")
    put("hierarchical.model_loglik_self_s", self_by[ml] * per, "s")
    put("hierarchical.loglik_clamped", tags[(ml, "clamped")] * per, "count")

    fc = "estimation.fit_cluster"
    put("estimation.fit_cluster_calls", calls[fc] * per, "count")
    put("estimation.fit_cluster_nfev", tags[(fc, "nfev")] * per, "count")
    put("estimation.fit_cluster_s", total[fc] * per, "s")
    put("estimation.fit_cluster_self_s", self_by[fc] * per, "s")
    put("estimation.tau_matrix_s", total["estimation.empirical_tau_matrix"] * per, "s")
    put("estimation.fit_two_step_s", total["estimation.fit_two_step"] * per, "s")
    put("estimation.joint_s", total["estimation.fit_joint_mle"] * per, "s")
    put("estimation.joint_nfev", tags[("estimation.fit_joint_mle", "nfev")] * per, "count")

    put("backtest.refit_calls", refit[0] * per, "count")
    put("backtest.refit_s", refit[1] * per, "s")
    put("backtest.forecast_calls", calls["backtest.forecast_var"] * per, "count")
    put("backtest.forecast_s", total["backtest.forecast_var"] * per, "s")
    put("backtest.margins_s", total["backtest.window_margins"] * per, "s")

    put("modelconfig.write_csv_s", total["modelconfig.write_csv"] * per, "s")
    put("modelconfig.read_csv_s", total["modelconfig.read_csv"] * per, "s")
    put("modelconfig.csv_bytes", tags[("modelconfig.write_csv", "bytes")] * per, "B")

    for layer in LAYERS:
        put(f"{layer}.self_s", layer_self[layer] * per, "s")
    put("trace.top_coverage", top_s / traced_wall_s if traced_wall_s > 0 else 0.0, "1")
    put("trace.spans", len(spans) * per, "count")
    return m
