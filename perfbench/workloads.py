"""The benchmark workloads.

Every workload is a closed loop with a single caller on one thread: it runs
pipeline passes ("cycles") back to back. A cycle is a fixed sequence of
top-level library calls; each call is timed on its own, and its output is
checked right after it, outside the timed region. ``cycle(i)`` is a
generator: it yields each top-level call as ``(name, call, check)``, gets
back ``(output, seconds)``, and returns its figures, a number or a list of
one number per call, so that the runner can interleave the calls of two
packages and compare them call by call. The workload seed is a
benchmark argument: the model, the inputs and every random stream of cycle
i come from (seed, i), and the library only receives the generated inputs.
The same workload class drives the package under test and the frozen seed
copy, each through its own modules.

Library functions are called through their module attributes
(``self.m.hierarchical.model_sample``) so that the tracer's wrappers see
the benchmark's own calls as top-level spans.
"""

from __future__ import annotations

import os
import tempfile
import time
import types

import numpy as np
from scipy import stats

import checks

# The market of scripts/run_var_pipeline.py: Frank sectors under a
# Student-t nesting copula, 30 variables.
SECTOR_SIZES = (5, 4, 3, 3, 3, 4, 3, 2, 2, 1)
SECTOR_TAUS = (0.41, 0.33, 0.21, 0.39, 0.38, 0.26, 0.28, 0.56, 0.29, 0.0)


class Workload:
    """Shared plumbing: module access and per-cycle random streams."""

    name = ""
    n_inputs = 0  # inputs made one by one by make_input after setup

    def __init__(self, mods: dict, seed: int, smoke: bool, work_dir: str):
        self.m = types.SimpleNamespace(**mods)
        self.seed = seed
        self.work_dir = work_dir
        self.sizes = self.SMOKE_SIZES if smoke else self.SIZES

    def rng(self, *path):
        return np.random.default_rng([self.seed, *path])

    def make_input(self, k: int) -> dict:
        return {}


class VarBacktest(Workload):
    name = "var_backtest"
    SIZES = dict(rows=5_000, sims=2, window=500, fits=3, days=2, refit_every=2, mc=10_000)
    SMOKE_SIZES = dict(rows=1_000, sims=1, window=150, fits=1, days=2, refit_every=2,
                       mc=1_000)
    LEVEL = 0.95

    def spec(self, with_params: bool, nesting_tau: float = 0.35, nesting_nu: float = 6.0):
        NodeSpec = self.m.estimation.NodeSpec
        leaves, start = [], 0
        for i, (size, tau) in enumerate(zip(SECTOR_SIZES, SECTOR_TAUS)):
            cols = tuple(range(start, start + size))
            start += size
            if size == 1:
                leaves.append(NodeSpec(f"sector{i}", "independence", columns=cols))
            else:
                leaves.append(NodeSpec(f"sector{i}", "frank", columns=cols,
                                       params={"tau": tau} if with_params else None))
        params = None
        if with_params:
            corr = np.full((10, 10), float(np.sin(0.5 * np.pi * nesting_tau)))
            np.fill_diagonal(corr, 1.0)
            params = {"corr": corr.tolist(), "nu": nesting_nu}
        return NodeSpec("market", "student_t", children=tuple(leaves), params=params)

    def clusters(self):
        out, start = [], 0
        for i, (size, tau) in enumerate(zip(SECTOR_SIZES, SECTOR_TAUS)):
            out.append((f"sector{i}", tuple(range(start, start + size)), tau))
            start += size
        return out

    def setup(self) -> None:
        m, s = self.m, self.sizes
        self.model = m.estimation.build_model(self.spec(True), n_vars=30, seed=self.seed)
        self.fit_spec = self.spec(False)
        self.options = m.estimation.FitOptions(kendall_mode="closed_form")
        self.header = [f"x{j}" for j in range(30)]
        # warm-up: one small simulate + fit fills the generator coefficient caches
        u = m.hierarchical.model_sample(self.model, 2 * s["window"], self.rng(0), "exact")
        m.estimation.fit_two_step(self.fit_spec,
                                  m.estimation.pseudo_observations(u[: s["window"]]),
                                  self.options)

    def cycle(self, i: int):
        m, s = self.m, self.sizes
        n, blocks, rates = s["rows"], [], []
        for k in range(s["sims"]):
            block, sim_s = yield ("simulate", lambda: m.hierarchical.model_sample(
                self.model, n, self.rng(1, i, k), "exact"),
                lambda out: (checks.shape_problems(out, n, 30, "simulate")
                             or checks.cluster_tau_problems(out, self.clusters())
                             + checks.uniform_columns_problems(
                                 m.hierarchical.nesting_pit(self.model, out), "nesting_pit")))
            blocks.append(block)
            rates.append(n / sim_s)
        u = np.vstack(blocks)
        fd, path = tempfile.mkstemp(suffix=".csv", dir=self.work_dir)
        os.close(fd)
        try:
            yield ("write_csv", lambda: m.modelconfig.write_csv(path, self.header, u),
                   lambda out: [])
            (_, data), _ = yield ("read_csv", lambda: m.modelconfig.read_csv(path),
                                  lambda out: checks.csv_roundtrip_problems(
                                      self.header, u, out[0], out[1]))
        finally:
            os.unlink(path)
        returns = stats.norm.ppf(np.clip(data, 1e-12, 1.0 - 1e-12))
        span = s["window"] + s["days"]
        offsets = self.rng(2, i).integers(0, len(u) - span + 1, size=s["fits"])
        taus = {nm: tau for nm, cols, tau in self.clusters() if len(cols) > 1}
        fit_times = []
        for offset in offsets:
            win = returns[offset: offset + s["window"]]
            _, fit_s = yield ("fit", lambda: m.estimation.fit_two_step(
                self.fit_spec, m.estimation.pseudo_observations(win), self.options),
                lambda out: checks.fitted_tau_problems(out, taus, s["window"]))
            fit_times.append(fit_s)
        _, bt_s = yield ("backtest", lambda: m.backtest.rolling_backtest(
            returns[offsets[0]: offsets[0] + span], self.fit_spec, level=self.LEVEL,
            window=s["window"], horizon=s["days"], refit_every=s["refit_every"],
            mc=s["mc"], seed=self.seed * 100_003 + i, fit_options=self.options),
            lambda out: checks.var_series_problems(out, s["days"]))
        return {"sim_rows_per_s": rates, "fit_s": fit_times,
                "backtest_day_s": bt_s / s["days"]}


class JointMLE(Workload):
    name = "joint_mle"
    SIZES = dict(n=2_000, pool=8)
    SMOKE_SIZES = dict(n=600, pool=1)
    TRUE_TAUS = {"c1": 0.5, "g1": 0.45, "gnode": 0.4, "f1": 0.4, "c2": 0.55,
                 "cnode": 0.35, "root": 0.3}

    def spec(self, with_params: bool):
        NodeSpec = self.m.estimation.NodeSpec

        def node(name, family, columns=None, children=None):
            params = {"tau": self.TRUE_TAUS[name]} if with_params else None
            return NodeSpec(name, family, columns=columns, children=children, params=params)

        return node("root", "frank", children=(
            node("gnode", "gumbel", children=(node("c1", "clayton", (0, 1, 2)),
                                              node("g1", "gumbel", (3, 4, 5)))),
            node("cnode", "clayton", children=(node("f1", "frank", (6, 7, 8, 9)),
                                               node("c2", "clayton", (10, 11))))))

    @property
    def n_inputs(self):
        return self.sizes["pool"]

    def setup(self) -> None:
        m, s = self.m, self.sizes
        self.model = m.estimation.build_model(self.spec(True), n_vars=12, seed=self.seed)
        self.fit_spec = self.spec(False)
        self.options = m.estimation.FitOptions(kendall_mode="closed_form")
        self.pool = [None] * s["pool"]
        # warm-up: one two-step fit
        u = m.hierarchical.model_sample(self.model, s["n"], self.rng(0), "exact")
        m.estimation.fit_two_step(self.fit_spec, u, self.options)

    def make_input(self, k: int) -> dict:
        """Sample data set k; its sampling rate is this workload's sampling figure."""
        n = self.sizes["n"]
        t0 = time.perf_counter()
        self.pool[k] = self.m.hierarchical.model_sample(self.model, n, self.rng(1, k), "exact")
        return {"sim_rows_per_s": n / (time.perf_counter() - t0)}

    def cycle(self, i: int):
        m, s = self.m, self.sizes
        u = self.pool[i % len(self.pool)]
        two, two_s = yield ("fit_two_step", lambda: m.estimation.fit_two_step(
            self.fit_spec, u, self.options),
            lambda out: checks.fitted_tau_problems(out, self.TRUE_TAUS, s["n"]))
        joint, joint_s = yield ("fit_joint_mle", lambda: m.estimation.fit_joint_mle(
            two, u, self.options),
            lambda out: checks.joint_fit_problems(out, self.TRUE_TAUS, s["n"]))
        return {"fit_s": two_s + joint_s, "loglik_evals_per_s": joint.joint_evals / joint_s}


def _corr(d, blocks):
    """Block correlation: rho inside a block, 0.2 across blocks."""
    c = np.full((d, d), 0.2)
    for cols, rho in blocks:
        c[np.ix_(cols, cols)] = rho
    np.fill_diagonal(c, 1.0)
    return c


class Elliptical(Workload):
    name = "elliptical"
    SIZES = dict(fit_rows=250, fit_kendall_mc=1_000, fit_pool=4, sample_rows=250,
                 sample_calls=3, ref_kendall_mc=5_000)
    SMOKE_SIZES = dict(fit_rows=120, fit_kendall_mc=1_000, fit_pool=1, sample_rows=100,
                       sample_calls=1, ref_kendall_mc=2_000)
    # data: a 7-d Student-t copula, blocks (0,1,2), (3,4), (5,6)
    BLOCKS = (((0, 1, 2), 0.6), ((3, 4), 0.5), ((5, 6), 0.4))
    NU = 5.0
    # rejection band: absolute, so the candidate count per target stays bounded
    # (a relative band makes it heavy-tailed in the smallest target level)
    EPS = ("abs", 0.01)

    def specs(self):
        NodeSpec = self.m.estimation.NodeSpec
        fit = NodeSpec("root", "frank", children=(
            NodeSpec("g3", "gaussian", columns=(0, 1, 2)),
            NodeSpec("t2", "student_t", columns=(3, 4)),
            NodeSpec("g2", "gaussian", columns=(5, 6))))
        ref = NodeSpec("root", "frank", params={"tau": 0.3}, children=(
            NodeSpec("rg2", "gaussian", columns=(0, 1),
                     params={"corr": _corr(2, [((0, 1), 0.5)])}),
            NodeSpec("rt2", "student_t", columns=(2, 3),
                     params={"corr": _corr(2, [((0, 1), 0.6)]), "nu": self.NU}),
            NodeSpec("rc3", "clayton", columns=(4, 5, 6), params={"tau": 0.4})))
        return fit, ref

    def ref_clusters(self):
        tau = lambda rho: 2.0 / np.pi * np.arcsin(rho)  # noqa: E731
        return [("rg2", (0, 1), tau(0.5)), ("rt2", (2, 3), tau(0.6)), ("rc3", (4, 5, 6), 0.4)]

    def setup(self) -> None:
        m, s = self.m, self.sizes
        self.fit_spec, ref_spec = self.specs()
        self.ref = m.estimation.build_model(ref_spec, n_vars=7,
                                            kendall_mc=s["ref_kendall_mc"], seed=self.seed)
        data_copula = m.copulas.StudentTCopula(_corr(7, self.BLOCKS), self.NU)
        self.pool = [m.copulas.copula_sample(data_copula, s["fit_rows"], self.rng(1, k))
                     for k in range(s["fit_pool"])]
        self.eps = m.levelset.EpsilonRule(*self.EPS)
        # warm-up: each cluster copula sampled and evaluated once
        for node in self.ref.root.children:
            w = m.copulas.copula_sample(node.copula, 64, self.rng(2))
            m.copulas.copula_cdf(node.copula, w)
        g3 = m.copulas.GaussianCopula(_corr(3, [((0, 1, 2), 0.6)]))
        m.copulas.copula_cdf(g3, m.copulas.copula_sample(g3, 8, self.rng(3)))

    def _fit_check(self, report, u):
        m = self.m
        cols = {"g3": (0, 1, 2), "t2": (3, 4), "g2": (5, 6)}
        truth = {"g3": (_corr(3, [((0, 1, 2), 0.6)]), None),
                 "t2": (_corr(2, [((0, 1), 0.5)]), self.NU),
                 "g2": (_corr(2, [((0, 1), 0.4)]), None)}

        def t_ll(corr, nu, block):
            return float(np.sum(m.copulas.copula_logpdf(
                m.copulas.StudentTCopula(corr, nu), block)))

        return checks.elliptical_fit_problems(
            report, lambda name: u[:, list(cols[name])], truth, t_ll)

    def cycle(self, i: int):
        m, s = self.m, self.sizes
        u = self.pool[i % len(self.pool)]
        options = m.estimation.FitOptions(kendall_mode="auto",
                                          kendall_mc=s["fit_kendall_mc"], seed=self.seed + i)
        _, fit_s = yield ("fit_two_step", lambda: m.estimation.fit_two_step(
            self.fit_spec, u, options), lambda out: self._fit_check(out, u))
        n, rates = s["sample_rows"], []
        for k in range(s["sample_calls"]):
            _, sample_s = yield ("sample_rejection", lambda: m.hierarchical.model_sample(
                self.ref, n, self.rng(4, i, k), "rejection", eps_rule=self.eps),
                lambda out: (checks.shape_problems(out, n, 7, "sample")
                             or checks.cluster_tau_problems(out, self.ref_clusters())
                             + checks.uniform_columns_problems(
                                 m.hierarchical.nesting_pit(self.ref, out), "nesting_pit")))
            rates.append(n / sample_s)
        return {"fit_s": fit_s, "sim_rows_per_s": rates}


WORKLOADS = {w.name: w for w in (VarBacktest, JointMLE, Elliptical)}
