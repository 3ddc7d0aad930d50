import itertools
import json
import math
import re
import weakref
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.stats import kstest

from hierkendall.copulas import (
    ArchimedeanCopula,
    GaussianCopula,
    StudentTCopula,
    copula_logpdf,
    copula_sample,
)
from hierkendall.errors import (
    ConfigError,
    DataError,
    EvaluationError,
    HierKendallError,
    ModelStructureError,
    ParameterError,
)
from hierkendall.estimation import (
    FitOptions,
    NodeSpec,
    StudyConfig,
    build_model,
    copula_from_spec,
    copula_params,
    empirical_tau_matrix,
    eta_from_theta,
    fit_cluster,
    fit_joint_mle,
    fit_two_step,
    nu_from_eta,
    pseudo_observations,
    simulation_study,
    theta_from_eta,
)
from hierkendall.generators import ArchimedeanGenerator, theta_from_tau
import hierkendall.estimation as estimation
import hierkendall.hierarchical as hierarchical
from hierkendall.hierarchical import iter_nodes, kendall_for_copula, model_loglik, model_sample
from hierkendall.kendall import empirical_kendall_from_values, kendall_cdf
from hierkendall.modelconfig import (
    parse_model_config,
    read_csv,
    report_document,
)
from hierkendall.rngutil import substream

from oracles import grid_maximum, joint_loglik_nelder_mead, joint_mle_scipy_gradient


def _nodes(model):
    return [(node.name, node) for _, node in iter_nodes(model)]


def two_cluster_spec(with_params=True):
    if with_params:
        return NodeSpec("nest", "frank", children=(
            NodeSpec("c1", "clayton", columns=(0, 1), params={"tau": 0.4}),
            NodeSpec("c2", "gumbel", columns=(2, 3), params={"tau": 0.4}),
        ), params={"tau": 0.4})
    return NodeSpec("nest", "frank", children=(
        NodeSpec("c1", "clayton", columns=(0, 1)),
        NodeSpec("c2", "gumbel", columns=(2, 3)),
    ))


class TestPseudoObservations:
    def test_plain_ranks(self):
        x = np.array([[3.2], [-1.0], [0.5]])
        np.testing.assert_allclose(pseudo_observations(x)[:, 0], [0.75, 0.25, 0.50])

    def test_tied_minima_average_rank(self):
        x = np.array([[1.0], [1.0], [2.0]])
        np.testing.assert_allclose(pseudo_observations(x)[:, 0], [0.375, 0.375, 0.75])

    def test_constant_column_rejected(self):
        with pytest.raises(DataError):
            pseudo_observations(np.ones((5, 2)))

    def test_names_first_constant_column(self):
        x = np.random.default_rng(2).normal(size=(6, 4))
        x[:, 1], x[:, 3] = 2.0, -1.0
        with pytest.raises(DataError, match="column 1 is constant"):
            pseudo_observations(x)

    def test_matches_column_ranks_with_ties(self):
        x = np.round(np.random.default_rng(3).normal(size=(500, 30)), 1)
        expected = np.column_stack([stats.rankdata(col, method="average") / 501.0
                                    for col in x.T])
        np.testing.assert_array_equal(pseudo_observations(x), expected)

    def test_uniformity_pass_rate(self):
        passes = 0
        for seed in range(50):
            x = np.random.default_rng(seed).normal(size=(2000, 1))
            u = pseudo_observations(x)[:, 0]
            passes += kstest(u, "uniform").pvalue > 0.01
        assert passes >= 46

    def test_interior(self):
        x = np.random.default_rng(1).normal(size=(100, 3))
        u = pseudo_observations(x)
        assert np.all((u > 0) & (u < 1))


class TestTransforms:
    @pytest.mark.parametrize("family,theta", [
        ("clayton", 2.0), ("clayton", 0.1), ("gumbel", 1.5), ("gumbel", 7.0),
        ("frank", 4.0), ("frank", -3.0),
    ])
    def test_round_trip(self, family, theta):
        assert theta_from_eta(family, eta_from_theta(family, theta)) == pytest.approx(
            theta, rel=1e-12)

    def test_frank_dead_zone(self):
        assert theta_from_eta("frank", 0.0) == 1e-8
        assert theta_from_eta("frank", -1e-12) == -1e-8

    def test_every_eta_maps_to_valid_generator(self):
        for family in ("clayton", "gumbel"):
            for eta in (-30.0, -1.0, 0.0, 3.0):
                ArchimedeanGenerator(family, theta_from_eta(family, eta))


class TestFitCluster:
    def test_clayton_recovery_distribution(self):
        cop = ArchimedeanCopula(ArchimedeanGenerator("clayton", 2.0), 2)
        hits = 0
        for rep in range(100):
            u = copula_sample(cop, 1000, substream(123, 9, rep))
            theta = fit_cluster("clayton", u).copula.generator.theta
            hits += 1.7 <= theta <= 2.3
        assert hits >= 90

    def test_independence_fit(self):
        u = np.random.default_rng(2).random((500, 3))
        fit = fit_cluster("independence", u)
        assert fit.loglik == 0.0 and fit.method == "fixed"

    def test_student_t_recovery(self):
        cop = StudentTCopula(np.array([[1.0, 0.5], [0.5, 1.0]]), 5.0)
        u = copula_sample(cop, 2000, np.random.default_rng(3))
        fit = fit_cluster("student_t", u)
        assert fit.copula.corr[0, 1] == pytest.approx(0.5, abs=0.05)
        assert 3.5 <= fit.copula.nu <= 8.0

    def test_gaussian_recovery(self):
        cop = GaussianCopula(np.array([[1.0, 0.7], [0.7, 1.0]]))
        u = copula_sample(cop, 2000, np.random.default_rng(4))
        fit = fit_cluster("gaussian", u)
        assert fit.copula.corr[0, 1] == pytest.approx(0.7, abs=0.04)

    def test_frank_negative_dependence(self):
        cop = ArchimedeanCopula(ArchimedeanGenerator("frank", -4.0), 2)
        u = copula_sample(cop, 1500, np.random.default_rng(5))
        fit = fit_cluster("frank", u)
        assert fit.copula.generator.theta == pytest.approx(-4.0, abs=1.0)

    def test_size_one_block(self):
        u = np.random.default_rng(6).random((100, 1))
        fit = fit_cluster("clayton", u)
        assert fit.copula.dim == 1


class TestEmpiricalTauMatrix:
    """The tau matrix is scipy's tau-b, entry for entry and bit for bit: the
    one oracle of its merge count, scipy's private ``_kendall_dis``."""

    @staticmethod
    def _data(kind, n, d, seed):
        rng = np.random.default_rng(seed)
        if kind == "grid":  # few levels, heavy ties, constant columns at one level
            return rng.integers(0, rng.integers(1, 5, endpoint=True), (n, d)).astype(float)
        u = rng.random((n, d))
        if kind == "constant":
            u[:, rng.integers(d)] = 0.5
        elif kind == "kendall_steps":  # V columns of an empirical K: m step values
            kf = empirical_kendall_from_values(rng.random(int(rng.integers(2, 40))), d)
            u = kendall_cdf(kf, np.clip(u, 1e-12, 1.0 - 1e-12))
        return u

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["grid", "continuous", "constant", "kendall_steps"]),
           n=st.integers(2, 300), d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_equals_scipy_tau_b(self, kind, n, d, seed):
        u = self._data(kind, n, d, seed)
        taus = empirical_tau_matrix(u)
        for i, j in itertools.combinations(range(d), 2):
            oracle = stats.kendalltau(u[:, i], u[:, j]).statistic
            assert taus[i, j] == (0.0 if np.isnan(oracle) else oracle), (i, j)
        np.testing.assert_array_equal(taus, taus.T)
        np.testing.assert_array_equal(np.diag(taus), 1.0)


def _loglik(cop, u):
    try:
        return float(np.sum(copula_logpdf(cop, u)))
    except (HierKendallError, ArithmeticError):
        return -math.inf


def _archimedean_interval(family, d):
    """The eta search interval: near independence up to tau = 0.98, and for
    Frank at d = 2 down to tau = -0.98 as well."""
    theta98 = theta_from_tau(family, 0.98).theta
    if family == "clayton":
        return math.log(1e-12), math.log(theta98)
    if family == "gumbel":
        return math.log(1e-12), math.log(theta98 - 1.0)
    return (-theta98 if d == 2 else 1e-8), theta98


EQUICORR3 = np.full((3, 3), 0.5) + 0.5 * np.eye(3)


class TestOneParameterMle:
    """fit_cluster's one-parameter maximum likelihood against a dense grid
    search over the same eta interval; optima on an interval end included."""

    @staticmethod
    def _assert_reaches(fit, u, oracle_ll, msg):
        assert fit.converged, msg
        assert fit.loglik == _loglik(fit.copula, u), msg
        assert fit.loglik >= oracle_ll - 1e-8 * max(1.0, abs(oracle_ll)), msg

    @pytest.mark.parametrize("family,tau", [
        (fam, tau) for fam in ("clayton", "gumbel", "frank")
        for tau in (0.02, 0.1, 0.4, 0.7, 0.9)] + [("frank", -0.3)])
    def test_archimedean_matches_grid_oracle(self, family, tau):
        for d in ((2,) if tau < 0 else (2, 3, 5, 10)):
            cop = ArchimedeanCopula(theta_from_tau(family, tau), d)
            u = pseudo_observations(copula_sample(
                cop, 300, np.random.default_rng([int(1000 * abs(tau)), d])))
            fit = fit_cluster(family, u)
            lo, hi = _archimedean_interval(family, d)
            _, oracle_ll = grid_maximum(lambda eta: _loglik(ArchimedeanCopula(
                ArchimedeanGenerator(family, theta_from_eta(family, eta)), d), u), lo, hi)
            self._assert_reaches(fit, u, oracle_ll, f"{family} tau={tau} d={d}")

    @pytest.mark.parametrize("family", ["clayton", "gumbel", "frank"])
    @pytest.mark.parametrize("end", ["lower", "upper"])
    def test_optimum_on_an_interval_end(self, family, end):
        rng = np.random.default_rng(12)
        if end == "lower":  # a negatively dependent pair: theta -> independence
            pair = copula_sample(ArchimedeanCopula(theta_from_tau("frank", -0.5), 2), 300, rng)
            x = np.column_stack([pair, rng.random(300)])
        else:  # all but comonotone: tau beyond 0.98
            x = rng.random((300, 1)) + 1e-3 * rng.random((300, 3))
        u = pseudo_observations(x)
        fit = fit_cluster(family, u)
        lo, hi = _archimedean_interval(family, 3)
        eta, oracle_ll = grid_maximum(lambda eta: _loglik(ArchimedeanCopula(
            ArchimedeanGenerator(family, theta_from_eta(family, eta)), 3), u), lo, hi)
        # compared in theta: near independence the likelihood is flat in eta
        edge = lo if end == "lower" else hi
        assert abs(theta_from_eta(family, eta) - theta_from_eta(family, edge)) < 1e-6
        self._assert_reaches(fit, u, oracle_ll, f"{family} {end}")

    @pytest.mark.parametrize("data_nu", [4.0, None])
    def test_student_t_nu_matches_grid_oracle(self, data_nu):
        cop = GaussianCopula(EQUICORR3) if data_nu is None else StudentTCopula(
            EQUICORR3, data_nu)
        u = pseudo_observations(copula_sample(cop, 200, np.random.default_rng(8)))
        fit = fit_cluster("student_t", u)
        corr = fit.copula.corr
        eta, oracle_ll = grid_maximum(
            lambda eta: _loglik(StudentTCopula(corr, nu_from_eta(eta)), u),
            math.log(1e-2), math.log(1e3), points=61, zoom_points=11)
        self._assert_reaches(fit, u, oracle_ll, f"nu={data_nu}")
        if data_nu is None:  # Gaussian data: nu - 2 at its 1e3 cap
            assert eta == pytest.approx(math.log(1e3), abs=1e-6)
            assert fit.copula.nu == pytest.approx(1002.0, rel=1e-6)

    def test_evaluation_count(self):
        cop = ArchimedeanCopula(theta_from_tau("frank", 0.4), 5)
        u = pseudo_observations(copula_sample(cop, 500, np.random.default_rng(9)))
        assert fit_cluster("frank", u).n_evals <= 25

    @pytest.mark.parametrize("family", ["frank", "student_t"])
    @pytest.mark.parametrize("failure", ["raise", "nan"])
    def test_no_finite_evaluation_raises(self, monkeypatch, family, failure):
        def broken(cop, u):
            if failure == "raise":
                raise EvaluationError("copula density evaluated to NaN")
            return np.full(len(u), np.nan)

        cop = StudentTCopula(EQUICORR3, 5.0) if family == "student_t" else \
            ArchimedeanCopula(theta_from_tau("frank", 0.4), 3)
        u = copula_sample(cop, 100, np.random.default_rng(10))
        monkeypatch.setattr(estimation, "copula_logpdf", broken)
        with pytest.raises(EvaluationError, match=f"{family}.*d = 3"):
            fit_cluster(family, u)

    @pytest.mark.parametrize("family", ["clayton", "student_t"])
    @pytest.mark.parametrize("error", [EvaluationError, ParameterError, FloatingPointError])
    def test_failed_evaluations_are_skipped(self, monkeypatch, family, error):
        # the optimum (theta near 0.86, nu near 5) lies where evaluations succeed,
        # below 15
        cop = StudentTCopula(EQUICORR3, 5.0) if family == "student_t" else \
            ArchimedeanCopula(theta_from_tau("clayton", 0.3), 3)
        u = pseudo_observations(copula_sample(cop, 300, np.random.default_rng(11)))
        clean = fit_cluster(family, u)

        def failing(c, x):
            if (c.nu if family == "student_t" else c.generator.theta) > 15.0:
                raise error("evaluation failed")
            return copula_logpdf(c, x)

        monkeypatch.setattr(estimation, "copula_logpdf", failing)
        fit = fit_cluster(family, u)
        assert fit.converged
        assert fit.loglik >= clean.loglik - 1e-8 * abs(clean.loglik)


class TestTwoStep:
    def test_recovers_nesting_tau(self):
        true = build_model(two_cluster_spec(), 4)
        u = model_sample(true, 1000, np.random.default_rng(7), method="exact")
        report = fit_two_step(two_cluster_spec(False), u,
                              FitOptions(kendall_mode="closed_form"))
        taus = {nf.name: nf.params.get("tau") for nf in report.nodes}
        assert taus["nest"] == pytest.approx(0.4, abs=0.08)
        assert taus["c1"] == pytest.approx(0.4, abs=0.08)
        assert taus["c2"] == pytest.approx(0.4, abs=0.08)

    def test_closed_vs_empirical_kendall_agreement(self):
        true = build_model(two_cluster_spec(), 4)
        u = model_sample(true, 1000, np.random.default_rng(8), method="exact")
        a = fit_two_step(two_cluster_spec(False), u,
                         FitOptions(kendall_mode="closed_form"))
        b = fit_two_step(two_cluster_spec(False), u,
                         FitOptions(kendall_mode="empirical", kendall_mc=100_000))
        tau_a = a.nodes[-1].params["tau"]
        tau_b = b.nodes[-1].params["tau"]
        assert abs(tau_a - tau_b) < 0.02

    def test_closed_form_refuses_elliptical_clusters(self):
        spec = NodeSpec("nest", "frank", children=(
            NodeSpec("c1", "gaussian", columns=(0, 1)),
            NodeSpec("c2", "gumbel", columns=(2, 3)),
        ))
        u = np.random.default_rng(9).random((200, 4))
        with pytest.raises(ParameterError):
            fit_two_step(spec, u, FitOptions(kendall_mode="closed_form"))

    def test_unknown_kendall_mode_is_refused(self):
        u = np.random.default_rng(9).random((200, 4))
        with pytest.raises(ParameterError, match="'closedform'"):
            fit_two_step(two_cluster_spec(False), u, FitOptions(kendall_mode="closedform"))
        with pytest.raises(ParameterError, match="'bogus'"):
            kendall_for_copula(ArchimedeanCopula(ArchimedeanGenerator("clayton", 2.0), 2),
                               "bogus")

    def test_independence_families_loglik_zero(self):
        spec = NodeSpec("nest", "independence", children=(
            NodeSpec("c1", "independence", columns=(0, 1)),
            NodeSpec("c2", "independence", columns=(2, 3)),
        ))
        u = np.random.default_rng(10).random((300, 4))
        report = fit_two_step(spec, u)
        assert report.loglik_two_step == 0.0
        assert report.n_params == 0

    def test_rank_invariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(400, 4))
        u1 = pseudo_observations(x)
        u2 = pseudo_observations(np.exp(3.0 * x) + 7.0)  # strictly increasing map
        np.testing.assert_array_equal(u1, u2)
        r1 = fit_two_step(two_cluster_spec(False), u1)
        r2 = fit_two_step(two_cluster_spec(False), u2)
        assert r1.loglik_two_step == r2.loglik_two_step

    def test_elliptical_cluster_fit_with_empirical_kendall(self):
        spec = NodeSpec("nest", "frank", children=(
            NodeSpec("c1", "gaussian", columns=(0, 1)),
            NodeSpec("c2", "gumbel", columns=(2, 3)),
        ))
        sim_spec = NodeSpec("nest", "frank", children=(
            NodeSpec("c1", "gaussian", columns=(0, 1),
                     params={"corr": [[1.0, 0.6], [0.6, 1.0]]}),
            NodeSpec("c2", "gumbel", columns=(2, 3), params={"tau": 0.4}),
        ), params={"tau": 0.4})
        true = build_model(sim_spec, 4, kendall_mc=20_000)
        u = model_sample(true, 800, np.random.default_rng(12), method="rejection")
        report = fit_two_step(spec, u, FitOptions(kendall_mc=20_000))
        gaussian_fit = next(nf for nf in report.nodes if nf.name == "c1")
        assert gaussian_fit.params["corr"][0][1] == pytest.approx(0.6, abs=0.08)
        assert gaussian_fit.kendall.startswith("empirical")


_HEADER = ["A", "B", "C", "D"]
_CONFIG = {"nodes": [
    {"name": "c1", "family": "clayton", "columns": ["A", "B"], "tau": 0.5},
    {"name": "c2", "family": "gumbel", "columns": ["C", "D"], "tau": 0.5},
    {"name": "nest", "family": "frank", "children": ["c1", "c2"], "tau": 0.4}]}


def _with_c1(**fields):
    """``_CONFIG`` with node c1's ``tau`` replaced by ``fields``."""
    c1 = {k: v for k, v in _CONFIG["nodes"][0].items() if k != "tau"}
    return {"nodes": [{**c1, **fields}] + _CONFIG["nodes"][1:]}


@pytest.mark.parametrize("make, cls, message", [
    (lambda: NodeSpec("c1", "bogus", columns=(0, 1)),
     ConfigError, "node 'c1': unknown family 'bogus'"),
    (lambda: NodeSpec("c1", "clayton"),
     ConfigError, "node 'c1': exactly one of columns/children required"),
    (lambda: copula_from_spec(NodeSpec("c1", "clayton", columns=(0, 1))),
     ConfigError, "needs theta or tau"),
    (lambda: copula_from_spec(NodeSpec("g", "gaussian", columns=(0, 1))),
     ConfigError, "needs a correlation matrix"),
    (lambda: copula_from_spec(NodeSpec("t", "student_t", columns=(0, 1),
                                       params={"corr": [[1, 0.5], [0.5, 1]]})),
     ConfigError, "needs degrees of freedom nu"),
    (lambda: pseudo_observations(np.ones((1, 3))),
     DataError, "need a 2-d array with at least two rows"),
    (lambda: parse_model_config({"nodes": []}),
     ConfigError, "'nodes' must be a nonempty list"),
    (lambda: parse_model_config({**_CONFIG, "epsilon_rule": {"mode": "both"}}),
     ConfigError, "bad epsilon_rule: epsilon mode must be 'abs' or 'rel', got 'both'"),
    (lambda: parse_model_config({**_CONFIG, "epsilon_rule": {"mode": "abs", "value": 10**400}}),
     ConfigError, "'epsilon_rule' must be an object with a string 'mode' and a number 'value'"),
    (lambda: parse_model_config(_with_c1(theta=10**400)),
     ConfigError, f"node 'c1': 'theta' must be a number, got {10**400}"),
    (lambda: parse_model_config(_with_c1(family="gaussian", corr=[[1, 10**400], [10**400, 1]])),
     ConfigError, "node 'c1': 'corr' must be a square list of rows of numbers"),
    (lambda: parse_model_config(_CONFIG, _HEADER + ["E"]),
     ConfigError, "data columns ['E'] not assigned to any cluster"),
    # the walk from the root that builds the template finds unreachable nodes last
    (lambda: parse_model_config({"nodes": _CONFIG["nodes"] + [
        {"name": "a", "family": "clayton", "children": ["b"]},
        {"name": "b", "family": "clayton", "children": ["a"]}]}, _HEADER[:3]),
     ConfigError, "columns ['D'] not present in the data header"),
    (lambda: read_csv("no/such/data.csv"),
     DataError, "data file not found: no/such/data.csv")],
    ids=["family", "columns-or-children", "theta-or-tau", "corr", "nu", "one-row",
         "empty-nodes", "epsilon-rule", "epsilon-beyond-float", "theta-beyond-float",
         "corr-beyond-float", "uncovered-column",
         "header-before-unreachable", "missing-data-file"])
def test_template_and_config_refusals_name_their_fault(make, cls, message):
    with pytest.raises(cls, match=re.escape(message)):
        make()


@pytest.mark.parametrize("u, message", [
    (np.full((1, 4), 0.5), "need a 2-d array with at least two rows, got shape (1, 4)"),
    (np.empty((0, 4)), "need a 2-d array with at least two rows, got shape (0, 4)"),
    (np.full(4, 0.5), "need a 2-d array with at least two rows, got shape (4,)"),
    (np.array([[0.2, 0.3, 0.4, 0.5], [0.6, np.inf, 0.7, 0.8]]),
     "column 1 holds inf at row 1; data must be finite"),
    (np.where(np.arange(200).reshape(50, 4) == 29, np.nan,
              np.random.default_rng(8).random((50, 4))),
     "column 1 holds nan at row 7; data must be finite")],
    ids=["one-row", "no-rows", "one-d", "infinite", "nan"])
def test_two_step_fit_and_ranks_share_one_data_rule(u, message):
    for fit in (lambda: fit_two_step(two_cluster_spec(False), u),
                lambda: pseudo_observations(u),
                lambda: fit_cluster("clayton", u),
                lambda: fit_cluster("student_t", u),
                lambda: empirical_tau_matrix(u)):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            fit()


class TestNodeNamedErrors:
    """One template walk builds and fits every node, and names the node that fails."""

    def test_build_reports_the_first_bad_node_in_post_order(self):
        spec = NodeSpec("nest", "frank", children=(
            NodeSpec("c1", "clayton", columns=(0, 1), params={"tau": 1.5}),
            NodeSpec("c2", "gumbel", columns=(2, 3), params={"tau": 0.4}),
        ))
        with pytest.raises(ParameterError, match=r"^node 'c1': "):
            build_model(spec, 4)

    @pytest.mark.parametrize("cls, attributes", [
        (EvaluationError, {}), (ParameterError, {"argument": "start"})])
    def test_failing_fit_names_its_node_and_keeps_the_error(self, monkeypatch, cls,
                                                            attributes):
        error = cls("gumbel fit at d = 2: no finite log-likelihood", **attributes)
        real = estimation.fit_cluster

        def failing(family, block):
            if family == "gumbel":
                raise error
            return real(family, block)

        monkeypatch.setattr(estimation, "fit_cluster", failing)
        u = np.random.default_rng(9).random((200, 4))
        with pytest.raises(cls, match=r"^node 'c2': gumbel fit at d = 2: no finite") as info:
            fit_two_step(two_cluster_spec(False), u)
        assert info.value is error and vars(error) == attributes

    def test_failing_input_block_names_the_parent(self, monkeypatch):
        def failing(*args):
            raise EvaluationError("clayton theta=2 d=2: density out of float range")

        monkeypatch.setattr(estimation, "post_order", failing)
        u = np.random.default_rng(9).random((200, 4))
        with pytest.raises(EvaluationError, match=r"^node 'nest': clayton theta=2 d=2"):
            fit_two_step(two_cluster_spec(False), u)

    def test_template_params_are_not_read(self):
        u = model_sample(build_model(two_cluster_spec(), 4), 300, np.random.default_rng(13),
                         method="exact")
        with_params = fit_two_step(two_cluster_spec(True), u)
        without = fit_two_step(two_cluster_spec(False), u)
        assert with_params.loglik_two_step == without.loglik_two_step
        assert [(nf.name, nf.params, nf.kendall) for nf in with_params.nodes] == [
            (nf.name, nf.params, nf.kendall) for nf in without.nodes]


class TestTemplateCheckedFirst:
    """A template's shape is checked before any node is fitted or drawn."""

    CORR3 = [[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]]

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for name in ("fit_cluster", "kendall_for_copula"):
            def counting(*args, real=getattr(estimation, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(estimation, name, counting)
        return calls

    @pytest.mark.parametrize("columns, n_vars, message", [
        ((2, 9), 4, "root/c2: variable 9 outside 0..3"),
        ((1, 2), 4, "root/c2: variable 1 overlaps with cluster 'c1'"),
        ((2,), 4, "root: variables [3] not covered by any cluster")])
    def test_fit_refuses_a_template_that_does_not_partition_the_data(
            self, calls, columns, n_vars, message):
        spec = NodeSpec("nest", "frank", children=(
            NodeSpec("c1", "clayton", columns=(0, 1)),
            NodeSpec("c2", "gumbel", columns=columns)))
        u = np.random.default_rng(9).random((50, n_vars))
        with pytest.raises(ModelStructureError, match=re.escape(message)):
            fit_two_step(spec, u)
        assert calls == []

    def test_build_refuses_a_duplicate_name_before_any_kendall_draw(self, calls):
        spec = NodeSpec("nest", "frank", params={"tau": 0.3}, children=(
            NodeSpec("t", "student_t", columns=(0, 1, 2),
                     params={"corr": self.CORR3, "nu": 5.0}),
            NodeSpec("t", "clayton", columns=(3, 4), params={"tau": 0.4})))
        with pytest.raises(ModelStructureError, match="root/t: duplicate node name 't'"):
            build_model(spec, 5, kendall_mc=20_000)
        assert calls == []

    @pytest.mark.parametrize("run", [lambda spec, u: build_model(spec, 4),
                                     lambda spec, u: fit_two_step(spec, u)],
                             ids=["build_model", "fit_two_step"])
    def test_a_fractional_column_is_refused_not_truncated(self, calls, run):
        spec = NodeSpec("nest", "frank", params={"tau": 0.3}, children=(
            NodeSpec("c1", "clayton", columns=(0, 1.7), params={"tau": 0.4}),
            NodeSpec("c2", "gumbel", columns=(2, 3), params={"tau": 0.4})))
        assert spec.children[0].columns == (0, 1.7)
        with pytest.raises(ModelStructureError, match=re.escape(
                "root/c1: column 1.7 is not a variable index")):
            run(spec, np.random.default_rng(9).random((50, 4)))
        assert calls == []

    def test_build_refuses_a_leaf_root(self, calls):
        with pytest.raises(ModelStructureError, match="root must be an inner node"):
            build_model(NodeSpec("c", "clayton", columns=(0, 1), params={"tau": 0.4}), 2)
        assert calls == []

    @pytest.mark.parametrize("kwargs, message", [
        ({"columns": ()}, "node 'c': empty columns"),
        ({"columns": []}, "node 'c': empty columns"),
        ({"children": ()}, "node 'c': empty children")])
    def test_an_empty_node_is_refused_by_name(self, kwargs, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            NodeSpec("c", "clayton", **kwargs)

    def test_a_corr_of_another_size_is_refused_by_node(self):
        spec = NodeSpec("nest", "frank", params={"tau": 0.3}, children=(
            NodeSpec("g", "gaussian", columns=(0, 1), params={"corr": self.CORR3}),
            NodeSpec("c", "clayton", columns=(2, 3), params={"tau": 0.4})))
        with pytest.raises(ConfigError, match=re.escape(
                "node 'g': 'corr' of a node of 2 variables must be 2 x 2, got shape (3, 3)")):
            build_model(spec, 4)


def three_level_spec(with_params=True):
    def p(tau):
        return {"tau": tau} if with_params else None
    return NodeSpec("nest", "frank", children=(
        NodeSpec("m1", "clayton", children=(
            NodeSpec("c1", "clayton", columns=(0, 1, 2), params=p(0.5)),
            NodeSpec("c2", "frank", columns=(3, 4, 5), params=p(0.4)),
        ), params=p(0.3)),
        NodeSpec("m2", "gumbel", children=(
            NodeSpec("c3", "gumbel", columns=(6, 7, 8), params=p(0.45)),
            NodeSpec("c4", "clayton", columns=(9, 10, 11), params=p(0.35)),
        ), params=p(0.3)),
    ), params=p(0.2))


def gaussian_cluster_spec():
    return NodeSpec("nest", "frank", children=(
        NodeSpec("g", "gaussian", columns=(0, 1)),
        NodeSpec("c", "clayton", columns=(2, 3)),
        NodeSpec("s", "independence", columns=(4,)),
    ))


class TestOneBottomUpPass:
    """fit_two_step reuses the V columns and log-density terms it forms while fitting."""

    @pytest.fixture
    def data(self):
        return {
            "three_level": (three_level_spec(False), model_sample(
                build_model(three_level_spec(), 12), 300, np.random.default_rng(21)),
                FitOptions()),
            "gaussian_cluster": (gaussian_cluster_spec(), pseudo_observations(
                np.random.default_rng(22).normal(size=(300, 5))
                @ np.triu(np.full((5, 5), 0.5))), FitOptions(kendall_mc=2000)),
        }

    @pytest.mark.parametrize("case", ["three_level", "gaussian_cluster"])
    def test_each_node_cdf_runs_once_per_row(self, monkeypatch, data, case):
        # an Archimedean node with its closed-form K goes through
        # archimedean_node_step (keyed by generator), any other, the
        # one-variable independence leaf included, through copula_cdf
        spec, u, options = data[case]
        rows = {}
        for name in ("copula_cdf", "archimedean_node_step"):
            def counting(first, x, real=getattr(hierarchical, name)):
                rows.setdefault(id(first), []).append(np.shape(x)[0])
                return real(first, x)

            monkeypatch.setattr(hierarchical, name, counting)
        report = fit_two_step(spec, u, options)
        for _, node in iter_nodes(report.model):
            expected = [u.shape[0]] if node is not report.model.root else []
            key = id(getattr(node.copula, "generator", node.copula))
            assert rows.pop(key, []) == expected, node.name
        assert rows == {}

    @pytest.mark.parametrize("case", ["three_level", "gaussian_cluster"])
    def test_loglik_equals_model_loglik_exactly(self, data, case):
        spec, u, options = data[case]
        report = fit_two_step(spec, u, options)
        ll = model_loglik(report.model, u)
        assert report.loglik_two_step == ll.value
        assert report.clamped_two_step == ll.n_clamped


class TestKendallStreams:
    def test_report_round_trip_rebuilds_every_kendall_function(self):
        """A fit and the model built from its report draw each empirical
        Kendall function from the same stream, so they agree bit for bit."""
        header = [f"x{j}" for j in range(7)]
        config = parse_model_config({"nodes": [
            {"name": "g", "family": "gaussian", "columns": header[:2]},
            {"name": "t", "family": "student_t", "columns": header[2:5]},
            {"name": "c", "family": "clayton", "columns": header[5:]},
            {"name": "nest", "family": "frank", "children": ["g", "t", "c"]},
        ], "kendall_mc_size": 2000, "seed": 17}, header)
        corr = np.full((7, 7), 0.3)
        np.fill_diagonal(corr, 1.0)
        u = copula_sample(StudentTCopula(corr, 6.0), 300, np.random.default_rng(23))
        report = fit_two_step(config.spec, u, FitOptions(
            kendall_mc=config.kendall_mc_size, seed=config.seed))
        doc = json.loads(json.dumps(report_document(report, "two-step", config)))
        again = parse_model_config(doc)
        rebuilt = build_model(again.spec, n_vars=7,
                              kendall_mc=again.kendall_mc_size, seed=again.seed)
        fitted = {path: node.kendall for path, node in iter_nodes(report.model)}
        for path, node in iter_nodes(rebuilt):
            if node.name in ("g", "t"):
                assert node.kendall.kind == "empirical"
            assert (node.kendall is None) == (fitted[path] is None), path
            if node.kendall is not None:
                assert node.kendall.kind == fitted[path].kind
                assert np.array_equal(node.kendall.sorted_values, fitted[path].sorted_values)


class TestJointMle:
    def test_dominates_two_step(self):
        true = build_model(two_cluster_spec(), 4)
        for seed in (13, 14, 15):
            u = model_sample(true, 600, np.random.default_rng(seed), method="exact")
            base = fit_two_step(two_cluster_spec(False), u,
                                FitOptions(kendall_mode="closed_form"))
            joint = fit_joint_mle(base, u)
            assert joint.loglik_joint >= base.loglik_two_step - 1e-6

    def test_start_at_truth_moves_little(self):
        spec = two_cluster_spec()
        true = build_model(spec, 4)
        u = model_sample(true, 10_000, np.random.default_rng(16), method="exact")
        base = fit_two_step(two_cluster_spec(False), u,
                            FitOptions(kendall_mode="closed_form"))
        joint = fit_joint_mle(base, u)
        for nf in joint.nodes:
            assert nf.params["tau"] == pytest.approx(0.4, abs=0.1)

    def test_independence_model_noop(self):
        spec = NodeSpec("nest", "independence", children=(
            NodeSpec("c1", "independence", columns=(0, 1)),
            NodeSpec("c2", "independence", columns=(2, 3)),
        ))
        u = np.random.default_rng(17).random((200, 4))
        base = fit_two_step(spec, u)
        joint = fit_joint_mle(base, u)
        assert joint.loglik_joint == 0.0
        assert joint.joint_evals == 0

    def test_elliptical_cluster_keeps_its_two_step_fit(self):
        spec = NodeSpec("nest", "frank", children=(
            NodeSpec("c1", "gaussian", columns=(0, 1)),
            NodeSpec("c2", "gumbel", columns=(2, 3)),
        ))
        u = np.random.default_rng(18).random((300, 4))
        base = fit_two_step(spec, u, FitOptions(kendall_mc=10_000))
        joint = fit_joint_mle(base, u)
        assert joint.converged and joint.joint_evals > 0
        assert joint.loglik_joint >= base.loglik_two_step - 1e-9 * max(
            1.0, abs(base.loglik_two_step))
        assert joint.nodes[0] == base.nodes[0]  # c1: corr and Kendall function kept

    @staticmethod
    def _refused(tree, n_vars, n):
        """Fit ``tree`` with empirical Kendall functions to a sample of it and
        return the joint fit's refusal."""
        u = model_sample(build_model(tree(True), n_vars), n, np.random.default_rng(5),
                         method="exact")
        base = fit_two_step(tree(False), u, FitOptions(kendall_mode="empirical",
                                                       kendall_mc=2000))
        with pytest.raises(ParameterError) as err:
            fit_joint_mle(base, u)
        return str(err.value)

    def test_refuses_monte_carlo_kendall_above_a_free_parameter(self):
        def tree(with_params):
            def node(name, family, tau, **kw):
                return NodeSpec(name, family, params={"tau": tau} if with_params and tau
                                else None, **kw)
            return node("root", "frank", 0.3, children=(
                node("mid", "independence", None, children=(
                    node("a", "clayton", 0.5, columns=(0, 1)),
                    node("b", "gumbel", 0.4, columns=(2, 3)))),
                node("cn", "clayton", 0.3, children=(
                    node("c", "clayton", 0.4, columns=(4, 5)),
                    node("d", "frank", 0.5, columns=(6, 7))))))
        assert "'root/mid'" in self._refused(tree, 8, 800)

    def test_refuses_monte_carlo_kendall_on_a_free_node(self):
        def tree(with_params):
            p = {"tau": 0.4} if with_params else None
            return NodeSpec("root", "frank", params=p, children=(
                NodeSpec("c3", "clayton", columns=(0, 1, 2), params=p),
                NodeSpec("g2", "gumbel", columns=(3, 4), params=p)))
        assert "'root/c3'" in self._refused(tree, 5, 600)

    def test_frozen_subtree_evaluated_once_per_fit(self, monkeypatch):
        spec = NodeSpec("nest", "frank", children=(
            NodeSpec("g", "gaussian", columns=(0, 1, 2)),
            NodeSpec("c", "clayton", columns=(3, 4)),
        ))
        u = pseudo_observations(np.random.default_rng(23).normal(size=(250, 5))
                                @ np.triu(np.full((5, 5), 0.5)))
        monkeypatch.setattr(estimation, "_JOINT_MAX_EVALS", 60)
        base = fit_two_step(spec, u, FitOptions(kendall_mc=1000))
        gauss = next(node.copula for _, node in iter_nodes(base.model) if node.name == "g")
        calls = []
        real_cdf = hierarchical.copula_cdf

        def counting_cdf(c, x):
            calls.append(c is gauss)
            return real_cdf(c, x)

        monkeypatch.setattr(hierarchical, "copula_cdf", counting_cdf)
        joint = fit_joint_mle(base, u)
        assert joint.joint_evals > 10
        assert calls.count(True) == 1
        monkeypatch.undo()
        assert joint.loglik_joint == model_loglik(joint.model, u).value

    def test_student_t_nesting_nu_is_searched(self):
        spec = NodeSpec("nest", "student_t", children=(
            NodeSpec("c1", "clayton", columns=(0, 1)),
            NodeSpec("c2", "gumbel", columns=(2, 3)),
        ))
        sim = NodeSpec("nest", "student_t", children=(
            NodeSpec("c1", "clayton", columns=(0, 1), params={"tau": 0.4}),
            NodeSpec("c2", "gumbel", columns=(2, 3), params={"tau": 0.4}),
        ), params={"corr": [[1.0, 0.5], [0.5, 1.0]], "nu": 5.0})
        true = build_model(sim, 4)
        u = model_sample(true, 800, np.random.default_rng(19), method="exact")
        base = fit_two_step(spec, u, FitOptions(kendall_mode="closed_form"))
        joint = fit_joint_mle(base, u)
        assert joint.loglik_joint >= base.loglik_two_step - 1e-6
        assert "nu" in joint.nodes[-1].params


MAX_LINE_SEARCH = 20  # the default maxls of scipy's L-BFGS-B


def joint_mle_spec(with_params=True):
    """The tree of the benchmark's joint_mle workload: leaf clusters under
    two middle nodes under the root."""
    def node(name, family, tau, **kw):
        return NodeSpec(name, family, params={"tau": tau} if with_params else None, **kw)
    return node("root", "frank", 0.3, children=(
        node("gnode", "gumbel", 0.4, children=(node("c1", "clayton", 0.5, columns=(0, 1, 2)),
                                               node("g1", "gumbel", 0.45, columns=(3, 4, 5)))),
        node("cnode", "clayton", 0.35, children=(node("f1", "frank", 0.4, columns=(6, 7, 8, 9)),
                                                 node("c2", "clayton", 0.55, columns=(10, 11))))))


def _two_step_on_sample(spec, n_vars, n, seed):
    u = model_sample(build_model(spec(), n_vars), n, np.random.default_rng(seed))
    return fit_two_step(spec(False), u, FitOptions(kendall_mode="closed_form")), u


def _joint_objective(spec, n_vars, n, seed):
    base, u = _two_step_on_sample(spec, n_vars, n, seed)
    free = estimation._collect_free_params(base.model)
    return estimation._JointObjective(base.model, free, u), base, free, u


class TestJointMemo:
    """The joint objective's base pass runs every node once; the gradient
    probe of a parameter re-runs only its node and that node's ancestors."""

    def test_memoised_loglik_equals_model_loglik(self):
        objective, base, free, u = _joint_objective(joint_mle_spec, 12, 400, 31)
        eta0 = np.array([eta for *_, eta in free])

        def fresh(eta):
            return model_loglik(estimation._rebuild_with_eta(base.model, free, eta), u)

        top = eta0.copy()
        top[-1] = free[-1][2][1]  # at its upper bound: the probe steps down
        for eta in (eta0, eta0, eta0 + 0.05, eta0 - 1e-3, top, eta0):
            f, grad = objective(eta)
            ll, model = objective.base(eta)
            assert (ll.value, ll.n_clamped) == (fresh(eta).value, fresh(eta).n_clamped)
            assert f == -ll.value == -model_loglik(model, u).value
            for j, (_, _, (_, hi), _) in enumerate(free):
                probe = eta.copy()
                probe[j] += 1e-8 if eta[j] + 1e-8 <= hi else -1e-8
                assert grad[j] == (-fresh(probe).value - f) / (probe[j] - eta[j])

    def test_probe_reruns_the_parameter_node_and_its_ancestors(self, monkeypatch):
        objective, _, free, _ = _joint_objective(joint_mle_spec, 12, 300, 32)
        ran = []
        real = hierarchical.node_transform

        def counting(node, *args, **kwargs):
            ran.append(node.name)
            return real(node, *args, **kwargs)

        monkeypatch.setattr(hierarchical, "node_transform", counting)
        eta0 = np.zeros(len(free)) + 0.5
        objective.base(eta0)
        assert len(ran) == 7 and objective.node_evals == 7
        ran.clear()
        objective(eta0)
        probes = []  # the nodes each probe ran; every probe ends at the root
        for name in ran:
            if not probes or probes[-1][-1] == "root":
                probes.append([])
            probes[-1].append(name)
        expect = {"c1": 3, "g1": 3, "f1": 3, "c2": 3, "gnode": 2, "cnode": 2, "root": 1}
        names = [path.rsplit("/", 1)[-1] for path, *_ in free]
        assert [p[0] for p in probes] == names and all(p[-1] == "root" for p in probes)
        assert [len(p) for p in probes] == [expect[name] for name in names]
        assert objective.node_evals == 7 + sum(expect.values())
        assert objective.evals == 1 + len(free)
        ran.clear()
        objective.base(eta0)
        assert ran == []

    def test_no_node_holds_more_than_two_entries(self, monkeypatch):
        base, u = _two_step_on_sample(joint_mle_spec, 12, 300, 33)
        live, most = defaultdict(list), Counter()
        real = hierarchical.node_transform

        def tracking(node, *args, **kwargs):
            v, log_c = real(node, *args, **kwargs)
            if v is not None:  # the root's V is None; its log c sum is not kept alone
                live[node.name] = [r for r in live[node.name] if r() is not None]
                live[node.name].append(weakref.ref(v))
                most[node.name] = max(most[node.name], len(live[node.name]))
            return v, log_c

        monkeypatch.setattr(hierarchical, "node_transform", tracking)
        joint = fit_joint_mle(base, u)
        assert joint.joint_evals > 100
        # the V of a leaf lives in the base memo and at most one probe memo
        assert most and max(most.values()) == 2, dict(most)


class TestJointOptimum:
    """Bounded L-BFGS-B against a tight Nelder-Mead on freshly built models."""

    @pytest.mark.parametrize("spec, n_vars, n, seed", [
        (two_cluster_spec, 4, 600, 41), (two_cluster_spec, 4, 300, 42),
        (three_level_spec, 12, 400, 43)])
    def test_reaches_the_nelder_mead_optimum(self, spec, n_vars, n, seed):
        base, u = _two_step_on_sample(spec, n_vars, n, seed)
        joint = fit_joint_mle(base, u)
        start = {nf.name: nf.params["theta"] for nf in base.nodes}
        oracle_ll = joint_loglik_nelder_mead(spec(False), u, start)
        assert joint.converged
        assert joint.loglik_joint >= oracle_ll - 1e-6
        assert joint.loglik_joint >= base.loglik_two_step

    def test_stops_at_the_optimum_of_a_noisy_gradient(self):
        # at ftol 1e-14 this search ended "ABNORMAL" after 424 evaluations,
        # its line searches lost in the forward-difference gradient's rounding
        base, u = _two_step_on_sample(joint_mle_spec, 12, 2000, 69)
        joint = fit_joint_mle(base, u)
        assert joint.converged and joint.joint_status.startswith("CONVERGENCE")
        assert joint.joint_evals < 300

    def test_evaluation_cap(self, monkeypatch):
        base, u = _two_step_on_sample(two_cluster_spec, 4, 600, 41)
        monkeypatch.setattr(estimation, "_JOINT_MAX_EVALS", 15)
        joint = fit_joint_mle(base, u)
        # L-BFGS-B checks the cap once per iteration, so the last iteration's
        # line search and gradient may run past it
        assert 15 < joint.joint_evals <= 15 + MAX_LINE_SEARCH * 4
        assert not joint.converged
        assert "EVALUATIONS EXCEEDS LIMIT" in joint.joint_status
        assert joint.loglik_joint >= base.loglik_two_step

    def test_failed_evaluation_is_penalised(self, monkeypatch):
        base, u = _two_step_on_sample(two_cluster_spec, 4, 600, 44)
        theta = next(nf.params["theta"] for nf in base.nodes if nf.name == "c2")
        real = hierarchical.archimedean_node_step
        raised = []

        def failing(gen, inputs):
            if gen.family == "gumbel" and gen.theta > theta * (1 + 1e-9):
                raised.append(gen.theta)
                raise EvaluationError("non-finite density")
            return real(gen, inputs)

        monkeypatch.setattr(hierarchical, "archimedean_node_step", failing)
        joint = fit_joint_mle(base, u)
        assert raised and joint.joint_failed_probes > 0
        assert joint.converged and not joint.joint_status.startswith("ABNORMAL")
        assert joint.loglik_joint > base.loglik_two_step
        monkeypatch.undo()
        # the failing probes keep c2 at its two-step theta; the rest is optimised
        start = {nf.name: nf.params["theta"] for nf in base.nodes}
        pinned = joint_loglik_nelder_mead(two_cluster_spec(False), u, start, pinned=("c2",))
        assert joint.loglik_joint == pytest.approx(pinned, abs=1e-8)

    @pytest.mark.parametrize("spec, n_vars, n, seed, cap", [
        *[(joint_mle_spec, 12, 2000, seed, 5000) for seed in (1, 2, *range(100, 106))],
        (two_cluster_spec, 4, 600, 41, 5000), (three_level_spec, 12, 400, 43, 5000),
        *[(joint_mle_spec, 12, 2000, 1, cap) for cap in (3, 15, 60, 100)]])
    def test_matches_scipy_differenced_search(self, monkeypatch, spec, n_vars, n, seed, cap):
        base, u = _two_step_on_sample(spec, n_vars, n, seed)
        monkeypatch.setattr(estimation, "_JOINT_MAX_EVALS", cap)
        joint = fit_joint_mle(base, u)
        ll, model, status, evals = joint_mle_scipy_gradient(base, u, cap)
        assert joint.joint_failed_probes == 0
        assert (joint.loglik_joint, joint.joint_status, joint.joint_evals) == (ll, status, evals)
        assert ({name: copula_params(node.copula) for name, node in _nodes(joint.model)}
                == {name: copula_params(node.copula) for name, node in _nodes(model)})


class TestAicBic:
    def test_information_criteria(self):
        true = build_model(two_cluster_spec(), 4)
        u = model_sample(true, 500, np.random.default_rng(20), method="exact")
        report = fit_two_step(two_cluster_spec(False), u)
        assert report.aic == pytest.approx(2 * 3 - 2 * report.loglik_two_step)
        assert report.bic == pytest.approx(
            3 * np.log(500) - 2 * report.loglik_two_step)


class TestStudy:
    @pytest.mark.parametrize("settings, named", [
        ({"replications": 0}, "'replications'"),
        ({"kendall_mc": 10}, "'kendall_mc'"),
        ({"sample_sizes": [250, 0]}, "'sample_sizes'"),
        ({"sample_sizes": [250, 1]}, "'sample_sizes' must be at least 2"),
        ({"cluster_taus": (0.4,)}, "'cluster_taus'"),
        ({"replications": 2.0}, "'replications'"),
        ({"seed": True}, "'seed'"),
        ({"methods": "joint_mle"}, "'methods'"),
        ({"cluster_families": ("clayton", 1)}, "'cluster_families'"),
        ({"nesting_family": "gaussian"}, "'nesting_family'"),
        ({"nesting_family": "independence"}, "'nesting_family'"),
        ({"cluster_families": ("gaussian", "clayton")}, "'cluster_families'"),
        ({"cluster_families": ("clayton",), "cluster_taus": (0.4,)},
         "'cluster_families' must name at least two clusters"),
        ({"cluster_families": (), "cluster_taus": ()},
         "'cluster_families' must name at least two clusters"),
        ({"nesting_taus": ()}, "'nesting_taus' must be nonempty"),
        ({"sample_sizes": []}, "'sample_sizes' must be nonempty"),
        ({"methods": ()}, "'methods' must be nonempty"),
        ({"methods": ("two_step_closed", "bogus")}, "'methods' must be drawn from"),
        ({"cluster_taus": [1.5, 0.4]}, "'cluster_taus': clayton requires tau in"),
        ({"cluster_taus": [0.4, math.nan]}, "'cluster_taus': gumbel requires tau in"),
        ({"nesting_family": "clayton", "nesting_taus": [0.4, -0.3]},
         "'nesting_taus': clayton requires tau in"),
        ({"nesting_taus": [0.0]}, "'nesting_taus': frank requires tau in"),
        ({"cluster_families": ["clayton", "gumbel", "frank"], "cluster_taus": [0.4] * 3,
          "nesting_taus": [-0.2]}, "'nesting_taus': negative-dependence frank"),
    ], ids=["zero-replications", "small-kendall-mc", "zero-size", "one-row-size",
            "short-taus",
            "float-count", "bool-seed", "string-for-list", "number-for-name",
            "gaussian-nesting", "independence-nesting", "gaussian-cluster",
            "one-cluster", "no-cluster", "no-nesting-tau", "no-sample-size",
            "no-method", "unknown-method", "cluster-tau-above-one", "cluster-tau-nan",
            "clayton-nesting-negative", "frank-nesting-zero",
            "negative-frank-over-three-clusters"])
    def test_bad_settings_are_config_errors(self, settings, named):
        with pytest.raises(ConfigError, match=named):
            StudyConfig(**settings)

    def test_lists_become_tuples(self):
        config = StudyConfig(nesting_taus=[0.4], sample_sizes=[250], methods=["joint_mle"])
        assert config == StudyConfig(nesting_taus=(0.4,), sample_sizes=(250,),
                                     methods=("joint_mle",))
        assert isinstance(config.nesting_taus, tuple)
        # an int is a tau; an independence cluster's tau is never read
        config = StudyConfig(cluster_families=["independence", "clayton"],
                             cluster_taus=[1, 0.4])
        assert config.cluster_taus == (1, 0.4)

    def test_small_study_runs_all_methods(self):
        rows = simulation_study(StudyConfig(
            replications=3, nesting_taus=(0.4,), sample_sizes=(250,),
            kendall_mc=5000))
        methods = {r.method for r in rows}
        assert methods == {"two_step_closed", "two_step_empirical", "joint_mle"}
        assert all(r.n_fail == 0 for r in rows)

    def test_deterministic_under_seed(self):
        cfg = StudyConfig(replications=2, nesting_taus=(0.4,), sample_sizes=(250,),
                          methods=("two_step_closed",), kendall_mc=5000)
        a = simulation_study(cfg)
        b = simulation_study(cfg)
        assert a[0].mse == b[0].mse
        assert simulation_study(cfg, workers=2) == a

    def test_failures_keep_their_reason(self, monkeypatch):
        def failing(report, u, options=None):
            raise EvaluationError("no finite\n log-likelihood")

        monkeypatch.setattr(estimation, "fit_joint_mle", failing)
        cfg = StudyConfig(replications=2, nesting_taus=(0.4,), sample_sizes=(250,),
                          methods=("two_step_closed", "joint_mle"))
        ok, bad = simulation_study(cfg)
        assert (ok.n_fail, ok.fail_reason) == (0, "")
        assert (bad.n_ok, bad.n_fail) == (0, 2)
        assert bad.fail_reason == "2x EvaluationError: no finite log-likelihood"

    @pytest.mark.parametrize("methods", [
        ("joint_mle",), ("two_step_closed", "joint_mle"), ("joint_mle", "two_step_closed")])
    @pytest.mark.parametrize("fails", [False, True])
    def test_closed_form_fit_is_made_once_per_replication(self, monkeypatch, methods, fails):
        modes = []

        def counting(spec, u, options=None):
            modes.append(options.kendall_mode)
            if fails:
                raise EvaluationError("no finite log-likelihood")
            return fit_two_step(spec, u, options)

        monkeypatch.setattr(estimation, "fit_two_step", counting)
        rows = simulation_study(StudyConfig(replications=2, nesting_taus=(0.4,),
                                            sample_sizes=(250,), methods=methods))
        assert modes == ["closed_form"] * 2
        assert [r.method for r in rows] == list(methods)
        if fails:  # counted, with its reason, under each method that needed the fit
            assert all((r.n_fail, r.fail_reason) ==
                       (2, "2x EvaluationError: no finite log-likelihood") for r in rows)
        else:
            assert all((r.n_ok, r.n_fail) == (2, 0) for r in rows)

    def test_method_order_changes_no_row(self):
        config = StudyConfig(replications=2, nesting_taus=(0.4,), sample_sizes=(250,),
                             kendall_mc=5000)
        forward = simulation_study(config)
        backward = simulation_study(StudyConfig(**{**vars(config),
                                                   "methods": config.methods[::-1]}))
        assert [r.method for r in backward] == list(config.methods[::-1])
        assert sorted(forward, key=lambda r: r.method) == sorted(backward,
                                                                 key=lambda r: r.method)
