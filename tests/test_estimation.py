import json
import math
import weakref
from collections import Counter, defaultdict

import numpy as np
import pytest
from scipy.stats import kstest

from hierkendall.copulas import (
    ArchimedeanCopula,
    GaussianCopula,
    StudentTCopula,
    copula_logpdf,
    copula_sample,
)
from hierkendall.errors import DataError, EvaluationError, HierKendallError, ParameterError
from hierkendall.estimation import (
    FitOptions,
    NodeSpec,
    StudyConfig,
    build_model,
    copula_params,
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
from hierkendall.hierarchical import iter_nodes, model_loglik, model_sample
from hierkendall.modelconfig import config_to_spec, parse_model_config, report_document
from hierkendall.rngutil import substream

from oracles import grid_maximum, joint_loglik_nelder_mead, joint_mle_scipy_gradient


def _nodes(model):
    return [(node.name, node) for _, node, _ in iter_nodes(model)]


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
        # archimedean_node_step (keyed by generator), any other through copula_cdf
        spec, u, options = data[case]
        rows = {}
        for name in ("copula_cdf", "archimedean_node_step"):
            def counting(first, x, real=getattr(hierarchical, name)):
                rows.setdefault(id(first), []).append(np.shape(x)[0])
                return real(first, x)

            monkeypatch.setattr(hierarchical, name, counting)
        report = fit_two_step(spec, u, options)
        for _, node, depth in iter_nodes(report.model):
            expected = [u.shape[0]] if depth and node.copula.dim > 1 else []
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
        ], "kendall_mc_size": 2000, "seed": 17})
        corr = np.full((7, 7), 0.3)
        np.fill_diagonal(corr, 1.0)
        u = copula_sample(StudentTCopula(corr, 6.0), 300, np.random.default_rng(23))
        report = fit_two_step(config_to_spec(config, header), u, FitOptions(
            kendall_mc=config.kendall_mc_size, seed=config.seed))
        doc = json.loads(json.dumps(report_document(report, "two-step", header, config)))
        again = parse_model_config(doc)
        rebuilt = build_model(config_to_spec(again, doc["columns"]), n_vars=7,
                              kendall_mc=again.kendall_mc_size, seed=again.seed)
        fitted = {path: node.kendall for path, node, _ in iter_nodes(report.model)}
        for path, node, _ in iter_nodes(rebuilt):
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

    def test_refuses_elliptical_clusters(self):
        spec = NodeSpec("nest", "frank", children=(
            NodeSpec("c1", "gaussian", columns=(0, 1)),
            NodeSpec("c2", "gumbel", columns=(2, 3)),
        ))
        u = np.random.default_rng(18).random((300, 4))
        base = fit_two_step(spec, u, FitOptions(kendall_mc=10_000))
        with pytest.raises(ParameterError):
            fit_joint_mle(base, u)
        forced = fit_joint_mle(base, u, FitOptions(force_frozen_kendall=True))
        assert forced.loglik_joint is not None

    def test_frozen_subtree_evaluated_once_per_fit(self, monkeypatch):
        spec = NodeSpec("nest", "frank", children=(
            NodeSpec("g", "gaussian", columns=(0, 1, 2)),
            NodeSpec("c", "clayton", columns=(3, 4)),
        ))
        u = pseudo_observations(np.random.default_rng(23).normal(size=(250, 5))
                                @ np.triu(np.full((5, 5), 0.5)))
        options = FitOptions(kendall_mc=1000, force_frozen_kendall=True,
                             joint_max_evals=60)
        base = fit_two_step(spec, u, options)
        gauss = next(node.copula for _, node, _ in iter_nodes(base.model) if node.name == "g")
        calls = []
        real_cdf = hierarchical.copula_cdf

        def counting_cdf(c, x):
            calls.append(c is gauss)
            return real_cdf(c, x)

        monkeypatch.setattr(hierarchical, "copula_cdf", counting_cdf)
        joint = fit_joint_mle(base, u, options)
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
    free = estimation._collect_free_params(base.model, False)
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

    def test_evaluation_cap(self):
        base, u = _two_step_on_sample(two_cluster_spec, 4, 600, 41)
        joint = fit_joint_mle(base, u, FitOptions(joint_max_evals=15))
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
    def test_matches_scipy_differenced_search(self, spec, n_vars, n, seed, cap):
        base, u = _two_step_on_sample(spec, n_vars, n, seed)
        joint = fit_joint_mle(base, u, FitOptions(joint_max_evals=cap))
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
    def test_zero_replications_isnt_fatal(self):
        rows = simulation_study(StudyConfig(replications=0, nesting_taus=(0.4,),
                                            sample_sizes=(250,)))
        assert all(r.n_ok == 0 for r in rows)

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

    def test_failures_keep_their_reason(self):
        cfg = StudyConfig(replications=2, nesting_taus=(0.4,), sample_sizes=(250,),
                          methods=("two_step_closed", "bogus"))
        ok, bad = simulation_study(cfg)
        assert (ok.n_fail, ok.fail_reason) == (0, "")
        assert (bad.n_ok, bad.n_fail) == (0, 2)
        assert bad.fail_reason == "2x ParameterError: unknown study method 'bogus'"
