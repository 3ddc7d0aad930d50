import numpy as np
import pytest
from scipy.stats import kstest

from hierkendall.copulas import (
    ArchimedeanCopula,
    GaussianCopula,
    StudentTCopula,
    copula_sample,
)
from hierkendall.errors import DataError, ParameterError
from hierkendall.estimation import (
    FitOptions,
    NodeSpec,
    StudyConfig,
    build_model,
    eta_from_theta,
    fit_cluster,
    fit_joint_mle,
    fit_two_step,
    pseudo_observations,
    simulation_study,
    theta_from_eta,
)
from hierkendall.generators import ArchimedeanGenerator
import hierkendall.hierarchical as hierarchical
from hierkendall.hierarchical import iter_nodes, model_loglik, model_sample
from hierkendall.rngutil import substream


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
