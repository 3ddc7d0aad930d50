import numpy as np
import pytest
from scipy.stats import kendalltau, ks_2samp, kstest

from hierkendall.copulas import (
    ArchimedeanCopula,
    GaussianCopula,
    IndependenceCopula,
    StudentTCopula,
    copula_pdf,
)
from hierkendall.errors import ModelStructureError, ParameterError, SameClusterError
from hierkendall.generators import ArchimedeanGenerator, theta_from_tau
from hierkendall.hierarchical import (
    HierarchicalModel,
    cross_cluster_margin_pdf,
    inner,
    leaf,
    model_density,
    model_loglik,
    model_n_params,
    model_sample,
    nesting_pit,
    nesting_pit_levels,
    node_transform,
    validate,
    validate_model,
)
from hierkendall.levelset import EpsilonRule

CLAYTON2 = ArchimedeanGenerator("clayton", 2.0)
GUMBEL2 = ArchimedeanGenerator("gumbel", 2.0)


def arch(gen, d):
    return ArchimedeanCopula(gen, d)


def two_cluster_model(nesting=None):
    nesting = nesting or arch(theta_from_tau("frank", 0.4), 2)
    return HierarchicalModel(
        root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 2)),
                            leaf("c2", [2, 3], arch(GUMBEL2, 2))], nesting),
        n_vars=4)


def independence_model():
    return HierarchicalModel(
        root=inner("nest", [leaf("c1", [0, 1], IndependenceCopula(2)),
                            leaf("c2", [2, 3], IndependenceCopula(2))],
                   IndependenceCopula(2)),
        n_vars=4)


class TestValidation:
    def test_valid_model_passes(self):
        assert validate_model(two_cluster_model()) == []

    def test_overlap_names_variable(self):
        m = HierarchicalModel(
            root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 2)),
                                leaf("c2", [1, 2], arch(GUMBEL2, 2))],
                       arch(theta_from_tau("frank", 0.4), 2)),
            n_vars=4)
        problems = validate_model(m)
        assert any("variable 1 overlaps" in p for p in problems)
        assert any("not covered" in p for p in problems)

    def test_dimension_mismatch(self):
        m = HierarchicalModel(
            root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 3)),
                                leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                       arch(theta_from_tau("frank", 0.4), 2)),
            n_vars=4)
        assert any("copula dimension 3" in p for p in validate_model(m))

    def test_path_separator_in_name_rejected(self):
        # node paths key the memo of a pass; "a/b" under the root would read as b under a
        m = HierarchicalModel(
            root=inner("nest", [leaf("c/1", [0, 1], arch(CLAYTON2, 2)),
                                leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                       arch(theta_from_tau("frank", 0.4), 2)),
            n_vars=4)
        assert any("'c/1' contains '/'" in p for p in validate_model(m))

    def test_kendall_dimension_checked(self):
        from hierkendall.kendall import closed_form_kendall
        bad_k = closed_form_kendall(CLAYTON2, 3)
        m = HierarchicalModel(
            root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 2), kendall=bad_k),
                                leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                       arch(theta_from_tau("frank", 0.4), 2)),
            n_vars=4)
        assert any("Kendall dimension 3" in p for p in validate_model(m))

    def test_mixed_depth_rejected(self):
        deep = inner("mid", [leaf("c1", [0, 1], arch(CLAYTON2, 2)),
                             leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                     arch(theta_from_tau("frank", 0.4), 2), nested=True)
        m = HierarchicalModel(
            root=inner("nest", [deep, leaf("c3", [4], IndependenceCopula(1))],
                       IndependenceCopula(2)),
            n_vars=5)
        assert any("mixed depths" in p for p in validate_model(m))

    def test_width_ordering_enforced(self):
        # 1 cluster at level 1 feeding 2 "clusters" is impossible; widths
        # must not grow toward the root
        lf = leaf("a", [0, 1], arch(CLAYTON2, 2))
        mid1 = inner("m1", [lf], IndependenceCopula(1), nested=True)
        lf2 = leaf("b", [2, 3], arch(GUMBEL2, 2))
        mid2 = inner("m2", [lf2], IndependenceCopula(1), nested=True)
        mid3 = inner("m3", [leaf("c", [4, 5], arch(GUMBEL2, 2))],
                     IndependenceCopula(1), nested=True)
        m = HierarchicalModel(
            root=inner("nest", [mid1, mid2, mid3],
                       arch(theta_from_tau("frank", 0.3), 3)),
            n_vars=6)
        assert validate_model(m) == []  # widths 3 -> 3: fine
        # now 2 level-1 clusters under 3 level-2 nodes cannot happen
        # structurally (each inner needs >= 1 child), so check the
        # validator flags a synthetic width inversion via duplicate wiring
        m_bad = HierarchicalModel(
            root=inner("nest", [inner("m1", [lf, lf2], arch(GUMBEL2, 2),
                                      nested=True)],
                       IndependenceCopula(1)),
            n_vars=4)
        assert validate_model(m_bad) == []  # widths 2 -> 1: legal

    def test_validate_raises(self):
        m = HierarchicalModel(
            root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 2)),
                                leaf("c2", [1, 2], arch(GUMBEL2, 2))],
                       arch(theta_from_tau("frank", 0.4), 2)),
            n_vars=4)
        with pytest.raises(ModelStructureError):
            validate(m)


class TestNestingPit:
    def test_size_one_cluster_passthrough(self):
        m = HierarchicalModel(
            root=inner("nest", [leaf("a", [0], IndependenceCopula(1)),
                                leaf("b", [1], IndependenceCopula(1))],
                       IndependenceCopula(2)),
            n_vars=2)
        u = np.array([[0.3, 0.1], [0.9, 0.8]])
        np.testing.assert_array_equal(nesting_pit(m, u), u)

    def test_clayton_hand_value(self):
        m = two_cluster_model()
        row = np.array([0.2773500981126146, 0.2773500981126146, 0.5, 0.5])
        v = nesting_pit(m, row)
        # K(C(u1,u2)) = K(0.2) = 0.2 + 0.2*(1 - 0.2^2)/2 = 0.296
        assert v[0] == pytest.approx(0.296, abs=1e-12)

    def test_independence_cluster_value(self):
        m = HierarchicalModel(
            root=inner("nest", [leaf("c1", [0, 1], IndependenceCopula(2)),
                                leaf("c2", [2, 3], IndependenceCopula(2))],
                       IndependenceCopula(2)),
            n_vars=4)
        v = nesting_pit(m, np.array([0.5, 0.5, 0.5, 0.5]))
        # K(0.25) with K(t) = t - t log t
        assert v[0] == pytest.approx(0.25 - 0.25 * np.log(0.25), abs=1e-12)

    def test_uniform_under_correct_model(self):
        m = two_cluster_model()
        u = model_sample(m, 4000, np.random.default_rng(2))
        v = nesting_pit(m, u)
        for j in range(v.shape[1]):
            assert kstest(v[:, j], "uniform").pvalue > 0.01

    @pytest.mark.parametrize("d", [20, 40])
    def test_uniform_for_a_large_cluster(self, d):
        m = HierarchicalModel(
            root=inner("nest", [
                leaf("big", list(range(d)), arch(theta_from_tau("frank", 0.3), d)),
                leaf("pair", [d, d + 1], arch(CLAYTON2, 2))],
                arch(theta_from_tau("clayton", 0.4), 2)),
            n_vars=d + 2)
        v = nesting_pit(m, model_sample(m, 4000, np.random.default_rng(d), "exact"))
        for j in range(2):
            assert kstest(v[:, j], "uniform").pvalue > 1e-3, j
            assert np.unique(v[:, j]).size == v.shape[0], j  # no rows share one V

    def test_levels_come_from_the_same_pass(self):
        c1 = leaf("c1", [0, 1], arch(CLAYTON2, 2))
        m = HierarchicalModel(
            root=inner("nest", [
                inner("m1", [c1, leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                      arch(theta_from_tau("frank", 0.5), 2), nested=True),
                inner("m2", [leaf("c3", [4], IndependenceCopula(1))],
                      IndependenceCopula(1), nested=True)],
                arch(CLAYTON2, 2)),
            n_vars=5)
        assert validate_model(m) == []
        u = np.random.default_rng(3).random((50, 5))
        levels = nesting_pit_levels(m, u)
        assert [lv.shape for lv in levels] == [(50, 3), (50, 2)]
        np.testing.assert_array_equal(levels[-1], nesting_pit(m, u))
        np.testing.assert_array_equal(levels[0][:, 0], node_transform(c1, u[:, :2])[0])
        np.testing.assert_array_equal(levels[0][:, 2], u[:, 4])
        np.testing.assert_array_equal(levels[-1][:, 1], u[:, 4])

    def test_pass_rate_over_seeds(self):
        m = two_cluster_model()
        passes = 0
        for seed in range(100):
            u = model_sample(m, 400, np.random.default_rng(seed))
            v = nesting_pit(m, u)
            passes += all(kstest(v[:, j], "uniform").pvalue > 0.01
                          for j in range(v.shape[1]))
        assert passes >= 95


class TestDensity:
    def test_full_independence_is_one(self):
        m = independence_model()
        rng = np.random.default_rng(1)
        u = rng.random((50, 4))
        np.testing.assert_allclose(model_density(m, u), 1.0)

    def test_independence_nesting_factorizes(self):
        m = two_cluster_model(nesting=IndependenceCopula(2))
        pt = np.array([0.3, 0.4, 0.6, 0.7])
        expected = (copula_pdf(arch(CLAYTON2, 2), pt[:2])
                    * copula_pdf(arch(GUMBEL2, 2), pt[2:]))
        assert model_density(m, pt) == pytest.approx(expected, rel=1e-12)

    def test_compositional_oracle(self):
        gf = theta_from_tau("frank", 0.45)
        m = two_cluster_model(nesting=arch(gf, 2))
        pt = np.array([0.3, 0.4, 0.6, 0.7])
        v = nesting_pit(m, pt[None, :])[0]
        expected = (copula_pdf(arch(CLAYTON2, 2), pt[:2])
                    * copula_pdf(arch(GUMBEL2, 2), pt[2:])
                    * copula_pdf(arch(gf, 2), v))
        assert model_density(m, pt) == pytest.approx(expected, rel=1e-12)

    def test_normalization_quick_mc(self):
        m = two_cluster_model()
        rng = np.random.default_rng(3)
        u = rng.random((200_000, 4))
        integral = float(np.mean(model_density(m, u)))
        assert integral == pytest.approx(1.0, abs=0.05)

    def test_loglik_independence_zero(self):
        m = independence_model()
        u = np.random.default_rng(4).random((100, 4))
        ll = model_loglik(m, u)
        assert ll.value == 0.0 and ll.n_clamped == 0

    def test_loglik_single_row(self):
        m = two_cluster_model()
        pt = np.array([0.3, 0.4, 0.6, 0.7])
        assert model_loglik(m, pt[None, :]).value == pytest.approx(
            np.log(model_density(m, pt)))

    def test_loglik_clamps_extreme_rows(self):
        g = ArchimedeanGenerator("clayton", 18.0)
        m = HierarchicalModel(
            root=inner("nest", [leaf("c1", [0, 1], arch(g, 2)),
                                leaf("c2", [2, 3], arch(g, 2))],
                       IndependenceCopula(2)),
            n_vars=4)
        # strongly discordant pairs under near-comonotone dependence push
        # the density below the 1e-300 floor
        u = np.array([[1e-12, 1 - 1e-12, 1 - 1e-12, 1e-12],
                      [0.5, 0.5, 0.5, 0.5]])
        ll = model_loglik(m, u)
        assert ll.n_clamped == 1
        assert np.isfinite(ll.value)

    def test_entropy_self_consistency(self):
        m = two_cluster_model()
        u1 = model_sample(m, 10_000, np.random.default_rng(5))
        u2 = model_sample(m, 10_000, np.random.default_rng(6))
        a = model_loglik(m, u1).value / 10_000
        b = model_loglik(m, u2).value / 10_000
        assert a == pytest.approx(b, abs=0.05)


class TestSampling:
    def test_exact_within_cluster_and_nesting_tau(self):
        m = HierarchicalModel(
            root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 2)),
                                leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                       arch(GUMBEL2, 2)),
            n_vars=4)
        u = model_sample(m, 10_000, np.random.default_rng(7), method="exact")
        assert kendalltau(u[:, 0], u[:, 1]).statistic == pytest.approx(0.5, abs=0.02)
        assert kendalltau(u[:, 2], u[:, 3]).statistic == pytest.approx(0.5, abs=0.02)
        v = nesting_pit(m, u)
        assert kendalltau(v[:, 0], v[:, 1]).statistic == pytest.approx(0.5, abs=0.02)

    def test_independence_model_all_taus_zero(self):
        u = model_sample(independence_model(), 10_000, np.random.default_rng(8))
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(kendalltau(u[:, i], u[:, j]).statistic) < 0.02

    def test_exact_refuses_elliptical_cluster(self):
        m = HierarchicalModel(
            root=inner("nest",
                       [leaf("c1", [0, 1], GaussianCopula(np.array([[1, .5], [.5, 1.]]))),
                        leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                       arch(GUMBEL2, 2)),
            n_vars=4)
        with pytest.raises(ParameterError):
            model_sample(m, 10, np.random.default_rng(9), method="exact")

    def test_rejection_matches_exact(self):
        m = two_cluster_model()
        a = model_sample(m, 8000, np.random.default_rng(10), method="exact")
        b = model_sample(m, 8000, np.random.default_rng(11), method="rejection",
                         eps_rule=EpsilonRule("rel", 0.005))
        for j in range(4):
            assert ks_2samp(a[:, j], b[:, j]).pvalue > 0.01

    def test_rejection_for_elliptical_cluster(self):
        m = HierarchicalModel(
            root=inner("nest",
                       [leaf("c1", [0, 1],
                             GaussianCopula(np.array([[1, .5], [.5, 1.]])),
                             kendall=_gauss_kendall()),
                        leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                       arch(GUMBEL2, 2)),
            n_vars=4)
        u = model_sample(m, 300, np.random.default_rng(12), method="rejection",
                         eps_rule=EpsilonRule("abs", 0.02))
        assert kendalltau(u[:, 0], u[:, 1]).statistic == pytest.approx(
            1 / 3, abs=0.12)

    def test_three_level_model(self):
        gf = theta_from_tau("frank", 0.5)
        lvl2a = inner("m1", [leaf("c1", [0, 1], arch(CLAYTON2, 2)),
                             leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                      arch(gf, 2), nested=True)
        lvl2b = inner("m2", [leaf("c3", [4], IndependenceCopula(1)),
                             leaf("c4", [5], IndependenceCopula(1))],
                      arch(CLAYTON2, 2), nested=True)
        m = HierarchicalModel(
            root=inner("nest", [lvl2a, lvl2b], arch(GUMBEL2, 2)),
            n_vars=6)
        assert validate_model(m) == []
        u = model_sample(m, 5000, np.random.default_rng(13), method="exact")
        assert u.shape == (5000, 6)
        levels = nesting_pit_levels(m, u)
        assert levels[-1].shape == (5000, 2)
        for j in range(2):
            assert kstest(levels[-1][:, j], "uniform").pvalue > 0.01
        ld = model_loglik(m, u)
        assert np.isfinite(ld.value)

    def test_comonotone_nesting_ranks_align(self):
        rho = 1.0 - 1e-9
        m = two_cluster_model(
            nesting=GaussianCopula(np.array([[1.0, rho], [rho, 1.0]])))
        u = model_sample(m, 500, np.random.default_rng(14))
        v = nesting_pit(m, u)
        r1 = np.argsort(np.argsort(v[:, 0]))
        r2 = np.argsort(np.argsort(v[:, 1]))
        assert np.mean(r1 == r2) > 0.99

    def test_sample_beats_noise_in_likelihood(self):
        m = two_cluster_model()
        own = model_sample(m, 1000, np.random.default_rng(15))
        noise = np.random.default_rng(16).random((1000, 4))
        assert model_loglik(m, own).value > model_loglik(m, noise).value


def _gauss_kendall():
    from hierkendall.hierarchical import kendall_for_copula
    return kendall_for_copula(GaussianCopula(np.array([[1, .5], [.5, 1.]])),
                              mode="empirical", m=20_000,
                              rng=np.random.default_rng(99))


class TestCrossClusterMargin:
    def test_independence_nesting_is_one(self):
        m = two_cluster_model(nesting=IndependenceCopula(2))
        est, se = cross_cluster_margin_pdf(m, 0, 2, 0.4, 0.6, 2000,
                                           np.random.default_rng(20))
        assert abs(est - 1.0) <= max(3.0 * se, 1e-9)

    def test_size_one_clusters_exact(self):
        corr = np.array([[1.0, 0.55], [0.55, 1.0]])
        m = HierarchicalModel(
            root=inner("nest", [leaf("a", [0], IndependenceCopula(1)),
                                leaf("b", [1], IndependenceCopula(1))],
                       GaussianCopula(corr)),
            n_vars=2)
        est, se = cross_cluster_margin_pdf(m, 0, 1, 0.4, 0.6, 100,
                                           np.random.default_rng(21))
        assert se < 1e-12  # constant integrand: no Monte Carlo error
        assert est == pytest.approx(copula_pdf(GaussianCopula(corr), [0.4, 0.6]),
                                    rel=1e-9)

    def test_same_cluster_rejected(self):
        m = two_cluster_model()
        with pytest.raises(SameClusterError):
            cross_cluster_margin_pdf(m, 0, 1, 0.4, 0.6, 100,
                                     np.random.default_rng(22))

    def test_gumbel_configuration_density_normalizes(self):
        # bivariate Gumbel clusters (theta 3 and 4) under a Gumbel(2) nesting
        # copula: the (U1, U3) margin density must integrate to 1
        m = HierarchicalModel(
            root=inner("nest",
                       [leaf("c1", [0, 1], arch(ArchimedeanGenerator("gumbel", 3.0), 2)),
                        leaf("c2", [2, 3], arch(ArchimedeanGenerator("gumbel", 4.0), 2))],
                       arch(GUMBEL2, 2)),
            n_vars=4)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        pts = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        rng = np.random.default_rng(23)
        total = 0.0
        for a, wa in zip(pts, w):
            for b, wb in zip(pts, w):
                est, _ = cross_cluster_margin_pdf(m, 0, 2, a, b, 1500, rng)
                total += wa * wb * est
        assert total == pytest.approx(1.0, abs=0.02)


class TestDefaultKendall:
    def test_identical_calls_build_equal_empirical_kendall_functions(self):
        corr = np.array([[1, .5], [.5, 1.]])
        a, b = (leaf("g", (0, 1), GaussianCopula(corr)).kendall for _ in range(2))
        c, d = (inner("t", [], StudentTCopula(corr, 5.0), nested=True).kendall
                for _ in range(2))
        for first, second in ((a, b), (c, d)):
            assert first.kind == "empirical"
            assert np.array_equal(first.sorted_values, second.sorted_values)


class TestParameterCounting:
    def test_dax_shaped_counts(self):
        # ten clusters of sizes 5,4,3,3,3,4,3,2,2,1 with a 10-dim nesting
        sizes = [5, 4, 3, 3, 3, 4, 3, 2, 2, 1]
        cols, start = [], 0
        for s in sizes:
            cols.append(list(range(start, start + s)))
            start += s
        corr10 = np.eye(10)
        idx = np.triu_indices(10, 1)
        corr10[idx] = 0.3
        corr10 += np.triu(corr10, 1).T

        def clayton_clusters():
            return [leaf(f"c{i}", c,
                         IndependenceCopula(1) if len(c) == 1
                         else arch(ArchimedeanGenerator("clayton", 2.0), len(c)))
                    for i, c in enumerate(cols)]

        def gauss_clusters():
            out = []
            for i, c in enumerate(cols):
                if len(c) == 1:
                    out.append(leaf(f"c{i}", c, IndependenceCopula(1)))
                else:
                    sub = np.eye(len(c)) * 0.5 + 0.5
                    out.append(leaf(f"c{i}", c, GaussianCopula(sub),
                                    kendall=_small_emp_kendall(len(c))))
            return out

        def t_clusters():
            out = []
            for i, c in enumerate(cols):
                if len(c) == 1:
                    out.append(leaf(f"c{i}", c, IndependenceCopula(1)))
                else:
                    sub = np.eye(len(c)) * 0.5 + 0.5
                    out.append(leaf(f"c{i}", c, StudentTCopula(sub, 5.0),
                                    kendall=_small_emp_kendall(len(c))))
            return out

        m = HierarchicalModel(root=inner("nest", clayton_clusters(),
                                         StudentTCopula(corr10, 5.0)), n_vars=30)
        assert model_n_params(m) == 55
        m = HierarchicalModel(root=inner("nest", gauss_clusters(),
                                         StudentTCopula(corr10, 5.0)), n_vars=30)
        assert model_n_params(m) == 82
        m = HierarchicalModel(root=inner("nest", t_clusters(),
                                         StudentTCopula(corr10, 5.0)), n_vars=30)
        assert model_n_params(m) == 91


def _small_emp_kendall(dim):
    from hierkendall.kendall import empirical_kendall_from_values
    vals = np.linspace(0.01, 0.99, 1000)
    return empirical_kendall_from_values(vals, dim)
