import math
import re

import numpy as np
import pytest
from scipy.stats import kendalltau, ks_2samp, kstest

import hierkendall.hierarchical as hierarchical

from hierkendall.copulas import (
    ArchimedeanCopula,
    GaussianCopula,
    IndependenceCopula,
    StudentTCopula,
    clamp_interior,
    copula_pdf,
    copula_sample,
)
from hierkendall.errors import (DimensionError, ModelStructureError, ParameterError,
                                SameClusterError)
from hierkendall.estimation import (
    FitOptions,
    NodeSpec,
    build_model,
    fit_joint_mle,
    fit_two_step,
)
from hierkendall.generators import ArchimedeanGenerator, theta_from_tau
from hierkendall.hierarchical import (
    HierarchicalModel,
    cross_cluster_margin_pdf,
    inner,
    iter_nodes,
    leaf,
    model_density,
    model_logdensity,
    model_loglik,
    model_n_params,
    model_sample,
    nesting_pit,
    node_transform,
)
from hierkendall.kendall import closed_form_kendall
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


FRANK3 = theta_from_tau("frank", 0.3)
FRANK5 = theta_from_tau("frank", 0.5)


def three_level_model(c1=None, c2=None, mid=None, c3=None, root=None, n_vars=6):
    """The valid model nest -> (m -> (c1, c2), c3) over variables 0..5, with
    any one node swapped: ``mid`` and ``root`` are functions of their children."""
    c1 = c1 or leaf("c1", [0, 1], arch(CLAYTON2, 2))
    c2 = c2 or leaf("c2", [2, 3], arch(GUMBEL2, 2))
    mid = (mid or (lambda a, b: inner("m", [a, b], arch(FRANK5, 2), nested=True)))(c1, c2)
    c3 = c3 or leaf("c3", [4, 5], arch(CLAYTON2, 2))
    root = (root or (lambda a, b: inner("nest", [a, b], arch(FRANK3, 2))))(mid, c3)
    return HierarchicalModel(root=root, n_vars=n_vars)


class TestValidation:
    def test_valid_models_build(self):
        for m in (two_cluster_model(), three_level_model()):
            assert isinstance(m, HierarchicalModel)

    @pytest.mark.parametrize("swap, problems", [
        ({"n_vars": 7}, ["root: variables [6] not covered by any cluster"]),
        ({"c2": leaf("c2", [1, 3], arch(GUMBEL2, 2))},
         ["root/m/c2: variable 1 overlaps with cluster 'c1'",
          "root: variables [2] not covered by any cluster"]),
        ({"c3": leaf("c1", [4, 5], arch(CLAYTON2, 2))}, ["root/c1: duplicate node name 'c1'"]),
        ({"root": lambda a, b: leaf("nest", range(6), arch(CLAYTON2, 6))},
         ["root must be an inner node carrying the nesting copula"]),
        ({"c1": leaf("c1", [0, 1], arch(CLAYTON2, 3))},
         ["root/m/c1: copula dimension 3 != column count 2"]),
        ({"mid": lambda a, b: inner("m", [a, b], arch(CLAYTON2, 3), nested=True)},
         ["root/m: copula dimension 3 != child count 2"]),
        ({"c2": leaf("c2", [2, 3], arch(GUMBEL2, 2), closed_form_kendall(GUMBEL2, 3))},
         ["root/m/c2: Kendall dimension 3 != copula dimension 2"]),
        ({"mid": lambda a, b: inner("m", [a, b], arch(FRANK5, 2))},
         ["root/m: nested node lacks a Kendall function"])],
        ids=["uncovered", "overlap", "duplicate-name", "leaf-root", "leaf-copula-dim",
             "nested-copula-dim", "kendall-dim", "no-kendall"])
    def test_one_fault_is_refused_when_built(self, swap, problems):
        with pytest.raises(ModelStructureError) as err:
            three_level_model(**swap)
        assert err.value.problems == problems
        assert str(err.value) == "; ".join(problems)

    @pytest.mark.parametrize("c1, c2, problems", [
        ([0, 1.7], [2, 3], ["root/m/c1: column 1.7 is not a variable index",
                            "root: variables [1] not covered by any cluster"]),
        ([0, 1.7], ["2", 3.9], ["root/m/c1: column 1.7 is not a variable index",
                                "root/m/c2: column '2' is not a variable index",
                                "root/m/c2: column 3.9 is not a variable index",
                                "root: variables [1, 2, 3] not covered by any cluster"]),
        ([0, True], [2, 3], ["root/m/c1: column True is not a variable index",
                             "root: variables [1] not covered by any cluster"])],
        ids=["fraction", "string-and-fractions", "bool"])
    def test_a_column_that_is_not_an_integer_is_refused(self, c1, c2, problems):
        """Each of these, truncated to int, would partition 0..5; a column is
        refused as a template's is, not coerced."""
        with pytest.raises(ModelStructureError) as err:
            three_level_model(c1=leaf("c1", c1, arch(CLAYTON2, 2)),
                              c2=leaf("c2", c2, arch(GUMBEL2, 2)))
        assert err.value.problems == problems

    def test_numpy_integer_columns_are_indices(self):
        m = three_level_model(c1=leaf("c1", np.arange(2), arch(CLAYTON2, 2)))
        assert m.root.children[0].children[0].columns == (0, 1)

    @pytest.mark.parametrize("n_vars", [6.0, True, "6", 0, None])
    def test_n_vars_must_be_a_count(self, n_vars):
        with pytest.raises(ParameterError, match=re.escape(
                f"n_vars must be an integer >= 1, got {n_vars!r}")) as err:
            three_level_model(n_vars=n_vars)
        assert err.value.argument == "n_vars"

    def test_faults_are_listed_together(self):
        with pytest.raises(ModelStructureError) as err:
            three_level_model(c1=leaf("c1", [0, 1], arch(CLAYTON2, 3)),
                              mid=lambda a, b: inner("m", [a, b], arch(FRANK5, 2)), n_vars=7)
        assert err.value.problems == [
            "root: variables [6] not covered by any cluster",
            "root/m: nested node lacks a Kendall function",
            "root/m/c1: copula dimension 3 != column count 2"]

    def test_overlap_names_variable(self):
        with pytest.raises(ModelStructureError) as err:
            HierarchicalModel(
                root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 2)),
                                    leaf("c2", [1, 2], arch(GUMBEL2, 2))],
                           arch(theta_from_tau("frank", 0.4), 2)),
                n_vars=4)
        assert err.value.problems == ["root/c2: variable 1 overlaps with cluster 'c1'",
                                      "root: variables [3] not covered by any cluster"]

    def test_dimension_mismatch(self):
        with pytest.raises(ModelStructureError, match=re.escape(
                "root/c1: copula dimension 3 != column count 2")):
            HierarchicalModel(
                root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 3)),
                                    leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                           arch(theta_from_tau("frank", 0.4), 2)),
                n_vars=4)

    def test_path_separator_in_name_accepted(self):
        # paths only label nodes in messages; the pass memo is keyed by node object
        m = HierarchicalModel(
            root=inner("nest", [leaf("EUR/USD", [0, 1], arch(CLAYTON2, 2)),
                                leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                       arch(theta_from_tau("frank", 0.4), 2)),
            n_vars=4)
        assert [path for path, _ in iter_nodes(m)] == ["root", "root/EUR/USD", "root/c2"]

    def test_kendall_dimension_checked(self):
        bad_k = closed_form_kendall(CLAYTON2, 3)
        with pytest.raises(ModelStructureError, match=re.escape(
                "root/c1: Kendall dimension 3 != copula dimension 2")):
            HierarchicalModel(
                root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 2), kendall=bad_k),
                                    leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                           arch(theta_from_tau("frank", 0.4), 2)),
                n_vars=4)

    def test_leaf_beside_a_nested_pair_is_its_padded_twin(self):
        """A cluster directly under the root behaves bit for bit as the same
        cluster under a size-1 pass-through node: in sampling, density,
        probability integral transform, two-step and joint fit."""
        pair = NodeSpec("m", "gumbel", children=(
            NodeSpec("c1", "clayton", columns=(0, 1), params={"tau": 0.5}),
            NodeSpec("c2", "gumbel", columns=(2, 3), params={"tau": 0.5})),
            params={"tau": 0.3})
        c3 = NodeSpec("c3", "clayton", columns=(4, 5), params={"tau": 0.4})
        specs = [NodeSpec("nest", "frank", children=(pair, tree), params={"tau": 0.2})
                 for tree in (c3, NodeSpec("p", "independence", children=(c3,)))]
        models = [build_model(spec, n_vars=6) for spec in specs]
        for method in ("exact", "auto"):
            a, b = (model_sample(m, 400, np.random.default_rng(5), method) for m in models)
            np.testing.assert_array_equal(a, b)
        u = a
        for f in (model_logdensity, nesting_pit):
            np.testing.assert_array_equal(f(models[0], u), f(models[1], u))
        options = FitOptions(kendall_mode="closed_form")
        two_step = [fit_two_step(spec, u, options) for spec in specs]
        joint = [fit_joint_mle(report, u, options) for report in two_step]
        assert joint[0].joint_evals > 0
        for a, b in (two_step, joint):
            assert a.loglik_two_step == b.loglik_two_step
            assert a.loglik_joint == b.loglik_joint
            assert a.joint_evals == b.joint_evals
            assert ({nf.name: nf.params for nf in a.nodes}
                    == {nf.name: nf.params for nf in b.nodes if nf.name != "p"})

    def test_pass_through_nodes_and_a_one_child_root_are_valid(self):
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
        assert [node.name for _, node in iter_nodes(m)] == ["nest", "m1", "a", "m2", "b",
                                                             "m3", "c"]
        m = HierarchicalModel(
            root=inner("nest", [inner("m1", [lf, lf2], arch(GUMBEL2, 2), nested=True)],
                       IndependenceCopula(1)),
            n_vars=4)
        assert m.root.children[0].kendall.dim == 2

    @pytest.mark.parametrize("make, cls, message", [
        (lambda: HierarchicalModel(root=leaf("c1", [0, 1], arch(CLAYTON2, 2)), n_vars=2),
         ModelStructureError, "root must be an inner node carrying the nesting copula"),
        (lambda: HierarchicalModel(
            root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 2)),
                                leaf("c1", [2, 3], arch(GUMBEL2, 2))], arch(CLAYTON2, 2)),
            n_vars=4),
         ModelStructureError, "root/c1: duplicate node name 'c1'"),
        (lambda: HierarchicalModel(
            root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 2)),
                                leaf("c2", [2, 9], arch(GUMBEL2, 2))], arch(CLAYTON2, 2)),
            n_vars=4),
         ModelStructureError, "root/c2: variable 9 outside 0..3"),
        (lambda: HierarchicalModel(
            root=inner("nest", [leaf("c1", [0, 1], arch(CLAYTON2, 2)),
                                inner("m", [leaf("c2", [2, 3], arch(GUMBEL2, 2))],
                                      IndependenceCopula(1))], arch(CLAYTON2, 2)),
            n_vars=4),
         ModelStructureError, "root/m: nested node lacks a Kendall function"),
        (lambda: model_logdensity(two_cluster_model(), np.full((3, 5), 0.5)),
         DimensionError, "expected points of dimension 4, got shape (3, 5)"),
        (lambda: model_sample(two_cluster_model(), 10, np.random.default_rng(0), "bogus"),
         ParameterError, "unknown sampling method 'bogus'")],
        ids=["leaf-root", "duplicate-name", "variable-range", "no-kendall",
             "data-columns", "sampling-method"])
    def test_refusal_names_its_fault(self, make, cls, message):
        with pytest.raises(cls, match=re.escape(message)):
            make()


class TestNestingPit:
    @pytest.mark.parametrize("fn", [nesting_pit, model_logdensity])
    @pytest.mark.parametrize("shape", [(6, 3), (6, 5), (3,), (5,), (), (2, 2, 4)])
    def test_wrong_column_count_is_refused(self, fn, shape):
        with pytest.raises(DimensionError, match=re.escape(
                f"expected points of dimension 4, got shape {shape}")):
            fn(two_cluster_model(), np.full(shape, 0.5))

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
        u = np.random.default_rng(3).random((50, 5))
        memo = {}
        model_logdensity(m, u, memo)
        nodes = [node for _, node in iter_nodes(m)]
        assert len(memo) == len(nodes) and all(node in memo for node in nodes)
        v = {node.name: entry[0] for node, entry in memo.items()}
        np.testing.assert_array_equal(
            nesting_pit(m, u), np.column_stack([v["m1"], v["m2"]]))
        np.testing.assert_array_equal(memo[c1][0], node_transform(c1, u[:, :2])[0])
        np.testing.assert_array_equal(v["c3"], u[:, 4])
        np.testing.assert_array_equal(v["m2"], u[:, 4])
        assert v["nest"] is None  # the root has no Kendall function

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

    @pytest.mark.parametrize("method, eps_rule", [
        ("auto", None), ("exact", None), ("rejection", EpsilonRule("abs", 0.01))])
    def test_one_variable_leaf_is_its_root_column(self, method, eps_rule):
        """A one-variable leaf has the identity K and the level set {z}: its
        column is the root copula's column, clamped, under every method."""
        root = arch(theta_from_tau("frank", 0.4), 2)
        m = HierarchicalModel(
            root=inner("nest", [leaf("c", [0, 1], arch(theta_from_tau("clayton", 0.5), 2)),
                                leaf("s", [2], IndependenceCopula(1))], root),
            n_vars=3)
        kwargs = {} if eps_rule is None else {"eps_rule": eps_rule}
        u = model_sample(m, 2000, np.random.default_rng(5), method, **kwargs)
        want = clamp_interior(copula_sample(root, 2000, np.random.default_rng(5))[:, 1])
        np.testing.assert_array_equal(u[:, 2], want)

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

    def test_exact_refusal_names_the_node_before_any_draw(self):
        m = _mixed_model()
        rng = np.random.default_rng(9)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match=r"root/g2 \(GaussianCopula\) is not"):
            model_sample(m, 10, rng, method="exact")
        assert rng.bit_generator.state == state

    def test_negative_row_count_is_refused_by_name(self):
        with pytest.raises(ParameterError, match="n must be an integer >= 0, got -5") as info:
            model_sample(_mixed_model(), -5, np.random.default_rng(9))
        assert info.value.argument == "n"

    @pytest.mark.parametrize("method, exact, rejected", [
        ("auto", ["c3"], ["g2"]), ("rejection", [], ["g2", "c3"])])
    def test_each_node_is_sampled_by_its_own_method(self, monkeypatch, method, exact,
                                                    rejected):
        m = _mixed_model()
        calls = {"exact": [], "rejection": []}
        by_copula = {id(node.copula): node.name for _, node in iter_nodes(m)}
        real_exact = hierarchical.sample_levelset_conditional_batch
        real_rejection = hierarchical.sample_levelset_rejection_batch

        def counting_exact(g, d, z, rng):
            calls["exact"].append((g, d))
            return real_exact(g, d, z, rng)

        def counting_rejection(copula, *args):
            calls["rejection"].append(by_copula[id(copula)])
            return real_rejection(copula, *args)

        monkeypatch.setattr(hierarchical, "sample_levelset_conditional_batch", counting_exact)
        monkeypatch.setattr(hierarchical, "sample_levelset_rejection_batch",
                            counting_rejection)
        u = model_sample(m, 300, np.random.default_rng(21), method,
                         EpsilonRule("abs", 0.02))
        assert u.shape == (300, 5) and np.all((u > 0.0) & (u < 1.0))
        assert calls["rejection"] == rejected
        assert calls["exact"] == [(MIXED_CLAYTON.generator, 3)] * len(exact)

    def test_auto_samples_the_archimedean_cluster_exactly(self):
        m = _mixed_model()
        u = model_sample(m, 3000, np.random.default_rng(22), "auto",
                         EpsilonRule("abs", 0.02))
        for j, k, tau in ((0, 1, 1 / 3), (2, 3, 0.4), (3, 4, 0.4)):
            assert kendalltau(u[:, j], u[:, k]).statistic == pytest.approx(tau, abs=0.05)
        for j in range(2):
            assert kstest(nesting_pit(m, u)[:, j], "uniform").pvalue > 0.01

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
        u = model_sample(m, 5000, np.random.default_rng(13), method="exact")
        assert u.shape == (5000, 6)
        v = nesting_pit(m, u)
        assert v.shape == (5000, 2)
        for j in range(2):
            assert kstest(v[:, j], "uniform").pvalue > 0.01
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


MIXED_CLAYTON = arch(theta_from_tau("clayton", 0.4), 3)


def _mixed_model():
    """A 2-d Gaussian and a 3-d Clayton cluster under a Frank root."""
    return HierarchicalModel(
        root=inner("nest", [leaf("g2", [0, 1], GaussianCopula(np.array([[1, .5], [.5, 1.]])),
                                 kendall=_gauss_kendall()),
                            leaf("c3", [2, 3, 4], MIXED_CLAYTON)],
                   arch(theta_from_tau("frank", 0.3), 2)),
        n_vars=5)


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

    @pytest.mark.parametrize("root", [
        GaussianCopula(np.array([[1.0, 0.55], [0.55, 1.0]])),
        StudentTCopula(np.array([[1.0, 0.55], [0.55, 1.0]]), 4.0)],
        ids=["gaussian", "student_t"])
    def test_size_one_clusters_exact(self, root):
        m = HierarchicalModel(
            root=inner("nest", [leaf("a", [0], IndependenceCopula(1)),
                                leaf("b", [1], IndependenceCopula(1))], root),
            n_vars=2)
        est, se = cross_cluster_margin_pdf(m, 0, 1, 0.4, 0.6, 100,
                                           np.random.default_rng(21))
        assert se < 1e-12  # constant integrand: no Monte Carlo error
        assert est == pytest.approx(copula_pdf(root, [0.4, 0.6]), rel=1e-9)

    @pytest.mark.parametrize("u_k, u_l, mc, named", [
        (0.4, 0.6, 0, "mc"), (0.4, 0.6, -1, "mc"), (0.4, 0.6, 2.5, "mc"),
        (1.5, 0.6, 100, "u_k"), (0.4, -0.1, 100, "u_l"), (math.nan, 0.6, 100, "u_k")])
    def test_bad_argument_is_named(self, u_k, u_l, mc, named):
        with pytest.raises(ParameterError, match=f"^{named} must") as info:
            cross_cluster_margin_pdf(two_cluster_model(), 0, 2, u_k, u_l, mc,
                                     np.random.default_rng(22))
        assert info.value.argument == named

    @pytest.mark.parametrize("k, l, named, message", [
        (9, 2, "k", "k must be below n_vars = 4, got 9"),
        (0, 4, "l", "l must be below n_vars = 4, got 4"),
        (-1, 2, "k", "k must be an integer >= 0, got -1"),
        (0, 2.5, "l", "l must be an integer >= 0, got 2.5"),
        (True, 2, "k", "k must be an integer >= 0, got True")])
    def test_variable_outside_the_model_is_named(self, k, l, named, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$") as info:
            cross_cluster_margin_pdf(two_cluster_model(), k, l, 0.4, 0.6, 100,
                                     np.random.default_rng(22))
        assert info.value.argument == named

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
