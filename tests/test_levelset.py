import numpy as np
import pytest
from scipy.stats import kendalltau, ks_2samp

from hierkendall.copulas import (
    ArchimedeanCopula,
    GaussianCopula,
    StudentTCopula,
    copula_cdf,
    copula_sample,
)
from hierkendall.errors import EvaluationError, ParameterError, RejectionCapError
from hierkendall.generators import (
    ArchimedeanGenerator,
    independence_generator,
    theta_from_tau,
)
from hierkendall.kendall import closed_form_kendall, kendall_inverse
import hierkendall.levelset as levelset
from hierkendall.levelset import (
    EpsilonRule,
    sample_levelset_conditional_batch,
    sample_levelset_projected_batch,
    sample_levelset_rejection_batch,
)

from oracles import rejection_batch_reference

CLAYTON2 = ArchimedeanGenerator("clayton", 2.0)
INDEP = independence_generator()


class _StubUniform:
    """Deterministic stand-in feeding fixed uniforms for hand traces."""

    def __init__(self, vals):
        self.vals = np.asarray(vals, dtype=float)

    def random(self, shape=None):
        return self.vals.reshape(shape) if shape is not None else float(self.vals)


class _StubExponential:
    def __init__(self, vals):
        self.vals = np.asarray(vals, dtype=float)

    def standard_exponential(self, shape):
        return self.vals.reshape(shape)


class TestConditionalSampler:
    def test_clayton_hand_trace(self):
        u = sample_levelset_conditional_batch(CLAYTON2, 2, np.array([0.2]),
                                              _StubUniform([0.5]))
        np.testing.assert_allclose(u[0], [0.2773500981126146] * 2, atol=1e-12)

    def test_independence_hand_trace(self):
        u = sample_levelset_conditional_batch(INDEP, 2, np.array([0.25]),
                                              _StubUniform([0.5]))
        np.testing.assert_allclose(u[0], [0.5, 0.5], atol=1e-12)

    def test_boundary_draws_hit_level_curve_corners(self):
        # v -> 1 sends (u1, u2) to (1, z); v -> 0 sends it to (z, 1)
        u = sample_levelset_conditional_batch(CLAYTON2, 2, np.array([0.2]),
                                              _StubUniform([1.0 - 1e-12]))
        assert u[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert u[0, 1] == pytest.approx(0.2, abs=1e-9)
        u = sample_levelset_conditional_batch(CLAYTON2, 2, np.array([0.2]),
                                              _StubUniform([1e-12]))
        assert u[0, 0] == pytest.approx(0.2, abs=1e-9)
        assert u[0, 1] == pytest.approx(1.0, abs=1e-9)

    def test_exactness_random_configs(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            fam = rng.choice(["clayton", "gumbel", "frank"])
            g = theta_from_tau(fam, rng.uniform(0.05, 0.9))
            d = int(rng.integers(2, 6))
            z = rng.uniform(0.01, 0.99)
            u = sample_levelset_conditional_batch(g, d, [z], rng)[0]
            achieved = copula_cdf(ArchimedeanCopula(g, d), u)
            assert abs(achieved - z) < 1e-9

    def test_refuses_rows_outside_unit_interval(self):
        # Clayton phi(z) overflows for z below about 7e-4 at tau = 0.98, and
        # phi^-1(inf) = 0: the sampler raises rather than return those rows
        c = ArchimedeanCopula(theta_from_tau("clayton", 0.98), 2)
        with pytest.raises(EvaluationError, match=r"clayton theta=98 d=2 left \(0,1\) in "
                                                  r"\d+ of 100000 rows"):
            copula_sample(c, 100_000, np.random.default_rng(1))
        u = copula_sample(ArchimedeanCopula(theta_from_tau("clayton", 0.9), 2), 100_000,
                          np.random.default_rng(1))
        assert np.all((u > 0.0) & (u < 1.0))

    def test_consumes_d_minus_one_uniforms(self):
        vals = _StubUniform([0.3, 0.6, 0.9])
        u = sample_levelset_conditional_batch(CLAYTON2, 4, np.array([0.3]), vals)
        assert u.shape == (1, 4)
        assert copula_cdf(ArchimedeanCopula(CLAYTON2, 4), u[0]) == pytest.approx(
            0.3, abs=1e-9)


class TestProjectedSampler:
    def test_clayton_hand_trace(self):
        u = sample_levelset_projected_batch(CLAYTON2, 2, np.array([0.2]),
                                            _StubExponential([1.0, 1.0]))
        np.testing.assert_allclose(u[0], [0.2773500981126146] * 2, atol=1e-12)

    def test_simplex_corner(self):
        u = sample_levelset_projected_batch(CLAYTON2, 3, np.array([0.37]),
                                            _StubExponential([1.0, 1e-300, 1e-300]))
        np.testing.assert_allclose(u[0], [0.37, 1.0, 1.0], atol=1e-9)

    def test_refuses_rows_outside_unit_interval(self):
        # the guard both exact samplers share: at tau = 0.98, phi(z) overflows
        # for some of these levels and phi^-1(inf) = 0; at tau = 0.9 it does not
        for tau in (0.98, 0.9):
            g = theta_from_tau("clayton", tau)
            z = kendall_inverse(closed_form_kendall(g, 2),
                                np.random.default_rng(1).random(100_000))
            if tau == 0.98:
                with pytest.raises(EvaluationError, match=r"clayton theta=98 d=2 left"):
                    sample_levelset_projected_batch(g, 2, z, np.random.default_rng(2))
            else:
                u = sample_levelset_projected_batch(g, 2, z, np.random.default_rng(2))
                assert np.all((u > 0.0) & (u <= 1.0))

    def test_exactness(self):
        rng = np.random.default_rng(18)
        g = theta_from_tau("gumbel", 0.6)
        z = np.full(500, 0.3)
        u = sample_levelset_projected_batch(g, 4, z, rng)
        achieved = copula_cdf(ArchimedeanCopula(g, 4), u)
        assert np.max(np.abs(achieved - 0.3)) < 1e-9

    def test_equivalent_to_conditional(self):
        g = theta_from_tau("clayton", 0.5)
        z = np.full(10_000, 0.3)
        a = sample_levelset_conditional_batch(g, 3, z, np.random.default_rng(1))
        b = sample_levelset_projected_batch(g, 3, z, np.random.default_rng(2))
        for j in range(3):
            assert ks_2samp(a[:, j], b[:, j]).pvalue > 0.01


class TestCompositionIdentity:
    def test_levels_plus_conditional_reproduce_copula(self):
        # draw v ~ U, z = K^-1(v), then level-set sampling == plain sampling
        for fam in ("clayton", "gumbel", "frank"):
            g = theta_from_tau(fam, 0.5)
            K = closed_form_kendall(g, 2)
            rng = np.random.default_rng(21)
            z = kendall_inverse(K, rng.random(10_000))
            u = sample_levelset_conditional_batch(g, 2, z, rng)
            tau = kendalltau(u[:, 0], u[:, 1]).statistic
            assert tau == pytest.approx(0.5, abs=0.02), fam


class TestRejection:
    def test_band_membership_absolute(self):
        c = ArchimedeanCopula(CLAYTON2, 2)
        rule = EpsilonRule("abs", 0.01)
        u, attempts = sample_levelset_rejection_batch(c, [0.2], rule,
                                                      np.random.default_rng(3))
        assert abs(copula_cdf(c, u)[0] - 0.2) < 0.01
        assert attempts >= 1

    def test_relative_rule_bounds_relative_error(self):
        c = ArchimedeanCopula(CLAYTON2, 2)
        rule = EpsilonRule("rel", 0.01)
        rng = np.random.default_rng(4)
        u, _ = sample_levelset_rejection_batch(c, np.full(200, 0.2), rule, rng)
        errs = np.abs(copula_cdf(c, u) - 0.2) / 0.2
        assert errs.max() <= 0.01

    def test_cap_exhaustion(self, monkeypatch):
        c = ArchimedeanCopula(CLAYTON2, 2)
        rule = EpsilonRule("abs", 1e-9)
        monkeypatch.setattr(levelset, "MAX_ATTEMPTS", 2000)
        with pytest.raises(RejectionCapError):
            sample_levelset_rejection_batch(c, [0.2], rule, np.random.default_rng(5))

    def test_works_for_elliptical(self):
        c = GaussianCopula(np.array([[1.0, 0.5], [0.5, 1.0]]))
        u, _ = sample_levelset_rejection_batch(c, [0.3], EpsilonRule("abs", 0.01),
                                               np.random.default_rng(6))
        assert abs(copula_cdf(c, u)[0] - 0.3) < 0.01

    def test_batch_fills_all_targets_within_band(self):
        c = ArchimedeanCopula(CLAYTON2, 2)
        rule = EpsilonRule("rel", 0.05)
        rng = np.random.default_rng(7)
        targets = rng.uniform(0.1, 0.9, size=60)
        out, attempts = sample_levelset_rejection_batch(c, targets, rule, rng)
        achieved = copula_cdf(c, out)
        assert np.all(np.abs(achieved - targets) < 0.05 * targets)
        assert attempts >= 60

    def test_epsilon_rule_validation(self):
        with pytest.raises(ParameterError):
            EpsilonRule("weird", 0.1)
        with pytest.raises(ParameterError):
            EpsilonRule("abs", -1.0)
        for value in (1.0, 1.5):
            with pytest.raises(ParameterError):
                EpsilonRule("rel", value)
        assert EpsilonRule("rel", 0.99).epsilon(0.5) == pytest.approx(0.495)

    def test_batch_assigns_candidate_to_nearest_target(self, monkeypatch):
        # candidate stream with known C(u) values: the first candidate lies
        # inside both targets' bands and must go to the nearer one
        stream = [0.305, 0.310, 0.500, 0.301]

        def fake_sample(c, n, rng):
            out = np.array(stream[:n], dtype=float)[:, None]
            del stream[:n]
            return np.repeat(out, 2, axis=1)

        monkeypatch.setattr(levelset, "copula_sample", fake_sample)
        monkeypatch.setattr(levelset, "copula_cdf", lambda c, u: u[:, 0].copy())
        monkeypatch.setattr(levelset, "_REJECTION_CHUNK", 1)
        c = ArchimedeanCopula(CLAYTON2, 2)
        targets = np.array([0.30, 0.32, 0.50])
        out, attempts = sample_levelset_rejection_batch(
            c, targets, EpsilonRule("abs", 0.012), np.random.default_rng(0))
        # 0.305 is within 0.012 of both 0.30 (d=.005) and 0.32 (d=.015 - no);
        # nearest match wins per candidate, each target filled exactly once
        assert out[0, 0] == pytest.approx(0.305)   # 0.30 <- 0.305
        assert out[1, 0] == pytest.approx(0.310)   # 0.32 <- 0.310
        assert out[2, 0] == pytest.approx(0.500)   # 0.50 <- 0.500
        assert attempts == 3


class TestRejectionLoopMatchesReference:
    """The batch assignment loop against a reference copy of its first
    version: the same samples and attempt counts, bit for bit."""

    CLUSTERS = {
        "gaussian": GaussianCopula(np.array([[1.0, 0.5], [0.5, 1.0]])),
        "student_t": StudentTCopula(np.array([[1.0, 0.6], [0.6, 1.0]]), 4.0),
        "clayton": ArchimedeanCopula(CLAYTON2, 2),
    }
    RULES = {"abs": EpsilonRule("abs", 0.001), "rel": EpsilonRule("rel", 0.003)}

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("rule", list(RULES))
    @pytest.mark.parametrize("name", list(CLUSTERS))
    def test_same_samples_and_attempts(self, name, rule, seed):
        c = self.CLUSTERS[name]
        targets = np.random.default_rng(seed).uniform(0.05, 0.95, 80)
        targets[-5:] = targets[:5]  # tied levels
        got = sample_levelset_rejection_batch(c, targets, self.RULES[rule],
                                              np.random.default_rng(seed + 10))
        want = rejection_batch_reference(c, targets, self.RULES[rule],
                                         np.random.default_rng(seed + 10),
                                         levelset.MAX_ATTEMPTS)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]

    @pytest.mark.parametrize("name", list(CLUSTERS))
    def test_same_cap_error(self, monkeypatch, name):
        c = self.CLUSTERS[name]
        targets = np.random.default_rng(3).uniform(0.05, 0.95, 40)
        rule = EpsilonRule("abs", 1e-5)
        monkeypatch.setattr(levelset, "MAX_ATTEMPTS", 5000)
        with pytest.raises(RejectionCapError) as got:
            sample_levelset_rejection_batch(c, targets, rule, np.random.default_rng(4))
        with pytest.raises(RejectionCapError) as want:
            rejection_batch_reference(c, targets, rule, np.random.default_rng(4), 5000)
        assert got.value.attempts == want.value.attempts == 5000
        assert str(got.value) == str(want.value)


class TestOneVariable:
    @pytest.mark.parametrize("sampler", [sample_levelset_conditional_batch,
                                         sample_levelset_projected_batch])
    def test_a_one_variable_level_set_is_its_level_with_no_draw(self, sampler):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        z = np.array([1e-12, 0.3, 1.0 - 1e-12])
        np.testing.assert_array_equal(sampler(INDEP, 1, z, rng), z[:, None])
        assert rng.bit_generator.state == state


class TestLevelValidation:
    def test_z_domain(self):
        with pytest.raises(ParameterError):
            sample_levelset_conditional_batch(CLAYTON2, 2, [0.0], np.random.default_rng(0))
        with pytest.raises(ParameterError):
            sample_levelset_projected_batch(CLAYTON2, 2, [1.0], np.random.default_rng(0))
