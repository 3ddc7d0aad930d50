import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

from hierkendall.copulas import ArchimedeanCopula, copula_cdf, copula_logpdf, copula_sample

from hierkendall.errors import (
    DomainError,
    ParameterError,
    UnattainableTauError,
    UnsupportedOrderError,
)
from hierkendall.generators import (
    ArchimedeanGenerator,
    generator_derivative_log,
    generator_inverse,
    generator_inverse_derivative,
    generator_inverse_derivative_log,
    generator_value,
    independence_generator,
    tau_from_theta,
    theta_from_tau,
)
from hierkendall.kendall import closed_form_kendall, kendall_cdf
from hierkendall.levelset import (
    sample_levelset_conditional_batch,
    sample_levelset_projected_batch,
)

from oracles import inv_deriv_log_mp

CLAYTON2 = ArchimedeanGenerator("clayton", 2.0)
GUMBEL2 = ArchimedeanGenerator("gumbel", 2.0)
FRANK5 = ArchimedeanGenerator("frank", 5.0)
INDEP = independence_generator()


def random_generator(rng):
    fam = rng.choice(["independence", "clayton", "gumbel", "frank"])
    if fam == "independence":
        return INDEP
    tau = rng.uniform(0.05, 0.9)
    return theta_from_tau(fam, tau)


class TestValues:
    def test_clayton_value(self):
        assert generator_value(CLAYTON2, 0.5) == pytest.approx(3.0, abs=1e-14)

    def test_gumbel_value(self):
        assert generator_value(GUMBEL2, math.exp(-1.0)) == pytest.approx(1.0, abs=1e-14)

    def test_frank_value_at_one_is_zero(self):
        assert generator_value(FRANK5, 1.0) == 0.0

    def test_value_domain_errors(self):
        with pytest.raises(DomainError):
            generator_value(CLAYTON2, 0.0)
        with pytest.raises(DomainError):
            generator_value(CLAYTON2, 1.5)

    @pytest.mark.parametrize("fn", [generator_value, generator_derivative_log,
                                    generator_inverse,
                                    lambda g, x: generator_inverse_derivative_log(g, x, 2)])
    def test_nan_argument_is_a_domain_error(self, fn):
        with pytest.raises(DomainError, match="out of domain: min=nan"):
            fn(CLAYTON2, np.array([0.5, math.nan]))

    def test_parameter_errors(self):
        with pytest.raises(ParameterError):
            ArchimedeanGenerator("clayton", -1.0)
        with pytest.raises(ParameterError):
            ArchimedeanGenerator("gumbel", 0.5)
        with pytest.raises(ParameterError):
            ArchimedeanGenerator("frank", 0.0)


class TestInverse:
    def test_clayton_inverse(self):
        assert generator_inverse(CLAYTON2, 3.0) == pytest.approx(0.5, abs=1e-14)
        # 13^(-1/2), hand value
        assert generator_inverse(CLAYTON2, 12.0) == pytest.approx(
            0.2773500981126146, abs=1e-14)

    def test_inverse_at_zero_is_one(self):
        for g in (CLAYTON2, GUMBEL2, FRANK5, INDEP):
            assert generator_inverse(g, 0.0) == 1.0

    def test_inverse_negative_s_rejected(self):
        with pytest.raises(DomainError):
            generator_inverse(CLAYTON2, -0.1)

    def test_strictly_decreasing(self):
        # keep s below the float underflow range of phi^-1 for frank theta=5
        s = np.linspace(0.0, 25.0, 200)
        for g in (CLAYTON2, GUMBEL2, FRANK5, INDEP):
            vals = generator_inverse(g, s)
            assert np.all(np.diff(vals) < 0)

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.floats(min_value=1e-6, max_value=1.0),
        tau=st.floats(min_value=0.05, max_value=0.9),
        fam=st.sampled_from(["independence", "clayton", "gumbel", "frank"]),
    )
    def test_round_trip(self, t, tau, fam):
        g = INDEP if fam == "independence" else theta_from_tau(fam, tau)
        assert generator_inverse(g, generator_value(g, t)) == pytest.approx(t, abs=1e-12)

    def test_round_trip_negative_frank(self):
        g = ArchimedeanGenerator("frank", -8.0)
        for t in (1e-8, 0.01, 0.3, 0.77, 0.999, 1.0):
            assert generator_inverse(g, generator_value(g, t)) == pytest.approx(t, rel=1e-10)

    def test_round_trip_thousand_points(self):
        rng = np.random.default_rng(55)
        t = rng.uniform(1e-6, 1.0, size=1000)
        for _ in range(4):
            g = random_generator(rng)
            err = np.abs(generator_inverse(g, generator_value(g, t)) - t)
            assert np.max(err) < 1e-12, g


class TestInverseDerivatives:
    def test_order_zero_is_inverse(self):
        s = np.array([0.0, 0.3, 2.0])
        np.testing.assert_allclose(
            generator_inverse_derivative(GUMBEL2, s, 0), generator_inverse(GUMBEL2, s))

    def test_clayton_first_derivative_at_zero(self):
        assert generator_inverse_derivative(CLAYTON2, 0.0, 1) == pytest.approx(-0.5)

    def test_independence_third_derivative(self):
        assert generator_inverse_derivative(INDEP, 1.0, 3) == pytest.approx(-math.exp(-1.0))

    def test_gumbel_second_derivative_vs_finite_difference(self):
        h = 1e-4
        fd = (generator_inverse(GUMBEL2, 1.0 + h)
              - 2.0 * generator_inverse(GUMBEL2, 1.0)
              + generator_inverse(GUMBEL2, 1.0 - h)) / h**2
        assert generator_inverse_derivative(GUMBEL2, 1.0, 2) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("g", [CLAYTON2, GUMBEL2, FRANK5, INDEP,
                                   ArchimedeanGenerator("frank", -4.0)])
    def test_matches_finite_difference_of_lower_order(self, g):
        # (phi^-1)^(k) must be the derivative of (phi^-1)^(k-1), k <= 6
        s = np.linspace(0.1, 20.0, 25)
        for k in range(1, 7):
            h = 1e-5 * np.maximum(1.0, s)
            fd = (generator_inverse_derivative(g, s + h, k - 1)
                  - generator_inverse_derivative(g, s - h, k - 1)) / (2.0 * h)
            exact = generator_inverse_derivative(g, s, k)
            np.testing.assert_allclose(exact, fd, rtol=1e-5, atol=1e-12)

    def test_sign_pattern_complete_monotonicity(self):
        s = np.linspace(0.0, 50.0, 101)
        for g in (CLAYTON2, GUMBEL2, FRANK5, INDEP,
                  ArchimedeanGenerator("clayton", 0.3),
                  ArchimedeanGenerator("gumbel", 6.0),
                  ArchimedeanGenerator("frank", 20.0)):
            for k in range(0, 11):
                vals = (-1.0) ** k * generator_inverse_derivative(g, s, k)
                assert np.all(vals >= -1e-12), (g, k)

    def test_unsupported_order(self):
        with pytest.raises(UnsupportedOrderError):
            generator_inverse_derivative(CLAYTON2, 1.0, 99)

    def test_gumbel_divergence_at_zero_keeps_sign(self):
        v1 = generator_inverse_derivative(GUMBEL2, 0.0, 1)
        v2 = generator_inverse_derivative(GUMBEL2, 0.0, 2)
        assert v1 == -math.inf and v2 == math.inf
        assert generator_inverse_derivative_log(GUMBEL2, 0.0, 3) == math.inf
        gumbel1 = ArchimedeanGenerator("gumbel", 1.0)
        assert generator_inverse_derivative_log(gumbel1, np.array([0.0]), 3)[0] == 0.0

    @pytest.mark.parametrize("tau", [0.3, 0.85])
    def test_gumbel_log_derivative_matches_mpmath(self, tau):
        # s^-k leaves float range for tiny s; the log form must not overflow
        g = theta_from_tau("gumbel", tau)
        for s in (1e-300, 1e-60, 1e-8, 0.5, 3.0, 50.0):
            for k in (1, 2, 5, 10, 20):
                ref = inv_deriv_log_mp("gumbel", g.theta, s, k)[0]
                got = generator_inverse_derivative_log(g, s, k)
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-12), (s, k)

    @pytest.mark.parametrize("g", [INDEP] + [theta_from_tau(fam, tau)
                                             for fam in ("clayton", "gumbel", "frank")
                                             for tau in (0.05, 0.5, 0.95)]
                             + [ArchimedeanGenerator("frank", -4.0)], ids=repr)
    def test_matches_independent_oracle(self, g):
        # log|(phi^-1)^(k)| and its sign against each family's own closed form;
        # Frank theta < 0 is not completely monotone: its sign changes with s
        grid = (1e-300, 1e-60, 1e-8, 0.3, 3.0, 50.0, 700.0)
        if g.family != "gumbel":
            grid = (0.0,) + grid
        for s in grid:
            for k in ((1, 2, 3, 5) if g.theta < 0 else (1, 2, 3, 5, 10, 20, 40)):
                ref, sign = inv_deriv_log_mp(g.family, g.theta, s, k)
                got = generator_inverse_derivative_log(g, s, k)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (s, k, got, ref)
                assert np.sign(generator_inverse_derivative(g, s, k)) == sign, (s, k)

    @pytest.mark.parametrize("theta", [1e-12, 1e-8, 1e-4])
    def test_clayton_near_independence_matches_oracle(self, theta):
        # (1/theta)_k as lgamma(1/theta + k) - lgamma(1/theta) loses about
        # eps lgamma(1/theta) to cancellation: 4e-3 at theta = 1e-12
        g = ArchimedeanGenerator("clayton", theta)
        for s in (0.0, 1e-12, 1e-8, 0.3, 3.0):
            for k in (1, 2, 5, 10, 40):
                ref = inv_deriv_log_mp("clayton", theta, s, k)[0]
                got = generator_inverse_derivative_log(g, s, k)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (s, k, got, ref)

    def test_overflow_gives_signed_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = generator_inverse_derivative(ArchimedeanGenerator("frank", 20.0), 1e-8, 40)
            assert got == math.inf
            got = generator_inverse_derivative(
                ArchimedeanGenerator("frank", 20.0), np.array([0.0, 1e-8]), 39)
            assert np.all(got == -math.inf)


class TestGeneratorDerivative:
    @pytest.mark.parametrize("g", [CLAYTON2, GUMBEL2, FRANK5, INDEP,
                                   ArchimedeanGenerator("frank", -3.0)])
    def test_matches_finite_difference(self, g):
        t = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        fd = (generator_value(g, t + h) - generator_value(g, t - h)) / (2.0 * h)
        np.testing.assert_allclose(-np.exp(generator_derivative_log(g, t)), fd, rtol=1e-6)

    def test_negative_on_interior(self):
        t = np.linspace(0.01, 0.99, 50)
        for g in (CLAYTON2, GUMBEL2, FRANK5, INDEP):
            assert np.all(-np.exp(generator_derivative_log(g, t)) < 0)


class TestTau:
    def test_clayton_tau(self):
        assert tau_from_theta(CLAYTON2) == pytest.approx(0.5)

    def test_gumbel_tau(self):
        assert tau_from_theta(GUMBEL2) == pytest.approx(0.5)

    def test_frank_tau_debye(self):
        # frozen from an independent Debye-1 quadrature evaluation
        assert tau_from_theta(FRANK5) == pytest.approx(0.4567009581601168, abs=1e-9)

    def test_frank_tau_negative_antisymmetry(self):
        g = ArchimedeanGenerator("frank", -5.0)
        assert tau_from_theta(g) == pytest.approx(-0.4567009581601168, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(
        fam=st.sampled_from(["clayton", "gumbel", "frank"]),
        tau=st.floats(min_value=0.02, max_value=0.95),
    )
    def test_round_trip_tau(self, fam, tau):
        g = theta_from_tau(fam, tau)
        assert tau_from_theta(g) == pytest.approx(tau, abs=1e-8)

    def test_unattainable(self):
        with pytest.raises(UnattainableTauError):
            theta_from_tau("gumbel", -0.3)
        with pytest.raises(UnattainableTauError):
            theta_from_tau("clayton", 0.0)
        with pytest.raises(UnattainableTauError):
            theta_from_tau("frank", 0.0)

    def test_tau_monotone_in_theta(self):
        for fam, grid in (("clayton", np.linspace(0.1, 20, 30)),
                          ("gumbel", np.linspace(1.01, 20, 30)),
                          ("frank", np.linspace(-20, 20, 30))):
            taus = [tau_from_theta(ArchimedeanGenerator(fam, th))
                    for th in grid if not (fam == "frank" and th == 0.0)]
            assert np.all(np.diff(taus) > 0), fam


class TestFrankDomain:
    """One rule for a generator at a dimension: Frank with theta < 0 exists
    only at d = 2, and its extreme values evaluate without a float warning."""

    NEG = ArchimedeanGenerator("frank", -2.0)

    @pytest.mark.parametrize("make", [
        lambda g, d: ArchimedeanCopula(g, d),
        lambda g, d: closed_form_kendall(g, d),
        lambda g, d: sample_levelset_conditional_batch(g, d, [0.3], np.random.default_rng(0)),
        lambda g, d: sample_levelset_projected_batch(g, d, [0.3], np.random.default_rng(0)),
    ], ids=["copula", "kendall", "conditional-sampler", "projected-sampler"])
    def test_refused_above_d2(self, make):
        with pytest.raises(ParameterError, match=r"theta=-2\) only exists for d = 2, got d = 3"):
            make(self.NEG, 3)
        make(self.NEG, 2)

    @pytest.mark.parametrize("theta", [-710.0, -800.0])
    def test_extreme_negative_theta_warns_nothing(self, theta):
        g = ArchimedeanGenerator("frank", theta)
        c = ArchimedeanCopula(g, 2)
        u = np.random.default_rng(3).random((200, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf = copula_cdf(c, u)
            logpdf = copula_logpdf(c, u)
            k = kendall_cdf(closed_form_kendall(g, 2), [0.1, 0.5, 0.9])
            x = copula_sample(c, 500, np.random.default_rng(4))
        assert np.all((cdf >= 0.0) & (cdf <= 1.0)) and np.all(np.isfinite(logpdf))
        np.testing.assert_allclose(k, 1.0, atol=1e-12)  # near countermonotone: C(U, V) ~ 0
        assert np.all((x > 0.0) & (x < 1.0))
        assert kendalltau(x[:, 0], x[:, 1]).statistic < -0.99

    @pytest.mark.parametrize("theta", [-710.0, -800.0])
    def test_extreme_negative_theta_cdf_matches_the_closed_form(self, theta):
        u = np.random.default_rng(3).random((100, 2))
        got = copula_cdf(ArchimedeanCopula(ArchimedeanGenerator("frank", theta), 2), u)
        # C = -log(1 + (e^-theta u - 1)(e^-theta v - 1) / (e^-theta - 1)) / theta, where
        # C near 1e-300 needs about 300 digits of the logarithm's argument
        with mp.workdps(800):
            t = mp.mpf(theta)
            ref = [float(-mp.log1p(mp.expm1(-t * mp.mpf(a)) * mp.expm1(-t * mp.mpf(b))
                                   / mp.expm1(-t)) / t) for a, b in u]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-300)
