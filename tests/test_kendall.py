import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from hierkendall.copulas import (
    INTERIOR_EPS,
    ArchimedeanCopula,
    GaussianCopula,
    IndependenceCopula,
    clamp_interior,
    copula_cdf,
    copula_logpdf,
    copula_sample,
)
from hierkendall.errors import (
    DomainError,
    EvaluationError,
    ParameterError,
    ToleranceError,
    UnsupportedOrderError,
)
from hierkendall.generators import (
    MAX_DERIVATIVE_ORDER,
    ArchimedeanGenerator,
    generator_derivative_log,
    generator_inverse_derivative,
    generator_inverse_derivative_log,
    generator_value,
    independence_generator,
    theta_from_tau,
)
import hierkendall.kendall as kendall_module
from hierkendall.kendall import (
    _closed_form_kernel,
    archimedean_node_step,
    closed_form_kendall,
    empirical_kendall_build,
    empirical_kendall_from_values,
    identity_kendall,
    kendall_cdf,
    kendall_inverse,
)

from oracles import kendall_cdf_quadrature_2d, kendall_inverse_brentq

INDEP = independence_generator()
TINY = np.finfo(float).tiny
CLAYTON2 = ArchimedeanGenerator("clayton", 2.0)
GUMBEL2 = ArchimedeanGenerator("gumbel", 2.0)


class TestClosedForm:
    def test_independence_d2(self):
        K = closed_form_kendall(INDEP, 2)
        assert kendall_cdf(K, 0.5) == pytest.approx(0.8465735902799727, abs=1e-12)

    def test_independence_d2_mc_oracle(self):
        # brute force: P(U1*U2 <= 0.5) on a million uniform pairs
        rng = np.random.default_rng(123)
        u = rng.random((10**6, 2))
        mc = float(np.mean(u.prod(axis=1) <= 0.5))
        K = closed_form_kendall(INDEP, 2)
        assert kendall_cdf(K, 0.5) == pytest.approx(mc, abs=0.002)

    def test_clayton_bivariate_hand_value(self):
        # K(t) = t + t(1 - t^theta)/theta
        K = closed_form_kendall(CLAYTON2, 2)
        assert kendall_cdf(K, 0.5) == pytest.approx(0.6875, abs=1e-12)

    def test_dim_one_identity(self):
        K = identity_kendall()
        t = np.linspace(0.05, 0.95, 11)
        np.testing.assert_array_equal(kendall_cdf(K, t), t)

    @pytest.mark.parametrize("gen", [CLAYTON2, GUMBEL2, theta_from_tau("frank", 0.5)])
    @pytest.mark.parametrize("t", [0.15, 0.4, 0.75])
    def test_matches_recursive_quadrature_oracle(self, gen, t):
        cop = ArchimedeanCopula(gen, 2)
        K = closed_form_kendall(gen, 2)
        oracle = kendall_cdf_quadrature_2d(cop, t)
        assert kendall_cdf(K, t) == pytest.approx(oracle, abs=1e-5)

    def test_nondecreasing_with_unit_limits(self):
        grid = np.linspace(1e-4, 1 - 1e-4, 1000)
        for gen, d in [(INDEP, 3), (CLAYTON2, 4), (GUMBEL2, 5),
                       (theta_from_tau("frank", 0.3), 3)]:
            K = closed_form_kendall(gen, d)
            vals = kendall_cdf(K, grid)
            assert np.all(np.diff(vals) >= -1e-12)
            assert vals[0] < 0.05 or d == 1
            assert vals[-1] > 0.999

    def test_dominates_t(self):
        grid = np.linspace(0.01, 0.99, 99)
        for gen, d in [(INDEP, 2), (CLAYTON2, 3), (GUMBEL2, 5)]:
            K = closed_form_kendall(gen, d)
            assert np.all(kendall_cdf(K, grid) >= grid - 1e-12)

    def test_increasing_in_dimension(self):
        # higher dimension pushes mass of Z = C(U) toward zero
        for gen in (INDEP, GUMBEL2):
            for t in np.linspace(0.1, 0.9, 9):
                vals = [kendall_cdf(closed_form_kendall(gen, d), t)
                        for d in (2, 5, 10)]
                assert vals[0] < vals[1] < vals[2], (gen, t)

    @pytest.mark.parametrize("gen", [INDEP, CLAYTON2, GUMBEL2, theta_from_tau("frank", 0.6),
                                     theta_from_tau("frank", -0.4)])
    def test_matches_signed_derivative_sum(self, gen):
        # K(t) = t + sum_i (1/i!) (-s)^i (phi^-1)^(i)(s), from the signed derivatives
        t = np.linspace(0.02, 0.98, 25)
        s = generator_value(gen, t)
        for d in ((2,) if gen.theta < 0 else (2, 3, 6)):
            direct = t + sum((-s) ** i * generator_inverse_derivative(gen, s, i) / math.factorial(i)
                             for i in range(1, d))
            np.testing.assert_allclose(kendall_cdf(closed_form_kendall(gen, d), t), direct,
                                       rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("gen", [CLAYTON2, GUMBEL2, theta_from_tau("frank", 0.6)])
    def test_kernel_derivative_telescopes(self, gen):
        # dK/dlog s = -s^d |(phi^-1)^(d)(s)| / (d-1)!, checked by central differences
        x, h = np.linspace(-3.0, 2.0, 11), 1e-5
        for d in (2, 4):
            _, dk = _closed_form_kernel(gen, d, x)
            k_up, _ = _closed_form_kernel(gen, d, x + h)
            k_dn, _ = _closed_form_kernel(gen, d, x - h)
            fd = (k_up - k_dn) / (2 * h)
            np.testing.assert_allclose(dk, fd, rtol=1e-6, atol=1e-10)
            exact = -np.exp(d * x) * np.abs(generator_inverse_derivative(gen, np.exp(x), d)) \
                / math.factorial(d - 1)
            np.testing.assert_allclose(dk, exact, rtol=1e-12)

    def test_dimension_capped_at_derivative_order(self):
        g = theta_from_tau("clayton", 0.4)
        with pytest.raises(UnsupportedOrderError):
            closed_form_kendall(g, MAX_DERIVATIVE_ORDER + 1)
        K = closed_form_kendall(g, MAX_DERIVATIVE_ORDER)
        p = np.array([1e-6, 0.3, 0.9])
        np.testing.assert_allclose(kendall_cdf(K, kendall_inverse(K, p)), p, atol=1e-10)
        v, log_c = archimedean_node_step(g, np.full((2, MAX_DERIVATIVE_ORDER), 0.9))
        assert np.all((v > 0.0) & (v < 1.0)) and np.all(np.isfinite(log_c))

    def test_domain_error(self):
        K = closed_form_kendall(CLAYTON2, 2)
        with pytest.raises(ParameterError):
            kendall_cdf(K, 0.0)
        with pytest.raises(ParameterError):
            kendall_cdf(K, 1.0)
        with pytest.raises(ParameterError):
            kendall_cdf(closed_form_kendall(GUMBEL2, 3), np.array([0.5, np.nan]))
        with pytest.raises(ParameterError):
            kendall_cdf(empirical_kendall_from_values([0.2, 0.4], 2), np.nan)


class TestInverse:
    def test_independence_round_trip(self):
        K = closed_form_kendall(INDEP, 2)
        assert kendall_inverse(K, 0.8465735902799727) == pytest.approx(0.5, abs=1e-8)

    def test_identity(self):
        assert kendall_inverse(identity_kendall(), 0.3) == 0.3

    def test_residual_tolerance(self):
        rng = np.random.default_rng(4)
        for gen, d in [(CLAYTON2, 3), (GUMBEL2, 5), (theta_from_tau("frank", 0.7), 4)]:
            K = closed_form_kendall(gen, d)
            p = rng.uniform(0.01, 0.99, size=50)
            t = kendall_inverse(K, p)
            np.testing.assert_allclose(kendall_cdf(K, t), p, atol=1e-10)

    @pytest.mark.parametrize("family", ["clayton", "gumbel", "frank"])
    def test_round_trip_grid(self, family):
        # the domain the README states: every case solves to 1e-10, none is NaN or warns
        p = np.concatenate([[1e-12, 1e-9, 1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9,
                             1.0 - 1e-12], np.linspace(0.02, 0.98, 25)])
        for tau in (0.05, 0.3, 0.6, 0.85, 0.95):
            for d in (2, 3, 5, 10, 20, 40):
                K = closed_form_kendall(theta_from_tau(family, tau), d)
                z = kendall_inverse(K, p)
                assert np.all((z > 0.0) & (z < 1.0)), (family, tau, d)
                np.testing.assert_allclose(kendall_cdf(K, z), p, rtol=0, atol=1e-10,
                                           err_msg=f"{family} tau={tau} d={d}")

    @pytest.mark.parametrize("family", ["clayton", "gumbel", "frank"])
    def test_round_trip_at_strong_dependence(self, family):
        # up to the fit intervals' tau = 0.98, where Gumbel's phi underflows
        # on part of the start table's levels
        p = np.concatenate([[1e-12, 1e-6, 1.0 - 1e-6], np.linspace(0.02, 0.98, 25)])
        for tau in (0.97, 0.98):
            for d in (2, 5, 40):
                K = closed_form_kendall(theta_from_tau(family, tau), d)
                z = kendall_inverse(K, p)
                np.testing.assert_allclose(kendall_cdf(K, z), p, rtol=0, atol=1e-10,
                                           err_msg=f"{family} tau={tau} d={d}")

    def test_subnormal_slope_does_not_warn(self, monkeypatch):
        # from the lower bracket, this solve meets a subnormal dK/dlog s: its inf
        # Newton step must fall back to bisection without an overflow warning
        monkeypatch.setattr(kendall_module, "_table_start", lambda g, d, p, lo: lo)
        K = closed_form_kendall(theta_from_tau("clayton", 0.85), 40)
        p = np.array([1.0 - 1e-9])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = kendall_inverse(K, p)
        np.testing.assert_allclose(kendall_cdf(K, z), p, rtol=0, atol=1e-10)

    def test_table_start_bounds_kernel_work(self, monkeypatch):
        # the tabulated start leaves about two Newton evaluations per point; the
        # table's own nodes are counted too (from the lower bracket: about 6)
        points = []

        def counting(g, d, log_s):
            points.append(np.size(log_s))
            return _closed_form_kernel(g, d, log_s)

        monkeypatch.setattr(kendall_module, "_closed_form_kernel", counting)
        K = closed_form_kendall(theta_from_tau("frank", 0.41), 5)
        p = np.random.default_rng(5).random(5000)
        z = kendall_inverse(K, p)
        assert sum(points) / p.size <= 3.5
        np.testing.assert_allclose(kendall_cdf(K, z), p, rtol=0, atol=1e-10)

    def test_unconverged_solve_raises_with_context(self, monkeypatch):
        # stop the solver one step after the lower bracket: the residual check must catch it
        monkeypatch.setattr(kendall_module, "_table_start", lambda g, d, p, lo: lo)
        monkeypatch.setattr(kendall_module, "_MAX_ITER", 1)
        K = closed_form_kendall(theta_from_tau("gumbel", 0.85), 10)
        with pytest.raises(ToleranceError,
                           match=r"gumbel theta=6\.66667 d=10: worst p=0\.\d+, residual"):
            kendall_inverse(K, np.array([0.2, 0.5, 0.9]))

    def test_extreme_levels_stay_in_range(self):
        # levels below the smallest normal double meet the absolute tolerance at it
        for gen, d in [(theta_from_tau("clayton", 0.95), 40), (GUMBEL2, 10),
                       (theta_from_tau("frank", 0.3), 40)]:
            K = closed_form_kendall(gen, d)
            p = np.array([5e-324, 1e-300, 1e-12, 1.0 - 2.0 ** -52])
            z = kendall_inverse(K, p)
            assert np.all((z > 0.0) & (z < 1.0))
            np.testing.assert_allclose(kendall_cdf(K, z), p, rtol=0, atol=1e-10)

    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            kendall_inverse(closed_form_kendall(CLAYTON2, 3), np.array([0.5, np.nan]))

    @pytest.mark.parametrize("tau,d", [(0.41, 5), (0.33, 4), (0.21, 3), (0.56, 2)])
    def test_matches_brentq_oracle(self, tau, d):
        # the Frank sector clusters of the VaR pipeline market
        K = closed_form_kendall(theta_from_tau("frank", tau), d)
        p = np.concatenate([[1e-6], np.random.default_rng(d).uniform(0.001, 0.999, 30)])
        np.testing.assert_allclose(kendall_inverse(K, p), kendall_inverse_brentq(K, p),
                                   rtol=0, atol=1e-12)

    def test_empirical_generalized_inverse(self):
        K = empirical_kendall_from_values([0.1, 0.2, 0.3, 0.4], 2)
        assert kendall_inverse(K, 0.6) == pytest.approx(0.3)
        assert kendall_inverse(K, 0.5) == pytest.approx(0.2)
        assert kendall_inverse(K, 0.50001) == pytest.approx(0.3)
        assert kendall_inverse(K, 0.999) == pytest.approx(0.4)


class TestNodeStep:
    """archimedean_node_step against the composition it replaces: V =
    kendall_cdf(K, copula_cdf) at the unclamped C, and log c bit for bit
    equal to the public derivative functions' route,
    generator_inverse_derivative_log(g, s, d) + sum generator_derivative_log(g, u_i).
    Where C underflows the smallest normal double only the bound
    0 <= V <= K(tiny) is checked, since kendall_cdf cannot be reached there."""

    @staticmethod
    def _rows(d, rng):
        u = rng.random((60, d))
        u[:10] *= 1e-6
        u[10:15] = 1e-12                                   # C < 1e-12; it underflows at large d
        u[15:25] = 1.0 - rng.random((10, d)) * 1e-9        # coordinates near 1
        u[25:28] = 1.0 - 1e-12
        return clamp_interior(u)

    @staticmethod
    def _check(g, u):
        c, d = ArchimedeanCopula(g, u.shape[1]), u.shape[1]
        K = closed_form_kendall(g, d)
        cdf = copula_cdf(c, u)
        assert np.any(cdf < INTERIOR_EPS)
        v, log_c = archimedean_node_step(g, u)
        msg = f"{g.family} theta={g.theta} d={d}"
        normal = cdf >= TINY
        np.testing.assert_allclose(v[normal], kendall_cdf(K, cdf[normal]),
                                   rtol=0, atol=1e-12, err_msg=msg)
        assert np.all((v[~normal] >= 0.0) & (v[~normal] <= kendall_cdf(K, TINY))), msg
        # both read log T_d from the one derivative kernel, so they agree bit for bit
        s = np.sum(generator_value(g, u), axis=1)
        composed = (generator_inverse_derivative_log(g, s, d)
                    + np.sum(generator_derivative_log(g, u), axis=1))
        np.testing.assert_array_equal(log_c, composed, err_msg=msg)
        np.testing.assert_array_equal(copula_logpdf(c, u), log_c, err_msg=msg)

    @pytest.mark.parametrize("family", ["clayton", "gumbel", "frank"])
    def test_v_of_exact_samples_is_uniform(self, family):
        # for large d, K(1e-12) is far from 0 (Frank tau = 0.3, d = 40: 0.33), so
        # a floor on C would pile a block of rows onto one V value
        fi = ["clayton", "gumbel", "frank"].index(family)
        for ti, tau in enumerate((0.05, 0.3, 0.6, 0.85)):
            g = theta_from_tau(family, tau)
            for d in (2, 5, 10, 20, 40):
                u = copula_sample(ArchimedeanCopula(g, d), 4000,
                                  np.random.default_rng([fi, ti, d]))
                v, _ = archimedean_node_step(g, clamp_interior(u))
                assert kstest(v, "uniform").pvalue > 1e-3, (family, tau, d)

    @pytest.mark.parametrize("family", ["clayton", "gumbel", "frank", "independence"])
    def test_matches_composition_grid(self, family):
        rng = np.random.default_rng(31)
        taus = (None,) if family == "independence" else (0.05, 0.3, 0.6, 0.85, 0.95)
        for tau in taus:
            g = INDEP if tau is None else theta_from_tau(family, tau)
            for d in (2, 3, 5, 10, 20, 40):
                self._check(g, self._rows(d, rng))

    def test_clayton_phi_overflow_without_warning(self):
        # t^-theta overflows at theta = 38, t = 1e-12: phi = inf, log c = -inf
        g = theta_from_tau("clayton", 0.95)
        u = np.array([[1e-12, 0.5, 0.5], [0.3, 0.6, 0.9]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert generator_value(g, 1e-12) == math.inf
            v, log_c = archimedean_node_step(g, u)
            np.testing.assert_array_equal(log_c, copula_logpdf(ArchimedeanCopula(g, 3), u))
        assert log_c[0] == -math.inf and np.all(np.isfinite(log_c[1:]))

    @pytest.mark.parametrize("tau", [-0.05, -0.4, -0.8])
    def test_frank_negative_theta_d2(self, tau):
        self._check(theta_from_tau("frank", tau), self._rows(2, np.random.default_rng(32)))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            archimedean_node_step(CLAYTON2, np.array([[0.5, 0.5], [0.5, np.nan]]))

    def test_generator_sum_underflow_raises_without_warning(self):
        # Gumbel theta = 50: phi(1 - 1e-8) = 1e-400 underflows, so s = 0, where
        # log T_d = -inf meets -d log s = +inf
        g = ArchimedeanGenerator("gumbel", 50.0)
        u = np.array([[0.3, 0.6], [1.0 - 1e-8, 1.0 - 1e-8]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for step in (lambda: archimedean_node_step(g, u),
                         lambda: copula_logpdf(ArchimedeanCopula(g, 2), u)):
                with pytest.raises(EvaluationError, match=r"gumbel theta=50 d=2 .* 1 of 2 rows"):
                    step()


class TestEmpirical:
    def test_step_function_count(self):
        K = empirical_kendall_from_values([0.1, 0.2, 0.3, 0.4], 2)
        assert kendall_cdf(K, 0.25) == pytest.approx(0.5)
        assert kendall_cdf(K, 0.05) == 0.0
        assert kendall_cdf(K, 0.95) == 1.0

    def test_values_must_be_interior_and_sortable(self):
        with pytest.raises(ParameterError):
            empirical_kendall_from_values([0.0, 0.5], 2)

    def test_build_matches_closed_form(self):
        cop = ArchimedeanCopula(CLAYTON2, 2)
        K_emp = empirical_kendall_build(cop, 100_000, np.random.default_rng(10))
        K_cf = closed_form_kendall(CLAYTON2, 2)
        grid = np.linspace(0.01, 0.99, 99)
        sup = np.max(np.abs(kendall_cdf(K_emp, grid) - kendall_cdf(K_cf, grid)))
        assert sup < 0.01

    def test_build_dim_one(self):
        K = empirical_kendall_build(IndependenceCopula(1), 10_000,
                                    np.random.default_rng(11))
        assert kendall_cdf(K, 0.5) == pytest.approx(0.5, abs=0.01)

    def test_build_increasing_in_dimension(self):
        vals = []
        for d in (2, 5, 10):
            K = empirical_kendall_build(ArchimedeanCopula(GUMBEL2, d), 50_000,
                                        np.random.default_rng(40 + d))
            vals.append(kendall_cdf(K, 0.5))
        assert vals[0] < vals[1] < vals[2]

    def test_build_matches_closed_form_random_theta(self):
        rng = np.random.default_rng(41)
        grid = np.linspace(0.02, 0.98, 49)
        for fam in ("clayton", "gumbel", "frank"):
            gen = theta_from_tau(fam, float(rng.uniform(0.1, 0.8)))
            K_emp = empirical_kendall_build(ArchimedeanCopula(gen, 3), 50_000, rng)
            sup = np.max(np.abs(kendall_cdf(K_emp, grid)
                                - kendall_cdf(closed_form_kendall(gen, 3), grid)))
            assert sup < 0.01, (fam, gen.theta, sup)

    def test_build_rejects_small_m(self):
        with pytest.raises(ParameterError):
            empirical_kendall_build(IndependenceCopula(2), 10, np.random.default_rng(0))

    def test_gaussian_build_vs_quadrature_oracle(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        cop = GaussianCopula(corr)
        K = empirical_kendall_build(cop, 20_000, np.random.default_rng(12))
        for t in (0.2, 0.5, 0.8):
            oracle = kendall_cdf_quadrature_2d(cop, t)
            assert kendall_cdf(K, t) == pytest.approx(oracle, abs=0.015)


class TestPit:
    def test_kendall_of_z_is_uniform(self):
        # K(C(U)) ~ U(0,1): single-run KS check per family
        for gen, d in [(CLAYTON2, 2), (GUMBEL2, 3), (theta_from_tau("frank", 0.4), 2)]:
            cop = ArchimedeanCopula(gen, d)
            u = copula_sample(cop, 10_000, np.random.default_rng(20))
            z = np.clip(copula_cdf(cop, u), 1e-12, 1 - 1e-12)
            v = kendall_cdf(closed_form_kendall(gen, d), z)
            assert kstest(v, "uniform").pvalue > 0.01

    def test_uniformity_pass_rate(self):
        gen, d = GUMBEL2, 2
        cop = ArchimedeanCopula(gen, d)
        K = closed_form_kendall(gen, d)
        passes = 0
        for seed in range(100):
            u = copula_sample(cop, 500, np.random.default_rng(seed))
            z = np.clip(copula_cdf(cop, u), 1e-12, 1 - 1e-12)
            v = kendall_cdf(K, z)
            passes += kstest(v, "uniform").pvalue > 0.01
        assert passes >= 95
