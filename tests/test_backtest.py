import math

import numpy as np
import pytest
from scipy import stats
from scipy.stats import norm

import hierkendall.backtest as backtest

from hierkendall.backtest import (
    MARGIN_KINDS,
    EmpiricalMargin,
    NormalMargin,
    StudentTMargin,
    christoffersen_tests,
    evaluate_hits,
    forecast_var,
    kupiec_uc,
    rolling_backtest,
    window_margins,
)
from hierkendall.copulas import GaussianCopula, IndependenceCopula
from hierkendall.errors import DataError, ParameterError
from hierkendall.estimation import (
    FitOptions,
    NodeSpec,
    build_model,
    fit_two_step,
    pseudo_observations,
)
from hierkendall.hierarchical import HierarchicalModel, inner, leaf, model_sample
from hierkendall.rngutil import STREAM_FORECAST, substream


class StdNormalMargin:
    def quantile(self, u):
        return norm.ppf(np.clip(u, 1e-12, 1 - 1e-12))


def bivariate_gaussian_model(rho):
    return HierarchicalModel(
        root=inner("nest", [leaf("a", [0], IndependenceCopula(1)),
                            leaf("b", [1], IndependenceCopula(1))],
                   GaussianCopula(np.array([[1.0, rho], [rho, 1.0]]))),
        n_vars=2)


class TestKupiec:
    def test_expected_count_gives_lr_zero(self):
        hits = np.zeros(500, dtype=bool)
        hits[:5] = True
        lr, p = kupiec_uc(hits, 0.01)
        assert lr == 0.0
        assert p == 1.0

    def test_gross_overshoot_rejects(self):
        hits = np.zeros(500, dtype=bool)
        hits[:103] = True
        _, p = kupiec_uc(hits, 0.01)
        assert p < 0.005
        assert f"{p:.2f}" == "0.00"

    def test_zero_exceedances(self):
        lr, p = kupiec_uc(np.zeros(100, dtype=bool), 0.01)
        assert lr == pytest.approx(-2.0 * 100.0 * math.log(0.99), abs=1e-12)
        # chi-square(1) tail cross-checked through the normal tail identity
        assert p == pytest.approx(2.0 * norm.sf(math.sqrt(lr)), abs=1e-12)
        assert p == pytest.approx(0.1563, abs=5e-4)

    def test_all_exceedances(self):
        lr, p = kupiec_uc(np.ones(50, dtype=bool), 0.05)
        assert np.isfinite(lr) and lr > 0 and p < 1e-10

    def test_lr_nonnegative_random_series(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            hits = rng.random(100) < 0.05
            lr, p = kupiec_uc(hits, 0.05)
            assert lr >= 0.0
            assert 0.0 <= p <= 1.0


class TestChristoffersen:
    def test_alternating_series_detected(self):
        hits = (np.arange(100) % 2).astype(bool)
        ic = christoffersen_tests(hits, 0.5)
        # exact transition counts: n00=0, n01=50, n10=49, n11=0
        pi = 50.0 / 99.0
        ll_iid = 49.0 * math.log(1.0 - pi) + 50.0 * math.log(pi)
        expected = -2.0 * ll_iid  # Markov likelihood is exactly 1
        assert ic.lr_ind == pytest.approx(expected, rel=1e-12)
        assert ic.p_ind < 0.001

    def test_matched_transition_rates_give_zero(self):
        # n01/(n00+n01) == n11/(n10+n11) == unconditional rate
        hits = np.array([0, 1, 0, 1, 1, 0, 1, 1] * 10, dtype=bool)
        ic = christoffersen_tests(hits, 0.5)
        n01 = np.sum(~hits[:-1] & hits[1:])
        n00 = np.sum(~hits[:-1] & ~hits[1:])
        n11 = np.sum(hits[:-1] & hits[1:])
        n10 = np.sum(hits[:-1] & ~hits[1:])
        if n01 / (n00 + n01) == pytest.approx(n11 / (n10 + n11)):
            assert ic.lr_ind == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_all_zero(self):
        ic = christoffersen_tests(np.zeros(50, dtype=bool), 0.05)
        assert ic.degenerate
        assert math.isnan(ic.p_ind)

    def test_degenerate_all_one(self):
        ic = christoffersen_tests(np.ones(50, dtype=bool), 0.05)
        assert ic.degenerate

    def test_additivity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            hits = rng.random(200) < 0.06
            if not hits.any() or hits.all():
                continue
            lr_uc, _ = kupiec_uc(hits, 0.05)
            ic = christoffersen_tests(hits, 0.05)
            assert ic.lr_cc == pytest.approx(lr_uc + ic.lr_ind, abs=1e-12)
            assert ic.lr_ind >= -1e-12

    def test_size_calibration_quick(self):
        rng = np.random.default_rng(2)
        rejections = 0
        for _ in range(300):
            hits = rng.random(500) < 0.05
            _, p = kupiec_uc(hits, 0.05)
            rejections += p < 0.05
        assert 0.02 <= rejections / 300 <= 0.09


class TestForecastVar:
    def test_independent_gaussian_analytic(self):
        m = bivariate_gaussian_model(0.0)
        v = forecast_var(m, [StdNormalMargin(), StdNormalMargin()], [0.5, 0.5],
                         0.95, 100_000, np.random.default_rng(11))
        assert v == pytest.approx(norm.ppf(0.05) * math.sqrt(0.5), abs=0.03)

    def test_comonotone_no_diversification(self):
        m = bivariate_gaussian_model(1.0 - 1e-9)
        v = forecast_var(m, [StdNormalMargin(), StdNormalMargin()], [0.5, 0.5],
                         0.95, 100_000, np.random.default_rng(11))
        assert v == pytest.approx(norm.ppf(0.05), abs=0.03)

    def test_single_asset_margin_quantile(self):
        m = HierarchicalModel(
            root=inner("nest", [leaf("a", [0], IndependenceCopula(1))],
                       IndependenceCopula(1)),
            n_vars=1)
        v = forecast_var(m, [StdNormalMargin()], [1.0], 0.95, 200_000,
                         np.random.default_rng(12))
        assert v == pytest.approx(norm.ppf(0.05), abs=0.03)

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.inf, -math.inf],
                                         [0.5, math.nan]])
    def test_non_finite_weights_refused(self, weights):
        m = bivariate_gaussian_model(0.4)
        with pytest.raises(ParameterError, match="finite") as info:
            forecast_var(m, [StdNormalMargin(), StdNormalMargin()], weights, 0.95, 100,
                         np.random.default_rng(14))
        assert info.value.argument == "weights"

    def test_level_monotonicity(self):
        m = bivariate_gaussian_model(0.4)
        margins = [StdNormalMargin(), StdNormalMargin()]
        vals = [forecast_var(m, margins, [0.5, 0.5], lvl, 50_000,
                             np.random.default_rng(13)) for lvl in (0.99, 0.95, 0.90)]
        assert vals[0] <= vals[1] <= vals[2]


class TestMargins:
    def test_empirical_margin_quantile(self):
        m = EmpiricalMargin(np.arange(1, 101, dtype=float))
        assert m.quantile(0.5) == pytest.approx(50.5)

    def test_empirical_quantile_is_numpys_bit_for_bit(self):
        rng = np.random.default_rng(5)
        u = np.concatenate([rng.random(2000),
                            [0.0, 1.0, -0.0, np.nextafter(1.0, 0.0), 5e-324]])
        for n in (2, 3, 17, 500):
            for values in (rng.normal(size=n),
                           rng.integers(-2, 3, size=n).astype(float),  # ties
                           np.round(rng.standard_t(3, size=n), 1) + 0.0):
                got = EmpiricalMargin(values).quantile(u)
                want = np.quantile(values, u)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
                scalar = EmpiricalMargin(values).quantile(0.3)
                assert type(scalar) is np.float64
                assert scalar == np.quantile(values, 0.3)

    def test_empirical_quantile_refuses_nan(self):
        with pytest.raises(ParameterError, match="^u must lie in"):
            EmpiricalMargin([1.0, 2.0, 3.0]).quantile(np.array([0.5, math.nan]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_empirical_margin_refuses_non_finite_values(self, bad):
        with pytest.raises(DataError):
            EmpiricalMargin([1.0, bad, 3.0])

    @pytest.mark.parametrize("kind", list(MARGIN_KINDS))
    @pytest.mark.parametrize("levels, first_bad", [
        ([0.5, math.nan, 1.5], math.nan), (1.5, 1.5), ([0.2, -0.1], -0.1),
        ([0.3, -3.0, 7.0], -3.0)])
    def test_every_kind_refuses_a_level_outside_the_unit_interval(self, kind, levels,
                                                                   first_bad):
        margin = MARGIN_KINDS[kind](np.random.default_rng(7).normal(size=50))
        with pytest.raises(ParameterError, match=f"^u must lie in \\[0, 1\\], got {first_bad}$"
                           ) as info:
            margin.quantile(levels)
        assert info.value.argument == "u"

    @pytest.mark.parametrize("kind", list(MARGIN_KINDS))
    def test_every_kind_takes_the_closed_unit_interval(self, kind):
        margin = MARGIN_KINDS[kind](np.random.default_rng(7).normal(size=50))
        low, high = margin.quantile(np.array([0.0, 1.0]))
        assert low < margin.quantile(0.5) < high

    @pytest.mark.parametrize("kind", list(MARGIN_KINDS))
    @pytest.mark.parametrize("window, message", [
        ([0.3], "at least two observations, got 1"), ([], "at least two observations, got 0"),
        ([0.1, math.nan, 0.4], "finite observations"),
        ([0.1, math.inf, 0.4], "finite observations"),
        ([-math.inf, 0.2, 0.4], "finite observations")])
    def test_every_kind_refuses_a_short_or_non_finite_window(self, kind, window, message):
        with pytest.raises(DataError, match=message):
            MARGIN_KINDS[kind](window)

    def test_normal_margin(self):
        vals = np.random.default_rng(3).normal(2.0, 3.0, size=20_000)
        m = NormalMargin(vals)
        assert m.quantile(0.5) == pytest.approx(2.0, abs=0.1)

    def test_student_t_margin_is_the_fitted_t(self):
        vals = 1.0 + 2.0 * np.random.default_rng(6).standard_t(5.0, size=2000)
        m = StudentTMargin(vals)
        df, loc, scale = stats.t.fit(vals)
        assert (m.df, m.loc, m.scale) == (df, loc, scale)
        u = np.array([0.01, 0.3, 0.5, 0.95])
        np.testing.assert_allclose(m.quantile(u), stats.t.ppf(u, df, loc, scale), rtol=1e-12)

    def test_window_margins_shape(self):
        win = np.random.default_rng(4).normal(size=(100, 3))
        ms = window_margins(win, "empirical")
        assert len(ms) == 3


FIT_SPEC = NodeSpec("nest", "frank", children=(
    NodeSpec("c1", "clayton", columns=(0, 1)),
    NodeSpec("c2", "gumbel", columns=(2, 3)),
))


@pytest.fixture(scope="module")
def returns():
    sim_spec = NodeSpec("nest", "frank", children=(
        NodeSpec("c1", "clayton", columns=(0, 1), params={"tau": 0.4}),
        NodeSpec("c2", "gumbel", columns=(2, 3), params={"tau": 0.4}),
    ), params={"tau": 0.4})
    true = build_model(sim_spec, 4)
    u = model_sample(true, 360, np.random.default_rng(30), method="exact")
    return norm.ppf(np.clip(u, 1e-12, 1 - 1e-12))


class TestRolling:
    def test_small_pipeline(self, returns):
        report = rolling_backtest(returns, FIT_SPEC, level=0.9, window=300,
                                  horizon=60, refit_every=30, mc=4000, seed=5)
        assert report.horizon == 60
        assert report.hits.size == 60
        assert 0.0 <= report.p_uc <= 1.0
        assert report.var_series.shape == (60,)

    def test_refit_day_is_forecast_var_bit_for_bit(self, returns):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        report = rolling_backtest(returns, FIT_SPEC, level=0.95, window=300, horizon=45,
                                  refit_every=20, mc=2000, seed=8, weights=w)
        for t in (0, 20, 40):
            win = returns[t:t + 300]
            model = fit_two_step(FIT_SPEC, pseudo_observations(win), FitOptions()).model
            want = forecast_var(model, window_margins(win), w, 0.95, 2000,
                                substream(8, STREAM_FORECAST, t))
            assert report.var_series[t] == want

    def test_one_draw_per_refit_period(self, returns, monkeypatch):
        draws = []

        def counting(model, n, rng, **kwargs):
            draws.append(n)
            return model_sample(model, n, rng, **kwargs)

        monkeypatch.setattr(backtest, "model_sample", counting)
        report = rolling_backtest(returns, FIT_SPEC, level=0.95, window=300, horizon=51,
                                  refit_every=25, mc=1000, seed=2)
        assert draws == [1000, 1000, 1000]  # refit days 0, 25 and 50
        assert np.isfinite(report.var_series).all()

    @pytest.mark.parametrize("argument, value", [
        ("refit_every", 0), ("refit_every", -3), ("refit_every", 2.5),
        ("horizon", 0), ("horizon", -2), ("window", 5), ("mc", 0),
        ("level", 1.5), ("level", math.nan), ("weights", [0.5, 0.5, math.nan, 0.0]),
        ("weights", [0.5, 0.5]), ("margin_kind", "kernel")])
    def test_arguments_checked_before_the_first_fit(self, returns, monkeypatch,
                                                    argument, value):
        def no_fit(*args, **kwargs):
            raise AssertionError("fitted before the arguments were checked")

        monkeypatch.setattr(backtest, "fit_two_step", no_fit)
        kwargs = dict(level=0.95, window=300, horizon=10, refit_every=5, mc=100)
        kwargs[argument] = value
        with pytest.raises(ParameterError) as info:
            rolling_backtest(returns, FIT_SPEC, **kwargs)
        assert info.value.argument == argument

    def test_student_t_margins(self, returns):
        report = rolling_backtest(returns, FIT_SPEC, level=0.95, window=300, horizon=3,
                                  refit_every=3, mc=2000, seed=3, margin_kind="student_t")
        assert report.var_series.shape == (3,)
        assert np.all(np.isfinite(report.var_series)) and np.all(report.var_series < 0.0)

    def test_window_too_long_rejected(self):
        data = np.random.default_rng(6).normal(size=(50, 2))
        fit_spec = NodeSpec("nest", "independence", children=(
            NodeSpec("a", "independence", columns=(0,)),
            NodeSpec("b", "independence", columns=(1,)),
        ))
        with pytest.raises(DataError):
            rolling_backtest(data, fit_spec, level=0.95, window=50)

    def test_evaluate_hits_report_fields(self):
        hits = np.zeros(500, dtype=bool)
        hits[::100] = True
        rep = evaluate_hits(hits, 0.99)
        assert rep.n_exceed == 5
        assert rep.p_uc == 1.0
        assert not rep.degenerate
        assert rep.lr_cc == pytest.approx(rep.lr_uc + rep.lr_ind, abs=1e-12)
