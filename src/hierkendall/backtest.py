"""Portfolio VaR forecasting and exceedance backtesting.

The forecaster plugs copula-model simulations into per-variable marginal
quantile functions, forms weighted portfolio returns, and reads off the
alpha-quantile. Backtests on the resulting hit series:

* Kupiec proportion-of-failures likelihood ratio (unconditional
  coverage, chi-square with 1 df),
* first-order Markov likelihood ratio (independence of hits, chi-square
  with 1 df),
* their sum (conditional coverage, chi-square with 2 df).

GARCH-style marginal filtering is out of scope: feed standardized
residuals or plain returns; marginal quantiles come from the rolling
window (empirically or via fitted normal/Student-t margins).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import DataError, ParameterError, check_count, check_probability
from .estimation import FitOptions, NodeSpec, data_rows, fit_two_step, pseudo_observations
from .hierarchical import HierarchicalModel, model_sample
from .levelset import DEFAULT_EPSILON_RULE, EpsilonRule
from .rngutil import STREAM_FORECAST, substream

# ---------------------------------------------------------------------------
# marginal models
# ---------------------------------------------------------------------------


def _window_values(values) -> np.ndarray:
    """The window rule of every margin kind: ``values`` as a float array,
    once it holds at least two values, all finite; else a ``DataError``.
    Every kind's ``quantile`` takes levels u in [0, 1] (``check_probability``)."""
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        raise DataError(f"a margin needs at least two observations, got {values.size}")
    if not np.isfinite(values).all():
        raise DataError("a margin needs finite observations")
    return values


class EmpiricalMargin:
    """Quantile function of a data window (linear-interpolated ECDF inverse)."""

    def __init__(self, values):
        self.values = np.sort(_window_values(values))

    def quantile(self, u):
        """``np.quantile(values, u)`` bit for bit, read from the sorted values
        without numpy's partition: numpy's linear rule at position (n - 1) u,
        a + (b - a) t below t = 0.5 and b - (b - a)(1 - t) from it."""
        check_probability("u", u, closed=True)
        v = self.values
        pos = (v.size - 1) * np.asarray(u, dtype=float)
        lo = np.minimum(np.floor(pos), v.size - 2)
        t = pos - lo
        lo = lo.astype(np.intp)
        a, b = v[lo], v[lo + 1]
        diff = b - a
        return np.where(t >= 0.5, b - diff * (1.0 - t), a + diff * t)[()]


class NormalMargin:
    def __init__(self, values):
        values = _window_values(values)
        self.mu = float(np.mean(values))
        self.sigma = float(np.std(values, ddof=1))

    def quantile(self, u):
        check_probability("u", u, closed=True)
        return self.mu + self.sigma * stats.norm.ppf(u)


class StudentTMargin:
    def __init__(self, values):
        df, loc, scale = stats.t.fit(_window_values(values))
        self.df, self.loc, self.scale = float(df), float(loc), float(scale)

    def quantile(self, u):
        check_probability("u", u, closed=True)
        return self.loc + self.scale * stats.t.ppf(u, df=self.df)


MARGIN_KINDS = {"empirical": EmpiricalMargin, "normal": NormalMargin,
                "student_t": StudentTMargin}


def window_margins(window, kind: str = "empirical") -> list:
    """One fitted margin per column of the window."""
    if kind not in MARGIN_KINDS:
        raise ParameterError(f"unknown margin kind {kind!r}")
    window = np.asarray(window, dtype=float)
    return [MARGIN_KINDS[kind](window[:, j]) for j in range(window.shape[1])]


# ---------------------------------------------------------------------------
# VaR forecasting
# ---------------------------------------------------------------------------

def forecast_var(model: HierarchicalModel, margins, weights, level: float,
                 mc: int, rng, eps_rule: EpsilonRule = DEFAULT_EPSILON_RULE) -> float:
    """alpha-quantile (alpha = 1 - level) of the simulated portfolio return.

    ``margins`` is one quantile-function object per variable; ``weights``
    must be finite and sum to one.
    """
    weights = _check_forecast_args(model.n_vars, weights, level, mc)
    if len(margins) != model.n_vars:
        raise ParameterError("one margin per model variable required", "margins")
    u = model_sample(model, mc, rng, eps_rule=eps_rule)
    return _portfolio_var(u, margins, weights, level)


def _check_forecast_args(n_vars: int, weights, level: float, mc: int) -> np.ndarray:
    """The weights as an array, once they, ``level`` and ``mc`` are valid."""
    weights = np.asarray(weights, dtype=float)
    if weights.size != n_vars:
        raise ParameterError("one weight per model variable required", "weights")
    if not np.isfinite(weights).all():
        raise ParameterError(f"weights must be finite, got {weights.tolist()}", "weights")
    if abs(weights.sum() - 1.0) > 1e-8:
        raise ParameterError("weights must sum to 1", "weights")
    check_probability("level", level)
    check_count("mc", mc, 1)
    return weights


def _portfolio_var(u, margins, weights, level: float) -> float:
    """The VaR step of a forecast: the copula draw ``u`` (one row per
    scenario) through the margins, weighted, and its (1 - level)-quantile.
    One column at a time, so no second draw-sized array is held."""
    returns = np.zeros(len(u))
    for j, margin in enumerate(margins):
        returns += weights[j] * margin.quantile(u[:, j])
    return float(np.quantile(returns, 1.0 - level))


# ---------------------------------------------------------------------------
# coverage tests
# ---------------------------------------------------------------------------

def _xlogy(x, y):
    """x log y with 0 log y = 0, so a zero count never takes the log of 0."""
    return 0.0 if x == 0 else x * math.log(y)


def kupiec_uc(hits, alpha: float):
    """Kupiec proportion-of-failures LR test of unconditional coverage.

    Returns (LR, p) with p from the chi-square(1) upper tail; x = 0 and
    x = T use the 0*log(0) = 0 convention.
    """
    hits = np.asarray(hits, dtype=bool)
    t = hits.size
    if t < 1:
        raise DataError("hit series must be nonempty")
    check_probability("alpha", alpha)
    x = int(hits.sum())
    phat = x / t
    ll0 = _xlogy(t - x, 1.0 - alpha) + _xlogy(x, alpha)
    ll1 = _xlogy(t - x, 1.0 - phat) + _xlogy(x, phat)
    lr = max(-2.0 * (ll0 - ll1), 0.0) + 0.0
    return lr, float(stats.chi2.sf(lr, df=1))


@dataclass
class IndependenceCoverage:
    lr_ind: float
    p_ind: float
    lr_cc: float
    p_cc: float
    degenerate: bool = False


def christoffersen_tests(hits, alpha: float) -> IndependenceCoverage:
    """First-order Markov independence LR and the joint conditional-coverage LR.

    lr_cc = lr_uc + lr_ind with p-values from chi-square(1) and (2). An
    all-zero or all-one hit series leaves the Markov chain unidentified:
    the result is flagged degenerate with NaN p_ind.
    """
    hits = np.asarray(hits, dtype=bool)
    t = hits.size
    if t < 2:
        raise DataError("need at least two observations for transition counts")
    lr_uc, _ = kupiec_uc(hits, alpha)
    if hits.all() or not hits.any():
        return IndependenceCoverage(math.nan, math.nan, math.nan, math.nan,
                                    degenerate=True)
    a, b = hits[:-1], hits[1:]
    n00 = int(np.sum(~a & ~b))
    n01 = int(np.sum(~a & b))
    n10 = int(np.sum(a & ~b))
    n11 = int(np.sum(a & b))
    pi01 = n01 / (n00 + n01) if n00 + n01 > 0 else 0.0
    pi11 = n11 / (n10 + n11) if n10 + n11 > 0 else 0.0
    pi = (n01 + n11) / (t - 1)
    ll_markov = (_xlogy(n00, 1.0 - pi01) + _xlogy(n01, pi01)
                 + _xlogy(n10, 1.0 - pi11) + _xlogy(n11, pi11))
    ll_iid = _xlogy(n00 + n10, 1.0 - pi) + _xlogy(n01 + n11, pi)
    lr_ind = max(-2.0 * (ll_iid - ll_markov), 0.0)
    lr_cc = lr_uc + lr_ind
    return IndependenceCoverage(
        lr_ind=lr_ind, p_ind=float(stats.chi2.sf(lr_ind, df=1)),
        lr_cc=lr_cc, p_cc=float(stats.chi2.sf(lr_cc, df=2)))


# ---------------------------------------------------------------------------
# rolling backtest
# ---------------------------------------------------------------------------

@dataclass
class BacktestReport:
    level: float
    hits: np.ndarray = field(repr=False)
    n_exceed: int
    lr_uc: float
    lr_ind: float
    lr_cc: float
    p_uc: float
    p_ind: float
    p_cc: float
    window: int
    horizon: int
    degenerate: bool
    var_series: np.ndarray = field(repr=False, default=None)
    realized: np.ndarray = field(repr=False, default=None)


def evaluate_hits(hits, level: float, window: int = 0) -> BacktestReport:
    """Assemble a BacktestReport from a finished hit series."""
    hits = np.asarray(hits, dtype=bool)
    alpha = 1.0 - level
    lr_uc, p_uc = kupiec_uc(hits, alpha)
    ic = christoffersen_tests(hits, alpha)
    return BacktestReport(
        level=level, hits=hits, n_exceed=int(hits.sum()), lr_uc=lr_uc,
        lr_ind=ic.lr_ind, lr_cc=ic.lr_cc, p_uc=p_uc, p_ind=ic.p_ind,
        p_cc=ic.p_cc, window=window, horizon=hits.size, degenerate=ic.degenerate)


def rolling_backtest(data, fit_spec: NodeSpec, level: float, window: int,
                     horizon: int | None = None, weights=None,
                     refit_every: int = 25, mc: int = 10_000,
                     margin_kind: str = "empirical", seed: int = 0,
                     fit_options: FitOptions | None = None,
                     eps_rule: EpsilonRule = DEFAULT_EPSILON_RULE) -> BacktestReport:
    """Moving-window VaR backtest of a hierarchical Kendall copula model.

    Forecast day t uses the trailing window ``data[t:t + window]``. Every
    ``refit_every`` days, starting with day 0, the model is refitted on the
    window's pseudo-observations and one copula sample of ``mc`` rows is
    drawn from ``substream(seed, STREAM_FORECAST, t)``, t the refit day.
    Each day of the refit period reads that one sample through margins
    refitted on its own raw window, and its portfolio VaR forecast is
    compared with the realized weighted return. So a refit day's forecast
    is ``forecast_var`` of the refitted model with that stream, and the
    Monte Carlo error is shared by the days of one refit period. Draws use
    ``eps_rule``; their rejection batches stop at ``levelset.MAX_ATTEMPTS``.
    """
    data = data_rows(data)
    t_total, n_vars = data.shape
    check_count("window", window, 10)
    if horizon is not None:
        check_count("horizon", horizon, 1)
    check_count("refit_every", refit_every, 1)
    check_count("seed", seed, 0)
    if margin_kind not in MARGIN_KINDS:
        raise ParameterError(f"unknown margin kind {margin_kind!r}", "margin_kind")
    weights = _check_forecast_args(
        n_vars, np.full(n_vars, 1.0 / n_vars) if weights is None else weights, level, mc)
    max_horizon = t_total - window
    if max_horizon < 1:
        raise DataError(f"data has {t_total} rows; window {window} leaves no "
                        "forecast days")
    horizon = max_horizon if horizon is None else min(horizon, max_horizon)
    fit_options = fit_options or FitOptions()
    hits = np.zeros(horizon, dtype=bool)
    var_series = np.zeros(horizon)
    realized = np.zeros(horizon)
    for t in range(horizon):
        win = data[t:t + window]
        if t % refit_every == 0:
            model = fit_two_step(fit_spec, pseudo_observations(win), fit_options).model
            draw = model_sample(model, mc, substream(seed, STREAM_FORECAST, t), eps_rule=eps_rule)
        var_series[t] = _portfolio_var(draw, window_margins(win, margin_kind),
                                       weights, level)
        realized[t] = float(weights @ data[t + window])
        hits[t] = realized[t] < var_series[t]
    report = evaluate_hits(hits, level, window)
    report.var_series = var_series
    report.realized = realized
    return report
