"""Output checks run on every top-level call of every benchmark run.

Each check returns a list of problems; an empty list means the output is
correct. Statistical tolerances scale with the sample size n so that the
reduced smoke sizes use the same checks: a true model fails one of them
with probability around 1e-5 or less, while a wrong output (permuted
columns, a wrong parameter) moves the statistic by several tolerances.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats


def tau_tol(n: int) -> float:
    """About 4.5 standard errors of an empirical Kendall tau (sd <= 0.67/sqrt(n))."""
    return 3.0 / math.sqrt(n)


def rho_tol(n: int) -> float:
    """About 5 standard errors of a tau-inversion correlation estimate."""
    return 4.5 / math.sqrt(n)


def ks_tol(n: int) -> float:
    """Kolmogorov-Smirnov critical value at level about 1e-6."""
    return 2.7 / math.sqrt(n)


#: chi-square(1) upper 1e-6 quantile, for likelihood-ratio checks
LR_CRIT = 23.93


def mean_pairwise_tau(block) -> float:
    block = np.asarray(block, dtype=float)
    d = block.shape[1]
    taus = [stats.kendalltau(block[:, i], block[:, j]).statistic
            for i in range(d) for j in range(i + 1, d)]
    return float(np.mean(taus))


def cluster_tau_problems(u, clusters) -> list:
    """``clusters`` is a list of (name, columns, tau); clusters of one column are skipped."""
    u = np.asarray(u, dtype=float)
    tol = tau_tol(u.shape[0])
    out = []
    for name, cols, tau in clusters:
        if len(cols) < 2:
            continue
        got = mean_pairwise_tau(u[:, list(cols)])
        if not abs(got - tau) <= tol:
            out.append(f"cluster {name}: mean pairwise tau {got:.4f}, "
                       f"expected {tau:.4f} +- {tol:.4f}")
    return out


def uniform_columns_problems(v, what: str) -> list:
    """Each column of v should be a sample from U(0,1)."""
    v = np.asarray(v, dtype=float)
    tol = ks_tol(v.shape[0])
    out = []
    if not np.all(np.isfinite(v)):
        return [f"{what}: non-finite values"]
    for j in range(v.shape[1]):
        ks = stats.kstest(v[:, j], "uniform").statistic
        if not ks <= tol:
            out.append(f"{what} column {j}: KS statistic {ks:.4f} > {tol:.4f}")
    return out


def shape_problems(u, rows: int, cols: int, what: str) -> list:
    u = np.asarray(u)
    if u.shape != (rows, cols):
        return [f"{what}: shape {u.shape}, expected {(rows, cols)}"]
    if not (np.all(np.isfinite(u)) and np.all((u > 0.0) & (u < 1.0))):
        return [f"{what}: values outside (0,1)"]
    return []


def csv_roundtrip_problems(header, matrix, read_header, read_matrix) -> list:
    if list(read_header) != list(header):
        return ["csv: header changed in the round trip"]
    if np.shape(read_matrix) != np.shape(matrix) or not np.array_equal(read_matrix, matrix):
        return ["csv: values changed in the round trip"]
    return []


def var_series_problems(report, days: int) -> list:
    var = np.asarray(report.var_series, dtype=float)
    out = []
    if var.shape != (days,):
        out.append(f"backtest: {var.size} VaR forecasts, expected {days}")
    if not np.all(np.isfinite(var)):
        out.append("backtest: non-finite VaR forecast")
    elif not np.all(var < 0.0):
        out.append(f"backtest: non-negative VaR forecast (max {float(var.max()):g})")
    if int(report.n_exceed) != int(np.sum(report.realized < var)):
        out.append("backtest: exceedance count disagrees with the VaR series")
    return out


def fitted_tau_problems(report, true_taus: dict, n: int) -> list:
    """Fitted Archimedean taus of the named nodes against their true values."""
    tol = tau_tol(n)
    by_name = {nf.name: nf for nf in report.nodes}
    out = []
    for name, tau in true_taus.items():
        got = by_name[name].params.get("tau")
        if got is None or not abs(got - tau) <= tol:
            out.append(f"node {name}: fitted tau {got}, expected {tau:.4f} +- {tol:.4f}")
    return out


def joint_fit_problems(report, true_taus: dict, n: int) -> list:
    out = []
    # the two-step start is re-evaluated after a round trip through the
    # unconstrained parameters, which may move it by rounding only
    floor = report.loglik_two_step - 1e-9 * max(1.0, abs(report.loglik_two_step))
    if report.loglik_joint is None or not report.loglik_joint >= floor:
        out.append(f"joint: loglik {report.loglik_joint} below the two-step "
                   f"{report.loglik_two_step}")
    if report.clamped_joint != 0:
        out.append(f"joint: {report.clamped_joint} clamped rows")
    if not report.converged:
        out.append("joint: optimizer did not converge")
    return out + fitted_tau_problems(report, true_taus, n)


def elliptical_fit_problems(report, block, true_corr: dict, t_ll) -> list:
    """Fitted correlations against their true values, and a likelihood-ratio
    check on nu: twice the log-likelihood gap between the fitted and the true
    nu stays below the chi-square(1) 1e-6 quantile, which at a maximum is
    the test that the true nu lies in the 1e-6 confidence set.

    ``block(name)`` returns the data columns of a cluster and
    ``t_ll(corr, nu, u)`` the Student-t copula log-likelihood.
    """
    by_name = {nf.name: nf for nf in report.nodes}
    out = []
    for name, (corr, nu) in true_corr.items():
        params = by_name[name].params
        u = block(name)
        tol = rho_tol(u.shape[0])
        dev = float(np.max(np.abs(np.asarray(params["corr"]) - corr)))
        if not dev <= tol:
            out.append(f"node {name}: fitted correlation off by {dev:.4f} > {tol:.4f}")
        if nu is not None:
            fitted = np.asarray(params["corr"])
            lr = 2.0 * abs(t_ll(fitted, params["nu"], u) - t_ll(fitted, nu, u))
            if not lr <= LR_CRIT:
                out.append(f"node {name}: fitted nu {params['nu']:.3g}, true nu {nu} "
                           f"rejected (LR {lr:.2f} > {LR_CRIT})")
    return out
