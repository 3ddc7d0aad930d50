"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Every tolerance is fixed here; nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest
from scipy.stats import ks_2samp, norm

from hierkendall.backtest import kupiec_uc, rolling_backtest
from hierkendall.copulas import (
    ArchimedeanCopula,
    copula_cdf,
    elliptical_tau_from_corr,
)
from hierkendall.estimation import (
    FitOptions,
    NodeSpec,
    StudyConfig,
    build_model,
    fit_joint_mle,
    fit_two_step,
    simulation_study,
)
from hierkendall.generators import theta_from_tau, independence_generator
from hierkendall.hierarchical import model_density, model_sample
from hierkendall.kendall import closed_form_kendall, empirical_kendall_build, kendall_cdf
from hierkendall.levelset import (
    EpsilonRule,
    sample_levelset_conditional_batch,
    sample_levelset_projected_batch,
    sample_levelset_rejection_batch,
)
from hierkendall.rngutil import substream


def conclude(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} [{name}]: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_levelset_exactness():
    t0 = time.time()
    rng = substream(1001, 0)
    worst = 0.0
    for i in range(10_000):
        fam = ("clayton", "gumbel", "frank")[int(rng.integers(3))]
        g = theta_from_tau(fam, float(rng.uniform(0.05, 0.9)))
        d = int(rng.integers(2, 6))
        z = float(rng.uniform(0.01, 0.99))
        sampler = (sample_levelset_conditional_batch if i % 2 == 0
                   else sample_levelset_projected_batch)
        u = sampler(g, d, [z], rng)[0]
        err = abs(copula_cdf(ArchimedeanCopula(g, d), u) - z)
        worst = max(worst, err)
    elapsed = time.time() - t0
    conclude(1, "level-set exactness", worst < 1e-9 and elapsed < 60,
             f"max |C(u)-z| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_algorithm_equivalence():
    t0 = time.time()
    g = theta_from_tau("gumbel", 0.5)
    d, z, n = 3, 0.3, 10_000
    passes = 0
    for seed in range(100):
        a = sample_levelset_conditional_batch(g, d, np.full(n, z),
                                              substream(1002, seed, 0))
        b = sample_levelset_projected_batch(g, d, np.full(n, z),
                                            substream(1002, seed, 1))
        ok = all(ks_2samp(a[:, j], b[:, j]).pvalue > 0.01 for j in range(d))
        passes += ok
    elapsed = time.time() - t0
    conclude(2, "conditional/projected equivalence", passes >= 95 and elapsed < 120,
             f"{passes}/100 runs passed all per-coordinate KS tests, {elapsed:.1f}s")


def test_criterion_3_kendall_closed_form_vs_mc():
    t0 = time.time()
    grid = np.linspace(0.01, 0.99, 99)
    gens = {
        "independence": independence_generator(),
        "clayton": theta_from_tau("clayton", 0.5),
        "gumbel": theta_from_tau("gumbel", 0.5),
        "frank": theta_from_tau("frank", 0.5),
    }
    worst = 0.0
    for k, (fam, g) in enumerate(gens.items()):
        for d in (2, 3, 5):
            K_emp = empirical_kendall_build(ArchimedeanCopula(g, d), 100_000,
                                            substream(1003, k, d))
            K_cf = closed_form_kendall(g, d)
            sup = float(np.max(np.abs(kendall_cdf(K_emp, grid)
                                      - kendall_cdf(K_cf, grid))))
            worst = max(worst, sup)
    monotone = True
    for g in (gens["independence"], gens["gumbel"]):
        for t in np.linspace(0.1, 0.9, 9):
            vals = [kendall_cdf(closed_form_kendall(g, d), t) for d in (2, 3, 5)]
            monotone &= vals[0] < vals[1] < vals[2]
    elapsed = time.time() - t0
    conclude(3, "Kendall closed form vs Monte Carlo",
             worst < 0.01 and monotone and elapsed < 120,
             f"sup-norm max = {worst:.4f}, monotone in d: {monotone}, {elapsed:.1f}s")


def test_criterion_4_rejection_band():
    t0 = time.time()
    c = ArchimedeanCopula(theta_from_tau("clayton", 0.5), 2)
    rule = EpsilonRule("rel", 0.01)
    z = 0.2
    rng = substream(1004, 0)
    u, _ = sample_levelset_rejection_batch(c, np.full(1000, z), rule, rng)
    max_rel = float(np.max(np.abs(copula_cdf(c, u) - z))) / z
    elapsed = time.time() - t0
    conclude(4, "rejection sampling error bound", max_rel <= 0.01 and elapsed < 60,
             f"max relative error = {max_rel:.4f} over 1000 accepted, {elapsed:.1f}s")


def test_criterion_5_density_normalization():
    t0 = time.time()
    spec = NodeSpec("nest", "frank", children=(
        NodeSpec("c1", "clayton", columns=(0, 1), params={"tau": 0.4}),
        NodeSpec("c2", "gumbel", columns=(2, 3), params={"tau": 0.4}),
    ), params={"tau": 0.4})
    model = build_model(spec, 4)
    u = substream(1005, 0).random((1_000_000, 4))
    integral = float(np.mean(model_density(model, u)))
    indep_spec = NodeSpec("nest", "independence", children=(
        NodeSpec("c1", "independence", columns=(0, 1)),
        NodeSpec("c2", "independence", columns=(2, 3)),
    ))
    indep = build_model(indep_spec, 4)
    exact_one = bool(np.all(model_density(indep, u[:1000]) == 1.0))
    elapsed = time.time() - t0
    conclude(5, "density normalization",
             abs(integral - 1.0) < 0.02 and exact_one and elapsed < 120,
             f"MC integral = {integral:.4f}, independence exact: {exact_one}, "
             f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def study_rows():
    config = StudyConfig(
        cluster_families=("clayton", "gumbel"), cluster_taus=(0.4, 0.4),
        nesting_family="frank", nesting_taus=(0.4, 0.7),
        sample_sizes=(250, 1000), replications=100,
        methods=("two_step_closed", "two_step_empirical", "joint_mle"),
        kendall_mc=25_000, seed=1006)
    return simulation_study(config)


def test_criterion_6_estimation_recovery(study_rows):
    t0 = time.time()
    rows = study_rows
    bias_ok = all(abs(r.bias) < 0.05 for r in rows if r.n == 1000)
    mse_by = {(r.nesting_tau, r.n, r.method): r.mse for r in rows}
    n_ok = all(mse_by[(tau, 1000, m)] <= mse_by[(tau, 250, m)]
               for tau in (0.4, 0.7)
               for m in ("two_step_closed", "two_step_empirical", "joint_mle"))
    tau_cells = [(n, m) for n in (250, 1000)
                 for m in ("two_step_closed", "two_step_empirical", "joint_mle")]
    tau_wins = sum(mse_by[(0.7, n, m)] <= mse_by[(0.4, n, m)] for n, m in tau_cells)
    majority = tau_wins > len(tau_cells) / 2
    failures = sum(r.n_fail for r in rows)
    elapsed = time.time() - t0
    conclude(6, "estimation recovery",
             bias_ok and n_ok and majority and failures == 0,
             f"|bias|<0.05 at N=1000: {bias_ok}; MSE decreasing in N: {n_ok}; "
             f"MSE(0.7)<=MSE(0.4) in {tau_wins}/{len(tau_cells)} cells; "
             f"{failures} failed replications; {elapsed:.1f}s on cached rows")


def test_criterion_7_mle_dominance():
    fit_spec_frank = NodeSpec("nest", "frank", children=(
        NodeSpec("c1", "clayton", columns=(0, 1)),
        NodeSpec("c2", "gumbel", columns=(2, 3))))
    fit_spec_gumbel = NodeSpec("nest", "gumbel", children=(
        NodeSpec("c1", "frank", columns=(0, 1)),
        NodeSpec("c2", "clayton", columns=(2, 3))))
    sim_spec = NodeSpec("nest", "frank", children=(
        NodeSpec("c1", "clayton", columns=(0, 1), params={"tau": 0.4}),
        NodeSpec("c2", "gumbel", columns=(2, 3), params={"tau": 0.6}),
    ), params={"tau": 0.5})
    model = build_model(sim_spec, 4)
    checked, dominated = 0, 0
    for seed in range(6):
        u = model_sample(model, 400, substream(1007, seed), method="exact")
        for spec in (fit_spec_frank, fit_spec_gumbel):
            base = fit_two_step(spec, u, FitOptions(kendall_mode="closed_form"))
            joint = fit_joint_mle(base, u)
            checked += 1
            dominated += joint.loglik_joint >= base.loglik_two_step
    conclude(7, "joint MLE dominates two-step", dominated == checked,
             f"{dominated}/{checked} fits")


def test_criterion_8_backtest_table_cells_and_size():
    t0 = time.time()
    hits5 = np.zeros(500, dtype=bool)
    hits5[np.arange(5) * 97] = True
    _, p5 = kupiec_uc(hits5, 0.01)
    cell_a = f"{p5:.2f}" == "1.00"
    hits103 = np.zeros(500, dtype=bool)
    hits103[np.linspace(0, 499, 103).astype(int)] = True
    _, p103 = kupiec_uc(hits103, 0.01)
    cell_b = f"{p103:.2f}" == "0.00"
    rng = substream(1008, 0)
    rejections = 0
    for _ in range(1000):
        series = rng.random(500) < 0.05
        _, p = kupiec_uc(series, 0.05)
        rejections += p < 0.05
    rate = rejections / 1000.0
    size_ok = 0.03 <= rate <= 0.07
    elapsed = time.time() - t0
    conclude(8, "backtest cells and size calibration",
             cell_a and cell_b and size_ok and elapsed < 60,
             f"UC(5/500)={p5:.2f}, UC(103/500)={p103:.2f}, "
             f"rejection rate={rate:.3f}, {elapsed:.1f}s")


def _thirty_dim_spec(with_params):
    sizes = [5, 4, 3, 3, 3, 4, 3, 2, 2, 1]
    taus = [0.40, 0.35, 0.30, 0.40, 0.38, 0.28, 0.30, 0.50, 0.32, 0.0]
    leaves = []
    start = 0
    for i, (s, t) in enumerate(zip(sizes, taus)):
        cols = tuple(range(start, start + s))
        start += s
        if s == 1:
            leaves.append(NodeSpec(f"sector{i}", "independence", columns=cols))
        else:
            leaves.append(NodeSpec(
                f"sector{i}", "frank", columns=cols,
                params={"tau": t} if with_params else None))
    if with_params:
        base_tau = 0.35
        corr = np.full((10, 10), float(np.sin(0.5 * np.pi * base_tau)))
        np.fill_diagonal(corr, 1.0)
        root = NodeSpec("market", "student_t", children=tuple(leaves),
                        params={"corr": corr.tolist(), "nu": 6.0})
    else:
        root = NodeSpec("market", "student_t", children=tuple(leaves))
    return root


def test_criterion_9_end_to_end_pipeline():
    t0 = time.time()
    true_spec = _thirty_dim_spec(True)
    fit_spec = _thirty_dim_spec(False)
    true_model = build_model(true_spec, 30)

    # simulate -> fit round trip at n=2000
    u = model_sample(true_model, 2000, substream(1009, 0), method="exact")
    report = fit_two_step(fit_spec, u, FitOptions(kendall_mode="closed_form"))
    cluster_errs = []
    true_taus = {f"sector{i}": t for i, t in enumerate(
        [0.40, 0.35, 0.30, 0.40, 0.38, 0.28, 0.30, 0.50, 0.32])}
    for nf in report.nodes:
        if nf.name in true_taus and "tau" in nf.params:
            cluster_errs.append(abs(nf.params["tau"] - true_taus[nf.name]))
    root_fit = report.model.root.copula
    fit_taus = elliptical_tau_from_corr(
        root_fit.corr[np.triu_indices(10, 1)])
    nest_err = float(np.max(np.abs(fit_taus - 0.35)))
    round_trip_ok = max(cluster_errs) < 0.05 and nest_err < 0.05

    # rolling VaR over 100 days on synthetic returns
    u_all = model_sample(true_model, 600, substream(1009, 1), method="exact")
    returns = norm.ppf(np.clip(u_all, 1e-12, 1 - 1e-12))
    bt = rolling_backtest(returns, fit_spec, level=0.90, window=500,
                          horizon=100, refit_every=25, mc=10_000, seed=1009,
                          fit_options=FitOptions(kendall_mode="closed_form"))
    tests_ok = (not bt.degenerate and np.isfinite(bt.p_uc)
                and np.isfinite(bt.p_ind) and np.isfinite(bt.p_cc))
    elapsed = time.time() - t0
    conclude(9, "30-dim end-to-end pipeline",
             round_trip_ok and tests_ok and elapsed < 600,
             f"max cluster tau err = {max(cluster_errs):.3f}, "
             f"max nesting tau err = {nest_err:.3f}, "
             f"exceedances = {bt.n_exceed}/100, p_uc = {bt.p_uc:.2f}, "
             f"p_ind = {bt.p_ind:.2f}, p_cc = {bt.p_cc:.2f}, {elapsed:.0f}s")
