import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.stats import kendalltau, ks_2samp, kstest

from hierkendall import copulas
from hierkendall.copulas import (
    ArchimedeanCopula,
    GaussianCopula,
    IndependenceCopula,
    StudentTCopula,
    copula_cdf,
    copula_logpdf,
    copula_pdf,
    copula_sample,
    copula_sample_conditional,
    elliptical_corr_from_tau,
    elliptical_tau_from_corr,
    quantile_curve,
)
from hierkendall.errors import (
    DimensionError,
    NoSolutionError,
    ParameterError,
    UnsupportedOrderError,
)
from hierkendall.generators import (
    MAX_DERIVATIVE_ORDER,
    ArchimedeanGenerator,
    generator_derivative_log,
    generator_value,
    theta_from_tau,
)

from oracles import (
    bivariate_t_cdf_quad,
    equicorrelated_normal_cdf_quad,
    inv_deriv_log_mp,
    pdf_mixed_fd_2d,
    trivariate_normal_cdf_quad,
    trivariate_t_cdf_quad,
)

CLAYTON2 = ArchimedeanCopula(ArchimedeanGenerator("clayton", 2.0), 2)
GUMBEL2 = ArchimedeanCopula(ArchimedeanGenerator("gumbel", 2.0), 2)
FRANK5 = ArchimedeanCopula(ArchimedeanGenerator("frank", 5.0), 2)


def corr2(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


ALL_BIVARIATE = [
    IndependenceCopula(2),
    CLAYTON2,
    GUMBEL2,
    FRANK5,
    GaussianCopula(corr2(0.6)),
    StudentTCopula(corr2(0.6), 4.0),
]


class TestCdf:
    def test_clayton_hand_value(self):
        u = [0.2773500981126146, 0.2773500981126146]
        assert copula_cdf(CLAYTON2, u) == pytest.approx(0.2, abs=1e-12)

    def test_independence_product(self):
        assert copula_cdf(IndependenceCopula(3), [0.5, 0.5, 0.5]) == pytest.approx(0.125)

    def test_upper_boundary(self):
        for c in ALL_BIVARIATE:
            assert copula_cdf(c, np.ones(2)) == pytest.approx(1.0, abs=1e-9)

    def test_grounded(self):
        for c in ALL_BIVARIATE:
            assert copula_cdf(c, [0.0, 0.7]) == 0.0

    def test_uniform_margins(self):
        pts = [0.17, 0.42, 0.93]
        kinds = [ArchimedeanCopula(ArchimedeanGenerator("gumbel", 3.0), 3),
                 GaussianCopula(np.array([[1, .5, .3], [.5, 1, .2], [.3, .2, 1.]])),
                 StudentTCopula(np.array([[1, .5, .3], [.5, 1, .2], [.3, .2, 1.]]), 5.0)]
        for c in kinds:
            for p in pts:
                point = np.ones(3)
                point[1] = p
                assert copula_cdf(c, point) == pytest.approx(p, abs=1e-7)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            copula_cdf(CLAYTON2, [0.5, 0.5, 0.5])

    def test_frechet_bounds_random_grid(self):
        rng = np.random.default_rng(31)
        u = rng.random((200, 2))
        for c in ALL_BIVARIATE:
            vals = copula_cdf(c, u)
            lower = np.maximum(u.sum(axis=1) - 1.0, 0.0)
            upper = u.min(axis=1)
            assert np.all(vals >= lower - 1e-7)
            assert np.all(vals <= upper + 1e-7)

    def test_frechet_bounds_higher_dim(self):
        rng = np.random.default_rng(32)
        u = rng.random((25, 4))
        corr = np.array([[1, .4, .3, .2], [.4, 1, .25, .15],
                         [.3, .25, 1, .1], [.2, .15, .1, 1.]])
        for c in (GaussianCopula(corr), StudentTCopula(corr, 6.0),
                  ArchimedeanCopula(ArchimedeanGenerator("frank", 3.0), 4)):
            vals = copula_cdf(c, u)
            lower = np.maximum(u.sum(axis=1) - 3.0, 0.0)
            upper = u.min(axis=1)
            assert np.all(vals >= lower - 1e-5)
            assert np.all(vals <= upper + 1e-5)


class TestPdf:
    def test_independence_is_one(self):
        rng = np.random.default_rng(0)
        u = rng.random((20, 4))
        np.testing.assert_allclose(copula_pdf(IndependenceCopula(4), u), 1.0)

    def test_gaussian_zero_corr_is_one(self):
        assert copula_pdf(GaussianCopula(np.eye(2)), [0.3, 0.7]) == pytest.approx(1.0)

    def test_clayton_matches_fd_of_cdf(self):
        fd = pdf_mixed_fd_2d(CLAYTON2, 0.5, 0.5)
        assert copula_pdf(CLAYTON2, [0.5, 0.5]) == pytest.approx(fd, abs=1e-4)

    def test_frank_closed_form_oracle(self):
        # bivariate frank density in its textbook parameterization
        th = 5.0
        for u, v in [(0.2, 0.7), (0.5, 0.5), (0.9, 0.1)]:
            num = th * (1 - np.exp(-th)) * np.exp(-th * (u + v))
            den = ((1 - np.exp(-th))
                   - (1 - np.exp(-th * u)) * (1 - np.exp(-th * v))) ** 2
            assert copula_pdf(FRANK5, [u, v]) == pytest.approx(num / den, rel=1e-9)

    @pytest.mark.parametrize("c", ALL_BIVARIATE)
    def test_cdf_pdf_consistency_grid(self, c):
        grid = [0.25, 0.5, 0.75]
        for u1 in grid:
            for u2 in grid:
                fd = pdf_mixed_fd_2d(c, u1, u2)
                assert copula_pdf(c, [u1, u2]) == pytest.approx(fd, abs=1e-3)

    def test_gumbel_log_density_near_upper_corner(self):
        # (phi^-1)^(d) at s = d phi(1 - 1e-9) ~ 1e-59 is formed in log space
        g = theta_from_tau("gumbel", 0.85)
        u = np.full(10, 1.0 - 1e-9)
        s = float(np.sum(generator_value(g, u)))
        ref = inv_deriv_log_mp("gumbel", g.theta, s, 10)[0] + float(
            np.sum(generator_derivative_log(g, u)))
        got = copula_logpdf(ArchimedeanCopula(g, 10), u)
        assert np.isfinite(got) and got == pytest.approx(ref, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        u = rng.random((100, 2))
        for c in ALL_BIVARIATE:
            assert np.all(copula_pdf(c, u) >= 0.0)


class TestSampling:
    def test_reproducible(self):
        for c in ALL_BIVARIATE:
            a = copula_sample(c, 50, np.random.default_rng(8))
            b = copula_sample(c, 50, np.random.default_rng(8))
            np.testing.assert_array_equal(a, b)

    def test_independence_tau_zero(self):
        u = copula_sample(IndependenceCopula(2), 10_000, np.random.default_rng(1))
        assert abs(kendalltau(u[:, 0], u[:, 1]).statistic) < 0.02

    def test_clayton_tau(self):
        u = copula_sample(CLAYTON2, 10_000, np.random.default_rng(2))
        assert kendalltau(u[:, 0], u[:, 1]).statistic == pytest.approx(0.5, abs=0.02)

    def test_student_t_tau(self):
        c = StudentTCopula(corr2(0.5), 4.0)
        u = copula_sample(c, 10_000, np.random.default_rng(3))
        assert kendalltau(u[:, 0], u[:, 1]).statistic == pytest.approx(
            2.0 / np.pi * np.arcsin(0.5), abs=0.02)

    def test_frank_tau_mc_cross_check(self):
        # sampled pairs agree with the Debye-based conversion at theta = 5
        u = copula_sample(FRANK5, 100_000, np.random.default_rng(6))
        assert kendalltau(u[:, 0], u[:, 1]).statistic == pytest.approx(
            0.4567009581601168, abs=0.01)

    def test_margin_uniformity_pass_rate(self):
        # each coordinate passes a KS test at level 0.01 in >= 95% of runs
        for c in (CLAYTON2, FRANK5, GaussianCopula(corr2(0.5)),
                  StudentTCopula(corr2(0.5), 4.0)):
            passes = 0
            for seed in range(100):
                u = copula_sample(c, 400, np.random.default_rng(seed))
                ok = all(kstest(u[:, j], "uniform").pvalue > 0.01 for j in range(2))
                passes += ok
            assert passes >= 95, type(c).__name__

    def test_range_strictly_inside(self):
        for c in ALL_BIVARIATE:
            u = copula_sample(c, 2000, np.random.default_rng(9))
            assert np.all((u > 0.0) & (u < 1.0))


class TestQuantileCurve:
    def test_clayton_hand_value(self):
        got = quantile_curve(CLAYTON2, [0.2773500981126146], 0.2)
        assert got == pytest.approx(0.2773500981126146, abs=1e-10)

    def test_empty_prefix_identity(self):
        assert quantile_curve(FRANK5, [], 0.37) == 0.37

    def test_gaussian_independence(self):
        assert quantile_curve(GaussianCopula(np.eye(2)), [0.5], 0.25) == pytest.approx(
            0.5, abs=1e-9)

    def test_no_solution(self):
        with pytest.raises(NoSolutionError):
            quantile_curve(CLAYTON2, [0.3], 0.5)  # z >= C(0.3, 1) = 0.3

    @settings(max_examples=60, deadline=None)
    @given(
        prefix=st.floats(min_value=0.15, max_value=0.95),
        frac=st.floats(min_value=0.05, max_value=0.95),
        kind=st.sampled_from(["clayton", "gumbel", "frank", "gaussian", "student_t"]),
    )
    def test_round_trip(self, prefix, frac, kind):
        if kind == "gaussian":
            c = GaussianCopula(corr2(0.5))
        elif kind == "student_t":
            c = StudentTCopula(corr2(0.5), 5.0)
        else:
            c = ArchimedeanCopula(theta_from_tau(kind, 0.5), 2)
        ceiling = copula_cdf(c, [prefix, 1.0])
        z = frac * ceiling
        if z <= 1e-6:
            return
        u_last = quantile_curve(c, [prefix], z)
        tol = 1e-10 if kind in ("clayton", "gumbel", "frank") else 1e-7
        assert copula_cdf(c, [prefix, u_last]) == pytest.approx(z, abs=tol)


class TestConditionalSampling:
    def test_matches_slab_restriction(self):
        c = ArchimedeanCopula(ArchimedeanGenerator("gumbel", 2.5), 3)
        big = copula_sample(c, 200_000, np.random.default_rng(3))
        slab = big[np.abs(big[:, 1] - 0.35) < 0.005]
        cond = copula_sample_conditional(c, 1, 0.35, len(slab), np.random.default_rng(4))
        assert ks_2samp(slab[:, 0], cond[:, 0]).pvalue > 0.01
        assert ks_2samp(slab[:, 2], cond[:, 2]).pvalue > 0.01

    def test_fixed_coordinate_constant(self):
        c = GaussianCopula(corr2(0.4))
        out = copula_sample_conditional(c, 0, 0.25, 100, np.random.default_rng(5))
        assert np.all(out[:, 0] == 0.25)


CORR3 = np.array([[1.0, 0.5, 0.3], [0.5, 1.0, 0.6], [0.3, 0.6, 1.0]])


def elliptical(kind, corr):
    return GaussianCopula(corr) if kind == "gaussian" else StudentTCopula(corr, 5.0)


class TestEllipticalPath:
    """One batched path: boundary reduction, grouping, fixed seeds, the rule built once."""

    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_rows_reduce_to_their_active_coordinates(self, kind, d):
        rng = np.random.default_rng(41)
        rows = [rng.random(d) for _ in range(4)]
        for one in range(d):
            rows.append(rng.random(d))
            rows[-1][one] = 1.0
            rows.append(np.ones(d))
            rows[-1][one] = rng.random()  # every other coordinate at 1
        zero = rng.random(d)
        zero[d - 1] = 0.0
        rows += [zero, np.ones(d), rng.random(d)]
        batch = np.array(rows)
        got = copula_cdf(elliptical(kind, CORR3[:d, :d]), batch)
        for row, value in zip(batch, got):
            active = np.flatnonzero(row < 1.0)
            if np.any(row <= 0.0):
                want = 0.0
            elif active.size == 0:
                want = 1.0
            else:
                sub = elliptical(kind, CORR3[np.ix_(active, active)])
                want = copula_cdf(sub, row[active])
            assert value == pytest.approx(want, abs=1e-15), row

    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_scipy(self, kind, d):
        u = np.array([[0.3, 0.6, 0.8], [0.05, 0.9, 0.5], [0.99, 0.995, 0.2],
                      [1e-6, 0.5, 0.5]])[:, :d]
        corr = CORR3[:d, :d]
        got = copula_cdf(elliptical(kind, corr), u)
        if kind == "gaussian":
            want = [stats.multivariate_normal.cdf(
                x, cov=corr, abseps=1e-10, releps=0.0, rng=np.random.default_rng(0))
                for x in special.ndtri(u)]
            # scipy's own error at abseps 1e-10: 1e-16 at d = 2 and up to 2.6e-9
            # (row 1) at d = 3, where TestGaussianKernels checks 1e-12 on an oracle
            tol = 1e-12 if d == 2 else 1e-8
        else:
            want = [stats.multivariate_t(shape=corr, df=5.0).cdf(
                x, maxpts=200_000, random_state=np.random.default_rng(0))
                for x in stats.t.ppf(u, df=5.0)]
            tol = 2e-5  # scipy's randomised QMC error at this maxpts
        assert got == pytest.approx(want, abs=tol)

    def test_boundary_row_leaves_interior_rows_batched(self, monkeypatch):
        calls = []
        real = copulas._gauss_cdf_2d

        def counting(a, b, rho):
            calls.append(np.shape(a))
            return real(a, b, rho)

        monkeypatch.setattr(copulas, "_gauss_cdf_2d", counting)
        u = np.random.default_rng(42).random((4096, 2))
        u[1000, 1] = 1.0
        out = copula_cdf(GaussianCopula(corr2(0.5)), u)
        assert calls == [(4095,)]
        assert out[1000] == u[1000, 0]

    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    def test_high_dim_fallback_is_deterministic(self, kind):
        corr = np.full((5, 5), 0.4)
        np.fill_diagonal(corr, 1.0)
        c = elliptical(kind, corr)
        u = np.array([[0.3, 0.6, 0.5, 0.7, 0.4], [0.3, 0.6, 0.5, 0.7, 0.4],
                      [0.2, 0.9, 0.8, 0.6, 0.5]])
        first = copula_cdf(c, u)
        assert np.array_equal(first, copula_cdf(c, u))
        assert first[0] == first[1]

    @pytest.mark.parametrize("kind", ["gaussian", "student_t"])
    def test_high_dim_fallback_matches_monte_carlo(self, kind):
        corr = np.full((5, 5), 0.4)
        np.fill_diagonal(corr, 1.0)
        u = np.array([0.3, 0.6, 0.5, 0.7, 0.4])
        # independent oracle: plain Monte Carlo of the box below the quantiles
        rng = np.random.default_rng(123)
        z = rng.standard_normal((400_000, 5)) @ np.linalg.cholesky(corr).T
        if kind == "gaussian":
            x = special.ndtri(u)
        else:
            z /= np.sqrt(rng.chisquare(5.0, 400_000) / 5.0)[:, None]
            x = stats.t.ppf(u, 5.0)
        mc = float(np.mean(np.all(z <= x, axis=1)))
        assert copula_cdf(elliptical(kind, corr), u) == pytest.approx(mc, abs=0.005)

    @pytest.mark.parametrize("df", [2.5, 5.0, 6.0, 30.0])
    def test_t_special_functions_equal_stats_t(self, df):
        rng = np.random.default_rng(43)
        p = np.concatenate([rng.random(20_000), 10.0 ** rng.uniform(-300, 0, 20_000),
                            1.0 - 10.0 ** rng.uniform(-16, 0, 20_000)])
        x = stats.t.ppf(p, df=df)
        assert np.array_equal(special.stdtrit(df, p), x)
        assert np.array_equal(special.stdtr(df, x), stats.t.cdf(x, df=df))

    def test_quadrature_rule_is_not_rebuilt_per_call(self, monkeypatch):
        def refuse(_):
            raise AssertionError("Gauss-Legendre rule rebuilt inside a call")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", refuse)
        u = np.array([[0.3, 0.6, 0.8], [0.7, 1.0, 0.4]])
        for kind in ("gaussian", "student_t"):
            for d in (2, 3):
                c = elliptical(kind, CORR3[:d, :d])
                copula_cdf(c, u[:, :d])
                copula_logpdf(c, u[:1, :d])
        quantile_curve(GaussianCopula(CORR3), [0.4], 0.2)


class TestGaussianKernels:
    """Genz's bivariate and trivariate normal rules against independent oracles."""

    # u down to 1e-12 on every side, plus interior points
    U_EDGE = [1e-12, 1e-6, 0.05, 0.3, 0.5, 0.8, 0.995, 1.0 - 1e-12]

    def test_twenty_node_rule_is_gauss_legendre(self):
        x, w = np.polynomial.legendre.leggauss(20)
        order = np.argsort(copulas._GL20_NODES)
        np.testing.assert_allclose(copulas._GL20_NODES[order], 0.5 * (x + 1.0),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(copulas._GL20_WEIGHTS[order], 0.5 * w, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("rho", [-0.999, -0.99, -0.95, -0.925, -0.9, -0.6, -0.3, 0.0,
                                     0.3, 0.6, 0.9, 0.925, 0.95, 0.99, 0.999])
    def test_bivariate_matches_scipy(self, rho):
        u = np.array([(a, b) for a in self.U_EDGE for b in self.U_EDGE])
        got = copula_cdf(GaussianCopula(corr2(rho)), u)
        want = [stats.multivariate_normal.cdf(
            x, cov=corr2(rho), abseps=1e-12, releps=0.0, rng=np.random.default_rng(0))
            for x in special.ndtri(u)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    CORRS3 = {
        "moderate": CORR3,
        "signs": [[1.0, -0.5, 0.3], [-0.5, 1.0, -0.6], [0.3, -0.6, 1.0]],
        "strong": [[1.0, 0.99, 0.98], [0.99, 1.0, 0.99], [0.98, 0.99, 1.0]],
        "pair_0.999": [[1.0, 0.5, 0.5], [0.5, 1.0, 0.999], [0.5, 0.999, 1.0]],
        "pair_-0.999": [[1.0, 0.3, -0.3], [0.3, 1.0, -0.999], [-0.3, -0.999, 1.0]],
        # smallest eigenvalue 2.7e-4: the integrand's singularity sits near t = 1
        "near_singular": [[1.0, 0.6, 0.8], [0.6, 1.0, 0.9597], [0.8, 0.9597, 1.0]],
    }

    @pytest.mark.parametrize("name", list(CORRS3))
    def test_trivariate_matches_quadrature_oracle(self, name):
        corr = np.array(self.CORRS3[name])
        u = np.array([[0.3, 0.6, 0.8], [0.05, 0.9, 0.5], [0.99, 0.995, 0.2],
                      [1e-12, 0.5, 0.7], [0.5, 1.0 - 1e-12, 1e-6], [0.01, 0.02, 0.03],
                      [1e-12, 1e-12, 1e-12], [0.999, 0.999, 0.999], [0.5, 0.5, 0.5]])
        got = copula_cdf(GaussianCopula(corr), u)
        want = [trivariate_normal_cdf_quad(x, corr) for x in special.ndtri(u)]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)

    # just above _check_corr's floor on the smallest eigenvalue (1e-10), where
    # det R ~ 1e-19 is far below the rounding of 1 - r23^2 - q
    @pytest.mark.parametrize("r", [1.0 - 2e-10, 1.0 - 1e-9])
    def test_trivariate_at_the_eigenvalue_floor(self, r):
        corr = np.full((3, 3), r)
        np.fill_diagonal(corr, 1.0)
        u = np.array([(a, a, a) for a in self.U_EDGE]
                     + [[0.3, 0.6, 0.8], [0.99, 0.995, 0.2], [0.3, 0.3000001, 0.3]])
        got = copula_cdf(GaussianCopula(corr), u)
        assert np.all(np.isfinite(got))
        want = [equicorrelated_normal_cdf_quad(x, r) for x in special.ndtri(u)]
        # the cofactors in the conditional mean cancel to ~1e-16 against a
        # det R of 1e-19, which bounds the accuracy near t = 1 here
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)
        orthant = 0.125 + 3.0 * np.arcsin(r) / (4.0 * np.pi)  # at u = (1/2, 1/2, 1/2)
        assert got[4] == pytest.approx(orthant, abs=1e-13)

    def test_trivariate_near_singular_random_is_finite_and_bounded(self):
        rng = np.random.default_rng(46)
        checked = 0
        while checked < 100:
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            lam = np.concatenate([10.0 ** rng.uniform(-10, -4, 1), rng.uniform(0.0, 3.0, 2)])
            cov = q @ np.diag(lam) @ q.T
            sd = np.sqrt(np.diag(cov))
            corr = cov / np.outer(sd, sd)
            np.fill_diagonal(corr, 1.0)
            try:
                c = GaussianCopula(0.5 * (corr + corr.T))
            except ParameterError:
                continue
            checked += 1
            u = np.vstack([rng.random((5, 3)), 10.0 ** rng.uniform(-12, 0, (5, 3))])
            got = copula_cdf(c, u)
            assert np.all(np.isfinite(got))
            assert np.all(got >= np.maximum(u.sum(axis=1) - 2.0, 0.0) - 1e-12)
            assert np.all(got <= u.min(axis=1) + 1e-12)

    def test_one_trivariate_call_per_batch(self, monkeypatch):
        calls = []
        real = copulas._gauss_cdf_3d

        def counting(x, corr):
            calls.append(x.shape)
            return real(x, corr)

        monkeypatch.setattr(copulas, "_gauss_cdf_3d", counting)
        block = copulas._BLOCK_POINTS // 20  # rows per block at one panel of 20 nodes
        u = np.random.default_rng(44).random((2 * block + 5, 3))
        out = copula_cdf(GaussianCopula(CORR3), u)
        assert calls == [u.shape]
        for r in (0, block, u.shape[0] - 1):  # rows of every block
            assert out[r] == pytest.approx(real(special.ndtri(u[r:r + 1]), CORR3)[0],
                                           abs=1e-15)

    @pytest.mark.parametrize("d", [2, 3])
    def test_repeated_calls_are_bit_equal(self, d):
        corr = np.array(self.CORRS3["strong"])[:d, :d]
        u = np.random.default_rng(45).random((500, d))
        c = GaussianCopula(corr)
        assert np.array_equal(copula_cdf(c, u), copula_cdf(c, u))


class TestStudentTKernels:
    """The bivariate t rule and the trivariate t quadrature against normal
    scale mixtures, and the bivariate rule's structural properties."""

    NUS = [2.01, 2.05, 2.5, 3.0, 4.3, 5.0, 6.3, 10.0, 37.7, 200.0, 1000.0]
    NUS_BELOW_TWO = [0.5, 1.0, 1.5]  # outside the copula's nu > 2, inside the rule's nu > 0
    RHOS = [float(r) for r in np.linspace(-0.999, 0.999, 21)] + [-(1.0 - 1e-10), 1.0 - 1e-10]
    U_CORNERS = [1e-12, 0.5, 1.0 - 1e-12]

    @pytest.mark.parametrize("nu", NUS + NUS_BELOW_TWO)
    def test_bivariate_matches_mixture_oracle(self, nu):
        u = np.array([(a, b) for a in self.U_CORNERS for b in self.U_CORNERS])
        x = special.stdtrit(nu, u)
        want = bivariate_t_cdf_quad(x[:, 0], x[:, 1], self.RHOS, nu)
        for rho, row in zip(self.RHOS, want):
            got = copulas._t_cdf_2d(x[:, 0], x[:, 1], rho, nu, u[:, 0], u[:, 1])
            np.testing.assert_allclose(got, row, rtol=0, atol=1e-10, err_msg=f"rho={rho}")

    def test_bivariate_regression_strong_negative_correlation(self):
        # the 96-node rule in the marginal probability that this rule
        # replaced was off by 1.5e-4 here
        u = np.array([[0.947, 0.962]])
        x = special.stdtrit(2.5, u)
        want = bivariate_t_cdf_quad(x[:, 0], x[:, 1], [-0.999], 2.5)[0, 0]
        assert copula_cdf(StudentTCopula(corr2(-0.999), 2.5), u)[0] == pytest.approx(
            want, abs=1e-10)

    @staticmethod
    def cdf(u, rho, nu):
        u = np.asarray(u, dtype=float)
        x = special.stdtrit(nu, u)
        return copulas._t_cdf_2d(x[..., 0], x[..., 1], rho, nu, u[..., 0], u[..., 1])

    PROPERTY = dict(
        nu=st.floats(min_value=0.5, max_value=1000.0),
        rho=st.floats(min_value=-0.999, max_value=0.999),
        u=st.tuples(st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
                    st.floats(min_value=1e-9, max_value=1.0 - 1e-9)),
    )

    @settings(max_examples=150, deadline=None)
    @given(**PROPERTY)
    def test_bivariate_symmetric_in_its_arguments(self, nu, rho, u):
        assert self.cdf(u, rho, nu) == pytest.approx(self.cdf(u[::-1], rho, nu), abs=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(**PROPERTY)
    def test_bivariate_within_frechet_bounds(self, nu, rho, u):
        p = self.cdf(u, rho, nu)
        assert max(u[0] + u[1] - 1.0, 0.0) - 1e-13 <= p <= min(u) + 1e-13

    @settings(max_examples=150, deadline=None)
    @given(rho2=st.floats(min_value=-0.999, max_value=0.999), **PROPERTY)
    def test_bivariate_monotone_in_rho(self, nu, rho, rho2, u):
        lo, hi = sorted((rho, rho2))
        assert self.cdf(u, lo, nu) <= self.cdf(u, hi, nu) + 1e-13

    @settings(max_examples=150, deadline=None)
    @given(**PROPERTY)
    def test_bivariate_tends_to_margin(self, nu, rho, u):
        # 0 <= F(h) - P(T1 <= h, T2 <= k) <= 1 - F(k), which vanishes as k -> inf
        h = float(special.stdtrit(nu, u[0]))
        for k in (1e3, 1e8):
            fk = float(special.stdtr(nu, k))
            gap = u[0] - copulas._t_cdf_2d(h, k, rho, nu, u[0], fk)
            assert -1e-13 <= gap <= 1.0 - fk + 1e-13

    def test_trivariate_batch_equals_one_row_calls(self, monkeypatch):
        calls = []
        real = copulas._t_cdf_3d

        def counting(x, corr, nu):
            calls.append(x.shape)
            return real(x, corr, nu)

        monkeypatch.setattr(copulas, "_t_cdf_3d", counting)
        block = copulas._BLOCK_POINTS // copulas._GL_NODES.size  # rows per block
        u = np.random.default_rng(47).random((block + 5, 3))
        c = StudentTCopula(CORR3, 5.0)
        out = copula_cdf(c, u)
        assert calls == [u.shape]
        for r in (0, 1, block - 1, block, u.shape[0] - 1):  # rows of both blocks
            assert out[r] == pytest.approx(copula_cdf(c, u[r]), abs=1e-15)

    @pytest.mark.parametrize("nu", [2.5, 5.0, 30.0])
    @pytest.mark.parametrize("name", ["moderate", "signs", "strong"])
    def test_trivariate_matches_mixture_oracle(self, name, nu):
        corr = np.array(TestGaussianKernels.CORRS3[name])
        u = np.array([[0.3, 0.6, 0.8], [0.05, 0.9, 0.5], [0.99, 0.995, 0.2],
                      [1e-6, 0.5, 0.7], [0.01, 0.02, 0.03], [0.5, 0.5, 0.5],
                      [0.999, 0.999, 0.999]])
        want = trivariate_t_cdf_quad(special.stdtrit(nu, u), corr, nu)
        got = copula_cdf(StudentTCopula(corr, nu), u)
        # the outer 96-node rule in F(x1) bounds the accuracy
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5, err_msg=name)


class TestValidation:
    def test_correlation_must_be_pd(self):
        with pytest.raises(ParameterError):
            GaussianCopula(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_nu_must_exceed_two(self):
        with pytest.raises(ParameterError):
            StudentTCopula(corr2(0.3), 2.0)

    def test_negative_frank_needs_bivariate(self):
        with pytest.raises(ParameterError):
            ArchimedeanCopula(ArchimedeanGenerator("frank", -2.0), 3)

    def test_dimension_capped_at_derivative_order(self):
        g = theta_from_tau("clayton", 0.4)
        with pytest.raises(UnsupportedOrderError):
            ArchimedeanCopula(g, MAX_DERIVATIVE_ORDER + 1)
        c = ArchimedeanCopula(g, MAX_DERIVATIVE_ORDER)
        u = np.full((2, MAX_DERIVATIVE_ORDER), 0.9)
        assert np.all(np.isfinite(copula_logpdf(c, u)))
        assert np.all((copula_cdf(c, u) > 0.0) & (copula_cdf(c, u) < 1.0))
        assert copula_sample(c, 5, np.random.default_rng(0)).shape == (5, MAX_DERIVATIVE_ORDER)

    def test_tau_corr_identities(self):
        assert elliptical_corr_from_tau(1.0 / 3.0) == pytest.approx(0.5)
        assert elliptical_tau_from_corr(0.5) == pytest.approx(1.0 / 3.0)
