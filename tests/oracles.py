"""Independent numerical oracles used by the test suite.

These deliberately avoid the package's closed forms: Kendall functions
are cross-checked against a bivariate quadrature of the recursive
integral, and densities against finite differences of the CDF. The
Kendall inverse is checked against a bracketing root finder on K, which
avoids the package's solver rather than K itself. Inverse-generator
derivatives are checked in 80-digit arithmetic against each family's own
closed form (rising factorials, polylogarithms, and for Gumbel the complete
Bell polynomial form of the chain rule). The trivariate normal CDF is checked
against adaptive quadrature over the first coordinate of scipy's bivariate
normal CDF, and at equicorrelated, nearly singular correlations against
adaptive quadrature of its one-factor representation. The bivariate and
trivariate t CDFs are checked against adaptive quadrature of their normal
scale mixtures over the chi-square law of the mixing variable. One-parameter
maximum-likelihood fits are checked against a dense grid search refined
locally, and joint fits against Nelder-Mead on freshly built models and
against scipy's own finite-difference L-BFGS-B without a memo. The
rejection sampler's batch assignment is checked against a reference copy of
its loop.
"""

import dataclasses
import warnings

import mpmath
import numpy as np
from scipy import integrate, special, stats
from scipy.optimize import brentq, minimize

from hierkendall.copulas import (
    _gauss_cdf_2d,
    _gauss_cdf_3d,
    copula_cdf,
    copula_sample,
    quantile_curve,
)
from hierkendall.errors import RejectionCapError
from hierkendall.kendall import kendall_cdf
from hierkendall.levelset import _REJECTION_CHUNK


def cdf_partial_u1(copula, u1, u2, h=1e-6):
    """d/du1 C(u1, u2) by central finite differences."""
    return (copula_cdf(copula, [u1 + h, u2]) - copula_cdf(copula, [u1 - h, u2])) / (2 * h)


def kendall_cdf_quadrature_2d(copula, t, nodes=96):
    """K(t) for a bivariate copula by the recursive-integral representation:

        K(t) = t + int_t^1 d/du1 C(u1, C^-1_{u1}(t)) du1,

    with the copula quantile function supplying the inner limit. The
    integrand is smooth on (t, 1), so fixed Gauss-Legendre suffices.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    lo, hi = t + 1e-9, 1.0 - 1e-9
    u1s = 0.5 * (hi - lo) * (x + 1.0) + lo
    vals = np.empty(nodes)
    for i, u1 in enumerate(u1s):
        u2 = quantile_curve(copula, [u1], t)
        vals[i] = cdf_partial_u1(copula, u1, u2)
    return t + 0.5 * (hi - lo) * float(w @ vals)


def kendall_inverse_brentq(K, p):
    """K^-1(p) point by point: Brent's method on ``kendall_cdf`` over t.

    Shares only K itself with the package's inverse, which solves in
    log phi(t) by Newton; the bracket (1e-300, p] uses K(t) >= t.
    """
    return np.array([brentq(lambda t: kendall_cdf(K, t) - q, 1e-300, q,
                            xtol=1e-300, rtol=8.9e-16, maxiter=500)
                     for q in np.atleast_1d(p)])


def inv_deriv_log_mp(family, theta, s, k):
    """(log |(phi^-1)^(k)(s)|, its sign) in 80-digit arithmetic, k >= 1.

    Each family uses its own closed form, none of the package's recurrences:
    independence (-1)^k e^-s; Clayton (-1)^k (1/theta)_k (1+s)^(-1/theta-k)
    with the rising factorial; Frank (-1)^k Li_{1-k}(y) / theta with
    y = (1 - e^-theta) e^-s, since phi^-1(s) = Li_1(y) / theta and each
    derivative in s lowers the polylogarithm's order; Gumbel, phi^-1 = e^g
    with g = -s^a, a = 1/theta, by d^k/ds^k e^g = e^g B_k(g', ..., g^(k)),
    with the complete Bell polynomials from
    B_{n+1} = sum_i C(n, i) B_{n-i} g^(i+1) and the exact derivatives
    g^(m)(s) = -a (a-1) ... (a-m+1) s^(a-m).
    """
    with mpmath.workdps(80):
        th, s = mpmath.mpf(theta), mpmath.mpf(s)
        if family == "independence":
            val = (-1) ** k * mpmath.exp(-s)
        elif family == "clayton":
            val = (-1) ** k * mpmath.rf(1 / th, k) * (1 + s) ** (-1 / th - k)
        elif family == "frank":
            val = (-1) ** k * mpmath.polylog(1 - k, -mpmath.expm1(-th) * mpmath.exp(-s)) / th
        else:
            a = 1 / th
            dg = [None] + [-mpmath.ff(a, m) * s ** (a - m) for m in range(1, k + 1)]
            bell = [mpmath.mpf(1)]
            for n in range(k):
                bell.append(mpmath.fsum(mpmath.binomial(n, i) * bell[n - i] * dg[i + 1]
                                        for i in range(n + 1)))
            val = bell[k] * mpmath.exp(-s ** a)
        return float(mpmath.log(abs(val))), int(mpmath.sign(val))


def pdf_mixed_fd_2d(copula, u1, u2, h=1e-4):
    """c(u1, u2) as the mixed second difference of the CDF."""
    return (copula_cdf(copula, [u1 + h, u2 + h])
            - copula_cdf(copula, [u1 + h, u2 - h])
            - copula_cdf(copula, [u1 - h, u2 + h])
            + copula_cdf(copula, [u1 - h, u2 - h])) / (4.0 * h * h)


def trivariate_normal_cdf_quad(b, corr):
    """P(X <= b) for a standard trivariate normal with correlation ``corr``:

        int_{-inf}^{b1} phi(x) Phi2((b2 - r12 x)/s2, (b3 - r13 x)/s3; rc) dx,

    the conditional law of (X2, X3) given X1 = x, by adaptive quadrature
    (epsabs 1e-14) of scipy's bivariate normal CDF (abseps 1e-14). quad's
    warning that 1e-14 is below its rounding floor is silenced: the
    comparison itself is the check.
    """
    r12, r13, r23 = corr[0][1], corr[0][2], corr[1][2]
    s2, s3 = np.sqrt(1.0 - r12 * r12), np.sqrt(1.0 - r13 * r13)
    rc = (r23 - r12 * r13) / (s2 * s3)
    inner = stats.multivariate_normal(cov=[[1.0, rc], [rc, 1.0]], abseps=1e-14, releps=0.0,
                                      seed=0)

    def integrand(x):
        return stats.norm.pdf(x) * inner.cdf([(b[1] - r12 * x) / s2, (b[2] - r13 * x) / s3])

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(integrand, -np.inf, b[0], epsabs=1e-14, epsrel=0.0,
                              limit=200)[0]


def equicorrelated_normal_cdf_quad(b, r):
    """P(X <= b) for a standard normal vector with every correlation r > 0.

    With X_i = sqrt(r) Z + sqrt(1 - r) E_i for independent standard normal
    Z and E_i, this is int phi(z) prod_i Phi((b_i - sqrt(r) z) / sqrt(1 - r)) dz.
    The factors step from 1 to 0 over a width sqrt((1 - r) / r) about each
    b_i / sqrt(r), so the range is cut at multiples of that width around
    each step and every piece is integrated adaptively: accurate to about
    1e-16 even when 1 - r is 1e-10, where R is all but singular.
    """
    b = np.asarray(b, dtype=float)
    a, s = np.sqrt(r), np.sqrt(1.0 - r)
    steps = (s / a) * np.array([-1e3, -100.0, -30.0, -10.0, -3.0, -1.0, 0.0,
                                1.0, 3.0, 10.0, 30.0, 100.0, 1e3])
    cuts = np.unique(np.clip((b / a)[:, None] + steps, -39.0, 39.0))
    edges = np.concatenate([[-40.0], cuts, [40.0]])

    def integrand(z):
        return stats.norm.pdf(z) * np.prod(stats.norm.cdf((b - a * z) / s))

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return sum(integrate.quad(integrand, lo, hi, epsabs=1e-16, epsrel=1e-14, limit=500)[0]
                   for lo, hi in zip(edges[:-1], edges[1:]))


def grid_maximum(f, lo, hi, points=201, zoom_points=21, xtol=1e-9):
    """max f(x) over x in [lo, hi] and where it is attained, as (x, f(x)).

    f is tabulated on ``points`` equispaced values; then, until the cells
    around the best value are narrower than ``xtol``, on ``zoom_points``
    values spanning the two cells next to it. A non-finite f(x) counts as
    -inf. The best value of every round is kept, so an optimum on an
    interval end is found as well as an interior one.
    """
    xs = np.linspace(lo, hi, points)
    best = (np.nan, -np.inf)
    while True:
        vals = np.array([f(x) for x in xs], dtype=float)
        vals[~np.isfinite(vals)] = -np.inf
        i = int(np.argmax(vals))
        if vals[i] > best[1]:
            best = (float(xs[i]), float(vals[i]))
        a, b = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
        if b - a < xtol:
            return best
        xs = np.linspace(a, b, zoom_points)


def joint_loglik_nelder_mead(spec, u, start, pinned=()):
    """Maximum joint log-likelihood of the Archimedean tree ``spec`` (a
    ``NodeSpec`` template without parameters) on the data ``u``, with the
    nodes named in ``pinned`` held at their ``start`` thetas.

    Nelder-Mead with tight tolerances, restarted from its own result, runs
    from the thetas ``start`` (node name -> theta) over log theta (Clayton),
    log(theta - 1) (Gumbel) and theta (Frank). Every evaluation builds the
    whole model with ``build_model`` and sums ``model_loglik``: no memo,
    no reuse of node objects.
    """
    from hierkendall.estimation import build_model
    from hierkendall.hierarchical import model_loglik

    def nodes(node):
        yield node
        for ch in node.children or ():
            yield from nodes(ch)

    free = [(nd.name, nd.family) for nd in nodes(spec) if nd.dim > 1 and nd.name not in pinned]
    to_eta = {"clayton": np.log, "gumbel": lambda t: np.log(t - 1.0), "frank": float}
    to_theta = {"clayton": np.exp, "gumbel": lambda e: 1.0 + np.exp(e), "frank": float}

    def with_thetas(node, thetas):
        kids = node.children and tuple(with_thetas(ch, thetas) for ch in node.children)
        params = {"theta": thetas[node.name]} if node.name in thetas else None
        return dataclasses.replace(node, children=kids, params=params)

    def thetas_at(eta):
        return {**{name: start[name] for name in pinned},
                **{name: float(to_theta[fam](e)) for (name, fam), e in zip(free, eta)}}

    def neg_ll(eta):
        try:
            model = build_model(with_thetas(spec, thetas_at(eta)), u.shape[1],
                                kendall_mode="closed_form")
            val = model_loglik(model, u).value
        except (ValueError, ArithmeticError):
            return np.inf
        return -val if np.isfinite(val) else np.inf

    eta = np.array([to_eta[fam](start[name]) for name, fam in free])
    for _ in range(2):
        res = minimize(neg_ll, eta, method="Nelder-Mead",
                       options=dict(xatol=1e-10, fatol=1e-12, maxfev=20_000))
        eta = res.x
    return -float(res.fun)


def joint_mle_scipy_gradient(report, u, max_evals=5000):
    """The joint MLE search from the two-step fit ``report`` with scipy's own
    two-point gradient: bounded L-BFGS-B without ``jac`` (absolute step
    1e-8) on the penalised negative ``model_loglik`` of a model rebuilt from
    the two-step model at every evaluation, with no memo. Like
    ``fit_joint_mle`` it keeps the start when the search ends below the
    two-step log-likelihood. Returns (log-likelihood, model at the kept point,
    L-BFGS-B message, likelihood evaluations).
    """
    from hierkendall.estimation import _PENALTY, _collect_free_params, _rebuild_with_eta
    from hierkendall.hierarchical import model_loglik

    model = report.model
    free = _collect_free_params(model, False)

    def neg_ll(eta):
        try:
            val = model_loglik(_rebuild_with_eta(model, free, eta), u).value
        except (ValueError, ArithmeticError):
            return _PENALTY
        return -val if np.isfinite(val) else _PENALTY

    eta0 = np.array([eta for *_, eta in free])
    res = minimize(neg_ll, eta0, method="L-BFGS-B", bounds=[b for _, _, b, _ in free],
                   options=dict(maxfun=max_evals, ftol=1e-14))
    kept = res.x if res.fun <= -report.loglik_two_step else eta0
    final = _rebuild_with_eta(model, free, kept)
    return model_loglik(final, u).value, final, str(res.message), int(res.nfev)


def chi2_mixture_quad(f, nu):
    """E f(W) for W ~ Gamma(nu/2, scale 2/nu), the law of chi2_nu / nu.

    f maps a scalar w to an array. The Gamma density times f, integrated
    in the probability p = P(W <= w), so that E f(W) = int_0^1 f(w(p)) dp
    with w(p) from scipy's inverse regularised gamma function: the
    density's singularity at w = 0 for nu < 2 disappears (integrated in w
    from its 1e-17 quantile, the bivariate t CDF at nu = 0.5 came out
    2.5e-4 low at u = (0.999, 0.999)). Adaptive vector
    quadrature (epsabs 1e-15) on pieces cut at p = 1e-12 ... 1 - 1e-12, up
    to p = 1 - 2^-53, where w(p) is still finite: the 1.1e-16 of mass left
    out weighs at most f's bound.
    """
    a = 0.5 * nu
    edges = [0.0, 1e-12, 1e-8, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.95, 0.999, 1.0 - 1e-8,
             1.0 - 1e-12, 1.0 - 2.0 ** -53]
    return sum(integrate.quad_vec(lambda p: f(special.gammaincinv(a, p) / a), lo, hi,
                                  epsabs=1e-15, epsrel=0.0, limit=200)[0]
               for lo, hi in zip(edges[:-1], edges[1:]))


def bivariate_t_cdf_quad(h, k, rhos, nu):
    """P(T1 <= h, T2 <= k) for the standard bivariate t(nu) at every
    correlation in ``rhos``, as an array of shape (len(rhos), len(h)).

    T = X / sqrt(W) with X bivariate normal and W = chi2_nu / nu, so the
    CDF is E Phi2(h sqrt(W), k sqrt(W); rho), integrated adaptively over
    the law of W with ``copulas._gauss_cdf_2d`` (Genz's rule, within 3e-16
    of scipy) for Phi2.
    """
    h, k = np.asarray(h, dtype=float), np.asarray(k, dtype=float)
    return chi2_mixture_quad(
        lambda w: np.array([_gauss_cdf_2d(h * np.sqrt(w), k * np.sqrt(w), r) for r in rhos]),
        nu)


def trivariate_t_cdf_quad(x, corr, nu):
    """P(T <= x) for the standard trivariate t(nu), one value per row of x:
    E Phi3(x sqrt(W); corr) over W = chi2_nu / nu, with
    ``copulas._gauss_cdf_3d`` for Phi3."""
    x = np.asarray(x, dtype=float)
    return chi2_mixture_quad(lambda w: _gauss_cdf_3d(x * np.sqrt(w), np.asarray(corr)), nu)


def rejection_batch_reference(c, z_targets, eps, rng, max_attempts):
    """The batch rejection sampler's assignment loop as it was first written,
    with ``np.searchsorted`` on the pending Python list: the reference the
    package's loop must reproduce bit for bit. Takes validated targets and
    a Generator; returns ``(samples, attempts)`` or raises
    ``RejectionCapError`` as the package does.
    """
    z_targets = np.atleast_1d(np.asarray(z_targets, dtype=float))
    n = z_targets.size
    out = np.empty((n, c.dim))
    order = np.argsort(z_targets)
    pending_z = z_targets[order].tolist()   # sorted pending levels
    pending_ix = order.tolist()             # original row of each pending level
    attempts = 0
    while pending_z and attempts < max_attempts:
        chunk = min(_REJECTION_CHUNK, max_attempts - attempts)
        u = copula_sample(c, chunk, rng)
        cz = copula_cdf(c, u)
        for i in range(chunk):
            if not pending_z:
                break
            attempts += 1
            zi = cz[i]
            pos = np.searchsorted(pending_z, zi)
            best = None
            for cand in (pos - 1, pos):
                if 0 <= cand < len(pending_z):
                    dist = abs(zi - pending_z[cand])
                    if dist < eps.epsilon(pending_z[cand]) and (
                            best is None or dist < best[0]):
                        best = (dist, cand)
            if best is not None:
                _, cand = best
                out[pending_ix[cand]] = u[i]
                del pending_z[cand]
                del pending_ix[cand]
    if pending_z:
        raise RejectionCapError(
            f"{len(pending_z)} of {n} level-set targets unfilled after "
            f"{attempts} candidates", attempts)
    return out, attempts
