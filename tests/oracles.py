"""Independent numerical oracles used by the test suite.

These deliberately avoid the package's closed forms: Kendall functions
are cross-checked against a bivariate quadrature of the recursive
integral, and densities against finite differences of the CDF. The
Kendall inverse is checked against a bracketing root finder on K, which
avoids the package's solver rather than K itself. Gumbel inverse-generator
derivatives are checked against the complete Bell polynomial form of the
chain rule in 80-digit arithmetic.
"""

import mpmath
import numpy as np
from scipy.optimize import brentq

from hierkendall.copulas import copula_cdf, quantile_curve
from hierkendall.kendall import kendall_cdf


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


def gumbel_inv_deriv_log_mp(theta, s, k):
    """log |(phi^-1)^(k)(s)| for Gumbel, phi^-1(s) = exp(g(s)) with g = -s^a, a = 1/theta.

    d^k/ds^k e^g = e^g B_k(g', ..., g^(k)), with the complete Bell polynomials
    from B_{n+1} = sum_i C(n, i) B_{n-i} g^(i+1) and the exact derivatives
    g^(m)(s) = -a (a-1) ... (a-m+1) s^(a-m); no coefficient recurrence of the
    package is involved.
    """
    with mpmath.workdps(80):
        a, s = 1 / mpmath.mpf(theta), mpmath.mpf(s)
        dg = [None] + [-mpmath.ff(a, m) * s ** (a - m) for m in range(1, k + 1)]
        bell = [mpmath.mpf(1)]
        for n in range(k):
            bell.append(mpmath.fsum(mpmath.binomial(n, i) * bell[n - i] * dg[i + 1]
                                    for i in range(n + 1)))
        return float(mpmath.log(abs(bell[k])) - s ** a)


def pdf_mixed_fd_2d(copula, u1, u2, h=1e-4):
    """c(u1, u2) as the mixed second difference of the CDF."""
    return (copula_cdf(copula, [u1 + h, u2 + h])
            - copula_cdf(copula, [u1 + h, u2 - h])
            - copula_cdf(copula, [u1 - h, u2 + h])
            + copula_cdf(copula, [u1 - h, u2 - h])) / (4.0 * h * h)
