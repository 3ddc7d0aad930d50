"""Concrete copulas: independence, Archimedean, Gaussian, Student-t.

Every copula kind supports

* ``copula_cdf``      -- C(u), grounded and with uniform margins,
* ``copula_pdf``      -- density c(u) (``copula_logpdf`` is the log version
  used by likelihood code),
* ``copula_sample``   -- unconditional sampling with an explicit RNG,
* ``quantile_curve``  -- the inverse of C in its last argument given a
  prefix of fixed coordinates (closed form when Archimedean, bisection
  otherwise),
* ``copula_sample_conditional`` -- sampling with one coordinate fixed
  (used for cross-cluster margin integration).

Elliptical CDFs take one batched path: a row with a coordinate <= 0 is 0,
coordinates at 1 are dropped, and rows keeping the same coordinates are
evaluated together on that sub-correlation. Up to three remaining
coordinates use deterministic Gauss-Legendre quadrature (one 96-node rule,
built at import) after substituting the marginal probability transform;
four or more fall back to scipy's Gaussian/t CDFs with a fixed seed for
every row, so repeated calls agree bit for bit. All inputs are clamped to
``[INTERIOR_EPS, 1 - INTERIOR_EPS]`` before interior evaluation; exact 0/1
coordinates keep their boundary meaning in the CDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, optimize, special, stats

from .errors import DimensionError, EvaluationError, NoSolutionError, ParameterError
from .generators import (
    ArchimedeanGenerator,
    generator_derivative_log,
    generator_inverse,
    generator_inverse_derivative_log,
    generator_value,
    independence_generator,
)

INTERIOR_EPS = 1e-12

# 96-node Gauss-Legendre rule on [-1, 1] for the elliptical CDF quadrature,
# built once: forming it costs more than a whole 3-d row of quadrature
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)


def clamp_interior(u):
    """Clamp values into [INTERIOR_EPS, 1 - INTERIOR_EPS]."""
    return np.clip(u, INTERIOR_EPS, 1.0 - INTERIOR_EPS)


def _check_corr(corr):
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ParameterError("correlation matrix must be square")
    if not np.allclose(corr, corr.T, atol=1e-10):
        raise ParameterError("correlation matrix must be symmetric")
    if not np.allclose(np.diag(corr), 1.0, atol=1e-12):
        raise ParameterError("correlation matrix must have unit diagonal")
    eigmin = float(np.linalg.eigvalsh(corr).min())
    if eigmin <= 1e-10:
        raise ParameterError(f"correlation matrix not positive definite "
                             f"(smallest eigenvalue {eigmin:g})")
    return corr


@dataclass(frozen=True)
class IndependenceCopula:
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dimension must be >= 1")


@dataclass(frozen=True)
class ArchimedeanCopula:
    generator: ArchimedeanGenerator
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ParameterError("dimension must be >= 1")
        if self.generator.family == "frank" and self.generator.theta < 0.0 and self.dim > 2:
            raise ParameterError("negative-dependence frank copula only exists for d = 2")


@dataclass(frozen=True, eq=False)
class GaussianCopula:
    corr: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        corr = _check_corr(self.corr)
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "_chol", np.linalg.cholesky(corr))

    @property
    def dim(self) -> int:
        return self.corr.shape[0]


@dataclass(frozen=True, eq=False)
class StudentTCopula:
    corr: np.ndarray
    nu: float
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        corr = _check_corr(self.corr)
        if not self.nu > 2.0:
            raise ParameterError(f"student_t requires nu > 2, got {self.nu}")
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "_chol", np.linalg.cholesky(corr))

    @property
    def dim(self) -> int:
        return self.corr.shape[0]


CopulaSpec = IndependenceCopula | ArchimedeanCopula | GaussianCopula | StudentTCopula


def is_archimedean_kind(c: CopulaSpec) -> bool:
    """True for copulas with a generator representation (incl. independence)."""
    return isinstance(c, (IndependenceCopula, ArchimedeanCopula))


def copula_generator(c: CopulaSpec) -> ArchimedeanGenerator:
    if isinstance(c, ArchimedeanCopula):
        return c.generator
    if isinstance(c, IndependenceCopula):
        return independence_generator()
    raise ParameterError(f"{type(c).__name__} has no Archimedean generator")


def _prep_rows(c, u):
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    rows = u[None, :] if single else u
    if rows.ndim != 2 or rows.shape[1] != c.dim:
        raise DimensionError(f"expected points of dimension {c.dim}, got shape {u.shape}")
    return rows, single


# ---------------------------------------------------------------------------
# CDF
# ---------------------------------------------------------------------------

def _gauss_cdf_2d(a, b, rho):
    """P(X1 <= a, X2 <= b) for standard bivariate normal, vectorized."""
    if abs(rho) > 1.0 - 1e-12:
        if rho > 0:  # comonotone limit
            return special.ndtr(np.minimum(a, b))
        return np.maximum(special.ndtr(a) + special.ndtr(b) - 1.0, 0.0)
    pa = special.ndtr(np.asarray(a, dtype=float))
    p = 0.5 * pa[..., None] * (_GL_NODES + 1.0)  # map [-1,1] -> [0, Phi(a)]
    x1 = special.ndtri(np.clip(p, 1e-300, 1.0 - 1e-16))
    sig = np.sqrt(1.0 - rho * rho)
    inner = special.ndtr((np.asarray(b, dtype=float)[..., None] - rho * x1) / sig)
    return 0.5 * pa * (inner @ _GL_WEIGHTS)


def _t_cdf_2d(a, b, rho, nu):
    """P(T1 <= a, T2 <= b) for standard bivariate t(nu), vectorized."""
    pa = special.stdtr(nu, np.asarray(a, dtype=float))
    p = 0.5 * pa[..., None] * (_GL_NODES + 1.0)
    x1 = special.stdtrit(nu, np.clip(p, 1e-300, 1.0 - 1e-16))
    scale = np.sqrt((nu + x1 * x1) * (1.0 - rho * rho) / (nu + 1.0))
    inner = special.stdtr(nu + 1.0,
                          (np.asarray(b, dtype=float)[..., None] - rho * x1) / scale)
    return 0.5 * pa * (inner @ _GL_WEIGHTS)


def _gauss_cdf_3d(x, corr):
    """P(X <= x) for standard trivariate normal; x has shape (n, 3)."""
    r12, r13, r23 = corr[0, 1], corr[0, 2], corr[1, 2]
    s2 = np.sqrt(1.0 - r12 * r12)
    s3 = np.sqrt(1.0 - r13 * r13)
    rc = (r23 - r12 * r13) / (s2 * s3)
    pa = special.ndtr(x[:, 0])
    p = 0.5 * pa[:, None] * (_GL_NODES + 1.0)
    x1 = special.ndtri(np.clip(p, 1e-300, 1.0 - 1e-16))
    inner = _gauss_cdf_2d((x[:, 1, None] - r12 * x1) / s2,
                          (x[:, 2, None] - r13 * x1) / s3, rc)
    return 0.5 * pa * (inner @ _GL_WEIGHTS)


def _t_cdf_3d(x, corr, nu):
    r12, r13, r23 = corr[0, 1], corr[0, 2], corr[1, 2]
    s2 = np.sqrt(1.0 - r12 * r12)
    s3 = np.sqrt(1.0 - r13 * r13)
    rc = (r23 - r12 * r13) / (s2 * s3)
    pa = special.stdtr(nu, x[:, 0])
    p = 0.5 * pa[:, None] * (_GL_NODES + 1.0)
    x1 = special.stdtrit(nu, np.clip(p, 1e-300, 1.0 - 1e-16))
    f = np.sqrt((nu + x1 * x1) / (nu + 1.0))
    inner = _t_cdf_2d((x[:, 1, None] - r12 * x1) / (s2 * f),
                      (x[:, 2, None] - r13 * x1) / (s3 * f), rc, nu + 1.0)
    return 0.5 * pa * (inner @ _GL_WEIGHTS)


def _elliptical_cdf(c, rows):
    """C(u) for a batch of rows of a Gaussian or Student-t copula.

    A row with a coordinate <= 0 gives 0 and coordinates at 1 are dropped.
    Rows that keep the same coordinates are evaluated together on that
    sub-correlation: one vectorised quadrature call for two coordinates,
    the 3-d quadrature one row at a time (a row's 96x96 grid stays in cache,
    so batching rows buys nothing and costs memory), and scipy with a fixed
    seed per row for four or more.
    """
    gaussian = isinstance(c, GaussianCopula)
    out = np.zeros(rows.shape[0])
    live = np.flatnonzero(~np.any(rows <= 0.0, axis=1))
    kept = ~(rows[live] >= 1.0)
    # group by each row's mask read as one bytes key (np.unique(axis=0) is 30x slower)
    _, first, group = np.unique(kept.view(f"V{c.dim}").ravel(), return_index=True,
                                return_inverse=True)
    for k, mask in enumerate(kept[first]):
        idx, active = live[group == k], np.flatnonzero(mask)
        sub = c.corr[np.ix_(active, active)]
        uu = clamp_interior(rows[np.ix_(idx, active)])
        x = special.ndtri(uu) if gaussian else special.stdtrit(c.nu, uu)
        if active.size <= 1:
            out[idx] = uu[:, 0] if active.size else 1.0
        elif active.size == 2:
            out[idx] = (_gauss_cdf_2d(x[:, 0], x[:, 1], sub[0, 1]) if gaussian
                        else _t_cdf_2d(x[:, 0], x[:, 1], sub[0, 1], c.nu))
        elif active.size == 3:
            out[idx] = [(_gauss_cdf_3d(r[None], sub) if gaussian
                         else _t_cdf_3d(r[None], sub, c.nu))[0] for r in x]
        elif gaussian:
            out[idx] = [stats.multivariate_normal(
                cov=sub, seed=np.random.default_rng(0)).cdf(r) for r in x]
        else:
            out[idx] = [stats.multivariate_t(shape=sub, df=c.nu).cdf(
                r, random_state=np.random.default_rng(0)) for r in x]
    return out


def copula_cdf_with_error(c: CopulaSpec, u):
    """(C(u), standard error) for a single point.

    Deterministic evaluations (independence, Archimedean, elliptical with
    d <= 3) report zero error. Higher-dimensional elliptical CDFs are
    estimated by scrambled-Sobol quasi-Monte Carlo with 2^17 points split
    into 8 independently scrambled replicates; the error is the standard
    error of the replicate means. Scramble seeds are fixed, so repeated
    calls agree bit for bit.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 1:
        raise DimensionError("error-reporting CDF takes a single point")
    if (isinstance(c, (IndependenceCopula, ArchimedeanCopula))
            or np.sum((u > 0.0) & (u < 1.0)) <= 3):
        return copula_cdf(c, u), 0.0
    if np.any(u <= 0.0):
        return 0.0, 0.0
    gaussian = isinstance(c, GaussianCopula)
    uu = clamp_interior(u)
    x = special.ndtri(uu) if gaussian else stats.t.ppf(uu, df=c.nu)
    replicates = []
    n_rep, m = 8, 2 ** 14
    for r in range(n_rep):
        sob = stats.qmc.Sobol(d=c.dim + (0 if gaussian else 1), scramble=True,
                              seed=1000 + r)
        q = np.clip(sob.random(m), 1e-12, 1.0 - 1e-12)
        z = special.ndtri(q[:, : c.dim]) @ c._chol.T
        if not gaussian:
            w = stats.chi2.ppf(q[:, c.dim], df=c.nu) / c.nu
            z = z / np.sqrt(w)[:, None]
        replicates.append(float(np.mean(np.all(z <= x, axis=1))))
    est = float(np.mean(replicates))
    se = float(np.std(replicates, ddof=1) / np.sqrt(n_rep))
    return est, se


def copula_cdf(c: CopulaSpec, u):
    """C(u) for one point (shape (d,)) or a batch (shape (N, d))."""
    rows, single = _prep_rows(c, u)
    if isinstance(c, IndependenceCopula):
        out = np.prod(np.clip(rows, 0.0, 1.0), axis=1)
    elif isinstance(c, ArchimedeanCopula):
        g = c.generator
        zero = np.any(rows <= 0.0, axis=1)
        cl = np.clip(rows, INTERIOR_EPS, 1.0)
        out = generator_inverse(g, np.sum(generator_value(g, cl), axis=1))
        out = np.where(zero, 0.0, out)
    else:
        out = _elliptical_cdf(c, rows)
    out = np.clip(out, 0.0, 1.0)
    return float(out[0]) if single else out


# ---------------------------------------------------------------------------
# PDF
# ---------------------------------------------------------------------------

def copula_logpdf(c: CopulaSpec, u):
    """log c(u); inputs clamped to the interior first."""
    rows, single = _prep_rows(c, u)
    rows = clamp_interior(rows)
    if isinstance(c, IndependenceCopula):
        out = np.zeros(rows.shape[0])
    elif isinstance(c, ArchimedeanCopula):
        g = c.generator
        d = c.dim
        if d == 1:
            out = np.zeros(rows.shape[0])
        else:
            s = np.sum(generator_value(g, rows), axis=1)
            out = (generator_inverse_derivative_log(g, s, d)
                   + np.sum(generator_derivative_log(g, rows), axis=1))
    elif isinstance(c, GaussianCopula):
        x = special.ndtri(rows)
        sol = linalg.cho_solve((c._chol, True), x.T).T
        logdet = 2.0 * np.sum(np.log(np.diag(c._chol)))
        out = -0.5 * logdet - 0.5 * (np.sum(x * sol, axis=1) - np.sum(x * x, axis=1))
    else:
        nu, d = c.nu, c.dim
        x = stats.t.ppf(rows, df=nu)
        sol = linalg.cho_solve((c._chol, True), x.T).T
        logdet = 2.0 * np.sum(np.log(np.diag(c._chol)))
        quad = np.sum(x * sol, axis=1)
        out = (special.gammaln((nu + d) / 2.0) + (d - 1) * special.gammaln(nu / 2.0)
               - d * special.gammaln((nu + 1) / 2.0) - 0.5 * logdet
               - 0.5 * (nu + d) * np.log1p(quad / nu)
               + 0.5 * (nu + 1) * np.sum(np.log1p(x * x / nu), axis=1))
    if np.any(np.isnan(out)):
        raise EvaluationError("copula density evaluated to NaN")
    return float(out[0]) if single else out


def copula_pdf(c: CopulaSpec, u):
    """Density c(u) >= 0; exactly 1 for the independence copula."""
    out = copula_logpdf(c, u)
    return np.exp(out) if not np.isscalar(out) else float(np.exp(out))


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def copula_sample(c: CopulaSpec, n: int, rng) -> np.ndarray:
    """Draw n samples; reproducible for a given Generator state.

    Archimedean copulas are sampled by drawing the Kendall level
    z = K^-1(V) with V uniform and then sampling the level set exactly,
    which reproduces the unconditional copula. Elliptical copulas use the
    usual linear transform of normal / t variates.
    """
    if n < 0:
        raise ParameterError("sample count must be >= 0")
    if n == 0:
        return np.empty((0, c.dim))
    if isinstance(c, IndependenceCopula):
        return rng.random((n, c.dim))
    if isinstance(c, ArchimedeanCopula):
        if c.dim == 1:
            return rng.random((n, 1))
        from .kendall import closed_form_kendall, kendall_inverse
        from .levelset import sample_levelset_conditional_batch

        v = rng.random(n)
        z = kendall_inverse(closed_form_kendall(c.generator, c.dim), v)
        return sample_levelset_conditional_batch(c.generator, c.dim, z, rng)
    z = rng.standard_normal((n, c.dim)) @ c._chol.T
    if isinstance(c, GaussianCopula):
        return special.ndtr(z)
    w = rng.chisquare(c.nu, size=n) / c.nu
    return stats.t.cdf(z / np.sqrt(w)[:, None], df=c.nu)


def _condition_elliptical(c, index, value):
    """Conditional location/scale data for one fixed coordinate."""
    d = c.dim
    rest = [i for i in range(d) if i != index]
    sigma = c.corr
    s12 = sigma[np.ix_(rest, [index])]
    s22 = sigma[np.ix_(rest, rest)]
    cond_cov = s22 - s12 @ s12.T
    return rest, s12[:, 0], cond_cov


def copula_sample_conditional(c: CopulaSpec, index: int, value: float,
                              n: int, rng) -> np.ndarray:
    """Sample n points of the copula with coordinate ``index`` fixed at ``value``.

    Returns an (n, d) matrix whose ``index`` column is constant.
    """
    if not 0 <= index < c.dim:
        raise DimensionError(f"index {index} out of range for dimension {c.dim}")
    value = float(clamp_interior(value))
    out = np.empty((n, c.dim))
    out[:, index] = value
    rest = [i for i in range(c.dim) if i != index]
    if not rest:
        return out
    if isinstance(c, IndependenceCopula):
        out[:, rest] = rng.random((n, len(rest)))
        return out
    if isinstance(c, ArchimedeanCopula):
        g = c.generator
        s = np.full(n, generator_value(g, value))
        cols = []
        for j in range(2, c.dim + 1):
            q = rng.random(n)
            uj = _invert_archimedean_conditional(g, s, j - 1, q)
            cols.append(uj)
            s = s + generator_value(g, np.clip(uj, INTERIOR_EPS, 1.0))
        out[:, rest] = np.column_stack(cols)
        return out
    rest_idx, beta, cond_cov = _condition_elliptical(c, index, value)
    chol = np.linalg.cholesky(cond_cov)
    if isinstance(c, GaussianCopula):
        x0 = special.ndtri(value)
        x = x0 * beta + rng.standard_normal((n, len(rest_idx))) @ chol.T
        out[:, rest_idx] = special.ndtr(x)
        return out
    nu = c.nu
    x0 = float(stats.t.ppf(value, df=nu))
    scale = np.sqrt((nu + x0 * x0) / (nu + 1.0))
    tvars = rng.standard_normal((n, len(rest_idx))) @ chol.T
    w = rng.chisquare(nu + 1.0, size=n) / (nu + 1.0)
    x = x0 * beta + scale * tvars / np.sqrt(w)[:, None]
    out[:, rest_idx] = stats.t.cdf(x, df=nu)
    return out


def _invert_archimedean_conditional(g, s, k, q):
    """Solve (phi^-1)^(k)(s + phi(u)) / (phi^-1)^(k)(s) = q for u, vectorized.

    The ratio is the conditional CDF of the next coordinate given the first
    k coordinates of a (k+1)-or-higher dimensional Archimedean copula; signs
    cancel, so it is evaluated through log magnitudes.
    """
    log_denom = generator_inverse_derivative_log(g, s, k)

    def cdf(u):
        num = generator_inverse_derivative_log(g, s + generator_value(g, u), k)
        return np.exp(num - log_denom)

    lo = np.full_like(s, INTERIOR_EPS)
    hi = np.full_like(s, 1.0 - INTERIOR_EPS)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = cdf(mid) < q  # CDF increasing in u
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# quantile curve
# ---------------------------------------------------------------------------

def quantile_curve(c: CopulaSpec, u_prefix, z: float) -> float:
    """Inverse of C in the coordinate after ``u_prefix``, other coordinates at 1.

    Solves C(u_prefix, x, 1, ..., 1) = z for x in (0, 1). Closed form for
    Archimedean kinds, bracketed bisection otherwise. An empty prefix
    returns z itself.
    """
    prefix = np.asarray(u_prefix, dtype=float).ravel()
    if prefix.size >= c.dim:
        raise DimensionError("prefix must leave at least one free coordinate")
    if not 0.0 < z < 1.0:
        raise NoSolutionError(f"level z must be in (0,1), got {z}")
    if prefix.size == 0:
        return float(z)
    prefix = clamp_interior(prefix)
    if is_archimedean_kind(c):
        g = copula_generator(c)
        rem = generator_value(g, z) - np.sum(generator_value(g, prefix))
        if rem <= 0.0:
            raise NoSolutionError(
                f"no solution: z={z} >= C(prefix, 1, ..., 1)")
        return float(generator_inverse(g, rem))
    ceiling = copula_cdf(c, _pad_with_ones(c, prefix, 1.0))
    if z >= ceiling:
        raise NoSolutionError(f"no solution: z={z} >= C(prefix, 1, ..., 1)={ceiling}")

    def f(x):
        return copula_cdf(c, _pad_with_ones(c, prefix, x)) - z

    lo = INTERIOR_EPS
    if f(lo) > 0.0:
        raise NoSolutionError("level below the representable support")
    root = optimize.brentq(f, lo, 1.0 - INTERIOR_EPS, xtol=1e-12)
    return float(root)


def _pad_with_ones(c, prefix, x):
    point = np.ones(c.dim)
    point[: prefix.size] = prefix
    point[prefix.size] = x
    return point


# ---------------------------------------------------------------------------
# margins and tau helpers
# ---------------------------------------------------------------------------

def copula_bivariate_margin(c: CopulaSpec, i: int, j: int) -> CopulaSpec:
    """The bivariate (i, j)-margin of the copula."""
    if i == j or not (0 <= i < c.dim and 0 <= j < c.dim):
        raise DimensionError(f"invalid margin indices ({i}, {j}) for dim {c.dim}")
    if isinstance(c, IndependenceCopula):
        return IndependenceCopula(2)
    if isinstance(c, ArchimedeanCopula):
        return ArchimedeanCopula(c.generator, 2)
    sub = c.corr[np.ix_([i, j], [i, j])]
    if isinstance(c, GaussianCopula):
        return GaussianCopula(sub)
    return StudentTCopula(sub, c.nu)


def elliptical_corr_from_tau(tau):
    """rho = sin(pi tau / 2), the elliptical-copula inversion of Kendall's tau."""
    return np.sin(0.5 * np.pi * np.asarray(tau, dtype=float))


def elliptical_tau_from_corr(rho):
    return 2.0 / np.pi * np.arcsin(np.asarray(rho, dtype=float))
