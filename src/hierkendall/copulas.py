"""Concrete copulas: independence, Archimedean, Gaussian, Student-t.

Every copula kind supports

* ``copula_cdf``      -- C(u), grounded and with uniform margins,
* ``copula_pdf``      -- density c(u) (``copula_logpdf`` is the log version
  used by likelihood code),
* ``copula_sample``   -- unconditional sampling with an explicit RNG,
* ``quantile_curve``  -- the inverse of C in its last argument given a
  prefix of fixed coordinates (closed form when Archimedean, Brent's
  method otherwise),
* ``copula_sample_conditional`` -- sampling with one coordinate fixed
  (used for cross-cluster margin integration).

The Gaussian and Student-t copulas share one elliptical body
(``_Elliptical``: the correlation check, the Cholesky factor and ``dim``),
and every operation takes one elliptical path through their margin law,
x = F^-1(u) by ``_margin_ppf`` and u = F(x) by ``_margin_cdf``: Phi for
the Gaussian, t_nu for the Student-t. Only the closed-form density, the
CDF rules below and the t law's chi-square mixing in the samplers differ.

The t_nu law is read from two quintic Hermite tables of 256 nodes with
exact first and second derivatives, built once per ``StudentTCopula`` on
first use (12 KB each, a pure function of nu, so every batch size takes the
same path and gets the same bits). t_nu^-1(u) is tabulated in
z = Phi^-1(u) over the clamp band ``[INTERIOR_EPS, 1 - INTERIOR_EPS]``;
t_nu(x) for every real x, as p = t_nu(-|x|) down to the smallest normal
float and 0 beyond, with u = p below 0 and 1 - p above. Against an mpmath
oracle both stay within 1e-10 relative (in x, and in min(u, 1 - u) >=
1e-300) for every nu > 2; on dense grids for nu from 2 + 1e-6 to 1e12 the
worst seen was 6e-13 in x and 9e-12 in p (the deep tail at nu >= 1000).
They replace scipy's ``stdtrit`` and ``stdtr``: at 5000 values 1.3-1.6 and
0.8-1.0 ms against 0.12 and 0.13 ms, plus a build of 0.11-0.17 ms per table
(2-core Xeon, scipy 1.17); a one-value call costs 6-12 us against 1 us.

Elliptical CDFs take one batched path: a row with a coordinate <= 0 is 0,
coordinates at 1 are dropped, and rows keeping the same coordinates are
evaluated together on that sub-correlation. Gaussian groups of two and
three coordinates use Genz's (2004) bivariate and trivariate rules, exact
to rounding (about 2e-10 where R is at the eigenvalue floor of 1e-10), on
one 20-node Gauss-Legendre rule. Student-t groups of two use Owen's
(1956) T-function decomposition carried over to the t law, exact to about
1e-12 for every real nu > 0; groups of three integrate that rule over the
first coordinate on a 96-node rule in F(x1) (within 1e-5), reading F and
the inner t(nu + 1) margins from tables; its nodes x1 keep ``stdtrit``, as
their levels reach 1e-300, below the inverse table. Four or more fall back to
scipy's Gaussian/t CDFs with a fixed seed for every row. Every rule is
fixed, so repeated calls agree bit for bit. All inputs are clamped to
``[INTERIOR_EPS, 1 - INTERIOR_EPS]`` before interior evaluation; exact 0/1
coordinates keep their boundary meaning in the CDF.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np
from scipy import linalg, optimize, special, stats

from .errors import (DimensionError, EvaluationError, NoSolutionError, ParameterError,
                     check_count, check_probability, is_count)
from .generators import (  # noqa: F401  perfbench's tracer rebinds generator_derivative_log
    ArchimedeanGenerator,
    check_dimension,
    check_order,
    generator_derivative_log,
    generator_inverse,
    generator_inverse_derivative_log,
    generator_value,
    independence_generator,
)
from .kendall import archimedean_log_density

INTERIOR_EPS = 1e-12

# 96-node Gauss-Legendre rule on [-1, 1] for the outer integral of the 3-d
# Student-t CDF, built once: forming it costs more than a 3-d row
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)

# 16-node Gauss-Legendre rule on [0, 1] for the panels of the bivariate t
# T-function integral (12 nodes leave 1e-10 at nu = 1000)
_GL16_NODES, _GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)
_GL16_NODES, _GL16_WEIGHTS = 0.5 * (_GL16_NODES + 1.0), 0.5 * _GL16_WEIGHTS
# widest panel of that integral, in s = asinh(tan(angle)); panels 2 wide
# left 2.5e-13 at nu = 1.1e4, where the integrand falls off like
# exp(-h^2 cosh^2 s / 2), and 1.5 wide left 9e-16
_T_PANEL = 1.25
# s beyond which the integral's tail, at most 2 e^-s, is below 1e-16
_T_TAIL = float(np.log(2e16))

# 20-node Gauss-Legendre rule on [0, 1] for Genz's Gaussian CDF rules, from
# the tabulated half rule on [-1, 1] (no eigenproblem at import)
_GL20_HALF = np.array([
    (0.07652652113349734, 0.15275338713072628), (0.22778585114164507, 0.14917298647260424),
    (0.37370608871541955, 0.1420961093183824), (0.5108670019508271, 0.1316886384491769),
    (0.636053680726515, 0.1181945319615186), (0.7463319064601508, 0.1019301198172407),
    (0.8391169718222188, 0.08327674157670471), (0.912234428251326, 0.06267204833410879),
    (0.9639719272779138, 0.040601429800386446), (0.993128599185095, 0.017614007139150893)])
_GL20_NODES = 0.5 * np.concatenate([1.0 - _GL20_HALF[:, 0], 1.0 + _GL20_HALF[:, 0]])
_GL20_WEIGHTS = 0.5 * np.concatenate([_GL20_HALF[:, 1], _GL20_HALF[:, 1]])
_TWO_PI = 2.0 * np.pi
# (row, node) pairs per block of the quadrature rules: about 1 MB per
# temporary array, whatever the row count. On an m = 1e5 Kendall build of a
# 3-d Gaussian cluster this adds 16 MB of peak RSS where one unblocked call
# adds 88 MB, and is faster
_BLOCK_POINTS = 1 << 17
# cap on the panels of the 3-d Gaussian rule; under _check_corr's eigenvalue
# floor det R > 3e-20, so the graded panels number at most 30
_MAX_PANELS = 40


def clamp_interior(u):
    """Clamp values into [INTERIOR_EPS, 1 - INTERIOR_EPS]."""
    return np.clip(u, INTERIOR_EPS, 1.0 - INTERIOR_EPS)


def _check_corr(corr):
    corr = np.asarray(corr, dtype=float)
    if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
        raise ParameterError("correlation matrix must be square")
    if corr.shape[0] < 2:
        raise ParameterError(f"elliptical copula dimension must be >= 2, got {corr.shape[0]}; "
                             "a one-variable copula is IndependenceCopula(1)", "corr")
    if not np.isfinite(corr).all():
        raise ParameterError("correlation matrix entries must be finite")
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
        check_count("dim", self.dim, 1)


@dataclass(frozen=True)
class ArchimedeanCopula:
    generator: ArchimedeanGenerator
    dim: int

    def __post_init__(self):
        if is_count(self.dim) and self.dim < 2:
            raise ParameterError(f"Archimedean copula dimension must be >= 2, got {self.dim}; "
                                 "a one-variable copula is IndependenceCopula(1)", "dim")
        check_count("dim", self.dim, 2)
        check_order(self.dim, "Archimedean copula dimension")
        check_dimension(self.generator, self.dim)


class _Elliptical:
    """What the Gaussian and Student-t copulas share: the correlation check,
    the Cholesky factor of ``corr`` and ``dim``. Each declares its own fields."""

    def __post_init__(self):
        corr = _check_corr(self.corr)
        object.__setattr__(self, "corr", corr)
        object.__setattr__(self, "_chol", np.linalg.cholesky(corr))

    @property
    def dim(self) -> int:
        return self.corr.shape[0]


@dataclass(frozen=True, eq=False)
class GaussianCopula(_Elliptical):
    corr: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False)


@dataclass(frozen=True, eq=False)
class StudentTCopula(_Elliptical):
    corr: np.ndarray
    nu: float
    _chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        super().__post_init__()
        if not 2.0 < self.nu < np.inf:
            raise ParameterError(f"student_t requires nu > 2 and finite, got {self.nu}")
        object.__setattr__(self, "nu", float(self.nu))

    # the margin law's tables: pure functions of nu, built on first use and
    # kept in the instance dict, so they are not fields (repr, fields and
    # the field-by-field output digests are unchanged)
    @cached_property
    def _ppf_rows(self) -> np.ndarray:
        return _t_ppf_rows(self.nu)

    @cached_property
    def _cdf_rows(self) -> tuple:
        return _t_cdf_rows(self.nu)


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


def _margin_ppf(c, u):
    """x = F^-1(u) for the margin law of an elliptical copula: Phi^-1, or
    t_nu^-1 from the copula's table (``_t_ppf_rows``) at z = Phi^-1(u).

    The t table spans u in [INTERIOR_EPS, 1 - INTERIOR_EPS], the band every
    caller clamps to; beyond it q is held at its end value, so x stays
    monotone and reaches -inf/inf at u = 0/1."""
    z = special.ndtri(u)
    if isinstance(c, GaussianCopula):
        return z
    return np.sinh(_hermite_eval(c._ppf_rows, np.abs(z) * _T_PPF_SCALE) * z)


def _margin_cdf(c, x):
    """u = F(x) for the margin law of an elliptical copula: Phi, or t_nu
    from the copula's table (``_t_cdf_rows``) by ``_t_cdf``, for every real x."""
    if isinstance(c, GaussianCopula):
        return special.ndtr(x)
    return _t_cdf(c.nu, c._cdf_rows, x)


# ---------------------------------------------------------------------------
# Student-t margin law tables
# ---------------------------------------------------------------------------
#
# Both directions of t_nu are read from piecewise quintic Hermite tables on
# _T_NODES uniform nodes, with the exact first and second derivatives at
# every node, built once per StudentTCopula (a cached property) from scipy's
# stdtrit/stdtr at the nodes only (stdtrit is accurate there: the nodes stay
# 0.0276 in z from the median, where it is not). With exact curvatures the
# error falls as the sixth power of the node step: 256 nodes keep it below
# 1e-11, and a build costs less than stdtrit of 500 values.

_T_NODES = 256
# the inverse table spans |z| = |Phi^-1(u)| for u in the clamp band; its
# upper end, 1 - INTERIOR_EPS as a float, lies further out than its lower
_T_Z_END = float(max(-special.ndtri(INTERIOR_EPS), special.ndtri(1.0 - INTERIOR_EPS)))
_T_PPF_SCALE = (_T_NODES - 1) / _T_Z_END
_LOG_PHI0 = -0.5 * np.log(2.0 * np.pi)
# the forward table's variable is v = asinh(asinh(|x|) / _T_CDF_SPREAD): about
# uniform in asinh|x| up to 1.5, logarithmic beyond, where log p is nearly
# linear in it and a heavy tail (nu near 2) runs to asinh|x| = 355
_T_CDF_SPREAD = 1.5
# the forward table ends where p falls to e times the smallest normal float
_T_LOG_P_END = float(np.log(np.finfo(float).tiny)) + 1.0


def _hermite_rows(y, dy, d2y):
    """Coefficient rows (y, m, c2, c3, c4, c5) of the quintic Hermite
    interpolant through values ``y`` with first and second derivatives
    ``dy`` and ``d2y`` (per node step), one column per node: on [k, k + 1]
    it is y_k + m_k t + c2_k t^2 + ... + c5_k t^5 at t in [0, 1]. The last
    column is the last node's value and derivatives."""
    d = np.diff(y) - dy[:-1] - 0.5 * d2y[:-1]
    e = np.diff(dy) - d2y[:-1]
    f = np.diff(d2y)
    rows = np.zeros((6, y.size))
    rows[0], rows[1], rows[2] = y, dy, 0.5 * d2y
    rows[3, :-1] = 10.0 * d - 4.0 * e + 0.5 * f
    rows[4, :-1] = -15.0 * d + 7.0 * e - f
    rows[5, :-1] = 6.0 * d - 3.0 * e + 0.5 * f
    return rows


def _hermite_eval(rows, t):
    """The interpolant of ``_hermite_rows`` at ``t`` >= 0 in node units; t at
    or beyond the last node (and NaN) reads the last column at its node."""
    t = np.fmin(t, rows.shape[1] - 1)  # fmin reads NaN as the bound
    k = t.astype(np.intp)
    t = t - k
    out = rows[5].take(k)  # Horner's rule, one coefficient row at a time
    for row in rows[4::-1]:
        out *= t
        out += row.take(k)
    return out


def _t_log_pdf0(nu):
    """log f_nu(0) = log Gamma((nu + 1)/2) - log Gamma(nu/2) - log(pi nu)/2 to
    rounding for every nu > 2: by ``betaln`` up to nu = 100, where it is
    exact, and beyond by the asymptotic series of log Gamma(a + 1/2) -
    log Gamma(a) - log(a)/2 in a = nu/2, whose first omitted term is below
    1e-18 there (differences of lgamma lose 1e-9 at nu = 2e6)."""
    a = 0.5 * nu
    if a <= 50.0:
        return -0.5 * np.log(nu) - special.betaln(a, 0.5)
    r = 1.0 / (a * a)
    return _LOG_PHI0 + (-1.0 / 8.0 + r * (1.0 / 192.0 + r * (-1.0 / 640.0 + r * 17.0 / 14336.0))) / a


def _t_ppf_rows(nu):
    """Hermite rows of the inverse law, x = t_nu^-1(Phi(z)), as the smooth
    even function q(a) = asinh(x) / a of a = |z| on [0, ``_T_Z_END``], so that
    x = sinh(q(|z|) z) keeps relative precision down to x = 0. The
    derivatives follow from the exact dx/da = phi(a) / f_nu(x) and its
    derivative; at a = 0, q = c = phi(0) / f_nu(0), q' = 0 and
    q'' = c (c^2 / nu - 1) / 3."""
    a = np.linspace(0.0, _T_Z_END, _T_NODES)
    x = np.zeros(_T_NODES)
    x[1:] = -special.stdtrit(nu, special.ndtr(-a[1:]))
    dx = np.exp(_LOG_PHI0 - 0.5 * a * a - _t_log_pdf0(nu)
                + 0.5 * (nu + 1.0) * np.log1p(x * x / nu))
    d2x = dx * ((nu + 1.0) / (nu + x * x) * x * dx - a)
    r = np.hypot(1.0, x)
    ds = dx / r  # s = asinh(x) = a q
    d2s = (d2x - x * dx * ds / r) / r
    c = dx[0]
    q, dq = np.full(_T_NODES, c), np.zeros(_T_NODES)
    d2q = np.full(_T_NODES, c * (c * c / nu - 1.0) / 3.0)
    q[1:] = np.arcsinh(x[1:]) / a[1:]
    dq[1:] = (ds[1:] - q[1:]) / a[1:]
    d2q[1:] = (d2s[1:] - 2.0 * dq[1:]) / a[1:]
    h = a[1]
    return _hermite_rows(q, dq * h, d2q * (h * h))


def _t_cdf_rows(nu):
    """(rows, scale, const) of the forward law's table, p = t_nu(-|x|).

    log p is split into a closed form and a tabulated rest,
    log p = D(v) + const - (nu - 1)/2 log1p(x^2/nu) - log1p(x^2)/2: the
    closed form is log f_nu(x) + log((nu + x^2) / ((nu - 1) sqrt(1 + x^2))),
    the log of the Mills bound p <= f_nu(x) (nu + x^2) / ((nu - 1) x) with
    x made sqrt(1 + x^2), so D is bounded and tends to 0 in both the
    Gaussian and the power-law tail. D is tabulated on uniform nodes of
    v = asinh(asinh(x) / ``_T_CDF_SPREAD``) up to where that bound falls to
    e times the smallest normal float; p is 0 beyond (the last column's value
    is -inf). Its derivatives are taken in s = asinh(x), where every term
    stays within float range. ``scale`` is nodes per unit of v."""
    lf0 = _t_log_pdf0(nu)
    const = lf0 + np.log1p(1.0 / (nu - 1.0))

    def bound_gap(s):  # log of the bound at x = sinh(s), less its end value
        x = np.sinh(s)
        return (const - 0.5 * (nu - 1.0) * np.log1p((x / np.sqrt(nu)) ** 2) - np.log(x)
                - _T_LOG_P_END)

    # the bracket: the t tail is heavier than the normal one, and
    # Phi(-37) > 1e-300. Past 60, the bound is below the end value: for
    # x^2 >= nu by (nu + x^2) <= 2 x^2, which leaves a power law in x that
    # reaches it at x_hi, and for x^2 < nu by log1p(x^2/nu) >= log(2) x^2/nu
    x_hi = np.exp((np.log(2.0) + const - _T_LOG_P_END) / nu + 0.5 * (1.0 + 1.0 / nu) * np.log(nu))
    s_end = optimize.brentq(bound_gap, np.arcsinh(37.0), np.arcsinh(max(x_hi, 60.0)), xtol=1e-9)
    v_end = np.arcsinh(s_end / _T_CDF_SPREAD)
    v = np.linspace(0.0, v_end, _T_NODES)
    s = _T_CDF_SPREAD * np.sinh(v)
    x = np.sinh(s)
    y = x * x
    log_p = np.log(special.stdtr(nu, -x))
    rest = log_p - const + 0.5 * (nu - 1.0) * np.log1p(y / nu) + 0.5 * np.log1p(y)
    # dD/ds = T (k + 1) - g with T = tanh(s), k = (nu - 1)(1 + x^2)/(nu + x^2)
    # and g = f_nu(x) cosh(s) / p, whose own derivatives give d2D/ds2; the
    # ratios w and wp of nu -/+ 1 to nu + x^2 keep every product in range
    tanh = np.tanh(s)
    w, wp = (nu - 1.0) / (nu + y), (nu + 1.0) / (nu + y)
    k = (1.0 + y) * w
    g = np.exp(lf0 - 0.5 * (nu + 1.0) * np.log1p(y / nu) - log_p
               + s + np.log1p(np.exp(-2.0 * s)) - np.log(2.0))
    d1 = tanh * (k + 1.0) - g
    d2 = ((1.0 - tanh * tanh) * (k + 1.0) + 2.0 * tanh * tanh * w * k
          - g * (tanh - tanh * (1.0 + y) * wp + g))
    ds, d2s = _T_CDF_SPREAD * np.cosh(v), _T_CDF_SPREAD * np.sinh(v)
    h = v[1]
    rows = _hermite_rows(rest, d1 * ds * h, (d2 * ds * ds + d1 * d2s) * (h * h))
    rows[:, -1] = (-np.inf, 0.0, 0.0, 0.0, 0.0, 0.0)
    return rows, (_T_NODES - 1) / v_end, const


def _t_cdf(nu, table, x):
    """u = t_nu(x) for every real x from the table ``_t_cdf_rows(nu)``, any
    nu > 2: p = t_nu(-|x|) is relative down to the smallest normal float and
    0 beyond; u is p below 0 and 1 - p above, relative in min(u, 1 - u)."""
    rows, scale, const = table
    ax = np.abs(x)
    with np.errstate(over="ignore"):  # x^2 beyond float range: p = 0
        y = ax * ax
    log_p = (_hermite_eval(rows, np.arcsinh(np.arcsinh(ax) / _T_CDF_SPREAD) * scale) + const
             - 0.5 * (nu - 1.0) * np.log1p(y / nu) - 0.5 * np.log1p(y))
    p = np.minimum(np.exp(log_p), 0.5)
    return np.where(x < 0.0, p, 1.0 - p)


def _prep_rows(u, dim):
    """(rows, single): ``u`` as a matrix of rows of width ``dim``, and whether it was
    one point of shape (dim,). Any other shape is a ``DimensionError``."""
    u = np.asarray(u, dtype=float)
    single = u.ndim == 1
    rows = u[None, :] if single else u
    if rows.ndim != 2 or rows.shape[1] != dim:
        raise DimensionError(f"expected points of dimension {dim}, got shape {u.shape}")
    return rows, single


# ---------------------------------------------------------------------------
# CDF
# ---------------------------------------------------------------------------

def _gauss_cdf_2d(a, b, rho):
    """P(X1 <= a, X2 <= b) for standard bivariate normal, vectorized over a, b.

    Genz (2004), after Drezner & Wesolowsky (1990): for |rho| < 0.925 the
    20-node rule in the angle arcsin rho; otherwise Genz's expansion about
    the comonotone limit with the 20-node rule for its remainder, reaching
    rho < 0 through Phi2(a, b; rho) = Phi(a) - Phi2(a, -b; -rho). Both are
    exact to a few units of double rounding. The package passes only
    entries of matrices that ``_check_corr`` accepted: |rho| < 1 - 1e-10.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    h, k = -a, -b
    if abs(rho) < 0.925:
        asr = np.arcsin(rho)
        sn = np.sin(asr * _GL20_NODES)
        hs = 0.5 * (h * h + k * k)
        e = np.exp((sn * (h * k)[..., None] - hs[..., None]) / (1.0 - sn * sn))
        p = asr / _TWO_PI * (e @ _GL20_WEIGHTS) + special.ndtr(a) * special.ndtr(b)
        return np.clip(p, 0.0, 1.0)
    if rho < 0:
        k = -k
    hk = h * k
    aa = 1.0 - rho * rho
    sa = np.sqrt(aa)
    bs = (h - k) ** 2
    c = (4.0 - hk) / 8.0
    d = (12.0 - hk) / 80.0
    xs = (sa * _GL20_NODES) ** 2
    rs = np.sqrt(1.0 - xs)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ex = -0.5 * (bs / aa + hk)
        p = np.where(ex > -100.0, sa * np.exp(ex) * (1.0 - c * (bs - aa) * (1.0 - d * bs) / 3.0
                                                     + c * d * aa * aa), 0.0)
        sb = np.sqrt(bs)
        p -= np.where(hk > -100.0, np.exp(-0.5 * hk) * np.sqrt(_TWO_PI) * special.ndtr(-sb / sa)
                      * sb * (1.0 - c * bs * (1.0 - d * bs) / 3.0), 0.0)
        ex = -0.5 * (bs[..., None] / xs + hk[..., None])
        f = np.exp(ex) * (1.0 + c[..., None] * xs * (1.0 + 5.0 * d[..., None] * xs)
                          - np.exp(-0.5 * hk[..., None] * xs / (1.0 + rs) ** 2) / rs)
        p = (sa * (np.where(ex > -100.0, f, 0.0) @ _GL20_WEIGHTS) - p) / _TWO_PI
    if rho > 0:
        p = p + special.ndtr(-np.maximum(h, k))
    else:
        span = np.where(h < 0, special.ndtr(k) - special.ndtr(h),
                        special.ndtr(-h) - special.ndtr(-k))
        p = np.where(h >= k, -p, span - p)
    return np.clip(p, 0.0, 1.0)


def _t_owen(h, a, nu):
    """Owen's T(h, a) for the spherical bivariate t(nu) law, elementwise.

    T(h, a) = 1/(2 pi) int_0^{atan a} S(|h| sec phi) dphi, the mass of the
    wedge {x > |h|, 0 < y < a x}, where S(r) = (1 + r^2/nu)^(-nu/2) is the
    law's radial survival function. With sinh s = tan phi it is
    sign(a)/(2 pi) int_0^{asinh |a|} S(|h| cosh s) / cosh s ds, whose
    integrand is analytic in a strip about the real axis: 16-node
    Gauss-Legendre panels at most ``_T_PANEL`` wide, up to where
    S(|h| cosh s) 2 e^-s bounds the tail by 1e-16. Rows are grouped by
    panel count and evaluated in blocks of at most ``_BLOCK_POINTS``
    (row, node) pairs. At h = 0, S = 1 and T is atan(a) / (2 pi).
    """
    h = np.abs(h)
    out = np.where(h == 0.0, np.arctan(a) / _TWO_PI, 0.0)
    with np.errstate(divide="ignore"):
        # S(|h| cosh s) <= (sqrt(nu) / (|h| cosh s))^nu and cosh s >= e^s / 2
        cut = (nu * np.log(2.0 * np.sqrt(nu) / h) + _T_TAIL) / (nu + 1.0)
    end = np.clip(np.minimum(np.arcsinh(np.abs(a)), cut), 0.0, _T_TAIL)
    panels = np.where(h > 0.0, np.ceil(end / _T_PANEL), 0.0).astype(int)
    for p in np.unique(panels[panels > 0]):
        idx = np.flatnonzero(panels == p)
        x = (np.arange(p)[:, None] + _GL16_NODES).ravel() / p
        w = np.tile(_GL16_WEIGHTS, p) / p
        block = max(1, _BLOCK_POINTS // x.size)
        for lo in range(0, idx.size, block):
            r = idx[lo:lo + block]
            ch = np.cosh(end[r, None] * x)
            f = np.exp(-0.5 * nu * np.log1p((h[r, None] * ch) ** 2 / nu)) / ch
            out[r] = np.copysign(end[r] * (f @ w), a[r]) / _TWO_PI
    return out


def _t_cdf_2d(h, k, rho, nu, fh, fk):
    """P(T1 <= h, T2 <= k) for the standard bivariate t(nu), any real nu > 0.

    ``fh`` and ``fk`` are the margins F(h), F(k) of t(nu). Whitening turns
    the quadrant into a wedge, and rotational symmetry gives Owen's (1956)
    decomposition of the bivariate normal with the t law's radial survival
    function in place of the normal one:

        P = F(h)/2 + F(k)/2 - T(h, a_h) - T(k, a_k) - beta,
        a_h = (k - rho h) / (h sqrt(1 - rho^2)), a_k likewise,

    with beta = 1/2 when min(h, k) < 0 <= max(h, k) and 0 otherwise; at
    h = k = 0 both angles are (1 - rho) / sqrt(1 - rho^2). ``_t_owen``
    evaluates T to about 1e-16, so P is exact to about 1e-12. Any shape,
    broadcast; rows are taken in blocks whose T integrals fill one block of
    ``_BLOCK_POINTS`` at one panel, so no temporary grows with the row count.
    """
    h, k, fh, fk = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (h, k, fh, fk)))
    out = np.empty(h.shape)
    flat = out.reshape(-1)
    sr = np.sqrt((1.0 - rho) * (1.0 + rho))
    step = _BLOCK_POINTS // (2 * _GL16_NODES.size)
    for lo in range(0, h.size, step):
        hb, kb = h.flat[lo:lo + step], k.flat[lo:lo + step]
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.concatenate([(kb - rho * hb) / (hb * sr), (hb - rho * kb) / (kb * sr)])
        a[np.tile((hb == 0.0) & (kb == 0.0), 2)] = np.sqrt((1.0 - rho) / (1.0 + rho))
        t = _t_owen(np.concatenate([hb, kb]), a, nu)
        beta = 0.5 * ((np.minimum(hb, kb) < 0.0) & (np.maximum(hb, kb) >= 0.0))
        flat[lo:lo + step] = (0.5 * (fh.flat[lo:lo + step] + fk.flat[lo:lo + step])
                              - t[:hb.size] - t[hb.size:] - beta)
    return np.clip(out, 0.0, 1.0)


def _gauss_cdf_3d(x, corr):
    """P(X <= x) for standard trivariate normal; x has shape (n, 3).

    Plackett's (1954) reduction as used by Genz (2004): with the coordinates
    ordered so that the pair (2, 3) has the largest |correlation|, move r12
    and r13 to zero along R(t), r1j(t) = t r1j, which stays positive
    definite, so that

        Phi3 = Phi(b1) Phi2(b2, b3; r23)
               + int_0^1 sum_j r1j phi2(b1, bj; t r1j) Phi(m_j(t)) dt,

    where m_j(t) standardises the remaining coordinate given X1 = b1 and
    Xj = bj. The integrand is analytic on [0, 1] with its nearest
    singularity at the t* > 1 where det R(t) = 0; panels graded toward
    t = 1, each at most 4x as wide as its right end's distance to t*, keep
    the 20-node rule exact however close to singular R is. What is left is
    rounding in m_j(t), whose cofactors cancel against det R(t): about
    2e-10 absolute when R's smallest eigenvalue is 2e-10. Rows are
    evaluated in blocks of at most ``_BLOCK_POINTS`` (row, node) pairs.
    """
    big = int(np.argmax(np.abs(corr[[0, 0, 1], [1, 2, 2]])))
    j, k = ((0, 1), (0, 2), (1, 2))[big]
    i = 3 - j - k
    r12, r13, r23 = corr[i, j], corr[i, k], corr[j, k]
    q = r12 * r12 + r13 * r13 - 2.0 * r12 * r13 * r23
    # det R(t) = det R + q (1 - t^2), with det R from the eigenvalues: as
    # 1 - r23^2 - q it cancels to rounding noise, of either sign, once R is
    # near singular
    det1 = float(np.prod(np.linalg.eigvalsh(corr)))
    s = det1 / q if q > 0.0 else np.inf
    gap = s / (1.0 + np.sqrt(1.0 + s)) if s < np.inf else s  # t* - 1, det R(t*) = 0
    ends = [0.0]  # panel ends as distances below t = 1
    while ends[-1] < 1.0 and len(ends) <= _MAX_PANELS:
        ends.append(5.0 * ends[-1] + 4.0 * gap)
    ends[-1] = 1.0
    ends = 1.0 - np.array(ends[::-1])
    widths = np.diff(ends)
    t = (ends[:-1, None] + widths[:, None] * _GL20_NODES).ravel()
    w = (widths[:, None] * _GL20_WEIGHTS).ravel() / _TWO_PI
    det = det1 + q * (1.0 - t * t)
    out = np.empty(x.shape[0])
    block = max(1, _BLOCK_POINTS // t.size)
    for lo in range(0, x.shape[0], block):
        b = x[lo:lo + block]
        b1 = b[:, i, None]
        p = special.ndtr(b[:, i]) * _gauss_cdf_2d(b[:, j], b[:, k], r23)
        for rj, ro, bj, bo in ((r12, r13, b[:, j, None], b[:, k, None]),
                               (r13, r12, b[:, k, None], b[:, j, None])):
            if rj == 0.0:
                continue
            r, ro_t = t * rj, t * ro
            rr = 1.0 - r * r
            m = (bo * rr + b1 * (r * r23 - ro_t) + bj * (r * ro_t - r23)) / np.sqrt(rr * det)
            f = np.exp(-0.5 * (b1 * b1 - 2.0 * r * b1 * bj + bj * bj) / rr) / np.sqrt(rr)
            p += rj * ((f * special.ndtr(m)) @ w)
        out[lo:lo + block] = p
    return np.clip(out, 0.0, 1.0)


def _t_cdf_3d(c, x, corr):
    """P(T <= x) for the trivariate t(nu) of the Student-t copula ``c`` on
    the sub-correlation ``corr``; x has shape (n, 3).

    The first coordinate is integrated out on the 96-node rule in its
    probability F(x1), the rest by the conditional law of (T2, T3) given
    T1, a bivariate t(nu + 1), through ``_t_cdf_2d``: within 1e-5 (7e-6 at
    worst on the tests' grid), the outer rule's error. F(x1) and the t(nu + 1)
    margins are table reads (a nu + 1 table per call); the nodes x1 take
    ``stdtrit``, as their levels reach 1e-300, below the inverse table's
    band. Rows are evaluated in blocks of at most ``_BLOCK_POINTS`` (row, node) pairs.
    """
    nu, inner_table = c.nu, _t_cdf_rows(c.nu + 1.0)
    r12, r13, r23 = corr[0, 1], corr[0, 2], corr[1, 2]
    s2 = np.sqrt(1.0 - r12 * r12)
    s3 = np.sqrt(1.0 - r13 * r13)
    rc = (r23 - r12 * r13) / (s2 * s3)
    out = np.empty(x.shape[0])
    block = max(1, _BLOCK_POINTS // _GL_NODES.size)
    for lo in range(0, x.shape[0], block):
        b = x[lo:lo + block]
        pa = _margin_cdf(c, b[:, 0])
        x1 = special.stdtrit(nu, np.clip(0.5 * pa[:, None] * (_GL_NODES + 1.0),
                                         1e-300, 1.0 - 1e-16))
        f = np.sqrt((nu + x1 * x1) / (nu + 1.0))
        h = (b[:, 1, None] - r12 * x1) / (s2 * f)
        k = (b[:, 2, None] - r13 * x1) / (s3 * f)
        inner = _t_cdf_2d(h, k, rc, nu + 1.0, _t_cdf(nu + 1.0, inner_table, h),
                          _t_cdf(nu + 1.0, inner_table, k))
        out[lo:lo + block] = 0.5 * pa * (inner @ _GL_WEIGHTS)
    return out


def _elliptical_cdf(c, rows):
    """C(u) for a batch of rows of a Gaussian or Student-t copula.

    A row with a coordinate <= 0 gives 0 and coordinates at 1 are dropped.
    Rows that keep the same coordinates are evaluated together on that
    sub-correlation: one vectorised call for two or three coordinates, and
    scipy with a fixed seed per row for four or more. The clamped u are the
    margins of the bivariate t rule.
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
        x = _margin_ppf(c, uu)
        if active.size <= 1:
            out[idx] = uu[:, 0] if active.size else 1.0
        elif active.size == 2:
            out[idx] = (_gauss_cdf_2d(x[:, 0], x[:, 1], sub[0, 1]) if gaussian
                        else _t_cdf_2d(x[:, 0], x[:, 1], sub[0, 1], c.nu, uu[:, 0], uu[:, 1]))
        elif active.size == 3:
            out[idx] = _gauss_cdf_3d(x, sub) if gaussian else _t_cdf_3d(c, x, sub)
        elif gaussian:
            out[idx] = [stats.multivariate_normal(
                cov=sub, seed=np.random.default_rng(0)).cdf(r) for r in x]
        else:
            out[idx] = [stats.multivariate_t(shape=sub, df=c.nu).cdf(
                r, random_state=np.random.default_rng(0)) for r in x]
    return out


def copula_cdf(c: CopulaSpec, u):
    """C(u) for one point (shape (d,)) or a batch (shape (N, d))."""
    rows, single = _prep_rows(u, c.dim)
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
    rows, single = _prep_rows(u, c.dim)
    rows = clamp_interior(rows)
    if isinstance(c, IndependenceCopula):
        out = np.zeros(rows.shape[0])
    elif isinstance(c, ArchimedeanCopula):
        out = archimedean_log_density(c.generator, rows)
    else:
        x = _margin_ppf(c, rows)
        sol = linalg.cho_solve((c._chol, True), x.T).T
        logdet = 2.0 * np.sum(np.log(np.diag(c._chol)))
        quad = np.sum(x * sol, axis=1)
        if isinstance(c, GaussianCopula):
            out = -0.5 * logdet - 0.5 * (quad - np.sum(x * x, axis=1))
        else:
            nu, d = c.nu, c.dim
            # the Gamma ratios without cancellation: with a = nu/2 and d = 2m + odd,
            # sum_{j<m} log1p((odd/2 + j)/a) - 2m (log Gamma(a + 1/2) - log Gamma(a) - log(a)/2)
            out = (np.sum(np.log1p((0.5 * (d % 2) + np.arange(d // 2)) / (0.5 * nu)))
                   - (d - d % 2) * (_t_log_pdf0(nu) - _LOG_PHI0) - 0.5 * logdet
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
    """Draw n samples; reproducible for a given Generator state. An ``n``
    that is not an integer >= 0 is a ``ParameterError`` naming it.

    Archimedean copulas are sampled by drawing the Kendall level
    z = K^-1(V) with V uniform and then sampling the level set exactly,
    which reproduces the unconditional copula. Elliptical copulas use the
    usual linear transform of normal / t variates.
    """
    check_count("n", n, 0)
    if n == 0:
        return np.empty((0, c.dim))
    if isinstance(c, IndependenceCopula):
        return rng.random((n, c.dim))
    if isinstance(c, ArchimedeanCopula):
        from .kendall import closed_form_kendall, kendall_inverse
        from .levelset import sample_levelset_conditional_batch

        v = rng.random(n)
        z = kendall_inverse(closed_form_kendall(c.generator, c.dim), v)
        return sample_levelset_conditional_batch(c.generator, c.dim, z, rng)
    x = rng.standard_normal((n, c.dim)) @ c._chol.T
    if isinstance(c, StudentTCopula):
        x = x / np.sqrt(rng.chisquare(c.nu, size=n) / c.nu)[:, None]
    return _margin_cdf(c, x)


def copula_sample_conditional(c: CopulaSpec, index: int, value: float,
                              n: int, rng) -> np.ndarray:
    """Sample n points of the copula with coordinate ``index`` fixed at ``value``.

    Returns an (n, d) matrix whose ``index`` column is constant; ``value`` in [0, 1].
    """
    if not 0 <= index < c.dim:
        raise DimensionError(f"index {index} out of range for dimension {c.dim}")
    check_probability("value", value, closed=True)
    check_count("n", n, 0)
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
    s12 = c.corr[np.ix_(rest, [index])]
    chol = np.linalg.cholesky(c.corr[np.ix_(rest, rest)] - s12 @ s12.T)
    x0 = float(_margin_ppf(c, value))
    x = rng.standard_normal((n, len(rest))) @ chol.T
    if isinstance(c, StudentTCopula):
        # given x0, the rest is a t law of nu + 1 degrees of freedom about x0 * s12
        nu = c.nu
        scale = np.sqrt((nu + x0 * x0) / (nu + 1.0))
        x = scale * x / np.sqrt(rng.chisquare(nu + 1.0, size=n) / (nu + 1.0))[:, None]
    out[:, rest] = _margin_cdf(c, x0 * s12[:, 0] + x)
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
    Archimedean kinds, otherwise Brent's method (``optimize.brentq``) on
    [1e-12, 1 - 1e-12]. An empty prefix returns z itself.
    """
    prefix = np.asarray(u_prefix, dtype=float).ravel()
    if prefix.size >= c.dim:
        raise DimensionError("prefix must leave at least one free coordinate")
    check_probability("z", z)
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
    if is_archimedean_kind(c):
        return replace(c, dim=2)
    return replace(c, corr=c.corr[np.ix_([i, j], [i, j])])


def elliptical_corr_from_tau(tau):
    """rho = sin(pi tau / 2), the elliptical-copula inversion of Kendall's tau."""
    return np.sin(0.5 * np.pi * np.asarray(tau, dtype=float))


def elliptical_tau_from_corr(rho):
    return 2.0 / np.pi * np.arcsin(np.asarray(rho, dtype=float))
