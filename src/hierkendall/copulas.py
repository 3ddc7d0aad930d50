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
evaluated together on that sub-correlation. Gaussian groups of two and
three coordinates use Genz's (2004) bivariate and trivariate rules, exact
to rounding (about 2e-10 where R is at the eigenvalue floor of 1e-10), on
one 20-node Gauss-Legendre rule. Student-t groups of two use Owen's
(1956) T-function decomposition carried over to the t law, exact to about
1e-12 for every real nu > 0; groups of three integrate that rule over the
first coordinate on a 96-node Gauss-Legendre rule in its marginal
probability (within 1e-5; 7e-6 at worst on the tests' grid). Four or more coordinates fall back to
scipy's Gaussian/t CDFs with a fixed seed for every row. Every rule is
fixed, so repeated calls agree bit for bit. All inputs are clamped to
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
    check_order,
    generator_derivative_log,
    generator_inverse,
    generator_inverse_derivative_log,
    generator_value,
    independence_generator,
)

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
        check_order(self.dim, "Archimedean copula dimension")
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
    """P(X1 <= a, X2 <= b) for standard bivariate normal, vectorized over a, b.

    Genz (2004), after Drezner & Wesolowsky (1990): for |rho| < 0.925 the
    20-node rule in the angle arcsin rho; otherwise Genz's expansion about
    the comonotone limit with the 20-node rule for its remainder, reaching
    rho < 0 through Phi2(a, b; rho) = Phi(a) - Phi2(a, -b; -rho). Both are
    exact to a few units of double rounding.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if abs(rho) > 1.0 - 1e-12:
        if rho > 0:  # comonotone limit
            return special.ndtr(np.minimum(a, b))
        return np.maximum(special.ndtr(a) + special.ndtr(b) - 1.0, 0.0)
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


def _t_cdf_3d(x, corr, nu):
    """P(T <= x) for the standard trivariate t(nu); x has shape (n, 3).

    The first coordinate is integrated out on the 96-node rule in its
    probability F(x1), the rest by the conditional law of (T2, T3) given
    T1, a bivariate t(nu + 1), through ``_t_cdf_2d``: within 1e-5 (7e-6 at
    worst on the tests' grid), the outer rule's error. Rows are evaluated in blocks of at most
    ``_BLOCK_POINTS`` (row, node) pairs.
    """
    r12, r13, r23 = corr[0, 1], corr[0, 2], corr[1, 2]
    s2 = np.sqrt(1.0 - r12 * r12)
    s3 = np.sqrt(1.0 - r13 * r13)
    rc = (r23 - r12 * r13) / (s2 * s3)
    out = np.empty(x.shape[0])
    block = max(1, _BLOCK_POINTS // _GL_NODES.size)
    for lo in range(0, x.shape[0], block):
        b = x[lo:lo + block]
        pa = special.stdtr(nu, b[:, 0])
        x1 = special.stdtrit(nu, np.clip(0.5 * pa[:, None] * (_GL_NODES + 1.0),
                                         1e-300, 1.0 - 1e-16))
        f = np.sqrt((nu + x1 * x1) / (nu + 1.0))
        h = (b[:, 1, None] - r12 * x1) / (s2 * f)
        k = (b[:, 2, None] - r13 * x1) / (s3 * f)
        inner = _t_cdf_2d(h, k, rc, nu + 1.0, special.stdtr(nu + 1.0, h),
                          special.stdtr(nu + 1.0, k))
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
        x = special.ndtri(uu) if gaussian else special.stdtrit(c.nu, uu)
        if active.size <= 1:
            out[idx] = uu[:, 0] if active.size else 1.0
        elif active.size == 2:
            out[idx] = (_gauss_cdf_2d(x[:, 0], x[:, 1], sub[0, 1]) if gaussian
                        else _t_cdf_2d(x[:, 0], x[:, 1], sub[0, 1], c.nu, uu[:, 0], uu[:, 1]))
        elif active.size == 3:
            out[idx] = _gauss_cdf_3d(x, sub) if gaussian else _t_cdf_3d(x, sub, c.nu)
        elif gaussian:
            out[idx] = [stats.multivariate_normal(
                cov=sub, seed=np.random.default_rng(0)).cdf(r) for r in x]
        else:
            out[idx] = [stats.multivariate_t(shape=sub, df=c.nu).cdf(
                r, random_state=np.random.default_rng(0)) for r in x]
    return out


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
        x = special.stdtrit(nu, rows)
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
    return special.stdtr(c.nu, z / np.sqrt(w)[:, None])


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
    x0 = float(special.stdtrit(nu, value))
    scale = np.sqrt((nu + x0 * x0) / (nu + 1.0))
    tvars = rng.standard_normal((n, len(rest_idx))) @ chol.T
    w = rng.chisquare(nu + 1.0, size=n) / (nu + 1.0)
    x = x0 * beta + scale * tvars / np.sqrt(w)[:, None]
    out[:, rest_idx] = special.stdtr(nu, x)
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
