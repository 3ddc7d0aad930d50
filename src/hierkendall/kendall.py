"""Kendall distribution functions.

The Kendall distribution function of a d-dimensional copula C is the CDF
of Z = C(U) for U ~ C. It is known in closed form for Archimedean copulas,

    K(t) = t + sum_{i=1}^{d-1} (1/i!) (-phi(t))^i (phi^-1)^(i)(phi(t)),

and is otherwise estimated by the empirical CDF of simulated Z values.
The closed form is evaluated in generator space, s = phi(t), as
K = sum_{i<d} T_i with T_i = s^i |(phi^-1)^(i)(s)| / i!, and inverted there
by Newton's method on log s, started from a table of K that one kernel
call builds on fixed levels. The terms come in log form from
``generators._log_terms``, the one implementation of the inverse-generator
derivatives. The Archimedean copula density is formed here too, from the
last of the same terms (``archimedean_node_step``). A closed form
exists up to dimension ``MAX_DERIVATIVE_ORDER`` (40), checked when it is
built. Both representations share one immutable value type with a CDF and a
(generalized) inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma, log

import numpy as np

from .errors import EvaluationError, ParameterError, ToleranceError, check_count, check_probability
from .generators import (  # noqa: F401  perfbench's tracer rebinds generator_inverse_derivative_log
    ArchimedeanGenerator,
    _log_terms,
    check_dimension,
    check_order,
    generator_derivative_log,
    generator_inverse_derivative_log,
    generator_value,
    independence_generator,
)

_INV_TOL = 1e-10
_XTOL = 1e-12       # Newton stops once a step in log s is this small (relative)
_MAX_ITER = 200     # bisection from the widest bracket needs about 60 steps
_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)
# Levels z = exp(-w) of the K table that starts K^-1, w log-spaced from 1e-7
# (z just below 1) to -log(tiny) (z at the smallest normal double)
_TABLE_LEVELS = np.exp(-np.geomspace(1e-7, -log(_TINY), 257))
MIN_KENDALL_MC = 1000  # smallest Monte Carlo size of an empirical Kendall function


@dataclass(frozen=True, eq=False)
class KendallFunction:
    """Closed-form (Archimedean) or empirical Kendall distribution function.

    Exactly one of ``generator`` (with kind="closed_form") or
    ``sorted_values`` (kind="empirical") is set. ``dim`` is the dimension
    of the underlying copula; dim = 1 makes the closed form the identity,
    and a closed form above ``MAX_DERIVATIVE_ORDER`` raises
    ``UnsupportedOrderError``.
    """

    kind: str
    dim: int
    generator: ArchimedeanGenerator | None = None
    sorted_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("closed_form", "empirical"):
            raise ParameterError(f"unknown Kendall function kind {self.kind!r}")
        check_count("dim", self.dim, 1)
        if self.kind == "closed_form":
            if self.generator is None:
                raise ParameterError("closed_form requires a generator")
            check_order(self.dim, "closed-form Kendall dimension")
            check_dimension(self.generator, self.dim)
        else:
            vals = np.asarray(self.sorted_values, dtype=float)
            if vals.ndim != 1 or vals.size == 0:
                raise ParameterError("empirical requires a 1-d value array")
            if np.any(np.diff(vals) < 0.0):
                raise ParameterError("empirical values must be sorted")
            check_probability("sorted_values", vals)
            object.__setattr__(self, "sorted_values", vals)


def closed_form_kendall(generator: ArchimedeanGenerator, dim: int) -> KendallFunction:
    return KendallFunction(kind="closed_form", dim=dim, generator=generator)


def identity_kendall() -> KendallFunction:
    """K(t) = t, the Kendall function of any one-dimensional copula."""
    return KendallFunction(kind="closed_form", dim=1, generator=independence_generator())


def empirical_kendall_from_values(values, dim: int) -> KendallFunction:
    """Empirical Kendall function from raw (unsorted) Z values."""
    return KendallFunction(kind="empirical", dim=dim, generator=None,
                           sorted_values=np.sort(np.asarray(values, dtype=float)))


def _log_phi(g: ArchimedeanGenerator, t):
    """log phi(t); Clayton's t^-theta - 1 overflows for small t, where it is -theta log t."""
    with np.errstate(divide="ignore", over="ignore"):
        out = np.log(generator_value(g, t))
    if g.family == "clayton":
        out = np.where(out == np.inf, -g.theta * np.log(t), out)
    return out


def _k_and_log_td(g: ArchimedeanGenerator, d: int, log_s, with_k: bool = True):
    """K = T_0 + ... + T_{d-1} (or None) and log T_d at s = exp(log_s).

    T_d gives both dK/dlog s (see ``_closed_form_kernel``) and the copula
    density (see ``_generator_sum_step``); it stays in log form because
    the density needs it where it leaves float range.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = _log_terms(g, range(d + 1) if with_k else (d,), log_s)
        if not with_k:
            return None, next(terms)
        k = np.exp(next(terms))
        for _, log_t in zip(range(1, d), terms):
            k = k + np.exp(log_t)
        return k, next(terms)


def _closed_form_kernel(g: ArchimedeanGenerator, d: int, log_s):
    """K and dK/dlog s at s = exp(log_s), for a d-dimensional Archimedean copula.

    K = T_0 + ... + T_{d-1} and, since the sum telescopes under d/ds,
    dK/dlog s = -d T_d = -s^d |(phi^-1)^(d)(s)| / (d-1)!.
    """
    k, log_td = _k_and_log_td(g, d, log_s)
    return k, -d * np.exp(log_td)


def open_unit(t):
    """Levels t clipped into (0, 1), the domain of ``kendall_cdf``: at the
    smallest normal double and the largest double below 1, so that a level
    computed as 0 or 1 is moved no further than float range requires."""
    return np.clip(t, _TINY, _BELOW_ONE)


def kendall_cdf(K: KendallFunction, t):
    """K(t) for t in (0,1); nondecreasing, identity when dim = 1."""
    scalar = np.isscalar(t)
    tt = np.asarray(t, dtype=float)
    check_probability("t", tt)
    if K.kind == "empirical":
        out = np.searchsorted(K.sorted_values, tt, side="right") / K.sorted_values.size
        out = out.astype(float)
    elif K.dim == 1:
        out = tt + 0.0
    else:
        out, _ = _k_and_log_td(K.generator, K.dim, _log_phi(K.generator, tt))
        out = np.clip(out, 0.0, 1.0)
    return float(out[()]) if scalar else out


def _generator_sum_step(g: ArchimedeanGenerator, u, with_v: bool):
    """(K or None, log c) from one generator sum, as ``archimedean_node_step``
    describes: the one place an Archimedean log-density is formed."""
    d = u.shape[1]
    s = np.sum(generator_value(g, u), axis=1)
    if not s.all():  # log T_d = -inf would meet -d log s = +inf
        raise EvaluationError(
            f"{g.family} theta={g.theta:.6g} d={d} copula density out of float range in "
            f"{s.size - np.count_nonzero(s)} of {s.size} rows: sum of phi(u_i) underflows to 0")
    log_s = np.log(s)
    k, log_td = _k_and_log_td(g, d, log_s, with_v)
    log_c = (log_td + (lgamma(d + 1) - d * log_s)
             + np.sum(generator_derivative_log(g, u), axis=1))
    if np.any(np.isnan(log_c)):
        raise EvaluationError("copula density evaluated to NaN")
    return k, log_c


def archimedean_node_step(g: ArchimedeanGenerator, u):
    """(V, log c) of a d-dimensional Archimedean copula on an N x d block of
    interior points, both from one generator sum s = sum_i phi(u_i).

    V = K(C(u)) is read off the Kendall kernel at log s without forming
    C = phi^-1(s), so it stays exact where C leaves float range.
    log c = log|(phi^-1)^(d)(s)| + sum_i log|phi'(u_i)|, with
    log|(phi^-1)^(d)(s)| = log T_d + log d! - d log s from the same kernel.
    At s = 0 (every phi(u_i) underflows) it raises ``EvaluationError``; at
    s = inf (Clayton's phi overflows) log c is -inf.
    """
    k, log_c = _generator_sum_step(g, u, True)
    return np.clip(k, 0.0, 1.0), log_c


def archimedean_log_density(g: ArchimedeanGenerator, u):
    """log c of ``archimedean_node_step`` alone: of the kernel's terms, only T_d."""
    return _generator_sum_step(g, u, False)[1]


def _table_start(g: ArchimedeanGenerator, d: int, p: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """Newton start for K(s) = p, read off one kernel call on ``_TABLE_LEVELS``.

    The table holds log s, K and dK/dlog s at s = phi(z) for fixed levels z,
    so no target moves it. Between two nodes, log s is the cubic Hermite
    interpolant in t = (K - K_j) / (K_{j+1} - K_j) with the end slopes of
    the same call; an interval where those slopes could make the cubic
    leave the interval (Fritsch-Carlson: outside 0..3 times the chord, or
    not finite) keeps the chord. A p above the table's largest K starts at
    the lower bracket ``lo``.
    """
    x = np.maximum(_log_phi(g, _TABLE_LEVELS), log(_TINY))  # the clamp of ``lo``
    k, dk = _closed_form_kernel(g, d, x)
    k = np.minimum.accumulate(k)  # rounding can lift K by an ulp near 1
    h, dx = np.diff(k), np.diff(x)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a, b = h / (dk[:-1] * dx), h / (dk[1:] * dx)  # end slopes over the chord's
        monotone = (a >= 0.0) & (a <= 3.0) & (b >= 0.0) & (b <= 3.0)
        a, b = np.where(monotone, a, 1.0), np.where(monotone, b, 1.0)
        # per interval: K_j and K_{j+1} - K_j to find t, and x_j + t (c1 + t (c2 + t c3))
        table = np.column_stack([k[:-1], h, x[:-1], a * dx,
                                 (3.0 - 2.0 * a - b) * dx, (a + b - 2.0) * dx])
        j = np.clip(np.searchsorted(-k, -p) - 1, 0, h.size - 1)
        k0, hj, x0, c1, c2, c3 = table[j].T
        t = np.clip((p - k0) / hj, 0.0, 1.0)
    return np.where(p >= k[0], lo, x0 + t * (c1 + t * (c2 + t * c3)))


def _solve_log_s(g: ArchimedeanGenerator, d: int, p: np.ndarray) -> np.ndarray:
    """log s with K(s) = p: Newton in log s inside a per-point bracket.

    K(s) >= phi^-1(s) puts the root at or above s = phi(p), the lower
    bracket. The upper bracket is phi at the smallest normal double; a root
    beyond it has a level z that underflows. Newton starts from a table of
    K (``_table_start``) clipped into the bracket, and so needs about two
    kernel evaluations per point. A Newton step that leaves the bracket is
    replaced by bisection, and only points that have not converged are
    evaluated again.
    """
    # phi(p) underflows only for p within ~1e-16 of 1
    lo = np.maximum(_log_phi(g, p), log(_TINY))
    hi = np.full_like(lo, _log_phi(g, _TINY))
    x = np.clip(_table_start(g, d, p, lo), lo, hi)
    act = np.arange(p.size)
    for _ in range(_MAX_ITER):
        xa, lo_a, hi_a = x[act], lo[act], hi[act]
        k, dk = _closed_form_kernel(g, d, xa)
        f = k - p[act]
        lo_a = np.where(f > 0.0, xa, lo_a)
        hi_a = np.where(f < 0.0, xa, hi_a)
        # dk can be subnormal: the step is then inf and fails the bracket test
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = -f / dk
        tol = _XTOL * (1.0 + np.abs(xa))
        converged = (f == 0.0) | (np.abs(step) <= tol)
        done = converged | (hi_a - lo_a <= tol)
        nxt = xa + np.where(f == 0.0, 0.0, step)
        newton = converged | ((nxt > lo_a) & (nxt < hi_a))
        x[act] = np.where(newton, nxt, 0.5 * (lo_a + hi_a))
        lo[act], hi[act] = lo_a, hi_a
        act = act[~done]
        if act.size == 0:
            break
    return x


def kendall_inverse(K: KendallFunction, p):
    """Solve K(z) = p.

    Closed form: safeguarded Newton in x = log s, s = phi(z), on the same
    kernel as ``kendall_cdf``; returns z = phi^-1(s) and raises
    ``ToleranceError`` naming the family, theta, d and the worst p when
    |K(z) - p| > 1e-10 or z is not representable in (0,1). Empirical: the
    left-continuous generalized inverse (smallest stored value whose
    empirical CDF is >= p).
    """
    scalar = np.isscalar(p)
    pp = np.asarray(p, dtype=float)
    check_probability("p", pp)
    if K.kind == "empirical":
        n = K.sorted_values.size
        idx = np.searchsorted(np.arange(1, n + 1) / n, pp, side="left")
        out = K.sorted_values[np.minimum(idx, n - 1)]
    elif K.dim == 1:
        out = pp + 0.0
    else:
        g, target = K.generator, np.ravel(pp)
        log_s = _solve_log_s(g, K.dim, target)
        with np.errstate(divide="ignore", invalid="ignore"):
            z = np.exp(next(_log_terms(g, (0,), log_s)))
        err = np.full(z.shape, np.inf)
        ok = (z > 0.0) & (z < 1.0)
        err[ok] = np.abs(kendall_cdf(K, z[ok]) - target[ok])
        bad = ~(err <= _INV_TOL)
        if np.any(bad):
            worst = int(np.argmax(np.where(bad, np.nan_to_num(err, nan=np.inf), -1.0)))
            raise ToleranceError(
                f"Kendall inverse missed tolerance {_INV_TOL:g} for {g.family} "
                f"theta={g.theta:.6g} d={K.dim}: worst p={target[worst]:.17g}, residual "
                f"{err[worst]:g}" + ("" if ok[worst] else
                                     f" (level z={z[worst]:g} not representable in (0,1))"))
        out = z.reshape(pp.shape)
    return float(out[()]) if scalar else out


def empirical_kendall_build(c, m: int, rng) -> KendallFunction:
    """Empirical Kendall function from m simulated Z = C(U) values of copula
    c; an m not an integer >= ``MIN_KENDALL_MC`` is a ``ParameterError``."""
    check_count("m", m, MIN_KENDALL_MC)
    from .copulas import copula_cdf, copula_sample

    u = copula_sample(c, m, rng)
    return empirical_kendall_from_values(open_unit(copula_cdf(c, u)), c.dim)
