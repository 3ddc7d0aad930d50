"""Archimedean generator families.

Implements the four completely monotone families used throughout the
package (independence, Clayton, Gumbel, Frank) with

* the generator ``phi`` and the log of its first derivative,
* the inverse generator ``phi^-1`` and its derivatives up to order
  ``MAX_DERIVATIVE_ORDER`` (needed by Kendall distribution functions and
  by Archimedean copula densities in moderate dimensions),
* conversions between the dependence parameter theta and Kendall's tau.

Generator conventions:

===============  =============================  ==========================
family           phi(t)                         phi^-1(s)
===============  =============================  ==========================
independence     -log t                         exp(-s)
clayton          t^-theta - 1                   (1 + s)^(-1/theta)
gumbel           (-log t)^theta                 exp(-s^(1/theta))
frank            -log(expm1(-theta t)           -log1p(expm1(-theta) e^-s)
                       / expm1(-theta))               / theta
===============  =============================  ==========================

Derivatives of ``phi^-1`` have one home, ``_log_terms``, which yields
log T_i = log(s^i |(phi^-1)^(i)(s)| / i!) for the requested orders i. They
are exact: Clayton and independence use product formulas; Gumbel and Frank
use recurrences on polynomial coefficients (Gumbel in x = s^(1/theta), Frank
in y = (1 - e^-theta) e^-s through the Eulerian polynomials of its
polylogarithm form), so no finite differencing is involved at any order.
The Kendall function K, its inverse and the Archimedean node step sum these
terms (see ``kendall``); ``generator_inverse_derivative_log`` is
log T_k + log k! - k log s, with the s = 0 limit taken explicitly, and
``generator_inverse_derivative`` its signed exponential, so the conditional
sampler reads the same kernel as K and the Archimedean copula density
(``kendall.archimedean_node_step``). ``check_order`` holds the
one cap, ``MAX_DERIVATIVE_ORDER``, where a dimension or order enters:
``ArchimedeanCopula``, closed-form ``KendallFunction`` and the two public
derivative functions. ``check_dimension`` holds the one domain rule of a
generator at a dimension (Frank with theta < 0 exists only at d = 2), for
those two and the exact level-set samplers.

All functions accept scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np
from scipy import integrate, optimize

from .errors import (DomainError, ParameterError, UnattainableTauError, UnsupportedOrderError,
                     check_count)

FAMILIES = ("independence", "clayton", "gumbel", "frank")

#: highest supported order of (phi^-1)^(k); covers cluster dimensions up to 40
MAX_DERIVATIVE_ORDER = 40

#: theta range searched when inverting Kendall's tau for the Frank family
_FRANK_THETA_MIN = 1e-6
_FRANK_THETA_MAX = 745.0


@dataclass(frozen=True)
class ArchimedeanGenerator:
    """A generator family tag plus its dependence parameter theta."""

    family: str
    theta: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown generator family {self.family!r}")
        th = float(self.theta)
        object.__setattr__(self, "theta", th)
        if self.family == "clayton" and not th > 0.0:
            raise ParameterError(f"clayton requires theta > 0, got {th}")
        if self.family == "gumbel" and not th >= 1.0:
            raise ParameterError(f"gumbel requires theta >= 1, got {th}")
        if self.family == "frank" and th == 0.0:
            raise ParameterError("frank requires theta != 0")
        if not math.isfinite(th):
            raise ParameterError(f"theta must be finite, got {th}")


def independence_generator() -> ArchimedeanGenerator:
    return ArchimedeanGenerator("independence", 0.0)


def _as_array(x, name, lo_open=False, hi=None):
    """``x`` as a float array, if >= 0 (> 0 if ``lo_open``) and <= ``hi``; NaN fails."""
    arr = np.asarray(x, dtype=float)
    if not ((arr > 0.0) if lo_open else (arr >= 0.0)).all():
        raise DomainError(f"{name} out of domain: min={arr.min()}")
    if hi is not None and not (arr <= hi).all():
        raise DomainError(f"{name} out of domain: max={arr.max()}")
    return arr


def _scalarize(arr, scalar_input):
    return float(arr) if scalar_input else arr


def _log_abs_expm1(x):
    """log|e^x - 1|, accurate for all finite x without overflow.

    Branches keep both the log1p argument away from -1 and the log argument
    away from 1, so the result carries full relative precision even when it
    is tiny (|x| large) or x is near 0.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = np.where(x > 0.0, x, 0.0) + np.log1p(-np.exp(-ax))  # |x| >= 0.5
    with np.errstate(divide="ignore", over="ignore"):  # discarded where it overflows
        near = np.log(np.abs(np.expm1(x)))                        # |x| < 0.5
    return np.where(ax >= 0.5, far, near)


def generator_value(g: ArchimedeanGenerator, t):
    """phi(t) for t in (0, 1]; phi(1) = 0 exactly."""
    scalar = np.isscalar(t)
    tt = _as_array(t, "t", lo_open=True, hi=1.0)
    if g.family == "independence":
        out = -np.log(tt) + 0.0
    elif g.family == "clayton":
        with np.errstate(over="ignore"):  # t^-theta beyond float range: phi = inf
            out = np.expm1(-g.theta * np.log(tt))  # t^-theta - 1, exact 0 at t=1
    elif g.family == "gumbel":
        out = (-np.log(tt)) ** g.theta
    else:  # frank
        out = _log_abs_expm1(-g.theta) - _log_abs_expm1(-g.theta * tt)
        out = np.where(tt == 1.0, 0.0, out)
    return _scalarize(out, scalar)


def generator_inverse(g: ArchimedeanGenerator, s):
    """phi^-1(s) for s >= 0; phi^-1(0) = 1 exactly, strictly decreasing."""
    scalar = np.isscalar(s)
    ss = _as_array(s, "s")
    if g.family == "independence":
        out = np.exp(-ss)
    elif g.family == "clayton":
        out = np.exp(-np.log1p(ss) / g.theta)
    elif g.family == "gumbel":
        out = np.exp(-(ss ** (1.0 / g.theta)))
    else:  # frank
        out = -_frank_y(g.theta, ss)[2] / g.theta
    out = np.where(ss == 0.0, 1.0, out)
    return _scalarize(out, scalar)


def generator_derivative_log(g: ArchimedeanGenerator, t):
    """log |phi'(t)| without overflow near the t = 0 boundary."""
    scalar = np.isscalar(t)
    tt = _as_array(t, "t", lo_open=True, hi=1.0)
    if g.family == "independence":
        out = -np.log(tt)
    elif g.family == "clayton":
        out = math.log(g.theta) - (g.theta + 1.0) * np.log(tt)
    elif g.family == "gumbel":
        with np.errstate(divide="ignore"):
            out = math.log(g.theta) + (g.theta - 1.0) * np.log(-np.log(tt)) - np.log(tt)
    else:  # frank
        out = math.log(abs(g.theta)) - _log_abs_expm1(g.theta * tt)
    return _scalarize(out, scalar)


# ---------------------------------------------------------------------------
# derivatives of phi^-1
# ---------------------------------------------------------------------------

@lru_cache(maxsize=512)
def _gumbel_coeffs(alpha: float, k: int) -> tuple:
    """Coefficients of Q_k with (phi^-1)^(k)(s) = exp(-x) Q_k(x) s^-k, x=s^alpha.

    Recurrence: Q_{k+1}(x) = alpha*x*(Q_k'(x) - Q_k(x)) - k*Q_k(x). For
    alpha <= 1 both parts of a new coefficient carry the sign (-1)^k, so the
    coefficients of one order share that sign and are formed without
    cancellation.
    """
    if k == 0:
        return (1.0,)
    q = np.array(_gumbel_coeffs(alpha, k - 1) + (0.0,))
    nxt = (alpha * np.arange(k + 1) - (k - 1)) * q
    nxt[1:] -= alpha * q[:-1]
    return tuple(nxt)


@lru_cache(maxsize=64)
def _eulerian_coeffs(n: int) -> tuple:
    """Eulerian numbers A(n, 0..n-1), the ascending coefficients of A_n.

    Recurrence: A(n, j) = (j+1) A(n-1, j) + (n-j) A(n-1, j-1); A_0 = 1.
    The numbers are positive, so A_n(y) has no cancellation for y > 0.
    """
    if n == 0:
        return (1.0,)
    prev = _eulerian_coeffs(n - 1) + (0.0,)
    return tuple((j + 1) * prev[j] + ((n - j) * prev[j - 1] if j else 0.0)
                 for j in range(n))


def _polyval_ascending(coeffs, x):
    """sum_j coeffs[j] x^j by Horner's rule; a constant stays constant at x = +/-inf."""
    out = np.full_like(x, coeffs[-1], dtype=float)
    for c in reversed(coeffs[:-1]):
        out = out * x + c
    return out


def _frank_y(theta, s):
    """y = (1 - e^-theta) e^-s for Frank, with log|y| and log(1 - y).

    phi^-1(s) = -log(1 - y)/theta, and the derivatives have the
    polylogarithm form (phi^-1)^(k)(s) = (-1)^k y A_{k-1}(y) / (theta (1-y)^k)
    with Eulerian polynomials A_n. log|y| is formed directly, so it stays
    finite where y underflows (s > 745).
    """
    log_y = _log_abs_expm1(-theta) - s
    if theta > 0.0:
        y = np.exp(log_y)
        # 1 - y == (1 - e^-s) + e^-(theta+s) keeps full precision as y -> 1,
        # where y itself may round to 1 (log1p(-1) is discarded by the where)
        with np.errstate(divide="ignore"):
            log_1my = np.where(y < 0.5, np.log1p(-y),
                               np.log(-np.expm1(-s) + np.exp(-theta - s)))
    else:
        with np.errstate(over="ignore"):  # theta < -709.78: y = -inf near s = 0
            y = -np.exp(log_y)
        log_1my = np.logaddexp(0.0, log_y)
    return y, log_y, log_1my


def _log_rising_factorials(a: float, n: int) -> list:
    """log (a)_i for i = 0..n, (a)_i = a (a + 1) ... (a + i - 1), summed term
    by term: lgamma(a + i) - lgamma(a) loses about eps lgamma(a) to
    cancellation, 4e-3 at a = 1e12 (Clayton theta = 1e-12)."""
    return list(itertools.accumulate((math.log(a + j) for j in range(n)), initial=0.0))


def _log_terms(g: ArchimedeanGenerator, orders, log_s):
    """Yield log T_i(s) for i in ``orders``, T_i = s^i |(phi^-1)^(i)(s)| / i!.

    The one place |(phi^-1)^(i)| is computed. T_0 = phi^-1(s) is the level
    z itself. The family's s-dependent quantities are formed once and shared
    by all orders, in log form so that neither s -> 0 nor large s over- or
    underflows; at s = 0 the terms of order i >= 1 are 0 (log -inf).
    """
    th = g.theta
    if g.family == "independence":
        s = np.exp(log_s)
        for i in orders:
            yield -s if i == 0 else i * log_s - s - lgamma(i + 1)
    elif g.family == "clayton":
        # T_i = (a)_i / i! * (1+s)^-a * (s/(1+s))^i, a = 1/theta
        # (1+s)^-a and s/(1+s) from one logaddexp: with e = log(1 + e^-|log s|),
        # max(+/-log s, 0) + e equals logaddexp(0, +/-log s) bit for bit
        a = 1.0 / th
        e = np.logaddexp(0.0, -np.abs(log_s))
        base = -a * (np.maximum(log_s, 0.0) + e)
        log_r = -(np.maximum(-log_s, 0.0) + e)
        log_rf = _log_rising_factorials(a, max(orders))
        for i in orders:
            yield base if i == 0 else log_rf[i] - lgamma(i + 1) + base + i * log_r
    elif g.family == "gumbel":
        # T_i = e^-x |Q_i(x)| / i!, x = s^(1/theta); Q_i(0) = 0 and the
        # coefficients of Q_i share one sign, so |Q_i(x)| = x sum |q_j| x^(j-1)
        alpha = 1.0 / th
        log_x = alpha * log_s
        x = np.exp(log_x)
        for i in orders:
            yield -x if i == 0 else (-x + log_x + np.log(_polyval_ascending(
                np.abs(_gumbel_coeffs(alpha, i)[1:]), x)) - lgamma(i + 1))
    else:  # frank: T_i = s^i |y A_{i-1}(y)| / (i! |theta| (1 - y)^i), see _frank_y
        y, log_y, log_1my = _frank_y(th, np.exp(log_s))
        log_theta = math.log(abs(th))
        log_ratio = log_s - log_1my
        for i in orders:
            yield np.log(np.abs(log_1my)) - log_theta if i == 0 else (
                i * log_ratio + log_y
                + np.log(np.abs(_polyval_ascending(_eulerian_coeffs(i - 1), y)))
                - log_theta - lgamma(i + 1))


def _log_inv_deriv_at_zero(g: ArchimedeanGenerator, k: int) -> float:
    """log |(phi^-1)^(k)(0)|, the s -> 0 limit that the T form cannot give."""
    th = g.theta
    if g.family == "independence":
        return 0.0
    if g.family == "clayton":
        return _log_rising_factorials(1.0 / th, k)[k]
    if g.family == "gumbel":  # diverges unless theta = 1 (independence-shaped)
        return 0.0 if th == 1.0 else math.inf
    y0 = -math.expm1(-th)
    return (math.log(abs(y0 * _polyval_ascending(_eulerian_coeffs(k - 1), y0)))
            + k * th - math.log(abs(th)))


def check_order(k: int, what: str = "derivative order") -> None:
    """Raise ``UnsupportedOrderError`` for k above ``MAX_DERIVATIVE_ORDER``."""
    if k > MAX_DERIVATIVE_ORDER:
        raise UnsupportedOrderError(
            f"{what} {k} above supported maximum {MAX_DERIVATIVE_ORDER}")


def check_dimension(g: ArchimedeanGenerator, d: int) -> None:
    """Raise ``ParameterError`` where ``g`` generates no copula at dimension
    ``d``: a negative-dependence Frank generator is 2-monotone only."""
    if g.family == "frank" and g.theta < 0.0 and d > 2:
        raise ParameterError(f"negative-dependence frank copula (theta={g.theta:.6g}) "
                             f"only exists for d = 2, got d = {d}")


def generator_inverse_derivative(g: ArchimedeanGenerator, s, k: int):
    """(phi^-1)^(k)(s) for s >= 0 and 0 <= k <= MAX_DERIVATIVE_ORDER.

    k = 0 reduces to ``generator_inverse``. Values alternate in sign with k
    (complete monotonicity), except for Frank with theta < 0, where the
    sign is (-1)^k sign A_{k-1}(y) and changes with s once k >= 3. Values
    beyond float range, such as the Gumbel derivatives at s = 0 for
    theta > 1, are returned as their signed limit (+/-inf).
    """
    check_count("k", k, 0)
    check_order(k)
    if k == 0:
        return generator_inverse(g, s)
    log_abs = generator_inverse_derivative_log(g, s, k)
    sign = (-1.0) ** k
    if g.family == "frank" and g.theta < 0.0:
        y = _frank_y(g.theta, np.asarray(s, dtype=float))[0]
        sign = sign * np.sign(_polyval_ascending(_eulerian_coeffs(k - 1), y))
    with np.errstate(over="ignore"):
        return _scalarize(sign * np.exp(log_abs), np.isscalar(s))


def generator_inverse_derivative_log(g: ArchimedeanGenerator, s, k: int):
    """log |(phi^-1)^(k)(s)| without overflow, for k >= 1.

    Complements ``generator_inverse_derivative`` where the direct value
    would leave float range (very large phi values under Clayton, strong
    Frank dependence). It is log T_k + log k! - k log s from the kernel
    that K uses, with the s = 0 limit taken explicitly.
    """
    check_count("k", k, 1)
    check_order(k)
    scalar = np.isscalar(s)
    ss = _as_array(s, "s")
    with np.errstate(divide="ignore", invalid="ignore"):
        log_s = np.log(ss)
        out = next(_log_terms(g, (k,), log_s)) + (lgamma(k + 1) - k * log_s)
    if not ss.all():  # some s = 0, where T_k = 0 and the log form above is NaN
        out = np.where(ss == 0.0, _log_inv_deriv_at_zero(g, k), out)
    return _scalarize(out, scalar)


# ---------------------------------------------------------------------------
# Kendall's tau conversions
# ---------------------------------------------------------------------------

def _debye1_integrand(x):
    if x == 0.0:
        return 1.0
    if x > 700.0:  # e^x overflows; x/(e^x - 1) ~ x e^-x
        return x * math.exp(-x)
    return x / math.expm1(x)


def debye1(theta: float) -> float:
    """Debye function of order 1, D1(theta) = (1/theta) * int_0^theta t/(e^t-1) dt."""
    if theta == 0.0:
        return 1.0
    val, _ = integrate.quad(_debye1_integrand, 0.0, theta, limit=200)
    return val / theta


def tau_from_theta(g: ArchimedeanGenerator) -> float:
    """Kendall's tau implied by the generator parameter."""
    if g.family == "independence":
        return 0.0
    if g.family == "clayton":
        return g.theta / (g.theta + 2.0)
    if g.family == "gumbel":
        return 1.0 - 1.0 / g.theta
    th = abs(g.theta)
    tau = 1.0 + 4.0 / th * (debye1(th) - 1.0)
    return math.copysign(tau, g.theta)


def theta_from_tau(family: str, tau: float) -> ArchimedeanGenerator:
    """Generator whose Kendall's tau equals ``tau`` (Frank solved numerically)."""
    tau = float(tau)
    if family == "independence":
        if tau != 0.0:
            raise UnattainableTauError("independence family has tau = 0 only")
        return independence_generator()
    if family == "clayton":
        if not 0.0 < tau < 1.0:
            raise UnattainableTauError(f"clayton requires tau in (0,1), got {tau}")
        return ArchimedeanGenerator("clayton", 2.0 * tau / (1.0 - tau))
    if family == "gumbel":
        if not 0.0 < tau < 1.0:
            raise UnattainableTauError(f"gumbel requires tau in (0,1), got {tau}")
        return ArchimedeanGenerator("gumbel", 1.0 / (1.0 - tau))
    if family == "frank":
        if not -1.0 < tau < 1.0 or tau == 0.0:
            raise UnattainableTauError(
                f"frank requires tau in (-1,1) excluding 0, got {tau}")
        target = abs(tau)
        lo, hi = _FRANK_THETA_MIN, _FRANK_THETA_MAX
        tau_hi = 1.0 + 4.0 / hi * (debye1(hi) - 1.0)
        if target >= tau_hi:
            raise UnattainableTauError(f"frank tau {tau} outside searchable range")
        theta = optimize.brentq(
            lambda th: 1.0 + 4.0 / th * (debye1(th) - 1.0) - target,
            lo, hi, xtol=1e-10, rtol=8.881784197001252e-16)
        if tau < 0.0 and theta > 708.0:
            # exp(|theta|) must stay finite for negative-dependence evaluation
            raise UnattainableTauError(f"frank tau {tau} too close to -1")
        return ArchimedeanGenerator("frank", math.copysign(theta, tau))
    raise ParameterError(f"unknown generator family {family!r}")
