"""Kendall distribution functions.

The Kendall distribution function of a d-dimensional copula C is the CDF
of Z = C(U) for U ~ C. It is known in closed form for Archimedean copulas,

    K(t) = t + sum_{i=1}^{d-1} (1/i!) (-phi(t))^i (phi^-1)^(i)(phi(t)),

and is otherwise estimated by the empirical CDF of simulated Z values.
Both representations share one immutable value type with a CDF and a
(generalized) inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lgamma

import numpy as np

from .errors import DomainError, ParameterError, ToleranceError
from .generators import (
    ArchimedeanGenerator,
    generator_inverse_derivative_log,
    generator_value,
    independence_generator,
)

_INV_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class KendallFunction:
    """Closed-form (Archimedean) or empirical Kendall distribution function.

    Exactly one of ``generator`` (with kind="closed_form") or
    ``sorted_values`` (kind="empirical") is set. ``dim`` is the dimension
    of the underlying copula; dim = 1 makes the closed form the identity.
    """

    kind: str
    dim: int
    generator: ArchimedeanGenerator | None = None
    sorted_values: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("closed_form", "empirical"):
            raise ParameterError(f"unknown Kendall function kind {self.kind!r}")
        if self.dim < 1:
            raise ParameterError("dimension must be >= 1")
        if self.kind == "closed_form":
            if self.generator is None:
                raise ParameterError("closed_form requires a generator")
        else:
            vals = np.asarray(self.sorted_values, dtype=float)
            if vals.ndim != 1 or vals.size == 0:
                raise ParameterError("empirical requires a 1-d value array")
            if np.any(np.diff(vals) < 0.0):
                raise ParameterError("empirical values must be sorted")
            if np.any((vals <= 0.0) | (vals >= 1.0)):
                raise ParameterError("empirical values must lie in (0,1)")
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


def kendall_cdf(K: KendallFunction, t):
    """K(t) for t in (0,1); nondecreasing, identity when dim = 1."""
    scalar = np.isscalar(t)
    tt = np.asarray(t, dtype=float)
    if np.any((tt <= 0.0) | (tt >= 1.0)):
        raise DomainError("Kendall CDF argument must lie in (0,1)")
    if K.kind == "empirical":
        out = np.searchsorted(K.sorted_values, tt, side="right") / K.sorted_values.size
        out = out.astype(float)
    elif K.dim == 1:
        out = tt + 0.0
    else:
        g = K.generator
        s = np.atleast_1d(generator_value(g, tt))
        out = np.atleast_1d(np.asarray(tt, dtype=float)).copy()
        pos = s > 0.0
        with np.errstate(divide="ignore"):
            log_s = np.where(pos, np.log(np.where(pos, s, 1.0)), -np.inf)
        for i in range(1, K.dim):
            # (1/i!) (-s)^i (phi^-1)^(i)(s); each summand is nonnegative
            log_term = i * log_s - lgamma(i + 1) + generator_inverse_derivative_log(g, s, i)
            out = out + np.where(pos, np.exp(log_term), 0.0)
        out = np.clip(out, 0.0, 1.0).reshape(np.shape(tt))
    return float(out[()]) if scalar else out


def kendall_inverse(K: KendallFunction, p):
    """Solve K(t) = p.

    Closed form: bisection until |K(t) - p| < 1e-10. Empirical: the
    left-continuous generalized inverse (smallest stored value whose
    empirical CDF is >= p).
    """
    scalar = np.isscalar(p)
    pp = np.asarray(p, dtype=float)
    if np.any((pp <= 0.0) | (pp >= 1.0)):
        raise DomainError("Kendall inverse argument must lie in (0,1)")
    if K.kind == "empirical":
        n = K.sorted_values.size
        idx = np.searchsorted(np.arange(1, n + 1) / n, pp, side="left")
        out = K.sorted_values[np.minimum(idx, n - 1)]
    elif K.dim == 1:
        out = pp + 0.0
    else:
        # K(t) >= t pins the root into (0, p]
        lo = np.full(pp.shape, 1e-300)
        hi = np.minimum(pp, 1.0 - 1e-16) + 0.0
        flat_lo, flat_hi = np.ravel(lo), np.ravel(hi)
        target = np.ravel(pp)
        for _ in range(200):
            mid = 0.5 * (flat_lo + flat_hi)
            below = kendall_cdf(K, np.clip(mid, 1e-300, 1.0 - 1e-16)) < target
            flat_lo = np.where(below, mid, flat_lo)
            flat_hi = np.where(below, flat_hi, mid)
            if np.all(flat_hi - flat_lo < 1e-15):
                break
        out = (0.5 * (flat_lo + flat_hi)).reshape(pp.shape)
        err = np.abs(kendall_cdf(K, np.clip(out, 1e-300, 1.0 - 1e-16)) - pp)
        if np.any(err > _INV_TOL):
            raise ToleranceError(
                f"Kendall inverse missed tolerance: max residual {float(np.max(err)):g}")
    return float(out[()]) if scalar else out


def empirical_kendall_build(c, m: int, rng) -> KendallFunction:
    """Empirical Kendall function from m simulated Z = C(U) values of copula c."""
    if m < 1000:
        raise ParameterError("Monte Carlo size m must be >= 1000")
    from .copulas import clamp_interior, copula_cdf, copula_sample

    u = copula_sample(c, m, rng)
    z = clamp_interior(copula_cdf(c, u))
    return empirical_kendall_from_values(z, c.dim)
