"""Sampling from a copula restricted to a level set C(u) = z.

Each method fills one row per entry of a vector of levels z:

* ``sample_levelset_conditional_batch`` -- exact conditional-inverse
  sampling for Archimedean copulas. The conditional CDF of coordinate j
  given the previous ones and the level is
  ``(1 - phi(u) / (phi(z) - sum_{i<j} phi(u_i)))^(d-j)`` on
  (phi^-1(phi(z) - sum_{i<j} phi(u_i)), 1), which inverts in closed form.
* ``sample_levelset_projected_batch`` -- exact sampling through the
  simplex representation: u_j = phi^-1(s_j * phi(z)) with
  (s_1, ..., s_d) uniform on the unit simplex. Distributionally identical
  to the conditional method.
* ``sample_levelset_rejection_batch`` -- approximate sampling for
  arbitrary copulas: draw unconditionally and assign a candidate to a
  pending level when |C(u) - z| < eps(z). The absolute error of an
  accepted sample is bounded by eps and the relative error by eps/z; the
  relative rule eps(z) = eps0 * z therefore caps the relative error at
  eps0. A batch that leaves levels unfilled after ``MAX_ATTEMPTS``
  candidates, a module constant, raises ``RejectionCapError``: widen eps
  or reduce the dimension.

A single level is a one-element batch; a level outside (0, 1), or NaN, is a
``ParameterError``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .copulas import CopulaSpec, copula_cdf, copula_sample
from .errors import EvaluationError, ParameterError, RejectionCapError, check_probability
from .generators import (ArchimedeanGenerator, check_dimension, generator_inverse,
                         generator_value)

MAX_ATTEMPTS = 10_000_000  # candidates of one rejection batch

_REJECTION_CHUNK = 4096


@dataclass(frozen=True)
class EpsilonRule:
    """Acceptance band for rejection sampling: absolute or relative in z."""

    mode: str  # "abs" | "rel"
    value: float

    def __post_init__(self):
        if self.mode not in ("abs", "rel"):
            raise ParameterError(f"epsilon mode must be 'abs' or 'rel', got {self.mode!r}")
        if not self.value > 0.0:
            raise ParameterError("epsilon value must be positive")
        if self.mode == "rel" and not self.value < 1.0:
            # the batch sampler's two-neighbour search is optimal only for bands
            # narrower than the level itself
            raise ParameterError(f"relative epsilon must be below 1, got {self.value}")

    def epsilon(self, z: float) -> float:
        return self.value * z if self.mode == "rel" else self.value


DEFAULT_EPSILON_RULE = EpsilonRule("rel", 0.01)


def sample_levelset_conditional_batch(g: ArchimedeanGenerator, d: int, z,
                                      rng) -> np.ndarray:
    """Vectorized conditional-inverse sampling: one row per entry of z.

    Rows lie in (0, 1]; see ``_refuse_zeros`` for the refusal of the rest.
    """
    check_dimension(g, d)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    check_probability("z", z)
    n = z.size
    out = np.empty((n, d))
    if d == 1:
        out[:, 0] = z
        return out
    rem = generator_value(g, z).astype(float)  # phi(z) - sum_{i<j} phi(u_i)
    v = rng.random((n, d - 1))
    for j in range(1, d):
        frac = v[:, j - 1] ** (1.0 / (d - j))
        out[:, j - 1] = generator_inverse(g, rem * (1.0 - frac))
        rem = rem * frac
    out[:, d - 1] = generator_inverse(g, rem)
    return _refuse_zeros(g, d, out)


def sample_levelset_projected_batch(g: ArchimedeanGenerator, d: int, z,
                                    rng) -> np.ndarray:
    """Vectorized projected-distribution sampling: u_j = phi^-1(s_j phi(z)).

    Rows lie in (0, 1]; see ``_refuse_zeros`` for the refusal of the rest.
    """
    check_dimension(g, d)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    check_probability("z", z)
    n = z.size
    if d == 1:
        return z[:, None].copy()
    e = rng.standard_exponential((n, d))
    s = e / e.sum(axis=1, keepdims=True)  # uniform on the unit simplex
    return _refuse_zeros(g, d, generator_inverse(g, s * generator_value(g, z)[:, None]))


def _refuse_zeros(g: ArchimedeanGenerator, d: int, out: np.ndarray) -> np.ndarray:
    """``out`` if no row of an exact level-set sample holds a coordinate <= 0
    or NaN, else ``EvaluationError``: where phi(z) overflows (Clayton beyond
    tau of about 0.93), phi^-1(inf) = 0. An exact 1 is kept: phi^-1 of a
    share that rounds to 0 is a corner of the level set, such as
    (z, 1, ..., 1)."""
    bad = ~np.all(out > 0.0, axis=1)
    if bad.any():
        raise EvaluationError(
            f"level-set sample of {g.family} theta={g.theta:.6g} d={d} left (0,1) in "
            f"{np.count_nonzero(bad)} of {out.shape[0]} rows: phi is out of float range")
    return out


def sample_levelset_rejection_batch(c: CopulaSpec, z_targets, eps: EpsilonRule, rng):
    """Fill many level-set targets from one candidate stream.

    Implements the batch assignment used when simulating hierarchical
    models by rejection: every candidate u is matched against the pending
    target set D; if some |C(u) - z_j| < eps(z_j), the candidate is
    assigned to the nearest such z_j, which is then removed from D.

    Returns ``(samples, attempts)`` where samples has one row per target.
    ``MAX_ATTEMPTS``, read at each call, caps the candidates of the batch.
    """
    z_targets = np.atleast_1d(np.asarray(z_targets, dtype=float))
    check_probability("z_targets", z_targets)
    n = z_targets.size
    out = np.empty((n, c.dim))
    order = np.argsort(z_targets)
    pending_z = z_targets[order].tolist()   # sorted pending levels
    pending_ix = order.tolist()             # original row of each pending level
    attempts = 0
    while pending_z and attempts < MAX_ATTEMPTS:
        chunk = min(_REJECTION_CHUNK, MAX_ATTEMPTS - attempts)
        u = copula_sample(c, chunk, rng)
        cz = copula_cdf(c, u).tolist()
        for i, zi in enumerate(cz):
            if not pending_z:
                break
            attempts += 1
            pos = bisect.bisect_left(pending_z, zi)
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
