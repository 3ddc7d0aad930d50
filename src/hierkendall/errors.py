"""Exception types, and the count and probability checks, shared across the package."""

import numbers

import numpy as np


class HierKendallError(Exception):
    """Base class for all package errors."""


class ParameterError(HierKendallError, ValueError):
    """A copula or generator parameter is outside its admissible range.

    ``argument``, when set, names the function argument at fault, so that a
    front end can name the option it came from.
    """

    def __init__(self, message="", argument=None):
        super().__init__(message)
        self.argument = argument


class DomainError(HierKendallError, ValueError):
    """A function argument is outside the mathematical domain."""


class DimensionError(HierKendallError, ValueError):
    """Input dimension does not match the copula/model dimension."""


class UnsupportedOrderError(HierKendallError, ValueError):
    """Requested derivative order exceeds the configured maximum."""


class UnattainableTauError(ParameterError):
    """Requested Kendall's tau cannot be reached by the copula family."""


class NoSolutionError(HierKendallError, ValueError):
    """A quantile-curve equation has no solution in (0, 1)."""


class ToleranceError(HierKendallError, RuntimeError):
    """A numerical inversion finished without meeting its tolerance."""


class EvaluationError(HierKendallError, ArithmeticError):
    """A density or CDF evaluation produced a non-finite value."""


class RejectionCapError(HierKendallError, RuntimeError):
    """Rejection sampling exhausted its attempt budget."""

    def __init__(self, message, attempts):
        super().__init__(message)
        self.attempts = attempts


class ModelStructureError(HierKendallError, ValueError):
    """A hierarchical model violates its structural invariants."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class SameClusterError(HierKendallError, ValueError):
    """Cross-cluster operation called on variables of the same cluster."""


class DataError(HierKendallError, ValueError):
    """Input data (CSV content, constant columns, ...) is unusable."""


class ConfigError(HierKendallError, ValueError):
    """Model configuration file is invalid."""


def is_count(value) -> bool:
    """True for an integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_count(name: str, value, least: int) -> None:
    """Unless ``value`` is an integer (not a bool) >= ``least``, raise a ``ParameterError``
    naming ``name``: "<name> must be an integer >= <least>, got <value!r>"."""
    if not is_count(value) or value < least:
        raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}", name)


def check_probability(name: str, value, closed: bool = False) -> None:
    """Unless every element of ``value`` lies in (0, 1), or in [0, 1] when
    ``closed``, raise a ``ParameterError`` naming ``name``:
    "<name> must lie in (0, 1), got <first offending value!r>". NaN lies in neither."""
    arr = np.asarray(value)
    ok = (arr >= 0.0) & (arr <= 1.0) if closed else (arr > 0.0) & (arr < 1.0)
    if not ok.all():
        raise ParameterError(f"{name} must lie in {'[0, 1]' if closed else '(0, 1)'}, got "
                             f"{arr.flat[np.argmin(ok)].item()!r}", name)
