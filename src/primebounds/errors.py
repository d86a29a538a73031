"""The package's one error hierarchy.

Every error a caller can cause with bad input or a failed precondition is a
``ParameterError``; the command line maps it to exit code 2 in one place
(``cli``).  The subclasses only name what was wrong.
"""

from __future__ import annotations

__all__ = [
    "ParameterError",
    "PrecisionError",
    "DomainError",
    "BracketError",
    "ZeroDataError",
    "CoverageError",
]


class ParameterError(ValueError):
    """Bad input, or a precondition of a proven bound that does not hold."""


class PrecisionError(ParameterError):
    """A precision below the supported floor, or a computation that lost it."""


class DomainError(ParameterError):
    """A special function evaluated outside its domain."""


class BracketError(ParameterError):
    """solve_x_max could not bracket a root even after expansion."""


class ZeroDataError(ParameterError):
    """Malformed zero table (non-numeric, non-ascending, or nonpositive)."""


class CoverageError(ParameterError):
    """The loaded zero list does not reach the requested height."""
