"""Extended-precision arithmetic context and the special functions used everywhere else.

All real-valued analytic evaluation in this package flows through mpmath's
``mpf`` type under a configurable binary precision (default 192 bits, never
below 100).  The three functions the rest of the package needs beyond plain
arithmetic are provided here:

* ``ei`` / ``li`` -- the exponential integral and the logarithmic integral
  (Cauchy principal value),
* ``bessel_i1`` -- the modified Bessel function I_1, from ``mp.besseli``,
* ``d_of``      -- the ratio D(c0) = sqrt(pi*c0/2) * I_1(c0)/sinh(c0), which
  sandwiches I_1(c)/(2 sinh c) between D(c0)/sqrt(2 pi c) and 1/sqrt(2 pi c)
  for all c >= c0.

Ei is summed by its convergent power series in fixed-point integer
arithmetic for 1 <= y <= 0.75 * precision, the range where the stepping
verifier anchors (y up to 103), and where from about y = 60 on this is
faster than ``mp.ei``; everywhere else it comes from ``mp.ei``.  I_1 comes
straight from ``mp.besseli``; the tests check it against a direct summation
of its defining series.  Results are deterministic for a fixed precision
setting.

Concurrency: every function is pure, but mpmath's precision context is
process-global.  Concurrent use is safe when the precision is set once at
startup and per-call ``prec`` overrides all agree with it; mixing precisions
across threads is not supported.
"""

from __future__ import annotations

from contextlib import contextmanager

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, to_fixed

from .errors import DomainError, PrecisionError

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "MIN_PRECISION_BITS",
    "set_default_precision",
    "get_default_precision",
    "working_precision",
    "ei",
    "li",
    "bessel_i1",
    "d_of",
]

MIN_PRECISION_BITS = 100
DEFAULT_PRECISION_BITS = 192

_precision_bits = DEFAULT_PRECISION_BITS


def set_default_precision(bits: int) -> None:
    """Set the package-wide working precision in bits (>= 100).

    Intended to be called once at startup; evaluation functions also accept
    a per-call ``prec`` override, which is how modules that need extra head
    room (the stepping verifier) raise precision without mutating the
    global setting.
    """
    global _precision_bits
    if bits < MIN_PRECISION_BITS:
        raise PrecisionError(
            f"precision {bits} bits is below the {MIN_PRECISION_BITS}-bit floor"
        )
    _precision_bits = int(bits)


def get_default_precision() -> int:
    return _precision_bits


@contextmanager
def working_precision(bits: int | None = None):
    """Context manager running mpmath at the given (or default) precision."""
    bits = _precision_bits if bits is None else int(bits)
    if bits < MIN_PRECISION_BITS:
        raise PrecisionError(
            f"precision {bits} bits is below the {MIN_PRECISION_BITS}-bit floor"
        )
    with mp.workprec(bits):
        yield mp


# Ei takes the fixed-point series for 1 <= y <= this fraction of the
# precision in bits, and mp.ei elsewhere
_SERIES_TO = 0.75
_MAX_TERMS = 100_000
_OVERFLOW_ARG = 1e9  # exp() beyond this is refused rather than silently huge


def _ei_series_fixed(y: mpf, prec: int) -> mpf:
    # sum_{n>=1} y^n/(n*n!) in fixed point; valid and fast for y >= 1
    w = prec + 30
    yfix = to_fixed(y._mpf_, w)
    term = 1 << w
    total = 0
    n = 1
    n_floor = int(y) + 2
    while n < _MAX_TERMS:
        term = (term * yfix >> w) // n
        total += term // n
        n += 1
        if n > n_floor and term <= (total >> (prec + 8)) + 1:
            break
    else:
        raise PrecisionError(f"Ei series did not converge in {_MAX_TERMS} terms")
    return mpf(from_man_exp(total, -w, prec, "n"))


def ei(y, prec: int | None = None) -> mpf:
    """Exponential integral Ei(y) (principal value for y > 0).

    li(x) = Ei(log x); this is the workhorse behind every li call.
    """
    with working_precision(prec):
        prec = mp.prec
        y = mpf(y)
        if y == 0:
            raise DomainError("Ei has a logarithmic singularity at 0")
        if abs(y) > _OVERFLOW_ARG:
            raise OverflowError(f"exp({y}) exceeds the supported range")
        if not 1 <= y <= _SERIES_TO * prec:
            return mp.ei(y)
        return +(mp.euler + mp.log(y) + _ei_series_fixed(y, prec))


def li(x, prec: int | None = None) -> mpf:
    """Logarithmic integral li(x), the principal value of int_0^x dt/log t.

    Defined for x >= 0, x != 1.  li(0) = 0; x = 1 is a hard domain error
    (the integrand's singularity is not integrable there), as is x < 0.
    """
    with working_precision(prec):
        x = mpf(x)
        if x < 0:
            raise DomainError("li is not defined for negative arguments")
        if x == 0:
            return mpf(0)
        if x == 1:
            raise DomainError("li diverges at x = 1")
        return ei(mp.log(x), prec=mp.prec)


def bessel_i1(c, prec: int | None = None) -> mpf:
    """Modified Bessel function of the first kind, I_1(c), for c >= 0."""
    with working_precision(prec):
        c = mpf(c)
        if c < 0:
            raise DomainError("bessel_i1 requires c >= 0")
        if c > _OVERFLOW_ARG:
            raise OverflowError(f"exp({c}) exceeds the supported range")
        if c == 0:
            return mpf(0)
        return +mp.besseli(1, c)


def d_of(c0, prec: int | None = None) -> mpf:
    """D(c0) = sqrt(pi c0 / 2) * I_1(c0) / sinh(c0) for c0 > 0.

    Tends to 1 from below as c0 grows; D(c0)/sqrt(2 pi c) is the lower
    sandwich bound on I_1(c)/(2 sinh c) for every c >= c0.
    """
    with working_precision(prec):
        c0 = mpf(c0)
        if c0 <= 0:
            raise DomainError("d_of requires c0 > 0")
        return +(mp.sqrt(mp.pi * c0 / 2) * bessel_i1(c0, prec=mp.prec) / mp.sinh(c0))
