"""Extended-precision arithmetic context and the special functions used everywhere else.

All real-valued analytic evaluation in this package flows through mpmath's
``mpf`` type at the precision of the innermost ``working_precision(bits)``
scope (192 bits outside any, never below 100).  That scope is the one way to
set it: the package's functions evaluate at its bits, and one that needs more
head room (the stepping verifier) opens a scope of its own.  The three
functions the rest of the package needs beyond plain arithmetic are
provided here:

* ``ei`` / ``li`` -- the exponential integral and the logarithmic integral
  (Cauchy principal value),
* ``bessel_i1`` -- the modified Bessel function I_1, from ``mp.besseli``,
* ``d_of``      -- the ratio D(c0) = sqrt(pi*c0/2) * I_1(c0)/sinh(c0), which
  sandwiches I_1(c)/(2 sinh c) between D(c0)/sqrt(2 pi c) and 1/sqrt(2 pi c)
  for all c >= c0.

Ei is summed by its convergent power series in fixed-point integer
arithmetic for 1 <= y <= 0.75 * precision, the range where the stepping
verifier anchors (once per chunk, at y from 42 to 102), and where from
about y = 60 on this is faster than ``mp.ei``; everywhere else it comes
from ``mp.ei``.  Each term is multiplied by y's own mantissa and shifted by
its exponent, which floors the same products as y's fixed-point value does
on a much shorter factor: a stepping-grid point has about 90 significant
bits against the sum's precision + 30.  I_1 comes
straight from ``mp.besseli``; the tests check it against a direct summation
of its defining series.  Results are deterministic for a fixed precision
setting.

Concurrency: every function is pure, and the scope's bits are a context
variable, but the scope also sets mpmath's ``mp.prec``, which is
process-global.  Running scopes of different precisions in concurrent
threads is not supported.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp

from .errors import DomainError, PrecisionError

__all__ = [
    "DEFAULT_PRECISION_BITS",
    "MIN_PRECISION_BITS",
    "get_default_precision",
    "working_precision",
    "ei",
    "li",
    "bessel_i1",
    "d_of",
]

MIN_PRECISION_BITS = 100
DEFAULT_PRECISION_BITS = 192

_bits = ContextVar("working_precision_bits", default=DEFAULT_PRECISION_BITS)


def get_default_precision() -> int:
    """The bits of the innermost ``working_precision`` scope (192 outside any)."""
    return _bits.get()


@contextmanager
def working_precision(bits: int | None = None):
    """Scope running the package, and mpmath, at ``bits`` (>= 100).

    Without ``bits`` it re-enters the innermost scope's precision, which is
    how every function of the package sets mpmath's precision for its own
    evaluation.  Scopes nest, and each restores the one outside it on exit.
    """
    bits = _bits.get() if bits is None else int(bits)
    if bits < MIN_PRECISION_BITS:
        raise PrecisionError(
            f"precision {bits} bits is below the {MIN_PRECISION_BITS}-bit floor"
        )
    token = _bits.set(bits)
    try:
        with mp.workprec(bits):
            yield mp
    finally:
        _bits.reset(token)


# Ei takes the fixed-point series for 1 <= y <= this fraction of the
# precision in bits, and mp.ei elsewhere
_SERIES_TO = 0.75
_MAX_TERMS = 100_000
_OVERFLOW_ARG = 1e9  # exp() beyond this is refused rather than silently huge


def _ei_series_fixed(y: mpf, prec: int) -> mpf:
    # sum_{n>=1} y^n/(n*n!) in w-bit fixed point; valid and fast for y >= 1,
    # which has fewer than w fractional bits: the product with y's mantissa,
    # shifted, floors the same value as with y's w-bit fixed-point value
    w = prec + 30
    man, exp = y.man_exp
    man, shift = man << max(exp, 0), max(-exp, 0)
    term = 1 << w
    total = 0
    n = 1
    n_floor = int(y) + 2
    while n < _MAX_TERMS:
        term = (term * man >> shift) // n
        total += term // n
        n += 1
        if n > n_floor and term <= (total >> (prec + 8)) + 1:
            break
    else:
        raise PrecisionError(f"Ei series did not converge in {_MAX_TERMS} terms")
    return mpf(from_man_exp(total, -w, prec, "n"))


def ei(y) -> mpf:
    """Exponential integral Ei(y) (principal value for y > 0).

    li(x) = Ei(log x); this is the workhorse behind every li call.
    """
    with working_precision():
        prec = mp.prec
        y = mpf(y)
        if y == 0:
            raise DomainError("Ei has a logarithmic singularity at 0")
        if abs(y) > _OVERFLOW_ARG:
            raise OverflowError(f"exp({y}) exceeds the supported range")
        if not 1 <= y <= _SERIES_TO * prec:
            return mp.ei(y)
        return +(mp.euler + mp.log(y) + _ei_series_fixed(y, prec))


def li(x) -> mpf:
    """Logarithmic integral li(x), the principal value of int_0^x dt/log t.

    Defined for x >= 0, x != 1.  li(0) = 0; x = 1 is a hard domain error
    (the integrand's singularity is not integrable there), as is x < 0.
    """
    with working_precision():
        x = mpf(x)
        if x < 0:
            raise DomainError("li is not defined for negative arguments")
        if x == 0:
            return mpf(0)
        if x == 1:
            raise DomainError("li diverges at x = 1")
        return ei(mp.log(x))


def bessel_i1(c) -> mpf:
    """Modified Bessel function of the first kind, I_1(c), for c >= 0."""
    with working_precision():
        c = mpf(c)
        if c < 0:
            raise DomainError("bessel_i1 requires c >= 0")
        if c > _OVERFLOW_ARG:
            raise OverflowError(f"exp({c}) exceeds the supported range")
        if c == 0:
            return mpf(0)
        return +mp.besseli(1, c)


def d_of(c0) -> mpf:
    """D(c0) = sqrt(pi c0 / 2) * I_1(c0) / sinh(c0) for c0 > 0.

    Tends to 1 from below as c0 grows; D(c0)/sqrt(2 pi c) is the lower
    sandwich bound on I_1(c)/(2 sinh c) for every c >= c0.
    """
    with working_precision():
        c0 = mpf(c0)
        if c0 <= 0:
            raise DomainError("d_of requires c0 > 0")
        return +(mp.sqrt(mp.pi * c0 / 2) * bessel_i1(c0) / mp.sinh(c0))
