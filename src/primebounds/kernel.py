"""Smoothing kernel, zero weights, and the four evaluable bound lemmas.

The kernel

    ell_{c,eps}(t) = (c/sinh c) * sin(sqrt((t*eps)^2 - c^2)) / sqrt((t*eps)^2 - c^2)

is a band-limited mollifier; its normalized value at a zero ordinate gamma,
``a_weight``, is the weight that zero receives in the explicit formula.  The
four bound functions here are closed-form upper bounds (each with its stated
precondition enforced) on:

* the zero sum beyond the kernel's band edge (``tail_bound_high``),
* the zero sum over the outer part of the band, assuming RH on the band
  (``tail_bound_mid``),
* the reciprocal-ordinate sum over all zeros up to a height
  (``zero_sum_bound``),
* the smoothing error |psi(x) - psi_smooth(x)| (``psi_smoothing_bound``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

from .errors import ParameterError
from .hiprec import bessel_i1, working_precision

__all__ = [
    "KernelParams",
    "ParameterError",
    "ell_real",
    "ell_normalizer",
    "a_weight",
    "tail_bound_high",
    "tail_bound_mid",
    "zero_sum_bound",
    "psi_smoothing_bound",
    "MIN_T2",
]


@dataclass(frozen=True)
class KernelParams:
    """Smoothing sharpness c > 0 and width eps > 0.

    In the derivation both are functions of x (c = log(x)/2 + D and eps
    shrinking like 1/sqrt(x)); here they are plain numbers so each bound can
    be evaluated and property-tested in isolation.
    """

    c: float
    eps: float

    def __post_init__(self):
        if not (0 < self.c < math.inf and 0 < self.eps < math.inf):
            raise ParameterError("KernelParams requires finite c > 0 and eps > 0")

    def require_tail_high(self) -> None:
        # band-tail bound is proven for eps <= 1e-3 and c >= 3
        if self.eps > 1e-3 or self.c < 3:
            raise ParameterError(
                f"tail bound needs eps <= 1e-3 and c >= 3, got c={self.c}, eps={self.eps}"
            )

    @property
    def band_edge(self) -> float:
        return self.c / self.eps


def _sinc_like(u: mpf, prec: int) -> mpf:
    """sin(sqrt(u))/sqrt(u) for u > 0, sinh(sqrt(-u))/sqrt(-u) for u < 0.

    Both branches equal sum_k (-u)^k/(2k+1)!; the series is used near u = 0,
    where the direct formulas are 0/0 at the kernel's band-edge seam.
    """
    with mp.workprec(prec + 10):
        if abs(u) < mpf("0.25"):
            term = mpf(1)
            total = mpf(1)
            k = 0
            tol = mpf(2) ** (-(prec + 8))
            while abs(term) > tol:
                k += 1
                term = term * (-u) / ((2 * k) * (2 * k + 1))
                total += term
            return total
        if u > 0:
            r = mp.sqrt(u)
            return mp.sin(r) / r
        r = mp.sqrt(-u)
        return mp.sinh(r) / r


def ell_real(t, params: KernelParams) -> mpf:
    """Evaluate the kernel at real argument t >= 0.

    Below the band edge (t*eps < c) this is the analytic continuation
    (c/sinh c) * sinh(sqrt(c^2 - t^2 eps^2))/sqrt(c^2 - t^2 eps^2); at the
    seam t*eps = c the limit value c/sinh(c).
    """
    with working_precision():
        t = mpf(t)
        if t < 0:
            raise ParameterError("ell_real requires t >= 0")
        c = mpf(params.c)
        e = mpf(params.eps)
        u = (t * e) ** 2 - c ** 2
        return +(c / mp.sinh(c) * _sinc_like(u, mp.prec))


def ell_normalizer(params: KernelParams) -> mpf:
    """ell evaluated at the pure-imaginary point i/2: the weight normalizer.

    Equals (c/sinh c) * sinh(sqrt(eps^2/4 + c^2))/sqrt(eps^2/4 + c^2) >= 1.
    The imaginary argument turns the sinc into its hyperbolic branch, so no
    complex arithmetic is needed.
    """
    with working_precision():
        c = mpf(params.c)
        e = mpf(params.eps)
        r = mp.sqrt(e ** 2 / 4 + c ** 2)
        return +(c / mp.sinh(c) * mp.sinh(r) / r)


def a_weight(gamma, params: KernelParams) -> mpf:
    """Normalized kernel weight of a critical-line zero ordinate gamma.

    Requires 0 < gamma <= c/eps (the strip where RH is assumed); the result
    lies in (0, 1].
    """
    with working_precision():
        g = mpf(gamma)
        if not (g > 0):
            raise ParameterError("a_weight requires gamma > 0")
        if g > mpf(params.c) / mpf(params.eps):
            raise ParameterError(
                f"gamma={gamma} is beyond the band edge c/eps={params.band_edge}"
            )
        return +(ell_real(g, params) / ell_normalizer(params))


def tail_bound_high(x, params: KernelParams) -> mpf:
    """Upper bound on the zero sum over |Im rho| > c/eps.

    Returns 0.16 * (x+1)/sinh(c) * e^{0.71 sqrt(c eps)} * log(3c) * log(c/eps),
    valid for x > 1, eps <= 1e-3, c >= 3.
    """
    params.require_tail_high()
    with working_precision():
        x = mpf(x)
        if not x > 1:
            raise ParameterError("tail_bound_high requires x > 1")
        c = mpf(params.c)
        e = mpf(params.eps)
        return +(
            mpf("0.16")
            * (x + 1)
            / mp.sinh(c)
            * mp.exp(mpf("0.71") * mp.sqrt(c * e))
            * mp.log(3 * c)
            * mp.log(c / e)
        )


def tail_bound_mid(x, a_frac, params: KernelParams) -> mpf:
    """Upper bound on the zero sum over a*c/eps < |Im rho| <= c/eps.

    Returns (1 + 11 c eps)/(pi c a^2) * log(c/eps) * cosh(c sqrt(1-a^2))/sinh(c) * sqrt(x).
    Valid for a in (0,1) with a*c/eps >= 1e3, assuming RH below c/eps (the
    caller asserts coverage against its configured verification height).
    With a = sqrt(2/c) the prefactor denominator collapses to 2*pi.
    """
    with working_precision():
        x = mpf(x)
        a = mpf(a_frac)
        if not (0 < a < 1):
            raise ParameterError("tail_bound_mid requires a_frac in (0, 1)")
        c = mpf(params.c)
        e = mpf(params.eps)
        # stated side condition; read as a*c/eps (band height), see module notes
        if a * c / e < 1000:
            raise ParameterError("tail_bound_mid requires a*c/eps >= 1e3")
        return +(
            (1 + 11 * c * e)
            / (mp.pi * c * a ** 2)
            * mp.log(c / e)
            * mp.cosh(c * mp.sqrt(1 - a ** 2))
            / mp.sinh(c)
            * mp.sqrt(x)
        )


# validity floor for the reciprocal-ordinate zero-sum bound: 4*pi*e
MIN_T2 = 4 * 3.141592653589793 * 2.718281828459045


def zero_sum_bound(t2) -> mpf:
    """Upper bound (1/2pi) log^2(t2/2pi) on sum of 1/|Im rho| over |Im rho| <= t2.

    Valid for t2 >= 4*pi*e (about 34.16).
    """
    with working_precision():
        t2 = mpf(t2)
        if t2 < 4 * mp.pi * mp.e:
            raise ParameterError(f"zero_sum_bound requires t2 >= 4*pi*e ~ {MIN_T2:.2f}")
        return +(mp.log(t2 / (2 * mp.pi)) ** 2 / (2 * mp.pi))


def psi_smoothing_bound(x, params: KernelParams) -> mpf:
    """Upper bound on |psi(x) - psi_smooth(x)| for the kernel's smoothing.

    e^{2 eps} log(e^eps x) [ eps x / log(B0) * I1(c)/sinh(c) + 2.01 eps sqrt(x)
    + log log(2 x^2) / 2 ], where B0 = I1(c)/(2 sinh c) * eps * x * e^{-eps}.
    Requires x > 100, eps < 1e-2 and B0 > 1.
    """
    with working_precision():
        x = mpf(x)
        if not x > 100:
            raise ParameterError("psi_smoothing_bound requires x > 100")
        c = mpf(params.c)
        e = mpf(params.eps)
        if not e < mpf("1e-2"):
            raise ParameterError("psi_smoothing_bound requires eps < 1e-2")
        ratio = bessel_i1(c) / mp.sinh(c)
        b0 = ratio / 2 * e * x * mp.exp(-e)
        if not b0 > 1:
            raise ParameterError(f"psi_smoothing_bound requires B0 > 1, got B0={float(b0):.4g}")
        return +(
            mp.exp(2 * e)
            * mp.log(mp.exp(e) * x)
            * (e * x / mp.log(b0) * ratio + mpf("2.01") * e * mp.sqrt(x) + mp.log(mp.log(2 * x ** 2)) / 2)
        )
