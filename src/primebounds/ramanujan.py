"""Stepping verification of the prime-counting inequality pi(x)^2 < (e x/log x) pi(x/e).

With z = log x the inequality follows, wherever |pi - li| < a sqrt(x) log x
is known, from f(z) - g(z) > 0 for

    f(z) = e^{z+1}/z * li(e^{z-1}),
    g(z) = a (z-1)/z * e^{(3z+1)/2} + (li(e^z) + a z e^{z/2})^2.

Both are increasing for z > 1, so f(z0) > g(z0 + delta) proves f > g on the
whole step (z0, z0 + delta): marching a delta-grid across an interval proves
the inequality there.  A regime ladder switches (a, delta) as z grows, each
rung staying below the height where its constant a is valid.

Everything is computed in extended precision straight from z; x = e^z is
never materialized as an integer.  The two leading terms of f and g agree
to relative order ~1/z, so margins are small relative to f; the default
precision keeps >= 15 trustworthy digits of margin with a wide cushion.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, to_fixed

from .errors import ParameterError, PrecisionError
from .hiprec import ei, get_default_precision, working_precision
from .primes import prime_counts
from .verdict import Verdict
from . import published

__all__ = [
    "Regime",
    "f",
    "g",
    "step_verify",
    "regime_schedule",
    "counterexample_check_direct",
    "MIN_STEP_PRECISION",
]

MIN_STEP_PRECISION = 192
DELTA_FLOOR = 1e-9

# stepping kernel: steps between full-Ei anchors, guard bits above the
# requested precision, and the most terms in 1/t a step may take
_ANCHOR = 4096
_GUARD_BITS = 64
_MAX_TERMS = 16

# 1/(8 pi) rounded up in the last decimal: the sharp bound constant must be
# covered from above when g is evaluated with a plain float
A_SHARP_UP = 0.03978873577297384

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _step_precision() -> int:
    # the stepping checks run at the working precision, but never below 192 bits
    return max(MIN_STEP_PRECISION, get_default_precision())


def f(z) -> mpf:
    """f(z) = e^{z+1}/z * li(e^{z-1}) for z > 1."""
    with working_precision(_step_precision()):
        z = mpf(z)
        if not z > 1:
            raise ParameterError("f requires z > 1 (li(e^{z-1}) hits the singularity)")
        return +(mp.exp(z + 1) / z * ei(z - 1))


def g(z, a) -> mpf:
    """g(z) = a(z-1)/z e^{(3z+1)/2} + (li(e^z) + a z e^{z/2})^2 for z > 1, a > 0."""
    with working_precision(_step_precision()):
        z = mpf(z)
        a = mpf(a)
        if not (z > 1 and a > 0):
            raise ParameterError("g requires z > 1 and a > 0")
        return +(
            a * (z - 1) / z * mp.exp((3 * z + 1) / 2)
            + (ei(z) + a * z * mp.exp(z / 2)) ** 2
        )


@dataclass(frozen=True)
class Regime:
    """One rung of the verification ladder.

    ``floor_valid`` is the largest x where the constant a's bound is known,
    so the rung may not extend past log(floor_valid).
    """

    z_lo: float
    z_hi: float
    a: float
    delta: float
    floor_valid: float

    def __post_init__(self):
        for name in ("z_lo", "z_hi", "a", "delta"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"regime {name} must be finite, got {getattr(self, name)}")
        if math.isnan(self.floor_valid):
            raise ParameterError("regime floor_valid must be a number (inf for no ceiling)")
        if not (self.z_lo >= 43):
            raise ParameterError("rungs start at z >= 43; below is covered elsewhere")
        if not (self.z_hi > self.z_lo and self.delta > 0 and self.a > 0):
            raise ParameterError("regime needs z_hi > z_lo, delta > 0, a > 0")
        if self.floor_valid < math.inf and (
            self.z_hi > _LOG_FLOAT_MAX or math.exp(self.z_hi) > self.floor_valid * (1 + 1e-9)
        ):
            raise ParameterError(
                f"rung top e^{self.z_hi} exceeds the bound's validity ceiling {self.floor_valid:g}"
            )

    @property
    def n_steps(self) -> int:
        """Steps of width delta from z_lo to z_hi, the last one clamped at z_hi.

        Taken from the exact quotient of the stored doubles: a float quotient
        can round down onto an integer and drop the last sliver below z_hi.
        """
        return math.ceil((Fraction(self.z_hi) - Fraction(self.z_lo)) / Fraction(self.delta))


def step_verify(
    regime: Regime,
    max_steps: Optional[int] = None,
    from_end: bool = False,
) -> Verdict:
    """March the delta-grid checking f(z_k) > g(z_k + delta) at every step.

    ``max_steps`` (>= 1) restricts to a window at the start (or, with
    ``from_end``, the tail) of the rung.  A nonpositive margin is recorded
    in the verdict, not raised.

    The steps run at the working precision, 192 bits at least, through a
    fixed-point kernel (see ``_march``) 64 bits above it that carries
    R = e^{-t} Ei(t) from one step to the next as e^{-delta} R plus a
    polynomial in 1/t (``_advance``), with a full ``ei`` only at every
    ``_ANCHOR``-th step.  The clamped final step of a rung, and every step
    of a window whose delta is too large for the series, are evaluated
    directly with ``f`` and ``g``.  Measured at 192 bits on a 2 vCPU KVM
    guest (Python 3.11, mpmath 1.3 without gmpy2), medians of seven runs of
    a head window on each rung: 9.7-11.2 us per step in 2e4-step windows
    and 15.6-16.9 us in 200-step ones, where the two anchor ``ei`` calls
    weigh more, against 570-690 us for a direct ``f`` and ``g``.  The whole
    2.735e10-step ladder is about 3.2 core-days.
    """
    prec = _step_precision()
    total = regime.n_steps
    if max_steps is not None and int(max_steps) < 1:
        raise ParameterError(f"max_steps must be >= 1, got {max_steps}")
    n = total if max_steps is None else min(int(max_steps), total)
    k0 = total - n if from_end else 0
    w = prec + _GUARD_BITS
    with working_precision(w):
        d = mpf(regime.delta)
        z_lo = mpf(regime.z_lo)
        z_top = mpf(regime.z_hi)
        zlo_f, d_f, top_f = (to_fixed(v._mpf_, w) for v in (z_lo, d, z_top))
        if from_man_exp(d_f, -w) != d._mpf_:
            raise ParameterError(f"delta {regime.delta:g} is finer than the {w}-bit grid")
        # from this step on z_k + delta passes z_hi and the step ends on z_hi
        k_clamp = (top_f - zlo_f) // d_f
        coeffs = _step_coefficients(d, z_lo + k0 * d - 1, w)
        k_split = k0 if coeffs is None else max(k0, min(k_clamp, k0 + n))
        best = best_at = first_failure = None
        if k_split > k0:
            best, best_at, first_failure = _march(
                regime, zlo_f, d_f, k0, k_split, coeffs, prec, w)
        a = mpf(regime.a)
        for k in range(k_split, k0 + n):
            z = z_lo + k * d
            y = min(z + d, z_top)
            with working_precision(prec):
                fz, gy = f(z), g(y, a)
            margin = fz - gy
            if best is None or margin < best:
                best, best_at = margin, float(z)
            if margin <= 0 and first_failure is None:
                first_failure = float(z)
    with working_precision(prec):
        return Verdict(
            first_failure is None and best > 0,
            z_lo=regime.z_lo,
            z_hi=regime.z_hi,
            a=regime.a,
            delta=regime.delta,
            steps_checked=n,
            min_margin=+best,
            min_margin_at=best_at,
            first_failure=first_failure,
            precision_bits=prec,
        )


def _step_coefficients(delta: mpf, t_min: mpf, w: int) -> Optional[list]:
    """c_(N-1), ..., c_0 in w-bit fixed point (Horner order), or None past _MAX_TERMS.

    R = e^{-t} Ei(t) obeys R' = 1/t - R, so over one step of width delta

        R(t + delta) = e^{-delta} R(t) + sum_m (-1)^m c_m / t^(m+1),
        c_m = int_0^delta u^m e^{u - delta} du = m! sum_{n>m} (-1)^(n-m-1) delta^n/n!.

    The m-th term is at most (delta/t)^(m+1) and the terms alternate and
    fall, so the first omitted one bounds the tail: N is the first m taking
    (delta/t)^(m+1) below 2^-(w+8) at the window's smallest t.  The c_m are
    summed from the fixed-point delta^n/n!.
    """
    eps = mpf(2) ** -(w + 8)
    ratio = term = delta / t_min
    n_terms = 0
    while not term < eps:
        if n_terms == _MAX_TERMS:
            return None
        n_terms += 1
        term *= ratio
    # delta^n/n! for n = 1, 2, ... while nonzero; with t >= 42 that is at
    # least N of them, as (delta/t)^N >= 2^-(w+8) puts delta^N/N! above 2^-w
    d_f = to_fixed(delta._mpf_, w)
    powers = []
    p, n = d_f, 1
    while p:
        powers.append(p)
        n += 1
        p = p * d_f // (n << w)
    coeffs = []
    tail = 0  # sum_{n>m} (-1)^(n-m-1) delta^n/n!
    for m in range(len(powers) - 1, -1, -1):
        tail = powers[m] - tail
        if m < n_terms:
            coeffs.append(math.factorial(m) * tail)
    return coeffs


def _advance(r: int, inv_t: int, coeffs: list, decay: int, w: int) -> int:
    """R(t + delta) = e^{-delta} R(t) + sum_m (-1)^m c_m/t^(m+1) in w-bit fixed point.

    ``coeffs`` are the N values of ``_step_coefficients``, ``decay`` is
    e^{-delta} and ``inv_t`` is 1/t.  One Horner pass in 1/t, one multiply
    per term.  Rounding: each floor of the pass but the last is scaled down
    by 1/t <= 1/42 before it reaches the result, and so are the rounded c_m
    and 1/t, so an advance is off by at most N + 2 ulps of 2^-w.  The error
    carried in R shrinks by e^{-delta} each step, so an anchor block of
    ``_ANCHOR`` = 2^12 steps drifts at most 2^12 (N + 2) ulps: < 2^16 for
    the N <= 13 of every rung at 192 to 320 bits, < 2^17 at ``_MAX_TERMS``,
    against the drift check's 2^(w - prec - 16) = 2^48.
    """
    acc = 0
    for c in coeffs:
        acc = c - (acc * inv_t >> w)
    return r * decay + acc * inv_t >> w


def _march(regime: Regime, zlo_f: int, d_f: int, k_start: int, k_end: int,
           coeffs: list, prec: int, w: int):
    """Steps k_start <= k < k_end (none clamped) in w-bit fixed point.

    With R(t) = e^{-t} Ei(t) and y = z + delta the margin f(z) - g(y) is

        e^{2z} [R(z-1)/z - e^{2 delta} ((R(y) + a y e^{-y/2})^2
                                         + a sqrt(e) (1 - 1/y) e^{-y/2})],

    so the kernel carries R on the two grids t = z_k - 1 and t = z_k + delta,
    a e^{-y/2} and e^{2(z_k - z_first)}, and advances each by delta without
    an ``ei`` call.  Every _ANCHOR steps it takes fresh values from ``ei``
    and raises PrecisionError if the carried R drifted above 2^-(prec+16).
    Returns (min margin, its z, first nonpositive z or None).
    """
    one = 1 << w
    one_sq = one << w
    tol = 1 << (w - prec - 16)
    d = mpf(regime.delta)
    a = mpf(regime.a)
    z_first = mpf(from_man_exp(zlo_f + k_start * d_f, -w))
    e2d = to_fixed(mp.exp(2 * d)._mpf_, w)
    decay = to_fixed(mp.exp(-d)._mpf_, w)
    shrink = to_fixed(mp.exp(-d / 2)._mpf_, w)
    sqrt_e = to_fixed(mp.sqrt(mp.e)._mpf_, w)
    best = best_k = fail_k = None
    r1 = r2 = None
    for block in range(k_start, k_end, _ANCHOR):
        z_f = zlo_f + block * d_f
        z = mpf(from_man_exp(z_f, -w))
        y = z + d
        fresh1 = to_fixed((ei(z - 1) * mp.exp(1 - z))._mpf_, w)
        fresh2 = to_fixed((ei(y) * mp.exp(-y))._mpf_, w)
        if r1 is not None and max(abs(r1 - fresh1), abs(r2 - fresh2)) > tol:
            raise PrecisionError(
                f"stepping kernel drifted from Ei at z={float(z)}; "
                f"the carried e^-t Ei(t) is off by more than 2^-{prec + 16}"
            )
        r1, r2 = fresh1, fresh2
        ae = to_fixed((a * mp.exp(-y / 2))._mpf_, w)        # a e^{-y/2}
        scale = to_fixed(mp.exp(2 * (z - z_first))._mpf_, w)  # e^{2(z - z_first)}
        inv_z = one_sq // z_f
        for k in range(block, min(block + _ANCHOR, k_end)):
            y_f = z_f + d_f
            inv_y = one_sq // y_f
            s = r2 + (y_f * ae >> w)
            tail = ((one - inv_y) * ae >> w) * sqrt_e >> w
            margin = ((r1 * inv_z >> w) - (((s * s >> w) + tail) * e2d >> w)) * scale
            if best is None or margin < best:
                best, best_k = margin, k
            if margin <= 0 and fail_k is None:
                fail_k = k
            r1 = _advance(r1, one_sq // (z_f - one), coeffs, decay, w)
            r2 = _advance(r2, inv_y, coeffs, decay, w)
            ae = ae * shrink >> w
            scale = scale * e2d >> w
            z_f, inv_z = y_f, inv_y

    def z_at(k):
        return float(mpf(from_man_exp(zlo_f + k * d_f, -w)))

    margin = mpf(from_man_exp(best, -2 * w)) * mp.exp(2 * z_first)
    return margin, z_at(best_k), None if fail_k is None else z_at(fail_k)


def regime_schedule() -> list:
    """The ladder covering z in (43, 103].

    First rung under the sharp constant 1/8pi up to z = 59, then a = 1, then
    one rung per weak-table row (``published.TABLE2``, ascending in a), each
    ending at floor(log(row x_max)).  The published deltas cover the first
    two rungs; later rungs scale delta by sqrt(a_prev/a_next) with a 1e-9
    floor -- an engineering reconstruction (margins shrink as a grows),
    validated by the margin-scaling checks.
    """
    rungs = [Regime(43.0, 59.0, A_SHARP_UP, published.RAMANUJAN_DELTA_FIRST,
                    published.STRONG_X_MAX)]
    # the a = 1 row comes first, and scaling from a = 1 keeps its published delta
    a_prev, delta_prev = 1.0, published.RAMANUJAN_DELTA_SECOND
    for a, _, x_max in published.TABLE2:
        delta = max(delta_prev * math.sqrt(a_prev / a), DELTA_FLOOR)
        rungs.append(Regime(rungs[-1].z_hi, float(math.floor(math.log(x_max))), a, delta, x_max))
        a_prev, delta_prev = a, delta
    return rungs


def _floor_over_e(x: int) -> int:
    with working_precision(_step_precision()):
        return int(mp.floor(mpf(x) / mp.e))  # x/e is irrational, so flooring is safe


def _verdict_from_counts(x: int, pi_x: int, pi_xe: int) -> Verdict:
    with working_precision(_step_precision()):
        xm = mpf(x)
        lhs = mpf(pi_x) ** 2
        rhs = mp.e * xm / mp.log(xm) * pi_xe
        holds = bool(lhs < rhs)
        return Verdict(holds, x=x, holds=holds, lhs=+lhs, rhs=+rhs)


def counterexample_check_direct(x: int) -> Verdict:
    """pi(x)^2 < (e x/log x) pi(x/e) at an integer 2 <= x <= 1e12, from the
    plain counts pi(x/e) and pi(x) of ``primes.prime_counts``."""
    x = int(x)
    # below 2, log x is zero or undefined; at 2 the inequality is simply false
    if x < 2:
        raise ParameterError(f"the counterexample check needs x >= 2, got {x}")
    pi_xe, pi_x = prime_counts([_floor_over_e(x), x])
    return _verdict_from_counts(x, pi_x, pi_xe)
