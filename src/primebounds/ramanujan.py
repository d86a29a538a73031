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

from .hiprec import PrecisionError, ei, get_default_precision, working_precision
from . import published

__all__ = [
    "Regime",
    "StepReport",
    "CounterexampleVerdict",
    "f",
    "g",
    "step_verify",
    "regime_schedule",
    "counterexample_check",
    "counterexample_check_direct",
    "MIN_STEP_PRECISION",
]

MIN_STEP_PRECISION = 192
DELTA_FLOOR = 1e-9

# stepping kernel: steps between full-Ei anchors, guard bits above the
# requested precision, and the most Taylor terms a step may take
_ANCHOR = 4096
_GUARD_BITS = 64
_MAX_TERMS = 16

# 1/(8 pi) rounded up in the last decimal: the sharp bound constant must be
# covered from above when g is evaluated with a plain float
A_SHARP_UP = 0.03978873577297384

_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class ParameterError(ValueError):
    pass


def _step_precision(prec: int | None) -> int:
    return max(MIN_STEP_PRECISION, get_default_precision() if prec is None else int(prec))


def f(z, prec: int | None = None) -> mpf:
    """f(z) = e^{z+1}/z * li(e^{z-1}) for z > 1."""
    prec = _step_precision(prec)
    with working_precision(prec):
        z = mpf(z)
        if not z > 1:
            raise ParameterError("f requires z > 1 (li(e^{z-1}) hits the singularity)")
        return +(mp.exp(z + 1) / z * ei(z - 1, prec=prec))


def g(z, a, prec: int | None = None) -> mpf:
    """g(z) = a(z-1)/z e^{(3z+1)/2} + (li(e^z) + a z e^{z/2})^2 for z > 1, a > 0."""
    prec = _step_precision(prec)
    with working_precision(prec):
        z = mpf(z)
        a = mpf(a)
        if not (z > 1 and a > 0):
            raise ParameterError("g requires z > 1 and a > 0")
        return +(
            a * (z - 1) / z * mp.exp((3 * z + 1) / 2)
            + (ei(z, prec=prec) + a * z * mp.exp(z / 2)) ** 2
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


@dataclass(frozen=True)
class StepReport:
    regime: Regime
    steps_checked: int
    min_margin: mpf
    min_margin_at: float
    first_failure: Optional[float]
    precision_bits: int

    @property
    def passed(self) -> bool:
        return self.first_failure is None and self.min_margin > 0

    def __bool__(self) -> bool:
        return self.passed

    def to_dict(self) -> dict:
        return {
            "z_lo": self.regime.z_lo,
            "z_hi": self.regime.z_hi,
            "a": self.regime.a,
            "delta": self.regime.delta,
            "steps_checked": self.steps_checked,
            "min_margin": float(self.min_margin),
            "min_margin_at": self.min_margin_at,
            "first_failure": self.first_failure,
            "precision_bits": self.precision_bits,
            "passed": self.passed,
        }


def step_verify(
    regime: Regime,
    max_steps: Optional[int] = None,
    from_end: bool = False,
    prec: int | None = None,
) -> StepReport:
    """March the delta-grid checking f(z_k) > g(z_k + delta) at every step.

    ``max_steps`` (>= 1) restricts to a window at the start (or, with
    ``from_end``, the tail) of the rung.  A nonpositive margin is recorded
    in the report, not raised.

    The steps run through a fixed-point kernel (see ``_march``) at
    ``prec + 64`` bits that carries e^{-t} Ei(t) from one step to the next
    by Taylor series, with a full ``ei`` only at every ``_ANCHOR``-th step.
    The clamped final step of a rung, and every step of a window whose
    delta is too large for the series, are evaluated directly with ``f``
    and ``g``.  Measured at 192 bits (2 vCPU KVM guest, Python 3.11, mpmath
    1.3 without gmpy2): 9-15 us per step in 2e4-step windows and 20-25 us
    in 200-step ones, where the two anchor ``ei`` calls weigh more, against
    280-630 us for two direct ``ei`` calls per step.  The whole
    2.735e10-step ladder is about 3.3 core-days.
    """
    prec = _step_precision(prec)
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
        coeffs = _taylor_coefficients(d, z_lo + k0 * d - 1, w)
        k_split = k0 if coeffs is None else max(k0, min(k_clamp, k0 + n))
        best = best_at = first_failure = None
        if k_split > k0:
            best, best_at, first_failure = _march(
                regime, zlo_f, d_f, k0, k_split, coeffs, prec, w)
        a = mpf(regime.a)
        for k in range(k_split, k0 + n):
            z = z_lo + k * d
            margin = f(z, prec) - g(min(z + d, z_top), a, prec)
            if best is None or margin < best:
                best, best_at = margin, float(z)
            if margin <= 0 and first_failure is None:
                first_failure = float(z)
    with working_precision(prec):
        return StepReport(
            regime=regime,
            steps_checked=n,
            min_margin=+best,
            min_margin_at=best_at,
            first_failure=first_failure,
            precision_bits=prec,
        )


def _taylor_coefficients(delta: mpf, t_min: mpf, w: int) -> Optional[list]:
    """delta^n/n! for n = 1..N in w-bit fixed point, or None past _MAX_TERMS.

    R^(n)(t) is about (-1)^n n!/t^(n+1) for t >> n, so the n-th Taylor term
    of R(t + delta) is about (delta/t)^n/t; N is the first n taking that
    below 2^-(w+8) at the window's smallest t.
    """
    eps = mpf(2) ** -(w + 8)
    coeffs = []
    c = mpf(1)
    term = 1 / t_min
    for n in range(1, _MAX_TERMS + 1):
        c = c * delta / n
        coeffs.append(to_fixed(c._mpf_, w))
        term = term * delta / t_min
        if term < eps:
            return coeffs
    return None


def _advance(r: int, inv_t: int, coeffs: list, w: int) -> int:
    """R(t + delta) from R(t) by Taylor series, everything in w-bit fixed point.

    R = e^{-t} Ei(t) obeys R' = 1/t - R, so R^(n) = p_n - R^(n-1) where
    p_n is the (n-1)-th derivative of 1/t: p_1 = 1/t, p_(n+1) = -n p_n / t.
    """
    p = inv_t
    dr = p - r
    total = r + (dr * coeffs[0] >> w)
    for n in range(1, len(coeffs)):
        p = -n * p * inv_t >> w
        dr = p - dr
        total += dr * coeffs[n] >> w
    return total


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
    shrink = to_fixed(mp.exp(-d / 2)._mpf_, w)
    sqrt_e = to_fixed(mp.sqrt(mp.e)._mpf_, w)
    best = best_k = fail_k = None
    r1 = r2 = None
    for block in range(k_start, k_end, _ANCHOR):
        z_f = zlo_f + block * d_f
        z = mpf(from_man_exp(z_f, -w))
        y = z + d
        fresh1 = to_fixed((ei(z - 1, prec=w) * mp.exp(1 - z))._mpf_, w)
        fresh2 = to_fixed((ei(y, prec=w) * mp.exp(-y))._mpf_, w)
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
            r1 = _advance(r1, one_sq // (z_f - one), coeffs, w)
            r2 = _advance(r2, inv_y, coeffs, w)
            ae = ae * shrink >> w
            scale = scale * e2d >> w
            z_f, inv_z = y_f, inv_y

    def z_at(k):
        return float(mpf(from_man_exp(zlo_f + k * d_f, -w)))

    margin = mpf(from_man_exp(best, -2 * w)) * mp.exp(2 * z_first)
    return margin, z_at(best_k), None if fail_k is None else z_at(fail_k)


def regime_schedule(table2_rows=None, strong_x_max: float | None = None) -> list:
    """The ladder covering z in (43, 103].

    First rung under the sharp constant 1/8pi up to z = 59, then a = 1, then
    one rung per weak-table row, each ending at floor(log(row x_max)).  The
    published deltas cover the first two rungs; later rungs scale delta by
    sqrt(a_prev/a_next) with a 1e-9 floor -- an engineering reconstruction
    (margins shrink as a grows), validated by the margin-scaling checks.
    """
    if table2_rows is None:
        table2_rows = published.TABLE2
    if strong_x_max is None:
        strong_x_max = published.STRONG_X_MAX
    rows = sorted((float(a), float(K), float(xm)) for a, K, xm in table2_rows)
    if not rows or rows[0][0] != 1.0:
        raise ParameterError("schedule needs the a = 1 row to anchor the second rung")
    rungs = [Regime(43.0, 59.0, A_SHARP_UP, 5e-8, strong_x_max)]
    a_prev, delta_prev = 1.0, 2.5e-8
    z_prev = 59.0
    for a, _, x_max in rows:
        z_hi = float(math.floor(math.log(x_max)))
        if a == 1.0:
            delta = 2.5e-8
        else:
            delta = max(delta_prev * math.sqrt(a_prev / a), DELTA_FLOOR)
        if z_hi <= z_prev:
            continue
        rungs.append(Regime(z_prev, z_hi, a, delta, x_max))
        z_prev, a_prev, delta_prev = z_hi, a, delta
    return rungs


@dataclass(frozen=True)
class CounterexampleVerdict:
    x: int
    holds: Optional[bool]     # None when skipped
    lhs: Optional[mpf]        # pi(x)^2
    rhs: Optional[mpf]        # (e x / log x) * pi(x/e)
    skipped_reason: str = ""

    def __bool__(self) -> bool:
        return bool(self.holds)

    def to_dict(self) -> dict:
        return {
            "x": self.x,
            "holds": self.holds,
            "lhs": None if self.lhs is None else float(self.lhs),
            "rhs": None if self.rhs is None else float(self.rhs),
            "skipped_reason": self.skipped_reason,
        }


def _verdict_from_counts(x: int, pi_x: int, pi_xe: int, prec: int) -> CounterexampleVerdict:
    with working_precision(prec):
        xm = mpf(x)
        lhs = mpf(pi_x) ** 2
        rhs = mp.e * xm / mp.log(xm) * pi_xe
        return CounterexampleVerdict(x=x, holds=bool(lhs < rhs), lhs=+lhs, rhs=+rhs)


def counterexample_check(x: int, tables, prec: int | None = None) -> CounterexampleVerdict:
    """Evaluate pi(x)^2 < (e x/log x) pi(x/e) exactly from prime tables.

    The inequality concerns the plain (unnormalized) counting function.
    Skips (with a reason) when the tables do not reach x; the interesting
    neighborhood x ~ 3.84e10 needs the count-only path below.
    """
    import numpy as np

    prec = _step_precision(prec)
    x = int(x)
    if tables is None or tables.limit < x:
        have = 0 if tables is None else tables.limit
        return CounterexampleVerdict(
            x=x, holds=None, lhs=None, rhs=None,
            skipped_reason=f"tables reach {have}, need {x}; use the count-only direct check",
        )
    with working_precision(prec):
        primes = tables.primes
        pi_x = int(np.searchsorted(primes, x, side="right"))
        xe_floor = int(mp.floor(mpf(x) / mp.e))  # x/e is irrational, so flooring is safe
        pi_xe = int(np.searchsorted(primes, xe_floor, side="right"))
    return _verdict_from_counts(x, pi_x, pi_xe, prec)


def counterexample_check_direct(
    x: int, segment_size: int = 1 << 24, prec: int | None = None, progress=None
) -> CounterexampleVerdict:
    """Count-only check via segmented sieving; minutes of work near 3.84e10."""
    from .primes import segmented_prime_count

    prec = _step_precision(prec)
    x = int(x)
    with working_precision(prec):
        xe_floor = int(mp.floor(mpf(x) / mp.e))
    pi_xe = segmented_prime_count(xe_floor, segment_size=segment_size, progress=progress)
    pi_x = segmented_prime_count(x, segment_size=segment_size, progress=progress)
    return _verdict_from_counts(x, pi_x, pi_xe, prec)
