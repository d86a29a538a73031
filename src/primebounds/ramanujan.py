"""Stepping verification of the prime-counting inequality pi(x)^2 < (e x/log x) pi(x/e).

With z = log x the inequality follows, wherever |pi - li| < a sqrt(x) log x
is known, from f(z) - g(z) > 0 for

    f(z) = e^{z+1}/z * li(e^{z-1}),
    g(z) = a (z-1)/z * e^{(3z+1)/2} + (li(e^z) + a z e^{z/2})^2.

Both are increasing for z > 1, so f(z0) > g(z0 + delta) proves f > g on the
whole step (z0, z0 + delta): marching a delta-grid across an interval proves
the inequality there.  A regime ladder switches (a, delta) as z grows, each
rung staying below the height where its constant a is valid.

f and g are computed in extended precision straight from z; x = e^z is
never materialized as an integer.  The two leading terms of f and g agree
to relative order ~1/z, so margins are small relative to f; the default
precision keeps >= 15 trustworthy digits of margin with a wide cushion.
The stepping check decides each step in float64 under a proven error bound
and leaves to f and g only the steps that bound cannot settle and the
reported minimum (``step_verify``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from mpmath import mp, mpf

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

# float64 stepping: steps per chunk between fresh ei anchors and per numpy
# block inside a chunk, the bits above
# the working precision at which reported margins are evaluated, float64's
# unit roundoff, and the slack over a first-order error bound
_CHUNK = 1 << 16
_BLOCK = 1 << 13
_REPORT_GUARD = 64
_U = 2.0 ** -53
_SLACK = 1 + 2.0 ** -20
_FIXED_GUARD = 32

# 1/(8 pi) rounded up in the last decimal: the sharp bound constant must be
# covered from above when g is evaluated with a plain float
A_SHARP_UP = 0.03978873577297384

_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_SQRT_E = 1.6487212707001282  # the double nearest sqrt(e)


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
        return +(a * (z - 1) / z * mp.exp((3 * z + 1) / 2) + (ei(z) + a * z * mp.exp(z / 2)) ** 2)


@dataclass(frozen=True)
class Regime:
    """One rung of the verification ladder.

    ``floor_valid`` is the largest x where the constant a's bound is known,
    so the rung may not extend past log(floor_valid).  ``n_steps`` counts the
    steps of width delta from z_lo to z_hi, the last one clamped at z_hi.  It
    is taken once, from the exact quotient of the stored doubles: a float
    quotient can round down onto an integer and drop the last sliver below
    z_hi.
    """

    z_lo: float
    z_hi: float
    a: float
    delta: float
    floor_valid: float
    n_steps: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "n_steps", _step_count(self.z_lo, self.z_hi, self.delta))


def _step_count(z_lo: float, z_hi: float, delta: float) -> int:
    # ceil((z_hi - z_lo)/delta) in the exact ratios of the doubles
    (hi, hi_d), (lo, lo_d), (dn, dd) = (v.as_integer_ratio() for v in (z_hi, z_lo, delta))
    return -((lo * hi_d - hi * lo_d) * dd // (hi_d * lo_d * dn))


def step_verify(
    regime: Regime,
    max_steps: Optional[int] = None,
    from_end: bool = False,
) -> Verdict:
    """March the delta-grid checking f(z_k) > g(z_k + delta) at every step.

    ``max_steps`` (>= 1) restricts to a window at the start (or, with
    ``from_end``, the tail) of the rung; a value at or above ``n_steps``
    runs the whole rung.  A nonpositive margin is recorded in the verdict,
    not raised.

    Every step is decided in float64 (``_Stepper``) and keeps that answer
    only where its float margin clears a proven error bound; any other
    step is re-decided by ``f`` and ``g``.  The reported minimum comes from
    a proof of the order of the margins: each float rise h_(k+1) - h_k of
    the margin h = f - g that clears its own bound proves which of the two
    steps is lower, a step proven above a neighbour cannot be the earliest
    minimum, and neither can a step of a block whose float margins all
    clear the best margin found so far (so that block's rises are never
    formed).  Only the steps left over are evaluated, by ``f`` and ``g``
    64 bits above the working precision and rounded to it (as the replaced
    fixed-point kernel did), so ``min_margin``, ``min_margin_at`` and
    ``first_failure`` are those of a direct 192-bit loop (to 1e-40) and the
    printed doubles are the same.  Where the margins rise through a window,
    the one step left is its first, whose R values are the chunk's
    anchors.  Measured on a 2 vCPU KVM guest (Python 3.11, numpy 2.4,
    mpmath 1.3 without gmpy2), medians of seven runs of a head window on
    each rung, alternating with the two-``ei`` chunk setup this replaced:
    0.135-0.152 us per step in 2e4-step windows (0.172-0.194 before) and
    4.4-4.9 us in 200-step ones (7.5-8.6), where the chunk's one Ei series
    and the minimum weigh most; 4e6-step windows of rungs 0 and 8 run at
    56-57 ns per step (68-72 before).  The whole 2.735e10-step ladder took
    25 minutes before on a faster run of the same guest.
    """
    prec = _step_precision()
    total = regime.n_steps
    if max_steps is not None and int(max_steps) < 1:
        raise ParameterError(f"max_steps must be >= 1, got {max_steps}")
    n = total if max_steps is None else min(int(max_steps), total)
    k0 = total - n if from_end else 0
    stepper = _Stepper(regime, prec)
    best = best_at = first_failure = None
    rising = False      # the step before the chunk is proven below its first step
    k, end = k0, k0 + n
    while k < end:
        count, link = stepper.chunk_size(k, end)
        ch = stepper.chunk(k, count, link, best)
        margins = {}

        def exact(j):
            if j not in margins:
                margins[j] = stepper.exact(k + j, ch.anchors if j == 0 else None)
            return margins[j]

        clear = ch.margins > ch.bound
        if not clear.all():
            fails = ch.margins < -ch.bound
            for j in np.flatnonzero(~(fails | clear)):
                fails[j] = exact(int(j)) <= 0
            if first_failure is None and fails.any():
                first_failure = stepper.z_at(k + int(np.argmax(fails)))
        # step j is no earliest minimum if h_(j+1) < h_j or h_j > h_(j-1) is proven
        up = ch.rises > ch.rise_bound
        if up.all():
            lowest = [] if rising else [0]
        else:
            down = ch.rises < -ch.rise_bound
            if k < stepper.last < k + count:
                # the rise into the clamped last step is taken to the unclamped
                # g(z + delta) >= g(z_hi): it can prove that step higher, not lower
                down[stepper.last - k - 1] = False
            beaten = np.zeros(count, dtype=bool)
            beaten[:down.size] = down[:count]
            beaten[0] |= rising
            beaten[1:] |= up[:count - 1]
            lowest = np.flatnonzero(~(beaten | ch.above))
        for j in lowest:
            v = exact(int(j))
            if best is None or v < best:
                best, best_at = v, stepper.z_at(k + int(j))
        rising = link and bool(up[-1])
        k += count
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


@dataclass(frozen=True)
class _Chunk:
    margins: np.ndarray     # m_j = h_j e^{-2 z_j}, one per step
    bound: float            # B: |margin - m_j| <= B
    rises: np.ndarray       # (h~_(j+1) - h_j) e^{-2 z_j}, one per step that has a next
    rise_bound: float       # |rise - its exact value| <= rise_bound
    anchors: tuple          # R on both grids, e^{-y_0/2}, e^{1 - z_0}: see _Stepper.grids
    above: np.ndarray       # steps proven above the best margin given to ``chunk``


class _Stepper:
    """The float64 margins of one regime's steps, one chunk at a time.

    With R(t) = e^{-t} Ei(t), y = min(z + delta, z_hi) and P = a e^{-y/2},
    f(z) - g(y) = e^{2z} m with the normalised margin

        m = A - e^{2(y - z)} Q,   A = R(z - 1)/z,
        Q = S^2 + tau,  S = R(y) + y P,  tau = sqrt(e) (1 - 1/y) P.

    A chunk of steps k_0 + j (0 <= j < count, plus the next chunk's first
    step when ``link``) sums the Ei series once, at t_1 = z_0 - 1, and
    carries R on both grids, from t_1 and from t_2 = y_0, to the offsets
    s = j delta <= S_c (S_c = (count - 1 + link) delta) by its Taylor
    polynomials (``grids``, ``_series``).  R(t_2) comes from R's own Taylor
    series at t_1 over s_2 = t_2 - t_1 <= 1 + delta.  The coefficients of
    both polynomials and of their difference polynomials are built in
    fixed point at W = w + 32 bits (w = the working precision + 64), and
    each is rounded once to its nearest double.  The rise of h = f - g to
    the next step is formed from increments, never as a difference of two
    float margins: with e2 = e^{2 delta}, em = expm1(2 delta), ex =
    expm1(-delta/2) and primes marking step j + 1,

        (h~_(j+1) - h_j) e^{-2 z_j} = F - e2 D,
        F = em A' + dR_1/z' - R_1 delta/(z z'),
        D = em Q' + dS (S + S') + dtau,
        dS = dR_2 + P (y ex + delta e^{-delta/2}),
        dtau = sqrt(e) P (ex (1 - 1/y') + delta/(y y')),

    where dR = R(t + delta) - R(t) is the difference polynomial of the
    Taylor polynomial and h~ takes g(z + delta) even at the clamped step.

    Anchor and coefficients.  R(t_1) = Ei(t_1) e^{-t_1} at w bits is within
    rho = 3 2^-w relative of R(t_1) (the series sum rounded, two additions
    of smaller terms, exp and the product), and W bits hold it exactly.
    Chunk offsets stay within 2 (``chunk_size``), and s_2 within 3/2 (for
    delta > 1/2, t_2 takes its own ``ei``), so each coefficient is kept as
    C_n = c_n 2^(W + n), and R(t + s) = 2^-W sum C_n (s/2)^n with s/2 <= 1.
    C_n = (P_n - 2 C_(n-1))/n with P_n = (-1)^(n-1) (2/t)^n 2^W, both
    floored: P_n is within 3 units (2/t <= 1/21), and C_n within (3 + 2
    e_(n-1))/n + 1 <= 7 units of the recurrence run exactly from the
    anchor.  The anchor's own error moves c_n by at most rho c_0/n!.

    The jump to t_2 stops at the first N with M s_2^N <= 2^-W (M as in
    ``_series``).  Horner's rule at s_2/2 <= 3/4 floors N times more, so
    R(t_2) is within (4 + 28 + 1) 2^-W + rho c_0 e^-1 of R(t_2): 4 units for the
    floors, 28 for the coefficients' 7, 1 for the remainder, and the
    anchor's error through sum (-s_2)^n/n! <= e^-1.  That is under 1.2 2^-w
    relative for t_1 >= 42.  The Taylor shift by delta/2 that gives a
    difference polynomial floors N^2/2 times, and carries each error by
    at most (1 + delta/2)^N <= 2^N.  A chunk's polynomials have N <= 64
    terms, so these errors move each Horner sum by at most 2^-(W-82) +
    2^-(w-8) c_0 <= 2^-(w-57) c_0, the second term the anchor's error
    through e^(S_c + delta) <= e^4 on either grid.  That is under 2^-100
    of either bound below, which ``_SLACK`` covers.

    Error bound.  u = 2^-53.  Every float operation is correctly rounded
    (relative error <= u), numpy's exp is within one ulp (2u), each
    constant is the double nearest its value at the working precision
    (u), and each coefficient the double nearest its fixed-point value (u,
    with that value's error above); terms of order u^2 are covered by
    ``_SLACK``.  Counting relative errors in units of u: s = j delta 1,
    z = z_0 + s 2, y = y_0 + s 2,
    1/z 3, 1/y 3, P = (a e^{-y_0/2}) exp(-s/2) alpha = 4 + S_c/2 (the
    offset's rounding moves exp(-s/2) by u s/2).  Horner's rule over N
    coefficients at a float offset is off from R by at most

        E_R = u (2 c_0 + 3 N H) + rem,   H = sum_(n>=1) |c_n| S_c^n,

    u c_0 for the roundings of c_0 and of the last addition, 2N u H for
    the inner ones, u H for the rounded coefficients, N u H for the offset
    (|R'| s <= N H), and ``rem`` for the truncation.  The same holds for
    dR with its own coefficients and remainder.  Since R, 1/z, P, y P,
    (1 - 1/y) P, P (y |ex| + delta) are all decreasing for z >= 43, the
    magnitudes at the chunk's first step bound every step (the clamped step
    too, as y_0 <= z_hi and g is increasing), and

        E_A = (E_R1 + 4u c_0)/z_0,
        E_S = E_R2 + (alpha + 3) u Y + u S,    Y = y_0 P_0,
        E_Q = 2 S E_S + u S^2 + (alpha + 5) u tau + u Q,
        B   = E_A + e2 E_Q + 2u e2 Q + u max(A, e2 Q),

    the last two terms for e2's rounding and product and for the final
    subtraction.  B is 17u of A on every rung, against margins of at least
    3.8e-9 of A in 200-step windows at the head and tail of each.  The rise
    bound adds up in the same way: em A' (em E_A + 2u em A), dR_1/z'
    ((E_dR1 + 4u dR_1)/z), R_1 delta/(z z') (9u plus E_R1), the two sums of
    F (2u of its summed magnitudes), P (y ex + delta e^{-delta/2}) (alpha +
    6 of P_0 (y_0 |ex| + delta)), dtau (alpha + 12 of sqrt(e) P_0 (|ex| +
    delta/y_0^2)), em Q' (em E_Q + 2u em Q), dS (S + S') (dS E_(S+S') +
    2 S E_dS + 2u S dS), the two sums of D, e2 D (e2 E_D + 2u e2 D) and the
    final subtraction.  It is 26-27u of 2 delta A, against rises of 0.23
    (rung 0's top) to 2.0 delta m in the same windows, over 1e5 times the
    bound.
    """

    def __init__(self, regime: Regime, prec: int):
        _check_grid(regime, prec)
        self.w = prec + _REPORT_GUARD
        self.delta = regime.delta
        self.carried = None     # R at the next anchors from the last chunk, with bounds
        self.last = regime.n_steps - 1          # the step clamped at z_hi
        with working_precision(self.w):
            self.z_lo, self.d = mpf(regime.z_lo), mpf(regime.delta)
            self.top, self.a = mpf(regime.z_hi), mpf(regime.a)
            # exp - 1 keeps 70 bits or more for any delta _check_grid admits
            e2, eh = mp.exp(2 * self.d), mp.exp(-self.d / 2)
            self.e2_mp = e2         # e^{2(y - z)} at every unclamped step, for ``exact``
            self.e2, self.em, self.ex, self.eh = float(e2), float(e2 - 1), float(eh - 1), float(eh)

    def chunk_size(self, k: int, end: int):
        """(steps, link) of the chunk from step k: at most ``_CHUNK`` steps and
        offsets of at most 2, where R's Taylor series falls by t/2 >= 21 a term."""
        cap = int(2 / self.delta)
        if cap == 0:
            return 1, False
        count = min(_CHUNK, end - k, cap)
        return count, k + count < end

    def z_at(self, k: int) -> float:
        with working_precision(self.w):
            return float(self.z_lo + k * self.d)

    def exact(self, k: int, anchors=None) -> mpf:
        """f(z_k) - g(y_k) 64 bits above the working precision: at a chunk's
        first step as e^{2z} m from the chunk's ``anchors``."""
        with working_precision(self.w):
            z = self.z_lo + k * self.d
            y = min(z + self.d, self.top)
            if anchors is None:
                return f(z) - g(y, self.a)
            r1, r2, x, e_t = anchors
            p = self.a * x
            e2c = self.e2_mp if y == z + self.d else mp.exp(2 * (y - z))
            m = r1 / z - e2c * ((r2 + y * p) ** 2 + mp.sqrt(mp.e) * (1 - 1 / y) * p)
            return m * (mp.e / e_t) ** 2

    def chunk(self, k: int, count: int, link: bool, best: Optional[mpf] = None) -> _Chunk:
        """Steps k .. k + count - 1 in float64, and the rise into step k + count
        when ``link``.  Given a ``best`` margin h > 0 of an earlier step, a
        block whose margins all exceed best e^{-2 z_k} by more than the bound
        is above it throughout (h_j >= e^{2 z_k} m_j): its rises are not
        formed (NaN) and its steps are flagged in ``above``."""
        delta, u = self.delta, _U
        span = (count - 1 + link) * delta
        with working_precision(self.w):
            z0 = self.z_lo + k * self.d
            floor = None
            if best is not None and best > 0:
                floor = float(best * mp.exp(-2 * z0)) * (1 + 4 * u)
            y0 = min(z0 + self.d, self.top)
            anchors, t1, t2 = self.grids(z0, y0, span)
            pa = float(self.a * anchors[2])
            clamped = y0 != z0 + self.d
            e2c = float(mp.exp(2 * (y0 - z0))) if clamped else self.e2
            if self.carried is not None:
                self._tripwire(t1.c[0], None if clamped else t2.c[0], z0)
            clamp = self.last - k if k < self.last < k + count else None
            if clamp is not None:
                zc = z0 + clamp * self.d
                clamp_at = (float(self.top - y0), float(self.top),
                            float(mp.exp(2 * (self.top - zc))))
        zf, yf = float(z0), float(y0)
        points = count + link
        margins, rises = np.empty(count), np.full(points - 1, np.nan)
        above = np.zeros(count, dtype=bool)
        em, e2, ex = self.em, self.e2, self.ex
        bound, rise_bound = self._bounds(t1, t2, zf, yf, pa, e2c, span)
        with np.errstate(all="ignore"):
            # blocks of _BLOCK steps (and the next point, for the last rise)
            # keep numpy's temporaries in cache
            for b0 in range(0, max(points - 1, 1), _BLOCK):
                b1 = min(b0 + _BLOCK + 1, points)
                s = np.arange(b0, b1) * delta
                z, y = zf + s, yf + s
                p = pa * np.exp(-0.5 * s)
                r1, r2 = _horner(t1.c, s), _horner(t2.c, s)
                iz, iy, a_, s_, q = _terms(r1, r2, z, y, p)
                top = min(b1, count)
                margins[b0:top] = a_[:top - b0] - e2c * q[:top - b0]
                if floor is not None and margins[b0:top].min() - bound > floor:
                    above[b0:top] = True
                elif b1 - b0 > 1:
                    sl = s[:-1]
                    dr1, dr2 = _horner(t1.d, sl), _horner(t2.d, sl)
                    f_ = em * a_[1:] + dr1 * iz[1:] - r1[:-1] * (delta * iz[:-1] * iz[1:])
                    p0 = p[:-1]
                    ds = dr2 + p0 * (y[:-1] * ex + delta * self.eh)
                    dtau = _SQRT_E * p0 * (ex * (1.0 - iy[1:]) + delta * iy[:-1] * iy[1:])
                    rises[b0:b1 - 1] = f_ - e2 * (em * q[1:] + ds * (s_[:-1] + s_[1:]) + dtau)
            if clamp is not None:
                # y = z_hi, so R on the second grid sits at z_hi - y_0
                sig, yc, ec = clamp_at
                s1, s2 = np.array([clamp * delta]), np.array([sig])
                _, _, ac, _, qc = _terms(_horner(t1.c, s1), _horner(t2.c, s2), zf + s1,
                                         np.array([yc]), pa * np.exp(-0.5 * s2))
                margins[clamp] = ac[0] - ec * qc[0]
        self.carried = None
        if link:
            self.carried = (r1[-1], r2[-1], t1.err + u * t1.c[0], t2.err + u * t2.c[0])
        return _Chunk(margins, bound, rises, rise_bound, anchors, above)

    def grids(self, z0: mpf, y0: mpf, span: float):
        """The anchors (R(z_0 - 1), R(y_0), e^{-y_0/2}, e^{1 - z_0}) and R's
        polynomials on both grids out to ``span``, from one Ei series; see
        the class docstring."""
        t = z0 - 1
        e_t = mp.exp(-t)
        r1 = ei(t) * e_t
        bits = self.w + _FIXED_GUARD
        # past 3/2 (delta > 1/2) the series at t converges too slowly, and the
        # second grid takes its own ei
        far = y0 - t > 1.5
        t1, r2 = _series(_fixed(r1, bits), t, span, self.d, bits, None if far else y0)
        if far:
            r2 = _fixed(ei(y0) * mp.exp(-y0), bits)
        t2, _ = _series(r2, y0, span, self.d, bits)
        return (r1, mp.ldexp(r2, -bits), mp.exp(-y0 / 2), e_t), t1, t2

    def _tripwire(self, r1: float, r2: Optional[float], z0: mpf) -> None:
        """The last chunk's Taylor-carried R against this chunk's anchors, the
        first grid's fresh and the second's derived from it (unless clamped
        off that grid)."""
        c1, c2, e1, e2 = self.carried
        if abs(c1 - r1) > e1 * _SLACK or (r2 is not None and abs(c2 - r2) > e2 * _SLACK):
            raise PrecisionError(
                f"stepping: e^-t Ei(t) carried to z={float(z0)} misses its fresh "
                "anchor by more than the float64 error bound"
            )

    def _bounds(self, t1, t2, zf, yf, pa, e2c, span):
        """(B, the rise bound) of a chunk; see the class docstring."""
        u, delta = _U, self.delta
        alpha = 4 + span / 2
        c1, c2 = t1.c[0], t2.c[0]
        a_max = c1 / zf
        e_a = (t1.err + 4 * u * c1) / zf
        y_ = yf * pa
        s_ = c2 + y_
        tau = _SQRT_E * pa
        q = s_ * s_ + tau
        e_s = t2.err + (alpha + 3) * u * y_ + u * s_
        e_q = 2 * s_ * e_s + u * s_ * s_ + (alpha + 5) * u * tau + u * q
        bound = e_a + e2c * e_q + 2 * u * e2c * q + u * max(a_max, e2c * q)
        em, e2 = self.em, self.e2
        f1, f2, f3 = em * a_max, t1.d_max / zf, delta * c1 / zf ** 2
        e_f = (em * e_a + 2 * u * f1 + (t1.d_err + 4 * u * t1.d_max) / zf
               + delta / zf ** 2 * (t1.err + 9 * u * c1) + 2 * u * (f1 + f2 + f3))
        aw = pa * (yf * abs(self.ex) + delta)
        ds = t2.d_max + aw
        e_ds = t2.d_err + (alpha + 6) * u * aw + u * ds
        dt = _SQRT_E * pa * (abs(self.ex) + delta / yf ** 2)
        d4, d5 = em * q, 2 * s_ * ds
        e_d = (em * e_q + 2 * u * d4 + ds * (2 * e_s + 2 * u * s_) + 2 * s_ * e_ds
               + 2 * u * s_ * ds + (alpha + 12) * u * dt + 2 * u * (d4 + d5 + dt))
        d_max = d4 + d5 + dt
        rise_bound = e_f + e2 * e_d + 2 * u * e2 * d_max + u * (f1 + f2 + f3 + e2 * d_max)
        return bound * _SLACK, rise_bound * _SLACK


@dataclass(frozen=True)
class _Series:
    c: list          # R(t + s) ~ sum c_n s^n, as doubles
    d: list          # R(t + s + delta) - R(t + s) ~ sum d_n s^n, as doubles
    err: float       # E_R, bounding |Horner(c, s) - R(t + s)| for 0 <= s <= span
    d_max: float     # bounds |dR| on the span
    d_err: float     # bounds |Horner(d, s) - dR(t + s)| for 0 <= s <= span - delta


def _mantissa(x: mpf, e: int = 0):
    """(m, k) with x 2^e = m 2^-k exactly and k >= 0."""
    man, exp = x.man_exp
    exp += e
    return (man << exp, 0) if exp > 0 else (man, -exp)


def _fixed(x: mpf, bits: int) -> int:
    """x at ``bits`` fractional bits, exact when x has no more than that."""
    man, k = _mantissa(x, bits)
    return man >> k


def _coefficients(c: int, t: mpf, bits: int):
    """C_n = c_n 2^(bits + n) for n = 0, 1, ... from C_0 = c, each floored:
    c_n = R^(n)(t)/n! = ((-1)^(n-1) t^-n - c_(n-1))/n by R' = 1/t - R."""
    tm, k = _mantissa(t)
    p, n = (1 << (bits + 1 + k)) // tm, 1      # P_n = (-1)^(n-1) (2/t)^n 2^bits
    while True:
        yield c
        c = (p - 2 * c) // n
        p = -((p << (1 + k)) // tm)
        n += 1


def _series(r: int, t: mpf, span: float, delta: mpf, bits: int, to: Optional[mpf] = None):
    """R = e^{-t} Ei(t) from its value r 2^-bits at t out to t + span, as a
    polynomial, and R(to) at the same fixed point when ``to`` (t < to <= t +
    3/2) is given.

    The coefficients c_n = R^(n)(t)/n! are kept as C_n = c_n 2^(bits + n)
    (``_coefficients``).  With E_n(t) = R(t) - sum_(j<n) j!/t^(j+1), R^(n) =
    (-1)^n E_n and E_n' = n!/t^(n+1) - E_n, so for t <= xi <= t + span E_n(xi)
    is a mean of E_n(t) and values of n!/v^(n+1) at v >= t, and
    |R^(N)(xi)|/N! <= M = max(|c_N|, t^-(N+1)).  N terms then leave at most
    rem = M span^N, and their difference polynomial (d_i = sum_(n>i) c_n
    C(n, i) delta^(n-i), by Taylor shifts of the C_n) at most N M span^(N-1)
    delta of dR.  N is the first count taking the latter below 2^-63 |c_1|
    delta.  R(to) sums the same series at s = to - t to the first N with
    M s^N <= 2^-bits.
    """
    more = _coefficients(r, t, bits)
    cs = []

    def at(n):
        while len(cs) <= n:
            cs.append(next(more))
        return cs[n]

    def c(n):
        return at(n) / (1 << (bits + n))

    tf = float(t)
    cf, m = [c(0)], 0.0
    if span:
        c1 = abs(c(1))
        for n in range(1, 65):
            cn = c(n)
            m = max(abs(cn), tf ** -(n + 1))
            if n * m * span ** (n - 1) <= 2.0 ** -63 * c1 or n == 64:
                break
            cf.append(cn)
    n_terms = len(cf)
    dm, k = _mantissa(delta, -1)
    shifted = cs[:n_terms]
    for i in range(n_terms - 1):
        for j in range(n_terms - 2, i - 1, -1):
            shifted[j] += shifted[j + 1] * dm >> k
    df = [(shifted[i] - cs[i]) / (1 << (bits + i)) for i in range(n_terms - 1)]
    rem = m * span ** n_terms if span else 0.0
    h = sum(abs(v) * span ** i for i, v in enumerate(cf) if i)
    hd = sum(abs(v) * span ** i for i, v in enumerate(df) if i)
    d_rem = n_terms * m * span ** (n_terms - 1) * float(delta) if span else 0.0
    d0 = abs(df[0]) if df else 0.0
    series = _Series(
        c=cf,
        d=df,
        err=_U * (2 * cf[0] + 3 * n_terms * h) + rem,
        d_max=d0 + hd + d_rem,
        d_err=_U * (2 * d0 + 3 * n_terms * hd) + d_rem,
    )
    if to is None:
        return series, None
    s = to - t
    sm, k = _mantissa(s, -1)
    lt, ls = math.log2(tf), math.log2(s)
    # t^-(n+1) s^n <= 2^-(bits+1) from this n on, and then |c_n| s^n <= 2^-bits
    # once (|C_n| + 7) (s/2)^n <= 1, C_n being within 7 units of c_n 2^(bits+n)
    n = max(1, math.ceil((bits + 1 - lt) / (lt - ls)))
    while max(at(n).bit_length(), 3) + 1 + n * (ls - 1) > 0:
        n += 1
    v = cs[n - 1]
    for x in reversed(cs[:n - 1]):
        v = x + (v * sm >> k)
    return series, v


def _terms(r1, r2, z, y, p):
    """1/z, 1/y, A = R_1/z, S = R_2 + y P and Q = S^2 + sqrt(e) (1 - 1/y) P."""
    iz, iy = 1.0 / z, 1.0 / y
    s_ = r2 + y * p
    return iz, iy, r1 * iz, s_, s_ * s_ + _SQRT_E * p * (1.0 - iy)


def _horner(coeffs: list, s: np.ndarray) -> np.ndarray:
    acc = np.full_like(s, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= s
        acc += c
    return acc


def _check_grid(regime: Regime, prec: int) -> None:
    # every z_lo + k delta up to z_hi + delta must be exact at prec bits
    (hi, hi_d), (dn, dd) = regime.z_hi.as_integer_ratio(), regime.delta.as_integer_ratio()
    scale = max(regime.z_lo.as_integer_ratio()[1], dd)
    if (hi * dd + dn * hi_d) * scale >= (hi_d * dd) << prec:
        raise ParameterError(f"the grid z_lo + k delta up to z_hi + delta is not exact at {prec} bits "
                             f"(z_hi {regime.z_hi:g}, delta {regime.delta:g})")


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
