"""Exact normalized prime-counting tables and desk-scale inequality scans.

The four counting functions are the *-normalized ones: at an integer jump
point the final summand carries weight 1/2, so the value at a prime power is
the midpoint of the one-sided limits.  A table holds the jumps (the prime
powers up to its limit), the exponent of each and the prime under it.  Each
function's exact value is a column of integer right limits over a fixed
per-kind scale: pi over 1, theta and psi over 2^96 (each log p is log(p) at
160-bit precision rounded to 96 fractional bits), Pi over lcm(1..24).  pi and
Pi are int64 running sums (Pi stays below 2^53), theta and psi running sums
of Python ints; each column is built on its first read, theta and psi only
up to the last jump read so far.  Every exact read is a left limit, starred
value or right limit at one jump.

The vectorized scans read float64 views instead, built on first use, cached
on the table read-only and shared by all its scans, with li(x) at every jump
and, per count kind and target, the largest deviation from the target in
each block of 256 jumps.  The pi and Pi views are the correctly rounded
images of the exact reads; the theta and psi views are the correctly rounded
sums of the float64 logs ``np.log(p)``, within a stated bound of the exact
reads (``_log_sum_reads``), so the 96-bit columns are never built for a
scan.  Any margin too close to zero for float64 to be trusted is re-checked
in extended precision from the exact columns.  A scan first clears each
block of jumps inside its range whose largest deviation stays below the
envelope by the guard band, with one comparison, then reads the other jumps
and the range ends that are not jumps, one array of nodes, and settles each
gap between consecutive nodes from its two ends, so its cost follows the
jumps near violations, not the size of the table.  The scans of many specs
over one range share one array pass (``scan_inequalities``), so they pay
numpy's fixed cost per call once, not once per spec.  Off the jumps, li
takes at most two calls per pass: one on the range ends and one on the
points inside the gaps that their two ends leave open.

Tables are built in full on every call, by segmented sieving, which bounds
the working memory of the sieve; each segment's jumps are put in order as
arrays, by one sort.  Plain counts beyond the tables' reach, up to 1e12, come
from Lucy's recursion over the values floor(x/k), stopped at the cube root
of x and finished by the P2 term, not from a sieve.
"""

from __future__ import annotations

import bisect
import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from itertools import accumulate, islice
from typing import Optional

import numpy as np
from mpmath import libmp, mp, mpf

from .errors import ParameterError
from .hiprec import li as li_hp
from .hiprec import working_precision
from .verdict import Verdict

__all__ = [
    "FIX_BITS",
    "LOG_PREC",
    "PRIME_COUNT_MAX",
    "SCALE",
    "PrimeTables",
    "InequalitySpec",
    "build_tables",
    "integer_threshold_consistent",
    "prime_counts",
    "psi_theta_gap",
    "scan_inequalities",
    "scan_inequality",
    "segmented_prime_count",
    "threshold_consistent",
]

FIX_BITS = 96          # fractional bits of the exact theta/psi accumulators
LOG_PREC = 160         # precision of the reference log p that FIX_BITS rounds
DEFAULT_SEGMENT = 1 << 22
PRIME_COUNT_MAX = 10 ** 12     # int64-exact; ~50 MB of arrays at the cap
DETAIL_LIMIT_MAX = 20_000_000  # per-jump tables above this would not be desk scale

# the denominator of each kind's exact column; below DETAIL_LIMIT_MAX < 2^25
# every prime-power exponent m is at most 24, so each Pi step SCALE/m is an integer
SCALE = {
    "pi": 1,
    "theta": 1 << FIX_BITS,
    "psi": 1 << FIX_BITS,
    "Pi": math.lcm(*range(1, 25)),
}
assert DETAIL_LIMIT_MAX < 1 << 25
# every denominator of a float64 read is exact in float64 (_exact_quotients)
assert 2 * SCALE["Pi"] < 1 << 53

# a read at jump k from one side, as weights on (R[k - 1], R[k]) over 2 SCALE
_SIDES = {"left": (2, 0), "at": (1, 1), "right": (0, 2)}
# a scan's side codes 0..3, in the order in which a later read at the same x wins
_LABELS = (*_SIDES, "interior")

def _log_fixed(p: int) -> int:
    """round(log(p) * 2^FIX_BITS), half up, from log(p) rounded to LOG_PREC
    bits, for p >= 2: the step of a prime p in the exact theta and psi
    columns.

    The same arithmetic as floor(mp.log(p) * 2^FIX_BITS + 1/2) at LOG_PREC
    bits, done on the mantissa: the scaling by 2^FIX_BITS is exact, and so
    is adding 1/2, because log(p) * 2^FIX_BITS is far below 2^(LOG_PREC - 1).
    """
    _, man, exp, _ = libmp.mpf_log(libmp.from_int(p), LOG_PREC, "n")
    shift = -exp - FIX_BITS
    return (man + (1 << (shift - 1))) >> shift


def _simple_sieve(n: int) -> np.ndarray:
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def _odd_mask(lo: int, hi: int, base: np.ndarray) -> tuple[int, np.ndarray]:
    """Odd-only sieve of [lo, hi), lo >= 2, given base primes covering sqrt(hi).

    Returns (first, mask): mask[i] is True iff first + 2 i is an odd prime.
    """
    first = lo | 1
    mask = np.ones(max(0, (hi - first + 1) // 2), dtype=bool)
    for p in base[1:]:
        p = int(p)
        if p * p >= hi:
            break
        start = max(p * p, ((first + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        mask[(start - first) // 2 :: p] = False
    return first, mask


def _segment_primes(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi) given base primes covering sqrt(hi)."""
    if hi <= 2:
        return np.empty(0, dtype=np.int64)
    lo = max(lo, 2)
    first, mask = _odd_mask(lo, hi, base)
    odd = np.flatnonzero(mask).astype(np.int64) * 2 + first
    return np.concatenate(([2], odd)) if lo == 2 else odd


@dataclass
class PrimeTables:
    """Per-jump tables of the normalized counting functions.

    Arrays are indexed by jump points (prime powers <= limit, ascending).
    ``right[kind][k]`` is SCALE[kind] times the count just after jump k, an
    exact int for every kind (``_RightLimits``).
    """

    limit: int
    jumps: np.ndarray          # int64 prime powers
    jump_m: np.ndarray         # int64 exponent
    jump_p: np.ndarray         # int64 prime under each jump

    # -- exact accessors ------------------------------------------------

    @cached_property
    def right(self) -> Mapping:
        return _RightLimits(self.jump_m, self.jump_p)

    @property
    def primes(self) -> np.ndarray:
        return self.jumps[self.jump_m == 1]

    def locate(self, x) -> tuple[int, str]:
        """(k, side) of the read that gives a count at real x <= limit.

        k is the last jump <= x (-1 below the first); the side is 'at' when
        x is that jump, else 'right'.
        """
        xf = float(x)
        if xf > self.limit:
            raise ParameterError(f"x={x} beyond table limit {self.limit}")
        k = int(np.searchsorted(self.jumps, math.floor(xf), side="right")) - 1
        return k, "at" if k >= 0 and self.jumps[k] == xf else "right"

    def scaled(self, kind: str, k: int, side: str) -> int:
        """2 SCALE[kind] times the count at jump k read from ``side``.

        With R = ``right[kind]``: 'left' is R[k - 1], 'right' is R[k] and
        'at' their mean, the starred value.  Below the first jump (k = -1)
        and left of it (k = 0, 'left') the sum is empty, 0.
        """
        if kind not in SCALE:
            raise ParameterError(f"unknown counting kind {kind!r}")
        col = self.right.prefix(kind, k + 1)
        w_left, w_right = _SIDES[side]
        left = int(col[k - 1]) if k > 0 else 0
        right = int(col[k]) if k >= 0 else 0
        return w_left * left + w_right * right

    def value(self, kind: str, k: int, side: str) -> mpf:
        """The count at jump k read from ``side``, as an mpf."""
        with working_precision():
            return mpf(self.scaled(kind, k, side)) / (2 * SCALE[kind])

    def count(self, kind: str, x) -> mpf:
        """Exact normalized count at real x <= limit, as an mpf."""
        return self.value(kind, *self.locate(x))

    # -- float64 scan views ----------------------------------------------
    # each built on first use, cached on the table and shared, read-only,
    # by every scan against it

    @cached_property
    def float_views(self) -> dict:
        """float64 per-jump arrays: the jumps ``x`` and, per side and kind,
        the left limit, starred value and right limit.

        pi and Pi: the correctly rounded images of the exact ``scaled``
        reads, the right limits R[k] / SCALE and the starred values
        (R[k - 1] + R[k]) / (2 SCALE), their numerators summed exactly in
        int64 (``_exact_quotients``).  theta and psi: the same reads of the
        running sums of the float64 logs of the primes, within the bound
        of ``_log_sum_reads`` of the exact reads.
        """
        views = {"x": _read_only(self.jumps.astype(np.float64)), "left": {}, "at": {}, "right": {}}
        logs = np.log(self.jump_p.astype(np.float64))
        for kind in SCALE:
            if kind in ("pi", "Pi"):
                col = self.right[kind]
                right = _exact_quotients(col, SCALE[kind])
                at = _exact_quotients(_pair_sums(col), 2 * SCALE[kind])
            else:
                right, at = _log_sum_reads(np.where(self.jump_m == 1, logs, 0.0) if kind == "theta" else logs)
            # left is right shifted by one, [0.0, *right], the views of one array
            padded = _read_only(np.concatenate(([0.0], right)))
            views["right"][kind], views["left"][kind] = padded[1:], padded[:-1]
            views["at"][kind] = _read_only(at)
        return views

    @cached_property
    def jump_li(self) -> np.ndarray:
        """float64 li at every jump."""
        return _read_only(_li64(self.float_views["x"]))

    @cached_property
    def _block_cache(self) -> dict:
        return {}

    def block_deviations(self, kind: str, uses_li: bool) -> np.ndarray:
        """W_b, the largest |deviation| of a count kind from its target,
        li(x) or x, in each block of ``_SCAN_BLOCK`` jumps.

        The deviations are the float64 reads minus the target: the left,
        starred and right reads at every jump k of the block, and the left
        read at k + 1, which closes the gap of k.  A NaN among them makes
        W_b NaN.  Built on first use for each (kind, uses_li).
        """
        key = kind, uses_li
        if key not in self._block_cache:
            views = self.float_views
            target = self.jump_li if uses_li else views["x"]
            left = np.abs(views["left"][kind] - target)
            peak = np.maximum(np.abs(views["at"][kind] - target), np.abs(views["right"][kind] - target))
            np.maximum(peak, left, out=peak)
            np.maximum(peak[:-1], left[1:], out=peak[:-1])
            starts = np.arange(0, len(peak), _SCAN_BLOCK)
            self._block_cache[key] = _read_only(np.maximum.reduceat(peak, starts))
        return self._block_cache[key]


class _RightLimits(Mapping):
    """kind -> the exact right limits over SCALE[kind]: int64 for pi and Pi,
    lists of Python ints for theta and psi, whose steps are ``_log_fixed``
    of the prime under each jump.  Each column is built on its first read,
    theta and psi only as far as the read needs (``prefix``) and extended on
    later reads, taking each prime's log once."""

    def __init__(self, jump_m: np.ndarray, jump_p: np.ndarray):
        self._m, self._p, self._columns = jump_m, jump_p, {}
        self._fixed, self._reach = {}, 0   # the logs of the primes in jumps[:_reach]

    def __iter__(self):
        return iter(SCALE)

    def __len__(self) -> int:
        return len(SCALE)

    def __contains__(self, kind) -> bool:
        return kind in SCALE

    def __getitem__(self, kind: str):
        return self.prefix(kind, len(self._m))

    def prefix(self, kind: str, n: int):
        """The column of ``kind``, built through at least its first n entries."""
        if kind in ("pi", "Pi"):
            if kind not in self._columns:
                steps = self._m == 1 if kind == "pi" else SCALE["Pi"] // self._m
                self._columns[kind] = np.cumsum(steps, dtype=np.int64)
            return self._columns[kind]
        if kind not in ("theta", "psi"):
            raise KeyError(kind)
        col = self._columns.setdefault(kind, [])
        if n > len(col):
            total = col[-1] if col else 0
            col.extend(islice(accumulate(self._steps(kind, len(col), n), initial=total), 1, None))
        return col

    def _steps(self, kind: str, lo: int, hi: int):
        """The steps of theta or psi at jumps lo .. hi - 1."""
        if hi > self._reach:
            new = self._p[self._reach : hi][self._m[self._reach : hi] == 1].tolist()
            self._fixed.update(zip(new, map(_log_fixed, new)))
            self._reach = hi
        logs = map(self._fixed.__getitem__, self._p[lo:hi].tolist())
        if kind == "psi":
            return logs
        return map(operator.mul, logs, (self._m[lo:hi] == 1).tolist())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _pair_sums(col: np.ndarray) -> np.ndarray:
    """col[k - 1] + col[k] at every k, col[-1] taken as 0."""
    sums = col.copy()
    sums[1:] += col[:-1]
    return sums


def _exact_quotients(nums: np.ndarray, den: int) -> np.ndarray:
    """float64 n / den, correctly rounded, for an int64 array of n >= 0.

    numpy's int64-to-float64 cast rounds each int once, correctly.  For a
    power-of-two ``den`` the division is then an exact ldexp.  Otherwise the
    cast is exact for n < 2^53, where an IEEE division by a den below 2^53
    rounds once, correctly; any larger n is divided exactly, one by one.
    """
    floats = nums.astype(np.float64)
    shift = den.bit_length() - 1
    if den == 1 << shift:
        return np.ldexp(floats, -shift)
    exact = floats < 2.0 ** 53
    out = floats / den
    out[~exact] = [int(n) / den for n in nums[~exact]]
    return out


_HALF_BITS = 29   # each log is 2^-53 times an integer below 2^(2 _HALF_BITS)


def _log_sum_reads(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(right, at): the float64 running sums S_k of ``logs`` and the starred
    values (S_(k-1) + S_k) / 2, each correctly rounded from the exact sum of
    the float64 terms, for terms 0 or in [1/2, 32) and fewer than 2^23.

    A float64 in [1/2, 32) is 2^-53 times an integer below 2^58, so each
    term splits exactly into two 29-bit halves, a high and a low one, and
    int64 running sums of each half, and their pairwise sums, stay below
    2^53.  The high sum times 2^29 and the low sum are then exact doubles,
    and one IEEE addition rounds their total, the exact sum, once.

    The bound.  For theta and psi the terms are fl(log p) = ``np.log(p)``
    for the prime p under each jump, so a view v of a count c differs from
    c by at most 1/2 ulp(v) + sum |fl(log p) - log p| over the logs summed,
    and from the exact read of the 96-bit columns by under 2^-96 more per
    log.  numpy does not prove its log's accuracy: the assumption
    |fl(log p) - log p| <= ulp(fl(log p)) is a measured one.  Over all
    1,270,607 primes <= 2e7, ``np.log`` is correctly rounded at every prime
    but 45, the worst of those within 0.50013 ulp.  With log p < 17 every
    ulp is at most 2^-48, so at 2e7 the bound is below
    1/2 ulp(2e7) + 1,270,607 * 2^-48 < 7e-9 (5.3e-9 summed term by term),
    and at every jump to 2e7 it is under 1.3e-4 of the guard band of each
    theta and psi spec ``verify-primes`` scans.
    """
    units = np.ldexp(logs, 53).astype(np.int64)
    assert len(units) < 1 << 23
    halves = np.cumsum(units >> _HALF_BITS), np.cumsum(units & ((1 << _HALF_BITS) - 1))

    def rounded(high, low, exp):
        return np.ldexp(np.ldexp(high, _HALF_BITS) + low, -exp)

    return rounded(*halves, 53), rounded(*map(_pair_sums, halves), 54)


def _build_segments(limit: int, segment_size: int, base):
    """Generate each segment's jumps, ascending, as three int64 columns: the
    prime powers n, their exponents m and the prime under each."""
    # every power p^m <= limit, m >= 2, of a base prime: (n, m, p)
    powers = []
    for p in base.tolist():
        n, m = p * p, 2
        while n <= limit:
            powers.append((n, m, p))
            n, m = n * p, m + 1
    pow_n, pow_m, pow_p = np.array(sorted(powers), dtype=np.int64).reshape(-1, 3).T
    lo = 2
    while lo <= limit:
        hi = min(lo + segment_size, limit + 1)
        seg_primes = _segment_primes(lo, hi, base)
        a, b = np.searchsorted(pow_n, (lo, hi))
        # the segment's primes, then its powers, each row put in place by one sort
        jumps = np.concatenate((seg_primes, pow_n[a:b]))
        order = np.argsort(jumps, kind="stable")
        jump_m = np.concatenate((np.ones(len(seg_primes), np.int64), pow_m[a:b]))
        jump_p = np.concatenate((seg_primes, pow_p[a:b]))
        yield jumps[order], jump_m[order], jump_p[order]
        lo = hi


def build_tables(limit: int, *, segment_size: int = DEFAULT_SEGMENT) -> PrimeTables:
    """Sieve to ``limit`` and assemble per-jump tables."""
    limit = int(limit)
    if limit < 100:
        raise ParameterError("build_tables requires limit >= 100")
    if limit > DETAIL_LIMIT_MAX:
        raise ParameterError(
            f"per-jump tables capped at {DETAIL_LIMIT_MAX}; use prime_counts "
            "for plain counts beyond that"
        )
    # a segment_size below 1 never advances a segment
    if not (isinstance(segment_size, (int, np.integer)) and segment_size >= 1):
        raise ParameterError(f"segment_size must be an integer >= 1, got {segment_size!r}")
    base = _simple_sieve(int(limit ** 0.5) + 1)
    jumps, jump_m, jump_p = map(np.concatenate, zip(*_build_segments(limit, segment_size, base)))
    return PrimeTables(limit=limit, jumps=jumps, jump_m=jump_m, jump_p=jump_p)


def psi_theta_gap(x, tables: PrimeTables) -> mpf:
    """Exact psi*(x) - theta*(x); both sums share the fixed-point grid, so
    the subtraction at the working precision is exact."""
    with working_precision():
        return tables.count("psi", x) - tables.count("theta", x)


# ---------------------------------------------------------------------------
# inequality scanning


_KINDS = ("psi_sq", "theta_sq", "psi_shift", "theta_shift", "Pi_li", "pi_li")


@dataclass(frozen=True)
class InequalitySpec:
    """|count - target| < a * envelope(x), one of the six bound shapes.

    psi_sq/theta_sq:   |psi/theta - x|  < a sqrt(x) log^2 x
    psi_shift/theta_shift: |psi/theta - x| < a sqrt(x) log x (log x - C)
    Pi_li/pi_li:       |Pi/pi - li(x)|  < a sqrt(x) log x
    """

    kind: str
    a: float
    C: Optional[float] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown inequality kind {self.kind!r}")
        # a NaN margin compares false both ways, so a non-finite spec would pass everything
        if not (math.isfinite(self.a) and self.a > 0):
            raise ParameterError(f"requires a finite a > 0, got {self.a}")
        if self.kind.endswith("_shift") and self.C is None:
            raise ParameterError("shift kinds need the shift constant C")
        if self.C is not None and not math.isfinite(self.C):
            raise ParameterError(f"requires a finite shift constant C, got {self.C}")

    @property
    def count_kind(self) -> str:
        return self.kind.split("_")[0]

    @property
    def uses_li(self) -> bool:
        return self.kind.endswith("_li")

    def rhs(self, x, m):
        """The envelope at x in number type ``m``: numpy on float64 arrays,
        or mpmath's ``mp`` on an mpf, where a and C convert exactly."""
        return self.envelope(m.sqrt(x), m.log(x))

    def envelope(self, sqrt_x, log_x):
        """The envelope from sqrt(x) and log(x), float64 arrays or mpfs."""
        if self.kind.endswith("_sq"):
            return self.a * sqrt_x * log_x ** 2
        if self.kind.endswith("_shift"):
            return self.a * sqrt_x * log_x * (log_x - self.C)
        return self.a * sqrt_x * log_x


def _li_coefficients(n_terms: int) -> tuple:
    """(-1)^(n-1) / (n! 2^(n-1)) * sum_{k < n/2} 1/(2k+1), n = 1..n_terms,
    each the double nearest the exact rational."""
    out, inner, fact = [], Fraction(0), 1
    for n in range(1, n_terms + 1):
        fact *= n
        if n % 2:
            inner += Fraction(1, n)
        out.append(float((-1) ** (n - 1) * inner / (fact << (n - 1))))
    return tuple(out)


_LI_COEFFICIENTS = _li_coefficients(64)
# REACH[n - 1]: the largest log x at which the terms from the n-th on are
# all below 2^-70, the sum being above 1/2 for x >= 2
_LI_REACH = list(accumulate(
    ((2.0 ** -70 / abs(c)) ** (1 / n) for n, c in enumerate(_LI_COEFFICIENTS, start=1)), max))
_EULER = 0.5772156649015329


def _li64(x: np.ndarray) -> np.ndarray:
    """float64 li(x) for 2 <= x <= 6e9, by Ramanujan's series

        li(x) = gamma + log L + P,  P = sqrt(x) S,  S = sum_{n>=1} c_n L^n,

    L = log x, summed by Horner's rule over the first N terms, N the fewest
    that the largest x needs (``_LI_REACH``).

    The bound.  Let u = 2^-53 and T = max |c_n| L^n.  The terms alternate
    in sign and rise, then fall, in size, so every tail sum_{n>=j} c_n L^n
    lies within 2T of 0.  T/S, the cancellation factor, is about
    2 sqrt(L) and below 10 (9.6 at 6e9); S is above 1/2.  Against S, the
    computed sum errs by at most
    - 2^-70 / S < 2^-69 for the terms dropped, each below 2^-70 at every L
      up to the largest, alternating and falling;
    - u N T / S < 10 N u for the coefficients, each the double nearest its
      rational;
    - 2 (2 N - 1) u T / S < 40 N u for Horner's 2 N - 1 roundings, each of
      a value within 2T.
    L is np.log(x), taken within one ulp, 2 u L, as ``_log_sum_reads``
    takes np.log.  Differentiating li(e^L) = e^L / L gives
    sqrt(x) dS/dL = (x - 1) / L - P / 2 exactly, so that error moves
    log L + P by at most 2 u (1 + max(x - 1, L P / 2)).  The rounding of
    sqrt(x), of the product, of log L and of the two sums adds
    u (3 P + 4 |log L| + 3) with gamma < 1, so that, with 1.001 covering the
    products of the (1 + u) factors,

        |li64(x) - li(x)| <= 1.001 u ((50 N + 5) P + 2 x + L P + 4 |log L| + 5).

    At every x <= 2e7 (``DETAIL_LIMIT_MAX``, N <= 55) that is below 0.14 of
    the guard band 1e-9 max(a sqrt(x) log x, 1) of the Pi_li and pi_li specs
    ``verify-primes`` scans with a = 1/(8 pi), and below 0.006 of those
    with a = 1, the ratio largest at 2e7.  Against 120-bit values the error
    measures about 1% of the bound.
    """
    lx = np.log(x)
    n_terms = bisect.bisect_left(_LI_REACH, np.max(lx, initial=0.0)) + 1
    if n_terms > len(_LI_COEFFICIENTS):
        raise ParameterError("the float64 li is for x <= 6e9")
    top, *rest = _LI_COEFFICIENTS[n_terms - 1 :: -1]
    if lx.size <= 2:
        # a scan's range ends: Python floats round each product and sum as
        # numpy does, without its fixed cost per call on a tiny array
        acc = np.reshape([reduce(lambda v, c: v * L + c, rest, top) for L in lx.ravel().tolist()],
                         lx.shape)
    else:
        acc = np.full(np.shape(lx), top)
        for c in rest:
            acc *= lx
            acc += c
    return _EULER + np.log(lx) + np.sqrt(x) * (acc * lx)


def _guard(rhs: np.ndarray) -> np.ndarray:
    """Half-width of the band around 0 in which a float64 margin is re-decided."""
    g = np.maximum(rhs, 1.0)
    g *= 1e-9
    return g


_SCAN_BLOCK = 256         # jumps per block that a scan may clear with one bound
_GAP_SAMPLES = 16         # evenly spaced points read inside each open gap
_ENVELOPE_SLACK = 1e-12   # relative widening of the envelope at a block's two ends
_SHAPES = ("sq", "shift", "li")   # the envelope shapes, by the suffix of the kind
_SQ, _SHIFT = 0, 1


class _SpecArrays:
    """Specs as arrays indexed by spec, for the steps a scan batches: the
    envelope's shape (a code into ``_SHAPES``), a, C (0 for the shapes
    without one, below the log of every x scanned), the count kind's code
    (its index in SCALE) and whether the target is li."""

    def __init__(self, specs):
        self.specs = tuple(specs)
        self.shape = np.array([_SHAPES.index(s.kind.split("_")[1]) for s in self.specs], dtype=np.int64)
        self.a = np.array([s.a for s in self.specs], dtype=np.float64)
        self.C = np.array([s.C if s.kind.endswith("_shift") else 0.0 for s in self.specs], dtype=np.float64)
        self.kind = np.array([list(SCALE).index(s.count_kind) for s in self.specs], dtype=np.int64)
        self.uses_li = np.array([s.uses_li for s in self.specs], dtype=bool)

    def envelopes(self, index, sqrt_x, log_x) -> np.ndarray:
        """The envelope of spec ``index`` at each element, broadcast, from
        sqrt(x) and log(x): each with its own shape's operations in
        ``InequalitySpec.envelope``'s order, so bit for bit the spec's."""
        shape = self.shape[index]
        env = self.a[index] * sqrt_x
        env *= np.where(shape == _SQ, log_x ** 2, log_x)
        np.multiply(env, log_x - self.C[index], out=env, where=shape == _SHIFT)
        return env


def scan_inequalities(
    specs,
    x_lo: float,
    x_hi: float,
    tables: PrimeTables,
) -> list[Verdict]:
    """Check each inequality for all real x in [x_lo, x_hi]: one verdict per
    spec, in their order, from one array pass over the reads of them all.

    A verdict passes when no real x in range violates its inequality, and
    reports the last violation (``last_violation_side`` 'left' when
    violations approach it from below, 'interior' for a point inside a gap
    or a range end that is not a jump) and the last violating integer, each
    None when clean.  Every violating point read moves the last violation,
    integers too.  In a gap that neither bound below settles it is the last
    violating sample or integer, a lower bound on the true one: psi_sq with
    a = 0.002 on [2, 1e4] fails at 9996 by 0.435 and holds at 9996.5 by
    0.065, and the scan reports 9996.
    ``n_points`` counts the reads made: the jump reads in range, the range
    ends that are not jumps, the samples and the integers checked one by
    one; ``n_rechecked`` counts those re-decided in extended precision.

    Both sides can only trade places at jump points.  The scan's nodes are
    the prime powers in range and each end of the range that is not one.
    Reading every node is exhaustive: a jump from the left, at the jump and
    from the right (bar the left limit at x_lo and the right limit at x_hi,
    which describe x outside the range), an end with the count of the last
    jump below it.  Each gap between consecutive nodes is then decided from
    its two ends.  On a gap the count is frozen at c = R[k], the right
    limit of the last jump k at its start, and c - target falls, because
    the target, x or li(x), rises for x > 1; at the gap's ends it is the
    deviation of the right read at its first node and of the left read at
    its second.  So |c - target| is largest at an end, and
    smallest at an end unless it changes sign in the gap.  The envelopes
    a sqrt(x) log^2 x and a sqrt(x) log x rise for x > 1, and
    a sqrt(x) log x (log x - C) has at most one turning point on x > 1, a
    minimum below e^C; each is largest at an end, and smallest at an end
    once the gap starts at or above e^C.  Hence, on the whole gap:

    - the margin is at most the larger end deviation minus the smaller end
      envelope.  When that is below the guard band, every real x and every
      integer in the gap holds.  A shift gap starting below e^C is never
      settled so: its envelope is negative at its start, so the bound is
      positive.
    - the margin is at least the smaller end deviation (0 on a sign change)
      minus the larger end envelope.  When that is above the guard band,
      the whole gap fails; its later end, the left read at its second node,
      is a later violation than any point inside and is recorded already,
      so only the gap's last integer is added.

    Every other gap gets ``_GAP_SAMPLES`` (16) evenly spaced points and all
    of its integers.  An integer at a jump reads the starred value, so the
    node reads decide it.  Such a gap is decided from its samples and
    integers, not proved: a violation between two reads that hold goes
    unseen.  At 2e5 the weak Pi_li and pi_li specs (a = 1) pass the open
    gap (2, 3) this way.

    Whole blocks of jumps are settled before any of them is read.  A block
    is ``_SCAN_BLOCK`` consecutive jumps s..e of the table; jump k owns its
    three reads and gap k, from jump k to jump k + 1.  Only a block strictly
    inside the range's jumps, k0 < s and e < k1, may be cleared, so no range
    end and no gap at one touches it.  Let W be the largest |deviation| of its
    reads and of the left read at e + 1 (``block_deviations``, NaN when any
    is NaN), and lo and hi the envelope at jumps s and e + 1, widened by the
    relative slack ``_ENVELOPE_SLACK``.  The envelope is computed from
    np.sqrt(x) and np.log(x) by rounded products and, for a shift kind, the
    subtraction log x - C.  np.log rises from jump to jump, which are at
    least 1 apart, by far more than its error, and rounding is monotone, so
    once every factor is non-negative the computed envelope rises from jump
    to jump: a shift block is cleared only when log x_s >= C.  So lo and hi
    bound every envelope the reads compute at jumps s..e + 1, the slack
    covering a last-bit difference of np.log between calls.  The block is
    cleared when W - lo <= -guard(hi).  Then every read in it has
    |dev| - rhs <= W - lo <= -guard(hi) <= -guard(rhs), rounded subtraction
    being monotone too, so it would be neither flagged nor re-decided.
    Every gap of the block has far - min(end envelopes) <= W - lo as well,
    so none is open, and near <= far puts near - top below the guard band,
    so none fails and none of its integers is read.  A NaN W compares false
    and leaves its block to be read.  A cleared block adds its reads to
    ``n_points`` uncomputed, so every field of the verdict is the one of
    reading each of its jumps.

    Every read is then decided in one array pass over its float64 margin:
    at or above the guard band of the spec's own envelope it violates, at
    or below minus the band it holds, and inside the band, or NaN, it is
    re-decided in extended precision from the exact tables.  The last
    violation is the largest violating x; of the reads there, an
    'interior' one wins over 'right', 'right' over 'at' and 'at' over
    'left'.

    The specs share every step.  Their blocks are cleared by one
    (spec x block) comparison, and the nodes left to read are one array,
    spec after spec, each carrying the index of its spec, which picks each
    read's count kind, target and envelope parameters.  Each end that is not
    a jump is a node of every spec, first or last among its nodes, so every
    gap runs from one node to the next and one ``_gap_bounds`` call bounds
    them all.  li at the ends is one ``_li64`` call, before the gaps are
    bounded, and li at every point inside an open gap one more; those points
    and every read are decided together, and each verdict is reduced from
    the reads of its own spec, so it is the one a scan of that spec alone
    gives.
    """
    if x_hi > tables.limit:
        raise ParameterError(f"x_hi={x_hi} beyond table limit {tables.limit}")
    if not (2 <= x_lo < x_hi):
        raise ParameterError("requires 2 <= x_lo < x_hi")
    specs = _SpecArrays(specs)
    n_specs = len(specs.specs)
    if not n_specs:
        return []
    x_lo, x_hi = float(x_lo), float(x_hi)
    views = tables.float_views
    xs = views["x"]
    k0 = int(np.searchsorted(xs, x_lo))                    # first jump >= x_lo
    k1 = int(np.searchsorted(xs, x_hi, side="right")) - 1   # last jump <= x_hi
    n_jumps = k1 + 1 - k0
    # the nodes are the jumps in range and each end that is not a jump
    lo_end = n_jumps == 0 or xs[k0] != x_lo
    hi_end = n_jumps == 0 or xs[k1] != x_hi
    end_x = np.array([x for x, end in ((x_lo, lo_end), (x_hi, hi_end)) if end])

    (fail_s, fail_n), (starts, ends, open_k, open_s, n_first, n_last), hot = _read_nodes(
        specs, tables, x_lo, x_hi, k0, k1, end_x)

    # one pass reads every point inside an open gap, each at R[k] of its gap
    # k: the samples of every open gap, then their integers
    fracs = np.arange(1, _GAP_SAMPLES + 1) / (_GAP_SAMPLES + 1.0)
    n_ints = np.maximum(n_last - n_first + 1, 0)
    px = np.concatenate(((starts[:, None] + (ends - starts)[:, None] * fracs).ravel(),
                         _concat_ranges(n_first, n_last).astype(np.float64)))
    pk = np.concatenate((np.repeat(open_k, _GAP_SAMPLES), np.repeat(open_k, n_ints)))
    ps = np.concatenate((np.repeat(open_s, _GAP_SAMPLES), np.repeat(open_s, n_ints)))
    p_dev = _gather([views["right"]], specs.kind[ps], pk)[0]
    li = specs.uses_li[ps]
    p_dev[~li] -= px[~li]
    if li.any():
        p_dev[li] -= _li64(px[li])
    p_rhs = specs.envelopes(ps, np.sqrt(px), np.log(px))

    # the reads that do not clearly hold, at the nodes and then at the points
    # read, as arrays, with side codes 0..3 for left, at, right and interior
    p_margin, p_band = np.abs(p_dev, out=p_dev), _guard(p_rhs)
    p_margin -= p_rhs
    point = np.flatnonzero(~(p_margin <= -p_band))
    x, k, spec_of, code, margin, band = (
        np.concatenate(pair) for pair in zip(hot, (px[point], pk[point], ps[point], np.full(len(point), 3),
                                                   p_margin[point], p_band[point])))
    integer = np.concatenate((hot[3] == 1, point >= len(open_k) * _GAP_SAMPLES))

    # a margin at or above the guard band violates and one at or below minus
    # it holds; those inside the band, or NaN, are re-decided one by one
    violates = margin >= band
    rechecks = np.flatnonzero(~violates)
    for i in rechecks.tolist():
        violates[i] = _recheck(specs.specs[spec_of[i]], tables, int(k[i]),
                               _LABELS[min(code[i], 2)], float(x[i]))
    n_rechecked = np.bincount(spec_of[rechecks], minlength=n_specs)

    # per spec, the last violation is the largest violating x, read from the
    # side of highest code there, and the last integer violation the largest
    # violating integer read or last integer of a failing gap
    x, spec_of, code, integer = x[violates], spec_of[violates], code[violates], integer[violates]
    worst_x, worst_code = np.full(n_specs, -np.inf), np.full(n_specs, -1)
    np.maximum.at(worst_x, spec_of, x)
    top = x == worst_x[spec_of]
    np.maximum.at(worst_code, spec_of[top], code[top])
    int_violations = np.full(n_specs, -1.0)
    np.maximum.at(int_violations, np.concatenate((spec_of[integer], fail_s)),
                  np.concatenate((x[integer], fail_n)))
    # every jump is read from three sides, bar the left limit at x_lo and the
    # right limit at x_hi, and every end once
    n_points = 3 * n_jumps - (not lo_end) - (not hi_end) + len(end_x) + np.bincount(ps, minlength=n_specs)

    return [
        Verdict(
            bool(worst_code[i] < 0),
            spec=spec,
            x_lo=x_lo,
            x_hi=x_hi,
            last_violation=float(worst_x[i]) if worst_code[i] >= 0 else None,
            last_violation_side=_LABELS[worst_code[i]] if worst_code[i] >= 0 else None,
            last_integer_violation=int(int_violations[i]) if int_violations[i] >= 0 else None,
            n_points=int(n_points[i]),
            n_rechecked=int(n_rechecked[i]),
        )
        for i, spec in enumerate(specs.specs)
    ]


def _read_nodes(specs: _SpecArrays, tables, x_lo, x_hi, k0, k1, end_x):
    """The reads of every spec at its nodes, the jumps k0..k1 that its
    blocks leave and the ends ``end_x`` of the range that are not jumps, and
    the gaps between them, in one pass: (fails, opens, hot).

    fails holds the spec s and the last integer of each gap that fails
    throughout and has one, and opens the start and end x, jump k, spec s
    and first and last integer of each gap that neither bound settles
    (``_gap_bounds``).  hot holds the reads that do not clearly hold, each
    with its x, jump, spec, side code, margin and guard band.  Built in a
    function of its own, the per-entry arrays are freed before the scan
    reads its points.
    """
    views = tables.float_views
    n_specs = len(specs.specs)
    # the jumps of the blocks no bound clears, spec after spec, then each end
    # put first or last among its spec's nodes, at the last jump below it,
    # each node with its spec s and the deviation of every read at it, one
    # row per side; gap i runs from node i to node i + 1
    ks, own, s = _jumps_to_read(specs, tables, k0, k1)
    # node i is entry order[i] of the jumps followed by the ends
    n_ends = n_specs * len(end_x)
    at = np.searchsorted(s, np.arange(n_specs)[:, None] + (end_x == x_hi)).ravel()
    order = np.insert(np.arange(len(ks)), at, np.arange(len(ks), len(ks) + n_ends))
    jump = order < len(ks)
    end = np.flatnonzero(~jump)
    x, ks, own, s = (np.concatenate(pair)[order] for pair in (
        (views["x"][ks], np.tile(end_x, n_specs)),
        (ks, np.tile(np.searchsorted(views["x"], end_x) - 1, n_specs)),
        (own, np.ones(n_ends, dtype=bool)),
        (s, np.repeat(np.arange(n_specs), len(end_x)))))
    rhs = specs.envelopes(s, np.sqrt(x), np.log(x))
    guard = _guard(rhs)
    dev = _gather([views[side] for side in _SIDES], specs.kind[s], ks)
    dev[:2, end] = dev[2, end]   # an end has the count of its jump k from every side
    li = specs.uses_li[s]
    if li.any():
        li_x = tables.jump_li[ks]
        if len(end_x):
            li_x[end] = np.tile(_li64(end_x), n_specs)
        dev -= np.where(li, li_x, x)
    else:
        dev -= x
    gap = own[:-1] & (s[:-1] == s[1:])
    fails, opened = _gap_bounds(dev[2, :-1], dev[0, 1:], rhs[:-1], rhs[1:])
    fails, opened = np.flatnonzero(fails & gap), np.flatnonzero(opened & gap)

    def integers(i):
        # the integers strictly inside gap i, an end that is one included
        return np.ceil(x[i]).astype(np.int64) + jump[i], np.floor(x[i + 1]).astype(np.int64) - jump[i + 1]

    first, last = integers(fails)
    fails, fail_n = fails[last >= first], last[last >= first]
    # an end is read once, with side code 3; a one-sided limit at a jump
    # describes x on its side of it
    read = np.stack((jump & (x > x_lo), own, jump & (x < x_hi)))
    read &= own
    margin = np.abs(dev, out=dev)
    margin -= rhs
    side, entry = np.nonzero(read & ~(margin <= -guard))
    hot = x[entry], ks[entry], s[entry], np.where(jump[entry], side, 3), margin[side, entry], guard[entry]
    return (s[fails], fail_n), (x[opened], x[opened + 1], ks[opened], s[opened], *integers(opened)), hot


def scan_inequality(
    spec: InequalitySpec,
    x_lo: float,
    x_hi: float,
    tables: PrimeTables,
) -> Verdict:
    """Check the inequality for all real x in [x_lo, x_hi]: the verdict of
    ``scan_inequalities`` for this one spec, whose docstring states its
    fields and the lemmas by which whole gaps and blocks are settled."""
    return scan_inequalities((spec,), x_lo, x_hi, tables)[0]


def _gather(columns, kinds, k) -> np.ndarray:
    """``columns[j][kind][k]`` at every element, one row per j, the kind
    given by its code (index in SCALE) element by element."""
    out = np.empty((len(columns), len(k)))
    for code, kind in enumerate(SCALE):
        i = np.flatnonzero(kinds == code)
        if len(i):
            at = k[i]
            for row, column in zip(out, columns):
                row[i] = column[kind][at]
    return out


def _jumps_to_read(specs: _SpecArrays, tables, k0, k1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ks, own, s): for each spec s in turn, the jumps k0..k1 that no block
    bound clears for it, ascending, each run of them followed by the jump
    after it when that one is cleared, for the run's last gap; ``own`` is
    False at those, and s holds the spec of each entry.

    A block b strictly inside k0..k1 is cleared for a spec when
    W_b - lo <= -guard(hi) (``_block_envelopes``; the block lemma is in
    ``scan_inequalities``), one comparison for every (spec, block).
    """
    B = _SCAN_BLOCK
    n_specs = len(specs.specs)
    blocks = np.arange(k0 // B + 1, k1 // B)   # b B > k0 and (b + 1) B - 1 < k1
    # W first: reading it may build the table's per-jump arrays, which built
    # after the (spec x block) envelope arrays took 10 MB more peak RSS at 2e7
    deviations = np.stack([tables.block_deviations(spec.count_kind, spec.uses_li)[blocks]
                           for spec in specs.specs])
    lo, hi = _block_envelopes(specs, tables.float_views["x"], blocks)
    cleared_s, cleared = np.nonzero(deviations - lo <= -_guard(hi))
    cleared = blocks[cleared]
    # the runs between cleared blocks, spec after spec: a first run from k0
    # and a last one to k1 around each spec's cleared blocks, the empty
    # ones between two cleared blocks then dropped
    heads = np.searchsorted(cleared_s, np.arange(n_specs))
    tails = np.searchsorted(cleared_s, np.arange(n_specs), side="right")
    first = np.insert((cleared + 1) * B, heads, k0)
    last = np.insert(cleared * B - 1, tails, k1)
    run_s = np.insert(cleared_s, heads, np.arange(n_specs))
    runs = first <= last
    first, last, run_s = first[runs], last[runs], run_s[runs]
    stop = np.minimum(last + 1, k1)
    lens = stop - first + 1
    ks = _concat_ranges(first, stop)
    own = np.ones(len(ks), dtype=bool)
    own[(np.cumsum(lens) - 1)[last < k1]] = False
    return ks, own, np.repeat(run_s, lens)


def _block_envelopes(specs: _SpecArrays, xs, blocks) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi), one row per spec: bounds from below and above on every
    envelope a scan computes at the jumps b B .. (b + 1) B of each block b,
    its values at the two ends widened by ``_ENVELOPE_SLACK``; lo is NaN
    for a shift block that starts below e^C, where the envelope need not
    rise."""
    edge_x = xs[np.stack((blocks, blocks + 1)) * _SCAN_BLOCK]
    log_x = np.log(edge_x)
    env = specs.envelopes(np.s_[:, None, None], np.sqrt(edge_x), log_x)
    lo, hi = env[:, 0] * (1 - _ENVELOPE_SLACK), env[:, 1] * (1 + _ENVELOPE_SLACK)
    lo[log_x[0] < specs.C[:, None]] = np.nan
    return lo, hi


def _gap_bounds(lo_dev, hi_dev, lo_rhs, hi_rhs):
    """(fails, open): the gaps with these deviations and envelopes at their
    two ends that fail throughout, and those neither bound settles (the
    lemma in ``scan_inequalities``), each within the guard band of the larger
    envelope.  The bounds take the larger |deviation| at the two ends, and
    the smaller, 0 when the deviation changes sign across the gap."""
    lo_abs, hi_abs = np.abs(lo_dev), np.abs(hi_dev)
    near = np.where(lo_dev * hi_dev > 0, np.minimum(lo_abs, hi_abs), 0.0)
    top = np.maximum(lo_rhs, hi_rhs)
    g = _guard(top)
    fails = near - top >= g
    return fails, ~(np.maximum(lo_abs, hi_abs) - np.minimum(lo_rhs, hi_rhs) <= -g) & ~fails


def _concat_ranges(first, last) -> np.ndarray:
    """first[i]..last[i] for every i in turn, none when last[i] < first[i]."""
    lens = np.maximum(last - first + 1, 0)
    offsets = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
    return np.repeat(first, lens) + offsets


def threshold_consistent(scan: Verdict, threshold: float) -> bool:
    """True iff the scan shows every real x >= threshold holds.

    No point read at or above ``threshold`` may violate, bar a left limit
    at the threshold, which describes x below it.  A last violation inside
    a gap (side 'interior') can lie past the point read, up to the next
    point read, and every integer of such a gap is read: so the threshold
    must reach the next integer, floor(last) + 1.
    """
    last = scan.last_violation
    if last is None:
        return True
    if scan.last_violation_side == "interior":
        return math.floor(last) + 1 <= threshold
    return last < threshold or (last == threshold and scan.last_violation_side == "left")


def integer_threshold_consistent(scan: Verdict, threshold: float) -> bool:
    """True iff the scanned inequality holds at every integer x >= threshold."""
    return scan.last_integer_violation is None or scan.last_integer_violation < threshold


def _recheck(spec, tables, k, side, x) -> bool:
    """Re-decide a near-zero margin in extended precision; True = violation.

    The count is the read at jump k from ``side`` and the target and
    envelope are taken at x: an integer n reads ``*tables.locate(n), n``.
    """
    with working_precision():
        xq = mpf(x)
        count = tables.value(spec.count_kind, k, side)
        target = li_hp(xq) if spec.uses_li else xq
        return bool(abs(count - target) >= spec.rhs(xq, mp))


def prime_counts(points) -> list[int]:
    """Plain pi(x) at every x in ``points``, in their order.

    Count-only path for arguments far beyond what per-jump tables support
    (the Ramanujan counterexample neighborhood needs x ~ 3.8e10): Lucy's
    recursion over the primes up to the cube root of x, finished by the P2
    term of Meissel and Lehmer (``_lucy_pi``), once per distinct point >= 2.
    Points above ``PRIME_COUNT_MAX`` are rejected.
    """
    points = [int(x) for x in points]
    if max(points, default=0) > PRIME_COUNT_MAX:
        raise ParameterError(f"prime_counts is capped at x <= {PRIME_COUNT_MAX}, got {max(points)}")
    counts = {x: _lucy_pi(x) for x in set(points) if x >= 2}
    return [counts.get(x, 0) for x in points]


def _icbrt(x: int) -> int:
    """floor(x^(1/3)) for x >= 0: a float64 guess, corrected exactly."""
    c = round(x ** (1 / 3))
    while c ** 3 > x:
        c -= 1
    while (c + 1) ** 3 <= x:
        c += 1
    return c


def _lucy_pi(x: int) -> int:
    """pi(x), x >= 2, by Lucy's recursion stopped at c = icbrt(x) and the P2
    term: O(x^(3/4) / log x) time, O(sqrt x) memory.

    S(v) starts at v - 1, and each prime p <= c in turn strikes out the
    numbers whose least prime factor is p: S(v) -= S(v // p) - S(p - 1) for
    every v >= p^2, reading the values left by the previous prime.  Only
    v = x // k is ever needed, so S lives in small[v] for v <= r = isqrt(x)
    and large[k] = S(x // k) for k <= r.  No value or index exceeds x.  The
    index x // (k p) of a large entry read from ``small`` is (x // k) // p:
    numpy divides an array by one scalar several times faster than x by an
    array.

    After the primes up to c, S(v) counts the primes up to v and the
    composites whose least prime factor exceeds c.  Such a composite up to
    x is p q with c < p <= q primes, since three such factors exceed x.  Let
    q1 be the least prime above c, so q1^3 > x.  Every v <= r is below q1^2,
    so small[v] = pi(v); for every prime p > c, x // p <= x / q1 < q1^2, so
    large[p] = pi(x // p).  So S(x) = pi(x) + P2 with
    P2 = sum over primes c < p <= r of (pi(x // p) - pi(p) + 1), the number
    of primes q with p <= q <= x // p, read from the arrays as they stand.
    """
    r = math.isqrt(x)
    ks = np.arange(r + 1, dtype=np.int64)
    small = np.maximum(ks - 1, 0)
    quotients = x // np.maximum(ks, 1)   # x // k; index 0 is never read
    large = quotients - 1
    primes = _simple_sieve(r)
    cut = int(np.searchsorted(primes, _icbrt(x), side="right"))
    for p in primes[:cut].tolist():
        below = small[p - 1]
        # p^3 <= x, so x // p^2 > r // p: the second update is never empty
        k_max = min(r, x // (p * p))   # x // k >= p^2
        inside = r // p                # k p <= r: x // (k p) is a large entry
        large[1 : inside + 1] -= large[p : inside * p + 1 : p] - below
        large[inside + 1 : k_max + 1] -= small[quotients[inside + 1 : k_max + 1] // p] - below
        if p * p <= r:
            # v // p for v = p^2 .. r: each j = p .. r // p, p times in turn
            small[p * p :] -= np.repeat(small[p : r // p + 1] - below, p)[: r - p * p + 1]
    rest = primes[cut:]
    return int(large[1] - (large[rest] - small[rest]).sum()) - len(rest)


def segmented_prime_count(x: int) -> int:
    """Plain pi(x): ``prime_counts`` at the one point x."""
    return prime_counts([x])[0]
