"""Exact normalized prime-counting tables and desk-scale inequality scans.

The four counting functions are the *-normalized ones: at an integer jump
point the final summand carries weight 1/2, so the value at a prime power is
the midpoint of the one-sided limits.  theta and psi are accumulated exactly
as fixed-point integers (96 fractional bits, each log evaluated at 160-bit
precision), Pi as exact fractions; the float64 views used by the vectorized
scans are derived from those, and any margin too close to zero for float64
to be trusted is re-checked in extended precision.

Tables are built by segmented sieving, checkpointed per segment, and can be
persisted to a versioned line-oriented cache with a content hash per
segment; a partial or corrupted cache is completed or rebuilt (with a
warning) rather than trusted.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
from mpmath import mp, mpf

from .errors import ParameterError
from .hiprec import li as li_hp
from .hiprec import working_precision

__all__ = [
    "FIX_BITS",
    "LOG_PREC",
    "PrimeTables",
    "InequalitySpec",
    "ScanReport",
    "build_tables",
    "psi_theta_gap",
    "scan_inequality",
    "segmented_prime_count",
    "CacheError",
]

FIX_BITS = 96          # fractional bits of the exact theta/psi accumulators
LOG_PREC = 160         # precision at which each log p is evaluated
DEFAULT_SEGMENT = 1 << 22
DETAIL_LIMIT_MAX = 20_000_000  # per-jump tables above this would not be desk scale

CACHE_VERSION = "primebounds-tables v1"


class CacheError(RuntimeError):
    pass


def _log_fixed(p: int) -> int:
    """round(log(p) * 2^FIX_BITS), computed at LOG_PREC bits."""
    with mp.workprec(LOG_PREC):
        return int(mp.floor(mp.log(p) * (mpf(2) ** FIX_BITS) + mpf("0.5")))


def _simple_sieve(n: int) -> np.ndarray:
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.flatnonzero(is_p).astype(np.int64)


def _segment_primes(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Primes in [lo, hi) given base primes covering sqrt(hi)."""
    if hi <= 2:
        return np.empty(0, dtype=np.int64)
    lo = max(lo, 2)
    mask = np.ones(hi - lo, dtype=bool)
    for p in base:
        p = int(p)
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        mask[start - lo :: p] = False
    return (np.flatnonzero(mask) + lo).astype(np.int64)


@dataclass
class _Segment:
    index: int
    x_end: int
    jumps: list          # (n, p, m) for prime powers n in segment
    digest: str


@dataclass
class PrimeTables:
    """Per-jump exact tables of the normalized counting functions.

    Arrays are indexed by jump points (prime powers <= limit, ascending);
    ``*_right`` holds the cumulative value just after the jump.  pi is kept
    doubled (always integral), theta/psi as fixed-point integers, Pi as an
    exact Fraction.
    """

    limit: int
    segment_size: int
    jumps: np.ndarray          # int64 prime powers
    jump_p: np.ndarray         # int64 base prime
    jump_m: np.ndarray         # int64 exponent
    logp_fix: list             # int, log(p) * 2^FIX per jump
    pi2_right: np.ndarray      # int64, 2 * pi at right limit
    theta_fix_right: list      # int
    psi_fix_right: list        # int
    Pi_right: list             # Fraction
    segments: list = field(default_factory=list, repr=False)

    # -- basic accessors ------------------------------------------------

    @property
    def primes(self) -> np.ndarray:
        return self.jumps[self.jump_m == 1]

    def _index_below(self, x) -> int:
        """Number of jumps with jump <= x."""
        return int(np.searchsorted(self.jumps, int(np.floor(float(x))), side="right"))

    def count(self, kind: str, x, prec: int | None = None) -> mpf:
        """Exact normalized count at real x <= limit, as an mpf."""
        xf = float(x)
        if xf > self.limit:
            raise ParameterError(f"x={x} beyond table limit {self.limit}")
        if xf < 2:
            return mpf(0)
        k = self._index_below(xf)
        at_jump = k > 0 and float(self.jumps[k - 1]) == xf and xf == int(xf)
        with working_precision(prec):
            scale = mpf(2) ** FIX_BITS
            if kind == "pi":
                v = mpf(int(self.pi2_right[k - 1])) / 2 if k else mpf(0)
                if at_jump and self.jump_m[k - 1] == 1:
                    v -= mpf(1) / 2
                return +v
            if kind == "theta":
                v = mpf(self.theta_fix_right[k - 1]) / scale if k else mpf(0)
                if at_jump and self.jump_m[k - 1] == 1:
                    v -= mpf(self.logp_fix[k - 1]) / (2 * scale)
                return +v
            if kind == "psi":
                v = mpf(self.psi_fix_right[k - 1]) / scale if k else mpf(0)
                if at_jump:
                    v -= mpf(self.logp_fix[k - 1]) / (2 * scale)
                return +v
            if kind == "Pi":
                fr = self.Pi_right[k - 1] if k else Fraction(0)
                if at_jump:
                    fr = fr - Fraction(1, 2 * int(self.jump_m[k - 1]))
                return +(mpf(fr.numerator) / fr.denominator)
        raise ParameterError(f"unknown counting kind {kind!r}")

    def Pi_fraction(self, x) -> Fraction:
        """Exact Pi* at real x as a Fraction."""
        xf = float(x)
        if xf > self.limit:
            raise ParameterError(f"x={x} beyond table limit {self.limit}")
        k = self._index_below(xf)
        if k == 0:
            return Fraction(0)
        fr = self.Pi_right[k - 1]
        if float(self.jumps[k - 1]) == xf and xf == int(xf):
            fr = fr - Fraction(1, 2 * int(self.jump_m[k - 1]))
        return fr

    # -- float64 scan views ----------------------------------------------

    def scan_arrays(self) -> dict:
        """float64 per-jump arrays: at-point (starred), left and right limits."""
        logp = np.array([v / 2 ** FIX_BITS for v in self.logp_fix], dtype=np.float64)
        m1 = (self.jump_m == 1).astype(np.float64)
        pi_r = self.pi2_right.astype(np.float64) / 2.0
        theta_r = np.array(
            [v / 2 ** FIX_BITS for v in self.theta_fix_right], dtype=np.float64
        )
        psi_r = np.array(
            [v / 2 ** FIX_BITS for v in self.psi_fix_right], dtype=np.float64
        )
        Pi_r = np.array(
            [v.numerator / v.denominator for v in self.Pi_right], dtype=np.float64
        )

        def left(a):
            out = np.empty_like(a)
            out[0] = 0.0
            out[1:] = a[:-1]
            return out

        half_jump = {
            "pi": 0.5 * m1,
            "theta": 0.5 * logp * m1,
            "psi": 0.5 * logp,
            "Pi": 0.5 / self.jump_m.astype(np.float64),
        }
        right = {"pi": pi_r, "theta": theta_r, "psi": psi_r, "Pi": Pi_r}
        return {
            "x": self.jumps.astype(np.float64),
            "right": right,
            "at": {k: right[k] - half_jump[k] for k in right},
            "left": {k: left(right[k]) for k in right},
        }


def _build_segments(limit: int, segment_size: int, start_index: int, base):
    """Generate segments (raw jump payloads) from start_index onward."""
    seg_index = start_index
    lo = 2 + seg_index * segment_size
    log_cache: dict[int, int] = {}
    while lo <= limit:
        hi = min(lo + segment_size, limit + 1)
        seg_primes = _segment_primes(lo, hi, base)
        jumps = [(int(p), int(p), 1) for p in seg_primes]
        for p in base:
            p = int(p)
            if p * p >= hi:
                break
            n = p * p
            m = 2
            while n < lo:
                n *= p
                m += 1
            while n < hi:
                jumps.append((n, p, m))
                n *= p
                m += 1
        jumps.sort()
        payload = []
        for n, p, m in jumps:
            if p not in log_cache:
                log_cache[p] = _log_fixed(p)
            payload.append((n, p, m, log_cache[p]))
        digest = hashlib.sha256(
            ("|".join(f"{n},{p},{m},{lf:x}" for n, p, m, lf in payload)).encode()
        ).hexdigest()[:16]
        yield _Segment(seg_index, hi - 1, [(n, p, m, lf) for n, p, m, lf in payload], digest)
        seg_index += 1
        lo = hi


def build_tables(
    limit: int,
    cache_path: Optional[str] = None,
    segment_size: int = DEFAULT_SEGMENT,
) -> PrimeTables:
    """Sieve to ``limit`` and assemble exact per-jump tables.

    With ``cache_path`` the per-segment payloads are persisted and reused;
    a valid prefix of a cache is resumed, anything inconsistent is rebuilt.
    """
    limit = int(limit)
    if limit < 100:
        raise ParameterError("build_tables requires limit >= 100")
    if limit > DETAIL_LIMIT_MAX:
        raise ParameterError(
            f"per-jump tables capped at {DETAIL_LIMIT_MAX}; use segmented_prime_count "
            "for plain counts beyond that"
        )
    base = _simple_sieve(int(limit ** 0.5) + 1)
    cached_segments = []
    if cache_path is not None:
        try:
            cached_segments = _load_cache_segments(cache_path, limit, segment_size)
        except FileNotFoundError:
            cached_segments = []
        except (CacheError, ValueError, IndexError) as exc:
            warnings.warn(f"prime-table cache invalid ({exc}); rebuilding")
            cached_segments = []
    segments = list(cached_segments)
    n_expected = (limit - 2) // segment_size + 1
    if len(segments) < n_expected:
        segments.extend(_build_segments(limit, segment_size, len(segments), base))
    # assemble cumulative arrays (deterministic sequential reduce)
    jumps, jump_p, jump_m, logp_fix = [], [], [], []
    pi2_right, theta_right, psi_right, Pi_right = [], [], [], []
    pi2, th, ps, Pi = 0, 0, 0, Fraction(0)
    for seg in segments:
        for n, p, m, lf in seg.jumps:
            jumps.append(n)
            jump_p.append(p)
            jump_m.append(m)
            logp_fix.append(lf)
            if m == 1:
                pi2 += 2
                th += lf
            ps += lf
            Pi += Fraction(1, m)
            pi2_right.append(pi2)
            theta_right.append(th)
            psi_right.append(ps)
            Pi_right.append(Pi)
    tables = PrimeTables(
        limit=limit,
        segment_size=segment_size,
        jumps=np.array(jumps, dtype=np.int64),
        jump_p=np.array(jump_p, dtype=np.int64),
        jump_m=np.array(jump_m, dtype=np.int64),
        logp_fix=logp_fix,
        pi2_right=np.array(pi2_right, dtype=np.int64),
        theta_fix_right=theta_right,
        psi_fix_right=psi_right,
        Pi_right=Pi_right,
        segments=segments,
    )
    if cache_path is not None and len(cached_segments) < n_expected:
        _write_cache(cache_path, tables)
    return tables


def _write_cache(path: str, tables: PrimeTables) -> None:
    with open(path, "w") as f:
        f.write(
            f"{CACHE_VERSION} limit={tables.limit} segment={tables.segment_size} fix={FIX_BITS}\n"
        )
        for seg in tables.segments:
            f.write(f"S {seg.index} {seg.x_end} {seg.digest} {len(seg.jumps)}\n")
            for n, p, m, lf in seg.jumps:
                f.write(f"J {n} {p} {m} {lf:x}\n")


def _load_cache_segments(path: str, limit: int, segment_size: int) -> list:
    segments = []
    with open(path) as f:
        header = f.readline().rstrip("\n")
        expect = f"{CACHE_VERSION} limit={limit} segment={segment_size} fix={FIX_BITS}"
        if header != expect:
            raise CacheError(f"header mismatch: {header!r}")
        current = None
        remaining = 0
        for line_no, line in enumerate(f, start=2):
            parts = line.split()
            if parts[0] == "S":
                if current is not None and remaining != 0:
                    raise CacheError(f"truncated segment before line {line_no}")
                current = _Segment(int(parts[1]), int(parts[2]), [], parts[3])
                remaining = int(parts[4])
                segments.append(current)
                if remaining == 0:
                    _verify_segment(current)
                    current = None
            elif parts[0] == "J":
                if current is None:
                    raise CacheError(f"jump row outside segment at line {line_no}")
                current.jumps.append(
                    (int(parts[1]), int(parts[2]), int(parts[3]), int(parts[4], 16))
                )
                remaining -= 1
                if remaining == 0:
                    _verify_segment(current)
                    current = None
            else:
                raise CacheError(f"unrecognized record at line {line_no}")
        if current is not None and remaining != 0:
            raise CacheError("file ends mid-segment")
    for k, seg in enumerate(segments):
        if seg.index != k:
            raise CacheError(f"segment {k} missing or out of order")
    return segments


def _verify_segment(seg: _Segment) -> None:
    digest = hashlib.sha256(
        ("|".join(f"{n},{p},{m},{lf:x}" for n, p, m, lf in seg.jumps)).encode()
    ).hexdigest()[:16]
    if digest != seg.digest:
        raise CacheError(f"segment {seg.index} hash mismatch")


def psi_theta_gap(x, tables: PrimeTables, prec: int | None = None) -> mpf:
    """Exact psi*(x) - theta*(x); both sums share the fixed-point grid, so
    the subtraction is exact."""
    return tables.count("psi", x, prec=prec) - tables.count("theta", x, prec=prec)


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
        if self.a <= 0:
            raise ParameterError("requires a > 0")
        if self.kind.endswith("_shift") and self.C is None:
            raise ParameterError("shift kinds need the shift constant C")

    @property
    def count_kind(self) -> str:
        return {"psi": "psi", "theta": "theta", "Pi": "Pi", "pi": "pi"}[
            self.kind.split("_")[0]
        ]

    @property
    def uses_li(self) -> bool:
        return self.kind.endswith("_li")

    def rhs64(self, x: np.ndarray) -> np.ndarray:
        lx = np.log(x)
        if self.kind.endswith("_sq"):
            return self.a * np.sqrt(x) * lx ** 2
        if self.kind.endswith("_shift"):
            return self.a * np.sqrt(x) * lx * (lx - self.C)
        return self.a * np.sqrt(x) * lx

    def rhs_mp(self, x: mpf) -> mpf:
        lx = mp.log(x)
        a = mpf(self.a)
        if self.kind.endswith("_sq"):
            return a * mp.sqrt(x) * lx ** 2
        if self.kind.endswith("_shift"):
            return a * mp.sqrt(x) * lx * (lx - mpf(self.C))
        return a * mp.sqrt(x) * lx


@dataclass(frozen=True)
class ScanReport:
    spec: InequalitySpec
    x_lo: float
    x_hi: float
    holds_everywhere: bool
    last_violation: Optional[float]       # sup of violating real x (None if clean)
    last_violation_side: Optional[str]    # 'left': violations approach it from below
    last_integer_violation: Optional[int]
    n_points: int
    n_rechecked: int

    def threshold_consistent(self, threshold: float) -> bool:
        """True iff the inequality holds for every real x >= threshold."""
        if self.last_violation is None:
            return True
        if self.last_violation < threshold:
            return True
        return self.last_violation == threshold and self.last_violation_side == "left"

    def integer_threshold_consistent(self, threshold: float) -> bool:
        """True iff the inequality holds at every integer x >= threshold."""
        return self.last_integer_violation is None or self.last_integer_violation < threshold


def _li64(x: np.ndarray) -> np.ndarray:
    from scipy.special import expi

    return expi(np.log(x))


def scan_inequality(
    spec: InequalitySpec,
    x_lo: float,
    x_hi: float,
    tables: PrimeTables,
    interior_samples: int = 16,
    prec: int | None = None,
) -> ScanReport:
    """Check the inequality for all real x in [x_lo, x_hi].

    Both sides can only trade places at jump points, so evaluating the left
    limit, the starred value and the right limit at every prime power in
    range is exhaustive; interior sample points are added as a cross-check.
    float64 does the sweep; any margin within the guard band is re-decided
    in extended precision from the exact tables.
    """
    if x_hi > tables.limit:
        raise ParameterError(f"x_hi={x_hi} beyond table limit {tables.limit}")
    if not (2 <= x_lo < x_hi):
        raise ParameterError("requires 2 <= x_lo < x_hi")
    arrays = tables.scan_arrays()
    xs = arrays["x"]
    in_range = (xs >= x_lo) & (xs <= x_hi)
    ck = spec.count_kind
    target64 = _li64(xs) if spec.uses_li else xs
    rhs = spec.rhs64(xs)
    guard = 1e-9 * np.maximum(rhs, 1.0)

    worst_x = None
    worst_side = None
    n_recheck = 0

    def decide(value64, x_val, side, exact_side):
        nonlocal worst_x, worst_side, n_recheck
        # value64: |count - target| - rhs at this point; > 0 is a violation
        if value64 <= -guard_at(x_val):
            return False
        if value64 >= guard_at(x_val):
            record(x_val, side)
            return True
        n_recheck += 1
        if _recheck(spec, tables, x_val, exact_side, prec):
            record(x_val, side)
            return True
        return False

    def guard_at(x_val):
        return 1e-9 * max(spec.a * np.sqrt(x_val) * np.log(x_val), 1.0)

    def record(x_val, side):
        nonlocal worst_x, worst_side
        if worst_x is None or x_val > worst_x or (x_val == worst_x and side != "left"):
            worst_x = x_val
            worst_side = side

    # vectorized pass over the three per-jump evaluations
    for side in ("left", "at", "right"):
        vals = arrays[side][ck]
        margin = np.abs(vals - target64) - rhs
        # left-limit violations at jump j cover (prev, j): count when j > x_lo
        mask = in_range if side != "left" else (xs > x_lo) & (xs <= x_hi)
        hot = np.flatnonzero(mask & (margin > -guard))
        for k in hot:
            decide(margin[k], float(xs[k]), side, (int(k), side))

    # interior samples: count side frozen at the right limit of the last jump
    if interior_samples > 0:
        ks = np.flatnonzero(in_range)
        if len(ks) > 1:
            k0, k1 = ks[0], ks[-1]
            seg_starts = xs[k0:k1]
            seg_ends = xs[k0 + 1 : k1 + 1]
            fracs = (np.arange(1, interior_samples + 1) / (interior_samples + 1.0))
            sample_x = seg_starts[:, None] + (seg_ends - seg_starts)[:, None] * fracs[None, :]
            vals = arrays["right"][ck][k0:k1, None]
            t64 = _li64(sample_x) if spec.uses_li else sample_x
            rh = spec.rhs64(sample_x)
            marg = np.abs(vals - t64) - rh
            g = 1e-9 * np.maximum(rh, 1.0)
            hot = np.argwhere(marg > -g)
            for i, j in hot:
                xv = float(sample_x[i, j])
                decide(float(marg[i, j]), xv, "interior", (int(k0 + i), "right", xv))

    # integer-argument convention: check every integer in range directly
    last_int = _integer_scan(spec, tables, arrays, x_lo, x_hi, prec)

    n_points = int(3 * in_range.sum()) + (
        int((in_range.sum() - 1) * interior_samples) if interior_samples else 0
    )
    return ScanReport(
        spec=spec,
        x_lo=float(x_lo),
        x_hi=float(x_hi),
        holds_everywhere=worst_x is None,
        last_violation=worst_x,
        last_violation_side=worst_side,
        last_integer_violation=last_int,
        n_points=n_points,
        n_rechecked=n_recheck,
    )


def _integer_scan(spec, tables, arrays, x_lo, x_hi, prec) -> Optional[int]:
    n_lo = int(np.ceil(x_lo))
    n_hi = int(np.floor(x_hi))
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    xs = tables.jumps
    idx = np.searchsorted(xs, ns, side="right")
    ck = spec.count_kind
    right = arrays["right"][ck]
    at = arrays["at"][ck]
    vals = np.where(idx > 0, right[np.maximum(idx - 1, 0)], 0.0)
    is_jump = (idx > 0) & (xs[np.maximum(idx - 1, 0)] == ns)
    vals = np.where(is_jump, at[np.maximum(idx - 1, 0)], vals)
    nf = ns.astype(np.float64)
    t64 = _li64(nf) if spec.uses_li else nf
    rhs = spec.rhs64(nf)
    guard = 1e-9 * np.maximum(rhs, 1.0)
    margin = np.abs(vals - t64) - rhs
    hot = np.flatnonzero(margin > -guard)
    last = None
    for k in hot:
        if margin[k] >= guard[k] or _recheck(
            spec, tables, float(ns[k]), ("integer", int(ns[k])), prec
        ):
            last = int(ns[k])
    return last


def _recheck(spec, tables, x_val, exact_ref, prec) -> bool:
    """Re-decide a near-zero margin in extended precision; True = violation."""
    with working_precision(prec):
        ck = spec.count_kind
        if exact_ref[0] == "integer":
            n = exact_ref[1]
            count = tables.count(ck, n, prec=prec)
            xq = mpf(n)
        else:
            k, side = exact_ref[0], exact_ref[1]
            xv = exact_ref[2] if len(exact_ref) > 2 else None
            n = int(tables.jumps[k])
            if side == "left":
                # open interval below the jump: the previous right limit
                count = _right_value(tables, ck, k - 1, prec) if k > 0 else mpf(0)
                xq = mpf(n)
            elif side == "at":
                count = tables.count(ck, n, prec=prec)
                xq = mpf(n)
            else:
                count = _right_value(tables, ck, k, prec)
                xq = mpf(n) if xv is None else mpf(xv)
        target = li_hp(xq, prec=prec) if spec.uses_li else xq
        return bool(abs(count - target) >= spec.rhs_mp(xq))


def _right_value(tables, ck, k, prec) -> mpf:
    with working_precision(prec):
        scale = mpf(2) ** FIX_BITS
        if ck == "pi":
            return mpf(int(tables.pi2_right[k])) / 2
        if ck == "theta":
            return mpf(tables.theta_fix_right[k]) / scale
        if ck == "psi":
            return mpf(tables.psi_fix_right[k]) / scale
        fr = tables.Pi_right[k]
        return mpf(fr.numerator) / fr.denominator


def segmented_prime_count(x: int, segment_size: int = 1 << 24, progress=None) -> int:
    """Plain pi(x) by segmented sieve, holding one segment at a time.

    Count-only path for arguments far beyond what per-jump tables support
    (the Ramanujan counterexample neighborhood needs x ~ 3.8e10).
    """
    x = int(x)
    if x < 2:
        return 0
    base = _simple_sieve(int(x ** 0.5) + 1)
    total = 0
    lo = 2
    while lo <= x:
        hi = min(lo + segment_size, x + 1)
        total += len(_segment_primes(lo, hi, base))
        if progress is not None:
            progress(hi - 1, x)
        lo = hi
    return total
