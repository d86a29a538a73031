"""Independent oracles the test suite trusts.

Each oracle deliberately avoids the code path it checks: the logarithmic
integral is integrated numerically (tanh-sinh quadrature of a principal-value
decomposition), the Bessel function is summed naively from its defining
series, the large-argument li sanity value comes from the divergent
asymptotic series truncated at its smallest term, the fixed-point prime
logs are rounded by mpmath's high-level floor instead of integer shifts,
the normalized prime counts come from prime powers found by trial division,
summed as Fractions (pi, Pi) or as 192-bit logs (theta, psi), the float64
theta and psi scan views are held to their stated error bound against the
exact 96-bit columns in integer arithmetic, plain prime
counts come from one odd-only segmented sieve pass instead of Lucy's
recursion, and from Lucy's recursion run over every prime up to sqrt x, as
it was before the loop stopped at the cube root and finished with the P2
term, the kernel weights are evaluated at every in-band ordinate
instead of at the two ends the monotonicity lemma allows, the
inequality scan samples every gap between jumps and checks every integer
instead of settling gaps from their two ends, and reads every jump instead
of clearing whole blocks of them with one bound, and each admissibility
decision of the engine's searches, each pruning test of its strong search
and each bisection test of its threshold root is made at full precision
instead of in float64 first; the strong search is also kept as it was
before it galloped from a predicted D, bisecting every D range afresh.  The
stepping kernel's per-step coefficients are integrated by quadrature instead
of summed from delta^n/n!, e^{-t} Ei(t) comes from mpmath's ``ei`` instead
of the package's series, and R is carried by its Taylor series through the
derivative chain instead of the closed-form step.  The stepping chunk's
Taylor polynomials are built in mpf from a fresh ``ei`` on each grid
instead of in fixed point from one Ei series, and that series multiplies
each term by y's fixed-point value instead of its mantissa.  Zero-ordinate files are
read line by line with one ``from_rational`` per plain decimal, and the zero
sum is ``mp.fsum`` over ``1 / gamma``, as the zeros layer did before it moved
to integer arithmetic.
"""

import bisect
import math
import re
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np
from mpmath import inf, log, mp, mpf, quad
from mpmath.libmp import from_man_exp, from_rational, round_nearest, to_fixed

from primebounds import engine, kernel, zeros
from primebounds.errors import BracketError, CoverageError, ParameterError, ZeroDataError
from primebounds.hiprec import working_precision
from primebounds.primes import (
    _SIDES,
    _concat_ranges,
    _gap_bounds,
    _guard,
    _li64,
    _odd_mask,
    _recheck,
    _simple_sieve,
)
from primebounds.ramanujan import _U, _Series
from primebounds.verdict import Verdict


def li_quadrature(x, prec=256):
    """PV of int_0^x dt/log t.

    Substituting t = e^u gives PV int_{-inf}^{log x} e^u/u du; splitting off
    the 1/u pole leaves the entire integrand (e^u - 1)/u plus log(b/a) plus
    an exponentially small lower tail, each handled by mpmath's quadrature.
    """
    with mp.workprec(prec):
        a = mpf(200)
        b = log(mpf(x))
        points = [-a, 0, b] if b > 0 else [-a, b]
        smooth = quad(lambda u: (mp.exp(u) - 1) / u if u != 0 else mpf(1), points)
        tail = quad(lambda u: mp.exp(-u) / u, [a, inf])
        return smooth + log(abs(b) / a) - tail


def bessel_i1_series(c, terms=30, dps=50):
    """Direct summation of the defining series, no clever termination."""
    with mp.workdps(dps):
        c = mpf(c)
        s = mpf(0)
        for n in range(terms):
            s += (c / 2) ** (2 * n + 1) / (mp.factorial(n) * mp.factorial(n + 1))
        return s


def li_asymptotic(x, prec=192):
    """li(x) ~ (x/log x) sum_k k!/log^k x truncated at the smallest term."""
    with mp.workprec(prec):
        x = mpf(x)
        y = log(x)
        total = mpf(1)
        term = mpf(1)
        k = 1
        while True:
            nxt = term * k / y
            if abs(nxt) >= abs(term):
                break
            term = nxt
            total += term
            k += 1
        return x / y * total


def log_fixed_mp(p, fix_bits=96, prec=160):
    """round(log(p) * 2^fix_bits), half up, through mpmath's high-level API."""
    with mp.workprec(prec):
        return int(mp.floor(mp.log(p) * (mpf(2) ** fix_bits) + mpf("0.5")))


def log_view_bounds(tables):
    """The float64 theta and psi views against the exact 96-bit columns.

    For each kind and side: (slack, bound).  ``bound`` is the stated error
    bound of each view entry v at every jump (``primes._log_sum_reads``),
    1/2 ulp(v) + sum ulp(fl(log p)) + 2^-96 per log summed, as floats;
    ``slack`` is the least of bound - |v - exact read| over the jumps,
    exactly, as an integer over 2^97: negative when a view breaks it.
    """
    logs = np.log(tables.jump_p.astype(np.float64))
    out = {}
    for kind in ("theta", "psi"):
        terms = np.where(tables.jump_m == 1, logs, 0.0) if kind == "theta" else logs
        # running counts of 2^-53 units of ulp(fl(log p)) and of logs summed,
        # each at k and, for the starred read, at k - 1 and k (their larger)
        ulps = np.cumsum(np.where(terms > 0, np.ldexp(np.spacing(terms), 53), 0).astype(np.int64))
        n_logs = np.cumsum(terms > 0)
        right = [2 * r for r in tables.right[kind]]
        exact = {"right": right, "left": [0] + right[:-1],
                 "at": [(a + b) // 2 for a, b in zip([0] + right[:-1], right)]}
        out[kind] = {}
        for side, reads in exact.items():
            view = tables.float_views[side][kind]
            u, n = (np.concatenate(([0], ulps[:-1])), np.concatenate(([0], n_logs[:-1]))) \
                if side == "left" else (ulps, n_logs)
            half_ulp = np.ldexp(np.spacing(view), 96)
            slack = min(int(h) + (int(ui) << 44) + 2 * int(ni) - abs(int(v * 2.0 ** 97) - r)
                        for v, r, h, ui, ni in zip(view.tolist(), reads, half_ulp.tolist(),
                                                   u.tolist(), n.tolist()))
            bound = np.ldexp(half_ulp, -97) + np.ldexp(u.astype(np.float64), -53) + np.ldexp(n, -96)
            out[kind][side] = slack, bound
    return out


@lru_cache(maxsize=None)
def prime_powers(n_max):
    """(n, p, m) for every prime power n = p^m <= n_max, by trial division."""
    out = []
    for n in range(2, n_max + 1):
        p = next((d for d in range(2, int(n ** 0.5) + 1) if n % d == 0), n)
        q, m = n, 0
        while q % p == 0:
            q, m = q // p, m + 1
        if q == 1:
            out.append((n, p, m))
    return out


# each prime power p^m's term in the sum for a kind
_TERMS = {
    "pi": lambda p, m: Fraction(int(m == 1)),
    "Pi": lambda p, m: Fraction(1, m),
    "theta": lambda p, m: log(p) if m == 1 else mpf(0),
    "psi": lambda p, m: log(p),
}


@lru_cache(maxsize=None)
def _running_sums(kind, n_max):
    """The prime powers <= n_max, their terms for ``kind`` and the running sums."""
    powers = prime_powers(n_max)
    with mp.workprec(192):
        terms = [_TERMS[kind](p, m) for _, p, m in powers]
        zero = Fraction(0) if kind in ("pi", "Pi") else mpf(0)
        sums = list(accumulate(terms, initial=zero))
    return [n for n, _, _ in powers], terms, sums


def count_star(kind, x, n_max=10_000):
    """pi*, theta*, psi* or Pi* at real 0 <= x <= n_max, the last term halved
    when x is itself a prime power: a Fraction for pi and Pi, an mpf at 192
    bits for theta and psi."""
    x = Fraction(x)
    ns, terms, sums = _running_sums(kind, n_max)
    i = bisect.bisect_right(ns, x)
    with mp.workprec(192):
        if i and ns[i - 1] == x:
            return sums[i] - terms[i - 1] / 2
        return sums[i]


def kernel_weights_scan(zeros, params, prec=192, weight=None):
    """The kernel-weight verdict from one ``a_weight`` per ordinate.

    Stops at the first weight outside (0, 1]; ``weight`` replaces
    ``kernel.a_weight`` (same signature) to exercise the failure paths.
    """
    weight = kernel.a_weight if weight is None else weight
    with working_precision(prec):
        edge = mpf(params.c) / mpf(params.eps)
        lo, hi = None, None
        checked = skipped = 0
        for g in zeros.gammas:
            if g > edge:
                skipped += 1
                continue
            w = weight(g, params)
            if not (0 < w <= 1):
                return Verdict(False, checked=checked, skipped_out_of_band=skipped,
                               min_weight=lo, max_weight=hi,
                               warning=f"weight {float(w)} outside (0,1] at gamma={float(g)}")
            lo = w if lo is None else min(lo, w)
            hi = w if hi is None else max(hi, w)
            checked += 1
        warning = "" if checked else "no ordinates inside the kernel band; vacuous pass"
        return Verdict(True, checked=checked, skipped_out_of_band=skipped,
                       min_weight=lo, max_weight=hi, warning=warning)


_DECIMAL = re.compile(r"([0-9]+)(?:\.([0-9]*))?")


def load_zeros_rational(path):
    """``zeros.load_zeros`` read line by line, each plain decimal rounded by
    ``from_rational``."""
    gammas = []
    num_prev = den_prev = None
    has_index = None
    min_decimals = None
    with working_precision():
        prec = mp.prec
        with open(path, "rb") as f:
            for line_no, raw in enumerate(f, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    raise ZeroDataError(f"{path}:{line_no}: not UTF-8 text ({exc.reason})") from exc
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if has_index is None:
                    if len(parts) not in (1, 2):
                        raise ZeroDataError(f"{path}:{line_no}: unrecognized row {line!r}")
                    has_index = len(parts) == 2
                if len(parts) != (2 if has_index else 1):
                    raise ZeroDataError(f"{path}:{line_no}: inconsistent column count")
                token = parts[-1]
                match = _DECIMAL.fullmatch(token) if len(token) <= 400 else None
                if match:
                    places = match[2] or ""
                    num, den = int(match[1] + places), 10 ** len(places)
                    g = from_rational(num, den, prec, round_nearest)
                    decimals = len(places)
                else:
                    try:
                        value = mpf(token)
                    except Exception as exc:
                        raise ZeroDataError(f"{path}:{line_no}: not a number: {token!r}") from exc
                    if not mp.isfinite(value):
                        raise ZeroDataError(f"{path}:{line_no}: non-finite ordinate {token}")
                    sign, man, exp, bc = g = value._mpf_
                    if not -1074 < exp + bc <= 1024:
                        raise ZeroDataError(f"{path}:{line_no}: out-of-range ordinate {token}")
                    num, den = (-man if sign else man) << max(exp, 0), 1 << max(-exp, 0)
                    decimals = len(token.split(".")[1]) if "." in token else 0
                if num <= 0:
                    raise ZeroDataError(f"{path}:{line_no}: nonpositive ordinate {token}")
                if gammas and (num * den_prev <= num_prev * den or g == gammas[-1]):
                    raise ZeroDataError(f"{path}:{line_no}: ordinates not ascending")
                min_decimals = decimals if min_decimals is None else min(min_decimals, decimals)
                gammas.append(g)
                num_prev, den_prev = num, den
        gammas = tuple(map(mp.make_mpf, gammas))
    if gammas and not (zeros.FIRST_ZERO_LOW < gammas[0] < zeros.FIRST_ZERO_HIGH):
        raise ZeroDataError(
            f"first ordinate {float(gammas[0])} is not the first zeta zero; "
            "file does not start at the bottom of the critical strip"
        )
    return zeros.ZeroList(gammas, source=path, decimal_places=min_decimals or 0)


def check_zero_sum_fsum(zero_list, t2):
    """``zeros.check_zero_sum`` with the sum taken as ``2 * mp.fsum(1 / g)``."""
    with working_precision():
        t2m = mpf(t2)
        if not mp.isfinite(t2m):
            raise ParameterError(f"t2 must be finite, got {t2}")
        if zero_list.max_height < t2m:
            raise CoverageError(
                f"need ordinates up to {float(t2m)}, file reaches {float(zero_list.max_height)}"
            )
        bound = kernel.zero_sum_bound(t2m)
        used = zero_list.below(t2m)
        empirical = 2 * mp.fsum(1 / g for g in used)
        return Verdict(
            empirical <= bound,
            t2=float(t2m),
            empirical_sum=+empirical,
            bound=+bound,
            margin=+(bound - empirical),
            zeros_used=len(used),
            convention="sum over |Im rho|: each listed gamma counted twice (conjugate pair)",
        )


def sieve_prime_counts(points, segment_size: int = 1 << 24, progress=None) -> list[int]:
    """Plain pi(x) at every x in ``points``, from one segmented sieve pass.

    Sieves the odd numbers up to the largest point once, holding one segment
    of ``segment_size`` integers at a time; ``progress(done, total)`` is
    called after each segment.  Returns the counts in the order of ``points``.
    """
    points = [int(x) for x in points]
    if segment_size < 1:
        raise ParameterError(f"segment_size must be >= 1, got {segment_size}")
    order = sorted(range(len(points)), key=points.__getitem__)
    counts = [0] * len(points)
    top = max(points, default=0)
    if top < 2:
        return counts
    base = _simple_sieve(math.isqrt(top) + 1)
    total = 1  # the prime 2; the segments hold the odd numbers from 3 on
    k = 0
    while points[order[k]] < 2:
        k += 1
    lo = 2
    while lo <= top:
        hi = min(lo + segment_size, top + 1)
        first, mask = _odd_mask(lo, hi, base)
        done = 0  # mask slots already added to total
        while k < len(order) and points[order[k]] < hi:
            upto = max(0, (points[order[k]] - first) // 2 + 1)
            total += int(np.count_nonzero(mask[done:upto]))
            done = upto
            counts[order[k]] = total
            k += 1
        total += int(np.count_nonzero(mask[done:]))
        if progress is not None:
            progress(hi - 1, top)
        lo = hi
    return counts


def lucy_pi_full(x: int) -> int:
    """pi(x), x >= 2, by Lucy's recursion: O(x^(3/4)) time, O(sqrt x) memory.

    S(v) starts at v - 1, and each prime p <= sqrt(x) in turn strikes out the
    numbers whose least prime factor is p: S(v) -= S(v // p) - S(p - 1) for
    every v >= p^2, reading the values left by the previous prime.  Only
    v = x // k is ever needed, so S lives in small[v] for v <= r = isqrt(x)
    and large[k] = S(x // k) for k <= r.  No value or index exceeds x.
    """
    r = math.isqrt(x)
    ks = np.arange(r + 1, dtype=np.int64)
    small = np.maximum(ks - 1, 0)
    large = x // np.maximum(ks, 1) - 1   # large[0] is never read
    for p in _simple_sieve(r).tolist():
        below = small[p - 1]
        k_max = min(r, x // (p * p))   # x // k >= p^2
        inside = min(k_max, r // p)    # k p <= r: x // (k p) is a large entry
        large[1 : inside + 1] -= large[p : inside * p + 1 : p] - below
        # the last two updates are empty for most p: skip their numpy calls
        if k_max > inside:
            large[inside + 1 : k_max + 1] -= small[x // (ks[inside + 1 : k_max + 1] * p)] - below
        if p * p <= r:
            small[p * p :] -= small[ks[p * p :] // p] - below
    return int(large[1])


def scan_inequality_sampled(spec, x_lo, x_hi, tables, interior_samples=16):
    """The ``scan_inequality`` verdict with nothing settled by the gap lemma.

    Reads every jump in range from all three sides, bar the left limit at
    x_lo and the right limit at x_hi, and each end of the range that is not
    a jump once, puts ``interior_samples`` points inside every interval
    between these nodes and checks every integer in range off the jumps,
    each as a float64 margin with the spec's own guard band, re-deciding
    the margins inside it with ``_recheck``.  An integer at a jump is its
    starred read, decided once.  Every violating point, integers too, moves
    the last violation.  ``n_points`` counts all of these reads and
    ``n_rechecked`` every re-decision.
    """
    arrays = tables.float_views
    xs = arrays["x"]
    ck = spec.count_kind
    in_range = (xs >= x_lo) & (xs <= x_hi)
    worst = {"x": None, "side": None, "rechecked": 0}
    violating_ints = []
    n_points = 0

    def margins(x, counts):
        """Each margin, its guard, and whether it is outside the clean side of the band."""
        nonlocal n_points
        n_points += np.size(x)
        rhs = spec.rhs(x, np)
        margin = np.abs(counts - (_li64(x) if spec.uses_li else x)) - rhs
        guard = 1e-9 * np.maximum(rhs, 1.0)
        return margin, guard, ~(margin <= -guard)

    def violated(margin, guard, x_val, k, side):
        if margin >= guard:
            return True
        worst["rechecked"] += 1
        return _recheck(spec, tables, k, side, x_val)

    def record(x_val, side):
        if worst["x"] is None or x_val > worst["x"] or (x_val == worst["x"] and side != "left"):
            worst["x"], worst["side"] = x_val, side

    reads = {"left": (xs > x_lo) & (xs <= x_hi), "at": in_range, "right": (xs >= x_lo) & (xs < x_hi)}
    for side, mask in reads.items():
        ks = np.flatnonzero(mask)
        margin, guard, hot = margins(xs[ks], arrays[side][ck][ks])
        for i in np.flatnonzero(hot):
            k = int(ks[i])
            if violated(margin[i], guard[i], float(xs[k]), k, side):
                record(float(xs[k]), side)
                if side == "at":
                    violating_ints.append(int(xs[k]))

    # each end that is not a jump, read with the count of the last jump below it
    end_x = np.array([float(x) for x in (x_lo, x_hi) if not np.any(xs == x)])
    end_k = np.searchsorted(xs, end_x, side="right") - 1
    margin, guard, hot = margins(end_x, arrays["right"][ck][end_k])
    for i in np.flatnonzero(hot):
        xv = float(end_x[i])
        if violated(margin[i], guard[i], xv, int(end_k[i]), "right"):
            record(xv, "interior")

    nodes = np.unique(np.concatenate((xs[in_range], end_x)))
    if interior_samples > 0:
        fracs = np.arange(1, interior_samples + 1) / (interior_samples + 1.0)
        starts, ends = nodes[:-1], nodes[1:]
        gap_k = np.searchsorted(xs, starts, side="right") - 1
        sample_x = starts[:, None] + (ends - starts)[:, None] * fracs[None, :]
        margin, guard, hot = margins(sample_x, arrays["right"][ck][gap_k, None])
        for i, j in np.argwhere(hot):
            xv = float(sample_x[i, j])
            if violated(margin[i, j], guard[i, j], xv, int(gap_k[i]), "right"):
                record(xv, "interior")

    ns = np.arange(math.ceil(x_lo), math.floor(x_hi) + 1, dtype=np.int64)
    idx = np.searchsorted(tables.jumps, ns, side="right") - 1
    off_jump = tables.jumps[idx] != ns
    ns, idx = ns[off_jump], idx[off_jump]
    margin, guard, hot = margins(ns.astype(np.float64), arrays["right"][ck][idx])
    for i in np.flatnonzero(hot):
        n = int(ns[i])
        if violated(margin[i], guard[i], n, int(idx[i]), "right"):
            record(float(n), "interior")
            violating_ints.append(n)

    return Verdict(
        worst["x"] is None,
        spec=spec,
        x_lo=float(x_lo),
        x_hi=float(x_hi),
        last_violation=worst["x"],
        last_violation_side=worst["side"],
        last_integer_violation=max(violating_ints, default=None),
        n_points=n_points,
        n_rechecked=worst["rechecked"],
    )


def _deviations(tables, kind, uses_li):
    """``dev[side]``, the float64 read of a count kind from ``side`` minus
    its target at every jump, as the table cached it for every scan before
    blocks were cleared."""
    views = tables.float_views
    target = tables.jump_li if uses_li else views["x"]
    return {side: views[side][kind] - target for side in _SIDES}


def _gap_integer_bounds(jumps, gaps, n_lo, n_hi):
    """(first, last): the integers of [n_lo, n_hi] strictly inside gap k are
    first..last, none when last < first.

    Gap k runs from jump k to jump k + 1; gap len(jumps) - 1 has no right
    end.  The ranges scanned start at 2, the first jump, so no gap is -1.
    """
    last = len(jumps) - 1
    before_next = np.where(gaps < last, jumps[np.minimum(gaps + 1, last)] - 1, n_hi)
    return np.maximum(jumps[gaps] + 1, n_lo), np.minimum(before_next, n_hi)


def _gap_integers(jumps, gaps, n_lo, n_hi):
    """The integers of [n_lo, n_hi] strictly inside each gap, gap by gap,
    and the index in ``gaps`` of the gap of each."""
    first, last = _gap_integer_bounds(jumps, gaps, n_lo, n_hi)
    return _concat_ranges(first, last), np.repeat(np.arange(len(gaps)), np.maximum(last - first + 1, 0))


def scan_inequality_per_read(spec, x_lo, x_hi, tables, interior_samples=16):
    """The ``scan_inequality`` verdict with no block of jumps cleared by one
    bound: every jump in range is read, and every gap between jumps bounded
    from its two ends, as the scan did before it settled whole blocks.  The
    range ends, samples and integers are read in three passes, not one.
    """
    if x_hi > tables.limit:
        raise ParameterError(f"x_hi={x_hi} beyond table limit {tables.limit}")
    if not (2 <= x_lo < x_hi):
        raise ParameterError("requires 2 <= x_lo < x_hi")
    views = tables.float_views
    xs = views["x"]
    ck = spec.count_kind
    dev = _deviations(tables, ck, spec.uses_li)

    def last_jump(x):   # the last jump <= x, where the count at x is read
        return np.searchsorted(xs, x, side="right") - 1

    k0 = int(np.searchsorted(xs, x_lo))   # first jump >= x_lo
    k1 = int(last_jump(x_hi))
    n_jumps = k1 + 1 - k0
    rhs = spec.envelope(np.sqrt(xs[k0 : k1 + 1]), np.log(xs[k0 : k1 + 1]))
    guard = _guard(rhs)
    neg_guard = -guard

    # the nodes are the jumps in range and each end that is not a jump, whose
    # count is that of the last jump below it from every side
    lo_end = n_jumps == 0 or xs[k0] != x_lo
    hi_end = n_jumps == 0 or xs[k1] != x_hi
    end_x = np.array([float(x) for x, end in ((x_lo, lo_end), (x_hi, hi_end)) if end])
    end_k = last_jump(end_x)
    end_dev = views["right"][ck][end_k] - (_li64(end_x) if spec.uses_li else end_x)
    end_rhs = spec.rhs(end_x, np)

    # every gap between consecutive nodes, bounded from its two ends: first
    # the gaps between jumps (gap k runs from jump k to jump k + 1), then
    # those that an end cuts, each in the gap of the last jump below its start
    fails, opened = _gap_bounds(dev["right"][k0:k1], dev["left"][k0 + 1 : k1 + 1], rhs[:-1], rhs[1:])
    fail_k, open_k = k0 + np.flatnonzero(fails), k0 + np.flatnonzero(opened)
    starts, ends = xs[open_k], xs[open_k + 1]
    cut = []   # (start, end, k, deviation and envelope at the start, then at the end)
    if n_jumps == 0:
        cut.append((x_lo, x_hi, k1, end_dev[0], end_rhs[0], end_dev[1], end_rhs[1]))
    if n_jumps > 0 and lo_end:
        cut.append((x_lo, xs[k0], k0 - 1, end_dev[0], end_rhs[0], dev["left"][k0], rhs[0]))
    if n_jumps > 0 and hi_end:
        cut.append((xs[k1], x_hi, k1, dev["right"][k1], rhs[-1], end_dev[-1], end_rhs[-1]))
    if cut:
        start, end, k, lo_dev, lo_rhs, hi_dev, hi_rhs = np.array(cut).T
        k = k.astype(np.int64)
        fails, opened = _gap_bounds(lo_dev, hi_dev, lo_rhs, hi_rhs)
        fail_k, open_k = np.concatenate((fail_k, k[fails])), np.concatenate((open_k, k[opened]))
        starts, ends = np.concatenate((starts, start[opened])), np.concatenate((ends, end[opened]))
    n_lo, n_hi = math.ceil(x_lo), math.floor(x_hi)

    def inside_gaps(x, k, integer):
        # points strictly inside the gaps of jumps k, each read at R[k]
        rh = spec.rhs(x, np)
        g = _guard(rh)
        margin = np.abs(views["right"][ck][k] - (_li64(x) if spec.uses_li else x)) - rh
        hot = np.flatnonzero(~(margin <= -g))
        labels = np.full(len(hot), "interior")
        return len(x), "right", integer, x[hot], k[hot], labels, margin[hot], g[hot]

    def blocks():
        # each block: number read, side, integer, then x, jump k, label,
        # margin and guard of its reads outside the clean side of the band.
        # A one-sided limit describes x on its side of the jump, so the left
        # limit at a jump counts when the jump is above x_lo and the right
        # limit when it is below x_hi
        reads = {"left": (int(not lo_end), n_jumps), "at": (0, n_jumps),
                 "right": (0, n_jumps - int(not hi_end))}
        buffer = np.empty(n_jumps)
        for side, (a, b) in reads.items():
            margin = np.abs(dev[side][k0 + a : k0 + b], out=buffer[: b - a])
            margin -= rhs[a:b]
            hot = np.flatnonzero(~(margin <= neg_guard[a:b]))
            yield (b - a, side, side == "at", xs[k0 + a + hot], k0 + a + hot,
                   np.full(len(hot), side), margin[hot], guard[a + hot])
        # an end is read once, as a point inside its gap
        yield inside_gaps(end_x, end_k, False)
        fracs = np.arange(1, interior_samples + 1) / (interior_samples + 1.0)
        yield inside_gaps((starts[:, None] + (ends - starts)[:, None] * fracs).ravel(),
                          np.repeat(open_k, interior_samples), False)
        # integer-argument convention: every integer of the open gaps, those
        # at the jumps read above
        ns, owner = _gap_integers(tables.jumps, open_k, n_lo, n_hi)
        yield inside_gaps(ns.astype(np.float64), open_k[owner], True)

    worst_x = worst_side = None
    n_points = n_recheck = 0
    int_violations = []
    for n_read, side, integer, *hot in blocks():
        n_points += n_read
        for x, k, label, margin, g in zip(*(a.tolist() for a in hot)):
            if not margin >= g:
                n_recheck += 1
                if not _recheck(spec, tables, k, side, x):
                    continue
            if worst_x is None or x > worst_x or (x == worst_x and label != "left"):
                worst_x, worst_side = x, label
            if integer:
                int_violations.append(int(x))

    # the last integer of the last failing gap with any is its last violation
    first, last = _gap_integer_bounds(tables.jumps, fail_k, n_lo, n_hi)
    if np.any(last >= first):
        int_violations.append(int(last[last >= first].max()))

    return Verdict(
        worst_x is None,
        spec=spec,
        x_lo=float(x_lo),
        x_hi=float(x_hi),
        last_violation=worst_x,
        last_violation_side=worst_side,
        last_integer_violation=max(int_violations, default=None),
        n_points=n_points,
        n_rechecked=n_recheck,
    )



def admissible_mpf(at, D, E) -> bool:
    """``engine._Admissibility.admissible`` at the working precision, with
    no float64 stage: (c, eps) once, the first violated precondition ends
    the decision, else the sign of C* - requirement."""
    D, E = float(D), mpf(float(E))
    with working_precision():
        c, eps = at._profiles._kernel(mpf(D), E, mp)
        if next(at._violations(c, eps), None) is not None:
            return False
        coefs = at._profiles._profile(D, E, c, eps, mp)
        return -at._terms._total(coefs, D, mp)[0] / at.a - at.c_required > 0


def margin64(at, D, E):
    """(margin, S / a) as ``engine._Admissibility``'s float64 stage computes
    them for (D, E), whatever the preconditions say."""
    D, E = float(D), float(E)
    c, eps = at._profiles._kernel(D, E, math)
    total, scale = at._terms._total(at._profiles._profile(D, E, c, eps, math), D, math)
    return -total / at._a64 - at._c_required64, scale / at._a64


def below_best_mpf(E, D, log_a, best) -> bool:
    """``engine._b_below`` with the test made at full precision:
    B = E/2 + D E / log A against the best's for the grid points E and D,
    each (numerator, denominator), with log A the mpf of its (mpf, double)
    pair and ``best`` (E, D, float64 B) the best's grid points."""
    def b(E, D):
        E, D = mpf(E[0]) / E[1], mpf(D[0]) / D[1]
        return E / 2 + D * E / log_a[0]

    return b(E, D) < b(*best[:2])


def search_strong_pruned(at, visited=None):
    """The strong search of ``engine._search_strong`` as it was before it
    ran on grid integers: the same three stages and the same pruning, with
    each E's cap found by full-precision tests B < best and its smallest
    admissible D by bisecting [0, n_cap] afresh.  Decisions go through
    ``at.admissible``.  Appends (e_num, e_denom, d_denom) of every E a stage
    visits in [10, 20] to ``visited`` when given.
    """
    with working_precision():
        log_a = at._terms.L
        best = None

        def cap(E, n_hi, denom):
            # the largest n <= n_hi with B(n/denom) < best, or -1
            def below(n):
                return E / 2 + mpf(n) / denom * E / log_a < best[0]

            n = min(n_hi, max(-1, int(mp.floor((best[0] - E / 2) * log_a / E * denom))))
            while n < n_hi and below(n + 1):
                n += 1
            while n >= 0 and not below(n):
                n -= 1
            return n

        def consider(e_num, e_denom, d_denom):
            nonlocal best
            E = mpf(e_num) / e_denom
            if not (10 <= E <= 20):
                return
            if visited is not None:
                visited.append((e_num, e_denom, d_denom))
            n_hi = 8 * d_denom
            if best is not None:
                n_hi = cap(E, n_hi, d_denom)
                if n_hi < 0:
                    return
            if not at.admissible(n_hi / d_denom, E):
                return
            lo, hi = -1, n_hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if at.admissible(mid / d_denom, E):
                    hi = mid
                else:
                    lo = mid
            D = mpf(hi) / d_denom
            b = E / 2 + D * E / log_a
            if best is None or b < best[0]:
                best = (b, D, E)

        for i in range(100, 201):
            consider(i, 10, 50)
        if best is None:
            return None
        centre = int(round(float(best[2]) * 50))
        for k in range(-6, 7):
            consider(centre + k, 50, 50)
        centre = int(round(float(best[2]) * 200))
        for k in range(-4, 5):
            consider(centre + k, 200, 200)
        return best


def solve_x_max_mpf(eq, prec=192):
    """``engine.solve_x_max`` with every test LHS(x) < T made by ``eq.lhs``
    at full precision: the same geometric bisection on the same brackets,
    in mpf objects."""
    with mp.workprec(prec):
        T = mpf(eq.T)
        lo, hi = mpf("1e5"), mpf("1e60")
        if not (eq.lhs(lo) < T <= eq.lhs(hi)):
            lo, hi = mpf("30"), mpf("1e300")
            if not (eq.lhs(lo) < T <= eq.lhs(hi)):
                raise BracketError(
                    f"no sign change for {eq.variant} K={eq.constant} T={eq.T}"
                )
        for _ in range(600):
            mid = mp.sqrt(lo * hi)
            if eq.lhs(mid) < T:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-13 * lo:
                break
        return +mp.sqrt(lo * hi)


def r_exact(t, prec=400):
    """e^{-t} Ei(t) from mpmath's own ``ei``, not the package's fixed-point series."""
    with mp.workprec(prec):
        t = mpf(t)
        return mp.exp(-t) * mp.ei(t)


def step_coefficient_quad(m, delta, prec=400):
    """c_m = int_0^delta u^m e^{u - delta} du by quadrature."""
    with mp.workprec(prec):
        delta = mpf(delta)
        return quad(lambda u: u ** m * mp.exp(u - delta), [0, delta])


def taylor_coefficients(delta, t_min, w):
    """delta^n/n! for n = 1..N in w-bit fixed point, N the first n taking
    (delta/t_min)^n/t_min below 2^-(w+8)."""
    with working_precision(w):
        delta, t_min = mpf(delta), mpf(t_min)
        eps = mpf(2) ** -(w + 8)
        coeffs = []
        c = mpf(1)
        term = 1 / t_min
        while not term < eps:
            c = c * delta / (len(coeffs) + 1)
            coeffs.append(to_fixed(c._mpf_, w))
            term = term * delta / t_min
        return coeffs


def advance_taylor(r, inv_t, coeffs, w):
    """R(t + delta) from R(t) = e^{-t} Ei(t) by its Taylor series in w-bit
    fixed point, the derivatives built by the chain R^(n) = p_n - R^(n-1),
    p_n the (n-1)-th derivative of 1/t: p_1 = 1/t, p_(n+1) = -n p_n / t."""
    p = inv_t
    dr = p - r
    total = r + (dr * coeffs[0] >> w)
    for n in range(1, len(coeffs)):
        p = -n * p * inv_t >> w
        dr = p - dr
        total += dr * coeffs[n] >> w
    return total


def ei_by_series_loop(y, prec):
    """Ei(y) for 1 <= y <= 0.75 prec as ``hiprec.ei`` forms it, with the
    series summed as before it multiplied by y's mantissa: every term times
    y's w-bit fixed-point value."""
    with working_precision(prec):
        y = mpf(y)
        w = prec + 30
        yfix = to_fixed(y._mpf_, w)
        term = 1 << w
        total = 0
        n = 1
        n_floor = int(y) + 2
        while n < 100_000:
            term = (term * yfix >> w) // n
            total += term // n
            n += 1
            if n > n_floor and term <= (total >> (prec + 8)) + 1:
                break
        series = mpf(from_man_exp(total, -w, prec, "n"))
        return +(mp.euler + mp.log(y) + series)


def taylor_mpf(r: mpf, t: mpf, span: float, delta: mpf) -> _Series:
    """R = e^{-t} Ei(t) from its value r at t out to t + span, as a polynomial.

    The coefficients c_n = R^(n)(t)/n! come from R' = 1/t - R, which gives
    c_n = ((-1)^(n-1) t^-n - c_(n-1))/n.  With E_n(t) = R(t) - sum_(j<n)
    j!/t^(j+1), R^(n) = (-1)^n E_n and E_n' = n!/t^(n+1) - E_n, so for
    t <= xi <= t + span E_n(xi) is a mean of E_n(t) and values of n!/v^(n+1)
    at v >= t, and |R^(N)(xi)|/N! <= M = max(|c_N|, t^-(N+1)).  N terms
    then leave at most rem = M span^N, and their difference polynomial
    (d_i = sum_(n>i) c_n C(n, i) delta^(n-i)) at most N M span^(N-1) delta
    of dR.  N is the first count taking the latter below 2^-63 |c_1| delta.
    """
    tf = float(t)
    cs = [r]
    p = 1 / t       # (-1)^(n-1) t^-n for the next n
    while True:
        n = len(cs)
        cs.append((p - cs[-1]) / n)
        p = -p / t
        m = max(abs(float(cs[-1])), tf ** -(n + 1))
        if span == 0 or n * m * span ** (n - 1) <= 2.0 ** -63 * abs(float(cs[1])) or n == 64:
            break
    n_terms = len(cs) - 1 if span else 1
    c = cs[:n_terms]
    steps = [delta ** i for i in range(n_terms)]
    d = [sum(c[j] * math.comb(j, i) * steps[j - i] for j in range(i + 1, n_terms))
         for i in range(n_terms - 1)]
    cf, df = [float(v) for v in c], [float(v) for v in d]
    rem = m * span ** n_terms if span else 0.0
    h = sum(abs(v) * span ** i for i, v in enumerate(cf) if i)
    hd = sum(abs(v) * span ** i for i, v in enumerate(df) if i)
    d_rem = n_terms * m * span ** (n_terms - 1) * float(delta) if span else 0.0
    d0 = abs(df[0]) if df else 0.0
    return _Series(
        c=cf,
        d=df,
        err=_U * (2 * cf[0] + 3 * n_terms * h) + rem,
        d_max=d0 + hd + d_rem,
        d_err=_U * (2 * d0 + 3 * n_terms * hd) + d_rem,
    )
