"""Ingest zeta-zero ordinate files and check the zero-dependent claims on real data.

Zero tables are plain text, one positive ordinate per line in ascending
order, optionally with a leading index column (the de-facto public format).
A fixture with every ordinate below height 5000 ships with the package.

Two checks run against a loaded list: the reciprocal-ordinate sum against
its closed-form bound (conjugate pairs folded in as a factor of two, stated
explicitly in the verdict to keep the bookkeeping honest), and the kernel
weight bound 0 < a(gamma) <= 1 for every zero inside the kernel band.  The
weight is decreasing in gamma on the band (see ``check_kernel_weights``), so
the second check evaluates it at the two in-band ordinates at the ends of
the list, not at every zero.

Both the ingest and the zero sum run on plain Python integers and give
mpmath's results bit for bit.  A plain decimal num / 10^d is rounded to the
working precision by one integer division and one round-half-even step on
the mantissa: the correctly rounded value ``from_rational`` and
``mpf(token)`` return.  Each 1/gamma of the sum is rounded by one integer
division of gamma's raw mantissa, as ``1 / gamma`` is, and the terms are
added exactly, as integers at a common exponent, then rounded once.
``mp.fsum`` does the same through ``mpf_sum``, and its one rule that drops a
term far below the running sum is kept.
"""

from __future__ import annotations

import bisect
import importlib.resources
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_gt, round_nearest

from .errors import CoverageError, ParameterError, ZeroDataError
from .hiprec import working_precision
from .kernel import KernelParams, a_weight, zero_sum_bound
from .verdict import Verdict

__all__ = [
    "ZeroList",
    "ZeroDataError",
    "CoverageError",
    "load_zeros",
    "bundled_zeros_path",
    "check_zero_sum",
    "check_kernel_weights",
    "FIRST_ZERO_LOW",
    "FIRST_ZERO_HIGH",
]

# the first nontrivial zero has ordinate 14.1347...
FIRST_ZERO_LOW = 14.13
FIRST_ZERO_HIGH = 14.14


@dataclass(frozen=True)
class ZeroList:
    gammas: tuple            # ascending positive ordinates, as mpf
    source: str
    decimal_places: int      # declared precision of the file values

    def __len__(self) -> int:
        return len(self.gammas)

    @property
    def max_height(self) -> mpf:
        return self.gammas[-1] if self.gammas else mpf(0)

    def below(self, t2) -> tuple:
        return self.gammas[:self.count_below(t2)]

    def count_below(self, t) -> int:
        with working_precision():
            return bisect.bisect_right(self.gammas, mpf(t))


def bundled_zeros_path() -> str:
    """Path of the packaged ordinate fixture (all zeros below height ~5000)."""
    ref = importlib.resources.files("primebounds.data") / "zeta_zeros_to_5000.txt"
    return str(ref)


# a plain ASCII decimal, read as an exact integer over a power of ten; a
# longer token goes through mpf(token), since mpmath rounds decimals with
# over 400 places by an inexact product and int() reads at most 4300 digits
_DECIMAL_MAX_LEN = 400


@lru_cache(maxsize=_DECIMAL_MAX_LEN)
def _decimal_scale(d: int) -> tuple:
    """d, 10^d, 5^d and the bit length of 5^d, for a token with d places."""
    five = 5 ** d
    return d, 10 ** d, five, five.bit_length()


def _round_decimal(num: int, scale: tuple, prec: int) -> tuple:
    """The raw mpf nearest num / 10^d at prec bits, ties to even; num > 0 and
    ``scale`` is ``_decimal_scale(d)``.

    q = floor(num 2^k / 5^d) = floor(num 2^(k+d) / 10^d) holds the prec kept
    bits over 1 or 2 guard bits, and the remainder is the sticky rest.
    Adding 2^(guard-1), which is guard, rounds half up; an exact tie then
    goes back to even.
    """
    d, _, five, five_bits = scale
    k = prec + 1 + five_bits - num.bit_length()
    q, r = divmod(num << k, five) if k >= 0 else divmod(num, five << -k)
    guard = q.bit_length() - prec
    man = (q + guard) >> guard
    if not r and q & (2 * guard - 1) == guard:
        man &= ~1
    exp = guard - k - d
    if not man & 1:         # mpmath keeps mantissas odd
        twos = (man & -man).bit_length() - 1
        man >>= twos
        exp += twos
    return (0, man, exp, man.bit_length())


def load_zeros(path: str, limit: Optional[float] = None) -> ZeroList:
    """Parse an ordinate file, validate ordering, optionally truncate at limit.

    The file is UTF-8 text, read and decoded whole; a byte that is not UTF-8
    names its own line in the error, after the lines before it have been
    read (one of them may stop the load first).  Lines may carry an index
    column ("1 14.134725..."), detected from the first data line.  Blank
    lines and '#' comments are skipped.

    A plain decimal token is read as the exact ratio num / 10^d and rounded
    once at the working precision, with one integer division and one
    round-half-even step (``_round_decimal``): the correctly rounded value
    ``mpf(token)`` gives.  Any other token goes through ``mpf(token)``,
    whose value is its own exact ratio, once its magnitude is known to lie
    in the finite double range, below 2^1024 and not below 2^-1074; an
    exponent outside it is refused.  Positivity and ascending order are
    checked on the exact ratios (numerators alone when two decimals have the
    same d), and two ordinates that round to the same value count as not
    ascending: as rounding is monotone, that rejects exactly what comparing
    the rounded values would.

    ``decimal_places`` is the fewest places of an ordinate kept; the first
    ordinate past ``limit`` is not counted.
    """
    with open(path, "rb") as f:
        data = f.read()
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        # no UTF-8 sequence holds a newline byte, so the first error lies in
        # the first line that does not decode on its own, and reads the same
        bad = exc
        text = data[:data.rfind(b"\n", 0, exc.start) + 1].decode("utf-8")
    gammas = []              # the accepted ordinates, as raw mpf values
    num_prev = den_prev = None
    has_index = None
    min_decimals = None
    with working_precision():
        prec = mp.prec
        lim = None if limit is None else mpf(limit)._mpf_
        for line_no, line in enumerate(text.split("\n"), start=1):
            line = line.strip()
            if not line or line[0] == "#":
                continue
            parts = line.split()
            if has_index is None:
                if len(parts) not in (1, 2):
                    raise ZeroDataError(f"{path}:{line_no}: unrecognized row {line!r}")
                has_index = len(parts) == 2
            if len(parts) != (2 if has_index else 1):
                raise ZeroDataError(f"{path}:{line_no}: inconsistent column count")
            token = parts[-1]
            whole, _, places = token.partition(".")
            digits = whole + places
            if whole and len(token) <= _DECIMAL_MAX_LEN and digits.isascii() and digits.isdigit():
                num, scale = int(digits), _decimal_scale(len(places))
                decimals, den = scale[:2]
                g = _round_decimal(num, scale, prec) if num else None  # 0 is refused below
            else:
                try:
                    value = mpf(token)
                except Exception as exc:
                    raise ZeroDataError(f"{path}:{line_no}: not a number: {token!r}") from exc
                if not mp.isfinite(value):
                    raise ZeroDataError(f"{path}:{line_no}: non-finite ordinate {token}")
                sign, man, exp, bc = g = value._mpf_
                # only a magnitude in the finite double range is shifted into an
                # exact ratio: 1e100000000 would build a 40 MB integer first
                if not -1074 < exp + bc <= 1024:
                    raise ZeroDataError(f"{path}:{line_no}: out-of-range ordinate {token}")
                num, den = (-man if sign else man) << max(exp, 0), 1 << max(-exp, 0)
                decimals = len(token.split(".")[1]) if "." in token else 0
            if num <= 0:
                raise ZeroDataError(f"{path}:{line_no}: nonpositive ordinate {token}")
            if gammas and ((num <= num_prev if den == den_prev else num * den_prev <= num_prev * den)
                           or g == gammas[-1]):
                raise ZeroDataError(f"{path}:{line_no}: ordinates not ascending")
            if lim is not None and mpf_gt(g, lim):
                break
            if min_decimals is None or decimals < min_decimals:
                min_decimals = decimals
            gammas.append(g)
            num_prev, den_prev = num, den
        else:
            if bad is not None:
                line_no = data.count(b"\n", 0, bad.start) + 1
                raise ZeroDataError(f"{path}:{line_no}: not UTF-8 text ({bad.reason})") from bad
        gammas = tuple(map(mp.make_mpf, gammas))
    if gammas and not (FIRST_ZERO_LOW < gammas[0] < FIRST_ZERO_HIGH):
        raise ZeroDataError(
            f"first ordinate {float(gammas[0])} is not the first zeta zero; "
            "file does not start at the bottom of the critical strip"
        )
    return ZeroList(gammas, source=path, decimal_places=min_decimals or 0)


def _reciprocal_sum(gammas, prec: int) -> tuple:
    """Raw mpf of ``mp.fsum(1 / g for g in gammas)`` at prec bits, for
    ascending ordinates above 1.

    For g = man 2^exp with man odd of bc bits, q = 2^(prec+bc-1) // man lies
    in [2^(prec-1), 2^prec] and the remainder never makes a tie, so one
    comparison rounds 1/g as ``1 / g`` does.  The terms fall, so each is
    shifted onto the least exponent so far and added exactly; ``from_man_exp``
    then rounds once, as ``mpf_sum`` does.  Like it, a term whose top bit lies
    over 2 prec bits below ``low``, the least exponent of the terms kept as
    mpmath stores them (trailing zeros stripped), is dropped; its other rule,
    for a term far above the running sum, never applies to falling terms.
    """
    acc = acc_exp = low = 0  # the kept terms add up to acc 2^acc_exp
    for g in gammas:
        _, man, exp, bc = g._mpf_
        shift = prec + bc - 1
        q, r = divmod(1 << shift, man)
        if r << 1 > man:
            q += 1
        e = -exp - shift
        if e < low:
            if acc and e + q.bit_length() < low - 2 * prec:
                continue
            low = min(low, e + (q & -q).bit_length() - 1)
        acc = (acc << (acc_exp - e)) + q
        acc_exp = e
    return from_man_exp(acc, acc_exp, prec, round_nearest)


def check_zero_sum(zeros: ZeroList, t2) -> Verdict:
    """Compare sum of 1/|Im rho| over |Im rho| <= t2 with its closed-form bound.

    ``empirical_sum`` is the sum of 2/gamma over the listed gamma <= t2,
    each 1/gamma rounded at the working precision and the terms added
    exactly before one rounding (``_reciprocal_sum``): bit for bit
    ``2 * mp.fsum(1 / g for g in used)``.
    """
    with working_precision():
        t2m = mpf(t2)
        if not mp.isfinite(t2m):
            raise ParameterError(f"t2 must be finite, got {t2}")
        if zeros.max_height < t2m:
            raise CoverageError(
                f"need ordinates up to {float(t2m)}, file reaches {float(zeros.max_height)}"
            )
        bound = zero_sum_bound(t2m)  # raises below 4*pi*e
        used = zeros.below(t2m)
        empirical = 2 * mp.make_mpf(_reciprocal_sum(used, mp.prec))
        return Verdict(
            empirical <= bound,
            t2=float(t2m),
            empirical_sum=+empirical,
            bound=+bound,
            margin=+(bound - empirical),
            zeros_used=len(used),
            convention="sum over |Im rho|: each listed gamma counted twice (conjugate pair)",
        )


def check_kernel_weights(zeros: ZeroList, params: KernelParams) -> Verdict:
    """Assert the normalized kernel weight lies in (0, 1] for every in-band zero.

    On the band 0 < gamma <= c/eps the weight is

        a(gamma) = [sinh(r)/r] / [sinh(R)/R],
        r = sqrt(c^2 - gamma^2 eps^2),  R = sqrt(c^2 + eps^2/4),

    a ratio of positives, so a(gamma) > 0.  sinh(t)/t is increasing in
    t >= 0 and r <= c < R, so a(gamma) < 1; r decreases in gamma, so
    a(gamma) decreases in gamma.  The weights at the smallest and the
    largest in-band ordinate (``max_weight`` and ``min_weight``) therefore
    bound every other, and only those two are evaluated: when both lie in
    (0, 1], so does every weight in between.  ``checked`` counts the in-band
    ordinates the lemma covers.

    Ordinates beyond the band edge are skipped and counted; an empty check
    passes vacuously with a warning.  A weight outside (0, 1] fails the
    verdict with the facts the zero-by-zero scan would stop with: the
    ordinates before the first failing one counted as checked, and the
    weight and ordinate of that one in the warning.
    """
    gammas = zeros.gammas
    with working_precision():
        n = bisect.bisect_right(gammas, mpf(params.c) / mpf(params.eps))
        skipped = len(gammas) - n
        if not n:
            return Verdict(True, checked=0, skipped_out_of_band=skipped,
                           min_weight=None, max_weight=None,
                           warning="no ordinates inside the kernel band; vacuous pass")

        def weight(k):
            return a_weight(gammas[k], params)

        def bad(w):
            return not (0 < w <= 1)

        hi = weight(0)
        lo = weight(n - 1) if n > 1 else hi
        if bad(hi) or bad(lo):
            # the weights decrease: one above 1 sits at the first ordinate,
            # and those at or below 0 form a suffix; no ordinate before the
            # first failing one is beyond the band edge
            first = 0 if bad(hi) else bisect.bisect_left(range(n), True, key=lambda k: bad(weight(k)))
            return Verdict(False, checked=first, skipped_out_of_band=0,
                           min_weight=weight(first - 1) if first else None,
                           max_weight=hi if first else None,
                           warning=f"weight {float(weight(first))} outside (0,1] at gamma={float(gammas[first])}")
        return Verdict(True, checked=n, skipped_out_of_band=skipped,
                       min_weight=lo, max_weight=hi, warning="")
