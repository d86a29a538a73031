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
"""

from __future__ import annotations

import bisect
import importlib.resources
import re
from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpf
from mpmath.libmp import from_rational, mpf_gt, round_nearest

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
_DECIMAL = re.compile(r"([0-9]+)(?:\.([0-9]*))?")
_DECIMAL_MAX_LEN = 400


def load_zeros(path: str, limit: Optional[float] = None) -> ZeroList:
    """Parse an ordinate file, validate ordering, optionally truncate at limit.

    The file is UTF-8 text, decoded line by line so that a line that is not
    names itself in the error.  Lines may carry an index column
    ("1 14.134725..."), detected from the first data line.  Blank lines and
    '#' comments are skipped.

    A plain decimal token is read as the exact ratio num / 10^d and rounded
    once at the working precision, which is the value ``mpf(token)`` gives;
    any other token goes through ``mpf(token)``, whose value is its own
    exact ratio.  Positivity and ascending order are checked on the exact ratios,
    and two ordinates that round to the same value count as not ascending:
    as rounding is monotone, that rejects exactly what comparing the
    rounded values would.
    """
    gammas = []              # the accepted ordinates, as raw mpf values
    num_prev = den_prev = None
    has_index = None
    min_decimals = None
    with working_precision():
        prec = mp.prec
        lim = None if limit is None else mpf(limit)._mpf_
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
                match = _DECIMAL.fullmatch(token) if len(token) <= _DECIMAL_MAX_LEN else None
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
                    sign, man, exp, _ = g = value._mpf_
                    num, den = (-man if sign else man) << max(exp, 0), 1 << max(-exp, 0)
                    decimals = len(token.split(".")[1]) if "." in token else 0
                if num <= 0:
                    raise ZeroDataError(f"{path}:{line_no}: nonpositive ordinate {token}")
                if gammas and (num * den_prev <= num_prev * den or g == gammas[-1]):
                    raise ZeroDataError(f"{path}:{line_no}: ordinates not ascending")
                min_decimals = decimals if min_decimals is None else min(min_decimals, decimals)
                if lim is not None and mpf_gt(g, lim):
                    break
                gammas.append(g)
                num_prev, den_prev = num, den
        gammas = tuple(map(mp.make_mpf, gammas))
    if gammas and not (FIRST_ZERO_LOW < gammas[0] < FIRST_ZERO_HIGH):
        raise ZeroDataError(
            f"first ordinate {float(gammas[0])} is not the first zeta zero; "
            "file does not start at the bottom of the critical strip"
        )
    return ZeroList(gammas, source=path, decimal_places=min_decimals or 0)


def check_zero_sum(zeros: ZeroList, t2) -> Verdict:
    """Compare sum of 1/|Im rho| over |Im rho| <= t2 with its closed-form bound.

    ``empirical_sum`` is the sum of 2/gamma over the listed gamma <= t2.
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


def riemann_count_estimate(t) -> mpf:
    """Main term of the zero-counting function: (t/2pi) log(t/2pi) - t/2pi + 7/8.

    Used as an ingestion sanity check: a healthy table's count below t stays
    within a few percent of this for t well above the first zero.
    """
    with working_precision():
        t = mpf(t)
        if t <= 2 * mp.pi:
            raise ParameterError("count estimate needs t > 2*pi")
        r = t / (2 * mp.pi)
        return +(r * mp.log(r) - r + mpf(7) / 8)
