"""Ingest zeta-zero ordinate files and check the zero-dependent claims on real data.

Zero tables are plain text, one positive ordinate per line in ascending
order, optionally with a leading index column (the de-facto public format).
A fixture with every ordinate below height 5000 ships with the package.

Two empirical checks run against a loaded list: the reciprocal-ordinate sum
against its closed-form bound (conjugate pairs folded in as a factor of two,
stated explicitly in the verdict to keep the bookkeeping honest), and the
kernel weight bound a(gamma) <= 1 for every zero inside the kernel band.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpf

from .errors import CoverageError, ParameterError, ZeroDataError
from .hiprec import get_default_precision, working_precision
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
        t2 = mpf(t2)
        return tuple(g for g in self.gammas if g <= t2)

    def count_below(self, t) -> int:
        return len(self.below(t))


def bundled_zeros_path() -> str:
    """Path of the packaged ordinate fixture (all zeros below height ~5000)."""
    ref = importlib.resources.files("primebounds.data") / "zeta_zeros_to_5000.txt"
    return str(ref)


def load_zeros(path: str, limit: Optional[float] = None, prec: int | None = None) -> ZeroList:
    """Parse an ordinate file, validate ordering, optionally truncate at limit.

    Lines may carry an index column ("1 14.134725..."), detected from the
    first data line.  Blank lines and '#' comments are skipped.
    """
    prec = get_default_precision() if prec is None else int(prec)
    gammas = []
    has_index = None
    min_decimals = None
    with working_precision(prec):
        lim = None if limit is None else mpf(limit)
        with open(path) as f:
            for line_no, raw in enumerate(f, start=1):
                line = raw.strip()
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
                try:
                    g = mpf(token)
                except Exception as exc:
                    raise ZeroDataError(f"{path}:{line_no}: not a number: {token!r}") from exc
                if not mp.isfinite(g):
                    raise ZeroDataError(f"{path}:{line_no}: non-finite ordinate {token}")
                if g <= 0:
                    raise ZeroDataError(f"{path}:{line_no}: nonpositive ordinate {token}")
                if gammas and g <= gammas[-1]:
                    raise ZeroDataError(f"{path}:{line_no}: ordinates not ascending")
                decimals = len(token.split(".")[1]) if "." in token else 0
                min_decimals = decimals if min_decimals is None else min(min_decimals, decimals)
                if lim is not None and g > lim:
                    break
                gammas.append(+g)
    if gammas and not (FIRST_ZERO_LOW < gammas[0] < FIRST_ZERO_HIGH):
        raise ZeroDataError(
            f"first ordinate {float(gammas[0])} is not the first zeta zero; "
            "file does not start at the bottom of the critical strip"
        )
    return ZeroList(tuple(gammas), source=path, decimal_places=min_decimals or 0)


def check_zero_sum(zeros: ZeroList, t2, prec: int | None = None) -> Verdict:
    """Compare sum of 1/|Im rho| over |Im rho| <= t2 with its closed-form bound.

    ``empirical_sum`` is the sum of 2/gamma over the listed gamma <= t2.
    """
    prec = get_default_precision() if prec is None else int(prec)
    with working_precision(prec):
        t2m = mpf(t2)
        if not mp.isfinite(t2m):
            raise ParameterError(f"t2 must be finite, got {t2}")
        if zeros.max_height < t2m:
            raise CoverageError(
                f"need ordinates up to {float(t2m)}, file reaches {float(zeros.max_height)}"
            )
        bound = zero_sum_bound(t2m, prec=prec)  # raises below 4*pi*e
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


def check_kernel_weights(
    zeros: ZeroList, params: KernelParams, prec: int | None = None
) -> Verdict:
    """Assert the normalized kernel weight lies in (0, 1] for every in-band zero.

    Ordinates beyond the band edge c/eps are skipped and counted; an empty
    check passes vacuously with a warning.
    """
    prec = get_default_precision() if prec is None else int(prec)
    with working_precision(prec):
        edge = mpf(params.c) / mpf(params.eps)
        lo, hi = None, None
        checked = skipped = 0
        for g in zeros.gammas:
            if g > edge:
                skipped += 1
                continue
            w = a_weight(g, params, prec=prec)
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


def riemann_count_estimate(t, prec: int | None = None) -> mpf:
    """Main term of the zero-counting function: (t/2pi) log(t/2pi) - t/2pi + 7/8.

    Used as an ingestion sanity check: a healthy table's count below t stays
    within a few percent of this for t well above the first zero.
    """
    prec = get_default_precision() if prec is None else int(prec)
    with working_precision(prec):
        t = mpf(t)
        if t <= 2 * mp.pi:
            raise ParameterError("count estimate needs t > 2*pi")
        r = t / (2 * mp.pi)
        return +(r * mp.log(r) - r + mpf(7) / 8)
