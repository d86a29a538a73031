"""Threshold equations and the iterative tightening of (A, B, C, D, E).

The derivation alternates two moves until it stops improving:

1. For the current threshold A, pick the kernel parameters (D, E) minimizing
   the constant B = E/2 + D*E/log A subject to admissibility: the normalized
   aggregate error E(A) must leave room for a shift C at least as large as
   the psi->theta transfer requires, with all lemma preconditions satisfied.
   B is what makes c/eps <= T follow from the threshold inequality.
2. Solve the threshold equation with the rounded B for its largest root
   x_max, and restart with A = x_max.

Admissibility is decided with exact (unrounded) coefficient substitution.
The declared shift C of a published state is accepted when it is within one
printed ulp (0.01) of the exact largest admissible shift C* = -E(A)/a;
strict mode insists on C <= C*.

One ``_Admissibility`` routine owns all work at a threshold A: it computes
log A, sqrt A, the normalizers, the shift requirement and the parsed
constants once (``error_terms.ProfileAt``, ``TermsAt``) and runs the
search once (``best``).  Each round of the loop builds one, for its search
and its shift C*; the first round's also checks the seed.  The strong
search prunes: once a best B is known, an E whose smallest admissible D
cannot beat it costs one evaluation, and the smallest admissible D of any
other E is found by galloping out from the D the stage's last answers
predict (``_search_strong``).

Each search decision is made in float64 first.  ``admissible`` runs the
precondition tests, the profile substitution and the assembly of E(A) in
float64: the same code as the full-precision path, with ``math`` for
``mp``, on the nearest doubles of the same precomputed constants.  It keeps
the float64 answer only when it is clear:

- each precondition quantity (c, eps, sqrt(2c)/eps) lies outside its bound
  (3, 1e-4, 1e3) by more than 1e-9 of the bound;
- |margin| > 1e-9 * max(S, 1, requirement), where margin = C* -
  requirement and S is the sum of the magnitudes of the summands of E(A),
  each divided by sqrt(A) log A a, with E_3 counted as its two pieces;
- no step overflows or leaves its domain, and nothing is NaN or infinite.

Anything else is re-decided at the working precision as
``not preconditions(D, E) and margin(D, E) > 0`` and counted in
``rechecks``.  The bound behind the band: with u = 2^-53, each float64
operation errs by at most u relative and each libm call (exp, log, sinh,
sqrt) by at most 2u, and every constant is the double nearest its 192-bit
value.  Each summand is a product or quotient of at most 16 such factors
(E_3 a square of a sum of four terms below log A in size), whose arguments
carry relative errors amplified at most by the condition number of sinh at
c, below c + 1 <= 711 wherever sinh c is finite.  A generous count gives
an error below 4000 u (4.5e-13) of S for the sum, 2u of the requirement
and of a, and 1e-13 absolute for c, an addition to log(A)/2 < 355; the
192-bit values err by about 2^-180.  The band is over 2000 times these
bounds, so a float64 answer kept is the 192-bit answer, and every output
is bit-identical to deciding everything at 192 bits.  Measured over the
2,465 decisions of ``derive --T 2.5e14`` and ``tables 1 2`` (3,860 before
the strong search galloped): the float64 and 192-bit margins differ by at
most 4.2e-14 (2.1 u of S), the smallest |margin| is 7.8e-6, and no decision
is re-decided.

The strong search's tests B < best take the same two stages (``_b_below``),
with the band 1e-9 * max(1, best).  In float64, B = E/2 + D E / log A is
evaluated at the doubles of E = e_num/e_denom and D = n/d_denom, correctly
rounded quotients of integers (u each), and of log A (u); E/2 is exact,
the product, the quotient and the sum err by u each, and both summands are
positive, so B errs by at most 6u relative.  The best is kept as its grid
points and that float64 B, which errs by 6u as well, and the difference
is rounded once, so near a tie the float64 B - best is within
13u * max(1, best) (1.5e-15 of it) of the 192-bit one, and the band is
over 6e5 times that.  Measured over the 2,110 such tests of ``derive --T
3e12``, ``derive --T 2.5e14`` and ``tables 1 2``: the error is at most 3.5u
of max(1, best), and the 21 re-decided are exact ties, where a stage
revisits the E of the best itself; mpf values are built for those and for
the 18 results alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from mpmath import mp, mpf
from mpmath.libmp import (
    from_float,
    from_str,
    mpf_lt,
    mpf_mul,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_float,
)

from .error_terms import (
    BoundVariant,
    IterationState,
    ParameterError,
    ProfileAt,
    STRONG,
    TermsAt,
    check_kernel_shift,
    round_up_sig,
    shift_requirement,
)
# unused here, but importable from this module on purpose:
# perfbench/tracing.py installs its spans on these two names
from .error_terms import derive_profile, e_total  # noqa: F401
from .errors import BracketError
from .hiprec import li, working_precision
from .verdict import Verdict
from . import published

__all__ = [
    "ThresholdEquation",
    "DerivationRound",
    "DerivationReport",
    "solve_x_max",
    "admissible_B",
    "check_admissible",
    "default_seed",
    "iterate",
    "partial_summation_slack",
    "table1",
    "table2",
]

DEFAULT_T = 3.0e12

# declared shifts are printed to two decimals; accept one ulp of slack
C_DISPLAY_TOL = 0.01

# relative half-width of the band in which a float64 search decision is
# re-decided at full precision (module docstring)
_GUARD = 1e-9

# relative half-width of the band in which a float64 test LHS(x) < T of
# ``solve_x_max`` is re-decided at full precision (its docstring)
_X_MAX_GUARD = 1e-12

# inside that band, a secant value is kept only outside +-1e-20 T and when
# its two points lie within 1e-11 x of each other (same docstring)
_SECANT_GUARD = 1e-20
_SECANT_SPAN = 1e-11

_U = 2.0 ** -53

_EQ_KINDS = ("strong", "weak", "comparison")


@dataclass(frozen=True)
class ThresholdEquation:
    """LHS(x) <= T with LHS one of the three threshold shapes.

    strong: K/loglog(x) * sqrt(x/log x);  weak: K * sqrt(x/log^3 x);
    comparison:  K * sqrt(x/log x).
    """

    variant: str
    constant: float
    T: float = DEFAULT_T

    def __post_init__(self):
        if self.variant not in _EQ_KINDS:
            raise ParameterError(f"unknown threshold equation {self.variant!r}")
        if not (self.constant > 0 and self.T > 0):
            raise ParameterError("threshold equation needs constant > 0 and T > 0")

    def lhs(self, x) -> mpf:
        """LHS(x) at the working precision."""
        with working_precision():
            return self._lhs(mpf(x), mp)

    def _lhs(self, x, m):
        """LHS(x) in number type ``m``: ``mp`` at mpmath's current precision,
        or ``math`` in float64 for x >= 30 (``solve_x_max``'s error bound)."""
        K = self.constant
        L = m.log(x)
        if self.variant == "strong":
            return K / m.log(L) * m.sqrt(x / L)
        if self.variant == "weak":
            return K * m.sqrt(x / L ** 3)
        return K * m.sqrt(x / L)


def solve_x_max(eq: ThresholdEquation) -> mpf:
    """Largest x with LHS(x) = T, by geometric bisection to 1e-13 relative.

    The LHS is strictly increasing for x >= e^3, so the root is unique on
    the bracket; the default bracket [1e5, 1e60] covers every table entry
    and is expanded once, to [30, 1e300], before giving up.

    The bisection runs at the working precision; only its tests
    LHS(x) < T are decided in float64 first, by ``_lhs`` at float(x),
    and kept when |LHS - T| > 1e-12 T (``_X_MAX_GUARD``).  The bound
    behind the band, with u = 2^-53, each float64 operation and sqrt
    erring by at most u relative, each libm log and pow by at most 2u, and
    K and T doubles: float(x) rounds down, so errs by 2u, and log x by
    2u + 2u/log x <= 2.6u relative on x >= 30 (log x > 3.4); x/log x by
    5.6u, its sqrt by 3.8u, and the comparison shape by 4.8u with K; log
    log x by 2.6u absolute, over 1.22, so 4.2u relative with libm, and the
    strong shape by 9.9u; the weak cube L ** 3 by 3 * 2.6u + 2u = 9.8u,
    x/log^3 x by 12.8u and the weak shape by 8.4u.  So the float64 LHS
    lies within 10u (1.1e-15) of LHS relative, rounding its difference with
    T adds u, and the full-precision LHS errs by about 2^-185.  The band is
    over 800 times these 11u.

    A test whose float64 difference is not finite is decided by ``lhs`` at
    full precision, and so is one inside the band while fewer than two
    have been; every later one in the band first by the secant through the
    last two full-precision values f_i = LHS(x_i) - T (as doubles),
    s = f_1 + (f_2 - f_1) q with q = d/h, where d = x - x_1 and h = x_2 - x_1
    are the ``mpf_sub`` offsets rounded once to doubles.  s is kept when
    |h| <= 1e-11 x (``_SECANT_SPAN``), |q| <= 3 and
    |s| > 1e-20 T + 32u (|f_1| + |f_2|) (``_SECANT_GUARD``); anything else
    goes to ``lhs``, which then replaces the older point.  The bound: with
    L = log x and LHS = sqrt(x) phi(L), LHS'' = LHS (phi''/phi - 1/4) / x^2,
    and phi''/phi is k(k+1)/L^2 for phi = L^-k (k = 1/2 comparison, 3/2
    weak) and 1/(2L^2) + (l+1)/(L l)^2 + (1/(2L) + 1/(L l))^2 with
    l = log L (strong), all in (0, 0.33] on x >= 30, so
    |LHS''| <= LHS/(4 x^2).  The secant of a C^2 function errs by
    |LHS''(xi)| |x - x_1| |x - x_2| / 2 for some xi on the span of the
    three points, where |x - x_1| <= 3|h| <= 3e-11 x and
    |x - x_2| <= 4e-11 x; x is in the band and LHS increases by at most
    sqrt(1 + 4e-11) over the span, so LHS(xi) <= 1.01 T (for any band
    up to 1e-3 T) and the secant errs by at most 1.52 * (1e-11)^2 T =
    1.6e-22 T.  In float64 the f_i err by u relative plus the
    full-precision error eta, d, h and the difference by u each, q by 3u,
    and s then by at most u F (1 + 6.03|q|) + eta (1.01 + 2.02|q|) +
    1.01u|s| <= 20u F + 8 eta + 1.01u|s|, with F = |f_1| + |f_2|.  So a
    kept s is over 60 times its error from zero and has the sign of
    LHS(x) - T, and of the full-precision difference, which is further
    from zero than its own error.

    So every answer kept is the full-precision one, each step moves lo or
    hi exactly as deciding everything at full precision would, and the
    root is bit-identical to it.  Only the last steps, where the bracket is
    narrower than about 4e-12 relative, are in the band, and of those only
    the first two go to ``lhs`` (a secant value within its band of zero
    would take a third).  The stop test hi - lo < 1e-13 lo runs at full
    precision only when the doubles of the ends, each rounded down and so
    within 2u of its value, give hi - lo < 1.01e-13 lo; otherwise the
    bracket is wider than 1.005e-13 lo and the test fails.
    """
    with working_precision():
        prec = mp.prec
        T = mpf(eq.T)
        T64 = float(eq.T)
        band = _X_MAX_GUARD * T64
        known = []             # (x, LHS(x) - T as a double) of the last two lhs tests

        def below(x, x64) -> bool:
            # eq.lhs(x) < T for a raw mpf x and its double x64
            diff = eq._lhs(x64, math) - T64
            if math.isfinite(diff):
                if abs(diff) > band:
                    return diff < 0
                s = _secant(known, x, x64, T64) if len(known) == 2 else None
                if s is not None:
                    return s < 0
            f = eq.lhs(mp.make_mpf(x)) - T
            known[:] = known[-1:] + [(x, float(f))]
            return f < 0

        def geometric_mean(lo, hi):
            # mp.sqrt(lo * hi) on raw mpf values, rounded to nearest at prec
            # as mpf arithmetic is, without the object overhead
            return mpf_sqrt(mpf_mul(lo, hi, prec, round_nearest), prec, round_nearest)

        for ends in (("1e5", "1e60"), ("30", "1e300")):
            lo, hi = (from_str(v, prec, round_nearest) for v in ends)
            lo64, hi64 = to_float(lo), to_float(hi)
            if below(lo, lo64) and not below(hi, hi64):
                break
        else:
            raise BracketError(f"no sign change for {eq.variant} K={eq.constant} T={eq.T}")
        tol = from_float(1e-13)
        for _ in range(600):
            mid = geometric_mean(lo, hi)
            mid64 = to_float(mid)
            if below(mid, mid64):
                lo, lo64 = mid, mid64
            else:
                hi, hi64 = mid, mid64
            if hi64 - lo64 < 1.01e-13 * lo64 and mpf_lt(
                    mpf_sub(hi, lo, prec, round_nearest), mpf_mul(tol, lo, prec, round_nearest)):
                break
        return mp.make_mpf(geometric_mean(lo, hi))


def _secant(known, x, x64: float, T64: float):
    """LHS(x) - T by the secant through ``known``, the last two (x_i, f_i)
    of ``solve_x_max``'s full-precision tests, when it is kept (that
    docstring), else None.  x is a raw mpf and x64 its double."""
    (x1, f1), (x2, f2) = known
    h = to_float(mpf_sub(x2, x1, 53, round_nearest))
    q = to_float(mpf_sub(x, x1, 53, round_nearest)) / h
    if abs(h) <= _SECANT_SPAN * x64 and abs(q) <= 3:
        s = f1 + (f2 - f1) * q
        if abs(s) > _SECANT_GUARD * T64 + 32 * _U * (abs(f1) + abs(f2)):
            return s
    return None


def admissible_B(state: IterationState) -> mpf:
    """Minimal threshold constant implied by the state's kernel parameters.

    c/eps <= (E/2 + D E / log A) / loglog(x) * sqrt(x / log x) for x > A
    (strong; the weak shape drops the loglog), so any B at least
    E/2 + D E / log A makes the threshold inequality imply c/eps <= T.
    Rounded up at three significant figures, matching the published tables.
    """
    with working_precision():
        return round_up_sig(_b_at(mp.log(mpf(state.A)), mpf(state.D), mpf(state.E)), 3)


def _b_at(log_a, D, E):
    # the exact B = E/2 + D E / log A, in the number type of its arguments
    return E / 2 + D * E / log_a


class _Admissibility:
    """Admissibility of kernel parameters (D, E) at one threshold A, and
    the variant's search there (``best``).

    (D, E) is admissible when the lemma preconditions hold at A and the
    largest usable shift C* = -E(A)/a exceeds the psi->theta requirement.
    The profile is substituted at A rounded to a double and D, E are taken
    as doubles, as an ``IterationState`` stores them; E(A) and the
    requirement are evaluated at the full-precision A.  The preconditions
    are written once, as (quantity, lower bound) pairs (``_conditions``).

    ``admissible`` decides in float64 first and re-decides at the working
    precision only inside the guard band (module docstring); ``rechecks``
    counts those re-decisions.
    """

    def __init__(self, A, variant: BoundVariant):
        variant.check_threshold(float(A))
        self.variant = variant
        self.rechecks = 0
        self._shifts = {}
        with working_precision():
            self.a = variant.leading_a()
            self._profiles = ProfileAt(float(A), variant)
            self._terms = TermsAt(A, variant)
            self.c_required = shift_requirement(A, self.a)
            lows = (mpf(3), -mpf("1e-4"), mpf(1000))
        self._lows = {mp: lows, math: tuple(float(v) for v in lows)}
        self._a64 = float(self.a)
        self._c_required64 = float(self.c_required)

    @cached_property
    def best(self):
        """(exact B, D, E) of the variant's search at A, or None."""
        with working_precision():
            if self.variant.kind == "strong":
                return _search_strong(self)
            E = _search_weak(self)
            return None if E is None else (_b_at(self._terms.L, mpf(0), E), mpf(0), E)

    def preconditions(self, D, E) -> list:
        """The kernel-lemma preconditions at A that (D, E) violates."""
        with working_precision():
            c, eps = self._profiles._kernel(mpf(float(D)), mpf(float(E)), mp)
            return list(self._violations(c, eps))

    def _conditions(self, c, eps, m):
        """The preconditions as (quantity, lower bound) pairs in number type
        ``m``, each met when quantity >= bound: c >= 3, eps <= 1e-4 and
        sqrt(2c)/eps >= 1e3.  Lazily, so a decision stops at the first
        violation."""
        c_min, minus_eps_max, ratio_min = self._lows[m]
        yield c, c_min
        yield -eps, minus_eps_max
        # outer-band split point: a_frac = sqrt(2/c) needs a_frac*c/eps >= 1e3
        yield m.sqrt(2 * c) / eps, ratio_min

    def _violations(self, c: mpf, eps: mpf):
        # the violated ``_conditions`` at the working precision, lazily
        for (value, low), message in zip(self._conditions(c, eps, mp), _VIOLATIONS):
            if value < low:
                yield message.format(c=float(c), eps=float(eps))

    def shift(self, D, E):
        """(profile, E(A), C*) for kernel parameters (D, E), computed once
        per pair of doubles (float(D), float(E)), all it depends on."""
        key = (float(D), float(E))
        if key not in self._shifts:
            D, E = key
            with working_precision():
                profile = self._profiles.profile(D, E)
                e_at_a = self._terms._total(profile.coefficients, D, mp)[0]
                self._shifts[key] = (profile, e_at_a, -e_at_a / self.a)
        return self._shifts[key]

    def margin(self, D, E) -> mpf:
        """C* - requirement: positive exactly when the shift is usable."""
        with working_precision():
            return self.shift(D, E)[2] - self.c_required

    def admissible(self, D, E) -> bool:
        """``not preconditions(D, E) and margin(D, E) > 0``.

        Decided in float64 when that is clear of every boundary by the
        guard band, else by that expression at the working precision.
        """
        D, E = float(D), float(E)
        decided = self._admissible64(D, E)
        if decided is None:
            self.rechecks += 1
            decided = not self.preconditions(D, E) and self.margin(D, E) > 0
        return decided

    def _admissible64(self, D: float, E: float):
        """The float64 decision, or None when it is not clear."""
        try:
            c, eps = self._profiles._kernel(D, E, math)
            clear = True
            for value, low in self._conditions(c, eps, math):
                side = _side(value, low)
                if side < 0:
                    return False
                clear = clear and side > 0
            if not clear:
                return None
            coefs = self._profiles._profile(D, E, c, eps, math)
            total, scale = self._terms._total(coefs, D, math)
        except (OverflowError, ValueError, ZeroDivisionError):
            return None
        margin = -total / self._a64 - self._c_required64
        # a NaN or infinite margin or scale never clears the band
        if abs(margin) > _GUARD * max(scale / self._a64, 1.0, self._c_required64):
            return margin > 0
        return None


# what ``_Admissibility.preconditions`` reports for each of its
# ``_conditions``, in order
_VIOLATIONS = ("c(A)={c:.3f} < 3", "eps(A)={eps:.3g} > 1e-4", "sqrt(2c)/eps below 1e3")


def _side(value: float, bound: float) -> int:
    """1 or -1 when a float64 ``value`` is above or below ``bound`` by more
    than the guard band relative to the bound, 0 inside it (or NaN)."""
    band = _GUARD * abs(bound)
    if value > bound + band:
        return 1
    if value < bound - band:
        return -1
    return 0


def check_admissible(state: IterationState, strict: bool = False) -> Verdict:
    """Decide whether a state supports its claimed bound chain.

    Checks, in order: kernel-lemma preconditions at A; the declared B
    dominating E/2 + D E/log A; existence of a usable shift
    (C* = -E(A)/a above the transfer requirement); and the declared C lying
    in [requirement, C*] -- with one printed ulp of slack on the upper end
    unless ``strict``.  The verdict reports C* (``c_star``), the transfer
    requirement (``c_required``), E(A), the exact profile, whether the
    declared C <= C* without the slack (``declared_c_exact``), and the
    failures found.
    """
    return _check(_Admissibility(state.A, state.variant), state, strict)


def _check(at: _Admissibility, state: IterationState, strict: bool = False) -> Verdict:
    """``check_admissible`` with the routine at the state's threshold."""
    with working_precision():
        failures = at.preconditions(state.D, state.E)
        profile, e_at_a, c_star = at.shift(state.D, state.E)
        c_req = at.c_required
        if not c_star > c_req:
            failures.append(
                f"no admissible shift: C*={mp.nstr(c_star, 8)} <= required {mp.nstr(c_req, 8)}"
            )
        declared_exact = bool(mpf(state.C) <= c_star)
        if mpf(state.C) < c_req:
            failures.append(
                f"declared C={state.C} below transfer requirement {mp.nstr(c_req, 8)}"
            )
        tol = mpf(0) if strict else mpf(C_DISPLAY_TOL)
        if mpf(state.C) > c_star + tol:
            failures.append(
                f"declared C={state.C} exceeds largest admissible shift {mp.nstr(c_star, 8)}"
            )
        if mpf(state.B) < _b_at(at._terms.L, mpf(state.D), mpf(state.E)) - mpf("5e-3"):
            failures.append("declared B below E/2 + D*E/log A")
        return Verdict(
            not failures,
            c_star=c_star,
            c_required=c_req,
            e_at_a=e_at_a,
            profile=profile,
            declared_c_exact=declared_exact,
            failures=tuple(failures),
        )


# grid points are exact integer ratios (n / denominator); accumulating an
# inexact binary step like mpf('0.02') would drift a hair above the decimal
# grid values and push rounded-up constants one printed ulp too high
def _grid(n: int, denom: int) -> mpf:
    return mpf(n) / denom


def _first_admissible(ok, n_hi: int, guess: Optional[int] = None):
    """Smallest n in [0, n_hi] with ok(n), or None when ok(n_hi) fails.

    ok must be monotone on the grid (False up to some index, True from
    there on), so that index is unique.  Without a ``guess`` it is found by
    bisecting [0, n_hi].  With one, ok is probed at the guess (clamped to
    [0, n_hi]) and then at distances 1, 3, 7, ... from it, upward while ok
    fails and downward while it holds; the bracket that gives is then
    bisected.  Every probe keeps ok(lo) false and ok(hi) true, so both ways
    end on the same index.
    """
    if not ok(n_hi):
        return None
    lo, hi = -1, n_hi      # ok(hi) holds; lo is the last index known to fail
    if guess is not None:
        n, step = min(max(guess, 0), n_hi), 1
        if n < n_hi and not ok(n):
            lo = n
            while lo + step < hi and not ok(lo + step):
                lo, step = lo + step, 2 * step
            hi = min(lo + step, hi)
        else:
            hi = n
            while hi - step > lo and ok(hi - step):
                hi, step = hi - step, 2 * step
            lo = max(hi - step, lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _b_below(E, D, log_a, best) -> bool:
    """Whether B = E/2 + D E / log A is below the best's.

    E and D are grid points (numerator, denominator), log A a pair (mpf,
    its double) and ``best`` the best's grid points and float64 B,
    (E, D, B).  Decided in float64 when B - best clears the guard band
    1e-9 * max(1, best) (module docstring), else by ``_b_at`` at the
    working precision on the ``_grid`` values of both.
    """
    diff = _b_at(log_a[1], D[0] / D[1], E[0] / E[1]) - best[2]
    if abs(diff) > _GUARD * max(1.0, best[2]):
        return diff < 0
    B = _b_at(log_a[0], _grid(*D), _grid(*E))
    return B < _b_at(log_a[0], _grid(*best[1]), _grid(*best[0]))


def _predict(answers, x, default: int) -> int:
    """The index at x on the line through the last two (x, n) answers, the
    last answer when there is only one, ``default`` when there is none."""
    if not answers:
        return default
    x1, n1 = answers[-1]
    if len(answers) == 1:
        return n1
    x0, n0 = answers[-2]
    return n1 + round((n1 - n0) * (x - x1) / (x1 - x0))


def _search_strong(at: _Admissibility):
    """Minimize exact B over admissible (D, E): coarse scan then two refinements.

    E runs over a 0.1 grid on [10, 20], then 0.02 and 0.005 grids around the
    best so far; for each E the smallest admissible D on the matching grid
    gives B = E/2 + D E/log A, and a strictly smaller B replaces the best.
    E(A) is decreasing in D over [0, 8], so admissibility is monotone in D.

    All decisions go through the routine ``at`` for A.  Once a best B
    exists, only D up to the largest grid index n_cap whose B is still
    smaller can improve it (B is nondecreasing in D): one evaluation at
    n_cap rejects every other E, and for the rest the smallest admissible D
    is at most n_cap, so it gives a new best.  Before any best, n_cap is
    the top of the D grid.

    The loop runs on grid integers: E = e_num/e_denom and D = n/d_denom,
    probed as the doubles of those quotients, which are the doubles of the
    ``_grid`` values (a test checks it), so 10 <= E <= 20 is a test on the
    integers.  The best is kept as its grid points and its float64 B, the
    tests B < best are ``_b_below``'s, and mpf values are built only for
    the result.

    The smallest admissible D of consecutive E in a stage moves almost
    linearly, and the first new best of a stage lies just below n_cap.  So
    ``_first_admissible`` starts from the index on the line through the
    stage's last two answers (the last answer when there is one, n_cap when
    there is none) and gallops out from it to a bracket, which it bisects:
    most E take 3 probes, against 8 to 10 for bisecting [0, n_cap].
    Admissibility is monotone in D (a test checks it on every E visited),
    so the smallest admissible index is unique, the galloping finds the one
    the bisection finds, and the result is the same as bisecting each E
    over the whole D range.
    """
    log_a = (at._terms.L, float(at._terms.L))
    best = None                # (E, D, float64 B), E and D grid points

    def stage(e_nums, e_denom, d_denom):
        nonlocal best
        answers = []           # (e_num, n) of each new best of the stage
        for e_num in e_nums:
            if not 10 * e_denom <= e_num <= 20 * e_denom:
                continue
            E, e64 = (e_num, e_denom), e_num / e_denom
            n_cap = 8 * d_denom
            if best is not None:
                # the largest n <= n_cap with B < best: the real-valued
                # estimate, corrected step by step
                n = math.floor((best[2] - e64 / 2) * log_a[1] / e64 * d_denom)
                n = min(n_cap, max(-1, n))
                while n < n_cap and _b_below(E, (n + 1, d_denom), log_a, best):
                    n += 1
                while n >= 0 and not _b_below(E, (n, d_denom), log_a, best):
                    n -= 1
                if n < 0:
                    continue
                n_cap = n
            guess = _predict(answers, e_num, n_cap)
            n = _first_admissible(lambda n: at.admissible(n / d_denom, e64), n_cap, guess)
            if n is not None:
                answers.append((e_num, n))
                best = (E, (n, d_denom), _b_at(log_a[1], n / d_denom, e64))

    stage(range(100, 201), 10, 50)     # E = 10.0 .. 20.0 step 0.1
    if best is None:
        return None
    e_center = int(round(best[0][0] / best[0][1] * 50))
    stage(range(e_center - 6, e_center + 7), 50, 50)      # step 0.02
    e_center = int(round(best[0][0] / best[0][1] * 200))
    stage(range(e_center - 4, e_center + 5), 200, 200)    # step 0.005, D grid alike
    D, E = _grid(*best[1]), _grid(*best[0])
    return _b_at(log_a[0], D, E), D, E


def _search_weak(at: _Admissibility):
    """Smallest admissible E for the weak variant (D fixed at 0), or None.

    Parameterized as E = u/a with u on the grid 1.000, 1.002, ..., 6.000:
    the feasible scale of E is inversely proportional to a, so one grid
    resolves every published row at three significant figures.
    """

    def E_at(n):
        return mpf(1000 + 2 * n) / (1000 * at.a)

    n = _first_admissible(lambda n: at.admissible(0, E_at(n)), 2500)
    return None if n is None else E_at(n)


@dataclass(frozen=True)
class DerivationRound:
    state: IterationState
    b_exact: mpf
    b_rounded: mpf
    x_max: mpf
    e_at_a: mpf
    c_star: mpf

    def to_dict(self) -> dict:
        return {
            "A": float(self.state.A),
            "B": float(self.b_rounded),
            "B_exact": float(self.b_exact),
            "C": float(self.state.C),
            "D": float(self.state.D),
            "E": float(self.state.E),
            "x_max": float(self.x_max),
            "aggregate_error_at_A": float(self.e_at_a),
            "largest_admissible_shift": float(self.c_star),
        }


@dataclass(frozen=True)
class DerivationReport:
    variant: BoundVariant
    T: float
    rounds: tuple
    converged: bool

    @property
    def final_constant(self) -> mpf:
        return self.rounds[-1].b_rounded

    @property
    def x_max(self) -> mpf:
        return self.rounds[-1].x_max

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "variant": self.variant.kind,
            "a": float(self.variant.leading_a()),
            "T": self.T,
            "converged": self.converged,
            "final_constant": float(self.final_constant),
            "x_max": float(self.x_max),
            "iterations": [r.to_dict() for r in self.rounds],
        }


def default_seed(T: float = DEFAULT_T, variant: BoundVariant = STRONG) -> IterationState:
    """Starting state: threshold from the comparison bound (strong) or from
    the strong result itself (weak), with the reference kernel parameters;
    B and C are computed at the state's own threshold from its D and E.
    """
    return _default_seed(T, variant)[0]


def _default_seed(T, variant: BoundVariant, A=None, D=None, E=None) -> tuple:
    # (seed, routine) of ``default_seed`` with any given A, D or E in place
    # of the reference one, as ``_seed_at`` returns them
    if A is None:
        if variant.kind == "strong":
            A = solve_x_max(ThresholdEquation("comparison", published.COMPARISON_K, T))
        else:
            A = iterate(T).x_max
    return _seed_at(A, variant, D, E)


def _seed_at(A, variant: BoundVariant, D=None, E=None) -> tuple:
    """(seed, routine): the reference state at threshold A and the routine
    at ``float(A)``, the A the state stores, which checks the seed and serves
    the first round from it.  The strong seed is (D, E) = (6, 16); the weak
    one D = 0 and the smallest admissible E (2.4, which fails the check,
    when there is none).  A given D or E replaces the reference one."""
    at = _Admissibility(float(A), variant)
    with working_precision():
        strong = variant.kind == "strong"
        D = float((6.0 if strong else 0.0) if D is None else D)
        if E is None:
            E = 16.0 if strong else float(at.best[2]) if at.best else 2.4
        E = float(E)
        check_kernel_shift(D, E)
        C = _display_shift(at.shift(D, E)[2], at.c_required)
        B = round_up_sig(_b_at(at._terms.L, mpf(D), mpf(E)), 3)
        return IterationState(float(A), float(B), float(C), D, E, variant), at


def _display_shift(c_star: mpf, c_req: mpf) -> float:
    """The C a state stores: the largest multiple of the double nearest 0.005
    below C*, falling back to the largest double <= C* when the window
    between requirement and C* is narrower.  Refuses a window that holds no
    double; with no window at all (C* below the requirement) the check of
    the state reports that."""
    step = mpf(0.005)
    floored = mp.floor(c_star / step) * step
    c = float(floored if floored >= c_req else c_star)
    if c > c_star:
        c = math.nextafter(c, -math.inf)
    if c < c_req <= c_star:
        raise ParameterError(
            f"no double lies between the required shift {mp.nstr(c_req, 20)} "
            f"and C*={mp.nstr(c_star, 20)}"
        )
    return c


def iterate(
    T: float = DEFAULT_T,
    seed: Optional[IterationState] = None,
    max_rounds: int = 8,
    variant: BoundVariant = STRONG,
    A=None,
    D: float | None = None,
    E: float | None = None,
) -> DerivationReport:
    """Run the tightening loop; the trace records one row per round.

    Without a ``seed`` the loop starts from ``default_seed``, with a given
    ``A``, ``D`` or ``E`` in place of the reference one; its B and C are
    computed at its own threshold, and one routine there checks it and
    serves the first round.  Stops when the rounded constant no longer
    improves (or max_rounds).  A non-admissible seed aborts immediately,
    and so does a first round whose x_max is not above its threshold A
    (its bound holds for no x).
    """
    if max_rounds < 1:
        raise ParameterError(f"max_rounds must be >= 1, got {max_rounds}")
    at = None
    if seed is None:
        seed, at = _default_seed(T, variant, A, D, E)
    elif (A, D, E) != (None, None, None):
        raise ParameterError("give a seed state or A, D, E for the default one, not both")
    return _iterate(T, seed, max_rounds, at)


def _iterate(T, seed: IterationState, max_rounds: int, at=None) -> DerivationReport:
    """``iterate`` from a seed; ``at``, when given, is the routine at the
    seed's threshold (``_seed_at``), which may have searched already."""
    with working_precision():
        variant = seed.variant
        A = mpf(seed.A)
        if at is None:
            at = _Admissibility(A, variant)
        seed_report = _check(at, seed)
        if not seed_report:
            raise ParameterError(
                f"seed state not admissible: {'; '.join(seed_report.failures)}"
            )
        eq_kind = "strong" if variant.kind == "strong" else "weak"
        rounds = []
        prev_b = None
        converged = False
        for round_no in range(max_rounds):
            if round_no:
                at = _Admissibility(A, variant)
            if at.best is None:
                break
            b_exact, D, E = at.best
            b_rounded = round_up_sig(b_exact, 3)
            if prev_b is not None and b_rounded >= prev_b:
                converged = True
                break
            x_max = solve_x_max(ThresholdEquation(eq_kind, float(b_rounded), T))
            if x_max <= A:  # the round's bound holds for A < x <= x_max: no x
                if not rounds:
                    raise ParameterError(f"round 1 covers no x: x_max={float(x_max):.4g} <= A={float(A):.4g}")
                converged = True
                break
            _, e_at_a, c_star = at.shift(D, E)
            C = _display_shift(c_star, at.c_required)
            state = IterationState(float(A), float(b_rounded), float(C), float(D), float(E), variant)
            rounds.append(DerivationRound(state, +b_exact, +b_rounded, +x_max, +e_at_a, +c_star))
            prev_b = b_rounded
            A = x_max
        if not rounds:
            raise ParameterError("no admissible parameters found at the seed threshold")
        return DerivationReport(variant, float(T), tuple(rounds), converged)


def partial_summation_slack(x0: int, a, tables) -> Verdict:
    """Constant-term bookkeeping of the theta -> pi partial summation at x0.

    Needs exact pi*(x0) and theta*(x0) from prime tables.  The step succeeds
    iff the anchor constant is beaten by the credit 2 a sqrt(x0) freed when
    the integral of t^{-1/2}(1 - 2/log t) is extended down from x0: the
    verdict passes when ``slack`` = ``anchor`` - ``credit`` is negative,
    with anchor |pi(x0) - li(x0) - (theta(x0) - x0)/log x0| and credit
    2 a sqrt(x0).
    """
    if tables.limit < x0:
        raise ParameterError(f"prime tables cover only {tables.limit} < {x0}")
    with working_precision():
        x0m = mpf(x0)
        pi_x0 = tables.count("pi", x0)
        theta_x0 = tables.count("theta", x0)
        anchor = abs(pi_x0 - li(x0m) - (theta_x0 - x0m) / mp.log(x0m))
        credit = 2 * mpf(a) * mp.sqrt(x0m)
        slack = anchor - credit
        return Verdict(slack < 0, anchor=+anchor, credit=+credit, slack=+slack)


def table1(T0s: Sequence[float]):
    """Rows (T0, K, x_max) of the strong variant at increasing heights."""
    rows = []
    for T0 in T0s:
        report = iterate(float(T0))
        rows.append((float(T0), report.final_constant, report.x_max))
    return rows


def table2(
    a_values: Sequence[float],
    T: float = DEFAULT_T,
    strong_x_max=None,
):
    """Rows (a, K, x_max) of the weak variant, seeded sequentially.

    Row a_k starts where row a_{k-1} stopped: the weaker constant's bound is
    implied by the stronger one on the already-covered range, so each seed
    threshold is sound.  The first row starts at the strong x_max for T,
    derived here unless the caller already has it (``strong_x_max``).  Each
    row's seed and first round share one routine, and so one search.
    """
    A = iterate(T).x_max if strong_x_max is None else strong_x_max
    rows = []
    for a in sorted(float(v) for v in a_values):
        seed, at = _seed_at(A, BoundVariant("weak", a))
        report = _iterate(T, seed, 8, at)
        rows.append((a, report.final_constant, report.x_max))
        A = report.x_max
    return rows
