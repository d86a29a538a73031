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

Every admissibility decision at a threshold goes through one
``_Admissibility`` routine built for that A: log A, sqrt A, the
normalizers, the shift requirement and the parsed constants are computed
once, and the pieces that depend on D alone are memoised per grid D for the
life of one search (see ``error_terms.ProfileAt`` and ``TermsAt``).  The
strong search also prunes: once a best B is known, an E whose smallest
admissible D cannot beat it costs one evaluation instead of a bisection.
Both leave every decision, and so every output, bit-identical to evaluating
each (D, E) from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from mpmath import mp, mpf

from .error_terms import (
    BoundVariant,
    ErrorProfile,
    IterationState,
    ParameterError,
    ProfileAt,
    STRONG,
    TermsAt,
    round_up_sig,
    shift_requirement,
)
# unused here, but importable from this module on purpose:
# perfbench/tracing.py installs its spans on these two names
from .error_terms import derive_profile, e_total  # noqa: F401
from .hiprec import get_default_precision, li, working_precision

__all__ = [
    "ThresholdEquation",
    "AdmissibilityReport",
    "DerivationRound",
    "DerivationReport",
    "SlackReport",
    "solve_x_max",
    "admissible_B",
    "check_admissible",
    "default_seed",
    "iterate",
    "partial_summation_slack",
    "table1",
    "table2",
    "COMPARISON_CONSTANT",
]

COMPARISON_CONSTANT = "4.92"  # comparison threshold constant: K sqrt(x/log x) <= T
DEFAULT_T = 3.0e12

# declared shifts are printed to two decimals; accept one ulp of slack
C_DISPLAY_TOL = 0.01

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
        x = mpf(x)
        K = mpf(self.constant)
        L = mp.log(x)
        if self.variant == "strong":
            return K / mp.log(L) * mp.sqrt(x / L)
        if self.variant == "weak":
            return K * mp.sqrt(x / L ** 3)
        return K * mp.sqrt(x / L)


class BracketError(RuntimeError):
    """solve_x_max could not bracket a root even after expansion."""


def solve_x_max(eq: ThresholdEquation, rel_tol: float = 1e-13, prec: int | None = None) -> mpf:
    """Largest x with LHS(x) = T, by geometric bisection.

    The LHS is strictly increasing for x >= e^3, so the root is unique on
    the bracket; the default bracket [1e5, 1e60] covers every table entry
    and is expanded once before giving up.
    """
    prec = get_default_precision() if prec is None else int(prec)
    with working_precision(prec):
        T = mpf(eq.T)
        lo, hi = mpf("1e5"), mpf("1e60")
        if not (eq.lhs(lo) < T <= eq.lhs(hi)):
            lo, hi = mpf("30"), mpf("1e300")
            if not (eq.lhs(lo) < T <= eq.lhs(hi)):
                raise BracketError(
                    f"no sign change for {eq.variant} K={eq.constant} T={eq.T}"
                )
        tol = mpf(rel_tol)
        for _ in range(600):
            mid = mp.sqrt(lo * hi)
            if eq.lhs(mid) < T:
                lo = mid
            else:
                hi = mid
            if hi - lo < tol * lo:
                break
        return +mp.sqrt(lo * hi)


def admissible_B(state: IterationState, prec: int | None = None) -> mpf:
    """Minimal threshold constant implied by the state's kernel parameters.

    c/eps <= (E/2 + D E / log A) / loglog(x) * sqrt(x / log x) for x > A
    (strong; the weak shape drops the loglog), so any B at least
    E/2 + D E / log A makes the threshold inequality imply c/eps <= T.
    Rounded up at three significant figures, matching the published tables.
    """
    prec = get_default_precision() if prec is None else int(prec)
    with working_precision(prec):
        return round_up_sig(_exact_B(state.A, state.D, state.E), 3)


def _exact_B(A, D, E) -> mpf:
    return mpf(E) / 2 + mpf(D) * mpf(E) / mp.log(mpf(A))


class _Admissibility:
    """Admissibility of kernel parameters (D, E) at one threshold A.

    (D, E) is admissible when the lemma preconditions hold at A and the
    largest usable shift C* = -E(A)/a exceeds the psi->theta requirement.
    The profile is substituted at A rounded to a double and D, E are taken
    as doubles, as an ``IterationState`` stores them; E(A) and the
    requirement are evaluated at the full-precision A.
    """

    def __init__(self, A, variant: BoundVariant, prec: int):
        variant.check_threshold(float(A))
        self.prec = prec
        with working_precision(prec):
            self.a = variant.leading_a(prec)
            self._profiles = ProfileAt(float(A), variant, prec)
            self._terms = TermsAt(A, variant, prec)
            self.c_required = shift_requirement(A, self.a, prec=prec)
            self._eps_max = mpf("1e-4")

    def preconditions(self, D, E) -> list:
        """The kernel-lemma preconditions at A that (D, E) violates."""
        failures = []
        with working_precision(self.prec):
            c, eps = self._profiles.kernel(float(D), float(E))
            if c < 3:
                failures.append(f"c(A)={float(c):.3f} < 3")
            if eps > self._eps_max:
                failures.append(f"eps(A)={float(eps):.3g} > 1e-4")
            # outer-band split point: a_frac = sqrt(2/c) needs a_frac*c/eps >= 1e3
            if mp.sqrt(2 * c) / eps < 1000:
                failures.append("sqrt(2c)/eps below 1e3")
        return failures

    def shift(self, D, E):
        """(profile, E(A), C*) for kernel parameters (D, E)."""
        D, E = float(D), float(E)
        with working_precision(self.prec):
            profile = self._profiles.profile(D, E)
            e_at_a = self._terms.total(profile, D)
            return profile, e_at_a, -e_at_a / self.a

    def margin(self, D, E) -> mpf:
        """C* - requirement: positive exactly when the shift is usable."""
        with working_precision(self.prec):
            return self.shift(D, E)[2] - self.c_required

    def admissible(self, D, E) -> bool:
        return not self.preconditions(D, E) and self.margin(D, E) > 0


@dataclass(frozen=True)
class AdmissibilityReport:
    passed: bool
    c_star: mpf            # largest admissible shift, -E(A)/a
    c_required: mpf        # smallest shift the psi->theta transfer allows
    e_at_a: mpf
    profile: ErrorProfile
    declared_c_exact: bool  # declared C <= C* without display tolerance
    failures: tuple = ()

    def __bool__(self) -> bool:
        return self.passed


def check_admissible(
    state: IterationState,
    strict: bool = False,
    prec: int | None = None,
) -> AdmissibilityReport:
    """Decide whether a state supports its claimed bound chain.

    Checks, in order: kernel-lemma preconditions at A; the declared B
    dominating E/2 + D E/log A; existence of a usable shift
    (C* = -E(A)/a above the transfer requirement); and the declared C lying
    in [requirement, C*] -- with one printed ulp of slack on the upper end
    unless ``strict``.
    """
    prec = get_default_precision() if prec is None else int(prec)
    at = _Admissibility(state.A, state.variant, prec)
    failures = at.preconditions(state.D, state.E)
    profile, e_at_a, c_star = at.shift(state.D, state.E)
    c_req = at.c_required
    with working_precision(prec):
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
        if mpf(state.B) < _exact_B(state.A, state.D, state.E) - mpf("5e-3"):
            failures.append("declared B below E/2 + D*E/log A")
        return AdmissibilityReport(
            passed=not failures,
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


def _first_admissible(ok, n_hi: int):
    """Smallest n in [0, n_hi] with ok(n), or None when ok(n_hi) fails.

    ok must be monotone on the grid (False up to some index, True from
    there on); the answer is then found by bisection.
    """
    if not ok(n_hi):
        return None
    lo, hi = -1, n_hi      # ok(hi) holds; lo is the last index known to fail
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _below_best(A, E, best, denom: int, n_hi: int) -> int:
    """Largest grid index n <= n_hi with _exact_B(A, n/denom, E) < best, or -1.

    _exact_B is nondecreasing in n (each rounded operation is monotone), so
    the real-valued estimate is corrected step by step with the exact test.
    """
    estimate = (best - mpf(E) / 2) * mp.log(mpf(A)) / mpf(E) * denom
    n = min(n_hi, max(-1, int(mp.floor(estimate))))
    while n < n_hi and _exact_B(A, _grid(n + 1, denom), E) < best:
        n += 1
    while n >= 0 and not _exact_B(A, _grid(n, denom), E) < best:
        n -= 1
    return n


def _search_strong(A, prec):
    """Minimize exact B over admissible (D, E): coarse scan then two refinements.

    E runs over a 0.1 grid on [10, 20], then 0.02 and 0.005 grids around the
    best so far; for each E the smallest admissible D on the matching grid
    gives B = E/2 + D E/log A, and a strictly smaller B replaces the best.
    E(A) is decreasing in D over [0, 8], so admissibility is monotone in D.

    All decisions go through one ``_Admissibility`` routine for A.  Once a
    best B exists, only D below the largest grid index n_cap whose B is still
    smaller can improve it: one evaluation at n_cap rejects every other E,
    and a bisection on [0, n_cap] finds the D of the rest.  The result is
    the same as bisecting each E over the whole D range.
    """
    at = _Admissibility(A, STRONG, prec)
    best = None

    def consider(e_num, e_denom, d_denom):
        nonlocal best
        E = _grid(e_num, e_denom)
        if not (10 <= E <= 20):
            return
        n_hi = 8 * d_denom
        if best is not None:
            n_hi = _below_best(A, E, best[0], d_denom, n_hi)
            if n_hi < 0:
                return
        n = _first_admissible(lambda n: at.admissible(_grid(n, d_denom), E), n_hi)
        if n is None:
            return
        D = _grid(n, d_denom)
        b = _exact_B(A, D, E)
        if best is None or b < best[0]:
            best = (b, D, E)

    for i in range(100, 201):          # E = 10.0 .. 20.0 step 0.1
        consider(i, 10, 50)
    if best is None:
        return None
    e_center = int(round(float(best[2]) * 50))
    for k in range(-6, 7):             # step 0.02 around the coarse best
        consider(e_center + k, 50, 50)
    e_center = int(round(float(best[2]) * 200))
    for k in range(-4, 5):             # step 0.005, D grid refined alike
        consider(e_center + k, 200, 200)
    return best


def _search_weak(A, a, prec, u_lo_milli=1000, u_hi_milli=6000, step_milli=2):
    """Smallest admissible E for the weak variant (D fixed at 0).

    Parameterized as E = u/a with u on a fixed milli-unit grid: the feasible
    scale of E is inversely proportional to a, so one grid resolves every
    published row at three significant figures.
    """
    at = _Admissibility(A, BoundVariant("weak", float(a)), prec)

    def E_at(n):
        return mpf(u_lo_milli + n * step_milli) / (1000 * mpf(a))

    n = _first_admissible(
        lambda n: at.admissible(0, E_at(n)), (u_hi_milli - u_lo_milli) // step_milli
    )
    return None if n is None else E_at(n)


@dataclass(frozen=True)
class DerivationRound:
    state: IterationState
    b_exact: mpf
    b_rounded: mpf
    x_max: mpf
    e_at_a: mpf
    c_star: mpf
    profile: ErrorProfile = field(repr=False, default=None)

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
    def final_C(self) -> mpf:
        return self.rounds[-1].state.C

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


def default_seed(T: float = DEFAULT_T, variant: BoundVariant = STRONG, prec: int | None = None) -> IterationState:
    """Starting state: threshold from the comparison bound (strong) or from
    the strong result itself (weak), with the reference kernel parameters."""
    prec = get_default_precision() if prec is None else int(prec)
    with working_precision(prec):
        if variant.kind == "strong":
            A = solve_x_max(ThresholdEquation("comparison", float(mpf(COMPARISON_CONSTANT)), T), prec=prec)
            D, E = 6.0, 16.0
        else:
            strong = iterate(T, prec=prec)
            A = strong.x_max
            D, E = 0.0, float(_search_weak(mpf(A), variant.a, prec) or 2.4)
        at = _Admissibility(A, variant, prec)
        C = _display_shift(at.shift(D, E)[2], at.c_required)
        B = round_up_sig(_exact_B(float(A), D, E), 3)
        return IterationState(float(A), float(B), float(C), D, E, variant)


def _display_shift(c_star: mpf, c_req: mpf, step=mpf("0.005")) -> mpf:
    """Largest grid multiple below C*, falling back to C* when the window
    between requirement and C* is narrower than the grid."""
    floored = mp.floor(c_star / step) * step
    return floored if floored >= c_req else +c_star


def iterate(
    T: float = DEFAULT_T,
    seed: Optional[IterationState] = None,
    max_rounds: int = 8,
    variant: BoundVariant = STRONG,
    prec: int | None = None,
) -> DerivationReport:
    """Run the tightening loop; the trace records one row per round.

    Stops when the rounded constant no longer improves (or max_rounds).
    A non-admissible seed aborts immediately.
    """
    prec = get_default_precision() if prec is None else int(prec)
    with working_precision(prec):
        if seed is None:
            seed = default_seed(T, variant, prec=prec)
        variant = seed.variant
        seed_report = check_admissible(seed, prec=prec)
        if not seed_report:
            raise ParameterError(
                f"seed state not admissible: {'; '.join(seed_report.failures)}"
            )
        eq_kind = "strong" if variant.kind == "strong" else "weak"
        A = mpf(seed.A)
        rounds = []
        prev_b = None
        converged = False
        for _ in range(max_rounds):
            if variant.kind == "strong":
                found = _search_strong(A, prec)
                if found is None:
                    break
                b_exact, D, E = found
            else:
                E = _search_weak(A, variant.a, prec)
                if E is None:
                    break
                D = mpf(0)
                b_exact = _exact_B(A, D, E)
            b_rounded = round_up_sig(b_exact, 3)
            if prev_b is not None and b_rounded >= prev_b:
                converged = True
                break
            at = _Admissibility(A, variant, prec)
            profile, e_at_a, c_star = at.shift(D, E)
            C = _display_shift(c_star, at.c_required)
            state = IterationState(float(A), float(b_rounded), float(C), float(D), float(E), variant)
            x_max = solve_x_max(ThresholdEquation(eq_kind, float(b_rounded), T), prec=prec)
            rounds.append(
                DerivationRound(state, +b_exact, +b_rounded, +x_max, +e_at_a, +c_star, profile)
            )
            prev_b = b_rounded
            if x_max <= A:
                converged = True
                break
            A = x_max
        if not rounds:
            raise ParameterError("no admissible parameters found at the seed threshold")
        return DerivationReport(variant, float(T), tuple(rounds), converged)


@dataclass(frozen=True)
class SlackReport:
    anchor: mpf   # |pi(x0) - li(x0) - (theta(x0) - x0)/log x0|
    credit: mpf   # 2 a sqrt(x0), the integral credit available at x0
    slack: mpf    # anchor - credit; negative closes the partial summation

    def __bool__(self) -> bool:
        return self.slack < 0


def partial_summation_slack(x0: int, a, tables, prec: int | None = None) -> SlackReport:
    """Constant-term bookkeeping of the theta -> pi partial summation at x0.

    Needs exact pi*(x0) and theta*(x0) from prime tables.  The step succeeds
    iff the anchor constant is beaten by the credit 2 a sqrt(x0) freed when
    the integral of t^{-1/2}(1 - 2/log t) is extended down from x0.
    """
    prec = get_default_precision() if prec is None else int(prec)
    if tables.limit < x0:
        raise ParameterError(f"prime tables cover only {tables.limit} < {x0}")
    with working_precision(prec):
        x0m = mpf(x0)
        pi_x0 = tables.count("pi", x0)
        theta_x0 = tables.count("theta", x0)
        anchor = abs(pi_x0 - li(x0m, prec=prec) - (theta_x0 - x0m) / mp.log(x0m))
        credit = 2 * mpf(a) * mp.sqrt(x0m)
        return SlackReport(+anchor, +credit, +(anchor - credit))


def table1(T0s: Sequence[float], prec: int | None = None):
    """Rows (T0, K, x_max) of the strong variant at increasing heights."""
    rows = []
    for T0 in T0s:
        report = iterate(float(T0), prec=prec)
        rows.append((float(T0), report.final_constant, report.x_max))
    return rows


def table2(a_values: Sequence[float], T: float = DEFAULT_T, prec: int | None = None):
    """Rows (a, K, x_max) of the weak variant, seeded sequentially.

    Row a_k starts where row a_{k-1} stopped: the weaker constant's bound is
    implied by the stronger one on the already-covered range, so each seed
    threshold is sound.  The first row starts at the strong x_max for T.
    """
    prec = get_default_precision() if prec is None else int(prec)
    a_values = sorted(float(v) for v in a_values)
    strong = iterate(T, prec=prec)
    A = strong.x_max
    rows = []
    with working_precision(prec):
        for a in a_values:
            variant = BoundVariant("weak", a)
            prev_K, prev_xm = None, None
            cur_A = mpf(A)
            for _ in range(8):
                E = _search_weak(cur_A, a, prec)
                if E is None:
                    break
                K = round_up_sig(_exact_B(cur_A, mpf(0), E), 3)
                xm = solve_x_max(ThresholdEquation("weak", float(K), T), prec=prec)
                if prev_K is not None and K >= prev_K:
                    break
                prev_K, prev_xm = K, xm
                cur_A = xm
            if prev_K is None:
                raise ParameterError(f"no admissible weak parameters for a={a}")
            rows.append((a, +prev_K, +prev_xm))
            A = prev_xm
    return rows
