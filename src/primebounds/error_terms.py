"""The five error terms of the smoothed explicit-formula argument.

An iteration state fixes the tuple (A, B, C, D, E): a lower threshold A for
x, the threshold-equation constant B, the shift C in the bound
|psi(x) - x| < a sqrt(x) log x (log x - C), and the kernel parameterization

    c(x) = log(x)/2 + D,
    eps(x) = log^{3/2}(x) loglog(x) / (E sqrt x)      (strong variant)
    eps(x) = log^{5/2}(x) / (E sqrt x)                (weak variant)

``derive_profile`` turns a state into the numeric coefficients of the five
error terms E_1..E_5 by substituting x = A into the decreasing prefactor of
each bound (rounding up at a configurable number of significant figures --
upper bounds must only ever be rounded up).  ``e_total`` assembles the
normalized aggregate E(x) = (E_1 + ... + E_5)/(sqrt x log x), whose value at
A decides admissibility: the shift C is usable iff E(A) < -C a.

Normalization note: coef1 is derived against sqrt(x) log^2(x)/2 -- the high
tail bound divided by sqrt(x) log(x), times the 1/2 absorbing
log(c/eps) <= log(x)/2 -- while the assembled E_1 multiplies
sqrt(x) log(x) loglog(x).  The aggregate therefore understates the lemma-exact
high-tail piece by a factor of order log x / (2 loglog x); the containment
tests in the suite check each piece against its derivation normalization.

Both steps are split by what they depend on.  ``ProfileAt`` holds everything
of the substitution that depends on A alone and ``TermsAt`` everything of the
assembly that depends on x alone, each computed once; the pieces that depend
on D alone are memoised per D for the life of the object.  A search over
(D, E) at one threshold builds one of each, and ``derive_profile``,
``e_terms`` and ``e_total`` are the one-shot uses of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from mpmath import mp, mpf

from .hiprec import get_default_precision, working_precision

__all__ = [
    "PSI_THETA_GAP_A1",
    "PSI_THETA_GAP_A2",
    "PSI_THETA_GAP_MIN_LOG",
    "BoundVariant",
    "IterationState",
    "ErrorProfile",
    "ProfileAt",
    "TermsAt",
    "Verdict",
    "STRONG",
    "PRINTED_FIRST",
    "PRINTED_REFINED",
    "round_up_sig",
    "derive_profile",
    "e_terms",
    "e_total",
    "verify_decreasing",
    "psi_theta_margin",
    "shift_requirement",
]

# psi(x) - theta(x) < a1 sqrt(x) + a2 x^(1/3) for log x >= 50
PSI_THETA_GAP_A1 = "1.0000000193378"
PSI_THETA_GAP_A2 = "1.01718"
PSI_THETA_GAP_MIN_LOG = 50


class ParameterError(ValueError):
    pass


@dataclass(frozen=True)
class BoundVariant:
    """Leading constant of the squared-log bound.

    strong: a = 1/8pi with eps carrying log^{3/2} x loglog x;
    weak:   a given explicitly (1, 10, ..., 1e7) with eps carrying log^{5/2} x.
    """

    kind: str = "strong"
    a: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("strong", "weak"):
            raise ParameterError(f"unknown variant kind {self.kind!r}")
        if self.kind == "weak" and (self.a is None or self.a <= 0):
            raise ParameterError("weak variant requires a > 0")

    def leading_a(self, prec: int | None = None) -> mpf:
        with working_precision(prec):
            if self.kind == "strong":
                return 1 / (8 * mp.pi)
            return +mpf(self.a)

    def check_threshold(self, A: float) -> None:
        """Reject a threshold below the floor the variant's lemmas hold from."""
        floor = 1e25 if self.kind == "strong" else 1e26
        if A < floor:
            raise ParameterError(f"A={A} below the {floor:g} validity floor")


STRONG = BoundVariant("strong")


@dataclass(frozen=True)
class IterationState:
    A: float
    B: float
    C: float
    D: float
    E: float
    variant: BoundVariant = STRONG

    def __post_init__(self):
        self.variant.check_threshold(self.A)
        if self.E <= 0 or self.D < 0:
            raise ParameterError("requires E > 0 and D >= 0")

    def c_of(self, x) -> mpf:
        return mp.log(mpf(x)) / 2 + mpf(self.D)

    def eps_of(self, x) -> mpf:
        x = mpf(x)
        return _eps_numerator(mp.log(x), self.variant) / (mpf(self.E) * mp.sqrt(x))


def _eps_numerator(L, variant: BoundVariant) -> mpf:
    """The x-dependent factor of eps(x) = numerator / (E sqrt x), from L = log x."""
    if variant.kind == "strong":
        return L ** mpf("1.5") * mp.log(L)
    return L ** mpf("2.5")


@dataclass(frozen=True)
class ErrorProfile:
    coef1: mpf
    coef2: mpf
    alpha3: mpf
    coef4: mpf
    coef5a: mpf
    coef5b: mpf
    exact: Optional["ErrorProfile"] = field(default=None, repr=False)

    def __post_init__(self):
        for name in ("coef1", "coef2", "alpha3", "coef4", "coef5a", "coef5b"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"profile coefficient {name} must be positive")


@dataclass(frozen=True)
class Verdict:
    passed: bool
    first_failure: Optional[float] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def round_up_sig(value, sig: int) -> mpf:
    """Round a positive value up at ``sig`` significant figures.

    The result is the correctly-rounded binary value of the decimal
    n * 10^e, not a product of intermediate roundings, so it compares equal
    to the same decimal entered as a literal at the working precision.
    """
    v = mpf(value)
    if v <= 0:
        raise ParameterError("round_up_sig expects a positive value")
    with mp.workprec(mp.prec + 16):
        ex = int(mp.floor(mp.log10(v)))
        e = ex - sig + 1
        if e < 0:
            n = int(mp.ceil(v * (10 ** (-e))))
        else:
            n = int(mp.ceil(v / (10 ** e)))
    if e < 0:
        return mpf(n) / (10 ** (-e))
    return mpf(n * 10 ** e)


# significant figures used when reproducing the two printed profiles
PRINTED_FIRST = {"coef1": 2, "coef2": 3, "alpha3": 2, "coef4": 3}
PRINTED_REFINED = {"coef1": 3, "coef2": 4, "alpha3": 4, "coef4": 4}


class ProfileAt:
    """The substitution x = A of ``derive_profile``, for any kernel parameters.

    Everything that depends on A alone, and every parsed constant, is
    computed once here; the pieces that depend on D alone (sinh c, log 3c,
    the chain term, sqrt(1 + 2D/log A)) are memoised per D value.  Each
    call evaluates the same expressions, in the same order, as a one-shot
    substitution, so every coefficient is bit-identical to it.
    """

    def __init__(self, A, variant: BoundVariant = STRONG, prec: int | None = None):
        self.prec = get_default_precision() if prec is None else int(prec)
        self._by_d = {}
        with working_precision(self.prec):
            self.A = mpf(A)
            self.L = mp.log(self.A)
            self._half_L = self.L / 2
            self._eps_num = _eps_numerator(self.L, variant)
            self._root = mp.sqrt(self.A)
            self._g_scale = mpf("0.16") * (self.A + 1)
            self._norm = self._root * self.L
            self._two_pi = 2 * mp.pi
            self._inv_e = 1 / mp.e
            self._sqrt_pi = mp.sqrt(mp.pi)
            self._eps_max = mpf("1e-3")
            self._g_rate = mpf("0.71")
            self._coef4_num = mpf("4.0002")
            self._coef5a_num = mpf("2.02")
            self._coef5b = mpf("0.51")

    def kernel(self, D, E) -> tuple:
        """(c(A), eps(A)) of ``IterationState.c_of``/``eps_of`` for (D, E)."""
        with working_precision(self.prec):
            return self._kernel(mpf(D), mpf(E))

    def _kernel(self, D: mpf, E: mpf) -> tuple:
        return self._half_L + D, self._eps_num / (E * self._root)

    def _d_parts(self, D, c: mpf) -> tuple:
        parts = self._by_d.get(D)
        if parts is None:
            parts = self._by_d[D] = (
                self._g_scale / mp.sinh(c),
                mp.log(3 * c),
                self._inv_e + mp.exp(-(mp.sqrt(c) * mp.sqrt(c - 2) + c)),
                11 * c,
                mp.sqrt(1 + 2 * mpf(D) / self.L),
            )
        return parts

    def profile(self, D, E) -> ErrorProfile:
        """Exact (unrounded) coefficients of the five error terms."""
        with working_precision(self.prec):
            E = mpf(E)
            c, eps = self._kernel(mpf(D), E)
            if c < 3 or eps > self._eps_max:
                raise ParameterError(
                    f"lemma preconditions need c >= 3 and eps <= 1e-3 at A (c={float(c):.3f}, eps={float(eps):.3g})"
                )
            g_over_sinh, log_3c, chain, c11, alpha_root = self._d_parts(D, c)
            big_g = g_over_sinh * mp.exp(self._g_rate * mp.sqrt(c * eps)) * log_3c
            return ErrorProfile(
                big_g / self._norm / 2,
                (1 + c11 * eps) / self._two_pi * chain / 2,
                E * alpha_root / self._two_pi,
                self._coef4_num / (E * self._sqrt_pi),
                self._coef5a_num / E,
                self._coef5b,
            )


class TermsAt:
    """The assembly of E_1..E_5 and of E(x) at one point x, for any profile.

    Everything that depends on x alone is computed once here, and
    sqrt(log x + 2D) is memoised per D value; each call is bit-identical to
    a one-shot evaluation of the same expressions.
    """

    def __init__(self, x, variant: BoundVariant = STRONG, prec: int | None = None):
        self.prec = get_default_precision() if prec is None else int(prec)
        self._strong = variant.kind == "strong"
        self._by_d = {}
        with working_precision(self.prec):
            self.x = x = mpf(x)
            self.L = L = mp.log(x)
            self._lL = lL = mp.log(L)
            self._root = rx = mp.sqrt(x)
            self._norm = rx * L
            self._half_L = L / 2
            self._e3_scale = rx / (2 * mp.pi)
            self._e5_tail = mp.log(mp.log(2 * x ** 2))
            if self._strong:
                self._inner_shift = mp.log(lL)
                self._e3_main = rx / (8 * mp.pi) * L ** 2
                self._e4_power = L ** mpf("1.5")
                self._e5_power = L ** mpf("2.5")
            else:
                self._inner_shift = 2 * lL
                self._e3_main = variant.leading_a(self.prec) * rx * L ** 2
                self._e4_power = L ** 2
                self._e5_power = L ** mpf("3.5")

    def terms(self, profile: ErrorProfile, D) -> tuple:
        """(E_1, ..., E_5) at x, unnormalized."""
        with working_precision(self.prec):
            return self._terms(profile, D)

    def total(self, profile: ErrorProfile, D) -> mpf:
        """Normalized aggregate E(x) = sum(E_i) / (sqrt(x) log x)."""
        with working_precision(self.prec):
            return sum(self._terms(profile, D)) / self._norm

    def _terms(self, profile: ErrorProfile, D) -> tuple:
        L, lL, rx = self.L, self._lL, self._root
        e1 = profile.coef1 * rx * L * lL
        e2 = profile.coef2 * rx * L
        e5_tail = profile.coef5b * L * self._e5_tail
        if self._strong:
            inner = self._half_L + mp.log(profile.alpha3) - lL - self._inner_shift
            e3 = self._e3_scale * inner ** 2 - self._e3_main
            e4 = profile.coef4 * rx * self._e4_power * lL / self._d_root(D)
            e5 = profile.coef5a * self._e5_power * lL + e5_tail + 2
        else:
            inner = self._half_L + mp.log(profile.alpha3) - self._inner_shift
            e3 = self._e3_scale * inner ** 2 - self._e3_main
            e4 = profile.coef4 * rx * self._e4_power
            e5 = profile.coef5a * self._e5_power + e5_tail + 2
        return e1, e2, e3, e4, e5

    def _d_root(self, D) -> mpf:
        root = self._by_d.get(D)
        if root is None:
            root = self._by_d[D] = mp.sqrt(self.L + 2 * mpf(D))
        return root


def derive_profile(
    state: IterationState,
    rounding: Optional[dict] = None,
    prec: int | None = None,
) -> ErrorProfile:
    """Derive the error-term coefficients for a state by substitution at x = A.

    With ``rounding=None`` the exact substitution values are returned; passing
    ``PRINTED_FIRST`` or ``PRINTED_REFINED`` rounds each coefficient up at the
    printed precision (and attaches the exact profile as ``.exact``).
    """
    prec = get_default_precision() if prec is None else int(prec)
    exact = ProfileAt(state.A, state.variant, prec).profile(state.D, state.E)
    if rounding is None:
        return exact
    with working_precision(prec):
        return ErrorProfile(
            round_up_sig(exact.coef1, rounding["coef1"]),
            round_up_sig(exact.coef2, rounding["coef2"]),
            round_up_sig(exact.alpha3, rounding["alpha3"]),
            round_up_sig(exact.coef4, rounding["coef4"]),
            exact.coef5a,
            exact.coef5b,
            exact=exact,
        )


def _terms_at(x, state: IterationState, prec: int | None) -> TermsAt:
    at = TermsAt(x, state.variant, prec)
    with working_precision(at.prec):
        if not at.x > mpf(state.A) * (1 - mpf("1e-12")):
            raise ParameterError(f"x={float(at.x):.4g} is below the state's threshold A")
    return at


def e_terms(x, state: IterationState, profile: ErrorProfile, prec: int | None = None):
    """Evaluate (E_1, ..., E_5) at x > A, unnormalized."""
    return _terms_at(x, state, prec).terms(profile, state.D)


def e_total(x, state: IterationState, profile: ErrorProfile, prec: int | None = None) -> mpf:
    """Normalized aggregate E(x) = sum(E_i) / (sqrt(x) log x)."""
    return _terms_at(x, state, prec).total(profile, state.D)


def verify_decreasing(
    f: Callable,
    x_lo,
    x_hi,
    grid_points: int = 256,
    prec: int | None = None,
) -> Verdict:
    """Check that f is strictly decreasing on a log-spaced grid in [x_lo, x_hi].

    Asserts both strictly decreasing consecutive values and a negative
    centered finite-difference derivative in y = log x at every interior
    node.  Numerical-grade evidence, not a symbolic proof.
    """
    if grid_points < 64:
        raise ParameterError("verify_decreasing needs at least 64 grid points")
    prec = get_default_precision() if prec is None else int(prec)
    with working_precision(prec):
        y_lo, y_hi = mp.log(mpf(x_lo)), mp.log(mpf(x_hi))
        if not y_lo < y_hi:
            raise ParameterError("requires x_lo < x_hi")
        ys = [y_lo + (y_hi - y_lo) * k / (grid_points - 1) for k in range(grid_points)]
        xs = [mp.exp(y) for y in ys]
        vals = [mpf(f(x)) for x in xs]
        for k in range(1, grid_points):
            if not vals[k] < vals[k - 1]:
                return Verdict(False, float(xs[k]), f"not strictly decreasing at node {k}")
        for k in range(1, grid_points - 1):
            slope = (vals[k + 1] - vals[k - 1]) / (ys[k + 1] - ys[k - 1])
            if not slope < 0:
                return Verdict(False, float(xs[k]), f"nonnegative centered slope at node {k}")
        return Verdict(True)


def shift_requirement(x, a, prec: int | None = None) -> mpf:
    """Smallest shift C for which the psi->theta transfer works at x.

    The transfer needs psi(x) - theta(x) <= (C - 2) a sqrt(x) log x, i.e.
    C >= 2 + (a1 + a2 x^(-1/6)) / (a log x); the right side is decreasing in
    x, so its value at the threshold A dominates the whole range.
    """
    prec = get_default_precision() if prec is None else int(prec)
    with working_precision(prec):
        x = mpf(x)
        if mp.log(x) < PSI_THETA_GAP_MIN_LOG:
            raise ParameterError("psi-theta constants are valid only for x >= e^50")
        a1 = mpf(PSI_THETA_GAP_A1)
        a2 = mpf(PSI_THETA_GAP_A2)
        return +(2 + (a1 + a2 * x ** (mpf(-1) / 6)) / (mpf(a) * mp.log(x)))


def psi_theta_margin(x, C, a, prec: int | None = None) -> Verdict:
    """Check a1 sqrt(x) + a2 x^(1/3) <= (C - 2) a sqrt(x) log x at x."""
    prec = get_default_precision() if prec is None else int(prec)
    with working_precision(prec):
        x = mpf(x)
        if mp.log(x) < PSI_THETA_GAP_MIN_LOG:
            raise ParameterError("psi-theta constants are valid only for x >= e^50")
        lhs = mpf(PSI_THETA_GAP_A1) * mp.sqrt(x) + mpf(PSI_THETA_GAP_A2) * x ** (mpf(1) / 3)
        rhs = (mpf(C) - 2) * mpf(a) * mp.sqrt(x) * mp.log(x)
        if lhs <= rhs:
            return Verdict(True, detail=f"margin {mp.nstr(rhs - lhs, 6)}")
        return Verdict(False, float(x), f"transfer short by {mp.nstr(lhs - rhs, 6)}")
