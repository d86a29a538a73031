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
assembly that depends on x alone, each computed once at the working
precision (and as the nearest doubles, once float64 needs them).  A search over (D, E) at one
threshold builds one of each, and ``derive_profile``, ``e_terms`` and
``e_total`` are the one-shot uses of the same code.  Each formula is written
once and takes its number type as an argument: ``mp`` for the full-precision
values, ``math`` for the engine's float-first admissibility decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

from mpmath import mp, mpf

from .errors import ParameterError
from .hiprec import working_precision
from .verdict import Verdict

__all__ = [
    "PSI_THETA_GAP_A1",
    "PSI_THETA_GAP_A2",
    "PSI_THETA_GAP_MIN_LOG",
    "BoundVariant",
    "IterationState",
    "ErrorProfile",
    "ProfileAt",
    "TermsAt",
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
        if self.kind == "weak" and not (self.a is not None and 0 < self.a < math.inf):
            raise ParameterError("weak variant requires a finite a > 0")

    def leading_a(self) -> mpf:
        with working_precision():
            if self.kind == "strong":
                return 1 / (8 * mp.pi)
            return +mpf(self.a)

    def check_threshold(self, A: float) -> None:
        """Reject a threshold below the floor the variant's lemmas hold from."""
        if not math.isfinite(A):
            raise ParameterError(f"threshold A={A} is not finite")
        floor = 1e25 if self.kind == "strong" else 1e26
        if A < floor:
            raise ParameterError(f"A={A} below the {floor:g} validity floor")


STRONG = BoundVariant("strong")


def check_kernel_shift(D, E) -> None:
    """The kernel parameters of a state: a finite E > 0 and a finite D >= 0."""
    if not (0 < E < math.inf and 0 <= D < math.inf):
        raise ParameterError("requires finite E > 0 and D >= 0")


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
        check_kernel_shift(self.D, self.E)

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

    @property
    def coefficients(self) -> tuple:
        """The six coefficients, in field order."""
        return self.coef1, self.coef2, self.alpha3, self.coef4, self.coef5a, self.coef5b


def round_up_sig(value, sig: int) -> mpf:
    """Round a positive value up at ``sig`` significant figures.

    The result is the correctly-rounded binary value of the decimal
    n * 10^e, not a product of intermediate roundings, so it compares equal
    to the same decimal entered as a literal at the working precision.  It
    is the smallest such value >= ``value``, so rounding it again returns
    it: a decimal whose binary value lies above it rounds to itself, not to
    the next decimal up.
    """
    with working_precision():
        v = mpf(value)
        if v <= 0:
            raise ParameterError("round_up_sig expects a positive value")
        with mp.workprec(mp.prec + 16):
            e = int(mp.floor(mp.log10(v))) - sig + 1
            n = int(mp.ceil(v * 10 ** -e if e < 0 else v / 10 ** e))
        if e < 0:
            below, up = (mpf(k) / 10 ** -e for k in (n - 1, n))
        else:
            below, up = (mpf(k * 10 ** e) for k in (n - 1, n))
        return below if below >= v else up


# significant figures used when reproducing the two printed profiles
PRINTED_FIRST = {"coef1": 2, "coef2": 3, "alpha3": 2, "coef4": 3}
PRINTED_REFINED = {"coef1": 3, "coef2": 4, "alpha3": 4, "coef4": 4}


class _InBothTypes(dict):
    """Named values by number type: ``mp`` holds them as given and ``math``
    the doubles nearest them, made on first use, since a routine built for
    one full-precision evaluation never reads them."""

    def __init__(self, **values):
        super().__init__({mp: SimpleNamespace(**values)})

    def __missing__(self, m):
        values = vars(self[mp])
        doubles = self[m] = SimpleNamespace(**{name: float(v) for name, v in values.items()})
        return doubles


class ProfileAt:
    """The substitution x = A of ``derive_profile``, for any kernel parameters.

    Everything that depends on A alone, and every parsed constant, is
    computed once here at the working precision, and its nearest double
    once when float64 first needs it.  ``_kernel`` and ``_profile`` take the
    number type ``m``: ``mp`` evaluates at the caller's precision,
    bit-identical to a one-shot substitution, and ``math`` evaluates the
    same expressions in float64.
    """

    def __init__(self, A, variant: BoundVariant = STRONG):
        with working_precision():
            self.A = mpf(A)
            self.L = L = mp.log(self.A)
            root = mp.sqrt(self.A)
            self._at = _InBothTypes(
                L=L, half_L=L / 2, eps_num=_eps_numerator(L, variant), root=root, norm=root * L,
                g_scale=mpf("0.16") * (self.A + 1), g_rate=mpf("0.71"), inv_e=1 / mp.e,
                two_pi=2 * mp.pi, sqrt_pi=mp.sqrt(mp.pi),
                coef4_num=mpf("4.0002"), coef5a_num=mpf("2.02"), coef5b=mpf("0.51"),
            )

    def _kernel(self, D, E, m) -> tuple:
        """(c(A), eps(A)) of ``IterationState.c_of``/``eps_of`` for (D, E),
        in number type ``m``."""
        k = self._at[m]
        return k.half_L + D, k.eps_num / (E * k.root)

    def profile(self, D, E) -> ErrorProfile:
        """Exact (unrounded) coefficients of the five error terms, whether
        or not (D, E) meets the lemma preconditions."""
        with working_precision():
            E = mpf(E)
            c, eps = self._kernel(mpf(D), E, mp)
            return ErrorProfile(*self._profile(D, E, c, eps, mp))

    def _profile(self, D, E, c, eps, m) -> tuple:
        """``ErrorProfile.coefficients`` of ``profile`` from (c, eps) =
        ``_kernel(D, E, m)``, unchecked, in number type ``m``.

        With ``math`` a step beyond the float64 range (sinh c overflowing)
        raises OverflowError or ValueError.
        """
        k = self._at[m]
        big_g = k.g_scale / m.sinh(c) * m.exp(k.g_rate * m.sqrt(c * eps)) * m.log(3 * c)
        chain = k.inv_e + m.exp(-(m.sqrt(c) * m.sqrt(c - 2) + c))
        return (
            big_g / k.norm / 2,
            (1 + 11 * c * eps) / k.two_pi * chain / 2,
            E * m.sqrt(1 + 2 * D / k.L) / k.two_pi,
            k.coef4_num / (E * k.sqrt_pi),
            k.coef5a_num / E,
            k.coef5b,
        )


class TermsAt:
    """The assembly of E_1..E_5 and of E(x) at one point x, for any profile.

    Everything that depends on x alone is computed once here at the
    working precision, and its nearest double once when float64 first
    needs it; ``_terms`` and ``_total`` take the number type as
    ``ProfileAt`` does, and at ``mp`` each call is bit-identical to a
    one-shot evaluation.
    """

    def __init__(self, x, variant: BoundVariant = STRONG):
        self._strong = variant.kind == "strong"
        with working_precision():
            self.x = x = mpf(x)
            self.L = L = mp.log(x)
            lL = mp.log(L)
            rx = mp.sqrt(x)
            if self._strong:
                inner_shift = mp.log(lL)
                e3_main = rx / (8 * mp.pi) * L ** 2
                e4_power = L ** mpf("1.5")
                e5_power = L ** mpf("2.5")
            else:
                inner_shift = 2 * lL
                e3_main = variant.leading_a() * rx * L ** 2
                e4_power = L ** 2
                e5_power = L ** mpf("3.5")
            self._at = _InBothTypes(
                L=L, lL=lL, root=rx, norm=rx * L, half_L=L / 2, inner_shift=inner_shift,
                e3_scale=rx / (2 * mp.pi), e3_main=e3_main, e4_power=e4_power,
                e5_power=e5_power, e5_tail=mp.log(mp.log(2 * x ** 2)),
            )

    def terms(self, profile: ErrorProfile, D) -> tuple:
        """(E_1, ..., E_5) at x, unnormalized."""
        with working_precision():
            return self._terms(profile.coefficients, D, mp)

    def total(self, profile: ErrorProfile, D) -> mpf:
        """Normalized aggregate E(x) = sum(E_i) / (sqrt(x) log x)."""
        with working_precision():
            return self._total(profile.coefficients, D, mp)[0]

    def _total(self, coefs: tuple, D, m) -> tuple:
        """(E(x), scale) from ``ErrorProfile.coefficients`` in number type ``m``.

        The scale is the sum of the magnitudes of every summand, each
        normalized like E(x), with E_3 counted as its two pieces (|E_3| +
        2 e3_main bounds them), so the float64 rounding error of E(x) is a
        small multiple of the unit roundoff times scale.
        """
        k = self._at[m]
        terms = self._terms(coefs, D, m)
        return sum(terms) / k.norm, (sum(map(abs, terms)) + 2 * k.e3_main) / k.norm

    def _terms(self, coefs: tuple, D, m) -> tuple:
        k = self._at[m]
        coef1, coef2, alpha3, coef4, coef5a, coef5b = coefs
        L, lL, rx = k.L, k.lL, k.root
        e1 = coef1 * rx * L * lL
        e2 = coef2 * rx * L
        e5_tail = coef5b * L * k.e5_tail
        if self._strong:
            inner = k.half_L + m.log(alpha3) - lL - k.inner_shift
            e3 = k.e3_scale * inner ** 2 - k.e3_main
            e4 = coef4 * rx * k.e4_power * lL / m.sqrt(L + 2 * D)
            e5 = coef5a * k.e5_power * lL + e5_tail + 2
        else:
            inner = k.half_L + m.log(alpha3) - k.inner_shift
            e3 = k.e3_scale * inner ** 2 - k.e3_main
            e4 = coef4 * rx * k.e4_power
            e5 = coef5a * k.e5_power + e5_tail + 2
        return e1, e2, e3, e4, e5


def derive_profile(state: IterationState, rounding: Optional[dict] = None) -> ErrorProfile:
    """Derive the error-term coefficients for a state by substitution at x = A.

    With ``rounding=None`` the exact substitution values are returned; passing
    ``PRINTED_FIRST`` or ``PRINTED_REFINED`` rounds each coefficient up at the
    printed precision (and attaches the exact profile as ``.exact``).
    Refuses a state whose kernel at A breaks the lemma preconditions,
    c >= 3 and eps <= 1e-3.
    """
    at = ProfileAt(state.A, state.variant)
    with working_precision():
        c, eps = at._kernel(mpf(state.D), mpf(state.E), mp)
        if c < 3 or eps > mpf("1e-3"):
            raise ParameterError(
                f"lemma preconditions need c >= 3 and eps <= 1e-3 at A (c={float(c):.3f}, eps={float(eps):.3g})"
            )
    exact = at.profile(state.D, state.E)
    if rounding is None:
        return exact
    with working_precision():
        return ErrorProfile(
            round_up_sig(exact.coef1, rounding["coef1"]),
            round_up_sig(exact.coef2, rounding["coef2"]),
            round_up_sig(exact.alpha3, rounding["alpha3"]),
            round_up_sig(exact.coef4, rounding["coef4"]),
            exact.coef5a,
            exact.coef5b,
            exact=exact,
        )


def _terms_at(x, state: IterationState) -> TermsAt:
    at = TermsAt(x, state.variant)
    with working_precision():
        if not at.x > mpf(state.A) * (1 - mpf("1e-12")):
            raise ParameterError(f"x={float(at.x):.4g} is below the state's threshold A")
    return at


def e_terms(x, state: IterationState, profile: ErrorProfile):
    """Evaluate (E_1, ..., E_5) at x > A, unnormalized."""
    return _terms_at(x, state).terms(profile, state.D)


def e_total(x, state: IterationState, profile: ErrorProfile) -> mpf:
    """Normalized aggregate E(x) = sum(E_i) / (sqrt(x) log x)."""
    return _terms_at(x, state).total(profile, state.D)


def verify_decreasing(f: Callable, x_lo, x_hi, grid_points: int = 256) -> Verdict:
    """Check that f is strictly decreasing on a log-spaced grid in [x_lo, x_hi].

    Asserts both strictly decreasing consecutive values and a negative
    centered finite-difference derivative in y = log x at every interior
    node.  Numerical-grade evidence, not a symbolic proof.
    """
    if grid_points < 64:
        raise ParameterError("verify_decreasing needs at least 64 grid points")
    with working_precision():
        y_lo, y_hi = mp.log(mpf(x_lo)), mp.log(mpf(x_hi))
        if not y_lo < y_hi:
            raise ParameterError("requires x_lo < x_hi")
        ys = [y_lo + (y_hi - y_lo) * k / (grid_points - 1) for k in range(grid_points)]
        xs = [mp.exp(y) for y in ys]
        vals = [mpf(f(x)) for x in xs]
        for k in range(1, grid_points):
            if not vals[k] < vals[k - 1]:
                return Verdict(False, first_failure=float(xs[k]),
                               detail=f"not strictly decreasing at node {k}")
        for k in range(1, grid_points - 1):
            slope = (vals[k + 1] - vals[k - 1]) / (ys[k + 1] - ys[k - 1])
            if not slope < 0:
                return Verdict(False, first_failure=float(xs[k]),
                               detail=f"nonnegative centered slope at node {k}")
        return Verdict(True, first_failure=None, detail="")


def shift_requirement(x, a) -> mpf:
    """Smallest shift C for which the psi->theta transfer works at x.

    The transfer needs psi(x) - theta(x) <= (C - 2) a sqrt(x) log x, i.e.
    C >= 2 + (a1 + a2 x^(-1/6)) / (a log x); the right side is decreasing in
    x, so its value at the threshold A dominates the whole range.
    """
    with working_precision():
        x = mpf(x)
        if mp.log(x) < PSI_THETA_GAP_MIN_LOG:
            raise ParameterError("psi-theta constants are valid only for x >= e^50")
        a1 = mpf(PSI_THETA_GAP_A1)
        a2 = mpf(PSI_THETA_GAP_A2)
        return +(2 + (a1 + a2 * x ** (mpf(-1) / 6)) / (mpf(a) * mp.log(x)))


def psi_theta_margin(x, C, a) -> Verdict:
    """Check a1 sqrt(x) + a2 x^(1/3) <= (C - 2) a sqrt(x) log x at x."""
    with working_precision():
        x = mpf(x)
        if mp.log(x) < PSI_THETA_GAP_MIN_LOG:
            raise ParameterError("psi-theta constants are valid only for x >= e^50")
        lhs = mpf(PSI_THETA_GAP_A1) * mp.sqrt(x) + mpf(PSI_THETA_GAP_A2) * x ** (mpf(1) / 3)
        rhs = (mpf(C) - 2) * mpf(a) * mp.sqrt(x) * mp.log(x)
        if lhs <= rhs:
            return Verdict(True, first_failure=None, detail=f"margin {mp.nstr(rhs - lhs, 6)}")
        return Verdict(False, first_failure=float(x),
                       detail=f"transfer short by {mp.nstr(lhs - rhs, 6)}")
