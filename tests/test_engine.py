"""Threshold solving, admissibility, the tightening loop, and both tables."""

import contextlib
import functools
import math
import random
import re
from dataclasses import replace

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from primebounds import engine, published
from primebounds.cli import EXIT_PASS, cli
from primebounds.engine import (
    BracketError,
    ThresholdEquation,
    admissible_B,
    check_admissible,
    default_seed,
    iterate,
    partial_summation_slack,
    solve_x_max,
    table1,
    table2,
)
from primebounds.error_terms import (
    STRONG,
    BoundVariant,
    IterationState,
    ParameterError,
    derive_profile,
    e_terms,
    e_total,
    shift_requirement,
)
from primebounds.hiprec import working_precision
from primebounds.kernel import (
    KernelParams,
    psi_smoothing_bound,
    tail_bound_high,
    tail_bound_mid,
    zero_sum_bound,
)

from .oracles import (
    admissible_mpf,
    below_best_mpf,
    margin64,
    search_strong_pruned,
    solve_x_max_mpf,
)


def sig3(x):
    """Round to 3 significant figures for threshold comparisons."""
    from mpmath import mp as _mp

    with _mp.workprec(60):
        return float(_mp.nstr(mpf(x), 3, strip_zeros=False))


STRONG_STATES = [IterationState(*t) for t in published.STRONG_ITERATION_STATES]
WEAK_STATES = [
    IterationState(*t, variant=BoundVariant("weak", 1.0))
    for t in published.WEAK_ITERATION_STATES
]


def drawn_roots(test):
    """Hypothesis over the variant, K and a drawn root, as (variant, log_k,
    log_root), with examples: roots below 30, in the expanded bracket's low
    and high parts, on the default bracket's ends, and above 1e300."""
    for variant, log_k, log_root in [
        ("comparison", 0.0, 1.2),
        ("strong", 0.0, 3.0),
        ("weak", -7.0, 5.0),
        ("strong", 1.0, 60.0),
        ("weak", -3.0, 200.0),
        ("comparison", 0.5, 300.0),
        ("strong", 0.9, 320.0),
    ]:
        test = example(variant=variant, log_k=log_k, log_root=log_root)(test)
    return settings(max_examples=40, deadline=None)(given(
        variant=st.sampled_from(["strong", "weak", "comparison"]),
        log_k=st.floats(-7, math.log10(20)),
        log_root=st.floats(1, 340),
    )(test))


def equation_at_root(variant, log_k, log_root):
    # the equation whose T is LHS at the root 10^log_root, to 192 bits
    K = 10.0 ** log_k
    with working_precision(192):
        T = float(ThresholdEquation(variant, K).lhs(mpf(10) ** log_root))
    return ThresholdEquation(variant, K, T)


class TestSolveXMax:
    def test_comparison_bound_reach(self):
        x = solve_x_max(ThresholdEquation("comparison", published.COMPARISON_K, 3e12))
        assert sig3(x) == sig3(published.COMPARISON_X_MAX)

    def test_strong_bound_reach(self):
        x = solve_x_max(ThresholdEquation("strong", published.STRONG_CONSTANT, 3e12))
        assert sig3(x) == sig3(published.STRONG_X_MAX)

    def test_first_iteration_reach(self):
        x = solve_x_max(ThresholdEquation("strong", 9.65, 3e12))
        assert sig3(x) == sig3(9.68e25)

    def test_round_trip(self):
        for eq in (
            ThresholdEquation("comparison", 4.92, 3e12),
            ThresholdEquation("strong", 9.06, 3e12),
            ThresholdEquation("weak", 1.19, 3e12),
            ThresholdEquation("weak", 1.16e-7, 3e12),
        ):
            x = solve_x_max(eq)
            assert abs(eq.lhs(x) - mpf(eq.T)) / mpf(eq.T) < mpf("1e-10")

    def test_lhs_exact_outside_any_scope(self):
        # mpmath's ambient precision is 53 bits outside a scope; LHS is
        # still evaluated at the 192-bit working precision
        eq = ThresholdEquation("strong", 9.06)
        got = eq.lhs(1e26)
        with working_precision(192):
            assert got == eq.lhs(1e26)
            exact = mpf("2861438163986.50877502241971472963419710014214434471589402")
            assert abs(got - exact) < mpf("1e-40")

    def test_monotone_in_constant(self):
        xs = [
            solve_x_max(ThresholdEquation("strong", k, 3e12))
            for k in (9.65, 9.34, 9.08, 9.06)
        ]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_bracket_error_on_absurd_height(self):
        with pytest.raises(BracketError):
            solve_x_max(ThresholdEquation("comparison", 4.92, 1e200))

    @drawn_roots
    def test_root_is_the_full_precision_bisection(self, variant, log_k, log_root):
        # T = LHS at a drawn root, so every bracket case is reached
        K = 10.0 ** log_k
        with working_precision(192):
            T = float(ThresholdEquation(variant, K).lhs(mpf(10) ** log_root))
        eq = ThresholdEquation(variant, K, T)
        for prec in (192, 256):
            try:
                want = solve_x_max_mpf(eq, prec)._mpf_
            except BracketError as exc:
                with pytest.raises(BracketError, match=re.escape(str(exc))), working_precision(prec):
                    solve_x_max(eq)
            else:
                with working_precision(prec):
                    assert solve_x_max(eq)._mpf_ == want

    @pytest.mark.parametrize(
        "name, value",
        [("_SECANT_GUARD", math.inf), ("_X_MAX_GUARD", 1e-3)],
        ids=["no-secant-kept", "band-widened"],
    )
    @drawn_roots
    def test_root_with_the_secant_off_or_stretched(self, name, value, variant, log_k, log_root):
        # no secant value kept: every test in the band goes to lhs; the band
        # widened to 1e-3 T: the secant serves far more tests, and its span
        # check must turn away those whose points lie far apart
        eq = equation_at_root(variant, log_k, log_root)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, name, value)
            for prec in (192, 256):
                try:
                    want = solve_x_max_mpf(eq, prec)._mpf_
                except BracketError as exc:
                    with pytest.raises(BracketError, match=re.escape(str(exc))), \
                            working_precision(prec):
                        solve_x_max(eq)
                else:
                    with working_precision(prec):
                        assert solve_x_max(eq)._mpf_ == want

    @pytest.mark.parametrize("band", [1e-12, 1e-3])
    def test_secant_values_are_inside_the_error_bound(self, monkeypatch, band):
        # the bound of solve_x_max's docstring on each secant value kept:
        # 1.52 SPAN^2 T for the curvature, 20u (|f_1| + |f_2|) + 1.01u |s|
        # for the float64 rounding; the secant band is 60 times the first
        u = 2.0 ** -53
        kept = []
        secant = engine._secant

        def recorded(known, x, x64, T64):
            s = secant(known, x, x64, T64)
            if s is not None:
                kept.append((known, x, s))
            return s

        monkeypatch.setattr(engine, "_secant", recorded)
        monkeypatch.setattr(engine, "_X_MAX_GUARD", band)
        rng = random.Random(1)
        worst, n_kept = 0.0, 0
        for _ in range(300):
            eq = equation_at_root(rng.choice(["strong", "weak", "comparison"]),
                                  rng.uniform(-7, math.log10(20)), rng.uniform(1.5, 300))
            kept.clear()
            with working_precision(192):
                solve_x_max(eq)
                for known, x, s in kept:
                    f = eq.lhs(mp.make_mpf(x)) - mpf(eq.T)
                    bound = (1.52 * engine._SECANT_SPAN ** 2 * eq.T
                             + 20 * u * (abs(known[0][1]) + abs(known[1][1])) + 1.01 * u * abs(s))
                    worst = max(worst, float(abs(s - f)) / bound)
            n_kept += len(kept)
        assert n_kept > 1000
        assert worst <= 1
        assert engine._SECANT_GUARD >= 60 * 1.52 * engine._SECANT_SPAN ** 2

    def test_float_lhs_is_inside_the_error_bound(self):
        # the bound of solve_x_max's docstring: 10 u of LHS, plus u for the
        # difference with T; the band is at least 100 times that
        u = 2.0 ** -53
        rng = random.Random(0)
        worst = 0.0
        with working_precision(192):
            for _ in range(3000):
                eq = ThresholdEquation(rng.choice(["strong", "weak", "comparison"]),
                                       10.0 ** rng.uniform(-7, math.log10(20)))
                x = mpf(10) ** rng.uniform(1.5, 300)
                ref = eq.lhs(x)
                worst = max(worst, float(abs(eq._lhs(float(x), math) - ref) / ref) / u)
        assert worst <= 10
        assert engine._X_MAX_GUARD >= 100 * 11 * u

    def test_full_precision_tests_in_the_constants_commands(self, monkeypatch):
        # the parent's all-192-bit bisection made 1,484 of these in 28 calls
        counts = {"lhs": 0, "solve": 0}
        lhs, solve = ThresholdEquation.lhs, engine.solve_x_max

        def counted_lhs(self, x):
            counts["lhs"] += 1
            return lhs(self, x)

        def counted_solve(*args, **kwargs):
            counts["solve"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(ThresholdEquation, "lhs", counted_lhs)
        monkeypatch.setattr(engine, "solve_x_max", counted_solve)
        for args in CONSTANTS_COMMANDS:
            derive_cli(args)
        # 28 calls and 199 tests before round_up_sig was idempotent: the weak
        # a = 100 row's first round then took B = 0.0116 up to 0.0117; 192
        # tests in 27 calls before the secant decided the band's later tests
        assert counts == {"lhs": 54, "solve": 27}
        assert counts["lhs"] <= 2 * counts["solve"]


class TestAdmissibleB:
    @pytest.mark.parametrize(
        "A,D,E,expected",
        [
            (2.169e25, 6.0, 16.0, 9.65),
            (1.096e26, 2.34, 16.8, 9.06),
        ],
    )
    def test_strong_examples(self, A, D, E, expected):
        state = IterationState(A, expected, 2.42, D, E)
        assert float(admissible_B(state)) == expected

    def test_weak_examples(self):
        s = IterationState(2.128e30, 1.19, 2.015, 0.0, 2.38, BoundVariant("weak", 1.0))
        assert float(admissible_B(s)) == 1.19
        s2 = IterationState(1.101e26, 1.2, 2.017, 0.0, 2.4, BoundVariant("weak", 1.0))
        assert float(admissible_B(s2)) == 1.2


class TestCheckAdmissible:
    @pytest.mark.parametrize("state", STRONG_STATES, ids=["s1", "s2", "s3", "s4"])
    def test_published_strong_states_pass(self, state):
        report = check_admissible(state)
        assert report.passed, report.failures
        assert report.c_star > report.c_required

    def test_final_state_shift_is_a_display_rounding(self):
        # the fourth tuple's printed shift 2.42 sits a few 1e-4 above the
        # exact largest admissible shift; strict mode records that honestly
        report = check_admissible(STRONG_STATES[3])
        assert not report.declared_c_exact
        assert mpf(STRONG_STATES[3].C) - report.c_star < mpf("0.001")
        strict = check_admissible(STRONG_STATES[3], strict=True)
        assert not strict.passed

    def test_first_three_states_pass_strict(self):
        for state in STRONG_STATES[:3]:
            assert check_admissible(state, strict=True).passed

    def test_every_derived_round_passes_strict(self, monkeypatch):
        # where C* - requirement is too narrow for a multiple of 0.005 the
        # stored C is the largest double <= C*, never float(C*) rounded up
        # (both rounds at 3e12, 1e14's second, 1e15's first and weak a = 10's
        # first once stored C a few 1e-16 above C*)
        reports = [iterate(T) for T in (3e12, 1e13, 1e14, 1e15)]
        run = engine._iterate
        monkeypatch.setattr(engine, "_iterate", lambda *args: reports.append(run(*args)) or reports[-1])
        table2([r[0] for r in published.TABLE2], strong_x_max=reports[0].x_max)
        rounds = [rnd for report in reports for rnd in report.rounds]
        assert len(rounds) == 17
        for rnd in rounds:
            verdict = check_admissible(rnd.state, strict=True)
            assert verdict.passed and verdict.declared_c_exact, (rnd.state, verdict.failures)

    def test_a_narrow_window_takes_the_largest_double_below_c_star(self):
        # no multiple of 0.005 lies in either window; the second holds no double
        with working_precision(192):
            c_req = mpf("2.4321")
            c_star = c_req + mpf("1e-15")
            c = engine._display_shift(c_star, c_req)
            assert c_req <= c <= c_star < math.nextafter(c, math.inf)
            with pytest.raises(ParameterError):
                engine._display_shift(c_req + mpf(2) ** -70, c_req)

    def test_overclaimed_shift_fails(self):
        state = IterationState(2.169e25, 9.65, 2.60, 6.0, 16.0)
        report = check_admissible(state)
        assert not report.passed

    @pytest.mark.parametrize("state", WEAK_STATES, ids=["w1", "w2"])
    def test_published_weak_states_pass(self, state):
        report = check_admissible(state)
        assert report.passed, report.failures


class TestConsistency:
    """Each bound piece stays below its derived term along the rolling
    parameterization (the containments the substitution at A relies on)."""

    def _params(self, state, x):
        # mpf-valued params: float quantization here would inject 1e-17
        # noise into containments that are exact equalities at x = A
        return KernelParams(state.c_of(x), state.eps_of(x))

    def test_pieces_dominated_on_grid(self):
        state = STRONG_STATES[0]
        profile = derive_profile(state)
        with working_precision(192):
            A = mpf(state.A)
            for k in range(17):
                x = A * mpf(10) ** (k / mpf(4))
                params = self._params(state, x)
                c, eps = mpf(params.c), mpf(params.eps)
                rx, L = mp.sqrt(x), mp.log(x)
                terms = e_terms(x, state, profile)
                # high tail against its derivation normalization sqrt(x) log^2 x
                assert tail_bound_high(x, params) <= profile.coef1 * rx * L ** 2
                # mid band piece against E_2
                a_frac = float(mp.sqrt(2 / c))
                assert tail_bound_mid(x, a_frac, params) <= terms[1]
                # low band piece against the main term + E_3 (equality at
                # x = A exactly, so allow a working-precision ulp)
                low = rx * zero_sum_bound(mp.sqrt(2 * c) / eps)
                high_side = rx / (8 * mp.pi) * L ** 2 + terms[2]
                assert low <= high_side * (1 + mpf(2) ** -150)
                # smoothing piece against E_4 + E_5
                assert psi_smoothing_bound(x, params) <= terms[3] + terms[4]

    def test_printed_high_tail_term_understates_lemma_value(self):
        # documented discrepancy: the assembled E_1 multiplies
        # log x loglog x, understating the lemma bound by ~log x/(2 loglog x)
        state = STRONG_STATES[0]
        profile = derive_profile(state)
        with working_precision(192):
            A = mpf(state.A)
            params = self._params(state, A)
            e1 = e_terms(A, state, profile)[0]
            lemma = tail_bound_high(A, params)
            factor = lemma / e1
            # exact identity: lemma/e1 = 2 log(c/eps) / loglog A at x = A
            expected = 2 * mp.log(mpf(params.c) / mpf(params.eps)) / mp.log(mp.log(A))
        assert abs(factor - expected) / expected < mpf("1e-30")
        assert factor > 10  # an order of magnitude, not a rounding nit


class TestIterate:
    def test_strong_default_reaches_published_constant(self):
        report = iterate(3e12)
        assert float(report.final_constant) <= published.STRONG_CONSTANT
        assert float(report.x_max) >= 1.095e26
        assert len(report.rounds) <= 4

    def test_weak_a1_reaches_published_constant(self):
        report = iterate(3e12, variant=BoundVariant("weak", 1.0))
        assert float(report.final_constant) <= 1.19
        assert float(report.x_max) >= 0.995 * 2.165e30

    def test_non_admissible_seed_aborts(self):
        bad = IterationState(2.169e25, 9.65, 2.60, 6.0, 16.0)
        with pytest.raises(ParameterError):
            iterate(3e12, seed=bad)

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_fewer_than_one_round_rejected(self, rounds):
        with pytest.raises(ParameterError, match="max_rounds"):
            iterate(3e12, max_rounds=rounds)

    def test_trace_monotone(self):
        report = iterate(3e12)
        xs = [float(r.x_max) for r in report.rounds]
        assert all(b > a for a, b in zip(xs, xs[1:]))
        for r in report.rounds:
            assert float(r.b_rounded) >= float(r.b_exact)

    def test_seed_and_default_seed_overrides_are_exclusive(self):
        with pytest.raises(ParameterError, match="not both"):
            iterate(3e12, seed=default_seed(3e12), A=1.5e25)

    def test_default_seed_is_admissible(self):
        seed = default_seed(3e12)
        assert check_admissible(seed).passed

    def test_first_round_covering_no_x_is_an_error(self):
        # from A = 1e27 the first round's constant 8.95 reaches only
        # x_max = 1.13e26 < A, so its bound would hold for no x
        seed = replace(default_seed(3e12), A=1e27)
        with pytest.raises(ParameterError, match=r"x_max=1\.13e\+26 .*A=1e\+27"):
            iterate(3e12, seed=seed)

    def test_table2_takes_the_strong_x_max_from_its_caller(self):
        strong = iterate(3e12).x_max
        assert table2([1.0, 10.0], strong_x_max=strong) == table2([1.0, 10.0])


def reference_margin(A, D, E, variant=STRONG, prec=192):
    """C* - requirement from one-shot derive_profile/e_total/shift_requirement
    calls, with the state holding A, D and E as doubles."""
    state = IterationState(float(A), 10.0, 2.0, float(D), float(E), variant)
    with working_precision(prec):
        a = variant.leading_a()
        profile = derive_profile(state)
        return -e_total(A, state, profile) / a - shift_requirement(A, a)


def reference_search_strong(A, prec=192):
    """The unpruned strong search: every E bisected over the whole D grid,
    each admissibility decided from scratch."""
    best = None

    def ok(D, E):
        state = IterationState(float(A), 10.0, 2.0, float(D), float(E))
        with working_precision(prec):
            c, eps = state.c_of(A), state.eps_of(A)
            if c < 3 or eps > mpf("1e-4") or mp.sqrt(2 * c) / eps < 1000:
                return False
            return reference_margin(A, D, E, prec=prec) > 0

    def consider(e_num, e_denom, d_denom):
        nonlocal best
        E = mpf(e_num) / e_denom
        if not (10 <= E <= 20):
            return
        lo, hi = 0, 8 * d_denom
        if not ok(mpf(hi) / d_denom, E):
            return
        if ok(mpf(0), E):
            hi = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if ok(mpf(mid) / d_denom, E):
                hi = mid
            else:
                lo = mid
        D = mpf(hi) / d_denom
        b = E / 2 + D * E / mp.log(A)
        if best is None or b < best[0]:
            best = (b, D, E)

    with working_precision(prec):
        for i in range(100, 201):
            consider(i, 10, 50)
        centre = int(round(float(best[2]) * 50))
        for k in range(-6, 7):
            consider(centre + k, 50, 50)
        centre = int(round(float(best[2]) * 200))
        for k in range(-4, 5):
            consider(centre + k, 200, 200)
    return best


# the published strong thresholds and the reach of two Table 1 rows
SEARCH_THRESHOLDS = [s.A for s in STRONG_STATES] + [published.TABLE1[0][2], published.TABLE1[-1][2]]


def mpf_bits(best):
    """The raw mpf values of a search result (B, D, E), or None."""
    return None if best is None else tuple(v._mpf_ for v in best)


@contextlib.contextmanager
def searches_checked_against_reference():
    """Check every strong search run inside against ``search_strong_pruned``
    on the same routine, bit for bit; yields the thresholds searched."""
    searched = []
    search = engine._search_strong

    def checked(at):
        got = search(at)
        assert mpf_bits(got) == mpf_bits(search_strong_pruned(at)), float(at._terms.x)
        searched.append(float(at._terms.x))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_search_strong", checked)
        yield searched


@functools.cache
def routine_at(A):
    # one routine per threshold across examples, so memoised D parts are reused
    return engine._Admissibility(A, STRONG)


@pytest.mark.slow
class TestSearch:
    @pytest.mark.parametrize("A", SEARCH_THRESHOLDS)
    def test_pruned_search_matches_unpruned_scan(self, A):
        with working_precision(192):
            got = engine._Admissibility(mpf(A), STRONG).best
            want = reference_search_strong(mpf(A))
        assert got == want

    @settings(max_examples=60, deadline=None)
    @given(
        A=st.sampled_from(SEARCH_THRESHOLDS),
        d_num=st.integers(0, 400),
        e_num=st.integers(100, 200),
    )
    def test_routine_margin_matches_check_admissible(self, A, d_num, e_num):
        at = routine_at(A)
        with working_precision(192):
            D, E = mpf(d_num) / 50, mpf(e_num) / 10
            margin = at.margin(D, E)
            report = check_admissible(IterationState(A, 10.0, 2.0, float(D), float(E)))
            tol = mpf(2) ** -150 * report.c_required
            assert abs(margin - (report.c_star - report.c_required)) <= tol
            assert abs(margin - reference_margin(A, D, E)) <= tol
            assert at.admissible(D, E) == (margin > 0)

    def test_search_matches_the_pruned_bisection(self):
        # every threshold the CLI derivations and both tables search
        with searches_checked_against_reference() as searched:
            for args in (["derive", "--T", "3e12"], ["derive", "--T", "1e15"], ["tables", "1", "2"]):
                derive_cli(args)
        assert len(searched) >= 15

    @settings(max_examples=40, deadline=None)
    @given(log_T=st.floats(math.log10(3e12), 16.0))
    def test_search_matches_the_pruned_bisection_at_drawn_heights(self, log_T):
        with searches_checked_against_reference() as searched:
            iterate(10 ** log_T)
        assert searched

    def test_admissibility_is_monotone_in_D(self):
        # the premise of the bisection and of the galloping: at every E the
        # three stages visit, the decided admissibility switches from False
        # to True at most once over the whole D grid
        for A in (SEARCH_THRESHOLDS[0], SEARCH_THRESHOLDS[3], SEARCH_THRESHOLDS[-1]):
            at = engine._Admissibility(A, STRONG)
            visited = []
            search_strong_pruned(at, visited)
            assert len(visited) == 101 + 13 + 9
            for e_num, e_denom, d_denom in visited:
                E = e_num / e_denom
                decided = [at.admissible(n / d_denom, E) for n in range(8 * d_denom + 1)]
                assert decided == sorted(decided), (A, E)

    def test_first_admissible_finds_the_boundary_from_any_guess(self):
        for n_hi in range(12):
            for first in range(n_hi + 2):      # first = n_hi + 1: none admissible
                probes = []

                def ok(n):
                    assert 0 <= n <= n_hi
                    probes.append(n)
                    return n >= first

                want = first if first <= n_hi else None
                for guess in [None, *range(-2, n_hi + 3)]:
                    probes.clear()
                    assert engine._first_admissible(ok, n_hi, guess) == want, (n_hi, first, guess)
                    assert len(probes) == len(set(probes)), (n_hi, first, guess)

    def test_iterate_evaluation_count(self, monkeypatch):
        # the unpruned search needed 2,378 evaluations for this derivation,
        # the pruned one bisecting each D range afresh 780
        calls = []
        admissible = engine._Admissibility.admissible

        def counted(self, D, E):
            calls.append((D, E))
            return admissible(self, D, E)

        monkeypatch.setattr(engine._Admissibility, "admissible", counted)
        report = iterate(3e12)
        assert float(report.final_constant) == published.STRONG_CONSTANT
        assert 0 < len(calls) <= 600

    def test_shift_is_computed_once_per_pair_of_doubles(self, monkeypatch):
        at = engine._Admissibility(2.169e25, STRONG)
        computed = []
        profile = at._profiles.profile

        def counted(D, E):
            computed.append((D, E))
            return profile(D, E)

        monkeypatch.setattr(at._profiles, "profile", counted)
        with working_precision(192):
            first = at.shift(mpf(6), mpf("16.4"))
            assert at.shift(6.0, 16.4) is first
            assert at.margin(6, 16.4) == first[2] - at.c_required
            assert at.shift(6.0, 16.405) is not first
        assert computed == [(6.0, 16.4), (6.0, 16.405)]

    def test_weak_search_below_floor_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="validity floor"):
            engine._Admissibility(mpf("5e25"), BoundVariant("weak", 1.0))


# (threshold, variant, typical E): two strong thresholds of Table 1's
# derivation and the strong x_max as the seed of two weak rows
REPLAY_CASES = [
    (2.169e25, STRONG, 16.0),
    (1.1e26, STRONG, 16.0),
    (1.101e26, BoundVariant("weak", 1.0), 2.0),
    (1.101e26, BoundVariant("weak", 1e7), 2e-7),
]


class TestDecisionReplay:
    @pytest.mark.parametrize("A, variant, e_typical", REPLAY_CASES)
    def test_admissible_replays_preconditions_and_margin(self, A, variant, e_typical):
        at = engine._Admissibility(A, variant)
        with working_precision(192):
            half_log = float(mp.log(A) / 2)
        # c(A) = log(A)/2 + D: D near -log(A)/2 makes c tiny (all three
        # preconditions reachable), the rest spans the searched range
        ds = [-half_log + 1e-3, -half_log + 2, 0.0, 0.5, 1, 2, 4, 6, 8]
        es = [e_typical * f for f in
              (1e-9, 1e-7, 1e-6, 2.5e-6, 1e-4, 1e-2, 0.1, 0.5, 0.75, 1, 1.25, 2, 10, 1e3)]
        seen = set()
        for D in ds:
            for E in es:
                failures = at.preconditions(D, E)
                want = not failures and at.margin(D, E) > 0
                assert at.admissible(D, E) == want, (D, E)
                seen.update(f.split("=")[0].split()[0] for f in failures)
                seen.add(want)
        assert {"c(A)", "eps(A)", "sqrt(2c)/eps", True} <= seen


# derive at two heights and both tables, the commands whose engine counts are pinned
CONSTANTS_COMMANDS = (["derive", "--T", "3e12"], ["derive", "--T", "2.5e14"], ["tables", "1", "2"])


def derive_cli(args):
    res = CliRunner().invoke(cli, args)
    assert res.exit_code == EXIT_PASS, res.output


def record_routines(monkeypatch):
    """Every ``_Admissibility`` built from now on, in order."""
    routines = []
    init = engine._Admissibility.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        routines.append(self)

    monkeypatch.setattr(engine._Admissibility, "__init__", recording)
    return routines


class TestFloatFirstDecisions:
    @pytest.mark.slow
    def test_every_search_decision_matches_the_oracle(self, monkeypatch):
        decisions, b_decisions, mismatches = [], [], []
        admissible, b_below = engine._Admissibility.admissible, engine._b_below

        def checked(self, D, E):
            got = admissible(self, D, E)
            decisions.append(got)
            if got != admissible_mpf(self, D, E):
                mismatches.append(("admissible", float(self._terms.x), float(D), float(E)))
            return got

        def checked_below(*args):
            got = b_below(*args)
            b_decisions.append(got)
            if got != below_best_mpf(*args):
                mismatches.append(("b_below",) + args)
            return got

        monkeypatch.setattr(engine._Admissibility, "admissible", checked)
        monkeypatch.setattr(engine, "_b_below", checked_below)
        strong = iterate(3e12).x_max
        iterate(1e15)
        table2([r[0] for r in published.TABLE2], strong_x_max=strong)
        assert mismatches == []
        assert len(decisions) > 1000 and True in decisions and False in decisions
        assert len(b_decisions) > 500 and True in b_decisions and False in b_decisions

    @pytest.mark.parametrize(
        "derive",
        [
            lambda: iterate(3e12),
            lambda: iterate(3e12, variant=BoundVariant("weak", 1.0)),
            lambda: table2([r[0] for r in published.TABLE2]),
            lambda: derive_cli(["derive", "--seed-A", "1.5e25"]),
        ],
        ids=["strong", "weak", "table2", "cli-seeded"],
    )
    def test_one_routine_per_threshold(self, monkeypatch, derive):
        routines = record_routines(monkeypatch)
        derive()
        keys = [(float(at._terms.x), at.variant) for at in routines]
        assert keys and len(set(keys)) == len(keys)

    def test_probe_doubles_are_the_grid_values(self):
        # the strong search probes D = n / d_denom and E = e_num / e_denom as
        # doubles and tests 10 <= E <= 20 on the integers, building the exact
        # grid values only for the result: each probe decides alike
        for bits in (100, 192, 256):
            with working_precision(bits):
                for d in (10, 50, 200):
                    assert all(float(engine._grid(n, d)) == n / d for n in range(8 * d + 1))
                    for e in range(9 * d, 21 * d + 1):
                        E = engine._grid(e, d)
                        assert (10 * d <= e <= 20 * d) == (10 <= E <= 20), (e, d, bits)
                        if 10 <= E <= 20:
                            assert float(E) == e / d, (e, d, bits)

    def test_float_b_is_inside_the_error_bound(self, monkeypatch):
        # the bound of the module docstring on each test B < best of the
        # strong search: B and best each err by 6u and their difference by u
        # more, 13u of max(1, best) near a tie; far from one, 6u of B + best
        # plus u of the difference
        u = 2.0 ** -53
        errors = []
        b_below = engine._b_below

        def measured(E, D, log_a, best):
            diff64 = engine._b_at(log_a[1], D[0] / D[1], E[0] / E[1]) - best[2]
            with working_precision(192):
                exact = [engine._b_at(log_a[0], mpf(d[0]) / d[1], mpf(e[0]) / e[1])
                         for e, d in ((E, D), best[:2])]
            error = abs(diff64 - float(exact[0] - exact[1]))
            assert error <= 6 * u * float(exact[0] + exact[1]) + u * abs(diff64)
            errors.append(error / max(1.0, best[2]) / u)
            return b_below(E, D, log_a, best)

        monkeypatch.setattr(engine, "_b_below", measured)
        for args in CONSTANTS_COMMANDS:
            derive_cli(args)
        assert len(errors) > 1500
        assert max(errors) <= 13

    def test_grid_values_only_for_results_and_band_fallbacks(self, monkeypatch):
        # the strong search keeps its best as grid integers: two grid values
        # for each result, and four for each test B < best inside the band
        counts = {"grid": 0, "fallback": 0, "result": 0}
        grid, b_below, search = engine._grid, engine._b_below, engine._search_strong

        def counted_grid(n, denom):
            counts["grid"] += 1
            return grid(n, denom)

        def counted_b_below(E, D, log_a, best):
            diff = engine._b_at(log_a[1], D[0] / D[1], E[0] / E[1]) - best[2]
            counts["fallback"] += abs(diff) <= engine._GUARD * max(1.0, best[2])
            return b_below(E, D, log_a, best)

        def counted_search(at):
            best = search(at)
            counts["result"] += best is not None
            return best

        monkeypatch.setattr(engine, "_grid", counted_grid)
        monkeypatch.setattr(engine, "_b_below", counted_b_below)
        monkeypatch.setattr(engine, "_search_strong", counted_search)
        for args in CONSTANTS_COMMANDS:
            derive_cli(args)
        assert counts["grid"] == 2 * counts["result"] + 4 * counts["fallback"]
        # each fallback is an exact tie, where a stage revisits the best's E
        assert counts == {"grid": 120, "fallback": 21, "result": 18}

    def test_no_recheck_at_the_default_height(self, monkeypatch):
        routines = record_routines(monkeypatch)
        iterate(3e12)
        assert routines and sum(at.rechecks for at in routines) == 0

    def test_all_mpf_decisions_give_the_same_reports(self, monkeypatch):
        weak = BoundVariant("weak", 1.0)
        want = [iterate(3e12).to_dict(), iterate(3e12, variant=weak).to_dict()]
        routines = record_routines(monkeypatch)
        calls, b_tests, grid_values, results = [], [], [], []
        admissible, b_below, grid = engine._Admissibility.admissible, engine._b_below, engine._grid
        search = engine._search_strong

        def counted(self, D, E):
            calls.append((D, E))
            return admissible(self, D, E)

        def counted_b_below(*args):
            b_tests.append(args)
            return b_below(*args)

        def counted_grid(n, denom):
            grid_values.append((n, denom))
            return grid(n, denom)

        def counted_search(at):
            best = search(at)
            results.append(best)
            return best

        monkeypatch.setattr(engine._Admissibility, "admissible", counted)
        monkeypatch.setattr(engine, "_b_below", counted_b_below)
        monkeypatch.setattr(engine, "_grid", counted_grid)
        monkeypatch.setattr(engine, "_search_strong", counted_search)
        monkeypatch.setattr(engine, "_GUARD", math.inf)
        got = [iterate(3e12).to_dict(), iterate(3e12, variant=weak).to_dict()]
        assert got == want
        # every decision was re-decided at full precision, each test B < best
        # from the mpf values of its own and the best's grid points, and each
        # search built the grid values of its result
        assert sum(at.rechecks for at in routines) == len(calls) > 900
        assert None not in results
        assert len(grid_values) == 4 * len(b_tests) + 2 * len(results)
        assert len(b_tests) > 500

    @pytest.mark.slow
    def test_float_margins_are_inside_the_error_bound(self, monkeypatch):
        # the bound of the module docstring: 4000 u of max(S/a, 1, requirement)
        errors = []
        admissible = engine._Admissibility.admissible

        def measured(self, D, E):
            rechecks = self.rechecks
            got = admissible(self, D, E)
            if self.rechecks == rechecks:  # decided in float64
                margin, scale = margin64(self, D, E)
                bound = max(scale, 1.0, float(self.c_required))
                errors.append(float(abs(margin - self.margin(D, E))) / bound / 2.0 ** -53)
            return got

        monkeypatch.setattr(engine._Admissibility, "admissible", measured)
        strong = iterate(3e12).x_max
        iterate(3e12, variant=BoundVariant("weak", 1.0))
        table2([r[0] for r in published.TABLE2], strong_x_max=strong)
        assert len(errors) > 1000
        assert max(errors) <= 4000

    def test_each_boundary_is_re_decided(self):
        A, D = 2.169e25, 6.0
        at = engine._Admissibility(A, STRONG)
        with working_precision(192):
            c0, eps1 = (float(v) for v in at._profiles._kernel(mpf(0), mpf(1), mp))
        # E with C* - requirement within 1e-12 of zero, by bisection on doubles
        lo, hi = 10.0, 20.0
        assert (at.margin(D, lo) > 0) != (at.margin(D, hi) > 0)
        for _ in range(60):
            mid = (lo + hi) / 2
            if (at.margin(D, mid) > 0) == (at.margin(D, lo) > 0):
                lo = mid
            else:
                hi = mid
        assert abs(at.margin(D, lo)) < 1e-12
        cases = [(3.0 - c0, 16.0), (D, eps1 / 1e-4), (D, lo), (D, hi)]
        for k, (d, e) in enumerate(cases, start=1):
            assert at.admissible(d, e) == admissible_mpf(at, d, e), (d, e)
            assert at.rechecks == k


class TestSlack:
    def test_anchor_and_credit_at_5000(self, tables_1e6):
        with working_precision(192):
            a = 1 / (8 * mp.pi)
        report = partial_summation_slack(5000, a, tables_1e6)
        assert abs(report.anchor - mpf(str(published.ANCHOR_AT_5000))) < mpf("0.01")
        assert abs(report.credit - mpf(str(published.CREDIT_AT_5000))) < mpf("0.01")
        assert report.slack < 0
        assert report

    def test_weak_floor_anchor(self, tables_1e6):
        # brute-force anchor at the weak variant's floor x0 = 2
        report = partial_summation_slack(2, 1.0, tables_1e6)
        assert report.slack < 0

    def test_insufficient_tables(self, tables_10k):
        with pytest.raises(ParameterError):
            partial_summation_slack(10 ** 6, 1.0, tables_10k)


@pytest.mark.slow
class TestTables:
    def test_table1_dominates_published(self):
        rows = table1([published.T_DEFAULT] + [r[0] for r in published.TABLE1])
        ref = ((published.T_DEFAULT, published.STRONG_CONSTANT, published.STRONG_X_MAX),) + published.TABLE1
        for row, pub in zip(rows, ref):
            assert float(row[1]) <= pub[1] + 1e-12, (row, pub)
            assert float(row[2]) >= 0.995 * pub[2], (row, pub)

    def test_table2_dominates_published_and_scales(self):
        rows = table2([r[0] for r in published.TABLE2])
        for row, pub in zip(rows, published.TABLE2):
            assert float(row[1]) <= pub[1] * (1 + 1e-9), (row, pub)
            assert float(row[2]) >= 0.995 * pub[2], (row, pub)
        # K(10 a) = K(a)/10 asymptotically across the large-a rows
        ks = {row[0]: float(row[1]) for row in rows}
        for a in (1e3, 1e4, 1e5, 1e6):
            assert abs(ks[10 * a] / ks[a] - 0.1) < 0.1 * 0.02

    def test_table2_reuses_each_seed_search(self, monkeypatch):
        a_values = [r[0] for r in published.TABLE2]
        strong = iterate(3e12).x_max
        calls = []
        search_weak = engine._search_weak

        def counted(at):
            calls.append((float(at._terms.x), at.variant.a))
            return search_weak(at)

        monkeypatch.setattr(engine, "_search_weak", counted)
        rows = table2(a_values, strong_x_max=strong)
        # one search per seed and one per later round; the seed's search is
        # the first round's (25 searches when the first round repeated it),
        # and no routine searches twice
        assert len(calls) == 17
        assert len(set(calls)) == len(calls)
        # the same rows as iterating from each seed with the public loop
        want, A = [], strong
        for a in sorted(a_values):
            report = iterate(3e12, seed=engine._seed_at(A, BoundVariant("weak", a))[0])
            want.append((a, report.final_constant, report.x_max))
            A = report.x_max
        assert rows == want

    def test_single_entry_table(self):
        rows = table1([1e13])
        assert len(rows) == 1
