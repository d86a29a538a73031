"""Threshold solving, admissibility, the tightening loop, and both tables."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from primebounds import engine, published
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

    def test_monotone_in_constant(self):
        xs = [
            solve_x_max(ThresholdEquation("strong", k, 3e12))
            for k in (9.65, 9.34, 9.08, 9.06)
        ]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_bracket_error_on_absurd_height(self):
        with pytest.raises(BracketError):
            solve_x_max(ThresholdEquation("comparison", 4.92, 1e200))


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

    def test_trace_monotone(self):
        report = iterate(3e12)
        xs = [float(r.x_max) for r in report.rounds]
        assert all(b > a for a, b in zip(xs, xs[1:]))
        for r in report.rounds:
            assert float(r.b_rounded) >= float(r.b_exact)

    def test_default_seed_is_admissible(self):
        seed = default_seed(3e12)
        assert check_admissible(seed).passed


def reference_margin(A, D, E, variant=STRONG, prec=192):
    """C* - requirement from one-shot derive_profile/e_total/shift_requirement
    calls, with the state holding A, D and E as doubles."""
    state = IterationState(float(A), 10.0, 2.0, float(D), float(E), variant)
    with working_precision(prec):
        a = variant.leading_a(prec)
        profile = derive_profile(state, prec=prec)
        return -e_total(A, state, profile, prec=prec) / a - shift_requirement(A, a, prec=prec)


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


@functools.cache
def routine_at(A):
    # one routine per threshold across examples, so memoised D parts are reused
    return engine._Admissibility(A, STRONG, 192)


@pytest.mark.slow
class TestSearch:
    @pytest.mark.parametrize("A", SEARCH_THRESHOLDS)
    def test_pruned_search_matches_unpruned_scan(self, A):
        with working_precision(192):
            got = engine._search_strong(mpf(A), 192)
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

    def test_iterate_evaluation_count(self, monkeypatch):
        # the unpruned search needed 2,378 evaluations for this derivation
        calls = []
        admissible = engine._Admissibility.admissible

        def counted(self, D, E):
            calls.append((D, E))
            return admissible(self, D, E)

        monkeypatch.setattr(engine._Admissibility, "admissible", counted)
        report = iterate(3e12)
        assert float(report.final_constant) == published.STRONG_CONSTANT
        assert 0 < len(calls) <= 1000

    def test_weak_search_below_floor_is_a_parameter_error(self):
        with pytest.raises(ParameterError, match="validity floor"):
            engine._search_weak(mpf("5e25"), 1.0, 192)


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

    def test_single_entry_table(self):
        rows = table1([1e13])
        assert len(rows) == 1
