"""Exact tables, normalization conventions and scans."""

import bisect
import gc
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

import primebounds
from primebounds import primes, published
from primebounds.cli import EXIT_PASS, cli
from primebounds.hiprec import li, working_precision
from primebounds.primes import (
    _SIDES,
    FIX_BITS,
    PRIME_COUNT_MAX,
    SCALE,
    InequalitySpec,
    ParameterError,
    _exact_quotients,
    _icbrt,
    _log_fixed,
    _log_sum_reads,
    _recheck,
    _simple_sieve,
    build_tables,
    integer_threshold_consistent,
    prime_counts,
    psi_theta_gap,
    scan_inequalities,
    scan_inequality,
    segmented_prime_count,
    threshold_consistent,
)

from .oracles import (
    count_star,
    log_fixed_mp,
    log_view_bounds,
    lucy_pi_full,
    prime_powers,
    scan_inequality_per_read,
    scan_inequality_sampled,
    sieve_prime_counts,
)

A8PI = 0.039788735772973836  # 1/(8 pi)


class TestBuildAndCount:
    def test_tables_hold_no_more_than_their_columns(self):
        # the per-segment jump rows are dropped once the columns are summed;
        # kept on the table they made it hold 28.0 MB at 1e6, against 16.1 MB
        gc.collect()
        tracemalloc.start()
        try:
            tables = build_tables(10 ** 6)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tables.limit == 10 ** 6
        assert held < 20e6

    def test_pi_star_at_100(self, tables_10k):
        assert float(tables_10k.count("pi", 100)) == 25.0

    def test_pi_star_halves_at_prime(self, tables_10k):
        assert float(tables_10k.count("pi", 97)) == 24.5

    def test_theta_star_at_10(self, tables_10k):
        with working_precision(192):
            expected = sum(mp.log(p) for p in (2, 3, 5, 7))
        got = tables_10k.count("theta", 10)
        assert abs(got - expected) < mpf("1e-25")

    def test_psi_star_at_8(self, tables_10k):
        # prime powers <= 8: 2, 3, 4, 5, 7, 8 with the cube 8 halved
        with working_precision(192):
            expected = (
                mp.log(2) + mp.log(3) + mp.log(2) + mp.log(5) + mp.log(7)
                + mp.log(2) / 2
            )
        assert abs(tables_10k.count("psi", 8) - expected) < mpf("1e-25")

    def test_psi_below_first_prime_power(self, tables_10k):
        assert tables_10k.count("psi", 1.5) == 0

    def test_midpoint_normalization(self, tables_10k):
        # at a prime power the starred value is the mean of one-sided limits
        with working_precision(192):
            for n, kind in ((97, "pi"), (343, "psi"), (101, "theta"), (128, "Pi")):
                at = tables_10k.count(kind, n)
                left = tables_10k.count(kind, n - 0.5)
                right = tables_10k.count(kind, n + 0.5)
                assert abs(at - (left + right) / 2) < mpf("1e-25")

    def test_non_integer_equals_plain(self, tables_10k):
        assert float(tables_10k.count("pi", 97.5)) == 25.0

    def test_Pi_decomposition_at_100(self, tables_10k):
        # Pi*(x) - pi*(x) = sum_{m>=2} pi*(x^(1/m))/m, exactly
        x = 100
        with working_precision(192):
            expected = tables_10k.count("pi", x)
            m = 2
            while 2 ** m <= x:
                expected += tables_10k.count("pi", float(mpf(x) ** (mpf(1) / m))) / m
                m += 1
            got = tables_10k.count("Pi", x)
        assert abs(got - expected) < mpf("1e-25")

    def test_Pi_fraction_exact(self, tables_10k):
        # 2, 3, 4, 5, 7, 8, 9 up to 9: 1 + 1 + 1/2 + 1 + 1 + 1/3 + 1/2
        # at the square 9 the last term 1/2 is halved: total - 1/4
        got = Fraction(tables_10k.scaled("Pi", *tables_10k.locate(9)), 2 * SCALE["Pi"])
        assert got == Fraction(1 + 1 + 1 + 1) + Fraction(1, 2) * 2 + Fraction(1, 3) - Fraction(1, 4)

    def test_unknown_kind_rejected(self, tables_10k):
        with pytest.raises(ParameterError, match="unknown counting kind"):
            tables_10k.count("phi", 100)

    def test_beyond_limit_rejected(self, tables_10k):
        with pytest.raises(ParameterError):
            tables_10k.count("pi", 10 ** 5)

    def test_limit_floor(self):
        with pytest.raises(ParameterError):
            build_tables(50)


COUNT_KINDS = ("pi", "theta", "psi", "Pi")
_JUMPS_TO_1E4 = [n for n, _, _ in prime_powers(10_000)]


def _columns(tables) -> dict:
    """The exact right-limit columns as lists of Python ints, element by
    element: pi and Pi are int64 arrays, theta and psi lists."""
    return {kind: [int(v) for v in col] for kind, col in tables.right.items()}


def _assert_count_matches_oracle(tables, kind, x):
    """pi and Pi exactly; theta and psi within n 2^-96 over n summed logs."""
    k, side = tables.locate(x)
    want = count_star(kind, x)
    if kind in ("pi", "Pi"):
        assert Fraction(tables.scaled(kind, k, side), 2 * SCALE[kind]) == want, (kind, x)
        with working_precision(192):
            assert tables.count(kind, x) == mpf(want.numerator) / want.denominator
    else:
        with working_precision(192):
            err = abs(tables.count(kind, x) - want)
            assert err <= (k + 1) * mpf(2) ** -FIX_BITS, (kind, x, err)


def _rounded_columns(tables) -> dict:
    """Each kind's exact column that its float views round, with the
    column's denominator: the right limits over SCALE for pi and Pi, the
    running sums of the float64 logs over 2^53 for theta and psi."""
    units = [int(v * 2.0 ** 53) for v in np.log(tables.jump_p.astype(np.float64)).tolist()]
    is_prime = (tables.jump_m == 1).tolist()
    return {"pi": ([int(v) for v in tables.right["pi"]], SCALE["pi"]),
            "theta": (list(accumulate(u * m for u, m in zip(units, is_prime))), 1 << 53),
            "psi": (list(accumulate(units)), 1 << 53),
            "Pi": ([int(v) for v in tables.right["Pi"]], SCALE["Pi"])}


def _assert_views_round_the_exact_reads(tables):
    views = tables.float_views
    for kind, (col, den) in _rounded_columns(tables).items():
        for side, (w_left, w_right) in _SIDES.items():
            want = [(w_left * left + w_right * right) / (2 * den)
                    for left, right in zip([0] + col[:-1], col)]
            assert views[side][kind].tolist() == want, (kind, side)


# terms whose running sums and starred values fall on rounding ties
_LOG_TIES = [32 - 2.0 ** -48, 0.5, 0.5 + 2.0 ** -47, 0.0, 31.0, 0.5 + 2.0 ** -53]


class TestCountOracle:
    @pytest.mark.parametrize("kind", COUNT_KINDS)
    def test_integers_and_half_integers_below_3000(self, tables_10k, kind):
        for twice in range(6000):
            _assert_count_matches_oracle(tables_10k, kind, Fraction(twice, 2))

    @settings(max_examples=200, deadline=None)
    @given(n=st.sampled_from(_JUMPS_TO_1E4), offset=st.sampled_from([0, Fraction(-1, 2), Fraction(1, 2)]))
    def test_jumps_below_1e4(self, tables_10k, n, offset):
        for kind in COUNT_KINDS:
            _assert_count_matches_oracle(tables_10k, kind, n + offset)

    def test_jumps_are_the_oracle_prime_powers(self, tables_10k):
        assert tables_10k.jumps.tolist() == _JUMPS_TO_1E4
        assert tables_10k.primes.tolist() == [n for n, _, m in prime_powers(10_000) if m == 1]

    def test_float_views_round_the_exact_reads(self, tables_10k, tables_1e6):
        for tables in (tables_10k, tables_1e6):
            _assert_views_round_the_exact_reads(tables)

    def test_float_views_at_rounding_ties_and_past_2_53(self):
        # theta and psi: float log sums halfway between two doubles, 2^-47
        # apart above 32: 32.5 - 2^-48 rounds up to 32.5, 33 + 2^-48 down
        # to 33 (the whole list is an example of the test below)
        right, _ = _log_sum_reads(np.array(_LOG_TIES))
        for k, want in ((1, 32.5), (2, 33.0)):
            exact = sum(map(Fraction, _LOG_TIES[: k + 1]))
            assert right[k] == want and abs(Fraction(want) - exact) == Fraction(2) ** -48
        # Pi: right limits and starred numerators on both sides of 2^53 over
        # SCALE and 2 SCALE, and pi's power-of-two denominators
        nums = [2 ** 52 - 40 + j for j in range(80)] + [2 ** 53 - 4 + j for j in range(8)]
        nums += [2 ** 54 - 1, 2 ** 62 + 1]
        for den in (SCALE["Pi"], 2 * SCALE["Pi"], 1, 2):
            got = _exact_quotients(np.array(nums, dtype=np.int64), den)
            assert got.tolist() == [n / den for n in nums], den

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0), st.sampled_from(_LOG_TIES[:3]),
                              st.floats(0.5, 32, exclude_max=True)), min_size=1, max_size=60))
    @example(_LOG_TIES)
    def test_float_log_sums_round_the_exact_sums(self, terms):
        right, at = _log_sum_reads(np.array(terms))
        units = list(accumulate(int(t * 2.0 ** 53) for t in terms))
        assert right.tolist() == [u / 2 ** 53 for u in units]
        assert at.tolist() == [(a + b) / 2 ** 54 for a, b in zip([0] + units[:-1], units)]

    @pytest.mark.parametrize("kind", ["theta", "psi"])
    def test_log_views_within_their_bound_of_the_exact_reads(self, tables_1e6, kind):
        _assert_log_views_within_bound(tables_1e6, kind)


def _assert_log_views_within_bound(tables, kind):
    """Every theta or psi float view lies within its stated bound of the exact
    read, and the bound stays under 0.1% of the guard band of each spec on
    that kind, at every jump."""
    sqrt_x, log_x = np.sqrt(tables.jumps.astype(np.float64)), np.log(tables.jumps.astype(np.float64))
    for side, (slack, bound) in log_view_bounds(tables)[kind].items():
        assert slack >= 0, (kind, side)
        for spec in VERIFY_SPECS:
            if spec.count_kind == kind:
                band = 1e-9 * np.maximum(spec.envelope(sqrt_x, log_x), 1.0)
                assert np.max(bound / band) < 1e-3, (spec, side)


class TestPsiThetaGap:
    def test_first_square_jump(self, tables_10k):
        with working_precision(192):
            g3 = psi_theta_gap(3, tables_10k)
            g4 = psi_theta_gap(4, tables_10k)
            g45 = psi_theta_gap(4.5, tables_10k)
            assert g3 == 0
            assert abs(g4 - mp.log(2) / 2) < mpf("1e-25")  # half jump at 4 = 2^2
            assert abs(g45 - mp.log(2)) < mpf("1e-25")

    def test_gap_envelope_at_desk_scale(self, tables_1e6):
        # advisory-only sanity: the sharp (a1, a2) constants hold for
        # x >= e^50 and the exact gap at 1e6 in fact exceeds that shape by
        # ~0.06%; the classical all-x envelope 1.43 sqrt(x) does hold
        x = 10 ** 6
        with working_precision(192):
            gap = psi_theta_gap(x, tables_1e6)
            sharp = (1 + mpf("1.93378e-8")) * mp.sqrt(x) + mpf("1.01718") * mpf(x) ** (mpf(1) / 3)
            assert gap < mpf("1.43") * mp.sqrt(x)
            assert gap / sharp < mpf("1.001")
            assert gap > sharp  # the sharp shape is *not* valid this low

    def test_exact_outside_any_scope(self):
        # mpmath's ambient precision is 53 bits outside a scope; the gap is
        # still subtracted at the 192-bit working precision
        tables = primes.build_tables(10 ** 5)
        gap = psi_theta_gap(99999, tables)
        with working_precision(192):
            assert gap == psi_theta_gap(99999, tables)
            exact = mpf("366.17475704540341429928900468406714017695238792871024221913")
            assert abs(gap - exact) < mpf("1e-50")

    def test_gap_nondecreasing(self, tables_10k):
        vals = [psi_theta_gap(x, tables_10k) for x in (10, 100, 1000, 9999)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


# real-x and integer-argument last violations discovered by the scan at 1e6,
# frozen as regression values (side 'left' = violations approach from below)
FROZEN_LAST_VIOLATIONS = {
    ("psi_sq", A8PI): (59.0, "left", 40),
    ("theta_sq", A8PI): (599.0, "left", 598),
    ("psi_shift", A8PI): (227.0, "left", 226),
    ("theta_shift", A8PI): (2657.0, "left", 2656),
    ("Pi_li", A8PI): (97.0, "left", 58),
    ("pi_li", A8PI): (2657.0, "left", 2656),
    ("psi_sq", 1.0): (3.0, "left", 2),
    ("theta_sq", 1.0): (3.0, "left", 2),
    ("Pi_li", 1.0): (None, None, None),
    ("pi_li", 1.0): (None, None, None),
}


class TestScans:
    @pytest.mark.parametrize(
        "kind,a,C,threshold",
        [
            ("psi_sq", A8PI, None, 59),
            ("theta_sq", A8PI, None, 599),
            ("psi_shift", A8PI, published.PSI_SHIFT_C, 5000),
            ("theta_shift", A8PI, published.THETA_SHIFT_C, 5000),
            ("pi_li", A8PI, None, 2657),
            ("psi_sq", 1.0, None, 3),
            ("theta_sq", 1.0, None, 3),
            ("Pi_li", 1.0, None, 2),
            ("pi_li", 1.0, None, 2),
        ],
    )
    def test_thresholds_reproduce(self, tables_1e6, kind, a, C, threshold):
        spec = InequalitySpec(kind, a, C=C)
        report = scan_inequality(spec, 2, 10 ** 6, tables_1e6)
        assert threshold_consistent(report, threshold), (
            report.last_violation, report.last_violation_side
        )
        frozen = FROZEN_LAST_VIOLATIONS[(kind, a)]
        assert (report.last_violation, report.last_violation_side) == frozen[:2]
        assert report.last_integer_violation == frozen[2]

    def test_Pi_strong_real_x_finding(self, tables_1e6):
        # the Pi bound holds from 59 onward at integer arguments, but on the
        # real line violations persist up to (not including) 97
        spec = InequalitySpec("Pi_li", A8PI)
        report = scan_inequality(spec, 2, 10 ** 6, tables_1e6)
        assert (report.last_violation, report.last_violation_side) == (97.0, "left")
        assert report.last_integer_violation == 58
        assert not threshold_consistent(report, 59)
        assert threshold_consistent(report, 97)
        assert integer_threshold_consistent(report, 59)
        assert not integer_threshold_consistent(report, 58)

    def test_sharpness_just_below_thresholds(self, tables_1e6):
        # the reported left-limit points are genuine: the inequality fails at
        # x slightly below each threshold, checked in extended precision
        with working_precision(192):
            # psi at 59 - delta
            psi = tables_1e6.count("psi", 58.9)
            x = mpf("58.999999")
            assert abs(psi - x) >= mpf(1) / (8 * mp.pi) * mp.sqrt(x) * mp.log(x) ** 2
            # pi vs li at 2657 - delta
            pi_v = tables_1e6.count("pi", 2656.9)
            x = mpf("2656.999999")
            assert abs(pi_v - li(x)) >= mpf(1) / (8 * mp.pi) * mp.sqrt(x) * mp.log(x)

    def test_holds_everywhere_on_clean_interval(self, tables_1e6):
        spec = InequalitySpec("pi_li", A8PI)
        report = scan_inequality(spec, 2657, 10 ** 6, tables_1e6)
        assert report.passed
        assert report.last_violation is None

    def test_range_validation(self, tables_10k):
        spec = InequalitySpec("pi_li", A8PI)
        with pytest.raises(ParameterError):
            scan_inequality(spec, 2, 10 ** 6, tables_10k)
        with pytest.raises(ParameterError):
            scan_inequality(spec, 1, 100, tables_10k)

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            InequalitySpec("nonsense", 1.0)
        with pytest.raises(ParameterError):
            InequalitySpec("psi_shift", 1.0)  # shift kinds need C
        with pytest.raises(ParameterError):
            InequalitySpec("psi_sq", -1.0)

    @pytest.mark.parametrize("kind,a,C", [
        ("pi_li", float("nan"), None),
        ("pi_li", float("inf"), None),
        ("psi_shift", A8PI, float("nan")),
    ])
    def test_non_finite_spec_rejected(self, kind, a, C):
        # each once passed every scan: a NaN margin fails both comparisons
        with pytest.raises(ParameterError, match="finite"):
            InequalitySpec(kind, a, C=C)

    def test_nan_margin_is_rechecked_not_taken_as_clean(self, monkeypatch):
        tables = build_tables(3000)
        spec = InequalitySpec("pi_li", A8PI)
        want = scan_inequality(spec, 2600, 2700, tables)
        monkeypatch.setattr(primes, "_li64", lambda x: np.full(np.shape(x), np.nan))
        got = scan_inequality(spec, 2600, 2700, build_tables(3000))
        assert (got.last_violation, got.last_violation_side, got.last_integer_violation) == (
            want.last_violation, want.last_violation_side, want.last_integer_violation)
        assert (want.last_violation, want.last_integer_violation) == (2657.0, 2656)
        assert got.n_rechecked > want.n_rechecked == 0

    def test_extended_precision_recheck_decides_correctly(self, tables_10k):
        # drive the recheck path directly at a known-violating and a
        # known-clean point
        spec = InequalitySpec("pi_li", A8PI)
        k_2657 = int(np.searchsorted(tables_10k.jumps, 2657))
        assert int(tables_10k.jumps[k_2657]) == 2657
        assert _recheck(spec, tables_10k, k_2657, "left", 2657.0)
        assert not _recheck(spec, tables_10k, k_2657, "at", 2657.0)
        assert _recheck(spec, tables_10k, *tables_10k.locate(2656), 2656)
        assert not _recheck(spec, tables_10k, *tables_10k.locate(2657), 2657)


# the ten specs verify-primes scans
VERIFY_SPECS = [
    InequalitySpec("psi_sq", A8PI),
    InequalitySpec("theta_sq", A8PI),
    InequalitySpec("psi_shift", A8PI, C=published.PSI_SHIFT_C),
    InequalitySpec("theta_shift", A8PI, C=published.THETA_SHIFT_C),
    InequalitySpec("Pi_li", A8PI),
    InequalitySpec("pi_li", A8PI),
] + [InequalitySpec(kind, 1.0) for kind in published.THRESHOLDS_WEAK]

PSI_SQ_9996 = InequalitySpec("psi_sq", 0.002)

_SCAN_ENDS = st.one_of(st.integers(2, 10_000), st.floats(2, 10_000), st.just(10_000),
                       st.sampled_from(_JUMPS_TO_1E4))
_SAMPLES = st.sampled_from((0, 4, 16))


class TestScanAgainstSampledOracle:
    """Gaps settled from their two ends give the verdict of sampling them all."""

    @staticmethod
    def _assert_same(spec, lo, hi, tables, samples):
        # n_points counts the reads each makes; the scan's are a subset
        got = scan_inequality(spec, lo, hi, tables, interior_samples=samples).to_dict()
        want = scan_inequality_sampled(spec, lo, hi, tables, interior_samples=samples).to_dict()
        assert 0 < got.pop("n_points") <= want.pop("n_points")
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(spec=st.sampled_from(VERIFY_SPECS), ends=st.tuples(_SCAN_ENDS, _SCAN_ENDS),
           samples=_SAMPLES)
    # its last violation is the integer 9996, inside an open gap
    @example(spec=PSI_SQ_9996, ends=(2, 10_000), samples=16)
    def test_ranges(self, tables_10k, spec, ends, samples):
        lo, hi = sorted(ends)
        assume(lo < hi)
        self._assert_same(spec, lo, hi, tables_10k, samples)

    @settings(max_examples=200, deadline=None)
    @given(spec=st.sampled_from(VERIFY_SPECS),
           k=st.one_of(st.integers(0, 20), st.integers(0, len(_JUMPS_TO_1E4) - 2)),
           fracs=st.tuples(st.floats(0, 1), st.floats(0, 1)), samples=_SAMPLES)
    def test_ranges_inside_one_gap(self, tables_10k, spec, k, fracs, samples):
        # the low gaps hold the shift kinds' envelope below e^C
        start, end = _JUMPS_TO_1E4[k], _JUMPS_TO_1E4[k + 1]
        lo, hi = (start + f * (end - start) for f in sorted(fracs))
        assume(lo < hi)
        self._assert_same(spec, lo, hi, tables_10k, samples)

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(sorted(primes._KINDS)), log_a=st.floats(-3, 1),
           e_C=st.floats(2, 300), ends=st.tuples(_SCAN_ENDS, _SCAN_ENDS), samples=_SAMPLES)
    def test_drawn_specs(self, tables_10k, kind, log_a, e_C, ends, samples):
        # e^C among the small jumps puts the shift envelope's turn inside a gap
        lo, hi = sorted(ends)
        assume(lo < hi)
        spec = InequalitySpec(kind, 10 ** log_a, C=math.log(e_C))
        self._assert_same(spec, lo, hi, tables_10k, samples)
        # a violating integer is a violating point of the real line
        report = scan_inequality(spec, lo, hi, tables_10k, interior_samples=samples)
        if report.last_integer_violation is not None:
            assert report.last_violation >= report.last_integer_violation

    def test_violating_integer_inside_an_open_gap(self, tables_10k):
        # 9996 lies in the gap from the prime 9973 to the range's end and
        # fails by 0.435; the samples around it are 9995.24, which fails, and
        # 9996.82, which holds, and the true last violation is in (9996, 9996.5)
        report = scan_inequality(PSI_SQ_9996, 2, 10_000, tables_10k)
        assert (report.last_violation, report.last_violation_side) == (9996.0, "interior")
        assert report.last_integer_violation == 9996
        assert not threshold_consistent(report, 9996)
        with working_precision(192):
            for x, sign in ((9996, 1), (mpf("9996.5"), -1)):
                margin = abs(tables_10k.count("psi", x) - x) - PSI_SQ_9996.rhs(mpf(x), mp)
                assert sign * margin > 0

    @pytest.mark.parametrize("threshold, violated, consistent", [
        (9996.2, True, False), (9996.4, True, False),
        # 9996.5 holds, but the scan read no point between 9996 and 9996.82
        (9996.5, False, False),
        (9997, False, True),
    ])
    def test_interior_last_violation_confirms_from_the_next_integer(
            self, tables_10k, threshold, violated, consistent):
        report = scan_inequality(PSI_SQ_9996, 2, 10_000, tables_10k)
        assert threshold_consistent(report, threshold) is consistent
        with working_precision(192):
            x = mpf(str(threshold))
            assert (abs(tables_10k.count("psi", x) - x) >= PSI_SQ_9996.rhs(x, mp)) is violated

    @pytest.mark.parametrize("spec,lo,hi,last_int", [
        # 2656 lies in the gap (2647, 2657) that x_lo = 2648 cuts in two
        (InequalitySpec("pi_li", A8PI), 2648, 10_000, 2656),
        # psi crosses x at 206.1, inside the gap (199, 211) whose two ends
        # both fail, so 203..210 hold
        (InequalitySpec("psi_sq", 0.01), 2, 211, 202),
    ])
    def test_last_integer_violation(self, tables_10k, spec, lo, hi, last_int):
        self._assert_same(spec, lo, hi, tables_10k, 16)
        assert scan_inequality(spec, lo, hi, tables_10k).last_integer_violation == last_int

    @pytest.mark.parametrize("spec,lo,hi,read", [
        # psi = log 2 on [2, 3): the margin is 0.48 at 2.5 and 0.28 at 2.9;
        # two ends, 16 samples
        pytest.param(InequalitySpec("psi_sq", 1.0), 2.5, 2.9, (2.9, "interior", None, 2 + 16),
                     id="2.5-2.9-interior-18"),
        # one end, the jump 3 but its right limit, 16 samples
        pytest.param(InequalitySpec("psi_sq", 1.0), 2.1, 3.0, (3.0, "left", None, 1 + 2 + 16),
                     id="2.1-3.0-left-19"),
        # an end that is an integer but not a jump is read as its node, which
        # is no integer read, and again as an integer of its gap when open.
        # 9996 fails, at the start of the open gap (9996, 10000), and so does
        # its first sample: two ends, 16 samples and the integers 9996..10000
        pytest.param(PSI_SQ_9996, 9996, 10_000, (9996 + 4 * (1 / 17), "interior", 9996, 2 + 16 + 5),
                     id="integer-x_lo"),
        # 40 fails, at the end of the open gap (37, 40): the jump 37 but its
        # left limit, one end, 16 samples and the integers 38..40
        pytest.param(VERIFY_SPECS[0], 37, 40, (40, "interior", 40, 2 + 1 + 16 + 3),
                     id="integer-x_hi"),
    ])
    def test_ends_inside_a_gap_are_read(self, tables_10k, spec, lo, hi, read):
        self._assert_same(spec, lo, hi, tables_10k, 16)
        report = scan_inequality(spec, lo, hi, tables_10k)
        assert report.to_dict() == scan_inequality_per_read(spec, lo, hi, tables_10k).to_dict()
        assert not report.passed
        assert (report.last_violation, report.last_violation_side,
                report.last_integer_violation, report.n_points) == read

    def test_right_limit_at_x_hi_is_not_read(self):
        # psi - x jumps at 32 = 2^5 from -0.09 to 0.60, past the envelope
        # 0.43, but the right limit describes only x > 32
        spec = InequalitySpec("psi_sq", 0.00633)
        tables = build_tables(1000)
        self._assert_same(spec, 31.5, 32, tables, 16)
        assert scan_inequality(spec, 31.5, 32, tables).passed
        assert not scan_inequality(spec, 31.5, 32.5, tables).passed


class TestSegmentedCount:
    def test_against_tables(self, tables_1e6):
        expected = len(tables_1e6.primes)
        assert segmented_prime_count(10 ** 6) == expected

    def test_small_values(self):
        assert segmented_prime_count(1) == 0
        assert segmented_prime_count(2) == 1
        assert segmented_prime_count(100) == 25

    def test_progress_reaches_x(self):
        seen = []
        sieve_prime_counts([1000], segment_size=100,
                           progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (1000, 1000)
        assert len(seen) == 10


_PI_TO_5000 = np.cumsum(np.isin(np.arange(5001), _simple_sieve(5000)))
_PRIMES_TO_1414 = _simple_sieve(1414).tolist()  # p^2 <= 2e6
_PRIMES_TO_2154 = _simple_sieve(2154).tolist()  # p^3 <= 1e10

# pi(10^k), k = 1..11, from the standard table
_PI_POWERS_OF_10 = [4, 25, 168, 1229, 9592, 78498, 664579, 5761455, 50847534, 455052511,
                    4118054813]


def _cubes_and_neighbours(roots):
    """k^3 - 1, k^3 and k^3 + 1 for k drawn from ``roots``: where the cube
    root of x, the end of Lucy's loop, steps up."""
    return st.builds(lambda k, d: k ** 3 + d, roots, st.sampled_from((-1, 0, 1)))


class TestPrimeCounts:
    """``prime_counts`` (Lucy's recursion) and the sieve oracle it is checked on."""

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(
            st.one_of(st.integers(0, 3), st.integers(0, 5000)), min_size=1, max_size=12
        ).map(sorted),
        segment_size=st.one_of(st.integers(1, 8), st.integers(9, 700), st.just(1 << 24)),
    )
    def test_sorted_points_against_cumsum(self, points, segment_size):
        # duplicates, 0..3, both parities and segment edges all occur
        got = sieve_prime_counts(points, segment_size=segment_size)
        assert got == [int(_PI_TO_5000[x]) for x in points]

    @pytest.mark.parametrize("segment_size", [2, 3, 10, 64])
    def test_points_on_segment_edges(self, segment_size):
        # segment k covers [2 + k s, 2 + (k + 1) s): probe both sides of each edge
        edges = [2 + k * segment_size for k in range(1, 40)]
        points = sorted({e + d for e in edges for d in (-1, 0, 1)})
        got = sieve_prime_counts(points, segment_size=segment_size)
        assert got == [int(_PI_TO_5000[x]) for x in points]

    def test_every_x_to_5000_against_cumsum(self):
        assert prime_counts(range(5001)) == _PI_TO_5000.tolist()

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(
            st.one_of(
                st.integers(0, 2_000_000),
                # where p^2 starts striking out multiples of p
                st.builds(lambda p, d: p * p + d, st.sampled_from(_PRIMES_TO_1414),
                          st.sampled_from((-1, 0, 1))),
                # where isqrt(x), the length of both arrays, steps up
                st.builds(lambda k, d: k * k + d, st.integers(1, 1414),
                          st.sampled_from((-1, 0))),
                # where a prime p, or any k, joins the loop over p^3 <= x
                _cubes_and_neighbours(st.sampled_from(_PRIMES_TO_2154[:30])),  # p^3 <= 2e6
                _cubes_and_neighbours(st.integers(1, 125)),
            ),
            min_size=1, max_size=12,
        )
    )
    def test_against_sieve_oracle(self, points):
        assert prime_counts(points) == sieve_prime_counts(points)

    @settings(max_examples=30, deadline=None)
    @given(
        x=st.one_of(
            st.integers(2, 10 ** 10),
            _cubes_and_neighbours(st.sampled_from(_PRIMES_TO_2154)),
            _cubes_and_neighbours(st.integers(2, 2154)),
        )
    )
    @example(x=10 ** 10)
    def test_against_full_loop_oracle(self, x):
        # the oracle runs the loop over every prime up to sqrt x, with no P2 term
        assert prime_counts([x]) == [lucy_pi_full(x)]

    def test_integer_cube_root_to_the_cap(self):
        # k^3 <= PRIME_COUNT_MAX = 1e12 for every k here
        for k in range(1, 10 ** 4 + 1):
            assert (_icbrt(k ** 3 - 1), _icbrt(k ** 3), _icbrt(k ** 3 + 1)) == (k - 1, k, k), k

    @pytest.mark.parametrize("k", range(1, 12))
    def test_powers_of_10_against_table(self, k):
        assert prime_counts([10 ** k]) == [_PI_POWERS_OF_10[k - 1]]

    def test_order_of_points_kept(self):
        assert prime_counts([100, 10, 100, 2, 0]) == [25, 4, 25, 1, 0]

    def test_one_pass_for_all_points(self):
        seen = []
        sieve_prime_counts([300, 1000, 50], segment_size=100,
                           progress=lambda done, total: seen.append(done))
        assert seen == [101 + 100 * k for k in range(9)] + [1000]

    def test_empty_and_small(self):
        assert prime_counts([]) == []
        assert prime_counts([-3, 0, 1]) == [0, 0, 0]

    def test_bad_segment_size(self):
        with pytest.raises(ParameterError):
            sieve_prime_counts([10], segment_size=0)

    def test_points_above_the_cap_rejected(self):
        with pytest.raises(ParameterError, match="capped"):
            prime_counts([10, PRIME_COUNT_MAX + 1])


class TestLogFixed:
    def test_every_prime_to_2e5_matches_oracle(self):
        for p in _simple_sieve(200_000).tolist():
            assert _log_fixed(p) == log_fixed_mp(p), p

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 20_000_000))
    def test_integers_to_2e7_match_oracle(self, n):
        assert _log_fixed(n) == log_fixed_mp(n)


class TestCarriedLogs:
    """The exact theta and psi columns: running sums of ``_log_fixed``,
    however the sieve is cut into segments."""

    def test_theta_psi_columns_sum_the_oracle_logs(self, tables_1e6):
        logs = {p: log_fixed_mp(p) for p in tables_1e6.primes.tolist()}
        steps = {"theta": [], "psi": []}
        for n, m in zip(tables_1e6.jumps.tolist(), tables_1e6.jump_m.tolist()):
            p = round(n ** (1 / m))
            assert p ** m == n
            steps["theta"].append(logs[p] if m == 1 else 0)
            steps["psi"].append(logs[p])
        for kind, col in steps.items():
            assert tables_1e6.right[kind] == list(accumulate(col)), kind

    def test_segmented_build_matches_one_segment_and_exact_logs(self):
        # 1e4-wide segments restart the sieve twenty times
        limit = 2 * 10 ** 5
        one = build_tables(limit)
        segmented = build_tables(limit, segment_size=10 ** 4)
        for column in ("jumps", "jump_m", "jump_p"):
            assert np.array_equal(getattr(one, column), getattr(segmented, column)), column
        assert _columns(one) == _columns(segmented)
        assert one.float_views["at"]["psi"].tolist() == segmented.float_views["at"]["psi"].tolist()


_ORACLE_LIMIT = 20_000
_SQUARES_AND_CUBES = [n for n, _, m in prime_powers(_ORACLE_LIMIT) if m in (2, 3)]


@lru_cache(maxsize=None)
def _oracle_log(p):
    return log_fixed_mp(p)


@st.composite
def _limits_and_segments(draw):
    """(limit, segment_size): a segment edge 2 + s on a prime square or
    cube or next to one, or one default-sized segment; a few hundred
    segments at most."""
    size = draw(st.one_of(
        st.builds(lambda n, d: n + d - 2, st.sampled_from(_SQUARES_AND_CUBES),
                  st.sampled_from((-1, 0, 1))),
        st.just(primes.DEFAULT_SEGMENT)))
    return draw(st.integers(100, min(_ORACLE_LIMIT, 100 + 300 * size))), size


class TestTableAssembly:
    @settings(max_examples=40, deadline=None)
    @given(limit_and_size=_limits_and_segments())
    # 25 = 5^2 and 125 = 5^3 start the second segment; with 2-wide segments
    # every power of 2 starts one, and 27 = 3^3 ends one
    @example(limit_and_size=(1000, 23))
    @example(limit_and_size=(2000, 123))
    @example(limit_and_size=(2000, 2))
    @example(limit_and_size=(_ORACLE_LIMIT, primes.DEFAULT_SEGMENT))
    def test_segments_merge_to_the_oracle_prime_powers(self, limit_and_size):
        limit, size = limit_and_size
        tables = build_tables(limit, segment_size=size)
        rows = [row for row in prime_powers(_ORACLE_LIMIT) if row[0] <= limit]
        assert tables.jumps.tolist() == [n for n, _, _ in rows]
        assert tables.jump_m.tolist() == [m for _, _, m in rows]
        steps = {
            "pi": [int(m == 1) for _, _, m in rows],
            "theta": [_oracle_log(p) if m == 1 else 0 for _, p, m in rows],
            "psi": [_oracle_log(p) for _, p, _ in rows],
            "Pi": [SCALE["Pi"] // m for _, _, m in rows],
        }
        assert _columns(tables) == {kind: list(accumulate(col)) for kind, col in steps.items()}

    @pytest.mark.parametrize("size", [0, -5, 0.5, 2.5, "64"])
    def test_segment_size_below_one_or_not_an_integer_is_refused(self, size):
        # a segment_size of 0 once yielded empty segments forever
        with pytest.raises(ParameterError, match="segment_size"):
            build_tables(1000, segment_size=size)


class TestLi64:
    def test_against_120_bit_li(self):
        # log-spaced, uniform over the table range and dense at the low end
        rng = np.random.default_rng(2021)
        xs = np.concatenate([np.geomspace(2, 2e7, 2000), rng.uniform(2, 2e7, 1000),
                             rng.uniform(2, 100, 1000), [2.0, 2.5, 2657.0, 2e7]])
        with mp.workprec(120):
            want = np.array([float(mp.li(mpf(float(x)))) for x in xs])
        got = primes._li64(xs)
        assert len(xs) >= 4000
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    def test_one_or_two_values_round_as_an_array_does(self):
        # up to two values are summed in Python floats; a third copy of the
        # larger keeps the number of terms and takes the numpy path
        xs = np.concatenate([np.geomspace(2, 6e9, 501), [2.0, 2.5, 2657.0, 2e5, 2e7]]).tolist()
        for a, b in zip(xs, xs[1:]):
            array = primes._li64(np.array([a, b, max(a, b)]))
            assert primes._li64(np.array([a]))[0] == primes._li64(np.array([a, a, a]))[0]
            assert np.array_equal(primes._li64(np.array([a, b])), array[:2])

    def test_within_its_derived_bound(self):
        # the bound of _li64's docstring, and each fact it rests on, on log
        # grids to the largest scan and to the top of its range
        u, coefficients = 2.0 ** -53, primes._LI_COEFFICIENTS
        for top, n_terms in ((2e7, 55), (6e9, 64)):
            xs = np.geomspace(2, top, 300)
            assert bisect.bisect_left(primes._LI_REACH, np.log(top)) + 1 == n_terms
            with mp.workprec(120):
                for x, got in zip(xs.tolist(), primes._li64(xs).tolist()):
                    L, li_x = mp.log(x), mp.li(x)
                    P = li_x - mp.euler - mp.log(L)
                    sizes = [abs(mpf(c)) * L ** n for n, c in enumerate(coefficients[:n_terms], 1)]
                    peak = sizes.index(max(sizes))
                    assert sizes[: peak + 1] == sorted(sizes[: peak + 1])
                    assert sizes[peak:] == sorted(sizes[peak:], reverse=True)
                    assert P / mp.sqrt(x) > 0.5 and max(sizes) < 10 * P / mp.sqrt(x)
                    bound = 1.001 * u * ((50 * n_terms + 5) * P + 2 * x + L * P
                                         + 4 * abs(mp.log(L)) + 5)
                    assert abs(got - li_x) <= bound, x
                    # below the guard band of the li specs verify-primes scans
                    if top == 2e7:
                        envelope = A8PI * math.sqrt(x) * math.log(x)
                        assert bound < 0.14 * 1e-9 * max(envelope, 1.0)

    def test_terms_dropped_sum_below_2_to_the_minus_70(self):
        # at the largest L that uses n terms, every term after the n-th
        # falls, so the alternating tail is below the first of them
        terms = primes._li_coefficients(128)
        with mp.workprec(120):
            for n, reach in enumerate(primes._LI_REACH, 1):
                sizes = [abs(mpf(c)) * mpf(reach) ** m for m, c in enumerate(terms, 1)][n - 1 :]
                assert sizes == sorted(sizes, reverse=True)
                assert sizes[0] <= 2 ** -70 * (1 + 1e-12) and sizes[-1] < 2 ** -200

    def test_verify_primes_runs_without_scipy(self):
        # an entry of None in sys.modules makes ``import scipy`` fail
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from primebounds.cli import main; main()")
        package_root = str(Path(primebounds.__file__).resolve().parents[1])
        res = subprocess.run(
            [sys.executable, "-c", code, "verify-primes", "--limit", "3000"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": package_root})
        assert res.returncode == EXIT_PASS, res.stderr[-2000:]


def _report_fields(report):
    return (report.passed, report.last_violation, report.last_violation_side,
            report.last_integer_violation, report.n_points, report.n_rechecked)


class TestScanContext:
    def test_verify_primes_evaluates_li_on_the_jumps_once(self, monkeypatch):
        # the ten specs share li on the jumps; the rest is li on the samples
        # and integers of the few gaps their two ends leave open
        calls = []

        def counting_li64(x):
            calls.append(np.array(x))
            return _li64(x)

        _li64 = primes._li64
        monkeypatch.setattr(primes, "_li64", counting_li64)
        res = CliRunner().invoke(cli, ["--format", "json", "verify-primes", "--limit", "20000"])
        assert res.exit_code == EXIT_PASS, res.output
        assert len(json.loads(res.stdout)["results"]) == 10
        jumps = build_tables(20_000).jumps.astype(np.float64)
        assert sum(np.array_equal(x, jumps) for x in calls) == 1
        # sampling every gap took li on the jumps, 16 points in each gap and
        # every integer: 59,559 points
        sampled_grids = len(jumps) + 16 * (len(jumps) - 1) + (20_000 - 1)
        assert sum(x.size for x in calls) < sampled_grids / 10

    def test_verify_primes_read_counts_at_2e5(self):
        # the reads and rechecks of each verify-primes scan, which no golden
        # file prints
        tables = build_tables(200_000)
        reports = [scan_inequality(spec, 2, 200_000, tables) for spec in VERIFY_SPECS]
        assert [r.n_points for r in reports] == [
            54_559, 55_250, 54_939, 55_975, 54_707, 55_639, 54_392, 54_392, 54_376, 54_376]
        assert [r.n_rechecked for r in reports] == [0] * 10

    def test_finite_margins_rechecked_in_a_wider_band_give_the_same_verdicts(
            self, monkeypatch, tables_2e5):
        # a band 1e6 times wider sends finite margins of either sign to the
        # extended-precision recheck, which must decide them as float64 did
        def fields(report):
            return (report.passed, report.last_violation, report.last_violation_side,
                    report.last_integer_violation)

        want = [scan_inequality(spec, 2, 200_000, tables_2e5) for spec in VERIFY_SPECS]
        monkeypatch.setattr(primes, "_guard", lambda rhs: 1e-3 * np.maximum(rhs, 1.0))
        got = [scan_inequality(spec, 2, 200_000, tables_2e5) for spec in VERIFY_SPECS]
        assert list(map(fields, got)) == list(map(fields, want))
        assert [r.n_rechecked for r in got] == [0, 6, 1, 22, 1, 32, 0, 0, 0, 0]

    def test_exact_log_columns_are_built_only_when_read(self, monkeypatch):
        calls = []

        def counting_log_fixed(p):
            calls.append(p)
            return log_fixed(p)

        log_fixed = primes._log_fixed
        monkeypatch.setattr(primes, "_log_fixed", counting_log_fixed)
        # the ten verify-primes scans at 2e5 read only the float views
        res = CliRunner().invoke(cli, ["--format", "json", "verify-primes", "--limit", "2e5"])
        assert res.exit_code == EXIT_PASS, res.output
        assert calls == []
        # exact theta and psi reads take each prime's log once, and only
        # as far as the jumps read: to 5000 first, then the whole column
        tables = build_tables(10 ** 4)
        for spec in VERIFY_SPECS:
            scan_inequality(spec, 2, 10 ** 4, tables)
        assert calls == []
        assert list(tables.right) == list(SCALE)
        psi_theta_gap(5000.5, tables)
        assert sorted(calls) == [p for p in tables.primes.tolist() if p <= 5000]
        tables.right["psi"]
        assert sorted(calls) == tables.primes.tolist()

    def test_exact_read_logs_only_the_primes_up_to_it(self, monkeypatch):
        calls = []

        def counting_log_fixed(p):
            calls.append(p)
            return log_fixed(p)

        log_fixed = primes._log_fixed
        monkeypatch.setattr(primes, "_log_fixed", counting_log_fixed)
        tables = build_tables(10 ** 6)
        tables.count("theta", 5000)
        assert len(calls) == 669   # pi(5000), of the 78,498 primes in the table
        # later, longer reads extend the prefix; the whole column is unchanged
        partial, whole = build_tables(10 ** 5), build_tables(10 ** 5)
        for x in (10, 5000, 3 * 10 ** 4, 2000):
            partial.count("psi", x)
        assert partial.right["psi"] == whole.right["psi"]
        assert partial.right["theta"] == whole.right["theta"]

    def test_filled_context_gives_the_same_report(self):
        fresh = build_tables(30_000)
        filled = build_tables(30_000)
        # other specs and sample counts fill the shared context first
        for kind, C in (("pi_li", None), ("theta_shift", published.THETA_SHIFT_C)):
            warm = InequalitySpec(kind, 1.0, C=C)
            scan_inequality(warm, 2, 30_000, filled, interior_samples=4)
            scan_inequality(warm, 10.5, 20_000.5, filled, interior_samples=16)
        for kind, C in (("pi_li", None), ("Pi_li", None), ("psi_sq", None),
                        ("theta_shift", published.THETA_SHIFT_C)):
            spec = InequalitySpec(kind, A8PI, C=C)
            for lo, hi, n in ((2, 30_000, 16), (10.5, 20_000.5, 4)):
                assert _report_fields(scan_inequality(spec, lo, hi, fresh, n)) == \
                    _report_fields(scan_inequality(spec, lo, hi, filled, n))
                fresh = build_tables(30_000)
        # every verify-primes spec, forward and then in reverse, against one
        # table, each as against a table of its own
        limit = 200_000
        filled = build_tables(limit)
        alone = {spec: _report_fields(scan_inequality(spec, 2, limit, build_tables(limit)))
                 for spec in VERIFY_SPECS}
        for spec in VERIFY_SPECS + VERIFY_SPECS[::-1]:
            assert _report_fields(scan_inequality(spec, 2, limit, filled)) == alone[spec], spec
        # the shared arrays cannot be written in place
        views = filled.float_views
        shared = [views["x"], filled.jump_li]
        shared += [views[side][kind] for side in ("left", "at", "right") for kind in COUNT_KINDS]
        for kind, uses_li in (("psi", False), ("theta", False), ("Pi", True), ("pi", True)):
            shared.append(filled.block_deviations(kind, uses_li))
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                np.subtract(array, 1.0, out=array)

    def test_context_is_per_table_and_freed_with_it(self):
        # the scan views are cached properties of the table, not fields
        a, b = build_tables(10 ** 4), build_tables(10 ** 4)
        for view in ("float_views", "jump_li"):
            assert getattr(a, view) is getattr(a, view)
            assert getattr(a, view) is not getattr(b, view)
            assert view not in repr(a)
        assert a.block_deviations("pi", True) is a.block_deviations("pi", True)
        assert a.block_deviations("pi", True) is not b.block_deviations("pi", True)
        # a dict cannot be weakly referenced; its columns can
        refs = [weakref.ref(a.float_views["x"]), weakref.ref(a.float_views["right"]["pi"]),
                weakref.ref(a.jump_li), weakref.ref(a.block_deviations("pi", True))]
        del a
        gc.collect()
        assert all(ref() is None for ref in refs)


_B = primes._SCAN_BLOCK
_JUMPS_TO_2E5 = [n for n, _, _ in prime_powers(200_000)]
_BLOCKS_2E5 = -(-len(_JUMPS_TO_2E5) // _B)
# ends on jumps, off jumps and on the jumps at and next to a block's first
_ENDS_2E5 = st.one_of(
    st.integers(2, 200_000), st.floats(2, 200_000), st.just(200_000),
    st.sampled_from(_JUMPS_TO_2E5),
    st.builds(lambda b, d: _JUMPS_TO_2E5[b * _B + d],
              st.integers(1, _BLOCKS_2E5 - 1), st.sampled_from((-1, 0, 1))))
_DRAWN_SPECS = st.builds(
    lambda kind, log_a, e_C: InequalitySpec(kind, 10 ** log_a, C=math.log(e_C)),
    st.sampled_from(sorted(primes._KINDS)), st.floats(-3, 1), st.floats(2, 300))
# small a leaves violations deep in the range, after blocks it clears
PSI_SQ_DEEP = InequalitySpec("psi_sq", 0.005)
PI_LI_DEEP = InequalitySpec("pi_li", 0.018)
# block 67 is uncleared only through the left read at jump 68 B, after it
PI_LI_NEXT_LEFT = InequalitySpec("pi_li", 0.0111)


def _uncleared_blocks(spec, tables) -> list:
    ks, own, _ = primes._jumps_to_read(primes._SpecArrays((spec,)), tables, 0, len(tables.jumps) - 1)
    return np.unique(ks[own] // _B).tolist()


class TestBlockClearing:
    """Blocks of jumps cleared by one bound give the verdict of reading every jump."""

    @staticmethod
    def _assert_same(spec, lo, hi, tables, samples=16):
        got = scan_inequality(spec, lo, hi, tables, interior_samples=samples)
        assert _report_fields(got) == _report_fields(
            scan_inequality_per_read(spec, lo, hi, tables, interior_samples=samples))

    @settings(max_examples=300, deadline=None)
    @given(spec=st.one_of(st.sampled_from(VERIFY_SPECS), _DRAWN_SPECS),
           ends=st.tuples(_ENDS_2E5, _ENDS_2E5), samples=_SAMPLES)
    @example(spec=PSI_SQ_DEEP, ends=(2, 200_000), samples=16)
    @example(spec=PI_LI_DEEP, ends=(2, 200_000), samples=16)
    @example(spec=PSI_SQ_DEEP, ends=(_JUMPS_TO_2E5[3 * _B - 1], _JUMPS_TO_2E5[30 * _B + 1]),
             samples=4)
    @example(spec=PI_LI_DEEP, ends=(_JUMPS_TO_2E5[9 * _B], 150_000.5), samples=0)
    @example(spec=PI_LI_NEXT_LEFT, ends=(2, 200_000), samples=16)
    def test_ranges(self, tables_2e5, spec, ends, samples):
        lo, hi = sorted(ends)
        assume(lo < hi)
        self._assert_same(spec, lo, hi, tables_2e5, samples)

    @settings(max_examples=100, deadline=None)
    @given(spec=st.one_of(st.sampled_from(VERIFY_SPECS), _DRAWN_SPECS),
           b=st.integers(0, _BLOCKS_2E5 - 2), fracs=st.tuples(st.floats(0, 1), st.floats(0, 1)))
    def test_ranges_inside_one_block(self, tables_2e5, spec, b, fracs):
        start, end = _JUMPS_TO_2E5[b * _B], _JUMPS_TO_2E5[(b + 1) * _B - 1]
        lo, hi = (start + f * (end - start) for f in sorted(fracs))
        assume(lo < hi)
        self._assert_same(spec, lo, hi, tables_2e5)

    @settings(max_examples=100, deadline=None)
    @given(spec=st.one_of(st.sampled_from(VERIFY_SPECS), _DRAWN_SPECS),
           b=st.integers(1, _BLOCKS_2E5 - 2), off=st.sampled_from((0.0, 0.5)))
    def test_ranges_spanning_exactly_one_block(self, tables_2e5, spec, b, off):
        # the jumps before and after block b, or points in the gaps next to them
        lo, hi = _JUMPS_TO_2E5[b * _B - 1] + off, _JUMPS_TO_2E5[(b + 1) * _B] - off
        self._assert_same(spec, lo, hi, tables_2e5)

    def test_uncleared_blocks_of_verify_primes_at_2e5(self, tables_2e5):
        # the first block holds x_lo and the last x_hi, so neither is cleared
        assert _BLOCKS_2E5 == 71
        counts = [len(_uncleared_blocks(spec, tables_2e5)) for spec in VERIFY_SPECS]
        assert counts == [2, 3, 2, 4, 2, 4, 2, 2, 2, 2]

    @pytest.mark.parametrize("spec", [PSI_SQ_DEEP, PI_LI_DEEP])
    def test_uncleared_blocks_need_not_be_a_prefix(self, tables_2e5, spec):
        # psi_sq reads blocks 0-8, 10, 13, 17, 23 and 70; pi_li 0-13, 16, 17 and 70
        *inner, last = _uncleared_blocks(spec, tables_2e5)
        assert last == _BLOCKS_2E5 - 1
        assert inner[-1] >= 17 and inner != list(range(len(inner)))
        assert not scan_inequality(spec, 2, 200_000, tables_2e5).passed

    @pytest.mark.parametrize("k0,k1", [(5 * _B + 3, 20 * _B + 7), (5 * _B, 21 * _B - 1),
                                       (5 * _B - 1, 6 * _B)])
    def test_blocks_at_the_range_ends_are_read(self, tables_2e5, k0, k1):
        # weak pi_li holds past block 0, so every block strictly inside k0..k1
        # is cleared and those holding k0 and k1 are read from k0 and to k1
        ks, own, _ = primes._jumps_to_read(primes._SpecArrays(VERIFY_SPECS[-1:]), tables_2e5, k0, k1)
        assert ks[own].tolist() == list(range(k0, (k0 // _B + 1) * _B)) + \
            list(range(k1 // _B * _B, k1 + 1))
        assert ks[~own].tolist() == [(k0 // _B + 1) * _B]

    def test_next_left_read_keeps_its_block(self, tables_2e5):
        assert 67 in _uncleared_blocks(PI_LI_NEXT_LEFT, tables_2e5)
        self._assert_same(PI_LI_NEXT_LEFT, 2, 200_000, tables_2e5)

    def test_block_envelopes_bound_the_computed_envelope(self, tables_2e5):
        xs = tables_2e5.float_views["x"]
        blocks = np.arange((len(xs) - 1) // _B)   # each with a jump after it
        all_lo, all_hi = primes._block_envelopes(primes._SpecArrays(VERIFY_SPECS), xs, blocks)
        for spec, lo, hi in zip(VERIFY_SPECS, all_lo, all_hi):
            env = spec.envelope(np.sqrt(xs), np.log(xs))
            for b in blocks.tolist():
                window = env[b * _B : (b + 1) * _B + 1]
                assert window.max() <= hi[b], (spec, b)
                assert np.isnan(lo[b]) or lo[b] <= window.min(), (spec, b)
            # only a shift block that starts below e^C goes without a lower bound
            below = np.flatnonzero(np.isnan(lo)).tolist()
            assert below == ([0] if spec.kind.endswith("_shift") else []), spec
            # above e^C the computed envelope rises from jump to jump
            rising = np.log(xs) >= (spec.C if spec.C is not None else -np.inf)
            assert np.all(np.diff(env[rising]) > 0), spec

    def test_one_li_pass_per_scan(self, monkeypatch):
        # the first li scan takes li on the table's jumps; each li scan then
        # takes it once on its two ends, neither a jump, and once on the
        # samples and integers of its open gaps, if it has any
        tables = build_tables(20_000)
        n_jumps = int(np.count_nonzero((tables.jumps > 2.5) & (tables.jumps < 19_999.5)))
        calls, want = [], []
        li64 = primes._li64
        monkeypatch.setattr(primes, "_li64", lambda x: calls.append(len(x)) or li64(x))
        for spec in VERIFY_SPECS:
            n_inside = scan_inequality(spec, 2.5, 19_999.5, tables).n_points - 3 * n_jumps - 2
            if spec.uses_li:
                want += [len(tables.jumps)] * (not want) + [2] + [n_inside] * (n_inside > 0)
        assert calls == want
        assert want.count(2) == 4 and len(want) == 7

    def test_nan_block_is_not_cleared(self, monkeypatch):
        monkeypatch.setattr(primes, "_li64", lambda x: np.full(np.shape(x), np.nan))
        tables = build_tables(200_000)
        assert _uncleared_blocks(VERIFY_SPECS[5], tables) == list(range(_BLOCKS_2E5))


_SPEC_LISTS = st.lists(st.one_of(st.sampled_from(VERIFY_SPECS), _DRAWN_SPECS), min_size=1, max_size=12)


class TestScanInequalities:
    """One pass over many specs gives each the verdict of reading its every jump alone."""

    @staticmethod
    def _assert_each_alone(specs, lo, hi, tables, samples=16):
        got = scan_inequalities(specs, lo, hi, tables, interior_samples=samples)
        assert len(got) == len(specs)
        for spec, verdict in zip(specs, got):
            assert verdict.spec == spec
            assert verdict.to_dict() == scan_inequality_per_read(
                spec, lo, hi, tables, interior_samples=samples).to_dict(), spec

    @settings(max_examples=60, deadline=None)
    @given(specs=_SPEC_LISTS, ends=st.tuples(_ENDS_2E5, _ENDS_2E5), samples=_SAMPLES)
    @example(specs=VERIFY_SPECS, ends=(2, 200_000), samples=16)
    @example(specs=[PSI_SQ_DEEP, PI_LI_DEEP, PI_LI_NEXT_LEFT, PSI_SQ_DEEP], ends=(2, 200_000),
             samples=4)
    @example(specs=VERIFY_SPECS[::-1], ends=(_JUMPS_TO_2E5[3 * _B - 1], 150_000.5), samples=0)
    def test_shared_ranges(self, tables_2e5, specs, ends, samples):
        lo, hi = sorted(ends)
        assume(lo < hi)
        self._assert_each_alone(specs, lo, hi, tables_2e5, samples)

    @settings(max_examples=40, deadline=None)
    @given(specs=_SPEC_LISTS, b=st.integers(0, _BLOCKS_2E5 - 2),
           fracs=st.tuples(st.floats(0, 1), st.floats(0, 1)), samples=_SAMPLES)
    def test_ranges_inside_one_block(self, tables_2e5, specs, b, fracs, samples):
        start, end = _JUMPS_TO_2E5[b * _B], _JUMPS_TO_2E5[(b + 1) * _B - 1]
        lo, hi = (start + f * (end - start) for f in sorted(fracs))
        assume(lo < hi)
        self._assert_each_alone(specs, lo, hi, tables_2e5, samples)

    @settings(max_examples=40, deadline=None)
    @given(specs=_SPEC_LISTS,
           k=st.one_of(st.integers(0, 20), st.integers(0, len(_JUMPS_TO_2E5) - 2)),
           fracs=st.tuples(st.floats(0, 1), st.floats(0, 1)), samples=_SAMPLES)
    def test_ranges_with_no_jump(self, tables_2e5, specs, k, fracs, samples):
        # the low gaps hold the shift kinds' envelope below e^C
        start, end = _JUMPS_TO_2E5[k], _JUMPS_TO_2E5[k + 1]
        lo, hi = (start + f * (end - start) for f in sorted(fracs))
        assume(start < lo < hi < end)
        self._assert_each_alone(specs, lo, hi, tables_2e5, samples)

    @settings(max_examples=100, deadline=None)
    @given(specs=_SPEC_LISTS, xs=st.lists(st.floats(2, 2e7), min_size=1, max_size=20))
    def test_envelopes_are_each_specs_own(self, specs, xs):
        # bit for bit, so a read decides as in a scan of its spec alone
        x = np.array(xs)
        arrays = primes._SpecArrays(specs)
        got = arrays.envelopes(np.repeat(np.arange(len(specs)), len(x)),
                               np.tile(np.sqrt(x), len(specs)), np.tile(np.log(x), len(specs)))
        want = np.concatenate([spec.envelope(np.sqrt(x), np.log(x)) for spec in specs])
        assert got.tobytes() == want.tobytes()

    def test_no_specs_no_verdicts(self, tables_10k):
        assert scan_inequalities([], 2, 10_000, tables_10k) == []

    @pytest.mark.parametrize("samples", [-1, 2.5, "16", None])
    def test_interior_samples_must_be_an_integer_of_at_least_zero(self, tables_10k, samples):
        # -1 once reached numpy as a negative dimension, and 2.5 as a shape
        # that no array broadcast to
        with pytest.raises(ParameterError, match="interior_samples"):
            scan_inequalities(VERIFY_SPECS, 2, 10_000, tables_10k, interior_samples=samples)
        with pytest.raises(ParameterError, match="interior_samples"):
            scan_inequality(VERIFY_SPECS[0], 2, 10_000, tables_10k, interior_samples=samples)

    def test_verify_primes_takes_li_in_two_calls(self, monkeypatch, tables_2e5):
        # the table takes li on its jumps once; the scan then takes it in two
        # calls, at the end 2e5, which is not a jump, and at every point inside
        # an open gap of every li spec.  The range [2, 2e5] has every jump of
        # the table, each read from three sides but the left limit at 2
        li_specs = [spec for spec in VERIFY_SPECS if spec.uses_li]
        n_inside = sum(v.n_points - (3 * len(_JUMPS_TO_2E5) - 1) - 1
                       for v in scan_inequalities(li_specs, 2, 200_000, tables_2e5))
        calls = []
        li64 = primes._li64
        monkeypatch.setattr(primes, "_li64", lambda x: calls.append(len(x)) or li64(x))
        res = CliRunner().invoke(cli, ["--format", "json", "verify-primes", "--limit", "2e5"])
        assert res.exit_code == EXIT_PASS, res.output
        assert len(json.loads(res.stdout)["results"]) == 10
        assert n_inside > 0
        assert calls == [len(_JUMPS_TO_2E5), 1, n_inside]

    def test_a_scan_without_li_specs_takes_no_li(self, monkeypatch):
        # li on the jumps is built on first use, and only a li spec uses it;
        # the ends 2.5 and 19999.5 are not jumps
        tables = build_tables(20_000)
        calls = []
        li64 = primes._li64
        monkeypatch.setattr(primes, "_li64", lambda x: calls.append(len(x)) or li64(x))
        scan_inequalities([spec for spec in VERIFY_SPECS if not spec.uses_li], 2.5, 19_999.5, tables)
        assert calls == []
        assert "jump_li" not in tables.__dict__

    def test_verify_primes_scans_once(self, monkeypatch):
        calls = []
        scan = primes.scan_inequalities
        monkeypatch.setattr(primes, "scan_inequalities", lambda specs, *a: calls.append(specs) or scan(specs, *a))
        res = CliRunner().invoke(cli, ["--format", "json", "verify-primes", "--limit", "2e4",
                                       "--spec", "pi_li", "--spec", "weak"])
        assert res.exit_code == EXIT_PASS, res.output
        assert [spec.kind for spec in calls[0]] == ["pi_li", "psi_sq", "theta_sq", "Pi_li", "pi_li"]
        assert len(calls) == 1
