"""Stepping verification: f/g fixtures, monotonicity, windows, schedule."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from primebounds import published
from primebounds import ramanujan
from primebounds.ramanujan import (
    CounterexampleVerdict,
    ParameterError,
    Regime,
    counterexample_check,
    f,
    g,
    regime_schedule,
    step_verify,
)
from primebounds.hiprec import PrecisionError, working_precision

# frozen 25-digit fixtures, independently evaluated through the quadrature-
# backed li oracle at 256 bits during development
F_43 = "1.268660975421811536923692e+34"
G_43_A8PI = "1.268660620434833678197907e+34"
F_59 = "5.250017382843194172357211e+47"
G_59_A1 = "5.250016854168233951847409e+47"

A8PI = 1 / (8 * math.pi)
SCHEDULE = regime_schedule()


def direct_margins(regime, k0, n, prec=192):
    """(f(z_k) - g(min(z_k + delta, z_hi)), z_k) for k0 <= k < k0 + n, one f and g per step."""
    with working_precision(prec):
        d, top, a = mpf(regime.delta), mpf(regime.z_hi), mpf(regime.a)
        out = []
        for k in range(k0, k0 + n):
            z = mpf(regime.z_lo) + k * d
            out.append((f(z, prec) - g(min(z + d, top), a, prec), float(z)))
    return out


def rel(x, y):
    return abs(x - y) / abs(y)


class TestFG:
    def test_f43_fixture(self):
        with working_precision(192):
            assert abs(f(43) - mpf(F_43)) / mpf(F_43) < mpf("1e-24")

    def test_g43_fixture(self):
        with working_precision(192):
            a = 1 / (8 * mp.pi)
            got = g(43, a)
            assert abs(got - mpf(G_43_A8PI)) / mpf(G_43_A8PI) < mpf("1e-24")

    def test_f59_g59_fixtures(self):
        with working_precision(192):
            assert abs(f(59) - mpf(F_59)) / mpf(F_59) < mpf("1e-24")
            assert abs(g(59, 1) - mpf(G_59_A1)) / mpf(G_59_A1) < mpf("1e-24")

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            f(1.0)
        with pytest.raises(ParameterError):
            g(0.5, 1.0)
        with pytest.raises(ParameterError):
            g(43, -1.0)

    def test_f_increasing_on_verification_range(self):
        with working_precision(192):
            zs = [mpf(43) + k * mpf(60) / 100 for k in range(101)]
            vals = [f(z) for z in zs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_g_increasing_on_verification_range(self):
        with working_precision(192):
            a = 1 / (8 * mp.pi)
            zs = [mpf(43) + k * mpf(60) / 100 for k in range(101)]
            vals = [g(z, a) for z in zs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_g_increasing_in_a(self):
        with working_precision(192):
            vals = [g(50, a) for a in (A8PI, 1.0, 10.0, 100.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestStepVerify:
    def test_first_rung_window(self):
        regime = Regime(43.0, 59.0, A8PI, 5e-8, published.STRONG_X_MAX)
        report = step_verify(regime, max_steps=2000)
        assert report.passed
        assert report.steps_checked == 2000
        assert report.min_margin > 0

    def test_second_rung_window(self):
        regime = Regime(59.0, 69.0, 1.0, 2.5e-8, 2.165e30)
        report = step_verify(regime, max_steps=2000)
        assert report.passed

    def test_window_from_end_lands_on_rung_top(self):
        regime = Regime(43.0, 43.001, A8PI, 5e-8, published.STRONG_X_MAX)
        report = step_verify(regime, max_steps=500, from_end=True)
        assert report.passed
        assert report.steps_checked == 500

    def test_failure_path_recorded_not_raised(self):
        # delta = 10 with a heavily inflated constant: g(z + 10) with
        # a = 1e7 dwarfs f(z), so every step fails and the report says so
        regime = Regime(43.0, 53.0, 1e7, 10.0, 1e300)
        report = step_verify(regime)
        assert not report.passed
        assert report.first_failure == 43.0
        assert report.min_margin < 0

    def test_margin_agrees_with_direct_evaluation(self):
        regime = Regime(43.0, 59.0, A8PI, 5e-8, published.STRONG_X_MAX)
        report = step_verify(regime, max_steps=1)
        with working_precision(192):
            direct = f(43) - g(43 + mpf(regime.delta), mpf(regime.a))
            assert abs(report.min_margin - direct) / abs(direct) < mpf("1e-40")

    def test_halved_delta_still_passes(self):
        # finer grids are implied by the monotone argument; spot-check one
        regime = Regime(43.0, 43.0 + 2e-5, A8PI, 5e-8, published.STRONG_X_MAX)
        fine = Regime(43.0, 43.0 + 2e-5, A8PI, 2.5e-8, published.STRONG_X_MAX)
        assert step_verify(regime).passed
        assert step_verify(fine).passed

    def test_margin_scaling_stable_across_adjacent_windows(self):
        # min_margin relative to g(z_lo) drifts less than 10x between
        # adjacent sub-intervals; a collapse would flag precision loss
        with working_precision(192):
            a = 1 / (8 * mp.pi)
            r1 = step_verify(Regime(43.0, 43.0005, A8PI, 5e-8, 1e30))
            r2 = step_verify(Regime(43.0005, 43.001, A8PI, 5e-8, 1e30))
            s1 = r1.min_margin / g(43.0, a)
            s2 = r2.min_margin / g(43.0005, a)
        assert mpf("0.1") < s1 / s2 < mpf("10")

    def test_precision_doubling_stability(self):
        regime = Regime(43.0, 59.0, A8PI, 5e-8, published.STRONG_X_MAX)
        base = step_verify(regime, max_steps=200, prec=192)
        doubled = step_verify(regime, max_steps=200, prec=384)
        rel = abs(base.min_margin - doubled.min_margin) / doubled.min_margin
        assert rel < mpf("1e-6")

    def test_every_rung_positive_at_both_ends(self):
        # small windows at the start and the (tighter) top of each rung;
        # validates the reconstructed delta schedule across all constants
        for regime in regime_schedule():
            head = step_verify(regime, max_steps=400)
            tail = step_verify(regime, max_steps=400, from_end=True)
            assert head.passed, (regime.a, float(head.min_margin))
            assert tail.passed, (regime.a, float(tail.min_margin))


class TestKernel:
    """The fixed-point stepping kernel against one direct f and g per step."""

    @settings(max_examples=40, deadline=None)
    @given(rung=st.integers(0, len(SCHEDULE) - 1), frac=st.floats(0, 1), n=st.integers(1, 50))
    def test_matches_direct_loop(self, rung, frac, n):
        r = SCHEDULE[rung]
        z0 = r.z_lo + frac * (r.z_hi - r.z_lo - (n + 1) * r.delta)
        regime = Regime(z0, r.z_hi, r.a, r.delta, r.floor_valid)
        report = step_verify(regime, max_steps=n)
        margins = direct_margins(regime, 0, n)
        low, low_at = min(margins, key=lambda m: m[0])  # earliest of equal minima
        assert report.steps_checked == n and report.passed
        assert report.min_margin_at == low_at
        assert rel(report.min_margin, low) < mpf("1e-40")

    def test_window_across_two_anchors(self, monkeypatch):
        # a = 1 is far too large at z = 43: every margin is negative and falls
        # with z, so the minimum sits on the last step, past both anchors
        ei = ramanujan.ei
        calls = []

        def counting_ei(y, prec=None):
            calls.append(float(y))
            return ei(y, prec=prec)

        monkeypatch.setattr(ramanujan, "ei", counting_ei)
        regime = Regime(43.0, 44.0, 1.0, 1e-8, math.inf)
        n = 2 * ramanujan._ANCHOR + 7
        report = step_verify(regime, max_steps=n)
        # window start plus two anchors, each a fresh Ei on both grids; every
        # re-anchor passed its drift check against the carried values
        assert len(calls) == 6
        monkeypatch.setattr(ramanujan, "ei", ei)
        ((last, last_at),) = direct_margins(regime, n - 1, 1)
        assert report.steps_checked == n and report.first_failure == 43.0
        assert report.min_margin_at == last_at
        assert rel(report.min_margin, last) < mpf("1e-40")

    def test_drift_check_raises(self, monkeypatch):
        # an anchor Ei off by 2^-150 relative is far outside 2^-(prec+16)
        ei = ramanujan.ei
        calls = []

        def skewed_ei(y, prec=None):
            calls.append(y)
            value = ei(y, prec=prec)
            return value * (1 + mpf(2) ** -150) if len(calls) > 2 else value

        monkeypatch.setattr(ramanujan, "ei", skewed_ei)
        monkeypatch.setattr(ramanujan, "_ANCHOR", 16)
        with pytest.raises(PrecisionError):
            step_verify(SCHEDULE[0], max_steps=40)

    def test_from_end_window_clamps_last_step(self):
        regime = Regime(43.0, 43.0 + 1234.5 * 5e-8, A8PI, 5e-8, published.STRONG_X_MAX)
        n = 30
        k0 = regime.n_steps - n
        with working_precision(192):
            z_last = mpf(regime.z_lo) + (regime.n_steps - 1) * mpf(regime.delta)
            assert z_last + mpf(regime.delta) > mpf(regime.z_hi)
        report = step_verify(regime, max_steps=n, from_end=True)
        margins = direct_margins(regime, k0, n)
        low, low_at = min(margins, key=lambda m: m[0])
        assert report.min_margin_at == low_at
        assert rel(report.min_margin, low) < mpf("1e-40")
        last = step_verify(regime, max_steps=1, from_end=True)
        with working_precision(192):
            clamped = f(z_last) - g(regime.z_hi, mpf(regime.a))
            assert rel(last.min_margin, clamped) < mpf("1e-40")
            assert rel(last.min_margin, margins[-1][0]) < mpf("1e-40")

    def test_empty_window_rejected(self):
        for steps in (0, -5):
            with pytest.raises(ParameterError):
                step_verify(SCHEDULE[0], max_steps=steps)


class TestRegimeSchedule:
    def test_ladder_structure(self):
        rungs = regime_schedule()
        assert rungs[0].z_lo == 43.0 and rungs[0].z_hi == 59.0
        assert rungs[0].delta == published.RAMANUJAN_DELTA_FIRST
        assert abs(rungs[0].a - A8PI) < 1e-15
        assert rungs[1].z_lo == 59.0 and rungs[1].z_hi == 69.0
        assert rungs[1].a == 1.0
        assert rungs[1].delta == published.RAMANUJAN_DELTA_SECOND
        assert rungs[-1].z_hi == published.RAMANUJAN_Z_END
        assert rungs[-1].a == 1e7

    def test_contiguous_coverage(self):
        rungs = regime_schedule()
        for prev, nxt in zip(rungs, rungs[1:]):
            assert nxt.z_lo == prev.z_hi

    def test_rung_tops_respect_validity(self):
        for r in regime_schedule():
            assert math.exp(r.z_hi) <= r.floor_valid * (1 + 1e-9)

    def test_steps_cover_every_rung_exactly(self):
        # in exact arithmetic on the stored doubles, n_steps - 1 steps stop
        # short of z_hi and n_steps reach it (the last one clamped there)
        for r in regime_schedule():
            z_lo, z_hi, delta = Fraction(r.z_lo), Fraction(r.z_hi), Fraction(r.delta)
            assert z_lo + (r.n_steps - 1) * delta < z_hi <= z_lo + r.n_steps * delta

    def test_deltas_never_below_floor(self):
        assert all(r.delta >= 1e-9 for r in regime_schedule())

    def test_first_rung_top_fits_strong_range(self):
        # e^59 stays below the strong bound's reach 1.101e26
        assert math.exp(59) <= published.STRONG_X_MAX

    def test_second_rung_top_fits_weak_a1_range(self):
        assert math.exp(69) <= 2.165e30

    def test_regime_validation(self):
        with pytest.raises(ParameterError):
            Regime(40.0, 59.0, 1.0, 1e-8, 1e300)  # starts below 43
        with pytest.raises(ParameterError):
            Regime(43.0, 60.0, A8PI, 5e-8, published.STRONG_X_MAX)  # e^60 too high

    @pytest.mark.parametrize("field", ["z_lo", "z_hi", "a", "delta"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_regime_rejects_non_finite(self, field, value):
        fields = dict(z_lo=43.0, z_hi=44.0, a=1.0, delta=1e-8, floor_valid=math.inf)
        fields[field] = value
        with pytest.raises(ParameterError):
            Regime(**fields)

    def test_regime_top_beyond_float_range(self):
        with pytest.raises(ParameterError):
            Regime(43.0, 800.0, 1.0, 1e-8, 1e300)  # e^800 overflows a float
        assert Regime(43.0, 800.0, 1.0, 1e-8, math.inf).z_hi == 800.0


class TestCounterexample:
    def test_small_value_holds(self, tables_10k):
        v = counterexample_check(100, tables_10k)
        assert v.holds
        assert float(v.lhs) == 625.0
        assert 649 < float(v.rhs) < 650

    def test_skip_with_reason_when_tables_short(self, tables_10k):
        v = counterexample_check(published.RAMANUJAN_LAST_COUNTEREXAMPLE, tables_10k)
        assert v.holds is None
        assert "count-only" in v.skipped_reason

    def test_known_failures_at_small_x(self, tables_10k):
        # small counterexamples exist well below the last one; x = 11 is the
        # first odd prime case where pi(x)^2 catches up
        v = counterexample_check(11, tables_10k)
        assert isinstance(v, CounterexampleVerdict)
        assert not v.holds
        assert counterexample_check(12, tables_10k).holds
