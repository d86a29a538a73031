"""Stepping verification: f/g fixtures, monotonicity, windows, schedule."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, to_fixed

from primebounds import published
from primebounds import ramanujan
from primebounds.ramanujan import (
    ParameterError,
    Regime,
    counterexample_check_direct,
    f,
    g,
    regime_schedule,
    step_verify,
)
from primebounds import hiprec
from primebounds.hiprec import PrecisionError, ei, working_precision
from primebounds.primes import prime_counts
from primebounds.verdict import Verdict

from .oracles import (
    advance_taylor,
    r_exact,
    step_coefficient_quad,
    taylor_coefficients,
    taylor_mpf,
)

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
            out.append((f(z) - g(min(z + d, top), a), float(z)))
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
        with working_precision(192):
            base = step_verify(regime, max_steps=200)
        with working_precision(384):
            doubled = step_verify(regime, max_steps=200)
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

        def counting_ei(y):
            calls.append(float(y))
            return ei(y)

        monkeypatch.setattr(ramanujan, "ei", counting_ei)
        regime = Regime(43.0, 44.0, 1.0, 1e-8, math.inf)
        n = 2 * ramanujan._CHUNK + 7
        report = step_verify(regime, max_steps=n)
        # three chunks, each one fresh Ei series on the first grid (the second
        # grid's anchor is derived from it, and every re-anchor passed its
        # check against the carried values), and f and g at the last step,
        # the only one the proven falling margins leave
        assert calls[:3] == [42.0, 42.0 + 1e-8 * ramanujan._CHUNK, 42.0 + 2e-8 * ramanujan._CHUNK]
        assert len(calls) == 5
        monkeypatch.setattr(ramanujan, "ei", ei)
        ((last, last_at),) = direct_margins(regime, n - 1, 1)
        assert report.steps_checked == n and report.first_failure == 43.0
        assert report.min_margin_at == last_at
        assert rel(report.min_margin, last) < mpf("1e-40")

    def test_drift_check_raises(self, monkeypatch):
        # an anchor Ei off by 2^-40 relative is far outside the float64 bound
        # (a few u) on the value carried from the chunk before; unskewed,
        # the same 16-step chunks give the one-chunk verdict
        one_chunk = step_verify(SCHEDULE[0], max_steps=40)
        monkeypatch.setattr(ramanujan, "_CHUNK", 16)
        assert step_verify(SCHEDULE[0], max_steps=40) == one_chunk
        ei = ramanujan.ei
        calls = []

        def skewed_ei(y):
            calls.append(y)
            value = ei(y)
            return value * (1 + mpf(2) ** -40) if len(calls) > 2 else value

        monkeypatch.setattr(ramanujan, "ei", skewed_ei)
        with pytest.raises(PrecisionError):
            step_verify(SCHEDULE[0], max_steps=40)

    def test_one_series_per_chunk(self, monkeypatch):
        # 200-step windows at the head and tail of every rung, whole and in
        # 16-step chunks: each chunk sums the Ei series once, on its first grid
        series = hiprec._ei_series_fixed
        calls = []
        monkeypatch.setattr(hiprec, "_ei_series_fixed", lambda y, prec: calls.append(y) or series(y, prec))
        chunk = ramanujan._Stepper.chunk
        chunks = []

        def spy(self, k, *args):
            before = len(calls)
            ch = chunk(self, k, *args)
            chunks.append(k)
            with working_precision(self.w):
                assert calls[before:] == [self.z_lo + k * self.d - 1]
            return ch

        monkeypatch.setattr(ramanujan._Stepper, "chunk", spy)
        for from_end in (False, True):
            for r in SCHEDULE:
                step_verify(r, max_steps=200, from_end=from_end)
        assert len(chunks) == 2 * len(SCHEDULE)
        monkeypatch.setattr(ramanujan, "_CHUNK", 16)
        step_verify(SCHEDULE[4], max_steps=200)
        assert len(chunks) == 2 * len(SCHEDULE) + 13

    def test_drift_check_catches_a_shifted_second_anchor(self, monkeypatch):
        # the second grid's anchor is derived from the first's series; moved
        # by 2^-40 relative, far outside the float64 bound on the value the
        # chunk before carried there, it is refused, and moved by 2^-80, far
        # inside, it gives the one-chunk verdict
        one_chunk = step_verify(SCHEDULE[0], max_steps=40)
        monkeypatch.setattr(ramanujan, "_CHUNK", 16)
        series = ramanujan._series

        def shifted(shift):
            jumps = []

            def jump(*args):
                s, r2 = series(*args)
                if r2 is not None:
                    jumps.append(r2)
                    r2 += (r2 >> shift) if len(jumps) > 1 else 0
                return s, r2
            return jump

        monkeypatch.setattr(ramanujan, "_series", shifted(80))
        assert step_verify(SCHEDULE[0], max_steps=40) == one_chunk
        monkeypatch.setattr(ramanujan, "_series", shifted(40))
        with pytest.raises(PrecisionError, match="misses its fresh anchor"):
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


def series(t, span, delta, prec=192):
    """The Taylor series step_verify carries e^{-t} Ei(t) on from an anchor at t."""
    w = prec + ramanujan._REPORT_GUARD
    bits = w + ramanujan._FIXED_GUARD
    with working_precision(w):
        t = mpf(t)
        r = ramanujan._fixed(ramanujan.ei(t) * mp.exp(-t), bits)
        return ramanujan._series(r, t, span, mpf(delta), bits)[0]


def at(coeffs, s):
    """Horner's rule over float64 coefficients at one offset, as step_verify runs it."""
    return float(ramanujan._horner(coeffs, np.array([float(s)]))[0])


def r_fixed(t_f, w):
    """e^{-t} Ei(t) at the w-bit fixed-point t_f, rounded down to w bits."""
    with mp.workprec(600):
        return to_fixed(r_exact(mpf(from_man_exp(t_f, -w)))._mpf_, w)


class TestStepKernel:
    """The float64 Taylor series that carries R = e^{-t} Ei(t) through a chunk,
    against the closed-form step's quadrature coefficients, mpmath's ``ei``
    and the derivative chain."""

    @pytest.mark.parametrize("prec", [192, 320])
    @pytest.mark.parametrize("rung", range(len(SCHEDULE)))
    def test_coefficients_match_quadrature(self, rung, prec):
        # the difference polynomial at offset 0 is R(t + delta) - R(t), which the
        # closed form gives as (e^-delta - 1) R(t) + sum (-1)^m c_m / t^(m+1), each
        # c_m = int_0^delta u^m e^{u - delta} du by quadrature; the terms fall by
        # delta/t, so a few of them reach 2^-120
        r = SCHEDULE[rung]
        for t in (r.z_lo - 1, r.z_lo + r.delta):
            sr = series(t, ramanujan._CHUNK * r.delta, r.delta, prec)
            with mp.workprec(400):
                step = (mp.exp(-mpf(r.delta)) - 1) * r_exact(t)
                m, term = 0, mpf(1)
                while term > mpf(2) ** -120 * abs(step):
                    term = step_coefficient_quad(m, r.delta) / mpf(t) ** (m + 1)
                    step += (-1) ** m * term
                    m += 1
                assert abs(sr.d[0] - step) <= min(sr.d_err, 2 * ramanujan._U * abs(step))

    @pytest.mark.parametrize("rung", range(len(SCHEDULE)))
    def test_one_advance_from_exact_r(self, rung):
        # one step, and the whole chunk out to the next anchor, on both grids
        # and at the rung top, within the series' bound and within 3u of R
        r = SCHEDULE[rung]
        span = ramanujan._CHUNK * r.delta
        for t in (r.z_lo - 1, r.z_lo + r.delta, r.z_hi - 1):
            sr = series(t, span, r.delta)
            for s in (r.delta, span):
                with mp.workprec(400):
                    want = r_exact(mpf(t) + mpf(r.delta) * round(s / r.delta))
                    err = abs(at(sr.c, s) - want)
                    assert err <= sr.err and err <= 3 * ramanujan._U * want, (t, s)

    @pytest.mark.parametrize("rung", [0, len(SCHEDULE) - 1])
    def test_carries_like_the_derivative_chain_across_two_anchors(self, rung):
        # both grids of a chunk carried 2 * 4096 + 7 steps by the Taylor series
        # through the derivative chain in 256-bit fixed point (the oracle) agree
        # with the float series at every 1024th step and at the end, within its
        # bound, and the oracle ends on e^{-t} Ei(t)
        r = SCHEDULE[rung]
        w, n = 256, 2 * 4096 + 7
        taylor = taylor_coefficients(r.delta, r.z_lo - 1, w)
        one = 1 << w
        d_f = to_fixed(mpf(r.delta)._mpf_, w)
        z_f = to_fixed(mpf(r.z_lo)._mpf_, w)
        for t_f in (z_f - one, z_f + d_f):
            t = mpf(from_man_exp(t_f, -w))
            sr = series(t, n * r.delta, r.delta)
            x = r_fixed(t_f, w)
            for k in range(1, n + 1):
                x = advance_taylor(x, (one << w) // t_f, taylor, w)
                t_f += d_f
                if k % 1024 == 0 or k == n:
                    with mp.workprec(400):
                        assert abs(at(sr.c, k * r.delta) - mpf(x) / one) <= sr.err, k
            assert abs(x - r_fixed(t_f, w)) <= 1 << (w - 192 - 16)

    @pytest.mark.parametrize("prec", [192, 320])
    @pytest.mark.parametrize("rung", range(len(SCHEDULE)))
    def test_fixed_point_chunk_data_matches_the_mpf_series(self, rung, prec):
        # the head, a 200-step tail (its last step clamped), the clamped last
        # step alone and a linked interior chunk: both grids' polynomials
        # from one Ei series in fixed point give the doubles of the mpf
        # series from a fresh ei on each grid, and R(y_0) from the jump is
        # within 2^-(w-2) of mpmath's own
        r = SCHEDULE[rung]
        n = 200
        stepper = ramanujan._Stepper(r, prec)
        windows = [(0, n, False), (r.n_steps - n, n, False), (r.n_steps - 1, 1, False),
                   (int(0.37 * r.n_steps), n - 1, True)]
        for k, count, link in windows:
            span = (count - 1 + link) * r.delta
            with working_precision(stepper.w):
                z0 = stepper.z_lo + k * stepper.d
                y0 = min(z0 + stepper.d, stepper.top)
                (_, r2, _, _), t1, t2 = stepper.grids(z0, y0, span)
                want1 = taylor_mpf(ei(z0 - 1) * mp.exp(1 - z0), z0 - 1, span, stepper.d)
                want2 = taylor_mpf(ei(y0) * mp.exp(-y0), y0, span, stepper.d)
            for got, want in ((t1, want1), (t2, want2)):
                assert got.c == want.c and got.d == want.d, k
                for name in ("err", "d_max", "d_err"):
                    assert abs(getattr(got, name) - getattr(want, name)) <= 2.0 ** -40 * getattr(want, name)
            with mp.workprec(400):
                assert rel(r2, r_exact(y0)) <= mpf(2) ** -(stepper.w - 2), k

    @pytest.mark.parametrize("fits", [True, False])
    def test_max_terms_boundary(self, fits):
        # the deltas that took exactly 16 and 17 closed-form terms in the
        # 256-bit fixed-point kernel this replaced (the 17-term one went to f
        # and g there): both take the float path and match one f and g per step
        w = 256
        n_terms = 16 if fits else 17
        delta = 42 * 2.0 ** (-(w + 8) * (1 / n_terms + 1 / (n_terms + 1)) / 2)
        regime = Regime(43.0, 44.0, A8PI, delta, math.inf)
        n = 6
        report = step_verify(regime, max_steps=n)
        low, low_at = min(direct_margins(regime, 0, n), key=lambda m: m[0])
        assert report.steps_checked == n
        assert report.min_margin_at == low_at
        assert rel(report.min_margin, low) < mpf("1e-40")


def normalised(regime, k0, n, prec=192):
    """For k0 <= k < k0 + n, e^{-2 z_k} (f(z_k) - g(y_k)) with y_k = min(z_k + delta,
    z_hi), and, for k < k0 + n - 1, the rise e^{-2 z_k} (f(z_(k+1)) - g(z_(k+1) + delta)
    - f(z_k) + g(y_k)) to the next step, unclamped; one f and g per step."""
    with working_precision(prec):
        d, top, a = mpf(regime.delta), mpf(regime.z_hi), mpf(regime.a)
        zs = [mpf(regime.z_lo) + k * d for k in range(k0, k0 + n)]
        fs = [f(z) for z in zs]
        h = [fz - g(min(z + d, top), a) for z, fz in zip(zs, fs)]
        h_next = h[1:]
        if n > 1 and zs[-1] + d > top:
            h_next[-1] = fs[-1] - g(zs[-1] + d, a)
        scale = [mp.exp(-2 * z) for z in zs]
        return ([x * s for x, s in zip(h, scale)],
                [(x1 - x) * s for x1, x, s in zip(h_next, h, scale)])


class TestFloatPath:
    """step_verify's float64 decisions against one f and g per step."""

    @settings(max_examples=10, deadline=None)
    @given(rung=st.integers(0, len(SCHEDULE) - 1),
           where=st.sampled_from(["head", "tail", "interior"]),
           frac=st.floats(0, 1), n=st.integers(2, 500), link=st.booleans())
    def test_margins_and_rises_within_the_bound(self, rung, where, frac, n, link):
        r = SCHEDULE[rung]
        k0 = {"head": 0, "tail": r.n_steps - n, "interior": int(frac * (r.n_steps - n))}[where]
        link = link and where != "tail"
        stepper = ramanujan._Stepper(r, 192)
        ch = stepper.chunk(k0, n - link, link)
        margins, rises = normalised(r, k0, n)
        assert len(ch.margins) == n - link and len(ch.rises) == n - 1
        with working_precision(192):
            assert all(abs(m - want) <= ch.bound for m, want in zip(ch.margins, margins))
            assert all(abs(x - want) <= ch.rise_bound for x, want in zip(ch.rises, rises))

    def test_clamped_last_step_within_the_bound(self):
        # half a step past the last grid point: the window's last margin is
        # formed with y = z_hi, far from the unclamped one, and within B
        regime = Regime(43.0, 43.0 + 1234.5 * 5e-8, A8PI, 5e-8, published.STRONG_X_MAX)
        n = 30
        k0 = regime.n_steps - n
        ch = ramanujan._Stepper(regime, 192).chunk(k0, n, False)
        margins, rises = normalised(regime, k0, n)
        with working_precision(192):
            z = mpf(regime.z_lo) + (regime.n_steps - 1) * mpf(regime.delta)
            unclamped = (f(z) - g(z + mpf(regime.delta), mpf(regime.a))) * mp.exp(-2 * z)
            assert abs(margins[-1] - unclamped) > 1e6 * ch.bound
            assert all(abs(m - want) <= ch.bound for m, want in zip(ch.margins, margins))
            assert all(abs(x - want) <= ch.rise_bound for x, want in zip(ch.rises, rises))

    @pytest.mark.parametrize("regime, n, from_end", [
        (SCHEDULE[0], 30, False),
        (SCHEDULE[1], 30, True),
        (Regime(43.0, 44.0, 1.0, 1e-8, math.inf), 30, False),
        (Regime(43.0, 53.0, 1e7, 10.0, 1e300), 1, False),
    ])
    def test_every_step_rechecked_gives_the_same_verdict(self, monkeypatch, regime, n, from_end):
        # an infinite bound decides nothing in float64 and proves no order, so
        # every step is re-decided and evaluated by f and g (the first from
        # its anchors: one Ei, and a second only where delta > 1/2 puts the
        # second grid out of the first's series' reach)
        want = step_verify(regime, max_steps=n, from_end=from_end)
        ei = ramanujan.ei
        calls = []
        monkeypatch.setattr(ramanujan, "ei", lambda y: calls.append(y) or ei(y))
        monkeypatch.setattr(ramanujan, "_SLACK", math.inf)
        assert step_verify(regime, max_steps=n, from_end=from_end) == want
        assert len(calls) == 2 * n - (regime.delta <= 0.5)

    @pytest.mark.parametrize("rung", [0, 1, 4, 8])
    @pytest.mark.parametrize("from_end", [False, True])
    def test_chunked_window_matches_one_chunk(self, monkeypatch, rung, from_end):
        # 16-step chunks: each re-anchors and checks the carried R and links
        # its last rise to the next; once the rising margins clear the first
        # step's by more than the bound, chunks are proven above it without
        # forming their rises
        want = step_verify(SCHEDULE[rung], max_steps=300, from_end=from_end)
        monkeypatch.setattr(ramanujan, "_CHUNK", 16)
        chunk = ramanujan._Stepper.chunk
        above = []

        def spy(self, *args):
            ch = chunk(self, *args)
            above.append(bool(ch.above.all()))
            return ch

        monkeypatch.setattr(ramanujan._Stepper, "chunk", spy)
        assert step_verify(SCHEDULE[rung], max_steps=300, from_end=from_end) == want
        assert len(above) == 19 and not above[0] and above[-1]

    def test_a_beyond_float_range(self):
        # a y e^{-y/2} squared overflows a double: every float margin is
        # non-finite, so every step is re-decided by f and g
        regime = Regime(43.0, 44.0, 1e308, 1e-8, math.inf)
        report = step_verify(regime, max_steps=3)
        low, low_at = min(direct_margins(regime, 0, 3), key=lambda m: m[0])
        assert not report.passed and report.first_failure == 43.0
        assert report.min_margin_at == low_at
        assert rel(report.min_margin, low) < mpf("1e-40")

    def test_grid_must_be_exact_at_the_working_precision(self):
        with pytest.raises(ParameterError, match="not exact at 192 bits"):
            step_verify(Regime(43.0, 44.0, 1.0, 1e-90, math.inf), max_steps=3)


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
    def test_small_value_holds(self):
        v = counterexample_check_direct(100)
        assert v.holds
        assert float(v.lhs) == 625.0
        assert 649 < float(v.rhs) < 650

    def test_known_failures_at_small_x(self):
        # small counterexamples exist well below the last one; x = 11 is the
        # first odd prime case where pi(x)^2 catches up
        v = counterexample_check_direct(11)
        assert isinstance(v, Verdict)
        assert not v.holds
        assert counterexample_check_direct(12).holds

    @pytest.mark.parametrize("x", [2, 3, 11, 12, 100, 38358, 999_983, 10 ** 6])
    def test_direct_count_matches_tables(self, tables_1e6, x):
        # the count-only pi(x/e) and pi(x) against the primes of the per-jump tables
        pi_xe, pi_x = np.searchsorted(tables_1e6.primes, [ramanujan._floor_over_e(x), x],
                                      side="right").tolist()
        want = ramanujan._verdict_from_counts(x, pi_x, pi_xe)
        assert counterexample_check_direct(x) == want

    def test_counterexample_boundary(self):
        """The inequality fails at the last counterexample and holds just above it.

        One ``prime_counts`` call counts at floor(x/e) and x for both x, and
        the verdicts come from the counts as in the CLI's count-only check.
        """
        last = published.RAMANUJAN_LAST_COUNTEREXAMPLE
        xs = [last, last + 1]
        counts = prime_counts([ramanujan._floor_over_e(x) for x in xs] + xs)
        at_last, above = (ramanujan._verdict_from_counts(x, counts[2 + i], counts[i])
                          for i, x in enumerate(xs))
        assert at_last.holds is False
        assert at_last.lhs >= at_last.rhs
        assert above.holds is True

    @pytest.mark.parametrize("x", [1, 0, -5])
    def test_x_below_2_rejected(self, x):
        # log x is 0 at 1 and not real below; x = 2 is a genuine failure
        with pytest.raises(ParameterError, match="x >= 2"):
            counterexample_check_direct(x)
        assert counterexample_check_direct(2).holds is False
