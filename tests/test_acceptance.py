"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines and timings inline.
"""

import time

from mpmath import mp, mpf

from primebounds import published
from primebounds.engine import (
    ThresholdEquation,
    iterate,
    partial_summation_slack,
    solve_x_max,
    table1,
    table2,
)
from primebounds.error_terms import (
    IterationState,
    PRINTED_FIRST,
    PRINTED_REFINED,
    derive_profile,
    e_total,
    round_up_sig,
    verify_decreasing,
)
from primebounds.hiprec import bessel_i1, d_of, li, working_precision
from primebounds.kernel import KernelParams, a_weight
from primebounds.primes import (
    InequalitySpec,
    build_tables,
    scan_inequality,
    threshold_consistent,
)
from primebounds.ramanujan import Regime, step_verify
from primebounds.zeros import check_kernel_weights, check_zero_sum

from .oracles import bessel_i1_series

A8PI = 0.039788735772973836


class _Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.t0


def _report(n, label, ok, elapsed):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {label} ({elapsed:.2f}s)")
    assert ok, f"criterion {n} failed: {label}"


def _sig3(x):
    with mp.workprec(60):
        return mp.nstr(mpf(x), 3)


def test_criterion_1_threshold_reproduction():
    with _Timer() as t:
        comparison = solve_x_max(ThresholdEquation("comparison", 4.92, 3e12))
        strong = solve_x_max(ThresholdEquation("strong", 9.06, 3e12))
        ok = (
            _sig3(comparison) == _sig3(2.169e25)
            and _sig3(strong) == _sig3(1.101e26)
        )
    _report(1, f"x_max 4.92->{_sig3(comparison)}, 9.06->{_sig3(strong)}", ok and t.elapsed < 1.0, t.elapsed)


def test_criterion_2_aggregate_error_values():
    with _Timer() as t:
        s1 = IterationState(*published.STRONG_ITERATION_STATES[0])
        s2 = IterationState(*published.STRONG_ITERATION_STATES[1])
        e1 = e_total(s1.A, s1, derive_profile(s1, rounding=PRINTED_FIRST))
        e2 = e_total(s2.A, s2, derive_profile(s2, rounding=PRINTED_REFINED))
        ok = abs(e1 - mpf("-0.0976")) < mpf("0.0005") and abs(e2 - mpf("-0.0967")) < mpf("0.0005")
    _report(2, f"E(A) = {float(e1):.5f}, {float(e2):.5f}", ok and t.elapsed < 1.0, t.elapsed)


def test_criterion_3_coefficient_rederivation():
    with _Timer() as t:
        p = derive_profile(IterationState(*published.STRONG_ITERATION_STATES[0]))
        ok = (
            mpf("0.0000316") < p.coef1 < mpf("0.0000317")
            and mpf("0.0292") < p.coef2 < mpf("0.0293")
            and mpf("0.141") < p.coef4 < mpf("0.142")
            and float(round_up_sig(p.coef1, 2)) == 0.000032
            and float(round_up_sig(p.coef2, 3)) == 0.0293
            and float(round_up_sig(p.coef4, 3)) == 0.142
        )
    _report(3, "(0.0000316.., 0.0292.., 0.141..) -> (0.000032, 0.0293, 0.142)", ok and t.elapsed < 1.0, t.elapsed)


def test_criterion_4_full_iteration_and_tables():
    with _Timer() as t:
        report = iterate(3e12)
        ok = (
            len(report.rounds) <= 4
            and float(report.final_constant) <= 9.06
            and float(report.x_max) >= 1.095e26
        )
        rows1 = table1([r[0] for r in published.TABLE1])
        for row, pub in zip(rows1, published.TABLE1):
            ok &= float(row[1]) <= pub[1] + 1e-12
            ok &= float(row[2]) >= 0.995 * pub[2]
        rows2 = table2([r[0] for r in published.TABLE2])
        for row, pub in zip(rows2, published.TABLE2):
            ok &= float(row[1]) <= pub[1] * (1 + 1e-9)
            ok &= float(row[2]) >= 0.995 * pub[2]
    _report(
        4,
        f"K={float(report.final_constant)}, x_max={float(report.x_max):.4g}, "
        f"table1 K={[float(r[1]) for r in rows1]}, table2 dominated",
        ok and t.elapsed < 300.0,
        t.elapsed,
    )


# the named threshold claims of the sieve criterion, plus the Pi finding
_SCAN_CLAIMS = [
    ("pi_li", A8PI, None, 2657),
    ("psi_sq", A8PI, None, 59),
    ("theta_sq", A8PI, None, 599),
    ("psi_shift", A8PI, published.PSI_SHIFT_C, 5000),
    ("theta_shift", A8PI, published.THETA_SHIFT_C, 5000),
    ("psi_sq", 1.0, None, 3),
    ("theta_sq", 1.0, None, 3),
    ("Pi_li", 1.0, None, 2),
    ("pi_li", 1.0, None, 2),
]

_FROZEN = {
    ("pi_li", A8PI): (2657.0, "left", 2656),
    ("psi_sq", A8PI): (59.0, "left", 40),
    ("theta_sq", A8PI): (599.0, "left", 598),
    ("psi_shift", A8PI): (227.0, "left", 226),
    ("theta_shift", A8PI): (2657.0, "left", 2656),
    ("psi_sq", 1.0): (3.0, "left", 2),
    ("theta_sq", 1.0): (3.0, "left", 2),
    ("Pi_li", 1.0): (None, None, None),
    ("pi_li", 1.0): (None, None, None),
}


def test_criterion_5_sieve_verification(tables_1e6):
    with _Timer() as t:
        ok = True
        for kind, a, C, threshold in _SCAN_CLAIMS:
            spec = InequalitySpec(kind, a, C=C)
            rep = scan_inequality(spec, 2, 10 ** 6, tables_1e6)
            ok &= threshold_consistent(rep, threshold)
            frozen = _FROZEN[(kind, a)]
            ok &= (rep.last_violation, rep.last_violation_side, rep.last_integer_violation) == frozen
        # sixth strong kind: the Pi bound's threshold holds at integer
        # arguments (59) while real-x violations persist below 97
        rep = scan_inequality(InequalitySpec("Pi_li", A8PI), 2, 10 ** 6, tables_1e6)
        ok &= rep.last_integer_violation == 58
        ok &= (rep.last_violation, rep.last_violation_side) == (97.0, "left")
        ok &= threshold_consistent(rep, 97)
    _report(5, "six kinds + weak set reproduce thresholds (Pi: 59 at integers, 97 real-x)", ok and t.elapsed < 120.0, t.elapsed)


def test_criterion_6_partial_summation_constants():
    with _Timer() as t:
        small = build_tables(10 ** 4)  # includes the 5000-sieve in the timing
        with working_precision(192):
            rep = partial_summation_slack(5000, 1 / (8 * mp.pi), small)
        ok = (
            abs(rep.anchor - mpf("4.91")) < mpf("0.01")
            and abs(rep.credit - mpf("5.62")) < mpf("0.01")
            and rep.slack < 0
        )
    _report(6, f"anchor={float(rep.anchor):.4f}, credit={float(rep.credit):.4f}, slack<0", ok and t.elapsed < 10.0, t.elapsed)


def test_criterion_7_zero_data_lemma(zero_list):
    with _Timer() as t:
        ok = len(zero_list) >= 4520
        sum_verdict = check_zero_sum(zero_list, 5000)
        ok &= sum_verdict.passed and sum_verdict.margin > 0
        import dataclasses

        first100 = dataclasses.replace(zero_list, gammas=zero_list.gammas[:100])
        for params in (
            KernelParams(35.17, 2.43e-11),
            KernelParams(34.92, 1.2e-11),
            KernelParams(35.0, 1e-8),
        ):
            v = check_kernel_weights(first100, params)
            ok &= v.passed and v.checked == 100 and v.max_weight <= 1
    _report(
        7,
        f"sum 2/gamma = {float(sum_verdict.empirical_sum):.4f} <= {float(sum_verdict.bound):.4f}; weights in (0,1]",
        ok and t.elapsed < 5.0,
        t.elapsed,
    )


def test_criterion_8_stepping_windows():
    with _Timer() as t:
        r1 = Regime(43.0, 59.0, A8PI, 5e-8, published.STRONG_X_MAX)
        r2 = Regime(59.0, 69.0, 1.0, 2.5e-8, 2.165e30)
        ok = True
        margins = {}
        for name, regime in (("z43", r1), ("z59", r2)):
            with working_precision(192):
                rep = step_verify(regime, max_steps=20000)
            ok &= rep.passed and rep.steps_checked == 20000 and rep.min_margin > 0
            with working_precision(384):
                doubled = step_verify(regime, max_steps=20000)
            ok &= doubled.passed
            rel = abs(rep.min_margin - doubled.min_margin) / doubled.min_margin
            ok &= rel < mpf("1e-6")
            margins[name] = (float(rep.min_margin), float(rel))
    _report(
        8,
        f"2e4 steps at z=43 and z=59 pass; precision-doubling drift {margins['z43'][1]:.2e}, {margins['z59'][1]:.2e}",
        ok,
        t.elapsed,
    )


def test_criterion_9_property_suites(tables_1e6):
    with _Timer() as t:
        ok = True
        with working_precision(192):
            # sandwich on c-grids for two base points
            for c0 in (mpf(5), mpf(35)):
                d0 = d_of(c0)
                c = c0
                while c <= 100 * c0:
                    ratio = bessel_i1(c) / (2 * mp.sinh(c))
                    ok &= d0 / mp.sqrt(2 * mp.pi * c) <= ratio <= 1 / mp.sqrt(2 * mp.pi * c)
                    c *= mpf("1.45")
            # a_weight sweeps
            for params in (KernelParams(35.17, 2.43e-11), KernelParams(35.0, 1e-8)):
                edge = float(mpf(params.c) / mpf(params.eps) * (1 - mpf("1e-12")))
                for k in range(1, 1001):
                    w = a_weight(edge * k / 1000, params)
                    ok &= bool(0 < w <= 1)
        # aggregate error and the three auxiliary ratios decreasing
        s1 = IterationState(*published.STRONG_ITERATION_STATES[0])
        profile = derive_profile(s1, rounding=PRINTED_FIRST)
        ok &= bool(verify_decreasing(lambda x: e_total(x, s1, profile), s1.A, s1.A * 1e4, 256))
        ok &= bool(verify_decreasing(
            lambda x: (mpf(x) + 1) / mp.sinh(s1.c_of(x)) / mp.sqrt(mpf(x)), s1.A, s1.A * 1e3, 128))
        ok &= bool(verify_decreasing(
            lambda x: mp.exp(mpf("0.71") * mp.sqrt(s1.c_of(x) * s1.eps_of(x))), s1.A, s1.A * 1e3, 128))
        ok &= bool(verify_decreasing(
            lambda x: mp.log(3 * s1.c_of(x)) / mp.log(mp.log(mpf(x))), s1.A, s1.A * 1e3, 128))
        # oracle agreement to 12 significant digits
        for x, frozen in ((2, "1.045163780117492784845"), (10, "6.165599504787297937523"),
                          (1000, "177.6096579901522266876"), (10 ** 6, "78627.54915946218191986")):
            ok &= bool(abs(li(x) - mpf(frozen)) / mpf(frozen) < mpf("1e-12"))
        ok &= bool(abs(bessel_i1(1) - bessel_i1_series(1)) / bessel_i1(1) < mpf("1e-12"))
        # restart identity: a build cut into segments, each restarting the
        # sieve, equals the one-segment build, exact columns included
        whole = build_tables(10 ** 5)
        cut = build_tables(10 ** 5, segment_size=2 ** 14)
        ok &= set(whole.right) == {"pi", "theta", "psi", "Pi"}
        ok &= all([int(v) for v in whole.right[kind]] == [int(v) for v in cut.right[kind]]
                  for kind in whole.right)
        ok &= list(whole.jumps) == list(cut.jumps)
        ok &= list(whole.jump_m) == list(cut.jump_m)
    _report(9, "sandwich, weight sweeps, monotonicity, oracle digits, restart identity", ok and t.elapsed < 60.0, t.elapsed)
