"""Extended profile: long-running verifications excluded from the default run.

Select with ``pytest -m extended``.  The stepping check decides each step in
float64 under a proven bound, at 50-59 ns per step over whole rungs on a
2 vCPU KVM guest, so a full rung at the published delta (3.2e8 to 5e9
steps) takes 18 s to 5 minutes, and the whole ladder 25 minutes.  The
profile runs the rung with the fewest steps, rung 0, in full (about 20 s),
a million-step block (0.08 s through 15 chunk re-anchor checks, 10.5 s with
the fixed-point kernel this replaced) and 2e4-step tails of every rung.
The counterexample boundary at 3.84e10 is four prime counts, about 0.25 s
together, so it runs in the default suite (``tests/test_ramanujan.py``).
The prime tables are checked at their cap, ``DETAIL_LIMIT_MAX`` = 2e7, with
the ten ``verify-primes`` scans there against reading every jump, and plain
prime counts at theirs, ``PRIME_COUNT_MAX`` = 1e12 (1-2 s).
"""

from itertools import accumulate

import numpy as np
import pytest

from primebounds import published
from primebounds.primes import (
    DETAIL_LIMIT_MAX,
    PRIME_COUNT_MAX,
    SCALE,
    _SCAN_BLOCK,
    _exact_quotients,
    _log_fixed,
    _pair_sums,
    build_tables,
    prime_counts,
    scan_inequalities,
)
from primebounds.ramanujan import Regime, regime_schedule, step_verify

from .oracles import scan_inequality_per_read
from .test_primes import VERIFY_SPECS, _assert_log_views_within_bound, _report_fields

A8PI = 0.039788735772973836

pytestmark = pytest.mark.extended


def test_million_step_block_first_rung():
    regime = Regime(43.0, 59.0, A8PI, 5e-8, published.STRONG_X_MAX)
    report = step_verify(regime, max_steps=1_000_000)
    assert report.passed
    assert report.min_margin > 0


def test_rung_tail_windows_all_regimes():
    """2e4 steps at the top of every rung: the tightest end of each range."""
    for regime in regime_schedule():
        report = step_verify(regime, max_steps=20_000, from_end=True)
        assert report.passed, (regime, float(report.min_margin))


def test_whole_first_rung():
    """All 320,000,001 steps of rung 0, z in (43, 59], the rung with the fewest."""
    regime = regime_schedule()[0]
    report = step_verify(regime, max_steps=regime.n_steps)
    assert report.passed and report.first_failure is None
    assert report.steps_checked == regime.n_steps == 320_000_001
    # the margins rise through the rung, so its minimum is at its foot
    assert report.min_margin_at == 43.0
    assert float(report.min_margin) == 2.3114524195448934e+27


def test_tables_at_the_detail_limit():
    """``build_tables`` at its cap, the one size where starred Pi numerators
    pass 2^53 and the theta and psi columns reach 121 bits."""
    tables = build_tables(DETAIL_LIMIT_MAX)
    ns, ms = tables.jumps.tolist(), tables.jump_m.tolist()
    under = tables.jump_p.tolist()
    assert all(p ** m == n for p, m, n in zip(under, ms, ns))
    logs = {p: _log_fixed(p) for p in tables.primes.tolist()}
    # theta and psi: running sums of the logs of the primes under the jumps
    assert tables.right["theta"] == list(accumulate(logs[p] if m == 1 else 0
                                                    for p, m in zip(under, ms)))
    assert tables.right["psi"] == list(accumulate(logs[p] for p in under))
    assert tables.right["psi"][-1].bit_length() == 121
    # pi and Pi: int64 columns equal to running sums of Python ints
    for kind, steps in (("pi", [int(m == 1) for m in ms]), ("Pi", [SCALE["Pi"] // m for m in ms])):
        assert tables.right[kind].dtype == np.int64
        assert tables.right[kind].tolist() == list(accumulate(steps)), kind
    assert tables.right["Pi"][-1] < 2 ** 53
    # pi and Pi views: each exact read divided as a Python int, correctly
    # rounded; theta and psi views: within their stated bound
    views = tables.float_views
    for kind in ("pi", "Pi"):
        col = tables.right[kind].tolist()
        sums = _pair_sums(tables.right[kind])
        right = [n / SCALE[kind] for n in col]
        assert views["right"][kind].tolist() == right, kind
        assert views["left"][kind].tolist() == [0.0] + right[:-1], kind
        assert views["at"][kind].tolist() == [n / (2 * SCALE[kind]) for n in sums.tolist()], kind
        assert np.array_equal(views["at"][kind], _exact_quotients(sums, 2 * SCALE[kind])), kind
        if kind == "Pi":   # these reads take the exact per-entry division
            assert int(np.count_nonzero(sums >= 2 ** 53)) == 429_871
    for kind in ("theta", "psi"):
        _assert_log_views_within_bound(tables, kind)


def test_scans_at_the_detail_limit_match_reading_every_jump():
    """The ten ``verify-primes`` scans at 2e7, one pass in which a scan may
    clear any of 4,967 blocks of jumps, give the verdicts of reading every
    jump."""
    tables = build_tables(DETAIL_LIMIT_MAX)
    assert -(-len(tables.jumps) // _SCAN_BLOCK) == 4_967
    for spec, got in zip(VERIFY_SPECS, scan_inequalities(VERIFY_SPECS, 2, DETAIL_LIMIT_MAX, tables)):
        assert _report_fields(got) == _report_fields(
            scan_inequality_per_read(spec, 2, DETAIL_LIMIT_MAX, tables)), spec


def test_prime_count_at_the_cap():
    """pi(1e12), the largest count ``prime_counts`` accepts."""
    assert PRIME_COUNT_MAX == 10 ** 12
    assert prime_counts([PRIME_COUNT_MAX]) == [37_607_912_018]
