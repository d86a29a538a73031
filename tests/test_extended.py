"""Extended profile: long-running verifications excluded from the default run.

Select with ``pytest -m extended``.  The counterexample boundary takes one
sieve pass to 3.84e10, about 2.5 minutes.  A full rung at the published delta
is 3.2e8 to 5e9 steps at 9-15 us each, one to 14 hours, so it is sized down
here to a million-step block (11 s on a 2 vCPU KVM guest) with the full-rung
entry point left to the CLI.
"""

import pytest

from primebounds import published
from primebounds.primes import prime_counts
from primebounds.ramanujan import (
    MIN_STEP_PRECISION,
    Regime,
    _floor_over_e,
    _verdict_from_counts,
    step_verify,
)

A8PI = 0.039788735772973836

pytestmark = pytest.mark.extended


def test_counterexample_boundary():
    """The inequality fails at the last counterexample and holds just above it.

    One sieve pass counts at floor(x/e) and x for both x, and the verdicts
    come from the counts as in the CLI's count-only check.
    """
    last = published.RAMANUJAN_LAST_COUNTEREXAMPLE
    xs = [last, last + 1]
    prec = MIN_STEP_PRECISION
    counts = prime_counts([_floor_over_e(x, prec) for x in xs] + xs)
    at_last, above = (_verdict_from_counts(x, counts[2 + i], counts[i], prec)
                      for i, x in enumerate(xs))
    assert at_last.holds is False
    assert at_last.lhs >= at_last.rhs
    assert above.holds is True


def test_million_step_block_first_rung():
    regime = Regime(43.0, 59.0, A8PI, 5e-8, published.STRONG_X_MAX)
    report = step_verify(regime, max_steps=1_000_000)
    assert report.passed
    assert report.min_margin > 0


def test_rung_tail_windows_all_regimes():
    """2e4 steps at the top of every rung: the tightest end of each range."""
    from primebounds.ramanujan import regime_schedule

    for regime in regime_schedule():
        report = step_verify(regime, max_steps=20_000, from_end=True)
        assert report.passed, (regime, float(report.min_margin))
