"""Extended profile: long-running verifications excluded from the default run.

Select with ``pytest -m extended``.  A full rung at the published delta is
3.2e8 to 5e9 steps at about 10 us each, one to 15 hours, so it is sized down
here to a million-step block (12 s on a 2 vCPU KVM guest, through 244 anchor
drift checks) with the full-rung entry point left to the CLI.  The counterexample boundary at 3.84e10 is four prime
counts, about 1.3 s together, so it runs in the default suite
(``tests/test_ramanujan.py``).
"""

import pytest

from primebounds import published
from primebounds.ramanujan import Regime, step_verify

A8PI = 0.039788735772973836

pytestmark = pytest.mark.extended


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
