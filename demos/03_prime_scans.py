"""Exact desk-scale verification of every inequality's sharp threshold.

The analytic bounds take over where sieving stops; below that, the claims
are checked exactly.  The scan evaluates each inequality at every point
where either side can change: the one-sided limits and the normalized value
at every prime power.  The reported thresholds are sharp -- each bound
genuinely fails just below its published starting point.
"""

import math

from mpmath import mp

from primebounds.engine import partial_summation_slack
from primebounds.primes import (
    InequalitySpec,
    build_tables,
    scan_inequalities,
    threshold_consistent,
)

A8PI = 1 / (8 * math.pi)

print("building exact tables to 1e6 ...")
tables = build_tables(10 ** 6)
print(f"{len(tables.jumps)} prime-power jump points\n")

CLAIMS = [
    ("pi_li", A8PI, None, 2657, "|pi - li| < sqrt(x) log x / 8pi"),
    ("Pi_li", A8PI, None, 59, "|Pi - li| < sqrt(x) log x / 8pi"),
    ("psi_sq", A8PI, None, 59, "|psi - x| < sqrt(x) log^2 x / 8pi"),
    ("theta_sq", A8PI, None, 599, "|theta - x| < sqrt(x) log^2 x / 8pi"),
    ("psi_shift", A8PI, 3.0, 5000, "|psi - x| < sqrt(x) log x (log x - 3) / 8pi"),
    ("theta_shift", A8PI, 2.0, 5000, "|theta - x| < sqrt(x) log x (log x - 2) / 8pi"),
    ("psi_sq", 1.0, None, 3, "|psi - x| < sqrt(x) log^2 x"),
    ("pi_li", 1.0, None, 2, "|pi - li| < sqrt(x) log x"),
]

# one scan of every claim, each verdict the one a scan of its spec alone gives
SPECS = [InequalitySpec(kind, a, C=C) for kind, a, C, _, _ in CLAIMS]
REPORTS = scan_inequalities(SPECS, 2, 10 ** 6, tables)

for (kind, a, C, threshold, text), rep in zip(CLAIMS, REPORTS):
    status = "confirmed" if threshold_consistent(rep, threshold) else "NOT CONFIRMED"
    print(f"{text}")
    print(
        f"  published from x >= {threshold}: {status}; last real-x violation "
        f"{rep.last_violation} ({rep.last_violation_side}), last integer violation "
        f"{rep.last_integer_violation}\n"
    )

print("the one nuance: the Pi bound from 59 holds at integer arguments, while")
print("on the real line violations persist up to (not including) 97:")
rep = REPORTS[SPECS.index(InequalitySpec("Pi_li", A8PI))]
print(f"  last integer violation {rep.last_integer_violation}, "
      f"last real-x violation just below {rep.last_violation}\n")

print("partial-summation anchor at x0 = 5000 (the theta -> pi step):")
with mp.workprec(192):
    slack = partial_summation_slack(5000, 1 / (8 * mp.pi), tables)
print(f"  anchor {mp.nstr(slack.anchor, 4)} vs credit {mp.nstr(slack.credit, 4)}: "
      f"slack {mp.nstr(slack.slack, 4)} (negative closes the chain)")
