"""Published reference values the toolkit verifies itself against.

These are frozen targets from the literature being checked, kept separate
from anything the engine derives: comparison output marks them as reference
values, never as results.  The few cited inputs the derivations start
from (the comparison constant, the first two Ramanujan rung deltas) are
read from here too, so each is written once.  Constants named here are
exercised throughout the test suite; each carries the convention used when
comparing.
"""

from __future__ import annotations

T_DEFAULT = 3.0e12

# threshold constants K with K/loglog(x) sqrt(x/log x) <= T (strong shape),
# and the largest x satisfying the inequality at T = 3e12
STRONG_CONSTANT = 9.06
STRONG_X_MAX = 1.101e26

# the earlier comparison bound K sqrt(x/log x) <= T and its reach at T = 3e12
COMPARISON_K = 4.92
COMPARISON_X_MAX = 2.169e25

# (T0, K, x_max): strong-variant constants at higher verification heights
TABLE1 = (
    (1.0e13, 8.94, 1.335e27),
    (1.0e14, 8.76, 1.550e29),
    (1.0e15, 8.64, 1.762e31),
)

# (a, K, x_max): weak variant |pi - li| < a sqrt(x) log x under K sqrt(x/log^3 x) <= T
TABLE2 = (
    (1.0, 1.19, 2.165e30),
    (10.0, 0.117, 2.738e32),
    (100.0, 0.0116, 3.360e34),
    (1.0e3, 0.00116, 4.004e36),
    (1.0e4, 1.16e-4, 4.723e38),
    (1.0e5, 1.16e-5, 5.522e40),
    (1.0e6, 1.16e-6, 6.404e42),
    (1.0e7, 1.16e-7, 7.375e44),
)

# the four strong-variant iteration tuples (A, B, C, D, E) of the published
# derivation, in order
STRONG_ITERATION_STATES = (
    (2.169e25, 9.65, 2.44, 6.0, 16.0),
    (9.68e25, 9.34, 2.43, 5.0, 16.0),
    (1.03e26, 9.08, 2.42, 2.4, 16.8),
    (1.096e26, 9.06, 2.42, 2.34, 16.8),
)

# the two published weak-variant tuples for a = 1
WEAK_ITERATION_STATES = (
    (1.101e26, 1.2, 2.017, 0.0, 2.4),
    (2.128e30, 1.19, 2.015, 0.0, 2.38),
)

# printed error-term coefficients of the first two strong iterations:
# (coef1, coef2, alpha3, coef4, coef5a) with coef5b = 0.51 throughout
PROFILE_FIRST = (0.000032, 0.0293, 2.8, 0.142, 0.12625)
PROFILE_SECOND = (0.0000839, 0.02928, 2.751, 0.1411, 0.12625)

# printed aggregate error values at the respective thresholds
E_AT_A_FIRST = -0.0976
E_AT_A_SECOND = -0.0967

# sharp lower thresholds of the six strong-variant inequalities (a = 1/8pi)
THRESHOLDS_STRONG = {
    "psi_sq": 59,
    "theta_sq": 599,
    "psi_shift": 5000,   # shift C = 3
    "theta_shift": 5000,  # shift C = 2
    "Pi_li": 59,
    "pi_li": 2657,
}
PSI_SHIFT_C = 3.0
THETA_SHIFT_C = 2.0

# weak variant at a = 1
THRESHOLDS_WEAK = {
    "psi_sq": 3,
    "theta_sq": 3,
    "Pi_li": 2,
    "pi_li": 2,
}

# partial-summation anchor constants at x0 = 5000 (values to two decimals)
ANCHOR_AT_5000 = 4.91
CREDIT_AT_5000 = 5.62

# Ramanujan inequality: last integer counterexample, and the verified range top
RAMANUJAN_LAST_COUNTEREXAMPLE = 38_358_837_682
RAMANUJAN_Z_END = 103
RAMANUJAN_DELTA_FIRST = 5e-8    # rung (43, 59], a = 1/8pi
RAMANUJAN_DELTA_SECOND = 2.5e-8  # rung (59, 69], a = 1


def dominates_table1(row, published_row) -> bool:
    """Engine row (T0, K, x_max) is at least as strong as the published one:
    K at most one printed ulp (0.01) above it, x_max within 0.5% below it."""
    _, k, x = row
    _, pk, px = published_row
    return float(k) <= pk + 0.01 and float(x) >= 0.995 * px


def dominates_table2(row, published_row) -> bool:
    """The same for a row (a, K, x_max): K at most 1e-6 relative above."""
    _, k, x = row
    _, pk, px = published_row
    return float(k) <= pk * (1 + 1e-6) and float(x) >= 0.995 * px
