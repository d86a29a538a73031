"""Reference values the benchmark checks the program's outputs against.

They are copied from the paper (and, where noted, from the README's stated
conventions or from standard tables of pi(x)), not read from the package,
so a change to the code under test -- including its bundled
``published.py`` -- cannot move its own yardstick.
"""

from __future__ import annotations

import math

# strong variant at T = 3e12: K = 9.06 and x_max = 1.101e26 (printed
# truncated to four digits, so the regenerated reach lies in [1.101, 1.102))
T_DEFAULT = 3.0e12
STRONG_K = 9.06
STRONG_X_MAX = 1.101e26

# Table 1 (T0, K, x_max), led by the T = 3e12 row
TABLE1 = (
    (3.0e12, 9.06, 1.101e26),
    (1.0e13, 8.94, 1.335e27),
    (1.0e14, 8.76, 1.550e29),
    (1.0e15, 8.64, 1.762e31),
)

# Table 2 (a, K, x_max), weak variant at T = 3e12
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

# a regenerated row must match or dominate its published row: K at most one
# printed unit (Table 1) or a relative hair (Table 2) above, reach at least
# 99.5% of the published reach
TABLE1_K_TOL = 0.01
TABLE2_K_REL = 1e-6
X_FRAC = 0.995
# how far below the published row at the upper bracketing height a
# regenerated K may fall at an intermediate height; regenerated rows beat
# the paper by up to 0.05 (8.59 against 8.64 at T0 = 1e15)
K_BRACKET_SLACK = 0.1
# relative residual allowed when x_max is substituted back into its
# threshold equation (the program solves to 1e-13 in x)
THRESHOLD_RESIDUAL = 1e-9

# sharp low thresholds: the bound holds for x >= threshold
THRESHOLDS_STRONG = {
    "psi_sq": 59,
    "theta_sq": 599,
    "psi_shift": 5000,
    "theta_shift": 5000,
    "Pi_li": 59,
    "pi_li": 2657,
}
THRESHOLDS_WEAK = {"psi_sq": 3, "theta_sq": 3, "Pi_li": 2, "pi_li": 2}
# the README documents the Pi bound as holding from 59 at integers but only
# from 97 on the real line; every other bound holds from its threshold under
# both readings
INTEGER_ONLY = {"Pi_li": 97}

# zero-ordinate fixture: all zeros below height ~5000
N_ZEROS = 4522

# pi(x) from standard tables
PRIME_COUNTS = {10 ** 9: 50_847_534, 2 * 10 ** 8: 11_078_937, 10 ** 7: 664_579}

# the Ramanujan ladder: z = log x in (43, 103], first rung under the sharp
# constant 1/(8 pi) with delta 5e-8, second (59, 69] at a = 1 with
# delta 2.5e-8, then one rung per weak-table row
LADDER_Z = (43.0, 103.0)
LADDER_RUNGS = 9
LADDER_FIRST = (43.0, 59.0, 1 / (8 * math.pi), 5e-8)
LADDER_SECOND = (59.0, 69.0, 1.0, 2.5e-8)


def strong_lhs(K: float, x: float) -> float:
    """K / loglog(x) * sqrt(x / log x), the strong threshold shape."""
    L = math.log(x)
    return K / math.log(L) * math.sqrt(x / L)


def weak_lhs(K: float, x: float) -> float:
    """K * sqrt(x / log^3 x), the weak threshold shape."""
    L = math.log(x)
    return K * math.sqrt(x / L ** 3)
