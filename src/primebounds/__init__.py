"""Verification toolkit for explicit prime-counting bounds under partial
verification of the zeta zeros.

Re-derives the threshold constants tying the bounds' reach to the
verification height, validates the zero-sum and kernel-weight lemmas against
real zero data, reproduces the sharp low thresholds by exact sieving, and
runs the monotone stepping verification of the classical prime-counting
inequality pi(x)^2 < (e x / log x) pi(x/e).
"""

from .hiprec import (
    DEFAULT_PRECISION_BITS,
    bessel_i1,
    d_of,
    ei,
    get_default_precision,
    li,
    working_precision,
)
from .kernel import (
    KernelParams,
    a_weight,
    ell_normalizer,
    ell_real,
    psi_smoothing_bound,
    tail_bound_high,
    tail_bound_mid,
    zero_sum_bound,
)
from .error_terms import (
    BoundVariant,
    ErrorProfile,
    IterationState,
    STRONG,
    derive_profile,
    e_terms,
    e_total,
    psi_theta_margin,
    verify_decreasing,
)
from .engine import (
    DerivationReport,
    ThresholdEquation,
    admissible_B,
    check_admissible,
    iterate,
    partial_summation_slack,
    solve_x_max,
    table1,
    table2,
)
from .primes import (
    InequalitySpec,
    PrimeTables,
    build_tables,
    prime_counts,
    psi_theta_gap,
    scan_inequalities,
    scan_inequality,
    segmented_prime_count,
)
from .zeros import ZeroList, check_kernel_weights, check_zero_sum, load_zeros
from .ramanujan import (
    Regime,
    f,
    g,
    regime_schedule,
    step_verify,
)
from .verdict import Verdict

__version__ = "0.1.0"
