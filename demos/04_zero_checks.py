"""Check the zero-dependent lemmas against real zero ordinates.

A fixture of every ordinate below height 5000 ships with the package.  Two
claims are checkable directly: the reciprocal-ordinate sum against its
closed-form bound, and the kernel weight a(gamma) <= 1 on the band where
the zeros are known to lie on the critical line.
"""

from mpmath import mp

from primebounds.kernel import KernelParams, zero_sum_bound
from primebounds.zeros import (
    bundled_zeros_path,
    check_kernel_weights,
    check_zero_sum,
    load_zeros,
)

zl = load_zeros(bundled_zeros_path())
print(f"{len(zl)} ordinates loaded, reaching height {float(zl.max_height):.2f}")
for t in (100, 1000, 5000):
    print(f"  {zl.count_below(t)} ordinates below {t}; mpmath.nzeros({t}) = {mp.nzeros(t)}")

print("\nreciprocal-ordinate sum vs bound (conjugate pairs counted twice):")
for t2 in (100, 1000, 5000):
    v = check_zero_sum(zl, t2)
    print(
        f"  t2 = {t2}: sum = {float(v.empirical_sum):.5f} <= "
        f"{float(v.bound):.5f}: {'pass' if v else 'FAIL'} (margin {float(v.margin):.4f})"
    )

print("\nkernel weights on the verified band:")
for c, eps in ((35.17, 2.43e-11), (34.92, 1.2e-11), (35.0, 1e-8)):
    v = check_kernel_weights(zl, KernelParams(c, eps))
    print(
        f"  c = {c}, eps = {eps:g}: {v.checked} checked, max weight sits "
        f"{mp.nstr(1 - v.max_weight, 3)} below 1: {'pass' if v else 'FAIL'}"
    )
