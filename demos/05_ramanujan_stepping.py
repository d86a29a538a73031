"""The stepping verification of pi(x)^2 < (e x / log x) pi(x/e).

In z = log x the inequality reduces to f(z) > g(z) for two increasing
functions, so checking f(z0) > g(z0 + delta) on a delta-grid proves it on
every intermediate point.  A ladder of (a, delta) regimes covers
z in (43, 103], each rung staying below the height where its bound constant
is valid.  Each step is decided in float64 under a proven error bound, so a
full rung takes 18 s to 5 minutes (50-59 ns per step) and the whole ladder
25 minutes; this demo walks windows at the start and the (tighter) top of
each rung.
"""

from mpmath import mp

from primebounds.ramanujan import counterexample_check_direct, f, g, regime_schedule, step_verify

mp.pretty = True

print("f and g at the first rung's foot (the cancellation is ~1/z relative):")
with mp.workprec(192):
    a = 1 / (8 * mp.pi)
    fz, gz = f(43), g(43, a)
    print(f"  f(43) = {mp.nstr(fz, 12)}")
    print(f"  g(43) = {mp.nstr(gz, 12)}")
    print(f"  f - g = {mp.nstr(fz - gz, 6)}  ({mp.nstr((fz - gz) / fz, 3)} of f)")

print("\nregime ladder:")
schedule = regime_schedule()
for i, r in enumerate(schedule):
    print(
        f"  rung {i}: z in ({r.z_lo}, {r.z_hi}]  a = {r.a:.4g}  delta = {r.delta:g}"
        f"  ({r.n_steps:,} steps for the full rung)"
    )

print("\nwindows of 2000 steps at each rung's start and top:")
for i, r in enumerate(schedule):
    head = step_verify(r, max_steps=2000)
    tail = step_verify(r, max_steps=2000, from_end=True)
    print(
        f"  rung {i}: start margin {float(head.min_margin):.3e}, "
        f"top margin {float(tail.min_margin):.3e}: "
        f"{'pass' if head.passed and tail.passed else 'FAIL'}"
    )

print("\nsmall-x spot checks of the inequality itself (exact prime counts):")
for x in (100, 1000, 38358):
    v = counterexample_check_direct(x)
    print(f"  x = {x}: pi^2 = {float(v.lhs):.6g} vs (e x/log x) pi(x/e) = "
          f"{float(v.rhs):.6g}: {'holds' if v.holds else 'fails'}")
print("\nthe boundary pair x = 38,358,837,682 (fails) and its successor (holds)")
print("takes two exact prime counts, under a second per value; run it via:")
print("  primebounds ramanujan --counterexample 38358837682")
