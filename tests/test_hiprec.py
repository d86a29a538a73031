"""Special-function layer against independent oracles and frozen fixtures."""

import importlib
import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from primebounds import hiprec
from primebounds.hiprec import (
    DomainError,
    PrecisionError,
    bessel_i1,
    d_of,
    ei,
    get_default_precision,
    li,
    working_precision,
)

from .oracles import bessel_i1_series, ei_by_series_loop, li_asymptotic, li_quadrature

# quadrature-oracle values, frozen (see oracles.li_quadrature)
LI_ORACLE = {
    2: "1.045163780117492784845",
    10: "6.165599504787297937523",
    1000: "177.6096579901522266876",
    10 ** 6: "78627.54915946218191986",
    5000: "684.2808402844904386011",
}

I1_AT_1 = "0.5651591039924850272077"  # 30-term series oracle, frozen


def rel_err(a, b):
    return abs(mpf(a) - mpf(b)) / abs(mpf(b))


class TestLi:
    def test_li_zero_is_zero(self):
        assert li(0) == 0

    def test_li_of_2_matches_quadrature_oracle(self):
        assert rel_err(li(2), mpf(LI_ORACLE[2])) < mpf("1e-20")

    @pytest.mark.parametrize("x", [2, 10, 1000, 10 ** 6])
    def test_agrees_with_quadrature_to_12_digits(self, x):
        assert rel_err(li(x), mpf(LI_ORACLE[x])) < mpf("1e-12")

    def test_live_quadrature_cross_check(self):
        # one oracle value recomputed in-suite, guarding the frozen constants
        assert rel_err(li_quadrature(2), mpf(LI_ORACLE[2])) < mpf("1e-18")

    def test_large_argument_asymptotic_band(self):
        # li(e^43) * 43 / e^43 = 1 + 1/43 + 2/43^2 + ... lies in (1.02, 1.03)
        with working_precision(192):
            val = ei(mpf(43)) * 43 / mp.exp(43)
        assert mpf("1.02") < val < mpf("1.03")
        assert rel_err(ei(mpf(43)) * 43 / mp.exp(43) * mp.exp(43) / 43, li_asymptotic(mp.exp(43))) < mpf("1e-15")

    def test_singularity_at_one_is_hard_error(self):
        with pytest.raises(DomainError):
            li(1)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            li(-2)

    def test_asymptotic_branch_consistent_with_series(self):
        # at 192 bits ei switches from the series to mp.ei above y = 144;
        # both branches must agree just past the switch
        y = mpf(150)
        with working_precision(192):
            a = mp.euler + mp.log(y) + hiprec._ei_series_fixed(y, 192)
            b = mp.ei(y)
        assert rel_err(a, b) < mpf("1e-40")
        assert ei(y) == b

    @pytest.mark.parametrize("prec", [100, 192, 256])
    def test_series_by_the_mantissa_is_bit_identical(self, prec):
        # multiplying each term by y's mantissa floors the same product as
        # y's fixed-point value: integers, halves, and stepping-grid points
        # z_lo + k delta - 1 of every rung (mantissas of about 90 bits)
        from primebounds.ramanujan import regime_schedule

        with working_precision(prec):
            ys = [mpf(n) for n in (1, 2, 3, 42, 58, 68, 75, 101, 102, 144)]
            ys += [mpf(n) + mpf(0.5) for n in (1, 41, 57, 74, 100, 143)]
            for i, r in enumerate(regime_schedule()):
                for k in (1, 7919 * (i + 1), 123456789 + i):
                    ys.append(mpf(r.z_lo) + k * mpf(r.delta) - 1)
            ys = [y for y in ys if y <= hiprec._SERIES_TO * prec]
            assert len(ys) >= 20
            for y in ys:
                assert ei(y) == ei_by_series_loop(y, prec), y

    def test_small_and_negative_ei_arguments(self):
        # Ei(log 0.5) = li(0.5); series branch with cancellation head room
        v = li(mpf("0.5"))
        assert rel_err(v, li_quadrature("0.5")) < mpf("1e-20")

    def test_strictly_increasing_on_grid(self):
        xs = [mpf("1.1"), 2, 5, 10, 100, 10 ** 4, 10 ** 8]
        vals = [li(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_determinism(self):
        assert li(12345) == li(12345)
        assert ei(mpf("43.25")) == ei(mpf("43.25"))


class TestBesselI1:
    def test_zero(self):
        assert bessel_i1(0) == 0

    def test_series_oracle_at_1(self):
        assert rel_err(bessel_i1(1), mpf(I1_AT_1)) < mpf("1e-20")
        assert rel_err(bessel_i1_series(1), mpf(I1_AT_1)) < mpf("1e-20")

    def test_ratio_to_sinh_in_sandwich_band_at_35(self):
        # 0.98/sqrt(2 pi 35) <= I1(35)/(2 sinh 35) <= 1/sqrt(2 pi 35)
        with working_precision(192):
            ratio = bessel_i1(35) / (2 * mp.sinh(35))
            lo = mpf("0.98") / mp.sqrt(2 * mp.pi * 35)
            hi = 1 / mp.sqrt(2 * mp.pi * 35)
        assert lo <= ratio <= hi

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bessel_i1(-1)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            bessel_i1(1e10)

    def test_large_argument_against_series_oracle(self):
        # far from the oracle's default 30 terms: sum 400 terms at 80 digits
        oracle = bessel_i1_series(200, terms=400, dps=80)
        assert rel_err(bessel_i1(200), oracle) < mpf("1e-55")

    def test_strictly_increasing_on_grid(self):
        cs = [mpf("0.1") * k for k in range(1, 40)]
        vals = [bessel_i1(c) for c in cs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @settings(max_examples=30, deadline=None)
    @given(c=st.floats(min_value=0.01, max_value=120))
    def test_positive_everywhere(self, c):
        assert bessel_i1(c) > 0


class TestDOf:
    def test_large_argument_tends_to_one_from_below(self):
        vals = [d_of(c) for c in (50, 100, 200, 400)]
        assert all(v < 1 for v in vals)
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_value_backing_the_098_constant(self):
        # at c = log(2.169e25)/2 + 6 the lower sandwich constant exceeds 0.98
        with working_precision(192):
            c = mp.log(mpf("2.169e25")) / 2 + 6
        assert d_of(c) >= mpf("0.98")
        assert d_of("35.17") >= mpf("0.98")

    def test_small_argument_scale(self):
        # I1(c) ~ c/2 and sinh(c) ~ c, so D(c) ~ sqrt(pi c/2)/2 as c -> 0
        with working_precision(192):
            expected = mp.sqrt(mp.pi * mpf("0.001") / 2) / 2
        assert rel_err(d_of("0.001"), expected) < mpf("1e-4")

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            d_of(0)

    @pytest.mark.parametrize("c0", [1.0, 5.0, 35.0])
    def test_sandwich_property_on_log_grid(self, c0):
        # D(c0)/sqrt(2 pi c) <= I1(c)/(2 sinh c) <= 1/sqrt(2 pi c) for c >= c0
        with working_precision(192):
            d0 = d_of(c0)
            c = mpf(c0)
            top = 100 * mpf(c0)
            step = (top / c) ** (mpf(1) / 24)
            while c <= top:
                ratio = bessel_i1(c) / (2 * mp.sinh(c))
                assert d0 / mp.sqrt(2 * mp.pi * c) <= ratio <= 1 / mp.sqrt(2 * mp.pi * c)
                c *= step


class TestPrecisionContext:
    def test_floor_enforced(self):
        with pytest.raises(PrecisionError, match="100-bit floor"):
            with working_precision(99):
                pass
        assert get_default_precision() == 192

    @pytest.mark.parametrize("fn, arg, prec", [
        (ei, 5, 64), (li, 10, 40), (bessel_i1, 3, 30), (d_of, 3, 99),
    ], ids=["ei", "li", "bessel_i1", "d_of"])
    def test_per_call_precision_below_the_floor_is_refused(self, fn, arg, prec):
        with pytest.raises(PrecisionError, match="100-bit floor"):
            with working_precision(prec):
                fn(arg)
        with working_precision(100):
            at_floor = fn(arg)
        assert rel_err(at_floor, fn(arg)) < mpf(2) ** -95  # the floor runs

    def test_working_precision_restores(self):
        before = mp.prec
        with working_precision(300):
            assert mp.prec == 300
        assert mp.prec == before

    def test_scopes_nest_and_restore_when_the_body_raises(self):
        before = mp.prec
        with working_precision(256):
            with pytest.raises(ZeroDivisionError):
                with working_precision(320):
                    assert (get_default_precision(), mp.prec) == (320, 320)
                    with working_precision():
                        assert (get_default_precision(), mp.prec) == (320, 320)
                    1 / 0
            assert (get_default_precision(), mp.prec) == (256, 256)
            with pytest.raises(PrecisionError):
                with working_precision(99):
                    pass
            assert (get_default_precision(), mp.prec) == (256, 256)
        assert (get_default_precision(), mp.prec) == (192, before)

    def test_functions_run_at_the_scope_not_the_ambient_precision(self):
        with working_precision(256):
            want = li(10)
        assert want != li(10)  # 256 bits, not 192
        with working_precision(256), mp.workprec(64):
            assert li(10) == want

    def test_per_call_precision_changes_result_bits_not_value(self):
        with working_precision(128):
            lo = li(2)
        with working_precision(256):
            hi = li(2)
        assert rel_err(lo, hi) < mpf(2) ** -120


def _public_functions():
    """(name, function) of every public function of the package and every
    method of its public classes."""
    import primebounds

    modules = [primebounds] + [importlib.import_module(f"primebounds.{m}") for m in (
        "cli", "engine", "error_terms", "errors", "hiprec", "kernel", "primes",
        "published", "ramanujan", "verdict", "zeros")]
    for module in modules:
        names = getattr(module, "__all__", None) or [n for n in vars(module) if not n.startswith("_")]
        for name in names:
            obj = getattr(module, name)
            if inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn):
                        yield f"{module.__name__}.{name}.{attr}", fn
            elif inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj


def test_no_public_function_or_method_takes_prec():
    # the precision is set by working_precision scopes alone
    functions = dict(_public_functions())
    assert {"primebounds.engine.solve_x_max", "primebounds.primes.PrimeTables.count",
            "primebounds.error_terms.ProfileAt.__init__"} <= set(functions)
    assert [name for name, fn in functions.items() if "prec" in inspect.signature(fn).parameters] == []


def test_the_global_setter_is_gone():
    import primebounds

    assert not hasattr(hiprec, "set_default_precision")
    assert not hasattr(primebounds, "set_default_precision")
    assert not hasattr(hiprec, "_precision_bits")


@settings(max_examples=40, deadline=None)
@given(x=st.floats(min_value=1.5, max_value=1e12))
def test_li_between_neighbors_monotone(x):
    assert li(x * 1.01) > li(x)
