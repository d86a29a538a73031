"""Coefficient derivation, aggregate assembly, and the monotonicity verifier."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from primebounds import published
from primebounds.error_terms import (
    BoundVariant,
    IterationState,
    PRINTED_FIRST,
    PRINTED_REFINED,
    ParameterError,
    derive_profile,
    e_terms,
    e_total,
    psi_theta_margin,
    round_up_sig,
    shift_requirement,
    verify_decreasing,
)
from primebounds.hiprec import working_precision

STATE1 = IterationState(*published.STRONG_ITERATION_STATES[0])
STATE2 = IterationState(*published.STRONG_ITERATION_STATES[1])
WEAK1 = IterationState(*published.WEAK_ITERATION_STATES[0], variant=BoundVariant("weak", 1.0))


class TestRoundUpSig:
    @pytest.mark.parametrize(
        "value,sig,expected",
        [
            ("0.0000316721", 2, "0.000032"),
            ("0.029274916", 3, "0.0293"),
            ("0.14105445", 3, "0.142"),
            ("2.7961392", 2, "2.8"),
            ("9.6455561", 3, "9.65"),
            ("9.0556494", 3, "9.06"),
            ("1.19", 3, "1.19"),
        ],
    )
    def test_examples(self, value, sig, expected):
        with working_precision():
            assert round_up_sig(mpf(value), sig) == mpf(expected)

    def test_exact_outside_any_scope(self):
        # mpmath's ambient precision is 53 bits outside a scope; the decimal
        # is still the one entered at the 192-bit working precision
        got = round_up_sig(mpf("9.0556494"), 3)
        with working_precision(192):
            assert got == mpf("9.06")
            assert got == round_up_sig(mpf("9.0556494"), 3)

    def test_never_below_input(self):
        for v in ("0.001234", "5.6789", "123.456"):
            for sig in (1, 2, 3, 4):
                r = round_up_sig(mpf(v), sig)
                assert r >= mpf(v)
                assert r <= mpf(v) * (1 + mpf(10) ** (1 - sig))

    @settings(max_examples=300, deadline=None)
    @given(bits=st.sampled_from([192, 256]), sig=st.integers(1, 4),
           mantissa=st.integers(1, 10 ** 6), exponent=st.integers(-15, 15))
    # decimals whose binary value lies above them, which rounded one unit up
    @example(bits=192, sig=3, mantissa=894, exponent=-2)
    @example(bits=192, sig=3, mantissa=116, exponent=-4)
    @example(bits=256, sig=3, mantissa=119, exponent=-2)
    def test_idempotent(self, bits, sig, mantissa, exponent):
        with working_precision(bits):
            v = mpf(f"{mantissa}e{exponent}")
            r = round_up_sig(v, sig)
            assert r >= v
            assert round_up_sig(r, sig) == r
            assert r == mpf(mp.nstr(r, sig))  # a decimal of sig figures
            if mantissa < 10 ** sig:  # v is one already
                assert r == v


class TestDeriveProfile:
    def test_first_iteration_exact_values(self):
        p = derive_profile(STATE1)
        assert mpf("0.0000316") < p.coef1 < mpf("0.0000317")
        assert mpf("0.029274") < p.coef2 < mpf("0.029275")
        assert mpf("2.7961") < p.alpha3 < mpf("2.7962")
        assert mpf("0.14105") < p.coef4 < mpf("0.14106")
        assert float(p.coef5a) == 2.02 / 16
        assert float(p.coef5b) == 0.51

    def test_first_iteration_printed_rounding(self):
        p = derive_profile(STATE1, rounding=PRINTED_FIRST)
        assert tuple(map(float, (p.coef1, p.coef2, p.alpha3, p.coef4, p.coef5a))) == (
            published.PROFILE_FIRST
        )
        assert p.exact is not None
        assert p.exact.coef1 < p.coef1

    def test_second_iteration_printed_rounding(self):
        p = derive_profile(STATE2, rounding=PRINTED_REFINED)
        coef1, coef2, _, coef4, coef5a = published.PROFILE_SECOND
        assert tuple(map(float, (p.coef1, p.coef2, p.coef4, p.coef5a))) == (
            coef1, coef2, coef4, coef5a,
        )
        # round-up lands one display ulp above the to-nearest published 2.751
        assert float(p.alpha3) == 2.752
        assert abs(p.exact.alpha3 - mpf("2.751")) < mpf("0.0005")

    def test_weak_profile_forms(self):
        p = derive_profile(WEAK1)
        with working_precision(192):
            # D = 0 collapses alpha to E/(2 pi) and coef4 to 4.0002/(E sqrt pi)
            E = mpf(WEAK1.E)
            assert abs(p.alpha3 - E / (2 * mp.pi)) < mpf("1e-40")
            assert abs(p.coef4 - mpf("4.0002") / (E * mp.sqrt(mp.pi))) < mpf("1e-40")

    def test_precondition_violations(self):
        with pytest.raises(ParameterError):
            IterationState(1e20, 9.65, 2.44, 6, 16)  # below validity floor
        state = IterationState(1.5e25, 9.65, 2.44, 6, 1e-8)  # eps(A) blows up
        with pytest.raises(ParameterError):
            derive_profile(state)


class TestAggregate:
    def test_first_iteration_printed_value(self):
        p = derive_profile(STATE1, rounding=PRINTED_FIRST)
        v = e_total(STATE1.A, STATE1, p)
        assert abs(v - mpf(str(published.E_AT_A_FIRST))) < mpf("0.0002")

    def test_second_iteration_printed_value(self):
        p = derive_profile(STATE2, rounding=PRINTED_REFINED)
        v = e_total(STATE2.A, STATE2, p)
        assert abs(v - mpf(str(published.E_AT_A_SECOND))) < mpf("0.0002")

    def test_weak_first_iteration_clears_shift(self):
        p = derive_profile(WEAK1)
        v = e_total(WEAK1.A, WEAK1, p)
        assert v < -mpf("2.017") * 1  # admissibility at the published C, a = 1

    def test_below_threshold_rejected(self):
        p = derive_profile(STATE1)
        with pytest.raises(ParameterError):
            e_terms(1e25, STATE1, p)

    def test_e3_vanishes_at_the_algebraic_alpha(self):
        # with log(alpha) = loglog x + logloglog x the inner square equals
        # (log(x)/2)^2 and e3 collapses to zero identically
        p = derive_profile(STATE1)
        with working_precision(192):
            x = mpf(STATE1.A) * 10
            alpha_star = mp.exp(mp.log(mp.log(x)) + mp.log(mp.log(mp.log(x))))
            tuned = dataclasses.replace(p, alpha3=+alpha_star, exact=None)
            e3 = e_terms(x, STATE1, tuned)[2]
            scale = mp.sqrt(x) * mp.log(x) ** 2
        assert abs(e3) / scale < mpf("1e-40")

    def test_aggregate_decreasing_beyond_threshold(self):
        p = derive_profile(STATE1, rounding=PRINTED_FIRST)
        verdict = verify_decreasing(
            lambda x: e_total(x, STATE1, p), STATE1.A, STATE1.A * 1e4, 256
        )
        assert verdict.passed, verdict.detail

    def test_weak_terms_shapes(self):
        p = derive_profile(WEAK1)
        with working_precision(192):
            x = mpf(WEAK1.A) * 2
            e1, e2, e3, e4, e5 = e_terms(x, WEAK1, p)
            L = mp.log(x)
            # weak e4 = coef4 sqrt(x) log^2 x exactly
            assert abs(e4 - p.coef4 * mp.sqrt(x) * L ** 2) / e4 < mpf("1e-40")
            # weak e3 carries -a sqrt(x) log^2 x
            inner = L / 2 + mp.log(p.alpha3) - 2 * mp.log(L)
            expected = mp.sqrt(x) / (2 * mp.pi) * inner ** 2 - mp.sqrt(x) * L ** 2
            assert abs(e3 - expected) / abs(expected) < mpf("1e-40")


class TestVerifyDecreasing:
    def test_constant_fails_at_first_node(self):
        verdict = verify_decreasing(lambda x: mpf(1), 10, 100, 64)
        assert not verdict.passed
        assert verdict.first_failure is not None

    def test_increasing_fails(self):
        assert not verify_decreasing(lambda x: mp.log(x), 10, 100, 64)

    def test_decreasing_passes(self):
        assert verify_decreasing(lambda x: 1 / mpf(x), 10, 1000, 64)

    def test_sinh_ratio_factor(self):
        # ((x+1)/sinh(c(x)))/sqrt(x) decreases on [A, 1e3 A]
        def ratio(x):
            return (mpf(x) + 1) / mp.sinh(STATE1.c_of(x)) / mp.sqrt(mpf(x))

        assert verify_decreasing(ratio, STATE1.A, STATE1.A * 1e3, 128)

    def test_exp_sqrt_ceps_factor(self):
        def factor(x):
            return mp.exp(mpf("0.71") * mp.sqrt(STATE1.c_of(x) * STATE1.eps_of(x)))

        assert verify_decreasing(factor, STATE1.A, STATE1.A * 1e3, 128)

    def test_log3c_over_loglog_factor(self):
        def factor(x):
            return mp.log(3 * STATE1.c_of(x)) / mp.log(mp.log(mpf(x)))

        assert verify_decreasing(factor, STATE1.A, STATE1.A * 1e3, 128)

    def test_grid_floor(self):
        with pytest.raises(ParameterError):
            verify_decreasing(lambda x: 1 / mpf(x), 10, 100, 32)


class TestPsiThetaMargin:
    def test_first_iteration_passes(self):
        with working_precision(192):
            assert psi_theta_margin(2.169e25, 2.44, 1 / (8 * mp.pi))

    def test_thin_shift_fails_near_floor(self):
        with working_precision(192):
            a = 1 / (8 * mp.pi)
        assert not psi_theta_margin(5.2e21, 2.0001, a)  # just above e^50

    def test_zero_shift_margin_always_fails(self):
        with working_precision(192):
            a = 1 / (8 * mp.pi)
        for x in (5.2e21, 1e26, 1e40):
            assert not psi_theta_margin(x, 2.0, a)

    def test_validity_floor(self):
        with pytest.raises(ParameterError):
            psi_theta_margin(1e20, 2.44, 0.04)  # below e^50

    def test_requirement_decreasing_in_x(self):
        with working_precision(192):
            a = 1 / (8 * mp.pi)
            reqs = [shift_requirement(x, a) for x in (1e22, 1e25, 1e30, 1e40)]
        assert all(b < a_ for a_, b in zip(reqs, reqs[1:]))

    def test_log_ratio_below_half_under_both_parameterizations(self):
        # log(c/eps)/log(x) <= 1/2 along both variants' rolling parameters
        for state in (STATE1, WEAK1):
            with working_precision(192):
                for k in range(33):
                    x = mpf(state.A) * mpf(10) ** (k / mpf(4))
                    ratio = mp.log(state.c_of(x) / state.eps_of(x)) / mp.log(x)
                    assert ratio <= mpf("0.5")
