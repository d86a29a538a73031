"""Zero-table ingestion and the empirical zero-data checks."""

import pytest
from mpmath import mp, mpf

from primebounds.kernel import KernelParams, ParameterError
from primebounds.zeros import (
    CoverageError,
    ZeroDataError,
    check_kernel_weights,
    check_zero_sum,
    load_zeros,
    riemann_count_estimate,
)

FIRST_THREE = "14.134725141\n21.022039639\n25.010857580\n"


class TestLoadZeros:
    def test_three_line_fixture(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text(FIRST_THREE)
        zl = load_zeros(str(p))
        assert len(zl) == 3
        assert abs(zl.gammas[0] - mpf("14.134725141")) < mpf("1e-12")
        assert zl.decimal_places == 9

    def test_empty_file(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("")
        assert len(load_zeros(str(p))) == 0

    def test_descending_pair_errors_with_line_number(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.134725141\n13.0\n")
        with pytest.raises(ZeroDataError, match=":2:"):
            load_zeros(str(p))

    def test_index_column_autodetected(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("1 14.134725141\n2 21.022039639\n")
        zl = load_zeros(str(p))
        assert len(zl) == 2
        assert abs(zl.gammas[1] - mpf("21.022039639")) < mpf("1e-12")

    def test_non_numeric_errors(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.134725141\nnot-a-number\n")
        with pytest.raises(ZeroDataError, match=":2:"):
            load_zeros(str(p))

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_ordinate_errors_with_line_number(self, tmp_path, token):
        p = tmp_path / "z.txt"
        p.write_text(f"14.134725141\n{token}\n")
        with pytest.raises(ZeroDataError, match=":2: non-finite ordinate"):
            load_zeros(str(p))

    def test_wrong_first_ordinate_rejected(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("21.022039639\n25.010857580\n")
        with pytest.raises(ZeroDataError, match="first zeta zero"):
            load_zeros(str(p))

    def test_truncation_at_limit(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text(FIRST_THREE)
        zl = load_zeros(str(p), limit=22)
        assert len(zl) == 2

    def test_bundled_fixture_properties(self, zero_list):
        assert len(zero_list) >= 4520
        assert zero_list.max_height >= 5000
        assert zero_list.decimal_places >= 9
        gs = zero_list.gammas
        assert all(b > a for a, b in zip(gs, gs[1:]))


class TestZeroCountSanity:
    @pytest.mark.parametrize("t,expected", [(100, 29), (1000, 649), (5000, 4520)])
    def test_counts_match_main_term_within_5_percent(self, zero_list, t, expected):
        n = zero_list.count_below(t)
        assert n == expected
        estimate = riemann_count_estimate(t)
        assert abs(n - estimate) / estimate < 0.05


class TestZeroSum:
    def test_at_5000_with_positive_margin(self, zero_list):
        v = check_zero_sum(zero_list, 5000)
        assert v.passed
        assert v.margin > 0
        assert v.zeros_used == 4520
        assert "twice" in v.convention

    def test_at_100_with_29_zeros(self, tmp_path, zero_list):
        # 29 ordinates lie below 100; the 30th (at 101.3) proves coverage
        p = tmp_path / "z.txt"
        zs = zero_list.gammas[:30]
        p.write_text("".join(mp.nstr(g, 13) + "\n" for g in zs))
        small = load_zeros(str(p))
        v = check_zero_sum(small, 100)
        assert v.passed
        assert v.zeros_used == 29

    def test_below_validity_floor(self, zero_list):
        with pytest.raises(ParameterError):
            check_zero_sum(zero_list, 30)

    @pytest.mark.parametrize("t2", [float("nan"), float("inf")])
    def test_non_finite_t2_rejected(self, zero_list, t2):
        with pytest.raises(ParameterError, match="finite"):
            check_zero_sum(zero_list, t2)

    def test_insufficient_coverage(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text(FIRST_THREE)
        with pytest.raises(CoverageError, match="reaches"):
            check_zero_sum(load_zeros(str(p)), 5000)

    def test_empirical_sum_monotone_in_t2(self, zero_list):
        vals = [check_zero_sum(zero_list, t).empirical_sum for t in (100, 500, 1000, 5000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestKernelWeights:
    def test_first_100_zeros_three_parameter_sets(self, zero_list):
        import dataclasses

        first100 = dataclasses.replace(zero_list, gammas=zero_list.gammas[:100])
        for params in (
            KernelParams(35.0, 1e-8),
            KernelParams(35.17, 2.43e-11),
            KernelParams(34.92, 1.2e-11),
        ):
            v = check_kernel_weights(first100, params)
            assert v.passed
            assert v.checked == 100
            assert v.max_weight <= 1

    def test_out_of_band_skipped_with_count(self, zero_list):
        import dataclasses

        some = dataclasses.replace(zero_list, gammas=zero_list.gammas[:50])
        # band edge c/eps = 12 sits below the first ordinate 14.13
        v = check_kernel_weights(some, KernelParams(3.0, 0.25))
        assert v.passed
        assert v.checked == 0
        assert v.skipped_out_of_band == 50
        assert "vacuous" in v.warning
        # a partial band: the three ordinates below 30 are checked
        part = check_kernel_weights(some, KernelParams(3.0, 0.1))
        assert part.passed
        assert part.checked == 3
        assert part.skipped_out_of_band == 47

    def test_empty_list_vacuous_pass(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("")
        v = check_kernel_weights(load_zeros(str(p)), KernelParams(35.0, 1e-8))
        assert v.passed
        assert v.checked == 0
        assert "vacuous" in v.warning
