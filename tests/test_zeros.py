"""Zero-table ingestion and the empirical zero-data checks."""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from primebounds import zeros
from primebounds.hiprec import working_precision
from primebounds.kernel import KernelParams, ParameterError, a_weight, zero_sum_bound
from primebounds.zeros import (
    CoverageError,
    ZeroDataError,
    check_kernel_weights,
    check_zero_sum,
    load_zeros,
)

from .oracles import check_zero_sum_fsum, kernel_weights_scan, load_zeros_rational

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

    @pytest.mark.parametrize("prec", [192, 256])
    def test_bundled_ordinates_are_the_mpf_of_their_tokens(self, prec):
        path = zeros.bundled_zeros_path()
        with open(path) as f, mp.workprec(prec):
            want = [mpf(line.split()[-1])._mpf_ for line in f if line.strip()]
        with working_precision(prec):
            got = load_zeros(path)
        assert [g._mpf_ for g in got.gammas] == want
        assert len(want) == 4522

    @pytest.mark.parametrize("token, decimal_places", [
        ("+21.022039639", 9), ("2.1022039639e1", 9), ("٢١.٠٢٢", 3), ("21.0220396390000", 9),
        ("1_000.5", 1),
    ])
    def test_other_tokens_parse_as_mpf_does(self, tmp_path, token, decimal_places):
        p = tmp_path / "z.txt"
        p.write_text(f"14.134725141\n{token}\n")
        zl = load_zeros(str(p))
        with mp.workprec(192):
            assert zl.gammas[1]._mpf_ == mpf(token)._mpf_
        assert zl.decimal_places == decimal_places

    @pytest.mark.parametrize("rows, message", [
        ("14.\n", "first ordinate 14.0 is not the first zeta zero"),
        ("14.134725141\n14.\n", "z.txt:2: ordinates not ascending"),
        ("0.000\n", "z.txt:1: nonpositive ordinate 0.000"),
        ("14.134725141\n-1\n", "z.txt:2: nonpositive ordinate -1"),
        ("14.134725141\n14.134725141\n", "z.txt:2: ordinates not ascending"),
        ("14.134725141\n21.022039639\n21.0220396\n", "z.txt:3: ordinates not ascending"),
        ("14.134725141\n1__000.5\n", "z.txt:2: not a number: '1__000.5'"),
        ("14.134725141\n" + "1" * 5000 + "\n", "z.txt:2: not a number: '111"),
        ("14.134725141\n1e100000000\n", "z.txt:2: out-of-range ordinate 1e100000000"),
        ("14.134725141\n1e-100000000\n", "z.txt:2: out-of-range ordinate 1e-100000000"),
        ("14.134725141\n1.4e100000000000000000000000000000000000000001\n",
         "z.txt:2: out-of-range ordinate 1.4e100000000000000000000000000000000000000001"),
    ], ids=["14.", "14.-second", "0.000", "-1", "equal", "descending", "double-underscore",
            "5000-digits", "exponent-1e8", "exponent-minus-1e8", "exponent-41-digits"])
    def test_rejections_keep_their_message_and_line(self, tmp_path, rows, message):
        p = tmp_path / "z.txt"
        p.write_text(rows)
        with pytest.raises(ZeroDataError, match=re.escape(message)):
            load_zeros(str(p))

    @pytest.mark.parametrize("token, message", [
        ("1.7e308", None), ("1.8e308", "out-of-range ordinate 1.8e308"),
        ("1e-323", "ordinates not ascending"), ("1e-324", "out-of-range ordinate 1e-324"),
    ])
    def test_exponent_tokens_are_read_inside_the_double_range(self, tmp_path, token, message):
        p = tmp_path / "z.txt"
        p.write_text(f"14.134725141\n{token}\n")
        if message is None:
            with working_precision(192):
                assert load_zeros(str(p)).gammas[1] == mpf(token)
        else:
            with pytest.raises(ZeroDataError, match=re.escape(f"z.txt:2: {message}")):
                load_zeros(str(p))

    def test_distinct_tokens_equal_at_the_precision_are_not_ascending(self, tmp_path):
        # 1e-70 apart: equal once rounded to 192 bits, distinct at 256
        p = tmp_path / "z.txt"
        p.write_text("14.134725141\n14.134725141" + "0" * 60 + "1\n")
        with pytest.raises(ZeroDataError, match=":2: ordinates not ascending"), working_precision(192):
            load_zeros(str(p))
        with working_precision(256):
            assert len(load_zeros(str(p))) == 2

    def test_below_is_the_ordinates_up_to_t(self, zero_list):
        gs = zero_list.gammas
        with mp.workprec(192):
            for t in (0, 14, gs[0], gs[100], 1000, gs[-1], 1e4):
                want = tuple(g for g in gs if g <= t)
                assert zero_list.below(t) == want
                assert zero_list.count_below(t) == len(want)

    def test_below_outside_any_scope_reads_t_at_the_working_precision(self, zero_list):
        # at mpmath's ambient 53 bits the first ordinate rounds below itself
        gs = zero_list.gammas
        assert zero_list.count_below(gs[0]) == 1
        assert zero_list.below(gs[0]) == gs[:1]

    def test_bundled_fixture_properties(self, zero_list):
        assert len(zero_list) >= 4520
        assert zero_list.max_height >= 5000
        assert zero_list.decimal_places >= 9
        gs = zero_list.gammas
        assert all(b > a for a, b in zip(gs, gs[1:]))


class TestZeroCountSanity:
    """The bundled list is complete: it holds exactly N(T) ordinates below T.

    N(T) comes from ``mpmath.nzeros``, which counts by Turing's method, so
    the test is numerical-grade through mpmath's evaluation of Z(t), not a
    proof.  Turing (1953) bounds the count from the sign changes of Z, and
    Trudgian (Math. Comp. 2011) gives the explicit S(t) bound that would
    make such a count rigorous.
    """

    @pytest.mark.parametrize("t,expected", [(100, 29), (1000, 649), (5000, 4520)])
    def test_pinned_counts(self, zero_list, t, expected):
        assert zero_list.count_below(t) == expected

    @pytest.mark.parametrize("t", range(100, 5000, 250))
    def test_count_below_equals_nzeros(self, zero_list, t):
        assert zero_list.count_below(t) == mp.nzeros(t)


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


def prefix(zero_list, n):
    return dataclasses.replace(zero_list, gammas=zero_list.gammas[:n])


def assert_same_verdict(got, want):
    # same passed, same facts in the same order, mpf facts equal to the bit
    assert got == want
    assert list(got.facts) == list(want.facts)


class TestKernelWeightsAgainstScan:
    """The two-endpoint check gives the verdict of the zero-by-zero scan."""

    @pytest.mark.parametrize("c, eps, n", [
        (35.17, 1e-8, None),      # the bundled list at the CLI defaults
        (35.17, 2.43e-11, 100),   # the criterion-7 parameter sets
        (34.92, 1.2e-11, 100),
        (35.0, 1e-8, 100),
        (3.0, 0.1, None),         # partial band: three ordinates below 30
        (3.0, 0.25, None),        # vacuous band: edge 12 below the first zero
    ])
    def test_matches_scan(self, zero_list, c, eps, n):
        zl = zero_list if n is None else prefix(zero_list, n)
        params = KernelParams(c, eps)
        assert_same_verdict(check_kernel_weights(zl, params), kernel_weights_scan(zl, params))

    def test_default_parameters_facts(self, zero_list):
        v = check_kernel_weights(zero_list, KernelParams(35.17, 1e-8))
        assert (v.passed, v.checked, v.skipped_out_of_band) == (True, 4522, 0)
        assert v.max_weight == a_weight(zero_list.gammas[0], KernelParams(35.17, 1e-8))
        assert v.min_weight == a_weight(zero_list.gammas[-1], KernelParams(35.17, 1e-8))

    def test_empty_list_matches_scan(self, zero_list):
        params = KernelParams(35.0, 1e-8)
        empty = prefix(zero_list, 0)
        assert_same_verdict(check_kernel_weights(empty, params), kernel_weights_scan(empty, params))

    @settings(max_examples=40, deadline=None)
    @given(
        c=st.floats(3.0, 40.0),
        log_eps=st.floats(-12.0, 0.0),
        n=st.integers(0, 60),
    )
    def test_matches_scan_drawn(self, zero_list, c, log_eps, n):
        params = KernelParams(c, 10.0 ** log_eps)
        zl = prefix(zero_list, n)
        assert_same_verdict(check_kernel_weights(zl, params), kernel_weights_scan(zl, params))

    @settings(max_examples=25, deadline=None)
    @given(
        c=st.floats(3.0, 40.0),
        log_eps=st.floats(-12.0, 0.0),
        n=st.integers(2, 60),
    )
    def test_weight_does_not_increase_in_band(self, zero_list, c, log_eps, n):
        params = KernelParams(c, 10.0 ** log_eps)
        with mp.workprec(192):
            edge = mpf(params.c) / mpf(params.eps)
            weights = [a_weight(g, params) for g in zero_list.gammas[:n] if g <= edge]
        assert all(b <= a for a, b in zip(weights, weights[1:]))

    @pytest.mark.parametrize("fake, first", [
        (lambda g: 1 + 1 / g, 0),        # above 1 from the first ordinate on
        (lambda g: 1 - g / 30, 3),       # at or below 0 from the fourth, 30.42, on
        (lambda g: -g, 0),               # at or below 0 everywhere
    ])
    def test_failure_matches_scan(self, zero_list, monkeypatch, fake, first):
        def weight(g, params):
            with mp.workprec(192):
                return +fake(mpf(g))

        monkeypatch.setattr(zeros, "a_weight", weight)
        zl, params = prefix(zero_list, 50), KernelParams(35.0, 1e-8)
        got = check_kernel_weights(zl, params)
        assert not got.passed and got.checked == first
        assert_same_verdict(got, kernel_weights_scan(zl, params, weight=weight))


class TestDecimalPlacesAfterLimit:
    def test_first_ordinate_past_the_limit_is_not_counted(self, tmp_path):
        p = tmp_path / "z.txt"
        p.write_text("14.134725141\n21.02\n")
        zl = load_zeros(str(p), limit=20)
        assert len(zl) == 1
        assert zl.decimal_places == 9
        assert load_zeros(str(p)).decimal_places == 2


# -- the integer ingest and zero sum against the from_rational / fsum oracle --

PRECISIONS = (100, 192, 256, 320)
ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
FIRST = Fraction(141347251417347, 10 ** 13)


def decimal_token(value: Fraction, places: int) -> str:
    """``value`` truncated to ``places`` decimals, written out plainly."""
    scaled = value.numerator * 10 ** places // value.denominator
    whole, frac = divmod(scaled, 10 ** places)
    return f"{whole}.{frac:0{places}d}" if places else str(whole)


def scientific_token(token: str) -> str:
    whole, _, frac = token.partition(".")
    return f"{whole[0]}.{whole[1:]}{frac}e{len(whole) - 1}"


@st.composite
def ordinate_files(draw):
    """An ordinate file as bytes: mostly ascending decimals with mixed
    places, and every kind of token and row the loader has a rule for."""
    value = FIRST if draw(st.integers(0, 3)) else Fraction(draw(st.integers(1, 3000)), 100)
    indexed = draw(st.booleans())
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    rows, prev = [], None
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(
            ["plain"] * 6 + ["long", "scientific", "arabic", "underscore", "rounded-equal",
                             "comment", "blank", "junk", "bad-bytes", "column"]))
        token = decimal_token(value, draw(st.integers(0, 16)))
        if kind == "long":
            token += "." * ("." not in token)
            token += "0" * (draw(st.sampled_from([399, 400, 401, 450])) - len(token))
        elif kind == "scientific":
            token = scientific_token(token)
        elif kind == "arabic":
            token = token.translate(ARABIC)
        elif kind == "underscore" and len(token.partition(".")[0]) > 1:
            token = token[0] + "_" + token[1:]
        elif kind == "rounded-equal" and prev is not None and prev.replace(".", "").isdigit():
            token = prev + "." * ("." not in prev) + "0" * draw(st.sampled_from([40, 100])) + "1"
        elif kind == "junk":
            token = draw(st.sampled_from(["abc", "nan", "-inf", "-1", "0.000", "0", "1__0.5", ".5"]))
        row = (f"{i + 1} " if indexed else "") + token
        if kind == "comment":
            row = "# " + token
        elif kind == "blank":
            row = draw(st.sampled_from(["", "  ", "\t"]))
        elif kind == "column":
            row += " 7"
        line = (row + newline).encode()
        if kind == "bad-bytes":
            line = row.encode() + draw(st.sampled_from([b"\xff", b"\xe2\x82", b"\xc3"])) + newline.encode()
        rows.append(line)
        prev = token
        # mostly a step of 1 to 100; now and then a tiny one, zero or back
        tiny = draw(st.integers(0, 7)) == 7
        value += Fraction(draw(st.integers(-3, 3) if tiny else st.integers(10 ** 13, 10 ** 15)), 10 ** 13)
    data = b"".join(rows)
    if data and draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    return data


def outcome(load, path, limit):
    try:
        zl = load(path, limit)
    except ZeroDataError as exc:
        return str(exc)
    return [g._mpf_ for g in zl.gammas], zl.decimal_places


def sum_outcome(check, zl, t2):
    try:
        v = check(zl, t2)
    except (CoverageError, ParameterError) as exc:
        return type(exc), str(exc)
    return v.passed, [(k, getattr(f, "_mpf_", f)) for k, f in v.facts.items()]


class TestAgainstRationalOracle:
    """``load_zeros`` and ``check_zero_sum`` give what the per-line
    ``from_rational`` ingest and the ``mp.fsum`` sum gave, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(data=ordinate_files(), limit=st.one_of(st.none(), st.floats(10, 100)))
    def test_load_matches_oracle(self, tmp_path_factory, data, limit):
        path = tmp_path_factory.getbasetemp() / "drawn_zeros.txt"
        path.write_bytes(data)
        for prec in PRECISIONS:
            with working_precision(prec):
                want = outcome(load_zeros_rational, str(path), limit)
                assert outcome(load_zeros, str(path), limit) == want, prec
                if isinstance(want, tuple) and want[0]:
                    zl = load_zeros(str(path), limit)
                    for t2 in (zl.gammas[len(zl) // 2], zl.max_height, 40):
                        assert (sum_outcome(check_zero_sum, zl, t2)
                                == sum_outcome(check_zero_sum_fsum, zl, t2))

    @pytest.mark.parametrize("prec", PRECISIONS)
    def test_bundled_file_matches_oracle(self, prec):
        path = zeros.bundled_zeros_path()
        with working_precision(prec):
            got, want = load_zeros(path), load_zeros_rational(path)
            assert [g._mpf_ for g in got.gammas] == [g._mpf_ for g in want.gammas]
            assert got.decimal_places == want.decimal_places
            for t2 in (100, 1000, 3000, 4999.5, 5000):
                assert sum_outcome(check_zero_sum, got, t2) == sum_outcome(check_zero_sum_fsum, want, t2)

    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(st.tuples(st.integers(0, 2 ** 330), st.integers(0, 700)), min_size=1, max_size=8),
        prec=st.sampled_from(PRECISIONS),
    )
    def test_sum_matches_fsum_on_drawn_lists(self, steps, prec):
        # ascending ordinates from 16 up, with jumps far enough apart to
        # reach mpf_sum's rule that drops a term 2 prec bits below the sum
        with working_precision(prec):
            g, gammas = mpf(16), []
            for man, jump in steps:
                g = g * mpf(2) ** jump + (man >> max(man.bit_length() - prec + 8, 0))
                if g >= mpf(2) ** 1000:
                    break
                gammas.append(+g)
            zl = zeros.ZeroList(tuple(gammas), source="drawn", decimal_places=0)
            assert sum_outcome(check_zero_sum, zl, gammas[-1]) == sum_outcome(check_zero_sum_fsum, zl, gammas[-1])


class TestRoundingEdges:
    @pytest.mark.parametrize("prec", PRECISIONS)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("top", [0, 1])
    def test_ties_and_their_neighbours_round_as_from_rational(self, tmp_path, prec, offset, top):
        # (2^prec + 2 top + 1) 2^(4 - prec) lies halfway between two prec-bit
        # values near 16 and has prec - 4 decimals; one unit in the last
        # decimal either side moves it off the tie
        places = prec - 4
        num = (2 ** prec + 2 * top + 1) * 5 ** places + offset
        token = decimal_token(Fraction(num, 10 ** places), places)
        p = tmp_path / "z.txt"
        p.write_text(f"14.134725141\n{token}\n")
        with working_precision(prec):
            zl = load_zeros(str(p))
            assert zl.gammas[1]._mpf_ == from_rational(num, 10 ** places, prec, round_nearest)
            assert zl.gammas[1]._mpf_ == mpf(token)._mpf_
        assert zl.decimal_places == 9

    @pytest.mark.parametrize("prec", PRECISIONS)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_integer_ties_round_as_from_rational(self, tmp_path, prec, offset):
        num = 2 ** (prec + 1) + 1 + offset
        p = tmp_path / "z.txt"
        p.write_text(f"14.134725141\n{num}\n")
        with working_precision(prec):
            assert load_zeros(str(p)).gammas[1]._mpf_ == from_rational(num, 1, prec, round_nearest)

    @pytest.mark.parametrize("prec", PRECISIONS)
    def test_sum_drops_what_fsum_drops(self, prec):
        # 1/16 + 2^-(prec+4) is a tie at prec bits and rounds to 1/16; the
        # last term lies over 2 prec bits below the sum's least bit, so
        # mpf_sum drops it, where an exact sum would round the tie up
        with working_precision(prec):
            gammas = (mpf(16), mpf(2) ** (prec + 4), mpf(2) ** (3 * prec + 10))
            zl = zeros.ZeroList(gammas, source="ties", decimal_places=0)
            v = check_zero_sum(zl, gammas[-1])
            assert v.empirical_sum == mpf(1) / 8
            assert v.empirical_sum._mpf_ == (2 * mp.fsum(1 / g for g in gammas))._mpf_

    @pytest.mark.parametrize("prec", PRECISIONS)
    def test_sum_with_a_last_ordinate_near_1e175(self, tmp_path, prec):
        # mpf_sum drops the last term at 100 and 192 bits, not at 256 or 320
        p = tmp_path / "z.txt"
        p.write_text("14.134725141\n21.022039639\n25.010857580\n1" + "0" * 175 + ".5\n")
        with working_precision(prec):
            zl = load_zeros(str(p))
            want = (2 * mp.fsum(1 / g for g in zl.gammas))._mpf_
            assert check_zero_sum(zl, zl.max_height).empirical_sum._mpf_ == want


class TestZeroSumSurvivesOrdinateRounding:
    """Each listed ordinate is its zero's rounding to ``decimal_places``:
    the true gamma lies within delta = 10^-places / 2 of it.  Moving every
    gamma <= t2 that far moves sum 2/gamma by at most 2 delta/(gamma(gamma -
    delta)) a zero, and a gamma within delta of t2 may enter or leave the
    sum, 2/(gamma - delta) at most.  The PASS survives that when the margin
    exceeds the total."""

    @staticmethod
    def uncertainty(gammas, t2, delta):
        moved = mp.fsum(2 * delta / (g * (g - delta)) for g in gammas if g <= t2 + delta)
        edge = mp.fsum(2 / (g - delta) for g in gammas if abs(g - t2) <= delta)
        return moved + edge

    @pytest.mark.parametrize("t2", [100, 1000, 3000, 5000])
    def test_margin_exceeds_the_rounding_of_the_ordinates(self, zero_list, t2):
        with working_precision():
            delta = mpf(10) ** -zero_list.decimal_places / 2
            v = check_zero_sum(zero_list, t2)
            assert v.passed
            assert v.margin > self.uncertainty(zero_list.gammas, mpf(t2), delta)

    def test_margin_exceeds_it_at_every_integer_t2_of_the_constants_workload(self, zero_list):
        # between two ordinates the sum is fixed and the bound grows with t2,
        # so over the integers 1000..5000 the margin is least at 1000 and at
        # the first integer at or above each ordinate; the running sums in
        # 192 bits are off by under 1e-50, far inside the 1e-12 head room
        with working_precision(192):
            gammas = zero_list.gammas
            delta = mpf(10) ** -zero_list.decimal_places / 2
            running = [mpf(0)]
            for g in gammas:
                running.append(running[-1] + 2 / g)
            worst = self.uncertainty(gammas, mpf(5000), delta)
            worst += max((2 / (g - delta) for g in gammas
                          if abs(g - mp.nint(g)) <= delta), default=mpf(0))
            points = {1000} | {int(mp.ceil(g)) for g in gammas if 1000 < g <= 5000}
            for t2 in sorted(points):
                margin = zero_sum_bound(t2) - running[zero_list.count_below(t2)]
                assert margin > worst + mpf("1e-12"), t2
