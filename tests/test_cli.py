"""CLI surface: subcommands, exit codes, formats, the global flags."""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import click
import pytest
from click.testing import CliRunner

import primebounds
from primebounds import engine, hiprec, published, ramanujan
from primebounds.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, cli, main


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(cli, args, standalone_mode=False, **kw)


def run(runner, args, **kw):
    # standalone mode, as the console script runs; the exit codes are the
    # same without it
    return runner.invoke(cli, args, **kw)


class TestDerive:
    def test_strong_derive_text(self, runner):
        res = run(runner, ["derive", "--T", "3e12", "--variant", "strong"])
        assert res.exit_code == EXIT_PASS
        assert "final: K=9.06" in res.output

    def test_weak_derive_json(self, runner):
        res = run(runner, ["--format", "json", "derive", "--variant", "weak", "--a", "1"])
        assert res.exit_code == EXIT_PASS
        payload = json.loads(res.output)
        assert payload["schema_version"] == 1
        assert payload["final_constant"] <= 1.19
        assert payload["x_max"] >= 0.995 * 2.165e30

    def test_bad_seed_exit_code(self, runner):
        res = run(runner, ["derive", "--seed-A", "2.169e25", "--seed-D", "0.1",
                           "--seed-E", "10.0"])
        assert res.exit_code == EXIT_CONFIG
        assert "not admissible" in res.output

    def test_seed_with_eps_past_the_profile_range_is_not_admissible(self, runner):
        # it once stopped at the profile's own "lemma preconditions" refusal
        res = run(runner, ["derive", "--seed-E", "1e-7"])
        assert res.exit_code == EXIT_CONFIG
        [line] = res.stderr.splitlines()
        assert line.startswith("error: seed state not admissible: eps(A)=0.00389 > 1e-4; ")

    def test_seed_a_alone_recomputes_b_and_c_there(self, runner):
        # B and C once came from the default threshold 2.169e25, and the
        # seed failed "declared B below E/2 + D*E/log A"
        res = run(runner, ["derive", "--seed-A", "1.5e25"])
        assert res.exit_code == EXIT_PASS, res.output
        assert "round 1: A=1.5e+25 D=2.085 E=17.075 B=9.16 C=2.434" in res.output
        assert "final: K=9.06" in res.output

    def test_seeded_weak_run_derives_no_strong_chain(self, runner, monkeypatch):
        # the weak default threshold is the strong x_max; a given A replaces it
        variants = []
        original = engine.iterate

        def recording_iterate(T=engine.DEFAULT_T, seed=None, **kw):
            variants.append(kw.get("variant", engine.STRONG).kind)
            return original(T, seed=seed, **kw)

        monkeypatch.setattr(engine, "iterate", recording_iterate)
        res = run(runner, ["--format", "json", "derive", "--variant", "weak",
                           "--seed-A", str(published.WEAK_ITERATION_STATES[0][0])])
        assert res.exit_code == EXIT_PASS, res.output
        assert variants == ["weak"]
        assert json.loads(res.output)["iterations"][0]["A"] == published.WEAK_ITERATION_STATES[0][0]

    def test_zero_rounds_names_max_rounds(self, runner):
        # an empty loop is bad input, not a seed without admissible parameters
        res = run(runner, ["derive", "--max-rounds", "0"])
        assert res.exit_code == EXIT_CONFIG
        assert "max_rounds" in res.stderr
        assert "seed" not in res.stderr


class TestTables:
    def test_empty_selection_usage_error(self, runner):
        res = run(runner, ["tables"])
        assert res.exit_code == EXIT_CONFIG

    def test_bad_selector(self, runner):
        res = run(runner, ["tables", "7"])
        assert res.exit_code == EXIT_CONFIG

    def test_both_tables_derive_the_strong_constant_once(self, runner, monkeypatch):
        # table 2 starts from table 1's first row instead of re-deriving it
        strong_runs = []
        original = engine.iterate

        def counting_iterate(T=engine.DEFAULT_T, seed=None, **kw):
            if seed is None and kw.get("variant", engine.STRONG).kind == "strong":
                strong_runs.append(T)
            return original(T, seed=seed, **kw)

        monkeypatch.setattr(engine, "iterate", counting_iterate)
        res = run(runner, ["--format", "json", "tables", "1", "2"])
        assert res.exit_code == EXIT_PASS
        assert strong_runs.count(3e12) == 1

    def test_table2_text_with_comparison(self, runner):
        res = run(runner, ["tables", "2", "--compare-published"])
        assert res.exit_code == EXIT_PASS
        rows = res.output.splitlines()[1:]
        assert len(rows) == len(published.TABLE2)
        assert all("K_published=" in row and row.endswith("dominates=True") for row in rows)

    def test_tables_dominate_at_256_bits(self, runner):
        # the weak a = 1 search lands on B = 1.19 exactly, which rounding up
        # again took to K = 1.2 in the first round, and the row failed
        res = run(runner, ["--precision-bits", "256", "tables", "1", "2", "--compare-published"])
        assert res.exit_code == EXIT_PASS
        assert "  a=1.0 K=1.19 x_max=2.165986859533962e+30 " in res.output


class TestVerifyPrimes:
    def test_small_limit_warns(self, runner):
        res = run(runner, ["verify-primes", "--limit", "1e4", "--spec", "psi_sq"])
        assert res.exit_code == EXIT_PASS
        assert "threshold 59 confirmed" in res.output

    def test_pi_li_judged_on_integers(self, runner):
        # Pi_li holds from 59 at integers but only from 97 on the real line
        res = run(runner, ["--format", "json", "verify-primes", "--limit", "1e4",
                           "--spec", "Pi_li"])
        assert res.exit_code == EXIT_PASS
        (entry,) = json.loads(res.output)["results"]
        assert entry["last_violation"] == 97.0
        assert entry["last_integer_violation"] == 58
        assert entry["consistent"] is True

    def test_cache_dir_is_an_ignored_flag(self, runner, tmp_path):
        # prime tables are no longer cached: the flag only prints a note
        cache_dir = tmp_path / "cache"
        args = ["verify-primes", "--limit", "1e4"]
        plain = run(runner, args)
        res = run(runner, ["--cache-dir", str(cache_dir)] + args)
        assert res.exit_code == plain.exit_code == EXIT_PASS
        assert res.stdout == plain.stdout
        assert res.stderr.splitlines() == [
            "note: --cache-dir is ignored; prime tables are no longer cached"] + \
            plain.stderr.splitlines()
        assert not cache_dir.exists()

    def test_limit_below_thresholds_warns(self, runner):
        # 4000 is below theta_shift's threshold 5000: a warning, not a failure
        res = run(runner, ["verify-primes", "--limit", "4000", "--spec", "theta_shift"])
        assert res.exit_code == EXIT_PASS
        assert res.stderr.splitlines() == [
            "warning: limit 4000 does not reach the largest threshold 5000; scan cannot confirm it"]


class TestZeros:
    def test_bundled_check_passes(self, runner):
        res = run(runner, ["--format", "json", "zeros", "check", "--t2", "5000"])
        assert res.exit_code == EXIT_PASS
        payload = json.loads(res.output)
        assert payload["zero_sum"]["passed"] is True
        assert payload["kernel_weights"]["passed"] is True
        assert payload["zero_sum"]["empirical_sum"] <= payload["zero_sum"]["bound"]

    def test_low_t2_is_config_error(self, runner):
        res = run(runner, ["zeros", "check", "--t2", "30"])
        assert res.exit_code == EXIT_CONFIG

    def test_missing_file_is_io_error(self, runner):
        res = run(runner, ["zeros", "check", "--file", "/nonexistent/zeros.txt"])
        assert res.exit_code == 3

    def test_infinite_ordinate_is_config_error(self, runner, tmp_path):
        # an inf row once "covered" t2 and the check printed pass
        p = tmp_path / "z.txt"
        p.write_text("14.134725\ninf\n")
        res = run(runner, ["zeros", "check", "--file", str(p)])
        assert res.exit_code == EXIT_CONFIG
        assert ":2:" in res.stderr


    @pytest.mark.parametrize("rows, message", [
        ("14.134725141\n25.010857580\n21.022039639\n", "z.txt:3: ordinates not ascending"),
        ("14.134725141\n21.0x\n", "z.txt:2: not a number: '21.0x'"),
        ("21.022039639\n25.010857580\n", "is not the first zeta zero"),
        ("14.134725141\n1e100000000\n", "z.txt:2: out-of-range ordinate 1e100000000"),
        ("14.134725141\n1e-100000000\n", "z.txt:2: out-of-range ordinate 1e-100000000"),
        ("14.134725141\n1.4e100000000000000000000000000000000000000001\n",
         "z.txt:2: out-of-range ordinate 1.4e1000"),
    ], ids=["descending", "non-numeric", "no-first-zero", "exponent-1e8", "exponent-minus-1e8",
            "exponent-41-digits"])
    def test_bad_ordinate_file_is_one_line_config_error(self, runner, tmp_path, rows, message):
        p = tmp_path / "z.txt"
        p.write_text(rows)
        res = run(runner, ["zeros", "check", "--file", str(p)])
        assert res.exit_code == EXIT_CONFIG
        assert len(res.stderr.strip().splitlines()) == 1
        assert message in res.stderr
        assert "Traceback" not in res.output


    @pytest.mark.parametrize("data", [b"14.134725141\n21.0\xff\n",
                                      "14.134725141\n21.0\u00e9\n".encode("latin-1")],
                             ids=["xff-byte", "latin-1"])
    def test_non_utf8_ordinate_file_is_one_line_config_error(self, runner, tmp_path, data):
        p = tmp_path / "z.txt"
        p.write_bytes(data)
        res = run(runner, ["zeros", "check", "--file", str(p)])
        assert res.exit_code == EXIT_CONFIG
        assert len(res.stderr.strip().splitlines()) == 1
        assert "z.txt:2: not UTF-8 text" in res.stderr
        assert "Traceback" not in res.output


class TestRamanujan:
    def test_window_run(self, runner):
        res = run(runner, ["--format", "json", "ramanujan", "--rung", "0",
                           "--steps", "500"])
        assert res.exit_code == EXIT_PASS
        payload = json.loads(res.output)
        assert payload["passed"] is True
        assert payload["steps_checked"] == 500

    def test_precision_comes_from_the_global_flag(self, runner):
        res = run(runner, ["--format", "json", "--precision-bits", "256", "ramanujan",
                           "--rung", "0", "--steps", "50"])
        assert res.exit_code == EXIT_PASS
        assert json.loads(res.output)["precision_bits"] == 256

    def test_subcommand_precision_flag_is_gone(self, runner):
        res = run(runner, ["ramanujan", "--rung", "0", "--steps", "50",
                           "--precision-bits", "256"])
        assert res.exit_code == EXIT_CONFIG
        assert "--precision-bits" in res.stderr

    def test_bad_rung_usage_error(self, runner):
        res = run(runner, ["ramanujan", "--rung", "99"])
        assert res.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("option, value", [
        ("--z-lo", "43"), ("--z-hi", "44"), ("--delta", "1e-8"), ("--a", "5")])
    def test_rung_with_a_window_option_is_usage_error(self, runner, option, value):
        # each was once dropped in silence, the rung's own value used instead
        res = run(runner, ["ramanujan", "--rung", "0", option, value, "--steps", "3"])
        assert res.exit_code == EXIT_CONFIG
        assert "exclusive" in res.stderr

    def test_window_too_long_for_the_grid_names_z_hi(self, runner):
        # delta = 1 is exact; z_hi = 1e300 puts the grid's top past 192 bits,
        # which the message once blamed on delta
        res = run(runner, ["ramanujan", "--z-lo", "43", "--z-hi", "1e300", "--delta", "1", "--a", "1"])
        assert res.exit_code == EXIT_CONFIG
        assert len(res.stderr.strip().splitlines()) == 1
        assert "z_hi 1e+300" in res.stderr and "not exact at 192 bits" in res.stderr

    def test_schedule_listing(self, runner):
        res = run(runner, ["ramanujan", "--list"])
        assert res.exit_code == EXIT_PASS
        assert "rung 0" in res.output

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_schedule_listing_counts_each_rung_once(self, runner, monkeypatch, fmt):
        # n_steps is an exact rational quotient, taken once per regime when
        # the regime is built; the listing takes it once per rung for both
        # formats, however often it reads it
        rungs = len(ramanujan.regime_schedule())
        calls = []
        step_count = ramanujan._step_count

        def counted(*args):
            calls.append(args)
            return step_count(*args)

        monkeypatch.setattr(ramanujan, "_step_count", counted)
        res = run(runner, ["--format", fmt, "ramanujan", "--list"])
        assert res.exit_code == EXIT_PASS
        assert len(calls) == rungs

    @pytest.mark.parametrize("args", [
        ["--rung", "0"],
        ["--z-lo", "43", "--z-hi", "44", "--delta", "1e-8", "--a", "1"],
    ])
    def test_steps_and_from_end_go_with_a_rung_or_a_window(self, runner, args):
        res = run(runner, ["--format", "json", "ramanujan", *args, "--steps", "3", "--from-end"])
        assert res.exit_code in (EXIT_PASS, EXIT_FAIL)
        assert json.loads(res.stdout)["steps_checked"] == 3

    @pytest.mark.parametrize("bad", [
        {"--z-lo": "40"}, {"--delta": "0"}, {"--delta": "nan"}, {"--delta": "inf"},
        {"--delta": "1e-90"}, {"--a": "-1"}, {"--steps": "0"}, {"--steps": "-5"},
        {"--z-lo": "2e9", "--z-hi": "3e9", "--delta": "1"},
    ])
    def test_bad_explicit_window_is_config_error(self, runner, bad):
        window = {"--z-lo": "43", "--z-hi": "44", "--delta": "1e-8", "--a": "1",
                  "--steps": "3", **bad}
        args = ["ramanujan"] + [item for pair in window.items() for item in pair]
        res = run(runner, args)
        assert res.exit_code == EXIT_CONFIG
        assert res.exception is None or isinstance(res.exception, SystemExit)

    def test_explicit_window_failure_exit(self, runner):
        res = run(runner, ["ramanujan", "--z-lo", "43", "--z-hi", "53",
                           "--delta", "10", "--a", "1e7", "--steps", "2"])
        assert res.exit_code == EXIT_FAIL

    @pytest.mark.parametrize("window, expected", [
        (["--z-lo", "43", "--z-hi", "53", "--delta", "10", "--a", "1e7", "--steps", "5"],
         {"steps_checked": 1, "min_margin": -5.271844390463604e+42, "min_margin_at": 43.0,
          "first_failure": 43.0}),
        (["--z-lo", "340", "--z-hi", "699", "--delta", "1e-8", "--a", "1", "--steps", "50"],
         {"steps_checked": 50, "min_margin": -3.613358535174395e+282,
          "min_margin_at": 340.00000049, "first_failure": 340.0}),
    ])
    def test_window_outside_float_range(self, runner, window, expected):
        # a step of width 10, and f and g past e^680: the facts as before the
        # steps were decided in float64
        res = run(runner, ["--format", "json", "ramanujan", *window])
        assert res.exit_code == EXIT_FAIL
        payload = json.loads(res.output)
        assert {k: payload[k] for k in expected} == expected

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("window", [
        ["--z-lo", "400", "--z-hi", "401", "--delta", "0.1", "--a", "1", "--steps", "2"],
        ["--z-lo", "43", "--z-hi", "44", "--delta", "1e-8", "--a", "1e308", "--steps", "3"],
    ])
    def test_margin_beyond_a_double_is_config_error(self, runner, fmt, window):
        # -Infinity is not JSON: such a window says so on one line and exits 2
        res = run(runner, ["--format", fmt, "ramanujan", *window])
        assert res.exit_code == EXIT_CONFIG
        assert res.stdout == ""
        assert len(res.stderr.strip().splitlines()) == 1
        assert "does not fit a double" in res.stderr

    @pytest.mark.parametrize("x, code, verdict", [
        (published.RAMANUJAN_LAST_COUNTEREXAMPLE, EXIT_FAIL, "FAILS"),
        (published.RAMANUJAN_LAST_COUNTEREXAMPLE + 1, EXIT_PASS, "holds"),
    ])
    def test_last_counterexample_boundary(self, runner, x, code, verdict):
        res = run(runner, ["ramanujan", "--counterexample", str(x)])
        assert res.exit_code == code
        assert res.stdout == f"x={x}: inequality {verdict}\n"


# bad input that once escaped as a traceback with exit 1, or (kernel-eps inf)
# emptied the kernel band into a vacuous pass
BAD_INPUTS = [
    ["derive", "--T", "1e-3"],
    ["derive", "--T", "1e300"],
    ["derive", "--T", "inf"],
    ["derive", "--variant", "weak", "--a", "0"],
    ["derive", "--variant", "weak", "--a", "inf"],
    ["derive", "--seed-E", "inf"],
    ["derive", "--seed-E", "0"],
    ["derive", "--variant", "weak", "--seed-E", "0"],
    ["derive", "--seed-E", "-1"],
    ["derive", "--seed-D", "inf"],
    ["derive", "--seed-D", "nan"],
    ["derive", "--seed-A", "nan"],
    ["derive", "--seed-A", "inf"],
    ["derive", "--seed-A", "1e27"],
    ["zeros", "check", "--kernel-c", "-1"],
    ["zeros", "check", "--kernel-eps", "0"],
    ["zeros", "check", "--kernel-eps", "inf"],
    ["zeros", "check", "--t2", "nan"],
    ["verify-primes", "--limit", "50"],
    ["verify-primes", "--limit", "1e30"],
    ["verify-primes", "--limit", "nan"],
    ["verify-primes", "--limit", "inf"],
    ["ramanujan", "--counterexample", "1"],
    ["ramanujan", "--counterexample", "-5"],
    ["ramanujan", "--counterexample", "1000000000001"],
    # the four modes of ramanujan mixed, and --steps/--from-end (given, even
    # at their defaults) with --list or --counterexample; each once ran the
    # first mode and dropped the rest in silence
    ["ramanujan", "--list", "--counterexample", "1000"],
    ["ramanujan", "--list", "--rung", "0"],
    ["ramanujan", "--list", "--a", "5"],
    ["ramanujan", "--list", "--steps", "5"],
    ["ramanujan", "--list", "--steps", "20000"],
    ["ramanujan", "--list", "--from-end"],
    ["ramanujan", "--counterexample", "1000", "--rung", "0"],
    ["ramanujan", "--counterexample", "1000", "--z-lo", "43"],
    ["ramanujan", "--counterexample", "1000", "--delta", "1e-8"],
    ["ramanujan", "--counterexample", "1000", "--steps", "5"],
    ["ramanujan", "--counterexample", "1000", "--from-end"],
    ["ramanujan", "--rung", "0", "--a", "5", "--counterexample", "1000"],
    ["ramanujan", "--rung", "0", "--z-hi", "44", "--steps", "3", "--from-end"],
    # usage errors, raised by click or by a command; in-process they once
    # escaped as click exceptions, which the runner reported as exit 1
    ["ramanujan", "--rung", "99"],
    ["verify-primes", "--limit", "abc"],
    ["ramanujan", "--bogus"],
    ["tables", "3"],
    ["nosuch"],
]


class TestFaults:
    @pytest.mark.parametrize("args", BAD_INPUTS, ids=" ".join)
    def test_bad_input_exits_2(self, runner, args):
        for standalone_mode in (True, False):
            res = runner.invoke(cli, args, standalone_mode=standalone_mode)
            assert res.exit_code == EXIT_CONFIG
            assert res.exception is None or isinstance(res.exception, SystemExit)
            assert len(res.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("args", BAD_INPUTS, ids=" ".join)
    def test_in_process_entry_points_exit_2(self, monkeypatch, args):
        # cli.main(..., standalone_mode=False) is how in-process callers
        # drive the CLI; main() is the console entry point
        monkeypatch.setattr(sys, "argv", ["primebounds", *args])
        entry_points = [lambda: cli.main(args=args, standalone_mode=False), main]
        for entry in entry_points:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    pytest.raises(SystemExit) as exit_:
                entry()
            assert exit_.value.code == EXIT_CONFIG
            assert len(err.getvalue().strip().splitlines()) == 1

    def test_counterexample_at_2_is_a_real_failure(self, runner):
        # pi(2)^2 = 1 > 0 = (2e/log 2) pi(2/e): the inequality is false, not bad input
        res = run(runner, ["--format", "json", "ramanujan", "--counterexample", "2"])
        assert res.exit_code == EXIT_FAIL
        assert json.loads(res.stdout)["holds"] is False


class TestConsoleEntry:
    """``python -m primebounds.cli`` in a process of its own, as a shell runs it."""

    @staticmethod
    def _run(*args):
        package_root = str(Path(primebounds.__file__).resolve().parents[1])
        return subprocess.run(
            [sys.executable, "-m", "primebounds.cli", *args], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": package_root})

    def test_json_schedule(self):
        res = self._run("--format", "json", "ramanujan", "--list")
        assert res.returncode == EXIT_PASS, res.stderr
        assert len(json.loads(res.stdout)["schedule"]) == len(ramanujan.regime_schedule())

    def test_usage_error_exits_2_with_one_line(self):
        res = self._run("ramanujan", "--rung", "99")
        assert res.returncode == EXIT_CONFIG
        assert res.stderr.splitlines() == [
            f"usage error: rung must be in [0, {len(ramanujan.regime_schedule()) - 1}], got 99"]
        assert res.stdout == ""


class TestOutput:
    def test_replaced_stdout_is_released(self):
        # in-process callers swap sys.stdout per command; the CLI must not
        # keep the old stream, and everything written to it, alive
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(SystemExit):
            cli.main(args=["--format", "json", "ramanujan", "--list"], standalone_mode=False)
        assert json.loads(buf.getvalue())["schema_version"] == 1
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None

    def test_replaced_stderr_is_released(self):
        # the same for the error path, which writes to stderr
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf), pytest.raises(SystemExit) as exit_:
            cli.main(args=["ramanujan", "--rung", "0", "--steps", "0"], standalone_mode=False)
        assert exit_.value.code == EXIT_CONFIG
        assert "max_steps must be >= 1" in buf.getvalue()
        ref = weakref.ref(buf)
        del buf
        gc.collect()
        assert ref() is None


class TestConfig:
    @pytest.mark.parametrize("args, option", [
        (["--config", "pb.conf", "tables", "1"], "--config"),
        (["--format", "csv", "tables", "1"], "--format"),
        (["tables", "1", "--compare-paper"], "--compare-paper"),
    ], ids=["--config", "--format csv", "--compare-paper"])
    def test_removed_option_is_usage_error(self, runner, tmp_path, monkeypatch, args, option):
        # each setting has one flag: no config file, no csv writer, no alias
        monkeypatch.chdir(tmp_path)
        (tmp_path / "pb.conf").write_text("output_format = json\n")
        res = run(runner, args)
        assert res.exit_code == EXIT_CONFIG
        assert res.exception is None or isinstance(res.exception, SystemExit)
        assert option in res.stderr
        assert res.stdout == ""

    def test_cache_dir_environment_variable_is_ignored(self, runner, tmp_path):
        res = run(runner, ["ramanujan", "--list"], env={"PRIMEBOUNDS_CACHE_DIR": str(tmp_path)})
        assert res.exit_code == EXIT_PASS
        assert res.stderr == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["path", "build", "clear"])
    def test_cache_commands_are_gone(self, runner, tmp_path, command):
        # prime tables are built in full on every call; there is no cache
        res = run(runner, ["--cache-dir", str(tmp_path), "cache", command])
        assert res.exit_code == EXIT_CONFIG
        assert "No such command 'cache'" in res.stderr
        assert res.stdout == ""

    def test_grid_density_flag_is_gone(self, runner):
        res = run(runner, ["--grid-density", "256", "ramanujan", "--list"])
        assert res.exit_code == EXIT_CONFIG
        assert "--grid-density" in res.stderr

    def test_global_T_flag_is_gone(self, runner):
        # only derive takes a height, through its own --T
        res = run(runner, ["--T", "1e13", "ramanujan", "--list"])
        assert res.exit_code == EXIT_CONFIG
        assert "--T" in res.stderr

    def test_sieve_limit_flag_is_gone(self, runner):
        # it only set the default of --limit, now the constant 1e6
        res = run(runner, ["--sieve-limit", "20000", "ramanujan", "--list"])
        assert res.exit_code == EXIT_CONFIG
        assert "--sieve-limit" in res.stderr

    @pytest.mark.parametrize("args, code", [
        (["ramanujan", "--list"], EXIT_PASS),
        (["ramanujan", "--counterexample", "2"], EXIT_FAIL),
        (["derive", "--T", "1e-3"], EXIT_CONFIG),
        (["tables", "3"], EXIT_CONFIG),
    ], ids=["exit-0", "exit-1", "exit-2", "usage-error"])
    def test_precision_flag_is_restored_after_the_command(self, args, code):
        # an in-process caller's later library calls keep its own precision
        before = hiprec.get_default_precision()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
                pytest.raises((SystemExit, click.UsageError)) as exit_:
            cli.main(args=["--precision-bits", "256", *args], standalone_mode=False)
        got = exit_.value.code if isinstance(exit_.value, SystemExit) else exit_.value.exit_code
        assert got == code
        assert before != 256
        assert hiprec.get_default_precision() == before

    def test_precision_floor(self, runner):
        res = run(runner, ["--precision-bits", "64", "zeros", "check"])
        assert res.exit_code == EXIT_CONFIG
        assert res.stderr == "error: precision 64 bits is below the 100-bit floor\n"
