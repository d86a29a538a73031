"""CLI surface: subcommands, exit codes, formats, configuration merging."""

import contextlib
import gc
import io
import json
import weakref

import pytest
from click.testing import CliRunner

from primebounds.cli import EXIT_CONFIG, EXIT_FAIL, EXIT_PASS, cli


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    return runner.invoke(cli, args, standalone_mode=False, **kw)


def run(runner, args, **kw):
    # standalone mode gives us the real exit-code path
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


class TestTables:
    def test_empty_selection_usage_error(self, runner):
        res = run(runner, ["tables"])
        assert res.exit_code == EXIT_CONFIG

    def test_bad_selector(self, runner):
        res = run(runner, ["tables", "7"])
        assert res.exit_code == EXIT_CONFIG

    def test_table2_csv_with_comparison(self, runner):
        res = run(runner, ["--format", "csv", "tables", "2", "--compare-paper"])
        assert res.exit_code == EXIT_PASS
        header = res.output.splitlines()[0]
        assert "K_published" in header
        assert "dominates" in header
        assert res.output.count("True") >= 8


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

    def test_limit_below_thresholds_warns(self, runner):
        res = run(runner, ["--sieve-limit", "10000", "verify-primes",
                           "--limit", "1e4", "--spec", "theta_shift"])
        assert "warning" in res.stderr or res.exit_code == EXIT_PASS


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


class TestRamanujan:
    def test_window_run(self, runner):
        res = run(runner, ["--format", "json", "ramanujan", "--rung", "0",
                           "--steps", "500"])
        assert res.exit_code == EXIT_PASS
        payload = json.loads(res.output)
        assert payload["passed"] is True
        assert payload["steps_checked"] == 500

    def test_bad_rung_usage_error(self, runner):
        res = run(runner, ["ramanujan", "--rung", "99"])
        assert res.exit_code == EXIT_CONFIG

    def test_schedule_listing(self, runner):
        res = run(runner, ["ramanujan", "--list"])
        assert res.exit_code == EXIT_PASS
        assert "rung 0" in res.output

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
    def test_config_file_merging(self, runner, tmp_path):
        cfg = tmp_path / "pb.conf"
        cfg.write_text("sieve_limit = 20000\nprecision_bits = 128\n")
        res = run(runner, ["--config", str(cfg), "verify-primes", "--spec", "psi_sq",
                           "--limit", "1e4"])
        assert res.exit_code == EXIT_PASS

    def test_unknown_config_key(self, runner, tmp_path):
        cfg = tmp_path / "pb.conf"
        cfg.write_text("bogus = 1\n")
        res = run(runner, ["--config", str(cfg), "tables", "1"])
        assert res.exit_code == EXIT_CONFIG

    def test_precision_floor(self, runner):
        res = run(runner, ["--precision-bits", "64", "zeros", "check"])
        assert res.exit_code == EXIT_CONFIG

    def test_cache_commands(self, runner, tmp_path):
        res = run(runner, ["--cache-dir", str(tmp_path), "cache", "build",
                           "--limit", "10000"])
        assert res.exit_code == EXIT_PASS
        res2 = run(runner, ["--cache-dir", str(tmp_path), "cache", "clear"])
        assert res2.exit_code == EXIT_PASS
        assert "removed 1" in res2.output
