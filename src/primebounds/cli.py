"""Command-line front end.

Subcommands: derive, tables, verify-primes, zeros (check), ramanujan, cache.
Configuration merges, in increasing precedence: built-in defaults, a simple
``key = value`` config file, environment (PRIMEBOUNDS_CACHE_DIR), flags.

Exit codes are a stable scripting contract:
  0 pass, 1 a checked inequality genuinely failed, 2 precondition or
  configuration error, 3 I/O error.
"""

from __future__ import annotations

import csv as _csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import click

from . import engine, error_terms, hiprec, published, primes, ramanujan, zeros

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


@dataclass(frozen=True)
class RunConfig:
    precision_bits: int = hiprec.DEFAULT_PRECISION_BITS
    T: float = published.T_DEFAULT
    cache_dir: str | None = None
    output_format: str = "text"
    grid_density: int = 256
    sieve_limit: int = 1_000_000

    def __post_init__(self):
        if self.precision_bits < hiprec.MIN_PRECISION_BITS:
            raise click.UsageError(
                f"precision_bits must be >= {hiprec.MIN_PRECISION_BITS}"
            )
        if self.sieve_limit < 10_000:
            raise click.UsageError("sieve_limit must be >= 1e4")
        if self.output_format not in ("json", "csv", "text"):
            raise click.UsageError(f"unknown output format {self.output_format!r}")


_CONFIG_KEYS = {"precision_bits": int, "T": float, "cache_dir": str,
                "output_format": str, "grid_density": int, "sieve_limit": int}


def _read_config_file(path: str) -> dict:
    values = {}
    with open(path) as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.UsageError(f"{path}:{line_no}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise click.UsageError(f"{path}:{line_no}: unknown key {key!r}")
            values[key] = _CONFIG_KEYS[key](val.strip())
    return values


def _emit(cfg: RunConfig, payload: dict, text_lines, csv_rows=None) -> None:
    # An explicit file skips click's per-stream wrapper cache: that cache maps
    # a plain text stream to itself in a WeakKeyDictionary, so every sys.stdout
    # a caller swaps in (and all it holds) would stay alive for good.
    out = sys.stdout
    if cfg.output_format == "json":
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        click.echo(json.dumps(payload, indent=2, default=float), file=out)
    elif cfg.output_format == "csv":
        rows = csv_rows if csv_rows is not None else [payload]
        buf = io.StringIO()
        if rows:
            writer = _csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        click.echo(buf.getvalue().rstrip("\n"), file=out)
    else:
        for line in text_lines:
            click.echo(line, file=out)


def _echo_err(message: str) -> None:
    # an explicit stream for the same reason as in _emit
    click.echo(message, file=sys.stderr)


def _cache_path(cfg: RunConfig, limit: int) -> str | None:
    if cfg.cache_dir is None:
        return None
    os.makedirs(cfg.cache_dir, exist_ok=True)
    return os.path.join(cfg.cache_dir, f"prime_tables_{limit}.txt")


@click.group()
@click.option("--precision-bits", type=int, default=None, help="working precision (>= 100)")
@click.option("--T", "t_value", type=float, default=None, help="verification height T")
@click.option("--cache-dir", type=click.Path(file_okay=False), default=None,
              envvar="PRIMEBOUNDS_CACHE_DIR", help="prime-table cache directory")
@click.option("--format", "output_format",
              type=click.Choice(["json", "csv", "text"]), default=None)
@click.option("--grid-density", type=int, default=None, help="points per monotonicity grid")
@click.option("--sieve-limit", type=int, default=None, help="default sieve limit")
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None,
              help="key = value config file, overridden by flags")
@click.pass_context
def cli(ctx, precision_bits, t_value, cache_dir, output_format, grid_density,
        sieve_limit, config_path):
    """Verification toolkit for explicit prime-counting bounds under
    partially verified zero data."""
    values = {}
    if config_path is not None:
        try:
            values.update(_read_config_file(config_path))
        except OSError as exc:
            raise SystemExit(EXIT_IO) from exc
    for key, val in [("precision_bits", precision_bits), ("T", t_value),
                     ("cache_dir", cache_dir), ("output_format", output_format),
                     ("grid_density", grid_density), ("sieve_limit", sieve_limit)]:
        if val is not None:
            values[key] = val
    cfg = RunConfig(**values)
    hiprec.set_default_precision(cfg.precision_bits)
    ctx.obj = cfg


@cli.command()
@click.option("--T", "t_value", type=float, default=None)
@click.option("--variant", type=click.Choice(["strong", "weak"]), default="strong")
@click.option("--a", "a_value", type=float, default=1.0, help="weak-variant constant a")
@click.option("--seed-A", "seed_a", type=float, default=None)
@click.option("--seed-D", "seed_d", type=float, default=None)
@click.option("--seed-E", "seed_e", type=float, default=None)
@click.option("--max-rounds", type=int, default=8)
@click.pass_obj
def derive(cfg: RunConfig, t_value, variant, a_value, seed_a, seed_d, seed_e, max_rounds):
    """Run the iterative tightening loop and print the trace."""
    T = cfg.T if t_value is None else t_value
    var = error_terms.STRONG if variant == "strong" else error_terms.BoundVariant("weak", a_value)
    try:
        seed = None
        if seed_a is not None or seed_d is not None or seed_e is not None:
            base = engine.default_seed(T, var)
            seed = replace(
                base,
                A=seed_a if seed_a is not None else base.A,
                D=seed_d if seed_d is not None else base.D,
                E=seed_e if seed_e is not None else base.E,
            )
        report = engine.iterate(T, seed=seed, max_rounds=max_rounds, variant=var)
    except error_terms.ParameterError as exc:
        _echo_err(f"not admissible: {exc}")
        raise SystemExit(EXIT_CONFIG)
    lines = [f"variant={variant} a={float(var.leading_a()):.6g} T={T:g}"]
    for i, rnd in enumerate(report.rounds, start=1):
        lines.append(
            f"round {i}: A={rnd.state.A:.4g} D={rnd.state.D:.3f} E={rnd.state.E:.3f} "
            f"B={float(rnd.b_rounded):.4g} C={float(rnd.state.C):.4g} "
            f"E(A)={float(rnd.e_at_a):.6f} x_max={float(rnd.x_max):.4g}"
        )
    lines.append(f"final: K={float(report.final_constant):.4g} x_max={float(report.x_max):.4g}")
    _emit(cfg, report.to_dict(), lines)
    raise SystemExit(EXIT_PASS)


@cli.command()
@click.argument("which", nargs=-1)
@click.option("--compare-published", "--compare-paper", "compare", is_flag=True,
              help="add published reference rows and per-row verdicts")
@click.pass_obj
def tables(cfg: RunConfig, which, compare):
    """Regenerate the threshold-constant tables (choose 1, 2, or both)."""
    if not which:
        raise click.UsageError("select at least one table: 1 and/or 2")
    try:
        selection = sorted({int(w) for w in which})
    except ValueError:
        raise click.UsageError("table selector must be 1 or 2")
    if any(w not in (1, 2) for w in selection):
        raise click.UsageError("table selector must be 1 or 2")
    all_ok = True
    for w in selection:
        rows_out = []
        lines = [f"table {w}:"]
        if w == 1:
            got = engine.table1([published.T_DEFAULT] + [r[0] for r in published.TABLE1])
            ref = ((published.T_DEFAULT, published.STRONG_CONSTANT, published.STRONG_X_MAX),) + published.TABLE1
            for row, pub in zip(got, ref):
                ok = published.dominates_table1(row, pub)
                all_ok &= ok
                entry = {"T0": row[0], "K": float(row[1]), "x_max": float(row[2])}
                if compare:
                    entry.update({"K_published": pub[1], "x_max_published": pub[2],
                                  "dominates": ok})
                rows_out.append(entry)
                lines.append("  " + " ".join(f"{k}={v}" for k, v in entry.items()))
        else:
            got = engine.table2([r[0] for r in published.TABLE2], T=published.T_DEFAULT)
            for row, pub in zip(got, published.TABLE2):
                ok = published.dominates_table2(row, pub)
                all_ok &= ok
                entry = {"a": row[0], "K": float(row[1]), "x_max": float(row[2])}
                if compare:
                    entry.update({"K_published": pub[1], "x_max_published": pub[2],
                                  "dominates": ok})
                rows_out.append(entry)
                lines.append("  " + " ".join(f"{k}={v}" for k, v in entry.items()))
        _emit(cfg, {"table": w, "rows": rows_out}, lines, csv_rows=rows_out)
    raise SystemExit(EXIT_PASS if all_ok else EXIT_FAIL)


_SPEC_CHOICES = ["psi_sq", "theta_sq", "psi_shift", "theta_shift", "Pi_li", "pi_li"]


@cli.command("verify-primes")
@click.option("--limit", type=float, default=None, help="scan upper end (sieve limit)")
@click.option("--spec", "specs", multiple=True, type=click.Choice(_SPEC_CHOICES + ["weak"]),
              help="inequality kinds; default all strong kinds plus weak a=1 set")
@click.pass_obj
def verify_primes(cfg: RunConfig, limit, specs):
    """Scan the prime-counting inequalities against exact sieve tables."""
    limit = int(cfg.sieve_limit if limit is None else limit)
    a8 = 1 / (8 * math.pi)
    catalog = {
        "psi_sq": (primes.InequalitySpec("psi_sq", a8), published.THRESHOLDS_STRONG["psi_sq"]),
        "theta_sq": (primes.InequalitySpec("theta_sq", a8), published.THRESHOLDS_STRONG["theta_sq"]),
        "psi_shift": (primes.InequalitySpec("psi_shift", a8, C=published.PSI_SHIFT_C),
                      published.THRESHOLDS_STRONG["psi_shift"]),
        "theta_shift": (primes.InequalitySpec("theta_shift", a8, C=published.THETA_SHIFT_C),
                        published.THRESHOLDS_STRONG["theta_shift"]),
        "Pi_li": (primes.InequalitySpec("Pi_li", a8), published.THRESHOLDS_STRONG["Pi_li"]),
        "pi_li": (primes.InequalitySpec("pi_li", a8), published.THRESHOLDS_STRONG["pi_li"]),
    }
    weak_catalog = {
        f"weak_{kind}": (primes.InequalitySpec(kind, 1.0), thr)
        for kind, thr in published.THRESHOLDS_WEAK.items()
    }
    if not specs:
        chosen = {**catalog, **weak_catalog}
    else:
        chosen = {}
        for s in specs:
            if s == "weak":
                chosen.update(weak_catalog)
            else:
                chosen[s] = catalog[s]
    max_threshold = max(thr for _, thr in chosen.values())
    if limit <= max_threshold:
        _echo_err(
            f"warning: limit {limit} does not reach the largest threshold {max_threshold}; "
            "scan cannot confirm it"
        )
    tables_ = primes.build_tables(limit, cache_path=_cache_path(cfg, limit))
    results = []
    lines = []
    worst = EXIT_PASS
    for name, (spec, threshold) in chosen.items():
        report = primes.scan_inequality(spec, 2, limit, tables_)
        # Pi's published thresholds are integer ones: halving at its jumps
        # keeps it violated on the real line up to 97, past the 59 at integers
        if spec.kind == "Pi_li":
            consistent = report.integer_threshold_consistent(threshold)
        else:
            consistent = report.threshold_consistent(threshold)
        if not consistent and limit > threshold:
            worst = EXIT_FAIL
        entry = {
            "spec": name, "a": spec.a, "threshold_published": threshold,
            "last_violation": report.last_violation,
            "side": report.last_violation_side,
            "last_integer_violation": report.last_integer_violation,
            "consistent": consistent,
        }
        results.append(entry)
        lines.append(
            f"{name}: last violation {report.last_violation} ({report.last_violation_side}); "
            f"threshold {threshold} {'confirmed' if consistent else 'NOT confirmed'}"
        )
    _emit(cfg, {"limit": limit, "results": results}, lines, csv_rows=results)
    raise SystemExit(worst)


@cli.group("zeros")
def zeros_group():
    """Zero-data checks."""


@zeros_group.command("check")
@click.option("--file", "path", type=click.Path(dir_okay=False), default=None,
              help="ordinate file; defaults to the bundled fixture")
@click.option("--t2", type=float, default=5000.0)
@click.option("--kernel-c", type=float, default=35.17)
@click.option("--kernel-eps", type=float, default=1e-8)
@click.pass_obj
def zeros_check(cfg: RunConfig, path, t2, kernel_c, kernel_eps):
    """Check the reciprocal-ordinate sum bound and the kernel weight bound."""
    from .kernel import KernelParams

    path = zeros.bundled_zeros_path() if path is None else path
    try:
        zl = zeros.load_zeros(path)
    except OSError as exc:
        _echo_err(f"cannot read {path}: {exc}")
        raise SystemExit(EXIT_IO)
    except zeros.ZeroDataError as exc:
        _echo_err(str(exc))
        raise SystemExit(EXIT_CONFIG)
    try:
        sum_verdict = zeros.check_zero_sum(zl, t2)
    except ValueError as exc:  # coverage or parameter errors
        _echo_err(str(exc))
        raise SystemExit(EXIT_CONFIG)
    weights_verdict = zeros.check_kernel_weights(zl, KernelParams(kernel_c, kernel_eps))
    payload = {
        "file": path, "n_zeros": len(zl),
        "zero_sum": sum_verdict.to_dict(),
        "kernel_weights": weights_verdict.to_dict(),
    }
    lines = [
        f"zeros: {len(zl)} ordinates from {path}",
        f"sum 2/gamma (gamma <= {t2:g}) = {float(sum_verdict.empirical):.6f} "
        f"<= bound {float(sum_verdict.bound):.6f}: {'pass' if sum_verdict else 'FAIL'}",
        f"kernel weights: {weights_verdict.checked} checked, "
        f"{weights_verdict.skipped_out_of_band} out of band: "
        f"{'pass' if weights_verdict else 'FAIL'}",
    ]
    _emit(cfg, payload, lines)
    raise SystemExit(EXIT_PASS if (sum_verdict and weights_verdict) else EXIT_FAIL)


@cli.command("ramanujan")
@click.option("--rung", type=int, default=None, help="schedule rung index (0-based)")
@click.option("--list", "list_only", is_flag=True, help="print the regime schedule")
@click.option("--steps", type=int, default=20000, help="steps per window")
@click.option("--from-end", is_flag=True, help="verify the window at the rung top")
@click.option("--z-lo", type=float, default=None)
@click.option("--z-hi", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--a", "a_value", type=float, default=None)
@click.option("--precision-bits", "prec", type=int, default=None)
@click.option("--counterexample", type=int, default=None,
              help="direct count-only inequality check at this x (minutes near 3.8e10)")
@click.pass_obj
def ramanujan_cmd(cfg: RunConfig, rung, list_only, steps, from_end, z_lo, z_hi,
                  delta, a_value, prec, counterexample):
    """Stepping verification windows and the counterexample spot check."""
    schedule = ramanujan.regime_schedule()
    if list_only:
        rows = [r.__dict__ | {"n_steps": r.n_steps} for r in schedule]
        _emit(cfg, {"schedule": rows},
              [f"rung {i}: z ({r.z_lo}, {r.z_hi}] a={r.a:.4g} delta={r.delta:g} "
               f"steps={r.n_steps}" for i, r in enumerate(schedule)],
              csv_rows=rows)
        raise SystemExit(EXIT_PASS)
    if counterexample is not None:
        verdict = ramanujan.counterexample_check_direct(counterexample)
        _emit(cfg, verdict.to_dict(),
              [f"x={counterexample}: inequality {'holds' if verdict.holds else 'FAILS'}"])
        raise SystemExit(EXIT_PASS if verdict.holds else EXIT_FAIL)
    if rung is not None and z_lo is not None:
        raise click.UsageError("--rung and explicit window options are exclusive")
    if rung is not None:
        if not (0 <= rung < len(schedule)):
            raise click.UsageError(
                f"rung must be in [0, {len(schedule) - 1}], got {rung}"
            )
        regime = schedule[rung]
    else:
        if z_lo is None or z_hi is None or delta is None or a_value is None:
            raise click.UsageError("give --rung or all of --z-lo/--z-hi/--delta/--a")
    try:
        if rung is None:
            regime = ramanujan.Regime(z_lo, z_hi, a_value, delta, float("inf"))
        report = ramanujan.step_verify(regime, max_steps=steps, from_end=from_end, prec=prec)
    except (ramanujan.ParameterError, hiprec.PrecisionError, OverflowError) as exc:
        _echo_err(str(exc))
        raise SystemExit(EXIT_CONFIG)
    _emit(cfg, report.to_dict(), [
        f"rung z=({regime.z_lo}, {regime.z_hi}] a={regime.a:.4g} delta={regime.delta:g}",
        f"checked {report.steps_checked} steps at {report.precision_bits} bits: "
        f"min margin {float(report.min_margin):.6g} at z={report.min_margin_at}",
        "PASS" if report.passed else f"FAIL at z={report.first_failure}",
    ])
    raise SystemExit(EXIT_PASS if report.passed else EXIT_FAIL)


@cli.group()
def cache():
    """Prime-table cache management."""


@cache.command("path")
@click.pass_obj
def cache_path_cmd(cfg: RunConfig):
    click.echo(cfg.cache_dir or "(cache disabled; set --cache-dir or PRIMEBOUNDS_CACHE_DIR)",
               file=sys.stdout)
    raise SystemExit(EXIT_PASS)


@cache.command("build")
@click.option("--limit", type=float, default=None)
@click.pass_obj
def cache_build(cfg: RunConfig, limit):
    limit = int(cfg.sieve_limit if limit is None else limit)
    path = _cache_path(cfg, limit)
    if path is None:
        raise click.UsageError("no cache directory configured")
    primes.build_tables(limit, cache_path=path)
    click.echo(path, file=sys.stdout)
    raise SystemExit(EXIT_PASS)


@cache.command("clear")
@click.pass_obj
def cache_clear(cfg: RunConfig):
    if cfg.cache_dir is None or not os.path.isdir(cfg.cache_dir):
        click.echo("nothing to clear", file=sys.stdout)
        raise SystemExit(EXIT_PASS)
    removed = 0
    for name in os.listdir(cfg.cache_dir):
        if name.startswith("prime_tables_") and name.endswith(".txt"):
            os.remove(os.path.join(cfg.cache_dir, name))
            removed += 1
    click.echo(f"removed {removed} cache file(s)", file=sys.stdout)
    raise SystemExit(EXIT_PASS)


def main():
    try:
        cli(standalone_mode=False)
    except click.UsageError as exc:
        _echo_err(f"usage error: {exc.format_message()}")
        sys.exit(EXIT_CONFIG)
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        sys.exit(EXIT_CONFIG)
    except click.exceptions.Abort:
        sys.exit(EXIT_CONFIG)
    except SystemExit:
        raise
    except OSError as exc:
        _echo_err(f"I/O error: {exc}")
        sys.exit(EXIT_IO)


if __name__ == "__main__":
    main()
