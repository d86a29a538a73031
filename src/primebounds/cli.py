"""Command-line front end.

Subcommands: derive, tables, verify-primes, zeros (check), ramanujan.
Two global flags set a run, each from the flag alone: ``--precision-bits``
(the ``working_precision`` scope the command runs in) and
``--format json|text``.  The hidden ``--cache-dir`` is accepted and ignored,
with a note on stderr: prime tables are no longer cached.

Exit codes are a stable scripting contract, the same for ``main()`` (the
console script), ``cli.main(..., standalone_mode=False)`` and click's test
runner in either mode:
  0  every check passed;
  1  a checked inequality genuinely failed, and nothing else;
  2  bad input: a usage error (an unknown command or option, a malformed
     or out-of-range value), or a ``ParameterError`` (``errors``: failed
     precondition, malformed zero table, precision below the floor, no
     root bracket, ...) or ``OverflowError`` raised while running;
  3  an I/O error (``OSError``), such as an unreadable ordinate file.
Errors are mapped to codes 2 and 3 in one place, ``_Cli.main``, which every
entry point runs, and print a one-line message to stderr instead of a
traceback.
"""

from __future__ import annotations

import json
import math
import sys

import click
from click.core import ParameterSource

from . import engine, error_terms, hiprec, published, primes, ramanujan, zeros
from .errors import ParameterError

SCHEMA_VERSION = 1

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3

DEFAULT_LIMIT = 1_000_000  # the default --limit of verify-primes


def _emit(output_format: str, payload: dict, text_lines) -> None:
    # An explicit file skips click's per-stream wrapper cache: that cache maps
    # a plain text stream to itself in a WeakKeyDictionary, so every sys.stdout
    # a caller swaps in (and all it holds) would stay alive for good.
    out = sys.stdout
    if output_format == "json":
        payload = {"schema_version": SCHEMA_VERSION, **payload}
        click.echo(json.dumps(payload, indent=2, default=float), file=out)
    else:
        for line in text_lines:
            click.echo(line, file=out)


def _echo_err(message: str) -> None:
    # an explicit stream for the same reason as in _emit
    click.echo(message, file=sys.stderr)


def _limit(limit: float) -> int:
    if not math.isfinite(limit):
        raise ParameterError(f"limit must be finite, got {limit}")
    return int(limit)


class _Cli(click.Group):
    """The top-level group: the one place errors become exit codes."""

    def main(self, *args, standalone_mode=True, **extra):
        # click runs non-standalone whatever the caller asked, so every error
        # reaches this chain; each command ends in SystemExit with its code
        try:
            return super().main(*args, standalone_mode=False, **extra)
        except click.UsageError as exc:
            _echo_err(f"usage error: {exc.format_message()}")
        except click.exceptions.Abort:
            _echo_err("aborted")
        except (click.ClickException, ParameterError, OverflowError) as exc:
            _echo_err(f"error: {exc}")
        except OSError as exc:
            _echo_err(f"I/O error: {exc}")
            raise SystemExit(EXIT_IO)
        raise SystemExit(EXIT_CONFIG)


@click.group(cls=_Cli)
@click.option("--precision-bits", type=int, default=hiprec.DEFAULT_PRECISION_BITS,
              help=f"working precision (>= {hiprec.MIN_PRECISION_BITS})")
@click.option("--cache-dir", default=None, hidden=True)
@click.option("--format", "output_format", type=click.Choice(["json", "text"]), default="text")
@click.pass_context
def cli(ctx, precision_bits, cache_dir, output_format):
    """Verification toolkit for explicit prime-counting bounds under
    partially verified zero data."""
    if cache_dir is not None:
        _echo_err("note: --cache-dir is ignored; prime tables are no longer cached")
    ctx.with_resource(hiprec.working_precision(precision_bits))
    ctx.obj = output_format


@cli.command()
@click.option("--T", "T", type=float, default=published.T_DEFAULT, help="verification height T")
@click.option("--variant", type=click.Choice(["strong", "weak"]), default="strong")
@click.option("--a", "a_value", type=float, default=1.0, help="weak-variant constant a")
@click.option("--seed-A", "seed_a", type=float, default=None)
@click.option("--seed-D", "seed_d", type=float, default=None)
@click.option("--seed-E", "seed_e", type=float, default=None)
@click.option("--max-rounds", type=int, default=8)
@click.pass_obj
def derive(output_format, T, variant, a_value, seed_a, seed_d, seed_e, max_rounds):
    """Run the iterative tightening loop and print the trace."""
    var = error_terms.STRONG if variant == "strong" else error_terms.BoundVariant("weak", a_value)
    report = engine.iterate(T, max_rounds=max_rounds, variant=var, A=seed_a, D=seed_d, E=seed_e)
    lines = [f"variant={variant} a={float(var.leading_a()):.6g} T={T:g}"]
    for i, rnd in enumerate(report.rounds, start=1):
        lines.append(
            f"round {i}: A={rnd.state.A:.4g} D={rnd.state.D:.3f} E={rnd.state.E:.3f} "
            f"B={float(rnd.b_rounded):.4g} C={float(rnd.state.C):.4g} "
            f"E(A)={float(rnd.e_at_a):.6f} x_max={float(rnd.x_max):.4g}"
        )
    lines.append(f"final: K={float(report.final_constant):.4g} x_max={float(report.x_max):.4g}")
    _emit(output_format, report.to_dict(), lines)
    raise SystemExit(EXIT_PASS)


@cli.command()
@click.argument("which", nargs=-1)
@click.option("--compare-published", "compare", is_flag=True,
              help="add published reference rows and per-row verdicts")
@click.pass_obj
def tables(output_format, which, compare):
    """Regenerate the threshold-constant tables (choose 1, 2, or both)."""
    if not which or any(w not in ("1", "2") for w in which):
        raise click.UsageError("select tables 1 and/or 2")
    all_ok = True
    strong_x_max = None  # table 1's first row, reused as table 2's starting point
    for w in sorted({int(w) for w in which}):
        if w == 1:
            got = engine.table1([published.T_DEFAULT] + [r[0] for r in published.TABLE1])
            strong_x_max = got[0][2]
            ref = ((published.T_DEFAULT, published.STRONG_CONSTANT, published.STRONG_X_MAX),) + published.TABLE1
            key, dominates = "T0", published.dominates_table1
        else:
            got = engine.table2([r[0] for r in published.TABLE2], T=published.T_DEFAULT,
                                strong_x_max=strong_x_max)
            ref, key, dominates = published.TABLE2, "a", published.dominates_table2
        rows_out = []
        lines = [f"table {w}:"]
        for row, pub in zip(got, ref):
            ok = dominates(row, pub)
            all_ok &= ok
            entry = {key: row[0], "K": float(row[1]), "x_max": float(row[2])}
            if compare:
                entry.update({"K_published": pub[1], "x_max_published": pub[2],
                              "dominates": ok})
            rows_out.append(entry)
            lines.append("  " + " ".join(f"{k}={v}" for k, v in entry.items()))
        _emit(output_format, {"table": w, "rows": rows_out}, lines)
    raise SystemExit(EXIT_PASS if all_ok else EXIT_FAIL)


@cli.command("verify-primes")
@click.option("--limit", type=float, default=DEFAULT_LIMIT, help="scan upper end (sieve limit)")
@click.option("--spec", "specs", multiple=True, type=click.Choice([*primes._KINDS, "weak"]),
              help="inequality kinds; default all strong kinds plus weak a=1 set")
@click.pass_obj
def verify_primes(output_format, limit, specs):
    """Scan the prime-counting inequalities against exact sieve tables."""
    limit = _limit(limit)
    shifts = {"psi_shift": published.PSI_SHIFT_C, "theta_shift": published.THETA_SHIFT_C}
    catalog = {
        kind: (primes.InequalitySpec(kind, 1 / (8 * math.pi), C=shifts.get(kind)), thr)
        for kind, thr in published.THRESHOLDS_STRONG.items()
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
    tables_ = primes.build_tables(limit)
    max_threshold = max(thr for _, thr in chosen.values())
    if limit <= max_threshold:
        _echo_err(
            f"warning: limit {limit} does not reach the largest threshold {max_threshold}; "
            "scan cannot confirm it"
        )
    results = []
    lines = []
    worst = EXIT_PASS
    reports = primes.scan_inequalities([spec for spec, _ in chosen.values()], 2, limit, tables_)
    for (name, (spec, threshold)), report in zip(chosen.items(), reports):
        # Pi's published thresholds are integer ones: halving at its jumps
        # keeps it violated on the real line up to 97, past the 59 at integers
        if spec.kind == "Pi_li":
            consistent = primes.integer_threshold_consistent(report, threshold)
        else:
            consistent = primes.threshold_consistent(report, threshold)
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
    _emit(output_format, {"limit": limit, "results": results}, lines)
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
def zeros_check(output_format, path, t2, kernel_c, kernel_eps):
    """Check the reciprocal-ordinate sum bound and the kernel weight bound."""
    from .kernel import KernelParams

    path = zeros.bundled_zeros_path() if path is None else path
    zl = zeros.load_zeros(path)
    sum_verdict = zeros.check_zero_sum(zl, t2)
    weights_verdict = zeros.check_kernel_weights(zl, KernelParams(kernel_c, kernel_eps))
    payload = {
        "file": path, "n_zeros": len(zl),
        "zero_sum": sum_verdict.to_dict(),
        "kernel_weights": weights_verdict.to_dict(),
    }
    lines = [
        f"zeros: {len(zl)} ordinates from {path}",
        f"sum 2/gamma (gamma <= {t2:g}) = {float(sum_verdict.empirical_sum):.6f} "
        f"<= bound {float(sum_verdict.bound):.6f}: {'pass' if sum_verdict else 'FAIL'}",
        f"kernel weights: {weights_verdict.checked} checked, "
        f"{weights_verdict.skipped_out_of_band} out of band: "
        f"{'pass' if weights_verdict else 'FAIL'}",
    ]
    _emit(output_format, payload, lines)
    raise SystemExit(EXIT_PASS if (sum_verdict and weights_verdict) else EXIT_FAIL)


@cli.command("ramanujan")
@click.option("--rung", type=int, default=None, help="schedule rung index (0-based)")
@click.option("--list", "list_only", is_flag=True, help="print the regime schedule")
@click.option("--steps", type=int, default=20000,
              help="steps per window; at or above the rung's n_steps (see --list) the whole rung")
@click.option("--from-end", is_flag=True, help="verify the window at the rung top")
@click.option("--z-lo", type=float, default=None)
@click.option("--z-hi", type=float, default=None)
@click.option("--delta", type=float, default=None)
@click.option("--a", "a_value", type=float, default=None)
@click.option("--counterexample", type=int, default=None,
              help="direct count-only inequality check at this x <= 1e12 (two prime counts)")
@click.pass_obj
def ramanujan_cmd(output_format, rung, list_only, steps, from_end, z_lo, z_hi,
                  delta, a_value, counterexample):
    """Stepping verification windows and the counterexample spot check.

    One of --list, --counterexample X, --rung N or the window
    --z-lo/--z-hi/--delta/--a; --steps and --from-end go with the last two.
    """
    modes = [name for name, given in (
        ("--list", list_only),
        ("--counterexample", counterexample is not None),
        ("--rung", rung is not None),
        ("--z-lo/--z-hi/--delta/--a", (z_lo, z_hi, delta, a_value) != (None,) * 4),
    ) if given]
    if len(modes) > 1:
        raise ParameterError(f"{' and '.join(modes)} are exclusive")
    ctx = click.get_current_context()
    stepping = any(ctx.get_parameter_source(p) is not ParameterSource.DEFAULT
                   for p in ("steps", "from_end"))
    if stepping and modes and modes[0] in ("--list", "--counterexample"):
        raise ParameterError(f"{modes[0]} and --steps/--from-end are exclusive")
    schedule = ramanujan.regime_schedule()
    if list_only:
        _emit(output_format, {"schedule": [r.__dict__ for r in schedule]},
              [f"rung {i}: z ({r.z_lo}, {r.z_hi}] a={r.a:.4g} delta={r.delta:g} "
               f"steps={r.n_steps}" for i, r in enumerate(schedule)])
        raise SystemExit(EXIT_PASS)
    if counterexample is not None:
        verdict = ramanujan.counterexample_check_direct(counterexample)
        payload = verdict.to_dict()
        del payload["passed"]  # this document states the outcome as "holds"
        _emit(output_format, payload,
              [f"x={counterexample}: inequality {'holds' if verdict.holds else 'FAILS'}"])
        raise SystemExit(EXIT_PASS if verdict.holds else EXIT_FAIL)
    if rung is not None:
        if not (0 <= rung < len(schedule)):
            raise click.UsageError(
                f"rung must be in [0, {len(schedule) - 1}], got {rung}"
            )
        regime = schedule[rung]
    else:
        if z_lo is None or z_hi is None or delta is None or a_value is None:
            raise click.UsageError("give --rung or all of --z-lo/--z-hi/--delta/--a")
        regime = ramanujan.Regime(z_lo, z_hi, a_value, delta, float("inf"))
    report = ramanujan.step_verify(regime, max_steps=steps, from_end=from_end)
    if not math.isfinite(float(report.min_margin)):
        raise OverflowError(
            f"the minimum margin, at z={report.min_margin_at}, does not fit a double"
        )
    _emit(output_format, report.to_dict(), [
        f"rung z=({regime.z_lo}, {regime.z_hi}] a={regime.a:.4g} delta={regime.delta:g}",
        f"checked {report.steps_checked} steps at {report.precision_bits} bits: "
        f"min margin {float(report.min_margin):.6g} at z={report.min_margin_at}",
        "PASS" if report.passed else f"FAIL at z={report.first_failure}",
    ])
    raise SystemExit(EXIT_PASS if report.passed else EXIT_FAIL)


main = cli  # the console script


if __name__ == "__main__":
    main()
