"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``.  It imports the package from the checkout's ``src``,
generates the workload's commands from the seed and warms up; that is the
set-up, timed from the moment the parent spawned this process.  With
``--setup-only`` it stops there.  Otherwise it runs a closed loop: one client
sends the next command only after the previous one returned, cycling through
the command list.  The first pass always completes; after that a command is
started only if its last duration still fits in ``--seconds``.

Each untraced command runs inside a ``calibration.HostSampler``, which times
a fixed reference kernel around and during it; ``wall_ref`` is the command
list's cost in kernel runs, ``wall_s`` its raw time.

With ``--trace 1`` every command runs twice back to back, untraced and then
traced, so the traced and untraced times of a pass come from the same run
and their difference is the tracing overhead.

The record, a JSON file, holds the per-command samples, the checks, the
environment fingerprint and the metrics; the spans of traced runs go to a
second file next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", type=Path, required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--spawned-at", type=float, required=True, help="parent's time.monotonic()")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    cli_main, ops = set_up(args.root, args.workload, args.seed, args.size)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        args.out.write_text(json.dumps({"setup_s": setup_s}))
        return 0
    record, spans = run(cli_main, ops, args.seconds, bool(args.trace), args.work_dir)
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  size=args.size, setup_s=setup_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  fingerprint=fingerprint(args.root))
    if spans:
        spans_path = args.out.with_suffix(".spans.json")
        spans_path.write_text(json.dumps(spans))
        record["spans_file"] = spans_path.name
    args.out.write_text(json.dumps(record, indent=1))
    return 0


def set_up(root: Path, workload: str, seed: int, size: str):
    """Import the checkout's package, generate the commands, warm up."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import primebounds
    from primebounds import cli

    if src not in Path(primebounds.__file__).resolve().parents:
        raise SystemExit(f"imported primebounds from {primebounds.__file__}, not from {src}")
    ops = workloads.build(workload, seed, size, root)
    # warm-up: the click parse path, and scipy.special, which the scans
    # import on first use
    execute(cli.cli.main, ["--format", "json", "ramanujan", "--list"])
    import scipy.special  # noqa: F401
    return cli.cli.main, ops


def execute(cli_main, args: list, tracer=None, command: str | None = None):
    """Run one CLI command in-process; returns (seconds, exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        sid = tracer.open(f"cli.{command}") if tracer else None
        try:
            rc = cli_main(args=args, standalone_mode=False)
            code = rc if isinstance(rc, int) else 0
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception as exc:  # counted as a failed operation, never aborts the run
            code, error = None, f"{type(exc).__name__}: {exc}"
        finally:
            if tracer:
                tracer.close(sid)
        elapsed = time.perf_counter() - start
    if error is None and code not in (0, 1):
        error = f"exit code {code}: {err.getvalue().strip()[-500:]}"
    return elapsed, code, out.getvalue(), error


def parse_documents(text: str) -> list:
    """The JSON documents a command printed, in order."""
    decoder = json.JSONDecoder()
    docs, i = [], 0
    while True:
        while i < len(text) and text[i].isspace():
            i += 1
        if i == len(text):
            return docs
        doc, i = decoder.raw_decode(text, i)
        docs.append(doc)


def judge(op, code, stdout, error):
    """(problems, notes) for one execution of ``op``."""
    if error is not None:
        return [error], []
    notes = []
    if code != 0:
        if code not in op.exit_notes:
            return [f"exit code {code}"], []
        notes.append(op.exit_notes[code])
    try:
        problems = op.check(parse_documents(stdout))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"output not as expected: {type(exc).__name__}: {exc}"]
    return problems, notes


def run(cli_main, ops, seconds: float, traced: bool, work_dir: Path):
    """The closed loop; returns (record, spans of the traced executions)."""
    tracer = tracing.Tracer()
    probes = tracing.Probes(tracer)
    modes = (False, True) if traced else (False,)
    samples = {mode: [[] for _ in ops] for mode in modes}
    costs = [[] for _ in ops]   # untraced executions, in kernel runs
    kernel_s = [[] for _ in ops]  # the kernel timings behind each cost
    sampler = calibration.HostSampler()
    exit_codes = [[] for _ in ops]
    layers = [[] for _ in ops]
    spans_out = []
    attempted = failed = 0
    failures, notes = [], set()
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        k, pass_no = i % len(ops), i // len(ops)
        op = ops[k]
        if pass_no > 0:
            need = sum(samples[mode][k][-1] for mode in modes)
            if time.perf_counter() + need > deadline:
                break
        for mode in modes:
            cache_dir = work_dir / f"pass{pass_no}-{'traced' if mode else 'plain'}"
            if mode:
                probes.install()
            try:
                if mode:
                    elapsed, code, stdout, error = execute(
                        cli_main, op.args_for(str(cache_dir)), tracer, op.command)
                else:
                    with sampler:
                        elapsed, code, stdout, error = execute(
                            cli_main, op.args_for(str(cache_dir)))
                    elapsed, cost = sampler.cost(elapsed)
                    costs[k].append(cost)
                    kernel_s[k].append(sampler.samples)
            finally:
                probes.uninstall()
            samples[mode][k].append(elapsed)
            exit_codes[k].append(code)
            if mode:
                spans, counts = tracer.take()
                layers[k].append(tracing.summarize(spans, counts))
                spans_out.append({"op": op.label, "pass": pass_no, "spans": spans})
            problems, op_notes = judge(op, code, stdout, error)
            attempted += 1
            notes.update(op_notes)
            if problems:
                failed += 1
                failures.append({"op": op.label, "pass": pass_no, "traced": mode,
                                 "problems": problems})
        i += 1

    medians = {mode: [statistics.median(s) for s in samples[mode]] for mode in modes}
    wall_s = sum(medians[False])
    e2e = {"wall_ref": sum(statistics.median(c) for c in costs), "wall_s": wall_s,
           "fail_ratio": failed / attempted}
    for op, med in zip(ops, medians[False]):
        if op.metric:
            e2e[op.metric] = med
    steps = sum(op.steps for op in ops)
    if steps:
        e2e["steps_per_s"] = steps / sum(m for op, m in zip(ops, medians[False]) if op.steps)
    record = {
        "attempted": attempted, "failed": failed, "failures": failures, "notes": sorted(notes),
        "ops": [{"label": op.label, "args": op.args_for(workloads.CACHE_DIR),
                 "samples_s": samples[False][k], "costs_ref": costs[k], "kernel_s": kernel_s[k],
                 "exit_codes": exit_codes[k]}
                for k, op in enumerate(ops)],
        "end_to_end": e2e,
    }
    if traced:
        totals = {}
        for per_op in layers:
            for key in set().union(*per_op):
                totals[key] = totals.get(key, 0.0) + statistics.median(d.get(key, 0.0) for d in per_op)
        record["per_layer"] = tracing.layer_metrics(totals, sum(medians[True]), wall_s)
        for k, op in enumerate(ops):
            record["ops"][k]["traced_samples_s"] = samples[True][k]
    return record, spans_out


def fingerprint(root: Path) -> dict:
    """What the speed of a run depends on besides the code; runs whose
    ``id`` differ are not comparable."""
    import mpmath
    import numpy
    import scipy
    from primebounds import hiprec

    fp = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "precision_bits": hiprec.get_default_precision(),
    }
    fp["id"] = hashlib.sha256(json.dumps(fp, sort_keys=True).encode()).hexdigest()[:12]
    fp["machine"] = platform.machine()
    fp["git_commit"] = _git_commit(root)
    fp["src_sha256"] = _tree_digest(root / "src" / "primebounds")
    return fp


def _git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*")):
        if f.is_file() and "__pycache__" not in f.parts:
            h.update(str(f.relative_to(path)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
