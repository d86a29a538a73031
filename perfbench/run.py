"""The repository benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload constants --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

Each workload runs in fresh worker processes (``worker.py``): six that only
set up, then the measuring one, so ``setup_s`` is the median of seven
set-ups.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.  Lines
before it list every metric by name with its unit.  The full record of each
run, and the spans of a traced run, are kept under ``.bench_out/records``.

Exits 2 without a result when the checkout holds no ``src/primebounds``, and
1 when a worker fails or the run overruns its time limit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 6
TIME_LIMIT_S = 170  # one workload, all processes, within the 180 s allowed

# printed alongside the end-to-end metrics; not every workload has each one
EXTRA_UNITS = {"wall_s": "s", "fail_ratio": "ratio", "tables_s": "s",
               "verify_primes_cold_s": "s", "verify_primes_warm_s": "s",
               "counterexample_s": "s", "steps_per_s": "1/s"}


def isolated_env() -> dict:
    """The workers' environment: the checkout's package only, no cache
    directory from outside, and native thread pools capped so that, with the
    single client thread, a run never uses more threads than processors."""
    env = {k: v for k, v in os.environ.items() if k != "PRIMEBOUNDS_CACHE_DIR"}
    threads = str(max(1, len(os.sched_getaffinity(0)) - 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args: list, out: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--out", str(out),
           *args, "--spawned-at", repr(time.monotonic())]
    subprocess.run(cmd, env=env, stdout=sys.stderr, check=True,
                   timeout=max(1.0, deadline - time.monotonic()))
    return json.loads(out.read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    records = ROOT / ".bench_out" / "records"
    work = ROOT / ".bench_out" / "tmp" / f"{workload}-{os.getpid()}"
    records.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    env = isolated_env()
    common = ["--workload", workload, "--seed", str(seed), "--size", size,
              "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(work)]
    try:
        setups = [spawn(common + ["--setup-only"], work / f"setup{i}.json", env, deadline)["setup_s"]
                  for i in range(SETUP_PROBES)]
        out = records / f"{workload}-seed{seed}-trace{trace}.json"
        record = spawn(common, out, env, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(record["setup_s"])
    record["setup_samples_s"] = setups
    record["end_to_end"]["setup_s"] = statistics.median(setups)
    record["end_to_end"]["peak_rss_mb"] = record["peak_rss_mb"]
    record["comparable_with"] = flag_fingerprints(records, out, record)
    out.write_text(json.dumps(record, indent=1))
    return record


def flag_fingerprints(records: Path, current: Path, record: dict) -> dict:
    """Earlier records of this workload, each marked comparable or not."""
    verdicts = {}
    for path in sorted(records.glob(f"{record['workload']}-seed*.json")):
        if path == current or path.name.endswith(".spans.json"):
            continue
        try:
            other = json.loads(path.read_text())["fingerprint"]["id"]
        except (ValueError, KeyError):
            continue
        verdicts[path.name] = other == record["fingerprint"]["id"]
        if not verdicts[path.name]:
            print(f"note: {path.name} was measured under fingerprint {other}, this run under "
                  f"{record['fingerprint']['id']}; the two are not comparable", file=sys.stderr)
    return verdicts


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="'tiny' only for the benchmark's own tests")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "primebounds" / "__init__.py").is_file():
        print(f"no src/primebounds under {ROOT}: nothing to benchmark", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, args.size)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for name, rec in results.items():
        prefix = f"{name}." if args.workload == "all" else ""
        print(f"[{name}] seed={args.seed} attempted={rec['attempted']} failed={rec['failed']} "
              f"fingerprint={rec['fingerprint']['id']}")
        for note in rec["notes"]:
            print(f"[{name}] note: {note}")
        for failure in rec["failures"]:
            print(f"[{name}] FAILED {failure['op']}: {'; '.join(failure['problems'])}")
        shown = {**e2e_units, **EXTRA_UNITS}
        for key, unit in shown.items():
            if key in rec["end_to_end"]:
                print(f"[{name}] {key} = {rec['end_to_end'][key]:.6g} {unit}")
        if args.trace:
            for key, unit in layer_units.items():
                print(f"[{name}] {key} = {rec['per_layer'][key]:.6g} {unit}")
            metrics.update({prefix + k: metric(rec["per_layer"][k], u)
                            for k, u in layer_units.items()})
        else:
            metrics.update({prefix + k: metric(rec["end_to_end"][k], u)
                            for k, u in e2e_units.items()})
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
