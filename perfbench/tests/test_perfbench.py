"""Tests of the benchmark itself (not of the package).

    python3 -m pytest perfbench/tests -q

The smoke runs use the ``tiny`` size, so the whole file takes about a minute.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import references  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["cli.derive", 0.0, 10.0, None],
        ["engine.iterate", 1.0, 4.0, 0],
        ["error_terms.e_total", 3.0, 6.0, 0],   # overlaps its sibling: union 1..6
        ["engine.iterate", 2.0, 3.0, 1],        # nested in a span of the same name
        ["zeros.load_zeros", 9.0, 12.0, 0],     # runs past its parent: clipped at 10
    ]
    assert tracing.self_times(spans) == [10 - 5 - 1, 3 - 1, 3, 1, 3]
    totals = tracing.summarize(spans, {"ramanujan.steps": 7})
    assert totals["cli.self_s"] == 4
    assert totals["engine.self_s"] == 3
    assert totals["engine.iterate.calls"] == 2
    assert totals["engine.iterate.s"] == 3          # only the outermost iterate
    assert totals["error_terms.self_s"] == 3
    assert totals["ramanujan.steps"] == 7


def test_tracer_records_parents_and_probes_restore_the_package():
    sys.path.insert(0, str(ROOT / "src"))
    from primebounds import engine, ramanujan

    originals = (ramanujan.ei, engine.e_total)
    tracer = tracing.Tracer()
    probes = tracing.Probes(tracer)
    probes.install()
    try:
        assert ramanujan.ei is not originals[0]
        ramanujan.ei(50)
    finally:
        probes.uninstall()
    assert (ramanujan.ei, engine.e_total) == originals
    spans, _ = tracer.take()
    assert [(s[0], s[3]) for s in spans] == [("hiprec.ei", None)]


def test_host_sampler_cost_takes_out_its_own_time():
    sampler = calibration.HostSampler()
    sampler.samples, sampler.inside_s = [0.001, 0.002, 0.003], 0.002
    own, cost = sampler.cost(0.202)
    assert own == pytest.approx(0.2)
    assert cost == pytest.approx(100)


def test_host_sampler_samples_during_a_command_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calibration.HostSampler(interval_s=0.01)
    with sampler:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) >= 4         # before, at least two during, after
    assert 0 < sampler.inside_s < 0.1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_parse_documents_and_exit_code_notes():
    assert worker.parse_documents('{"a": 1}\n{\n "b": 2\n}\n') == [{"a": 1}, {"b": 2}]
    op = workloads.Op("x", "derive", [], lambda docs: [], exit_notes={1: "known"})
    assert worker.judge(op, 1, "{}", None) == ([], ["known"])
    assert worker.judge(op, 2, "{}", None)[0] == ["exit code 2"]
    assert worker.judge(op, None, "", "ValueError: boom")[0] == ["ValueError: boom"]


def test_a_wrong_reference_shows_in_fail_ratio(tmp_path, monkeypatch):
    monkeypatch.setitem(references.PRIME_COUNTS, 10 ** 7, 664_580)
    cli_main, ops = worker.set_up(ROOT, "sieve", 1, "tiny")
    record, _ = worker.run(cli_main, ops, 0, False, tmp_path)
    assert record["attempted"] == 3
    assert record["failed"] == 1
    assert record["failures"][0]["op"] == "counterexample 10000000"
    assert record["end_to_end"]["fail_ratio"] == pytest.approx(1 / 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer_metric():
    proc = run_bench("--workload", "stepping", "--seed", "3", "--seconds", "0", "--size", "tiny",
                     "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["ramanujan.ei_calls_per_step"]["value"] == 2.0
    assert metrics["ramanujan.steps"]["value"] == 2 * 3 * workloads.SIZES["tiny"]["steps"]
    assert metrics["trace.accounted_share"]["value"] == pytest.approx(1, abs=0.05)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "sieve", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
