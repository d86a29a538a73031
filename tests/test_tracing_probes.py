"""The benchmark's tracer wraps package attributes by name: each must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_probed_name_resolves():
    # a probed name that is renamed or removed breaks every traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [(module, attr) for module, attr, *_ in tracing.PROBES
               if not hasattr(importlib.import_module(f"primebounds.{module}"), attr)]
    assert len(tracing.PROBES) > 0
    assert missing == []
