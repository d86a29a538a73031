"""Every demo script runs to the end.

The demos read verdict facts by attribute (``v.empirical_sum``,
``head.min_margin``, ``rep.c_star``, ``slack.slack``), so a renamed fact or
a removed name shows up here.  Each runs in its own interpreter against the
package the suite imports; together they take about ten seconds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import primebounds

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
PACKAGE_ROOT = str(Path(primebounds.__file__).resolve().parents[1])


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.slow
@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(demo, tmp_path):
    path = os.pathsep.join(p for p in (PACKAGE_ROOT, os.environ.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, capture_output=True,
                         text=True, timeout=600, env={**os.environ, "PYTHONPATH": path})
    assert res.returncode == 0, res.stderr[-2000:]
