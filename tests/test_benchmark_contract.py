"""The names the benchmark in perfbench/ reaches into the package by.

perfbench/layertrace.py rebinds public functions and named methods (such as
Endomorphism.point_map) and perfbench/worker.py reads groebner.STATS, so
deleting or renaming one of them breaks every traced benchmark run.  These
tests install each trace pass in a fresh interpreter, as the worker does;
they only read perfbench/.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """\
import sys
import layertrace
from endorank import groebner
getattr(layertrace, sys.argv[1])().install()
print(groebner.STATS["bases_computed"])
"""


@pytest.mark.parametrize("recorder", ["Spans", "Counts"])
def test_trace_pass_installs_and_stats_are_readable(recorder):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "perfbench"), os.path.join(ROOT, "src")]
    )
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT, recorder],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"
