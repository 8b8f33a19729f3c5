"""The names the benchmark in perfbench/ reaches into the package by.

perfbench/layertrace.py rebinds public functions and named methods (such as
Endomorphism.point_map) and perfbench/worker.py reads groebner.STATS, so
deleting or renaming one of them breaks every traced benchmark run.  These
tests install each trace pass in a fresh interpreter, as the worker does,
and run each workload traced for one second (its corpus goes to the
ignored perfbench/_work/); they change no file of perfbench/.
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


@pytest.mark.parametrize("workload", ["elim-q", "chain-fq", "kron-conj"])
def test_traced_run_fires_every_gated_counter(workload):
    # A traced run exits 1 when a counter it gates on reads zero ("never
    # fired"), for instance when the one call site of fields.addsub_calls or
    # mpoly.mul_calls stops making that call.
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
