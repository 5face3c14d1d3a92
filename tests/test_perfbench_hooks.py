"""The benchmark's tracer still finds every name it reads in ``src/ncdb``.

``perfbench/tracing.py`` swaps package callables and reads private memos
by name, so a change to ``src`` that drops one of them breaks
``perfbench/run.py --trace 1`` while every other test passes.  Each run is
a subprocess: the tracer swaps package globals, which must not leak into
this process.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


@pytest.mark.parametrize("workload", ["verify", "rep", "classify"])
def test_traced_tiny_run_is_correct(workload):
    """A traced, shrunken run of ``workload`` exits 0 and reports correct."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--trace", "1", "--seconds", "0", "--tiny"],
        capture_output=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout.decode().splitlines()[-1])["correct"] is True
