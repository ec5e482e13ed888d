"""The benchmark's self-test: every check in `casbench/` accepts the
program's outputs and rejects perturbed ones, so a solver change that
breaks an independent oracle fails here as well as in the benchmark."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_self_test_passes():
    run = subprocess.run(
        [sys.executable, os.path.join("casbench", "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
