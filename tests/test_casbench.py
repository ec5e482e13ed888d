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


# Installs the tracer, runs one call through each traced layer, removes it,
# and checks that the counts arrived and every module attribute is restored.
_TRACER_ROUND_TRIP = """
import sys
sys.path[:0] = ["src", "casbench"]
import numpy as np
import cas_limits.cli as cli
from cas_limits.gaussian import random_trm_model, waveform_from_gram
from tracer import Tracer

modules = (cli.discrete, cli.waveform, cli.simulate)
before = [dict(vars(m)) for m in modules]
tracer = Tracer()
tracer.install()
model = random_trm_model(3, n=2, m_s=2, m_c=2, t=4)
cli.waveform.optimize_isac(model, max_iter=3)
cli.waveform.optimize_sw(model, split_grid=3)
cli.discrete.rate_distortion_inverse(np.array([0.5, 0.5]), np.array([[0.0, 1.0], [1.0, 0.0]]), 0.2)
x = waveform_from_gram(model, np.eye(2))
cli.simulate.simulate_sensing(model, x, 100, seed=1)
metrics = tracer.metrics(1, 0)
tracer.remove()
for key in ("gaussian.calls", "waveform.optimize_isac.iters", "waveform.objective_evals_per_iter",
            "kernels.ba_rate_distortion.calls", "discrete.rate_distortion_inverse.calls",
            "simulate.trials_per_s"):
    assert metrics[key] > 0, (key, metrics[key])
for module, saved in zip(modules, before):
    changed = [k for k, v in saved.items() if vars(module)[k] is not v]
    assert not changed, (module.__name__, changed)
"""


def test_tracer_installs_and_removes():
    run = subprocess.run(
        [sys.executable, "-c", _TRACER_ROUND_TRIP],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
