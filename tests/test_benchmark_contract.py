"""The interface that the scripts under benchmarks/ call, checked in the tier-1 suite."""
import subprocess
import sys
from pathlib import Path

import numpy as np

from qgrnn import pipeline, training

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_selftest_passes():
    done = subprocess.run([sys.executable, "benchmarks/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr


def test_kernel_scan_calls():
    # the calls benchmarks/run.py makes at each size of its kernel scan
    n = 4
    rng = np.random.default_rng(0)
    config = training.TrainConfig(seed=0)
    _, initial, samples = pipeline.embed_and_sample(rng.uniform(-4.0, 5.0, n), config)
    evaluator = training.CostEvaluator(initial, samples, config.trotter_delta)
    flat = rng.uniform(config.init_low, config.init_high, n * (n + 1) // 2)
    cost = evaluator.cost(flat)
    grad = evaluator.gradient(flat, config.fd_step)
    assert -1.0 <= cost <= 0.0
    assert grad.shape == flat.shape and np.all(np.isfinite(grad))
