"""The interface that the scripts under benchmarks/ call, checked in the tier-1 suite."""
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qgrnn import pipeline, training
from qgrnn.ansatz import layer_count

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
    assert 0.0 <= cost <= 1.0
    assert grad.shape == flat.shape and np.all(np.isfinite(grad))


def test_layer_count_matches_the_traced_depth():
    # benchmarks/trace_layers.py counts the layers of an evaluator as the sum of
    # layer_count(t, delta) over its samples, the work per epoch that
    # training.layer_column_products reports; the circuit's rounding to whole
    # sixth-order steps of ten layers may move each row by up to 5 layers, and
    # the sum stays within 4 layers a row
    rng = np.random.default_rng(1)
    config = training.TrainConfig(seed=0, batch_size=15)
    _, initial, samples = pipeline.embed_and_sample(rng.uniform(-4.0, 5.0, 4), config)
    evaluator = training.CostEvaluator(initial, samples, config.trotter_delta)
    traced = sum(layer_count(s.time, config.trotter_delta) for s in samples)
    assert len(samples) == 15
    assert abs(int(evaluator.depths.sum()) - traced) <= 4 * len(samples)


@pytest.mark.parametrize("epochs", [1, 2, 3, 60])
def test_training_calls_every_traced_layer(monkeypatch, epochs):
    # benchmarks/trace_layers.py times these three bindings and the selftest
    # requires a span of each, so every training run must reach all of them
    calls = {"adam_step": 0, "cost": 0, "gradient": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(training, "adam_step", counted("adam_step", training.adam_step))
    for name in ("cost", "gradient"):
        monkeypatch.setattr(training.CostEvaluator, name,
                            counted(name, getattr(training.CostEvaluator, name)))
    config = training.TrainConfig(seed=0, epochs=epochs, batch_size=5)
    _, initial, samples = pipeline.embed_and_sample(np.array([1.0, -2.0, 3.0]), config)
    start = training.initial_params(3, config.seed, (config.init_low, config.init_high))
    training.train_qgrnn(initial, samples, config, start=start)
    assert calls["adam_step"] == -(-epochs // 3), "train_qgrnn no longer calls training.adam_step"
    assert calls["cost"] >= 1, "train_qgrnn no longer calls CostEvaluator.cost"
    assert calls["gradient"] >= 1, "train_qgrnn no longer calls CostEvaluator.gradient"
