"""The benchmark's tracer still sees what it measures in this package.

``perfbench/`` wraps package functions by name from outside and checks that
every traced full forward makes n^order_out component evaluations per
sample.  This imports its tracer and checks read-only and runs them on a
corner-loss training and an evaluation.
"""

import os
import sys

from reynet import models, train

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import checks  # noqa: E402
import tracing  # noqa: E402


def test_traced_training_and_evaluation_pass_the_count_check():
    cfg = train.RunConfig(
        task="symmetry", model="red-reynet", n=4, loss="corner", seeds=(0,), epochs=1,
        batch=10, widths=(6,), train_count=20, test_count=10,
    )
    train_ds, test_ds = train.load_run_datasets(cfg)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        train.evaluate_mse(train.build_model(cfg, 0), test_ds)
        train.train_seed(cfg, 0, train_ds, test_ds)
    finally:
        tracer.uninstall()
    counts = tracer.evaluation_counts()
    # one untrained evaluation, then the trained model on both splits
    assert sum(expected for _, expected in counts) == 4 * 4 * (10 + 20 + 10)
    assert checks.check_eval_counts(counts) == ""
    assert "reynet.models.backward_from_cache" not in tracer.absent
    assert any(s.name == tracing.MODEL_BACKWARD for s in tracer.spans)
    assert models.forward_batch.__name__ == "forward_batch"  # uninstalled
