"""Each of the benchmark's output checks passes on the program's real output
and fails on a wrong one.  Not part of the package's test suite; run with

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from reynet import checkpoint, models  # noqa: E402
from reynet.data import TASKS, apply_task  # noqa: E402

N_TRAIN = 5


@pytest.fixture
def model():
    return models.build_equivariant(
        3, N_TRAIN, 2, 1, 2, 1, (8, 8), models.default_reduced_spec(2)
    )


def inputs(n, count=3, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 10.0, size=(count, n, n))


def mlps(model):
    by_depth = {tab.depth: comp for tab, comp in model.components.items()}
    return [([w.copy() for w in by_depth[d].weights], list(by_depth[d].biases)) for d in (1, 2)]


def program(model, x):
    return models.forward_batch(model, x.reshape(x.shape[0], -1))


@pytest.mark.parametrize("n", [N_TRAIN, 3, 12])
def test_formula_matches_the_program_at_every_size(model, n):
    m = model if n == N_TRAIN else models.transfer_n(model, n)
    x = inputs(n)
    assert checks.check_formula(program(m, x), checks.reduced_order2(*mlps(model), x, N_TRAIN)) == ""


@pytest.mark.parametrize("depth", [0, 1])
def test_formula_rejects_a_perturbed_component_weight(model, depth):
    x = inputs(N_TRAIN)
    wrong = mlps(model)
    wrong[depth][0][-1][0, :] += 1e-6
    assert checks.check_formula(program(model, x), checks.reduced_order2(*wrong, x, N_TRAIN))


@pytest.mark.parametrize("n_divisor", [N_TRAIN - 1, N_TRAIN + 1])
def test_formula_rejects_a_divisor_off_by_one(model, n_divisor):
    x = inputs(N_TRAIN)
    assert checks.check_formula(program(model, x), checks.reduced_order2(*mlps(model), x, n_divisor))


def test_formula_rejects_divisors_rederived_at_the_new_size(model):
    x = inputs(9)
    out = program(models.transfer_n(model, 9), x)
    assert checks.check_formula(out, checks.reduced_order2(*mlps(model), x, 9))


def test_mse_check_accepts_the_program_and_rejects_other_predictions(model):
    from reynet.train import evaluate_mse
    from reynet.data import Dataset

    x = inputs(N_TRAIN)
    t = checks.task_targets("symmetry", x)
    ds = Dataset(TASKS["symmetry"], N_TRAIN, 3, 0, x, t)
    pred = checks.reduced_order2(*mlps(model), x, N_TRAIN)
    assert checks.check_mse(evaluate_mse(model, ds), pred, t) == ""
    assert checks.check_mse(evaluate_mse(model, ds), pred + 1e-6, t)


@pytest.mark.parametrize("task", sorted(TASKS))
def test_targets_follow_the_task_definitions(task):
    x = inputs(4)
    expect = np.stack([apply_task(TASKS[task], a) for a in x])
    assert np.array_equal(checks.task_targets(task, x), expect)


def _bundle(model):
    return checkpoint.ModelBundle("red-reynet", "symmetry", "mse", N_TRAIN, 3, {}, model)


def test_round_trip_check_accepts_a_checkpoint(model, tmp_path):
    path = str(tmp_path / "m.json")
    checkpoint.save_checkpoint(path, _bundle(model))
    assert checks.check_identical(model, checkpoint.load_checkpoint(path).model) == ""


def test_round_trip_check_rejects_a_truncated_checkpoint(model, tmp_path):
    path = str(tmp_path / "m.json")
    checkpoint.save_checkpoint(path, _bundle(model))
    with open(path) as fh:
        doc = json.load(fh)
    for comp in doc["model"]["components"]:
        mlp = comp["mlp"]
        mlp["weights"] = [[format(float(v), ".15e") for v in w] for w in mlp["weights"]]
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert checks.check_identical(model, checkpoint.load_checkpoint(path).model)


def test_round_trip_check_rejects_a_changed_divisor(model, tmp_path):
    path = str(tmp_path / "m.json")
    checkpoint.save_checkpoint(path, _bundle(model))
    loaded = checkpoint.load_checkpoint(path).model
    loaded.depth_divisors[2] += 1
    assert checks.check_identical(model, loaded)


def test_same_float_is_bitwise():
    assert checks.check_same_float("x", 0.1 + 0.2, 0.1 + 0.2) == ""
    assert checks.check_same_float("x", 0.3, 0.1 + 0.2)
    assert checks.check_same_float("x", 0.0, -0.0)


def test_below_is_strict():
    assert checks.check_below("x", 1.0, 2.0) == ""
    assert checks.check_below("x", 2.0, 2.0)
    assert checks.check_below("x", float("nan"), 2.0)


def test_traced_forward_counts_n_squared_evaluations_per_sample(model):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        models.forward_batch(model, inputs(N_TRAIN).reshape(3, -1))
    finally:
        tracer.uninstall()
    counts = tracer.evaluation_counts()
    assert counts == [(3 * N_TRAIN**2, 3 * N_TRAIN**2)]
    assert checks.check_eval_counts(counts) == ""
    assert models.forward_batch.__name__ == "forward_batch"  # uninstalled


def test_eval_count_check_rejects_one_sample_off():
    per_sample = N_TRAIN**2
    assert checks.check_eval_counts([(2 * per_sample, 3 * per_sample)])
    assert checks.check_eval_counts([(4 * per_sample, 3 * per_sample)])
    assert checks.check_eval_counts([])


def test_tracer_reports_a_missing_function_as_absent(monkeypatch):
    monkeypatch.delattr(models, "backward_from_cache")
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert "reynet.models.backward_from_cache" in tracer.absent
