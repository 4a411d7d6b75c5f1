"""Run configs, the metrics schema, evaluation, and tiny end-to-end training."""

import tracemalloc

import numpy as np
import pytest

from reynet import train
from reynet.data import TASKS, generate
from reynet.models import (
    EquivariantReyNet,
    build_equivariant,
    default_reduced_spec,
    forward_batch,
    plan_rows,
    trainable,
)
from reynet.nn import Workspace
from reynet.train import (
    LOSS_CHOICES,
    METRICS_HEADER,
    MODEL_CHOICES,
    MetricsRecord,
    RunConfig,
    append_metrics,
    build_model,
    dataset_seed,
    evaluate_mse,
    load_run_datasets,
    model_for_eval,
    model_kind_for,
    read_metrics,
    run_config,
    train_seed,
    validate_config,
    worker_cap,
)

# One training step of red-reynet symmetry at n = 30, batch 100, widths
# 128x128 (90 000 component rows) peaks at about 5.7 MiB of tracemalloc'd
# allocations in micro-batches of one sample; unsplit it took 448 MiB.
MEMORY_BOUND_N30 = 60 << 20

TINY = dict(epochs=2, train_count=30, test_count=30, batch=10, widths=(6,), seeds=(0,))


def test_metrics_header_is_pinned():
    assert METRICS_HEADER == (
        "task",
        "model",
        "loss",
        "n_train",
        "n_test",
        "seed",
        "epoch",
        "split",
        "mse",
    )


def test_model_and_loss_vocabularies():
    assert MODEL_CHOICES == ("fnn", "maron-skip", "reynet", "red-reynet")
    assert sorted(LOSS_CHOICES) == ["corner", "mse"]
    assert LOSS_CHOICES["mse"] == "standard_mse"
    assert LOSS_CHOICES["corner"] == "corner_mse"


def test_dataset_seeds_separate_tasks_splits_and_sizes():
    seen = set()
    for task in TASKS.values():
        for n in (3, 5, 10, 20):
            for split in ("train", "test"):
                seen.add(dataset_seed(task, n, split))
    assert len(seen) == len(TASKS) * 4 * 2
    with pytest.raises(ValueError):
        dataset_seed(TASKS["trace"], 3, "validation")


def test_validate_config_rejections():
    bad = [
        RunConfig(task="nope", model="fnn", n=3),
        RunConfig(task="symmetry", model="cnn", n=3),
        RunConfig(task="symmetry", model="fnn", n=3, loss="l1"),
        RunConfig(task="symmetry", model="fnn", n=3, loss="corner"),
        RunConfig(task="trace", model="red-reynet", n=3, loss="corner"),
        RunConfig(task="symmetry", model="reynet", n=1),
        RunConfig(task="symmetry", model="reynet", n=3, seeds=()),
        RunConfig(task="symmetry", model="reynet", n=3, batch=0),
        RunConfig(task="symmetry", model="reynet", n=3, batch=2000),
    ]
    for cfg in bad:
        with pytest.raises(ValueError):
            validate_config(cfg)
    validate_config(RunConfig(task="symmetry", model="red-reynet", n=3, loss="corner"))
    validate_config(RunConfig(task="trace", model="maron-skip", n=3))


def test_model_kind_covers_the_grid():
    assert model_kind_for(RunConfig(task="symmetry", model="fnn", n=3)) == "fnn"
    assert model_kind_for(RunConfig(task="symmetry", model="reynet", n=3)) == "reynet"
    assert model_kind_for(RunConfig(task="power", model="red-reynet", n=3)) == "red-reynet"
    assert model_kind_for(RunConfig(task="trace", model="reynet", n=3)) == "inv-reynet"
    assert model_kind_for(RunConfig(task="trace", model="red-reynet", n=3)) == "inv-red-reynet"
    with pytest.raises(ValueError):
        model_kind_for(RunConfig(task="trace", model="maron-skip", n=3))


def test_build_model_output_arity():
    diag = build_model(RunConfig(task="diagonal", model="red-reynet", n=4, **TINY), 0)
    assert diag.order_out == 1
    sym = build_model(RunConfig(task="symmetry", model="reynet", n=4, **TINY), 0)
    assert sym.order_out == 2 and sym.reduced is None
    flat = build_model(RunConfig(task="trace", model="fnn", n=4, **TINY), 0)
    assert flat.order_out is None


def test_evaluate_mse_matches_manual_computation(monkeypatch):
    cfg = RunConfig(task="diagonal", model="red-reynet", n=3, **TINY)
    ds = generate(TASKS["diagonal"], 3, 12, seed=4)
    model = build_model(cfg, seed=0)
    out = forward_batch(model, ds.inputs.reshape(12, -1))
    manual = float(np.mean((out - ds.targets.reshape(12, 3, 1)) ** 2))
    monkeypatch.setattr(train, "CHUNK_ROWS", 5 * 3)  # five samples a chunk
    assert evaluate_mse(model, ds) == pytest.approx(manual, rel=1e-12)


@pytest.mark.parametrize("n, count", [(20, 30), (100, 3)])
def test_evaluate_mse_bounds_rows_per_chunk_at_large_n(monkeypatch, n, count):
    model = build_equivariant(0, n, 2, 1, 2, 1, (4,), default_reduced_spec(2))
    ds = generate(TASKS["symmetry"], n, count, seed=5)
    rows = []

    def counted(model, flat_x, **kwargs):
        rows.append(flat_x.shape[0] * n * n)
        return forward_batch(model, flat_x, **kwargs)

    monkeypatch.setattr(train, "forward_batch", counted)
    mse = evaluate_mse(model, ds)
    assert sum(rows) == count * n * n
    # a chunk is one sample where a sample alone exceeds the budget
    assert max(rows) <= max(train.CHUNK_ROWS, n * n)
    out = forward_batch(model, ds.inputs.reshape(count, -1))
    manual = float(np.mean((out - ds.targets.reshape(count, -1, 1)) ** 2))
    assert mse == pytest.approx(manual, rel=1e-12)


# (task, model, loss, pooling): equivariant, corner, both invariant poolings, flat
STEP_CASES = [
    ("symmetry", "red-reynet", "mse", "max_diag_offdiag"),
    ("symmetry", "reynet", "corner", "max_diag_offdiag"),
    ("trace", "red-reynet", "mse", "max_diag_offdiag"),
    ("trace", "red-reynet", "mse", "orbit_sum"),
    ("symmetry", "fnn", "mse", "max_diag_offdiag"),
]


def _step_inputs(task, model, loss, pooling, n=4, count=9):
    cfg = RunConfig(
        task=task, model=model, n=n, loss=loss, pooling=pooling, body_channels=3,
        **{**TINY, "train_count": count},
    )
    ds, _ = load_run_datasets(cfg)
    net = build_model(cfg, 1)
    x = ds.inputs.reshape(count, -1)
    t = ds.targets.reshape(count, -1)
    if isinstance(net, EquivariantReyNet):
        t = t[:, plan_rows(net, loss == "corner"), None]
    return net, x, t


@pytest.mark.parametrize("task, model, loss, pooling", STEP_CASES)
def test_split_minibatch_gradients_match_the_unsplit_ones(task, model, loss, pooling):
    net, x, t = _step_inputs(task, model, loss, pooling)
    idx = np.array([4, 0, 7, 2, 8, 1, 5])
    path = trainable(net, loss == "corner", Workspace())
    value, whole = train._minibatch_gradients(path, x, t, idx, len(idx))
    plain = trainable(net, loss == "corner")  # no workspace
    out, cache = plain.forward(x[idx])
    ref_value, up = train.mse_loss(out, t[idx])
    ref = plain.backward(cache, up)
    assert value == ref_value
    assert all(a.tobytes() == b.tobytes() for a, b in zip(whole, ref, strict=True))
    for chunk in (1, 2, 3):
        split_value, split = train._minibatch_gradients(path, x, t, idx, chunk)
        assert split_value == pytest.approx(value, rel=1e-12)
        for a, b in zip(split, whole, strict=True):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1e-300, np.max(np.abs(b)))


@pytest.mark.parametrize("task, model, loss, pooling", STEP_CASES)
def test_training_outputs_and_gradients_do_not_alias_the_workspace(task, model, loss, pooling):
    net, x, t = _step_inputs(task, model, loss, pooling)
    ws = Workspace()
    path = trainable(net, loss == "corner", ws)
    first = None
    for idx in (np.array([0, 1, 2]), np.array([3, 4, 5])):
        out, cache = path.forward(x[idx])
        _, up = train.mse_loss(out, t[idx])
        returned = [out, *path.backward(cache, up)]
        buffers = list(ws._buffers.values())
        assert buffers
        for a in returned:
            assert not any(np.shares_memory(a, buf) for buf in buffers)
        if first is None:
            first = (returned, [a.copy() for a in returned])
    # the second step left the first step's arrays as they were
    assert all(a.tobytes() == b.tobytes() for a, b in zip(*first, strict=True))


@pytest.mark.parametrize(
    "task, model, loss, n",
    [
        ("symmetry", "red-reynet", "mse", 20),
        ("symmetry", "red-reynet", "mse", 40),
        ("symmetry", "red-reynet", "corner", 40),
        ("trace", "red-reynet", "mse", 20),
        ("symmetry", "fnn", "mse", 4),
    ],
)
def test_training_bounds_rows_per_forward(monkeypatch, task, model, loss, n):
    cfg = RunConfig(
        task=task, model=model, n=n, loss=loss, seeds=(0,), epochs=1, train_count=5,
        test_count=1, batch=5, widths=(4,), body_channels=2,
    )
    net = build_model(cfg, 0)
    per_sample = train._rows_per_sample(net, loss == "corner")
    rows = []

    def counted(model, corner=False, ws=None):
        path = trainable(model, corner, ws)

        def forward(flat_x):
            rows.append(flat_x.shape[0] * per_sample)
            return path.forward(flat_x)

        return path._replace(forward=forward)

    monkeypatch.setattr(train, "CHUNK_ROWS", 1_000)
    monkeypatch.setattr(train, "trainable", counted)
    train_ds, _ = load_run_datasets(cfg)
    train._train(net, cfg, 0, train_ds)
    assert sum(rows) == 5 * per_sample
    # a micro-batch is one sample where a sample alone exceeds the budget
    assert max(rows) <= max(1_000, per_sample)


def test_one_training_step_at_n_30_stays_within_its_memory_bound():
    cfg = RunConfig(
        task="symmetry", model="red-reynet", n=30, seeds=(0,), epochs=1, train_count=100,
        test_count=1, batch=100,
    )
    net = build_model(cfg, 0)
    train_ds, _ = load_run_datasets(cfg)
    train._train(net, cfg, 0, train_ds)  # the design plan is built outside the measure
    tracemalloc.start()
    try:
        train._train(net, cfg, 0, train_ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_BOUND_N30


@pytest.mark.parametrize("model", ["fnn", "red-reynet"])
@pytest.mark.parametrize("task", ["symmetry", "trace"])
def test_diverging_training_names_seed_and_epoch(model, task):
    cfg = RunConfig(task=task, model=model, n=3, **{**TINY, "lr": 1e100})
    with pytest.raises(ValueError, match="diverged: seed 3, epoch 0"):
        train_seed(cfg, 3)


@pytest.mark.parametrize("model", ["fnn", "red-reynet"])
def test_finite_blow_up_stops_training(model):
    # at lr 1e10 the loss runs away but stays finite for a while; unguarded,
    # this run finished with a test MSE near 1e202
    cfg = RunConfig(task="symmetry", model=model, n=3, **{**TINY, "epochs": 3, "lr": 1e10})
    with pytest.raises(ValueError, match="diverged: seed 0, epoch 0") as err:
        train_seed(cfg, 0)
    loss = float(str(err.value).rsplit("loss ", 1)[1])
    assert np.isfinite(loss) and loss > 1e6


def test_training_reduces_training_error():
    cfg = RunConfig(
        task="diagonal",
        model="red-reynet",
        n=3,
        seeds=(0,),
        epochs=40,
        train_count=64,
        test_count=32,
        batch=16,
        widths=(16,),
    )
    train_ds, test_ds = load_run_datasets(cfg)
    before = evaluate_mse(build_model(cfg, 0), train_ds)
    records, bundle = train_seed(cfg, 0, train_ds, test_ds)
    after = [r.mse for r in records if r.split == "train"][0]
    assert after < before * 0.5
    assert bundle.kind == "red-reynet"
    assert bundle.hyper["epochs"] == 40


def test_zero_epochs_returns_the_initial_model():
    cfg = RunConfig(task="symmetry", model="red-reynet", n=3, **{**TINY, "epochs": 0})
    train_ds, test_ds = load_run_datasets(cfg)
    records, bundle = train_seed(cfg, 0, train_ds, test_ds)
    fresh = build_model(cfg, 0)
    assert evaluate_mse(bundle.model, test_ds) == evaluate_mse(fresh, test_ds)
    assert all(r.epoch == 0 for r in records)


def test_train_records_both_splits_with_final_epoch():
    cfg = RunConfig(task="trace", model="red-reynet", n=3, body_channels=2, **TINY)
    records, bundles = run_config(cfg)
    assert [r.split for r in records] == ["train", "test"]
    assert all(r.epoch == 2 for r in records)
    assert all(r.model == "inv-red-reynet" for r in records)
    assert all(r.loss == "mse" for r in records)
    assert bundles[0].kind == "inv-red-reynet"


def test_corner_training_runs_and_reports_full_mse():
    cfg = RunConfig(task="symmetry", model="red-reynet", n=3, loss="corner", **TINY)
    records, _ = run_config(cfg)
    test = [r for r in records if r.split == "test"][0]
    # the recorded value is the plain full-tensor MSE, finite and positive
    assert np.isfinite(test.mse) and test.mse > 0
    assert test.loss == "corner"


def test_maron_skip_emits_nothing():
    records, bundles = run_config(RunConfig(task="symmetry", model="maron-skip", n=3))
    assert records == [] and bundles == []


def test_seeds_give_different_models_same_data():
    cfg = RunConfig(task="symmetry", model="red-reynet", n=3, **{**TINY, "seeds": (0, 1)})
    records, bundles = run_config(cfg)
    test = [r.mse for r in records if r.split == "test"]
    assert len(test) == 2 and test[0] != test[1]


def test_metrics_csv_round_trip(tmp_path):
    path = tmp_path / "metrics.csv"
    recs = [
        MetricsRecord("symmetry", "red-reynet", "mse", 3, 3, 0, 2, "train", 0.5),
        MetricsRecord("symmetry", "red-reynet", "mse", 3, 3, 0, 2, "test", 0.75),
    ]
    append_metrics(path, recs)
    append_metrics(path, [MetricsRecord("trace", "fnn", "mse", 5, 5, 1, 2, "test", 1.25)])
    rows = read_metrics(path)
    assert len(rows) == 3
    assert rows[0].mse == 0.5 and path.read_text().splitlines()[1].endswith(",0.5")
    assert rows[1].key() == ("symmetry", "red-reynet", "mse", 3, 3, 0, 2, "test")
    assert rows[2].mse == 1.25
    assert {r.key() for r in recs} <= {r.key() for r in rows}


def test_read_metrics_rejects_foreign_headers(tmp_path):
    path = tmp_path / "foreign.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_metrics(path)


def test_model_for_eval_transfers_reduced_models_only():
    cfg = RunConfig(task="symmetry", model="red-reynet", n=3, **TINY)
    _, bundle = train_seed(cfg, 0)
    assert model_for_eval(bundle, 3) is bundle.model
    moved = model_for_eval(bundle, 6)
    assert moved.n == 6
    flat_cfg = RunConfig(task="symmetry", model="fnn", n=3, **TINY)
    _, flat_bundle = train_seed(flat_cfg, 0)
    with pytest.raises(ValueError):
        model_for_eval(flat_bundle, 6)


def test_worker_cap_reads_environment(monkeypatch):
    monkeypatch.delenv("REYNET_THREADS", raising=False)
    assert worker_cap() == 1
    monkeypatch.setenv("REYNET_THREADS", "4")
    assert worker_cap() == 4
    monkeypatch.setenv("REYNET_THREADS", "0")
    assert worker_cap() == 1
    monkeypatch.setenv("REYNET_THREADS", "soup")
    assert worker_cap() == 1


def test_parallel_seeds_match_sequential(monkeypatch):
    cfg = RunConfig(task="diagonal", model="red-reynet", n=3, **{**TINY, "seeds": (0, 1)})
    monkeypatch.delenv("REYNET_THREADS", raising=False)
    seq, _ = run_config(cfg)
    monkeypatch.setenv("REYNET_THREADS", "2")
    par, _ = run_config(cfg)
    assert [(r.seed, r.split, r.mse) for r in seq] == [(r.seed, r.split, r.mse) for r in par]
