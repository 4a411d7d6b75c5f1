"""Training runs for the synthetic benchmark tasks.

A run is described by a RunConfig: one task, one model family, one input
size, a loss, and a set of seeds.  Each seed trains an independent model on
the same deterministic datasets (the dataset seed depends only on task, size
and split, so every model family sees identical data).  Reported numbers are
always the full mean squared error on the held-out split, whatever loss was
used for training.

Set REYNET_THREADS to run the seeds of a config in parallel processes.
"""

from __future__ import annotations

import csv
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass

import numpy as np

from .checkpoint import ModelBundle
from .data import TASKS, Dataset, TaskSpec, generate
from .models import (
    EquivariantReyNet,
    FlatNet,
    InvariantReyNet,
    build_equivariant,
    build_flat,
    build_invariant,
    default_reduced_spec,
    forward_batch,
    invariant_forward_batch,
    plan_rows,
    trainable,
    transfer_invariant,
    transfer_n,
)
from .nn import adam_step, init_adam, mlp_forward, mse_loss
from .rng import CounterRng

MODEL_CHOICES = ("fnn", "maron-skip", "reynet", "red-reynet")
LOSS_CHOICES = {"mse": "standard_mse", "corner": "corner_mse"}
METRICS_HEADER = ("task", "model", "loss", "n_train", "n_test", "seed", "epoch", "split", "mse")

MARON_SKIP_NOTE = (
    "maron-skip: the higher-order equivariant-basis baseline is out of scope "
    "here; the run is recorded as skipped and emits no metrics rows."
)

# Dataset seeds are a function of task, size and split alone, so reruns and
# parallel workers regenerate byte-identical data.
TRAIN_SEED_BASE = 10_000
TEST_SEED_BASE = 20_000

# Evaluation chunks hold at most this many component rows (one sample at
# least): 200 samples at n = 5, 50 at n = 10.  Chunks four times larger ran
# up to 1.2x slower per row, their activations no longer fitting in cache.
EVAL_CHUNK_ROWS = 5_000


def dataset_seed(task: TaskSpec, n: int, split: str) -> int:
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}")
    base = TRAIN_SEED_BASE if split == "train" else TEST_SEED_BASE
    return base + 100 * task.task_id + n


@dataclass(frozen=True)
class RunConfig:
    task: str
    model: str
    n: int
    loss: str = "mse"
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    epochs: int = 100
    batch: int = 100
    lr: float = 1e-3
    weight_decay: float = 1e-5
    widths: tuple[int, ...] = (128, 128)
    body_channels: int = 16
    train_count: int = 1000
    test_count: int = 1000
    pooling: str = "max_diag_offdiag"


def validate_config(cfg: RunConfig) -> None:
    if cfg.task not in TASKS:
        raise ValueError(f"unknown task {cfg.task!r}, expected one of {sorted(TASKS)}")
    if cfg.model not in MODEL_CHOICES:
        raise ValueError(f"unknown model {cfg.model!r}, expected one of {MODEL_CHOICES}")
    if cfg.loss not in LOSS_CHOICES:
        raise ValueError(f"unknown loss {cfg.loss!r}, expected one of {sorted(LOSS_CHOICES)}")
    task = TASKS[cfg.task]
    if cfg.loss == "corner":
        if cfg.model not in ("reynet", "red-reynet"):
            raise ValueError("the corner loss trains equivariant models only")
        if task.invariant:
            raise ValueError("the corner loss needs a tensor-valued task")
    if cfg.n < 1:
        raise ValueError(f"n must be positive, got {cfg.n}")
    if not task.invariant and cfg.model != "fnn" and cfg.n < task.output_order:
        raise ValueError(f"task {cfg.task} needs n >= {task.output_order}")
    if not cfg.seeds:
        raise ValueError("at least one seed is required")
    if cfg.epochs < 0 or cfg.batch < 1 or cfg.train_count < 1 or cfg.test_count < 1:
        raise ValueError("epochs must be >= 0 and batch/counts positive")
    if cfg.batch > cfg.train_count:
        raise ValueError("batch size exceeds the training set")


def model_kind_for(cfg: RunConfig) -> str:
    """Checkpoint kind tag the config trains (invariant tasks get a pooled head)."""
    if cfg.model == "fnn":
        return "fnn"
    invariant = TASKS[cfg.task].invariant
    if cfg.model == "reynet":
        return "inv-reynet" if invariant else "reynet"
    if cfg.model == "red-reynet":
        return "inv-red-reynet" if invariant else "red-reynet"
    raise ValueError(f"no model is built for {cfg.model!r}")


def build_model(cfg: RunConfig, seed: int):
    task = TASKS[cfg.task]
    if cfg.model == "fnn":
        return build_flat(seed, cfg.n, 2, 1, task.output_order, 1, cfg.widths)
    reduced = None if cfg.model == "reynet" else default_reduced_spec(2)
    if task.invariant:
        return build_invariant(
            seed, cfg.n, 2, 1, 2, cfg.body_channels, 1, cfg.widths, reduced, cfg.pooling
        )
    return build_equivariant(seed, cfg.n, 2, 1, task.output_order, 1, cfg.widths, reduced)


def _flat_inputs(ds: Dataset) -> np.ndarray:
    return ds.inputs.reshape(ds.count, -1)


def _tensor_targets(ds: Dataset) -> np.ndarray:
    """Targets shaped like the structured model output: (count, rows, 1) or (count, 1)."""
    if ds.task.invariant:
        return ds.targets.reshape(ds.count, 1)
    return ds.targets.reshape(ds.count, -1, 1)


def _rows_per_sample(model) -> int:
    """Component rows one sample puts through the model's MLPs at once."""
    if isinstance(model, FlatNet):
        return 1
    body = model.body if isinstance(model, InvariantReyNet) else model
    return body.n**body.order_out


def evaluate_mse(model, ds: Dataset) -> float:
    """Full mean squared error of the model on a dataset.

    Samples go through in chunks of at most EVAL_CHUNK_ROWS component rows,
    or one sample where that alone has more, so memory grows with one
    sample's rows at most as n grows.
    """
    chunk = max(1, EVAL_CHUNK_ROWS // _rows_per_sample(model))
    x = _flat_inputs(ds)
    if isinstance(model, FlatNet):
        t = ds.targets.reshape(ds.count, -1)
    else:
        t = _tensor_targets(ds)
    total = 0.0
    size = 0
    for start in range(0, ds.count, chunk):
        xb = x[start : start + chunk]
        if isinstance(model, FlatNet):
            out = mlp_forward(model.params, xb)
        elif isinstance(model, InvariantReyNet):
            out = invariant_forward_batch(model, xb)
        else:
            out = forward_batch(model, xb)
        diff = out - t[start : start + chunk]
        total += float(np.sum(np.square(diff)))
        size += diff.size
    return total / size


def _train(model, cfg: RunConfig, seed: int, train_ds: Dataset) -> None:
    """Minibatch AdamW on the MSE of the model's training outputs.

    Equivariant models train on plan-order outputs against targets permuted
    into plan order once; the corner loss keeps the representative entries.
    A non-finite training loss stops the run with a ValueError.
    """
    corner = cfg.loss == "corner"
    params, forward, backward = trainable(model, corner)
    x = _flat_inputs(train_ds)
    t = train_ds.targets.reshape(train_ds.count, -1)
    if isinstance(model, EquivariantReyNet):
        t = t[:, plan_rows(model, corner), None]
    state = init_adam(params, cfg.lr, cfg.weight_decay)
    shuffles = CounterRng(seed).split(1)
    # an overflow surfaces as a non-finite loss, reported below; numpy's
    # warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            order = shuffles.split(epoch).shuffled_indices(train_ds.count)
            for start in range(0, train_ds.count, cfg.batch):
                idx = order[start : start + cfg.batch]
                out, cache = forward(x[idx])
                value, grad = mse_loss(out, t[idx])
                if not np.isfinite(value):
                    raise ValueError(
                        f"training diverged: seed {seed}, epoch {epoch}, loss {value}"
                    )
                adam_step(state, params, backward(cache, grad))


@dataclass(frozen=True)
class MetricsRecord:
    task: str
    model: str
    loss: str
    n_train: int
    n_test: int
    seed: int
    epoch: int
    split: str
    mse: float

    def row(self) -> tuple[str, ...]:
        return (
            self.task,
            self.model,
            self.loss,
            str(self.n_train),
            str(self.n_test),
            str(self.seed),
            str(self.epoch),
            self.split,
            repr(self.mse),
        )

    def key(self) -> tuple:
        """Every field but the mse, as ``row_key`` reads them back."""
        return astuple(self)[:-1]


def _hyper(cfg: RunConfig) -> dict:
    return {
        "epochs": cfg.epochs,
        "batch": cfg.batch,
        "lr": cfg.lr,
        "weight_decay": cfg.weight_decay,
        "widths": list(cfg.widths),
        "body_channels": cfg.body_channels,
        "train_count": cfg.train_count,
        "test_count": cfg.test_count,
        "pooling": cfg.pooling,
    }


def load_run_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    task = TASKS[cfg.task]
    train_ds = generate(task, cfg.n, cfg.train_count, dataset_seed(task, cfg.n, "train"))
    test_ds = generate(task, cfg.n, cfg.test_count, dataset_seed(task, cfg.n, "test"))
    return train_ds, test_ds


def train_seed(
    cfg: RunConfig,
    seed: int,
    train_ds: Dataset | None = None,
    test_ds: Dataset | None = None,
) -> tuple[list[MetricsRecord], ModelBundle]:
    """Train one model for one seed; returns its final metrics and a bundle."""
    validate_config(cfg)
    if cfg.model == "maron-skip":
        raise ValueError(MARON_SKIP_NOTE)
    if train_ds is None or test_ds is None:
        train_ds, test_ds = load_run_datasets(cfg)
    model = build_model(cfg, seed)
    _train(model, cfg, seed, train_ds)
    kind = model_kind_for(cfg)
    records = [
        MetricsRecord(
            cfg.task, kind, cfg.loss, cfg.n, cfg.n, seed, cfg.epochs, split, evaluate_mse(model, ds)
        )
        for split, ds in (("train", train_ds), ("test", test_ds))
    ]
    bundle = ModelBundle(kind, cfg.task, cfg.loss, cfg.n, seed, _hyper(cfg), model)
    return records, bundle


def worker_cap() -> int:
    raw = os.environ.get("REYNET_THREADS", "").strip()
    try:
        return max(1, int(raw)) if raw else 1
    except ValueError:
        return 1


def _seed_job(job: tuple[RunConfig, int]):
    cfg, seed = job
    return train_seed(cfg, seed)


def run_config(cfg: RunConfig) -> tuple[list[MetricsRecord], list[ModelBundle]]:
    """Train every seed of a config, in parallel when REYNET_THREADS allows."""
    validate_config(cfg)
    if cfg.model == "maron-skip":
        return [], []
    records: list[MetricsRecord] = []
    bundles: list[ModelBundle] = []
    cap = min(worker_cap(), len(cfg.seeds))
    if cap > 1:
        with ProcessPoolExecutor(max_workers=cap) as pool:
            results = list(pool.map(_seed_job, [(cfg, s) for s in cfg.seeds]))
    else:
        train_ds, test_ds = load_run_datasets(cfg)
        results = [train_seed(cfg, s, train_ds, test_ds) for s in cfg.seeds]
    for recs, bundle in results:
        records.extend(recs)
        bundles.append(bundle)
    return records, bundles


def model_for_eval(bundle: ModelBundle, n: int):
    """The bundled model, transferred when the requested size differs."""
    model = bundle.model
    if isinstance(model, FlatNet):
        if n != model.n:
            raise ValueError("a flat baseline is tied to its training size")
        return model
    if isinstance(model, InvariantReyNet):
        return model if n == model.body.n else transfer_invariant(model, n)
    return model if n == model.n else transfer_n(model, n)


def read_metrics(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != METRICS_HEADER:
            raise ValueError(f"{path}: bad metrics header {header!r}")
        rows = []
        for raw in reader:
            if len(raw) != len(METRICS_HEADER):
                raise ValueError(f"{path}: malformed row {raw!r}")
            rows.append(dict(zip(METRICS_HEADER, raw)))
    return rows


def row_key(row: dict) -> tuple:
    return (
        row["task"],
        row["model"],
        row["loss"],
        int(row["n_train"]),
        int(row["n_test"]),
        int(row["seed"]),
        int(row["epoch"]),
        row["split"],
    )


def missing_seeds(cfg: RunConfig, done: set[tuple]) -> tuple[int, ...]:
    """Seeds of the config whose test row, at its epochs, is not in `done`
    (a set of ``row_key``s)."""
    kind = model_kind_for(cfg)
    return tuple(
        s
        for s in cfg.seeds
        if (cfg.task, kind, cfg.loss, cfg.n, cfg.n, s, cfg.epochs, "test") not in done
    )


def append_metrics(path: str, records: list[MetricsRecord]) -> None:
    fresh = not os.path.exists(path)
    if not fresh:
        read_metrics(path)  # refuse to append to a file with a foreign schema
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if fresh:
            writer.writerow(METRICS_HEADER)
        for rec in records:
            writer.writerow(rec.row())
