"""The benchmark's workloads: set-up, timed rounds and checks.

Each workload calls the package the way the ``reynet`` command does
(``train_seed`` as ``reynet train`` and ``reynet table`` reach it,
``save_checkpoint``/``load_checkpoint``, ``model_for_eval`` and
``evaluate_mse`` as ``reynet eval`` and ``reynet sweep`` do), through the
module attributes, so that a traced run sees every call.  Inputs are
matrices with i.i.d. uniform [0, 10) entries drawn with numpy from the
workload seed; targets come from ``checks.task_targets``.

A timed round always runs the same operations, and rounds repeat until the
run's seconds are spent, so the share of failed operations does not depend
on the seed or the run length.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np
from reynet import checkpoint, models, train
from reynet.data import TASKS, Dataset

import checks
from tracing import PLAN

SAMPLES = 1000
# Every operation runs at least twice, so that each timing can take the
# better of two rounds even when one round outlasts --seconds.
MIN_ROUNDS = 2
CHECK_SAMPLES = 3  # samples per size for the formula check

# train-dense: red-reynet on symmetry at n = 10 over DENSE_SEEDS model seeds.
# Three epochs at lr 1e-2 take the held-out MSE well below the variance of
# the targets (check (d)); eight seeds keep its mean within a few percent
# from one workload seed to the next.
DENSE_SEEDS = 8
DENSE_CFG = train.RunConfig(
    task="symmetry", model="red-reynet", n=10, epochs=3, lr=1e-2, batch=100,
    widths=(128, 128), train_count=SAMPLES, test_count=SAMPLES,
)
DENSE_TRANSFER_NS = (7, 13)  # sizes the trained model is also checked at

# table-grid: one seed of every table-1 cell at n = 5, and table-2's
# corner-loss cells at n = 5 and 10, with the table command's defaults.
GRID_EPOCHS = 5
GRID_CELLS = tuple(
    (task, model, "mse", 5)
    for task in ("symmetry", "diagonal", "power", "trace")
    for model in ("fnn", "reynet", "red-reynet")
) + (("symmetry", "red-reynet", "corner", 5), ("symmetry", "red-reynet", "corner", 10))
GRID_TRANSFER_N = 8

# transfer-sweep: a reduced symmetry model from n = 5, evaluated up to n = 100.
SOURCE_CFG = train.RunConfig(
    task="symmetry", model="red-reynet", n=5, epochs=10, train_count=SAMPLES, test_count=SAMPLES
)
# The source model and the n = 100 set do not depend on the workload seed,
# so the n = 100 evaluation, which fails on its allocation, fails in every run.
FIXED_SEED = 20211015
# The source model is trained, saved and reloaded this many times in set-up,
# and saved and reloaded once more before each evaluation, as ``reynet eval``
# loads its checkpoint; train_samples_per_s and checkpoint_s take the best of
# them, which spreads the round trips over the whole run.  The training is
# left out of setup_s.
SOURCE_REPEATS = 3
SWEEP_NS = (10, 20, 30, 40, 50)
LARGE_N, LARGE_COUNT = 100, 200
# evaluate_mse chunks by 200 samples whatever n is; under this cap the
# n = 100 chunk (2 M component rows) raises MemoryError instead of calling
# in the kernel's out-of-memory killer, while n = 50 needs about 1.7 GiB.
ADDRESS_SPACE_CAP = 3 << 30


def make_dataset(task: str, n: int, count: int, rng: np.random.Generator) -> Dataset:
    inputs = rng.uniform(0.0, 10.0, size=(count, n, n))
    return Dataset(TASKS[task], n, count, 0, inputs, checks.task_targets(task, inputs))


def subset(ds: Dataset, count: int) -> Dataset:
    return Dataset(ds.task, ds.n, count, ds.seed, ds.inputs[:count], ds.targets[:count])


def sample_rows(ds: Dataset) -> int:
    """Input matrix entries evaluated: count * n^2."""
    return ds.count * ds.n * ds.n


class Bench:
    """State of one run: timing, operation counts and check results."""

    def __init__(self, t0: float, seconds: int, tracer, scratch: str):
        self.t0 = t0
        self.seconds = seconds
        self.tracer = tracer
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.problems: list[str] = []
        self.excluded_s = 0.0  # set-up work that no metric counts
        self.setup_s = 0.0
        self.metrics: dict[str, float] = {}

    def check(self, what: str, problem: str) -> None:
        if problem:
            self.problems.append(f"{what}: {problem}")

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def path(self, name: str) -> str:
        return os.path.join(self.scratch, name)

    def run_rounds(self, one_round) -> None:
        """Ends set-up, then runs whole rounds until the seconds are spent,
        and at least MIN_ROUNDS of them.

        Tracing stops with the last round: the checks that follow are not
        part of the workload.
        """
        self.setup_s = time.perf_counter() - self.t0 - self.excluded_s
        if self.tracer:
            self.tracer.timed = True
        start = time.perf_counter()
        while self.rounds < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            one_round()
            self.rounds += 1
        if self.tracer:
            self.tracer.enabled = False


def _plan(bench: Bench, model, ds: Dataset) -> None:
    """The first one-sample forward at a size, which builds its design plan."""
    with bench.span(PLAN):
        train.evaluate_mse(model, subset(ds, 1))


def _check_formula(bench: Bench, what: str, model, ds: Dataset, n_train: int) -> None:
    """Check (a) on the first few samples of a dataset, for a reduced order-2 model."""
    small = subset(ds, CHECK_SAMPLES)
    by_depth = {tab.depth: comp for tab, comp in model.components.items()}
    mlps = [(by_depth[d].weights, by_depth[d].biases) for d in (1, 2)]
    formula = checks.reduced_order2(*mlps, small.inputs, n_train)
    program = models.forward_batch(model, small.inputs.reshape(CHECK_SAMPLES, -1))
    bench.check(f"{what} n={ds.n} outputs", checks.check_formula(program, formula))
    bench.check(
        f"{what} n={ds.n} mse",
        checks.check_mse(train.evaluate_mse(model, small), formula, small.targets),
    )


def _round_trip(bench: Bench, name: str, bundle):
    """save_checkpoint then load_checkpoint; returns the bundle and the seconds."""
    path = bench.path(name)
    start = time.perf_counter()
    checkpoint.save_checkpoint(path, bundle)
    loaded = checkpoint.load_checkpoint(path)
    return loaded, time.perf_counter() - start


def _check_reloaded(bench: Bench, what: str, bundle, loaded, saved_mse: float, reloaded_mse: float):
    """Check (c): bit-identical parameters and the same evaluate_mse."""
    bench.check(f"{what} checkpoint", checks.check_identical(bundle.model, loaded.model))
    bench.check(f"{what} reloaded mse", checks.check_same_float("mse", saved_mse, reloaded_mse))


def _check_repeat(bench: Bench, what: str, first: dict, key, value: float) -> None:
    """A repeated operation must give the first round's result to the bit."""
    if key in first:
        bench.check(f"{what} repeat", checks.check_same_float("mse", first[key], value))
    else:
        first[key] = value


class _Timings:
    """Seconds of each operation in every round, and the work it does.

    A metric takes each operation's best round: interference from the rest
    of the machine only ever slows an operation down.
    """

    def __init__(self):
        self.work: dict = {}
        self.seconds: dict = {}

    def add(self, key, work: float, seconds: float) -> None:
        self.work[key] = work
        self.seconds[key] = min(seconds, self.seconds.get(key, float("inf")))

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def rate(self) -> float:
        return sum(self.work.values()) / self.total_seconds()


@dataclass
class _Job:
    """One training operation: a config, its model seed and its data."""

    what: str
    cfg: train.RunConfig
    seed: int
    train_ds: Dataset
    test_ds: Dataset
    formula_sets: list[Dataset]  # transfer sizes for check (a)
    ceilings: list[tuple[str, float]] = field(default_factory=list)  # check (d)


def _set_up_job(bench: Bench, job: _Job) -> None:
    """Builds the model, its design plan, and its untrained evaluation."""
    _plan(bench, train.build_model(job.cfg, job.seed), job.test_ds)
    records, _ = train.train_seed(replace(job.cfg, epochs=0), job.seed, job.train_ds, job.test_ds)
    job.ceilings.append(("untrained test mse", records[-1].mse))


def _training_rounds(bench: Bench, jobs: list[_Job]) -> None:
    """Train, save, reload and evaluate every job in each round, as
    ``reynet train --checkpoint-dir`` and ``reynet eval`` do."""
    trained, ckpt, evals = _Timings(), _Timings(), _Timings()
    first: dict = {}
    reloaded: dict = {}

    def one_round():
        for index, job in enumerate(jobs):
            cfg = job.cfg
            bench.attempted += 1
            start = time.perf_counter()
            records, bundle = train.train_seed(cfg, job.seed, job.train_ds, job.test_ds)
            trained.add(index, cfg.epochs * cfg.train_count, time.perf_counter() - start)
            loaded, seconds = _round_trip(bench, f"job{index}.json", bundle)
            ckpt.add(index, 1, seconds)
            start = time.perf_counter()
            mse = train.evaluate_mse(train.model_for_eval(loaded, cfg.n), job.test_ds)
            evals.add(index, sample_rows(job.test_ds), time.perf_counter() - start)

            test_mse = records[-1].mse
            _check_reloaded(bench, job.what, bundle, loaded, test_mse, mse)
            for name, ceiling in job.ceilings:
                bench.check(job.what, checks.check_below(f"test mse vs {name}", test_mse, ceiling))
            _check_repeat(bench, job.what, first, index, test_mse)
            reloaded.setdefault(index, loaded)

    bench.run_rounds(one_round)
    for index, job in enumerate(jobs):
        loaded = reloaded[index]
        if loaded.kind != "red-reynet" or loaded.model.order_out != 2:
            continue
        _check_formula(bench, job.what, loaded.model, job.test_ds, job.cfg.n)
        for ds in job.formula_sets:
            transferred = train.model_for_eval(loaded, ds.n)
            _check_formula(bench, job.what, transferred, ds, job.cfg.n)
    bench.metrics.update(
        train_samples_per_s=trained.rate(),
        eval_rows_per_s=evals.rate(),
        checkpoint_s=ckpt.total_seconds(),
        test_mse=float(np.mean(list(first.values()))),
    )


def train_dense(bench: Bench, seed: int) -> None:
    cfg = DENSE_CFG
    rng = np.random.default_rng([seed, 1])
    train_ds = make_dataset(cfg.task, cfg.n, cfg.train_count, rng)
    test_ds = make_dataset(cfg.task, cfg.n, cfg.test_count, rng)
    transfer_sets = [make_dataset(cfg.task, n, CHECK_SAMPLES, rng) for n in DENSE_TRANSFER_NS]
    variance = float(np.var(test_ds.targets))
    jobs = []
    for k in range(DENSE_SEEDS):
        s = seed * DENSE_SEEDS + k
        job = _Job(f"train-dense seed {s}", cfg, s, train_ds, test_ds, transfer_sets)
        _set_up_job(bench, job)
        job.ceilings.append(("target variance", variance))
        jobs.append(job)
    _training_rounds(bench, jobs)


def table_grid(bench: Bench, seed: int) -> None:
    data = {}
    jobs = []
    for task, model, loss, n in GRID_CELLS:
        if (task, n) not in data:
            rng = np.random.default_rng([seed, 2, TASKS[task].task_id, n])
            data[task, n] = (
                make_dataset(task, n, SAMPLES, rng),
                make_dataset(task, n, SAMPLES, rng),
                [make_dataset(task, GRID_TRANSFER_N, CHECK_SAMPLES, rng)],
            )
        cfg = train.RunConfig(
            task=task, model=model, n=n, loss=loss, seeds=(seed,), epochs=GRID_EPOCHS,
            train_count=SAMPLES, test_count=SAMPLES,
        )
        job = _Job(f"table-grid {task} {model} loss={loss} n={n}", cfg, seed, *data[task, n])
        _set_up_job(bench, job)
        jobs.append(job)
    _training_rounds(bench, jobs)


def _cap_address_space() -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = ADDRESS_SPACE_CAP if hard == resource.RLIM_INFINITY else min(hard, ADDRESS_SPACE_CAP)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def transfer_sweep(bench: Bench, seed: int) -> None:
    _cap_address_space()
    cfg = SOURCE_CFG
    rng = np.random.default_rng([FIXED_SEED, 3])
    source_train = make_dataset(cfg.task, cfg.n, cfg.train_count, rng)
    source_test = make_dataset(cfg.task, cfg.n, cfg.test_count, rng)
    trained, ckpt = _Timings(), _Timings()
    first: dict = {}
    for _ in range(SOURCE_REPEATS):
        start = time.perf_counter()
        records, bundle = train.train_seed(cfg, FIXED_SEED, source_train, source_test)
        seconds = time.perf_counter() - start
        bench.excluded_s += seconds
        trained.add("source", cfg.epochs * cfg.train_count, seconds)
        _check_repeat(bench, "transfer-sweep source training", first, "source", records[-1].mse)
    for _ in range(SOURCE_REPEATS):
        loaded, seconds = _round_trip(bench, "source.json", bundle)
        ckpt.add("source", 1, seconds)
    sets = {}
    for n in SWEEP_NS:
        sets[n] = make_dataset(cfg.task, n, SAMPLES, np.random.default_rng([seed, 3, n]))
    sets[LARGE_N] = make_dataset(
        cfg.task, LARGE_N, LARGE_COUNT, np.random.default_rng([FIXED_SEED, 3, LARGE_N])
    )
    transferred = {n: train.model_for_eval(loaded, n) for n in sets}
    for n, model in transferred.items():
        _plan(bench, model, sets[n])

    evals = _Timings()

    def one_round():
        for n, ds in sets.items():
            reloaded, seconds = _round_trip(bench, "source.json", bundle)
            ckpt.add("source", 1, seconds)
            bench.check("transfer-sweep checkpoint", checks.check_identical(bundle.model, reloaded.model))
            bench.attempted += 1
            start = time.perf_counter()
            try:
                mse = train.evaluate_mse(transferred[n], ds)
            except MemoryError:
                bench.failed += 1
                continue
            if n in SWEEP_NS:
                evals.add(n, sample_rows(ds), time.perf_counter() - start)
            _check_repeat(bench, f"transfer-sweep n={n}", first, n, mse)

    bench.run_rounds(one_round)

    what = "transfer-sweep"
    reloaded_mse = train.evaluate_mse(loaded.model, source_test)
    _check_reloaded(bench, what, bundle, loaded, records[-1].mse, reloaded_mse)
    _check_formula(bench, what, loaded.model, source_test, cfg.n)
    for n, model in transferred.items():
        _check_formula(bench, what, model, sets[n], cfg.n)
    bench.metrics.update(
        train_samples_per_s=trained.rate(),
        eval_rows_per_s=evals.rate(),
        checkpoint_s=ckpt.total_seconds(),
        test_mse=float(np.mean([first[n] for n in SWEEP_NS])),
    )


WORKLOADS = {
    "train-dense": train_dense,
    "table-grid": table_grid,
    "transfer-sweep": transfer_sweep,
}
