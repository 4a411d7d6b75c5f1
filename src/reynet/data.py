"""Synthetic regression tasks and their binary dataset container.

Inputs are n x n matrices with i.i.d. uniform [0, 10) entries drawn from the
counter generator, sample by sample in row-major order, so a (task, n,
count, seed) tuple pins every byte of a dataset.

File layout (little-endian): magic "REYNDATA", u32 version = 1, u32 task id,
u32 n, u32 count, u64 seed, then count * n * n input float64s and the
targets, float64 row-major per sample.  Header is 32 bytes; total size is
32 + 8 * count * (n^2 + target size).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .files import atomic_write
from .rng import CounterRng

MAGIC = b"REYNDATA"
VERSION = 1
INPUT_LOW, INPUT_HIGH = 0.0, 10.0


class DatasetFormatError(ValueError):
    """Raised for files that do not parse as a dataset."""


class BadMagicError(DatasetFormatError):
    pass


class VersionMismatchError(DatasetFormatError):
    pass


class TruncatedDataError(DatasetFormatError):
    pass


@dataclass(frozen=True)
class TaskSpec:
    name: str
    task_id: int
    invariant: bool
    output_order: int | None  # tensor order of the target; None for a scalar

    def output_size(self, n: int) -> int:
        if self.output_order is None:
            return 1
        return n**self.output_order


SYMMETRY = TaskSpec("symmetry", 0, False, 2)
DIAGONAL = TaskSpec("diagonal", 1, False, 1)
POWER = TaskSpec("power", 2, False, 2)
TRACE = TaskSpec("trace", 3, True, None)

TASKS = {t.name: t for t in (SYMMETRY, DIAGONAL, POWER, TRACE)}
_TASK_BY_ID = {t.task_id: t for t in TASKS.values()}


def apply_task(task: TaskSpec, a: np.ndarray) -> np.ndarray:
    """Target for one input matrix: shape (n, n), (n,), or (1,)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if task.name == "symmetry":
        return 0.5 * (a + a.T)
    if task.name == "diagonal":
        return np.diagonal(a).copy()
    if task.name == "power":
        return np.square(a)
    if task.name == "trace":
        return np.array([np.trace(a)])
    raise ValueError(f"unknown task {task.name!r}")


@dataclass
class Dataset:
    task: TaskSpec
    n: int
    count: int
    seed: int
    inputs: np.ndarray  # (count, n, n)
    targets: np.ndarray  # (count, ...) per task

    def __post_init__(self):
        if self.inputs.shape != (self.count, self.n, self.n):
            raise ValueError(
                f"inputs shaped {self.inputs.shape}, expected {(self.count, self.n, self.n)}"
            )
        want = self.count * self.task.output_size(self.n)
        if self.targets.shape[:1] != (self.count,) or self.targets.size != want:
            raise ValueError(
                f"targets shaped {self.targets.shape} do not hold {want} values "
                f"for task {self.task.name}"
            )


def generate(task: TaskSpec, n: int, count: int, seed: int) -> Dataset:
    rng = CounterRng(seed)
    inputs = rng.uniform(INPUT_LOW, INPUT_HIGH, count * n * n).reshape(count, n, n)
    targets = np.stack([apply_task(task, a) for a in inputs])
    return Dataset(task, n, count, seed, inputs, targets)


def save_dataset(path: str, ds: Dataset) -> None:
    with atomic_write(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIIQ", VERSION, ds.task.task_id, ds.n, ds.count, ds.seed))
        fh.write(np.ascontiguousarray(ds.inputs, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.targets, dtype="<f8").tobytes())


def load_dataset(path: str) -> Dataset:
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"{path}: not a dataset file (bad magic)")
    header = raw[len(MAGIC) : len(MAGIC) + 24]
    if len(header) < 24:
        raise TruncatedDataError(f"{path}: header cut short")
    version, task_id, n, count, seed = struct.unpack("<IIIIQ", header)
    if version != VERSION:
        raise VersionMismatchError(f"{path}: version {version}, expected {VERSION}")
    if task_id not in _TASK_BY_ID:
        raise DatasetFormatError(f"{path}: unknown task id {task_id}")
    task = _TASK_BY_ID[task_id]
    body = raw[len(MAGIC) + 24 :]
    in_count = count * n * n
    out_count = count * task.output_size(n)
    expect = 8 * (in_count + out_count)
    if len(body) != expect:
        raise TruncatedDataError(
            f"{path}: payload is {len(body)} bytes, expected {expect}"
        )
    flat = np.frombuffer(body, dtype="<f8")
    inputs = flat[:in_count].reshape(count, n, n).copy()
    targets = flat[in_count:].copy()
    if task.output_order == 2:
        targets = targets.reshape(count, n, n)
    elif task.output_order == 1:
        targets = targets.reshape(count, n)
    else:
        targets = targets.reshape(count, 1)
    return Dataset(task, n, count, seed, inputs, targets)
