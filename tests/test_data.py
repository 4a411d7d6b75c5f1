"""Task definitions and the binary dataset container."""

import struct

import numpy as np
import pytest

from reynet.data import (
    BadMagicError,
    Dataset,
    DatasetFormatError,
    TASKS,
    TruncatedDataError,
    VersionMismatchError,
    apply_task,
    generate,
    load_dataset,
    save_dataset,
)

HEADER_SIZE = 32


def test_task_registry():
    assert sorted(TASKS) == ["diagonal", "power", "symmetry", "trace"]
    assert [TASKS[k].task_id for k in ("symmetry", "diagonal", "power", "trace")] == [
        0,
        1,
        2,
        3,
    ]
    assert TASKS["trace"].invariant and TASKS["trace"].output_order is None
    assert TASKS["symmetry"].output_size(5) == 25
    assert TASKS["diagonal"].output_size(5) == 5
    assert TASKS["trace"].output_size(5) == 1


def test_apply_task_formulas():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(apply_task(TASKS["symmetry"], a), (a + a.T) / 2)
    assert np.array_equal(apply_task(TASKS["diagonal"], a), np.array([1.0, 4.0]))
    assert np.array_equal(apply_task(TASKS["power"], a), a * a)
    assert np.array_equal(apply_task(TASKS["trace"], a), np.array([5.0]))


def test_generate_is_deterministic_and_in_range():
    ds = generate(TASKS["power"], 4, 20, seed=9)
    again = generate(TASKS["power"], 4, 20, seed=9)
    other = generate(TASKS["power"], 4, 20, seed=10)
    assert np.array_equal(ds.inputs, again.inputs)
    assert not np.array_equal(ds.inputs, other.inputs)
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() < 10.0
    assert ds.inputs.shape == (20, 4, 4)
    assert ds.targets.shape == (20, 4, 4)
    for i in range(20):
        assert np.array_equal(ds.targets[i], ds.inputs[i] * ds.inputs[i])


def test_target_shapes_per_task():
    assert generate(TASKS["symmetry"], 3, 5, 0).targets.shape == (5, 3, 3)
    assert generate(TASKS["diagonal"], 3, 5, 0).targets.shape == (5, 3)
    assert generate(TASKS["trace"], 3, 5, 0).targets.shape == (5, 1)


def test_file_layout_and_size(tmp_path):
    for name, outsize in (("symmetry", 9), ("diagonal", 3), ("trace", 1)):
        path = tmp_path / f"{name}.bin"
        ds = generate(TASKS[name], 3, 7, seed=77)
        save_dataset(path, ds)
        raw = path.read_bytes()
        assert len(raw) == HEADER_SIZE + 8 * 7 * (9 + outsize)
        assert raw[:8] == b"REYNDATA"
        version, task_id, n, count = struct.unpack_from("<IIII", raw, 8)
        (seed,) = struct.unpack_from("<Q", raw, 24)
        assert (version, task_id, n, count, seed) == (1, TASKS[name].task_id, 3, 7, 77)
        first_input = struct.unpack_from("<d", raw, HEADER_SIZE)[0]
        assert first_input == ds.inputs[0, 0, 0]


def test_round_trip_is_exact(tmp_path):
    for name in TASKS:
        path = tmp_path / f"{name}.bin"
        ds = generate(TASKS[name], 5, 11, seed=3)
        save_dataset(path, ds)
        back = load_dataset(path)
        assert back.task is TASKS[name]
        assert (back.n, back.count, back.seed) == (5, 11, 3)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.targets, ds.targets)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    ds = generate(TASKS["trace"], 3, 2, 0)
    save_dataset(path, ds)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTADATA"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        load_dataset(path)


def test_load_rejects_wrong_version(tmp_path):
    path = tmp_path / "vers.bin"
    save_dataset(path, generate(TASKS["trace"], 3, 2, 0))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 8, 99)
    path.write_bytes(bytes(raw))
    with pytest.raises(VersionMismatchError):
        load_dataset(path)


def test_load_rejects_truncation_and_trailing_bytes(tmp_path):
    path = tmp_path / "trunc.bin"
    save_dataset(path, generate(TASKS["symmetry"], 3, 4, 0))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(TruncatedDataError):
        load_dataset(path)
    path.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(TruncatedDataError):
        load_dataset(path)
    path.write_bytes(raw[:20])
    with pytest.raises(TruncatedDataError):
        load_dataset(path)


def test_load_rejects_unknown_task(tmp_path):
    path = tmp_path / "task.bin"
    save_dataset(path, generate(TASKS["trace"], 3, 2, 0))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<I", raw, 12, 17)
    path.write_bytes(bytes(raw))
    with pytest.raises(DatasetFormatError):
        load_dataset(path)


def test_format_errors_are_value_errors():
    assert issubclass(BadMagicError, DatasetFormatError)
    assert issubclass(VersionMismatchError, DatasetFormatError)
    assert issubclass(TruncatedDataError, DatasetFormatError)
    assert issubclass(DatasetFormatError, ValueError)


def test_dataset_validates_construction():
    inputs = np.zeros((2, 3, 3))
    with pytest.raises(ValueError):
        Dataset(TASKS["trace"], 3, 2, 0, inputs, np.zeros((3, 1)))
