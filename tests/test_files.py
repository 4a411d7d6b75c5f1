"""Whole-file writes: a save that fails part way leaves the previous file."""

from types import SimpleNamespace

import pytest

from reynet import checkpoint
from reynet.checkpoint import ModelBundle, save_checkpoint
from reynet.data import TASKS, generate, save_dataset
from reynet.files import atomic_write
from reynet.models import build_equivariant, default_reduced_spec
from reynet.train import MetricsRecord, append_metrics


def _bundle(seed):
    model = build_equivariant(seed, 3, 2, 1, 2, 1, (4,), default_reduced_spec(2))
    return ModelBundle("red-reynet", "symmetry", "mse", 3, seed, {}, model)


def _half_dump(doc, fh, **kwargs):
    fh.write('{"format": "reynet-checkpoint",')
    raise RuntimeError("disk gone")


def _save_broken_checkpoint(path, monkeypatch):
    monkeypatch.setattr(checkpoint.json, "dump", _half_dump)
    save_checkpoint(path, _bundle(1))


def _save_broken_dataset(path, monkeypatch):
    ds = generate(TASKS["symmetry"], 3, 4, 1)
    # the header and inputs are written before the targets fail to convert
    save_dataset(path, SimpleNamespace(**{**vars(ds), "targets": "not numbers"}))


def _append_broken_metrics(path, monkeypatch):
    class Unwritable:
        def row(self):
            raise RuntimeError("no row")

    good = MetricsRecord("symmetry", "fnn", "mse", 3, 3, 1, 1, "test", 0.5)
    append_metrics(path, [good, Unwritable()])


def _save_checkpoint(path):
    save_checkpoint(path, _bundle(0))


def _save_dataset(path):
    save_dataset(path, generate(TASKS["symmetry"], 3, 5, 0))


def _append_metrics(path):
    append_metrics(path, [MetricsRecord("trace", "fnn", "mse", 3, 3, 0, 1, "test", 1.0)])


CASES = {
    "checkpoint": (_save_checkpoint, _save_broken_checkpoint),
    "dataset": (_save_dataset, _save_broken_dataset),
    "metrics": (_append_metrics, _append_broken_metrics),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_failed_save_leaves_the_previous_file(tmp_path, monkeypatch, case):
    save, broken_save = CASES[case]
    path = tmp_path / "target"
    save(path)
    before = path.read_bytes()
    with pytest.raises((RuntimeError, ValueError)):
        broken_save(path, monkeypatch)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["target"]


def test_atomic_write_replaces_only_on_success(tmp_path):
    path = tmp_path / "out.csv"
    with atomic_write(path) as fh:
        fh.write("a\n")
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path) as fh:
            fh.write("b\n")
            raise KeyboardInterrupt
    assert path.read_text() == "a\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

