"""Property tests: the file readers fail on any damaged input with one line.

Random and mutated metrics CSVs, dataset files and checkpoints either load or
raise a ValueError (DatasetFormatError counts) whose one-line message names
the file; no other exception escapes.
"""

import csv
import json
import struct

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reynet.checkpoint import ModelBundle, load_checkpoint, save_checkpoint
from reynet.data import MAGIC, TASKS, generate, load_dataset, save_dataset
from reynet.models import build_equivariant, build_invariant, default_reduced_spec
from reynet.train import METRICS_HEADER, MetricsRecord, append_metrics, read_metrics

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)


def _loads_or_fails_in_one_line(load, path):
    try:
        load(path)
    except ValueError as err:
        message = str(err)
        assert str(path) in message, message
        assert "\n" not in message, message


def _mutated(data: st.DataObject, raw: bytes) -> bytes:
    """`raw` with a few spans deleted, overwritten or inserted."""
    for _ in range(data.draw(st.integers(1, 3))):
        start = data.draw(st.integers(0, len(raw)))
        stop = data.draw(st.integers(start, min(len(raw), start + 8)))
        raw = raw[:start] + data.draw(st.binary(max_size=8)) + raw[stop:]
    return raw


def _metrics_text(tmp_path) -> bytes:
    path = tmp_path / "seed.csv"
    path.unlink(missing_ok=True)
    append_metrics(
        path,
        [
            MetricsRecord("symmetry", "red-reynet", "mse", 3, 3, 0, 2, "train", 0.5),
            MetricsRecord("trace", "inv-reynet", "corner", 5, 7, 1, 2, "test", 1.25e-3),
        ],
    )
    return path.read_bytes()


@FUZZ
@given(data=st.data())
def test_read_metrics_on_damaged_files(tmp_path, data):
    seed = _metrics_text(tmp_path)
    kind = data.draw(st.sampled_from(["random", "cut", "mutated"]))
    if kind == "random":
        raw = data.draw(st.binary(max_size=200))
    elif kind == "cut":
        raw = seed[: data.draw(st.integers(0, len(seed)))] + data.draw(st.binary(max_size=40))
    else:
        raw = _mutated(data, seed)
    path = tmp_path / "metrics.csv"
    path.write_bytes(raw)
    _loads_or_fails_in_one_line(read_metrics, path)


@FUZZ
@given(
    rows=st.lists(
        st.lists(st.text(alphabet=st.characters(codec="utf-8"), max_size=6), max_size=10),
        max_size=4,
    )
)
def test_read_metrics_on_arbitrary_cells(tmp_path, rows):
    path = tmp_path / "metrics.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([METRICS_HEADER, *rows])
    _loads_or_fails_in_one_line(read_metrics, path)


def _dataset_bytes(tmp_path, task) -> bytes:
    path = tmp_path / "seed.bin"
    save_dataset(path, generate(TASKS[task], 3, 2, 0))
    return path.read_bytes()


@FUZZ
@given(data=st.data(), task=st.sampled_from(sorted(TASKS)))
def test_load_dataset_on_damaged_files(tmp_path, data, task):
    seed = _dataset_bytes(tmp_path, task)
    kind = data.draw(st.sampled_from(["random", "magic", "header", "mutated"]))
    if kind == "random":
        raw = data.draw(st.binary(max_size=100))
    elif kind == "magic":
        raw = MAGIC + data.draw(st.binary(max_size=100))
    elif kind == "header":
        fields = [data.draw(st.integers(0, 2**32 - 1)) for _ in range(4)]
        raw = MAGIC + struct.pack("<IIIIQ", *fields, data.draw(st.integers(0, 2**64 - 1)))
        raw += seed[32:]
    else:
        raw = _mutated(data, seed)
    path = tmp_path / "data.bin"
    path.write_bytes(raw)
    _loads_or_fails_in_one_line(load_dataset, path)


def _checkpoint_doc(tmp_path, invariant: bool) -> dict:
    path = tmp_path / "seed.json"
    if invariant:
        model = build_invariant(0, 3, 2, 1, 2, 2, 1, (2,), default_reduced_spec(2))
        kind = "inv-red-reynet"
    else:
        model = build_equivariant(0, 3, 2, 1, 2, 1, (2,), default_reduced_spec(2))
        kind = "red-reynet"
    save_checkpoint(path, ModelBundle(kind, "symmetry", "mse", 3, 0, {"epochs": 1}, model))
    return json.loads(path.read_text())


def _places(doc):
    """Every (container, key) position in a JSON tree."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _places(value)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4,
)


@FUZZ
@given(data=st.data(), invariant=st.booleans())
def test_load_checkpoint_on_damaged_files(tmp_path, data, invariant):
    doc = _checkpoint_doc(tmp_path, invariant)
    if data.draw(st.booleans()):
        for _ in range(data.draw(st.integers(1, 3))):
            places = list(_places(doc))
            container, key = places[data.draw(st.integers(0, len(places) - 1))]
            if data.draw(st.booleans()):
                container[key] = data.draw(JSON_VALUES)
            else:
                del container[key]
        raw = json.dumps(doc).encode()
    else:
        raw = _mutated(data, json.dumps(doc).encode())
    path = tmp_path / "model.json"
    path.write_bytes(raw)
    _loads_or_fails_in_one_line(load_checkpoint, path)


@FUZZ
@given(raw=st.binary(max_size=200))
def test_load_checkpoint_on_random_bytes(tmp_path, raw):
    path = tmp_path / "model.json"
    path.write_bytes(raw)
    _loads_or_fails_in_one_line(load_checkpoint, path)
