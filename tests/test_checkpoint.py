"""Checkpoint files: exact round trips for every model kind."""

import json
import re

import numpy as np
import pytest

from reynet.checkpoint import (
    MODEL_KINDS,
    ModelBundle,
    kind_of,
    load_checkpoint,
    save_checkpoint,
)
from reynet.models import (
    build_equivariant,
    build_flat,
    build_invariant,
    default_reduced_spec,
    flat_forward,
    forward_batch,
    invariant_forward_batch,
)
from reynet.rng import CounterRng

HYPER = {"epochs": 2, "lr": 0.001}


def roundtrip(tmp_path, bundle):
    path = tmp_path / "model.json"
    save_checkpoint(path, bundle)
    return load_checkpoint(path), path


def sample_models():
    yield "fnn", build_flat(1, 3, 2, 1, 2, 1, (4,))
    yield "reynet", build_equivariant(2, 3, 2, 1, 2, 1, (4,), None)
    yield "red-reynet", build_equivariant(3, 3, 2, 1, 2, 1, (4,), default_reduced_spec(2))
    yield "inv-reynet", build_invariant(4, 3, 2, 1, 2, 2, 1, (4,), None, "orbit_sum")
    yield "inv-red-reynet", build_invariant(5, 3, 2, 1, 2, 2, 1, (4,), default_reduced_spec(2))


def model_output(model, kind, xb):
    if kind == "fnn":
        return flat_forward(model, _as_tensor(xb))
    if kind.startswith("inv"):
        return invariant_forward_batch(model, xb.reshape(1, -1))
    return forward_batch(model, xb.reshape(1, -1))


def _as_tensor(xb):
    from reynet.tensors import DenseTensor

    return DenseTensor(3, 2, 1, xb.reshape(3, 3, 1))


def test_kind_tags():
    assert MODEL_KINDS == ("fnn", "reynet", "red-reynet", "inv-reynet", "inv-red-reynet")
    for kind, model in sample_models():
        assert kind_of(model) == kind


def test_round_trip_outputs_are_bit_identical(tmp_path):
    xb = CounterRng(0).uniform(-1.0, 1.0, 9)
    for kind, model in sample_models():
        bundle = ModelBundle(kind, "symmetry", "mse", 3, 0, HYPER, model)
        back, _ = roundtrip(tmp_path, bundle)
        assert back.kind == kind
        assert (back.task, back.loss, back.n, back.seed) == ("symmetry", "mse", 3, 0)
        assert back.hyper == HYPER
        a = model_output(model, kind, xb)
        b = model_output(back.model, kind, xb)
        out_a = a.data if hasattr(a, "data") else a
        out_b = b.data if hasattr(b, "data") else b
        assert np.array_equal(out_a, out_b)


def test_parameters_round_trip_exactly(tmp_path):
    model = build_equivariant(7, 4, 2, 1, 2, 1, (4,), default_reduced_spec(2))
    for tab in model.tableaux:
        # park awkward values: subnormals, negatives, long decimals
        model.components[tab].weights[0][0, 0] = 1.0 / 3.0
        model.components[tab].weights[0][0, 1] = -5e-310
    bundle = ModelBundle("red-reynet", "power", "corner", 4, 3, HYPER, model)
    back, _ = roundtrip(tmp_path, bundle)
    for tab in model.tableaux:
        ours = model.components[tab]
        theirs = back.model.components[tab]
        for a, b in zip(ours.weights, theirs.weights):
            assert np.array_equal(a, b)
        for a, b in zip(ours.biases, theirs.biases):
            assert np.array_equal(a, b)
    assert back.model.depth_divisors == model.depth_divisors
    assert back.model.reduced == model.reduced


def test_divisors_survive_a_transfer_round_trip(tmp_path):
    from reynet.models import transfer_n

    model = transfer_n(build_equivariant(8, 3, 2, 1, 2, 1, (4,), default_reduced_spec(2)), 10)
    assert model.depth_divisors == {1: 3, 2: 6}  # carried from n = 3
    bundle = ModelBundle("red-reynet", "symmetry", "mse", 10, 0, HYPER, model)
    back, _ = roundtrip(tmp_path, bundle)
    assert back.model.n == 10
    assert back.model.depth_divisors == {1: 3, 2: 6}


def test_floats_are_written_with_17_significant_digits(tmp_path):
    bundle = ModelBundle("fnn", "trace", "mse", 3, 0, HYPER, build_flat(9, 3, 2, 1, None, 1, (4,)))
    path = tmp_path / "fmt.json"
    save_checkpoint(path, bundle)
    doc = json.loads(path.read_text())
    numbers = doc["model"]["mlp"]["weights"][0]
    assert numbers, "expected serialized weights"
    for s in numbers:
        assert re.fullmatch(r"-?\d\.\d{17}e[+-]\d{2,3}", s), s
        assert float(s) == float(format(float(s), ".17e"))


def test_save_checks_kind_consistency(tmp_path):
    model = build_flat(1, 3, 2, 1, 2, 1, (4,))
    with pytest.raises(ValueError):
        save_checkpoint(tmp_path / "x.json", ModelBundle("reynet", "t", "mse", 3, 0, {}, model))


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "foreign.json"
    path.write_text(json.dumps({"hello": 1}))
    with pytest.raises(ValueError):
        load_checkpoint(path)
    path.write_text(json.dumps({"format": "reynet-checkpoint", "version": 99}))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _tampered(tmp_path, kind, model, change):
    path = tmp_path / "model.json"
    save_checkpoint(path, ModelBundle(kind, "symmetry", "mse", 3, 0, HYPER, model))
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d["model"].update(pooling="mean"), "unknown pooling"),
        (lambda d: d["model"]["head"]["dims"].__setitem__(0, 3), "head: dims"),
        (lambda d: d["model"]["body"].update(channels_out=3), "do not map"),
        (lambda d: d.update(kind="inv-reynet"), "kind 'inv-reynet' does not match"),
    ],
)
def test_load_validates_invariant_models(tmp_path, change, message):
    _, model = list(sample_models())[4]
    path = _tampered(tmp_path, "inv-red-reynet", model, change)
    with pytest.raises(ValueError, match=message) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


def test_load_validates_flat_models(tmp_path):
    model = build_flat(1, 3, 2, 1, 2, 1, (4,))
    path = _tampered(tmp_path, "fnn", model, lambda d: d["model"].update(order_out=None))
    with pytest.raises(ValueError, match="do not map 9 features to 1"):
        load_checkpoint(path)
    path = _tampered(tmp_path, "fnn", model, lambda d: d["model"].update(channels_in=True))
    with pytest.raises(ValueError, match="'channels_in' should be int, got bool"):
        load_checkpoint(path)
