"""Model checkpoints as structured text.

A checkpoint is a JSON document carrying the model kind tag (fnn, reynet,
red-reynet, inv-reynet, inv-red-reynet), shapes, hyperparameters, seed, and
every parameter array flattened row-major as decimal strings with 17
significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .files import atomic_write, read_json
from .models import (
    POOLINGS,
    EquivariantReyNet,
    FlatNet,
    InvariantReyNet,
    ReducedSpec,
    check_signature,
    component_input_dim,
    pooled_width,
)
from .nn import MLPParams
from .tableaux import BasisTableau, all_basis_tableaux

FORMAT_NAME = "reynet-checkpoint"
FORMAT_VERSION = 1
MODEL_KINDS = ("fnn", "reynet", "red-reynet", "inv-reynet", "inv-red-reynet")


@dataclass
class ModelBundle:
    kind: str
    task: str
    loss: str
    n: int
    seed: int
    hyper: dict
    model: EquivariantReyNet | InvariantReyNet | FlatNet


def kind_of(model) -> str:
    if isinstance(model, FlatNet):
        return "fnn"
    if isinstance(model, EquivariantReyNet):
        return "reynet" if model.reduced is None else "red-reynet"
    if isinstance(model, InvariantReyNet):
        return "inv-reynet" if model.body.reduced is None else "inv-red-reynet"
    raise TypeError(f"unknown model type {type(model)!r}")


def _fmt(values: np.ndarray) -> list[str]:
    return [format(float(v), ".17e") for v in np.asarray(values).ravel()]


def _mlp_doc(p: MLPParams) -> dict:
    return {
        "dims": list(p.dims),
        "weights": [_fmt(w) for w in p.weights],
        "biases": [_fmt(b) for b in p.biases],
    }


def _field(doc, key: str, *kinds: type):
    """doc[key], which must exist and be one of `kinds` (default int; a bool
    counts as an int only where bool is named)."""
    kinds = kinds or (int,)
    if not isinstance(doc, dict):
        raise ValueError(f"expected an object holding {key!r}, got {type(doc).__name__}")
    if key not in doc:
        raise ValueError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise ValueError(f"field {key!r} should be {names}, got {type(value).__name__}")
    return value


def _positive(doc, key: str) -> int:
    value = _field(doc, key)
    if value < 1:
        raise ValueError(f"field {key!r} should be positive, got {value}")
    return value


def _floats(flat, shape: tuple[int, ...], what: str) -> np.ndarray:
    size = int(np.prod(shape))
    if not isinstance(flat, list) or len(flat) != size:
        raise ValueError(f"{what} should be a list of {size} values")
    try:
        return np.array([float(s) for s in flat]).reshape(shape)
    except (TypeError, ValueError):
        raise ValueError(f"{what} holds a non-number")


def _mlp_load(doc, what: str, d_in: int, d_out: int | None) -> MLPParams:
    """An MLP mapping d_in features to d_out (any, if None), every array
    checked for size before it is shaped."""
    dims = _field(doc, "dims", list)
    if len(dims) < 2 or any(type(d) is not int or d < 1 for d in dims):
        raise ValueError(f"{what}: dims {dims} are not at least two positive integers")
    if dims[0] != d_in or d_out not in (None, dims[-1]):
        raise ValueError(f"{what}: dims {dims} do not map {d_in} features to {d_out}")
    weights, biases = _field(doc, "weights", list), _field(doc, "biases", list)
    if len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
        raise ValueError(f"{what}: {len(dims) - 1} layers need as many weights and biases")
    return MLPParams(
        tuple(dims),
        [_floats(w, (dims[k + 1], dims[k]), f"{what} weights {k}") for k, w in enumerate(weights)],
        [_floats(b, (dims[k + 1],), f"{what} biases {k}") for k, b in enumerate(biases)],
    )


def _index_lists(value: list, what: str) -> tuple[tuple[int, ...], ...]:
    if not all(isinstance(v, list) and all(type(i) is int for i in v) for v in value):
        raise ValueError(f"{what} {value} should be lists of integers")
    return tuple(tuple(v) for v in value)


def _reduced_doc(reduced: ReducedSpec | None):
    if reduced is None:
        return None
    return {
        "coords": [list(c) for c in reduced.coords],
        "stab_restricted": reduced.stab_restricted,
    }


def _reduced_load(doc) -> ReducedSpec | None:
    if doc is None:
        return None
    coords = _index_lists(_field(doc, "coords", list), "reduced coordinates")
    return ReducedSpec(coords, _field(doc, "stab_restricted", bool))


def _equivariant_doc(m: EquivariantReyNet) -> dict:
    comps = []
    for tab in m.tableaux:
        comp = m.components[tab]
        if not isinstance(comp, MLPParams):
            raise TypeError("only trainable components can be saved")
        comps.append({"rows": [list(r) for r in tab.rows], "mlp": _mlp_doc(comp)})
    return {
        "n": m.n,
        "order_in": m.order_in,
        "channels_in": m.channels_in,
        "order_out": m.order_out,
        "channels_out": m.channels_out,
        "reduced": _reduced_doc(m.reduced),
        "depth_divisors": {str(d): v for d, v in m.depth_divisors.items()},
        "components": comps,
    }


def _equivariant_load(doc) -> EquivariantReyNet:
    n, order_in, order_out = (_positive(doc, k) for k in ("n", "order_in", "order_out"))
    channels_in, channels_out = _positive(doc, "channels_in"), _positive(doc, "channels_out")
    reduced = _reduced_load(_field(doc, "reduced", dict, type(None)))
    check_signature(n, order_in, order_out, reduced)
    components: dict[BasisTableau, MLPParams] = {}
    for entry in _field(doc, "components", list):
        tab = BasisTableau(order_out, _index_lists(_field(entry, "rows", list), "component rows"))
        if tab in components:
            raise ValueError(f"two components for tableau {tab.rows}")
        d_in = component_input_dim(n, order_in, channels_in, reduced, tab.depth)
        components[tab] = _mlp_load(
            _field(entry, "mlp", dict), f"component {tab.rows}", d_in, channels_out
        )
    if set(components) != set(all_basis_tableaux(order_out)):
        raise ValueError(f"components do not cover the basis tableaux of order {order_out}")
    divisors = {int(k): v for k, v in _field(doc, "depth_divisors", dict).items()}
    if set(divisors) != set(range(1, order_out + 1)) or any(
        type(v) is not int or v < 1 for v in divisors.values()
    ):
        raise ValueError(f"depth divisors {divisors} are not positive for depths 1..{order_out}")
    return EquivariantReyNet(
        n, order_in, channels_in, order_out, channels_out, components, reduced, divisors
    )


def _flat_load(doc) -> FlatNet:
    n, order_in, channels_in = (_positive(doc, k) for k in ("n", "order_in", "channels_in"))
    order_out = _field(doc, "order_out", int, type(None))
    if order_out is not None:
        order_out = _positive(doc, "order_out")
    channels_out = _positive(doc, "channels_out")
    d_out = channels_out if order_out is None else n**order_out * channels_out
    mlp = _mlp_load(_field(doc, "mlp", dict), "mlp", n**order_in * channels_in, d_out)
    return FlatNet(n, order_in, channels_in, order_out, channels_out, mlp)


def _invariant_load(doc) -> InvariantReyNet:
    body = _equivariant_load(_field(doc, "body", dict))
    pooling = _field(doc, "pooling", str)
    if pooling not in POOLINGS:
        raise ValueError(f"unknown pooling {pooling!r}, expected one of {POOLINGS}")
    width = pooled_width(body.order_out, body.channels_out, pooling)
    return InvariantReyNet(body, pooling, _mlp_load(_field(doc, "head", dict), "head", width, None))


def _model_doc(model) -> dict:
    if isinstance(model, FlatNet):
        return {
            "n": model.n,
            "order_in": model.order_in,
            "channels_in": model.channels_in,
            "order_out": model.order_out,
            "channels_out": model.channels_out,
            "mlp": _mlp_doc(model.params),
        }
    if isinstance(model, EquivariantReyNet):
        return _equivariant_doc(model)
    if isinstance(model, InvariantReyNet):
        return {
            "body": _equivariant_doc(model.body),
            "pooling": model.pooling,
            "head": _mlp_doc(model.head),
        }
    raise TypeError(f"unknown model type {type(model)!r}")


def save_checkpoint(path: str, bundle: ModelBundle) -> None:
    kind = kind_of(bundle.model)
    if bundle.kind != kind:
        raise ValueError(f"bundle kind {bundle.kind!r} does not match model ({kind!r})")
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "kind": kind,
        "task": bundle.task,
        "loss": bundle.loss,
        "n": bundle.n,
        "seed": bundle.seed,
        "hyper": bundle.hyper,
        "model": _model_doc(bundle.model),
    }
    with atomic_write(path) as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_checkpoint(path: str) -> ModelBundle:
    """Read and validate a checkpoint; any malformed content is a ValueError
    naming the file."""
    doc = read_json(path)
    try:
        return _bundle_load(doc)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _bundle_load(doc) -> ModelBundle:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ValueError("not a checkpoint file")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"version {doc.get('version')}, expected {FORMAT_VERSION}")
    kind = _field(doc, "kind", str)
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    mdoc = _field(doc, "model", dict)
    if kind == "fnn":
        model = _flat_load(mdoc)
    elif kind in ("reynet", "red-reynet"):
        model = _equivariant_load(mdoc)
    else:
        model = _invariant_load(mdoc)
    if kind_of(model) != kind:
        raise ValueError(f"kind {kind!r} does not match the model ({kind_of(model)!r})")
    return ModelBundle(
        kind,
        _field(doc, "task", str),
        _field(doc, "loss", str),
        _field(doc, "n"),
        _field(doc, "seed"),
        _field(doc, "hyper", dict),
        model,
    )
