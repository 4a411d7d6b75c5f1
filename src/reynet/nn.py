"""Minimal dense networks: forward, exact reverse-mode gradients, AdamW.

Hidden layers are ReLU, the output layer is affine.  The ReLU derivative at 0
is taken to be 0.  All math is float64 numpy; inputs may carry any number of
leading batch axes as long as the last axis is the feature axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import CounterRng


@dataclass
class MLPParams:
    dims: tuple[int, ...]
    weights: list[np.ndarray]  # layer k: (dims[k+1], dims[k])
    biases: list[np.ndarray]  # layer k: (dims[k+1],)


def init_params(seed: int, dims: tuple[int, ...]) -> MLPParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases.

    Layer k draws its weight matrix row-major from child stream k of the
    seed, so init is reproducible entry by entry.
    """
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"bad layer sizes: {dims}")
    rng = CounterRng(seed)
    weights, biases = [], []
    for k in range(len(dims) - 1):
        fan_in, fan_out = dims[k], dims[k + 1]
        bound = 1.0 / np.sqrt(fan_in)
        draw = rng.split(k).uniform(-bound, bound, fan_out * fan_in)
        weights.append(draw.reshape(fan_out, fan_in))
        biases.append(np.zeros(fan_out))
    return MLPParams(tuple(dims), weights, biases)


class Workspace:
    """Scratch arrays reused from one call to the next.

    A training run or an evaluation owns one, so that its hidden activations,
    backward upstreams and ReLU masks are written into the same few buffers
    on every micro-batch instead of into fresh arrays that the allocator
    maps in and hands back to the kernel each time.  ``array`` returns a
    C-contiguous view of the key's buffer, grown when the shape needs more
    room, holding whatever its last user left there.  No array handed back
    to a caller of the package may be such a view.
    """

    def __init__(self) -> None:
        self._buffers: dict = {}

    def array(self, key, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size, dtype)
        return buf[:size].reshape(shape)


def _scratch(ws: Workspace | None, key, shape, dtype=np.float64) -> np.ndarray | None:
    """A workspace view to write into, or None for a fresh array."""
    return None if ws is None else ws.array(key, shape, dtype)


def _layers(params: MLPParams, x: np.ndarray, ws: Workspace | None, slot, acts: list | None):
    h = np.asarray(x, dtype=np.float64)
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        # the output layer is the caller's, so it never lands in the workspace
        out = None if k == last else _scratch(ws, ("h", slot, k), h.shape[:-1] + (w.shape[0],))
        h = np.matmul(h, w.T, out=out)
        h += b
        if k != last:
            np.maximum(h, 0.0, out=h)
        if acts is not None:
            acts.append(h)
    return h


def mlp_forward(params: MLPParams, x: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """Output of the MLP; with `ws`, hidden layers are written into it."""
    return _layers(params, x, ws, None, None)


def mlp_forward_cached(params: MLPParams, x: np.ndarray, ws: Workspace | None = None, slot=None):
    """Forward pass keeping post-activation values for the backward pass.

    With `ws` the hidden activations live in its buffers for `slot`, so they
    hold until the next forward with the same slot.
    """
    acts = [np.asarray(x, dtype=np.float64)]
    return _layers(params, x, ws, slot, acts), acts


def mlp_backward(
    params: MLPParams,
    acts: list[np.ndarray],
    upstream: np.ndarray,
    ws: Workspace | None = None,
    input_grad: bool = True,
):
    """Gradients of sum(upstream * output) w.r.t. parameters and input.

    The input gradient is None unless `input_grad`, which saves a matmul
    over every row.  The ReLU mask is applied in place; with `ws`, the
    hidden layers' upstreams and the mask are written into its buffers.
    """
    dz = np.asarray(upstream, dtype=np.float64)
    d_weights = [None] * len(params.weights)
    d_biases = [None] * len(params.biases)
    last = len(params.weights) - 1
    for k in range(last, -1, -1):
        if k != last:
            # dz is a product made below, never the caller's upstream
            mask = _scratch(ws, "mask", dz.shape, bool)
            np.multiply(dz, np.greater(acts[k + 1], 0.0, out=mask), out=dz)
        a_prev = acts[k]
        flat_dz = dz.reshape(-1, dz.shape[-1])
        flat_a = a_prev.reshape(-1, a_prev.shape[-1])
        d_weights[k] = flat_dz.T @ flat_a
        d_biases[k] = flat_dz.sum(axis=0)
        if k == 0:
            # the input gradient goes to the caller: a fresh array
            dx = dz @ params.weights[0] if input_grad else None
        else:
            w = params.weights[k]
            dz = np.matmul(dz, w, out=_scratch(ws, ("dz", k), dz.shape[:-1] + (w.shape[1],)))
    return d_weights, d_biases, dx


@dataclass
class AdamState:
    step: int
    lr: float
    weight_decay: float
    beta1: float
    beta2: float
    eps: float
    m: list[np.ndarray]  # first moments, one per parameter array
    v: list[np.ndarray]  # second moments


def init_adam(
    params: list[np.ndarray],
    lr: float = 1e-3,
    weight_decay: float = 1e-5,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> AdamState:
    """Optimizer state for a flat list of parameter arrays."""
    return AdamState(
        0,
        lr,
        weight_decay,
        beta1,
        beta2,
        eps,
        [np.zeros_like(p) for p in params],
        [np.zeros_like(p) for p in params],
    )


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    """Decoupled weight decay, then Adam with bias correction.  In place."""
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    for p, g, m, v in zip(params, grads, state.m, state.v, strict=True):
        p -= state.lr * state.weight_decay * p
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def mse_loss(prediction: np.ndarray, target: np.ndarray):
    """Mean squared error over every entry, with its exact gradient."""
    diff = prediction - target
    value = float(np.mean(np.square(diff)))
    grad = (2.0 / diff.size) * diff
    return value, grad
