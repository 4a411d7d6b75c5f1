"""Minimal dense networks: forward, exact reverse-mode gradients, AdamW.

Hidden layers are ReLU, the output layer is affine.  The ReLU derivative at 0
is taken to be 0.  All math is float64 numpy; inputs may carry any number of
leading batch axes as long as the last axis is the feature axis.
"""

from __future__ import annotations

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


def mlp_forward(params: MLPParams, x: np.ndarray) -> np.ndarray:
    h = np.asarray(x, dtype=np.float64)
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T
        h += b
        if k != last:
            np.maximum(h, 0.0, out=h)
    return h


def mlp_forward_cached(params: MLPParams, x: np.ndarray):
    """Forward pass keeping post-activation values for the backward pass."""
    h = np.asarray(x, dtype=np.float64)
    acts = [h]
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w.T
        h += b
        if k != last:
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return h, acts


def mlp_backward(params: MLPParams, acts: list[np.ndarray], upstream: np.ndarray):
    """Gradients of sum(upstream * output) w.r.t. parameters and input."""
    dz = np.asarray(upstream, dtype=np.float64)
    d_weights = [None] * len(params.weights)
    d_biases = [None] * len(params.biases)
    last = len(params.weights) - 1
    for k in range(last, -1, -1):
        if k != last:
            dz = dz * (acts[k + 1] > 0.0)
        a_prev = acts[k]
        flat_dz = dz.reshape(-1, dz.shape[-1])
        flat_a = a_prev.reshape(-1, a_prev.shape[-1])
        d_weights[k] = flat_dz.T @ flat_a
        d_biases[k] = flat_dz.sum(axis=0)
        dz = dz @ params.weights[k]
    return d_weights, d_biases, dz


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
