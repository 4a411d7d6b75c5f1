"""Equivariant and invariant networks built on Reynolds design averages.

The equivariant family keeps one small network per basis tableau of the
output order.  A forward pass walks depths in ascending order; for each
design element g of depth D it feeds the (g . X) gather to every depth-D
component and writes the result, divided by the design size, at the output
index obtained by relabeling the tableau representative with g^-1.  The
design's unique-normalization property means every output entry is written
exactly once, so for output order 2 a pass costs exactly n^2 component
evaluations instead of a factorial-size group sum.

Plan order: the forward emits its outputs in the order it computes them
(depth, then tableau in census order, then design element), and each
tableau's outputs are exactly its orbit of output entries.  Plan order is a
permutation of the row-major output, so training takes losses, pooling and
gradients on plan-order outputs against targets permuted once per dataset;
only ``forward_batch`` scatters to the dense output tensor.  The identity
leads every design, so the first column of each depth holds the
representative entries that corner training fits.

Reduction: components may read a fixed list of coordinates of (g . X)
instead of the whole tensor (gathered by index lookup, nothing is
materialized).  With coordinates drawn from {1, 2}^order the parameter count
does not depend on n, which is what makes cross-size transfer possible.
The per-depth averaging divisors are recorded at build time and survive
transfer unchanged; re-deriving them at the new size would rescale every
learned component by the ratio of design sizes.

The stab_restricted flag narrows depth-D components to coordinates indexed
entirely within 1..D.  Those gathers are fixed by the pointwise stabilizer
of 1..D, which upgrades the design average to the full-group average and
makes the network exactly equivariant (a generic component sees a design
gap; fresh models report it rather than hide it).
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial, perm
from typing import Callable, NamedTuple

import numpy as np

from .groups import design_inverses
from .nn import MLPParams, Workspace, init_params, mlp_backward, mlp_forward, mlp_forward_cached
from .rng import CounterRng
from .tableaux import BasisTableau, all_basis_tableaux, base_indices, enum_basis_tableaux
from .tensors import DenseTensor

POOLINGS = ("orbit_sum", "max_diag_offdiag")


@dataclass(frozen=True)
class ReducedSpec:
    """Which coordinates of the permuted input the components read."""

    coords: tuple[tuple[int, ...], ...]
    stab_restricted: bool = False

    def active(self, depth: int) -> tuple[tuple[int, ...], ...]:
        if not self.stab_restricted:
            return self.coords
        kept = tuple(c for c in self.coords if max(c) <= depth)
        if not kept:
            raise ValueError(f"no coordinates within 1..{depth} in {self.coords}")
        return kept


def default_reduced_spec(order_in: int, stab_restricted: bool = False) -> ReducedSpec:
    """All coordinates over {1, 2}: four entries for matrix input."""
    return ReducedSpec(tuple(itertools.product((1, 2), repeat=order_in)), stab_restricted)


@dataclass
class EquivariantReyNet:
    n: int
    order_in: int
    channels_in: int
    order_out: int
    channels_out: int
    components: dict[BasisTableau, MLPParams]
    reduced: ReducedSpec | None
    depth_divisors: dict[int, int]

    @property
    def tableaux(self) -> tuple[BasisTableau, ...]:
        return all_basis_tableaux(self.order_out)


def component_input_dim(
    n: int, order_in: int, channels_in: int, reduced: ReducedSpec | None, depth: int
) -> int:
    if reduced is None:
        return n**order_in * channels_in
    return len(reduced.active(depth)) * channels_in


def check_signature(n: int, order_in: int, order_out: int, reduced: ReducedSpec | None) -> None:
    """Raise ValueError unless an equivariant model of this shape can run at n."""
    if order_in < 1 or order_out < 1:
        raise ValueError("input and output orders must be at least 1")
    if n < order_out:
        raise ValueError(f"need n >= output order, got n={n}, order={order_out}")
    if reduced is not None:
        if not reduced.coords or any(len(c) != order_in or min(c) < 1 for c in reduced.coords):
            raise ValueError(f"reduced coordinates {reduced.coords} are not in [1..n]^{order_in}")
        top = max(max(c) for c in reduced.coords)
        if top > n:
            raise ValueError(f"reduced coordinate index {top} exceeds n={n}")


def build_equivariant(
    seed: int,
    n: int,
    order_in: int,
    channels_in: int,
    order_out: int,
    channels_out: int,
    widths: tuple[int, ...] = (128, 128),
    reduced: ReducedSpec | None = None,
) -> EquivariantReyNet:
    check_signature(n, order_in, order_out, reduced)
    components: dict[BasisTableau, MLPParams] = {}
    stream = CounterRng(seed)
    for k, tab in enumerate(all_basis_tableaux(order_out)):
        d_in = component_input_dim(n, order_in, channels_in, reduced, tab.depth)
        dims = (d_in,) + tuple(widths) + (channels_out,)
        components[tab] = init_params(stream.split(k).key, dims)
    divisors = {depth: perm(n, depth) for depth in range(1, order_out + 1)}
    return EquivariantReyNet(
        n, order_in, channels_in, order_out, channels_out, components, reduced, divisors
    )


@dataclass(frozen=True)
class _DepthPlan:
    depth: int
    gather: np.ndarray  # (|H|, d_in) flat positions into the input
    tableaux: tuple[BasisTableau, ...]
    rows: np.ndarray  # (len(tableaux), |H|) flat output rows
    by_row: np.ndarray  # per tableau: its design columns by ascending output row


def _row_major(inv: np.ndarray, tuples: np.ndarray, n: int) -> np.ndarray:
    """(|H|, len(tuples)) row-major positions of each 1-based index tuple
    relabeled by each design inverse, one row of `inv` per element."""
    flat = np.zeros((inv.shape[0], tuples.shape[0]), dtype=np.int64)
    for column in tuples.T:
        flat = flat * n + inv[:, column - 1]
    return flat


@lru_cache(maxsize=None)
def _forward_plan(
    n: int, order_in: int, channels_in: int, order_out: int, reduced: ReducedSpec | None
) -> tuple[_DepthPlan, ...]:
    plans = []
    for depth in range(1, order_out + 1):
        inv = design_inverses(n, depth)
        if reduced is None:
            coords = list(itertools.product(range(1, n + 1), repeat=order_in))
        else:
            coords = reduced.active(depth)
        pos = _row_major(inv, np.array(coords), n)
        gather = (pos[:, :, None] * channels_in + np.arange(channels_in)).reshape(len(inv), -1)
        tableaux = enum_basis_tableaux(order_out, depth)
        rows = _row_major(inv, np.array([base_indices(t) for t in tableaux]), n).T
        plans.append(_DepthPlan(depth, gather, tableaux, rows, np.argsort(rows, axis=1)))
    written = np.concatenate([p.rows.ravel() for p in plans])
    if not np.array_equal(np.sort(written), np.arange(n**order_out)):
        raise AssertionError("design scatter does not cover each output row once")
    return tuple(plans)


def _plan_for(model: EquivariantReyNet) -> tuple[_DepthPlan, ...]:
    return _forward_plan(
        model.n, model.order_in, model.channels_in, model.order_out, model.reduced
    )


def _columns(corner: bool) -> slice:
    """Design columns a forward evaluates: all, or the identity alone."""
    return slice(0, 1) if corner else slice(None)


def plan_rows(model: EquivariantReyNet, corner: bool = False) -> np.ndarray:
    """Row-major output row of each plan-order output.

    With `corner` these are the representative rows, ``tensors.corner_rows``.
    """
    cols = _columns(corner)
    return np.concatenate([p.rows[:, cols].ravel() for p in _plan_for(model)])


def plan_forward(
    model: EquivariantReyNet,
    flat_x: np.ndarray,
    corner: bool = False,
    cached: bool = False,
    count: list[int] | None = None,
    ws: Workspace | None = None,
):
    """(batch, n^order_in * channels_in) -> plan-order outputs and a cache.

    The outputs are (batch, rows, channels_out), row k holding output row
    ``plan_rows(model, corner)[k]``; `corner` evaluates only the identity
    column of each design.  The cache holds what ``backward_from_cache``
    needs when `cached` is set and is None otherwise; with `ws` it points
    into the workspace and lasts until the next forward.  `count`, when
    given, accumulates the number of component evaluations.
    """
    cols = _columns(corner)
    batch = flat_x.shape[0]
    outs, cache = [], []
    start = 0
    for plan in _plan_for(model):
        gather = plan.gather[cols]
        size = gather.shape[0]
        flat_in = flat_x[:, gather].reshape(batch * size, -1)
        scale = 1.0 / model.depth_divisors[plan.depth]
        for tab in plan.tableaux:
            comp = model.components[tab]
            if cached:
                v, acts = mlp_forward_cached(comp, flat_in, ws, tab)
                cache.append((tab, slice(start, start + size), scale, acts))
            else:
                v = mlp_forward(comp, flat_in, ws)
            if count is not None:
                count[0] += batch * size
            outs.append(v.reshape(batch, size, -1) * scale)
            start += size
    return np.concatenate(outs, axis=1), (cache if cached else None)


def backward_from_cache(
    model: EquivariantReyNet, cache, upstream: np.ndarray, ws: Workspace | None = None
) -> list[np.ndarray]:
    """Gradients of sum(upstream * plan-order outputs), one per parameter
    array in census order: each component's weights, then its biases."""
    grads = []
    for tab, rows, scale, acts in cache:
        up = upstream[:, rows, :] * scale
        dw, db, _ = mlp_backward(
            model.components[tab], acts, up.reshape(-1, up.shape[-1]), ws, input_grad=False
        )
        grads += dw + db
    return grads


def forward_batch(
    model: EquivariantReyNet,
    flat_x: np.ndarray,
    count: list[int] | None = None,
    ws: Workspace | None = None,
) -> np.ndarray:
    """(batch, n^order_in * channels_in) -> (batch, n^order_out, channels_out).

    The dense boundary: plan-order outputs scattered to row-major rows.
    `count`, when given, accumulates the number of component evaluations;
    `ws` holds the components' hidden layers.
    """
    z, _ = plan_forward(model, flat_x, count=count, ws=ws)
    y = np.empty_like(z)
    y[:, plan_rows(model), :] = z
    return y


def equivariant_forward(model: EquivariantReyNet, x: DenseTensor) -> DenseTensor:
    if (x.n, x.order, x.channels) != (model.n, model.order_in, model.channels_in):
        raise ValueError("input tensor does not match the model signature")
    y = forward_batch(model, x.data.reshape(1, -1))[0]
    return DenseTensor(
        model.n,
        model.order_out,
        model.channels_out,
        y.reshape((model.n,) * model.order_out + (model.channels_out,)),
    )


def transfer_n(model: EquivariantReyNet, n_new: int) -> EquivariantReyNet:
    """Re-enumerate designs at a new size, keeping parameters and divisors.

    Only reduced models transfer; a full gather's input width is tied to n.
    """
    if model.reduced is None:
        raise ValueError("only reduced models transfer across sizes")
    check_signature(n_new, model.order_in, model.order_out, model.reduced)
    return EquivariantReyNet(
        n_new,
        model.order_in,
        model.channels_in,
        model.order_out,
        model.channels_out,
        {tab: copy.deepcopy(comp) for tab, comp in model.components.items()},
        model.reduced,
        dict(model.depth_divisors),
    )


@dataclass
class InvariantReyNet:
    body: EquivariantReyNet
    pooling: str
    head: MLPParams


def pooled_width(order_out: int, channels_out: int, pooling: str) -> int:
    if pooling == "orbit_sum":
        return len(all_basis_tableaux(order_out)) * channels_out
    if pooling == "max_diag_offdiag":
        if order_out != 2:
            raise ValueError("max_diag_offdiag pooling needs an order-2 body")
        return 2 * channels_out
    raise ValueError(f"unknown pooling {pooling!r}, expected one of {POOLINGS}")


def build_invariant(
    seed: int,
    n: int,
    order_in: int,
    channels_in: int,
    body_order: int,
    body_channels: int,
    out_dim: int,
    widths: tuple[int, ...] = (128, 128),
    reduced: ReducedSpec | None = None,
    pooling: str = "max_diag_offdiag",
) -> InvariantReyNet:
    body = build_equivariant(
        seed, n, order_in, channels_in, body_order, body_channels, widths, reduced
    )
    width = pooled_width(body_order, body_channels, pooling)
    head = init_params(CounterRng(seed).split(10_000).key, (width,) + tuple(widths) + (out_dim,))
    return InvariantReyNet(body, pooling, head)


def _orbits(body: EquivariantReyNet):
    """Per census tableau: its depth, its plan-order output slice, and the
    slice's positions by ascending row-major output row."""
    start = 0
    for plan in _plan_for(body):
        size = plan.rows.shape[1]
        for by_row in plan.by_row:
            yield plan.depth, slice(start, start + size), by_row
            start += size


def _pool_forward(model: InvariantReyNet, z: np.ndarray):
    """Plan-order body outputs (batch, n^m, b) -> (batch, width), plus what
    backward needs.

    orbit_sum weights each orbit's sum by its stabilizer size (n - depth)!,
    as ``tensors.orbit_sum`` does.  max_diag_offdiag takes the max over the
    depth-1 outputs (the diagonal) and over the depth-2 ones; among equal
    maxima it picks the lowest row-major output row.
    """
    body = model.body
    if model.pooling == "orbit_sum":
        feats = [
            factorial(body.n - depth) * z[:, seg, :].sum(axis=1)
            for depth, seg, _ in _orbits(body)
        ]
        return np.concatenate(feats, axis=1), None
    feats, picks = [], []
    for _, seg, by_row in _orbits(body):
        pos = seg.start + by_row
        vals = z[:, pos, :]
        arg = np.argmax(vals, axis=1)
        feats.append(np.take_along_axis(vals, arg[:, None, :], axis=1)[:, 0, :])
        picks.append(pos[arg])
    return np.concatenate(feats, axis=1), picks


def _pool_backward(model: InvariantReyNet, picks, dfeats: np.ndarray) -> np.ndarray:
    """Upstream of the plan-order body outputs from that of the features."""
    body = model.body
    b = body.channels_out
    batch = dfeats.shape[0]
    shape = (batch, body.n**body.order_out, b)
    if model.pooling == "orbit_sum":
        dz = np.empty(shape)
        for k, (depth, seg, _) in enumerate(_orbits(body)):
            dz[:, seg, :] = (factorial(body.n - depth) * dfeats[:, k * b : (k + 1) * b])[:, None, :]
        return dz
    dz = np.zeros(shape)
    bi = np.arange(batch)[:, None]
    ci = np.arange(b)[None, :]
    for k, pick in enumerate(picks):
        np.add.at(dz, (bi, pick, ci), dfeats[:, k * b : (k + 1) * b])
    return dz


def invariant_forward_batch(
    model: InvariantReyNet, flat_x: np.ndarray, ws: Workspace | None = None
) -> np.ndarray:
    z, _ = plan_forward(model.body, flat_x, ws=ws)
    feats, _ = _pool_forward(model, z)
    return mlp_forward(model.head, feats, ws)


def invariant_forward(model: InvariantReyNet, x: DenseTensor) -> np.ndarray:
    body = model.body
    if (x.n, x.order, x.channels) != (body.n, body.order_in, body.channels_in):
        raise ValueError("input tensor does not match the model signature")
    return invariant_forward_batch(model, x.data.reshape(1, -1))[0]


def transfer_invariant(model: InvariantReyNet, n_new: int) -> InvariantReyNet:
    return InvariantReyNet(
        transfer_n(model.body, n_new), model.pooling, copy.deepcopy(model.head)
    )


@dataclass
class FlatNet:
    """Plain MLP on the flattened tensor; the non-equivariant baseline."""

    n: int
    order_in: int
    channels_in: int
    order_out: int | None
    channels_out: int
    params: MLPParams


def build_flat(
    seed: int,
    n: int,
    order_in: int,
    channels_in: int,
    order_out: int | None,
    channels_out: int,
    widths: tuple[int, ...] = (128, 128),
) -> FlatNet:
    d_in = n**order_in * channels_in
    d_out = channels_out if order_out is None else n**order_out * channels_out
    params = init_params(seed, (d_in,) + tuple(widths) + (d_out,))
    return FlatNet(n, order_in, channels_in, order_out, channels_out, params)


def flat_forward(model: FlatNet, x: DenseTensor):
    if (x.n, x.order, x.channels) != (model.n, model.order_in, model.channels_in):
        raise ValueError("input tensor does not match the model signature")
    out = mlp_forward(model.params, x.data.reshape(-1))
    if model.order_out is None:
        return out
    return DenseTensor(
        model.n,
        model.order_out,
        model.channels_out,
        out.reshape((model.n,) * model.order_out + (model.channels_out,)),
    )


class Trainable(NamedTuple):
    """A model's training path.

    ``forward(flat_x)`` returns (outputs, cache) and ``backward(cache,
    upstream)`` the gradients of sum(upstream * outputs), one per array of
    ``params`` and in the same order.
    """

    params: list[np.ndarray]
    forward: Callable
    backward: Callable


def _mlp_arrays(mlps) -> list[np.ndarray]:
    return [a for p in mlps for a in p.weights + p.biases]


def trainable(model, corner: bool = False, ws: Workspace | None = None) -> Trainable:
    """The training path of any model family.

    Equivariant outputs come in plan order, the representative entries only
    with `corner`; invariant and flat outputs are the evaluated ones.  With
    `ws`, every forward's cache lives in the workspace until the next
    forward, so each forward's backward must come before the next forward.
    """
    if isinstance(model, EquivariantReyNet):
        return Trainable(
            _mlp_arrays(model.components[t] for t in model.tableaux),
            lambda x: plan_forward(model, x, corner=corner, cached=True, ws=ws),
            lambda cache, up: backward_from_cache(model, cache, up, ws),
        )
    if corner:
        raise ValueError("corner outputs exist for equivariant models only")
    if isinstance(model, FlatNet):

        def flat_backward(acts, up):
            dw, db, _ = mlp_backward(model.params, acts, up, ws, input_grad=False)
            return dw + db

        return Trainable(
            _mlp_arrays([model.params]),
            lambda x: mlp_forward_cached(model.params, x, ws),
            flat_backward,
        )
    body = model.body

    def forward(x):
        z, body_cache = plan_forward(body, x, cached=True, ws=ws)
        feats, picks = _pool_forward(model, z)
        out, head_acts = mlp_forward_cached(model.head, feats, ws, "head")
        return out, (body_cache, picks, head_acts)

    def backward(cache, up):
        body_cache, picks, head_acts = cache
        dw, db, dfeats = mlp_backward(model.head, head_acts, up, ws)
        dz = _pool_backward(model, picks, dfeats)
        return backward_from_cache(body, body_cache, dz, ws) + dw + db

    return Trainable(
        _mlp_arrays([*(body.components[t] for t in body.tableaux), model.head]),
        forward,
        backward,
    )
