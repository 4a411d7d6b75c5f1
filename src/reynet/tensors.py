"""Dense index tensors, the permutation action, and orbit bookkeeping.

A tensor of order L with a channels holds one real per (i_1, ..., i_L, alpha),
stored row-major in float64.  The symmetric group acts on index axes only:
(g . X)[i_1, ..., i_L, alpha] = X[g^-1(i_1), ..., g^-1(i_L), alpha].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .groups import Permutation, invert
from .tableaux import BasisTableau, all_basis_tableaux, base_indices, indices_to_tableau


@dataclass(frozen=True)
class DenseTensor:
    n: int
    order: int
    channels: int
    data: np.ndarray  # shape (n,)*order + (channels,), float64, C-contiguous

    def __post_init__(self):
        expect = (self.n,) * self.order + (self.channels,)
        if self.data.shape != expect:
            raise ValueError(f"data shape {self.data.shape}, expected {expect}")
        if not np.isfinite(self.data).all():
            raise ValueError("tensor entries must be finite")

    @property
    def flat(self) -> np.ndarray:
        """View as (n^order, channels)."""
        return self.data.reshape(-1, self.channels)


def flat_index(u: tuple[int, ...], n: int) -> int:
    """Row-major position of a 1-based index tuple."""
    idx = 0
    for uk in u:
        if not 1 <= uk <= n:
            raise ValueError(f"index {uk} out of range for n={n}")
        idx = idx * n + (uk - 1)
    return idx


def permute_tensor(g: Permutation, x: DenseTensor) -> DenseTensor:
    """The index action of g; order-0 tensors are fixed."""
    if g.n != x.n:
        raise ValueError(f"size mismatch: permutation on {g.n}, tensor on {x.n}")
    if x.order == 0:
        return DenseTensor(x.n, 0, x.channels, x.data.copy())
    inv0 = np.array([i - 1 for i in invert(g).image])
    axes = [inv0] * x.order + [np.arange(x.channels)]
    data = np.ascontiguousarray(x.data[np.ix_(*axes)])
    return DenseTensor(x.n, x.order, x.channels, data)


def basis_vector(u: tuple[int, ...], n: int) -> DenseTensor:
    """Single-channel indicator of one index tuple."""
    m = len(u)
    data = np.zeros((n,) * m + (1,))
    data[tuple(uk - 1 for uk in u) + (0,)] = 1.0
    return DenseTensor(n, m, 1, data)


def scatter(values: np.ndarray, u: tuple[int, ...], acc: DenseTensor) -> DenseTensor:
    """Add a channel vector at one index position, in place."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (acc.channels,):
        raise ValueError(f"values shape {values.shape}, expected ({acc.channels},)")
    acc.data[tuple(uk - 1 for uk in u)] += values
    return acc


@dataclass(frozen=True)
class OrbitTensor:
    """One channel vector per index orbit, keyed by basis tableau."""

    m: int
    channels: int
    tableaux: tuple[BasisTableau, ...]
    values: np.ndarray  # (len(tableaux), channels)


@lru_cache(maxsize=None)
def orbit_plan(n: int, m: int):
    """For each flat index of [n]^m: its orbit slot; plus per-orbit weights.

    Two tuples share an orbit exactly when they share a basis tableau shape,
    and a group sum counts every orbit member |stabilizer| = (n - depth)!
    times.
    """
    tableaux = all_basis_tableaux(m)
    slot = {t: k for k, t in enumerate(tableaux)}
    orbit_of = np.empty(n**m, dtype=np.int64)
    for flat, u0 in enumerate(np.ndindex(*(n,) * m)):
        u = tuple(i + 1 for i in u0)
        orbit_of[flat] = slot[indices_to_tableau(u, n).shape]
    weights = np.array([math.factorial(n - t.depth) for t in tableaux], dtype=np.float64)
    return tableaux, orbit_of, weights


def orbit_sum(x: DenseTensor) -> OrbitTensor:
    """Group-summed pooling: entry T = (n - depth)! * sum of x over orbit T.

    Matches the literal sum over all of S_n of x at g.u_T without enumerating
    the group.
    """
    tableaux, orbit_of, weights = orbit_plan(x.n, x.order)
    flat = x.flat
    sums = np.zeros((len(tableaux), x.channels))
    np.add.at(sums, orbit_of, flat)
    return OrbitTensor(x.order, x.channels, tableaux, sums * weights[:, None])


@lru_cache(maxsize=None)
def corner_rows(n: int, m: int) -> np.ndarray:
    """Flat rows of the representative tuples (labels 1..depth), census order."""
    if n < m:
        raise ValueError(f"corner components need n >= m, got n={n}, m={m}")
    return np.array(
        [flat_index(base_indices(t), n) for t in all_basis_tableaux(m)], dtype=np.int64
    )
