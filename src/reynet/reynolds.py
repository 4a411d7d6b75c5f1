"""Reynolds operators: full-group averages and their design-subset versions.

The equivariant average conjugates by the action, clause by clause:

    (1/|S|) * sum over g in S of  g^-1 . f(g . x)

and the invariant average drops the outer action.  Over the full group the
result is exactly equivariant (or invariant) whatever f is.  A design subset
reproduces the full average only for the maps it is built for, which is the
point: the depth-d design has n!/(n-d)! elements instead of n!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .groups import (
    Design,
    cyclic_group,
    enumerate_design,
    enumerate_symmetric,
    invert,
    prefix_stabilizer,
)
from .rng import CounterRng
from .tensors import DenseTensor, permute_tensor


@dataclass(frozen=True)
class VectorFunction:
    """A map between index tensors (or to a plain vector, order_out=None)."""

    n: int
    order_in: int
    channels_in: int
    order_out: int | None
    channels_out: int
    fn: Callable

    def __call__(self, x: DenseTensor):
        return self.fn(x)


def _as_output_tensor(f: VectorFunction, value) -> DenseTensor:
    if isinstance(value, DenseTensor):
        return value
    arr = np.asarray(value, dtype=np.float64)
    return DenseTensor(
        f.n, f.order_out, f.channels_out, arr.reshape((f.n,) * f.order_out + (f.channels_out,))
    )


def _as_output_vector(f: VectorFunction, value) -> np.ndarray:
    if isinstance(value, DenseTensor):
        return value.data.ravel()
    return np.asarray(value, dtype=np.float64).ravel()


def _equivariant_mean(f: VectorFunction, x: DenseTensor, elements) -> DenseTensor:
    acc = np.zeros((f.n,) * f.order_out + (f.channels_out,))
    for g in elements:
        y = _as_output_tensor(f, f(permute_tensor(g, x)))
        acc += permute_tensor(invert(g), y).data
    return DenseTensor(f.n, f.order_out, f.channels_out, acc / len(elements))


def _invariant_mean(f: VectorFunction, x: DenseTensor, elements) -> np.ndarray:
    acc = None
    for g in elements:
        v = _as_output_vector(f, f(permute_tensor(g, x)))
        acc = v if acc is None else acc + v
    return acc / len(elements)


def reynolds_equivariant(f: VectorFunction, x: DenseTensor) -> DenseTensor:
    """Full-group equivariant average, summed in lexicographic order."""
    if f.order_out is None:
        raise ValueError("equivariant average needs a tensor-valued map")
    return _equivariant_mean(f, x, enumerate_symmetric(f.n))


def reynolds_invariant(f: VectorFunction, x: DenseTensor) -> np.ndarray:
    """Full-group invariant average."""
    return _invariant_mean(f, x, enumerate_symmetric(f.n))


def reynolds_equivariant_design(f: VectorFunction, x: DenseTensor, design: Design) -> DenseTensor:
    """Equivariant average over a design subset, in design order."""
    if f.order_out is None:
        raise ValueError("equivariant average needs a tensor-valued map")
    if design.n != f.n:
        raise ValueError(f"design on {design.n} vs map on {f.n}")
    return _equivariant_mean(f, x, design.elements)


def reynolds_invariant_design(f: VectorFunction, x: DenseTensor, design: Design) -> np.ndarray:
    if design.n != f.n:
        raise ValueError(f"design on {design.n} vs map on {f.n}")
    return _invariant_mean(f, x, design.elements)


@dataclass(frozen=True)
class Polynomial:
    """Sparse sum of monomials over x_1..x_n: ((coeff, ((var, exp), ...)), ...)."""

    terms: tuple[tuple[float, tuple[tuple[int, int], ...]], ...]

    def __call__(self, x: np.ndarray) -> float:
        total = 0.0
        for coeff, powers in self.terms:
            v = coeff
            for var, exp in powers:
                v *= x[var - 1] ** exp
            total += v
        return total


def monomial(powers: dict[int, int], coeff: float = 1.0) -> Polynomial:
    return Polynomial(((coeff, tuple(sorted(powers.items()))),))


def _poly_function(n: int, p: Polynomial) -> VectorFunction:
    return VectorFunction(n, 1, 1, None, 1, lambda x: np.array([p(x.data[:, 0])]))


def decomposition_check(
    n: int, d: int, poly: Polynomial, trials: int = 5, seed: int = 0, tol: float = 1e-12
) -> bool:
    """Invariant average = design average of the prefix-stabilizer average.

    The depth-d design and the pointwise stabilizer of 1..d tile the group
    (every element splits uniquely as stabilizer-after-design), so averaging
    in two stages agrees with the single full average.  Checked pointwise on
    random inputs.
    """
    if not 1 <= d <= n:
        raise ValueError(f"depth {d} out of range for n={n}")
    f = _poly_function(n, poly)
    stab = prefix_stabilizer(n, d)
    design = enumerate_design(n, d)

    def stab_mean(x: DenseTensor) -> np.ndarray:
        return _invariant_mean(f, x, stab)

    staged = VectorFunction(n, 1, 1, None, 1, stab_mean)
    rng = CounterRng(seed)
    for _ in range(trials):
        x = DenseTensor(n, 1, 1, rng.uniform(-1.0, 1.0, n).reshape(n, 1))
        full = reynolds_invariant(f, x)
        two_stage = reynolds_invariant_design(staged, x, design)
        if np.max(np.abs(full - two_stage)) > tol:
            return False
    return True


@dataclass(frozen=True)
class GeneratorSet:
    """Polynomials whose design averages generate the invariant ring."""

    count: int
    variables: tuple[int, ...]
    generators: tuple[Polynomial, ...]


def power_sum_generators(n: int) -> GeneratorSet:
    """h_i = x_1^i for i = 1..n; averaging over the n-cycle design gives the
    power-sum means (1/n) * sum_k x_k^i."""
    gens = tuple(monomial({1: i}) for i in range(1, n + 1))
    return GeneratorSet(n, (1,), gens)


def generator_means(gens: GeneratorSet, x: np.ndarray) -> np.ndarray:
    """Design-averaged generator values at x (a length-n vector)."""
    n = len(x)
    xt = DenseTensor(n, 1, 1, np.asarray(x, dtype=np.float64).reshape(n, 1))
    design = Design(n, 1, cyclic_group(n, 1))
    return np.array(
        [reynolds_invariant_design(_poly_function(n, p), xt, design)[0] for p in gens.generators]
    )
