"""Permutations of {1..n}, cyclic factors, and Reynolds design enumeration,
as Permutation objects (the reference) and as index arrays (for plans).

Permutations are 1-based and stored in one-line notation.  Composition is
(g * h)(i) = g(h(i)), so the right factor acts first.  Brute-force walks over
the full symmetric group are refused beyond n = 8; factorial growth makes
larger n useless at desk scale, and the design subsets exist precisely so
nothing downstream needs them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BRUTE_FORCE_MAX_N = 8


@dataclass(frozen=True)
class Permutation:
    """Bijection on {1..n}; image[i - 1] = g(i)."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if len(self.image) != self.n or sorted(self.image) != list(range(1, self.n + 1)):
            raise ValueError(f"not a bijection on 1..{self.n}: {self.image}")

    def __call__(self, i: int) -> int:
        return self.image[i - 1]


def identity(n: int) -> Permutation:
    return Permutation(n, tuple(range(1, n + 1)))


def compose(g: Permutation, h: Permutation) -> Permutation:
    """g after h: result(i) = g(h(i))."""
    if g.n != h.n:
        raise ValueError(f"size mismatch: {g.n} vs {h.n}")
    return Permutation(g.n, tuple(g.image[h.image[i] - 1] for i in range(g.n)))


def invert(g: Permutation) -> Permutation:
    image = [0] * g.n
    for i, v in enumerate(g.image):
        image[v - 1] = i + 1
    return Permutation(g.n, tuple(image))


def permute_indices(g: Permutation, u: tuple[int, ...]) -> tuple[int, ...]:
    """Apply g to every entry of an index tuple."""
    return tuple(g.image[uk - 1] for uk in u)


def fixes_prefix(g: Permutation, d: int) -> bool:
    """True when g(i) = i for all i <= d."""
    if not 0 <= d <= g.n:
        raise ValueError(f"prefix length {d} out of range for n={g.n}")
    return all(g.image[i] == i + 1 for i in range(d))


@lru_cache(maxsize=None)
def cyclic_group(n: int, start: int) -> tuple[Permutation, ...]:
    """Powers of the forward cycle start -> start+1 -> ... -> n -> start.

    Indices below start are fixed; the group has order n - start + 1 and is
    returned as (c^0, c^1, ..., c^(n-start)).
    """
    if not 1 <= start <= n:
        raise ValueError(f"start {start} out of range for n={n}")
    cycle = Permutation(
        n,
        tuple(
            i + 1 if start <= i < n else (start if i == n else i)
            for i in range(1, n + 1)
        ),
    )
    elements = [identity(n)]
    for _ in range(n - start):
        elements.append(compose(cycle, elements[-1]))
    return tuple(elements)


@dataclass(frozen=True)
class Design:
    """A Reynolds design for depth-d index tuples: a subset of S_n whose
    average reproduces the full-group average on the maps it is built for."""

    n: int
    depth: int
    elements: tuple[Permutation, ...]

    def __len__(self) -> int:
        return len(self.elements)


@lru_cache(maxsize=None)
def enumerate_design(n: int, depth: int) -> Design:
    """The design H_depth = {sigma_depth * ... * sigma_1 | sigma_d in C_d}.

    C_d here is cyclic_group(n, d), so sigma_1 runs over the full n-cycle and
    is applied first.  Elements are ordered lexicographically by the exponent
    tuple (p_1, ..., p_depth) of the cyclic factors.  |H_depth| = n!/(n-depth)!
    and the map g -> (g^-1(1), ..., g^-1(depth)) hits every tuple of distinct
    indices exactly once, which is what makes the subset a design.
    """
    if not 1 <= depth <= n:
        raise ValueError(f"depth {depth} out of range for n={n}")
    factors = [cyclic_group(n, d) for d in range(1, depth + 1)]
    elements = []
    for powers in itertools.product(*[range(len(f)) for f in factors]):
        g = factors[0][powers[0]]
        for d in range(1, depth):
            g = compose(factors[d][powers[d]], g)
        elements.append(g)
    return Design(n, depth, tuple(elements))


@lru_cache(maxsize=None)
def design_inverses(n: int, depth: int) -> np.ndarray:
    """0-based images of g^-1 for the elements g of enumerate_design(n, depth).

    Row k equals ``invert(enumerate_design(n, depth).elements[k]).image``
    minus one, built by index arithmetic: g^-1 = sigma_1^-1 * ... *
    sigma_depth^-1, so each depth d extends every row so far by each power
    of the inverse cycle on {d..n}, the power varying fastest as in the
    design's order.  The array is shared between callers and read-only.
    """
    if not 1 <= depth <= n:
        raise ValueError(f"depth {depth} out of range for n={n}")
    inv = np.arange(n)[None, :]
    for start in range(depth):
        size = n - start
        shifts = np.tile(np.arange(n), (size, 1))
        shifts[:, start:] = start + (np.arange(size) - np.arange(size)[:, None]) % size
        inv = inv[:, shifts].reshape(-1, n)
    inv.flags.writeable = False
    return inv


def enumerate_symmetric(n: int) -> tuple[Permutation, ...]:
    """All of S_n in lexicographic one-line order.  Guarded: n! terms."""
    if n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"refusing to enumerate S_{n} ({math.factorial(n)} elements); "
            f"full-group walks are capped at n={BRUTE_FORCE_MAX_N}"
        )
    return tuple(Permutation(n, p) for p in itertools.permutations(range(1, n + 1)))


def prefix_stabilizer(n: int, d: int) -> tuple[Permutation, ...]:
    """Permutations fixing 1..d pointwise, in lexicographic order."""
    return tuple(g for g in enumerate_symmetric(n) if fixes_prefix(g, d))
