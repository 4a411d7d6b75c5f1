"""Young diagrams, basis tableaux, and the index-tuple bijection.

An index tuple u in [n]^m with D distinct values factors uniquely into a pair
(labels, shape): the shape is a basis tableau recording WHICH positions of u
share a value (a set partition of {1..m} written as rows), and the labels
record, row by row, the value each block carries.  Rows are sorted by length
descending, then by first entry ascending, which makes the shape independent
of the labels: relabeling u by any permutation g permutes the labels and
leaves the shape untouched.

Basis tableau conditions: rows strictly increasing, row lengths weakly
decreasing, and consecutive rows of equal length ordered by first entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groups import Permutation, compose, cyclic_group, identity


@dataclass(frozen=True)
class YoungDiagram:
    """A partition of m: weakly decreasing positive row lengths."""

    m: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if not self.rows or sum(self.rows) != self.m:
            raise ValueError(f"row lengths {self.rows} do not partition {self.m}")
        if any(k < 1 for k in self.rows):
            raise ValueError(f"nonpositive row length in {self.rows}")
        if any(self.rows[i] < self.rows[i + 1] for i in range(len(self.rows) - 1)):
            raise ValueError(f"row lengths not weakly decreasing: {self.rows}")

    @property
    def depth(self) -> int:
        return len(self.rows)


@lru_cache(maxsize=None)
def enum_young_diagrams(m: int) -> tuple[YoungDiagram, ...]:
    """All partitions of m in decreasing lexicographic order."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")

    def parts(total: int, cap: int):
        if total == 0:
            yield ()
            return
        for first in range(min(cap, total), 0, -1):
            for rest in parts(total - first, first):
                yield (first,) + rest

    return tuple(YoungDiagram(m, p) for p in parts(m, m))


@dataclass(frozen=True)
class BasisTableau:
    """A set partition of {1..m} in canonical row order."""

    m: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = [e for row in self.rows for e in row]
        if sorted(seen) != list(range(1, self.m + 1)):
            raise ValueError(f"rows {self.rows} do not partition 1..{self.m}")
        for row in self.rows:
            if any(row[i] >= row[i + 1] for i in range(len(row) - 1)):
                raise ValueError(f"row not strictly increasing: {row}")
        for a, b in zip(self.rows, self.rows[1:]):
            if len(a) < len(b):
                raise ValueError(f"row lengths increase in {self.rows}")
            if len(a) == len(b) and a[0] >= b[0]:
                raise ValueError(f"equal-length rows out of order in {self.rows}")

    @property
    def depth(self) -> int:
        return len(self.rows)

    @property
    def diagram(self) -> YoungDiagram:
        return YoungDiagram(self.m, tuple(len(r) for r in self.rows))


def _canonical_rows(blocks: list[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted(blocks, key=lambda r: (-len(r), r[0])))


@lru_cache(maxsize=None)
def enum_basis_tableaux(m: int, depth: int) -> tuple[BasisTableau, ...]:
    """All basis tableaux of m with the given number of rows.

    Set partitions are generated as restricted growth strings and the output
    is ordered lexicographically on the row concatenation.
    """
    if not 1 <= depth <= m:
        raise ValueError(f"depth {depth} out of range for m={m}")
    found = []

    def grow(pos: int, labels: list[int], used: int):
        if pos == m:
            if used == depth:
                blocks: list[list[int]] = [[] for _ in range(used)]
                for p, lab in enumerate(labels):
                    blocks[lab].append(p + 1)
                found.append(_canonical_rows([tuple(b) for b in blocks]))
            return
        for lab in range(min(used + 1, depth)):
            labels.append(lab)
            grow(pos + 1, labels, max(used, lab + 1))
            labels.pop()

    grow(0, [], 0)
    found.sort(key=lambda rows: tuple(e for row in rows for e in row))
    return tuple(BasisTableau(m, rows) for rows in found)


@lru_cache(maxsize=None)
def all_basis_tableaux(m: int) -> tuple[BasisTableau, ...]:
    """The full census for m: depth ascending, canonical order within depth."""
    out: list[BasisTableau] = []
    for depth in range(1, m + 1):
        out.extend(enum_basis_tableaux(m, depth))
    return tuple(out)


@dataclass(frozen=True)
class ExtendedTableau:
    """A basis tableau plus one distinct label per row, drawn from [n]."""

    n: int
    labels: tuple[int, ...]
    shape: BasisTableau

    def __post_init__(self):
        if len(self.labels) != self.shape.depth:
            raise ValueError(
                f"{len(self.labels)} labels for a depth-{self.shape.depth} shape"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"labels not distinct: {self.labels}")
        if any(not 1 <= j <= self.n for j in self.labels):
            raise ValueError(f"labels {self.labels} out of range for n={self.n}")


def tableau_to_indices(ext: ExtendedTableau) -> tuple[int, ...]:
    """Rebuild the index tuple: position p gets the label of the row holding p."""
    u = [0] * ext.shape.m
    for row, label in zip(ext.shape.rows, ext.labels):
        for pos in row:
            u[pos - 1] = label
    return tuple(u)


def indices_to_tableau(u: tuple[int, ...], n: int) -> ExtendedTableau:
    """Factor an index tuple into (labels, shape).  Inverse of the above."""
    if not u:
        raise ValueError("empty index tuple")
    if any(not 1 <= uk <= n for uk in u):
        raise ValueError(f"indices {u} out of range for n={n}")
    positions: dict[int, list[int]] = {}
    for pos, val in enumerate(u, start=1):
        positions.setdefault(val, []).append(pos)
    blocks = {val: tuple(pos) for val, pos in positions.items()}
    rows = _canonical_rows(list(blocks.values()))
    by_rows = {pos: val for val, pos in blocks.items()}
    labels = tuple(by_rows[row] for row in rows)
    return ExtendedTableau(n, labels, BasisTableau(len(u), rows))


def base_indices(tableau: BasisTableau) -> tuple[int, ...]:
    """The representative tuple with labels (1, ..., depth)."""
    depth = tableau.depth
    ext = ExtendedTableau(max(depth, tableau.m), tuple(range(1, depth + 1)), tableau)
    return tableau_to_indices(ext)


def normalizing_permutation(labels: tuple[int, ...], n: int) -> Permutation:
    """The unique design element sending label d to d for every row.

    Built factor by factor: the cycle on {d..n} has exactly one power moving
    the current image of labels[d-1] to d while fixing 1..d-1, so the product
    lands in enumerate_design(n, depth) by construction.
    """
    if len(set(labels)) != len(labels):
        raise ValueError(f"labels not distinct: {labels}")
    if any(not 1 <= j <= n for j in labels):
        raise ValueError(f"labels {labels} out of range for n={n}")
    g = identity(n)
    for d, label in enumerate(labels, start=1):
        x = g(label)
        order = n - d + 1
        power = (n + 1 - x) % order
        g = compose(cyclic_group(n, d)[power], g)
    return g
