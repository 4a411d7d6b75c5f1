"""Index tensors: the permutation action, flat layout, orbit sums, corners."""

from itertools import product
from math import factorial

import numpy as np
import pytest

from reynet.groups import Permutation, compose, enumerate_symmetric, identity, permute_indices
from reynet.tableaux import all_basis_tableaux, base_indices
from reynet.tensors import (
    DenseTensor,
    basis_vector,
    corner_rows,
    flat_index,
    orbit_sum,
    permute_tensor,
    scatter,
)


def rand_tensor(n, order, channels, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n,) * order + (channels,))
    return DenseTensor(n, order, channels, data)


def test_flat_index_is_row_major():
    n = 4
    for m in (1, 2, 3):
        for k, u in enumerate(product(range(1, n + 1), repeat=m)):
            assert flat_index(u, n) == k


def test_permute_tensor_reads_inverse_images():
    # (g . X)[i, j] = X[g^-1(i), g^-1(j)], spelled out for one permutation.
    g = Permutation(3, (2, 3, 1))  # g: 1->2, 2->3, 3->1 so g^-1: 1->3, 2->1, 3->2
    x = DenseTensor(3, 2, 1, np.arange(9.0).reshape(3, 3, 1))
    y = permute_tensor(g, x)
    for i in range(1, 4):
        for j in range(1, 4):
            gi = {1: 3, 2: 1, 3: 2}[i]
            gj = {1: 3, 2: 1, 3: 2}[j]
            assert y.data[i - 1, j - 1, 0] == x.data[gi - 1, gj - 1, 0]


def test_permute_tensor_is_a_group_action():
    x = rand_tensor(4, 2, 2, seed=0)
    e = identity(4)
    assert np.array_equal(permute_tensor(e, x).data, x.data)
    for g in enumerate_symmetric(4)[:8]:
        for h in enumerate_symmetric(4)[5:12]:
            once = permute_tensor(compose(g, h), x)
            twice = permute_tensor(g, permute_tensor(h, x))
            assert np.allclose(once.data, twice.data)


def test_permute_tensor_moves_basis_vectors():
    n = 4
    for g in enumerate_symmetric(n)[:10]:
        for u in [(1, 2), (3, 3), (2, 4)]:
            moved = permute_tensor(g, basis_vector(u, n))
            expected = basis_vector(permute_indices(g, u), n)
            assert np.array_equal(moved.data, expected.data)


def test_dense_tensor_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        DenseTensor(3, 2, 1, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        DenseTensor(3, 2, 1, np.full((3, 3, 1), np.nan))


def test_scatter_accumulates_in_place():
    acc = DenseTensor(3, 2, 2, np.zeros((3, 3, 2)))
    scatter(np.array([1.0, 2.0]), (2, 3), acc)
    scatter(np.array([0.5, 0.5]), (2, 3), acc)
    assert acc.data[1, 2].tolist() == [1.5, 2.5]
    assert np.count_nonzero(acc.data) == 2


def test_orbit_sum_matrix_case():
    # For n = 2, m = 2 the two orbits collect the diagonal and off-diagonal.
    x = DenseTensor(2, 2, 1, np.array([[[1.0], [2.0]], [[3.0], [4.0]]]))
    pooled = orbit_sum(x)
    by_rows = {t.rows: v[0] for t, v in zip(pooled.tableaux, pooled.values)}
    assert by_rows[((1, 2),)] == 1.0 + 4.0  # x11 + x22
    assert by_rows[((1,), (2,))] == 2.0 + 3.0  # x12 + x21


def test_orbit_sum_equals_literal_group_sum():
    for n in (2, 3, 4):
        for m in (1, 2):
            x = rand_tensor(n, m, 2, seed=10 * n + m)
            pooled = orbit_sum(x)
            for tab, value in zip(pooled.tableaux, pooled.values):
                u = base_indices(tab)
                if tab.depth > n:
                    continue
                literal = np.zeros(2)
                for g in enumerate_symmetric(n):
                    v = permute_indices(g, u)
                    literal += x.data[tuple(i - 1 for i in v)]
                assert np.allclose(value, literal, atol=1e-12)


def test_orbit_sum_weight_is_stabilizer_size():
    # Each orbit member is hit by (n - depth)! group elements.
    n, m = 4, 2
    x = rand_tensor(n, m, 1, seed=3)
    pooled = orbit_sum(x)
    for tab, value in zip(pooled.tableaux, pooled.values):
        members = {
            permute_indices(g, base_indices(tab)) for g in enumerate_symmetric(n)
        }
        plain = sum(x.data[tuple(i - 1 for i in u)][0] for u in members)
        assert value[0] == pytest.approx(factorial(n - tab.depth) * plain, rel=1e-12)


def test_orbit_sum_is_invariant():
    x = rand_tensor(4, 2, 3, seed=7)
    base = orbit_sum(x)
    for g in enumerate_symmetric(4):
        moved = orbit_sum(permute_tensor(g, x))
        assert moved.tableaux == base.tableaux
        assert np.allclose(moved.values, base.values, atol=1e-12)


def test_corner_rows_are_representative_entries():
    # Census order for matrices: the joined orbit first (entry x11), then the
    # split orbit (entry x12), at any size.
    for n in (2, 3, 5, 10):
        assert corner_rows(n, 2).tolist() == [0, 1]
    assert corner_rows(3, 1).tolist() == [0]
    rows = corner_rows(4, 3)
    tabs = all_basis_tableaux(3)
    assert rows.tolist() == [flat_index(base_indices(t), 4) for t in tabs]


def test_corner_rows_need_enough_indices():
    with pytest.raises(ValueError):
        corner_rows(2, 3)
