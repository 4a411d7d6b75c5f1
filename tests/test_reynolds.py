"""Group averages, design averages, staged decomposition, and generators."""

from math import factorial

import numpy as np
import pytest

from reynet.groups import enumerate_design, enumerate_symmetric
from reynet.reynolds import (
    Polynomial,
    VectorFunction,
    decomposition_check,
    generator_means,
    monomial,
    power_sum_generators,
    reynolds_equivariant,
    reynolds_equivariant_design,
    reynolds_invariant,
    reynolds_invariant_design,
)
from reynet.tensors import DenseTensor, permute_tensor


def vec(values):
    arr = np.asarray(values, dtype=np.float64)
    return DenseTensor(len(arr), 1, 1, arr.reshape(-1, 1))


def test_equivariant_average_of_coordinate_square():
    # f(x) = (x_1^2, 0) on two points averages to (x_1^2 / 2, x_2^2 / 2).
    f = VectorFunction(2, 1, 1, 1, 1, lambda x: np.array([[x.data[0, 0] ** 2], [0.0]]))
    out = reynolds_equivariant(f, vec([3.0, 5.0]))
    assert out.data[:, 0].tolist() == [4.5, 12.5]


def test_equivariant_average_is_equivariant():
    rng = np.random.default_rng(0)
    w = rng.standard_normal((9, 9))

    def fn(x):
        return (w @ x.data.reshape(-1)).reshape(3, 3, 1)

    f = VectorFunction(3, 2, 1, 2, 1, fn)
    x = DenseTensor(3, 2, 1, rng.standard_normal((3, 3, 1)))
    y = reynolds_equivariant(f, x)
    for g in enumerate_symmetric(3):
        lhs = reynolds_equivariant(f, permute_tensor(g, x))
        assert np.allclose(lhs.data, permute_tensor(g, y).data, atol=1e-12)


def test_invariant_average_is_invariant():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((2, 16))

    def fn(x):
        return w @ x.data.reshape(-1)

    f = VectorFunction(4, 2, 1, None, 2, fn)
    x = DenseTensor(4, 2, 1, rng.standard_normal((4, 4, 1)))
    y = reynolds_invariant(f, x)
    for g in enumerate_symmetric(4):
        assert np.allclose(reynolds_invariant(f, permute_tensor(g, x)), y, atol=1e-12)


def test_invariant_average_of_first_coordinate_is_the_mean():
    f = VectorFunction(5, 1, 1, None, 1, lambda x: np.array([x.data[0, 0]]))
    x = vec([2.0, 4.0, 6.0, 8.0, 10.0])
    assert reynolds_invariant(f, x)[0] == pytest.approx(6.0, rel=1e-15)
    design = enumerate_design(5, 1)
    assert reynolds_invariant_design(f, x, design)[0] == pytest.approx(6.0, rel=1e-15)


def test_design_average_needs_matching_size():
    f = VectorFunction(3, 1, 1, None, 1, lambda x: np.array([x.data[0, 0]]))
    with pytest.raises(ValueError):
        reynolds_invariant_design(f, vec([1.0, 2.0, 3.0]), enumerate_design(4, 1))


def design_gaps(f, trials=10):
    """Design vs full-group invariant averages on random inputs."""
    rng = np.random.default_rng(0)
    design = enumerate_design(f.n, 1)
    gaps = []
    for _ in range(trials):
        x = vec(rng.uniform(-1.0, 1.0, f.n))
        full = reynolds_invariant(f, x)
        gaps.append(float(np.max(np.abs(full - reynolds_invariant_design(f, x, design)))))
    return gaps


def test_design_average_reproduces_a_design_function():
    # First-coordinate maps are exactly what a depth-1 design reproduces.
    f = VectorFunction(4, 1, 1, None, 1, lambda x: np.array([x.data[0, 0] ** 3]))
    assert max(design_gaps(f)) <= 1e-9


def test_design_average_misses_a_generic_function():
    # A map reading a coordinate past the design depth is not reproduced.
    f = VectorFunction(4, 1, 1, None, 1, lambda x: np.array([x.data[0, 0] * x.data[1, 0]]))
    assert max(design_gaps(f)) > 1e-3


def test_polynomial_evaluation_and_monomial():
    p = Polynomial(((2.0, ((1, 2),)), (-1.0, ((2, 1), (3, 1)))))
    x = np.array([2.0, 3.0, 4.0])
    assert p(x) == pytest.approx(2.0 * 4.0 - 12.0)
    q = monomial({2: 3}, coeff=0.5)
    assert q(x) == pytest.approx(0.5 * 27.0)


def test_decomposition_agrees_for_monomials():
    for n in (3, 4, 5):
        for d in (1, 2):
            assert decomposition_check(n, d, monomial({1: 2}), trials=3, seed=1)
            assert decomposition_check(n, d, monomial({1: 1, 2: 2}), trials=3, seed=2)
            assert decomposition_check(n, d, monomial({min(n, 3): 2}), trials=3, seed=3)


def test_decomposition_depth_bounds():
    with pytest.raises(ValueError):
        decomposition_check(3, 0, monomial({1: 1}))
    with pytest.raises(ValueError):
        decomposition_check(3, 4, monomial({1: 1}))


def test_power_sum_generator_count_and_means():
    for n in (2, 3, 5):
        gens = power_sum_generators(n)
        assert gens.count == n
        assert gens.variables == (1,)
        x = np.linspace(0.5, 2.0, n)
        means = generator_means(gens, x)
        for i in range(1, n + 1):
            assert means[i - 1] == pytest.approx(np.mean(x**i), rel=1e-13)


def test_power_sum_means_match_full_group_average():
    n = 4
    x = np.array([0.3, -1.2, 2.5, 0.9])
    xt = DenseTensor(n, 1, 1, x.reshape(n, 1))
    gens = power_sum_generators(n)
    means = generator_means(gens, x)
    for i, poly in enumerate(gens.generators):
        f = VectorFunction(n, 1, 1, None, 1, lambda t, p=poly: np.array([p(t.data[:, 0])]))
        assert reynolds_invariant(f, xt)[0] == pytest.approx(means[i], abs=1e-13)


def test_full_average_splits_through_the_stabilizer():
    # Averaging over the whole group in one pass equals averaging over the
    # prefix stabilizer first and the design second, element by element.
    n, d = 4, 2
    rng = np.random.default_rng(6)
    w = rng.standard_normal(n * n)

    def fn(x):
        return np.array([w @ x.data.reshape(-1) + x.data[0, 0, 0] * x.data[1, 1, 0]])

    f = VectorFunction(n, 2, 1, None, 1, fn)
    x = DenseTensor(n, 2, 1, rng.standard_normal((n, n, 1)))
    whole = reynolds_invariant(f, x)

    from reynet.groups import prefix_stabilizer

    stab = prefix_stabilizer(n, d)

    def staged_fn(t):
        acc = np.zeros(1)
        for s in stab:
            acc += fn(permute_tensor(s, t))
        return acc / len(stab)

    staged = VectorFunction(n, 2, 1, None, 1, staged_fn)
    design = enumerate_design(n, d)
    assert np.allclose(
        reynolds_invariant_design(staged, x, design), whole, atol=1e-12
    )


def test_design_sizes_match_group_order_ratio():
    for n in (3, 4, 5, 6):
        for d in (1, 2, 3):
            design = enumerate_design(n, d)
            assert len(design) * factorial(n - d) == factorial(n)
