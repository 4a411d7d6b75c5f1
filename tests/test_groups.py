"""Permutations, cyclic factors, designs, and the stabilizer tiling."""

from itertools import permutations
from math import factorial

import numpy as np
import pytest

from reynet.groups import (
    BRUTE_FORCE_MAX_N,
    Permutation,
    compose,
    cyclic_group,
    design_inverses,
    enumerate_design,
    enumerate_symmetric,
    fixes_prefix,
    identity,
    invert,
    permute_indices,
    prefix_stabilizer,
)


def test_composition_applies_right_factor_first():
    g = Permutation(3, (2, 3, 1))
    h = Permutation(3, (1, 3, 2))
    # (g o h)(1) = g(h(1)) = g(1) = 2, etc.
    assert compose(g, h).image == (2, 1, 3)
    assert compose(h, g).image == (3, 2, 1)


def test_identity_and_inverse():
    for n in range(1, 6):
        e = identity(n)
        for g in enumerate_symmetric(n):
            assert compose(g, invert(g)) == e
            assert compose(invert(g), g) == e
            assert compose(g, e) == g


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation(3, (1, 1, 2))
    with pytest.raises(ValueError):
        Permutation(3, (1, 2))
    with pytest.raises(ValueError):
        Permutation(3, (0, 1, 2))


def test_permute_indices_applies_pointwise():
    g = Permutation(4, (3, 1, 4, 2))
    assert permute_indices(g, (1, 2, 2)) == (3, 1, 1)
    assert permute_indices(g, (4,)) == (2,)


def test_enumerate_symmetric_is_sorted_and_complete():
    for n in range(1, 6):
        elems = enumerate_symmetric(n)
        assert len(elems) == factorial(n)
        images = [g.image for g in elems]
        assert images == sorted(images)
        assert len(set(images)) == len(images)


def test_enumerate_symmetric_guards_brute_force_sizes():
    with pytest.raises(ValueError):
        enumerate_symmetric(BRUTE_FORCE_MAX_N + 1)


def test_cyclic_group_is_generated_by_one_cycle():
    for n in range(2, 7):
        for start in range(1, n + 1):
            elems = cyclic_group(n, start)
            assert len(elems) == n - start + 1
            assert elems[0] == identity(n)
            step = elems[1] if len(elems) > 1 else elems[0]
            acc = identity(n)
            for g in elems:
                assert g == acc
                assert all(g(i) == i for i in range(1, start))
                acc = compose(step, acc)


def test_design_size_is_falling_factorial():
    for n in range(2, 7):
        for depth in range(1, min(3, n) + 1):
            design = enumerate_design(n, depth)
            assert len(design) == factorial(n) // factorial(n - depth)
            assert design.elements[0] == identity(n)
            assert len(set(design.elements)) == len(design)


def test_design_reaches_every_leading_image_once():
    # The map g -> (g^{-1}(1), ..., g^{-1}(D)) is a bijection onto the
    # arrangements of D distinct points, checked exhaustively.
    for n in range(2, 7):
        for depth in range(1, min(3, n) + 1):
            design = enumerate_design(n, depth)
            seen = {tuple(invert(g)(d) for d in range(1, depth + 1)) for g in design.elements}
            assert len(seen) == len(design)
            assert seen == set(permutations(range(1, n + 1), depth))


def test_stabilizer_fixes_exactly_the_prefix():
    for n in range(2, 6):
        for depth in range(1, n + 1):
            stab = prefix_stabilizer(n, depth)
            assert len(stab) == factorial(n - depth)
            for s in stab:
                assert fixes_prefix(s, depth)
                assert all(s(i) == i for i in range(1, depth + 1))


def test_stabilizer_after_design_tiles_the_group():
    # Every permutation factors uniquely as (stabilizer element) o (design
    # element), so the |Stab| x |design| products cover S_n without repeats.
    for n in range(2, 6):
        for depth in range(1, min(3, n) + 1):
            design = enumerate_design(n, depth)
            stab = prefix_stabilizer(n, depth)
            products = {compose(s, h) for s in stab for h in design.elements}
            assert len(products) == factorial(n)
            assert products == set(enumerate_symmetric(n))


def test_design_guards_depth_and_size():
    with pytest.raises(ValueError):
        enumerate_design(3, 4)
    with pytest.raises(ValueError):
        enumerate_design(3, 0)


def _inverse_images(n, depth):
    design = enumerate_design(n, depth)
    return np.array([[v - 1 for v in invert(g).image] for g in design.elements])


@pytest.mark.parametrize("n", range(1, 9))
def test_design_inverses_follow_the_design_order(n):
    for depth in range(1, min(n, 4) + 1):
        assert np.array_equal(design_inverses(n, depth), _inverse_images(n, depth))


@pytest.mark.parametrize("n", [50, 100])
def test_design_inverses_at_large_n(n):
    inv = design_inverses(n, 2)
    assert inv.shape == (n * (n - 1), n) and not inv.flags.writeable
    assert np.array_equal(inv, _inverse_images(n, 2))


def test_design_inverses_reject_bad_depths():
    for depth in (0, 4):
        with pytest.raises(ValueError):
            design_inverses(3, depth)
