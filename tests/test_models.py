"""Equivariant networks: plans, reductions, corners, pooling, and transfer."""

from itertools import product
from math import factorial

import numpy as np
import pytest

from reynet.groups import enumerate_design, enumerate_symmetric, invert
from reynet.models import (
    EquivariantReyNet,
    ReducedSpec,
    _forward_plan,
    _pool_backward,
    _pool_forward,
    build_equivariant,
    build_flat,
    build_invariant,
    component_input_dim,
    default_reduced_spec,
    equivariant_forward,
    flat_forward,
    forward_batch,
    invariant_forward,
    invariant_forward_batch,
    plan_forward,
    plan_rows,
    pooled_width,
    transfer_invariant,
    transfer_n,
)
from reynet.nn import MLPParams, mlp_forward
from reynet.reynolds import reynolds_equivariant, reynolds_invariant
from reynet.rng import CounterRng
from reynet.tableaux import (
    ExtendedTableau,
    all_basis_tableaux,
    base_indices,
    enum_basis_tableaux,
    tableau_to_indices,
)
from reynet.tensors import (
    DenseTensor,
    basis_vector,
    corner_rows,
    flat_index,
    orbit_sum,
    permute_tensor,
)


def rand_input(n, order=2, channels=1, seed=0):
    shape = (n,) * order + (channels,)
    data = CounterRng(seed).uniform(-1.0, 1.0, int(np.prod(shape))).reshape(shape)
    return DenseTensor(n, order, channels, data)


def constant_component(d_in, value):
    """One affine layer with zero weights: outputs `value` on any input."""
    return MLPParams((d_in, 1), [np.zeros((1, d_in))], [np.array([value])])


def constant_model(n, c_joined, c_split):
    tabs = all_basis_tableaux(2)
    components = {
        tabs[0]: constant_component(n * n, c_joined),
        tabs[1]: constant_component(n * n, c_split),
    }
    divisors = {d: len(enumerate_design(n, d)) for d in (1, 2)}
    return EquivariantReyNet(n, 2, 1, 2, 1, components, None, divisors)


def test_constant_components_average_onto_orbits():
    # With components returning constants c1 (joined) and c2 (split), every
    # design element scatters the same value, so each diagonal entry gets
    # c1/|H_1| summed |H_1|/n ... the closed form at n = 2 is c1/2 on the
    # diagonal and c2/2 off it.
    model = constant_model(2, 7.0, 3.0)
    y = equivariant_forward(model, rand_input(2, seed=1))
    assert np.allclose(y.data[:, :, 0], [[3.5, 1.5], [1.5, 3.5]])


def test_constant_model_output_is_orbit_constant():
    model = constant_model(3, 2.0, 5.0)
    y = equivariant_forward(model, rand_input(3, seed=2)).data[:, :, 0]
    diag = np.diag(y)
    off = y[~np.eye(3, dtype=bool)]
    assert np.allclose(diag, diag[0])
    assert np.allclose(off, off[0])
    # depth-1 design has n elements but only the identity row is the
    # representative; the diagonal value is c1 * n / |H_1| / n = c1 / n.
    assert diag[0] == pytest.approx(2.0 / 3.0 * 1.0)


def test_component_input_dim_shrinks_with_reduction():
    assert component_input_dim(10, 2, 1, None, 1) == 100
    spec = default_reduced_spec(2)
    assert component_input_dim(10, 2, 1, spec, 1) == 4
    assert component_input_dim(10, 2, 3, spec, 2) == 12
    restricted = default_reduced_spec(2, stab_restricted=True)
    assert component_input_dim(10, 2, 1, restricted, 1) == 1
    assert component_input_dim(10, 2, 1, restricted, 2) == 4


def test_reduced_spec_restriction_filters_coordinates():
    spec = default_reduced_spec(2, stab_restricted=True)
    assert spec.active(1) == ((1, 1),)
    assert set(spec.active(2)) == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_forward_covers_each_output_row_once():
    # Every output row is written by exactly one (depth, design element)
    # pair, so all-ones components give 1/|H_1| on the diagonal and 1/|H_2|
    # off it, with nothing doubled or skipped.
    for n in (2, 3, 4):
        model = constant_model(n, 1.0, 1.0)
        y = equivariant_forward(model, rand_input(n, seed=3)).data[:, :, 0]
        expected = np.full((n, n), 1.0 / len(enumerate_design(n, 2)))
        np.fill_diagonal(expected, 1.0 / len(enumerate_design(n, 1)))
        assert np.allclose(y, expected)


def reference_plan(n, order_in, channels_in, order_out, reduced):
    """Per depth, (gather, rows) built one design element at a time: g^-1
    relabels every gathered coordinate and every tableau representative."""
    plans = []
    for depth in range(1, order_out + 1):
        inverses = [invert(g).image for g in enumerate_design(n, depth).elements]
        if reduced is None:
            coords = list(product(range(1, n + 1), repeat=order_in))
        else:
            coords = reduced.active(depth)
        gather = [
            [
                flat_index(tuple(inv[c - 1] for c in coord), n) * channels_in + ch
                for coord in coords
                for ch in range(channels_in)
            ]
            for inv in inverses
        ]
        rows = [
            [
                flat_index(tableau_to_indices(ExtendedTableau(n, inv[:depth], tab)), n)
                for inv in inverses
            ]
            for tab in enum_basis_tableaux(order_out, depth)
        ]
        plans.append((np.array(gather), np.array(rows)))
    return plans


@pytest.mark.parametrize("n", range(1, 7))
def test_plan_matches_the_element_by_element_construction(n):
    for order_in, order_out, channels_in in product((1, 2), (1, 2, 3), (1, 2)):
        if n < order_out:
            continue
        specs = [None]
        if n >= 2:
            specs += [default_reduced_spec(order_in, restricted) for restricted in (False, True)]
        for reduced in specs:
            plan = _forward_plan(n, order_in, channels_in, order_out, reduced)
            reference = reference_plan(n, order_in, channels_in, order_out, reduced)
            assert len(plan) == len(reference)
            for depth_plan, (gather, rows) in zip(plan, reference):
                assert np.array_equal(depth_plan.gather, gather)
                assert np.array_equal(depth_plan.rows, rows)
                assert np.array_equal(depth_plan.by_row, np.argsort(rows, axis=1))


def test_divisors_are_the_design_sizes():
    model = build_equivariant(0, 5, 2, 1, 3, 1, (4,), default_reduced_spec(2))
    assert model.depth_divisors == {d: len(enumerate_design(5, d)) for d in (1, 2, 3)}


def test_evaluation_count_is_quadratic_for_matrices():
    for n in (3, 5, 10, 20):
        model = build_equivariant(0, n, 2, 1, 2, 1, (4,), default_reduced_spec(2))
        counter = [0]
        forward_batch(model, rand_input(n, seed=4).data.reshape(1, -1), count=counter)
        assert counter[0] == n * n


def test_full_and_reduced_models_are_design_averages():
    # Literal route: sum g^{-1} . (scatter of component(g . x)) over each
    # depth design, divide by the design size, and compare to the plan.
    n = 3
    for reduced in (None, default_reduced_spec(2)):
        model = build_equivariant(11, n, 2, 1, 2, 1, (6, 6), reduced)
        x = rand_input(n, seed=5)
        literal = np.zeros((n, n, 1))
        for depth in (1, 2):
            design = enumerate_design(n, depth)
            for g in design.elements:
                gx = permute_tensor(g, x)
                if reduced is None:
                    feats = gx.data.reshape(-1)
                else:
                    feats = np.concatenate(
                        [gx.data[c[0] - 1, c[1] - 1] for c in reduced.active(depth)]
                    )
                for tab in all_basis_tableaux(2):
                    if tab.depth != depth:
                        continue
                    val = mlp_forward(model.components[tab], feats)
                    spot = basis_vector(base_indices(tab), n)
                    moved = permute_tensor(invert(g), spot)
                    literal += moved.data * val / len(design)
        plan = equivariant_forward(model, x)
        assert np.allclose(plan.data, literal, atol=1e-12)


def test_restricted_model_is_exactly_equivariant():
    for n in (3, 4):
        model = build_equivariant(
            21, n, 2, 1, 2, 1, (8, 8), default_reduced_spec(2, stab_restricted=True)
        )
        x = rand_input(n, seed=6)
        y = equivariant_forward(model, x)
        for g in enumerate_symmetric(n):
            lhs = equivariant_forward(model, permute_tensor(g, x))
            rhs = permute_tensor(g, y)
            assert np.max(np.abs(lhs.data - rhs.data)) < 1e-12


def test_unrestricted_reduction_is_not_exactly_equivariant():
    # The generic reduced model only approximates the group average; the
    # restriction is what buys exactness, so the plain one must show a gap.
    n = 4
    model = build_equivariant(31, n, 2, 1, 2, 1, (8, 8), default_reduced_spec(2))
    x = rand_input(n, seed=7)
    y = equivariant_forward(model, x)
    gap = 0.0
    for g in enumerate_symmetric(n):
        lhs = equivariant_forward(model, permute_tensor(g, x))
        gap = max(gap, float(np.max(np.abs(lhs.data - permute_tensor(g, y).data))))
    assert gap > 1e-6


def test_corner_forward_matches_representative_rows():
    n = 4
    for reduced in (None, default_reduced_spec(2)):
        model = build_equivariant(41, n, 2, 1, 2, 1, (8, 8), reduced)
        xb = CounterRng(8).uniform(-1.0, 1.0, 3 * n * n).reshape(3, n * n)
        full = forward_batch(model, xb)
        corner, cache = plan_forward(model, xb, corner=True)
        rows = corner_rows(n, 2)
        assert cache is None
        assert corner.shape == (3, len(rows), 1)
        assert np.array_equal(corner, full[:, rows, :])


def test_plan_rows_permute_the_dense_output():
    for n, m in ((3, 1), (4, 2), (5, 2), (4, 3)):
        model = build_equivariant(42, n, 2, 1, m, 1, (4,), default_reduced_spec(2))
        rows = plan_rows(model)
        assert np.array_equal(np.sort(rows), np.arange(n**m))
        assert np.array_equal(plan_rows(model, corner=True), corner_rows(n, m))
        xb = CounterRng(43).uniform(-1.0, 1.0, 2 * n * n).reshape(2, n * n)
        z, _ = plan_forward(model, xb)
        assert np.array_equal(forward_batch(model, xb)[:, rows, :], z)


def test_averaged_scatter_recovers_orbit_delta():
    # Push a single component through the full-group average and pool: the
    # orbit sum at the matching tableau is (n - D)! times the invariant
    # average of the component, and zero at every other tableau.
    n = 3
    w = CounterRng(9).uniform(-1.0, 1.0, n * n)

    def comp(x):
        return float(w @ x.data.reshape(-1)) ** 2

    from reynet.reynolds import VectorFunction

    x = rand_input(n, seed=10)
    gamma = reynolds_invariant(
        VectorFunction(n, 2, 1, None, 1, lambda t: np.array([comp(t)])), x
    )[0]
    for tab in all_basis_tableaux(2):
        def scatter_fn(t, tab=tab):
            out = np.zeros((n, n, 1))
            out[tuple(i - 1 for i in base_indices(tab))] = comp(t)
            return out

        f = VectorFunction(n, 2, 1, 2, 1, scatter_fn)
        y = reynolds_equivariant(f, x)
        pooled = orbit_sum(y)
        for other, value in zip(pooled.tableaux, pooled.values):
            want = factorial(n - tab.depth) * gamma if other == tab else 0.0
            assert value[0] == pytest.approx(want, abs=1e-12)


def test_transfer_keeps_parameters_and_divisors():
    model = build_equivariant(51, 3, 2, 1, 2, 1, (8, 8), default_reduced_spec(2))
    moved = transfer_n(model, 6)
    assert moved.n == 6
    assert moved.depth_divisors == model.depth_divisors
    assert moved.depth_divisors == {1: 3, 2: 6}
    for tab in model.tableaux:
        for a, b in zip(model.components[tab].weights, moved.components[tab].weights):
            assert np.array_equal(a, b)
            assert a is not b  # independent copies
    y = equivariant_forward(moved, rand_input(6, seed=11))
    assert y.data.shape == (6, 6, 1)


def test_transfer_requires_a_reduction():
    model = build_equivariant(61, 3, 2, 1, 2, 1, (4,), None)
    with pytest.raises(ValueError):
        transfer_n(model, 5)


def test_transferred_corner_rows_stay_aligned():
    # Representative entries are size-independent for the reduced family, so
    # the transferred model computes the same corner map on padded input.
    model = build_equivariant(71, 3, 2, 1, 2, 1, (8, 8), default_reduced_spec(2))
    big = transfer_n(model, 7)
    x_small = rand_input(3, seed=12)
    x_big = np.zeros((7, 7, 1))
    x_big[:3, :3] = x_small.data
    a, _ = plan_forward(model, x_small.data.reshape(1, -1), corner=True)
    b, _ = plan_forward(big, x_big.reshape(1, -1), corner=True)
    assert np.allclose(a, b, atol=1e-12)


def test_pooled_width_by_kind():
    assert pooled_width(2, 4, "orbit_sum") == 8
    assert pooled_width(2, 4, "max_diag_offdiag") == 8
    assert pooled_width(3, 2, "orbit_sum") == 10  # five orbits of depth <= 3
    with pytest.raises(ValueError):
        pooled_width(3, 2, "max_diag_offdiag")
    with pytest.raises(ValueError):
        pooled_width(2, 2, "nope")


def test_max_pooling_splits_diagonal_and_off_diagonal():
    inv = build_invariant(81, 3, 2, 1, 2, 2, 1, (4,), default_reduced_spec(2))
    xb = rand_input(3, seed=13).data.reshape(1, -1)
    grid = forward_batch(inv.body, xb).reshape(3, 3, 2)
    want_diag = grid[np.arange(3), np.arange(3), :].max(axis=0)
    off_mask = ~np.eye(3, dtype=bool)
    want_off = grid[off_mask].max(axis=0)
    feats, _ = _pool_forward(inv, plan_forward(inv.body, xb)[0])
    assert np.array_equal(feats[0, :2], want_diag)
    assert np.array_equal(feats[0, 2:], want_off)


def dense_max_pool(y, n):
    """Reference max pooling on dense body outputs (batch, n*n, b): the
    first maximum in row-major order over the diagonal, then over the rest."""
    batch, _, b = y.shape
    diag_rows = np.arange(n) * (n + 1)
    off_rows = np.flatnonzero(~np.eye(n, dtype=bool))
    feats, dy = [], np.zeros_like(y)
    for k, rows in enumerate((diag_rows, off_rows)):
        arg = np.argmax(y[:, rows, :], axis=1)
        picked = rows[arg]
        feats.append(np.take_along_axis(y, picked[:, None, :], axis=1)[:, 0, :])
        for i in range(batch):
            for c in range(b):
                dy[i, picked[i, c], c] += 1.0 + k
    return np.concatenate(feats, axis=1), dy


@pytest.mark.parametrize("constant", [False, True])
def test_plan_order_max_pooling_picks_the_dense_reference_entry(constant):
    # A constant input makes every depth's outputs tie; the pick must still
    # be the lowest row-major row, or the gradient lands elsewhere.
    n, b = 5, 3
    inv = build_invariant(82, n, 2, 1, 2, b, 1, (6,), default_reduced_spec(2))
    xb = CounterRng(83).uniform(-1.0, 1.0, 4 * n * n).reshape(4, n * n)
    if constant:
        xb[:] = 0.5
    z, _ = plan_forward(inv.body, xb)
    want_feats, want_dy = dense_max_pool(forward_batch(inv.body, xb), n)
    feats, picks = _pool_forward(inv, z)
    assert np.array_equal(feats, want_feats)
    dfeats = np.concatenate([np.full((4, b), 1.0), np.full((4, b), 2.0)], axis=1)
    dz = _pool_backward(inv, picks, dfeats)
    assert np.array_equal(dz, want_dy[:, plan_rows(inv.body), :])
    if constant:
        assert np.array_equal(feats[:, :b], z[:, :b, :].max(axis=1))


def test_orbit_pooling_matches_orbit_sum():
    for reduced in (None, default_reduced_spec(2)):
        inv = build_invariant(91, 4, 2, 1, 2, 3, 2, (4,), reduced, pooling="orbit_sum")
        xb = rand_input(4, seed=14).data.reshape(1, -1)
        pooled = orbit_sum(equivariant_forward(inv.body, rand_input(4, seed=14)))
        feats, _ = _pool_forward(inv, plan_forward(inv.body, xb)[0])
        want = np.asarray(pooled.values).reshape(-1)
        assert np.all(np.abs(feats[0] - want) <= 1e-12 * np.abs(want))


def test_invariant_model_shapes_and_determinism():
    inv = build_invariant(101, 3, 2, 1, 2, 4, 2, (8,), default_reduced_spec(2))
    x = rand_input(3, seed=15)
    out = invariant_forward(inv, x)
    assert out.shape == (2,)
    again = build_invariant(101, 3, 2, 1, 2, 4, 2, (8,), default_reduced_spec(2))
    assert np.array_equal(out, invariant_forward(again, x))


def test_invariant_transfer_keeps_the_head():
    inv = build_invariant(111, 3, 2, 1, 2, 4, 2, (8,), default_reduced_spec(2))
    big = transfer_invariant(inv, 9)
    assert big.body.n == 9
    for a, b in zip(inv.head.weights, big.head.weights):
        assert np.array_equal(a, b)
    out = invariant_forward_batch(big, rand_input(9, seed=16).data.reshape(1, -1))
    assert out.shape == (1, 2)


def test_flat_baseline_shapes():
    model = build_flat(121, 4, 2, 1, 2, 1, (8,))
    y = flat_forward(model, rand_input(4, seed=17))
    assert y.data.shape == (4, 4, 1)
    scalar = build_flat(131, 4, 2, 1, None, 1, (8,))
    v = flat_forward(scalar, rand_input(4, seed=18))
    assert np.shape(v) == (1,)


def test_build_rejects_impossible_sizes():
    with pytest.raises(ValueError):
        build_equivariant(0, 1, 2, 1, 2, 1, (4,))
    with pytest.raises(ValueError):
        build_equivariant(0, 1, 2, 1, 2, 1, (4,), default_reduced_spec(2))
    with pytest.raises(ValueError):
        transfer_n(build_equivariant(0, 3, 2, 1, 2, 1, (4,), default_reduced_spec(2)), 1)
