"""MLP forward/backward, the optimizer contract, and the MSE loss."""

import numpy as np
import pytest

from reynet.nn import (
    MLPParams,
    Workspace,
    adam_step,
    init_adam,
    init_params,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
    mse_loss,
)

FD_STEP = 1e-5
FD_TOL = 1e-6


def test_init_bounds_and_zero_biases():
    params = init_params(0, (50, 40, 30))
    for k, w in enumerate(params.weights):
        bound = 1.0 / np.sqrt(params.dims[k])
        assert np.abs(w).max() <= bound
        # variance of U(-b, b) is b^2 / 3
        assert np.var(w) == pytest.approx(bound**2 / 3.0, rel=0.2)
    for b in params.biases:
        assert not b.any()


def test_init_is_deterministic_and_seed_sensitive():
    a = init_params(5, (4, 3))
    b = init_params(5, (4, 3))
    c = init_params(6, (4, 3))
    assert np.array_equal(a.weights[0], b.weights[0])
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_rejects_bad_dims():
    with pytest.raises(ValueError):
        init_params(0, (4,))
    with pytest.raises(ValueError):
        init_params(0, (4, 0, 2))


def test_forward_is_affine_relu_affine():
    params = MLPParams(
        (2, 2, 1),
        [np.array([[1.0, -1.0], [0.5, 0.5]]), np.array([[2.0, -1.0]])],
        [np.array([0.0, -1.0]), np.array([0.25])],
    )
    x = np.array([3.0, 1.0])
    # hidden preactivations (2.0, 1.0) pass ReLU unchanged
    assert mlp_forward(params, x)[0] == pytest.approx(2.0 * 2.0 - 1.0 + 0.25)


def test_forward_handles_batches_and_leading_axes():
    params = init_params(1, (3, 5, 2))
    x = np.random.default_rng(0).standard_normal((4, 6, 3))
    out = mlp_forward(params, x)
    assert out.shape == (4, 6, 2)
    assert np.allclose(out[2, 3], mlp_forward(params, x[2, 3]))


def test_gradients_match_finite_differences():
    params = init_params(2, (4, 8, 8, 2))
    rng = np.random.default_rng(3)
    x = rng.standard_normal((3, 4))
    up = rng.standard_normal((3, 2))
    _, acts = mlp_forward_cached(params, x)
    dw, db, dx = mlp_backward(params, acts, up)

    def objective():
        return float(np.sum(up * mlp_forward(params, x)))

    pairs = []
    for k in range(len(params.weights)):
        pairs.append((params.weights[k], dw[k]))
        pairs.append((params.biases[k], db[k]))
    pairs.append((x, dx))
    for arr, grad in pairs:
        flat_a, flat_g = arr.reshape(-1), np.asarray(grad).reshape(-1)
        for i in range(flat_a.size):
            keep = flat_a[i]
            flat_a[i] = keep + FD_STEP
            upv = objective()
            flat_a[i] = keep - FD_STEP
            downv = objective()
            flat_a[i] = keep
            fd = (upv - downv) / (2 * FD_STEP)
            assert abs(fd - flat_g[i]) / max(1.0, abs(fd)) < FD_TOL


def test_relu_derivative_is_zero_at_the_kink():
    # One hidden unit with preactivation exactly zero: its weight must get a
    # zero gradient, the subgradient convention at the kink.
    params = MLPParams(
        (1, 1, 1),
        [np.array([[1.0]]), np.array([[2.0]])],
        [np.array([0.0]), np.array([0.0])],
    )
    def grads(x):
        _, acts = mlp_forward_cached(params, np.array([[x]]))
        dw, db, _ = mlp_backward(params, acts, np.array([[1.0]]))
        return dw, db

    dw, db = grads(0.0)
    assert dw[0][0, 0] == 0.0
    assert db[0][0] == 0.0
    # just past the kink the same path carries gradient 2
    dw, db = grads(1e-9)
    assert db[0][0] == 2.0


def _reference_backward(params, acts, upstream):
    """The plain backward: a fresh masked copy per layer, input gradient kept."""
    dz = upstream
    dw, db = [None] * len(params.weights), [None] * len(params.weights)
    for k in range(len(params.weights) - 1, -1, -1):
        if k != len(params.weights) - 1:
            dz = dz * (acts[k + 1] > 0.0)
        dw[k] = dz.T @ acts[k]
        db[k] = dz.sum(axis=0)
        dz = dz @ params.weights[k]
    return dw, db, dz


def _bits_equal(a, b):
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b, strict=True))


def test_workspace_kernels_are_bit_identical_to_the_plain_ones():
    params = init_params(4, (5, 16, 16, 3))
    rng = np.random.default_rng(5)
    ws = Workspace()
    # a larger call first, so the second one runs on views of grown buffers
    for rows in (40, 23):
        x = rng.standard_normal((rows, 5))
        up = rng.standard_normal((rows, 3))
        out, acts = mlp_forward_cached(params, x)
        assert any((a == 0.0).any() for a in acts[1:-1])  # the mask does something
        ref_w, ref_b, ref_dx = _reference_backward(params, acts, up)
        dw, db, dx = mlp_backward(params, acts, up)
        assert _bits_equal(dw + db + [dx], ref_w + ref_b + [ref_dx])

        ws_out, ws_acts = mlp_forward_cached(params, x, ws, "slot")
        assert _bits_equal([ws_out], [out]) and _bits_equal(ws_acts, acts)
        assert _bits_equal([mlp_forward(params, x, ws)], [out])
        dw, db, dx = mlp_backward(params, ws_acts, up, ws, input_grad=False)
        assert dx is None
        assert _bits_equal(dw + db, ref_w + ref_b)
        dw, db, dx = mlp_backward(params, ws_acts, up, ws)
        assert _bits_equal(dw + db + [dx], ref_w + ref_b + [ref_dx])
        buffers = list(ws._buffers.values())
        for a in [ws_out, dx] + dw + db:
            assert not any(np.shares_memory(a, buf) for buf in buffers)


def test_workspace_reuses_a_buffer_until_it_must_grow():
    ws = Workspace()
    a = ws.array("k", (4, 3))
    b = ws.array("k", (2, 3))
    assert np.shares_memory(a, b) and b.flags.c_contiguous
    assert not np.shares_memory(a, ws.array("other", (4, 3)))
    c = ws.array("k", (5, 3))
    assert not np.shares_memory(a, c)
    assert ws.array("mask", (2, 2), bool).dtype == bool


def test_first_adam_step_is_signed_learning_rate():
    # With zero decay, step one moves by -lr * g / (|g| + eps) elementwise.
    w, b = np.array([[1.0, -2.0]]), np.array([3.0])
    state = init_adam([w, b], lr=0.01, weight_decay=0.0)
    adam_step(state, [w, b], [np.array([[0.5, -0.25]]), np.array([4.0])])
    assert w[0, 0] == pytest.approx(1.0 - 0.01 * 0.5 / (0.5 + 1e-8))
    assert w[0, 1] == pytest.approx(-2.0 + 0.01 * 0.25 / (0.25 + 1e-8))
    assert b[0] == pytest.approx(3.0 - 0.01 * 4.0 / (4.0 + 1e-8))


def test_weight_decay_is_decoupled_from_the_gradient():
    # A zero gradient still shrinks weights, and the shrink ignores Adam's
    # moment rescaling entirely.
    w, b = np.array([[10.0]]), np.array([5.0])
    state = init_adam([w, b], lr=0.1, weight_decay=0.01)
    adam_step(state, [w, b], [np.zeros((1, 1)), np.zeros(1)])
    assert w[0, 0] == pytest.approx(10.0 * (1.0 - 0.1 * 0.01))
    assert b[0] == pytest.approx(5.0 * (1.0 - 0.1 * 0.01))


def test_adam_defaults():
    params = init_params(0, (2, 2))
    state = init_adam(params.weights + params.biases)
    assert state.lr == 1e-3
    assert state.weight_decay == 1e-5
    assert state.beta1 == 0.9
    assert state.beta2 == 0.999
    assert state.eps == 1e-8
    assert state.step == 0
    assert [m.shape for m in state.m] == [(2, 2), (2,)]
    assert [v.shape for v in state.v] == [(2, 2), (2,)]


def test_adam_converges_on_a_quadratic():
    w, b = np.array([[4.0]]), np.array([-3.0])
    state = init_adam([w, b], lr=0.05, weight_decay=0.0)
    for _ in range(2000):
        adam_step(state, [w, b], [2 * (w - 1.0), 2 * (b - 2.0)])
    assert w[0, 0] == pytest.approx(1.0, abs=1e-3)
    assert b[0] == pytest.approx(2.0, abs=1e-3)


def test_mse_loss_value_and_gradient():
    pred = np.array([[1.0, 2.0], [3.0, 4.0]])
    target = np.zeros((2, 2))
    value, grad = mse_loss(pred, target)
    assert value == pytest.approx((1 + 4 + 9 + 16) / 4)
    assert np.allclose(grad, 2.0 * pred / 4)
