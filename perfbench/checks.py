"""Output checks that share no code with the package they check.

Targets come from the task definitions, model outputs from a ReLU MLP and the
reduced order-2 formula written here in plain numpy, and checkpoint round
trips are compared byte for byte.  Each check returns an empty string when it
passes and a one-line reason when it does not.
"""

from __future__ import annotations

import numpy as np

FORMULA_TOL = 1e-12


def task_targets(task: str, a: np.ndarray) -> np.ndarray:
    """Targets of a (count, n, n) batch of input matrices."""
    if task == "symmetry":
        return 0.5 * (a + a.transpose(0, 2, 1))
    if task == "diagonal":
        return np.diagonal(a, axis1=1, axis2=2).copy()
    if task == "power":
        return np.square(a)
    if task == "trace":
        return np.trace(a, axis1=1, axis2=2)[:, None]
    raise ValueError(f"unknown task {task!r}")


def relu_mlp(weights, biases, x: np.ndarray) -> np.ndarray:
    """ReLU on every hidden layer, affine output; weights are (out, in)."""
    h = x
    for k, (w, b) in enumerate(zip(weights, biases)):
        h = h @ w.T + b
        if k < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def reduced_order2(diag_mlp, off_mlp, x: np.ndarray, n_train: int) -> np.ndarray:
    """(count, n, n) outputs of a reduced order-2 model from its formula.

    Entry (i, i) is C1(X_ii, X_i,i+1, X_i+1,i, X_i+1,i+1) / n_train with i + 1
    taken mod n, entry (i, j) is C2(X_ii, X_ij, X_ji, X_jj) / (n_train *
    (n_train - 1)): the design sizes at the training size, which transfer
    keeps.  Each MLP is a (weights, biases) pair.
    """
    count, n, _ = x.shape
    i = np.arange(n)
    j = (i + 1) % n
    y = np.empty((count, n, n))
    diag_in = np.stack([x[:, i, i], x[:, i, j], x[:, j, i], x[:, j, j]], axis=-1)
    y[:, i, i] = relu_mlp(*diag_mlp, diag_in)[..., 0] / n_train
    r, c = np.nonzero(~np.eye(n, dtype=bool))
    off_in = np.stack([x[:, r, r], x[:, r, c], x[:, c, r], x[:, c, c]], axis=-1)
    y[:, r, c] = relu_mlp(*off_mlp, off_in)[..., 0] / (n_train * (n_train - 1))
    return y


def check_formula(program: np.ndarray, formula: np.ndarray) -> str:
    """Program outputs equal the formula's to FORMULA_TOL, relative to their size."""
    program = np.asarray(program).reshape(formula.shape)
    gap = float(np.max(np.abs(program - formula)))
    scale = max(1.0, float(np.max(np.abs(formula))))
    if not gap <= FORMULA_TOL * scale:
        return f"outputs differ from the reduced order-2 formula by {gap:.3e}"
    return ""


def check_mse(program_mse: float, predictions: np.ndarray, targets: np.ndarray) -> str:
    """The program's MSE equals the mean squared error of the given predictions."""
    mse = float(np.mean(np.square(predictions - targets.reshape(predictions.shape))))
    if not abs(program_mse - mse) <= FORMULA_TOL * max(1.0, mse):
        return f"evaluate_mse gives {program_mse!r}, the predictions give {mse!r}"
    return ""


def model_arrays(model) -> dict[str, np.ndarray]:
    """Every parameter array of a model, and its averaging divisors, by name."""
    out: dict[str, np.ndarray] = {}

    def add_mlp(prefix: str, mlp) -> None:
        for k, w in enumerate(mlp.weights):
            out[f"{prefix}.w{k}"] = w
        for k, b in enumerate(mlp.biases):
            out[f"{prefix}.b{k}"] = b

    def add_body(prefix: str, body) -> None:
        for tab, mlp in body.components.items():
            add_mlp(f"{prefix}{tab.rows}", mlp)
        for depth, divisor in body.depth_divisors.items():
            out[f"{prefix}divisor{depth}"] = np.array([divisor])

    if hasattr(model, "params"):
        add_mlp("flat", model.params)
    elif hasattr(model, "body"):
        add_body("body", model.body)
        add_mlp("head", model.head)
    else:
        add_body("", model)
    return out


def check_identical(saved, loaded) -> str:
    """Two models hold bit-identical parameters and divisors."""
    a, b = model_arrays(saved), model_arrays(loaded)
    if a.keys() != b.keys():
        return f"parameter sets differ: {sorted(a.keys() ^ b.keys())}"
    for name in a:
        x, y = a[name], b[name]
        if x.shape != y.shape or x.dtype != y.dtype or x.tobytes() != y.tobytes():
            return f"parameter {name} changed in the checkpoint round trip"
    return ""


def check_same_float(what: str, expected: float, got: float) -> str:
    if np.float64(expected).tobytes() != np.float64(got).tobytes():
        return f"{what}: {got!r} differs from {expected!r}"
    return ""


def check_below(what: str, value: float, ceiling: float) -> str:
    if not value < ceiling:
        return f"{what}: {value!r} is not below {ceiling!r}"
    return ""


def check_eval_counts(counts: list[tuple[int, int]]) -> str:
    """Each full forward made exactly samples * n^order_out component evaluations."""
    if not counts:
        return "no full forward was traced"
    for counted, expected in counts:
        if counted != expected:
            return f"a forward made {counted} component evaluations, expected {expected}"
    return ""
