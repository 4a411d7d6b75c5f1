"""Brute-force verification suites.

Each suite checks one family of algebraic identities against an independent
route: exhaustive enumeration, literal group averages, or finite differences.
Suites that enumerate the full symmetric group are capped at n = 8; the
evaluation-count suite only builds designs, so it runs up to n = 20.

The CLI `verify` command and the test suite both run these.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .groups import (
    BRUTE_FORCE_MAX_N,
    enumerate_design,
    enumerate_symmetric,
    invert,
    permute_indices,
)
from .models import (
    build_equivariant,
    build_invariant,
    default_reduced_spec,
    equivariant_forward,
    forward_batch,
    invariant_forward_batch,
    plan_rows,
    trainable,
)
from .nn import init_params, mlp_backward, mlp_forward, mlp_forward_cached
from .reynolds import (
    VectorFunction,
    decomposition_check,
    generator_means,
    monomial,
    power_sum_generators,
    reynolds_equivariant,
    reynolds_equivariant_design,
    reynolds_invariant,
)
from .rng import CounterRng
from .tableaux import (
    ExtendedTableau,
    base_indices,
    enum_basis_tableaux,
    indices_to_tableau,
    normalizing_permutation,
    tableau_to_indices,
)
from .tensors import DenseTensor, corner_rows, orbit_sum, permute_tensor

SUITE_NAMES = (
    "bijection",
    "normalize",
    "equivariance",
    "design",
    "orbitsum",
    "gradcheck",
    "decomposition",
    "powersum",
    "count",
)
COUNT_MAX_N = 20


@dataclass(frozen=True)
class CheckRow:
    name: str
    gap: float
    passed: bool


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple[CheckRow, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_gap(self) -> float:
        return max((c.gap for c in self.checks), default=0.0)


def suite_limit(name: str) -> int:
    return COUNT_MAX_N if name == "count" else BRUTE_FORCE_MAX_N


def _rand_tensor(rng: CounterRng, n: int, order: int, channels: int) -> DenseTensor:
    shape = (n,) * order + (channels,)
    return DenseTensor(n, order, channels, rng.uniform(-1.0, 1.0, int(np.prod(shape))).reshape(shape))


def _mlp_operator(n: int, order_in: int, order_out: int, b_in: int, b_out: int, seed: int) -> VectorFunction:
    params = init_params(seed, (n**order_in * b_in, 8, 8, n**order_out * b_out))

    def fn(x: DenseTensor):
        out = mlp_forward(params, x.data.reshape(-1))
        return out.reshape((n,) * order_out + (b_out,))

    return VectorFunction(n, order_in, b_in, order_out, b_out, fn)


# --- bijection ---------------------------------------------------------------


def suite_bijection(max_n: int = 5, trials: int = 0, seed: int = 0) -> SuiteResult:
    max_m = 3
    checks = []
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            bad = 0
            for u in product(range(1, n + 1), repeat=m):
                ext = indices_to_tableau(u, n)
                if tableau_to_indices(ext) != u:
                    bad += 1
            checks.append(CheckRow(f"tuple->tableau->tuple n={n} m={m}", float(bad), bad == 0))
    for n in range(1, max_n + 1):
        for m in range(1, max_m + 1):
            bad = 0
            for depth in range(1, min(n, m) + 1):
                for tab in enum_basis_tableaux(m, depth):
                    for labels in permutations(range(1, n + 1), depth):
                        ext = ExtendedTableau(n, labels, tab)
                        if indices_to_tableau(tableau_to_indices(ext), n) != ext:
                            bad += 1
            checks.append(CheckRow(f"tableau->tuple->tableau n={n} m={m}", float(bad), bad == 0))
    return SuiteResult("bijection", tuple(checks))


# --- normalize ---------------------------------------------------------------


def suite_normalize(max_n: int = 6, trials: int = 0, seed: int = 0) -> SuiteResult:
    max_depth = 3
    checks = []
    for n in range(2, max_n + 1):
        for depth in range(1, min(max_depth, n) + 1):
            design = enumerate_design(n, depth)
            prefix = tuple(range(1, depth + 1))
            images = {tuple(invert(g)(d) for d in prefix) for g in design.elements}
            dup = len(design) - len(images)
            checks.append(CheckRow(f"design prefix images distinct n={n} D={depth}", float(dup), dup == 0))
            bad = 0
            for labels in permutations(range(1, n + 1), depth):
                h = normalizing_permutation(labels, n)
                hits = [g for g in design.elements if all(g(v) == d + 1 for d, v in enumerate(labels))]
                if hits != [h] or any(h(v) != d + 1 for d, v in enumerate(labels)):
                    bad += 1
            checks.append(CheckRow(f"normalizer unique in design n={n} D={depth}", float(bad), bad == 0))
    return SuiteResult("normalize", tuple(checks))


# --- equivariance ------------------------------------------------------------


def _operator_equivariance_gap(f: VectorFunction, x: DenseTensor) -> float:
    y0 = reynolds_equivariant(f, x)
    gap = 0.0
    for g in enumerate_symmetric(f.n):
        lhs = reynolds_equivariant(f, permute_tensor(g, x))
        rhs = permute_tensor(g, y0)
        gap = max(gap, float(np.max(np.abs(lhs.data - rhs.data))))
    return gap


def _model_equivariance_gap(model, x: DenseTensor) -> float:
    y0 = equivariant_forward(model, x)
    gap = 0.0
    for g in enumerate_symmetric(model.n):
        lhs = equivariant_forward(model, permute_tensor(g, x))
        rhs = permute_tensor(g, y0)
        gap = max(gap, float(np.max(np.abs(lhs.data - rhs.data))))
    return gap


def _reconstruction_gap(model, x: DenseTensor) -> float:
    """Model forward vs the literal design average of the scatter maps.

    Each component is treated as |design| times the averaged map, so summing
    g^{-1} . (representative scatter of component(g . x)) over the depth-D
    design and dividing by its size must reproduce the forward pass exactly.
    """
    n, m = model.n, model.order_out
    literal = np.zeros((n,) * m + (model.channels_out,))
    for depth in range(1, m + 1):
        design = enumerate_design(n, depth)
        acc = np.zeros_like(literal)
        for g in design.elements:
            gx = permute_tensor(g, x)
            feats = _component_features(model, gx, depth)
            contrib = np.zeros_like(literal)
            for tab in enum_basis_tableaux(m, depth):
                val = mlp_forward(model.components[tab], feats)
                idx = tuple(i - 1 for i in base_indices(tab))
                contrib[idx] += val
            acc += permute_tensor(invert(g), DenseTensor(n, m, model.channels_out, contrib)).data
        literal += acc / model.depth_divisors[depth]
    plan = forward_batch(model, x.data.reshape(1, -1))[0]
    return float(np.max(np.abs(literal.reshape(plan.shape) - plan)))


def _component_features(model, x: DenseTensor, depth: int) -> np.ndarray:
    if model.reduced is None:
        return x.data.reshape(-1)
    coords = model.reduced.active(depth)
    return np.concatenate([x.data[tuple(i - 1 for i in c)] for c in coords])


def suite_equivariance(max_n: int = 5, trials: int = 20, seed: int = 0) -> SuiteResult:
    checks = []
    rng = CounterRng(seed)
    ns = [n for n in (2, 3, 4, 5) if n <= max_n] or [max_n]
    per_combo = max(1, trials // 4)
    k = 0
    for order_in, order_out in product((1, 2), repeat=2):
        gap = 0.0
        for j in range(per_combo):
            n = ns[(k + j) % len(ns)]
            b_in, b_out = (1, 2) if j % 2 else (2, 1)
            f = _mlp_operator(n, order_in, order_out, b_in, b_out, rng.split(k + j).key)
            x = _rand_tensor(rng.split(1000 + k + j), n, order_in, b_in)
            gap = max(gap, _operator_equivariance_gap(f, x))
        k += per_combo
        checks.append(CheckRow(f"operator average l={order_in} m={order_out}", gap, gap <= 1e-9))
    for n in range(3, max_n + 1):
        model = build_equivariant(
            rng.split(2000 + n).key, n, 2, 1, 2, 1, (8, 8), default_reduced_spec(2, stab_restricted=True)
        )
        x = _rand_tensor(rng.split(3000 + n), n, 2, 1)
        gap = _model_equivariance_gap(model, x)
        checks.append(CheckRow(f"restricted model exact n={n}", gap, gap <= 1e-9))
    for n in range(3, min(4, max_n) + 1):
        for reduced in (None, default_reduced_spec(2)):
            tag = "reduced" if reduced else "full"
            model = build_equivariant(rng.split(4000 + n).key, n, 2, 1, 2, 1, (8, 8), reduced)
            x = _rand_tensor(rng.split(5000 + n), n, 2, 1)
            gap = _reconstruction_gap(model, x)
            checks.append(CheckRow(f"reconstruction {tag} n={n}", gap, gap <= 1e-12))
    return SuiteResult("equivariance", tuple(checks))


# --- design ------------------------------------------------------------------


def _stab_invariant_map(n: int, depth: int, seed: int) -> VectorFunction:
    """Order-2 map scattering MLP features of the leading block onto the
    depth-`depth` representative rows; its components are fixed by the
    pointwise stabilizer of 1..depth."""
    m = 2
    coords = tuple(product(range(1, depth + 1), repeat=m))
    tabs = enum_basis_tableaux(m, depth)
    params = init_params(seed, (len(coords), 8, len(tabs)))

    def fn(x: DenseTensor):
        feats = np.array([x.data[tuple(i - 1 for i in c)][0] for c in coords])
        vals = mlp_forward(params, feats)
        out = np.zeros((n,) * m + (1,))
        for k, tab in enumerate(tabs):
            out[tuple(i - 1 for i in base_indices(tab))] += vals[k]
        return out

    return VectorFunction(n, m, 1, m, 1, fn)


def suite_design(max_n: int = 6, trials: int = 3, seed: int = 0) -> SuiteResult:
    checks = []
    rng = CounterRng(seed)
    for n in (4, 5, 6):
        if n > max_n:
            continue
        for depth in (1, 2):
            f = _stab_invariant_map(n, depth, rng.split(10 * n + depth).key)
            design = enumerate_design(n, depth)
            gap = 0.0
            for t in range(max(1, trials)):
                x = _rand_tensor(rng.split(1000 + 100 * n + 10 * depth + t), n, 2, 1)
                a = reynolds_equivariant_design(f, x, design)
                b = reynolds_equivariant(f, x)
                gap = max(gap, float(np.max(np.abs(a.data - b.data))))
            checks.append(CheckRow(f"design average exact n={n} D={depth}", gap, gap <= 1e-12))
    n = min(4, max_n)
    if n >= 3:
        f = _mlp_operator(n, 2, 2, 1, 1, rng.split(99).key)
        x = _rand_tensor(rng.split(98), n, 2, 1)
        a = reynolds_equivariant_design(f, x, enumerate_design(n, 1))
        b = reynolds_equivariant(f, x)
        gap = float(np.max(np.abs(a.data - b.data)))
        checks.append(CheckRow(f"generic map gap n={n} D=1 (reported only)", gap, True))
    return SuiteResult("design", tuple(checks))


# --- orbitsum ----------------------------------------------------------------


def suite_orbitsum(max_n: int = 4, trials: int = 2, seed: int = 0) -> SuiteResult:
    checks = []
    rng = CounterRng(seed)
    for n in range(2, max_n + 1):
        for m in (1, 2):
            if m > n:
                continue
            gap = 0.0
            for t in range(max(1, trials)):
                x = _rand_tensor(rng.split(100 * n + 10 * m + t), n, m, 2)
                pooled = orbit_sum(x)
                for k, tab in enumerate(pooled.tableaux):
                    u = base_indices(tab)
                    literal = np.zeros(x.channels)
                    for g in enumerate_symmetric(n):
                        v = permute_indices(g, u)
                        literal += x.data[tuple(i - 1 for i in v)]
                    num = float(np.max(np.abs(pooled.values[k] - literal)))
                    den = max(1.0, float(np.max(np.abs(literal))))
                    gap = max(gap, num / den)
            checks.append(CheckRow(f"orbit sum vs group sum n={n} m={m}", gap, gap <= 1e-12))
    return SuiteResult("orbitsum", tuple(checks))


# --- gradcheck ---------------------------------------------------------------


def _fd_max_rel(arrays, grads, objective, h: float = 1e-5) -> float:
    worst = 0.0
    for arr, grad in zip(arrays, grads):
        flat_a = arr.reshape(-1)
        flat_g = np.asarray(grad).reshape(-1)
        for i in range(flat_a.size):
            keep = flat_a[i]
            flat_a[i] = keep + h
            up = objective()
            flat_a[i] = keep - h
            down = objective()
            flat_a[i] = keep
            fd = (up - down) / (2.0 * h)
            rel = abs(fd - flat_g[i]) / max(1.0, abs(fd), abs(flat_g[i]))
            worst = max(worst, rel)
    return worst


def suite_gradcheck(max_n: int = 3, trials: int = 0, seed: int = 0) -> SuiteResult:
    """Hand-derived gradients against central differences, coordinate by
    coordinate: the MLP, then each model's training path, whose outputs
    the objectives read back through the dense forwards."""
    checks = []
    rng = CounterRng(seed)
    tol = 1e-6

    params = init_params(rng.split(0).key, (4, 8, 8, 2))
    x = rng.split(1).uniform(-1.0, 1.0, 12).reshape(3, 4)
    up = rng.split(2).uniform(-1.0, 1.0, 6).reshape(3, 2)
    _, acts = mlp_forward_cached(params, x)
    dw, db, dx = mlp_backward(params, acts, up)
    arrays = params.weights + params.biases + [x]
    gap = _fd_max_rel(arrays, dw + db + [dx], lambda: float(np.sum(up * mlp_forward(params, x))))
    checks.append(CheckRow("mlp parameters and input", gap, gap <= tol))

    n = max(3, min(max_n, 4))
    xb = rng.split(3).uniform(-1.0, 1.0, 2 * n * n).reshape(2, n * n)

    def path_gap(model, upstream, objective, corner=False):
        path = trainable(model, corner)
        _, cache = path.forward(xb)
        return _fd_max_rel(path.params, path.backward(cache, upstream), objective)

    upb = rng.split(4).uniform(-1.0, 1.0, 2 * n * n).reshape(2, n * n, 1)
    for reduced, tag in ((None, "full"), (default_reduced_spec(2), "reduced")):
        model = build_equivariant(rng.split(5).key, n, 2, 1, 2, 1, (8, 8), reduced)
        gap = path_gap(
            model,
            upb[:, plan_rows(model), :],
            lambda: float(np.sum(upb * forward_batch(model, xb))),
        )
        checks.append(CheckRow(f"equivariant {tag} n={n}", gap, gap <= tol))

    model = build_equivariant(rng.split(6).key, n, 2, 1, 2, 1, (8, 8), default_reduced_spec(2))
    upc = rng.split(7).uniform(-1.0, 1.0, 2 * len(model.tableaux)).reshape(2, -1, 1)
    rows = corner_rows(n, 2)
    gap = path_gap(
        model, upc, lambda: float(np.sum(upc * forward_batch(model, xb)[:, rows, :])), corner=True
    )
    checks.append(CheckRow(f"corner entries n={n}", gap, gap <= tol))

    for pooling in ("max_diag_offdiag", "orbit_sum"):
        inv = build_invariant(rng.split(8).key, n, 2, 1, 2, 3, 2, (8, 8), default_reduced_spec(2), pooling)
        upi = rng.split(9).uniform(-1.0, 1.0, 4).reshape(2, 2)
        gap = path_gap(inv, upi, lambda: float(np.sum(upi * invariant_forward_batch(inv, xb))))
        checks.append(CheckRow(f"invariant {pooling} n={n}", gap, gap <= tol))
    return SuiteResult("gradcheck", tuple(checks))


# --- decomposition and power sums --------------------------------------------


def _random_monomials(rng: CounterRng, n: int, count: int):
    out = []
    for t in range(count):
        sub = rng.split(t)
        nvars = 1 + int(sub.uniform(0.0, 3.0, 1)[0])
        powers = {}
        for j in range(nvars):
            var = 1 + int(sub.split(j).uniform(0.0, float(n), 1)[0])
            exp = 1 + int(sub.split(100 + j).uniform(0.0, 3.0, 1)[0])
            powers[var] = exp
        out.append(monomial(powers, coeff=round(float(sub.uniform(-2.0, 2.0, 1)[0]), 3)))
    return out


def suite_decomposition(max_n: int = 6, trials: int = 3, seed: int = 0) -> SuiteResult:
    checks = []
    rng = CounterRng(seed)
    for n in range(2, max_n + 1):
        for depth in range(1, min(2, n) + 1):
            bad = 0
            for k, poly in enumerate(_random_monomials(rng.split(10 * n + depth), n, 10)):
                if not decomposition_check(n, depth, poly, trials=max(1, trials), seed=k):
                    bad += 1
            checks.append(CheckRow(f"staged average n={n} d={depth}", float(bad), bad == 0))
    return SuiteResult("decomposition", tuple(checks))


def suite_powersum(max_n: int = 6, trials: int = 2, seed: int = 0) -> SuiteResult:
    checks = []
    rng = CounterRng(seed)
    for n in range(2, max_n + 1):
        gap = 0.0
        gens = power_sum_generators(n)
        for t in range(max(1, trials)):
            x = rng.split(10 * n + t).uniform(-1.0, 1.0, n)
            means = generator_means(gens, x)
            direct = np.array([np.mean(x**i) for i in range(1, n + 1)])
            gap = max(gap, float(np.max(np.abs(means - direct))))
            xt = DenseTensor(n, 1, 1, x.reshape(n, 1))
            for i, poly in enumerate(gens.generators):
                f = VectorFunction(n, 1, 1, None, 1, lambda x_, p=poly: np.array([p(x_.data[:, 0])]))
                full = reynolds_invariant(f, xt)[0]
                gap = max(gap, abs(full - means[i]))
        checks.append(CheckRow(f"power sum means n={n}", gap, gap <= 1e-12))
    return SuiteResult("powersum", tuple(checks))


# --- count -------------------------------------------------------------------


def suite_count(max_n: int = 20, trials: int = 0, seed: int = 0) -> SuiteResult:
    checks = []
    rng = CounterRng(seed)
    for n in (3, 5, 10, 20):
        if n > max_n:
            continue
        model = build_equivariant(rng.split(n).key, n, 2, 1, 2, 1, (4,), default_reduced_spec(2))
        batch = 2
        xb = rng.split(100 + n).uniform(-1.0, 1.0, batch * n * n).reshape(batch, n * n)
        counter = [0]
        forward_batch(model, xb, count=counter)
        per_sample = counter[0] / batch
        gap = abs(per_sample - n * n)
        checks.append(CheckRow(f"evaluations per sample n={n}", float(gap), gap == 0))
    return SuiteResult("count", tuple(checks))


# --- registry ----------------------------------------------------------------

_SUITES = {
    "bijection": suite_bijection,
    "normalize": suite_normalize,
    "equivariance": suite_equivariance,
    "design": suite_design,
    "orbitsum": suite_orbitsum,
    "gradcheck": suite_gradcheck,
    "decomposition": suite_decomposition,
    "powersum": suite_powersum,
    "count": suite_count,
}


def run_suite(name: str, max_n: int | None = None, trials: int | None = None, seed: int = 0) -> SuiteResult:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of {SUITE_NAMES} or 'all'")
    if max_n is not None:
        if max_n < 2:
            raise ValueError(f"max_n must be at least 2, got {max_n}")
        if max_n > suite_limit(name):
            raise ValueError(
                f"suite {name!r} is exhaustive; max_n {max_n} exceeds its cap {suite_limit(name)}"
            )
    kwargs = {"seed": seed}
    if max_n is not None:
        kwargs["max_n"] = max_n
    if trials is not None:
        kwargs["trials"] = trials
    return _SUITES[name](**kwargs)


def run_suites(name: str, max_n: int | None = None, trials: int | None = None, seed: int = 0):
    names = SUITE_NAMES if name == "all" else (name,)
    return [run_suite(s, max_n=max_n, trials=trials, seed=seed) for s in names]
