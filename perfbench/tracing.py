"""Per-layer spans and counts, recorded from outside the package.

A traced run replaces each measured function with a wrapper in the module
namespace the caller looks it up in (``mlp_forward_cached`` as imported into
``reynet.models``, ``adam_step`` as imported into ``reynet.train``, ...), so
nothing under ``src/`` changes.  Every call becomes a span holding its name,
start, end, parent span and the counts taken at that boundary.  Spans stay in
memory until the run ends; ``layer_metrics`` turns them into the per-layer
metrics.  A function that the package no longer has is listed in
``Tracer.absent`` and the run carries on without it.
"""

from __future__ import annotations

import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Span names, and the (module, attribute) pairs whose calls they record.
MLP_FORWARD = "nn.mlp_forward"
MLP_BACKWARD = "nn.mlp_backward"
ADAM = "nn.adam_step"
MSE_LOSS = "nn.mse_loss"
MODEL_FORWARD = "models.forward"
MODEL_BACKWARD = "models.backward"
TRANSFER = "models.transfer"
PLAN = "models.plan"
DESIGN = "groups.design"
LOOP = "train.loop"
BUILD = "train.build_model"
EVALUATE = "train.evaluate"
SAVE = "checkpoint.save"
LOAD = "checkpoint.load"

# Full forwards write every output entry: n^order_out component evaluations
# per sample.  Corner and pooled forwards are model spans but not full ones.
FULL_FORWARDS = ("forward_batch", "forward_batch_cached")

WRAPPED = (
    ("reynet.models", "mlp_forward", MLP_FORWARD),
    ("reynet.models", "mlp_forward_cached", MLP_FORWARD),
    ("reynet.models", "mlp_backward", MLP_BACKWARD),
    ("reynet.train", "mlp_forward", MLP_FORWARD),
    ("reynet.train", "mlp_forward_cached", MLP_FORWARD),
    ("reynet.train", "mlp_backward", MLP_BACKWARD),
    ("reynet.train", "adam_step", ADAM),
    ("reynet.train", "mse_loss", MSE_LOSS),
    ("reynet.models", "forward_batch", MODEL_FORWARD),
    ("reynet.models", "forward_batch_cached", MODEL_FORWARD),
    ("reynet.models", "backward_from_cache", MODEL_BACKWARD),
    ("reynet.train", "forward_batch", MODEL_FORWARD),
    ("reynet.train", "forward_batch_cached", MODEL_FORWARD),
    ("reynet.train", "corner_forward_batch_cached", MODEL_FORWARD),
    ("reynet.train", "invariant_forward_batch", MODEL_FORWARD),
    ("reynet.train", "invariant_forward_batch_cached", MODEL_FORWARD),
    ("reynet.train", "backward_from_cache", MODEL_BACKWARD),
    ("reynet.train", "corner_backward_from_cache", MODEL_BACKWARD),
    ("reynet.train", "invariant_backward_from_cache", MODEL_BACKWARD),
    ("reynet.train", "transfer_n", TRANSFER),
    ("reynet.train", "transfer_invariant", TRANSFER),
    ("reynet.models", "enumerate_design", DESIGN),
    ("reynet.train", "train_seed", LOOP),
    ("reynet.train", "build_model", BUILD),
    ("reynet.train", "evaluate_mse", EVALUATE),
    ("reynet.checkpoint", "save_checkpoint", SAVE),
    ("reynet.checkpoint", "load_checkpoint", LOAD),
)

# Per-layer metrics taken from spans: self time, whole duration, or a count.
SELF_TIMES = {
    MLP_FORWARD: "nn.mlp_forward_s",
    MLP_BACKWARD: "nn.mlp_backward_s",
    ADAM: "nn.adam_step_s",
    MSE_LOSS: "nn.mse_loss_s",
    MODEL_FORWARD: "models.forward_self_s",
    MODEL_BACKWARD: "models.backward_self_s",
    LOOP: "train.loop_self_s",
}
TOTAL_TIMES = {
    PLAN: "models.plan_s",
    TRANSFER: "models.transfer_s",
    DESIGN: "groups.design_s",
    EVALUATE: "train.evaluate_s",
    SAVE: "checkpoint.save_s",
    LOAD: "checkpoint.load_s",
}
COUNTS = {
    MLP_FORWARD: ("nn.mlp_rows", lambda s: s.rows),
    ADAM: ("nn.adam_steps", lambda s: 1),
    SAVE: ("checkpoint.bytes", lambda s: s.bytes),
}

# name -> unit, in the order BENCHMARK.json lists the per-layer metrics.
LAYER_UNITS = {
    "nn.mlp_forward_s": "s",
    "nn.mlp_backward_s": "s",
    "nn.mlp_rows": "count",
    "nn.mlp_gflop_per_s": "GFLOP/s",
    "nn.adam_step_s": "s",
    "nn.adam_steps": "count",
    "nn.mse_loss_s": "s",
    "models.forward_self_s": "s",
    "models.backward_self_s": "s",
    "models.evals_per_sample": "count",
    "models.plan_s": "s",
    "models.transfer_s": "s",
    "groups.design_s": "s",
    "train.loop_self_s": "s",
    "train.evaluate_s": "s",
    "train.rows_per_chunk_max": "count",
    "checkpoint.save_s": "s",
    "checkpoint.load_s": "s",
    "checkpoint.bytes": "count",
}


@dataclass
class Span:
    name: str
    fn: str
    parent: int | None
    timed: bool
    start: float
    end: float = 0.0
    ok: bool = False
    rows: int = 0  # rows entering an MLP call
    flop: float = 0.0  # nominal dense-layer FLOP of an MLP call
    samples: int = 0  # samples entering a full model forward
    expected_evals: int = 0  # samples * n^order_out for a full forward
    bytes: int = 0  # size of a written checkpoint
    children: list[int] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    if not shape:
        return 0
    rows = 1
    for d in shape[:-1]:
        rows *= int(d)
    return rows


def _dense_flop(params) -> int:
    """2 * d_in * d_out per row and layer: one multiply-add per weight."""
    dims = getattr(params, "dims", ())
    return sum(2 * a * b for a, b in zip(dims, dims[1:]))


class Tracer:
    """Spans of the wrapped package functions, kept in memory for one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.enabled = True  # off while the benchmark checks outputs
        self.timed = False  # set once the workload's set-up has finished
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, attr))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _open(self, name: str, fn: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, fn, parent, self.timed, 0.0)
        self.spans.append(span)
        index = len(self.spans) - 1
        if parent is not None:
            self.spans[parent].children.append(index)
        self._stack.append(index)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around its own call."""
        span = self._open(name, "")
        try:
            yield span
            span.ok = True
        finally:
            self._close(span)

    def _wrap(self, original, name: str, attr: str):
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = self._open(name, attr)
            try:
                self._count_entry(span, args)
                result = original(*args, **kwargs)
                span.ok = True
            finally:
                self._close(span)
            if name == SAVE and args:
                span.bytes = os.path.getsize(args[0])
            return result

        traced.__wrapped__ = original
        return traced

    @staticmethod
    def _count_entry(span: Span, args) -> None:
        # the package passes (params, x) and (params, acts, upstream) by position
        if span.name == MLP_FORWARD and len(args) > 1:
            span.rows = _rows(args[1])
            span.flop = float(span.rows * _dense_flop(args[0]))
        elif span.name == MLP_BACKWARD and len(args) > 2:
            span.rows = _rows(args[2])
            # the weight and the input gradient: twice the forward work
            span.flop = float(2 * span.rows * _dense_flop(args[0]))
        elif span.fn in FULL_FORWARDS and len(args) > 1:
            model, flat_x = args[0], args[1]
            span.samples = int(flat_x.shape[0])
            span.expected_evals = span.samples * int(model.n) ** int(model.order_out)

    def _full_forwards(self):
        """(span, component evaluations made) for each finished full forward."""
        for s in self.spans:
            if s.name == MODEL_FORWARD and s.fn in FULL_FORWARDS and s.ok:
                children = (self.spans[c] for c in s.children)
                yield s, sum(c.rows for c in children if c.name == MLP_FORWARD)

    def evaluation_counts(self) -> list[tuple[int, int]]:
        """(counted, expected) component evaluations per finished full forward."""
        return [(counted, s.expected_evals) for s, counted in self._full_forwards()]

    def _subtree_rows(self) -> list[int]:
        """MLP forward rows entering each span or any span below it."""
        sub = [s.rows if s.name == MLP_FORWARD else 0 for s in self.spans]
        # children are appended after their parent, so a reverse walk is
        # a post-order walk
        for i in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[i].parent
            if parent is not None:
                sub[parent] += sub[i]
        return sub

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one average timed round.

        A span's self time is its duration minus that of the spans it called.
        Spans opened during set-up count once, spans of the timed rounds count
        divided by the number of rounds.
        """
        total: dict[str, float] = {k: 0.0 for k in LAYER_UNITS}
        mlp_flop = mlp_seconds = 0.0
        for s in self.spans:
            weight = 1.0 / rounds if s.timed else 1.0
            own = s.seconds - sum(self.spans[c].seconds for c in s.children)
            if s.name in SELF_TIMES:
                total[SELF_TIMES[s.name]] += own * weight
            if s.name in TOTAL_TIMES:
                total[TOTAL_TIMES[s.name]] += s.seconds * weight
            if s.name in COUNTS:
                key, count = COUNTS[s.name]
                total[key] += count(s) * weight
            if s.name in (MLP_FORWARD, MLP_BACKWARD) and s.ok:
                mlp_flop += s.flop
                mlp_seconds += own
        total["nn.mlp_gflop_per_s"] = mlp_flop / mlp_seconds / 1e9 if mlp_seconds else 0.0
        full = list(self._full_forwards())
        samples = sum(s.samples for s, _ in full)
        total["models.evals_per_sample"] = sum(c for _, c in full) / samples if samples else 0.0
        sub = self._subtree_rows()
        chunks = (sub[c] for s in self.spans if s.name == EVALUATE for c in s.children)
        total["train.rows_per_chunk_max"] = float(max(chunks, default=0))
        return total
