"""Outside-in tracing of the wormgnn package for the benchmark's traced runs.

A ``Tracer`` wraps public functions and methods of each package module
(``autodiff``, ``models``, ``training``, ``evaluation``, ``data``, ``synth``,
``cli``) from the benchmark's own code; nothing under ``src/`` changes.  A
name bound into another module with ``from ... import`` is replaced in every
module that holds it, so ``training.rollout_batch`` and
``evaluation.rollout_batch`` are both traced.

Each call records a span (name, start, end, parent span, run id) in flat
in-memory arrays; ``save`` writes them out when the benchmark ends.  A run id
labels one operation (a setup, one training cell, a rollout, a sweep), so
figures can be split per cell kind.  Worker processes forked while tracing is
on get the original functions back, so they pay nothing.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Public autodiff ops; each returns one tensor built by ``autodiff._make``,
# except ``lstm_cell``, which builds its output from the other ops.
OPS = ("add", "sub", "mul", "scale", "matmul", "relu", "softmax", "log", "sigmoid",
       "tanh", "power", "concat", "tensor_sum", "tensor_mean", "reshape",
       "index_select", "lstm_cell")
OP_PREFIX = "autodiff.op."

# (module, function, span name).  Span names of ops carry OP_PREFIX.
FUNCTIONS = tuple(("autodiff", op, OP_PREFIX + op) for op in OPS) + (
    ("autodiff", "backward", "autodiff.backward"),
    ("models", "rollout_batch", "models.rollout_batch"),
    ("training", "train", "training.train"),
    ("training", "_validation_loss", "training.validation"),
    ("training", "_evaluate_run", "training.final_eval"),
    ("training", "nll_loss", "training.loss"),
    ("training", "mse_loss", "training.loss"),
    ("training", "prepare_worms", "training.prepare"),
    ("evaluation", "per_step_mse", "evaluation.per_step_mse"),
    ("evaluation", "confusion_matrix", "evaluation.confusion"),
    ("data", "load_recording", "data.load_recording"),
    ("data", "normalize_recording", "data.normalize"),
    ("data", "windowize", "data.windowize"),
    ("data", "assign_folds", "data.assign_folds"),
    ("synth", "generate_worm", "synth.generate_worm"),
    ("cli", "_load_recordings", "cli.parent_load"),
    ("cli", "_write_json", "cli.write"),
)

# (module, class, method, span name)
METHODS = (
    ("models", "NeuralModel", "edge_weights", "models.edge_weights"),
    ("models", "NeuralModel", "classify_logits", "models.classify_logits"),
    ("models", "NeuralModel", "predict_residual", "models.predict_residual"),
    ("training", "AdamState", "step", "training.adam_step"),
)

# Model blocks, labelled by the prefix of their first parameter's name with
# any neuron index dropped ("node3.fc1.weight" -> "node").
BLOCK_PREFIX = "models.block."
BLOCK_LABELS = ("enc", "edge", "edge_head", "trunk", "head", "dec", "dec_head", "node", "lstm")
BLOCKS = (
    ("TwoLayerMlp", lambda block: block.fc1.weight.name),
    ("Linear", lambda block: block.weight.name),
    ("LstmUnit", lambda block: block.w_x.name),
)

# Counters recorded at layer boundaries (not spans).
GRAPH_REACHED = "autodiff.graph_reached"
ROLLOUT_WINDOWS = "evaluation.rollout_windows"


def _block_label(param_name: str) -> str:
    return param_name.split(".", 1)[0].rstrip("0123456789")


class Tracer:
    """Span recorder that patches the package while installed."""

    def __init__(self):
        self._name_ids: dict[str, int] = {}
        self.names: list[str] = []
        self.runs: list[str] = []
        self._name = array("i")
        self._parent = array("q")
        self._run = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self._current_run = -1
        self.counters: dict[tuple[int, str], int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self.uninstall)

    # -- recording -----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._run.append(self._current_run)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: int) -> None:
        self.counters[(self._current_run, key)] += amount

    @contextmanager
    def run(self, label: str):
        """Attribute the spans and counts recorded inside to a new run id."""
        self.runs.append(label)
        previous, self._current_run = self._current_run, len(self.runs) - 1
        try:
            yield self._current_run
        finally:
            self._current_run = previous

    # -- patching ------------------------------------------------------------

    def _span_wrapper(self, fn, name: str):
        name_id = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _block_wrapper(self, fn, param_name_of):
        @functools.wraps(fn)
        def traced(block, *args, **kwargs):
            idx = self._open(self._intern(BLOCK_PREFIX + _block_label(param_name_of(block))))
            try:
                return fn(block, *args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _counting_topo_order(self, fn):
        @functools.wraps(fn)
        def counted(root):
            order = fn(root)
            self.count(GRAPH_REACHED, sum(1 for node in order if node._backward_fn is not None))
            return order

        return counted

    def _counting_rollout_error(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            used, skipped = fn(*args, **kwargs)
            self.count(ROLLOUT_WINDOWS, used)
            return used, skipped

        return counted

    def _replace_everywhere(self, original, replacement) -> None:
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("wormgnn"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _replace_attr(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer: already installed")
        from wormgnn import autodiff, cli, data, evaluation, models, synth, training

        modules = {"autodiff": autodiff, "models": models, "training": training,
                   "evaluation": evaluation, "data": data, "synth": synth, "cli": cli}
        for module_name, attr, name in FUNCTIONS:
            original = getattr(modules[module_name], attr)
            self._replace_everywhere(original, self._span_wrapper(original, name))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(modules[module_name], cls_name)
            self._replace_attr(cls, attr, self._span_wrapper(cls.__dict__[attr], name))
        for cls_name, param_name_of in BLOCKS:
            cls = getattr(models, cls_name)
            wrapper = self._block_wrapper(cls.__dict__["forward"], param_name_of)
            self._replace_attr(cls, "forward", wrapper)
        self._replace_everywhere(autodiff._topo_order,
                                 self._counting_topo_order(autodiff._topo_order))
        self._replace_everywhere(evaluation._accumulate_rollout_error,
                                 self._counting_rollout_error(evaluation._accumulate_rollout_error))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self._run, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def save(self, path: Path) -> None:
        """Write every span plus the name and run tables as one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(json.dumps(self.names)),
                 runs=np.array(json.dumps(self.runs)), **self.arrays())


class SpanTotals:
    """Per-run sums of span counts, self times and outermost times.

    A span's self time is its duration minus the time its child spans cover.
    Its outermost time counts a span only when no ancestor has the same name,
    so a block nested in a block of the same label, or a recursive call, is
    not counted twice.
    """

    def __init__(self, tracer: Tracer):
        spans = tracer.arrays()
        self.names = list(tracer.names)
        self.runs = list(tracer.runs)
        self.counters = dict(tracer.counters)
        name, parent, self._run = spans["name"], spans["parent"], spans["run"]
        self._name = name
        dur = spans["end"] - spans["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        self._self = dur - child
        outermost = np.ones(name.size, dtype=bool)
        ancestor = parent.copy()
        while (ancestor >= 0).any():
            live = ancestor >= 0
            safe = np.where(live, ancestor, 0)
            outermost &= ~(live & (name[safe] == name))
            ancestor = np.where(live, parent[safe], -1)
        self._dur = dur
        self._outermost = outermost

    def group(self, run_ids) -> dict[str, dict]:
        """{span name: {count, self_s, outer_s}} plus counters, over ``run_ids``."""
        run_ids = list(run_ids)
        mask = np.isin(self._run, run_ids)
        k = len(self.names)
        names = self._name[mask]
        count = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=self._self[mask], minlength=k)
        outer = mask & self._outermost
        outer_s = np.bincount(self._name[outer], weights=self._dur[outer], minlength=k)
        spans = {
            n: {"count": int(count[i]), "self_s": float(self_s[i]), "outer_s": float(outer_s[i])}
            for i, n in enumerate(self.names)
        }
        counters: dict[str, int] = defaultdict(int)
        for (run, key), value in self.counters.items():
            if run in run_ids:
                counters[key] += value
        return {"spans": spans, "counters": dict(counters)}


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# Cell kinds that never infer edges; edge-path changes must leave them alone.
MLP_KINDS = ("mlp", "node_mlp", "predict_mlp")

_TIMED_SPANS = {
    "autodiff.backward_s": "autodiff.backward",
    "models.edge_weights_s": "models.edge_weights",
    "models.classify_logits_s": "models.classify_logits",
    "models.predict_residual_s": "models.predict_residual",
    "models.rollout_batch_s": "models.rollout_batch",
    "training.adam_step_s": "training.adam_step",
    "training.validation_s": "training.validation",
    "training.final_eval_s": "training.final_eval",
    "training.loss_s": "training.loss",
    "training.prepare_s": "training.prepare",
    "evaluation.per_step_mse_s": "evaluation.per_step_mse",
    "evaluation.confusion_s": "evaluation.confusion",
    "data.load_recording_s": "data.load_recording",
    "data.normalize_s": "data.normalize",
    "data.windowize_s": "data.windowize",
    "data.assign_folds_s": "data.assign_folds",
    "synth.generate_worm_s": "synth.generate_worm",
    "cli.parent_load_s": "cli.parent_load",
    "cli.write_s": "cli.write",
}
_COUNTED_SPANS = {
    "autodiff.backward_calls": "autodiff.backward",
    "models.edge_weights_calls": "models.edge_weights",
}

# Additive values that must repeat exactly between repetitions of one input.
EXACT_COUNTS = (
    tuple(f"autodiff.ops.{op}" for op in OPS)
    + ("autodiff.backward_calls", "models.edge_weights_calls", ROLLOUT_WINDOWS,
       GRAPH_REACHED, "autodiff.graph_built")
)


def _additive_values(group: dict) -> dict[str, float]:
    spans, counters = group["spans"], group["counters"]

    def field(name, key):
        return spans[name][key] if name in spans else 0

    values: dict[str, float] = {}
    for metric, name in _TIMED_SPANS.items():
        values[metric] = field(name, "outer_s")
    for metric, name in _COUNTED_SPANS.items():
        values[metric] = field(name, "count")
    for op in OPS:
        values[f"autodiff.ops.{op}"] = field(OP_PREFIX + op, "count")
        values[f"autodiff.op_s.{op}"] = field(OP_PREFIX + op, "self_s")
    for label in BLOCK_LABELS:
        values[f"models.block_s.{label}"] = field(BLOCK_PREFIX + label, "outer_s")
    values["autodiff.graph_built"] = sum(
        field(OP_PREFIX + op, "count") for op in OPS if op != "lstm_cell")
    values[GRAPH_REACHED] = counters.get(GRAPH_REACHED, 0)
    values[ROLLOUT_WINDOWS] = counters.get(ROLLOUT_WINDOWS, 0)
    return values


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(totals: SpanTotals,
                      reps: list[list[int]]) -> tuple[dict[str, float], list[dict]]:
    """Per-layer metrics of one traced run, plus each iteration's exact counts.

    ``reps`` holds the run ids of each traced iteration (its set-up and its
    operation).  Additive values are medians over iterations; shares are
    computed from those medians.  Kind-specific figures use the runs
    labelled with that cell kind.
    """
    per_rep = [_additive_values(totals.group(rep)) for rep in reps]
    values = {k: float(np.median([r[k] for r in per_rep])) for k in per_rep[0]}

    def of_kind(rep, kinds):
        return [run for run in rep if totals.runs[run] in kinds]

    mlp_calls, enc_share, val_share = [], [], []
    for rep in reps:
        mlp = totals.group(of_kind(rep, MLP_KINDS))["spans"]
        mlp_calls.append(mlp.get("models.edge_weights", {}).get("count", 0))
        static = totals.group(of_kind(rep, ("gnn_static",)))["spans"]

        def outer(name):
            return static.get(name, {}).get("outer_s", 0.0)

        enc_share.append(_share(outer(BLOCK_PREFIX + "enc"), outer("models.classify_logits")))
        val_share.append(_share(outer("training.validation"), outer("training.train")))
    values["models.edge_weights_calls_mlp_cells"] = float(np.median(mlp_calls))
    values["models.enc_share_gnn_static"] = float(np.median(enc_share))
    values["training.validation_share_gnn_static"] = float(np.median(val_share))
    values["autodiff.grad_graph_share"] = _share(values.pop(GRAPH_REACHED),
                                                 values.pop("autodiff.graph_built"))
    counts = [{k: r[k] for k in EXACT_COUNTS} for r in per_rep]
    return values, counts
