"""Model zoo: structure-agnostic MLPs, the edge-inferring graph network, and
the linear baseline (one affine map from the concatenated neurons to class
scores, which ``training.train`` fits with a one-vs-rest hinge loss), with
the two task heads (state classification and Markovian trajectory
prediction).

A NeuralModel runs three stages in a fixed order, on one path for both
tasks (``NeuralModel._stages``): an edge source (none, inferred, or a loaded
connectome), an optional gated recurrent stage, and a decoder, ``body`` then
``head``.  The graph network takes exactly one message-passing step H = A X
(``message_pass``) over ``NeuralModel.adjacency``, the one edge source;
inferred edges are one ``ad.edge_matrix`` node, or, for dynamic edges in
training and rollouts, one ``ad.edge_message`` node with the message pass.
``NeuralModel.fixed_adjacency`` alone decides whether a worm's edges are
fixed or re-inferred per frame.

The forward API is batched: ``NeuralModel.classify_logits``,
``NeuralModel.predict_residual`` and ``rollout_batch``; ``encode_edges``
returns the adjacency as arrays.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNorm, Parameter, Tensor
from .data import load_connectome_triples
from .rng import derive_rng
from .schema import check_field_types

ONE_HOT_TEMPERATURE = 0.05
CHECKPOINT_FORMAT = "wormgnn-checkpoint"
CHECKPOINT_VERSION = 2  # version 1 held node_mlp weights as one node{i}.* set per neuron


class ModuleKind(Enum):
    MLP = "mlp"
    NODE_MLP = "node_mlp"
    GNN = "gnn"
    LINEAR = "linear"


class Task(Enum):
    CLASSIFY = "classify"
    PREDICT = "predict"


class EdgeMode(Enum):
    """How a GNN gets its edges: inferred per timestep (dynamic), inferred
    once from every frame supplied (static: node embeddings averaged over the
    whole stack before pairing, so a worm's recording yields one fixed
    matrix), inferred once and saturated toward {0, 1} by the small softmax
    temperature ONE_HOT_TEMPERATURE (one-hot), or a loaded structural matrix
    (connectome)."""

    DYNAMIC = "dynamic"
    STATIC = "static"
    CONNECTOME = "connectome"
    ONE_HOT = "one_hot"


class Aggregation(Enum):
    CONCATENATE = "concatenate"
    SUM = "sum"


@dataclass
class ModelConfig:
    """A model's architecture.  Each field is checked against its annotation
    (``schema.check_value``); the linear baseline is rejected for prediction,
    and so are recurrent linear and node_mlp classifiers."""

    module_kind: ModuleKind
    task: Task
    n_neurons: int
    n_states: int = 2
    hidden_dim: int | None = None  # 16 for classification, 256 for prediction
    edge_mode: EdgeMode = EdgeMode.STATIC
    softmax_temperature: float = 1.0
    aggregation: Aggregation = Aggregation.CONCATENATE
    recurrent: bool = False
    include_self_edges: bool = True

    def __post_init__(self):
        check_field_types(self)
        if self.hidden_dim is None:
            self.hidden_dim = 16 if self.task is Task.CLASSIFY else 256
        if self.hidden_dim <= 0:
            raise ValueError(f"ModelConfig: hidden_dim must be > 0, got {self.hidden_dim}")
        if self.softmax_temperature <= 0:
            raise ValueError(
                f"ModelConfig: softmax_temperature must be > 0, got {self.softmax_temperature}"
            )
        if self.n_neurons < 1:
            raise ValueError(f"ModelConfig: n_neurons must be >= 1, got {self.n_neurons}")
        if (self.module_kind is ModuleKind.LINEAR and self.task is Task.PREDICT) or (
                self.recurrent and self.task is Task.CLASSIFY
                and self.module_kind in (ModuleKind.LINEAR, ModuleKind.NODE_MLP)):
            raise ValueError(f"ModelConfig: module_kind={self.module_kind.value} with task="
                             f"{self.task.value}, recurrent={self.recurrent} is not supported")

    def to_dict(self) -> dict:
        """Every field in declaration order, enums as their values."""
        raw = {f.name: getattr(self, f.name) for f in fields(self)}
        return {name: v.value if isinstance(v, Enum) else v for name, v in raw.items()}


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

class Linear:
    """``x @ w + b`` over the last axis, as one ``ad.linear`` node.  With
    ``n_neurons`` N, every neuron has its own weights: the weight is (N, in,
    out), the bias (N, 1, out), and the input (…, N, in) runs as one product
    batched over neurons, read back through views (node_mlp's predicting
    head).
    ``weight`` gives initial weights instead of drawing them from ``rng``."""

    def __init__(self, name: str, in_dim: int, out_dim: int, rng, n_neurons: int | None = None,
                 weight: np.ndarray | None = None):
        lead = () if n_neurons is None else (n_neurons, 1)
        if weight is None:
            weight = ad.uniform_init(rng, in_dim, lead[:1] + (in_dim, out_dim))
        self.weight = Parameter(f"{name}.weight", weight)
        self.bias = Parameter(f"{name}.bias", np.zeros(lead + (out_dim,)))
        self.per_neuron = n_neurons is not None

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x: Tensor, relu: bool = False) -> Tensor:
        if not self.per_neuron:
            return ad.linear(x, self.weight.tensor, self.bias.tensor, relu=relu)
        # (…, N, in) -> (N, M, in) -> (N, M, out) -> (…, N, out), every step a view
        rows = ad.swapaxes(ad.reshape(x, (math.prod(x.shape[:-2]),) + x.shape[-2:]), 0, 1)
        out = ad.linear(rows, self.weight.tensor, self.bias.tensor, relu=relu)
        return ad.reshape(ad.swapaxes(out, 0, 1), x.shape[:-1] + out.shape[-1:])


class TwoLayerMlp:
    """Linear + ReLU twice, optionally batch norm on the output.

    With ``n_neurons`` both layers (and the batch norm's statistics) are per
    neuron, as in ``Linear``; neuron i's fc1 weight is drawn, then its fc2
    weight, then neuron i + 1's, as if each neuron had a block of its own.
    Such a block runs as one ``ad.neuron_mlp`` node, which keeps no (…, N, h)
    activation; otherwise each ReLU is fused into the node of its layer
    (``linear(relu=True)``), so each layer keeps one activation array.

    The encoder and the edge MLP are built without batch norm, so inferred
    edges are a deterministic function of parameters and features in both
    modes; they only hold weights, which ``ad.edge_matrix`` runs.
    """

    def __init__(self, name: str, in_dim: int, hidden_dim: int, rng, batchnorm: bool = True,
                 n_neurons: int | None = None):
        lead = () if n_neurons is None else (n_neurons,)
        draws = [(ad.uniform_init(rng, in_dim, (in_dim, hidden_dim)),
                  ad.uniform_init(rng, hidden_dim, (hidden_dim, hidden_dim)))
                 for _ in range(n_neurons or 1)]
        w1, w2 = (np.stack(ws).reshape(lead + ws[0].shape) for ws in zip(*draws))
        self.fc1 = Linear(f"{name}.fc1", in_dim, hidden_dim, rng, n_neurons, weight=w1)
        self.fc2 = Linear(f"{name}.fc2", hidden_dim, hidden_dim, rng, n_neurons, weight=w2)
        self.bn = BatchNorm(lead + (hidden_dim,), name=f"{name}.bn") if batchnorm else None

    def parameters(self):
        params = self.fc1.parameters() + self.fc2.parameters()
        if self.bn is not None:
            params += self.bn.parameters()
        return params

    def forward(self, x: Tensor, training: bool) -> Tensor:
        if self.fc1.per_neuron:  # every neuron's layers and batch norm as one node
            layers = [p.tensor for p in self.fc1.parameters() + self.fc2.parameters()]
            return (ad.neuron_mlp(x, *layers)[0] if self.bn is None
                    else self.bn.apply(ad.neuron_mlp, training, x, *layers))
        h = self.fc2.forward(self.fc1.forward(x, relu=True), relu=True)
        return h if self.bn is None else self.bn.forward(h, training)


class LstmUnit:
    """Gated recurrent unit: the optional stage between edge source and decoder."""

    def __init__(self, name: str, in_dim: int, hidden_dim: int, rng):
        self.hidden_dim = hidden_dim
        self.w_x = Parameter(f"{name}.w_x", ad.uniform_init(rng, in_dim, (in_dim, 4 * hidden_dim)))
        self.w_h = Parameter(f"{name}.w_h", ad.uniform_init(rng, hidden_dim, (hidden_dim, 4 * hidden_dim)))
        self.bias = Parameter(f"{name}.bias", np.zeros(4 * hidden_dim))

    def parameters(self):
        return [self.w_x, self.w_h, self.bias]

    def initial_state(self, batch: int):
        zeros = np.zeros((batch, self.hidden_dim))
        return (Tensor(zeros), Tensor(zeros))

    def forward(self, x: Tensor, state):
        h, c = state
        h2, c2 = ad.lstm_cell(x, h, c, self.w_x.tensor, self.w_h.tensor, self.bias.tensor)
        return h2, (h2, c2)


def _offdiag_mask(n: int) -> np.ndarray:
    return 1.0 - np.eye(n)


def _checked_arrays(kind: str, given: dict, shapes: dict, optional: dict | None = None) -> dict:
    """``given`` as float64 arrays by name, once every name in ``shapes`` is
    present, no name outside ``shapes`` and ``optional`` is, and each array
    has its expected shape."""
    optional = optional or {}
    unknown = sorted(set(given) - set(shapes) - set(optional))
    if unknown:
        raise ValueError(f"unknown {kind} {unknown[0]}")
    missing = sorted(set(shapes) - set(given))
    if missing:
        raise ValueError(f"missing {kind}s {missing}")
    arrays = {}
    for name, values in given.items():
        arrays[name] = np.array(values, dtype=np.float64)
        expected = shapes[name] if name in shapes else optional[name]
        if arrays[name].shape != expected:
            raise ValueError(f"{kind} {name} shape {arrays[name].shape} != expected {expected}")
    return arrays


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class NeuralModel:
    """Parameters and the staged forward passes for one ModelConfig.

    Pooled layouts aggregate the neurons before the recurrent stage, and
    their body is the trunk MLP (``trunk.*``).  Per-node layouts keep the
    neuron axis, and their body is one two-layer MLP over it: node_mlp gives
    each neuron weights of its own (``node.*``, stacked on a leading neuron
    axis, with batch-norm statistics per neuron; predicting head
    ``node.head.*``), and the predicting GNN shares one set across nodes
    (``dec.*``, head ``dec_head.*``).  The linear baseline has no body; its
    head is the linear map (``linear.*``).  The GNN's edge source is the
    encoder (``enc.*``), the edge MLP (``edge.*``) and its head
    (``edge_head.*``).  Parameter shapes are a pure function of the config;
    initialization is a pure function of (config, master_seed), so blocks
    are built in a fixed order.
    """

    def __init__(self, config: ModelConfig, master_seed: int = 0):
        self.config = config
        rng = derive_rng(master_seed, "model-init", config.module_kind.value, config.task.value)
        n = config.n_neurons
        hidden = config.hidden_dim
        kind = config.module_kind
        classify = config.task is Task.CLASSIFY
        self._per_node = kind is ModuleKind.NODE_MLP or (kind is ModuleKind.GNN and not classify)
        self._blocks: list = []
        self.connectome: np.ndarray | None = None
        self.neuron_names: list[str] | None = None  # the data's neuron order; checkpoints keep it

        def block(b):
            self._blocks.append(b)
            return b

        # edge source; connectome mode uses a fixed structural matrix instead
        if kind is ModuleKind.GNN and config.edge_mode is not EdgeMode.CONNECTOME:
            self.encoder = block(TwoLayerMlp("enc", 2, hidden, rng, batchnorm=False))
            # the pair MLP's weights; the edge nodes run them with the encoder and the head
            self.edge_mlp = block(TwoLayerMlp("edge", 2 * hidden, hidden, rng, batchnorm=False))
            self.edge_head = block(Linear("edge_head", hidden, 2, rng))

        width = 2 if self._per_node or config.aggregation is Aggregation.SUM else 2 * n
        if config.recurrent:
            self.lstm = block(LstmUnit("lstm", width, hidden, rng))
            width = hidden

        # body and head; no batch norm in the autoregressive path: rollout
        # steps have no stable batch distribution, and the train/eval
        # statistics gap would dominate the residual scale
        self.body = None  # the linear baseline is its head alone
        if kind is ModuleKind.LINEAR:
            self.head = block(Linear("linear", width, config.n_states, rng))
        elif self._per_node:
            # one decoder per node: own weights per neuron in node_mlp, one set
            # shared by every node in the predicting GNN
            own = n if kind is ModuleKind.NODE_MLP else None
            self.body = block(TwoLayerMlp("node" if own else "dec", width, hidden, rng,
                                          batchnorm=classify, n_neurons=own))
            self.head = block(Linear("head", n * hidden, config.n_states, rng) if classify
                              else Linear("node.head" if own else "dec_head", hidden, 2, rng, own))
        else:
            self.body = block(TwoLayerMlp("trunk", width, hidden, rng, batchnorm=classify))
            self.head = block(Linear("head", hidden, config.n_states if classify else 2 * n, rng))

    # -- parameter bookkeeping ------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return [p for block in self._blocks for p in block.parameters()]

    def named_parameters(self) -> dict[str, Parameter]:
        named = {}
        for p in self.parameters():
            if p.name in named:
                raise ValueError(f"NeuralModel: duplicate parameter name {p.name}")
            named[p.name] = p
        return named

    def batchnorms(self) -> list[BatchNorm]:
        return [block.bn for block in self._blocks if getattr(block, "bn", None) is not None]

    def state(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Copies of every parameter and buffer by name, for ``load_state``:
        the one copy that checkpoints and ``train()``'s best-epoch restore
        use."""
        params = {name: p.data.copy() for name, p in self.named_parameters().items()}
        buffers = {name: v.copy() for bn in self.batchnorms() for name, v in bn.buffers().items()}
        if self.connectome is not None:
            buffers["connectome"] = self.connectome.copy()
        return params, buffers

    def load_state(self, params: dict, buffers: dict) -> None:
        """Set parameters and buffers from arrays by name; an unknown or missing
        parameter or buffer, or one of the wrong shape, raises naming it.  The
        connectome buffer is optional."""
        named = self.named_parameters()
        n = self.config.n_neurons
        params = _checked_arrays("parameter", params, {name: p.data.shape for name, p in named.items()})
        buffers = _checked_arrays(
            "buffer", buffers,
            {name: v.shape for bn in self.batchnorms() for name, v in bn.buffers().items()},
            optional={"connectome": (n, n)})
        for name, p in named.items():
            p.data = params[name]
        for bn in self.batchnorms():
            bn.load_buffers(buffers)
        if "connectome" in buffers:
            self.connectome = buffers["connectome"]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.tensor.zero_grad()

    def set_connectome(self, adjacency: np.ndarray) -> None:
        values = np.asarray(adjacency, dtype=np.float64)
        if values.shape != (self.config.n_neurons, self.config.n_neurons):
            raise ValueError(
                f"set_connectome: matrix shape {values.shape} != "
                f"({self.config.n_neurons}, {self.config.n_neurons})"
            )
        self.connectome = values

    # -- edge inference ---------------------------------------------------------

    def edge_temperature(self) -> float:
        if self.config.edge_mode is EdgeMode.ONE_HOT:
            return ONE_HOT_TEMPERATURE
        return self.config.softmax_temperature

    def edge_weights(self, feats: Tensor) -> Tensor:
        """Infer adjacency from features (…, N, 2): a (B, W, N, 2) stack or a
        (B, N, 2) frame.

        Static and one-hot modes average node embeddings over every frame
        supplied (the batch is one individual's windows, so the matrix is
        fixed for that whole temporal graph) and return (1, N, N); dynamic
        returns one matrix per frame, (…, N, N).

        One ``ad.edge_matrix`` node computes the edges from the features;
        its docstring gives the gate.  Dynamic edges in training and rollouts
        do not come here (``_stages``): this serves ``encode_edges`` and the
        ``edges`` command.
        """
        cfg = self.config
        if cfg.module_kind is not ModuleKind.GNN:
            raise ValueError("edge_weights: only the GNN module infers edges")
        if cfg.edge_mode is EdgeMode.CONNECTOME:
            raise ValueError("edge_weights: connectome edges are loaded, not inferred")
        n = cfg.n_neurons
        if feats.shape[-2] != n or feats.shape[-1] != 2:
            raise ValueError(f"edge_weights: expected (..., {n}, 2) features, got {feats.shape}")
        return ad.edge_matrix(feats, *self._edge_args(), fixed=cfg.edge_mode is not EdgeMode.DYNAMIC)

    def _edge_args(self) -> list:
        """The encoder's, edge MLP's and edge head's weights, the gate's
        temperature, and the self-edge weight of the connectome convention: 1
        when enabled, 0 when disabled."""
        weights = self.encoder.parameters() + self.edge_mlp.parameters() + self.edge_head.parameters()
        return [p.tensor for p in weights] + [self.edge_temperature(), float(self.config.include_self_edges)]

    def adjacency(self, feats: Tensor) -> Tensor:
        """The adjacency a GNN passes messages over, for features (…, N, 2);
        it broadcasts against them: the loaded connectome (N, N), with its
        diagonal zeroed when self edges are off, or ``edge_weights(feats)``."""
        cfg = self.config
        if cfg.edge_mode is not EdgeMode.CONNECTOME:
            return self.edge_weights(feats)
        if self.connectome is None:
            raise ValueError("adjacency: edge_mode=connectome but no connectome matrix was set")
        a = self.connectome
        return Tensor(a if cfg.include_self_edges else a * _offdiag_mask(cfg.n_neurons))

    def fixed_adjacency(self, frames: Tensor) -> Tensor | None:
        """The one owner of the fixed-edge decision: the adjacency every frame
        of a worm shares, the connectome or static or one-hot edges inferred
        from ``frames`` (…, N, 2), a worm's whole recording in training and
        evaluation; None when edges are inferred per frame (dynamic) or the
        model passes no messages."""
        cfg = self.config
        if cfg.module_kind is not ModuleKind.GNN or cfg.edge_mode is EdgeMode.DYNAMIC:
            return None
        return self.adjacency(frames)

    # -- batched forward passes -------------------------------------------------

    def _stages(self, x: Tensor, training: bool, adjacency: Tensor | None, rec_state):
        """The stages both tasks share, for a (B, W, N, 2) stack or a (B, N, 2)
        frame: message passing over ``adjacency`` (by default ``adjacency(x)``)
        for the GNN, aggregation over neurons for pooled layouts, the recurrent
        stage and the body.  Without a given ``adjacency``, dynamic edges and
        the message pass over them run as one ``ad.edge_message`` node, so no
        training step or rollout forms the (…, N, N) edges.  A classifier's
        recurrent stage steps through the stack's frames; a predictor's takes
        one step over the frame's rows.  Returns (the body's output,
        rec_state)."""
        cfg = self.config
        if cfg.module_kind is ModuleKind.GNN and adjacency is None and cfg.edge_mode is EdgeMode.DYNAMIC:
            x = ad.edge_message(x, *self._edge_args())
        elif cfg.module_kind is ModuleKind.GNN:
            x = message_pass(self.adjacency(x) if adjacency is None else adjacency, x)
        if not self._per_node:  # (…, N, 2) -> (…, 2N) in neuron order, or (…, 2) when summing
            x = (ad.reshape(x, x.shape[:-2] + (2 * cfg.n_neurons,))
                 if cfg.aggregation is Aggregation.CONCATENATE else x.sum(axis=-2))
        if cfg.recurrent:
            classify = cfg.task is Task.CLASSIFY
            outputs = []
            for rows in ad.split(x, [1] * x.shape[1], axis=1) if classify else [x]:
                lead = rows.shape[:-1]
                flat = rows if rows.ndim == 2 else ad.reshape(rows, (math.prod(lead), rows.shape[-1]))
                if rec_state is None:
                    rec_state = self.lstm.initial_state(flat.shape[0])
                out, rec_state = self.lstm.forward(flat, rec_state)
                outputs.append(out if rows.ndim == 2 else ad.reshape(out, lead + out.shape[-1:]))
            x = ad.concat(outputs, axis=1) if classify else outputs[0]
        return (x if self.body is None else self.body.forward(x, training)), rec_state

    def classify_logits(self, feats: Tensor, training: bool,
                        edge_feats: Tensor | None = None) -> Tensor:
        """Per-timestep class logits for a (B, W, N, 2) feature stack.

        ``edge_feats`` optionally supplies the frames fixed edges are
        inferred from (one individual's whole recording); by default the
        classified stack itself is used.  Per-node layouts concatenate the
        neurons' hidden vectors in neuron order into the head's input, a view
        of the body's C-ordered output.
        """
        cfg = self.config
        if cfg.task is not Task.CLASSIFY:
            raise ValueError("classify_logits: model was built for the Predict task")
        if feats.ndim != 4 or feats.shape[2] != cfg.n_neurons:
            raise ValueError(
                f"classify_logits: expected (B, W, {cfg.n_neurons}, 2), got {feats.shape}"
            )
        fixed = None if edge_feats is None else self.fixed_adjacency(edge_feats)
        h, _ = self._stages(feats, training, fixed, None)
        if self._per_node:  # the per-node hidden vectors, concatenated in neuron order
            h = ad.reshape(h, h.shape[:-2] + (h.shape[-2] * h.shape[-1],))
        return self.head.forward(h)

    def predict_residual(self, x: Tensor, training: bool, adjacency: Tensor | None = None,
                         rec_state=None):
        """Residual H for one batched frame (B, N, 2); returns (residual, rec_state)."""
        cfg = self.config
        if cfg.task is not Task.PREDICT:
            raise ValueError("predict_residual: model was built for the Classify task")
        if x.ndim != 3 or x.shape[1] != cfg.n_neurons or x.shape[2] != 2:
            raise ValueError(f"predict_residual: expected (B, {cfg.n_neurons}, 2), got {x.shape}")
        h, rec_state = self._stages(x, training, adjacency, rec_state)
        out = self.head.forward(h)
        return (out if self._per_node else ad.reshape(out, x.shape)), rec_state


# ---------------------------------------------------------------------------
# edge inspection, message passing, rollouts
# ---------------------------------------------------------------------------

def encode_edges(features, model: NeuralModel) -> np.ndarray:
    """The adjacency a GNN passes messages over (``NeuralModel.adjacency``)
    for a recording's frames (T, N, 2) or one frame (N, 2).

    Static, one-hot and connectome modes return one (N, N) matrix; dynamic
    returns one per frame, (T, N, N), from one ``edge_weights`` call, whose
    node runs the encoder and the pairs in frame chunks: besides the edges,
    memory holds one chunk's buffers.  ``NeuralModel.fixed_adjacency``
    decides which; a recording with no frames is an error.
    """
    frames = np.asarray(features, dtype=np.float64)
    if frames.ndim not in (2, 3):
        raise ValueError(f"features: expected (N, 2) or (T, N, 2), got shape {frames.shape}")
    if frames.ndim == 3 and not len(frames):  # no edges to infer, nor any to average
        raise ValueError(f"features: expected at least one frame, got shape {frames.shape}")
    if frames.ndim == 2:
        frames = frames[None]
    with ad.no_grad():
        fixed = model.fixed_adjacency(Tensor(frames[None]))
        if fixed is not None:
            return fixed.data.reshape(fixed.shape[-2:])
        return model.edge_weights(Tensor(frames[None])).data[0]


def load_connectome_edges(path, neuron_names, include_self_edges: bool = True) -> np.ndarray:
    """Structural adjacency restricted to ``neuron_names``, row-max normalized.

    Edges touching neurons outside the selected set are dropped; missing
    pairs default to weight 0; self-weights are set to 1 when self edges
    are enabled.
    """
    triples = load_connectome_triples(path)
    names = list(neuron_names)
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    weights = np.zeros((n, n))
    for src, dst, w in triples:
        if src in index and dst in index:
            weights[index[src], index[dst]] += w
    row_max = weights.max(axis=1, keepdims=True)
    np.divide(weights, row_max, out=weights, where=row_max > 0)
    if include_self_edges:
        np.fill_diagonal(weights, 1.0)
    return weights


def message_pass(adjacency: Tensor, features: Tensor) -> Tensor:
    """One message-passing step H = A X: adjacency (…, N, N), features
    (…, N, F), leading axes broadcast."""
    a, x = adjacency, features
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"message_pass: adjacency must be square, got {a.shape}")
    if x.ndim < 2 or x.shape[-2] != a.shape[-1]:
        raise ValueError(f"message_pass: features {x.shape} do not match adjacency {a.shape}")
    return ad.matmul(a, x)


def rollout_batch(model, teacher: np.ndarray, steps: int, sampling_prob: float = 0.0,
                  rng=None, training: bool = False, burn_in: int = 0,
                  edge_feats=None) -> Tensor:
    """Batched scheduled-sampling rollout; the workhorse behind training and eval.

    ``teacher`` holds aligned ground truth (B, L, N, 2) with frame 0 as the
    start; each step's input is the true frame with probability
    ``sampling_prob`` (coin per window per step), otherwise the model's own
    prediction.  Fixed edges (``fixed_adjacency``) come from ``edge_feats``
    (falling back to the teacher stack); dynamic edges are re-inferred
    from each input frame.  Returns the predictions as a
    (B, steps, N, 2) tensor in the gradient graph.
    """
    if steps < 1:
        raise ValueError(f"rollout: steps must be >= 1, got {steps}")
    if burn_in < 0:
        raise ValueError(f"rollout: burn_in must be >= 0, got {burn_in}")
    teacher = np.asarray(teacher, dtype=np.float64)
    if teacher.ndim != 4:
        raise ValueError(f"rollout: teacher must be (B, L, N, 2), got {teacher.shape}")
    batch, length = teacher.shape[0], teacher.shape[1]
    needed = burn_in + steps if (sampling_prob > 0 or burn_in > 0) else burn_in + 1
    if length < needed:
        raise ValueError(
            f"rollout: teacher has {length} frames but {needed} are needed "
            f"(burn_in={burn_in}, steps={steps})"
        )
    if sampling_prob > 0 and rng is None:
        raise ValueError("rollout: sampling_prob > 0 requires an rng")

    adjacency = model.fixed_adjacency(Tensor(teacher if edge_feats is None else edge_feats))

    state = None
    for k in range(burn_in):
        _, state = model.predict_residual(Tensor(teacher[:, k]), training, adjacency, state)

    x = Tensor(teacher[:, burn_in])
    outs = []
    for k in range(steps):
        x_in = x
        if sampling_prob > 0 and k > 0:
            coins = (rng.uniform(size=batch) < sampling_prob).astype(np.float64).reshape(batch, 1, 1)
            x_in = ad.add(Tensor(coins * teacher[:, burn_in + k]), ad.mul(Tensor(1.0 - coins), x))
        residual, state = model.predict_residual(x_in, training, adjacency, state)
        x = ad.add(x_in, residual)
        outs.append(ad.reshape(x, (batch, 1) + x.shape[1:]))
    return ad.concat(outs, axis=1)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: NeuralModel, path) -> None:
    """Named-parameter manifest + config, and the neuron names when the
    model has them; byte-stable for identical inputs."""
    params, buffers = model.state()
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        **({} if model.neuron_names is None else {"neuron_names": list(model.neuron_names)}),
        **{key: [{"name": name, "shape": list(arrays[name].shape),
                  "values": arrays[name].reshape(-1).tolist()} for name in sorted(arrays)]
           for key, arrays in (("parameters", params), ("buffers", buffers))},
    }
    Path(path).write_text(json.dumps(payload))


def _stack_v1_nodes(arrays: dict, current: dict) -> dict:
    """A version-1 node_mlp checkpoint's arrays with each set of per-neuron
    ``node{i}.<rest>`` arrays stacked into the ``node.<rest>`` array of
    ``current``'s shape; a set with a neuron missing is left as it is."""
    arrays = dict(arrays)
    for name, value in current.items():
        keys = [f"node{i}{name[4:]}" for i in range(len(value))] if name.startswith("node.") else []
        if keys and all(key in arrays for key in keys):
            arrays[name] = np.stack([arrays.pop(key) for key in keys]).reshape(value.shape)
    return arrays


def load_checkpoint(path) -> NeuralModel:
    """The model a checkpoint holds; version-1 files load too (node_mlp ones
    through ``_stack_v1_nodes``)."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"load_checkpoint: {path}: not valid JSON ({exc})") from None
    if not isinstance(raw, dict) or raw.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"load_checkpoint: {path}: top level is not a {CHECKPOINT_FORMAT} object")
    if raw.get("version") not in (1, CHECKPOINT_VERSION):
        raise ValueError(f"load_checkpoint: {path}: unsupported version {raw.get('version')}")
    try:
        # a config key ModelConfig does not take, or a missing one, is a TypeError naming it
        config = ModelConfig(**raw.get("config", {}))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"load_checkpoint: {path}: {exc}") from None
    model = NeuralModel(config)
    model.neuron_names = raw.get("neuron_names")
    if model.neuron_names is not None and (
            not isinstance(model.neuron_names, list) or len(model.neuron_names) != config.n_neurons
            or not all(isinstance(name, str) for name in model.neuron_names)):
        raise ValueError(f"load_checkpoint: {path}: neuron_names is not a list of "
                         f"{config.n_neurons} names")
    arrays = []
    for key in ("parameters", "buffers"):
        try:  # not a list of objects, an entry without a field, or values that are not numbers
            arrays.append({entry["name"]: np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
                           for entry in raw.get(key, [])})
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"load_checkpoint: {path}: {key} is not a list of name, shape and values "
                             f"entries ({exc!r})") from None
    try:
        if raw["version"] == 1 and config.module_kind is ModuleKind.NODE_MLP:
            arrays = [_stack_v1_nodes(given, current) for given, current in zip(arrays, model.state())]
        model.load_state(*arrays)
    except ValueError as exc:
        raise ValueError(f"load_checkpoint: {path}: {exc}") from None
    return model
