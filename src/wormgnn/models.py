"""Model zoo: structure-agnostic MLPs, the edge-inferring graph network, and
a linear hinge-loss baseline, with the two task heads (state classification
and Markovian trajectory prediction).

A NeuralModel runs three stages in a fixed order: an edge source (none,
inferred, or a loaded connectome), an optional gated recurrent stage, and a
decoder, either pooled (the aggregated neurons through a trunk MLP and head,
or the linear map) or per-node (one MLP per neuron for node_mlp, one decoder
shared by every node for the predicting GNN).  The graph network encodes
node features, scores every ordered neuron pair with a two-dimensional
softmax whose second component is the edge weight, and performs exactly one
message-passing step H = A X.  Edges are inferred per timestep (dynamic),
once for all frames supplied (static; node embeddings averaged over the
whole stack before pairing, so a worm's recording yields one fixed matrix),
or saturated toward {0,1} with a small softmax temperature (one-hot).
ModelConfig rejects the linear baseline for prediction and recurrent linear
or node_mlp classifiers.

Forward passes accept batched feature stacks (batch, W, N, 2); the public
single-timestep operations wrap the batched paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNorm, Parameter, Tensor
from .data import load_connectome_triples
from .rng import derive_rng

ONE_HOT_TEMPERATURE = 0.05
CHECKPOINT_FORMAT = "wormgnn-checkpoint"
CHECKPOINT_VERSION = 1


class ModuleKind(Enum):
    MLP = "mlp"
    NODE_MLP = "node_mlp"
    GNN = "gnn"
    LINEAR = "linear"


class Task(Enum):
    CLASSIFY = "classify"
    PREDICT = "predict"


class EdgeMode(Enum):
    DYNAMIC = "dynamic"
    STATIC = "static"
    CONNECTOME = "connectome"
    ONE_HOT = "one_hot"


class Aggregation(Enum):
    CONCATENATE = "concatenate"
    SUM = "sum"


@dataclass
class AdjacencyMatrix:
    """N x N edge weights; inferred entries live in [0, 1]."""

    weights: Tensor
    mode: EdgeMode
    timestep: int | None = None  # Dynamic only

    @property
    def values(self) -> np.ndarray:
        return self.weights.data


@dataclass
class ModelConfig:
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
        for name, enum in (("module_kind", ModuleKind), ("task", Task), ("edge_mode", EdgeMode),
                           ("aggregation", Aggregation)):
            setattr(self, name, enum(getattr(self, name)))
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
        return {
            "module_kind": self.module_kind.value,
            "task": self.task.value,
            "n_neurons": self.n_neurons,
            "n_states": self.n_states,
            "hidden_dim": self.hidden_dim,
            "edge_mode": self.edge_mode.value,
            "softmax_temperature": self.softmax_temperature,
            "aggregation": self.aggregation.value,
            "recurrent": self.recurrent,
            "include_self_edges": self.include_self_edges,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "ModelConfig":
        return cls(**raw)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

class Linear:
    def __init__(self, name: str, in_dim: int, out_dim: int, rng):
        self.weight = Parameter(f"{name}.weight", ad.uniform_init(rng, in_dim, (in_dim, out_dim)))
        self.bias = Parameter(f"{name}.bias", np.zeros(out_dim))

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x: Tensor) -> Tensor:
        return ad.add(ad.matmul(x, self.weight.tensor), self.bias.tensor)


class TwoLayerMlp:
    """Linear + ReLU twice, optionally batch norm on the output.

    The edge-inference path runs without batch norm so that inferred edges
    are a deterministic function of parameters and features in both modes;
    the module trunks keep it.
    """

    def __init__(self, name: str, in_dim: int, hidden_dim: int, rng, batchnorm: bool = True):
        self.fc1 = Linear(f"{name}.fc1", in_dim, hidden_dim, rng)
        self.fc2 = Linear(f"{name}.fc2", hidden_dim, hidden_dim, rng)
        self.bn = BatchNorm(hidden_dim, name=f"{name}.bn") if batchnorm else None

    def parameters(self):
        params = self.fc1.parameters() + self.fc2.parameters()
        if self.bn is not None:
            params += self.bn.parameters()
        return params

    def forward(self, x: Tensor, training: bool) -> Tensor:
        h = ad.relu(self.fc1.forward(x))
        h = ad.relu(self.fc2.forward(h))
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


def _pair_indices(n: int):
    grid_i, grid_j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    return grid_i.reshape(-1), grid_j.reshape(-1)


def _offdiag_mask(n: int) -> np.ndarray:
    return 1.0 - np.eye(n)


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class NeuralModel:
    """Parameters and the staged forward passes for one ModelConfig.

    Pooled layouts aggregate the neurons before the recurrent stage; per-node
    layouts (node_mlp, predicting GNN) keep the neuron axis.  Parameter shapes
    are a pure function of the config; initialization is a pure function of
    (config, master_seed), so blocks are built in a fixed order.
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

        def block(b):
            self._blocks.append(b)
            return b

        # edge source; connectome mode uses a fixed structural matrix instead
        if kind is ModuleKind.GNN and config.edge_mode is not EdgeMode.CONNECTOME:
            self.encoder = block(TwoLayerMlp("enc", 2, hidden, rng, batchnorm=False))
            self.edge_mlp = block(TwoLayerMlp("edge", 2 * hidden, hidden, rng, batchnorm=False))
            self.edge_head = block(Linear("edge_head", hidden, 2, rng))

        width = 2 if self._per_node or config.aggregation is Aggregation.SUM else 2 * n
        if config.recurrent:
            self.lstm = block(LstmUnit("lstm", width, hidden, rng))
            width = hidden

        # decoder; no batch norm in the autoregressive path: rollout steps have
        # no stable batch distribution, and the train/eval statistics gap
        # would dominate the residual scale
        if kind is ModuleKind.LINEAR:
            self.linear = block(Linear("linear", width, config.n_states, rng))
        elif kind is ModuleKind.NODE_MLP:
            self.node_blocks = [block(TwoLayerMlp(f"node{i}", width, hidden, rng, batchnorm=classify))
                                for i in range(n)]
            if classify:
                self.head = block(Linear("head", n * hidden, config.n_states, rng))
            else:
                self.node_heads = [block(Linear(f"node{i}.head", hidden, 2, rng)) for i in range(n)]
        elif self._per_node:  # predicting GNN: one decoder shared by every node
            self.decoder = block(TwoLayerMlp("dec", width, hidden, rng, batchnorm=False))
            self.dec_head = block(Linear("dec_head", hidden, 2, rng))
        else:
            self.trunk = block(TwoLayerMlp("trunk", width, hidden, rng, batchnorm=classify))
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

    def buffers(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for bn in self.batchnorms():
            out.update(bn.buffers())
        if self.connectome is not None:
            out["connectome"] = self.connectome
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.tensor.zero_grad()

    def set_connectome(self, adjacency: "AdjacencyMatrix | np.ndarray") -> None:
        values = adjacency.values if isinstance(adjacency, AdjacencyMatrix) else np.asarray(adjacency)
        if values.shape != (self.config.n_neurons, self.config.n_neurons):
            raise ValueError(
                f"set_connectome: matrix shape {values.shape} != "
                f"({self.config.n_neurons}, {self.config.n_neurons})"
            )
        self.connectome = np.asarray(values, dtype=np.float64)

    # -- edge inference ---------------------------------------------------------

    def edge_temperature(self) -> float:
        if self.config.edge_mode is EdgeMode.ONE_HOT:
            return ONE_HOT_TEMPERATURE
        return self.config.softmax_temperature

    def edge_weights(self, feats: Tensor, training: bool) -> Tensor:
        """Infer adjacency from a batched feature stack (B, W, N, 2).

        Static and one-hot modes average node embeddings over every frame
        supplied (the batch is one individual's windows, so the matrix is
        fixed for that whole temporal graph) and return (1, N, N); dynamic
        returns one matrix per timestep, (B, W, N, N).
        """
        cfg = self.config
        if cfg.module_kind is not ModuleKind.GNN:
            raise ValueError("edge_weights: only the GNN module infers edges")
        if cfg.edge_mode is EdgeMode.CONNECTOME:
            raise ValueError("edge_weights: connectome edges are loaded, not inferred")
        n = cfg.n_neurons
        if feats.shape[-2] != n or feats.shape[-1] != 2:
            raise ValueError(f"edge_weights: expected (..., {n}, 2) features, got {feats.shape}")
        hidden = self.encoder.forward(feats, training)  # (B, W, N, h)
        if cfg.edge_mode in (EdgeMode.STATIC, EdgeMode.ONE_HOT):
            hidden = ad.reshape(hidden.mean(axis=(0, 1)), (1, n, hidden.shape[-1]))
            node_axis = 1
        else:
            node_axis = 2
        idx_i, idx_j = _pair_indices(n)
        h_i = ad.index_select(hidden, node_axis, idx_i)
        h_j = ad.index_select(hidden, node_axis, idx_j)
        pair = ad.concat([h_i, h_j], axis=-1)
        logits = self.edge_head.forward(self.edge_mlp.forward(pair, training))
        probs = ad.softmax(logits, axis=-1, temperature=self.edge_temperature())
        # the edge weight is the second softmax component
        w = ad.index_select(probs, -1, [1])
        shape = (1, n, n) if node_axis == 1 else (feats.shape[0], feats.shape[1], n, n)
        w = ad.reshape(w, shape)
        # self edges follow the connectome convention: weight 1 when enabled,
        # 0 when disabled; ordered pairs i != j keep their inferred weight
        w = ad.mul(w, Tensor(_offdiag_mask(n)))
        if cfg.include_self_edges:
            w = ad.add(w, Tensor(np.eye(n)))
        return w

    def _adjacency_for(self, feats: Tensor, training: bool) -> Tensor:
        """(B, W, N, N) or broadcastable (B, 1, N, N) adjacency for a feature stack."""
        cfg = self.config
        if cfg.edge_mode is EdgeMode.CONNECTOME:
            if self.connectome is None:
                raise ValueError("forward: edge_mode=connectome but no connectome matrix was set")
            a = self.connectome
            if not cfg.include_self_edges:
                a = a * _offdiag_mask(cfg.n_neurons)
            return Tensor(a.reshape((1, 1) + a.shape))
        w = self.edge_weights(feats, training)
        if w.ndim == 3:  # static: one matrix shared by every frame
            return ad.reshape(w, (w.shape[0], 1, w.shape[1], w.shape[2]))
        return w

    # -- batched forward passes -------------------------------------------------

    def _edge_stage(self, x: Tensor, training: bool, adjacency: Tensor | None = None,
                    edge_feats: Tensor | None = None) -> Tensor:
        """Edge source for a (B, W, N, 2) stack or (B, N, 2) frame: H = A X for
        the GNN, with A given, loaded, or inferred from ``edge_feats`` (static
        modes) or ``x`` itself; x unchanged for the other kinds."""
        if self.config.module_kind is not ModuleKind.GNN:
            return x
        if adjacency is not None:
            return ad.matmul(adjacency, x)
        if x.ndim == 3:  # one frame: a one-frame stack supplies its own edges
            stack = ad.reshape(x, (x.shape[0], 1) + x.shape[1:])
            return ad.reshape(self._edge_stage(stack, training), x.shape)
        if self.config.edge_mode is EdgeMode.DYNAMIC or edge_feats is None:
            edge_feats = x
        return ad.matmul(self._adjacency_for(edge_feats, training), x)

    def _aggregate(self, feats: Tensor) -> Tensor:
        """(…, N, 2) -> (…, 2N) in fixed neuron order, or (…, 2) when summing."""
        if self.config.aggregation is Aggregation.CONCATENATE:
            return ad.reshape(feats, feats.shape[:-2] + (2 * self.config.n_neurons,))
        return feats.sum(axis=-2)

    def _recurrent_step(self, x: Tensor, state=None):
        """One gated-cell step over pooled (B, F) or per-node (B, N, F) input."""
        flat = x if x.ndim == 2 else ad.reshape(x, (x.shape[0] * x.shape[1], x.shape[2]))
        if state is None:
            state = self.lstm.initial_state(flat.shape[0])
        out, state = self.lstm.forward(flat, state)
        if x.ndim == 3:
            out = ad.reshape(out, x.shape[:2] + (self.lstm.hidden_dim,))
        return out, state

    def _pooled_hidden(self, x: Tensor, training: bool, rec_state=None) -> Tensor:
        """Aggregate a (B, W, N, F) stack, run the recurrent stage across the
        window and the trunk; (B, W, hidden)."""
        x = self._aggregate(x)
        if self.config.recurrent:
            batch, width = x.shape[0], x.shape[1]
            outputs = []
            for t in range(width):
                frame = ad.index_select(x, 1, [t]).reshape((batch, x.shape[2]))
                out, rec_state = self._recurrent_step(frame, rec_state)
                outputs.append(ad.reshape(out, (batch, 1, self.lstm.hidden_dim)))
            x = ad.concat(outputs, axis=1)
        return self.trunk.forward(x, training)

    def _node_decode(self, x: Tensor, training: bool) -> Tensor:
        """Neuron i of x (…, N, F) through node{i}: the concatenated hidden
        vectors (…, N * hidden) to classify, the per-node residuals (…, N, 2)
        to predict."""
        lead, axis = x.shape[:-2], x.ndim - 2
        predict = self.config.task is Task.PREDICT
        outs = []
        for i, node in enumerate(self.node_blocks):
            h = node.forward(ad.index_select(x, axis, [i]).reshape(lead + (x.shape[-1],)), training)
            outs.append(ad.reshape(self.node_heads[i].forward(h), lead + (1, 2)) if predict else h)
        return ad.concat(outs, axis=axis if predict else -1)

    def classify_logits(self, feats: Tensor, training: bool, rec_state=None,
                        edge_feats: Tensor | None = None) -> Tensor:
        """Per-timestep class logits for a (B, W, N, 2) feature stack.

        ``edge_feats`` optionally supplies the frames static edges are
        inferred from (one individual's whole recording); by default the
        classified stack itself is used.
        """
        cfg = self.config
        if cfg.task is not Task.CLASSIFY:
            raise ValueError("classify_logits: model was built for the Predict task")
        if feats.ndim != 4 or feats.shape[2] != cfg.n_neurons:
            raise ValueError(
                f"classify_logits: expected (B, W, {cfg.n_neurons}, 2), got {feats.shape}"
            )
        x = self._edge_stage(feats, training, edge_feats=edge_feats)
        if cfg.module_kind is ModuleKind.LINEAR:
            return self.linear.forward(self._aggregate(x))
        if self._per_node:
            return self.head.forward(self._node_decode(x, training))
        return self.head.forward(self._pooled_hidden(x, training, rec_state))

    def predict_residual(self, x: Tensor, training: bool, adjacency: Tensor | None = None,
                         rec_state=None):
        """Residual H for one batched frame (B, N, 2); returns (residual, rec_state)."""
        cfg = self.config
        if cfg.task is not Task.PREDICT:
            raise ValueError("predict_residual: model was built for the Classify task")
        if x.ndim != 3 or x.shape[1] != cfg.n_neurons or x.shape[2] != 2:
            raise ValueError(f"predict_residual: expected (B, {cfg.n_neurons}, 2), got {x.shape}")
        return self._predict_decode(self._edge_stage(x, training, adjacency), training, rec_state)

    def _predict_decode(self, x: Tensor, training: bool, rec_state=None):
        """Recurrent stage and decoder for one (B, N, F) frame of messages or features."""
        if not self._per_node:
            x = self._aggregate(x)
        if self.config.recurrent:
            x, rec_state = self._recurrent_step(x, rec_state)
        if self.config.module_kind is ModuleKind.NODE_MLP:
            return self._node_decode(x, training), rec_state
        if self._per_node:
            return self.dec_head.forward(self.decoder.forward(x, training)), rec_state
        out = self.head.forward(self.trunk.forward(x, training))
        return ad.reshape(out, (x.shape[0], self.config.n_neurons, 2)), rec_state


# ---------------------------------------------------------------------------
# public operations (single-sample contracts over the batched paths)
# ---------------------------------------------------------------------------

def _as_feature_window(features) -> np.ndarray:
    """Accept (N, 2) or (N, W, 2) layouts and return (W, N, 2)."""
    arr = features.data if isinstance(features, Tensor) else np.asarray(features, dtype=np.float64)
    if arr.ndim == 2:
        return arr[None, :, :]
    if arr.ndim == 3:
        return np.transpose(arr, (1, 0, 2))
    raise ValueError(f"features: expected (N, 2) or (N, W, 2), got shape {arr.shape}")


def mlp_forward(features, model: NeuralModel) -> Tensor:
    """Aggregate one timestep's node features and run the two-layer trunk."""
    if model.config.module_kind is not ModuleKind.MLP:
        raise ValueError("mlp_forward: model is not an MLP module")
    window = _as_feature_window(features)
    if window.shape[1] != model.config.n_neurons:
        raise ValueError(
            f"mlp_forward: features have {window.shape[1]} neurons, model expects {model.config.n_neurons}"
        )
    hidden = model._pooled_hidden(Tensor(window[None, :, :, :]), training=False)
    return ad.reshape(hidden, (window.shape[0], model.config.hidden_dim)) if window.shape[0] > 1 \
        else ad.reshape(hidden, (model.config.hidden_dim,))


def encode_edges(features, model: NeuralModel):
    """Infer AdjacencyMatrix(es) from a feature window (N, W, 2) or frame (N, 2).

    Static and one-hot modes return a single matrix; dynamic returns one
    per timestep.
    """
    window = _as_feature_window(features)
    feats = Tensor(window[None, :, :, :])
    w = model.edge_weights(feats, training=False)
    mode = model.config.edge_mode
    if w.ndim == 3:
        return AdjacencyMatrix(weights=ad.reshape(w, w.shape[1:]), mode=mode)
    return [
        AdjacencyMatrix(
            weights=ad.reshape(ad.index_select(w, 1, [t]), (w.shape[2], w.shape[3])),
            mode=mode,
            timestep=t,
        )
        for t in range(w.shape[1])
    ]


def load_connectome_edges(path, neuron_names, include_self_edges: bool = True) -> AdjacencyMatrix:
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
    return AdjacencyMatrix(weights=Tensor(weights), mode=EdgeMode.CONNECTOME)


def _adjacency_tensor(adjacency) -> Tensor:
    """An AdjacencyMatrix, Tensor or array as a Tensor."""
    a = adjacency.weights if isinstance(adjacency, AdjacencyMatrix) else adjacency
    return a if isinstance(a, Tensor) else Tensor(a)


def message_pass(adjacency, features, include_self_edges: bool = True) -> Tensor:
    """One message-passing step H = A X (self edges removable)."""
    a = _adjacency_tensor(adjacency)
    x = features if isinstance(features, Tensor) else Tensor(features)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"message_pass: adjacency must be square, got {a.shape}")
    if x.ndim != 2 or x.shape[0] != a.shape[0]:
        raise ValueError(f"message_pass: features {x.shape} do not match adjacency {a.shape}")
    if not include_self_edges:
        a = ad.mul(a, Tensor(_offdiag_mask(a.shape[0])))
    return ad.matmul(a, x)


def gnn_forward(features, adjacency, model: NeuralModel):
    """Message passing + decode for one timestep.

    Classify: aggregated messages through the trunk -> (hidden_dim,).
    Predict: per-node decode of the messages -> (N, 2) residual.
    """
    if model.config.module_kind is not ModuleKind.GNN:
        raise ValueError("gnn_forward: model is not a GNN module")
    window = _as_feature_window(features)
    if window.shape[0] != 1:
        raise ValueError("gnn_forward: expects a single timestep; use the batched paths for windows")
    messages = message_pass(adjacency, Tensor(window[0]),
                            include_self_edges=model.config.include_self_edges)  # (N, 2)
    if model.config.task is Task.CLASSIFY:
        hidden = model._pooled_hidden(ad.reshape(messages, (1, 1) + messages.shape), training=False)
        return ad.reshape(hidden, (model.config.hidden_dim,))
    residual, _ = model._predict_decode(ad.reshape(messages, (1,) + messages.shape), training=False)
    return ad.reshape(residual, messages.shape)


def classify(features_or_logits, model: NeuralModel):
    """State probabilities and the argmax state (ties break to the lowest index)."""
    if model.config.task is not Task.CLASSIFY:
        raise ValueError("classify: model was built for the Predict task")
    if isinstance(features_or_logits, Tensor) and features_or_logits.ndim == 1:
        logits = features_or_logits
    else:
        window = _as_feature_window(features_or_logits)
        if window.shape[0] != 1:
            raise ValueError("classify: expects a single timestep")
        feats = Tensor(window[None, :, :, :])
        logits_b = model.classify_logits(feats, training=False)
        logits = ad.reshape(logits_b, (model.config.n_states,))
    probs = ad.softmax(logits, axis=-1)
    predicted = int(np.argmax(probs.data))
    return probs, predicted


def predict_step(features, model: NeuralModel, adjacency=None, rec_state=None):
    """Markovian update X(t+1) = X(t) + H for a single frame (N, 2)."""
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.ndim != 2 or x.shape != (model.config.n_neurons, 2):
        raise ValueError(
            f"predict_step: expected ({model.config.n_neurons}, 2) frame, got {x.shape}"
        )
    a = None
    if adjacency is not None:
        a = _adjacency_tensor(adjacency)
        a = ad.reshape(a, (1,) + a.shape)
    batched = ad.reshape(x, (1,) + x.shape)
    residual, rec_state = model.predict_residual(batched, training=False, adjacency=a,
                                                 rec_state=rec_state)
    out = ad.add(batched, residual)
    return ad.reshape(out, x.shape), rec_state


def rollout_batch(model, teacher: np.ndarray, steps: int, sampling_prob: float = 0.0,
                  rng=None, training: bool = False, burn_in: int = 0,
                  edge_feats=None) -> Tensor:
    """Batched scheduled-sampling rollout; the workhorse behind training and eval.

    ``teacher`` holds aligned ground truth (B, L, N, 2) with frame 0 as the
    start; each step's input is the true frame with probability
    ``sampling_prob`` (coin per window per step), otherwise the model's own
    prediction.  Static/one-hot/connectome edges are fixed from
    ``edge_feats`` (falling back to the teacher stack); dynamic edges are
    re-inferred from each input frame.  Returns the predictions as a
    (B, steps, N, 2) tensor in the gradient graph.
    """
    if steps < 1:
        raise ValueError(f"rollout: steps must be >= 1, got {steps}")
    teacher = np.asarray(teacher, dtype=np.float64)
    if teacher.ndim != 4:
        raise ValueError(f"rollout: teacher must be (B, L, N, 2), got {teacher.shape}")
    batch, length = teacher.shape[0], teacher.shape[1]
    needed = burn_in + steps if (sampling_prob > 0 or burn_in > 0) else burn_in + 1
    if length < needed:
        raise ValueError(
            f"rollout: teacher has {length} frames but {burn_in + steps} are needed "
            f"(burn_in={burn_in}, steps={steps})"
        )
    if sampling_prob > 0 and rng is None:
        raise ValueError("rollout: sampling_prob > 0 requires an rng")

    adjacency = None
    cfg = model.config
    if cfg.module_kind is ModuleKind.GNN and cfg.edge_mode is not EdgeMode.DYNAMIC:
        source = Tensor(np.asarray(edge_feats, dtype=np.float64)) if edge_feats is not None \
            else Tensor(teacher)
        adj4 = model._adjacency_for(source, training)
        n = cfg.n_neurons
        adjacency = ad.reshape(adj4, (adj4.shape[0], n, n))

    state = None
    for k in range(burn_in):
        _, state = model.predict_residual(Tensor(teacher[:, k]), training, adjacency, state)

    x = Tensor(teacher[:, burn_in])
    outs = []
    for k in range(steps):
        x_in = x
        if sampling_prob > 0 and k > 0:
            coins = (rng.uniform(size=batch) < sampling_prob).astype(np.float64).reshape(batch, 1, 1)
            x_in = ad.add(
                ad.mul(Tensor(coins), Tensor(teacher[:, burn_in + k])),
                ad.mul(Tensor(1.0 - coins), x),
            )
        residual, state = model.predict_residual(x_in, training, adjacency, state)
        x = ad.add(x_in, residual)
        outs.append(ad.reshape(x, (batch, 1, cfg.n_neurons, 2)))
    return ad.concat(outs, axis=1)


def rollout(x0, steps: int, model, teacher=None, sampling_prob: float = 0.0,
            burn_in: int = 0, rng=None):
    """Iterate predict_step from one frame; returns the predicted frames.

    ``teacher`` is the aligned ground-truth window (teacher[0] corresponds
    to ``x0``); it is required whenever sampling_prob > 0 or a recurrent
    burn-in is requested.
    """
    x0_arr = np.asarray(x0.data if isinstance(x0, Tensor) else x0, dtype=np.float64)
    if teacher is None:
        if sampling_prob > 0 or burn_in > 0:
            raise ValueError(
                f"rollout: teacher has 0 frames but {burn_in + steps} are needed "
                f"(burn_in={burn_in}, steps={steps})"
            )
        teacher_arr = x0_arr[None]
    else:
        teacher_arr = np.asarray(teacher, dtype=np.float64)
    if sampling_prob > 0 and rng is None:
        rng = np.random.default_rng(0)
    preds = rollout_batch(model, teacher_arr[None], steps, sampling_prob=sampling_prob,
                          rng=rng, training=False, burn_in=burn_in)
    return [preds.data[0, k].copy() for k in range(steps)]


class ConstantResidualModel:
    """Stub predictor with a fixed residual; the identity map when it is zero."""

    def __init__(self, n_neurons: int, residual=None):
        self.config = ModelConfig(module_kind=ModuleKind.MLP, task=Task.PREDICT,
                                  n_neurons=n_neurons, hidden_dim=1)
        if residual is None:
            residual = np.zeros((n_neurons, 2))
        self._residual = np.broadcast_to(np.asarray(residual, dtype=np.float64),
                                         (n_neurons, 2)).copy()

    def parameters(self):
        return []

    def predict_residual(self, x, training, adjacency=None, rec_state=None):
        return Tensor(np.broadcast_to(self._residual, x.shape).copy()), rec_state


# ---------------------------------------------------------------------------
# linear baseline
# ---------------------------------------------------------------------------

@dataclass
class LinearBaseline:
    """One-vs-rest affine scorer trained with hinge loss + L2."""

    weights: np.ndarray  # (d, k)
    bias: np.ndarray  # (k,)

    def scores(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self.scores(features), axis=-1)


def linear_baseline(features: np.ndarray, labels: np.ndarray, l2: float = 1e-3,
                    learning_rate: float = 0.05, epochs: int = 200, seed: int = 0) -> LinearBaseline:
    """Train the hinge-loss one-vs-rest baseline on (M, d) features."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError(f"linear_baseline: need at least 2 classes, got {classes.size}")
    k = int(classes.max()) + 1
    d = features.shape[1]
    rng = derive_rng(seed, "linear-baseline")
    w = Parameter("w", ad.uniform_init(rng, d, (d, k)))
    b = Parameter("b", np.zeros(k))
    signs_t = Tensor(np.where(np.arange(k)[None, :] == labels[:, None], 1.0, -1.0))
    x_t = Tensor(features)
    ones = Tensor(np.ones((features.shape[0], k)))

    from .training import AdamState  # local import to avoid a cycle

    adam = AdamState([w, b], learning_rate)
    for _ in range(epochs):
        w.tensor.zero_grad()
        b.tensor.zero_grad()
        scores = ad.add(ad.matmul(x_t, w.tensor), b.tensor)
        hinge = ad.relu(ad.sub(ones, ad.mul(signs_t, scores))).mean()
        penalty = ad.scale(ad.mul(w.tensor, w.tensor).sum(), l2)
        loss = ad.add(hinge, penalty)
        loss.backward()
        adam.step()
    return LinearBaseline(weights=w.data.copy(), bias=b.data.copy())


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(model: NeuralModel, path) -> None:
    """Named-parameter manifest + config; byte-stable for identical inputs."""
    named = model.named_parameters()
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "parameters": [
            {"name": name, "shape": list(named[name].data.shape),
             "values": named[name].data.reshape(-1).tolist()}
            for name in sorted(named)
        ],
        "buffers": [
            {"name": name, "shape": list(np.asarray(vals).shape),
             "values": np.asarray(vals).reshape(-1).tolist()}
            for name, vals in sorted(model.buffers().items())
        ],
    }
    Path(path).write_text(json.dumps(payload))


def load_checkpoint(path) -> NeuralModel:
    raw = json.loads(Path(path).read_text())
    if raw.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"load_checkpoint: {path} is not a {CHECKPOINT_FORMAT} file")
    if raw.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"load_checkpoint: unsupported version {raw.get('version')}")
    model = NeuralModel(ModelConfig.from_dict(raw["config"]))
    named = model.named_parameters()
    seen = set()
    for entry in raw["parameters"]:
        name = entry["name"]
        if name not in named:
            raise ValueError(f"load_checkpoint: unknown parameter {name}")
        arr = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        if arr.shape != named[name].data.shape:
            raise ValueError(
                f"load_checkpoint: parameter {name} shape {arr.shape} != expected {named[name].data.shape}"
            )
        named[name].data = arr
        seen.add(name)
    missing = sorted(set(named) - seen)
    if missing:
        raise ValueError(f"load_checkpoint: missing parameters {missing}")
    buffer_map = {
        entry["name"]: np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
        for entry in raw.get("buffers", [])
    }
    for bn in model.batchnorms():
        bn.load_buffers(buffer_map)
    if "connectome" in buffer_map:
        model.connectome = buffer_map["connectome"]
    return model
