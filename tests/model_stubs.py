"""Stand-in models for tests of the rollout and evaluation code, and the
composed references of the fused edge nodes and the per-neuron body."""

import math

import numpy as np

from wormgnn import autodiff as ad
from wormgnn.autodiff import Tensor
from wormgnn.models import Linear, ModelConfig, ModuleKind, Task


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

    def fixed_adjacency(self, frames):
        return None

    def predict_residual(self, x, training, adjacency=None, rec_state=None):
        return Tensor(np.broadcast_to(self._residual, x.shape).copy()), rec_state


def composed_edge_block(x, w1, b1, w2, b2, w_head, b_head):
    """The edge MLP and its head from the composed ops: the logits (…, N * N,
    k) of every ordered pair (i, j) of node embeddings ``x`` (…, N, d), at
    i * N + j, with the first layer factored per node."""
    lead, n, d = x.shape[:-2], x.shape[-2], x.shape[-1]
    w_src, w_dst = ad.split(w1, [d, d], axis=0)
    width = w1.shape[-1]
    src = ad.reshape(ad.matmul(x, w_src), lead + (n, 1, width))
    dst = ad.reshape(ad.matmul(x, w_dst), lead + (1, n, width))
    pairs = ad.reshape(ad.relu(ad.add(ad.add(src, dst), b1)), lead + (n * n, width))
    return ad.linear(ad.linear(pairs, w2, b2, relu=True), w_head, b_head)


def composed_gate(logits, temperature, self_weight):
    """The (…, N, N) edge matrix of pair logits (…, N * N, 2): the second
    piece of their temperature softmax, times the off-diagonal mask, plus the
    identity for self edges."""
    lead, n = logits.shape[:-2], math.isqrt(logits.shape[-2])
    probs = ad.softmax(logits, axis=-1, temperature=temperature)
    w = ad.mul(ad.reshape(ad.split(probs, [1, 1], axis=-1)[1], lead + (n, n)), Tensor(1.0 - np.eye(n)))
    return ad.add(w, Tensor(np.eye(n))) if self_weight else w


def composed_encoder(feats, enc_w1, enc_b1, enc_w2, enc_b2, fixed=False):
    """The node embeddings (…, N, d) of features ``feats`` (…, N, c) from two
    ``linear(relu=True)`` layers; with ``fixed`` their ``tensor_mean`` over
    the lead axes, as (1, N, d)."""
    hidden = ad.linear(ad.linear(feats, enc_w1, enc_b1, relu=True), enc_w2, enc_b2, relu=True)
    if not fixed:
        return hidden
    return ad.reshape(hidden.mean(axis=tuple(range(hidden.ndim - 2))), (1,) + hidden.shape[-2:])


def composed_edge_matrix(feats, enc_w1, enc_b1, enc_w2, enc_b2, w1, b1, w2, b2, w_head, b_head, temperature,
                         self_weight, fixed=False):
    """``ad.edge_matrix`` as the composed encoder, edge block and gate: the
    reference it is bit-equal to."""
    hidden = composed_encoder(feats, enc_w1, enc_b1, enc_w2, enc_b2, fixed)
    return composed_gate(composed_edge_block(hidden, w1, b1, w2, b2, w_head, b_head), temperature, self_weight)


def composed_edge_message(feats, *weights_temperature_self_weight):
    """``ad.edge_message`` as the composed edge matrix and a matmul: the
    reference it is bit-equal to."""
    return ad.matmul(composed_edge_matrix(feats, *weights_temperature_self_weight), feats)


def composed_neuron_mlp(x, w1, b1, w2, b2, gamma=None, beta=None, stats=None):
    """``ad.neuron_mlp`` as ``models.Linear``'s per-neuron layers twice, then
    ``ad.batch_norm`` over the (N, h2) features: the reference it is
    bit-equal to."""
    for w, b in ((w1, b1), (w2, b2)):
        layer = Linear("node", *w.shape[1:], None, n_neurons=w.shape[0], weight=w.data)
        layer.weight.tensor, layer.bias.tensor = w, b
        x = layer.forward(x, relu=True)
    return (x, None, None) if gamma is None else ad.batch_norm(x, gamma, beta, stats)
