"""Stand-in models for tests of the rollout and evaluation code, the
composed references of the fused edge nodes and the per-neuron body, the
along-axis reference of ``ad.softmax_nll``'s gathers and the dict-keyed
reference of ``ad.backward``."""

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


def along_axis_softmax_nll(z, targets):
    """``ad.softmax_nll``'s loss and its logits' gradient for an upstream 1,
    as numpy arrays, with each row's target logit gathered by
    ``np.take_along_axis`` and its one-hot subtracted by ``np.put_along_axis``:
    the reference its flat gathers are byte-equal to."""
    k = z.shape[-1]
    valid = targets >= 0
    count = max(int(valid.sum()), 1)
    at = np.where(valid, targets, 0)[..., None]
    top = z[..., 0]
    for j in range(1, k):
        top = np.maximum(top, z[..., j])
    shifted = z - top[..., None]
    e = np.exp(shifted)
    total = e[..., 0].copy()
    for j in range(1, k):
        total += e[..., j]
    rows = np.log(total) - np.take_along_axis(shifted, at, axis=-1)[..., 0]
    loss = np.where(valid, rows, 0.0).sum() * (1.0 / count)
    grad = e / total[..., None]
    np.put_along_axis(grad, at, np.take_along_axis(grad, at, axis=-1) - 1.0, axis=-1)
    grad *= np.ones(()) * (1.0 / count)
    grad[~valid] = 0.0
    return loss, grad


def dict_backward(root):
    """``ad.backward`` with its pending gradients in a dict keyed by each
    node's ``id()``: the reference the walk that keeps them on the tensors is
    byte-equal to."""
    if root.data.shape != ():
        raise ValueError(f"backward: root must be scalar, got shape {root.data.shape}")
    if root._consumed:
        raise RuntimeError("backward: this graph was already differentiated; rebuild it first")
    root._consumed = True
    if not root.requires_grad:
        return

    order = ad._topo_order(root)
    grads = {id(root): np.ones(())}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is None:  # a leaf
            node.grad = g if node.grad is None else node.grad + g
            continue
        parent_grads = node._backward_fn(g)
        for parent, pg in zip(node._parents, parent_grads):
            if pg is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
