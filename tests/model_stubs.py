"""Stand-in models for tests of the rollout and evaluation code, and the
composed references of the fused dynamic-edge node and the per-neuron body."""

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

    def fixed_adjacency(self, frames, training):
        return None

    def predict_residual(self, x, training, adjacency=None, rec_state=None):
        return Tensor(np.broadcast_to(self._residual, x.shape).copy()), rec_state


def composed_edge_message(hidden, feats, w1, b1, w2, b2, w_head, b_head, temperature, self_weight):
    """``ad.edge_message`` as the edge block, the gate with its self edges and
    a matmul, three nodes: the reference it is bit-equal to."""
    logits = ad.edge_block(hidden, w1, b1, w2, b2, w_head, b_head)
    return ad.matmul(ad.softmax_gate(logits, temperature, self_weight=self_weight), feats)


def composed_neuron_mlp(x, w1, b1, w2, b2, gamma=None, beta=None, stats=None):
    """``ad.neuron_mlp`` as ``models.Linear``'s per-neuron layers twice, then
    ``ad.batch_norm`` over the (N, h2) features: the reference it is
    bit-equal to."""
    for w, b in ((w1, b1), (w2, b2)):
        layer = Linear("node", *w.shape[1:], None, n_neurons=w.shape[0], weight=w.data)
        layer.weight.tensor, layer.bias.tensor = w, b
        x = layer.forward(x, relu=True)
    return (x, None, None) if gamma is None else ad.batch_norm(x, gamma, beta, stats)
